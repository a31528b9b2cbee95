//! 1.5D replicated block-row GCN training — the paper's §IV-B.
//!
//! The paper discusses 1.5D algorithms (after Koanantakool et al. \[20\]) as
//! the middle ground between 1D (no replication, most communication) and
//! 2D: a replication factor `c` buys a `c`-fold reduction in the dominant
//! broadcast volume at the price of `c`-fold memory replication. The paper
//! chose not to implement it because for GNNs `d = O(f)` makes the
//! replication burden unattractive (§IV-B) — we implement it anyway so
//! the trade-off can be *measured* (bench `comm_volume`, ablation over
//! `c`).
//!
//! Geometry: `P = p₁·c` ranks on a `p₁ x c` grid; rank `(i, r)` has world
//! id `i·c + r`. `Aᵀ` is partitioned into `p₁` *coarse* block rows whose
//! work is shared by the team `(i, ·)`; each replica stores only the
//! column slices it multiplies (the fine blocks `≡ r (mod c)`), so
//! per-rank adjacency storage stays `O(nnz/P)`. The §IV-B memory premium
//! appears instead in the *intermediates*: the forward partial sum spans
//! the whole coarse block (`c` fine blocks tall) and the backward
//! outer-product contribution spans `n/c` rows —
//! `tests/memory_replication.rs` pins this down. Dense matrices are
//! partitioned into `P` *fine* block rows, fine block `b = i·c + r`
//! living on rank `(i, r)`.
//!
//! Forward: replica `r` accumulates only the stages `b ≡ r (mod c)`
//! (column-group broadcasts of fine `H` blocks — each rank receives
//! `≈ n·f/c` words instead of 1D's `n·f`), then the team reduce-scatters
//! the coarse partial back to fine blocks. Backward mirrors it: team
//! all-gather of `G`, a column-sliced outer product per replica, and a
//! replica-group reduce-scatter back to fine blocks.
//!
//! The forward replica-group `H` fetches follow the [`super::CommMode`]
//! tier.

use super::{DistTrainer, Layout, StorageReport, TrainState};
use crate::loss::output_gradient;
use crate::model::GcnConfig;
use crate::problem::Problem;
use cagnet_comm::comm::Communicator;
use cagnet_comm::{Cat, Ctx};
use cagnet_dense::{matmul_with, Mat};
use cagnet_sparse::partition::block_ranges;
use cagnet_sparse::spmm::{outer_product_from_transposed, spmm_acc_with};
use cagnet_sparse::Csr;
use std::sync::Arc;

/// The 1.5D trainer: the shared shell over the [`One5DLayout`].
pub type One5DTrainer = DistTrainer<One5DLayout>;

/// Per-rank blocks and communicators of the 1.5D distribution.
pub struct One5DLayout {
    /// Replication factor `c`.
    c: usize,
    /// Team count `p₁ = P / c`.
    p1: usize,
    /// My team index `i`.
    ti: usize,
    /// Team communicator `(i, ·)` of size `c`.
    team: Communicator,
    /// Replica-group communicator `(·, r)` of size `p₁`.
    rep: Communicator,
    /// Global start of my fine row block.
    fine_r0: usize,
    /// Forward stage operands: `Aᵀ(coarse rows i, fine cols i'·c + r)`
    /// for `i' = 0..p₁`.
    at_fwd: Vec<Csr>,
    /// Per forward stage `i'`: the sorted distinct columns of
    /// `at_fwd[i']` — the rows of the broadcast fine `H` block this rank
    /// actually reads (sparsity-aware mode).
    needed: Vec<Vec<usize>>,
    /// Column-compacted copies of `at_fwd` (columns renumbered to
    /// `needed[i']` order) for multiplying compact gathered operands.
    /// Built lazily on the first switch to sparsity-aware mode.
    at_compact: Vec<Csr>,
    /// Backward operand: `Aᵀ(coarse rows i, ·)` restricted to the columns
    /// of all fine blocks `≡ r (mod c)`, concatenated in team order.
    at_bwd: Csr,
}

impl One5DTrainer {
    /// Slice this rank's blocks from the shared problem. `c` must divide
    /// the world size.
    pub fn setup(ctx: &Ctx, problem: &Problem, cfg: &GcnConfig, c: usize) -> Self {
        Self::try_setup(ctx, problem, cfg, c).unwrap_or_else(|e| panic!("1.5D trainer setup: {e}"))
    }

    /// Fallible constructor: returns [`super::SetupError`] instead of
    /// panicking when `c` does not divide `P` or the cluster does not
    /// fit the problem.
    pub fn try_setup(
        ctx: &Ctx,
        problem: &Problem,
        cfg: &GcnConfig,
        c: usize,
    ) -> Result<Self, super::SetupError> {
        let p = ctx.size;
        if c < 1 || !p.is_multiple_of(c) {
            return Err(super::SetupError::Geometry(format!(
                "replication factor {c} must divide P={p}"
            )));
        }
        let p1 = p / c;
        let n = problem.vertices();
        if p > n {
            return Err(super::SetupError::TooManyRanks {
                ranks: p,
                vertices: n,
            });
        }
        let ti = ctx.rank / c;
        let tr = ctx.rank % c;
        let team = ctx.world.split(ti as u64);
        let rep = ctx.world.split((p1 + tr) as u64); // offset to avoid color clash
        debug_assert_eq!(team.size(), c);
        debug_assert_eq!(rep.size(), p1);

        let fine = block_ranges(n, p);
        // Coarse block i = union of its fine blocks (alignment with the
        // balanced fine split is what makes the reduce-scatters land
        // exactly on fine blocks).
        let coarse = |i: usize| (fine[i * c].0, fine[(i + 1) * c - 1].1);
        let (cr0, cr1) = coarse(ti);
        let at_coarse = problem.adj_t.block(cr0, cr1, 0, n);
        let at_fwd: Vec<Csr> = (0..p1)
            .map(|ip| {
                let (b0, b1) = fine[ip * c + tr];
                at_coarse.block(0, cr1 - cr0, b0, b1)
            })
            .collect();
        let needed = at_fwd.iter().map(Csr::needed_cols).collect();
        // Backward: same column slices, concatenated in team order i'.
        let at_bwd = {
            let mut coo = cagnet_sparse::Coo::new(
                cr1 - cr0,
                (0..p1)
                    .map(|ip| {
                        let (b0, b1) = fine[ip * c + tr];
                        b1 - b0
                    })
                    .sum(),
            );
            let mut col_off = 0;
            for ip in 0..p1 {
                let (b0, b1) = fine[ip * c + tr];
                let blk = at_coarse.block(0, cr1 - cr0, b0, b1);
                for row in 0..blk.rows() {
                    for (col, v) in blk.row_entries(row) {
                        coo.push(row, col_off + col, v);
                    }
                }
                col_off += b1 - b0;
            }
            Csr::from_coo(coo)
        };

        let (fr0, fr1) = fine[ctx.rank];
        let h0 = problem.features.block(fr0, fr1, 0, problem.features.cols());
        let layout = One5DLayout {
            c,
            p1,
            ti,
            team,
            rep,
            fine_r0: fr0,
            at_fwd,
            needed,
            at_compact: Vec::new(),
            at_bwd,
        };
        Ok(DistTrainer::new(problem, cfg, h0, layout))
    }

    /// Replication factor in effect.
    pub fn replication(&self) -> usize {
        self.layout.c
    }
}

impl Layout for One5DLayout {
    fn row_offset(&self) -> usize {
        self.fine_r0
    }

    /// Replica `r`'s stages `b ≡ r (mod c)` accumulate the coarse partial
    /// sum via replica-group fetches of fine `H` blocks; the team
    /// reduce-scatters it to my fine block of `T`, then the local GEMM.
    /// Dense matrices are fine-block row partitioned, so even
    /// `log_softmax` is local, as in 1D.
    fn layer(&self, s: &TrainState, ctx: &Ctx, l: usize) -> Mat {
        let f_in = s.cfg.dims[l];
        let f_out = s.cfg.dims[l + 1];
        let h = &s.hs[l];
        let coarse_rows = self.at_fwd[0].rows();
        let mut partial = Mat::zeros(coarse_rows, f_in);
        // Root-side dims of stage i' are known to every replica-group
        // member from the balanced partition (`at_fwd[i']` has one
        // column per root row), fingerprinted under CheckMode.
        super::run_stages(
            self.p1,
            |ip| {
                s.stages.fetch(
                    &self.rep,
                    ip,
                    (ip == self.ti).then(|| h.clone()),
                    &self.needed[ip],
                    (self.at_fwd[ip].cols(), h.cols()),
                )
            },
            |ip, h_b| {
                let h_b = h_b.wait();
                // Same nnz/rows either way (compact only renumbers
                // columns): identical charged cost and accumulation order.
                let a = if s.stages.sparse_exchange() {
                    &self.at_compact[ip]
                } else {
                    &self.at_fwd[ip]
                };
                ctx.charge_spmm(a.nnz(), coarse_rows, f_in);
                spmm_acc_with(ctx.parallel(), a, &h_b, &mut partial);
            },
        );
        let t = self.team.reduce_scatter_rows(&partial, Cat::DenseComm);
        ctx.charge_gemm(t.rows(), f_in, f_out);
        matmul_with(ctx.parallel(), &t, &s.weights[l])
    }

    fn backward(&mut self, s: &mut TrainState, ctx: &Ctx) {
        let l_total = s.cfg.layers();
        // Shared so my block enters the team all-gather without a copy.
        let mut g = Arc::new(output_gradient(
            &s.zs[l_total - 1],
            &s.labels,
            &s.mask,
            self.fine_r0,
            s.train_count,
        ));
        ctx.charge_elementwise(g.len());
        for l in (0..l_total).rev() {
            let f_out = s.cfg.dims[l + 1];
            // Team all-gather: assemble the coarse G block (every replica
            // needs it for its column slice of the outer product).
            let parts = self.team.allgather_shared(g.clone(), Cat::DenseComm);
            let g_coarse = Mat::vstack(&parts.iter().map(|p| (**p).clone()).collect::<Vec<_>>());
            // Outer product restricted to output fine blocks ≡ r (mod c),
            // stacked in team order.
            ctx.charge_spmm(self.at_bwd.nnz(), self.at_bwd.rows(), f_out);
            let contrib = outer_product_from_transposed(&self.at_bwd, &g_coarse);
            // Replica-group reduce-scatter: piece i' sums across teams and
            // lands on rank (i', r) — exactly my fine block of A G.
            let ag = self.rep.reduce_scatter_rows(&contrib, Cat::DenseComm);
            debug_assert_eq!(ag.rows(), s.hs[l].rows());
            if let Some(next) = super::row_backward_step(s, ctx, l, &ag) {
                g = Arc::new(next);
            }
        }
    }

    fn compact_panels(&mut self) {
        if self.at_compact.is_empty() {
            self.at_compact = super::compacted(&self.at_fwd, &self.needed);
        }
    }

    /// The adjacency term carries the `c`-fold replication of §IV-B.
    fn storage_words(&self, s: &TrainState) -> StorageReport {
        let f_max = s.cfg.f_max();
        let coarse_rows = self.at_fwd[0].rows();
        StorageReport {
            adjacency: self.at_fwd.iter().map(super::csr_words).sum::<usize>()
                + self.at_compact.iter().map(super::csr_words).sum::<usize>()
                + super::csr_words(&self.at_bwd),
            dense_state: super::mats_words(&s.hs) + super::mats_words(&s.zs),
            // Forward coarse partial + backward sliced outer product and
            // team-gathered G.
            intermediate: (coarse_rows * f_max)
                .max(self.at_bwd.cols() * f_max + coarse_rows * f_max),
        }
    }

    // World rank order equals fine-block order by construction, so the
    // provided `gather_embeddings` assembles the rows in order.
}
