//! 1D block-row parallel GCN training — the paper's Algorithm 1 (§IV-A).
//!
//! Data distribution (Table III): `A` partitioned by block *columns*
//! (equivalently, `Aᵀ` by block rows — one block row of `Aᵀ` per rank),
//! `H^l` and `G^l` by block rows, `W^l` fully replicated.
//!
//! Per layer, forward runs `P` broadcast stages
//! (`T_i ← T_i + Aᵀ_{ij} H_j`), then a local GEMM against the replicated
//! `W`. Backward computes the large 1D outer product `A_i G_i` (a
//! full-height `n x f` low-rank contribution per rank), reduce-scatters it
//! back into block rows (§IV-A.3), reuses the scattered intermediate
//! `A G` for the weight gradient `Y = (H^{l-1})ᵀ (A G)` via an `f x f`
//! all-reduce (§IV-A.4), and finishes with the replicated gradient-descent
//! step. `H` is row-partitioned, so even the non-elementwise
//! `log_softmax` needs no communication (§IV-A.2).
//!
//! The forward `H_j` stage fetches follow the [`super::CommMode`] tier.

use super::{DistTrainer, Layout, StorageReport, TrainState};
use crate::loss::output_gradient;
use crate::model::GcnConfig;
use crate::problem::Problem;
use cagnet_comm::{Cat, Ctx};
use cagnet_dense::{matmul_with, Mat};
use cagnet_sparse::partition::{block_range, block_ranges};
use cagnet_sparse::spmm::{outer_product_from_transposed, spmm_acc_with};
use cagnet_sparse::Csr;

/// The 1D trainer: the shared shell over the [`OneDimLayout`].
pub type OneDimTrainer = DistTrainer<OneDimLayout>;

/// Per-rank blocks of the 1D distribution.
pub struct OneDimLayout {
    n: usize,
    /// My global row range `[r0, r1)`.
    r0: usize,
    /// Block row `i` of `Aᵀ` split into `P` column blocks
    /// (`Aᵀ_{ij}`, each `n_i x n_j`).
    at_blocks: Vec<Csr>,
    /// Per stage `j`: the sorted distinct columns of `Aᵀ_{ij}` — the rows
    /// of `H_j` this rank actually reads (sparsity-aware mode).
    needed: Vec<Vec<usize>>,
    /// Column-compacted copies of `at_blocks` (columns renumbered to
    /// `needed[j]` order) for multiplying compact gathered operands.
    /// Built lazily on the first switch to sparsity-aware mode.
    at_compact: Vec<Csr>,
    /// The full block row `Aᵀ_i` (`n_i x n`) — the CSR-of-transpose of
    /// `A`'s column block `i`, used directly by the backward outer
    /// product.
    at_row: Csr,
}

impl OneDimTrainer {
    /// Slice this rank's blocks out of the shared problem (uncharged
    /// setup, like the paper's data loading).
    ///
    /// # Panics
    /// When the geometry is invalid; see [`OneDimTrainer::try_setup`] for
    /// the fallible variant.
    pub fn setup(ctx: &Ctx, problem: &Problem, cfg: &GcnConfig) -> Self {
        Self::try_setup(ctx, problem, cfg).unwrap_or_else(|e| panic!("1D trainer setup: {e}"))
    }

    /// Fallible constructor: returns [`super::SetupError`] instead of
    /// panicking when the cluster does not fit the problem.
    pub fn try_setup(
        ctx: &Ctx,
        problem: &Problem,
        cfg: &GcnConfig,
    ) -> Result<Self, super::SetupError> {
        let n = problem.vertices();
        let p = ctx.size;
        if p > n {
            return Err(super::SetupError::TooManyRanks {
                ranks: p,
                vertices: n,
            });
        }
        let (r0, r1) = block_range(n, p, ctx.rank);
        let at_row = problem.adj_t.block(r0, r1, 0, n);
        let at_blocks: Vec<Csr> = block_ranges(n, p)
            .into_iter()
            .map(|(c0, c1)| at_row.block(0, r1 - r0, c0, c1))
            .collect();
        let needed = at_blocks.iter().map(Csr::needed_cols).collect();
        let h0 = problem.features.block(r0, r1, 0, problem.features.cols());
        let layout = OneDimLayout {
            n,
            r0,
            at_blocks,
            needed,
            at_compact: Vec::new(),
            at_row,
        };
        Ok(DistTrainer::new(problem, cfg, h0, layout))
    }
}

impl Layout for OneDimLayout {
    fn row_offset(&self) -> usize {
        self.r0
    }

    /// Algorithm 1's block-row SpMM over `P` stages, then the local GEMM
    /// against the replicated `W`.
    fn layer(&self, s: &TrainState, ctx: &Ctx, l: usize) -> Mat {
        let f_in = s.cfg.dims[l];
        let f_out = s.cfg.dims[l + 1];
        let h = &s.hs[l];
        let mut t = Mat::zeros(self.at_row.rows(), f_in);
        // Stage j fetches H_j (a broadcast, or the rows this rank
        // reads), then accumulates T_i += Aᵀ_ij H_j. The owner's
        // resident block rides in as an Arc clone, never a deep copy.
        // Root-side dims are known to every rank from the balanced
        // partition (`at_blocks[j]` has one column per root row), so
        // receivers fingerprint them and a wrong-shaped panel is
        // attributed to the root (CheckMode).
        super::run_stages(
            ctx.size,
            |j| {
                s.stages.fetch(
                    &ctx.world,
                    j,
                    (j == ctx.rank).then(|| h.clone()),
                    &self.needed[j],
                    (self.at_blocks[j].cols(), h.cols()),
                )
            },
            |j, hj| {
                let hj = hj.wait();
                // The compact panel has the same nnz/rows as the full
                // block (columns are only renumbered), so the charged
                // SpMM cost — and the accumulation order — is
                // identical in both modes.
                let a = if s.stages.sparse_exchange() {
                    &self.at_compact[j]
                } else {
                    &self.at_blocks[j]
                };
                ctx.charge_spmm(a.nnz(), a.rows(), f_in);
                spmm_acc_with(ctx.parallel(), a, &hj, &mut t);
            },
        );
        let z = matmul_with(ctx.parallel(), &t, &s.weights[l]);
        ctx.charge_gemm(t.rows(), f_in, f_out);
        z
    }

    fn backward(&mut self, s: &mut TrainState, ctx: &Ctx) {
        let l_total = s.cfg.layers();
        let mut g = output_gradient(
            &s.zs[l_total - 1],
            &s.labels,
            &s.mask,
            self.r0,
            s.train_count,
        );
        ctx.charge_elementwise(g.len());
        for l in (0..l_total).rev() {
            let f_out = s.cfg.dims[l + 1];
            // Large 1D outer product: A(:, my block) · G_i, a full-height
            // low-rank contribution (§IV-A.3).
            ctx.charge_spmm(self.at_row.nnz(), self.at_row.rows(), f_out);
            let contrib = outer_product_from_transposed(&self.at_row, &g);
            debug_assert_eq!(contrib.shape(), (self.n, f_out));
            let ag = ctx.world.reduce_scatter_rows(&contrib, Cat::DenseComm);
            // Small 1D outer product for Y (§IV-A.4), reusing A·G.
            if let Some(next) = super::row_backward_step(s, ctx, l, &ag) {
                g = next;
            }
        }
    }

    fn compact_panels(&mut self) {
        if self.at_compact.is_empty() {
            self.at_compact = super::compacted(&self.at_blocks, &self.needed);
        }
    }

    fn storage_words(&self, s: &TrainState) -> StorageReport {
        StorageReport {
            adjacency: super::csr_words(&self.at_row)
                + self.at_blocks.iter().map(super::csr_words).sum::<usize>()
                + self.at_compact.iter().map(super::csr_words).sum::<usize>(),
            dense_state: super::mats_words(&s.hs) + super::mats_words(&s.zs),
            // The §IV-A.3 full-height low-rank product: n x f, regardless
            // of P — 1D's memory-scalability problem.
            intermediate: self.n * s.cfg.f_max(),
        }
    }
}
