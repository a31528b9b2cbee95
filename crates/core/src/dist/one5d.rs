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

use crate::loss::{accuracy_counts, nll_sum, output_gradient};
use crate::model::GcnConfig;
use crate::optimizer::{Optimizer, OptimizerKind};
use crate::problem::Problem;
use cagnet_comm::comm::Communicator;
use cagnet_comm::{Cat, Ctx};
use cagnet_dense::activation::{log_softmax_rows, Activation};
use cagnet_dense::ops::hadamard_assign;
use cagnet_dense::{matmul_nt_with, matmul_tn_with, matmul_with, Mat};
use cagnet_sparse::partition::block_ranges;
use cagnet_sparse::spmm::{outer_product_from_transposed, spmm_acc_with};
use cagnet_sparse::Csr;
use std::sync::Arc;

/// Per-rank state of the 1.5D trainer.
pub struct One5DTrainer {
    cfg: GcnConfig,
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
    train_count: usize,
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
    /// Comm tier, overlap, training state and halo cache of the forward
    /// replica-group fetches (DESIGN.md §9, §10, §13).
    stages: super::StageFetcher,
    /// Backward operand: `Aᵀ(coarse rows i, ·)` restricted to the columns
    /// of all fine blocks `≡ r (mod c)`, concatenated in team order.
    at_bwd: Csr,
    labels: Arc<Vec<usize>>,
    mask: Arc<Vec<bool>>,
    weights: Vec<Mat>,
    opt: Optimizer,
    act: Activation,
    dropout: f64,
    epoch_counter: u64,
    drop_masks: Vec<Option<Mat>>,
    zs: Vec<Mat>,
    /// Stored activations, shared so blocks enter broadcast stages
    /// without a copy.
    hs: Vec<Arc<Mat>>,
}

impl One5DTrainer {
    /// Slice this rank's blocks from the shared problem. `c` must divide
    /// the world size.
    pub fn setup(ctx: &Ctx, problem: &Problem, cfg: &GcnConfig, c: usize) -> Self {
        match Self::try_setup(ctx, problem, cfg, c) {
            Ok(t) => t,
            Err(e) => panic!("1.5D trainer setup: {e}"),
        }
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
        Ok(One5DTrainer {
            cfg: cfg.clone(),
            c,
            p1,
            ti,
            team,
            rep,
            train_count: problem.train_count(),
            fine_r0: fr0,
            at_fwd,
            needed,
            at_compact: Vec::new(),
            stages: super::StageFetcher::default(),
            at_bwd,
            labels: Arc::new(problem.labels.clone()),
            mask: Arc::new(problem.train_mask.clone()),
            opt: {
                let w = cfg.init_weights();
                Optimizer::for_weights(OptimizerKind::Sgd, cfg.lr, &w)
            },
            act: Activation::Relu,
            dropout: 0.0,
            epoch_counter: 0,
            drop_masks: Vec::new(),
            weights: cfg.init_weights(),
            zs: Vec::new(),
            hs: vec![Arc::new(h0)],
        })
    }

    /// Root-side dims of stage `i'`'s fine `H` block — known to every
    /// replica-group member from the balanced partition (`at_fwd[i']`
    /// has one column per root row), fingerprinted by receivers under
    /// CheckMode.
    fn stage_dims(&self, l: usize, ip: usize) -> (usize, usize) {
        (self.at_fwd[ip].cols(), self.hs[l].cols())
    }

    /// Accumulate the coarse partial sum for layer `l`: replica `r`'s
    /// stages `b ≡ r (mod c)` via replica-group fetches of fine `H`
    /// blocks.
    fn coarse_partial(&self, ctx: &Ctx, l: usize, f_in: usize) -> Mat {
        let coarse_rows = self.at_fwd[0].rows();
        let mut partial = Mat::zeros(coarse_rows, f_in);
        super::run_stages(
            self.p1,
            |ip| {
                self.stages.fetch(
                    &self.rep,
                    ip,
                    (ip == self.ti).then(|| self.hs[l].clone()),
                    &self.needed[ip],
                    self.stage_dims(l, ip),
                )
            },
            |ip, h_b| {
                let h_b = h_b.wait();
                // Same nnz/rows either way (compact only renumbers
                // columns): identical charged cost and accumulation order.
                let a = if self.stages.sparse_exchange() {
                    &self.at_compact[ip]
                } else {
                    &self.at_fwd[ip]
                };
                ctx.charge_spmm(a.nnz(), coarse_rows, f_in);
                spmm_acc_with(ctx.parallel(), a, &h_b, &mut partial);
            },
        );
        partial
    }

    /// Forward pass; returns global mean masked NLL loss.
    pub fn forward(&mut self, ctx: &Ctx) -> f64 {
        let l_total = self.cfg.layers();
        self.zs.clear();
        self.drop_masks = vec![None; l_total];
        self.hs.truncate(1);
        for l in 0..l_total {
            let f_in = self.cfg.dims[l];
            let f_out = self.cfg.dims[l + 1];
            let partial = self.coarse_partial(ctx, l, f_in);
            // Team reduce-scatter: coarse partials → my fine block of T.
            let t = self.team.reduce_scatter_rows(&partial, Cat::DenseComm);
            ctx.charge_gemm(t.rows(), f_in, f_out);
            let z = matmul_with(ctx.parallel(), &t, &self.weights[l]);
            // Dense matrices are fine-block row partitioned: even
            // log_softmax is local, as in 1D.
            let h = if l + 1 == l_total {
                log_softmax_rows(&z)
            } else {
                let mut h = self.act.apply(&z);
                self.apply_dropout(l, self.fine_r0, f_out, 0, f_out, &mut h);
                h
            };
            ctx.charge_elementwise(z.len());
            self.zs.push(z);
            self.hs.push(Arc::new(h));
        }
        let local = nll_sum(
            super::output_block(&self.hs),
            &self.labels,
            &self.mask,
            self.fine_r0,
        );
        ctx.world.allreduce_scalar(local, Cat::DenseComm) / self.train_count as f64
    }

    /// Backward pass + replicated gradient-descent step.
    pub fn backward(&mut self, ctx: &Ctx) {
        let l_total = self.cfg.layers();
        assert_eq!(self.zs.len(), l_total, "forward must run before backward");
        // Shared so my block enters the team all-gather without a copy.
        let mut g = Arc::new(output_gradient(
            &self.zs[l_total - 1],
            &self.labels,
            &self.mask,
            self.fine_r0,
            self.train_count,
        ));
        ctx.charge_elementwise(g.len());
        for l in (0..l_total).rev() {
            let f_in = self.cfg.dims[l];
            let f_out = self.cfg.dims[l + 1];
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
            debug_assert_eq!(ag.rows(), self.hs[l].rows());
            // With overlap on, the f x f all-reduce is in flight while
            // the next layer's gradient GEMM computes.
            ctx.charge_gemm(f_in, ag.rows(), f_out);
            let y_partial = matmul_tn_with(ctx.parallel(), &self.hs[l], &ag);
            let y_op = self
                .stages
                .defer(|| ctx.world.iallreduce_mat(&y_partial, Cat::DenseComm));
            if l > 0 {
                ctx.charge_gemm(ag.rows(), f_out, f_in);
                let mut next_g = matmul_nt_with(ctx.parallel(), &ag, &self.weights[l]);
                hadamard_assign(&mut next_g, &self.act.prime(&self.zs[l - 1]));
                if let Some(mask) = self.drop_masks[l - 1].take() {
                    hadamard_assign(&mut next_g, &mask);
                }
                ctx.charge_elementwise(next_g.len());
                g = Arc::new(next_g);
            }
            let y = y_op.wait();
            self.opt.step(l, &mut self.weights[l], &y);
            ctx.charge_elementwise(y.len());
        }
    }

    /// One epoch; returns the pre-update loss.
    pub fn epoch(&mut self, ctx: &Ctx) -> f64 {
        self.epoch_counter += 1;
        self.stages.begin_epoch(self.epoch_counter);
        let loss = self.forward(ctx);
        self.backward(ctx);
        self.stages.end_epoch();
        loss
    }

    /// Global training accuracy of the current model.
    pub fn accuracy(&mut self, ctx: &Ctx) -> f64 {
        let _ = self.forward(ctx);
        let (c, t) = accuracy_counts(
            super::output_block(&self.hs),
            &self.labels,
            &self.mask,
            self.fine_r0,
        );
        super::global_accuracy(ctx, c, t)
    }

    fn apply_dropout(
        &mut self,
        layer: usize,
        row_offset: usize,
        f_total: usize,
        c0: usize,
        c1: usize,
        h: &mut Mat,
    ) {
        if self.stages.training() && self.dropout > 0.0 {
            let mask = crate::dropout::mask_block(
                crate::dropout::DropoutKey {
                    base_seed: self.cfg.seed,
                    epoch: self.epoch_counter,
                    layer,
                },
                self.dropout,
                row_offset,
                h.rows(),
                f_total,
                c0,
                c1,
            );
            cagnet_dense::ops::hadamard_assign(h, &mask);
            self.drop_masks[layer] = Some(mask);
        }
    }

    /// Set the hidden-layer dropout rate (inverted dropout; a fresh
    /// deterministic mask per epoch, identical across layouts and ranks —
    /// see [`crate::dropout`]). 0 disables it; evaluation forwards never
    /// apply it.
    pub fn set_dropout(&mut self, rate: f64) {
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0, 1)");
        self.dropout = rate;
    }

    /// Choose dense broadcasts, the sparsity-aware row exchange, or the
    /// cached tier for the forward stages (see [`super::CommMode`]).
    /// `Dense` and `SparsityAware` train bit-identically; `Cached` is
    /// bit-identical only at `refresh: 1` (DESIGN.md §13). Must be set
    /// identically on every rank. Always drops any halo cache, so a mode
    /// change can never serve stale blocks.
    pub fn set_comm_mode(&mut self, mode: super::CommMode) {
        if mode.sparse_exchange() && self.at_compact.is_empty() {
            self.at_compact = self
                .at_fwd
                .iter()
                .zip(&self.needed)
                .map(|(a, nd)| a.compact_cols(nd))
                .collect();
        }
        self.stages.set_mode(mode);
    }

    /// Enable or disable communication/computation overlap (default on).
    /// With overlap on, stage fetches and the weight-gradient all-reduce
    /// run as nonblocking collectives pipelined against compute; losses,
    /// weights, and metered words are bit-identical either way — only
    /// modeled (and wall-clock) time changes. Must be set identically on
    /// every rank.
    pub fn set_overlap(&mut self, overlap: bool) {
        self.stages.set_overlap(overlap);
    }

    /// Select the hidden-layer activation (default ReLU, the paper's σ;
    /// the output layer stays log-softmax). Elementwise, so it changes no
    /// communication. Must be set identically on every rank.
    pub fn set_hidden_activation(&mut self, act: Activation) {
        self.act = act;
    }

    /// Select the optimizer (replicated state; no communication). Resets
    /// any accumulated moments. Must be called identically on every rank,
    /// before training.
    pub fn set_optimizer(&mut self, kind: OptimizerKind) {
        self.opt = Optimizer::for_weights(kind, self.cfg.lr, &self.weights);
    }

    /// Replace the replicated weights (e.g. with a trained model for
    /// inference). Must be called identically on every rank.
    pub fn set_weights(&mut self, weights: Vec<Mat>) {
        assert_eq!(weights.len(), self.cfg.layers(), "weight stack length");
        for (l, w) in weights.iter().enumerate() {
            assert_eq!(
                w.shape(),
                (self.cfg.dims[l], self.cfg.dims[l + 1]),
                "weight {l} shape"
            );
        }
        self.weights = weights;
    }

    /// Replicated weights.
    pub fn weights(&self) -> &[Mat] {
        &self.weights
    }

    /// Replication factor in effect.
    pub fn replication(&self) -> usize {
        self.c
    }

    /// Per-rank storage footprint (run after a forward pass). The
    /// adjacency term carries the `c`-fold replication of §IV-B. See
    /// [`super::StorageReport`].
    pub fn storage_words(&self) -> super::StorageReport {
        let f_max = self.cfg.f_max();
        let coarse_rows = self.at_fwd[0].rows();
        super::StorageReport {
            adjacency: self.at_fwd.iter().map(super::csr_words).sum::<usize>()
                + self.at_compact.iter().map(super::csr_words).sum::<usize>()
                + super::csr_words(&self.at_bwd),
            dense_state: super::mats_words(&self.hs) + super::mats_words(&self.zs),
            // Forward coarse partial + backward sliced outer product and
            // team-gathered G.
            intermediate: (coarse_rows * f_max)
                .max(self.at_bwd.cols() * f_max + coarse_rows * f_max),
        }
    }

    /// Assemble the full output embedding matrix on every rank (world rank
    /// order equals fine-block order by construction).
    pub fn gather_embeddings(&self, ctx: &Ctx) -> Mat {
        let blocks = ctx
            .world
            .allgather_shared(super::output_block_shared(&self.hs), Cat::DenseComm);
        super::assemble_row_blocks(&blocks)
    }
}
