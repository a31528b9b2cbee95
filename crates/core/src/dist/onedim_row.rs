//! The alternative 1D algorithm of §IV-A.7: `A` partitioned by block
//! *rows* instead of block columns.
//!
//! With `A` row-partitioned, forward propagation becomes the (large) 1D
//! outer product (`Aᵀ`'s column block times my `H` block, reduce-scattered)
//! and the first backpropagation product becomes the block-row multiply
//! (`P` broadcast stages) — exactly the mirror image of
//! [`super::onedim`]. The paper argues the swap changes nothing: "we
//! would still be performing 1 large outer product, 1 small outer
//! product, and 1 block row multiplication as before, resulting in the
//! same total communication cost." `tests/onedim_variants.rs` verifies
//! that claim on measured word counters.

use crate::loss::{accuracy_counts, nll_sum, output_gradient};
use crate::model::GcnConfig;
use crate::optimizer::{Optimizer, OptimizerKind};
use crate::problem::Problem;
use cagnet_comm::{Cat, Ctx};
use cagnet_dense::activation::{log_softmax_rows, Activation};
use cagnet_dense::ops::hadamard_assign;
use cagnet_dense::{matmul_nt_with, matmul_tn_with, matmul_with, Mat};
use cagnet_sparse::partition::{block_range, block_ranges};
use cagnet_sparse::spmm::{outer_product_from_transposed, spmm_acc_with};
use cagnet_sparse::Csr;
use std::sync::Arc;

/// Per-rank state of the row-partitioned 1D trainer.
pub struct OneDimRowTrainer {
    cfg: GcnConfig,
    train_count: usize,
    /// My global row range start.
    r0: usize,
    /// `A`'s block row `A_i` (`n_i x n`) — used directly by the forward
    /// outer product (it is the CSR-of-transpose of `Aᵀ`'s column block).
    a_row: Csr,
    /// `A_i` split into `P` column blocks for the backward block-row
    /// multiply.
    a_blocks: Vec<Csr>,
    /// Per stage `j`: the sorted distinct columns of `A_{ij}` — the rows
    /// of `G_j` this rank actually reads (sparsity-aware mode).
    needed: Vec<Vec<usize>>,
    /// Column-compacted copies of `a_blocks` (columns renumbered to
    /// `needed[j]` order) for multiplying compact gathered operands.
    /// Built lazily on the first switch to sparsity-aware mode.
    a_compact: Vec<Csr>,
    /// Comm tier, overlap, training state and halo cache of the backward
    /// gradient fetches (DESIGN.md §9, §10, §13).
    stages: super::StageFetcher,
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

impl OneDimRowTrainer {
    /// Slice this rank's blocks out of the shared problem.
    pub fn setup(ctx: &Ctx, problem: &Problem, cfg: &GcnConfig) -> Self {
        match Self::try_setup(ctx, problem, cfg) {
            Ok(t) => t,
            Err(e) => panic!("1D row trainer setup: {e}"),
        }
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
        let a_row = problem.adj.block(r0, r1, 0, n);
        let a_blocks: Vec<Csr> = block_ranges(n, p)
            .into_iter()
            .map(|(c0, c1)| a_row.block(0, r1 - r0, c0, c1))
            .collect();
        let needed = a_blocks.iter().map(Csr::needed_cols).collect();
        let h0 = problem.features.block(r0, r1, 0, problem.features.cols());
        Ok(OneDimRowTrainer {
            cfg: cfg.clone(),
            train_count: problem.train_count(),
            r0,
            a_row,
            a_blocks,
            needed,
            a_compact: Vec::new(),
            stages: super::StageFetcher::default(),
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

    /// Root-side dims of stage `j`'s gradient block — known to every
    /// rank from the balanced partition (`a_blocks[j]` has one column per
    /// root row), fingerprinted by receivers under CheckMode.
    fn stage_dims(&self, g: &Mat, j: usize) -> (usize, usize) {
        (self.a_blocks[j].cols(), g.cols())
    }

    /// Forward pass (outer-product formulation); returns the global mean
    /// masked NLL loss.
    pub fn forward(&mut self, ctx: &Ctx) -> f64 {
        let l_total = self.cfg.layers();
        self.zs.clear();
        self.drop_masks = vec![None; l_total];
        self.hs.truncate(1);
        for l in 0..l_total {
            let f_in = self.cfg.dims[l];
            let f_out = self.cfg.dims[l + 1];
            // Large outer product: Aᵀ(:, my block) · H_i, reduce-scattered
            // back to block rows.
            ctx.charge_spmm(self.a_row.nnz(), self.a_row.rows(), f_in);
            let contrib = outer_product_from_transposed(&self.a_row, &self.hs[l]);
            let t = ctx.world.reduce_scatter_rows(&contrib, Cat::DenseComm);
            ctx.charge_gemm(t.rows(), f_in, f_out);
            let z = matmul_with(ctx.parallel(), &t, &self.weights[l]);
            let h = if l + 1 == l_total {
                log_softmax_rows(&z)
            } else {
                let mut h = self.act.apply(&z);
                self.apply_dropout(l, self.r0, f_out, 0, f_out, &mut h);
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
            self.r0,
        );
        ctx.world.allreduce_scalar(local, Cat::DenseComm) / self.train_count as f64
    }

    /// Backward pass (block-row formulation) + replicated update.
    pub fn backward(&mut self, ctx: &Ctx) {
        let l_total = self.cfg.layers();
        assert_eq!(self.zs.len(), l_total, "forward must run before backward");
        let p = ctx.size;
        // Shared so my block enters the broadcast stages without a copy.
        let mut g = Arc::new(output_gradient(
            &self.zs[l_total - 1],
            &self.labels,
            &self.mask,
            self.r0,
            self.train_count,
        ));
        ctx.charge_elementwise(g.len());
        for l in (0..l_total).rev() {
            let f_in = self.cfg.dims[l];
            let f_out = self.cfg.dims[l + 1];
            // Block-row multiply: AG_i = Σ_j A_ij G_j via P broadcasts.
            // Issue-ahead pipeline: stage j+1's gradient block is in
            // flight while stage j's SpMM computes (mirror of the column
            // variant's forward loop).
            let mut ag = Mat::zeros(self.a_row.rows(), f_out);
            super::run_stages(
                p,
                |j| {
                    self.stages.fetch(
                        &ctx.world,
                        j,
                        (j == ctx.rank).then(|| g.clone()),
                        &self.needed[j],
                        self.stage_dims(&g, j),
                    )
                },
                |j, gj| {
                    let gj = gj.wait();
                    // Same nnz/rows either way (compact only renumbers
                    // columns): identical charged cost and accumulation
                    // order.
                    let a = if self.stages.sparse_exchange() {
                        &self.a_compact[j]
                    } else {
                        &self.a_blocks[j]
                    };
                    ctx.charge_spmm(a.nnz(), a.rows(), f_out);
                    spmm_acc_with(ctx.parallel(), a, &gj, &mut ag);
                },
            );
            // Small outer product for Y (unchanged from the column
            // variant). With overlap on, the f x f all-reduce is in
            // flight while the next layer's gradient GEMM computes.
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
            self.r0,
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
    /// cached tier for the backward stages (see [`super::CommMode`]).
    /// `Dense` and `SparsityAware` train bit-identically; `Cached` is
    /// bit-identical only at `refresh: 1` (DESIGN.md §13). Must be set
    /// identically on every rank. Always drops any halo cache, so a mode
    /// change can never serve stale blocks.
    pub fn set_comm_mode(&mut self, mode: super::CommMode) {
        if mode.sparse_exchange() && self.a_compact.is_empty() {
            self.a_compact = self
                .a_blocks
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

    /// Per-rank storage footprint (run after a forward pass). See
    /// [`super::StorageReport`].
    pub fn storage_words(&self) -> super::StorageReport {
        let f_max = self.cfg.f_max();
        super::StorageReport {
            adjacency: super::csr_words(&self.a_row)
                + self.a_blocks.iter().map(super::csr_words).sum::<usize>()
                + self.a_compact.iter().map(super::csr_words).sum::<usize>(),
            dense_state: super::mats_words(&self.hs) + super::mats_words(&self.zs),
            // The forward outer product materializes the full n x f
            // contribution here (mirror of the column variant's backward).
            intermediate: self.a_row.cols() * f_max,
        }
    }

    /// Assemble the full output embedding matrix on every rank.
    pub fn gather_embeddings(&self, ctx: &Ctx) -> Mat {
        let blocks = ctx
            .world
            .allgather_shared(super::output_block_shared(&self.hs), Cat::DenseComm);
        super::assemble_row_blocks(&blocks)
    }
}
