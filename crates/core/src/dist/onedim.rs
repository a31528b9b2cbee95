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
//! step.

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

/// Per-rank state of the 1D trainer.
pub struct OneDimTrainer {
    cfg: GcnConfig,
    n: usize,
    train_count: usize,
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
    /// Comm tier, overlap, training state and halo cache of the forward
    /// stage fetches (DESIGN.md §9, §10, §13).
    stages: super::StageFetcher,
    /// The full block row `Aᵀ_i` (`n_i x n`) — the CSR-of-transpose of
    /// `A`'s column block `i`, used directly by the backward outer
    /// product.
    at_row: Csr,
    labels: Arc<Vec<usize>>,
    mask: Arc<Vec<bool>>,
    /// Replicated weights.
    weights: Vec<Mat>,
    opt: Optimizer,
    act: Activation,
    dropout: f64,
    epoch_counter: u64,
    drop_masks: Vec<Option<Mat>>,
    /// Stored block-row pre-activations from the last forward pass.
    zs: Vec<Mat>,
    /// Stored block-row activations (`hs\[0\]` = my feature block),
    /// shared so the owner's block enters broadcast stages without a
    /// copy.
    hs: Vec<Arc<Mat>>,
}

impl OneDimTrainer {
    /// Slice this rank's blocks out of the shared problem (uncharged
    /// setup, like the paper's data loading).
    ///
    /// # Panics
    /// When the geometry is invalid; see [`OneDimTrainer::try_setup`] for
    /// the fallible variant.
    pub fn setup(ctx: &Ctx, problem: &Problem, cfg: &GcnConfig) -> Self {
        match Self::try_setup(ctx, problem, cfg) {
            Ok(t) => t,
            Err(e) => panic!("1D trainer setup: {e}"),
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
        let at_row = problem.adj_t.block(r0, r1, 0, n);
        let at_blocks: Vec<Csr> = block_ranges(n, p)
            .into_iter()
            .map(|(c0, c1)| at_row.block(0, r1 - r0, c0, c1))
            .collect();
        let needed = at_blocks.iter().map(Csr::needed_cols).collect();
        let h0 = problem.features.block(r0, r1, 0, problem.features.cols());
        Ok(OneDimTrainer {
            cfg: cfg.clone(),
            n,
            train_count: problem.train_count(),
            r0,
            at_blocks,
            needed,
            at_compact: Vec::new(),
            stages: super::StageFetcher::default(),
            at_row,
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

    fn my_rows(&self) -> usize {
        self.at_row.rows()
    }

    /// Root-side dims of stage `j`'s broadcast block — every rank knows
    /// them from the balanced partition (`at_blocks[j]` has one column
    /// per root row), so receivers fingerprint them and a wrong-shaped
    /// panel is attributed to the root (CheckMode).
    fn stage_dims(&self, l: usize, j: usize) -> (usize, usize) {
        (self.at_blocks[j].cols(), self.hs[l].cols())
    }

    /// Forward pass (Algorithm 1 per layer); returns the global mean
    /// masked NLL loss.
    pub fn forward(&mut self, ctx: &Ctx) -> f64 {
        let l_total = self.cfg.layers();
        let p = ctx.size;
        self.zs.clear();
        self.drop_masks = vec![None; l_total];
        self.hs.truncate(1);
        for l in 0..l_total {
            let f_in = self.cfg.dims[l];
            let f_out = self.cfg.dims[l + 1];
            let mut t = Mat::zeros(self.my_rows(), f_in);
            // Stage j fetches H_j (a broadcast, or the rows this rank
            // reads), then accumulates T_i += Aᵀ_ij H_j. The owner's
            // resident block rides in as an Arc clone, never a deep copy.
            super::run_stages(
                p,
                |j| {
                    self.stages.fetch(
                        &ctx.world,
                        j,
                        (j == ctx.rank).then(|| self.hs[l].clone()),
                        &self.needed[j],
                        self.stage_dims(l, j),
                    )
                },
                |j, hj| {
                    let hj = hj.wait();
                    // The compact panel has the same nnz/rows as the full
                    // block (columns are only renumbered), so the charged
                    // SpMM cost — and the accumulation order — is
                    // identical in both modes.
                    let a = if self.stages.sparse_exchange() {
                        &self.at_compact[j]
                    } else {
                        &self.at_blocks[j]
                    };
                    ctx.charge_spmm(a.nnz(), a.rows(), f_in);
                    spmm_acc_with(ctx.parallel(), a, &hj, &mut t);
                },
            );
            let z = matmul_with(ctx.parallel(), &t, &self.weights[l]);
            ctx.charge_gemm(t.rows(), f_in, f_out);
            // In the 1D distribution H is row-partitioned, so even the
            // non-elementwise log_softmax needs no communication
            // (§IV-A.2).
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

    /// Backward pass + replicated gradient-descent step.
    pub fn backward(&mut self, ctx: &Ctx) {
        let l_total = self.cfg.layers();
        assert_eq!(self.zs.len(), l_total, "forward must run before backward");
        let mut g = output_gradient(
            &self.zs[l_total - 1],
            &self.labels,
            &self.mask,
            self.r0,
            self.train_count,
        );
        ctx.charge_elementwise(g.len());
        for l in (0..l_total).rev() {
            let f_out = self.cfg.dims[l + 1];
            let f_in = self.cfg.dims[l];
            // Large 1D outer product: A(:, my block) · G_i, a full-height
            // low-rank contribution (§IV-A.3).
            ctx.charge_spmm(self.at_row.nnz(), self.at_row.rows(), f_out);
            let contrib = outer_product_from_transposed(&self.at_row, &g);
            debug_assert_eq!(contrib.shape(), (self.n, f_out));
            let ag = ctx.world.reduce_scatter_rows(&contrib, Cat::DenseComm);
            // Small 1D outer product for Y (§IV-A.4), reusing A·G. With
            // overlap on, the f x f all-reduce is in flight while the
            // next layer's gradient GEMM computes; the weight update only
            // needs Y afterwards.
            ctx.charge_gemm(f_in, ag.rows(), f_out);
            let y_partial = matmul_tn_with(ctx.parallel(), &self.hs[l], &ag);
            let y_op = self
                .stages
                .defer(|| ctx.world.iallreduce_mat(&y_partial, Cat::DenseComm));
            if l > 0 {
                ctx.charge_gemm(ag.rows(), f_out, f_in);
                g = matmul_nt_with(ctx.parallel(), &ag, &self.weights[l]);
                hadamard_assign(&mut g, &self.act.prime(&self.zs[l - 1]));
                if let Some(mask) = self.drop_masks[l - 1].take() {
                    hadamard_assign(&mut g, &mask);
                }
                ctx.charge_elementwise(g.len());
            }
            let y = y_op.wait();
            self.opt.step(l, &mut self.weights[l], &y);
            ctx.charge_elementwise(y.len());
        }
    }

    /// One epoch (forward + backward); returns the pre-update loss.
    pub fn epoch(&mut self, ctx: &Ctx) -> f64 {
        self.epoch_counter += 1;
        self.stages.begin_epoch(self.epoch_counter);
        let loss = self.forward(ctx);
        self.backward(ctx);
        self.stages.end_epoch();
        loss
    }

    /// Global training accuracy of the current model (runs a forward
    /// pass).
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
    /// cached tier for the forward stages (see [`super::CommMode`]).
    /// `Dense` and `SparsityAware` train bit-identically; `Cached` is
    /// bit-identical only at `refresh: 1` (DESIGN.md §13). Must be set
    /// identically on every rank. Always drops any halo cache, so a mode
    /// change (or re-set after mutating state) can never serve stale
    /// blocks.
    pub fn set_comm_mode(&mut self, mode: super::CommMode) {
        if mode.sparse_exchange() && self.at_compact.is_empty() {
            self.at_compact = self
                .at_blocks
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

    /// Replicated weights (identical on every rank).
    pub fn weights(&self) -> &[Mat] {
        &self.weights
    }

    /// Per-rank storage footprint (run after at least one forward pass so
    /// the stored activations exist). See [`super::StorageReport`].
    pub fn storage_words(&self) -> super::StorageReport {
        let f_max = self.cfg.f_max();
        super::StorageReport {
            adjacency: super::csr_words(&self.at_row)
                + self.at_blocks.iter().map(super::csr_words).sum::<usize>()
                + self.at_compact.iter().map(super::csr_words).sum::<usize>(),
            dense_state: super::mats_words(&self.hs) + super::mats_words(&self.zs),
            // The §IV-A.3 full-height low-rank product: n x f, regardless
            // of P — 1D's memory-scalability problem.
            intermediate: self.n * f_max,
        }
    }

    /// Assemble the full output embedding matrix `H^L` on every rank.
    pub fn gather_embeddings(&self, ctx: &Ctx) -> Mat {
        let blocks = ctx
            .world
            .allgather_shared(super::output_block_shared(&self.hs), Cat::DenseComm);
        super::assemble_row_blocks(&blocks)
    }
}
