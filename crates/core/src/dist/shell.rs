//! The distributed-trainer shell: the one GCN epoch every layout runs.
//!
//! The paper's algorithms (§IV-A–D) train the same model the same way —
//! forward, masked-NLL loss, backward, replicated weight update — and
//! differ only in how `A`, `H` and `G` are distributed and multiplied.
//! [`DistTrainer`] owns everything they share: the model configuration,
//! the replicated weights and optimizer, the hidden activation and
//! dropout, the [`StageFetcher`] pipeline, the stored activations, the
//! forward layer loop and the global loss and accuracy reductions. A
//! [`Layout`] supplies the rest: its block geometry, each layer's
//! aggregation and weight product, the backward pass, the output rows it
//! contributes to the loss, its storage footprint and the embedding
//! gather.

use super::{CommMode, StageFetcher, StorageReport, Targets};
use crate::model::GcnConfig;
use crate::optimizer::{Optimizer, OptimizerKind};
use crate::problem::Problem;
use cagnet_comm::{Cat, Ctx};
use cagnet_dense::activation::{log_softmax_rows, Activation};
use cagnet_dense::ops::hadamard_assign;
use cagnet_dense::Mat;
use std::sync::Arc;

/// How one of the paper's algorithms distributes and multiplies the GCN
/// operands. The row-distributed layouts (1D, 1D-row, 1.5D) hold whole
/// feature rows and use the provided output methods; the grid layouts
/// (2D, 3D) split feature columns too and override them.
pub trait Layout {
    /// Global vertex id of this rank's first dense row (`H`, `Z`, `G`).
    fn row_offset(&self) -> usize;

    /// This rank's column range `[c0, c1)` of a dense matrix `f` wide.
    fn col_block(&self, f: usize) -> (usize, usize) {
        (0, f)
    }

    /// This rank's block of layer `l`'s pre-activation `Z = (Aᵀ H) W`,
    /// from the stored input `s.hs[l]`.
    fn layer(&self, s: &TrainState, ctx: &Ctx, l: usize) -> Mat;

    /// This rank's block of the output `log_softmax(Z^L)`.
    fn output_layer(&mut self, ctx: &Ctx, z: &Arc<Mat>) -> Mat {
        let h = log_softmax_rows(z);
        ctx.charge_elementwise(z.len());
        h
    }

    /// The full-width output rows this rank contributes to the loss and
    /// accuracy with their global row offset; `None` if it contributes
    /// none.
    fn output_rows<'a>(&'a self, s: &'a TrainState) -> Option<(&'a Mat, usize)> {
        Some((super::output_block(&s.hs), self.row_offset()))
    }

    /// Backward pass and replicated weight update, after a forward pass.
    fn backward(&mut self, s: &mut TrainState, ctx: &Ctx);

    /// Build the column-compacted sparse panels the sparse-exchange comm
    /// tiers multiply, if the layout has any and they are not built yet.
    fn compact_panels(&mut self) {}

    /// Per-rank storage footprint.
    fn storage_words(&self, s: &TrainState) -> StorageReport;

    /// Assemble the full output embedding matrix on every rank.
    fn gather_embeddings(&self, s: &TrainState, ctx: &Ctx) -> Mat {
        let blocks = ctx
            .world
            .allgather_shared(super::output_block_shared(&s.hs), Cat::DenseComm);
        super::assemble_row_blocks(&blocks)
    }
}

/// The layout-independent state of a distributed trainer.
pub struct TrainState {
    pub(super) cfg: GcnConfig,
    /// Labels, training mask and count for the loss and `G^L`.
    pub(super) targets: Targets,
    /// Comm tier, overlap, training state and halo cache of the stage
    /// fetches (DESIGN.md §9, §10, §13).
    pub(super) stages: StageFetcher,
    /// Replicated weights.
    pub(super) weights: Vec<Mat>,
    pub(super) opt: Optimizer,
    pub(super) act: Activation,
    pub(super) dropout: f64,
    pub(super) epoch_counter: u64,
    pub(super) drop_masks: Vec<Option<Mat>>,
    /// Stored pre-activation blocks from the last forward pass.
    pub(super) zs: Vec<Arc<Mat>>,
    /// Stored activation blocks (`hs[0]` = this rank's feature block),
    /// shared so whole blocks enter collectives without a copy.
    pub(super) hs: Vec<Arc<Mat>>,
}

impl TrainState {
    /// Apply inverted dropout to hidden activation block `h` of `layer`
    /// (training passes only) and keep the mask for backward.
    fn apply_dropout(
        &mut self,
        layer: usize,
        row_offset: usize,
        cols: (usize, usize),
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
                self.cfg.dims[layer + 1],
                cols.0,
                cols.1,
            );
            hadamard_assign(h, &mask);
            self.drop_masks[layer] = Some(mask);
        }
    }

    /// Finish the hidden gradient `G^{l-1} ⊙= σ'(Z^{l-1})`, masked by
    /// layer `l - 1`'s dropout.
    pub(super) fn activation_grad(&mut self, ctx: &Ctx, l: usize, g: &mut Mat) {
        hadamard_assign(g, &self.act.prime(&self.zs[l - 1]));
        if let Some(mask) = self.drop_masks[l - 1].take() {
            hadamard_assign(g, &mask);
        }
        ctx.charge_elementwise(g.len());
    }

    /// Replicated update of layer `l`'s weights with the reduced
    /// gradient `y`.
    pub(super) fn step(&mut self, ctx: &Ctx, l: usize, y: &Mat) {
        self.opt.step(l, &mut self.weights[l], y);
        ctx.charge_elementwise(y.len());
    }
}

/// A distributed GCN trainer: the shared training state plus one
/// algorithm's data layout. Every rank builds its own through the
/// layout's `setup`; the per-algorithm names (`OneDimTrainer`,
/// `TwoDimTrainer`, ...) are aliases of this type.
pub struct DistTrainer<L: ?Sized> {
    pub(super) state: TrainState,
    pub(super) layout: L,
}

impl<L> DistTrainer<L> {
    /// Wrap `layout` with fresh training state: the configuration's
    /// initial weights, SGD, ReLU, no dropout, dense overlapped stages,
    /// and `h0` as this rank's feature block.
    pub(super) fn new(problem: &Problem, cfg: &GcnConfig, h0: Mat, layout: L) -> Self {
        let weights = cfg.init_weights();
        DistTrainer {
            state: TrainState {
                cfg: cfg.clone(),
                targets: Targets::new(problem),
                stages: StageFetcher::default(),
                opt: Optimizer::for_weights(OptimizerKind::Sgd, cfg.lr, &weights),
                weights,
                act: Activation::Relu,
                dropout: 0.0,
                epoch_counter: 0,
                drop_masks: Vec::new(),
                zs: Vec::new(),
                hs: vec![Arc::new(h0)],
            },
            layout,
        }
    }
}

impl<L: Layout + ?Sized> DistTrainer<L> {
    /// Forward pass; returns the global mean masked NLL loss.
    pub fn forward(&mut self, ctx: &Ctx) -> f64 {
        let s = &mut self.state;
        let l_total = s.cfg.layers();
        s.zs.clear();
        s.drop_masks = vec![None; l_total];
        s.hs.truncate(1);
        for l in 0..l_total {
            let z = Arc::new(self.layout.layer(s, ctx, l));
            let h = if l + 1 == l_total {
                self.layout.output_layer(ctx, &z)
            } else {
                let mut h = s.act.apply(&z);
                let cols = self.layout.col_block(s.cfg.dims[l + 1]);
                s.apply_dropout(l, self.layout.row_offset(), cols, &mut h);
                ctx.charge_elementwise(z.len());
                h
            };
            s.zs.push(z);
            s.hs.push(Arc::new(h));
        }
        s.targets.loss(ctx, self.layout.output_rows(s))
    }

    /// Backward pass + replicated weight update.
    pub fn backward(&mut self, ctx: &Ctx) {
        assert_eq!(
            self.state.zs.len(),
            self.state.cfg.layers(),
            "forward must run before backward"
        );
        self.layout.backward(&mut self.state, ctx);
    }

    /// One epoch (forward + backward); returns the pre-update loss.
    pub fn epoch(&mut self, ctx: &Ctx) -> f64 {
        self.state.epoch_counter += 1;
        self.state.stages.begin_epoch(self.state.epoch_counter);
        let loss = self.forward(ctx);
        self.backward(ctx);
        self.state.stages.end_epoch();
        loss
    }

    /// Global training accuracy of the current model (runs a forward
    /// pass).
    pub fn accuracy(&mut self, ctx: &Ctx) -> f64 {
        let _ = self.forward(ctx);
        let s = &self.state;
        s.targets.accuracy(ctx, self.layout.output_rows(s))
    }

    /// Set the hidden-layer dropout rate (inverted dropout; a fresh
    /// deterministic mask per epoch, identical across layouts and ranks —
    /// see [`crate::dropout`]). 0 disables it; evaluation forwards never
    /// apply it.
    pub fn set_dropout(&mut self, rate: f64) {
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0, 1)");
        self.state.dropout = rate;
    }

    /// Choose dense broadcasts, the sparsity-aware row exchange, or the
    /// cached tier for the layout's stage fetches (see
    /// [`CommMode`]; each layout's module doc names the stages it
    /// fetches). `Dense` and `SparsityAware` train bit-identically;
    /// `Cached` is bit-identical only at `refresh: 1` (DESIGN.md §13).
    /// Must be set identically on every rank. Always drops any halo
    /// cache, so a mode change (or re-set after mutating state) can never
    /// serve stale blocks.
    pub fn set_comm_mode(&mut self, mode: CommMode) {
        if mode.sparse_exchange() {
            self.layout.compact_panels();
        }
        self.state.stages.set_mode(mode);
    }

    /// Enable or disable communication/computation overlap (default on).
    /// With overlap on, stage fetches and the weight-gradient reductions
    /// run as nonblocking collectives pipelined against compute; losses,
    /// weights, and metered words are bit-identical either way — only
    /// modeled (and wall-clock) time changes. Must be set identically on
    /// every rank.
    pub fn set_overlap(&mut self, overlap: bool) {
        self.state.stages.set_overlap(overlap);
    }

    /// Select the hidden-layer activation (default ReLU, the paper's σ;
    /// the output layer stays log-softmax). Elementwise, so it changes no
    /// communication. Must be set identically on every rank.
    pub fn set_hidden_activation(&mut self, act: Activation) {
        self.state.act = act;
    }

    /// Select the optimizer (replicated state; no communication). Resets
    /// any accumulated moments. Must be called identically on every rank,
    /// before training.
    pub fn set_optimizer(&mut self, kind: OptimizerKind) {
        let s = &mut self.state;
        s.opt = Optimizer::for_weights(kind, s.cfg.lr, &s.weights);
    }

    /// Replace the replicated weights (e.g. with a trained model for
    /// inference). Must be called identically on every rank.
    pub fn set_weights(&mut self, weights: Vec<Mat>) {
        let cfg = &self.state.cfg;
        assert_eq!(weights.len(), cfg.layers(), "weight stack length");
        for (l, w) in weights.iter().enumerate() {
            assert_eq!(
                w.shape(),
                (cfg.dims[l], cfg.dims[l + 1]),
                "weight {l} shape"
            );
        }
        self.state.weights = weights;
    }

    /// Replicated weights (identical on every rank).
    pub fn weights(&self) -> &[Mat] {
        &self.state.weights
    }

    /// Per-rank storage footprint (run after at least one forward pass so
    /// the stored activations exist). See [`StorageReport`].
    pub fn storage_words(&self) -> StorageReport {
        self.layout.storage_words(&self.state)
    }

    /// Assemble the full output embedding matrix `H^L` on every rank.
    pub fn gather_embeddings(&self, ctx: &Ctx) -> Mat {
        self.layout.gather_embeddings(&self.state, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagnet_sparse::generate::erdos_renyi;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A layout that is never run: `set_weights` is shell code, shared by
    /// every layout.
    struct Unused;

    impl Layout for Unused {
        fn row_offset(&self) -> usize {
            0
        }
        fn layer(&self, _: &TrainState, _: &Ctx, _: usize) -> Mat {
            unreachable!("set_weights runs no layer")
        }
        fn backward(&mut self, _: &mut TrainState, _: &Ctx) {
            unreachable!("set_weights runs no backward pass")
        }
        fn storage_words(&self, _: &TrainState) -> StorageReport {
            StorageReport::default()
        }
    }

    #[test]
    fn set_weights_rejects_wrong_length_and_shape() {
        let problem = Problem::synthetic(&erdos_renyi(12, 2.0, 1), 5, 3, 0.5, 2);
        let cfg = GcnConfig::three_layer(5, 4, 3);
        let trainer = || DistTrainer::new(&problem, &cfg, Mat::zeros(0, 0), Unused);
        let panic_message = |weights: Vec<Mat>| {
            let err = catch_unwind(AssertUnwindSafe(|| trainer().set_weights(weights)))
                .expect_err("set_weights must reject the stack");
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };

        let mut short = cfg.init_weights();
        short.pop();
        let msg = panic_message(short);
        assert!(msg.contains("weight stack length"), "{msg}");

        let mut misshapen = cfg.init_weights();
        misshapen[1] = Mat::zeros(3, 3);
        let msg = panic_message(misshapen);
        assert!(msg.contains("weight 1 shape"), "{msg}");

        let mut t = trainer();
        let good = cfg.init_weights();
        t.set_weights(good.clone());
        assert_eq!(t.weights(), &good[..]);
    }
}
