//! Split-3D-SpMM parallel GCN training — the paper's §IV-D.
//!
//! The paper derives this algorithm's cost (another `O(P^{1/6})` reduction
//! in words over 2D) but does not implement it, citing high constants,
//! complexity, and the `∛P` memory replication of intermediates. This
//! module implements it, which both verifies the §IV-D analysis
//! empirically (bench `comm_volume`) and exercises the replication
//! behaviour the paper warns about.
//!
//! Geometry (Table V, "Block Split 3D"): `P = q³` ranks on a `q x q x q`
//! mesh; each 2D plane is a *layer*. The adjacency block `A_{ij}` of the
//! `q x q` grid is split along columns into `q` slices, slice `k` living
//! on layer `k` (`n/q x n/q²` per rank). Dense matrices are split along
//! rows across layers (`n/q² x f/q` per rank). Forward per layer `k` runs
//! an independent 2D SUMMA producing an `n/q x f/q` partial sum, which is
//! then reduce-scattered along the *fiber* dimension — the `∛P`-factor
//! intermediate replication the paper highlights — yielding the Block
//! Split 3D result.

use crate::loss::{accuracy_counts, nll_sum};
use crate::model::GcnConfig;
use crate::optimizer::{Optimizer, OptimizerKind};
use crate::problem::Problem;
use cagnet_comm::comm::Communicator;
use cagnet_comm::grid::int_cbrt;
use cagnet_comm::{Cat, Ctx, Grid3D};
use cagnet_dense::activation::{log_softmax_rows, softmax_rows, Activation};
use cagnet_dense::ops::hadamard_assign;
use cagnet_dense::{matmul_acc_with, matmul_nt_with, matmul_tn_with, Mat};
use cagnet_sparse::partition::block_range;
use cagnet_sparse::spmm::spmm_acc_with;
use cagnet_sparse::Csr;
use std::sync::Arc;

/// Per-rank state of the 3D trainer.
pub struct ThreeDimTrainer {
    cfg: GcnConfig,
    grid: Grid3D,
    /// Communicator over all ranks sharing my grid column `j` (size `q²`),
    /// used for the weight-gradient reduction.
    jgroup: Communicator,
    train_count: usize,
    /// Global row offset of my Block Split rows (block `i`, sub-block
    /// `k`).
    r0: usize,
    /// `Aᵀ(rows i, cols j, col-split k)` — `n/q x ~n/q²`. Shared so the
    /// stage broadcasts move a handle, not a copy of the block.
    at_ijk: Arc<Csr>,
    /// `A(rows i, cols j, col-split k)`.
    a_ijk: Arc<Csr>,
    /// Column-compacted `at_ijk` (columns renumbered to my stage's
    /// needed set) served on the row broadcast in sparsity-aware mode.
    /// Built lazily on the first switch to that mode.
    at_compact: Option<Arc<Csr>>,
    /// Same for `a_ijk` (backward stages).
    a_compact: Option<Arc<Csr>>,
    /// Per SUMMA stage `s`: the sorted distinct nonzero columns of my
    /// fiber's `Aᵀ` panel for stage `s` — the rows of the broadcast `D`
    /// block this rank actually reads (sparsity-aware mode). Derived at
    /// setup from the global adjacency; identical across each row
    /// communicator because its members share the panel.
    needed_fwd: Vec<Vec<usize>>,
    /// Same, from the `A` panels of the backward stages.
    needed_bwd: Vec<Vec<usize>>,
    /// Per stage `s`: rows of the stage's dense `D` block (known to all
    /// ranks from the balanced partition; fingerprinted by gather
    /// receivers under CheckMode).
    stage_rows: Vec<usize>,
    /// Comm tier, overlap, training state and halo cache of the SUMMA
    /// stages (DESIGN.md §9, §10, §13). Only the `D` block fetches use
    /// the comm tier and the cache; `S` broadcasts, partial-W stages and
    /// the fiber/j-group reductions are always dense and never cached.
    stages: super::StageFetcher,
    labels: Arc<Vec<usize>>,
    mask: Arc<Vec<bool>>,
    weights: Vec<Mat>,
    opt: Optimizer,
    act: Activation,
    dropout: f64,
    epoch_counter: u64,
    drop_masks: Vec<Option<Mat>>,
    /// Stored pre-activation blocks, shared so the output layer's block
    /// enters the row all-gather without a copy.
    zs: Vec<Arc<Mat>>,
    /// Stored activation blocks, shared so whole blocks enter the stage
    /// broadcasts without a copy.
    hs: Vec<Arc<Mat>>,
    /// Output log-probabilities over my Block Split rows, all classes;
    /// shared so `gather_embeddings` moves it without a copy.
    h_out_row: Arc<Mat>,
    /// Output softmax over my Block Split rows (for `G^L`).
    p_out_row: Mat,
}

impl ThreeDimTrainer {
    /// Slice this rank's mesh blocks from the shared problem. World size
    /// must be a perfect cube.
    pub fn setup(ctx: &Ctx, problem: &Problem, cfg: &GcnConfig) -> Self {
        match Self::try_setup(ctx, problem, cfg) {
            Ok(t) => t,
            Err(e) => panic!("3D trainer setup: {e}"),
        }
    }

    /// Fallible constructor: returns [`super::SetupError`] instead of
    /// panicking on an invalid geometry. Validation happens before the
    /// mesh's communicator splits, so on error every rank returns without
    /// touching the collectives.
    pub fn try_setup(
        ctx: &Ctx,
        problem: &Problem,
        cfg: &GcnConfig,
    ) -> Result<Self, super::SetupError> {
        let Some(q) = int_cbrt(ctx.size) else {
            return Err(super::SetupError::Geometry(format!(
                "3D trainer needs a cubic process count, got {}",
                ctx.size
            )));
        };
        let n = problem.vertices();
        if q * q > n {
            return Err(super::SetupError::Geometry(
                "mesh too fine for vertex count".into(),
            ));
        }
        let grid = Grid3D::new(ctx, q);
        let jgroup = ctx.world.split(grid.j as u64);
        let (i, j, k) = (grid.i, grid.j, grid.k);
        // A blocks: rows block i; columns = sub-block k of column block j.
        let (r0b, r1b) = block_range(n, q, i);
        let (c0, c1) = block_range(n, q, j);
        let sub = block_range(c1 - c0, q, k);
        let at_ijk = problem.adj_t.block(r0b, r1b, c0 + sub.0, c0 + sub.1);
        let a_ijk = problem.adj.block(r0b, r1b, c0 + sub.0, c0 + sub.1);
        // Per-stage needed sets and stage block heights for
        // sparsity-aware mode (uncharged setup, like the slicing above).
        let mut needed_fwd = Vec::with_capacity(q);
        let mut needed_bwd = Vec::with_capacity(q);
        let mut stage_rows = Vec::with_capacity(q);
        for s in 0..q {
            let (cs0, cs1) = block_range(n, q, s);
            let ssub = block_range(cs1 - cs0, q, k);
            stage_rows.push(ssub.1 - ssub.0);
            needed_fwd.push(
                problem
                    .adj_t
                    .needed_cols_in(r0b, r1b, cs0 + ssub.0, cs0 + ssub.1),
            );
            needed_bwd.push(
                problem
                    .adj
                    .needed_cols_in(r0b, r1b, cs0 + ssub.0, cs0 + ssub.1),
            );
        }
        // Dense blocks: rows = sub-block k of row block i; cols block j of f.
        let rsub = block_range(r1b - r0b, q, k);
        let r0 = r0b + rsub.0;
        let f0 = problem.features.cols();
        let (fc0, fc1) = block_range(f0, q, j);
        let h0 = problem.features.block(r0, r0b + rsub.1, fc0, fc1);
        Ok(ThreeDimTrainer {
            cfg: cfg.clone(),
            grid,
            jgroup,
            train_count: problem.train_count(),
            r0,
            at_ijk: Arc::new(at_ijk),
            a_ijk: Arc::new(a_ijk),
            at_compact: None,
            a_compact: None,
            needed_fwd,
            needed_bwd,
            stage_rows,
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
            h_out_row: Arc::new(Mat::zeros(0, 0)),
            p_out_row: Mat::zeros(0, 0),
        })
    }

    /// Rows of my Block Split dense pieces (`≈ n/q²`).
    fn my_rows(&self) -> usize {
        self.hs[0].rows()
    }

    /// The sparse block to serve as stage owner on the row broadcast:
    /// the full block in dense mode, the column-compacted one (same nnz,
    /// identical SparseComm words) in the sparse-exchange modes.
    fn bcast_block<'a>(
        &'a self,
        full: &'a Arc<Csr>,
        compact: &'a Option<Arc<Csr>>,
    ) -> &'a Arc<Csr> {
        match (self.stages.sparse_exchange(), compact) {
            (true, Some(c)) => c,
            _ => full,
        }
    }

    /// One full Split-3D-SpMM: per-layer 2D SUMMA (`q` stages of paired
    /// row/column exchanges) followed by a fiber reduce-scatter of the
    /// `n/q x f/q` partial sums. In sparsity-aware mode the dense block
    /// moves as a row gather of each receiver's needed rows instead of a
    /// full broadcast; `s_mine` is then the compact panel, so the SpMM's
    /// accumulation order — and its charged cost — matches dense mode
    /// bit for bit.
    fn split3d_spmm(
        &self,
        ctx: &Ctx,
        s_mine: &Arc<Csr>,
        d_mine: &Arc<Mat>,
        needed_tbl: &[Vec<usize>],
    ) -> Mat {
        let q = self.grid.q;
        let f_cols = d_mine.cols();
        let mut partial = Mat::zeros(self.at_ijk.rows(), f_cols);
        // Arc payloads: the owner's resident block is never deep-copied
        // into the collective.
        super::run_stages(
            q,
            |s| {
                let a_op = self.stages.defer(move || {
                    self.grid.row.ibcast_shared(
                        s,
                        (self.grid.j == s).then(|| s_mine.clone()),
                        Cat::SparseComm,
                    )
                });
                let d_op = self.stages.fetch(
                    &self.grid.col,
                    s,
                    (self.grid.i == s).then(|| d_mine.clone()),
                    &needed_tbl[s],
                    (self.stage_rows[s], f_cols),
                );
                (a_op, d_op)
            },
            |_, (a_op, d_op)| {
                let a_hat = a_op.wait();
                let d_hat = d_op.wait();
                ctx.charge_spmm(a_hat.nnz(), a_hat.rows(), d_hat.cols());
                spmm_acc_with(ctx.parallel(), &a_hat, &d_hat, &mut partial);
            },
        );
        // Fiber reduction: the ∛P-replicated partials collapse into the
        // Block Split 3D distribution.
        self.grid
            .fiber
            .reduce_scatter_rows(&partial, Cat::DenseComm)
    }

    /// Partial Split-3D-SpMM against the replicated `W` (within-layer row
    /// broadcasts only, §IV-D.1). These stages stay dense broadcasts in
    /// every [`super::CommMode`]: the stage GEMM reads *all* rows of the
    /// broadcast `T` block, so a row gather would request every row and
    /// only add the per-row index words.
    fn partial_w(
        &self,
        ctx: &Ctx,
        t_mine: &Arc<Mat>,
        w: &Mat,
        f_in: usize,
        f_out: usize,
        transpose_w: bool,
    ) -> Mat {
        let q = self.grid.q;
        let (oc0, oc1) = block_range(f_out, q, self.grid.j);
        let mut out = Mat::zeros(self.my_rows(), oc1 - oc0);
        // Arc payloads: my own T block is never deep-copied into the
        // collective.
        super::run_stages(
            q,
            |s| {
                self.stages.defer(move || {
                    self.grid.row.ibcast_shared(
                        s,
                        (self.grid.j == s).then(|| t_mine.clone()),
                        Cat::DenseComm,
                    )
                })
            },
            |s, t_hat| {
                let t_hat = t_hat.wait();
                let (ic0, ic1) = block_range(f_in, q, s);
                debug_assert_eq!(ic1 - ic0, t_hat.cols(), "stage width mismatch");
                if ic1 == ic0 || oc1 == oc0 {
                    return;
                }
                ctx.charge_gemm(t_hat.rows(), ic1 - ic0, oc1 - oc0);
                if transpose_w {
                    let w_slice = w.block(oc0, oc1, ic0, ic1);
                    let add = matmul_nt_with(ctx.parallel(), &t_hat, &w_slice);
                    cagnet_dense::ops::add_assign(&mut out, &add);
                } else {
                    let w_slice = w.block(ic0, ic1, oc0, oc1);
                    matmul_acc_with(ctx.parallel(), &t_hat, &w_slice, &mut out);
                }
            },
        );
        out
    }

    /// Forward pass; returns the global mean masked NLL loss.
    pub fn forward(&mut self, ctx: &Ctx) -> f64 {
        let l_total = self.cfg.layers();
        let q = self.grid.q;
        self.zs.clear();
        self.drop_masks = vec![None; l_total];
        self.hs.truncate(1);
        for l in 0..l_total {
            let f_in = self.cfg.dims[l];
            let f_out = self.cfg.dims[l + 1];
            let t = Arc::new(self.split3d_spmm(
                ctx,
                self.bcast_block(&self.at_ijk, &self.at_compact),
                &self.hs[l],
                &self.needed_fwd,
            ));
            let z = Arc::new(self.partial_w(ctx, &t, &self.weights[l], f_in, f_out, false));
            let h = if l + 1 == l_total {
                // log_softmax: within-layer row all-gather assembles full
                // class rows; no cross-layer communication (§IV-D.2).
                let parts = self.grid.row.allgather_shared(z.clone(), Cat::DenseComm);
                let z_row = Mat::hstack(&parts.iter().map(|p| (**p).clone()).collect::<Vec<_>>());
                ctx.charge_elementwise(2 * z_row.len());
                self.h_out_row = Arc::new(log_softmax_rows(&z_row));
                self.p_out_row = softmax_rows(&z_row);
                let (oc0, oc1) = block_range(f_out, q, self.grid.j);
                self.h_out_row.block(0, z_row.rows(), oc0, oc1)
            } else {
                ctx.charge_elementwise(z.len());
                let mut h = self.act.apply(&z);
                let (dc0, dc1) = block_range(f_out, self.grid.q, self.grid.j);
                self.apply_dropout(l, self.r0, f_out, dc0, dc1, &mut h);
                h
            };
            self.zs.push(z);
            self.hs.push(Arc::new(h));
        }
        let local = if self.grid.j == 0 {
            nll_sum(&self.h_out_row, &self.labels, &self.mask, self.r0)
        } else {
            0.0
        };
        ctx.world.allreduce_scalar(local, Cat::DenseComm) / self.train_count as f64
    }

    /// Output-layer gradient block from the stored row softmax.
    fn output_gradient_block(&self) -> Mat {
        let q = self.grid.q;
        let f_out = self.cfg.f_out();
        let (oc0, oc1) = block_range(f_out, q, self.grid.j);
        let rows = self.my_rows();
        let scale = 1.0 / self.train_count as f64;
        let mut g = Mat::zeros(rows, oc1 - oc0);
        for r in 0..rows {
            let gv = self.r0 + r;
            if !self.mask[gv] {
                continue;
            }
            let out = g.row_mut(r);
            for (cl, c) in (oc0..oc1).enumerate() {
                let mut v = self.p_out_row[(r, c)] * scale;
                if c == self.labels[gv] {
                    v -= scale;
                }
                out[cl] = v;
            }
        }
        g
    }

    /// Backward pass + replicated gradient-descent step.
    pub fn backward(&mut self, ctx: &Ctx) {
        let l_total = self.cfg.layers();
        assert_eq!(self.zs.len(), l_total, "forward must run before backward");
        let mut g = Arc::new(self.output_gradient_block());
        ctx.charge_elementwise(g.len());
        for l in (0..l_total).rev() {
            let f_in = self.cfg.dims[l];
            let f_out = self.cfg.dims[l + 1];
            // A G via full Split-3D-SpMM; saved and reused (§IV-D.4).
            let ag = self.split3d_spmm(
                ctx,
                self.bcast_block(&self.a_ijk, &self.a_compact),
                &g,
                &self.needed_bwd,
            );
            let parts = self.grid.row.allgather_shared(Arc::new(ag), Cat::DenseComm);
            let ag_row = Mat::hstack(&parts.iter().map(|p| (**p).clone()).collect::<Vec<_>>());
            debug_assert_eq!(ag_row.shape(), (self.my_rows(), f_out));
            // Y = (H^{l-1})ᵀ A G: local slab product, reduction over all
            // ranks sharing grid column j, then row replication.
            ctx.charge_gemm(self.hs[l].cols(), self.my_rows(), f_out);
            let y_local = matmul_tn_with(ctx.parallel(), &self.hs[l], &ag_row);
            // With overlap on, the j-group Y reduction is in flight while
            // the G^{l-1} GEMM computes (both read only ag_row and
            // replicated state). The dropout mask is taken up front so
            // no &mut self is needed while the op borrows the jgroup.
            let drop_mask = (l > 0).then(|| self.drop_masks[l - 1].take()).flatten();
            let y_op = self
                .stages
                .defer(|| self.jgroup.iallreduce_mat(&y_local, Cat::DenseComm));
            if l > 0 {
                let (jc0, jc1) = block_range(f_in, self.grid.q, self.grid.j);
                let w_slice = self.weights[l].block(jc0, jc1, 0, f_out);
                ctx.charge_gemm(self.my_rows(), f_out, jc1 - jc0);
                let mut next_g = matmul_nt_with(ctx.parallel(), &ag_row, &w_slice);
                hadamard_assign(&mut next_g, &self.act.prime(&self.zs[l - 1]));
                if let Some(mask) = drop_mask {
                    hadamard_assign(&mut next_g, &mask);
                }
                ctx.charge_elementwise(next_g.len());
                g = Arc::new(next_g);
            }
            let y_j = y_op.wait();
            let y_parts = self.grid.row.allgather(y_j, Cat::DenseComm);
            let y = Mat::vstack(&y_parts.iter().map(|p| (**p).clone()).collect::<Vec<_>>());
            debug_assert_eq!(y.shape(), (f_in, f_out));
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
        let (c, t) = if self.grid.j == 0 {
            accuracy_counts(&self.h_out_row, &self.labels, &self.mask, self.r0)
        } else {
            (0, 0)
        };
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

    /// Select the hidden-layer activation (default ReLU, the paper's σ;
    /// the output layer stays log-softmax). Elementwise, so it changes no
    /// communication. Must be set identically on every rank.
    pub fn set_hidden_activation(&mut self, act: Activation) {
        self.act = act;
    }

    /// Enable or disable communication/computation overlap (default on).
    /// With overlap on, SUMMA panel broadcasts and the j-group Y
    /// reduction run as nonblocking collectives pipelined against
    /// compute; losses, weights, and metered words are bit-identical
    /// either way — only modeled (and wall-clock) time changes. Must be
    /// set identically on every rank.
    pub fn set_overlap(&mut self, overlap: bool) {
        self.stages.set_overlap(overlap);
    }

    /// Select how Split-3D-SpMM stages move the dense operand. Under
    /// [`CommMode::SparsityAware`](super::CommMode::SparsityAware) each
    /// stage's dense block broadcast becomes a `gather_rows` of only the
    /// rows the receivers' sparse blocks touch, and the stage owner ships
    /// the column-compacted sparse block (same nnz — identical SparseComm
    /// words). The trailing weight product (`partial_w`) stays dense in
    /// every mode: the GEMM reads all rows of the broadcast T block, so a
    /// gather would add index words for zero savings. `Dense` and
    /// `SparsityAware` train bit-identically; `Cached` is bit-identical
    /// only at `refresh: 1` (DESIGN.md §13). Must be set identically on
    /// every rank. Always drops any halo cache, so a mode change (or
    /// re-set after mutating state) can never serve stale blocks.
    pub fn set_comm_mode(&mut self, mode: super::CommMode) {
        self.stages.set_mode(mode);
        if mode.sparse_exchange() {
            if self.at_compact.is_none() {
                self.at_compact = Some(Arc::new(
                    self.at_ijk.compact_cols(&self.needed_fwd[self.grid.j]),
                ));
            }
            if self.a_compact.is_none() {
                self.a_compact = Some(Arc::new(
                    self.a_ijk.compact_cols(&self.needed_bwd[self.grid.j]),
                ));
            }
        }
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

    /// Per-rank storage footprint (run after a forward pass). The
    /// intermediate term is the §IV-D replication: each SUMMA partial is
    /// `n/q x f/q` — `q = ∛P` times larger than the rank's own
    /// `n/q² x f/q` state blocks.
    pub fn storage_words(&self) -> super::StorageReport {
        let f_max = self.cfg.f_max();
        let q = self.grid.q;
        super::StorageReport {
            adjacency: super::csr_words(&self.at_ijk)
                + super::csr_words(&self.a_ijk)
                + self.at_compact.as_ref().map_or(0, |c| super::csr_words(c))
                + self.a_compact.as_ref().map_or(0, |c| super::csr_words(c)),
            dense_state: super::mats_words(&self.hs)
                + super::mats_words(&self.zs)
                + self.h_out_row.len()
                + self.p_out_row.len(),
            // Pre-fiber-reduction partial: n/q rows x ~f/q cols.
            intermediate: self.at_ijk.rows() * f_max.div_ceil(q) + self.my_rows() * f_max,
        }
    }

    /// Assemble the full output embedding matrix on every rank.
    pub fn gather_embeddings(&self, ctx: &Ctx) -> Mat {
        let q = self.grid.q;
        let blocks = ctx
            .world
            .allgather_shared(self.h_out_row.clone(), Cat::DenseComm);
        // Global row order: row block i, then sub-block k; contributed by
        // rank (i, j=0, k) = k·q² + i·q.
        let mut parts = Vec::with_capacity(q * q);
        for i in 0..q {
            for k in 0..q {
                parts.push((*blocks[k * q * q + i * q]).clone());
            }
        }
        Mat::vstack(&parts)
    }
}
