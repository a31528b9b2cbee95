//! 2D SUMMA parallel GCN training — the paper's Algorithm 2 (§IV-C), the
//! variant the paper implements and evaluates on up to 100 GPUs — on
//! square **or rectangular** process grids (§IV-C.6).
//!
//! Data distribution (Table IV): `A`, `H^l`, `G^l` all block-2D on a
//! `Pr x Pc` grid; `W^l` fully replicated.
//!
//! Per layer, forward runs a SUMMA SpMM over the shared vertex dimension,
//! then a "partial SUMMA" against the replicated `W` (only `T` blocks
//! move, along process rows). The output layer's `log_softmax` is not
//! elementwise, so each process row all-gathers its `Z` blocks before
//! applying it (§IV-C.2). Backward runs the SUMMA SpMM for `A G^l`,
//! reuses the row-all-gathered `A G` for both the weight gradient
//! `Y = (H^{l-1})ᵀ A G` (§IV-C.4) and the `A G (W^l)ᵀ` product, and
//! finishes with the replicated update.
//!
//! **Stage structure.** The vertex dimension is partitioned into
//! `K = lcm(Pr, Pc)` *fine* blocks; `A`'s column groups and `H`'s row
//! groups are unions of consecutive fine blocks, so each SUMMA stage
//! broadcasts one fine panel from its (column-group, row-group) owners.
//! On a square grid `K = Pr = Pc` and this is exactly Algorithm 2's
//! per-process staging. The `stages_per_block` knob subdivides each fine
//! stage into narrower panels — the paper's blocking parameter `b`:
//! volume is unchanged but latency scales with the stage count (swept by
//! the ablation bench).
//!
//! §IV-C.6's trade-off is observable here: growing `Pr/Pc` shrinks the
//! sparse-matrix traffic (`nnz/Pr`) at the cost of the dense terms — see
//! `tests/rect_grid.rs`.

use crate::analysis::gcf;
use crate::loss::{accuracy_counts, nll_sum};
use crate::model::GcnConfig;
use crate::optimizer::{Optimizer, OptimizerKind};
use crate::problem::Problem;
use cagnet_comm::grid::int_sqrt;
use cagnet_comm::{Cat, Ctx, Grid2D};
use cagnet_dense::activation::{log_softmax_rows, softmax_rows, Activation};
use cagnet_dense::ops::hadamard_assign;
use cagnet_dense::{matmul_acc_with, matmul_nt_with, matmul_tn_with, Mat};
use cagnet_sparse::partition::{block_range, block_ranges};
use cagnet_sparse::spmm::spmm_acc_with;
use cagnet_sparse::Csr;
use std::sync::Arc;

/// Tuning knobs of the 2D trainer.
#[derive(Clone, Copy, Debug)]
pub struct TwoDimConfig {
    /// SUMMA sub-stages per fine block (the blocking parameter `b` of
    /// Algorithm 2 expressed as a divisor). 1 = one stage per fine block
    /// (widest panels, fewest messages).
    pub stages_per_block: usize,
    /// Charge the paper-implementation's per-epoch matrix-transpose cost
    /// ("trpose" in Figure 3): two local sparse transposes per epoch.
    pub charge_transpose: bool,
}

impl Default for TwoDimConfig {
    fn default() -> Self {
        TwoDimConfig {
            stages_per_block: 1,
            charge_transpose: true,
        }
    }
}

/// Per-rank state of the 2D SUMMA trainer.
pub struct TwoDimTrainer {
    cfg: GcnConfig,
    tcfg: TwoDimConfig,
    grid: Grid2D,
    train_count: usize,
    /// Fine vertex blocks (`K = lcm(Pr, Pc)` of them).
    fine: Vec<(usize, usize)>,
    /// My global vertex-row range (a union of `K/Pr` fine blocks).
    r0: usize,
    r1: usize,
    /// My global vertex-column range (a union of `K/Pc` fine blocks).
    c0: usize,
    /// `Aᵀ` block `(i, j)`.
    at_ij: Csr,
    /// `A` block `(i, j)` (equal to `at_ij` for undirected graphs, sliced
    /// independently to support directed input).
    a_ij: Csr,
    /// Per SUMMA stage `(k, t)` (index `k·stages_per_block + t`): the
    /// sorted distinct nonzero columns of my grid row's `Aᵀ` panel,
    /// relative to the stage's column range — the rows of the stage `D`
    /// panel this grid row actually reads (sparsity-aware mode). Derived
    /// at setup from the global adjacency: only the owning grid column
    /// holds the panel locally, but every rank of a grid row shares the
    /// same panel and therefore the same needed set.
    needed_fwd: Vec<Vec<usize>>,
    /// Same, from the `A` panels of the backward SUMMA.
    needed_bwd: Vec<Vec<usize>>,
    /// Comm tier, overlap, training state and halo cache of the SUMMA
    /// stages (DESIGN.md §9, §10, §13). Only the `D` panel fetches use
    /// the comm tier and the cache; `S` panels, partial-W stages and
    /// reductions are always dense and never cached.
    stages: super::StageFetcher,
    labels: Arc<Vec<usize>>,
    mask: Arc<Vec<bool>>,
    weights: Vec<Mat>,
    opt: Optimizer,
    act: Activation,
    dropout: f64,
    epoch_counter: u64,
    drop_masks: Vec<Option<Mat>>,
    /// Stored pre-activation blocks from the last forward pass, shared
    /// so the output layer's block enters the row all-gather without a
    /// copy.
    zs: Vec<Arc<Mat>>,
    /// Stored activation blocks (`hs\[0\]` = my feature block).
    hs: Vec<Mat>,
    /// Full-width row block of output log-probabilities (valid after
    /// forward; identical across a process row), shared so
    /// `gather_embeddings` moves it without a copy.
    h_out_row: Arc<Mat>,
    /// Full-width row block of output softmax (for `G^L`).
    p_out_row: Mat,
}

/// Vertex ranges of the `Pr` row groups and `Pc` column groups derived
/// from the fine partition (`group i` = union of its consecutive fine
/// blocks). Using unions keeps every coarse boundary on a fine boundary
/// even when `n` is not divisible.
fn coarse_ranges(fine: &[(usize, usize)], parts: usize) -> Vec<(usize, usize)> {
    let per = fine.len() / parts;
    (0..parts)
        .map(|g| (fine[g * per].0, fine[(g + 1) * per - 1].1))
        .collect()
}

fn lcm(a: usize, b: usize) -> usize {
    a / gcf(a, b) * b
}

impl TwoDimTrainer {
    /// Square-grid setup (Algorithm 2 as the paper runs it). World size
    /// must be a perfect square.
    pub fn setup(ctx: &Ctx, problem: &Problem, cfg: &GcnConfig, tcfg: TwoDimConfig) -> Self {
        match Self::try_setup(ctx, problem, cfg, tcfg) {
            Ok(t) => t,
            Err(e) => panic!("2D trainer setup: {e}"),
        }
    }

    /// Fallible square-grid constructor: returns [`super::SetupError`]
    /// instead of panicking on an invalid geometry.
    pub fn try_setup(
        ctx: &Ctx,
        problem: &Problem,
        cfg: &GcnConfig,
        tcfg: TwoDimConfig,
    ) -> Result<Self, super::SetupError> {
        let Some(q) = int_sqrt(ctx.size) else {
            return Err(super::SetupError::Geometry(format!(
                "2D trainer needs a square process count, got {}",
                ctx.size
            )));
        };
        Self::try_setup_rect(ctx, problem, cfg, tcfg, q, q)
    }

    /// Rectangular-grid setup (§IV-C.6). `pr * pc` must equal the world
    /// size.
    pub fn setup_rect(
        ctx: &Ctx,
        problem: &Problem,
        cfg: &GcnConfig,
        tcfg: TwoDimConfig,
        pr: usize,
        pc: usize,
    ) -> Self {
        match Self::try_setup_rect(ctx, problem, cfg, tcfg, pr, pc) {
            Ok(t) => t,
            Err(e) => panic!("2D trainer setup: {e}"),
        }
    }

    /// Fallible rectangular-grid constructor. Validation happens before
    /// the grid's communicator splits, so on error every rank returns
    /// without touching the collectives.
    pub fn try_setup_rect(
        ctx: &Ctx,
        problem: &Problem,
        cfg: &GcnConfig,
        tcfg: TwoDimConfig,
        pr: usize,
        pc: usize,
    ) -> Result<Self, super::SetupError> {
        if tcfg.stages_per_block < 1 {
            return Err(super::SetupError::Config(
                "stages_per_block must be >= 1".into(),
            ));
        }
        let n = problem.vertices();
        let k = lcm(pr, pc);
        if k > n {
            return Err(super::SetupError::Geometry(
                "stage count exceeds vertex count".into(),
            ));
        }
        let grid = Grid2D::new(ctx, pr, pc);
        let fine = block_ranges(n, k);
        let rows = coarse_ranges(&fine, pr);
        let cols = coarse_ranges(&fine, pc);
        let (r0, r1) = rows[grid.i];
        let (c0, c1) = cols[grid.j];
        let at_ij = problem.adj_t.block(r0, r1, c0, c1);
        let a_ij = problem.adj.block(r0, r1, c0, c1);
        // Per-stage needed sets for sparsity-aware mode (uncharged setup,
        // like the slicing above).
        let sub = tcfg.stages_per_block;
        let mut needed_fwd = Vec::with_capacity(k * sub);
        let mut needed_bwd = Vec::with_capacity(k * sub);
        for &(fk0, fk1) in &fine {
            for t in 0..sub {
                let (t0, t1) = block_range(fk1 - fk0, sub, t);
                needed_fwd.push(problem.adj_t.needed_cols_in(r0, r1, fk0 + t0, fk0 + t1));
                needed_bwd.push(problem.adj.needed_cols_in(r0, r1, fk0 + t0, fk0 + t1));
            }
        }
        let f0 = problem.features.cols();
        let (fc0, fc1) = block_range(f0, pc, grid.j);
        let h0 = problem.features.block(r0, r1, fc0, fc1);
        Ok(TwoDimTrainer {
            cfg: cfg.clone(),
            tcfg,
            grid,
            train_count: problem.train_count(),
            fine,
            r0,
            r1,
            c0,
            at_ij,
            a_ij,
            needed_fwd,
            needed_bwd,
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
            hs: vec![h0],
            h_out_row: Arc::new(Mat::zeros(0, 0)),
            p_out_row: Mat::zeros(0, 0),
        })
    }

    fn my_rows(&self) -> usize {
        self.r1 - self.r0
    }

    /// SUMMA SpMM: `out_ij += Σ_k SPMM(S(:, fine k), D(fine k, :))` over
    /// the `K` fine stages, each owned by one grid column (the `S` panel)
    /// and one grid row (the `D` panel). Sub-blocked into
    /// `stages_per_block` panels per fine stage. In sparsity-aware mode
    /// the owner serves the column-compacted `S` panel (same nnz —
    /// identical SparseComm words) and the `D` panel moves as a row
    /// gather of each grid row's needed rows instead of a full broadcast.
    fn summa_spmm(
        &self,
        ctx: &Ctx,
        s_mine: &Csr,
        d_mine: &Mat,
        f_cols: usize,
        needed_tbl: &[Vec<usize>],
    ) -> Mat {
        let k_total = self.fine.len();
        let col_per = k_total / self.grid.pc;
        let row_per = k_total / self.grid.pr;
        let sub = self.tcfg.stages_per_block;
        let mut out = Mat::zeros(self.my_rows(), f_cols);
        super::run_stages(
            k_total * sub,
            |st| {
                let (k, t) = (st / sub, st % sub);
                let (owner_col, owner_row) = (k / col_per, k / row_per);
                let (fk0, fk1) = self.fine[k];
                let (t0, t1) = block_range(fk1 - fk0, sub, t);
                let needed = &needed_tbl[st];
                let a_op = self.stages.defer(move || {
                    self.grid.row.ibcast(
                        owner_col,
                        (self.grid.j == owner_col).then(|| {
                            // Local slice of my Aᵀ block covering fine
                            // stage k.
                            let lo = fk0 - self.c0;
                            let panel = s_mine.block(0, s_mine.rows(), lo + t0, lo + t1);
                            if self.stages.sparse_exchange() {
                                panel.compact_cols(needed)
                            } else {
                                panel
                            }
                        }),
                        Cat::SparseComm,
                    )
                });
                let d_op = self.stages.fetch(
                    &self.grid.col,
                    owner_row,
                    (self.grid.i == owner_row).then(|| {
                        let lo = fk0 - self.r0;
                        Arc::new(d_mine.block(lo + t0, lo + t1, 0, d_mine.cols()))
                    }),
                    needed,
                    (t1 - t0, d_mine.cols()),
                );
                (a_op, d_op)
            },
            |_, (a_op, d_op)| {
                let a_panel = a_op.wait();
                let d_panel = d_op.wait();
                // In sparse mode both panels are compact: the S panel's
                // columns are renumbered to needed order (same nnz/rows)
                // and the D panel holds exactly those rows, so the
                // accumulation order — and the charged cost — matches
                // dense mode bit for bit.
                ctx.charge_spmm(a_panel.nnz(), a_panel.rows(), d_panel.cols());
                spmm_acc_with(ctx.parallel(), &a_panel, &d_panel, &mut out);
            },
        );
        out
    }

    /// Partial SUMMA against the replicated `W`: `out_ij += Σ_s T_is ·
    /// W[in-block s, out-block j]`, with `Wᵀ` slices when `transpose_w`
    /// (the backward product). These stages stay dense broadcasts in
    /// every [`super::CommMode`]: the stage GEMM reads *all* rows of the
    /// broadcast `T` block, so a row gather would request every row and
    /// only add the per-row index words.
    fn partial_summa_w(
        &self,
        ctx: &Ctx,
        t_mine: &Arc<Mat>,
        w: &Mat,
        f_in: usize,
        f_out: usize,
        transpose_w: bool,
    ) -> Mat {
        let pc = self.grid.pc;
        let (oc0, oc1) = block_range(f_out, pc, self.grid.j);
        let mut out = Mat::zeros(self.my_rows(), oc1 - oc0);
        // Arc payloads: my own T block is never deep-copied into the
        // collective.
        super::run_stages(
            pc,
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
                let (ic0, ic1) = block_range(f_in, pc, s);
                debug_assert_eq!(ic1 - ic0, t_hat.cols(), "stage width mismatch");
                if ic1 == ic0 || oc1 == oc0 {
                    return;
                }
                ctx.charge_gemm(t_hat.rows(), ic1 - ic0, oc1 - oc0);
                if transpose_w {
                    // out += t_hat · (W[oc, ic])ᵀ
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

    /// Forward pass; returns global mean masked NLL loss.
    pub fn forward(&mut self, ctx: &Ctx) -> f64 {
        let l_total = self.cfg.layers();
        let pc = self.grid.pc;
        self.zs.clear();
        self.drop_masks = vec![None; l_total];
        self.hs.truncate(1);
        for l in 0..l_total {
            let f_in = self.cfg.dims[l];
            let f_out = self.cfg.dims[l + 1];
            // Phase 1: T = Aᵀ H (SUMMA SpMM).
            let t = Arc::new(self.summa_spmm(
                ctx,
                &self.at_ij,
                &self.hs[l],
                self.hs[l].cols(),
                &self.needed_fwd,
            ));
            // Phase 2: Z = T W (partial SUMMA; W replicated).
            let z = Arc::new(self.partial_summa_w(ctx, &t, &self.weights[l], f_in, f_out, false));
            let h = if l + 1 == l_total {
                // log_softmax is not elementwise: all-gather Z along the
                // process row to assemble full rows (§IV-C.2).
                let parts = self.grid.row.allgather_shared(z.clone(), Cat::DenseComm);
                let z_row = Mat::hstack(&parts.iter().map(|p| (**p).clone()).collect::<Vec<_>>());
                ctx.charge_elementwise(2 * z_row.len());
                self.h_out_row = Arc::new(log_softmax_rows(&z_row));
                self.p_out_row = softmax_rows(&z_row);
                let (oc0, oc1) = block_range(f_out, pc, self.grid.j);
                self.h_out_row.block(0, z_row.rows(), oc0, oc1)
            } else {
                ctx.charge_elementwise(z.len());
                let mut h = self.act.apply(&z);
                let (dc0, dc1) = block_range(f_out, self.grid.pc, self.grid.j);
                self.apply_dropout(l, self.r0, f_out, dc0, dc1, &mut h);
                h
            };
            self.zs.push(z);
            self.hs.push(h);
        }
        // Loss: one rank per process row contributes its row block.
        let local = if self.grid.j == 0 {
            nll_sum(&self.h_out_row, &self.labels, &self.mask, self.r0)
        } else {
            0.0
        };
        ctx.world.allreduce_scalar(local, Cat::DenseComm) / self.train_count as f64
    }

    /// Output-layer gradient block `G^L_ij` from the stored row softmax.
    fn output_gradient_block(&self) -> Mat {
        let pc = self.grid.pc;
        let f_out = self.cfg.f_out();
        let (oc0, oc1) = block_range(f_out, pc, self.grid.j);
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
        if self.tcfg.charge_transpose {
            // The paper's implementation pays local transposes twice per
            // epoch (cf. §IV-A.7 "only twice per epoch"); Figure 3 reports
            // them as "trpose".
            ctx.charge_transpose(2 * self.a_ij.nnz());
        }
        let mut g = self.output_gradient_block();
        ctx.charge_elementwise(g.len());
        for l in (0..l_total).rev() {
            let f_in = self.cfg.dims[l];
            let f_out = self.cfg.dims[l + 1];
            // SUMMA SpMM: AG = A G (saved and reused, §IV-C.4).
            let ag = self.summa_spmm(ctx, &self.a_ij, &g, g.cols(), &self.needed_bwd);
            // Row all-gather of AG: serves both Y and A G Wᵀ. The local
            // block moves into the collective, not a copy of it.
            let parts = self.grid.row.allgather_shared(Arc::new(ag), Cat::DenseComm);
            let ag_row = Mat::hstack(&parts.iter().map(|p| (**p).clone()).collect::<Vec<_>>());
            debug_assert_eq!(ag_row.shape(), (self.my_rows(), f_out));
            // Y = (H^{l-1})ᵀ (A G): local slab product, column-group
            // reduction, row replication (2D dense SUMMA + all-gather in
            // the paper's terms).
            ctx.charge_gemm(self.hs[l].cols(), self.my_rows(), f_out);
            let y_local = matmul_tn_with(ctx.parallel(), &self.hs[l], &ag_row);
            // With overlap on, the column-group Y reduction is in flight
            // while the G^{l-1} GEMM computes (both read only ag_row and
            // replicated state). The dropout mask is taken up front so
            // no &mut self is needed while the op borrows the grid.
            let drop_mask = (l > 0).then(|| self.drop_masks[l - 1].take()).flatten();
            let y_op = self
                .stages
                .defer(|| self.grid.col.iallreduce_mat(&y_local, Cat::DenseComm));
            if l > 0 {
                // G^{l-1} = A G (W^l)ᵀ ⊙ σ'(Z^{l-1}): local against
                // replicated W using the already-gathered AG row slab.
                let (jc0, jc1) = block_range(f_in, self.grid.pc, self.grid.j);
                let w_slice = self.weights[l].block(jc0, jc1, 0, f_out);
                ctx.charge_gemm(self.my_rows(), f_out, jc1 - jc0);
                g = matmul_nt_with(ctx.parallel(), &ag_row, &w_slice);
                hadamard_assign(&mut g, &self.act.prime(&self.zs[l - 1]));
                if let Some(mask) = drop_mask {
                    hadamard_assign(&mut g, &mask);
                }
                ctx.charge_elementwise(g.len());
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

    /// Choose dense panel broadcasts, the sparsity-aware row exchange,
    /// or the cached tier for the SUMMA stages (see
    /// [`super::CommMode`]): in the sparse modes the stage `D` panel
    /// moves as a per-grid-row gather of the rows its `Aᵀ`/`A` panel
    /// references, and the `S` panel is served column-compacted (same
    /// nnz, so SparseComm words are unchanged). Partial-W stages and
    /// reductions stay dense — every row is needed there — and are never
    /// cached. `Dense` and `SparsityAware` train bit-identically;
    /// `Cached` is bit-identical only at `refresh: 1` (DESIGN.md §13).
    /// Must be set identically on every rank. Always drops any halo
    /// cache, so a mode change (or re-set after mutating state) can
    /// never serve stale panels.
    pub fn set_comm_mode(&mut self, mode: super::CommMode) {
        self.stages.set_mode(mode);
    }

    /// Enable or disable communication/computation overlap (default on).
    /// With overlap on, SUMMA panel broadcasts and the column-group Y
    /// reduction run as nonblocking collectives pipelined against
    /// compute; losses, weights, and metered words are bit-identical
    /// either way — only modeled (and wall-clock) time changes. Must be
    /// set identically on every rank.
    pub fn set_overlap(&mut self, overlap: bool) {
        self.stages.set_overlap(overlap);
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

    /// Per-rank storage footprint (run after a forward pass). 2D is the
    /// memory-optimal distribution (§I): every term scales as 1/P or
    /// 1/√P. See [`super::StorageReport`].
    pub fn storage_words(&self) -> super::StorageReport {
        let f_max = self.cfg.f_max();
        super::StorageReport {
            adjacency: super::csr_words(&self.at_ij) + super::csr_words(&self.a_ij),
            dense_state: super::mats_words(&self.hs)
                + super::mats_words(&self.zs)
                + self.h_out_row.len()
                + self.p_out_row.len(),
            // Row-all-gathered AG slab (n/Pr x f) dominates transients.
            intermediate: self.my_rows() * f_max,
        }
    }

    /// Assemble the full output embedding matrix on every rank.
    pub fn gather_embeddings(&self, ctx: &Ctx) -> Mat {
        let pc = self.grid.pc;
        let blocks = ctx
            .world
            .allgather_shared(self.h_out_row.clone(), Cat::DenseComm);
        let parts: Vec<Mat> = (0..self.grid.pr)
            .map(|i| (*blocks[i * pc]).clone())
            .collect();
        Mat::vstack(&parts)
    }
}
