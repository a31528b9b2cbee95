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
//!
//! Under the sparse-exchange [`super::CommMode`] tiers each SUMMA stage's
//! `D` panel moves as a per-grid-row gather of the rows its `Aᵀ`/`A`
//! panel references, and the `S` panel is served column-compacted (same
//! nnz, so SparseComm words are unchanged). Partial-W stages and
//! reductions stay dense — every row is needed there — and are never
//! cached.

use super::{DistTrainer, Layout, StorageReport, TrainState};
use crate::analysis::gcf;
use crate::model::GcnConfig;
use crate::problem::Problem;
use cagnet_comm::grid::int_sqrt;
use cagnet_comm::{Cat, Ctx, Grid2D};
use cagnet_dense::{matmul_nt_with, matmul_tn_with, Mat};
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

/// The 2D SUMMA trainer: the shared shell over the [`TwoDimLayout`].
pub type TwoDimTrainer = DistTrainer<TwoDimLayout>;

/// Per-rank blocks and grid of the 2D SUMMA distribution.
pub struct TwoDimLayout {
    tcfg: TwoDimConfig,
    grid: Grid2D,
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
    /// Full-width output rows of my process row.
    out: super::RowOutput,
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
        Self::try_setup(ctx, problem, cfg, tcfg).unwrap_or_else(|e| panic!("2D trainer setup: {e}"))
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
        Self::try_setup_rect(ctx, problem, cfg, tcfg, pr, pc)
            .unwrap_or_else(|e| panic!("2D trainer setup: {e}"))
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
        let layout = TwoDimLayout {
            tcfg,
            grid,
            fine,
            r0,
            r1,
            c0,
            at_ij,
            a_ij,
            needed_fwd,
            needed_bwd,
            out: super::RowOutput::default(),
        };
        Ok(DistTrainer::new(problem, cfg, h0, layout))
    }
}

impl TwoDimLayout {
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
        s: &TrainState,
        ctx: &Ctx,
        s_mine: &Csr,
        d_mine: &Mat,
        needed_tbl: &[Vec<usize>],
    ) -> Mat {
        let k_total = self.fine.len();
        let col_per = k_total / self.grid.pc;
        let row_per = k_total / self.grid.pr;
        let sub = self.tcfg.stages_per_block;
        let mut out = Mat::zeros(self.my_rows(), d_mine.cols());
        super::run_stages(
            k_total * sub,
            |st| {
                let (k, t) = (st / sub, st % sub);
                let (owner_col, owner_row) = (k / col_per, k / row_per);
                let (fk0, fk1) = self.fine[k];
                let (t0, t1) = block_range(fk1 - fk0, sub, t);
                let needed = &needed_tbl[st];
                let a_op = s.stages.defer(move || {
                    self.grid.row.ibcast(
                        owner_col,
                        (self.grid.j == owner_col).then(|| {
                            // Local slice of my Aᵀ block covering fine
                            // stage k.
                            let lo = fk0 - self.c0;
                            let panel = s_mine.block(0, s_mine.rows(), lo + t0, lo + t1);
                            if s.stages.sparse_exchange() {
                                panel.compact_cols(needed)
                            } else {
                                panel
                            }
                        }),
                        Cat::SparseComm,
                    )
                });
                let d_op = s.stages.fetch(
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
}

impl Layout for TwoDimLayout {
    fn row_offset(&self) -> usize {
        self.r0
    }

    fn col_block(&self, f: usize) -> (usize, usize) {
        block_range(f, self.grid.pc, self.grid.j)
    }

    /// Phase 1: `T = Aᵀ H` (SUMMA SpMM); phase 2: `Z = T W` (partial
    /// SUMMA; `W` replicated).
    fn layer(&self, s: &TrainState, ctx: &Ctx, l: usize) -> Mat {
        let t = Arc::new(self.summa_spmm(s, ctx, &self.at_ij, &s.hs[l], &self.needed_fwd));
        let g = &self.grid;
        super::partial_summa_w(&s.stages, ctx, &g.row, g.j, &t, &s.weights[l])
    }

    fn output_layer(&mut self, ctx: &Ctx, z: &Arc<Mat>) -> Mat {
        self.out.forward(ctx, &self.grid.row, self.grid.j, z)
    }

    /// One rank per process row contributes its full-width row block.
    fn output_rows<'a>(&'a self, _: &'a TrainState) -> Option<(&'a Mat, usize)> {
        (self.grid.j == 0).then(|| (&*self.out.h, self.r0))
    }

    fn backward(&mut self, s: &mut TrainState, ctx: &Ctx) {
        let l_total = s.cfg.layers();
        if self.tcfg.charge_transpose {
            // The paper's implementation pays local transposes twice per
            // epoch (cf. §IV-A.7 "only twice per epoch"); Figure 3 reports
            // them as "trpose".
            ctx.charge_transpose(2 * self.a_ij.nnz());
        }
        let mut g = self.out.gradient(s, self.r0, self.col_block(s.cfg.f_out()));
        ctx.charge_elementwise(g.len());
        for l in (0..l_total).rev() {
            let f_in = s.cfg.dims[l];
            let f_out = s.cfg.dims[l + 1];
            // SUMMA SpMM: AG = A G (saved and reused, §IV-C.4).
            let ag = self.summa_spmm(s, ctx, &self.a_ij, &g, &self.needed_bwd);
            // Row all-gather of AG: serves both Y and A G Wᵀ. The local
            // block moves into the collective, not a copy of it.
            let ag_row = super::hstack_row(&self.grid.row, Arc::new(ag));
            debug_assert_eq!(ag_row.shape(), (self.my_rows(), f_out));
            // Y = (H^{l-1})ᵀ (A G): local slab product, column-group
            // reduction, row replication (2D dense SUMMA + all-gather in
            // the paper's terms).
            ctx.charge_gemm(s.hs[l].cols(), self.my_rows(), f_out);
            let y_local = matmul_tn_with(ctx.parallel(), &s.hs[l], &ag_row);
            // With overlap on, the column-group Y reduction is in flight
            // while the G^{l-1} GEMM computes (both read only ag_row and
            // replicated state).
            let y_op = s
                .stages
                .defer(|| self.grid.col.iallreduce_mat(&y_local, Cat::DenseComm));
            if l > 0 {
                // G^{l-1} = A G (W^l)ᵀ ⊙ σ'(Z^{l-1}): local against
                // replicated W using the already-gathered AG row slab.
                let (jc0, jc1) = self.col_block(f_in);
                let w_slice = s.weights[l].block(jc0, jc1, 0, f_out);
                ctx.charge_gemm(self.my_rows(), f_out, jc1 - jc0);
                g = matmul_nt_with(ctx.parallel(), &ag_row, &w_slice);
                s.activation_grad(ctx, l, &mut g);
            }
            let y = super::replicate_y(&self.grid.row, y_op.wait());
            debug_assert_eq!(y.shape(), (f_in, f_out));
            s.step(ctx, l, &y);
        }
    }

    /// 2D is the memory-optimal distribution (§I): every term scales as
    /// 1/P or 1/√P.
    fn storage_words(&self, s: &TrainState) -> StorageReport {
        StorageReport {
            adjacency: super::csr_words(&self.at_ij) + super::csr_words(&self.a_ij),
            dense_state: super::mats_words(&s.hs) + super::mats_words(&s.zs) + self.out.words(),
            // Row-all-gathered AG slab (n/Pr x f) dominates transients.
            intermediate: self.my_rows() * s.cfg.f_max(),
        }
    }

    fn gather_embeddings(&self, _: &TrainState, ctx: &Ctx) -> Mat {
        let pc = self.grid.pc;
        let blocks = ctx
            .world
            .allgather_shared(self.out.h.clone(), Cat::DenseComm);
        let parts: Vec<Mat> = (0..self.grid.pr)
            .map(|i| (*blocks[i * pc]).clone())
            .collect();
        Mat::vstack(&parts)
    }
}
