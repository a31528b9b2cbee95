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
//!
//! Under the sparse-exchange [`super::CommMode`] tiers each stage's dense
//! block moves as a `gather_rows` of only the rows the receivers' sparse
//! blocks touch, and the stage owner ships the column-compacted sparse
//! block (same nnz — identical SparseComm words). `S` broadcasts, the
//! partial-W stages and the fiber/j-group reductions stay dense in every
//! mode and are never cached.

use super::{DistTrainer, Layout, StorageReport, TrainState};
use crate::model::GcnConfig;
use crate::problem::Problem;
use cagnet_comm::comm::Communicator;
use cagnet_comm::grid::int_cbrt;
use cagnet_comm::{Cat, Ctx, Grid3D};
use cagnet_dense::{matmul_nt_with, matmul_tn_with, Mat};
use cagnet_sparse::partition::block_range;
use cagnet_sparse::spmm::spmm_acc_with;
use cagnet_sparse::Csr;
use std::sync::Arc;

/// The 3D trainer: the shared shell over the [`ThreeDimLayout`].
pub type ThreeDimTrainer = DistTrainer<ThreeDimLayout>;

/// Per-rank blocks and mesh of the Split-3D distribution.
pub struct ThreeDimLayout {
    grid: Grid3D,
    /// Communicator over all ranks sharing my grid column `j` (size `q²`),
    /// used for the weight-gradient reduction.
    jgroup: Communicator,
    /// Global row offset of my Block Split rows (block `i`, sub-block
    /// `k`).
    r0: usize,
    /// Rows of my Block Split dense pieces (`≈ n/q²`).
    rows: usize,
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
    /// Full-width output rows of my process row.
    out: super::RowOutput,
}

impl ThreeDimTrainer {
    /// Slice this rank's mesh blocks from the shared problem. World size
    /// must be a perfect cube.
    pub fn setup(ctx: &Ctx, problem: &Problem, cfg: &GcnConfig) -> Self {
        Self::try_setup(ctx, problem, cfg).unwrap_or_else(|e| panic!("3D trainer setup: {e}"))
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
        let layout = ThreeDimLayout {
            grid,
            jgroup,
            r0,
            rows: h0.rows(),
            at_ijk: Arc::new(at_ijk),
            a_ijk: Arc::new(a_ijk),
            at_compact: None,
            a_compact: None,
            needed_fwd,
            needed_bwd,
            stage_rows,
            out: super::RowOutput::default(),
        };
        Ok(DistTrainer::new(problem, cfg, h0, layout))
    }
}

impl ThreeDimLayout {
    /// The sparse block to serve as stage owner on the row broadcast:
    /// the full block in dense mode, the column-compacted one (same nnz,
    /// identical SparseComm words) in the sparse-exchange modes.
    fn bcast_block<'a>(
        &self,
        s: &TrainState,
        full: &'a Arc<Csr>,
        compact: &'a Option<Arc<Csr>>,
    ) -> &'a Arc<Csr> {
        match (s.stages.sparse_exchange(), compact) {
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
        s: &TrainState,
        ctx: &Ctx,
        s_mine: &Arc<Csr>,
        d_mine: &Arc<Mat>,
        needed_tbl: &[Vec<usize>],
    ) -> Mat {
        let f_cols = d_mine.cols();
        let mut partial = Mat::zeros(self.at_ijk.rows(), f_cols);
        // Arc payloads: the owner's resident block is never deep-copied
        // into the collective.
        super::run_stages(
            self.grid.q,
            |st| {
                let a_op = s.stages.defer(move || {
                    self.grid.row.ibcast_shared(
                        st,
                        (self.grid.j == st).then(|| s_mine.clone()),
                        Cat::SparseComm,
                    )
                });
                let d_op = s.stages.fetch(
                    &self.grid.col,
                    st,
                    (self.grid.i == st).then(|| d_mine.clone()),
                    &needed_tbl[st],
                    (self.stage_rows[st], f_cols),
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
}

impl Layout for ThreeDimLayout {
    fn row_offset(&self) -> usize {
        self.r0
    }

    fn col_block(&self, f: usize) -> (usize, usize) {
        block_range(f, self.grid.q, self.grid.j)
    }

    /// Split-3D-SpMM for `T = Aᵀ H`, then the partial SUMMA against the
    /// replicated `W` (within-layer row broadcasts only, §IV-D.1).
    fn layer(&self, s: &TrainState, ctx: &Ctx, l: usize) -> Mat {
        let at = self.bcast_block(s, &self.at_ijk, &self.at_compact);
        let t = Arc::new(self.split3d_spmm(s, ctx, at, &s.hs[l], &self.needed_fwd));
        let g = &self.grid;
        super::partial_summa_w(&s.stages, ctx, &g.row, g.j, &t, &s.weights[l])
    }

    /// Within-layer row all-gather; no cross-layer communication
    /// (§IV-D.2).
    fn output_layer(&mut self, ctx: &Ctx, z: &Arc<Mat>) -> Mat {
        self.out.forward(ctx, &self.grid.row, self.grid.j, z)
    }

    /// One rank per process row contributes its full-width row block.
    fn output_rows<'a>(&'a self, _: &'a TrainState) -> Option<(&'a Mat, usize)> {
        (self.grid.j == 0).then(|| (&*self.out.h, self.r0))
    }

    fn backward(&mut self, s: &mut TrainState, ctx: &Ctx) {
        let l_total = s.cfg.layers();
        let mut g = Arc::new(self.out.gradient(s, self.r0, self.col_block(s.cfg.f_out())));
        ctx.charge_elementwise(g.len());
        for l in (0..l_total).rev() {
            let f_in = s.cfg.dims[l];
            let f_out = s.cfg.dims[l + 1];
            // A G via full Split-3D-SpMM; saved and reused (§IV-D.4).
            let a = self.bcast_block(s, &self.a_ijk, &self.a_compact);
            let ag = self.split3d_spmm(s, ctx, a, &g, &self.needed_bwd);
            let ag_row = super::hstack_row(&self.grid.row, Arc::new(ag));
            debug_assert_eq!(ag_row.shape(), (self.rows, f_out));
            // Y = (H^{l-1})ᵀ A G: local slab product, reduction over all
            // ranks sharing grid column j, then row replication.
            ctx.charge_gemm(s.hs[l].cols(), self.rows, f_out);
            let y_local = matmul_tn_with(ctx.parallel(), &s.hs[l], &ag_row);
            // With overlap on, the j-group Y reduction is in flight while
            // the G^{l-1} GEMM computes (both read only ag_row and
            // replicated state).
            let y_op = s
                .stages
                .defer(|| self.jgroup.iallreduce_mat(&y_local, Cat::DenseComm));
            if l > 0 {
                let (jc0, jc1) = self.col_block(f_in);
                let w_slice = s.weights[l].block(jc0, jc1, 0, f_out);
                ctx.charge_gemm(self.rows, f_out, jc1 - jc0);
                let mut next_g = matmul_nt_with(ctx.parallel(), &ag_row, &w_slice);
                s.activation_grad(ctx, l, &mut next_g);
                g = Arc::new(next_g);
            }
            let y = super::replicate_y(&self.grid.row, y_op.wait());
            debug_assert_eq!(y.shape(), (f_in, f_out));
            s.step(ctx, l, &y);
        }
    }

    fn compact_panels(&mut self) {
        let j = self.grid.j;
        if self.at_compact.is_none() {
            self.at_compact = Some(Arc::new(self.at_ijk.compact_cols(&self.needed_fwd[j])));
        }
        if self.a_compact.is_none() {
            self.a_compact = Some(Arc::new(self.a_ijk.compact_cols(&self.needed_bwd[j])));
        }
    }

    /// The intermediate term is the §IV-D replication: each SUMMA partial
    /// is `n/q x f/q` — `q = ∛P` times larger than the rank's own
    /// `n/q² x f/q` state blocks.
    fn storage_words(&self, s: &TrainState) -> StorageReport {
        let f_max = s.cfg.f_max();
        StorageReport {
            adjacency: super::csr_words(&self.at_ijk)
                + super::csr_words(&self.a_ijk)
                + self.at_compact.as_ref().map_or(0, |c| super::csr_words(c))
                + self.a_compact.as_ref().map_or(0, |c| super::csr_words(c)),
            dense_state: super::mats_words(&s.hs) + super::mats_words(&s.zs) + self.out.words(),
            // Pre-fiber-reduction partial: n/q rows x ~f/q cols.
            intermediate: self.at_ijk.rows() * f_max.div_ceil(self.grid.q) + self.rows * f_max,
        }
    }

    fn gather_embeddings(&self, _: &TrainState, ctx: &Ctx) -> Mat {
        let q = self.grid.q;
        let blocks = ctx
            .world
            .allgather_shared(self.out.h.clone(), Cat::DenseComm);
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
