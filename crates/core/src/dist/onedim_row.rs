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
//!
//! The backward `G_j` stage fetches follow the [`super::CommMode`] tier.

use super::{DistTrainer, Layout, RowPanels, StorageReport, TrainState};
use crate::model::GcnConfig;
use crate::problem::Problem;
use cagnet_comm::{Cat, Ctx};
use cagnet_dense::{matmul_with, Mat};
use cagnet_sparse::partition::{block_range, block_ranges};
use cagnet_sparse::spmm::outer_product_from_transposed;
use cagnet_sparse::Csr;
use std::sync::Arc;

/// The row-partitioned 1D trainer: the shared shell over the
/// [`OneDimRowLayout`].
pub type OneDimRowTrainer = DistTrainer<OneDimRowLayout>;

/// Per-rank blocks of the row-partitioned 1D distribution.
pub struct OneDimRowLayout {
    /// My global row range start.
    r0: usize,
    /// `A`'s block row `A_i` (`n_i x n`) — used directly by the forward
    /// outer product (it is the CSR-of-transpose of `Aᵀ`'s column block).
    a_row: Csr,
    /// `A_i` split into `P` column blocks for the backward block-row
    /// multiply.
    a_blocks: RowPanels,
}

impl OneDimRowTrainer {
    /// Slice this rank's blocks out of the shared problem.
    pub fn setup(ctx: &Ctx, problem: &Problem, cfg: &GcnConfig) -> Self {
        Self::try_setup(ctx, problem, cfg).unwrap_or_else(|e| panic!("1D row trainer setup: {e}"))
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
        let a_blocks = RowPanels::new(
            block_ranges(n, p)
                .into_iter()
                .map(|(c0, c1)| a_row.block(0, r1 - r0, c0, c1))
                .collect(),
        );
        let h0 = problem.features.block(r0, r1, 0, problem.features.cols());
        let layout = OneDimRowLayout {
            r0,
            a_row,
            a_blocks,
        };
        Ok(DistTrainer::new(problem, cfg, h0, layout))
    }
}

impl Layout for OneDimRowLayout {
    fn row_offset(&self) -> usize {
        self.r0
    }

    /// The outer-product formulation: `Aᵀ(:, my block) · H_i`,
    /// reduce-scattered back to block rows, then the local GEMM.
    fn layer(&self, s: &TrainState, ctx: &Ctx, l: usize) -> Mat {
        let f_in = s.cfg.dims[l];
        let f_out = s.cfg.dims[l + 1];
        ctx.charge_spmm(self.a_row.nnz(), self.a_row.rows(), f_in);
        let contrib = outer_product_from_transposed(&self.a_row, &s.hs[l]);
        let t = ctx.world.reduce_scatter_rows(&contrib, Cat::DenseComm);
        ctx.charge_gemm(t.rows(), f_in, f_out);
        matmul_with(ctx.parallel(), &t, &s.weights[l])
    }

    /// The block-row formulation of backward.
    fn backward(&mut self, s: &mut TrainState, ctx: &Ctx) {
        let l_total = s.cfg.layers();
        // Shared so my block enters the broadcast stages without a copy.
        let mut g = Arc::new(super::row_output_gradient(
            ctx,
            &s.targets,
            &s.zs[l_total - 1],
            self.r0,
        ));
        for l in (0..l_total).rev() {
            // Block-row multiply: AG_i = Σ_j A_ij G_j via P stages (mirror
            // of the column variant's forward).
            let ag = self.a_blocks.stage_spmm(&s.stages, ctx, &ctx.world, &g);
            // Small outer product for Y (unchanged from the column
            // variant).
            if let Some(next) = super::row_backward_step(s, ctx, l, &ag) {
                g = Arc::new(next);
            }
        }
    }

    fn compact_panels(&mut self) {
        self.a_blocks.build_compact();
    }

    fn storage_words(&self, s: &TrainState) -> StorageReport {
        StorageReport {
            adjacency: super::csr_words(&self.a_row) + self.a_blocks.words(),
            dense_state: super::mats_words(&s.hs) + super::mats_words(&s.zs),
            // The forward outer product materializes the full n x f
            // contribution here (mirror of the column variant's backward).
            intermediate: self.a_row.cols() * s.cfg.f_max(),
        }
    }
}
