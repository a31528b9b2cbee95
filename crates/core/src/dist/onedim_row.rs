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

use super::{DistTrainer, Layout, StorageReport, TrainState};
use crate::loss::output_gradient;
use crate::model::GcnConfig;
use crate::problem::Problem;
use cagnet_comm::{Cat, Ctx};
use cagnet_dense::{matmul_with, Mat};
use cagnet_sparse::partition::{block_range, block_ranges};
use cagnet_sparse::spmm::{outer_product_from_transposed, spmm_acc_with};
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
    a_blocks: Vec<Csr>,
    /// Per stage `j`: the sorted distinct columns of `A_{ij}` — the rows
    /// of `G_j` this rank actually reads (sparsity-aware mode).
    needed: Vec<Vec<usize>>,
    /// Column-compacted copies of `a_blocks` (columns renumbered to
    /// `needed[j]` order) for multiplying compact gathered operands.
    /// Built lazily on the first switch to sparsity-aware mode.
    a_compact: Vec<Csr>,
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
        let a_blocks: Vec<Csr> = block_ranges(n, p)
            .into_iter()
            .map(|(c0, c1)| a_row.block(0, r1 - r0, c0, c1))
            .collect();
        let needed = a_blocks.iter().map(Csr::needed_cols).collect();
        let h0 = problem.features.block(r0, r1, 0, problem.features.cols());
        let layout = OneDimRowLayout {
            r0,
            a_row,
            a_blocks,
            needed,
            a_compact: Vec::new(),
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
        let mut g = Arc::new(output_gradient(
            &s.zs[l_total - 1],
            &s.labels,
            &s.mask,
            self.r0,
            s.train_count,
        ));
        ctx.charge_elementwise(g.len());
        for l in (0..l_total).rev() {
            let f_out = s.cfg.dims[l + 1];
            // Block-row multiply: AG_i = Σ_j A_ij G_j via P broadcasts.
            // Issue-ahead pipeline: stage j+1's gradient block is in
            // flight while stage j's SpMM computes (mirror of the column
            // variant's forward loop). Root-side dims are known to every
            // rank from the balanced partition (`a_blocks[j]` has one
            // column per root row), fingerprinted under CheckMode.
            let mut ag = Mat::zeros(self.a_row.rows(), f_out);
            super::run_stages(
                ctx.size,
                |j| {
                    s.stages.fetch(
                        &ctx.world,
                        j,
                        (j == ctx.rank).then(|| g.clone()),
                        &self.needed[j],
                        (self.a_blocks[j].cols(), g.cols()),
                    )
                },
                |j, gj| {
                    let gj = gj.wait();
                    // Same nnz/rows either way (compact only renumbers
                    // columns): identical charged cost and accumulation
                    // order.
                    let a = if s.stages.sparse_exchange() {
                        &self.a_compact[j]
                    } else {
                        &self.a_blocks[j]
                    };
                    ctx.charge_spmm(a.nnz(), a.rows(), f_out);
                    spmm_acc_with(ctx.parallel(), a, &gj, &mut ag);
                },
            );
            // Small outer product for Y (unchanged from the column
            // variant).
            if let Some(next) = super::row_backward_step(s, ctx, l, &ag) {
                g = Arc::new(next);
            }
        }
    }

    fn compact_panels(&mut self) {
        if self.a_compact.is_empty() {
            self.a_compact = super::compacted(&self.a_blocks, &self.needed);
        }
    }

    fn storage_words(&self, s: &TrainState) -> StorageReport {
        StorageReport {
            adjacency: super::csr_words(&self.a_row)
                + self.a_blocks.iter().map(super::csr_words).sum::<usize>()
                + self.a_compact.iter().map(super::csr_words).sum::<usize>(),
            dense_state: super::mats_words(&s.hs) + super::mats_words(&s.zs),
            // The forward outer product materializes the full n x f
            // contribution here (mirror of the column variant's backward).
            intermediate: self.a_row.cols() * s.cfg.f_max(),
        }
    }
}
