//! GraphSAGE-mean — a second GNN architecture on the same distributed
//! machinery.
//!
//! The paper argues its algorithms are model-agnostic: "our distributed
//! algorithms can be used to implement anything that is supported by
//! PyTorch Geometric" (§II). GCN is one aggregation; this module
//! implements GraphSAGE with the mean aggregator (Hamilton et al. \[17\],
//! which the paper cites for Reddit) to demonstrate the claim concretely:
//!
//! ```text
//! Z^l = [ H^{l-1} ‖ Ā H^{l-1} ] W^l ,   H^l = σ(Z^l)
//! ```
//!
//! with `Ā = D⁻¹A` the mean aggregator and `W^l ∈ R^{2f_{l-1} x f_l}`
//! (top half applied to the self features, bottom half to the
//! aggregate). The communication structure is *identical* to the GCN
//! trainers — the same block-row SpMM broadcasts, the same `f x f`
//! all-reduces — because the algebra is still SpMM + GEMM, which is the
//! paper's whole point.
//!
//! Backward (derived exactly like §III-D):
//!
//! ```text
//! Y_top^l = (H^{l-1})ᵀ G^l          Y_bot^l = (Ā H^{l-1})ᵀ G^l
//! ∂L/∂H^{l-1} = G^l (W_top^l)ᵀ + Āᵀ G^l (W_bot^l)ᵀ
//! G^{l-1} = ∂L/∂H^{l-1} ⊙ σ'(Z^{l-1})
//! ```
//!
//! The distributed trainers call the GCN layouts' stage kernels in
//! [`crate::dist`]: the 1D trainer's two block-row SpMMs are `RowPanels`
//! stage loops and its `G^L` is the row layouts' `row_output_gradient`;
//! the 2D trainer runs `partial_summa_w` once per half of `W`, forms its
//! output rows and `G^L` with `RowOutput`, and gathers slabs with
//! `hstack_row` / `replicate_y`. Both use a dense, overlap-off
//! `StageFetcher`, so every collective sits where a blocking call would
//! and no communication is overlapped.

use crate::dist::{
    hstack_row, output_block, partial_summa_w, replicate_y, row_output_gradient, RowOutput,
    RowPanels, StageFetcher, Targets,
};
use crate::loss::{accuracy_counts, nll_sum, output_gradient};
use crate::problem::Problem;
use cagnet_comm::{Cat, Ctx};
use cagnet_dense::activation::{log_softmax_rows, relu, relu_prime};
use cagnet_dense::init::glorot_uniform;
use cagnet_dense::ops::{add_assign, axpy_neg, hadamard_assign};
use cagnet_dense::{
    matmul, matmul_nt, matmul_nt_with, matmul_tn, matmul_tn_with, matmul_with, Mat,
};
use cagnet_sparse::partition::{block_range, block_ranges};
use cagnet_sparse::spmm::{spmm, spmm_acc_with};
use cagnet_sparse::{Coo, Csr};
use std::sync::Arc;

/// GraphSAGE model configuration.
#[derive(Clone, Debug)]
pub struct SageConfig {
    /// Layer widths `[f⁰, ..., f^L]`.
    pub dims: Vec<usize>,
    /// Learning rate.
    pub lr: f64,
    /// Weight-init seed.
    pub seed: u64,
}

impl SageConfig {
    /// Number of layers.
    pub fn layers(&self) -> usize {
        assert!(self.dims.len() >= 2, "need at least one layer");
        self.dims.len() - 1
    }

    /// Output width `f^L` (the label count).
    pub fn f_out(&self) -> usize {
        assert!(self.dims.len() >= 2, "need at least one layer");
        self.dims[self.dims.len() - 1]
    }

    /// Initialize the stacked weights (`2f_in x f_out` per layer).
    pub fn init_weights(&self) -> Vec<Mat> {
        (0..self.layers())
            .map(|l| {
                glorot_uniform(
                    2 * self.dims[l],
                    self.dims[l + 1],
                    self.seed.wrapping_add(l as u64),
                )
            })
            .collect()
    }
}

/// Row-normalized mean aggregator `Ā = D⁻¹ A` (no self loops — SAGE keeps
/// the self features in the concatenation instead). Vertices without
/// out-edges aggregate nothing (zero row).
pub fn mean_aggregator(a: &Csr) -> Csr {
    assert_eq!(a.rows(), a.cols(), "aggregator needs square adjacency");
    let mut coo = Coo::new(a.rows(), a.cols());
    for i in 0..a.rows() {
        let deg: f64 = a.row_entries(i).map(|(_, v)| v).sum();
        if deg > 0.0 {
            for (j, v) in a.row_entries(i) {
                coo.push(i, j, v / deg);
            }
        }
    }
    Csr::from_coo(coo)
}

/// Serial GraphSAGE-mean trainer (reference).
pub struct SageSerialTrainer<'p> {
    problem: &'p Problem,
    /// Mean aggregator `Ā` (and its transpose).
    abar: Csr,
    abar_t: Csr,
    cfg: SageConfig,
    weights: Vec<Mat>,
    zs: Vec<Mat>,
    hs: Vec<Mat>,
    /// Stored aggregates `Ā H^{l-1}` per layer.
    ms: Vec<Mat>,
}

impl<'p> SageSerialTrainer<'p> {
    /// New trainer; derives the mean aggregator from the problem's *raw*
    /// normalized adjacency pattern (weights are re-normalized row-wise).
    pub fn new(problem: &'p Problem, cfg: SageConfig) -> Self {
        assert_eq!(cfg.dims[0], problem.features.cols(), "input width");
        assert_eq!(cfg.f_out(), problem.num_classes, "output width");
        let abar = mean_aggregator(&problem.adj);
        let abar_t = abar.transpose();
        let weights = cfg.init_weights();
        SageSerialTrainer {
            problem,
            abar,
            abar_t,
            cfg,
            weights,
            zs: Vec::new(),
            hs: Vec::new(),
            ms: Vec::new(),
        }
    }

    /// Forward pass; returns mean masked NLL.
    pub fn forward(&mut self) -> f64 {
        let l_total = self.cfg.layers();
        self.zs.clear();
        self.ms.clear();
        self.hs.clear();
        self.hs.push(self.problem.features.clone());
        for l in 0..l_total {
            let h = &self.hs[l];
            let m = spmm(&self.abar, h);
            let cat = Mat::hstack(&[h.clone(), m.clone()]);
            let z = matmul(&cat, &self.weights[l]);
            let out = if l + 1 == l_total {
                log_softmax_rows(&z)
            } else {
                relu(&z)
            };
            self.ms.push(m);
            self.zs.push(z);
            self.hs.push(out);
        }
        nll_sum(
            output_block(&self.hs),
            &self.problem.labels,
            &self.problem.train_mask,
            0,
        ) / self.problem.train_count() as f64
    }

    /// Backward + SGD step.
    pub fn backward(&mut self) {
        let l_total = self.cfg.layers();
        assert_eq!(self.zs.len(), l_total, "run forward first");
        let mut g = output_gradient(
            &self.zs[l_total - 1],
            &self.problem.labels,
            &self.problem.train_mask,
            0,
            self.problem.train_count(),
        );
        for l in (0..l_total).rev() {
            let f_in = self.cfg.dims[l];
            let (w_top, w_bot) = split_weights(&self.weights[l], f_in);
            let y_top = matmul_tn(&self.hs[l], &g);
            let y_bot = matmul_tn(&self.ms[l], &g);
            if l > 0 {
                // ∂L/∂H = G W_topᵀ + Āᵀ G W_botᵀ
                let mut dh = matmul_nt(&g, &w_top);
                let atg = spmm(&self.abar_t, &g);
                add_assign(&mut dh, &matmul_nt(&atg, &w_bot));
                hadamard_assign(&mut dh, &relu_prime(&self.zs[l - 1]));
                g = dh;
            }
            let y = Mat::vstack(&[y_top, y_bot]);
            axpy_neg(&mut self.weights[l], self.cfg.lr, &y);
        }
    }

    /// One epoch; returns pre-update loss.
    pub fn epoch(&mut self) -> f64 {
        let loss = self.forward();
        self.backward();
        loss
    }

    /// Train for `epochs` epochs.
    pub fn train(&mut self, epochs: usize) -> Vec<f64> {
        (0..epochs).map(|_| self.epoch()).collect()
    }

    /// Training accuracy of the current model.
    pub fn accuracy(&mut self) -> f64 {
        let _ = self.forward();
        let (c, t) = accuracy_counts(
            output_block(&self.hs),
            &self.problem.labels,
            &self.problem.train_mask,
            0,
        );
        c as f64 / t.max(1) as f64
    }

    /// Current weights.
    pub fn weights(&self) -> &[Mat] {
        &self.weights
    }

    /// Replace the weights (finite-difference test hook).
    pub fn set_weights(&mut self, weights: Vec<Mat>) {
        assert_eq!(weights.len(), self.cfg.layers());
        self.weights = weights;
    }
}

fn split_weights(w: &Mat, f_in: usize) -> (Mat, Mat) {
    (
        w.block(0, f_in, 0, w.cols()),
        w.block(f_in, 2 * f_in, 0, w.cols()),
    )
}

/// 1D block-row distributed GraphSAGE-mean — Algorithm 1's communication
/// pattern applied to the SAGE algebra. The concatenation is row-local in
/// a block-row layout, so no extra communication appears; forward and the
/// `Āᵀ G` backward product are the familiar `P`-stage broadcast SpMMs.
pub struct SageOneDimTrainer {
    cfg: SageConfig,
    targets: Targets,
    r0: usize,
    /// Dense broadcasts with overlap off: every collective runs where a
    /// blocking call would.
    stages: StageFetcher,
    /// `Ā` block row split by column blocks.
    abar_blocks: RowPanels,
    /// `Āᵀ` block row split by column blocks (for the backward product).
    abar_t_blocks: RowPanels,
    weights: Vec<Mat>,
    zs: Vec<Mat>,
    hs: Vec<Arc<Mat>>,
    ms: Vec<Mat>,
}

impl SageOneDimTrainer {
    /// Slice this rank's blocks from the shared problem.
    pub fn setup(ctx: &Ctx, problem: &Problem, cfg: &SageConfig) -> Self {
        let n = problem.vertices();
        let p = ctx.size;
        assert!(p <= n, "more ranks than vertices");
        let abar = mean_aggregator(&problem.adj);
        let abar_t = abar.transpose();
        let (r0, r1) = block_range(n, p, ctx.rank);
        let panels = |a: &Csr| {
            let row = a.block(r0, r1, 0, n);
            RowPanels::new(
                block_ranges(n, p)
                    .into_iter()
                    .map(|(c0, c1)| row.block(0, r1 - r0, c0, c1))
                    .collect(),
            )
        };
        let h0 = problem.features.block(r0, r1, 0, problem.features.cols());
        SageOneDimTrainer {
            cfg: cfg.clone(),
            targets: Targets::new(problem),
            r0,
            stages: StageFetcher::blocking(),
            abar_blocks: panels(&abar),
            abar_t_blocks: panels(&abar_t),
            weights: cfg.init_weights(),
            zs: Vec::new(),
            hs: vec![Arc::new(h0)],
            ms: Vec::new(),
        }
    }

    /// Forward pass; returns global mean masked NLL.
    pub fn forward(&mut self, ctx: &Ctx) -> f64 {
        let l_total = self.cfg.layers();
        self.zs.clear();
        self.ms.clear();
        self.hs.truncate(1);
        for l in 0..l_total {
            let f_in = self.cfg.dims[l];
            let f_out = self.cfg.dims[l + 1];
            let h = &self.hs[l];
            let m = self
                .abar_blocks
                .stage_spmm(&self.stages, ctx, &ctx.world, h);
            let cat = Mat::hstack(&[(**h).clone(), m.clone()]);
            ctx.charge_gemm(cat.rows(), 2 * f_in, f_out);
            let z = matmul_with(ctx.parallel(), &cat, &self.weights[l]);
            let out = if l + 1 == l_total {
                log_softmax_rows(&z)
            } else {
                relu(&z)
            };
            ctx.charge_elementwise(z.len());
            self.ms.push(m);
            self.zs.push(z);
            self.hs.push(Arc::new(out));
        }
        self.targets
            .loss(ctx, Some((output_block(&self.hs), self.r0)))
    }

    /// Backward pass + replicated SGD step.
    pub fn backward(&mut self, ctx: &Ctx) {
        let l_total = self.cfg.layers();
        assert_eq!(self.zs.len(), l_total, "run forward first");
        let z_out = &self.zs[l_total - 1];
        let mut g = Arc::new(row_output_gradient(ctx, &self.targets, z_out, self.r0));
        for l in (0..l_total).rev() {
            let f_in = self.cfg.dims[l];
            let f_out = self.cfg.dims[l + 1];
            let (w_top, w_bot) = split_weights(&self.weights[l], f_in);
            ctx.charge_gemm(f_in, g.rows(), f_out);
            let y_top = matmul_tn_with(ctx.parallel(), &self.hs[l], &g);
            ctx.charge_gemm(f_in, g.rows(), f_out);
            let y_bot = matmul_tn_with(ctx.parallel(), &self.ms[l], &g);
            let y_local = Mat::vstack(&[y_top, y_bot]);
            let y = ctx.world.allreduce_mat(&y_local, Cat::DenseComm);
            if l > 0 {
                let atg = self
                    .abar_t_blocks
                    .stage_spmm(&self.stages, ctx, &ctx.world, &g);
                ctx.charge_gemm(g.rows(), f_out, f_in);
                let mut dh = matmul_nt_with(ctx.parallel(), &g, &w_top);
                ctx.charge_gemm(atg.rows(), f_out, f_in);
                add_assign(&mut dh, &matmul_nt_with(ctx.parallel(), &atg, &w_bot));
                hadamard_assign(&mut dh, &relu_prime(&self.zs[l - 1]));
                ctx.charge_elementwise(dh.len());
                g = Arc::new(dh);
            }
            axpy_neg(&mut self.weights[l], self.cfg.lr, &y);
            ctx.charge_elementwise(y.len());
        }
    }

    /// One epoch; returns pre-update loss.
    pub fn epoch(&mut self, ctx: &Ctx) -> f64 {
        let loss = self.forward(ctx);
        self.backward(ctx);
        loss
    }

    /// Global training accuracy.
    pub fn accuracy(&mut self, ctx: &Ctx) -> f64 {
        let _ = self.forward(ctx);
        let rows = Some((output_block(&self.hs), self.r0));
        self.targets.accuracy(ctx, rows)
    }

    /// Replicated weights.
    pub fn weights(&self) -> &[Mat] {
        &self.weights
    }
}

/// 2D SUMMA distributed GraphSAGE-mean on a square `√P x √P` grid — the
/// paper's implemented algorithm (Algorithm 2) carrying a different
/// model. The concatenation never materializes: `Z = H W_top + (ĀH)
/// W_bot` is two partial SUMMAs against the replicated halves of `W`, so
/// the communication kinds are exactly the GCN 2D trainer's.
pub struct SageTwoDimTrainer {
    cfg: SageConfig,
    grid: cagnet_comm::Grid2D,
    targets: Targets,
    r0: usize,
    r1: usize,
    /// Dense broadcasts with overlap off: every collective runs where a
    /// blocking call would.
    stages: StageFetcher,
    /// `Ā` block `(i, j)`.
    ab_ij: Csr,
    /// `Āᵀ` block `(i, j)`.
    abt_ij: Csr,
    weights: Vec<Mat>,
    zs: Vec<Arc<Mat>>,
    hs: Vec<Arc<Mat>>,
    ms: Vec<Arc<Mat>>,
    /// Full-width output rows of my process row.
    out: RowOutput,
}

impl SageTwoDimTrainer {
    /// Slice this rank's grid blocks; world size must be a perfect
    /// square.
    pub fn setup(ctx: &Ctx, problem: &Problem, cfg: &SageConfig) -> Self {
        let q = cagnet_comm::grid::int_sqrt(ctx.size)
            .unwrap_or_else(|| panic!("needs a square process count, got {}", ctx.size));
        let grid = cagnet_comm::Grid2D::new(ctx, q, q);
        let n = problem.vertices();
        assert!(q <= n, "grid side exceeds vertex count");
        let abar = mean_aggregator(&problem.adj);
        let abar_t = abar.transpose();
        let (r0, r1) = block_range(n, q, grid.i);
        let (bc0, bc1) = block_range(n, q, grid.j);
        let ab_ij = abar.block(r0, r1, bc0, bc1);
        let abt_ij = abar_t.block(r0, r1, bc0, bc1);
        let f0 = problem.features.cols();
        let (fc0, fc1) = block_range(f0, q, grid.j);
        let h0 = problem.features.block(r0, r1, fc0, fc1);
        SageTwoDimTrainer {
            cfg: cfg.clone(),
            grid,
            targets: Targets::new(problem),
            r0,
            r1,
            stages: StageFetcher::blocking(),
            ab_ij,
            abt_ij,
            weights: cfg.init_weights(),
            zs: Vec::new(),
            hs: vec![Arc::new(h0)],
            ms: Vec::new(),
            out: RowOutput::default(),
        }
    }

    fn my_rows(&self) -> usize {
        self.r1 - self.r0
    }

    /// My column range of a dense matrix `f` wide.
    fn col_block(&self, f: usize) -> (usize, usize) {
        block_range(f, self.grid.pc, self.grid.j)
    }

    /// Square SUMMA SpMM over the vertex dimension.
    fn summa_spmm(&self, ctx: &Ctx, s_mine: &Csr, d_mine: &Mat) -> Mat {
        let q = self.grid.pc;
        let mut out = Mat::zeros(self.my_rows(), d_mine.cols());
        for s in 0..q {
            let a_hat = self.grid.row.bcast(
                s,
                (self.grid.j == s).then(|| s_mine.clone()),
                Cat::SparseComm,
            );
            let d_hat = self.grid.col.bcast(
                s,
                (self.grid.i == s).then(|| d_mine.clone()),
                Cat::DenseComm,
            );
            ctx.charge_spmm(a_hat.nnz(), a_hat.rows(), d_hat.cols());
            spmm_acc_with(ctx.parallel(), &a_hat, &d_hat, &mut out);
        }
        out
    }

    /// Forward pass; returns global mean masked NLL.
    pub fn forward(&mut self, ctx: &Ctx) -> f64 {
        let l_total = self.cfg.layers();
        self.zs.clear();
        self.ms.clear();
        self.hs.truncate(1);
        for l in 0..l_total {
            let f_in = self.cfg.dims[l];
            let h_in = self.hs[l].clone();
            let m = Arc::new(self.summa_spmm(ctx, &self.ab_ij, &h_in));
            let (oc0, oc1) = self.col_block(self.cfg.dims[l + 1]);
            let mut z = Mat::zeros(self.my_rows(), oc1 - oc0);
            let (w_top, w_bot) = split_weights(&self.weights[l], f_in);
            let row = &self.grid.row;
            partial_summa_w(&self.stages, ctx, row, &h_in, &w_top, &mut z);
            partial_summa_w(&self.stages, ctx, row, &m, &w_bot, &mut z);
            let z = Arc::new(z);
            let out = if l + 1 == l_total {
                self.out.forward(ctx, &self.grid.row, &z)
            } else {
                ctx.charge_elementwise(z.len());
                relu(&z)
            };
            self.ms.push(m);
            self.zs.push(z);
            self.hs.push(Arc::new(out));
        }
        let rows = self.out.rows(&self.grid.row, self.r0);
        self.targets.loss(ctx, rows)
    }

    /// Backward pass + replicated SGD step.
    pub fn backward(&mut self, ctx: &Ctx) {
        let l_total = self.cfg.layers();
        assert_eq!(self.zs.len(), l_total, "run forward first");
        let cols = self.col_block(self.cfg.f_out());
        let mut g = Arc::new(self.out.gradient(ctx, &self.targets, self.r0, cols));
        let row = &self.grid.row;
        for l in (0..l_total).rev() {
            let f_in = self.cfg.dims[l];
            let f_out = self.cfg.dims[l + 1];
            // Row-all-gathered G slab serves Y_top, Y_bot, and the W_topᵀ
            // term.
            let g_row = hstack_row(row, g.clone());
            ctx.charge_gemm(self.hs[l].cols(), self.my_rows(), f_out);
            let yt_local = matmul_tn_with(ctx.parallel(), &self.hs[l], &g_row);
            ctx.charge_gemm(self.ms[l].cols(), self.my_rows(), f_out);
            let yb_local = matmul_tn_with(ctx.parallel(), &self.ms[l], &g_row);
            let yt_j = self.grid.col.allreduce_mat(&yt_local, Cat::DenseComm);
            let yb_j = self.grid.col.allreduce_mat(&yb_local, Cat::DenseComm);
            let y = Mat::vstack(&[replicate_y(row, yt_j), replicate_y(row, yb_j)]);
            if l > 0 {
                let (jc0, jc1) = self.col_block(f_in);
                let (w_top, w_bot) = split_weights(&self.weights[l], f_in);
                // term1: G W_topᵀ, local from the gathered slab.
                ctx.charge_gemm(self.my_rows(), f_out, jc1 - jc0);
                let w_top = w_top.block(jc0, jc1, 0, f_out);
                let mut dh = matmul_nt_with(ctx.parallel(), &g_row, &w_top);
                // term2: (Āᵀ G) W_botᵀ via SUMMA + row all-gather.
                let atg = self.summa_spmm(ctx, &self.abt_ij, &g);
                let atg_row = hstack_row(row, Arc::new(atg));
                ctx.charge_gemm(self.my_rows(), f_out, jc1 - jc0);
                let w_bot = w_bot.block(jc0, jc1, 0, f_out);
                add_assign(&mut dh, &matmul_nt_with(ctx.parallel(), &atg_row, &w_bot));
                hadamard_assign(&mut dh, &relu_prime(&self.zs[l - 1]));
                ctx.charge_elementwise(dh.len());
                g = Arc::new(dh);
            }
            axpy_neg(&mut self.weights[l], self.cfg.lr, &y);
            ctx.charge_elementwise(y.len());
        }
    }

    /// One epoch; returns pre-update loss.
    pub fn epoch(&mut self, ctx: &Ctx) -> f64 {
        let loss = self.forward(ctx);
        self.backward(ctx);
        loss
    }

    /// Replicated weights.
    pub fn weights(&self) -> &[Mat] {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagnet_comm::{Cluster, CostModel};
    use cagnet_sparse::generate::erdos_renyi;

    fn setup(seed: u64) -> (Problem, SageConfig) {
        let g = erdos_renyi(36, 4.0, seed);
        let problem = Problem::synthetic(&g, 6, 3, 1.0, seed + 1);
        let cfg = SageConfig {
            dims: vec![6, 5, 3],
            lr: 0.1,
            seed: 21,
        };
        (problem, cfg)
    }

    #[test]
    fn mean_aggregator_rows_sum_to_one() {
        let g = erdos_renyi(30, 4.0, 3);
        let abar = mean_aggregator(&g);
        for i in 0..30 {
            let s: f64 = abar.row_entries(i).map(|(_, v)| v).sum();
            if g.row_nnz(i) > 0 {
                assert!((s - 1.0).abs() < 1e-12, "row {i} sums to {s}");
            } else {
                assert_eq!(s, 0.0);
            }
        }
    }

    #[test]
    fn sage_loss_decreases() {
        let (problem, cfg) = setup(31);
        let mut t = SageSerialTrainer::new(&problem, cfg);
        let losses = t.train(30);
        assert!(losses.last().unwrap() < &losses[0], "{losses:?}");
    }

    #[test]
    fn sage_gradient_check() {
        // Finite-difference check over every weight entry of a tiny model.
        let g = erdos_renyi(10, 2.0, 33);
        let problem = Problem::synthetic(&g, 3, 2, 1.0, 34);
        let cfg = SageConfig {
            dims: vec![3, 3, 2],
            lr: 0.1,
            seed: 9,
        };
        let mut t = SageSerialTrainer::new(&problem, cfg.clone());
        let base: Vec<Mat> = t.weights().to_vec();
        // Analytic gradients: run forward+backward with lr folded out by
        // diffing weights before/after one step.
        let _ = t.forward();
        t.backward();
        let stepped: Vec<Mat> = t.weights().to_vec();
        let grads: Vec<Mat> = base
            .iter()
            .zip(&stepped)
            .map(|(b, s)| {
                let mut g = b.clone();
                for (gi, (&bi, &si)) in g
                    .as_mut_slice()
                    .iter_mut()
                    .zip(b.as_slice().iter().zip(s.as_slice()))
                {
                    *gi = (bi - si) / cfg.lr;
                }
                g
            })
            .collect();
        let eps = 1e-6;
        for l in 0..cfg.layers() {
            for i in 0..base[l].rows() {
                for j in 0..base[l].cols() {
                    let mut wp = base.clone();
                    wp[l][(i, j)] += eps;
                    t.set_weights(wp);
                    let lp = t.forward();
                    let mut wm = base.clone();
                    wm[l][(i, j)] -= eps;
                    t.set_weights(wm);
                    let lm = t.forward();
                    let fd = (lp - lm) / (2.0 * eps);
                    let an = grads[l][(i, j)];
                    assert!(
                        (fd - an).abs() < 1e-5 * (1.0 + an.abs()),
                        "layer {l} ({i},{j}): fd {fd} vs analytic {an}"
                    );
                }
            }
        }
    }

    #[test]
    fn distributed_sage_matches_serial() {
        let (problem, cfg) = setup(35);
        let mut s = SageSerialTrainer::new(&problem, cfg.clone());
        let s_losses = s.train(4);
        for p in [1usize, 2, 4, 6] {
            let results = Cluster::new(p)
                .with_model(CostModel::summit_like())
                .run(|ctx| {
                    let mut t = SageOneDimTrainer::setup(ctx, &problem, &cfg);
                    let losses: Vec<f64> = (0..4).map(|_| t.epoch(ctx)).collect();
                    (losses, t.weights().to_vec())
                });
            let (d_losses, d_weights) = &results[0].0;
            for (e, (a, b)) in s_losses.iter().zip(d_losses).enumerate() {
                assert!(
                    (a - b).abs() < 1e-8,
                    "P={p} epoch {e}: serial {a} vs dist {b}"
                );
            }
            for (sw, dw) in s.weights().iter().zip(d_weights) {
                assert!(sw.max_abs_diff(dw) < 1e-8, "P={p}: weights differ");
            }
        }
    }

    #[test]
    fn sage_2d_matches_serial() {
        let (problem, cfg) = setup(37);
        let mut s = SageSerialTrainer::new(&problem, cfg.clone());
        let s_losses = s.train(3);
        for p in [1usize, 4, 9] {
            let results = Cluster::new(p)
                .with_model(CostModel::summit_like())
                .run(|ctx| {
                    let mut t = SageTwoDimTrainer::setup(ctx, &problem, &cfg);
                    let losses: Vec<f64> = (0..3).map(|_| t.epoch(ctx)).collect();
                    (losses, t.weights().to_vec())
                });
            let (d_losses, d_weights) = &results[0].0;
            for (e, (a, b)) in s_losses.iter().zip(d_losses).enumerate() {
                assert!(
                    (a - b).abs() < 1e-8,
                    "2D P={p} epoch {e}: serial {a} vs dist {b}"
                );
            }
            for (sw, dw) in s.weights().iter().zip(d_weights) {
                assert!(sw.max_abs_diff(dw) < 1e-8, "2D P={p}: weights differ");
            }
        }
    }

    #[test]
    fn sage_2d_moves_sparse_traffic() {
        // Unlike the 1D layout, the 2D SAGE broadcasts Ā blocks.
        let (problem, cfg) = setup(38);
        let results = Cluster::new(4).run(|ctx| {
            let mut t = SageTwoDimTrainer::setup(ctx, &problem, &cfg);
            t.epoch(ctx);
            ctx.report()
        });
        for (rep, _) in results {
            assert!(rep.words(Cat::SparseComm) > 0);
            assert!(rep.words(Cat::DenseComm) > 0);
        }
    }

    #[test]
    fn sage_communicates_like_gcn_1d() {
        // Same layout → same dense-broadcast structure; SAGE adds one
        // extra block-row SpMM per backward layer (the Āᵀ G product) but
        // no new collective kinds.
        let (problem, cfg) = setup(36);
        let results = Cluster::new(4).run(|ctx| {
            let mut t = SageOneDimTrainer::setup(ctx, &problem, &cfg);
            t.epoch(ctx);
            ctx.report()
        });
        for (rep, _) in results {
            assert!(rep.words(Cat::DenseComm) > 0);
            assert_eq!(rep.words(Cat::SparseComm), 0);
        }
    }
}
