//! Per-rank memory footprints — the paper's replication arguments made
//! measurable: 2D is memory-optimal (§I), the 1D backward holds an O(nf)
//! intermediate regardless of P (§IV-A.3), 1.5D replicates `A` by `c`
//! (§IV-B), and 3D replicates intermediates by ∛P (§IV-D, the paper's
//! stated reason for not implementing it).

use cagnet::comm::{Cluster, Ctx};
use cagnet::core::dist::{
    one5d::One5DTrainer, onedim::OneDimTrainer, onedim_row::OneDimRowTrainer,
    threedim::ThreeDimTrainer, twodim::TwoDimTrainer, CommMode, StorageReport,
};
use cagnet::core::trainer::TwoDimConfig;
use cagnet::core::{GcnConfig, Problem};
use cagnet::sparse::generate::{rmat_symmetric, RmatParams};
use cagnet::sparse::partition::{block_range, block_ranges};
use cagnet::sparse::Csr;

const F: usize = 32;

fn problem() -> Problem {
    let g = rmat_symmetric(10, 8, RmatParams::default(), 81); // 1024 vertices
    Problem::synthetic(&g, F, F, 1.0, 82)
}

fn gcn() -> GcnConfig {
    GcnConfig {
        dims: vec![F, F, F],
        lr: 0.01,
        seed: 8,
    }
}

fn storage_1d(p: usize) -> Vec<StorageReport> {
    let prob = problem();
    Cluster::new(p)
        .run(|ctx| {
            let mut t = OneDimTrainer::setup(ctx, &prob, &gcn());
            t.forward(ctx);
            t.storage_words()
        })
        .into_iter()
        .map(|(r, _)| r)
        .collect()
}

#[test]
fn one_d_intermediate_does_not_shrink_with_p() {
    let s4 = storage_1d(4);
    let s16 = storage_1d(16);
    let n = problem().vertices();
    for s in s4.iter().chain(&s16) {
        assert_eq!(
            s.intermediate,
            n * F,
            "1D outer-product intermediate must be n x f"
        );
    }
    // While the per-rank state does shrink.
    assert!(s16[0].dense_state < s4[0].dense_state);
}

#[test]
fn two_d_memory_scales_with_p() {
    let prob = problem();
    let run = |p: usize| -> StorageReport {
        Cluster::new(p)
            .run(|ctx| {
                let mut t = TwoDimTrainer::setup(ctx, &prob, &gcn(), TwoDimConfig::default());
                t.forward(ctx);
                t.storage_words()
            })
            .into_iter()
            .map(|(r, _)| r)
            .fold(StorageReport::default(), |acc, r| StorageReport {
                adjacency: acc.adjacency.max(r.adjacency),
                dense_state: acc.dense_state.max(r.dense_state),
                intermediate: acc.intermediate.max(r.intermediate),
            })
    };
    let s4 = run(4);
    let s16 = run(16);
    let s64 = run(64);
    // Every component shrinks as P grows (memory-optimal, §I).
    assert!(s16.total() < s4.total(), "{s4:?} -> {s16:?}");
    assert!(s64.total() < s16.total(), "{s16:?} -> {s64:?}");
    // Intermediates scale ~1/√P (row slabs).
    let ratio = s4.intermediate as f64 / s16.intermediate as f64;
    assert!((1.5..3.0).contains(&ratio), "2D intermediate ratio {ratio}");
}

#[test]
fn one5_d_memory_lives_in_partial_sums_not_adjacency() {
    // Our 1.5D variant stores only the A column slices each replica
    // actually multiplies, so per-rank adjacency stays ~nnz/P for every
    // c; the §IV-B memory cost shows up as the forward partial sum
    // (coarse_rows x f = c fine state blocks) and the backward
    // outer-product contribution (n/c x f) instead.
    let prob = problem();
    let n = prob.vertices();
    let run = |c: usize| -> StorageReport {
        Cluster::new(16)
            .run(|ctx| {
                let mut t = One5DTrainer::setup(ctx, &prob, &gcn(), c);
                t.forward(ctx);
                t.storage_words()
            })
            .into_iter()
            .map(|(r, _)| r)
            .fold(StorageReport::default(), |acc, r| StorageReport {
                adjacency: acc.adjacency.max(r.adjacency),
                dense_state: acc.dense_state.max(r.dense_state),
                intermediate: acc.intermediate.max(r.intermediate),
            })
    };
    let s1 = run(1);
    let s4 = run(4);
    let s16 = run(16);
    // Adjacency storage is flat in c (sliced, not replicated).
    let adj_ratio = s4.adjacency as f64 / s1.adjacency as f64;
    assert!(
        (0.8..1.3).contains(&adj_ratio),
        "adjacency should not replicate: {adj_ratio}"
    );
    // c = 1 degenerates to the 1D outer product: intermediate ≈ n·f.
    assert!(
        s1.intermediate >= n * F,
        "c=1 must pay the 1D-style full-height contribution"
    );
    // Larger c shrinks the backward contribution (n/c rows)...
    assert!(s4.intermediate < s1.intermediate);
    // ...but the forward partial (coarse block, n/p1 rows) grows again as
    // p1 = P/c shrinks: c = P is worse than the balanced c = √P.
    assert!(
        s16.intermediate > s4.intermediate,
        "c=P should inflate the coarse partial: {} vs {}",
        s16.intermediate,
        s4.intermediate
    );
}

#[test]
fn dense_state_grows_linearly_with_depth() {
    // §VII: "the memory costs become O(nfL), which is prohibitive for
    // deep networks" — stored activations + pre-activations scale with
    // the layer count.
    let prob = problem();
    let run = |layers: usize| -> usize {
        let cfg = GcnConfig {
            dims: vec![F; layers + 1],
            lr: 0.01,
            seed: 8,
        };
        Cluster::new(4)
            .run(|ctx| {
                let mut t = OneDimTrainer::setup(ctx, &prob, &cfg);
                t.forward(ctx);
                t.storage_words().dense_state
            })
            .into_iter()
            .map(|(r, _)| r)
            .max()
            .unwrap()
    };
    let d2 = run(2);
    let d4 = run(4);
    let d8 = run(8);
    // dense_state ≈ (2L + 1) state blocks: ratios ~ (2·4+1)/(2·2+1) etc.
    let r1 = d4 as f64 / d2 as f64;
    let r2 = d8 as f64 / d4 as f64;
    assert!((1.6..2.0).contains(&r1), "L 2->4 ratio {r1}");
    assert!((1.7..2.1).contains(&r2), "L 4->8 ratio {r2}");
}

#[test]
fn three_d_intermediate_replicates_by_cube_root_p() {
    let prob = problem();
    let run = |p: usize| -> (usize, usize) {
        Cluster::new(p)
            .run(|ctx| {
                let mut t = ThreeDimTrainer::setup(ctx, &prob, &gcn());
                t.forward(ctx);
                let s = t.storage_words();
                (s.intermediate, s.dense_state)
            })
            .into_iter()
            .map(|(r, _)| r)
            .max()
            .unwrap()
    };
    let (i8, d8) = run(8);
    // q = 2: the pre-reduction partial holds n/q rows where the rank's
    // own state holds n/q² — a q-fold blow-up on the dominant buffer.
    // dense_state includes all layers + the output row slabs, so compare
    // against a single state block: n/q² * f ≈ dense_state / (#stored
    // mats ≈ 2L+1 plus output slabs). Use the direct shape instead:
    let n = prob.vertices();
    let q = 2;
    let single_block = (n / (q * q)) * F;
    assert!(
        i8 >= q * single_block,
        "3D partial ({i8}) should be ≥ q x a state block ({single_block})"
    );
    let _ = d8;
    // And it still shrinks with P overall (P^{2/3} in the denominator).
    let (i64, _) = run(64);
    assert!(
        i64 < i8,
        "3D intermediate should shrink with P: {i8} -> {i64}"
    );
}

/// Storage words of a CSR block: values + column indices + row pointers.
fn csr_words(a: &Csr) -> usize {
    2 * a.nnz() + a.rows() + 1
}

/// Per-rank footprints of the trainer `setup` builds, after switching it
/// to `mode` and running one forward pass.
macro_rules! storage_in_mode {
    ($p:expr, $mode:expr, $setup:expr) => {
        Cluster::new($p)
            .run(|ctx| {
                let mut t = ($setup)(ctx);
                t.set_comm_mode($mode);
                t.forward(ctx);
                t.storage_words()
            })
            .into_iter()
            .map(|(r, _)| r)
            .collect::<Vec<StorageReport>>()
    };
}

/// Assert that each rank's `sparse` footprint is its `dense` one plus
/// exactly the CSR words of the column-compacted copies of `panels(rank)`.
fn assert_adds_compacted_panels(
    name: &str,
    dense: &[StorageReport],
    sparse: &[StorageReport],
    panels: impl Fn(usize) -> Vec<Csr>,
) {
    for (rank, (d, s)) in dense.iter().zip(sparse).enumerate() {
        let extra: usize = panels(rank)
            .iter()
            .map(|a| csr_words(&a.compact_cols(&a.needed_cols())))
            .sum();
        assert!(extra > 0, "{name} rank {rank}: no compacted panels");
        assert_eq!(s.adjacency, d.adjacency + extra, "{name} rank {rank}");
        assert_eq!(s.dense_state, d.dense_state, "{name} rank {rank}");
        assert_eq!(s.intermediate, d.intermediate, "{name} rank {rank}");
    }
}

#[test]
fn sparse_exchange_adds_exactly_the_compacted_panels() {
    // A sparse-exchange tier builds column-compacted copies of the stage
    // panels: the adjacency term grows by exactly their CSR words, and
    // nothing else in the footprint moves. The panels are sliced here
    // the way each layout slices them.
    let prob = problem();
    let n = prob.vertices();
    let row_panels = |a: &Csr, p: usize, rank: usize| -> Vec<Csr> {
        let (r0, r1) = block_range(n, p, rank);
        block_ranges(n, p)
            .into_iter()
            .map(|(c0, c1)| a.block(r0, r1, c0, c1))
            .collect()
    };
    let one5d_panels = |p: usize, c: usize, rank: usize| -> Vec<Csr> {
        let fine = block_ranges(n, p);
        let (ti, tr) = (rank / c, rank % c);
        let (cr0, cr1) = (fine[ti * c].0, fine[(ti + 1) * c - 1].1);
        (0..p / c)
            .map(|ip| {
                let (b0, b1) = fine[ip * c + tr];
                prob.adj_t.block(cr0, cr1, b0, b1)
            })
            .collect()
    };
    let three_d_panels = |q: usize, rank: usize| -> Vec<Csr> {
        let (k, i, j) = (rank / (q * q), rank % (q * q) / q, rank % q);
        let (r0, r1) = block_range(n, q, i);
        let (c0, c1) = block_range(n, q, j);
        let (s0, s1) = block_range(c1 - c0, q, k);
        [&prob.adj_t, &prob.adj]
            .iter()
            .map(|a| a.block(r0, r1, c0 + s0, c0 + s1))
            .collect()
    };
    let one_d = |ctx: &mut Ctx| OneDimTrainer::setup(ctx, &prob, &gcn());
    let one_d_row = |ctx: &mut Ctx| OneDimRowTrainer::setup(ctx, &prob, &gcn());
    let one5d = |ctx: &mut Ctx| One5DTrainer::setup(ctx, &prob, &gcn(), 2);
    let three_d = |ctx: &mut Ctx| ThreeDimTrainer::setup(ctx, &prob, &gcn());
    for mode in [CommMode::SparsityAware, CommMode::Cached { refresh: 2 }] {
        assert_adds_compacted_panels(
            "1d",
            &storage_in_mode!(4, CommMode::Dense, one_d),
            &storage_in_mode!(4, mode, one_d),
            |rank| row_panels(&prob.adj_t, 4, rank),
        );
        assert_adds_compacted_panels(
            "1d-row",
            &storage_in_mode!(4, CommMode::Dense, one_d_row),
            &storage_in_mode!(4, mode, one_d_row),
            |rank| row_panels(&prob.adj, 4, rank),
        );
        assert_adds_compacted_panels(
            "1.5d(c=2)",
            &storage_in_mode!(4, CommMode::Dense, one5d),
            &storage_in_mode!(4, mode, one5d),
            |rank| one5d_panels(4, 2, rank),
        );
        assert_adds_compacted_panels(
            "3d",
            &storage_in_mode!(8, CommMode::Dense, three_d),
            &storage_in_mode!(8, mode, three_d),
            |rank| three_d_panels(2, rank),
        );
    }
}
