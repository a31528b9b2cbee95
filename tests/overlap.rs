//! Tentpole acceptance for communication/computation overlap
//! (DESIGN.md §10): on every trainer and P ∈ {1, 2, 4, 8} (respecting
//! each algorithm's geometry), `overlap: true` must train
//! *bit-identically* to `overlap: false` — same per-epoch losses, same
//! final weights, same metered communication words — while modeled epoch
//! time never increases and strictly decreases on a communication-bound
//! configuration. A `PendingOp` dropped without `wait()` must abort with
//! a diagnostic rather than deadlock.

use cagnet::comm::{Cat, CheckMode, Cluster, CostModel};
use cagnet::core::dist::onedim::OneDimTrainer;
use cagnet::core::trainer::{train_distributed, Algorithm, TrainConfig};
use cagnet::core::{CommMode, DistTrainResult, GcnConfig, Problem};
use cagnet::sparse::generate::erdos_renyi;
use std::sync::Arc;
use std::time::Duration;

const EPOCHS: usize = 3;

fn problem() -> (Problem, GcnConfig) {
    let g = erdos_renyi(64, 3.0, 41);
    let problem = Problem::synthetic(&g, 12, 4, 0.8, 42);
    let cfg = GcnConfig::three_layer(12, 8, 4);
    (problem, cfg)
}

/// Every algorithm whose geometry admits `p` ranks.
fn algorithms(p: usize) -> Vec<Algorithm> {
    [
        Algorithm::OneD,
        Algorithm::OneDRow,
        Algorithm::One5D {
            c: if p.is_multiple_of(2) { 2 } else { 1 },
        },
        Algorithm::TwoD,
        Algorithm::ThreeD,
    ]
    .into_iter()
    .filter(|a| a.supports(p))
    .collect()
}

fn config(overlap: bool, mode: CommMode) -> TrainConfig {
    TrainConfig {
        epochs: EPOCHS,
        overlap,
        comm_mode: mode,
        // Exercise the dropout-mask path that overlap reorders in the
        // backward passes.
        dropout: 0.2,
        ..Default::default()
    }
}

fn comm_words(r: &DistTrainResult) -> u64 {
    r.reports.iter().map(|rep| rep.comm_words()).sum()
}

fn dense_words(r: &DistTrainResult) -> u64 {
    r.reports.iter().map(|rep| rep.words(Cat::DenseComm)).sum()
}

#[test]
fn overlap_is_bit_identical_and_never_slower() {
    let (problem, cfg) = problem();
    for p in [1usize, 2, 4, 8] {
        for mode in [
            CommMode::Dense,
            CommMode::SparsityAware,
            CommMode::Cached { refresh: 2 },
        ] {
            for algo in algorithms(p) {
                let off = train_distributed(
                    &problem,
                    &cfg,
                    algo,
                    p,
                    CostModel::summit_like(),
                    &config(false, mode),
                );
                let on = train_distributed(
                    &problem,
                    &cfg,
                    algo,
                    p,
                    CostModel::summit_like(),
                    &config(true, mode),
                );
                let tag = format!("{} P={p} {mode:?}", algo.name());
                assert_eq!(
                    off.losses, on.losses,
                    "{tag}: losses must be bit-identical across overlap modes"
                );
                assert_eq!(
                    off.weights, on.weights,
                    "{tag}: final weights must be bit-identical across overlap modes"
                );
                assert_eq!(
                    comm_words(&off),
                    comm_words(&on),
                    "{tag}: total communication words must not change"
                );
                assert_eq!(
                    dense_words(&off),
                    dense_words(&on),
                    "{tag}: dense communication words must not change"
                );
                let (t_off, t_on) = (off.epoch_seconds(EPOCHS), on.epoch_seconds(EPOCHS));
                assert!(
                    t_on <= t_off + 1e-12,
                    "{tag}: overlap must never increase modeled epoch time \
                     (on={t_on}, off={t_off})"
                );
            }
        }
    }
}

#[test]
fn overlap_strictly_reduces_modeled_time_when_comm_bound() {
    let (problem, cfg) = problem();
    // slow_network makes the broadcast stages expensive relative to the
    // local SpMM/GEMM work, so every hidden α–β charge shows up as a
    // strict modeled-time win.
    for algo in algorithms(4) {
        let off = train_distributed(
            &problem,
            &cfg,
            algo,
            4,
            CostModel::slow_network(),
            &config(false, CommMode::Dense),
        );
        let on = train_distributed(
            &problem,
            &cfg,
            algo,
            4,
            CostModel::slow_network(),
            &config(true, CommMode::Dense),
        );
        assert_eq!(off.losses, on.losses, "{}", algo.name());
        let (t_off, t_on) = (off.epoch_seconds(EPOCHS), on.epoch_seconds(EPOCHS));
        assert!(
            t_on < t_off,
            "{}: overlap must strictly reduce modeled epoch time on a \
             comm-bound config (on={t_on}, off={t_off})",
            algo.name()
        );
    }
}

#[test]
fn overlap_runs_clean_under_check_mode() {
    let (prob, cfg) = problem();
    let checked = Cluster::new(4).with_check(CheckMode::On).run(|ctx| {
        let mut t = OneDimTrainer::setup(ctx, &prob, &cfg);
        t.set_overlap(true);
        (0..EPOCHS).map(|_| t.epoch(ctx)).collect::<Vec<f64>>()
    });
    let unchecked = train_distributed(
        &prob,
        &cfg,
        Algorithm::OneD,
        4,
        CostModel::summit_like(),
        &TrainConfig {
            epochs: EPOCHS,
            overlap: true,
            collect_outputs: false,
            ..Default::default()
        },
    );
    for (rank, (losses, _)) in checked.iter().enumerate() {
        assert_eq!(
            losses, &unchecked.losses,
            "rank {rank}: checked and unchecked overlap losses must match"
        );
    }
}

#[test]
fn dropped_pending_op_aborts_with_diagnostic() {
    let cluster = Cluster::new(2).with_timeout(Duration::from_secs(5));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cluster.run(|ctx| {
            let payload = (ctx.rank == 0).then(|| Arc::new(cagnet::dense::Mat::zeros(4, 4)));
            let op = ctx.world.ibcast_shared(0, payload, Cat::DenseComm);
            drop(op); // never waited: must abort loudly, not deadlock
        })
    }));
    let err = result.expect_err("dropping a pending op must panic");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("without wait()"),
        "diagnostic should name the dropped pending op, got: {msg}"
    );
}
