//! The benchmark measures the entry point users call: for every workload
//! configuration, including the socket one, the driver's losses, weights
//! and metered words are bit-identical to `train_distributed` on the same
//! problem, traced or not.

use cagnet_comm::{Cat, TimelineReport, ALL_CATS};
use cagnet_core::trainer::train_distributed;
use cagnet_core::{GcnConfig, Problem};
use cagnet_perfbench::{check_ranks, drive, ChildRun, Workload, WORKLOADS};
use cagnet_sparse::datasets;
use cagnet_sparse::generate::{rmat_symmetric, RmatParams};

const EPOCHS: usize = 3;

fn small_problem() -> (Problem, GcnConfig) {
    let g = rmat_symmetric(9, 8, RmatParams::default(), 7);
    let problem = Problem::synthetic(&g, 24, 6, 1.0, 8);
    (problem, GcnConfig::three_layer(24, 16, 6))
}

fn words(r: &TimelineReport) -> Vec<u64> {
    ALL_CATS.iter().map(|c| r.words(*c)).collect()
}

fn bits(m: &cagnet_dense::Mat) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn assert_matches_entry_point(w: &Workload) {
    let (problem, gcn) = small_problem();
    let want = train_distributed(
        &problem,
        &gcn,
        w.algo,
        w.ranks,
        w.model(),
        &w.train_config(EPOCHS),
    );
    for traced in [false, true] {
        let ranks = drive(w, &problem, &gcn, EPOCHS, traced, 0, 0.0);
        let run = ChildRun {
            traced,
            ranks,
            ..ChildRun::default()
        };
        check_ranks(&run, w.ranks, EPOCHS).unwrap();
        let got = &run.ranks[0];
        let what = format!("{} traced={traced}", w.name);
        assert_eq!(
            got.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            want.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            "{what}: losses"
        );
        assert_eq!(got.weights.len(), want.weights.len(), "{what}: layer count");
        for (a, b) in got.weights.iter().zip(&want.weights) {
            assert_eq!(bits(a), bits(b), "{what}: weights");
        }
        for (rank, (r, rep)) in run.ranks.iter().zip(&want.reports).enumerate() {
            assert_eq!(words(&r.report), words(rep), "{what}: rank {rank} words");
            if !traced {
                // Without the traced run's barriers the whole timeline,
                // modeled clock included, is the entry point's.
                assert_eq!(r.report, *rep, "{what}: rank {rank} timeline");
            }
        }
        if w.ranks > 1 {
            assert!(
                want.reports[0].comm_words() > 0 && want.reports[0].words(Cat::DenseComm) > 0,
                "{what}: the comparison must cover metered traffic"
            );
        }
    }
}

#[test]
fn amazon_socket_driver_matches_train_distributed() {
    assert_matches_entry_point(&WORKLOADS[0]);
}

#[test]
fn protein_2d_driver_matches_train_distributed() {
    assert_matches_entry_point(&WORKLOADS[1]);
}

#[test]
fn protein_serial_driver_matches_train_distributed() {
    assert_matches_entry_point(&WORKLOADS[2]);
}

#[test]
fn workload_inputs_are_the_bench_dataset_shapes() {
    for w in &WORKLOADS {
        let ds = datasets::generate(&w.dataset, w.scale_down, w.max_degree, 0xBE7C);
        let bench = cagnet_bench::bench_dataset(&w.dataset);
        assert!(
            ds.adj == bench.adj,
            "{}: generate(0xBE7C) != bench_dataset",
            w.name
        );
    }
}

#[test]
fn workloads_pin_transport_and_name_lookup() {
    use cagnet_comm::TransportKind;
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(
        names,
        [
            "amazon-1d-socket-sparse",
            "protein-2d-shared-dense",
            "protein-serial-2t"
        ]
    );
    assert_eq!(WORKLOADS[0].transport, TransportKind::Socket);
    for w in &WORKLOADS {
        assert_eq!(w.train_config(1).transport, Some(w.transport));
        assert!(Workload::by_name(w.name).is_some());
    }
}
