//! Pluggable hidden activations: every elementwise σ preserves the
//! no-communication property (§IV-A.2 generalizes), every distributed
//! geometry still matches serial, and the serial gradients stay exact
//! under each σ (finite differences).

use cagnet::comm::CostModel;
use cagnet::core::trainer::{train_distributed, Algorithm, TrainConfig};
use cagnet::core::{GcnConfig, Problem, SerialTrainer};
use cagnet::dense::activation::Activation;
use cagnet::dense::Mat;
use cagnet::sparse::generate::erdos_renyi;

const ACTS: [Activation; 4] = [
    Activation::Relu,
    Activation::LeakyRelu(0.1),
    Activation::Tanh,
    Activation::Sigmoid,
];

fn problem(seed: u64) -> Problem {
    let g = erdos_renyi(44, 4.0, seed);
    Problem::synthetic(&g, 9, 3, 0.9, seed + 1)
}

fn gcn() -> GcnConfig {
    GcnConfig {
        dims: vec![9, 7, 3],
        lr: 0.05,
        seed: 41,
    }
}

#[test]
fn distributed_matches_serial_for_every_activation() {
    let p = problem(51);
    for act in ACTS {
        let mut s = SerialTrainer::new(&p, gcn());
        s.set_hidden_activation(act);
        let s_losses = s.train(3);
        let tc = TrainConfig {
            epochs: 3,
            activation: act,
            ..Default::default()
        };
        for (algo, ranks) in [
            (Algorithm::OneD, 4),
            (Algorithm::OneDRow, 4),
            (Algorithm::TwoD, 4),
            (Algorithm::TwoDRect { pr: 2, pc: 1 }, 2),
            (Algorithm::ThreeD, 8),
            (Algorithm::One5D { c: 2 }, 4),
        ] {
            let r = train_distributed(&p, &gcn(), algo, ranks, CostModel::summit_like(), &tc);
            for (e, (a, b)) in s_losses.iter().zip(&r.losses).enumerate() {
                assert!(
                    (a - b).abs() < 1e-8,
                    "{:?} {} epoch {e}: {a} vs {b}",
                    act,
                    algo.name()
                );
            }
        }
    }
}

#[test]
fn activation_choice_changes_numbers_but_not_communication() {
    let p = problem(52);
    let run = |act: Activation| {
        let tc = TrainConfig {
            epochs: 2,
            collect_outputs: true,
            activation: act,
            ..Default::default()
        };
        let r = train_distributed(
            &p,
            &gcn(),
            Algorithm::TwoD,
            4,
            CostModel::summit_like(),
            &tc,
        );
        let words: u64 = r.reports.iter().map(|rep| rep.comm_words()).sum();
        (r.losses, words)
    };
    let (l_relu, w_relu) = run(Activation::Relu);
    let (l_tanh, w_tanh) = run(Activation::Tanh);
    assert_ne!(l_relu, l_tanh, "different σ must train differently");
    assert_eq!(w_relu, w_tanh, "elementwise σ must not change traffic");
}

#[test]
fn serial_gradients_are_exact_under_each_activation() {
    // Central-difference check of dL/dW for a tiny model per activation.
    let g = erdos_renyi(10, 2.0, 53);
    let p = Problem::synthetic(&g, 3, 2, 1.0, 54);
    let cfg = GcnConfig {
        dims: vec![3, 4, 2],
        lr: 0.1,
        seed: 5,
    };
    for act in ACTS {
        let mut t = SerialTrainer::new(&p, cfg.clone());
        t.set_hidden_activation(act);
        let base: Vec<Mat> = t.weights().to_vec();
        let grads = t.gradients();
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
                        (fd - an).abs() < 2e-5 * (1.0 + an.abs()),
                        "{act:?} layer {l} ({i},{j}): fd {fd} vs analytic {an}"
                    );
                }
            }
        }
        t.set_weights(base);
    }
}
