//! Pins the NP pruning loop to the paper's semantics and to the original
//! implementation, bit for bit.
//!
//! * `strict_mode_reproduces_the_pre_refactor_trace` — the seeded F2-300
//!   fixture's full trace (removal counts, batch flags, link counts,
//!   accuracy *bits*) was captured from the original implementation and is
//!   hardcoded here; `prune` must reproduce it exactly.
//! * proptests — on randomized networks/datasets, pruning never violates
//!   the accuracy floor, its trace strictly shrinks, and the reported
//!   final accuracy is the pruned network's.
//! * determinism — a full pruning run replays identically.
//! * weight pins — FNV-1a digests of the pruned networks' `w`/`v` f64
//!   bits, for the F2-300 fixture and for `mine`'s three 1000-tuple fits,
//!   captured before the objective's active-link plan replaced the dense
//!   kernels: an objective change that moves any weight bit fails here.

use neurorule::{Model, NeuroRule};
use nr_datagen::{Function, Generator};
use nr_encode::{EncodedDataset, Encoder};
use nr_nn::{Mlp, Trainer, TrainingAlgorithm};
use nr_opt::Bfgs;
use nr_prune::{prune, PruneConfig};
use proptest::prelude::*;

/// The seeded F2-300 fixture the trace was captured on: F2, 5%
/// perturbation, seed 42 data, seed 12345 network, default trainer.
fn f2_300_fixture() -> (EncodedDataset, Mlp) {
    let raw = Generator::new(42)
        .with_perturbation(0.05)
        .dataset(Function::F2, 300);
    let enc = Encoder::agrawal();
    let data = enc.encode_dataset(&raw);
    let mut net = Mlp::random(87, 4, 2, 12345);
    Trainer::default().train(&mut net, &data);
    (data, net)
}

/// The pruning config the trace was captured under (a trimmed retraining
/// budget).
fn capture_config() -> PruneConfig {
    PruneConfig {
        retrain: Trainer::new(TrainingAlgorithm::Bfgs(
            Bfgs::default().with_max_iters(30).with_grad_tol(1e-3),
        )),
        ..PruneConfig::default()
    }
}

/// `(removed, batch, links_left, accuracy.to_bits())` for all 48 rounds of
/// the pre-refactor run on the seeded F2-300 fixture — captured from the
/// original single-engine implementation before the incremental refactor.
const EXPECTED_TRACE: &[(usize, bool, usize, u64)] = &[
    (214, true, 142, ONE),
    (23, true, 119, ONE),
    (5, true, 114, ONE),
    (7, true, 107, ONE),
    (2, true, 105, ONE),
    (2, true, 103, ONE),
    (2, true, 101, ONE),
    (1, true, 100, ONE),
    (4, true, 96, ONE),
    (1, true, 95, ONE),
    (2, true, 93, ONE),
    (1, true, 92, ONE),
    (3, true, 89, ONE),
    (1, true, 88, ONE),
    (3, true, 85, ONE),
    (1, true, 84, ONE),
    (1, true, 83, ONE),
    (1, true, 82, ONE),
    (1, false, 81, ONE),
    (1, false, 80, ONE),
    (1, false, 79, ONE),
    (1, true, 78, ONE),
    (1, false, 77, ONE),
    (1, false, 76, ONE),
    (1, false, 75, ONE),
    (1, false, 74, ONE),
    (1, false, 73, 0x3fefe4b17e4b17e5),
    (1, false, 72, 0x3fefc962fc962fc9),
    (1, false, 71, 0x3fefae147ae147ae),
    (1, false, 70, 0x3fefae147ae147ae),
    (1, false, 69, 0x3fefae147ae147ae),
    (1, false, 68, 0x3fefae147ae147ae),
    (1, false, 67, 0x3fee9d0369d0369d),
    (1, false, 66, 0x3fee9d0369d0369d),
    (1, false, 65, 0x3fed3a06d3a06d3a),
    (1, false, 64, 0x3fed3a06d3a06d3a),
    (1, false, 63, 0x3fed3a06d3a06d3a),
    (1, false, 62, 0x3fed3a06d3a06d3a),
    (1, false, 61, 0x3fed3a06d3a06d3a),
    (1, false, 60, 0x3fed3a06d3a06d3a),
    (1, false, 59, 0x3fed3a06d3a06d3a),
    (1, false, 58, 0x3fed3a06d3a06d3a),
    (1, false, 57, 0x3fed3a06d3a06d3a),
    (1, false, 56, 0x3fed3a06d3a06d3a),
    (1, false, 55, 0x3fed3a06d3a06d3a),
    (1, false, 54, 0x3fed3a06d3a06d3a),
    (1, false, 53, 0x3fed3a06d3a06d3a),
    (1, false, 52, 0x3fed1eb851eb851f),
];

/// `1.0f64.to_bits()`.
const ONE: u64 = 0x3ff0000000000000;

#[test]
fn strict_mode_reproduces_the_pre_refactor_trace() {
    let (data, net) = f2_300_fixture();
    let mut candidate = net.clone();
    let outcome = prune(&mut candidate, &data, &capture_config());

    assert_eq!(outcome.rounds, EXPECTED_TRACE.len());
    assert_eq!(outcome.initial_links, 356);
    assert_eq!(outcome.remaining_links, 48);
    assert_eq!(outcome.dead_hidden, vec![2, 3]);
    assert_eq!(
        outcome.final_accuracy.to_bits(),
        0x3fed1eb851eb851f,
        "final accuracy drifted: {}",
        outcome.final_accuracy
    );
    assert_eq!(outcome.unused_inputs.len(), 48);
    for (i, (round, &(removed, batch, links_left, acc_bits))) in
        outcome.trace.iter().zip(EXPECTED_TRACE).enumerate()
    {
        assert_eq!(round.removed, removed, "round {i} removal count");
        assert_eq!(round.batch, batch, "round {i} batch flag");
        assert_eq!(round.links_left, links_left, "round {i} links");
        assert_eq!(
            round.accuracy.to_bits(),
            acc_bits,
            "round {i} accuracy drifted: {}",
            round.accuracy
        );
        assert!(round.retrained, "strict mode retrains every round");
    }
}

/// FNV-1a over the little-endian f64 bits of every `w` entry, then every
/// `v` entry (row-major, masked entries included).
fn weight_digest(net: &Mlp) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &x in net.w().as_slice().iter().chain(net.v().as_slice()) {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn strict_mode_pins_the_pruned_weights() {
    let (data, mut net) = f2_300_fixture();
    prune(&mut net, &data, &capture_config());
    assert_eq!(
        weight_digest(&net),
        0xc345_b80f_aa0e_a35f,
        "pruned F2-300 weights drifted"
    );
}

/// FNV-1a over the bytes of `value`'s serde_json text.
fn json_digest<T: serde::Serialize>(value: &T) -> u64 {
    let text = serde_json::to_string(value).expect("serializes");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digests of one fit: the pruned weights, then RX's output (the reduced
/// `ruleset`, `report.bit_rules` and `report.rx_trace`).
struct FitPin {
    function: Function,
    data_seed: u64,
    seed: u64,
    weights: u64,
    ruleset: u64,
    bit_rules: u64,
    rx_trace: u64,
}

/// Fits the paper's pipeline (Agrawal encoder, 5% perturbation, 1000
/// tuples), checks every digest of `pin` and returns the model.
fn check_fit(pin: &FitPin) -> Model {
    let train = Generator::new(pin.data_seed)
        .with_perturbation(0.05)
        .dataset(pin.function, 1000);
    let model = NeuroRule::default()
        .with_encoder(Encoder::agrawal())
        .with_seed(pin.seed)
        .fit(&train)
        .expect("the fit succeeds");
    let got = [
        weight_digest(&model.network),
        json_digest(&model.ruleset),
        json_digest(&model.report.bit_rules),
        json_digest(&model.report.rx_trace),
    ];
    let want = [pin.weights, pin.ruleset, pin.bit_rules, pin.rx_trace];
    assert_eq!(
        got, want,
        "{:?} drifted; [weights, ruleset, bit_rules, rx_trace] now digest to {:#018x?}",
        pin.function, got
    );
    model
}

/// `mine`'s three fits (perfbench's pinned training sets: generator seed
/// 5, 5% perturbation, 1000 tuples; the paper's pipeline with the Agrawal
/// encoder) end in these exact pruned weights and extract these exact
/// rules. F4 extracts through a depth-0 §3.2 subnetwork.
#[test]
fn mine_fits_pin_the_pruned_weights() {
    let pins = [
        FitPin {
            function: Function::F1,
            data_seed: 5,
            seed: 12345,
            weights: 0xc508_0195_a6c2_520a,
            ruleset: 0x33f4_f2ec_ce83_8219,
            bit_rules: 0xb2bb_5040_bcd2_8745,
            rx_trace: 0x92f5_232d_6d1c_8438,
        },
        FitPin {
            function: Function::F2,
            data_seed: 5,
            seed: 12345,
            weights: 0xd5b6_29d5_2010_aef8,
            ruleset: 0x1589_fb4a_ea82_d201,
            bit_rules: 0x5df0_aa2c_9031_d386,
            rx_trace: 0xc3a7_4ce5_87cd_5206,
        },
        FitPin {
            function: Function::F4,
            data_seed: 5,
            seed: 12345,
            weights: 0x2a01_52f2_b74c_e59b,
            ruleset: 0x7342_0012_aabd_eac3,
            bit_rules: 0x694e_ab9c_5249_8951,
            rx_trace: 0x11cf_fa2f_9587_710e,
        },
    ];
    let traces: Vec<_> = pins
        .iter()
        .map(|pin| {
            let trace = check_fit(pin).report.rx_trace;
            (trace.used_subnet, trace.observed_fallback)
        })
        .collect();
    assert_eq!(
        traces,
        [(vec![], vec![]), (vec![], vec![]), (vec![(0, 1)], vec![])]
    );
}

/// F5 on data seed 42 with pipeline seed 777: RX splits hidden nodes
/// through depth-1 subnetworks, and one depth-2 node falls back to its
/// observed input patterns. The trace records both, as `(depth, node)`.
#[test]
fn f5_fit_pins_nested_subnetwork_extraction() {
    let model = check_fit(&FitPin {
        function: Function::F5,
        data_seed: 42,
        seed: 777,
        weights: 0xb4ab_9f22_ef64_70b0,
        ruleset: 0xace1_fe52_274f_f9cf,
        bit_rules: 0x3ce2_8922_7132_e8c2,
        rx_trace: 0xb068_e6a3_af5a_ef1d,
    });
    let trace = model.report.rx_trace;
    assert_eq!(trace.used_subnet, [(0, 0), (0, 2), (1, 2), (0, 3)]);
    assert_eq!(trace.observed_fallback, [(2, 2)]);
}

/// Small learnable fixture: class = input bit 0, one junk bit per extra
/// input, bias appended.
fn synthetic(rows: usize, n_in: usize, seed: u64) -> EncodedDataset {
    let cols = n_in + 1; // + bias
    let mut inputs = Vec::with_capacity(rows * cols);
    let mut targets = Vec::with_capacity(rows);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..rows {
        let b0 = (next() % 2) as f64;
        inputs.push(b0);
        for _ in 1..n_in {
            inputs.push((next() % 2) as f64);
        }
        inputs.push(1.0); // bias
        targets.push(if b0 == 1.0 { 0 } else { 1 });
    }
    EncodedDataset::from_parts(inputs, cols, targets, 2)
}

fn quick_config() -> PruneConfig {
    PruneConfig {
        retrain: Trainer::new(TrainingAlgorithm::Bfgs(
            Bfgs::default().with_max_iters(40).with_grad_tol(1e-4),
        )),
        ..PruneConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn strict_mode_respects_the_papers_invariants(
        (rows, n_in, hidden, seed) in (30usize..70, 2usize..5, 2usize..5, 0u64..1000)
    ) {
        let data = synthetic(rows, n_in, seed);
        let mut net = Mlp::random(n_in + 1, hidden, 2, seed);
        let report = Trainer::default().train(&mut net, &data);
        // Only meaningful when training put the net above the floor.
        prop_assert!(report.accuracy >= 0.9, "fixture untrainable: {report:?}");

        let outcome = prune(&mut net, &data, &quick_config());

        // Floor never violated, in the trace or at the end.
        for round in &outcome.trace {
            prop_assert!(round.accuracy >= 0.9, "floor violated: {round:?}");
        }
        prop_assert!(outcome.final_accuracy >= 0.9, "{outcome:?}");
        prop_assert_eq!(outcome.final_accuracy, net.accuracy(&data));

        // links_left strictly decreasing.
        let mut last = outcome.initial_links;
        for round in &outcome.trace {
            prop_assert!(round.links_left < last, "{outcome:?}");
            last = round.links_left;
        }
    }
}

#[test]
fn strict_mode_replays_bit_identically() {
    let data = synthetic(60, 3, 77);
    let run = || {
        let mut net = Mlp::random(4, 4, 2, 9);
        Trainer::default().train(&mut net, &data);
        let outcome = prune(&mut net, &data, &quick_config());
        (net, outcome)
    };
    let (net_a, outcome_a) = run();
    let (net_b, outcome_b) = run();
    assert_eq!(net_a, net_b);
    assert_eq!(outcome_a, outcome_b);
}
