//! Consistency checks that span crates: generated rows encode within the
//! encoder's feasible space, rules evaluate identically across
//! representations, and the C4.5 baseline interoperates with the shared
//! rule model.

use nr_datagen::{class_names, Function, Generator};
use nr_encode::{enumerate_feasible, Encoder};
use nr_tree::{to_rules, DecisionTree, TreeConfig};

#[test]
fn every_generated_row_encodes_within_the_feasible_space() {
    let enc = Encoder::agrawal();
    let ds = Generator::new(3)
        .with_perturbation(0.05)
        .dataset(Function::F5, 300);
    // Check a representative subset of bits covering all coding kinds:
    // salary (thermometer), commission (absent-able), age, elevel,
    // car/zipcode (one-hot), bias.
    let bits = [0usize, 3, 6, 12, 16, 20, 25, 45, 86];
    let space = enumerate_feasible(&enc, &bits, 100_000).expect("space fits");
    // Encode the whole dataset on the batch path — no row materialization.
    let encoded = enc.encode_dataset(&ds);
    for i in 0..encoded.rows() {
        let x = encoded.row_bits(i);
        let pattern: Vec<bool> = space
            .bits
            .iter()
            .map(|&b| x.contains(&(b as u32)))
            .collect();
        assert!(
            space.patterns.contains(&pattern),
            "encoded row produced an infeasible pattern {pattern:?}"
        );
    }
}

#[test]
fn encoded_bits_are_binary_and_bias_is_one() {
    let enc = Encoder::agrawal();
    let ds = Generator::new(5).dataset(Function::F9, 200);
    let encoded = enc.encode_dataset(&ds);
    for i in 0..encoded.rows() {
        // The per-row encoding is 0/1 with the bias set, and the batch
        // encoding sets exactly its ones.
        let x = enc.encode_row(&ds.row_values(i));
        assert!(x.iter().all(|&b| b == 0.0 || b == 1.0));
        assert_eq!(x[enc.bias_bit()], 1.0);
        let ones: Vec<u32> = (0..x.len() as u32)
            .filter(|&c| x[c as usize] == 1.0)
            .collect();
        assert_eq!(encoded.row_bits(i), &ones[..], "row {i}");
    }
}

#[test]
fn c45_rules_use_the_shared_representation() {
    let gen = Generator::new(11).with_perturbation(0.05);
    let (train, test) = gen.train_test(Function::F3, 500, 500);
    let tree = DecisionTree::fit(&train, &TreeConfig::default());
    let rules = to_rules(&tree, &train);
    // The rule set must be usable by the generic evaluator and stay close
    // to the tree it came from.
    let stats = nr_rules::evaluate_rules(&rules, &test);
    assert_eq!(stats.len(), rules.len());
    assert!(rules.accuracy(&test) > tree.accuracy(&test) - 0.12);
}

#[test]
fn class_names_consistent_between_crates() {
    let ds = Generator::new(1).dataset(Function::F1, 10);
    assert_eq!(ds.class_names(), &class_names()[..]);
    assert_eq!(ds.n_classes(), 2);
}

#[test]
fn labels_are_assigned_before_perturbation() {
    // With perturbation off, classify(person) == label for every tuple; the
    // perturbed dataset must keep the *pre-perturbation* labels (that's what
    // makes the problem noisy). We verify the two generators share draws.
    let clean = Generator::new(77).dataset(Function::F2, 200);
    let noisy = Generator::new(77)
        .with_perturbation(0.05)
        .dataset(Function::F2, 200);
    assert_eq!(
        clean.labels(),
        noisy.labels(),
        "labels must not depend on perturbation"
    );
    assert_ne!(clean, noisy, "rows must differ under perturbation");
}
