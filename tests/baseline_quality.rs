//! Quality gates on the C4.5 baseline across the paper's functions, plus
//! the Table-3-style per-rule evaluation machinery.

use nr_datagen::{Function, Generator};
use nr_rules::{evaluate_rules, ConfusionMatrix};
use nr_tabular::{Dataset, DatasetView};
use nr_tree::{to_rules, DecisionTree, TreeConfig};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Each class's rows, shuffled by `rng`.
fn shuffled_classes(ds: &Dataset, rng: &mut rand::rngs::StdRng) -> Vec<Vec<usize>> {
    (0..ds.n_classes())
        .map(|class| {
            let mut members: Vec<usize> = (0..ds.len()).filter(|&i| ds.label(i) == class).collect();
            members.shuffle(rng);
            members
        })
        .collect()
}

/// Splits `ds` into `(head, tail)` views with `head_fraction` of every
/// class in the head (stratified), deterministically for a seed.
fn stratified_split(
    ds: &Dataset,
    head_fraction: f64,
    seed: u64,
) -> (DatasetView<'_>, DatasetView<'_>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (mut head, mut tail) = (Vec::new(), Vec::new());
    for members in shuffled_classes(ds, &mut rng) {
        let cut = (members.len() as f64 * head_fraction).round() as usize;
        head.extend_from_slice(&members[..cut]);
        tail.extend_from_slice(&members[cut..]);
    }
    head.sort_unstable();
    tail.sort_unstable();
    (ds.view_of(head), ds.view_of(tail))
}

/// `k` stratified `(train, validation)` view pairs: each class's shuffled
/// rows are dealt round-robin to the folds.
fn stratified_kfold(ds: &Dataset, k: usize, seed: u64) -> Vec<(DatasetView<'_>, DatasetView<'_>)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut fold_of = vec![0; ds.len()];
    for members in shuffled_classes(ds, &mut rng) {
        for (j, &row) in members.iter().enumerate() {
            fold_of[row] = j % k;
        }
    }
    (0..k)
        .map(|fold| {
            let rows = |keep: bool| {
                (0..ds.len())
                    .filter(|&i| (fold_of[i] == fold) == keep)
                    .collect()
            };
            (ds.view_of(rows(false)), ds.view_of(rows(true)))
        })
        .collect()
}

/// C4.5 must clear sensible accuracy floors on every evaluated function —
/// the paper's table has it in the 89–100% band.
#[test]
fn c45_accuracy_bands_across_functions() {
    let gen = Generator::new(42).with_perturbation(0.05);
    for f in Function::evaluated() {
        // Paper-sized training sets (§4 trains on 1000 tuples); 800 leaves
        // too much draw-to-draw variance on the noisier functions.
        let (train, test) = gen.train_test(f, 1000, 800);
        let tree = DecisionTree::fit(&train, &TreeConfig::default());
        let train_acc = tree.accuracy(&train);
        let test_acc = tree.accuracy(&test);
        assert!(train_acc >= 0.9, "{f}: train {train_acc}");
        assert!(test_acc >= 0.82, "{f}: test {test_acc}");
    }
}

#[test]
fn c45_rules_stay_close_to_tree_across_functions() {
    let gen = Generator::new(7).with_perturbation(0.05);
    for f in [Function::F1, Function::F2, Function::F4, Function::F7] {
        let (train, test) = gen.train_test(f, 600, 600);
        let tree = DecisionTree::fit(&train, &TreeConfig::default());
        let rules = to_rules(&tree, &train);
        assert!(
            rules.accuracy(&test) >= tree.accuracy(&test) - 0.12,
            "{f}: rules {} vs tree {}",
            rules.accuracy(&test),
            tree.accuracy(&test)
        );
    }
}

/// The per-rule statistics of Table 3: totals grow with test-set size while
/// correct% stays roughly stable (rules are deterministic).
#[test]
fn per_rule_stats_scale_with_test_size() {
    let gen = Generator::new(42).with_perturbation(0.05);
    let train = gen.dataset(Function::F2, 600);
    let tree = DecisionTree::fit(&train, &TreeConfig::default());
    let rules = to_rules(&tree, &train);

    let small = gen.train_test(Function::F2, 1, 500).1;
    let large = gen.train_test(Function::F2, 1, 5000).1;
    let stats_small = evaluate_rules(&rules, &small);
    let stats_large = evaluate_rules(&rules, &large);
    assert_eq!(stats_small.len(), rules.len());

    let total_small: usize = stats_small.iter().map(|s| s.total).sum();
    let total_large: usize = stats_large.iter().map(|s| s.total).sum();
    // 10x the data: matched counts must grow by roughly 10x overall.
    assert!(
        total_large > 6 * total_small,
        "totals must scale: {total_small} -> {total_large}"
    );
}

#[test]
fn confusion_matrix_consistent_with_accuracy() {
    let gen = Generator::new(11).with_perturbation(0.05);
    let (train, test) = gen.train_test(Function::F3, 500, 500);
    let tree = DecisionTree::fit(&train, &TreeConfig::default());
    let m = ConfusionMatrix::compute(&test, |d, i| tree.predict_row(d, i));
    assert!((m.accuracy() - tree.accuracy(&test)).abs() < 1e-12);
    assert_eq!(m.total(), test.len());
    // Precision/recall stay within [0,1].
    for c in 0..2 {
        assert!((0.0..=1.0).contains(&m.precision(c)));
        assert!((0.0..=1.0).contains(&m.recall(c)));
        assert!((0.0..=1.0).contains(&m.f1(c)));
    }
}

#[test]
fn cross_validation_estimates_generalization() {
    let gen = Generator::new(5).with_perturbation(0.05);
    let ds = gen.dataset(Function::F1, 600);
    let folds = stratified_kfold(&ds, 5, 42);
    let mut accs = Vec::new();
    for (train, val) in folds {
        // Folds are zero-copy views; induction and scoring run on them
        // directly, no materialization.
        let tree = DecisionTree::fit_view(&train, &TreeConfig::default());
        accs.push(tree.accuracy_view(&val));
    }
    let mean = accs.iter().sum::<f64>() / accs.len() as f64;
    assert!(mean > 0.9, "cv mean accuracy {mean}");
    // Folds should not vary wildly on an easy function.
    for a in &accs {
        assert!((a - mean).abs() < 0.1, "fold {a} vs mean {mean}");
    }
}

#[test]
fn stratified_split_keeps_tree_quality() {
    let gen = Generator::new(13).with_perturbation(0.05);
    let ds = gen.dataset(Function::F3, 800);
    let (train, test) = stratified_split(&ds, 0.75, 9);
    let tree = DecisionTree::fit_view(&train, &TreeConfig::default());
    assert!(tree.accuracy_view(&test) > 0.9);
    // Ratios preserved within a couple of rows.
    let full = ds.class_distribution();
    let tr = train.class_distribution();
    for c in 0..2 {
        let expected = full[c] as f64 * 0.75;
        assert!((tr[c] as f64 - expected).abs() <= 2.0);
    }
}
