//! Batch-path guarantees: the batched forward/classify/objective kernels
//! are *bit-identical* to the per-row reference paths (including with
//! pruned links and the set-bit input layout), and the objective gives the
//! per-row reference's bits, summed chunk by chunk, however many threads
//! evaluate at once.

use nr_encode::EncodedDataset;
use nr_nn::{CrossEntropyObjective, LinkId, Mlp, Penalty};
use nr_opt::Objective;
use proptest::prelude::*;

/// Builds a network with the given weights written over every link, then
/// prunes the links selected by `prune_picks` (values `0` prune).
fn build_net(
    n_in: usize,
    n_hidden: usize,
    n_out: usize,
    weights: &[f64],
    prune_picks: &[usize],
) -> Mlp {
    let mut net = Mlp::random(n_in, n_hidden, n_out, 0);
    net.set_active(weights);
    let links = net.active_links();
    let mut pruned = 0;
    for (&link, &pick) in links.iter().zip(prune_picks) {
        // Keep at least one link so the network stays non-degenerate.
        if pick == 0 && pruned + 1 < links.len() {
            net.prune(link);
            pruned += 1;
        }
    }
    net
}

/// Strictly-0/1 row-major input matrix from per-cell picks.
fn build_inputs(picks: &[usize]) -> Vec<f64> {
    picks
        .iter()
        .map(|&p| if p == 0 { 1.0 } else { 0.0 })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `forward_batch` equals per-row `forward` bit for bit, pruned links
    /// and all.
    #[test]
    fn forward_batch_matches_per_row(
        (dims, weights, prune_picks, input_picks) in (1usize..8, 1usize..6, 1usize..5, 1usize..12)
            .prop_flat_map(|(n_in, h, o, rows)| {
                let links = h * (n_in + o);
                (
                    (n_in..n_in + 1, h..h + 1, o..o + 1, rows..rows + 1),
                    proptest::collection::vec(-3.0f64..3.0, links),
                    proptest::collection::vec(0usize..4, links),
                    proptest::collection::vec(0usize..3, rows * n_in),
                )
            })
    ) {
        let (n_in, h, o, rows) = dims;
        let net = build_net(n_in, h, o, &weights, &prune_picks);
        let x = build_inputs(&input_picks);
        let data = EncodedDataset::from_parts(x.clone(), n_in, vec![0; rows], 1);
        let (hidden_b, out_b) = net.forward_batch(&data);
        for i in 0..rows {
            let (hidden, out) = net.forward(&x[i * n_in..(i + 1) * n_in]);
            prop_assert_eq!(hidden_b.row(i), &hidden[..], "hidden row {} differs", i);
            prop_assert_eq!(out_b.row(i), &out[..], "output row {} differs", i);
        }
    }

    /// `classify_batch` and `accuracy` equal their per-row counterparts.
    #[test]
    fn classify_batch_matches_per_row(
        (dims, weights, prune_picks, input_picks, target_picks) in
            (1usize..8, 1usize..6, 1usize..5, 1usize..12)
            .prop_flat_map(|(n_in, h, o, rows)| {
                let links = h * (n_in + o);
                (
                    (n_in..n_in + 1, h..h + 1, o..o + 1, rows..rows + 1),
                    proptest::collection::vec(-3.0f64..3.0, links),
                    proptest::collection::vec(0usize..4, links),
                    proptest::collection::vec(0usize..3, rows * n_in),
                    proptest::collection::vec(0usize..100, rows),
                )
            })
    ) {
        let (n_in, h, o, rows) = dims;
        let net = build_net(n_in, h, o, &weights, &prune_picks);
        let x = build_inputs(&input_picks);
        let targets: Vec<usize> = target_picks.iter().map(|&t| t % o).collect();
        let data = EncodedDataset::from_parts(x.clone(), n_in, targets.clone(), o);

        let batch_preds = net.classify_batch(&data);
        let mut correct = 0usize;
        for i in 0..rows {
            let per_row = net.classify(&x[i * n_in..(i + 1) * n_in]);
            prop_assert_eq!(batch_preds[i], per_row, "row {} classified differently", i);
            if per_row == targets[i] {
                correct += 1;
            }
        }
        let want_acc = correct as f64 / rows as f64;
        prop_assert_eq!(net.accuracy(&data), want_acc);
    }
}

/// Per-row reference implementation of eq. 2 + eq. 3 (the pre-batch code
/// path) over the dense row-major inputs `x` of `data`, for pinning the
/// batched objective.
fn reference_objective(
    net: &Mlp,
    x: &[f64],
    data: &EncodedDataset,
    penalty: Penalty,
) -> (f64, Vec<f64>) {
    const EPS: f64 = 1e-12;
    let (h, o) = (net.n_hidden(), net.n_outputs());
    let links = net.active_links();
    let mut dw = vec![0.0; h * net.n_inputs()];
    let mut dv = vec![0.0; o * h];
    let mut loss = 0.0;
    let n_in = net.n_inputs();
    for i in 0..data.rows() {
        let row = &x[i * n_in..(i + 1) * n_in];
        let (hidden, out) = net.forward(row);
        let target = data.target(i);
        let mut delta = vec![0.0; o];
        for (p, (&s, d)) in out.iter().zip(delta.iter_mut()).enumerate() {
            let tph = if p == target { 1.0 } else { 0.0 };
            let sc = s.clamp(EPS, 1.0 - EPS);
            loss -= tph * sc.ln() + (1.0 - tph) * (1.0 - sc).ln();
            *d = s - tph;
        }
        for (p, &d) in delta.iter().enumerate() {
            for (m, &a) in hidden.iter().enumerate() {
                dv[p * h + m] += d * a;
            }
        }
        for m in 0..h {
            let mut back = 0.0;
            for (p, &d) in delta.iter().enumerate() {
                back += d * net.v()[(p, m)];
            }
            let dz = (1.0 - hidden[m] * hidden[m]) * back;
            if dz != 0.0 {
                for (l, &xi) in row.iter().enumerate() {
                    if xi != 0.0 {
                        dw[m * net.n_inputs() + l] += dz * xi;
                    }
                }
            }
        }
    }
    let mut grad = Vec::with_capacity(links.len());
    let params: Vec<f64> = links.iter().map(|&l| net.weight(l)).collect();
    for (&link, &p) in links.iter().zip(&params) {
        loss += penalty.value(p);
        let data_grad = match link {
            LinkId::InputHidden { hidden, input } => dw[hidden * net.n_inputs() + input],
            LinkId::HiddenOutput { output, hidden } => dv[output * h + hidden],
        };
        grad.push(data_grad + penalty.derivative(p));
    }
    (loss, grad)
}

/// [`reference_objective`] grouped as the objective groups its sums: the
/// per-row reference without the penalty over each fixed 1,024-row chunk,
/// the chunks' losses and gradients summed in chunk order from `0.0`, then
/// the penalty.
fn chunked_reference(
    net: &Mlp,
    x: &[f64],
    data: &EncodedDataset,
    penalty: Penalty,
) -> (f64, Vec<f64>) {
    const CHUNK_ROWS: usize = 1024;
    let n_in = net.n_inputs();
    let targets: Vec<usize> = (0..data.rows()).map(|i| data.target(i)).collect();
    let mut loss = 0.0;
    let mut grad = vec![0.0; net.n_active()];
    for start in (0..data.rows()).step_by(CHUNK_ROWS) {
        let end = data.rows().min(start + CHUNK_ROWS);
        let rows = &x[start * n_in..end * n_in];
        let chunk = EncodedDataset::from_parts(
            rows.to_vec(),
            n_in,
            targets[start..end].to_vec(),
            data.n_classes(),
        );
        let (chunk_loss, chunk_grad) = reference_objective(net, rows, &chunk, Penalty::none());
        loss += chunk_loss;
        for (g, c) in grad.iter_mut().zip(chunk_grad) {
            *g += c;
        }
    }
    for (g, p) in grad.iter_mut().zip(net.flatten_active()) {
        loss += penalty.value(p);
        *g += penalty.derivative(p);
    }
    (loss, grad)
}

/// The bits of each value.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Runs `evaluate` on `threads` threads at once: one of them at a time
/// splits its chunks with the pool's session worker, the others run both
/// halves themselves or take theirs back.
fn on_threads(threads: usize, evaluate: impl Fn() + Sync) {
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(&evaluate);
        }
    });
}

/// Deterministic 0/1 dataset large enough to span several 1024-row chunks,
/// with its dense row-major inputs.
fn synthetic_data(rows: usize, cols: usize, classes: usize) -> (Vec<f64>, EncodedDataset) {
    let mut data = vec![0.0; rows * cols];
    let mut targets = Vec::with_capacity(rows);
    for i in 0..rows {
        for c in 0..cols {
            if (i * 31 + c * 17 + (i * c) % 5) % 3 == 0 {
                data[i * cols + c] = 1.0;
            }
        }
        data[i * cols + cols - 1] = 1.0; // bias column
        targets.push((i * 13 + i / 7) % classes);
    }
    (
        data.clone(),
        EncodedDataset::from_parts(data, cols, targets, classes),
    )
}

/// Within one chunk the batched objective reproduces the per-row reference
/// bit for bit (the kernels preserve accumulation order exactly).
#[test]
fn objective_bit_identical_to_reference_within_one_chunk() {
    let (x_rows, data) = synthetic_data(300, 12, 2); // single 1024-row chunk
    let mut net = Mlp::random(12, 4, 2, 99);
    net.prune(LinkId::InputHidden {
        hidden: 1,
        input: 3,
    });
    net.prune(LinkId::HiddenOutput {
        output: 0,
        hidden: 2,
    });
    let obj = CrossEntropyObjective::new(&net, &data, Penalty::default());
    let x = net.flatten_active();
    let mut grad = vec![0.0; obj.dim()];
    let loss = obj.value_and_gradient(&x, &mut grad);
    let (want_loss, want_grad) = reference_objective(&net, &x_rows, &data, Penalty::default());
    assert_eq!(loss, want_loss, "loss bits differ");
    assert_eq!(grad, want_grad, "gradient bits differ");
}

/// Across chunks only the reduction grouping changes: the objective gives
/// the bits of the per-row reference summed chunk by chunk.
#[test]
fn objective_matches_reference_across_chunks() {
    let (x_rows, data) = synthetic_data(3000, 12, 3); // three chunks
    let net = Mlp::random(12, 5, 3, 7);
    let obj = CrossEntropyObjective::new(&net, &data, Penalty::default());
    let x = net.flatten_active();
    let mut grad = vec![0.0; obj.dim()];
    let loss = obj.value_and_gradient(&x, &mut grad);
    let (want_loss, want_grad) = chunked_reference(&net, &x_rows, &data, Penalty::default());
    assert_eq!(loss.to_bits(), want_loss.to_bits(), "{loss} vs {want_loss}");
    assert_eq!(bits(&grad), bits(&want_grad), "{grad:?} vs {want_grad:?}");
}

/// The objective is bit-deterministic however many threads evaluate at
/// once: over five chunks, 1, 2 and 8 concurrent evaluations each give
/// the chunked reference's value and gradient down to the last bit.
#[test]
fn parallel_gradient_deterministic_across_thread_counts() {
    let (x_rows, data) = synthetic_data(5000, 16, 2); // five chunks
    let mut net = Mlp::random(16, 5, 2, 21);
    net.prune(LinkId::InputHidden {
        hidden: 0,
        input: 5,
    });
    let x = net.flatten_active();
    let (want_loss, want_grad) = chunked_reference(&net, &x_rows, &data, Penalty::default());

    for threads in [1usize, 2, 8] {
        on_threads(threads, || {
            let obj = CrossEntropyObjective::new(&net, &data, Penalty::default());
            let mut grad = vec![0.0; obj.dim()];
            let loss = obj.value_and_gradient(&x, &mut grad);
            assert_eq!(loss.to_bits(), want_loss.to_bits(), "{threads} threads");
            assert_eq!(obj.value(&x).to_bits(), want_loss.to_bits(), "value-only");
            assert_eq!(bits(&grad), bits(&want_grad), "{threads} threads");
        });
    }
}

/// Builds a network with the given weights written over every link, then
/// prunes each link whose `pick` (0..100) falls below `prune_pct`, except
/// where hidden unit `m`'s `shapes[m]` forces its shape: `1` = no inputs,
/// `2` = every input, `3` = no outputs (`0` = as drawn).
fn heavy_mask_net(
    (n_in, h, o): (usize, usize, usize),
    weights: &[f64],
    picks: &[u8],
    prune_pct: u8,
    shapes: &[usize],
) -> Mlp {
    let mut net = Mlp::random(n_in, h, o, 0);
    net.set_active(weights);
    for (link, &pick) in net.active_links().into_iter().zip(picks) {
        let (m, input_side) = match link {
            LinkId::InputHidden { hidden, .. } => (hidden, true),
            LinkId::HiddenOutput { hidden, .. } => (hidden, false),
        };
        let drop = match (shapes[m], input_side) {
            (1, true) | (3, false) => true,
            (2, true) => false,
            _ => pick < prune_pct,
        };
        if drop {
            net.prune(link);
        }
    }
    net
}

/// Dense 0/1 rows from per-cell picks, the last column set (a bias).
fn rows_with_bias(picks: &[usize], n_in: usize) -> Vec<f64> {
    let mut x = build_inputs(picks);
    for row in x.chunks_exact_mut(n_in) {
        row[n_in - 1] = 1.0;
    }
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under masks that prune 0–95% of the links, with hidden units that
    /// have no inputs, every input or no outputs, with up to 139 inputs
    /// (a unit's active inputs span up to three 64-bit pattern words), and
    /// with one output per class or one extra output (rulex's
    /// subnetworks), the objective's value and gradient equal the per-row
    /// reference bit for bit within one chunk.
    #[test]
    fn heavy_mask_objective_bit_identical_to_reference(
        (dims, weights, picks, prune_pct, shapes, input_picks, target_picks) in
            (2usize..140, 1usize..6, 2usize..4, 0usize..2, 1usize..80)
            .prop_flat_map(|(n_in, h, classes, extra, rows)| {
                let o = classes + extra;
                let links = h * (n_in + o);
                (
                    (n_in..n_in + 1, h..h + 1, classes..classes + 1, o..o + 1, rows..rows + 1),
                    proptest::collection::vec(-3.0f64..3.0, links),
                    proptest::collection::vec(0u8..100, links),
                    0u8..96,
                    proptest::collection::vec(0usize..4, h),
                    proptest::collection::vec(0usize..3, rows * n_in),
                    proptest::collection::vec(0usize..100, rows),
                )
            })
    ) {
        let (n_in, h, classes, o, _) = dims;
        let net = heavy_mask_net((n_in, h, o), &weights, &picks, prune_pct, &shapes);
        let x_rows = rows_with_bias(&input_picks, n_in);
        let targets: Vec<usize> = target_picks.iter().map(|&t| t % classes).collect();
        let data = EncodedDataset::from_parts(x_rows.clone(), n_in, targets, classes);

        let obj = CrossEntropyObjective::new(&net, &data, Penalty::default());
        let x = net.flatten_active();
        let mut grad = vec![0.0; obj.dim()];
        let loss = obj.value_and_gradient(&x, &mut grad);
        let (want_loss, want_grad) = reference_objective(&net, &x_rows, &data, Penalty::default());
        prop_assert_eq!(loss.to_bits(), want_loss.to_bits(), "loss {} vs {}", loss, want_loss);
        prop_assert_eq!(obj.value(&x).to_bits(), want_loss.to_bits(), "value-only loss");
        let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&grad), bits(&want_grad), "gradient {:?} vs {:?}", grad, want_grad);
    }
}

/// A heavily pruned network over five chunks (one hidden unit fed by
/// every input, one by none, one feeding no output, the rest sparse) gives
/// the chunked reference's value and gradient bits with 1, 2 and 8
/// threads evaluating at once.
#[test]
fn heavy_mask_objective_deterministic_across_thread_counts() {
    let (n_in, h, o) = (20, 6, 3);
    let (x_rows, data) = synthetic_data(4500, n_in, 3); // five chunks
    let links = h * (n_in + o);
    let weights: Vec<f64> = (0..links)
        .map(|k| ((k * 37 % 101) as f64 - 50.0) / 17.0)
        .collect();
    let picks: Vec<u8> = (0..links).map(|k| (k * 61 % 100) as u8).collect();
    let shapes = [2, 1, 3, 0, 0, 0];
    let net = heavy_mask_net((n_in, h, o), &weights, &picks, 85, &shapes);
    assert!(
        net.n_active() < links / 2,
        "mask too light: {}",
        net.n_active()
    );
    let x = net.flatten_active();
    let (want_loss, want_grad) = chunked_reference(&net, &x_rows, &data, Penalty::default());

    for threads in [1usize, 2, 8] {
        on_threads(threads, || {
            let obj = CrossEntropyObjective::new(&net, &data, Penalty::default());
            let mut grad = vec![0.0; obj.dim()];
            let loss = obj.value_and_gradient(&x, &mut grad);
            assert_eq!(loss.to_bits(), want_loss.to_bits(), "{threads} threads");
            assert_eq!(obj.value(&x).to_bits(), want_loss.to_bits(), "value-only");
            assert_eq!(bits(&grad), bits(&want_grad), "{threads} threads");
        });
    }
}

/// The single-chunk variant: 1,000 rows, the paper-scale training set
/// size. With 1, 2 and 8 threads evaluating at once, every evaluation
/// gives the per-row reference's bits exactly.
#[test]
fn heavy_mask_single_chunk_objective_deterministic_across_thread_counts() {
    let (n_in, h, o) = (20, 6, 3);
    let (x_rows, data) = synthetic_data(1000, n_in, 3); // one chunk
    let links = h * (n_in + o);
    let weights: Vec<f64> = (0..links)
        .map(|k| ((k * 37 % 101) as f64 - 50.0) / 17.0)
        .collect();
    let picks: Vec<u8> = (0..links).map(|k| (k * 61 % 100) as u8).collect();
    let shapes = [2, 1, 3, 0, 0, 0];
    let net = heavy_mask_net((n_in, h, o), &weights, &picks, 85, &shapes);
    let x = net.flatten_active();
    let (want_loss, want_grad) = reference_objective(&net, &x_rows, &data, Penalty::default());

    for threads in [1usize, 2, 8] {
        on_threads(threads, || {
            let obj = CrossEntropyObjective::new(&net, &data, Penalty::default());
            // Repeated, so later evaluations find the session worker live.
            for _ in 0..20 {
                let mut grad = vec![0.0; obj.dim()];
                let loss = obj.value_and_gradient(&x, &mut grad);
                assert_eq!(loss.to_bits(), want_loss.to_bits(), "{threads} threads");
                assert_eq!(obj.value(&x).to_bits(), want_loss.to_bits(), "value-only");
                assert_eq!(bits(&grad), bits(&want_grad), "{threads} threads");
            }
        });
    }
}

/// Four threads evaluating single-chunk objectives at once (one of them at
/// most holds the session worker; the others run inline or take their
/// halves back) all get the per-row reference's bits.
#[test]
fn concurrent_single_chunk_evaluations_agree() {
    let (n_in, h, o) = (20, 6, 3);
    let (x_rows, data) = synthetic_data(1000, n_in, 3);
    let links = h * (n_in + o);
    let weights: Vec<f64> = (0..links)
        .map(|k| ((k * 53 % 97) as f64 - 48.0) / 19.0)
        .collect();
    let picks: Vec<u8> = (0..links).map(|k| (k * 29 % 100) as u8).collect();
    let net = heavy_mask_net((n_in, h, o), &weights, &picks, 60, &[2, 0, 0, 1, 0, 0]);
    let x = net.flatten_active();
    let (want_loss, want_grad) = reference_objective(&net, &x_rows, &data, Penalty::default());

    on_threads(4, || {
        let obj = CrossEntropyObjective::new(&net, &data, Penalty::default());
        for _ in 0..50 {
            let mut grad = vec![0.0; obj.dim()];
            let loss = obj.value_and_gradient(&x, &mut grad);
            assert_eq!(loss.to_bits(), want_loss.to_bits());
            assert_eq!(bits(&grad), bits(&want_grad));
        }
    });
}
