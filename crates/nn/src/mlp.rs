//! The three-layer network with prunable links.

use std::ops::Range;

use nr_encode::EncodedDataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::{Activation, Matrix};

/// Identifies one link (weight) of the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkId {
    /// Input→hidden weight `w^m_ℓ` (paper notation: hidden node `m`, input `ℓ`).
    InputHidden {
        /// Hidden node index.
        hidden: usize,
        /// Input node index.
        input: usize,
    },
    /// Hidden→output weight `v^m_p` (output node `p`, hidden node `m`).
    HiddenOutput {
        /// Output node index.
        output: usize,
        /// Hidden node index.
        hidden: usize,
    },
}

/// A three-layer feedforward network: tanh hidden layer, sigmoid output
/// layer, and a boolean mask per link.
///
/// Invariant: a masked (pruned) link always stores weight `0.0`, so the
/// forward pass never needs to consult the masks.
///
/// Bias handling follows the paper: the *encoder* appends an always-one
/// input (I87), so hidden thresholds are ordinary input→hidden weights and
/// output nodes have no threshold (eq. for `S_p` in §2.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    n_in: usize,
    n_hidden: usize,
    n_out: usize,
    w: Matrix,
    w_mask: Vec<bool>,
    v: Matrix,
    v_mask: Vec<bool>,
}

impl Mlp {
    /// Fully-connected network with weights drawn uniformly from [−1, 1]
    /// (the paper's initialization).
    pub fn random(n_in: usize, n_hidden: usize, n_out: usize, seed: u64) -> Self {
        assert!(n_in > 0 && n_hidden > 0 && n_out > 0, "degenerate topology");
        let mut rng = StdRng::seed_from_u64(seed);
        let w = Matrix::from_fn(n_hidden, n_in, |_, _| rng.gen_range(-1.0..=1.0));
        let v = Matrix::from_fn(n_out, n_hidden, |_, _| rng.gen_range(-1.0..=1.0));
        Mlp {
            n_in,
            n_hidden,
            n_out,
            w,
            w_mask: vec![true; n_hidden * n_in],
            v,
            v_mask: vec![true; n_out * n_hidden],
        }
    }

    /// Checks that the weight matrices and link masks have the shapes
    /// the node counts give (`n_hidden × n_in` and `n_out × n_hidden`).
    /// Every constructor guarantees it; a deserialized network may not,
    /// and a forward pass over one that fails this panics.
    pub fn validate(&self) -> Result<(), String> {
        let layers = [
            (
                "input-hidden",
                &self.w,
                &self.w_mask,
                self.n_hidden,
                self.n_in,
            ),
            (
                "hidden-output",
                &self.v,
                &self.v_mask,
                self.n_out,
                self.n_hidden,
            ),
        ];
        for (name, m, mask, rows, cols) in layers {
            let len = rows.checked_mul(cols);
            let (values, bits) = (Some(m.as_slice().len()), Some(mask.len()));
            if (m.rows(), m.cols()) != (rows, cols) || values != len || bits != len {
                return Err(format!(
                    "{name} weights are {}x{} with {} values and {} mask bits \
                     for {rows}x{cols} links",
                    m.rows(),
                    m.cols(),
                    m.as_slice().len(),
                    mask.len()
                ));
            }
        }
        Ok(())
    }

    /// Number of input nodes (including the encoder's bias input).
    pub fn n_inputs(&self) -> usize {
        self.n_in
    }

    /// Number of hidden nodes (including dead ones: no active input or
    /// output link).
    pub fn n_hidden(&self) -> usize {
        self.n_hidden
    }

    /// Number of output nodes (= number of classes).
    pub fn n_outputs(&self) -> usize {
        self.n_out
    }

    /// The input→hidden weight matrix (`n_hidden × n_in`).
    pub fn w(&self) -> &Matrix {
        &self.w
    }

    /// The hidden→output weight matrix (`n_out × n_hidden`).
    pub fn v(&self) -> &Matrix {
        &self.v
    }

    /// Weight of a link (0 when pruned).
    pub fn weight(&self, link: LinkId) -> f64 {
        match link {
            LinkId::InputHidden { hidden, input } => self.w[(hidden, input)],
            LinkId::HiddenOutput { output, hidden } => self.v[(output, hidden)],
        }
    }

    /// Sets a link weight (panics when the link is pruned).
    pub fn set_weight(&mut self, link: LinkId, value: f64) {
        assert!(
            self.is_active(link),
            "cannot set weight of pruned link {link:?}"
        );
        match link {
            LinkId::InputHidden { hidden, input } => self.w[(hidden, input)] = value,
            LinkId::HiddenOutput { output, hidden } => self.v[(output, hidden)] = value,
        }
    }

    /// Whether the link is still present.
    pub fn is_active(&self, link: LinkId) -> bool {
        match link {
            LinkId::InputHidden { hidden, input } => self.w_mask[hidden * self.n_in + input],
            LinkId::HiddenOutput { output, hidden } => self.v_mask[output * self.n_hidden + hidden],
        }
    }

    /// Removes a link: masks it and zeroes its weight.
    pub fn prune(&mut self, link: LinkId) {
        match link {
            LinkId::InputHidden { hidden, input } => {
                self.w_mask[hidden * self.n_in + input] = false;
                self.w[(hidden, input)] = 0.0;
            }
            LinkId::HiddenOutput { output, hidden } => {
                self.v_mask[output * self.n_hidden + hidden] = false;
                self.v[(output, hidden)] = 0.0;
            }
        }
    }

    /// Total number of links (active or not): `h(n + m)` as in §2.2.
    pub(crate) fn n_links(&self) -> usize {
        self.n_hidden * (self.n_in + self.n_out)
    }

    /// Number of active (unpruned) links.
    pub fn n_active(&self) -> usize {
        self.w_mask.iter().filter(|&&b| b).count() + self.v_mask.iter().filter(|&&b| b).count()
    }

    /// Active links in canonical order (all `w` row-major, then all `v`).
    pub fn active_links(&self) -> Vec<LinkId> {
        let mut out = Vec::with_capacity(self.n_active());
        for m in 0..self.n_hidden {
            for l in 0..self.n_in {
                if self.w_mask[m * self.n_in + l] {
                    out.push(LinkId::InputHidden {
                        hidden: m,
                        input: l,
                    });
                }
            }
        }
        for p in 0..self.n_out {
            for m in 0..self.n_hidden {
                if self.v_mask[p * self.n_hidden + m] {
                    out.push(LinkId::HiddenOutput {
                        output: p,
                        hidden: m,
                    });
                }
            }
        }
        out
    }

    /// Copies the active weights into a flat vector (canonical order).
    pub fn flatten_active(&self) -> Vec<f64> {
        self.active_links()
            .iter()
            .map(|&l| self.weight(l))
            .collect()
    }

    /// Writes a flat vector of active weights back (canonical order).
    pub fn set_active(&mut self, params: &[f64]) {
        let links = self.active_links();
        assert_eq!(params.len(), links.len(), "parameter count mismatch");
        for (&link, &p) in links.iter().zip(params) {
            self.set_weight(link, p);
        }
    }

    /// Active input indices feeding hidden node `m`.
    pub fn hidden_inputs(&self, m: usize) -> Vec<usize> {
        (0..self.n_in)
            .filter(|&l| self.w_mask[m * self.n_in + l])
            .collect()
    }

    /// Active output indices fed by hidden node `m`.
    pub fn hidden_outputs(&self, m: usize) -> Vec<usize> {
        (0..self.n_out)
            .filter(|&p| self.v_mask[p * self.n_hidden + m])
            .collect()
    }

    /// A hidden node is dead when it has no active input links or no active
    /// output links; it then plays no role in classification.
    pub(crate) fn hidden_is_dead(&self, m: usize) -> bool {
        self.hidden_inputs(m).is_empty() || self.hidden_outputs(m).is_empty()
    }

    /// Hidden nodes that still participate in the classification.
    pub fn live_hidden(&self) -> Vec<usize> {
        (0..self.n_hidden)
            .filter(|&m| !self.hidden_is_dead(m))
            .collect()
    }

    /// Masks every link touching dead hidden nodes (repeats until fixpoint,
    /// since removing a node can orphan others). Returns the dead nodes.
    pub fn remove_dead_hidden(&mut self) -> Vec<usize> {
        let mut dead = Vec::new();
        loop {
            let mut changed = false;
            for m in 0..self.n_hidden {
                if self.hidden_is_dead(m) {
                    for l in 0..self.n_in {
                        if self.w_mask[m * self.n_in + l] {
                            self.prune(LinkId::InputHidden {
                                hidden: m,
                                input: l,
                            });
                            changed = true;
                        }
                    }
                    for p in 0..self.n_out {
                        if self.v_mask[p * self.n_hidden + m] {
                            self.prune(LinkId::HiddenOutput {
                                output: p,
                                hidden: m,
                            });
                            changed = true;
                        }
                    }
                    if changed && !dead.contains(&m) {
                        dead.push(m);
                    }
                }
            }
            if !changed {
                break;
            }
        }
        dead.sort_unstable();
        dead
    }

    /// Inputs with no active link to any hidden node — the de-selected
    /// features of §2.1 ("an input node with no connection … can be removed").
    pub fn unused_inputs(&self) -> Vec<usize> {
        (0..self.n_in)
            .filter(|&l| (0..self.n_hidden).all(|m| !self.w_mask[m * self.n_in + l]))
            .collect()
    }

    /// Inputs that still influence the network.
    pub fn used_inputs(&self) -> Vec<usize> {
        (0..self.n_in)
            .filter(|&l| (0..self.n_hidden).any(|m| self.w_mask[m * self.n_in + l]))
            .collect()
    }

    /// Forward pass writing hidden activations and outputs into buffers.
    #[inline]
    pub(crate) fn forward_into(&self, x: &[f64], hidden: &mut [f64], out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n_in);
        debug_assert_eq!(hidden.len(), self.n_hidden);
        debug_assert_eq!(out.len(), self.n_out);
        for (m, h) in hidden.iter_mut().enumerate() {
            let row = self.w.row(m);
            let mut z = 0.0;
            for (wi, xi) in row.iter().zip(x) {
                z += wi * xi;
            }
            *h = Activation::Tanh.apply(z);
        }
        self.output_from_hidden(hidden, out);
    }

    /// Output layer alone: `S_p = σ(Σ_m α_m v_pm)`. RX uses this to check
    /// accuracy with discretized hidden activations.
    #[inline]
    pub fn output_from_hidden(&self, hidden: &[f64], out: &mut [f64]) {
        for (p, o) in out.iter_mut().enumerate() {
            let row = self.v.row(p);
            let mut u = 0.0;
            for (vi, ai) in row.iter().zip(hidden) {
                u += vi * ai;
            }
            *o = Activation::Sigmoid.apply(u);
        }
    }

    /// Forward pass, allocating.
    pub fn forward(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut hidden = vec![0.0; self.n_hidden];
        let mut out = vec![0.0; self.n_out];
        self.forward_into(x, &mut hidden, &mut out);
        (hidden, out)
    }

    /// Predicted class = output node with the largest activation (§2.1).
    pub fn classify(&self, x: &[f64]) -> usize {
        let (_, out) = self.forward(x);
        argmax(&out)
    }

    /// Batched forward pass over every row of an encoded dataset: returns
    /// the hidden activations (`rows × n_hidden`) and outputs
    /// (`rows × n_out`) as matrices.
    ///
    /// Computed as `hidden = tanh(X·Wᵀ)`, `out = σ(hidden·Vᵀ)` with `X·Wᵀ`
    /// gathered over each row's set bits; every row's result is
    /// bit-identical to [`Mlp::forward`] on that row's 0/1 vector.
    pub fn forward_batch(&self, data: &EncodedDataset) -> (Matrix, Matrix) {
        self.check_width(data);
        let rows = data.rows();
        let bits = data.binary_inputs();
        let mut hidden = vec![0.0; rows * self.n_hidden];
        let mut out = vec![0.0; rows * self.n_out];
        forward_kernel(
            bits.indices(),
            bits.offsets(),
            (self.n_in, self.n_hidden, self.n_out),
            self.w.as_slice(),
            self.v.as_slice(),
            &mut hidden,
            &mut out,
        );
        (
            Matrix::from_raw(rows, self.n_hidden, hidden),
            Matrix::from_raw(rows, self.n_out, out),
        )
    }

    /// Panics unless the dataset has one column per network input.
    fn check_width(&self, data: &EncodedDataset) {
        assert_eq!(
            data.cols(),
            self.n_in,
            "network inputs must match encoded data columns"
        );
    }

    /// Predicted classes for every row of an encoded dataset (argmax rule),
    /// appended to `preds`. Processes fixed-size row chunks with reusable
    /// scratch (and worker threads when the batch spans several chunks);
    /// per-row results equal [`Mlp::classify`] bit for bit.
    fn classify_batch_into(&self, data: &EncodedDataset, preds: &mut Vec<usize>) {
        self.check_width(data);
        self.map_rows(
            data.rows(),
            |range, run| {
                let (indices, offsets) = chunk_bits(data, &range);
                run(indices, offsets)
            },
            argmax,
            preds,
        );
    }

    /// Predicted classes for every row of an encoded dataset, allocating.
    pub fn classify_batch(&self, data: &EncodedDataset) -> Vec<usize> {
        let mut preds = Vec::with_capacity(data.rows());
        self.classify_batch_into(data, &mut preds);
        preds
    }

    /// Forward pass over `rows` strictly-0/1 input rows supplied chunk by
    /// chunk as set bits, with no dense input matrix — the serving path.
    /// For every fixed-size row chunk (fanned out like
    /// [`Mlp::classify_batch`]), `encode(range, indices, offsets)` fills
    /// the two buffers with the chunk's rows: row `i` of the range is
    /// `indices[offsets[i]..offsets[i + 1]]`, its ascending set-bit
    /// columns. `per_row` maps each row's output activations, and the
    /// results are appended to `out` in row order.
    ///
    /// This is the kernel sequence [`Mlp::classify_batch`] runs on an
    /// encoded dataset's set bits, so every row's outputs equal
    /// [`Mlp::forward`] on the dense 0/1 vector bit for bit, whatever the
    /// thread count.
    pub fn map_set_bit_rows<T: Send>(
        &self,
        rows: usize,
        encode: impl Fn(Range<usize>, &mut Vec<u32>, &mut Vec<usize>) + Sync,
        per_row: impl Fn(&[f64]) -> T + Sync,
        out: &mut Vec<T>,
    ) {
        self.map_rows(
            rows,
            |range, run| {
                let n = range.len();
                let (mut indices, mut offsets) = (Vec::new(), Vec::new());
                encode(range, &mut indices, &mut offsets);
                assert_eq!(offsets.len(), n + 1, "one offset per row plus the end");
                run(&indices, &offsets)
            },
            per_row,
            out,
        );
    }

    /// The fanned-out chunk traversal behind every batch prediction: for each
    /// fixed-size row chunk, `input(range, run)` hands the chunk's set-bit
    /// rows to `run`, which runs the forward pass on thread-local scratch
    /// and maps each row's outputs through `per_row`. Chunk results are
    /// appended to `out` in row order.
    fn map_rows<T: Send>(
        &self,
        rows: usize,
        input: impl Fn(Range<usize>, &dyn Fn(&[u32], &[usize]) -> Vec<T>) -> Vec<T> + Sync,
        per_row: impl Fn(&[f64]) -> T + Sync,
        out: &mut Vec<T>,
    ) {
        let dims = (self.n_in, self.n_hidden, self.n_out);
        let chunks = crate::par::map_chunks(rows, 0, |_c, range| {
            input(range, &|indices, offsets| {
                scratch_forward(indices, offsets, dims, &self.w, &self.v, |outs| {
                    outs.chunks_exact(self.n_out).map(&per_row).collect()
                })
            })
        });
        out.reserve(rows);
        for chunk in chunks {
            out.extend(chunk);
        }
    }

    /// Fraction of the dataset classified correctly (argmax rule).
    ///
    /// Counts [`Mlp::classify_batch`] against the targets; equal to
    /// classifying row by row.
    pub fn accuracy(&self, data: &EncodedDataset) -> f64 {
        if data.rows() == 0 {
            return 0.0;
        }
        let preds = self.classify_batch(data);
        let correct = preds
            .iter()
            .zip(data.targets())
            .filter(|(p, t)| p == t)
            .count();
        correct as f64 / data.rows() as f64
    }
}

/// The set bits of `data`'s rows `range`: all indices, and the range's
/// `range.len() + 1` absolute offsets into them.
pub(crate) fn chunk_bits<'a>(
    data: &'a EncodedDataset,
    range: &Range<usize>,
) -> (&'a [u32], &'a [usize]) {
    let bits = data.binary_inputs();
    (bits.indices(), &bits.offsets()[range.start..=range.end])
}

/// [`forward_kernel`] into thread-local scratch, handing the output
/// activations (`rows × o`, row-major) to `f`.
fn scratch_forward<T>(
    indices: &[u32],
    offsets: &[usize],
    (n_in, h, o): (usize, usize, usize),
    w: &Matrix,
    v: &Matrix,
    f: impl FnOnce(&[f64]) -> T,
) -> T {
    let rows = offsets.len() - 1;
    crate::par::with_scratch(&[rows * h, rows * o], |bufs| {
        let [hidden, out] = bufs else {
            unreachable!("two scratch buffers requested");
        };
        forward_kernel(
            indices,
            offsets,
            (n_in, h, o),
            w.as_slice(),
            v.as_slice(),
            hidden,
            out,
        );
        f(out)
    })
}

/// The one batched forward sequence every batch caller shares:
/// `hidden = tanh(X·Wᵀ)`, `out = σ(hidden·Vᵀ)`, where `X` is a 0/1 matrix
/// given by its set bits: row `i` is `indices[offsets[i]..offsets[i + 1]]`
/// (`offsets` holds `rows + 1` absolute positions).
///
/// `dims` is `(n_in, n_hidden, n_out)`; `w` is `n_hidden × n_in` and `v`
/// is `n_out × n_hidden`, both row-major (either a network's weights or
/// the objective's assembled parameter matrices). Bit-identical to the
/// per-row [`Mlp::forward_into`] loop on every row — keep it that way:
/// the equivalence tests in `tests/batch_parallel.rs` pin this function
/// for all callers at once.
pub(crate) fn forward_kernel(
    indices: &[u32],
    offsets: &[usize],
    dims: (usize, usize, usize),
    w: &[f64],
    v: &[f64],
    hidden: &mut [f64],
    out: &mut [f64],
) {
    let (n_in, n_hidden, n_out) = dims;
    let rows = offsets.len() - 1;
    assert_eq!(hidden.len(), rows * n_hidden, "hidden shape mismatch");
    assert_eq!(out.len(), rows * n_out, "output shape mismatch");
    crate::matrix::gemm_bits_nt(rows, n_hidden, n_in, indices, offsets, w, hidden);
    for a in hidden.iter_mut() {
        *a = Activation::Tanh.apply(*a);
    }
    crate::matrix::gemm_nt(rows, n_out, n_hidden, hidden, v, out);
    for s in out.iter_mut() {
        *s = Activation::Sigmoid.apply(*s);
    }
}

/// Index of the maximum element, **first on ties** — the tie-breaking rule
/// used consistently across the whole pipeline (a pruned network can emit
/// exactly tied outputs, e.g. σ(0) on both nodes, so consistency matters).
pub fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2-in (incl. bias), 2-hidden, 1-out net with hand-set weights.
    fn tiny() -> Mlp {
        let mut net = Mlp::random(2, 2, 1, 0);
        net.set_weight(
            LinkId::InputHidden {
                hidden: 0,
                input: 0,
            },
            1.0,
        );
        net.set_weight(
            LinkId::InputHidden {
                hidden: 0,
                input: 1,
            },
            0.5,
        );
        net.set_weight(
            LinkId::InputHidden {
                hidden: 1,
                input: 0,
            },
            -1.0,
        );
        net.set_weight(
            LinkId::InputHidden {
                hidden: 1,
                input: 1,
            },
            0.0,
        );
        net.set_weight(
            LinkId::HiddenOutput {
                output: 0,
                hidden: 0,
            },
            2.0,
        );
        net.set_weight(
            LinkId::HiddenOutput {
                output: 0,
                hidden: 1,
            },
            -1.0,
        );
        net
    }

    #[test]
    fn forward_matches_hand_computation() {
        let net = tiny();
        let x = [1.0, 1.0];
        let (hidden, out) = net.forward(&x);
        let a0 = (1.5f64).tanh();
        let a1 = (-1.0f64).tanh();
        assert!((hidden[0] - a0).abs() < 1e-15);
        assert!((hidden[1] - a1).abs() < 1e-15);
        let u = 2.0 * a0 - a1;
        let s = 1.0 / (1.0 + (-u).exp());
        assert!((out[0] - s).abs() < 1e-15);
    }

    #[test]
    fn pruned_link_contributes_nothing() {
        let mut net = tiny();
        let x = [1.0, 1.0];
        let before = net.forward(&x).1[0];
        net.prune(LinkId::InputHidden {
            hidden: 0,
            input: 1,
        });
        let after = net.forward(&x).1[0];
        assert_ne!(before, after);
        // Equivalent to weight 0.
        let a0 = (1.0f64).tanh();
        let a1 = (-1.0f64).tanh();
        let s = 1.0 / (1.0 + (-(2.0 * a0 - a1)).exp());
        assert!((after - s).abs() < 1e-15);
        assert!(!net.is_active(LinkId::InputHidden {
            hidden: 0,
            input: 1
        }));
        assert_eq!(
            net.weight(LinkId::InputHidden {
                hidden: 0,
                input: 1
            }),
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "pruned link")]
    fn setting_pruned_weight_panics() {
        let mut net = tiny();
        net.prune(LinkId::InputHidden {
            hidden: 0,
            input: 0,
        });
        net.set_weight(
            LinkId::InputHidden {
                hidden: 0,
                input: 0,
            },
            3.0,
        );
    }

    #[test]
    fn random_weights_in_range() {
        let net = Mlp::random(87, 4, 2, 42);
        assert_eq!(net.n_links(), 4 * (87 + 2));
        assert_eq!(net.n_active(), net.n_links());
        for &w in net.w().as_slice().iter().chain(net.v().as_slice()) {
            assert!((-1.0..=1.0).contains(&w));
        }
        // Deterministic per seed.
        assert_eq!(net, Mlp::random(87, 4, 2, 42));
        assert_ne!(net, Mlp::random(87, 4, 2, 43));
    }

    #[test]
    fn flatten_roundtrip_with_mask() {
        let mut net = tiny();
        net.prune(LinkId::InputHidden {
            hidden: 1,
            input: 1,
        });
        let params = net.flatten_active();
        assert_eq!(params.len(), net.n_active());
        assert_eq!(params.len(), 5);
        let mut net2 = net.clone();
        net2.set_active(&params);
        assert_eq!(net, net2);
    }

    #[test]
    fn dead_hidden_detection_and_removal() {
        let mut net = tiny();
        // Kill hidden 1's only output link.
        net.prune(LinkId::HiddenOutput {
            output: 0,
            hidden: 1,
        });
        assert!(net.hidden_is_dead(1));
        assert!(!net.hidden_is_dead(0));
        assert_eq!(net.live_hidden(), vec![0]);
        let dead = net.remove_dead_hidden();
        assert_eq!(dead, vec![1]);
        // Its input links are now masked too.
        assert!(!net.is_active(LinkId::InputHidden {
            hidden: 1,
            input: 0
        }));
        assert_eq!(net.unused_inputs(), Vec::<usize>::new()); // input 0 feeds hidden 0
    }

    #[test]
    fn unused_inputs_after_pruning() {
        let mut net = tiny();
        net.prune(LinkId::InputHidden {
            hidden: 0,
            input: 1,
        });
        net.prune(LinkId::InputHidden {
            hidden: 1,
            input: 1,
        });
        assert_eq!(net.unused_inputs(), vec![1]);
        assert_eq!(net.used_inputs(), vec![0]);
    }

    #[test]
    fn classify_and_accuracy() {
        let net = tiny();
        let data =
            nr_encode::EncodedDataset::from_parts(vec![1.0, 1.0, 0.0, 1.0], 2, vec![0, 0], 1);
        // Single output: argmax is always node 0.
        assert_eq!(net.classify(&[1.0, 1.0]), 0);
        assert_eq!(net.accuracy(&data), 1.0);
    }

    #[test]
    fn set_bit_rows_match_dense_forward() {
        let mut net = Mlp::random(5, 3, 2, 4);
        net.prune(LinkId::InputHidden {
            hidden: 1,
            input: 2,
        });
        let patterns: [&[u32]; 4] = [&[4], &[0, 2, 4], &[1, 2, 3, 4], &[]];
        // Enough rows for several chunks, cycling the patterns.
        let rows = 2 * crate::par::CHUNK_ROWS + 3;
        let encode = |range: Range<usize>, indices: &mut Vec<u32>, offsets: &mut Vec<usize>| {
            offsets.push(0);
            for r in range {
                indices.extend_from_slice(patterns[r % patterns.len()]);
                offsets.push(indices.len());
            }
        };
        let mut outs = Vec::new();
        net.map_set_bit_rows(rows, encode, |out| out.to_vec(), &mut outs);
        assert_eq!(outs.len(), rows);
        for (r, got) in outs.iter().enumerate() {
            let mut x = vec![0.0; 5];
            for &b in patterns[r % patterns.len()] {
                x[b as usize] = 1.0;
            }
            let (_, want) = net.forward(&x);
            assert_eq!(got, &want, "row {r}");
        }
        let mut none: Vec<usize> = Vec::new();
        net.map_set_bit_rows(0, encode, argmax, &mut none);
        assert!(none.is_empty());
    }

    #[test]
    fn output_from_hidden_matches_forward() {
        let net = tiny();
        let x = [0.3, -0.7];
        let (hidden, out) = net.forward(&x);
        let mut out2 = vec![0.0; 1];
        net.output_from_hidden(&hidden, &mut out2);
        assert_eq!(out, out2);
    }

    #[test]
    fn serde_roundtrip() {
        let mut net = tiny();
        net.prune(LinkId::InputHidden {
            hidden: 0,
            input: 0,
        });
        let json = serde_json::to_string(&net).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        assert_eq!(net, back);
    }

    #[test]
    fn validate_rejects_shapes_the_node_counts_do_not_give() {
        let net = tiny();
        assert_eq!(net.validate(), Ok(()));
        let json = serde_json::to_string(&net).unwrap();
        let n_hidden = format!("\"n_hidden\":{}", net.n_hidden());
        let wider = json.replacen(
            &n_hidden,
            &format!("\"n_hidden\":{}", net.n_hidden() + 1),
            1,
        );
        let short_mask = json.replacen(",true]", "]", 1);
        for bad in [wider, short_mask] {
            assert_ne!(bad, json);
            let back: Mlp = serde_json::from_str(&bad).unwrap();
            assert!(back.validate().is_err(), "{bad}");
        }
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[0.5, 0.5]), 0);
        assert_eq!(argmax(&[0.1, 0.9, 0.3]), 1);
        assert_eq!(argmax(&[2.0]), 0);
    }
}
