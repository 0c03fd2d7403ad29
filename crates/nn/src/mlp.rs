//! The three-layer network with prunable links.

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

    /// Number of input nodes (including the encoder's bias input).
    pub fn n_inputs(&self) -> usize {
        self.n_in
    }

    /// Number of hidden nodes (including dead ones; see [`Mlp::hidden_is_dead`]).
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

    /// Re-activates a pruned link with the given weight — the exact
    /// inverse of [`Mlp::prune`]; backs [`crate::UndoLog`] rollback.
    pub fn unprune(&mut self, link: LinkId, weight: f64) {
        assert!(!self.is_active(link), "cannot unprune active link {link:?}");
        match link {
            LinkId::InputHidden { hidden, input } => {
                self.w_mask[hidden * self.n_in + input] = true;
                self.w[(hidden, input)] = weight;
            }
            LinkId::HiddenOutput { output, hidden } => {
                self.v_mask[output * self.n_hidden + hidden] = true;
                self.v[(output, hidden)] = weight;
            }
        }
    }

    /// Total number of links (active or not): `h(n + m)` as in §2.2.
    pub fn n_links(&self) -> usize {
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
    pub fn hidden_is_dead(&self, m: usize) -> bool {
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
    pub fn forward_into(&self, x: &[f64], hidden: &mut [f64], out: &mut [f64]) {
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

    /// Batched forward pass over `rows` row-major input rows, writing the
    /// hidden activations (`rows × n_hidden`) and outputs (`rows × n_out`)
    /// into the given buffers.
    ///
    /// Computed as `hidden = tanh(X·Wᵀ)`, `out = σ(hidden·Vᵀ)` with the
    /// blocked [`crate::gemm_nt`] kernel; every row's result is
    /// bit-identical to [`Mlp::forward_into`] on that row.
    pub fn forward_batch_into(&self, x: &[f64], rows: usize, hidden: &mut [f64], out: &mut [f64]) {
        assert_eq!(x.len(), rows * self.n_in, "input shape mismatch");
        forward_kernel(
            BatchInput::Dense(x),
            rows,
            (self.n_in, self.n_hidden, self.n_out),
            self.w.as_slice(),
            self.v.as_slice(),
            hidden,
            out,
        );
    }

    /// Batched forward pass, allocating: returns the hidden activations
    /// (`rows × n_hidden`) and outputs (`rows × n_out`) as matrices.
    pub fn forward_batch(&self, x: &[f64], rows: usize) -> (Matrix, Matrix) {
        let mut hidden = vec![0.0; rows * self.n_hidden];
        let mut out = vec![0.0; rows * self.n_out];
        self.forward_batch_into(x, rows, &mut hidden, &mut out);
        (
            Matrix::from_raw(rows, self.n_hidden, hidden),
            Matrix::from_raw(rows, self.n_out, out),
        )
    }

    /// Runs `score` over the outputs of every row, on fixed-size chunks
    /// dispatched to the shared worker pool (inline for single-chunk
    /// datasets), summing the per-chunk counts in chunk order.
    fn count_rows(&self, data: &EncodedDataset, score: RowScore) -> usize {
        let dims = (self.n_in, self.n_hidden, self.n_out);
        let rows = data.rows();
        let threads = crate::par::resolve_threads(0, crate::par::n_chunks(rows));
        let targets = data.targets();
        crate::par::map_chunks(rows, threads, |_c, range| {
            chunk_forward(data, range.clone(), dims, &self.w, &self.v, |out| {
                out.chunks_exact(self.n_out)
                    .zip(range.clone())
                    .filter(|(row_out, i)| match score {
                        RowScore::Argmax => argmax(row_out) == targets[*i],
                        RowScore::Condition1(eta1) => condition1(row_out, targets[*i], eta1),
                    })
                    .count()
            })
        })
        .into_iter()
        .sum()
    }

    /// Predicted classes for every row of an encoded dataset (argmax rule),
    /// appended to `preds`. Processes fixed-size row chunks with reusable
    /// scratch (and worker threads when the batch spans several chunks);
    /// per-row results equal [`Mlp::classify`] bit for bit.
    pub fn classify_batch_into(&self, data: &EncodedDataset, preds: &mut Vec<usize>) {
        let dims = (self.n_in, self.n_hidden, self.n_out);
        let rows = data.rows();
        let threads = crate::par::resolve_threads(0, crate::par::n_chunks(rows));
        let chunks = crate::par::map_chunks(rows, threads, |_c, range| {
            chunk_forward(data, range, dims, &self.w, &self.v, |out| {
                out.chunks_exact(self.n_out).map(argmax).collect::<Vec<_>>()
            })
        });
        for chunk in chunks {
            preds.extend(chunk);
        }
    }

    /// Predicted classes for every row of an encoded dataset, allocating.
    pub fn classify_batch(&self, data: &EncodedDataset) -> Vec<usize> {
        let mut preds = Vec::with_capacity(data.rows());
        self.classify_batch_into(data, &mut preds);
        preds
    }

    /// Predicted class **and the winning output activation** for every
    /// row of an encoded dataset — the scored variant backing serving's
    /// `predict_scored_batch`. Same pooled fixed-chunk traversal as
    /// [`Mlp::classify_batch`]; per-row results equal
    /// [`Mlp::forward`] + argmax bit for bit.
    pub fn classify_scored_batch(&self, data: &EncodedDataset) -> Vec<(usize, f64)> {
        let dims = (self.n_in, self.n_hidden, self.n_out);
        let rows = data.rows();
        let threads = crate::par::resolve_threads(0, crate::par::n_chunks(rows));
        let chunks = crate::par::map_chunks(rows, threads, |_c, range| {
            chunk_forward(data, range, dims, &self.w, &self.v, |out| {
                out.chunks_exact(self.n_out)
                    .map(|row| {
                        let class = argmax(row);
                        (class, row[class])
                    })
                    .collect::<Vec<_>>()
            })
        });
        let mut preds = Vec::with_capacity(rows);
        for chunk in chunks {
            preds.extend(chunk);
        }
        preds
    }

    /// Fraction of the dataset classified correctly (argmax rule).
    ///
    /// Runs on the batched kernels; equal to classifying row by row.
    pub fn accuracy(&self, data: &EncodedDataset) -> f64 {
        if data.rows() == 0 {
            return 0.0;
        }
        let correct = self.count_rows(data, RowScore::Argmax);
        correct as f64 / data.rows() as f64
    }

    /// Accuracy of several **removal candidates** of this network at once:
    /// candidate `k` is this network with the links in `removals[k]`
    /// additionally zeroed (a pruned link and a zero weight are
    /// forward-equivalent), so result `k` equals what [`Mlp::accuracy`]
    /// would return after pruning those links — bit for bit.
    ///
    /// All `candidate × row-chunk` evaluations run as jobs on the shared
    /// worker pool and each candidate's correct counts are reduced in
    /// chunk order, so the results do not depend on the thread count
    /// (`threads`: `0` = auto, `1` = inline on the caller's thread). This
    /// is the parallel accuracy gate of the incremental pruning engine:
    /// at paper scale a dataset is a single chunk, so cross-candidate
    /// parallelism is what the pool actually buys.
    pub fn accuracy_many(
        &self,
        data: &EncodedDataset,
        removals: &[Vec<LinkId>],
        threads: usize,
    ) -> Vec<f64> {
        if removals.is_empty() {
            return Vec::new();
        }
        let rows = data.rows();
        if rows == 0 {
            return vec![0.0; removals.len()];
        }
        let chunks = crate::par::n_chunks(rows);
        let threads = crate::par::resolve_threads(threads, removals.len() * chunks);
        let (n_in, h, o) = (self.n_in, self.n_hidden, self.n_out);
        let variants: Vec<(Matrix, Matrix)> = removals
            .iter()
            .map(|links| {
                let mut w = self.w.clone();
                let mut v = self.v.clone();
                for &l in links {
                    match l {
                        LinkId::InputHidden { hidden, input } => w[(hidden, input)] = 0.0,
                        LinkId::HiddenOutput { output, hidden } => v[(output, hidden)] = 0.0,
                    }
                }
                (w, v)
            })
            .collect();
        let targets = data.targets();
        let counts = crate::par::map_indexed_scoped(variants.len() * chunks, threads, |j| {
            let (cand, chunk) = (j / chunks, j % chunks);
            let range = crate::par::chunk_range(chunk, rows);
            let (w, v) = &variants[cand];
            chunk_forward(data, range.clone(), (n_in, h, o), w, v, |out| {
                out.chunks_exact(o)
                    .zip(range.clone())
                    .filter(|(row_out, i)| argmax(row_out) == targets[*i])
                    .count()
            })
        });
        counts
            .chunks_exact(chunks)
            .map(|per_chunk| per_chunk.iter().sum::<usize>() as f64 / rows as f64)
            .collect()
    }

    /// Condition (1) of the paper: `max_p |S_p − t_p| ≤ η₁`.
    pub fn condition1_holds(&self, x: &[f64], target: usize, eta1: f64) -> bool {
        let (_, out) = self.forward(x);
        condition1(&out, target, eta1)
    }

    /// Fraction of rows satisfying condition (1) — the strict notion of
    /// "correctly classified" used by the pruning theory (§2.2).
    ///
    /// Runs on the batched kernels; equal to checking row by row.
    pub fn strict_accuracy(&self, data: &EncodedDataset, eta1: f64) -> f64 {
        if data.rows() == 0 {
            return 0.0;
        }
        let correct = self.count_rows(data, RowScore::Condition1(eta1));
        correct as f64 / data.rows() as f64
    }
}

/// One chunk's forward pass over an encoded dataset with thread-local
/// scratch, handing the output activations (`range.len() × o`, row-major)
/// to `f`. The single setup path for every pooled dataset traversal
/// (`count_rows`, `classify_batch_into`, `accuracy_many`).
fn chunk_forward<T>(
    data: &EncodedDataset,
    range: std::ops::Range<usize>,
    (n_in, h, o): (usize, usize, usize),
    w: &Matrix,
    v: &Matrix,
    f: impl FnOnce(&[f64]) -> T,
) -> T {
    let batch = data.batch();
    let n = range.len();
    crate::par::with_scratch(&[n * h, n * o], |bufs| {
        let [hidden, out] = bufs else {
            unreachable!("two scratch buffers requested");
        };
        forward_kernel(
            BatchInput::select(&batch, &range, n_in),
            n,
            (n_in, h, o),
            w.as_slice(),
            v.as_slice(),
            hidden,
            out,
        );
        f(out)
    })
}

/// Per-row acceptance criterion for [`Mlp::count_rows`] chunk jobs.
#[derive(Clone, Copy)]
enum RowScore {
    /// Argmax output equals the target class.
    Argmax,
    /// Condition (1) of the paper holds with the given η₁.
    Condition1(f64),
}

/// Input rows for one batched forward pass: dense row-major data, or the
/// set-bit layout of strictly-0/1 data.
pub(crate) enum BatchInput<'a> {
    /// Row-major `rows × n_in`.
    Dense(&'a [f64]),
    /// Per-row ascending set-bit column indices; `offsets` (length
    /// `rows + 1`) holds absolute positions into `indices`.
    Bits {
        /// Concatenated set-bit indices.
        indices: &'a [u32],
        /// Per-row offsets into `indices`.
        offsets: &'a [usize],
    },
}

impl<'a> BatchInput<'a> {
    /// The given row range of an encoded batch, preferring the set-bit
    /// layout when the dataset carries one.
    pub(crate) fn select(
        batch: &nr_encode::EncodedBatch<'a>,
        range: &std::ops::Range<usize>,
        n_in: usize,
    ) -> Self {
        match batch.bits {
            Some(bits) => BatchInput::Bits {
                indices: bits.indices(),
                offsets: &bits.offsets()[range.start..=range.end],
            },
            None => BatchInput::Dense(&batch.inputs[range.start * n_in..range.end * n_in]),
        }
    }
}

/// The one batched forward sequence every batch caller shares:
/// `hidden = tanh(X·Wᵀ)`, `out = σ(hidden·Vᵀ)`, with the input-layer
/// product dispatched to the dense or set-bit kernel.
///
/// `dims` is `(n_in, n_hidden, n_out)`; `w` is `n_hidden × n_in` and `v`
/// is `n_out × n_hidden`, both row-major (either a network's weights or
/// the objective's assembled parameter matrices). Bit-identical to the
/// per-row [`Mlp::forward_into`] loop on every row — keep it that way:
/// the equivalence tests in `tests/batch_parallel.rs` pin this function
/// for all callers at once.
pub(crate) fn forward_kernel(
    input: BatchInput<'_>,
    rows: usize,
    dims: (usize, usize, usize),
    w: &[f64],
    v: &[f64],
    hidden: &mut [f64],
    out: &mut [f64],
) {
    let (n_in, n_hidden, n_out) = dims;
    assert_eq!(hidden.len(), rows * n_hidden, "hidden shape mismatch");
    assert_eq!(out.len(), rows * n_out, "output shape mismatch");
    match input {
        BatchInput::Dense(x) => crate::matrix::gemm_nt(rows, n_hidden, n_in, x, w, hidden),
        BatchInput::Bits { indices, offsets } => {
            crate::matrix::gemm_bits_nt(rows, n_hidden, n_in, indices, offsets, w, hidden)
        }
    }
    for a in hidden.iter_mut() {
        *a = Activation::Tanh.apply(*a);
    }
    crate::matrix::gemm_nt(rows, n_out, n_hidden, hidden, v, out);
    for s in out.iter_mut() {
        *s = Activation::Sigmoid.apply(*s);
    }
}

/// `max_p |S_p − t_p| ≤ η₁` for one output row.
fn condition1(out: &[f64], target: usize, eta1: f64) -> bool {
    out.iter()
        .enumerate()
        .map(|(p, s)| (s - if p == target { 1.0 } else { 0.0 }).abs())
        .fold(0.0f64, f64::max)
        <= eta1
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
            nr_encode::EncodedDataset::from_parts(vec![1.0, 1.0, -1.0, 1.0], 2, vec![0, 0], 1);
        // Single output: argmax is always node 0.
        assert_eq!(net.classify(&[1.0, 1.0]), 0);
        assert_eq!(net.accuracy(&data), 1.0);
    }

    #[test]
    fn scored_batch_matches_per_row_forward() {
        let net = tiny();
        let data = nr_encode::EncodedDataset::from_parts(
            vec![1.0, 1.0, -1.0, 1.0, 0.0, 1.0],
            2,
            vec![0, 0, 0],
            1,
        );
        let scored = net.classify_scored_batch(&data);
        assert_eq!(scored.len(), 3);
        for (i, &(class, score)) in scored.iter().enumerate() {
            let (_, out) = net.forward(data.input(i));
            assert_eq!(class, argmax(&out));
            assert_eq!(score, out[class], "row {i} activation must be exact");
        }
    }

    #[test]
    fn condition1_strictness() {
        let net = tiny();
        let x = [1.0, 1.0];
        let (_, out) = net.forward(&x);
        let err = (out[0] - 1.0).abs();
        assert!(net.condition1_holds(&x, 0, err + 0.01));
        assert!(!net.condition1_holds(&x, 0, err - 0.01));
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
    fn accuracy_many_matches_pruned_accuracy() {
        // 3 inputs (last = bias), alternating classes.
        let mut inputs = Vec::new();
        let mut targets = Vec::new();
        for i in 0..50 {
            let b0 = (i % 2) as f64;
            let b1 = ((i / 2) % 2) as f64;
            inputs.extend_from_slice(&[b0, b1, 1.0]);
            targets.push(if b0 == 1.0 { 0 } else { 1 });
        }
        let data = nr_encode::EncodedDataset::from_parts(inputs, 3, targets, 2);
        let net = Mlp::random(3, 3, 2, 29);
        let removals: Vec<Vec<LinkId>> = vec![
            vec![],
            vec![LinkId::InputHidden {
                hidden: 0,
                input: 0,
            }],
            vec![
                LinkId::InputHidden {
                    hidden: 1,
                    input: 1,
                },
                LinkId::HiddenOutput {
                    output: 0,
                    hidden: 2,
                },
            ],
        ];
        for threads in [0, 1, 2] {
            let got = net.accuracy_many(&data, &removals, threads);
            assert_eq!(got.len(), removals.len());
            for (links, &acc) in removals.iter().zip(&got) {
                let mut candidate = net.clone();
                for &l in links {
                    candidate.prune(l);
                }
                assert_eq!(
                    acc,
                    candidate.accuracy(&data),
                    "candidate {links:?} at {threads} threads"
                );
            }
        }
        assert_eq!(net.accuracy_many(&data, &[], 0), Vec::<f64>::new());
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[0.5, 0.5]), 0);
        assert_eq!(argmax(&[0.1, 0.9, 0.3]), 1);
        assert_eq!(argmax(&[2.0]), 0);
    }
}
