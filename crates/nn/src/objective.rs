//! The training objective: cross entropy (eq. 2) + penalty (eq. 3).

use nr_encode::EncodedDataset;
use nr_opt::Objective;
use serde::{Deserialize, Serialize};

use crate::{Activation, Matrix, Mlp};

/// Output clamp keeping `log` finite; the gradient is exact regardless
/// because `dE/du = S − t` does not go through the clamp.
const EPS: f64 = 1e-12;

/// The two-term weight-decay penalty of eq. 3:
///
/// `P(w,v) = ε₁ Σ βθ²/(1+βθ²) + ε₂ Σ θ²` over all active weights θ.
///
/// The first term saturates — it pushes *small* weights to zero without
/// penalizing large ones much (so pruning finds many removable links); the
/// second keeps all weights bounded. The defaults are Setiono's published
/// settings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Penalty {
    /// Weight of the saturating term.
    pub eps1: f64,
    /// Weight of the quadratic term.
    pub eps2: f64,
    /// Steepness of the saturating term.
    pub beta: f64,
}

impl Default for Penalty {
    fn default() -> Self {
        Penalty {
            eps1: 0.1,
            eps2: 1e-4,
            beta: 10.0,
        }
    }
}

impl Penalty {
    /// A zero penalty (pure cross-entropy training; ablation baseline).
    pub fn none() -> Self {
        Penalty {
            eps1: 0.0,
            eps2: 0.0,
            beta: 10.0,
        }
    }

    /// Penalty value for one weight.
    #[inline]
    pub fn value(&self, theta: f64) -> f64 {
        let t2 = theta * theta;
        self.eps1 * self.beta * t2 / (1.0 + self.beta * t2) + self.eps2 * t2
    }

    /// Derivative of [`Penalty::value`] w.r.t. the weight.
    #[inline]
    pub fn derivative(&self, theta: f64) -> f64 {
        let denom = 1.0 + self.beta * theta * theta;
        self.eps1 * 2.0 * self.beta * theta / (denom * denom) + 2.0 * self.eps2 * theta
    }
}

/// Eq. 2 + eq. 3 over the network's *active* weights, as an
/// [`nr_opt::Objective`].
///
/// The parameter vector is the canonical active-link flattening of the
/// template network ([`Mlp::flatten_active`]); masked links are simply not
/// part of the optimization problem, which keeps BFGS's dense inverse
/// Hessian small as pruning progresses.
///
/// # The active-link plan
///
/// The active set is fixed for the objective's lifetime (one training or
/// retraining run), so [`CrossEntropyObjective::new`] builds a plan once
/// and every evaluation walks active links only:
///
/// * A hidden unit fed by every input (all of them, during Phase 1
///   training) gathers its pre-activations over each row's set bits
///   straight from the dataset's set-bit rows
///   ([`nr_encode::EncodedDataset::binary_inputs`]) and scatters its `dW`
///   row back over them. The plan holds no copy of those bits: a
///   per-retrain copy would be a second dataset on the heap.
/// * For every other hidden unit the plan groups each fixed 1,024-row
///   chunk's rows by the *pattern* of that unit's active inputs they set.
///   An evaluation computes one pre-activation and one `tanh` per
///   pattern and broadcasts it to the pattern's rows.
/// * For every active input column of those units, the plan lists the
///   chunk's rows that set it, ascending, and the units it feeds; each
///   active `dW` entry is accumulated column-wise over those rows.
///   Masked entries are never computed or read.
///
/// The output layer, the deltas `D = S − T` and `dV = Dᵀ·hidden` run over
/// all `o × h` hidden→output links, masked ones as zero weights: there are
/// few of them.
///
/// Evaluation gives the bits of the dense-mask reference (masked weights
/// as zeros, every set bit gathered and scattered, both log terms of every
/// output) for three reasons:
///
/// 1. **Every skipped term is a `+0.0` added to an accumulator that is
///    never `−0.0`.** Each accumulator starts at `+0.0` and keeps the
///    reference's order: ascending column for a pre-activation, ascending
///    row for a gradient entry. A sum is `−0.0` only when both addends
///    are, so none of these accumulators is ever `−0.0`, and adding `±0.0`
///    to it leaves its bits unchanged. A masked weight, a zero `dW` term
///    or an unset input therefore changes nothing by being skipped — the
///    argument the set-bit kernel `gemm_bits_nt`'s doc makes for zero
///    inputs.
/// 2. **A pattern fixes the pre-activation.** Rows with the same pattern
///    sum the same weights in the same order, so each gets exactly the
///    `tanh` it would have computed itself.
/// 3. **Only one log per output is live.** Targets are 0/1, so one term of
///    `t·ln s + (1−t)·ln(1−s)` is `0·(finite log) = ±0` (the clamp keeps
///    both logs finite) and the sum is exactly the other term.
///
/// Rows are sharded into the fixed chunks; pattern, activation and
/// gradient work runs inside the chunk jobs on worker threads, and the
/// per-chunk partials are reduced in chunk order, so the value and
/// gradient are bit-identical for every thread count (see
/// [`CrossEntropyObjective::with_threads`]).
///
/// A single-chunk dataset (every paper-scale training set) is split
/// between two threads instead ([`crate::join`]): each of the chunk's
/// three phases runs as two halves, the forward work by pattern and row
/// ranges and the backward work by `dV`/`dW` entries. The split gives the
/// inline bits for a fourth reason:
///
/// 4. **Every value is computed whole by one half, in the reference's
///    order.** A pattern's sum and `tanh`, a row's activations, outputs,
///    logs and deltas, and each `dV` or `dW` entry's chain over the rows
///    belong to one half; the halves of a phase only share its read-only
///    inputs. The loss is summed in row order from a per-row log buffer
///    once both halves have written it, and the second half's `dW`
///    entries land in a zeroed buffer that is added into the first half's
///    zeros, which by reason 1 leaves their bits unchanged.
pub struct CrossEntropyObjective<'a> {
    data: &'a EncodedDataset,
    penalty: Penalty,
    /// Canonical order of the active links, cached.
    links: Vec<crate::LinkId>,
    /// The per-retrain active-link plan.
    plan: Plan,
    /// Data-pass execution mode: `1` = inline on the caller's thread,
    /// anything else = the shared worker pool (`0` = auto-detect).
    threads: usize,
}

// Chunk-relative rows and per-unit pattern ids are stored as `u16`.
const _: () = assert!(crate::par::CHUNK_ROWS < u16::MAX as usize);

/// What [`CrossEntropyObjective::new`] derives from the active set: the
/// hidden units' parameter ranges, which units gather the rows' own set
/// bits ("full") and which go through patterns ("sparse"), and one
/// [`ChunkPlan`] per fixed row chunk.
struct Plan {
    n_in: usize,
    h: usize,
    o: usize,
    /// Hidden unit `m`'s input links are parameters `w_start[m]..w_start[m
    /// + 1]`, in ascending input order (the canonical flattening is
    /// hidden-major); input links lead the parameter vector, so
    /// `w_start[h]` is their count.
    w_start: Vec<usize>,
    /// Hidden units with every input active.
    full: Vec<usize>,
    /// The other hidden units, ascending (units with no active input
    /// included: their single, empty pattern gives `tanh(0)`), each with
    /// the mask table of its active inputs: bit `j` of a row's mask is
    /// the unit's `j`-th active input, parameter `w_start[m] + j`.
    sparse: Vec<(usize, InputMask)>,
    /// The sparse units' active input columns, ascending (column `c` is
    /// bit `c` of a row's mask).
    columns: InputMask,
    /// Column `c` feeds `(hidden unit, parameter index)` pairs
    /// `feeds[feed_offsets[c]..feed_offsets[c + 1]]`.
    feed_offsets: Vec<usize>,
    feeds: Vec<(usize, usize)>,
    /// One plan per fixed row chunk, in chunk order.
    chunks: Vec<ChunkPlan>,
}

/// The sparse units' row groupings within one row chunk.
struct ChunkPlan {
    /// `row_pattern[s * rows + r]`: the pattern chunk row `r` sets for
    /// sparse unit `s`, counted from the unit's first pattern.
    row_pattern: Vec<u16>,
    /// Sparse unit `s`'s patterns are `unit_patterns[s]..unit_patterns[s +
    /// 1]`.
    unit_patterns: Vec<usize>,
    /// Pattern `q` sums parameters `pattern_params[pattern_offsets[q]..
    /// pattern_offsets[q + 1]]`, in ascending input order.
    pattern_offsets: Vec<usize>,
    pattern_params: Vec<u32>,
    /// Chunk rows (ascending) of each active column, columns
    /// concatenated.
    col_rows: Vec<u16>,
    /// One active `dW` entry per feed: its hidden unit and parameter, and
    /// its column's rows in `col_rows`. Ordered by row count, so the
    /// entries accumulated side by side end at about the same row.
    entries: Vec<Entry>,
    /// Where a split evaluation's second half starts.
    halves: Halves,
}

/// Where the second half of a split evaluation of a chunk starts in each
/// of [`eval_chunk`]'s phases, chosen so the halves do about equal work.
#[derive(Clone, Copy)]
struct Halves {
    /// Phases 1 and 2: the chunk row. Every row costs about the same.
    row: usize,
    /// Phase 1: the pattern, balanced by parameter count plus a `tanh`.
    pattern: usize,
    /// Phase 3: the backward item. Items are the `o × h` `dV` entries (row
    /// major), then the full units' `dW` rows, then the sparse `dW`
    /// entries; each is balanced by the elements its sum visits.
    item: usize,
}

/// Work-balance weights of [`Halves`], measured on the `mine` fits: a
/// pattern's `tanh` costs about 12 of its added parameters, and one row of
/// a `dV` entry (two loads, a product and a zero-delta select) about 2.5
/// added elements of a `dW` entry, so backward items are costed in half
/// elements.
const TANH_COST: usize = 12;
const DV_ROW_COST: usize = 5;
const DW_ELEMENT_COST: usize = 2;

/// The first item whose middle falls past half of the items' total cost
/// (the item count if there is none).
fn balance(costs: impl Iterator<Item = usize> + Clone) -> usize {
    let total: usize = costs.clone().sum();
    let mut before = 0;
    let mut items = 0;
    for c in costs {
        if 2 * before + c > total {
            break;
        }
        before += c;
        items += 1;
    }
    items
}

/// One active `dW` entry of a chunk (see [`ChunkPlan::entries`]).
#[derive(Clone, Copy)]
struct Entry {
    rows: (usize, usize),
    m: usize,
    k: usize,
}

/// Turns a row's set input columns into a bitmask over an ascending list
/// of inputs: bit `j` of the mask (word `j / 64`) is set when the row sets
/// the list's `j`-th input. Stored as one `n_in`-entry table per mask
/// word, so a row's mask is one branch-free OR-fold per word.
struct InputMask {
    n_in: usize,
    /// Entry `w * n_in + l`: input `l`'s bit if it falls in word `w`, else
    /// 0 (and 0 in every word for inputs not in the list).
    table: Vec<u64>,
}

impl InputMask {
    fn new(n_in: usize, inputs: &[usize]) -> InputMask {
        let mut table = vec![0; inputs.len().div_ceil(64) * n_in];
        for (j, &l) in inputs.iter().enumerate() {
            table[j / 64 * n_in + l] = 1 << (j % 64);
        }
        InputMask { n_in, table }
    }

    fn words(&self) -> usize {
        self.table.len() / self.n_in
    }

    /// Writes the mask of a row's set input columns into `out`.
    fn mask(&self, bits: &[u32], out: &mut [u64]) {
        for (o, word) in out.iter_mut().zip(self.table.chunks_exact(self.n_in)) {
            *o = bits.iter().fold(0, |acc, &l| acc | word[l as usize]);
        }
    }
}

/// Calls `f(j)` for every set bit `j` of a multi-word mask, ascending.
fn for_each_bit(mask: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in mask.iter().enumerate() {
        let mut b = word;
        while b != 0 {
            f(w * 64 + b.trailing_zeros() as usize);
            b &= b - 1;
        }
    }
}

impl Plan {
    /// Plans evaluation of `template`'s active links over `data`.
    fn new(template: &Mlp, links: &[crate::LinkId], data: &EncodedDataset) -> Plan {
        let (n_in, h, o) = (
            template.n_inputs(),
            template.n_hidden(),
            template.n_outputs(),
        );
        assert!(
            u32::try_from(links.len()).is_ok(),
            "{} parameters overflow the plan's u32 indices",
            links.len()
        );
        let mut inputs = vec![Vec::new(); h];
        for link in links {
            if let crate::LinkId::InputHidden { hidden, input } = *link {
                inputs[hidden].push(input);
            }
        }
        let mut w_start = vec![0; h + 1];
        for m in 0..h {
            w_start[m + 1] = w_start[m] + inputs[m].len();
        }
        let (full, sparse): (Vec<usize>, Vec<usize>) =
            (0..h).partition(|&m| inputs[m].len() == n_in);

        let mut feeding = vec![Vec::new(); n_in];
        for &m in &sparse {
            for (j, &l) in inputs[m].iter().enumerate() {
                feeding[l].push((m, w_start[m] + j));
            }
        }
        let mut column_inputs = Vec::new();
        let mut feed_offsets = vec![0];
        let mut feeds = Vec::new();
        for (l, column) in feeding.into_iter().enumerate() {
            if !column.is_empty() {
                column_inputs.push(l);
                feeds.extend(column);
                feed_offsets.push(feeds.len());
            }
        }

        let mut plan = Plan {
            n_in,
            h,
            o,
            w_start,
            full,
            sparse: sparse
                .into_iter()
                .map(|m| (m, InputMask::new(n_in, &inputs[m])))
                .collect(),
            columns: InputMask::new(n_in, &column_inputs),
            feed_offsets,
            feeds,
            chunks: Vec::new(),
        };
        let rows = data.rows();
        plan.chunks = (0..crate::par::n_chunks(rows))
            .map(|c| plan.chunk(data, crate::par::chunk_range(c, rows)))
            .collect();
        plan
    }

    /// Groups one chunk's rows by pattern (per sparse unit) and by active
    /// column.
    fn chunk(&self, data: &EncodedDataset, range: std::ops::Range<usize>) -> ChunkPlan {
        let n = range.len();
        let bits = |r: usize| data.row_bits(range.start + r);

        // Patterns: each row's mask, deduplicated per unit through an
        // open-addressing table of the unit's pattern ids.
        let mut row_pattern = Vec::with_capacity(n * self.sparse.len());
        let mut unit_patterns = vec![0];
        let mut pattern_offsets = vec![0];
        let mut pattern_params = Vec::new();
        let table_bits = (2 * n).next_power_of_two().trailing_zeros().max(1);
        let slot_mask = (1usize << table_bits) - 1;
        let mut slots = vec![u16::MAX; slot_mask + 1];
        let mut keys = Vec::new();
        let mut key = Vec::new();
        for &(m, ref inputs) in &self.sparse {
            let words = inputs.words();
            key.resize(words, 0);
            keys.clear();
            slots.fill(u16::MAX);
            let mut patterns = 0;
            for r in 0..n {
                inputs.mask(bits(r), &mut key);
                let hash = key.iter().fold(0u64, |hash, &word| {
                    (hash ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                });
                let mut slot = (hash >> (64 - table_bits)) as usize;
                let q = loop {
                    let q = slots[slot];
                    if q == u16::MAX {
                        let q = patterns;
                        patterns += 1;
                        slots[slot] = q;
                        keys.extend_from_slice(&key);
                        for_each_bit(&key, |j| pattern_params.push((self.w_start[m] + j) as u32));
                        pattern_offsets.push(pattern_params.len());
                        break q;
                    }
                    let q_words = q as usize * words;
                    if keys[q_words..q_words + words] == key[..] {
                        break q;
                    }
                    slot = (slot + 1) & slot_mask;
                };
                row_pattern.push(q);
            }
            unit_patterns.push(pattern_offsets.len() - 1);
        }

        // Column rows: a counting sort of the rows' column masks, so each
        // column's rows come out ascending.
        let n_cols = self.feed_offsets.len() - 1;
        let words = self.columns.words();
        let mut col_offsets = vec![0; n_cols + 1];
        let mut col_rows = Vec::new();
        if n_cols > 0 {
            let mut masks = vec![0; n * words];
            for (r, mask) in masks.chunks_exact_mut(words).enumerate() {
                self.columns.mask(bits(r), mask);
                for_each_bit(mask, |c| col_offsets[c + 1] += 1);
            }
            for c in 0..n_cols {
                col_offsets[c + 1] += col_offsets[c];
            }
            let mut next = col_offsets.clone();
            col_rows.resize(col_offsets[n_cols], 0);
            for (r, mask) in masks.chunks_exact(words).enumerate() {
                for_each_bit(mask, |c| {
                    col_rows[next[c]] = r as u16;
                    next[c] += 1;
                });
            }
        }
        let mut entries: Vec<Entry> = (0..n_cols)
            .flat_map(|c| {
                let rows = (col_offsets[c], col_offsets[c + 1]);
                self.feeds[self.feed_offsets[c]..self.feed_offsets[c + 1]]
                    .iter()
                    .map(move |&(m, k)| Entry { rows, m, k })
            })
            .collect();
        entries.sort_by_key(|e| e.rows.1 - e.rows.0);

        let offsets = data.binary_inputs().offsets();
        let set_bits = offsets[range.end] - offsets[range.start];
        let item_costs = std::iter::repeat_n(DV_ROW_COST * n, self.o * self.h)
            .chain(std::iter::repeat_n(
                DW_ELEMENT_COST * set_bits,
                self.full.len(),
            ))
            .chain(
                entries
                    .iter()
                    .map(|e| DW_ELEMENT_COST * (e.rows.1 - e.rows.0)),
            );
        let halves = Halves {
            row: n / 2,
            pattern: balance(pattern_offsets.windows(2).map(|q| q[1] - q[0] + TANH_COST)),
            item: balance(item_costs),
        };
        ChunkPlan {
            row_pattern,
            unit_patterns,
            pattern_offsets,
            pattern_params,
            col_rows,
            entries,
            halves,
        }
    }
}

impl<'a> CrossEntropyObjective<'a> {
    /// Builds the objective for a network structure and dataset, planning
    /// the evaluation over the structure's active links (see the type
    /// docs).
    pub fn new(template: &Mlp, data: &'a EncodedDataset, penalty: Penalty) -> Self {
        assert_eq!(
            template.n_inputs(),
            data.cols(),
            "network inputs must match encoded data columns"
        );
        assert!(
            template.n_outputs() >= data.n_classes(),
            "need one output node per class"
        );
        let links = template.active_links();
        let plan = Plan::new(template, &links, data);
        CrossEntropyObjective {
            data,
            penalty,
            links,
            plan,
            threads: 0,
        }
    }

    /// Selects the data-pass execution mode: `1` forces inline evaluation
    /// on the caller's thread (the reference); any other value (`0` =
    /// auto-detect) uses the **shared worker pool**, whose size is fixed
    /// process-wide at `min(available_parallelism, 8)` — the value is not
    /// a per-call worker count. A multi-chunk dataset runs its chunks on
    /// the pool; a single-chunk one (every paper-scale training set) is
    /// split between the caller and one pool worker by
    /// [`join`](crate::join), and runs inline on a single-core host.
    ///
    /// Purely a throughput knob either way: the fixed chunking, ordered
    /// reduction and order-keeping split make the result bit-identical in
    /// every mode.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Shared forward/backward pass. When `grad` is `Some`, accumulates the
    /// gradient (in link order) as well.
    ///
    /// A single-chunk dataset is split between the caller and the pool's
    /// session worker ([`crate::par::join`]) unless the objective runs
    /// inline; a multi-chunk one runs its chunks on the pool.
    fn evaluate(&self, x: &[f64], grad: Option<&mut [f64]>) -> f64 {
        let split = crate::par::resolve_threads(self.threads, 2) > 1;
        self.evaluate_with(x, grad, split.then_some(pooled as Fork))
    }

    /// [`Self::evaluate`] with an explicit schedule: `split` runs a
    /// single-chunk dataset's phases as two halves through it; otherwise
    /// (and for multi-chunk datasets, always) each chunk is evaluated
    /// whole.
    ///
    /// Each chunk evaluates its rows through the plan (see [`eval_chunk`]):
    /// hidden activations (full units gathered over the rows' set bits,
    /// sparse units once per pattern), `S = σ(hidden·Vᵀ)`, the live log of
    /// each output and `D = S − T`, then `dV`, the back-propagated hidden
    /// deltas and the active `dW` entries. Per-chunk partial losses and
    /// gradients are reduced in chunk order, so the result does not depend
    /// on the thread count or the schedule.
    fn evaluate_with(&self, x: &[f64], mut grad: Option<&mut [f64]>, split: Option<Fork>) -> f64 {
        let plan = &self.plan;
        let (h, o, n_w) = (plan.h, plan.o, plan.w_start[plan.h]);
        let mut v = Matrix::zeros(o, h);
        for (link, &p) in self.links[n_w..].iter().zip(&x[n_w..]) {
            if let crate::LinkId::HiddenOutput { output, hidden } = *link {
                v[(output, hidden)] = p;
            }
        }
        // The full units' weight rows, packed for the set-bit gather.
        let mut w_full = Vec::with_capacity(plan.full.len() * plan.n_in);
        for &m in &plan.full {
            w_full.extend_from_slice(&x[plan.w_start[m]..plan.w_start[m + 1]]);
        }
        let want_grad = grad.is_some();

        // Everything a chunk job needs; the jobs borrow it (and the
        // dataset) only until `map_chunks` returns.
        let ctx = EvalCtx {
            data: self.data,
            plan,
            x,
            w_full,
            v,
            want_grad,
        };

        let rows = self.data.rows();
        let partials = match (split, &plan.chunks[..]) {
            (Some(fork), [chunk]) => vec![eval_chunk(&ctx, chunk, 0..rows, Some(fork))],
            _ => {
                let threads = crate::par::resolve_threads(self.threads, plan.chunks.len());
                crate::par::map_chunks(rows, threads, |c, range| {
                    eval_chunk(&ctx, &plan.chunks[c], range, None)
                })
            }
        };

        // Ordered reduction: chunk 0 first, always.
        let mut loss = 0.0;
        let mut dw = vec![0.0; n_w];
        let mut dv = Matrix::zeros(o, h);
        for p in partials {
            loss += p.loss;
            if want_grad {
                crate::matrix::axpy(1.0, &p.dw, &mut dw);
                crate::matrix::axpy(1.0, &p.dv, dv.as_mut_slice());
            }
        }

        // Penalty over active weights (+ gradient).
        for (k, (&p, link)) in x.iter().zip(&self.links).enumerate() {
            loss += self.penalty.value(p);
            if let Some(g) = grad.as_deref_mut() {
                let data_grad = match *link {
                    crate::LinkId::InputHidden { .. } => dw[k],
                    crate::LinkId::HiddenOutput { output, hidden } => dv[(output, hidden)],
                };
                g[k] = data_grad + self.penalty.derivative(p);
            }
        }
        loss
    }
}

/// Everything one chunk evaluation needs.
struct EvalCtx<'a> {
    /// The encoded dataset being evaluated.
    data: &'a EncodedDataset,
    plan: &'a Plan,
    /// The flat parameter vector.
    x: &'a [f64],
    /// The full units' weight rows (`plan.full.len() × n_in`, row-major).
    w_full: Vec<f64>,
    /// Assembled dense hidden→output weights (masked entries zero).
    v: Matrix,
    want_grad: bool,
}

/// Per-chunk partial results, reduced in chunk order.
struct Partial {
    loss: f64,
    /// Input-link gradient, indexed like the leading parameters.
    dw: Vec<f64>,
    dv: Vec<f64>,
}

/// Runs the two halves of one phase of [`eval_chunk`]: one after the
/// other, or on two threads. Which thread runs a half never changes what
/// it computes.
type Fork = fn(&mut (dyn FnMut() + Send), &mut (dyn FnMut() + Send));

/// The inline schedule: the first half, then the second.
fn sequential(a: &mut (dyn FnMut() + Send), b: &mut (dyn FnMut() + Send)) {
    a();
    b();
}

/// The caller and the pool's session worker ([`crate::par::join`]).
fn pooled(a: &mut (dyn FnMut() + Send), b: &mut (dyn FnMut() + Send)) {
    crate::par::join(a, b);
}

/// One half of phases 1 and 2: chunk rows `rows`, their targets, and
/// each node's slice of the chunk's node-major buffers over those rows.
struct RowHalf<'b> {
    rows: std::ops::Range<usize>,
    targets: &'b [usize],
    hidden: Vec<&'b mut [f64]>,
    delta: Vec<&'b mut [f64]>,
    back: Vec<&'b mut [f64]>,
    /// `rows × full units`, row-major.
    pre_full: &'b mut [f64],
    /// `rows × o`, row-major.
    logs: &'b mut [f64],
}

/// Splits a chunk's rows and their buffers (node-major `hidden`, `delta`
/// and `back`, row-major `pre_full` and `logs`) at row `mid`.
fn row_halves<'b>(
    targets: &'b [usize],
    mid: usize,
    [hidden, delta, back, pre_full, logs]: [&'b mut [f64]; 5],
) -> [RowHalf<'b>; 2] {
    let n = targets.len();
    let nodes = |buf: &'b mut [f64]| -> (Vec<_>, Vec<_>) {
        buf.chunks_exact_mut(n)
            .map(|node| node.split_at_mut(mid))
            .unzip()
    };
    let ((hidden_a, hidden_b), (delta_a, delta_b), (back_a, back_b)) =
        (nodes(hidden), nodes(delta), nodes(back));
    let (pre_a, pre_b) = pre_full.split_at_mut(pre_full.len() / n * mid);
    let (logs_a, logs_b) = logs.split_at_mut(logs.len() / n * mid);
    let (targets_a, targets_b) = targets.split_at(mid);
    [
        RowHalf {
            rows: 0..mid,
            targets: targets_a,
            hidden: hidden_a,
            delta: delta_a,
            back: back_a,
            pre_full: pre_a,
            logs: logs_a,
        },
        RowHalf {
            rows: mid..n,
            targets: targets_b,
            hidden: hidden_b,
            delta: delta_b,
            back: back_b,
            pre_full: pre_b,
            logs: logs_b,
        },
    ]
}

/// The part of `items` that falls in `lo..hi`, counted from `lo`.
fn clamp_range(items: &std::ops::Range<usize>, lo: usize, hi: usize) -> std::ops::Range<usize> {
    items.start.clamp(lo, hi) - lo..items.end.clamp(lo, hi) - lo
}

/// One fixed-size chunk of rows through the plan, in three phases:
///
/// 1. hidden activations: the full units gathered over each row's set
///    bits, one pre-activation and `tanh` per sparse pattern;
/// 2. per row: the sparse units' activations broadcast from their
///    patterns, `S = σ(hidden·Vᵀ)`, the live log of each output into a
///    per-row buffer, `D = S − T`, and (when wanted) the hidden deltas;
/// 3. (when wanted) the backward items: `dV` entries, the full units'
///    `dW` rows and the sparse `dW` entries.
///
/// `split` runs each phase as two halves, cut at the chunk's
/// [`Halves`]: phases 1 and 2 by rows and patterns, phase 3 by items.
/// Without it the first half is the whole chunk and the second is empty.
/// Every value is computed by one half, start to finish, in the
/// reference's order (see [`CrossEntropyObjective`]); the loss is summed
/// in row order from the per-row logs after phase 2.
///
/// The chunk's activations and deltas are stored node-major (node `m`'s
/// values for the chunk's rows are `hidden[m * n..(m + 1) * n]`), so every
/// inner loop runs over rows; each element is still accumulated in the
/// reference's order (ascending node index for `σ(hidden·Vᵀ)` and the
/// hidden deltas, ascending row for `dV`).
fn eval_chunk(
    ctx: &EvalCtx<'_>,
    chunk: &ChunkPlan,
    range: std::ops::Range<usize>,
    split: Option<Fork>,
) -> Partial {
    let plan = ctx.plan;
    let (h, o, n_w) = (plan.h, plan.o, plan.w_start[plan.h]);
    let n_full = plan.full.len();
    let bits = crate::mlp::chunk_bits(ctx.data, &range);
    let targets = &ctx.data.targets()[range];
    let n = targets.len();
    let n_patterns = chunk.pattern_offsets.len() - 1;
    let n_items = o * h + n_full + chunk.entries.len();
    let (fork, halves) = match split {
        Some(fork) => (fork, chunk.halves),
        None => {
            let whole = Halves {
                row: n,
                pattern: n_patterns,
                item: n_items,
            };
            (sequential as Fork, whole)
        }
    };
    let second_dw = if split.is_some() && ctx.want_grad {
        n_w
    } else {
        0
    };
    // The n-proportional buffers come from the thread-local scratch cache
    // (reused across this thread's chunks and calls, and zeroed); only the
    // small per-chunk gradients (`dw`, `dv`) are owned, since they travel
    // back through the ordered reduction.
    let sizes = [
        n * h,
        n * o,
        n * h,
        n * n_full,
        n_patterns,
        n * o,
        second_dw,
    ];
    crate::par::with_scratch(&sizes, |bufs| {
        let [hidden, delta, back, pre_full, acts, logs, dw_second] = bufs else {
            unreachable!("seven scratch buffers requested");
        };
        {
            let row_bufs = [&mut hidden[..], delta, back, pre_full, logs];
            let [mut first, mut second] = row_halves(targets, halves.row, row_bufs);
            let (acts_a, acts_b) = acts.split_at_mut(halves.pattern);
            fork(
                &mut || activate(ctx, chunk, bits, &mut first, 0, acts_a),
                &mut || activate(ctx, chunk, bits, &mut second, halves.pattern, acts_b),
            );
            let acts = &acts[..];
            fork(
                &mut || respond(ctx, chunk, acts, n, &mut first),
                &mut || respond(ctx, chunk, acts, n, &mut second),
            );
        }
        // Cross entropy, summed in row order.
        let mut loss = 0.0;
        for &l in logs.iter() {
            loss -= l;
        }
        if !ctx.want_grad {
            return Partial {
                loss,
                dw: Vec::new(),
                dv: Vec::new(),
            };
        }

        let mut dw = vec![0.0; n_w];
        let mut dv = vec![0.0; o * h];
        let (dv_a, dv_b) = dv.split_at_mut(halves.item.min(o * h));
        let state = (&hidden[..], &delta[..], &back[..]);
        let (first, second) = (0..halves.item, halves.item..n_items);
        fork(
            &mut || backward(ctx, chunk, bits, n, state, &first, dv_a, &mut dw),
            &mut || backward(ctx, chunk, bits, n, state, &second, dv_b, dw_second),
        );
        // The second half's entries, into the first half's zeros.
        if split.is_some() {
            crate::matrix::axpy(1.0, dw_second, &mut dw);
        }
        Partial { loss, dw, dv }
    })
}

/// Phase 1 of [`eval_chunk`] for `half`'s rows and the patterns from
/// `first_pattern` on (as many as `acts` holds).
fn activate(
    ctx: &EvalCtx<'_>,
    chunk: &ChunkPlan,
    (indices, offsets): (&[u32], &[usize]),
    half: &mut RowHalf<'_>,
    first_pattern: usize,
    acts: &mut [f64],
) {
    let plan = ctx.plan;
    let n_full = plan.full.len();
    let RowHalf {
        rows,
        hidden,
        pre_full,
        ..
    } = half;
    // Full units: one set-bit gather per row.
    if n_full > 0 {
        let offsets = &offsets[rows.start..=rows.end];
        let n = rows.len();
        crate::matrix::gemm_bits_nt(
            n,
            n_full,
            plan.n_in,
            indices,
            offsets,
            &ctx.w_full,
            pre_full,
        );
        for (j, &m) in plan.full.iter().enumerate() {
            let column = pre_full.iter().skip(j).step_by(n_full);
            for (a, &z) in hidden[m].iter_mut().zip(column) {
                *a = Activation::Tanh.apply(z);
            }
        }
    }
    // Sparse patterns: one pre-activation and `tanh` each. Four patterns'
    // sums advance side by side as far as the shortest (four independent
    // add chains, each in ascending input order), then each finishes
    // alone.
    let x = ctx.x;
    let params =
        |q: usize| &chunk.pattern_params[chunk.pattern_offsets[q]..chunk.pattern_offsets[q + 1]];
    let sum = |mut z: f64, ks: &[u32]| {
        for &k in ks {
            z += x[k as usize];
        }
        z
    };
    let mut quads = acts.chunks_exact_mut(4);
    let mut q = first_pattern;
    for quad in &mut quads {
        let [k0, k1, k2, k3] = [0, 1, 2, 3].map(|i| params(q + i));
        let common = k0.len().min(k1.len()).min(k2.len()).min(k3.len());
        let mut z = [0.0; 4];
        for i in 0..common {
            z[0] += x[k0[i] as usize];
            z[1] += x[k1[i] as usize];
            z[2] += x[k2[i] as usize];
            z[3] += x[k3[i] as usize];
        }
        for (i, (act, z)) in quad.iter_mut().zip(z).enumerate() {
            *act = Activation::Tanh.apply(sum(z, &params(q + i)[common..]));
        }
        q += 4;
    }
    for act in quads.into_remainder() {
        *act = Activation::Tanh.apply(sum(0.0, params(q)));
        q += 1;
    }
}

/// Phase 2 of [`eval_chunk`] for `half`'s rows, with all of the chunk's
/// pattern activations `acts` (`n` is the chunk's row count).
fn respond(ctx: &EvalCtx<'_>, chunk: &ChunkPlan, acts: &[f64], n: usize, half: &mut RowHalf<'_>) {
    let RowHalf {
        rows,
        targets,
        hidden,
        delta,
        back,
        logs,
        ..
    } = half;
    let plan = ctx.plan;
    let (h, o) = (plan.h, plan.o);
    let v = ctx.v.as_slice();
    // Sparse units: their patterns' activations, broadcast to the rows.
    for (s, &(m, _)) in plan.sparse.iter().enumerate() {
        let unit_acts = &acts[chunk.unit_patterns[s]..chunk.unit_patterns[s + 1]];
        let patterns = &chunk.row_pattern[s * n + rows.start..s * n + rows.end];
        for (a, &q) in hidden[m].iter_mut().zip(patterns) {
            *a = unit_acts[q as usize];
        }
    }

    // Output layer: S = σ(hidden·Vᵀ), summed over hidden nodes in
    // ascending order from +0.0.
    for (out, vrow) in delta.iter_mut().zip(v.chunks_exact(h)) {
        for (arow, &w) in hidden.iter().zip(vrow) {
            for (u, &a) in out.iter_mut().zip(arow.iter()) {
                *u += a * w;
            }
        }
        for s in out.iter_mut() {
            *s = Activation::Sigmoid.apply(*s);
        }
    }
    // The live log of each output, and the output deltas D = S − T =
    // dE/du in place of S.
    for (r, (&target, lrow)) in targets.iter().zip(logs.chunks_exact_mut(o)).enumerate() {
        for (p, l) in lrow.iter_mut().enumerate() {
            let s = &mut delta[p][r];
            let live = p == target;
            let sc = s.clamp(EPS, 1.0 - EPS);
            *l = if live { sc } else { 1.0 - sc }.ln();
            *s -= if live { 1.0 } else { 0.0 };
        }
    }
    if !ctx.want_grad {
        return;
    }
    // Hidden deltas (D·V) ⊙ (1−hidden²), summed over outputs in ascending
    // order from +0.0.
    for (m, (brow, arow)) in back.iter_mut().zip(hidden.iter()).enumerate() {
        for (drow, vrow) in delta.iter().zip(v.chunks_exact(h)) {
            let w = vrow[m];
            for (b, &d) in brow.iter_mut().zip(drow.iter()) {
                *b += term(d, w);
            }
        }
        for (b, &a) in brow.iter_mut().zip(arow.iter()) {
            *b *= Activation::Tanh.derivative_from_output(a);
        }
    }
}

/// A backward term `d·w`, or +0.0 for a zero output delta: the reference
/// skips those terms, and `d·w` could be NaN where it does.
#[inline]
fn term(d: f64, w: f64) -> f64 {
    if d != 0.0 {
        d * w
    } else {
        0.0
    }
}

/// Phase 3 of [`eval_chunk`] for backward items `items` (see
/// [`Halves::item`]): their `dV` entries into `dv`, which starts at the
/// first of them, and their `dW` entries into `dw`. `hidden`, `delta` and
/// `back` are the whole chunk's, node-major.
fn backward(
    ctx: &EvalCtx<'_>,
    chunk: &ChunkPlan,
    (indices, offsets): (&[u32], &[usize]),
    n: usize,
    (hidden, delta, back): (&[f64], &[f64], &[f64]),
    items: &std::ops::Range<usize>,
    dv: &mut [f64],
    dw: &mut [f64],
) {
    let plan = ctx.plan;
    let (h, n_dv) = (plan.h, plan.o * plan.h);
    let n_full = plan.full.len();
    // dV = Dᵀ·hidden, over rows in ascending order. Four entries advance
    // side by side (four independent add chains over the same rows).
    let rows_of = |e: usize| (&delta[e / h * n..][..n], &hidden[e % h * n..][..n]);
    let mut e = clamp_range(items, 0, n_dv).start;
    let mut quads = dv.chunks_exact_mut(4);
    for quad in &mut quads {
        let [(d0, a0), (d1, a1), (d2, a2), (d3, a3)] = [0, 1, 2, 3].map(|i| rows_of(e + i));
        let mut g = [0.0; 4];
        for r in 0..n {
            g[0] += term(d0[r], a0[r]);
            g[1] += term(d1[r], a1[r]);
            g[2] += term(d2[r], a2[r]);
            g[3] += term(d3[r], a3[r]);
        }
        quad.copy_from_slice(&g);
        e += 4;
    }
    for g in quads.into_remainder() {
        let (drow, arow) = rows_of(e);
        for (&d, &a) in drow.iter().zip(arow) {
            *g += term(d, a);
        }
        e += 1;
    }
    // Full units: each row's hidden delta scattered over its set bits,
    // rows ascending (a zero delta adds nothing and is skipped).
    for &m in &plan.full[clamp_range(items, n_dv, n_dv + n_full)] {
        let dwrow = &mut dw[plan.w_start[m]..plan.w_start[m + 1]];
        for (r, &b) in back[m * n..(m + 1) * n].iter().enumerate() {
            if b != 0.0 {
                for &l in &indices[offsets[r]..offsets[r + 1]] {
                    dwrow[l as usize] += b;
                }
            }
        }
    }
    // Sparse units: each entry summed over its column's rows, ascending.
    // Four entries advance side by side as far as the shortest column
    // (four independent add chains, each in its own order), then each
    // finishes alone.
    let entries = &chunk.entries[clamp_range(items, n_dv + n_full, usize::MAX)];
    let rows_of = |e: &Entry| {
        let rows = &chunk.col_rows[e.rows.0..e.rows.1];
        (rows, &back[e.m * n..(e.m + 1) * n])
    };
    let sum = |mut g: f64, rows: &[u16], b: &[f64]| {
        for &r in rows {
            g += b[r as usize];
        }
        g
    };
    let mut quads = entries.chunks_exact(4);
    for quad in &mut quads {
        let [(r0, b0), (r1, b1), (r2, b2), (r3, b3)] = [0, 1, 2, 3].map(|i| rows_of(&quad[i]));
        let common = r0.len().min(r1.len()).min(r2.len()).min(r3.len());
        let mut g = [0.0; 4];
        for i in 0..common {
            g[0] += b0[r0[i] as usize];
            g[1] += b1[r1[i] as usize];
            g[2] += b2[r2[i] as usize];
            g[3] += b3[r3[i] as usize];
        }
        for (e, g) in quad.iter().zip(g) {
            let (rows, b) = rows_of(e);
            dw[e.k] = sum(g, &rows[common..], b);
        }
    }
    for e in quads.remainder() {
        let (rows, b) = rows_of(e);
        dw[e.k] = sum(0.0, rows, b);
    }
}

impl Objective for CrossEntropyObjective<'_> {
    fn dim(&self) -> usize {
        self.links.len()
    }

    fn value(&self, x: &[f64]) -> f64 {
        self.evaluate(x, None)
    }

    fn gradient(&self, x: &[f64], grad: &mut [f64]) {
        self.evaluate(x, Some(grad));
    }

    fn value_and_gradient(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        self.evaluate(x, Some(grad))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinkId;
    use nr_opt::numeric_gradient;

    fn toy_data() -> EncodedDataset {
        // 3 inputs (last = bias), 4 rows, 2 classes.
        EncodedDataset::from_parts(
            vec![
                1.0, 0.0, 1.0, //
                0.0, 1.0, 1.0, //
                1.0, 1.0, 1.0, //
                0.0, 0.0, 1.0,
            ],
            3,
            vec![0, 1, 0, 1],
            2,
        )
    }

    #[test]
    fn penalty_value_and_derivative() {
        let p = Penalty::default();
        assert_eq!(p.value(0.0), 0.0);
        assert_eq!(p.derivative(0.0), 0.0);
        // Saturating term tends to eps1 for large weights.
        assert!((p.value(100.0) - (0.1 + 1e-4 * 10_000.0)).abs() < 1e-3);
        // Finite difference check.
        for &t in &[-2.0, -0.3, 0.1, 1.5] {
            let h = 1e-7;
            let numeric = (p.value(t + h) - p.value(t - h)) / (2.0 * h);
            assert!((numeric - p.derivative(t)).abs() < 1e-6);
        }
    }

    #[test]
    fn penalty_none_is_zero() {
        let p = Penalty::none();
        assert_eq!(p.value(3.0), 0.0);
        assert_eq!(p.derivative(3.0), 0.0);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let net = Mlp::random(3, 3, 2, 11);
        let data = toy_data();
        let obj = CrossEntropyObjective::new(&net, &data, Penalty::default());
        let x = net.flatten_active();
        let mut analytic = vec![0.0; obj.dim()];
        obj.gradient(&x, &mut analytic);
        let numeric = numeric_gradient(&obj, &x, 1e-6);
        for (k, (a, n)) in analytic.iter().zip(&numeric).enumerate() {
            assert!(
                (a - n).abs() < 1e-5 * (1.0 + a.abs()),
                "coordinate {k}: analytic {a} vs numeric {n}"
            );
        }
    }

    #[test]
    fn gradient_matches_with_pruned_links() {
        let mut net = Mlp::random(3, 3, 2, 13);
        net.prune(LinkId::InputHidden {
            hidden: 0,
            input: 1,
        });
        net.prune(LinkId::HiddenOutput {
            output: 1,
            hidden: 2,
        });
        let data = toy_data();
        let obj = CrossEntropyObjective::new(&net, &data, Penalty::default());
        assert_eq!(obj.dim(), net.n_active());
        let x = net.flatten_active();
        let mut analytic = vec![0.0; obj.dim()];
        obj.gradient(&x, &mut analytic);
        let numeric = numeric_gradient(&obj, &x, 1e-6);
        for (a, n) in analytic.iter().zip(&numeric) {
            assert!((a - n).abs() < 1e-5 * (1.0 + a.abs()), "{a} vs {n}");
        }
    }

    #[test]
    fn value_and_gradient_consistent() {
        let net = Mlp::random(3, 2, 2, 17);
        let data = toy_data();
        let obj = CrossEntropyObjective::new(&net, &data, Penalty::default());
        let x = net.flatten_active();
        let mut g = vec![0.0; obj.dim()];
        let v1 = obj.value(&x);
        let v2 = obj.value_and_gradient(&x, &mut g);
        assert_eq!(v1.to_bits(), v2.to_bits());
    }

    #[test]
    fn loss_decreases_along_negative_gradient() {
        let net = Mlp::random(3, 2, 2, 19);
        let data = toy_data();
        let obj = CrossEntropyObjective::new(&net, &data, Penalty::default());
        let x = net.flatten_active();
        let mut g = vec![0.0; obj.dim()];
        let f0 = obj.value_and_gradient(&x, &mut g);
        let step: Vec<f64> = x.iter().zip(&g).map(|(xi, gi)| xi - 1e-3 * gi).collect();
        assert!(obj.value(&step) < f0);
    }

    #[test]
    fn perfect_outputs_give_near_zero_loss() {
        // One input+bias, strong weights: class 0 for x=1 after training by hand.
        let mut net = Mlp::random(2, 1, 2, 23);
        net.set_weight(
            LinkId::InputHidden {
                hidden: 0,
                input: 0,
            },
            50.0,
        );
        net.set_weight(
            LinkId::InputHidden {
                hidden: 0,
                input: 1,
            },
            -25.0,
        );
        net.set_weight(
            LinkId::HiddenOutput {
                output: 0,
                hidden: 0,
            },
            50.0,
        );
        net.set_weight(
            LinkId::HiddenOutput {
                output: 1,
                hidden: 0,
            },
            -50.0,
        );
        let data = EncodedDataset::from_parts(vec![1.0, 1.0, 0.0, 1.0], 2, vec![0, 1], 2);
        let obj = CrossEntropyObjective::new(&net, &data, Penalty::none());
        let loss = obj.value(&net.flatten_active());
        assert!(loss < 1e-8, "loss {loss}");
    }

    /// The second half on a thread of its own, so the split runs on two
    /// threads whether or not a pool worker is free.
    fn scoped(a: &mut (dyn FnMut() + Send), b: &mut (dyn FnMut() + Send)) {
        std::thread::scope(|s| {
            s.spawn(b);
            a();
        });
    }

    /// The halves in reverse order.
    fn reversed(a: &mut (dyn FnMut() + Send), b: &mut (dyn FnMut() + Send)) {
        b();
        a();
    }

    /// A small deterministic stream for fixtures.
    fn lcg(state: &mut u64) -> usize {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (*state >> 33) as usize
    }

    /// `rows` 0/1 rows over `n_in` inputs, the last one a bias.
    fn random_rows(rows: usize, n_in: usize, classes: usize, seed: u64) -> EncodedDataset {
        let mut state = seed;
        let mut x = vec![0.0; rows * n_in];
        for row in x.chunks_exact_mut(n_in) {
            for v in row.iter_mut() {
                if lcg(&mut state) % 3 == 0 {
                    *v = 1.0;
                }
            }
            row[n_in - 1] = 1.0;
        }
        let targets = (0..rows).map(|_| lcg(&mut state) % classes).collect();
        EncodedDataset::from_parts(x, n_in, targets, classes)
    }

    /// Hidden unit 0 fed by every input, unit 1 by none, unit 2 feeding no
    /// output; every other link pruned with probability `prune_pct`%.
    fn shaped_net(n_in: usize, h: usize, o: usize, prune_pct: usize, seed: u64) -> Mlp {
        let mut net = Mlp::random(n_in, h, o, seed);
        let mut state = seed;
        for link in net.active_links() {
            let drop = match link {
                LinkId::InputHidden { hidden: 0, .. } => false,
                LinkId::InputHidden { hidden: 1, .. } => true,
                LinkId::HiddenOutput { hidden: 2, .. } => true,
                _ => lcg(&mut state) % 100 < prune_pct,
            };
            if drop {
                net.prune(link);
            }
        }
        net
    }

    #[test]
    fn balance_cuts_at_the_middle_of_the_work() {
        assert_eq!(balance(std::iter::empty()), 0);
        assert_eq!(balance([10].into_iter()), 1);
        assert_eq!(balance([5, 5].into_iter()), 1);
        assert_eq!(balance([1, 1, 10].into_iter()), 2);
        assert_eq!(balance([10, 1, 1].into_iter()), 1);
        assert_eq!(balance([0, 0, 0].into_iter()), 3);
    }

    /// Every split schedule (two threads, reversed halves, the pool's
    /// session) gives the inline evaluation's value and gradient bits, at
    /// row counts around the halves' and the chunk's edges and under masks
    /// from none to 95%.
    #[test]
    fn split_evaluation_is_bit_identical_to_inline() {
        let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for rows in [1, 2, 3, 511, 512, 513, 1000, 1024] {
            for (k, prune_pct) in [0, 40, 80, 95].into_iter().enumerate() {
                let seed = (rows * 7 + k) as u64;
                // 140 inputs: at 40% pruned, a sparse unit's pattern spans
                // two mask words.
                let data = random_rows(rows, 140, 2, seed);
                let net = shaped_net(140, 5, 3, prune_pct, seed);
                let obj =
                    CrossEntropyObjective::new(&net, &data, Penalty::default()).with_threads(1);
                assert_eq!(obj.plan.chunks.len(), 1);
                let x = net.flatten_active();
                let mut want_grad = vec![0.0; obj.dim()];
                let want = obj.value_and_gradient(&x, &mut want_grad);
                for fork in [scoped as Fork, reversed, pooled] {
                    let mut grad = vec![0.0; obj.dim()];
                    let loss = obj.evaluate_with(&x, Some(&mut grad), Some(fork));
                    let value = obj.evaluate_with(&x, None, Some(fork));
                    let case = format!("rows {rows}, {prune_pct}% pruned");
                    assert_eq!(loss.to_bits(), want.to_bits(), "{case}: loss");
                    assert_eq!(value.to_bits(), want.to_bits(), "{case}: value");
                    assert_eq!(bits(&grad), bits(&want_grad), "{case}: gradient");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn rejects_mismatched_data() {
        let net = Mlp::random(3, 2, 2, 1);
        let data = EncodedDataset::from_parts(vec![1.0, 1.0], 2, vec![0], 2);
        let _ = CrossEntropyObjective::new(&net, &data, Penalty::default());
    }
}
