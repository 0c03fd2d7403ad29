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
        ChunkPlan {
            row_pattern,
            unit_patterns,
            pattern_offsets,
            pattern_params,
            col_rows,
            entries,
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
    /// on the caller's thread; any other value (`0` = auto-detect) runs
    /// multi-chunk datasets on the **shared worker pool**, whose size is
    /// fixed process-wide at `min(available_parallelism, 8)` — the value
    /// is not a per-call worker count.
    ///
    /// Purely a throughput knob either way: the fixed chunking and ordered
    /// reduction make the result bit-identical in every mode.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Shared forward/backward pass. When `grad` is `Some`, accumulates the
    /// gradient (in link order) as well.
    ///
    /// Each chunk job evaluates its rows through the plan: hidden
    /// activations (full units gathered over the rows' set bits, sparse
    /// units once per pattern), `S = σ(hidden·Vᵀ)`, the live log of each
    /// output and `D = S − T`, then `dV`, the back-propagated hidden
    /// deltas and the active `dW` entries. Per-chunk partial losses and
    /// gradients are reduced in chunk order, so the result does not depend
    /// on the thread count.
    fn evaluate(&self, x: &[f64], mut grad: Option<&mut [f64]>) -> f64 {
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
        let threads = crate::par::resolve_threads(self.threads, plan.chunks.len());
        let partials = crate::par::map_chunks(rows, threads, |c, range| {
            eval_chunk(&ctx, &plan.chunks[c], range)
        });

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

/// One fixed-size chunk of rows through the plan: hidden activations,
/// output activations, cross entropy and output deltas, then (when
/// wanted) `dV`, the hidden deltas and the active `dW` entries.
///
/// The chunk's activations and deltas are stored node-major (node `m`'s
/// values for the chunk's rows are `hidden[m * n..(m + 1) * n]`), so every
/// inner loop runs over rows; each element is still accumulated in the
/// reference's order (ascending node index for `σ(hidden·Vᵀ)` and the
/// hidden deltas, ascending row for `dV`).
fn eval_chunk(ctx: &EvalCtx<'_>, chunk: &ChunkPlan, range: std::ops::Range<usize>) -> Partial {
    let plan = ctx.plan;
    let (n_in, h, o) = (plan.n_in, plan.h, plan.o);
    let n_full = plan.full.len();
    let (indices, offsets) = crate::mlp::chunk_bits(ctx.data, &range);
    let targets = &ctx.data.targets()[range];
    let n = targets.len();
    let v = ctx.v.as_slice();
    // The n-proportional buffers come from the thread-local scratch cache
    // (reused across this worker's chunks and calls, and zeroed); only the
    // small per-chunk gradients (`dw`, `dv`) are owned, since they travel
    // back through the ordered reduction.
    let n_patterns = chunk.pattern_offsets.len() - 1;
    let sizes = [n * h, n * o, n * h, n * n_full, n_patterns];
    crate::par::with_scratch(&sizes, |bufs| {
        let [hidden, delta, back, pre_full, acts] = bufs else {
            unreachable!("five scratch buffers requested");
        };

        // Hidden activations. Full units: one set-bit gather per row.
        if n_full > 0 {
            crate::matrix::gemm_bits_nt(n, n_full, n_in, indices, offsets, &ctx.w_full, pre_full);
            for (j, &m) in plan.full.iter().enumerate() {
                let column = pre_full.iter().skip(j).step_by(n_full);
                for (a, &z) in hidden[m * n..(m + 1) * n].iter_mut().zip(column) {
                    *a = Activation::Tanh.apply(z);
                }
            }
        }
        // Sparse units: one pre-activation and `tanh` per pattern,
        // broadcast to the pattern's rows.
        for (q, act) in acts.iter_mut().enumerate() {
            let params =
                &chunk.pattern_params[chunk.pattern_offsets[q]..chunk.pattern_offsets[q + 1]];
            let mut z = 0.0;
            for &k in params {
                z += ctx.x[k as usize];
            }
            *act = Activation::Tanh.apply(z);
        }
        for (s, &(m, _)) in plan.sparse.iter().enumerate() {
            let unit_acts = &acts[chunk.unit_patterns[s]..chunk.unit_patterns[s + 1]];
            let patterns = &chunk.row_pattern[s * n..(s + 1) * n];
            for (a, &q) in hidden[m * n..(m + 1) * n].iter_mut().zip(patterns) {
                *a = unit_acts[q as usize];
            }
        }

        // Output layer: S = σ(hidden·Vᵀ), summed over hidden nodes in
        // ascending order from +0.0.
        for (out, vrow) in delta.chunks_exact_mut(n).zip(v.chunks_exact(h)) {
            for (arow, &w) in hidden.chunks_exact(n).zip(vrow) {
                for (u, &a) in out.iter_mut().zip(arow) {
                    *u += a * w;
                }
            }
            for s in out.iter_mut() {
                *s = Activation::Sigmoid.apply(*s);
            }
        }
        // Cross entropy, row by row with the live log of each output only,
        // and the output deltas D = S − T = dE/du in place of S.
        let mut loss = 0.0;
        for (r, &target) in targets.iter().enumerate() {
            for p in 0..o {
                let s = &mut delta[p * n + r];
                let live = p == target;
                let sc = s.clamp(EPS, 1.0 - EPS);
                loss -= if live { sc } else { 1.0 - sc }.ln();
                *s -= if live { 1.0 } else { 0.0 };
            }
        }

        if !ctx.want_grad {
            return Partial {
                loss,
                dw: Vec::new(),
                dv: Vec::new(),
            };
        }

        // Backward. A zero output delta contributes nothing: its terms are
        // skipped or replaced by +0.0 (`d·w` is never formed, since it
        // could be NaN where the reference skips it).
        let term = |d: f64, w: f64| if d != 0.0 { d * w } else { 0.0 };
        // dV = Dᵀ·hidden, over rows in ascending order.
        let mut dv = vec![0.0; o * h];
        for (dvrow, drow) in dv.chunks_exact_mut(h).zip(delta.chunks_exact(n)) {
            for (g, arow) in dvrow.iter_mut().zip(hidden.chunks_exact(n)) {
                for (&d, &a) in drow.iter().zip(arow) {
                    *g += term(d, a);
                }
            }
        }
        // Hidden deltas (D·V) ⊙ (1−hidden²), summed over outputs in
        // ascending order from +0.0.
        for (m, (brow, arow)) in back
            .chunks_exact_mut(n)
            .zip(hidden.chunks_exact(n))
            .enumerate()
        {
            for (drow, vrow) in delta.chunks_exact(n).zip(v.chunks_exact(h)) {
                let w = vrow[m];
                for (b, &d) in brow.iter_mut().zip(drow) {
                    *b += term(d, w);
                }
            }
            for (b, &a) in brow.iter_mut().zip(arow) {
                *b *= Activation::Tanh.derivative_from_output(a);
            }
        }

        // dW, active entries only. Full units: each row's hidden delta
        // scattered over its set bits, rows ascending (a zero delta adds
        // nothing and is skipped).
        let mut dw = vec![0.0; plan.w_start[h]];
        for &m in &plan.full {
            let dwrow = &mut dw[plan.w_start[m]..plan.w_start[m + 1]];
            for (r, &b) in back[m * n..(m + 1) * n].iter().enumerate() {
                if b != 0.0 {
                    for &l in &indices[offsets[r]..offsets[r + 1]] {
                        dwrow[l as usize] += b;
                    }
                }
            }
        }
        // Sparse units: each entry summed over its column's rows,
        // ascending. Four entries advance side by side as far as the
        // shortest column (four independent add chains, each in its own
        // order), then each finishes alone.
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
        let mut quads = chunk.entries.chunks_exact(4);
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
        Partial { loss, dw, dv }
    })
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

    #[test]
    #[should_panic(expected = "must match")]
    fn rejects_mismatched_data() {
        let net = Mlp::random(3, 2, 2, 1);
        let data = EncodedDataset::from_parts(vec![1.0, 1.0], 2, vec![0], 2);
        let _ = CrossEntropyObjective::new(&net, &data, Penalty::default());
    }
}
