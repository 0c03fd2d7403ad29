//! The training objective: cross entropy (eq. 2) + penalty (eq. 3).

use nr_encode::EncodedDataset;
use nr_opt::Objective;
use serde::{Deserialize, Serialize};

use std::sync::Mutex;
use std::time::Instant;

use crate::{Activation, Mlp};

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
/// Rows are sharded into fixed 1,024-row chunks, evaluated one after
/// another in chunk order; each chunk's loss and gradient are added into
/// the totals before the next chunk starts, so a chunk's schedule never
/// changes the result. Each chunk is split between two threads
/// (`crate::par::join`): each of its three phases runs as two halves, the
/// forward work by pattern and row ranges and the backward work by
/// `dV`/`dW` entries, cut where the halves last ran about equally long
/// (see `Balance`). The split gives the inline bits, wherever it cuts, for
/// two more reasons:
///
/// 4. **Every value is computed whole by one half, in the reference's
///    order.** A pattern's sum and `tanh`, a row's activations, outputs,
///    logs and deltas, and each `dV` or `dW` entry's chain over the rows
///    belong to one half; the halves of a phase only share its read-only
///    inputs. The loss is one chain in row order: the first half runs it
///    over its own rows' logs, and the caller continues it over the second
///    half's once both have written theirs (first thing in its backward
///    half, when there is one). Each half's `dV` and `dW` entries
///    land in a gradient buffer of its own that is `+0.0` everywhere else,
///    and the reduction adds the two, which by reason 1 leaves every
///    entry's bits unchanged.
/// 5. **The thread that zeroes or writes a buffer never changes a
///    value.** One set of buffers, laid out half-major for the largest
///    chunk (`Layout`), lives as long as the objective and serves every
///    chunk in turn. Each half zeroes and writes only its own: its rows'
///    activations, deltas and logs, its patterns' activations and its
///    gradient buffers, which it zeroes whole before its backward items.
///    What a half reads was written earlier in the same chunk, by it or by
///    the other half before a join. So which thread wrote a buffer, and in
///    which evaluation, only decides whose cache holds it.
pub struct CrossEntropyObjective<'a> {
    data: &'a EncodedDataset,
    penalty: Penalty,
    /// Canonical order of the active links, cached.
    links: Vec<crate::LinkId>,
    /// The per-retrain active-link plan.
    plan: Plan,
    /// The evaluation buffers, reused by every evaluation (one at a time).
    buffers: Mutex<Buffers>,
}

/// What an evaluation writes: the parameters it unpacks for the data pass
/// and the chunks' buffers (see [`Layout`]).
struct Buffers {
    /// The full units' weight rows (`plan.full.len() × n_in`, row-major).
    w_full: Vec<f64>,
    /// Dense hidden→output weights (`o × h`, row-major; masked entries
    /// stay zero).
    v: Vec<f64>,
    /// Each chunk's evaluation buffers, one chunk at a time.
    region: Vec<f64>,
    /// Where the chunks' halves are cut.
    balance: Balance,
}

/// The cut of the chunks' split evaluations, moved toward equal run times
/// of their halves: the two threads need not run equally fast, nor the
/// work model ([`ChunkPlan::halves`]) be exact. Every chunk takes its cut
/// from the same shares. Every [`SAMPLE_EVERY`]-th chunk evaluation times
/// its halves; where they ran side by side, each phase's share moves a
/// [`STEP`] of the way to the share that would have ended both at once,
/// the second half timed from the first half's start, so its hand-off
/// counts too.
struct Balance {
    /// The first half's share of each phase's modeled work.
    shares: [f64; 3],
    /// Chunk evaluations so far.
    evals: u64,
}

const SAMPLE_EVERY: u64 = 4;
const STEP: f64 = 0.25;

/// When one half of a phase started and ended, if it was timed.
type Span = Option<(Instant, Instant)>;

impl Balance {
    /// Moves the shares toward the run times of `spans`, the halves'
    /// spans of an evaluation that gave them `work` (see
    /// [`ChunkPlan::work`]).
    fn adapt(&mut self, spans: &[[Span; 2]; 3], work: &[[usize; 2]; 3]) {
        for ((share, spans), &[work_a, work_b]) in self.shares.iter_mut().zip(spans).zip(work) {
            let [Some((start_a, end_a)), Some((start_b, end_b))] = *spans else {
                continue;
            };
            if start_b >= end_a || start_a >= end_b || work_a == 0 || work_b == 0 {
                continue;
            }
            let speed_a = work_a as f64 / (end_a - start_a).as_secs_f64();
            let speed_b = work_b as f64 / (end_b - start_a).as_secs_f64();
            let even = speed_a / (speed_a + speed_b);
            if even.is_finite() {
                *share = (*share + STEP * (even - *share)).clamp(0.1, 0.9);
            }
        }
    }
}

/// Runs `f`, recording its span when `clock` is set.
fn timed(clock: bool, span: &mut Span, f: impl FnOnce()) {
    let start = clock.then(Instant::now);
    f();
    *span = start.map(|start| (start, Instant::now()));
}

/// The buffers' lock, taken whether or not an evaluation panicked holding
/// it: no state crosses evaluations (each writes what it reads first, and
/// each half zeroes its gradient buffers), so there is nothing to clear.
fn unpoison<T>(lock: Result<T, std::sync::PoisonError<T>>) -> T {
    lock.unwrap_or_else(std::sync::PoisonError::into_inner)
}

// Chunk-relative rows and per-unit pattern ids are stored as `u16`.
const _: () = assert!(crate::par::CHUNK_ROWS < u16::MAX as usize);

/// What [`CrossEntropyObjective::new`] derives from the active set: the
/// hidden units' parameter ranges, which units gather the rows' own set
/// bits ("full") and which go through patterns ("sparse"), one
/// [`ChunkPlan`] per fixed row chunk and the chunks' [`Layout`].
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
    /// The dense `o × h` index of each hidden→output parameter, in
    /// parameter order (they follow the input links).
    v_index: Vec<usize>,
    /// One plan per fixed row chunk, in chunk order.
    chunks: Vec<ChunkPlan>,
    /// Where a chunk's evaluation buffers sit in the region.
    layout: Layout,
}

/// The sparse units' row groupings within one row chunk.
struct ChunkPlan {
    /// The chunk's dataset rows.
    range: std::ops::Range<usize>,
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
    /// The modeled cost of phase 1's full-unit gathers up to each row,
    /// of its patterns up to each pattern, and of phase 3's items up to
    /// each item (see [`ChunkPlan::halves`]).
    row_cost: Vec<usize>,
    pattern_cost: Vec<usize>,
    item_cost: Vec<usize>,
}

/// Where the second half of a chunk's evaluation starts in each of
/// [`eval_chunk`]'s phases. Any cut gives the same bits (see
/// [`CrossEntropyObjective`]); it only decides how long each half runs.
#[derive(Clone, Copy)]
struct Halves {
    /// Phases 1 and 2: the chunk row.
    row: usize,
    /// Phase 1: the pattern, on a whole cache line of activations.
    pattern: usize,
    /// Phase 3: the backward item. Items are the `o × h` `dV` entries (row
    /// major), then the full units' `dW` rows, then the sparse `dW`
    /// entries.
    item: usize,
}

/// Work-cost weights of [`ChunkPlan::halves`], measured on the `mine`
/// fits: a `tanh` costs about 12 added parameters, and one row of a `dV`
/// entry (two loads, a product and a zero-delta select) about 2.5 added
/// elements of a `dW` entry, so backward items are costed in half
/// elements. Every row of phase 2 costs about the same.
const TANH_COST: usize = 12;
/// Equal shares of every phase's modeled work.
const EVEN: [f64; 3] = [0.5; 3];
const DV_ROW_COST: usize = 5;
const DW_ELEMENT_COST: usize = 2;

/// Running sums of `costs`, from 0.
fn running(costs: impl Iterator<Item = usize>) -> Vec<usize> {
    std::iter::once(0)
        .chain(costs.scan(0, |sum, c| {
            *sum += c;
            Some(*sum)
        }))
        .collect()
}

/// How many of the items with running costs `sums` (see [`running`]) have
/// their middle at or before `work`.
fn cut(sums: &[usize], work: f64) -> usize {
    let (mut lo, mut hi) = (0, sums.len() - 1);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if (sums[mid] + sums[mid + 1]) as f64 <= 2.0 * work {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

impl ChunkPlan {
    /// How many patterns the chunk's sparse units have, together.
    fn patterns(&self) -> usize {
        self.pattern_offsets.len() - 1
    }

    /// The cut that gives the first half `shares[p]` of phase `p + 1`'s
    /// modeled work: of phase 2 by rows; of phase 1 by rows, then patterns
    /// (at the row cut of phase 2); of phase 3 by items.
    fn halves(&self, shares: [f64; 3]) -> Halves {
        let n = self.range.len();
        let row = ((shares[1] * n as f64).round() as usize).min(n);
        let gathers = self.row_cost[n] as f64;
        let patterns = self.patterns();
        let phase1 = gathers + self.pattern_cost[patterns] as f64;
        let pattern = cut(
            &self.pattern_cost,
            shares[0] * phase1 - self.row_cost[row] as f64,
        );
        let items = self.item_cost[self.item_cost.len() - 1] as f64;
        Halves {
            row,
            pattern: ((pattern + LINE / 2) / LINE * LINE).min(patterns),
            item: cut(&self.item_cost, shares[2] * items),
        }
    }

    /// The modeled work of each half in each phase under `halves`.
    fn work(&self, halves: &Halves) -> [[usize; 2]; 3] {
        let n = self.range.len();
        let split = |sums: &[usize], at: usize| [sums[at], sums[sums.len() - 1] - sums[at]];
        let [rows_a, rows_b] = split(&self.row_cost, halves.row);
        let [patterns_a, patterns_b] = split(&self.pattern_cost, halves.pattern);
        [
            [rows_a + patterns_a, rows_b + patterns_b],
            [halves.row, n - halves.row],
            split(&self.item_cost, halves.item),
        ]
    }
}

/// One active `dW` entry of a chunk (see [`ChunkPlan::entries`]).
#[derive(Clone, Copy)]
struct Entry {
    rows: (usize, usize),
    m: usize,
    k: usize,
}

/// `f64`s per 64-byte cache line.
const LINE: usize = 8;

/// Where a chunk's evaluation buffers sit in the region: each row half's
/// part, then the pattern activations, each starting on a cache line. A
/// half's part holds its `dW` and `dV` buffers (`n_w` and `o × h`
/// entries, each zero outside the half's backward items), then, over its
/// rows, `hidden` (`h × rows`) and `delta` (`o × rows`) and `back`
/// (`h × rows`), node-major, and `pre_full` (`rows × full units`) and
/// `logs` (`rows × o`), row-major. A half may be cut anywhere, so each
/// half's part holds every row of the largest chunk, and the pattern
/// activations the patterns of the chunk with the most.
#[derive(Clone, Copy, Default)]
struct Layout {
    /// The most rows each half's part holds.
    rows: usize,
    /// Each half's part, in whole cache lines.
    half: usize,
    /// The most patterns.
    patterns: usize,
}

/// One row half's buffers (see [`Layout`]), and its chunk rows.
struct Half<'b> {
    rows: std::ops::Range<usize>,
    dw: &'b mut [f64],
    dv: &'b mut [f64],
    hidden: &'b mut [f64],
    delta: &'b mut [f64],
    back: &'b mut [f64],
    pre_full: &'b mut [f64],
    logs: &'b mut [f64],
}

/// What phase 3 reads of one row half: its chunk rows and its node-major
/// `hidden`, `delta` and `back`.
#[derive(Clone, Copy)]
struct Nodes<'b> {
    start: usize,
    n: usize,
    hidden: &'b [f64],
    delta: &'b [f64],
    back: &'b [f64],
}

impl<'b> Nodes<'b> {
    /// Node `m`'s rows of `buf`.
    fn node(&self, buf: &'b [f64], m: usize) -> &'b [f64] {
        &buf[m * self.n..(m + 1) * self.n]
    }
}

impl<'b> Half<'b> {
    /// What phase 3 writes of the half (its `dW` and `dV` buffers) and
    /// what it reads.
    fn backward_parts(self) -> (&'b mut [f64], &'b mut [f64], Nodes<'b>) {
        let nodes = Nodes {
            start: self.rows.start,
            n: self.rows.len(),
            hidden: self.hidden,
            delta: self.delta,
            back: self.back,
        };
        (self.dw, self.dv, nodes)
    }
}

impl Layout {
    /// The layout for `plan`'s chunks.
    fn new(plan: &Plan) -> Layout {
        let (h, o, n_w) = (plan.h, plan.o, plan.w_start[plan.h]);
        let per_row = 2 * h + 2 * o + plan.full.len();
        let most = |f: fn(&ChunkPlan) -> usize| plan.chunks.iter().map(f).max().unwrap_or(0);
        let rows = most(|chunk| chunk.range.len());
        Layout {
            rows,
            half: (n_w + o * h + rows * per_row).next_multiple_of(LINE),
            patterns: most(ChunkPlan::patterns),
        }
    }

    /// The region length to allocate: the parts, plus room to start them
    /// on a cache line.
    fn len(&self) -> usize {
        2 * self.half + self.patterns + LINE - 1
    }

    /// Where the parts start in `region`: on its first cache line.
    fn skip(region: &[f64]) -> usize {
        region.as_ptr().align_offset(64).min(LINE - 1)
    }

    /// The halves' `dW` and `dV` buffers in a region of [`Layout::len`].
    fn gradients<'b>(&self, plan: &Plan, region: &'b [f64]) -> [(&'b [f64], &'b [f64]); 2] {
        let skip = Layout::skip(region);
        let (n_w, n_v) = (plan.w_start[plan.h], plan.o * plan.h);
        [skip, skip + self.half].map(|start| {
            let part = &region[start..start + n_w + n_v];
            part.split_at(n_w)
        })
    }

    /// Cuts a region of [`Layout::len`] into the buffers of the halves of
    /// `chunk`'s rows cut at `row`, and its pattern activations.
    fn split<'b>(
        &self,
        plan: &Plan,
        region: &'b mut [f64],
        chunk: &ChunkPlan,
        row: usize,
    ) -> ([Half<'b>; 2], &'b mut [f64]) {
        let n = chunk.range.len();
        assert!(row <= n && n <= self.rows);
        let (_, region) = region.split_at_mut(Layout::skip(region));
        let (a, region) = region.split_at_mut(self.half);
        let (b, acts) = region.split_at_mut(self.half);
        let (h, o, n_w, n_full) = (plan.h, plan.o, plan.w_start[plan.h], plan.full.len());
        let half = |part: &'b mut [f64], rows: std::ops::Range<usize>| {
            let n = rows.len();
            let (dw, part) = part.split_at_mut(n_w);
            let (dv, part) = part.split_at_mut(o * h);
            let (hidden, part) = part.split_at_mut(h * n);
            let (delta, part) = part.split_at_mut(o * n);
            let (back, part) = part.split_at_mut(h * n);
            let (pre_full, part) = part.split_at_mut(n * n_full);
            let logs = &mut part[..n * o];
            Half {
                rows,
                dw,
                dv,
                hidden,
                delta,
                back,
                pre_full,
                logs,
            }
        };
        (
            [half(a, 0..row), half(b, row..n)],
            &mut acts[..chunk.patterns()],
        )
    }
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

        let v_index = links[w_start[h]..]
            .iter()
            .map(|link| match *link {
                crate::LinkId::HiddenOutput { output, hidden } => output * h + hidden,
                crate::LinkId::InputHidden { .. } => unreachable!("input links lead"),
            })
            .collect();
        let mut plan = Plan {
            n_in,
            h,
            o,
            v_index,
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
            layout: Layout::default(),
        };
        let rows = data.rows();
        plan.chunks = (0..crate::par::n_chunks(rows))
            .map(|c| plan.chunk(data, crate::par::chunk_range(c, rows)))
            .collect();
        plan.layout = Layout::new(&plan);
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

        let offsets = &data.binary_inputs().offsets()[range.start..=range.end];
        let n_full = self.full.len();
        let row_cost = running(
            offsets
                .windows(2)
                .map(|r| n_full * (r[1] - r[0] + TANH_COST)),
        );
        let pattern_cost = running(pattern_offsets.windows(2).map(|q| q[1] - q[0] + TANH_COST));
        let item_cost = running(
            std::iter::repeat_n(DV_ROW_COST * n, self.o * self.h)
                .chain(std::iter::repeat_n(
                    DW_ELEMENT_COST * (offsets[n] - offsets[0]),
                    n_full,
                ))
                .chain(
                    entries
                        .iter()
                        .map(|e| DW_ELEMENT_COST * (e.rows.1 - e.rows.0)),
                ),
        );
        ChunkPlan {
            range,
            row_pattern,
            unit_patterns,
            pattern_offsets,
            pattern_params,
            col_rows,
            entries,
            row_cost,
            pattern_cost,
            item_cost,
        }
    }
}

impl<'a> CrossEntropyObjective<'a> {
    /// Builds the objective for a network structure and dataset, planning
    /// the evaluation over the structure's active links (see the type
    /// docs) and allocating the buffers every evaluation reuses.
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
        let buffers = Buffers {
            w_full: vec![0.0; plan.full.len() * plan.n_in],
            v: vec![0.0; plan.o * plan.h],
            region: vec![0.0; plan.layout.len()],
            balance: Balance {
                shares: EVEN,
                evals: 0,
            },
        };
        CrossEntropyObjective {
            data,
            penalty,
            links,
            plan,
            buffers: Mutex::new(buffers),
        }
    }

    /// Shared forward/backward pass. When `grad` is `Some`, accumulates the
    /// gradient (in link order) as well.
    ///
    /// Each chunk is split between the caller and the pool's session
    /// worker ([`crate::par::join`]), which runs both halves on the caller
    /// on a single-core host or while another join holds the session.
    fn evaluate(&self, x: &[f64], grad: Option<&mut [f64]>) -> f64 {
        self.evaluate_with(x, grad, pooled)
    }

    /// [`Self::evaluate`] with an explicit schedule: `fork` runs the halves
    /// of each chunk's phases. The tests' `sequential`, one half after the
    /// other, is the inline reference.
    ///
    /// Each chunk evaluates its rows through the plan (see [`eval_chunk`]):
    /// hidden activations (full units gathered over the rows' set bits,
    /// sparse units once per pattern), `S = σ(hidden·Vᵀ)`, the live log of
    /// each output and `D = S − T`, then `dV`, the back-propagated hidden
    /// deltas and the active `dW` entries. The chunks run in chunk order,
    /// and each one's loss and gradient are added into the totals before
    /// the next one starts, so the result does not depend on the schedule.
    fn evaluate_with(&self, x: &[f64], mut grad: Option<&mut [f64]>, fork: Fork) -> f64 {
        let plan = &self.plan;
        let n_w = plan.w_start[plan.h];
        let mut buffers = unpoison(self.buffers.lock());
        let Buffers {
            w_full,
            v,
            region,
            balance,
        } = &mut *buffers;
        for (&e, &p) in plan.v_index.iter().zip(&x[n_w..]) {
            v[e] = p;
        }
        // The full units' weight rows, packed for the set-bit gather.
        for (row, &m) in w_full.chunks_exact_mut(plan.n_in).zip(&plan.full) {
            row.copy_from_slice(&x[plan.w_start[m]..plan.w_start[m + 1]]);
        }

        let ctx = EvalCtx {
            data: self.data,
            plan,
            x,
            w_full,
            v,
            want_grad: grad.is_some(),
        };

        if let Some(g) = grad.as_deref_mut() {
            g.fill(0.0);
        }
        // Ordered reduction: chunk 0 first, always.
        let mut loss = 0.0;
        for chunk in &plan.chunks {
            let halves = chunk.halves(balance.shares);
            let clock = balance.evals % SAMPLE_EVERY == 0;
            balance.evals += 1;
            let (chunk_loss, spans) = eval_chunk(&ctx, chunk, fork, region, halves, clock);
            loss += chunk_loss;
            if let Some(g) = grad.as_deref_mut() {
                let [(dw_a, dv_a), (dw_b, dv_b)] = plan.layout.gradients(plan, region);
                for (g, (&da, &db)) in g.iter_mut().zip(dw_a.iter().zip(dw_b)) {
                    *g += da + db;
                }
                for (g, &e) in g[n_w..].iter_mut().zip(&plan.v_index) {
                    *g += dv_a[e] + dv_b[e];
                }
            }
            balance.adapt(&spans, &chunk.work(&halves));
        }
        if let Some(g) = grad {
            // Penalty over active weights + its gradient.
            for (g, &p) in g.iter_mut().zip(x) {
                loss += self.penalty.value(p);
                *g += self.penalty.derivative(p);
            }
        } else {
            for &p in x {
                loss += self.penalty.value(p);
            }
        }
        loss
    }
}

/// Everything one chunk evaluation reads.
struct EvalCtx<'a> {
    /// The encoded dataset being evaluated.
    data: &'a EncodedDataset,
    plan: &'a Plan,
    /// The flat parameter vector.
    x: &'a [f64],
    /// The full units' weight rows (`plan.full.len() × n_in`, row-major).
    w_full: &'a [f64],
    /// Dense hidden→output weights (`o × h`, row-major; masked entries
    /// zero).
    v: &'a [f64],
    want_grad: bool,
}

/// Runs the two halves of one phase of [`eval_chunk`]: one after the
/// other, or on two threads. Which thread runs a half never changes what
/// it computes.
type Fork = fn(&mut (dyn FnMut() + Send), &mut (dyn FnMut() + Send));

/// The caller and the pool's session worker ([`crate::par::join`]).
fn pooled(a: &mut (dyn FnMut() + Send), b: &mut (dyn FnMut() + Send)) {
    crate::par::join(a, b);
}

/// Continues the loss chain `loss` over `logs`, in order.
fn minus_logs(mut loss: f64, logs: &[f64]) -> f64 {
    for &l in logs {
        loss -= l;
    }
    loss
}

/// The part of `items` that falls in `lo..hi`, counted from `lo`.
fn clamp_range(items: &std::ops::Range<usize>, lo: usize, hi: usize) -> std::ops::Range<usize> {
    items.start.clamp(lo, hi) - lo..items.end.clamp(lo, hi) - lo
}

/// One fixed-size chunk of rows through the plan, in three phases, each
/// run as two halves cut at the chunk's [`Halves`] and handed to `fork`:
///
/// 1. hidden activations: the full units gathered over each row's set
///    bits (by rows), one pre-activation and `tanh` per sparse pattern (by
///    patterns);
/// 2. per row (by rows): the sparse units' activations broadcast from
///    their patterns, `S = σ(hidden·Vᵀ)`, the live log of each output into
///    a per-row buffer, `D = S − T`, and (when wanted) the hidden deltas;
/// 3. (when wanted, by items) the backward items: `dV` entries, the full
///    units' `dW` rows and the sparse `dW` entries.
///
/// Every value is computed by one half, start to finish, in the
/// reference's order, and each half writes only its own part of `region`
/// (see [`CrossEntropyObjective`] and [`Layout`]). Returns the chunk's
/// cross entropy, summed in row order, and (with `clock`) each half's
/// span in each phase; the gradient stays in the halves' `dW` and `dV`
/// buffers for the reduction.
///
/// Activations and deltas are stored node-major within each row half, so
/// every inner loop runs over rows; each element is still accumulated in
/// the reference's order (ascending node index for `σ(hidden·Vᵀ)` and the
/// hidden deltas, ascending row for `dV`).
fn eval_chunk(
    ctx: &EvalCtx<'_>,
    chunk: &ChunkPlan,
    fork: Fork,
    region: &mut [f64],
    halves: Halves,
    clock: bool,
) -> (f64, [[Span; 2]; 3]) {
    let plan = ctx.plan;
    let bits = crate::mlp::chunk_bits(ctx.data, &chunk.range);
    let targets = &ctx.data.targets()[chunk.range.clone()];
    let n_items = plan.o * plan.h + plan.full.len() + chunk.entries.len();
    let mut spans = [[None; 2]; 3];
    let [s1, s2, s3] = &mut spans;
    let ([mut a, mut b], acts) = plan.layout.split(plan, region, chunk, halves.row);
    {
        let (acts_a, acts_b) = acts.split_at_mut(halves.pattern);
        let [s1a, s1b] = s1;
        fork(
            &mut || timed(clock, s1a, || activate(ctx, chunk, bits, &mut a, 0, acts_a)),
            &mut || {
                timed(clock, s1b, || {
                    activate(ctx, chunk, bits, &mut b, halves.pattern, acts_b)
                })
            },
        );
    }
    let acts = &acts[..];
    let mut loss = 0.0;
    let [s2a, s2b] = s2;
    fork(
        &mut || {
            timed(clock, s2a, || respond(ctx, chunk, targets, acts, &mut a));
            loss = minus_logs(0.0, a.logs);
        },
        &mut || timed(clock, s2b, || respond(ctx, chunk, targets, acts, &mut b)),
    );
    if ctx.want_grad {
        let (first, second) = (0..halves.item, halves.item..n_items);
        let logs_b = &*std::mem::take(&mut b.logs);
        let [(dw_a, dv_a, nodes_a), (dw_b, dv_b, nodes_b)] = [a, b].map(Half::backward_parts);
        let nodes = [nodes_a, nodes_b];
        let [s3a, s3b] = s3;
        fork(
            &mut || {
                timed(clock, s3a, || {
                    // The caller's half continues the loss chain first.
                    loss = minus_logs(loss, logs_b);
                    backward(ctx, chunk, bits, nodes, &first, dv_a, dw_a)
                })
            },
            &mut || {
                timed(clock, s3b, || {
                    backward(ctx, chunk, bits, nodes, &second, dv_b, dw_b)
                })
            },
        );
    } else {
        loss = minus_logs(loss, b.logs);
    }
    (loss, spans)
}

/// Phase 1 of [`eval_chunk`] for `half`'s rows and the patterns from
/// `first_pattern` on (as many as `acts` holds).
fn activate(
    ctx: &EvalCtx<'_>,
    chunk: &ChunkPlan,
    (indices, offsets): (&[u32], &[usize]),
    half: &mut Half<'_>,
    first_pattern: usize,
    acts: &mut [f64],
) {
    let plan = ctx.plan;
    let n_full = plan.full.len();
    let n = half.rows.len();
    // Full units: one set-bit gather per row.
    if n_full > 0 {
        let offsets = &offsets[half.rows.start..=half.rows.end];
        let pre_full = &mut *half.pre_full;
        crate::matrix::gemm_bits_nt(n, n_full, plan.n_in, indices, offsets, ctx.w_full, pre_full);
        for (j, &m) in plan.full.iter().enumerate() {
            let column = pre_full.iter().skip(j).step_by(n_full);
            for (a, &z) in half.hidden[m * n..(m + 1) * n].iter_mut().zip(column) {
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

/// Phase 2 of [`eval_chunk`] for `half`'s rows, with the chunk's targets
/// and all of its pattern activations `acts`.
fn respond(
    ctx: &EvalCtx<'_>,
    chunk: &ChunkPlan,
    targets: &[usize],
    acts: &[f64],
    half: &mut Half<'_>,
) {
    let plan = ctx.plan;
    let (h, o) = (plan.h, plan.o);
    let (rows, n_chunk) = (half.rows.clone(), chunk.range.len());
    let n = rows.len();
    let Half {
        hidden,
        delta,
        back,
        logs,
        ..
    } = half;
    // Sparse units: their patterns' activations, broadcast to the rows.
    for (s, &(m, _)) in plan.sparse.iter().enumerate() {
        let unit_acts = &acts[chunk.unit_patterns[s]..chunk.unit_patterns[s + 1]];
        let patterns = &chunk.row_pattern[s * n_chunk + rows.start..s * n_chunk + rows.end];
        for (a, &q) in hidden[m * n..(m + 1) * n].iter_mut().zip(patterns) {
            *a = unit_acts[q as usize];
        }
    }

    // Output layer: S = σ(hidden·Vᵀ), summed over hidden nodes in
    // ascending order from +0.0.
    for (p, vrow) in ctx.v.chunks_exact(h).enumerate() {
        let out = &mut delta[p * n..(p + 1) * n];
        out.fill(0.0);
        for (m, &w) in vrow.iter().enumerate() {
            for (u, &a) in out.iter_mut().zip(&hidden[m * n..(m + 1) * n]) {
                *u += a * w;
            }
        }
        for s in out.iter_mut() {
            *s = Activation::Sigmoid.apply(*s);
        }
    }
    // The live log of each output, and the output deltas D = S − T =
    // dE/du in place of S.
    let targets = &targets[rows];
    for (r, (&target, lrow)) in targets.iter().zip(logs.chunks_exact_mut(o)).enumerate() {
        for (p, l) in lrow.iter_mut().enumerate() {
            let s = &mut delta[p * n + r];
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
    for m in 0..h {
        let brow = &mut back[m * n..(m + 1) * n];
        brow.fill(0.0);
        for (p, vrow) in ctx.v.chunks_exact(h).enumerate() {
            let w = vrow[m];
            for (b, &d) in brow.iter_mut().zip(&delta[p * n..(p + 1) * n]) {
                *b += term(d, w);
            }
        }
        for (b, &a) in brow.iter_mut().zip(&hidden[m * n..(m + 1) * n]) {
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
/// [`Halves::item`]): their `dV` entries into `dv` and their `dW` entries
/// into `dw`, each sum over the rows of both row halves (`nodes`), the
/// first half's first. Both buffers are zeroed whole first, so every entry
/// of another item is `+0.0` for the reduction.
fn backward(
    ctx: &EvalCtx<'_>,
    chunk: &ChunkPlan,
    (indices, offsets): (&[u32], &[usize]),
    nodes: [Nodes<'_>; 2],
    items: &std::ops::Range<usize>,
    dv: &mut [f64],
    dw: &mut [f64],
) {
    let plan = ctx.plan;
    let (h, n_dv) = (plan.h, plan.o * plan.h);
    let n_full = plan.full.len();
    dv.fill(0.0);
    dw.fill(0.0);
    // dV = Dᵀ·hidden, over rows in ascending order. Four entries advance
    // side by side (four independent add chains over the same rows).
    let dv_items = clamp_range(items, 0, n_dv);
    let rows_of = |half: usize, e: usize| {
        let half = &nodes[half];
        (half.node(half.delta, e / h), half.node(half.hidden, e % h))
    };
    let mut quads = dv[dv_items.clone()].chunks_exact_mut(4);
    let mut e = dv_items.start;
    for quad in &mut quads {
        let mut g = [0.0; 4];
        for half in 0..2 {
            let [(d0, a0), (d1, a1), (d2, a2), (d3, a3)] =
                [0, 1, 2, 3].map(|i| rows_of(half, e + i));
            for r in 0..nodes[half].n {
                g[0] += term(d0[r], a0[r]);
                g[1] += term(d1[r], a1[r]);
                g[2] += term(d2[r], a2[r]);
                g[3] += term(d3[r], a3[r]);
            }
        }
        quad.copy_from_slice(&g);
        e += 4;
    }
    for out in quads.into_remainder() {
        let mut g = 0.0;
        for half in 0..2 {
            let (drow, arow) = rows_of(half, e);
            for (&d, &a) in drow.iter().zip(arow) {
                g += term(d, a);
            }
        }
        *out = g;
        e += 1;
    }
    // Full units: each row's hidden delta scattered over its set bits,
    // rows ascending (a zero delta adds nothing and is skipped).
    for &m in &plan.full[clamp_range(items, n_dv, n_dv + n_full)] {
        let dwrow = &mut dw[plan.w_start[m]..plan.w_start[m + 1]];
        let mut r = 0;
        for half in &nodes {
            for &b in half.node(half.back, m) {
                if b != 0.0 {
                    for &l in &indices[offsets[r]..offsets[r + 1]] {
                        dwrow[l as usize] += b;
                    }
                }
                r += 1;
            }
        }
    }
    // Sparse units: each entry summed over its column's rows, ascending,
    // the first row half's first. Four entries advance side by side as far
    // as the shortest column within each half (four independent add
    // chains, each in its own order), then each finishes the half alone.
    let entries = &chunk.entries[clamp_range(items, n_dv + n_full, usize::MAX)];
    // An entry's rows in each half, counted from the half's first row, and
    // its unit's hidden deltas there.
    let rows_of = |e: &Entry| {
        let rows = &chunk.col_rows[e.rows.0..e.rows.1];
        let cut = rows.partition_point(|&r| (r as usize) < nodes[1].start);
        let [a, b] = nodes.map(|half| half.node(half.back, e.m));
        [(&rows[..cut], a), (&rows[cut..], b)]
    };
    let sum = |mut g: f64, rows: &[u16], b: &[f64], start: usize| {
        for &r in rows {
            g += b[r as usize - start];
        }
        g
    };
    let mut quads = entries.chunks_exact(4);
    for quad in &mut quads {
        let mut g = [0.0; 4];
        let quad_rows = [0, 1, 2, 3].map(|i| rows_of(&quad[i]));
        for (half, &Nodes { start, .. }) in nodes.iter().enumerate() {
            let [(r0, b0), (r1, b1), (r2, b2), (r3, b3)] = quad_rows.map(|rows| rows[half]);
            let common = r0.len().min(r1.len()).min(r2.len()).min(r3.len());
            for i in 0..common {
                g[0] += b0[r0[i] as usize - start];
                g[1] += b1[r1[i] as usize - start];
                g[2] += b2[r2[i] as usize - start];
                g[3] += b3[r3[i] as usize - start];
            }
            for (rows, g) in quad_rows.iter().zip(g.iter_mut()) {
                let (rows, b) = rows[half];
                *g = sum(*g, &rows[common..], b, start);
            }
        }
        for (e, g) in quad.iter().zip(g) {
            dw[e.k] = g;
        }
    }
    for e in quads.remainder() {
        let mut g = 0.0;
        for (half, (rows, b)) in rows_of(e).into_iter().enumerate() {
            g = sum(g, rows, b, nodes[half].start);
        }
        dw[e.k] = g;
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

    /// The inline schedule: the first half, then the second.
    fn sequential(a: &mut (dyn FnMut() + Send), b: &mut (dyn FnMut() + Send)) {
        a();
        b();
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

    /// The items with costs `costs` whose middle falls in the first
    /// `share` of their total.
    fn balance(costs: &[usize], share: f64) -> usize {
        let sums = running(costs.iter().copied());
        cut(&sums, share * sums[costs.len()] as f64)
    }

    #[test]
    fn balance_cuts_at_the_middle_of_the_work() {
        assert_eq!(balance(&[], 0.5), 0);
        assert_eq!(balance(&[10], 0.5), 1);
        assert_eq!(balance(&[5, 5], 0.5), 1);
        assert_eq!(balance(&[1, 1, 10], 0.5), 2);
        assert_eq!(balance(&[10, 1, 1], 0.5), 1);
        assert_eq!(balance(&[0, 0, 0], 0.5), 3);
        assert_eq!(balance(&[1, 1, 10], 0.1), 1);
        assert_eq!(balance(&[1, 1, 10], 0.9), 3);
        assert_eq!(balance(&[10, 1, 1], 0.0), 0);
        assert_eq!(balance(&[10, 1, 1], 1.0), 3);
    }

    /// Every split schedule (two threads, reversed halves, the pool's
    /// session) gives the inline evaluation's value and gradient bits, at
    /// row counts around the halves' and the chunks' edges (one chunk, two,
    /// and two and a row) and under masks from none to 95%. One objective
    /// evaluated again and again, at alternating points, with and without
    /// the gradient, under every schedule and cut in turn, gives each time
    /// the bits of a freshly built one: nothing an evaluation, or a chunk,
    /// leaves in the buffers reaches the next.
    #[test]
    fn split_evaluation_is_bit_identical_to_inline() {
        let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for rows in [1, 2, 3, 511, 512, 513, 1000, 1024, 1025, 2048, 2049] {
            for (k, prune_pct) in [0, 40, 80, 95].into_iter().enumerate() {
                let seed = (rows * 7 + k) as u64;
                // 140 inputs: at 40% pruned, a sparse unit's pattern spans
                // two mask words.
                let data = random_rows(rows, 140, 2, seed);
                let net = shaped_net(140, 5, 3, prune_pct, seed);
                let obj = CrossEntropyObjective::new(&net, &data, Penalty::default());
                let x = net.flatten_active();
                let mut want_grad = vec![0.0; obj.dim()];
                let want = obj.evaluate_with(&x, Some(&mut want_grad), sequential);
                for fork in [scoped as Fork, reversed, pooled] {
                    let mut grad = vec![0.0; obj.dim()];
                    let loss = obj.evaluate_with(&x, Some(&mut grad), fork);
                    let value = obj.evaluate_with(&x, None, fork);
                    let case = format!("rows {rows}, {prune_pct}% pruned");
                    assert_eq!(loss.to_bits(), want.to_bits(), "{case}: loss");
                    assert_eq!(value.to_bits(), want.to_bits(), "{case}: value");
                    assert_eq!(bits(&grad), bits(&want_grad), "{case}: gradient");
                }
            }
        }

        // Buffer reuse. One row leaves the first row half empty; unit 0 is
        // fed by every input, so `pre_full` is written too; past 1,024
        // rows a shorter chunk follows a full one in the same buffers.
        let shares = [EVEN, [0.1, 0.9, 0.2], [0.9, 0.1, 0.8], [0.3, 0.6, 0.9]];
        let forks = [sequential as Fork, pooled, scoped, reversed];
        for rows in [1, 513, 1000, 1025, 2048, 2049] {
            for prune_pct in [0, 80] {
                let seed = (rows * 11 + prune_pct) as u64;
                let data = random_rows(rows, 140, 3, seed);
                let net = shaped_net(140, 5, 3, prune_pct, seed);
                let x1 = net.flatten_active();
                let x2: Vec<f64> = x1.iter().map(|w| 0.75 * w - 0.125).collect();
                let fresh = |x: &[f64]| {
                    let obj = CrossEntropyObjective::new(&net, &data, Penalty::default());
                    let mut grad = vec![0.0; obj.dim()];
                    let loss = obj.evaluate_with(x, Some(&mut grad), sequential);
                    (loss.to_bits(), bits(&grad))
                };
                let want = [fresh(&x1), fresh(&x2)];
                let obj = CrossEntropyObjective::new(&net, &data, Penalty::default());
                for step in 0..24 {
                    let (point, x) = [(0, &x1), (1, &x2), (0, &x1)][step % 3];
                    unpoison(obj.buffers.lock()).balance.shares = shares[step / 3 % 4];
                    let fork = forks[step % 4];
                    let case = format!("rows {rows}, {prune_pct}% pruned, step {step}");
                    if step % 2 == 0 {
                        let mut grad = vec![0.0; obj.dim()];
                        let loss = obj.evaluate_with(x, Some(&mut grad), fork);
                        assert_eq!(loss.to_bits(), want[point].0, "{case}: loss");
                        assert_eq!(bits(&grad), want[point].1, "{case}: gradient");
                    } else {
                        let value = obj.evaluate_with(x, None, fork);
                        assert_eq!(value.to_bits(), want[point].0, "{case}: value");
                    }
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
