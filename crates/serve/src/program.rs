//! The lowered scoring program: a flat op list over bitmap registers,
//! interpreted without per-rule control flow.
//!
//! [`crate::dag`] lowers a compiled rule set into a [`DagProgram`] — a
//! `Vec` of [`Op`]s over numbered bitmap registers plus a table of
//! [`ColumnSweep`]s. Executing a batch walks the ops in order:
//!
//! * [`Op::Sweep`] runs one **fused column sweep**: every predicate
//!   touching that column is evaluated in a single pass down the typed
//!   column, one 64-row chunk at a time, so one load of `x` feeds every
//!   threshold compare and each predicate's register gets its word
//!   written back-to-back while the chunk is hot. Every numeric
//!   predicate is a direct [`NumTest`] compare, however many share the
//!   column; the compares mirror `Condition::holds` bit-exactly (NaN
//!   fails every bounded test).
//! * [`Op::And`] materializes a shared-prefix DAG node:
//!   `reg[dst] = reg[a] & reg[b]`, word-wise.
//! * [`Op::Fill`] sets a register to all-ones (a tautological predicate).
//! * [`Op::Claim`] arbitrates first-match priority: rows in `reg[src]`
//!   that are still undecided take the op's class and leave the
//!   `undecided` set (`scratch = src & undecided; undecided &= !scratch`
//!   — the And/AndNot pair of the arbitration, fused into one op so the
//!   claimed-row count can short-circuit the whole program the moment
//!   every row is decided).
//! * [`Op::ClaimRest`] is the empty-antecedent rule: every still-
//!   undecided row takes the class, terminally.
//!
//! Every batch runs on the caller's thread, split into fixed
//! [`SHARD_ROWS`]-row shards scored one after another, so the register
//! bitmaps stay cache-sized however large the batch is. Rows are scored
//! independently, so the output never depends on the shard size.

use std::ops::Range;

use nr_tabular::{ClassId, DatasetView};

use crate::bitmap::Bitmap;

/// Rows per shard: a 1 KiB bitmap per register. A multiple of 64, so
/// every shard boundary is word-aligned (shard bitmaps concatenate into
/// the batch bitmap by plain word copy). One whole-batch shard measured
/// about 10% slower at 1M rows on a 2-core x86-64 host.
pub(crate) const SHARD_ROWS: usize = 8 * 1024;

/// One instruction of the lowered program. Register ids index a dense
/// per-shard register file; every register is written before it is read
/// (the lowering emits defs before uses, in rule order).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    /// Run fused column sweep `sweeps[i]`, writing every register in its
    /// group.
    Sweep(u32),
    /// `reg[dst] = all ones` — a tautological predicate (an unbounded
    /// interval).
    Fill(u32),
    /// `reg[dst] = reg[a] & reg[b]` — a shared-prefix DAG node.
    And {
        /// Destination register (the node's row set).
        dst: u32,
        /// The parent prefix node's register.
        a: u32,
        /// The extending predicate's register.
        b: u32,
    },
    /// First-match claim: still-undecided rows of `reg[src]` take
    /// `class`.
    Claim {
        /// The rule's antecedent register (a DAG leaf).
        src: u32,
        /// The class the rule implies.
        class: ClassId,
    },
    /// Empty-antecedent rule: every still-undecided row takes `class`.
    ClaimRest {
        /// The class the rule implies.
        class: ClassId,
    },
}

/// A numeric predicate compare. Bounds mirror `Condition::holds`
/// exactly: lower inclusive, upper exclusive, NaN fails every bounded
/// compare.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum NumTest {
    /// `x >= lo`.
    Ge(f64),
    /// `x < hi`.
    Lt(f64),
    /// `lo <= x < hi`.
    Range(f64, f64),
    /// `x == v` (never true for NaN).
    Eq(f64),
}

/// A nominal predicate compare.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum NomTest {
    /// `c == code`.
    Eq(u32),
    /// `c` not in the (small, sorted) code list.
    NotIn(Vec<u32>),
}

/// Every predicate touching one column, evaluated in a single pass down
/// that column (see the module docs). Each test writes its own register,
/// so the order of a group's tests does not matter.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ColumnSweep {
    /// A numeric column's predicate group.
    Num {
        /// Schema attribute index (a numeric column).
        attribute: usize,
        /// The column's compares.
        tests: Vec<(u32, NumTest)>,
    },
    /// A nominal column's predicate group.
    Nom {
        /// Schema attribute index (a nominal column).
        attribute: usize,
        /// The column's compares.
        tests: Vec<(u32, NomTest)>,
    },
}

/// The widest x86-64 vector ISA the running CPU supports, probed once.
///
/// The sweep bodies are plain safe Rust; they are compiled **three
/// times** — baseline, AVX2, AVX-512 — by the `#[target_feature]`
/// wrappers below, and this tier picks the widest copy at run time. The
/// byte-mask compare loops in [`pack`] vectorize ~2× wider per tier
/// (measured ~2.2× and ~4.5× over baseline on the serving bench).
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SimdTier {
    /// The compilation baseline (SSE2 on x86-64).
    Baseline,
    /// 256-bit vectors.
    Avx2,
    /// 512-bit vectors with byte/word ops.
    Avx512,
}

#[cfg(target_arch = "x86_64")]
static SIMD_TIER: std::sync::LazyLock<SimdTier> = std::sync::LazyLock::new(|| {
    if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw") {
        SimdTier::Avx512
    } else if is_x86_feature_detected!("avx2") {
        SimdTier::Avx2
    } else {
        SimdTier::Baseline
    }
});

impl ColumnSweep {
    /// Runs the sweep over `range` of `view`'s rows, writing whole bitmap
    /// words into every register of the group — through the widest
    /// [`SimdTier`] copy of the body the CPU supports.
    fn run(&self, view: &DatasetView<'_>, range: &Range<usize>, regs: &mut [Bitmap]) {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: each wrapper only enables features `SIMD_TIER`
            // just confirmed via `is_x86_feature_detected!`; the bodies
            // themselves are safe code. The workspace denies
            // `unsafe_code`; these calls and the two wrapper
            // declarations are the crate's only allowance.
            #[allow(unsafe_code)]
            match *SIMD_TIER {
                SimdTier::Avx512 => return unsafe { self.run_avx512(view, range, regs) },
                SimdTier::Avx2 => return unsafe { self.run_avx2(view, range, regs) },
                SimdTier::Baseline => {}
            }
        }
        self.run_portable(view, range, regs);
    }

    /// [`ColumnSweep::run_portable`] compiled with 512-bit vectors.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw")]
    #[allow(unsafe_code)]
    unsafe fn run_avx512(&self, view: &DatasetView<'_>, range: &Range<usize>, regs: &mut [Bitmap]) {
        self.run_portable(view, range, regs);
    }

    /// [`ColumnSweep::run_portable`] compiled with 256-bit vectors.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    unsafe fn run_avx2(&self, view: &DatasetView<'_>, range: &Range<usize>, regs: &mut [Bitmap]) {
        self.run_portable(view, range, regs);
    }

    /// The sweep body. `#[inline(always)]` so each `#[target_feature]`
    /// wrapper absorbs it (and everything it calls) into its own ISA
    /// context — that, not intrinsics, is how the wider tiers vectorize.
    #[inline(always)]
    fn run_portable(&self, view: &DatasetView<'_>, range: &Range<usize>, regs: &mut [Bitmap]) {
        let ds = view.dataset();
        let ids = view.row_ids();
        match self {
            ColumnSweep::Num { attribute, tests } => {
                let col = ds.num_column(*attribute);
                match ids {
                    None => {
                        for (w, chunk) in col[range.clone()].chunks(64).enumerate() {
                            sweep_num_chunk(chunk, w, tests, regs);
                        }
                    }
                    Some(ids) => {
                        // Gather each 64-row chunk once into a stack
                        // buffer; every test then reads the buffer.
                        let mut buf = [0.0f64; 64];
                        for (w, idc) in ids[range.clone()].chunks(64).enumerate() {
                            for (i, &r) in idc.iter().enumerate() {
                                buf[i] = col[r];
                            }
                            sweep_num_chunk(&buf[..idc.len()], w, tests, regs);
                        }
                    }
                }
            }
            ColumnSweep::Nom { attribute, tests } => {
                let col = ds.nominal_column(*attribute);
                match ids {
                    None => {
                        for (w, chunk) in col[range.clone()].chunks(64).enumerate() {
                            sweep_nom_chunk(chunk, w, tests, regs);
                        }
                    }
                    Some(ids) => {
                        let mut buf = [0u32; 64];
                        for (w, idc) in ids[range.clone()].chunks(64).enumerate() {
                            for (i, &r) in idc.iter().enumerate() {
                                buf[i] = col[r];
                            }
                            sweep_nom_chunk(&buf[..idc.len()], w, tests, regs);
                        }
                    }
                }
            }
        }
    }
}

/// Packs one predicate over a ≤64-value chunk into a bitmap word, in two
/// phases tuned for what LLVM will actually vectorize:
///
/// 1. the compare loop writes `0/1` **bytes** into a stack buffer — a
///    plain mask-store pattern the auto-vectorizer handles, unlike the
///    classic `word |= (p(x) as u64) << i` chain whose variable shift
///    serializes the whole loop;
/// 2. [`pack_bytes`] gathers the 64 mask bytes into the bitmap word,
///    eight at a time, with the carry-free multiply trick.
///
/// The generic parameter matters too: each call site monomorphizes `p`
/// into a branchless compare — dispatching on a test enum *inside* the
/// loop instead costs ~2× on the whole engine.
#[inline(always)]
fn pack<T: Copy>(chunk: &[T], p: impl Fn(T) -> bool) -> u64 {
    let mut mask = [0u8; 64];
    for (m, &x) in mask.iter_mut().zip(chunk) {
        *m = p(x) as u8;
    }
    pack_bytes(&mask)
}

/// Gathers 64 `0/1` bytes into a word (bit `i` = `mask[i]`), eight bytes
/// per step: with lane `k` holding `b_k ∈ {0, 1}`, multiplying by
/// `Σ_k 2^(56 - 7k)` lands `b_k` exactly on bit `56 + k`. Every partial
/// product occupies a distinct bit (`8j - 7k` collides only at `j = k`
/// within 0..8), so no carries — the top byte is the packed octet.
#[inline(always)]
fn pack_bytes(mask: &[u8; 64]) -> u64 {
    const MAGIC: u64 = 0x0102_0408_1020_4080;
    let mut word = 0u64;
    for (k, bytes) in mask.chunks_exact(8).enumerate() {
        let lanes = u64::from_le_bytes(bytes.try_into().expect("chunks_exact yields 8 bytes"));
        word |= (lanes.wrapping_mul(MAGIC) >> 56) << (8 * k);
    }
    word
}

/// One 64-row chunk of a numeric fused sweep: every test's word for word
/// index `w`, written while the chunk values are hot. The enum dispatch
/// happens once per (test, chunk); the inner loops are monomorphized.
/// `#[inline(always)]`: must fold into the `#[target_feature]` wrappers.
#[inline(always)]
fn sweep_num_chunk(chunk: &[f64], w: usize, tests: &[(u32, NumTest)], regs: &mut [Bitmap]) {
    for &(reg, ref test) in tests {
        let word = match *test {
            NumTest::Ge(lo) => pack(chunk, |x| x >= lo),
            NumTest::Lt(hi) => pack(chunk, |x| x < hi),
            NumTest::Range(lo, hi) => pack(chunk, |x| x >= lo && x < hi),
            NumTest::Eq(v) => pack(chunk, |x| x == v),
        };
        regs[reg as usize].words_mut()[w] = word;
    }
}

/// One 64-row chunk of a nominal fused sweep. `#[inline(always)]`: must
/// fold into the `#[target_feature]` wrappers.
#[inline(always)]
fn sweep_nom_chunk(chunk: &[u32], w: usize, tests: &[(u32, NomTest)], regs: &mut [Bitmap]) {
    for &(reg, ref test) in tests {
        let word = match test {
            NomTest::Eq(code) => pack(chunk, |c| c == *code),
            NomTest::NotIn(codes) => pack(chunk, |c| !codes.contains(&c)),
        };
        regs[reg as usize].words_mut()[w] = word;
    }
}

/// The lowered program (see the module docs). Built once per compiled
/// rule set by [`crate::dag::lower`]; immutable and `Sync` afterwards, so
/// any number of threads interpret it concurrently.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DagProgram {
    /// Class of rows no rule claims.
    pub(crate) default_class: ClassId,
    /// Register file size (one bitmap per register, per shard).
    pub(crate) n_regs: u32,
    /// The fused column sweeps, indexed by [`Op::Sweep`].
    pub(crate) sweeps: Vec<ColumnSweep>,
    /// The instruction list, in rule order.
    pub(crate) ops: Vec<Op>,
}

/// The per-shard interpreter state: the register file plus the
/// arbitration bitmaps, reused across the shards of a batch.
struct RegSet {
    regs: Vec<Bitmap>,
    undecided: Bitmap,
    scratch: Bitmap,
}

impl RegSet {
    fn new(n_regs: u32, len: usize) -> RegSet {
        RegSet {
            regs: vec![Bitmap::zeros(len); n_regs as usize],
            undecided: Bitmap::ones(len),
            scratch: Bitmap::zeros(len),
        }
    }

    /// Re-arms for a shard of `len` rows. Registers need no clearing —
    /// the program writes every register before reading it — but their
    /// length must match the shard.
    fn reset(&mut self, len: usize) {
        if self.undecided.len() != len {
            *self = RegSet::new(self.regs.len() as u32, len);
        } else {
            self.undecided.set_ones();
        }
    }
}

impl DagProgram {
    /// Interprets the program over `range` of `view`, writing classes
    /// into the shard-local `classes` slice (prefilled with the default
    /// class) and returning the shard's explicit-match bitmap.
    fn run_shard(
        &self,
        view: &DatasetView<'_>,
        range: Range<usize>,
        classes: &mut [ClassId],
        state: &mut RegSet,
    ) -> Bitmap {
        debug_assert_eq!(classes.len(), range.len());
        state.reset(range.len());
        let mut remaining = range.len();
        for op in &self.ops {
            match *op {
                Op::Sweep(i) => {
                    self.sweeps[i as usize].run(view, &range, &mut state.regs);
                }
                Op::Fill(dst) => state.regs[dst as usize].set_ones(),
                Op::And { dst, a, b } => {
                    // Three-register form without double borrows: lift the
                    // destination out, combine in one pass, put it back.
                    let mut d = std::mem::replace(&mut state.regs[dst as usize], Bitmap::zeros(0));
                    d.set_and(&state.regs[a as usize], &state.regs[b as usize]);
                    state.regs[dst as usize] = d;
                }
                Op::Claim { src, class } => {
                    state
                        .scratch
                        .set_and(&state.regs[src as usize], &state.undecided);
                    let claimed = state.scratch.count_ones();
                    if claimed > 0 {
                        state.scratch.for_each_set(|i| classes[i] = class);
                        state.undecided.clear(&state.scratch);
                        remaining -= claimed;
                        if remaining == 0 {
                            // Every row decided: the rest of the program
                            // cannot claim anything.
                            break;
                        }
                    }
                }
                Op::ClaimRest { class } => {
                    state.undecided.for_each_set(|i| classes[i] = class);
                    state.undecided.set_zeros();
                    break;
                }
            }
        }
        for reg in &state.regs {
            reg.debug_assert_tail_clear();
        }
        state.undecided.not()
    }

    /// Scores `view` into `out` (appending one class per row) and returns
    /// the explicit-match bitmap, one `shard_rows`-row shard after
    /// another (production passes [`SHARD_ROWS`]; unit tests pass small
    /// sizes to put shard seams inside small fixtures). `shard_rows` must
    /// be a positive multiple of 64; the output is identical for any.
    pub(crate) fn match_batch_into(
        &self,
        view: &DatasetView<'_>,
        out: &mut Vec<ClassId>,
        shard_rows: usize,
    ) -> Bitmap {
        assert!(
            shard_rows > 0 && shard_rows % 64 == 0,
            "shard_rows must be a positive multiple of 64, got {shard_rows}"
        );
        let n = view.len();
        let start = out.len();
        out.resize(start + n, self.default_class);
        let mut matched = Bitmap::zeros(n);
        if n == 0 {
            return matched;
        }
        let classes = &mut out[start..];
        let mut state = RegSet::new(self.n_regs, n.min(shard_rows));
        for lo in (0..n).step_by(shard_rows) {
            let range = lo..n.min(lo + shard_rows);
            let words = lo / 64..range.end.div_ceil(64);
            let m = self.run_shard(view, range.clone(), &mut classes[range], &mut state);
            matched.words_mut()[words].copy_from_slice(m.words());
        }
        matched.debug_assert_tail_clear();
        matched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The multiply gather must agree with the naive shift/or pack on
    /// every mask shape — including the all-ones mask, where a stray
    /// carry between partial products would first show up.
    #[test]
    fn byte_pack_matches_the_naive_pack() {
        let naive = |mask: &[u8; 64]| -> u64 {
            mask.iter()
                .enumerate()
                .fold(0u64, |w, (i, &b)| w | ((b as u64) << i))
        };
        let mut checked = 0u32;
        for pattern in [0u64, u64::MAX, 0xAAAA_AAAA_AAAA_AAAA, 0x8000_0000_0000_0001] {
            let mut mask = [0u8; 64];
            for (i, m) in mask.iter_mut().enumerate() {
                *m = ((pattern >> i) & 1) as u8;
            }
            assert_eq!(pack_bytes(&mask), pattern);
            assert_eq!(naive(&mask), pattern);
            checked += 1;
        }
        // A deterministic pseudo-random sweep (xorshift) over mask space.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let mut mask = [0u8; 64];
            for (i, m) in mask.iter_mut().enumerate() {
                *m = ((x >> i) & 1) as u8;
            }
            assert_eq!(pack_bytes(&mask), naive(&mask), "mask {x:#018x}");
            checked += 1;
        }
        assert_eq!(checked, 10_004);
    }

    /// `pack` only sets bits for rows inside the chunk: the tail of a
    /// partial final chunk must stay zero (the bitmap tail invariant).
    #[test]
    fn pack_keeps_partial_chunk_tails_clear() {
        let vals = [1.0f64, -2.0, 3.0];
        let word = pack(&vals, |x| x > 0.0);
        assert_eq!(word, 0b101);
        let none: [f64; 0] = [];
        assert_eq!(pack(&none, |_| true), 0);
    }
}
