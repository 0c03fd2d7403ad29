//! Selection bitmaps: one bit per batch row, 64 rows per word.
//!
//! The compiled rule engine works on these instead of per-row booleans —
//! a rule's antecedent becomes a handful of word-wise ANDs, first-match
//! arbitration becomes `undecided &= !matched`, and the whole batch's
//! control flow is branch-free until the final class scatter.

/// A fixed-length bitset over batch row positions (not global dataset
/// indices). Bit `i` of word `i / 64` is row `i`; tail bits past `len`
/// are always zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-zero bitmap for `len` rows.
    pub fn zeros(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// All-one bitmap for `len` rows (tail bits masked off).
    pub fn ones(len: usize) -> Self {
        let mut b = Bitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        b.mask_tail();
        b
    }

    /// Zeroes the bits past `len` in the last word.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// The backing words, read-only (row `i` lives in word `i / 64`, bit
    /// `i % 64`). Word-level consumers — score derivation, shard
    /// stitching — walk these instead of calling [`Bitmap::get`] per row.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of rows the bitmap covers.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Sets every bit in `0..len` (tail stays clear) — the in-place
    /// [`Bitmap::ones`], for reused registers.
    pub fn set_ones(&mut self) {
        self.words.fill(u64::MAX);
        self.mask_tail();
    }

    /// Clears every bit.
    pub fn set_zeros(&mut self) {
        self.words.fill(0);
    }

    /// The backing words (row `i` lives in word `i / 64`, bit `i % 64`).
    ///
    /// This hands out raw words, so the caller can violate the tail
    /// invariant (bits past `len` must stay zero); sweep loops that fill
    /// the last word must only write bits for real rows, and should
    /// re-assert with [`Bitmap::debug_assert_tail_clear`] afterwards.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Debug-mode invariant check: no bit past `len` is set.
    ///
    /// A stray tail bit would silently corrupt [`Bitmap::not`] (the
    /// complement masks the tail, so the corruption surfaces as *missing*
    /// rows elsewhere), `count_ones`, and first-match arbitration on
    /// non-multiple-of-64 batches. Release builds compile this to nothing.
    #[inline]
    pub fn debug_assert_tail_clear(&self) {
        #[cfg(debug_assertions)]
        {
            let tail = self.len % 64;
            if tail != 0 {
                let last = *self.words.last().expect("non-zero tail implies a word");
                assert_eq!(
                    last & !((1u64 << tail) - 1),
                    0,
                    "bitmap tail bits past len={} are set (last word {last:#018x})",
                    self.len
                );
            }
        }
    }

    /// True when no bit is set.
    pub fn none_set(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when row `i` is selected. Production paths read whole words
    /// ([`Bitmap::words`]); this stays for tests and spot checks.
    #[cfg_attr(not(test), allow(dead_code))]
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// `self = a & b` in one pass (lengths must all match).
    pub fn set_and(&mut self, a: &Bitmap, b: &Bitmap) {
        debug_assert_eq!(self.len, a.len);
        debug_assert_eq!(self.len, b.len);
        for ((d, x), y) in self.words.iter_mut().zip(&a.words).zip(&b.words) {
            *d = x & y;
        }
    }

    /// `self &= !other` — removes `other`'s rows from the selection.
    pub fn clear(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// The complement within `len` rows.
    pub fn not(&self) -> Bitmap {
        self.debug_assert_tail_clear();
        let mut out = Bitmap {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        out.mask_tail();
        out
    }

    /// Calls `f` with every selected row position, ascending.
    #[inline]
    pub fn for_each_set(&self, mut f: impl FnMut(usize)) {
        for (w, &word) in self.words.iter().enumerate() {
            let mut m = word;
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                f(w * 64 + b);
                m &= m - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_masked() {
        let b = Bitmap::ones(70);
        assert_eq!(b.count_ones(), 70);
        assert!(b.get(69));
        let c = b.not();
        assert_eq!(c.count_ones(), 0);
        // Complement of a partial selection stays inside the length.
        let mut d = Bitmap::zeros(70);
        d.words_mut()[0] = 0b101;
        assert_eq!(d.not().count_ones(), 68);
    }

    #[test]
    fn word_ops() {
        let mut a = Bitmap::zeros(10);
        let mut b = Bitmap::zeros(10);
        b.words_mut()[0] = 0b1100;
        a.set_and(&Bitmap::ones(10), &b);
        assert_eq!(a.count_ones(), 2);
        assert_eq!(a, b);
        let mut seen = Vec::new();
        a.for_each_set(|i| seen.push(i));
        assert_eq!(seen, vec![2, 3]);
        a.clear(&b);
        assert!(a.none_set());
        assert!(!b.none_set());
    }

    #[test]
    fn tail_invariant_check_accepts_clean_bitmaps() {
        for len in [1usize, 63, 64, 65, 127, 128] {
            Bitmap::ones(len).debug_assert_tail_clear();
            Bitmap::zeros(len).debug_assert_tail_clear();
            let mut b = Bitmap::zeros(len);
            b.words_mut()[0] = 1; // a legal bit
            b.debug_assert_tail_clear();
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "tail bits past len=65")]
    fn tail_invariant_check_catches_stray_bits() {
        // A sweep writing past `len` through `words_mut` must be caught in
        // debug builds before it can poison `not()` arbitration.
        let mut b = Bitmap::zeros(65);
        b.words_mut()[1] = 0b10; // bit 65: one past the end
        b.debug_assert_tail_clear();
    }

    #[test]
    fn empty_bitmap() {
        let b = Bitmap::ones(0);
        assert!(b.none_set());
        assert_eq!(b.not().count_ones(), 0);
    }
}
