//! Dense row-major matrices and the batch matmul kernels built on them.
//!
//! Originally this type only stored weights for per-tuple forward passes;
//! it now also carries the batched forward pass of scoring and
//! [`crate::Mlp::forward_batch`]: [`gemm_bits_nt`] (`X·Wᵀ` over set-bit
//! rows) and [`gemm_nt`] (`A·Bᵀ`, the shape of `hidden · Vᵀ`). The
//! training objective runs its own active-link loops
//! (`crate::objective`) and uses [`gemm_bits_nt`] only for fully
//! connected hidden units.
//!
//! Two properties the rest of the workspace relies on:
//!
//! * **Bit-compatibility with the per-row path.** Every kernel accumulates
//!   each output element in ascending index order — the same order as the
//!   scalar `z += w·x` loops in [`crate::Mlp::forward_into`] — so batched
//!   and per-row results are bit-identical, not merely close. Blocking is
//!   done across *independent* output columns (four parallel accumulator
//!   chains), which changes instruction-level parallelism but never the
//!   order of any single floating-point reduction.
//! * **Auto-vectorizable inner loops.** The kernels index fixed-length
//!   row slices so the compiler can keep bounds checks out of the inner
//!   loops and vectorize the four-column blocks.

use serde::{Deserialize, Serialize};

/// Dense row-major `f64` matrix.
///
/// Hot loops borrow whole rows via [`Matrix::row`] to keep bounds checks out
/// of inner loops; batch callers go through the `gemm_*` kernels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a closure over `(row, col)`.
    pub(crate) fn from_fn(
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing row-major buffer (`data.len()` must be
    /// `rows * cols`).
    pub(crate) fn from_raw(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat view of all entries (row-major).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

/// `out = A · Bᵀ` over raw row-major buffers: `A` is `m×k`, `B` is `n×k`,
/// `out` is `m×n`, all row-major.
///
/// This is the batch forward-pass shape (`inputs · weightsᵀ`): both
/// operands are traversed along contiguous rows, so the inner loop is pure
/// streaming. Output columns are processed in blocks of four independent
/// accumulator chains; each individual output is still accumulated in
/// ascending `k` order, keeping the result bit-identical to a scalar
/// `z += a·b` loop.
pub(crate) fn gemm_nt(m: usize, n: usize, k: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), m * k, "A shape mismatch");
    assert_eq!(b.len(), n * k, "B shape mismatch");
    assert_eq!(out.len(), m * n, "output shape mismatch");
    for i in 0..m {
        let ar = &a[i * k..(i + 1) * k];
        let or = &mut out[i * n..(i + 1) * n];
        let mut j = 0;
        // Blocks of four output columns: four independent dot-product
        // chains over the same streamed `A` row.
        while j + 4 <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
            for t in 0..k {
                let x = ar[t];
                s0 += x * b0[t];
                s1 += x * b1[t];
                s2 += x * b2[t];
                s3 += x * b3[t];
            }
            or[j] = s0;
            or[j + 1] = s1;
            or[j + 2] = s2;
            or[j + 3] = s3;
            j += 4;
        }
        if j + 2 <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let (mut s0, mut s1) = (0.0, 0.0);
            for t in 0..k {
                let x = ar[t];
                s0 += x * b0[t];
                s1 += x * b1[t];
            }
            or[j] = s0;
            or[j + 1] = s1;
            j += 2;
        }
        if j < n {
            let b0 = &b[j * k..(j + 1) * k];
            let mut s0 = 0.0;
            for t in 0..k {
                s0 += ar[t] * b0[t];
            }
            or[j] = s0;
        }
    }
}

/// `out = S·Bᵀ` where `S` is an `m×k` strictly-0/1 matrix given as per-row
/// ascending set-bit column indices (`S` row `i` = `indices[offsets[i]..
/// offsets[i+1]]`). `B` is `n×k` row-major, `out` is `m×n`.
///
/// The binary input coding makes this the natural forward-pass kernel: a
/// row's dot product with a weight row is a gather-sum over its set bits,
/// a fraction of the dense multiply-adds. Because the indices ascend and
/// adding a `w·0.0` term to a non-negative-zero accumulator never changes
/// its bits, the result is bit-identical to the dense [`gemm_nt`].
pub(crate) fn gemm_bits_nt(
    m: usize,
    n: usize,
    k: usize,
    indices: &[u32],
    offsets: &[usize],
    b: &[f64],
    out: &mut [f64],
) {
    assert_eq!(offsets.len(), m + 1, "need one offset per row plus end");
    assert_eq!(b.len(), n * k, "B shape mismatch");
    assert_eq!(out.len(), m * n, "output shape mismatch");
    for i in 0..m {
        let bits = &indices[offsets[i]..offsets[i + 1]];
        let or = &mut out[i * n..(i + 1) * n];
        let mut j = 0;
        while j + 4 <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
            for &l in bits {
                let l = l as usize;
                s0 += b0[l];
                s1 += b1[l];
                s2 += b2[l];
                s3 += b3[l];
            }
            or[j] = s0;
            or[j + 1] = s1;
            or[j + 2] = s2;
            or[j + 3] = s3;
            j += 4;
        }
        if j + 2 <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let (mut s0, mut s1) = (0.0, 0.0);
            for &l in bits {
                let l = l as usize;
                s0 += b0[l];
                s1 += b1[l];
            }
            or[j] = s0;
            or[j + 1] = s1;
            j += 2;
        }
        if j < n {
            let b0 = &b[j * k..(j + 1) * k];
            let mut s0 = 0.0;
            for &l in bits {
                s0 += b0[l as usize];
            }
            or[j] = s0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_roundtrip() {
        let mut m = Matrix::zeros(2, 3);
        m[(1, 2)] = 5.0;
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn rows_are_contiguous() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
        assert_eq!(m.as_slice().len(), 6);
    }

    #[test]
    fn from_fn_order() {
        let m = Matrix::from_fn(3, 1, |r, _| r as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn from_raw_roundtrip() {
        let m = Matrix::from_raw(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    #[should_panic(expected = "buffer does not match shape")]
    fn from_raw_rejects_bad_shape() {
        let _ = Matrix::from_raw(2, 2, vec![1.0; 3]);
    }

    fn arbitrary(rows: usize, cols: usize, seed: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let x = (r * 31 + c * 7 + seed as usize) as f64;
            (x * 0.37).sin()
        })
    }

    #[test]
    fn matmul_nt_matches_naive() {
        for &(m, k, n) in &[(1, 1, 1), (5, 87, 4), (3, 6, 7), (2, 4, 2), (6, 5, 3)] {
            let a = arbitrary(m, k, 3);
            let b = arbitrary(n, k, 4);
            let mut got = Matrix::zeros(m, n);
            gemm_nt(m, n, k, a.as_slice(), b.as_slice(), &mut got.data);
            // A·Bᵀ element (i, j) = dot(A row i, B row j).
            let want = Matrix::from_fn(m, n, |i, j| {
                a.row(i).iter().zip(b.row(j)).map(|(x, y)| x * y).sum()
            });
            for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                assert!((g - w).abs() < 1e-12, "{g} vs {w}");
            }
        }
    }

    #[test]
    fn matmul_nt_is_bit_identical_to_scalar_loop() {
        // The per-row forward pass accumulates z += w·x in ascending index
        // order; the blocked kernel must reproduce those exact bits.
        let a = arbitrary(9, 87, 5);
        let b = arbitrary(4, 87, 6);
        let mut got = Matrix::zeros(9, 4);
        gemm_nt(9, 4, 87, a.as_slice(), b.as_slice(), &mut got.data);
        for i in 0..9 {
            for j in 0..4 {
                let mut z = 0.0;
                for (x, y) in a.row(i).iter().zip(b.row(j)) {
                    z += x * y;
                }
                assert_eq!(got[(i, j)], z, "element ({i}, {j}) differs in bits");
            }
        }
    }

    /// Binary matrix fixture: rows of 0/1 plus the CSR layout.
    fn binary_fixture(m: usize, k: usize) -> (Vec<f64>, Vec<u32>, Vec<usize>) {
        let mut dense = vec![0.0; m * k];
        let mut indices = Vec::new();
        let mut offsets = vec![0];
        for i in 0..m {
            for c in 0..k {
                if (i * 7 + c * 3) % 4 == 0 {
                    dense[i * k + c] = 1.0;
                    indices.push(c as u32);
                }
            }
            offsets.push(indices.len());
        }
        (dense, indices, offsets)
    }

    #[test]
    fn gemm_bits_nt_is_bit_identical_to_dense() {
        for &(m, k, n) in &[(5, 87, 4), (3, 10, 3), (4, 6, 7), (2, 5, 1), (1, 4, 2)] {
            let (dense, indices, offsets) = binary_fixture(m, k);
            let b = arbitrary(n, k, 9);
            let mut want = vec![0.0; m * n];
            gemm_nt(m, n, k, &dense, b.as_slice(), &mut want);
            let mut got = vec![0.0; m * n];
            gemm_bits_nt(m, n, k, &indices, &offsets, b.as_slice(), &mut got);
            assert_eq!(got, want, "m={m} k={k} n={n}");
        }
    }
}
