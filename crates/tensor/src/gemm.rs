//! `Sgemv` / `Sgemm` kernels and the row-masked variants used by Dynamic
//! Row Skip.
//!
//! The free functions here are the numerical core of the paper's kernels
//! (Algorithm 1 and Algorithm 3); the GPU cost of executing them is modelled
//! separately by the `gpu-sim` crate from kernel descriptors.
//!
//! [`sgemv`] and [`sgemv_masked_reference`] are the *reference* kernels:
//! simple row-at-a-time loops whose accumulation order defines the
//! numerics every faster path must reproduce bit-for-bit. The fast paths
//! live in [`crate::packed`] (row-panel SGEMV and the gather-based masked
//! kernel) and in the cache-blocked [`sgemm`] below; the property tests in
//! this crate pin each fast kernel to its reference bitwise.

use crate::matrix::Matrix;
use crate::packed::sgemv_masked_gather;
use crate::vector::Vector;

/// Rows per register block of the cache-blocked [`sgemm`].
const MC: usize = 32;
/// Depth (k) of one packed B panel.
const KC: usize = 64;
/// Width (columns) of one packed B panel. `KC * NC * 4` bytes ≈ 32 KiB,
/// sized so a panel stays resident in L1/L2 while every A-row block
/// streams over it.
const NC: usize = 128;

/// Matrix-vector product `a * x` (the paper's `Sgemv(U, h)` kernel body).
///
/// This is the reference row-at-a-time kernel. When the same matrix is
/// applied repeatedly (the recurrent LSTM shape), pack it once with
/// [`crate::PackedMatrix`] — same bits, much faster.
///
/// # Panics
/// Panics if `x.len() != a.cols()`.
pub fn sgemv(a: &Matrix, x: &Vector) -> Vector {
    assert_eq!(
        x.len(),
        a.cols(),
        "sgemv: x length {} != cols {}",
        x.len(),
        a.cols()
    );
    Vector::from_fn(a.rows(), |r| dot_row(a.row(r), x.as_slice()))
}

/// Matrix-matrix product `a * b` (the paper's `Sgemm` kernel body).
///
/// Cache-blocked MC×KC×NC tiling: each KC×NC block of `b` is packed into
/// a contiguous panel once and reused by every row block of `a`, so the
/// panel stays cache-resident instead of `b` being re-streamed row-major
/// for every output row. Each output element still accumulates over `k`
/// in ascending order into a single accumulator, so the result is
/// bit-identical to the naive triple loop.
///
/// # Panics
/// Panics if `b.rows() != a.cols()`.
pub fn sgemm(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        b.rows(),
        a.cols(),
        "sgemm: inner dimensions differ ({} vs {})",
        a.cols(),
        b.rows()
    );
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    let mut bpanel = vec![0.0f32; k.min(KC) * n.min(NC)];
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            for kk in 0..kc {
                let brow = &b.row(pc + kk)[jc..jc + nc];
                bpanel[kk * nc..(kk + 1) * nc].copy_from_slice(brow);
            }
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                for r in ic..ic + mc {
                    let arow = &a.row(r)[pc..pc + kc];
                    let orow = &mut out.row_mut(r)[jc..jc + nc];
                    for (kk, &av) in arow.iter().enumerate() {
                        let bp = &bpanel[kk * nc..(kk + 1) * nc];
                        for (o, &bv) in orow.iter_mut().zip(bp) {
                            *o += av * bv;
                        }
                    }
                }
            }
        }
    }
    out
}

/// Row-masked matrix-vector product: computes `a * x` only for the rows
/// where `active[r]` is `true`; skipped rows produce `skipped_value`.
///
/// This is the numerical body of the `Sgemv(U_{f,i,c}, h_{t-1}, R)` kernel
/// of Algorithm 3: rows listed in the skip list `R` are neither loaded nor
/// computed, and the corresponding outputs are approximated downstream.
///
/// Implemented via [`crate::packed::sgemv_masked_gather`]: active rows are
/// gathered into a dense panel and run through the branch-free panel
/// micro-kernel, bit-identical to [`sgemv_masked_reference`].
///
/// # Panics
/// Panics if `x.len() != a.cols()` or `active.len() != a.rows()`.
pub fn sgemv_masked(a: &Matrix, x: &Vector, active: &[bool], skipped_value: f32) -> Vector {
    assert_eq!(x.len(), a.cols(), "sgemv_masked: x length mismatch");
    assert_eq!(active.len(), a.rows(), "sgemv_masked: mask length mismatch");
    sgemv_masked_gather(a, x, active, skipped_value)
}

/// Naive per-row reference for [`sgemv_masked`]: a branch per row, one
/// `dot_row`-ordered dot product per active row. Kept as the numerics
/// oracle for the gather kernel's property tests and as the "naive"
/// baseline in the `gemm_kernels` bench.
///
/// # Panics
/// Panics if `x.len() != a.cols()` or `active.len() != a.rows()`.
pub fn sgemv_masked_reference(
    a: &Matrix,
    x: &Vector,
    active: &[bool],
    skipped_value: f32,
) -> Vector {
    assert_eq!(x.len(), a.cols(), "sgemv_masked: x length mismatch");
    assert_eq!(active.len(), a.rows(), "sgemv_masked: mask length mismatch");
    Vector::from_fn(a.rows(), |r| {
        if active[r] {
            dot_row(a.row(r), x.as_slice())
        } else {
            skipped_value
        }
    })
}

/// Row-masked matrix-matrix product (the tissue-level analogue of
/// [`sgemv_masked`]): skipped rows of the output are filled with
/// `skipped_value` across all columns.
///
/// # Panics
/// Panics if shapes are incompatible or `active.len() != a.rows()`.
pub fn sgemm_masked(a: &Matrix, b: &Matrix, active: &[bool], skipped_value: f32) -> Matrix {
    assert_eq!(b.rows(), a.cols(), "sgemm_masked: inner dimensions differ");
    assert_eq!(active.len(), a.rows(), "sgemm_masked: mask length mismatch");
    let mut out = Matrix::from_fn(a.rows(), b.cols(), |_, _| skipped_value);
    for (r, &is_active) in active.iter().enumerate() {
        if !is_active {
            continue;
        }
        let arow = a.row(r);
        let orow = out.row_mut(r);
        orow.fill(0.0);
        for (k, &av) in arow.iter().enumerate() {
            let brow = b.row(k);
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
    out
}

/// `a * x + b` — GEMV fused with a bias add, the common pre-activation
/// shape of Eqs. 1–4.
///
/// # Panics
/// Panics if shapes are incompatible.
pub fn sgemv_bias(a: &Matrix, x: &Vector, b: &Vector) -> Vector {
    let mut y = Vector::zeros(a.rows());
    sgemv_bias_into(a, x, b, &mut y);
    y
}

/// [`sgemv`] writing into a caller-recycled vector (resized to `rows`,
/// reusing its buffer once warm). Bit-identical to [`sgemv`].
///
/// # Panics
/// Panics if `x.len() != a.cols()`.
pub fn sgemv_into(a: &Matrix, x: &Vector, out: &mut Vector) {
    assert_eq!(
        x.len(),
        a.cols(),
        "sgemv: x length {} != cols {}",
        x.len(),
        a.cols()
    );
    out.resize_fill(a.rows(), 0.0);
    for (r, o) in out.as_mut_slice().iter_mut().enumerate() {
        *o = dot_row(a.row(r), x.as_slice());
    }
}

/// [`sgemv_bias`] writing into a caller-recycled vector. Bit-identical
/// to [`sgemv_bias`].
///
/// # Panics
/// Panics if shapes are incompatible.
pub fn sgemv_bias_into(a: &Matrix, x: &Vector, b: &Vector, out: &mut Vector) {
    assert_eq!(b.len(), a.rows(), "sgemv_bias: bias length mismatch");
    sgemv_into(a, x, out);
    out.axpy(1.0, b);
}

/// Number of floating-point operations a dense GEMV performs
/// (`2 * rows * cols`: one multiply + one add per element).
pub fn gemv_flops(rows: usize, cols: usize) -> u64 {
    2 * rows as u64 * cols as u64
}

/// Number of floating-point operations a dense GEMM performs
/// (`2 * m * k * n`).
pub fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

pub(crate) fn dot_row(row: &[f32], x: &[f32]) -> f32 {
    // Unrolled-by-4 accumulation: measurably faster than a naive fold and
    // deterministic across runs (fixed association order). This association
    // — four phase accumulators summed left-to-right, then a sequential
    // tail — is the numerics contract every fast kernel reproduces.
    let mut acc0 = 0.0f32;
    let mut acc1 = 0.0f32;
    let mut acc2 = 0.0f32;
    let mut acc3 = 0.0f32;
    let chunks = row.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc0 += row[j] * x[j];
        acc1 += row[j + 1] * x[j + 1];
        acc2 += row[j + 2] * x[j + 2];
        acc3 += row[j + 3] * x[j + 3];
    }
    let mut acc = acc0 + acc1 + acc2 + acc3;
    for j in chunks * 4..row.len() {
        acc += row[j] * x[j];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn sgemv_small_known_answer() {
        let a = mat(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let x = Vector::from(vec![1.0, 0.0, -1.0]);
        assert_eq!(sgemv(&a, &x).as_slice(), &[-2.0, -2.0]);
    }

    #[test]
    fn sgemm_matches_manual() {
        let a = mat(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = mat(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        let c = sgemm(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn sgemm_identity_is_noop() {
        let a = mat(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(sgemm(&a, &Matrix::identity(2)), a);
        assert_eq!(sgemm(&Matrix::identity(2), &a), a);
    }

    #[test]
    fn sgemm_column_equals_gemv() {
        // GEMM over a batched-column matrix must reproduce per-column GEMV:
        // this is the numerical identity the tissue transformation relies on.
        let a = mat(3, 2, &[1.0, -1.0, 0.5, 2.0, 0.0, 1.0]);
        let h0 = Vector::from(vec![1.0, 2.0]);
        let h1 = Vector::from(vec![-3.0, 0.5]);
        let hs = Matrix::from_columns(&[&h0, &h1]);
        let c = sgemm(&a, &hs);
        assert_eq!(c.column(0), sgemv(&a, &h0));
        assert_eq!(c.column(1), sgemv(&a, &h1));
    }

    #[test]
    fn sgemm_blocked_matches_naive_bitwise() {
        // Shapes chosen to straddle every block boundary (MC=32, KC=64,
        // NC=128), including exact multiples and ragged tails.
        for (m, k, n) in [
            (1, 1, 1),
            (5, 7, 3),
            (32, 64, 128),
            (70, 130, 33),
            (33, 65, 129),
        ] {
            let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 7) % 23) as f32 / 5.0 - 2.0);
            let b = Matrix::from_fn(k, n, |r, c| ((r * 13 + c * 11) % 19) as f32 / 4.0 - 2.0);
            let fast = sgemm(&a, &b);
            let mut naive = Matrix::zeros(m, n);
            for r in 0..m {
                for kk in 0..k {
                    let av = a.row(r)[kk];
                    for j in 0..n {
                        naive.row_mut(r)[j] += av * b.row(kk)[j];
                    }
                }
            }
            for (f, nv) in fast.as_slice().iter().zip(naive.as_slice()) {
                assert_eq!(f.to_bits(), nv.to_bits(), "{m}x{k}x{n} diverged");
            }
        }
    }

    #[test]
    fn masked_gemv_skips_rows() {
        let a = mat(3, 2, &[1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        let x = Vector::from(vec![1.0, 1.0]);
        let y = sgemv_masked(&a, &x, &[true, false, true], -9.0);
        assert_eq!(y.as_slice(), &[2.0, -9.0, 6.0]);
    }

    #[test]
    fn masked_gemv_all_active_equals_dense() {
        let a = mat(3, 3, &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]);
        let x = Vector::from(vec![1.0, -1.0, 2.0]);
        let active = vec![true; 3];
        assert_eq!(sgemv_masked(&a, &x, &active, 0.0), sgemv(&a, &x));
    }

    #[test]
    fn masked_gemv_matches_reference() {
        let a = Matrix::from_fn(21, 17, |r, c| ((r * 5 + c * 3) % 13) as f32 / 3.0 - 2.0);
        let x = Vector::from_fn(17, |i| (i % 7) as f32 / 2.0 - 1.5);
        let active: Vec<bool> = (0..21).map(|r| r % 3 != 1).collect();
        assert_eq!(
            sgemv_masked(&a, &x, &active, -1.0),
            sgemv_masked_reference(&a, &x, &active, -1.0)
        );
    }

    #[test]
    fn masked_gemm_skips_rows() {
        let a = mat(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        let b = mat(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let c = sgemm_masked(&a, &b, &[false, true], 0.0);
        assert_eq!(c.row(0), &[0.0, 0.0]);
        assert_eq!(c.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn sgemv_bias_adds_offset() {
        let a = Matrix::identity(2);
        let x = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![10.0, 20.0]);
        assert_eq!(sgemv_bias(&a, &x, &b).as_slice(), &[11.0, 22.0]);
    }

    #[test]
    fn flop_counters() {
        assert_eq!(gemv_flops(4, 8), 64);
        assert_eq!(gemm_flops(2, 3, 4), 48);
    }

    #[test]
    #[should_panic(expected = "sgemv: x length")]
    fn sgemv_shape_mismatch_panics() {
        sgemv(&Matrix::zeros(2, 3), &Vector::zeros(2));
    }

    #[test]
    fn dot_row_handles_non_multiple_of_four() {
        let a = mat(1, 5, &[1.0, 1.0, 1.0, 1.0, 1.0]);
        let x = Vector::from(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(sgemv(&a, &x).as_slice(), &[15.0]);
    }
}
