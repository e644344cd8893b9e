//! Row-major `Sgemv` reference kernels, dense and row-masked.
//!
//! The free functions here define the numerics of the paper's kernels
//! (Algorithm 1 and Algorithm 3); the GPU cost of executing them is modelled
//! separately by the `gpu-sim` crate from kernel descriptors.
//!
//! [`sgemv`] and [`sgemv_masked_reference`] are the *reference* kernels:
//! simple row-at-a-time loops whose accumulation order defines the
//! numerics every faster path must reproduce bit-for-bit. The fast paths
//! are the products of the packed gate slab [`crate::FusedGates`] (dense,
//! batched and masked in place); the property tests in this crate pin
//! each of them to its reference bitwise. The `_into`/`_bias` forms here
//! serve the small classifier heads, which run once per sequence.

use crate::matrix::Matrix;
use crate::vector::Vector;

/// Matrix-vector product `a * x` (the paper's `Sgemv(U, h)` kernel body).
///
/// This is the reference row-at-a-time kernel. When the same matrix is
/// applied repeatedly (the recurrent LSTM shape), pack it once into a
/// [`crate::FusedGates`] slab — same bits, much faster.
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

/// Row-masked matrix-vector product: computes `a * x` only for the rows
/// where `active[r]` is `true`; skipped rows produce `skipped_value`.
///
/// This is the numerical body of the `Sgemv(U_{f,i,c}, h_{t-1}, R)` kernel
/// of Algorithm 3: rows listed in the skip list `R` are neither loaded nor
/// computed, and the corresponding outputs are approximated downstream.
/// A branch per row, one `dot_row`-ordered dot product per active row:
/// the numerics oracle of the packed slab's in-place masked products
/// (`FusedGates::gate_gemv_masked_into`).
///
/// # Panics
/// Panics if `x.len() != a.cols()` or `active.len() != a.rows()`.
pub fn sgemv_masked_reference(
    a: &Matrix,
    x: &Vector,
    active: &[bool],
    skipped_value: f32,
) -> Vector {
    assert_eq!(
        x.len(),
        a.cols(),
        "sgemv_masked_reference: x length mismatch"
    );
    assert_eq!(
        active.len(),
        a.rows(),
        "sgemv_masked_reference: mask length mismatch"
    );
    Vector::from_fn(a.rows(), |r| {
        if active[r] {
            dot_row(a.row(r), x.as_slice())
        } else {
            skipped_value
        }
    })
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
    fn masked_gemv_skips_rows() {
        let a = mat(3, 2, &[1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        let x = Vector::from(vec![1.0, 1.0]);
        let y = sgemv_masked_reference(&a, &x, &[true, false, true], -9.0);
        assert_eq!(y.as_slice(), &[2.0, -9.0, 6.0]);
    }

    #[test]
    fn masked_gemv_all_active_equals_dense() {
        let a = mat(3, 3, &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]);
        let x = Vector::from(vec![1.0, -1.0, 2.0]);
        let active = vec![true; 3];
        assert_eq!(sgemv_masked_reference(&a, &x, &active, 0.0), sgemv(&a, &x));
    }

    #[test]
    fn sgemv_bias_adds_offset() {
        let a = Matrix::identity(2);
        let x = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![10.0, 20.0]);
        assert_eq!(sgemv_bias(&a, &x, &b).as_slice(), &[11.0, 22.0]);
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
