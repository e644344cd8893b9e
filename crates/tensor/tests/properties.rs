//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use tensor::gemm::{sgemv, sgemv_masked_reference};
use tensor::{Matrix, Vector};

fn finite_f32() -> impl Strategy<Value = f32> {
    (-100i32..=100).prop_map(|x| x as f32 / 10.0)
}

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(finite_f32(), rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).expect("sized by construction"))
}

fn vector(len: usize) -> impl Strategy<Value = Vector> {
    proptest::collection::vec(finite_f32(), len).prop_map(Vector::from)
}

proptest! {
    #[test]
    fn gemv_linearity(a in matrix(5, 4), x in vector(4), y in vector(4), s in finite_f32()) {
        // A(x + s*y) == Ax + s*Ay
        let mut xsy = x.clone();
        xsy.axpy(s, &y);
        let lhs = sgemv(&a, &xsy);
        let mut rhs = sgemv(&a, &x);
        rhs.axpy(s, &sgemv(&a, &y));
        for i in 0..lhs.len() {
            prop_assert!((lhs[i] - rhs[i]).abs() < 1e-2, "i={} {} vs {}", i, lhs[i], rhs[i]);
        }
    }

    #[test]
    fn masked_gemv_agrees_on_active_rows(a in matrix(6, 4), x in vector(4), mask in proptest::collection::vec(any::<bool>(), 6)) {
        let dense = sgemv(&a, &x);
        let masked = sgemv_masked_reference(&a, &x, &mask, f32::NAN);
        for (i, &active) in mask.iter().enumerate() {
            if active {
                prop_assert_eq!(masked[i], dense[i]);
            } else {
                prop_assert!(masked[i].is_nan());
            }
        }
    }

    #[test]
    fn row_abs_sums_bound_gemv(a in matrix(5, 5), x in proptest::collection::vec(-1.0f32..=1.0, 5)) {
        // With inputs in [-1, 1], every output element is bounded by the
        // row's L1 norm — the invariant Algorithm 2 line 2 relies on.
        let x = Vector::from(x);
        let y = sgemv(&a, &x);
        let d = a.row_abs_sums();
        for i in 0..5 {
            prop_assert!(y[i].abs() <= d[i] + 1e-4);
        }
    }

    #[test]
    fn vstack_then_row_block_round_trips(a in matrix(3, 4), b in matrix(2, 4)) {
        let s = Matrix::vstack(&[&a, &b]);
        prop_assert_eq!(s.row_block(0, 3), a);
        prop_assert_eq!(s.row_block(3, 2), b);
    }

    #[test]
    fn running_stats_mean_matches_naive(vs in proptest::collection::vec(proptest::collection::vec(finite_f32(), 3), 1..20)) {
        let mut stats = tensor::RunningStats::new(3);
        for v in &vs {
            stats.push(&Vector::from(v.clone()));
        }
        let mean = stats.mean();
        for i in 0..3 {
            let naive: f32 = vs.iter().map(|v| v[i]).sum::<f32>() / vs.len() as f32;
            prop_assert!((mean[i] - naive).abs() < 1e-3);
        }
    }
}
