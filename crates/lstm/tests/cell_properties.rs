//! Property tests for the LSTM cell numerics.

use lstm::cell::{CellInit, CellWeights};
use proptest::prelude::*;
use tensor::init::seeded_rng;
use tensor::Vector;

fn inputs(len: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    proptest::collection::vec(proptest::collection::vec(-1.0f32..=1.0, dim), len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hidden_outputs_always_bounded(seed in 0u64..500, xs in inputs(6, 8)) {
        // Paper Sec. IV-A's premise: h in [-1, 1] always, so the D bounds
        // of Algorithm 2 are sound.
        let cell = CellWeights::random(8, 12, &mut seeded_rng(seed));
        let (mut h, mut c) = (Vector::zeros(12), Vector::zeros(12));
        for x in xs {
            (h, c) = cell.step(&cell.precompute_wx(&Vector::from(x)), &h, &c);
            prop_assert!(h.max_abs() <= 1.0);
        }
    }

    #[test]
    fn gates_stay_in_unit_interval(seed in 0u64..500, x in proptest::collection::vec(-2.0f32..=2.0, 8)) {
        // From a zero state `c_1 = i_1 * tanh(..)`, so `|c_1| <= 1` holds
        // exactly when the input gate stays in the unit interval.
        let cell = CellWeights::random(8, 10, &mut seeded_rng(seed));
        let wx = cell.precompute_wx(&Vector::from(x));
        let (_, c) = cell.step(&wx, &Vector::zeros(10), &Vector::zeros(10));
        let o = cell.output_gate(&wx.o, &Vector::zeros(10));
        for j in 0..10 {
            prop_assert!((0.0..=1.0).contains(&o[j]));
            prop_assert!((-1.0..=1.0).contains(&c[j]));
        }
    }

    #[test]
    fn masked_step_with_full_mask_equals_exact(seed in 0u64..200, x in proptest::collection::vec(-1.0f32..=1.0, 6)) {
        let cell = CellWeights::random(6, 8, &mut seeded_rng(seed));
        let x = Vector::from(x);
        let h0 = Vector::from_fn(8, |i| ((i * 7 + seed as usize) % 5) as f32 / 5.0 - 0.4);
        let c0 = Vector::filled(8, 0.3);
        let wx = cell.precompute_wx(&x);
        let o = cell.output_gate(&wx.o, &h0);
        let (hm, cm) = cell.step_masked(&wx, &h0, &c0, &o, &[true; 8]);
        let (he, ce) = cell.step(&wx, &h0, &c0);
        for j in 0..8 {
            prop_assert!((hm[j] - he[j]).abs() < 1e-6);
            prop_assert!((cm[j] - ce[j]).abs() < 1e-6);
        }
    }

    #[test]
    fn skipped_h_error_is_bounded_by_alpha(seed in 0u64..200, alpha in 0.001f32..0.2) {
        // The DRS guarantee at one step: a skipped element's h error is at
        // most the threshold (|h| = o * |tanh(c)| <= o < alpha).
        let cell = CellWeights::random(6, 8, &mut seeded_rng(seed));
        let mut rng = seeded_rng(seed ^ 1);
        use rand::Rng;
        let x = Vector::from_fn(6, |_| rng.gen_range(-1.0f32..1.0));
        let h0 = Vector::from_fn(8, |_| rng.gen_range(-1.0f32..1.0));
        let c0 = Vector::from_fn(8, |_| rng.gen_range(-1.5f32..1.5));
        let wx = cell.precompute_wx(&x);
        let o = cell.output_gate(&wx.o, &h0);
        let mask = memlstm_mask(&o, alpha);
        let (hm, _) = cell.step_masked(&wx, &h0, &c0, &o, &mask);
        let (he, _) = cell.step(&wx, &h0, &c0);
        for j in 0..8 {
            if !mask[j] {
                prop_assert!((hm[j] - he[j]).abs() <= alpha + 1e-6);
            } else {
                prop_assert!((hm[j] - he[j]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn deterministic_weights(seed in 0u64..1000) {
        let init = CellInit::default();
        let a = CellWeights::random_with(5, 7, &init, &mut seeded_rng(seed));
        let b = CellWeights::random_with(5, 7, &init, &mut seeded_rng(seed));
        prop_assert_eq!(a, b);
    }
}

/// Local copy of the DRS mask rule (memlstm depends on lstm, not the
/// other way around).
fn memlstm_mask(o: &Vector, alpha: f32) -> Vec<bool> {
    o.iter().map(|&v| v >= alpha).collect()
}
