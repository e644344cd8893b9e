//! Activation functions and their *sensitive area* (paper Fig. 7).
//!
//! The inter-cell optimization hinges on the observation that both the
//! sigmoid and the hyperbolic tangent are effectively flat (insensitive to
//! their input) outside `[-2, 2]`. Algorithm 2 measures how much of a
//! pre-activation's possible range overlaps that sensitive area.

/// Lower boundary of the sensitive area of `sigmoid`/`tanh` (paper Fig. 7).
pub const SENSITIVE_LO: f32 = -2.0;

/// Upper boundary of the sensitive area of `sigmoid`/`tanh` (paper Fig. 7).
pub const SENSITIVE_HI: f32 = 2.0;

/// Logistic sigmoid `1 / (1 + e^-x)`.
///
/// # Example
/// ```
/// assert_eq!(tensor::sigmoid(0.0), 0.5);
/// ```
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Hyperbolic tangent.
pub fn tanh(x: f32) -> f32 {
    x.tanh()
}

/// The piecewise-linear *hard sigmoid* `clamp(0.25 x + 0.5, 0, 1)` used by
/// some frameworks to accelerate LSTM inference (paper Sec. IV-A, \[30\]).
///
/// Its saturation boundaries coincide with the sensitive-area boundaries
/// `[-2, 2]`, which is why the paper's relevance analysis "fits both
/// sigmoid and fast sigmoid functions".
pub fn hard_sigmoid(x: f32) -> f32 {
    (0.25 * x + 0.5).clamp(0.0, 1.0)
}

/// Length of the overlap between the closed interval `[lo, hi]` and the
/// sensitive area `[-2, 2]`, clamped to `[0, 4]`.
///
/// This is the geometric primitive behind Algorithm 2's lines 4–5: a
/// pre-activation whose possible range does not overlap the sensitive area
/// produces a saturated (input-independent) gate value.
pub fn sensitive_overlap(lo: f32, hi: f32) -> f32 {
    debug_assert!(lo <= hi, "sensitive_overlap: inverted interval");
    (hi.min(SENSITIVE_HI) - lo.max(SENSITIVE_LO)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_symmetry_and_limits() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(10.0) > 0.9999);
        assert!(sigmoid(-10.0) < 0.0001);
    }

    #[test]
    fn hard_sigmoid_matches_boundaries() {
        assert_eq!(hard_sigmoid(SENSITIVE_LO), 0.0);
        assert_eq!(hard_sigmoid(0.0), 0.5);
        assert_eq!(hard_sigmoid(SENSITIVE_HI), 1.0);
        assert_eq!(hard_sigmoid(100.0), 1.0);
        assert_eq!(hard_sigmoid(-100.0), 0.0);
    }

    #[test]
    fn tanh_is_odd() {
        assert_eq!(tanh(0.0), 0.0);
        assert!((tanh(1.0) + tanh(-1.0)).abs() < 1e-6);
    }

    #[test]
    fn sensitivity_boundaries() {
        // Inside the sensitive area the hard sigmoid still moves with its
        // input; just outside it is pinned to its saturated value.
        assert!(hard_sigmoid(SENSITIVE_LO + 0.001) > 0.0);
        assert!(hard_sigmoid(SENSITIVE_HI - 0.001) < 1.0);
        assert_eq!(hard_sigmoid(2.001), 1.0);
        assert_eq!(hard_sigmoid(-2.001), 0.0);
    }

    #[test]
    fn overlap_geometry() {
        // Fully inside.
        assert_eq!(sensitive_overlap(-1.0, 1.0), 2.0);
        // Fully covers.
        assert_eq!(sensitive_overlap(-10.0, 10.0), 4.0);
        // Entirely above -> saturated, zero overlap.
        assert_eq!(sensitive_overlap(3.0, 7.0), 0.0);
        // Entirely below.
        assert_eq!(sensitive_overlap(-9.0, -2.5), 0.0);
        // Partial overlap.
        assert_eq!(sensitive_overlap(1.0, 5.0), 1.0);
        assert_eq!(sensitive_overlap(-5.0, -1.0), 1.0);
        // Degenerate point interval.
        assert_eq!(sensitive_overlap(0.0, 0.0), 0.0);
    }
}
