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

/// An activation function choice for gate computations.
///
/// The paper's cells use [`Activation::Sigmoid`] on the gates and
/// [`Activation::Tanh`] on the candidate state; [`Activation::HardSigmoid`]
/// is the accelerated variant some mobile frameworks substitute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Logistic sigmoid.
    #[default]
    Sigmoid,
    /// Piecewise-linear hard sigmoid.
    HardSigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation to `x`.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Sigmoid => sigmoid(x),
            Activation::HardSigmoid => hard_sigmoid(x),
            Activation::Tanh => tanh(x),
        }
    }

    /// Output range `(lo, hi)` of the activation.
    pub fn output_range(self) -> (f32, f32) {
        match self {
            Activation::Sigmoid | Activation::HardSigmoid => (0.0, 1.0),
            Activation::Tanh => (-1.0, 1.0),
        }
    }

    /// The saturated output the activation approaches above the sensitive
    /// area. Below the sensitive area it approaches the range minimum.
    pub fn saturated_hi(self) -> f32 {
        self.output_range().1
    }

    /// `true` when `x` lies inside the sensitive area `[-2, 2]`.
    pub fn is_sensitive(self, x: f32) -> bool {
        (SENSITIVE_LO..=SENSITIVE_HI).contains(&x)
    }
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
    fn activation_enum_dispatch() {
        assert_eq!(Activation::Sigmoid.apply(0.0), 0.5);
        assert_eq!(Activation::HardSigmoid.apply(0.0), 0.5);
        assert_eq!(Activation::Tanh.apply(0.0), 0.0);
        assert_eq!(Activation::Tanh.output_range(), (-1.0, 1.0));
        assert_eq!(Activation::Sigmoid.output_range(), (0.0, 1.0));
        assert_eq!(Activation::Sigmoid.saturated_hi(), 1.0);
    }

    #[test]
    fn sensitivity_boundaries() {
        assert!(Activation::Sigmoid.is_sensitive(0.0));
        assert!(Activation::Sigmoid.is_sensitive(SENSITIVE_LO));
        assert!(Activation::Sigmoid.is_sensitive(SENSITIVE_HI));
        assert!(!Activation::Sigmoid.is_sensitive(2.001));
        assert!(!Activation::Sigmoid.is_sensitive(-2.001));
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
