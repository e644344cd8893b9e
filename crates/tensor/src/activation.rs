//! The gate activation functions of Eqs. 1–5.
//!
//! Both are effectively flat (insensitive to their input) outside the
//! *sensitive area* `[-2, 2]` of paper Fig. 7; `memlstm::relevance`
//! measures how much of a pre-activation's possible range overlaps it.

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
    fn tanh_is_odd() {
        assert_eq!(tanh(0.0), 0.0);
        assert!((tanh(1.0) + tanh(-1.0)).abs() < 1e-6);
    }
}
