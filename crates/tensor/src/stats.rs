//! Running statistics.
//!
//! The inter-cell accuracy-recovery step (paper Sec. IV-B, Eq. 6) predicts
//! the context link lost at each breakpoint with the per-element
//! *expectation* of the context-link distribution, collected offline over a
//! training set. [`RunningStats`] accumulates exactly that.

use crate::vector::Vector;

/// Streaming per-element mean/variance accumulator (Welford's algorithm)
/// over a population of equal-length vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: Vec<f64>,
    m2: Vec<f64>,
}

impl RunningStats {
    /// Creates an accumulator for vectors of length `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            count: 0,
            mean: vec![0.0; dim],
            m2: vec![0.0; dim],
        }
    }

    /// Element dimensionality.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Number of vectors observed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds one observation into the accumulator.
    ///
    /// # Panics
    /// Panics if `v.len() != self.dim()`.
    pub fn push(&mut self, v: &Vector) {
        assert_eq!(
            v.len(),
            self.dim(),
            "RunningStats::push: dimension mismatch"
        );
        self.count += 1;
        for (i, &x) in v.iter().enumerate() {
            let x = f64::from(x);
            let delta = x - self.mean[i];
            self.mean[i] += delta / self.count as f64;
            self.m2[i] += delta * (x - self.mean[i]);
        }
    }

    /// The per-element expectation vector (Eq. 6's `h̄_j`); zeros when no
    /// observations have been pushed.
    pub fn mean(&self) -> Vector {
        Vector::from_fn(self.dim(), |i| self.mean[i] as f32)
    }

    /// The per-element population variance; zeros until two observations.
    pub fn variance(&self) -> Vector {
        if self.count < 2 {
            return Vector::zeros(self.dim());
        }
        Vector::from_fn(self.dim(), |i| (self.m2[i] / self.count as f64) as f32)
    }

    /// Merges another accumulator over the same dimensionality
    /// (parallel-friendly Chan et al. combination).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn merge(&mut self, other: &RunningStats) {
        assert_eq!(
            self.dim(),
            other.dim(),
            "RunningStats::merge: dimension mismatch"
        );
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        for i in 0..self.dim() {
            let delta = other.mean[i] - self.mean[i];
            self.mean[i] += delta * other.count as f64 / total as f64;
            self.m2[i] += other.m2[i]
                + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        }
        self.count = total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_mean_variance() {
        let mut s = RunningStats::new(2);
        s.push(&Vector::from(vec![1.0, 10.0]));
        s.push(&Vector::from(vec![3.0, 10.0]));
        s.push(&Vector::from(vec![5.0, 10.0]));
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean().as_slice(), &[3.0, 10.0]);
        let var = s.variance();
        assert!((var[0] - 8.0 / 3.0).abs() < 1e-5);
        assert!(var[1].abs() < 1e-6);
    }

    #[test]
    fn running_stats_empty_is_zero() {
        let s = RunningStats::new(3);
        assert_eq!(s.mean(), Vector::zeros(3));
        assert_eq!(s.variance(), Vector::zeros(3));
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<Vector> = (0..10)
            .map(|i| Vector::from(vec![i as f32, (i * i) as f32]))
            .collect();
        let mut all = RunningStats::new(2);
        for v in &data {
            all.push(v);
        }
        let mut a = RunningStats::new(2);
        let mut b = RunningStats::new(2);
        for v in &data[..4] {
            a.push(v);
        }
        for v in &data[4..] {
            b.push(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        for i in 0..2 {
            assert!((a.mean()[i] - all.mean()[i]).abs() < 1e-4);
            assert!((a.variance()[i] - all.variance()[i]).abs() < 1e-2);
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new(1);
        a.push(&Vector::from(vec![2.0]));
        let before = a.clone();
        a.merge(&RunningStats::new(1));
        assert_eq!(a, before);

        let mut empty = RunningStats::new(1);
        empty.merge(&before);
        assert_eq!(empty, before);
    }
}
