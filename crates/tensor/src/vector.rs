//! Dense `f32` vectors.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, heap-allocated `f32` vector.
///
/// `Vector` is the unit of data flowing between LSTM cells: the layer
/// input `x_t`, the hidden state `h_t`, and the cell state `c_t` are all
/// vectors (paper Sec. II-B).
#[derive(Debug, PartialEq, Default)]
pub struct Vector {
    data: Vec<f32>,
}

impl Clone for Vector {
    fn clone(&self) -> Self {
        Self {
            data: self.data.clone(),
        }
    }

    /// Reuses `self`'s existing heap buffer when it is large enough,
    /// so `clone_from` in a steady-state loop never allocates. The
    /// derived impl would fall back to `*self = source.clone()`.
    fn clone_from(&mut self, source: &Self) {
        self.data.clone_from(&source.data);
    }
}

impl Vector {
    /// Creates a zero vector of length `len`.
    ///
    /// # Example
    /// ```
    /// let v = tensor::Vector::zeros(3);
    /// assert_eq!(v.as_slice(), &[0.0, 0.0, 0.0]);
    /// ```
    pub fn zeros(len: usize) -> Self {
        Self {
            data: vec![0.0; len],
        }
    }

    /// Creates a vector filled with `value`.
    pub fn filled(len: usize, value: f32) -> Self {
        Self {
            data: vec![value; len],
        }
    }

    /// Creates a vector by evaluating `f` at each index.
    pub fn from_fn(len: usize, f: impl FnMut(usize) -> f32) -> Self {
        Self {
            data: (0..len).map(f).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the elements as a slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Borrows the elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the vector, returning the underlying storage.
    pub fn into_inner(self) -> Vec<f32> {
        self.data
    }

    /// Iterates over the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Dot product with `other`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &Vector) -> f32 {
        assert_eq!(self.len(), other.len(), "dot: length mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Element-wise (Hadamard) product, as used by the gate applications in
    /// Eq. 3 and Eq. 5 of the paper.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn hadamard(&self, other: &Vector) -> Vector {
        assert_eq!(self.len(), other.len(), "hadamard: length mismatch");
        Vector::from_fn(self.len(), |i| self.data[i] * other.data[i])
    }

    /// Element-wise sum.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn add(&self, other: &Vector) -> Vector {
        assert_eq!(self.len(), other.len(), "add: length mismatch");
        Vector::from_fn(self.len(), |i| self.data[i] + other.data[i])
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn sub(&self, other: &Vector) -> Vector {
        assert_eq!(self.len(), other.len(), "sub: length mismatch");
        Vector::from_fn(self.len(), |i| self.data[i] - other.data[i])
    }

    /// In-place `self += alpha * other` (the BLAS `axpy` primitive).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn axpy(&mut self, alpha: f32, other: &Vector) {
        assert_eq!(self.len(), other.len(), "axpy: length mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scales every element by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Applies `f` to every element, returning a new vector.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Vector {
        Vector {
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Maximum absolute element, or 0 for an empty vector.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Arithmetic mean, or 0 for an empty vector.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }

    /// Index of the maximum element (first on ties); `None` when empty.
    ///
    /// Used as the classification decision of the task heads in the
    /// teacher-match accuracy evaluation.
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0;
        for (i, &x) in self.data.iter().enumerate() {
            if x > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Concatenates `parts` into one vector.
    pub fn concat(parts: &[&Vector]) -> Vector {
        let mut data = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Vector { data }
    }

    /// Resets the vector to `len` copies of `value`, reusing the
    /// existing heap buffer whenever its capacity suffices.
    ///
    /// This is the allocation-free steady-state twin of
    /// [`Vector::filled`]: hot loops call it on a recycled vector
    /// instead of constructing a fresh one each step.
    pub fn resize_fill(&mut self, len: usize, value: f32) {
        self.data.clear();
        self.data.resize(len, value);
    }

    /// Returns the sub-vector `[start, start + len)`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, start: usize, len: usize) -> Vector {
        Vector {
            data: self.data[start..start + len].to_vec(),
        }
    }
}

impl From<Vec<f32>> for Vector {
    fn from(data: Vec<f32>) -> Self {
        Self { data }
    }
}

impl From<&[f32]> for Vector {
    fn from(data: &[f32]) -> Self {
        Self {
            data: data.to_vec(),
        }
    }
}

impl FromIterator<f32> for Vector {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        Self {
            data: iter.into_iter().collect(),
        }
    }
}

impl Extend<f32> for Vector {
    fn extend<I: IntoIterator<Item = f32>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

impl Index<usize> for Vector {
    type Output = f32;

    fn index(&self, i: usize) -> &f32 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        &mut self.data[i]
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f32;
    type IntoIter = std::slice::Iter<'a, f32>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl IntoIterator for Vector {
    type Item = f32;
    type IntoIter = std::vec::IntoIter<f32>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.into_iter()
    }
}

impl AsRef<[f32]> for Vector {
    fn as_ref(&self) -> &[f32] {
        &self.data
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.4}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_filled() {
        assert_eq!(Vector::zeros(2).as_slice(), &[0.0, 0.0]);
        assert_eq!(Vector::filled(2, 3.5).as_slice(), &[3.5, 3.5]);
        assert!(Vector::zeros(0).is_empty());
    }

    #[test]
    fn dot_product() {
        let a = Vector::from(vec![1.0, 2.0, 3.0]);
        let b = Vector::from(vec![4.0, -5.0, 6.0]);
        assert_eq!(a.dot(&b), 4.0 - 10.0 + 18.0);
    }

    #[test]
    #[should_panic(expected = "dot: length mismatch")]
    fn dot_length_mismatch_panics() {
        Vector::zeros(2).dot(&Vector::zeros(3));
    }

    #[test]
    fn hadamard_and_add_sub() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![3.0, -4.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[3.0, -8.0]);
        assert_eq!(a.add(&b).as_slice(), &[4.0, -2.0]);
        assert_eq!(a.sub(&b).as_slice(), &[-2.0, 6.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Vector::from(vec![1.0, 1.0]);
        a.axpy(2.0, &Vector::from(vec![3.0, -1.0]));
        assert_eq!(a.as_slice(), &[7.0, -1.0]);
    }

    #[test]
    fn argmax_finds_first_max() {
        assert_eq!(Vector::from(vec![1.0, 3.0, 3.0, 2.0]).argmax(), Some(1));
        assert_eq!(Vector::zeros(0).argmax(), None);
    }

    #[test]
    fn concat_and_slice_round_trip() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![3.0]);
        let c = Vector::concat(&[&a, &b]);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(c.slice(1, 2).as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn norm_and_max_abs() {
        let v = Vector::from(vec![3.0, -4.0]);
        assert!((v.norm() - 5.0).abs() < 1e-6);
        assert_eq!(v.max_abs(), 4.0);
        assert_eq!(v.mean(), -0.5);
    }

    #[test]
    fn map_and_scale() {
        let mut v = Vector::from(vec![1.0, -2.0]);
        assert_eq!(v.map(f32::abs).as_slice(), &[1.0, 2.0]);
        v.scale(3.0);
        assert_eq!(v.as_slice(), &[3.0, -6.0]);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut v: Vector = (0..3).map(|i| i as f32).collect();
        v.extend([9.0]);
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0, 9.0]);
    }

    #[test]
    fn display_formats_elements() {
        let v = Vector::from(vec![1.0]);
        assert_eq!(v.to_string(), "[1.0000]");
    }
}
