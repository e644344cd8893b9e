//! Dense row-major `f32` matrices.

use crate::error::{ShapeError, TensorResult};
use crate::vector::Vector;
use std::fmt;

/// A dense, row-major `f32` matrix.
///
/// Weight matrices in the paper (`W_{f,i,c,o}`, `U_{f,i,c,o}`) are stored
/// and processed in row order; Dynamic Row Skip exploits the fact that
/// "elements from different rows are totally irrelevant" (Sec. V), which is
/// why this type exposes row-granular views and row-masked kernels.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` zero matrix.
    ///
    /// # Example
    /// ```
    /// let m = tensor::Matrix::zeros(2, 2);
    /// assert_eq!(m[(1, 1)], 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` at each position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from a row-major buffer.
    ///
    /// # Errors
    /// Returns [`ShapeError`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> TensorResult<Self> {
        if data.len() != rows * cols {
            return Err(ShapeError::new("from_vec", (rows, cols), (data.len(), 1)));
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the backing storage in bytes (4 bytes per `f32`), the
    /// quantity the memory-traffic model charges for a full matrix load.
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrows row `r` mutably.
    ///
    /// # Panics
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrows the full row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Borrows the full row-major storage mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Matrix-vector product `self * x` (the paper's `Sgemv`).
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    pub fn gemv(&self, x: &Vector) -> Vector {
        crate::gemm::sgemv(self, x)
    }

    /// Vertically stacks `parts` (all must share the column count).
    ///
    /// Used to build the united weight matrices `U_{f,i,c,o}` and
    /// `W_{f,i,c,o}` from the per-gate matrices (paper Sec. II-C).
    ///
    /// # Panics
    /// Panics if `parts` is empty or column counts differ.
    pub fn vstack(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "vstack: no parts");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "vstack: column mismatch");
            data.extend_from_slice(&p.data);
        }
        Matrix { rows, cols, data }
    }

    /// Horizontally concatenates column vectors into a matrix whose `k`-th
    /// column is `columns[k]`.
    ///
    /// Used by tissue execution to batch the per-cell `h_{t-1}` vectors
    /// into the united input matrix `H_t` (paper Fig. 10, step 9).
    ///
    /// # Panics
    /// Panics if `columns` is empty or lengths differ.
    pub fn from_columns(columns: &[&Vector]) -> Matrix {
        assert!(!columns.is_empty(), "from_columns: no columns");
        let rows = columns[0].len();
        for c in columns {
            assert_eq!(c.len(), rows, "from_columns: length mismatch");
        }
        Matrix::from_fn(rows, columns.len(), |r, c| columns[c][r])
    }

    /// Extracts column `c` as a vector.
    ///
    /// # Panics
    /// Panics if `c >= cols`.
    pub fn column(&self, c: usize) -> Vector {
        assert!(
            c < self.cols,
            "column index {c} out of bounds ({})",
            self.cols
        );
        Vector::from_fn(self.rows, |r| self[(r, c)])
    }

    /// Returns the sub-matrix consisting of rows `[start, start + count)`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn row_block(&self, start: usize, count: usize) -> Matrix {
        assert!(start + count <= self.rows, "row_block out of bounds");
        Matrix {
            rows: count,
            cols: self.cols,
            data: self.data[start * self.cols..(start + count) * self.cols].to_vec(),
        }
    }

    /// Per-row sum of absolute values, `D_j = sum_k |U[j][k]|`.
    ///
    /// This is line 2 of the paper's Algorithm 2: with `h` in `[-1, 1]`,
    /// the matrix-vector product row `j` is guaranteed to lie in
    /// `[-D_j, D_j]`.
    pub fn row_abs_sums(&self) -> Vector {
        Vector::from_fn(self.rows, |r| self.row(r).iter().map(|x| x.abs()).sum())
    }

    /// Maximum absolute element, or 0 for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self[(r, c)])?;
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_bytes() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert_eq!(m.size_bytes(), 48);
        assert!(!m.is_empty());
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 5]).is_err());
    }

    #[test]
    fn identity_gemv_is_noop() {
        let m = Matrix::identity(3);
        let x = Vector::from(vec![1.0, -2.0, 3.0]);
        assert_eq!(m.gemv(&x), x);
    }

    #[test]
    fn indexing_row_major() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn vstack_concatenates_gate_matrices() {
        let a = Matrix::from_fn(1, 2, |_, c| c as f32);
        let b = Matrix::from_fn(2, 2, |r, c| 10.0 + (r * 2 + c) as f32);
        let s = Matrix::vstack(&[&a, &b]);
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(0), &[0.0, 1.0]);
        assert_eq!(s.row(2), &[12.0, 13.0]);
    }

    #[test]
    #[should_panic(expected = "vstack: column mismatch")]
    fn vstack_rejects_ragged() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(1, 3);
        Matrix::vstack(&[&a, &b]);
    }

    #[test]
    fn from_columns_builds_batched_input() {
        let h0 = Vector::from(vec![1.0, 2.0]);
        let h1 = Vector::from(vec![3.0, 4.0]);
        let m = Matrix::from_columns(&[&h0, &h1]);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.column(0), h0);
        assert_eq!(m.column(1), h1);
    }

    #[test]
    fn row_block_extracts_gate_slice() {
        let m = Matrix::from_fn(4, 2, |r, _| r as f32);
        let b = m.row_block(1, 2);
        assert_eq!(b.shape(), (2, 2));
        assert_eq!(b.row(0), &[1.0, 1.0]);
        assert_eq!(b.row(1), &[2.0, 2.0]);
    }

    #[test]
    fn row_abs_sums_bounds_product() {
        let m = Matrix::from_vec(2, 2, vec![1.0, -2.0, 0.5, 0.5]).unwrap();
        let d = m.row_abs_sums();
        assert_eq!(d.as_slice(), &[3.0, 1.0]);
        // For any h in [-1,1]^2 the product must lie within [-D, D].
        let h = Vector::from(vec![-1.0, 1.0]);
        let y = m.gemv(&h);
        for (yi, di) in y.iter().zip(d.iter()) {
            assert!(yi.abs() <= *di + 1e-6);
        }
    }

    #[test]
    fn norms() {
        let m = Matrix::from_vec(1, 2, vec![3.0, -4.0]).unwrap();
        assert_eq!(m.max_abs(), 4.0);
    }
}
