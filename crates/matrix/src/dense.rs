//! Owned dense matrices.
//!
//! Storage is **row-major** with an explicit leading dimension (`ld`),
//! matching the convention of the paper's DGEMM ("Our DGEMM kernel assumes
//! that all three matrices are in row-major format", Section III-A).
//! Column-major callers convert via [`Matrix::transposed`], exactly as the
//! paper's footnote 3 derives column-major GEMM from the row-major kernel.

use crate::aligned::AlignedBuf;
use crate::scalar::Scalar;
use crate::view::{MatrixView, MatrixViewMut};

/// An owned `rows × cols` dense matrix in row-major order with leading
/// dimension `ld ≥ cols`, backed by a 64-byte-aligned buffer.
#[derive(Clone)]
pub struct Matrix<T: Scalar> {
    rows: usize,
    cols: usize,
    ld: usize,
    buf: AlignedBuf<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates a zero matrix. The leading dimension is padded up to a
    /// multiple of 8 elements so every row starts 64-byte aligned for f64
    /// (the Knights Corner vector width).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let ld = if cols == 0 { 0 } else { (cols + 7) & !7 };
        Self::zeros_with_ld(rows, cols, ld)
    }

    /// Creates a zero matrix with an explicit leading dimension.
    ///
    /// # Panics
    /// Panics if `ld < cols` (unless both are zero).
    fn zeros_with_ld(rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= cols, "leading dimension {ld} < cols {cols}");
        let buf = AlignedBuf::zeroed(rows.checked_mul(ld).expect("matrix size overflow"));
        Self {
            rows,
            cols,
            ld,
            buf,
        }
    }

    /// Builds a matrix from a generator function over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Builds a matrix from nested row slices. All rows must have the same
    /// length.
    pub fn from_rows(rows: &[&[T]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        assert!(
            rows.iter().all(|r| r.len() == ncols),
            "ragged rows in Matrix::from_rows"
        );
        Self::from_fn(nrows, ncols, |i, j| rows[i][j])
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| if i == j { T::ONE } else { T::ZERO })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i` (only the `cols` live elements, not the padding).
    pub fn row(&self, i: usize) -> &[T] {
        assert!(i < self.rows);
        &self.buf[i * self.ld..i * self.ld + self.cols]
    }

    /// Underlying storage including padding (length `rows * ld`).
    pub fn as_slice(&self) -> &[T] {
        &self.buf
    }

    /// Mutable underlying storage including padding.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.buf
    }

    /// Immutable view of the whole matrix.
    pub fn view(&self) -> MatrixView<'_, T> {
        MatrixView::new(&self.buf, self.rows, self.cols, self.ld)
    }

    /// Mutable view of the whole matrix.
    pub fn view_mut(&mut self) -> MatrixViewMut<'_, T> {
        let (rows, cols, ld) = (self.rows, self.cols, self.ld);
        MatrixViewMut::new(&mut self.buf, rows, cols, ld)
    }

    /// Immutable view of the `nr × nc` sub-matrix anchored at `(r0, c0)`.
    pub fn sub(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatrixView<'_, T> {
        self.view().sub(r0, c0, nr, nc)
    }

    /// Mutable view of the `nr × nc` sub-matrix anchored at `(r0, c0)`.
    pub fn sub_mut(&mut self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatrixViewMut<'_, T> {
        self.view_mut().into_sub(r0, c0, nr, nc)
    }

    /// Returns the transposed matrix (fresh storage).
    #[cfg(test)]
    pub(crate) fn transposed(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Swaps rows `a` and `b` in full width (used by DLASWP).
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        assert!(a < self.rows && b < self.rows);
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let ld = self.ld;
        let (head, tail) = self.buf.split_at_mut(hi * ld);
        head[lo * ld..lo * ld + self.cols].swap_with_slice(&mut tail[..self.cols]);
    }

    /// Largest absolute element difference against `other`.
    ///
    /// # Panics
    /// Panics when the shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        let mut worst = 0.0f64;
        for i in 0..self.rows {
            for (x, y) in self.row(i).iter().zip(other.row(i)) {
                worst = worst.max((x.to_f64() - y.to_f64()).abs());
            }
        }
        worst
    }

    /// True when all elements agree within `tol` absolutely.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.max_abs_diff(other) <= tol
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) OOB");
        &self.buf[i * self.ld + j]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) OOB");
        &mut self.buf[i * self.ld + j]
    }
}

impl<T: Scalar> std::fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} (ld {})", self.rows, self.cols, self.ld)?;
        if self.rows <= 12 && self.cols <= 12 {
            for i in 0..self.rows {
                write!(f, "  [")?;
                for j in 0..self.cols {
                    if j > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{:10.4}", self[(i, j)])?;
                }
                writeln!(f, "]")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_padding() {
        let m = Matrix::<f64>::zeros(3, 5);
        assert_eq!((m.rows(), m.cols()), (3, 5));
        assert_eq!(m.ld, 8, "ld rounds up to vector width");
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_fn_and_index() {
        let m = Matrix::<f64>::from_fn(4, 3, |i, j| (10 * i + j) as f64);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(3, 2)], 32.0);
        assert_eq!(m.row(2), &[20.0, 21.0, 22.0]);
    }

    #[test]
    fn identity_is_identity() {
        let id = Matrix::<f32>::identity(5);
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(id[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn transpose_round_trips() {
        let m = Matrix::<f64>::from_fn(3, 7, |i, j| (i * 7 + j) as f64);
        let tt = m.transposed().transposed();
        assert!(m.approx_eq(&tt, 0.0));
    }

    #[test]
    fn swap_rows_swaps_full_width() {
        let mut m = Matrix::<f64>::from_fn(4, 4, |i, _| i as f64);
        m.swap_rows(0, 3);
        assert_eq!(m.row(0), &[3.0; 4]);
        assert_eq!(m.row(3), &[0.0; 4]);
        m.swap_rows(1, 1); // no-op
        assert_eq!(m.row(1), &[1.0; 4]);
    }

    #[test]
    fn explicit_ld_is_respected() {
        let mut m = Matrix::<f64>::zeros_with_ld(2, 3, 10);
        m[(1, 2)] = 9.0;
        assert_eq!(m.ld, 10);
        assert_eq!(m.as_slice()[12], 9.0);
    }

    #[test]
    #[should_panic(expected = "leading dimension")]
    fn bad_ld_panics() {
        let _ = Matrix::<f64>::zeros_with_ld(2, 8, 4);
    }

    #[test]
    fn max_abs_diff_detects_change() {
        let a = Matrix::<f64>::from_fn(3, 3, |i, j| (i + j) as f64);
        let mut b = a.clone();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b[(2, 1)] += 0.25;
        assert_eq!(a.max_abs_diff(&b), 0.25);
        assert!(!a.approx_eq(&b, 0.1));
        assert!(a.approx_eq(&b, 0.3));
    }

    #[test]
    fn zero_sized_matrices() {
        let m = Matrix::<f64>::zeros(0, 0);
        assert_eq!(m.rows(), 0);
        assert_eq!(m.as_slice().len(), 0);
        let n = Matrix::<f64>::zeros(4, 0);
        assert_eq!(n.ld, 0);
    }
}
