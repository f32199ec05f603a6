//! Dense linear algebra: a row-major [`Matrix`] with LU decomposition
//! (partial pivoting).

use crate::{MathError, Result};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Dense row-major matrix of `f64`.
///
/// ```
/// use navicim_math::linalg::Matrix;
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
/// let x = a.solve(&[3.0, 4.0]).unwrap();
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    pub fn diag(entries: &[f64]) -> Self {
        let mut m = Self::zeros(entries.len(), entries.len());
        for (i, &v) in entries.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if rows have unequal
    /// lengths, or [`MathError::InvalidArgument`] if `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(MathError::InvalidArgument(
                "from_rows requires a non-empty row set".into(),
            ));
        }
        let cols = rows[0].len();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(MathError::DimensionMismatch {
                    expected: format!("row of length {cols}"),
                    found: format!("row {i} of length {}", r.len()),
                });
            }
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column index out of bounds");
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Matrix product `self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] when inner dimensions
    /// disagree.
    // lint: allow(unused-pub) no caller outside its unit tests; removal deferred to a follow-up sweep
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(MathError::DimensionMismatch {
                expected: format!("{} rows on the right operand", self.cols),
                found: format!("{} rows", other.rows),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] when `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(MathError::DimensionMismatch {
                expected: format!("vector of length {}", self.cols),
                found: format!("length {}", x.len()),
            });
        }
        Ok((0..self.rows)
            .map(|r| self.row(r).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Returns `self` scaled by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * s).collect(),
        }
    }

    /// LU decomposition with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::Singular`] for numerically singular matrices and
    /// [`MathError::DimensionMismatch`] for non-square inputs.
    fn lu(&self) -> Result<Lu> {
        if self.rows != self.cols {
            return Err(MathError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", self.rows, self.cols),
            });
        }
        let n = self.rows;
        let mut lu = self.clone();
        let mut piv: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        for k in 0..n {
            // Pivot selection.
            let mut p = k;
            let mut best = lu[(k, k)].abs();
            for r in (k + 1)..n {
                let v = lu[(r, k)].abs();
                if v > best {
                    best = v;
                    p = r;
                }
            }
            if best < 1e-300 {
                return Err(MathError::Singular);
            }
            if p != k {
                for c in 0..n {
                    let tmp = lu[(k, c)];
                    lu[(k, c)] = lu[(p, c)];
                    lu[(p, c)] = tmp;
                }
                piv.swap(k, p);
                sign = -sign;
            }
            for r in (k + 1)..n {
                let factor = lu[(r, k)] / lu[(k, k)];
                lu[(r, k)] = factor;
                for c in (k + 1)..n {
                    let v = lu[(k, c)];
                    lu[(r, c)] -= factor * v;
                }
            }
        }
        Ok(Lu { lu, piv, sign })
    }

    /// Determinant via LU decomposition.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] for non-square inputs.
    pub fn det(&self) -> Result<f64> {
        match self.lu() {
            Ok(lu) => Ok(lu.det()),
            Err(MathError::Singular) => Ok(0.0),
            Err(e) => Err(e),
        }
    }

    /// Matrix inverse via LU decomposition.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::Singular`] when not invertible.
    pub fn inverse(&self) -> Result<Matrix> {
        let lu = self.lu()?;
        let n = self.rows;
        let mut inv = Matrix::zeros(n, n);
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let x = lu.solve(&e)?;
            for i in 0..n {
                inv[(i, j)] = x[i];
            }
        }
        Ok(inv)
    }

    /// Solves `self * x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::Singular`] for singular systems.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.lu()?.solve(b)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix addition requires equal shapes"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix subtraction requires equal shapes"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.scale(s)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{:>12.6}", self[(r, c)])?;
                if c + 1 < self.cols {
                    write!(f, " ")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// LU decomposition with partial pivoting produced by [`Matrix::lu`].
#[derive(Debug, Clone)]
struct Lu {
    lu: Matrix,
    piv: Vec<usize>,
    sign: f64,
}

impl Lu {
    /// Determinant of the decomposed matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.lu.rows() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Solves `A x = b` for the decomposed `A`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] when `b` has the wrong
    /// length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(MathError::DimensionMismatch {
                expected: format!("vector of length {n}"),
                found: format!("length {}", b.len()),
            });
        }
        // Apply permutation, then forward/backward substitution.
        let mut x: Vec<f64> = self.piv.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut sum = x[i];
            for k in 0..i {
                sum -= self.lu[(i, k)] * x[k];
            }
            x[i] = sum;
        }
        for i in (0..n).rev() {
            let mut sum = x[i];
            for k in (i + 1)..n {
                sum -= self.lu[(i, k)] * x[k];
            }
            x[i] = sum / self.lu[(i, i)];
        }
        Ok(x)
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics in debug builds on length mismatch.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot requires equal lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance between two equal-length slices.
pub fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dist_sq requires equal lengths");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn mat(rows: &[&[f64]]) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn construction_and_indexing() {
        let m = mat(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let r1 = [1.0, 2.0];
        let r2 = [3.0];
        assert!(Matrix::from_rows(&[&r1, &r2]).is_err());
    }

    #[test]
    fn matmul_identity() {
        let m = mat(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(m.matmul(&i).unwrap(), m);
        assert_eq!(i.matmul(&m).unwrap(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = mat(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = mat(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, mat(&[&[58.0, 64.0], &[139.0, 154.0]]));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = mat(&[&[1.0, -1.0], &[2.0, 0.5]]);
        let y = a.matvec(&[3.0, 4.0]).unwrap();
        assert_eq!(y, vec![-1.0, 8.0]);
    }

    #[test]
    fn lu_solve_roundtrip() {
        let a = mat(&[&[4.0, 3.0], &[6.0, 3.0]]);
        let x = a.solve(&[10.0, 12.0]).unwrap();
        let b = a.matvec(&x).unwrap();
        assert!(approx_eq(b[0], 10.0, 1e-10));
        assert!(approx_eq(b[1], 12.0, 1e-10));
    }

    #[test]
    fn det_known_values() {
        let a = mat(&[&[4.0, 3.0], &[6.0, 3.0]]);
        assert!(approx_eq(a.det().unwrap(), -6.0, 1e-12));
        assert!(approx_eq(Matrix::identity(5).det().unwrap(), 1.0, 1e-12));
        // Singular matrix determinant is zero, not an error.
        let s = mat(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(s.det().unwrap(), 0.0);
    }

    #[test]
    fn inverse_roundtrip() {
        let a = mat(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 2.0]]);
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(approx_eq(prod[(i, j)], expect, 1e-10));
            }
        }
    }

    #[test]
    fn singular_inverse_fails() {
        let s = mat(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(s.inverse().unwrap_err(), MathError::Singular);
    }

    #[test]
    fn add_sub_scale() {
        let a = mat(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = mat(&[&[4.0, 3.0], &[2.0, 1.0]]);
        assert_eq!(&a + &b, mat(&[&[5.0, 5.0], &[5.0, 5.0]]));
        assert_eq!(&a - &a, Matrix::zeros(2, 2));
        assert_eq!(&a * 2.0, mat(&[&[2.0, 4.0], &[6.0, 8.0]]));
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!(approx_eq(norm(&[3.0, 4.0]), 5.0, 1e-12));
        assert_eq!(dist_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn display_contains_entries() {
        let a = mat(&[&[1.5, -2.0]]);
        let s = a.to_string();
        assert!(s.contains("1.5"));
        assert!(s.contains("-2.0"));
    }
}
