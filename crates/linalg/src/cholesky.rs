//! Cholesky factorization for symmetric positive-definite systems.
//!
//! The WLS estimator's normal-equation matrix `Hᵀ·W·H` (after slack-bus
//! elimination) is symmetric positive definite whenever the system is
//! observable, so Cholesky is both the fastest and the numerically
//! appropriate solver — and a failed factorization doubles as an
//! unobservability signal.

use crate::matrix::Matrix;
use crate::vector::Vector;
use std::fmt;

/// Failure modes shared by the dense and sparse Cholesky paths.
///
/// Dimension problems are errors rather than panics because both paths
/// are reachable from `caseformat`-loaded user case files whose
/// measurement dimensions may be inconsistent; a malformed case must
/// surface as a diagnosable `Err`, not abort the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CholeskyError {
    /// A diagonal pivot was not sufficiently positive — for the WLS gain
    /// matrix, the unobservability signal.
    NotPositiveDefinite,
    /// Factorization was asked of a non-square matrix.
    NotSquare { rows: usize, cols: usize },
    /// A solve right-hand side does not match the factored dimension.
    DimensionMismatch { expected: usize, found: usize },
    /// A sparse refactorization was asked against a symbolic analysis of
    /// a different sparsity pattern.
    PatternMismatch,
}

impl fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CholeskyError::NotPositiveDefinite => {
                f.write_str("matrix is not positive definite to working precision")
            }
            CholeskyError::NotSquare { rows, cols } => {
                write!(f, "Cholesky needs a square matrix, got {rows}x{cols}")
            }
            CholeskyError::DimensionMismatch { expected, found } => {
                write!(f, "solve: expected a length-{expected} right-hand side, got {found}")
            }
            CholeskyError::PatternMismatch => {
                f.write_str("matrix pattern differs from the symbolic analysis")
            }
        }
    }
}

impl std::error::Error for CholeskyError {}

/// Whether a pivot is sufficiently positive: finite and above `tol`.
/// Written so that a NaN pivot fails, which `d <= tol` alone lets through.
pub(crate) fn pivot_is_positive(d: f64, tol: f64) -> bool {
    d > tol && d.is_finite()
}

/// A Cholesky factorization `A = L·Lᵀ`.
///
/// # Examples
///
/// ```
/// use sta_linalg::{Cholesky, Matrix, Vector};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
/// let ch = Cholesky::factor(&a)?;
/// let x = ch.solve(&Vector::from(vec![6.0, 5.0]))?;
/// let back = a.mul_vec(&x);
/// assert!((back[0] - 6.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor (upper part zeroed).
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read.
    ///
    /// # Errors
    /// Returns [`CholeskyError::NotSquare`] for non-square input, and
    /// [`CholeskyError::NotPositiveDefinite`] if a diagonal pivot is not
    /// sufficiently positive or not finite.
    pub fn factor(a: &Matrix) -> Result<Cholesky, CholeskyError> {
        if a.num_rows() != a.num_cols() {
            return Err(CholeskyError::NotSquare { rows: a.num_rows(), cols: a.num_cols() });
        }
        let n = a.num_rows();
        let tol = 1e-12 * a.norm_max().max(1.0);
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if !pivot_is_positive(d, tol) {
                return Err(CholeskyError::NotPositiveDefinite);
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            for i in j + 1..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / dj;
            }
        }
        Ok(Cholesky { l })
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    /// Returns [`CholeskyError::DimensionMismatch`] if `b.len()` differs
    /// from the factored dimension.
    pub fn solve(&self, b: &Vector) -> Result<Vector, CholeskyError> {
        let n = self.l.num_rows();
        if b.len() != n {
            return Err(CholeskyError::DimensionMismatch { expected: n, found: b.len() });
        }
        // L·y = b
        let mut y = Vector::zeros(n);
        for i in 0..n {
            let mut acc = b[i];
            for j in 0..i {
                acc -= self.l[(i, j)] * y[j];
            }
            y[i] = acc / self.l[(i, i)];
        }
        // Lᵀ·x = y
        let mut x = Vector::zeros(n);
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in i + 1..n {
                acc -= self.l[(j, i)] * x[j];
            }
            x[i] = acc / self.l[(i, i)];
        }
        Ok(x)
    }

    /// The lower-triangular factor.
    pub fn lower(&self) -> &Matrix {
        &self.l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconstructs_matrix() {
        let a = Matrix::from_rows(&[
            vec![25.0, 15.0, -5.0],
            vec![15.0, 18.0, 0.0],
            vec![-5.0, 0.0, 11.0],
        ]);
        let ch = Cholesky::factor(&a).unwrap();
        let l = ch.lower();
        let back = l.mul_mat(&l.transpose());
        for i in 0..3 {
            for j in 0..3 {
                assert!((back[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn solves_spd_system() {
        let a = Matrix::from_rows(&[vec![6.0, 2.0], vec![2.0, 5.0]]);
        let b = Vector::from(vec![8.0, 7.0]);
        let x = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        let back = a.mul_vec(&x);
        assert!((back[0] - 8.0).abs() < 1e-10);
        assert!((back[1] - 7.0).abs() < 1e-10);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert!(Cholesky::factor(&a).is_err());
    }

    #[test]
    fn rejects_semidefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        assert!(Cholesky::factor(&a).is_err());
    }

    #[test]
    fn non_square_input_is_an_error_not_a_panic() {
        let a = Matrix::zeros(2, 3);
        assert_eq!(
            Cholesky::factor(&a).unwrap_err(),
            CholeskyError::NotSquare { rows: 2, cols: 3 }
        );
    }

    #[test]
    fn mismatched_rhs_is_an_error_not_a_panic() {
        let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
        let ch = Cholesky::factor(&a).unwrap();
        assert_eq!(
            ch.solve(&Vector::zeros(3)).unwrap_err(),
            CholeskyError::DimensionMismatch { expected: 2, found: 3 }
        );
    }
}
