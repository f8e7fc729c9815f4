//! Linear algebra substrate for the state-estimation stack.
//!
//! The paper's estimator needs exactly the classical kit: dense
//! matrix/vector arithmetic ([`Matrix`], [`Vector`]), LU with partial
//! pivoting ([`Lu`]) for general square solves, and Cholesky ([`Cholesky`])
//! for the symmetric positive-definite WLS normal equations. Everything is
//! `f64`; the exact-arithmetic side of the project lives in `sta-smt`.
//!
//! Large grids additionally get a sparse path: [`CsrMatrix`] (compressed
//! sparse rows, built from triplets) and [`SparseCholesky`] (`LDLᵀ` with
//! an approximate-minimum-degree ordering, split into symbolic
//! ([`SparseSymbolic`]) and numeric phases; the numeric phase is an
//! up-looking sweep plus a dense in-place kernel for the factor's
//! trailing clique), which factors both the WLS gain and the DC power
//! flow's reduced susceptance matrix. The dense types are the correctness
//! oracle: sparse results must match them to within round-off, and
//! equivalence is pinned by property tests.
//!
//! # Examples
//!
//! Weighted least squares `x̂ = (HᵀWH)⁻¹HᵀWz` in three lines:
//!
//! ```
//! use sta_linalg::{Cholesky, Matrix, Vector};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let h = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
//! let w = [1.0, 1.0, 2.0];
//! let z = Vector::from(vec![1.0, 2.0, 3.1]);
//! let htw = h.transpose().scale_cols(&w);
//! let x = Cholesky::factor(&htw.mul_mat(&h))?.solve(&htw.mul_vec(&z))?;
//! assert!((x[0] - 1.04).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod cholesky;
pub mod lu;
pub mod matrix;
pub mod rng;
pub mod sparse;
pub mod sparse_cholesky;
pub mod sparse_lu;
pub mod vector;

pub use cholesky::{Cholesky, CholeskyError};
pub use lu::{Lu, SingularMatrixError};
pub use matrix::Matrix;
pub use sparse::CsrMatrix;
pub use sparse_cholesky::{amd_order, SparseCholesky, SparseSymbolic};
pub use sparse_lu::{FactorizedBasis, LuError, Scalar, SparseLu, VectorElem};
pub use vector::Vector;

#[cfg(test)]
mod randomized {
    use super::*;
    use rng::Pcg32;

    fn small_vec(rng: &mut Pcg32, n: usize) -> Vec<f64> {
        (0..n).map(|_| rng.uniform_f64(-10.0, 10.0)).collect()
    }

    fn small_matrix(rng: &mut Pcg32, rows: usize, cols: usize) -> Matrix {
        let data: Vec<Vec<f64>> =
            (0..rows).map(|_| small_vec(rng, cols)).collect();
        Matrix::from_rows(&data)
    }

    /// LU solve then multiply round-trips for well-conditioned matrices.
    #[test]
    fn lu_roundtrip() {
        let mut rng = Pcg32::new(0x1a1a);
        for _ in 0..64 {
            let mut a = small_matrix(&mut rng, 4, 4);
            // Diagonal dominance guarantees nonsingularity.
            for i in 0..4 {
                a[(i, i)] += 50.0;
            }
            let bv = Vector::from(small_vec(&mut rng, 4));
            let x = Lu::factor(&a).unwrap().solve(&bv).unwrap();
            let back = a.mul_vec(&x);
            for i in 0..4 {
                assert!((back[i] - bv[i]).abs() < 1e-8);
            }
        }
    }

    /// AᵀA + λI is SPD; Cholesky solves agree with LU solves.
    #[test]
    fn cholesky_matches_lu() {
        let mut rng = Pcg32::new(0x2b2b);
        for _ in 0..64 {
            let a = small_matrix(&mut rng, 5, 3);
            let mut ata = a.transpose().mul_mat(&a);
            for i in 0..3 {
                ata[(i, i)] += 1.0;
            }
            let bv = Vector::from(small_vec(&mut rng, 3));
            let x1 = Cholesky::factor(&ata).unwrap().solve(&bv).unwrap();
            let x2 = Lu::factor(&ata).unwrap().solve(&bv).unwrap();
            for i in 0..3 {
                assert!((x1[i] - x2[i]).abs() < 1e-7);
            }
        }
    }

    /// (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn transpose_of_product() {
        let mut rng = Pcg32::new(0x3c3c);
        for _ in 0..64 {
            let a = small_matrix(&mut rng, 2, 3);
            let b = small_matrix(&mut rng, 3, 4);
            let left = a.mul_mat(&b).transpose();
            let right = b.transpose().mul_mat(&a.transpose());
            for i in 0..left.num_rows() {
                for j in 0..left.num_cols() {
                    assert!((left[(i, j)] - right[(i, j)]).abs() < 1e-9);
                }
            }
        }
    }

    /// Triangle inequality for the l2 norm.
    #[test]
    fn norm_triangle() {
        let mut rng = Pcg32::new(0x4d4d);
        for _ in 0..128 {
            let a = Vector::from(small_vec(&mut rng, 6));
            let b = Vector::from(small_vec(&mut rng, 6));
            assert!((&a + &b).norm2() <= a.norm2() + b.norm2() + 1e-9);
        }
    }
}
