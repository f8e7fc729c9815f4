//! Compressed sparse row (CSR) matrices.
//!
//! The DC measurement Jacobian has at most four nonzeros per row (a flow
//! row touches two buses, a consumption row its bus neighborhood), so the
//! estimation stack's matrices are overwhelmingly sparse: at 300 buses the
//! dense Jacobian is ~336k entries of which ~1% are nonzero. [`CsrMatrix`]
//! stores only the nonzeros — row pointers, column indices and values —
//! and provides the kernels the estimator needs: construction from
//! triplets, sparse matrix–vector products (plain and transposed),
//! transpose, sparse×sparse products, row/column selection and diagonal
//! scaling. Column indices are kept sorted within each row, which the
//! sparse Cholesky side relies on.
//!
//! The dense [`Matrix`] API stays the reference oracle: every kernel here
//! is pinned against its dense counterpart by the randomized tests below
//! and the workspace's sparse-vs-dense property tests.

use crate::matrix::Matrix;
use crate::vector::Vector;

/// A sparse matrix in compressed sparse row form. Column indices are
/// strictly increasing within each row; explicit zeros are representable
/// (construction does not drop them) but never required.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `row_ptr[i]..row_ptr[i + 1]` indexes row `i`'s entries.
    row_ptr: Vec<usize>,
    /// Column of each stored entry, sorted within each row.
    col_idx: Vec<usize>,
    /// Value of each stored entry.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// An all-zero sparse matrix (no stored entries).
    pub fn zeros(rows: usize, cols: usize) -> CsrMatrix {
        CsrMatrix {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds a matrix from `(row, col, value)` triplets. Duplicate
    /// coordinates are summed (so incidence-style accumulation works
    /// directly); entries within a row come out sorted by column.
    ///
    /// # Panics
    /// Panics if any triplet lies outside `rows × cols`.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> CsrMatrix {
        let mut counts = vec![0usize; rows + 1];
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet ({r}, {c}) outside {rows}x{cols}");
            counts[r + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        // Bucket the triplets by row (stable counting sort).
        let mut bucket_col = vec![0usize; triplets.len()];
        let mut bucket_val = vec![0f64; triplets.len()];
        let mut next = counts.clone();
        for &(r, c, v) in triplets {
            let slot = next[r];
            next[r] += 1;
            bucket_col[slot] = c;
            bucket_val[slot] = v;
        }
        // Sort each row by column and merge duplicates.
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        let mut entries: Vec<(usize, f64)> = Vec::new();
        for r in 0..rows {
            entries.clear();
            for k in counts[r]..counts[r + 1] {
                entries.push((bucket_col[k], bucket_val[k]));
            }
            entries.sort_unstable_by_key(|&(c, _)| c);
            let start = col_idx.len();
            for &(c, v) in &entries {
                if col_idx.len() > start && col_idx[col_idx.len() - 1] == c {
                    let last = values.len() - 1;
                    values[last] += v;
                } else {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr[r + 1] = col_idx.len();
        }
        CsrMatrix { rows, cols, row_ptr, col_idx, values }
    }

    /// Converts a dense matrix, storing exactly its nonzero entries.
    pub fn from_dense(a: &Matrix) -> CsrMatrix {
        let mut row_ptr = vec![0usize; a.num_rows() + 1];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for i in 0..a.num_rows() {
            for j in 0..a.num_cols() {
                let v = a[(i, j)];
                if v != 0.0 {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            row_ptr[i + 1] = col_idx.len();
        }
        CsrMatrix { rows: a.num_rows(), cols: a.num_cols(), row_ptr, col_idx, values }
    }

    /// Expands to a dense matrix (the equivalence-test bridge).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                m[(i, self.col_idx[k])] += self.values[k];
            }
        }
        m
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row `i` as parallel `(columns, values)` slices, columns ascending.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        assert!(i < self.rows, "row {i} out of range for {} rows", self.rows);
        let (s, e) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[s..e], &self.values[s..e])
    }

    /// The stored value at `(i, j)` (zero when the entry is not stored).
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "index ({i}, {j}) out of range");
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Sparse matrix–vector product `A·x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.num_cols()`.
    pub fn mul_vec(&self, x: &Vector) -> Vector {
        assert_eq!(x.len(), self.cols, "mul_vec: dimension mismatch");
        let mut y = Vector::zeros(self.rows);
        for i in 0..self.rows {
            let mut acc = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            y[i] = acc;
        }
        y
    }

    /// Transposed product `Aᵀ·x` in one pass (no transpose materialized).
    ///
    /// # Panics
    /// Panics if `x.len() != self.num_rows()`.
    pub fn mul_vec_transposed(&self, x: &Vector) -> Vector {
        assert_eq!(x.len(), self.rows, "mul_vec_transposed: dimension mismatch");
        let mut y = Vector::zeros(self.cols);
        for i in 0..self.rows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                y[self.col_idx[k]] += self.values[k] * xi;
            }
        }
        y
    }

    /// The transpose, in CSR form (a counting sort over entries).
    pub fn transpose(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c + 1] += 1;
        }
        for i in 0..self.cols {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0f64; self.nnz()];
        let mut next = row_ptr.clone();
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let c = self.col_idx[k];
                let slot = next[c];
                next[c] += 1;
                col_idx[slot] = i;
                values[slot] = self.values[k];
            }
        }
        // Row-major traversal makes each transposed row come out with
        // ascending columns automatically.
        CsrMatrix { rows: self.cols, cols: self.rows, row_ptr, col_idx, values }
    }

    /// Sparse×sparse product `A·B` with a dense accumulator per row
    /// (Gustavson's algorithm); output rows have sorted columns.
    ///
    /// # Panics
    /// Panics if `self.num_cols() != b.num_rows()`.
    pub fn mul_mat(&self, b: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.cols, b.rows, "mul_mat: dimension mismatch");
        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        let mut acc = vec![0f64; b.cols];
        let mut seen = vec![false; b.cols];
        let mut touched: Vec<usize> = Vec::new();
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let mid = self.col_idx[k];
                let v = self.values[k];
                for kb in b.row_ptr[mid]..b.row_ptr[mid + 1] {
                    let j = b.col_idx[kb];
                    if !seen[j] {
                        seen[j] = true;
                        touched.push(j);
                    }
                    acc[j] += v * b.values[kb];
                }
            }
            touched.sort_unstable();
            for &j in &touched {
                col_idx.push(j);
                values.push(acc[j]);
                acc[j] = 0.0;
                seen[j] = false;
            }
            touched.clear();
            row_ptr[i + 1] = col_idx.len();
        }
        CsrMatrix { rows: self.rows, cols: b.cols, row_ptr, col_idx, values }
    }

    /// The submatrix of the given rows, in the given order (rows may
    /// repeat, mirroring the dense `select_rows`).
    ///
    /// # Panics
    /// Panics if any row index is out of range.
    pub fn select_rows(&self, rows: &[usize]) -> CsrMatrix {
        let mut row_ptr = vec![0usize; rows.len() + 1];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for (out, &r) in rows.iter().enumerate() {
            assert!(r < self.rows, "row {r} out of range for {} rows", self.rows);
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                col_idx.push(self.col_idx[k]);
                values.push(self.values[k]);
            }
            row_ptr[out + 1] = col_idx.len();
        }
        CsrMatrix { rows: rows.len(), cols: self.cols, row_ptr, col_idx, values }
    }

    /// The submatrix of the given columns, in the given order.
    ///
    /// # Panics
    /// Panics if any column index is out of range.
    pub fn select_cols(&self, cols: &[usize]) -> CsrMatrix {
        let mut map = vec![usize::MAX; self.cols];
        for (out, &c) in cols.iter().enumerate() {
            assert!(c < self.cols, "column {c} out of range for {} columns", self.cols);
            map[c] = out;
        }
        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        let mut entries: Vec<(usize, f64)> = Vec::new();
        for i in 0..self.rows {
            entries.clear();
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let mapped = map[self.col_idx[k]];
                if mapped != usize::MAX {
                    entries.push((mapped, self.values[k]));
                }
            }
            entries.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &entries {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr[i + 1] = col_idx.len();
        }
        CsrMatrix { rows: self.rows, cols: cols.len(), row_ptr, col_idx, values }
    }

    /// `A·diag(w)`: scales column `j` by `w[j]`.
    ///
    /// # Panics
    /// Panics if `w.len() != self.num_cols()`.
    pub fn scale_cols(&self, w: &[f64]) -> CsrMatrix {
        assert_eq!(w.len(), self.cols, "scale_cols: one factor per column");
        let mut out = self.clone();
        for k in 0..out.values.len() {
            out.values[k] *= w[out.col_idx[k]];
        }
        out
    }

    /// `diag(w)·A`: scales row `i` by `w[i]`.
    ///
    /// # Panics
    /// Panics if `w.len() != self.num_rows()`.
    pub fn scale_rows(&self, w: &[f64]) -> CsrMatrix {
        assert_eq!(w.len(), self.rows, "scale_rows: one factor per row");
        let mut out = self.clone();
        for i in 0..self.rows {
            for k in out.row_ptr[i]..out.row_ptr[i + 1] {
                out.values[k] *= w[i];
            }
        }
        out
    }

    /// Largest absolute stored value (zero for an empty matrix) —
    /// mirrors the dense `norm_max` used for factorization tolerances.
    pub fn norm_max(&self) -> f64 {
        self.values.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Returns a copy with column `j` replaced by the sparse entries
    /// `col` (as `(row, value)` pairs; exact zeros are dropped). The
    /// column-replacement primitive behind basis updates.
    ///
    /// # Panics
    /// Panics if `j` or any row index is out of range.
    pub fn replace_column(&self, j: usize, col: &[(usize, f64)]) -> CsrMatrix {
        assert!(j < self.cols, "column {j} out of range for {} columns", self.cols);
        let mut new_in_row = vec![0.0; self.rows];
        let mut has_new = vec![false; self.rows];
        for &(i, v) in col {
            assert!(i < self.rows, "row {i} out of range for {} rows", self.rows);
            if v != 0.0 {
                new_in_row[i] = v;
                has_new[i] = true;
            }
        }
        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        for i in 0..self.rows {
            let mut inserted = false;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let c = self.col_idx[k];
                if c == j {
                    continue; // old entry dropped; new one inserted in order
                }
                if c > j && !inserted {
                    if has_new[i] {
                        col_idx.push(j);
                        values.push(new_in_row[i]);
                    }
                    inserted = true;
                }
                col_idx.push(c);
                values.push(self.values[k]);
            }
            if !inserted && has_new[i] {
                col_idx.push(j);
                values.push(new_in_row[i]);
            }
            row_ptr[i + 1] = col_idx.len();
        }
        CsrMatrix { rows: self.rows, cols: self.cols, row_ptr, col_idx, values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (2, 1, 4.0), (0, 2, 2.0), (2, 0, 3.0)])
    }

    #[test]
    fn triplets_sort_and_sum_duplicates() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (0, 0, 5.0), (0, 1, 2.5)]);
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.get(0, 0), 5.0);
        assert_eq!(a.get(0, 1), 3.5);
        assert_eq!(a.get(1, 0), 0.0);
        let (cols, _) = a.row(0);
        assert_eq!(cols, &[0, 1]);
    }

    #[test]
    fn dense_round_trip() {
        let a = example();
        let d = a.to_dense();
        assert_eq!(d[(0, 2)], 2.0);
        assert_eq!(d[(2, 1)], 4.0);
        assert_eq!(CsrMatrix::from_dense(&d), a);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let a = example();
        let x = Vector::from(vec![1.0, 2.0, 3.0]);
        let y = a.mul_vec(&x);
        let yd = a.to_dense().mul_vec(&x);
        for i in 0..3 {
            assert_eq!(y[i], yd[i]);
        }
        let z = Vector::from(vec![2.0, -1.0, 0.5]);
        let t = a.mul_vec_transposed(&z);
        let td = a.to_dense().transpose().mul_vec(&z);
        for i in 0..3 {
            assert_eq!(t[i], td[i]);
        }
    }

    #[test]
    fn transpose_matches_dense() {
        let a = example();
        assert_eq!(a.transpose().to_dense(), a.to_dense().transpose());
        // Transposing twice is the identity.
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn sparse_product_matches_dense() {
        let a = example();
        let b = CsrMatrix::from_triplets(
            3,
            2,
            &[(0, 0, 1.0), (0, 1, -1.0), (1, 1, 2.0), (2, 0, 0.5)],
        );
        let c = a.mul_mat(&b);
        let cd = a.to_dense().mul_mat(&b.to_dense());
        for i in 0..3 {
            for j in 0..2 {
                assert!((c.get(i, j) - cd[(i, j)]).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn selection_matches_dense() {
        let a = example();
        let rows = a.select_rows(&[2, 0]);
        let rows_d = a.to_dense().select_rows(&[2, 0]);
        assert_eq!(rows.to_dense(), rows_d);
        let cols = a.select_cols(&[2, 1]);
        let cols_d = a.to_dense().select_cols(&[2, 1]);
        assert_eq!(cols.to_dense(), cols_d);
    }

    #[test]
    fn diagonal_scaling() {
        let a = example();
        let sc = a.scale_cols(&[2.0, 3.0, 4.0]);
        assert_eq!(sc.get(0, 2), 8.0);
        assert_eq!(sc.get(2, 1), 12.0);
        let sr = a.scale_rows(&[1.0, 5.0, 0.5]);
        assert_eq!(sr.get(2, 0), 1.5);
        assert_eq!(sr.get(0, 0), 1.0);
    }

    #[test]
    fn norm_max_ignores_sign() {
        let a = CsrMatrix::from_triplets(1, 2, &[(0, 0, -7.0), (0, 1, 3.0)]);
        assert_eq!(a.norm_max(), 7.0);
        assert_eq!(CsrMatrix::zeros(2, 2).norm_max(), 0.0);
    }

    #[test]
    fn empty_matrices_behave() {
        let a = CsrMatrix::zeros(0, 0);
        assert_eq!(a.nnz(), 0);
        assert_eq!(a.transpose(), a);
        let y = CsrMatrix::zeros(2, 3).mul_vec(&Vector::zeros(3));
        assert_eq!(y.len(), 2);
    }

    #[test]
    fn replace_column_keeps_order_and_drops_zeros() {
        let a = example();
        let b = a.replace_column(1, &[(0, 5.0), (1, 0.0), (2, -1.0)]);
        assert_eq!(b.get(0, 1), 5.0);
        assert_eq!(b.get(1, 1), 0.0);
        assert_eq!(b.get(2, 1), -1.0);
        // Untouched columns survive, rows stay sorted.
        assert_eq!(b.get(0, 0), 1.0);
        assert_eq!(b.get(0, 2), 2.0);
        let (cols, _) = b.row(0);
        assert_eq!(cols, &[0, 1, 2]);
        // Replacing with an empty column clears it.
        let c = a.replace_column(0, &[]);
        assert_eq!(c.get(0, 0), 0.0);
        assert_eq!(c.get(2, 0), 0.0);
        assert_eq!(c.nnz(), 2);
    }
}
