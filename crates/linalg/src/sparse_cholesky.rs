//! Sparse Cholesky factorization with a fill-reducing ordering.
//!
//! The WLS gain matrix `HᵀWH` inherits the grid's sparsity (a bus couples
//! only to its neighbors), so factoring it densely wastes O(n³) work on
//! structural zeros. This module factors symmetric positive-definite
//! sparse matrices as `P·A·Pᵀ = L·D·Lᵀ` (the square-root-free Cholesky
//! variant: `L` unit lower triangular, `D` positive diagonal), with:
//!
//! * [`amd_order`] — an approximate-minimum-degree permutation `P`,
//!   chosen to keep the factor sparse (applied symmetrically to rows and
//!   columns);
//! * [`SparseSymbolic::analyze`] — the **symbolic** phase: ordering,
//!   elimination tree and per-column fill counts, all functions of the
//!   sparsity pattern alone. One analysis per measurement configuration;
//! * [`SparseSymbolic::factor`] — the **numeric** phase: an up-looking
//!   `LDLᵀ` factorization into the pre-sized factor, cheap to repeat when
//!   only the values change (re-weighted measurements, new operating
//!   points);
//! * [`SparseCholesky::solve`] — permute, forward-solve, diagonal scale,
//!   back-solve, un-permute.
//!
//! Positive definiteness is decided with the same relative tolerance as
//! the dense [`crate::Cholesky`], so "not positive definite" keeps its
//! role as the unobservability signal. All failures are [`CholeskyError`]
//! values — no panics, matching the dense path after the dimension-check
//! conversion.

use crate::cholesky::CholeskyError;
use crate::sparse::CsrMatrix;
use crate::vector::Vector;

/// Sentinel for "no parent" in the elimination tree.
const NONE: usize = usize::MAX;

/// Computes a fill-reducing elimination order for the symmetric matrix
/// `a` by (approximate) minimum degree: repeatedly eliminate a vertex of
/// minimum degree in the quotient graph, turning its neighborhood into a
/// clique. Ties break toward the smallest vertex index, so the order is
/// deterministic. Returns `perm` with `perm[k]` = the original index
/// eliminated at step `k`.
///
/// # Errors
/// Returns [`CholeskyError::NotSquare`] for non-square input.
pub fn amd_order(a: &CsrMatrix) -> Result<Vec<usize>, CholeskyError> {
    if a.num_rows() != a.num_cols() {
        return Err(CholeskyError::NotSquare { rows: a.num_rows(), cols: a.num_cols() });
    }
    let n = a.num_rows();
    // Symmetrized off-diagonal adjacency, sorted and deduplicated.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        let (cols, _) = a.row(i);
        for &j in cols {
            if i != j {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    // Quotient-graph minimum degree (Amestoy–Davis–Duff style, without
    // supervariables): eliminating a pivot creates an *element* whose
    // member list stands in for the clique, instead of materializing the
    // clique edges. Every node keeps a plain-edge list and an element
    // list; elements adjacent to the pivot are absorbed into the new one,
    // so both lists only shrink between pivots and the whole sweep stays
    // near-linear in nnz instead of O(Σ clique²).
    let mut elems: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut absorbed = vec![false; n];
    let mut degree: Vec<usize> = adj.iter().map(Vec::len).collect();
    let mut eliminated = vec![false; n];
    let mut stamp = vec![usize::MAX; n];
    let mut perm = Vec::with_capacity(n);
    for step in 0..n {
        let mut pivot = NONE;
        let mut best = usize::MAX;
        for v in 0..n {
            if !eliminated[v] && degree[v] < best {
                best = degree[v];
                pivot = v;
            }
        }
        eliminated[pivot] = true;
        perm.push(pivot);
        // The pivot's factor-column pattern: plain neighbors plus the
        // members of every adjacent element, deduplicated by stamping.
        stamp[pivot] = step;
        let mut boundary: Vec<usize> = Vec::new();
        for &u in &adj[pivot] {
            if stamp[u] != step {
                stamp[u] = step;
                boundary.push(u);
            }
        }
        let pivot_elems = std::mem::take(&mut elems[pivot]);
        for &e in &pivot_elems {
            for &u in &members[e] {
                if stamp[u] != step {
                    stamp[u] = step;
                    boundary.push(u);
                }
            }
        }
        boundary.sort_unstable();
        // Absorb the pivot's elements into the new element `pivot`.
        for &e in &pivot_elems {
            absorbed[e] = true;
            members[e] = Vec::new();
        }
        members[pivot] = boundary;
        for idx in 0..members[pivot].len() {
            let u = members[pivot][idx];
            // The new element now covers the pivot and every boundary
            // connection, so plain edges into the stamped set are pruned
            // and absorbed elements dropped before attaching it.
            adj[u].retain(|&w| stamp[w] != step);
            elems[u].retain(|&e| !absorbed[e]);
            elems[u].push(pivot);
            // Approximate external degree: plain edges plus element
            // boundaries (overlap between elements counted once each).
            let mut d = adj[u].len();
            for &e in &elems[u] {
                d += members[e].len() - 1;
            }
            degree[u] = d;
        }
    }
    Ok(perm)
}

/// The permuted upper triangle of `a` in compressed sparse column form:
/// entry `(i, j)` of `a` lands in column `iperm[j]` at row `iperm[i]`
/// when `iperm[i] <= iperm[j]`. Rows come out ascending per column. The
/// input must carry its full symmetric pattern (both triangles), which
/// `HᵀWH`-style products always do.
fn permuted_upper(a: &CsrMatrix, iperm: &[usize]) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let n = a.num_rows();
    let mut col_counts = vec![0usize; n + 1];
    for i in 0..n {
        let (cols, _) = a.row(i);
        for &j in cols {
            if iperm[i] <= iperm[j] {
                col_counts[iperm[j] + 1] += 1;
            }
        }
    }
    for k in 0..n {
        col_counts[k + 1] += col_counts[k];
    }
    let nnz = col_counts[n];
    let mut row_idx = vec![0usize; nnz];
    let mut vals = vec![0f64; nnz];
    let mut next = col_counts.clone();
    // Two passes keyed on the permuted row index keep each column's rows
    // ascending without a per-column sort.
    let mut by_row: Vec<(usize, usize, f64)> = Vec::with_capacity(nnz);
    for i in 0..n {
        let (cols, values) = a.row(i);
        for (&j, &v) in cols.iter().zip(values) {
            if iperm[i] <= iperm[j] {
                by_row.push((iperm[i], iperm[j], v));
            }
        }
    }
    by_row.sort_unstable_by_key(|&(pi, _, _)| pi);
    for &(pi, pj, v) in &by_row {
        let slot = next[pj];
        next[pj] += 1;
        row_idx[slot] = pi;
        vals[slot] = v;
    }
    (col_counts, row_idx, vals)
}

/// The pattern-only product of a sparse Cholesky analysis: ordering,
/// elimination tree, factor column counts, and the analyzed upper
/// pattern (used to reject numerically incompatible refactor inputs).
#[derive(Debug, Clone)]
pub struct SparseSymbolic {
    n: usize,
    /// `perm[k]` = original index eliminated at step `k`.
    perm: Vec<usize>,
    /// Inverse permutation: `iperm[perm[k]] = k`.
    iperm: Vec<usize>,
    /// Elimination tree over permuted indices (`NONE` = root).
    parent: Vec<usize>,
    /// Column pointers of `L` (sized from the symbolic fill counts).
    lp: Vec<usize>,
    /// Analyzed permuted-upper pattern, for refactor compatibility checks.
    up_ptr: Vec<usize>,
    up_idx: Vec<usize>,
}

impl SparseSymbolic {
    /// Runs the symbolic phase on the pattern of `a`: AMD ordering,
    /// elimination tree, and fill counts of `L`. The values of `a` are
    /// ignored; any matrix with the same pattern can be factored against
    /// this analysis with [`SparseSymbolic::factor`].
    ///
    /// # Errors
    /// Returns [`CholeskyError::NotSquare`] for non-square input.
    pub fn analyze(a: &CsrMatrix) -> Result<SparseSymbolic, CholeskyError> {
        let perm = amd_order(a)?;
        let n = a.num_rows();
        let mut iperm = vec![0usize; n];
        for (k, &orig) in perm.iter().enumerate() {
            iperm[orig] = k;
        }
        let (up_ptr, up_idx, _) = permuted_upper(a, &iperm);
        // Elimination tree and per-column nonzero counts of L (Davis's
        // LDL symbolic pass): the pattern of row k of L is every vertex
        // on an etree path from a nonzero of A(0..k, k) up to k.
        let mut parent = vec![NONE; n];
        let mut lnz = vec![0usize; n];
        let mut flag = vec![NONE; n];
        for k in 0..n {
            flag[k] = k;
            for p in up_ptr[k]..up_ptr[k + 1] {
                let mut i = up_idx[p];
                while i != k && flag[i] != k {
                    if parent[i] == NONE {
                        parent[i] = k;
                    }
                    lnz[i] += 1;
                    flag[i] = k;
                    i = parent[i];
                }
            }
        }
        let mut lp = vec![0usize; n + 1];
        for k in 0..n {
            lp[k + 1] = lp[k] + lnz[k];
        }
        Ok(SparseSymbolic { n, perm, iperm, parent, lp, up_ptr, up_idx })
    }

    /// The fill-reducing permutation (`perm[k]` = original index at
    /// elimination step `k`).
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// Stored entries of `L` below the unit diagonal, as analyzed.
    pub fn factor_nnz(&self) -> usize {
        self.lp[self.n]
    }

    /// Runs the numeric phase: factors `a` (which must have the analyzed
    /// pattern) as `P·A·Pᵀ = L·D·Lᵀ` using an up-looking sweep.
    ///
    /// # Errors
    /// * [`CholeskyError::PatternMismatch`] if `a`'s pattern differs
    ///   from the analyzed one (shape or structure);
    /// * [`CholeskyError::NotPositiveDefinite`] if a pivot of `D` is not
    ///   sufficiently positive — the unobservability signal.
    pub fn factor(&self, a: &CsrMatrix) -> Result<SparseCholesky, CholeskyError> {
        if a.num_rows() != self.n || a.num_cols() != self.n {
            return Err(CholeskyError::PatternMismatch);
        }
        let n = self.n;
        let (up_ptr, up_idx, up_val) = permuted_upper(a, &self.iperm);
        if up_ptr != self.up_ptr || up_idx != self.up_idx {
            return Err(CholeskyError::PatternMismatch);
        }
        let tol = 1e-12 * a.norm_max().max(1.0);
        let mut li = vec![0usize; self.lp[n]];
        let mut lx = vec![0f64; self.lp[n]];
        let mut d = vec![0f64; n];
        let mut y = vec![0f64; n];
        let mut flag = vec![NONE; n];
        let mut pattern = vec![0usize; n];
        let mut path: Vec<usize> = Vec::with_capacity(n);
        // Next free slot per column of L.
        let mut lnz_next: Vec<usize> = self.lp[..n].to_vec();
        for k in 0..n {
            // Scatter column k of the permuted upper triangle into y and
            // collect the nonzero pattern of row k of L in topological
            // order (descendants before ancestors).
            let mut top = n;
            flag[k] = k;
            for p in up_ptr[k]..up_ptr[k + 1] {
                let i = up_idx[p];
                y[i] += up_val[p];
                path.clear();
                let mut ii = i;
                while flag[ii] != k {
                    path.push(ii);
                    flag[ii] = k;
                    ii = self.parent[ii];
                }
                for &node in path.iter().rev() {
                    top -= 1;
                    pattern[top] = node;
                }
            }
            d[k] = y[k];
            y[k] = 0.0;
            // Sparse triangular solve L(0..k, 0..k)·l = y, updating D.
            for t in top..n {
                let i = pattern[t];
                let yi = y[i];
                y[i] = 0.0;
                for p in self.lp[i]..lnz_next[i] {
                    y[li[p]] -= lx[p] * yi;
                }
                let l_ki = yi / d[i];
                d[k] -= l_ki * yi;
                li[lnz_next[i]] = k;
                lx[lnz_next[i]] = l_ki;
                lnz_next[i] += 1;
            }
            if d[k] <= tol {
                return Err(CholeskyError::NotPositiveDefinite);
            }
        }
        Ok(SparseCholesky {
            n,
            perm: self.perm.clone(),
            lp: self.lp.clone(),
            li,
            lx,
            d,
        })
    }
}

/// A sparse `P·A·Pᵀ = L·D·Lᵀ` factorization, ready for repeated solves.
///
/// # Examples
///
/// ```
/// use sta_linalg::{CsrMatrix, SparseCholesky, Vector};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A small SPD arrowhead matrix.
/// let a = CsrMatrix::from_triplets(3, 3, &[
///     (0, 0, 4.0), (1, 1, 3.0), (2, 2, 5.0),
///     (0, 2, 1.0), (2, 0, 1.0), (1, 2, -1.0), (2, 1, -1.0),
/// ]);
/// let ch = SparseCholesky::factor(&a)?;
/// let x = ch.solve(&Vector::from(vec![1.0, 2.0, 3.0]))?;
/// let back = a.mul_vec(&x);
/// assert!((back[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseCholesky {
    n: usize,
    perm: Vec<usize>,
    lp: Vec<usize>,
    li: Vec<usize>,
    lx: Vec<f64>,
    d: Vec<f64>,
}

impl SparseCholesky {
    /// Analyzes and factors in one step. Prefer holding a
    /// [`SparseSymbolic`] when the same pattern is factored repeatedly.
    ///
    /// # Errors
    /// As [`SparseSymbolic::analyze`] and [`SparseSymbolic::factor`].
    pub fn factor(a: &CsrMatrix) -> Result<SparseCholesky, CholeskyError> {
        SparseSymbolic::analyze(a)?.factor(a)
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored entries of `L` below the unit diagonal (the fill the AMD
    /// ordering is minimizing).
    pub fn factor_nnz(&self) -> usize {
        self.lp[self.n]
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    /// Returns [`CholeskyError::DimensionMismatch`] if `b.len()` differs
    /// from the factored dimension.
    pub fn solve(&self, b: &Vector) -> Result<Vector, CholeskyError> {
        if b.len() != self.n {
            return Err(CholeskyError::DimensionMismatch {
                expected: self.n,
                found: b.len(),
            });
        }
        let n = self.n;
        // Permute into elimination order.
        let mut y = vec![0f64; n];
        for k in 0..n {
            y[k] = b[self.perm[k]];
        }
        // L·z = y (unit diagonal, columns store the strictly-lower part).
        for k in 0..n {
            let yk = y[k];
            if yk != 0.0 {
                for p in self.lp[k]..self.lp[k + 1] {
                    y[self.li[p]] -= self.lx[p] * yk;
                }
            }
        }
        // D·w = z.
        for k in 0..n {
            y[k] /= self.d[k];
        }
        // Lᵀ·v = w.
        for k in (0..n).rev() {
            let mut acc = y[k];
            for p in self.lp[k]..self.lp[k + 1] {
                acc -= self.lx[p] * y[self.li[p]];
            }
            y[k] = acc;
        }
        // Un-permute.
        let mut x = Vector::zeros(n);
        for k in 0..n {
            x[self.perm[k]] = y[k];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::Cholesky;

    /// A pentadiagonal SPD matrix (diagonally dominant).
    fn banded(n: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 6.0));
            if i + 1 < n {
                t.push((i, i + 1, -2.0));
                t.push((i + 1, i, -2.0));
            }
            if i + 2 < n {
                t.push((i, i + 2, 0.5));
                t.push((i + 2, i, 0.5));
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    #[test]
    fn amd_returns_a_permutation() {
        let a = banded(12);
        let perm = amd_order(&a).expect("square");
        let mut seen = vec![false; 12];
        for &p in &perm {
            assert!(!seen[p], "duplicate index {p}");
            seen[p] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn solve_matches_dense_cholesky() {
        let a = banded(20);
        let dense = a.to_dense();
        let b = Vector::from((0..20).map(|i| (i as f64 * 0.37).sin()).collect::<Vec<_>>());
        let xs = SparseCholesky::factor(&a).expect("spd").solve(&b).expect("dim");
        let xd = Cholesky::factor(&dense).expect("spd").solve(&b).expect("dim");
        for i in 0..20 {
            assert!((xs[i] - xd[i]).abs() < 1e-10, "component {i}");
        }
    }

    #[test]
    fn symbolic_reuse_is_identical_to_fresh_factorization() {
        let a = banded(16);
        let sym = SparseSymbolic::analyze(&a).expect("square");
        // A different SPD matrix with the same pattern (scaled values).
        let scaled = a.scale_rows(&[2.0; 16]).scale_cols(&[0.5; 16]);
        let b = Vector::from(vec![1.0; 16]);
        let x_reused = sym.factor(&scaled).expect("spd").solve(&b).expect("dim");
        let x_fresh = SparseCholesky::factor(&scaled).expect("spd").solve(&b).expect("dim");
        for i in 0..16 {
            assert_eq!(x_reused[i], x_fresh[i], "component {i}");
        }
    }

    #[test]
    fn rejects_indefinite_and_semidefinite() {
        let indef = CsrMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 1.0)],
        );
        assert_eq!(
            SparseCholesky::factor(&indef).unwrap_err(),
            CholeskyError::NotPositiveDefinite
        );
        let semi = CsrMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)],
        );
        assert!(SparseCholesky::factor(&semi).is_err());
        // All-zero matrices (the empty-measurement gain) are rejected too.
        assert!(SparseCholesky::factor(&CsrMatrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn dimension_errors_are_values_not_panics() {
        let rect = CsrMatrix::zeros(2, 3);
        assert!(matches!(
            SparseCholesky::factor(&rect),
            Err(CholeskyError::NotSquare { rows: 2, cols: 3 })
        ));
        let a = banded(4);
        let ch = SparseCholesky::factor(&a).expect("spd");
        assert!(matches!(
            ch.solve(&Vector::zeros(5)),
            Err(CholeskyError::DimensionMismatch { expected: 4, found: 5 })
        ));
    }

    #[test]
    fn pattern_mismatch_is_reported() {
        let a = banded(8);
        let sym = SparseSymbolic::analyze(&a).expect("square");
        let other = CsrMatrix::from_triplets(
            8,
            8,
            &(0..8).map(|i| (i, i, 1.0)).collect::<Vec<_>>(),
        );
        assert_eq!(sym.factor(&other).unwrap_err(), CholeskyError::PatternMismatch);
        assert_eq!(
            sym.factor(&CsrMatrix::zeros(9, 9)).unwrap_err(),
            CholeskyError::PatternMismatch
        );
    }

    #[test]
    fn amd_reduces_fill_on_an_arrowhead() {
        // Natural order eliminates the hub first and fills everything;
        // minimum degree defers it and keeps the factor linear-sized.
        let n = 24;
        let mut t = vec![(0usize, 0usize, 10.0)];
        for i in 1..n {
            t.push((i, i, 10.0));
            t.push((0, i, 1.0));
            t.push((i, 0, 1.0));
        }
        let a = CsrMatrix::from_triplets(n, n, &t);
        let ch = SparseCholesky::factor(&a).expect("spd");
        assert!(
            ch.factor_nnz() <= n,
            "arrowhead fill {} exceeds linear bound {n}",
            ch.factor_nnz()
        );
        let empty = SparseSymbolic::analyze(&a).expect("square");
        assert_eq!(empty.factor_nnz(), ch.factor_nnz());
    }

    /// Exact minimum degree on the explicit elimination graph: eliminate
    /// a vertex of minimum current degree (ties toward the smallest
    /// index, like [`amd_order`]) and join its neighbours into a clique.
    /// Returns the fill it implies — the sum of pivot degrees, i.e. the
    /// entries of `L` below the diagonal. The test-only yardstick for the
    /// quotient-graph approximation: O(n² + Σ clique²), fine at a few
    /// hundred vertices.
    fn exact_min_degree_fill(a: &CsrMatrix) -> usize {
        use std::collections::BTreeSet;
        let n = a.num_rows();
        let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for i in 0..n {
            for &j in a.row(i).0 {
                if i != j {
                    adj[i].insert(j);
                    adj[j].insert(i);
                }
            }
        }
        let mut alive = vec![true; n];
        let mut fill = 0;
        for _ in 0..n {
            let pivot = (0..n)
                .filter(|&v| alive[v])
                .min_by_key(|&v| (adj[v].len(), v))
                .expect("a live vertex per step");
            alive[pivot] = false;
            let clique: Vec<usize> = std::mem::take(&mut adj[pivot]).into_iter().collect();
            fill += clique.len();
            for &u in &clique {
                adj[u].remove(&pivot);
                adj[u].extend(clique.iter().copied().filter(|&w| w != u));
            }
        }
        fill
    }

    /// This crate's copy of a matrix built by `sta-grid`, which links its
    /// own instance of the crate (so the type cannot be named here).
    macro_rules! local {
        ($m:expr) => {{
            let m = $m;
            let mut t = Vec::with_capacity(m.nnz());
            for i in 0..m.num_rows() {
                let (cols, vals) = m.row(i);
                t.extend(cols.iter().zip(vals).map(|(&j, &v)| (i, j, v)));
            }
            CsrMatrix::from_triplets(m.num_rows(), m.num_cols(), &t)
        }};
    }

    #[test]
    fn exact_min_degree_oracle_is_exact_on_small_patterns() {
        // `L` holds every edge plus the fill: a path eliminated from an
        // end never fills, an arrowhead defers its hub, and a 2×3 grid
        // graph (7 edges) gains two chords at minimum degree (its first
        // two corners each join a pair of non-adjacent neighbours).
        assert_eq!(exact_min_degree_fill(&banded(1)), 0);
        let path = CsrMatrix::from_triplets(
            4,
            4,
            &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0), (2, 3, 1.0), (3, 2, 1.0)],
        );
        assert_eq!(exact_min_degree_fill(&path), 3);
        let mut t = Vec::new();
        for i in 1..6 {
            t.push((0, i, 1.0));
            t.push((i, 0, 1.0));
        }
        assert_eq!(exact_min_degree_fill(&CsrMatrix::from_triplets(6, 6, &t)), 5);
        let edges = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)];
        let t: Vec<_> = edges.iter().flat_map(|&(a, b)| [(a, b, 1.0), (b, a, 1.0)]).collect();
        assert_eq!(exact_min_degree_fill(&CsrMatrix::from_triplets(6, 6, &t)), 7 + 2);
    }

    /// Ordering quality on real grid structure: the quotient-graph AMD
    /// fill stays within 10% of exact minimum degree on the WLS gain
    /// `HᵀH` and the reduced susceptance matrix `B` of the 118- and
    /// 300-bus cases.
    #[test]
    fn amd_fill_is_within_ten_percent_of_exact_minimum_degree() {
        for buses in [118, 300] {
            let sys = sta_grid::synthetic::ieee_case(buses);
            let keep: Vec<usize> =
                (0..buses).filter(|&j| j != sys.reference_bus.0).collect();
            let h = sta_grid::topology::h_matrix_sparse(&sys.grid, &sys.topology)
                .select_cols(&keep);
            let gain = local!(h.transpose().mul_mat(&h));
            let b = local!(sta_grid::topology::b_matrix(
                &sys.grid,
                &sys.topology,
                sys.reference_bus,
            ));
            for (name, a) in [("gain", gain), ("B", b)] {
                let amd = SparseSymbolic::analyze(&a).expect("square").factor_nnz();
                let exact = exact_min_degree_fill(&a);
                assert!(
                    amd * 10 <= exact * 11,
                    "ieee{buses} {name}: AMD fill {amd} vs exact minimum degree {exact}"
                );
            }
        }
    }

    #[test]
    fn zero_dimension_factors_and_solves() {
        let a = CsrMatrix::zeros(0, 0);
        let ch = SparseCholesky::factor(&a).expect("vacuously spd");
        assert_eq!(ch.solve(&Vector::zeros(0)).expect("dim").len(), 0);
    }
}
