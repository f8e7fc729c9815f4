//! Markowitz-ordered sparse LU over an abstract coefficient field, plus a
//! product-form [`FactorizedBasis`] with eta-file column replacement.
//!
//! This is the factorization substrate for the revised simplex in `sta-smt`:
//! the basis matrix `A_B` is factored once into sparse triangular factors,
//! each pivot replaces one basis column by appending a sparse *eta* vector
//! (product-form-of-the-inverse update, Forrest–Tomlin-style bookkeeping),
//! and FTRAN/BTRAN solves replay the factors plus the eta chain. The solver
//! refactorizes when the chain grows past its policy thresholds.
//!
//! Everything is generic over a [`Scalar`] coefficient field so the same
//! kernels serve `f64` (tested here against the dense [`crate::Lu`] oracle)
//! and the exact rationals of `sta-smt`, whose trait impls live next to the
//! `Rational` type. Right-hand sides are generic over [`VectorElem`] so a
//! rational factorization can solve delta-rational systems (assignments with
//! an infinitesimal component) without re-factoring.
//!
//! Pivot choice follows the classical Markowitz heuristic specialized to a
//! minimum-column-count sweep: pick the active column with the fewest
//! entries (ties to the smallest index), then within it the row with the
//! fewest entries (ties to the smallest index). With a fixed column this
//! minimizes the Markowitz cost `(r−1)(c−1)`; singleton columns — the
//! common case for simplex bases dominated by slack variables — eliminate
//! with zero fill and are found by an early exit. Selection is fully
//! deterministic: equal inputs factor identically on every run.
//!
//! Exactness note: over an exact field any structurally admissible nonzero
//! pivot is numerically safe, so there is no threshold pivoting — the
//! ordering is chosen for sparsity alone. Over `f64` this is adequate for
//! the well-scaled bases the tests draw, but the dense partial-pivoting
//! [`crate::Lu`] remains the right tool for general floating-point systems.

use std::collections::BTreeMap;

/// An exact (or approximately exact) coefficient field.
///
/// Implemented for `f64` here and for `sta-smt`'s `Rational` in that crate.
/// `Default::default()` is the additive identity. `recip` is only ever
/// called on values for which `is_zero` is false.
pub trait Scalar: Clone + Default + std::fmt::Debug {
    /// Multiplicative identity.
    fn one() -> Self;
    /// Exact test against the additive identity.
    fn is_zero(&self) -> bool;
    /// `self + other`.
    fn add(&self, other: &Self) -> Self;
    /// `self − other`.
    fn sub(&self, other: &Self) -> Self;
    /// `self · other`.
    fn mul(&self, other: &Self) -> Self;
    /// `−self`.
    fn neg(&self) -> Self;
    /// `1 / self` (caller guarantees `self` is nonzero).
    fn recip(&self) -> Self;
}

impl Scalar for f64 {
    fn one() -> Self {
        1.0
    }
    fn is_zero(&self) -> bool {
        *self == 0.0
    }
    fn add(&self, other: &Self) -> Self {
        self + other
    }
    fn sub(&self, other: &Self) -> Self {
        self - other
    }
    fn mul(&self, other: &Self) -> Self {
        self * other
    }
    fn neg(&self) -> Self {
        -self
    }
    fn recip(&self) -> Self {
        1.0 / self
    }
}

/// Element type of a right-hand-side vector solvable against factors with
/// scalar type `S`. The blanket impl covers `S` itself; `sta-smt` adds
/// `DeltaRational` over `Rational`. `Default::default()` is the additive
/// identity.
pub trait VectorElem<S>: Clone + Default + std::fmt::Debug {
    /// Exact test against the additive identity.
    fn is_zero(&self) -> bool;
    /// `self + other`.
    fn add(&self, other: &Self) -> Self;
    /// `self − other`.
    fn sub(&self, other: &Self) -> Self;
    /// `self · k` for a scalar `k`.
    fn scale(&self, k: &S) -> Self;
}

impl<S: Scalar> VectorElem<S> for S {
    fn is_zero(&self) -> bool {
        Scalar::is_zero(self)
    }
    fn add(&self, other: &Self) -> Self {
        Scalar::add(self, other)
    }
    fn sub(&self, other: &Self) -> Self {
        Scalar::sub(self, other)
    }
    fn scale(&self, k: &S) -> Self {
        Scalar::mul(self, k)
    }
}

/// Why a factorization or solve stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LuError {
    /// The matrix (or a replacement column's pivot entry) is singular.
    Singular,
    /// The caller's poll callback requested an interrupt. Factorizations
    /// build into a fresh object; an interrupted solve leaves its
    /// [`SolveWork`] all zero.
    Interrupted,
}

impl std::fmt::Display for LuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LuError::Singular => write!(f, "singular basis matrix"),
            LuError::Interrupted => write!(f, "interrupted by poll callback"),
        }
    }
}

impl std::error::Error for LuError {}

/// A dense vector plus the list of slots that may hold a nonzero; every
/// unlisted slot is zero.
#[derive(Debug, Clone, Default)]
struct Pattern<E> {
    vals: Vec<E>,
    list: Vec<usize>,
    listed: Vec<bool>,
}

impl<E: Default> Pattern<E> {
    fn fit(&mut self, n: usize) {
        if self.vals.len() < n {
            self.vals.resize_with(n, E::default);
            self.listed.resize(n, false);
        }
    }

    /// Slot `i`, listed.
    fn slot(&mut self, i: usize) -> &mut E {
        self.fit(i + 1);
        if !self.listed[i] {
            self.listed[i] = true;
            self.list.push(i);
        }
        &mut self.vals[i]
    }

    /// Moves every listed slot `i` to `to[map[i]]`, leaving `self` clear;
    /// slots that `is_zero` are dropped instead.
    fn move_into(&mut self, to: &mut Pattern<E>, map: &[usize], is_zero: fn(&E) -> bool) {
        for &i in &self.list {
            self.listed[i] = false;
            let v = std::mem::take(&mut self.vals[i]);
            if !is_zero(&v) {
                *to.slot(map[i]) = v;
            }
        }
        self.list.clear();
    }

    fn clear(&mut self) {
        for &i in &self.list {
            self.vals[i] = E::default();
            self.listed[i] = false;
        }
        self.list.clear();
    }
}

/// Reusable scratch of the hypersparse solves: the vector being solved
/// (the right-hand side on entry, the solution on return) with its
/// nonzero pattern, plus the kernels' own step-space vector and search
/// stack.
///
/// Everything is zero between solves: a solve that returns an error,
/// interrupted or not, clears the whole scratch, and the caller clears
/// the result with [`SolveWork::clear`] once read. Buffers only grow, so
/// a warm scratch solves without allocating.
#[derive(Debug, Clone, Default)]
pub struct SolveWork<S, E = S> {
    /// The caller's vector, in matrix-row or matrix-column coordinates.
    x: Pattern<E>,
    /// The same vector in elimination-step coordinates.
    w: Pattern<E>,
    /// Depth-first-search stack of `(step, next edge)`.
    stack: Vec<(usize, usize)>,
    /// Spare pattern-list buffer swapped in by the reach.
    spare: Vec<usize>,
    field: std::marker::PhantomData<fn() -> S>,
}

impl<S: Scalar, E: VectorElem<S>> SolveWork<S, E> {
    /// An empty scratch; it sizes itself to each solve.
    pub fn new() -> Self {
        Self::default()
    }

    /// Entry `i` of the vector, for writing a right-hand side.
    pub fn slot(&mut self, i: usize) -> &mut E {
        self.x.slot(i)
    }

    /// The nonzero entries, in pattern order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &E)> + '_ {
        self.x
            .list
            .iter()
            .map(|&i| (i, &self.x.vals[i]))
            .filter(|(_, v)| !v.is_zero())
    }

    /// Moves the nonzero entries out in ascending index order, leaving
    /// the scratch clear.
    pub fn take_sorted(&mut self) -> Vec<(usize, E)> {
        self.x.list.sort_unstable();
        let mut out = Vec::with_capacity(self.x.list.len());
        for &i in &self.x.list {
            self.x.listed[i] = false;
            let v = std::mem::take(&mut self.x.vals[i]);
            if !v.is_zero() {
                out.push((i, v));
            }
        }
        self.x.list.clear();
        out
    }

    /// Zeroes the vector's pattern (the solves keep the rest clear).
    pub fn clear(&mut self) {
        self.x.clear();
        self.w.clear();
        self.stack.clear();
    }

    /// Whether every slot is zero and nothing is listed: the state the
    /// scratch must be in between solves. O(size); for audits and tests.
    pub fn is_clear(&self) -> bool {
        [&self.x, &self.w].iter().all(|p| {
            p.list.is_empty()
                && !p.listed.iter().any(|&l| l)
                && p.vals.iter().all(|v| v.is_zero())
        }) && self.stack.is_empty()
    }

    fn fit(&mut self, n: usize) {
        self.x.fit(n);
        self.w.fit(n);
    }

    /// Replaces the step-space pattern by everything reachable from its
    /// nonzeros along `adj`, in depth-first postorder (Gilbert–Peierls):
    /// read backwards, each step precedes every step it pushes into.
    fn reach(&mut self, adj: &[Vec<(usize, S)>]) {
        let SolveWork { w, stack, spare, .. } = self;
        let starts = std::mem::replace(&mut w.list, std::mem::take(spare));
        for &s in &starts {
            w.listed[s] = false;
        }
        for &s in &starts {
            if w.listed[s] || w.vals[s].is_zero() {
                continue;
            }
            w.listed[s] = true;
            stack.push((s, 0));
            while let Some(top) = stack.len().checked_sub(1) {
                let (k, next) = stack[top];
                match adj[k].get(next) {
                    Some(&(t, _)) => {
                        stack[top].1 = next + 1;
                        if !w.listed[t] {
                            w.listed[t] = true;
                            stack.push((t, 0));
                        }
                    }
                    None => {
                        stack.pop();
                        w.list.push(k);
                    }
                }
            }
        }
        *spare = starts;
        spare.clear();
    }

    /// Solves one triangular factor in step space by pushes: each reached
    /// step `k`, in topological order, is scaled by `diag[k]` when given
    /// and then applies `w[t] −= a·w[k]` for every `(t, a)` in `adj[k]`.
    /// Steps left at zero push nothing.
    fn push_solve(
        &mut self,
        adj: &[Vec<(usize, S)>],
        diag: Option<&[S]>,
        poll: &mut dyn FnMut() -> bool,
    ) -> Result<(), LuError> {
        self.reach(adj);
        let w = &mut self.w;
        for (count, &k) in w.list.iter().rev().enumerate() {
            if count % SOLVE_POLL_STRIDE == 0 && poll() {
                return Err(LuError::Interrupted);
            }
            if w.vals[k].is_zero() {
                continue;
            }
            let mut wk = std::mem::take(&mut w.vals[k]);
            if let Some(d) = diag {
                wk = wk.scale(&d[k]);
            }
            for (t, a) in &adj[k] {
                w.vals[*t] = w.vals[*t].sub(&wk.scale(a));
            }
            w.vals[k] = wk;
        }
        Ok(())
    }
}

/// A sparse LU factorization of a square matrix given by columns, stored
/// in elimination-step coordinates: step `k` pivots on matrix row
/// `row_of_step[k]` and column `col_of_step[k]`.
///
/// Each factor is indexed both ways, so every triangular solve runs as a
/// push along one of them and touches only the steps its right-hand side
/// reaches (Gilbert and Peierls 1988; Hall and McKinnon 2005). Produced by
/// [`SparseLu::factor`]; consumed by the FTRAN/BTRAN solves, usually
/// through a [`FactorizedBasis`] that layers eta updates on top.
#[derive(Debug, Clone)]
pub struct SparseLu<S> {
    row_of_step: Vec<usize>,
    col_of_step: Vec<usize>,
    step_of_row: Vec<usize>,
    step_of_col: Vec<usize>,
    /// Reciprocal of each step's pivot.
    inv_diag: Vec<S>,
    /// `L` by column: `(s, m)` in `l_col[k]` eliminates `w[s] −= m·w[k]`
    /// (`s > k`).
    l_col: Vec<Vec<(usize, S)>>,
    /// `L` by row: `(k, m)` in `l_row[s]` for each `(s, m)` in `l_col[k]`.
    l_row: Vec<Vec<(usize, S)>>,
    /// `U` by row: step `k`'s remaining pivot-row entries `(s, v)` over
    /// later steps' columns (`s > k`).
    u_row: Vec<Vec<(usize, S)>>,
    /// `U` by column: `(k, v)` in `u_col[s]` for each `(s, v)` in `u_row[k]`.
    u_col: Vec<Vec<(usize, S)>>,
    nnz: usize,
}

/// How often the solve kernels invoke the poll callback (in steps). The
/// callback itself is expected to be cheap; this just keeps the dynamic
/// call out of the innermost scatter loops.
const SOLVE_POLL_STRIDE: usize = 64;

/// The other orientation of a step-indexed adjacency: `(k, a)` in
/// `out[t]` for every `(t, a)` in `adj[k]`.
fn transpose<S: Clone>(adj: &[Vec<(usize, S)>]) -> Vec<Vec<(usize, S)>> {
    let mut out = vec![Vec::new(); adj.len()];
    for (k, entries) in adj.iter().enumerate() {
        for (t, a) in entries {
            out[*t].push((k, a.clone()));
        }
    }
    out
}

impl<S: Scalar> SparseLu<S> {
    /// Factors the square matrix whose `j`-th column holds the sparse
    /// entries `cols[j]` as `(row, value)` pairs (rows need not be sorted;
    /// duplicates are not allowed; exact zeros are dropped).
    ///
    /// `poll` is invoked once per elimination step; returning `true`
    /// abandons the factorization with [`LuError::Interrupted`]. Pass
    /// `&mut || false` when no budget applies.
    pub fn factor(
        cols: &[Vec<(usize, S)>],
        poll: &mut dyn FnMut() -> bool,
    ) -> Result<SparseLu<S>, LuError> {
        let n = cols.len();
        // Row-major working copy of the active submatrix. BTreeMaps keep
        // iteration deterministic (pinned by the determinism lint rule).
        let mut rows: Vec<BTreeMap<usize, S>> = vec![BTreeMap::new(); n];
        for (j, col) in cols.iter().enumerate() {
            for (i, v) in col {
                if !v.is_zero() {
                    rows[*i].insert(j, v.clone());
                }
            }
        }
        // Column occupancy: which active rows mention each column. Kept
        // exact (entries removed on cancellation) so counts are true
        // Markowitz counts, not upper bounds.
        let mut col_rows: Vec<std::collections::BTreeSet<usize>> =
            vec![std::collections::BTreeSet::new(); n];
        for (i, row) in rows.iter().enumerate() {
            for &j in row.keys() {
                col_rows[j].insert(i);
            }
        }
        let mut col_active = vec![true; n];
        let mut row_of_step = Vec::with_capacity(n);
        let mut col_of_step = Vec::with_capacity(n);
        let mut inv_diags = Vec::with_capacity(n);
        // Multipliers by matrix row and upper entries by matrix column,
        // mapped to step coordinates once the elimination order is known.
        let mut l_col: Vec<Vec<(usize, S)>> = Vec::with_capacity(n);
        let mut u_row: Vec<Vec<(usize, S)>> = Vec::with_capacity(n);
        let mut nnz = 0usize;
        for _ in 0..n {
            if poll() {
                return Err(LuError::Interrupted);
            }
            // Minimum-count active column, ties to the smallest index;
            // early exit on singletons (zero Markowitz cost).
            let mut best_col: Option<(usize, usize)> = None; // (count, col)
            for (j, active) in col_active.iter().enumerate() {
                if !active {
                    continue;
                }
                let count = col_rows[j].len();
                if count == 0 {
                    return Err(LuError::Singular);
                }
                match best_col {
                    Some((c, _)) if c <= count => {}
                    _ => best_col = Some((count, j)),
                }
                if count == 1 {
                    break;
                }
            }
            let Some((_, pc)) = best_col else {
                break; // no active columns left (n reached)
            };
            // Within the column: minimum-count row, ties to the smallest.
            let mut pr = usize::MAX;
            let mut pr_len = usize::MAX;
            for &i in &col_rows[pc] {
                let len = rows[i].len();
                if len < pr_len {
                    pr_len = len;
                    pr = i;
                }
            }
            let mut pivot_row = std::mem::take(&mut rows[pr]);
            // The pivot entry is present by construction (pr came from the
            // column's occupancy set); a miss means the matrix walked
            // outside the invariant, which only a singular input can cause.
            let Some(diag) = pivot_row.remove(&pc) else {
                return Err(LuError::Singular);
            };
            let inv_diag = diag.recip();
            col_active[pc] = false;
            for &j in pivot_row.keys() {
                col_rows[j].remove(&pr);
            }
            // Eliminate the pivot column from every other row touching it.
            let victims: Vec<usize> =
                col_rows[pc].iter().copied().filter(|&i| i != pr).collect();
            let mut l = Vec::with_capacity(victims.len());
            for i in victims {
                let Some(a) = rows[i].remove(&pc) else {
                    return Err(LuError::Singular);
                };
                let m = a.mul(&inv_diag);
                for (j, v) in &pivot_row {
                    let delta = m.mul(v).neg();
                    match rows[i].entry(*j) {
                        std::collections::btree_map::Entry::Vacant(e) => {
                            if !delta.is_zero() {
                                e.insert(delta);
                                col_rows[*j].insert(i);
                            }
                        }
                        std::collections::btree_map::Entry::Occupied(mut e) => {
                            let sum = e.get().add(&delta);
                            if sum.is_zero() {
                                e.remove();
                                col_rows[*j].remove(&i);
                            } else {
                                *e.get_mut() = sum;
                            }
                        }
                    }
                }
                l.push((i, m));
            }
            col_rows[pc].clear();
            let u: Vec<(usize, S)> = pivot_row.into_iter().collect();
            nnz += 1 + l.len() + u.len();
            row_of_step.push(pr);
            col_of_step.push(pc);
            inv_diags.push(inv_diag);
            l_col.push(l);
            u_row.push(u);
        }
        if row_of_step.len() != n {
            return Err(LuError::Singular);
        }
        let mut step_of_row = vec![0; n];
        let mut step_of_col = vec![0; n];
        for k in 0..n {
            step_of_row[row_of_step[k]] = k;
            step_of_col[col_of_step[k]] = k;
        }
        for entry in l_col.iter_mut().flatten() {
            entry.0 = step_of_row[entry.0];
        }
        for entry in u_row.iter_mut().flatten() {
            entry.0 = step_of_col[entry.0];
        }
        Ok(SparseLu {
            l_row: transpose(&l_col),
            u_col: transpose(&u_row),
            row_of_step,
            col_of_step,
            step_of_row,
            step_of_col,
            inv_diag: inv_diags,
            l_col,
            u_row,
            nnz,
        })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.row_of_step.len()
    }

    /// Stored factor entries (diagonal + multipliers + upper rows), each
    /// counted once although both orientations are kept.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Solves `A·x = b` in place: `work` holds `b`, indexed by matrix row,
    /// on entry and `x`, indexed by matrix column, on return. The cost is
    /// proportional to the factor entries `b`'s nonzeros reach.
    pub fn solve<E: VectorElem<S>>(
        &self,
        work: &mut SolveWork<S, E>,
        poll: &mut dyn FnMut() -> bool,
    ) -> Result<(), LuError> {
        let done = self.solve_steps(work, poll);
        if done.is_err() {
            work.clear();
        }
        done
    }

    /// Solves `Aᵀ·y = c` in place: `work` holds `c`, indexed by matrix
    /// column, on entry and `y`, indexed by matrix row, on return.
    pub fn solve_transpose<E: VectorElem<S>>(
        &self,
        work: &mut SolveWork<S, E>,
        poll: &mut dyn FnMut() -> bool,
    ) -> Result<(), LuError> {
        let done = self.solve_transpose_steps(work, poll);
        if done.is_err() {
            work.clear();
        }
        done
    }

    /// `L` forward, then `U` backward, both as pushes in step space.
    fn solve_steps<E: VectorElem<S>>(
        &self,
        work: &mut SolveWork<S, E>,
        poll: &mut dyn FnMut() -> bool,
    ) -> Result<(), LuError> {
        work.fit(self.dim());
        work.x.move_into(&mut work.w, &self.step_of_row, E::is_zero);
        work.push_solve(&self.l_col, None, poll)?;
        work.push_solve(&self.u_col, Some(&self.inv_diag), poll)?;
        work.w.move_into(&mut work.x, &self.col_of_step, E::is_zero);
        Ok(())
    }

    /// `Uᵀ` forward, then `Lᵀ` backward, both as pushes in step space.
    fn solve_transpose_steps<E: VectorElem<S>>(
        &self,
        work: &mut SolveWork<S, E>,
        poll: &mut dyn FnMut() -> bool,
    ) -> Result<(), LuError> {
        work.fit(self.dim());
        work.x.move_into(&mut work.w, &self.step_of_col, E::is_zero);
        work.push_solve(&self.u_row, Some(&self.inv_diag), poll)?;
        work.push_solve(&self.l_row, None, poll)?;
        work.w.move_into(&mut work.x, &self.row_of_step, E::is_zero);
        Ok(())
    }
}

/// A sparse eta vector: the product-form update recording one basis-column
/// replacement at `pos`.
#[derive(Debug, Clone)]
struct Eta<S> {
    pos: usize,
    /// Off-position entries of the replacement column in basis coordinates.
    d: Vec<(usize, S)>,
    /// Reciprocal of the column's entry at `pos`.
    inv_diag: S,
}

/// A factorized basis: sparse LU plus a chain of eta updates, supporting
/// FTRAN/BTRAN solves and O(column) basis replacement.
///
/// The eta chain implements the product form of the inverse: after `t`
/// replacements the basis is `B = B₀·E₁·…·E_t` where `E_k` is the identity
/// with one column overwritten. FTRAN applies `E⁻¹` factors oldest→newest
/// after the LU solve; BTRAN applies their transposes newest→oldest before
/// the transpose LU solve. The owner refactorizes (builds a fresh
/// [`SparseLu`] and drops the chain) when [`FactorizedBasis::eta_count`] or
/// [`FactorizedBasis::eta_nnz`] outgrow its policy.
#[derive(Debug, Clone)]
pub struct FactorizedBasis<S> {
    lu: SparseLu<S>,
    etas: Vec<Eta<S>>,
    eta_nnz: usize,
}

impl<S: Scalar> FactorizedBasis<S> {
    /// Wraps a fresh factorization with an empty eta chain.
    pub fn new(lu: SparseLu<S>) -> FactorizedBasis<S> {
        FactorizedBasis { lu, etas: Vec::new(), eta_nnz: 0 }
    }

    /// Basis dimension.
    pub fn dim(&self) -> usize {
        self.lu.dim()
    }

    /// Length of the eta chain (column replacements since refactorization).
    pub fn eta_count(&self) -> usize {
        self.etas.len()
    }

    /// Total stored eta entries (fill proxy for the refactorization policy).
    pub fn eta_nnz(&self) -> usize {
        self.eta_nnz
    }

    /// Stored entries of the underlying LU factors.
    pub fn lu_nnz(&self) -> usize {
        self.lu.nnz()
    }

    /// FTRAN: solves `B·x = b` in place, `b` indexed by constraint row and
    /// `x` by basis position. An eta costs one test unless the running
    /// entry at its position is nonzero.
    pub fn ftran<E: VectorElem<S>>(
        &self,
        work: &mut SolveWork<S, E>,
        poll: &mut dyn FnMut() -> bool,
    ) -> Result<(), LuError> {
        let done = self.lu.solve_steps(work, poll).and_then(|()| {
            let x = &mut work.x;
            for (k, eta) in self.etas.iter().enumerate() {
                if k % SOLVE_POLL_STRIDE == 0 && poll() {
                    return Err(LuError::Interrupted);
                }
                // x := E⁻¹x with E's column `pos` holding d (diag at pos).
                if x.vals[eta.pos].is_zero() {
                    continue;
                }
                let xp = x.vals[eta.pos].scale(&eta.inv_diag);
                for (r, dv) in &eta.d {
                    let slot = x.slot(*r);
                    *slot = slot.sub(&xp.scale(dv));
                }
                x.vals[eta.pos] = xp;
            }
            Ok(())
        });
        if done.is_err() {
            work.clear();
        }
        done
    }

    /// BTRAN: solves `Bᵀ·y = c` in place, `c` indexed by basis position
    /// and `y` by constraint row.
    pub fn btran<E: VectorElem<S>>(
        &self,
        work: &mut SolveWork<S, E>,
        poll: &mut dyn FnMut() -> bool,
    ) -> Result<(), LuError> {
        work.fit(self.dim());
        let x = &mut work.x;
        for (k, eta) in self.etas.iter().enumerate().rev() {
            if k % SOLVE_POLL_STRIDE == 0 && poll() {
                work.clear();
                return Err(LuError::Interrupted);
            }
            // x := E⁻ᵀx: only the `pos` slot changes.
            let mut acc = x.vals[eta.pos].clone();
            for (r, dv) in &eta.d {
                if !x.vals[*r].is_zero() {
                    acc = acc.sub(&x.vals[*r].scale(dv));
                }
            }
            if !acc.is_zero() || !x.vals[eta.pos].is_zero() {
                *x.slot(eta.pos) = acc.scale(&eta.inv_diag);
            }
        }
        self.lu.solve_transpose(work, poll)
    }

    /// Replaces basis column `pos` with the column whose FTRAN image is the
    /// sparse vector `d` (i.e. `d = B⁻¹·a_new` in basis coordinates, the
    /// vector the simplex pivot already computed), appending one eta.
    ///
    /// Fails with [`LuError::Singular`] if `d` has no entry at `pos` — such
    /// a replacement would make the basis singular.
    pub fn replace_column(&mut self, pos: usize, d: &[(usize, S)]) -> Result<(), LuError> {
        let mut diag: Option<S> = None;
        let mut off = Vec::with_capacity(d.len().saturating_sub(1));
        for (r, v) in d {
            if v.is_zero() {
                continue;
            }
            if *r == pos {
                diag = Some(v.clone());
            } else {
                off.push((*r, v.clone()));
            }
        }
        let Some(diag) = diag else {
            return Err(LuError::Singular);
        };
        self.eta_nnz += 1 + off.len();
        self.etas.push(Eta { pos, d: off, inv_diag: diag.recip() });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::rng::Pcg32;
    use crate::vector::Vector;
    use crate::Lu;

    fn never() -> impl FnMut() -> bool {
        || false
    }

    fn cols_of(a: &Matrix) -> Vec<Vec<(usize, f64)>> {
        let n = a.num_rows();
        (0..n)
            .map(|j| {
                (0..n)
                    .filter(|&i| a[(i, j)] != 0.0)
                    .map(|i| (i, a[(i, j)]))
                    .collect()
            })
            .collect()
    }

    fn random_sparse(rng: &mut Pcg32, n: usize) -> Matrix {
        // Diagonally dominant sparse matrix: nonsingular by construction.
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = rng.uniform_f64(5.0, 10.0);
            for _ in 0..2 {
                let j = rng.below(n);
                if j != i {
                    a[(i, j)] = rng.uniform_f64(-1.0, 1.0);
                }
            }
        }
        a
    }

    /// Writes the dense vector `b` into a clear scratch.
    fn load(work: &mut SolveWork<f64>, b: &[f64]) {
        assert!(work.is_clear(), "scratch dirty before a solve");
        for (i, v) in b.iter().enumerate() {
            if *v != 0.0 {
                *work.slot(i) = *v;
            }
        }
    }

    /// Reads the result out as a dense vector and clears the scratch.
    fn unload(work: &mut SolveWork<f64>, n: usize) -> Vec<f64> {
        let mut x = vec![0.0; n];
        for (i, v) in work.iter() {
            x[i] = *v;
        }
        work.clear();
        assert!(work.is_clear(), "clear left the scratch dirty");
        x
    }

    fn lu_solve(lu: &SparseLu<f64>, b: &[f64], transpose: bool) -> Vec<f64> {
        let mut work = SolveWork::new();
        load(&mut work, b);
        if transpose {
            lu.solve_transpose(&mut work, &mut never()).unwrap();
        } else {
            lu.solve(&mut work, &mut never()).unwrap();
        }
        unload(&mut work, b.len())
    }

    fn basis_solve(
        basis: &FactorizedBasis<f64>,
        work: &mut SolveWork<f64>,
        b: &[f64],
        transpose: bool,
    ) -> Vec<f64> {
        load(work, b);
        if transpose {
            basis.btran(work, &mut never()).unwrap();
        } else {
            basis.ftran(work, &mut never()).unwrap();
        }
        unload(work, b.len())
    }

    fn dense_solve(a: &Matrix, b: &[f64]) -> Vec<f64> {
        let x = Lu::factor(a).unwrap().solve(&Vector::from(b.to_vec())).unwrap();
        (0..b.len()).map(|i| x[i]).collect()
    }

    #[test]
    fn solve_matches_dense_lu() {
        let mut rng = Pcg32::new(0x5e5e);
        for _ in 0..32 {
            let n = 3 + rng.below(8);
            let a = random_sparse(&mut rng, n);
            let b: Vec<f64> = (0..n).map(|_| rng.uniform_f64(-4.0, 4.0)).collect();
            let sparse = SparseLu::factor(&cols_of(&a), &mut never()).unwrap();
            let x = lu_solve(&sparse, &b, false);
            let dense = dense_solve(&a, &b);
            for i in 0..n {
                // No threshold pivoting (sparsity-ordered; exact fields are the
                // primary consumer), so f64 comparisons get a roundoff margin.
                assert!((x[i] - dense[i]).abs() < 1e-6, "mismatch at {i}");
            }
        }
    }

    #[test]
    fn transpose_solve_matches_dense_lu() {
        let mut rng = Pcg32::new(0x6f6f);
        for _ in 0..32 {
            let n = 3 + rng.below(8);
            let a = random_sparse(&mut rng, n);
            let c: Vec<f64> = (0..n).map(|_| rng.uniform_f64(-4.0, 4.0)).collect();
            let sparse = SparseLu::factor(&cols_of(&a), &mut never()).unwrap();
            let y = lu_solve(&sparse, &c, true);
            let dense = dense_solve(&a.transpose(), &c);
            for i in 0..n {
                let e = (y[i] - dense[i]).abs();
                let r: f64 =
                    (0..n).map(|ii| a[(ii, i)] * y[ii]).sum::<f64>() - c[i];
                assert!(e < 1e-6, "mismatch at {i}: err={e:e} resid={r:e}");
            }
        }
    }

    #[test]
    fn singular_matrix_is_reported() {
        // Second column identically zero.
        let cols: Vec<Vec<(usize, f64)>> = vec![vec![(0, 1.0)], vec![], vec![(2, 1.0)]];
        assert_eq!(
            SparseLu::factor(&cols, &mut never()).unwrap_err(),
            LuError::Singular
        );
    }

    #[test]
    fn poll_interrupts_factor_and_solves() {
        let a = random_sparse(&mut Pcg32::new(0x77), 6);
        assert_eq!(
            SparseLu::factor(&cols_of(&a), &mut || true).unwrap_err(),
            LuError::Interrupted
        );
        let lu = SparseLu::factor(&cols_of(&a), &mut never()).unwrap();
        let mut work = SolveWork::new();
        load(&mut work, &[1.0; 6]);
        assert_eq!(lu.solve(&mut work, &mut || true).unwrap_err(), LuError::Interrupted);
        assert!(work.is_clear());
        load(&mut work, &[1.0; 6]);
        assert_eq!(
            lu.solve_transpose(&mut work, &mut || true).unwrap_err(),
            LuError::Interrupted
        );
        assert!(work.is_clear());
    }

    /// Replace columns one at a time and check FTRAN/BTRAN against a dense
    /// factorization of the replaced matrix.
    #[test]
    fn eta_updates_track_column_replacement() {
        let mut rng = Pcg32::new(0x8a8a);
        let mut work = SolveWork::new();
        for _ in 0..16 {
            let n = 4 + rng.below(5);
            let mut a = random_sparse(&mut rng, n);
            let lu = SparseLu::factor(&cols_of(&a), &mut never()).unwrap();
            let mut basis = FactorizedBasis::new(lu);
            for _ in 0..3 {
                // New column: dominant on a random position to keep the
                // replaced matrix comfortably nonsingular.
                let pos = rng.below(n);
                let mut col = vec![0.0; n];
                col[pos] = rng.uniform_f64(4.0, 8.0);
                col[(pos + 1) % n] = rng.uniform_f64(-1.0, 1.0);
                load(&mut work, &col);
                basis.ftran(&mut work, &mut never()).unwrap();
                basis.replace_column(pos, &work.take_sorted()).unwrap();
                for i in 0..n {
                    a[(i, pos)] = col[i];
                }
                // FTRAN against dense solve of the updated matrix.
                let b: Vec<f64> = (0..n).map(|_| rng.uniform_f64(-3.0, 3.0)).collect();
                let x = basis_solve(&basis, &mut work, &b, false);
                let dense = dense_solve(&a, &b);
                for i in 0..n {
                    assert!((x[i] - dense[i]).abs() < 1e-7, "ftran mismatch at {i}");
                }
                // BTRAN against dense transpose solve.
                let c: Vec<f64> = (0..n).map(|_| rng.uniform_f64(-3.0, 3.0)).collect();
                let y = basis_solve(&basis, &mut work, &c, true);
                let dt = dense_solve(&a.transpose(), &c);
                for i in 0..n {
                    assert!((y[i] - dt[i]).abs() < 1e-7, "btran mismatch at {i}");
                }
            }
            assert_eq!(basis.eta_count(), 3);
            assert!(basis.eta_nnz() >= 3);
        }
    }

    #[test]
    fn replace_column_rejects_zero_pivot() {
        let a = random_sparse(&mut Pcg32::new(0x9b), 4);
        let lu = SparseLu::factor(&cols_of(&a), &mut never()).unwrap();
        let mut basis = FactorizedBasis::new(lu);
        assert_eq!(
            basis.replace_column(1, &[(0, 2.0), (2, 1.0)]).unwrap_err(),
            LuError::Singular
        );
    }

    /// A sparse column for position `j`: an entry of magnitude 4–8 at `j`
    /// and up to three off-position entries of magnitude below 1, so any
    /// matrix built from such columns is strictly column diagonally
    /// dominant, hence nonsingular.
    fn dominant_column(rng: &mut Pcg32, n: usize, j: usize) -> Vec<f64> {
        let mut col = vec![0.0; n];
        let sign = if rng.flip() { 1.0 } else { -1.0 };
        col[j] = sign * rng.uniform_f64(4.0, 8.0);
        for _ in 0..rng.below(4) {
            let i = rng.below(n);
            if i != j {
                col[i] = rng.uniform_f64(-1.0, 1.0);
            }
        }
        col
    }

    /// A basis of the revised simplex's shape: slack columns `−e_j`, with
    /// a share of sparse structural columns among them.
    fn slack_basis(rng: &mut Pcg32, n: usize) -> Matrix {
        let structural_in = 2 + rng.below(7);
        let mut a = Matrix::zeros(n, n);
        for j in 0..n {
            if rng.below(structural_in) == 0 {
                let col = dominant_column(rng, n, j);
                for i in 0..n {
                    a[(i, j)] = col[i];
                }
            } else {
                a[(j, j)] = -1.0;
            }
        }
        a
    }

    /// Replaces column `pos` of both `a` and `basis` by `col`.
    fn replace(
        a: &mut Matrix,
        basis: &mut FactorizedBasis<f64>,
        work: &mut SolveWork<f64>,
        pos: usize,
        col: &[f64],
    ) {
        load(work, col);
        basis.ftran(work, &mut never()).unwrap();
        basis.replace_column(pos, &work.take_sorted()).unwrap();
        assert!(work.is_clear(), "take_sorted left the scratch dirty");
        for (i, v) in col.iter().enumerate() {
            a[(i, pos)] = *v;
        }
    }

    /// A right-hand side with `k` nonzeros at random slots.
    fn sparse_rhs(rng: &mut Pcg32, n: usize, k: usize) -> Vec<f64> {
        let mut b = vec![0.0; n];
        for _ in 0..k {
            b[rng.below(n)] = rng.uniform_f64(-3.0, 3.0);
        }
        b
    }

    /// Kernel differential: on slack-dominated bases up to 300 rows with
    /// eta chains of up to 80 random column replacements, the hypersparse
    /// FTRAN and BTRAN of 1–5-nonzero right-hand sides equal the dense
    /// `Lu` solve of the replaced matrix. One scratch serves every solve,
    /// so a dirty slot left by any of them would show up in a later one.
    #[test]
    fn hypersparse_solves_match_the_dense_oracle_through_eta_chains() {
        let mut rng = Pcg32::new(0x4a11);
        let mut work = SolveWork::new();
        for trial in 0..24 {
            let n = if trial % 12 == 0 { 300 } else { 1 + rng.below(80) };
            let mut a = slack_basis(&mut rng, n);
            let lu = SparseLu::factor(&cols_of(&a), &mut never()).unwrap();
            let mut basis = FactorizedBasis::new(lu);
            let chain = rng.below(81);
            for step in 0..=chain {
                if step > 0 {
                    let pos = rng.below(n);
                    let col = dominant_column(&mut rng, n, pos);
                    replace(&mut a, &mut basis, &mut work, pos, &col);
                }
                if step != chain && step != chain / 2 {
                    continue;
                }
                let dense = Lu::factor(&a).unwrap();
                let dense_t = Lu::factor(&a.transpose()).unwrap();
                for _ in 0..3 {
                    let nonzeros = 1 + rng.below(5);
                    let b = sparse_rhs(&mut rng, n, nonzeros);
                    let x = basis_solve(&basis, &mut work, &b, false);
                    let y = basis_solve(&basis, &mut work, &b, true);
                    let dx = dense.solve(&Vector::from(b.clone())).unwrap();
                    let dy = dense_t.solve(&Vector::from(b.clone())).unwrap();
                    for i in 0..n {
                        assert!(
                            (x[i] - dx[i]).abs() < 1e-9,
                            "trial {trial}, n {n}, eta {step}: ftran slot {i}: {} vs {}",
                            x[i],
                            dx[i]
                        );
                        assert!(
                            (y[i] - dy[i]).abs() < 1e-9,
                            "trial {trial}, n {n}, eta {step}: btran slot {i}: {} vs {}",
                            y[i],
                            dy[i]
                        );
                    }
                }
            }
            assert_eq!(basis.eta_count(), chain);
        }
    }

    /// A poll that fires on its k-th call interrupts the solve for every
    /// k the solve reaches, leaves the scratch all zero, and the next
    /// uninterrupted solve through the same scratch returns exactly the
    /// result of one that was never interrupted.
    #[test]
    fn an_interrupt_at_any_poll_leaves_the_scratch_clear() {
        let mut rng = Pcg32::new(0x9011);
        let n = 300;
        let mut a = slack_basis(&mut rng, n);
        let lu = SparseLu::factor(&cols_of(&a), &mut never()).unwrap();
        let mut basis = FactorizedBasis::new(lu);
        let mut work = SolveWork::new();
        for _ in 0..80 {
            let pos = rng.below(n);
            let col = dominant_column(&mut rng, n, pos);
            replace(&mut a, &mut basis, &mut work, pos, &col);
        }
        let b = sparse_rhs(&mut rng, n, 120);
        for transpose in [false, true] {
            let expected = basis_solve(&basis, &mut work, &b, transpose);
            let mut polls = 0;
            load(&mut work, &b);
            let mut counting = || {
                polls += 1;
                false
            };
            if transpose {
                basis.btran(&mut work, &mut counting).unwrap();
            } else {
                basis.ftran(&mut work, &mut counting).unwrap();
            }
            assert_eq!(unload(&mut work, n), expected);
            assert!(polls >= 4, "only {polls} polls: the solve is too small to test");
            for k in 1..=polls {
                let mut calls = 0;
                let mut fires_at_k = || {
                    calls += 1;
                    calls == k
                };
                load(&mut work, &b);
                let interrupted = if transpose {
                    basis.btran(&mut work, &mut fires_at_k)
                } else {
                    basis.ftran(&mut work, &mut fires_at_k)
                };
                assert_eq!(interrupted, Err(LuError::Interrupted), "poll {k} of {polls}");
                assert!(work.is_clear(), "poll {k} of {polls} left the scratch dirty");
                assert_eq!(basis_solve(&basis, &mut work, &b, transpose), expected);
            }
        }
    }
}
