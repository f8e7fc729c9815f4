//! The revised simplex engine: pivots against a factorized sparse basis
//! instead of an eagerly substituted tableau.
//!
//! The constraint system is `A·x = 0` where each form row `r` contributes
//! `Σ c·x_v − s_r = 0`: problem-variable columns carry the form
//! coefficients, the slack column of row `r` is `−e_r`. The engine keeps
//! the basis header (`basis[pos]` = variable basic at position `pos`,
//! position ≡ constraint row) and a [`FactorizedBasis`]: a Markowitz-ordered
//! sparse LU of `A_B` plus a product-form eta chain, one eta per pivot
//! (Forrest–Tomlin-style bookkeeping). A pivot needs exactly one BTRAN (the
//! leaving row of the tableau, `row = −yᵀA_N` with `y = A_B⁻ᵀe_pos`) and
//! one FTRAN (the entering column `d = A_B⁻¹A_e`), then replaces a basis
//! column in O(|d|). The chain is dropped and the basis refactorized when
//! it outgrows [`RevisedCore::needs_refactor`]'s thresholds.
//!
//! All arithmetic is exact [`Rational`]/[`DeltaRational`], so the engine
//! reproduces the dense tableau's Bland's-rule trajectory bit-for-bit:
//! materialized rows have identical nonzero sets (exact zeros cancel and
//! are dropped) and identical coefficients, hence identical leaving/entering
//! picks, pivot counts, conflicts and Farkas certificates.
//!
//! Nonbasic assignment updates are *deferred*: `update_nonbasic` moves the
//! nonbasic value immediately but queues the basic-variable compensation,
//! which [`RevisedCore::settle_assignment`] later applies with a single
//! FTRAN of the accumulated column combination. Deferral is invisible to
//! the trajectory because the compensation map is linear and the basic
//! values are only read inside `check`, after the flush.
//!
//! Interrupt safety: factorizations build into a fresh object and solves
//! work on scratch vectors, so an exhausted budget at any poll site
//! (factor, FTRAN/BTRAN, eta application, or the pivot loop itself) leaves
//! the warm core consistent — pending updates stay queued and the next
//! check resumes where this one stopped.

use super::{
    add_to_row, conflict_from_row, find_violation, select_entering, SVar, Shared,
};
use crate::rational::{DeltaRational, Rational};
use crate::sat::TheoryResult;
use sta_linalg::{FactorizedBasis, LuError, SparseLu};
use std::collections::BTreeMap;

/// Basis bookkeeping owned by the revised engine. The abstract solver
/// state (assignment, bounds, forms, counters) lives in [`Shared`].
#[derive(Debug, Default, Clone)]
pub(crate) struct RevisedCore {
    /// `basis[pos]`: variable basic at position `pos` (≡ constraint row).
    basis: Vec<SVar>,
    /// Inverse of `basis`: `pos_of[v] = Some(pos)` iff `v` is basic.
    pos_of: Vec<Option<usize>>,
    /// LU factors + eta chain of the current basis; `None` before the
    /// first factorization.
    factor: Option<FactorizedBasis<Rational>>,
    /// Rows were appended since the factorization was built (the basis
    /// grew, so the factors have the wrong dimension).
    stale: bool,
    /// Deferred basic-variable compensation: `(var, Δ)` per nonbasic move
    /// not yet propagated through the basis.
    pending: Vec<(SVar, DeltaRational)>,
}

/// Maps a kernel failure at a check boundary: budget interrupts surface as
/// [`TheoryResult::Interrupted`]; a singular basis is impossible for the
/// bases this engine constructs (it starts from the nonsingular slack
/// basis `−I` and every replacement column has a nonzero pivot entry), so
/// it is a solver bug, never an input error.
fn fail(e: LuError) -> TheoryResult {
    match e {
        LuError::Interrupted => TheoryResult::Interrupted,
        LuError::Singular => panic!("revised simplex: singular basis (solver invariant violated)"),
    }
}

impl RevisedCore {
    /// Grows the per-variable tables to cover `n` solver variables.
    fn ensure_vars(&mut self, n: usize) {
        if self.pos_of.len() < n {
            self.pos_of.resize(n, None);
        }
    }

    /// Stored entries of the LU factors plus the eta chain (memory
    /// statistic; the constraint rows themselves are counted by the
    /// caller from `Shared::forms`).
    pub(crate) fn factor_entries(&self) -> usize {
        self.factor
            .as_ref()
            .map_or(0, |f| f.lu_nnz() + f.eta_nnz())
    }

    pub(crate) fn is_basic(&self, var: SVar) -> bool {
        self.pos_of.get(var).is_some_and(|p| p.is_some())
    }

    /// Installs form row `ridx` (already appended to `sh.forms`): its slack
    /// enters the basis at the new position and the factorization becomes
    /// stale (wrong dimension) until the next refactorization.
    pub(crate) fn add_row(&mut self, sh: &Shared, ridx: usize) {
        self.ensure_vars(sh.assignment.len());
        let s = sh.slack_of_row[ridx];
        debug_assert_eq!(ridx, self.basis.len(), "basis positions follow form order");
        self.pos_of[s] = Some(ridx);
        self.basis.push(s);
        self.stale = true;
    }

    /// Sets nonbasic `var` to `value`. The basic-variable compensation is
    /// queued, not applied: callers outside `check` never read basic `β`
    /// values, and `check` flushes the queue before its first scan.
    pub(crate) fn update_nonbasic(&mut self, sh: &mut Shared, var: SVar, value: DeltaRational) {
        self.ensure_vars(sh.assignment.len());
        let diff = &value - &sh.assignment[var];
        sh.assignment[var] = value;
        if diff.is_zero() {
            return;
        }
        // Variables absent from the constraint matrix touch no basic var.
        if sh.row_of_slack[var].is_some() || !sh.form_cols[var].is_empty() {
            self.pending.push((var, diff));
        }
    }

    /// The constraint-matrix column of `var`, as sparse `(row, coeff)`
    /// entries in ascending row order: `−e_r` for the slack of row `r`,
    /// the form coefficients for a problem variable.
    fn column_of(&self, sh: &Shared, var: SVar) -> Vec<(usize, Rational)> {
        if let Some(r) = sh.row_of_slack[var] {
            return vec![(r, -&Rational::one())];
        }
        let mut col = Vec::with_capacity(sh.form_cols[var].len());
        for &r in &sh.form_cols[var] {
            for (v, c) in &sh.forms[r] {
                if *v == var {
                    col.push((r, c.clone()));
                    break;
                }
            }
        }
        col
    }

    /// Builds fresh LU factors of the current basis, dropping any eta
    /// chain. Interrupt-safe: the factorization builds into a fresh object
    /// and the old factors stay installed until it succeeds.
    fn refactor(
        &mut self,
        sh: &mut Shared,
        poll: &mut dyn FnMut() -> bool,
    ) -> Result<(), LuError> {
        let t0 = sh.timer_start();
        let cols: Vec<Vec<(usize, Rational)>> =
            self.basis.iter().map(|&v| self.column_of(sh, v)).collect();
        let lu = SparseLu::factor(&cols, poll)?;
        self.factor = Some(FactorizedBasis::new(lu));
        self.stale = false;
        sh.refactorizations += 1;
        sh.factor_time += sh.timer_since(t0);
        Ok(())
    }

    /// Eta-chain growth policy: refactorize once the chain is longer than
    /// `max(64, m/4)` etas or its fill exceeds `4·lu_nnz + m` entries —
    /// past that point replaying the chain costs more than a fresh
    /// Markowitz factorization of the (slack-dominated, near-triangular)
    /// basis.
    fn needs_refactor(&self) -> bool {
        let m = self.basis.len();
        match &self.factor {
            None => true,
            Some(f) => {
                self.stale
                    || f.eta_count() > 64.max(m / 4)
                    || f.eta_nnz() > 4 * f.lu_nnz() + m
            }
        }
    }

    /// Applies the deferred basic-variable compensation with one FTRAN:
    /// `Δβ_B = −A_B⁻¹·(Σ A_v·Δv)` keeps every constraint row satisfied.
    fn flush_pending(
        &mut self,
        sh: &mut Shared,
        poll: &mut dyn FnMut() -> bool,
    ) -> Result<(), LuError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let m = self.basis.len();
        let mut rhs: Vec<DeltaRational> = vec![DeltaRational::zero(); m];
        for (v, diff) in &self.pending {
            for (r, c) in self.column_of(sh, *v) {
                rhs[r] = &rhs[r] + &diff.scale(&c);
            }
        }
        let Some(factor) = self.factor.as_ref() else {
            return Err(LuError::Singular);
        };
        let d = factor.ftran(rhs, poll)?;
        for (k, dk) in d.iter().enumerate() {
            if dk.is_zero() {
                continue;
            }
            let b = self.basis[k];
            sh.assignment[b] = &sh.assignment[b] - dk;
        }
        self.pending.clear();
        Ok(())
    }

    /// Refactorizes if needed, then flushes deferred assignment updates.
    fn prepare(
        &mut self,
        sh: &mut Shared,
        poll: &mut dyn FnMut() -> bool,
    ) -> Result<(), LuError> {
        if self.needs_refactor() {
            self.refactor(sh, poll)?;
        }
        self.flush_pending(sh, poll)
    }

    /// Brings `β` fully up to date outside a check (called before a new
    /// row's slack value is derived from basic entries). Runs without a
    /// budget: row installation is part of encoding, which is not
    /// deadline-polled.
    pub(crate) fn settle_assignment(&mut self, sh: &mut Shared) {
        if self.pending.is_empty() {
            return;
        }
        if let Err(e) = self.prepare(sh, &mut || false) {
            // The poll never fires, so the only failure is a singular
            // basis; `fail` diverges on it.
            fail(e);
        }
    }

    /// Materializes tableau row `pos` (`x_b = Σ coeff·x_nonbasic`) with one
    /// BTRAN: `y = A_B⁻ᵀe_pos`, then the coefficient of nonbasic `v` is
    /// `−yᵀA_v` — `+y_r` for the slack of row `r`, `−Σ y_r·c` for a problem
    /// variable. Basic variables are skipped (their coefficients cancel to
    /// exact zero) and exact-zero sums are dropped, so the materialized row
    /// has the same entry set the dense engine stores.
    fn tableau_row(
        &self,
        sh: &Shared,
        pos: usize,
        poll: &mut dyn FnMut() -> bool,
    ) -> Result<BTreeMap<SVar, Rational>, LuError> {
        let m = self.basis.len();
        let mut e = vec![Rational::zero(); m];
        e[pos] = Rational::one();
        let Some(factor) = self.factor.as_ref() else {
            return Err(LuError::Singular);
        };
        let y = factor.btran(e, poll)?;
        let mut row = BTreeMap::new();
        for (r, yr) in y.iter().enumerate() {
            if yr.is_zero() {
                continue;
            }
            let s = sh.slack_of_row[r];
            if !self.is_basic(s) {
                add_to_row(&mut row, s, yr);
            }
            for (v, c) in &sh.forms[r] {
                if !self.is_basic(*v) {
                    add_to_row(&mut row, *v, &-&(yr * c));
                }
            }
        }
        Ok(row)
    }

    /// The revised `pivotAndUpdate`: one FTRAN for the entering column
    /// `d = A_B⁻¹A_e`, the β updates of the dense engine (tableau
    /// coefficient of `entering` in basis row `k` is `−d_k`), then an
    /// O(|d|) basis-column replacement appending one eta. The FTRAN is the
    /// only fallible step and precedes every mutation.
    fn pivot_and_update(
        &mut self,
        sh: &mut Shared,
        pos: usize,
        entering: SVar,
        target: DeltaRational,
        poll: &mut dyn FnMut() -> bool,
    ) -> Result<(), LuError> {
        let m = self.basis.len();
        let mut rhs: Vec<Rational> = vec![Rational::zero(); m];
        for (r, c) in self.column_of(sh, entering) {
            rhs[r] = c;
        }
        let Some(factor) = self.factor.as_mut() else {
            return Err(LuError::Singular);
        };
        let d = factor.ftran(rhs, poll)?;
        if d[pos].is_zero() {
            return Err(LuError::Singular);
        }
        sh.pivots += 1;
        let leaving = self.basis[pos];
        // Tableau coefficient of `entering` in the leaving row: a = −d[pos].
        let a = -&d[pos];
        // θ = (target − β[leaving]) / a
        let theta = (&target - &sh.assignment[leaving]).scale(&a.recip());
        sh.assignment[leaving] = target;
        sh.assignment[entering] = &sh.assignment[entering] + &theta;
        let mut sparse_d: Vec<(usize, Rational)> = Vec::new();
        for (k, dk) in d.into_iter().enumerate() {
            if dk.is_zero() {
                continue;
            }
            if k != pos {
                // Row k's coefficient of `entering` is −d_k.
                let b = self.basis[k];
                sh.assignment[b] = &sh.assignment[b] + &theta.scale(&-&dk);
            }
            sparse_d.push((k, dk));
        }
        factor.replace_column(pos, &sparse_d)?;
        self.pos_of[leaving] = None;
        self.pos_of[entering] = Some(pos);
        self.basis[pos] = entering;
        Ok(())
    }

    /// Restores every *nonbasic* variable to within its bounds (needed
    /// after backtracking, which rewinds bounds but not `β`).
    fn repair_nonbasic(&mut self, sh: &mut Shared) {
        for v in 0..sh.assignment.len() {
            if self.is_basic(v) {
                continue;
            }
            let lb = sh.lower[v].as_ref().map(|b| b.value.clone());
            let ub = sh.upper[v].as_ref().map(|b| b.value.clone());
            if let Some(l) = &lb {
                if sh.assignment[v] < *l {
                    self.update_nonbasic(sh, v, l.clone());
                    continue;
                }
            }
            if let Some(u) = &ub {
                if sh.assignment[v] > *u {
                    self.update_nonbasic(sh, v, u.clone());
                }
            }
        }
    }

    /// Audits the revised engine's invariants on top of the shared ones:
    /// `basis`/`pos_of` agree and no deferred updates are outstanding at a
    /// pivot boundary.
    #[cfg(feature = "certify-debug")]
    fn audit_invariants(&self, sh: &Shared) {
        assert!(self.pending.is_empty(), "audit with pending β updates");
        for (pos, &v) in self.basis.iter().enumerate() {
            assert_eq!(self.pos_of[v], Some(pos), "pos_of[{v}] inconsistent");
        }
        super::audit_shared_invariants(sh, &|v| self.is_basic(v));
    }

    /// The main `Check()` loop on the factorized basis: identical control
    /// flow to the dense engine, with the leaving row materialized by BTRAN
    /// on demand instead of read from a stored tableau.
    pub(crate) fn check(&mut self, sh: &mut Shared) -> TheoryResult {
        sh.theory_checks += 1;
        self.ensure_vars(sh.assignment.len());
        self.repair_nonbasic(sh);
        // Kernel-level poll, threaded through factorization, FTRAN/BTRAN
        // and eta application so deep solves on large bases stay
        // interruptible between pivot boundaries.
        let kernel_budget = sh.budget.clone();
        let kernel_limited = kernel_budget.is_limited();
        let mut poll = move || kernel_limited && kernel_budget.exhausted().is_some();
        let prepared = self.prepare(sh, &mut poll);
        if let Err(e) = prepared {
            return fail(e);
        }
        #[cfg(feature = "certify-debug")]
        self.audit_invariants(sh);
        let limited = sh.budget.is_limited();
        let mut iters = 0u64;
        loop {
            // Pivot-boundary budget poll, mirroring the dense engine; the
            // first iteration checks so an already-expired deadline never
            // pivots at all.
            if limited && iters & 15 == 0 && sh.budget.exhausted().is_some() {
                return TheoryResult::Interrupted;
            }
            iters += 1;
            let violation = find_violation(sh, self.basis.iter().copied().enumerate());
            let Some((pos, xb, below, target)) = violation else {
                return TheoryResult::Ok;
            };
            let row = match self.tableau_row(sh, pos, &mut poll) {
                Ok(row) => row,
                Err(e) => return fail(e),
            };
            let entering = select_entering(sh, row.iter().map(|(&v, c)| (v, c)), below);
            match entering {
                Some(xn) => {
                    if let Err(e) = self.pivot_and_update(sh, pos, xn, target, &mut poll) {
                        return fail(e);
                    }
                    if self.needs_refactor() {
                        if let Err(e) = self.refactor(sh, &mut poll) {
                            return fail(e);
                        }
                    }
                    #[cfg(feature = "certify-debug")]
                    self.audit_invariants(sh);
                }
                None => {
                    return conflict_from_row(
                        sh,
                        row.iter().map(|(&v, c)| (v, c)),
                        xb,
                        below,
                    );
                }
            }
        }
    }
}
