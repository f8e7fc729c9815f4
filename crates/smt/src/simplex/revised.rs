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
//! Per-check work follows what the check touches: the FTRAN/BTRAN kernels
//! are hypersparse and read back only nonzeros, repair visits only the
//! variables in `Shared::touched`, and Bland's leaving pick scans only
//! `Shared::candidates`, a superset of the violated basic variables.
//!
//! Interrupt safety: factorizations build into a fresh object and a solve
//! that stops early clears its scratch, so an exhausted budget at any poll
//! site (factor, FTRAN/BTRAN, eta application, or the pivot loop itself)
//! leaves the warm core consistent — pending updates stay queued and the
//! next check resumes where this one stopped.

use super::{
    add_to_row, conflict_from_row, leaving_at, select_entering, violated_side, SVar, Shared,
};
use crate::rational::{DeltaRational, Rational};
use crate::sat::TheoryResult;
use sta_linalg::{FactorizedBasis, LuError, SolveWork, SparseLu};
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
    /// Scratch of the pivot's FTRAN and the leaving row's BTRAN.
    work: SolveWork<Rational>,
    /// Scratch of the flush's delta-rational FTRAN.
    work_delta: SolveWork<Rational, DeltaRational>,
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

    /// Visits the constraint-matrix column of `var` as `(row, coeff)`
    /// entries in ascending row order: `−e_r` for the slack of row `r`,
    /// the form coefficients for a problem variable.
    fn for_column(sh: &Shared, var: SVar, mut f: impl FnMut(usize, &Rational)) {
        if let Some(r) = sh.row_of_slack[var] {
            f(r, &-&Rational::one());
            return;
        }
        for &r in &sh.form_cols[var] {
            if let Some((_, c)) = sh.forms[r].iter().find(|(v, _)| *v == var) {
                f(r, c);
            }
        }
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
        let cols: Vec<Vec<(usize, Rational)>> = self
            .basis
            .iter()
            .map(|&v| {
                let mut col = Vec::new();
                Self::for_column(sh, v, |r, c| col.push((r, c.clone())));
                col
            })
            .collect();
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
    /// Only the pending columns are scattered, and every basic variable
    /// the solve moves joins the candidate set.
    fn flush_pending(
        &mut self,
        sh: &mut Shared,
        poll: &mut dyn FnMut() -> bool,
    ) -> Result<(), LuError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let Some(factor) = self.factor.as_ref() else {
            return Err(LuError::Singular);
        };
        let work = &mut self.work_delta;
        for (v, diff) in &self.pending {
            Self::for_column(sh, *v, |r, c| {
                let slot = work.slot(r);
                *slot = &*slot + &diff.scale(c);
            });
        }
        factor.ftran(work, poll)?;
        for (k, dk) in work.iter() {
            let b = self.basis[k];
            sh.assignment[b] = &sh.assignment[b] - dk;
            sh.candidates.insert(b);
        }
        work.clear();
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
    /// variable — over the rows where `y` is nonzero. Basic variables are
    /// skipped (their coefficients cancel to exact zero) and exact-zero
    /// sums are dropped, so the materialized row has the same entry set
    /// the dense engine stores.
    fn tableau_row(
        &mut self,
        sh: &Shared,
        pos: usize,
        poll: &mut dyn FnMut() -> bool,
    ) -> Result<BTreeMap<SVar, Rational>, LuError> {
        let Some(factor) = self.factor.as_ref() else {
            return Err(LuError::Singular);
        };
        *self.work.slot(pos) = Rational::one();
        factor.btran(&mut self.work, poll)?;
        let is_basic = |v: SVar| self.pos_of[v].is_some();
        let mut row = BTreeMap::new();
        for (r, yr) in self.work.iter() {
            let s = sh.slack_of_row[r];
            if !is_basic(s) {
                add_to_row(&mut row, s, yr);
            }
            for (v, c) in &sh.forms[r] {
                if !is_basic(*v) {
                    add_to_row(&mut row, *v, &-&(yr * c));
                }
            }
        }
        self.work.clear();
        Ok(row)
    }

    /// The revised `pivotAndUpdate`: one FTRAN for the entering column
    /// `d = A_B⁻¹A_e`, the β updates of the dense engine (tableau
    /// coefficient of `entering` in basis row `k` is `−d_k`), then an
    /// O(|d|) basis-column replacement appending one eta. The FTRAN is the
    /// only fallible step and precedes every mutation. Every basic
    /// variable whose `β` moves, `entering` included, joins the candidate
    /// set.
    fn pivot_and_update(
        &mut self,
        sh: &mut Shared,
        pos: usize,
        entering: SVar,
        target: DeltaRational,
        poll: &mut dyn FnMut() -> bool,
    ) -> Result<(), LuError> {
        let Some(factor) = self.factor.as_mut() else {
            return Err(LuError::Singular);
        };
        let work = &mut self.work;
        Self::for_column(sh, entering, |r, c| *work.slot(r) = c.clone());
        factor.ftran(work, poll)?;
        let d = work.take_sorted();
        let Some(a) = d.iter().find(|(k, _)| *k == pos).map(|(_, dk)| -dk) else {
            return Err(LuError::Singular);
        };
        sh.pivots += 1;
        let leaving = self.basis[pos];
        // Tableau coefficient of `entering` in the leaving row: a = −d[pos].
        // θ = (target − β[leaving]) / a
        let theta = (&target - &sh.assignment[leaving]).scale(&a.recip());
        sh.assignment[leaving] = target;
        sh.assignment[entering] = &sh.assignment[entering] + &theta;
        sh.candidates.insert(entering);
        for (k, dk) in &d {
            if *k != pos {
                // Row k's coefficient of `entering` is −d_k.
                let b = self.basis[*k];
                sh.assignment[b] = &sh.assignment[b] + &theta.scale(&-dk);
                sh.candidates.insert(b);
            }
        }
        factor.replace_column(pos, &d)?;
        self.pos_of[leaving] = None;
        self.pos_of[entering] = Some(pos);
        self.basis[pos] = entering;
        Ok(())
    }

    /// Walks the variables whose bounds changed since the last check: a
    /// nonbasic one is restored to within its bounds (as the dense
    /// engine's full scan would), a basic one joins the candidate set.
    fn repair_touched(&mut self, sh: &mut Shared) {
        let mut touched = std::mem::take(&mut sh.touched);
        touched.drain(|v| {
            if self.is_basic(v) {
                sh.candidates.insert(v);
                return;
            }
            if let Some(below) = violated_side(sh, v) {
                let bound = if below { &sh.lower[v] } else { &sh.upper[v] };
                if let Some(value) = bound.as_ref().map(|b| b.value.clone()) {
                    self.update_nonbasic(sh, v, value);
                }
            }
        });
        sh.touched = touched;
    }

    /// Bland's leaving pick: the smallest violated member of the
    /// candidate set, which holds every violated basic variable; members
    /// found nonbasic or within bounds on the way are dropped.
    fn pick_leaving(&self, sh: &mut Shared) -> Option<(usize, SVar, bool, DeltaRational)> {
        let mut candidates = std::mem::take(&mut sh.candidates);
        let mut below = false;
        let xb = candidates.first_kept(|v| {
            let side = if self.is_basic(v) { violated_side(sh, v) } else { None };
            below = side == Some(true);
            side.is_some()
        });
        sh.candidates = candidates;
        let xb = xb?;
        leaving_at(sh, self.pos_of[xb]?, xb, below)
    }

    /// Audits the revised engine's invariants on top of the shared ones:
    /// `basis`/`pos_of` agree, no deferred updates are outstanding at a
    /// pivot boundary, every basic variable outside its bounds is in the
    /// candidate set, and the solve scratch is all zero.
    #[cfg(feature = "certify-debug")]
    fn audit_invariants(&self, sh: &Shared) {
        assert!(self.pending.is_empty(), "audit with pending β updates");
        for (pos, &v) in self.basis.iter().enumerate() {
            assert_eq!(self.pos_of[v], Some(pos), "pos_of[{v}] inconsistent");
            assert!(
                violated_side(sh, v).is_none() || sh.candidates.contains(v),
                "violated basic var {v} missing from the candidate set"
            );
        }
        assert!(self.work.is_clear(), "rational solve scratch left dirty");
        assert!(self.work_delta.is_clear(), "delta solve scratch left dirty");
        super::audit_shared_invariants(sh, &|v| self.is_basic(v));
    }

    /// The main `Check()` loop on the factorized basis: identical control
    /// flow to the dense engine, with the leaving row materialized by BTRAN
    /// on demand instead of read from a stored tableau.
    pub(crate) fn check(&mut self, sh: &mut Shared) -> TheoryResult {
        sh.theory_checks += 1;
        self.ensure_vars(sh.assignment.len());
        self.repair_touched(sh);
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
            let Some((pos, xb, below, target)) = self.pick_leaving(sh) else {
                // The exhaustive scan agrees: no basic variable is violated.
                #[cfg(feature = "certify-debug")]
                assert!(
                    super::find_violation(sh, self.basis.iter().copied().enumerate()).is_none(),
                    "candidate set missed a violated basic variable"
                );
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
