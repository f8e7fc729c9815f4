//! The eager dense tableau engine: every row is kept fully substituted
//! (rows mention only nonbasic variables) and each pivot rewrites all rows
//! touching the entering variable. This is the original engine and the
//! equivalence oracle for the revised backend — both must produce the same
//! Bland's-rule pivot trajectory in exact arithmetic.

use super::{
    add_to_row, conflict_from_row, find_violation, select_entering, SVar, Shared,
};
use crate::rational::{DeltaRational, Rational};
use crate::sat::TheoryResult;
use std::collections::BTreeMap;

/// Tableau state owned by the dense engine. The abstract solver state
/// (assignment, bounds, counters) lives in [`Shared`].
#[derive(Debug, Default, Clone)]
pub(crate) struct DenseCore {
    /// Tableau rows: `rows[r]` defines `basic[r] = Σ coeff·nonbasic`.
    rows: Vec<BTreeMap<SVar, Rational>>,
    /// Basic variable of each row.
    basic: Vec<SVar>,
    /// `row_of[v] = Some(r)` iff `v` is basic in row `r`.
    row_of: Vec<Option<usize>>,
    /// `cols[v]`: rows whose right-hand side mentions `v` (v nonbasic).
    cols: Vec<Vec<usize>>,
}

impl DenseCore {
    /// Grows the per-variable tables to cover `n` solver variables.
    fn ensure_vars(&mut self, n: usize) {
        if self.row_of.len() < n {
            self.row_of.resize(n, None);
            self.cols.resize(n, Vec::new());
        }
    }

    /// Total number of stored tableau entries.
    pub(crate) fn tableau_entries(&self) -> usize {
        self.rows.iter().map(|r| r.len()).sum()
    }

    pub(crate) fn is_basic(&self, var: SVar) -> bool {
        self.row_of.get(var).is_some_and(|r| r.is_some())
    }

    /// Installs form row `ridx` (already appended to `sh.forms`) as a
    /// tableau row, substituting any variables that are already basic so
    /// the row mentions only nonbasic variables. Dense row indices coincide
    /// with form indices: rows are appended in form order and pivots only
    /// change which variable is basic, never the row's position.
    pub(crate) fn add_row(&mut self, sh: &mut Shared, ridx: usize) {
        self.ensure_vars(sh.assignment.len());
        let s = sh.slack_of_row[ridx];
        let mut row: BTreeMap<SVar, Rational> = BTreeMap::new();
        for (v, c) in &sh.forms[ridx] {
            if let Some(r) = self.row_of[*v] {
                let sub = self.rows[r].clone();
                for (w, cw) in sub {
                    add_to_row(&mut row, w, &(c * &cw));
                }
            } else {
                add_to_row(&mut row, *v, c);
            }
        }
        debug_assert_eq!(ridx, self.rows.len(), "dense rows follow form order");
        for &v in row.keys() {
            self.cols[v].push(ridx);
        }
        self.rows.push(row);
        self.basic.push(s);
        self.row_of[s] = Some(ridx);
    }

    /// Sets nonbasic `var` to `value`, updating every dependent basic var.
    pub(crate) fn update_nonbasic(&mut self, sh: &mut Shared, var: SVar, value: DeltaRational) {
        self.ensure_vars(sh.assignment.len());
        let diff = &value - &sh.assignment[var];
        // cols[var] may contain stale row indices from pivoting; filter by
        // membership.
        let rows_touching: Vec<usize> = self.cols[var].clone();
        for r in rows_touching {
            if let Some(c) = self.rows[r].get(&var) {
                let b = self.basic[r];
                sh.assignment[b] = &sh.assignment[b] + &diff.scale(c);
            }
        }
        sh.assignment[var] = value;
    }

    /// Pivots basic variable of row `r` with nonbasic `entering`, then sets
    /// the (now nonbasic) former basic variable so the leaving variable's
    /// violated bound becomes satisfied: standard `pivotAndUpdate`.
    fn pivot_and_update(&mut self, sh: &mut Shared, r: usize, entering: SVar, target: DeltaRational) {
        sh.pivots += 1;
        let leaving = self.basic[r];
        let a = self.rows[r].get(&entering).cloned().expect("entering in row");
        // θ = (target − β[leaving]) / a
        let theta = (&target - &sh.assignment[leaving]).scale(&a.recip());
        // β updates: leaving gets target; entering moves by θ; every other
        // basic row containing `entering` moves by its coefficient times θ.
        sh.assignment[leaving] = target;
        sh.assignment[entering] = &sh.assignment[entering] + &theta;
        let touching: Vec<usize> = self.cols[entering].clone();
        for rr in touching {
            if rr == r {
                continue;
            }
            if let Some(c) = self.rows[rr].get(&entering) {
                let b = self.basic[rr];
                sh.assignment[b] = &sh.assignment[b] + &theta.scale(c);
            }
        }
        self.pivot(sh, r, entering);
    }

    /// Row `r`: `leaving = Σ coeffs·nonbasic` with `entering` among them.
    /// Re-solves for `entering` and substitutes into all other rows.
    fn pivot(&mut self, sh: &mut Shared, r: usize, entering: SVar) {
        let leaving = self.basic[r];
        let mut row = std::mem::take(&mut self.rows[r]);
        let a = row.remove(&entering).expect("entering coefficient");
        // entering = (leaving − Σ rest) / a
        let inv = a.recip();
        let mut new_row: BTreeMap<SVar, Rational> = BTreeMap::new();
        new_row.insert(leaving, inv.clone());
        for (v, c) in row {
            new_row.insert(v, -&(&c * &inv));
        }
        // Column bookkeeping for the rewritten row.
        for (&v, _) in &new_row {
            if !self.cols[v].contains(&r) {
                self.cols[v].push(r);
            }
        }
        self.rows[r] = new_row;
        self.basic[r] = entering;
        self.row_of[leaving] = None;
        self.row_of[entering] = Some(r);

        // Substitute `entering` out of every other row.
        let touching: Vec<usize> = self.cols[entering].clone();
        for rr in touching {
            if rr == r {
                continue;
            }
            let Some(c) = self.rows[rr].remove(&entering) else {
                continue;
            };
            let expansion = self.rows[r].clone();
            for (v, cv) in expansion {
                let coeff = &c * &cv;
                let row_rr = &mut self.rows[rr];
                add_to_row(row_rr, v, &coeff);
                if row_rr.contains_key(&v) && !self.cols[v].contains(&rr) {
                    self.cols[v].push(rr);
                }
            }
        }
        // `entering` now only appears as basic of row r; clear its column.
        self.cols[entering].clear();
        // Occasionally compact stale column entries to bound memory.
        if sh.pivots % 256 == 0 {
            self.rebuild_cols();
        }
    }

    fn rebuild_cols(&mut self) {
        for col in &mut self.cols {
            col.clear();
        }
        for (r, row) in self.rows.iter().enumerate() {
            for &v in row.keys() {
                self.cols[v].push(r);
            }
        }
    }

    /// Restores every *nonbasic* variable to within its bounds (needed after
    /// backtracking, which rewinds bounds but not `β`).
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

    /// Audits the dense tableau invariants on top of the shared ones:
    /// `basic`/`row_of` agree, no row mentions its own basic variable, and
    /// every row identity holds under `β`.
    #[cfg(feature = "certify-debug")]
    fn audit_invariants(&self, sh: &Shared) {
        for (r, row) in self.rows.iter().enumerate() {
            let b = self.basic[r];
            assert_eq!(self.row_of[b], Some(r), "basic var {b} points to row {r}");
            assert!(!row.contains_key(&b), "row {r} mentions its own basic var");
            // Row consistency: β[basic] = Σ c·β[nonbasic].
            let rhs = row.iter().fold(DeltaRational::zero(), |acc, (v, c)| {
                &acc + &sh.assignment[*v].scale(c)
            });
            assert!(sh.assignment[b] == rhs, "row {r} violated: β[{b}] ≠ Σ c·β");
        }
        for (v, r) in self.row_of.iter().enumerate() {
            if let Some(r) = r {
                assert_eq!(self.basic[*r], v, "row_of[{v}] inconsistent");
            }
        }
        super::audit_shared_invariants(sh, &|v| self.is_basic(v));
    }

    /// The main `Check()` loop: Bland's rule pivoting until all basic
    /// variables respect their bounds, or a row proves infeasibility.
    pub(crate) fn check(&mut self, sh: &mut Shared) -> TheoryResult {
        sh.theory_checks += 1;
        self.ensure_vars(sh.assignment.len());
        self.repair_nonbasic(sh);
        #[cfg(feature = "certify-debug")]
        self.audit_invariants(sh);
        let limited = sh.budget.is_limited();
        let mut iters = 0u64;
        loop {
            // Pivot-boundary budget poll: a clock read per 16 iterations is
            // noise next to a tableau scan, and the first iteration checks
            // so an already-expired deadline never pivots at all.
            if limited && iters & 15 == 0 && sh.budget.exhausted().is_some() {
                return TheoryResult::Interrupted;
            }
            iters += 1;
            // Leaving: smallest-index basic variable violating a bound.
            let violation =
                find_violation(sh, self.basic.iter().copied().enumerate());
            let Some((r, xb, below, target)) = violation else {
                return TheoryResult::Ok;
            };
            // Entering: smallest-index nonbasic that can move xb toward the
            // violated bound.
            let entering =
                select_entering(sh, self.rows[r].iter().map(|(&v, c)| (v, c)), below);
            match entering {
                Some(xn) => {
                    self.pivot_and_update(sh, r, xn, target);
                    #[cfg(feature = "certify-debug")]
                    self.audit_invariants(sh);
                }
                None => {
                    return conflict_from_row(
                        sh,
                        self.rows[r].iter().map(|(&v, c)| (v, c)),
                        xb,
                        below,
                    );
                }
            }
        }
    }
}
