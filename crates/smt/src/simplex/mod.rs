//! General simplex decision procedure for quantifier-free linear real
//! arithmetic (QF_LRA), in the style of Dutertre and de Moura (CAV'06).
//!
//! The solver maintains linear equalities over *solver variables* (problem
//! variables plus slack variables, one per distinct linear form), a pair of
//! optional bounds per variable, and a candidate assignment `β` of
//! [`DeltaRational`]s. Strict bounds are represented exactly with the
//! infinitesimal `δ` component. It plugs into the CDCL core through the
//! [`Theory`] trait: asserted atom literals become bound updates, and
//! `check` restores the bound invariants by pivoting, reporting minimal
//! conflicting bound sets as explanations.
//!
//! Pivoting uses Bland's rule (smallest-index selection for both leaving
//! and entering variables), which guarantees termination.
//!
//! # Backends
//!
//! Two tableau engines implement the pivot mechanics behind the one public
//! [`Simplex`] API:
//!
//! * the revised simplex on a factorized sparse basis ([`revised`]), the
//!   one engine every production check runs, from its first row: the
//!   constraint rows stay in their original sparse form, the basis matrix
//!   is LU-factored (Markowitz-ordered, exact rational arithmetic) and
//!   each pivot appends a product-form eta vector, with FTRAN/BTRAN solves
//!   materializing only the single tableau row and column a pivot needs;
//! * the eager dense tableau ([`dense`]), the original engine, kept only
//!   as the equivalence oracle: every row is kept substituted at all
//!   times and pivots rewrite the whole tableau. Tests and the scale
//!   suite's A/B rungs reach it through [`SimplexMode::Dense`].
//!
//! Both backends follow the *identical* abstract trajectory — the same
//! Bland's-rule pivot sequence over the same mathematical tableau, in exact
//! arithmetic — so verdicts, models, conflict explanations and the
//! deterministic counters (`pivots`, `bound_asserts`, `theory_checks`) are
//! bit-for-bit equal across backends; only wall-clock observability (and
//! the `refactorizations` counter, which is zero for the dense engine)
//! differs.

mod dense;
mod revised;

use crate::budget::Budget;
use crate::certify::{AtomSemantics, TheoryContext};
use crate::expr::{LinExpr, RealVar};
use crate::profile::Clock;
use crate::rational::{DeltaRational, Rational};
use crate::sat::proof::FarkasCertificate;
use crate::sat::{Lit, SatVar, Theory, TheoryResult};
use dense::DenseCore;
use revised::RevisedCore;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::time::Duration;

/// Internal solver-variable index (problem variables and slacks).
pub(crate) type SVar = usize;

/// Which tableau engine a [`Simplex`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimplexMode {
    /// The dense eager tableau: the equivalence oracle, pinned only by
    /// tests and the scale suite's A/B rungs.
    Dense,
    /// The revised simplex on a factorized sparse basis: the one
    /// production engine, and the default.
    #[default]
    Revised,
}

/// Which side of a variable a bound constrains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BoundKind {
    Lower,
    Upper,
}

/// A bound imposed by an asserted literal.
#[derive(Debug, Clone)]
pub(crate) struct Bound {
    pub(crate) value: DeltaRational,
    /// The literal whose assertion installed this bound (explanation term).
    pub(crate) lit: Lit,
}

/// Undo record for one bound overwrite.
#[derive(Debug, Clone)]
struct Undo {
    var: SVar,
    kind: BoundKind,
    previous: Option<Bound>,
}

/// How an atom constrains its variable when its SAT literal is *true*.
///
/// The positive phase is always an upper bound `var ≤ value` (strict or
/// not); the negative phase is the complementary lower bound. Lower-bound
/// atoms from the input are normalized into this form by flipping polarity
/// at registration time.
#[derive(Debug, Clone)]
struct AtomBinding {
    var: SVar,
    bound: Rational,
    strict: bool,
}

/// Backend-independent solver state: the candidate assignment, bounds,
/// original constraint rows, atom bindings and counters. Both tableau
/// engines operate on this through a mutable borrow, keeping the abstract
/// Dutertre–de Moura state in exactly one place.
#[derive(Debug, Default, Clone)]
pub(crate) struct Shared {
    /// `β`: the candidate assignment.
    pub(crate) assignment: Vec<DeltaRational>,
    pub(crate) lower: Vec<Option<Bound>>,
    pub(crate) upper: Vec<Option<Bound>>,
    /// Original constraint rows, append-only and never rewritten:
    /// `forms[r]` holds the problem-variable expansion of slack `r`, i.e.
    /// `slack_of_row[r] = Σ coeff·var`.
    pub(crate) forms: Vec<Vec<(SVar, Rational)>>,
    /// Defining slack variable of each form row.
    pub(crate) slack_of_row: Vec<SVar>,
    /// Inverse of `slack_of_row`: `row_of_slack[v] = Some(r)` iff solver
    /// variable `v` is the slack defined by form row `r`.
    pub(crate) row_of_slack: Vec<Option<usize>>,
    /// `form_cols[v]`: form rows whose expansion mentions problem var `v`
    /// (the sparse column structure of the constraint matrix).
    pub(crate) form_cols: Vec<Vec<usize>>,
    /// Map from SAT atom variable to its bound semantics.
    atoms: HashMap<SatVar, AtomBinding>,
    /// Map from problem [`RealVar`] index to solver variable.
    real_vars: Vec<SVar>,
    /// Dedup of slack variables by normalized linear form.
    slack_by_form: HashMap<Vec<(SVar, Rational)>, SVar>,
    /// Per-decision-level undo stacks.
    trail: Vec<Vec<Undo>>,
    /// Number of pivots performed (statistics).
    pub(crate) pivots: u64,
    /// Number of bound assertions received from the SAT core (statistics).
    pub(crate) bound_asserts: u64,
    /// Number of full consistency checks run (statistics).
    pub(crate) theory_checks: u64,
    /// Number of basis refactorizations (revised engine only; the dense
    /// tableau never factors). Observational — kept out of the
    /// deterministic phase metrics because it differs across backends.
    pub(crate) refactorizations: u64,
    /// Farkas certificate for the most recent conflict, consumed by proof
    /// logging through [`Theory::take_certificate`].
    pub(crate) last_certificate: Option<FarkasCertificate>,
    /// Deadline / cancellation budget polled in the pivot loop.
    pub(crate) budget: Budget,
    /// The clock [`Simplex::check_time`] and [`Simplex::factor_time`]
    /// read, installed by the span profiler (which attaches them as leaves
    /// under the search span); `None` leaves both at zero.
    pub(crate) timing: Option<Clock>,
    /// Time inside [`Theory::check`], refactorizations included.
    pub(crate) check_time: Duration,
    /// Time in basis refactorizations (revised engine only; the dense
    /// tableau never factors).
    pub(crate) factor_time: Duration,
    /// Variables whose bounds changed since the last revised check:
    /// `assert_bound` and `on_backtrack` feed it, root-level bounds
    /// included. The revised check repairs only these.
    pub(crate) touched: VarSet,
    /// Basic variables whose `β` or bounds moved: at every pivot boundary
    /// of the revised engine, a superset of the basic variables outside
    /// their bounds. Members that are nonbasic or back within bounds are
    /// dropped lazily by the leaving pick.
    pub(crate) candidates: VarSet,
}

impl Shared {
    fn new_svar(&mut self) -> SVar {
        let v = self.assignment.len();
        self.assignment.push(DeltaRational::zero());
        self.lower.push(None);
        self.upper.push(None);
        self.row_of_slack.push(None);
        self.form_cols.push(Vec::new());
        self.touched.grow(v + 1);
        self.candidates.grow(v + 1);
        v
    }

    /// A phase-timer start reading; `None` while timing is off.
    pub(crate) fn timer_start(&self) -> Option<Duration> {
        self.timing.as_ref().map(Clock::now)
    }

    /// Time since a [`Shared::timer_start`] reading (zero with timing off).
    pub(crate) fn timer_since(&self, start: Option<Duration>) -> Duration {
        match (&self.timing, start) {
            (Some(clock), Some(t)) => clock.now().saturating_sub(t),
            _ => Duration::ZERO,
        }
    }
}

/// A set of solver variables as a bitset that yields its members in
/// index order. Every word below `low` is zero, so ordered scans skip the
/// prefix already emptied. The set is sized as variables are created, so
/// inserting never allocates.
#[derive(Debug, Default, Clone)]
pub(crate) struct VarSet {
    words: Vec<u64>,
    low: usize,
}

impl VarSet {
    /// Makes room for variables `0..n`.
    fn grow(&mut self, n: usize) {
        let words = n.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
    }

    pub(crate) fn insert(&mut self, v: SVar) {
        self.words[v / 64] |= 1 << (v % 64);
        self.low = self.low.min(v / 64);
    }

    #[cfg(feature = "certify-debug")]
    pub(crate) fn contains(&self, v: SVar) -> bool {
        self.words.get(v / 64).is_some_and(|w| w & (1 << (v % 64)) != 0)
    }

    /// The smallest member that `keep` accepts, which stays a member;
    /// every smaller member is removed.
    pub(crate) fn first_kept(&mut self, mut keep: impl FnMut(SVar) -> bool) -> Option<SVar> {
        for w in self.low..self.words.len() {
            self.low = w;
            // analysis: no-poll(each turn removes one of a word's 64 bits)
            while self.words[w] != 0 {
                let v = w * 64 + self.words[w].trailing_zeros() as usize;
                if keep(v) {
                    return Some(v);
                }
                self.words[w] &= !(1 << (v % 64));
            }
        }
        self.low = self.words.len();
        None
    }

    /// Removes every member, handing each to `f` in ascending order.
    pub(crate) fn drain(&mut self, mut f: impl FnMut(SVar)) {
        for w in self.low..self.words.len() {
            let mut word = std::mem::take(&mut self.words[w]);
            // analysis: no-poll(each turn removes one of a word's 64 bits)
            while word != 0 {
                f(w * 64 + word.trailing_zeros() as usize);
                word &= word - 1;
            }
        }
        self.low = self.words.len();
    }
}

/// The tableau engine behind a [`Simplex`].
#[derive(Debug, Clone)]
enum Backend {
    Dense(DenseCore),
    /// Boxed: the solve scratch makes the revised core several times the
    /// dense one's size.
    Revised(Box<RevisedCore>),
}

impl Default for Backend {
    fn default() -> Self {
        Backend::Revised(Box::default())
    }
}

/// The simplex LRA theory solver.
///
/// Create one, register slack definitions and atoms while encoding the
/// formula, then hand it to [`crate::sat::CdclSolver::solve`].
///
/// `Clone` supports the template-and-clone incremental scheme of
/// [`crate::Solver`]: a tableau built during encoding (but never solved)
/// clones cheaply, and each clone is solved independently. Cloning a warm
/// solver also clones its basis factorization and eta chain, so warm
/// starts carry over to the revised engine unchanged.
#[derive(Debug, Default, Clone)]
pub struct Simplex {
    shared: Shared,
    backend: Backend,
}

impl Simplex {
    /// Creates an empty theory solver on the revised engine.
    pub fn new() -> Self {
        Simplex::default()
    }

    /// Creates an empty theory solver on the given engine.
    pub fn with_mode(mode: SimplexMode) -> Self {
        let backend = match mode {
            SimplexMode::Dense => Backend::Dense(DenseCore::default()),
            SimplexMode::Revised => Backend::Revised(Box::default()),
        };
        Simplex { shared: Shared::default(), backend }
    }

    /// Number of solver variables (problem + slack).
    pub fn num_vars(&self) -> usize {
        self.shared.assignment.len()
    }

    /// Number of constraint rows (slack definitions).
    pub fn num_rows(&self) -> usize {
        self.shared.forms.len()
    }

    /// Actual stored nonzeros of the active engine (memory statistic):
    /// tableau entries for the dense engine; constraint + LU factor + eta
    /// entries for the revised one.
    pub fn tableau_entries(&self) -> usize {
        match &self.backend {
            Backend::Dense(d) => d.tableau_entries(),
            Backend::Revised(r) => {
                let forms: usize = self.shared.forms.iter().map(|f| f.len()).sum();
                forms + r.factor_entries()
            }
        }
    }

    /// Number of pivot operations performed so far.
    pub fn pivots(&self) -> u64 {
        self.shared.pivots
    }

    /// Number of bound assertions received from the SAT core so far.
    pub fn bound_asserts(&self) -> u64 {
        self.shared.bound_asserts
    }

    /// Number of full consistency checks run so far.
    pub fn theory_checks(&self) -> u64 {
        self.shared.theory_checks
    }

    /// Number of basis refactorizations performed so far (always zero for
    /// the dense engine).
    pub fn refactorizations(&self) -> u64 {
        self.shared.refactorizations
    }

    /// Installs the budget polled by the pivot loop and the factorization
    /// and solve kernels. An exhausted budget makes [`Theory::check`]
    /// return [`TheoryResult::Interrupted`], which the SAT core converts
    /// into an `Unknown` outcome.
    pub fn set_budget(&mut self, budget: Budget) {
        self.shared.budget = budget;
    }

    /// Turns on [`Simplex::check_time`] and [`Simplex::factor_time`]
    /// accounting, read through `clock` (the profiler's, so simplex leaves
    /// and spans share one time source): two reads per theory check, plus
    /// two per refactorization.
    pub fn enable_timing(&mut self, clock: Clock) {
        self.shared.timing = Some(clock);
    }

    /// Accumulated time inside [`Theory::check`], refactorizations
    /// included; zero unless [`Simplex::enable_timing`] installed a clock.
    pub fn check_time(&self) -> Duration {
        self.shared.check_time
    }

    /// Accumulated time in basis refactorizations (always zero for the
    /// dense engine, and unless [`Simplex::enable_timing`] installed a
    /// clock).
    pub fn factor_time(&self) -> Duration {
        self.shared.factor_time
    }

    /// Ensures problem variable `rv` has a solver variable; returns it.
    pub fn solver_var(&mut self, rv: RealVar) -> SVar {
        let idx = rv.0 as usize;
        // analysis: no-poll(grows the variable table up to a fixed index)
        while self.shared.real_vars.len() <= idx {
            let sv = self.shared.new_svar();
            self.shared.real_vars.push(sv);
        }
        self.shared.real_vars[idx]
    }

    /// Returns the solver variable representing the variable part of `expr`
    /// (the constant term is ignored — callers fold it into bounds).
    ///
    /// Single-variable forms with unit coefficient map to the problem
    /// variable directly; anything else gets a (deduplicated) slack variable
    /// defined by a constraint row.
    pub fn var_for_form(&mut self, expr: &LinExpr) -> SVar {
        debug_assert!(!expr.is_constant(), "constant atoms fold in Formula::cmp");
        if expr.len() == 1 {
            if let Some((v, c)) = expr.iter().next() {
                if *c == Rational::one() {
                    return self.solver_var(v);
                }
            }
        }
        let form: Vec<(SVar, Rational)> = {
            let pairs: Vec<(RealVar, Rational)> =
                expr.iter().map(|(v, c)| (v, c.clone())).collect();
            pairs
                .into_iter()
                .map(|(v, c)| (self.solver_var(v), c))
                .collect()
        };
        if let Some(&s) = self.shared.slack_by_form.get(&form) {
            return s;
        }
        // The revised engine defers basic-variable assignment updates; any
        // backlog must land before a new row's slack value is derived from
        // basic β entries.
        if let Backend::Revised(r) = &mut self.backend {
            r.settle_assignment(&mut self.shared);
        }
        let s = self.shared.new_svar();
        let ridx = self.shared.forms.len();
        // β[s] must satisfy the new row under the current assignment.
        let val = form.iter().fold(DeltaRational::zero(), |acc, (v, c)| {
            &acc + &self.shared.assignment[*v].scale(c)
        });
        self.shared.assignment[s] = val;
        for (v, _) in &form {
            self.shared.form_cols[*v].push(ridx);
        }
        self.shared.forms.push(form.clone());
        self.shared.slack_of_row.push(s);
        self.shared.row_of_slack[s] = Some(ridx);
        self.shared.slack_by_form.insert(form, s);
        self.shared.candidates.insert(s);
        match &mut self.backend {
            Backend::Dense(d) => d.add_row(&mut self.shared, ridx),
            Backend::Revised(r) => r.add_row(&self.shared, ridx),
        }
        s
    }

    /// Registers a SAT atom variable: when `sat_var` is assigned true the
    /// constraint `var ≤ bound` (strict if `strict`) holds; when false, the
    /// complementary lower bound holds.
    pub fn register_atom(&mut self, sat_var: SatVar, var: SVar, bound: Rational, strict: bool) {
        self.shared.atoms.insert(sat_var, AtomBinding { var, bound, strict });
    }

    /// Computes a positive `ε` small enough that substituting it for `δ`
    /// keeps every asserted bound satisfied, then returns the concretized
    /// rational value of every problem variable.
    ///
    /// Call only after a successful solve (all bounds satisfied by `β`).
    pub fn concrete_model(&self) -> Vec<Rational> {
        let mut eps = Rational::one();
        let mut shrink = |gap_real: &Rational, gap_delta: &Rational| {
            // Constraint satisfied in delta order: gap_real + gap_delta·δ ≥ 0
            // with (gap_real, gap_delta) ≥lex 0. If gap_real > 0 but
            // gap_delta < 0, ε must stay ≤ gap_real / (−gap_delta).
            if gap_real.is_positive() && gap_delta.is_negative() {
                let limit = gap_real / &(-gap_delta);
                if limit < eps {
                    eps = limit;
                }
            }
        };
        for v in 0..self.shared.assignment.len() {
            let beta = &self.shared.assignment[v];
            if let Some(lb) = &self.shared.lower[v] {
                let gap = beta - &lb.value;
                shrink(&gap.value, &gap.delta);
            }
            if let Some(ub) = &self.shared.upper[v] {
                let gap = &ub.value - beta;
                shrink(&gap.value, &gap.delta);
            }
        }
        let half = &eps * &Rational::new(1, 2);
        self.shared
            .real_vars
            .iter()
            .map(|&sv| self.shared.assignment[sv].concretize(&half))
            .collect()
    }

    /// Exports the atom semantics needed to check Farkas certificates
    /// independently of the tableau: each registered SAT atom resolved to
    /// its bound and to the expansion of its solver variable over the
    /// *problem* variables (slack forms are recorded at creation time over
    /// problem variables only, so no tableau state is consulted).
    pub fn certificate_context(&self) -> TheoryContext {
        // Inverse of `real_vars`: solver variable → problem variable.
        let mut problem_var: HashMap<SVar, RealVar> = HashMap::new();
        for (i, &sv) in self.shared.real_vars.iter().enumerate() {
            problem_var.insert(sv, RealVar(i as u32));
        }
        // Slack expansions, mapped back into problem-variable space.
        let mut expansion: HashMap<SVar, Vec<(RealVar, Rational)>> = HashMap::new();
        for (form, &s) in &self.shared.slack_by_form {
            let terms = form
                .iter()
                .filter_map(|(sv, c)| {
                    problem_var.get(sv).map(|&rv| (rv, c.clone()))
                })
                .collect();
            expansion.insert(s, terms);
        }
        let mut atoms = HashMap::new();
        for (&sat_var, binding) in &self.shared.atoms {
            let terms = match problem_var.get(&binding.var) {
                Some(&rv) => vec![(rv, Rational::one())],
                None => expansion.get(&binding.var).cloned().unwrap_or_default(),
            };
            atoms.insert(
                sat_var,
                AtomSemantics {
                    expansion: terms,
                    bound: binding.bound.clone(),
                    strict: binding.strict,
                },
            );
        }
        TheoryContext { atoms }
    }

    fn assert_bound(
        &mut self,
        var: SVar,
        kind: BoundKind,
        value: DeltaRational,
        lit: Lit,
    ) -> TheoryResult {
        let sh = &mut self.shared;
        sh.bound_asserts += 1;
        match kind {
            BoundKind::Upper => {
                if let Some(ub) = &sh.upper[var] {
                    if value >= ub.value {
                        return TheoryResult::Ok; // not tighter
                    }
                }
                if let Some(lb) = &sh.lower[var] {
                    if value < lb.value {
                        let other = lb.lit;
                        sh.last_certificate = Some(FarkasCertificate {
                            terms: vec![(lit, Rational::one()), (other, Rational::one())],
                        });
                        return TheoryResult::Conflict(vec![lit, other]);
                    }
                }
                self.record_undo(var, BoundKind::Upper);
                self.shared.upper[var] = Some(Bound { value: value.clone(), lit });
                self.shared.touched.insert(var);
                if !self.is_basic(var) && self.shared.assignment[var] > value {
                    self.update_nonbasic(var, value);
                }
            }
            BoundKind::Lower => {
                if let Some(lb) = &sh.lower[var] {
                    if value <= lb.value {
                        return TheoryResult::Ok;
                    }
                }
                if let Some(ub) = &sh.upper[var] {
                    if value > ub.value {
                        let other = ub.lit;
                        sh.last_certificate = Some(FarkasCertificate {
                            terms: vec![(lit, Rational::one()), (other, Rational::one())],
                        });
                        return TheoryResult::Conflict(vec![lit, other]);
                    }
                }
                self.record_undo(var, BoundKind::Lower);
                self.shared.lower[var] = Some(Bound { value: value.clone(), lit });
                self.shared.touched.insert(var);
                if !self.is_basic(var) && self.shared.assignment[var] < value {
                    self.update_nonbasic(var, value);
                }
            }
        }
        TheoryResult::Ok
    }

    fn is_basic(&self, var: SVar) -> bool {
        match &self.backend {
            Backend::Dense(d) => d.is_basic(var),
            Backend::Revised(r) => r.is_basic(var),
        }
    }

    fn update_nonbasic(&mut self, var: SVar, value: DeltaRational) {
        match &mut self.backend {
            Backend::Dense(d) => d.update_nonbasic(&mut self.shared, var, value),
            Backend::Revised(r) => r.update_nonbasic(&mut self.shared, var, value),
        }
    }

    fn record_undo(&mut self, var: SVar, kind: BoundKind) {
        let previous = match kind {
            BoundKind::Lower => self.shared.lower[var].clone(),
            BoundKind::Upper => self.shared.upper[var].clone(),
        };
        if let Some(level) = self.shared.trail.last_mut() {
            level.push(Undo { var, kind, previous });
        }
        // At root level (empty trail) bounds are permanent.
    }
}

/// Finds the leaving candidate: the smallest-index basic variable violating
/// one of its bounds, given `(position, var)` pairs in position order.
/// Returns the position, the variable, whether it sits below its lower
/// bound, and the bound value to restore it to.
pub(crate) fn find_violation(
    sh: &Shared,
    basics: impl Iterator<Item = (usize, SVar)>,
) -> Option<(usize, SVar, bool, DeltaRational)> {
    let mut violation: Option<(usize, SVar, bool)> = None;
    for (pos, b) in basics {
        if let Some(below) = violated_side(sh, b) {
            match violation {
                Some((_, bv, _)) if bv <= b => {}
                _ => violation = Some((pos, b, below)),
            }
        }
    }
    let (pos, xb, below) = violation?;
    leaving_at(sh, pos, xb, below)
}

/// Which bound `v` violates under `β`: `Some(true)` when it sits below
/// its lower bound, `Some(false)` above its upper, `None` within both.
pub(crate) fn violated_side(sh: &Shared, v: SVar) -> Option<bool> {
    if matches!(&sh.lower[v], Some(lb) if sh.assignment[v] < lb.value) {
        Some(true)
    } else if matches!(&sh.upper[v], Some(ub) if sh.assignment[v] > ub.value) {
        Some(false)
    } else {
        None
    }
}

/// The leaving tuple of [`find_violation`] for basic `xb` at `pos`: the
/// bound value it is restored to.
pub(crate) fn leaving_at(
    sh: &Shared,
    pos: usize,
    xb: SVar,
    below: bool,
) -> Option<(usize, SVar, bool, DeltaRational)> {
    let target = if below { &sh.lower[xb] } else { &sh.upper[xb] };
    target.as_ref().map(|bound| (pos, xb, below, bound.value.clone()))
}

/// Bland's entering rule: the smallest-index nonbasic variable in the
/// leaving row that can move the basic variable toward its violated bound.
/// `row` supplies the tableau row's `(var, coeff)` entries in ascending
/// variable order.
pub(crate) fn select_entering<'a>(
    sh: &Shared,
    row: impl Iterator<Item = (SVar, &'a Rational)>,
    below: bool,
) -> Option<SVar> {
    let mut entering: Option<SVar> = None;
    for (xn, c) in row {
        let can_increase = match &sh.upper[xn] {
            Some(ub) => sh.assignment[xn] < ub.value,
            None => true,
        };
        let can_decrease = match &sh.lower[xn] {
            Some(lb) => sh.assignment[xn] > lb.value,
            None => true,
        };
        let usable = if below {
            // Need to raise xb.
            (c.is_positive() && can_increase) || (c.is_negative() && can_decrease)
        } else {
            // Need to lower xb.
            (c.is_positive() && can_decrease) || (c.is_negative() && can_increase)
        };
        if usable {
            match entering {
                Some(e) if e <= xn => {}
                _ => entering = Some(xn),
            }
        }
    }
    entering
}

/// Builds the conflict for an infeasible row: the explanation is the
/// violated bound of `xb` plus the blocking bound of every nonbasic in the
/// row. The same walk yields the Farkas certificate: λ = 1 on the violated
/// bound and λ = |c| on each blocking bound — the row identity
/// `xb = Σ c·xn` makes the weighted linear forms cancel while the weighted
/// bound values sum to a negative delta-rational.
pub(crate) fn conflict_from_row<'a>(
    sh: &mut Shared,
    row: impl Iterator<Item = (SVar, &'a Rational)>,
    xb: SVar,
    below: bool,
) -> TheoryResult {
    let mut expl = Vec::new();
    let mut terms = Vec::new();
    let violated = if below { &sh.lower[xb] } else { &sh.upper[xb] };
    debug_assert!(violated.is_some(), "violated bound exists");
    if let Some(bv) = violated {
        expl.push(bv.lit);
        terms.push((bv.lit, Rational::one()));
    }
    for (xn, c) in row {
        // Raising xb is blocked by the upper bound of positive-coefficient
        // vars and the lower bound of negative ones; mirrored when xb must
        // drop.
        let blocking = if below == c.is_positive() {
            &sh.upper[xn]
        } else {
            &sh.lower[xn]
        };
        debug_assert!(blocking.is_some(), "entering scan saw a bound");
        if let Some(bb) = blocking {
            expl.push(bb.lit);
            terms.push((bb.lit, c.abs()));
        }
    }
    sh.last_certificate = Some(FarkasCertificate { terms });
    expl.sort_unstable();
    expl.dedup();
    TheoryResult::Conflict(expl)
}

/// Audits the backend-independent invariants: every original constraint
/// row holds under `β`, bounds are delta-sane and uncrossed, and every
/// nonbasic variable sits within its bounds. Compiled only under the
/// `certify-debug` feature and called at pivot boundaries, where the
/// invariants must all hold.
///
/// # Panics
/// Panics on the first violated invariant — an audit failure is a solver
/// bug, never an input error.
#[cfg(feature = "certify-debug")]
pub(crate) fn audit_shared_invariants(sh: &Shared, is_basic: &dyn Fn(SVar) -> bool) {
    for (r, form) in sh.forms.iter().enumerate() {
        let s = sh.slack_of_row[r];
        let rhs = form.iter().fold(DeltaRational::zero(), |acc, (v, c)| {
            &acc + &sh.assignment[*v].scale(c)
        });
        assert!(sh.assignment[s] == rhs, "form row {r} violated: β[{s}] ≠ Σ c·β");
    }
    for v in 0..sh.assignment.len() {
        // Bound sanity in delta-rational order, and the strict-bound
        // representation convention: upper bounds carry δ ≤ 0, lower
        // bounds δ ≥ 0.
        if let Some(ub) = &sh.upper[v] {
            assert!(!ub.value.delta.is_positive(), "upper bound with +δ");
        }
        if let Some(lb) = &sh.lower[v] {
            assert!(!lb.value.delta.is_negative(), "lower bound with -δ");
        }
        if let (Some(lb), Some(ub)) = (&sh.lower[v], &sh.upper[v]) {
            assert!(lb.value <= ub.value, "crossed bounds on var {v}");
        }
        if !is_basic(v) {
            if let Some(lb) = &sh.lower[v] {
                assert!(sh.assignment[v] >= lb.value, "nonbasic {v} below lb");
            }
            if let Some(ub) = &sh.upper[v] {
                assert!(sh.assignment[v] <= ub.value, "nonbasic {v} above ub");
            }
        }
    }
}

pub(crate) fn add_to_row(row: &mut BTreeMap<SVar, Rational>, v: SVar, c: &Rational) {
    if c.is_zero() {
        return;
    }
    let entry = row.entry(v).or_default();
    let sum = &*entry + c;
    if sum.is_zero() {
        row.remove(&v);
    } else {
        *entry = sum;
    }
}

impl Theory for Simplex {
    fn on_new_level(&mut self) {
        self.shared.trail.push(Vec::new());
    }

    fn pivot_count(&self) -> u64 {
        self.shared.pivots
    }

    fn on_backtrack(&mut self, n_levels: usize) {
        for _ in 0..n_levels {
            let undos = self.shared.trail.pop().expect("backtrack within pushed levels");
            for undo in undos.into_iter().rev() {
                self.shared.touched.insert(undo.var);
                match undo.kind {
                    BoundKind::Lower => self.shared.lower[undo.var] = undo.previous,
                    BoundKind::Upper => self.shared.upper[undo.var] = undo.previous,
                }
            }
        }
    }

    fn on_assert(&mut self, lit: Lit) -> TheoryResult {
        let Some(binding) = self.shared.atoms.get(&lit.var()) else {
            return TheoryResult::Ok;
        };
        let AtomBinding { var, bound, strict } = binding.clone();
        if lit.is_positive() {
            // var ≤ bound (− δ if strict)
            let value = if strict {
                DeltaRational::with_delta(bound, Rational::new(-1, 1))
            } else {
                DeltaRational::real(bound)
            };
            self.assert_bound(var, BoundKind::Upper, value, lit)
        } else {
            // ¬(var ≤ bound) ⇔ var > bound; ¬(var < bound) ⇔ var ≥ bound.
            let value = if strict {
                DeltaRational::real(bound)
            } else {
                DeltaRational::with_delta(bound, Rational::one())
            };
            self.assert_bound(var, BoundKind::Lower, value, lit)
        }
    }

    fn check(&mut self) -> TheoryResult {
        let t0 = self.shared.timer_start();
        let result = match &mut self.backend {
            Backend::Dense(d) => d.check(&mut self.shared),
            Backend::Revised(r) => r.check(&mut self.shared),
        };
        self.shared.check_time += self.shared.timer_since(t0);
        result
    }

    fn take_certificate(&mut self) -> Option<FarkasCertificate> {
        self.shared.last_certificate.take()
    }
}

#[cfg(test)]
mod tests;
