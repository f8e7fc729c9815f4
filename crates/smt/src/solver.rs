//! The user-facing SMT solver: assertion stack, check, model extraction.
//!
//! [`Solver`] collects [`Formula`] assertions with [`Solver::push`] /
//! [`Solver::pop`] scoping, and [`Solver::check`] decides their conjunction
//! over QF_LRA.
//!
//! # Two front-ends, one solve body
//!
//! Every check encodes into a CDCL/simplex/encoder trio (a core) and hands
//! it to one private routine that searches, assembles [`SolverStats`],
//! certifies and extracts the model. The two query shapes differ only in
//! which core they hand over:
//!
//! * [`Solver::check`] solves a fresh clone of a never-solved template.
//!   The assertions below the first open scope (the "base") are encoded
//!   into the template once; each check clones it and encodes only the
//!   scoped deltas into the clone. The push/pop-heavy campaign pattern
//!   (assert the grid constraints once, push a per-variant delta, check,
//!   pop) thus pays base encoding once per solver, while learned clauses,
//!   theory state and proof-log steps stay strictly per-check. That
//!   isolation is why `check` stays clone-per-check: an answer's witness
//!   and counters depend only on the assertion stack, never on the checks
//!   that ran before it on the same solver. A [`Solver::pop`] that
//!   retracts assertions the template has already encoded (possible only
//!   when certification levels changed mid-stack) drops the template.
//! * [`Solver::check_assuming`] solves a single *persistent* core in
//!   place, so learned clauses, variable activity, saved phases and the
//!   simplex basis all carry over. Scoped assertions are guarded by
//!   per-scope activation literals (assumed true while the scope is open);
//!   a pop retires the scope by asserting the guard's negation as a root
//!   unit and hard-deleting every clause that carries it — including
//!   learned clauses derived under the scope — so retracted constraints
//!   can never resurface in an answer or a replayed proof.
//!
//! Per-check counters are the core's counters minus a snapshot taken when
//! the search begins: zero for a template clone (whose counts thus include
//! encode-time root propagation), the post-encode state for the persistent
//! core.
//!
//! Checks accept a [`Budget`]: deadlines and cooperative cancellation are
//! polled at every phase — Tseitin/cardinality encoding (including base
//! extension), the CDCL decision and conflict loops, and simplex pivoting —
//! surfacing as [`SatResult::Unknown`] instead of hanging. An interrupt
//! while encoding drops whichever core holds the half-encoded assertion:
//! the template or the persistent core (both rebuilt by the next check),
//! or only the per-check clone when it hit a scoped delta.
//!
//! # Examples
//!
//! ```
//! use sta_smt::{Formula, LinExpr, LinExprCmp, Solver};
//!
//! let mut solver = Solver::new();
//! let x = solver.new_real();
//! let y = solver.new_real();
//! solver.assert_formula(&(LinExpr::var(x) + LinExpr::var(y)).eq_expr(LinExpr::from(10)));
//! solver.assert_formula(&LinExpr::var(x).ge(LinExpr::from(7)));
//! let model = solver.check().expect_sat();
//! assert!(model.real_value(y).to_f64() <= 3.0);
//! ```

use crate::budget::{Budget, Interrupt};
use crate::certify::{
    check_assumption_unsat_proof, check_unsat_proof, eval_formula, CertifyError, CertifyLevel,
};
use crate::cnf::Encoder;
use crate::expr::RealVar;
use crate::formula::{BoolVar, Formula};
use crate::lint::{self, LintReport, Severity};
use crate::profile::{Clock, Profiler};
use crate::rational::Rational;
use crate::sat::{CdclSolver, LBool, Lit, SatCounters, SatOutcome};
use crate::simplex::{Simplex, SimplexMode};
use crate::stats::SolverStats;
use crate::trace::{PhaseMetrics, PhaseTimings};
use std::fmt;
use std::time::Duration;

/// A satisfying assignment for the problem variables.
///
/// Every declared variable has a value; variables unconstrained by the
/// assertions default to `false` / `0`.
#[derive(Debug, Clone)]
pub struct Model {
    bools: Vec<bool>,
    reals: Vec<Rational>,
}

impl Model {
    /// Value of a Boolean variable.
    ///
    /// # Panics
    /// Panics if `v` was not created by the solver that produced this model.
    pub fn bool_value(&self, v: BoolVar) -> bool {
        self.bools[v.0 as usize]
    }

    /// Value of a real variable.
    ///
    /// # Panics
    /// Panics if `v` was not created by the solver that produced this model.
    pub fn real_value(&self, v: RealVar) -> &Rational {
        &self.reals[v.0 as usize]
    }
}

/// Outcome of [`Solver::check`].
#[derive(Debug, Clone)]
pub enum SatResult {
    /// Satisfiable, with a model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// The check's [`Budget`] ran out before a verdict. The assertion stack
    /// is untouched — raise the budget and re-check, or treat the instance
    /// as undecided.
    Unknown(Interrupt),
}

impl SatResult {
    /// Whether the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// Whether the result is `Unknown` (budget exhausted).
    pub fn is_unknown(&self) -> bool {
        matches!(self, SatResult::Unknown(_))
    }

    /// Extracts the model.
    ///
    /// # Panics
    /// Panics if the result is not `Sat`.
    pub fn expect_sat(self) -> Model {
        match self {
            SatResult::Sat(m) => m,
            SatResult::Unsat => panic!("expected sat, got unsat"),
            SatResult::Unknown(why) => panic!("expected sat, got unknown ({why})"),
        }
    }

    /// The model, if satisfiable.
    pub fn model(self) -> Option<Model> {
        match self {
            SatResult::Sat(m) => Some(m),
            SatResult::Unsat | SatResult::Unknown(_) => None,
        }
    }
}

/// Misuse of the solver's stack discipline, reported instead of panicking
/// so embedding tools can map it to a usage exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError {
    /// What the caller did wrong.
    pub message: String,
}

impl UsageError {
    fn new(message: impl Into<String>) -> Self {
        UsageError {
            message: message.into(),
        }
    }
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "solver usage error: {}", self.message)
    }
}

impl std::error::Error for UsageError {}

/// How the persistent core guards one open assertion scope.
#[derive(Debug, Clone, Copy)]
enum ScopeGuard {
    /// A [`Solver::push`] scope none of whose assertions have been encoded
    /// yet; the activation literal is allocated on first use.
    Lazy,
    /// A [`Solver::push`] scope with its activation literal: every clause
    /// from the scope carries `¬act`, and `act` is assumed while the scope
    /// is open, so popping retires the scope surgically.
    Act(Lit),
    /// A [`Solver::push_sticky`] scope: assertions are encoded unguarded,
    /// exactly like base assertions, so root simplification applies in
    /// full. The price is paid at pop time — the whole core is dropped.
    Sticky,
}

/// An encoded CDCL/simplex/encoder trio: [`Solver::check`]'s template
/// (cloned per check, never solved itself) or [`Solver::check_assuming`]'s
/// persistent core (solved in place across checks; popped scopes are
/// retired lazily at the next check's preamble).
#[derive(Debug, Clone)]
struct Core {
    sat: CdclSolver,
    simplex: Simplex,
    encoder: Encoder,
    /// Leading assertions already encoded (`assertions[..encoded]`).
    encoded: usize,
    /// Problem reals materialized into the tableau so far.
    reals: u32,
    /// Per-open-scope guards, parallel to `Solver::scopes` (empty on the
    /// template, which never encodes a scoped assertion).
    scope_guards: Vec<ScopeGuard>,
    /// Activation literals of popped scopes awaiting retirement.
    retired: Vec<Lit>,
    /// Whether proof logging was on when the core was built; a mismatch
    /// with the current certification level forces a rebuild, since
    /// proofs must log the complete original CNF.
    proof: bool,
}

impl Core {
    fn new(proof: bool, mode: SimplexMode, scope_guards: Vec<ScopeGuard>) -> Self {
        let mut sat = CdclSolver::new();
        if proof {
            sat.enable_proof();
        }
        Core {
            sat,
            simplex: Simplex::with_mode(mode),
            encoder: Encoder::new(),
            encoded: 0,
            reals: 0,
            scope_guards,
            retired: Vec::new(),
            proof,
        }
    }

    /// Materializes every declared real variable, so models cover them and
    /// template clones share one tableau layout.
    fn declare_reals(&mut self, n_reals: u32) {
        for i in self.reals..n_reals {
            self.simplex.solver_var(RealVar(i));
        }
        self.reals = n_reals;
    }

    /// The activation literal guarding `scope` (1-based; 0 is the base),
    /// allocated on first use, or `None` where assertions encode
    /// unguarded: the base and sticky scopes.
    fn guard(&mut self, scope: usize) -> Option<Lit> {
        let slot = &mut self.scope_guards[scope.checked_sub(1)?];
        match *slot {
            ScopeGuard::Sticky => None,
            ScopeGuard::Act(act) => Some(act),
            ScopeGuard::Lazy => {
                let act = Lit::positive(self.sat.new_var());
                *slot = ScopeGuard::Act(act);
                Some(act)
            }
        }
    }

    /// Encodes `assertions[self.encoded..]`, each under its scope's guard
    /// (`scopes` holds the open scopes' start marks), polling `budget`.
    /// An interrupt leaves the assertion it hit half-encoded, so the
    /// caller must drop the core.
    fn encode(
        &mut self,
        assertions: &[Formula],
        scopes: &[usize],
        budget: &Budget,
    ) -> Result<(), Interrupt> {
        self.encoder.set_budget(budget.clone());
        let mut done = Ok(());
        while self.encoded < assertions.len() {
            let i = self.encoded;
            let f = &assertions[i];
            let encoded = match self.guard(scopes.partition_point(|&mark| mark <= i)) {
                None => self.encoder.assert_root(f, &mut self.sat, &mut self.simplex),
                Some(act) => {
                    self.encoder.assert_root_guarded(f, act, &mut self.sat, &mut self.simplex)
                }
            };
            if let Err(why) = encoded {
                done = Err(why);
                break;
            }
            self.encoded += 1;
        }
        // The template must not keep this check's deadline for later,
        // unlimited checks.
        self.encoder.set_budget(Budget::unlimited());
        done
    }

    /// `stats` with this core's encoding sizes filled in.
    fn sized(&self, stats: SolverStats) -> SolverStats {
        let metrics = PhaseMetrics {
            sat_vars: self.sat.num_vars() as u64,
            clauses: self.encoder.clauses,
            clause_lits: self.encoder.clause_lits,
            atoms: self.encoder.num_atoms() as u64,
            ..stats.metrics
        };
        SolverStats { metrics, ..stats }
    }
}

/// A core's cumulative counters when its search begins; a check reports
/// the difference from here. What was already present *is* a persistent
/// core's warm-start payoff: learned clauses carried in, and pivots whose
/// work the retained basis embodies.
#[derive(Debug, Default)]
struct Snapshot {
    sat: SatCounters,
    pivots: u64,
    bound_asserts: u64,
    theory_checks: u64,
    refactorizations: u64,
    check_time: Duration,
    factor_time: Duration,
}

impl Snapshot {
    fn of(core: &Core) -> Self {
        Snapshot {
            sat: core.sat.counters(),
            pivots: core.simplex.pivots(),
            bound_asserts: core.simplex.bound_asserts(),
            theory_checks: core.simplex.theory_checks(),
            refactorizations: core.simplex.refactorizations(),
            check_time: core.simplex.check_time(),
            factor_time: core.simplex.factor_time(),
        }
    }
}

/// An SMT solver for Boolean combinations of linear real arithmetic.
///
/// See the [module docs](self) for an example.
#[derive(Debug)]
pub struct Solver {
    n_bools: u32,
    n_reals: u32,
    assertions: Vec<Formula>,
    scopes: Vec<usize>,
    /// Parallel to `scopes`: whether each open scope was opened with
    /// [`Solver::push_sticky`]. Kept on the solver (not the core) because
    /// the core is built lazily, possibly after scopes are already open.
    sticky: Vec<bool>,
    last_stats: Option<SolverStats>,
    certify: CertifyLevel,
    budget: Budget,
    /// The never-solved template [`Solver::check`] clones.
    template: Option<Core>,
    /// Persistent core for [`Solver::check_assuming`]; built lazily,
    /// dropped on encode interrupts and mode/certification flips.
    live: Option<Core>,
    /// Which simplex engine checks use: revised, unless a test pins the
    /// dense oracle. Applied when a template or live core is built;
    /// changing it drops both.
    simplex_mode: SimplexMode,
    /// The single time source for every per-check wall clock in
    /// [`SolverStats`] (tests inject a fake; see [`crate::profile`]).
    clock: Clock,
    /// Span profiler, when attached: checks open `encode`/`search`/
    /// `certify` spans (with `base`/`delta` and `simplex` leaves).
    profiler: Option<Profiler>,
    /// Whether checks sample a progress timeline into their stats.
    progress: bool,
}

impl Default for Solver {
    fn default() -> Self {
        Solver {
            n_bools: 0,
            n_reals: 0,
            assertions: Vec::new(),
            scopes: Vec::new(),
            sticky: Vec::new(),
            last_stats: None,
            certify: CertifyLevel::default(),
            budget: Budget::default(),
            template: None,
            live: None,
            simplex_mode: SimplexMode::default(),
            clock: Clock::default(),
            profiler: None,
            progress: false,
        }
    }
}

impl Solver {
    /// Creates a solver with no variables or assertions.
    pub fn new() -> Self {
        Solver::default()
    }

    /// Declares a fresh Boolean variable.
    pub fn new_bool(&mut self) -> BoolVar {
        let v = BoolVar(self.n_bools);
        self.n_bools += 1;
        v
    }

    /// Declares a fresh real variable.
    pub fn new_real(&mut self) -> RealVar {
        let v = RealVar(self.n_reals);
        self.n_reals += 1;
        v
    }

    /// Asserts `f` in the current scope.
    pub fn assert_formula(&mut self, f: &Formula) {
        self.assertions.push(f.clone());
    }

    /// Opens a new assertion scope.
    pub fn push(&mut self) {
        self.scopes.push(self.assertions.len());
        self.sticky.push(false);
        if let Some(core) = &mut self.live {
            core.scope_guards.push(ScopeGuard::Lazy);
        }
    }

    /// Opens a *sticky* assertion scope: [`Solver::check_assuming`]'s
    /// persistent core encodes its assertions unguarded, like base
    /// assertions, so unit clauses propagate and simplify at the root
    /// instead of hiding behind an activation literal. Use it for a
    /// long-lived scenario that many checks share. The trade-off is at
    /// [`Solver::pop`]: a sticky scope cannot be retired surgically, so
    /// popping one drops the live core and the next `check_assuming`
    /// rebuilds from scratch. [`Solver::check`] treats sticky and plain
    /// scopes identically.
    pub fn push_sticky(&mut self) {
        self.scopes.push(self.assertions.len());
        self.sticky.push(true);
        if let Some(core) = &mut self.live {
            core.scope_guards.push(ScopeGuard::Sticky);
        }
    }

    /// Discards all assertions added since the matching [`Solver::push`].
    ///
    /// # Errors
    /// Returns a [`UsageError`] if there is no open scope.
    pub fn pop(&mut self) -> Result<(), UsageError> {
        let Some(mark) = self.scopes.pop() else {
            return Err(UsageError::new("pop without matching push"));
        };
        self.assertions.truncate(mark);
        // Drop the template if the pop retracted assertions it has encoded
        // — its clause database and proof log would otherwise leak
        // out-of-scope constraints and proof steps into later checks. (The
        // template only ever covers the prefix below the first open scope,
        // so this fires only on templates built before that scope opened.)
        if self.template.as_ref().is_some_and(|t| t.encoded > mark) {
            self.template = None;
        }
        self.sticky.pop();
        let mut drop_core = false;
        if let Some(core) = &mut self.live {
            // Mark the popped scope's activation literal (if its first
            // assertion was ever encoded) for retirement at the next
            // check's preamble, and roll the encode cursor back so a
            // re-asserted suffix is re-encoded under fresh guards. A
            // sticky scope's assertions went in unguarded and cannot be
            // retracted surgically: drop the whole core if any were
            // encoded.
            match core.scope_guards.pop() {
                Some(ScopeGuard::Act(act)) => core.retired.push(act),
                Some(ScopeGuard::Sticky) if core.encoded > mark => drop_core = true,
                Some(ScopeGuard::Sticky) | Some(ScopeGuard::Lazy) | None => {}
            }
            core.encoded = core.encoded.min(mark);
        }
        if drop_core {
            self.live = None;
        }
        Ok(())
    }

    /// Number of assertions currently active.
    pub fn num_assertions(&self) -> usize {
        self.assertions.len()
    }

    /// Statistics of the most recent [`Solver::check`] call.
    pub fn last_stats(&self) -> Option<&SolverStats> {
        self.last_stats.as_ref()
    }

    /// Sets how much certification [`Solver::check`] performs.
    pub fn set_certify(&mut self, level: CertifyLevel) {
        self.certify = level;
    }

    /// Pins the simplex engine for subsequent checks. Every production
    /// check runs the revised engine (the default); tests and the scale
    /// suite pin [`SimplexMode::Dense`] to reach the dense oracle. Both
    /// engines replay identical pivot trajectories over exact rationals,
    /// so answers, models and deterministic counters do not depend on the
    /// mode. Changing the mode drops the template and the persistent core
    /// (they embed a simplex built in the old mode).
    pub fn set_simplex_mode(&mut self, mode: SimplexMode) {
        if self.simplex_mode != mode {
            self.simplex_mode = mode;
            self.template = None;
            self.live = None;
        }
    }

    /// Sets the budget applied to every subsequent check. The default is
    /// unlimited; with a deadline or cancel token installed, checks return
    /// [`SatResult::Unknown`] instead of running past the budget.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// The budget applied to checks.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The configured certification level.
    pub fn certify_level(&self) -> CertifyLevel {
        self.certify
    }

    /// Attaches a span profiler (and adopts its clock, so spans and
    /// stats timings come from the same source). Checks then record an
    /// `encode` → `search` → `certify` span tree, with `base`/`delta`
    /// encode children and the simplex's accumulated self-time as a
    /// `simplex` leaf under `search`.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.clock = profiler.clock().clone();
        self.profiler = Some(profiler);
    }

    /// Replaces the clock behind per-check wall-clock stats (tests
    /// inject a fake). [`Solver::set_profiler`] also sets this.
    pub fn set_clock(&mut self, clock: Clock) {
        self.clock = clock;
    }

    /// Enables (or disables) progress-timeline sampling: when on, each
    /// check's [`SolverStats::progress`] carries a bounded sequence of
    /// counter samples recorded at decision boundaries.
    pub fn set_progress_sampling(&mut self, on: bool) {
        self.progress = on;
    }

    /// Statically analyses the current assertion set without solving.
    pub fn lint(&self) -> LintReport {
        lint::lint(&self.assertions, self.n_bools, self.n_reals)
    }

    /// Renders the assertion set as text, for reproducing failures.
    pub fn dump_assertions(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "; {} bool vars, {} real vars, {} assertions",
            self.n_bools,
            self.n_reals,
            self.assertions.len()
        );
        for f in &self.assertions {
            let _ = writeln!(out, "(assert {f})");
        }
        out
    }

    /// Decides satisfiability of the asserted conjunction.
    ///
    /// # Panics
    /// Panics if certification is enabled (see [`Solver::set_certify`]) and
    /// the answer fails to certify — a solver bug, reported together with a
    /// dump of the assertion set for reproduction.
    pub fn check(&mut self) -> SatResult {
        let result = self.check_certified();
        self.certified_or_abort(result)
    }

    /// Decides satisfiability, returning certification failures as errors.
    ///
    /// Under [`CertifyLevel::Full`] the assertion set is first linted in
    /// deny mode (error-severity findings abort before solving), proof
    /// logging is enabled, and an `unsat` answer is replayed through the
    /// independent RUP/Farkas checker. Under [`CertifyLevel::CheckModels`]
    /// (or `Full`), a `sat` answer's model is re-evaluated against every
    /// original assertion with exact arithmetic.
    pub fn check_certified(&mut self) -> Result<SatResult, CertifyError> {
        // One clock read per timing boundary, with every interval derived
        // from those reads — never a second `elapsed()` for the same
        // boundary, so the intervals in one stats row are consistent
        // (encode + search never exceeds solve).
        let start = self.clock.now();
        let mut lint_report = self.deny_mode_lint()?;
        let full = self.certify >= CertifyLevel::Full;
        let prof = self.profiler.clone();
        // Template maintenance: rebuild on a proof-enablement change,
        // otherwise extend it over any new below-scope assertions. Only
        // the prefix below the first open scope is ever encoded into it,
        // so scoped deltas never enter the template.
        if self.template.as_ref().is_some_and(|t| t.proof != full) {
            self.template = None;
        }
        let reused = self.template.is_some();
        let mode = self.simplex_mode;
        let template = self.template.get_or_insert_with(|| Core::new(full, mode, Vec::new()));
        template.declare_reals(self.n_reals);
        let base_limit = self.scopes.first().copied().unwrap_or(self.assertions.len());
        let sp_encode = prof.as_ref().map(|p| p.span("encode"));
        let extended = {
            let _sp_base = prof.as_ref().map(|p| p.span("base"));
            template.encode(&self.assertions[..base_limit], &[], &self.budget)
        };
        // Per-check clone: scoped deltas are encoded into it and it alone
        // is solved, keeping learned clauses, theory state and proof steps
        // isolated to this check.
        let mut core = match extended {
            Ok(()) => template.clone(),
            Err(why) => {
                // The interrupted assertion is half-encoded into the
                // template: drop it so the next check rebuilds it cleanly.
                self.template = None;
                let stats = self.stats_head(&lint_report, reused);
                return self.encode_interrupted(why, start, stats);
            }
        };
        let delta = {
            let _sp_delta = prof.as_ref().map(|p| p.span("delta"));
            core.encode(&self.assertions, &[], &self.budget)
        };
        if let Err(why) = delta {
            // Only the clone saw the partial delta; the template stays valid.
            let stats = core.sized(self.stats_head(&lint_report, reused));
            return self.encode_interrupted(why, start, stats);
        }
        drop(sp_encode);
        if full {
            // Encoding-level pass (duplicate / subsumed clauses) over the
            // clause database before any learning happens.
            lint_report.merge(lint::lint_clauses(&core.sat.clause_list()));
        }
        let stats = self.stats_head(&lint_report, reused);
        self.solve_encoded(&mut core, &[], &[], start, Snapshot::default(), stats)
    }

    /// Decides satisfiability of the asserted conjunction together with a
    /// set of per-call Boolean assumptions, without changing the assertion
    /// stack. Solves on the persistent core, which carries learned
    /// clauses, branching heuristics and the simplex basis across calls.
    ///
    /// # Panics
    /// Panics if certification is enabled and the answer fails to certify —
    /// a solver bug, reported with a dump of the assertion set.
    pub fn check_assuming(&mut self, assumptions: &[(BoolVar, bool)]) -> SatResult {
        let result = self.check_assuming_certified(assumptions);
        self.certified_or_abort(result)
    }

    /// [`Solver::check_assuming`], returning certification failures as
    /// errors. An `unsat` answer under full certification replays either a
    /// root refutation or a failed-assumption core whose literals all come
    /// from the negated assumptions (see
    /// [`check_assumption_unsat_proof`]).
    pub fn check_assuming_certified(
        &mut self,
        assumptions: &[(BoolVar, bool)],
    ) -> Result<SatResult, CertifyError> {
        let start = self.clock.now();
        let lint_report = self.deny_mode_lint()?;
        let full = self.certify >= CertifyLevel::Full;
        // A certification flip invalidates the core: proofs must log the
        // complete original CNF from the first clause on.
        if self.live.as_ref().is_some_and(|c| c.proof != full) {
            self.live = None;
        }
        let reused = self.live.is_some();
        // Scopes already open when the core is first built keep their
        // declared kind: sticky ones encode unguarded from the start.
        let mut core = self.live.take().unwrap_or_else(|| {
            let guards = self.sticky.iter().map(|&s| {
                if s {
                    ScopeGuard::Sticky
                } else {
                    ScopeGuard::Lazy
                }
            });
            Core::new(full, self.simplex_mode, guards.collect())
        });
        debug_assert_eq!(core.scope_guards.len(), self.scopes.len());
        // Preamble: return the core to the root level (it may hold the
        // previous check's trail, or a mid-search trail if that check was
        // interrupted), then retire popped scopes — a root unit `¬act`
        // permanently satisfies every clause the scope guarded, and the
        // hard delete removes those clauses plus every learned clause
        // derived under the scope (each carries `¬act`), so retracted
        // constraints cannot resurface in answers or replayed proofs.
        core.sat.reset_to_root(&mut core.simplex);
        let mut deleted_clauses = 0u64;
        for act in std::mem::take(&mut core.retired) {
            core.sat.add_clause(vec![!act]);
            deleted_clauses += core.sat.purge_literal(!act);
        }
        core.declare_reals(self.n_reals);
        // Extend the encoding over assertions added (or re-added) since
        // the last check. Base assertions (below the first open scope) are
        // permanent; scoped ones get their scope's activation guard.
        let encoded = {
            let prof = self.profiler.as_ref();
            let _sp_encode = prof.map(|p| p.span("encode"));
            let _sp_delta = prof.map(|p| p.span("delta"));
            core.encode(&self.assertions, &self.scopes, &self.budget)
        };
        if let Err(why) = encoded {
            // The interrupted assertion is half-encoded into the core, which
            // is dropped here; the next check rebuilds it from the stack.
            let stats = self.stats_head(&lint_report, reused);
            return self.encode_interrupted(why, start, stats);
        }
        let at = Snapshot::of(&core);
        // Assumptions: every open guarded scope's activation literal
        // (sticky scopes are asserted, not assumed), then the caller's
        // Boolean assumptions.
        let mut sat_assumptions: Vec<Lit> = core
            .scope_guards
            .iter()
            .filter_map(|g| match g {
                ScopeGuard::Act(act) => Some(*act),
                ScopeGuard::Lazy | ScopeGuard::Sticky => None,
            })
            .collect();
        for &(v, positive) in assumptions {
            let sv = core.encoder.sat_var_of_bool(v, &mut core.sat);
            sat_assumptions.push(Lit::with_polarity(sv, positive));
        }
        let mut stats = self.stats_head(&lint_report, reused);
        stats.metrics.deleted_clauses = deleted_clauses;
        let result =
            self.solve_encoded(&mut core, &sat_assumptions, assumptions, start, at, stats);
        self.live = Some(core);
        result
    }

    /// Unwraps a front-end's answer for the panicking entry points: a
    /// certification failure is a solver bug, aborted with a dump of the
    /// assertion set for reproduction.
    fn certified_or_abort(&self, result: Result<SatResult, CertifyError>) -> SatResult {
        match result {
            Ok(result) => result,
            Err(e) => panic!("{e}\nassertions:\n{}", self.dump_assertions()),
        }
    }

    /// The deny-mode lint gate of [`CertifyLevel::Full`]: error findings
    /// abort the check before anything is encoded. Below `Full` nothing is
    /// linted.
    fn deny_mode_lint(&self) -> Result<LintReport, CertifyError> {
        if self.certify < CertifyLevel::Full {
            return Ok(LintReport::new());
        }
        let report = self.lint();
        if report.has_errors() {
            return Err(CertifyError::new(format!("lint errors in deny mode:\n{report}")));
        }
        Ok(report)
    }

    /// The stats a front-end knows before searching: problem sizes, lint
    /// findings, and whether it reused an already-encoded core.
    fn stats_head(&self, lint_report: &LintReport, reused: bool) -> SolverStats {
        SolverStats {
            bool_vars: self.n_bools as usize,
            real_vars: self.n_reals as usize,
            assertions: self.assertions.len(),
            timings: PhaseTimings {
                cache_hits: u64::from(reused),
                cache_misses: u64::from(!reused),
                ..PhaseTimings::default()
            },
            lint_errors: lint_report.count(Severity::Error),
            lint_warnings: lint_report.count(Severity::Warning),
            lint_infos: lint_report.count(Severity::Info),
            ..SolverStats::default()
        }
    }

    /// Records the stats of a check whose budget ran out while encoding
    /// and answers `Unknown`. The whole check was encoding, so one clock
    /// read covers both intervals.
    fn encode_interrupted(
        &mut self,
        why: Interrupt,
        start: Duration,
        mut stats: SolverStats,
    ) -> Result<SatResult, CertifyError> {
        stats.timings.encode = self.clock.now().saturating_sub(start);
        stats.solve_time = stats.timings.encode;
        self.last_stats = Some(stats);
        Ok(SatResult::Unknown(why))
    }

    /// The solve body both front-ends share, run on a fully encoded core:
    /// search under `assumptions`, fill `stats` with counters relative to
    /// `at`, then certify — replay the refutation (or the failed-assumption
    /// core) under [`CertifyLevel::Full`], or re-evaluate the model against
    /// every assertion and every caller assumption in `user`.
    fn solve_encoded(
        &mut self,
        core: &mut Core,
        assumptions: &[Lit],
        user: &[(BoolVar, bool)],
        start: Duration,
        at: Snapshot,
        stats: SolverStats,
    ) -> Result<SatResult, CertifyError> {
        let prof = self.profiler.clone();
        core.sat.set_budget(self.budget.clone());
        core.simplex.set_budget(self.budget.clone());
        if self.progress {
            core.sat.enable_progress(self.clock.clone());
        }
        if prof.is_some() {
            core.simplex.enable_timing(self.clock.clone());
        }
        let encode_done = self.clock.now();
        let sp_search = prof.as_ref().map(|p| p.span("search"));
        let outcome = core.sat.solve_under_assumptions(assumptions, &mut core.simplex);
        let theory_checks = core.simplex.theory_checks().saturating_sub(at.theory_checks);
        let refactorizations = core.simplex.refactorizations().saturating_sub(at.refactorizations);
        // The simplex leaf is the whole of every theory check, less the
        // refactorizations, which get a leaf of their own.
        if let Some(p) = &prof {
            let factor = core.simplex.factor_time().saturating_sub(at.factor_time);
            let check = core.simplex.check_time().saturating_sub(at.check_time);
            p.record_leaf("simplex", check.saturating_sub(factor), theory_checks);
            if refactorizations > 0 {
                p.record_leaf("simplex-factor", factor, refactorizations);
            }
        }
        drop(sp_search);
        let search_done = self.clock.now();
        let counters = core.sat.counters();
        let stats = core.sized(stats);
        let mut stats = SolverStats {
            metrics: PhaseMetrics {
                decisions: counters.decisions.saturating_sub(at.sat.decisions),
                propagations: counters.propagations.saturating_sub(at.sat.propagations),
                conflicts: counters.conflicts.saturating_sub(at.sat.conflicts),
                theory_conflicts: counters
                    .theory_conflicts
                    .saturating_sub(at.sat.theory_conflicts),
                restarts: counters.restarts.saturating_sub(at.sat.restarts),
                learned_clauses: counters.learned_clauses,
                clause_db: core.sat.num_clauses() as u64,
                retained_clauses: at.sat.learned_clauses,
                pivots: core.simplex.pivots().saturating_sub(at.pivots),
                bound_asserts: core.simplex.bound_asserts().saturating_sub(at.bound_asserts),
                theory_checks,
                warm_pivots_saved: at.pivots,
                ..stats.metrics
            },
            timings: PhaseTimings {
                encode: encode_done.saturating_sub(start),
                search: search_done.saturating_sub(encode_done),
                refactorizations,
                ..stats.timings
            },
            simplex_vars: core.simplex.num_vars(),
            simplex_rows: core.simplex.num_rows(),
            tableau_entries: core.simplex.tableau_entries(),
            progress: core.sat.take_progress(),
            ..stats
        };
        let result = match outcome {
            SatOutcome::Unsat => {
                if self.certify >= CertifyLevel::Full {
                    let _sp_certify = prof.as_ref().map(|p| p.span("certify"));
                    let proof = core
                        .sat
                        .proof()
                        .ok_or_else(|| CertifyError::new("proof logging produced no proof"))?;
                    stats.proof_steps = proof.num_derivations() as u64;
                    let ctx = core.simplex.certificate_context();
                    if core.sat.failed_assumptions().is_empty() {
                        check_unsat_proof(proof, &ctx)?;
                    } else {
                        let negated: Vec<Lit> = assumptions.iter().map(|&l| !l).collect();
                        check_assumption_unsat_proof(proof, &ctx, &negated)?;
                    }
                    stats.certified = true;
                }
                SatResult::Unsat
            }
            SatOutcome::Sat => {
                // Read the model before anything resets the core (a
                // persistent core's trail and tableau stay put until the
                // next check's preamble).
                let reals = core.simplex.concrete_model();
                let bools: Vec<bool> = (0..self.n_bools)
                    .map(|i| match core.encoder.lookup_bool(BoolVar(i)) {
                        Some(v) => core.sat.value(v) == LBool::True,
                        None => false,
                    })
                    .collect();
                if self.certify >= CertifyLevel::CheckModels {
                    let _sp_certify = prof.as_ref().map(|p| p.span("certify"));
                    for f in &self.assertions {
                        if !eval_formula(f, &bools, &reals) {
                            return Err(CertifyError::new(format!(
                                "model does not satisfy asserted formula {f}"
                            )));
                        }
                    }
                    for &(v, positive) in user {
                        if bools[v.0 as usize] != positive {
                            return Err(CertifyError::new(format!(
                                "model does not satisfy assumption on b{}",
                                v.0
                            )));
                        }
                    }
                    stats.certified = true;
                }
                SatResult::Sat(Model { bools, reals })
            }
            SatOutcome::Unknown(why) => SatResult::Unknown(why),
        };
        // Final wall clock includes certification; still one read.
        stats.solve_time = self.clock.now().saturating_sub(start);
        self.last_stats = Some(stats);
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::formula::LinExprCmp;

    fn r(n: i64, d: i64) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn pure_boolean() {
        let mut s = Solver::new();
        let p = s.new_bool();
        let q = s.new_bool();
        s.assert_formula(&Formula::or(vec![Formula::var(p), Formula::var(q)]));
        s.assert_formula(&Formula::var(p).not());
        let m = s.check().expect_sat();
        assert!(!m.bool_value(p));
        assert!(m.bool_value(q));
    }

    #[test]
    fn pure_arithmetic_system() {
        // x + y = 10, x − y = 4 ⇒ x = 7, y = 3.
        let mut s = Solver::new();
        let x = s.new_real();
        let y = s.new_real();
        s.assert_formula(
            &(LinExpr::var(x) + LinExpr::var(y)).eq_expr(LinExpr::from(10)),
        );
        s.assert_formula(
            &(LinExpr::var(x) - LinExpr::var(y)).eq_expr(LinExpr::from(4)),
        );
        let m = s.check().expect_sat();
        assert_eq!(*m.real_value(x), r(7, 1));
        assert_eq!(*m.real_value(y), r(3, 1));
    }

    #[test]
    fn mixed_boolean_arithmetic() {
        // p → x ≥ 5, ¬p → x ≤ −5, x = 2 forces... nothing consistent with p,
        // so p must be true and x ≥ 5 contradicts x = 2: unsat.
        let mut s = Solver::new();
        let p = s.new_bool();
        let x = s.new_real();
        s.assert_formula(&Formula::var(p).implies(LinExpr::var(x).ge(LinExpr::from(5))));
        s.assert_formula(
            &Formula::var(p)
                .not()
                .implies(LinExpr::var(x).le(LinExpr::from(-5))),
        );
        s.assert_formula(&LinExpr::var(x).eq_expr(LinExpr::from(2)));
        assert!(!s.check().is_sat());
    }

    #[test]
    fn strict_inequalities_exact() {
        // 0 < x < 1 and 3x = 1 is sat with x = 1/3.
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(&LinExpr::var(x).gt(LinExpr::from(0)));
        s.assert_formula(&LinExpr::var(x).lt(LinExpr::from(1)));
        s.assert_formula(
            &(LinExpr::var(x) * r(3, 1)).eq_expr(LinExpr::from(1)),
        );
        let m = s.check().expect_sat();
        assert_eq!(*m.real_value(x), r(1, 3));
    }

    #[test]
    fn strict_open_interval_has_interior_point() {
        // 0 < x < 1 alone: the delta-rational model must concretize to a
        // rational strictly inside the interval.
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(&LinExpr::var(x).gt(LinExpr::from(0)));
        s.assert_formula(&LinExpr::var(x).lt(LinExpr::from(1)));
        let m = s.check().expect_sat();
        let v = m.real_value(x);
        assert!(v > &r(0, 1) && v < &r(1, 1), "got {v}");
    }

    #[test]
    fn push_pop_restores_satisfiability() {
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(&LinExpr::var(x).ge(LinExpr::from(0)));
        s.push();
        s.assert_formula(&LinExpr::var(x).lt(LinExpr::from(0)));
        assert!(!s.check().is_sat());
        s.pop().unwrap();
        assert!(s.check().is_sat());
    }

    #[test]
    fn unconstrained_variables_get_defaults() {
        let mut s = Solver::new();
        let p = s.new_bool();
        let x = s.new_real();
        s.assert_formula(&Formula::top());
        let m = s.check().expect_sat();
        assert!(!m.bool_value(p));
        assert_eq!(*m.real_value(x), Rational::zero());
    }

    #[test]
    fn stats_populated_after_check() {
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(&LinExpr::var(x).ge(LinExpr::from(1)));
        let _ = s.check();
        let stats = s.last_stats().expect("stats");
        assert!(stats.metrics.sat_vars > 0);
        assert!(stats.estimated_bytes() > 0);
    }

    #[test]
    fn certified_check_sat_and_unsat() {
        // Same mixed Boolean/arithmetic problem as above, fully certified:
        // the unsat branch exercises theory lemmas with Farkas certificates
        // through the proof replayer, and the sat branch re-evaluates the
        // model against the original formulas.
        let mut s = Solver::new();
        s.set_certify(CertifyLevel::Full);
        assert_eq!(s.certify_level(), CertifyLevel::Full);
        let p = s.new_bool();
        let x = s.new_real();
        s.assert_formula(&Formula::var(p).implies(LinExpr::var(x).ge(LinExpr::from(5))));
        s.assert_formula(
            &Formula::var(p)
                .not()
                .implies(LinExpr::var(x).le(LinExpr::from(-5))),
        );
        s.push();
        s.assert_formula(&LinExpr::var(x).eq_expr(LinExpr::from(2)));
        assert!(!s.check().is_sat());
        let stats = s.last_stats().expect("stats").clone();
        assert!(stats.certified);
        assert!(stats.proof_steps > 0);
        s.pop().unwrap();
        let m = s.check().expect_sat();
        assert!(s.last_stats().expect("stats").certified);
        let v = m.real_value(x);
        assert!(v >= &r(5, 1) || v <= &r(-5, 1));
    }

    #[test]
    fn deny_mode_rejects_contradictory_bounds_before_solving() {
        let mut s = Solver::new();
        s.set_certify(CertifyLevel::Full);
        let x = s.new_real();
        s.assert_formula(&LinExpr::var(x).lt(LinExpr::from(1)));
        s.assert_formula(&LinExpr::var(x).gt(LinExpr::from(1)));
        let err = s.check_certified().unwrap_err();
        assert!(err.message.contains("lint"), "{}", err.message);
        // Without certification the solver still answers (unsat).
        s.set_certify(CertifyLevel::Off);
        assert!(!s.check().is_sat());
    }

    #[test]
    fn corrupted_model_fails_reevaluation() {
        let mut s = Solver::new();
        s.set_certify(CertifyLevel::CheckModels);
        let x = s.new_real();
        let f = LinExpr::var(x).ge(LinExpr::from(3));
        s.assert_formula(&f);
        let m = s.check().expect_sat();
        // The genuine model passes; a tampered one is caught.
        assert!(crate::certify::eval_formula(&f, &m.bools, &m.reals));
        let mut bad = m.clone();
        bad.reals[x.0 as usize] = Rational::zero();
        assert!(!crate::certify::eval_formula(&f, &bad.bools, &bad.reals));
    }

    #[test]
    fn ne_forces_displacement() {
        // x = y ∧ x ≠ 0 ∧ y ≤ 0 ⇒ x = y < 0.
        let mut s = Solver::new();
        let x = s.new_real();
        let y = s.new_real();
        s.assert_formula(&LinExpr::var(x).eq_expr(LinExpr::var(y)));
        s.assert_formula(&LinExpr::var(x).ne_expr(LinExpr::from(0)));
        s.assert_formula(&LinExpr::var(y).le(LinExpr::from(0)));
        let m = s.check().expect_sat();
        assert!(m.real_value(x).is_negative());
        assert_eq!(m.real_value(x), m.real_value(y));
    }

    #[test]
    fn base_cache_extends_across_checks() {
        // Sequential assert/check/assert/check reuses the cached base
        // encoding; answers must match from-scratch solving.
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(&LinExpr::var(x).ge(LinExpr::from(1)));
        assert!(s.check().is_sat());
        s.assert_formula(&LinExpr::var(x).le(LinExpr::from(3)));
        let m = s.check().expect_sat();
        let v = m.real_value(x);
        assert!(v >= &r(1, 1) && v <= &r(3, 1), "got {v}");
        s.assert_formula(&LinExpr::var(x).ge(LinExpr::from(5)));
        assert!(!s.check().is_sat());
    }

    /// Regression for incremental reuse under full certification: checks
    /// clone the cached base encoding, so a popped scope's learned clauses
    /// and proof steps must never reach a later check — each unsat answer
    /// replays a proof containing only in-scope steps.
    #[test]
    fn push_pop_recheck_certifies_with_in_scope_proof_only() {
        let mut s = Solver::new();
        s.set_certify(CertifyLevel::Full);
        let p = s.new_bool();
        let x = s.new_real();
        s.assert_formula(&Formula::var(p).implies(LinExpr::var(x).ge(LinExpr::from(5))));
        s.assert_formula(
            &Formula::var(p)
                .not()
                .implies(LinExpr::var(x).le(LinExpr::from(-5))),
        );
        // Build and cache the base with a certified sat check.
        assert!(s.check().is_sat());
        assert!(s.last_stats().expect("stats").certified);
        for _ in 0..2 {
            // Scoped contradiction: certified unsat (replayed proof must be
            // self-contained — base clauses plus this scope's delta only).
            s.push();
            s.assert_formula(&LinExpr::var(x).eq_expr(LinExpr::from(2)));
            assert!(!s.check().is_sat());
            let stats = s.last_stats().expect("stats").clone();
            assert!(stats.certified);
            assert!(stats.proof_steps > 0);
            s.pop().unwrap();
            // Re-solve after pop: certifies again, with the popped scope's
            // clauses and proof steps drained.
            let m = s.check().expect_sat();
            assert!(s.last_stats().expect("stats").certified);
            let v = m.real_value(x);
            assert!(v >= &r(5, 1) || v <= &r(-5, 1), "got {v}");
        }
    }

    #[test]
    fn expired_deadline_returns_unknown_and_solver_stays_usable() {
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(&LinExpr::var(x).ge(LinExpr::from(1)));
        s.set_budget(Budget::with_timeout(std::time::Duration::ZERO));
        let result = s.check();
        assert!(matches!(result, SatResult::Unknown(Interrupt::Timeout)), "{result:?}");
        assert!(result.is_unknown());
        assert!(result.model().is_none());
        // Lifting the budget decides the untouched assertion stack.
        s.set_budget(Budget::unlimited());
        assert!(s.check().is_sat());
    }

    #[test]
    fn raised_cancel_token_returns_unknown_cancelled() {
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(&LinExpr::var(x).ge(LinExpr::from(1)));
        let mut budget = Budget::unlimited();
        let token = budget.new_cancel_token();
        s.set_budget(budget);
        token.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(matches!(s.check(), SatResult::Unknown(Interrupt::Cancelled)));
    }

    /// Regression for the encode-phase budget gap: a zero-duration budget
    /// must interrupt *inside* the encoder — before a single clause is
    /// pushed — not merely before the search loop.
    #[test]
    fn zero_budget_interrupts_base_encoding_before_any_clause() {
        let mut s = Solver::new();
        let ps: Vec<Formula> = (0..200).map(|_| Formula::var(s.new_bool())).collect();
        s.assert_formula(&Formula::at_most(ps, 3));
        s.set_budget(Budget::with_timeout(std::time::Duration::ZERO));
        let result = s.check();
        assert!(matches!(result, SatResult::Unknown(Interrupt::Timeout)), "{result:?}");
        let stats = s.last_stats().expect("stats").clone();
        assert_eq!(stats.metrics.clauses, 0, "encoder ran past an expired deadline");
        assert_eq!(stats.metrics.decisions, 0);
        // The poisoned base template was dropped; an unlimited re-check
        // rebuilds it and decides the instance.
        s.set_budget(Budget::unlimited());
        assert!(s.check().is_sat());
        assert_eq!(s.last_stats().expect("stats").timings.cache_hits, 0);
    }

    /// An interrupt while encoding a *scoped* delta must discard only the
    /// per-check clone: the cached base survives for the next check.
    #[test]
    fn zero_budget_delta_encode_interrupt_keeps_base_cache() {
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(&LinExpr::var(x).ge(LinExpr::from(1)));
        assert!(s.check().is_sat()); // builds and caches the base
        s.push();
        let ps: Vec<Formula> = (0..200).map(|_| Formula::var(s.new_bool())).collect();
        s.assert_formula(&Formula::at_most(ps, 3));
        s.set_budget(Budget::with_timeout(std::time::Duration::ZERO));
        let result = s.check();
        assert!(matches!(result, SatResult::Unknown(Interrupt::Timeout)), "{result:?}");
        assert_eq!(s.last_stats().expect("stats").timings.cache_hits, 1);
        s.pop().unwrap();
        s.set_budget(Budget::unlimited());
        assert!(s.check().is_sat());
        // The base was reused, not rebuilt, after the delta interrupt.
        assert_eq!(s.last_stats().expect("stats").timings.cache_hits, 1);
    }

    /// Cancellation raised mid-run is observed at the next encode poll.
    #[test]
    fn cancellation_interrupts_encoding_phase() {
        let mut s = Solver::new();
        let ps: Vec<Formula> = (0..200).map(|_| Formula::var(s.new_bool())).collect();
        s.assert_formula(&Formula::at_most(ps, 3));
        let mut budget = Budget::unlimited();
        let token = budget.new_cancel_token();
        s.set_budget(budget);
        token.store(true, std::sync::atomic::Ordering::Relaxed);
        let result = s.check();
        assert!(matches!(result, SatResult::Unknown(Interrupt::Cancelled)), "{result:?}");
        assert_eq!(s.last_stats().expect("stats").metrics.clauses, 0);
    }

    /// A deliberately hard instance (pigeonhole, exponential for CDCL) with
    /// a 50 ms deadline: the check must come back `Unknown(Timeout)` well
    /// within 10× the deadline, and popping the hard scope must leave the
    /// solver usable for the next job.
    #[test]
    fn hard_instance_times_out_promptly() {
        let n = 10; // 11 pigeons into 10 holes
        let mut s = Solver::new();
        let vars: Vec<Vec<BoolVar>> = (0..n + 1)
            .map(|_| (0..n).map(|_| s.new_bool()).collect())
            .collect();
        s.push();
        for pigeon in &vars {
            s.assert_formula(&Formula::or(
                pigeon.iter().map(|&v| Formula::var(v)).collect(),
            ));
        }
        for hole in 0..n {
            for p1 in 0..n + 1 {
                for p2 in p1 + 1..n + 1 {
                    s.assert_formula(&Formula::or(vec![
                        Formula::var(vars[p1][hole]).not(),
                        Formula::var(vars[p2][hole]).not(),
                    ]));
                }
            }
        }
        s.set_budget(Budget::with_timeout(std::time::Duration::from_millis(50)));
        let clock = Clock::monotonic();
        let result = s.check();
        let elapsed = clock.now();
        assert!(matches!(result, SatResult::Unknown(Interrupt::Timeout)), "{result:?}");
        assert!(
            elapsed < std::time::Duration::from_millis(500),
            "timeout took {elapsed:?}, over 10x the 50ms deadline"
        );
        // The solver is immediately reusable for the next job.
        s.pop().unwrap();
        s.set_budget(Budget::unlimited());
        s.assert_formula(&Formula::var(vars[0][0]));
        assert!(s.check().is_sat());
    }

    /// The span profiler must see the solver's phase structure: `encode`
    /// with `base`/`delta` children and `search` with a `simplex` leaf,
    /// and progress sampling must yield a monotone timeline.
    #[test]
    fn profiler_records_span_tree_and_progress() {
        let mut s = Solver::new();
        let prof = Profiler::new();
        s.set_profiler(prof.clone());
        s.set_progress_sampling(true);
        let p = s.new_bool();
        let x = s.new_real();
        s.assert_formula(&Formula::var(p).implies(LinExpr::var(x).ge(LinExpr::from(5))));
        s.push();
        s.assert_formula(&LinExpr::var(x).le(LinExpr::from(10)));
        assert!(s.check().is_sat());
        let spans = prof.snapshot();
        let names: Vec<&str> = spans.iter().map(|n| n.name).collect();
        assert_eq!(names, ["encode", "search"], "{names:?}");
        let encode = &spans[0];
        let kids: Vec<&str> = encode.children.iter().map(|n| n.name).collect();
        assert!(kids.contains(&"base") && kids.contains(&"delta"), "{kids:?}");
        let search = &spans[1];
        assert!(
            search.children.iter().any(|n| n.name == "simplex"),
            "simplex leaf missing under search"
        );
        let stats = s.last_stats().expect("stats");
        assert!(!stats.progress.is_empty(), "no progress samples");
        for w in stats.progress.windows(2) {
            assert!(w[1].decisions >= w[0].decisions);
            assert!(w[1].at >= w[0].at);
        }
        // Unprofiled solver keeps an empty timeline.
        let mut plain = Solver::new();
        let y = plain.new_real();
        plain.assert_formula(&LinExpr::var(y).ge(LinExpr::from(1)));
        assert!(plain.check().is_sat());
        assert!(plain.last_stats().expect("stats").progress.is_empty());
    }

    /// Single-read timing discipline: the phase intervals of one stats
    /// row must nest consistently (encode + search ≤ solve), which the
    /// old double-`elapsed()` reads did not guarantee.
    #[test]
    fn phase_times_are_consistent_within_one_row() {
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(&LinExpr::var(x).ge(LinExpr::from(1)));
        s.assert_formula(&LinExpr::var(x).le(LinExpr::from(9)));
        assert!(s.check().is_sat());
        let stats = s.last_stats().expect("stats");
        assert!(
            stats.timings.encode + stats.timings.search <= stats.solve_time,
            "encode {:?} + search {:?} > solve {:?}",
            stats.timings.encode,
            stats.timings.search,
            stats.solve_time
        );
    }

    /// With a fake clock the solver's wall-clock stats are exact: zero
    /// if the clock never advances, and equal to the injected advance
    /// when a budget interrupt consumes the whole check.
    #[test]
    fn fake_clock_steers_stats_timing() {
        let (clock, _handle) = Clock::fake();
        let mut s = Solver::new();
        s.set_clock(clock);
        let x = s.new_real();
        s.assert_formula(&LinExpr::var(x).ge(LinExpr::from(1)));
        assert!(s.check().is_sat());
        let stats = s.last_stats().expect("stats");
        assert_eq!(stats.solve_time, std::time::Duration::ZERO);
        assert_eq!(stats.timings.encode, std::time::Duration::ZERO);
        assert_eq!(stats.timings.search, std::time::Duration::ZERO);
    }

    #[test]
    fn cardinality_over_implication_guards() {
        // 4 booleans, each forces its real to 1; at most 2 true; sum of
        // reals ≥ 3 ⇒ unsat (reals otherwise pinned to 0).
        let mut s = Solver::new();
        let mut sum = LinExpr::zero();
        let mut card = Vec::new();
        for _ in 0..4 {
            let p = s.new_bool();
            let x = s.new_real();
            s.assert_formula(
                &Formula::var(p).implies(LinExpr::var(x).eq_expr(LinExpr::from(1))),
            );
            s.assert_formula(
                &Formula::var(p)
                    .not()
                    .implies(LinExpr::var(x).eq_expr(LinExpr::from(0))),
            );
            sum = sum + LinExpr::var(x);
            card.push(Formula::var(p));
        }
        s.assert_formula(&Formula::at_most(card, 2));
        s.push();
        s.assert_formula(&sum.clone().ge(LinExpr::from(3)));
        assert!(!s.check().is_sat());
        s.pop().unwrap();
        s.assert_formula(&sum.ge(LinExpr::from(2)));
        assert!(s.check().is_sat());
    }

    #[test]
    fn pop_without_push_is_a_usage_error_not_a_panic() {
        let mut s = Solver::new();
        let err = s.pop().unwrap_err();
        assert!(err.message.contains("pop without matching push"), "{err}");
        assert!(err.to_string().contains("usage error"), "{err}");
        // The solver stays usable after the misuse.
        let x = s.new_real();
        s.assert_formula(&LinExpr::var(x).ge(LinExpr::from(1)));
        assert!(s.check().is_sat());
        s.push();
        s.pop().unwrap();
        assert!(s.pop().is_err());
    }

    /// `check()` on the same question asked as a scoped delta of unit
    /// assertions: push, assert each assumption, check, pop.
    fn check_scoped(s: &mut Solver, assumptions: &[(BoolVar, bool)]) -> SatResult {
        s.push();
        for &(v, positive) in assumptions {
            let f = Formula::var(v);
            s.assert_formula(&if positive { f } else { f.not() });
        }
        let result = s.check();
        s.pop().unwrap();
        result
    }

    /// One persistent core, many checks: assumption subsets select among
    /// mutually exclusive configurations without any push/pop, and each
    /// answer matches `check()` on the same question as a scoped delta.
    #[test]
    fn check_assuming_matches_scoped_check() {
        let mut s = Solver::new();
        let p = s.new_bool();
        let q = s.new_bool();
        let x = s.new_real();
        s.assert_formula(&Formula::var(p).implies(LinExpr::var(x).ge(LinExpr::from(5))));
        s.assert_formula(&Formula::var(q).implies(LinExpr::var(x).le(LinExpr::from(2))));
        // p ∧ q forces 5 ≤ x ≤ 2: unsat.
        assert!(!s.check_assuming(&[(p, true), (q, true)]).is_sat());
        assert!(!check_scoped(&mut s, &[(p, true), (q, true)]).is_sat());
        // p alone: sat with x ≥ 5.
        let m = s.check_assuming(&[(p, true), (q, false)]).expect_sat();
        assert!(m.bool_value(p) && !m.bool_value(q));
        assert!(m.real_value(x) >= &r(5, 1));
        let m = check_scoped(&mut s, &[(p, true), (q, false)]).expect_sat();
        assert!(m.bool_value(p) && !m.bool_value(q));
        assert!(m.real_value(x) >= &r(5, 1));
        // The same contradictory pair again — the core must still know.
        assert!(!s.check_assuming(&[(p, true), (q, true)]).is_sat());
        // No assumptions at all: sat.
        assert!(s.check_assuming(&[]).is_sat());
        assert!(s.check().is_sat());
        // The assertion stack was never disturbed.
        assert_eq!(s.num_assertions(), 2);
    }

    /// The warm-start ledger: a second check on a reused core reports the
    /// carried-in learned clauses and basis work; `check()` (clone per
    /// check) reports zeros for all three incremental counters.
    #[test]
    fn incremental_stats_expose_retention_and_warm_start() {
        let mut s = Solver::new();
        let p = s.new_bool();
        let x = s.new_real();
        let y = s.new_real();
        // Equality system so the first solve must pivot.
        s.assert_formula(&(LinExpr::var(x) + LinExpr::var(y)).eq_expr(LinExpr::from(10)));
        s.assert_formula(&(LinExpr::var(x) - LinExpr::var(y)).eq_expr(LinExpr::from(4)));
        s.assert_formula(&Formula::var(p).implies(LinExpr::var(x).ge(LinExpr::from(5))));
        assert!(s.check_assuming(&[]).is_sat());
        let first = s.last_stats().expect("stats").clone();
        assert_eq!(first.timings.cache_hits, 0);
        assert_eq!(first.metrics.retained_clauses, 0);
        assert_eq!(first.metrics.warm_pivots_saved, 0);
        assert!(first.metrics.pivots > 0, "first check should pivot");
        assert!(s.check_assuming(&[(p, true)]).is_sat());
        let second = s.last_stats().expect("stats").clone();
        assert_eq!(second.timings.cache_hits, 1, "core must be reused");
        assert!(
            second.metrics.warm_pivots_saved >= first.metrics.pivots,
            "warm basis embodies the first check's pivots: {} < {}",
            second.metrics.warm_pivots_saved,
            first.metrics.pivots
        );
        // The clone-per-check front-end never reports persistent reuse.
        assert!(check_scoped(&mut s, &[(p, true)]).is_sat());
        let cold = s.last_stats().expect("stats").clone();
        assert_eq!(cold.metrics.retained_clauses, 0);
        assert_eq!(cold.metrics.deleted_clauses, 0);
        assert_eq!(cold.metrics.warm_pivots_saved, 0);
    }

    /// The `simplex` leaf is every theory check whole, less the
    /// refactorizations the `simplex-factor` leaf carries: its count is
    /// the check's theory checks, the two leaves add up to exactly the
    /// simplex's own check time (factor time is not counted twice), and
    /// together they never exceed the search span that holds them.
    #[test]
    fn simplex_leaf_is_each_theory_check_once() {
        for mode in [SimplexMode::Dense, SimplexMode::Revised] {
            let mut s = Solver::new();
            s.set_simplex_mode(mode);
            let prof = Profiler::new();
            s.set_profiler(prof.clone());
            let p = s.new_bool();
            let x = s.new_real();
            let y = s.new_real();
            // x = 7 refutes p, so the search checks more than once.
            s.assert_formula(&(LinExpr::var(x) + LinExpr::var(y)).eq_expr(LinExpr::from(10)));
            s.assert_formula(&(LinExpr::var(x) - LinExpr::var(y)).eq_expr(LinExpr::from(4)));
            s.assert_formula(&Formula::var(p).implies(LinExpr::var(x).ge(LinExpr::from(8))));
            assert!(s.check_assuming(&[]).is_sat());
            let stats = s.last_stats().expect("stats").clone();
            let spans = prof.take();
            let search = spans.iter().find(|n| n.name == "search").expect("search span");
            let leaf = |name| search.children.iter().find(|n| n.name == name);
            let simplex = leaf("simplex").expect("simplex leaf");
            assert!(stats.metrics.theory_checks > 1, "{mode:?}");
            assert_eq!(simplex.count, stats.metrics.theory_checks, "{mode:?}");
            let factor = match (mode, leaf("simplex-factor")) {
                (SimplexMode::Revised, Some(f)) => {
                    assert!(stats.timings.refactorizations > 0);
                    assert_eq!(f.count, stats.timings.refactorizations);
                    f.inclusive
                }
                (SimplexMode::Dense, None) => Duration::ZERO,
                (_, f) => panic!("{mode:?}: unexpected factor leaf {f:?}"),
            };
            let core = &s.live.as_ref().expect("live core").simplex;
            assert_eq!(factor, core.factor_time(), "{mode:?}");
            assert_eq!(simplex.inclusive + factor, core.check_time(), "{mode:?}");
            assert!(simplex.inclusive + factor <= search.inclusive, "{mode:?}");
        }
    }

    /// Adversarial retraction: a scoped contradiction must be gone — and
    /// its guarded clauses hard-deleted — after the pop, while base
    /// assertions and the core itself survive. The scoped formula is a
    /// disjunction over fresh atoms so its guard clause is genuinely
    /// stored (a bare complementary atom would root-simplify away).
    #[test]
    fn popped_scope_clauses_are_retired_from_live_core() {
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(&LinExpr::var(x).ge(LinExpr::from(0)));
        assert!(s.check_assuming(&[]).is_sat());
        s.push();
        // x ≤ −1 ∨ x ≤ −2: unsat against x ≥ 0, stored as a guarded
        // three-literal clause.
        s.assert_formula(&Formula::or(vec![
            LinExpr::var(x).le(LinExpr::from(-1)),
            LinExpr::var(x).le(LinExpr::from(-2)),
        ]));
        assert!(!s.check_assuming(&[]).is_sat());
        s.pop().unwrap();
        // The retracted disjunction must not constrain the reused core;
        // the retirement hard-deletes its guarded clauses.
        let m = s.check_assuming(&[]).expect_sat();
        assert!(m.real_value(x) >= &r(0, 1));
        let stats = s.last_stats().expect("stats").clone();
        assert_eq!(stats.timings.cache_hits, 1, "core survives the pop");
        assert!(
            stats.metrics.deleted_clauses > 0,
            "retirement should hard-delete the scope's guarded clauses"
        );
        // And a scope popped without ever being checked retires nothing.
        s.push();
        s.assert_formula(&LinExpr::var(x).lt(LinExpr::from(0)));
        s.pop().unwrap();
        assert!(s.check_assuming(&[]).is_sat());
    }

    /// Deep push/pop interleaving with re-assertion after pops: answers
    /// must track the stack exactly (the encode cursor rolls back).
    #[test]
    fn live_core_tracks_interleaved_push_pop_and_reassertion() {
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(&LinExpr::var(x).ge(LinExpr::from(0)));
        s.push();
        s.assert_formula(&LinExpr::var(x).le(LinExpr::from(10)));
        s.push();
        s.assert_formula(&LinExpr::var(x).ge(LinExpr::from(11)));
        assert!(!s.check_assuming(&[]).is_sat());
        s.pop().unwrap();
        assert!(s.check_assuming(&[]).is_sat());
        s.push();
        s.assert_formula(&LinExpr::var(x).eq_expr(LinExpr::from(7)));
        let m = s.check_assuming(&[]).expect_sat();
        assert_eq!(*m.real_value(x), r(7, 1));
        s.pop().unwrap();
        s.pop().unwrap();
        // Only the base bound remains.
        s.push();
        s.assert_formula(&LinExpr::var(x).ge(LinExpr::from(100)));
        assert!(s.check_assuming(&[]).is_sat());
        s.pop().unwrap();
        assert!(s.check_assuming(&[]).is_sat());
    }

    /// Sticky scopes: assertions bind exactly like a plain scope's while
    /// open (and the core is reused across checks), but popping one drops
    /// the live core — the next check is a cache miss and the retracted
    /// constraints are gone. A sticky scope whose assertions were never
    /// encoded pops for free.
    #[test]
    fn sticky_scope_binds_while_open_and_drops_core_on_pop() {
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(&LinExpr::var(x).ge(LinExpr::from(0)));
        s.push_sticky();
        s.assert_formula(&LinExpr::var(x).le(LinExpr::from(10)));
        assert!(s.check_assuming(&[]).is_sat());
        assert!(s.check_assuming(&[]).is_sat());
        assert_eq!(s.last_stats().expect("stats").timings.cache_hits, 1);
        // The sticky bound binds: x ≥ 11 contradicts it. A plain scope
        // nested inside still retires surgically, keeping the core.
        s.push();
        s.assert_formula(&LinExpr::var(x).ge(LinExpr::from(11)));
        assert!(!s.check_assuming(&[]).is_sat());
        s.pop().unwrap();
        assert!(s.check_assuming(&[]).is_sat());
        assert_eq!(s.last_stats().expect("stats").timings.cache_hits, 1);
        // Popping the sticky scope drops the core...
        s.pop().unwrap();
        let m = s.check_assuming(&[]).expect_sat();
        assert!(
            s.last_stats().expect("stats").timings.cache_hits == 0,
            "popping an encoded sticky scope must rebuild the core"
        );
        assert!(m.real_value(x) >= &r(0, 1));
        // ...and the retracted bound really is gone.
        s.push();
        s.assert_formula(&LinExpr::var(x).ge(LinExpr::from(100)));
        assert!(s.check_assuming(&[]).is_sat());
        s.pop().unwrap();
        // A sticky scope popped before any check encodes it costs nothing.
        s.push_sticky();
        s.assert_formula(&LinExpr::var(x).le(LinExpr::from(-1)));
        s.pop().unwrap();
        assert!(s.check_assuming(&[]).is_sat());
        assert_eq!(s.last_stats().expect("stats").timings.cache_hits, 1);
    }

    /// Full certification through the persistent core: a genuine unsat
    /// (empty failed set) replays a root refutation, an assumption-driven
    /// unsat replays a failed-assumption core, and sat models re-evaluate.
    #[test]
    fn certified_check_assuming_sat_and_unsat() {
        let mut s = Solver::new();
        s.set_certify(CertifyLevel::Full);
        let p = s.new_bool();
        let x = s.new_real();
        s.assert_formula(&Formula::var(p).implies(LinExpr::var(x).ge(LinExpr::from(5))));
        // Assumption-driven unsat: p with a scoped x = 2.
        s.push();
        s.assert_formula(&LinExpr::var(x).eq_expr(LinExpr::from(2)));
        assert!(!s.check_assuming(&[(p, true)]).is_sat());
        let stats = s.last_stats().expect("stats").clone();
        assert!(stats.certified);
        assert!(stats.proof_steps > 0);
        // Sat under the opposite assumption, model re-evaluated.
        let m = s.check_assuming(&[(p, false)]).expect_sat();
        assert!(!m.bool_value(p));
        assert!(s.last_stats().expect("stats").certified);
        s.pop().unwrap();
        // Genuine unsat (no assumptions involved): scoped 5 ≤ x ≤ 2 with
        // p asserted, so the refutation closes at the root.
        s.assert_formula(&Formula::var(p));
        s.push();
        s.assert_formula(&LinExpr::var(x).le(LinExpr::from(2)));
        assert!(!s.check_assuming(&[]).is_sat());
        assert!(s.last_stats().expect("stats").certified);
        s.pop().unwrap();
        let m = s.check_assuming(&[]).expect_sat();
        assert!(m.real_value(x) >= &r(5, 1));
    }

    /// A root-level refutation found by search is permanent for the
    /// persistent core: later checks, with or without assumptions, stay
    /// unsat (and certify) instead of resuming search past the conflict.
    #[test]
    fn root_refutation_sticks_across_live_checks() {
        let mut s = Solver::new();
        s.set_certify(CertifyLevel::Full);
        let p = s.new_bool();
        let x = s.new_real();
        let y = s.new_real();
        s.assert_formula(&LinExpr::var(x).ge(LinExpr::from(1)));
        s.assert_formula(&LinExpr::var(y).ge(LinExpr::from(1)));
        s.assert_formula(&(LinExpr::var(x) + LinExpr::var(y)).le(LinExpr::from(1)));
        s.assert_formula(&Formula::or(vec![
            Formula::var(p),
            LinExpr::var(x).ge(LinExpr::from(3)),
        ]));
        let questions: [&[(BoolVar, bool)]; 4] = [&[], &[(p, true)], &[(p, false)], &[]];
        for assumptions in questions {
            assert!(!s.check_assuming(assumptions).is_sat(), "{assumptions:?}");
            assert!(s.last_stats().expect("stats").certified, "{assumptions:?}");
        }
    }

    /// Contradictory assumptions on one variable certify as a
    /// failed-assumption core without touching any clause.
    #[test]
    fn certified_contradictory_assumptions() {
        let mut s = Solver::new();
        s.set_certify(CertifyLevel::Full);
        let p = s.new_bool();
        let x = s.new_real();
        s.assert_formula(&Formula::var(p).implies(LinExpr::var(x).ge(LinExpr::from(1))));
        assert!(!s.check_assuming(&[(p, true), (p, false)]).is_sat());
        assert!(s.last_stats().expect("stats").certified);
        // The core is still usable and consistent afterwards.
        assert!(s.check_assuming(&[(p, true)]).is_sat());
    }

    /// A zero budget must interrupt the live path at the *encode* poll
    /// site; the half-encoded core is dropped, and an unlimited re-check
    /// rebuilds it — the persistent path is never poisoned.
    #[test]
    fn zero_budget_check_assuming_encode_interrupt_is_not_poisonous() {
        let mut s = Solver::new();
        let ps: Vec<Formula> = (0..200).map(|_| Formula::var(s.new_bool())).collect();
        s.assert_formula(&Formula::at_most(ps, 3));
        s.set_budget(Budget::with_timeout(std::time::Duration::ZERO));
        let result = s.check_assuming(&[]);
        assert!(matches!(result, SatResult::Unknown(Interrupt::Timeout)), "{result:?}");
        assert_eq!(s.last_stats().expect("stats").metrics.decisions, 0);
        s.set_budget(Budget::unlimited());
        assert!(s.check_assuming(&[]).is_sat());
        // The interrupted core was dropped, so this was a cold rebuild.
        assert_eq!(s.last_stats().expect("stats").timings.cache_hits, 0);
    }

    /// An expired deadline in the *search* loop leaves the persistent core
    /// intact: the next check resets it to root and decides the instance.
    #[test]
    fn search_interrupt_keeps_live_core_usable() {
        let n = 9; // pigeonhole: 10 pigeons into 9 holes, exponential
        let mut s = Solver::new();
        let vars: Vec<Vec<BoolVar>> = (0..n + 1)
            .map(|_| (0..n).map(|_| s.new_bool()).collect())
            .collect();
        for pigeon in &vars {
            s.assert_formula(&Formula::or(
                pigeon.iter().map(|&v| Formula::var(v)).collect(),
            ));
        }
        for hole in 0..n {
            for p1 in 0..n + 1 {
                for p2 in p1 + 1..n + 1 {
                    s.assert_formula(&Formula::or(vec![
                        Formula::var(vars[p1][hole]).not(),
                        Formula::var(vars[p2][hole]).not(),
                    ]));
                }
            }
        }
        // Encode fully under no budget pressure first (sat is impossible,
        // but the first call may be interrupted mid-search — that is the
        // point: interrupt strictly inside the search loop).
        s.set_budget(Budget::with_timeout(std::time::Duration::from_millis(30)));
        let result = s.check_assuming(&[(vars[0][0], true)]);
        assert!(matches!(result, SatResult::Unknown(Interrupt::Timeout)), "{result:?}");
        // Same core, budget lifted: the full instance is still unsat, so
        // what this checks is that the surviving core answers at all.
        s.set_budget(Budget::unlimited());
        let result = s.check_assuming(&[(vars[0][0], true), (vars[1][1], true)]);
        // The instance as a whole is unsat; what matters is a decided
        // answer (not Unknown, no panic) from the surviving core.
        assert!(!result.is_unknown(), "{result:?}");
        assert_eq!(s.last_stats().expect("stats").timings.cache_hits, 1, "core survived");
    }

    /// A cancellation raised before a live check is observed at the first
    /// poll of every phase, and clearing it restores full function — the
    /// cancel path, like the timeout path, never poisons the core.
    #[test]
    fn cancelled_check_assuming_recovers() {
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(&LinExpr::var(x).ge(LinExpr::from(1)));
        assert!(s.check_assuming(&[]).is_sat()); // build the core
        let mut budget = Budget::unlimited();
        let token = budget.new_cancel_token();
        s.set_budget(budget);
        token.store(true, std::sync::atomic::Ordering::Relaxed);
        s.push();
        s.assert_formula(&LinExpr::var(x).le(LinExpr::from(9)));
        let result = s.check_assuming(&[]);
        assert!(matches!(result, SatResult::Unknown(Interrupt::Cancelled)), "{result:?}");
        token.store(false, std::sync::atomic::Ordering::Relaxed);
        assert!(s.check_assuming(&[]).is_sat());
        s.pop().unwrap();
        assert!(s.check_assuming(&[]).is_sat());
    }

    /// The profiler sees the live path's phase structure: `encode` (with a
    /// `delta` child), `search` (with a `simplex` leaf), and `certify`
    /// spans per check.
    #[test]
    fn profiler_records_live_span_tree() {
        let mut s = Solver::new();
        let prof = Profiler::new();
        s.set_profiler(prof.clone());
        s.set_certify(CertifyLevel::CheckModels);
        let x = s.new_real();
        s.assert_formula(&LinExpr::var(x).ge(LinExpr::from(1)));
        s.assert_formula(&LinExpr::var(x).le(LinExpr::from(4)));
        assert!(s.check_assuming(&[]).is_sat());
        let spans = prof.snapshot();
        let names: Vec<&str> = spans.iter().map(|n| n.name).collect();
        assert_eq!(names, ["encode", "search", "certify"], "{names:?}");
        let kids: Vec<&str> = spans[0].children.iter().map(|n| n.name).collect();
        assert_eq!(kids, ["delta"], "{kids:?}");
        assert!(
            spans[1].children.iter().any(|n| n.name == "simplex"),
            "simplex leaf missing under live search"
        );
    }
}
