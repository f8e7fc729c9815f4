//! A self-contained SMT solver for quantifier-free linear real arithmetic
//! (QF_LRA) with full Boolean structure and cardinality constraints.
//!
//! This crate is the formal-methods substrate of the DSN'14 reproduction
//! *Security Threat Analytics and Countermeasure Synthesis for Power System
//! State Estimation*: the paper encodes undetected-false-data-injection
//! attack feasibility into Z3; we stand in for Z3 with a from-scratch
//! DPLL(T) solver — a CDCL SAT core ([`sat`]) coupled to a Dutertre–de Moura
//! general simplex ([`simplex`]) over exact rationals ([`rational`],
//! [`bigint`]).
//!
//! # Architecture
//!
//! * [`Formula`] / [`LinExpr`] — the assertion language: Boolean structure,
//!   linear-arithmetic atoms, and `at-most`/`at-least`/`exactly` cardinality.
//! * [`Solver`] — assertion stack with push/pop, `check`, model extraction,
//!   and per-check [`SolverStats`]: the check's [`PhaseMetrics`] and
//!   [`PhaseTimings`] plus problem and tableau sizes (the memory telemetry
//!   behind the paper's Table IV).
//! * [`trace`] — the one counter model: [`PhaseMetrics`] (deterministic)
//!   and [`PhaseTimings`] (observational), summed over checks into
//!   campaign and synthesis rollups, and [`phase_events`], which turns a
//!   pair into the trace stream's `phase` records.
//! * Everything is exact: coefficients are arbitrary-precision rationals and
//!   strict bounds use delta-rationals, so `sat`/`unsat` answers carry no
//!   floating-point caveats.
//!
//! # Examples
//!
//! ```
//! use sta_smt::{Formula, LinExpr, LinExprCmp, Solver};
//!
//! let mut solver = Solver::new();
//! let p = solver.new_bool();
//! let x = solver.new_real();
//! let y = solver.new_real();
//!
//! // p → x + y = 3;  ¬p → x = 0;  y ≤ 1;  x ≥ 2 ⇒ p must hold.
//! solver.assert_formula(
//!     &Formula::var(p).implies((LinExpr::var(x) + LinExpr::var(y)).eq_expr(LinExpr::from(3))),
//! );
//! solver.assert_formula(
//!     &Formula::var(p).not().implies(LinExpr::var(x).eq_expr(LinExpr::from(0))),
//! );
//! solver.assert_formula(&LinExpr::var(y).le(LinExpr::from(1)));
//! solver.assert_formula(&LinExpr::var(x).ge(LinExpr::from(2)));
//!
//! let model = solver.check().expect_sat();
//! assert!(model.bool_value(p));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod bigint;
pub mod budget;
pub mod certify;
pub mod cnf;
pub mod expr;
pub mod formula;
pub mod json;
pub mod lint;
pub mod profile;
pub mod rational;
pub mod rng;
pub mod sat;
pub mod simplex;
pub mod solver;
pub mod stats;
pub mod tablefmt;
pub mod trace;

pub use budget::{Budget, Interrupt};
pub use certify::{
    check_assumption_unsat_proof, check_theory_lemma, check_unsat_proof, eval_formula,
    AtomSemantics, CertifyError, CertifyLevel, RupChecker, TheoryContext,
};
pub use expr::{LinExpr, RealVar};
pub use formula::{BoolVar, CmpOp, Formula, LinExprCmp};
pub use lint::{lint, lint_clauses, LintFinding, LintKind, LintReport, Severity};
pub use profile::{
    flatten_spans, merge_spans, render_spans, Clock, FakeClock, Profiler, SpanGuard, SpanNode,
};
pub use rational::{DeltaRational, Rational};
pub use simplex::SimplexMode;
pub use solver::{Model, SatResult, Solver, UsageError};
pub use stats::{ProgressSample, SolverStats};
pub use tablefmt::{Align, Table};
pub use trace::{
    phase_events, CollectSink, JsonlSink, Phase, PhaseMetrics, PhaseTimings, SharedSink,
    TraceEvent, TraceSink,
};
