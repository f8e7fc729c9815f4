use super::*;
use crate::sat::{CdclSolver, LBool, SatOutcome};

/// Directly exercise the theory through a tiny CDCL harness: atoms
/// `x ≤ 1`, `x ≥ 2` (as ¬(x < 2)) must be jointly unsat.
#[test]
fn contradictory_bounds_conflict() {
    let mut simplex = Simplex::new();
    let mut sat = CdclSolver::new();
    let x = simplex.solver_var(RealVar(0));

    let a = sat.new_var(); // x ≤ 1
    sat.set_theory_var(a);
    simplex.register_atom(a, x, Rational::new(1, 1), false);
    let b = sat.new_var(); // x < 2 ; ¬b means x ≥ 2
    sat.set_theory_var(b);
    simplex.register_atom(b, x, Rational::new(2, 1), true);

    sat.add_clause(vec![Lit::positive(a)]);
    sat.add_clause(vec![Lit::negative(b)]);
    assert_eq!(sat.solve(&mut simplex), SatOutcome::Unsat);
}

/// The pivot loop polls on its first iteration, so an already-expired
/// budget interrupts a theory check before any pivot happens.
#[test]
fn zero_budget_interrupts_check_before_any_pivot() {
    let mut simplex = Simplex::new();
    let _ = simplex.solver_var(RealVar(0));
    simplex.set_budget(Budget::with_timeout(std::time::Duration::ZERO));
    assert_eq!(simplex.check(), TheoryResult::Interrupted);
    assert_eq!(simplex.pivots(), 0);
    assert_eq!(simplex.theory_checks(), 1);
}

#[test]
fn counters_track_bound_asserts_and_checks() {
    let mut simplex = Simplex::new();
    let mut sat = CdclSolver::new();
    let x = simplex.solver_var(RealVar(0));
    let a = sat.new_var(); // x ≤ 3
    sat.set_theory_var(a);
    simplex.register_atom(a, x, Rational::new(3, 1), false);
    sat.add_clause(vec![Lit::positive(a)]);
    assert_eq!(sat.solve(&mut simplex), SatOutcome::Sat);
    assert!(simplex.bound_asserts() >= 1);
    assert!(simplex.theory_checks() >= 1);
}

#[test]
fn feasible_bounds_produce_model() {
    let mut simplex = Simplex::new();
    let mut sat = CdclSolver::new();
    let x = simplex.solver_var(RealVar(0));

    let a = sat.new_var(); // x ≤ 3
    sat.set_theory_var(a);
    simplex.register_atom(a, x, Rational::new(3, 1), false);
    let b = sat.new_var(); // x ≤ 2 ; ¬b ⇒ x > 2
    sat.set_theory_var(b);
    simplex.register_atom(b, x, Rational::new(2, 1), false);

    sat.add_clause(vec![Lit::positive(a)]);
    sat.add_clause(vec![Lit::negative(b)]);
    assert_eq!(sat.solve(&mut simplex), SatOutcome::Sat);
    let model = simplex.concrete_model();
    let v = &model[0];
    assert!(*v > Rational::new(2, 1) && *v <= Rational::new(3, 1), "got {v}");
}

/// x + y ≤ 1 together with x ≥ 1 and y ≥ 1 is unsat; dropping one of
/// the lower bounds makes it sat.
#[test]
fn sum_constraint_via_slack() {
    let mut simplex = Simplex::new();
    let mut sat = CdclSolver::new();
    let x = RealVar(0);
    let y = RealVar(1);
    let form = LinExpr::var(x) + LinExpr::var(y);
    let s = simplex.var_for_form(&form);
    let sx = simplex.solver_var(x);
    let sy = simplex.solver_var(y);

    let a = sat.new_var(); // x+y ≤ 1
    sat.set_theory_var(a);
    simplex.register_atom(a, s, Rational::new(1, 1), false);
    let b = sat.new_var(); // x < 1 ; ¬b ⇒ x ≥ 1
    sat.set_theory_var(b);
    simplex.register_atom(b, sx, Rational::new(1, 1), true);
    let c = sat.new_var(); // y < 1 ; ¬c ⇒ y ≥ 1
    sat.set_theory_var(c);
    simplex.register_atom(c, sy, Rational::new(1, 1), true);

    sat.add_clause(vec![Lit::positive(a)]);
    sat.add_clause(vec![Lit::negative(b)]);
    sat.add_clause(vec![Lit::negative(c)]);
    assert_eq!(sat.solve(&mut simplex), SatOutcome::Unsat);
}

#[test]
fn sat_case_with_slack_and_choice() {
    let mut simplex = Simplex::new();
    let mut sat = CdclSolver::new();
    let x = RealVar(0);
    let y = RealVar(1);
    let form = LinExpr::var(x) + LinExpr::var(y);
    let s = simplex.var_for_form(&form);
    let sx = simplex.solver_var(x);

    let a = sat.new_var(); // x+y ≤ 1
    sat.set_theory_var(a);
    simplex.register_atom(a, s, Rational::new(1, 1), false);
    let b = sat.new_var(); // x ≤ -5
    sat.set_theory_var(b);
    simplex.register_atom(b, sx, Rational::new(-5, 1), false);
    // Either x+y ≤ 1 or x ≤ -5 must hold; both is fine too.
    sat.add_clause(vec![Lit::positive(a), Lit::positive(b)]);
    assert_eq!(sat.solve(&mut simplex), SatOutcome::Sat);
    let model = simplex.concrete_model();
    let xv = &model[0];
    let yv = &model[1];
    let asserted_a = sat.value(a) == LBool::True;
    let asserted_b = sat.value(b) == LBool::True;
    assert!(asserted_a || asserted_b);
    if asserted_a {
        assert!(&(xv + yv) <= &Rational::new(1, 1));
    }
    if asserted_b {
        assert!(xv <= &Rational::new(-5, 1));
    }
}

/// Dedup: the same linear form registered twice yields one slack.
#[test]
fn slack_deduplication() {
    let mut simplex = Simplex::new();
    let form = LinExpr::var(RealVar(0)) + LinExpr::var(RealVar(1));
    let s1 = simplex.var_for_form(&form);
    let s2 = simplex.var_for_form(&form.clone());
    assert_eq!(s1, s2);
    assert_eq!(simplex.num_rows(), 1);
}

/// Builds the `sum_constraint_via_slack` scenario on a solver in the
/// given mode and returns (outcome, pivots, bound_asserts, theory_checks).
fn run_sum_scenario(mode: SimplexMode, drop_one_lb: bool) -> (SatOutcome, u64, u64, u64) {
    let mut simplex = Simplex::with_mode(mode);
    let mut sat = CdclSolver::new();
    let x = RealVar(0);
    let y = RealVar(1);
    let form = LinExpr::var(x) + LinExpr::var(y);
    let s = simplex.var_for_form(&form);
    let sx = simplex.solver_var(x);
    let sy = simplex.solver_var(y);

    let a = sat.new_var(); // x+y ≤ 1
    sat.set_theory_var(a);
    simplex.register_atom(a, s, Rational::new(1, 1), false);
    let b = sat.new_var(); // x < 1 ; ¬b ⇒ x ≥ 1
    sat.set_theory_var(b);
    simplex.register_atom(b, sx, Rational::new(1, 1), true);
    let c = sat.new_var(); // y < 1 ; ¬c ⇒ y ≥ 1
    sat.set_theory_var(c);
    simplex.register_atom(c, sy, Rational::new(1, 1), true);

    sat.add_clause(vec![Lit::positive(a)]);
    sat.add_clause(vec![Lit::negative(b)]);
    if !drop_one_lb {
        sat.add_clause(vec![Lit::negative(c)]);
    }
    let outcome = sat.solve(&mut simplex);
    (outcome, simplex.pivots(), simplex.bound_asserts(), simplex.theory_checks())
}

/// The revised engine must replay the dense engine's trajectory exactly:
/// same verdicts and identical deterministic counters on both the unsat
/// and the sat variant of the slack scenario.
#[test]
fn revised_matches_dense_trajectory_on_slack_scenarios() {
    for drop_one_lb in [false, true] {
        let dense = run_sum_scenario(SimplexMode::Dense, drop_one_lb);
        let revised = run_sum_scenario(SimplexMode::Revised, drop_one_lb);
        assert_eq!(dense, revised, "drop_one_lb={drop_one_lb}");
    }
}

/// An exhausted budget interrupts the revised engine at its first poll
/// site (the basis factorization or the loop head) without poisoning the
/// warm core: clearing the budget and re-checking succeeds.
#[test]
fn revised_zero_budget_interrupts_and_core_stays_warm() {
    let mut simplex = Simplex::with_mode(SimplexMode::Revised);
    let form = LinExpr::var(RealVar(0)) + LinExpr::var(RealVar(1));
    let _ = simplex.var_for_form(&form);
    simplex.set_budget(Budget::with_timeout(std::time::Duration::ZERO));
    assert_eq!(simplex.check(), TheoryResult::Interrupted);
    assert_eq!(simplex.pivots(), 0);
    simplex.set_budget(Budget::unlimited());
    assert_eq!(simplex.check(), TheoryResult::Ok);
}

/// `Simplex::new()` runs the revised engine from its first row: the
/// first check factors the basis, and no check switches engines.
#[test]
fn new_simplex_runs_revised_from_its_first_row() {
    let mut simplex = Simplex::new();
    assert!(matches!(simplex.backend, Backend::Revised(_)));
    let form = LinExpr::var(RealVar(0)) + LinExpr::var(RealVar(1));
    let _ = simplex.var_for_form(&form);
    assert_eq!(simplex.check(), TheoryResult::Ok);
    assert!(matches!(simplex.backend, Backend::Revised(_)));
    assert_eq!(simplex.refactorizations(), 1);
}
