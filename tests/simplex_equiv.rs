//! Revised-vs-dense simplex equivalence properties.
//!
//! The dense eager tableau is the correctness oracle for the revised
//! engine on a factorized sparse basis. Both run the same abstract
//! Dutertre–de Moura procedure over exact rationals with Bland's rule,
//! so they must agree on far more than the verdict: the pivot trajectory
//! is identical, hence so are the models (witness vectors), the
//! deterministic counters, and the conflict/certificate stream. These
//! tests pin that equivalence across the paper's IEEE evaluation ladder
//! and on seeded random formulas, and exercise the revised engine's
//! interruption points (factor, FTRAN/BTRAN, eta application) against a
//! warm session core. The dense oracle repairs and scans every variable
//! on each check, so agreement also checks the revised engine's
//! incremental bookkeeping (the touched list and the candidate set).
//!
//! `cargo test --release --test simplex_equiv -- --ignored` runs the
//! formula differential over many more seeds.

use sta::campaign::{run, CampaignSpec};
use sta::core::attack::{
    AttackModel, AttackOutcome, AttackVerifier, StateTarget, VerifySession,
};
use sta::grid::{ieee14, synthetic, BusId, TestSystem};
use sta::linalg::rng::Pcg32;
use sta::smt::{
    BoolVar, Budget, CertifyLevel, Formula, LinExpr, LinExprCmp, Rational, RealVar, SatResult,
    SimplexMode, Solver,
};

/// The §V-B ladder sizes the equivalence is pinned at. 300 runs only the
/// cheap blocked scenario below (debug-build test time); the full sat
/// checks stop at 118 here and are CI's job via `sta bench --suite scale`.
const SIZES: [usize; 5] = [14, 30, 57, 118, 300];

fn system_for(buses: usize) -> TestSystem {
    if buses == 14 {
        ieee14::system()
    } else {
        synthetic::ieee_case(buses)
    }
}

/// The scenario families each size is checked under.
fn scenarios(buses: usize) -> Vec<(String, AttackModel)> {
    let mut out = vec![(
        format!("blocked-{buses}"),
        AttackModel::new(buses).max_altered_measurements(0),
    )];
    if buses <= 118 {
        out.push((
            format!("open-{buses}"),
            AttackModel::new(buses).target(BusId(buses / 2), StateTarget::MustChange),
        ));
        out.push((
            format!("capped-{buses}"),
            AttackModel::new(buses)
                .target(BusId(buses - 2), StateTarget::MustChange)
                .max_altered_measurements(10)
                .max_compromised_buses(4),
        ));
    }
    out
}

#[test]
fn revised_matches_dense_verdict_model_and_pivots_at_every_size() {
    for &b in &SIZES {
        let sys = system_for(b);
        for (label, model) in scenarios(b) {
            let dense = AttackVerifier::new(&sys)
                .unwrap()
                .with_simplex(SimplexMode::Dense)
                .verify_with_stats(&model);
            let revised = AttackVerifier::new(&sys)
                .unwrap()
                .with_simplex(SimplexMode::Revised)
                .verify_with_stats(&model);
            match (&dense.outcome, &revised.outcome) {
                (AttackOutcome::Feasible(wd), AttackOutcome::Feasible(wr)) => {
                    // Model equality is exact: both engines walk the same
                    // rational pivot trajectory, so the witnesses agree
                    // bit for bit, not merely within tolerance.
                    assert_eq!(wd, wr, "{label}: witness vectors differ");
                }
                (AttackOutcome::Infeasible, AttackOutcome::Infeasible) => {}
                (d, r) => panic!("{label}: dense {d:?} vs revised {r:?}"),
            }
            // Identical trajectory ⇒ identical deterministic counters.
            assert_eq!(
                dense.stats.metrics.pivots, revised.stats.metrics.pivots,
                "{label}: pivots"
            );
            assert_eq!(
                dense.stats.metrics.bound_asserts, revised.stats.metrics.bound_asserts,
                "{label}: bound_asserts"
            );
            assert_eq!(
                dense.stats.metrics.theory_checks, revised.stats.metrics.theory_checks,
                "{label}: theory_checks"
            );
            assert_eq!(
                dense.stats.metrics.conflicts, revised.stats.metrics.conflicts,
                "{label}: conflicts"
            );
            assert_eq!(
                dense.stats.metrics.decisions, revised.stats.metrics.decisions,
                "{label}: decisions"
            );
            // The refactorization counter stays on the observational side:
            // zero for the dense oracle by construction.
            assert_eq!(dense.stats.timings.refactorizations, 0, "{label}");
        }
    }
}

/// Full certification (Farkas certificate replay + model audits) passes
/// identically under both engines: the revised engine reproduces not just
/// verdicts but the exact conflict explanations the checker replays.
#[test]
fn certified_runs_agree_across_engines() {
    for &b in &[14usize, 30, 57] {
        let sys = system_for(b);
        for (label, model) in scenarios(b) {
            for mode in [SimplexMode::Dense, SimplexMode::Revised] {
                let report = AttackVerifier::new(&sys)
                    .unwrap()
                    .with_certify(CertifyLevel::Full)
                    .with_simplex(mode)
                    .verify_with_stats(&model);
                assert!(report.stats.certified, "{label}: {mode:?} run not certified");
                assert_eq!(report.stats.lint_errors, 0, "{label}");
            }
        }
    }
}

/// A zero budget interrupts the revised engine at its kernel poll sites
/// (factorization, FTRAN/BTRAN, eta application all poll the same
/// closure) and the interruption must not poison the warm session core:
/// the next unlimited check on the same core still answers, and answers
/// exactly like the dense oracle.
#[test]
fn zero_budget_interrupts_without_poisoning_the_warm_core() {
    let b = 57;
    let sys = system_for(b);
    let open = AttackModel::new(b).target(BusId(b / 2), StateTarget::MustChange);

    let mut session = VerifySession::with_verifier(
        AttackVerifier::new(&sys).unwrap().with_simplex(SimplexMode::Revised),
        false,
    );
    // Interrupt the very first check (cold core: the factor path polls),
    // then again on the warmed core (eta/solve paths poll).
    for round in 0..2 {
        let report =
            session.verify_with_budget(&open, &Budget::with_timeout(std::time::Duration::ZERO));
        assert!(
            matches!(report.outcome, AttackOutcome::Unknown(_)),
            "round {round}: expected interruption, got {:?}",
            report.outcome
        );
        let report = session.verify(&open);
        let AttackOutcome::Feasible(w) = &report.outcome else {
            panic!("round {round}: warm core poisoned: {:?}", report.outcome);
        };
        // Same trajectory as a fresh dense run — the interrupted attempt
        // left no partial pivot state behind.
        let dense = AttackVerifier::new(&sys)
            .unwrap()
            .with_simplex(SimplexMode::Dense)
            .verify_with_stats(&open);
        let AttackOutcome::Feasible(wd) = &dense.outcome else {
            panic!("dense oracle disagrees: {:?}", dense.outcome);
        };
        assert_eq!(w, wd, "round {round}: witness drifted after interruption");
    }
}

/// The unpinned default engine must agree with the dense oracle on both
/// sides of the old 256-row engine switch (14 and 118 buses).
#[test]
fn default_engine_agrees_with_the_dense_oracle() {
    for &b in &[14usize, 118] {
        let sys = system_for(b);
        let model = AttackModel::new(b).target(BusId(b / 2), StateTarget::MustChange);
        let default = AttackVerifier::new(&sys).unwrap().verify_with_stats(&model);
        let dense = AttackVerifier::new(&sys)
            .unwrap()
            .with_simplex(SimplexMode::Dense)
            .verify_with_stats(&model);
        let (AttackOutcome::Feasible(wa), AttackOutcome::Feasible(wd)) =
            (&default.outcome, &dense.outcome)
        else {
            panic!("case {b}: expected feasible under both engines");
        };
        assert_eq!(wa, wd, "case {b}: the default engine diverged");
        assert_eq!(default.stats.metrics.pivots, dense.stats.metrics.pivots, "case {b}");
    }
}

/// The certified 14-bus sweep with one forced-timeout job, on 4 workers,
/// writes byte-identical timing-stripped reports on the dense oracle and
/// on the default engine: the revised engine replays the dense pivot
/// trajectory exactly, so only the clock may differ.
#[test]
fn campaign_reports_are_byte_identical_across_engines() {
    let mut spec = CampaignSpec::standard_sweep("ieee14", ieee14::system());
    let doomed = spec.verify(0, "forced-timeout", AttackModel::new(14));
    spec.set_job_timeout_ms(doomed, 0);
    let spec = spec.with_certify(CertifyLevel::Full);
    let dense = run(&spec.clone().with_simplex(SimplexMode::Dense), 4);
    let default = run(&spec, 4);
    for report in [&dense, &default] {
        assert!(report.results[doomed].verdict.is_unknown(), "forced job must be unknown");
    }
    assert_eq!(
        dense.to_json(false),
        default.to_json(false),
        "timing-stripped campaign reports differ between the dense oracle and the default engine"
    );
}

/// A coefficient or constant: a small integer, a small fraction, or a
/// decimal with fifteen significant digits, whose cross products
/// overflow `i64` and so pass through the kernels as boxed rationals.
fn coefficient(rng: &mut Pcg32) -> Rational {
    match rng.below(4) {
        0 => Rational::from(rng.range_i64(-4, 4)),
        1 => Rational::new(rng.range_i64(-9, 9), rng.range_i64(1, 7)),
        _ => {
            let sign = if rng.flip() { "-" } else { "" };
            let text = format!("{sign}{}.{:07}", rng.below(100_000_000), rng.below(10_000_000));
            Rational::from_decimal_str(&text).expect("generated decimal parses")
        }
    }
}

/// A linear atom over one to three of the `reals`.
fn atom(rng: &mut Pcg32, reals: usize) -> Formula {
    let mut lhs = LinExpr::from(0);
    for _ in 0..1 + rng.below(3) {
        lhs = lhs + LinExpr::term(coefficient(rng), RealVar(rng.below(reals) as u32));
    }
    let rhs = LinExpr::constant(coefficient(rng));
    match rng.below(5) {
        0 => lhs.le(rhs),
        1 => lhs.lt(rhs),
        2 => lhs.ge(rhs),
        3 => lhs.gt(rhs),
        _ => lhs.eq_expr(rhs),
    }
}

/// A random Boolean combination of atoms and Boolean variables, with
/// at-most/at-least constraints over atom literals.
fn formula(rng: &mut Pcg32, reals: usize, bools: usize, depth: usize) -> Formula {
    if depth == 0 || rng.below(4) == 0 {
        return if rng.below(5) == 0 {
            Formula::lit(BoolVar(rng.below(bools) as u32), rng.flip())
        } else {
            atom(rng, reals)
        };
    }
    let children = |rng: &mut Pcg32| -> Vec<Formula> {
        let n = 2 + rng.below(2);
        (0..n).map(|_| formula(rng, reals, bools, depth - 1)).collect()
    };
    match rng.below(6) {
        0 => Formula::and(children(rng)),
        1 => Formula::or(children(rng)),
        2 => formula(rng, reals, bools, depth - 1).not(),
        3 => formula(rng, reals, bools, depth - 1).implies(formula(rng, reals, bools, depth - 1)),
        kind => {
            let members: Vec<Formula> = (0..2 + rng.below(3))
                .map(|_| {
                    let a = atom(rng, reals);
                    if rng.flip() {
                        a.not()
                    } else {
                        a
                    }
                })
                .collect();
            let k = rng.below(members.len() + 1);
            if kind == 4 {
                Formula::at_most(members, k)
            } else {
                Formula::at_least(members, k)
            }
        }
    }
}

/// What one run of an instance must reproduce on the other engine.
#[derive(Debug, PartialEq)]
struct Run {
    /// `None` for unsat; the model's reals and Booleans for sat.
    model: Option<(Vec<Rational>, Vec<bool>)>,
    /// Decisions, conflicts, pivots, theory checks and bound asserts.
    counters: [u64; 5],
}

fn solve(
    formulas: &[Formula],
    reals: usize,
    bools: usize,
    mode: SimplexMode,
    level: CertifyLevel,
) -> Run {
    let mut solver = Solver::new();
    solver.set_simplex_mode(mode);
    solver.set_certify(level);
    let real_vars: Vec<RealVar> = (0..reals).map(|_| solver.new_real()).collect();
    let bool_vars: Vec<BoolVar> = (0..bools).map(|_| solver.new_bool()).collect();
    for f in formulas {
        solver.assert_formula(f);
    }
    let result = solver
        .check_certified()
        .unwrap_or_else(|e| panic!("{mode:?} at {level:?} failed to certify: {e}"));
    let stats = solver.last_stats().expect("a check leaves stats").clone();
    let m = &stats.metrics;
    let model = match result {
        SatResult::Sat(model) => Some((
            real_vars.iter().map(|&v| model.real_value(v).clone()).collect(),
            bool_vars.iter().map(|&v| model.bool_value(v)).collect(),
        )),
        SatResult::Unsat => None,
        SatResult::Unknown(why) => panic!("{mode:?} at {level:?}: unknown ({why}) without a budget"),
    };
    let certifies = match level {
        CertifyLevel::Off => false,
        CertifyLevel::CheckModels => model.is_some(),
        CertifyLevel::Full => true,
    };
    assert_eq!(stats.certified, certifies, "{mode:?} at {level:?}: certification");
    Run {
        model,
        counters: [m.decisions, m.conflicts, m.pivots, m.theory_checks, m.bound_asserts],
    }
}

/// Seeded random formulas over 2–6 reals, each checked on the dense
/// oracle and the revised engine at every certification level: every
/// combination gives the same verdict, the engines give equal models and
/// equal search and simplex counters at each level, and every certified
/// run certifies. Instances that full certification's deny-mode lint
/// rejects before solving are redrawn.
fn formula_differential(seeds: std::ops::Range<u64>, per_seed: usize) {
    let mut sat = 0;
    let mut unsat = 0;
    for seed in seeds {
        let mut rng = Pcg32::new(0xd1ff ^ seed);
        let mut done = 0;
        while done < per_seed {
            let reals = 2 + rng.below(5);
            let bools = 1 + rng.below(3);
            let formulas: Vec<Formula> =
                (0..3 + rng.below(6)).map(|_| formula(&mut rng, reals, bools, 3)).collect();
            let mut lint = Solver::new();
            for _ in 0..reals {
                lint.new_real();
            }
            for _ in 0..bools {
                lint.new_bool();
            }
            for f in &formulas {
                lint.assert_formula(f);
            }
            if lint.lint().has_errors() {
                continue;
            }
            done += 1;
            let mut verdict = None;
            for level in [CertifyLevel::Off, CertifyLevel::CheckModels, CertifyLevel::Full] {
                let dense = solve(&formulas, reals, bools, SimplexMode::Dense, level);
                let revised = solve(&formulas, reals, bools, SimplexMode::Revised, level);
                assert_eq!(
                    dense, revised,
                    "seed {seed}, instance {done}, {level:?}: engines diverge on {formulas:?}"
                );
                let is_sat = dense.model.is_some();
                assert_eq!(*verdict.get_or_insert(is_sat), is_sat, "seed {seed}: verdict moved");
            }
            if verdict == Some(true) {
                sat += 1;
            } else {
                unsat += 1;
            }
        }
    }
    assert!(sat > 0 && unsat > 0, "degenerate draw: {sat} sat, {unsat} unsat");
}

#[test]
fn random_formulas_agree_across_engines_and_certify_levels() {
    formula_differential(0..3, 12);
}

#[test]
#[ignore = "many-seed sweep; run in release"]
fn random_formulas_agree_across_engines_and_certify_levels_many_seeds() {
    formula_differential(3..53, 20);
}
