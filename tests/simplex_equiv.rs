//! Revised-vs-dense simplex equivalence properties.
//!
//! The dense eager tableau is the correctness oracle for the revised
//! engine on a factorized sparse basis. Both run the same abstract
//! Dutertre–de Moura procedure over exact rationals with Bland's rule,
//! so they must agree on far more than the verdict: the pivot trajectory
//! is identical, hence so are the models (witness vectors), the
//! deterministic counters, and the conflict/certificate stream. These
//! tests pin that equivalence across the paper's IEEE evaluation ladder
//! and exercise the revised engine's new interruption points (factor,
//! FTRAN/BTRAN, eta application) against a warm session core.

use sta::campaign::{run, CampaignSpec};
use sta::core::attack::{
    AttackModel, AttackOutcome, AttackVerifier, StateTarget, VerifySession,
};
use sta::grid::{ieee14, synthetic, BusId, TestSystem};
use sta::smt::{Budget, CertifyLevel, SimplexMode};

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
