//! Incremental verification sessions: many scenarios, one base encoding.
//!
//! A sweep over attack-model variants (the paper's Figs. 4–5 grids, the
//! campaign engine's job lists) re-verifies the *same* test system under
//! different attributes. Rebuilding the full §III encoding for every
//! variant wastes most of the work: the line semantics, alteration
//! linking, protection and `cz → cb` constraints depend only on the
//! system. A [`VerifySession`] asserts that scenario-independent base
//! once, then runs each variant inside a solver push/pop scope:
//! [`sta_smt::Solver::check`] encodes the base into a template once and
//! solves a fresh clone of it per variant, so every verdict and counter
//! depends on its variant alone. Re-verifying one scenario under growing
//! secured sets ([`VerifySession::verify_assuming`]) instead runs on the
//! solver's persistent core, which keeps learned clauses and the simplex
//! basis across calls.
//!
//! Sessions are keyed by topology support: a base built with `el`/`il`
//! variables serves both topology and non-topology scenarios (the latter
//! pin the variables false), but the extra variables and conditional
//! constraints make every check in the session pay the topology encoding.
//! Callers that mix both kinds heavily should hold one session per kind —
//! the campaign worker pool does exactly that.

use crate::attack::model::AttackModel;
use crate::attack::vector::{AttackOutcome, VerificationReport};
use crate::attack::verifier::{AttackEncoding, AttackVerifier};
use sta_estimator::PowerFlowError;
use sta_grid::{BusId, MeasurementId, TestSystem};
use sta_smt::{Budget, SatResult, Solver};
use std::sync::Arc;

/// A reusable verification context over one test system.
///
/// # Examples
///
/// ```
/// use sta_core::attack::{AttackModel, StateTarget, VerifySession};
/// use sta_grid::{ieee14, BusId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = ieee14::system();
/// let mut session = VerifySession::new(&sys, false)?;
/// let open = AttackModel::new(14).target(BusId(11), StateTarget::MustChange);
/// let blocked = open.clone().max_altered_measurements(0);
/// assert!(session.verify(&open).outcome.is_feasible());
/// assert!(!session.verify(&blocked).outcome.is_feasible());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct VerifySession {
    verifier: AttackVerifier,
    solver: Solver,
    enc: AttackEncoding,
}

impl VerifySession {
    /// Builds a session over `system` with the default operating point.
    /// With `topology` set, the base encoding carries the `el`/`il`
    /// machinery so scenarios may enable topology poisoning.
    ///
    /// The session owns its case data (shared via `Arc` internally), so
    /// it can outlive the borrow of `system` — a cache of live sessions
    /// is free to keep it warm across call stacks and threads.
    ///
    /// # Errors
    /// As [`AttackVerifier::new`]: an islanded system has no operating
    /// point to anchor on.
    pub fn new(system: &TestSystem, topology: bool) -> Result<Self, PowerFlowError> {
        Ok(Self::with_verifier(AttackVerifier::new(system)?, topology))
    }

    /// Builds a session over an already-shared system without cloning
    /// the case data.
    ///
    /// # Errors
    /// As [`AttackVerifier::shared`].
    pub fn shared(system: Arc<TestSystem>, topology: bool) -> Result<Self, PowerFlowError> {
        Ok(Self::with_verifier(AttackVerifier::shared(system)?, topology))
    }

    /// Builds a session around a configured verifier (operating point,
    /// certification level).
    pub fn with_verifier(verifier: AttackVerifier, topology: bool) -> Self {
        let mut solver = Solver::new();
        solver.set_certify(verifier.certify_level());
        // Inherit the verifier's observability configuration so a
        // profiled campaign worker sees session checks too.
        verifier.configure_solver(&mut solver);
        let enc = verifier.encode_base(&mut solver, topology);
        VerifySession { verifier, solver, enc }
    }

    /// Attaches a span profiler to the session's solver: each
    /// [`VerifySession::verify`] records a `verify` span whose `encode`
    /// child splits into `base` (cache extension) vs `delta` (the
    /// scenario's scoped constraints) — the base-reuse story in time.
    pub fn set_profiler(&mut self, profiler: sta_smt::Profiler) {
        self.verifier.set_profiler(profiler.clone());
        self.solver.set_profiler(profiler);
    }

    /// Enables progress-timeline sampling on the session's checks.
    pub fn set_progress_sampling(&mut self, on: bool) {
        self.verifier.set_progress_sampling(on);
        self.solver.set_progress_sampling(on);
    }

    /// The underlying verifier.
    pub fn verifier(&self) -> &AttackVerifier {
        &self.verifier
    }

    /// Whether the base encoding supports topology-attack scenarios.
    pub fn supports_topology(&self) -> bool {
        self.enc.topology
    }

    /// Verifies one scenario, honoring its [`AttackModel::timeout_ms`].
    ///
    /// # Panics
    /// Panics on scenario/system shape mismatches and on scenarios that
    /// enable topology attacks in a session built without them (see
    /// [`VerifySession::new`]).
    pub fn verify(&mut self, model: &AttackModel) -> VerificationReport {
        self.verify_with_budget(model, &Budget::from_timeout_ms(model.timeout_ms))
    }

    /// Verifies one scenario under an explicit budget. The scenario's
    /// constraints live in a push/pop scope, so the session is immediately
    /// reusable afterwards — including after an `Unknown` verdict.
    ///
    /// # Panics
    /// See [`VerifySession::verify`].
    pub fn verify_with_budget(
        &mut self,
        model: &AttackModel,
        budget: &Budget,
    ) -> VerificationReport {
        let _sp = self
            .verifier
            .profiler()
            .map(|p| p.span("verify"));
        self.solver
            .set_certify(self.verifier.certify_level().max(model.certify));
        self.solver.push();
        self.verifier
            .assert_scenario(&mut self.solver, &self.enc, model);
        self.solver.set_budget(budget.clone());
        let result = self.solver.check();
        let stats = self.solver.last_stats().cloned().unwrap_or_default();
        let outcome = match result {
            SatResult::Unsat => AttackOutcome::Infeasible,
            SatResult::Unknown(why) => AttackOutcome::Unknown(why),
            SatResult::Sat(m) => AttackOutcome::Feasible(Box::new(
                self.verifier.extract_vector(&self.enc, &m),
            )),
        };
        self.solver.set_budget(Budget::unlimited());
        // The matching push is at the top of this method.
        let popped = self.solver.pop();
        debug_assert!(popped.is_ok());
        VerificationReport { outcome, stats }
    }

    /// Opens a scenario scope for assumption-based re-verification:
    /// asserts `model` into a scope and leaves it open. Subsequent
    /// [`VerifySession::verify_assuming`] calls re-check that scenario
    /// under secured-set deltas expressed as solver assumptions, so the
    /// persistent incremental core keeps its learned clauses and warm
    /// simplex basis across calls. Close with
    /// [`VerifySession::end_scenario`].
    ///
    /// # Panics
    /// See [`VerifySession::verify`] for the shape-mismatch panics.
    pub fn begin_scenario(&mut self, model: &AttackModel) {
        self.solver
            .set_certify(self.verifier.certify_level().max(model.certify));
        // A sticky scope: the live core encodes the scenario unguarded
        // (full root simplification — no activation-literal tax on the
        // first search), trading surgical retraction for a core rebuild
        // when `end_scenario` pops.
        self.solver.push_sticky();
        self.verifier
            .assert_scenario(&mut self.solver, &self.enc, model);
    }

    /// Re-verifies the open scenario with the given *extra* secured buses
    /// and measurements layered on as per-call assumptions (Eq. 28
    /// deltas). Must be called between [`VerifySession::begin_scenario`]
    /// and [`VerifySession::end_scenario`]; the deltas are retracted
    /// automatically when the call returns, whatever the verdict.
    pub fn verify_assuming(
        &mut self,
        extra_secured_buses: &[BusId],
        extra_secured_measurements: &[MeasurementId],
        budget: &Budget,
    ) -> VerificationReport {
        let _sp = self.verifier.profiler().map(|p| p.span("verify"));
        let assumptions = self.verifier.secured_delta_assumptions(
            &self.enc,
            extra_secured_buses,
            extra_secured_measurements,
        );
        self.solver.set_budget(budget.clone());
        let result = self.solver.check_assuming(&assumptions);
        let stats = self.solver.last_stats().cloned().unwrap_or_default();
        let outcome = match result {
            SatResult::Unsat => AttackOutcome::Infeasible,
            SatResult::Unknown(why) => AttackOutcome::Unknown(why),
            SatResult::Sat(m) => AttackOutcome::Feasible(Box::new(
                self.verifier.extract_vector(&self.enc, &m),
            )),
        };
        self.solver.set_budget(Budget::unlimited());
        VerificationReport { outcome, stats }
    }

    /// Closes the scope opened by [`VerifySession::begin_scenario`],
    /// retiring the scenario's constraints from the persistent core. The
    /// session is then ready for another scenario (or plain
    /// [`VerifySession::verify`] calls).
    ///
    /// # Panics
    /// Panics if no scenario scope is open.
    pub fn end_scenario(&mut self) {
        self.solver
            .pop()
            .unwrap_or_else(|e| panic!("end_scenario without begin_scenario: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{AttackVerifier, StateTarget};
    use sta_grid::{ieee14, BusId, MeasurementId};
    use std::time::Duration;

    /// Sessions own their case data: one may be built from a short-lived
    /// borrow, moved to another thread, and used after the original
    /// system is gone — the contract the service layer's warm-session
    /// cache depends on.
    #[test]
    fn session_outlives_its_source_borrow_and_crosses_threads() {
        fn assert_send<T: Send>(v: T) -> T {
            v
        }
        let mut session = {
            let sys = ieee14::system();
            VerifySession::new(&sys, false).unwrap()
        };
        let open = AttackModel::new(14).target(BusId(11), StateTarget::MustChange);
        assert!(session.verify(&open).outcome.is_feasible());
        let mut session = assert_send(session);
        let handle = std::thread::spawn(move || {
            let report = session.verify(&open);
            (report.outcome.is_feasible(), report.stats.timings.cache_hits == 1)
        });
        let (feasible, warm) = handle.join().expect("worker thread");
        assert!(feasible);
        assert!(warm, "the moved session must keep its warm base encoding");
    }

    /// Regression: a scenario carrying `timeout-ms` = `u64::MAX` (an
    /// unvalidated client value) used to overflow `Instant` arithmetic in
    /// `Budget::with_timeout` and panic the worker. It must behave as "no
    /// deadline" and verify normally.
    #[test]
    fn huge_scenario_timeout_does_not_panic_the_session() {
        let sys = ieee14::system();
        let mut session = VerifySession::new(&sys, false).unwrap();
        let model = AttackModel::new(14)
            .target(BusId(11), StateTarget::MustChange)
            .with_timeout_ms(u64::MAX);
        let report = session.verify(&model);
        assert!(report.outcome.is_feasible());
    }

    /// Session verdicts must agree with one-shot verification across a
    /// mixed sweep of variants.
    #[test]
    fn session_matches_one_shot_verdicts() {
        let sys = ieee14::system();
        let mut session = VerifySession::new(&sys, false).unwrap();
        let one_shot = AttackVerifier::new(&sys).unwrap();
        let variants = [
            AttackModel::new(14),
            AttackModel::new(14).target(BusId(11), StateTarget::MustChange),
            AttackModel::new(14).max_altered_measurements(0),
            AttackModel::new(14)
                .target(BusId(11), StateTarget::MustChange)
                .max_altered_measurements(10)
                .max_compromised_buses(4),
            AttackModel::new(14)
                .target(BusId(0), StateTarget::MustChange),
            AttackModel::new(14).unknown_lines(20, &[2, 16]),
        ];
        for model in &variants {
            let incremental = session.verify(model).outcome.is_feasible();
            let fresh = one_shot.verify(model).is_feasible();
            assert_eq!(incremental, fresh, "{model:?}");
        }
    }

    /// A topology-capable session must serve plain scenarios (pinning
    /// el/il false) with unchanged verdicts, and still find topology
    /// attacks when asked.
    #[test]
    fn topology_session_serves_both_scenario_kinds() {
        let sys = ieee14::system_unsecured();
        let mut session = VerifySession::new(&sys, true).unwrap();
        assert!(session.supports_topology());
        let mut pinned = AttackModel::new(14)
            .target(BusId(11), StateTarget::MustChange)
            .secure_measurement(MeasurementId(45));
        for j in 0..14 {
            if j != 11 {
                pinned = pinned.target(BusId(j), StateTarget::MustNotChange);
            }
        }
        let poisoned = pinned.clone().with_topology_attack();
        // Without meter 46 and without topology poisoning this goal is
        // infeasible; poisoning the topology unlocks it (paper §III-E).
        let plain = session.verify(&pinned);
        assert!(!plain.outcome.is_feasible());
        let topo = session.verify(&poisoned).outcome.expect_feasible();
        assert!(topo.uses_topology_attack());
        // And the verdicts match the one-shot paths.
        let verifier = AttackVerifier::new(&sys).unwrap();
        assert!(!verifier.verify(&pinned).is_feasible());
        assert!(verifier.verify(&poisoned).is_feasible());
    }

    /// The first check in a session builds the base (one miss); every
    /// later variant reuses it (hits). This is the observability signal
    /// rolled into the campaign trace.
    #[test]
    fn session_counts_base_cache_hits() {
        let sys = ieee14::system();
        let mut session = VerifySession::new(&sys, false).unwrap();
        let open = AttackModel::new(14).target(BusId(11), StateTarget::MustChange);
        let blocked = open.clone().max_altered_measurements(0);
        let cache = |report: VerificationReport| {
            (report.stats.timings.cache_hits, report.stats.timings.cache_misses)
        };
        assert_eq!(cache(session.verify(&open)), (0, 1));
        assert_eq!(cache(session.verify(&blocked)), (1, 0));
        assert_eq!(cache(session.verify(&open)), (1, 0));
    }

    /// An exhausted budget yields Unknown and leaves the session usable.
    #[test]
    fn timed_out_job_leaves_session_reusable() {
        let sys = ieee14::system();
        let mut session = VerifySession::new(&sys, false).unwrap();
        let model = AttackModel::new(14);
        let report =
            session.verify_with_budget(&model, &Budget::with_timeout(Duration::ZERO));
        assert!(report.outcome.is_unknown(), "{:?}", report.outcome);
        // Next job on the same session, unlimited: decidable again.
        assert!(session.verify(&model).outcome.is_feasible());
    }

    /// Assumption-based re-verification of an open scenario must agree
    /// with the equivalent assert-based hardened model.
    #[test]
    fn scenario_assumptions_match_hardened_model_verdicts() {
        let sys = ieee14::system_unsecured();
        let one_shot = AttackVerifier::new(&sys).unwrap();
        let attacker = AttackModel::new(14)
            .target(BusId(11), StateTarget::MustChange)
            .max_altered_measurements(8);
        let bus_sets: [&[BusId]; 4] = [
            &[],
            &[BusId(11)],
            &[BusId(3), BusId(10)],
            &[BusId(2), BusId(5), BusId(11), BusId(12)],
        ];
        let mut session = VerifySession::new(&sys, false).unwrap();
        session.begin_scenario(&attacker);
        for buses in bus_sets {
            let assumed = session
                .verify_assuming(buses, &[], &sta_smt::Budget::unlimited())
                .outcome
                .is_feasible();
            let hardened = attacker.clone().secure_buses(buses);
            let asserted = one_shot.verify(&hardened).is_feasible();
            assert_eq!(assumed, asserted, "buses={buses:?}");
        }
        session.end_scenario();
    }

    /// Measurement-granular assumption deltas agree with the assert-based
    /// path too.
    #[test]
    fn scenario_measurement_assumptions_match_hardened_model() {
        let sys = ieee14::system_unsecured();
        let one_shot = AttackVerifier::new(&sys).unwrap();
        let attacker = AttackModel::new(14)
            .target(BusId(11), StateTarget::MustChange)
            .max_altered_measurements(8);
        let mut session = VerifySession::new(&sys, false).unwrap();
        session.begin_scenario(&attacker);
        for ids in [vec![], vec![MeasurementId(45)], vec![MeasurementId(45), MeasurementId(50)]] {
            let assumed = session
                .verify_assuming(&[], &ids, &sta_smt::Budget::unlimited())
                .outcome
                .is_feasible();
            let mut hardened = attacker.clone();
            hardened.extra_secured_measurements.extend(ids.iter().copied());
            let asserted = one_shot.verify(&hardened).is_feasible();
            assert_eq!(assumed, asserted, "{ids:?}");
        }
        session.end_scenario();
    }

    /// After `end_scenario` the session serves fresh scenarios — both a
    /// new assumption scope and the plain assert-based path.
    #[test]
    fn session_is_reusable_after_end_scenario() {
        let sys = ieee14::system();
        let mut session = VerifySession::new(&sys, false).unwrap();
        let open = AttackModel::new(14).target(BusId(11), StateTarget::MustChange);
        session.begin_scenario(&open);
        assert!(session
            .verify_assuming(&[], &[], &sta_smt::Budget::unlimited())
            .outcome
            .is_feasible());
        session.end_scenario();
        // A different scenario in a new scope.
        let blocked = open.clone().max_altered_measurements(0);
        session.begin_scenario(&blocked);
        assert!(!session
            .verify_assuming(&[], &[], &sta_smt::Budget::unlimited())
            .outcome
            .is_feasible());
        session.end_scenario();
        // Plain verify still works on the same session.
        assert!(session.verify(&open).outcome.is_feasible());
    }

    /// A zero budget inside an open scenario yields Unknown at whatever
    /// poll site trips first and must not poison the live core.
    #[test]
    fn zero_budget_verify_assuming_keeps_scenario_usable() {
        let sys = ieee14::system();
        let mut session = VerifySession::new(&sys, false).unwrap();
        let model = AttackModel::new(14);
        session.begin_scenario(&model);
        let starved = session.verify_assuming(&[], &[], &Budget::with_timeout(Duration::ZERO));
        assert!(starved.outcome.is_unknown(), "{:?}", starved.outcome);
        // Same open scenario, unlimited budget: decided again.
        assert!(session
            .verify_assuming(&[], &[], &sta_smt::Budget::unlimited())
            .outcome
            .is_feasible());
        session.end_scenario();
    }

    /// Certified checks work inside a session, including proof replay for
    /// unsat variants after earlier sat variants (the push/pop proof-state
    /// regression this PR fixes at the solver level).
    #[test]
    fn session_certifies_across_variants() {
        let sys = ieee14::system();
        let verifier =
            AttackVerifier::new(&sys).unwrap().with_certify(sta_smt::CertifyLevel::Full);
        let mut session = VerifySession::with_verifier(verifier, false);
        let open = AttackModel::new(14).target(BusId(11), StateTarget::MustChange);
        let blocked = open.clone().max_altered_measurements(0);
        for _ in 0..2 {
            let sat = session.verify(&open);
            assert!(sat.outcome.is_feasible());
            assert!(sat.stats.certified);
            let unsat = session.verify(&blocked);
            assert!(!unsat.outcome.is_feasible());
            assert!(unsat.stats.certified);
            assert!(unsat.stats.proof_steps > 0);
        }
    }
}
