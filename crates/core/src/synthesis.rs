//! Security architecture synthesis — the paper's §IV, Algorithm 1.
//!
//! A CEGIS-style loop over two formal models. The *candidate selection
//! model* proposes a set of buses to secure subject to the operator's
//! budget (`Σ sb_j ≤ T_SB`, Eq. 27), operator exclusions (Eq. 29) and the
//! analytical adjacency pruning of Eq. 30. The *attack verification model*
//! ([`crate::attack::AttackVerifier`]) then checks whether the candidate
//! actually blocks the given attack model: securing a bus secures every
//! measurement taken there (Eq. 28). A failing candidate is excluded
//! together with all of its subsets (protection is monotone: removing
//! secured buses can only help the attacker), via the blocking clause
//! `∨_{j ∉ S} sb_j`. The loop ends with an architecture (verifier returns
//! unsat) or with an exhausted candidate space (no solution at this
//! budget).

use crate::attack::{AttackModel, AttackVerifier, VerifySession};
use sta_estimator::PowerFlowError;
use sta_grid::{BusId, MeasurementConfig, MeasurementId, TestSystem};
use sta_smt::{
    BoolVar, Budget, CertifyLevel, Formula, PhaseMetrics, PhaseTimings, SatResult, Solver,
    SolverStats,
};
use std::fmt;

/// Aggregated solver observability over one synthesis run: every selection
/// check and every verification call folds its per-phase counters (and,
/// separately, wall-clock timings) into this accumulator.
#[derive(Debug, Default, Clone)]
pub struct SynthesisObservation {
    /// Deterministic per-phase counters summed over all solver calls.
    pub metrics: PhaseMetrics,
    /// Wall-clock per-phase timings summed over all solver calls.
    pub timings: PhaseTimings,
}

impl SynthesisObservation {
    fn record(&mut self, stats: &SolverStats) {
        self.metrics.merge(&stats.metrics);
        self.timings.merge(&stats.timings);
    }
}

/// How failed candidates are excluded from the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockingStrategy {
    /// Counterexample-guided (default): when candidate `S` fails with an
    /// attack compromising buses `B`, require `∨_{j∈B} sb_j` — any
    /// architecture disjoint from `B` admits the *same* attack, so this
    /// clause is sound and turns the loop into an implicit hitting-set
    /// search (subsuming subset blocking).
    #[default]
    CounterexampleHitting,
    /// The paper's Algorithm 1 line 14: exclude only the failed candidate
    /// (and, by monotonicity of protection, its subsets) via
    /// `∨_{j∉S} sb_j`. Kept as an ablation baseline for the benches.
    CandidateOnly,
}

/// Operator-side constraints on the architecture search.
#[derive(Debug, Clone)]
pub struct SynthesisConfig {
    /// `T_SB`: maximum number of buses that can be secured (Eq. 27).
    pub max_secured_buses: usize,
    /// Buses the operator cannot secure (Eq. 29).
    pub unsecurable_buses: Vec<BusId>,
    /// Apply the Eq. 30 pruning: never secure two buses adjacent through
    /// a taken flow meter. On by default, as in the paper.
    pub adjacency_pruning: bool,
    /// Safety valve on loop iterations; `None` = unbounded (the candidate
    /// space is finite, so the loop always terminates anyway).
    pub max_iterations: Option<usize>,
    /// Refinement-clause strategy.
    pub blocking: BlockingStrategy,
    /// Force the reference bus into every architecture (counted against
    /// the budget). The paper's §IV-E case studies follow this
    /// convention — all three published architectures include bus 1, the
    /// declared reference — reflecting that the angle datum's substation
    /// must be trustworthy. Off by default for the general API.
    pub require_reference_secured: bool,
    /// With [`BlockingStrategy::CounterexampleHitting`], how many
    /// counterexample attacks to chain per failed candidate: after the
    /// candidate fails, its attack's buses are provisionally added and
    /// the verifier is re-run, producing additional hitting clauses
    /// before the next candidate solve. Values above 1 sharply reduce
    /// round trips on larger systems. Ignored under `CandidateOnly`.
    pub counterexamples_per_round: usize,
}

impl SynthesisConfig {
    /// A configuration with budget `t_sb` and the default strategy.
    pub fn with_budget(t_sb: usize) -> Self {
        SynthesisConfig {
            max_secured_buses: t_sb,
            unsecurable_buses: Vec::new(),
            adjacency_pruning: true,
            max_iterations: None,
            blocking: BlockingStrategy::default(),
            require_reference_secured: false,
            counterexamples_per_round: 4,
        }
    }

    /// Switches to the paper's candidate-only blocking (Algorithm 1).
    pub fn paper_blocking(mut self) -> Self {
        self.blocking = BlockingStrategy::CandidateOnly;
        self
    }

    /// Forces the reference bus into every candidate (the paper's §IV-E
    /// convention).
    pub fn with_reference_secured(mut self) -> Self {
        self.require_reference_secured = true;
        self
    }
}

/// A synthesized security architecture.
#[derive(Debug, Clone)]
pub struct SecurityArchitecture {
    /// Buses to secure (all their taken measurements become
    /// integrity-protected).
    pub secured_buses: Vec<BusId>,
    /// Candidate-selection/verification round trips performed.
    pub iterations: usize,
}

impl fmt::Display for SecurityArchitecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "secure buses {{")?;
        for (i, b) in self.secured_buses.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", b.0 + 1)?;
        }
        write!(f, "}} ({} iterations)", self.iterations)
    }
}

/// Result of one synthesis run.
#[derive(Debug, Clone)]
pub enum SynthesisOutcome {
    /// An architecture satisfying the security requirements.
    Architecture(SecurityArchitecture),
    /// No bus set within the constraints blocks the attack model.
    NoSolution {
        /// Rounds explored before exhausting the candidate space.
        iterations: usize,
    },
    /// The iteration cap was hit before a conclusion.
    Inconclusive {
        /// Rounds performed.
        iterations: usize,
    },
}

impl SynthesisOutcome {
    /// The architecture, if one was found.
    pub fn architecture(&self) -> Option<&SecurityArchitecture> {
        match self {
            SynthesisOutcome::Architecture(a) => Some(a),
            _ => None,
        }
    }

    /// Whether an architecture was found.
    pub fn is_solution(&self) -> bool {
        matches!(self, SynthesisOutcome::Architecture(_))
    }
}

/// The Algorithm 1 synthesizer.
///
/// # Examples
///
/// ```
/// use sta_core::attack::AttackModel;
/// use sta_core::synthesis::{SynthesisConfig, Synthesizer};
/// use sta_grid::ieee14;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = ieee14::system();
/// let synth = Synthesizer::new(&sys)?;
/// // A knowledge- and resource-limited attacker (paper Scenario 1).
/// let attacker = AttackModel::new(14)
///     .unknown_lines(20, &[2, 16])
///     .max_altered_measurements(12);
/// let outcome = synth.synthesize(&attacker, &SynthesisConfig::with_budget(4));
/// assert!(outcome.is_solution());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Synthesizer<'a> {
    system: &'a TestSystem,
    verifier: AttackVerifier,
    certify: CertifyLevel,
    profiler: Option<sta_smt::Profiler>,
}

impl<'a> Synthesizer<'a> {
    /// Creates a synthesizer over `system` with the default operating
    /// point.
    ///
    /// # Errors
    /// As [`AttackVerifier::new`]: an islanded system has no operating
    /// point to anchor on.
    pub fn new(system: &'a TestSystem) -> Result<Self, PowerFlowError> {
        Ok(Synthesizer {
            system,
            verifier: AttackVerifier::new(system)?,
            certify: CertifyLevel::Off,
            profiler: None,
        })
    }

    /// Certifies every solver answer in the loop — both the candidate
    /// selection model and the attack verification calls.
    pub fn with_certify(mut self, level: CertifyLevel) -> Self {
        self.certify = level;
        self.verifier = self.verifier.with_certify(level);
        self
    }

    /// Attaches a span profiler to the CEGIS loop. Each round records an
    /// `iterate` span with a `select` child (the candidate-selection
    /// check) and the verifier's `verify` spans (base/delta encode,
    /// search, simplex self-time) nested alongside it.
    pub fn with_profiler(mut self, profiler: sta_smt::Profiler) -> Self {
        self.verifier = self.verifier.with_profiler(profiler.clone());
        self.profiler = Some(profiler);
        self
    }

    /// Pins the simplex engine of the loop's verification checks, for
    /// oracle runs (the selection model is purely Boolean, so only the
    /// verifier's solver is affected; see [`AttackVerifier::with_simplex`]).
    pub fn with_simplex(mut self, mode: sta_smt::SimplexMode) -> Self {
        self.verifier = self.verifier.with_simplex(mode);
        self
    }

    /// Runs Algorithm 1 for the given attack model and operator
    /// constraints.
    pub fn synthesize(
        &self,
        attacker: &AttackModel,
        config: &SynthesisConfig,
    ) -> SynthesisOutcome {
        let mut obs = SynthesisObservation::default();
        self.synthesize_observed(attacker, config, &mut obs)
    }

    /// Like [`Synthesizer::synthesize`], additionally returning the
    /// aggregated per-phase solver observability of the whole CEGIS loop
    /// (selection checks plus every verification round trip).
    pub fn synthesize_with_metrics(
        &self,
        attacker: &AttackModel,
        config: &SynthesisConfig,
    ) -> (SynthesisOutcome, SynthesisObservation) {
        let mut obs = SynthesisObservation::default();
        let outcome = self.synthesize_observed(attacker, config, &mut obs);
        (outcome, obs)
    }

    fn synthesize_observed(
        &self,
        attacker: &AttackModel,
        config: &SynthesisConfig,
        obs: &mut SynthesisObservation,
    ) -> SynthesisOutcome {
        let b = self.system.grid.num_buses();
        let mut selection = Solver::new();
        selection.set_certify(self.certify.max(attacker.certify));
        if let Some(p) = &self.profiler {
            selection.set_profiler(p.clone());
        }
        let sb: Vec<BoolVar> = (0..b).map(|_| selection.new_bool()).collect();
        // Eq. 27: the budget.
        selection.assert_formula(&Formula::at_most(
            sb.iter().map(|&v| Formula::var(v)).collect(),
            config.max_secured_buses,
        ));
        // Eq. 29: operator exclusions.
        for bus in &config.unsecurable_buses {
            selection.assert_formula(&Formula::var(sb[bus.0]).not());
        }
        // §IV-E convention: the reference bus is always secured.
        if config.require_reference_secured {
            selection
                .assert_formula(&Formula::var(sb[self.system.reference_bus.0]));
        }
        // Eq. 30: no two buses adjacent through a taken flow meter.
        if config.adjacency_pruning {
            for (i, line) in self.system.grid.lines().iter().enumerate() {
                let l = self.system.grid.num_lines();
                let fwd_taken =
                    self.system.measurements.is_taken(MeasurementId(i));
                let bwd_taken =
                    self.system.measurements.is_taken(MeasurementId(l + i));
                if fwd_taken || bwd_taken {
                    selection.assert_formula(&Formula::or(vec![
                        Formula::var(sb[line.from.0]).not(),
                        Formula::var(sb[line.to.0]).not(),
                    ]));
                }
            }
        }

        // One live verification session for the whole loop: the attack
        // scenario is asserted once, and every candidate is layered on as
        // Eq. 28 assumptions, so the persistent core keeps its learned
        // clauses and warm simplex basis across rounds.
        let mut session = VerifySession::with_verifier(
            self.verifier.clone(),
            attacker.allow_topology_attack,
        );
        session.begin_scenario(attacker);
        let verify_budget = Budget::from_timeout_ms(attacker.timeout_ms);

        let mut iterations = 0usize;
        loop {
            if let Some(cap) = config.max_iterations {
                if iterations >= cap {
                    return SynthesisOutcome::Inconclusive { iterations };
                }
            }
            iterations += 1;
            let _sp_iter = self.profiler.as_ref().map(|p| p.span("iterate"));
            let selection_result = {
                let _sp = self.profiler.as_ref().map(|p| p.span("select"));
                // Assumption-based check: on the persistent core the
                // selection solver's learned clauses survive across rounds
                // even as blocking clauses accumulate at the base level.
                selection.check_assuming(&[])
            };
            if let Some(stats) = selection.last_stats() {
                obs.record(stats);
            }
            let candidate: Vec<BusId> = match selection_result {
                SatResult::Unsat => {
                    return SynthesisOutcome::NoSolution { iterations };
                }
                // An exhausted budget on the selection model: undecided.
                SatResult::Unknown(_) => {
                    return SynthesisOutcome::Inconclusive { iterations };
                }
                SatResult::Sat(m) => (0..b)
                    .filter(|&j| m.bool_value(sb[j]))
                    .map(BusId)
                    .collect(),
            };
            // Verify: does the attack model still succeed with the
            // candidate secured? The candidate rides in as assumptions on
            // the live scenario rather than a fresh solver per round.
            let report = session.verify_assuming(&candidate, &[], &verify_budget);
            obs.record(&report.stats);
            let outcome = report.outcome;
            if outcome.is_unknown() {
                // A timed-out verification can certify nothing about the
                // candidate — treating it as "blocked" would be unsound.
                return SynthesisOutcome::Inconclusive { iterations };
            }
            let Some(vector) = outcome.vector() else {
                return SynthesisOutcome::Architecture(SecurityArchitecture {
                    secured_buses: candidate,
                    iterations,
                });
            };
            match config.blocking {
                BlockingStrategy::CounterexampleHitting => {
                    // A found attack's validity depends only on its own
                    // altered measurements being unprotected, so *any*
                    // architecture disjoint from its compromised-bus set
                    // admits the same attack: each counterexample yields
                    // the sound clause "secure at least one of its buses".
                    // Chain further counterexamples by provisionally
                    // securing each attack's buses and re-verifying,
                    // harvesting several clauses per candidate round. The
                    // growing secured set stays a pure assumption delta on
                    // the same live scenario.
                    let mut secured: Vec<BusId> = candidate.clone();
                    let mut buses = vector.compromised_buses.clone();
                    for round in 0..config.counterexamples_per_round.max(1) {
                        selection.assert_formula(&Formula::or(
                            buses
                                .iter()
                                .filter(|bus| {
                                    !config.unsecurable_buses.contains(bus)
                                })
                                .map(|bus| Formula::var(sb[bus.0]))
                                .collect(),
                        ));
                        if round + 1 == config.counterexamples_per_round {
                            break;
                        }
                        secured.extend(buses.iter().copied());
                        let chained_report =
                            session.verify_assuming(&secured, &[], &verify_budget);
                        obs.record(&chained_report.stats);
                        match chained_report.outcome.vector() {
                            Some(v) => buses = v.compromised_buses.clone(),
                            None => break,
                        }
                    }
                }
                BlockingStrategy::CandidateOnly => {
                    // Block the candidate and every subset: require some
                    // bus outside it.
                    let in_candidate: Vec<bool> = {
                        let mut v = vec![false; b];
                        for bus in &candidate {
                            v[bus.0] = true;
                        }
                        v
                    };
                    selection.assert_formula(&Formula::or(
                        (0..b)
                            .filter(|&j| !in_candidate[j])
                            .filter(|&j| {
                                !config.unsecurable_buses.contains(&BusId(j))
                            })
                            .map(|j| Formula::var(sb[j]))
                            .collect(),
                    ));
                }
            }
        }
    }

    /// Applies an architecture to a copy of the system's measurement
    /// configuration (for downstream what-if analysis).
    pub fn apply(
        &self,
        architecture: &SecurityArchitecture,
    ) -> MeasurementConfig {
        self.system
            .measurements
            .with_secured_buses(&self.system.grid, &architecture.secured_buses)
    }

    /// Measurement-granular variant of Algorithm 1 — the paper notes that
    /// "similar mechanism can be used for synthesizing security
    /// architecture with respect to measurements only" (§IV-A).
    ///
    /// Selects at most `max_secured` individual *taken, unsecured*
    /// measurements whose protection blocks `attacker`, using the same
    /// counterexample-hitting refinement (any architecture disjoint from
    /// a found attack's altered measurements admits that same attack).
    /// Returns the measurement set and the number of iterations, or
    /// `None` when no set within the budget works.
    pub fn synthesize_measurements(
        &self,
        attacker: &AttackModel,
        max_secured: usize,
    ) -> Option<(Vec<MeasurementId>, usize)> {
        let m = self.system.grid.num_potential_measurements();
        // Only taken, not-already-secured measurements are candidates.
        let candidates: Vec<MeasurementId> = (0..m)
            .map(MeasurementId)
            .filter(|&id| {
                self.system.measurements.is_taken(id)
                    && !self.system.measurements.is_secured(id)
            })
            .collect();
        let mut selection = Solver::new();
        selection.set_certify(self.certify.max(attacker.certify));
        let sm: Vec<BoolVar> =
            candidates.iter().map(|_| selection.new_bool()).collect();
        let index_of: std::collections::BTreeMap<MeasurementId, usize> = candidates
            .iter()
            .enumerate()
            .map(|(k, &id)| (id, k))
            .collect();
        selection.assert_formula(&Formula::at_most(
            sm.iter().map(|&v| Formula::var(v)).collect(),
            max_secured,
        ));
        // Same live-session discipline as the bus-level loop: one asserted
        // scenario, per-round measurement sets as assumption deltas.
        let mut session = VerifySession::with_verifier(
            self.verifier.clone(),
            attacker.allow_topology_attack,
        );
        session.begin_scenario(attacker);
        let verify_budget = Budget::from_timeout_ms(attacker.timeout_ms);
        let mut iterations = 0usize;
        loop {
            iterations += 1;
            let chosen: Vec<MeasurementId> = match selection.check_assuming(&[]) {
                sta_smt::SatResult::Unsat | sta_smt::SatResult::Unknown(_) => {
                    return None
                }
                sta_smt::SatResult::Sat(model) => candidates
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| model.bool_value(sm[*k]))
                    .map(|(_, &id)| id)
                    .collect(),
            };
            let outcome = session.verify_assuming(&[], &chosen, &verify_budget).outcome;
            if outcome.is_unknown() {
                // Undecided verification: no sound conclusion either way.
                return None;
            }
            match outcome.vector() {
                None => return Some((chosen, iterations)),
                Some(vector) => {
                    // Hit at least one altered measurement of the attack.
                    selection.assert_formula(&Formula::or(
                        vector
                            .alterations
                            .iter()
                            .filter_map(|a| index_of.get(&a.measurement))
                            .map(|&k| Formula::var(sm[k]))
                            .collect(),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::StateTarget;
    use sta_grid::ieee14;

    #[test]
    fn zero_budget_fails_against_real_attacker() {
        let sys = ieee14::system();
        let synth = Synthesizer::new(&sys).unwrap();
        let attacker = AttackModel::new(14);
        let outcome = synth.synthesize(&attacker, &SynthesisConfig::with_budget(0));
        assert!(!outcome.is_solution());
    }

    #[test]
    fn architecture_blocks_the_attack_model() {
        let sys = ieee14::system_unsecured();
        let synth = Synthesizer::new(&sys).unwrap();
        // Limited attacker: one specific target, modest resources.
        let attacker = AttackModel::new(14)
            .target(sta_grid::BusId(11), StateTarget::MustChange)
            .max_altered_measurements(8);
        // Meaningful setup: the attack succeeds without protection.
        assert!(AttackVerifier::new(&sys).unwrap().verify(&attacker).is_feasible());
        let outcome = synth.synthesize(&attacker, &SynthesisConfig::with_budget(3));
        let arch = outcome.architecture().expect("solution within 3 buses");
        assert!(arch.secured_buses.len() <= 3);
        assert!(!arch.secured_buses.is_empty());
        // Re-verify independently.
        let verifier = AttackVerifier::new(&sys).unwrap();
        let hardened = attacker.clone().secure_buses(&arch.secured_buses);
        assert!(!verifier.verify(&hardened).is_feasible());
    }

    #[test]
    fn unsecurable_buses_never_selected() {
        let sys = ieee14::system();
        let synth = Synthesizer::new(&sys).unwrap();
        let attacker = AttackModel::new(14)
            .target(sta_grid::BusId(11), StateTarget::MustChange)
            .max_altered_measurements(8);
        let mut config = SynthesisConfig::with_budget(4);
        config.unsecurable_buses = vec![sta_grid::BusId(5)];
        if let SynthesisOutcome::Architecture(arch) =
            synth.synthesize(&attacker, &config)
        {
            assert!(!arch.secured_buses.contains(&sta_grid::BusId(5)));
        }
    }

    #[test]
    fn measurement_level_synthesis_blocks_and_is_minimal_ish() {
        let sys = ieee14::system_unsecured();
        let synth = Synthesizer::new(&sys).unwrap();
        let attacker = AttackModel::new(14);
        // Bobba: 13 basic measurements always suffice; the synthesized
        // set must also block and fit the same budget.
        let (set, iters) = synth
            .synthesize_measurements(&attacker, 13)
            .expect("13 measurements suffice (Bobba)");
        assert!(set.len() <= 13);
        assert!(iters >= 1);
        let verifier = AttackVerifier::new(&sys).unwrap();
        let mut hardened = attacker.clone();
        hardened.extra_secured_measurements.extend(set.iter().copied());
        assert!(!verifier.verify(&hardened).is_feasible());
        // Bobba et al. necessity (fewer than n−1 secured measurements
        // never blocks an unconstrained attacker), exhaustively on a
        // small grid where the no-solution proof is cheap: a 4-bus ring
        // has n−1 = 3, so a 2-measurement budget must fail.
        let ring = sta_grid::Grid::new(
            4,
            vec![
                sta_grid::Line::new(sta_grid::BusId(0), sta_grid::BusId(1), 2.0),
                sta_grid::Line::new(sta_grid::BusId(1), sta_grid::BusId(2), 3.0),
                sta_grid::Line::new(sta_grid::BusId(2), sta_grid::BusId(3), 4.0),
                sta_grid::Line::new(sta_grid::BusId(0), sta_grid::BusId(3), 5.0),
            ],
        );
        let tiny = sta_grid::TestSystem::fully_metered("ring", ring);
        let tiny_synth = Synthesizer::new(&tiny).unwrap();
        let tiny_attacker = AttackModel::new(4);
        assert!(tiny_synth.synthesize_measurements(&tiny_attacker, 3).is_some());
        assert!(tiny_synth.synthesize_measurements(&tiny_attacker, 2).is_none());
    }

    #[test]
    fn strict_knowledge_is_at_least_as_restrictive() {
        let sys = ieee14::system_unsecured();
        let verifier = AttackVerifier::new(&sys).unwrap();
        // Target a state adjacent to an unknown line: strict semantics
        // must refuse whenever the lax semantics refuses, and may refuse
        // more.
        for target in 1..14 {
            let lax = AttackModel::new(14)
                .unknown_lines(20, &[2, 6, 16])
                .target(sta_grid::BusId(target), StateTarget::MustChange);
            let strict = lax.clone().with_strict_knowledge();
            let lax_ok = verifier.verify(&lax).is_feasible();
            let strict_ok = verifier.verify(&strict).is_feasible();
            assert!(
                lax_ok || !strict_ok,
                "strict feasible but lax infeasible at state {}",
                target + 1
            );
        }
    }

    /// A profiled synthesis run yields the CEGIS span tree: per-round
    /// `iterate` spans containing a `select` child (candidate check) and
    /// the verifier's `verify` spans, with solver phases nested below.
    #[test]
    fn profiler_captures_cegis_span_tree() {
        let sys = ieee14::system_unsecured();
        let profiler = sta_smt::Profiler::new();
        let synth = Synthesizer::new(&sys).unwrap().with_profiler(profiler.clone());
        let attacker = AttackModel::new(14)
            .target(sta_grid::BusId(11), StateTarget::MustChange)
            .max_altered_measurements(8);
        let outcome = synth.synthesize(&attacker, &SynthesisConfig::with_budget(3));
        assert!(outcome.is_solution());
        let iterations = outcome.architecture().unwrap().iterations as u64;
        let roots = profiler.snapshot();
        let iterate = roots
            .iter()
            .find(|n| n.name == "iterate")
            .expect("iterate span");
        assert_eq!(iterate.count, iterations);
        let select = iterate
            .children
            .iter()
            .find(|n| n.name == "select")
            .expect("select child");
        assert_eq!(select.count, iterations);
        let verify = iterate
            .children
            .iter()
            .find(|n| n.name == "verify")
            .expect("verify child");
        assert!(verify.count >= iterations);
        // Solver phases nest under both the selection check and the
        // verification calls.
        for parent in [select, verify] {
            assert!(
                parent.children.iter().any(|n| n.name == "search"),
                "no search span under {}",
                parent.name
            );
        }
    }

    /// Soundness of the warm loop (persistent cores, assumption deltas):
    /// every architecture it returns fits the budget and, re-verified on a
    /// one-shot verifier with the buses asserted secure, leaves the attack
    /// infeasible.
    #[test]
    fn synthesized_architectures_reverify_infeasible() {
        let sys = ieee14::system_unsecured();
        let synth = Synthesizer::new(&sys).unwrap();
        let verifier = AttackVerifier::new(&sys).unwrap();
        let attackers = [
            AttackModel::new(14)
                .target(sta_grid::BusId(11), StateTarget::MustChange)
                .max_altered_measurements(8),
            AttackModel::new(14)
                .target(sta_grid::BusId(4), StateTarget::MustChange)
                .max_altered_measurements(10)
                .max_compromised_buses(4),
        ];
        for attacker in &attackers {
            for budget in [2usize, 3] {
                let outcome = synth.synthesize(attacker, &SynthesisConfig::with_budget(budget));
                if let Some(arch) = outcome.architecture() {
                    assert!(arch.secured_buses.len() <= budget);
                    let hardened = attacker.clone().secure_buses(&arch.secured_buses);
                    assert!(
                        !verifier.verify(&hardened).is_feasible(),
                        "synthesized architecture fails to block: {arch}"
                    );
                }
            }
        }
    }

    /// The warm loop actually exercises the persistent core: after the
    /// first round, verification checks report base-cache reuse and clause
    /// retention in the aggregated metrics.
    #[test]
    fn incremental_synthesis_reports_core_reuse() {
        let sys = ieee14::system_unsecured();
        let synth = Synthesizer::new(&sys).unwrap();
        let attacker = AttackModel::new(14)
            .target(sta_grid::BusId(11), StateTarget::MustChange)
            .max_altered_measurements(8);
        let (outcome, obs) =
            synth.synthesize_with_metrics(&attacker, &SynthesisConfig::with_budget(3));
        assert!(outcome.is_solution());
        let iterations = outcome.architecture().unwrap().iterations;
        if iterations > 1 {
            assert!(
                obs.metrics.retained_clauses > 0,
                "multi-round warm loop retained no learned clauses: {:?}",
                obs.metrics
            );
        }
    }

    #[test]
    fn iteration_cap_returns_inconclusive() {
        let sys = ieee14::system();
        let synth = Synthesizer::new(&sys).unwrap();
        let attacker = AttackModel::new(14);
        let mut config = SynthesisConfig::with_budget(1);
        config.max_iterations = Some(1);
        // Budget 1 can't stop an unconstrained attacker; with a 1-round
        // cap we must get Inconclusive or NoSolution, never a solution.
        let outcome = synth.synthesize(&attacker, &config);
        assert!(!outcome.is_solution());
    }
}
