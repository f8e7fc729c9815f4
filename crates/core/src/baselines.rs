//! Baseline defenses the paper positions itself against.
//!
//! * **Bobba et al. [6]** — securing a *basic measurement set* (a minimal
//!   observability-preserving subset) is necessary and sufficient to
//!   detect every UFDI attack, but assumes a worst-case attacker and
//!   offers no budget control. Implemented on top of
//!   [`sta_estimator::observability::basic_measurement_set`].
//! * **Kim & Poor [7]** — a greedy, sub-optimal selection of protection
//!   points. Reconstructed here as an oracle-guided loop: repeatedly find
//!   a feasible attack, secure the compromised bus hosting the most
//!   alterations, repeat until the attack model is blocked.
//!
//! Both return *what to secure*; the paper's synthesis ([`crate::synthesis`])
//! is the budget-aware alternative the evaluation compares them with.

use crate::attack::{AttackModel, AttackVerifier};
use sta_estimator::{observability, PowerFlowError};
use sta_grid::{BusId, MeasurementConfig, MeasurementId, TestSystem};
use std::collections::BTreeMap;

/// Bobba et al.: a basic (minimal observability-preserving) measurement
/// set whose protection defeats all UFDI attacks.
///
/// Returns `None` when the taken measurements are not observable to begin
/// with.
///
/// # Examples
///
/// ```
/// use sta_core::baselines;
/// use sta_grid::ieee14;
///
/// let sys = ieee14::system();
/// let basic = baselines::bobba_protection(&sys).expect("observable");
/// assert_eq!(basic.len(), 13); // n = b − 1 measurements
/// ```
pub fn bobba_protection(sys: &TestSystem) -> Option<Vec<MeasurementId>> {
    observability::basic_measurement_set(
        &sys.grid,
        &sys.topology,
        &sys.measurements,
        sys.reference_bus,
    )
}

/// Checks that securing `measurements` defeats `attacker` on `sys`.
///
/// # Errors
/// As [`AttackVerifier::new`]: an islanded system has no operating point
/// to anchor on.
pub fn blocks_attack(
    sys: &TestSystem,
    measurements: &[MeasurementId],
    attacker: &AttackModel,
) -> Result<bool, PowerFlowError> {
    let verifier = AttackVerifier::new(sys)?;
    let mut hardened = attacker.clone();
    hardened
        .extra_secured_measurements
        .extend_from_slice(measurements);
    Ok(!verifier.verify(&hardened).is_feasible())
}

/// Result of the greedy baseline.
#[derive(Debug, Clone)]
pub struct GreedyResult {
    /// Buses secured, in selection order.
    pub secured_buses: Vec<BusId>,
    /// Attack-verification oracle calls used.
    pub oracle_calls: usize,
}

/// Kim–Poor-style greedy defense: secure buses one at a time, each round
/// picking the bus that hosts the most alterations of the current
/// counterexample attack, until the attack model is infeasible.
///
/// Returns `Ok(None)` if even securing every bus leaves the model
/// feasible (cannot happen for any attack model that requires altering
/// at least one measurement).
///
/// # Errors
/// As [`AttackVerifier::new`]: an islanded system has no operating point
/// to anchor on.
pub fn kim_poor_greedy(
    sys: &TestSystem,
    attacker: &AttackModel,
) -> Result<Option<GreedyResult>, PowerFlowError> {
    let verifier = AttackVerifier::new(sys)?;
    let mut secured: Vec<BusId> = Vec::new();
    let mut oracle_calls = 0usize;
    let b = sys.grid.num_buses();
    while secured.len() <= b {
        let mut hardened = attacker.clone();
        hardened.extra_secured_buses.extend(secured.iter().copied());
        oracle_calls += 1;
        let outcome = verifier.verify(&hardened);
        let Some(vector) = outcome.vector() else {
            return Ok(Some(GreedyResult { secured_buses: secured, oracle_calls }));
        };
        // Count alterations per hosting bus; secure the busiest new bus.
        let mut counts: BTreeMap<BusId, usize> = BTreeMap::new();
        for alt in &vector.alterations {
            let bus = MeasurementConfig::bus_of(&sys.grid, alt.measurement);
            *counts.entry(bus).or_insert(0) += 1;
        }
        let Some(pick) = counts
            .into_iter()
            .filter(|(bus, _)| !secured.contains(bus))
            .max_by_key(|&(bus, c)| (c, usize::MAX - bus.0))
        else {
            return Ok(None);
        };
        secured.push(pick.0);
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::StateTarget;
    use sta_grid::ieee14;

    #[test]
    fn bobba_set_defeats_unconstrained_attacker() {
        let sys = ieee14::system();
        let basic = bobba_protection(&sys).expect("observable");
        let attacker = AttackModel::new(14);
        assert!(blocks_attack(&sys, &basic, &attacker).unwrap());
    }

    #[test]
    fn bobba_set_minus_one_is_insufficient() {
        // Necessity: with no other protection in place, dropping any
        // measurement from the basic set reopens an attack (Bobba et
        // al.'s tightness result, spot-checked on the unsecured variant —
        // Table III's own secured meters would otherwise fill the gap).
        let sys = ieee14::system_unsecured();
        let basic = bobba_protection(&sys).expect("observable");
        let attacker = AttackModel::new(14);
        let reduced: Vec<MeasurementId> =
            basic.iter().skip(1).copied().collect();
        assert!(!blocks_attack(&sys, &reduced, &attacker).unwrap());
    }

    #[test]
    fn greedy_terminates_and_blocks() {
        let sys = ieee14::system_unsecured();
        let attacker = AttackModel::new(14)
            .target(sta_grid::BusId(11), StateTarget::MustChange)
            .max_altered_measurements(8);
        let result = kim_poor_greedy(&sys, &attacker).unwrap().expect("converges");
        assert!(!result.secured_buses.is_empty());
        assert!(result.oracle_calls >= result.secured_buses.len());
        // Final set actually blocks.
        let verifier = AttackVerifier::new(&sys).unwrap();
        let hardened = attacker.clone().secure_buses(&result.secured_buses);
        assert!(!verifier.verify(&hardened).is_feasible());
    }

    #[test]
    fn greedy_usually_oversecures_relative_to_synthesis() {
        // The greedy baseline has no budget; it may use more buses than
        // the synthesized optimum. Just document the comparison shape:
        // both block, greedy ≥ 1 bus.
        let sys = ieee14::system_unsecured();
        let attacker = AttackModel::new(14)
            .target(sta_grid::BusId(11), StateTarget::MustChange)
            .max_altered_measurements(8);
        let greedy = kim_poor_greedy(&sys, &attacker).unwrap().expect("converges");
        let synth = crate::synthesis::Synthesizer::new(&sys).unwrap();
        let outcome = synth.synthesize(
            &attacker,
            &crate::synthesis::SynthesisConfig::with_budget(greedy.secured_buses.len()),
        );
        // Synthesis never needs more than greedy used.
        assert!(outcome.is_solution());
    }
}
