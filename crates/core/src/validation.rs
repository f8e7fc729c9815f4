//! End-to-end validation: replay an attack vector against the real
//! estimator stack and confirm stealthiness.
//!
//! The SMT model proves feasibility symbolically; this module closes the
//! loop by actually *running* the attack: build the base operating point's
//! measurement snapshot, apply the injections, re-run WLS under the
//! (possibly poisoned) topology the EMS would map, and compare residuals
//! and state estimates. Every satisfiable witness in the test suite passes
//! through here, so a bug in either the encoding or the estimator shows up
//! as a residual jump.

use crate::attack::{AttackVector, AttackVerifier};
use sta_estimator::dcflow::OperatingPoint;
use sta_estimator::{PowerFlowError, WlsEstimator};
use sta_grid::{MeasurementId, TestSystem, Topology};
use sta_linalg::Vector;
use std::fmt;

/// The outcome of replaying an attack against the estimator.
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// Residual norm of the clean estimate (pre-attack).
    pub residual_before: f64,
    /// Residual norm of the post-attack estimate under the EMS-visible
    /// topology.
    pub residual_after: f64,
    /// Largest state-estimate displacement caused by the attack.
    pub max_state_shift: f64,
    /// Per-bus state shifts actually realized by the estimator.
    pub state_shifts: Vec<f64>,
}

impl ReplayResult {
    /// Whether the attack stayed stealthy: the residual did not grow by
    /// more than `tol`.
    pub fn is_stealthy(&self, tol: f64) -> bool {
        self.residual_after <= self.residual_before + tol
    }
}

impl fmt::Display for ReplayResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "residual {:.3e} → {:.3e}, max state shift {:.4}",
            self.residual_before, self.residual_after, self.max_state_shift
        )
    }
}

/// Error from [`replay`] and [`replay_default`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The faked topology leaves the system unobservable — the EMS would
    /// reject the snapshot rather than estimate from it.
    UnobservableUnderAttack,
    /// The system has no base operating point to replay at (an islanded
    /// grid; see [`crate::attack::AttackVerifier::default_operating_point`]).
    NoOperatingPoint(PowerFlowError),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::UnobservableUnderAttack => {
                f.write_str("system unobservable under the attacked topology")
            }
            ReplayError::NoOperatingPoint(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Replays `attack` on `sys` anchored at `op`.
///
/// The EMS-visible topology is the true topology with the attack's
/// exclusions opened and inclusions closed; measurement deltas are applied
/// to the noiseless snapshot of `op`.
///
/// # Errors
/// Returns [`ReplayError::UnobservableUnderAttack`] when the poisoned
/// topology cannot support a WLS estimate.
pub fn replay(
    sys: &TestSystem,
    op: &OperatingPoint,
    attack: &AttackVector,
) -> Result<ReplayResult, ReplayError> {
    // Clean estimate under the true topology.
    let clean_est = WlsEstimator::new(
        &sys.grid,
        &sys.topology,
        &sys.measurements,
        sys.reference_bus,
        None,
    )
    .map_err(|_| ReplayError::UnobservableUnderAttack)?;
    let z = clean_est.measure(op);
    let before = clean_est
        .estimate(&z)
        .map_err(|_| ReplayError::UnobservableUnderAttack)?;

    // Topology the EMS maps after poisoning.
    let mut mapped: Topology = sys.topology.clone();
    for &line in &attack.excluded_lines {
        mapped = mapped.with_line_open(line);
    }
    for &line in &attack.included_lines {
        mapped = mapped.with_line_closed(line);
    }
    let attacked_est = WlsEstimator::new(
        &sys.grid,
        &mapped,
        &sys.measurements,
        sys.reference_bus,
        None,
    )
    .map_err(|_| ReplayError::UnobservableUnderAttack)?;

    // The raw meter readings are the same physical snapshot (the grid is
    // still wired per the *true* topology — only the EMS's map changed)
    // plus the injected deltas.
    let mut z_attacked: Vector = z.clone();
    for alt in &attack.alterations {
        if let Some(row) = attacked_est.row_of(MeasurementId(alt.measurement.0)) {
            z_attacked[row] += alt.delta;
        }
    }
    let after = attacked_est
        .estimate(&z_attacked)
        .map_err(|_| ReplayError::UnobservableUnderAttack)?;

    let shifts: Vec<f64> = (0..sys.grid.num_buses())
        .map(|j| after.theta[j] - before.theta[j])
        .collect();
    let max_shift = shifts.iter().fold(0.0f64, |m, s| m.max(s.abs()));
    Ok(ReplayResult {
        residual_before: before.residual_norm,
        residual_after: after.residual_norm,
        max_state_shift: max_shift,
        state_shifts: shifts,
    })
}

/// Replays with the verifier's default operating point (seed 0), matching
/// [`crate::attack::AttackVerifier::new`].
///
/// # Errors
/// [`ReplayError::NoOperatingPoint`] on an islanded system; otherwise see
/// [`replay`].
pub fn replay_default(
    sys: &TestSystem,
    attack: &AttackVector,
) -> Result<ReplayResult, ReplayError> {
    let op = AttackVerifier::default_operating_point(sys).map_err(ReplayError::NoOperatingPoint)?;
    replay(sys, &op, attack)
}

/// Outcome of a Monte-Carlo noisy replay.
#[derive(Debug, Clone)]
pub struct NoisyReplayResult {
    /// Chi-square detection rate over clean noisy snapshots (should sit
    /// near the detector's significance level α).
    pub clean_alarm_rate: f64,
    /// Detection rate over attacked noisy snapshots (a stealthy attack
    /// keeps this statistically indistinguishable from the clean rate).
    pub attacked_alarm_rate: f64,
    /// Mean (over trials) of the maximal per-bus state displacement.
    pub mean_max_state_shift: f64,
    /// Trials per arm.
    pub trials: usize,
}

/// Monte-Carlo replay under Gaussian meter noise: the stealthiness claim
/// must survive realistic noise, not just the noiseless identity
/// `a = H·c`. Runs `trials` paired snapshots (same noise with and without
/// the attack) through a χ² detector calibrated to `sigma`.
///
/// # Errors
/// See [`replay`]; additionally inherits its unobservability conditions.
///
/// # Panics
/// Panics if `trials == 0` or `sigma ≤ 0`.
pub fn replay_noisy(
    sys: &TestSystem,
    op: &OperatingPoint,
    attack: &AttackVector,
    sigma: f64,
    trials: usize,
    seed: u64,
) -> Result<NoisyReplayResult, ReplayError> {
    use sta_estimator::noise::GaussianNoise;
    assert!(trials > 0, "need at least one trial");
    assert!(sigma > 0.0, "noise level must be positive");

    let mut mapped = sys.topology.clone();
    for &line in &attack.excluded_lines {
        mapped = mapped.with_line_open(line);
    }
    for &line in &attack.included_lines {
        mapped = mapped.with_line_closed(line);
    }
    let weight = 1.0 / (sigma * sigma);
    let num_taken = sys.measurements.num_taken();
    let clean_est = WlsEstimator::new(
        &sys.grid,
        &sys.topology,
        &sys.measurements,
        sys.reference_bus,
        Some(vec![weight; num_taken]),
    )
    .map_err(|_| ReplayError::UnobservableUnderAttack)?;
    let attacked_est = WlsEstimator::new(
        &sys.grid,
        &mapped,
        &sys.measurements,
        sys.reference_bus,
        Some(vec![weight; num_taken]),
    )
    .map_err(|_| ReplayError::UnobservableUnderAttack)?;
    let detector = sta_estimator::BadDataDetector::new(0.05);
    let z0 = clean_est.measure(op);

    let mut noise = GaussianNoise::new(sigma, seed);
    let mut clean_alarms = 0usize;
    let mut attacked_alarms = 0usize;
    let mut shift_acc = 0.0f64;
    for _ in 0..trials {
        let noisy = noise.perturb(&z0);
        let clean_result = clean_est
            .estimate(&noisy)
            .map_err(|_| ReplayError::UnobservableUnderAttack)?;
        if detector.detect(&clean_est, &clean_result).is_bad() {
            clean_alarms += 1;
        }
        let mut attacked = noisy.clone();
        for alt in &attack.alterations {
            if let Some(row) = attacked_est.row_of(MeasurementId(alt.measurement.0)) {
                attacked[row] += alt.delta;
            }
        }
        let attacked_result = attacked_est
            .estimate(&attacked)
            .map_err(|_| ReplayError::UnobservableUnderAttack)?;
        if detector.detect(&attacked_est, &attacked_result).is_bad() {
            attacked_alarms += 1;
        }
        let shift = (0..sys.grid.num_buses())
            .map(|j| (attacked_result.theta[j] - clean_result.theta[j]).abs())
            .fold(0.0f64, f64::max);
        shift_acc += shift;
    }
    Ok(NoisyReplayResult {
        clean_alarm_rate: clean_alarms as f64 / trials as f64,
        attacked_alarm_rate: attacked_alarms as f64 / trials as f64,
        mean_max_state_shift: shift_acc / trials as f64,
        trials,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{AttackModel, AttackVerifier, StateTarget};
    use sta_grid::{ieee14, BusId};

    #[test]
    fn verified_attack_is_stealthy_in_replay() {
        let sys = ieee14::system();
        let verifier = AttackVerifier::new(&sys).unwrap();
        let model = AttackModel::new(14).target(BusId(9), StateTarget::MustChange);
        let attack = verifier.verify(&model).expect_feasible();
        let result = replay_default(&sys, &attack).unwrap();
        assert!(result.is_stealthy(1e-6), "{result}");
        assert!(result.max_state_shift > 1e-9, "{result}");
    }

    #[test]
    fn noisy_replay_attack_statistically_invisible() {
        let sys = ieee14::system_unsecured();
        let verifier = AttackVerifier::new(&sys).unwrap();
        let model = AttackModel::new(14).target(BusId(9), StateTarget::MustChange);
        let attack = verifier.verify(&model).expect_feasible();
        let injections = sta_estimator::dcflow::synthetic_injections(14, 0);
        let op = sta_estimator::dcflow::solve(
            &sys.grid,
            &sys.topology,
            &injections,
            sys.reference_bus,
        )
        .unwrap();
        let result = replay_noisy(&sys, &op, &attack, 0.02, 60, 7).unwrap();
        // Alarm rates match within Monte-Carlo noise, both near α = 0.05.
        assert!(
            (result.attacked_alarm_rate - result.clean_alarm_rate).abs() <= 0.1,
            "{result:?}"
        );
        assert!(result.clean_alarm_rate <= 0.25, "{result:?}");
        // And the attack still moves the estimate through the noise.
        assert!(result.mean_max_state_shift > 0.05, "{result:?}");
    }

    #[test]
    fn noisy_replay_of_topology_attack() {
        let sys = ieee14::system_unsecured();
        let verifier = AttackVerifier::new(&sys).unwrap();
        let mut model = AttackModel::new(14)
            .target(BusId(11), StateTarget::MustChange)
            .secure_measurement(sta_grid::MeasurementId(45))
            .with_topology_attack();
        for j in 0..14 {
            if j != 11 {
                model = model.target(BusId(j), StateTarget::MustNotChange);
            }
        }
        let attack = verifier.verify(&model).expect_feasible();
        let injections = sta_estimator::dcflow::synthetic_injections(14, 0);
        let op = sta_estimator::dcflow::solve(
            &sys.grid,
            &sys.topology,
            &injections,
            sys.reference_bus,
        )
        .unwrap();
        let result = replay_noisy(&sys, &op, &attack, 0.02, 40, 11).unwrap();
        assert!(
            (result.attacked_alarm_rate - result.clean_alarm_rate).abs() <= 0.15,
            "{result:?}"
        );
    }

    #[test]
    fn islanded_system_has_no_operating_point_to_replay_at() {
        let sys = ieee14::system();
        let model = AttackModel::new(14).target(BusId(9), StateTarget::MustChange);
        let attack = AttackVerifier::new(&sys).unwrap().verify(&model).expect_feasible();
        let mut islanded = sys;
        // Line 7–8 is bus 8's only connection.
        islanded.topology = islanded.topology.with_line_open(sta_grid::LineId(13));
        let islands = PowerFlowError::Islanded { islands: 2 };
        assert_eq!(AttackVerifier::new(&islanded).unwrap_err(), islands);
        assert_eq!(
            replay_default(&islanded, &attack).unwrap_err(),
            ReplayError::NoOperatingPoint(islands)
        );
    }

    #[test]
    fn corrupting_the_vector_breaks_stealth() {
        let sys = ieee14::system();
        let verifier = AttackVerifier::new(&sys).unwrap();
        let model = AttackModel::new(14).target(BusId(9), StateTarget::MustChange);
        let mut attack = verifier.verify(&model).expect_feasible();
        // Sabotage one injection amount: the residual must move.
        attack.alterations[0].delta += 1.0;
        let result = replay_default(&sys, &attack).unwrap();
        assert!(!result.is_stealthy(1e-6), "{result}");
    }
}
