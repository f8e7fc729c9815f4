//! The attack scenario description: the paper's attack attributes.
//!
//! An [`AttackModel`] bundles everything §III calls an *attack attribute*:
//! the adversary's admittance knowledge (`bd`), resource limits on
//! simultaneously altered measurements (`T_CZ`) and compromised substations
//! (`T_CB`), the attack goal (per-state targets plus required state-change
//! differences), and whether topology poisoning is available. Accessibility
//! (`az`) and existing protection (`sz`) come from the system's
//! [`sta_grid::MeasurementConfig`], optionally overridden here.

use sta_grid::BusId;
use sta_smt::CertifyLevel;

/// The attacker's goal for one state variable (bus angle estimate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StateTarget {
    /// The estimate of this state must be corrupted (`cx_j`, Eq. 5):
    /// `Δθ_j ≠ 0`.
    MustChange,
    /// The estimate must remain correct: `Δθ_j = 0` (the paper's attack
    /// objective 2: "state 12 only, i.e. no other states will be
    /// affected").
    MustNotChange,
    /// Unspecified — the attack may or may not touch it.
    #[default]
    Free,
}

/// A complete UFDI attack scenario to check for feasibility.
///
/// # Examples
///
/// ```
/// use sta_core::attack::{AttackModel, StateTarget};
/// use sta_grid::BusId;
///
/// let model = AttackModel::new(14)
///     .target(BusId(8), StateTarget::MustChange)
///     .target(BusId(9), StateTarget::MustChange)
///     .require_different_change(BusId(8), BusId(9))
///     .max_altered_measurements(16)
///     .max_compromised_buses(7);
/// assert_eq!(model.max_altered_measurements, Some(16));
/// ```
#[derive(Debug, Clone)]
pub struct AttackModel {
    /// Per-state goal; index = bus index.
    pub targets: Vec<StateTarget>,
    /// Pairs whose state changes must differ (`Δθ_a ≠ Δθ_b`, Eq. 26).
    pub different_changes: Vec<(BusId, BusId)>,
    /// Admittance knowledge per line (`bd_i`, Eq. 17); `None` = full
    /// knowledge.
    pub known_admittances: Option<Vec<bool>>,
    /// `T_CZ`: maximum simultaneously altered measurements (Eq. 22).
    pub max_altered_measurements: Option<usize>,
    /// `T_CB`: maximum simultaneously compromised substations (Eq. 24).
    pub max_compromised_buses: Option<usize>,
    /// Whether the adversary can poison breaker-status telemetry (line
    /// exclusion/inclusion attacks, §III-C/E).
    pub allow_topology_attack: bool,
    /// Extra measurements to treat as secured on top of the system
    /// configuration (used by the synthesis loop and case studies).
    pub extra_secured_measurements: Vec<sta_grid::MeasurementId>,
    /// Extra buses whose every measurement is treated as secured (Eq. 28).
    pub extra_secured_buses: Vec<BusId>,
    /// Measurements to treat as inaccessible (`¬az_i`) on top of the
    /// system configuration.
    pub inaccessible_measurements: Vec<sta_grid::MeasurementId>,
    /// Strict knowledge semantics: an unknown-admittance line's measured
    /// flow must stay *unchanged* (`ΔPL_i = 0`), not merely unaltered —
    /// the attacker cannot compute the incident-bus adjustments a change
    /// through an unknown line would require. The paper's Eq. 17 only
    /// gates the line's own flow meters (the default); this documented
    /// stricter reading is available for sensitivity analysis.
    pub strict_knowledge: bool,
    /// Alteration patterns ruled out: the witness's set of altered
    /// measurements must differ from each listed set. Used by
    /// [`crate::attack::AttackVerifier::enumerate`] to produce distinct
    /// attack vectors.
    pub blocked_alteration_sets: Vec<Vec<sta_grid::MeasurementId>>,
    /// Minimum certification level for checks of this scenario; the
    /// verifier uses the stricter of this and its own configured level.
    pub certify: CertifyLevel,
    /// Wall-clock deadline for the feasibility check, in milliseconds;
    /// `None` = unlimited. When the deadline passes before the solver
    /// reaches a verdict, verification returns
    /// [`crate::attack::AttackOutcome::Unknown`] — which is *not*
    /// infeasibility. A caller's deadline overrides it (see
    /// [`AttackModel::deadline_ms`]).
    pub timeout_ms: Option<u64>,
}

impl AttackModel {
    /// An unconstrained scenario over `num_buses` states: full knowledge,
    /// unlimited resources, no targets, no topology attacks.
    pub fn new(num_buses: usize) -> Self {
        AttackModel {
            targets: vec![StateTarget::Free; num_buses],
            different_changes: Vec::new(),
            known_admittances: None,
            max_altered_measurements: None,
            max_compromised_buses: None,
            allow_topology_attack: false,
            extra_secured_measurements: Vec::new(),
            extra_secured_buses: Vec::new(),
            inaccessible_measurements: Vec::new(),
            strict_knowledge: false,
            blocked_alteration_sets: Vec::new(),
            certify: CertifyLevel::Off,
            timeout_ms: None,
        }
    }

    /// Bounds the feasibility check to `ms` milliseconds of wall clock.
    pub fn with_timeout_ms(mut self, ms: u64) -> Self {
        self.timeout_ms = Some(ms);
        self
    }

    /// The deadline, in milliseconds, that a check of this scenario runs
    /// under — the one rule every front end applies. The caller's
    /// deadline wins: `--timeout-ms`, a request's `timeout_ms`, or a
    /// campaign job's or campaign's deadline. The scenario's own
    /// [`AttackModel::timeout_ms`] applies only when the caller sets
    /// none. A synthesis run bounds each of its checks by it.
    pub fn deadline_ms(&self, caller_ms: Option<u64>) -> Option<u64> {
        caller_ms.or(self.timeout_ms)
    }

    /// Requires at least this certification level when the scenario is
    /// checked.
    pub fn with_certify(mut self, level: CertifyLevel) -> Self {
        self.certify = level;
        self
    }

    /// Enables the strict reading of the knowledge constraint (see the
    /// [`AttackModel::strict_knowledge`] field docs).
    pub fn with_strict_knowledge(mut self) -> Self {
        self.strict_knowledge = true;
        self
    }

    /// Sets the goal for one state.
    ///
    /// # Panics
    /// Panics if `bus` is out of range.
    pub fn target(mut self, bus: BusId, goal: StateTarget) -> Self {
        self.targets[bus.0] = goal;
        self
    }

    /// Requires `Δθ_a ≠ Δθ_b` (Eq. 26).
    pub fn require_different_change(mut self, a: BusId, b: BusId) -> Self {
        self.different_changes.push((a, b));
        self
    }

    /// Sets the admittance-knowledge vector (`bd`).
    pub fn knowledge(mut self, known: Vec<bool>) -> Self {
        self.known_admittances = Some(known);
        self
    }

    /// Marks the admittances of the given (0-based) lines unknown.
    ///
    /// # Panics
    /// Panics if any index is `≥ num_lines`.
    pub fn unknown_lines(mut self, num_lines: usize, unknown: &[usize]) -> Self {
        let mut bd = self
            .known_admittances
            .unwrap_or_else(|| vec![true; num_lines]);
        for &i in unknown {
            bd[i] = false;
        }
        self.known_admittances = Some(bd);
        self
    }

    /// Sets `T_CZ`.
    pub fn max_altered_measurements(mut self, t_cz: usize) -> Self {
        self.max_altered_measurements = Some(t_cz);
        self
    }

    /// Sets `T_CB`.
    pub fn max_compromised_buses(mut self, t_cb: usize) -> Self {
        self.max_compromised_buses = Some(t_cb);
        self
    }

    /// Enables topology poisoning.
    pub fn with_topology_attack(mut self) -> Self {
        self.allow_topology_attack = true;
        self
    }

    /// Adds an extra secured measurement.
    pub fn secure_measurement(mut self, id: sta_grid::MeasurementId) -> Self {
        self.extra_secured_measurements.push(id);
        self
    }

    /// Adds extra secured buses (all their measurements become secured).
    pub fn secure_buses(mut self, buses: &[BusId]) -> Self {
        self.extra_secured_buses.extend_from_slice(buses);
        self
    }

    /// Marks every measurement residing at `bus` inaccessible — a
    /// physically hardened substation the attacker cannot enter (the
    /// paper's accessibility attribute at substation granularity).
    pub fn deny_bus_access(mut self, grid: &sta_grid::Grid, bus: BusId) -> Self {
        for m in 0..grid.num_potential_measurements() {
            let id = sta_grid::MeasurementId(m);
            if sta_grid::MeasurementConfig::bus_of(grid, id) == bus {
                self.inaccessible_measurements.push(id);
            }
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let m = AttackModel::new(5)
            .target(BusId(2), StateTarget::MustChange)
            .target(BusId(4), StateTarget::MustNotChange)
            .require_different_change(BusId(1), BusId(2))
            .max_altered_measurements(4)
            .max_compromised_buses(2)
            .with_topology_attack();
        assert_eq!(m.targets[2], StateTarget::MustChange);
        assert_eq!(m.targets[4], StateTarget::MustNotChange);
        assert_eq!(m.targets[0], StateTarget::Free);
        assert_eq!(m.different_changes, vec![(BusId(1), BusId(2))]);
        assert!(m.allow_topology_attack);
    }

    #[test]
    fn unknown_lines_builds_knowledge_vector() {
        let m = AttackModel::new(3).unknown_lines(6, &[1, 4]);
        let bd = m.known_admittances.unwrap();
        assert_eq!(bd, vec![true, false, true, true, false, true]);
    }
}
