//! Attack impact quantification: what the operator *perceives* after a
//! successful UFDI attack, versus what the grid is physically doing.
//!
//! Feasibility (the paper's §III) says an attack exists; impact analysis
//! says why it matters. A stealthy attack leaves the residual untouched
//! but moves the state estimate, so every quantity the EMS derives from
//! it — line flows, injections, security margins — is wrong by a
//! computable amount. The most operationally dangerous form is **overload
//! masking**: the attacker makes a loaded line look comfortably inside
//! its thermal rating (or a healthy line look overloaded, triggering
//! spurious redispatch).

use crate::attack::AttackVector;
use sta_estimator::dcflow::OperatingPoint;
use sta_grid::{LineId, TestSystem};
use std::fmt;

/// The operator's view of one line after the attack.
#[derive(Debug, Clone)]
pub struct LineImpact {
    /// The line.
    pub line: LineId,
    /// Physical flow (unchanged by the cyber attack).
    pub actual_flow: f64,
    /// Flow the EMS derives from the corrupted estimate.
    pub perceived_flow: f64,
    /// Thermal rating, if known.
    pub rating: Option<f64>,
}

impl LineImpact {
    /// Flow misperception introduced by the attack.
    pub fn error(&self) -> f64 {
        self.perceived_flow - self.actual_flow
    }

    /// The line is physically at/over its rating but looks safe.
    pub fn masks_overload(&self) -> bool {
        match self.rating {
            Some(r) => self.actual_flow.abs() >= r && self.perceived_flow.abs() < r,
            None => false,
        }
    }

    /// The line is physically safe but looks overloaded (spurious alarm).
    pub fn fakes_overload(&self) -> bool {
        match self.rating {
            Some(r) => self.actual_flow.abs() < r && self.perceived_flow.abs() >= r,
            None => false,
        }
    }
}

/// Full impact report of one attack at one operating point.
#[derive(Debug, Clone)]
pub struct ImpactReport {
    /// Per-line perception errors.
    pub lines: Vec<LineImpact>,
    /// Per-bus state-estimate displacement (radians).
    pub state_errors: Vec<f64>,
    /// Per-bus perceived-consumption error.
    pub injection_errors: Vec<f64>,
}

impl ImpactReport {
    /// Largest absolute line-flow misperception.
    pub fn max_flow_error(&self) -> f64 {
        self.lines.iter().fold(0.0f64, |m, l| m.max(l.error().abs()))
    }

    /// Lines whose physical overload the attack hides.
    pub fn masked_overloads(&self) -> Vec<LineId> {
        self.lines
            .iter()
            .filter(|l| l.masks_overload())
            .map(|l| l.line)
            .collect()
    }

    /// Lines the attack makes look overloaded although they are not.
    pub fn spurious_overloads(&self) -> Vec<LineId> {
        self.lines
            .iter()
            .filter(|l| l.fakes_overload())
            .map(|l| l.line)
            .collect()
    }
}

impl fmt::Display for ImpactReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "max flow misperception {:.4} pu; {} masked / {} spurious overloads",
            self.max_flow_error(),
            self.masked_overloads().len(),
            self.spurious_overloads().len(),
        )?;
        for l in &self.lines {
            if l.error().abs() > 1e-9 {
                writeln!(
                    f,
                    "  line {}: actual {:+.4}, perceived {:+.4}{}",
                    l.line.0 + 1,
                    l.actual_flow,
                    l.perceived_flow,
                    match (l.masks_overload(), l.fakes_overload()) {
                        (true, _) => " ← OVERLOAD MASKED",
                        (_, true) => " ← SPURIOUS OVERLOAD",
                        _ => "",
                    }
                )?;
            }
        }
        Ok(())
    }
}

/// Computes the impact of `attack` at operating point `op`.
///
/// The perceived state is `θ̄ + Δθ` with `Δθ` taken from the attack
/// vector; perceived flows are evaluated on the topology the EMS maps
/// (exclusions removed, inclusions added), actual flows on the true
/// topology.
pub fn assess(sys: &TestSystem, op: &OperatingPoint, attack: &AttackVector) -> ImpactReport {
    let mut mapped = sys.topology.clone();
    for &l in &attack.excluded_lines {
        mapped = mapped.with_line_open(l);
    }
    for &l in &attack.included_lines {
        mapped = mapped.with_line_closed(l);
    }
    let b = sys.grid.num_buses();
    let perceived_theta: Vec<f64> = (0..b)
        .map(|j| op.theta[j] + attack.state_changes[j])
        .collect();
    let mut lines = Vec::with_capacity(sys.grid.num_lines());
    let mut injection_errors = vec![0.0f64; b];
    for (i, line) in sys.grid.lines().iter().enumerate() {
        let id = LineId(i);
        let actual = if sys.topology.is_in_service(id) {
            op.line_flows[i]
        } else {
            0.0
        };
        let perceived = if mapped.is_in_service(id) {
            line.admittance
                * (perceived_theta[line.from.0] - perceived_theta[line.to.0])
        } else {
            0.0
        };
        let err = perceived - actual;
        injection_errors[line.to.0] += err;
        injection_errors[line.from.0] -= err;
        lines.push(LineImpact {
            line: id,
            actual_flow: actual,
            perceived_flow: perceived,
            rating: line.rating,
        });
    }
    ImpactReport {
        lines,
        state_errors: attack.state_changes.clone(),
        injection_errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{AttackModel, AttackVerifier, StateTarget};
    use sta_estimator::dcflow;
    use sta_grid::{ieee14, BusId};

    fn setup() -> (sta_grid::TestSystem, OperatingPoint) {
        let sys = ieee14::system_unsecured();
        let injections = dcflow::synthetic_injections(14, 0);
        let op = dcflow::solve(&sys.grid, &sys.topology, &injections, sys.reference_bus)
            .unwrap();
        (sys, op)
    }

    #[test]
    fn no_attack_no_impact() {
        let (sys, op) = setup();
        let nothing = AttackVector {
            state_changes: vec![0.0; 14],
            ..AttackVector::default()
        };
        let report = assess(&sys, &op, &nothing);
        assert!(report.max_flow_error() < 1e-12);
        assert!(report.masked_overloads().is_empty());
    }

    #[test]
    fn verified_attack_misleads_flows() {
        let (sys, op) = setup();
        let verifier = AttackVerifier::new(&sys).unwrap();
        let model = AttackModel::new(14).target(BusId(9), StateTarget::MustChange);
        let attack = verifier.verify(&model).expect_feasible();
        let report = assess(&sys, &op, &attack);
        assert!(report.max_flow_error() > 1e-6);
        // Perception errors are exactly the flow changes the state shifts
        // imply: error_i = y_i(Δθ_f − Δθ_t) for every in-service line.
        for (i, line) in sys.grid.lines().iter().enumerate() {
            let expected = line.admittance
                * (attack.state_changes[line.from.0] - attack.state_changes[line.to.0]);
            assert!(
                (report.lines[i].error() - expected).abs() < 1e-9,
                "line {}",
                i + 1
            );
        }
    }

    #[test]
    fn overload_masking_detected() {
        // Build a system whose line 1 is physically overloaded, then an
        // attack perception that brings it under the rating.
        let (mut sys, op) = setup();
        // Rate line 1 just under its actual loading.
        let actual = op.line_flows[0].abs();
        assert!(actual > 0.0);
        let mut lines = sys.grid.lines().to_vec();
        lines[0] = lines[0].clone().with_rating(actual * 0.9);
        sys.grid = sta_grid::Grid::new(14, lines);
        // Craft a perception shift that reduces line 1's apparent flow:
        // line 1 runs 1→2, flow y(θ1−θ2); increase θ2's perceived angle.
        let shrink = -op.line_flows[0] * 0.5 / sys.grid.line(LineId(0)).admittance;
        let mut state_changes = vec![0.0; 14];
        state_changes[1] = -shrink; // θ2 + Δ reduces (θ1 − θ2) by shrink... sign below
        let attack = AttackVector { state_changes, ..AttackVector::default() };
        let report = assess(&sys, &op, &attack);
        let li = &report.lines[0];
        // Whichever direction, perception moved; if it moved under the
        // rating the mask flag must fire.
        if li.perceived_flow.abs() < actual * 0.9 {
            assert!(li.masks_overload());
            assert_eq!(report.masked_overloads(), vec![LineId(0)]);
        } else {
            assert!(li.error().abs() > 1e-9);
        }
    }

    #[test]
    fn spurious_overload_detected() {
        let (mut sys, op) = setup();
        // Rate line 1 generously, then push perception past it.
        let actual = op.line_flows[0];
        let rating = actual.abs() * 2.0 + 1.0;
        let mut lines = sys.grid.lines().to_vec();
        lines[0] = lines[0].clone().with_rating(rating);
        sys.grid = sta_grid::Grid::new(14, lines);
        let y = sys.grid.line(LineId(0)).admittance;
        let mut state_changes = vec![0.0; 14];
        // Increase perceived θ1−θ2 so flow looks > rating.
        state_changes[1] = -(rating + 1.0 - actual) / y;
        let attack = AttackVector { state_changes, ..AttackVector::default() };
        let report = assess(&sys, &op, &attack);
        assert!(report.lines[0].fakes_overload());
        assert_eq!(report.spurious_overloads(), vec![LineId(0)]);
    }

    #[test]
    fn excluded_line_perceived_as_zero() {
        let (sys, op) = setup();
        let verifier = AttackVerifier::new(&sys).unwrap();
        // The Objective-2 topology attack: line 13 excluded.
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
        assert_eq!(attack.excluded_lines, vec![LineId(12)]);
        let report = assess(&sys, &op, &attack);
        let li = &report.lines[12];
        assert_eq!(li.perceived_flow, 0.0);
        // The physical line still carries its base flow — the whole
        // flow is misperceived.
        assert!((li.error() + op.line_flows[12]).abs() < 1e-9);
    }
}
