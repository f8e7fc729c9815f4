//! Attack vectors: the witnesses extracted from satisfiable models.

use sta_grid::{BusId, LineId, MeasurementId};
use sta_smt::{Interrupt, SolverStats};
use std::fmt;

/// One measurement alteration: inject `delta` into the meter reading.
#[derive(Debug, Clone, PartialEq)]
pub struct Alteration {
    /// The altered measurement.
    pub measurement: MeasurementId,
    /// The false data added to the true reading (`a_i`).
    pub delta: f64,
}

/// A concrete undetected false-data-injection attack.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttackVector {
    /// Measurements to alter, with their injection amounts (`cz`/`a`).
    pub alterations: Vec<Alteration>,
    /// Substations the attacker must compromise (`cb`).
    pub compromised_buses: Vec<BusId>,
    /// Resulting change of each state estimate (`Δθ_j`, reference
    /// included as zero).
    pub state_changes: Vec<f64>,
    /// Lines excluded from the mapped topology (`el`).
    pub excluded_lines: Vec<LineId>,
    /// Lines included into the mapped topology (`il`).
    pub included_lines: Vec<LineId>,
}

impl AttackVector {
    /// Number of altered measurements.
    pub fn num_alterations(&self) -> usize {
        self.alterations.len()
    }

    /// Whether the attack uses topology poisoning.
    pub fn uses_topology_attack(&self) -> bool {
        !self.excluded_lines.is_empty() || !self.included_lines.is_empty()
    }

    /// Buses whose state estimate moves by more than `tol`.
    pub fn attacked_states(&self, tol: f64) -> Vec<BusId> {
        self.state_changes
            .iter()
            .enumerate()
            .filter(|(_, d)| d.abs() > tol)
            .map(|(j, _)| BusId(j))
            .collect()
    }
}

impl fmt::Display for AttackVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "alter {{")?;
        for (i, a) in self.alterations.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {:+.4}", a.measurement.0 + 1, a.delta)?;
        }
        write!(f, "}} via buses {{")?;
        for (i, b) in self.compromised_buses.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", b.0 + 1)?;
        }
        write!(f, "}}")?;
        if self.uses_topology_attack() {
            write!(f, " excluding {{")?;
            for (i, l) in self.excluded_lines.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", l.0 + 1)?;
            }
            write!(f, "}} including {{")?;
            for (i, l) in self.included_lines.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", l.0 + 1)?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

/// Outcome of one attack-feasibility verification.
#[derive(Debug, Clone)]
pub enum AttackOutcome {
    /// The scenario admits an attack; here is one.
    Feasible(Box<AttackVector>),
    /// No attack satisfies the scenario's constraints.
    Infeasible,
    /// The verification's budget ran out before a verdict — the scenario is
    /// undecided, which is *not* the same as infeasible (see
    /// [`crate::attack::VerifySession::verify_with_budget`]).
    Unknown(Interrupt),
}

impl AttackOutcome {
    /// Whether an attack exists.
    pub fn is_feasible(&self) -> bool {
        matches!(self, AttackOutcome::Feasible(_))
    }

    /// Whether the verification ran out of budget before a verdict.
    pub fn is_unknown(&self) -> bool {
        matches!(self, AttackOutcome::Unknown(_))
    }

    /// The witness, if feasible.
    pub fn vector(&self) -> Option<&AttackVector> {
        match self {
            AttackOutcome::Feasible(v) => Some(v),
            AttackOutcome::Infeasible | AttackOutcome::Unknown(_) => None,
        }
    }

    /// Extracts the witness.
    ///
    /// # Panics
    /// Panics if infeasible or unknown.
    pub fn expect_feasible(self) -> AttackVector {
        match self {
            AttackOutcome::Feasible(v) => *v,
            AttackOutcome::Infeasible => panic!("expected a feasible attack"),
            AttackOutcome::Unknown(why) => {
                panic!("expected a feasible attack, got unknown ({why})")
            }
        }
    }
}

/// An outcome together with the solver statistics of the check — what the
/// evaluation section's timing/memory figures are built from.
#[derive(Debug, Clone)]
pub struct VerificationReport {
    /// Feasibility and witness.
    pub outcome: AttackOutcome,
    /// Resource usage of the underlying SMT check.
    pub stats: SolverStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_lists_one_indexed() {
        let v = AttackVector {
            alterations: vec![Alteration { measurement: MeasurementId(7), delta: 0.5 }],
            compromised_buses: vec![BusId(3)],
            state_changes: vec![0.0, 0.2],
            excluded_lines: vec![LineId(12)],
            included_lines: vec![],
        };
        let text = v.to_string();
        assert!(text.contains("8"), "{text}");
        assert!(text.contains("buses {4}"), "{text}");
        assert!(text.contains("excluding {13}"), "{text}");
        assert!(v.uses_topology_attack());
        assert_eq!(v.attacked_states(0.1), vec![BusId(1)]);
    }

    #[test]
    fn outcome_accessors() {
        let fe = AttackOutcome::Feasible(Box::new(AttackVector::default()));
        assert!(fe.is_feasible());
        assert!(fe.vector().is_some());
        let inf = AttackOutcome::Infeasible;
        assert!(!inf.is_feasible());
        assert!(inf.vector().is_none());
    }

    #[test]
    #[should_panic(expected = "feasible")]
    fn expect_feasible_panics_on_infeasible() {
        AttackOutcome::Infeasible.expect_feasible();
    }
}
