//! Security threat analytics: grid-wide attackability assessment.
//!
//! The verification model answers one scenario at a time; an operator
//! wants the whole picture — which state estimates are attackable at all,
//! how much attacker effort each needs (the minimal `T_CZ`/`T_CB` that
//! keeps the scenario satisfiable), and which lines open topology-attack
//! channels. [`ThreatAnalyzer`] sweeps those questions with repeated
//! verifier calls (binary search on the resource budgets) and packages a
//! [`ThreatAssessment`] an operator — or the synthesis front end — can
//! rank.

use crate::attack::{AttackModel, AttackVector, AttackVerifier, StateTarget};
use sta_estimator::PowerFlowError;
use sta_grid::{BusId, LineId, TestSystem};
use std::fmt;

/// Attackability of one state estimate.
#[derive(Debug, Clone)]
pub struct StateThreat {
    /// The state (bus) assessed.
    pub bus: BusId,
    /// Minimal number of altered measurements over all attacks corrupting
    /// this state, or `None` if it cannot be attacked at all.
    pub min_measurements: Option<usize>,
    /// Minimal number of compromised substations.
    pub min_buses: Option<usize>,
    /// A minimal-measurement witness.
    pub example: Option<AttackVector>,
}

impl StateThreat {
    /// Whether any stealthy attack reaches this state.
    pub fn is_attackable(&self) -> bool {
        self.min_measurements.is_some()
    }
}

/// Grid-wide assessment.
#[derive(Debug, Clone)]
pub struct ThreatAssessment {
    /// Per-state threats, indexed by bus.
    pub states: Vec<StateThreat>,
    /// Lines whose breaker-status telemetry an attacker could falsify
    /// (exclusion or inclusion candidates under the system's flags).
    pub poisonable_lines: Vec<LineId>,
}

impl ThreatAssessment {
    /// States sorted by ascending attack cost (cheapest first); the
    /// un-attackable states are omitted.
    pub fn ranked(&self) -> Vec<&StateThreat> {
        let mut v: Vec<&StateThreat> =
            self.states.iter().filter(|s| s.is_attackable()).collect();
        v.sort_by_key(|s| (s.min_measurements.unwrap(), s.min_buses.unwrap_or(0)));
        v
    }

    /// Number of attackable states.
    pub fn num_attackable(&self) -> usize {
        self.states.iter().filter(|s| s.is_attackable()).count()
    }
}

impl fmt::Display for ThreatAssessment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} of {} states attackable",
            self.num_attackable(),
            self.states.len()
        )?;
        for s in self.ranked() {
            writeln!(
                f,
                "  bus {}: ≥{} measurements in ≥{} substations",
                s.bus.0 + 1,
                s.min_measurements.unwrap(),
                s.min_buses.unwrap_or(0),
            )?;
        }
        if !self.poisonable_lines.is_empty() {
            write!(f, "  poisonable lines:")?;
            for l in &self.poisonable_lines {
                write!(f, " {}", l.0 + 1)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Sweeps the attack model over every state of a system.
#[derive(Debug)]
pub struct ThreatAnalyzer<'a> {
    system: &'a TestSystem,
    verifier: AttackVerifier,
}

impl<'a> ThreatAnalyzer<'a> {
    /// Creates an analyzer whose probes model a full-knowledge attacker.
    ///
    /// # Errors
    /// As [`AttackVerifier::new`]: an islanded system has no operating
    /// point to anchor on.
    pub fn new(system: &'a TestSystem) -> Result<Self, PowerFlowError> {
        Ok(ThreatAnalyzer { system, verifier: AttackVerifier::new(system)? })
    }

    fn probe(&self, bus: BusId, t_cz: Option<usize>, t_cb: Option<usize>) -> Option<AttackVector> {
        let mut model =
            AttackModel::new(self.system.grid.num_buses()).target(bus, StateTarget::MustChange);
        model.max_altered_measurements = t_cz;
        model.max_compromised_buses = t_cb;
        self.verifier.verify(&model).vector().cloned()
    }

    /// Binary-searches the minimal feasible value of a budget in
    /// `[1, hi]`, given that `hi` is feasible.
    fn minimize(
        &self,
        hi: usize,
        feasible_at: impl Fn(usize) -> bool,
    ) -> usize {
        let mut lo = 1usize;
        let mut hi = hi;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if feasible_at(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Assesses one state.
    pub fn assess_state(&self, bus: BusId) -> StateThreat {
        let Some(unbounded) = self.probe(bus, None, None) else {
            return StateThreat {
                bus,
                min_measurements: None,
                min_buses: None,
                example: None,
            };
        };
        let m0 = unbounded.num_alterations();
        let min_m =
            self.minimize(m0, |k| self.probe(bus, Some(k), None).is_some());
        let witness = self.probe(bus, Some(min_m), None).expect("minimum feasible");
        let b0 = witness.compromised_buses.len();
        let min_b =
            self.minimize(b0, |k| self.probe(bus, None, Some(k)).is_some());
        StateThreat {
            bus,
            min_measurements: Some(min_m),
            min_buses: Some(min_b),
            example: Some(witness),
        }
    }

    /// Assesses every non-reference state plus the topology channels.
    pub fn assess(&self) -> ThreatAssessment {
        let b = self.system.grid.num_buses();
        let states = (0..b)
            .map(|j| {
                if j == self.system.reference_bus.0 {
                    StateThreat {
                        bus: BusId(j),
                        min_measurements: None,
                        min_buses: None,
                        example: None,
                    }
                } else {
                    self.assess_state(BusId(j))
                }
            })
            .collect();
        let poisonable_lines = (0..self.system.grid.num_lines())
            .map(LineId)
            .filter(|&l| self.system.excludable(l) || self.system.includable(l))
            .collect();
        ThreatAssessment { states, poisonable_lines }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sta_grid::ieee14;

    #[test]
    fn assessment_covers_every_state() {
        let sys = ieee14::system_unsecured();
        let analyzer = ThreatAnalyzer::new(&sys).unwrap();
        let assessment = analyzer.assess();
        assert_eq!(assessment.states.len(), 14);
        // The reference state is never attackable; everything else is in
        // the unsecured configuration.
        assert!(!assessment.states[0].is_attackable());
        assert_eq!(assessment.num_attackable(), 13);
        // Lines 5 and 13 are the poisonable ones (non-core).
        let p: Vec<usize> =
            assessment.poisonable_lines.iter().map(|l| l.0 + 1).collect();
        assert_eq!(p, vec![5, 13]);
    }

    #[test]
    fn minimal_budgets_are_tight() {
        let sys = ieee14::system_unsecured();
        let analyzer = ThreatAnalyzer::new(&sys).unwrap();
        // State 12's minimal attack (paper Objective 2 neighborhood):
        // 5 altered measurements across 3 buses is known to work; nothing
        // smaller can (its two incident lines demand those meters).
        let threat = analyzer.assess_state(BusId(11));
        assert_eq!(threat.min_measurements, Some(5));
        assert_eq!(threat.min_buses, Some(3));
        let witness = threat.example.unwrap();
        assert_eq!(witness.num_alterations(), 5);
    }

    #[test]
    fn ranking_orders_by_cost() {
        let sys = ieee14::system_unsecured();
        let analyzer = ThreatAnalyzer::new(&sys).unwrap();
        let assessment = analyzer.assess();
        let ranked = assessment.ranked();
        for pair in ranked.windows(2) {
            assert!(
                pair[0].min_measurements.unwrap() <= pair[1].min_measurements.unwrap()
            );
        }
        // Display smoke.
        let text = assessment.to_string();
        assert!(text.contains("states attackable"));
    }

    #[test]
    fn secured_system_reduces_attack_surface() {
        let secured = ieee14::system();
        let unsecured = ieee14::system_unsecured();
        let a_secured = ThreatAnalyzer::new(&secured).unwrap().assess();
        let a_unsecured = ThreatAnalyzer::new(&unsecured).unwrap().assess();
        // Table III's protections cannot make any state cheaper to attack.
        for j in 0..14 {
            match (
                a_unsecured.states[j].min_measurements,
                a_secured.states[j].min_measurements,
            ) {
                (None, Some(_)) => panic!("protection enabled an attack"),
                (Some(u), Some(s)) => assert!(s >= u, "bus {}", j + 1),
                _ => {}
            }
        }
    }

    #[test]
    fn enumerate_produces_distinct_attacks() {
        let sys = ieee14::system_unsecured();
        let verifier = AttackVerifier::new(&sys).unwrap();
        let model = AttackModel::new(14)
            .target(BusId(11), StateTarget::MustChange)
            .max_altered_measurements(8);
        let attacks = verifier.enumerate(&model, 4);
        assert!(attacks.len() >= 2, "expected multiple distinct attacks");
        // Pairwise distinct alteration sets.
        for i in 0..attacks.len() {
            for j in i + 1..attacks.len() {
                let a: Vec<_> =
                    attacks[i].alterations.iter().map(|x| x.measurement).collect();
                let b: Vec<_> =
                    attacks[j].alterations.iter().map(|x| x.measurement).collect();
                assert_ne!(a, b);
            }
        }
    }
}
