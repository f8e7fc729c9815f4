//! Cut-based attack construction — the classical combinatorial baseline.
//!
//! The paper's §III-G recalls the known result that "it is possible to
//! launch a UFDI attack … if the attacker can form a cut that divides the
//! grid into two disjoint islands": shift the phase-angle estimate of one
//! island uniformly by `c` and adjust exactly the meters on the cut (the
//! island-internal flows see no relative change). This module implements
//! that construction directly — a BFS-grown island search plus explicit
//! alteration synthesis — giving an *independent* attack generator to
//! cross-validate the SMT verifier against: every cut attack must verify
//! as feasible, and the SMT minimum can never exceed the best cut's cost.
//!
//! The uniform-shift structure also shows why the paper's Eq. 26
//! (`Δθ_a ≠ Δθ_b`) matters: cut attacks corrupt many states but leave
//! their *relative* angles — and hence island-internal flows — untouched.

use crate::attack::{Alteration, AttackVector};
use sta_grid::{BusId, LineId, MeasurementConfig, MeasurementId, TestSystem};
use std::collections::BTreeSet;

/// A cut attack: shift every bus in `island` by `shift`.
#[derive(Debug, Clone)]
pub struct CutAttack {
    /// Buses whose state estimates move (the island).
    pub island: Vec<BusId>,
    /// Lines crossing the cut.
    pub cut_lines: Vec<LineId>,
    /// The uniform phase shift applied to the island.
    pub shift: f64,
    /// Number of measurement alterations the attack needs.
    pub cost: usize,
}

impl CutAttack {
    /// Materializes the concrete attack vector (deltas per meter).
    pub fn to_vector(&self, sys: &TestSystem) -> AttackVector {
        let b = sys.grid.num_buses();
        let l = sys.grid.num_lines();
        let in_island = {
            let mut v = vec![false; b];
            for bus in &self.island {
                v[bus.0] = true;
            }
            v
        };
        let mut state_changes = vec![0.0; b];
        for bus in &self.island {
            state_changes[bus.0] = self.shift;
        }
        // Flow deltas: only cut lines change; sign depends on which end
        // is inside.
        let mut flow_delta = vec![0.0f64; l];
        for &line_id in &self.cut_lines {
            let line = sys.grid.line(line_id);
            let df = if in_island[line.from.0] { self.shift } else { 0.0 };
            let dt = if in_island[line.to.0] { self.shift } else { 0.0 };
            flow_delta[line_id.0] = line.admittance * (df - dt);
        }
        let mut alterations = Vec::new();
        for i in 0..l {
            if flow_delta[i] == 0.0 {
                continue;
            }
            if sys.measurements.is_taken(MeasurementId(i)) {
                alterations.push(Alteration {
                    measurement: MeasurementId(i),
                    delta: flow_delta[i],
                });
            }
            if sys.measurements.is_taken(MeasurementId(l + i)) {
                alterations.push(Alteration {
                    measurement: MeasurementId(l + i),
                    delta: -flow_delta[i],
                });
            }
        }
        for j in 0..b {
            let mut dpb = 0.0;
            for (li, _) in sys.grid.incoming(BusId(j)) {
                dpb += flow_delta[li.0];
            }
            for (li, _) in sys.grid.outgoing(BusId(j)) {
                dpb -= flow_delta[li.0];
            }
            if dpb != 0.0 && sys.measurements.is_taken(MeasurementId(2 * l + j)) {
                alterations.push(Alteration {
                    measurement: MeasurementId(2 * l + j),
                    delta: dpb,
                });
            }
        }
        let mut buses: Vec<BusId> = alterations
            .iter()
            .map(|a| MeasurementConfig::bus_of(&sys.grid, a.measurement))
            .collect();
        buses.sort_unstable();
        buses.dedup();
        AttackVector {
            alterations,
            compromised_buses: buses,
            state_changes,
            excluded_lines: Vec::new(),
            included_lines: Vec::new(),
        }
    }
}

/// Counts the meters an island shift must alter, or `None` if one of
/// them is secured/inaccessible (the cut is unusable).
fn cut_cost(sys: &TestSystem, in_island: &[bool]) -> Option<usize> {
    let l = sys.grid.num_lines();
    let alterable = |m: usize| {
        let id = MeasurementId(m);
        !sys.measurements.is_taken(id)
            || (!sys.measurements.is_secured(id) && sys.measurements.is_accessible(id))
    };
    let counts_if_taken = |m: usize| usize::from(sys.measurements.is_taken(MeasurementId(m)));
    let mut cost = 0usize;
    let mut touched_bus = vec![false; sys.grid.num_buses()];
    for (i, line) in sys.grid.lines().iter().enumerate() {
        if !sys.topology.is_in_service(LineId(i)) {
            continue;
        }
        let crossing = in_island[line.from.0] != in_island[line.to.0];
        if !crossing {
            continue;
        }
        if !alterable(i) || !alterable(l + i) {
            return None;
        }
        cost += counts_if_taken(i) + counts_if_taken(l + i);
        touched_bus[line.from.0] = true;
        touched_bus[line.to.0] = true;
    }
    for (j, &touched) in touched_bus.iter().enumerate() {
        if !touched {
            continue;
        }
        let m = 2 * l + j;
        if !alterable(m) {
            return None;
        }
        cost += counts_if_taken(m);
    }
    Some(cost)
}

/// Finds the cheapest *connected* island containing `target` (and not the
/// reference bus) by greedy BFS growth: start from `{target}` and
/// repeatedly absorb the neighboring bus that most reduces the cut cost,
/// keeping the best island seen. A classical heuristic — optimal cuts are
/// NP-hard, which is the paper's point about needing the SMT model.
///
/// Returns `None` when no usable cut exists (e.g. protection blocks every
/// island around the target).
pub fn best_cut_attack(sys: &TestSystem, target: BusId, shift: f64) -> Option<CutAttack> {
    let b = sys.grid.num_buses();
    if target == sys.reference_bus {
        return None;
    }
    let mut in_island = vec![false; b];
    in_island[target.0] = true;
    let mut best: Option<(usize, Vec<bool>)> = cut_cost(sys, &in_island)
        .map(|c| (c, in_island.clone()));
    // Greedy absorption, at most b−2 rounds (never absorb the reference).
    for _ in 0..b.saturating_sub(2) {
        // Candidate neighbors of the island.
        let mut candidates: BTreeSet<usize> = BTreeSet::new();
        for (i, line) in sys.grid.lines().iter().enumerate() {
            if !sys.topology.is_in_service(LineId(i)) {
                continue;
            }
            let (f, t) = (line.from.0, line.to.0);
            if in_island[f] != in_island[t] {
                let outside = if in_island[f] { t } else { f };
                if outside != sys.reference_bus.0 {
                    candidates.insert(outside);
                }
            }
        }
        // Pick the absorption with the lowest resulting cost.
        let mut round_best: Option<(usize, usize)> = None; // (cost, bus)
        for &cand in &candidates {
            in_island[cand] = true;
            if let Some(c) = cut_cost(sys, &in_island) {
                if round_best.map_or(true, |(bc, _)| c < bc) {
                    round_best = Some((c, cand));
                }
            }
            in_island[cand] = false;
        }
        let Some((cost, bus)) = round_best else { break };
        in_island[bus] = true;
        if best.as_ref().map_or(true, |(bc, _)| cost < *bc) {
            best = Some((cost, in_island.clone()));
        }
    }
    let (cost, island_mask) = best?;
    if cost == 0 {
        // A zero-cost "attack" alters nothing (completely unmetered cut);
        // it would not be a meaningful vector.
        return None;
    }
    let island: Vec<BusId> = island_mask
        .iter()
        .enumerate()
        .filter(|(_, &v)| v)
        .map(|(j, _)| BusId(j))
        .collect();
    let cut_lines: Vec<LineId> = sys
        .grid
        .lines()
        .iter()
        .enumerate()
        .filter(|(i, line)| {
            sys.topology.is_in_service(LineId(*i))
                && island_mask[line.from.0] != island_mask[line.to.0]
        })
        .map(|(i, _)| LineId(i))
        .collect();
    Some(CutAttack { island, cut_lines, shift, cost })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytics::ThreatAnalyzer;
    use crate::validation;
    use sta_grid::ieee14;

    #[test]
    fn cut_attack_exists_and_replays_stealthily() {
        let sys = ieee14::system_unsecured();
        for target in 1..14 {
            let cut = best_cut_attack(&sys, BusId(target), 0.1)
                .unwrap_or_else(|| panic!("cut for state {}", target + 1));
            let vector = cut.to_vector(&sys);
            assert_eq!(vector.num_alterations(), cut.cost);
            let replay = validation::replay_default(&sys, &vector).unwrap();
            assert!(replay.is_stealthy(1e-6), "state {}: {replay}", target + 1);
            assert!(replay.state_shifts[target].abs() > 0.05);
        }
    }

    #[test]
    fn island_members_shift_together() {
        let sys = ieee14::system_unsecured();
        let cut = best_cut_attack(&sys, BusId(11), 0.2).unwrap();
        let vector = cut.to_vector(&sys);
        let replay = validation::replay_default(&sys, &vector).unwrap();
        for bus in &cut.island {
            assert!(
                (replay.state_shifts[bus.0] - 0.2).abs() < 1e-6,
                "bus {} shifted {}",
                bus.0 + 1,
                replay.state_shifts[bus.0]
            );
        }
        // Non-island states do not move.
        for j in 0..14 {
            if !cut.island.contains(&BusId(j)) {
                assert!(replay.state_shifts[j].abs() < 1e-9);
            }
        }
    }

    #[test]
    fn smt_minimum_never_exceeds_cut_cost() {
        // The SMT model searches all attacks; the greedy cut is one of
        // them, so min_measurements ≤ cut cost for every state.
        let sys = ieee14::system_unsecured();
        let analyzer = ThreatAnalyzer::new(&sys).unwrap();
        for target in 1..14 {
            let cut = best_cut_attack(&sys, BusId(target), 0.1).unwrap();
            let threat = analyzer.assess_state(BusId(target));
            let smt_min = threat.min_measurements.expect("attackable");
            assert!(
                smt_min <= cut.cost,
                "state {}: smt {} > cut {}",
                target + 1,
                smt_min,
                cut.cost
            );
        }
    }

    #[test]
    fn protection_can_eliminate_all_cuts() {
        // Secure every bus: no usable cut remains anywhere.
        let sys = ieee14::system_unsecured();
        let all: Vec<BusId> = (0..14).map(BusId).collect();
        let mut fortified = sys.clone();
        fortified.measurements =
            sys.measurements.with_secured_buses(&sys.grid, &all);
        for target in 1..14 {
            assert!(best_cut_attack(&fortified, BusId(target), 0.1).is_none());
        }
    }

    #[test]
    fn reference_bus_has_no_cut() {
        let sys = ieee14::system_unsecured();
        assert!(best_cut_attack(&sys, BusId(0), 0.1).is_none());
    }
}
