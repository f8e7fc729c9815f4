//! Regression tests for the paper's §III-I and §IV-E case studies on the
//! IEEE 14-bus system.
//!
//! The case-study configuration uses Table III's taken set but not its
//! secured column (see `ieee14::system_unsecured` docs), with the
//! admittances of lines 3, 7 and 17 unknown to the attacker.

use sta::core::attack::{AttackModel, AttackVerifier, StateTarget};
use sta::core::synthesis::{SynthesisConfig, Synthesizer};
use sta::core::validation;
use sta::grid::{ieee14, BusId, LineId, MeasurementId};

/// The §III-I example configuration: unsecured Table III taken set.
fn example_system() -> sta::grid::TestSystem {
    ieee14::system_unsecured()
}

/// Objective 1's attack model: states 9 and 10 corrupted by different
/// amounts, ≤ `t_cz` measurements in ≤ `t_cb` substations.
fn objective1(t_cz: usize, t_cb: usize, different: bool) -> AttackModel {
    let mut m = AttackModel::new(14)
        .unknown_lines(20, &ieee14::EXAMPLE_UNKNOWN_LINES.map(|l| l - 1))
        .target(BusId(8), StateTarget::MustChange)
        .target(BusId(9), StateTarget::MustChange)
        .max_altered_measurements(t_cz)
        .max_compromised_buses(t_cb);
    if different {
        m = m.require_different_change(BusId(8), BusId(9));
    }
    m
}

#[test]
fn objective1_feasible_at_paper_budget() {
    let sys = example_system();
    let verifier = AttackVerifier::new(&sys).unwrap();
    let attack = verifier.verify(&objective1(16, 7, true)).expect_feasible();
    assert!(attack.num_alterations() <= 16);
    assert!(attack.compromised_buses.len() <= 7);
    // States 9 and 10 (indices 8, 9) moved by different amounts.
    let d9 = attack.state_changes[8];
    let d10 = attack.state_changes[9];
    assert!(d9.abs() > 1e-9 && d10.abs() > 1e-9);
    assert!((d9 - d10).abs() > 1e-9);
    // End-to-end: the witness is stealthy against the real estimator.
    let replay = validation::replay_default(&sys, &attack).unwrap();
    assert!(replay.is_stealthy(1e-6), "{replay}");
}

#[test]
fn objective1_equal_change_needs_fewer_resources() {
    let sys = example_system();
    let verifier = AttackVerifier::new(&sys).unwrap();
    // Allowing equal changes, the paper finds a 15-measurement/6-bus
    // attack.
    let attack = verifier.verify(&objective1(15, 6, false)).expect_feasible();
    assert!(attack.num_alterations() <= 15);
    assert!(attack.compromised_buses.len() <= 6);
    let replay = validation::replay_default(&sys, &attack).unwrap();
    assert!(replay.is_stealthy(1e-6), "{replay}");
}

#[test]
fn objective1_has_sharp_feasibility_thresholds() {
    // The paper reports the transition at 16 measurements / 7 buses; with
    // full accessibility (Table III's accessibility column is not
    // published) our model's exact minima are 13 measurements and 6
    // buses. The *shape* — a sharp sat/unsat budget threshold, with the
    // bus budget binding independently of the measurement budget — is the
    // reproduced result (see EXPERIMENTS.md).
    let sys = example_system();
    let verifier = AttackVerifier::new(&sys).unwrap();
    assert!(verifier.verify(&objective1(13, 6, true)).is_feasible());
    assert!(
        !verifier.verify(&objective1(12, 14, true)).is_feasible(),
        "12 measurements must not suffice at any bus budget"
    );
    assert!(
        !verifier.verify(&objective1(54, 5, true)).is_feasible(),
        "5 buses must not suffice at any measurement budget"
    );
}

#[test]
fn objective1_states_9_10_cannot_be_attacked_alone() {
    // "along with 9 and 10, some other states are also required to be
    // corrupted; only states 9 and 10 cannot be attacked alone."
    let sys = example_system();
    let verifier = AttackVerifier::new(&sys).unwrap();
    let mut m = AttackModel::new(14)
        .unknown_lines(20, &ieee14::EXAMPLE_UNKNOWN_LINES.map(|l| l - 1))
        .target(BusId(8), StateTarget::MustChange)
        .target(BusId(9), StateTarget::MustChange);
    for j in 0..14 {
        if j != 8 && j != 9 {
            m = m.target(BusId(j), StateTarget::MustNotChange);
        }
    }
    assert!(!verifier.verify(&m).is_feasible());
}

/// Objective 2's attack model: state 12 only, nothing else affected.
fn objective2() -> AttackModel {
    let mut m = AttackModel::new(14)
        .unknown_lines(20, &ieee14::EXAMPLE_UNKNOWN_LINES.map(|l| l - 1))
        .target(BusId(11), StateTarget::MustChange);
    for j in 0..14 {
        if j != 11 {
            m = m.target(BusId(j), StateTarget::MustNotChange);
        }
    }
    m
}

#[test]
fn objective2_matches_paper_measurement_set() {
    let sys = example_system();
    let verifier = AttackVerifier::new(&sys).unwrap();
    let attack = verifier.verify(&objective2()).expect_feasible();
    let mut meters: Vec<usize> =
        attack.alterations.iter().map(|a| a.measurement.0 + 1).collect();
    meters.sort_unstable();
    // The paper: measurements 12, 32, 39, 46 and 53.
    assert_eq!(meters, vec![12, 32, 39, 46, 53]);
    let replay = validation::replay_default(&sys, &attack).unwrap();
    assert!(replay.is_stealthy(1e-6), "{replay}");
    // Only state 12 (index 11) shifted.
    for (j, shift) in replay.state_shifts.iter().enumerate() {
        if j == 11 {
            assert!(shift.abs() > 1e-9);
        } else {
            assert!(shift.abs() < 1e-6, "state {} moved {shift}", j + 1);
        }
    }
}

#[test]
fn objective2_blocked_by_securing_measurement_46() {
    let sys = example_system();
    let verifier = AttackVerifier::new(&sys).unwrap();
    let model = objective2().secure_measurement(MeasurementId(45));
    assert!(!verifier.verify(&model).is_feasible());
}

#[test]
fn objective2_revived_by_topology_poisoning() {
    // With measurement 46 secured, excluding line 13 re-enables the
    // attack; the paper reports measurements 12, 13, 32, 33, 39 and 53.
    let sys = example_system();
    let verifier = AttackVerifier::new(&sys).unwrap();
    let model = objective2()
        .secure_measurement(MeasurementId(45))
        .with_topology_attack();
    let attack = verifier.verify(&model).expect_feasible();
    assert_eq!(attack.excluded_lines, vec![LineId(12)]); // line 13
    assert!(attack.included_lines.is_empty());
    let mut meters: Vec<usize> =
        attack.alterations.iter().map(|a| a.measurement.0 + 1).collect();
    meters.sort_unstable();
    assert_eq!(meters, vec![12, 13, 32, 33, 39, 53]);
    // End-to-end under the poisoned topology.
    let replay = validation::replay_default(&sys, &attack).unwrap();
    assert!(replay.is_stealthy(1e-6), "{replay}");
}

// --- §IV-E synthesis scenarios -----------------------------------------

/// The §IV-E candidate convention: all three published architectures
/// include bus 1 (the declared reference), so scenarios force it.
fn scenario_config(budget: usize) -> SynthesisConfig {
    SynthesisConfig::with_budget(budget).with_reference_secured()
}

#[test]
fn scenario1_four_buses_suffice_for_limited_attacker() {
    // Attacker: admittances of lines 3 and 17 unknown, ≤ 12 measurements,
    // any state as target. The paper synthesizes {1, 6, 7, 10}.
    let sys = example_system();
    let synth = Synthesizer::new(&sys).unwrap();
    let attacker = AttackModel::new(14)
        .unknown_lines(20, &[2, 16])
        .max_altered_measurements(12);
    let outcome = synth.synthesize(&attacker, &scenario_config(4));
    let arch = outcome.architecture().expect("4 buses suffice");
    assert!(arch.secured_buses.len() <= 4);
    assert!(arch.secured_buses.contains(&BusId(0)), "reference secured");
    // Independent re-verification.
    let verifier = AttackVerifier::new(&sys).unwrap();
    let hardened = attacker.clone().secure_buses(&arch.secured_buses);
    assert!(!verifier.verify(&hardened).is_feasible());
    // The reference bus alone is not enough.
    assert!(!synth.synthesize(&attacker, &scenario_config(1)).is_solution());
}

#[test]
fn scenario2_full_knowledge_needs_five_buses() {
    // Full knowledge, unlimited resources: no 4-bus architecture exists,
    // 5 buses suffice — the paper's 4 → 5 transition, reproduced exactly.
    let sys = example_system();
    let synth = Synthesizer::new(&sys).unwrap();
    let attacker = AttackModel::new(14);
    let small = synth.synthesize(&attacker, &scenario_config(4));
    assert!(!small.is_solution(), "scenario 2: 4 buses must not suffice");
    let larger = synth.synthesize(&attacker, &scenario_config(5));
    let arch = larger.architecture().expect("5 buses suffice");
    assert_eq!(arch.secured_buses.len(), 5);
    let verifier = AttackVerifier::new(&sys).unwrap();
    let hardened = attacker.clone().secure_buses(&arch.secured_buses);
    assert!(!verifier.verify(&hardened).is_feasible());
}

#[test]
fn scenario3_architecture_resists_topology_poisoning() {
    // Full knowledge + topology poisoning (lines 5 and 13 vulnerable).
    // The paper reports a 5 → 6 transition; under full accessibility our
    // exact minimum stays at 5 (the same architecture's secured meters
    // already pin every state even with line 5 or 13 excluded — see
    // EXPERIMENTS.md). The reproduced shape: 4 buses fail, a solution
    // exists, and it independently resists the topology-armed attacker.
    let sys = example_system();
    let synth = Synthesizer::new(&sys).unwrap();
    let attacker = AttackModel::new(14).with_topology_attack();
    assert!(
        !synth.synthesize(&attacker, &scenario_config(4)).is_solution(),
        "scenario 3: 4 buses must not suffice"
    );
    let outcome = synth.synthesize(&attacker, &scenario_config(5));
    let arch = outcome.architecture().expect("architecture exists");
    let verifier = AttackVerifier::new(&sys).unwrap();
    let hardened = attacker.clone().secure_buses(&arch.secured_buses);
    assert!(!verifier.verify(&hardened).is_feasible());
    // Sanity: the same budget *without* those buses leaves topology
    // attacks open (the unprotected grid is attackable).
    assert!(verifier.verify(&attacker).is_feasible());
}

#[test]
fn published_sets_are_reproduced_exactly() {
    // Two results match the paper's published sets exactly, not just in
    // verdict: Objective 1's compromised substations at ≤16/≤7, and
    // Scenario 2's budget-5 architecture.
    let sys = example_system();
    let verifier = AttackVerifier::new(&sys).unwrap();
    let attack = verifier.verify(&objective1(16, 7, true)).expect_feasible();
    let mut buses: Vec<usize> = attack.compromised_buses.iter().map(|b| b.0 + 1).collect();
    buses.sort_unstable();
    assert_eq!(buses, [4, 7, 9, 10, 11, 13, 14]);
    let synth = Synthesizer::new(&sys).unwrap();
    let outcome = synth.synthesize(&AttackModel::new(14), &scenario_config(5));
    let arch = outcome.architecture().expect("5 buses suffice");
    let mut secured: Vec<usize> = arch.secured_buses.iter().map(|b| b.0 + 1).collect();
    secured.sort_unstable();
    assert_eq!(secured, [1, 3, 6, 8, 9]);
}
