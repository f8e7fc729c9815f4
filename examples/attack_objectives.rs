//! The paper's §III-I example case study: Attack Objectives 1 and 2 on
//! the IEEE 14-bus system, reproduced end to end.
//!
//! Run with: `cargo run --release --example attack_objectives`

use sta::core::attack::{AttackModel, AttackVerifier, StateTarget};
use sta::core::validation;
use sta::grid::{ieee14, BusId, MeasurementId};

fn print_outcome(label: &str, outcome: &sta::core::AttackOutcome) {
    match outcome.vector() {
        Some(v) => {
            let mut meters: Vec<usize> =
                v.alterations.iter().map(|a| a.measurement.0 + 1).collect();
            meters.sort_unstable();
            let buses: Vec<usize> =
                v.compromised_buses.iter().map(|b| b.0 + 1).collect();
            println!("{label}: SAT");
            println!("  measurements to alter: {meters:?}");
            println!("  buses to compromise:   {buses:?}");
            if v.uses_topology_attack() {
                let excl: Vec<usize> =
                    v.excluded_lines.iter().map(|l| l.0 + 1).collect();
                println!("  lines to exclude:      {excl:?}");
            }
        }
        None => println!("{label}: UNSAT (no attack vector exists)"),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The §III-I configuration: Table III's taken set, no secured
    // measurements (see ieee14::system_unsecured docs), admittances of
    // lines 3, 7 and 17 unknown to the attacker.
    let sys = ieee14::system_unsecured();
    let verifier = AttackVerifier::new(&sys)?;
    let unknown = ieee14::EXAMPLE_UNKNOWN_LINES.map(|l| l - 1);

    println!("== Attack Objective 1: states 9 and 10, different amounts ==");
    let objective1 = AttackModel::new(14)
        .unknown_lines(20, &unknown)
        .target(BusId(8), StateTarget::MustChange)
        .target(BusId(9), StateTarget::MustChange)
        .require_different_change(BusId(8), BusId(9))
        .max_altered_measurements(16)
        .max_compromised_buses(7);
    let outcome = verifier.verify(&objective1);
    print_outcome("objective 1 (≤16 meas, ≤7 buses)", &outcome);
    if let Some(v) = outcome.vector() {
        let replay = validation::replay_default(&sys, v)?;
        println!("  end-to-end replay: {replay}");
    }

    // Tighter budgets flip it to unsat (the paper: 15 and/or 6).
    let tight = AttackModel::new(14)
        .unknown_lines(20, &unknown)
        .target(BusId(8), StateTarget::MustChange)
        .target(BusId(9), StateTarget::MustChange)
        .require_different_change(BusId(8), BusId(9))
        .max_altered_measurements(12);
    print_outcome("objective 1 (≤12 meas)", &verifier.verify(&tight));

    println!();
    println!("== Attack Objective 2: state 12 only ==");
    let mut objective2 = AttackModel::new(14)
        .unknown_lines(20, &unknown)
        .target(BusId(11), StateTarget::MustChange);
    for j in 0..14 {
        if j != 11 {
            objective2 = objective2.target(BusId(j), StateTarget::MustNotChange);
        }
    }
    print_outcome("objective 2 (baseline)", &verifier.verify(&objective2));

    let with_46_secured = objective2.clone().secure_measurement(MeasurementId(45));
    print_outcome(
        "objective 2 + measurement 46 secured",
        &verifier.verify(&with_46_secured),
    );

    let with_topology = with_46_secured.with_topology_attack();
    let outcome = verifier.verify(&with_topology);
    print_outcome(
        "objective 2 + meas 46 secured + topology poisoning",
        &outcome,
    );
    if let Some(v) = outcome.vector() {
        let replay = validation::replay_default(&sys, v)?;
        println!("  end-to-end replay under poisoned topology: {replay}");
    }
    Ok(())
}
