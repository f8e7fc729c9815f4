//! The paper's §IV-E case study: synthesizing security architectures for
//! three escalating attacker models on the IEEE 14-bus system.
//!
//! Run with: `cargo run --release --example synthesis_scenarios`

use sta::core::attack::{AttackModel, AttackVerifier};
use sta::core::baselines;
use sta::core::synthesis::{SynthesisConfig, Synthesizer};
use sta::grid::{ieee14, BusId};

fn report(label: &str, outcome: &sta::core::SynthesisOutcome) {
    match outcome.architecture() {
        Some(arch) => println!("{label}: {arch}"),
        None => println!("{label}: no architecture within budget"),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sys = ieee14::system_unsecured();
    let synth = Synthesizer::new(&sys)?;
    // All §IV-E architectures in the paper include bus 1, the reference.
    let config = |budget: usize| SynthesisConfig::with_budget(budget).with_reference_secured();

    println!("== Scenario 1: limited attacker ==");
    println!("   (admittances of lines 3, 17 unknown; ≤ 12 measurements)");
    let attacker1 = AttackModel::new(14)
        .unknown_lines(20, &[2, 16])
        .max_altered_measurements(12);
    report("  budget 4", &synth.synthesize(&attacker1, &config(4)));

    println!("== Scenario 2: full knowledge, unlimited resources ==");
    let attacker2 = AttackModel::new(14);
    report("  budget 4", &synth.synthesize(&attacker2, &config(4)));
    report("  budget 5", &synth.synthesize(&attacker2, &config(5)));

    println!("== Scenario 3: scenario 2 + topology poisoning ==");
    println!("   (lines 5 and 13 vulnerable to exclusion/inclusion)");
    let attacker3 = AttackModel::new(14).with_topology_attack();
    report("  budget 4", &synth.synthesize(&attacker3, &config(4)));
    report("  budget 5", &synth.synthesize(&attacker3, &config(5)));

    // Independent re-verification of the scenario-2 architecture.
    if let Some(arch) = synth
        .synthesize(&attacker2, &config(5))
        .architecture()
        .cloned()
    {
        let verifier = AttackVerifier::new(&sys)?;
        let hardened = attacker2.clone().secure_buses(&arch.secured_buses);
        println!(
            "re-verification: attack against the 5-bus architecture is {}",
            if verifier.verify(&hardened).is_feasible() { "FEASIBLE (bug!)" } else { "infeasible" },
        );
    }

    println!();
    println!("== Baselines for comparison ==");
    let basic = baselines::bobba_protection(&sys).expect("observable");
    let basic_1idx: Vec<usize> = basic.iter().map(|m| m.0 + 1).collect();
    println!(
        "Bobba et al. basic-measurement protection: {} measurements {:?}",
        basic.len(),
        basic_1idx,
    );
    let greedy = baselines::kim_poor_greedy(&sys, &AttackModel::new(14))?
        .expect("greedy converges");
    let greedy_buses: Vec<usize> =
        greedy.secured_buses.iter().map(|b| b.0 + 1).collect();
    println!(
        "Kim–Poor-style greedy: {} buses {:?} ({} oracle calls)",
        greedy.secured_buses.len(),
        greedy_buses,
        greedy.oracle_calls,
    );
    // Contrast: greedy has no budget control; synthesis with the same bus
    // count (or fewer) also blocks the attacker.
    let matched = synth.synthesize(
        &AttackModel::new(14),
        &SynthesisConfig::with_budget(greedy.secured_buses.len()),
    );
    if let Some(arch) = matched.architecture() {
        let arch_buses: Vec<usize> =
            arch.secured_buses.iter().map(|b| b.0 + 1).collect();
        println!(
            "synthesis at the same budget: {} buses {:?}",
            arch.secured_buses.len(),
            arch_buses,
        );
    }
    let _ = BusId(0);
    Ok(())
}
