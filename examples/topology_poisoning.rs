//! Topology poisoning deep dive: how breaker-status falsification
//! strengthens stealthy attacks, and what it takes to stop it.
//!
//! Run with: `cargo run --release --example topology_poisoning`

use sta::core::attack::{AttackModel, AttackVerifier, StateTarget};
use sta::core::validation;
use sta::estimator::{dcflow, BadDataDetector, WlsEstimator};
use sta::grid::{ieee14, BusId, LineId, MeasurementId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sys = ieee14::system_unsecured();
    let verifier = AttackVerifier::new(&sys)?;

    // The scenario from the paper's Attack Objective 2: corrupt state 12
    // only, with measurement 46 (bus 6's injection meter) secured. No
    // plain UFDI attack exists...
    let mut base = AttackModel::new(14).target(BusId(11), StateTarget::MustChange);
    for j in 0..14 {
        if j != 11 {
            base = base.target(BusId(j), StateTarget::MustNotChange);
        }
    }
    let base = base.secure_measurement(MeasurementId(45));
    println!(
        "plain UFDI attack on state 12 (meas 46 secured): {}",
        if verifier.verify(&base).is_feasible() { "feasible" } else { "infeasible" }
    );

    // ...but poisoning the topology — reporting line 13 (6–13) as open —
    // revives it.
    let poisoned = base.clone().with_topology_attack();
    let attack = verifier.verify(&poisoned).expect_feasible();
    println!("with topology poisoning: feasible");
    println!("  {attack}");
    assert_eq!(attack.excluded_lines, vec![LineId(12)]);

    // Replay: the EMS maps line 13 out, the meters are adjusted to stay
    // consistent, and the residual does not move.
    let injections = dcflow::synthetic_injections(14, 0);
    let op = dcflow::solve(&sys.grid, &sys.topology, &injections, sys.reference_bus)?;
    let replay = validation::replay(&sys, &op, &attack)?;
    println!("  replay under poisoned topology: {replay}");
    assert!(replay.is_stealthy(1e-6));

    // Show what the operator would see: estimate under the poisoned
    // topology, chi-square detector silent.
    let mapped = sys.topology.with_line_open(LineId(12));
    let est = WlsEstimator::new(&sys.grid, &mapped, &sys.measurements, sys.reference_bus, None)?;
    let mut z = {
        let clean = WlsEstimator::for_system(&sys)?;
        clean.measure(&op)
    };
    for alt in &attack.alterations {
        if let Some(row) = est.row_of(alt.measurement) {
            z[row] += alt.delta;
        }
    }
    let result = est.estimate(&z)?;
    let verdict = BadDataDetector::new(0.05).detect(&est, &result);
    println!(
        "  operator's view: residual {:.3e}, detector {:?}",
        result.residual_norm, verdict
    );
    assert!(!verdict.is_bad());

    // The EMS's own topology error detector: the coordinated attack
    // passes, while a naive status falsification (meters untouched) is
    // caught.
    let topo_detector = sta::estimator::TopologyDetector::default();
    let suspicions = topo_detector.inspect(
        &sys.grid, &mapped, &sys.measurements, sys.reference_bus, &z,
    )?;
    println!(
        "  topology error detector on the coordinated attack: {}",
        if suspicions.is_empty() { "no suspicion".to_string() } else { format!("{suspicions:?}") }
    );
    let z_naive = {
        let clean = WlsEstimator::for_system(&sys)?;
        clean.measure(&op)
    };
    let naive = topo_detector.inspect(
        &sys.grid, &mapped, &sys.measurements, sys.reference_bus, &z_naive,
    )?;
    println!("  ... and on a naive falsification:");
    for s in &naive {
        println!("      {s}");
    }

    // Physical impact: what the operator now misperceives.
    let impact = sta::core::impact::assess(&sys, &op, &attack);
    println!("  operator misperception after the attack:");
    print!("{impact}");

    // Countermeasure: securing the breaker-status telemetry of line 13
    // (making it non-excludable) closes the channel again.
    let mut hardened_sys = sys.clone();
    hardened_sys.secured_line_status[12] = true;
    let hardened_verifier = AttackVerifier::new(&hardened_sys)?;
    println!(
        "after securing line 13's status telemetry: {}",
        if hardened_verifier.verify(&poisoned).is_feasible() {
            "still feasible (via another line)"
        } else {
            "infeasible"
        }
    );
    Ok(())
}
