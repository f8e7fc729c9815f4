//! Quickstart: state estimation, a stealthy attack, and its detection
//! evasion, end to end on the IEEE 14-bus system.
//!
//! Run with: `cargo run --release --example quickstart`

use sta::core::attack::{AttackModel, AttackVerifier, StateTarget};
use sta::core::validation;
use sta::estimator::{dcflow, BadDataDetector, WlsEstimator};
use sta::grid::{ieee14, BusId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Load the paper's IEEE 14-bus test system (Table II/III data).
    let sys = ieee14::system_unsecured();
    println!(
        "system: {} buses, {} lines, {} of {} potential measurements taken",
        sys.grid.num_buses(),
        sys.grid.num_lines(),
        sys.measurements.num_taken(),
        sys.grid.num_potential_measurements(),
    );

    // 2. Establish an operating point and run WLS state estimation.
    let injections = dcflow::synthetic_injections(14, 0);
    let op = dcflow::solve(&sys.grid, &sys.topology, &injections, sys.reference_bus)?;
    let estimator = WlsEstimator::for_system(&sys)?;
    let z = estimator.measure(&op);
    let clean = estimator.estimate(&z)?;
    println!(
        "clean estimate: residual = {:.3e} ({} measurements, {} states)",
        clean.residual_norm,
        estimator.num_measurements(),
        estimator.num_states(),
    );

    // 3. Ask the formal model: can the attacker corrupt bus 10's state
    //    with at most 16 altered measurements in at most 7 substations?
    let verifier = AttackVerifier::new(&sys)?;
    let model = AttackModel::new(14)
        .target(BusId(9), StateTarget::MustChange)
        .max_altered_measurements(16)
        .max_compromised_buses(7);
    let attack = verifier.verify(&model).expect_feasible();
    println!("attack found: {attack}");

    // 4. Replay the attack against the real estimator: the residual must
    //    not move (stealthy), while the state estimate does.
    let replay = validation::replay(&sys, &op, &attack)?;
    println!("replay: {replay}");
    assert!(replay.is_stealthy(1e-6));

    // 5. Confirm the chi-square bad data detector stays silent.
    let detector = BadDataDetector::new(0.05);
    let mut z_attacked = z.clone();
    for alt in &attack.alterations {
        if let Some(row) = estimator.row_of(alt.measurement) {
            z_attacked[row] += alt.delta;
        }
    }
    let attacked = estimator.estimate(&z_attacked)?;
    let verdict = detector.detect(&estimator, &attacked);
    println!(
        "detector verdict on attacked snapshot: {:?} (statistic {:.3e})",
        verdict, attacked.weighted_sse
    );
    assert!(!verdict.is_bad());
    println!("the attack moved bus 10's estimate by {:+.4} rad, undetected", {
        replay.state_shifts[9]
    });
    Ok(())
}
