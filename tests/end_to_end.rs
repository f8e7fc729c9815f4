//! Workspace-level integration tests: the full pipeline across crates.
//!
//! Grid generation → DC power flow → WLS estimation → SMT attack
//! verification → replay against the estimator → synthesis → re-verify.

use sta::core::attack::{AttackModel, AttackVerifier, StateTarget};
use sta::core::synthesis::{SynthesisConfig, Synthesizer};
use sta::core::validation;
use sta::estimator::{dcflow, BadDataDetector, WlsEstimator};
use sta::grid::{ieee14, synthetic, BusId, TestSystem};

fn default_op(sys: &TestSystem) -> dcflow::OperatingPoint {
    let injections = dcflow::synthetic_injections(sys.grid.num_buses(), 0);
    dcflow::solve(&sys.grid, &sys.topology, &injections, sys.reference_bus)
        .expect("connected")
}

#[test]
fn pipeline_attack_and_replay_across_sizes() {
    for &b in &[14usize, 30, 57] {
        let sys = synthetic::ieee_case(b);
        let verifier = AttackVerifier::new(&sys).unwrap();
        let model = AttackModel::new(b).target(BusId(b / 2), StateTarget::MustChange);
        let attack = verifier.verify(&model).expect_feasible();
        let replay = validation::replay_default(&sys, &attack).unwrap();
        assert!(replay.is_stealthy(1e-6), "{b}-bus: {replay}");
        assert!(
            replay.state_shifts[b / 2].abs() > 1e-9,
            "{b}-bus: target did not move"
        );
    }
}

#[test]
fn pipeline_detector_blind_to_verified_attacks() {
    let sys = ieee14::system_unsecured();
    let op = default_op(&sys);
    let estimator = WlsEstimator::for_system(&sys).unwrap();
    let detector = BadDataDetector::new(0.05);
    let verifier = AttackVerifier::new(&sys).unwrap();

    for target in 1..14 {
        let model =
            AttackModel::new(14).target(BusId(target), StateTarget::MustChange);
        let attack = verifier.verify(&model).expect_feasible();
        let mut z = estimator.measure(&op);
        for alt in &attack.alterations {
            let row = estimator.row_of(alt.measurement).expect("altered ⇒ taken");
            z[row] += alt.delta;
        }
        let estimate = estimator.estimate(&z).unwrap();
        assert!(
            !detector.detect(&estimator, &estimate).is_bad(),
            "target {} should evade detection",
            target + 1
        );
        assert!(
            (estimate.theta[target] - op.theta[target]).abs() > 1e-9,
            "target {} estimate should move",
            target + 1
        );
    }
}

#[test]
fn pipeline_synthesis_blocks_then_replay_fails_to_find_attack() {
    let sys = ieee14::system_unsecured();
    let synth = Synthesizer::new(&sys).unwrap();
    let attacker = AttackModel::new(14).max_altered_measurements(10);
    let outcome = synth.synthesize(&attacker, &SynthesisConfig::with_budget(5));
    let arch = outcome.architecture().expect("solution");
    // Harden the actual system configuration and re-verify from scratch.
    let mut hardened_sys = sys.clone();
    hardened_sys.measurements = synth.apply(arch);
    let verifier = AttackVerifier::new(&hardened_sys).unwrap();
    assert!(!verifier
        .verify(&AttackModel::new(14).max_altered_measurements(10))
        .is_feasible());
}

#[test]
fn pipeline_topology_poisoned_attack_replays_on_synthetic_grid() {
    // On a synthetic 30-bus grid (which has non-core lines every tenth
    // line), a topology-armed attacker finds something, and the replay
    // stays stealthy under the poisoned topology.
    let sys = synthetic::ieee_case(30);
    let verifier = AttackVerifier::new(&sys).unwrap();
    let model = AttackModel::new(30).with_topology_attack();
    let attack = verifier.verify(&model).expect_feasible();
    match validation::replay_default(&sys, &attack) {
        Ok(replay) => assert!(replay.is_stealthy(1e-6), "{replay}"),
        Err(e) => panic!("replay failed: {e}"),
    }
}

#[test]
fn pipeline_coordinated_topology_attack_evades_topology_detector() {
    // The paper's premise: topology error detection exists, so a naive
    // falsification fails — but an attack that coordinates meter
    // injections with the fake statuses (Eqs. 11–13) passes both the
    // bad-data and the topology checks. Drive the full chain.
    use sta::estimator::TopologyDetector;
    use sta::grid::LineId;

    let sys = ieee14::system_unsecured();
    let op = default_op(&sys);
    let verifier = AttackVerifier::new(&sys).unwrap();
    let mut model = AttackModel::new(14)
        .target(BusId(11), StateTarget::MustChange)
        .secure_measurement(sta::grid::MeasurementId(45))
        .with_topology_attack();
    for j in 0..14 {
        if j != 11 {
            model = model.target(BusId(j), StateTarget::MustNotChange);
        }
    }
    let attack = verifier.verify(&model).expect_feasible();
    assert_eq!(attack.excluded_lines, vec![LineId(12)]);

    // Build the post-attack snapshot the EMS would see.
    let clean_est = WlsEstimator::for_system(&sys).unwrap();
    let mut z = clean_est.measure(&op);
    for alt in &attack.alterations {
        let row = clean_est.row_of(alt.measurement).unwrap();
        z[row] += alt.delta;
    }
    let mapped = sys.topology.with_line_open(LineId(12));
    let detector = TopologyDetector::default();

    // Coordinated: no suspicion.
    let suspicions = detector
        .inspect(&sys.grid, &mapped, &sys.measurements, sys.reference_bus, &z)
        .unwrap();
    assert!(suspicions.is_empty(), "coordinated attack was flagged: {suspicions:?}");

    // Naive variant (statuses falsified, meters untouched): flagged.
    let z_naive = clean_est.measure(&op);
    let naive = detector
        .inspect(&sys.grid, &mapped, &sys.measurements, sys.reference_bus, &z_naive)
        .unwrap();
    assert!(!naive.is_empty(), "naive falsification must be detected");
}

#[test]
fn pipeline_unobservable_system_is_rejected_before_attack_analysis() {
    // Strip measurements below observability: the estimator refuses, and
    // that is the right failure mode (the paper assumes an observable
    // base system).
    let sys = ieee14::system();
    let mut cfg = sys.measurements.clone();
    for m in 0..cfg.len() {
        cfg.set_taken(sta::grid::MeasurementId(m), m < 5);
    }
    let mut crippled = sys.clone();
    crippled.measurements = cfg;
    assert!(WlsEstimator::for_system(&crippled).is_err());
}

#[test]
fn pipeline_secured_bus_measurements_never_altered() {
    let sys = ieee14::system_unsecured();
    let verifier = AttackVerifier::new(&sys).unwrap();
    for bus in [3usize, 5, 8] {
        let model = AttackModel::new(14)
            .target(BusId(9), StateTarget::MustChange)
            .secure_buses(&[BusId(bus)]);
        if let Some(v) = verifier.verify(&model).vector() {
            for alt in &v.alterations {
                let host =
                    sta::grid::MeasurementConfig::bus_of(&sys.grid, alt.measurement);
                assert_ne!(host, BusId(bus), "altered a secured bus's meter");
            }
        }
    }
}
