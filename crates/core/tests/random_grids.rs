//! Property tests of the attack/defense stack over randomized grids.
//!
//! Deterministically seeded synthetic systems exercise structural
//! diversity the IEEE cases cannot: varying meshedness, degree spread,
//! and metering density. The invariants checked here are the load-bearing
//! ones: witnesses replay stealthily, protection is monotone, and the
//! cut-attack baseline never beats the SMT optimum.

use sta_core::attack::{AttackModel, AttackVerifier, StateTarget};
use sta_core::cutattack;
use sta_core::validation;
use sta_grid::{synthetic, BusId, MeasurementId, TestSystem};
use sta_linalg::rng::Pcg32;

fn random_system(buses: usize, extra_lines: usize, seed: u64) -> TestSystem {
    let l = (buses - 1 + extra_lines).min(buses * (buses - 1) / 2);
    let grid = synthetic::generate(buses, l, seed).unwrap();
    TestSystem::fully_metered(format!("prop-{seed}"), grid)
}

/// Every feasible witness replays stealthily and moves its target.
#[test]
fn witnesses_replay_stealthily() {
    let mut rng = Pcg32::new(0xA001);
    for _ in 0..12 {
        let buses = rng.range_usize(6, 14);
        let extra = rng.range_usize(2, 6);
        let seed = rng.next_u64() % 40;
        let sys = random_system(buses, extra, seed);
        let target = 1 + (rng.range_usize(1, 14) % (buses - 1));
        let verifier = AttackVerifier::new(&sys).unwrap();
        let model =
            AttackModel::new(buses).target(BusId(target), StateTarget::MustChange);
        if let Some(attack) = verifier.verify(&model).vector() {
            let replay = validation::replay_default(&sys, attack).unwrap();
            assert!(replay.is_stealthy(1e-6), "{replay}");
            assert!(replay.state_shifts[target].abs() > 1e-9);
        }
    }
}

/// Securing more buses never helps the attacker (monotonicity).
#[test]
fn protection_is_monotone() {
    let mut rng = Pcg32::new(0xA002);
    for _ in 0..12 {
        let buses = rng.range_usize(6, 12);
        let extra = rng.range_usize(2, 5);
        let seed = rng.next_u64() % 30;
        let sys = random_system(buses, extra, seed);
        let verifier = AttackVerifier::new(&sys).unwrap();
        let target = BusId(buses / 2);
        let a = BusId(rng.below(buses));
        let b = BusId(rng.below(buses));
        let small = AttackModel::new(buses)
            .target(target, StateTarget::MustChange)
            .secure_buses(&[a]);
        let big = AttackModel::new(buses)
            .target(target, StateTarget::MustChange)
            .secure_buses(&[a, b]);
        // feasible(big) → feasible(small): adding protection can only
        // remove attacks.
        if verifier.verify(&big).is_feasible() {
            assert!(verifier.verify(&small).is_feasible());
        }
    }
}

/// The greedy cut attack is a valid attack, so the SMT minimal
/// measurement count never exceeds its cost.
#[test]
fn cut_bound_holds() {
    let mut rng = Pcg32::new(0xA003);
    for _ in 0..12 {
        let buses = rng.range_usize(6, 12);
        let extra = rng.range_usize(2, 5);
        let seed = rng.next_u64() % 30;
        let sys = random_system(buses, extra, seed);
        let target = BusId(buses / 2);
        if let Some(cut) = cutattack::best_cut_attack(&sys, target, 0.1) {
            let verifier = AttackVerifier::new(&sys).unwrap();
            let model = AttackModel::new(buses)
                .target(target, StateTarget::MustChange)
                .max_altered_measurements(cut.cost);
            assert!(
                verifier.verify(&model).is_feasible(),
                "cut with {} alterations exists but SMT says infeasible",
                cut.cost
            );
        }
    }
}

/// Resource monotonicity: if an attack fits budget k, it fits k+1.
#[test]
fn budget_monotonicity() {
    let mut rng = Pcg32::new(0xA004);
    for _ in 0..12 {
        let buses = rng.range_usize(6, 12);
        let extra = rng.range_usize(2, 5);
        let seed = rng.next_u64() % 30;
        let k = rng.range_usize(3, 10);
        let sys = random_system(buses, extra, seed);
        let verifier = AttackVerifier::new(&sys).unwrap();
        let target = BusId(buses / 2);
        let tight = AttackModel::new(buses)
            .target(target, StateTarget::MustChange)
            .max_altered_measurements(k);
        let loose = AttackModel::new(buses)
            .target(target, StateTarget::MustChange)
            .max_altered_measurements(k + 1);
        if verifier.verify(&tight).is_feasible() {
            assert!(verifier.verify(&loose).is_feasible());
        }
    }
}

/// Untaken measurements never appear in a witness.
#[test]
fn untaken_meters_never_altered() {
    let mut rng = Pcg32::new(0xA005);
    for _ in 0..12 {
        let buses = rng.range_usize(6, 12);
        let extra = rng.range_usize(2, 5);
        let seed = rng.next_u64() % 30;
        let drop_stride = rng.range_usize(2, 5);
        let mut sys = random_system(buses, extra, seed);
        // Drop a deterministic subset of meters.
        for m in (0..sys.measurements.len()).step_by(drop_stride) {
            sys.measurements.set_taken(MeasurementId(m), false);
        }
        let verifier = AttackVerifier::new(&sys).unwrap();
        let model = AttackModel::new(buses);
        if let Some(v) = verifier.verify(&model).vector() {
            for alt in &v.alterations {
                assert!(sys.measurements.is_taken(alt.measurement));
            }
        }
    }
}
