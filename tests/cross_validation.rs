//! Cross-validation of the SMT attack verifier against an independent
//! algebraic oracle.
//!
//! For plain (non-topology) UFDI attacks, feasibility has a clean linear-
//! algebra characterization: a stealthy attack changing state `j` exists
//! iff there is a state perturbation `c` with `c_j ≠ 0` whose induced
//! measurement changes `H·c` vanish on every *protected* row (taken
//! measurements that are secured or inaccessible). That is a null-space
//! membership question, decidable with Gaussian elimination — completely
//! independent of the SMT encoding. The two decision procedures must
//! agree on every scenario.

use sta::core::attack::{AttackModel, AttackVerifier, StateTarget};
use sta::grid::{synthetic, BusId, MeasurementId, TestSystem};
use sta::linalg::Matrix;

/// Algebraic oracle: can state `target` be changed while every protected
/// taken measurement stays exactly unchanged?
///
/// Builds the matrix `B` of protected taken rows (reference column
/// removed) and asks whether `c_target` can be nonzero on `ker B`:
/// equivalently, whether appending the constraint `c_target = 0` strictly
/// shrinks the null space — i.e. `rank([B; e_target]) > rank(B)`.
fn oracle_state_attackable(
    sys: &TestSystem,
    target: usize,
    secured_buses: &[BusId],
) -> bool {
    let h = sta::grid::topology::h_matrix(&sys.grid, &sys.topology);
    let cols: Vec<usize> = (0..sys.grid.num_buses())
        .filter(|&j| j != sys.reference_bus.0)
        .collect();
    let Some(target_col) = cols.iter().position(|&j| j == target) else {
        return false; // the reference state can never change
    };
    let mut protected_rows: Vec<usize> = Vec::new();
    for m in 0..sys.grid.num_potential_measurements() {
        let id = MeasurementId(m);
        if !sys.measurements.is_taken(id) {
            continue;
        }
        let host = sta::grid::MeasurementConfig::bus_of(&sys.grid, id);
        let protected = sys.measurements.is_secured(id)
            || !sys.measurements.is_accessible(id)
            || secured_buses.contains(&host);
        if protected {
            protected_rows.push(m);
        }
    }
    let b_mat = h.select_rows(&protected_rows).select_cols(&cols);
    let rank_b = sta::estimator::observability::rank(&b_mat);
    // Append the unit row e_target.
    let mut extended = Matrix::zeros(b_mat.num_rows() + 1, cols.len());
    for i in 0..b_mat.num_rows() {
        for j in 0..cols.len() {
            extended[(i, j)] = b_mat[(i, j)];
        }
    }
    extended[(b_mat.num_rows(), target_col)] = 1.0;
    let rank_ext = sta::estimator::observability::rank(&extended);
    rank_ext > rank_b
}

fn smt_state_attackable(
    sys: &TestSystem,
    target: usize,
    secured_buses: &[BusId],
) -> bool {
    let verifier = AttackVerifier::new(sys).unwrap();
    let model = AttackModel::new(sys.grid.num_buses())
        .target(BusId(target), StateTarget::MustChange)
        .secure_buses(secured_buses);
    verifier.verify(&model).is_feasible()
}

#[test]
fn smt_matches_oracle_on_ieee14_all_states() {
    let sys = sta::grid::ieee14::system();
    for target in 0..14 {
        assert_eq!(
            smt_state_attackable(&sys, target, &[]),
            oracle_state_attackable(&sys, target, &[]),
            "state {} (Table III security)",
            target + 1
        );
    }
}

#[test]
fn smt_matches_oracle_on_ieee14_unsecured() {
    let sys = sta::grid::ieee14::system_unsecured();
    for target in 0..14 {
        assert_eq!(
            smt_state_attackable(&sys, target, &[]),
            oracle_state_attackable(&sys, target, &[]),
            "state {} (unsecured)",
            target + 1
        );
    }
}

#[test]
fn smt_matches_oracle_under_random_bus_protection() {
    // Deterministic pseudo-random protected bus sets on the 14-bus and a
    // synthetic 30-bus system.
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for sys in [sta::grid::ieee14::system_unsecured(), synthetic::ieee_case(30)] {
        let b = sys.grid.num_buses();
        for _round in 0..6 {
            let n_secured = (next() % 4) as usize + 1;
            let secured: Vec<BusId> =
                (0..n_secured).map(|_| BusId((next() % b as u64) as usize)).collect();
            let target = (next() % b as u64) as usize;
            assert_eq!(
                smt_state_attackable(&sys, target, &secured),
                oracle_state_attackable(&sys, target, &secured),
                "{}: target {} secured {:?}",
                sys.name,
                target + 1,
                secured
            );
        }
    }
}

#[test]
fn smt_attack_vector_satisfies_a_equals_hc() {
    // Every extracted plain attack vector must satisfy a = H·c on the
    // taken rows, with a supported off the protected rows.
    let sys = sta::grid::ieee14::system_unsecured();
    let verifier = AttackVerifier::new(&sys).unwrap();
    let h = sta::grid::topology::h_matrix(&sys.grid, &sys.topology);
    for target in 1..14 {
        let model = AttackModel::new(14).target(BusId(target), StateTarget::MustChange);
        let attack = verifier.verify(&model).expect_feasible();
        // c = state_changes (full vector, reference included as 0).
        // Check each taken measurement row: delta == (H·c)_row.
        let mut delta = vec![0.0f64; sys.grid.num_potential_measurements()];
        for alt in &attack.alterations {
            delta[alt.measurement.0] = alt.delta;
        }
        for m in 0..sys.grid.num_potential_measurements() {
            if !sys.measurements.is_taken(MeasurementId(m)) {
                continue;
            }
            let mut hc = 0.0;
            for j in 0..14 {
                hc += h[(m, j)] * attack.state_changes[j];
            }
            assert!(
                (hc - delta[m]).abs() < 1e-6,
                "target {}: row {} Hc={hc} delta={}",
                target + 1,
                m + 1,
                delta[m]
            );
        }
    }
}
