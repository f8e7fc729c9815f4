//! Numerical observability analysis.
//!
//! A measurement set observes the system when the taken-row Jacobian `H`
//! has full column rank over the non-reference states. Every row of `H`
//! is a combination of angle differences across in-service lines, so
//! `H·1 = 0`, and full column rank without the reference column is the
//! same as `rank H = b − 1` over all `b` bus columns.
//!
//! [`is_observable`] decides it on *flow islands*. A taken forward or
//! backward flow meter on an in-service line is a row `y·(e_i − e_j)`
//! with `y > 0`: it fixes the angle difference across the line, so its
//! two buses are joined. With `k` islands the flow rows have rank
//! `b − k`, and their null space is the vectors constant on each island,
//! so
//!
//! ```text
//! rank H = (b − k) + rank(H_inj·P)
//! ```
//!
//! with `P` the bus-to-island indicator: `H_inj·P` is each taken
//! injection row summed over each island's buses. Its rows also sum to
//! zero across the islands, so the system is observable exactly when
//! `H_inj·P` has full column rank once the reference island's column is
//! dropped. One island is observable outright, in O(lines) with no
//! factorization. Otherwise the island-level gain `(H_inj·P)ᵀ(H_inj·P)`
//! without that column must be positive definite: the same sparse LDLᵀ
//! test, with the same tolerance, that the estimator applies to its
//! bus-level gain. With no flow meter taken every bus is its own island
//! and the island-level gain *is* the bus-level gain. Verdicts match the
//! dense [`rank`] of [`reduced_jacobian`] in exact arithmetic,
//! electrically islanded topologies included; that pair stays as the
//! test oracle.
//!
//! [`critical_measurements`] reads criticality off the estimator's
//! residual covariance, the definition LNR identification uses. The
//! *basic measurement set* extraction (a minimal row subset of full rank,
//! the object Bobba et al.'s defense secures) also lives here.

use crate::bdd;
use crate::wls::WlsEstimator;
use sta_grid::{BusId, Grid, MeasurementConfig, MeasurementId, Topology};
use sta_linalg::{CsrMatrix, Matrix, SparseCholesky};

/// Numerical rank of a matrix by Gaussian elimination with partial
/// pivoting; entries below `1e-9` times the largest are treated as zero.
pub fn rank(matrix: &Matrix) -> usize {
    let mut a = matrix.clone();
    let rows = a.num_rows();
    let cols = a.num_cols();
    let tol = 1e-9 * a.norm_max().max(1.0);
    let mut r = 0usize;
    for c in 0..cols {
        // Find pivot in column c at or below row r.
        let mut piv = r;
        let mut best = 0.0f64;
        for i in r..rows {
            let v = a[(i, c)].abs();
            if v > best {
                best = v;
                piv = i;
            }
        }
        if best <= tol {
            continue;
        }
        if piv != r {
            for j in 0..cols {
                let tmp = a[(r, j)];
                a[(r, j)] = a[(piv, j)];
                a[(piv, j)] = tmp;
            }
        }
        for i in r + 1..rows {
            let f = a[(i, c)] / a[(r, c)];
            if f == 0.0 {
                continue;
            }
            for j in c..cols {
                let upd = f * a[(r, j)];
                a[(i, j)] -= upd;
            }
        }
        r += 1;
        if r == rows {
            break;
        }
    }
    r
}

/// Whether the taken measurements observe every state (full column rank
/// of the reduced Jacobian).
///
/// Buses joined by taken flow meters on in-service lines form flow
/// islands. One island is observable with no factorization. Otherwise
/// the taken injection rows, summed over each island's buses, must give
/// a positive-definite island-level gain once the reference island's
/// column is dropped. The module documentation has the rank identity
/// that makes this exact; the dense [`rank`] of [`reduced_jacobian`] is
/// the oracle it is tested against.
///
/// # Examples
///
/// ```
/// use sta_estimator::observability;
/// use sta_grid::ieee14;
///
/// let sys = ieee14::system();
/// assert!(observability::is_observable(
///     &sys.grid, &sys.topology, &sys.measurements, sys.reference_bus));
/// ```
pub fn is_observable(
    grid: &Grid,
    topo: &Topology,
    measurements: &MeasurementConfig,
    reference: BusId,
) -> bool {
    let (l, b) = (grid.num_lines(), grid.num_buses());
    let taken = |m: usize| measurements.is_taken(MeasurementId(m));
    let labels = topo.island_of_lines(grid, |line| taken(line.0) || taken(l + line.0));
    // Number the islands 0..k in order of their lowest bus, so that with
    // no flow meter island `i` is bus `i`.
    let mut number = vec![usize::MAX; b];
    let mut k = 0;
    let island: Vec<usize> = labels
        .iter()
        .map(|&rep| {
            if number[rep] == usize::MAX {
                number[rep] = k;
                k += 1;
            }
            number[rep]
        })
        .collect();
    let Some(&home) = island.get(reference.0) else {
        return b == 0; // no column to drop: singular unless there are no buses
    };
    if k == 1 {
        return true;
    }
    let col = |i: usize| match i.cmp(&home) {
        std::cmp::Ordering::Less => Some(i),
        std::cmp::Ordering::Equal => None,
        std::cmp::Ordering::Greater => Some(i - 1),
    };
    let mut row_of = vec![None; b];
    let mut rows = 0;
    for (bus, row) in row_of.iter_mut().enumerate() {
        if taken(2 * l + bus) {
            *row = Some(rows);
            rows += 1;
        }
    }
    // The island-projected injection rows, in the bus-level Jacobian's
    // triplet order. A line inside one island adds `+y` and `−y` to the
    // same column, so it is skipped.
    let mut triplets = Vec::with_capacity(4 * l);
    for line in topo.in_service_lines().map(|id| grid.line(id)) {
        let (f, t, y) = (island[line.from.0], island[line.to.0], line.admittance);
        if f == t {
            continue;
        }
        for (bus, sign) in [(line.to.0, 1.0), (line.from.0, -1.0)] {
            let Some(r) = row_of[bus] else { continue };
            for (c, v) in [(col(f), sign * y), (col(t), -sign * y)] {
                if let Some(c) = c {
                    triplets.push((r, c, v));
                }
            }
        }
    }
    let h = CsrMatrix::from_triplets(rows, k - 1, &triplets);
    SparseCholesky::factor(&h.transpose().mul_mat(&h)).is_ok()
}

/// The Jacobian restricted to taken rows and non-reference columns.
pub fn reduced_jacobian(
    grid: &Grid,
    topo: &Topology,
    measurements: &MeasurementConfig,
    reference: BusId,
) -> Matrix {
    let h_full = sta_grid::topology::h_matrix(grid, topo);
    let taken: Vec<usize> = measurements.taken_ids().map(|m| m.0).collect();
    let cols: Vec<usize> =
        (0..grid.num_buses()).filter(|&j| j != reference.0).collect();
    h_full.select_rows(&taken).select_cols(&cols)
}

/// Extracts a *basic measurement set*: a greedy minimal subset of the
/// taken measurements whose rows span the state space. Securing exactly
/// such a set is Bobba et al.'s necessary-and-sufficient defense, the
/// baseline the paper compares its synthesis against.
///
/// Returns `None` if the system is unobservable to begin with.
pub fn basic_measurement_set(
    grid: &Grid,
    topo: &Topology,
    measurements: &MeasurementConfig,
    reference: BusId,
) -> Option<Vec<MeasurementId>> {
    let h_full = sta_grid::topology::h_matrix(grid, topo);
    let cols: Vec<usize> =
        (0..grid.num_buses()).filter(|&j| j != reference.0).collect();
    let target = cols.len();
    let mut chosen: Vec<usize> = Vec::new();
    let mut current_rank = 0usize;
    for id in measurements.taken_ids() {
        if current_rank == target {
            break;
        }
        let mut trial = chosen.clone();
        trial.push(id.0);
        let sub = h_full.select_rows(&trial).select_cols(&cols);
        let r = rank(&sub);
        if r > current_rank {
            chosen.push(id.0);
            current_rank = r;
        }
    }
    if current_rank == target {
        Some(chosen.into_iter().map(MeasurementId).collect())
    } else {
        None
    }
}

/// Identifies the *critical measurements*: taken measurements whose
/// removal makes the system unobservable, in taken order.
///
/// Critical measurements matter doubly for security: their residual is
/// structurally zero, so bad data on them is undetectable (the LNR
/// identifier skips them), and a single-meter attack on one is already
/// stealthy. A defense design should either secure them or add
/// redundancy.
///
/// A row is critical exactly when its residual variance `Ω_ii` vanishes;
/// this reads `Ω` off a unit-weight estimator's gain factor, with the
/// test LNR identification uses. An unobservable set has no estimator and
/// returns an empty list: criticality is undefined there.
pub fn critical_measurements(
    grid: &Grid,
    topo: &Topology,
    measurements: &MeasurementConfig,
    reference: BusId,
) -> Vec<MeasurementId> {
    let Ok(est) = WlsEstimator::new(grid, topo, measurements, reference, None) else {
        return Vec::new();
    };
    let Ok(omega) = bdd::residual_covariance_diag(&est) else {
        return Vec::new();
    };
    est.taken_rows()
        .iter()
        .zip(omega.iter())
        .filter(|&(_, &var)| bdd::is_critical(1.0, var))
        .map(|(&m, _)| MeasurementId(m))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sta_grid::{ieee14, synthetic};

    #[test]
    fn rank_of_identity_and_rankdeficient() {
        assert_eq!(rank(&Matrix::identity(4)), 4);
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(rank(&m), 1);
        assert_eq!(rank(&Matrix::zeros(3, 3)), 0);
        let wide = Matrix::from_rows(&[vec![1.0, 0.0, 1.0], vec![0.0, 1.0, 1.0]]);
        assert_eq!(rank(&wide), 2);
    }

    #[test]
    fn ieee14_is_observable() {
        let sys = ieee14::system();
        assert!(is_observable(
            &sys.grid,
            &sys.topology,
            &sys.measurements,
            sys.reference_bus
        ));
    }

    #[test]
    fn dropping_all_bus_meters_of_leaf_breaks_observability() {
        let sys = ieee14::system();
        let mut cfg = sys.measurements.clone();
        // Bus 8 (index 7) connects only through line 14 (7→8). Remove both
        // flow meters of line 14 and bus 8's injection; bus 8 becomes
        // unobservable. Measurements (1-indexed): 14, 34, 48 (2·20 + 8).
        cfg.set_taken(MeasurementId(13), false); // already untaken per Table III
        cfg.set_taken(MeasurementId(33), false);
        cfg.set_taken(MeasurementId(47), false);
        // Its neighbor's injection also sees line 14; remove bus 7's meter.
        cfg.set_taken(MeasurementId(46), false);
        assert!(!is_observable(
            &sys.grid,
            &sys.topology,
            &cfg,
            sys.reference_bus
        ));
    }

    #[test]
    fn basic_set_has_state_count_rows_and_full_rank() {
        let sys = ieee14::system();
        let basic = basic_measurement_set(
            &sys.grid,
            &sys.topology,
            &sys.measurements,
            sys.reference_bus,
        )
        .expect("observable");
        assert_eq!(basic.len(), 13);
        // The basic rows alone are observable.
        let mut cfg = sys.measurements.clone();
        for m in 0..cfg.len() {
            cfg.set_taken(MeasurementId(m), false);
        }
        for &id in &basic {
            cfg.set_taken(id, true);
        }
        assert!(is_observable(
            &sys.grid,
            &sys.topology,
            &cfg,
            sys.reference_bus
        ));
    }

    #[test]
    fn fully_metered_system_has_no_critical_measurements() {
        // 2l + b meters over b−1 states: redundancy everywhere.
        let sys = synthetic::ieee_case(30);
        let critical = critical_measurements(
            &sys.grid,
            &sys.topology,
            &sys.measurements,
            sys.reference_bus,
        );
        assert!(critical.is_empty(), "{critical:?}");
    }

    #[test]
    fn basic_set_is_entirely_critical() {
        // Restrict the taken set to a basic measurement set: every member
        // becomes critical (minimality).
        let sys = ieee14::system();
        let basic = basic_measurement_set(
            &sys.grid,
            &sys.topology,
            &sys.measurements,
            sys.reference_bus,
        )
        .unwrap();
        let mut cfg = sys.measurements.clone();
        for m in 0..cfg.len() {
            cfg.set_taken(MeasurementId(m), false);
        }
        for &id in &basic {
            cfg.set_taken(id, true);
        }
        let critical =
            critical_measurements(&sys.grid, &sys.topology, &cfg, sys.reference_bus);
        assert_eq!(critical.len(), basic.len());
        let mut sorted_basic = basic.clone();
        sorted_basic.sort();
        let mut sorted_critical = critical;
        sorted_critical.sort();
        assert_eq!(sorted_critical, sorted_basic);
    }

    #[test]
    fn unobservable_system_reports_no_criticals() {
        let sys = ieee14::system();
        let mut cfg = sys.measurements.clone();
        for m in 0..cfg.len() {
            cfg.set_taken(MeasurementId(m), m < 3);
        }
        assert!(critical_measurements(
            &sys.grid,
            &sys.topology,
            &cfg,
            sys.reference_bus
        )
        .is_empty());
    }

    #[test]
    fn sparse_check_matches_dense_rank_oracle() {
        let sys = ieee14::system();
        // Sweep configurations that keep the first k measurements: spans
        // unobservable (tiny k) through observable (large k).
        for k in [3usize, 10, 20, 27, 44] {
            let mut cfg = sys.measurements.clone();
            for m in 0..cfg.len() {
                cfg.set_taken(MeasurementId(m), m < k);
            }
            let h = reduced_jacobian(&sys.grid, &sys.topology, &cfg, sys.reference_bus);
            let oracle = rank(&h) == 13;
            assert_eq!(
                is_observable(&sys.grid, &sys.topology, &cfg, sys.reference_bus),
                oracle,
                "k = {k}"
            );
        }
    }

    #[test]
    fn synthetic_cases_observable_when_fully_metered() {
        for &b in &[30usize, 57] {
            let sys = synthetic::ieee_case(b);
            assert!(
                is_observable(&sys.grid, &sys.topology, &sys.measurements, sys.reference_bus),
                "case {b}"
            );
        }
    }
}
