//! Sparse-vs-dense equivalence properties.
//!
//! The dense pipeline (dense Jacobian, dense gain product, dense
//! Cholesky) is the correctness oracle for the sparse one (CSR Jacobian,
//! sparse gain, AMD-ordered LDLᵀ). These tests pin the two paths together
//! on seeded `synthetic::generate` grids at every IEEE evaluation size
//! that fits in test time: identical estimates to 1e-9, identical
//! observability verdicts, valid AMD permutations, and bit-identical
//! symbolic-reuse refactorization. The DC operating point gets the same
//! treatment against a dense LU of the reduced susceptance matrix.

use sta::core::decimal;
use sta::estimator::{dcflow, WlsEstimator};
use sta::grid::topology::{b_matrix, h_matrix_sparse};
use sta::grid::{ieee14, synthetic, TestSystem};
use sta::linalg::{amd_order, Cholesky, Lu, SparseCholesky, SparseSymbolic, Vector};

const SIZES: [usize; 4] = [14, 30, 57, 118];

/// The reduced sparse gain matrix `HᵀH` of a synthetic system.
fn sparse_gain(sys: &sta::grid::TestSystem) -> sta::linalg::CsrMatrix {
    let h_full = h_matrix_sparse(&sys.grid, &sys.topology);
    let cols: Vec<usize> = (0..sys.grid.num_buses())
        .filter(|&j| j != sys.reference_bus.0)
        .collect();
    let h = h_full.select_cols(&cols);
    h.transpose().mul_mat(&h)
}

#[test]
fn wls_estimates_agree_across_pipelines_at_every_size() {
    for &b in &SIZES {
        let sys = synthetic::ieee_case(b);
        let mut weights = vec![1.0; sys.measurements.num_taken()];
        for (i, w) in weights.iter_mut().enumerate() {
            *w = 1.0 + 0.2 * (i % 5) as f64;
        }
        let sparse = WlsEstimator::new(
            &sys.grid,
            &sys.topology,
            &sys.measurements,
            sys.reference_bus,
            Some(weights.clone()),
        )
        .unwrap();
        let dense = WlsEstimator::new_dense(
            &sys.grid,
            &sys.topology,
            &sys.measurements,
            sys.reference_bus,
            Some(weights),
        )
        .unwrap();
        let injections = dcflow::synthetic_injections(b, b as u64);
        let op = dcflow::solve(&sys.grid, &sys.topology, &injections, sys.reference_bus)
            .unwrap();
        let mut z = sparse.measure(&op);
        for i in 0..z.len() {
            z[i] += 0.003 * ((i as f64 * 0.9).sin()); // measurement noise
        }
        let rs = sparse.estimate(&z).unwrap();
        let rd = dense.estimate(&z).unwrap();
        for j in 0..b {
            assert!(
                (rs.theta[j] - rd.theta[j]).abs() < 1e-9,
                "case {b} bus {j}: sparse {} vs dense {}",
                rs.theta[j],
                rd.theta[j]
            );
        }
        assert!((rs.weighted_sse - rd.weighted_sse).abs() < 1e-9, "case {b}");
        assert!((rs.residual_norm - rd.residual_norm).abs() < 1e-9, "case {b}");
    }
}

#[test]
fn sparse_factor_solve_matches_dense_cholesky_on_generated_gains() {
    for &b in &SIZES {
        for seed in [1u64, 17, 99] {
            let grid = synthetic::generate(b, b + b / 2, seed).unwrap();
            let sys = sta::grid::TestSystem::fully_metered(format!("gen{b}-{seed}"), grid);
            let gain = sparse_gain(&sys);
            let sparse = SparseCholesky::factor(&gain).unwrap();
            let dense = Cholesky::factor(&gain.to_dense()).unwrap();
            let rhs = Vector::from(
                (0..gain.num_rows())
                    .map(|i| ((i as f64) * 0.61 + seed as f64).cos())
                    .collect::<Vec<_>>(),
            );
            let xs = sparse.solve(&rhs).unwrap();
            let xd = dense.solve(&rhs).unwrap();
            for i in 0..xs.len() {
                assert!(
                    (xs[i] - xd[i]).abs() < 1e-9,
                    "case {b} seed {seed} component {i}: {} vs {}",
                    xs[i],
                    xd[i]
                );
            }
        }
    }
}

#[test]
fn amd_always_returns_a_valid_permutation() {
    for &b in &SIZES {
        for seed in [2u64, 5, 23] {
            let grid = synthetic::generate(b, b + b / 3, seed).unwrap();
            let sys = sta::grid::TestSystem::fully_metered(format!("perm{b}-{seed}"), grid);
            let gain = sparse_gain(&sys);
            let perm = amd_order(&gain).unwrap();
            assert_eq!(perm.len(), gain.num_rows(), "case {b} seed {seed}");
            let mut seen = vec![false; perm.len()];
            for &p in &perm {
                assert!(p < perm.len(), "case {b} seed {seed}: index {p} out of range");
                assert!(!seen[p], "case {b} seed {seed}: duplicate index {p}");
                seen[p] = true;
            }
        }
    }
}

#[test]
fn symbolic_reuse_refactors_identically_at_every_size() {
    for &b in &SIZES {
        let sys = synthetic::ieee_case(b);
        let gain = sparse_gain(&sys);
        let sym = SparseSymbolic::analyze(&gain).unwrap();
        // Re-weighting changes values but not the pattern: the reused
        // symbolic must produce the exact factor a fresh run produces.
        let scale: Vec<f64> = (0..gain.num_rows())
            .map(|i| 1.0 + 0.1 * (i % 4) as f64)
            .collect();
        let reweighted = gain.scale_rows(&scale).scale_cols(&scale);
        let reused = sym.factor(&reweighted).unwrap();
        let fresh = SparseCholesky::factor(&reweighted).unwrap();
        assert_eq!(reused.factor_nnz(), fresh.factor_nnz(), "case {b}");
        let rhs = Vector::from(vec![1.0; gain.num_rows()]);
        let xr = reused.solve(&rhs).unwrap();
        let xf = fresh.solve(&rhs).unwrap();
        for i in 0..xr.len() {
            assert_eq!(xr[i], xf[i], "case {b} component {i} differs");
        }
    }
}

#[test]
fn observability_verdicts_agree_with_dense_rank_oracle_on_generated_grids() {
    use sta::estimator::observability;
    for &b in &[14usize, 30, 57] {
        let sys = synthetic::ieee_case(b);
        // Full measurement set: observable both ways.
        assert!(observability::is_observable(
            &sys.grid,
            &sys.topology,
            &sys.measurements,
            sys.reference_bus
        ));
        // Starved measurement set: keep only a handful of rows.
        let mut starved = sys.measurements.clone();
        for m in 0..starved.len() {
            starved.set_taken(sta::grid::MeasurementId(m), m < 3);
        }
        let sparse_verdict = observability::is_observable(
            &sys.grid,
            &sys.topology,
            &starved,
            sys.reference_bus,
        );
        let h = observability::reduced_jacobian(&sys.grid, &sys.topology, &starved, sys.reference_bus);
        let dense_verdict = observability::rank(&h) == h.num_cols();
        assert_eq!(sparse_verdict, dense_verdict, "case {b}");
        assert!(!sparse_verdict, "3 rows cannot observe {b} buses");
    }
}

/// The dense oracle for `dcflow::solve`: the reduced susceptance matrix
/// expanded to dense and solved by LU with partial pivoting.
fn dense_operating_angles(sys: &TestSystem, injections: &[f64]) -> Vec<f64> {
    let keep: Vec<usize> = (0..sys.grid.num_buses())
        .filter(|&j| j != sys.reference_bus.0)
        .collect();
    let rhs: Vector = keep.iter().map(|&j| injections[j]).collect();
    let reduced = b_matrix(&sys.grid, &sys.topology, sys.reference_bus).to_dense();
    let sol = Lu::factor(&reduced).unwrap().solve(&rhs).unwrap();
    let mut theta = vec![0.0; sys.grid.num_buses()];
    for (k, &j) in keep.iter().enumerate() {
        theta[j] = sol[k];
    }
    theta
}

/// The sparse operating point agrees with the dense LU oracle to 1e-10
/// on every bus, and its nine-decimal rounding — the exact constants the
/// verifier anchors topology attacks on — is bit-identical. The larger
/// cases stay out: a debug-build dense LU there takes seconds.
#[test]
fn dc_operating_point_matches_the_dense_lu_oracle() {
    let mut cases = vec![ieee14::system(), ieee14::system_unsecured()];
    cases.extend([30, 57, 118, 300].map(synthetic::ieee_case));
    for sys in &cases {
        let b = sys.grid.num_buses();
        for seed in [0u64, 1, 7] {
            let injections = dcflow::synthetic_injections(b, seed);
            let op = dcflow::solve(&sys.grid, &sys.topology, &injections, sys.reference_bus)
                .unwrap();
            let oracle = dense_operating_angles(sys, &injections);
            for (j, (&sparse, &dense)) in op.theta.iter().zip(&oracle).enumerate() {
                assert!(
                    (sparse - dense).abs() <= 1e-10,
                    "{} seed {seed} bus {j}: sparse {sparse} vs dense {dense}",
                    sys.name
                );
                assert_eq!(
                    decimal::angle(sparse),
                    decimal::angle(dense),
                    "{} seed {seed} bus {j}: rounded angles differ",
                    sys.name
                );
            }
        }
    }
}
