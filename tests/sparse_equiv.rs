//! Sparse-vs-dense equivalence properties.
//!
//! The dense pipeline (dense Jacobian, dense gain product, dense
//! Cholesky) is the correctness oracle for the sparse one (CSR Jacobian,
//! sparse gain, AMD-ordered LDLᵀ). These tests pin the two paths together
//! on seeded `synthetic::generate` grids at every IEEE evaluation size
//! that fits in test time: identical estimates to 1e-9, identical
//! observability verdicts, valid AMD permutations, and bit-identical
//! symbolic-reuse refactorization. The DC operating point gets the same
//! treatment against a dense LU of the reduced susceptance matrix, and
//! the factorization's dense trailing-clique kernel is checked on seeded
//! random patterns against the dense Cholesky. Observability, decided on
//! flow islands, is crossed with the dense rank oracle and the
//! estimator's gain test on seeded random outages and meter sets, and
//! critical measurements with the rank-drop oracle (many seeds and 300
//! buses in the ignored variant, which `verify.sh` runs in release).

use sta::core::decimal;
use sta::estimator::{dcflow, observability, WlsEstimator};
use sta::grid::topology::{b_matrix, h_matrix_sparse};
use sta::grid::{
    ieee14, synthetic, BusId, Grid, Line, LineId, MeasurementConfig, MeasurementId, TestSystem,
    Topology,
};
use sta::linalg::rng::Pcg32;
use sta::linalg::{
    amd_order, Cholesky, CholeskyError, CsrMatrix, Lu, Matrix, SparseCholesky, SparseSymbolic,
    Vector,
};

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

/// A random symmetric matrix on `n` vertices with the given edges:
/// off-diagonal weights drawn from ±[0.1, 1], and each diagonal entry the
/// row's absolute sum plus a margin drawn from [0.1, 1], which makes it
/// SPD. With `laplacian` the weights are all negative and there is no
/// margin: a graph Laplacian, singular on every connected component.
fn random_symmetric(
    rng: &mut Pcg32,
    n: usize,
    edges: &[(usize, usize)],
    laplacian: bool,
) -> CsrMatrix {
    let mut diag = vec![0.0; n];
    let mut t = Vec::with_capacity(n + 2 * edges.len());
    for &(a, b) in edges {
        let mut v = rng.uniform_f64(0.1, 1.0);
        if laplacian || rng.flip() {
            v = -v;
        }
        t.push((a, b, v));
        t.push((b, a, v));
        diag[a] += v.abs();
        diag[b] += v.abs();
    }
    for (i, d) in diag.into_iter().enumerate() {
        let margin = if laplacian {
            0.0
        } else {
            rng.uniform_f64(0.1, 1.0)
        };
        t.push((i, i, d + margin));
    }
    CsrMatrix::from_triplets(n, n, &t)
}

/// Edges of a random sparse connected graph on `lo..hi`: a random
/// spanning tree plus `chords` random chords (the synthetic grids'
/// shape).
fn sparse_graph(rng: &mut Pcg32, lo: usize, hi: usize, chords: usize) -> Vec<(usize, usize)> {
    let mut edges: Vec<_> = (lo + 1..hi).map(|i| (lo + rng.below(i - lo), i)).collect();
    for _ in 0..if hi - lo > 1 { chords } else { 0 } {
        let (a, b) = (rng.range_usize(lo, hi), rng.range_usize(lo, hi));
        if a != b {
            edges.push((a.min(b), a.max(b)));
        }
    }
    edges
}

/// The pattern classes of the dense-tail differential test, each with
/// the size of the trailing clique it is built to have.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// Diagonal or a tree: the clique is the last one or two columns.
    Absent,
    /// Sparse graph with chords: a clique shorter than the matrix.
    Partial,
    /// Complete graph: the clique is the whole matrix.
    Dense,
    /// Several disconnected sparse components, each filling its own
    /// clique; only the last one trails.
    Components,
}

fn random_pattern(rng: &mut Pcg32, shape: Shape, n: usize) -> Vec<(usize, usize)> {
    match shape {
        Shape::Absent if rng.flip() => Vec::new(),
        Shape::Absent => sparse_graph(rng, 0, n, 0),
        Shape::Partial => sparse_graph(rng, 0, n, n / 2 + 2),
        Shape::Dense => (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .collect(),
        Shape::Components => {
            let cuts = [0, n / 4, n / 2, n];
            cuts.windows(2)
                .flat_map(|w| sparse_graph(rng, w[0], w[1], (w[1] - w[0]) / 2 + 2))
                .collect()
        }
    }
}

/// `P·A·Pᵀ` densely, for the sparse analysis's permutation.
fn permuted_dense(a: &CsrMatrix, perm: &[usize]) -> Matrix {
    let dense = a.to_dense();
    let n = perm.len();
    let mut out = Matrix::zeros(n, n);
    for k in 0..n {
        for l in 0..n {
            out[(k, l)] = dense[(perm[k], perm[l])];
        }
    }
    out
}

/// The sparse factorization agrees with the dense Cholesky on seeded
/// random SPD matrices of up to 300 rows whose trailing clique is absent,
/// partial, the whole matrix, or one of several components: solutions
/// to 1e-10, and the fill the analysis counted is the fill the dense
/// factor of the same ordering has. Random weights never cancel exactly,
/// so an entry of the dense factor is zero exactly when it is outside
/// the symbolic pattern.
#[test]
fn dense_tail_kernel_matches_the_dense_cholesky_on_random_patterns() {
    let mut rng = Pcg32::new(0x7a11);
    let mut tails = Vec::new();
    for shape in [
        Shape::Absent,
        Shape::Partial,
        Shape::Dense,
        Shape::Components,
    ] {
        for n in [1usize, 2, 9, 40, 120, 300] {
            let edges = random_pattern(&mut rng, shape, n);
            let a = random_symmetric(&mut rng, n, &edges, false);
            let sym = SparseSymbolic::analyze(&a).unwrap();
            let sparse = sym.factor(&a).unwrap();
            assert_eq!(sparse.factor_nnz(), sym.factor_nnz(), "{shape:?} n={n}");
            let l = Cholesky::factor(&permuted_dense(&a, sym.permutation())).unwrap();
            let l = l.lower();
            let nonzero = |i: usize, k: usize| l[(i, k)] != 0.0;
            let fill = (0..n)
                .map(|k| (k + 1..n).filter(|&i| nonzero(i, k)).count())
                .sum::<usize>();
            assert_eq!(fill, sym.factor_nnz(), "{shape:?} n={n}: dense fill");
            let clique = (0..n)
                .rev()
                .take_while(|&k| (k + 1..n).all(|i| nonzero(i, k)))
                .count();
            tails.push((shape, n, clique));
            let b: Vector = (0..n).map(|_| rng.uniform_f64(-1.0, 1.0)).collect();
            let xs = sparse.solve(&b).unwrap();
            let xd = Cholesky::factor(&a.to_dense()).unwrap().solve(&b).unwrap();
            for i in 0..n {
                assert!(
                    (xs[i] - xd[i]).abs() <= 1e-10,
                    "{shape:?} n={n} component {i}: {} vs {}",
                    xs[i],
                    xd[i]
                );
            }
        }
    }
    // Every class produced the clique it was built for, at n >= 40.
    for &(shape, n, clique) in tails.iter().filter(|t| t.1 >= 40) {
        let ok = match shape {
            Shape::Absent => clique <= 2,
            Shape::Partial | Shape::Components => clique > 2 && clique < n,
            Shape::Dense => clique == n,
        };
        assert!(ok, "{shape:?} n={n}: trailing clique of {clique}");
    }
}

/// Non-positive-definite input fails with `NotPositiveDefinite` on both
/// paths whether the failing pivot is a head pivot (an isolated zero
/// diagonal, which minimum degree eliminates first) or a trailing-clique
/// pivot (an ungrounded Laplacian, singular only in its last pivot).
#[test]
fn non_positive_definite_pivots_fail_in_the_head_and_in_the_tail() {
    let mut rng = Pcg32::new(0x0b5e);
    for n in [12usize, 80, 250] {
        // Vertex 0 has no edges, so zeroing its row leaves a stored zero
        // on the diagonal and nothing else.
        let edges = sparse_graph(&mut rng, 1, n, n / 2);
        let mut zero_first = vec![1.0; n];
        zero_first[0] = 0.0;
        let a = random_symmetric(&mut rng, n, &edges, false).scale_rows(&zero_first);
        assert_eq!(amd_order(&a).unwrap()[0], 0, "n={n}: isolated vertex first");
        let edges = sparse_graph(&mut rng, 0, n, n / 2);
        let laplacian = random_symmetric(&mut rng, n, &edges, true);
        for (what, m) in [("zero diagonal", a), ("ungrounded Laplacian", laplacian)] {
            assert_eq!(
                SparseCholesky::factor(&m).unwrap_err(),
                CholeskyError::NotPositiveDefinite,
                "n={n}: sparse, {what}"
            );
            assert_eq!(
                Cholesky::factor(&m.to_dense()).unwrap_err(),
                CholeskyError::NotPositiveDefinite,
                "n={n}: dense, {what}"
            );
        }
    }
}

/// The gains where the trailing clique carries most of the work: the
/// benchmark's seed-1 1354-bus grid and the 2000-bus preset. The fill is
/// pinned and the solve checked by its residual (a debug-build dense
/// oracle at these sizes is too slow for tier-1).
#[test]
fn large_gains_keep_their_fill_and_solve_to_a_small_residual() {
    let open = TestSystem::fully_metered(
        "open-1354-seed1",
        synthetic::generate(1354, 1991, 1).unwrap(),
    );
    for (sys, fill) in [(open, 152_500), (synthetic::ieee_case(2000), 435_666)] {
        let gain = sparse_gain(&sys);
        let factor = SparseCholesky::factor(&gain).unwrap();
        assert_eq!(factor.factor_nnz(), fill, "{}", sys.name);
        let b: Vector = (0..gain.num_rows())
            .map(|i| ((i as f64) * 0.37).sin())
            .collect();
        let x = factor.solve(&b).unwrap();
        let r = &gain.mul_vec(&x) - &b;
        let norm_inf = |v: &Vector| v.iter().fold(0.0f64, |m, e| m.max(e.abs()));
        assert!(
            norm_inf(&r) <= 1e-9 * norm_inf(&b),
            "{}: residual {} against |b| {}",
            sys.name,
            norm_inf(&r),
            norm_inf(&b)
        );
    }
}

/// The dense oracle's verdicts on one configuration: observability as
/// full column rank of the reduced Jacobian and, with `criticality`, the
/// measurements whose removal drops the rank (empty when unobservable).
fn dense_verdicts(
    grid: &Grid,
    topo: &Topology,
    cfg: &MeasurementConfig,
    reference: BusId,
    criticality: bool,
) -> (bool, Vec<MeasurementId>) {
    let h = observability::reduced_jacobian(grid, topo, cfg, reference);
    let full = observability::rank(&h);
    if full < h.num_cols() || !criticality {
        return (full == h.num_cols(), Vec::new());
    }
    let critical = cfg
        .taken_ids()
        .enumerate()
        .filter(|&(k, _)| {
            let keep: Vec<usize> = (0..h.num_rows()).filter(|&i| i != k).collect();
            observability::rank(&h.select_rows(&keep)) < full
        })
        .map(|(_, id)| id)
        .collect();
    (true, critical)
}

/// `is_observable` on one configuration must match the dense rank oracle
/// and the estimator's own gain test; with `criticality`, the critical
/// set must match the rank-drop oracle in taken order. Returns the
/// verdict and the number of critical measurements.
fn check_configuration(
    what: &str,
    grid: &Grid,
    topo: &Topology,
    cfg: &MeasurementConfig,
    reference: BusId,
    criticality: bool,
) -> (bool, usize) {
    let verdict = observability::is_observable(grid, topo, cfg, reference);
    let wls = WlsEstimator::new(grid, topo, cfg, reference, None).is_ok();
    let (dense, critical) = dense_verdicts(grid, topo, cfg, reference, criticality);
    assert_eq!(verdict, dense, "{what}: is_observable vs dense rank");
    assert_eq!(verdict, wls, "{what}: is_observable vs WlsEstimator::new");
    if criticality {
        let found = observability::critical_measurements(grid, topo, cfg, reference);
        assert_eq!(found, critical, "{what}: critical set vs rank drop");
    }
    (verdict, critical.len())
}

/// A meter density: none, all, or uniform in between.
fn density(rng: &mut Pcg32) -> f64 {
    match rng.below(4) {
        0 => 0.0,
        1 => 1.0,
        _ => rng.uniform_f64(0.0, 1.0),
    }
}

/// Random configurations of `sizes`' IEEE cases under each seed: 0–2
/// random line outages (islanding ones included), a random reference
/// bus, and forward flow, backward flow and injection meters each taken
/// with its own random density. Criticality is crossed at up to
/// `critical_up_to` buses. Both verdicts, and some non-empty critical
/// set, must occur.
fn observability_differential(
    seeds: &[u64],
    sizes: &[usize],
    per_size: usize,
    critical_up_to: usize,
) {
    let (mut total, mut observable, mut with_critical) = (0, 0, 0);
    for &seed in seeds {
        let mut rng = Pcg32::new(seed);
        for &b in sizes {
            let sys = synthetic::ieee_case(b);
            let (grid, l) = (&sys.grid, sys.grid.num_lines());
            for i in 0..per_size {
                let mut topo = sys.topology.clone();
                for _ in 0..rng.below(3) {
                    topo = topo.with_line_open(LineId(rng.below(l)));
                }
                let (forward, backward, injection) =
                    (density(&mut rng), density(&mut rng), density(&mut rng));
                let mut cfg = MeasurementConfig::full(grid);
                for m in 0..cfg.len() {
                    let p = [forward, backward, injection][(m / l).min(2)];
                    cfg.set_taken(MeasurementId(m), rng.uniform_f64(0.0, 1.0) < p);
                }
                let reference = BusId(rng.below(b));
                let what = format!("seed {seed}, {b} buses, configuration {i}");
                let (verdict, critical) =
                    check_configuration(&what, grid, &topo, &cfg, reference, b <= critical_up_to);
                total += 1;
                observable += usize::from(verdict);
                with_critical += usize::from(critical > 0);
            }
        }
    }
    let mixed = (1..total).contains(&observable);
    assert!(mixed, "{observable} of {total} observable");
    assert!(with_critical > 0, "no critical measurement anywhere");
}

#[test]
fn observability_verdicts_agree_with_both_oracles_on_random_configurations() {
    observability_differential(&[1, 2, 3], &[14, 30, 57, 118], 12, 30);
}

#[test]
#[ignore = "many seeds and a 300-bus case; verify.sh runs it in release"]
fn observability_verdicts_agree_with_both_oracles_on_many_seeds() {
    let seeds: Vec<u64> = (1..=40).collect();
    observability_differential(&seeds, &[14, 30, 57, 118, 300], 12, 57);
}

/// The configurations the random sweep may miss, each checked against
/// both oracles, with the verdict pinned. Measurements are numbered
/// forward flows, backward flows, then injections.
#[test]
fn observability_edge_cases_agree_with_both_oracles() {
    let grid = |buses: usize, lines: &[(usize, usize, f64)]| {
        let line = |&(f, t, y): &(usize, usize, f64)| Line::new(BusId(f), BusId(t), y);
        Grid::new(buses, lines.iter().map(line).collect())
    };
    let single = grid(1, &[]);
    let parallel = grid(2, &[(0, 1, 4.0), (0, 1, 6.0)]);
    let chain = grid(4, &[(0, 1, 3.0), (1, 2, 5.0), (2, 3, 7.0)]);
    let ieee = ieee14::system().grid;
    let back: Vec<usize> = (20..40).collect();
    let but_14: Vec<usize> = (20..40).filter(|&m| m != 20 + 13).collect();
    let inj: Vec<usize> = (40..54).collect();
    // (what, grid, open lines, taken measurements, reference, verdict)
    type Case<'a> = (&'a str, &'a Grid, &'a [usize], &'a [usize], usize, bool);
    let cases: &[Case] = &[
        // One bus: nothing to estimate, metered or not.
        ("one bus, metered", &single, &[], &[0], 0, true),
        ("one bus, unmetered", &single, &[], &[], 0, true),
        // Two buses joined only by parallel lines.
        ("parallel, one flow", &parallel, &[], &[1], 0, true),
        ("parallel, one injection", &parallel, &[], &[5], 1, true),
        ("parallel, no meter", &parallel, &[], &[], 0, false),
        // A taken flow meter on an out-of-service line measures nothing:
        // its buses must not be joined.
        ("open line's flows", &parallel, &[0], &[0, 2], 0, false),
        ("open line, injection", &parallel, &[0], &[0, 4], 1, true),
        // Only backward flows: they join buses as forward flows do. Bus 8
        // hangs off line 14 alone.
        ("every backward flow", &ieee, &[], &back, 0, true),
        ("no line-14 backward flow", &ieee, &[], &but_14, 0, false),
        // The reference bus in the last of the flow islands {0}, {1},
        // {2, 3}: injections at buses 0 and 1 observe it, bus 0's alone
        // does not.
        ("reference island last", &chain, &[], &[2, 6, 7], 3, true),
        ("one injection short", &chain, &[], &[2, 6], 3, false),
        // No flow meter at all: every bus is its own island.
        ("every injection", &ieee, &[], &inj, 0, true),
        ("injections, line 14 open", &ieee, &[13], &inj, 0, false),
        ("no meter", &ieee, &[], &[], 0, false),
    ];
    for &(what, grid, open, taken, reference, verdict) in cases {
        let mut topo = Topology::all_closed(grid);
        for &line in open {
            topo = topo.with_line_open(LineId(line));
        }
        let mut cfg = MeasurementConfig::full(grid);
        for m in 0..cfg.len() {
            cfg.set_taken(MeasurementId(m), taken.contains(&m));
        }
        let reference = BusId(reference);
        let got = check_configuration(what, grid, &topo, &cfg, reference, true).0;
        assert_eq!(got, verdict, "{what}");
    }
}
