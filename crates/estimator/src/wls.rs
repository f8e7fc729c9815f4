//! Weighted least squares state estimation (paper Eq. 1).
//!
//! Given the taken-measurement Jacobian `H`, diagonal weights `W`
//! (reciprocal error variances) and a measurement vector `z`, the WLS
//! estimate is `x̂ = (HᵀWH)⁻¹HᵀWz`, computed after eliminating the
//! reference bus column (its angle is the datum). The normal-equation
//! matrix is SPD exactly when the measurement set is observable, so an
//! unobservable configuration surfaces as an error rather than garbage.

use crate::chi2;
use sta_grid::{BusId, Grid, MeasurementConfig, MeasurementId, Topology};
use sta_linalg::{Cholesky, CholeskyError, CsrMatrix, Matrix, SparseCholesky, Vector};
use std::fmt;

/// Error from [`WlsEstimator::estimate`]: the taken measurements do not
/// observe every state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnobservableError;

impl fmt::Display for UnobservableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("measurement set does not make the system observable")
    }
}

impl std::error::Error for UnobservableError {}

/// The result of one WLS estimation.
#[derive(Debug, Clone)]
pub struct StateEstimate {
    /// Estimated phase angle of every bus (reference pinned to zero).
    pub theta: Vector,
    /// Estimated values of the *taken* measurements, `H·x̂`, in taken
    /// order.
    pub estimated: Vector,
    /// Raw residual vector `z − H·x̂`, in taken order.
    pub residual: Vector,
    /// The `l2` residual norm `‖z − H·x̂‖` (the paper's detection
    /// statistic).
    pub residual_norm: f64,
    /// Weighted sum of squared residuals `Σ wᵢ·rᵢ²` (the χ² statistic).
    pub weighted_sse: f64,
    /// Degrees of freedom, `m − n` (taken measurements minus estimated
    /// states).
    pub degrees_of_freedom: usize,
}

/// A WLS estimator bound to a grid, topology and measurement
/// configuration.
///
/// # Examples
///
/// ```
/// use sta_estimator::{dcflow, WlsEstimator};
/// use sta_grid::ieee14;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = ieee14::system();
/// let est = WlsEstimator::for_system(&sys)?;
/// let injections = dcflow::synthetic_injections(14, 1);
/// let op = dcflow::solve(&sys.grid, &sys.topology, &injections, sys.reference_bus)?;
/// let z = est.measure(&op);
/// let result = est.estimate(&z)?;
/// assert!(result.residual_norm < 1e-9); // noiseless: exact fit
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct WlsEstimator {
    /// Jacobian restricted to taken rows and non-reference columns, in
    /// compressed sparse rows (the DC Jacobian has ≤ `deg+1` nonzeros
    /// per row, so this is O(lines) storage at any grid size).
    h_sparse: CsrMatrix,
    /// Dense copy of the same Jacobian, materialized lazily on first use
    /// (the [`Self::jacobian`] accessor or the dense-oracle estimation
    /// path) so the sparse pipeline never pays the O(m·n) expansion.
    h_taken: std::sync::OnceLock<Matrix>,
    /// Row map: taken-measurement row → potential measurement index.
    taken_rows: Vec<usize>,
    /// Column map: reduced column → bus index.
    state_cols: Vec<usize>,
    /// Diagonal weights per taken row.
    weights: Vec<f64>,
    /// Cached Cholesky factor of the gain matrix `HᵀWH`.
    gain: Gain,
    num_buses: usize,
    reference: BusId,
}

/// The cached gain-matrix factorization: sparse by default, dense when
/// constructed through the oracle path ([`WlsEstimator::new_dense`]).
#[derive(Debug, Clone)]
enum Gain {
    Sparse(SparseCholesky),
    Dense(Cholesky),
}

impl WlsEstimator {
    /// Builds an estimator for a packaged test system with unit weights.
    ///
    /// # Errors
    /// Returns [`UnobservableError`] if the taken measurements cannot
    /// observe the state.
    pub fn for_system(sys: &sta_grid::TestSystem) -> Result<Self, UnobservableError> {
        Self::new(
            &sys.grid,
            &sys.topology,
            &sys.measurements,
            sys.reference_bus,
            None,
        )
    }

    /// Builds an estimator.
    ///
    /// `weights` are reciprocal error variances per *taken* measurement,
    /// in taken order; `None` means unit weights.
    ///
    /// # Errors
    /// Returns [`UnobservableError`] if `HᵀWH` is not positive definite.
    ///
    /// # Panics
    /// Panics if `weights` is provided with the wrong length.
    pub fn new(
        grid: &Grid,
        topo: &Topology,
        measurements: &MeasurementConfig,
        reference: BusId,
        weights: Option<Vec<f64>>,
    ) -> Result<Self, UnobservableError> {
        let h_full = sta_grid::topology::h_matrix_sparse(grid, topo);
        let taken_rows: Vec<usize> = measurements.taken_ids().map(|m| m.0).collect();
        let state_cols: Vec<usize> =
            (0..grid.num_buses()).filter(|&j| j != reference.0).collect();
        let h_sparse = h_full.select_rows(&taken_rows).select_cols(&state_cols);
        let weights = match weights {
            Some(w) => {
                assert_eq!(w.len(), taken_rows.len(), "one weight per taken row");
                w
            }
            None => vec![1.0; taken_rows.len()],
        };
        // Gain `HᵀWH` formed sparsely: it inherits the bus-adjacency
        // pattern, so both the product and its AMD-ordered LDLᵀ factor
        // stay O(lines)-sized.
        let htw = h_sparse.transpose().scale_cols(&weights);
        let gain = SparseCholesky::factor(&htw.mul_mat(&h_sparse))
            .map_err(|_| UnobservableError)?;
        Ok(WlsEstimator {
            h_sparse,
            h_taken: std::sync::OnceLock::new(),
            taken_rows,
            state_cols,
            weights,
            gain: Gain::Sparse(gain),
            num_buses: grid.num_buses(),
            reference,
        })
    }

    /// Builds an estimator on the dense pipeline: dense Jacobian, dense
    /// gain product, dense Cholesky. Kept as the correctness oracle for
    /// the sparse path (equivalence is pinned by property tests) and as
    /// the slow side of the `scale` bench suite.
    ///
    /// # Errors
    /// Returns [`UnobservableError`] if `HᵀWH` is not positive definite.
    ///
    /// # Panics
    /// Panics if `weights` is provided with the wrong length.
    pub fn new_dense(
        grid: &Grid,
        topo: &Topology,
        measurements: &MeasurementConfig,
        reference: BusId,
        weights: Option<Vec<f64>>,
    ) -> Result<Self, UnobservableError> {
        let h_full = sta_grid::topology::h_matrix(grid, topo);
        let taken_rows: Vec<usize> = measurements.taken_ids().map(|m| m.0).collect();
        let state_cols: Vec<usize> =
            (0..grid.num_buses()).filter(|&j| j != reference.0).collect();
        let h_taken = h_full.select_rows(&taken_rows).select_cols(&state_cols);
        let weights = match weights {
            Some(w) => {
                assert_eq!(w.len(), taken_rows.len(), "one weight per taken row");
                w
            }
            None => vec![1.0; taken_rows.len()],
        };
        let htw = h_taken.transpose().scale_cols(&weights);
        let gain = Cholesky::factor(&htw.mul_mat(&h_taken))
            .map_err(|_| UnobservableError)?;
        let h_sparse = CsrMatrix::from_dense(&h_taken);
        let dense_cache = std::sync::OnceLock::new();
        let _ = dense_cache.set(h_taken);
        Ok(WlsEstimator {
            h_sparse,
            h_taken: dense_cache,
            taken_rows,
            state_cols,
            weights,
            gain: Gain::Dense(gain),
            num_buses: grid.num_buses(),
            reference,
        })
    }

    /// Number of taken measurements (`m`).
    pub fn num_measurements(&self) -> usize {
        self.taken_rows.len()
    }

    /// Number of estimated states (`n = b − 1`).
    pub fn num_states(&self) -> usize {
        self.state_cols.len()
    }

    /// The taken-row Jacobian (rows in taken order, reference column
    /// removed), expanded to dense storage on first call.
    pub fn jacobian(&self) -> &Matrix {
        self.h_taken.get_or_init(|| self.h_sparse.to_dense())
    }

    /// The same Jacobian in compressed sparse rows.
    pub fn jacobian_sparse(&self) -> &CsrMatrix {
        &self.h_sparse
    }

    /// Diagonal weights per taken row, in row order.
    pub(crate) fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Solves `G·x = rhs` with the cached factor of the gain `G = HᵀWH`.
    pub(crate) fn solve_gain(&self, rhs: &Vector) -> Result<Vector, CholeskyError> {
        match &self.gain {
            Gain::Sparse(gain) => gain.solve(rhs),
            Gain::Dense(gain) => gain.solve(rhs),
        }
    }

    /// Potential-measurement indices of the taken rows, in row order.
    pub fn taken_rows(&self) -> &[usize] {
        &self.taken_rows
    }

    /// Builds the taken-measurement vector implied by an operating point
    /// (a perfect, noiseless SCADA snapshot).
    pub fn measure(&self, op: &crate::dcflow::OperatingPoint) -> Vector {
        let l = (op.line_flows.len()).max(0);
        self.taken_rows
            .iter()
            .map(|&row| {
                if row < l {
                    op.line_flows[row]
                } else if row < 2 * l {
                    -op.line_flows[row - l]
                } else {
                    op.bus_consumption[row - 2 * l]
                }
            })
            .collect()
    }

    /// Runs the WLS estimate on a taken-measurement vector `z`.
    ///
    /// # Errors
    /// Returns [`UnobservableError`] only on numerical failure of the
    /// cached factorization (should not occur once constructed).
    ///
    /// # Panics
    /// Panics if `z.len() != self.num_measurements()`.
    pub fn estimate(&self, z: &Vector) -> Result<StateEstimate, UnobservableError> {
        assert_eq!(z.len(), self.num_measurements(), "measurement dimension");
        let (x, estimated) = match &self.gain {
            Gain::Sparse(gain) => {
                // rhs = Hᵀ·(w ∘ z), in one sparse pass.
                let wz: Vector = z
                    .iter()
                    .zip(&self.weights)
                    .map(|(zi, w)| zi * w)
                    .collect();
                let rhs = self.h_sparse.mul_vec_transposed(&wz);
                let x = gain.solve(&rhs).map_err(|_| UnobservableError)?;
                let estimated = self.h_sparse.mul_vec(&x);
                (x, estimated)
            }
            Gain::Dense(gain) => {
                let h = self.jacobian();
                let htw = h.transpose().scale_cols(&self.weights);
                let rhs = htw.mul_vec(z);
                let x = gain.solve(&rhs).map_err(|_| UnobservableError)?;
                let estimated = h.mul_vec(&x);
                (x, estimated)
            }
        };
        let residual = z - &estimated;
        let weighted_sse = residual
            .iter()
            .zip(&self.weights)
            .map(|(r, w)| r * r * w)
            .sum();
        let mut theta = Vector::zeros(self.num_buses);
        for (k, &j) in self.state_cols.iter().enumerate() {
            theta[j] = x[k];
        }
        let dof = self.num_measurements().saturating_sub(self.num_states());
        Ok(StateEstimate {
            theta,
            estimated,
            residual_norm: residual.norm2(),
            residual,
            weighted_sse,
            degrees_of_freedom: dof,
        })
    }

    /// The BDD threshold `τ` on the *weighted SSE* at significance `alpha`
    /// (probability of false alarm), i.e. the `χ²_{m−n}` quantile at
    /// `1 − alpha`.
    ///
    /// # Panics
    /// Panics if there is no redundancy (`m ≤ n`).
    pub fn detection_threshold(&self, alpha: f64) -> f64 {
        let dof = self.num_measurements() - self.num_states();
        assert!(dof > 0, "no measurement redundancy");
        chi2::chi2_quantile(dof, 1.0 - alpha)
    }

    /// The reference bus.
    pub fn reference_bus(&self) -> BusId {
        self.reference
    }

    /// Maps a potential measurement to its taken-row index, if taken.
    pub fn row_of(&self, id: MeasurementId) -> Option<usize> {
        self.taken_rows.iter().position(|&r| r == id.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcflow;
    use sta_grid::{ieee14, synthetic, MeasurementId};

    fn noiseless_setup() -> (sta_grid::TestSystem, WlsEstimator, Vector) {
        let sys = ieee14::system();
        let est = WlsEstimator::for_system(&sys).unwrap();
        let injections = dcflow::synthetic_injections(14, 3);
        let op =
            dcflow::solve(&sys.grid, &sys.topology, &injections, sys.reference_bus)
                .unwrap();
        let z = est.measure(&op);
        (sys, est, z)
    }

    #[test]
    fn noiseless_estimate_is_exact() {
        let (sys, est, z) = noiseless_setup();
        let result = est.estimate(&z).unwrap();
        assert!(result.residual_norm < 1e-9);
        assert!(result.weighted_sse < 1e-16);
        assert_eq!(result.degrees_of_freedom, 44 - 13);
        // theta matches a fresh power flow.
        let injections = dcflow::synthetic_injections(14, 3);
        let op =
            dcflow::solve(&sys.grid, &sys.topology, &injections, sys.reference_bus)
                .unwrap();
        for j in 0..14 {
            assert!((result.theta[j] - op.theta[j]).abs() < 1e-8, "bus {j}");
        }
    }

    #[test]
    fn noisy_estimate_smooths() {
        let (_sys, est, z) = noiseless_setup();
        let mut noisy = z.clone();
        // Small random-ish perturbations.
        for i in 0..noisy.len() {
            noisy[i] += 0.001 * ((i as f64 * 0.7).sin());
        }
        let result = est.estimate(&noisy).unwrap();
        assert!(result.residual_norm > 0.0);
        assert!(result.residual_norm < 0.01);
    }

    #[test]
    fn stealthy_attack_leaves_residual_unchanged() {
        // The defining property of UFDI: a = H·c adds nothing to the
        // residual.
        let (_sys, est, z) = noiseless_setup();
        let base = est.estimate(&z).unwrap();
        // c: bump state 5 (column index in reduced space) by 0.1.
        let mut c = Vector::zeros(est.num_states());
        c[5] = 0.1;
        let a = est.jacobian().mul_vec(&c);
        let attacked = &z + &a;
        let result = est.estimate(&attacked).unwrap();
        assert!((result.residual_norm - base.residual_norm).abs() < 1e-9);
        // And the state moved.
        let moved = (0..14).any(|j| (result.theta[j] - base.theta[j]).abs() > 0.05);
        assert!(moved);
    }

    #[test]
    fn random_injection_moves_residual() {
        let (_sys, est, z) = noiseless_setup();
        let mut attacked = z.clone();
        attacked[7] += 1.0; // crude bad data
        let result = est.estimate(&attacked).unwrap();
        assert!(result.residual_norm > 0.1);
    }

    #[test]
    fn unobservable_with_too_few_measurements() {
        let sys = ieee14::system();
        let mut cfg = sys.measurements.clone();
        // Take only the first three measurements.
        for m in 0..cfg.len() {
            cfg.set_taken(MeasurementId(m), m < 3);
        }
        assert_eq!(
            WlsEstimator::new(&sys.grid, &sys.topology, &cfg, sys.reference_bus, None)
                .unwrap_err(),
            UnobservableError
        );
    }

    #[test]
    fn non_finite_weight_is_rejected() {
        // A NaN or infinite weight makes a gain pivot non-finite, which
        // both factorizations must refuse rather than hand back NaN angles.
        let sys = ieee14::system();
        for bad in [f64::NAN, f64::INFINITY] {
            let mut w = vec![1.0; 44];
            w[5] = bad;
            for build in [WlsEstimator::new, WlsEstimator::new_dense] {
                let est = build(
                    &sys.grid,
                    &sys.topology,
                    &sys.measurements,
                    sys.reference_bus,
                    Some(w.clone()),
                );
                assert_eq!(est.unwrap_err(), UnobservableError, "{bad}");
            }
        }
    }

    #[test]
    fn weights_affect_fit() {
        let (_sys, est, z) = noiseless_setup();
        let mut noisy = z.clone();
        noisy[0] += 0.5;
        let base = est.estimate(&noisy).unwrap();
        // Rebuild with a huge weight on row 0: the fit chases z[0] harder.
        let sys = ieee14::system();
        let mut w = vec![1.0; est.num_measurements()];
        w[0] = 1e6;
        let heavy = WlsEstimator::new(
            &sys.grid,
            &sys.topology,
            &sys.measurements,
            sys.reference_bus,
            Some(w),
        )
        .unwrap();
        let chased = heavy.estimate(&noisy).unwrap();
        assert!(chased.residual[0].abs() < base.residual[0].abs());
    }

    #[test]
    fn works_on_synthetic_300_bus() {
        let sys = synthetic::ieee_case(300);
        let est = WlsEstimator::for_system(&sys).unwrap();
        let injections = dcflow::synthetic_injections(300, 5);
        let op =
            dcflow::solve(&sys.grid, &sys.topology, &injections, sys.reference_bus)
                .unwrap();
        let z = est.measure(&op);
        let result = est.estimate(&z).unwrap();
        assert!(result.residual_norm < 1e-6);
    }

    #[test]
    fn sparse_and_dense_pipelines_agree() {
        let sys = ieee14::system();
        let mut w = vec![1.0; 44];
        for (i, wi) in w.iter_mut().enumerate() {
            *wi = 1.0 + 0.1 * (i % 7) as f64;
        }
        let sparse = WlsEstimator::new(
            &sys.grid,
            &sys.topology,
            &sys.measurements,
            sys.reference_bus,
            Some(w.clone()),
        )
        .unwrap();
        let dense = WlsEstimator::new_dense(
            &sys.grid,
            &sys.topology,
            &sys.measurements,
            sys.reference_bus,
            Some(w),
        )
        .unwrap();
        let injections = dcflow::synthetic_injections(14, 3);
        let op =
            dcflow::solve(&sys.grid, &sys.topology, &injections, sys.reference_bus)
                .unwrap();
        let mut z = sparse.measure(&op);
        for i in 0..z.len() {
            z[i] += 0.002 * ((i as f64 * 1.3).cos());
        }
        let rs = sparse.estimate(&z).unwrap();
        let rd = dense.estimate(&z).unwrap();
        for j in 0..14 {
            assert!((rs.theta[j] - rd.theta[j]).abs() < 1e-9, "bus {j}");
        }
        assert!((rs.weighted_sse - rd.weighted_sse).abs() < 1e-9);
        // The accessors describe the same Jacobian.
        for i in 0..sparse.num_measurements() {
            for k in 0..sparse.num_states() {
                assert_eq!(
                    sparse.jacobian_sparse().get(i, k),
                    sparse.jacobian()[(i, k)]
                );
            }
        }
    }

    #[test]
    fn dense_oracle_rejects_unobservable_too() {
        let sys = ieee14::system();
        let mut cfg = sys.measurements.clone();
        for m in 0..cfg.len() {
            cfg.set_taken(MeasurementId(m), m < 3);
        }
        assert_eq!(
            WlsEstimator::new_dense(&sys.grid, &sys.topology, &cfg, sys.reference_bus, None)
                .unwrap_err(),
            UnobservableError
        );
    }

    #[test]
    fn detection_threshold_matches_chi2() {
        let (_sys, est, _z) = noiseless_setup();
        let tau = est.detection_threshold(0.05);
        assert!((chi2::chi2_cdf(31, tau) - 0.95).abs() < 1e-9);
    }
}
