//! Bad data detection and identification.
//!
//! Detection is the chi-square test on the weighted residual SSE (paper
//! §II-B); identification is the classical largest-normalized-residual
//! (LNR) method: normalize each residual by the square root of its
//! diagonal entry in the residual covariance `Ω = S·R` with sensitivity
//! `S = I − H·G⁻¹·Hᵀ·W`, and flag the largest.

use crate::chi2;
use crate::wls::{StateEstimate, WlsEstimator};
use sta_linalg::{CholeskyError, Vector};
use std::fmt;

/// Error from LNR identification: the residual covariance could not be
/// formed. This is a *numerical* failure — distinct from the ordinary
/// "no measurement normalizes above the cutoff" outcome, which
/// [`BadDataDetector::identify`] reports as `Ok(None)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdentificationError {
    /// `G = HᵀWH` was not positive definite: the estimator's configuration
    /// is (or has numerically become) unobservable, so residual
    /// covariances are undefined. Worth surfacing — it means the estimate
    /// being screened is itself suspect.
    CovarianceNotPositiveDefinite,
    /// A covariance solve failed on dimensions — an internal
    /// inconsistency in the estimator's cached matrices.
    CovarianceSolveFailed,
}

impl fmt::Display for IdentificationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdentificationError::CovarianceNotPositiveDefinite => f.write_str(
                "residual covariance is not positive definite (configuration unobservable)",
            ),
            IdentificationError::CovarianceSolveFailed => {
                f.write_str("residual covariance solve failed on dimensions")
            }
        }
    }
}

impl std::error::Error for IdentificationError {}

impl From<CholeskyError> for IdentificationError {
    fn from(e: CholeskyError) -> Self {
        match e {
            CholeskyError::NotPositiveDefinite => {
                IdentificationError::CovarianceNotPositiveDefinite
            }
            _ => IdentificationError::CovarianceSolveFailed,
        }
    }
}

/// Verdict of one detection pass.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Residuals are consistent with noise at the configured significance.
    Clean,
    /// Bad data detected; carries the offending statistic value.
    BadData {
        /// The weighted SSE that tripped the test.
        statistic: f64,
        /// The threshold it exceeded.
        threshold: f64,
    },
}

impl Verdict {
    /// Whether bad data was flagged.
    pub fn is_bad(&self) -> bool {
        matches!(self, Verdict::BadData { .. })
    }
}

/// A chi-square bad data detector at a fixed significance level.
///
/// # Examples
///
/// ```
/// use sta_estimator::{dcflow, BadDataDetector, WlsEstimator};
/// use sta_grid::ieee14;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = ieee14::system();
/// let est = WlsEstimator::for_system(&sys)?;
/// let op = dcflow::solve(
///     &sys.grid, &sys.topology,
///     &dcflow::synthetic_injections(14, 1), sys.reference_bus)?;
/// let mut z = est.measure(&op);
/// let detector = BadDataDetector::new(0.05);
/// assert!(!detector.detect(&est, &est.estimate(&z)?).is_bad());
/// z[3] += 50.0; // gross error
/// assert!(detector.detect(&est, &est.estimate(&z)?).is_bad());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BadDataDetector {
    /// False-alarm probability of the chi-square test.
    alpha: f64,
}

impl BadDataDetector {
    /// Creates a detector with false-alarm probability `alpha`.
    ///
    /// # Panics
    /// Panics unless `0 < alpha < 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha in (0, 1)");
        BadDataDetector { alpha }
    }

    /// The significance level.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Chi-square test on a state estimate. With no redundancy (as many
    /// taken measurements as states, e.g. a basic measurement set) the
    /// residual is identically zero, so the statistic is 0 and no
    /// threshold exists for it to exceed: the verdict is `Clean`.
    pub fn detect(&self, est: &WlsEstimator, result: &StateEstimate) -> Verdict {
        if est.num_measurements() <= est.num_states() {
            return Verdict::Clean;
        }
        let threshold = est.detection_threshold(self.alpha);
        if result.weighted_sse > threshold {
            Verdict::BadData { statistic: result.weighted_sse, threshold }
        } else {
            Verdict::Clean
        }
    }

    /// `l2`-norm variant of the test (the form quoted in the paper's
    /// §II-B): flags when `‖z − H·x̂‖ > τ` with `τ` the square root of the
    /// chi-square threshold (valid for unit weights).
    pub fn detect_by_norm(&self, _est: &WlsEstimator, result: &StateEstimate) -> Verdict {
        let dof = result.degrees_of_freedom.max(1);
        let tau = chi2::chi2_quantile(dof, 1.0 - self.alpha).sqrt();
        if result.residual_norm > tau {
            Verdict::BadData {
                statistic: result.residual_norm,
                threshold: tau,
            }
        } else {
            Verdict::Clean
        }
    }

    /// Largest-normalized-residual identification: the taken-row index of
    /// the most suspicious measurement and its normalized residual.
    /// `Ok(None)` means every residual normalizes below 3.0 (the
    /// conventional identification cutoff) or sits on a critical
    /// measurement (vanishing covariance diagonal) — i.e. nothing to
    /// identify.
    ///
    /// # Errors
    /// Returns [`IdentificationError`] when the residual covariance
    /// cannot be formed — a numerical failure that earlier versions
    /// silently folded into `None`.
    pub fn identify(
        &self,
        est: &WlsEstimator,
        result: &StateEstimate,
    ) -> Result<Option<(usize, f64)>, IdentificationError> {
        let omega = residual_covariance_diag(est)?;
        let weights = est.weights();
        let mut best: Option<(usize, f64)> = None;
        for (i, r) in result.residual.iter().enumerate() {
            let var = omega[i];
            if is_critical(weights[i], var) {
                continue;
            }
            let rn = r.abs() / var.sqrt();
            if best.map_or(true, |(_, b)| rn > b) {
                best = Some((i, rn));
            }
        }
        Ok(best.filter(|&(_, rn)| rn > 3.0))
    }
}

/// Whether a meter of weight `weight` whose residual variance is
/// `variance` (its `Ω_ii`) is *critical*: its residual is always ~0, so
/// bad data on it cannot be seen and removing it loses observability.
/// Relative to the meter's own variance, so the test is independent of
/// scale. The crate's one definition of criticality, shared by LNR
/// identification and [`crate::observability::critical_measurements`].
pub(crate) fn is_critical(weight: f64, variance: f64) -> bool {
    weight * variance <= 1e-10
}

/// Diagonal of the residual covariance `Ω = S·R = R − H·G⁻¹·Hᵀ`, with
/// `R = W⁻¹` the meters' error variances and `G = HᵀWH` the estimator's
/// gain. Each entry `Ω_ii = 1/wᵢ − hᵢ·G⁻¹·hᵢᵀ` needs one solve against the
/// estimator's cached gain factor with a (≤ `deg+1`)-nonzero right-hand
/// side, which reuses one buffer across rows.
pub(crate) fn residual_covariance_diag(est: &WlsEstimator) -> Result<Vector, IdentificationError> {
    let h = est.jacobian_sparse();
    let weights = est.weights();
    let mut rhs = Vector::zeros(h.num_cols());
    let mut diag = Vector::zeros(h.num_rows());
    for i in 0..h.num_rows() {
        let (cols, vals) = h.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            rhs[j] = v;
        }
        let sol = est.solve_gain(&rhs)?;
        let mut k_ii = 0.0;
        for (&j, &v) in cols.iter().zip(vals) {
            k_ii += v * sol[j];
            rhs[j] = 0.0;
        }
        diag[i] = (1.0 / weights[i] - k_ii).max(0.0);
    }
    Ok(diag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcflow;
    use crate::wls::WlsEstimator;
    use sta_grid::{ieee14, MeasurementId};
    use sta_linalg::Vector;

    fn setup() -> (WlsEstimator, Vector) {
        let sys = ieee14::system();
        let est = WlsEstimator::for_system(&sys).unwrap();
        let op = dcflow::solve(
            &sys.grid,
            &sys.topology,
            &dcflow::synthetic_injections(14, 2),
            sys.reference_bus,
        )
        .unwrap();
        let z = est.measure(&op);
        (est, z)
    }

    #[test]
    fn clean_data_passes() {
        let (est, z) = setup();
        let det = BadDataDetector::new(0.05);
        let result = est.estimate(&z).unwrap();
        assert_eq!(det.detect(&est, &result), Verdict::Clean);
        assert_eq!(det.detect_by_norm(&est, &result), Verdict::Clean);
    }

    #[test]
    fn gross_error_detected_and_identified() {
        // LNR correctly fingers a single gross error on any measurement
        // with enough local redundancy; at least half the meters qualify.
        let (est, z) = setup();
        let det = BadDataDetector::new(0.05);
        // For a single error e with unit weights the χ² statistic is
        // exactly rn², so detection needs rn above √threshold.
        let detect_rn = est.detection_threshold(0.05).sqrt();
        let mut identified = 0usize;
        for row in 0..est.num_measurements() {
            let mut zz = z.clone();
            zz[row] += 20.0;
            let result = est.estimate(&zz).unwrap();
            if let Some((idx, rn)) = det.identify(&est, &result).unwrap() {
                assert_eq!(idx, row, "LNR must point at the corrupted meter");
                assert!(rn > 3.0);
                if rn > detect_rn * 1.01 {
                    assert!(det.detect(&est, &result).is_bad());
                }
                identified += 1;
            }
        }
        assert!(
            identified * 2 >= est.num_measurements(),
            "only {identified} of {} identified",
            est.num_measurements()
        );
    }

    #[test]
    fn stealthy_attack_evades_detection() {
        let (est, z) = setup();
        let det = BadDataDetector::new(0.05);
        // a = H·c with a large state change is invisible.
        let mut c = Vector::zeros(est.num_states());
        c[3] = 1.0;
        c[7] = -0.5;
        let a = est.jacobian().mul_vec(&c);
        let attacked = &z + &a;
        let result = est.estimate(&attacked).unwrap();
        assert_eq!(det.detect(&est, &result), Verdict::Clean);
        assert!(det.identify(&est, &result).unwrap().is_none());
    }

    #[test]
    fn small_noise_not_flagged() {
        let (est, mut z) = setup();
        let det = BadDataDetector::new(0.01);
        for i in 0..z.len() {
            z[i] += 1e-4 * ((i * 31 % 7) as f64 - 3.0);
        }
        let result = est.estimate(&z).unwrap();
        assert_eq!(det.detect(&est, &result), Verdict::Clean);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_panics() {
        let _ = BadDataDetector::new(1.5);
    }

    #[test]
    fn basic_measurement_set_is_clean_at_zero_degrees_of_freedom() {
        // Bobba et al.'s configuration: 13 meters over 13 states. The
        // estimate fits even a gross error exactly, so the statistic is 0
        // and detection is `Clean` (it used to panic for want of a
        // χ² threshold with zero degrees of freedom).
        let sys = ieee14::system();
        let basic = crate::observability::basic_measurement_set(
            &sys.grid,
            &sys.topology,
            &sys.measurements,
            sys.reference_bus,
        )
        .unwrap();
        let mut cfg = sys.measurements.clone();
        for m in 0..cfg.len() {
            cfg.set_taken(MeasurementId(m), basic.contains(&MeasurementId(m)));
        }
        let est =
            WlsEstimator::new(&sys.grid, &sys.topology, &cfg, sys.reference_bus, None).unwrap();
        assert_eq!((est.num_measurements(), est.num_states()), (13, 13));
        let op = dcflow::solve(
            &sys.grid,
            &sys.topology,
            &dcflow::synthetic_injections(14, 2),
            sys.reference_bus,
        )
        .unwrap();
        let mut z = est.measure(&op);
        z[4] += 50.0;
        let result = est.estimate(&z).unwrap();
        assert_eq!(result.degrees_of_freedom, 0);
        assert!(result.weighted_sse < 1e-9, "{}", result.weighted_sse);
        let verdict = BadDataDetector::new(0.05).detect(&est, &result);
        assert_eq!(verdict, Verdict::Clean);
    }

    #[test]
    fn numerical_failure_maps_to_a_distinguishing_error() {
        // The error taxonomy separates "covariance not PD" (lost
        // observability) from internal dimension inconsistencies — and
        // both from the Ok(None) no-identification outcome.
        assert_eq!(
            IdentificationError::from(CholeskyError::NotPositiveDefinite),
            IdentificationError::CovarianceNotPositiveDefinite
        );
        assert_eq!(
            IdentificationError::from(CholeskyError::DimensionMismatch {
                expected: 3,
                found: 4
            }),
            IdentificationError::CovarianceSolveFailed
        );
        assert_eq!(
            IdentificationError::from(CholeskyError::PatternMismatch),
            IdentificationError::CovarianceSolveFailed
        );
    }

    /// The residual-covariance diagonal `W⁻¹ − H·G⁻¹·Hᵀ` formed densely
    /// from the estimator's Jacobian and weights.
    fn dense_covariance_diag(est: &WlsEstimator) -> Vec<f64> {
        let h = est.jacobian();
        let w = est.weights();
        let gain = h.transpose().scale_cols(w).mul_mat(h);
        let gain_lu = sta_linalg::Lu::factor(&gain).unwrap();
        (0..h.num_rows())
            .map(|i| {
                let hi: Vector = (0..h.num_cols()).map(|j| h[(i, j)]).collect();
                let x = gain_lu.solve(&hi).unwrap();
                1.0 / w[i] - hi.dot(&x)
            })
            .collect()
    }

    #[test]
    fn weighted_covariance_matches_the_dense_oracle() {
        let sys = ieee14::system();
        let weights: Vec<f64> = (0..44).map(|i| 1.0 + 0.5 * (i % 6) as f64).collect();
        for build in [WlsEstimator::new, WlsEstimator::new_dense] {
            let est = build(
                &sys.grid,
                &sys.topology,
                &sys.measurements,
                sys.reference_bus,
                Some(weights.clone()),
            )
            .unwrap();
            let oracle = dense_covariance_diag(&est);
            let omega = residual_covariance_diag(&est).unwrap();
            for (i, &o) in oracle.iter().enumerate() {
                assert!(
                    (omega[i] - o.max(0.0)).abs() < 1e-12,
                    "row {i}: {} vs {o}",
                    omega[i]
                );
            }
        }
    }

    #[test]
    fn twenty_sigma_error_is_identified_under_meter_weights() {
        // Meters with standard deviation σ (weight 1/σ²): a 20σ error on
        // one meter is both detected and identified, at any σ. Normalizing
        // by the unit-weight covariance instead leaves it at 20σ·√Ω_ii < 3
        // and finds nothing; testing criticality on the unscaled variance
        // would call every meter critical at σ = 1e-6.
        let sys = ieee14::system();
        let op = dcflow::solve(
            &sys.grid,
            &sys.topology,
            &dcflow::synthetic_injections(14, 2),
            sys.reference_bus,
        )
        .unwrap();
        let det = BadDataDetector::new(0.05);
        for sigma in [0.01, 1e-6] {
            let weights = vec![1.0 / (sigma * sigma); sys.measurements.num_taken()];
            let est = WlsEstimator::new(
                &sys.grid,
                &sys.topology,
                &sys.measurements,
                sys.reference_bus,
                Some(weights),
            )
            .unwrap();
            let mut z = est.measure(&op);
            let row = 3;
            z[row] += 20.0 * sigma;
            let result = est.estimate(&z).unwrap();
            assert!(det.detect(&est, &result).is_bad(), "σ = {sigma}");
            let (idx, rn) = det.identify(&est, &result).unwrap().expect("identified");
            assert_eq!(idx, row, "σ = {sigma}");
            assert!(rn > 3.0, "σ = {sigma}");
        }
    }

    #[test]
    fn healthy_estimator_identification_is_ok() {
        let (est, z) = setup();
        let det = BadDataDetector::new(0.05);
        let result = est.estimate(&z).unwrap();
        // Clean data: no error, nothing identified.
        assert_eq!(det.identify(&est, &result), Ok(None));
    }
}
