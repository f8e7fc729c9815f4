//! DC power flow, WLS state estimation, bad-data detection, and
//! observability analysis — the EMS stack the paper's attacks target.
//!
//! * [`dcflow`] — `B·θ = P` operating points (paper §II-A);
//! * [`WlsEstimator`] — `x̂ = (HᵀWH)⁻¹HᵀWz` with reference-bus
//!   elimination (paper Eq. 1);
//! * [`BadDataDetector`] — chi-square residual test and
//!   largest-normalized-residual identification (paper §II-B);
//! * [`observability`] — the observability test on flow islands,
//!   critical measurements, basic-measurement-set extraction (the Bobba
//!   et al. baseline's core object) and the dense rank oracle;
//! * [`chi2`] — the distribution routines behind the detection threshold.
//!
//! # Examples
//!
//! End-to-end: flow → measure → estimate → detect.
//!
//! ```
//! use sta_estimator::{dcflow, BadDataDetector, WlsEstimator};
//! use sta_grid::ieee14;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sys = ieee14::system();
//! let estimator = WlsEstimator::for_system(&sys)?;
//! let op = dcflow::solve(
//!     &sys.grid,
//!     &sys.topology,
//!     &dcflow::synthetic_injections(14, 1),
//!     sys.reference_bus,
//! )?;
//! let z = estimator.measure(&op);
//! let estimate = estimator.estimate(&z)?;
//! let verdict = BadDataDetector::new(0.05).detect(&estimator, &estimate);
//! assert!(!verdict.is_bad());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod bdd;
pub mod chi2;
pub mod dcflow;
pub mod noise;
pub mod observability;
pub mod topology_detect;
pub mod wls;

pub use bdd::{BadDataDetector, IdentificationError, Verdict};
pub use topology_detect::{TopologyDetector, TopologySuspicion};
pub use dcflow::{OperatingPoint, PowerFlowError};
pub use wls::{StateEstimate, UnobservableError, WlsEstimator};

#[cfg(test)]
mod randomized {
    use super::*;
    use sta_grid::synthetic;
    use sta_linalg::rng::Pcg32;
    use sta_linalg::Vector;

    /// On any synthetic grid, a noiseless measurement of a power-flow
    /// solution estimates back to (numerically) zero residual.
    #[test]
    fn noiseless_roundtrip() {
        for seed in 0..24u64 {
            let grid = synthetic::generate(12, 17, seed).unwrap();
            let sys = sta_grid::TestSystem::fully_metered("p", grid);
            let est = WlsEstimator::for_system(&sys).unwrap();
            let op = dcflow::solve(
                &sys.grid,
                &sys.topology,
                &dcflow::synthetic_injections(12, seed),
                sys.reference_bus,
            )
            .unwrap();
            let z = est.measure(&op);
            let result = est.estimate(&z).unwrap();
            assert!(result.residual_norm < 1e-7);
        }
    }

    /// Injecting a = H·c never changes the residual norm (the UFDI
    /// invariant), for arbitrary state perturbations c.
    #[test]
    fn ufdi_invariant() {
        let mut rng = Pcg32::new(0xe511);
        for _ in 0..24 {
            let seed = rng.next_u64() % 30;
            let bump = rng.uniform_f64(-2.0, 2.0);
            let idx = rng.below(11);
            let grid = synthetic::generate(12, 17, seed).unwrap();
            let sys = sta_grid::TestSystem::fully_metered("p", grid);
            let est = WlsEstimator::for_system(&sys).unwrap();
            let op = dcflow::solve(
                &sys.grid,
                &sys.topology,
                &dcflow::synthetic_injections(12, seed),
                sys.reference_bus,
            )
            .unwrap();
            let z = est.measure(&op);
            let base = est.estimate(&z).unwrap();
            let mut c = Vector::zeros(est.num_states());
            c[idx % est.num_states()] = bump;
            let a = est.jacobian().mul_vec(&c);
            let result = est.estimate(&(&z + &a)).unwrap();
            assert!((result.residual_norm - base.residual_norm).abs() < 1e-7);
        }
    }

    /// A single gross error on a redundant (non-critical) measurement
    /// raises the weighted SSE.
    #[test]
    fn gross_error_raises_sse() {
        let mut rng = Pcg32::new(0xe512);
        for _ in 0..20 {
            let seed = rng.next_u64() % 20;
            let row = rng.below(40);
            let grid = synthetic::generate(12, 17, seed).unwrap();
            let sys = sta_grid::TestSystem::fully_metered("p", grid);
            let est = WlsEstimator::for_system(&sys).unwrap();
            let op = dcflow::solve(
                &sys.grid,
                &sys.topology,
                &dcflow::synthetic_injections(12, seed),
                sys.reference_bus,
            )
            .unwrap();
            let mut z = est.measure(&op);
            let r = row % z.len();
            z[r] += 10.0;
            let result = est.estimate(&z).unwrap();
            // With full metering every measurement is redundant, so the
            // error must show up.
            assert!(result.weighted_sse > 1.0);
        }
    }
}
