//! Topology error detection.
//!
//! The paper's topology-poisoning analysis presumes the EMS runs
//! topology error detection ("since there are topology error detection
//! algorithms [4], it is important to examine if an adversary can
//! strengthen the potency of UFDI attacks by introducing topology
//! errors", §I) — so the attack must *coordinate* measurement injections
//! with the falsified statuses. This module implements the classical
//! checks such detectors use:
//!
//! 1. **Open-line flow check** — a meter on a mapped-open line must read
//!    (approximately) zero; a nonzero reading means the line is actually
//!    energized (a wrongly excluded line).
//! 2. **Residual concentration** — status errors produce gross model
//!    mismatch whose normalized residuals cluster on the meters incident
//!    to the offending line; if bad data is detected and one line's
//!    meters dominate the normalized residuals, that line's status is
//!    suspect.
//!
//! A *naive* topology falsification trips these checks; a coordinated
//! attack (paper Eqs. 11–13) adjusts every affected meter consistently
//! and sails through — exactly the behavior the test suite pins down.

use crate::bdd::BadDataDetector;
use crate::wls::WlsEstimator;
use sta_grid::{Grid, LineId, MeasurementConfig, Topology};
use sta_linalg::Vector;
use std::fmt;

/// What the detector concluded about one line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologySuspicion {
    /// A mapped-open line whose meter reads nonzero — it is probably
    /// energized (wrong exclusion). Carries the offending reading.
    EnergizedOpenLine(LineId, f64),
    /// A line whose incident meters dominate an abnormal residual — its
    /// status (or parameters) are probably wrong. Carries the share of
    /// the residual mass its neighborhood holds.
    InconsistentLine(LineId, f64),
}

impl TopologySuspicion {
    /// The suspected line.
    pub fn line(&self) -> LineId {
        match *self {
            TopologySuspicion::EnergizedOpenLine(l, _) => l,
            TopologySuspicion::InconsistentLine(l, _) => l,
        }
    }
}

impl fmt::Display for TopologySuspicion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologySuspicion::EnergizedOpenLine(l, v) => {
                write!(f, "line {} mapped open but metering {v:+.4} pu", l.0 + 1)
            }
            TopologySuspicion::InconsistentLine(l, s) => {
                write!(f, "line {} residual concentration {s:.2}", l.0 + 1)
            }
        }
    }
}

/// A topology error detector.
#[derive(Debug, Clone, Copy)]
pub struct TopologyDetector {
    /// Significance of the underlying chi-square bad data test.
    pub alpha: f64,
    /// Flow magnitude (pu) above which a mapped-open line's meter counts
    /// as energized.
    pub flow_tolerance: f64,
    /// Fraction of the total residual mass one line's neighborhood must
    /// hold to be declared inconsistent. Identification is
    /// neighborhood-accurate, not always line-exact: a wrong status
    /// smears residuals over the adjacent lines too.
    pub concentration_threshold: f64,
    /// Assumed meter standard deviation (pu). The chi-square statistic is
    /// weighted by `1/σ²`; with unit weights a ~1 pu topology mismatch
    /// would drown in the implied 1 pu "noise", so realistic SCADA
    /// precision matters here.
    pub meter_sigma: f64,
}

impl Default for TopologyDetector {
    fn default() -> Self {
        TopologyDetector {
            alpha: 0.05,
            flow_tolerance: 1e-3,
            concentration_threshold: 0.3,
            meter_sigma: 0.02,
        }
    }
}

impl TopologyDetector {
    /// Creates a detector with default thresholds at significance
    /// `alpha`.
    ///
    /// # Panics
    /// Panics unless `0 < alpha < 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha in (0, 1)");
        TopologyDetector { alpha, ..TopologyDetector::default() }
    }

    /// Inspects a measurement snapshot `z` (in taken order for the given
    /// configuration) against the mapped topology.
    ///
    /// Returns every suspicion raised; an empty vector means the snapshot
    /// is topologically consistent.
    ///
    /// # Errors
    /// Returns [`crate::UnobservableError`] if the mapped topology cannot
    /// support an estimate.
    pub fn inspect(
        &self,
        grid: &Grid,
        mapped: &Topology,
        measurements: &MeasurementConfig,
        reference: sta_grid::BusId,
        z: &Vector,
    ) -> Result<Vec<TopologySuspicion>, crate::UnobservableError> {
        let mut suspicions = Vec::new();
        let l = grid.num_lines();

        let weight = 1.0 / (self.meter_sigma * self.meter_sigma);
        let num_taken = measurements.num_taken();
        let estimator = WlsEstimator::new(
            grid,
            mapped,
            measurements,
            reference,
            Some(vec![weight; num_taken]),
        )?;

        // Check 1: meters of mapped-open lines must read ~0.
        for (row, &m) in estimator.taken_rows().iter().enumerate() {
            let line = if m < l {
                Some(LineId(m))
            } else if m < 2 * l {
                Some(LineId(m - l))
            } else {
                None
            };
            if let Some(line) = line {
                if !mapped.is_in_service(line) && z[row].abs() > self.flow_tolerance {
                    // Report each line once (prefer the forward meter).
                    if !suspicions
                        .iter()
                        .any(|s: &TopologySuspicion| s.line() == line)
                    {
                        suspicions
                            .push(TopologySuspicion::EnergizedOpenLine(line, z[row]));
                    }
                }
            }
        }

        // Check 2: residual concentration on a closed line's meters.
        let estimate = estimator.estimate(z)?;
        let detector = BadDataDetector::new(self.alpha);
        if detector.detect(&estimator, &estimate).is_bad() {
            let mut per_line = vec![0.0f64; l];
            let mut total = 0.0f64;
            for (row, &m) in estimator.taken_rows().iter().enumerate() {
                let r2 = estimate.residual[row] * estimate.residual[row];
                total += r2;
                // Attribute the squared residual to incident lines.
                if m < l {
                    per_line[m] += r2;
                } else if m < 2 * l {
                    per_line[m - l] += r2;
                } else {
                    let bus = sta_grid::BusId(m - 2 * l);
                    for (li, _) in grid.lines_at(bus) {
                        per_line[li.0] += r2;
                    }
                }
            }
            if total > 0.0 {
                let (best, score) = per_line
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, &s)| (i, s))
                    .unwrap_or((0, 0.0));
                if score / total >= self.concentration_threshold {
                    suspicions.push(TopologySuspicion::InconsistentLine(
                        LineId(best),
                        score / total,
                    ));
                }
            }
        }
        Ok(suspicions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcflow;
    use sta_grid::{ieee14, MeasurementId};

    fn snapshot() -> (sta_grid::TestSystem, dcflow::OperatingPoint, Vector) {
        let sys = ieee14::system();
        // Seed 3 puts a substantial flow (≈ 0.38 pu) on line 13, the line
        // the naive-exclusion tests falsify.
        let injections = dcflow::synthetic_injections(14, 3);
        let op = dcflow::solve(&sys.grid, &sys.topology, &injections, sys.reference_bus)
            .unwrap();
        let est = WlsEstimator::for_system(&sys).unwrap();
        let z = est.measure(&op);
        (sys, op, z)
    }

    #[test]
    fn consistent_snapshot_raises_nothing() {
        let (sys, _op, z) = snapshot();
        let det = TopologyDetector::default();
        let suspicions = det
            .inspect(&sys.grid, &sys.topology, &sys.measurements, sys.reference_bus, &z)
            .unwrap();
        assert!(suspicions.is_empty(), "{suspicions:?}");
    }

    #[test]
    fn naive_exclusion_is_caught_by_flow_check() {
        // The EMS maps line 13 open but the attacker does NOT zero its
        // meters: the energized-open-line check fires.
        let (sys, _op, z) = snapshot();
        let mapped = sys.topology.with_line_open(LineId(12));
        let det = TopologyDetector::default();
        let suspicions = det
            .inspect(&sys.grid, &mapped, &sys.measurements, sys.reference_bus, &z)
            .unwrap();
        assert!(
            suspicions
                .iter()
                .any(|s| matches!(s, TopologySuspicion::EnergizedOpenLine(l, _) if *l == LineId(12))),
            "{suspicions:?}"
        );
    }

    #[test]
    fn naive_exclusion_with_zeroed_meters_still_caught_by_residuals() {
        // The attacker zeroes the line's own meters but does not adjust
        // the incident injections: residual concentration fires on (a
        // neighborhood of) the excluded line.
        let (sys, _op, mut z) = snapshot();
        let mapped = sys.topology.with_line_open(LineId(12));
        let est = WlsEstimator::new(
            &sys.grid,
            &mapped,
            &sys.measurements,
            sys.reference_bus,
            None,
        )
        .unwrap();
        for m in [12usize, 32] {
            if let Some(row) = est.row_of(MeasurementId(m)) {
                z[row] = 0.0;
            }
        }
        let det = TopologyDetector::default();
        let suspicions = det
            .inspect(&sys.grid, &mapped, &sys.measurements, sys.reference_bus, &z)
            .unwrap();
        assert!(!suspicions.is_empty(), "half-coordinated exclusion undetected");
        // Identification is neighborhood-accurate: the suspected line
        // shares a bus with the actually-falsified line 13 (6–13).
        let falsified = sys.grid.line(LineId(12)).clone();
        let suspect = sys.grid.line(suspicions[0].line()).clone();
        assert!(
            suspect.touches(falsified.from) || suspect.touches(falsified.to),
            "suspicion {} not adjacent to line 13",
            suspicions[0]
        );
    }

    #[test]
    fn basic_measurement_set_raises_nothing() {
        // No redundancy (13 meters over 13 states): the estimate fits any
        // snapshot, so neither check can fire, gross error or not. This
        // used to panic in the χ² threshold.
        let (sys, _op, z) = snapshot();
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
        let full = WlsEstimator::for_system(&sys).unwrap();
        let mut basic_z: Vector = basic
            .iter()
            .map(|&id| z[full.row_of(id).unwrap()])
            .collect();
        basic_z[4] += 50.0;
        let suspicions = TopologyDetector::default()
            .inspect(&sys.grid, &sys.topology, &cfg, sys.reference_bus, &basic_z)
            .unwrap();
        assert!(suspicions.is_empty(), "{suspicions:?}");
    }

    #[test]
    fn display_formats() {
        let s = TopologySuspicion::EnergizedOpenLine(LineId(4), 1.25);
        assert!(s.to_string().contains("line 5"));
        let s = TopologySuspicion::InconsistentLine(LineId(0), 0.9);
        assert!(s.to_string().contains("line 1"));
        assert_eq!(s.line(), LineId(0));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_panics() {
        let _ = TopologyDetector::new(0.0);
    }
}
