//! Solver resource statistics.
//!
//! The paper's Table IV reports the SMT solver's memory footprint per IEEE
//! test system. Z3 exposes that through its own telemetry; our substitute is
//! an explicit accounting of the dominant allocations: SAT clauses and
//! watches, the simplex tableau and bound arrays, and the atom maps. The
//! estimate is deliberately conservative (it under-counts allocator slack)
//! but scales exactly with problem structure, which is what the table is
//! meant to demonstrate.

use crate::trace::{PhaseMetrics, PhaseTimings};
use std::fmt;
use std::time::Duration;

/// One point of a sampled solver progress timeline: cumulative search
/// counters captured at a decision boundary `at` into the search. A
/// sequence of these gives conflict/restart/pivot *rates* over time —
/// the "is this long solve converging or thrashing" view. Samples carry
/// wall-clock offsets, so (like all timings) they are observational:
/// emitted in trace files, never in timing-stripped reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressSample {
    /// Offset from the start of the search.
    pub at: Duration,
    /// Cumulative SAT decisions.
    pub decisions: u64,
    /// Cumulative conflicts (Boolean + theory).
    pub conflicts: u64,
    /// Cumulative restarts.
    pub restarts: u64,
    /// Cumulative BCP propagations.
    pub propagations: u64,
    /// Cumulative simplex pivots.
    pub pivots: u64,
}

impl ProgressSample {
    /// The counter pairs in `TraceEvent::Progress` serialization order.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("decisions", self.decisions),
            ("conflicts", self.conflicts),
            ("restarts", self.restarts),
            ("propagations", self.propagations),
            ("pivots", self.pivots),
        ]
    }
}

/// Resource usage of one [`crate::Solver::check`] call: the check's
/// per-phase [`PhaseMetrics`] and [`PhaseTimings`], plus what those two
/// do not carry — problem and tableau sizes, certification and lint
/// results, the whole check's wall clock and its progress timeline.
#[derive(Debug, Default, Clone)]
pub struct SolverStats {
    /// Deterministic per-phase counters of this check.
    pub metrics: PhaseMetrics,
    /// Observational per-phase data of this check: encode and search
    /// walls, one base-cache hit or miss (a hit when the check reused an
    /// already-encoded core: the template behind `Solver::check` or the
    /// persistent core behind `Solver::check_assuming`), and the revised
    /// engine's refactorizations.
    pub timings: PhaseTimings,
    /// Problem-level Boolean variables declared.
    pub bool_vars: usize,
    /// Problem-level real variables declared.
    pub real_vars: usize,
    /// Formulas asserted (after push/pop trimming).
    pub assertions: usize,
    /// Simplex solver variables (problem + slack).
    pub simplex_vars: usize,
    /// Simplex tableau rows.
    pub simplex_rows: usize,
    /// Nonzero tableau entries at the end of solving.
    pub tableau_entries: usize,
    /// Derivation steps in the logged proof (learned clauses plus theory
    /// lemmas); zero unless proof logging was enabled by certification.
    pub proof_steps: u64,
    /// Whether this check's answer was certified (model re-evaluation or
    /// proof replay, per the solver's [`crate::CertifyLevel`]).
    pub certified: bool,
    /// Lint findings at error severity.
    pub lint_errors: usize,
    /// Lint findings at warning severity.
    pub lint_warnings: usize,
    /// Lint findings at info severity.
    pub lint_infos: usize,
    /// Wall-clock time of the check.
    pub solve_time: Duration,
    /// Sampled progress timeline of the search; empty unless a profiler
    /// was attached (see [`crate::Solver::set_profiler`]).
    pub progress: Vec<ProgressSample>,
}

impl SolverStats {
    /// Estimated resident bytes of the solver state.
    ///
    /// A fixed model, not a measurement: 4 B per clause literal plus
    /// 32 B per clause, two 24-B watch lists and ~26 B of SAT metadata
    /// per variable, 96 B per tableau entry (a `BTreeMap` node holding a
    /// key and a big-rational pair), 240 B per simplex variable
    /// (assignment and bound slots, three delta-rationals), 96 B per
    /// atom map entry and 64 B per learned clause. The CDCL terms
    /// describe the per-clause, per-list storage the core had before its
    /// flat layout (DESIGN §18: one clause arena, one shared watch
    /// buffer), not that layout. They are kept unchanged so that
    /// Table IV's MB columns stay comparable across changes.
    pub fn estimated_bytes(&self) -> u64 {
        let m = &self.metrics;
        let clause_bytes = m.clause_lits * 4 + m.clauses * 32;
        let sat_var_bytes = m.sat_vars * (26 + 2 * 24);
        let tableau_bytes = self.tableau_entries as u64 * 96;
        let simplex_var_bytes = self.simplex_vars as u64 * 240;
        let atom_bytes = m.atoms * 96;
        let learned_bytes = m.learned_clauses * 64;
        clause_bytes
            + sat_var_bytes
            + tableau_bytes
            + simplex_var_bytes
            + atom_bytes
            + learned_bytes
    }

    /// Estimated memory in mebibytes (Table IV's unit).
    pub fn estimated_mb(&self) -> f64 {
        self.estimated_bytes() as f64 / (1024.0 * 1024.0)
    }
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = &self.metrics;
        write!(
            f,
            "vars: {}b/{}r sat-vars: {} clauses: {} atoms: {} rows: {} \
             decisions: {} conflicts: {} (theory {}) pivots: {} mem: {:.2} MB \
             time: {:?}",
            self.bool_vars,
            self.real_vars,
            m.sat_vars,
            m.clauses,
            m.atoms,
            self.simplex_rows,
            m.decisions,
            m.conflicts,
            m.theory_conflicts,
            m.pivots,
            self.estimated_mb(),
            self.solve_time,
        )?;
        if self.timings.refactorizations > 0 {
            write!(f, " refactors: {}", self.timings.refactorizations)?;
        }
        if self.certified {
            write!(f, " certified")?;
            if self.proof_steps > 0 {
                write!(f, " (proof: {} steps)", self.proof_steps)?;
            }
        }
        if self.lint_errors + self.lint_warnings + self.lint_infos > 0 {
            write!(
                f,
                " lint: {}E/{}W/{}I",
                self.lint_errors, self.lint_warnings, self.lint_infos
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_estimate_scales_with_contents() {
        let empty = SolverStats::default();
        let mut big = SolverStats::default();
        big.metrics.clauses = 1000;
        big.metrics.clause_lits = 4000;
        big.metrics.sat_vars = 500;
        big.tableau_entries = 2000;
        big.simplex_vars = 300;
        assert!(big.estimated_bytes() > empty.estimated_bytes());
        assert!(big.estimated_mb() > 0.0);
    }

    #[test]
    fn display_smoke() {
        let s = SolverStats::default();
        let text = s.to_string();
        assert!(text.contains("mem:"));
        assert!(!text.contains("certified"));
    }

    #[test]
    fn display_shows_certification_and_lint() {
        let mut s = SolverStats::default();
        s.certified = true;
        s.proof_steps = 7;
        s.lint_warnings = 2;
        let text = s.to_string();
        assert!(text.contains("certified (proof: 7 steps)"), "{text}");
        assert!(text.contains("lint: 0E/2W/0I"), "{text}");
    }
}
