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

/// Resource usage of one [`crate::Solver::check`] call.
#[derive(Debug, Default, Clone)]
pub struct SolverStats {
    /// Problem-level Boolean variables declared.
    pub bool_vars: usize,
    /// Problem-level real variables declared.
    pub real_vars: usize,
    /// Formulas asserted (after push/pop trimming).
    pub assertions: usize,
    /// SAT variables after Tseitin encoding.
    pub sat_vars: usize,
    /// CNF clauses pushed by the encoder.
    pub clauses: u64,
    /// Total literal occurrences over all pushed clauses.
    pub clause_lits: u64,
    /// Distinct arithmetic atoms.
    pub atoms: usize,
    /// Simplex solver variables (problem + slack).
    pub simplex_vars: usize,
    /// Simplex tableau rows.
    pub simplex_rows: usize,
    /// Nonzero tableau entries at the end of solving.
    pub tableau_entries: usize,
    /// Simplex pivot operations.
    pub pivots: u64,
    /// Basis refactorizations performed by the revised simplex engine
    /// (zero on the dense engine). Observational, like wall clocks: the
    /// refactorization schedule is an engine implementation detail, so
    /// this never enters the deterministic phase counters.
    pub refactorizations: u64,
    /// SAT decisions.
    pub decisions: u64,
    /// SAT propagations.
    pub propagations: u64,
    /// Conflicts (Boolean + theory).
    pub conflicts: u64,
    /// Theory conflicts.
    pub theory_conflicts: u64,
    /// Restarts.
    pub restarts: u64,
    /// Learned clauses retained.
    pub learned_clauses: u64,
    /// Clause-database size (original + learned) at end of search.
    pub clause_db: u64,
    /// Theory bound assertions fed to the simplex.
    pub bound_asserts: u64,
    /// Full simplex consistency checks.
    pub theory_checks: u64,
    /// Learned clauses carried into this check from earlier checks on the
    /// same persistent core (zero on the clone-per-check path).
    pub retained_clauses: u64,
    /// Clauses hard-deleted this check by activation-literal retirement
    /// (zero on the clone-per-check path).
    pub deleted_clauses: u64,
    /// Simplex pivots whose work the warm-started basis already embodied
    /// at check entry (zero on the clone-per-check path, which rebuilds
    /// the tableau from scratch).
    pub warm_pivots_saved: u64,
    /// Whether this check reused an already-encoded core: the template
    /// behind `Solver::check` or the persistent core behind
    /// `Solver::check_assuming`.
    pub base_cache_hit: bool,
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
    /// Wall-clock time spent encoding (base extension + per-check delta).
    pub encode_time: Duration,
    /// Wall-clock time spent in the DPLL(T) search.
    pub search_time: Duration,
    /// Sampled progress timeline of the search; empty unless sampling
    /// was enabled (see [`crate::Solver::set_progress_sampling`]).
    pub progress: Vec<ProgressSample>,
}

impl SolverStats {
    /// Estimated resident bytes of the solver state.
    ///
    /// Dominant terms: clause literal arrays (4 B/lit plus ~32 B/clause
    /// header), two watch lists per variable, per-variable SAT metadata
    /// (~26 B), tableau entries (BTreeMap node ≈ 96 B for a key plus a
    /// big-rational pair), per-simplex-variable assignment and bound slots
    /// (three delta-rationals ≈ 240 B), and atom map entries (~96 B).
    pub fn estimated_bytes(&self) -> u64 {
        let clause_bytes = self.clause_lits * 4 + self.clauses * 32;
        let sat_var_bytes = self.sat_vars as u64 * (26 + 2 * 24);
        let tableau_bytes = self.tableau_entries as u64 * 96;
        let simplex_var_bytes = self.simplex_vars as u64 * 240;
        let atom_bytes = self.atoms as u64 * 96;
        let learned_bytes = self.learned_clauses * 64;
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

    /// The deterministic per-phase counters of this check (the observability
    /// layer's unit of aggregation — see [`crate::trace`]).
    pub fn phase_metrics(&self) -> PhaseMetrics {
        PhaseMetrics {
            clauses: self.clauses,
            clause_lits: self.clause_lits,
            sat_vars: self.sat_vars as u64,
            atoms: self.atoms as u64,
            decisions: self.decisions,
            propagations: self.propagations,
            conflicts: self.conflicts,
            theory_conflicts: self.theory_conflicts,
            restarts: self.restarts,
            learned_clauses: self.learned_clauses,
            clause_db: self.clause_db,
            retained_clauses: self.retained_clauses,
            deleted_clauses: self.deleted_clauses,
            pivots: self.pivots,
            bound_asserts: self.bound_asserts,
            theory_checks: self.theory_checks,
            warm_pivots_saved: self.warm_pivots_saved,
        }
    }

    /// The observational side of the phase breakdown — wall clocks and
    /// base-cache behavior — kept apart from
    /// [`SolverStats::phase_metrics`] so deterministic aggregation stays
    /// byte-identical across worker counts (cache reuse depends on which
    /// worker ran which job).
    pub fn phase_timings(&self) -> PhaseTimings {
        PhaseTimings {
            encode: self.encode_time,
            search: self.search_time,
            cache_hits: u64::from(self.base_cache_hit),
            cache_misses: u64::from(!self.base_cache_hit),
            refactorizations: self.refactorizations,
        }
    }
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vars: {}b/{}r sat-vars: {} clauses: {} atoms: {} rows: {} \
             decisions: {} conflicts: {} (theory {}) pivots: {} mem: {:.2} MB \
             time: {:?}",
            self.bool_vars,
            self.real_vars,
            self.sat_vars,
            self.clauses,
            self.atoms,
            self.simplex_rows,
            self.decisions,
            self.conflicts,
            self.theory_conflicts,
            self.pivots,
            self.estimated_mb(),
            self.solve_time,
        )?;
        if self.refactorizations > 0 {
            write!(f, " refactors: {}", self.refactorizations)?;
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
        big.clauses = 1000;
        big.clause_lits = 4000;
        big.sat_vars = 500;
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
    fn phase_metrics_carry_counters_but_never_wall_clock() {
        let mut s = SolverStats::default();
        s.clauses = 9;
        s.decisions = 4;
        s.pivots = 2;
        s.bound_asserts = 11;
        s.theory_checks = 3;
        s.base_cache_hit = true;
        s.encode_time = Duration::from_millis(5);
        s.search_time = Duration::from_millis(7);
        let m = s.phase_metrics();
        assert_eq!(m.clauses, 9);
        assert_eq!(m.decisions, 4);
        assert_eq!(m.pivots, 2);
        assert_eq!(m.bound_asserts, 11);
        assert_eq!(m.theory_checks, 3);
        // Wall clock and cache behavior live only in the timings struct.
        assert!(!m.to_json().contains("_ms"));
        assert!(!m.to_json().contains("cache"));
        let t = s.phase_timings();
        assert_eq!(t.encode, Duration::from_millis(5));
        assert_eq!(t.search, Duration::from_millis(7));
        assert_eq!((t.cache_hits, t.cache_misses), (1, 0));
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
