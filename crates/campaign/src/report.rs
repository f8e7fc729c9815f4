//! Campaign results: deterministic aggregation, JSON and table rendering.
//!
//! A [`CampaignReport`] is ordered by job id regardless of how the worker
//! pool scheduled the jobs, and every nondeterministic quantity (wall
//! times, worker assignment) lives under a `timing` key. Serializing with
//! `to_json(false)` therefore yields byte-identical output for the same
//! spec at any worker count — the determinism contract the campaign tests
//! pin down.

use crate::histogram::LatencyHistogram;
use sta_core::attack::AttackVector;
use sta_estimator::PowerFlowError;
use sta_grid::BusId;
use sta_smt::json::{escape_into, f64_into};
use sta_smt::{merge_spans, Interrupt, PhaseMetrics, PhaseTimings, SolverStats, SpanNode};
use std::fmt;
use std::fmt::Write as _;
use std::time::Duration;

/// The conclusion of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Verification: the scenario admits an attack.
    Sat,
    /// Verification: no attack satisfies the scenario.
    Unsat,
    /// The job's budget ran out before a verdict.
    Unknown(Interrupt),
    /// Synthesis: an architecture was found.
    Architecture,
    /// Synthesis: the candidate space is exhausted.
    NoSolution,
    /// Synthesis: the iteration cap (or a timed-out check) stopped the
    /// loop early.
    Inconclusive,
    /// The job's case has no DC operating point to anchor the attack
    /// model on (an islanded grid): an input error, so nothing ran.
    NoOperatingPoint(PowerFlowError),
}

impl Verdict {
    /// Stable lowercase token used in JSON and exit-code mapping.
    pub fn token(&self) -> &'static str {
        match self {
            Verdict::Sat => "sat",
            Verdict::Unsat => "unsat",
            Verdict::Unknown(Interrupt::Timeout) => "unknown(timeout)",
            Verdict::Unknown(Interrupt::Cancelled) => "unknown(cancelled)",
            Verdict::Architecture => "architecture",
            Verdict::NoSolution => "no-solution",
            Verdict::Inconclusive => "inconclusive",
            Verdict::NoOperatingPoint(_) => "no-operating-point",
        }
    }

    /// Whether the job ran out of budget.
    pub fn is_unknown(&self) -> bool {
        matches!(self, Verdict::Unknown(_))
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// One job's outcome with its deterministic payload and its timing.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Job id (index in the spec's job list).
    pub id: usize,
    /// The job's label from the spec.
    pub label: String,
    /// The case name the job ran against.
    pub case: String,
    /// The conclusion.
    pub verdict: Verdict,
    /// Verification witness, when feasible.
    pub witness: Option<AttackVector>,
    /// Synthesized architecture, when found.
    pub architecture: Option<Vec<BusId>>,
    /// Synthesis round trips, for synthesis jobs.
    pub iterations: Option<usize>,
    /// Solver statistics (verification jobs; synthesis aggregates its own
    /// loop and reports none).
    pub stats: Option<SolverStats>,
    /// Deterministic per-phase counters of the job's solver work — for
    /// synthesis jobs the aggregate over the whole CEGIS loop. These roll
    /// up byte-identically at any worker count.
    pub metrics: Option<PhaseMetrics>,
    /// Per-phase wall clock (nondeterministic; `timing` key only).
    pub phase_wall: Option<PhaseTimings>,
    /// The job's span tree when the run profiled it (nondeterministic;
    /// trace stream and `--profile` rendering only, never report JSON).
    pub spans: Option<Vec<SpanNode>>,
    /// Wall-clock time of the job (nondeterministic; `timing` key only).
    pub wall: Duration,
    /// Worker that executed the job (nondeterministic; `timing` key only).
    pub worker: usize,
}

/// Deterministically aggregated results of one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The campaign name from the spec.
    pub name: String,
    /// Worker-pool size of this run (nondeterministic context; only
    /// serialized under `timing`).
    pub workers: usize,
    /// Total wall clock of the run.
    pub total_wall: Duration,
    /// Per-job results, sorted by job id.
    pub results: Vec<JobResult>,
}

/// Serializes an attack witness as the canonical report JSON object
/// (`alterations`/`compromised_buses`/`excluded_lines`/`included_lines`,
/// all ids 1-based). Shared by the campaign report and the service
/// layer's verify responses so both speak the same witness grammar.
pub fn witness_json(w: &AttackVector, out: &mut String) {
    out.push_str("{\"alterations\":[");
    for (i, a) in w.alterations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"measurement\":{},\"delta\":", a.measurement.0 + 1);
        f64_into(a.delta, out);
        out.push('}');
    }
    out.push_str("],\"compromised_buses\":[");
    for (i, b) in w.compromised_buses.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", b.0 + 1);
    }
    out.push_str("],\"excluded_lines\":[");
    for (i, l) in w.excluded_lines.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", l.0 + 1);
    }
    out.push_str("],\"included_lines\":[");
    for (i, l) in w.included_lines.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", l.0 + 1);
    }
    out.push_str("]}");
}

/// Serializes the deterministic solver counters. `estimated_bytes` is
/// emitted only with `include_memory` (the `timing` serialization mode):
/// the footprint estimate depends on the simplex engine's internal
/// representation — dense tableau vs factorized basis — so it would
/// break the cross-engine byte-identity of stripped reports.
fn stats_json(s: &SolverStats, include_memory: bool, out: &mut String) {
    let _ = write!(
        out,
        "{{\"sat_vars\":{},\"clauses\":{},\"decisions\":{},\"propagations\":{},\
         \"conflicts\":{},\"theory_conflicts\":{},\"restarts\":{},\
         \"learned_clauses\":{},\"pivots\":{},\"proof_steps\":{},\
         \"certified\":{},\"lint_errors\":{}",
        s.sat_vars,
        s.clauses,
        s.decisions,
        s.propagations,
        s.conflicts,
        s.theory_conflicts,
        s.restarts,
        s.learned_clauses,
        s.pivots,
        s.proof_steps,
        s.certified,
        s.lint_errors,
    );
    if include_memory {
        let _ = write!(out, ",\"estimated_bytes\":{}", s.estimated_bytes());
    }
    out.push('}');
}

impl CampaignReport {
    /// Counts per verdict token, ordered by first occurrence of the
    /// token in the fixed token list (deterministic).
    pub fn summary(&self) -> Vec<(&'static str, usize)> {
        let tokens = [
            "sat",
            "unsat",
            "unknown(timeout)",
            "unknown(cancelled)",
            "architecture",
            "no-solution",
            "inconclusive",
            "no-operating-point",
        ];
        tokens
            .iter()
            .map(|&t| {
                (t, self.results.iter().filter(|r| r.verdict.token() == t).count())
            })
            .filter(|(_, n)| *n > 0)
            .collect()
    }

    /// Whether any job ran out of budget.
    pub fn any_unknown(&self) -> bool {
        self.results.iter().any(|r| r.verdict.is_unknown())
    }

    /// The first job whose case had no operating point, as a message
    /// naming the case — front ends turn it into an input error.
    pub fn input_error(&self) -> Option<String> {
        self.results.iter().find_map(|r| match r.verdict {
            Verdict::NoOperatingPoint(e) => Some(format!("case {}: {e}", r.case)),
            _ => None,
        })
    }

    /// Sums every job's deterministic phase counters. Addition over `u64`
    /// is associative and commutative and the results are sorted by job
    /// id, so the rollup (and its JSON) is byte-identical regardless of
    /// how many workers ran the campaign — the property that makes the
    /// phase breakdown trustworthy as a cross-run comparison baseline.
    pub fn metrics_rollup(&self) -> PhaseMetrics {
        let mut total = PhaseMetrics::default();
        for r in &self.results {
            if let Some(m) = &r.metrics {
                total.merge(m);
            }
        }
        total
    }

    /// Sums every job's *observational* phase timings: wall clocks,
    /// base-cache hit/miss counters, basis refactorizations. Unlike
    /// [`Self::metrics_rollup`] the result depends on scheduling and on
    /// the simplex engine mode, so it is display-only and never enters
    /// the deterministic report body.
    pub fn timings_rollup(&self) -> PhaseTimings {
        let mut total = PhaseTimings::default();
        for r in &self.results {
            if let Some(pw) = &r.phase_wall {
                total.merge(pw);
            }
        }
        total
    }

    /// Campaign-level latency histograms, one per phase: the whole-job
    /// wall plus the solver's encode and search phases. Each job
    /// contributes one sample per phase; the merge is associative and
    /// commutative (see [`LatencyHistogram::merge`]), so the rollup is
    /// independent of worker count and scheduling — only the bucket
    /// *contents* (wall clock) vary between runs.
    pub fn latency_rollup(&self) -> Vec<(&'static str, LatencyHistogram)> {
        let mut wall = LatencyHistogram::new();
        let mut encode = LatencyHistogram::new();
        let mut search = LatencyHistogram::new();
        for r in &self.results {
            let mut job = LatencyHistogram::new();
            job.record(r.wall);
            wall.merge(&job);
            if let Some(pw) = &r.phase_wall {
                let mut je = LatencyHistogram::new();
                je.record(pw.encode);
                encode.merge(&je);
                let mut js = LatencyHistogram::new();
                js.record(pw.search);
                search.merge(&js);
            }
        }
        vec![("wall", wall), ("encode", encode), ("search", search)]
    }

    /// Per-phase latency *sample counts*. These depend only on the spec
    /// (one wall sample per job; one encode/search sample per job that
    /// tracked phase timings), so they belong to the deterministic report
    /// body — the 1-vs-N-worker byte comparison pins them down, proving
    /// no job was dropped from or double-counted in the histograms.
    pub fn latency_sample_counts(&self) -> Vec<(&'static str, u64)> {
        self.latency_rollup()
            .into_iter()
            .map(|(phase, h)| (phase, h.count()))
            .collect()
    }

    /// The campaign-wide span tree of a profiled run: every job's spans
    /// merged by name in job-id order (the `--profile` view). Empty when
    /// the run did not profile.
    pub fn merged_spans(&self) -> Vec<SpanNode> {
        let mut merged = Vec::new();
        for r in &self.results {
            if let Some(spans) = &r.spans {
                merge_spans(&mut merged, spans);
            }
        }
        merged
    }

    /// Serializes the report as JSON. With `include_timing` false, every
    /// `timing` object (per-job wall/worker, run totals) is omitted and
    /// the output depends only on the spec — not on worker count or
    /// scheduling.
    pub fn to_json(&self, include_timing: bool) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"campaign\":");
        escape_into(&self.name, &mut out);
        let _ = write!(out, ",\"jobs\":{},\"results\":[", self.results.len());
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"id\":{},\"label\":", r.id);
            escape_into(&r.label, &mut out);
            out.push_str(",\"case\":");
            escape_into(&r.case, &mut out);
            out.push_str(",\"verdict\":");
            escape_into(r.verdict.token(), &mut out);
            if let Some(w) = &r.witness {
                out.push_str(",\"witness\":");
                witness_json(w, &mut out);
            }
            if let Some(arch) = &r.architecture {
                out.push_str(",\"architecture\":[");
                for (k, b) in arch.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}", b.0 + 1);
                }
                out.push(']');
            }
            if let Some(iters) = r.iterations {
                let _ = write!(out, ",\"iterations\":{iters}");
            }
            if let Some(s) = &r.stats {
                out.push_str(",\"stats\":");
                stats_json(s, include_timing, &mut out);
            }
            if let Some(m) = &r.metrics {
                out.push_str(",\"metrics\":");
                m.to_json_into(&mut out);
            }
            if include_timing {
                let _ = write!(
                    out,
                    ",\"timing\":{{\"wall_ms\":{:.3},\"worker\":{}",
                    r.wall.as_secs_f64() * 1e3,
                    r.worker
                );
                if let Some(pw) = &r.phase_wall {
                    out.push(',');
                    pw.to_json_into(&mut out);
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("],\"summary\":{");
        for (i, (token, n)) in self.summary().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(token, &mut out);
            let _ = write!(out, ":{n}");
        }
        out.push('}');
        if self.results.iter().any(|r| r.metrics.is_some()) {
            // Deterministic rollup: part of the timing-stripped output on
            // purpose, so the 1-vs-N-worker byte comparison also pins the
            // aggregation down.
            out.push_str(",\"metrics\":");
            self.metrics_rollup().to_json_into(&mut out);
        }
        if !self.results.is_empty() {
            // Deterministic half of the latency rollup: how many samples
            // each phase histogram holds (bucket contents are timing).
            out.push_str(",\"latency_samples\":{");
            for (i, (phase, n)) in self.latency_sample_counts().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{phase}\":{n}");
            }
            out.push('}');
        }
        if include_timing {
            let _ = write!(
                out,
                ",\"timing\":{{\"total_wall_ms\":{:.3},\"workers\":{}",
                self.total_wall.as_secs_f64() * 1e3,
                self.workers
            );
            if !self.results.is_empty() {
                out.push_str(",\"latency\":{");
                for (i, (phase, h)) in self.latency_rollup().iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{phase}\":");
                    h.to_json_into(&mut out);
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Renders the human-readable results table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>4}  {:<14} {:<32} {:<18} {:>9} {:>11} {:>9}",
            "id", "case", "label", "verdict", "conflicts", "props", "ms"
        );
        for r in &self.results {
            let (conflicts, props) = match &r.stats {
                Some(s) => (s.conflicts.to_string(), s.propagations.to_string()),
                None => ("-".into(), "-".into()),
            };
            let _ = writeln!(
                out,
                "{:>4}  {:<14} {:<32} {:<18} {:>9} {:>11} {:>9.1}",
                r.id,
                r.case,
                r.label,
                r.verdict.token(),
                conflicts,
                props,
                r.wall.as_secs_f64() * 1e3,
            );
        }
        let _ = writeln!(
            out,
            "{} jobs in {:.1} ms on {} worker(s): {}",
            self.results.len(),
            self.total_wall.as_secs_f64() * 1e3,
            self.workers,
            self.summary()
                .iter()
                .map(|(t, n)| format!("{n} {t}"))
                .collect::<Vec<_>>()
                .join(", "),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CampaignReport {
        CampaignReport {
            name: "t".into(),
            workers: 2,
            total_wall: Duration::from_millis(5),
            results: vec![
                JobResult {
                    id: 0,
                    label: "a \"quoted\"".into(),
                    case: "ieee14".into(),
                    verdict: Verdict::Sat,
                    witness: Some(AttackVector::default()),
                    architecture: None,
                    iterations: None,
                    stats: Some(SolverStats::default()),
                    metrics: Some(PhaseMetrics { decisions: 4, pivots: 2, ..PhaseMetrics::default() }),
                    phase_wall: Some(PhaseTimings::default()),
                    spans: None,
                    wall: Duration::from_millis(3),
                    worker: 1,
                },
                JobResult {
                    id: 1,
                    label: "b".into(),
                    case: "ieee14".into(),
                    verdict: Verdict::Unknown(Interrupt::Timeout),
                    witness: None,
                    architecture: Some(vec![BusId(0), BusId(5)]),
                    iterations: Some(3),
                    stats: None,
                    metrics: Some(PhaseMetrics { decisions: 6, clauses: 9, ..PhaseMetrics::default() }),
                    phase_wall: None,
                    spans: None,
                    wall: Duration::from_millis(2),
                    worker: 0,
                },
            ],
        }
    }

    #[test]
    fn json_with_and_without_timing() {
        let report = sample();
        let full = report.to_json(true);
        let bare = report.to_json(false);
        assert!(full.contains("\"timing\""));
        assert!(!bare.contains("\"timing\""));
        assert!(bare.contains("\"verdict\":\"sat\""));
        assert!(bare.contains("\"verdict\":\"unknown(timeout)\""));
        assert!(bare.contains("\\\"quoted\\\""));
        assert!(bare.contains("\"architecture\":[1,6]"));
        assert!(report.any_unknown());
    }

    #[test]
    fn table_lists_every_job() {
        let report = sample();
        let table = report.table();
        assert!(table.contains("unknown(timeout)"));
        assert!(table.contains("2 jobs"));
        assert!(table.contains("1 sat, 1 unknown(timeout)"));
    }

    #[test]
    fn summary_counts_by_token() {
        let s = sample().summary();
        assert_eq!(s, vec![("sat", 1), ("unknown(timeout)", 1)]);
    }

    #[test]
    fn metrics_rollup_sums_jobs_and_serializes_without_timing() {
        let report = sample();
        let rollup = report.metrics_rollup();
        assert_eq!(rollup.decisions, 10);
        assert_eq!(rollup.pivots, 2);
        assert_eq!(rollup.clauses, 9);
        let bare = report.to_json(false);
        // Per-job and campaign-level metrics are deterministic content.
        assert!(bare.contains("\"metrics\":{\"encode\":"));
        assert!(bare.contains("\"decisions\":10"));
        // Phase wall clock appears only under timing.
        assert!(!bare.contains("encode_ms"));
        assert!(report.to_json(true).contains("\"encode_ms\":"));
    }
}
