//! Campaign results: deterministic aggregation, JSON and table rendering.
//!
//! A [`CampaignReport`] is ordered by job id regardless of how the worker
//! pool scheduled the jobs, and every nondeterministic quantity (wall
//! times, worker assignment) lives under a `timing` key. Serializing with
//! `to_json(false)` therefore yields byte-identical output for the same
//! spec at any worker count — the determinism contract the campaign tests
//! pin down.

use crate::histogram::LatencyHistogram;
use sta_core::attack::{AttackOutcome, AttackVector, VerificationReport};
use sta_core::synthesis::{SynthesisObservation, SynthesisOutcome};
use sta_estimator::PowerFlowError;
use sta_grid::BusId;
use sta_smt::json::{escape_into, f64_into};
use sta_smt::{
    flatten_spans, merge_spans, phase_events, Interrupt, PhaseMetrics, PhaseTimings,
    SolverStats, SpanNode, TraceEvent,
};
use std::fmt;
use std::fmt::Write as _;
use std::time::Duration;

/// Every verdict token with the exit code a front end ends on, in
/// [`CampaignReport::summary`] order. The one table behind the report
/// JSON, the trace's `job-end` records, `sta serve`'s replies, and the
/// exit codes of the CLI and `sta client`.
const VERDICTS: [(&str, u8); 8] = [
    ("sat", 0),
    ("unsat", 1),
    ("unknown(timeout)", 3),
    ("unknown(cancelled)", 3),
    ("architecture", 0),
    ("no-solution", 1),
    ("inconclusive", 1),
    ("no-operating-point", 2),
];

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
    /// Synthesis: a check ran out of budget, so the loop stopped without
    /// a conclusion.
    Inconclusive,
    /// The job's case has no DC operating point to anchor the attack
    /// model on (an islanded grid): an input error, so nothing ran.
    NoOperatingPoint(PowerFlowError),
}

impl Verdict {
    /// This verdict's row of [`VERDICTS`].
    fn row(&self) -> (&'static str, u8) {
        VERDICTS[match self {
            Verdict::Sat => 0,
            Verdict::Unsat => 1,
            Verdict::Unknown(Interrupt::Timeout) => 2,
            Verdict::Unknown(Interrupt::Cancelled) => 3,
            Verdict::Architecture => 4,
            Verdict::NoSolution => 5,
            Verdict::Inconclusive => 6,
            Verdict::NoOperatingPoint(_) => 7,
        }]
    }

    /// Stable lowercase token used in JSON and traces.
    pub fn token(&self) -> &'static str {
        self.row().0
    }

    /// The exit code of a command that ends on this verdict: 0 = attack
    /// or architecture found, 1 = a conclusive negative (`unsat`,
    /// `no-solution`) or an `inconclusive` synthesis, 2 = input error,
    /// 3 = budget exhausted (`unknown`, which is *not* unsat).
    pub fn exit_code(&self) -> u8 {
        self.row().1
    }

    /// The exit code of a verdict token as a reply carries it, or `None`
    /// when `token` is no verdict token.
    pub fn token_exit_code(token: &str) -> Option<u8> {
        VERDICTS.iter().find(|(t, _)| *t == token).map(|&(_, code)| code)
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

impl JobResult {
    /// A result with `verdict` and no payload, run on worker 0 in no
    /// time; the constructors below fill in the rest.
    pub(crate) fn new(id: usize, label: &str, case: &str, verdict: Verdict) -> JobResult {
        JobResult {
            id,
            label: label.to_string(),
            case: case.to_string(),
            verdict,
            witness: None,
            architecture: None,
            iterations: None,
            stats: None,
            metrics: None,
            phase_wall: None,
            spans: None,
            wall: Duration::ZERO,
            worker: 0,
        }
    }

    /// The result of one verification: `sat` with its witness, `unsat`,
    /// or `unknown(…)`, with the check's stats and phase counters.
    pub fn verified(id: usize, label: &str, case: &str, report: VerificationReport) -> JobResult {
        let VerificationReport { outcome, stats } = report;
        let (verdict, witness) = match outcome {
            AttackOutcome::Feasible(v) => (Verdict::Sat, Some(*v)),
            AttackOutcome::Infeasible => (Verdict::Unsat, None),
            AttackOutcome::Unknown(why) => (Verdict::Unknown(why), None),
        };
        JobResult {
            witness,
            metrics: Some(stats.metrics),
            phase_wall: Some(stats.timings),
            stats: Some(stats),
            ..JobResult::new(id, label, case, verdict)
        }
    }

    /// The result of one synthesis run: its verdict, architecture and
    /// round trips, with the counters summed over the whole CEGIS loop.
    pub fn synthesized(
        id: usize,
        label: &str,
        case: &str,
        outcome: SynthesisOutcome,
        obs: SynthesisObservation,
    ) -> JobResult {
        let (verdict, architecture, iterations) = match outcome {
            SynthesisOutcome::Architecture(a) => {
                (Verdict::Architecture, Some(a.secured_buses), a.iterations)
            }
            SynthesisOutcome::NoSolution { iterations } => (Verdict::NoSolution, None, iterations),
            SynthesisOutcome::Inconclusive { iterations } => {
                (Verdict::Inconclusive, None, iterations)
            }
        };
        JobResult {
            architecture,
            iterations: Some(iterations),
            metrics: Some(obs.metrics),
            phase_wall: Some(obs.timings),
            ..JobResult::new(id, label, case, verdict)
        }
    }

    /// Appends the outcome keys — `verdict`, then `witness`,
    /// `architecture` and `iterations` where present — each after a
    /// comma. The campaign report and `sta serve`'s replies both write
    /// their outcome through here.
    pub fn outcome_json_into(&self, out: &mut String) {
        out.push_str(",\"verdict\":");
        escape_into(self.verdict.token(), out);
        if let Some(w) = &self.witness {
            out.push_str(",\"witness\":");
            witness_json(w, out);
        }
        if let Some(arch) = &self.architecture {
            out.push_str(",\"architecture\":[");
            for (k, b) in arch.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}", b.0 + 1);
            }
            out.push(']');
        }
        if let Some(iters) = self.iterations {
            let _ = write!(out, ",\"iterations\":{iters}");
        }
    }

    /// The trace-event batch of this finished job: `job-start`, a
    /// `phase` record per phase (with wall clock where tracked), its
    /// spans and progress samples when profiled, `job-end`. The campaign
    /// pool, the one trace writer, streams one batch per job between
    /// `run-start` and `run-end`.
    pub(crate) fn job_events(&self) -> Vec<TraceEvent> {
        let mut events = vec![TraceEvent::JobStart {
            job: self.id,
            label: self.label.clone(),
            case: self.case.clone(),
        }];
        if let (Some(metrics), Some(timings)) = (&self.metrics, &self.phase_wall) {
            events.extend(phase_events(self.id, metrics, timings));
        }
        if let Some(spans) = &self.spans {
            for (path, node) in flatten_spans(spans) {
                events.push(TraceEvent::Span {
                    job: self.id,
                    path,
                    count: node.count,
                    incl_us: node.inclusive.as_micros() as u64,
                    excl_us: node.exclusive().as_micros() as u64,
                });
            }
        }
        if let Some(stats) = &self.stats {
            for sample in &stats.progress {
                events.push(TraceEvent::Progress {
                    job: self.id,
                    at_us: sample.at.as_micros() as u64,
                    counters: sample.counters(),
                });
            }
        }
        events.push(TraceEvent::JobEnd {
            job: self.id,
            verdict: self.verdict.token().to_string(),
            wall_us: self.wall.as_micros() as u64,
        });
        events
    }
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
/// all ids 1-based).
fn witness_json(w: &AttackVector, out: &mut String) {
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
    let m = &s.metrics;
    let _ = write!(
        out,
        "{{\"sat_vars\":{},\"clauses\":{},\"decisions\":{},\"propagations\":{},\
         \"conflicts\":{},\"theory_conflicts\":{},\"restarts\":{},\
         \"learned_clauses\":{},\"pivots\":{},\"proof_steps\":{},\
         \"certified\":{},\"lint_errors\":{}",
        m.sat_vars,
        m.clauses,
        m.decisions,
        m.propagations,
        m.conflicts,
        m.theory_conflicts,
        m.restarts,
        m.learned_clauses,
        m.pivots,
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
    /// Counts per verdict token present, in the order of the verdict
    /// table (deterministic).
    pub fn summary(&self) -> Vec<(&'static str, usize)> {
        VERDICTS
            .iter()
            .map(|&(t, _)| {
                (t, self.results.iter().filter(|r| r.verdict.token() == t).count())
            })
            .filter(|(_, n)| *n > 0)
            .collect()
    }

    /// Appends the [`Self::summary`] as a JSON object of token counts —
    /// the report's `summary` and `sta serve`'s campaign reply.
    pub fn summary_json_into(&self, out: &mut String) {
        out.push('{');
        for (i, (token, n)) in self.summary().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(token, out);
            let _ = write!(out, ":{n}");
        }
        out.push('}');
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
            r.outcome_json_into(&mut out);
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
        out.push_str("],\"summary\":");
        self.summary_json_into(&mut out);
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
                Some(s) => (s.metrics.conflicts.to_string(), s.metrics.propagations.to_string()),
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
