//! The `sta bench` perf-trajectory harness.
//!
//! Performance work on a solver is only trustworthy against a pinned
//! workload measured the same way every time. This module provides:
//!
//! * named, pinned campaign suites ([`suite`]) — the job lists never
//!   change shape, so two `BENCH_*.json` files measure the same work;
//! * [`run_suite`] — runs a suite `reps` times, takes per-job *medians*
//!   of wall/encode/search time (medians shrug off one noisy rep), and
//!   merges the per-rep latency histograms;
//! * a schema-versioned JSON format ([`BenchResult::to_json`] /
//!   [`parse_result`]) with an environment block (CPU count, OS/arch,
//!   commit) so a trajectory file records where it came from;
//! * [`diff`] — compares a candidate against a baseline file and flags
//!   per-job wall-time regressions past a percentage threshold (with an
//!   absolute floor so microsecond jitter on trivial jobs cannot trip
//!   it), plus verdict changes, which are always flagged.
//!
//! The CLI wires this to `sta bench` (see `src/bin/sta.rs`); `verify.sh`
//! runs the smoke suite once per commit and self-diffs the checked-in
//! baseline to keep the schema and the diff path honest.

use crate::histogram::LatencyHistogram;
use crate::pool::{run_with, RunOptions};
use crate::report::CampaignReport;
use crate::spec::CampaignSpec;
use sta_core::attack::{AttackModel, StateTarget};
use sta_core::synthesis::SynthesisConfig;
use sta_grid::{ieee14, BusId};
use sta_smt::json::{escape_into, parse, Json};
use std::fmt::Write as _;

/// Version tag of the `BENCH_*.json` schema. Bump on any breaking field
/// change; [`parse_result`] rejects files from other schema versions.
pub const SCHEMA: &str = "sta-bench/v1";

/// Jitter floor for regression flagging: a job must slow down by more
/// than this many microseconds *and* by more than the percentage
/// threshold to count as regressed.
pub const MIN_REGRESSION_US: u64 = 1000;

/// Returns the pinned campaign spec of a named bench suite, or `None`
/// for unknown names. Suites are part of the measurement contract:
/// editing one invalidates every existing baseline file for it.
pub fn suite(name: &str) -> Option<CampaignSpec> {
    match name {
        "smoke" => {
            let mut spec = CampaignSpec::new("bench-smoke");
            let case = spec.add_case("ieee14", ieee14::system());
            spec.verify(
                case,
                "open-11",
                AttackModel::new(14).target(BusId(11), StateTarget::MustChange),
            );
            spec.verify(
                case,
                "capped-7",
                AttackModel::new(14)
                    .target(BusId(7), StateTarget::MustChange)
                    .max_altered_measurements(10)
                    .max_compromised_buses(4),
            );
            spec.verify(
                case,
                "blocked",
                AttackModel::new(14).max_altered_measurements(0),
            );
            spec.verify(
                case,
                "limited-knowledge",
                AttackModel::new(14).unknown_lines(20, &[2, 16]),
            );
            spec.synthesize(
                case,
                "synth-budget-3",
                AttackModel::new(14)
                    .target(BusId(11), StateTarget::MustChange)
                    .max_altered_measurements(8),
                SynthesisConfig::with_budget(3),
            );
            Some(spec)
        }
        "sweep" => Some(CampaignSpec::standard_sweep("ieee14", ieee14::system())),
        // CEGIS synthesis on the persistent solver cores, one job per
        // budget. (The `warm-` labels date from when each job had a `cold-`
        // clone-per-check twin; keeping them keeps old points comparable.)
        "cegis" => {
            let mut spec = CampaignSpec::new("bench-cegis");
            let case = spec.add_case("ieee14-unsecured", ieee14::system_unsecured());
            let attacker = AttackModel::new(14)
                .target(BusId(11), StateTarget::MustChange)
                .max_altered_measurements(8);
            for budget in [3usize, 4] {
                spec.synthesize(
                    case,
                    format!("warm-budget-{budget}"),
                    attacker.clone(),
                    SynthesisConfig::with_budget(budget),
                );
            }
            Some(spec)
        }
        _ => None,
    }
}

/// Names of the available suites (for usage messages).
pub fn suite_names() -> &'static [&'static str] {
    &["smoke", "sweep", "cegis"]
}

/// Bus counts of the `scale` suite — the paper's §V-B scalability ladder,
/// extended past the dense tableau's practical ceiling by the revised
/// simplex (1354- and 2000-bus rungs).
pub const SCALE_BUSES: [usize; 7] = [14, 30, 57, 118, 300, 1354, 2000];

/// Largest case the dense oracles (dense WLS pipeline, dense eager
/// tableau) still run at bench-friendly speed. Above this the suite
/// measures the sparse/revised path only — which is the point of the
/// ladder's upper rungs.
pub const DENSE_ORACLE_MAX_BUSES: usize = 300;

/// Per-job deadline of the scale suite's verify jobs, generous enough
/// that a completed run certifies "the 2000-bus verification finishes
/// within the deadline" (a timeout shows up as a `unknown(timeout)`
/// verdict and fails the `verify.sh` gate).
pub const SCALE_VERIFY_TIMEOUT_MS: u64 = 120_000;

/// Runs the `scale` suite: the estimation-stack scaling curve.
///
/// Per IEEE case size (see [`SCALE_BUSES`]), up to six jobs:
///
/// * `wls-sparse-{b}` — a full WLS solve (estimator construction, i.e.
///   sparse gain build + AMD-ordered factorization, plus one estimate)
///   on the default sparse pipeline;
/// * `wls-dense-{b}` — the identical solve on the dense-oracle pipeline,
///   so a trajectory point carries its own sparse-vs-dense speedup
///   (sizes up to [`DENSE_ORACLE_MAX_BUSES`] only);
/// * `obs-{b}` — an observability check (flow islands; on these fully
///   metered cases one island, so no factorization);
/// * `verify-{b}` — one blocked verification (`T_CZ = 0`) on the revised
///   simplex at every size. Pivot-light — encode dominates — so it is
///   cheap at small sizes, and at 1354/2000 buses it is the size-ceiling
///   story: the rung completes within [`SCALE_VERIFY_TIMEOUT_MS`] or its
///   verdict degrades to `unknown(timeout)` and fails the `verify.sh`
///   gate;
/// * `verify-dense-{b}` / `verify-revised-{b}` — the engine A/B pair
///   (up to [`DENSE_ORACLE_MAX_BUSES`]): the same pivot-heavy
///   multi-target scenario ([`scale_ab_model`]) run once per engine.
///   Identical deterministic trajectory, so the wall-time ratio is a
///   pure engine comparison — `verify.sh` gates on the 300-bus pair.
///
/// Unlike the registry suites this one is not a pure [`CampaignSpec`] —
/// the WLS and observability jobs run outside the pool — so it builds
/// its [`BenchResult`] directly, like the serve suite does.
///
/// # Errors
/// Fails if a synthetic case does not power-flow or is unobservable —
/// either means the suite definition itself is broken.
pub fn run_scale_suite(reps: usize, workers: usize) -> Result<BenchResult, String> {
    run_scale_suite_for(&SCALE_BUSES, reps, workers)
}

/// The engine A/B workload of the scale suite: four `MustChange` targets
/// spread across the case, pairwise-different changes between adjacent
/// targets, and tight resource caps. The caps force the search to
/// enumerate thousands of candidate attack supports, each a theory check
/// with real pivot work — the regime the revised engine exists for. (A
/// blocked scenario would measure encode time, where the engines tie;
/// see `EXPERIMENTS.md`.) The verdict varies with topology (sat at 14
/// buses, unsat at 30 through 300) but is identical across engines, as
/// is the whole pivot trajectory.
pub fn scale_ab_model(b: usize) -> AttackModel {
    let t = [BusId(b / 4), BusId(b / 2), BusId(3 * b / 4), BusId(b - 1)];
    let mut model = AttackModel::new(b);
    for &bus in &t {
        model = model.target(bus, StateTarget::MustChange);
    }
    model
        .require_different_change(t[0], t[1])
        .require_different_change(t[1], t[2])
        .require_different_change(t[2], t[3])
        .max_altered_measurements(20)
        .max_compromised_buses(8)
}

/// [`run_scale_suite`] over an explicit bus-count list (kept separate so
/// tests can exercise the harness on the small cases only).
pub fn run_scale_suite_for(
    buses: &[usize],
    reps: usize,
    workers: usize,
) -> Result<BenchResult, String> {
    use sta_estimator::{dcflow, observability, WlsEstimator};

    let reps = reps.max(1);
    let clock = sta_smt::Clock::monotonic();

    let mut jobs: Vec<JobMeasurement> = Vec::new();
    let mut push = |label: String, case: &str, verdict: String, wall_us: u64| {
        jobs.push(JobMeasurement {
            id: 0, // reassigned sequentially below
            label,
            case: case.to_string(),
            verdict,
            wall_us,
            encode_us: 0,
            search_us: 0,
        });
    };

    let mut dense_spec = CampaignSpec::new("bench-scale-dense")
        .with_simplex(sta_smt::SimplexMode::Dense)
        .with_timeout_ms(SCALE_VERIFY_TIMEOUT_MS);
    let mut revised_spec = CampaignSpec::new("bench-scale-revised")
        .with_simplex(sta_smt::SimplexMode::Revised)
        .with_timeout_ms(SCALE_VERIFY_TIMEOUT_MS);
    for &b in buses {
        let sys = sta_grid::synthetic::ieee_case(b);
        let case_name = format!("ieee{b}");
        // An untimed warm-up estimator pins the measurement snapshot the
        // timed solves all consume.
        let injections = dcflow::synthetic_injections(b, b as u64);
        let op = dcflow::solve(&sys.grid, &sys.topology, &injections, sys.reference_bus)
            .map_err(|e| format!("{case_name}: power flow failed: {e}"))?;
        let warmup = WlsEstimator::for_system(&sys)
            .map_err(|e| format!("{case_name}: {e}"))?;
        let z = warmup.measure(&op);

        let wls_verdict = |est: &WlsEstimator| -> Result<String, String> {
            let r = est
                .estimate(&z)
                .map_err(|e| format!("{case_name}: estimate failed: {e}"))?;
            Ok(if r.residual_norm < 1e-6 { "ok" } else { "residual" }.to_string())
        };
        let (v, wall) = timed(&clock, reps, || {
            let est = WlsEstimator::new(
                &sys.grid,
                &sys.topology,
                &sys.measurements,
                sys.reference_bus,
                None,
            )
            .map_err(|e| format!("{case_name}: {e}"))?;
            wls_verdict(&est)
        })?;
        push(format!("wls-sparse-{b}"), &case_name, v, wall);

        if b <= DENSE_ORACLE_MAX_BUSES {
            let (v, wall) = timed(&clock, reps, || {
                let est = WlsEstimator::new_dense(
                    &sys.grid,
                    &sys.topology,
                    &sys.measurements,
                    sys.reference_bus,
                    None,
                )
                .map_err(|e| format!("{case_name}: {e}"))?;
                wls_verdict(&est)
            })?;
            push(format!("wls-dense-{b}"), &case_name, v, wall);
        }

        let (v, wall) = timed(&clock, reps, || {
            Ok(if observability::is_observable(
                &sys.grid,
                &sys.topology,
                &sys.measurements,
                sys.reference_bus,
            ) {
                "observable"
            } else {
                "unobservable"
            }
            .to_string())
        })?;
        push(format!("obs-{b}"), &case_name, v, wall);

        if b <= DENSE_ORACLE_MAX_BUSES {
            let case = dense_spec.add_case(case_name.clone(), sys.clone());
            dense_spec.verify(case, format!("verify-dense-{b}"), scale_ab_model(b));
        }
        let case = revised_spec.add_case(case_name, sys);
        let blocked = AttackModel::new(b).max_altered_measurements(0);
        revised_spec.verify(case, format!("verify-{b}"), blocked);
        if b <= DENSE_ORACLE_MAX_BUSES {
            revised_spec.verify(case, format!("verify-revised-{b}"), scale_ab_model(b));
        }
    }

    // The verify jobs go through the standard pool harness for real
    // encode/search phase medians; their latency rollup is the suite's.
    let dense = run_suite("scale", &dense_spec, reps, workers);
    let revised = run_suite("scale", &revised_spec, reps, workers);
    jobs.extend(dense.jobs);
    jobs.extend(revised.jobs);
    for (i, j) in jobs.iter_mut().enumerate() {
        j.id = i as u64;
    }
    let mut latency = dense.latency;
    merge_latency(&mut latency, revised.latency);
    Ok(BenchResult {
        schema: SCHEMA.to_string(),
        suite: "scale".to_string(),
        reps: reps as u64,
        workers: workers.max(1) as u64,
        env: BenchEnv::capture(),
        jobs,
        latency,
    })
}

/// Where a trajectory file was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchEnv {
    /// Logical CPUs available to the process.
    pub cpus: u64,
    /// `std::env::consts::OS` at measurement time.
    pub os: String,
    /// `std::env::consts::ARCH` at measurement time.
    pub arch: String,
    /// Short git commit of the working tree, or `"unknown"`.
    pub commit: String,
}

impl BenchEnv {
    /// Captures the current environment. The commit comes from `git
    /// rev-parse --short HEAD` and degrades to `"unknown"` anywhere git
    /// or the repository is unavailable.
    pub fn capture() -> Self {
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1);
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        BenchEnv {
            cpus,
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            commit,
        }
    }
}

/// One job's measurement: medians over the run's repetitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobMeasurement {
    /// Job id within the suite.
    pub id: u64,
    /// The job's label (stable across runs of the same suite).
    pub label: String,
    /// The case the job ran against.
    pub case: String,
    /// The verdict token (deterministic; a change is always flagged).
    pub verdict: String,
    /// Median whole-job wall time in microseconds.
    pub wall_us: u64,
    /// Median encode-phase wall time in microseconds.
    pub encode_us: u64,
    /// Median search-phase wall time in microseconds.
    pub search_us: u64,
}

/// A measured perf trajectory point: one suite, one environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchResult {
    /// Schema tag (always [`SCHEMA`] for files this code writes).
    pub schema: String,
    /// Suite name.
    pub suite: String,
    /// Repetitions the medians were taken over.
    pub reps: u64,
    /// Worker count the suite ran with.
    pub workers: u64,
    /// Measurement environment.
    pub env: BenchEnv,
    /// Per-job medians, in job-id order.
    pub jobs: Vec<JobMeasurement>,
    /// Per-phase latency histograms merged over all repetitions.
    pub latency: Vec<(&'static str, LatencyHistogram)>,
}

/// Median of a slice of samples (even lengths average the middle pair,
/// rounding down, without overflow); 0 for no samples. Sorts `samples`.
pub fn median(samples: &mut [u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] / 2) + (samples[mid] / 2) + (samples[mid - 1] % 2 + samples[mid] % 2) / 2
    }
}

/// Runs `spec` `reps` times on `workers` threads and folds the runs into
/// one [`BenchResult`]. Verdicts are deterministic, so they are taken
/// from the first repetition; wall clocks are per-job medians.
///
/// # Panics
/// Panics if `reps` is zero (the CLI rejects `--reps 0` as a usage
/// error before getting here).
pub fn run_suite(
    suite_name: &str,
    spec: &CampaignSpec,
    reps: usize,
    workers: usize,
) -> BenchResult {
    assert!(reps > 0, "reps must be positive");
    let reports = run_reps(spec, reps, workers);
    let (jobs, latency) = fold(&reports);
    BenchResult {
        schema: SCHEMA.to_string(),
        suite: suite_name.to_string(),
        reps: reps as u64,
        workers: workers.max(1) as u64,
        env: BenchEnv::capture(),
        jobs,
        latency,
    }
}

/// Per-phase latency histograms, in first-seen phase order.
pub(crate) type Latency = Vec<(&'static str, LatencyHistogram)>;

/// Runs `spec` `reps` times on `workers` threads.
pub(crate) fn run_reps(spec: &CampaignSpec, reps: usize, workers: usize) -> Vec<CampaignReport> {
    (0..reps).map(|_| run_with(spec, &RunOptions::with_workers(workers), None)).collect()
}

/// Folds repeated runs of one campaign into per-job measurements and
/// the runs' merged latency histograms. Verdicts are deterministic, so
/// they are taken from the first run; wall clocks are per-job medians.
pub(crate) fn fold(reports: &[CampaignReport]) -> (Vec<JobMeasurement>, Latency) {
    let mut jobs = Vec::new();
    let first_results = reports.first().map_or(&[][..], |r| &r.results[..]);
    for (id, first) in first_results.iter().enumerate() {
        let mut walls: Vec<u64> = reports
            .iter()
            .map(|r| r.results[id].wall.as_micros() as u64)
            .collect();
        let phase_us = |f: fn(&sta_smt::PhaseTimings) -> std::time::Duration| {
            let mut v: Vec<u64> = reports
                .iter()
                .filter_map(|r| r.results[id].phase_wall.as_ref())
                .map(|pw| f(pw).as_micros() as u64)
                .collect();
            median(&mut v)
        };
        jobs.push(JobMeasurement {
            id: id as u64,
            label: first.label.clone(),
            case: first.case.clone(),
            verdict: first.verdict.token().to_string(),
            wall_us: median(&mut walls),
            encode_us: phase_us(|pw| pw.encode),
            search_us: phase_us(|pw| pw.search),
        });
    }
    let mut latency = Latency::new();
    for report in reports {
        merge_latency(&mut latency, report.latency_rollup());
    }
    (jobs, latency)
}

/// Merges `from`'s histograms into `into`, phase by phase.
pub(crate) fn merge_latency(into: &mut Latency, from: Latency) {
    for (phase, hist) in from {
        match into.iter_mut().find(|(p, _)| *p == phase) {
            Some((_, existing)) => existing.merge(&hist),
            None => into.push((phase, hist)),
        }
    }
}

/// Runs `f` `reps` times, returning its (stable) verdict token and the
/// median wall time in microseconds.
pub(crate) fn timed<F: FnMut() -> Result<String, String>>(
    clock: &sta_smt::Clock,
    reps: usize,
    mut f: F,
) -> Result<(String, u64), String> {
    let mut walls = Vec::with_capacity(reps);
    let mut verdict = String::new();
    for _ in 0..reps {
        let t0 = clock.now();
        verdict = f()?;
        walls.push(clock.now().saturating_sub(t0).as_micros() as u64);
    }
    Ok((verdict, median(&mut walls)))
}

impl BenchResult {
    /// Serializes the trajectory point as schema-versioned JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\"schema\":");
        escape_into(&self.schema, &mut out);
        out.push_str(",\"suite\":");
        escape_into(&self.suite, &mut out);
        let _ = write!(
            out,
            ",\"reps\":{},\"workers\":{},\"env\":{{\"cpus\":{},\"os\":",
            self.reps, self.workers, self.env.cpus
        );
        escape_into(&self.env.os, &mut out);
        out.push_str(",\"arch\":");
        escape_into(&self.env.arch, &mut out);
        out.push_str(",\"commit\":");
        escape_into(&self.env.commit, &mut out);
        out.push_str("},\"jobs\":[");
        for (i, j) in self.jobs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"id\":{},\"label\":", j.id);
            escape_into(&j.label, &mut out);
            out.push_str(",\"case\":");
            escape_into(&j.case, &mut out);
            out.push_str(",\"verdict\":");
            escape_into(&j.verdict, &mut out);
            let _ = write!(
                out,
                ",\"wall_us\":{},\"encode_us\":{},\"search_us\":{}}}",
                j.wall_us, j.encode_us, j.search_us
            );
        }
        out.push_str("],\"latency\":{");
        for (i, (phase, hist)) in self.latency.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{phase}\":");
            hist.to_json_into(&mut out);
        }
        out.push_str("}}");
        out
    }
}

/// Reads a required string field off a JSON object.
fn str_field(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(|v| v.as_str())
        .map(|s| s.to_string())
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

/// Reads a required unsigned-integer field off a JSON object.
fn u64_field(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

/// Parses and schema-validates a `BENCH_*.json` document. The latency
/// histograms are not reconstructed (diffing works on the per-job
/// medians); only their presence is checked.
pub fn parse_result(text: &str) -> Result<BenchResult, String> {
    let doc = parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let schema = str_field(&doc, "schema")?;
    if schema != SCHEMA {
        return Err(format!("unsupported schema {schema:?} (expected {SCHEMA:?})"));
    }
    let env_doc = doc.get("env").ok_or("missing field \"env\"")?;
    let env = BenchEnv {
        cpus: u64_field(env_doc, "cpus")?,
        os: str_field(env_doc, "os")?,
        arch: str_field(env_doc, "arch")?,
        commit: str_field(env_doc, "commit")?,
    };
    let jobs_doc = doc
        .get("jobs")
        .and_then(|v| v.as_arr())
        .ok_or("missing or non-array field \"jobs\"")?;
    let mut jobs = Vec::with_capacity(jobs_doc.len());
    for j in jobs_doc {
        jobs.push(JobMeasurement {
            id: u64_field(j, "id")?,
            label: str_field(j, "label")?,
            case: str_field(j, "case")?,
            verdict: str_field(j, "verdict")?,
            wall_us: u64_field(j, "wall_us")?,
            encode_us: u64_field(j, "encode_us")?,
            search_us: u64_field(j, "search_us")?,
        });
    }
    if doc.get("latency").is_none() {
        return Err("missing field \"latency\"".into());
    }
    Ok(BenchResult {
        schema,
        suite: str_field(&doc, "suite")?,
        reps: u64_field(&doc, "reps")?,
        workers: u64_field(&doc, "workers")?,
        env,
        jobs,
        latency: Vec::new(),
    })
}

/// One row of a trajectory comparison.
#[derive(Debug, Clone)]
pub struct DiffLine {
    /// The job's label.
    pub label: String,
    /// Baseline median wall, microseconds.
    pub base_us: u64,
    /// Candidate median wall, microseconds.
    pub cand_us: u64,
    /// Signed change in percent of the baseline (0 when the baseline
    /// is zero and the candidate is too).
    pub change_pct: f64,
    /// Whether this row trips the regression gate: the verdict changed,
    /// or the slowdown exceeds both the percentage threshold and the
    /// [`MIN_REGRESSION_US`] floor.
    pub regressed: bool,
    /// Human-readable note (`"verdict sat -> unsat"`, `"missing in
    /// candidate"`, empty for plain timing rows).
    pub note: String,
}

/// A full baseline-vs-candidate comparison.
#[derive(Debug, Clone)]
pub struct BenchDiff {
    /// Per-job rows, baseline order.
    pub lines: Vec<DiffLine>,
    /// The threshold the comparison ran with, in percent.
    pub threshold_pct: f64,
}

impl BenchDiff {
    /// Whether any row regressed.
    pub fn regressed(&self) -> bool {
        self.lines.iter().any(|l| l.regressed)
    }

    /// Renders the comparison as an aligned table.
    pub fn table(&self) -> String {
        let mut table = sta_smt::Table::new(&[
            ("job", sta_smt::Align::Left),
            ("base ms", sta_smt::Align::Right),
            ("cand ms", sta_smt::Align::Right),
            ("change", sta_smt::Align::Right),
            ("status", sta_smt::Align::Left),
        ]);
        for l in &self.lines {
            let status = if l.regressed {
                if l.note.is_empty() { "REGRESSED".to_string() } else { l.note.clone() }
            } else if !l.note.is_empty() {
                l.note.clone()
            } else {
                "ok".to_string()
            };
            table.row(&[
                l.label.clone(),
                format!("{:.3}", l.base_us as f64 / 1e3),
                format!("{:.3}", l.cand_us as f64 / 1e3),
                format!("{:+.1}%", l.change_pct),
                status,
            ]);
        }
        table.render()
    }
}

/// Compares `candidate` against `baseline`, flagging wall-time
/// regressions beyond `threshold_pct` (and beyond the absolute
/// [`MIN_REGRESSION_US`] floor) and any verdict change. Jobs are matched
/// by `(case, label)`; a job present in only one file is flagged.
pub fn diff(baseline: &BenchResult, candidate: &BenchResult, threshold_pct: f64) -> BenchDiff {
    let mut lines = Vec::with_capacity(baseline.jobs.len());
    for b in &baseline.jobs {
        let Some(c) = candidate
            .jobs
            .iter()
            .find(|c| c.case == b.case && c.label == b.label)
        else {
            lines.push(DiffLine {
                label: b.label.clone(),
                base_us: b.wall_us,
                cand_us: 0,
                change_pct: 0.0,
                regressed: true,
                note: "missing in candidate".to_string(),
            });
            continue;
        };
        let change_pct = if b.wall_us == 0 {
            if c.wall_us == 0 { 0.0 } else { 100.0 }
        } else {
            (c.wall_us as f64 - b.wall_us as f64) / b.wall_us as f64 * 100.0
        };
        let verdict_changed = b.verdict != c.verdict;
        let slowed = c.wall_us > b.wall_us
            && c.wall_us - b.wall_us > MIN_REGRESSION_US
            && change_pct > threshold_pct;
        lines.push(DiffLine {
            label: b.label.clone(),
            base_us: b.wall_us,
            cand_us: c.wall_us,
            change_pct,
            regressed: verdict_changed || slowed,
            note: if verdict_changed {
                format!("verdict {} -> {}", b.verdict, c.verdict)
            } else {
                String::new()
            },
        });
    }
    for c in &candidate.jobs {
        if !baseline.jobs.iter().any(|b| b.case == c.case && b.label == c.label) {
            lines.push(DiffLine {
                label: c.label.clone(),
                base_us: 0,
                cand_us: c.wall_us,
                change_pct: 0.0,
                regressed: false,
                note: "new in candidate".to_string(),
            });
        }
    }
    BenchDiff { lines, threshold_pct }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(label: &str, wall_us: u64, verdict: &str) -> JobMeasurement {
        JobMeasurement {
            id: 0,
            label: label.to_string(),
            case: "ieee14".to_string(),
            verdict: verdict.to_string(),
            wall_us,
            encode_us: wall_us / 2,
            search_us: wall_us / 2,
        }
    }

    fn result(jobs: Vec<JobMeasurement>) -> BenchResult {
        BenchResult {
            schema: SCHEMA.to_string(),
            suite: "smoke".to_string(),
            reps: 1,
            workers: 1,
            env: BenchEnv {
                cpus: 4,
                os: "linux".to_string(),
                arch: "x86_64".to_string(),
                commit: "abc1234".to_string(),
            },
            jobs,
            latency: vec![("wall", LatencyHistogram::new())],
        }
    }

    #[test]
    fn median_handles_edges() {
        assert_eq!(median(&mut []), 0);
        assert_eq!(median(&mut [7]), 7);
        assert_eq!(median(&mut [1, 3]), 2);
        assert_eq!(median(&mut [5, 1, 9]), 5);
        assert_eq!(median(&mut [4, 2, 8, 6]), 5);
        // No overflow near u64::MAX.
        assert_eq!(median(&mut [u64::MAX, u64::MAX]), u64::MAX);
    }

    #[test]
    fn json_round_trips_through_the_shared_parser() {
        let original = result(vec![job("open-11", 5000, "sat"), job("blocked", 800, "unsat")]);
        let text = original.to_json();
        let parsed = parse_result(&text).expect("round trip");
        assert_eq!(parsed.schema, SCHEMA);
        assert_eq!(parsed.suite, "smoke");
        assert_eq!(parsed.env, original.env);
        assert_eq!(parsed.jobs, original.jobs);
    }

    #[test]
    fn parse_rejects_wrong_schema_and_malformed_files() {
        let mut r = result(vec![]);
        r.schema = "sta-bench/v0".to_string();
        let err = parse_result(&r.to_json()).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
        assert!(parse_result("not json").is_err());
        assert!(parse_result("{}").is_err());
    }

    #[test]
    fn self_diff_never_regresses() {
        let r = result(vec![job("open-11", 5000, "sat"), job("blocked", 0, "unsat")]);
        let d = diff(&r, &r, 10.0);
        assert!(!d.regressed(), "{:?}", d.lines);
        assert!(d.lines.iter().all(|l| l.change_pct == 0.0));
    }

    #[test]
    fn slowdowns_past_threshold_and_floor_regress() {
        let base = result(vec![job("a", 10_000, "sat"), job("b", 100, "sat")]);
        // Job a: +50% and +5000 µs — regression. Job b: +500% but only
        // +500 µs — under the absolute floor, not flagged.
        let cand = result(vec![job("a", 15_000, "sat"), job("b", 600, "sat")]);
        let d = diff(&base, &cand, 20.0);
        assert!(d.lines[0].regressed);
        assert!(!d.lines[1].regressed);
        assert!(d.regressed());
        // A generous threshold lets the same slowdown pass.
        assert!(!diff(&base, &cand, 60.0).regressed());
    }

    #[test]
    fn verdict_changes_always_regress() {
        let base = result(vec![job("a", 1000, "sat")]);
        let cand = result(vec![job("a", 900, "unsat")]);
        let d = diff(&base, &cand, 50.0);
        assert!(d.regressed());
        assert!(d.lines[0].note.contains("verdict sat -> unsat"));
        assert!(d.table().contains("verdict sat -> unsat"));
    }

    #[test]
    fn missing_and_new_jobs_are_reported() {
        let base = result(vec![job("gone", 1000, "sat")]);
        let cand = result(vec![job("fresh", 1000, "sat")]);
        let d = diff(&base, &cand, 50.0);
        assert_eq!(d.lines.len(), 2);
        assert!(d.lines[0].regressed, "dropped jobs must fail the gate");
        assert!(d.lines[0].note.contains("missing"));
        assert!(!d.lines[1].regressed, "added jobs are informational");
        assert!(d.lines[1].note.contains("new"));
    }

    #[test]
    fn suites_are_pinned_and_named() {
        let smoke = suite("smoke").expect("smoke suite");
        assert_eq!(smoke.jobs.len(), 5);
        assert!(suite("sweep").is_some());
        assert!(suite("nope").is_none());
        assert!(suite_names().contains(&"smoke"));
        assert!(suite_names().contains(&"cegis"));
    }

    /// The cegis suite is warm-only: one synthesis job per budget.
    #[test]
    fn cegis_suite_runs_one_warm_synthesis_per_budget() {
        let cegis = suite("cegis").expect("cegis suite");
        let labels: Vec<&str> = cegis.jobs.iter().map(|j| j.label.as_str()).collect();
        assert_eq!(labels, ["warm-budget-3", "warm-budget-4"]);
        for (job, budget) in cegis.jobs.iter().zip([3, 4]) {
            let crate::spec::JobKind::Synthesize { config, .. } = &job.kind else {
                panic!("cegis jobs must be synthesize jobs");
            };
            assert_eq!(config.max_secured_buses, budget);
        }
    }

    #[test]
    fn scale_suite_shape_and_verdicts() {
        // The small end of the ladder only — the full 300-bus ladder is
        // CI's job (verify.sh), not the unit suite's.
        let r = run_scale_suite_for(&[14, 30], 1, 1).expect("scale harness runs");
        assert_eq!(r.suite, "scale");
        assert_eq!(r.jobs.len(), 12, "6 jobs per dense-oracle case size");
        let labels: Vec<&str> = r.jobs.iter().map(|j| j.label.as_str()).collect();
        for want in [
            "wls-sparse-14",
            "wls-dense-14",
            "obs-14",
            "verify-14",
            "verify-dense-14",
            "verify-revised-14",
            "wls-sparse-30",
            "wls-dense-30",
            "obs-30",
            "verify-30",
            "verify-dense-30",
            "verify-revised-30",
        ] {
            assert!(labels.contains(&want), "missing {want} in {labels:?}");
        }
        let verdict = |label: &str| {
            &r.jobs
                .iter()
                .find(|j| j.label == label)
                .unwrap_or_else(|| panic!("missing {label}"))
                .verdict
        };
        for j in &r.jobs {
            match j.label.split('-').next() {
                Some("wls") => assert_eq!(j.verdict, "ok", "{}", j.label),
                Some("obs") => assert_eq!(j.verdict, "observable", "{}", j.label),
                Some("verify") => assert!(
                    j.verdict == "sat" || j.verdict == "unsat",
                    "{}: {}",
                    j.label,
                    j.verdict
                ),
                other => panic!("unexpected label family {other:?}"),
            }
        }
        for b in [14, 30] {
            // Blocked ladder rows are unsat by construction; the A/B
            // pair's verdict varies with topology but never with engine.
            assert_eq!(verdict(&format!("verify-{b}")), "unsat");
            assert_eq!(
                verdict(&format!("verify-dense-{b}")),
                verdict(&format!("verify-revised-{b}")),
                "engine verdicts diverged at {b} buses"
            );
        }
        // Ids are sequential, and the artifact is schema-valid and
        // self-diffable like every other suite's.
        for (i, j) in r.jobs.iter().enumerate() {
            assert_eq!(j.id, i as u64);
        }
        let parsed = parse_result(&r.to_json()).expect("schema-valid");
        assert!(!diff(&parsed, &parsed, 10.0).regressed());
    }

    #[test]
    fn run_suite_measures_every_job() {
        let spec = {
            let mut s = CampaignSpec::new("mini");
            let c = s.add_case("ieee14", ieee14::system());
            s.verify(c, "blocked", AttackModel::new(14).max_altered_measurements(0));
            s
        };
        let r = run_suite("mini", &spec, 2, 1);
        assert_eq!(r.reps, 2);
        assert_eq!(r.jobs.len(), 1);
        assert_eq!(r.jobs[0].verdict, "unsat");
        assert_eq!(r.latency.len(), 3);
        assert_eq!(r.latency[0].1.count(), 2, "one wall sample per rep");
        // And its serialization is immediately diffable against itself.
        let parsed = parse_result(&r.to_json()).expect("schema-valid");
        assert!(!diff(&parsed, &parsed, 10.0).regressed());
    }
}
