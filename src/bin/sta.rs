//! `sta` — command-line front end for the threat-analytics toolchain.
//!
//! ```text
//! sta case <name>                      print a built-in case file
//! sta verify <case> <scenario> [--certify L] [--timeout-ms MS]
//!            [--trace FILE] [--metrics]   decide attack feasibility
//! sta replay <case> <scenario> [--certify L] [--timeout-ms MS]
//!                                      verify, then replay end to end
//! sta assess <case>                    grid-wide threat assessment
//! sta synthesize <case> <scenario> --budget N [--reference-secured]
//!            [--trace FILE] [--metrics]
//!                                      synthesize a security architecture
//! sta synthesize <case> <scenario> --budget N --measurements
//!                                      measurement-granular variant
//! sta campaign [<case>] [--jobs N] [--timeout-ms MS] [--certify L]
//!              [--topology] [--force-timeout] [--out FILE] [--strip-timing]
//!              [--trace FILE] [--metrics] [--profile]
//!                                      parallel sweep of attack variants
//! sta bench [--suite S] [--reps N] [--jobs N] [--out FILE]
//!           [--baseline FILE] [--against FILE] [--threshold PCT]
//!                                      perf-trajectory harness
//! sta lint [--json] [--fix-allowlist] [--root DIR]
//!                                      in-tree invariant analyzer
//! sta top <addr> [--interval-ms MS] [--once]
//!                                      live service dashboard
//! ```
//!
//! Against a running `sta serve`, `sta client stats` and `sta client
//! metrics` render human tables by default (`--json` keeps the raw JSONL
//! reply; `--format prometheus` prints the text exposition), `sta client
//! watch` streams raw snapshot lines at `--interval-ms` cadence until
//! the server drains, and `sta top` turns the same watch stream into a
//! redrawing terminal dashboard. See `DESIGN.md` §16.
//!
//! `--trace FILE` streams the run's observability events (run/job
//! brackets plus per-phase solver counters) as JSON Lines to `FILE`;
//! `--metrics` prints the end-of-run phase table (deterministic counters
//! only — wall clocks stay in the trace); `--profile` prints the
//! hierarchical span tree (encode base/delta, search, simplex self-time,
//! certify; CEGIS iterate/select) with inclusive and self milliseconds.
//! See `DESIGN.md` §10–§11.
//!
//! `sta bench` runs a pinned suite `--reps` times and writes per-job
//! median wall/phase times as schema-versioned JSON (default
//! `BENCH_<suite>.json`). With `--baseline OLD.json` the fresh run is
//! compared against the file and the command exits 1 past the
//! `--threshold` regression gate (default 50%). With `--against
//! NEW.json` no suite runs: the two files are diffed directly (the
//! self-diff `--baseline F --against F` exits 0 and validates schema).
//! The `fig4`, `fig5`, `table4` and `ablation` suites regenerate the
//! paper's evaluation (`sta::campaign::paper`): they also print the
//! figure tables, and exit 1 when a verdict the paper's set-up pins
//! comes out different.
//!
//! `sta lint` runs the in-tree invariant analyzer (`sta::analysis`,
//! DESIGN.md §13) over the workspace: determinism, clock-discipline,
//! budget-poll-coverage, panic-freedom and JSON-emission rules with
//! exact-match allowlists. Exit 0 = clean, 1 = findings, 2 = usage;
//! `--json` emits the byte-stable machine-readable report.
//!
//! `<case>` is a case file (see `sta::grid::caseformat`) or a built-in
//! name: `ieee14`, `ieee14-unsecured`, `ieee30`, `ieee57`, `ieee118`,
//! `ieee300`. `<scenario>` is an attack-scenario file (see
//! `sta::core::scenario`) or `-` for the empty (unconstrained) scenario.
//! `--certify off|models|full` re-checks every solver answer: `models`
//! re-evaluates satisfying assignments against the original formulas,
//! `full` additionally lints the formulas (deny mode) and replays unsat
//! proofs through an independent RUP/Farkas checker.
//!
//! The CEGIS synthesis loop runs on persistent solver cores — learned
//! clauses and the warm simplex basis survive across rounds — while
//! `verify` and campaign verification jobs solve a fresh clone of an
//! encoded template per check (DESIGN.md §12).
//!
//! # Exit codes
//!
//! | code | meaning |
//! |---|---|
//! | 0 | success (`verify`/`replay`: attack found; `synthesize`: architecture found; `campaign`: every job concluded) |
//! | 1 | conclusive negative: `unsat` (no attack) / no architecture within budget |
//! | 2 | usage or input error |
//! | 3 | undecided: the solver's wall-clock budget ran out (`unknown`), or at least one campaign job did — **not** the same as unsat |

use sta::campaign::pool::{run_with as run_campaign, RunOptions};
use sta::campaign::{bench, paper, CampaignSpec};
use sta::core::analytics::ThreatAnalyzer;
use sta::core::attack::{AttackModel, AttackOutcome, AttackVerifier, StateTarget};
use sta::core::synthesis::{SynthesisConfig, Synthesizer};
use sta::core::{scenario, validation};
use sta::grid::{caseformat, TestSystem};
use sta::smt::{
    phase_events, render_spans, CertifyLevel, JsonlSink, PhaseMetrics, PhaseTimings, Profiler,
    SharedSink, TraceEvent, TraceSink,
};
use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;
use std::time::Duration;

/// Opens the `--trace` JSONL sink over a buffered file writer.
fn open_trace(path: &str) -> Result<JsonlSink<BufWriter<File>>, String> {
    let file = File::create(path)
        .map_err(|e| format!("cannot create trace file {path:?}: {e}"))?;
    Ok(JsonlSink::new(BufWriter::new(file)))
}

/// The trace-event sequence of a one-shot run (one verify or synthesize
/// invocation): run/job brackets around the per-phase counter records.
fn one_shot_events(
    name: &str,
    label: &str,
    case: &str,
    verdict: &str,
    metrics: &PhaseMetrics,
    timings: &PhaseTimings,
) -> Vec<TraceEvent> {
    let mut events = vec![
        TraceEvent::RunStart { name: name.to_string(), jobs: 1 },
        TraceEvent::JobStart { job: 0, label: label.to_string(), case: case.to_string() },
    ];
    events.extend(phase_events(0, metrics, timings));
    let wall: Duration = timings.encode + timings.search;
    let wall_us = wall.as_micros() as u64;
    events.push(TraceEvent::JobEnd { job: 0, verdict: verdict.to_string(), wall_us });
    events.push(TraceEvent::RunEnd { name: name.to_string(), wall_us });
    events
}

/// Writes a one-shot trace file and/or prints the phase table, per flags.
fn observe_one_shot(
    trace: Option<&str>,
    metrics_flag: bool,
    name: &str,
    label: &str,
    case: &str,
    verdict: &str,
    metrics: &PhaseMetrics,
    timings: &PhaseTimings,
) -> Result<(), String> {
    if let Some(path) = trace {
        let mut sink = open_trace(path)?;
        for ev in one_shot_events(name, label, case, verdict, metrics, timings) {
            sink.emit(&ev);
        }
    }
    if metrics_flag {
        print_metrics(metrics, timings);
    }
    Ok(())
}

/// Prints the `--metrics` output: the deterministic phase table, then the
/// observational counters on one line below it — the base-cache and
/// refactorization counts depend on engine mode and scheduling, so they
/// never join the phase metrics themselves.
fn print_metrics(metrics: &PhaseMetrics, timings: &PhaseTimings) {
    print!("{}", metrics.table());
    println!(
        "observational: cache {} hits / {} misses, refactorizations {}",
        timings.cache_hits, timings.cache_misses, timings.refactorizations
    );
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  sta case <name>\n  sta verify <case> <scenario> [--certify off|models|full] \
         [--timeout-ms MS] [--trace FILE] [--metrics]\n  \
         sta replay <case> <scenario> [--certify off|models|full] \
         [--timeout-ms MS]\n  sta assess <case>\n  \
         sta synthesize <case> <scenario> --budget N \
         [--reference-secured] [--measurements] [--paper-blocking] [--certify off|models|full] \
         [--trace FILE] [--metrics]\n  \
         sta campaign [<case>] [--jobs N] [--timeout-ms MS] [--certify off|models|full] \
         [--topology] [--force-timeout] [--out FILE] [--strip-timing] \
         [--trace FILE] [--metrics] [--profile]\n  \
         sta bench [--suite smoke|sweep|cegis|serve|scale|fig4|fig5|table4|ablation] \
         [--reps N] [--jobs N] [--out FILE] [--baseline FILE] [--against FILE] [--threshold PCT]\n  \
         sta serve --listen <path|host:port> [--jobs N] [--max-sessions K] \
         [--queue N] [--drain-ms MS]\n  \
         sta client <addr> ping|shutdown [--drain-ms MS]\n  \
         sta client <addr> stats [--json]\n  \
         sta client <addr> metrics [--json] [--format json|prometheus]\n  \
         sta client <addr> watch [--interval-ms MS]\n  \
         sta client <addr> verify|synthesize <case> <scenario> [--certify off|models|full] \
         [--timeout-ms MS] [--budget N] [--no-timing] [--trace]\n  \
         sta client <addr> campaign <case> [--workers N] [--timeout-ms MS] [--no-timing] [--trace]\n  \
         sta client <addr> raw '<json-line>'\n  \
         sta top <addr> [--interval-ms MS] [--once]\n  \
         sta lint [--json] [--fix-allowlist] [--root DIR]\n\
         exit codes: 0 = sat/success, 1 = unsat/no solution/perf regression/pinned verdict flipped/lint findings, 2 = usage error, 3 = unknown (budget exhausted)"
    );
    ExitCode::from(2)
}

fn parse_certify(v: &str) -> Result<CertifyLevel, String> {
    CertifyLevel::parse(v).ok_or_else(|| format!("--certify needs off|models|full, got {v:?}"))
}

/// Trailing flags of `verify` (and, minus observability, `replay`).
struct VerifyFlags {
    certify: CertifyLevel,
    timeout_ms: Option<u64>,
    trace: Option<String>,
    metrics: bool,
    profile: bool,
}

/// Parses the trailing flags verify/replay accept: `--certify`,
/// `--timeout-ms` (a CLI-level deadline overriding the scenario file's
/// own `timeout-ms`), and — when `observability` is allowed — `--trace`,
/// `--metrics`, and `--profile`.
fn verify_flags(args: &[String], observability: bool) -> Result<VerifyFlags, String> {
    let mut flags = VerifyFlags {
        certify: CertifyLevel::Off,
        timeout_ms: None,
        trace: None,
        metrics: false,
        profile: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--certify" => {
                let v = it.next().ok_or("--certify needs a value")?;
                flags.certify = parse_certify(v)?;
            }
            "--timeout-ms" => {
                let v = it.next().ok_or("--timeout-ms needs a value")?;
                flags.timeout_ms =
                    Some(v.parse().map_err(|_| "bad --timeout-ms value")?);
            }
            "--trace" if observability => {
                flags.trace =
                    Some(it.next().ok_or("--trace needs a file")?.clone());
            }
            "--metrics" if observability => flags.metrics = true,
            "--profile" if observability => flags.profile = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(flags)
}

fn load_scenario(spec: &str, sys: &TestSystem) -> Result<AttackModel, String> {
    if spec == "-" {
        return Ok(AttackModel::new(sys.grid.num_buses()));
    }
    let text = std::fs::read_to_string(spec)
        .map_err(|e| format!("cannot read scenario file {spec:?}: {e}"))?;
    scenario::parse(&text, sys.grid.num_buses(), sys.grid.num_lines())
        .map_err(|e| e.to_string())
}

fn cmd_case(args: &[String]) -> Result<ExitCode, String> {
    let name = args.first().ok_or("missing case name")?;
    let sys = caseformat::load(name)?;
    print!("{}", caseformat::write(&sys));
    Ok(ExitCode::SUCCESS)
}

fn cmd_verify(args: &[String]) -> Result<ExitCode, String> {
    let (case, scen) = two(args)?;
    let flags = verify_flags(&args[2..], true)?;
    let sys = caseformat::load(&case)?;
    let mut model = load_scenario(&scen, &sys)?;
    if flags.timeout_ms.is_some() {
        model.timeout_ms = flags.timeout_ms;
    }
    let mut verifier = AttackVerifier::new(&sys)
        .map_err(|e| format!("case {case}: {e}"))?
        .with_certify(flags.certify);
    let profiler = flags.profile.then(Profiler::new);
    if let Some(p) = &profiler {
        verifier = verifier.with_profiler(p.clone());
    }
    let report = verifier.verify_with_stats(&model);
    let verdict = match &report.outcome {
        AttackOutcome::Feasible(_) => "sat".to_string(),
        AttackOutcome::Infeasible => "unsat".to_string(),
        AttackOutcome::Unknown(why) => format!("unknown({why})"),
    };
    observe_one_shot(
        flags.trace.as_deref(),
        flags.metrics,
        &format!("verify:{case}"),
        &scen,
        &case,
        &verdict,
        &report.stats.metrics,
        &report.stats.timings,
    )?;
    if let Some(p) = &profiler {
        print!("{}", render_spans(&p.take()));
    }
    match &report.outcome {
        AttackOutcome::Feasible(v) => {
            println!("sat");
            println!("{v}");
            println!("solver: {}", report.stats);
            Ok(ExitCode::SUCCESS)
        }
        AttackOutcome::Infeasible => {
            println!("unsat — no attack satisfies the scenario");
            println!("solver: {}", report.stats);
            Ok(ExitCode::from(1))
        }
        AttackOutcome::Unknown(why) => {
            println!("unknown ({why}) — budget exhausted before a verdict; NOT unsat");
            println!("solver: {}", report.stats);
            Ok(ExitCode::from(3))
        }
    }
}

fn cmd_replay(args: &[String]) -> Result<ExitCode, String> {
    let (case, scen) = two(args)?;
    let flags = verify_flags(&args[2..], false)?;
    let sys = caseformat::load(&case)?;
    let mut model = load_scenario(&scen, &sys)?;
    if flags.timeout_ms.is_some() {
        model.timeout_ms = flags.timeout_ms;
    }
    let verifier = AttackVerifier::new(&sys)
        .map_err(|e| format!("case {case}: {e}"))?
        .with_certify(flags.certify);
    match verifier.verify(&model) {
        AttackOutcome::Feasible(v) => {
            println!("attack: {v}");
            let result = validation::replay_default(&sys, &v)
                .map_err(|e| e.to_string())?;
            println!("replay: {result}");
            println!(
                "stealthy: {}",
                if result.is_stealthy(1e-6) { "yes" } else { "NO (model bug?)" }
            );
            Ok(ExitCode::SUCCESS)
        }
        AttackOutcome::Infeasible => {
            println!("unsat — nothing to replay");
            Ok(ExitCode::from(1))
        }
        AttackOutcome::Unknown(why) => {
            println!("unknown ({why}) — budget exhausted; nothing to replay, but NOT unsat");
            Ok(ExitCode::from(3))
        }
    }
}

fn cmd_assess(args: &[String]) -> Result<ExitCode, String> {
    let case = args.first().ok_or("missing case")?;
    let sys = caseformat::load(case)?;
    let assessment = ThreatAnalyzer::new(&sys)
        .map_err(|e| format!("case {case}: {e}"))?
        .assess();
    print!("{assessment}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_synthesize(args: &[String]) -> Result<ExitCode, String> {
    let (case, scen) = two(args)?;
    let sys = caseformat::load(&case)?;
    let model = load_scenario(&scen, &sys)?;
    let mut budget: Option<usize> = None;
    let mut reference_secured = false;
    let mut measurements = false;
    let mut paper_blocking = false;
    let mut certify = CertifyLevel::Off;
    let mut trace: Option<String> = None;
    let mut metrics = false;
    let mut profile = false;
    let mut it = args[2..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--budget" => {
                let v = it.next().ok_or("--budget needs a value")?;
                budget = Some(v.parse().map_err(|_| "bad --budget value")?);
            }
            "--reference-secured" => reference_secured = true,
            "--measurements" => measurements = true,
            "--paper-blocking" => paper_blocking = true,
            "--certify" => {
                let v = it.next().ok_or("--certify needs a value")?;
                certify = parse_certify(v)?;
            }
            "--trace" => {
                trace = Some(it.next().ok_or("--trace needs a file")?.clone());
            }
            "--metrics" => metrics = true,
            "--profile" => profile = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let budget = budget.ok_or("missing --budget")?;
    if measurements && (trace.is_some() || metrics || profile) {
        return Err(
            "--trace/--metrics/--profile are not supported with --measurements".into(),
        );
    }
    let mut synth = Synthesizer::new(&sys)
        .map_err(|e| format!("case {case}: {e}"))?
        .with_certify(certify);
    let profiler = profile.then(Profiler::new);
    if let Some(p) = &profiler {
        synth = synth.with_profiler(p.clone());
    }
    if measurements {
        match synth.synthesize_measurements(&model, budget) {
            Some((set, iters)) => {
                let ids: Vec<String> =
                    set.iter().map(|m| (m.0 + 1).to_string()).collect();
                println!(
                    "secure measurements {{{}}} ({iters} iterations)",
                    ids.join(", ")
                );
                Ok(ExitCode::SUCCESS)
            }
            None => {
                println!("no measurement set within budget {budget} blocks the scenario");
                Ok(ExitCode::from(1))
            }
        }
    } else {
        let mut config = SynthesisConfig::with_budget(budget);
        if reference_secured {
            config = config.with_reference_secured();
        }
        if paper_blocking {
            config = config.paper_blocking();
        }
        let (outcome, obs) = synth.synthesize_with_metrics(&model, &config);
        let verdict = match &outcome {
            sta::core::SynthesisOutcome::Architecture(_) => "architecture",
            sta::core::SynthesisOutcome::NoSolution { .. } => "no-solution",
            sta::core::SynthesisOutcome::Inconclusive { .. } => "inconclusive",
        };
        observe_one_shot(
            trace.as_deref(),
            metrics,
            &format!("synthesize:{case}"),
            &scen,
            &case,
            verdict,
            &obs.metrics,
            &obs.timings,
        )?;
        if let Some(p) = &profiler {
            print!("{}", render_spans(&p.take()));
        }
        match outcome {
            sta::core::SynthesisOutcome::Architecture(arch) => {
                println!("{arch}");
                Ok(ExitCode::SUCCESS)
            }
            sta::core::SynthesisOutcome::NoSolution { iterations } => {
                println!(
                    "no architecture within budget {budget} ({iterations} iterations)"
                );
                Ok(ExitCode::from(1))
            }
            sta::core::SynthesisOutcome::Inconclusive { iterations } => {
                println!("inconclusive after {iterations} iterations");
                Ok(ExitCode::from(1))
            }
        }
    }
}

fn cmd_campaign(args: &[String]) -> Result<ExitCode, String> {
    let mut case_name = "ieee14".to_string();
    let mut jobs: usize = 4;
    let mut timeout_ms: Option<u64> = None;
    let mut certify = CertifyLevel::Off;
    let mut topology = false;
    let mut force_timeout = false;
    let mut out_file: Option<String> = None;
    let mut strip_timing = false;
    let mut trace: Option<String> = None;
    let mut metrics = false;
    let mut profile = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => {
                trace = Some(it.next().ok_or("--trace needs a file")?.clone());
            }
            "--metrics" => metrics = true,
            "--profile" => profile = true,
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                jobs = v.parse().map_err(|_| "bad --jobs value")?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--timeout-ms" => {
                let v = it.next().ok_or("--timeout-ms needs a value")?;
                timeout_ms =
                    Some(v.parse().map_err(|_| "bad --timeout-ms value")?);
            }
            "--certify" => {
                let v = it.next().ok_or("--certify needs a value")?;
                certify = parse_certify(v)?;
            }
            "--topology" => topology = true,
            "--force-timeout" => force_timeout = true,
            "--out" => {
                out_file = Some(it.next().ok_or("--out needs a file")?.clone());
            }
            "--strip-timing" => strip_timing = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag:?}"));
            }
            name => case_name = name.to_string(),
        }
    }
    let sys = caseformat::load(&case_name)?;
    let num_buses = sys.grid.num_buses();
    let mut spec = CampaignSpec::standard_sweep(&case_name, sys);
    if topology {
        // Extend the sweep with topology-poisoning variants of each target.
        for t in [num_buses / 4, num_buses / 2, (3 * num_buses) / 4, num_buses - 1] {
            spec.verify(
                0,
                format!("state={} topology", t + 1),
                AttackModel::new(num_buses)
                    .target(sta::grid::BusId(t), StateTarget::MustChange)
                    .with_topology_attack(),
            );
        }
    }
    if force_timeout {
        // An unconstrained scenario with an already-expired deadline:
        // exercises cancellation without slowing the sweep down.
        let doomed = spec.verify(0, "forced-timeout", AttackModel::new(num_buses));
        spec.set_job_timeout_ms(doomed, 0);
    }
    if let Some(ms) = timeout_ms {
        spec = spec.with_timeout_ms(ms);
    }
    spec = spec.with_certify(certify);
    let sink = match &trace {
        Some(path) => Some(SharedSink::new(Box::new(open_trace(path)?))),
        None => None,
    };
    let options = RunOptions {
        workers: jobs,
        profile,
        progress: profile,
        ..RunOptions::default()
    };
    let report = run_campaign(&spec, &options, sink.as_ref());
    drop(sink); // flush the trace file before reporting
    if let Some(message) = report.input_error() {
        return Err(message);
    }
    print!("{}", report.table());
    if metrics {
        print_metrics(&report.metrics_rollup(), &report.timings_rollup());
    }
    if profile {
        print!("{}", render_spans(&report.merged_spans()));
    }
    if let Some(path) = out_file {
        let json = report.to_json(!strip_timing);
        std::fs::write(&path, json)
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        println!("report written to {path}");
    }
    if report.any_unknown() {
        println!("at least one job ran out of budget (unknown) — NOT unsat");
        Ok(ExitCode::from(3))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn cmd_bench(args: &[String]) -> Result<ExitCode, String> {
    let mut suite_name = "smoke".to_string();
    let mut reps: usize = 3;
    let mut jobs: usize = 1;
    let mut out_file: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut against: Option<String> = None;
    let mut threshold_pct: f64 = 50.0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--suite" => {
                suite_name = it.next().ok_or("--suite needs a value")?.clone();
            }
            "--reps" => {
                let v = it.next().ok_or("--reps needs a value")?;
                reps = v.parse().map_err(|_| "bad --reps value")?;
                if reps == 0 {
                    return Err("--reps must be at least 1".into());
                }
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                jobs = v.parse().map_err(|_| "bad --jobs value")?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--out" => {
                out_file = Some(it.next().ok_or("--out needs a file")?.clone());
            }
            "--baseline" => {
                baseline = Some(it.next().ok_or("--baseline needs a file")?.clone());
            }
            "--against" => {
                against = Some(it.next().ok_or("--against needs a file")?.clone());
            }
            "--threshold" => {
                let v = it.next().ok_or("--threshold needs a value")?;
                threshold_pct = v.parse().map_err(|_| "bad --threshold value")?;
                if !threshold_pct.is_finite() || threshold_pct < 0.0 {
                    return Err("bad --threshold value".into());
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let read_result = |path: &str| -> Result<bench::BenchResult, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read bench file {path:?}: {e}"))?;
        bench::parse_result(&text).map_err(|e| format!("{path}: {e}"))
    };
    let candidate = match &against {
        Some(path) => {
            // Pure file-vs-file comparison: no suite runs, nothing is
            // written. `--baseline F --against F` is the deterministic
            // self-diff used by CI to validate schema and diff path.
            if baseline.is_none() {
                return Err("--against requires --baseline".into());
            }
            read_result(path)?
        }
        None => {
            // The serve suite boots its own in-process server per rep,
            // and the scale suite times estimator calls outside the
            // pool, so both live outside the campaign-spec registry.
            let result = if suite_name == "serve" {
                sta::serve::bench::run_serve_suite(reps, jobs)?
            } else if suite_name == "scale" {
                bench::run_scale_suite(reps, jobs)?
            } else if let Some(panels) = paper::suite(&suite_name) {
                // A paper suite prints its figure tables; a job whose
                // verdict breaks its pin fails the run like a regression.
                match paper::run(&suite_name, &panels, reps, jobs) {
                    Ok(run) => {
                        print!("{}", run.tables);
                        run.result
                    }
                    Err(violations) => {
                        eprintln!("error: {violations}");
                        return Ok(ExitCode::from(1));
                    }
                }
            } else {
                let spec = bench::suite(&suite_name).ok_or_else(|| {
                    format!(
                        "unknown suite {suite_name:?} (expected one of: {}, serve, scale, {})",
                        bench::suite_names().join(", "),
                        paper::SUITES.join(", ")
                    )
                })?;
                bench::run_suite(&suite_name, &spec, reps, jobs)
            };
            let path = out_file
                .unwrap_or_else(|| format!("BENCH_{suite_name}.json"));
            std::fs::write(&path, result.to_json())
                .map_err(|e| format!("cannot write {path:?}: {e}"))?;
            println!("bench written to {path} ({} jobs, {reps} reps)", result.jobs.len());
            result
        }
    };
    if let Some(path) = baseline {
        let base = read_result(&path)?;
        let d = bench::diff(&base, &candidate, threshold_pct);
        print!("{}", d.table());
        if d.regressed() {
            println!("perf regression vs {path} (threshold {threshold_pct}%)");
            return Ok(ExitCode::from(1));
        }
        println!("no regression vs {path} (threshold {threshold_pct}%)");
    }
    Ok(ExitCode::SUCCESS)
}

/// Finds the workspace root by walking upward from the current directory
/// until a `Cargo.toml` next to a `crates/analysis` directory appears.
fn find_workspace_root() -> Result<std::path::PathBuf, String> {
    let mut dir = std::env::current_dir()
        .map_err(|e| format!("cannot read current directory: {e}"))?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates/analysis").is_dir() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err("not inside the sta workspace (pass --root DIR)".into());
        }
    }
}

/// `sta lint [--json] [--fix-allowlist] [--root DIR]` — run the in-tree
/// invariant analyzer (see `sta::analysis` and DESIGN.md §13).
/// Exit 0 = clean, 1 = findings, 2 = usage error.
fn cmd_lint(args: &[String]) -> Result<ExitCode, String> {
    let mut json = false;
    let mut fix = false;
    let mut root: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--fix-allowlist" => fix = true,
            "--root" => {
                root = Some(it.next().ok_or("--root needs a directory")?.clone());
            }
            other => return Err(format!("unknown lint flag {other:?}")),
        }
    }
    let root = match root {
        Some(r) => std::path::PathBuf::from(r),
        None => find_workspace_root()?,
    };
    let analysis = sta::analysis::analyze(&root)?;
    if json {
        print!("{}", analysis.to_json());
    } else if analysis.is_clean() {
        println!("lint: clean ({} files scanned)", analysis.files_scanned);
    } else {
        print!("{}", analysis.table());
        println!(
            "lint: {} finding(s) across {} files",
            analysis.findings.len(),
            analysis.files_scanned
        );
    }
    if fix && !analysis.is_clean() {
        print!("{}", analysis.fix_suggestions());
    }
    Ok(if analysis.is_clean() { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

/// `sta serve --listen <addr>` — run the persistent threat-analytics
/// service until a client sends `shutdown` (see DESIGN.md §14). Blocks
/// the calling terminal; pair with `sta client` from another shell.
fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let mut listen: Option<String> = None;
    let mut config_jobs: usize = 4;
    let mut max_sessions: usize = 8;
    let mut queue: usize = 32;
    let mut drain_ms: u64 = 2000;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--listen" => {
                listen = Some(it.next().ok_or("--listen needs an address")?.clone());
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                config_jobs = v.parse().map_err(|_| "bad --jobs value")?;
                if config_jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--max-sessions" => {
                let v = it.next().ok_or("--max-sessions needs a value")?;
                max_sessions = v.parse().map_err(|_| "bad --max-sessions value")?;
                if max_sessions == 0 {
                    return Err("--max-sessions must be at least 1".into());
                }
            }
            "--queue" => {
                let v = it.next().ok_or("--queue needs a value")?;
                queue = v.parse().map_err(|_| "bad --queue value")?;
                if queue == 0 {
                    return Err("--queue must be at least 1".into());
                }
            }
            "--drain-ms" => {
                let v = it.next().ok_or("--drain-ms needs a value")?;
                drain_ms = v.parse().map_err(|_| "bad --drain-ms value")?;
            }
            other => return Err(format!("unknown serve flag {other:?}")),
        }
    }
    let listen = listen.ok_or("serve needs --listen <path|host:port>")?;
    let mut config = sta::serve::ServeConfig::new(listen);
    config.jobs = config_jobs;
    config.max_sessions = max_sessions;
    config.queue = queue;
    config.drain_ms = drain_ms;
    let server = sta::serve::Server::bind(config)?;
    println!("listening on {}", server.local_addr());
    server.run()?;
    Ok(ExitCode::SUCCESS)
}

/// Builds the JSONL request line of a `sta client` query operation.
fn client_query_line(op: &str, args: &[String]) -> Result<String, String> {
    use sta::smt::json::escape_into;
    use std::fmt::Write as _;
    let case = args.first().ok_or_else(|| format!("client {op} needs <case>"))?;
    let (scenario_spec, rest) = if op == "campaign" {
        (None, &args[1..])
    } else {
        let scen = args.get(1).ok_or_else(|| format!("client {op} needs <scenario>"))?;
        (Some(scen.clone()), &args[2..])
    };
    let mut line = String::from("{\"id\":\"cli\",\"op\":");
    escape_into(op, &mut line);
    line.push_str(",\"case\":");
    escape_into(case, &mut line);
    if let Some(spec) = scenario_spec {
        if spec != "-" {
            let text = std::fs::read_to_string(&spec)
                .map_err(|e| format!("cannot read scenario file {spec:?}: {e}"))?;
            line.push_str(",\"scenario\":");
            escape_into(&text, &mut line);
        }
    }
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--certify" => {
                let level = parse_certify(it.next().ok_or("--certify needs a value")?)?;
                let _ = write!(line, ",\"certify\":\"{}\"", level.token());
            }
            "--timeout-ms" => {
                let v = it.next().ok_or("--timeout-ms needs a value")?;
                let ms: u64 = v.parse().map_err(|_| "bad --timeout-ms value")?;
                let _ = write!(line, ",\"timeout_ms\":{ms}");
            }
            "--budget" => {
                let v = it.next().ok_or("--budget needs a value")?;
                let n: u64 = v.parse().map_err(|_| "bad --budget value")?;
                let _ = write!(line, ",\"budget\":{n}");
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                let n: u64 = v.parse().map_err(|_| "bad --workers value")?;
                let _ = write!(line, ",\"workers\":{n}");
            }
            "--no-timing" => line.push_str(",\"timing\":false"),
            "--trace" => line.push_str(",\"trace\":true"),
            other => return Err(format!("unknown client flag {other:?}")),
        }
    }
    line.push('}');
    Ok(line)
}

/// `sta client <addr> <op> ...` — send one request to a running
/// `sta serve` instance, print every reply line, and exit with the same
/// 0/1/2/3 verdict contract as the one-shot commands.
fn cmd_client(args: &[String]) -> Result<ExitCode, String> {
    let addr = args.first().ok_or("client needs <addr>")?;
    let op = args.get(1).ok_or("client needs an operation")?;
    let rest = &args[2..];
    let line = match op.as_str() {
        "ping" => {
            if !rest.is_empty() {
                return Err(format!("client {op} takes no further arguments"));
            }
            format!("{{\"id\":\"cli\",\"op\":\"{op}\"}}")
        }
        "stats" => {
            let mut raw = false;
            for flag in rest {
                match flag.as_str() {
                    "--json" => raw = true,
                    other => return Err(format!("unknown client flag {other:?}")),
                }
            }
            let lines =
                sta::serve::client::request(addr, "{\"id\":\"cli\",\"op\":\"stats\"}")?;
            let last = lines.last().ok_or("empty reply")?;
            let code = sta::serve::client::exit_code(last);
            if raw || code != 0 {
                for l in &lines {
                    println!("{l}");
                }
            } else {
                let doc = sta::smt::json::parse(last)
                    .map_err(|e| format!("unparsable stats reply: {e}"))?;
                print!("{}", sta::serve::top::render_stats(&doc));
            }
            return Ok(ExitCode::from(code));
        }
        "metrics" => {
            let mut raw = false;
            let mut format = "json".to_string();
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--json" => raw = true,
                    "--format" => {
                        format = it.next().ok_or("--format needs a value")?.clone();
                    }
                    other => return Err(format!("unknown client flag {other:?}")),
                }
            }
            if format != "json" && format != "prometheus" {
                return Err(format!("--format needs json|prometheus, got {format:?}"));
            }
            let line =
                format!("{{\"id\":\"cli\",\"op\":\"metrics\",\"format\":\"{format}\"}}");
            let lines = sta::serve::client::request(addr, &line)?;
            let last = lines.last().ok_or("empty reply")?;
            let code = sta::serve::client::exit_code(last);
            if raw || code != 0 {
                for l in &lines {
                    println!("{l}");
                }
            } else {
                let doc = sta::smt::json::parse(last)
                    .map_err(|e| format!("unparsable metrics reply: {e}"))?;
                if format == "prometheus" {
                    // Unwrap the exposition text from its JSONL envelope.
                    let body = doc
                        .get("body")
                        .and_then(sta::smt::json::Json::as_str)
                        .ok_or("metrics reply has no body")?;
                    print!("{body}");
                } else {
                    let metrics =
                        doc.get("metrics").ok_or("metrics reply has no metrics object")?;
                    print!("{}", sta::serve::top::render_frame(metrics));
                }
            }
            return Ok(ExitCode::from(code));
        }
        "watch" => {
            let mut interval_ms: u64 = 1000;
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--interval-ms" => {
                        let v = it.next().ok_or("--interval-ms needs a value")?;
                        interval_ms =
                            v.parse().map_err(|_| "bad --interval-ms value")?;
                        if interval_ms == 0 {
                            return Err("--interval-ms must be a positive integer".into());
                        }
                    }
                    other => return Err(format!("unknown client flag {other:?}")),
                }
            }
            let line = format!(
                "{{\"id\":\"cli\",\"op\":\"watch\",\"interval_ms\":{interval_ms}}}"
            );
            let final_line = sta::serve::client::stream(addr, &line, |l| {
                println!("{l}");
                true
            })?;
            return Ok(match final_line {
                Some(l) => {
                    println!("{l}");
                    ExitCode::from(sta::serve::client::exit_code(&l))
                }
                None => ExitCode::SUCCESS,
            });
        }
        "shutdown" => {
            let mut line = String::from("{\"id\":\"cli\",\"op\":\"shutdown\"");
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--drain-ms" => {
                        use std::fmt::Write as _;
                        let v = it.next().ok_or("--drain-ms needs a value")?;
                        let ms: u64 = v.parse().map_err(|_| "bad --drain-ms value")?;
                        let _ = write!(line, ",\"drain_ms\":{ms}");
                    }
                    other => return Err(format!("unknown client flag {other:?}")),
                }
            }
            line.push('}');
            line
        }
        "raw" => rest.first().ok_or("client raw needs a JSON line")?.clone(),
        "verify" | "synthesize" | "campaign" => client_query_line(op, rest)?,
        other => return Err(format!("unknown client operation {other:?}")),
    };
    let lines = sta::serve::client::request(addr, &line)?;
    for l in &lines {
        println!("{l}");
    }
    let code = lines.last().map(|l| sta::serve::client::exit_code(l)).unwrap_or(2);
    Ok(ExitCode::from(code))
}

/// `sta top <addr> [--interval-ms MS] [--once]` — live terminal
/// dashboard over a `watch` subscription: each snapshot clears the
/// screen and redraws queue depth, worker occupancy, cache temperature
/// and per-op latency percentiles. `--once` fetches a single `metrics`
/// snapshot and prints one frame without clearing — the scripting mode.
/// Runs until the server drains (final frame stays up) or ^C.
fn cmd_top(args: &[String]) -> Result<ExitCode, String> {
    use sta::serve::{client, top};
    use sta::smt::json::parse;
    let addr = args.first().ok_or("top needs <addr>")?;
    let mut interval_ms: u64 = 1000;
    let mut once = false;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--interval-ms" => {
                let v = it.next().ok_or("--interval-ms needs a value")?;
                interval_ms = v.parse().map_err(|_| "bad --interval-ms value")?;
                if interval_ms == 0 {
                    return Err("--interval-ms must be a positive integer".into());
                }
            }
            "--once" => once = true,
            other => return Err(format!("unknown top flag {other:?}")),
        }
    }
    if once {
        let lines =
            client::request(addr, "{\"id\":\"top\",\"op\":\"metrics\",\"format\":\"json\"}")?;
        let last = lines.last().ok_or("empty reply")?;
        let code = client::exit_code(last);
        if code != 0 {
            for l in &lines {
                println!("{l}");
            }
            return Ok(ExitCode::from(code));
        }
        let doc =
            parse(last).map_err(|e| format!("unparsable metrics reply: {e}"))?;
        let metrics = doc.get("metrics").ok_or("metrics reply has no metrics object")?;
        print!("{}", top::render_frame(metrics));
        return Ok(ExitCode::SUCCESS);
    }
    let line =
        format!("{{\"id\":\"top\",\"op\":\"watch\",\"interval_ms\":{interval_ms}}}");
    let final_line = client::stream(addr, &line, |l| {
        if let Ok(doc) = parse(l) {
            if let Some(metrics) = doc.get("metrics") {
                print!("{}{}", top::CLEAR, top::render_frame(metrics));
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
            }
        }
        true
    })?;
    if let Some(l) = final_line {
        let code = client::exit_code(&l);
        if code == 0 {
            if let Ok(doc) = parse(&l) {
                if let Some(snap) = doc.get("final_snapshot") {
                    print!("{}{}", top::CLEAR, top::render_frame(snap));
                }
            }
            println!("server draining — watch closed");
        } else {
            println!("{l}");
        }
        return Ok(ExitCode::from(code));
    }
    Ok(ExitCode::SUCCESS)
}

fn two(args: &[String]) -> Result<(String, String), String> {
    match (args.first(), args.get(1)) {
        (Some(a), Some(b)) => Ok((a.clone(), b.clone())),
        _ => Err("expected <case> <scenario>".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "case" => cmd_case(rest),
        "verify" => cmd_verify(rest),
        "replay" => cmd_replay(rest),
        "assess" => cmd_assess(rest),
        "synthesize" => cmd_synthesize(rest),
        "campaign" => cmd_campaign(rest),
        "bench" => cmd_bench(rest),
        "serve" => cmd_serve(rest),
        "client" => cmd_client(rest),
        "top" => cmd_top(rest),
        "lint" => cmd_lint(rest),
        "--help" | "-h" | "help" => return usage(),
        other => {
            eprintln!("unknown command {other:?}");
            return usage();
        }
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
