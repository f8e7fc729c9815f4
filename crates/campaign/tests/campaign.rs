//! Campaign-engine integration tests: scheduling determinism and deadline
//! behavior over the real IEEE 14-bus encoding.

use sta_campaign::{run, run_traced, run_with, CampaignSpec, RunOptions, Verdict};
use sta_core::attack::{AttackModel, AttackVerifier, StateTarget};
use sta_core::synthesis::SynthesisConfig;
use sta_grid::{ieee14, BusId};
use sta_smt::{CollectSink, SharedSink, TraceEvent};
use std::time::Instant;

/// A mixed campaign touching every job shape: sat/unsat verification,
/// topology poisoning, knowledge limits, and a synthesis job.
fn mixed_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new("mixed");
    let case = spec.add_case("ieee14", ieee14::system());
    let unsecured = spec.add_case("ieee14-unsecured", ieee14::system_unsecured());
    for (i, t) in [3usize, 7, 11].into_iter().enumerate() {
        spec.verify(
            case,
            format!("open-{i}"),
            AttackModel::new(14).target(BusId(t), StateTarget::MustChange),
        );
        spec.verify(
            case,
            format!("capped-{i}"),
            AttackModel::new(14)
                .target(BusId(t), StateTarget::MustChange)
                .max_altered_measurements(10)
                .max_compromised_buses(4),
        );
    }
    spec.verify(case, "blocked", AttackModel::new(14).max_altered_measurements(0));
    spec.verify(
        case,
        "limited-knowledge",
        AttackModel::new(14).unknown_lines(20, &[2, 16]),
    );
    spec.verify(
        unsecured,
        "topology",
        AttackModel::new(14)
            .target(BusId(11), StateTarget::MustChange)
            .with_topology_attack(),
    );
    spec.synthesize(
        case,
        "synth-budget-3",
        AttackModel::new(14)
            .target(BusId(11), StateTarget::MustChange)
            .max_altered_measurements(8),
        SynthesisConfig::with_budget(3),
    );
    spec
}

/// Satellite: the same spec at 1 worker and at 8 workers must produce
/// byte-identical reports once the `timing` keys are stripped — witness
/// bytes, stats and ordering included.
#[test]
fn reports_are_byte_identical_across_worker_counts() {
    let spec = mixed_spec();
    let serial = run(&spec, 1);
    let parallel = run(&spec, 8);
    assert_eq!(serial.workers, 1);
    assert!(parallel.workers > 1);
    let a = serial.to_json(false);
    let b = parallel.to_json(false);
    assert_eq!(a, b, "deterministic JSON must not depend on scheduling");
    // Sanity: the timing-bearing form really differs in content shape.
    assert!(serial.to_json(true).contains("\"timing\""));
    // And the campaign actually exercised both polarities.
    assert!(a.contains("\"verdict\":\"sat\""));
    assert!(a.contains("\"verdict\":\"unsat\""));
    assert!(a.contains("\"verdict\":\"architecture\""));
}

/// Satellite: the per-phase counter rollup is part of the deterministic
/// report — identical at 1 and 4 workers, both as a struct and byte for
/// byte in the stripped JSON, and nontrivial (the campaign really ran).
#[test]
fn metrics_rollup_is_byte_identical_across_worker_counts() {
    let spec = mixed_spec();
    let serial = run(&spec, 1);
    let parallel = run(&spec, 4);
    let a = serial.metrics_rollup();
    let b = parallel.metrics_rollup();
    assert_eq!(a, b, "counter rollup must not depend on scheduling");
    assert_eq!(a.to_json(), b.to_json());
    assert!(a.decisions > 0 && a.clauses > 0 && a.pivots > 0, "{a:?}");
    // Every job carries its own metrics, and the deterministic JSON
    // embeds both the per-job objects and the campaign rollup.
    assert!(serial.results.iter().all(|r| r.metrics.is_some()));
    let json = serial.to_json(false);
    assert!(json.contains("\"metrics\":{\"encode\":"));
    assert!(json.contains(&format!(",\"metrics\":{}", a.to_json())));
    // The latency histogram's deterministic half — per-phase sample
    // counts — closes the stripped report: one wall sample per job, one
    // encode/search sample per phase-tracked job.
    let n = spec.jobs.len() as u64;
    assert!(json.ends_with(&format!(
        ",\"latency_samples\":{{\"wall\":{n},\"encode\":{n},\"search\":{n}}}}}"
    )));
    assert_eq!(
        serial.latency_sample_counts(),
        parallel.latency_sample_counts(),
        "histogram sample counts must not depend on scheduling"
    );
    // The bucket contents are wall clock: they live under `timing` only.
    assert!(!json.contains("\"buckets\""));
    let timed = serial.to_json(true);
    assert!(timed.contains("\"latency\":{\"wall\":{\"count\":"));
    assert!(timed.contains("\"p99_us\""));
}

/// Tentpole: `run_traced` streams a well-formed event sequence — one
/// run-start/run-end bracket, and a contiguous job-start → phase× →
/// job-end batch per job.
#[test]
fn traced_run_emits_contiguous_job_batches() {
    let spec = mixed_spec();
    let collect = CollectSink::new();
    let sink = SharedSink::new(Box::new(collect.clone()));
    let report = run_traced(&spec, 4, Some(&sink));
    let events = collect.events();
    assert!(matches!(&events[0], TraceEvent::RunStart { jobs, .. } if *jobs == spec.jobs.len()));
    assert!(matches!(events.last(), Some(TraceEvent::RunEnd { .. })));
    // Each job's batch is contiguous: job-start, its phase records, then
    // its job-end, with no other job's events interleaved.
    let mut open: Option<usize> = None;
    let mut ended = 0usize;
    for ev in &events[1..events.len() - 1] {
        match ev {
            TraceEvent::JobStart { job, .. } => {
                assert_eq!(open, None, "job {job} started inside another batch");
                open = Some(*job);
            }
            TraceEvent::Phase { job, .. } => assert_eq!(open, Some(*job)),
            TraceEvent::JobEnd { job, verdict, .. } => {
                assert_eq!(open, Some(*job));
                assert!(!verdict.is_empty());
                open = None;
                ended += 1;
            }
            other => panic!("unexpected event inside run: {other:?}"),
        }
    }
    assert_eq!(open, None);
    assert_eq!(ended, spec.jobs.len());
    // The trace carries real counters and the cache behavior the
    // deterministic report deliberately omits.
    let phase_json: Vec<String> = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Phase { .. }))
        .map(|e| e.to_json())
        .collect();
    assert!(phase_json.iter().any(|j| j.contains("\"phase\":\"search\"")));
    assert!(phase_json.iter().any(|j| j.contains("\"cache_hits\":")));
    // The traced report matches the untraced one byte for byte.
    assert_eq!(report.to_json(false), run(&spec, 1).to_json(false));
}

/// Tentpole: a profiled run attaches a span tree to every job — `verify`
/// wrapping `encode`/`search` for verification jobs, `iterate`/`select`
/// for synthesis — streams span and progress events into the trace, and
/// leaves the deterministic report untouched.
#[test]
fn profiled_run_collects_spans_and_progress() {
    let spec = mixed_spec();
    let collect = CollectSink::new();
    let sink = SharedSink::new(Box::new(collect.clone()));
    let options = RunOptions {
        workers: 2,
        profile: true,
        progress: true,
        ..RunOptions::default()
    };
    let report = run_with(&spec, &options, Some(&sink));
    // Observation must not perturb the deterministic output.
    assert_eq!(report.to_json(false), run(&spec, 1).to_json(false));
    assert!(report.results.iter().all(|r| r.spans.is_some()));
    let merged = report.merged_spans();
    let verify = merged
        .iter()
        .find(|n| n.name == "verify")
        .expect("verify root span");
    assert!(verify.children.iter().any(|n| n.name == "encode"));
    assert!(verify.children.iter().any(|n| n.name == "search"));
    let iterate = merged
        .iter()
        .find(|n| n.name == "iterate")
        .expect("synthesis iterate span");
    assert!(iterate.children.iter().any(|n| n.name == "select"));
    // The trace stream carries per-job span paths and sampled progress
    // timelines alongside the usual phase records.
    let events = collect.events();
    assert!(events.iter().any(
        |e| matches!(e, TraceEvent::Span { path, .. } if path == "verify/encode/delta")
    ));
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::Progress { .. })));
    // An unprofiled run attaches nothing.
    assert!(run(&spec, 2).results.iter().all(|r| r.spans.is_none()));
}

/// Satellite: worker-count edge cases — one worker, and more workers than
/// jobs — complete every job and agree with each other.
#[test]
fn worker_count_edge_cases_complete_all_jobs() {
    let spec = mixed_spec();
    let one = run(&spec, 1);
    let many = run(&spec, spec.jobs.len() + 50);
    assert_eq!(one.results.len(), spec.jobs.len());
    assert_eq!(many.results.len(), spec.jobs.len());
    assert_eq!(many.workers, spec.jobs.len(), "workers clamp to the job count");
    assert_eq!(one.to_json(false), many.to_json(false));
}

/// Campaign verdicts agree with the one-shot verifier path.
#[test]
fn campaign_verdicts_match_one_shot_verification() {
    let spec = mixed_spec();
    let report = run(&spec, 4);
    for (job, result) in spec.jobs.iter().zip(&report.results) {
        if let sta_campaign::JobKind::Verify(model) = &job.kind {
            let sys = &spec.cases[job.case].system;
            let expected = AttackVerifier::new(sys).unwrap().verify(model).is_feasible();
            assert_eq!(
                result.verdict == Verdict::Sat,
                expected,
                "job {} ({})",
                result.id,
                result.label
            );
        }
    }
}

/// A job with an already-expired deadline reports `unknown(timeout)`
/// promptly, and its worker carries on with the remaining jobs.
#[test]
fn expired_deadline_job_times_out_and_pool_continues() {
    let mut spec = CampaignSpec::new("deadline");
    let case = spec.add_case("ieee14", ieee14::system());
    let doomed = spec.verify(case, "doomed", AttackModel::new(14));
    spec.verify(
        case,
        "fine",
        AttackModel::new(14).target(BusId(11), StateTarget::MustChange),
    );
    spec.set_job_timeout_ms(doomed, 0);
    let start = Instant::now();
    let report = run(&spec, 1);
    assert!(report.results[0].verdict.is_unknown(), "{:?}", report.results[0].verdict);
    assert_eq!(report.results[1].verdict, Verdict::Sat);
    assert!(report.any_unknown());
    // The doomed job must die at the first budget poll, not after a full
    // solve; the whole 2-job campaign staying under 30 s (debug builds
    // are slow, but the doomed job itself is near-instant) is ample.
    assert!(start.elapsed().as_secs() < 30, "{:?}", start.elapsed());
    let json = report.to_json(true);
    assert!(json.contains("\"verdict\":\"unknown(timeout)\""));
}

/// A campaign-wide default deadline applies to jobs without their own,
/// and a generous deadline changes nothing about the verdicts.
#[test]
fn campaign_default_timeout_is_inherited_and_generous_deadline_is_harmless() {
    let mut spec = CampaignSpec::new("inherit");
    let case = spec.add_case("ieee14", ieee14::system());
    spec.verify(case, "a", AttackModel::new(14));
    spec.verify(case, "b", AttackModel::new(14).max_altered_measurements(0));
    let spec = spec.with_timeout_ms(600_000);
    let report = run(&spec, 2);
    assert_eq!(report.results[0].verdict, Verdict::Sat);
    assert_eq!(report.results[1].verdict, Verdict::Unsat);
    assert!(!report.any_unknown());
}

/// Certified campaigns: every verification job's answer is certified and
/// the deny-mode lint stays clean, across both worker counts.
#[test]
fn certified_campaign_certifies_every_job() {
    let mut spec = CampaignSpec::new("certified");
    let case = spec.add_case("ieee14", ieee14::system());
    spec.verify(
        case,
        "sat",
        AttackModel::new(14).target(BusId(11), StateTarget::MustChange),
    );
    spec.verify(case, "unsat", AttackModel::new(14).max_altered_measurements(0));
    let spec = spec.with_certify(sta_smt::CertifyLevel::Full);
    for workers in [1, 2] {
        let report = run(&spec, workers);
        for r in &report.results {
            let stats = r.stats.as_ref().expect("verification jobs carry stats");
            assert!(stats.certified, "job {} uncertified", r.id);
            assert_eq!(stats.lint_errors, 0);
            if r.verdict == Verdict::Unsat {
                assert!(stats.proof_steps > 0, "unsat proof must replay");
            }
        }
    }
}

/// A case whose in-service lines island the grid has no operating point:
/// each of its jobs reports `no-operating-point` instead of panicking its
/// worker, jobs on a healthy case in the same campaign still run, and
/// the report names the case for the front ends' input error.
#[test]
fn islanded_case_jobs_report_no_operating_point() {
    use sta_estimator::PowerFlowError;
    let mut islanded = ieee14::system();
    // Line 7–8 is bus 8's only connection.
    islanded.topology = islanded.topology.with_line_open(sta_grid::LineId(13));
    let mut spec = CampaignSpec::new("islanded");
    let bad = spec.add_case("ieee14-islanded", islanded);
    let good = spec.add_case("ieee14", ieee14::system());
    spec.verify(bad, "verify", AttackModel::new(14));
    spec.synthesize(bad, "synthesize", AttackModel::new(14), SynthesisConfig::with_budget(2));
    spec.verify(good, "verify", AttackModel::new(14));
    let report = run(&spec, 2);
    let islanded = Verdict::NoOperatingPoint(PowerFlowError::Islanded { islands: 2 });
    assert_eq!(report.results[0].verdict, islanded);
    assert_eq!(report.results[1].verdict, islanded);
    assert_eq!(report.results[2].verdict, Verdict::Sat);
    assert!(report.to_json(false).contains("\"verdict\":\"no-operating-point\""));
    let message = report.input_error().expect("the islanded case is reported");
    assert!(message.starts_with("case ieee14-islanded:"), "{message}");
    assert!(message.contains("2 islands"), "{message}");
    assert_eq!(run(&mixed_spec(), 2).input_error(), None);
}
