//! One outcome model behind every front end: `sta verify`/`synthesize`,
//! a campaign job, `sta serve` and `sta client` must agree on the verdict
//! token, the witness and architecture JSON, and the exit code — and all
//! of them must pick a check's deadline by the same rule: the caller's
//! deadline wins, the scenario's own `timeout-ms` applies only without
//! one.

use sta::campaign::{run, CampaignSpec, JobResult};
use sta::core::attack::{AttackModel, StateTarget};
use sta::core::scenario;
use sta::core::synthesis::SynthesisConfig;
use sta::grid::{ieee14, BusId};
use sta::serve::bench::unique_listen_addr;
use sta::serve::{client, spawn, ServeConfig};
use sta::smt::json::{escape_into, parse, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

/// A deadline long enough never to expire in a test run.
const LONG_MS: u64 = 600_000;

/// The attacker of the synthesis cases: state 12 on the unsecured
/// 14-bus case, at most 8 altered measurements (budget 3 blocks it).
fn attacker() -> AttackModel {
    AttackModel::new(14)
        .target(BusId(11), StateTarget::MustChange)
        .max_altered_measurements(8)
}

/// A `verify` or `synthesize` request line with an inline scenario.
fn request(op: &str, case: &str, model: &AttackModel, extra: &str) -> String {
    let mut line = format!("{{\"id\":\"{op}\",\"op\":\"{op}\",\"case\":\"{case}\",\"scenario\":");
    escape_into(&scenario::write(model), &mut line);
    line.push_str(extra);
    line.push_str(",\"timing\":false}");
    line
}

/// The final reply line of one request.
fn reply(addr: &str, line: &str) -> String {
    let lines = client::request(addr, line).expect("a whole reply arrives");
    lines.last().expect("a final line").clone()
}

/// The `verdict` of a reply or report entry.
fn verdict_of(json: &str) -> String {
    let doc = parse(json).unwrap_or_else(|e| panic!("{json}: {e}"));
    doc.get("verdict").and_then(Json::as_str).expect("a verdict").to_string()
}

/// The raw text of the JSON value under the first `"key":` in `json`:
/// an object or array up to its matching bracket, else up to the next
/// `,` or `}` — byte for byte, for comparing fragments across writers.
fn fragment<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let start = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &json[start..];
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (i, c) in rest.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            _ if in_string => {}
            '{' | '[' => depth += 1,
            '}' | ']' if depth > 0 => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[..=i]);
                }
            }
            ',' | '}' if depth == 0 => return Some(&rest[..i]),
            _ => {}
        }
    }
    None
}

#[test]
fn the_callers_deadline_wins_and_the_scenarios_applies_only_without_one() {
    let server = spawn(ServeConfig::new(unique_listen_addr("deadline-rule"))).expect("boots");
    let addr = server.addr().to_string();
    let open = attacker();

    // `sta serve`: the request's `timeout_ms` against the scenario's
    // `timeout-ms`, both ways round, for both query ops.
    let serve = |op: &str, request_ms: u64, scenario_ms: u64| -> String {
        let model = open.clone().with_timeout_ms(scenario_ms);
        let extra = format!(",\"timeout_ms\":{request_ms}{}", if op == "synthesize" {
            ",\"budget\":3"
        } else {
            ""
        });
        verdict_of(&reply(&addr, &request(op, "ieee14-unsecured", &model, &extra)))
    };
    assert_eq!(serve("verify", 0, LONG_MS), "unknown(timeout)");
    assert_eq!(serve("verify", LONG_MS, 0), "sat");
    assert_eq!(serve("synthesize", 0, LONG_MS), "inconclusive");
    assert_eq!(serve("synthesize", LONG_MS, 0), "architecture");
    server.stop().expect("clean shutdown");

    // A campaign: a job's own deadline is the caller's; with none (and no
    // campaign deadline) the scenario's applies.
    let mut spec = CampaignSpec::new("deadline-rule");
    let plain = spec.add_case("ieee14", ieee14::system());
    let unsecured = spec.add_case("ieee14-unsecured", ieee14::system_unsecured());
    spec.verify(plain, "scenario 0 ms", AttackModel::new(14).with_timeout_ms(0));
    let config = SynthesisConfig::with_budget(3);
    let job = spec.synthesize(
        unsecured,
        "job 0 ms, scenario long",
        open.clone().with_timeout_ms(LONG_MS),
        config.clone(),
    );
    spec.set_job_timeout_ms(job, 0);
    let job =
        spec.synthesize(unsecured, "job long, scenario 0 ms", open.with_timeout_ms(0), config);
    spec.set_job_timeout_ms(job, LONG_MS);
    let tokens: Vec<&str> = run(&spec, 2).results.iter().map(|r| r.verdict.token()).collect();
    assert_eq!(tokens, ["unknown(timeout)", "inconclusive", "architecture"]);
}

/// Runs the `sta` binary, returning its exit code and stdout.
fn sta(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sta")).args(args).output().expect("sta runs");
    let code = out.status.code().expect("an exit code");
    assert_ne!(code, 2, "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    (code, String::from_utf8_lossy(&out.stdout).into_owned())
}

/// The verdict of the `job-end` record in a CLI trace file.
fn traced_verdict(trace: &Path) -> String {
    let text = std::fs::read_to_string(trace).expect("read the trace");
    let end = text
        .lines()
        .find(|l| l.contains("\"event\":\"job-end\""))
        .unwrap_or_else(|| panic!("no job-end in {text}"));
    verdict_of(end)
}

/// `sta client`'s exit code and final reply line for one query.
fn sta_client(addr: &str, op: &str, case: &str, scenario: &Path, extra: &[&str]) -> (i32, String) {
    let path = scenario.to_str().expect("utf-8 path");
    let mut args = vec!["client", addr, op, case, path, "--no-timing"];
    args.extend_from_slice(extra);
    let (code, stdout) = sta(&args);
    (code, stdout.lines().last().expect("a reply line").to_string())
}

#[test]
fn every_front_end_reports_one_outcome() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("sta-front-ends-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("run.trace");
    let open = AttackModel::new(14).target(BusId(11), StateTarget::MustChange);
    let blocked = open.clone().max_altered_measurements(0);
    let server = spawn(ServeConfig::new(unique_listen_addr("front-ends"))).expect("boots");
    let addr = server.addr().to_string();

    // Verification: sat with a witness, unsat, and a 0 ms caller deadline.
    let cases: [(&str, &AttackModel, Option<u64>, &str); 3] = [
        ("sat", &open, None, "sat"),
        ("unsat", &blocked, None, "unsat"),
        ("timeout", &open, Some(0), "unknown(timeout)"),
    ];
    let mut spec = CampaignSpec::new("front-ends");
    let case = spec.add_case("ieee14", ieee14::system());
    for (name, model, deadline, _) in &cases {
        let job = spec.verify(case, *name, (*model).clone());
        if let Some(ms) = deadline {
            spec.set_job_timeout_ms(job, *ms);
        }
    }
    let report = run(&spec, 1);
    let campaign_json = report.to_json(false);
    for ((name, model, deadline, token), result) in cases.iter().zip(&report.results) {
        let scenario = dir.join(format!("{name}.scenario"));
        std::fs::write(&scenario, scenario::write(model)).expect("write the scenario");
        let path = scenario.to_str().expect("utf-8 path");
        let ms = deadline.map(|ms| ms.to_string());
        let timeout: Vec<&str> = match &ms {
            Some(ms) => vec!["--timeout-ms", ms.as_str()],
            None => Vec::new(),
        };

        let mut args = vec!["verify", "ieee14", path, "--trace", trace.to_str().expect("path")];
        args.extend(&timeout);
        let (cli_code, cli_out) = sta(&args);
        let (client_code, served) = sta_client(&addr, "verify", "ieee14", &scenario, &timeout);

        assert_eq!(result.verdict.token(), *token, "{name}: campaign");
        assert_eq!(traced_verdict(&trace), *token, "{name}: sta verify --trace");
        assert_eq!(verdict_of(&served), *token, "{name}: sta serve");
        assert_eq!(i32::from(result.verdict.exit_code()), cli_code, "{name}: sta verify");
        assert_eq!(client_code, cli_code, "{name}: sta client");
        let entry = campaign_json
            .split("{\"id\":")
            .find(|e| e.contains(&format!("\"label\":\"{name}\"")))
            .expect("the job's report entry");
        assert_eq!(fragment(entry, "witness"), fragment(&served, "witness"), "{name}");
        assert_eq!(fragment(&served, "witness").is_some(), *token == "sat", "{name}: {served}");
        // `sta verify` prints the campaign job's witness byte for byte.
        match &result.witness {
            Some(w) => {
                assert!(cli_out.starts_with(&format!("sat\n{w}\nsolver: ")), "{name}: {cli_out}")
            }
            None => assert!(!cli_out.starts_with("sat"), "{name}: {cli_out}"),
        }
    }

    // Synthesis: one architecture and one iteration count.
    let scenario = dir.join("attacker.scenario");
    std::fs::write(&scenario, scenario::write(&attacker())).expect("write the scenario");
    let path = scenario.to_str().expect("utf-8 path");
    let trace_path = trace.to_str().expect("path");
    let (cli_code, cli_out) =
        sta(&["synthesize", "ieee14-unsecured", path, "--budget", "3", "--trace", trace_path]);
    let (client_code, served) =
        sta_client(&addr, "synthesize", "ieee14-unsecured", &scenario, &["--budget", "3"]);
    server.stop().expect("clean shutdown");
    let mut spec = CampaignSpec::new("front-ends-synthesis");
    let case = spec.add_case("ieee14-unsecured", ieee14::system_unsecured());
    spec.synthesize(case, "synth", attacker(), SynthesisConfig::with_budget(3));
    let report = run(&spec, 1);
    let result: &JobResult = &report.results[0];
    let campaign_json = report.to_json(false);

    assert_eq!(result.verdict.token(), "architecture");
    assert_eq!(traced_verdict(&trace), "architecture");
    assert_eq!(verdict_of(&served), "architecture");
    for key in ["architecture", "iterations"] {
        assert!(fragment(&served, key).is_some(), "{key}: {served}");
        assert_eq!(fragment(&campaign_json, key), fragment(&served, key), "{key}");
    }
    let buses: Vec<String> =
        result.architecture.iter().flatten().map(|b| (b.0 + 1).to_string()).collect();
    let iterations = result.iterations.expect("iterations");
    assert_eq!(
        cli_out.trim_end(),
        format!("secure buses {{{}}} ({iterations} iterations)", buses.join(", "))
    );
    assert_eq!(i32::from(result.verdict.exit_code()), cli_code);
    assert_eq!(client_code, cli_code);
    std::fs::remove_dir_all(&dir).ok();
}
