//! Integration tests of the `sta` command-line tool.

use std::process::Command;

fn sta(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sta"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn no_args_prints_usage() {
    let out = sta(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn case_dumps_builtin() {
    let out = sta(&["case", "ieee14"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("system ieee14"));
    assert!(text.contains("buses 14"));
    assert!(text.contains("line 1 2 16.9"));
    assert!(text.contains("secured 1 2 6 15 25 32 41"));
}

#[test]
fn verify_objective_two_roundtrip_through_files() {
    let dir = std::env::temp_dir().join("sta-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let case_path = dir.join("ieee14u.case");
    let scen_path = dir.join("obj2.scenario");
    // Dump the built-in unsecured case into a file.
    let out = sta(&["case", "ieee14-unsecured"]);
    std::fs::write(&case_path, stdout(&out)).unwrap();
    // The paper's Objective 2.
    let mut scenario = String::from("target 12 change\nunknown-lines 3 7 17\n");
    for j in 1..=14 {
        if j != 12 {
            scenario.push_str(&format!("target {j} keep\n"));
        }
    }
    std::fs::write(&scen_path, &scenario).unwrap();

    let out = sta(&[
        "verify",
        case_path.to_str().unwrap(),
        scen_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = stdout(&out);
    assert!(text.starts_with("sat"), "{text}");
    // The paper's five meters (1-indexed) appear in the vector printout.
    for m in [12, 32, 39, 46, 53] {
        assert!(text.contains(&format!("{m}:")), "meter {m} missing in {text}");
    }

    // Securing measurement 46 flips it to unsat (exit code 1).
    std::fs::write(&scen_path, format!("{scenario}secure-measurement 46\n")).unwrap();
    let out = sta(&[
        "verify",
        case_path.to_str().unwrap(),
        scen_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).contains("unsat"));
}

#[test]
fn replay_reports_stealthy() {
    let dir = std::env::temp_dir().join("sta-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let scen_path = dir.join("replay.scenario");
    std::fs::write(&scen_path, "target 10 change\n").unwrap();
    let out = sta(&["replay", "ieee14-unsecured", scen_path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("stealthy: yes"), "{text}");
}

#[test]
fn synthesize_with_budget() {
    let dir = std::env::temp_dir().join("sta-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let scen_path = dir.join("synth.scenario");
    std::fs::write(&scen_path, "target 12 change\nmax-measurements 8\n").unwrap();
    let out = sta(&[
        "synthesize",
        "ieee14-unsecured",
        scen_path.to_str().unwrap(),
        "--budget",
        "3",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).contains("secure buses"));
    // Budget 0 cannot work.
    let out = sta(&[
        "synthesize",
        "ieee14-unsecured",
        scen_path.to_str().unwrap(),
        "--budget",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn bad_inputs_give_errors() {
    let out = sta(&["verify", "/no/such/file.case", "-"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
    let out = sta(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let out = sta(&["synthesize", "ieee14", "-"]);
    assert_eq!(out.status.code(), Some(2)); // missing --budget
    // One simplex engine: the old engine switch is an unknown flag.
    let out = sta(&["verify", "ieee14", "-", "--simplex", "dense"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag \"--simplex\""));
}

/// Regression: a case whose in-service lines island the grid has no DC
/// operating point to anchor the attack model on. Every command that
/// needs one reports it as an input error (exit 2, an `error:` line
/// naming the island count) instead of panicking (exit 101).
#[test]
fn islanded_case_is_an_input_error() {
    let dir = std::env::temp_dir().join("sta-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let case_path = dir.join("islanded3.case");
    std::fs::write(&case_path, "system islanded3\nbuses 3\nline 1 2 10.0\nline 2 3 5.0 open\n")
        .unwrap();
    let case = case_path.to_str().unwrap();
    for args in [
        &["verify", case, "-"][..],
        &["replay", case, "-"],
        &["synthesize", case, "-", "--budget", "1"],
        &["campaign", case, "--jobs", "1"],
        &["assess", case],
    ] {
        let out = sta(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error:"), "{args:?}: {stderr}");
        assert!(stderr.contains("2 islands"), "{args:?}: {stderr}");
    }
}

/// Satellite: worker-count usage errors are exit code 2, not a panic or a
/// hung pool — `--jobs 0` and a non-numeric `--jobs` both refuse cleanly
/// before any solver work starts.
#[test]
fn campaign_bad_jobs_flag_is_a_usage_error() {
    let out = sta(&["campaign", "ieee14", "--jobs", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--jobs"));
    let out = sta(&["campaign", "ieee14", "--jobs", "abc"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--jobs"));
    let out = sta(&["campaign", "ieee14", "--jobs"]);
    assert_eq!(out.status.code(), Some(2));
}

/// `--incremental` (the retired warm/cold switch) is an unknown flag: a
/// usage error (exit 2) on both synthesize and campaign, whatever value
/// follows it, and the message names the flag.
#[test]
fn bad_incremental_flag_is_a_usage_error() {
    for value in ["on", "off"] {
        let out = sta(&[
            "synthesize", "ieee14", "-", "--budget", "3", "--incremental", value,
        ]);
        assert_eq!(out.status.code(), Some(2));
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag \"--incremental\""));
        let out = sta(&["campaign", "ieee14", "--incremental", value]);
        assert_eq!(out.status.code(), Some(2));
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag \"--incremental\""));
    }
}

/// Satellite: bad telemetry flags are usage errors (exit 2) rejected
/// client-side — a zero or non-numeric `--interval-ms` never opens a
/// subscription, and an unknown metrics format never reaches the wire.
#[test]
fn bad_telemetry_flags_are_usage_errors() {
    let out = sta(&["client", "/nowhere.sock", "watch", "--interval-ms", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--interval-ms"));
    let out = sta(&["client", "/nowhere.sock", "watch", "--interval-ms", "soon"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--interval-ms"));
    let out = sta(&["client", "/nowhere.sock", "metrics", "--format", "xml"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("json|prometheus"));
    let out = sta(&["top", "/nowhere.sock", "--interval-ms", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--interval-ms"));
    let out = sta(&["top"]);
    assert_eq!(out.status.code(), Some(2));
}

/// Tentpole: `--trace` writes parseable JSON Lines bracketed by
/// run-start/run-end with non-zero phase counters, and `--metrics` prints
/// the phase table.
#[test]
fn verify_trace_and_metrics_emit_observability() {
    let dir = std::env::temp_dir().join("sta-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("verify.jsonl");
    let out = sta(&[
        "verify",
        "ieee14",
        "-",
        "--metrics",
        "--trace",
        trace_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = stdout(&out);
    assert!(text.contains("phase"), "{text}");
    assert!(text.contains("decisions"), "{text}");
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    let lines: Vec<&str> = trace.lines().collect();
    assert!(lines.len() >= 5, "{trace}");
    assert!(lines.iter().all(|l| l.starts_with("{\"event\":\"") && l.ends_with('}')));
    assert!(lines[0].contains("\"event\":\"run-start\""));
    assert!(lines.last().unwrap().contains("\"event\":\"run-end\""));
    assert!(trace.contains("\"phase\":\"encode\""));
    assert!(trace.contains("\"phase\":\"search\""));
    assert!(trace.contains("\"verdict\":\"sat\""));
}

/// `sta lint` is clean at HEAD (exit 0) and its summary names the scan.
#[test]
fn lint_is_clean_at_head() {
    let out = sta(&["lint"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "sta lint found violations:\n{}{}",
        stdout(&out),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("lint: clean"), "{}", stdout(&out));
}

/// `sta lint --json` emits schema-tagged JSON, byte-identical across runs.
#[test]
fn lint_json_is_deterministic() {
    let a = sta(&["lint", "--json"]);
    let b = sta(&["lint", "--json"]);
    assert_eq!(a.status.code(), Some(0));
    assert_eq!(a.stdout, b.stdout, "lint --json differs between runs");
    let text = stdout(&a);
    assert!(text.contains("\"schema\":\"sta-lint/v1\""), "{text}");
    assert!(text.contains("\"findings\":["), "{text}");
}

/// Unknown lint flags are usage errors (exit 2), like every other
/// subcommand — `--jobs` belongs to `campaign`, not `lint`.
#[test]
fn lint_rejects_unknown_flags_as_usage_errors() {
    for bad in [&["lint", "--jobs", "4"][..], &["lint", "--root"][..]] {
        let out = sta(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("error"),
            "{bad:?}"
        );
    }
}
