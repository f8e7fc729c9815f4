//! End-to-end service tests: protocol robustness, LRU cache behaviour,
//! response determinism, deadline recovery, and graceful drain — each
//! against a real server on its own unix socket (TCP loopback off-unix).

use sta_core::attack::{AttackModel, StateTarget};
use sta_core::scenario;
use sta_grid::BusId;
use sta_serve::bench::unique_listen_addr;
use sta_serve::net;
use sta_serve::server::{spawn, ServeConfig, ServerHandle};
use sta_serve::client;
use sta_smt::json::{escape_into, parse, Json};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn boot(tag: &str, jobs: usize, max_sessions: usize) -> ServerHandle {
    let mut config = ServeConfig::new(unique_listen_addr(tag));
    config.jobs = jobs;
    config.max_sessions = max_sessions;
    spawn(config).expect("server boots")
}

fn str_at<'j>(json: &'j Json, path: &[&str]) -> Option<&'j str> {
    let mut cur = json;
    for key in path {
        cur = cur.get(key)?;
    }
    cur.as_str()
}

fn u64_at(json: &Json, path: &[&str]) -> Option<u64> {
    let mut cur = json;
    for key in path {
        cur = cur.get(key)?;
    }
    cur.as_u64()
}

/// Builds a verify request line with an inline scenario built from a
/// model (round-tripped through the scenario grammar).
fn verify_line(id: &str, case: &str, model: Option<&AttackModel>, extra: &str) -> String {
    let mut line = String::from("{\"id\":");
    escape_into(id, &mut line);
    line.push_str(",\"op\":\"verify\",\"case\":");
    escape_into(case, &mut line);
    if let Some(model) = model {
        line.push_str(",\"scenario\":");
        escape_into(&scenario::write(model), &mut line);
    }
    line.push_str(extra);
    line.push('}');
    line
}

fn final_json(lines: &[String]) -> Json {
    let last = lines.last().expect("non-empty reply");
    parse(last).expect("final line parses")
}

#[test]
fn malformed_lines_get_errors_not_disconnects() {
    let handle = boot("proto", 2, 2);
    let stream = net::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    let mut ask = |line: &str| -> Json {
        stream.write_all(line.as_bytes()).expect("send");
        stream.write_all(b"\n").expect("send");
        stream.flush().expect("flush");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        parse(reply.trim()).expect("reply parses")
    };

    // Malformed JSON: structured parse error with a null id.
    let err = ask("this is not json");
    assert_eq!(str_at(&err, &["type"]), Some("error"));
    assert_eq!(str_at(&err, &["error"]), Some("parse"));
    assert!(matches!(err.get("id"), Some(Json::Null)));

    // Unknown op: error echoes the id.
    let err = ask("{\"id\":\"u1\",\"op\":\"fly\"}");
    assert_eq!(str_at(&err, &["error"]), Some("unknown-op"));
    assert_eq!(str_at(&err, &["id"]), Some("u1"));

    // Missing id: bad-request.
    let err = ask("{\"op\":\"ping\"}");
    assert_eq!(str_at(&err, &["error"]), Some("bad-request"));

    // Unknown case: bad-request from the job path, id preserved.
    let err = ask("{\"id\":\"u2\",\"op\":\"verify\",\"case\":\"ieee9000\"}");
    assert_eq!(str_at(&err, &["error"]), Some("bad-request"));
    assert_eq!(str_at(&err, &["id"]), Some("u2"));

    // The connection survived all of it.
    let pong = ask("{\"id\":\"p\",\"op\":\"ping\"}");
    assert_eq!(str_at(&pong, &["type"]), Some("response"));
    assert_eq!(str_at(&pong, &["op"]), Some("ping"));

    handle.stop().expect("clean shutdown");
}

#[test]
fn session_cache_thrashes_at_capacity_one_and_warms_on_repeat() {
    let handle = boot("lru", 1, 1);
    let session_of = |lines: &[String]| -> String {
        str_at(&final_json(lines), &["timing", "session"]).expect("session tag").to_string()
    };

    let a1 = client::request(handle.addr(), &verify_line("a1", "ieee14", None, ""))
        .expect("first ieee14");
    assert_eq!(session_of(&a1), "miss", "cold start");
    let a2 = client::request(handle.addr(), &verify_line("a2", "ieee14", None, ""))
        .expect("second ieee14");
    assert_eq!(session_of(&a2), "hit", "repeat is warm");
    let b1 = client::request(handle.addr(), &verify_line("b1", "ieee14-unsecured", None, ""))
        .expect("unsecured");
    assert_eq!(session_of(&b1), "miss", "different case is cold and evicts");
    let a3 = client::request(handle.addr(), &verify_line("a3", "ieee14", None, ""))
        .expect("third ieee14");
    assert_eq!(session_of(&a3), "miss", "capacity 1 thrashes on alternation");

    let stats = final_json(
        &client::request(handle.addr(), "{\"id\":\"s\",\"op\":\"stats\"}").expect("stats"),
    );
    assert_eq!(u64_at(&stats, &["sessions", "capacity"]), Some(1));
    assert_eq!(u64_at(&stats, &["sessions", "live"]), Some(1));
    assert_eq!(u64_at(&stats, &["sessions", "hits"]), Some(1));
    assert_eq!(u64_at(&stats, &["sessions", "misses"]), Some(3));
    assert_eq!(u64_at(&stats, &["sessions", "evictions"]), Some(2));

    handle.stop().expect("clean shutdown");
}

/// The determinism contract: with `"timing":false`, responses depend only
/// on the request — not on worker count, scheduling, or whether the
/// session cache was warm. Three concurrent clients each repeat their
/// request; bytes must match within a server (cold vs warm) and across
/// servers with different `--jobs`.
#[test]
fn timing_stripped_responses_are_byte_identical_across_jobs_and_warmth() {
    let requests: Vec<(String, String)> = vec![
        (
            "open".to_string(),
            verify_line(
                "open",
                "ieee14",
                Some(&AttackModel::new(14).target(BusId(11), StateTarget::MustChange)),
                ",\"timing\":false",
            ),
        ),
        (
            "blocked".to_string(),
            verify_line(
                "blocked",
                "ieee14",
                Some(&AttackModel::new(14).max_altered_measurements(0)),
                ",\"timing\":false",
            ),
        ),
        (
            "capped".to_string(),
            verify_line(
                "capped",
                "ieee14",
                Some(
                    &AttackModel::new(14)
                        .target(BusId(7), StateTarget::MustChange)
                        .max_altered_measurements(10),
                ),
                ",\"timing\":false",
            ),
        ),
    ];

    let mut per_jobs: Vec<BTreeMap<String, String>> = Vec::new();
    for jobs in [1usize, 4] {
        let handle = boot(&format!("det{jobs}"), jobs, 4);
        let results: Arc<Mutex<BTreeMap<String, String>>> =
            Arc::new(Mutex::new(BTreeMap::new()));
        std::thread::scope(|scope| {
            for (name, line) in &requests {
                let addr = handle.addr().to_string();
                let results = Arc::clone(&results);
                scope.spawn(move || {
                    let first = client::request(&addr, line).expect("first send");
                    let second = client::request(&addr, line).expect("second send");
                    let first = first.last().expect("reply").clone();
                    let second = second.last().expect("reply").clone();
                    assert_eq!(first, second, "{name}: warm repeat must match cold bytes");
                    results.lock().expect("results").insert(name.clone(), first);
                });
            }
        });
        per_jobs.push(Arc::try_unwrap(results).expect("threads done").into_inner().expect("lock"));
        handle.stop().expect("clean shutdown");
    }
    assert_eq!(per_jobs[0], per_jobs[1], "responses must not depend on worker count");
    assert!(per_jobs[0]["open"].contains("\"verdict\":\"sat\""));
    assert!(per_jobs[0]["open"].contains("\"witness\""));
    assert!(per_jobs[0]["blocked"].contains("\"verdict\":\"unsat\""));
    for line in per_jobs[0].values() {
        assert!(!line.contains("\"timing\""), "timing must be stripped: {line}");
    }
}

#[test]
fn expired_deadline_reports_unknown_and_leaves_the_session_usable() {
    let handle = boot("deadline", 2, 2);
    let doomed = client::request(
        handle.addr(),
        &verify_line("doomed", "ieee14", None, ",\"timeout_ms\":0"),
    )
    .expect("doomed request completes");
    let doomed = final_json(&doomed);
    assert_eq!(str_at(&doomed, &["verdict"]), Some("unknown(timeout)"));

    // The same key must still verify — warm, and conclusively.
    let retry = client::request(handle.addr(), &verify_line("retry", "ieee14", None, ""))
        .expect("retry completes");
    let retry = final_json(&retry);
    assert_eq!(str_at(&retry, &["verdict"]), Some("sat"));
    assert_eq!(
        str_at(&retry, &["timing", "session"]),
        Some("hit"),
        "the timed-out session must be reused, not discarded"
    );
    handle.stop().expect("clean shutdown");
}

#[test]
fn huge_timeout_ms_is_no_deadline_not_a_worker_panic() {
    // Regression: "timeout_ms": u64::MAX used to overflow Instant
    // arithmetic in Budget::with_timeout and panic the worker thread,
    // killing the request. It must behave as "no deadline".
    let handle = boot("hugetimeout", 2, 2);
    let reply = client::request(
        handle.addr(),
        &verify_line("huge", "ieee14", None, ",\"timeout_ms\":18446744073709551615"),
    )
    .expect("request with overflowing timeout completes");
    let reply = final_json(&reply);
    assert_eq!(str_at(&reply, &["type"]), Some("response"));
    assert_eq!(str_at(&reply, &["verdict"]), Some("sat"));
    handle.stop().expect("clean shutdown");
}

#[test]
fn islanded_case_is_a_bad_request_and_the_worker_survives() {
    // Regression: a case whose in-service lines island the grid has no
    // DC operating point. Building its verifier used to panic the only
    // worker, so that request never got a reply and every later job hung.
    let case = std::env::temp_dir().join(format!("sta-serve-islanded-{}.case", std::process::id()));
    std::fs::write(&case, "system islanded3\nbuses 3\nline 1 2 10.0\nline 2 3 5.0 open\n")
        .expect("write case file");
    let mut path = String::new();
    escape_into(case.to_str().expect("utf-8 temp path"), &mut path);
    let handle = boot("islanded", 1, 2);
    for (id, line) in [
        ("v", verify_line("v", case.to_str().expect("utf-8 temp path"), None, "")),
        ("s", format!("{{\"id\":\"s\",\"op\":\"synthesize\",\"case\":{path},\"budget\":1}}")),
        ("c", format!("{{\"id\":\"c\",\"op\":\"campaign\",\"case\":{path},\"workers\":1}}")),
    ] {
        let reply = final_json(&client::request(handle.addr(), &line).expect("reply arrives"));
        assert_eq!(str_at(&reply, &["type"]), Some("error"), "{id}");
        assert_eq!(str_at(&reply, &["error"]), Some("bad-request"), "{id}");
        assert_eq!(str_at(&reply, &["id"]), Some(id));
        let message = str_at(&reply, &["message"]).expect("error message");
        assert!(message.contains("2 islands"), "{id}: {message}");
    }
    // The worker is still there to answer the next verify.
    let next = client::request(handle.addr(), &verify_line("next", "ieee14", None, ""))
        .expect("ieee14 verify completes");
    assert_eq!(str_at(&final_json(&next), &["verdict"]), Some("sat"));
    handle.stop().expect("clean shutdown");
    let _ = std::fs::remove_file(&case);
}

#[test]
fn trace_lines_interleave_before_the_response() {
    let handle = boot("trace", 2, 2);
    let lines = client::request(
        handle.addr(),
        &verify_line("tr", "ieee14", None, ",\"trace\":true"),
    )
    .expect("traced request");
    assert!(lines.len() > 1, "expected trace lines before the response");
    for line in &lines[..lines.len() - 1] {
        let json = parse(line).expect("trace line parses");
        assert_eq!(str_at(&json, &["type"]), Some("trace"));
        assert_eq!(str_at(&json, &["id"]), Some("tr"));
        assert!(json.get("event").is_some());
    }
    assert_eq!(str_at(&final_json(&lines), &["type"]), Some("response"));
    handle.stop().expect("clean shutdown");
}

/// Acceptance: a `trace:true` campaign streams per-job progress live —
/// request-tagged trace lines (job brackets, phase counters, heartbeats)
/// arrive before the final response, and each job's event batch stays
/// contiguous even with four workers racing to emit.
#[test]
fn traced_campaign_streams_per_job_progress_before_the_response() {
    let handle = boot("campstream", 4, 2);
    let lines = client::request(
        handle.addr(),
        "{\"id\":\"camp\",\"op\":\"campaign\",\"case\":\"ieee14\",\"workers\":4,\"trace\":true,\"timing\":false}",
    )
    .expect("traced campaign");
    assert!(lines.len() > 10, "expected a stream of trace lines, got {}", lines.len());

    let final_line = final_json(&lines);
    assert_eq!(str_at(&final_line, &["type"]), Some("response"));
    assert_eq!(str_at(&final_line, &["op"]), Some("campaign"));

    let mut heartbeats = 0u32;
    let mut job_starts = 0u32;
    let mut job_ends = 0u32;
    // Per-job contiguity: batches are emitted under one sink critical
    // section, so once a job's lines begin, no other job's lines may
    // interleave until its job-end.
    let mut open_job: Option<u64> = None;
    let mut seen_jobs = Vec::new();
    for line in &lines[..lines.len() - 1] {
        let json = parse(line).expect("trace line parses");
        assert_eq!(str_at(&json, &["type"]), Some("trace"), "non-trace line {line}");
        assert_eq!(str_at(&json, &["id"]), Some("camp"), "line not request-tagged: {line}");
        let event = str_at(&json, &["event", "event"]).expect("event kind");
        match event {
            "heartbeat" => {
                heartbeats += 1;
                assert_eq!(u64_at(&json, &["event", "total"]), Some(32));
            }
            "job-start" => {
                let job = u64_at(&json, &["event", "job"]).expect("job id");
                assert_eq!(open_job, None, "job {job} started inside another batch");
                assert!(!seen_jobs.contains(&job), "job {job} started twice");
                seen_jobs.push(job);
                open_job = Some(job);
                job_starts += 1;
            }
            "phase" => {
                let job = u64_at(&json, &["event", "job"]).expect("job id");
                assert_eq!(open_job, Some(job), "phase of job {job} outside its batch");
            }
            "job-end" => {
                let job = u64_at(&json, &["event", "job"]).expect("job id");
                assert_eq!(open_job, Some(job), "end of job {job} outside its batch");
                open_job = None;
                job_ends += 1;
            }
            "run-start" | "run-end" => {
                assert_eq!(open_job, None, "{event} inside a job batch");
            }
            other => panic!("unexpected event {other:?} in {line}"),
        }
    }
    assert_eq!(job_starts, 32, "every sweep job must announce itself");
    assert_eq!(job_ends, 32);
    assert!(heartbeats >= 1, "at least the immediate heartbeat must stream");
    handle.stop().expect("clean shutdown");
}

/// Acceptance: with telemetry enabled (the default), a `"timing":false`
/// campaign response is byte-identical across worker counts — the
/// measurement plane observes and never perturbs.
#[test]
fn timing_stripped_campaign_bytes_match_across_worker_counts() {
    let line = "{\"id\":\"det\",\"op\":\"campaign\",\"case\":\"ieee14\",\"workers\":4,\"timing\":false}";
    let mut finals = Vec::new();
    for jobs in [1usize, 4] {
        let handle = boot(&format!("campdet{jobs}"), jobs, 2);
        let lines = client::request(handle.addr(), line).expect("campaign");
        finals.push(lines.last().expect("reply").clone());
        handle.stop().expect("clean shutdown");
    }
    assert_eq!(finals[0], finals[1], "campaign bytes must not depend on worker count");
    assert!(!finals[0].contains("\"timing\""));
}

/// Satellite: the registry counts exactly — concurrent clients hammering
/// different ops lose no increments, and the `metrics` op reports the
/// precise totals.
#[test]
fn concurrent_clients_are_counted_exactly() {
    let handle = boot("exact", 2, 2);
    const CLIENTS: usize = 8;
    const PINGS: usize = 25;
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let addr = handle.addr().to_string();
            scope.spawn(move || {
                for i in 0..PINGS {
                    let reply = client::request(&addr, &format!("{{\"id\":\"p{i}\",\"op\":\"ping\"}}"))
                        .expect("ping");
                    assert!(reply.last().expect("line").contains("\"ok\":true"));
                }
            });
        }
    });
    let metrics = final_json(
        &client::request(handle.addr(), "{\"id\":\"m\",\"op\":\"metrics\"}").expect("metrics"),
    );
    assert_eq!(str_at(&metrics, &["metrics", "schema"]), Some("sta-metrics/v1"));
    assert_eq!(
        u64_at(&metrics, &["metrics", "ops", "ping", "requests"]),
        Some((CLIENTS * PINGS) as u64),
        "ping count must be exact under concurrency"
    );
    assert_eq!(u64_at(&metrics, &["metrics", "ops", "metrics", "requests"]), Some(1));
    handle.stop().expect("clean shutdown");
}

/// Satellite: a `watch` subscription streams tagged snapshots at its
/// cadence, and a drain terminates it honestly — one final `response`
/// line carrying the last snapshot, not a dropped connection.
#[test]
fn watch_streams_snapshots_and_drain_sends_a_final_one() {
    let handle = boot("watch", 2, 2);
    let addr = handle.addr().to_string();
    let collector = std::thread::spawn(move || {
        let mut seen = Vec::new();
        let final_line = client::stream(
            &addr,
            "{\"id\":\"w\",\"op\":\"watch\",\"interval_ms\":50}",
            |line| {
                seen.push(line.to_string());
                true
            },
        );
        (seen, final_line)
    });
    // Let a few snapshots stream, then drain.
    std::thread::sleep(Duration::from_millis(180));
    handle.stop().expect("clean shutdown");
    let (seen, final_line) = collector.join().expect("collector thread");

    assert!(seen.len() >= 2, "expected streamed snapshots, got {}", seen.len());
    for (i, line) in seen.iter().enumerate() {
        let json = parse(line).expect("watch line parses");
        assert_eq!(str_at(&json, &["type"]), Some("watch"));
        assert_eq!(str_at(&json, &["id"]), Some("w"));
        assert_eq!(u64_at(&json, &["seq"]), Some(i as u64), "gapless sequence");
        assert_eq!(str_at(&json, &["metrics", "schema"]), Some("sta-metrics/v1"));
    }
    let final_line = final_line.expect("stream ends cleanly").expect("final response");
    let json = parse(&final_line).expect("final line parses");
    assert_eq!(str_at(&json, &["type"]), Some("response"));
    assert_eq!(str_at(&json, &["op"]), Some("watch"));
    assert!(matches!(json.get("draining"), Some(Json::Bool(true))));
    assert_eq!(
        str_at(&json, &["final_snapshot", "schema"]),
        Some("sta-metrics/v1"),
        "drain must carry a last snapshot"
    );
}

/// Satellite: the Prometheus rendering travels inside the JSONL envelope
/// and unwraps to a well-formed text exposition.
#[test]
fn prometheus_format_unwraps_to_text_exposition() {
    let handle = boot("prom", 2, 2);
    client::request(handle.addr(), &verify_line("v", "ieee14", None, ""))
        .expect("verify to move counters");
    let reply = final_json(
        &client::request(
            handle.addr(),
            "{\"id\":\"m\",\"op\":\"metrics\",\"format\":\"prometheus\"}",
        )
        .expect("metrics"),
    );
    assert_eq!(str_at(&reply, &["format"]), Some("prometheus"));
    let body = str_at(&reply, &["body"]).expect("exposition body");
    assert!(body.starts_with("# HELP "), "{body}");
    assert!(body.contains("sta_requests_total{op=\"verify\"} 1"), "{body}");
    assert!(body.contains("# TYPE sta_uptime_seconds gauge"), "{body}");

    // Unknown format is a bad request, not a disconnect.
    let err = final_json(
        &client::request(
            handle.addr(),
            "{\"id\":\"m2\",\"op\":\"metrics\",\"format\":\"xml\"}",
        )
        .expect("error reply"),
    );
    assert_eq!(str_at(&err, &["error"]), Some("bad-request"));
    handle.stop().expect("clean shutdown");
}

#[test]
fn graceful_drain_finishes_or_cancels_inflight_and_refuses_new_work() {
    let handle = boot("drain", 2, 2);

    // Park a long request in flight on its own connection.
    let stream = net::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    let long = verify_line("long", "ieee57", None, "");
    stream.write_all(long.as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send");
    stream.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(150));

    // Drain with a tight window: the in-flight job either finishes
    // naturally or is cancelled past the deadline — never orphaned.
    let reply = client::request(
        handle.addr(),
        "{\"id\":\"sd\",\"op\":\"shutdown\",\"drain_ms\":50}",
    )
    .expect("shutdown answered");
    let reply = final_json(&reply);
    assert_eq!(str_at(&reply, &["op"]), Some("shutdown"));
    assert!(matches!(reply.get("ok"), Some(Json::Bool(true))));

    // The parked client still got its final line.
    let mut line = String::new();
    reader.read_line(&mut line).expect("in-flight response arrives");
    let json = parse(line.trim()).expect("response parses");
    let verdict = str_at(&json, &["verdict"]).expect("has verdict").to_string();
    assert!(
        verdict == "sat" || verdict == "unsat" || verdict == "unknown(cancelled)",
        "unexpected drain verdict {verdict:?}"
    );

    // The listener is gone: new connections fail outright or are closed
    // without an answer.
    match client::request(handle.addr(), "{\"id\":\"p\",\"op\":\"ping\"}") {
        Err(_) => {}
        Ok(lines) => panic!("post-drain request must not be served, got {lines:?}"),
    }
}
