//! The service over TCP: line framing, `TCP_NODELAY` on both ends, and
//! one kept connection carrying many requests in a row.
//!
//! The service integration tests in `crates/serve/tests` listen on unix
//! sockets, which have no Nagle's algorithm and so cannot show a stall
//! between the halves of a line. These tests pin the transport itself
//! without any wall-clock assertion: every line leaves in one write, both
//! ends of a TCP connection have Nagle off, and a keep-alive TCP client
//! gets every reply whole, in order, under its id, with the same bytes a
//! unix client gets.

use sta::core::attack::{AttackModel, StateTarget};
use sta::core::scenario;
use sta::grid::BusId;
use sta::serve::bench::unique_listen_addr;
use sta::serve::client::Connection;
use sta::serve::net;
use sta::serve::{spawn, ServeConfig};
use sta::smt::json::{escape_into, parse, Json};
use std::io::{self, Write};
use std::process::Command;

/// A `Write` that records every `write` call it receives.
#[derive(Default)]
struct CountingWriter {
    writes: usize,
    bytes: Vec<u8>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn every_line_leaves_in_one_write() {
    let long = "x".repeat(100 * 1024);
    for line in ["", "{\"id\":\"p\",\"op\":\"ping\"}", long.as_str()] {
        let mut w = CountingWriter::default();
        net::write_line(&mut w, line).expect("an in-memory write cannot fail");
        assert_eq!(w.writes, 1, "a {}-byte line took {} writes", line.len(), w.writes);
        assert_eq!(w.bytes, format!("{line}\n").into_bytes());
    }
}

#[test]
fn tcp_streams_have_nagle_off_at_both_ends() {
    let listener = net::Listener::bind("127.0.0.1:0").expect("bind a loopback port");
    let dialed = net::connect(listener.addr()).expect("dial");
    let accepted = listener.accept().expect("accept");
    for (end, stream) in [("dialed", &dialed), ("accepted", &accepted)] {
        match stream {
            net::Stream::Tcp(s) => {
                assert!(s.nodelay().expect("read TCP_NODELAY"), "the {end} end has Nagle on")
            }
            #[cfg(unix)]
            other => panic!("the {end} end is not TCP: {other:?}"),
        }
    }
}

/// A verify request line with an inline scenario.
fn verify(id: &str, model: &AttackModel, extra: &str) -> String {
    let mut line = format!("{{\"id\":\"{id}\",\"op\":\"verify\",\"case\":\"ieee14\",\"scenario\":");
    escape_into(&scenario::write(model), &mut line);
    line.push_str(extra);
    line.push('}');
    line
}

/// Twelve requests of every kind, twice over so the second pass finds
/// warm sessions: 24 requests for one connection, each paired with
/// whether its final line is an `error`.
fn script() -> Vec<(String, bool)> {
    let open = AttackModel::new(14).target(BusId(11), StateTarget::MustChange);
    let blocked = AttackModel::new(14).max_altered_measurements(0);
    let capped = AttackModel::new(14)
        .target(BusId(7), StateTarget::MustChange)
        .max_altered_measurements(10);
    let attacker = AttackModel::new(14)
        .target(BusId(4), StateTarget::MustChange)
        .max_altered_measurements(8);
    let mut steps = Vec::new();
    for pass in 0..2 {
        let id = |name: &str| format!("{name}-{pass}");
        let op = |name: &str| format!("{{\"id\":\"{}\",\"op\":\"{name}\"}}", id(name));
        let mut synth = format!(
            "{{\"id\":\"{}\",\"op\":\"synthesize\",\"case\":\"ieee14-unsecured\",\"scenario\":",
            id("synth")
        );
        escape_into(&scenario::write(&attacker), &mut synth);
        synth.push_str(",\"budget\":3,\"timing\":false}");
        steps.extend([
            (op("ping"), false),
            (verify(&id("open"), &open, ",\"timing\":false"), false),
            (verify(&id("blocked"), &blocked, ",\"timing\":false"), false),
            (op("stats"), false),
            (verify(&id("capped"), &capped, ",\"timing\":false"), false),
            (verify(&id("traced"), &open, ",\"trace\":true"), false),
            ("this is not json".to_string(), true),
            (verify(&id("bare"), &blocked, ",\"trace\":true,\"timing\":false"), false),
            (synth, false),
            (op("fly"), true),
            (verify(&id("timed"), &capped, ""), false),
            (op("metrics"), false),
        ]);
    }
    steps
}

/// Runs the script on one kept connection to `addr`, checking each reply
/// as it arrives: every line parses, every line carries the request's id
/// (null for the unparsable line), trace lines come first and only for a
/// traced request. Returns the final lines in order.
fn run_script(addr: &str, steps: &[(String, bool)]) -> Vec<String> {
    let mut conn = Connection::open(addr).expect("connect");
    let mut finals = Vec::new();
    for (line, error) in steps {
        let id = parse(line).ok().and_then(|j| j.get("id")?.as_str().map(String::from));
        let lines = conn.request(line).expect("a whole reply arrives");
        let (last, traces) = lines.split_last().expect("a final line");
        for reply in &lines {
            let json = parse(reply).unwrap_or_else(|e| panic!("{line}: reply {reply:?}: {e}"));
            match &id {
                Some(id) => assert_eq!(json.get("id").and_then(Json::as_str), Some(id.as_str())),
                None => assert!(matches!(json.get("id"), Some(Json::Null)), "{reply}"),
            }
            let kind = match (reply == last, error) {
                (false, _) => "trace",
                (true, false) => "response",
                (true, true) => "error",
            };
            assert_eq!(json.get("type").and_then(Json::as_str), Some(kind), "{line}: {reply}");
        }
        assert_eq!(!traces.is_empty(), line.contains("\"trace\":true"), "{line}: {traces:?}");
        finals.push(last.clone());
    }
    finals
}

#[test]
fn one_kept_tcp_connection_carries_every_kind_of_request() {
    let steps = script();
    assert!(steps.len() >= 20);
    let mut config = ServeConfig::new("127.0.0.1:0");
    config.jobs = 2;
    let tcp = spawn(config).expect("TCP server boots");
    let over_tcp = run_script(tcp.addr(), &steps);
    tcp.stop().expect("clean shutdown");

    let mut config = ServeConfig::new(unique_listen_addr("tcp-twin"));
    config.jobs = 2;
    let unix = spawn(config).expect("twin server boots");
    let over_unix = run_script(unix.addr(), &steps);
    unix.stop().expect("clean shutdown");

    let mut compared = 0;
    for (((line, _), tcp), unix) in steps.iter().zip(&over_tcp).zip(&over_unix) {
        if line.contains("\"op\":\"verify\"") && line.contains("\"timing\":false") {
            assert_eq!(tcp, unix, "the transport changed the reply bytes of {line}");
            compared += 1;
        }
    }
    assert_eq!(compared, 8);
}

/// The phase and counter keys, in order, of every `phase` record among
/// `lines` (trace-file lines or the service's trace lines).
fn phase_keys<'a>(lines: impl Iterator<Item = &'a str>) -> Vec<(String, Vec<String>)> {
    let mut records = Vec::new();
    for line in lines.filter(|l| l.contains("\"event\":\"phase\"")) {
        let phase = line.split("\"phase\":\"").nth(1).and_then(|rest| rest.split('"').next());
        let counters = line.split("\"counters\":{").nth(1).and_then(|rest| rest.split('}').next());
        let (Some(phase), Some(counters)) = (phase, counters) else {
            panic!("malformed phase record {line}");
        };
        let keys = counters
            .split(',')
            .map(|pair| pair.split(':').next().unwrap_or_default().trim_matches('"').to_string())
            .collect();
        records.push((phase.to_string(), keys));
    }
    records
}

/// A traced verify over the service carries the same `phase` records —
/// the same counter keys in the same order — as `sta verify --trace`
/// writes for the same case and scenario.
#[test]
fn traced_verify_phase_records_match_the_cli_trace() {
    let model = AttackModel::new(14).target(BusId(11), StateTarget::MustChange);
    let dir = std::env::temp_dir().join(format!("sta-serve-tcp-phase-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let scenario_path = dir.join("open.scenario");
    let trace_path = dir.join("verify.trace");
    std::fs::write(&scenario_path, scenario::write(&model)).expect("write the scenario");
    let out = Command::new(env!("CARGO_BIN_EXE_sta"))
        .args(["verify", "ieee14"])
        .arg(&scenario_path)
        .arg("--trace")
        .arg(&trace_path)
        .output()
        .expect("sta runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let cli_trace = std::fs::read_to_string(&trace_path).expect("read the trace file");
    std::fs::remove_dir_all(&dir).ok();
    let cli = phase_keys(cli_trace.lines());
    assert_eq!(cli.len(), 3, "{cli_trace}");

    let server = spawn(ServeConfig::new("127.0.0.1:0")).expect("TCP server boots");
    let lines = Connection::open(server.addr())
        .expect("connect")
        .request(&verify("traced", &model, ",\"trace\":true"))
        .expect("a whole reply arrives");
    server.stop().expect("clean shutdown");
    assert_eq!(phase_keys(lines.iter().map(String::as_str)), cli);
}
