//! The JSONL request/response grammar.
//!
//! One JSON object per line in both directions. Requests carry a caller
//! `id` echoed on every line the service emits for them, so responses and
//! trace events from concurrent requests can interleave on one
//! connection without ambiguity:
//!
//! ```text
//! → {"id":"r1","op":"verify","case":"ieee14","scenario":"target-state 12\n"}
//! ← {"id":"r1","type":"response","op":"verify","verdict":"sat","witness":{...},"timing":{...}}
//! ```
//!
//! Response lines come in four `type`s: `response` (the final answer),
//! `error` (the final answer when the request failed), `trace`
//! (observational events preceding the response when the request set
//! `"trace":true`), and `watch` (periodic telemetry snapshots of a
//! `watch` subscription, which still ends with a final `response`
//! line). Deterministic payload keys always precede the
//! `timing` object, which is omitted entirely under `"timing":false` —
//! the byte-determinism contract the service tests pin down.
//!
//! Parsing is strict about shape (`id` and `op` are required strings)
//! but lenient about extras: unknown keys are ignored so clients can
//! annotate requests freely.

use sta_smt::json::{escape_into, parse, Json};
use sta_smt::{CertifyLevel, TraceEvent};

/// Stable error tokens of the `error` response line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line was not valid JSON. The connection stays open.
    Parse,
    /// The request was structurally valid JSON but semantically broken
    /// (missing fields, unknown case, unparsable scenario).
    BadRequest,
    /// The `op` is not one the service speaks.
    UnknownOp,
    /// Admission control rejected the request: the bounded queue is full.
    Overloaded,
    /// The service is draining toward shutdown and accepts no new work.
    Draining,
    /// The service failed internally (e.g. the connection broke mid-write).
    Internal,
}

impl ErrorKind {
    /// The stable lowercase token used on the wire.
    pub fn token(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::UnknownOp => "unknown-op",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Draining => "draining",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A request the service could not serve, with the error-line ingredients.
#[derive(Debug, Clone)]
pub struct ProtocolError {
    /// The request id when one was recoverable (echoed as `"id":null`
    /// otherwise, e.g. on a parse error).
    pub id: Option<String>,
    /// The error class token.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

/// The parameters shared by the solver-backed operations.
#[derive(Debug, Clone)]
pub struct Query {
    /// Case name (`ieee14`, `ieee300`, ...) or a case-file path readable
    /// by the server process.
    pub case: String,
    /// Scenario text in the `sta` scenario grammar; empty means the
    /// unconstrained scenario (the CLI's `-`).
    pub scenario: String,
    /// Certification level; part of the session cache key.
    pub certify: CertifyLevel,
    /// Per-request deadline in milliseconds, overriding the scenario
    /// file's own `timeout-ms`.
    pub timeout_ms: Option<u64>,
    /// Synthesis resource budget (number of securable buses).
    pub budget: Option<usize>,
    /// Campaign: worker threads for the nested sweep.
    pub workers: usize,
    /// Emit the trailing `timing` object (default true; set false for
    /// byte-deterministic responses).
    pub timing: bool,
    /// Interleave `trace` lines (phase counters) before the response.
    pub trace: bool,
}

/// The exposition format of a `metrics` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// The schema-versioned `sta-metrics/v1` JSON object (the default).
    Json,
    /// Prometheus text exposition, carried as an escaped `body` string.
    Prometheus,
}

/// The operation a request asks for.
#[derive(Debug, Clone)]
pub enum Op {
    /// Liveness probe, answered inline.
    Ping,
    /// Service counters (sessions, admissions), answered inline.
    Stats,
    /// A full telemetry snapshot, answered inline.
    Metrics {
        /// Requested exposition format.
        format: MetricsFormat,
    },
    /// A subscription: the connection receives a telemetry snapshot every
    /// `interval_ms` until the client disconnects or the server drains.
    Watch {
        /// Snapshot cadence in milliseconds (strictly positive).
        interval_ms: u64,
    },
    /// Graceful drain: stop admitting, finish or cancel in-flight work,
    /// then stop the listener. `drain_ms` overrides the server default.
    Shutdown {
        /// Drain deadline override in milliseconds.
        drain_ms: Option<u64>,
    },
    /// One attack-feasibility check (§IV of the paper).
    Verify(Query),
    /// One countermeasure synthesis (CEGIS loop, §V).
    Synthesize(Query),
    /// The standard verification sweep over one case.
    Campaign(Query),
}

/// One parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen id echoed on every line emitted for this request.
    pub id: String,
    /// What to do.
    pub op: Op,
}

fn field_error(id: &str, message: String) -> ProtocolError {
    ProtocolError {
        id: Some(id.to_string()),
        kind: ErrorKind::BadRequest,
        message,
    }
}

fn bool_field(json: &Json, id: &str, key: &str, default: bool) -> Result<bool, ProtocolError> {
    match json.get(key) {
        None => Ok(default),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(field_error(id, format!("{key:?} must be a boolean"))),
    }
}

fn u64_field(json: &Json, id: &str, key: &str) -> Result<Option<u64>, ProtocolError> {
    match json.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| field_error(id, format!("{key:?} must be a non-negative integer"))),
    }
}

fn certify_field(json: &Json, id: &str) -> Result<CertifyLevel, ProtocolError> {
    let Some(value) = json.get("certify").map(Json::as_str) else {
        return Ok(CertifyLevel::Off);
    };
    value.and_then(CertifyLevel::parse).ok_or_else(|| {
        field_error(
            id,
            format!("\"certify\" must be \"off\"|\"models\"|\"full\", got {value:?}"),
        )
    })
}

fn query(json: &Json, id: &str) -> Result<Query, ProtocolError> {
    let case = json
        .get("case")
        .and_then(Json::as_str)
        .ok_or_else(|| field_error(id, "request needs a string \"case\"".into()))?
        .to_string();
    let scenario = match json.get("scenario") {
        None => String::new(),
        Some(Json::Str(s)) => s.clone(),
        Some(_) => return Err(field_error(id, "\"scenario\" must be a string".into())),
    };
    Ok(Query {
        case,
        scenario,
        certify: certify_field(json, id)?,
        timeout_ms: u64_field(json, id, "timeout_ms")?,
        budget: u64_field(json, id, "budget")?.map(|n| n as usize),
        workers: u64_field(json, id, "workers")?.unwrap_or(2) as usize,
        timing: bool_field(json, id, "timing", true)?,
        trace: bool_field(json, id, "trace", false)?,
    })
}

/// Parses one request line. Errors carry the request id whenever it was
/// recoverable so the error response still correlates with the request.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let json = parse(line).map_err(|e| ProtocolError {
        id: None,
        kind: ErrorKind::Parse,
        message: e.to_string(),
    })?;
    let id = match json.get("id").map(Json::as_str) {
        Some(Some(id)) => id.to_string(),
        _ => {
            return Err(ProtocolError {
                id: None,
                kind: ErrorKind::BadRequest,
                message: "request needs a string \"id\"".into(),
            })
        }
    };
    let op = json
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| field_error(&id, "request needs a string \"op\"".into()))?;
    let op = match op {
        "ping" => Op::Ping,
        "stats" => Op::Stats,
        "metrics" => Op::Metrics {
            format: match json.get("format").map(Json::as_str) {
                None | Some(Some("json")) => MetricsFormat::Json,
                Some(Some("prometheus")) => MetricsFormat::Prometheus,
                Some(other) => {
                    return Err(field_error(
                        &id,
                        format!(
                            "\"format\" must be \"json\"|\"prometheus\", got {other:?}"
                        ),
                    ))
                }
            },
        },
        "watch" => {
            let interval_ms = u64_field(&json, &id, "interval_ms")?.unwrap_or(1000);
            if interval_ms == 0 {
                return Err(field_error(
                    &id,
                    "\"interval_ms\" must be a positive integer".into(),
                ));
            }
            Op::Watch { interval_ms }
        }
        "shutdown" => Op::Shutdown { drain_ms: u64_field(&json, &id, "drain_ms")? },
        "verify" => Op::Verify(query(&json, &id)?),
        "synthesize" => Op::Synthesize(query(&json, &id)?),
        "campaign" => Op::Campaign(query(&json, &id)?),
        other => {
            return Err(ProtocolError {
                id: Some(id),
                kind: ErrorKind::UnknownOp,
                message: format!("unknown op {other:?}"),
            })
        }
    };
    Ok(Request { id, op })
}

/// Opens a response line: `{"id":<id>,"type":"response","op":<op>` — the
/// caller appends payload keys and the closing brace.
pub fn response_head(id: &str, op: &str) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"id\":");
    escape_into(id, &mut out);
    out.push_str(",\"type\":\"response\",\"op\":");
    escape_into(op, &mut out);
    out
}

/// Renders a complete `error` line. `id` is `null` when the request was
/// too broken to recover one (the parse-error case).
pub fn error_line(id: Option<&str>, kind: ErrorKind, message: &str) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"id\":");
    match id {
        Some(id) => escape_into(id, &mut out),
        None => out.push_str("null"),
    }
    out.push_str(",\"type\":\"error\",\"error\":");
    escape_into(kind.token(), &mut out);
    out.push_str(",\"message\":");
    escape_into(message, &mut out);
    out.push('}');
    out
}

/// Wraps one telemetry-snapshot JSON object as an intermediate `watch`
/// line. Like `trace` lines, `watch` lines never terminate a request —
/// the subscription ends with a regular `response` line carrying the
/// final snapshot.
pub fn watch_line(id: &str, seq: u64, snapshot_json: &str) -> String {
    let mut out = String::with_capacity(256 + snapshot_json.len());
    out.push_str("{\"id\":");
    escape_into(id, &mut out);
    let _ = std::fmt::Write::write_fmt(
        &mut out,
        format_args!(",\"type\":\"watch\",\"seq\":{seq},\"metrics\":"),
    );
    out.push_str(snapshot_json);
    out.push('}');
    out
}

/// Wraps one [`TraceEvent`] as a request-tagged `trace` line.
pub fn trace_line(id: &str, event: &TraceEvent) -> String {
    let mut out = String::with_capacity(192);
    out.push_str("{\"id\":");
    escape_into(id, &mut out);
    out.push_str(",\"type\":\"trace\",\"event\":");
    out.push_str(&event.to_json());
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_verify_request() {
        // `incremental` is a retired key that older clients still send.
        let line = "{\"id\":\"r1\",\"op\":\"verify\",\"case\":\"ieee14\",\
             \"scenario\":\"target-state 12\\n\",\"certify\":\"models\",\
             \"timeout_ms\":250,\"timing\":false,\"trace\":true,\"incremental\":false}";
        let req = parse_request(line).expect("parses");
        assert_eq!(req.id, "r1");
        let Op::Verify(q) = req.op else { panic!("expected verify") };
        assert_eq!(q.case, "ieee14");
        assert_eq!(q.scenario, "target-state 12\n");
        assert_eq!(q.certify, CertifyLevel::CheckModels);
        assert_eq!(q.timeout_ms, Some(250));
        assert!(!q.timing);
        assert!(q.trace);
    }

    #[test]
    fn defaults_are_lenient() {
        let req = parse_request("{\"id\":\"a\",\"op\":\"verify\",\"case\":\"ieee14\",\"extra\":1}")
            .expect("unknown keys are ignored");
        let Op::Verify(q) = req.op else { panic!("expected verify") };
        assert!(q.scenario.is_empty());
        assert_eq!(q.certify, CertifyLevel::Off);
        assert_eq!(q.timeout_ms, None);
        assert!(q.timing);
        assert!(!q.trace);
    }

    #[test]
    fn u64_max_timeout_parses_unclamped() {
        // The protocol performs no range validation on timeout_ms — the
        // budget layer is what must survive the extreme value (regression
        // for the Instant-overflow panic in Budget::with_timeout).
        let req = parse_request(
            "{\"id\":\"t\",\"op\":\"verify\",\"case\":\"ieee14\",\
             \"timeout_ms\":18446744073709551615}",
        )
        .expect("parses");
        let Op::Verify(q) = req.op else { panic!("expected verify") };
        assert_eq!(q.timeout_ms, Some(u64::MAX));
    }

    #[test]
    fn metrics_and_watch_ops_parse_and_validate() {
        let req = parse_request("{\"id\":\"m\",\"op\":\"metrics\"}").expect("parses");
        let Op::Metrics { format } = req.op else { panic!("expected metrics") };
        assert_eq!(format, MetricsFormat::Json);
        let req = parse_request("{\"id\":\"m\",\"op\":\"metrics\",\"format\":\"prometheus\"}")
            .expect("parses");
        let Op::Metrics { format } = req.op else { panic!("expected metrics") };
        assert_eq!(format, MetricsFormat::Prometheus);
        let err = parse_request("{\"id\":\"m\",\"op\":\"metrics\",\"format\":\"xml\"}")
            .expect_err("unknown format");
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert!(err.message.contains("prometheus"));

        let req = parse_request("{\"id\":\"w\",\"op\":\"watch\"}").expect("parses");
        let Op::Watch { interval_ms } = req.op else { panic!("expected watch") };
        assert_eq!(interval_ms, 1000);
        let req = parse_request("{\"id\":\"w\",\"op\":\"watch\",\"interval_ms\":50}")
            .expect("parses");
        let Op::Watch { interval_ms } = req.op else { panic!("expected watch") };
        assert_eq!(interval_ms, 50);
        let err = parse_request("{\"id\":\"w\",\"op\":\"watch\",\"interval_ms\":0}")
            .expect_err("zero interval");
        assert_eq!(err.kind, ErrorKind::BadRequest);
        let err = parse_request("{\"id\":\"w\",\"op\":\"watch\",\"interval_ms\":\"fast\"}")
            .expect_err("non-numeric interval");
        assert_eq!(err.kind, ErrorKind::BadRequest);
    }

    #[test]
    fn watch_lines_are_tagged_and_never_final() {
        let line = watch_line("w1", 3, "{\"schema\":\"sta-metrics/v1\"}");
        assert_eq!(
            line,
            "{\"id\":\"w1\",\"type\":\"watch\",\"seq\":3,\
             \"metrics\":{\"schema\":\"sta-metrics/v1\"}}"
        );
        assert!(!crate::client::is_final(&line));
    }

    #[test]
    fn parse_error_has_no_id() {
        let err = parse_request("not json").expect_err("must fail");
        assert_eq!(err.kind, ErrorKind::Parse);
        assert!(err.id.is_none());
    }

    #[test]
    fn unknown_op_keeps_the_id() {
        let err = parse_request("{\"id\":\"x\",\"op\":\"fly\"}").expect_err("must fail");
        assert_eq!(err.kind, ErrorKind::UnknownOp);
        assert_eq!(err.id.as_deref(), Some("x"));
    }

    #[test]
    fn missing_id_or_case_is_bad_request() {
        let err = parse_request("{\"op\":\"ping\"}").expect_err("id required");
        assert_eq!(err.kind, ErrorKind::BadRequest);
        let err =
            parse_request("{\"id\":\"x\",\"op\":\"verify\"}").expect_err("case required");
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert_eq!(err.id.as_deref(), Some("x"));
    }

    #[test]
    fn wire_lines_escape_and_tag() {
        let err = error_line(None, ErrorKind::Parse, "bad \"line\"");
        assert_eq!(
            err,
            "{\"id\":null,\"type\":\"error\",\"error\":\"parse\",\
             \"message\":\"bad \\\"line\\\"\"}"
        );
        let head = response_head("r\"1", "verify");
        assert!(head.starts_with("{\"id\":\"r\\\"1\",\"type\":\"response\""));
        let trace = trace_line(
            "r1",
            &TraceEvent::JobEnd { job: 0, verdict: "sat".into(), wall_us: 7 },
        );
        assert!(trace.starts_with("{\"id\":\"r1\",\"type\":\"trace\",\"event\":{"));
        assert!(trace.ends_with("}}"));
    }
}
