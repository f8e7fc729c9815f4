//! The `serve` bench suite: warm-vs-cold request latency.
//!
//! Each repetition boots a fresh in-process server on a unique unix
//! socket (TCP loopback off-unix), sends the same verify request twice
//! through the real client path, and records both round trips: the first
//! request pays the cold path (case load, operating point, base
//! encoding), the second hits the warm session cache and pays only the
//! scenario delta. The suite emits the standard `sta-bench/v1` artifact
//! (two jobs, `cold-verify` and `warm-verify`) so the perf-trajectory
//! diff machinery — `sta bench --baseline/--against` — covers the
//! service layer too. Warm beating cold by a wide margin is the whole
//! point of the session cache; `verify.sh` asserts it on medians.
//!
//! A third job, `warm-verify-notelemetry`, repeats the warm measurement
//! against a server booted with `telemetry: false` — the same load with
//! histogram recording off. The telemetry-on/off medians price the
//! measurement plane itself, and `verify.sh` gates that the overhead
//! stays within a small bound.
//!
//! A fourth job, `warm-verify-keepalive`, is the one that crosses TCP.
//! Each repetition boots a server on a kernel-assigned loopback port,
//! opens one [`client::Connection`], primes the session with one verify
//! and then sends the warm request five times on that same connection;
//! every one of those round trips is a sample. A one-shot connection
//! never shows a transport stall (the kernel ACKs a fresh connection's
//! first segments at once); the second and later requests on a kept
//! connection would, so `verify.sh` gates this median against the unix
//! `warm-verify` one.

use crate::client;
use crate::server::{spawn, ServeConfig};
use sta_campaign::bench::{median, BenchEnv, BenchResult, JobMeasurement, SCHEMA};
use sta_smt::json::{parse, Json};
use sta_smt::Clock;
use std::sync::atomic::{AtomicU64, Ordering};

/// A collision-free listen address for throwaway servers: a unix socket
/// path under the temp dir, unique per process and call (PID plus an
/// in-process counter — no wall-clock entropy, so reruns are stable).
/// On platforms without unix sockets, a kernel-assigned TCP port.
pub fn unique_listen_addr(tag: &str) -> String {
    if !cfg!(unix) {
        return "127.0.0.1:0".to_string();
    }
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir()
        .join(format!("sta-serve-{}-{tag}-{n}.sock", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// Warm requests per keep-alive connection, after its priming verify.
const KEEPALIVE_REQUESTS: usize = 5;

/// One measured round trip: client-side wall plus the server-reported
/// phase split and verdict.
struct Sample {
    wall_us: u64,
    encode_us: u64,
    search_us: u64,
    verdict: String,
}

/// A round trip on a fresh connection, dial included.
fn round_trip(clock: &Clock, addr: &str, line: &str) -> Result<Sample, String> {
    timed(clock, || client::request(addr, line))
}

/// Times one request sent by `send` and reads its final line.
fn timed(
    clock: &Clock,
    send: impl FnOnce() -> Result<Vec<String>, String>,
) -> Result<Sample, String> {
    let t0 = clock.now();
    let lines = send()?;
    let wall_us = clock.now().saturating_sub(t0).as_micros() as u64;
    let last = lines.last().ok_or("empty reply")?;
    let json = parse(last).map_err(|e| format!("unparsable response: {e}"))?;
    let verdict = json
        .get("verdict")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("response has no verdict: {last}"))?
        .to_string();
    let timing = json.get("timing").ok_or_else(|| format!("response has no timing: {last}"))?;
    let us = |key: &str| timing.get(key).and_then(Json::as_u64).unwrap_or(0);
    Ok(Sample { wall_us, encode_us: us("encode_us"), search_us: us("search_us"), verdict })
}

/// The keep-alive samples of one repetition: one TCP connection to `addr`,
/// a priming request, then [`KEEPALIVE_REQUESTS`] timed warm ones.
fn keepalive(
    clock: &Clock,
    addr: &str,
    prime: &str,
    warm: &str,
) -> Result<Vec<Sample>, String> {
    let mut conn = client::Connection::open(addr)?;
    conn.request(prime)?;
    (0..KEEPALIVE_REQUESTS)
        .map(|_| timed(clock, || conn.request(warm)))
        .collect()
}

/// Runs the suite: `reps` boot/cold/warm/shutdown cycles on a server with
/// `jobs` workers, medians per temperature; then the same on a server
/// with telemetry off and on a TCP server over one kept connection.
pub fn run_serve_suite(reps: usize, jobs: usize) -> Result<BenchResult, String> {
    let reps = reps.max(1);
    let clock = Clock::monotonic();
    let request_line = |rid: &str| {
        format!("{{\"id\":{rid:?},\"op\":\"verify\",\"case\":\"ieee14\",\"timing\":true}}")
    };
    let mut cold = Vec::with_capacity(reps);
    let mut warm = Vec::with_capacity(reps);
    let mut warm_off = Vec::with_capacity(reps);
    let mut warm_kept = Vec::with_capacity(reps * KEEPALIVE_REQUESTS);
    for rep in 0..reps {
        let mut config = ServeConfig::new(unique_listen_addr(&format!("bench{rep}")));
        config.jobs = jobs.max(1);
        let handle = spawn(config)?;
        let cold_sample = round_trip(&clock, handle.addr(), &request_line("cold"));
        let warm_sample = round_trip(&clock, handle.addr(), &request_line("warm"));
        handle.stop()?;
        cold.push(cold_sample?);
        warm.push(warm_sample?);
        // The overhead pair: the identical warm request against a server
        // with histogram recording disabled.
        let mut config = ServeConfig::new(unique_listen_addr(&format!("benchoff{rep}")));
        config.jobs = jobs.max(1);
        config.telemetry = false;
        let handle = spawn(config)?;
        let prime = round_trip(&clock, handle.addr(), &request_line("cold"));
        let off_sample = round_trip(&clock, handle.addr(), &request_line("warm"));
        handle.stop()?;
        prime?;
        warm_off.push(off_sample?);
        // The keep-alive run: the same requests on one TCP connection.
        let mut config = ServeConfig::new("127.0.0.1:0");
        config.jobs = jobs.max(1);
        let handle = spawn(config)?;
        let kept = keepalive(&clock, handle.addr(), &request_line("cold"), &request_line("warm"));
        handle.stop()?;
        warm_kept.extend(kept?);
    }
    let job = |id: u64, label: &str, samples: &[Sample]| JobMeasurement {
        id,
        label: label.to_string(),
        case: "ieee14".to_string(),
        verdict: samples.first().map(|s| s.verdict.clone()).unwrap_or_default(),
        wall_us: median(&mut samples.iter().map(|s| s.wall_us).collect::<Vec<_>>()),
        encode_us: median(&mut samples.iter().map(|s| s.encode_us).collect::<Vec<_>>()),
        search_us: median(&mut samples.iter().map(|s| s.search_us).collect::<Vec<_>>()),
    };
    Ok(BenchResult {
        schema: SCHEMA.to_string(),
        suite: "serve".to_string(),
        reps: reps as u64,
        workers: jobs.max(1) as u64,
        env: BenchEnv::capture(),
        jobs: vec![
            job(0, "cold-verify", &cold),
            job(1, "warm-verify", &warm),
            job(2, "warm-verify-notelemetry", &warm_off),
            job(3, "warm-verify-keepalive", &warm_kept),
        ],
        latency: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_addrs_do_not_collide() {
        let a = unique_listen_addr("t");
        let b = unique_listen_addr("t");
        if cfg!(unix) {
            assert_ne!(a, b);
        }
    }
}
