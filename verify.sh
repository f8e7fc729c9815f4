#!/usr/bin/env bash
# Offline verification gate. Everything here must pass before merging:
#
#   1. tier-1: warning-free release build + full workspace test suite
#      (the sparse LU kernel differential against the dense `Lu` runs
#      there, as unit tests of sta-linalg), then the many-seed `Rational`
#      differential sweep in release (tests/rational_equiv.rs; its
#      ignored variant, so tier-1 runs only the few-seed one), the
#      many-seed observability differential with its 300-bus rung in
#      release (tests/sparse_equiv.rs, likewise its ignored variant),
#      the many-seed formula differential across simplex engines
#      and certification levels (tests/simplex_equiv.rs, likewise) and
#      the many-seed CDCL trajectory pin, whose searches must repeat the
#      golden counters of the per-clause core they replaced
#      (crates/smt/tests/cdcl_trajectory.rs, likewise); last, a
#      release build of the `stabench/` benchmark, a workspace of its
#      own that the workspace build never compiles, so deleting a public
#      item it uses fails here rather than in its first bench run. It
#      builds into target/stabench-check and writes nothing under
#      stabench/ (about 40 s)
#   2. source lint (tests/lint.rs): no unwrap/expect in smt/core library code
#   3. sta-smt under --features certify-debug (simplex invariant auditor
#      on, including the revised engine's candidate set and all-zero
#      solve scratch at every pivot boundary; the CDCL core's audit of
#      its clause arena, watch spans and reasons at every propagation
#      fixpoint of the search and after every compaction)
#   4. end-to-end certification smoke on IEEE 14-bus: one SAT answer with
#      model re-evaluation and one UNSAT answer with RUP proof replay,
#      both under `--certify full`
#   5. campaign smoke: a certified 33-job IEEE 14-bus sweep on 4 workers
#      with one forced-timeout job (must exit 3 = at least one unknown),
#      whose timing-stripped report is byte-identical to a 1-worker run;
#      its --trace JSONL must be well-formed with non-zero phase counters;
#      on machines with >= 4 CPUs the 4-worker run must also be >= 2x
#      faster than the 1-worker run
#   6. (moved into step 1) engine equivalence: the certified 14-bus
#      sweep with a forced timeout, pinned to the dense oracle and on the
#      default (revised) engine, must produce byte-identical
#      timing-stripped reports; it is now the tier-1 test
#      tests/simplex_equiv.rs::campaign_reports_are_byte_identical_across_engines
#   7. bench smoke: `sta bench --reps 1` must emit a schema-valid
#      sta-bench/v1 trajectory point, and the deterministic self-diff
#      (--baseline F --against F) must exit 0 for both the fresh point
#      and the checked-in BENCH_smoke.json
#   8. serve smoke: a persistent `sta serve` daemon on a unix socket
#      answers a cold `sta client verify` with a session cache miss and
#      the identical warm request with a hit, then drains cleanly and
#      removes its socket file
#   9. serve bench: `sta bench --suite serve --reps 5` medians — a warm
#      request (cached session) must beat the cold request that built it;
#      and the warm request repeated on one kept TCP connection
#      (`warm-verify-keepalive`) must stay within 1.5x + 500us of the
#      one-shot unix `warm-verify` median — no transport stall (such as
#      Nagle's algorithm against a delayed ACK) between kept requests
#  10. scale bench: `sta bench --suite scale --reps 1` runs the WLS /
#      observability / verify ladder at 14..2000 buses to completion with
#      a schema-valid report, and three ratios/verdicts are pinned:
#      the 300-bus sparse WLS median must be at least 10x faster than
#      the dense-oracle median (the sparse numerics lift the estimation
#      ceiling); the pivot-heavy 300-bus engine A/B pair must show the
#      revised simplex strictly beating the dense tableau (the factorized
#      basis lifts the solver ceiling); the 2000-bus verify rung must
#      answer `unsat` — completing within its deadline, not timing out;
#      and on the 1354- and 2000-bus verify rungs the wall time outside
#      the encode and search phases (verifier set-up: the DC operating
#      point and the session build) must stay under 1% of the wall
#  11. telemetry smoke (inside the serve smoke): the metrics registry
#      counts the two verify requests exactly, the Prometheus exposition
#      carries the same totals, and `sta top --once` renders a frame
#  12. telemetry overhead: the serve bench's warm-verify median with the
#      measurement plane on must stay within 1.5x + 500us of the
#      telemetry-off median — observation must stay cheap
#  13. paper suites (right after step 7): `sta bench --suite S --reps 1`
#      for S = fig4, fig5, table4 and ablation (the paper's Fig. 4,
#      Fig. 5 and Table IV, and this reproduction's ablation) must each
#      exit 0, which means every verdict the paper's set-up pins held,
#      and write a schema-valid sta-bench/v1 file. About 25 s, 22 s of
#      it the one Fig. 4(c) job at 30 buses and T_CZ = 16
#  14. simplex attribution (right before step 10): `sta verify` of the
#      blocked `max-measurements 0` scenario on ieee1354 and ieee2000
#      with `--profile` must keep the `search` row's self time under 5%
#      of its inclusive time — the `simplex` leaf covers each theory
#      check whole, so what search keeps for itself is the CDCL loop.
#      About 6 s
#
# No network access is required. Steps 14 and 10 run every one of their
# gates and then fail if any gate failed, so one failing ratio does not
# hide the others; everything else, their build and missing-data errors
# included, fails fast on the first error.
set -euo pipefail
cd "$(dirname "$0")"

# Gate failures of steps 14 and 10, reported together after the last one.
failed_gates=()
gate_failed() {
    echo "$1" >&2
    failed_gates+=("$1")
}

echo "==> tier-1: release build (deny warnings)"
RUSTFLAGS="-D warnings" cargo build --release

echo "==> tier-1: workspace tests"
cargo test -q --workspace

echo "==> tier-1: many-seed Rational differential sweep (release)"
cargo test -q --release --test rational_equiv -- --ignored

echo "==> tier-1: many-seed observability differential (release)"
cargo test -q --release --test sparse_equiv -- --ignored

echo "==> tier-1: many-seed formula differential across engines (release)"
cargo test -q --release --test simplex_equiv -- --ignored

echo "==> tier-1: many-seed CDCL trajectory pin (release)"
cargo test -q --release -p sta-smt --test cdcl_trajectory -- --ignored

echo "==> tier-1: the benchmark builds against this tree"
cargo build --release --offline --locked --manifest-path stabench/Cargo.toml \
    --target-dir target/stabench-check

echo "==> source lint (invariant analyzer via cargo test)"
cargo test -q --test lint

echo "==> sta lint: zero findings, byte-stable JSON"
./target/release/sta lint --json > LINT_findings.json
./target/release/sta lint --json > LINT_findings.rerun.json
cmp -s LINT_findings.json LINT_findings.rerun.json || {
    echo "sta lint --json output differs between identical runs" >&2
    exit 1
}
rm -f LINT_findings.rerun.json
# Findings-count regression gate: the tree at HEAD must be clean — any
# new finding (or stale allowlist entry) fails the build.
grep -q '"findings":\[\]' LINT_findings.json || {
    echo "sta lint reports findings (see LINT_findings.json)" >&2
    exit 1
}

echo "==> sta lint: injected violation must exit 1"
lintroot="$(mktemp -d)"
for root in crates/analysis/src crates/campaign/src crates/core/src \
            crates/estimator/src crates/grid/src crates/linalg/src \
            crates/serve/src crates/smt/src src; do
    mkdir -p "$lintroot/$root"
    cp -r "$root/." "$lintroot/$root/"
done
printf 'fn injected() { let _ = std::time::Instant::now(); }\n' \
    | cat - "$lintroot/crates/core/src/lib.rs" > "$lintroot/crates/core/src/lib.rs.tmp"
mv "$lintroot/crates/core/src/lib.rs.tmp" "$lintroot/crates/core/src/lib.rs"
status=0
./target/release/sta lint --root "$lintroot" >/dev/null || status=$?
rm -rf "$lintroot"
if [ "$status" -ne 1 ]; then
    echo "expected exit 1 from sta lint on an injected violation, got $status" >&2
    exit 1
fi

echo "==> sta-smt with certify-debug (simplex and CDCL core invariant audits)"
cargo test -q -p sta-smt --features certify-debug

echo "==> certification smoke: SAT with full certification (ieee14)"
./target/release/sta verify ieee14 - --certify full >/dev/null

echo "==> certification smoke: UNSAT with full certification (ieee14)"
scenario="$(mktemp)"
trap 'rm -f "$scenario"' EXIT
cat > "$scenario" <<'EOF'
target 12 change
max-measurements 0
certify full
EOF
# A blocked scenario must exit 1 (unsat); any other status is a failure.
status=0
./target/release/sta verify ieee14 "$scenario" >/dev/null || status=$?
if [ "$status" -ne 1 ]; then
    echo "expected certified unsat (exit 1), got exit $status" >&2
    exit 1
fi

echo "==> campaign smoke: certified 33-job sweep, 4 workers, one forced timeout"
report1="$(mktemp)" report4="$(mktemp)" trace4="$(mktemp)"
trap 'rm -f "$scenario" "$report1" "$report4" "$trace4"' EXIT
status=0
./target/release/sta campaign ieee14 --jobs 4 --certify full --force-timeout \
    --out "$report4" --strip-timing --trace "$trace4" --metrics >/dev/null || status=$?
if [ "$status" -ne 3 ]; then
    echo "expected exit 3 (forced-timeout job is unknown), got exit $status" >&2
    exit 1
fi
grep -q '"verdict":"unknown(timeout)"' "$report4" || {
    echo "campaign report is missing the forced unknown(timeout) verdict" >&2
    exit 1
}

echo "==> trace smoke: --trace JSONL is well-formed with non-zero counters"
bad_lines=$(grep -c -v '^{"event":"' "$trace4" || true)
if [ "$bad_lines" -ne 0 ]; then
    echo "trace file has $bad_lines line(s) not starting with {\"event\":\"" >&2
    exit 1
fi
for pattern in '"event":"run-start"' '"event":"job-start"' '"event":"run-end"' \
               '"phase":"encode"' '"phase":"search"' '"phase":"simplex"'; do
    grep -q -- "$pattern" "$trace4" || {
        echo "trace file is missing $pattern" >&2
        exit 1
    }
done
grep -q '"decisions":[1-9]' "$trace4" || {
    echo "trace file has no job with non-zero decisions" >&2
    exit 1
}
grep -q '"clauses":[1-9]' "$trace4" || {
    echo "trace file has no job with non-zero clauses" >&2
    exit 1
}

echo "==> campaign determinism: 1-worker stripped report must match"
status=0
./target/release/sta campaign ieee14 --jobs 1 --certify full --force-timeout \
    --out "$report1" --strip-timing >/dev/null || status=$?
if [ "$status" -ne 3 ]; then
    echo "expected exit 3 from the 1-worker run, got exit $status" >&2
    exit 1
fi
cmp -s "$report1" "$report4" || {
    echo "timing-stripped campaign reports differ between 1 and 4 workers" >&2
    exit 1
}

if [ "$(nproc)" -ge 4 ]; then
    echo "==> campaign speedup: --jobs 4 must halve the 32-job sweep wall clock"
    t1_start=$(date +%s%N)
    ./target/release/sta campaign ieee14 --jobs 1 >/dev/null
    t1=$((($(date +%s%N) - t1_start) / 1000000))
    t4_start=$(date +%s%N)
    ./target/release/sta campaign ieee14 --jobs 4 >/dev/null
    t4=$((($(date +%s%N) - t4_start) / 1000000))
    echo "    1 worker: ${t1} ms, 4 workers: ${t4} ms"
    if [ $((t4 * 2)) -gt "$t1" ]; then
        echo "expected >= 2x speedup at --jobs 4 (got ${t1} ms -> ${t4} ms)" >&2
        exit 1
    fi
else
    echo "==> campaign speedup check skipped ($(nproc) CPU(s) available)"
fi

echo "==> bench smoke: one-rep trajectory point + deterministic self-diff"
./target/release/sta bench --suite smoke --reps 1 --out BENCH_smoke.ci.json >/dev/null
grep -q '"schema":"sta-bench/v1"' BENCH_smoke.ci.json || {
    echo "bench output is missing the sta-bench/v1 schema tag" >&2
    exit 1
}
# --against skips the run entirely: a file diffed against itself must
# parse (schema validation) and report zero regressions (exit 0).
./target/release/sta bench --baseline BENCH_smoke.ci.json \
    --against BENCH_smoke.ci.json >/dev/null
./target/release/sta bench --baseline BENCH_smoke.json \
    --against BENCH_smoke.json >/dev/null

echo "==> paper suites: Fig. 4, Fig. 5, Table IV and the ablation hold their pins"
for suite in fig4 fig5 table4 ablation; do
    ./target/release/sta bench --suite "$suite" --reps 1 \
        --out "BENCH_$suite.ci.json" >/dev/null
    grep -q '"schema":"sta-bench/v1"' "BENCH_$suite.ci.json" || {
        echo "$suite bench output is missing the sta-bench/v1 schema tag" >&2
        exit 1
    }
done

echo "==> serve smoke: warm session cache over a unix socket"
sockdir="$(mktemp -d)"
serve_pid=""
trap 'rm -f "$scenario" "$report1" "$report4" "$trace4"; \
     [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null; \
     rm -rf "$sockdir"; true' EXIT
sock="$sockdir/sta-serve-ci.sock"
./target/release/sta serve --listen "$sock" --jobs 2 >/dev/null &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -S "$sock" ] && break
    sleep 0.05
done
[ -S "$sock" ] || { echo "serve socket never appeared at $sock" >&2; exit 1; }
cold_out="$(./target/release/sta client "$sock" verify ieee14 -)"
warm_out="$(./target/release/sta client "$sock" verify ieee14 -)"
echo "$cold_out" | grep -q '"session":"miss"' || {
    echo "cold serve request did not report a session cache miss" >&2
    exit 1
}
echo "$warm_out" | grep -q '"session":"hit"' || {
    echo "warm serve request did not report a session cache hit" >&2
    exit 1
}
echo "==> telemetry smoke: exact counters, Prometheus exposition, top frame"
metrics_out="$(./target/release/sta client "$sock" metrics --json)"
echo "$metrics_out" | grep -q '"schema":"sta-metrics/v1"' || {
    echo "metrics reply is missing the sta-metrics/v1 schema tag" >&2
    exit 1
}
echo "$metrics_out" | grep -q '"verify":{"requests":2' || {
    echo "metrics registry did not count exactly 2 verify requests" >&2
    exit 1
}
./target/release/sta client "$sock" metrics --format prometheus \
    | grep -q 'sta_requests_total{op="verify"} 2' || {
    echo "Prometheus exposition disagrees with the verify request count" >&2
    exit 1
}
top_out="$(./target/release/sta top "$sock" --once)"
echo "$top_out" | grep -q 'uptime ' || {
    echo "sta top --once did not render the header gauges" >&2
    exit 1
}
echo "$top_out" | grep -q '^verify ' || {
    echo "sta top --once did not render the per-op table" >&2
    exit 1
}
./target/release/sta client "$sock" shutdown >/dev/null
wait "$serve_pid" || {
    echo "sta serve exited non-zero after a clean shutdown" >&2
    exit 1
}
serve_pid=""
[ -S "$sock" ] && { echo "serve left its socket file behind" >&2; exit 1; }

echo "==> serve bench: warm must beat cold on 5-rep medians"
./target/release/sta bench --suite serve --reps 5 --out BENCH_serve.ci.json >/dev/null
grep -q '"schema":"sta-bench/v1"' BENCH_serve.ci.json || {
    echo "serve bench output is missing the sta-bench/v1 schema tag" >&2
    exit 1
}
./target/release/sta bench --baseline BENCH_serve.ci.json \
    --against BENCH_serve.ci.json >/dev/null
cold_us="$(sed -n 's/.*"label":"cold-verify"[^}]*"wall_us":\([0-9]*\).*/\1/p' BENCH_serve.ci.json)"
warm_us="$(sed -n 's/.*"label":"warm-verify"[^}]*"wall_us":\([0-9]*\).*/\1/p' BENCH_serve.ci.json)"
if [ -z "$cold_us" ] || [ -z "$warm_us" ]; then
    echo "could not extract cold/warm medians from BENCH_serve.ci.json" >&2
    exit 1
fi
echo "    cold median: ${cold_us} us, warm median: ${warm_us} us"
if [ "$warm_us" -ge "$cold_us" ]; then
    echo "warm serve requests must beat cold (got ${cold_us} us -> ${warm_us} us)" >&2
    exit 1
fi

echo "==> serve bench: kept TCP connection vs one-shot unix on warm medians"
kept_us="$(sed -n 's/.*"label":"warm-verify-keepalive"[^}]*"wall_us":\([0-9]*\).*/\1/p' BENCH_serve.ci.json)"
if [ -z "$kept_us" ]; then
    echo "could not extract the warm-verify-keepalive median from BENCH_serve.ci.json" >&2
    exit 1
fi
echo "    keep-alive TCP: ${kept_us} us, one-shot unix: ${warm_us} us"
if [ "$kept_us" -gt $((warm_us * 3 / 2 + 500)) ]; then
    echo "kept-connection requests stall: ${kept_us} us vs ${warm_us} us one-shot (bound 1.5x + 500us)" >&2
    exit 1
fi

echo "==> telemetry overhead: histograms on vs off on warm medians"
off_us="$(sed -n 's/.*"label":"warm-verify-notelemetry"[^}]*"wall_us":\([0-9]*\).*/\1/p' BENCH_serve.ci.json)"
if [ -z "$off_us" ]; then
    echo "could not extract the warm-verify-notelemetry median from BENCH_serve.ci.json" >&2
    exit 1
fi
echo "    telemetry on: ${warm_us} us, off: ${off_us} us"
if [ "$warm_us" -gt $((off_us * 3 / 2 + 500)) ]; then
    echo "telemetry overhead too high: warm ${warm_us} us vs ${off_us} us off (bound 1.5x + 500us)" >&2
    exit 1
fi

echo "==> simplex attribution: search self time under 5% of search at 1354/2000 buses"
for b in 1354 2000; do
    status=0
    profile="$(./target/release/sta verify "ieee$b" <(printf 'max-measurements 0\n') \
        --profile)" || status=$?
    if [ "$status" -ne 1 ]; then
        gate_failed "expected unsat (exit 1) from the blocked ieee$b verify, got exit $status"
    fi
    row="$(echo "$profile" | awk '$1 == "search" { print $3, $4 }')"
    if [ -z "$row" ]; then
        echo "no search row in the ieee$b --profile output" >&2
        exit 1
    fi
    incl_ms="${row% *}" self_ms="${row#* }"
    echo "    ieee$b: search self ${self_ms} ms of ${incl_ms} ms"
    awk -v s="$self_ms" -v i="$incl_ms" 'BEGIN { exit !(s * 100 < i * 5) }' ||
        gate_failed "ieee$b search keeps ${self_ms} ms of ${incl_ms} ms as self time (bound: 5%)"
done

echo "==> scale bench: sparse WLS must beat the dense oracle 10x at 300 buses"
./target/release/sta bench --suite scale --reps 1 --out BENCH_scale.ci.json >/dev/null
grep -q '"schema":"sta-bench/v1"' BENCH_scale.ci.json || {
    echo "scale bench output is missing the sta-bench/v1 schema tag" >&2
    exit 1
}
# Deterministic self-diff: the fresh report must parse and diff cleanly
# against itself (same schema/regression machinery as the smoke suites).
./target/release/sta bench --baseline BENCH_scale.ci.json \
    --against BENCH_scale.ci.json >/dev/null
sparse_us="$(sed -n 's/.*"label":"wls-sparse-300"[^}]*"wall_us":\([0-9]*\).*/\1/p' BENCH_scale.ci.json)"
dense_us="$(sed -n 's/.*"label":"wls-dense-300"[^}]*"wall_us":\([0-9]*\).*/\1/p' BENCH_scale.ci.json)"
if [ -z "$sparse_us" ] || [ -z "$dense_us" ]; then
    echo "could not extract 300-bus WLS medians from BENCH_scale.ci.json" >&2
    exit 1
fi
echo "    300-bus WLS median: sparse ${sparse_us} us, dense ${dense_us} us"
if [ $((sparse_us * 10)) -gt "$dense_us" ]; then
    gate_failed "300-bus sparse WLS must be >= 10x faster than dense (got sparse ${sparse_us} us vs dense ${dense_us} us)"
fi

echo "==> scale bench: revised simplex must beat dense on the 300-bus A/B pair"
vd_us="$(sed -n 's/.*"label":"verify-dense-300"[^}]*"wall_us":\([0-9]*\).*/\1/p' BENCH_scale.ci.json)"
vr_us="$(sed -n 's/.*"label":"verify-revised-300"[^}]*"wall_us":\([0-9]*\).*/\1/p' BENCH_scale.ci.json)"
if [ -z "$vd_us" ] || [ -z "$vr_us" ]; then
    echo "could not extract the 300-bus engine A/B medians from BENCH_scale.ci.json" >&2
    exit 1
fi
echo "    300-bus pivot-heavy verify median: dense ${vd_us} us, revised ${vr_us} us"
if [ "$vr_us" -ge "$vd_us" ]; then
    gate_failed "revised simplex must strictly beat dense at 300 buses (got dense ${vd_us} us vs revised ${vr_us} us)"
fi

echo "==> scale bench: the 2000-bus verify rung must complete within its deadline"
v2000="$(sed -n 's/.*"label":"verify-2000"[^}]*"verdict":"\([^"]*\)".*/\1/p' BENCH_scale.ci.json)"
if [ "$v2000" != "unsat" ]; then
    gate_failed "2000-bus verify rung did not complete (verdict: '${v2000:-missing}')"
fi

echo "==> scale bench: verify set-up outside encode and search stays under 1% of wall"
for b in 1354 2000; do
    row="$(grep -o "\"label\":\"verify-$b\"[^}]*" BENCH_scale.ci.json)"
    wall_us="$(echo "$row" | sed -n 's/.*"wall_us":\([0-9]*\).*/\1/p')"
    encode_us="$(echo "$row" | sed -n 's/.*"encode_us":\([0-9]*\).*/\1/p')"
    search_us="$(echo "$row" | sed -n 's/.*"search_us":\([0-9]*\).*/\1/p')"
    if [ -z "$wall_us" ] || [ -z "$encode_us" ] || [ -z "$search_us" ]; then
        echo "could not extract the verify-$b timings from BENCH_scale.ci.json" >&2
        exit 1
    fi
    rest_us=$((wall_us - encode_us - search_us))
    echo "    verify-$b: ${rest_us} us of ${wall_us} us outside encode and search"
    if [ $((rest_us * 100)) -ge "$wall_us" ]; then
        gate_failed "verify-$b spends ${rest_us} us of ${wall_us} us outside encode and search (bound: 1% of wall)"
    fi
done

if [ "${#failed_gates[@]}" -ne 0 ]; then
    echo "verify.sh: ${#failed_gates[@]} gate(s) of steps 14 and 10 failed:" >&2
    printf '  %s\n' "${failed_gates[@]}" >&2
    exit 1
fi
echo "verify.sh: all checks passed"
