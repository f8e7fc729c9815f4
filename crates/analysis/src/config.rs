//! The workspace's pinned analyzer configuration: scan roots, rule
//! scopes, allowlists, and the budget-poll inventory.
//!
//! Everything here is data, reviewed like code: adding an allowlist
//! entry or inventory line is a diff with a justification, exactly as
//! the old `tests/lint.rs` allowlist worked. Entries are exact-once —
//! stale or duplicate entries are findings themselves.

use crate::rules::{Allow, Config, PollSite};

/// Library roots scanned for `.rs` sources, relative to the workspace
/// root: every member crate's `src` (the paper-evaluation suites live
/// in `crates/campaign/src/paper.rs`). `tests/` directories are never
/// walked — the rules govern shipped library and binary code.
const ROOTS: &[&str] = &[
    "crates/analysis/src",
    "crates/campaign/src",
    "crates/core/src",
    "crates/estimator/src",
    "crates/grid/src",
    "crates/linalg/src",
    "crates/serve/src",
    "crates/smt/src",
    "src",
];

/// Report-feeding paths: anything here ends up in `CampaignReport`,
/// trace JSONL, bench JSON or rendered tables, where iteration order is
/// observable byte-for-byte. The CDCL core is included because its DRAT
/// proof log feeds certification artifacts.
const DETERMINISM_PATHS: &[&str] = &[
    "crates/campaign/src/",
    "crates/core/src/",
    "crates/grid/src/synthetic.rs",
    "crates/serve/src/",
    "crates/smt/src/json.rs",
    "crates/smt/src/profile.rs",
    "crates/smt/src/sat/cdcl.rs",
    "crates/smt/src/stats.rs",
    "crates/smt/src/tablefmt.rs",
    "crates/smt/src/trace.rs",
];

/// Solver hot paths where an unpolled loop turns a budget into a
/// suggestion (the PR 3 bug class).
const HOT_FILES: &[&str] = &[
    "crates/smt/src/cnf.rs",
    "crates/smt/src/sat/cdcl.rs",
    "crates/smt/src/simplex/dense.rs",
    "crates/smt/src/simplex/mod.rs",
    "crates/smt/src/simplex/revised.rs",
];

/// The shared JSON layer — the only place allowed to hand-escape.
const JSON_EXEMPT: &[&str] = &["crates/smt/src/json.rs"];

/// Solver-internal hash collections on determinism-scoped files. These
/// never reach a report in iteration order: the 1-vs-4-worker
/// byte-compare gate in `verify.sh` pins that empirically, and each
/// entry documents why order cannot leak.
const ALLOW_DETERMINISM: &[Allow] = &[
    Allow {
        file: "smt/src/sat/cdcl.rs",
        needle: "let remove: std::collections::HashSet<usize> =",
        why: "membership set for clause compaction; deletions are logged from \
              the sorted keep-order Vec, never by iterating this set",
    },
    Allow {
        file: "smt/src/sat/cdcl.rs",
        needle: "remove: &std::collections::HashSet<usize>",
        why: "compact_clauses only probes membership (contains); it iterates \
              the clause arena in index order",
    },
];

/// The only sanctioned raw clock reads: the two `Budget` deadline sites
/// and the `Clock::Monotonic` epoch. Everything else injects `Clock`.
const ALLOW_CLOCK: &[Allow] = &[
    Allow {
        file: "smt/src/budget.rs",
        needle: "Budget { deadline: Instant::now().checked_add(timeout), cancel: None }",
        why: "deadline anchor at budget construction; the one place wall \
              timeouts enter the system (checked_add: overflow = no deadline)",
    },
    Allow {
        file: "smt/src/budget.rs",
        needle: "if Instant::now() >= deadline {",
        why: "the deadline comparison itself; Budget is the clock boundary",
    },
    Allow {
        file: "smt/src/profile.rs",
        needle: "Clock::Monotonic { epoch: Instant::now() }",
        why: "Clock::monotonic()'s epoch; FakeClock substitutes in tests",
    },
];

/// Panic-freedom allowlist: the `tests/lint.rs` unwrap/expect entries
/// migrated verbatim, plus the `panic!`/`unreachable!` sites the wider
/// token set surfaces. Every entry documents the invariant that rules
/// the panic out (or marks a deliberate can't-happen abort).
const ALLOW_PANIC: &[Allow] = &[
    // -- migrated from tests/lint.rs ------------------------------------
    Allow {
        file: "smt/src/simplex/dense.rs",
        needle: "expect(\"entering in row\")",
        why: "pivot coefficients exist by the tableau invariant (audited \
              under certify-debug)",
    },
    Allow {
        file: "smt/src/simplex/dense.rs",
        needle: "expect(\"entering coefficient\")",
        why: "pivot coefficients exist by the tableau invariant (audited \
              under certify-debug)",
    },
    Allow {
        file: "smt/src/simplex/mod.rs",
        needle: "expect(\"backtrack within pushed levels\")",
        why: "the undo trail matches the CDCL push/pop discipline",
    },
    Allow {
        file: "smt/src/simplex/revised.rs",
        needle: "LuError::Singular => panic!(\"revised simplex: singular basis",
        why: "a singular basis means the factored columns stopped matching \
              the tableau invariant — a solver bug, aborted like a failed \
              certification (audited under certify-debug)",
    },
    Allow {
        file: "smt/src/sat/cdcl.rs",
        needle: "let last = self.order.pop().unwrap();",
        why: "heap pop follows a non-emptiness check",
    },
    Allow {
        file: "smt/src/sat/cdcl.rs",
        needle: "let lit = self.trail.pop().unwrap();",
        why: "trail pop follows a non-emptiness check",
    },
    Allow {
        file: "smt/src/sat/cdcl.rs",
        needle: "expect(\"non-decision literal has a reason\")",
        why: "1-UIP invariant: every non-decision trail literal has a reason \
              clause",
    },
    Allow {
        file: "smt/src/sat/cdcl.rs",
        needle: ".unwrap()",
        why: "partial_cmp over clause activities, which are finite f64s",
    },
    Allow {
        file: "smt/src/bigint.rs",
        needle: "b.last().unwrap().leading_zeros()",
        why: "normalized big integers have a nonzero top limb",
    },
    Allow {
        file: "smt/src/bigint.rs",
        needle: "digits.pop().unwrap()",
        why: "the digit buffer always receives at least one digit",
    },
    Allow {
        file: "smt/src/formula.rs",
        needle: "1 => fs.pop().unwrap(),",
        why: "pop inside a len() == 1 match arm",
    },
    Allow {
        file: "smt/src/formula.rs",
        needle: "1 => fs.pop().unwrap(),",
        why: "pop inside a len() == 1 match arm (second constructor)",
    },
    Allow {
        file: "smt/src/cnf.rs",
        needle: "expect(\"non-constant atom\")",
        why: "constant atoms are folded away by the Formula constructors \
              before the encoder can see them",
    },
    Allow {
        file: "core/src/scenario.rs",
        needle: "parts.next().unwrap()",
        why: "split_whitespace on a line already checked to be non-empty \
              yields a first token",
    },
    Allow {
        file: "core/src/analytics.rs",
        needle: "(s.min_measurements.unwrap(), s.min_buses.unwrap_or(0))",
        why: "summaries are only constructed for buses whose minimum was \
              found feasible",
    },
    Allow {
        file: "core/src/analytics.rs",
        needle: "s.min_measurements.unwrap(),",
        why: "summaries are only constructed for buses whose minimum was \
              found feasible",
    },
    Allow {
        file: "core/src/analytics.rs",
        needle: "expect(\"minimum feasible\")",
        why: "summaries are only constructed for buses whose minimum was \
              found feasible",
    },
    // -- new with the wider token set (panic!/unreachable!/todo!) --------
    Allow {
        file: "core/src/attack/batch.rs",
        needle: ".unwrap_or_else(|e| panic!(\"end_scenario without begin_scenario: {e}\"));",
        why: "API-misuse abort: the batch driver owns the begin/end pairing",
    },
    Allow {
        file: "core/src/attack/vector.rs",
        needle: "AttackOutcome::Infeasible => panic!(\"expected a feasible attack\"),",
        why: "documented precondition of the accessor: callers check \
              feasibility first",
    },
    Allow {
        file: "core/src/attack/vector.rs",
        needle: "panic!(\"expected a feasible attack, got unknown ({why})\")",
        why: "documented precondition of the accessor: callers check \
              feasibility first",
    },
    Allow {
        file: "grid/src/synthetic.rs",
        needle: ".unwrap_or_else(|| panic!(\"unsupported IEEE case size {num_buses}\"));",
        why: "documented panic: the case table lists the supported sizes",
    },
    Allow {
        file: "grid/src/synthetic.rs",
        needle: "expect(\"case-table dimensions are valid\")",
        why: "every (buses, lines) pair in IEEE_DIMENSIONS satisfies the \
              generate() preconditions by construction",
    },
    Allow {
        file: "grid/src/caseformat.rs",
        needle: "let keyword = parts.next().unwrap();",
        why: "split_whitespace on a line already checked to be non-empty \
              yields a first token (same invariant as scenario.rs)",
    },
    Allow {
        file: "smt/src/solver.rs",
        needle: "SatResult::Unsat => panic!(\"expected sat, got unsat\"),",
        why: "model accessor with a documented sat precondition",
    },
    Allow {
        file: "smt/src/solver.rs",
        needle: "SatResult::Unknown(why) => panic!(\"expected sat, got unknown ({why})\"),",
        why: "model accessor with a documented sat precondition",
    },
    Allow {
        file: "smt/src/solver.rs",
        needle: "Err(e) => panic!(\"{e}\\nassertions:\\n{}\", self.dump_assertions()),",
        why: "certification failure is a soundness bug: aborting with the \
              assertion dump is the designed response (the one helper behind \
              both check and check_assuming)",
    },
];

/// JSON-emission allowlist: empty — all emitters go through
/// `sta_smt::json` today, and the rule keeps it that way.
const ALLOW_JSON: &[Allow] = &[];

/// Exact inventory of budget-poll sites in the hot files. Exact-once in
/// both directions: deleting any single poll orphans its entry here and
/// fails the build; adding a poll demands a new reviewed entry.
const POLL_INVENTORY: &[PollSite] = &[
    // cdcl.rs: the main search loop polls per-conflict, the restart path
    // re-checks before a long propagation burst, and clause-DB reduction
    // polls before the sort.
    ("smt/src/sat/cdcl.rs", "if let Some(why) = self.budget.exhausted() {"),
    ("smt/src/sat/cdcl.rs", "self.budget.exhausted().unwrap_or(Interrupt::Timeout);"),
    ("smt/src/sat/cdcl.rs", "if let Some(why) = self.budget.exhausted() {"),
    // simplex: each engine's pivot loop polls every 16 iterations, and the
    // revised engine additionally threads a poll closure into the sparse
    // factor/solve kernels (which stride their own polling internally).
    ("smt/src/simplex/dense.rs", "if limited && iters & 15 == 0 && sh.budget.exhausted().is_some() {"),
    ("smt/src/simplex/revised.rs", "let mut poll = move || kernel_limited && kernel_budget.exhausted().is_some();"),
    ("smt/src/simplex/revised.rs", "if limited && iters & 15 == 0 && sh.budget.exhausted().is_some() {"),
    // cnf.rs: the encoder's own poll helper plus its five recursion-depth
    // call sites (the PR 3 fix).
    ("smt/src/cnf.rs", "if let Some(why) = self.budget.exhausted() {"),
    ("smt/src/cnf.rs", "self.poll()?;"),
    ("smt/src/cnf.rs", "self.poll()?;"),
    ("smt/src/cnf.rs", "self.poll()?;"),
    ("smt/src/cnf.rs", "self.poll()?;"),
    ("smt/src/cnf.rs", "self.poll()?;"),
];

/// The workspace configuration `sta lint` and `tests/lint.rs` run with.
pub fn default_config() -> Config {
    Config {
        roots: ROOTS,
        determinism_paths: DETERMINISM_PATHS,
        hot_files: HOT_FILES,
        json_exempt: JSON_EXEMPT,
        allow_determinism: ALLOW_DETERMINISM,
        allow_clock: ALLOW_CLOCK,
        allow_panic: ALLOW_PANIC,
        allow_json: ALLOW_JSON,
        poll_inventory: POLL_INVENTORY,
    }
}
