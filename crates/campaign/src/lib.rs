//! Parallel threat-analytics campaign engine.
//!
//! The paper's evaluation (§V) is a large grid of solver runs: attack
//! scenarios across target states, resource budgets, knowledge limits and
//! topology-poisoning toggles, over several IEEE cases. This crate turns
//! such a grid into a declarative [`CampaignSpec`] executed by a
//! dependency-free work-stealing thread pool ([`run`]):
//!
//! * every job carries an optional wall-clock deadline, threaded into the
//!   CDCL and simplex inner loops as a [`sta_smt::Budget`] — a stuck
//!   instance reports `unknown(timeout)` instead of hanging the sweep;
//! * jobs over the same case share a worker-local [`base encoding`]
//!   ([`sta_core::attack::VerifySession`]), so the grid constraints are
//!   encoded once per worker and each variant only pays its own delta;
//! * results aggregate deterministically by job id into a
//!   [`CampaignReport`] whose JSON form — per-job phase counters and
//!   their campaign-wide rollup included — is byte-identical across
//!   worker counts once the `timing` keys are stripped;
//! * [`run_traced`] additionally streams [`sta_smt::TraceEvent`]s into a
//!   shared sink as jobs finish (the `--trace` JSONL backend).
//!
//! The `sta campaign` CLI subcommand and every `sta bench` suite,
//! the paper's evaluation ([`paper`]) included, are thin builders over
//! this crate.
//!
//! [`base encoding`]: sta_core::attack::VerifySession
//!
//! # Examples
//!
//! ```
//! use sta_campaign::{run, CampaignSpec};
//! use sta_core::attack::AttackModel;
//! use sta_grid::ieee14;
//!
//! let mut spec = CampaignSpec::new("demo");
//! let case = spec.add_case("ieee14", ieee14::system());
//! spec.verify(case, "open", AttackModel::new(14));
//! spec.verify(case, "blocked", AttackModel::new(14).max_altered_measurements(0));
//! let report = run(&spec, 2);
//! assert_eq!(report.results[0].verdict.token(), "sat");
//! assert_eq!(report.results[1].verdict.token(), "unsat");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![deny(missing_docs)]

pub mod bench;
pub mod histogram;
pub mod paper;
pub mod pool;
pub mod report;
pub mod spec;

pub use bench::{BenchDiff, BenchEnv, BenchResult, JobMeasurement};
pub use histogram::LatencyHistogram;
pub use pool::{run, run_traced, run_with, RunOptions, ServicePool, SubmitError};
pub use report::{CampaignReport, JobResult, Verdict};
pub use spec::{CampaignSpec, CaseSpec, JobKind, JobSpec};
