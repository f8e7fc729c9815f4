//! Declarative campaign descriptions: which grid cases, which attack-model
//! variants, which budgets.
//!
//! A [`CampaignSpec`] is a plain data structure — building one runs no
//! solver. The engine ([`crate::pool::run`]) turns each [`JobSpec`] into
//! one independent solver check (or synthesis loop) and aggregates the
//! results deterministically by job id, so a spec is also a reproducible
//! record of an experiment: re-running it reproduces every verdict,
//! witness, and per-phase solver counter byte for byte at any worker
//! count (only wall clocks, worker ids, and base-cache reuse — the
//! observational data — vary; see [`crate::report`] and
//! [`sta_smt::trace`]).

use sta_core::attack::AttackModel;
use sta_core::synthesis::SynthesisConfig;
use sta_grid::{BusId, TestSystem};
use sta_smt::{CertifyLevel, SimplexMode};

/// One grid case a campaign runs against.
#[derive(Debug, Clone)]
pub struct CaseSpec {
    /// Display name (e.g. `ieee14`, `synthetic-30`).
    pub name: String,
    /// The test system itself.
    pub system: TestSystem,
}

/// What one job does.
#[derive(Debug, Clone)]
pub enum JobKind {
    /// Check feasibility of one attack scenario (§III verification).
    Verify(AttackModel),
    /// Run the §IV synthesis loop for one attacker/constraint pair.
    Synthesize {
        /// The attack model to defend against.
        attacker: AttackModel,
        /// Operator-side constraints on the architecture search.
        config: SynthesisConfig,
    },
}

/// One unit of campaign work. Jobs are independent: any scheduling order
/// produces the same per-job results.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable label carried into the report.
    pub label: String,
    /// Index into [`CampaignSpec::cases`].
    pub case: usize,
    /// The work itself.
    pub kind: JobKind,
    /// Per-job wall-clock deadline in milliseconds; `None` falls back to
    /// the campaign-wide [`CampaignSpec::timeout_ms`].
    pub timeout_ms: Option<u64>,
}

/// A full campaign: cases × variants, plus campaign-wide policy.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign name (appears in the report).
    pub name: String,
    /// Grid cases jobs refer to by index.
    pub cases: Vec<CaseSpec>,
    /// The job list; a job's id is its index here.
    pub jobs: Vec<JobSpec>,
    /// Certification level applied to every job's solver checks (a job's
    /// own [`AttackModel::certify`] may strengthen it further).
    pub certify: CertifyLevel,
    /// Default per-job deadline in milliseconds; `None` = unlimited.
    pub timeout_ms: Option<u64>,
    /// Simplex engine of every job's solver checks: revised, unless a
    /// test or the scale suite pins the dense oracle. Verdicts, witnesses
    /// and deterministic counters are identical across engines — only
    /// timings move — so timing-stripped reports never depend on it.
    pub simplex: SimplexMode,
}

impl CampaignSpec {
    /// An empty campaign.
    pub fn new(name: impl Into<String>) -> Self {
        CampaignSpec {
            name: name.into(),
            cases: Vec::new(),
            jobs: Vec::new(),
            certify: CertifyLevel::Off,
            timeout_ms: None,
            simplex: SimplexMode::default(),
        }
    }

    /// Pins the simplex engine of every job's solver checks (see
    /// [`CampaignSpec::simplex`]).
    pub fn with_simplex(mut self, mode: SimplexMode) -> Self {
        self.simplex = mode;
        self
    }

    /// Sets the campaign-wide certification level.
    pub fn with_certify(mut self, level: CertifyLevel) -> Self {
        self.certify = level;
        self
    }

    /// Sets the campaign-wide default deadline.
    pub fn with_timeout_ms(mut self, ms: u64) -> Self {
        self.timeout_ms = Some(ms);
        self
    }

    /// Registers a grid case, returning its index for job references.
    pub fn add_case(&mut self, name: impl Into<String>, system: TestSystem) -> usize {
        self.cases.push(CaseSpec { name: name.into(), system });
        self.cases.len() - 1
    }

    /// Appends a verification job, returning its id.
    ///
    /// # Panics
    /// Panics if `case` is out of range.
    pub fn verify(
        &mut self,
        case: usize,
        label: impl Into<String>,
        model: AttackModel,
    ) -> usize {
        assert!(case < self.cases.len(), "job references unknown case");
        self.jobs.push(JobSpec {
            label: label.into(),
            case,
            kind: JobKind::Verify(model),
            timeout_ms: None,
        });
        self.jobs.len() - 1
    }

    /// Appends a synthesis job, returning its id.
    ///
    /// # Panics
    /// Panics if `case` is out of range.
    pub fn synthesize(
        &mut self,
        case: usize,
        label: impl Into<String>,
        attacker: AttackModel,
        config: SynthesisConfig,
    ) -> usize {
        assert!(case < self.cases.len(), "job references unknown case");
        self.jobs.push(JobSpec {
            label: label.into(),
            case,
            kind: JobKind::Synthesize { attacker, config },
            timeout_ms: None,
        });
        self.jobs.len() - 1
    }

    /// Overrides one job's deadline.
    ///
    /// # Panics
    /// Panics if `job` is out of range.
    pub fn set_job_timeout_ms(&mut self, job: usize, ms: u64) {
        self.jobs[job].timeout_ms = Some(ms);
    }

    /// The deadline effective for `job`: its own, else the campaign's.
    pub fn effective_timeout_ms(&self, job: &JobSpec) -> Option<u64> {
        job.timeout_ms.or(self.timeout_ms)
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the campaign has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The standard verification sweep the `sta campaign` subcommand runs:
    /// a grid of single-state targets × `T_CZ` × `T_CB` budgets over one
    /// case. With the defaults (4 targets × 4 × 2) that is 32 jobs.
    pub fn standard_sweep(case_name: &str, system: TestSystem) -> Self {
        let b = system.grid.num_buses();
        let mut spec = CampaignSpec::new(format!("{case_name}-sweep"));
        let case = spec.add_case(case_name, system);
        // Four spread-out non-reference target states.
        let targets = [b / 4, b / 2, (3 * b) / 4, b - 1];
        let tczs: [Option<usize>; 4] = [Some(6), Some(10), Some(14), None];
        let tcbs: [Option<usize>; 2] = [Some(4), None];
        for &t in &targets {
            for &tcz in &tczs {
                for &tcb in &tcbs {
                    let mut model = AttackModel::new(b)
                        .target(BusId(t), sta_core::attack::StateTarget::MustChange);
                    let mut label = format!("state={}", t + 1);
                    if let Some(v) = tcz {
                        model = model.max_altered_measurements(v);
                        label.push_str(&format!(" tcz={v}"));
                    } else {
                        label.push_str(" tcz=inf");
                    }
                    if let Some(v) = tcb {
                        model = model.max_compromised_buses(v);
                        label.push_str(&format!(" tcb={v}"));
                    } else {
                        label.push_str(" tcb=inf");
                    }
                    spec.verify(case, label, model);
                }
            }
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sta_grid::ieee14;

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut spec = CampaignSpec::new("t");
        let c = spec.add_case("ieee14", ieee14::system());
        assert_eq!(spec.verify(c, "a", AttackModel::new(14)), 0);
        assert_eq!(
            spec.synthesize(
                c,
                "b",
                AttackModel::new(14),
                SynthesisConfig::with_budget(3),
            ),
            1
        );
        assert_eq!(spec.len(), 2);
        spec.set_job_timeout_ms(1, 250);
        assert_eq!(spec.effective_timeout_ms(&spec.jobs[0]), None);
        assert_eq!(spec.effective_timeout_ms(&spec.jobs[1]), Some(250));
        let spec = spec.with_timeout_ms(1000);
        assert_eq!(spec.effective_timeout_ms(&spec.jobs[0]), Some(1000));
        assert_eq!(spec.effective_timeout_ms(&spec.jobs[1]), Some(250));
    }

    #[test]
    fn standard_sweep_has_at_least_32_jobs() {
        let spec = CampaignSpec::standard_sweep("ieee14", ieee14::system());
        assert!(spec.len() >= 32, "{}", spec.len());
        assert!(!spec.is_empty());
        assert!(spec.jobs.iter().all(|j| j.case == 0));
    }

    #[test]
    #[should_panic(expected = "unknown case")]
    fn job_with_bad_case_panics() {
        let mut spec = CampaignSpec::new("t");
        spec.verify(0, "a", AttackModel::new(14));
    }
}
