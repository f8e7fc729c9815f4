//! Security threat analytics and countermeasure synthesis for power
//! system state estimation — the DSN'14 paper's contribution, reproduced.
//!
//! * [`attack`] — the UFDI attack verification model (paper §III):
//!   adversary knowledge, accessibility, resource limits, attack goals and
//!   topology poisoning, encoded into the [`sta_smt`] solver;
//! * [`synthesis`] — Algorithm 1, the CEGIS-style security-architecture
//!   synthesis loop (paper §IV);
//! * [`baselines`] — the defenses the paper positions against: Bobba et
//!   al.'s basic-measurement protection and a Kim–Poor-style greedy bus
//!   selection;
//! * [`validation`] — end-to-end stealthiness replay of every witness
//!   against the real WLS estimator;
//! * [`decimal`] — exact decimal-rational bridging for grid data.
//!
//! # Examples
//!
//! Verify the paper's Attack Objective 1 (states 9 and 10, different
//! amounts, ≤ 16 measurements in ≤ 7 substations):
//!
//! ```
//! use sta_core::attack::{AttackModel, AttackVerifier, StateTarget};
//! use sta_grid::{ieee14, BusId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sys = ieee14::system();
//! let verifier = AttackVerifier::new(&sys)?;
//! let model = AttackModel::new(14)
//!     .target(BusId(8), StateTarget::MustChange)   // state 9
//!     .target(BusId(9), StateTarget::MustChange)   // state 10
//!     .require_different_change(BusId(8), BusId(9))
//!     .max_altered_measurements(16)
//!     .max_compromised_buses(7);
//! assert!(verifier.verify(&model).is_feasible());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod analytics;
pub mod attack;
pub mod baselines;
pub mod cutattack;
pub mod decimal;
pub mod impact;
pub mod scenario;
pub mod synthesis;
pub mod validation;

pub use analytics::{StateThreat, ThreatAnalyzer, ThreatAssessment};
pub use cutattack::{best_cut_attack, CutAttack};
pub use impact::{ImpactReport, LineImpact};
pub use attack::{AttackModel, AttackOutcome, AttackVector, AttackVerifier, StateTarget};
pub use synthesis::{
    BlockingStrategy, SynthesisConfig, SynthesisObservation, SynthesisOutcome, Synthesizer,
};
pub use validation::{replay, replay_default, replay_noisy, NoisyReplayResult, ReplayResult};
