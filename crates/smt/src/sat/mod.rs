//! CDCL SAT solver with DPLL(T) theory hooks.
//!
//! See [`cdcl::CdclSolver`] for the solver and [`cdcl::Theory`] for the
//! plugin interface the simplex LRA solver implements.

pub mod cdcl;
pub mod lit;
pub mod proof;

pub use cdcl::{CdclSolver, SatCounters, SatOutcome, Theory, TheoryResult};
pub use lit::{LBool, Lit, SatVar};
pub use proof::{FarkasCertificate, ProofLog, ProofStep};

#[cfg(test)]
pub use cdcl::NullTheory;
