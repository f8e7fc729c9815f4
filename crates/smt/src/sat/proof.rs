//! DRAT-style clause-proof logging.
//!
//! When proof logging is enabled on a [`super::CdclSolver`], every clause
//! event is recorded in derivation order: the original CNF as it is added,
//! each learned clause, each theory lemma contributed by the DPLL(T)
//! theory (with an optional [`FarkasCertificate`] justifying it), and each
//! deletion performed by clause-database reduction. An `unsat` answer ends
//! the log with the empty clause.
//!
//! The log is exactly what the independent replayer in [`crate::certify`]
//! consumes: learned clauses (including the final empty clause) must be
//! RUP — reverse unit propagation over the clauses active at that point
//! derives a conflict from the clause's negation — while theory lemmas are
//! validated arithmetically from their certificates, never trusted.

use super::lit::Lit;
use crate::rational::Rational;

/// A Farkas-lemma certificate for one theory conflict.
///
/// Each term pairs an asserted atom literal with a nonnegative rational
/// multiplier `λ`. Writing every literal's bound as a `≤`-oriented
/// inequality over the *problem* variables (lower bounds negate), the
/// certificate claims that the λ-weighted sum of the left-hand linear
/// forms cancels to the zero vector while the λ-weighted sum of the
/// right-hand bounds is negative in delta-rational order — an explicit
/// witness that the asserted bounds are jointly infeasible, checkable
/// with nothing but exact rational arithmetic.
#[derive(Debug, Clone, Default)]
pub struct FarkasCertificate {
    /// `(literal, λ)` pairs; λ must be nonnegative.
    pub terms: Vec<(Lit, Rational)>,
}

/// One event in a clause proof, in derivation order.
#[derive(Debug, Clone)]
pub enum ProofStep {
    /// A clause of the original CNF (an axiom; never checked).
    Original(Vec<Lit>),
    /// A clause learned by conflict analysis; must be RUP with respect to
    /// the clauses active before it. The empty clause concludes `unsat`.
    Learned(Vec<Lit>),
    /// A clause contributed by the theory solver (the negation of an
    /// inconsistent set of asserted atom literals), with its certificate.
    TheoryLemma(Vec<Lit>, Option<FarkasCertificate>),
    /// A clause removed by database reduction (weakens the active set;
    /// applying deletions keeps the replay faithful to the solver run).
    Delete(Vec<Lit>),
}

/// An in-memory DRAT-style proof trace.
#[derive(Debug, Clone, Default)]
pub struct ProofLog {
    /// The recorded steps, oldest first.
    pub steps: Vec<ProofStep>,
}

impl ProofLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        ProofLog::default()
    }

    /// Records an original (axiom) clause.
    pub fn log_original(&mut self, lits: Vec<Lit>) {
        self.steps.push(ProofStep::Original(lits));
    }

    /// Records a learned clause (empty = refutation).
    pub fn log_learned(&mut self, lits: Vec<Lit>) {
        self.steps.push(ProofStep::Learned(lits));
    }

    /// Records a theory lemma with its certificate.
    pub fn log_theory_lemma(&mut self, lits: Vec<Lit>, cert: Option<FarkasCertificate>) {
        self.steps.push(ProofStep::TheoryLemma(lits, cert));
    }

    /// Records a clause deletion.
    pub fn log_delete(&mut self, lits: Vec<Lit>) {
        self.steps.push(ProofStep::Delete(lits));
    }

    /// Number of derivation steps (learned clauses and theory lemmas).
    pub fn num_derivations(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, ProofStep::Learned(_) | ProofStep::TheoryLemma(_, _)))
            .count()
    }

    /// Whether the log ends in a refutation (derives the empty clause).
    pub fn derives_empty_clause(&self) -> bool {
        self.steps.iter().any(|s| match s {
            ProofStep::Learned(lits) => lits.is_empty(),
            _ => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_refutation_flag() {
        let mut log = ProofLog::new();
        log.log_original(vec![Lit::positive(0)]);
        log.log_original(vec![Lit::negative(0)]);
        assert!(!log.derives_empty_clause());
        assert_eq!(log.num_derivations(), 0);
        log.log_theory_lemma(vec![Lit::positive(1)], None);
        log.log_learned(vec![]);
        assert!(log.derives_empty_clause());
        assert_eq!(log.num_derivations(), 2);
    }
}
