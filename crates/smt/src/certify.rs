//! Certification of solver answers.
//!
//! `sat` answers are certified by re-evaluating every asserted [`Formula`]
//! under the extracted model with exact rational arithmetic
//! ([`eval_formula`]). `unsat` answers are certified by replaying the
//! solver's clause proof ([`crate::sat::ProofLog`]) through an independent
//! RUP checker ([`check_unsat_proof`]): learned clauses must follow from
//! the active clause set by reverse unit propagation, and theory lemmas
//! must carry a Farkas certificate that is verified arithmetically against
//! the atom semantics exported by the simplex ([`TheoryContext`]) — the
//! checker shares no code with conflict analysis or the tableau, so a bug
//! in either is caught rather than reproduced.

use std::collections::HashMap;

use crate::expr::RealVar;
use crate::formula::{CmpOp, Formula, Node};
use crate::rational::{DeltaRational, Rational};
use crate::sat::proof::{FarkasCertificate, ProofLog, ProofStep};
use crate::sat::{LBool, Lit, SatVar};

/// How much certification to perform after each `check()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum CertifyLevel {
    /// No certification (production default).
    #[default]
    Off,
    /// Re-evaluate models of SAT answers against the original formulas.
    CheckModels,
    /// CheckModels plus DRAT/RUP proof replay of UNSAT answers, with
    /// formula linting in deny mode before solving.
    Full,
}

impl CertifyLevel {
    /// Parses the `off|models|full` spelling shared by the CLI, scenario
    /// files and the serve protocol.
    pub fn parse(token: &str) -> Option<CertifyLevel> {
        match token {
            "off" => Some(CertifyLevel::Off),
            "models" => Some(CertifyLevel::CheckModels),
            "full" => Some(CertifyLevel::Full),
            _ => None,
        }
    }

    /// The spelling [`CertifyLevel::parse`] reads back.
    pub fn token(self) -> &'static str {
        match self {
            CertifyLevel::Off => "off",
            CertifyLevel::CheckModels => "models",
            CertifyLevel::Full => "full",
        }
    }
}

/// A certification failure.
#[derive(Debug, Clone)]
pub struct CertifyError {
    /// Description of the failure.
    pub message: String,
}

impl CertifyError {
    /// Builds an error from any message.
    pub fn new(message: impl Into<String>) -> Self {
        CertifyError { message: message.into() }
    }
}

impl std::fmt::Display for CertifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "certification failed: {}", self.message)
    }
}

impl std::error::Error for CertifyError {}

/// Arithmetic meaning of one registered SAT atom.
///
/// The positive phase of the atom's SAT variable asserts
/// `Σ coeff·var ≤ bound` (`<` when `strict`); the negative phase asserts
/// the negation `Σ coeff·var > bound` (`≥` when `strict`). This mirrors
/// the upper-bound normal form the simplex uses internally, but is
/// expressed over *problem* variables so certificates can be checked
/// without consulting the tableau.
#[derive(Debug, Clone)]
pub struct AtomSemantics {
    /// The linear form, as `(variable, coefficient)` pairs.
    pub expansion: Vec<(RealVar, Rational)>,
    /// The right-hand side.
    pub bound: Rational,
    /// Whether the positive phase is strict (`<` rather than `≤`).
    pub strict: bool,
}

/// Atom semantics for every theory-registered SAT variable, exported by
/// [`crate::simplex::Simplex::certificate_context`].
#[derive(Debug, Clone, Default)]
pub struct TheoryContext {
    /// SAT variable → meaning of its positive literal.
    pub atoms: HashMap<SatVar, AtomSemantics>,
}

/// Evaluates a formula under a full assignment, with exact arithmetic.
///
/// Out-of-range variables read as `false` / `0` — the solver allocates
/// model vectors densely, so this only matters for hand-built inputs.
pub fn eval_formula(f: &Formula, bools: &[bool], reals: &[Rational]) -> bool {
    let eval = |g: &Formula| eval_formula(g, bools, reals);
    match &*f.0 {
        Node::True => true,
        Node::False => false,
        Node::Var(v) => bools.get(v.0 as usize).copied().unwrap_or(false),
        Node::Atom(expr, op) => {
            let value = expr.eval(|rv| {
                reals.get(rv.0 as usize).cloned().unwrap_or_else(Rational::zero)
            });
            match op {
                CmpOp::Le => !value.is_positive(),
                CmpOp::Lt => value.is_negative(),
                CmpOp::Ge => !value.is_negative(),
                CmpOp::Gt => value.is_positive(),
                CmpOp::Eq => value.is_zero(),
                CmpOp::Ne => !value.is_zero(),
            }
        }
        Node::Not(g) => !eval(g),
        Node::And(gs) => gs.iter().all(eval),
        Node::Or(gs) => gs.iter().any(eval),
        Node::Implies(a, b) => !eval(a) || eval(b),
        Node::Iff(a, b) => eval(a) == eval(b),
        Node::AtMost(gs, k) => gs.iter().filter(|g| eval(g)).count() <= *k,
        Node::AtLeast(gs, k) => gs.iter().filter(|g| eval(g)).count() >= *k,
    }
}

/// Checks one theory lemma against its Farkas certificate.
///
/// The lemma clause is the negation of a set of asserted atom literals the
/// theory found jointly infeasible. The certificate lists those literals
/// with nonnegative multipliers; writing each literal's inequality in
/// `≤` orientation (negative literals flip sign), the weighted linear
/// forms must cancel to zero while the weighted bounds sum to a negative
/// delta-rational — a self-contained infeasibility witness. Every
/// certificate literal must appear negated in the lemma (the lemma may be
/// weaker, never stronger).
pub fn check_theory_lemma(
    clause: &[Lit],
    cert: Option<&FarkasCertificate>,
    ctx: &TheoryContext,
) -> Result<(), CertifyError> {
    let cert = cert.ok_or_else(|| CertifyError::new("theory lemma without a Farkas certificate"))?;
    if cert.terms.is_empty() {
        return Err(CertifyError::new("empty Farkas certificate"));
    }
    let mut form: HashMap<RealVar, Rational> = HashMap::new();
    let mut bound_sum = DeltaRational::zero();
    for (lit, lambda) in &cert.terms {
        if lambda.is_negative() {
            return Err(CertifyError::new(format!(
                "negative Farkas multiplier for {lit}"
            )));
        }
        if !clause.contains(&!*lit) {
            return Err(CertifyError::new(format!(
                "certificate literal {lit} is not negated in the lemma clause"
            )));
        }
        let atom = ctx.atoms.get(&lit.var()).ok_or_else(|| {
            CertifyError::new(format!("certificate references unregistered atom {lit}"))
        })?;
        // ≤-oriented inequality asserted by the literal.
        let (sign, delta) = if lit.is_positive() {
            // expansion ≤ bound (δ = −1 when strict)
            (lambda.clone(), if atom.strict { -&Rational::one() } else { Rational::zero() })
        } else {
            // expansion > bound, i.e. −expansion ≤ −(bound + δ), with
            // δ = +1 when the positive phase was nonstrict.
            (-lambda, if atom.strict { Rational::zero() } else { Rational::one() })
        };
        for (rv, c) in &atom.expansion {
            let entry = form.entry(*rv).or_insert_with(Rational::zero);
            *entry = &*entry + &(&sign * c);
        }
        let lit_bound = DeltaRational::with_delta(atom.bound.clone(), delta);
        bound_sum = &bound_sum + &lit_bound.scale(&sign);
    }
    if let Some((rv, c)) = form.iter().find(|(_, c)| !c.is_zero()) {
        return Err(CertifyError::new(format!(
            "Farkas combination does not cancel: residual {c} · r{}",
            rv.0
        )));
    }
    if !(bound_sum < DeltaRational::zero()) {
        return Err(CertifyError::new(
            "Farkas combination is not infeasible (weighted bound sum is nonnegative)",
        ));
    }
    Ok(())
}

/// A clause tracked by the RUP checker.
#[derive(Debug)]
struct CheckerClause {
    lits: Vec<Lit>,
    active: bool,
}

/// An independent reverse-unit-propagation checker.
///
/// Maintains the clause set active at the current point of the proof with
/// its own two-watched-literal propagation and a *persistent* root trail:
/// after every addition the root assignment is at unit-propagation
/// fixpoint, so a RUP check only assumes the candidate clause's negation
/// on top, propagates, and undoes back to the mark. Deletions deactivate
/// clauses lazily (watch lists skip inactive entries).
#[derive(Debug, Default)]
pub struct RupChecker {
    clauses: Vec<CheckerClause>,
    /// Normalized (sorted) literal vector → ids, for deletions.
    index: HashMap<Vec<Lit>, Vec<usize>>,
    /// `lit.index()` → clause ids watching that literal.
    watches: Vec<Vec<usize>>,
    assign: Vec<LBool>,
    trail: Vec<Lit>,
    qhead: usize,
    /// A root-level conflict has been derived: every clause is entailed.
    proved: bool,
}

impl RupChecker {
    /// Creates an empty checker.
    pub fn new() -> Self {
        RupChecker::default()
    }

    /// Whether the empty clause has been derived.
    pub fn proved(&self) -> bool {
        self.proved
    }

    fn ensure_var(&mut self, v: SatVar) {
        let need = v as usize + 1;
        if self.assign.len() < need {
            self.assign.resize(need, LBool::Undef);
            self.watches.resize(need * 2, Vec::new());
        }
    }

    fn value(&self, lit: Lit) -> LBool {
        self.assign[lit.var() as usize].of_lit(lit)
    }

    fn enqueue(&mut self, lit: Lit) {
        self.assign[lit.var() as usize] =
            if lit.is_positive() { LBool::True } else { LBool::False };
        self.trail.push(lit);
    }

    /// Propagates to fixpoint; returns `false` on conflict. The watch
    /// invariant (each active clause watches its first two literals, and a
    /// watched literal is only False if the clause is satisfied or the
    /// conflict was reported) is preserved across undos because undoing
    /// only turns False literals back to Undef.
    fn propagate(&mut self) -> bool {
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !lit;
            let mut watchers = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut i = 0;
            while i < watchers.len() {
                let ci = watchers[i];
                if !self.clauses[ci].active {
                    watchers.swap_remove(i);
                    continue;
                }
                // Normalize: watched literals are positions 0 and 1.
                if self.clauses[ci].lits[0] == false_lit {
                    self.clauses[ci].lits.swap(0, 1);
                }
                let first = self.clauses[ci].lits[0];
                if self.value(first) == LBool::True {
                    i += 1;
                    continue;
                }
                // Find a replacement watch among the tail.
                let mut moved = false;
                for k in 2..self.clauses[ci].lits.len() {
                    let cand = self.clauses[ci].lits[k];
                    if self.value(cand) != LBool::False {
                        self.clauses[ci].lits.swap(1, k);
                        self.watches[cand.index()].push(ci);
                        watchers.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting on `first`.
                match self.value(first) {
                    LBool::Undef => {
                        self.enqueue(first);
                        i += 1;
                    }
                    _ => {
                        self.watches[false_lit.index()] = watchers;
                        return false;
                    }
                }
            }
            self.watches[false_lit.index()] = watchers;
        }
        true
    }

    /// Undoes all assignments made after `mark`.
    fn undo_to(&mut self, mark: usize) {
        for lit in self.trail.drain(mark..) {
            self.assign[lit.var() as usize] = LBool::Undef;
        }
        self.qhead = mark;
    }

    /// Checks that `lits` follows from the active set by reverse unit
    /// propagation: assuming its negation must yield a conflict.
    pub fn rup_entailed(&mut self, lits: &[Lit]) -> bool {
        if self.proved {
            return true;
        }
        for &l in lits {
            self.ensure_var(l.var());
        }
        let mark = self.trail.len();
        let mut conflict = false;
        for &l in lits {
            match self.value(l) {
                // The root trail already satisfies a literal: assuming its
                // negation is an immediate conflict.
                LBool::True => {
                    conflict = true;
                    break;
                }
                LBool::False => {}
                LBool::Undef => self.enqueue(!l),
            }
        }
        let entailed = conflict || !self.propagate();
        self.undo_to(mark);
        entailed
    }

    /// Adds a clause to the active set, propagating any consequences at
    /// the root. A conflict (from the empty clause or propagation) marks
    /// the refutation as complete.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        for &l in lits {
            self.ensure_var(l.var());
        }
        let id = self.clauses.len();
        let mut key: Vec<Lit> = lits.to_vec();
        key.sort_unstable();
        self.index.entry(key).or_default().push(id);
        self.clauses.push(CheckerClause { lits: lits.to_vec(), active: true });
        match lits.len() {
            0 => {
                self.proved = true;
                return;
            }
            1 => match self.value(lits[0]) {
                LBool::False => {
                    self.proved = true;
                    return;
                }
                LBool::True => {}
                LBool::Undef => self.enqueue(lits[0]),
            },
            _ => {
                // Watch two non-False literals when possible; an added
                // clause that is already unit under the root trail must
                // propagate now, and an already-falsified one concludes
                // the proof.
                let mut front = 0;
                for k in 0..self.clauses[id].lits.len() {
                    if front >= 2 {
                        break;
                    }
                    let l = self.clauses[id].lits[k];
                    if self.value(l) != LBool::False {
                        self.clauses[id].lits.swap(front, k);
                        front += 1;
                    }
                }
                let (w0, w1) = (self.clauses[id].lits[0], self.clauses[id].lits[1]);
                self.watches[w0.index()].push(id);
                self.watches[w1.index()].push(id);
                match front {
                    0 => {
                        self.proved = true;
                        return;
                    }
                    1 => {
                        if self.value(w0) == LBool::Undef {
                            self.enqueue(w0);
                        }
                    }
                    _ => {}
                }
            }
        }
        if !self.propagate() {
            self.proved = true;
        }
    }

    /// Deactivates one active clause with exactly these literals.
    pub fn delete_clause(&mut self, lits: &[Lit]) -> Result<(), CertifyError> {
        let mut key: Vec<Lit> = lits.to_vec();
        key.sort_unstable();
        let ids = self.index.get_mut(&key).ok_or_else(|| {
            CertifyError::new("proof deletes a clause that was never added")
        })?;
        let pos = ids
            .iter()
            .position(|&i| self.clauses[i].active)
            .ok_or_else(|| CertifyError::new("proof deletes an already-deleted clause"))?;
        let id = ids.swap_remove(pos);
        self.clauses[id].active = false;
        Ok(())
    }
}

/// Replays an UNSAT proof against the logged original CNF.
///
/// Original clauses are axioms; learned clauses (including the final
/// empty clause) must pass reverse unit propagation against the clauses
/// active at their point in the log; theory lemmas must carry Farkas
/// certificates valid under `ctx`. Succeeds only if the log derives the
/// empty clause.
pub fn check_unsat_proof(proof: &ProofLog, ctx: &TheoryContext) -> Result<(), CertifyError> {
    let checker = replay_steps(proof, ctx)?;
    if checker.proved() {
        Ok(())
    } else {
        Err(CertifyError::new("proof does not derive the empty clause"))
    }
}

/// Replays the proof of an UNSAT-under-assumptions answer.
///
/// Unlike [`check_unsat_proof`], the clause set itself need not be
/// refuted. The answer is certified when either the empty clause is
/// derived (unsatisfiable outright, assumptions irrelevant) or the final
/// learned clause in the log is a failed-assumption core: RUP-validated
/// during replay like every learned clause, and consisting solely of
/// literals from `negated_assumptions` — a checked witness that the
/// assumption set contradicts the (activation-guarded) clause set.
/// Retracted-scope clauses logged in earlier checks of the same session
/// stay in the log but are inert: their retirement units are root-level
/// axioms, so the replayed root trail satisfies every guarded clause
/// before it can participate in a derivation.
pub fn check_assumption_unsat_proof(
    proof: &ProofLog,
    ctx: &TheoryContext,
    negated_assumptions: &[Lit],
) -> Result<(), CertifyError> {
    let checker = replay_steps(proof, ctx)?;
    if checker.proved() {
        return Ok(());
    }
    let core = proof.steps.iter().rev().find_map(|s| match s {
        ProofStep::Learned(lits) => Some(lits),
        _ => None,
    });
    match core {
        Some(lits) if lits.iter().all(|l| negated_assumptions.contains(l)) => Ok(()),
        Some(lits) => Err(CertifyError::new(format!(
            "final learned clause {} is not a failed-assumption core \
             (it has literals outside the negated assumptions)",
            display_clause(lits)
        ))),
        None => Err(CertifyError::new(
            "proof has no learned clause to serve as a failed-assumption core",
        )),
    }
}

/// Replays every step of `proof`, RUP-checking learned clauses and
/// Farkas-checking theory lemmas, and returns the resulting checker state.
/// Shared by [`check_unsat_proof`] and [`check_assumption_unsat_proof`].
fn replay_steps(proof: &ProofLog, ctx: &TheoryContext) -> Result<RupChecker, CertifyError> {
    let mut checker = RupChecker::new();
    for (n, step) in proof.steps.iter().enumerate() {
        match step {
            ProofStep::Original(lits) => checker.add_clause(lits),
            ProofStep::Learned(lits) => {
                if !checker.rup_entailed(lits) {
                    return Err(CertifyError::new(format!(
                        "proof step {n}: learned clause {} is not RUP",
                        display_clause(lits)
                    )));
                }
                checker.add_clause(lits);
            }
            ProofStep::TheoryLemma(lits, cert) => {
                check_theory_lemma(lits, cert.as_ref(), ctx)
                    .map_err(|e| CertifyError::new(format!("proof step {n}: {}", e.message)))?;
                checker.add_clause(lits);
            }
            ProofStep::Delete(lits) => {
                checker
                    .delete_clause(lits)
                    .map_err(|e| CertifyError::new(format!("proof step {n}: {}", e.message)))?;
            }
        }
    }
    Ok(checker)
}

fn display_clause(lits: &[Lit]) -> String {
    if lits.is_empty() {
        return "⊥".to_string();
    }
    let parts: Vec<String> = lits.iter().map(|l| l.to_string()).collect();
    format!("({})", parts.join(" ∨ "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::formula::{BoolVar, LinExprCmp};
    use crate::sat::{CdclSolver, NullTheory, SatOutcome};

    fn num(n: i64) -> Rational {
        Rational::new(n, 1)
    }

    #[test]
    fn eval_formula_covers_connectives() {
        let p = Formula::var(BoolVar(0));
        let q = Formula::var(BoolVar(1));
        let x = LinExpr::var(RealVar(0));
        let atom = x.clone().le(LinExpr::from(2)); // x ≤ 2
        let f = Formula::and(vec![
            Formula::or(vec![p.clone(), q.clone()]),
            p.clone().implies(atom.clone()),
            Formula::at_most(vec![p.clone(), q.clone()], 1),
        ]);
        let reals = [num(2)];
        assert!(eval_formula(&f, &[true, false], &reals));
        // x = 3 violates the implication when p holds.
        assert!(!eval_formula(&f, &[true, false], &[num(3)]));
        // Both p and q break the at-most-1.
        assert!(!eval_formula(&f, &[true, true], &reals));
        // Strict and equality operators.
        assert!(eval_formula(&x.clone().lt(LinExpr::from(1)), &[], &[num(0)]));
        assert!(!eval_formula(&x.clone().lt(LinExpr::from(0)), &[], &[num(0)]));
        assert!(eval_formula(&x.clone().eq_expr(LinExpr::from(0)), &[], &[num(0)]));
        assert!(eval_formula(&x.ne_expr(LinExpr::from(1)), &[], &[num(0)]));
    }

    /// A hand-written resolution proof for the 2-variable complete CNF.
    #[test]
    fn rup_replay_accepts_valid_proof() {
        let p = |v| Lit::positive(v);
        let n = |v| Lit::negative(v);
        let mut log = ProofLog::new();
        log.log_original(vec![p(0), p(1)]);
        log.log_original(vec![n(0), p(1)]);
        log.log_original(vec![p(0), n(1)]);
        log.log_original(vec![n(0), n(1)]);
        log.log_learned(vec![p(1)]);
        log.log_learned(vec![]);
        assert!(check_unsat_proof(&log, &TheoryContext::default()).is_ok());
    }

    #[test]
    fn rup_replay_rejects_non_rup_step() {
        let p = |v| Lit::positive(v);
        let n = |v| Lit::negative(v);
        let mut log = ProofLog::new();
        log.log_original(vec![p(0), p(1)]);
        log.log_original(vec![n(0), p(1)]);
        // (p0 ∨ ¬p1) is missing: ¬p1 no longer propagates a conflict.
        log.log_original(vec![n(0), n(1)]);
        log.log_learned(vec![p(1)]);
        log.log_learned(vec![n(1)]);
        log.log_learned(vec![]);
        let err = check_unsat_proof(&log, &TheoryContext::default()).unwrap_err();
        assert!(err.message.contains("not RUP"), "{}", err.message);
    }

    #[test]
    fn rup_replay_requires_empty_clause() {
        let mut log = ProofLog::new();
        log.log_original(vec![Lit::positive(0)]);
        let err = check_unsat_proof(&log, &TheoryContext::default()).unwrap_err();
        assert!(err.message.contains("empty clause"), "{}", err.message);
    }

    /// End to end against the real CDCL core: the pigeonhole instance
    /// PHP(3,2) is UNSAT; its logged proof must replay, and corrupting a
    /// learned step must be caught.
    #[test]
    fn cdcl_proof_replays_and_corruption_is_caught() {
        let mut sat = CdclSolver::new();
        sat.enable_proof();
        // Pigeon i ∈ {0,1,2} in hole j ∈ {0,1}: var 2i+j.
        let v = |i: u32, j: u32| 2 * i + j;
        for _ in 0..6 {
            sat.new_var();
        }
        for i in 0..3 {
            sat.add_clause(vec![Lit::positive(v(i, 0)), Lit::positive(v(i, 1))]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    sat.add_clause(vec![
                        Lit::negative(v(i1, j)),
                        Lit::negative(v(i2, j)),
                    ]);
                }
            }
        }
        assert_eq!(sat.solve(&mut NullTheory), SatOutcome::Unsat);
        let proof = sat.take_proof().expect("proof logging was enabled");
        assert!(proof.derives_empty_clause());
        let ctx = TheoryContext::default();
        assert!(check_unsat_proof(&proof, &ctx).is_ok());

        // Corrupt the first learned step into a claim about a fresh,
        // unconstrained variable: RUP must fail.
        let mut bad = proof.clone();
        let idx = bad
            .steps
            .iter()
            .position(|s| matches!(s, ProofStep::Learned(l) if !l.is_empty()))
            .expect("proof has a nonempty learned clause");
        bad.steps[idx] = ProofStep::Learned(vec![Lit::positive(100)]);
        let err = check_unsat_proof(&bad, &ctx).unwrap_err();
        assert!(err.message.contains("not RUP"), "{}", err.message);
    }

    fn two_atom_ctx() -> TheoryContext {
        // Atom 0: x ≤ 1 (nonstrict); atom 1: x < 2 (strict).
        let mut atoms = HashMap::new();
        atoms.insert(
            0,
            AtomSemantics {
                expansion: vec![(RealVar(0), Rational::one())],
                bound: num(1),
                strict: false,
            },
        );
        atoms.insert(
            1,
            AtomSemantics {
                expansion: vec![(RealVar(0), Rational::one())],
                bound: num(2),
                strict: true,
            },
        );
        TheoryContext { atoms }
    }

    #[test]
    fn farkas_certificate_checks_and_rejects_tampering() {
        let ctx = two_atom_ctx();
        // Asserted: atom0 (x ≤ 1) and ¬atom1 (x ≥ 2) — jointly infeasible.
        let clause = vec![Lit::negative(0), Lit::positive(1)];
        let cert = FarkasCertificate {
            terms: vec![
                (Lit::positive(0), Rational::one()),
                (Lit::negative(1), Rational::one()),
            ],
        };
        assert!(check_theory_lemma(&clause, Some(&cert), &ctx).is_ok());

        // Missing certificate is rejected outright.
        assert!(check_theory_lemma(&clause, None, &ctx).is_err());

        // Tampered multiplier: the linear forms no longer cancel.
        let mut bad = cert.clone();
        bad.terms[0].1 = num(2);
        let err = check_theory_lemma(&clause, Some(&bad), &ctx).unwrap_err();
        assert!(err.message.contains("cancel"), "{}", err.message);

        // A certificate over feasible bounds: x ≤ 1 with ¬(x ≤ 1)'s
        // literal replaced so the bound sum is nonnegative.
        let mut atoms = HashMap::new();
        atoms.insert(
            0,
            AtomSemantics {
                expansion: vec![(RealVar(0), Rational::one())],
                bound: num(5),
                strict: false,
            },
        );
        atoms.insert(
            1,
            AtomSemantics {
                expansion: vec![(RealVar(0), Rational::one())],
                bound: num(2),
                strict: true,
            },
        );
        let loose = TheoryContext { atoms };
        let err = check_theory_lemma(&clause, Some(&cert), &loose).unwrap_err();
        assert!(err.message.contains("not infeasible"), "{}", err.message);

        // A certificate literal whose negation is missing from the lemma.
        let short = vec![Lit::negative(0)];
        let err = check_theory_lemma(&short, Some(&cert), &ctx).unwrap_err();
        assert!(err.message.contains("not negated"), "{}", err.message);
    }

    /// Assumption-UNSAT certification: the CDCL logs the failed-assumption
    /// core as its final learned clause; the replay validates it by RUP and
    /// accepts only cores built from negated assumptions.
    #[test]
    fn assumption_unsat_proof_replays_and_tampering_is_caught() {
        let mut sat = CdclSolver::new();
        sat.enable_proof();
        let a = sat.new_var();
        let b = sat.new_var();
        sat.add_clause(vec![Lit::positive(a), Lit::positive(b)]);
        let assumptions = [Lit::negative(a), Lit::negative(b)];
        assert_eq!(
            sat.solve_under_assumptions(&assumptions, &mut NullTheory),
            SatOutcome::Unsat
        );
        assert!(!sat.failed_assumptions().is_empty());
        let proof = sat.proof().expect("logging enabled").clone();
        // Not a refutation of the clause set: the strict entry must refuse.
        assert!(!proof.derives_empty_clause());
        let ctx = TheoryContext::default();
        let err = check_unsat_proof(&proof, &ctx).unwrap_err();
        assert!(err.message.contains("empty clause"), "{}", err.message);
        // The assumption-aware entry accepts with the matching negations…
        let negated: Vec<Lit> = assumptions.iter().map(|&l| !l).collect();
        assert!(check_assumption_unsat_proof(&proof, &ctx, &negated).is_ok());
        // …rejects when the core is not covered by the claimed assumptions…
        let err = check_assumption_unsat_proof(&proof, &ctx, &negated[..1]).unwrap_err();
        assert!(err.message.contains("outside"), "{}", err.message);
        // …and rejects a tampered core that smuggles in a free literal.
        let mut bad = proof.clone();
        let idx = bad
            .steps
            .iter()
            .rposition(|s| matches!(s, ProofStep::Learned(_)))
            .expect("core was logged");
        bad.steps[idx] = ProofStep::Learned(vec![Lit::positive(50)]);
        let err = check_assumption_unsat_proof(&bad, &ctx, &negated).unwrap_err();
        assert!(err.message.contains("not RUP"), "{}", err.message);
    }

    /// A genuinely unsatisfiable instance certifies through the
    /// assumption-aware entry too (the empty clause short-circuits the
    /// core check).
    #[test]
    fn assumption_entry_accepts_outright_refutations() {
        let mut sat = CdclSolver::new();
        sat.enable_proof();
        let a = sat.new_var();
        sat.add_clause(vec![Lit::positive(a)]);
        sat.add_clause(vec![Lit::negative(a)]);
        assert_eq!(
            sat.solve_under_assumptions(&[Lit::positive(a)], &mut NullTheory),
            SatOutcome::Unsat
        );
        assert!(sat.failed_assumptions().is_empty());
        let proof = sat.proof().expect("logging enabled").clone();
        let ctx = TheoryContext::default();
        assert!(check_assumption_unsat_proof(&proof, &ctx, &[Lit::negative(a)]).is_ok());
    }

    /// Retired-scope hygiene: guarded clauses whose activation was
    /// retracted may not contribute to a later core. After retirement the
    /// solver must find the relaxed instance satisfiable, and a proof that
    /// still pretended to use the retracted constraint would need the
    /// guarded clause un-guarded — which is not among the axioms.
    #[test]
    fn retired_guard_clauses_cannot_resurface_in_proofs() {
        let mut sat = CdclSolver::new();
        sat.enable_proof();
        let act = sat.new_var();
        let x = sat.new_var();
        // Scope clause: act → ¬x. Retire it, then assume x.
        sat.add_clause(vec![Lit::negative(act), Lit::negative(x)]);
        sat.add_clause(vec![Lit::negative(act)]); // retirement unit
        assert_eq!(sat.purge_literal(Lit::negative(act)), 1);
        let mut th = NullTheory;
        assert_eq!(
            sat.solve_under_assumptions(&[Lit::positive(x)], &mut th),
            SatOutcome::Sat,
            "retracted scope must not constrain x"
        );
        // Adversarial: a forged core claiming x still fails must not be
        // RUP against the replayed clause set (the guarded clause is
        // satisfied at the replay root by the retirement unit).
        let mut forged = sat.proof().expect("logging enabled").clone();
        forged.steps.push(ProofStep::Learned(vec![Lit::negative(x)]));
        let ctx = TheoryContext::default();
        let err =
            check_assumption_unsat_proof(&forged, &ctx, &[Lit::negative(x)]).unwrap_err();
        assert!(err.message.contains("not RUP"), "{}", err.message);
    }

    #[test]
    fn deletions_are_tracked() {
        let mut checker = RupChecker::new();
        let c = vec![Lit::positive(0), Lit::positive(1), Lit::positive(2)];
        checker.add_clause(&c);
        assert!(checker.delete_clause(&c).is_ok());
        assert!(checker.delete_clause(&c).is_err());
        assert!(checker
            .delete_clause(&[Lit::positive(7)])
            .unwrap_err()
            .message
            .contains("never added"));
    }
}
