//! Tseitin transformation from [`Formula`] to CNF over a [`CdclSolver`],
//! with arithmetic atoms registered in a [`Simplex`] theory.
//!
//! Every sub-formula gets a definition literal; the root literal is asserted
//! as a unit clause. Arithmetic atoms are normalized so that structurally
//! equal constraints share one SAT variable: the variable part is scaled to
//! a canonical leading coefficient of `+1` and every comparison is expressed
//! as an upper bound (`e ≤ c` / `e < c`), lower bounds being the negations.
//! Cardinality nodes use the Sinz sequential-counter encoding, guarded by
//! the definition literal in both polarities so they remain correct under
//! arbitrary Boolean structure.
//!
//! Encoding honors the solver [`Budget`]: Tseitin recursion and the
//! sequential-counter expansion poll the deadline/cancel flag (masked, every
//! 64th poll site) and abort with [`Interrupt`], so a huge encoding cannot
//! blow past `--timeout-ms` before the search loop ever runs.

use crate::budget::{Budget, Interrupt};
use crate::expr::LinExpr;
use crate::formula::{BoolVar, CmpOp, Formula, Node};
use crate::rational::Rational;
use crate::sat::{CdclSolver, Lit, SatVar};
use crate::simplex::Simplex;
use std::collections::HashMap;

/// Canonical key of an arithmetic atom: normalized variable part plus the
/// (rational) bound and strictness, always in upper-bound orientation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct AtomKey {
    form: Vec<(u32, Rational)>,
    bound: Rational,
    strict: bool,
}

/// Incremental Tseitin encoder.
///
/// Owns maps from [`BoolVar`]s and atoms to SAT variables; feed it formulas
/// with [`Encoder::assert_root`]. `Clone` pairs with cloning the solver and
/// theory it encoded into (see [`crate::Solver`]'s incremental reuse).
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    bool_map: HashMap<u32, SatVar>,
    atom_map: HashMap<AtomKey, SatVar>,
    /// Lazily created variable forced true (for constant sub-formulas).
    true_var: Option<SatVar>,
    /// Number of clauses pushed (statistic; the SAT core also counts).
    pub clauses: u64,
    /// Total literal count over pushed clauses (memory statistic).
    pub clause_lits: u64,
    /// Deadline/cancellation budget polled while encoding.
    budget: Budget,
    /// Cached `budget.is_limited()` so the unlimited path stays branch-cheap.
    limited: bool,
    /// Poll-site counter for masked clock reads.
    polls: u64,
}

/// The clause `[¬act, lit]` under an activation literal `act`, or the
/// unit `[lit]` without one.
fn guarded(guard: Option<Lit>, lit: Lit) -> Vec<Lit> {
    match guard {
        Some(act) => vec![!act, lit],
        None => vec![lit],
    }
}

impl Encoder {
    /// Creates an empty encoder (unlimited budget).
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Number of distinct arithmetic atoms registered so far.
    pub fn num_atoms(&self) -> usize {
        self.atom_map.len()
    }

    /// Installs the budget polled during encoding. The first poll site hit
    /// after installation always reads the clock, so a zero-duration budget
    /// interrupts before any clause is pushed.
    pub fn set_budget(&mut self, budget: Budget) {
        self.limited = budget.is_limited();
        self.budget = budget;
        self.polls = 0;
    }

    /// Masked budget poll: reads the clock on the first call after
    /// [`Encoder::set_budget`] and every 64th poll site thereafter.
    fn poll(&mut self) -> Result<(), Interrupt> {
        if !self.limited {
            return Ok(());
        }
        let check = self.polls & 63 == 0;
        self.polls = self.polls.wrapping_add(1);
        if check {
            if let Some(why) = self.budget.exhausted() {
                return Err(why);
            }
        }
        Ok(())
    }

    /// Encodes `f` and asserts it at the root level, or aborts with the
    /// budget's [`Interrupt`] mid-encode (a partially asserted formula is
    /// meaningless — the caller must discard the solver/encoder pair).
    ///
    /// Top-level conjunctions are flattened, and top-level cardinality
    /// constraints are emitted in their asserted polarity only: a full
    /// Tseitin `t ↔ at-most-k` costs an extra `O(n·(n−k))` counter for
    /// the never-used negative direction, which dominated the CNF for
    /// small `k` over many variables.
    ///
    /// With a `guard`, every asserted clause carries the extra literal
    /// `¬act`: the formula is enforced only while the activation literal
    /// `act` is assumed true. Tseitin definitions of sub-formulas stay
    /// unguarded — they define fresh variables and are globally sound —
    /// so only the top-level assertion clauses pay the guard. This is
    /// what makes `pop` logical instead of physical in the persistent
    /// incremental core: retracting a scope just stops assuming its
    /// activation literal, and learned clauses survive.
    pub fn assert_root(
        &mut self,
        f: &Formula,
        guard: Option<Lit>,
        sat: &mut CdclSolver,
        simplex: &mut Simplex,
    ) -> Result<(), Interrupt> {
        match &*f.0 {
            Node::And(fs) => {
                for g in fs {
                    self.assert_root(g, guard, sat, simplex)?;
                }
            }
            Node::AtMost(fs, k) => {
                let lits = fs
                    .iter()
                    .map(|g| self.encode(g, sat, simplex))
                    .collect::<Result<Vec<Lit>, Interrupt>>()?;
                self.assert_at_most(&lits, *k, guard, sat)?;
            }
            Node::AtLeast(fs, k) => {
                let lits = fs
                    .iter()
                    .map(|g| self.encode(g, sat, simplex).map(|l| !l))
                    .collect::<Result<Vec<Lit>, Interrupt>>()?;
                let n = lits.len();
                self.assert_at_most(&lits, n - *k, guard, sat)?;
            }
            _ => {
                let lit = self.encode(f, sat, simplex)?;
                self.push_clause(sat, guarded(guard, lit));
            }
        }
        Ok(())
    }

    /// Asserts `at-most-k(lits)` directly (no definition literal), under
    /// `guard` as in [`Encoder::assert_root`].
    fn assert_at_most(
        &mut self,
        lits: &[Lit],
        k: usize,
        guard: Option<Lit>,
        sat: &mut CdclSolver,
    ) -> Result<(), Interrupt> {
        let n = lits.len();
        if k >= n {
            return Ok(());
        }
        if k == 0 {
            for &l in lits {
                self.poll()?;
                self.push_clause(sat, guarded(guard, !l));
            }
            return Ok(());
        }
        // Unguarded, the counter's guard literal is `¬true`, which never
        // holds.
        let off = match guard {
            Some(act) => !act,
            None => !self.true_lit(sat),
        };
        self.guarded_sequential_counter(lits, k, off, sat)
    }

    /// The SAT variable backing problem Boolean `v` (created on demand).
    pub fn sat_var_of_bool(&mut self, v: BoolVar, sat: &mut CdclSolver) -> SatVar {
        *self.bool_map.entry(v.0).or_insert_with(|| sat.new_var())
    }

    /// The SAT variable of `v` if the encoding ever mentioned it.
    pub fn lookup_bool(&self, v: BoolVar) -> Option<SatVar> {
        self.bool_map.get(&v.0).copied()
    }

    fn push_clause(&mut self, sat: &mut CdclSolver, lits: Vec<Lit>) {
        self.clauses += 1;
        self.clause_lits += lits.len() as u64;
        sat.add_clause(lits);
    }

    fn true_lit(&mut self, sat: &mut CdclSolver) -> Lit {
        if let Some(v) = self.true_var {
            return Lit::positive(v);
        }
        let v = sat.new_var();
        self.true_var = Some(v);
        self.push_clause(sat, vec![Lit::positive(v)]);
        Lit::positive(v)
    }

    fn encode(
        &mut self,
        f: &Formula,
        sat: &mut CdclSolver,
        simplex: &mut Simplex,
    ) -> Result<Lit, Interrupt> {
        self.poll()?;
        Ok(match &*f.0 {
            Node::True => self.true_lit(sat),
            Node::False => !self.true_lit(sat),
            Node::Var(v) => Lit::positive(self.sat_var_of_bool(*v, sat)),
            Node::Atom(e, op) => self.encode_atom(e, *op, sat, simplex),
            Node::Not(g) => !self.encode(g, sat, simplex)?,
            Node::And(fs) => {
                let lits = fs
                    .iter()
                    .map(|g| self.encode(g, sat, simplex))
                    .collect::<Result<Vec<Lit>, Interrupt>>()?;
                self.define_and(&lits, sat)
            }
            Node::Or(fs) => {
                let neg = fs
                    .iter()
                    .map(|g| self.encode(g, sat, simplex).map(|l| !l))
                    .collect::<Result<Vec<Lit>, Interrupt>>()?;
                !self.define_and(&neg, sat)
            }
            Node::Implies(a, b) => {
                let la = self.encode(a, sat, simplex)?;
                let lb = self.encode(b, sat, simplex)?;
                let neg = vec![la, !lb];
                !self.define_and(&neg, sat)
            }
            Node::Iff(a, b) => {
                let la = self.encode(a, sat, simplex)?;
                let lb = self.encode(b, sat, simplex)?;
                let t = Lit::positive(sat.new_var());
                self.push_clause(sat, vec![!t, !la, lb]);
                self.push_clause(sat, vec![!t, la, !lb]);
                self.push_clause(sat, vec![t, la, lb]);
                self.push_clause(sat, vec![t, !la, !lb]);
                t
            }
            Node::AtMost(fs, k) => {
                let lits = fs
                    .iter()
                    .map(|g| self.encode(g, sat, simplex))
                    .collect::<Result<Vec<Lit>, Interrupt>>()?;
                self.define_at_most(&lits, *k, sat)?
            }
            Node::AtLeast(fs, k) => {
                // at-least-k(xs) ≡ at-most-(n−k)(¬xs)
                let lits = fs
                    .iter()
                    .map(|g| self.encode(g, sat, simplex).map(|l| !l))
                    .collect::<Result<Vec<Lit>, Interrupt>>()?;
                let n = lits.len();
                self.define_at_most(&lits, n - *k, sat)?
            }
        })
    }

    /// Returns `t` with `t ↔ (l1 ∧ … ∧ ln)`.
    fn define_and(&mut self, lits: &[Lit], sat: &mut CdclSolver) -> Lit {
        let t = Lit::positive(sat.new_var());
        let mut long = Vec::with_capacity(lits.len() + 1);
        long.push(t);
        for &l in lits {
            self.push_clause(sat, vec![!t, l]);
            long.push(!l);
        }
        self.push_clause(sat, long);
        t
    }

    /// Returns `t` with `t ↔ at-most-k(lits)`, via two guarded sequential
    /// counters: `t → ≤k` and `¬t → ≥k+1` (the latter as `≤ n−k−1` over the
    /// negated literals).
    fn define_at_most(
        &mut self,
        lits: &[Lit],
        k: usize,
        sat: &mut CdclSolver,
    ) -> Result<Lit, Interrupt> {
        let n = lits.len();
        if k >= n {
            return Ok(self.true_lit(sat));
        }
        let t = Lit::positive(sat.new_var());
        if k == 0 {
            // t ↔ all false.
            let mut long = Vec::with_capacity(n + 1);
            long.push(t);
            for &l in lits {
                self.poll()?;
                self.push_clause(sat, vec![!t, !l]);
                long.push(l);
            }
            self.push_clause(sat, long);
            return Ok(t);
        }
        self.guarded_sequential_counter(lits, k, !t, sat)?;
        let negated: Vec<Lit> = lits.iter().map(|&l| !l).collect();
        // ¬t → at-least-(k+1)(lits) ≡ at-most-(n−k−1)(¬lits).
        let nk = n - k - 1;
        if nk == 0 {
            for &l in lits {
                self.push_clause(sat, vec![t, l]);
            }
        } else {
            self.guarded_sequential_counter(&negated, nk, t, sat)?;
        }
        Ok(t)
    }

    /// Sinz LT-SEQ: `guard ∨ at-most-k(lits)` — i.e. the constraint holds
    /// whenever `guard` is false. Polls the budget once per counter row:
    /// each row is `O(k)` clauses, so the `O(n·k)` expansion stays
    /// interruptible without a clock read per clause.
    fn guarded_sequential_counter(
        &mut self,
        lits: &[Lit],
        k: usize,
        guard: Lit,
        sat: &mut CdclSolver,
    ) -> Result<(), Interrupt> {
        let n = lits.len();
        debug_assert!(k >= 1 && k < n);
        // s[i][j]: among lits[0..=i] at least j+1 are true (i < n−1, j < k).
        let mut s = vec![vec![Lit::positive(0); k]; n - 1];
        for row in s.iter_mut() {
            for slot in row.iter_mut() {
                *slot = Lit::positive(sat.new_var());
            }
        }
        self.push_clause(sat, vec![guard, !lits[0], s[0][0]]);
        for j in 1..k {
            self.push_clause(sat, vec![guard, !s[0][j]]);
        }
        for i in 1..n - 1 {
            self.poll()?;
            self.push_clause(sat, vec![guard, !lits[i], s[i][0]]);
            self.push_clause(sat, vec![guard, !s[i - 1][0], s[i][0]]);
            for j in 1..k {
                self.push_clause(sat, vec![guard, !lits[i], !s[i - 1][j - 1], s[i][j]]);
                self.push_clause(sat, vec![guard, !s[i - 1][j], s[i][j]]);
            }
            self.push_clause(sat, vec![guard, !lits[i], !s[i - 1][k - 1]]);
        }
        self.push_clause(sat, vec![guard, !lits[n - 1], !s[n - 2][k - 1]]);
        Ok(())
    }

    /// Encodes an arithmetic atom `e op 0` (constant already folded into
    /// `e`). `Eq`/`Ne` split into bound pairs.
    fn encode_atom(
        &mut self,
        e: &LinExpr,
        op: CmpOp,
        sat: &mut CdclSolver,
        simplex: &mut Simplex,
    ) -> Lit {
        match op {
            CmpOp::Eq => {
                let le = self.primitive_atom(e, false, true, sat, simplex);
                let ge = self.primitive_atom(e, false, false, sat, simplex);
                self.define_and(&[le, ge], sat)
            }
            CmpOp::Ne => {
                let lt = self.primitive_atom(e, true, true, sat, simplex);
                let gt = self.primitive_atom(e, true, false, sat, simplex);
                let neg = vec![!lt, !gt];
                !self.define_and(&neg, sat)
            }
            CmpOp::Le => self.primitive_atom(e, false, true, sat, simplex),
            CmpOp::Lt => self.primitive_atom(e, true, true, sat, simplex),
            CmpOp::Ge => self.primitive_atom(e, false, false, sat, simplex),
            CmpOp::Gt => self.primitive_atom(e, true, false, sat, simplex),
        }
    }

    /// An atom `e ⋈ 0` where ⋈ is `≤`/`<` (`upper = true`) or `≥`/`>`.
    /// Normalizes to canonical upper-bound form and returns its literal.
    fn primitive_atom(
        &mut self,
        e: &LinExpr,
        strict: bool,
        upper: bool,
        sat: &mut CdclSolver,
        simplex: &mut Simplex,
    ) -> Lit {
        // e ≥ 0 ⇔ −e ≤ 0; e > 0 ⇔ −e < 0.
        let oriented = if upper { e.clone() } else { -e.clone() };
        let (varpart, c) = oriented.split_constant();
        // varpart ≤ −c. Scale so the first (lowest-index) coefficient is +1.
        let lead = varpart
            .iter()
            .next()
            .map(|(_, c)| c.clone())
            .expect("non-constant atom");
        let scale = lead.recip();
        let scaled = varpart.scaled(&scale);
        let bound = &(-&c) * &scale;
        // Negative scaling flips the comparison direction: varpart ≤ b
        // becomes scaled ≥ b' ⇔ ¬(scaled < b') / ¬(scaled ≤ b') for strict.
        let (key_strict, positive) = if lead.is_negative() {
            (!strict, false)
        } else {
            (strict, true)
        };
        let key = AtomKey {
            form: scaled.iter().map(|(v, c)| (v.0, c.clone())).collect(),
            bound: bound.clone(),
            strict: key_strict,
        };
        let var = match self.atom_map.get(&key) {
            Some(&v) => v,
            None => {
                let sv = simplex.var_for_form(&scaled);
                let v = sat.new_var();
                sat.set_theory_var(v);
                simplex.register_atom(v, sv, bound, key_strict);
                self.atom_map.insert(key, v);
                v
            }
        };
        Lit::with_polarity(var, positive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::RealVar;
    use crate::formula::LinExprCmp;
    use crate::sat::{LBool, SatOutcome};

    fn solve_bool(f: &Formula) -> Option<Vec<(BoolVar, bool)>> {
        let mut sat = CdclSolver::new();
        let mut simplex = Simplex::new();
        let mut enc = Encoder::new();
        enc.assert_root(f, None, &mut sat, &mut simplex).expect("unlimited encode");
        if sat.solve(&mut simplex) == SatOutcome::Unsat {
            return None;
        }
        let mut out = Vec::new();
        for i in 0..16u32 {
            if let Some(v) = enc.lookup_bool(BoolVar(i)) {
                out.push((BoolVar(i), sat.value(v) == LBool::True));
            }
        }
        Some(out)
    }

    #[test]
    fn simple_boolean_structure() {
        let p = Formula::var(BoolVar(0));
        let q = Formula::var(BoolVar(1));
        // (p ∨ q) ∧ ¬p forces q.
        let f = Formula::and(vec![
            Formula::or(vec![p.clone(), q.clone()]),
            p.clone().not(),
        ]);
        let model = solve_bool(&f).expect("sat");
        assert_eq!(model, vec![(BoolVar(0), false), (BoolVar(1), true)]);
    }

    #[test]
    fn contradiction_is_unsat() {
        let p = Formula::var(BoolVar(0));
        let f = Formula::and(vec![p.clone(), p.not()]);
        assert!(solve_bool(&f).is_none());
    }

    #[test]
    fn iff_and_implies() {
        let p = Formula::var(BoolVar(0));
        let q = Formula::var(BoolVar(1));
        // (p ↔ q) ∧ (p → ¬q) ∧ p is unsat.
        let f = Formula::and(vec![
            p.clone().iff(q.clone()),
            p.clone().implies(q.clone().not()),
            p.clone(),
        ]);
        assert!(solve_bool(&f).is_none());
        // Without the final p it is sat (both false).
        let g = Formula::and(vec![p.clone().iff(q.clone()), p.implies(q.not())]);
        let model = solve_bool(&g).expect("sat");
        assert!(!model[0].1);
    }

    #[test]
    fn at_most_counts() {
        let ps: Vec<Formula> = (0..5).map(|i| Formula::var(BoolVar(i))).collect();
        // at-most-2 of 5 plus three of them forced true is unsat.
        let f = Formula::and(vec![
            Formula::at_most(ps.clone(), 2),
            ps[0].clone(),
            ps[1].clone(),
            ps[2].clone(),
        ]);
        assert!(solve_bool(&f).is_none());
        let g = Formula::and(vec![
            Formula::at_most(ps.clone(), 2),
            ps[0].clone(),
            ps[1].clone(),
        ]);
        assert!(solve_bool(&g).is_some());
    }

    #[test]
    fn at_least_counts() {
        let ps: Vec<Formula> = (0..4).map(|i| Formula::var(BoolVar(i))).collect();
        let f = Formula::and(vec![
            Formula::at_least(ps.clone(), 3),
            ps[0].clone().not(),
            ps[1].clone().not(),
        ]);
        assert!(solve_bool(&f).is_none());
        let g = Formula::and(vec![
            Formula::at_least(ps.clone(), 3),
            ps[0].clone().not(),
        ]);
        let m = solve_bool(&g).expect("sat");
        let count = m.iter().filter(|(_, b)| *b).count();
        assert!(count >= 3);
    }

    #[test]
    fn negated_cardinality_is_respected() {
        let ps: Vec<Formula> = (0..4).map(|i| Formula::var(BoolVar(i))).collect();
        // ¬(at-most-1) means at least 2 true; force two others false.
        let f = Formula::and(vec![
            Formula::at_most(ps.clone(), 1).not(),
            ps[2].clone().not(),
            ps[3].clone().not(),
        ]);
        let m = solve_bool(&f).expect("sat");
        assert!(m[0].1 && m[1].1);
    }

    #[test]
    fn exactly_k() {
        let ps: Vec<Formula> = (0..4).map(|i| Formula::var(BoolVar(i))).collect();
        let f = Formula::exactly(ps.clone(), 2);
        let m = solve_bool(&f).expect("sat");
        assert_eq!(m.iter().filter(|(_, b)| *b).count(), 2);
    }

    #[test]
    fn atoms_dedup_across_orientation() {
        // x ≤ 3 and ¬(x > 3) are the same atom.
        let x = RealVar(0);
        let mut sat = CdclSolver::new();
        let mut simplex = Simplex::new();
        let mut enc = Encoder::new();
        let a = LinExpr::var(x).le(LinExpr::from(3));
        let b = LinExpr::var(x).gt(LinExpr::from(3)).not();
        enc.assert_root(&a, None, &mut sat, &mut simplex).expect("encode");
        enc.assert_root(&b, None, &mut sat, &mut simplex).expect("encode");
        assert_eq!(enc.num_atoms(), 1);
        assert_eq!(sat.solve(&mut simplex), SatOutcome::Sat);
    }

    #[test]
    fn arithmetic_equality_chain() {
        // x = y ∧ y = 3 ∧ x ≠ 3 is unsat.
        let x = RealVar(0);
        let y = RealVar(1);
        let mut sat = CdclSolver::new();
        let mut simplex = Simplex::new();
        let mut enc = Encoder::new();
        enc.assert_root(
            &LinExpr::var(x).eq_expr(LinExpr::var(y)),
            None,
            &mut sat,
            &mut simplex,
        )
        .expect("encode");
        enc.assert_root(
            &LinExpr::var(y).eq_expr(LinExpr::from(3)),
            None,
            &mut sat,
            &mut simplex,
        )
        .expect("encode");
        enc.assert_root(
            &LinExpr::var(x).ne_expr(LinExpr::from(3)),
            None,
            &mut sat,
            &mut simplex,
        )
        .expect("encode");
        assert_eq!(sat.solve(&mut simplex), SatOutcome::Unsat);
    }

    #[test]
    fn guarded_assertions_are_conditional_on_activation() {
        // act → (at-most-1(p,q,r) ∧ ¬p): binding while act is assumed,
        // vacuous otherwise.
        let ps: Vec<Formula> = (0..3).map(|i| Formula::var(BoolVar(i))).collect();
        let f = Formula::and(vec![
            Formula::at_most(ps.clone(), 1),
            ps[0].clone().not(),
        ]);
        let mut sat = CdclSolver::new();
        let mut simplex = Simplex::new();
        let mut enc = Encoder::new();
        let act = Lit::positive(sat.new_var());
        enc.assert_root(&f, Some(act), &mut sat, &mut simplex)
            .expect("unlimited encode");
        // All three true at once violates the guarded constraint…
        let all_true: Vec<Lit> = (0..3)
            .map(|i| Lit::positive(enc.sat_var_of_bool(BoolVar(i), &mut sat)))
            .collect();
        let mut assume = vec![act];
        assume.extend(&all_true);
        assert_eq!(
            sat.solve_under_assumptions(&assume, &mut simplex),
            SatOutcome::Unsat
        );
        // …but is fine with the activation retracted.
        sat.reset_to_root(&mut simplex);
        assert_eq!(
            sat.solve_under_assumptions(&all_true, &mut simplex),
            SatOutcome::Sat
        );
    }

    #[test]
    fn zero_budget_interrupts_before_any_clause() {
        use crate::budget::{Budget, Interrupt};
        use std::time::Duration;
        let ps: Vec<Formula> = (0..400).map(|i| Formula::var(BoolVar(i))).collect();
        let f = Formula::at_most(ps, 3);
        let mut sat = CdclSolver::new();
        let mut simplex = Simplex::new();
        let mut enc = Encoder::new();
        enc.set_budget(Budget::with_timeout(Duration::ZERO));
        let err = enc.assert_root(&f, None, &mut sat, &mut simplex);
        assert_eq!(err, Err(Interrupt::Timeout));
        // The very first poll fires before any clause is pushed.
        assert_eq!(enc.clauses, 0);
    }

    #[test]
    fn cancellation_mid_encode_is_surfaced() {
        use crate::budget::{Budget, Interrupt};
        let ps: Vec<Formula> = (0..50).map(|i| Formula::var(BoolVar(i))).collect();
        let f = Formula::at_most(ps, 2);
        let mut sat = CdclSolver::new();
        let mut simplex = Simplex::new();
        let mut enc = Encoder::new();
        let mut budget = Budget::unlimited();
        let token = budget.new_cancel_token();
        enc.set_budget(budget);
        enc.assert_root(&f, None, &mut sat, &mut simplex)
            .expect("token not raised yet");
        let before = enc.clauses;
        assert!(before > 0);
        token.store(true, std::sync::atomic::Ordering::Relaxed);
        let err = enc.assert_root(&f, None, &mut sat, &mut simplex);
        assert_eq!(err, Err(Interrupt::Cancelled));
    }

    #[test]
    fn unlimited_budget_costs_nothing_and_finishes() {
        // A default encoder never reads the clock and encodes to completion.
        let ps: Vec<Formula> = (0..100).map(|i| Formula::var(BoolVar(i))).collect();
        let f = Formula::at_most(ps, 5);
        let mut sat = CdclSolver::new();
        let mut simplex = Simplex::new();
        let mut enc = Encoder::new();
        enc.assert_root(&f, None, &mut sat, &mut simplex).expect("unlimited");
        assert!(enc.clauses > 0);
        assert_eq!(sat.solve(&mut simplex), SatOutcome::Sat);
    }
}
