//! Differential test of the two solve front-ends on seeded random
//! QF_LRA instances.
//!
//! One warm solver answers a sequence of `check_assuming` calls with random
//! assumption sets on its persistent core, interleaved with push (plain or
//! sticky), assert and pop. A twin holding the same assertion stack answers
//! each question the clone-per-check way: push, assert every assumption as
//! a unit, `check()`, pop. Verdicts must agree, every sat model (from
//! either solver) must satisfy the active assertions and the assumptions,
//! and under `CertifyLevel::Full` every answer must certify.

use sta_linalg::rng::Pcg32;
use sta_smt::rational::Rational;
use sta_smt::{
    BoolVar, CertifyError, CertifyLevel, CmpOp, Formula, LinExpr, Model, RealVar, SatResult, Solver,
};

const NUM_REALS: usize = 4;
const NUM_BOOLS: usize = 6;

/// One linear atom `Σ coeffs·x ⋈ rhs`.
#[derive(Debug, Clone)]
struct RandomAtom {
    coeffs: Vec<i64>,
    rhs: i64,
    op: CmpOp,
}

/// A clause literal: an arithmetic atom or a Boolean variable, by index,
/// with its polarity.
#[derive(Debug, Clone, Copy)]
enum Literal {
    Atom(usize, bool),
    Bool(usize, bool),
}

type Clause = Vec<Literal>;

/// Draws a nontrivial random atom with coefficients in `[-3, 3]`.
fn random_atom(rng: &mut Pcg32) -> RandomAtom {
    let ops = [CmpOp::Le, CmpOp::Lt, CmpOp::Ge, CmpOp::Gt];
    loop {
        let coeffs: Vec<i64> = (0..NUM_REALS).map(|_| rng.range_i64(-3, 3)).collect();
        if coeffs.iter().all(|&x| x == 0) {
            continue;
        }
        return RandomAtom {
            coeffs,
            rhs: rng.range_i64(-6, 6),
            op: ops[rng.below(ops.len())],
        };
    }
}

/// A random clause of one to three literals over the atom and Boolean
/// pools.
fn random_clause(rng: &mut Pcg32, num_atoms: usize) -> Clause {
    (0..rng.range_usize(1, 5))
        .map(|_| {
            if rng.flip() {
                Literal::Atom(rng.below(num_atoms), rng.flip())
            } else {
                Literal::Bool(rng.below(NUM_BOOLS), rng.flip())
            }
        })
        .collect()
}

/// Up to three assumptions on random Boolean variables (repeats, even
/// with opposite polarity, are allowed).
fn random_assumptions(rng: &mut Pcg32, bools: &[BoolVar]) -> Vec<(BoolVar, bool)> {
    (0..rng.below(4))
        .map(|_| (bools[rng.below(NUM_BOOLS)], rng.flip()))
        .collect()
}

/// Both solvers of one instance, declared identically, plus the atom pool
/// and a mirror of the assertion stack for model checking.
struct Pair {
    warm: Solver,
    twin: Solver,
    reals: Vec<RealVar>,
    bools: Vec<BoolVar>,
    atoms: Vec<RandomAtom>,
    /// Active clauses, with the stack length at each open scope.
    clauses: Vec<Clause>,
    marks: Vec<usize>,
}

impl Pair {
    fn new(level: CertifyLevel, atoms: Vec<RandomAtom>) -> Self {
        let mut warm = Solver::new();
        let mut twin = Solver::new();
        warm.set_certify(level);
        twin.set_certify(level);
        let reals: Vec<RealVar> = (0..NUM_REALS).map(|_| warm.new_real()).collect();
        let bools: Vec<BoolVar> = (0..NUM_BOOLS).map(|_| warm.new_bool()).collect();
        assert_eq!(
            reals,
            (0..NUM_REALS).map(|_| twin.new_real()).collect::<Vec<_>>()
        );
        assert_eq!(
            bools,
            (0..NUM_BOOLS).map(|_| twin.new_bool()).collect::<Vec<_>>()
        );
        Pair {
            warm,
            twin,
            reals,
            bools,
            atoms,
            clauses: Vec::new(),
            marks: Vec::new(),
        }
    }

    fn formula(&self, clause: &Clause) -> Formula {
        Formula::or(
            clause
                .iter()
                .map(|&lit| {
                    let (f, positive) = match lit {
                        Literal::Atom(i, positive) => {
                            let a = &self.atoms[i];
                            let mut lhs = LinExpr::zero();
                            for (k, &c) in a.coeffs.iter().enumerate() {
                                lhs.add_term(Rational::from(c), self.reals[k]);
                            }
                            (Formula::cmp(lhs, a.op, LinExpr::from(a.rhs)), positive)
                        }
                        Literal::Bool(j, positive) => (Formula::var(self.bools[j]), positive),
                    };
                    if positive {
                        f
                    } else {
                        f.not()
                    }
                })
                .collect(),
        )
    }

    fn assert_clause(&mut self, clause: Clause) {
        let f = self.formula(&clause);
        self.warm.assert_formula(&f);
        self.twin.assert_formula(&f);
        self.clauses.push(clause);
    }

    fn push(&mut self, sticky: bool) {
        if sticky {
            self.warm.push_sticky();
        } else {
            self.warm.push();
        }
        self.twin.push();
        self.marks.push(self.clauses.len());
    }

    fn pop(&mut self) {
        self.warm.pop().unwrap();
        self.twin.pop().unwrap();
        let mark = self.marks.pop().unwrap();
        self.clauses.truncate(mark);
    }

    /// Independent model check: every active clause and every assumption
    /// holds under `model`, evaluated with exact arithmetic.
    fn satisfies(&self, model: &Model, assumptions: &[(BoolVar, bool)]) -> bool {
        let holds = |lit: &Literal| match *lit {
            Literal::Atom(i, positive) => {
                let a = &self.atoms[i];
                let mut lhs = Rational::zero();
                for (k, &c) in a.coeffs.iter().enumerate() {
                    lhs = &lhs + &(&Rational::from(c) * model.real_value(self.reals[k]));
                }
                let rhs = Rational::from(a.rhs);
                let value = match a.op {
                    CmpOp::Le => lhs <= rhs,
                    CmpOp::Lt => lhs < rhs,
                    CmpOp::Ge => lhs >= rhs,
                    CmpOp::Gt => lhs > rhs,
                    _ => unreachable!("only inequality atoms are generated"),
                };
                value == positive
            }
            Literal::Bool(j, positive) => model.bool_value(self.bools[j]) == positive,
        };
        self.clauses.iter().all(|clause| clause.iter().any(holds))
            && assumptions
                .iter()
                .all(|&(v, positive)| model.bool_value(v) == positive)
    }

    /// The twin's answer: the assumptions as a scoped unit-assertion delta.
    fn twin_check(&mut self, assumptions: &[(BoolVar, bool)]) -> Result<SatResult, CertifyError> {
        self.twin.push();
        for &(v, positive) in assumptions {
            let f = Formula::var(v);
            self.twin
                .assert_formula(&if positive { f } else { f.not() });
        }
        let result = self.twin.check_certified();
        self.twin.pop().unwrap();
        result
    }

    /// Asks both solvers the same question and checks the answers.
    fn ask(&mut self, assumptions: &[(BoolVar, bool)], level: CertifyLevel, ctx: &str) {
        let warm = self.warm.check_assuming_certified(assumptions);
        let warm_certified = self.warm.last_stats().is_some_and(|s| s.certified);
        let twin = self.twin_check(assumptions);
        let twin_certified = self.twin.last_stats().is_some_and(|s| s.certified);
        let (warm, twin) = match (warm, twin) {
            (Ok(w), Ok(t)) => (w, t),
            // Deny-mode lint rejects the assertion set itself (the
            // assumptions are Boolean units, which it never flags), so
            // both front-ends must refuse it alike.
            (Err(w), Err(t)) => {
                assert!(w.message.contains("lint errors in deny mode"), "{ctx}: {w}");
                assert!(t.message.contains("lint errors in deny mode"), "{ctx}: {t}");
                return;
            }
            (w, t) => panic!("{ctx}: front-ends disagree: warm {w:?} vs twin {t:?}"),
        };
        assert!(
            !warm.is_unknown() && !twin.is_unknown(),
            "{ctx}: unknown without a budget"
        );
        assert_eq!(warm.is_sat(), twin.is_sat(), "{ctx}: verdicts differ");
        for (name, result) in [("warm", &warm), ("twin", &twin)] {
            if let SatResult::Sat(model) = result {
                assert!(
                    self.satisfies(model, assumptions),
                    "{ctx}: {name} model is wrong"
                );
            }
        }
        let must_certify = match level {
            CertifyLevel::Full => true,
            CertifyLevel::CheckModels => warm.is_sat(),
            CertifyLevel::Off => false,
        };
        if must_certify {
            assert!(
                warm_certified && twin_certified,
                "{ctx}: answer not certified"
            );
        }
    }
}

#[test]
fn check_assuming_agrees_with_scoped_check() {
    let mut rng = Pcg32::new(0x5EED_A550);
    let levels = [
        CertifyLevel::Off,
        CertifyLevel::CheckModels,
        CertifyLevel::Full,
    ];
    let mut questions = 0;
    for instance in 0..90 {
        let level = levels[instance % levels.len()];
        let atoms: Vec<RandomAtom> = (0..rng.range_usize(4, 12))
            .map(|_| random_atom(&mut rng))
            .collect();
        let num_atoms = atoms.len();
        let mut pair = Pair::new(level, atoms);
        for _ in 0..rng.range_usize(4, 12) {
            let clause = random_clause(&mut rng, num_atoms);
            pair.assert_clause(clause);
        }
        for step in 0..24 {
            match rng.below(6) {
                0 if pair.marks.len() < 3 => pair.push(rng.below(4) == 0),
                1 if !pair.marks.is_empty() => pair.pop(),
                2 => {
                    let clause = random_clause(&mut rng, num_atoms);
                    pair.assert_clause(clause);
                }
                _ => {
                    let assumptions = random_assumptions(&mut rng, &pair.bools);
                    let ctx = format!(
                        "instance {instance} step {step} ({level:?}), assuming {assumptions:?}, \
                         clauses {:?}",
                        pair.clauses
                    );
                    pair.ask(&assumptions, level, &ctx);
                    questions += 1;
                }
            }
        }
    }
    assert!(questions > 300, "only {questions} questions asked");
}
