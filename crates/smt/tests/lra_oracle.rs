//! Cross-validation of the DPLL(T) solver against a Fourier–Motzkin
//! oracle on randomized QF_LRA instances.
//!
//! For every random Boolean combination of linear atoms we enumerate the
//! atom truth assignments that satisfy the Boolean skeleton and decide
//! each induced conjunction of (possibly negated) linear constraints with
//! exact Fourier–Motzkin elimination — a complete, independent decision
//! procedure. The SMT solver must agree on satisfiability, and when it
//! answers sat, its model must actually satisfy every assertion.

use sta_linalg::rng::Pcg32;
use sta_smt::rational::Rational;
use sta_smt::{CmpOp, Formula, LinExpr, RealVar, Solver};

/// One linear constraint `Σ coeffs·x ⋈ rhs` with ⋈ ∈ {≤, <}.
#[derive(Debug, Clone)]
struct Constraint {
    coeffs: Vec<Rational>,
    rhs: Rational,
    strict: bool,
}

/// Fourier–Motzkin satisfiability of a conjunction of ≤/< constraints.
fn fm_satisfiable(mut constraints: Vec<Constraint>, num_vars: usize) -> bool {
    for var in (0..num_vars).rev() {
        let mut uppers: Vec<Constraint> = Vec::new(); // c·x ≤ …, c > 0
        let mut lowers: Vec<Constraint> = Vec::new(); // c·x ≤ …, c < 0
        let mut rest: Vec<Constraint> = Vec::new();
        for c in constraints {
            let a = c.coeffs[var].clone();
            if a.is_zero() {
                rest.push(c);
            } else if a.is_positive() {
                uppers.push(c);
            } else {
                lowers.push(c);
            }
        }
        // Combine every (lower, upper) pair, eliminating `var`.
        for lo in &lowers {
            for up in &uppers {
                let a_lo = -&lo.coeffs[var]; // > 0
                let a_up = up.coeffs[var].clone(); // > 0
                let mut coeffs = Vec::with_capacity(num_vars);
                for k in 0..num_vars {
                    // a_lo·up + a_up·lo
                    let v = &(&a_lo * &up.coeffs[k]) + &(&a_up * &lo.coeffs[k]);
                    coeffs.push(v);
                }
                debug_assert!(coeffs[var].is_zero());
                let rhs = &(&a_lo * &up.rhs) + &(&a_up * &lo.rhs);
                rest.push(Constraint {
                    coeffs,
                    rhs,
                    strict: lo.strict || up.strict,
                });
            }
        }
        constraints = rest;
    }
    // All variables eliminated: every constraint is `0 ⋈ rhs`.
    constraints.iter().all(|c| {
        if c.strict {
            c.rhs.is_positive()
        } else {
            !c.rhs.is_negative()
        }
    })
}

/// Converts an atom (with polarity) into the ≤/< normal form.
fn to_constraint(coeffs: &[i64], rhs: i64, op: CmpOp, positive: bool) -> Constraint {
    // Base atom: Σ c·x (op) rhs.
    let (flip, strict) = match (op, positive) {
        (CmpOp::Le, true) => (false, false),
        (CmpOp::Lt, true) => (false, true),
        (CmpOp::Ge, true) => (true, false),
        (CmpOp::Gt, true) => (true, true),
        // Negations: ¬(a ≤ b) ⇔ a > b, etc.
        (CmpOp::Le, false) => (true, true),
        (CmpOp::Lt, false) => (true, false),
        (CmpOp::Ge, false) => (false, true),
        (CmpOp::Gt, false) => (false, false),
        _ => unreachable!("only inequality atoms generated"),
    };
    let sign = if flip { -1i64 } else { 1 };
    Constraint {
        coeffs: coeffs.iter().map(|&c| Rational::from(sign * c)).collect(),
        rhs: Rational::from(sign * rhs),
        strict,
    }
}

#[derive(Debug, Clone)]
struct RandomAtom {
    coeffs: Vec<i64>,
    rhs: i64,
    op: CmpOp,
}

/// Draws a nontrivial random atom with coefficients in `[-3, 3]`.
fn random_atom(rng: &mut Pcg32, num_vars: usize) -> RandomAtom {
    let ops = [CmpOp::Le, CmpOp::Lt, CmpOp::Ge, CmpOp::Gt];
    loop {
        let coeffs: Vec<i64> =
            (0..num_vars).map(|_| rng.range_i64(-3, 3)).collect();
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

/// Random Boolean skeleton: a CNF over atom indices with polarities.
fn random_skeleton(rng: &mut Pcg32, num_atoms: usize) -> Vec<Vec<(usize, bool)>> {
    (0..rng.range_usize(1, 5))
        .map(|_| {
            (0..rng.range_usize(1, 4))
                .map(|_| (rng.below(num_atoms), rng.flip()))
                .collect()
        })
        .collect()
}

fn oracle_sat(
    atoms: &[RandomAtom],
    cnf: &[Vec<(usize, bool)>],
    num_vars: usize,
) -> bool {
    // Enumerate atom truth assignments satisfying the CNF; check each
    // induced constraint conjunction with FM.
    let n = atoms.len();
    'assign: for mask in 0..(1u32 << n) {
        for clause in cnf {
            if !clause
                .iter()
                .any(|&(i, pos)| ((mask >> i) & 1 == 1) == pos)
            {
                continue 'assign;
            }
        }
        let constraints: Vec<Constraint> = atoms
            .iter()
            .enumerate()
            .map(|(i, a)| {
                to_constraint(&a.coeffs, a.rhs, a.op, (mask >> i) & 1 == 1)
            })
            .collect();
        if fm_satisfiable(constraints, num_vars) {
            return true;
        }
    }
    false
}

#[test]
fn solver_agrees_with_fourier_motzkin() {
    let mut rng = Pcg32::new(0x06A3);
    for _ in 0..96 {
        let num_vars = 3;
        let atoms: Vec<RandomAtom> = (0..rng.range_usize(2, 6))
            .map(|_| random_atom(&mut rng, num_vars))
            .collect();
        let cnf = random_skeleton(&mut rng, atoms.len());

        let expected = oracle_sat(&atoms, &cnf, num_vars);

        let mut solver = Solver::new();
        let vars: Vec<RealVar> = (0..num_vars).map(|_| solver.new_real()).collect();
        let atom_formulas: Vec<Formula> = atoms
            .iter()
            .map(|a| {
                let mut lhs = LinExpr::zero();
                for (k, &c) in a.coeffs.iter().enumerate() {
                    lhs.add_term(Rational::from(c), vars[k]);
                }
                Formula::cmp(lhs, a.op, LinExpr::from(a.rhs))
            })
            .collect();
        for clause in &cnf {
            solver.assert_formula(&Formula::or(
                clause
                    .iter()
                    .map(|&(i, pos)| {
                        if pos {
                            atom_formulas[i].clone()
                        } else {
                            atom_formulas[i].clone().not()
                        }
                    })
                    .collect(),
            ));
        }
        let result = solver.check();
        assert_eq!(result.is_sat(), expected, "atoms {atoms:?} cnf {cnf:?}");

        // Model soundness: every clause holds under the returned values.
        if let Some(model) = result.model() {
            let value = |k: usize| model.real_value(vars[k]).clone();
            for clause in &cnf {
                let ok = clause.iter().any(|&(i, pos)| {
                    let a = &atoms[i];
                    let mut lhs = Rational::zero();
                    for (k, &c) in a.coeffs.iter().enumerate() {
                        lhs = &lhs + &(&Rational::from(c) * &value(k));
                    }
                    let rhs = Rational::from(a.rhs);
                    let holds = match a.op {
                        CmpOp::Le => lhs <= rhs,
                        CmpOp::Lt => lhs < rhs,
                        CmpOp::Ge => lhs >= rhs,
                        CmpOp::Gt => lhs > rhs,
                        _ => unreachable!(),
                    };
                    holds == pos
                });
                assert!(ok, "model violates clause {clause:?}");
            }
        }
    }
}
