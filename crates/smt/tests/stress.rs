//! Stress and boundary tests for the SMT solver: cardinality encodings
//! against brute force, push/pop stack discipline, and deep formula
//! structure.

use sta_linalg::rng::Pcg32;
use sta_smt::{BoolVar, Formula, LinExpr, LinExprCmp, Solver};

/// Brute-force: does any assignment of `n` Booleans with exactly the
/// forced prefix satisfy `count ⋈ k`?
fn brute_card_sat(n: usize, k: usize, forced: &[(usize, bool)], kind: u8) -> bool {
    'outer: for mask in 0..(1u32 << n) {
        for &(i, v) in forced {
            if ((mask >> i) & 1 == 1) != v {
                continue 'outer;
            }
        }
        let count = mask.count_ones() as usize;
        let holds = match kind {
            0 => count <= k,
            1 => count >= k,
            _ => count == k,
        };
        if holds {
            return true;
        }
    }
    false
}

/// at-most/at-least/exactly agree with brute-force counting under
/// arbitrary forced sub-assignments.
#[test]
fn cardinality_matches_brute_force() {
    let mut rng = Pcg32::new(0xCA4D);
    for _ in 0..128 {
        let n = rng.range_usize(2, 8);
        let k = rng.below(9) % (n + 2); // includes out-of-range k on purpose
        let kind = rng.below(3) as u8;
        let mut forced: Vec<(usize, bool)> = (0..rng.below(5))
            .map(|_| (rng.below(n), rng.flip()))
            .collect();
        forced.sort_unstable();
        forced.dedup_by_key(|p| p.0);

        let mut solver = Solver::new();
        let vars: Vec<BoolVar> = (0..n).map(|_| solver.new_bool()).collect();
        let fs: Vec<Formula> = vars.iter().map(|&v| Formula::var(v)).collect();
        let card = match kind {
            0 => Formula::at_most(fs.clone(), k),
            1 => Formula::at_least(fs.clone(), k),
            _ => Formula::exactly(fs.clone(), k),
        };
        solver.assert_formula(&card);
        for &(i, v) in &forced {
            solver.assert_formula(&Formula::lit(vars[i], v));
        }
        let got = solver.check();
        let expected = brute_card_sat(n, k, &forced, kind);
        assert_eq!(got.is_sat(), expected, "n={} k={} kind={}", n, k, kind);
        if let Some(model) = got.model() {
            let count = vars.iter().filter(|&&v| model.bool_value(v)).count();
            let holds = match kind {
                0 => count <= k,
                1 => count >= k,
                _ => count == k,
            };
            assert!(holds, "model count {count} violates kind {kind} k {k}");
        }
    }
}

/// Negated cardinality is the complementary constraint.
#[test]
fn negated_cardinality() {
    for n in 2usize..7 {
        for k in 0..n {
            let mut solver = Solver::new();
            let vars: Vec<BoolVar> = (0..n).map(|_| solver.new_bool()).collect();
            let fs: Vec<Formula> = vars.iter().map(|&v| Formula::var(v)).collect();
            solver.assert_formula(&Formula::at_most(fs, k).not());
            let model = solver.check().expect_sat();
            let count = vars.iter().filter(|&&v| model.bool_value(v)).count();
            assert!(count > k);
        }
    }
}

#[test]
fn push_pop_stack_discipline() {
    // Interleave pushes/pops with arithmetic assertions and make sure
    // each level sees exactly its own constraints.
    let mut solver = Solver::new();
    let x = solver.new_real();
    solver.assert_formula(&LinExpr::var(x).ge(LinExpr::from(0)));
    assert!(solver.check().is_sat());

    solver.push();
    solver.assert_formula(&LinExpr::var(x).le(LinExpr::from(10)));
    assert!(solver.check().is_sat());

    solver.push();
    solver.assert_formula(&LinExpr::var(x).gt(LinExpr::from(10)));
    assert!(!solver.check().is_sat());

    solver.pop().unwrap();
    assert!(solver.check().is_sat());

    solver.push();
    solver.assert_formula(&LinExpr::var(x).eq_expr(LinExpr::from(7)));
    let m = solver.check().expect_sat();
    assert_eq!(m.real_value(x).to_f64(), 7.0);
    solver.pop().unwrap();

    solver.pop().unwrap();
    // Back to just x ≥ 0; x > 10 is allowed again.
    solver.assert_formula(&LinExpr::var(x).gt(LinExpr::from(10)));
    assert!(solver.check().is_sat());
    assert_eq!(solver.num_assertions(), 2);
}

#[test]
fn repeated_checks_are_consistent() {
    // Checking twice without changes returns the same answer (the solver
    // re-encodes from scratch; determinism is part of the contract).
    let mut solver = Solver::new();
    let p = solver.new_bool();
    let x = solver.new_real();
    solver.assert_formula(
        &Formula::var(p).implies(LinExpr::var(x).ge(LinExpr::from(3))),
    );
    solver.assert_formula(&LinExpr::var(x).lt(LinExpr::from(2)));
    for _ in 0..3 {
        let m = solver.check().expect_sat();
        assert!(!m.bool_value(p));
    }
}

#[test]
fn deeply_nested_formula() {
    // alternating implications 64 deep: p0 → (p1 → (… → x ≥ 1)); assert
    // all p_i and ¬(x ≥ 1) ⇒ unsat.
    let mut solver = Solver::new();
    let x = solver.new_real();
    let ps: Vec<BoolVar> = (0..64).map(|_| solver.new_bool()).collect();
    let mut f = LinExpr::var(x).ge(LinExpr::from(1));
    for &p in ps.iter().rev() {
        f = Formula::var(p).implies(f);
    }
    solver.assert_formula(&f);
    for &p in &ps {
        solver.assert_formula(&Formula::var(p));
    }
    solver.push();
    solver.assert_formula(&LinExpr::var(x).lt(LinExpr::from(1)));
    assert!(!solver.check().is_sat());
    solver.pop().unwrap();
    let m = solver.check().expect_sat();
    assert!(m.real_value(x).to_f64() >= 1.0);
}

#[test]
fn wide_disjunction_forces_one_branch() {
    // x pinned to 41; exactly one disjunct (x = 41) is true.
    let mut solver = Solver::new();
    let x = solver.new_real();
    solver.assert_formula(&Formula::or(
        (0..100)
            .map(|k| LinExpr::var(x).eq_expr(LinExpr::from(k)))
            .collect(),
    ));
    solver.assert_formula(&LinExpr::var(x).ge(LinExpr::from(41)));
    solver.assert_formula(&LinExpr::var(x).lt(LinExpr::from(42)));
    let m = solver.check().expect_sat();
    assert_eq!(m.real_value(x).to_f64(), 41.0);
}

#[test]
fn big_coefficient_arithmetic_is_exact() {
    // (10^15)·x = 10^15 + 1 has the exact solution x = 1 + 10^-15; float
    // arithmetic would round it to 1, violating x > 1.
    let mut solver = Solver::new();
    let x = solver.new_real();
    let big = 1_000_000_000_000_000i64;
    solver.assert_formula(
        &(LinExpr::var(x) * sta_smt::Rational::from(big))
            .eq_expr(LinExpr::from(big + 1)),
    );
    solver.assert_formula(&LinExpr::var(x).gt(LinExpr::from(1)));
    let m = solver.check().expect_sat();
    assert_eq!(
        *m.real_value(x),
        sta_smt::Rational::new(big + 1, big)
    );
}

#[test]
fn chained_equalities_propagate_exactly() {
    // x0 = 3; x_{i+1} = x_i / 3 + 1; check x_20's exact rational value.
    let mut solver = Solver::new();
    let n = 21;
    let xs: Vec<_> = (0..n).map(|_| solver.new_real()).collect();
    solver.assert_formula(&LinExpr::var(xs[0]).eq_expr(LinExpr::from(3)));
    for i in 0..n - 1 {
        solver.assert_formula(
            &LinExpr::var(xs[i + 1]).eq_expr(
                LinExpr::var(xs[i]) * sta_smt::Rational::new(1, 3) + LinExpr::from(1),
            ),
        );
    }
    let m = solver.check().expect_sat();
    // Fixed point of f(v)=v/3+1 is 3/2; x_i = 3/2 + (3 − 3/2)/3^i.
    let expected = |i: u32| {
        let three_halves = sta_smt::Rational::new(3, 2);
        let pow = sta_smt::Rational::new(3i64.pow(i.min(19)), 1);
        if i <= 19 {
            &three_halves + &(&sta_smt::Rational::new(3, 2) / &pow)
        } else {
            unreachable!()
        }
    };
    assert_eq!(*m.real_value(xs[19]), expected(19));
}
