//! Pins the CDCL search trajectory to golden values.
//!
//! Seeded random CNF — root units, binary, ternary and long clauses plus
//! a Sinz sequential-counter at-most-k — runs through [`CdclSolver`],
//! first without assumptions and then under several assumption sets on
//! the same persistent core. A few IEEE 14- and 30-bus verify jobs run
//! through `Solver::check`. Every run must repeat the decisions,
//! propagations, conflicts, restarts, learned clauses, clause database
//! size and model bits that the golden tables hold.
//!
//! The golden values were recorded by running this same test body on
//! commit eedf774, the last commit whose CDCL core kept one `Vec<Lit>`
//! per clause and one `Vec<Watch>` per literal. A storage change to the
//! core (the clause arena, the inline binary watches, the shared watch
//! buffer) must not move the search by a single step, so any mismatch
//! here is a trajectory change, not noise.
//!
//! `cargo test --release -p sta-smt --test cdcl_trajectory -- --ignored`
//! runs the many-seed variant, which also crosses the learned-clause
//! reduction threshold.

use sta_core::attack::{AttackModel, AttackOutcome, AttackVerifier, StateTarget};
use sta_grid::{ieee14, synthetic, BusId, TestSystem};
use sta_linalg::rng::Pcg32;
use sta_smt::sat::{CdclSolver, LBool, Lit, SatOutcome, SatVar, Theory, TheoryResult};
use sta_smt::CertifyLevel;

/// A theory that accepts every assignment: plain SAT.
struct Plain;

impl Theory for Plain {
    fn on_new_level(&mut self) {}
    fn on_backtrack(&mut self, _n_levels: usize) {}
    fn on_assert(&mut self, _lit: Lit) -> TheoryResult {
        TheoryResult::Ok
    }
    fn check(&mut self) -> TheoryResult {
        TheoryResult::Ok
    }
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The final counters of one run — decisions, propagations, conflicts,
/// restarts, learned clauses and clause database size, in that order —
/// then a digest of every answer on the way (outcome, counters, model
/// bits, failed core).
type Golden = [u64; 7];

fn lit(rng: &mut Pcg32, n: usize) -> Lit {
    Lit::with_polarity(rng.below(n) as SatVar, rng.flip())
}

/// Sinz's sequential counter: at most `k` of `xs` are true, `k ≥ 1`.
fn sinz_at_most(s: &mut CdclSolver, xs: &[Lit], k: usize) -> Vec<Vec<Lit>> {
    let n = xs.len();
    let reg: Vec<Vec<Lit>> = (0..n - 1)
        .map(|_| (0..k).map(|_| Lit::positive(s.new_var())).collect())
        .collect();
    let mut out = vec![vec![!xs[0], reg[0][0]]];
    for &r in &reg[0][1..] {
        out.push(vec![!r]);
    }
    for i in 1..n - 1 {
        out.push(vec![!xs[i], reg[i][0]]);
        out.push(vec![!reg[i - 1][0], reg[i][0]]);
        for j in 1..k {
            out.push(vec![!xs[i], !reg[i - 1][j - 1], reg[i][j]]);
            out.push(vec![!reg[i - 1][j], reg[i][j]]);
        }
        out.push(vec![!xs[i], !reg[i - 1][k - 1]]);
    }
    out.push(vec![!xs[n - 1], !reg[n - 2][k - 1]]);
    out
}

/// Builds the seeded instance over `n` problem variables and solves it
/// once without and then under four assumption sets.
fn run_cnf(seed: u64, n: usize) -> Golden {
    let mut rng = Pcg32::new(seed);
    let mut s = CdclSolver::new();
    for _ in 0..n {
        s.new_var();
    }
    let mut clauses: Vec<Vec<Lit>> = Vec::new();
    for _ in 0..rng.below(3) {
        clauses.push(vec![lit(&mut rng, n)]);
    }
    for _ in 0..n / 6 {
        clauses.push(vec![lit(&mut rng, n), lit(&mut rng, n)]);
    }
    for _ in 0..4 * n {
        clauses.push(vec![lit(&mut rng, n), lit(&mut rng, n), lit(&mut rng, n)]);
    }
    for _ in 0..n / 8 {
        let len = rng.range_usize(4, 10);
        clauses.push((0..len).map(|_| lit(&mut rng, n)).collect());
    }
    let m = rng.range_usize(6, 16).min(n);
    let xs: Vec<Lit> = (0..m)
        .map(|_| Lit::positive(rng.below(n) as SatVar))
        .collect();
    let k = rng.range_usize(1, m / 2 + 1);
    clauses.extend(sinz_at_most(&mut s, &xs, k));
    // Interleave the counter's clauses with the random ones so that
    // every clause length occurs at every stage of the database.
    for i in (1..clauses.len()).rev() {
        clauses.swap(i, rng.below(i + 1));
    }
    for c in clauses {
        s.add_clause(c);
    }

    let mut th = Plain;
    let mut digest = Digest::new();
    for round in 0..5 {
        let assumptions: Vec<Lit> = if round == 0 {
            Vec::new()
        } else {
            (0..rng.range_usize(1, 7))
                .map(|_| lit(&mut rng, n))
                .collect()
        };
        s.reset_to_root(&mut th);
        let outcome = s.solve_under_assumptions(&assumptions, &mut th);
        digest.word(match outcome {
            SatOutcome::Sat => 1,
            SatOutcome::Unsat => 2,
            SatOutcome::Unknown(_) => 3,
        });
        let c = s.counters();
        for w in [
            c.decisions,
            c.propagations,
            c.conflicts,
            c.restarts,
            c.learned_clauses,
        ] {
            digest.word(w);
        }
        digest.word(s.num_clauses() as u64);
        if outcome == SatOutcome::Sat {
            for v in 0..s.num_vars() {
                digest.word(u64::from(s.value(v as SatVar) == LBool::True));
            }
        }
        for l in s.failed_assumptions() {
            digest.word(l.index() as u64);
        }
    }
    let c = s.counters();
    [
        c.decisions,
        c.propagations,
        c.conflicts,
        c.restarts,
        c.learned_clauses,
        s.num_clauses() as u64,
        digest.0,
    ]
}

/// Tier-1 seeds with their golden values. The last one learns past the
/// 4,000-clause reduction threshold (5,279 conflicts, 3,278 learned
/// clauses kept).
const CNF_GOLDEN: &[(u64, usize, Golden)] = &[
    (2, 80, [75, 1950, 49, 0, 41, 495, 13176051203459735287]),
    (2, 120, [251, 8113, 194, 1, 186, 785, 2996779409496838657]),
    (0, 160, [527, 19170, 419, 3, 411, 1143, 2029151010844353138]),
    (
        1,
        200,
        [2422, 103569, 1951, 12, 1949, 2831, 6157706719485229558],
    ),
    (
        0,
        250,
        [6463, 318371, 5279, 28, 3278, 4388, 17212673219994334079],
    ),
];

#[test]
fn seeded_cnf_repeats_the_recorded_trajectory() {
    for &(seed, n, want) in CNF_GOLDEN {
        assert_eq!(run_cnf(seed, n), want, "seed {seed}, {n} variables");
    }
}

/// Folds many seeds at several sizes into one digest; the largest sizes
/// learn past the 4,000-clause reduction threshold.
#[test]
#[ignore = "many seeds; run in release by verify.sh"]
fn many_seed_cnf_repeats_the_recorded_trajectory() {
    let mut digest = Digest::new();
    let mut conflicts = 0;
    for seed in 0..160u64 {
        let n = [80, 160, 250, 300][seed as usize % 4];
        let g = run_cnf(1000 + seed, n);
        for w in g {
            digest.word(w);
        }
        conflicts += g[2];
    }
    assert_eq!((conflicts, digest.0), (607_759, 17_574_224_996_993_965_033));
}

fn verify_job(sys: &TestSystem, model: &AttackModel) -> Golden {
    let report = AttackVerifier::new(sys)
        .expect("operating point")
        .verify_with_stats(model);
    let m = &report.stats.metrics;
    let mut digest = Digest::new();
    match &report.outcome {
        AttackOutcome::Feasible(v) => {
            digest.word(1);
            for a in &v.alterations {
                digest.word(a.measurement.0 as u64);
                digest.word(a.delta.to_bits());
            }
            for b in &v.compromised_buses {
                digest.word(b.0 as u64);
            }
            for d in &v.state_changes {
                digest.word(d.to_bits());
            }
            for l in v.excluded_lines.iter().chain(&v.included_lines) {
                digest.word(l.0 as u64);
            }
        }
        AttackOutcome::Infeasible => digest.word(2),
        AttackOutcome::Unknown(_) => digest.word(3),
    }
    [
        m.decisions,
        m.propagations,
        m.conflicts,
        m.restarts,
        m.learned_clauses,
        m.clause_db,
        digest.0,
    ]
}

fn verify_jobs() -> Vec<(&'static str, TestSystem, AttackModel)> {
    let b14 = ieee14::system();
    let b30 = synthetic::ieee_case(30);
    vec![
        (
            "ieee14 target 12, T_CZ 10",
            b14.clone(),
            AttackModel::new(14)
                .target(BusId(11), StateTarget::MustChange)
                .max_altered_measurements(10),
        ),
        (
            "ieee14 blocked",
            b14.clone(),
            AttackModel::new(14).max_altered_measurements(0),
        ),
        (
            "ieee14 target 9, T_CB 3, certified",
            b14.clone(),
            AttackModel::new(14)
                .target(BusId(8), StateTarget::MustChange)
                .max_compromised_buses(3)
                .with_certify(CertifyLevel::Full),
        ),
        (
            "ieee14 targets 4 and 12, topology",
            b14,
            AttackModel::new(14)
                .target(BusId(3), StateTarget::MustChange)
                .target(BusId(11), StateTarget::MustChange)
                .max_altered_measurements(12)
                .with_topology_attack(),
        ),
        (
            "ieee30 target 16, T_CZ 12, T_CB 6",
            b30.clone(),
            AttackModel::new(30)
                .target(BusId(15), StateTarget::MustChange)
                .max_altered_measurements(12)
                .max_compromised_buses(6),
        ),
        (
            "ieee30 blocked",
            b30,
            AttackModel::new(30).max_altered_measurements(0),
        ),
    ]
}

/// Golden values of [`verify_jobs`], in order.
const VERIFY_GOLDEN: &[Golden] = &[
    [129, 2703, 12, 0, 12, 1303, 16042368545592611189],
    [37, 348, 26, 0, 0, 466, 16626593026977353223],
    [24, 1755, 15, 0, 10, 508, 16626593026977353223],
    [187, 5012, 10, 0, 9, 1495, 14738680054383180292],
    [124, 6207, 7, 0, 7, 4219, 10889114293154399285],
    [85, 788, 58, 0, 0, 1240, 16626593026977353223],
];

#[test]
fn verify_jobs_repeat_the_recorded_trajectory() {
    let jobs = verify_jobs();
    assert_eq!(jobs.len(), VERIFY_GOLDEN.len());
    for ((label, sys, model), want) in jobs.iter().zip(VERIFY_GOLDEN) {
        assert_eq!(verify_job(sys, model), *want, "{label}");
    }
}
