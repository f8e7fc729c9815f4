//! Shared harness for regenerating every figure and table of the paper's
//! evaluation (§V).
//!
//! Each `fig*`/`table*` function builds a declarative [`CampaignSpec`]
//! and hands it to the campaign engine (`sta-campaign`), then folds the
//! per-job results back into printable rows; the `fig4`, `fig5`,
//! `table4`, `ablation` and `case_study` binaries render them, and the
//! Criterion benches in `benches/` wrap the same scenario builders for
//! statistically sound timing. Absolute numbers will differ from the
//! paper's Core-i5/Z3 testbed; the reproduced object is the *shape* of
//! each curve (see `EXPERIMENTS.md`).
//!
//! All sweep functions take a `workers` count for the campaign pool.
//! The binaries default to 1 — serial execution keeps per-job wall
//! times free of scheduling contention, which is what the figures
//! measure — and accept `--jobs N` for quick shape checks.

use sta_campaign::{run, CampaignReport, CampaignSpec, Verdict};
use sta_core::attack::{AttackModel, AttackVerifier, StateTarget};
use sta_core::synthesis::{SynthesisConfig, Synthesizer};
use sta_grid::{synthetic, BusId, TestSystem};
use sta_smt::SolverStats;
use std::time::Instant;

/// The IEEE case sizes of the paper's evaluation.
pub const ALL_SIZES: [usize; 5] = [14, 30, 57, 118, 300];

/// Sizes exercised by default (large cases opt in via `--full`).
pub const DEFAULT_SIZES: [usize; 3] = [14, 30, 57];

/// A labeled row of named numeric cells, the output unit of every
/// experiment function.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (e.g. the bus count or sweep value).
    pub label: String,
    /// `(column, value)` cells.
    pub cells: Vec<(String, f64)>,
}

impl Row {
    /// Creates a row.
    pub fn new(label: impl Into<String>) -> Self {
        Row { label: label.into(), cells: Vec::new() }
    }

    /// Adds a cell.
    pub fn cell(mut self, name: impl Into<String>, value: f64) -> Self {
        self.cells.push((name.into(), value));
        self
    }
}

/// Prints rows as an aligned text table.
pub fn print_table(title: &str, rows: &[Row]) {
    println!();
    println!("## {title}");
    if rows.is_empty() {
        println!("(no rows)");
        return;
    }
    let mut headers: Vec<String> = Vec::new();
    for row in rows {
        for (name, _) in &row.cells {
            if !headers.contains(name) {
                headers.push(name.clone());
            }
        }
    }
    print!("{:>26}", "case");
    for h in &headers {
        print!(" {h:>16}");
    }
    println!();
    for row in rows {
        print!("{:>26}", row.label);
        for h in &headers {
            match row.cells.iter().find(|(n, _)| n == h) {
                Some((_, v)) => print!(" {v:>16.4}"),
                None => print!(" {:>16}", "-"),
            }
        }
        println!();
    }
}

/// Parses the shared `--jobs N` flag of the bench binaries (campaign
/// worker count). Defaults to 1.
pub fn jobs_flag() -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--jobs" {
            if let Some(n) = args.next().and_then(|v| v.parse::<usize>().ok()) {
                return n.max(1);
            }
        }
    }
    1
}

/// Loads the test system for a paper case size (14 exact, others
/// synthetic at IEEE dimensions).
pub fn system_for(size: usize) -> TestSystem {
    synthetic::ieee_case(size)
}

/// Three deterministic single-state attack targets per system size (the
/// paper runs three experiments per case, Fig. 4a).
pub fn target_states(num_buses: usize) -> [usize; 3] {
    [num_buses / 4, num_buses / 2, (3 * num_buses) / 4]
}

/// A satisfiable single-target verification scenario.
pub fn sat_scenario(sys: &TestSystem, target: usize) -> AttackModel {
    AttackModel::new(sys.grid.num_buses()).target(BusId(target), StateTarget::MustChange)
}

/// An unsatisfiable scenario: the same target with a measurement budget
/// too small for any stealthy attack (a single altered measurement can
/// never be stealthy on a redundantly metered line).
pub fn unsat_scenario(sys: &TestSystem, target: usize) -> AttackModel {
    sat_scenario(sys, target).max_altered_measurements(1)
}

/// Times one verification; returns `(seconds, feasible, stats)`.
pub fn time_verification(
    sys: &TestSystem,
    model: &AttackModel,
) -> (f64, bool, SolverStats) {
    let verifier = AttackVerifier::new(sys).expect("benchmark cases are connected");
    let start = Instant::now();
    let report = verifier.verify_with_stats(model);
    (start.elapsed().as_secs_f64(), report.outcome.is_feasible(), report.stats)
}

/// Times one synthesis run; returns `(seconds, found, iterations)`.
pub fn time_synthesis(
    sys: &TestSystem,
    attacker: &AttackModel,
    config: &SynthesisConfig,
) -> (f64, bool, usize) {
    let synth = Synthesizer::new(sys).expect("benchmark cases are connected");
    let start = Instant::now();
    let outcome = synth.synthesize(attacker, config);
    let secs = start.elapsed().as_secs_f64();
    match outcome {
        sta_core::SynthesisOutcome::Architecture(a) => (secs, true, a.iterations),
        sta_core::SynthesisOutcome::NoSolution { iterations } => (secs, false, iterations),
        sta_core::SynthesisOutcome::Inconclusive { iterations } => (secs, false, iterations),
    }
}

/// A taken-measurement sweep variant of a system.
pub fn with_taken_fraction(sys: &TestSystem, fraction: f64) -> TestSystem {
    let mut out = sys.clone();
    out.measurements = sys.measurements.with_taken_fraction(fraction);
    out
}

/// The standard synthesis attacker for the Fig. 5 sweeps: resource
/// capped at `fraction` of the potential measurements.
pub fn synthesis_attacker(sys: &TestSystem, fraction: f64) -> AttackModel {
    let m = sys.grid.num_potential_measurements();
    AttackModel::new(sys.grid.num_buses())
        .max_altered_measurements(((m as f64) * fraction).round() as usize)
}

// ---------------------------------------------------------------------
// Campaign plumbing shared by the sweep builders
// ---------------------------------------------------------------------

/// Finds (or creates) the row with `label`.
fn row_mut<'a>(rows: &'a mut Vec<Row>, label: &str) -> &'a mut Row {
    if let Some(i) = rows.iter().position(|r| r.label == label) {
        &mut rows[i]
    } else {
        rows.push(Row::new(label));
        rows.last_mut().expect("just pushed")
    }
}

/// Folds per-job wall times into rows; `keys[id]` gives each job's
/// `(row label, column label)` cell address.
fn collect_wall_rows(report: &CampaignReport, keys: &[(String, String)]) -> Vec<Row> {
    let mut rows = Vec::new();
    for r in &report.results {
        let (row, col) = &keys[r.id];
        row_mut(&mut rows, row).cells.push((col.clone(), r.wall.as_secs_f64()));
    }
    rows
}

// ---------------------------------------------------------------------
// Figure 4: verification-model scaling
// ---------------------------------------------------------------------

/// Fig. 4(a): execution time vs bus count, three target choices each.
pub fn fig4a(sizes: &[usize], workers: usize) -> Vec<Row> {
    let mut spec = CampaignSpec::new("fig4a");
    let mut keys: Vec<(String, String)> = Vec::new();
    for &b in sizes {
        let sys = system_for(b);
        let models: Vec<AttackModel> =
            target_states(b).iter().map(|&t| sat_scenario(&sys, t)).collect();
        let case = spec.add_case(format!("{b}-bus"), sys);
        for (k, model) in models.into_iter().enumerate() {
            spec.verify(case, format!("{b}-bus exp{}", k + 1), model);
            keys.push((format!("{b}-bus"), format!("exp{} (s)", k + 1)));
        }
    }
    let report = run(&spec, workers);
    for r in &report.results {
        assert_eq!(r.verdict, Verdict::Sat, "fig4a scenarios are satisfiable");
    }
    let mut rows = collect_wall_rows(&report, &keys);
    for row in &mut rows {
        let total: f64 = row.cells.iter().map(|(_, v)| v).sum();
        let avg = total / row.cells.len() as f64;
        row.cells.push(("avg (s)".into(), avg));
    }
    rows
}

/// Fig. 4(b): execution time vs % of taken measurements (30/57-bus).
pub fn fig4b(sizes: &[usize], fractions: &[f64], workers: usize) -> Vec<Row> {
    let mut spec = CampaignSpec::new("fig4b");
    let mut keys = Vec::new();
    for &f in fractions {
        for &b in sizes {
            let sys = with_taken_fraction(&system_for(b), f);
            let model = sat_scenario(&sys, target_states(b)[1]);
            let case = spec.add_case(format!("{b}-bus@{:.0}%", f * 100.0), sys);
            spec.verify(case, format!("{b}-bus {:.0}%", f * 100.0), model);
            keys.push((format!("{:.0}%", f * 100.0), format!("{b}-bus (s)")));
        }
    }
    collect_wall_rows(&run(&spec, workers), &keys)
}

/// Fig. 4(c): execution time vs attacker resource limit `T_CZ`
/// (14/30-bus).
pub fn fig4c(sizes: &[usize], limits: &[usize], workers: usize) -> Vec<Row> {
    let mut spec = CampaignSpec::new("fig4c");
    let mut keys = Vec::new();
    let cases: Vec<usize> = sizes
        .iter()
        .map(|&b| spec.add_case(format!("{b}-bus"), system_for(b)))
        .collect();
    for &t_cz in limits {
        for (i, &b) in sizes.iter().enumerate() {
            let model = sat_scenario(&spec.cases[cases[i]].system, target_states(b)[1])
                .max_altered_measurements(t_cz);
            spec.verify(cases[i], format!("T_CZ={t_cz} {b}-bus"), model);
            keys.push((format!("T_CZ={t_cz}"), format!("{b}-bus (s)")));
        }
    }
    collect_wall_rows(&run(&spec, workers), &keys)
}

/// Fig. 4(d): satisfiable vs unsatisfiable execution time per system.
pub fn fig4d(sizes: &[usize], workers: usize) -> Vec<Row> {
    let mut spec = CampaignSpec::new("fig4d");
    let mut keys = Vec::new();
    let mut want_sat = Vec::new();
    for &b in sizes {
        let sys = system_for(b);
        let t = target_states(b)[1];
        let (sat_model, unsat_model) = (sat_scenario(&sys, t), unsat_scenario(&sys, t));
        let case = spec.add_case(format!("{b}-bus"), sys);
        spec.verify(case, format!("{b}-bus sat"), sat_model);
        keys.push((format!("{b}-bus"), "sat (s)".to_string()));
        want_sat.push(true);
        spec.verify(case, format!("{b}-bus unsat"), unsat_model);
        keys.push((format!("{b}-bus"), "unsat (s)".to_string()));
        want_sat.push(false);
    }
    let report = run(&spec, workers);
    for r in &report.results {
        assert_eq!(r.verdict == Verdict::Sat, want_sat[r.id], "fig4d polarity");
    }
    collect_wall_rows(&report, &keys)
}

// ---------------------------------------------------------------------
// Figure 5: synthesis-mechanism scaling
// ---------------------------------------------------------------------

/// The synthesis budget used in the scaling sweeps.
pub fn synthesis_budget(num_buses: usize) -> usize {
    (num_buses / 3).max(4)
}

/// Fig. 5(a): synthesis time vs bus count, at 90% and 100% taken
/// measurements.
pub fn fig5a(sizes: &[usize], workers: usize) -> Vec<Row> {
    let mut spec = CampaignSpec::new("fig5a");
    let mut keys = Vec::new();
    for &b in sizes {
        for &f in &[0.9, 1.0] {
            let sys = with_taken_fraction(&system_for(b), f);
            let attacker = synthesis_attacker(&sys, 0.15);
            let config = SynthesisConfig::with_budget(synthesis_budget(b));
            let case = spec.add_case(format!("{b}-bus@{:.0}%", f * 100.0), sys);
            spec.synthesize(case, format!("{b}-bus {:.0}%", f * 100.0), attacker, config);
            keys.push((format!("{b}-bus"), format!("{:.0}% taken (s)", f * 100.0)));
        }
    }
    let report = run(&spec, workers);
    for r in &report.results {
        assert_eq!(
            r.verdict,
            Verdict::Architecture,
            "fig5a budget must admit a solution ({})",
            r.label
        );
    }
    collect_wall_rows(&report, &keys)
}

/// Fig. 5(b): synthesis time vs % taken measurements (30/57-bus).
pub fn fig5b(sizes: &[usize], fractions: &[f64], workers: usize) -> Vec<Row> {
    let mut spec = CampaignSpec::new("fig5b");
    let mut keys = Vec::new();
    for &f in fractions {
        for &b in sizes {
            let sys = with_taken_fraction(&system_for(b), f);
            let attacker = synthesis_attacker(&sys, 0.15);
            let config = SynthesisConfig::with_budget(synthesis_budget(b));
            let case = spec.add_case(format!("{b}-bus@{:.0}%", f * 100.0), sys);
            spec.synthesize(case, format!("{b}-bus {:.0}%", f * 100.0), attacker, config);
            keys.push((format!("{:.0}%", f * 100.0), format!("{b}-bus (s)")));
        }
    }
    collect_wall_rows(&run(&spec, workers), &keys)
}

/// Fig. 5(c): synthesis time vs attacker resource limit (as % of total
/// measurements; 14/30-bus).
pub fn fig5c(sizes: &[usize], fractions: &[f64], workers: usize) -> Vec<Row> {
    let mut spec = CampaignSpec::new("fig5c");
    let mut keys = Vec::new();
    let cases: Vec<usize> = sizes
        .iter()
        .map(|&b| spec.add_case(format!("{b}-bus"), system_for(b)))
        .collect();
    for &f in fractions {
        for (i, &b) in sizes.iter().enumerate() {
            let attacker = synthesis_attacker(&spec.cases[cases[i]].system, f);
            let config = SynthesisConfig::with_budget(synthesis_budget(b));
            spec.synthesize(
                cases[i],
                format!("{:.0}% {b}-bus", f * 100.0),
                attacker,
                config,
            );
            keys.push((format!("{:.0}%", f * 100.0), format!("{b}-bus (s)")));
        }
    }
    collect_wall_rows(&run(&spec, workers), &keys)
}

/// Fig. 5(d): unsatisfiable synthesis time vs operator budget, for two
/// attacker strengths on the 30-bus system. The paper's scenarios have
/// feasibility minima of 10 and 12 buses; ours are discovered at run
/// time — a generous-budget campaign bounds each minimum `b*` from
/// above, parallel budget grids walk downward until the first unsat
/// budget pins `b*` (budgets are monotone), and a final campaign times
/// the unsat regime just below it.
pub fn fig5d(workers: usize) -> Vec<Row> {
    let sys = system_for(30);
    // Two attacker strengths: the stronger one needs more secured buses.
    let attackers = [
        ("weaker", synthesis_attacker(&sys, 0.2)),
        ("stronger", synthesis_attacker(&sys, 0.3)),
    ];
    let generous = SynthesisConfig::with_budget(sys.grid.num_buses() / 2);
    let mut bound_spec = CampaignSpec::new("fig5d-bounds");
    let case = bound_spec.add_case("30-bus", sys.clone());
    for (label, attacker) in &attackers {
        bound_spec.synthesize(case, *label, attacker.clone(), generous.clone());
    }
    let bounds = run(&bound_spec, workers);

    let mut rows = Vec::new();
    for (i, (label, attacker)) in attackers.iter().enumerate() {
        let upper = bounds.results[i]
            .architecture
            .as_ref()
            .expect("half the buses always suffice here")
            .len();
        let mut seen: Vec<(usize, bool)> = Vec::new();
        let mut hi = upper;
        loop {
            let lo = hi.saturating_sub(3).max(1);
            let mut grid = CampaignSpec::new("fig5d-grid");
            let case = grid.add_case("30-bus", sys.clone());
            for budget in lo..hi {
                grid.synthesize(
                    case,
                    format!("{label} budget={budget}"),
                    attacker.clone(),
                    SynthesisConfig::with_budget(budget),
                );
            }
            let report = run(&grid, workers);
            for (budget, r) in (lo..hi).zip(&report.results) {
                seen.push((budget, r.verdict == Verdict::Architecture));
            }
            if seen.iter().any(|&(_, sat)| !sat) || lo == 1 {
                break;
            }
            hi = lo;
        }
        let b_star = seen
            .iter()
            .filter(|&&(_, sat)| sat)
            .map(|&(b, _)| b)
            .min()
            .unwrap_or(upper);

        // Time the unsat regime just below b*.
        let lo = b_star.saturating_sub(2).max(1);
        if lo >= b_star {
            continue;
        }
        let mut timing = CampaignSpec::new("fig5d-unsat");
        let case = timing.add_case("30-bus", sys.clone());
        for budget in (lo..b_star).rev() {
            timing.synthesize(
                case,
                format!("{label} b*={b_star} budget={budget}"),
                attacker.clone(),
                SynthesisConfig::with_budget(budget),
            );
        }
        let report = run(&timing, workers);
        for r in &report.results {
            assert_ne!(r.verdict, Verdict::Architecture, "budgets below b* are unsat");
            rows.push(
                Row::new(r.label.clone())
                    .cell("unsat time (s)", r.wall.as_secs_f64())
                    .cell("iterations", r.iterations.unwrap_or(0) as f64),
            );
        }
    }
    rows
}

// ---------------------------------------------------------------------
// Table IV: memory complexity
// ---------------------------------------------------------------------

/// Table IV: estimated solver memory (MB) for the verification model and
/// the candidate-selection model, per system size.
pub fn table4(sizes: &[usize], workers: usize) -> Vec<Row> {
    let mut spec = CampaignSpec::new("table4");
    for &b in sizes {
        let sys = system_for(b);
        let model = sat_scenario(&sys, target_states(b)[1]);
        let case = spec.add_case(format!("{b}-bus"), sys);
        spec.verify(case, format!("{b}-bus"), model);
    }
    let report = run(&spec, workers);
    report
        .results
        .iter()
        .zip(sizes)
        .map(|(r, &b)| {
            let stats = r.stats.as_ref().expect("verification jobs carry stats");
            let selection_mb = candidate_selection_memory(&spec.cases[r.id].system);
            Row::new(format!("{b}-bus"))
                .cell("verification (MB)", stats.estimated_mb())
                .cell("selection (MB)", selection_mb)
        })
        .collect()
}

/// Builds and checks one candidate-selection model, returning its
/// estimated memory in MB.
///
/// Uses a paper-scale constant budget (`T_SB = 6`, the §IV-E ceiling):
/// the cardinality encoding grows with `b·T_SB`, and the paper's Table IV
/// sizes its selection model at fixed small operator budgets.
fn candidate_selection_memory(sys: &TestSystem) -> f64 {
    use sta_smt::{Formula, Solver};
    let b = sys.grid.num_buses();
    let mut solver = Solver::new();
    let sb: Vec<sta_smt::BoolVar> = (0..b).map(|_| solver.new_bool()).collect();
    solver.assert_formula(&Formula::at_most(
        sb.iter().map(|&v| Formula::var(v)).collect(),
        6,
    ));
    for (i, line) in sys.grid.lines().iter().enumerate() {
        let l = sys.grid.num_lines();
        let taken = sys.measurements.is_taken(sta_grid::MeasurementId(i))
            || sys.measurements.is_taken(sta_grid::MeasurementId(l + i));
        if taken {
            solver.assert_formula(&Formula::or(vec![
                Formula::var(sb[line.from.0]).not(),
                Formula::var(sb[line.to.0]).not(),
            ]));
        }
    }
    let _ = solver.check();
    solver.last_stats().map(|s| s.estimated_mb()).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_print_without_panic() {
        let rows = vec![
            Row::new("a").cell("x", 1.0).cell("y", 2.0),
            Row::new("b").cell("x", 3.0),
        ];
        print_table("smoke", &rows);
    }

    #[test]
    fn sat_and_unsat_scenarios_have_expected_polarity() {
        let sys = system_for(14);
        let t = target_states(14)[1];
        let (_, sat, _) = time_verification(&sys, &sat_scenario(&sys, t));
        let (_, unsat, _) = time_verification(&sys, &unsat_scenario(&sys, t));
        assert!(sat);
        assert!(!unsat);
    }

    #[test]
    fn fig4a_smallest_case_runs() {
        let rows = fig4a(&[14], 2);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].cells.len(), 4);
        assert!(rows[0].cells.iter().all(|(_, v)| *v >= 0.0));
    }

    #[test]
    fn fig4d_smallest_case_has_both_polarities() {
        let rows = fig4d(&[14], 2);
        assert_eq!(rows.len(), 1);
        let cols: Vec<&str> =
            rows[0].cells.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(cols, ["sat (s)", "unsat (s)"]);
    }

    #[test]
    fn table4_reports_positive_memory() {
        let rows = table4(&[14], 1);
        assert!(rows[0].cells.iter().all(|(_, v)| *v > 0.0));
    }
}
