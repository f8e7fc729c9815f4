//! Shape pins of the paper-evaluation suites (`sta bench --suite
//! fig4|fig5|table4|ablation`), with no wall-clock assertion.
//!
//! Only fast panels run here: Table IV, Fig. 4(a), Fig. 4(d) at 14–57
//! buses and both ablations. Fig. 4(b)–(c) (whose 30-bus `T_CZ = 16`
//! job alone takes about half a minute) and Fig. 5 run in `verify.sh`.

use sta::campaign::paper::{self, Panel};
use sta::campaign::{CampaignReport, JobKind};
use sta::core::attack::AttackModel;

/// Runs `panels` once on one worker; every pin must hold.
fn run(name: &str, panels: &[Panel]) -> paper::PaperRun {
    paper::run(name, panels, 1, 1).unwrap_or_else(|e| panic!("{name}: pins violated:\n{e}"))
}

fn verdicts(report: &CampaignReport) -> Vec<&'static str> {
    report.results.iter().map(|r| r.verdict.token()).collect()
}

fn strictly_increasing(values: &[f64]) -> bool {
    values.windows(2).all(|w| w[0] < w[1])
}

#[test]
fn table4_memory_grows_with_buses_and_selection_stays_below_verification() {
    let panel = paper::table4(&paper::SIZES);
    let run = run("table4", std::slice::from_ref(&panel));
    let verification: Vec<f64> = run.reports[0]
        .results
        .iter()
        .map(|r| r.stats.as_ref().expect("verification jobs carry stats").estimated_mb())
        .collect();
    let selection: Vec<f64> =
        panel.spec.cases.iter().map(|c| paper::selection_model_mb(&c.system)).collect();
    assert_eq!(verification.len(), paper::SIZES.len());
    assert!(strictly_increasing(&verification), "{verification:?}");
    assert!(strictly_increasing(&selection), "{selection:?}");
    for (i, (v, s)) in verification.iter().zip(&selection).enumerate() {
        assert!(s < v, "{} buses: selection {s} MB >= verification {v} MB", paper::SIZES[i]);
    }
}

#[test]
fn fig4a_is_sat_everywhere_and_the_middle_target_grows_in_clauses() {
    let run = run("fig4", &[paper::fig4a(&paper::SIZES)]);
    let report = &run.reports[0];
    assert!(verdicts(report).iter().all(|&v| v == "sat"), "{:?}", verdicts(report));
    // Three targets per size; the middle one is each size's second job.
    let clauses: Vec<f64> = report
        .results
        .chunks(3)
        .map(|jobs| jobs[1].stats.as_ref().expect("stats").clauses as f64)
        .collect();
    assert_eq!(clauses.len(), paper::SIZES.len());
    assert!(strictly_increasing(&clauses), "{clauses:?}");
}

#[test]
fn fig4d_keeps_its_sat_unsat_polarity() {
    let run = run("fig4", &[paper::fig4d(&[14, 30, 57])]);
    assert_eq!(verdicts(&run.reports[0]), ["sat", "unsat", "sat", "unsat", "sat", "unsat"]);
}

#[test]
fn ablation_strategies_all_solve_and_refinement_never_costs_rounds() {
    let panels = paper::suite("ablation").expect("ablation suite");
    let run = run("ablation", &panels);
    let strategies = &run.reports[0];
    assert_eq!(verdicts(strategies), ["architecture"; 3]);
    // Candidate-only, then hitting, then hitting with chaining.
    let rounds: Vec<usize> =
        strategies.results.iter().map(|r| r.iterations.expect("synthesis rounds")).collect();
    assert!(rounds.windows(2).all(|w| w[0] >= w[1]), "{rounds:?}");
    // Every defense finds one (the suite pins them).
    let defenses: Vec<&str> = run.result.jobs[3..].iter().map(|j| j.verdict.as_str()).collect();
    assert_eq!(defenses, ["architecture"; 4]);
}

#[test]
fn suites_have_pinned_job_lists() {
    let labels = |name: &str| -> Vec<String> {
        paper::suite(name).expect(name).iter().flat_map(Panel::labels).collect()
    };
    let sizes = ["14-bus", "30-bus", "57-bus", "118-bus", "300-bus"];
    let mut fig4: Vec<String> = Vec::new();
    for b in sizes {
        fig4.extend((1..=3).map(|k| format!("4a {b} exp{k}")));
    }
    for pct in [50, 60, 70, 80, 90, 100] {
        fig4.extend(["30-bus", "57-bus"].map(|b| format!("4b {pct}% {b}")));
    }
    for t in [4, 8, 12, 16, 20, 24] {
        fig4.extend(["14-bus", "30-bus"].map(|b| format!("4c T_CZ={t} {b}")));
    }
    for b in sizes {
        fig4.extend(["sat", "unsat"].map(|v| format!("4d {b} {v}")));
    }
    assert_eq!(fig4.len(), 49);
    assert_eq!(labels("fig4"), fig4);

    let mut fig5: Vec<String> = Vec::new();
    for b in ["14-bus", "30-bus"] {
        fig5.extend(["90%", "100%"].map(|p| format!("5a {b} {p} taken")));
    }
    for pct in [70, 80, 90, 100] {
        fig5.extend(["14-bus", "30-bus"].map(|b| format!("5b {pct}% {b}")));
    }
    for pct in [10, 15, 20, 30, 40] {
        fig5.extend(["14-bus", "30-bus"].map(|b| format!("5c {pct}% {b}")));
    }
    for attacker in ["weaker", "stronger"] {
        fig5.extend([10, 9, 8].map(|n| format!("5d {attacker} b*=10 budget={n}")));
    }
    assert_eq!(fig5.len(), 28);
    assert_eq!(labels("fig5"), fig5);

    assert_eq!(labels("table4"), sizes.map(|b| format!("table4 {b}")));
    assert_eq!(
        labels("ablation"),
        [
            "strategy candidate-only (paper Algorithm 1)",
            "strategy hitting, no batching",
            "strategy hitting, 4 chained (default)",
            "defense Bobba basic-measurement set",
            "defense Kim-Poor greedy",
            "defense synthesis, budget 5",
            "defense synthesis, measurements, budget 13",
        ]
    );
    for name in paper::SUITES {
        assert!(paper::suite(name).is_some(), "{name}");
    }
    assert!(paper::suite("smoke").is_none(), "the registry suites stay in bench::suite");
}

#[test]
fn a_violated_pin_is_an_error_naming_the_job() {
    // Blocking every measurement turns Fig. 4(d)'s pinned-sat job unsat.
    let mut panel = paper::fig4d(&[14]);
    panel.spec.jobs[0].kind = JobKind::Verify(AttackModel::new(14).max_altered_measurements(0));
    let err = paper::run("fig4", &[panel], 1, 1).expect_err("the sat pin must fail");
    assert_eq!(err, "fig4: job \"4d 14-bus sat\" is unsat, but the paper's set-up pins it to sat");
}

#[test]
fn sta_bench_prints_the_tables_and_writes_a_bench_file() {
    let dir = std::env::temp_dir().join(format!("sta-paper-suites-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (suite, heading, jobs) in [("table4", "## Table IV", 5), ("ablation", "## Ablation 2", 7)] {
        let path = dir.join(format!("BENCH_{suite}.json"));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_sta"))
            .args(["bench", "--suite", suite, "--reps", "1", "--out", path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{suite}: {stdout}");
        assert!(stdout.contains(heading), "{suite}: {stdout}");
        let text = std::fs::read_to_string(&path).unwrap();
        let result = sta::campaign::bench::parse_result(&text).expect("schema-valid");
        assert_eq!((result.suite.as_str(), result.jobs.len()), (suite, jobs));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
