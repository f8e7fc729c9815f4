//! The paper's §V evaluation as pinned `sta bench` suites.
//!
//! Four suites regenerate it: `fig4` (verification-model scaling,
//! Fig. 4(a)–(d)), `fig5` (synthesis scaling, Fig. 5(a)–(d)), `table4`
//! (solver memory, Table IV) and `ablation` (this reproduction's design
//! choices, not in the paper). A suite is a fixed list of [`Panel`]s,
//! one per figure panel or table: a campaign, the verdicts the paper's
//! set-up pins on some of its jobs, and the table it prints. [`run`]
//! folds repeated runs into per-job medians exactly as
//! [`run_suite`](crate::bench::run_suite) does, so a suite writes an
//! ordinary `sta-bench/v1` file, and a job whose verdict differs from
//! its pin is an error, not a panic.
//!
//! Absolute times differ from the paper's Core i5 and Z3; the
//! reproduced object is the shape of each curve (`EXPERIMENTS.md`).
//! Serial per-job walls are what the figures plot, so the suites are
//! meant to run on one worker, the `sta bench` default.

use crate::bench::{
    fold, merge_latency, run_reps, timed, BenchEnv, BenchResult, JobMeasurement, Latency, SCHEMA,
};
use crate::report::{CampaignReport, Verdict};
use crate::spec::{CampaignSpec, JobKind, JobSpec};
use sta_core::attack::{AttackModel, StateTarget};
use sta_core::baselines;
use sta_core::synthesis::{selection_model, BlockingStrategy, SynthesisConfig, Synthesizer};
use sta_grid::{ieee14, synthetic, BusId, TestSystem};
use sta_smt::{Align, Clock, Table};

/// Names of the paper-evaluation suites.
pub const SUITES: [&str; 4] = ["fig4", "fig5", "table4", "ablation"];

/// The IEEE case sizes of the paper's evaluation.
pub const SIZES: [usize; 5] = [14, 30, 57, 118, 300];

/// Fig. 5(d)'s attackers on the 30-bus case: name, `T_CZ` as a
/// percentage of the potential measurements, and the feasibility
/// minimum `b*` of the operator's budget against it.
const FIG5D_ATTACKERS: [(&str, u32, usize); 2] = [("weaker", 20, 10), ("stronger", 30, 10)];

/// Returns the panels of a paper suite, or `None` for other names. As
/// with every bench suite, the job lists are part of the measurement
/// contract: editing one invalidates the existing baseline files.
pub fn suite(name: &str) -> Option<Vec<Panel>> {
    match name {
        "fig4" => Some(vec![
            fig4a(&SIZES),
            fig4b(&[30, 57], &[50, 60, 70, 80, 90, 100]),
            fig4c(&[14, 30], &[4, 8, 12, 16, 20, 24]),
            fig4d(&SIZES),
        ]),
        "fig5" => Some(vec![
            fig5a(&[14, 30]),
            fig5b(&[14, 30], &[70, 80, 90, 100]),
            fig5c(&[14, 30], &[10, 15, 20, 30, 40]),
            fig5d(),
        ]),
        "table4" => Some(vec![table4(&SIZES)]),
        "ablation" => Some(vec![ablation_strategies(), ablation_defenses()]),
        _ => None,
    }
}

/// What a panel's table shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// Each job's median wall fills the cell its row and column name;
    /// `avg` appends each row's mean.
    Walls { avg: bool },
    /// One row per synthesis job: median wall, CEGIS rounds, verdict.
    Rounds,
    /// Table IV: the verification model's estimated memory (the job's
    /// own solver) beside the candidate-selection model's.
    Memory,
    /// One row per defense: units secured, their granularity, wall.
    Defenses,
}

/// A defense of the ablation's head-to-head comparison. None of them
/// is a campaign job kind, so each is timed outside the pool.
#[derive(Debug, Clone, Copy)]
enum Defense {
    /// Bobba et al.'s basic measurement set.
    Bobba,
    /// Kim and Poor's greedy bus protection.
    KimPoor,
    /// Bus-granular synthesis under this budget.
    Buses(usize),
    /// Measurement-granular synthesis under this budget.
    Measurements(usize),
}

impl Defense {
    /// Defends `sys` against the unconstrained attacker. Returns how
    /// many units it secures, or `None` when it finds no defense.
    fn run(self, sys: &TestSystem) -> Option<usize> {
        let attacker = AttackModel::new(sys.grid.num_buses());
        match self {
            Defense::Bobba => baselines::bobba_protection(sys).map(|set| set.len()),
            Defense::KimPoor => baselines::kim_poor_greedy(sys, &attacker)
                .ok()
                .flatten()
                .map(|greedy| greedy.secured_buses.len()),
            Defense::Buses(budget) => Synthesizer::new(sys)
                .ok()?
                .synthesize(&attacker, &SynthesisConfig::with_budget(budget))
                .architecture()
                .map(|arch| arch.secured_buses.len()),
            Defense::Measurements(budget) => Synthesizer::new(sys)
                .ok()?
                .synthesize_measurements(&attacker, budget)
                .ok()
                .map(|(set, _)| set.len()),
        }
    }

    /// The unit the defense secures.
    fn unit(self) -> &'static str {
        match self {
            Defense::Bobba | Defense::Measurements(_) => "measurements",
            Defense::KimPoor | Defense::Buses(_) => "buses",
        }
    }
}

/// One figure panel or table of a paper suite.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Table heading.
    title: &'static str,
    /// The campaign. The defense comparison keeps only its case here.
    pub spec: CampaignSpec,
    /// Label prefix that keeps job labels unique within a suite.
    tag: &'static str,
    /// Heading of the table's first column.
    rows: &'static str,
    layout: Layout,
    /// Jobs timed outside the pool, after the campaign's, with the
    /// index of the case they defend.
    defenses: Vec<(Defense, usize)>,
    /// Per job (campaign jobs, then defenses): its row and column.
    cells: Vec<(String, String)>,
    /// Per job: the verdict the paper's set-up pins, if any.
    pins: Vec<Option<Verdict>>,
}

impl Panel {
    fn new(tag: &'static str, title: &'static str, rows: &'static str, layout: Layout) -> Self {
        Panel {
            title,
            spec: CampaignSpec::new(format!("paper-{tag}")),
            tag,
            rows,
            layout,
            defenses: Vec::new(),
            cells: Vec::new(),
            pins: Vec::new(),
        }
    }

    fn label(&self, (row, col): &(String, String)) -> String {
        if col.is_empty() {
            format!("{} {row}", self.tag)
        } else {
            format!("{} {row} {col}", self.tag)
        }
    }

    /// The panel's job labels, in job order.
    pub fn labels(&self) -> Vec<String> {
        self.cells.iter().map(|cell| self.label(cell)).collect()
    }

    fn add(&mut self, case: usize, row: String, col: &str, kind: JobKind, pin: Option<Verdict>) {
        let cell = (row, col.to_string());
        self.spec.jobs.push(JobSpec { label: self.label(&cell), case, kind, timeout_ms: None });
        self.cells.push(cell);
        self.pins.push(pin);
    }

    fn defend(&mut self, case: usize, row: &str, defense: Defense) {
        self.defenses.push((defense, case));
        self.cells.push((row.to_string(), String::new()));
        self.pins.push(Some(Verdict::Architecture));
    }
}

/// One run of a paper suite.
#[derive(Debug, Clone)]
pub struct PaperRun {
    /// The `sta-bench/v1` trajectory point: every panel's jobs, numbered
    /// in suite order.
    pub result: BenchResult,
    /// Each panel's first campaign run (witnesses, architectures, solver
    /// counters), in panel order.
    pub reports: Vec<CampaignReport>,
    /// The panels' tables, rendered.
    pub tables: String,
}

/// Runs `panels` as suite `name`: each campaign `reps` times on
/// `workers` threads and each defense `reps` times, folded to medians.
///
/// # Errors
/// Names every pinned job whose verdict differs from its pin, one per
/// line.
pub fn run(name: &str, panels: &[Panel], reps: usize, workers: usize) -> Result<PaperRun, String> {
    let reps = reps.max(1);
    let clock = Clock::monotonic();
    let mut jobs: Vec<JobMeasurement> = Vec::new();
    let mut latency = Latency::new();
    let mut reports = Vec::with_capacity(panels.len());
    let mut tables = String::new();
    let mut violations: Vec<String> = Vec::new();
    for panel in panels {
        let runs = run_reps(&panel.spec, reps, workers);
        let (mut measured, panel_latency) = fold(&runs);
        merge_latency(&mut latency, panel_latency);
        let mut units = Vec::with_capacity(panel.defenses.len());
        for (&(defense, case), label) in
            panel.defenses.iter().zip(panel.labels().into_iter().skip(panel.spec.jobs.len()))
        {
            let spec_case = &panel.spec.cases[case];
            let mut secured = None;
            let (verdict, wall_us) = timed(&clock, reps, || {
                secured = defense.run(&spec_case.system);
                let verdict = secured.map_or(Verdict::NoSolution, |_| Verdict::Architecture);
                Ok(verdict.token().to_string())
            })?;
            units.push(secured);
            measured.push(JobMeasurement {
                id: 0, // renumbered below
                label,
                case: spec_case.name.clone(),
                verdict,
                wall_us,
                encode_us: 0,
                search_us: 0,
            });
        }
        for (job, pin) in measured.iter().zip(&panel.pins) {
            if let Some(pin) = pin.filter(|pin| pin.token() != job.verdict) {
                violations.push(format!(
                    "{name}: job {:?} is {}, but the paper's set-up pins it to {pin}",
                    job.label, job.verdict
                ));
            }
        }
        let report = runs.into_iter().next();
        tables.push_str(&format!("\n## {}\n", panel.title));
        tables.push_str(&render(panel, &measured, report.as_ref(), &units).render());
        reports.extend(report);
        jobs.extend(measured);
    }
    if !violations.is_empty() {
        return Err(violations.join("\n"));
    }
    for (id, job) in jobs.iter_mut().enumerate() {
        job.id = id as u64;
    }
    Ok(PaperRun {
        result: BenchResult {
            schema: SCHEMA.to_string(),
            suite: name.to_string(),
            reps: reps as u64,
            workers: workers.max(1) as u64,
            env: BenchEnv::capture(),
            jobs,
            latency,
        },
        reports,
        tables,
    })
}

/// Formats a median wall in milliseconds.
fn ms(wall_us: u64) -> String {
    format!("{:.3}", wall_us as f64 / 1e3)
}

/// Lays out one panel's measured jobs as its table.
fn render(
    panel: &Panel,
    measured: &[JobMeasurement],
    report: Option<&CampaignReport>,
    units: &[Option<usize>],
) -> Table {
    let table = |columns: &[(&str, Align)]| {
        let mut spec = vec![(panel.rows, Align::Left)];
        spec.extend_from_slice(columns);
        Table::new(&spec)
    };
    let result = |id: usize| report.and_then(|r| r.results.get(id));
    match panel.layout {
        Layout::Walls { avg } => {
            let mut rows: Vec<&str> = Vec::new();
            let mut cols: Vec<&str> = Vec::new();
            for (row, col) in &panel.cells {
                if !rows.contains(&row.as_str()) {
                    rows.push(row);
                }
                if !cols.contains(&col.as_str()) {
                    cols.push(col);
                }
            }
            let mut headers: Vec<String> = cols.iter().map(|c| format!("{c} (ms)")).collect();
            if avg {
                headers.push("avg (ms)".to_string());
            }
            let mut out =
                table(&headers.iter().map(|h| (h.as_str(), Align::Right)).collect::<Vec<_>>());
            for row in rows {
                let walls: Vec<Option<u64>> = cols
                    .iter()
                    .map(|col| {
                        let id = panel.cells.iter().position(|(r, c)| r == row && c == col)?;
                        measured.get(id).map(|job| job.wall_us)
                    })
                    .collect();
                let mut cells = vec![row.to_string()];
                cells.extend(walls.iter().map(|w| w.map_or("-".to_string(), ms)));
                let present: Vec<u64> = walls.iter().flatten().copied().collect();
                if avg && !present.is_empty() {
                    cells.push(ms(present.iter().sum::<u64>() / present.len() as u64));
                }
                out.row(&cells);
            }
            out
        }
        Layout::Rounds => {
            let mut out = table(&[
                ("wall (ms)", Align::Right),
                ("iterations", Align::Right),
                ("verdict", Align::Left),
            ]);
            for (id, job) in measured.iter().enumerate() {
                let rounds = result(id).and_then(|r| r.iterations);
                out.row(&[
                    panel.cells[id].0.clone(),
                    ms(job.wall_us),
                    rounds.map_or("-".to_string(), |n| n.to_string()),
                    job.verdict.clone(),
                ]);
            }
            out
        }
        Layout::Memory => {
            let mut out =
                table(&[("verification (MB)", Align::Right), ("selection (MB)", Align::Right)]);
            for (id, (row, _)) in panel.cells.iter().enumerate() {
                let stats = result(id).and_then(|r| r.stats.as_ref());
                let verification = stats.map(|s| s.estimated_mb());
                let selection = panel
                    .spec
                    .jobs
                    .get(id)
                    .map(|job| selection_model_mb(&panel.spec.cases[job.case].system));
                let mb = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
                out.row(&[row.clone(), mb(verification), mb(selection)]);
            }
            out
        }
        Layout::Defenses => {
            let mut out = table(&[
                ("units secured", Align::Right),
                ("unit", Align::Left),
                ("wall (ms)", Align::Right),
            ]);
            let first = panel.spec.jobs.len();
            for (i, &(defense, _)) in panel.defenses.iter().enumerate() {
                let secured = units.get(i).copied().flatten();
                out.row(&[
                    panel.cells[first + i].0.clone(),
                    secured.map_or("-".to_string(), |n| n.to_string()),
                    defense.unit().to_string(),
                    measured.get(first + i).map_or("-".to_string(), |job| ms(job.wall_us)),
                ]);
            }
            out
        }
    }
}

/// Table IV's candidate-selection model for `sys`: the estimated memory,
/// in MB, of one checked [`selection_model`] at the paper-scale budget
/// `T_SB = 6` (the §IV-E ceiling). The cardinality encoding grows with
/// `b·T_SB`, and the paper sizes its selection model at fixed small
/// operator budgets.
pub fn selection_model_mb(sys: &TestSystem) -> f64 {
    let (mut solver, _) = selection_model(sys, &SynthesisConfig::with_budget(6));
    let _ = solver.check();
    solver.last_stats().map_or(0.0, |s| s.estimated_mb())
}

/// Three single-state attack targets per case size: the paper runs
/// three experiments per case (Fig. 4(a)). The middle one is the target
/// of every other single-target panel.
fn targets(b: usize) -> [usize; 3] {
    [b / 4, b / 2, (3 * b) / 4]
}

/// A satisfiable single-target verification scenario.
fn sat_scenario(b: usize, target: usize) -> AttackModel {
    AttackModel::new(b).target(BusId(target), StateTarget::MustChange)
}

/// The IEEE-size case with `pct` percent of its measurements taken.
fn taken(b: usize, pct: u32) -> TestSystem {
    let mut sys = synthetic::ieee_case(b);
    sys.measurements = sys.measurements.with_taken_fraction(f64::from(pct) / 100.0);
    sys
}

/// The Fig. 5 synthesis attacker: `T_CZ` capped at `pct` percent of
/// the potential measurements.
fn synthesis_attacker(sys: &TestSystem, pct: u32) -> AttackModel {
    let m = sys.grid.num_potential_measurements() as f64;
    AttackModel::new(sys.grid.num_buses())
        .max_altered_measurements((m * (f64::from(pct) / 100.0)).round() as usize)
}

/// A Fig. 5(a)–(c) synthesis job on `sys`: the attacker of
/// [`synthesis_attacker`] against an operator budget of a third of the
/// buses, and at least 4.
fn synthesis_job(sys: &TestSystem, pct: u32) -> JobKind {
    JobKind::Synthesize {
        attacker: synthesis_attacker(sys, pct),
        config: SynthesisConfig::with_budget((sys.grid.num_buses() / 3).max(4)),
    }
}

/// Fig. 4(a): verification time vs bus count, three sat targets each.
pub fn fig4a(sizes: &[usize]) -> Panel {
    let mut p = Panel::new(
        "4a",
        "Fig 4(a): verification time vs number of buses (3 targets each)",
        "case",
        Layout::Walls { avg: true },
    );
    for &b in sizes {
        let case = p.spec.add_case(format!("ieee{b}"), synthetic::ieee_case(b));
        for (k, t) in targets(b).into_iter().enumerate() {
            let model = JobKind::Verify(sat_scenario(b, t));
            p.add(case, format!("{b}-bus"), &format!("exp{}", k + 1), model, Some(Verdict::Sat));
        }
    }
    p
}

/// Fig. 4(b): verification time vs percentage of taken measurements.
fn fig4b(sizes: &[usize], percents: &[u32]) -> Panel {
    let mut p = Panel::new(
        "4b",
        "Fig 4(b): verification time vs % of taken measurements",
        "taken",
        Layout::Walls { avg: false },
    );
    for &pct in percents {
        for &b in sizes {
            let case = p.spec.add_case(format!("ieee{b}@{pct}%"), taken(b, pct));
            let model = JobKind::Verify(sat_scenario(b, targets(b)[1]));
            p.add(case, format!("{pct}%"), &format!("{b}-bus"), model, None);
        }
    }
    p
}

/// Fig. 4(c): verification time vs the attacker's resource limit `T_CZ`.
fn fig4c(sizes: &[usize], limits: &[usize]) -> Panel {
    let mut p = Panel::new(
        "4c",
        "Fig 4(c): verification time vs attacker resource limit T_CZ",
        "limit",
        Layout::Walls { avg: false },
    );
    let cases: Vec<usize> = sizes
        .iter()
        .map(|&b| p.spec.add_case(format!("ieee{b}"), synthetic::ieee_case(b)))
        .collect();
    for &t_cz in limits {
        for (&b, &case) in sizes.iter().zip(&cases) {
            let model = sat_scenario(b, targets(b)[1]).max_altered_measurements(t_cz);
            p.add(case, format!("T_CZ={t_cz}"), &format!("{b}-bus"), JobKind::Verify(model), None);
        }
    }
    p
}

/// Fig. 4(d): sat vs unsat verification time. The unsat twin allows a
/// single altered measurement, which is never stealthy on a redundantly
/// metered grid.
pub fn fig4d(sizes: &[usize]) -> Panel {
    let mut p = Panel::new(
        "4d",
        "Fig 4(d): satisfiable vs unsatisfiable verification time",
        "case",
        Layout::Walls { avg: false },
    );
    for &b in sizes {
        let case = p.spec.add_case(format!("ieee{b}"), synthetic::ieee_case(b));
        let sat = sat_scenario(b, targets(b)[1]);
        let unsat = sat.clone().max_altered_measurements(1);
        p.add(case, format!("{b}-bus"), "sat", JobKind::Verify(sat), Some(Verdict::Sat));
        p.add(case, format!("{b}-bus"), "unsat", JobKind::Verify(unsat), Some(Verdict::Unsat));
    }
    p
}

/// Fig. 5(a): synthesis time vs bus count, at 90% and 100% taken.
fn fig5a(sizes: &[usize]) -> Panel {
    let mut p = Panel::new(
        "5a",
        "Fig 5(a): synthesis time vs number of buses (90% / 100% taken)",
        "case",
        Layout::Walls { avg: false },
    );
    for &b in sizes {
        for pct in [90, 100] {
            let sys = taken(b, pct);
            let job = synthesis_job(&sys, 15);
            let case = p.spec.add_case(format!("ieee{b}@{pct}%"), sys);
            let col = format!("{pct}% taken");
            p.add(case, format!("{b}-bus"), &col, job, Some(Verdict::Architecture));
        }
    }
    p
}

/// Fig. 5(b): synthesis time vs percentage of taken measurements.
fn fig5b(sizes: &[usize], percents: &[u32]) -> Panel {
    let mut p = Panel::new(
        "5b",
        "Fig 5(b): synthesis time vs % of taken measurements",
        "taken",
        Layout::Walls { avg: false },
    );
    for &pct in percents {
        for &b in sizes {
            let sys = taken(b, pct);
            let job = synthesis_job(&sys, 15);
            let case = p.spec.add_case(format!("ieee{b}@{pct}%"), sys);
            p.add(case, format!("{pct}%"), &format!("{b}-bus"), job, None);
        }
    }
    p
}

/// Fig. 5(c): synthesis time vs the attacker's resource limit, as a
/// percentage of the potential measurements.
fn fig5c(sizes: &[usize], percents: &[u32]) -> Panel {
    let mut p = Panel::new(
        "5c",
        "Fig 5(c): synthesis time vs attacker resource limit (% of measurements)",
        "limit",
        Layout::Walls { avg: false },
    );
    let cases: Vec<usize> = sizes
        .iter()
        .map(|&b| p.spec.add_case(format!("ieee{b}"), synthetic::ieee_case(b)))
        .collect();
    for &pct in percents {
        for (&b, &case) in sizes.iter().zip(&cases) {
            let job = synthesis_job(&p.spec.cases[case].system, pct);
            p.add(case, format!("{pct}%"), &format!("{b}-bus"), job, None);
        }
    }
    p
}

/// Fig. 5(d): synthesis time vs operator budget on the 30-bus case, for
/// two attacker strengths, each at its feasibility minimum `b*` and at
/// the two budgets below it, where synthesis must exhaust the
/// candidate space to prove that no architecture exists.
fn fig5d() -> Panel {
    let mut p = Panel::new(
        "5d",
        "Fig 5(d): synthesis time vs operator budget at and below b* (30-bus)",
        "attacker",
        Layout::Rounds,
    );
    let case = p.spec.add_case("ieee30", synthetic::ieee_case(30));
    for (name, pct, b_star) in FIG5D_ATTACKERS {
        let attacker = synthesis_attacker(&p.spec.cases[case].system, pct);
        for budget in [b_star, b_star - 1, b_star - 2] {
            let job = JobKind::Synthesize {
                attacker: attacker.clone(),
                config: SynthesisConfig::with_budget(budget),
            };
            let pin = if budget == b_star { Verdict::Architecture } else { Verdict::NoSolution };
            p.add(case, format!("{name} b*={b_star} budget={budget}"), "", job, Some(pin));
        }
    }
    p
}

/// Table IV: estimated solver memory of the verification model (the
/// middle sat target of Fig. 4(a)) and of the candidate-selection model,
/// per case size.
pub fn table4(sizes: &[usize]) -> Panel {
    let mut p = Panel::new("table4", "Table IV: solver memory (MB)", "case", Layout::Memory);
    for &b in sizes {
        let case = p.spec.add_case(format!("ieee{b}"), synthetic::ieee_case(b));
        let model = JobKind::Verify(sat_scenario(b, targets(b)[1]));
        p.add(case, format!("{b}-bus"), "", model, None);
    }
    p
}

/// Ablation 1: the synthesis refinement strategy, at budget 5 with the
/// reference bus secured, against the unconstrained attacker on the
/// unsecured 14-bus case (§IV-E scenario 2).
fn ablation_strategies() -> Panel {
    let mut p = Panel::new(
        "strategy",
        "Ablation 1: synthesis refinement strategy (14-bus, scenario 2, budget 5)",
        "strategy",
        Layout::Rounds,
    );
    let case = p.spec.add_case("ieee14-unsecured", ieee14::system_unsecured());
    let variants = [
        ("candidate-only (paper Algorithm 1)", BlockingStrategy::CandidateOnly, 1),
        ("hitting, no batching", BlockingStrategy::CounterexampleHitting, 1),
        ("hitting, 4 chained (default)", BlockingStrategy::CounterexampleHitting, 4),
    ];
    for (name, blocking, batch) in variants {
        let mut config = SynthesisConfig::with_budget(5).with_reference_secured();
        config.blocking = blocking;
        config.counterexamples_per_round = batch;
        let job = JobKind::Synthesize { attacker: AttackModel::new(14), config };
        p.add(case, name.to_string(), "", job, Some(Verdict::Architecture));
    }
    p
}

/// Ablation 2: defenses head to head against the unconstrained attacker
/// on the unsecured 14-bus case. Bobba et al.'s basic measurement set is
/// minimal at measurement granularity; bus-level synthesis trades a
/// coarser unit for far fewer sites to harden.
fn ablation_defenses() -> Panel {
    let mut p = Panel::new(
        "defense",
        "Ablation 2: defenses against the unconstrained attacker (unsecured 14-bus)",
        "defense",
        Layout::Defenses,
    );
    let case = p.spec.add_case("ieee14-unsecured", ieee14::system_unsecured());
    p.defend(case, "Bobba basic-measurement set", Defense::Bobba);
    p.defend(case, "Kim-Poor greedy", Defense::KimPoor);
    p.defend(case, "synthesis, budget 5", Defense::Buses(5));
    p.defend(case, "synthesis, measurements, budget 13", Defense::Measurements(13));
    p
}
