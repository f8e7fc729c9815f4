//! The UFDI attack verification model: paper §III encoded into SMT.
//!
//! # Encoding
//!
//! Real variables: the state-estimate changes `Δθ_j` (reference pinned to
//! zero), the per-line *measured flow change* `ΔPL_i`, and the per-bus
//! *measured consumption change* `ΔPB_j`. Boolean variables: `cz_i`
//! (measurement `i` must be altered), `cb_j` (substation `j` must be
//! compromised), and — when topology poisoning is enabled — `el_i`/`il_i`
//! (line exclusion/inclusion).
//!
//! Per line (reconstructing Eqs. 6–13 around the base operating point
//! `θ̄`/`P̄`):
//!
//! * mapped, in true topology (`tl ∧ ¬el`): `ΔPL_i = ld_i(Δθ_lf − Δθ_lt)`;
//! * excluded (`el`): the meter must read zero, `ΔPL_i = −P̄_i` — and the
//!   angle difference across the line is *unconstrained*, which is exactly
//!   how topology errors strengthen UFDI attacks;
//! * included (`il`): the meter must show the flow the fake model implies,
//!   `ΔPL_i = ld_i(θ̄_lf − θ̄_lt) + ld_i(Δθ_lf − Δθ_lt)`;
//! * open and not included: `ΔPL_i = 0`.
//!
//! Consumption (Eq. 14): `ΔPB_j = Σ_{i∈in(j)} ΔPL_i − Σ_{i∈out(j)} ΔPL_i`.
//! Alteration linking (Eqs. 15–16): for a taken meter,
//! `cz ↔ (its delta ≠ 0)`; untaken meters are never altered. Knowledge
//! (Eq. 17): `¬bd_i → ¬cz_i ∧ ¬cz_{l+i}`, plus `il_i → bd_i` (computing an
//! included line's fake flow needs its admittance; an exclusion's zeroing
//! is already gated through its `cz`s). Accessibility/security (Eq. 19),
//! resource cardinalities (Eqs. 22/24), and the attack goal (Eqs. 25/26)
//! complete the model.
//!
//! # Base/scenario split
//!
//! The encoding is built in two stages so that sweeps can reuse work:
//! [`AttackVerifier::encode_base`] asserts everything that depends only on
//! the test system (line semantics, alteration linking, system-level
//! protection, the `cz → cb` chain), and `assert_scenario` layers the
//! scenario-specific attributes (knowledge, budgets, goals, extra
//! protection) on top. [`crate::attack::VerifySession`] combines the two
//! with the solver's push/pop scopes so a whole campaign of variants pays
//! for the base exactly once.

use crate::attack::model::{AttackModel, StateTarget};
use crate::attack::vector::{Alteration, AttackOutcome, AttackVector, VerificationReport};
use crate::decimal;
use sta_estimator::{dcflow, PowerFlowError};
use sta_grid::{BusId, LineId, MeasurementConfig, MeasurementId, TestSystem};
use sta_smt::{
    BoolVar, Budget, CertifyLevel, Formula, LinExpr, LinExprCmp, Model, Profiler, RealVar,
    Rational, SatResult, SimplexMode, Solver,
};
use std::sync::Arc;
use std::time::Duration;

/// The variable layout of one base encoding, produced by
/// [`AttackVerifier::encode_base`] and consumed when asserting scenarios
/// and extracting witnesses.
#[derive(Debug, Clone)]
pub(crate) struct AttackEncoding {
    /// `Δθ_j` per bus.
    pub(crate) dtheta: Vec<RealVar>,
    /// `cz_i` per potential measurement (`2l + b` of them).
    pub(crate) cz: Vec<BoolVar>,
    /// `cb_j` per bus.
    pub(crate) cb: Vec<BoolVar>,
    /// `el_i` for excludable lines (when built with topology support).
    pub(crate) el: Vec<Option<BoolVar>>,
    /// `il_i` for includable lines (when built with topology support).
    pub(crate) il: Vec<Option<BoolVar>>,
    /// Inlined `ΔPL_i` forms (a plain linear form for ordinary lines, a
    /// constrained real variable for topology-attackable ones).
    pub(crate) dpl_expr: Vec<LinExpr>,
    /// Inlined `ΔPB_j` forms.
    pub(crate) dpb_expr: Vec<LinExpr>,
    /// Whether the base was built with topology-attack variables.
    pub(crate) topology: bool,
}

/// Verifies UFDI attack feasibility against one test system.
///
/// # Examples
///
/// ```
/// use sta_core::attack::{AttackModel, AttackVerifier, StateTarget};
/// use sta_grid::{ieee14, BusId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = ieee14::system();
/// let verifier = AttackVerifier::new(&sys)?;
/// let model = AttackModel::new(14).target(BusId(11), StateTarget::MustChange);
/// assert!(verifier.verify(&model).is_feasible());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AttackVerifier {
    /// The case under verification, shared so verifiers (and the
    /// [`crate::attack::VerifySession`]s built on them) own their data
    /// and can outlive the call stack that created them — the service
    /// layer caches live sessions across requests.
    system: Arc<TestSystem>,
    /// Base operating-point angles, exact; the anchor for topology
    /// attacks.
    base_theta: Vec<Rational>,
    /// Certification level applied to every solver check (the stricter of
    /// this and the scenario's own [`AttackModel::certify`]).
    certify: CertifyLevel,
    /// Span profiler handed to every solver this verifier builds; each
    /// check records a `verify` span over the solver's phase tree.
    profiler: Option<Profiler>,
    /// Whether solver checks sample progress timelines into their stats.
    progress: bool,
    /// Simplex engine selection applied to every solver this verifier
    /// builds (see [`sta_smt::SimplexMode`]).
    simplex: SimplexMode,
}

impl AttackVerifier {
    /// Creates a verifier with a deterministic synthetic base operating
    /// point (seed 0, see [`AttackVerifier::default_operating_point`]) —
    /// the paper's testbed operating points are not published; see
    /// `DESIGN.md` §5. The system is cloned into shared ownership;
    /// callers that already hold an `Arc` should use
    /// [`AttackVerifier::shared`] to avoid the copy.
    ///
    /// # Errors
    /// Returns a [`PowerFlowError`] when the system's in-service topology
    /// admits no operating point to anchor on (an islanded grid).
    pub fn new(system: &TestSystem) -> Result<Self, PowerFlowError> {
        let op = Self::default_operating_point(system)?;
        Ok(Self::with_operating_point(system, &op))
    }

    /// Creates a verifier over an already-shared system with the default
    /// deterministic operating point (seed 0).
    ///
    /// # Errors
    /// As [`AttackVerifier::new`].
    pub fn shared(system: Arc<TestSystem>) -> Result<Self, PowerFlowError> {
        let op = Self::default_operating_point(&system)?;
        Ok(Self::shared_with_operating_point(system, &op))
    }

    /// The base operating point [`AttackVerifier::new`] anchors on: the
    /// DC power flow of seed-0 synthetic injections over the system's
    /// own topology.
    ///
    /// # Errors
    /// Returns a [`PowerFlowError`] naming the island count when the
    /// in-service lines do not connect every bus.
    pub fn default_operating_point(
        system: &TestSystem,
    ) -> Result<dcflow::OperatingPoint, PowerFlowError> {
        let injections = dcflow::synthetic_injections(system.grid.num_buses(), 0);
        dcflow::solve(&system.grid, &system.topology, &injections, system.reference_bus)
    }

    /// Creates a verifier anchored at a specific operating point. The
    /// system is cloned into shared ownership (see
    /// [`AttackVerifier::shared_with_operating_point`]).
    pub fn with_operating_point(
        system: &TestSystem,
        op: &dcflow::OperatingPoint,
    ) -> Self {
        Self::shared_with_operating_point(Arc::new(system.clone()), op)
    }

    /// Creates a verifier over an already-shared system, anchored at a
    /// specific operating point.
    pub fn shared_with_operating_point(
        system: Arc<TestSystem>,
        op: &dcflow::OperatingPoint,
    ) -> Self {
        let base_theta = op
            .theta
            .iter()
            .map(|&t| decimal::angle(t))
            .collect();
        AttackVerifier {
            system,
            base_theta,
            certify: CertifyLevel::Off,
            profiler: None,
            progress: false,
            simplex: SimplexMode::Auto,
        }
    }

    /// Sets the certification level for every subsequent check.
    ///
    /// Certification failures are solver bugs and abort with a
    /// reproducible dump of the asserted formulas (see
    /// [`sta_smt::Solver::check`]).
    pub fn with_certify(mut self, level: CertifyLevel) -> Self {
        self.certify = level;
        self
    }

    /// The configured certification level.
    pub fn certify_level(&self) -> CertifyLevel {
        self.certify
    }

    /// Attaches a span profiler: every subsequent check records a
    /// `verify` span wrapping the solver's `encode`/`search`/`certify`
    /// tree (see [`sta_smt::Profiler`]).
    pub fn with_profiler(mut self, profiler: Profiler) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// In-place form of [`AttackVerifier::with_profiler`] for verifiers
    /// owned by a session.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = Some(profiler);
    }

    /// The attached profiler, if any.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_ref()
    }

    /// In-place form of [`AttackVerifier::with_progress_sampling`].
    pub fn set_progress_sampling(&mut self, on: bool) {
        self.progress = on;
    }

    /// Enables progress-timeline sampling on every solver this verifier
    /// builds (see [`sta_smt::Solver::set_progress_sampling`]).
    pub fn with_progress_sampling(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    /// Whether progress sampling is enabled.
    pub fn progress_sampling(&self) -> bool {
        self.progress
    }

    /// Selects the simplex engine for every solver this verifier builds:
    /// `Auto` (the default) upgrades from the dense tableau to the
    /// revised/factorized engine on large systems, `Dense`/`Revised` pin
    /// one backend. Verdicts, models and deterministic counters are
    /// identical across modes (see [`sta_smt::Solver::set_simplex_mode`]).
    pub fn with_simplex(mut self, mode: SimplexMode) -> Self {
        self.simplex = mode;
        self
    }

    /// In-place form of [`AttackVerifier::with_simplex`] for verifiers
    /// owned by a session.
    pub fn set_simplex_mode(&mut self, mode: SimplexMode) {
        self.simplex = mode;
    }

    /// The configured simplex engine mode.
    pub fn simplex_mode(&self) -> SimplexMode {
        self.simplex
    }

    /// Applies this verifier's observability configuration (profiler,
    /// clock, progress sampling) and engine selection to a solver it is
    /// about to drive.
    pub(crate) fn configure_solver(&self, solver: &mut Solver) {
        if let Some(p) = &self.profiler {
            solver.set_profiler(p.clone());
        }
        solver.set_progress_sampling(self.progress);
        solver.set_simplex_mode(self.simplex);
    }

    /// The system under verification.
    pub fn system(&self) -> &TestSystem {
        &self.system
    }

    /// The shared handle to the system under verification (cheap to
    /// clone into other verifiers or sessions over the same case).
    pub fn system_arc(&self) -> &Arc<TestSystem> {
        &self.system
    }

    /// The exact base angles the topology constraints are anchored to.
    pub fn base_theta(&self) -> &[Rational] {
        &self.base_theta
    }

    /// The exact base flow of `line` implied by the anchored angles.
    pub fn base_flow(&self, line: LineId) -> Rational {
        let l = self.system.grid.line(line);
        if !self.system.topology.is_in_service(line) {
            return Rational::zero();
        }
        let y = decimal::admittance(l.admittance);
        &y * &(&self.base_theta[l.from.0] - &self.base_theta[l.to.0])
    }

    /// The *potential* flow `ld_i(θ̄_lf − θ̄_lt)` an included line would
    /// show (nonzero even though the line is open).
    pub fn potential_flow(&self, line: LineId) -> Rational {
        let l = self.system.grid.line(line);
        let y = decimal::admittance(l.admittance);
        &y * &(&self.base_theta[l.from.0] - &self.base_theta[l.to.0])
    }

    /// Checks feasibility of `model`, returning the outcome only.
    pub fn verify(&self, model: &AttackModel) -> AttackOutcome {
        self.verify_with_stats(model).outcome
    }

    /// Enumerates up to `limit` attacks with pairwise distinct
    /// altered-measurement sets (the analytics counterpart of the paper's
    /// remark that the synthesis "can synthesize all of these sets").
    ///
    /// Stops early if a check runs out of budget — the vectors found so
    /// far are still valid.
    pub fn enumerate(&self, model: &AttackModel, limit: usize) -> Vec<AttackVector> {
        let mut found = Vec::new();
        let mut working = model.clone();
        while found.len() < limit {
            match self.verify(&working) {
                AttackOutcome::Feasible(v) => {
                    working.blocked_alteration_sets.push(
                        v.alterations.iter().map(|a| a.measurement).collect(),
                    );
                    found.push(*v);
                }
                AttackOutcome::Infeasible | AttackOutcome::Unknown(_) => break,
            }
        }
        found
    }

    /// Checks feasibility and returns solver statistics alongside,
    /// honoring the scenario's own [`AttackModel::timeout_ms`].
    ///
    /// # Panics
    /// Panics if `model.targets.len()` does not match the system's bus
    /// count, or a knowledge vector has the wrong length.
    pub fn verify_with_stats(&self, model: &AttackModel) -> VerificationReport {
        let budget = match model.timeout_ms {
            Some(ms) => Budget::with_timeout(Duration::from_millis(ms)),
            None => Budget::unlimited(),
        };
        self.verify_with_budget(model, &budget)
    }

    /// Checks feasibility under an explicit wall-clock/cancellation
    /// budget. An exhausted budget yields
    /// [`AttackOutcome::Unknown`] — the scenario is *undecided*, not
    /// infeasible. The budget covers *every* solver phase, including the
    /// Tseitin/cardinality encoding of the §III constraints: a large
    /// system whose CNF expansion alone exceeds the deadline still comes
    /// back `Unknown` on time. The returned report's stats carry the
    /// per-phase observability counters (see [`sta_smt::PhaseMetrics`]).
    ///
    /// # Panics
    /// Panics if `model.targets.len()` does not match the system's bus
    /// count, or a knowledge vector has the wrong length.
    pub fn verify_with_budget(
        &self,
        model: &AttackModel,
        budget: &Budget,
    ) -> VerificationReport {
        let _sp = self.profiler.as_ref().map(|p| p.span("verify"));
        let mut solver = Solver::new();
        solver.set_certify(self.certify.max(model.certify));
        self.configure_solver(&mut solver);
        let enc = self.encode_base(&mut solver, model.allow_topology_attack);
        self.assert_scenario(&mut solver, &enc, model);
        solver.set_budget(budget.clone());
        let result = solver.check();
        let stats = solver.last_stats().cloned().unwrap_or_default();
        let outcome = match result {
            SatResult::Unsat => AttackOutcome::Infeasible,
            SatResult::Unknown(why) => AttackOutcome::Unknown(why),
            SatResult::Sat(m) => {
                AttackOutcome::Feasible(Box::new(self.extract_vector(&enc, &m)))
            }
        };
        VerificationReport { outcome, stats }
    }

    /// Asserts every scenario-independent constraint into `solver` and
    /// returns the variable layout. With `topology` set, excludable and
    /// includable lines get their `el`/`il` variables (scenarios that
    /// disallow topology attacks then pin them false).
    pub(crate) fn encode_base(
        &self,
        solver: &mut Solver,
        topology: bool,
    ) -> AttackEncoding {
        let grid = &self.system.grid;
        let b = grid.num_buses();
        let l = grid.num_lines();

        let dtheta: Vec<RealVar> = (0..b).map(|_| solver.new_real()).collect();
        let cz: Vec<BoolVar> = (0..2 * l + b).map(|_| solver.new_bool()).collect();
        let cb: Vec<BoolVar> = (0..b).map(|_| solver.new_bool()).collect();
        // el/il only exist when topology attacks are possible for a line.
        let el: Vec<Option<BoolVar>> = (0..l)
            .map(|i| {
                (topology && self.system.excludable(LineId(i)))
                    .then(|| solver.new_bool())
            })
            .collect();
        let il: Vec<Option<BoolVar>> = (0..l)
            .map(|i| {
                (topology && self.system.includable(LineId(i)))
                    .then(|| solver.new_bool())
            })
            .collect();

        // Reference bus is the angle datum: Δθ_ref = 0.
        solver.assert_formula(
            &LinExpr::var(dtheta[self.system.reference_bus.0]).eq_expr(LinExpr::zero()),
        );

        // Per-line measured-flow-change semantics (Eqs. 6–13). `ΔPL_i` is
        // represented *symbolically*: for lines that cannot be the target
        // of a topology attack it is the literal linear form
        // `ld_i(Δθ_lf − Δθ_lt)` (or the constant 0 for open lines), inlined
        // everywhere it is used. Only topology-attackable lines get a real
        // variable plus conditional defining constraints. Keeping the
        // common case as a pure form — instead of an equality-constrained
        // variable per line and per bus — keeps the simplex tableau sparse:
        // eliminating the `2l + b` equality rows of the naive encoding
        // amounts to densely inverting the grid Laplacian, which dominated
        // solve time by orders of magnitude.
        let mut dpl_expr: Vec<LinExpr> = Vec::with_capacity(l);
        for i in 0..l {
            let line = grid.line(LineId(i));
            let y = decimal::admittance(line.admittance);
            let flow_expr = LinExpr::term(y.clone(), dtheta[line.from.0])
                + LinExpr::term(-&y, dtheta[line.to.0]);
            if self.system.topology.is_in_service(LineId(i)) {
                match el[i] {
                    Some(e) => {
                        let v = solver.new_real();
                        let dpl_var = LinExpr::var(v);
                        let zeroed = dpl_var.clone().eq_expr(LinExpr::constant(
                            -&self.base_flow(LineId(i)),
                        ));
                        let normal = dpl_var.clone().eq_expr(flow_expr);
                        solver.assert_formula(&Formula::var(e).implies(zeroed));
                        solver.assert_formula(&Formula::var(e).not().implies(normal));
                        dpl_expr.push(dpl_var);
                    }
                    None => dpl_expr.push(flow_expr),
                }
            } else {
                match il[i] {
                    Some(v_il) => {
                        let v = solver.new_real();
                        let dpl_var = LinExpr::var(v);
                        let shown = dpl_var.clone().eq_expr(
                            flow_expr
                                + LinExpr::constant(self.potential_flow(LineId(i))),
                        );
                        let silent = dpl_var.clone().eq_expr(LinExpr::zero());
                        solver.assert_formula(&Formula::var(v_il).implies(shown));
                        solver
                            .assert_formula(&Formula::var(v_il).not().implies(silent));
                        dpl_expr.push(dpl_var);
                    }
                    None => dpl_expr.push(LinExpr::zero()),
                }
            }
        }

        // Consumption changes (Eq. 14): ΔPB_j = Σ_in ΔPL − Σ_out ΔPL,
        // again as inlined forms.
        let dpb_expr: Vec<LinExpr> = (0..b)
            .map(|j| {
                let mut sum = LinExpr::zero();
                for (li, _) in grid.incoming(BusId(j)) {
                    sum = sum + dpl_expr[li.0].clone();
                }
                for (li, _) in grid.outgoing(BusId(j)) {
                    sum = sum - dpl_expr[li.0].clone();
                }
                sum
            })
            .collect();

        // Alteration linking (Eqs. 15–16): taken meter ⇒ cz ↔ delta ≠ 0.
        let taken = |m: usize| self.system.measurements.is_taken(MeasurementId(m));
        for i in 0..l {
            let nonzero = dpl_expr[i].clone().ne_expr(LinExpr::zero());
            for &m in &[i, l + i] {
                if taken(m) {
                    solver.assert_formula(&Formula::var(cz[m]).iff(nonzero.clone()));
                } else {
                    solver.assert_formula(&Formula::var(cz[m]).not());
                }
            }
        }
        for j in 0..b {
            let m = 2 * l + j;
            if taken(m) {
                let nonzero = dpb_expr[j].clone().ne_expr(LinExpr::zero());
                solver.assert_formula(&Formula::var(cz[m]).iff(nonzero));
            } else {
                solver.assert_formula(&Formula::var(cz[m]).not());
            }
        }

        // System-level protection and accessibility (Eq. 19, the part
        // every scenario shares): cz_i → az_i ∧ ¬sz_i.
        for m in 0..2 * l + b {
            if self.base_blocked(m) {
                solver.assert_formula(&Formula::var(cz[m]).not());
            }
        }

        // Altering a measurement requires compromising its substation
        // (Eq. 23).
        for m in 0..2 * l + b {
            let bus = MeasurementConfig::bus_of(grid, MeasurementId(m));
            solver.assert_formula(
                &Formula::var(cz[m]).implies(Formula::var(cb[bus.0])),
            );
        }

        AttackEncoding { dtheta, cz, cb, el, il, dpl_expr, dpb_expr, topology }
    }

    /// Layers one scenario's attributes on top of a base encoding:
    /// knowledge, extra protection/accessibility, resource budgets, the
    /// attack goal and enumeration blocks.
    ///
    /// # Panics
    /// Panics if the scenario enables topology attacks but `enc` was built
    /// without them, if `model.targets.len()` does not match the system's
    /// bus count, or if a knowledge vector has the wrong length.
    pub(crate) fn assert_scenario(
        &self,
        solver: &mut Solver,
        enc: &AttackEncoding,
        model: &AttackModel,
    ) {
        let grid = &self.system.grid;
        let b = grid.num_buses();
        let l = grid.num_lines();
        assert_eq!(model.targets.len(), b, "one target per bus");
        if let Some(bd) = &model.known_admittances {
            assert_eq!(bd.len(), l, "one knowledge flag per line");
        }
        assert!(
            enc.topology || !model.allow_topology_attack,
            "scenario enables topology attacks but the base encoding was \
             built without them"
        );

        // A base with topology variables serving a scenario without
        // topology attacks: pin every el/il false so the line semantics
        // collapse to the plain encoding.
        if enc.topology && !model.allow_topology_attack {
            for v in enc.el.iter().chain(enc.il.iter()).flatten() {
                solver.assert_formula(&Formula::var(*v).not());
            }
        }

        // Knowledge (Eq. 17): unknown admittance forbids altering the
        // line's flow meters and including the line. Under strict
        // knowledge the line's measured flow must stay unchanged
        // altogether (the attacker cannot compute the incident-bus
        // adjustments a change through an unknown line would require).
        if let Some(bd) = &model.known_admittances {
            for i in 0..l {
                if !bd[i] {
                    solver.assert_formula(&Formula::var(enc.cz[i]).not());
                    solver.assert_formula(&Formula::var(enc.cz[l + i]).not());
                    if model.allow_topology_attack {
                        if let Some(v) = enc.il[i] {
                            solver.assert_formula(&Formula::var(v).not());
                        }
                    }
                    if model.strict_knowledge {
                        solver.assert_formula(
                            &enc.dpl_expr[i].clone().eq_expr(LinExpr::zero()),
                        );
                    }
                }
            }
        }

        // Scenario-level protection and accessibility deltas (Eqs. 19/28)
        // — only for measurements the base does not already block.
        let secured = self.effective_secured(model);
        for m in 0..2 * l + b {
            let blocked = secured[m]
                || model
                    .inaccessible_measurements
                    .contains(&MeasurementId(m));
            if blocked && !self.base_blocked(m) {
                solver.assert_formula(&Formula::var(enc.cz[m]).not());
            }
        }

        // Resource limits (Eqs. 22 and 24).
        if let Some(t_cz) = model.max_altered_measurements {
            solver.assert_formula(&Formula::at_most(
                enc.cz.iter().map(|&v| Formula::var(v)).collect(),
                t_cz,
            ));
        }
        if let Some(t_cb) = model.max_compromised_buses {
            solver.assert_formula(&Formula::at_most(
                enc.cb.iter().map(|&v| Formula::var(v)).collect(),
                t_cb,
            ));
        }

        // Attack goal (Eqs. 25–26).
        let mut any_must = false;
        for j in 0..b {
            match model.targets[j] {
                StateTarget::MustChange => {
                    any_must = true;
                    solver.assert_formula(
                        &LinExpr::var(enc.dtheta[j]).ne_expr(LinExpr::zero()),
                    );
                }
                StateTarget::MustNotChange => solver.assert_formula(
                    &LinExpr::var(enc.dtheta[j]).eq_expr(LinExpr::zero()),
                ),
                StateTarget::Free => {}
            }
        }
        for &(a, c) in &model.different_changes {
            any_must = true;
            solver.assert_formula(
                &LinExpr::var(enc.dtheta[a.0]).ne_expr(LinExpr::var(enc.dtheta[c.0])),
            );
        }
        if !any_must {
            // With no explicit goal, "feasible" must still mean a real
            // attack: some state estimate is corrupted.
            solver.assert_formula(&Formula::or(
                (0..b)
                    .filter(|&j| j != self.system.reference_bus.0)
                    .map(|j| LinExpr::var(enc.dtheta[j]).ne_expr(LinExpr::zero()))
                    .collect(),
            ));
        }

        // Enumeration support: the altered-measurement set must differ
        // from each blocked pattern (some member unaltered, or some
        // non-member altered).
        for blocked in &model.blocked_alteration_sets {
            let in_set = |m: usize| blocked.contains(&MeasurementId(m));
            solver.assert_formula(&Formula::or(
                (0..2 * l + b)
                    .map(|m| {
                        if in_set(m) {
                            Formula::var(enc.cz[m]).not()
                        } else {
                            Formula::var(enc.cz[m])
                        }
                    })
                    .collect(),
            ));
        }
    }

    /// Reads an attack vector out of a satisfying model.
    pub(crate) fn extract_vector(&self, enc: &AttackEncoding, m: &Model) -> AttackVector {
        let grid = &self.system.grid;
        let b = grid.num_buses();
        let l = grid.num_lines();
        let mut vector = AttackVector {
            state_changes: enc
                .dtheta
                .iter()
                .map(|&v| m.real_value(v).to_f64())
                .collect(),
            ..AttackVector::default()
        };
        // Exact evaluation of an inlined delta form under the model.
        let eval = |e: &LinExpr| e.eval(|v| m.real_value(v).clone()).to_f64();
        for i in 0..l {
            let d = eval(&enc.dpl_expr[i]);
            if m.bool_value(enc.cz[i]) {
                vector.alterations.push(Alteration {
                    measurement: MeasurementId(i),
                    delta: d,
                });
            }
            if m.bool_value(enc.cz[l + i]) {
                vector.alterations.push(Alteration {
                    measurement: MeasurementId(l + i),
                    delta: -d,
                });
            }
            if let Some(v) = enc.el[i] {
                if m.bool_value(v) {
                    vector.excluded_lines.push(LineId(i));
                }
            }
            if let Some(v) = enc.il[i] {
                if m.bool_value(v) {
                    vector.included_lines.push(LineId(i));
                }
            }
        }
        for j in 0..b {
            if m.bool_value(enc.cz[2 * l + j]) {
                vector.alterations.push(Alteration {
                    measurement: MeasurementId(2 * l + j),
                    delta: eval(&enc.dpb_expr[j]),
                });
            }
        }
        let mut buses: Vec<BusId> = vector
            .alterations
            .iter()
            .map(|a| MeasurementConfig::bus_of(grid, a.measurement))
            .collect();
        buses.sort_unstable();
        buses.dedup();
        vector.compromised_buses = buses;
        vector
    }

    /// The assumption literals expressing a secured-set *delta* on top of
    /// an already-asserted scenario: `¬cz_m` for every measurement at one
    /// of `buses` (or listed in `measurements`) that the base encoding
    /// does not already block. Semantically identical to asserting the
    /// same `¬cz` units in a scope (see `assert_scenario`'s Eq. 28 loop),
    /// but retractable for free — the incremental CEGIS loop re-verifies
    /// one scenario under many candidate architectures this way, keeping
    /// the solver's learned clauses and warm simplex basis across rounds.
    pub(crate) fn secured_delta_assumptions(
        &self,
        enc: &AttackEncoding,
        buses: &[BusId],
        measurements: &[MeasurementId],
    ) -> Vec<(BoolVar, bool)> {
        let grid = &self.system.grid;
        let m = grid.num_potential_measurements();
        (0..m)
            .filter(|&i| {
                let covered = buses.contains(&MeasurementConfig::bus_of(grid, MeasurementId(i)))
                    || measurements.contains(&MeasurementId(i));
                covered && !self.base_blocked(i)
            })
            .map(|i| (enc.cz[i], false))
            .collect()
    }

    /// Whether the system configuration alone forbids altering `m`
    /// (secured or inaccessible regardless of scenario).
    fn base_blocked(&self, m: usize) -> bool {
        self.system.measurements.is_secured(MeasurementId(m))
            || !self.system.measurements.is_accessible(MeasurementId(m))
    }

    /// The effective `sz` vector: system configuration plus the model's
    /// extra secured measurements and buses (Eq. 28).
    fn effective_secured(&self, model: &AttackModel) -> Vec<bool> {
        let grid = &self.system.grid;
        let m = grid.num_potential_measurements();
        let mut secured: Vec<bool> = (0..m)
            .map(|i| self.system.measurements.is_secured(MeasurementId(i)))
            .collect();
        for id in &model.extra_secured_measurements {
            secured[id.0] = true;
        }
        for bus in &model.extra_secured_buses {
            for i in 0..m {
                if MeasurementConfig::bus_of(grid, MeasurementId(i)) == *bus {
                    secured[i] = true;
                }
            }
        }
        secured
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sta_grid::ieee14;

    #[test]
    fn unconstrained_attack_exists() {
        let sys = ieee14::system();
        let verifier = AttackVerifier::new(&sys).unwrap();
        let model = AttackModel::new(14);
        let outcome = verifier.verify(&model);
        let v = outcome.expect_feasible();
        assert!(!v.alterations.is_empty());
        assert!(!v.attacked_states(1e-9).is_empty());
    }

    #[test]
    fn zero_budget_is_infeasible() {
        let sys = ieee14::system();
        let verifier = AttackVerifier::new(&sys).unwrap();
        let model = AttackModel::new(14).max_altered_measurements(0);
        assert!(!verifier.verify(&model).is_feasible());
    }

    #[test]
    fn reference_state_cannot_be_target() {
        let sys = ieee14::system();
        let verifier = AttackVerifier::new(&sys).unwrap();
        let model = AttackModel::new(14).target(BusId(0), StateTarget::MustChange);
        assert!(!verifier.verify(&model).is_feasible());
    }

    #[test]
    fn alterations_respect_security() {
        let sys = ieee14::system();
        let verifier = AttackVerifier::new(&sys).unwrap();
        let model = AttackModel::new(14).target(BusId(11), StateTarget::MustChange);
        let v = verifier.verify(&model).expect_feasible();
        for a in &v.alterations {
            assert!(!sys.measurements.is_secured(a.measurement), "{}", a.measurement);
            assert!(sys.measurements.is_taken(a.measurement), "{}", a.measurement);
        }
    }

    #[test]
    fn resource_limits_bind() {
        let sys = ieee14::system();
        let verifier = AttackVerifier::new(&sys).unwrap();
        let model = AttackModel::new(14)
            .target(BusId(11), StateTarget::MustChange)
            .max_altered_measurements(10)
            .max_compromised_buses(4);
        if let AttackOutcome::Feasible(v) = verifier.verify(&model) {
            assert!(v.num_alterations() <= 10);
            assert!(v.compromised_buses.len() <= 4);
        }
    }

    #[test]
    fn denying_bus_access_blocks_local_attacks() {
        // Attacking state 12 needs meters at buses 6, 12 and 13; denying
        // physical access to bus 13 removes the only injection meter that
        // can absorb line 19's flow change.
        let sys = ieee14::system_unsecured();
        let verifier = AttackVerifier::new(&sys).unwrap();
        let mut base = AttackModel::new(14).target(BusId(11), StateTarget::MustChange);
        for j in 0..14 {
            if j != 11 {
                base = base.target(BusId(j), StateTarget::MustNotChange);
            }
        }
        assert!(verifier.verify(&base).is_feasible());
        let denied = base.deny_bus_access(&sys.grid, BusId(12));
        assert!(!verifier.verify(&denied).is_feasible());
    }

    #[test]
    fn topology_attacks_depend_on_the_operating_point() {
        // A plain UFDI attack (a = H·c) is operating-point independent;
        // the coordination constants of a topology attack are not. The
        // verifier must anchor to whichever operating point it is given,
        // and the witness must replay against exactly that point.
        use sta_estimator::dcflow;
        let sys = ieee14::system_unsecured();
        let mut model = AttackModel::new(14)
            .target(BusId(11), StateTarget::MustChange)
            .secure_measurement(MeasurementId(45))
            .with_topology_attack();
        for j in 0..14 {
            if j != 11 {
                model = model.target(BusId(j), StateTarget::MustNotChange);
            }
        }
        let mut deltas = Vec::new();
        for seed in [0u64, 3] {
            let injections = dcflow::synthetic_injections(14, seed);
            let op = dcflow::solve(&sys.grid, &sys.topology, &injections, sys.reference_bus)
                .unwrap();
            let verifier = AttackVerifier::with_operating_point(&sys, &op);
            let attack = verifier.verify(&model).expect_feasible();
            let replay = crate::validation::replay(&sys, &op, &attack).unwrap();
            assert!(replay.is_stealthy(1e-6), "seed {seed}: {replay}");
            // The excluded line's zeroing delta = −P̄(seed).
            let zeroing = attack
                .alterations
                .iter()
                .find(|a| a.measurement == MeasurementId(12))
                .expect("line 13 forward meter altered")
                .delta;
            deltas.push(zeroing);
        }
        assert!(
            (deltas[0] - deltas[1]).abs() > 1e-3,
            "coordination constants should differ across operating points: {deltas:?}"
        );
    }

    #[test]
    fn stats_reported() {
        let sys = ieee14::system();
        let verifier = AttackVerifier::new(&sys).unwrap();
        let report = verifier.verify_with_stats(&AttackModel::new(14));
        assert!(report.stats.sat_vars > 0);
        assert!(report.stats.estimated_bytes() > 0);
    }

    /// Full certification over the real IEEE 14-bus encoding: the deny-mode
    /// lint must come back clean, a feasible scenario's model must
    /// re-evaluate, and an infeasible scenario's proof must replay through
    /// the RUP/Farkas checker. `check()` panics on any certification
    /// failure, so reaching the assertions is the test.
    #[test]
    fn certified_verification_ieee14() {
        let sys = ieee14::system();
        let verifier =
            AttackVerifier::new(&sys).unwrap().with_certify(sta_smt::CertifyLevel::Full);
        assert_eq!(verifier.certify_level(), sta_smt::CertifyLevel::Full);

        // Feasible: certified SAT (model re-evaluation).
        let open = AttackModel::new(14).target(BusId(11), StateTarget::MustChange);
        let report = verifier.verify_with_stats(&open);
        assert!(report.outcome.is_feasible());
        assert!(report.stats.certified);
        assert_eq!(report.stats.lint_errors, 0, "deny-mode lint must be clean");

        // Infeasible: an attacker who may not alter anything cannot corrupt
        // a state — certified UNSAT (proof replay with theory lemmas).
        let blocked = AttackModel::new(14)
            .target(BusId(11), StateTarget::MustChange)
            .max_altered_measurements(0);
        let report = verifier.verify_with_stats(&blocked);
        assert!(!report.outcome.is_feasible());
        assert!(report.stats.certified);
        assert!(report.stats.proof_steps > 0);
    }

    /// The scenario-level `certify` attribute reaches the solver even when
    /// the verifier itself is uncertified.
    #[test]
    fn scenario_certify_level_is_honored() {
        let sys = ieee14::system();
        let verifier = AttackVerifier::new(&sys).unwrap();
        let model = AttackModel::new(14)
            .target(BusId(5), StateTarget::MustChange)
            .with_certify(sta_smt::CertifyLevel::CheckModels);
        let report = verifier.verify_with_stats(&model);
        assert!(report.outcome.is_feasible());
        assert!(report.stats.certified);
    }

    /// A scenario with an already-expired deadline comes back Unknown —
    /// never a spurious sat/unsat verdict.
    #[test]
    fn expired_timeout_is_unknown_not_infeasible() {
        let sys = ieee14::system();
        let verifier = AttackVerifier::new(&sys).unwrap();
        let model = AttackModel::new(14).with_timeout_ms(0);
        let outcome = verifier.verify(&model);
        assert!(outcome.is_unknown(), "{outcome:?}");
        assert!(!outcome.is_feasible());
        assert!(outcome.vector().is_none());
        // The same scenario without the deadline is decidable.
        let model = AttackModel::new(14);
        assert!(verifier.verify(&model).is_feasible());
    }
}
