//! Conflict-driven clause-learning SAT solver with a DPLL(T) theory hook.
//!
//! A self-contained CDCL core: two-watched-literal propagation, 1-UIP
//! conflict analysis, VSIDS branching with phase saving, Luby restarts and
//! learned-clause database reduction. A [`Theory`] plugged into
//! [`CdclSolver::solve`] receives assigned literals and may veto assignments
//! with explanations, which the solver turns into learned clauses — the
//! standard DPLL(T) integration used by the LRA solver in [`crate::simplex`].

use super::lit::{LBool, Lit, SatVar};
use super::proof::{FarkasCertificate, ProofLog};
use crate::budget::{Budget, Interrupt};
use crate::profile::Clock;
use crate::stats::ProgressSample;
use std::time::Duration;

/// Result of a theory callback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TheoryResult {
    /// Consistent so far.
    Ok,
    /// The given literals (all currently assigned true) are jointly
    /// inconsistent with the theory.
    Conflict(Vec<Lit>),
    /// The theory's budget ran out mid-check; no verdict. The SAT core must
    /// abort the solve — the theory state may be only partially repaired,
    /// so neither `Ok` nor `Conflict` would be sound to report.
    Interrupted,
}

/// A decision-procedure plugin for DPLL(T).
///
/// The SAT core calls these hooks in trail order; `on_backtrack` undoes the
/// effects of everything asserted after the surviving decision levels.
pub trait Theory {
    /// A new decision level was opened.
    fn on_new_level(&mut self);
    /// `n_levels` decision levels were popped; retract their assertions.
    fn on_backtrack(&mut self, n_levels: usize);
    /// `lit` was assigned true. Cheap bound updates happen here.
    fn on_assert(&mut self, lit: Lit) -> TheoryResult;
    /// Full consistency check (may pivot); called at propagation fixpoints.
    fn check(&mut self) -> TheoryResult;
    /// Certificate for the most recent conflict this theory reported,
    /// consumed by proof logging. Theories that cannot certify their
    /// lemmas return `None` (the default), which a full proof replay
    /// rejects — certification requires certifying theories.
    fn take_certificate(&mut self) -> Option<FarkasCertificate> {
        None
    }
    /// Cumulative pivot (or equivalent work-step) count, read by the
    /// progress sampler at decision boundaries. Theories without a
    /// pivot-like notion keep the default zero.
    fn pivot_count(&self) -> u64 {
        0
    }
}

/// Outcome of [`CdclSolver::solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatOutcome {
    /// A model was found (read it with [`CdclSolver::value`]).
    Sat,
    /// The clauses are unsatisfiable modulo the theory.
    Unsat,
    /// The budget ran out before a verdict (see [`CdclSolver::set_budget`]).
    /// The solver and theory are left mid-search; call
    /// [`CdclSolver::reset_to_root`] before reusing them.
    Unknown(Interrupt),
}

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
    learned: bool,
    activity: f64,
}

#[derive(Debug, Clone, Copy)]
struct Watch {
    clause: usize,
    blocker: Lit,
}

/// Cumulative search counters of one CDCL core, which [`crate::Solver`]
/// turns into the `search` phase of a check's
/// [`crate::trace::PhaseMetrics`].
#[derive(Debug, Default, Clone, Copy)]
pub struct SatCounters {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of conflicts (Boolean + theory).
    pub conflicts: u64,
    /// Number of theory conflicts specifically.
    pub theory_conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learned clauses currently in the database.
    pub learned_clauses: u64,
}

/// The CDCL solver.
///
/// Typical use: create, [`CdclSolver::new_var`] as many times as needed,
/// [`CdclSolver::add_clause`] the CNF, then [`CdclSolver::solve`].
///
/// The solver is `Clone`: a never-solved solver holding an encoded clause
/// database can serve as a reusable template, with each clone solved
/// independently (how [`crate::Solver`] implements incremental reuse).
#[derive(Debug, Clone)]
pub struct CdclSolver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<Watch>>,
    assign: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Option<usize>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    theory_head: usize,
    activity: Vec<f64>,
    var_inc: f64,
    clause_inc: f64,
    saved_phase: Vec<bool>,
    order: Vec<SatVar>,
    order_pos: Vec<usize>,
    seen: Vec<bool>,
    /// The clause database is refuted at the root level, by an added
    /// clause or by a root-level conflict in search. Sticky: a persistent
    /// core solved again must not resume propagation past the conflict.
    unsat_at_root: bool,
    counters: SatCounters,
    /// Variables the theory cares about; others skip the theory feed.
    is_theory_var: Vec<bool>,
    /// DRAT-style proof trace, recorded when enabled before clause loading.
    proof: Option<ProofLog>,
    /// Deadline / cancellation budget polled in the search loop.
    budget: Budget,
    /// Progress timeline sampled at decision boundaries, when enabled.
    progress: Option<ProgressLog>,
    /// Failed-assumption core of the most recent
    /// [`CdclSolver::solve_under_assumptions`] `Unsat` answer: a clause of
    /// negated assumption literals entailed by the clause database. Empty
    /// when the instance is unsatisfiable regardless of assumptions.
    failed: Vec<Lit>,
}

/// The progress sampler piggybacking on the decision-boundary poll site:
/// every 64th decision it may record a [`ProgressSample`]. The sample
/// count is bounded — when the buffer fills, every other sample is
/// dropped and the recording stride doubles, so arbitrarily long solves
/// keep a fixed-size, evenly thinned timeline.
#[derive(Debug, Clone)]
struct ProgressLog {
    clock: Clock,
    started: Duration,
    stride: u64,
    next_at: u64,
    samples: Vec<ProgressSample>,
}

/// Upper bound on retained progress samples (then thin + double stride).
const PROGRESS_CAP: usize = 512;

impl Default for CdclSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl CdclSolver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        CdclSolver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            theory_head: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            clause_inc: 1.0,
            saved_phase: Vec::new(),
            order: Vec::new(),
            order_pos: Vec::new(),
            seen: Vec::new(),
            unsat_at_root: false,
            counters: SatCounters::default(),
            is_theory_var: Vec::new(),
            proof: None,
            budget: Budget::default(),
            progress: None,
            failed: Vec::new(),
        }
    }

    /// Installs the budget polled by [`CdclSolver::solve`]. The default is
    /// unlimited; a limited budget makes the search loop return
    /// [`SatOutcome::Unknown`] once it is exhausted.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Turns on proof logging. Call before any [`CdclSolver::add_clause`]
    /// so the log captures the complete original CNF.
    pub fn enable_proof(&mut self) {
        self.proof = Some(ProofLog::new());
    }

    /// Turns on progress sampling over `clock`: the next
    /// [`CdclSolver::solve`] records a bounded timeline of cumulative
    /// counters at decision boundaries, retrieved afterwards with
    /// [`CdclSolver::take_progress`].
    pub fn enable_progress(&mut self, clock: Clock) {
        self.progress = Some(ProgressLog {
            clock,
            started: Duration::ZERO,
            stride: 64,
            next_at: 0,
            samples: Vec::new(),
        });
    }

    /// Takes the sampled progress timeline, leaving sampling disabled.
    pub fn take_progress(&mut self) -> Vec<ProgressSample> {
        self.progress.take().map(|p| p.samples).unwrap_or_default()
    }

    /// Takes the recorded proof, leaving logging disabled.
    pub fn take_proof(&mut self) -> Option<ProofLog> {
        self.proof.take()
    }

    /// The proof recorded so far, with logging left enabled. Certification
    /// borrows it: a persistent core's log spans the whole solver session,
    /// so [`CdclSolver::take_proof`] (which stops logging) would truncate
    /// every later check's proof.
    pub fn proof(&self) -> Option<&ProofLog> {
        self.proof.as_ref()
    }

    /// Allocates a fresh variable and returns its index.
    pub fn new_var(&mut self) -> SatVar {
        let v = self.assign.len() as SatVar;
        self.assign.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.saved_phase.push(false);
        self.seen.push(false);
        self.is_theory_var.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order_pos.push(self.order.len());
        self.order.push(v);
        v
    }

    /// Marks `v` as a theory atom so its assignments are fed to the theory.
    pub fn set_theory_var(&mut self, v: SatVar) {
        self.is_theory_var[v as usize] = true;
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of clauses (original + learned).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Snapshot of the stored clause database (root-simplified originals
    /// plus learned clauses; root units are not included). Used by the
    /// encoding-level linter to look for duplicate and subsumed clauses.
    pub fn clause_list(&self) -> Vec<Vec<Lit>> {
        self.clauses.iter().map(|c| c.lits.clone()).collect()
    }

    /// Solver counters (decisions, conflicts, …).
    pub fn counters(&self) -> SatCounters {
        self.counters
    }

    /// Current value of a variable (meaningful after a `Sat` outcome).
    pub fn value(&self, v: SatVar) -> LBool {
        self.assign[v as usize]
    }

    fn lit_value(&self, lit: Lit) -> LBool {
        self.assign[lit.var() as usize].of_lit(lit)
    }

    /// Adds a clause. Duplicate literals are removed; tautologies ignored.
    ///
    /// Must be called before [`CdclSolver::solve`] (root level).
    pub fn add_clause(&mut self, mut lits: Vec<Lit>) {
        debug_assert!(self.trail_lim.is_empty(), "clauses are added at root level");
        if self.unsat_at_root {
            return;
        }
        lits.sort_unstable();
        lits.dedup();
        let mut i = 0;
        // analysis: no-poll(duplicate-literal scan, bounded by clause length)
        while i + 1 < lits.len() {
            if lits[i].var() == lits[i + 1].var() {
                return; // p ∨ ¬p — tautology
            }
            i += 1;
        }
        // Log the clause before root-level simplification: the proof's
        // axioms must be the original CNF, not the simplified one (the
        // dropped literals are rederivable from logged unit clauses).
        if let Some(p) = &mut self.proof {
            p.log_original(lits.clone());
        }
        // Drop literals already false at root, satisfied clause check.
        lits.retain(|&l| self.lit_value(l) != LBool::False);
        if lits.iter().any(|&l| self.lit_value(l) == LBool::True) {
            return;
        }
        match lits.len() {
            0 => self.unsat_at_root = true,
            1 => {
                self.enqueue(lits[0], None);
                if self.propagate().is_some() {
                    self.unsat_at_root = true;
                }
            }
            _ => {
                self.attach_clause(Clause { lits, learned: false, activity: 0.0 });
            }
        }
    }

    fn attach_clause(&mut self, clause: Clause) -> usize {
        let idx = self.clauses.len();
        let w0 = clause.lits[0];
        let w1 = clause.lits[1];
        self.watches[(!w0).index()].push(Watch { clause: idx, blocker: w1 });
        self.watches[(!w1).index()].push(Watch { clause: idx, blocker: w0 });
        self.clauses.push(clause);
        idx
    }

    fn enqueue(&mut self, lit: Lit, reason: Option<usize>) {
        debug_assert_eq!(self.lit_value(lit), LBool::Undef);
        let v = lit.var() as usize;
        self.assign[v] = if lit.is_positive() { LBool::True } else { LBool::False };
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(lit);
        self.counters.propagations += 1;
    }

    /// Unit propagation; returns the index of a conflicting clause if any.
    fn propagate(&mut self) -> Option<usize> {
        // analysis: no-poll(bounded by trail growth; the search loop polls per conflict)
        while self.prop_head < self.trail.len() {
            let p = self.trail[self.prop_head];
            self.prop_head += 1;
            let widx = p.index();
            let mut i = 0;
            // analysis: no-poll(bounded by the watch list of one literal)
            'watches: while i < self.watches[widx].len() {
                let watch = self.watches[widx][i];
                if self.lit_value(watch.blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                let ci = watch.clause;
                // Normalize: watched literal ¬p must be at position 1.
                let false_lit = !p;
                if self.clauses[ci].lits[0] == false_lit {
                    self.clauses[ci].lits.swap(0, 1);
                }
                debug_assert_eq!(self.clauses[ci].lits[1], false_lit);
                let first = self.clauses[ci].lits[0];
                if first != watch.blocker && self.lit_value(first) == LBool::True {
                    self.watches[widx][i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..self.clauses[ci].lits.len() {
                    let cand = self.clauses[ci].lits[k];
                    if self.lit_value(cand) != LBool::False {
                        self.clauses[ci].lits.swap(1, k);
                        self.watches[widx].swap_remove(i);
                        self.watches[(!cand).index()]
                            .push(Watch { clause: ci, blocker: first });
                        continue 'watches;
                    }
                }
                // Clause is unit or conflicting.
                if self.lit_value(first) == LBool::False {
                    self.prop_head = self.trail.len();
                    return Some(ci);
                }
                self.enqueue(first, Some(ci));
                i += 1;
            }
        }
        None
    }

    fn bump_var(&mut self, v: SatVar) {
        let a = &mut self.activity[v as usize];
        *a += self.var_inc;
        if *a > 1e100 {
            for act in &mut self.activity {
                *act *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.in_heap(v) {
            self.sift_up(self.order_pos[v as usize]);
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
        self.clause_inc /= 0.999;
    }

    // --- binary-heap variable order (max-heap on activity) ---

    fn heap_less(&self, a: SatVar, b: SatVar) -> bool {
        self.activity[a as usize] > self.activity[b as usize]
    }

    fn sift_up(&mut self, mut pos: usize) {
        let v = self.order[pos];
        // analysis: no-poll(heap sift, O(log n) in the variable count)
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.heap_less(v, self.order[parent]) {
                self.order[pos] = self.order[parent];
                self.order_pos[self.order[pos] as usize] = pos;
                pos = parent;
            } else {
                break;
            }
        }
        self.order[pos] = v;
        self.order_pos[v as usize] = pos;
    }

    fn sift_down(&mut self, mut pos: usize) {
        let v = self.order[pos];
        let len = self.order.len();
        // analysis: no-poll(heap sift, O(log n) in the variable count)
        loop {
            let left = 2 * pos + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.heap_less(self.order[right], self.order[left]) {
                right
            } else {
                left
            };
            if self.heap_less(self.order[child], v) {
                self.order[pos] = self.order[child];
                self.order_pos[self.order[pos] as usize] = pos;
                pos = child;
            } else {
                break;
            }
        }
        self.order[pos] = v;
        self.order_pos[v as usize] = pos;
    }

    fn heap_pop(&mut self) -> Option<SatVar> {
        if self.order.is_empty() {
            return None;
        }
        let top = self.order[0];
        let last = self.order.pop().unwrap();
        if !self.order.is_empty() {
            self.order[0] = last;
            self.order_pos[last as usize] = 0;
            self.sift_down(0);
        }
        Some(top)
    }

    fn heap_insert(&mut self, v: SatVar) {
        self.order_pos[v as usize] = self.order.len();
        self.order.push(v);
        self.sift_up(self.order.len() - 1);
    }

    fn in_heap(&self, v: SatVar) -> bool {
        let pos = self.order_pos[v as usize];
        pos < self.order.len() && self.order[pos] == v
    }

    /// Pops the next unassigned branching variable off the activity heap,
    /// or `None` when the assignment is total. Split from the decision
    /// itself so the caller opens the decision level (SAT and theory in
    /// lockstep) only when a branch actually exists — opening it first
    /// leaked a theory level on every `Sat` return, which a persistent
    /// core would carry into the next check.
    fn pick_branch(&mut self) -> Option<SatVar> {
        // analysis: no-poll(drains the decision heap, bounded by the variable count)
        while let Some(v) = self.heap_pop() {
            if self.assign[v as usize] == LBool::Undef {
                return Some(v);
            }
        }
        None
    }

    fn backtrack_sat_only(&mut self, target_level: usize) {
        // analysis: no-poll(unwinds the trail, bounded by its length)
        while self.trail.len() > self.trail_lim[target_level] {
            let lit = self.trail.pop().unwrap();
            let v = lit.var() as usize;
            self.saved_phase[v] = lit.is_positive();
            self.assign[v] = LBool::Undef;
            self.reason[v] = None;
            if !self.in_heap(v as SatVar) {
                self.heap_insert(v as SatVar);
            }
        }
        self.trail_lim.truncate(target_level);
        self.prop_head = self.trail.len();
        self.theory_head = self.theory_head.min(self.trail.len());
    }

    fn backtrack<T: Theory>(&mut self, target_level: usize, theory: &mut T) {
        let popped = self.trail_lim.len() - target_level;
        if popped > 0 {
            theory.on_backtrack(popped);
            self.backtrack_sat_only(target_level);
        }
    }

    /// 1-UIP analysis. `conflict` literals are all false under the current
    /// assignment. Returns the learned clause (asserting literal first) and
    /// the backjump level.
    fn analyze(&mut self, conflict: Vec<Lit>) -> (Vec<Lit>, usize) {
        let current = self.trail_lim.len() as u32;
        let mut learnt: Vec<Lit> = vec![Lit::positive(0)]; // slot 0 = asserting lit
        let mut counter = 0usize;
        let mut idx = self.trail.len();
        let mut reason_lits = conflict;
        let p: Lit;
        // analysis: no-poll(1-UIP resolution, each step unmarks one trail literal)
        loop {
            for &q in &reason_lits {
                let v = q.var() as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            // analysis: no-poll(walks the trail backwards, idx strictly decreases)
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var() as usize] {
                    break;
                }
            }
            let pl = self.trail[idx];
            let v = pl.var() as usize;
            self.seen[v] = false;
            counter -= 1;
            if counter == 0 {
                p = pl;
                break;
            }
            let ci = self.reason[v].expect("non-decision literal has a reason");
            self.bump_clause(ci);
            reason_lits = self.clauses[ci]
                .lits
                .iter()
                .copied()
                .filter(|&l| l != pl)
                .collect();
        }
        learnt[0] = !p;
        // Clear remaining seen flags.
        for l in &learnt {
            self.seen[l.var() as usize] = false;
        }
        // Backjump level: highest level among learnt[1..].
        let mut bj = 0usize;
        let mut max_i = 1usize;
        for (i, l) in learnt.iter().enumerate().skip(1) {
            let lv = self.level[l.var() as usize] as usize;
            if lv > bj {
                bj = lv;
                max_i = i;
            }
        }
        if learnt.len() > 1 {
            learnt.swap(1, max_i); // second watch at backjump level
        }
        (learnt, bj)
    }

    fn bump_clause(&mut self, ci: usize) {
        if !self.clauses[ci].learned {
            return;
        }
        self.clauses[ci].activity += self.clause_inc;
        if self.clauses[ci].activity > 1e20 {
            for c in self.clauses.iter_mut().filter(|c| c.learned) {
                c.activity *= 1e-20;
            }
            self.clause_inc *= 1e-20;
        }
    }

    /// Removes the least active half of the learned clauses.
    fn reduce_db(&mut self) {
        let mut learned: Vec<usize> = (0..self.clauses.len())
            .filter(|&i| {
                self.clauses[i].learned
                    && self.clauses[i].lits.len() > 2
                    && !self.is_reason(i)
            })
            .collect();
        learned.sort_by(|&a, &b| {
            self.clauses[a]
                .activity
                .partial_cmp(&self.clauses[b].activity)
                .unwrap()
        });
        let remove: std::collections::HashSet<usize> =
            learned[..learned.len() / 2].iter().copied().collect();
        if remove.is_empty() {
            return;
        }
        if let Some(p) = &mut self.proof {
            // Log deletions in the sorted activity order of the keep
            // decision, not the hash set's iteration order — the DRAT
            // proof stream must be byte-stable across runs.
            for &i in &learned[..learned.len() / 2] {
                p.log_delete(self.clauses[i].lits.clone());
            }
        }
        self.compact_clauses(&remove);
    }

    /// Hard-deletes every stored clause containing `lit`. This is how a
    /// retracted scope's activation literal is retired: once the unit
    /// `¬act` holds at root, clauses guarded by `¬act` are permanently
    /// satisfied and only cost propagation time, while every learned
    /// clause that depended on the scope necessarily contains `¬act`
    /// (the activation is a decision, so conflict analysis can never
    /// resolve it away) and is removed with them. Only learned clauses
    /// are logged as proof deletions — originals were logged before
    /// root simplification, so their stored form may no longer match;
    /// they stay in the log, where root propagation of the retirement
    /// unit keeps them inert in any RUP derivation. Returns the number
    /// of clauses removed. Must be called at the root level.
    pub fn purge_literal(&mut self, lit: Lit) -> u64 {
        debug_assert!(self.trail_lim.is_empty(), "purge happens at root level");
        let remove: Vec<usize> = (0..self.clauses.len())
            .filter(|&i| self.clauses[i].lits.contains(&lit))
            .collect();
        if remove.is_empty() {
            return 0;
        }
        if let Some(p) = &mut self.proof {
            for &i in &remove {
                if self.clauses[i].learned {
                    p.log_delete(self.clauses[i].lits.clone());
                }
            }
        }
        let n = remove.len() as u64;
        self.compact_clauses(&remove.into_iter().collect());
        n
    }

    /// Removes the given clause indices: compacts storage, rebuilds watch
    /// lists and remaps reason pointers. A reason pointing into the removed
    /// set is cleared — only possible for root-level assignments (reduce_db
    /// never removes reasons; purge_literal runs at root), whose reasons
    /// are never consulted again. Shared by [`CdclSolver::reduce_db`] and
    /// [`CdclSolver::purge_literal`].
    fn compact_clauses(&mut self, remove: &std::collections::HashSet<usize>) {
        let mut remap = vec![usize::MAX; self.clauses.len()];
        let mut new_clauses = Vec::with_capacity(self.clauses.len() - remove.len());
        for (i, c) in self.clauses.drain(..).enumerate() {
            if !remove.contains(&i) {
                remap[i] = new_clauses.len();
                new_clauses.push(c);
            }
        }
        self.clauses = new_clauses;
        for w in &mut self.watches {
            w.clear();
        }
        for idx in 0..self.clauses.len() {
            let w0 = self.clauses[idx].lits[0];
            let w1 = self.clauses[idx].lits[1];
            self.watches[(!w0).index()].push(Watch { clause: idx, blocker: w1 });
            self.watches[(!w1).index()].push(Watch { clause: idx, blocker: w0 });
        }
        for (v, r) in self.reason.iter_mut().enumerate() {
            if let Some(ci) = *r {
                if remap[ci] == usize::MAX {
                    debug_assert_eq!(self.level[v], 0);
                    *r = None;
                } else {
                    *r = Some(remap[ci]);
                }
            }
        }
        self.counters.learned_clauses =
            self.clauses.iter().filter(|c| c.learned).count() as u64;
    }

    /// Closes the proof with the empty clause (every `Unsat` return).
    fn log_refutation(&mut self) {
        if let Some(p) = &mut self.proof {
            p.log_learned(Vec::new());
        }
    }

    fn is_reason(&self, ci: usize) -> bool {
        let first = self.clauses[ci].lits[0];
        self.reason[first.var() as usize] == Some(ci)
            && self.lit_value(first) == LBool::True
    }

    fn luby(mut i: u64) -> u64 {
        // Luby sequence: 1 1 2 1 1 2 4 ...
        let mut k = 1u64;
        // analysis: no-poll(Luby index arithmetic, O(log i))
        while (1u64 << (k + 1)) <= i + 1 {
            k += 1;
        }
        // analysis: no-poll(Luby recurrence, i strictly shrinks each round)
        loop {
            if (1u64 << k) == i + 1 {
                return 1u64 << (k - 1).min(63);
            }
            i -= (1u64 << k) - 1;
            k = 1;
            // analysis: no-poll(Luby index arithmetic, O(log i))
            while (1u64 << (k + 1)) <= i + 1 {
                k += 1;
            }
        }
    }

    /// Feeds newly assigned theory literals to the theory and runs its check.
    fn theory_step<T: Theory>(&mut self, theory: &mut T) -> TheoryResult {
        let mut fed_any = false;
        // analysis: no-poll(bounded by trail growth; the search loop polls per conflict)
        while self.theory_head < self.trail.len() {
            let lit = self.trail[self.theory_head];
            self.theory_head += 1;
            if !self.is_theory_var[lit.var() as usize] {
                continue;
            }
            fed_any = true;
            if let TheoryResult::Conflict(expl) = theory.on_assert(lit) {
                return TheoryResult::Conflict(expl);
            }
        }
        if fed_any {
            theory.check()
        } else {
            TheoryResult::Ok
        }
    }

    /// Records one progress sample if the decision count reached the
    /// current stride boundary. `pivots` is the theory's cumulative
    /// pivot count at this moment.
    fn record_progress(&mut self, pivots: u64) {
        let Some(log) = &mut self.progress else { return };
        if self.counters.decisions < log.next_at {
            return;
        }
        log.samples.push(ProgressSample {
            at: log.clock.now().saturating_sub(log.started),
            decisions: self.counters.decisions,
            conflicts: self.counters.conflicts,
            restarts: self.counters.restarts,
            propagations: self.counters.propagations,
            pivots,
        });
        log.next_at = self.counters.decisions + log.stride;
        if log.samples.len() >= PROGRESS_CAP {
            let mut keep = false;
            log.samples.retain(|_| {
                keep = !keep;
                keep
            });
            log.stride = log.stride.saturating_mul(2);
        }
    }

    /// Solves the current clause set modulo `theory`.
    ///
    /// After `Sat`, variable values are available via [`CdclSolver::value`]
    /// and the theory holds a consistent assignment of all asserted atoms.
    pub fn solve<T: Theory>(&mut self, theory: &mut T) -> SatOutcome {
        self.solve_under_assumptions(&[], theory)
    }

    /// The failed-assumption core of the most recent
    /// [`CdclSolver::solve_under_assumptions`] `Unsat` answer: a clause of
    /// negated assumption literals (a subset of the assumptions, negated)
    /// that follows from the clause database alone. Empty when the clause
    /// set is unsatisfiable regardless of assumptions.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed
    }

    /// Backtracks to the root level, undoing theory state in lockstep, and
    /// clears the failed-assumption core. The persistent-core preamble: a
    /// solver left mid-trail by a previous solve (a `Sat` model, assumption
    /// levels, or an interrupt) returns to a state where clauses may be
    /// added and a new solve started.
    pub fn reset_to_root<T: Theory>(&mut self, theory: &mut T) {
        if !self.trail_lim.is_empty() {
            self.backtrack(0, theory);
        }
        self.failed.clear();
    }

    /// Final-conflict analysis: assumption `a` is false under the current
    /// trail, all of whose decision levels are assumption levels (branching
    /// never starts before placement finishes, so every reason-free literal
    /// above root is an assumption). Walks reasons backwards from `¬a` to
    /// collect the contributing assumptions; the returned clause of negated
    /// assumptions is entailed by the clause database via unit propagation
    /// (RUP), which is what lets a proof replay check it.
    fn analyze_final(&mut self, a: Lit) -> Vec<Lit> {
        let mut out = vec![!a];
        if self.trail_lim.is_empty() {
            return out;
        }
        self.seen[a.var() as usize] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let q = self.trail[i];
            let v = q.var() as usize;
            if !self.seen[v] {
                continue;
            }
            match self.reason[v] {
                None => out.push(!q),
                Some(ci) => {
                    for k in 0..self.clauses[ci].lits.len() {
                        let l = self.clauses[ci].lits[k];
                        if l != q && self.level[l.var() as usize] > 0 {
                            self.seen[l.var() as usize] = true;
                        }
                    }
                }
            }
            self.seen[v] = false;
        }
        self.seen[a.var() as usize] = false;
        out
    }

    /// Solves under `assumptions`: the given literals are placed as
    /// pseudo-decisions (one per level, in order, before any branching),
    /// MiniSat style. Placement is keyed on the current decision-level
    /// count, so it self-heals across restarts and backjumps. On `Unsat`
    /// with a non-empty [`CdclSolver::failed_assumptions`] core the clause
    /// set itself is *not* refuted — only its conjunction with the
    /// assumptions — and the solver stays usable for further calls after
    /// [`CdclSolver::reset_to_root`].
    pub fn solve_under_assumptions<T: Theory>(
        &mut self,
        assumptions: &[Lit],
        theory: &mut T,
    ) -> SatOutcome {
        self.failed.clear();
        if self.unsat_at_root {
            self.log_refutation();
            return SatOutcome::Unsat;
        }
        if let Some(log) = &mut self.progress {
            log.started = log.clock.now();
        }
        // Feed root-level units to the theory before starting.
        let mut restarts = 0u64;
        let mut conflicts_until_restart = 100 * Self::luby(1);
        let mut conflicts_since_restart = 0u64;
        let mut max_learned = 4000usize;
        // Budget polling: every 64th propagate/decide round, starting with
        // the very first so an already-expired deadline interrupts before
        // any search happens.
        let limited = self.budget.is_limited();
        let mut rounds = 0u64;
        loop {
            if limited && rounds & 63 == 0 {
                if let Some(why) = self.budget.exhausted() {
                    return SatOutcome::Unknown(why);
                }
            }
            rounds += 1;
            let boolean_conflict = self.propagate();
            let conflict: Option<Vec<Lit>> = if let Some(ci) = boolean_conflict {
                Some(self.clauses[ci].lits.clone())
            } else {
                match self.theory_step(theory) {
                    TheoryResult::Ok => None,
                    TheoryResult::Interrupted => {
                        // The theory's own budget check fired (shared with
                        // ours, so re-reading it names the reason; both
                        // conditions are monotone).
                        let why =
                            self.budget.exhausted().unwrap_or(Interrupt::Timeout);
                        return SatOutcome::Unknown(why);
                    }
                    TheoryResult::Conflict(expl) => {
                        self.counters.theory_conflicts += 1;
                        // Explanation lits are all true; the conflict clause
                        // is their negation.
                        let cl: Vec<Lit> = expl.into_iter().map(|l| !l).collect();
                        if let Some(p) = &mut self.proof {
                            p.log_theory_lemma(cl.clone(), theory.take_certificate());
                        }
                        Some(cl)
                    }
                }
            };
            match conflict {
                Some(cl) => {
                    self.counters.conflicts += 1;
                    conflicts_since_restart += 1;
                    // Guard: ensure the conflict involves the current level
                    // (always true for Boolean conflicts; theory conflicts
                    // could in principle be older). A conflict among root
                    // literals refutes the clause database itself.
                    let max_level = cl
                        .iter()
                        .map(|l| self.level[l.var() as usize] as usize)
                        .max()
                        .unwrap_or(0);
                    if self.trail_lim.is_empty() || max_level == 0 {
                        self.unsat_at_root = true;
                        self.log_refutation();
                        return SatOutcome::Unsat;
                    }
                    if max_level < self.trail_lim.len() {
                        self.backtrack(max_level, theory);
                    }
                    let (learnt, bj) = self.analyze(cl);
                    if let Some(p) = &mut self.proof {
                        p.log_learned(learnt.clone());
                    }
                    self.backtrack(bj, theory);
                    if learnt.len() == 1 {
                        self.enqueue(learnt[0], None);
                    } else {
                        let ci = self.attach_clause(Clause {
                            lits: learnt.clone(),
                            learned: true,
                            activity: self.clause_inc,
                        });
                        self.counters.learned_clauses += 1;
                        self.enqueue(learnt[0], Some(ci));
                    }
                    self.decay_activities();
                }
                None => {
                    if conflicts_since_restart >= conflicts_until_restart {
                        restarts += 1;
                        self.counters.restarts += 1;
                        conflicts_since_restart = 0;
                        conflicts_until_restart = 100 * Self::luby(restarts + 1);
                        self.backtrack(0, theory);
                        continue;
                    }
                    if self.counters.learned_clauses as usize > max_learned {
                        self.reduce_db();
                        max_learned += 500;
                    }
                    // Decision-boundary budget poll (same masked trick as the
                    // simplex pivot loop): a satisfiable instance that makes
                    // millions of decisions with few conflicts must still
                    // observe its deadline, and the round counter alone can
                    // lag when propagation queues run long. The progress
                    // sampler shares this boundary (and its masking) so
                    // sampling adds no clock reads to unsampled solves.
                    if self.counters.decisions & 63 == 0 {
                        if limited {
                            if let Some(why) = self.budget.exhausted() {
                                return SatOutcome::Unknown(why);
                            }
                        }
                        if self.progress.is_some() {
                            self.record_progress(theory.pivot_count());
                        }
                    }
                    // Place pending assumptions before branching: the next
                    // assumption to place is indexed by the current decision
                    // level, so restarts and backjumps that strip assumption
                    // levels re-place them here.
                    let placed = self.trail_lim.len();
                    if placed < assumptions.len() {
                        let a = assumptions[placed];
                        match self.lit_value(a) {
                            LBool::True => {
                                // Already satisfied: open a vacuous level so
                                // the level count keeps indexing assumptions.
                                theory.on_new_level();
                                self.trail_lim.push(self.trail.len());
                            }
                            LBool::False => {
                                let core = self.analyze_final(a);
                                if let Some(p) = &mut self.proof {
                                    p.log_learned(core.clone());
                                }
                                self.failed = core;
                                return SatOutcome::Unsat;
                            }
                            LBool::Undef => {
                                theory.on_new_level();
                                self.trail_lim.push(self.trail.len());
                                self.enqueue(a, None);
                            }
                        }
                    } else if let Some(v) = self.pick_branch() {
                        self.counters.decisions += 1;
                        theory.on_new_level();
                        self.trail_lim.push(self.trail.len());
                        let phase = self.saved_phase[v as usize];
                        self.enqueue(Lit::with_polarity(v, phase), None);
                    } else {
                        // Fully assigned and theory-consistent.
                        return SatOutcome::Sat;
                    }
                }
            }
        }
    }
}

/// A theory that accepts everything — turns the solver into plain SAT
/// for the unit tests.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTheory;

#[cfg(test)]
impl Theory for NullTheory {
    fn on_new_level(&mut self) {}
    fn on_backtrack(&mut self, _n_levels: usize) {}
    fn on_assert(&mut self, _lit: Lit) -> TheoryResult {
        TheoryResult::Ok
    }
    fn check(&mut self) -> TheoryResult {
        TheoryResult::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lp(v: SatVar) -> Lit {
        Lit::positive(v)
    }
    fn ln(v: SatVar) -> Lit {
        Lit::negative(v)
    }

    #[test]
    fn trivially_sat() {
        let mut s = CdclSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(vec![lp(a), lp(b)]);
        s.add_clause(vec![ln(a)]);
        assert_eq!(s.solve(&mut NullTheory), SatOutcome::Sat);
        assert_eq!(s.value(a), LBool::False);
        assert_eq!(s.value(b), LBool::True);
    }

    /// Regression: a zero-duration budget must return `Unknown` before the
    /// search makes a single decision — both the round-counter poll at the
    /// loop top and the decision-boundary poll fire on their first pass.
    #[test]
    fn zero_budget_interrupts_before_any_search() {
        let mut s = CdclSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(vec![lp(a), lp(b)]);
        s.add_clause(vec![lp(a), ln(b)]);
        s.set_budget(Budget::with_timeout(std::time::Duration::ZERO));
        assert_eq!(
            s.solve(&mut NullTheory),
            SatOutcome::Unknown(Interrupt::Timeout)
        );
        assert_eq!(s.counters().decisions, 0);
        // With the budget lifted the same solver finishes the search.
        s.set_budget(Budget::unlimited());
        assert_eq!(s.solve(&mut NullTheory), SatOutcome::Sat);
    }

    #[test]
    fn trivially_unsat() {
        let mut s = CdclSolver::new();
        let a = s.new_var();
        s.add_clause(vec![lp(a)]);
        s.add_clause(vec![ln(a)]);
        assert_eq!(s.solve(&mut NullTheory), SatOutcome::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = CdclSolver::new();
        let _ = s.new_var();
        s.add_clause(vec![]);
        assert_eq!(s.solve(&mut NullTheory), SatOutcome::Unsat);
    }

    #[test]
    fn tautology_ignored() {
        let mut s = CdclSolver::new();
        let a = s.new_var();
        s.add_clause(vec![lp(a), ln(a)]);
        assert_eq!(s.solve(&mut NullTheory), SatOutcome::Sat);
    }

    #[test]
    fn pigeonhole_two_in_one_unsat() {
        // 2 pigeons, 1 hole: p0h0, p1h0, ¬p0h0 ∨ ¬p1h0.
        let mut s = CdclSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(vec![lp(a)]);
        s.add_clause(vec![lp(b)]);
        s.add_clause(vec![ln(a), ln(b)]);
        assert_eq!(s.solve(&mut NullTheory), SatOutcome::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // Pigeon i in hole j: var(i,j) = i*2+j; 3 pigeons, 2 holes.
        let mut s = CdclSolver::new();
        let mut v = vec![];
        for _ in 0..6 {
            v.push(s.new_var());
        }
        let var = |i: usize, j: usize| v[i * 2 + j];
        for i in 0..3 {
            s.add_clause(vec![lp(var(i, 0)), lp(var(i, 1))]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(vec![ln(var(i1, j)), ln(var(i2, j))]);
                }
            }
        }
        assert_eq!(s.solve(&mut NullTheory), SatOutcome::Unsat);
    }

    #[test]
    fn chain_implication_forces_assignment() {
        // x0 ∧ (x_i → x_{i+1}) forces all true.
        let mut s = CdclSolver::new();
        let n = 50;
        let vars: Vec<SatVar> = (0..n).map(|_| s.new_var()).collect();
        s.add_clause(vec![lp(vars[0])]);
        for i in 0..n - 1 {
            s.add_clause(vec![ln(vars[i]), lp(vars[i + 1])]);
        }
        assert_eq!(s.solve(&mut NullTheory), SatOutcome::Sat);
        for &v in &vars {
            assert_eq!(s.value(v), LBool::True);
        }
    }

    /// Brute-force cross-check on random 3-SAT instances.
    #[test]
    fn random_3sat_matches_brute_force() {
        let mut state = 0xdead_beef_cafe_f00du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..60 {
            let n_vars = 6;
            let n_clauses = 3 + (next() % 22) as usize;
            let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
            for _ in 0..n_clauses {
                let mut cl = Vec::new();
                for _ in 0..3 {
                    cl.push(((next() % n_vars as u64) as usize, next() % 2 == 0));
                }
                clauses.push(cl);
            }
            // Brute force.
            let mut brute_sat = false;
            'outer: for m in 0..(1u32 << n_vars) {
                for cl in &clauses {
                    if !cl.iter().any(|&(v, pos)| ((m >> v) & 1 == 1) == pos) {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // CDCL.
            let mut s = CdclSolver::new();
            let vars: Vec<SatVar> = (0..n_vars).map(|_| s.new_var()).collect();
            for cl in &clauses {
                s.add_clause(
                    cl.iter()
                        .map(|&(v, pos)| Lit::with_polarity(vars[v], pos))
                        .collect(),
                );
            }
            let got = s.solve(&mut NullTheory) == SatOutcome::Sat;
            assert_eq!(got, brute_sat, "round {round} clauses {clauses:?}");
            if got {
                // Verify the model actually satisfies every clause.
                for cl in &clauses {
                    assert!(cl.iter().any(|&(v, pos)| {
                        (s.value(vars[v]) == LBool::True) == pos
                    }));
                }
            }
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<u64> = (1..=15).map(CdclSolver::luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    /// A theory that only counts push/pop balance, to pin level lockstep.
    #[derive(Debug, Default)]
    struct LevelCounter {
        depth: i64,
    }

    impl Theory for LevelCounter {
        fn on_new_level(&mut self) {
            self.depth += 1;
        }
        fn on_backtrack(&mut self, n_levels: usize) {
            self.depth -= n_levels as i64;
            assert!(self.depth >= 0, "backtrack below root");
        }
        fn on_assert(&mut self, _lit: Lit) -> TheoryResult {
            TheoryResult::Ok
        }
        fn check(&mut self) -> TheoryResult {
            TheoryResult::Ok
        }
    }

    /// Regression: a `Sat` return must not leave a dangling theory level
    /// (the old code opened the level before discovering there was nothing
    /// left to branch on). A persistent core would carry that level into
    /// the next check and misattribute root bound asserts to it.
    #[test]
    fn sat_then_reset_leaves_theory_at_root() {
        let mut s = CdclSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(vec![lp(a), lp(b)]);
        let mut th = LevelCounter::default();
        assert_eq!(s.solve(&mut th), SatOutcome::Sat);
        s.reset_to_root(&mut th);
        assert_eq!(th.depth, 0, "theory levels must unwind to root");
    }

    #[test]
    fn assumptions_select_branch_and_failed_core_is_minimal() {
        // (a ∨ b) with assumption ¬a forces b; assumption set {¬a, ¬b}
        // fails with a core naming both.
        let mut s = CdclSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(vec![lp(a), lp(b)]);
        let mut th = NullTheory;
        assert_eq!(s.solve_under_assumptions(&[ln(a)], &mut th), SatOutcome::Sat);
        assert_eq!(s.value(a), LBool::False);
        assert_eq!(s.value(b), LBool::True);
        assert!(s.failed_assumptions().is_empty());

        s.reset_to_root(&mut th);
        assert_eq!(
            s.solve_under_assumptions(&[ln(a), ln(b)], &mut th),
            SatOutcome::Unsat
        );
        let mut core = s.failed_assumptions().to_vec();
        core.sort_unstable();
        let mut want = vec![lp(a), lp(b)];
        want.sort_unstable();
        assert_eq!(core, want, "core = negations of both assumptions");

        // The same solver answers again after a reset: the instance is
        // satisfiable without assumptions.
        s.reset_to_root(&mut th);
        assert_eq!(s.solve(&mut th), SatOutcome::Sat);
        assert!(s.failed_assumptions().is_empty());
    }

    #[test]
    fn root_false_assumption_yields_unit_core() {
        let mut s = CdclSolver::new();
        let a = s.new_var();
        s.add_clause(vec![lp(a)]);
        let mut th = NullTheory;
        assert_eq!(
            s.solve_under_assumptions(&[ln(a)], &mut th),
            SatOutcome::Unsat
        );
        assert_eq!(s.failed_assumptions(), &[lp(a)]);
    }

    #[test]
    fn genuine_unsat_under_assumptions_has_empty_core() {
        let mut s = CdclSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(vec![lp(a)]);
        s.add_clause(vec![ln(a)]);
        assert_eq!(
            s.solve_under_assumptions(&[lp(b)], &mut NullTheory),
            SatOutcome::Unsat
        );
        assert!(s.failed_assumptions().is_empty());
    }

    #[test]
    fn contradictory_assumptions_fail_without_clauses() {
        let mut s = CdclSolver::new();
        let a = s.new_var();
        let _ = s.new_var();
        let mut th = NullTheory;
        assert_eq!(
            s.solve_under_assumptions(&[lp(a), ln(a)], &mut th),
            SatOutcome::Unsat
        );
        let core = s.failed_assumptions();
        assert_eq!(core.len(), 2);
        assert!(core.contains(&lp(a)) && core.contains(&ln(a)));
    }

    #[test]
    fn purge_literal_removes_guarded_clauses_only() {
        let mut s = CdclSolver::new();
        let act = s.new_var();
        let a = s.new_var();
        let b = s.new_var();
        // Guarded: act → (a ∧ b); unguarded: a ∨ b.
        s.add_clause(vec![ln(act), lp(a)]);
        s.add_clause(vec![ln(act), lp(b)]);
        s.add_clause(vec![lp(a), lp(b)]);
        assert_eq!(s.num_clauses(), 3);
        s.add_clause(vec![ln(act)]); // retirement unit
        assert_eq!(s.purge_literal(ln(act)), 2);
        assert_eq!(s.num_clauses(), 1);
        // The survivor still constrains the search.
        let mut th = NullTheory;
        assert_eq!(
            s.solve_under_assumptions(&[ln(a), ln(b)], &mut th),
            SatOutcome::Unsat
        );
        s.reset_to_root(&mut th);
        assert_eq!(s.solve_under_assumptions(&[ln(a)], &mut th), SatOutcome::Sat);
        assert_eq!(s.value(b), LBool::True);
    }

    /// Assumption-driven solves under a brute-force cross-check, reusing
    /// one solver across rounds with learned clauses retained throughout.
    #[test]
    fn random_3sat_under_assumptions_matches_brute_force() {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n_vars = 6usize;
        let mut s = CdclSolver::new();
        let vars: Vec<SatVar> = (0..n_vars).map(|_| s.new_var()).collect();
        let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
        for _ in 0..14 {
            let mut cl = Vec::new();
            for _ in 0..3 {
                cl.push(((next() % n_vars as u64) as usize, next() % 2 == 0));
            }
            clauses.push(cl.clone());
            s.add_clause(
                cl.iter()
                    .map(|&(v, pos)| Lit::with_polarity(vars[v], pos))
                    .collect(),
            );
        }
        let mut th = NullTheory;
        for round in 0..40 {
            // Random assumption set over a random subset of variables.
            let mask = (next() % (1 << n_vars)) as u32;
            let vals = (next() % (1 << n_vars)) as u32;
            let assumptions: Vec<Lit> = (0..n_vars)
                .filter(|&v| (mask >> v) & 1 == 1)
                .map(|v| Lit::with_polarity(vars[v], (vals >> v) & 1 == 1))
                .collect();
            let mut brute_sat = false;
            'outer: for m in 0..(1u32 << n_vars) {
                for v in 0..n_vars {
                    if (mask >> v) & 1 == 1 && ((m >> v) & 1) != ((vals >> v) & 1) {
                        continue 'outer;
                    }
                }
                for cl in &clauses {
                    if !cl.iter().any(|&(v, pos)| ((m >> v) & 1 == 1) == pos) {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            s.reset_to_root(&mut th);
            let got = s.solve_under_assumptions(&assumptions, &mut th);
            assert_eq!(
                got == SatOutcome::Sat,
                brute_sat,
                "round {round} mask {mask:b} vals {vals:b}"
            );
            match got {
                SatOutcome::Sat => {
                    for &l in &assumptions {
                        assert_eq!(s.lit_value(l), LBool::True);
                    }
                    for cl in &clauses {
                        assert!(cl.iter().any(|&(v, pos)| {
                            (s.value(vars[v]) == LBool::True) == pos
                        }));
                    }
                }
                SatOutcome::Unsat => {
                    // Core lits are negated assumptions.
                    for l in s.failed_assumptions() {
                        assert!(
                            assumptions.contains(&!*l),
                            "core literal {l:?} is not a negated assumption"
                        );
                    }
                }
                SatOutcome::Unknown(_) => panic!("unlimited budget"),
            }
        }
    }
}
