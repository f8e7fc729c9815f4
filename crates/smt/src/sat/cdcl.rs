//! Conflict-driven clause-learning SAT solver with a DPLL(T) theory hook.
//!
//! A self-contained CDCL core: two-watched-literal propagation, 1-UIP
//! conflict analysis, VSIDS branching with phase saving, Luby restarts and
//! learned-clause database reduction. A [`Theory`] plugged into
//! [`CdclSolver::solve`] receives assigned literals and may veto assignments
//! with explanations, which the solver turns into learned clauses — the
//! standard DPLL(T) integration used by the LRA solver in [`crate::simplex`].
//!
//! The core is flat: every clause lives in one `u32` arena and every
//! literal's watch list is a span of one shared watch buffer, so cloning
//! a solver (how [`crate::Solver`] gives each check its own core) copies
//! a few contiguous buffers instead of one allocation per clause and per
//! watch list. Binary clauses are watched inline — the watch's blocker is
//! the other literal — so propagating them never reads the arena.

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

/// Header bit: the clause was learned, and its activity follows the header.
const LEARNED: u32 = 1;
/// Header bit: the clause is marked for removal by the next compaction.
const DELETED: u32 = 2;
/// The header keeps the clause length above its two flag bits.
const LEN_SHIFT: u32 = 2;
/// Tag bit on a watch's clause reference: a binary clause, whose other
/// literal is the watch's blocker. Arena offsets stay below it.
const BINARY: u32 = 1 << 31;
/// The `reason` of a decision, an assumption or a root unit, and the
/// forwarding entry of a clause removed by compaction.
const NO_REASON: u32 = u32::MAX;
/// Room of a watch list's first span, as `Vec` starts 8-byte elements.
const FIRST_ROOM: usize = 4;

/// Every clause in one buffer of `u32` words, referenced by the offset of
/// its header. A clause is a header word (length above the `LEARNED` and
/// `DELETED` bits), a learned clause's `f64` activity as two words (low
/// half first), then its literal codes. Clauses sit in the order they
/// were added; compaction keeps that order.
#[derive(Debug, Clone, Default)]
struct ClauseArena {
    words: Vec<u32>,
}

impl ClauseArena {
    /// Appends a clause and returns its reference; `activity` is `Some`
    /// exactly for a learned clause.
    fn push(&mut self, lits: &[Lit], activity: Option<f64>) -> u32 {
        // Keeps every reference below the `BINARY` tag and every length
        // inside its 30 header bits; verdicts depend on both.
        assert!(self.words.len() + 3 + lits.len() <= 1 << 30, "clause arena outgrew 2^30 words");
        let cr = self.words.len() as u32;
        self.words.push(((lits.len() as u32) << LEN_SHIFT) | u32::from(activity.is_some()));
        if let Some(a) = activity {
            let bits = a.to_bits();
            self.words.push(bits as u32);
            self.words.push((bits >> 32) as u32);
        }
        self.words.extend(lits.iter().map(|l| l.code()));
        cr
    }

    fn len(&self, cr: u32) -> usize {
        (self.words[cr as usize] >> LEN_SHIFT) as usize
    }

    fn is_learned(&self, cr: u32) -> bool {
        self.words[cr as usize] & LEARNED != 0
    }

    /// Offset of the clause's first literal.
    fn lits_at(&self, cr: u32) -> usize {
        cr as usize + 1 + 2 * (self.words[cr as usize] & LEARNED) as usize
    }

    fn lit(&self, cr: u32, k: usize) -> Lit {
        Lit::from_code(self.words[self.lits_at(cr) + k])
    }

    /// The clause's literal codes.
    fn codes(&self, cr: u32) -> &[u32] {
        let at = self.lits_at(cr);
        &self.words[at..at + self.len(cr)]
    }

    fn lits(&self, cr: u32) -> Vec<Lit> {
        self.codes(cr).iter().map(|&c| Lit::from_code(c)).collect()
    }

    /// Offset of the clause after `cr`.
    fn next(&self, cr: u32) -> u32 {
        (self.lits_at(cr) + self.len(cr)) as u32
    }

    /// Every clause reference, in order.
    fn refs(&self) -> impl Iterator<Item = u32> + '_ {
        let end = self.words.len() as u32;
        std::iter::successors((end > 0).then_some(0), move |&cr| {
            let next = self.next(cr);
            (next < end).then_some(next)
        })
    }

    fn activity(&self, cr: u32) -> f64 {
        let at = cr as usize + 1;
        f64::from_bits(u64::from(self.words[at]) | u64::from(self.words[at + 1]) << 32)
    }

    fn set_activity(&mut self, cr: u32, a: f64) {
        let at = cr as usize + 1;
        let bits = a.to_bits();
        self.words[at] = bits as u32;
        self.words[at + 1] = (bits >> 32) as u32;
    }

    fn mark_deleted(&mut self, cr: u32) {
        self.words[cr as usize] |= DELETED;
    }
}

/// One watch: the clause it belongs to (`BINARY`-tagged for a two-literal
/// clause) and a blocker literal whose truth satisfies the clause.
#[derive(Debug, Clone, Copy)]
struct Watch {
    cref: u32,
    blocker: Lit,
}

/// Filler of a watch span's unused room.
const ROOM: Watch = Watch { cref: NO_REASON, blocker: Lit::from_code(0) };

/// One literal's watch list: `len` watches at `buf[start..]`, inside
/// `cap` slots of room.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

/// Every literal's watch list as a span of one shared buffer. A full list
/// moves to the end of the buffer with doubled room, copying its watches
/// in order and abandoning its old room. A list's order thus only ever
/// changes by `push` and `swap_remove`, exactly as a `Vec`'s. The rooms a
/// list abandoned halve back from its current one, so they sum to less
/// than it: abandoned room never exceeds live room, with no repacking.
#[derive(Debug, Clone, Default)]
struct WatchLists {
    buf: Vec<Watch>,
    /// Indexed by [`Lit::index`]: the watches of clauses containing `¬lit`,
    /// visited when `lit` becomes true.
    spans: Vec<Span>,
}

impl WatchLists {
    fn add_var(&mut self) {
        self.spans.push(Span::default());
        self.spans.push(Span::default());
    }

    fn len(&self, l: usize) -> usize {
        self.spans[l].len as usize
    }

    fn get(&self, l: usize, i: usize) -> Watch {
        self.buf[self.spans[l].start as usize + i]
    }

    fn set_blocker(&mut self, l: usize, i: usize, blocker: Lit) {
        self.buf[self.spans[l].start as usize + i].blocker = blocker;
    }

    fn swap_remove(&mut self, l: usize, i: usize) {
        let s = &mut self.spans[l];
        s.len -= 1;
        let (start, last) = (s.start as usize, s.len as usize);
        self.buf[start + i] = self.buf[start + last];
    }

    fn push(&mut self, l: usize, w: Watch) {
        if self.spans[l].len == self.spans[l].cap {
            self.grow(l);
        }
        let s = &mut self.spans[l];
        self.buf[(s.start + s.len) as usize] = w;
        s.len += 1;
    }

    /// Doubles a full list's room: in place when it ends the buffer,
    /// otherwise by moving it to the end.
    fn grow(&mut self, l: usize) {
        let s = self.spans[l];
        let (start, len) = (s.start as usize, s.len as usize);
        let cap = (2 * s.cap as usize).max(FIRST_ROOM);
        let to = if start + s.cap as usize == self.buf.len() { start } else { self.buf.len() };
        assert!(to + cap <= u32::MAX as usize, "watch buffer outgrew its 32-bit offsets");
        if to != start {
            self.buf.extend_from_within(start..start + len);
        }
        self.buf.resize(to + cap, ROOM);
        self.spans[l] = Span { start: to as u32, len: s.len, cap: cap as u32 };
    }

    /// Empties every list, keeping its room.
    fn clear(&mut self) {
        for s in &mut self.spans {
            s.len = 0;
        }
    }
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
/// Apart from the proof log, a clone copies flat buffers only.
#[derive(Debug, Clone)]
pub struct CdclSolver {
    arena: ClauseArena,
    /// Clauses in the arena (original + learned).
    num_clauses: usize,
    watches: WatchLists,
    assign: Vec<LBool>,
    level: Vec<u32>,
    /// The clause that implied each assigned variable, or `NO_REASON`.
    reason: Vec<u32>,
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
            arena: ClauseArena::default(),
            num_clauses: 0,
            watches: WatchLists::default(),
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
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.saved_phase.push(false);
        self.seen.push(false);
        self.is_theory_var.push(false);
        self.watches.add_var();
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
        self.num_clauses
    }

    /// Snapshot of the stored clause database (root-simplified originals
    /// plus learned clauses; root units are not included). Used by the
    /// encoding-level linter to look for duplicate and subsumed clauses.
    /// A binary clause's two literals may come in either order.
    pub fn clause_list(&self) -> Vec<Vec<Lit>> {
        self.arena.refs().map(|cr| self.arena.lits(cr)).collect()
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
                self.enqueue(lits[0], NO_REASON);
                if self.propagate().is_some() {
                    self.unsat_at_root = true;
                }
            }
            _ => {
                self.attach_clause(&lits, None);
            }
        }
    }

    /// Stores a clause of at least two literals and watches its first two.
    fn attach_clause(&mut self, lits: &[Lit], activity: Option<f64>) -> u32 {
        let cr = self.arena.push(lits, activity);
        self.watch_clause(cr, lits[0], lits[1], lits.len() == 2);
        self.num_clauses += 1;
        cr
    }

    fn watch_clause(&mut self, cr: u32, w0: Lit, w1: Lit, binary: bool) {
        let cref = if binary { cr | BINARY } else { cr };
        self.watches.push((!w0).index(), Watch { cref, blocker: w1 });
        self.watches.push((!w1).index(), Watch { cref, blocker: w0 });
    }

    fn enqueue(&mut self, lit: Lit, reason: u32) {
        debug_assert_eq!(self.lit_value(lit), LBool::Undef);
        let v = lit.var() as usize;
        self.assign[v] = if lit.is_positive() { LBool::True } else { LBool::False };
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(lit);
        self.counters.propagations += 1;
    }

    /// The clause that implied `v`, if any.
    fn reason_of(&self, v: usize) -> Option<u32> {
        let r = self.reason[v];
        (r != NO_REASON).then_some(r)
    }

    /// Unit propagation; returns the literals of a conflicting clause if
    /// any. A binary conflict comes back as `[other, ¬p]`, the long
    /// clause's stored literal order otherwise.
    fn propagate(&mut self) -> Option<Vec<Lit>> {
        // analysis: no-poll(bounded by trail growth; the search loop polls per conflict)
        while self.prop_head < self.trail.len() {
            let p = self.trail[self.prop_head];
            self.prop_head += 1;
            let widx = p.index();
            let false_lit = !p;
            let mut i = 0;
            // analysis: no-poll(bounded by the watch list of one literal)
            'watches: while i < self.watches.len(widx) {
                let watch = self.watches.get(widx, i);
                let blocker = self.lit_value(watch.blocker);
                if blocker == LBool::True {
                    i += 1;
                    continue;
                }
                if watch.cref & BINARY != 0 {
                    if blocker == LBool::False {
                        self.prop_head = self.trail.len();
                        return Some(vec![watch.blocker, false_lit]);
                    }
                    self.enqueue(watch.blocker, watch.cref & !BINARY);
                    i += 1;
                    continue;
                }
                let cr = watch.cref;
                let at = self.arena.lits_at(cr);
                let len = self.arena.len(cr);
                let lits = &mut self.arena.words[at..at + len];
                // Normalize: watched literal ¬p must be at position 1.
                if lits[0] == false_lit.code() {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit.code());
                let first = Lit::from_code(lits[0]);
                if first != watch.blocker && self.lit_value(first) == LBool::True {
                    self.watches.set_blocker(widx, i, first);
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..len {
                    let cand = Lit::from_code(self.arena.words[at + k]);
                    if self.lit_value(cand) != LBool::False {
                        self.arena.words.swap(at + 1, at + k);
                        self.watches.swap_remove(widx, i);
                        self.watches.push((!cand).index(), Watch { cref: cr, blocker: first });
                        continue 'watches;
                    }
                }
                // Clause is unit or conflicting.
                if self.lit_value(first) == LBool::False {
                    self.prop_head = self.trail.len();
                    return Some(self.arena.lits(cr));
                }
                self.enqueue(first, cr);
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
            self.reason[v] = NO_REASON;
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

    /// One literal of a clause under 1-UIP analysis: marks and bumps its
    /// variable the first time it is met above the root, counting it if
    /// it sits on the conflict level and keeping it for the learned
    /// clause otherwise.
    fn analyze_lit(&mut self, q: Lit, current: u32, counter: &mut usize, learnt: &mut Vec<Lit>) {
        let v = q.var() as usize;
        if !self.seen[v] && self.level[v] > 0 {
            self.seen[v] = true;
            self.bump_var(q.var());
            if self.level[v] >= current {
                *counter += 1;
            } else {
                learnt.push(q);
            }
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
        for q in conflict {
            self.analyze_lit(q, current, &mut counter, &mut learnt);
        }
        let p: Lit;
        // analysis: no-poll(1-UIP resolution, each step unmarks one trail literal)
        loop {
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
            let cr = self.reason_of(v).expect("non-decision literal has a reason");
            self.bump_clause(cr);
            for k in 0..self.arena.len(cr) {
                let q = self.arena.lit(cr, k);
                if q != pl {
                    self.analyze_lit(q, current, &mut counter, &mut learnt);
                }
            }
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

    fn bump_clause(&mut self, cr: u32) {
        if !self.arena.is_learned(cr) {
            return;
        }
        let a = self.arena.activity(cr) + self.clause_inc;
        self.arena.set_activity(cr, a);
        if a > 1e20 {
            let learned: Vec<_> = self.arena.refs().filter(|&c| self.arena.is_learned(c)).collect();
            for c in learned {
                self.arena.set_activity(c, self.arena.activity(c) * 1e-20);
            }
            self.clause_inc *= 1e-20;
        }
    }

    /// Removes the least active half of the learned clauses.
    fn reduce_db(&mut self) {
        let mut learned: Vec<u32> = self
            .arena
            .refs()
            .filter(|&cr| {
                self.arena.is_learned(cr) && self.arena.len(cr) > 2 && !self.is_reason(cr)
            })
            .collect();
        // Stable, over the exact activity bits: equal activities keep
        // clause order.
        learned.sort_by(|&a, &b| self.arena.activity(a).total_cmp(&self.arena.activity(b)));
        let remove = &learned[..learned.len() / 2];
        if remove.is_empty() {
            return;
        }
        // Deletions are logged in the sorted activity order of the keep
        // decision, so the DRAT proof stream is byte-stable across runs.
        for &cr in remove {
            if let Some(p) = &mut self.proof {
                p.log_delete(self.arena.lits(cr));
            }
            self.arena.mark_deleted(cr);
        }
        self.compact_clauses();
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
        let remove: Vec<u32> = self
            .arena
            .refs()
            .filter(|&cr| self.arena.codes(cr).contains(&lit.code()))
            .collect();
        if remove.is_empty() {
            return 0;
        }
        for &cr in &remove {
            if let Some(p) = &mut self.proof {
                if self.arena.is_learned(cr) {
                    p.log_delete(self.arena.lits(cr));
                }
            }
            self.arena.mark_deleted(cr);
        }
        self.compact_clauses();
        remove.len() as u64
    }

    /// Drops the clauses marked deleted: compacts the arena in clause
    /// order, rewatches every survivor in that order and remaps reason
    /// references. A reason pointing at a removed clause is cleared —
    /// only possible for root-level assignments (reduce_db never removes
    /// reasons; purge_literal runs at root), whose reasons are never
    /// consulted again. Shared by [`CdclSolver::reduce_db`] and
    /// [`CdclSolver::purge_literal`].
    fn compact_clauses(&mut self) {
        // The old arena turns into a forwarding table: each header word
        // is overwritten with the clause's new offset, or `NO_REASON`.
        let mut old = std::mem::take(&mut self.arena);
        self.arena.words.reserve(old.words.len());
        self.watches.clear();
        let (mut clauses, mut learned) = (0, 0);
        for cr in old.refs().collect::<Vec<_>>() {
            let at = cr as usize;
            if old.words[at] & DELETED != 0 {
                old.words[at] = NO_REASON;
                continue;
            }
            let to = self.arena.words.len() as u32;
            self.arena.words.extend_from_slice(&old.words[at..old.next(cr) as usize]);
            self.watch_clause(to, old.lit(cr, 0), old.lit(cr, 1), old.len(cr) == 2);
            clauses += 1;
            learned += u64::from(old.is_learned(cr));
            old.words[at] = to;
        }
        self.num_clauses = clauses;
        self.counters.learned_clauses = learned;
        for (v, r) in self.reason.iter_mut().enumerate() {
            if *r != NO_REASON {
                *r = old.words[*r as usize];
                debug_assert!(*r != NO_REASON || self.level[v] == 0);
            }
        }
        #[cfg(feature = "certify-debug")]
        self.audit_core();
    }

    /// Audits the flat core: every clause is watched exactly twice, from
    /// its literals at positions 0 and 1; a watch is tagged binary exactly
    /// when its clause has two literals, and then its blocker is the other
    /// one; spans lie inside the watch buffer without overlapping, and
    /// abandoned room never exceeds live room; a long reason clause holds
    /// its implied literal at position 0. Compiled only under the
    /// `certify-debug` feature and called at each propagation fixpoint of
    /// the search and after every compaction.
    ///
    /// # Panics
    /// Panics on the first violated invariant — a solver bug.
    #[cfg(feature = "certify-debug")]
    fn audit_core(&self) {
        let (arena, watches) = (&self.arena, &self.watches);
        // Per header offset: bit 2 marks a clause, bits 0 and 1 a watch
        // from its literal at position 0 and 1.
        let mut seen = vec![0u8; arena.words.len()];
        let mut clauses = 0;
        for cr in arena.refs() {
            assert!(arena.len(cr) >= 2, "clause {cr} shorter than two literals");
            assert_eq!(arena.words[cr as usize] & DELETED, 0, "clause {cr} left marked deleted");
            seen[cr as usize] = 4;
            clauses += 1;
        }
        assert_eq!(clauses, self.num_clauses, "clause count out of step with the arena");
        for (l, s) in watches.spans.iter().enumerate() {
            assert!(s.len <= s.cap, "span of literal {l} holds more than its room");
            let end = (s.start + s.cap) as usize;
            assert!(end <= watches.buf.len(), "span of literal {l} ends outside the buffer");
            let watched = !Lit::from_code(l as u32);
            for i in 0..s.len as usize {
                let w = watches.get(l, i);
                let cr = w.cref & !BINARY;
                let known = seen.get(cr as usize).is_some_and(|b| b & 4 != 0);
                assert!(known, "watch of literal {l} names no clause");
                let len = arena.len(cr);
                assert_eq!(w.cref & BINARY != 0, len == 2, "binary tag of clause {cr}");
                let k = usize::from(arena.lit(cr, 0) != watched);
                assert_eq!(arena.lit(cr, k), watched, "clause {cr} watched off positions 0 and 1");
                let other = arena.lit(cr, 1 - k);
                assert!(len > 2 || w.blocker == other, "blocker of binary clause {cr}");
                assert_eq!(seen[cr as usize] & (1 << k), 0, "clause {cr} watched twice from {k}");
                seen[cr as usize] |= 1 << k;
            }
        }
        for cr in arena.refs() {
            assert_eq!(seen[cr as usize], 7, "clause {cr} not watched from positions 0 and 1");
        }
        let room = |s: &Span| (s.start, s.start + s.cap);
        let mut rooms: Vec<_> = watches.spans.iter().map(room).filter(|r| r.0 < r.1).collect();
        rooms.sort_unstable();
        assert!(rooms.windows(2).all(|p| p[0].1 <= p[1].0), "watch spans overlap");
        let live: usize = watches.spans.iter().map(|s| s.cap as usize).sum();
        assert!(watches.buf.len() - live <= live, "abandoned watch room exceeds live room");
        for &l in &self.trail {
            let Some(cr) = self.reason_of(l.var() as usize) else { continue };
            assert_eq!(seen.get(cr as usize), Some(&7), "reason of {l} names no clause");
            let leads = arena.len(cr) == 2 || arena.lit(cr, 0) == l;
            assert!(leads, "long reason clause {cr} does not lead with {l}");
        }
    }

    /// Closes the proof with the empty clause (every `Unsat` return).
    fn log_refutation(&mut self) {
        if let Some(p) = &mut self.proof {
            p.log_learned(Vec::new());
        }
    }

    fn is_reason(&self, cr: u32) -> bool {
        let first = self.arena.lit(cr, 0);
        self.reason[first.var() as usize] == cr && self.lit_value(first) == LBool::True
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
            match self.reason_of(v) {
                None => out.push(!q),
                Some(cr) => {
                    for k in 0..self.arena.len(cr) {
                        let l = self.arena.lit(cr, k);
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
            #[cfg(feature = "certify-debug")]
            if boolean_conflict.is_none() {
                self.audit_core();
            }
            let conflict: Option<Vec<Lit>> = match boolean_conflict {
                Some(cl) => Some(cl),
                None => match self.theory_step(theory) {
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
                },
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
                        self.enqueue(learnt[0], NO_REASON);
                    } else {
                        let cr = self.attach_clause(&learnt, Some(self.clause_inc));
                        self.counters.learned_clauses += 1;
                        self.enqueue(learnt[0], cr);
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
                                self.enqueue(a, NO_REASON);
                            }
                        }
                    } else if let Some(v) = self.pick_branch() {
                        self.counters.decisions += 1;
                        theory.on_new_level();
                        self.trail_lim.push(self.trail.len());
                        let phase = self.saved_phase[v as usize];
                        self.enqueue(Lit::with_polarity(v, phase), NO_REASON);
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

    /// `purge_literal` over learned clauses with proof logging on: under
    /// the assumption `act`, a 6-into-5 pigeonhole whose "some hole"
    /// clauses carry `¬act` is refuted, so every learned clause carries
    /// `¬act` too. Retiring `act` deletes them as logged proof steps, and
    /// the unguarded refutation that follows on the same solver still
    /// replays.
    #[test]
    fn purged_learned_clauses_keep_the_proof_certifiable() {
        use crate::certify::{check_unsat_proof, TheoryContext};
        use crate::sat::ProofStep;
        let (pigeons, holes) = (6, 5);
        let mut s = CdclSolver::new();
        s.enable_proof();
        let act = s.new_var();
        let x: Vec<Vec<SatVar>> =
            (0..pigeons).map(|_| (0..holes).map(|_| s.new_var()).collect()).collect();
        for (p1, a) in x.iter().enumerate() {
            for b in &x[p1 + 1..] {
                for (&u, &v) in a.iter().zip(b) {
                    s.add_clause(vec![ln(u), ln(v)]); // at most one pigeon per hole
                }
            }
        }
        let some_hole = |p: usize| -> Vec<Lit> { x[p].iter().map(|&v| lp(v)).collect() };
        for p in 0..pigeons {
            s.add_clause([vec![ln(act)], some_hole(p)].concat());
        }
        let mut th = NullTheory;
        assert_eq!(s.solve_under_assumptions(&[lp(act)], &mut th), SatOutcome::Unsat);
        assert_eq!(s.failed_assumptions(), &[ln(act)]);
        let learned = s.counters().learned_clauses;
        assert!(learned > 0, "the guarded refutation learned nothing");
        s.reset_to_root(&mut th);
        s.add_clause(vec![ln(act)]);
        assert_eq!(s.purge_literal(ln(act)), pigeons as u64 + learned);
        assert_eq!(s.counters().learned_clauses, 0);
        for p in 0..pigeons {
            s.add_clause(some_hole(p));
        }
        assert_eq!(s.solve(&mut th), SatOutcome::Unsat);
        let proof = s.proof().expect("proof logging on");
        let deleted = proof.steps.iter().filter(|s| matches!(s, ProofStep::Delete(_))).count();
        assert_eq!(deleted as u64, learned, "every purged learned clause is logged");
        check_unsat_proof(proof, &TheoryContext::default()).expect("the proof replays");
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
