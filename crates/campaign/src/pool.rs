//! The work-stealing execution engine.
//!
//! Jobs are distributed round-robin over per-worker deques; a worker pops
//! its own deque from the front and, when empty, steals from the *back*
//! of a sibling's deque (the classic stealing discipline: owners and
//! thieves contend on opposite ends). Everything is standard-library —
//! scoped threads plus per-deque mutexes — because the job granularity
//! (whole SMT checks, milliseconds to seconds) makes lock-free deques
//! pointless here.
//!
//! # Instance reuse
//!
//! Each worker keeps one [`VerifySession`] per `(case, topology)` pair it
//! encounters, so the scenario-independent base encoding (line semantics,
//! alteration linking, `cz → cb`) is asserted once per worker and every
//! job only pays for its own variant delta — the solver's incremental
//! base cache does the heavy lifting underneath.
//!
//! # Determinism
//!
//! A job's deterministic outputs (verdict, witness, stats) depend only on
//! its spec: sessions hand every check a fresh clone of the same base
//! encoding, so neither the executing worker nor the order of jobs on
//! that worker can leak into the results. The aggregated report is sorted
//! by job id. Only the `timing` fields (wall clock, worker id) vary
//! between runs.
//!
//! # Deadlines
//!
//! A verification job's deadline becomes a [`Budget`] polled in every
//! solver phase — Tseitin/cardinality encoding, the CDCL conflict and
//! decision loops, and the simplex pivot loop — so an exhausted budget
//! surfaces as `unknown(timeout)` rather than a hung worker, even when
//! the job never leaves the encoding phase. Synthesis
//! jobs apply the deadline to each embedded verification check (the
//! CEGIS loop re-checks feasibility many times; a per-check deadline
//! bounds each step, and a timed-out check ends the job as
//! `inconclusive`).

use crate::report::{CampaignReport, JobResult, Verdict};
use crate::spec::{CampaignSpec, JobKind};
use sta_core::attack::{AttackOutcome, AttackVerifier, VerifySession};
use sta_core::synthesis::{Synthesizer, SynthesisOutcome};
use sta_estimator::PowerFlowError;
use sta_smt::{flatten_spans, Budget, Clock, Profiler, SharedSink, TraceEvent};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How a campaign run observes itself. All fields are timing-class: they
/// change what the report's `timing` keys and the trace stream carry,
/// never the deterministic results.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Worker-pool size (clamped to `1..=jobs`).
    pub workers: usize,
    /// The time source for every wall-clock reading the engine takes —
    /// run total, per-job walls, and span trees. Tests inject
    /// [`sta_smt::Clock::fake`] to make timing exact.
    pub clock: Clock,
    /// Attach a span profiler to every job, collecting per-job
    /// encode/search/simplex (and CEGIS iterate/select) span trees into
    /// [`JobResult::spans`].
    pub profile: bool,
    /// Enable sampled solver progress timelines on verification jobs
    /// (conflict/restart/pivot rates over the search; see
    /// [`sta_smt::ProgressSample`]).
    pub progress: bool,
    /// Emit a campaign-level [`TraceEvent::Heartbeat`] into the trace
    /// sink at this cadence while jobs run (one is always emitted
    /// immediately at run start so even sub-period campaigns show
    /// liveness). Ignored when no sink is attached. `None` disables the
    /// monitor thread entirely.
    pub heartbeat: Option<Duration>,
}

impl RunOptions {
    /// Options for a plain run on `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        RunOptions { workers, ..RunOptions::default() }
    }
}

/// Runs every job of `spec` on a pool of `workers` threads and aggregates
/// the results by job id.
///
/// `workers` is clamped to `1..=jobs`; `run(spec, 1)` executes the whole
/// campaign on one worker thread (the baseline the determinism tests
/// compare against).
pub fn run(spec: &CampaignSpec, workers: usize) -> CampaignReport {
    run_with(spec, &RunOptions::with_workers(workers), None)
}

/// Like [`run`], additionally streaming [`TraceEvent`]s into `sink` as
/// jobs complete (the `--trace` JSONL backend).
///
/// Each finished job's events — `job-start`, three `phase` records, and
/// `job-end` — are emitted in one batch so they stay contiguous in the
/// stream; the relative order of *different* jobs follows completion and
/// is therefore nondeterministic, like every other timing-class quantity.
/// The report itself is identical to [`run`]'s.
pub fn run_traced(
    spec: &CampaignSpec,
    workers: usize,
    sink: Option<&SharedSink>,
) -> CampaignReport {
    run_with(spec, &RunOptions::with_workers(workers), sink)
}

/// The fully-optioned engine entry point: worker count, clock injection,
/// span profiling, and progress sampling (see [`RunOptions`]), plus an
/// optional trace sink.
pub fn run_with(
    spec: &CampaignSpec,
    options: &RunOptions,
    sink: Option<&SharedSink>,
) -> CampaignReport {
    let start = options.clock.now();
    let n_jobs = spec.jobs.len();
    let workers = options.workers.clamp(1, n_jobs.max(1));
    if let Some(sink) = sink {
        sink.emit(&TraceEvent::RunStart { name: spec.name.clone(), jobs: n_jobs });
    }
    // Round-robin initial distribution: job j starts on worker j % W.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..n_jobs).step_by(workers).collect()))
        .collect();
    let buckets: Vec<Mutex<Vec<JobResult>>> =
        (0..workers).map(|_| Mutex::new(Vec::new())).collect();

    let finished = std::sync::atomic::AtomicUsize::new(0);
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        use std::sync::atomic::Ordering;
        let stop = &stop;
        let finished = &finished;
        // The heartbeat monitor runs beside the workers: it owns no jobs,
        // only reads the shared done-counter and the clock, and is stopped
        // (and joined by the scope) once every worker has drained.
        if let (Some(sink), Some(period)) = (sink, options.heartbeat) {
            let clock = options.clock.clone();
            scope.spawn(move || loop {
                let elapsed = clock.now().saturating_sub(start);
                sink.emit(&TraceEvent::Heartbeat {
                    done: finished.load(Ordering::Relaxed),
                    total: n_jobs,
                    elapsed_us: elapsed.as_micros() as u64,
                });
                // Sleep in short slices so the stop flag is noticed well
                // before a long period elapses.
                let mut waited = Duration::ZERO;
                while waited < period {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let slice = Duration::from_millis(10).min(period - waited);
                    std::thread::sleep(slice);
                    waited += slice;
                }
                if stop.load(Ordering::Relaxed) {
                    return;
                }
            });
        }
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let queues = &queues;
                let buckets = &buckets;
                scope.spawn(move || {
                    let mut sessions: BTreeMap<(usize, bool), VerifySession> =
                        BTreeMap::new();
                    let mut done = Vec::new();
                    while let Some(job) = next_job(queues, w) {
                        let result = execute(spec, job, w, &mut sessions, options);
                        if let Some(sink) = sink {
                            sink.emit_all(&job_events(&result));
                        }
                        finished.fetch_add(1, Ordering::Relaxed);
                        done.push(result);
                    }
                    let mut bucket = lock(&buckets[w]);
                    bucket.extend(done);
                })
            })
            .collect();
        let mut panicked = None;
        for h in handles {
            if let Err(payload) = h.join() {
                panicked = Some(payload);
            }
        }
        // Raise the stop flag before re-raising any worker panic: the
        // scope joins the monitor during unwind, and it only exits once
        // the flag is up.
        stop.store(true, Ordering::Relaxed);
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
    });

    let mut results: Vec<JobResult> = buckets
        .into_iter()
        .flat_map(|b| b.into_inner().unwrap_or_else(|e| e.into_inner()))
        .collect();
    results.sort_unstable_by_key(|r| r.id);
    let report = CampaignReport {
        name: spec.name.clone(),
        workers,
        total_wall: options.clock.now().saturating_sub(start),
        results,
    };
    if let Some(sink) = sink {
        sink.emit(&TraceEvent::RunEnd {
            name: spec.name.clone(),
            wall_us: report.total_wall.as_micros() as u64,
        });
    }
    report
}

/// The trace-event batch of one finished job: `job-start`, a `phase`
/// record per phase (with wall clock where tracked), `job-end`.
fn job_events(result: &JobResult) -> Vec<TraceEvent> {
    let mut events = vec![TraceEvent::JobStart {
        job: result.id,
        label: result.label.clone(),
        case: result.case.clone(),
    }];
    if let Some(metrics) = &result.metrics {
        for (phase, mut counters) in metrics.grouped() {
            let wall_us = result
                .phase_wall
                .as_ref()
                .and_then(|pw| pw.wall_of(phase))
                .map(|d| d.as_micros() as u64);
            // The trace is observational, so the scheduling-dependent
            // cache counters belong here even though the deterministic
            // report excludes them.
            if let (sta_smt::Phase::Encode, Some(pw)) = (phase, &result.phase_wall) {
                counters.push(("cache_hits", pw.cache_hits));
                counters.push(("cache_misses", pw.cache_misses));
            }
            if let (sta_smt::Phase::Search, Some(pw)) = (phase, &result.phase_wall) {
                counters.push(("refactorizations", pw.refactorizations));
            }
            events.push(TraceEvent::Phase { job: result.id, phase, counters, wall_us });
        }
    }
    if let Some(spans) = &result.spans {
        for (path, node) in flatten_spans(spans) {
            events.push(TraceEvent::Span {
                job: result.id,
                path,
                count: node.count,
                incl_us: node.inclusive.as_micros() as u64,
                excl_us: node.exclusive().as_micros() as u64,
            });
        }
    }
    if let Some(stats) = &result.stats {
        for sample in &stats.progress {
            events.push(TraceEvent::Progress {
                job: result.id,
                at_us: sample.at.as_micros() as u64,
                counters: sample.counters(),
            });
        }
    }
    events.push(TraceEvent::JobEnd {
        job: result.id,
        verdict: result.verdict.token().to_string(),
        wall_us: result.wall.as_micros() as u64,
    });
    events
}

/// Locks a mutex, shrugging off poisoning: a panicking sibling worker
/// already propagates through the thread scope, and job results are
/// append-only, so the guarded data is never half-updated.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Pops the next job: own deque front first, then steal a sibling's back.
fn next_job(queues: &[Mutex<VecDeque<usize>>], me: usize) -> Option<usize> {
    if let Some(job) = lock(&queues[me]).pop_front() {
        return Some(job);
    }
    for offset in 1..queues.len() {
        let victim = (me + offset) % queues.len();
        if let Some(job) = lock(&queues[victim]).pop_back() {
            return Some(job);
        }
    }
    None
}

/// Executes one job on this worker, reusing or creating the worker's
/// session for the job's `(case, topology)` key.
fn execute(
    spec: &CampaignSpec,
    job_id: usize,
    worker: usize,
    sessions: &mut BTreeMap<(usize, bool), VerifySession>,
    options: &RunOptions,
) -> JobResult {
    let job = &spec.jobs[job_id];
    let case = &spec.cases[job.case];
    let timeout = spec.effective_timeout_ms(job);
    // One clock read per boundary: the job wall is `end − started`, never
    // a second `elapsed()` that could disagree with other readings taken
    // for the same row.
    let started = options.clock.now();
    // A fresh per-job profiler keeps span trees attributable to one job;
    // the report merges them by name for the campaign-level view.
    let profiler = options
        .profile
        .then(|| Profiler::with_clock(options.clock.clone()));
    let mut result = JobResult {
        id: job_id,
        label: job.label.clone(),
        case: case.name.clone(),
        verdict: Verdict::Unsat,
        witness: None,
        architecture: None,
        iterations: None,
        stats: None,
        metrics: None,
        phase_wall: None,
        spans: None,
        wall: Duration::ZERO,
        worker,
    };
    match &job.kind {
        JobKind::Verify(model) => {
            let key = (job.case, model.allow_topology_attack);
            let session = match sessions.entry(key) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => match AttackVerifier::new(&case.system) {
                    Ok(verifier) => e.insert(VerifySession::with_verifier(
                        verifier.with_certify(spec.certify).with_simplex(spec.simplex),
                        model.allow_topology_attack,
                    )),
                    Err(err) => return unanchored(result, err, options, started),
                },
            };
            if let Some(p) = &profiler {
                session.set_profiler(p.clone());
            }
            session.set_progress_sampling(options.progress);
            // The budget starts ticking at job start, not spec build.
            let budget = match timeout {
                Some(ms) => Budget::with_timeout(Duration::from_millis(ms)),
                None => Budget::unlimited(),
            };
            let report = session.verify_with_budget(model, &budget);
            result.metrics = Some(report.stats.phase_metrics());
            result.phase_wall = Some(report.stats.phase_timings());
            result.stats = Some(report.stats);
            result.verdict = match report.outcome {
                AttackOutcome::Feasible(v) => {
                    result.witness = Some(*v);
                    Verdict::Sat
                }
                AttackOutcome::Infeasible => Verdict::Unsat,
                AttackOutcome::Unknown(why) => Verdict::Unknown(why),
            };
        }
        JobKind::Synthesize { attacker, config } => {
            let mut synth = match Synthesizer::new(&case.system) {
                Ok(synth) => synth.with_certify(spec.certify).with_simplex(spec.simplex),
                Err(err) => return unanchored(result, err, options, started),
            };
            if let Some(p) = &profiler {
                synth = synth.with_profiler(p.clone());
            }
            let mut attacker = attacker.clone();
            if attacker.timeout_ms.is_none() {
                attacker.timeout_ms = timeout;
            }
            // The campaign-wide A/B switch can only downgrade a job to the
            // clone-per-check baseline, never force a core on a job whose
            // own config opted out.
            let mut config = config.clone();
            config.incremental &= spec.incremental;
            let (outcome, obs) = synth.synthesize_with_metrics(&attacker, &config);
            result.metrics = Some(obs.metrics);
            result.phase_wall = Some(obs.timings);
            result.verdict = match outcome {
                SynthesisOutcome::Architecture(a) => {
                    result.iterations = Some(a.iterations);
                    result.architecture = Some(a.secured_buses);
                    Verdict::Architecture
                }
                SynthesisOutcome::NoSolution { iterations } => {
                    result.iterations = Some(iterations);
                    Verdict::NoSolution
                }
                SynthesisOutcome::Inconclusive { iterations } => {
                    result.iterations = Some(iterations);
                    Verdict::Inconclusive
                }
            };
        }
    }
    if let Some(p) = &profiler {
        result.spans = Some(p.take());
    }
    result.wall = options.clock.now().saturating_sub(started);
    result
}

/// Closes `result` as a job whose case has no operating point: nothing
/// ran, so only the verdict and the wall are set.
fn unanchored(
    mut result: JobResult,
    err: PowerFlowError,
    options: &RunOptions,
    started: Duration,
) -> JobResult {
    result.verdict = Verdict::NoOperatingPoint(err);
    result.wall = options.clock.now().saturating_sub(started);
    result
}

/// A queued unit of foreign work: the closure receives the index of the
/// worker that executes it.
type ForeignJob = Box<dyn FnOnce(usize) + Send + 'static>;

/// Why [`ServicePool::submit`] refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — admission control rejected the job.
    /// The caller should shed load (the service layer answers
    /// `overloaded`) rather than block.
    Overloaded,
    /// The pool is draining or closed; no new work is accepted.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded => f.write_str("queue full (overloaded)"),
            SubmitError::Closed => f.write_str("pool closed"),
        }
    }
}

struct PoolState {
    /// Per-worker deques, same stealing discipline as [`run_with`]:
    /// owners pop their own front, thieves take a sibling's back.
    queues: Vec<VecDeque<ForeignJob>>,
    /// Round-robin submission cursor.
    next: usize,
    /// Jobs queued but not yet picked up — the admission-control gauge.
    pending: usize,
    /// Admission bound: `submit` rejects once `pending` reaches this.
    capacity: usize,
    closed: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    ready: Condvar,
}

/// A persistent work-stealing pool accepting *foreign* jobs — arbitrary
/// boxed closures — with bounded admission.
///
/// [`run_with`] executes one campaign and tears its threads down; a
/// long-running service instead keeps this pool alive across requests and
/// submits each request as a job. The scheduling discipline is the same
/// (per-worker deques, owner-front pop, sibling-back steal); the
/// difference is the bounded queue: once `capacity` jobs are waiting,
/// [`ServicePool::submit`] fails fast with [`SubmitError::Overloaded`]
/// instead of queueing unboundedly — explicit load shedding for the
/// service layer's admission control.
///
/// Dropping the pool (or calling [`ServicePool::close`]) stops accepting
/// work, lets queued jobs finish, and joins the worker threads.
pub struct ServicePool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ServicePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = lock(&self.shared.state);
        f.debug_struct("ServicePool")
            .field("workers", &self.handles.len())
            .field("pending", &state.pending)
            .field("closed", &state.closed)
            .finish()
    }
}

impl ServicePool {
    /// Spawns a pool of `workers` threads (at least one) whose queue
    /// admits at most `capacity` not-yet-started jobs (at least one).
    pub fn new(workers: usize, capacity: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queues: (0..workers).map(|_| VecDeque::new()).collect(),
                next: 0,
                pending: 0,
                capacity: capacity.max(1),
                closed: false,
            }),
            ready: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, w))
            })
            .collect();
        ServicePool { shared, handles }
    }

    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Jobs queued but not yet started (the admission-control gauge; the
    /// job currently running on each worker is not counted).
    pub fn pending(&self) -> usize {
        lock(&self.shared.state).pending
    }

    /// Submits a job, failing fast when the pool is full or closed. The
    /// job lands on the next worker's deque round-robin and may be stolen
    /// by an idle sibling. At most the constructor's `capacity` jobs wait
    /// at any instant, however many clients race.
    pub fn submit(
        &self,
        job: impl FnOnce(usize) + Send + 'static,
    ) -> Result<(), SubmitError> {
        let mut state = lock(&self.shared.state);
        if state.closed {
            return Err(SubmitError::Closed);
        }
        if state.pending >= state.capacity {
            return Err(SubmitError::Overloaded);
        }
        let w = state.next % state.queues.len();
        state.next = state.next.wrapping_add(1);
        state.queues[w].push_back(Box::new(job));
        state.pending += 1;
        drop(state);
        self.shared.ready.notify_one();
        Ok(())
    }

    /// Stops accepting work, runs every already-queued job to completion,
    /// and joins the workers. Equivalent to dropping the pool, but
    /// explicit at service-drain call sites.
    pub fn close(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.closed = true;
        }
        self.shared.ready.notify_all();
        for h in self.handles.drain(..) {
            // A panicked worker already surfaced its panic through the
            // job; nothing further to do with the join result.
            let _ = h.join();
        }
    }
}

impl Drop for ServicePool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker: pop own front, steal sibling back, sleep when idle, exit
/// when closed and drained.
fn worker_loop(shared: &PoolShared, me: usize) {
    let mut state = lock(&shared.state);
    loop {
        let job = {
            let n = state.queues.len();
            match state.queues[me].pop_front() {
                Some(job) => Some(job),
                None => (1..n)
                    .filter_map(|offset| state.queues[(me + offset) % n].pop_back())
                    .next(),
            }
        };
        match job {
            Some(job) => {
                state.pending -= 1;
                drop(state);
                job(me);
                state = lock(&shared.state);
            }
            None if state.closed => return,
            None => {
                state = shared
                    .ready
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sta_core::attack::{AttackModel, StateTarget};
    use sta_grid::{ieee14, BusId};

    fn tiny_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::new("tiny");
        let c = spec.add_case("ieee14", ieee14::system());
        spec.verify(
            c,
            "open",
            AttackModel::new(14).target(BusId(11), StateTarget::MustChange),
        );
        spec.verify(c, "blocked", AttackModel::new(14).max_altered_measurements(0));
        spec.verify(
            c,
            "capped",
            AttackModel::new(14)
                .target(BusId(7), StateTarget::MustChange)
                .max_altered_measurements(10),
        );
        spec
    }

    #[test]
    fn runs_all_jobs_and_sorts_by_id() {
        let spec = tiny_spec();
        let report = run(&spec, 2);
        assert_eq!(report.results.len(), 3);
        let ids: Vec<usize> = report.results.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(report.results[0].verdict, Verdict::Sat);
        assert!(report.results[0].witness.is_some());
        assert_eq!(report.results[1].verdict, Verdict::Unsat);
        assert_eq!(report.results[2].verdict, Verdict::Sat);
    }

    #[test]
    fn worker_count_is_clamped() {
        let spec = tiny_spec();
        let report = run(&spec, 64);
        assert_eq!(report.workers, 3);
        let report = run(&spec, 0);
        assert_eq!(report.workers, 1);
    }

    #[test]
    fn empty_campaign_yields_empty_report() {
        let spec = CampaignSpec::new("empty");
        let report = run(&spec, 4);
        assert!(report.results.is_empty());
        assert_eq!(report.summary(), Vec::<(&str, usize)>::new());
    }

    #[test]
    fn heartbeat_monitor_emits_at_least_one_event() {
        let spec = tiny_spec();
        let collect = sta_smt::CollectSink::new();
        let shared = SharedSink::new(Box::new(collect.clone()));
        let mut options = RunOptions::with_workers(2);
        options.heartbeat = Some(Duration::from_millis(5));
        let report = run_with(&spec, &options, Some(&shared));
        assert_eq!(report.results.len(), 3);
        let events = collect.events();
        let heartbeats: Vec<(usize, usize)> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Heartbeat { done, total, .. } => Some((*done, *total)),
                _ => None,
            })
            .collect();
        // One heartbeat fires unconditionally at run start, so even a
        // campaign faster than the period shows liveness.
        assert!(!heartbeats.is_empty());
        for (done, total) in heartbeats {
            assert_eq!(total, 3);
            assert!(done <= 3);
        }
    }

    #[test]
    fn service_pool_runs_jobs_on_every_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = ServicePool::new(3, 64);
        assert_eq!(pool.workers(), 3);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..24 {
            let counter = Arc::clone(&counter);
            pool.submit(move |_w| {
                counter.fetch_add(1, Ordering::SeqCst);
            })
            .expect("pool accepts under capacity");
        }
        pool.close();
        assert_eq!(counter.load(Ordering::SeqCst), 24);
    }

    #[test]
    fn service_pool_sheds_load_past_capacity() {
        use std::sync::mpsc;
        let pool = ServicePool::new(1, 1);
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        pool.submit(move |_w| {
            let _ = started_tx.send(());
            let _ = release_rx.recv();
        })
        .expect("first job admitted");
        // Wait until the blocker occupies the only worker, then fill the
        // one queue slot; the next submit must be rejected, not queued.
        started_rx.recv().expect("blocker started");
        pool.submit(|_w| {}).expect("one job may wait");
        assert_eq!(pool.submit(|_w| {}), Err(SubmitError::Overloaded));
        assert_eq!(pool.pending(), 1);
        release_tx.send(()).expect("release the blocker");
        pool.close();
    }

    #[test]
    fn closed_service_pool_rejects_and_drains() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = Arc::new(AtomicUsize::new(0));
        let pool = ServicePool::new(2, 16);
        for _ in 0..8 {
            let counter = Arc::clone(&counter);
            pool.submit(move |_w| {
                counter.fetch_add(1, Ordering::SeqCst);
            })
            .expect("admitted");
        }
        pool.close();
        // All queued jobs ran before close returned.
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }
}
