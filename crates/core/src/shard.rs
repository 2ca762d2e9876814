//! The worker body every serving link runs, plus a thin in-process pool
//! over it.
//!
//! `aa-solve serve` has one supervisor (the front-end event loop in
//! `aa-cli`) over worker slots that run on one of two links: a solver
//! thread fed already-built problems over a channel (`serve`,
//! `serve --shards N`), or a child process speaking frames on its pipes
//! (`serve --fleet N`). Both links drive the same [`Worker`], which owns
//! the one solve step:
//!
//! * a [`TieredSolver`] (ladder plus circuit breaker) behind its
//!   `catch_unwind` boundary, so a panicking solve answers
//!   [`SolveError::Panicked`] and the worker keeps serving;
//! * per-stream [`WarmState`] with FIFO eviction beyond
//!   [`ShardConfig::max_streams`] (a fresh worker simply cold-solves
//!   each stream once, bit-identically);
//! * the deadline: a job whose deadline passed while it was queued is
//!   answered [`ShardError::Expired`] without a solve, and a live one
//!   solves against a [`Budget`] of the time it has left;
//! * the fault schedule: [`Fault`]s keyed on the worker's *cumulative*
//!   solve sequence number (which the supervisor carries across
//!   restarts), so a seeded storm fires each fault exactly once no
//!   matter how threads and pipes interleave.
//!
//! [`ShardPool`] is `N` thread links with no supervisor at all: keyed
//! jobs route by the consistent-hash [`Ring`], key-less ones round-robin,
//! and every job gets one [`ShardCompletion`] through the caller's
//! callback. Crash replay, restarts, retirement and draining belong to
//! the serve front-end, not to this module.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aa_obs::Registry;
use serde::{Deserialize, Serialize};

use crate::budget::Budget;
use crate::incremental::WarmState;
use crate::problem::Problem;
use crate::ring::Ring;
use crate::solver::SolveError;
use crate::tiered::{Tier, TieredSolve, TieredSolver};

/// A fault a worker injects against itself at a scheduled cumulative
/// solve sequence number (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum Fault {
    /// Die before solving, as if SIGKILLed: a process exits, a thread
    /// returns. The supervisor replays whatever the worker held.
    Kill,
    /// Sleep this long before solving. A process also stops answering
    /// heartbeats meanwhile, so a stall past the supervisor's tolerance
    /// gets it killed and restarted; a thread link has no heartbeat, so
    /// on a thread this is only a slow solve.
    Stall {
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// A process writes a truncated frame and exits (the framing
    /// violation must read as a crash); a thread link has no frames and
    /// dies as for [`Fault::Kill`].
    Garbage,
    /// Answer this job as a contained solver panic
    /// ([`SolveError::Panicked`]); the worker keeps serving.
    Panic,
}

/// Callback invoked with every completion. Must not panic.
pub type CompletionFn = Arc<dyn Fn(ShardCompletion) + Send + Sync>;

/// Solver settings for a [`Worker`], and the width of a [`ShardPool`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Worker threads in a [`ShardPool`] (clamped to at least 1).
    pub shards: usize,
    /// Per-thread queue capacity of a [`ShardPool`]; a full queue
    /// rejects with [`SubmitError::QueueFull`].
    pub queue: usize,
    /// Cap on retained warm streams per worker (FIFO eviction).
    pub max_streams: usize,
    /// Consecutive-failure threshold for the tier breaker (see
    /// [`TieredSolver::breaker`]).
    pub breaker_threshold: u32,
    /// Cooldown, in requests, of the tier breaker.
    pub breaker_cooldown: u64,
    /// Tier ladder; `None` uses the full default ladder. The warm
    /// incremental path only engages on the [`Tier::Algo2`] rung, so
    /// latency-bound callers typically want `[Algo2, Uu]`.
    pub ladder: Option<Vec<Tier>>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            queue: 16,
            max_streams: 1024,
            breaker_threshold: crate::tiered::DEFAULT_BREAKER_THRESHOLD,
            breaker_cooldown: crate::tiered::DEFAULT_BREAKER_COOLDOWN,
            ladder: None,
        }
    }
}

/// One admitted solve request.
#[derive(Debug, Clone)]
pub struct ShardJob {
    /// Caller-assigned sequence number, echoed in the completion.
    pub seq: u64,
    /// Stream id for warm-state locality; `None` is a one-off.
    pub stream: Option<u64>,
    /// The problem to solve.
    pub problem: Problem,
    /// Absolute deadline; a job still queued past it completes with
    /// [`ShardError::Expired`].
    pub deadline: Option<Instant>,
    /// When the job reached the worker's link (queue wait is measured
    /// from here).
    pub arrived: Instant,
}

impl ShardJob {
    /// Build a job stamped with the current time.
    pub fn new(seq: u64, stream: Option<u64>, problem: Problem, deadline: Option<Instant>) -> Self {
        ShardJob { seq, stream, problem, deadline, arrived: Instant::now() }
    }
}

/// Why a job completed without an answer.
#[derive(Debug)]
pub enum ShardError {
    /// The solve itself failed (including [`SolveError::Panicked`] from
    /// a contained solver panic).
    Solve(SolveError),
    /// The deadline passed while the job sat in a queue.
    Expired,
}

impl ShardError {
    /// The serve tier's stable error class for this failure.
    pub fn class(&self) -> &'static str {
        match self {
            ShardError::Expired
            | ShardError::Solve(SolveError::DeadlineExceeded | SolveError::Cancelled) => "deadline",
            ShardError::Solve(SolveError::Panicked(_)) => "solve_panic",
            ShardError::Solve(_) => "solve",
        }
    }
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Solve(e) => write!(f, "{e}"),
            ShardError::Expired => write!(f, "deadline expired before the solve started"),
        }
    }
}

impl std::error::Error for ShardError {}

/// One answered job.
#[derive(Debug)]
pub struct ShardCompletion {
    /// The caller's sequence number from [`ShardJob::seq`].
    pub seq: u64,
    /// The job's stream id.
    pub stream: Option<u64>,
    /// Index of the worker that answered.
    pub shard: usize,
    /// Microseconds queued before the solve started.
    pub waited_micros: u64,
    /// Microseconds spent solving.
    pub solve_micros: u64,
    /// The solve result.
    pub outcome: Result<TieredSolve, ShardError>,
}

/// The worker body: one solver, its warm streams and its fault schedule.
/// See the module docs.
pub struct Worker {
    index: usize,
    solver: TieredSolver,
    warm: HashMap<Option<u64>, WarmState>,
    warm_order: VecDeque<Option<u64>>,
    max_streams: usize,
    faults: Vec<(u64, Fault)>,
    /// Cumulative solve sequence number of the last popped job.
    solve_seq: u64,
}

impl Worker {
    /// A fresh worker (fresh breaker, no warm streams) for slot `index`.
    /// `faults` is the slot's whole schedule; `solve_seq` is the
    /// cumulative solve count earlier incarnations already consumed.
    pub fn new(index: usize, cfg: &ShardConfig, faults: Vec<(u64, Fault)>, solve_seq: u64) -> Self {
        let solver = match &cfg.ladder {
            Some(ladder) => TieredSolver::with_ladder(ladder.clone()),
            None => TieredSolver::new(),
        }
        .breaker(cfg.breaker_threshold, cfg.breaker_cooldown);
        Worker {
            index,
            solver,
            warm: HashMap::new(),
            warm_order: VecDeque::new(),
            max_streams: cfg.max_streams.max(1),
            faults,
            solve_seq,
        }
    }

    /// The one solve step. Counts the job against the fault schedule
    /// first: a scheduled [`Fault::Kill`] or [`Fault::Garbage`] returns
    /// `Err(fault)` unsolved (the link must die its own way), a stall
    /// calls `stall`, a [`Fault::Panic`] answers as a contained panic.
    /// Otherwise the job expires or solves with its warm stream state.
    pub fn step(
        &mut self,
        job: &ShardJob,
        stall: impl FnOnce(Duration),
    ) -> Result<ShardCompletion, Fault> {
        self.solve_seq += 1;
        let fault = self
            .faults
            .iter()
            .find(|&&(seq, _)| seq == self.solve_seq)
            .map(|&(_, fault)| fault);
        match fault {
            Some(f @ (Fault::Kill | Fault::Garbage)) => return Err(f),
            Some(Fault::Stall { millis }) => stall(Duration::from_millis(millis)),
            Some(Fault::Panic) | None => {}
        }
        let started = Instant::now();
        let outcome = if job.deadline.is_some_and(|d| started >= d) {
            Err(ShardError::Expired)
        } else {
            let budget = match job.deadline {
                Some(d) => Budget::with_deadline(d.saturating_duration_since(started)),
                None => Budget::unlimited(),
            };
            // The stream's warm state, evicting the oldest at the cap.
            if self.warm.len() >= self.max_streams && !self.warm.contains_key(&job.stream) {
                if let Some(old) = self.warm_order.pop_front() {
                    self.warm.remove(&old);
                }
            }
            let order = &mut self.warm_order;
            let state = self.warm.entry(job.stream).or_insert_with(|| {
                order.push_back(job.stream);
                WarmState::new()
            });
            if fault == Some(Fault::Panic) {
                // A contained panic leaves the stream's state suspect.
                state.invalidate();
                Err(SolveError::Panicked(format!(
                    "chaos: injected solve panic on worker {}",
                    self.index
                )))
            } else {
                self.solver.try_solve_within_caught(&job.problem, &budget, Some(state))
            }
            .map_err(ShardError::Solve)
        };
        Ok(ShardCompletion {
            seq: job.seq,
            stream: job.stream,
            shard: self.index,
            waited_micros: started.saturating_duration_since(job.arrived).as_micros() as u64,
            solve_micros: started.elapsed().as_micros() as u64,
            outcome,
        })
    }
}

/// Run a worker over a thread link: answer jobs until the channel
/// closes (`Ok`), or until a scheduled [`Fault::Kill`] /
/// [`Fault::Garbage`] ends the thread early (`Err(fault)`; the job that
/// triggered it and everything still queued go unanswered).
pub fn serve_jobs(
    worker: &mut Worker,
    jobs: &Receiver<ShardJob>,
    mut complete: impl FnMut(ShardCompletion),
) -> Result<(), Fault> {
    loop {
        // Wake at least every 2 ms: under CPU contention a worker parked
        // with no timeout was measured to pick a dispatched job up
        // milliseconds late — long enough, alone, to expire a 1 ms
        // deadline.
        match jobs.recv_timeout(Duration::from_millis(2)) {
            Ok(job) => complete(worker.step(&job, std::thread::sleep)?),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
}

/// Why [`ShardPool::submit`] rejected a job (no completion will follow).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The routed worker's queue is full.
    QueueFull {
        /// The worker whose queue was full.
        shard: usize,
    },
    /// The routed worker thread is gone.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { shard } => write!(f, "shard {shard} queue full"),
            SubmitError::Closed => write!(f, "shard worker thread is gone"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// `N` worker threads behind a ring router, without supervision. See the
/// module docs.
pub struct ShardPool {
    jobs: Vec<SyncSender<ShardJob>>,
    threads: Vec<JoinHandle<()>>,
    ring: Ring,
    next_cold: AtomicUsize,
}

impl ShardPool {
    /// Spawn `cfg.shards` worker threads. Completions are delivered
    /// through `complete`, possibly from several threads at once; it must
    /// not panic. Each worker counts its successful solves in
    /// `aa_fleet_worker_solves_total{worker=…}` on `registry`.
    pub fn new(cfg: ShardConfig, registry: &Registry, complete: CompletionFn) -> Self {
        let n = cfg.shards.max(1);
        let mut jobs = Vec::with_capacity(n);
        let mut threads = Vec::with_capacity(n);
        for index in 0..n {
            let (tx, rx) = mpsc::sync_channel(cfg.queue.max(1));
            let solves =
                registry.counter_labeled("aa_fleet_worker_solves_total", "worker", &index.to_string());
            let complete = Arc::clone(&complete);
            let mut worker = Worker::new(index, &cfg, Vec::new(), 0);
            let thread = std::thread::Builder::new()
                .name(format!("aa-shard-{index}"))
                .spawn(move || {
                    let _ = serve_jobs(&mut worker, &rx, |c| {
                        if c.outcome.is_ok() {
                            solves.inc();
                        }
                        complete(c);
                    });
                })
                .expect("spawn shard worker thread");
            jobs.push(tx);
            threads.push(thread);
        }
        ShardPool { jobs, threads, ring: Ring::new(n), next_cold: AtomicUsize::new(0) }
    }

    /// The worker a job goes to: the stream's ring owner, or the next
    /// worker round-robin for a key-less job.
    fn route(&self, stream: Option<u64>) -> usize {
        match stream.and_then(|s| self.ring.owner(s)) {
            Some(w) => w,
            None => self.next_cold.fetch_add(1, Ordering::Relaxed) % self.jobs.len(),
        }
    }

    /// Admit a job. `Ok(())` guarantees exactly one completion later; an
    /// error guarantees none.
    pub fn submit(&self, job: ShardJob) -> Result<(), SubmitError> {
        let shard = self.route(job.stream);
        self.jobs[shard].try_send(job).map_err(|e| match e {
            TrySendError::Full(_) => SubmitError::QueueFull { shard },
            TrySendError::Disconnected(_) => SubmitError::Closed,
        })
    }

    /// Stop admitting, let every worker finish its queue (each admitted
    /// job still gets its completion), and join the threads.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.jobs.clear();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    use aa_utility::{CappedLinear, DynUtility, LogUtility, Power, Utility};

    fn arc<U: Utility + 'static>(u: U) -> DynUtility {
        Arc::new(u)
    }

    fn mixed_problem(m: usize, n: usize, seed: u64) -> Problem {
        Problem::builder(m, 12.0)
            .threads((0..n).map(|i| {
                let s = 1.0 + ((i as u64 * 5 + seed * 3) % 7) as f64;
                match i % 3 {
                    0 => arc(Power::new(s, 0.5, 12.0)),
                    1 => arc(LogUtility::new(s, 0.8, 12.0)),
                    _ => arc(CappedLinear::new(s, 4.0, 12.0)),
                }
            }))
            .build()
            .unwrap()
    }

    fn collect() -> (Arc<Mutex<Vec<ShardCompletion>>>, CompletionFn) {
        let sink = Arc::new(Mutex::new(Vec::new()));
        let hook = Arc::clone(&sink);
        (sink, Arc::new(move |c| hook.lock().unwrap().push(c)))
    }

    #[test]
    fn pool_answers_every_request_exactly_once_on_its_route() {
        let registry = Registry::new();
        let (sink, hook) = collect();
        let cfg = ShardConfig { shards: 3, queue: 64, ..ShardConfig::default() };
        let pool = ShardPool::new(cfg, &registry, hook);
        let owners: Vec<usize> = (0..7).map(|k| pool.route(Some(k))).collect();
        let total = 60u64;
        for seq in 0..total {
            let stream = if seq % 3 == 0 { None } else { Some(seq % 7) };
            pool.submit(ShardJob::new(seq, stream, mixed_problem(2, 6, seq % 4), None)).unwrap();
        }
        pool.shutdown();
        let completions = std::mem::take(&mut *sink.lock().unwrap());
        let mut seqs: Vec<u64> = completions.iter().map(|c| c.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..total).collect::<Vec<_>>(), "lost or duplicated seqs");
        for c in &completions {
            assert!(c.outcome.is_ok(), "seq {} failed: {:?}", c.seq, c.outcome);
            if let Some(k) = c.stream {
                assert_eq!(c.shard, owners[k as usize], "stream {k} solved off-route");
            }
        }
        let solves: u64 = (0..3)
            .map(|w| registry.counter_labeled("aa_fleet_worker_solves_total", "worker", &w.to_string()).get())
            .sum();
        assert_eq!(solves, total);
    }

    #[test]
    fn fault_schedule_counts_cumulative_solves() {
        let cfg = ShardConfig::default();
        let faults = vec![(3, Fault::Panic), (5, Fault::Kill), (6, Fault::Stall { millis: 7 })];
        // Two solves were consumed by an earlier incarnation: this one's
        // first job is cumulative seq 3.
        let mut worker = Worker::new(4, &cfg, faults, 2);
        let job = |seq| ShardJob::new(seq, Some(1), mixed_problem(2, 5, 0), None);
        let first = worker.step(&job(0), |_| panic!("no stall at seq 3")).unwrap();
        assert!(matches!(first.outcome, Err(ShardError::Solve(SolveError::Panicked(_)))));
        assert_eq!(first.outcome.as_ref().unwrap_err().class(), "solve_panic");
        // The worker keeps serving after a contained panic.
        assert!(worker.step(&job(1), |_| panic!("no stall at seq 4")).unwrap().outcome.is_ok());
        assert_eq!(worker.step(&job(2), |_| {}).unwrap_err(), Fault::Kill);
        let mut stalled = None;
        let after = worker.step(&job(3), |d| stalled = Some(d)).unwrap();
        assert_eq!(stalled, Some(Duration::from_millis(7)));
        assert!(after.outcome.is_ok());
    }

    #[test]
    fn expired_jobs_answer_without_a_solve_and_warm_streams_are_capped() {
        let cfg = ShardConfig { max_streams: 2, ..ShardConfig::default() };
        let mut worker = Worker::new(0, &cfg, Vec::new(), 0);
        let past = Instant::now();
        let expired = ShardJob::new(0, None, mixed_problem(2, 5, 0), Some(past));
        let c = worker.step(&expired, |_| {}).unwrap();
        assert!(matches!(c.outcome, Err(ShardError::Expired)));
        assert_eq!(c.outcome.unwrap_err().class(), "deadline");
        for stream in 0..5u64 {
            let job = ShardJob::new(stream, Some(stream), mixed_problem(2, 5, stream), None);
            assert!(worker.step(&job, |_| {}).unwrap().outcome.is_ok());
            assert!(worker.warm.len() <= 2, "warm map exceeded its cap");
        }
        assert_eq!(worker.warm_order, VecDeque::from(vec![Some(3), Some(4)]));
    }

    #[test]
    fn full_queue_rejects_at_submit_time() {
        let registry = Registry::new();
        let (sink, hook) = collect();
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock().unwrap();
        let blocker = Arc::clone(&gate);
        // Block the completion callback so the worker cannot drain.
        let hook: CompletionFn = Arc::new(move |c| {
            drop(blocker.lock().unwrap());
            hook(c);
        });
        let pool = ShardPool::new(ShardConfig { queue: 2, ..ShardConfig::default() }, &registry, hook);
        let mut rejected = 0;
        for seq in 0..8u64 {
            match pool.submit(ShardJob::new(seq, Some(3), mixed_problem(2, 5, 0), None)) {
                Ok(()) => {}
                Err(SubmitError::QueueFull { shard: 0 }) => rejected += 1,
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        assert!(rejected > 0, "a 2-deep queue never filled behind a blocked worker");
        drop(held);
        pool.shutdown();
        assert_eq!(sink.lock().unwrap().len(), 8 - rejected);
    }
}
