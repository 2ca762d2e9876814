//! Overload scenario harness: seeded open-loop arrivals against one
//! deadline-aware [`TieredSolver`] worker behind a bounded queue.
//!
//! This is the measurement companion to the CLI's `aa serve` loop: the
//! same admission/degradation mechanics, but driven by a *seeded*
//! arrival process on a virtual clock so experiments are scriptable.
//! Arrivals are open-loop (they do not slow down when the system is
//! busy — the regime where an unbounded queue makes every deadline
//! unmeetable), starting with a `burst` at t=0 that deterministically
//! overwhelms a queue of depth `queue`.
//!
//! The clock is hybrid: arrival times and queueing delays are virtual
//! milliseconds, while each admitted request's service time is the
//! *measured* wall time of its budgeted solve — the solver really is
//! given only what remains of the request's deadline after queueing.
//!
//! The report answers the three robustness questions from the paper's
//! online-deployment sketch: how much load was shed at the door
//! (`shed_rate`), whether admitted work met its deadline (`miss_rate`,
//! counted against `deadline_ms + grace_ms`), and how much utility the
//! degradation ladder retained per answering tier versus an unbudgeted
//! solve of the same instance (`per_tier` retention).

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aa_core::{Budget, Problem, TieredSolver};
use aa_utility::Power;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Scenario parameters for [`run_overload`].
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Servers per request problem.
    pub servers: usize,
    /// Capacity per server.
    pub capacity: f64,
    /// Threads per request problem.
    pub threads: usize,
    /// Total requests offered.
    pub requests: usize,
    /// Requests arriving together at t=0 (the overload front).
    pub burst: usize,
    /// Mean of the exponential inter-arrival gap after the burst,
    /// virtual milliseconds.
    pub mean_interarrival_ms: f64,
    /// Per-request deadline, virtual milliseconds from arrival.
    pub deadline_ms: f64,
    /// Slack beyond the deadline before a completed solve counts as a
    /// miss, milliseconds.
    pub grace_ms: f64,
    /// Admission queue depth (the worker holds one more in service).
    pub queue: usize,
    /// RNG seed for arrivals and per-request utility curves.
    pub seed: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            servers: 8,
            capacity: 100.0,
            threads: 256,
            requests: 24,
            burst: 10,
            mean_interarrival_ms: 2.0,
            deadline_ms: 5.0,
            grace_ms: 50.0,
            queue: 2,
            seed: 2016,
        }
    }
}

/// Utility retention for one answering ladder tier.
#[derive(Debug, Clone, Serialize)]
pub struct TierRetention {
    /// Requests this tier answered.
    pub answered: u64,
    /// Mean of `solved utility / unbudgeted utility` over those answers.
    pub mean_retention: f64,
    /// Worst single retention.
    pub min_retention: f64,
}

/// Outcome of one overload scenario.
#[derive(Debug, Clone, Serialize)]
pub struct OverloadReport {
    /// Requests offered.
    pub offered: usize,
    /// Requests admitted (solved or expired in queue).
    pub admitted: usize,
    /// Requests shed at admission (queue full).
    pub shed: usize,
    /// Admitted requests whose whole deadline lapsed while queued.
    pub expired_in_queue: usize,
    /// Admitted requests the ladder answered.
    pub solved: usize,
    /// Solved requests with latency above `deadline_ms + grace_ms`.
    pub deadline_misses: usize,
    /// Admitted requests whose solve returned a typed error.
    pub solve_errors: usize,
    /// `shed / offered`.
    pub shed_rate: f64,
    /// `deadline_misses / solved` (0 when nothing solved).
    pub miss_rate: f64,
    /// Mean utility retention over all solved requests.
    pub mean_retention: f64,
    /// Retention broken down by the tier that answered.
    pub per_tier: BTreeMap<String, TierRetention>,
}

/// One request's concave utility mix, seeded per request.
fn request_problem(cfg: &OverloadConfig, rng: &mut StdRng) -> Problem {
    let mut b = Problem::builder(cfg.servers, cfg.capacity);
    for _ in 0..cfg.threads {
        let scale = rng.gen_range(0.5..4.0);
        let beta = rng.gen_range(0.3..0.8);
        b = b.thread(Arc::new(Power::new(scale, beta, cfg.capacity)));
    }
    b.build().expect("generated problems are well-formed")
}

/// Registry handles for the overload counters
/// (`aa_sim_overload_{shed,solved,deadline_misses,expired}_total`).
fn overload_counters(
) -> &'static (aa_obs::Counter, aa_obs::Counter, aa_obs::Counter, aa_obs::Counter) {
    static HANDLES: std::sync::OnceLock<(
        aa_obs::Counter,
        aa_obs::Counter,
        aa_obs::Counter,
        aa_obs::Counter,
    )> = std::sync::OnceLock::new();
    HANDLES.get_or_init(|| {
        let r = aa_obs::global();
        (
            r.counter("aa_sim_overload_shed_total"),
            r.counter("aa_sim_overload_solved_total"),
            r.counter("aa_sim_overload_deadline_misses_total"),
            r.counter("aa_sim_overload_expired_total"),
        )
    })
}

/// Run the scenario. Deterministic in its admission decisions for the
/// t=0 burst (the first `queue + 1` burst requests are admitted, the
/// rest shed); later admissions depend on measured solve times.
pub fn run_overload(cfg: &OverloadConfig) -> OverloadReport {
    let _span = aa_obs::span!("overload");
    assert!(cfg.queue >= 1, "need an admission queue");
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Open-loop arrival times, virtual ms: a burst at zero, then an
    // exponential trickle.
    let mut arrivals = Vec::with_capacity(cfg.requests);
    let mut t = 0.0;
    for i in 0..cfg.requests {
        if i >= cfg.burst {
            let u: f64 = rng.gen_range(0.0..1.0);
            t += -cfg.mean_interarrival_ms * (1.0 - u).ln();
        }
        arrivals.push(t);
    }

    // Separate solver instances so baseline (unbudgeted) solves don't
    // pollute the serving ladder's circuit-breaker state.
    let serving = TieredSolver::new();
    let baseline = TieredSolver::new();

    let mut report = OverloadReport {
        offered: cfg.requests,
        admitted: 0,
        shed: 0,
        expired_in_queue: 0,
        solved: 0,
        deadline_misses: 0,
        solve_errors: 0,
        shed_rate: 0.0,
        miss_rate: 0.0,
        mean_retention: 0.0,
        per_tier: BTreeMap::new(),
    };
    let mut retention_sum = 0.0;

    // FIFO single-worker queue on the virtual clock: `in_system` holds
    // the completion times of admitted requests still queued or in
    // service at the latest arrival.
    let mut in_system: VecDeque<f64> = VecDeque::new();
    let mut worker_free = 0.0_f64;

    for &arrival in &arrivals {
        let problem = request_problem(cfg, &mut rng);
        while in_system.front().is_some_and(|&end| end <= arrival) {
            in_system.pop_front();
        }
        // The bounded channel holds `queue` waiting jobs; the worker
        // holds one more. Anything beyond that is shed at the door.
        if in_system.len() > cfg.queue {
            report.shed += 1;
            continue;
        }
        report.admitted += 1;

        let start = worker_free.max(arrival);
        let waited = start - arrival;
        let remaining_ms = cfg.deadline_ms - waited;
        if remaining_ms <= 0.0 {
            // Answering costs (virtually) nothing; solving would cost
            // the whole ladder for an already-dead request.
            report.expired_in_queue += 1;
            worker_free = start;
            in_system.push_back(start);
            continue;
        }

        let budget = Budget::with_deadline(Duration::from_secs_f64(remaining_ms / 1e3));
        let wall = Instant::now();
        let outcome = serving.try_solve_within_caught(&problem, &budget, None);
        let service_ms = wall.elapsed().as_secs_f64() * 1e3;
        let end = start + service_ms;
        worker_free = end;
        in_system.push_back(end);

        match outcome {
            Err(_) => report.solve_errors += 1,
            Ok(solved) => {
                report.solved += 1;
                if end - arrival > cfg.deadline_ms + cfg.grace_ms {
                    report.deadline_misses += 1;
                }
                let full = baseline
                    .try_solve_within_caught(&problem, &Budget::unlimited(), None)
                    .expect("unbudgeted tiered solve cannot fail");
                let retention = if full.utility > 0.0 {
                    solved.utility / full.utility
                } else {
                    1.0
                };
                retention_sum += retention;
                let tier = report
                    .per_tier
                    .entry(solved.degradation.tier.name().to_string())
                    .or_insert(TierRetention {
                        answered: 0,
                        mean_retention: 0.0,
                        min_retention: f64::INFINITY,
                    });
                tier.answered += 1;
                // Accumulate the sum here; normalized to a mean below.
                tier.mean_retention += retention;
                tier.min_retention = tier.min_retention.min(retention);
            }
        }
    }

    for tier in report.per_tier.values_mut() {
        tier.mean_retention /= tier.answered as f64;
    }
    if report.offered > 0 {
        report.shed_rate = report.shed as f64 / report.offered as f64;
    }
    if report.solved > 0 {
        report.miss_rate = report.deadline_misses as f64 / report.solved as f64;
        report.mean_retention = retention_sum / report.solved as f64;
    }
    if aa_obs::record_enabled() {
        let (shed, solved, misses, expired) = overload_counters();
        shed.add(report.shed as u64);
        solved.add(report.solved as u64);
        misses.add(report.deadline_misses as u64);
        expired.add(report.expired_in_queue as u64);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_beyond_the_queue_is_shed_deterministically() {
        let cfg = OverloadConfig { requests: 12, burst: 8, queue: 2, ..Default::default() };
        let report = run_overload(&cfg);
        assert_eq!(report.offered, 12);
        // The t=0 burst admits exactly queue+1 requests before any can
        // complete; the remaining burst arrivals are shed.
        assert!(report.shed >= cfg.burst - (cfg.queue + 1), "{report:?}");
        assert!(report.shed_rate > 0.0);
        assert_eq!(report.admitted + report.shed, report.offered);
        assert_eq!(
            report.solved + report.expired_in_queue + report.solve_errors,
            report.admitted
        );
    }

    #[test]
    fn admitted_requests_never_miss_their_graced_deadline() {
        let report = run_overload(&OverloadConfig::default());
        assert_eq!(report.solve_errors, 0, "{report:?}");
        assert_eq!(report.deadline_misses, 0, "{report:?}");
        assert_eq!(report.miss_rate, 0.0);
        assert!(report.solved > 0, "{report:?}");
    }

    #[test]
    fn retention_is_positive_and_bounded_by_the_unbudgeted_solve() {
        let report = run_overload(&OverloadConfig::default());
        assert!(report.mean_retention > 0.0, "{report:?}");
        assert!(report.mean_retention <= 1.0 + 1e-9, "{report:?}");
        for (name, tier) in &report.per_tier {
            assert!(tier.answered > 0, "{name}: {tier:?}");
            assert!(
                tier.min_retention > 0.0 && tier.mean_retention <= 1.0 + 1e-9,
                "{name}: {tier:?}"
            );
        }
    }

    #[test]
    fn same_seed_same_admission_shape() {
        // Service times are real, so only the seed-driven parts are
        // exactly reproducible: offered, and the deterministic burst
        // shed floor.
        let cfg = OverloadConfig { requests: 12, burst: 9, queue: 1, ..Default::default() };
        let a = run_overload(&cfg);
        let b = run_overload(&cfg);
        assert_eq!(a.offered, b.offered);
        assert!(a.shed >= 7 && b.shed >= 7);
    }

    #[test]
    fn report_serializes_for_experiment_output() {
        let cfg = OverloadConfig { requests: 6, burst: 4, ..Default::default() };
        let report = run_overload(&cfg);
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("shed_rate"), "{json}");
    }
}
