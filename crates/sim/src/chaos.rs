//! Deterministic chaos harness for the serve front-end.
//!
//! Mirrors the scripted-churn approach of [`crate::faults`], but the
//! target is the *serving tier* rather than the cluster model. A seeded
//! [`FleetChaosPlan`] deals [`Fault`]s (kills, heartbeat stalls, garbage
//! frames) to worker slots, keyed on each slot's cumulative solve
//! sequence number so the same seed fires the same faults no matter how
//! threads, pipes and schedulers interleave. The same plan drives either
//! worker link: `chaos --shards N` storms solver threads, `chaos --fleet`
//! storms worker processes; the CLI crate owns the driver, because it
//! owns the front-end.
//!
//! [`analyze_fleet`] folds the driver's observations into a
//! [`FleetChaosReport`] built only from schedule- and invariant-derived
//! fields, so two runs with one seed serialize byte-identically:
//!
//! * **liveness** — the front-end answered every closed-loop round and
//!   every slot restarted at least once per scheduled fault;
//! * **exactly-once** — every admitted request got exactly one answer,
//!   and every answer is `ok` (crash replay, not an error, absorbs each
//!   death);
//! * **identity** — every answer is bit-identical to a single-process
//!   reference solve, and every stream routes back to its ring owner once
//!   the storm is over;
//! * **warm recovery** — for each replayed stream, the trailing-window
//!   p99 of solve latency returns within [`RECOVERY_FACTOR`]× its
//!   pre-fault value within [`RECOVERY_WINDOW_REQUESTS`] requests.

use std::collections::HashMap;

use aa_core::Fault;
use serde::Serialize;

/// Recovery target: post-restart trailing p99 must come back within this
/// factor of the pre-kill p99.
pub const RECOVERY_FACTOR: f64 = 2.0;

/// Recovery must happen within this many post-restart requests on the
/// affected stream.
pub const RECOVERY_WINDOW_REQUESTS: usize = 50;

/// Trailing-window width (in requests) for the recovery p99.
const TRAIL: usize = 16;

/// Floor applied to the pre-kill p99 before scaling by
/// [`RECOVERY_FACTOR`]: warm identical-mode solves run in tens of
/// microseconds, below scheduler-jitter granularity on a loaded box, so
/// comparing raw 2× at that scale flakes. The invariant's target — a
/// stream stuck on the cold path (hundreds of microseconds per solve)
/// — still clears this floor by a wide margin.
pub const RECOVERY_FLOOR_MICROS: u64 = 100;

/// The 99th percentile (nearest rank) of a nonempty sample.
fn p99(sorted_or_not: &[u64]) -> u64 {
    assert!(!sorted_or_not.is_empty());
    let mut v = sorted_or_not.to_vec();
    v.sort_unstable();
    let idx = ((v.len() as f64) * 0.99).ceil() as usize;
    v[idx.saturating_sub(1).min(v.len() - 1)]
}

/// The deterministic fault schedule for a storm: per worker slot, the
/// `(solve_seq, fault)` pairs at which that slot misbehaves.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetChaosPlan {
    /// `faults[w]` — this worker's schedule, strictly increasing in seq.
    pub faults: Vec<Vec<(u64, Fault)>>,
}

impl FleetChaosPlan {
    /// Derive the storm: kills, then stalls, then garbage faults are
    /// dealt round-robin over workers, and each worker's faults are
    /// spread evenly across its expected solve count
    /// (`streams_per_worker × rounds`) so it dies mid-traffic with warm
    /// streams on both sides.
    pub fn from_config(cfg: &FleetChaosConfig) -> Self {
        let mut kinds: Vec<Vec<Fault>> = vec![Vec::new(); cfg.workers];
        let storm = std::iter::repeat_n(Fault::Kill, cfg.kills)
            .chain(std::iter::repeat_n(
                Fault::Stall { millis: cfg.stall_millis },
                cfg.stalls,
            ))
            .chain(std::iter::repeat_n(Fault::Garbage, cfg.garbage));
        for (i, fault) in storm.enumerate() {
            kinds[i % cfg.workers.max(1)].push(fault);
        }
        let expected = (cfg.streams_per_worker * cfg.rounds) as u64;
        let faults = kinds
            .into_iter()
            .enumerate()
            .map(|(w, fs)| {
                let count = fs.len() as u64;
                let mut last = 0u64;
                fs.into_iter()
                    .enumerate()
                    .map(|(j, fault)| {
                        let seq = (expected * (j as u64 + 1) / (count + 1))
                            .saturating_add(w as u64)
                            .max(2)
                            .max(last + 1);
                        last = seq;
                        (seq, fault)
                    })
                    .collect()
            })
            .collect();
        FleetChaosPlan { faults }
    }

    /// Total scheduled faults across the fleet.
    pub fn total(&self) -> usize {
        self.faults.iter().map(|f| f.len()).sum()
    }
}

/// Configuration for a chaos storm (the CLI's `chaos --shards N` and
/// `chaos --fleet` modes).
#[derive(Debug, Clone, Serialize)]
pub struct FleetChaosConfig {
    /// Worker slots (threads or processes).
    pub workers: usize,
    /// Streams pinned to each worker (keys found by probing the ring).
    pub streams_per_worker: usize,
    /// Closed-loop rounds; each round submits one request per stream.
    pub rounds: usize,
    /// Scheduled worker kills across the fleet.
    pub kills: usize,
    /// Scheduled heartbeat stalls across the fleet.
    pub stalls: usize,
    /// Scheduled garbage-frame faults across the fleet.
    pub garbage: usize,
    /// Stall duration in milliseconds (must exceed the front-end's
    /// heartbeat tolerance to register as a fault at all).
    pub stall_millis: u64,
    /// End-to-end p99 latency objective the front-end's SLO layer runs
    /// against during the storm, microseconds.
    pub slo_p99_micros: u64,
    /// Seed for problem generation.
    pub seed: u64,
}

impl Default for FleetChaosConfig {
    fn default() -> Self {
        FleetChaosConfig {
            workers: 4,
            streams_per_worker: 2,
            rounds: 100,
            kills: 3,
            stalls: 1,
            garbage: 0,
            stall_millis: 2000,
            slo_p99_micros: 100_000,
            seed: 2016,
        }
    }
}

/// One completed request as the fleet front-end observed it.
#[derive(Debug, Clone)]
pub struct FleetObservation {
    /// Request sequence number (admission order, dense from 0).
    pub seq: u64,
    /// The stream the request was keyed on.
    pub stream: u64,
    /// Whether a worker solved it.
    pub ok: bool,
    /// Error class for non-ok answers (empty for ok).
    pub class: String,
    /// Bit pattern of the solved utility (0 for non-ok) — compared
    /// against the single-process reference for bit-identity.
    pub utility_bits: u64,
    /// Dispatch attempts the request took (>1 means it was replayed).
    pub attempts: u32,
    /// Worker-side solve latency in microseconds.
    pub solve_micros: u64,
}

/// Everything the chaos driver hands to [`analyze_fleet`].
#[derive(Debug, Clone)]
pub struct FleetObservations {
    /// Requests admitted (seqs are dense `0..admitted`).
    pub admitted: u64,
    /// Completions, in whatever order they arrived.
    pub completions: Vec<FleetObservation>,
    /// Restart count per worker after the run.
    pub restarts: Vec<u64>,
    /// Whether every round completed (the front-end never wedged).
    pub survived: bool,
    /// Whether every stream routed to its ring owner again after the
    /// storm ended and the fleet went quiescent.
    pub rebalanced: bool,
    /// Completions the front-end's SLO burn-rate tracker observed
    /// (`aa_slo_good_total + aa_slo_breach_total` after the run).
    pub slo_tracked: u64,
    /// `stream -> utility bits` from the single-process reference solve.
    pub reference_bits: HashMap<u64, u64>,
}

/// The fleet chaos verdict. Every field is a deterministic function of
/// the seed and schedule — no wall-clock timings — so two runs with the
/// same config serialize to byte-identical JSON, which is exactly what
/// the CI gate diffs.
#[derive(Debug, Clone, Serialize)]
pub struct FleetChaosReport {
    /// The config that produced this report.
    pub config: FleetChaosConfig,
    /// The derived fault schedule.
    pub plan: FleetChaosPlan,
    /// Requests admitted.
    pub admitted: u64,
    /// Completions delivered.
    pub completed: u64,
    /// Seqs answered more than once (must be empty).
    pub duplicate_seqs: Vec<u64>,
    /// Admitted seqs never answered (must be empty).
    pub missing_seqs: Vec<u64>,
    /// Requests answered with a solve.
    pub ok: u64,
    /// Requests answered with a front-end internal error.
    pub internal: u64,
    /// Restart count per worker.
    pub restarts: Vec<u64>,
    /// No losses, no duplicates.
    pub exactly_once: bool,
    /// The front-end answered every round through the whole storm.
    pub survived: bool,
    /// Every worker restarted at least as many times as it had faults
    /// scheduled.
    pub restarted_on_schedule: bool,
    /// Every stream routed back to its ring owner post-recovery.
    pub rebalanced: bool,
    /// Every solved utility is bit-identical to the single-process
    /// reference for its stream.
    pub outputs_identical: bool,
    /// Streams whose ring owner had at least one scheduled fault.
    pub disrupted_streams: usize,
    /// Disrupted streams measurable for recovery whose trailing-window
    /// p99 never returned within [`RECOVERY_FACTOR`]× pre-fault p99
    /// inside [`RECOVERY_WINDOW_REQUESTS`] requests.
    pub unrecovered_streams: usize,
    /// `unrecovered_streams == 0`.
    pub all_recovered: bool,
    /// The SLO objective the front-end ran against, microseconds.
    pub slo_target_p99_micros: u64,
    /// Completions the SLO burn-rate tracker observed.
    pub slo_tracked: u64,
    /// Every delivered completion was SLO-tracked: the observability
    /// layer lost nothing through the storm.
    pub slo_complete: bool,
}

impl FleetChaosReport {
    /// All fleet robustness invariants at once; the fleet-smoke CI gate.
    pub fn healthy(&self) -> bool {
        self.survived
            && self.exactly_once
            && self.admitted == self.completed
            && self.ok == self.admitted
            && self.internal == 0
            && self.restarted_on_schedule
            && self.rebalanced
            && self.outputs_identical
            && self.all_recovered
            && self.disrupted_streams > 0
            && self.slo_complete
    }
}

/// Pure analysis of a fleet chaos run: fold the driver's observations
/// into the deterministic [`FleetChaosReport`]. Separated from the
/// front-end-driving harness (which lives in the CLI crate, next to the
/// spawning code) so the verdict logic is unit-testable on synthetic
/// observations.
pub fn analyze_fleet(
    cfg: &FleetChaosConfig,
    plan: &FleetChaosPlan,
    obs: &FleetObservations,
) -> FleetChaosReport {
    let mut counts: HashMap<u64, usize> = HashMap::new();
    for c in &obs.completions {
        *counts.entry(c.seq).or_default() += 1;
    }
    let mut duplicate_seqs: Vec<u64> =
        counts.iter().filter(|&(_, &n)| n > 1).map(|(&s, _)| s).collect();
    duplicate_seqs.sort_unstable();
    let missing_seqs: Vec<u64> =
        (0..obs.admitted).filter(|s| !counts.contains_key(s)).collect();

    let ok = obs.completions.iter().filter(|c| c.ok).count() as u64;
    let internal = obs.completions.len() as u64 - ok;
    let outputs_identical = obs.completions.iter().filter(|c| c.ok).all(|c| {
        obs.reference_bits.get(&c.stream) == Some(&c.utility_bits)
    });

    let restarted_on_schedule = plan
        .faults
        .iter()
        .enumerate()
        .all(|(w, fs)| obs.restarts.get(w).copied().unwrap_or(0) >= fs.len() as u64);

    // A stream is disrupted iff its ring owner had a fault scheduled:
    // pure geometry, so the count is identical across runs.
    let ring = aa_core::Ring::new(cfg.workers);
    let mut streams: Vec<u64> = obs.completions.iter().map(|c| c.stream).collect();
    streams.sort_unstable();
    streams.dedup();
    let disrupted_streams = streams
        .iter()
        .filter(|&&s| {
            ring.owner(s)
                .is_some_and(|w| plan.faults.get(w).is_some_and(|fs| !fs.is_empty()))
        })
        .count();

    // Recovery: per stream, solves before the first replayed request
    // (attempts > 1) vs the trailing window after the last one — same
    // trailing-p99 criterion on both links. Only the derived
    // counters enter the report; raw latencies never do.
    let mut by_stream: HashMap<u64, Vec<(u64, u32, u64)>> = HashMap::new();
    for c in obs.completions.iter().filter(|c| c.ok) {
        by_stream.entry(c.stream).or_default().push((c.seq, c.attempts, c.solve_micros));
    }
    let mut unrecovered_streams = 0usize;
    for series in by_stream.values_mut() {
        series.sort_unstable_by_key(|&(s, _, _)| s);
        let first_hit = series.iter().position(|&(_, a, _)| a > 1);
        let last_hit = series.iter().rposition(|&(_, a, _)| a > 1);
        let (Some(first_hit), Some(last_hit)) = (first_hit, last_hit) else {
            continue; // never replayed: nothing to recover from
        };
        let pre: Vec<u64> =
            series[..first_hit].iter().skip(1).map(|&(_, _, us)| us).collect();
        let post: Vec<u64> =
            series[last_hit + 1..].iter().map(|&(_, _, us)| us).collect();
        if pre.len() < 8 || post.len() < 8 {
            continue; // not enough signal either side to measure
        }
        let pre_p99 = p99(&pre).max(1);
        let bound = (pre_p99.max(RECOVERY_FLOOR_MICROS) as f64) * RECOVERY_FACTOR;
        let recovered = (0..post.len()).any(|i| {
            let lo = (i + 1).saturating_sub(TRAIL);
            i < RECOVERY_WINDOW_REQUESTS && (p99(&post[lo..=i]) as f64) <= bound
        });
        if !recovered {
            unrecovered_streams += 1;
        }
    }

    let exactly_once = duplicate_seqs.is_empty() && missing_seqs.is_empty();
    FleetChaosReport {
        config: cfg.clone(),
        plan: plan.clone(),
        admitted: obs.admitted,
        completed: obs.completions.len() as u64,
        duplicate_seqs,
        missing_seqs,
        ok,
        internal,
        restarts: obs.restarts.clone(),
        exactly_once,
        survived: obs.survived,
        restarted_on_schedule,
        rebalanced: obs.rebalanced,
        outputs_identical,
        disrupted_streams,
        unrecovered_streams,
        all_recovered: unrecovered_streams == 0,
        slo_target_p99_micros: cfg.slo_p99_micros,
        slo_tracked: obs.slo_tracked,
        slo_complete: obs.slo_tracked == obs.completions.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_plan_is_deterministic_and_spreads_the_storm() {
        let cfg = FleetChaosConfig::default();
        let a = FleetChaosPlan::from_config(&cfg);
        let b = FleetChaosPlan::from_config(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), cfg.workers);
        assert_eq!(a.total(), cfg.kills + cfg.stalls + cfg.garbage);
        let expected = (cfg.streams_per_worker * cfg.rounds) as u64;
        for fs in &a.faults {
            for pair in fs.windows(2) {
                assert!(pair[0].0 < pair[1].0, "fault seqs not increasing: {fs:?}");
            }
            assert!(fs.iter().all(|&(s, _)| s >= 2 && s < expected));
        }
        // Faults round-trip through the wire format the worker CLI uses.
        let json = serde_json::to_string(&a.faults[0]).unwrap();
        let back: Vec<(u64, Fault)> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a.faults[0]);
    }

    fn clean_observations(
        cfg: &FleetChaosConfig,
        plan: &FleetChaosPlan,
    ) -> FleetObservations {
        // Synthetic run: 2 streams per worker, every request solved at a
        // flat 40µs except one replayed spike per disrupted stream.
        let ring = aa_core::Ring::new(cfg.workers);
        let mut keys = Vec::new();
        let mut per: Vec<usize> = vec![0; cfg.workers];
        let mut key = 0u64;
        while per.iter().any(|&n| n < cfg.streams_per_worker) {
            let w = ring.owner(key).unwrap();
            if per[w] < cfg.streams_per_worker {
                per[w] += 1;
                keys.push(key);
            }
            key += 1;
        }
        let mut completions = Vec::new();
        let mut seq = 0u64;
        for round in 0..cfg.rounds {
            for &stream in &keys {
                let owner = ring.owner(stream).unwrap();
                let disrupted = !plan.faults[owner].is_empty();
                let hit = disrupted && round == cfg.rounds / 2;
                completions.push(FleetObservation {
                    seq,
                    stream,
                    ok: true,
                    class: String::new(),
                    utility_bits: 0x4050_0000_0000_0000 + stream,
                    attempts: if hit { 2 } else { 1 },
                    solve_micros: if hit { 900 } else { 40 },
                });
                seq += 1;
            }
        }
        let reference_bits =
            keys.iter().map(|&k| (k, 0x4050_0000_0000_0000 + k)).collect();
        FleetObservations {
            admitted: seq,
            completions,
            restarts: plan.faults.iter().map(|f| f.len() as u64).collect(),
            survived: true,
            rebalanced: true,
            slo_tracked: seq,
            reference_bits,
        }
    }

    #[test]
    fn analyze_fleet_passes_a_clean_run_and_flags_each_violation() {
        let cfg = FleetChaosConfig { rounds: 60, ..FleetChaosConfig::default() };
        let plan = FleetChaosPlan::from_config(&cfg);
        let obs = clean_observations(&cfg, &plan);
        let report = analyze_fleet(&cfg, &plan, &obs);
        assert!(report.exactly_once);
        assert!(report.outputs_identical);
        assert!(report.all_recovered);
        assert!(report.disrupted_streams > 0);
        assert!(report.slo_complete);
        assert_eq!(report.slo_target_p99_micros, cfg.slo_p99_micros);
        assert!(report.healthy(), "{report:?}");
        // The report is the CI artifact and the byte-diff target.
        let a = serde_json::to_string(&report).unwrap();
        let b = serde_json::to_string(&analyze_fleet(&cfg, &plan, &obs)).unwrap();
        assert_eq!(a, b);

        // Losing a completion breaks exactly-once.
        let mut lossy = obs.clone();
        lossy.completions.pop();
        let r = analyze_fleet(&cfg, &plan, &lossy);
        assert!(!r.exactly_once && !r.missing_seqs.is_empty() && !r.healthy());

        // Answering twice breaks exactly-once.
        let mut dup = obs.clone();
        let c = dup.completions[0].clone();
        dup.completions.push(c);
        let r = analyze_fleet(&cfg, &plan, &dup);
        assert_eq!(r.duplicate_seqs, vec![0]);
        assert!(!r.healthy());

        // A diverging utility breaks bit-identity.
        let mut skew = obs.clone();
        skew.completions[5].utility_bits ^= 1;
        assert!(!analyze_fleet(&cfg, &plan, &skew).outputs_identical);

        // A worker restarting fewer times than its schedule fails.
        let mut lazy = obs.clone();
        lazy.restarts[0] = 0;
        assert!(!analyze_fleet(&cfg, &plan, &lazy).restarted_on_schedule);

        // A completion the SLO layer never tracked breaks slo_complete.
        let mut untracked = obs.clone();
        untracked.slo_tracked -= 1;
        let r = analyze_fleet(&cfg, &plan, &untracked);
        assert!(!r.slo_complete && !r.healthy());

        // A disrupted stream pinned at 30× its pre-fault latency after
        // the replay marker never recovers.
        let mut slow = obs.clone();
        let victim = slow
            .completions
            .iter()
            .find(|c| c.attempts > 1)
            .map(|c| c.stream)
            .expect("clean run has a replayed request");
        let marker = slow
            .completions
            .iter()
            .rposition(|c| c.stream == victim && c.attempts > 1)
            .unwrap();
        let marker_seq = slow.completions[marker].seq;
        for c in &mut slow.completions {
            if c.stream == victim && c.seq > marker_seq {
                c.solve_micros = 30_000;
            }
        }
        let r = analyze_fleet(&cfg, &plan, &slow);
        assert_eq!(r.unrecovered_streams, 1);
        assert!(!r.all_recovered && !r.healthy());
    }
}
