//! The two serving workloads: `serve-cold` (single-process `aa-solve
//! serve`) and `fleet-drift` (`aa-solve serve --fleet 2`), driven in a
//! closed loop from this process.

use std::collections::HashMap;
use std::path::Path as FsPath;
use std::time::Duration;

use aa_core::{algo2, superopt, Budget, Problem, Tier, TieredSolver, WarmState};

use crate::checks::{bit_identical, check_answer, max_abs_diff, parse_response, Tally};
use crate::client::{closed_loop, spawn_and_probe, LoopRun, Server};
use crate::gen::{ColdSequence, DriftStream, Instance, Rng, DISTS};
use crate::layers::{self, Replay, Req};
use crate::report::{ClientP50, Metric, Notes, Outcome, TailNote, WarmVsCold};
use crate::stats;

/// Requests outstanding at once: one pipe pair, within `nproc` = 2.
pub const INFLIGHT: usize = 2;
/// Server start-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// `serve-cold` pool: distinct problems, m = 8, β = 8.
const POOL: usize = 64;
/// `fleet-drift`: keyed streams, m = 64, β = 8 (n = 512).
const STREAMS: usize = 8;
/// One in this many `fleet-drift` answers is also compared with an
/// in-process cold `algo2::solve` of the problem parsed from its line.
const IDENTITY_SAMPLE: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Serving {
    Cold,
    Drift,
}

impl Serving {
    fn server_args(self) -> Vec<&'static str> {
        match self {
            Serving::Cold => vec!["serve"],
            Serving::Drift => vec!["serve", "--fleet", "2", "--ladder", "algo2,uu"],
        }
    }

    /// The start-up probe: a key-less n = 64 problem, so it touches no
    /// stream's warm state.
    fn probe(self, seed: u64) -> String {
        let inst = Instance::generate(8, 8, 1000.0, DISTS[0], &mut Rng::derive(seed, 0x9B0BE));
        inst.request_line(u64::from(u32::MAX), None)
    }

    /// The workload's request sequence, from request 0.
    pub fn requests(self, seed: u64) -> Box<dyn Iterator<Item = Req>> {
        match self {
            Serving::Cold => {
                let mut rng = Rng::derive(seed, 1);
                let pool: Vec<Instance> =
                    (0..POOL).map(|j| Instance::generate(8, 8, 1000.0, DISTS[j % DISTS.len()], &mut rng)).collect();
                Box::new(ColdSequence::new(seed, POOL).enumerate().map(move |(k, j)| Req {
                    id: k as u64,
                    stream: None,
                    key: Some(j),
                    inst: pool[j].clone(),
                }))
            }
            Serving::Drift => {
                let mut d = DriftStream::new(seed, STREAMS, 64, 8, 1000.0);
                Box::new(std::iter::from_fn(move || {
                    let (k, s) = d.advance();
                    Some(Req { id: k, stream: Some(s as u64), key: None, inst: d.instances[s].clone() })
                }))
            }
        }
    }
}

/// A started server and its request sequence, driven in one or more
/// stretches of a closed loop.
struct Driven {
    server: Server,
    reqs: Box<dyn Iterator<Item = Req>>,
    inflight: usize,
    /// Every stretch so far, appended.
    run: LoopRun,
    /// Each start-up's time to its answer to the probe.
    setup_s: Vec<f64>,
}

impl Driven {
    /// Start the server `setups` times (each timed to its answer to a
    /// probe) and keep the last one.
    fn start(kind: Serving, bin: &FsPath, seed: u64, setups: usize, inflight: usize) -> Result<Driven, String> {
        let args = kind.server_args();
        let probe = kind.probe(seed);
        let mut setup_s = Vec::new();
        let mut server = None;
        for i in 0..setups {
            let (s, t, line) = spawn_and_probe(bin, &args, &probe).map_err(|e| format!("server start-up: {e}"))?;
            if parse_response(&line)?.is_none() {
                return Err(format!("probe not answered ok: {line:.200}"));
            }
            setup_s.push(t);
            if i + 1 < setups {
                s.finish().map_err(|e| format!("server shutdown: {e}"))?;
            } else {
                server = Some(s);
            }
        }
        let server = server.expect("setups ≥ 1");
        Ok(Driven { server, reqs: kind.requests(seed), inflight, run: LoopRun::default(), setup_s })
    }

    /// One stretch of the closed loop: `warmup`, then a measured `window`.
    fn drive(&mut self, warmup: Duration, window: Duration) -> Result<(), String> {
        let reqs = &mut self.reqs;
        let mut next = |id: u64| {
            let req = reqs.next().expect("request sequences are unbounded");
            debug_assert_eq!(req.id, id);
            req.line()
        };
        let part = closed_loop(&mut self.server, self.inflight, warmup, window, self.run.sent, &mut next)
            .map_err(|e| format!("closed loop: {e}"))?;
        self.run.append(part);
        Ok(())
    }

    /// Shut the server down; returns the loop's record.
    fn finish(self) -> Result<LoopRun, String> {
        self.server.finish().map_err(|e| format!("server shutdown: {e}"))?;
        Ok(self.run)
    }
}

/// The warm-up before a loop's first measured stretch.
fn warmup(window: Duration) -> Duration {
    (window / 10).min(Duration::from_secs(1))
}

/// What the checker learned from one session's responses.
struct Checked {
    tally: Tally,
    /// Per measured `ok` answer: latency (µs) and utility / F̂.
    latencies_us: Vec<f64>,
    /// When each of those answers arrived (seconds into the loop).
    at_s: Vec<f64>,
    ratios: Vec<f64>,
    attempts: Vec<f64>,
    /// Sampled answers compared with a cold solve, how many of those
    /// differ in any bit, and the largest allocation difference seen.
    cold_checked: u64,
    cold_mismatches: u64,
    cold_max_abs_diff: f64,
}

/// Check every response against a replay of the request sequence.
fn check_session(kind: Serving, seed: u64, run: &LoopRun) -> Checked {
    let mut by_id: Vec<Option<usize>> = vec![None; run.sent as usize];
    for (i, e) in run.exchanges.iter().enumerate() {
        by_id[e.id as usize] = Some(i);
    }
    let mut out = Checked {
        tally: Tally::default(),
        latencies_us: Vec::new(),
        at_s: Vec::new(),
        ratios: Vec::new(),
        attempts: Vec::new(),
        cold_checked: 0,
        cold_mismatches: 0,
        cold_max_abs_diff: 0.0,
    };
    // The fleet's workers answer keyed requests through a warm Algo2
    // ladder with one warm state per stream; this is the same solve in
    // process, fed the same per-stream sequence.
    let warm_solver = TieredSolver::with_ladder(vec![Tier::Algo2, Tier::Uu]);
    let mut warm: HashMap<Option<u64>, WarmState> = HashMap::new();
    let mut cache: HashMap<usize, (Problem, f64)> = HashMap::new();
    let mut sample = Rng::derive(seed, 0x1DE7);
    for (req, slot) in kind.requests(seed).zip(by_id) {
        let sampled = kind == Serving::Drift && sample.below(IDENTITY_SAMPLE) == 0;
        let build = |inst: &Instance| -> (Problem, f64) {
            let p = aa_cli::build_problem(&inst.to_file()).expect("generated problems are valid");
            let bound = superopt::super_optimal(&p).utility;
            (p, bound)
        };
        let fresh;
        let (problem, bound) = match req.key {
            Some(j) => &*cache.entry(j).or_insert_with(|| build(&req.inst)),
            None => {
                fresh = build(&req.inst);
                &fresh
            }
        };
        let in_process = (kind == Serving::Drift).then(|| {
            let state = warm.entry(req.stream).or_default();
            warm_solver.try_solve_within_caught(problem, &Budget::unlimited(), Some(state))
        });
        let Some(i) = slot else {
            out.tally.fail(format!("request {} was never answered", req.id));
            continue;
        };
        let e = &run.exchanges[i];
        let answer = match parse_response(&e.line) {
            Ok(Some(a)) => a,
            Ok(None) => {
                out.tally.fail(format!("request {} not ok: {:.200}", req.id, e.line));
                continue;
            }
            Err(err) => {
                out.tally.fail(format!("request {}: {err}", req.id));
                continue;
            }
        };
        let mut verdict = check_answer(problem, &answer, *bound);
        if let (Some(mine), Ok(_)) = (in_process, &verdict) {
            // serve ≡ fleet: the answer equals the in-process solve bit
            // for bit.
            let same = mine.as_ref().is_ok_and(|m| bit_identical(&answer, &m.assignment));
            if !same {
                verdict = Err("fleet answer differs from the in-process warm solve".to_string());
            }
        }
        if sampled && verdict.is_ok() {
            // warm ≡ cold: the program promises bit identity with a cold
            // solve of the problem parsed from the very line sent, so any
            // bit difference fails the request; its size is reported.
            out.cold_checked += 1;
            let parsed: aa_cli::serve::ServeRequest = serde_json::from_str(&req.line()).expect("own request parses");
            let p = aa_cli::build_problem(&parsed.problem).expect("generated problems are valid");
            let cold = algo2::solve(&p);
            if !bit_identical(&answer, &cold) {
                out.cold_mismatches += 1;
                let d = max_abs_diff(&answer.server, &answer.allocation, &cold);
                out.cold_max_abs_diff = out.cold_max_abs_diff.max(d);
                verdict = Err(format!("fleet answer is not bit-identical to cold algo2::solve (largest allocation difference {d:e})"));
            }
        }
        match verdict {
            Ok(ratio) => {
                out.tally.pass();
                if e.measured {
                    out.latencies_us.push(e.latency_us);
                    out.at_s.push(e.at_s);
                    out.ratios.push(ratio);
                }
                out.attempts.push(answer.attempts as f64);
            }
            Err(err) => out.tally.fail(format!("request {}: {err}", req.id)),
        }
    }
    out
}

/// The untraced run: end-to-end metrics.
pub fn run_e2e(kind: Serving, bin: &FsPath, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let window = Duration::from_secs_f64(seconds);
    let mut d = Driven::start(kind, bin, seed, SETUPS, INFLIGHT)?;
    d.drive(warmup(window), window)?;
    // Read the peak before the processes exit: front-end plus workers.
    let peak_rss_mb = crate::procfs::tree_peak_rss_mb(d.server.pid());
    let setup_s = std::mem::take(&mut d.setup_s);
    let run = d.finish()?;
    let c = check_session(kind, seed, &run);
    let mut o = Outcome::new(c.tally);
    let (t0, t1) = (run.window_start_s, run.window_start_s + run.window_s);
    let blocks = stats::by_time(&c.at_s, &c.latencies_us, t0, t1, stats::BLOCKS);
    let rates: Vec<f64> = blocks.iter().map(|b| b.len() as f64 * stats::BLOCKS as f64 / run.window_s).collect();
    let tail = stats::blocked_tail(&blocks);
    o.unbounded.push(Metric::new("ok_per_s", stats::median(&rates).unwrap_or(f64::NAN), "1/s"));
    o.metric(Metric::new("latency_p50_ms", stats::median(&c.latencies_us).unwrap_or(f64::NAN) / 1e3, "ms"));
    o.unbounded.push(Metric::new("latency_p99_ms", tail.map_or(f64::NAN, |t| t.value / 1e3), "ms"));
    o.metric(Metric::new("utility_ratio", stats::mean(&c.ratios), "ratio"));
    o.metric(Metric::new("setup_s", stats::median(&setup_s).unwrap_or(f64::NAN), "s"));
    o.metric(Metric::new("peak_rss_mb", peak_rss_mb, "MiB"));
    o.notes = Notes {
        server: Some(kind.server_args().join(" ")),
        requests: Some(run.sent),
        request_bytes: Some(run.request_bytes),
        measured_ok: Some(c.latencies_us.len()),
        window_s: Some(run.window_s),
        block_ok_per_s: Some(rates),
        setup_samples_s: Some(setup_s),
        latency_tail: tail.map(TailNote::from),
        warm_vs_cold: (kind == Serving::Drift).then_some(WarmVsCold {
            checked: c.cold_checked,
            bit_mismatches: c.cold_mismatches,
            max_abs_diff: c.cold_max_abs_diff,
        }),
        ..Notes::default()
    };
    Ok(o)
}

/// Stretches the traced run alternates through: one of the solo loop,
/// one of the loaded loop and one of the in-process replay per round, so
/// all three see the machine in the same state.
const TRACED_ROUNDS: u32 = 5;

/// The traced run: per-layer metrics. Two closed loops against the real
/// server, with one request in flight and with the workload's two, give
/// the client p50 the layers must add up to and the queue wait between
/// them; the in-process replay and the shard loop time the layers on the
/// same request sequence.
pub fn run_traced(kind: Serving, bin: &FsPath, seed: u64, seconds: f64) -> Result<(Outcome, Replay), String> {
    let stretch = |share: f64| Duration::from_secs_f64(seconds * share) / TRACED_ROUNDS;
    let mut solo = Driven::start(kind, bin, seed, 1, 1)?;
    let mut loaded = Driven::start(kind, bin, seed, 1, INFLIGHT)?;
    let mut replay = Replay::new(kind, ("request", "offpath"));
    let mut replayed = kind.requests(seed);
    for round in 0..TRACED_ROUNDS {
        for d in [&mut solo, &mut loaded] {
            let window = stretch(0.2);
            d.drive(if round == 0 { warmup(window) } else { Duration::ZERO }, window)?;
        }
        replay.run(&mut replayed, stretch(0.4));
    }
    let (solo, loaded) = (solo.finish()?, loaded.finish()?);
    let solo_checked = check_session(kind, seed, &solo);
    let c = check_session(kind, seed, &loaded);
    let client = ClientP50 {
        loaded_us: stats::median(&c.latencies_us).unwrap_or(f64::NAN),
        solo_us: stats::median(&solo_checked.latencies_us).unwrap_or(f64::NAN),
    };

    let mut shard_tally = Tally::default();
    layers::shard_loop(
        &mut replay.counters,
        &mut shard_tally,
        kind,
        INFLIGHT,
        &mut kind.requests(seed),
        Duration::from_secs_f64(seconds * 0.2),
    );
    let mut tally = c.tally;
    tally.absorb(&solo_checked.tally);
    tally.absorb(&replay.tally);
    tally.absorb(&shard_tally);
    let mut o = Outcome::new(tally);
    replay.counters.push("fleet.attempts", stats::mean(&c.attempts));
    crate::report::layer_metrics(&mut o, &replay, client, &["request", "offpath"]);
    o.notes.client_requests = Some(solo.sent + loaded.sent);
    o.notes.replayed_requests = replay.counters.samples.get("parse.bytes").map(Vec::len);
    o.notes.shard_jobs = replay.counters.samples.get("shard.wait.us").map(Vec::len);
    Ok((o, replay))
}
