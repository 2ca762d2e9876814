//! `scale-price`: a batch planner linking the library to solve one large
//! cluster — cold price-discovery solves at n = 10⁶ through
//! `PriceSolver`, with the pool width fixed to `nproc`.

use std::time::{Duration, Instant};

use aa_core::solver::PriceSolver;
use aa_core::{superopt, Assignment, Problem, Solver, WarmState};

use crate::checks::{check_answer, Answer, Tally};
use crate::gen::{Dist, Instance, Rng};
use crate::layers::{self, Replay, Req};
use crate::serving::{self, Serving};
use crate::report::{self, Metric, Outcome};
use crate::stats;

/// Threads per instance, n = 10⁶ (rounded up to a multiple of `SERVERS`).
pub const THREADS: usize = 1_000_000;
pub const SERVERS: usize = 16;
pub const CAPACITY: f64 = 1000.0;
/// Solves per instance: the repeat is checked to be bit-identical.
const SOLVES_PER_INSTANCE: usize = 2;
/// Measured solves a run makes at least.
const MIN_SOLVES: usize = 8;
/// Instances the traced run builds up front.
const TRACED_INSTANCES: usize = 2;
/// Threads per request-sized slice for the request-path layers (a
/// 10⁶-thread problem is not servable as one LDJSON line).
pub const SLICE: usize = 512;

/// One seeded instance, built.
struct Built {
    inst: Instance,
    problem: Problem,
    /// The super-optimal bound F̂.
    bound: f64,
    /// Time `aa_cli::build_problem` took (spec → PCHIP → `Problem`).
    build_s: f64,
}

/// Generate instance `i` of the run and build it. Only the build is
/// timed; F̂ is computed here too, outside any timed path.
fn build(seed: u64, i: usize) -> Result<Built, String> {
    let mut rng = Rng::derive(seed, 0x5CA1E + i as u64);
    let inst = Instance::generate(SERVERS, THREADS.div_ceil(SERVERS), CAPACITY, Dist::Uniform, &mut rng);
    let file = inst.to_file();
    let t = Instant::now();
    let problem = aa_cli::build_problem(&file).map_err(|e| e.to_string())?;
    let build_s = t.elapsed().as_secs_f64();
    drop(file);
    let bound = superopt::super_optimal_par(&problem).utility;
    Ok(Built { inst, problem, bound, build_s })
}

/// FNV-1a over an assignment's bits: equal answers hash equal.
fn fingerprint(a: &Assignment) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (&j, &x) in a.server.iter().zip(&a.amount) {
        for w in [j as u64, x.to_bits()] {
            h = (h ^ w).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Check one price answer (the library call already validated it):
/// it reports convergence, passes the benchmark's own checks, and is
/// bit-identical to every earlier answer on the same instance. Returns
/// utility / F̂.
fn check_price(problem: &Problem, bound: f64, reference: &mut Option<u64>, a: Assignment, converged: bool) -> Result<f64, String> {
    if !converged {
        return Err("price solve did not converge".to_string());
    }
    let fp = fingerprint(&a);
    if *reference.get_or_insert(fp) != fp {
        return Err("a repeat solve of one instance gave a different answer".to_string());
    }
    let answer = Answer {
        tier: "price".into(),
        utility: a.total_utility(problem),
        server: a.server,
        allocation: a.amount,
        attempts: 1,
    };
    check_answer(problem, &answer, bound)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The untraced run: a fresh seeded instance every
/// `SOLVES_PER_INSTANCE` solves, so a run averages over many instances,
/// with one instance in memory at a time.
pub fn run_e2e(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let width = nproc();
    let mut tally = Tally::default();
    let mut latencies = Vec::new();
    let mut ratios = Vec::new();
    let mut sweeps = Vec::new();
    let mut build_s = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let mut window: Option<Instant> = None;
    let mut instances = 0;
    rayon::with_threads(width, || {
        while window.is_none_or(|w| w.elapsed() < budget || latencies.len() < MIN_SOLVES) {
            let b = build(seed, instances)?;
            instances += 1;
            build_s.push(b.build_s);
            let mut reference = None;
            for _ in 0..SOLVES_PER_INSTANCE {
                let mut state = WarmState::new();
                let t = Instant::now();
                let result = PriceSolver.try_solve_warm(&b.problem, &mut state);
                let secs = t.elapsed().as_secs_f64();
                let stats = state.price().last_stats();
                drop(state);
                sweeps.push(stats.sweeps as f64);
                let verdict = result
                    .map_err(|e| format!("price solve failed: {e}"))
                    .and_then(|a| check_price(&b.problem, b.bound, &mut reference, a, stats.converged));
                // The first solve of a run warms the allocator and the
                // pool; it is checked but not measured.
                match (verdict, window.is_some()) {
                    (Ok(r), true) => {
                        tally.pass();
                        latencies.push(secs * 1e3);
                        ratios.push(r);
                    }
                    (Ok(_), false) => tally.pass(),
                    (Err(e), _) => tally.fail(e),
                }
                window.get_or_insert_with(Instant::now);
            }
        }
        Ok::<(), String>(())
    })?;
    let mut o = Outcome::new(tally);
    // Solves per second of solving (the checks and builds between solves
    // are not the solve call's work), per block of consecutive solves;
    // the median block is reported.
    let per_block = latencies.len().div_ceil(stats::BLOCKS).max(1);
    let rates: Vec<f64> = latencies.chunks(per_block).map(|b| b.len() as f64 * 1e3 / b.iter().sum::<f64>()).collect();
    o.unbounded.push(Metric::new("ok_per_s", stats::median(&rates).unwrap_or(f64::NAN), "1/s"));
    o.metric(Metric::new("latency_p50_ms", stats::median(&latencies).unwrap_or(f64::NAN), "ms"));
    // A run of a few dozen solves supports only a low tail percentile,
    // (n − 10)/n; the report gives it with its sample count.
    let tail = stats::tail_or_max(&latencies);
    o.unbounded.push(Metric::new("latency_p99_ms", tail.map_or(f64::NAN, |t| t.value), "ms"));
    o.metric(Metric::new("utility_ratio", stats::mean(&ratios), "ratio"));
    o.metric(Metric::new("setup_s", stats::median(&build_s).unwrap_or(f64::NAN), "s"));
    o.metric(Metric::new("peak_rss_mb", crate::procfs::self_peak_rss_mb(), "MiB"));
    o.notes = report::Notes {
        solves: Some(sweeps.len()),
        instances: Some(instances),
        threads: Some(THREADS),
        pool_width: Some(width),
        setup_samples_s: Some(build_s),
        latencies_ms: Some(latencies),
        sweeps_per_solve: Some(sweeps),
        block_ok_per_s: Some(rates),
        latency_tail: tail.map(report::TailNote::from),
        ..report::Notes::default()
    };
    Ok(o)
}

/// Request-sized slices of the instances, for the request-path layers.
fn slices(built: &[Built]) -> impl Iterator<Item = Req> + '_ {
    (0u64..).map(move |k| {
        let inst = &built[k as usize % built.len()].inst;
        let start = (k as usize * SLICE) % (inst.threads.len() - SLICE + 1);
        let threads = inst.threads[start..start + SLICE].to_vec();
        Req { id: k, stream: None, key: None, inst: Instance { servers: SERVERS, capacity: inst.capacity, threads } }
    })
}

/// The traced run: price solves under `request` roots; the full-size
/// build, Algorithm 2's stages and the demand sweeps under `offpath`
/// roots; the request-path layers on request-sized slices under
/// `slice` / `slice-offpath` roots.
pub fn run_traced(seed: u64, seconds: f64) -> Result<(Outcome, Replay), String> {
    let s: Vec<Built> = (0..TRACED_INSTANCES).map(|i| build(seed, i)).collect::<Result<_, _>>()?;
    let width = nproc();
    let mut replay = Replay::new(Serving::Cold, ("slice", "slice-offpath"));
    let mut shard_tally = Tally::default();
    replay.run(&mut slices(&s), Duration::from_secs_f64(seconds * 0.15));
    layers::shard_loop(&mut replay.counters, &mut shard_tally, Serving::Cold, serving::INFLIGHT, &mut slices(&s), Duration::from_secs_f64(seconds * 0.05));
    // Full-size counters replace the slices' where both exist.
    let slice_counters = std::mem::take(&mut replay.counters);

    let mut tally = Tally::default();
    let mut client_us = Vec::new();
    let mut refs = [None; TRACED_INSTANCES];
    rayon::with_threads(width, || {
        let (rec, c) = (&mut replay.rec, &mut replay.counters);
        for b in &s {
            let file = b.inst.to_file();
            let built = rec.time("offpath", |rec| rec.time("cli.build", |_| aa_cli::build_problem(&file).map(drop)));
            tally.record(built.map_err(|e| e.to_string()));
        }
        let t0 = Instant::now();
        let mut lambda = 1.0;
        let mut k = 0;
        while k < TRACED_INSTANCES || t0.elapsed().as_secs_f64() < seconds * 0.5 {
            let i = k % TRACED_INSTANCES;
            let t = Instant::now();
            let priced = rec.time("request", |rec| layers::price_layer(rec, c, &s[i].problem));
            client_us.push(t.elapsed().as_secs_f64() * 1e6);
            tally.record(priced.and_then(|(a, st, l)| {
                if i == 0 {
                    lambda = l;
                }
                check_price(&s[i].problem, s[i].bound, &mut refs[i], a, st.converged).map(drop)
            }));
            k += 1;
        }
        let problem = &s[0].problem;
        rec.time("offpath", |rec| {
            let (_, refined) = layers::algo2_stages(rec, c, problem, true);
            tally.record(refined.validate(problem).map_err(|e| format!("refined Algo2 answer infeasible: {e:?}")));
        });
        // The sweeps run at instance 0's clearing price.
        for _ in 0..5 {
            rec.time("offpath", |rec| layers::sweeps(rec, c, problem, lambda));
        }
    });
    for (name, v) in slice_counters.samples {
        replay.counters.samples.entry(name).or_insert(v);
    }
    replay.counters.push("fleet.attempts", 1.0);
    tally.absorb(&replay.tally);
    tally.absorb(&shard_tally);
    let mut o = Outcome::new(tally);
    // One library call at a time: nothing queues.
    let p50 = stats::median(&client_us).unwrap_or(f64::NAN);
    let client = report::ClientP50 { loaded_us: p50, solo_us: p50 };
    report::layer_metrics(&mut o, &replay, client, &["request", "offpath", "slice", "slice-offpath"]);
    o.notes.threads = Some(THREADS);
    o.notes.pool_width = Some(width);
    o.notes.slice_threads = Some(SLICE);
    Ok((o, replay))
}
