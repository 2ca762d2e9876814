//! The traced run's in-process replay: every layer's public call, timed
//! by the benchmark's own spans, on the same seeded inputs the serving
//! processes get.

use std::collections::{BTreeMap, HashMap};
use std::io::Cursor;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use aa_cli::proto::{FromWorker, ToWorker, WorkerResult};
use aa_cli::serve::{ServeRequest, ServeResponse};
use aa_cli::{build_problem, ProblemFile};
use aa_core::fleet::{read_frame, write_frame};
use aa_core::shard::{ShardCompletion, ShardConfig, ShardJob, ShardPool};
use aa_core::solver::PriceSolver;
use aa_core::{algo2, incremental, linearize, price, refine, superopt};
use aa_core::{Budget, PriceStats, Problem, SolveMode, Solver, Tier, TieredSolver, WarmState};
use aa_utility::DemandTable;

use crate::checks::{max_abs_diff, same_bits, Tally};
use crate::gen::Instance;
use crate::serving::Serving;
use crate::trace::{layer_samples_us, Recorder};

/// One request of a workload: its id, stream key and problem.
#[derive(Debug, Clone)]
pub struct Req {
    pub id: u64,
    pub stream: Option<u64>,
    /// Cache key for per-problem work (the pool index on `serve-cold`);
    /// `None` when every request's problem is new.
    pub key: Option<usize>,
    pub inst: Instance,
}

impl Req {
    pub fn line(&self) -> String {
        self.inst.request_line(self.id, self.stream)
    }
}

/// Frame size cap, as the fleet uses.
const MAX_FRAME: usize = 8 << 20;

/// Elements a timed demand sweep covers at least (repeating the sweep on
/// small instances so the timer's resolution does not dominate).
const SWEEP_MIN_ELEMS: usize = 1 << 18;

/// Operations whose super-optimal solve also counts demand sweeps (the
/// counter needs the program's span collector switched on, which adds a
/// little time, so only these first few pay for it).
const COUNTED_OPS: usize = 8;

/// Bytes one demand sweep moves per PCHIP element, computed from the
/// demand table's column layout (`aa_utility::demand::DemandTable`):
/// kind tag 1 + pre-divisor 8 + post-cap flag 1 + knot offset and length
/// 16 + three knots × (x, y, slope) 72 + the output write 8. Computed,
/// not measured.
pub const SWEEP_BYTES_PER_ELEM: f64 = 106.0;

/// Counts and sizes recorded next to the spans, one sample per operation.
#[derive(Debug, Default)]
pub struct Counters {
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Counters {
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        self.samples.get(name).and_then(|v| crate::stats::median(v))
    }

    pub fn mean(&self, name: &str) -> Option<f64> {
        self.samples.get(name).filter(|v| !v.is_empty()).map(|v| crate::stats::mean(v))
    }
}

pub struct Replay {
    pub rec: Recorder,
    /// Root span names for the request path and for the other layers.
    roots: (&'static str, &'static str),
    pub counters: Counters,
    pub tally: Tally,
    path: Serving,
    tiered: TieredSolver,
    /// Per-stream warm state of the answering rung (fleet path).
    warm: HashMap<Option<u64>, WarmState>,
    /// Per-stream state for the direct `solve_incremental` calls.
    incremental: HashMap<Option<u64>, WarmState>,
    ops: usize,
}

fn parse_request(line: &str) -> Result<ServeRequest, String> {
    serde_json::from_str::<ServeRequest>(line).map_err(|e| format!("request does not parse: {e}"))
}

impl Replay {
    /// A replay of `path`'s request path: `Cold` is single-process
    /// serve (default ladder, no frames), `Drift` the fleet (two parses,
    /// frames both ways, warm per-stream Algo2).
    pub fn new(path: Serving, roots: (&'static str, &'static str)) -> Replay {
        let tiered = match path {
            Serving::Cold => TieredSolver::new(),
            Serving::Drift => TieredSolver::with_ladder(vec![Tier::Algo2, Tier::Uu]),
        };
        Replay {
            rec: Recorder::new(),
            roots,
            counters: Counters::default(),
            tally: Tally::default(),
            path,
            tiered,
            warm: HashMap::new(),
            incremental: HashMap::new(),
            ops: 0,
        }
    }

    /// Replay requests until `budget` has passed (at least one).
    pub fn run(&mut self, reqs: &mut dyn Iterator<Item = Req>, budget: Duration) {
        let t0 = Instant::now();
        for req in reqs {
            let r = self.op(&req);
            if r.is_err() {
                self.rec.close_all();
            }
            self.tally.record(r);
            if t0.elapsed() >= budget {
                break;
            }
        }
    }

    /// One request through every layer: the request path under one root
    /// span, then the other layers on the same problem under another.
    fn op(&mut self, req: &Req) -> Result<(), String> {
        let line = req.line();
        let fleet = self.path == Serving::Drift;
        let rec = &mut self.rec;
        let c = &mut self.counters;

        let root = rec.begin(self.roots.0);
        let parsed = rec.time("cli.parse", |_| parse_request(&line))?;
        let mut parse_bytes = line.len();
        let mut frame_bytes = 0;
        let file = if fleet {
            let (file, bytes) = rec.time("core.fleet", |rec| req_frame_round_trip(rec, &parsed))?;
            parse_bytes += bytes;
            frame_bytes += bytes;
            file
        } else {
            parsed.problem.clone()
        };
        let problem = rec.time("cli.build", |_| build_problem(&file)).map_err(|e| e.to_string())?;
        let warm = fleet.then(|| self.warm.entry(req.stream).or_default());
        let solved = rec
            .time("core.tiered", |_| self.tiered.try_solve_within_caught(&problem, &Budget::unlimited(), warm))
            .map_err(|e| format!("tiered solve failed: {e}"))?;
        if fleet {
            frame_bytes += rec.time("core.fleet", |_| resp_frame_round_trip(req.id, &solved))?;
        }
        let response = rec.time("cli.respond", |_| {
            serde_json::to_string(&ServeResponse::Ok {
                id: parsed.id.clone(),
                tier: solved.degradation.tier.name().to_string(),
                degraded: solved.degradation.degraded,
                utility: solved.utility,
                server: solved.assignment.server.clone(),
                allocation: solved.assignment.amount.clone(),
                latency_ms: 0.0,
            })
            .map_err(|e| e.to_string())
        })?;
        rec.end(root);
        c.push("parse.bytes", parse_bytes as f64);
        c.push("respond.bytes", response.len() as f64);
        c.push("tiered.attempts", solved.degradation.outcomes.len() as f64);

        let root = rec.begin(self.roots.1);
        if !fleet {
            let (_, req_bytes) = rec.time("core.fleet", |rec| req_frame_round_trip(rec, &parsed))?;
            frame_bytes = req_bytes + rec.time("core.fleet", |_| resp_frame_round_trip(req.id, &solved))?;
        }
        c.push("frame.bytes", frame_bytes as f64);
        let (assigned, refined) = algo2_stages(rec, c, &problem, self.ops < COUNTED_OPS);

        let state = self.incremental.entry(req.stream).or_default();
        let warm = rec.time("core.incremental", |_| incremental::solve_incremental(&problem, state));
        let st = state.last_stats();
        c.push("incremental.warm", f64::from(u8::from(st.mode != SolveMode::Cold)));
        c.push("incremental.dirty", st.dirty as f64);
        c.push("incremental.relinearized", st.relinearized as f64);
        c.push("incremental.sweeps", f64::from(st.warm.demand_maps));
        // warm ≡ cold: the program promises bit identity with Algorithm 2
        // on every call, so any difference fails the operation.
        let warm_is_cold = same_bits(&warm, &assigned);
        c.push("incremental.cold_mismatch", f64::from(u8::from(!warm_is_cold)));

        // The answering rung must be reproduced exactly: on the serve path
        // by the cold stages (Algo2 then refine), on the fleet path by the
        // direct warm call through the same per-stream sequence.
        let reproduced = if fleet { same_bits(&solved.assignment, &warm) } else { same_bits(&solved.assignment, &refined) };

        let priced = price_layer(rec, c, &problem);
        if let Ok((_, _, lambda)) = &priced {
            sweeps(rec, c, &problem, *lambda);
        }
        rec.end(root);

        self.ops += 1;
        if !reproduced {
            return Err(format!("request {}: the layer calls do not reproduce the {} answer", req.id, solved.degradation.tier.name()));
        }
        if !warm_is_cold {
            let d = max_abs_diff(&warm.server, &warm.amount, &assigned);
            return Err(format!("request {}: solve_incremental differs from cold Algorithm 2 (largest allocation difference {d:e})", req.id));
        }
        priced.map(|_| ())
    }
}

/// Algorithm 2's stages as separate calls (super-optimal, linearize,
/// assign) plus the per-server refine; returns the Algo2 and the
/// Algo2-refined answers. `counted` also records the super-optimal
/// solve's demand sweeps.
pub fn algo2_stages(
    rec: &mut Recorder,
    c: &mut Counters,
    problem: &Problem,
    counted: bool,
) -> (aa_core::Assignment, aa_core::Assignment) {
    let before = counted.then(|| set_counting(true));
    let so = rec.time("core.superopt", |_| superopt::super_optimal(problem));
    if let Some(before) = before {
        c.push("superopt.sweeps", (set_counting(false) - before) as f64);
    }
    let gs = rec.time("core.linearize", |_| linearize::linearize(problem, &so));
    let assigned = rec.time("core.algo2", |_| algo2::assign_with(problem, &so, &gs));
    let refined = rec.time("core.refine", |_| refine::refine_allocation(problem, &assigned));
    (assigned, refined)
}

/// One cold solve through the price backend's library entry
/// (`PriceSolver` with a fresh warm state, which validates the answer),
/// recording its stats; returns the answer, its stats and the clearing
/// price.
pub fn price_layer(
    rec: &mut Recorder,
    c: &mut Counters,
    problem: &Problem,
) -> Result<(aa_core::Assignment, PriceStats, f64), String> {
    let mut cold = WarmState::new();
    let priced = rec.time("core.price", |_| PriceSolver.try_solve_warm(problem, &mut cold));
    let ps = cold.price().last_stats();
    c.push("price.iterations", ps.iterations as f64);
    c.push("price.refine_iterations", ps.refine_iterations as f64);
    c.push("price.sweeps", ps.sweeps as f64);
    c.push("price.converged", f64::from(u8::from(ps.converged)));
    let a = priced.map_err(|e| format!("price solve failed: {e}"))?;
    Ok((a, ps, cold.price().lambda().unwrap_or(1.0)))
}

/// Front-end → worker: encode the `Req` frame, push it through a memory
/// buffer and decode it as the worker does (that decode is the fleet's
/// second parse, so it is its own `cli.parse` span). Returns the
/// problem the worker sees and the frame's payload bytes.
fn req_frame_round_trip(rec: &mut Recorder, req: &ServeRequest) -> Result<(ProblemFile, usize), String> {
    let msg = ToWorker::Req { seq: 0, stream: req.stream, budget_ms: None, trace: None, problem: req.problem.clone() };
    let payload = serde_json::to_string(&msg).map_err(|e| e.to_string())?;
    let mut wire = Vec::with_capacity(payload.len() + 8);
    write_frame(&mut wire, payload.as_bytes()).map_err(|e| e.to_string())?;
    let got = read_frame(&mut Cursor::new(wire), MAX_FRAME)
        .map_err(|e| format!("frame: {e:?}"))?
        .ok_or("frame: empty read")?;
    match rec.time("cli.parse", |_| serde_json::from_slice::<ToWorker>(&got)) {
        Ok(ToWorker::Req { problem, .. }) => Ok((problem, got.len())),
        Ok(_) => Err("frame decoded to a non-request".into()),
        Err(e) => Err(format!("frame payload does not parse: {e}")),
    }
}

/// Worker → front-end: the `Resp` frame, encoded, framed and decoded.
fn resp_frame_round_trip(seq: u64, s: &aa_core::TieredSolve) -> Result<usize, String> {
    let msg = FromWorker::Resp {
        seq,
        result: WorkerResult::Ok {
            tier: s.degradation.tier.name().to_string(),
            degraded: s.degradation.degraded,
            utility: s.utility,
            server: s.assignment.server.clone(),
            allocation: s.assignment.amount.clone(),
            solve_micros: 0,
        },
    };
    let payload = serde_json::to_string(&msg).map_err(|e| e.to_string())?;
    let mut wire = Vec::with_capacity(payload.len() + 8);
    write_frame(&mut wire, payload.as_bytes()).map_err(|e| e.to_string())?;
    let got = read_frame(&mut Cursor::new(wire), MAX_FRAME)
        .map_err(|e| format!("frame: {e:?}"))?
        .ok_or("frame: empty read")?;
    serde_json::from_slice::<FromWorker>(&got).map_err(|e| format!("response frame does not parse: {e}"))?;
    Ok(got.len())
}

/// Switch the program's span collector on or off (the bisection's
/// demand-sweep counter only counts while it is on); returns the
/// counter's value.
fn set_counting(on: bool) -> u64 {
    aa_obs::Collector::install_with_capacity(1024).set_enabled(on);
    aa_obs::global().counter("aa_bisection_demand_maps_total").get()
}

/// Time one full-width demand sweep at `lambda`, sequential and through
/// the pool, in ns per element.
pub fn sweeps(rec: &mut Recorder, c: &mut Counters, problem: &Problem, lambda: f64) {
    let utils = problem.capped_threads();
    let n = utils.len();
    let mut table = DemandTable::new();
    table.compile(&utils);
    let mut out = vec![0.0; n];
    let reps = SWEEP_MIN_ELEMS.div_ceil(n).max(1);
    let t = Instant::now();
    rec.time("utility.demand.seq", |_| {
        for _ in 0..reps {
            table.batch_inverse_derivative(&utils, lambda, &mut out);
        }
    });
    let seq = t.elapsed().as_secs_f64() * 1e9 / (reps * n) as f64;
    let t = Instant::now();
    rec.time("utility.demand.par", |_| {
        for _ in 0..reps {
            price::par_sweep(&table, &utils, lambda, &mut out);
        }
    });
    let par = t.elapsed().as_secs_f64() * 1e9 / (reps * n) as f64;
    std::hint::black_box(&out);
    c.push("sweep.seq_ns_per_elem", seq);
    c.push("sweep.par_ns_per_elem", par);
    c.push("sweep.bytes", SWEEP_BYTES_PER_ELEM * n as f64);
}

/// The shard layer: the same closed loop (parse and build on this
/// thread, `inflight` jobs outstanding) through an in-process
/// [`ShardPool`], recording each completion's queue wait and solve time.
pub fn shard_loop(
    c: &mut Counters,
    tally: &mut Tally,
    path: Serving,
    inflight: usize,
    reqs: &mut dyn Iterator<Item = Req>,
    budget: Duration,
) {
    let (shards, ladder) = match path {
        Serving::Cold => (1, None),
        Serving::Drift => (2, Some(vec![Tier::Algo2, Tier::Uu])),
    };
    let (tx, rx) = mpsc::channel::<ShardCompletion>();
    let pool = ShardPool::new(
        ShardConfig { shards, ladder, ..ShardConfig::default() },
        &aa_obs::Registry::new(),
        Arc::new(move |done| {
            let _ = tx.send(done);
        }),
    );
    let t0 = Instant::now();
    let mut outstanding = 0;
    let submit = |req: Req| -> Result<(), String> {
        let parsed = parse_request(&req.line())?;
        let problem = build_problem(&parsed.problem).map_err(|e| e.to_string())?;
        pool.submit(ShardJob::new(req.id, parsed.stream, problem, None)).map_err(|e| e.to_string())
    };
    for req in std::iter::from_fn(|| reqs.next()).take(inflight) {
        match submit(req) {
            Ok(()) => outstanding += 1,
            Err(e) => tally.fail(e),
        }
    }
    while outstanding > 0 {
        let Ok(done) = rx.recv() else { break };
        outstanding -= 1;
        match done.outcome {
            Ok(_) => {
                tally.pass();
                c.push("shard.wait.us", done.waited_micros as f64);
                c.push("shard.solve.us", done.solve_micros as f64);
            }
            Err(e) => tally.fail(format!("shard job {} failed: {e}", done.seq)),
        }
        if t0.elapsed() < budget {
            if let Some(req) = reqs.next() {
                match submit(req) {
                    Ok(()) => outstanding += 1,
                    Err(e) => tally.fail(e),
                }
            }
        }
    }
    pool.shutdown();
}

/// Median self time per operation of every layer, looked up in the
/// given root kinds in order (the first kind that holds a layer wins).
pub fn layer_medians(rec: &Recorder, kinds: &[&str]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for kind in kinds {
        for (name, v) in layer_samples_us(&rec.spans, kind) {
            if let (false, Some(m)) = (out.contains_key(name), crate::stats::median(&v)) {
                out.insert(name, m);
            }
        }
    }
    out
}
