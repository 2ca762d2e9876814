//! `aa-perfbench`: the repository's benchmark driver. See
//! `perfbench/README.md` for the workloads, the metrics and how to read
//! them; `perfbench/run.py` builds everything and runs this binary.
//!
//! ```text
//! aa-perfbench --workload serve-cold|fleet-drift|scale-price --seed N
//!              --seconds S --trace 0|1 [--server-bin PATH] [--out-dir DIR]
//!              [--commit SHA] [--rustc VERSION]
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` — end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`. The line
//! before it is the report: provenance, notes and the error rate. Any
//! failed check makes the exit code 1; a run that cannot produce a
//! result exits 2 without printing one.

mod checks;
mod client;
mod gen;
mod layers;
mod procfs;
mod report;
mod scale;
mod serving;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

use report::{Measure, Notes, Outcome};
use serde::Serialize;
use serving::Serving;

/// First seed of the held-out range: seeds at or above it are never used
/// while a change is being written, so a claim can be re-checked on one.
const HELD_OUT_BASE: u64 = 1 << 32;
/// Seeds stay below 2⁵³ so the report prints them exactly.
const SEED_LIMIT: u64 = 1 << 53;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: Option<PathBuf>,
    out_dir: PathBuf,
    commit: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        server_bin: None,
        out_dir: PathBuf::from(".bench_build/perfbench"),
        commit: "unknown".into(),
        rustc: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {v:?}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = v.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = v == "1",
            "--server-bin" => a.server_bin = Some(PathBuf::from(v)),
            "--out-dir" => a.out_dir = PathBuf::from(v),
            "--commit" => a.commit = v,
            "--rustc" => a.rustc = v,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if a.seed >= SEED_LIMIT {
        return Err(format!("--seed must be below 2^53, got {}", a.seed));
    }
    Ok(a)
}

/// The report line, `{"perfbench":{…}}`: provenance, every metric, the
/// error rate and the notes.
#[derive(Serialize)]
struct ReportLine {
    perfbench: Report,
}

#[derive(Serialize)]
struct Report {
    workload: String,
    seed: u64,
    held_out: bool,
    trace: u8,
    seconds: f64,
    nproc: usize,
    pool_threads: usize,
    hardware_threads: usize,
    commit: String,
    rustc: String,
    attempted: u64,
    failed: u64,
    error_rate: Measure,
    first_failure: Option<String>,
    metrics: BTreeMap<String, Measure>,
    notes: Notes,
}

fn hardware_threads() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

fn run(a: &Args) -> Result<(Outcome, Option<trace::Recorder>), String> {
    let serving = match a.workload.as_str() {
        "serve-cold" => Some(Serving::Cold),
        "fleet-drift" => Some(Serving::Drift),
        "scale-price" => None,
        other => return Err(format!("unknown workload {other:?} (serve-cold, fleet-drift, scale-price)")),
    };
    match (serving, a.trace) {
        (Some(kind), trace) => {
            let bin = a.server_bin.as_deref().ok_or("serving workloads need --server-bin")?;
            if !bin.is_file() {
                return Err(format!("server binary {} not found", bin.display()));
            }
            if trace {
                let (o, replay) = serving::run_traced(kind, bin, a.seed, a.seconds)?;
                Ok((o, Some(replay.rec)))
            } else {
                Ok((serving::run_e2e(kind, bin, a.seed, a.seconds)?, None))
            }
        }
        (None, true) => {
            let (o, replay) = scale::run_traced(a.seed, a.seconds)?;
            Ok((o, Some(replay.rec)))
        }
        (None, false) => Ok((scale::run_e2e(a.seed, a.seconds)?, None)),
    }
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("aa-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let jiffies = procfs::cpu_jiffies();
    let (mut o, rec) = match run(&a) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("aa-perfbench: {} failed: {e}", a.workload);
            std::process::exit(2);
        }
    };
    if let Some(rec) = rec {
        let path = a.out_dir.join(format!("trace-{}-{}.json", a.workload, a.seed));
        let written = std::fs::create_dir_all(&a.out_dir)
            .and_then(|()| std::fs::write(&path, trace::chrome_trace_json(&rec.spans, &a.workload)));
        match written {
            Ok(()) => o.notes.chrome_trace = Some(path.display().to_string()),
            Err(e) => eprintln!("aa-perfbench: could not write {}: {e}", path.display()),
        }
    }
    o.notes.cpu_steal_share = jiffies.zip(procfs::cpu_jiffies()).and_then(|(b, e)| procfs::steal_share(&b, &e));
    o.require_finite();

    let metrics = o.measures(true);
    let first_failure = o.tally.first_failure.clone();
    if let Some(why) = &first_failure {
        eprintln!("aa-perfbench: check failed: {why}");
    }
    let result = o.result_line();
    let report = ReportLine {
        perfbench: Report {
            workload: a.workload.clone(),
            seed: a.seed,
            held_out: a.seed >= HELD_OUT_BASE,
            trace: u8::from(a.trace),
            seconds: a.seconds,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pool_threads: rayon::current_num_threads(),
            hardware_threads: hardware_threads(),
            commit: a.commit.clone(),
            rustc: a.rustc.clone(),
            attempted: o.tally.attempted,
            failed: o.tally.failed,
            error_rate: Measure::new(o.tally.error_rate(), "ratio"),
            first_failure,
            metrics,
            notes: o.notes,
        },
    };
    println!("{}", serde_json::to_string(&report).expect("the report line serializes"));
    println!("{result}");
    std::process::exit(i32::from(o.tally.failed > 0));
}
