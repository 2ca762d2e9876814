//! Metrics, notes, the report line and the result line.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::checks::Tally;
use crate::layers::{layer_medians, Replay};
use crate::stats::{self, Tail};
use crate::trace::layer_samples_us;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// A metric as printed: its value (`null` when it was not measured) and
/// unit.
#[derive(Debug, Clone, Serialize)]
pub struct Measure {
    pub value: Option<f64>,
    pub unit: &'static str,
}

impl Measure {
    pub fn new(value: f64, unit: &'static str) -> Measure {
        Measure { value: value.is_finite().then_some(value), unit }
    }
}

/// Which percentile `latency_p99_ms` holds and over how many samples.
#[derive(Debug, Clone, Serialize)]
pub struct TailNote {
    pub percentile: f64,
    pub samples: usize,
    pub beyond: usize,
    pub supported: bool,
}

impl From<Tail> for TailNote {
    fn from(t: Tail) -> TailNote {
        TailNote { percentile: t.percentile, samples: t.samples, beyond: t.beyond, supported: t.beyond >= stats::TAIL_BEYOND }
    }
}

/// The `fleet-drift` warm ≡ cold sample: answers compared with a cold
/// `algo2::solve`, how many differ in any bit, and the largest
/// allocation difference among those.
#[derive(Debug, Clone, Serialize)]
pub struct WarmVsCold {
    pub checked: u64,
    pub bit_mismatches: u64,
    pub max_abs_diff: f64,
}

/// The report line's notes; each workload and mode fills the ones that
/// apply to it, the others print as `null`.
#[derive(Debug, Default, Serialize)]
pub struct Notes {
    /// Serve workloads: the server's command line.
    pub server: Option<String>,
    /// Serve workloads: request lines sent and their bytes (newlines
    /// included), answers inside the measured window, and its length.
    pub requests: Option<u64>,
    pub request_bytes: Option<u64>,
    pub measured_ok: Option<usize>,
    pub window_s: Option<f64>,
    /// `ok_per_s` per block of the measured window.
    pub block_ok_per_s: Option<Vec<f64>>,
    /// Every set-up time `setup_s` is the median of.
    pub setup_samples_s: Option<Vec<f64>>,
    pub latency_tail: Option<TailNote>,
    pub warm_vs_cold: Option<WarmVsCold>,
    /// `scale-price`: solves made, instances built, threads per
    /// instance, the pool width, every solve's latency and sweep count.
    pub solves: Option<usize>,
    pub instances: Option<usize>,
    pub threads: Option<usize>,
    pub pool_width: Option<usize>,
    pub latencies_ms: Option<Vec<f64>>,
    pub sweeps_per_solve: Option<Vec<f64>>,
    /// Traced runs: requests sent by the client loops, replayed in
    /// process and run through the shard pool.
    pub client_requests: Option<u64>,
    pub replayed_requests: Option<usize>,
    pub shard_jobs: Option<usize>,
    /// `scale-price` traced: threads per request-sized slice.
    pub slice_threads: Option<usize>,
    /// Traced runs: the request-path layers, the queue wait and the
    /// residual, in µs, and the ceiling the residual's share must stay
    /// within.
    pub request_path_us: Option<BTreeMap<String, f64>>,
    pub residual_ceiling: Option<f64>,
    pub sweep_bytes: Option<&'static str>,
    pub chrome_trace: Option<String>,
    /// Hypervisor steal over the run, as a share of CPU time.
    pub cpu_steal_share: Option<f64>,
}

/// A run's result: the check tally, its metrics, and notes for the
/// report line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    /// The metrics `BENCHMARK.json` lists: the result line carries
    /// exactly these.
    pub metrics: Vec<Metric>,
    /// Metrics printed in the report line only (no bound).
    pub unbounded: Vec<Metric>,
    pub notes: Notes,
}

/// The result line: the last line of standard output.
#[derive(Debug, Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Measure>,
}

impl Outcome {
    pub fn new(tally: Tally) -> Outcome {
        Outcome { tally, ..Outcome::default() }
    }

    pub fn metric(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// Fail the run for every metric that was not measured.
    pub fn require_finite(&mut self) {
        for m in &self.metrics {
            if !m.value.is_finite() {
                self.tally.fail(format!("metric {} was not measured", m.name));
            }
        }
    }

    /// The bounded metrics by name; with `all`, the unbounded ones too.
    pub fn measures(&self, all: bool) -> BTreeMap<String, Measure> {
        let extra = if all { &self.unbounded[..] } else { &[] };
        self.metrics.iter().chain(extra).map(|m| (m.name.to_string(), Measure::new(m.value, m.unit))).collect()
    }

    /// The last line of standard output.
    pub fn result_line(&self) -> String {
        let line = ResultLine {
            correct: self.tally.failed == 0,
            attempted: self.tally.attempted.max(1),
            failed: self.tally.failed,
            metrics: self.measures(false),
        };
        serde_json::to_string(&line).expect("the result line serializes")
    }
}

/// Stated ceiling on `|unattributed.share|`: the request-path layers must
/// explain the client p50 to within this share, or the traced run fails.
/// Measured 5–19% on `serve-cold`, 16% on `fleet-drift` and 2–3% on
/// `scale-price` (perfbench/README.md, "The residual").
pub const RESIDUAL_CEILING: f64 = 0.3;

/// The client-measured median an operation's layers must add up to: with
/// the workload's requests in flight, and with one at a time (no request
/// waits behind another, so the difference is queueing).
#[derive(Debug, Clone, Copy)]
pub struct ClientP50 {
    pub loaded_us: f64,
    pub solo_us: f64,
}

/// The per-layer metrics of a traced run. `kinds` lists the root span
/// kinds to read layers from, request path first. The request path is
/// the layers under `kinds[0]` plus the queue wait `loaded − solo`; what
/// they leave of the loaded client p50 is `unattributed.us`.
pub fn layer_metrics(o: &mut Outcome, replay: &Replay, client: ClientP50, kinds: &[&str]) {
    let layers = layer_medians(&replay.rec, kinds);
    let c = &replay.counters;
    let us = |name: &str| layers.get(name).copied().unwrap_or(f64::NAN);
    let med = |name: &str| c.median(name).unwrap_or(f64::NAN);
    let mean = |name: &str| c.mean(name).unwrap_or(f64::NAN);

    let queue_us = client.loaded_us - client.solo_us;
    let mut request_path: Vec<(&str, f64)> = layer_samples_us(&replay.rec.spans, kinds[0])
        .into_iter()
        .filter_map(|(name, v)| stats::median(&v).map(|m| (name, m)))
        .collect();
    request_path.push(("queue.wait", queue_us));
    let (unattributed, share) = stats::residual(client.loaded_us, &request_path);

    let parse_us = us("cli.parse");
    for (name, value, unit) in [
        ("parse.us", parse_us, "us"),
        ("parse.ns_per_byte", parse_us * 1e3 / med("parse.bytes"), "ns/B"),
        ("parse.bytes", med("parse.bytes"), "B"),
        ("build.us", us("cli.build"), "us"),
        ("respond.us", us("cli.respond"), "us"),
        ("respond.bytes", med("respond.bytes"), "B"),
        ("frame.us", us("core.fleet"), "us"),
        ("frame.bytes", med("frame.bytes"), "B"),
        ("fleet.attempts_per_ok", mean("fleet.attempts"), "ratio"),
        // The pool reports whole microseconds; a mean keeps the
        // sub-microsecond resolution a median of integers would lose.
        ("shard.wait.us", mean("shard.wait.us"), "us"),
        ("shard.solve.us", mean("shard.solve.us"), "us"),
        ("tiered.us", us("core.tiered"), "us"),
        ("tiered.attempts_per_answer", mean("tiered.attempts"), "ratio"),
        ("superopt.us", us("core.superopt"), "us"),
        ("superopt.sweeps", med("superopt.sweeps"), "count"),
        ("linearize.us", us("core.linearize"), "us"),
        ("assign.us", us("core.algo2"), "us"),
        ("refine.us", us("core.refine"), "us"),
        ("incremental.us", us("core.incremental"), "us"),
        ("incremental.warm_share", mean("incremental.warm"), "ratio"),
        ("incremental.dirty", med("incremental.dirty"), "count"),
        ("incremental.relinearized", med("incremental.relinearized"), "count"),
        ("incremental.sweeps", med("incremental.sweeps"), "count"),
        ("incremental.cold_mismatch_share", mean("incremental.cold_mismatch"), "ratio"),
        ("price.us", us("core.price"), "us"),
        ("price.iterations", med("price.iterations"), "count"),
        ("price.refine_iterations", med("price.refine_iterations"), "count"),
        ("price.sweeps", med("price.sweeps"), "count"),
        ("price.converged_share", mean("price.converged"), "ratio"),
        ("sweep.seq_ns_per_elem", med("sweep.seq_ns_per_elem"), "ns/elem"),
        ("sweep.par_ns_per_elem", med("sweep.par_ns_per_elem"), "ns/elem"),
        ("sweep.bytes", med("sweep.bytes"), "B"),
        ("client.p50_us", client.loaded_us, "us"),
        ("client.solo_p50_us", client.solo_us, "us"),
        ("unattributed.us", unattributed, "us"),
        ("unattributed.share", share, "ratio"),
    ] {
        o.metric(Metric::new(name, value, unit));
    }
    let mut path: BTreeMap<String, f64> = request_path.iter().map(|(n, v)| (n.to_string(), *v)).collect();
    path.insert("unattributed".to_string(), unattributed);
    o.notes.request_path_us = Some(path);
    o.notes.residual_ceiling = Some(RESIDUAL_CEILING);
    o.notes.sweep_bytes = Some("computed from the demand table's column layout, not measured");
    // The table must explain the client p50: a residual beyond the
    // ceiling, either way, fails the run.
    if share.is_nan() || share.abs() > RESIDUAL_CEILING {
        o.tally.fail(format!(
            "unattributed.share {share:.3} is outside ±{RESIDUAL_CEILING}: the request-path layers do not explain the client p50"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut tally = Tally::default();
        tally.pass();
        let mut o = Outcome::new(tally);
        o.metric(Metric::new("latency_p50_ms", 0.8125, "ms"));
        o.metric(Metric::new("setup_s", f64::NAN, "s"));
        o.unbounded.push(Metric::new("ok_per_s", 2400.5, "1/s"));
        let v: serde_json::Value = serde_json::from_str(&o.result_line()).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!((v["correct"].as_bool(), v["attempted"].as_u64(), v["failed"].as_u64()), (Some(true), Some(1), Some(0)));
        let m = &v["metrics"];
        assert_eq!((m["latency_p50_ms"]["value"].as_f64(), m["latency_p50_ms"]["unit"].as_str()), (Some(0.8125), Some("ms")));
        // Not measured prints as null; unbounded metrics stay out.
        assert_eq!(m["setup_s"]["value"], serde_json::Value::Null);
        assert_eq!(m["ok_per_s"], serde_json::Value::Null);
        assert!(o.measures(true).contains_key("ok_per_s"));
    }
}
