//! `aa-solve serve` — a deadline-aware LDJSON request loop over one
//! supervisor and its worker slots.
//!
//! Requests arrive one JSON object per line on stdin; responses leave
//! one JSON object per line on stdout, in completion order (clients
//! correlate by echoed `id`). The loop is this module's **reader** (the
//! calling thread) in front of the one supervisor of [`crate::fleet`],
//! which routes, tracks, replays and answers every admitted request. Each worker slot runs over one of two links:
//!
//! * a **thread** fed already-parsed, already-built problems over a
//!   channel — `serve` runs one, `serve --shards N` runs `N`;
//! * a **process** (this binary re-execed in the hidden `serve-worker`
//!   mode) speaking [`crate::proto`] frames — `serve --fleet N`.
//!
//! Both links run the one worker body ([`aa_core::Worker`]): the tier
//! ladder behind a `catch_unwind` boundary (a panicking solve answers
//! `{"status":"error","class":"solve_panic"}` and the worker keeps
//! serving), per-stream [`WarmState`](aa_core::WarmState), the deadline
//! budget and the fault schedule. A dead worker of either link has its
//! in-flight and queued requests replayed on the survivors (up to
//! `--max-retries` dispatches) and respawns with backoff.
//!
//! The reader parses lines (bounded by `--max-line-bytes`; an oversized
//! line is answered with a `class:"parse"` error instead of growing the
//! buffer without bound), builds each problem once (an invalid one is
//! answered `class:"problem"` without a dispatch), and admits the parsed
//! request under the supervisor's lock. Admission beyond `queue × workers`
//! pending requests is answered immediately with
//! `{"status":"overloaded","retry_after_ms":…}` — load is shed at the
//! door instead of growing an unbounded backlog that makes every
//! deadline unmeetable.
//!
//! All accounting flows through an [`aa_obs::Registry`] (the
//! `aa_serve_*` request family, the `aa_slo_*` latency objective, and
//! the supervisor's `aa_fleet_*` series), so a live `--metrics-addr`
//! scrape sees the same numbers the shutdown dump reports.
//! [`ServeCounters`] is a snapshot of that registry taken at EOF.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::mpsc::{self, Sender};
use std::sync::Mutex;
use std::time::Instant;

use aa_core::fleet::{
    DEFAULT_DRAIN_TIMEOUT_MS, DEFAULT_HEARTBEAT_INTERVAL_MS, DEFAULT_HEARTBEAT_MISS_LIMIT,
    DEFAULT_MAX_RETRIES, DEFAULT_SLO_P99_MS,
};
use aa_core::tiered::Tier;
use aa_sim::FleetChaosPlan;
use serde::{Deserialize, Serialize};

use crate::fleet::{Admit, Event, FleetCore};
use crate::{build_problem, CliError, ProblemFile};

/// One request line: an optional correlation `id` (echoed back
/// verbatim), an optional stream key for warm-state locality, an
/// optional per-request deadline, and the problem.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Client correlation token; any JSON value, echoed in the response.
    pub id: serde_json::Value,
    /// Warm-state routing key: requests sharing a `stream` go to the
    /// same worker and reuse its incremental solver state. Omitted →
    /// the least-loaded worker.
    pub stream: Option<u64>,
    /// Wall-clock deadline for this request, milliseconds from arrival.
    /// Falls back to the loop's `--deadline-ms` default, else unlimited.
    pub deadline_ms: Option<u64>,
    /// The problem to solve.
    pub problem: ProblemFile,
}

// Hand-written so `id`, `stream`, and `deadline_ms` may be omitted
// entirely; the derive treats every field as required.
impl Deserialize for ServeRequest {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let obj = serde::expect_obj(v, "ServeRequest")?;
        let id = v.get("id").cloned().unwrap_or(serde::Value::Null);
        let stream = match v.get("stream") {
            None | Some(serde::Value::Null) => None,
            Some(s) => Some(s.as_u64().ok_or_else(|| {
                format!("ServeRequest.stream: expected unsigned integer, found {s:?}")
            })?),
        };
        let deadline_ms = match v.get("deadline_ms") {
            None | Some(serde::Value::Null) => None,
            Some(d) => Some(d.as_u64().ok_or_else(|| {
                format!("ServeRequest.deadline_ms: expected unsigned integer, found {d:?}")
            })?),
        };
        let problem = serde::de_field(obj, "problem", "ServeRequest")?;
        Ok(ServeRequest { id, stream, deadline_ms, problem })
    }
}

/// One response line. The loop writes `Ok` with three routing fields
/// appended — `worker` (the slot that answered), `attempts` (dispatches
/// it took; more than 1 means it survived a worker death) and
/// `solve_micros` (worker-side solve time).
#[derive(Debug, Clone, Serialize)]
#[serde(tag = "status", rename_all = "snake_case")]
pub enum ServeResponse {
    /// The solve finished (possibly degraded — see `tier`).
    Ok {
        /// Echoed request id.
        id: serde_json::Value,
        /// Name of the ladder tier that answered.
        tier: String,
        /// True when the answer is anything less than the top tier
        /// completing.
        degraded: bool,
        /// Total utility of the assignment.
        utility: f64,
        /// Server index per thread.
        server: Vec<usize>,
        /// Allocation per thread.
        allocation: Vec<f64>,
        /// End-to-end latency (arrival → response), milliseconds.
        latency_ms: f64,
    },
    /// The admission queue was full; nothing was attempted. Retry after
    /// the hinted backoff.
    Overloaded {
        /// Echoed request id.
        id: serde_json::Value,
        /// Suggested client backoff: the queue's current estimated
        /// drain time.
        retry_after_ms: u64,
    },
    /// The request failed. `class` is stable for dispatch; `error` is
    /// human-readable.
    Error {
        /// Echoed request id (`null` for unparseable lines).
        id: serde_json::Value,
        /// Error class: `parse`, `problem`, `deadline`, `solve`,
        /// `solve_panic` (a contained solver panic), `control` (a bad
        /// control line), `internal` (retries exhausted or every worker
        /// retired; safe to retry) or `shutdown` (unanswered when the
        /// post-EOF drain timed out; safe to retry).
        class: String,
        /// Human-readable detail.
        error: String,
    },
}

/// Latency accounting for one ladder tier: a snapshot of the
/// `aa_serve_tier_solve_micros{tier=…}` histogram.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TierCounter {
    /// Requests this tier answered.
    pub answered: u64,
    /// Total solve wall time across those answers, microseconds.
    pub total_micros: u64,
    /// Worst single solve wall time, microseconds.
    pub max_micros: u64,
}

/// Counters accumulated over one serve session, dumped at shutdown: a
/// snapshot of the session's `aa_serve_*` registry entries taken at EOF.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ServeCounters {
    /// Non-empty request lines read.
    pub received: u64,
    /// Requests answered with `status: ok`.
    pub solved: u64,
    /// Requests shed at admission (queue full).
    pub shed: u64,
    /// Admitted requests whose deadline lapsed before a worker got to
    /// them (answered without a solve).
    pub expired_in_queue: u64,
    /// Lines that were not valid requests (including oversized lines).
    pub parse_errors: u64,
    /// Requests whose problem was invalid or whose solve failed
    /// (cancellation, contained panic).
    pub solve_errors: u64,
    /// Solves that panicked (contained); a subset of `solve_errors`.
    pub solve_panics: u64,
    /// Admitted requests answered `class:"internal"`: out of dispatch
    /// attempts after repeated worker deaths, or no live worker left.
    pub internal_errors: u64,
    /// Solved requests whose end-to-end latency exceeded their deadline
    /// by more than the grace window.
    pub deadline_misses: u64,
    /// Median end-to-end latency over `status: ok` responses,
    /// milliseconds (histogram-derived, capped at the exact observed
    /// maximum; 0 when nothing was solved).
    pub latency_p50_ms: f64,
    /// 99th-percentile end-to-end latency over `status: ok` responses,
    /// milliseconds (histogram-derived, capped at the exact observed
    /// maximum; 0 when nothing was solved).
    pub latency_p99_ms: f64,
    /// Latency accounting per answering tier.
    pub per_tier: BTreeMap<String, TierCounter>,
}

/// How the supervisor talks to its worker slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// In-process solver threads (`serve`, `serve --shards N`).
    Thread,
    /// Worker processes re-execed from this binary (`serve --fleet N`).
    Process,
}

/// Default restart budget per worker slot before it is retired.
pub const DEFAULT_MAX_RESTARTS: u64 = 8;

/// Configuration for [`run_serve`], one struct for every mode.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// The worker link: threads or processes.
    pub link: Link,
    /// Worker slots (`--shards N` / `--fleet N`; 1 for plain `serve`).
    pub workers: usize,
    /// Per-worker admission depth; the loop sheds beyond
    /// `queue × workers` pending requests.
    pub queue: usize,
    /// Deadline for requests that don't carry their own, milliseconds.
    pub default_deadline_ms: Option<u64>,
    /// Slack added to a deadline before a completed solve counts as a
    /// miss, milliseconds.
    pub grace_ms: u64,
    /// Longest accepted input line, bytes; longer lines are answered
    /// with a `class:"parse"` error and skipped.
    pub max_line_bytes: usize,
    /// Heartbeat ping interval for process links, milliseconds.
    pub heartbeat_ms: u64,
    /// Consecutive unanswered pings before a worker process is declared
    /// dead.
    pub heartbeat_miss_limit: u32,
    /// Dispatch attempts per request before it is answered with a
    /// retryable `class:"internal"` error.
    pub max_retries: u32,
    /// Restarts per worker slot before it is retired.
    pub max_restarts: u64,
    /// Post-EOF drain budget, milliseconds (also forwarded to worker
    /// processes).
    pub drain_timeout_ms: u64,
    /// Per-worker warm-stream cap.
    pub max_streams: usize,
    /// Circuit breaker: consecutive tier failures before it opens.
    pub breaker_threshold: u32,
    /// Circuit breaker: requests a tripped tier sits out.
    pub breaker_cooldown: u64,
    /// Solver ladder override; `None` is the full default ladder.
    pub ladder: Option<Vec<Tier>>,
    /// Seed for retry/respawn backoff jitter.
    pub seed: u64,
    /// Chrome-trace output path (`--trace`). The front-end records a
    /// request span per admission; thread links record their pipeline
    /// spans into the same collector, process links ship theirs back and
    /// are merged as one lane per worker process.
    pub trace: Option<PathBuf>,
    /// End-to-end p99 latency objective, milliseconds (`--slo-p99-ms`);
    /// `None` uses [`DEFAULT_SLO_P99_MS`].
    pub slo_p99_ms: Option<u64>,
    /// Worker executable override for process links; `None` re-execs
    /// the current binary. A testing hook (`--worker-cmd`).
    pub worker_cmd: Option<PathBuf>,
    /// Scheduled worker faults, per slot. `None` in production.
    pub chaos: Option<FleetChaosPlan>,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            link: Link::Thread,
            workers: 1,
            queue: 16,
            default_deadline_ms: None,
            grace_ms: 10,
            max_line_bytes: 1 << 20,
            heartbeat_ms: DEFAULT_HEARTBEAT_INTERVAL_MS,
            heartbeat_miss_limit: DEFAULT_HEARTBEAT_MISS_LIMIT,
            max_retries: DEFAULT_MAX_RETRIES,
            max_restarts: DEFAULT_MAX_RESTARTS,
            drain_timeout_ms: DEFAULT_DRAIN_TIMEOUT_MS,
            max_streams: 1024,
            breaker_threshold: aa_core::tiered::DEFAULT_BREAKER_THRESHOLD,
            breaker_cooldown: aa_core::tiered::DEFAULT_BREAKER_COOLDOWN,
            ladder: None,
            seed: 0,
            trace: None,
            slo_p99_ms: None,
            worker_cmd: None,
            chaos: None,
        }
    }
}

/// Registry handles for one serve session. Every count the loop keeps
/// lives in the metrics registry; [`ServeCounters`] is derived from
/// these handles at EOF.
pub(crate) struct ServeMetrics {
    pub(crate) received: aa_obs::Counter,
    pub(crate) solved: aa_obs::Counter,
    pub(crate) shed: aa_obs::Counter,
    pub(crate) expired_in_queue: aa_obs::Counter,
    pub(crate) parse_errors: aa_obs::Counter,
    pub(crate) solve_errors: aa_obs::Counter,
    pub(crate) solve_panics: aa_obs::Counter,
    pub(crate) internal_errors: aa_obs::Counter,
    pub(crate) deadline_misses: aa_obs::Counter,
    /// End-to-end latency of `status: ok` responses.
    pub(crate) latency: aa_obs::Histogram,
    /// Solve wall time per answering tier
    /// (`aa_serve_tier_solve_micros{tier=…}`).
    pub(crate) per_tier: Vec<(&'static str, aa_obs::Histogram)>,
    /// End-to-end latency per response class
    /// (`aa_slo_e2e_micros{class=…}`).
    pub(crate) per_class_e2e: Vec<(&'static str, aa_obs::Histogram)>,
    /// Burn-rate tracker against the p99 latency objective (`aa_slo_*`).
    pub(crate) slo: aa_obs::SloTracker,
}

/// Response classes with end-to-end latency semantics; each gets a
/// pre-registered `aa_slo_e2e_micros{class=…}` histogram.
const SLO_CLASSES: [&str; 8] =
    ["ok", "overloaded", "deadline", "solve", "solve_panic", "problem", "internal", "shutdown"];

impl ServeMetrics {
    pub(crate) fn with_slo_target(registry: &aa_obs::Registry, target_micros: u64) -> Self {
        ServeMetrics {
            received: registry.counter("aa_serve_received_total"),
            solved: registry.counter("aa_serve_solved_total"),
            shed: registry.counter("aa_serve_shed_total"),
            expired_in_queue: registry.counter("aa_serve_expired_in_queue_total"),
            parse_errors: registry.counter("aa_serve_parse_errors_total"),
            solve_errors: registry.counter("aa_serve_solve_errors_total"),
            solve_panics: registry.counter("aa_serve_solve_panics_total"),
            internal_errors: registry.counter("aa_serve_internal_errors_total"),
            deadline_misses: registry.counter("aa_serve_deadline_misses_total"),
            latency: registry.histogram("aa_serve_latency_micros"),
            per_tier: [Tier::BranchAndBound, Tier::Algo2Refined, Tier::Algo2, Tier::Price, Tier::Uu]
                .iter()
                .map(|t| {
                    (
                        t.name(),
                        registry.histogram_labeled("aa_serve_tier_solve_micros", "tier", t.name()),
                    )
                })
                .collect(),
            per_class_e2e: SLO_CLASSES
                .iter()
                .map(|c| (*c, registry.histogram_labeled("aa_slo_e2e_micros", "class", c)))
                .collect(),
            slo: aa_obs::SloTracker::register(registry, target_micros),
        }
    }

    /// Record one finished request against the SLO layer: the per-class
    /// end-to-end histogram plus the burn-rate tracker (only `ok`
    /// responses under the target count as good).
    pub(crate) fn observe_e2e(&self, class: &str, latency_micros: u64) {
        let latency = latency_micros.max(1);
        if let Some((_, h)) = self.per_class_e2e.iter().find(|(n, _)| *n == class) {
            h.record_micros(latency);
        }
        self.slo.observe(latency, class == "ok");
    }

    /// The EOF snapshot. Tiers that never answered are omitted, matching
    /// the pre-registry dump (a `BTreeMap` populated on first answer).
    pub(crate) fn snapshot(&self) -> ServeCounters {
        let mut per_tier = BTreeMap::new();
        for (name, h) in &self.per_tier {
            if h.count() > 0 {
                per_tier.insert(
                    (*name).to_string(),
                    TierCounter {
                        answered: h.count(),
                        total_micros: h.sum_micros(),
                        max_micros: h.max_micros(),
                    },
                );
            }
        }
        #[allow(clippy::cast_precision_loss)]
        ServeCounters {
            received: self.received.get(),
            solved: self.solved.get(),
            shed: self.shed.get(),
            expired_in_queue: self.expired_in_queue.get(),
            parse_errors: self.parse_errors.get(),
            solve_errors: self.solve_errors.get(),
            solve_panics: self.solve_panics.get(),
            internal_errors: self.internal_errors.get(),
            deadline_misses: self.deadline_misses.get(),
            latency_p50_ms: self.latency.quantile_micros(0.50) as f64 / 1e3,
            latency_p99_ms: self.latency.quantile_micros(0.99) as f64 / 1e3,
            per_tier,
        }
    }
}

/// Run the request loop until `input` reaches EOF, then drain (bounded
/// by `drain_timeout_ms`; what remains is answered `class:"shutdown"`)
/// and return the session counters. Responses go to `output` one JSON
/// object per line. Spawn failure of a worker process at startup is
/// [`CliError::WorkerSpawn`] (exit code 9).
///
/// All accounting goes through `registry`. Handles are get-or-create:
/// running two sessions through the same registry accumulates across
/// both (pass a fresh [`aa_obs::Registry`] per session for isolated
/// counts; the binary passes the process-global one so `--metrics-addr`
/// scrapes cover the whole run).
pub fn run_serve<R: BufRead, W: Write + Send>(
    input: R,
    output: W,
    opts: &ServeOpts,
    registry: &aa_obs::Registry,
) -> Result<ServeCounters, CliError> {
    let out = Mutex::new(output);
    let metrics = ServeMetrics::with_slo_target(
        registry,
        opts.slo_p99_ms.unwrap_or(DEFAULT_SLO_P99_MS).saturating_mul(1000),
    );
    let (tx, rx) = mpsc::channel::<Event>();
    let core = Mutex::new(FleetCore::new(opts, registry, &out, &metrics, tx.clone())?);
    std::thread::scope(|s| {
        let core = &core;
        let event_loop = s.spawn(move || FleetCore::run(core, &rx));
        let read_result = reader_loop(input, core, &tx, &out, &metrics, opts);
        let _ = tx.send(Event::Eof);
        drop(tx);
        event_loop.join().expect("serve event loop does not panic");
        read_result.map_err(CliError::Io)
    })?;
    Ok(metrics.snapshot())
}

/// Outcome of one bounded line read.
pub(crate) enum LineRead {
    /// End of input.
    Eof,
    /// A complete line is in the buffer (trailing newline stripped).
    Line,
    /// The line exceeded the cap; the buffer holds its prefix and the
    /// rest was discarded up to the next newline.
    Oversized,
}

/// Read one `\n`-terminated line into `buf`, never buffering more than
/// `max + 1` bytes of it. The overflow tail is consumed (discarded) so
/// the reader stays line-synchronized for the next request.
pub(crate) fn read_bounded_line<R: BufRead>(
    input: &mut R,
    buf: &mut Vec<u8>,
    max: usize,
) -> std::io::Result<LineRead> {
    buf.clear();
    let n = std::io::Read::take(&mut *input, max as u64 + 1).read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(LineRead::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        return Ok(LineRead::Line);
    }
    if buf.len() <= max {
        // Final line without a trailing newline.
        return Ok(LineRead::Line);
    }
    // Over the cap mid-line: skip to the next newline without buffering.
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            break;
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                input.consume(pos + 1);
                break;
            }
            None => {
                let len = chunk.len();
                input.consume(len);
            }
        }
    }
    Ok(LineRead::Oversized)
}

/// Parse stdin lines and admit them. Parse and problem errors are
/// answered here, without a dispatch; control lines become events, and
/// unknown ones get `class:"control"`.
fn reader_loop<R: BufRead, W: Write>(
    mut input: R,
    core: &Mutex<FleetCore<'_, W>>,
    tx: &Sender<Event>,
    out: &Mutex<W>,
    metrics: &ServeMetrics,
    opts: &ServeOpts,
) -> std::io::Result<()> {
    let parse_error = |error: String| {
        metrics.parse_errors.inc();
        respond(out, &ServeResponse::Error { id: serde_json::Value::Null, class: "parse".into(), error })
    };
    let mut buf = Vec::new();
    loop {
        match read_bounded_line(&mut input, &mut buf, opts.max_line_bytes)? {
            LineRead::Eof => return Ok(()),
            LineRead::Oversized => {
                metrics.received.inc();
                parse_error(format!(
                    "request line exceeds the {} byte cap (--max-line-bytes)",
                    opts.max_line_bytes
                ))?;
                continue;
            }
            LineRead::Line => {}
        }
        let read_at = Instant::now();
        let Ok(line) = std::str::from_utf8(&buf) else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "request stream is not valid UTF-8",
            ));
        };
        if line.trim().is_empty() {
            continue;
        }
        metrics.received.inc();
        let value = match serde_json::from_str::<serde_json::Value>(line) {
            Err(e) => {
                parse_error(e.to_string())?;
                continue;
            }
            Ok(v) => v,
        };
        if let Some(control) = value.get("control") {
            let id = value.get("id").cloned().unwrap_or(serde_json::Value::Null);
            let fleet = value.get("fleet").and_then(serde_json::Value::as_u64);
            match (control.as_str(), fleet) {
                (Some("resize"), Some(n)) if n >= 1 => {
                    #[allow(clippy::cast_possible_truncation)]
                    let workers = n as usize;
                    if tx.send(Event::Resize { workers, id }).is_err() {
                        return Ok(());
                    }
                }
                _ => {
                    metrics.parse_errors.inc();
                    respond(
                        out,
                        &ServeResponse::Error {
                            id,
                            class: "control".to_string(),
                            error: "unsupported control line; expected \
                                    {\"control\":\"resize\",\"fleet\":N} with N >= 1"
                                .to_string(),
                        },
                    )?;
                }
            }
            continue;
        }
        let req = match <ServeRequest as Deserialize>::from_value(&value) {
            Err(e) => {
                parse_error(e)?;
                continue;
            }
            Ok(req) => req,
        };
        // Build once, here: an invalid problem never costs a dispatch,
        // and a thread link solves this very `Problem`.
        let problem = match build_problem(&req.problem) {
            Ok(p) => p,
            Err(e) => {
                metrics.solve_errors.inc();
                #[allow(clippy::cast_possible_truncation)]
                metrics.observe_e2e("problem", read_at.elapsed().as_micros() as u64);
                respond(
                    out,
                    &ServeResponse::Error { id: req.id, class: "problem".to_string(), error: e.to_string() },
                )?;
                continue;
            }
        };
        let admit = Admit {
            id: req.id,
            stream: req.stream,
            deadline_ms: req.deadline_ms.or(opts.default_deadline_ms),
            arrived: Instant::now(),
            spec: req.problem,
            problem,
        };
        core.lock().expect("the supervisor lock is never held across a panic").on_admit(admit);
    }
}

/// Backoff hint for a shed request: queue depth × the mean solve time
/// observed so far. Pure so its invariants are property-tested: the
/// hint is monotone (non-decreasing) in queue depth and strictly
/// positive — a shed client is never told to retry in zero milliseconds.
pub fn drain_hint_ms(answered: u64, total_micros: u64, queue: usize) -> u64 {
    // 1 ms/solve assumed before any solve completes.
    let mean_micros = total_micros.checked_div(answered).unwrap_or(1000);
    (mean_micros.saturating_mul(queue as u64) / 1000).max(1)
}

/// [`drain_hint_ms`] fed from the per-tier histograms.
pub(crate) fn estimated_drain_ms(metrics: &ServeMetrics, queue: usize) -> u64 {
    let (answered, micros) = metrics
        .per_tier
        .iter()
        .fold((0_u64, 0_u64), |(a, m), (_, h)| (a + h.count(), m + h.sum_micros()));
    drain_hint_ms(answered, micros, queue)
}

/// Write one response line and flush.
pub(crate) fn respond<W: Write, T: Serialize>(out: &Mutex<W>, response: &T) -> std::io::Result<()> {
    let line = serde_json::to_string(response).expect("responses always serialize");
    let mut w = out.lock().unwrap_or_else(|e| e.into_inner());
    writeln!(w, "{line}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_core::{Fault, Ring};
    use aa_utility::UtilitySpec;

    fn request_line(id: u64, deadline_ms: Option<u64>, threads: usize) -> String {
        let problem = ProblemFile {
            servers: 4,
            capacity: 100.0,
            threads: (0..threads)
                .map(|i| UtilitySpec::Power {
                    scale: 1.0 + (i % 7) as f64,
                    beta: 0.5,
                    cap: 100.0,
                })
                .collect(),
        };
        let problem = serde_json::to_string(&problem).unwrap();
        match deadline_ms {
            Some(d) => format!(r#"{{"id":{id},"deadline_ms":{d},"problem":{problem}}}"#),
            None => format!(r#"{{"id":{id},"problem":{problem}}}"#),
        }
    }

    fn stream_request_line(id: u64, stream: u64, threads: usize) -> String {
        let problem = ProblemFile {
            servers: 4,
            capacity: 100.0,
            threads: (0..threads)
                .map(|i| UtilitySpec::Power {
                    scale: 1.0 + (i % 7) as f64,
                    beta: 0.5,
                    cap: 100.0,
                })
                .collect(),
        };
        let problem = serde_json::to_string(&problem).unwrap();
        format!(r#"{{"id":{id},"stream":{stream},"problem":{problem}}}"#)
    }

    fn run(input: &str, opts: &ServeOpts) -> (ServeCounters, Vec<serde_json::Value>) {
        // A per-session registry keeps tests isolated from each other
        // and from the process-global registry.
        run_in(input, opts, &aa_obs::Registry::new())
    }

    fn run_in(
        input: &str,
        opts: &ServeOpts,
        registry: &aa_obs::Registry,
    ) -> (ServeCounters, Vec<serde_json::Value>) {
        let mut output: Vec<u8> = Vec::new();
        let counters = run_serve(input.as_bytes(), &mut output, opts, registry).unwrap();
        let responses = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        (counters, responses)
    }

    #[test]
    fn solves_requests_and_echoes_ids() {
        let input = format!("{}\n{}\n", request_line(1, None, 6), request_line(2, None, 8));
        let (counters, responses) = run(&input, &ServeOpts::default());
        assert_eq!(counters.received, 2);
        assert_eq!(counters.solved, 2);
        assert_eq!(counters.shed, 0);
        assert_eq!(responses.len(), 2);
        let mut ids: Vec<u64> =
            responses.iter().map(|r| r["id"].as_u64().unwrap()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
        for r in &responses {
            assert_eq!(r["status"], "ok", "{r:?}");
            assert!(r["utility"].as_f64().unwrap() > 0.0);
            assert_eq!(r["server"].as_array().unwrap().len(), r["allocation"].as_array().unwrap().len());
        }
        // Per-tier accounting saw both answers.
        let answered: u64 = counters.per_tier.values().map(|t| t.answered).sum();
        assert_eq!(answered, 2);
        // Latency percentiles cover the solved requests: positive,
        // ordered, and p99 bounded by the worst observed response.
        assert!(counters.latency_p50_ms > 0.0, "{counters:?}");
        assert!(counters.latency_p99_ms >= counters.latency_p50_ms, "{counters:?}");
        let worst = responses
            .iter()
            .map(|r| r["latency_ms"].as_f64().unwrap())
            .fold(0.0_f64, f64::max);
        assert!(counters.latency_p99_ms <= worst + 1e-9, "{counters:?}");
    }

    #[test]
    fn live_registry_sees_the_same_counts_as_the_snapshot() {
        let registry = aa_obs::Registry::new();
        let mut output: Vec<u8> = Vec::new();
        let input = format!("{}\n{}\n", request_line(1, None, 6), request_line(2, None, 8));
        let counters =
            run_serve(input.as_bytes(), &mut output, &ServeOpts::default(), &registry).unwrap();
        // The registry holds the session's numbers — what a concurrent
        // /metrics scrape would have reported at EOF.
        let prom = aa_obs::export::prometheus_text(&registry);
        assert!(prom.contains("aa_serve_received_total 2"), "{prom}");
        assert!(prom.contains("aa_serve_solved_total 2"), "{prom}");
        // The supervisor's per-worker series export through the same
        // registry.
        assert!(prom.contains(r#"aa_fleet_worker_solves_total{worker="0"} 2"#), "{prom}");
        assert!(prom.contains(r#"aa_fleet_restarts_total{worker="0"} 0"#), "{prom}");
        // The SLO layer tracked both ok responses end-to-end.
        assert!(prom.contains("aa_slo_target_p99_micros 100000"), "{prom}");
        assert!(prom.contains(r#"aa_slo_e2e_micros_count{class="ok"} 2"#), "{prom}");
        assert!(prom.contains("aa_slo_good_total"), "{prom}");
        assert!(prom.contains("aa_slo_burn_rate"), "{prom}");
        assert_eq!(counters.received, 2);
        assert_eq!(counters.solved, 2);
    }

    #[test]
    fn burst_beyond_the_queue_is_shed_with_backoff_hints() {
        // First request is large and unbudgeted: the shard is busy for
        // many milliseconds while the reader (all in-memory) admits one
        // more and must shed the rest of the burst.
        let mut input = request_line(0, None, 4000);
        for i in 1..=6 {
            input.push('\n');
            input.push_str(&request_line(i, None, 4));
        }
        input.push('\n');
        let opts = ServeOpts { queue: 1, ..ServeOpts::default() };
        let (counters, responses) = run(&input, &opts);
        assert_eq!(counters.received, 7);
        assert!(counters.shed > 0, "burst was not shed: {counters:?}");
        assert_eq!(counters.solved + counters.shed, 7);
        assert_eq!(counters.deadline_misses, 0);
        let overloaded: Vec<_> =
            responses.iter().filter(|r| r["status"] == "overloaded").collect();
        assert_eq!(overloaded.len() as u64, counters.shed);
        for r in &overloaded {
            assert!(r["retry_after_ms"].as_u64().unwrap() >= 1);
        }
        // Every line got exactly one response.
        assert_eq!(responses.len(), 7);
    }

    #[test]
    fn tight_deadlines_degrade_but_never_fail() {
        let input = format!("{}\n", request_line(9, Some(1), 3000));
        let (counters, responses) = run(&input, &ServeOpts::default());
        assert_eq!(counters.solved, 1);
        assert_eq!(counters.solve_errors, 0);
        assert_eq!(responses[0]["status"], "ok");
        // 1 ms cannot fit the full ladder on 3000 threads: degraded.
        assert_eq!(responses[0]["degraded"].as_bool(), Some(true), "{:?}", responses[0]);
    }

    #[test]
    fn deadline_that_lapses_in_queue_is_answered_without_a_solve() {
        // Large unbudgeted head request occupies the shard; the second
        // request's 1 ms deadline lapses while it waits.
        let input = format!(
            "{}\n{}\n",
            request_line(0, None, 4000),
            request_line(1, Some(1), 4)
        );
        let (counters, responses) = run(&input, &ServeOpts::default());
        assert_eq!(counters.expired_in_queue, 1, "{counters:?}");
        let expired = responses.iter().find(|r| r["id"].as_u64() == Some(1)).unwrap();
        assert_eq!(expired["status"], "error");
        assert_eq!(expired["class"], "deadline");
    }

    #[test]
    fn malformed_lines_get_parse_errors_and_serving_continues() {
        let input = format!("this is not json\n{}\n", request_line(5, None, 4));
        let (counters, responses) = run(&input, &ServeOpts::default());
        assert_eq!(counters.parse_errors, 1);
        assert_eq!(counters.solved, 1);
        let parse = responses.iter().find(|r| r["status"] == "error").unwrap();
        assert_eq!(parse["class"], "parse");
        assert_eq!(parse["id"], serde_json::Value::Null);
        assert!(responses
            .iter()
            .any(|r| r["status"] == "ok" && r["id"].as_u64() == Some(5)));
    }

    #[test]
    fn invalid_problems_are_typed_not_fatal() {
        let bad = r#"{"id":3,"problem":{"servers":0,"capacity":10.0,"threads":[]}}"#;
        let input = format!("{bad}\n{}\n", request_line(4, None, 4));
        let (counters, responses) = run(&input, &ServeOpts::default());
        assert_eq!(counters.solve_errors, 1);
        assert_eq!(counters.solved, 1);
        let err = responses.iter().find(|r| r["id"].as_u64() == Some(3)).unwrap();
        assert_eq!(err["status"], "error");
        assert_eq!(err["class"], "problem");
    }

    #[test]
    fn counters_serialize_for_the_shutdown_dump() {
        let input = format!("{}\n", request_line(1, None, 4));
        let (counters, _) = run(&input, &ServeOpts::default());
        let json = serde_json::to_string_pretty(&counters).unwrap();
        let back: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(back["solved"].as_u64(), Some(1));
        assert!(back["per_tier"].as_object().is_some());
    }

    #[test]
    fn empty_input_returns_zeroed_counters() {
        let (counters, responses) = run("", &ServeOpts::default());
        assert_eq!(counters, ServeCounters::default());
        assert!(responses.is_empty());
    }

    #[test]
    fn sharded_serve_answers_keyed_streams_from_fixed_shards() {
        let mut input = String::new();
        for i in 0..24u64 {
            input.push_str(&stream_request_line(i, i % 6, 6));
            input.push('\n');
        }
        let registry = aa_obs::Registry::new();
        let opts = ServeOpts { workers: 3, queue: 64, ..ServeOpts::default() };
        let (counters, responses) = run_in(&input, &opts, &registry);
        assert_eq!(counters.received, 24);
        assert_eq!(counters.solved, 24);
        assert_eq!(counters.shed, 0);
        // Every keyed request was answered by its stream's ring owner.
        let ring = Ring::new(3);
        for r in &responses {
            let stream = r["id"].as_u64().unwrap() % 6;
            assert_eq!(r["worker"].as_u64(), ring.owner(stream).map(|w| w as u64), "{r:?}");
            assert_eq!(r["attempts"].as_u64(), Some(1), "{r:?}");
        }
        // Per-worker accounting flowed through the shared registry.
        let prom = aa_obs::export::prometheus_text(&registry);
        assert!(prom.contains(r#"aa_fleet_worker_solves_total{worker="0"}"#), "{prom}");
    }

    #[test]
    fn oversized_line_gets_a_parse_error_and_serving_continues() {
        let big = format!(r#"{{"id":1,"problem":"{}"}}"#, "x".repeat(8192));
        let input = format!("{big}\n{}\n", request_line(2, None, 4));
        let opts = ServeOpts { max_line_bytes: 1024, ..ServeOpts::default() };
        let (counters, responses) = run(&input, &opts);
        assert_eq!(counters.received, 2);
        assert_eq!(counters.parse_errors, 1);
        assert_eq!(counters.solved, 1);
        let parse = responses.iter().find(|r| r["status"] == "error").unwrap();
        assert_eq!(parse["class"], "parse");
        assert!(parse["error"].as_str().unwrap().contains("max-line-bytes"));
        assert!(responses
            .iter()
            .any(|r| r["status"] == "ok" && r["id"].as_u64() == Some(2)));
    }

    #[test]
    fn killed_thread_worker_replays_its_requests_exactly_once() {
        // Kill the only worker thread on its first solve. The supervisor
        // replays the in-flight request (and anything queued behind it)
        // on the respawned worker, so every request is answered ok,
        // exactly once — the killed one on its second dispatch.
        let plan = FleetChaosPlan { faults: vec![vec![(1, Fault::Kill)]] };
        let mut input = String::new();
        for i in 0..6u64 {
            input.push_str(&stream_request_line(i, 1, 6));
            input.push('\n');
        }
        let registry = aa_obs::Registry::new();
        let opts = ServeOpts { chaos: Some(plan), queue: 64, ..ServeOpts::default() };
        let (counters, responses) = run_in(&input, &opts, &registry);
        let mut ids: Vec<u64> = responses.iter().map(|r| r["id"].as_u64().unwrap()).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..6).collect::<Vec<_>>(), "lost or duplicated: {responses:?}");
        for r in &responses {
            assert_eq!(r["status"], "ok", "{r:?}");
        }
        let killed = responses.iter().find(|r| r["id"].as_u64() == Some(0)).unwrap();
        assert_eq!(killed["attempts"].as_u64(), Some(2), "{killed:?}");
        assert_eq!(counters.solved, 6, "{counters:?}");
        assert_eq!(counters.solve_panics + counters.internal_errors, 0, "{counters:?}");
        assert_eq!(
            registry.counter_labeled("aa_fleet_restarts_total", "worker", "0").get(),
            1
        );
    }

    #[test]
    fn worker_past_its_restart_budget_retires_and_its_keys_reroute() {
        // Worker 0 dies on its first solve with no restart budget: it is
        // retired, and every request on a stream it owned — the replayed
        // one included — is answered ok by the survivor.
        let ring = Ring::new(2);
        let stream = (0..).find(|&k| ring.owner(k) == Some(0)).unwrap();
        let plan = FleetChaosPlan { faults: vec![vec![(1, Fault::Kill)], vec![]] };
        let mut input = String::new();
        for i in 0..4u64 {
            input.push_str(&stream_request_line(i, stream, 6));
            input.push('\n');
        }
        let registry = aa_obs::Registry::new();
        let opts = ServeOpts {
            workers: 2,
            max_restarts: 0,
            chaos: Some(plan),
            ..ServeOpts::default()
        };
        let (counters, responses) = run_in(&input, &opts, &registry);
        assert_eq!(responses.len(), 4);
        for r in &responses {
            assert_eq!(r["status"], "ok", "{r:?}");
            assert_eq!(r["worker"].as_u64(), Some(1), "{r:?}");
        }
        assert_eq!(counters.solved, 4);
        let prom = aa_obs::export::prometheus_text(&registry);
        assert!(prom.contains(r#"aa_fleet_restarts_total{worker="0"} 1"#), "{prom}");
    }

    #[test]
    fn contained_solve_panic_answers_solve_panic_and_the_worker_keeps_serving() {
        let plan = FleetChaosPlan { faults: vec![vec![(2, Fault::Panic)]] };
        let mut input = String::new();
        for i in 0..5u64 {
            input.push_str(&stream_request_line(i, 1, 6));
            input.push('\n');
        }
        let registry = aa_obs::Registry::new();
        let opts = ServeOpts { chaos: Some(plan), queue: 64, ..ServeOpts::default() };
        let (counters, responses) = run_in(&input, &opts, &registry);
        assert_eq!(responses.len(), 5);
        // One worker, FIFO: the second request is the panicking solve.
        let panicked: Vec<u64> = responses
            .iter()
            .filter(|r| r["class"] == "solve_panic")
            .map(|r| r["id"].as_u64().unwrap())
            .collect();
        assert_eq!(panicked, vec![1], "{responses:?}");
        assert_eq!(counters.solved, 4, "{counters:?}");
        assert_eq!(counters.solve_panics, 1, "{counters:?}");
        // Contained: the worker never died.
        assert_eq!(
            registry.counter_labeled("aa_fleet_restarts_total", "worker", "0").get(),
            0
        );
    }

    #[test]
    fn problem_answers_are_recorded_by_the_slo_layer() {
        let bad = |id: u64| format!(r#"{{"id":{id},"problem":{{"servers":0,"capacity":10.0,"threads":[]}}}}"#);
        let input = format!("{}\n{}\n{}\n{}\n", bad(1), bad(2), request_line(3, None, 4), bad(4));
        let registry = aa_obs::Registry::new();
        let (counters, _) = run_in(&input, &ServeOpts::default(), &registry);
        assert_eq!(counters.solve_errors, 3);
        let prom = aa_obs::export::prometheus_text(&registry);
        assert!(prom.contains(r#"aa_slo_e2e_micros_count{class="problem"} 3"#), "{prom}");
        let tracked = registry.counter("aa_slo_good_total").get()
            + registry.counter("aa_slo_breach_total").get();
        assert_eq!(tracked, 4, "every answered request is SLO-tracked: {prom}");
    }

    #[test]
    fn drain_hint_is_monotone_and_positive() {
        assert_eq!(drain_hint_ms(0, 0, 0), 1);
        assert_eq!(drain_hint_ms(0, 0, 16), 16);
        let mut last = 0;
        for queue in 0..200 {
            let hint = drain_hint_ms(10, 50_000, queue);
            assert!(hint >= 1);
            assert!(hint >= last, "hint regressed at queue={queue}");
            last = hint;
        }
    }
}
