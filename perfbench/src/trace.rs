//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions, kept in memory, and written out once at the
//! end as Chrome trace JSON (the format `aa-solve --trace` writes, so
//! both open side by side in Perfetto). Each top-level span is one
//! operation: a `request` root holds the request-path layers of one
//! request, an `offpath` root holds layer calls made on the same input
//! that are not on that workload's request path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Index of the top-level span this one descends from.
    pub root: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Handle for an open span; pass it back to [`Recorder::end`].
#[must_use]
pub struct Open(usize);

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let root = parent.map_or(idx, |p| self.spans[p].root);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, root, start_ns, end_ns: start_ns });
        self.stack.push(idx);
        Open(idx)
    }

    pub fn end(&mut self, open: Open) {
        let end = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans close in LIFO order");
        self.spans[open.0].end_ns = end;
    }

    /// Close every open span (after an operation bailed out early).
    pub fn close_all(&mut self) {
        let end = self.now_ns();
        while let Some(i) = self.stack.pop() {
            self.spans[i].end_ns = end;
        }
    }

    /// Time `f` as a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let open = self.begin(name);
        let r = f(self);
        self.end(open);
        r
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (children are sequential on one
/// thread, so their union is their clipped sum).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (ps, pe) = (spans[p].start_ns, spans[p].end_ns);
            let lo = s.start_ns.max(ps);
            let hi = s.end_ns.min(pe);
            covered[p] += hi.saturating_sub(lo);
        }
    }
    spans.iter().zip(&covered).map(|(s, c)| s.dur_ns().saturating_sub(*c)).collect()
}

/// Per-layer self time per operation, in µs: for each layer name, one
/// sample per top-level span of kind `root_kind` that contains the layer
/// (summing repeated occurrences inside one operation, such as the two
/// parses of a fleet request).
pub fn layer_samples_us(spans: &[Span], root_kind: &str) -> BTreeMap<&'static str, Vec<f64>> {
    let selfs = self_times_ns(spans);
    let mut per_root: BTreeMap<(usize, &'static str), u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_some() && spans[s.root].name == root_kind {
            *per_root.entry((s.root, s.name)).or_default() += selfs[i];
        }
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((_, name), ns) in per_root {
        out.entry(name).or_default().push(ns as f64 / 1e3);
    }
    out
}

/// Chrome trace JSON (`traceEvents`, complete events in µs), one lane
/// named `perfbench <workload>`.
pub fn chrome_trace_json(spans: &[Span], workload: &str) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\"args\":{{\"name\":\"perfbench {workload}\"}}}}"
    );
    let selfs = self_times_ns(spans);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            ",{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":2,\"tid\":1,\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{},\"self_us\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.root,
            selfs[i] as f64 / 1e3,
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, root: usize, s: u64, e: u64) -> Span {
        Span { name, parent, root, start_ns: s, end_ns: e }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_repeats_per_operation() {
        let spans = vec![
            span("request", None, 0, 0, 10_000),
            span("cli.parse", Some(0), 0, 0, 3_000),
            span("core.fleet", Some(0), 0, 3_000, 9_000),
            span("cli.parse", Some(2), 0, 4_000, 8_000),
            span("request", None, 4, 20_000, 25_000),
            span("cli.parse", Some(4), 4, 20_000, 22_000),
            span("offpath", None, 6, 30_000, 31_000),
            span("cli.parse", Some(6), 6, 30_000, 31_000),
        ];
        assert_eq!(self_times_ns(&spans), vec![1_000, 3_000, 2_000, 4_000, 3_000, 2_000, 0, 1_000]);
        let req = layer_samples_us(&spans, "request");
        assert_eq!(req["cli.parse"], vec![7.0, 2.0]);
        assert_eq!(req["core.fleet"], vec![2.0]);
        assert_eq!(layer_samples_us(&spans, "offpath")["cli.parse"], vec![1.0]);
    }

    #[test]
    fn recorder_nests_and_writes_chrome_json() {
        let mut r = Recorder::new();
        r.time("request", |r| r.time("cli.parse", |_| ()));
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[1].root, 0);
        let json = chrome_trace_json(&r.spans, "serve-cold");
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(v.get("traceEvents").and_then(|e| e.as_array()).map(Vec::len), Some(3));
    }
}
