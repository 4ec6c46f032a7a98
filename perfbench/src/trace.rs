//! In-memory span recording for the traced run, written out at the end
//! as a Chrome trace (`chrome://tracing` / Perfetto).
//!
//! A span carries a trace id (the job id; 0 for `stats` polls and the
//! near-miss probe) and an optional parent, so a job's client calls and
//! its layer-replay calls can be grouped and each span's self time
//! computed: its duration minus the time its children cover.

use std::collections::HashMap;
use std::sync::Mutex;

use astra_telemetry::wall_clock_ns;
use serde_json::{json, Value};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub trace: u64,
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Track for the Chrome trace (one per recording thread).
    pub track: &'static str,
}

#[derive(Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// Record a finished span; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        track: &'static str,
        trace: u64,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            name,
            trace,
            id,
            parent,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            track,
        });
        id
    }

    /// Run `f` inside a child span of `parent`; returns its result and
    /// the span's duration in nanoseconds.
    pub fn child<T>(
        &self,
        name: &'static str,
        trace: u64,
        parent: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = wall_clock_ns();
        let out = f();
        let end = wall_clock_ns();
        self.record(name, "replay", trace, parent, start, end);
        (out, end - start)
    }

    /// Reserve a root span id; its extent is filled in by
    /// [`Tracer::close_root`].
    pub fn open_root(&self, name: &'static str, trace: u64) -> u64 {
        let now = wall_clock_ns();
        self.record(name, "replay", trace, 0, now, now)
    }

    pub fn close_root(&self, id: u64) {
        let now = wall_clock_ns();
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        let span = &mut spans[id as usize - 1];
        span.dur_ns = now.saturating_sub(span.start_ns);
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("tracer lock poisoned").len()
    }

    /// Self time of every span named `name`: its duration minus the
    /// union of its children's extents (children of one parent never
    /// overlap here — the replay is single-threaded — so the union is
    /// their sum).
    pub fn self_times_ns(&self, name: &str) -> Vec<u64> {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.dur_ns;
        }
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                s.dur_ns
                    .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
            })
            .collect()
    }

    /// The Chrome trace-event JSON of every span.
    pub fn to_chrome_json(&self) -> Value {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let events: Vec<Value> = spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "ph": "X",
                    "pid": 1,
                    "tid": s.track,
                    "ts": s.start_ns as f64 / 1e3,
                    "dur": s.dur_ns as f64 / 1e3,
                    "args": { "trace": s.trace, "id": s.id, "parent": s.parent },
                })
            })
            .collect();
        json!({ "traceEvents": Value::Array(events), "displayTimeUnit": "ns" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::default();
        let root = t.record("job", "replay", 1, 0, 100, 200);
        t.record("a", "replay", 1, root, 110, 130);
        t.record("b", "replay", 1, root, 140, 190);
        assert_eq!(t.self_times_ns("job"), vec![30]);
        assert_eq!(t.self_times_ns("a"), vec![20]);
        let chrome = t.to_chrome_json();
        assert_eq!(
            chrome.get("traceEvents").unwrap().as_array().unwrap().len(),
            3
        );
    }
}
