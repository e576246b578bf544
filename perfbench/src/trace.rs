//! In-memory spans recorded by the benchmark around its calls into each
//! layer, exported at exit with `vadalog::obs::chrome`.
//!
//! The program itself is not instrumented further: a span here covers
//! one call into a layer's public functions, and all spans of one
//! operation (a request, a delta, a report goal) share one trace id.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use vadalog::obs::span::{FieldValue, SpanRecord};

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
    next_id: u64,
    op: Option<(Arc<str>, u64)>,
    next_op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_id: 1,
            op: None,
            next_op: 1,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new operation: the spans until the next call share its
    /// trace id.
    pub fn begin_op(&mut self, kind: &str) {
        if self.enabled {
            let n = self.next_op;
            self.next_op += 1;
            self.op = Some((Arc::from(format!("{kind}-{n}")), n));
        }
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().map(|&i| self.spans[i].id);
        self.open.push(self.spans.len());
        self.spans.push(SpanRecord {
            id,
            parent,
            name,
            fields: Vec::new(),
            thread: 1,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            duration_ns: 0,
            trace_id: self.op.as_ref().map(|(t, _)| Arc::clone(t)),
            request_id: self.op.as_ref().map(|&(_, n)| n),
        });
    }

    /// Closes the innermost open span, attaching `fields`.
    pub fn exit(&mut self, fields: Vec<(&'static str, FieldValue)>) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("exit without a matching enter");
        let now = self.epoch.elapsed().as_nanos() as u64;
        let span = &mut self.spans[i];
        span.duration_ns = now - span.start_ns;
        span.fields = fields;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit(Vec::new());
        out
    }

    /// Durations in ms of every closed span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns as f64 / 1e6)
            .collect()
    }

    /// Total self time per span name, in ms: each span's duration minus
    /// the part of it its children cover, sorted by descending total.
    pub fn self_times_ms(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                *child_ns.entry(parent).or_default() += span.duration_ns;
            }
        }
        let mut totals: HashMap<&'static str, f64> = HashMap::new();
        for span in &self.spans {
            let covered = child_ns.get(&span.id).copied().unwrap_or(0);
            *totals.entry(span.name).or_default() +=
                span.duration_ns.saturating_sub(covered) as f64 / 1e6;
        }
        let mut out: Vec<_> = totals.into_iter().collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
        out
    }

    pub fn to_chrome(&self) -> String {
        vadalog::obs::chrome::to_chrome_trace(&self.spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_ops_share_ids() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        t.begin_op("req");
        t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(vec![("goals", FieldValue::U64(3))]);
        let spans = &t.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[0].trace_id, spans[1].trace_id);
        let self_times: HashMap<_, _> = t.self_times_ms().into_iter().collect();
        assert!(self_times["inner"] >= 2.0);
        assert!(self_times["outer"] < self_times["inner"]);
        let parsed = vadalog::obs::json::parse(&t.to_chrome()).expect("valid trace JSON");
        assert_eq!(parsed.as_arr().map(<[_]>::len), Some(2));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        t.begin_op("req");
        t.span("inner", || ());
        assert!(t.spans.is_empty());
    }
}
