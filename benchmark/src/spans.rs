//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer; a span's layer is its name up to the first `.`
//! (`simt.launch` belongs to `simt`). Everything runs on one thread, so
//! spans nest strictly and a span's self time is its duration minus the
//! durations of its direct children.

use crate::report::{json_num, json_str};
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the recorder was created.
    pub start: f64,
    pub end: f64,
    pub parent: Option<SpanId>,
    /// Extra JSON members for the Chrome `args` object (already encoded,
    /// without braces), e.g. the request ids of a service batch.
    pub args: String,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Self time and span count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub self_s: f64,
    pub spans: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    fn at(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64()
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let start = self.at(Instant::now());
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start, end: start, parent, args: String::new() });
        self.open.push(id);
        id
    }

    /// Close the innermost open span (which must be `id`) and return its
    /// duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        let end = self.at(Instant::now());
        self.spans[id].end = end;
        self.spans[id].duration()
    }

    /// Attach Chrome `args` members to a span once its outcome is known.
    pub fn set_args(&mut self, id: SpanId, args: String) {
        self.spans[id].args = args;
    }

    /// Record an already-finished interval as a child of the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let (start, end) = (self.at(start), self.at(end));
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start, end, parent, args: String::new() });
    }

    /// Self time and span count per layer.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_time = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration();
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_time) {
            let l = layers.entry(s.layer()).or_default();
            l.self_s += s.duration() - child;
            l.spans += 1;
        }
        layers
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto):
    /// complete events in microseconds on one thread, each carrying its
    /// own id and its parent's in `args`.
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                let extra = if s.args.is_empty() { String::new() } else { format!(", {}", s.args) };
                format!(
                    "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
                     \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {id}, \"parent\": {parent}{extra}}}}}",
                    json_str(s.name),
                    json_str(s.layer()),
                    json_num(s.start * 1e6),
                    json_num(s.duration() * 1e6),
                )
            })
            .collect();
        format!("{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut t = Tracer::default();
        let root = t.open("bench.pass");
        let a = t.open("simt.launch");
        let b = t.open("simt.sched");
        t.close(b);
        t.close(a);
        t.close(root);
        // Pin the intervals so the arithmetic is exact.
        t.spans[root].start = 0.0;
        t.spans[root].end = 10.0;
        t.spans[a].start = 1.0;
        t.spans[a].end = 7.0;
        t.spans[b].start = 2.0;
        t.spans[b].end = 4.0;
        let layers = t.layer_times();
        assert_eq!(layers["bench"], LayerTime { self_s: 4.0, spans: 1 });
        assert_eq!(layers["simt"], LayerTime { self_s: 6.0, spans: 2 });
        assert!(t.chrome_json().contains("\"parent\": 1"));
    }
}
