//! Spans recorded by the benchmark's own code around its own calls.
//!
//! Kept in memory and written at exit as Chrome-trace JSON (load it in
//! `chrome://tracing` or Perfetto). A disabled recorder costs one branch
//! per call, which is what the end-to-end runs use.

use simkit::json::escape;
use simkit::Stopwatch;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name (`spec.parse`, `leg.run`, …), with the leg label where
    /// there is one.
    pub name: String,
    /// Microseconds from recorder creation to span start.
    pub start_us: f64,
    /// Microseconds from recorder creation to span end.
    pub end_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// In-memory span recorder; spans share its run id.
pub struct Spans {
    enabled: bool,
    run_id: u64,
    t0: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool, run_id: u64) -> Spans {
        Spans {
            enabled,
            run_id,
            t0: Stopwatch::start(),
            // Reserved up front so recording never reallocates inside a
            // region whose allocations are being counted.
            spans: Vec::with_capacity(if enabled { 4096 } else { 0 }),
            open: Vec::with_capacity(16),
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed_secs() * 1e6
    }

    /// Run `f` inside a span named `name`, child of the innermost open one.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        r
    }

    /// The closed spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus what its children cover.
    pub fn self_us(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_us - c.start_us)
            .sum();
        (s.end_us - s.start_us) - children
    }

    /// Chrome-trace ("Trace Event Format") JSON: one complete event per
    /// span, with the run id, span id and parent id as arguments.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"run_id\":{},\"id\":{id},\"parent\":{parent},\"self_us\":{:.3}}}}}",
                escape(&s.name),
                s.start_us,
                s.end_us - s.start_us,
                self.run_id,
                self.self_us(id),
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_self_time() {
        let mut s = Spans::new(true, 9);
        s.scope("outer", |s| {
            s.scope("a", |_| std::hint::black_box(1));
            s.scope("b", |s| s.scope("c", |_| ()));
        });
        let names: Vec<&str> = s.spans().iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, ["outer", "a", "b", "c"]);
        let parents: Vec<Option<usize>> = s.spans().iter().map(|x| x.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        assert!(s.self_us(0) >= 0.0);
        let doc = simkit::json::parse(&s.to_chrome_trace()).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[3]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|p| p.as_u64()),
            Some(2)
        );
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false, 1);
        assert_eq!(s.scope("x", |_| 5), 5);
        assert!(s.spans().is_empty());
    }
}
