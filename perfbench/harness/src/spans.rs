//! In-memory spans around the benchmark's calls into each layer, written
//! out at the end as Chrome trace-event JSON (`chrome://tracing`,
//! Perfetto): one complete (`"ph": "X"`) event per span.

use serde::Value;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id, unique within one tracer.
    pub id: u64,
    /// What was called, e.g. `Sim.run`.
    pub name: String,
    /// The layer the call went into, e.g. `sim` or `core.mailbox`.
    pub layer: &'static str,
    /// Start, microseconds since the tracer was created.
    pub start_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
}

/// Records spans in memory; nothing is written until [`Tracer::events`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` in `layer`, and returns `f`'s
    /// result with the span's duration in seconds.
    pub fn span<T>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        self.spans.push(Span {
            id: self.spans.len() as u64 + 1,
            name: name.to_string(),
            layer,
            start_us: (start - self.origin).as_secs_f64() * 1e6,
            dur_us: dur.as_secs_f64() * 1e6,
        });
        (out, dur.as_secs_f64())
    }

    /// The closed spans, in the order they closed.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as Chrome trace events of process `pid`.
    pub fn events(&self, pid: u64) -> Vec<Value> {
        self.spans
            .iter()
            .map(|s| {
                Value::Map(vec![
                    ("id".to_string(), Value::U64(s.id)),
                    ("name".to_string(), Value::Str(s.name.clone())),
                    ("cat".to_string(), Value::Str(s.layer.to_string())),
                    ("ph".to_string(), Value::Str("X".to_string())),
                    ("ts".to_string(), Value::F64(s.start_us)),
                    ("dur".to_string(), Value::F64(s.dur_us)),
                    ("pid".to_string(), Value::U64(pid)),
                    ("tid".to_string(), Value::U64(1)),
                ])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_close_in_order_as_complete_events() {
        let mut t = Tracer::new();
        let (x, _) = t.span("sim", "first", || 7);
        let ((), _) = t.span("core.mailbox", "second", || {});
        assert_eq!(x, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].id, spans[1].id), (1, 2));
        assert!(spans[1].start_us >= spans[0].start_us + spans[0].dur_us);
        let json = serde_json::to_string(&Value::Seq(t.events(7))).unwrap();
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"pid\":7"), "{json}");
    }
}
