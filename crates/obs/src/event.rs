//! Structured events and the dispatch path to the attached sinks.

use crate::json::Json;
use crate::sink::for_each_sink;
use crate::value::Value;
use crate::Level;
use std::cell::Cell;
use std::fmt;

thread_local! {
    /// Worker id tag for events emitted from pool threads (set by
    /// `a2a_ga::WorkerPool` workers), so per-thread throughput is
    /// attributable.
    static WORKER: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Tags events emitted from this thread with a worker id (`None`
/// untags). Worker pools call this once per spawned thread.
pub fn set_worker_id(id: Option<usize>) {
    WORKER.with(|w| w.set(id));
}

/// The current thread's worker tag, if any.
#[must_use]
pub fn worker_id() -> Option<usize> {
    WORKER.with(Cell::get)
}

/// One structured event: a named, levelled, timestamped record with
/// typed fields. Construct with [`Event::new`], attach fields with
/// [`Event::field`], and hand to [`emit`] — or use the
/// [`event!`](crate::event!) macro, which skips construction entirely
/// when the level is disabled.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Severity of the record.
    pub level: Level,
    /// Dot-separated name (`kernel.run`, `ga.generation`, …) — the
    /// span taxonomy is documented in DESIGN.md §7.
    pub name: &'static str,
    /// Milliseconds since the process's first observability call.
    pub t_ms: f64,
    /// Worker id when emitted from a tagged pool thread.
    pub worker: Option<usize>,
    /// Key/value payload in insertion order.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// A new event stamped with the current clock and worker tag.
    #[must_use]
    pub fn new(level: Level, name: &'static str) -> Self {
        Self { level, name, t_ms: crate::clock_ms(), worker: worker_id(), fields: Vec::new() }
    }

    /// Appends a field (builder style).
    #[must_use]
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// The JSONL form — see [`crate::schema`] for the contract.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut doc = Json::object()
            .with("t_ms", (self.t_ms * 1000.0).round() / 1000.0)
            .with("level", self.level.name())
            .with("event", self.name);
        if let Some(w) = self.worker {
            doc.set("worker", w);
        }
        let fields: Vec<(String, Json)> =
            self.fields.iter().map(|(k, v)| ((*k).to_string(), v.to_json())).collect();
        doc.set("fields", Json::Obj(fields));
        doc
    }
}

impl fmt::Display for Event {
    /// The human-readable single-line form used by the stderr sink.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>10.1}ms {:>5}] {}", self.t_ms, self.level, self.name)?;
        if let Some(w) = self.worker {
            write!(f, " (w{w})")?;
        }
        for (k, v) in &self.fields {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

/// Dispatches `event` to every attached sink whose verbosity admits it,
/// honouring the `A2A_LOG` prefix filters. The flight recorder, when
/// on, sees every emitted event first — *before* the sink filters, so
/// the black box keeps records no sink wanted.
pub fn emit(event: Event) {
    crate::flight::note_event(&event);
    if !crate::enabled_for(event.level, event.name) {
        return;
    }
    for_each_sink(|sink| {
        if event.level <= sink.verbosity() {
            sink.record(&event);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_tag_is_thread_local() {
        set_worker_id(Some(7));
        assert_eq!(worker_id(), Some(7));
        let other = std::thread::spawn(worker_id).join().unwrap();
        assert_eq!(other, None);
        set_worker_id(None);
    }

    #[test]
    fn event_json_has_required_members() {
        set_worker_id(Some(2));
        let e = Event::new(Level::Info, "test.event").field("k", 1u64).field("s", "x");
        set_worker_id(None);
        let doc = e.to_json();
        assert_eq!(doc.get("level").and_then(Json::as_str), Some("info"));
        assert_eq!(doc.get("event").and_then(Json::as_str), Some("test.event"));
        assert_eq!(doc.get("worker").and_then(Json::as_f64), Some(2.0));
        let fields = doc.get("fields").unwrap();
        assert_eq!(fields.get("k").and_then(Json::as_f64), Some(1.0));
        assert_eq!(fields.get("s").and_then(Json::as_str), Some("x"));
    }

    #[test]
    fn display_is_single_line() {
        let e = Event::new(Level::Warn, "a.b").field("x", 2u64);
        let text = e.to_string();
        assert!(text.contains("a.b") && text.contains("x=2") && !text.contains('\n'));
    }
}
