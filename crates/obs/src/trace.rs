//! Causal span identity and trace capture: every armed [`crate::Span`]
//! gets a process-unique id and a parent (the span current on its
//! thread when it opened), and the parent context can be carried
//! across threads — `parallel_map` and `WorkerPool` adopt the
//! submitting span before running an item, so a captured trace
//! reconstructs the *logical* task tree, not the accidental thread
//! layout.
//!
//! # Capture and export
//!
//! [`start_capture`] arms an in-memory collector; every span closed
//! while capturing appends a [`SpanRecord`]; [`take_capture`] drains
//! them into a [`Trace`], which exports three ways:
//!
//! * [`Trace::to_chrome_json`] — Chrome trace-event JSON (`ph: "X"`
//!   complete events), loadable in Perfetto / `chrome://tracing`;
//! * [`Trace::to_collapsed`] — collapsed-stack lines
//!   (`root;child;leaf <self µs>`), the folded format flamegraph
//!   tooling consumes — dependency-free on both ends;
//! * [`phase_table`] — an ASCII kernel phase attribution table (act vs
//!   exchange) computed from the metrics registry's `kernel.multi.*.ns`
//!   histograms rather than from spans, so it works at any verbosity
//!   that enables metrics.
//!
//! ```
//! use a2a_obs::{trace, Span};
//!
//! trace::start_capture();
//! {
//!     let _outer = Span::enter("demo.outer");
//!     let _inner = Span::enter("demo.inner");
//! }
//! let t = trace::take_capture();
//! assert_eq!(t.spans.len(), 2);
//! let inner = t.spans.iter().find(|s| s.name == "demo.inner").unwrap();
//! let outer = t.spans.iter().find(|s| s.name == "demo.outer").unwrap();
//! assert_eq!(inner.parent, outer.id);
//! ```

use crate::json::Json;
use crate::registry::RegistrySnapshot;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Span id allocator; 0 is reserved for "no span".
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Whether closed spans are being collected.
static CAPTURING: AtomicBool = AtomicBool::new(false);

/// The collector ([`start_capture`] / [`take_capture`]).
static CAPTURED: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    /// The innermost open span on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// An opaque span context: the identity of the span current on some
/// thread, capturable with [`current`] and re-established on another
/// thread with [`adopt`]. Cheap to copy and send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanCtx(u64);

impl SpanCtx {
    /// The empty context (no parent).
    #[must_use]
    pub fn none() -> Self {
        Self(0)
    }

    /// The raw span id (0 = none) — exposed for tests and exporters.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// The calling thread's innermost open span, for handing to another
/// thread via [`adopt`].
#[must_use]
pub fn current() -> SpanCtx {
    SpanCtx(CURRENT.get())
}

/// Makes `ctx` the calling thread's current span until the returned
/// guard drops (restoring whatever was current before). Worker threads
/// call this with the submitter's [`current`] before running an item,
/// which is what threads the logical task tree across the pool.
#[must_use]
pub fn adopt(ctx: SpanCtx) -> Adopted {
    Adopted { prev: CURRENT.replace(ctx.0) }
}

/// Guard returned by [`adopt`]; restores the previous context on drop
/// (including during unwinding, so a panicking item cannot leak its
/// context into the worker's next job).
#[derive(Debug)]
pub struct Adopted {
    prev: u64,
}

impl Drop for Adopted {
    fn drop(&mut self) {
        CURRENT.set(self.prev);
    }
}

/// Allocates a span id and pushes it as the thread's current span.
/// Returns `(id, parent)`.
pub(crate) fn begin() -> (u64, u64) {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.replace(id);
    (id, parent)
}

/// Closes span `id`: pops it (restoring `parent` as current, when the
/// nesting was LIFO) and appends to the capture when armed.
pub(crate) fn finish(record: SpanRecord) {
    if CURRENT.get() == record.id {
        CURRENT.set(record.parent);
    }
    if capturing() {
        CAPTURED.lock().expect("trace capture lock").push(record);
    }
}

/// Whether closed spans are currently being captured.
#[inline]
#[must_use]
pub fn capturing() -> bool {
    CAPTURING.load(Ordering::Relaxed)
}

/// Starts (or restarts) capturing closed spans, clearing any previous
/// capture. Capturing also arms [`crate::Span::enter`], so no other
/// verbosity needs to be raised.
pub fn start_capture() {
    CAPTURED.lock().expect("trace capture lock").clear();
    CAPTURING.store(true, Ordering::Relaxed);
}

/// Stops capturing and returns everything captured since
/// [`start_capture`].
#[must_use]
pub fn take_capture() -> Trace {
    CAPTURING.store(false, Ordering::Relaxed);
    let mut spans = std::mem::take(&mut *CAPTURED.lock().expect("trace capture lock"));
    spans.sort_by(|a, b| a.start_ms.total_cmp(&b.start_ms).then(a.id.cmp(&b.id)));
    Trace { spans }
}

/// One closed span, as captured.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Id of the span current when this one opened (0 = root).
    pub parent: u64,
    /// Span name (dot-separated, like events).
    pub name: &'static str,
    /// Open timestamp, milliseconds since the process clock origin.
    pub start_ms: f64,
    /// Wall-clock duration in microseconds.
    pub elapsed_us: u64,
    /// Ordinal of the thread the span ran on.
    pub thread: u64,
    /// Worker tag of that thread, if any.
    pub worker: Option<usize>,
}

/// A set of captured spans plus the exporters over them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Captured spans, ordered by open time.
    pub spans: Vec<SpanRecord>,
}

impl Trace {
    /// Ids of spans whose parent was not captured (or is 0) — the tree
    /// roots.
    #[must_use]
    pub fn roots(&self) -> Vec<u64> {
        let ids: std::collections::BTreeSet<u64> = self.spans.iter().map(|s| s.id).collect();
        self.spans
            .iter()
            .filter(|s| s.parent == 0 || !ids.contains(&s.parent))
            .map(|s| s.id)
            .collect()
    }

    /// Child ids per parent id, in open order.
    #[must_use]
    pub fn children(&self) -> BTreeMap<u64, Vec<u64>> {
        let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                map.entry(s.parent).or_default().push(s.id);
            }
        }
        map
    }

    /// Chrome trace-event JSON (the `{"traceEvents": [...]}` envelope,
    /// `ph: "X"` complete events, timestamps in microseconds) —
    /// loadable in Perfetto or `chrome://tracing`.
    #[must_use]
    pub fn to_chrome_json(&self) -> Json {
        let events: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                let mut args = Json::object().with("id", s.id).with("parent", s.parent);
                if let Some(w) = s.worker {
                    args.set("worker", w);
                }
                Json::object()
                    .with("name", s.name)
                    .with("cat", "span")
                    .with("ph", "X")
                    .with("ts", (s.start_ms * 1000.0).round())
                    .with("dur", s.elapsed_us)
                    .with("pid", 1u64)
                    .with("tid", s.thread)
                    .with("args", args)
            })
            .collect();
        Json::object()
            .with("traceEvents", Json::Arr(events))
            .with("displayTimeUnit", "ms")
    }

    /// Collapsed-stack lines (`a;b;c <self µs>`, one per distinct
    /// stack, sorted): the folded flamegraph format. Self time is a
    /// span's duration minus its direct children's, clamped at 0 (a
    /// child running on another thread can outlive the overlap).
    #[must_use]
    pub fn to_collapsed(&self) -> String {
        let by_id: BTreeMap<u64, &SpanRecord> =
            self.spans.iter().map(|s| (s.id, s)).collect();
        let mut child_us: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 && by_id.contains_key(&s.parent) {
                *child_us.entry(s.parent).or_default() += s.elapsed_us;
            }
        }
        let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
        for s in &self.spans {
            let mut path = vec![s.name];
            let mut at = s.parent;
            // Bounded walk: ids strictly decrease toward the root, so a
            // (corrupt) cycle cannot hang the exporter.
            while let Some(p) = by_id.get(&at) {
                path.push(p.name);
                if p.parent >= p.id {
                    break;
                }
                at = p.parent;
            }
            path.reverse();
            let self_us =
                s.elapsed_us.saturating_sub(child_us.get(&s.id).copied().unwrap_or(0));
            *stacks.entry(path.join(";")).or_default() += self_us;
        }
        let mut out = String::new();
        for (stack, us) in stacks {
            out.push_str(&format!("{stack} {us}\n"));
        }
        out
    }
}

/// The kernel phase attribution table: act vs exchange wall time,
/// computed from the `kernel.multi.{act,exchange}.ns` histograms of a
/// registry snapshot (recorded by the traced run path at
/// `A2A_LOG=trace`).
#[must_use]
pub fn phase_table(snap: &RegistrySnapshot) -> String {
    let ns_sum = |name: &str| snap.histograms.get(name).map_or(0u64, |h| h.sum);
    let (a, e) = (ns_sum("kernel.multi.act.ns"), ns_sum("kernel.multi.exchange.ns"));
    if a + e == 0 {
        return "(no per-phase kernel timing recorded — run with A2A_LOG=trace)".to_string();
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    let total = (a + e) as f64;
    format!(
        "engine  |     act ms | exchange ms |  act% | exch%\n\
         --------+------------+-------------+-------+------\n\
         multi   | {:>10.3} | {:>11.3} | {:>4.0}% | {:>4.0}%\n",
        ms(a),
        ms(e),
        100.0 * a as f64 / total,
        100.0 * e as f64 / total,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start_ms: f64, us: u64) -> SpanRecord {
        SpanRecord { id, parent, name, start_ms, elapsed_us: us, thread: 0, worker: None }
    }

    #[test]
    fn adopt_restores_on_drop() {
        assert_eq!(current().raw(), 0);
        {
            let _g = adopt(SpanCtx(42));
            assert_eq!(current().raw(), 42);
            {
                let _h = adopt(SpanCtx::none());
                assert_eq!(current().raw(), 0);
            }
            assert_eq!(current().raw(), 42);
        }
        assert_eq!(current().raw(), 0);
    }

    #[test]
    fn chrome_export_shape() {
        let t = Trace { spans: vec![rec(1, 0, "root", 0.5, 100), rec(2, 1, "leaf", 0.6, 40)] };
        let doc = t.to_chrome_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[1].get("args").unwrap().get("parent").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn collapsed_self_time_subtracts_children() {
        let t = Trace {
            spans: vec![
                rec(1, 0, "root", 0.0, 100),
                rec(2, 1, "a", 0.1, 30),
                rec(3, 1, "b", 0.2, 50),
            ],
        };
        let folded = t.to_collapsed();
        assert!(folded.contains("root 20\n"), "{folded}");
        assert!(folded.contains("root;a 30\n"), "{folded}");
        assert!(folded.contains("root;b 50\n"), "{folded}");
    }

    #[test]
    fn roots_and_children_reconstruct_the_tree() {
        let t = Trace {
            spans: vec![rec(5, 99, "orphan", 0.0, 1), rec(6, 0, "root", 0.0, 2), rec(7, 6, "kid", 0.1, 1)],
        };
        assert_eq!(t.roots(), vec![5, 6]);
        assert_eq!(t.children().get(&6), Some(&vec![7]));
    }

    #[test]
    fn phase_table_reports_missing_timing() {
        let mut snap = RegistrySnapshot::default();
        assert!(phase_table(&snap).contains("A2A_LOG=trace"));
        for (name, ns) in [("kernel.multi.act.ns", 3_000_000), ("kernel.multi.exchange.ns", 1_000_000)]
        {
            let mut h = crate::HistogramSnapshot::default();
            h.record(ns);
            snap.histograms.insert(name.to_string(), h);
        }
        let table = phase_table(&snap);
        assert!(table.contains("multi"), "{table}");
        assert!(table.contains("75%") && table.contains("25%"), "{table}");
    }
}
