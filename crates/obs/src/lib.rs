//! `a2a-obs` — structured tracing and metrics for the reproduction,
//! hand-rolled (the build environment has no registry access, so no
//! external `tracing`/`metrics` crates).
//!
//! The crate provides three cooperating layers:
//!
//! * **Events & spans** — [`Event`] records (a dot-separated name, a
//!   [`Level`], millisecond timestamp, optional worker id and typed
//!   key/value [`Value`] fields) emitted through the [`event!`] macro,
//!   and [`Span`] guards that time a region and emit its duration.
//! * **Metrics registry** — a process-global, thread-safe [`Registry`]
//!   of named [`Counter`]s, [`Gauge`]s and log-scale [`Histogram`]s
//!   (power-of-two buckets, lock-free atomic updates, associative
//!   merge), snapshotted to JSON (the end-to-end benchmark's per-layer
//!   ledger reads it).
//! * **Sinks** — pluggable [`Sink`] backends: a human-readable
//!   [`StderrSink`] whose verbosity follows the `A2A_LOG` environment
//!   variable, and a [`JsonlSink`] writing one schema-validated JSON
//!   object per line (see [`schema`]).
//!
//! # Overhead
//!
//! With `A2A_LOG` unset and no sink attached the whole pipeline is
//! disabled: [`enabled`] is a single relaxed atomic load, the [`event!`]
//! macro constructs nothing, and [`metrics_enabled`] gates every
//! registry update the simulation layers perform. The disabled path's
//! budget is ~1 ns per call; a change to that path measures it against
//! its parent (median and spread) rather than against a sealed figure.
//!
//! # Quick start
//!
//! ```
//! use a2a_obs as obs;
//!
//! // Typically done once by the binary: obs::init_from_env() honours
//! // A2A_LOG=error|warn|info|debug|trace (optionally `target=level`
//! // prefixes, e.g. A2A_LOG="info,ga=debug").
//! obs::event!(obs::Level::Info, "demo.start", "k" => 16u64);
//! let timer = obs::Span::enter("demo.work");
//! // ... work ...
//! drop(timer); // emits demo.work with elapsed_us when enabled
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod event;
pub mod fault;
pub mod flight;
pub mod json;
mod level;
mod registry;
pub mod schema;
mod sink;
mod span;
pub mod trace;
mod value;

pub use event::{emit, set_worker_id, worker_id, Event};
pub use level::Level;
pub use registry::{
    global, Counter, Gauge, Histogram, HistogramSnapshot, Registry, RegistrySnapshot,
};
pub use sink::{
    atomic_write, attach_sink, finalize_all, publish_via_partial, sync_dir, JsonlSink, Sink,
    StderrSink,
};
pub use span::Span;
pub use value::Value;

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Maximum level any sink currently wants, as a `u8` (`Level::Off` = 0).
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);

/// Whether the simulation/GA layers should record into the registry.
static METRICS: AtomicBool = AtomicBool::new(false);

/// Per-target (`name` prefix) level overrides parsed from `A2A_LOG`.
static FILTERS: OnceLock<Mutex<Vec<(String, Level)>>> = OnceLock::new();

/// Process-relative clock origin for event timestamps.
static CLOCK: OnceLock<Instant> = OnceLock::new();

/// Milliseconds since the first observability call of the process.
#[must_use]
pub fn clock_ms() -> f64 {
    let origin = CLOCK.get_or_init(Instant::now);
    origin.elapsed().as_secs_f64() * 1e3
}

/// Nanoseconds since the first observability call of the process
/// (saturating after ~584 years) — the flight recorder's timestamp.
#[must_use]
pub fn clock_ns() -> u64 {
    let origin = CLOCK.get_or_init(Instant::now);
    origin.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// A small dense ordinal identifying the calling thread (assigned on
/// first use, never reused). Flight-recorder records and captured
/// spans carry it so per-thread interleavings stay attributable
/// without OS thread ids.
#[must_use]
pub fn thread_ordinal() -> u64 {
    use std::cell::Cell;
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    thread_local! {
        static ORDINAL: Cell<Option<u64>> = const { Cell::new(None) };
    }
    ORDINAL.with(|cell| match cell.get() {
        Some(o) => o,
        None => {
            let o = NEXT.fetch_add(1, Ordering::Relaxed);
            cell.set(Some(o));
            o
        }
    })
}

/// The fast path: would an event at `level` be dispatched at all?
///
/// A single relaxed atomic load — call freely from hot loops.
#[inline]
#[must_use]
pub fn enabled(level: Level) -> bool {
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Whether an event named `name` at `level` passes the `A2A_LOG`
/// prefix filters (e.g. `A2A_LOG="warn,ga=debug"` keeps `ga.*` debug
/// events while everything else needs warn or better).
#[must_use]
pub fn enabled_for(level: Level, name: &str) -> bool {
    if !enabled(level) {
        return false;
    }
    let Some(filters) = FILTERS.get() else { return true };
    let filters = filters.lock().expect("filter lock never poisoned");
    let mut best: Option<(usize, Level)> = None;
    for (prefix, lvl) in filters.iter() {
        if prefix.is_empty() || name.starts_with(prefix.as_str()) {
            let rank = prefix.len();
            if best.is_none_or(|(b, _)| rank >= b) {
                best = Some((rank, *lvl));
            }
        }
    }
    match best {
        Some((_, lvl)) => level <= lvl,
        None => true,
    }
}

/// Whether the registry-updating layers (kernel, GA) should record
/// metrics. One relaxed atomic load; off by default.
#[inline]
#[must_use]
pub fn metrics_enabled() -> bool {
    METRICS.load(Ordering::Relaxed)
}

/// Turns registry recording on or off explicitly (sinks and
/// [`init_from_env`] also turn it on).
pub fn set_metrics(on: bool) {
    METRICS.store(on, Ordering::Relaxed);
}

/// Raises the dispatch ceiling to at least `level` (never lowers it:
/// several sinks may be attached with different verbosities).
pub fn raise_level(level: Level) {
    MAX_LEVEL.fetch_max(level as u8, Ordering::Relaxed);
    if level >= Level::Info {
        set_metrics(true);
    }
}

/// Forces the dispatch ceiling to exactly `level` (tests and `--quiet`).
pub fn set_level(level: Level) {
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current dispatch ceiling.
#[must_use]
pub fn max_level() -> Level {
    Level::from_u8(MAX_LEVEL.load(Ordering::Relaxed))
}

/// Parses `A2A_LOG` and, when it enables anything, attaches a
/// [`StderrSink`] at the requested verbosity and enables metrics.
///
/// The grammar is a comma-separated list of `level` or `prefix=level`
/// items: `A2A_LOG=debug`, `A2A_LOG=info,ga=trace`. Unknown levels are
/// ignored (the variable is advisory, not load-bearing). Idempotent:
/// only the first call attaches a sink.
pub fn init_from_env() {
    static DONE: AtomicBool = AtomicBool::new(false);
    if DONE.swap(true, Ordering::SeqCst) {
        return;
    }
    // Chaos builds may arm fault injection from the environment;
    // production builds compile the probe sites but ignore A2A_FAULT.
    #[cfg(feature = "fault-inject")]
    if let Ok(spec) = std::env::var("A2A_FAULT") {
        let plan = fault::FaultPlan::parse(&spec);
        if !plan.rules.is_empty() {
            fault::arm(plan);
        }
    }
    // A2A_FLIGHT=DIR[:capacity] (or `1`/`on`) enables the flight
    // recorder, points dumps at DIR and installs the panic hook.
    if let Ok(spec) = std::env::var("A2A_FLIGHT") {
        flight::init_from_spec(&spec);
    }
    let Ok(spec) = std::env::var("A2A_LOG") else { return };
    let (default_level, filters) = level::parse_spec(&spec);
    if !filters.is_empty() {
        let store = FILTERS.get_or_init(|| Mutex::new(Vec::new()));
        store.lock().expect("filter lock never poisoned").extend(filters.clone());
    }
    let ceiling = filters
        .iter()
        .map(|&(_, l)| l)
        .chain(std::iter::once(default_level))
        .max()
        .unwrap_or(Level::Off);
    if ceiling > Level::Off {
        attach_sink(std::sync::Arc::new(StderrSink::new(ceiling)));
    }
}

/// Emits an [`Event`] if its level is enabled — or if the
/// [`flight`] recorder is on, so the black box sees events even when
/// no sink wants them — constructing nothing otherwise (two relaxed
/// loads on the fully-disabled path).
///
/// ```
/// a2a_obs::event!(a2a_obs::Level::Debug, "kernel.run",
///     "t_comm" => 42u64, "agents" => 16u64);
/// ```
#[macro_export]
macro_rules! event {
    ($level:expr, $name:expr $(, $k:expr => $v:expr)* $(,)?) => {
        if $crate::enabled($level) || $crate::flight::enabled() {
            #[allow(unused_mut)]
            let mut __e = $crate::Event::new($level, $name);
            $( __e = __e.field($k, $v); )*
            $crate::emit(__e);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_until_raised() {
        // Off is the floor; raising is monotone.
        assert!(!enabled(Level::Trace) || max_level() >= Level::Trace);
        raise_level(Level::Error);
        assert!(enabled(Level::Error));
        assert!(metrics_enabled() || max_level() < Level::Info);
    }

    #[test]
    fn clock_is_monotone() {
        let a = clock_ms();
        let b = clock_ms();
        assert!(b >= a);
    }
}
