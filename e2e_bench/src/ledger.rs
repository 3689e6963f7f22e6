//! The per-layer ledger: span self times from a captured trace, grouped
//! by the crate (layer) that spent them.
//!
//! A span's self time is its duration minus the part its children *on
//! the same thread* cover; children on other threads (pool helpers) run
//! in parallel and do not shorten the caller's timeline. The ledger
//! sums self times over the timeline threads only — the benchmark's
//! main thread, or its client threads — so it adds up to the phase's
//! wall time. Busy times sum over every thread.

use a2a_obs::json::Json;
use a2a_obs::trace::{SpanRecord, Trace};
use std::collections::{BTreeMap, HashMap};

/// Layer of the time a program span spends itself, given its parent's
/// layer; benchmark spans (`bench.*`) are looked up in `bench`.
fn layer_of(
    name: &str,
    parent: Option<&'static str>,
    bench: &[(&str, &'static str)],
) -> &'static str {
    match name {
        "batch.run_all" => "a2a-sim",
        // Pool fan-outs below a batch are the kernel's own dispatch;
        // elsewhere they are the GA waiting on its fitness workers.
        "ga.pool.map" | "ga.pool.drain" | "parallel.map" | "parallel.worker" => {
            if parent == Some("a2a-sim") {
                "a2a-sim"
            } else {
                "a2a-ga.pool_wait"
            }
        }
        "ga.generation" | "ga.epoch" => "a2a-ga.select",
        _ => bench
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, layer)| *layer)
            .or(parent)
            .unwrap_or("unattributed"),
    }
}

/// Self time and layer of every captured span.
pub struct Analysis {
    pub spans: Vec<SpanRecord>,
    pub self_us: Vec<u64>,
    pub layer: Vec<&'static str>,
}

impl Analysis {
    #[must_use]
    pub fn new(trace: &Trace, bench: &[(&str, &'static str)]) -> Self {
        // Ids grow from parent to child (a span's id is allocated when
        // it opens), so id order visits every parent first.
        let mut spans = trace.spans.clone();
        spans.sort_by_key(|s| s.id);
        let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut self_us: Vec<u64> = spans.iter().map(|s| s.elapsed_us).collect();
        let mut layer: Vec<&'static str> = Vec::with_capacity(spans.len());
        for (i, s) in spans.iter().enumerate() {
            let parent = index.get(&s.parent).copied();
            if let Some(p) = parent {
                if spans[p].thread == s.thread {
                    self_us[p] = self_us[p].saturating_sub(s.elapsed_us);
                }
            }
            layer.push(layer_of(s.name, parent.map(|p| layer[p]), bench));
            debug_assert_eq!(layer.len(), i + 1);
        }
        Self {
            spans,
            self_us,
            layer,
        }
    }

    /// Threads that ran a span named `name`.
    #[must_use]
    pub fn threads_of(&self, name: &str) -> Vec<u64> {
        let mut threads: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.thread)
            .collect();
        threads.sort_unstable();
        threads.dedup();
        threads
    }

    /// Self milliseconds per layer over the spans `keep` admits.
    #[must_use]
    pub fn by_layer(&self, keep: impl Fn(&SpanRecord) -> bool) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if keep(s) {
                *out.entry(self.layer[i]).or_insert(0.0) += self.self_us[i] as f64 / 1e3;
            }
        }
        out
    }
}

/// `(start, end)` milliseconds of the spans named `name` on each thread
/// that `keep` admits, sorted by start.
#[must_use]
pub fn intervals(
    analysis: &Analysis,
    name: &str,
    keep: impl Fn(&SpanRecord) -> bool,
) -> BTreeMap<u64, Vec<(f64, f64)>> {
    let mut out: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in analysis.spans.iter().filter(|s| s.name == name && keep(s)) {
        let end = s.start_ms + s.elapsed_us as f64 / 1e3;
        out.entry(s.thread).or_default().push((s.start_ms, end));
    }
    for spans in out.values_mut() {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    out
}

/// The interval of `sorted` containing `t`.
#[must_use]
pub fn containing(sorted: &[(f64, f64)], t: f64) -> Option<(f64, f64)> {
    let i = sorted.partition_point(|&(start, _)| start <= t);
    sorted[..i].last().copied().filter(|&(_, end)| t <= end)
}

/// Checkpoint milliseconds around the generation boundaries of one run:
/// `stamps` are `(generation, ms)` times of its on-generation callbacks
/// and `gens` the sorted `ga.generation` spans of the thread that ran
/// it. The harness saves each boundary's checkpoint right after the
/// callback, inside the generation's span, so the save ends with that
/// span — or, for generation 0, which has no span, where the next
/// generation's span starts. Returns `(inside spans, after generation
/// 0)`.
#[must_use]
pub fn checkpoint_ms(gens: &[(f64, f64)], stamps: &[(u64, f64)]) -> (f64, f64) {
    let (mut inside, mut first) = (0.0, 0.0);
    for &(generation, t) in stamps {
        if generation == 0 {
            let next = gens.partition_point(|&(start, _)| start <= t);
            if let Some(&(start, _)) = gens.get(next) {
                first += start - t;
            }
        } else if let Some((_, end)) = containing(gens, t) {
            inside += end - t;
        }
    }
    (inside, first)
}

/// A finished ledger: every layer's share of the wall time.
pub struct Ledger {
    pub json: Json,
    pub unattributed_pct: f64,
    /// `(Σ layers + unattributed − wall) / wall`, in percent.
    pub closure_pct: f64,
}

/// Builds the ledger of a phase from `(layer, ms)` entries, where the
/// entry named `unattributed` is the time no layer claims.
#[must_use]
pub fn build(workload: &str, entries: &[(String, f64)], wall_ms: f64, timelines: usize) -> Ledger {
    let total: f64 = entries.iter().map(|(_, ms)| ms).sum();
    let unattributed: f64 = entries
        .iter()
        .filter(|(l, _)| l == "unattributed")
        .map(|(_, ms)| ms)
        .sum();
    let pct = |ms: f64| {
        if wall_ms > 0.0 {
            100.0 * ms / wall_ms
        } else {
            0.0
        }
    };
    let layers: Vec<Json> = entries
        .iter()
        .map(|(layer, ms)| {
            Json::object()
                .with("layer", layer.as_str())
                .with("ms", *ms)
                .with("pct", pct(*ms))
        })
        .collect();
    let closure_pct = pct(total - wall_ms);
    let json = Json::object()
        .with("workload", workload)
        .with("wall_ms", wall_ms)
        .with("timeline_threads", timelines)
        .with("layers", Json::Arr(layers))
        .with("sum_ms", total)
        .with("closure_pct", closure_pct)
        .with("unattributed_pct", pct(unattributed));
    Ledger {
        json,
        unattributed_pct: pct(unattributed),
        closure_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, us: u64, thread: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            start_ms: id as f64,
            elapsed_us: us,
            thread,
            worker: None,
        }
    }

    #[test]
    fn self_time_ignores_children_on_other_threads() {
        let trace = Trace {
            spans: vec![
                rec(1, 0, "bench.timed", 1000, 0),
                rec(2, 1, "ga.pool.map", 900, 0),
                rec(3, 2, "batch.run_all", 500, 0),
                rec(4, 2, "ga.pool.drain", 800, 1),
                rec(5, 4, "batch.run_all", 700, 1),
            ],
        };
        let a = Analysis::new(&trace, &[("bench.timed", "unattributed")]);
        let near = |m: &BTreeMap<&str, f64>, layer: &str, ms: f64| {
            assert!(
                (m[layer] - ms).abs() < 1e-9,
                "{layer}: {} vs {ms}",
                m[layer]
            );
        };
        let main = a.by_layer(|s| s.thread == 0);
        near(&main, "a2a-ga.pool_wait", 0.4);
        near(&main, "a2a-sim", 0.5);
        near(&main, "unattributed", 0.1);
        near(&a.by_layer(|_| true), "a2a-sim", 1.2);
        let ledger = build(
            "t",
            &[("a2a-sim".into(), 0.5), ("unattributed".into(), 0.5)],
            1.0,
            1,
        );
        assert!(ledger.closure_pct.abs() < 1e-9);
        assert!((ledger.unattributed_pct - 50.0).abs() < 1e-9);
    }

    #[test]
    fn checkpoint_time_runs_from_callback_to_span_end() {
        let gens = [(10.0, 20.0), (20.5, 30.0)];
        // Generation 0 at 9 ms waits for the span at 10 ms; generations
        // 1 and 2 stamp at 19 and 29.5 ms inside their spans.
        let (inside, first) = checkpoint_ms(&gens, &[(0, 9.0), (1, 19.0), (2, 29.5)]);
        assert!((inside - 1.5).abs() < 1e-9 && (first - 1.0).abs() < 1e-9);
        assert_eq!(containing(&gens, 20.2), None);
    }

    #[test]
    fn pool_under_a_batch_is_kernel_time() {
        let trace = Trace {
            spans: vec![
                rec(1, 0, "batch.run_all", 100, 0),
                rec(2, 1, "ga.pool.map", 90, 0),
            ],
        };
        let a = Analysis::new(&trace, &[]);
        assert_eq!(a.layer, vec!["a2a-sim", "a2a-sim"]);
    }
}
