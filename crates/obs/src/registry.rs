//! The thread-safe metrics registry: named counters, gauges and
//! log-scale histograms with lock-free updates and associative merge.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Number of power-of-two histogram buckets. Bucket 0 holds the value
/// 0, bucket `b` (1 ≤ b < 63) the values in `[2^(b-1), 2^b)`, and the
/// last bucket everything from `2^62` up.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotone event counter. Updates are relaxed atomic adds, safe to
/// call from any thread without coordination.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current total.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins signed gauge (pool sizes, queue depths).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log-scale (power-of-two bucket) histogram of `u64` samples.
///
/// Recording is four relaxed atomic operations (count, sum, min/max,
/// bucket), so concurrent writers never block; the trade-off is that a
/// snapshot taken while writers are active may be off by the in-flight
/// samples — fine for progress reporting, irrelevant once a run ends.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The bucket a value lands in: 0 for 0, else `64 − leading_zeros`,
/// clamped into the table.
#[must_use]
pub(crate) fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive-exclusive value range `[lo, hi)` of bucket `b` (the last
/// bucket is unbounded and reports `hi = u64::MAX`).
#[must_use]
pub fn bucket_bounds(b: usize) -> (u64, u64) {
    match b {
        0 => (0, 1),
        _ if b >= HISTOGRAM_BUCKETS - 1 => (1u64 << (HISTOGRAM_BUCKETS - 2), u64::MAX),
        _ => (1u64 << (b - 1), 1u64 << b),
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a `Duration` in whole microseconds.
    #[inline]
    pub fn record_duration_us(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Folds another histogram's samples into this one (bucket-wise
    /// adds and min/max merges — associative and commutative, which the
    /// property tests pin down on the snapshot form).
    pub fn merge_from(&self, other: &Histogram) {
        self.merge_snapshot(&other.snapshot());
    }

    /// Folds a snapshot's samples into this histogram, so a hot loop
    /// can record into a local [`HistogramSnapshot`] and publish once
    /// instead of contending on the shared atomics per sample.
    pub fn merge_snapshot(&self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        self.count.fetch_add(other.count, Ordering::Relaxed);
        self.sum.fetch_add(other.sum, Ordering::Relaxed);
        self.min.fetch_min(other.min, Ordering::Relaxed);
        self.max.fetch_max(other.max, Ordering::Relaxed);
        for (mine, &theirs) in self.buckets.iter().zip(&other.buckets) {
            if theirs != 0 {
                mine.fetch_add(theirs, Ordering::Relaxed);
            }
        }
    }

    /// A point-in-time copy of the histogram.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) },
            max: self.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// An owned copy of a [`Histogram`]'s state, used for merging, quantile
/// estimation and JSON export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Per-bucket sample counts, log₂-spaced: bucket 0 holds 0, bucket
    /// `b > 0` holds `[2^(b−1), 2^b)`, and the last one is unbounded.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self { count: 0, sum: 0, min: 0, max: 0, buckets: [0; HISTOGRAM_BUCKETS] }
    }
}

impl HistogramSnapshot {
    /// Records into the snapshot directly (the non-atomic twin of
    /// [`Histogram::record`], for single-threaded aggregation).
    pub fn record(&mut self, v: u64) {
        self.min = if self.count == 0 { v } else { self.min.min(v) };
        self.max = self.max.max(v);
        self.count += 1;
        // Wrapping, like the atomic twin (`fetch_add` wraps): the sum
        // stays exact for every realistic workload and the merge
        // algebra stays total for adversarial property inputs.
        self.sum = self.sum.wrapping_add(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Merges `other` into `self`. Associative and commutative with
    /// [`HistogramSnapshot::default`] as identity.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        self.min = if self.count == 0 { other.min } else { self.min.min(other.min) };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Mean sample value (`NaN` when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.sum as f64 / self.count as f64
    }

    /// Bucket-resolution quantile estimate: the geometric midpoint of
    /// the bucket holding the `q`-quantile sample (`q` clamped to
    /// `[0, 1]`; 0 when empty).
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(b);
                let mid = ((lo as f64) * (hi.max(1) as f64)).sqrt();
                return (mid as u64).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate — `quantile(0.50)`. Like all quantiles on a
    /// log-scale histogram the estimate is bucket-resolution: within a
    /// factor of 2 of some true sample in rank order (the property
    /// suite pins the exact bound).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate — `quantile(0.90)`.
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate — `quantile(0.99)`.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// JSON form: `{count, sum, min, max, mean, p50, p90, p99,
    /// buckets: [[lo, hi, n], …]}` with only non-empty buckets listed.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| {
                let (lo, hi) = bucket_bounds(b);
                Json::Arr(vec![Json::from(lo), Json::from(hi), Json::from(n)])
            })
            .collect();
        Json::object()
            .with("count", self.count)
            .with("sum", self.sum)
            .with("min", self.min)
            .with("max", self.max)
            .with("mean", if self.count == 0 { 0.0 } else { self.mean() })
            .with("p50", self.p50())
            .with("p90", self.p90())
            .with("p99", self.p99())
            .with("buckets", Json::Arr(buckets))
    }

    /// Parses the [`HistogramSnapshot::to_json`] form back.
    ///
    /// # Errors
    ///
    /// A message naming the missing or mistyped member.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let field = |k: &str| {
            json.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("histogram missing numeric `{k}`"))
        };
        let mut snap = HistogramSnapshot {
            count: field("count")? as u64,
            sum: field("sum")? as u64,
            min: field("min")? as u64,
            max: field("max")? as u64,
            buckets: [0; HISTOGRAM_BUCKETS],
        };
        let buckets = json
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or("histogram missing `buckets` array")?;
        for entry in buckets {
            let triple = entry.as_arr().ok_or("bucket entry must be [lo, hi, n]")?;
            let [lo, _hi, n] = triple else { return Err("bucket entry must be [lo, hi, n]".into()) };
            let lo = lo.as_f64().ok_or("bucket lo must be a number")? as u64;
            let n = n.as_f64().ok_or("bucket count must be a number")? as u64;
            snap.buckets[bucket_of(lo)] += n;
        }
        Ok(snap)
    }
}

/// A named collection of metrics. Handles are `Arc`s: look a metric up
/// once, then update it lock-free from any thread.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

fn intern<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(found) = map.read().expect("registry lock never poisoned").get(name) {
        return Arc::clone(found);
    }
    let mut write = map.write().expect("registry lock never poisoned");
    Arc::clone(write.entry(name.to_string()).or_default())
}

impl Registry {
    /// A fresh, empty registry (tests; production code uses [`global`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        intern(&self.counters, name)
    }

    /// The gauge named `name`, created on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        intern(&self.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        intern(&self.histograms, name)
    }

    /// A point-in-time copy of every metric.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .read()
                .expect("registry lock never poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("registry lock never poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("registry lock never poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// JSON form: `{"counters": {...}, "gauges": {...},
    /// "histograms": {name: <histogram json>}}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let counters =
            Json::Obj(self.counters.iter().map(|(k, &v)| (k.clone(), Json::from(v))).collect());
        let gauges =
            Json::Obj(self.gauges.iter().map(|(k, &v)| (k.clone(), Json::from(v))).collect());
        let histograms = Json::Obj(
            self.histograms.iter().map(|(k, v)| (k.clone(), v.to_json())).collect(),
        );
        Json::object()
            .with("counters", counters)
            .with("gauges", gauges)
            .with("histograms", histograms)
    }
}

/// The process-global registry used by the instrumented layers.
#[must_use]
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_work() {
        let reg = Registry::new();
        let c = reg.counter("x");
        c.incr();
        c.add(4);
        assert_eq!(reg.counter("x").get(), 5);
        let g = reg.gauge("y");
        g.set(-3);
        g.add(1);
        assert_eq!(reg.gauge("y").get(), -2);
    }

    #[test]
    fn histogram_buckets_cover_u64() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        for v in [0u64, 1, 7, 63, 64, 1_000_000, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_of(v));
            assert!(lo <= v && (v < hi || hi == u64::MAX), "{v}");
        }
    }

    #[test]
    fn histogram_stats_and_quantiles() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 100, 200] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 306);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 200);
        assert!((s.mean() - 61.2).abs() < 1e-9);
        assert!(s.quantile(0.0) >= 1 && s.quantile(0.0) <= 3);
        assert!(s.quantile(1.0) >= 100);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let mut s = HistogramSnapshot::default();
        for v in [0u64, 5, 5, 90, 1 << 40] {
            s.record(v);
        }
        let parsed = crate::json::parse(&s.to_json().to_string()).unwrap();
        let back = HistogramSnapshot::from_json(&parsed).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let s = Histogram::default().snapshot();
        assert_eq!((s.count, s.min, s.max), (0, 0, 0));
        assert_eq!(s.quantile(0.5), 0);
    }

    #[test]
    fn registry_snapshot_to_json_lists_names() {
        let reg = Registry::new();
        reg.counter("a.b").incr();
        reg.histogram("h").record(9);
        let text = reg.snapshot().to_json().to_string();
        assert!(text.contains("\"a.b\":1"));
        assert!(text.contains("\"h\":{"));
    }
}
