//! Genome-fitness memoization: an LRU-bounded map from canonical genome
//! keys to exact [`FitnessReport`]s.
//!
//! The GA re-evaluates survivors constantly — every island epoch restarts
//! its pool through `run_seeded`, re-simulating the same 20 genomes on
//! the same configuration set. Fitness is a pure function of
//! `(spec, digits, environment, configs, t_max)`; the evaluator fixes the
//! last three, so a per-evaluator cache keyed on `(spec, digits)` makes
//! those re-evaluations free without changing a single result. Only
//! *exact* full-set reports are ever inserted — pruned partial sums (see
//! `Evaluator::evaluate_selection`) never enter the cache.
//!
//! Hit/miss totals are kept on the cache itself (cheap relaxed atomics,
//! always on, used by benches and tests) and mirrored into the global
//! `ga.cache.hits` / `ga.cache.misses` counters while metrics are on.

use crate::fitness::FitnessReport;
use a2a_fsm::{FsmSpec, Genome};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default capacity: comfortably holds every distinct genome a
/// paper-scale run touches per training set (20-pool × hundreds of
/// generations produces thousands of *distinct* genomes, most of which
/// die immediately; the LRU keeps the live ones).
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Canonical cache key: the spec disambiguates digit strings across
/// grid kinds / FSM shapes.
type Key = (FsmSpec, String);

#[derive(Debug)]
struct Entry {
    report: FitnessReport,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<Key, Entry>,
    tick: u64,
}

/// A bounded, thread-safe memoization table for exact fitness reports.
///
/// Shared across clones of an `Evaluator` (and therefore across
/// islands) through an `Arc`; the interior mutex is held only for the
/// map operation itself, never across a simulation.
#[derive(Debug)]
pub struct FitnessCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl FitnessCache {
    /// Creates a cache bounded to `capacity` entries (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks `genome` up, refreshing its recency on a hit.
    #[must_use]
    pub fn lookup(&self, genome: &Genome) -> Option<FitnessReport> {
        let key = (genome.spec(), genome.to_digits());
        let mut inner = self.inner.lock().expect("cache lock is never poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let found = inner.map.get_mut(&key).map(|e| {
            e.last_used = tick;
            e.report
        });
        drop(inner);
        let counter = if found.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        if a2a_obs::metrics_enabled() {
            let name = if found.is_some() { "ga.cache.hits" } else { "ga.cache.misses" };
            a2a_obs::global().counter(name).incr();
        }
        found
    }

    /// Stores an exact full-set report for `genome`, evicting the least
    /// recently used entries when over capacity.
    pub fn insert(&self, genome: &Genome, report: FitnessReport) {
        let key = (genome.spec(), genome.to_digits());
        let mut inner = self.inner.lock().expect("cache lock is never poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(key, Entry { report, last_used: tick });
        if inner.map.len() > self.capacity {
            // Amortised eviction: drop the oldest quarter in one pass
            // instead of a full LRU chain per insert.
            let mut ages: Vec<u64> = inner.map.values().map(|e| e.last_used).collect();
            ages.sort_unstable();
            let cutoff = ages[inner.map.len() - self.capacity * 3 / 4];
            inner.map.retain(|_, e| e.last_used > cutoff);
        }
    }

    /// Entries currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock is never poisoned").map.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache since construction.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed since construction.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

impl Default for FitnessCache {
    fn default() -> Self {
        Self::new(DEFAULT_CACHE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_grid::GridKind;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn report(fitness: f64) -> FitnessReport {
        FitnessReport { fitness, successes: 1, total: 1, mean_t_comm: Some(fitness) }
    }

    #[test]
    fn round_trips_and_counts() {
        let cache = FitnessCache::new(8);
        let mut rng = SmallRng::seed_from_u64(1);
        let g = Genome::random(FsmSpec::paper(GridKind::Square), &mut rng);
        assert_eq!(cache.lookup(&g), None);
        cache.insert(&g, report(5.0));
        assert_eq!(cache.lookup(&g), Some(report(5.0)));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_eviction_keeps_recent_entries() {
        let cache = FitnessCache::new(8);
        let spec = FsmSpec::paper(GridKind::Square);
        let mut rng = SmallRng::seed_from_u64(2);
        let genomes: Vec<Genome> = (0..12).map(|_| Genome::random(spec, &mut rng)).collect();
        for (i, g) in genomes.iter().enumerate() {
            cache.insert(g, report(i as f64));
            // Keep genome 0 hot so eviction must spare it.
            let _ = cache.lookup(&genomes[0]);
        }
        assert!(cache.len() <= 8, "bounded: {}", cache.len());
        assert_eq!(cache.lookup(&genomes[0]), Some(report(0.0)), "hot entry survives");
        assert_eq!(cache.lookup(&genomes[1]), None, "cold entry evicted");
    }

    #[test]
    fn distinct_specs_do_not_collide() {
        // Same digit string, different spec ⇒ different key.
        let cache = FitnessCache::new(8);
        let s = FsmSpec::paper(GridKind::Square);
        let t = FsmSpec::paper(GridKind::Triangulate);
        let mut rng = SmallRng::seed_from_u64(3);
        let gs = Genome::random(s, &mut rng);
        cache.insert(&gs, report(1.0));
        let mut rng = SmallRng::seed_from_u64(3);
        let gt = Genome::random(t, &mut rng);
        assert_eq!(cache.lookup(&gt), None);
    }
}
