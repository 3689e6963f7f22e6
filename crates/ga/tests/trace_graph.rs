//! Differential test of the causal trace profiler: the parent/child
//! span tree captured while `WorkerPool::map` runs must match the
//! *logical* task graph the pool executes — one map span fanning out
//! into per-worker drain spans — including the panic/quarantine path,
//! where a worker's drain job unwinds mid-item and its span must still
//! close under the right parent.
//!
//! Capture is process-global, so the tests serialise through one mutex.

use a2a_ga::{WorkerPool, MAX_STRIKES};
use a2a_obs::trace;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

static CAPTURE_GUARD: Mutex<()> = Mutex::new(());

/// Ids of all spans named `name`, in capture order.
fn ids_of(t: &trace::Trace, name: &str) -> Vec<u64> {
    t.spans.iter().filter(|s| s.name == name).map(|s| s.id).collect()
}

fn span(t: &trace::Trace, id: u64) -> &trace::SpanRecord {
    t.spans.iter().find(|s| s.id == id).expect("span is captured")
}

#[test]
fn pool_trace_matches_the_task_graph_through_panics_and_quarantine() {
    let _guard = CAPTURE_GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    // A 2-thread pool spawns two workers but submits only one drain job
    // per map (`threads - 1`); a panicking round therefore adds exactly
    // one strike to *some* worker, and after `2 × MAX_STRIKES` such
    // rounds both workers have necessarily quarantined (a worker stops
    // taking jobs at its third strike).
    let pool = WorkerPool::new(2);
    let strike_rounds = 2 * MAX_STRIKES;
    let items: Arc<Vec<u64>> = Arc::new((0..32).collect());
    let caller = std::thread::current().id();
    let panics = Arc::new(AtomicUsize::new(0));

    let expected: Vec<u64> = items.iter().map(|&x| x + 1).collect();
    trace::start_capture();
    for round in 0..strike_rounds {
        // The helper's first claimed item of each round blows up (never
        // the caller's); caller-side items spin until the helper has
        // struck, so the strike per round is deterministic, not a race
        // over who drains the queue first.
        let acted = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (panics, acted) = (Arc::clone(&panics), Arc::clone(&acted));
        let got = pool.map(&items, move |_, &x| {
            if std::thread::current().id() != caller {
                panics.fetch_add(1, Ordering::SeqCst);
                acted.store(true, Ordering::SeqCst);
                panic!("chaos: drain job dies mid-item");
            }
            let t0 = std::time::Instant::now();
            while !acted.load(Ordering::SeqCst)
                && t0.elapsed() < std::time::Duration::from_secs(10)
            {
                std::thread::yield_now();
            }
            x + 1
        });
        assert_eq!(got, expected, "round {round}: results survive worker panics");
    }
    // Post-quarantine round: no live helper, the map degrades inline.
    let got = pool.map(&items, |_, &x| x + 1);
    assert_eq!(got, expected);
    let t = trace::take_capture();

    assert_eq!(panics.load(Ordering::SeqCst), strike_rounds, "every strike was spent");
    assert_eq!(pool.live_workers(), 0, "both workers quarantined themselves");

    // Logical graph: `strike_rounds + 1` map calls. Every round before
    // full quarantine submits one drain job (which unwinds); the
    // post-quarantine round has no live worker, so no drain child.
    let maps = ids_of(&t, "ga.pool.map");
    assert_eq!(maps.len(), strike_rounds + 1, "one map span per call");
    let drains = ids_of(&t, "ga.pool.drain");
    assert_eq!(
        drains.len(),
        strike_rounds,
        "one drain span per pre-quarantine round, closed even though it unwound"
    );
    let children = t.children();
    for (round, &m) in maps.iter().enumerate() {
        let kids = children.get(&m).cloned().unwrap_or_default();
        let drain_kids: Vec<u64> =
            kids.iter().copied().filter(|k| span(&t, *k).name == "ga.pool.drain").collect();
        if round < strike_rounds {
            assert_eq!(drain_kids.len(), 1, "round {round}: the drain job is a child");
        } else {
            assert!(drain_kids.is_empty(), "quarantined pool degrades to an inline map");
        }
    }
    // Every drain belongs to some map — no orphaned cross-thread spans.
    for d in &drains {
        assert!(maps.contains(&span(&t, *d).parent), "drain {d} adopted its map");
    }
}
