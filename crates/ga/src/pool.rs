//! A persistent worker pool on `std::thread`: a condvar-guarded job
//! queue shared by long-lived workers — the workspace's one executor.
//!
//! The GA calls `evaluate_all` once per generation; spawning and joining
//! OS threads each time costs tens of microseconds per worker and shows
//! up on short generations. A [`WorkerPool`] spawns its workers once,
//! parks them on a [`Condvar`], and hands them `'static` jobs — the
//! crate forbids `unsafe`, so instead of lifetime-erased borrows the
//! [`WorkerPool::map`] primitive shares its input through an [`Arc`].
//! [`WorkerPool::run_ranges`] shards one shared configuration set
//! across the pool on top of it, as [`DISPATCH_BLOCK`] index ranges for
//! one or several runners, and can run one job on the calling thread
//! meanwhile; `a2a-sim`'s batch layer itself is serial.
//!
//! Workers tag themselves in the observability layer
//! (`a2a_obs::set_worker_id`), so events emitted from inside jobs carry
//! a stable worker id, and every executed task bumps the
//! `ga.pool.tasks` counter while metrics are on.
//!
//! # Watchdog
//!
//! Long evolution runs must survive a poisoned genome or a wedged
//! worker, so [`WorkerPool::map`] is defended in depth:
//!
//! * **Per-item containment** — each item application is wrapped in
//!   [`catch_unwind`]; a panic reports the item as failed (instead of
//!   silently losing every item the job had claimed) and the panic then
//!   propagates to the worker loop as a *strike*.
//! * **Quarantine** — a worker accumulating [`MAX_STRIKES`] strikes
//!   retires itself: the pool's live width shrinks (`ga.pool.poisoned`
//!   counter), later maps schedule fewer helper jobs, and with every
//!   helper quarantined the map degrades to a clean inline loop on the
//!   caller.
//! * **Deadline** — the caller waits at most
//!   [`WorkerPool::with_task_deadline`] (default [`DEFAULT_TASK_DEADLINE`])
//!   for helper results; items a hung or dead worker never delivered
//!   are reclaimed, and any worker still stuck on a job older than the
//!   deadline is quarantined (`ga.pool.deadline_quarantines` counter)
//!   so later maps stop scheduling work for a thread that will never
//!   take it. Under concurrent maps on a shared pool this is
//!   deliberately conservative: a worker legitimately busy longer than
//!   the deadline retires early and the pool degrades toward inline
//!   maps — correctness is never affected, only helper bandwidth.
//! * **Bounded retry** — every failed or undelivered item is retried
//!   exactly once, inline on the caller (`ga.pool.retries` counter). A
//!   second failure propagates as a panic: deterministic poison must
//!   surface, not loop. This is the only repair path: a
//!   [`WorkerPool::run_ranges`] range a worker panicked on or never
//!   delivered is re-run inline like any other item.
//!
//! A single-threaded pool keeps the old contract — a plain inline map
//! with no containment, no probes and no allocation, so `threads = 1`
//! runs stay deterministic to profile.
//!
//! Under the chaos suite, `a2a_obs::fault::panic_point("ga.pool.item")`
//! is probed before every multi-threaded item application, retries
//! included, letting a `FaultPlan` that names occurrences of the site
//! simulate worker crashes; disarmed, the probe is one relaxed atomic
//! load per item.

use a2a_sim::{BatchRunner, InitialConfig, RunOutcome, SimError};
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A queued unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Strikes (panicked jobs) after which a worker quarantines itself.
pub const MAX_STRIKES: usize = 3;

/// Default per-map deadline for helper results; items not delivered in
/// time are retried inline. Far above any sane generation time — the
/// deadline exists to unwedge a hung worker, not to pace healthy ones.
/// Overridable per pool with [`WorkerPool::with_task_deadline`].
pub const DEFAULT_TASK_DEADLINE: Duration = Duration::from_secs(120);

/// Configurations per range when [`WorkerPool::run_ranges`] shards a
/// configuration set. Ranges are committed in set order, so outcomes do
/// not depend on it.
pub const DISPATCH_BLOCK: usize = 64;

/// Number of worker threads to use by default: the machine's available
/// parallelism.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Queue state behind the pool's mutex.
struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

/// Per-worker watchdog slot.
#[derive(Default)]
struct WorkerSlot {
    /// Nanoseconds since the pool's epoch when the worker's current job
    /// started (`0` = idle). Written by the worker, read by callers
    /// reaping hung helpers at deadline expiry.
    busy_since_ns: AtomicU64,
    /// Set exactly once when the worker is retired (by its own strike
    /// budget or by a caller's deadline reap); guards the `live`
    /// decrement against double counting.
    quarantined: AtomicBool,
}

/// The mutex + condvar pair shared between the handle and the workers.
struct PoolShared {
    state: Mutex<PoolState>,
    available: Condvar,
    /// Workers still serving (spawned minus quarantined).
    live: AtomicUsize,
    /// Monotonic origin for `busy_since_ns` stamps.
    epoch: Instant,
    /// One watchdog slot per spawned worker (empty for inline pools).
    workers: Vec<WorkerSlot>,
}

impl PoolShared {
    /// Nanoseconds since the pool epoch, clamped to ≥ 1 so `0` can mean
    /// idle in the busy stamps.
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX).max(1)
    }
}

/// Retires worker `w`: flips its quarantine flag and, on the first
/// flip only, shrinks the pool's live width and reports the event.
fn quarantine_worker(shared: &PoolShared, w: usize, cause: &'static str, counter: &'static str) {
    if shared.workers[w].quarantined.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.live.fetch_sub(1, Ordering::Relaxed);
    if a2a_obs::metrics_enabled() {
        a2a_obs::global().counter(counter).incr();
    }
    a2a_obs::event!(a2a_obs::Level::Warn, "ga.pool.quarantine",
        "worker" => w as u64, "cause" => cause);
}

/// A persistent pool of worker threads executing boxed jobs.
///
/// Dropping the pool shuts it down: the queue is closed and every worker
/// is joined. Jobs that panic are caught per-item ([`catch_unwind`]) so
/// a poisoned genome cannot take a long-lived worker down with it; see
/// the module docs for the full watchdog (quarantine, deadline, retry).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: usize,
    deadline: Duration,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("live", &self.live_workers())
            .field("deadline", &self.deadline)
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `threads` workers (clamped to at least 1).
    ///
    /// A single-threaded pool spawns no OS threads at all: every
    /// [`WorkerPool::map`] runs inline on the caller, which keeps
    /// `threads = 1` call sites deterministic to profile.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let worker_count = if threads == 1 { 0 } else { threads };
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState { queue: VecDeque::new(), shutdown: false }),
            available: Condvar::new(),
            live: AtomicUsize::new(0),
            epoch: Instant::now(),
            workers: (0..worker_count).map(|_| WorkerSlot::default()).collect(),
        });
        let handles = (0..worker_count)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("a2a-pool-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("worker threads must spawn")
            })
            .collect::<Vec<_>>();
        shared.live.store(handles.len(), Ordering::Relaxed);
        Self { shared, threads, deadline: DEFAULT_TASK_DEADLINE, handles }
    }

    /// Replaces the per-map helper deadline (see [`DEFAULT_TASK_DEADLINE`]).
    #[must_use]
    pub fn with_task_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Worker count the pool was built with.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Workers still serving (spawned minus quarantined). Zero once
    /// every helper retired — maps then run inline on the caller.
    #[must_use]
    pub fn live_workers(&self) -> usize {
        self.shared.live.load(Ordering::Relaxed)
    }

    /// Quarantines every worker whose current job has been running for
    /// at least this pool's deadline (`ga.pool.deadline_quarantines`).
    /// Called by [`WorkerPool::map`] when its collection wait times
    /// out; the hung thread itself is left alone (it exits on its own
    /// if the job ever returns), but it no longer counts as live, so
    /// later maps schedule around it.
    fn reap_hung_workers(&self) {
        let now = self.shared.now_ns();
        let deadline_ns = u64::try_from(self.deadline.as_nanos()).unwrap_or(u64::MAX);
        // 3/4 of the deadline, not the full span: a worker stamps its
        // job a scheduling hiccup after the caller starts the deadline
        // clock, so demanding the full duration would let the exact
        // worker that starved this map slip the reap by microseconds.
        let stuck_ns = deadline_ns.saturating_sub(deadline_ns / 4);
        for w in 0..self.shared.workers.len() {
            let busy = self.shared.workers[w].busy_since_ns.load(Ordering::Relaxed);
            if busy != 0 && now.saturating_sub(busy) >= stuck_ns {
                quarantine_worker(&self.shared, w, "deadline", "ga.pool.deadline_quarantines");
            }
        }
    }

    /// Enqueues one job and wakes a worker.
    fn submit(&self, job: Job) {
        let mut state = self.shared.state.lock().expect("pool workers do not poison the lock");
        state.queue.push_back(job);
        drop(state);
        self.shared.available.notify_one();
    }

    /// Applies `f` to every item of `items` across the pool and returns
    /// the results in input order. `f` receives `(index, &item)`.
    ///
    /// The input is shared by [`Arc`] because jobs outlive the call's
    /// stack frame on the worker side; the caller participates in the
    /// drain (work-stealing over a shared index), so the pool threads
    /// are pure extra bandwidth and `threads = 1` degenerates to a plain
    /// inline map. Failed or undelivered items are retried once inline
    /// (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if any item fails twice (its first failure already
    /// consumed the bounded retry) — deterministic poison must surface.
    pub fn map<T, R, F>(&self, items: &Arc<Vec<T>>, f: F) -> Vec<R>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(usize, &T) -> R + Send + Sync + 'static,
    {
        self.map_beside(items, f, || ()).0
    }

    /// [`WorkerPool::map`] that also runs `beside` once on the calling
    /// thread: after the helpers are started, before the caller joins
    /// the drain, so `beside` overlaps the helpers' items. The inline
    /// path runs the items, then `beside`.
    ///
    /// # Panics
    ///
    /// As [`WorkerPool::map`], and if `beside` panics.
    fn map_beside<T, R, F, X>(
        &self,
        items: &Arc<Vec<T>>,
        f: F,
        beside: impl FnOnce() -> X,
    ) -> (Vec<R>, X)
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(usize, &T) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        if self.threads == 1 || n <= 1 {
            let results = items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
            return (results, beside());
        }
        // The map is a span and every helper drain adopts it as causal
        // parent before opening its own — the captured trace shows one
        // `ga.pool.map` fanning out into `ga.pool.drain` children no
        // matter which OS threads the jobs land on (and the adopt/span
        // guards unwind with a panicking item, so quarantined strikes
        // still close their span under the right parent).
        let _map_span = a2a_obs::Span::enter("ga.pool.map");
        let parent = a2a_obs::trace::current();
        let started = a2a_obs::metrics_enabled().then(Instant::now);
        let f = Arc::new(f);
        let next = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel::<(usize, Option<R>)>();
        // One task per live worker; each drains the shared index until
        // empty. The caller keeps one share for itself, so a fully
        // quarantined pool degrades to a clean inline map.
        let helper_tasks = (self.threads - 1).min(n).min(self.live_workers());
        for _ in 0..helper_tasks {
            let items = Arc::clone(items);
            let f = Arc::clone(&f);
            let next = Arc::clone(&next);
            let tx = tx.clone();
            self.submit(Box::new(move || {
                let _adopted = a2a_obs::trace::adopt(parent);
                let _drain_span = a2a_obs::Span::enter("ga.pool.drain");
                drain_to(&items, &f, &next, &tx);
            }));
        }
        drop(tx);
        let side = beside();

        let mut results: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
        let mut attempted = vec![false; n];
        let mut pending = n;
        // Caller participation: claim and run items like a worker, but
        // contain per-item panics locally (the caller has no strike
        // budget to spend — its failures go straight to the retry pass).
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| run_item(f.as_ref(), i, &items[i])));
            attempted[i] = true;
            pending -= 1;
            if let Ok(r) = outcome {
                results[i] = Some(r);
            }
        }
        // Collect helper deliveries until every item was attempted, the
        // helpers all hung up, or the deadline passed (hung worker).
        let deadline = Instant::now() + self.deadline;
        while pending > 0 {
            let timeout = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(timeout) {
                Ok((i, r)) => {
                    if !attempted[i] {
                        attempted[i] = true;
                        pending -= 1;
                    }
                    results[i] = r;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // A worker is wedged. Reclaim its items inline below
                    // and retire every worker stuck past the deadline so
                    // later maps stop feeding a thread that never
                    // delivers.
                    self.reap_hung_workers();
                    break;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break, // retry pass reclaims
            }
        }

        // Bounded retry: every failed or undelivered item gets exactly
        // one more attempt, inline. A second panic propagates.
        let mut retries = 0u64;
        for i in 0..n {
            if results[i].is_none() {
                retries += 1;
                results[i] = Some(run_item(f.as_ref(), i, &items[i]));
            }
        }
        if a2a_obs::metrics_enabled() {
            let reg = a2a_obs::global();
            reg.counter("ga.pool.items").add(n as u64);
            if retries > 0 {
                reg.counter("ga.pool.retries").add(retries);
            }
            if let Some(t0) = started {
                reg.histogram("ga.pool.map.us").record_duration_us(t0.elapsed());
            }
        }
        let results = results
            .into_iter()
            .map(|r| r.expect("the retry pass attempted every item"))
            .collect();
        (results, side)
    }

    /// Runs `runner` over every configuration of the shared set and
    /// returns the outcomes in set order: [`WorkerPool::run_ranges`]
    /// with one runner over the whole set, under a `batch.run_all` span
    /// that keeps the fan-out below it attributed to the kernel.
    ///
    /// # Errors
    ///
    /// The first placement error in set order, as
    /// [`BatchRunner::run_all`].
    pub fn run_all(
        &self,
        runner: &BatchRunner,
        inits: &Arc<Vec<InitialConfig>>,
    ) -> Result<Vec<RunOutcome>, SimError> {
        let _span = a2a_obs::Span::enter("batch.run_all");
        let (mut pieces, ()) =
            self.run_ranges(std::slice::from_ref(runner), inits, 0..inits.len(), || ());
        pieces.pop().expect("one result per runner").map(|pieces| pieces.concat())
    }

    /// Runs every runner over configurations `range` of the shared set
    /// in one pool map, and `beside` once on the calling thread while
    /// the helpers work (a density pass generates its next point's set
    /// there).
    ///
    /// The map's items are index ranges, not copies: each runner's part
    /// of `range` is cut into [`DISPATCH_BLOCK`] pieces, one
    /// `runner.run_all(&inits[piece])` per item, so no core waits on one
    /// runner's tail and a piece a worker panicked on or never delivered
    /// is re-run inline by the bounded retry. The caller runs `beside`
    /// after the helpers start on the pieces, then joins them. A
    /// single-threaded pool, or a dispatch of one piece, runs inline:
    /// each runner over `range` in turn, then `beside`. The map's wait
    /// is booked to its caller's span: a batch opens `batch.run_all`
    /// around the call (kernel dispatch), the GA does not (its pool
    /// wait).
    ///
    /// Returns one result per runner — its outcomes piece by piece, in
    /// configuration order, whose concatenation is bit-identical to
    /// `runner.run_all(&inits[range])`, or the first placement error in
    /// set order — and what `beside` returned. The pieces are not
    /// concatenated here, so a caller that folds them holds no second
    /// copy.
    pub fn run_ranges<X>(
        &self,
        runners: &[BatchRunner],
        inits: &Arc<Vec<InitialConfig>>,
        range: Range<usize>,
        beside: impl FnOnce() -> X,
    ) -> (Vec<RangeResult>, X) {
        let pieces_per_runner = range.len().div_ceil(DISPATCH_BLOCK);
        if self.threads == 1 || runners.len() * pieces_per_runner <= 1 {
            let outcomes = runners
                .iter()
                .map(|r| r.run_all(&inits[range.clone()]).map(|outcomes| vec![outcomes]))
                .collect();
            return (outcomes, beside());
        }
        let mut pieces = Vec::with_capacity(runners.len() * pieces_per_runner);
        for runner in 0..runners.len() {
            for from in range.clone().step_by(DISPATCH_BLOCK) {
                pieces.push((runner, from, (from + DISPATCH_BLOCK).min(range.end)));
            }
        }
        let pieces = Arc::new(pieces);
        let shared_runners = Arc::new(runners.to_vec());
        let shared_inits = Arc::clone(inits);
        let (done, side) = self.map_beside(
            &pieces,
            move |_, &(runner, from, to)| shared_runners[runner].run_all(&shared_inits[from..to]),
            beside,
        );
        let mut outcomes: Vec<RangeResult> =
            runners.iter().map(|_| Ok(Vec::with_capacity(pieces_per_runner))).collect();
        // Pieces are in set order per runner: the first error met is
        // the first in set order.
        for (&(runner, _, _), part) in pieces.iter().zip(done) {
            if let Ok(acc) = &mut outcomes[runner] {
                match part {
                    Ok(part) => acc.push(part),
                    Err(e) => outcomes[runner] = Err(e),
                }
            }
        }
        (outcomes, side)
    }
}

/// One runner's outcomes over a dispatched range, one vector per piece
/// in set order, or its first placement error.
type RangeResult = Result<Vec<Vec<RunOutcome>>, SimError>;

/// One item application, behind the chaos probe.
fn run_item<T, R>(f: &impl Fn(usize, &T) -> R, i: usize, item: &T) -> R {
    a2a_obs::fault::panic_point("ga.pool.item");
    f(i, item)
}

/// Worker-side drain: pulls indices from `next` and applies `f`,
/// delivering each result individually. A panicking item is delivered
/// as failed *before* the panic resumes — the caller learns which item
/// to retry, and the worker loop above records the strike.
fn drain_to<T, R>(
    items: &Arc<Vec<T>>,
    f: &Arc<impl Fn(usize, &T) -> R>,
    next: &Arc<AtomicUsize>,
    tx: &mpsc::Sender<(usize, Option<R>)>,
) {
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= items.len() {
            return;
        }
        match catch_unwind(AssertUnwindSafe(|| run_item(f.as_ref(), i, &items[i]))) {
            Ok(r) => {
                let _ = tx.send((i, Some(r)));
            }
            Err(payload) => {
                let _ = tx.send((i, None));
                resume_unwind(payload);
            }
        }
    }
}

/// The long-lived worker body: tag, then pop-run until shutdown or
/// quarantine.
fn worker_loop(shared: &PoolShared, w: usize) {
    a2a_obs::set_worker_id(Some(w));
    let mut strikes = 0usize;
    loop {
        // A caller's deadline reap may have retired this worker while it
        // was stuck in a job that eventually returned: honour the flag
        // before taking more work.
        if shared.workers[w].quarantined.load(Ordering::SeqCst) {
            return;
        }
        let job = {
            let mut state = shared.state.lock().expect("pool lock is never poisoned");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break Some(job);
                }
                if state.shutdown {
                    break None;
                }
                state = shared
                    .available
                    .wait(state)
                    .expect("pool lock is never poisoned");
            }
        };
        let Some(job) = job else { return };
        // Contain panics to the job; the per-item delivery inside
        // `drain_to` already told the caller which item failed. The busy
        // stamp brackets the job so deadline reaps can tell a wedged
        // worker from an idle one.
        shared.workers[w].busy_since_ns.store(shared.now_ns(), Ordering::Relaxed);
        let panicked = catch_unwind(AssertUnwindSafe(job)).is_err();
        shared.workers[w].busy_since_ns.store(0, Ordering::Relaxed);
        if a2a_obs::metrics_enabled() {
            let reg = a2a_obs::global();
            reg.counter("ga.pool.tasks").incr();
            if panicked {
                reg.counter("ga.pool.panics").incr();
            }
        }
        if panicked {
            strikes += 1;
            if strikes >= MAX_STRIKES {
                // Quarantine: this worker has proven unreliable (or the
                // workload deterministically poisonous); retire it and
                // let the pool degrade gracefully.
                quarantine_worker(shared, w, "strikes", "ga.pool.poisoned");
                return;
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if let Ok(mut state) = self.shared.state.lock() {
            state.shutdown = true;
        }
        self.shared.available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_grid::GridKind;
    use std::collections::HashSet;

    #[test]
    fn map_preserves_order() {
        let pool = WorkerPool::new(4);
        let items: Arc<Vec<u64>> = Arc::new((0..1000).collect());
        let doubled = pool.map(&items, |_, &x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn pool_is_reusable_across_maps() {
        let pool = WorkerPool::new(3);
        for round in 0..20u64 {
            let items: Arc<Vec<u64>> = Arc::new((0..50).collect());
            let got = pool.map(&items, move |_, &x| x + round);
            assert_eq!(got, (round..50 + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn single_thread_pool_runs_inline_without_workers() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        assert!(pool.handles.is_empty(), "threads = 1 must not spawn");
        let items: Arc<Vec<u32>> = Arc::new((0..10).collect());
        assert_eq!(pool.map(&items, |i, &x| i as u32 + x), (0..20).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_panics_propagate_directly() {
        // The inline path has no containment or retry: a panicking item
        // surfaces immediately, exactly like a plain iterator map.
        let pool = WorkerPool::new(1);
        let items: Arc<Vec<u32>> = Arc::new((0..4).collect());
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map(&items, |_, &x| {
                assert!(x != 2, "poisoned item");
                x
            })
        }));
        assert!(result.is_err());
        assert_eq!(pool.map(&items, |_, &x| x), (0..4).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_tiny_inputs_work() {
        let pool = WorkerPool::new(4);
        let empty: Arc<Vec<u32>> = Arc::new(Vec::new());
        assert!(pool.map(&empty, |_, &x| x).is_empty());
        let one: Arc<Vec<u32>> = Arc::new(vec![5]);
        assert_eq!(pool.map(&one, |_, &x| x + 1), vec![6]);
        // Fewer items than threads: every result, in order.
        let three: Arc<Vec<u32>> = Arc::new((0..3).collect());
        assert_eq!(pool.map(&three, |_, &x| x + 10), vec![10, 11, 12]);
    }

    #[test]
    fn balances_heterogeneous_work() {
        // Items with wildly different costs still come back in order.
        let pool = WorkerPool::new(4);
        let items: Arc<Vec<u64>> = Arc::new((0..64).collect());
        let results = pool.map(&items, |_, &x| {
            let mut acc = 0u64;
            for i in 0..(x % 7) * 10_000 {
                acc = acc.wrapping_add(i);
            }
            (x, acc).0
        });
        assert_eq!(results, *items);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn worker_panics_are_contained_and_reported() {
        let pool = WorkerPool::new(2);
        let items: Arc<Vec<u32>> = Arc::new((0..8).collect());
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map(&items, |_, &x| {
                assert!(x != 3, "poisoned item");
                x
            })
        }));
        assert!(result.is_err(), "deterministic poison fails the retry and reaches the caller");
        // The pool survives the panicking job and keeps serving.
        let items: Arc<Vec<u32>> = Arc::new((0..8).collect());
        assert_eq!(pool.map(&items, |_, &x| x), (0..8).collect::<Vec<_>>());
    }

    /// An `f` that panics exactly once per item (first attempt), then
    /// succeeds — the transient-failure shape the bounded retry exists
    /// for.
    fn flaky_once() -> impl Fn(usize, &u64) -> u64 + Send + Sync + 'static {
        let failed: Mutex<HashSet<usize>> = Mutex::new(HashSet::new());
        move |i, &x| {
            let fresh = failed.lock().expect("test lock").insert(i);
            assert!(!fresh, "transient failure on first attempt of item {i}");
            x * 10
        }
    }

    #[test]
    fn transient_failures_are_retried_to_completion() {
        // Every item fails its first attempt, wherever it runs — worker
        // drains and the caller's own participation alike — and the
        // bounded retry completes the map. Multiple panics in a single
        // drain are therefore exercised on every run.
        let pool = WorkerPool::new(3).with_task_deadline(Duration::from_secs(10));
        let items: Arc<Vec<u64>> = Arc::new((0..40).collect());
        let got = pool.map(&items, flaky_once());
        assert_eq!(got, (0..40).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn repeated_poison_quarantines_workers_and_pool_degrades() {
        let pool = WorkerPool::new(3).with_task_deadline(Duration::from_millis(500));
        assert_eq!(pool.live_workers(), 3);
        // Every map poisons whatever worker claims an odd item; each
        // panicking job is one strike, so workers retire after
        // MAX_STRIKES poisoned maps. The caller observes each map's
        // failure (the retry also hits deterministic poison).
        for _ in 0..12 {
            let items: Arc<Vec<u32>> = Arc::new((0..64).collect());
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.map(&items, |_, &x| {
                    assert!(x % 2 == 0, "poison");
                    x
                })
            }));
            assert!(result.is_err());
            if pool.live_workers() == 0 {
                break;
            }
        }
        assert!(pool.live_workers() < 3, "repeatedly poisoned workers must quarantine");
        // Degraded (possibly to zero helpers), the pool still completes
        // clean maps — inline on the caller if need be.
        let items: Arc<Vec<u32>> = Arc::new((0..100).collect());
        assert_eq!(pool.map(&items, |_, &x| x), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn lowered_deadline_quarantines_hung_workers() {
        // Every item wedges when claimed by a pool helper (recognised by
        // the `a2a-pool-*` thread name) but computes instantly on the
        // caller. Both scheduled helpers therefore hang past the lowered
        // deadline, the caller reclaims their items inline, and the reap
        // retires the hung workers.
        let hang = Duration::from_millis(1500);
        let pool = WorkerPool::new(3).with_task_deadline(Duration::from_millis(100));
        assert_eq!(pool.live_workers(), 3);
        let items: Arc<Vec<u64>> = Arc::new((0..8).collect());
        let got = pool.map(&items, move |_, &x| {
            let on_helper = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("a2a-pool-"));
            // Helpers wedge; the caller dawdles just enough per item
            // that the helpers reliably wake and claim work before the
            // caller drains the whole input.
            std::thread::sleep(if on_helper { hang } else { Duration::from_millis(20) });
            x * 3
        });
        assert_eq!(got, (0..8).map(|x| x * 3).collect::<Vec<_>>(), "map still completes");
        assert!(
            pool.live_workers() < 3,
            "workers hung past the deadline must be quarantined (live = {})",
            pool.live_workers()
        );
        // The degraded pool keeps serving clean maps.
        let items: Arc<Vec<u64>> = Arc::new((0..64).collect());
        assert_eq!(pool.map(&items, |_, &x| x + 1), (1..65).collect::<Vec<_>>());
    }

    fn runner_and_configs(
        kind: GridKind,
        seed: u64,
        n: usize,
        k: usize,
    ) -> (BatchRunner, Vec<InitialConfig>) {
        use rand::SeedableRng;
        let cfg = a2a_sim::WorldConfig::paper(kind, 16);
        let runner = BatchRunner::from_genome(&cfg, a2a_fsm::best_agent(kind), 200).unwrap();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let inits = (0..n)
            .map(|_| InitialConfig::random(cfg.lattice, cfg.kind, k, &[], &mut rng).unwrap())
            .collect();
        (runner, inits)
    }

    #[test]
    fn dispatched_batch_runner_matches_serial() {
        let n = 2 * DISPATCH_BLOCK + 5;
        let (runner, inits) = runner_and_configs(GridKind::Triangulate, 99, n, 16);
        let serial = runner.run_all(&inits).unwrap();
        let inits = Arc::new(inits);
        for threads in [1, 3] {
            let pool = WorkerPool::new(threads);
            let sharded = pool.run_all(&runner, &inits).unwrap();
            assert_eq!(sharded, serial, "threads={threads}");
        }
    }

    #[test]
    fn ranges_of_several_runners_match_serial_beside_the_next_set() {
        // Two runners (the same agent at two horizons, so their outcomes
        // differ) over a window that starts and ends off the piece grid,
        // with the next set generated beside them: each runner's
        // outcomes equal its serial run over the window at every thread
        // count, and the generated set equals a direct call.
        let kind = GridKind::Triangulate;
        let n = 3 * DISPATCH_BLOCK + 7;
        let (runner, inits) = runner_and_configs(kind, 5, n, 8);
        let cfg = a2a_sim::WorldConfig::paper(kind, 16);
        let short = BatchRunner::from_genome(&cfg, a2a_fsm::best_agent(kind), 30).unwrap();
        let runners = [runner, short];
        let window = 10..n - 3;
        let serial: Vec<Vec<RunOutcome>> =
            runners.iter().map(|r| r.run_all(&inits[window.clone()]).unwrap()).collect();
        assert_ne!(serial[0], serial[1], "the horizons must tell the runners apart");
        let lattice = cfg.lattice;
        let generate = move || a2a_sim::paper_config_set(lattice, kind, 4, 20, 7).unwrap();
        let expected_next = generate();
        let inits = Arc::new(inits);
        for threads in [1, 2, 3] {
            let pool = WorkerPool::new(threads);
            let (outcomes, next) = pool.run_ranges(&runners, &inits, window.clone(), generate);
            let concat = |outcomes: Vec<RangeResult>| -> Vec<Vec<RunOutcome>> {
                outcomes.into_iter().map(|pieces| pieces.unwrap().concat()).collect()
            };
            assert_eq!(concat(outcomes), serial, "threads={threads}");
            assert_eq!(next, expected_next, "threads={threads}");
            // An empty window still yields one (empty) result per runner
            // and runs `beside`.
            let (outcomes, next) = pool.run_ranges(&runners, &inits, 4..4, generate);
            assert_eq!(concat(outcomes), [Vec::new(), Vec::new()]);
            assert_eq!(next, expected_next);
        }
    }

    #[test]
    fn dispatched_run_all_reports_the_first_error_in_batch_order() {
        let block = DISPATCH_BLOCK;
        let (runner, mut inits) = runner_and_configs(GridKind::Square, 607, 3 * block, 8);
        let pool = WorkerPool::new(3);
        assert!(pool.run_all(&runner, &Arc::new(Vec::new())).unwrap().is_empty());
        // Earlier range: a duplicate placement. Later range: an
        // out-of-field position. Set order decides which one wins,
        // regardless of which range finishes first.
        inits[block + 1] = InitialConfig::new(vec![
            (a2a_grid::Pos::new(1, 1), a2a_grid::Dir::new(0)),
            (a2a_grid::Pos::new(1, 1), a2a_grid::Dir::new(0)),
        ]);
        inits[2 * block + 1] =
            InitialConfig::new(vec![(a2a_grid::Pos::new(99, 0), a2a_grid::Dir::new(0))]);
        let inits = Arc::new(inits);
        assert!(matches!(
            pool.run_all(&runner, &inits),
            Err(SimError::DuplicatePosition(_))
        ));
        // Every runner of a dispatch reports its own first error: a
        // window past the duplicate meets only the later fault.
        let runners = [runner.clone(), runner];
        let (results, ()) = pool.run_ranges(&runners, &inits, block + 2..3 * block, || ());
        assert_eq!(results.len(), 2);
        for result in results {
            assert!(matches!(result, Err(SimError::OutsideField(_))), "{result:?}");
        }
    }
}
