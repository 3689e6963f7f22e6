//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] names the faults to inject by *site* — a
//! dot-separated string naming an instrumented code location (e.g.
//! `ga.pool.item`, `run.checkpoint.write`, `run.generation`) — and by
//! *occurrence*: each site counts its probes from 0 since [`arm`], and
//! a [`FaultRule`] faults exactly the occurrences in its range. A plan
//! therefore injects the same faults at the same points on every run —
//! the property the kill/resume equivalence suite relies on.
//!
//! Three fault shapes are provided, matching the sites the workspace
//! instruments:
//!
//! * [`panic_point`] — panics (a simulated worker crash; the caller's
//!   `catch_unwind` containment is what is under test);
//! * [`io_error`] — returns `Err(std::io::Error)` (a simulated disk
//!   fault on a checkpoint or artifact write);
//! * [`should_kill`] — returns `true` (a simulated process kill; the
//!   harness stops mid-run as if SIGKILLed between generations).
//!
//! # Cost and gating
//!
//! Disarmed (the default), every probe is a single relaxed atomic load —
//! the same fast path discipline as [`crate::metrics_enabled`]. Plans
//! are armed programmatically with [`arm`] (chaos tests) or — only when
//! the crate is built with the `fault-inject` feature — from the
//! `A2A_FAULT` environment variable via [`crate::init_from_env`], so
//! production binaries cannot be fault-injected by environment unless
//! deliberately compiled for chaos runs.
//!
//! The `A2A_FAULT` grammar (and [`FaultPlan::parse`]'s) is a
//! comma-separated list of rules, each `site@n` (exactly occurrence
//! `n`) or `site@a..b` (occurrences `a <= i < b`). Several rules may
//! share a site. E.g. `A2A_FAULT="run.generation@3"` kills a run at its
//! fourth generation boundary, and
//! `A2A_FAULT="ga.pool.item@10,ga.pool.item@40,run.checkpoint.write@0..2"`
//! panics two pool items and fails the first two checkpoint saves.
//!
//! # Instrumented sites
//!
//! | site                   | shape           | instrumented where                                   |
//! |------------------------|-----------------|------------------------------------------------------|
//! | `ga.pool.item`         | [`panic_point`] | every multi-threaded worker-pool item                |
//! | `run.checkpoint.write` | [`io_error`]    | `SealedDir::save` of `CheckpointStore`, `CampaignStore` |
//! | `run.generation`       | [`should_kill`] | every generation/epoch boundary                      |
//! | `campaign.round`       | [`should_kill`] | every campaign shard round boundary                  |
//! | `serve.request`        | [`io_error`]    | every accepted `a2a-serve` HTTP request              |
//! | `serve.job.step`       | [`panic_point`] | every `a2a-serve` job generation boundary            |
//! | `serve.checkpoint`     | [`io_error`]    | `SealedDir::save` of `JobStore` (manifests, results) |
//! | `store.publish`        | [`should_kill`] | after each of the four steps of [`crate::atomic_write`] |
//!
//! `SealedDir` (in `a2a-run`) is the one write path of every durable
//! store; each save probes its store's site exactly once, before any
//! filesystem effect, and then `store.publish` four times: after the
//! temp file is written, after its fsync, after the rename and after
//! the directory fsync. A fired `store.publish` probe exits the process
//! with status 137 on the spot (deleting the unsynced temp file at the
//! first probe), so `store.publish@n` crashes a process at its `n`-th
//! durable write step.
//!
//! e.g. `A2A_FAULT="serve.request@0..2,serve.job.step@1,serve.checkpoint@4"`
//! chaos-tests the service layer: two 500s, one simulated worker crash
//! (retried with backoff), and one refused manifest or result write.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Whether any plan is armed (the disarmed fast-path gate).
static ARMED: AtomicBool = AtomicBool::new(false);

/// The armed plan plus per-site occurrence/fired counters.
static ACTIVE: Mutex<Option<Active>> = Mutex::new(None);

#[derive(Debug)]
struct Active {
    plan: FaultPlan,
    /// Per-site `(occurrences seen, faults fired)`.
    counts: HashMap<String, (u64, u64)>,
}

/// One fault source: a site and the occurrences of it that fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// Instrumented site this rule applies to (exact match).
    pub site: String,
    /// The 0-based occurrences of `site`, counted since [`arm`], that
    /// fault.
    pub occurrences: Range<u64>,
}

/// A deterministic schedule of injected faults.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The rules; an occurrence faults when any rule of its site names
    /// it.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Whether occurrence `index` (0-based) of `site` faults under this
    /// plan — a pure function, exposed so tests can predict schedules.
    #[must_use]
    pub fn fires(&self, site: &str, index: u64) -> bool {
        self.rules.iter().any(|r| r.site == site && r.occurrences.contains(&index))
    }

    /// Parses the `A2A_FAULT` grammar (`site@n` and `site@a..b` items,
    /// comma-separated). Malformed items are ignored — the variable is
    /// advisory, like `A2A_LOG`.
    #[must_use]
    pub fn parse(spec: &str) -> Self {
        let rule = |item: &str| {
            let (site, at) = item.trim().split_once('@')?;
            let occurrences = match at.split_once("..") {
                Some((a, b)) => a.parse().ok()?..b.parse().ok()?,
                None => {
                    let n: u64 = at.parse().ok()?;
                    n..n.checked_add(1)?
                }
            };
            let site = site.to_string();
            (!site.is_empty()).then_some(FaultRule { site, occurrences })
        };
        Self { rules: spec.split(',').filter_map(rule).collect() }
    }
}

/// Arms `plan` process-wide, resetting all site counters. Chaos tests
/// call this directly; `fault-inject` builds also arm from `A2A_FAULT`.
pub fn arm(plan: FaultPlan) {
    let mut active = ACTIVE.lock().expect("fault lock never poisoned");
    *active = Some(Active { plan, counts: HashMap::new() });
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarms fault injection (the disarmed probe cost returns to one
/// relaxed atomic load).
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
    *ACTIVE.lock().expect("fault lock never poisoned") = None;
}

/// Whether a plan is currently armed.
#[inline]
#[must_use]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Number of faults fired at `site` since the plan was armed.
#[must_use]
pub fn fired(site: &str) -> u64 {
    ACTIVE
        .lock()
        .expect("fault lock never poisoned")
        .as_ref()
        .and_then(|a| a.counts.get(site).map(|&(_, fired)| fired))
        .unwrap_or(0)
}

/// Core occurrence bookkeeping: records one occurrence of `site` and
/// decides whether it faults.
fn check(site: &str) -> bool {
    if !armed() {
        return false;
    }
    let mut active = ACTIVE.lock().expect("fault lock never poisoned");
    let Some(active) = active.as_mut() else { return false };
    let (seen, fired) = active.counts.entry(site.to_string()).or_insert((0, 0));
    let fires = active.plan.fires(site, *seen);
    *seen += 1;
    *fired += u64::from(fires);
    fires
}

/// Panics when the armed plan schedules a fault at `site`; a no-op
/// otherwise. Place inside the containment (`catch_unwind`) under test.
pub fn panic_point(site: &str) {
    if check(site) {
        crate::event!(crate::Level::Warn, "fault.panic", "site" => site);
        crate::flight::on_fault(site, "fault.panic");
        panic!("injected fault: {site}");
    }
}

/// Simulates a disk fault: `Err(std::io::Error)` when the armed plan
/// schedules one at `site`, `Ok(())` otherwise.
///
/// # Errors
///
/// The injected error (kind `Other`, message naming the site).
pub fn io_error(site: &str) -> std::io::Result<()> {
    if check(site) {
        crate::event!(crate::Level::Warn, "fault.io", "site" => site);
        crate::flight::on_fault(site, "fault.io");
        return Err(std::io::Error::other(format!("injected IO fault: {site}")));
    }
    Ok(())
}

/// Simulates a process kill: `true` when the armed plan schedules one at
/// `site`. The caller is expected to stop abruptly without cleanup
/// beyond what a real kill would leave behind.
#[must_use]
pub fn should_kill(site: &str) -> bool {
    let kill = check(site);
    if kill {
        crate::event!(crate::Level::Warn, "fault.kill", "site" => site);
        crate::flight::on_fault(site, "fault.kill");
    }
    kill
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global plan is process-wide state shared by every test in
    /// this binary, so each test that arms must serialise.
    static GUARD: Mutex<()> = Mutex::new(());

    /// The occurrences, among `probes` probes of `site`, that kill.
    fn kills(site: &str, probes: u64) -> Vec<u64> {
        (0..probes).filter(|_| should_kill(site)).collect()
    }

    #[test]
    fn disarmed_probes_never_fault() {
        let _g = GUARD.lock().unwrap();
        disarm();
        assert!(!should_kill("x.y"));
        panic_point("x.y");
        io_error("x.y").unwrap();
        assert_eq!(fired("x.y"), 0);
    }

    #[test]
    fn named_occurrences_fire_exactly_where_named() {
        let _g = GUARD.lock().unwrap();
        arm(FaultPlan::parse("one@3,span@5..8,two@1,two@4"));
        assert_eq!(kills("one", 10), vec![3], "a single occurrence");
        assert_eq!(kills("span", 10), vec![5, 6, 7], "a range");
        assert_eq!(kills("two", 10), vec![1, 4], "two rules on one site");
        assert_eq!(kills("other", 10), Vec::<u64>::new(), "another site never fires");
        assert_eq!((fired("one"), fired("span"), fired("two")), (1, 3, 2));
        disarm();
    }

    #[test]
    fn budget_bounds_fired_faults() {
        let _g = GUARD.lock().unwrap();
        arm(FaultPlan::parse("k@0..2"));
        assert_eq!(kills("k", 10), vec![0, 1], "a 0..2 range fires twice over ten probes");
        assert_eq!(fired("k"), 2);
        disarm();
    }

    #[test]
    fn io_and_panic_shapes_fire() {
        let _g = GUARD.lock().unwrap();
        arm(FaultPlan::parse("w@0,p@0"));
        assert!(io_error("w").is_err());
        io_error("w").unwrap();
        let caught = std::panic::catch_unwind(|| panic_point("p"));
        assert!(caught.is_err());
        disarm();
    }

    #[test]
    fn env_grammar_parses_and_ignores_noise() {
        let rule = |site: &str, occurrences| FaultRule { site: site.into(), occurrences };
        let plan = FaultPlan::parse(
            " ga.pool.item@3 ,serve.request@0..2,bad,seed=42,@4,w@x,w@2..,x:0.5,\
             run.generation:1:1,run.generation@1",
        );
        // The retired `seed=N` and `site:rate[:max]` forms are noise.
        assert_eq!(
            plan.rules,
            vec![
                rule("ga.pool.item", 3..4),
                rule("serve.request", 0..2),
                rule("run.generation", 1..2),
            ]
        );
    }

    #[test]
    fn unknown_sites_never_fire() {
        let plan = FaultPlan::parse("a@0..100");
        assert!(plan.fires("a", 0) && !plan.fires("b", 0));
    }
}
