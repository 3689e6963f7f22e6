//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] is a seeded schedule of faults keyed by *site* — a
//! dot-separated string naming an instrumented code location (e.g.
//! `ga.pool.item`, `run.checkpoint.write`, `run.generation`). Each time
//! an instrumented site is reached it asks the armed plan whether this
//! particular occurrence should fault; the decision is a pure function
//! of `(plan seed, site, occurrence index)`, so a given plan injects the
//! same faults at the same points on every run — the property the
//! kill/resume equivalence suite relies on.
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
//! The `A2A_FAULT` grammar is a comma-separated list of
//! `site:rate[:max]` rules plus an optional `seed=N` item, e.g.
//! `A2A_FAULT="seed=7,ga.pool.item:0.05:3,run.checkpoint.write:0.5"`.
//! [`FaultPlan::to_spec`] renders a plan back into this grammar, and
//! the two round-trip exactly (`parse(plan.to_spec()) == plan`).
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
//!
//! `SealedDir` (in `a2a-run`) is the one write path of every durable
//! store; each save probes its store's site exactly once, before any
//! filesystem effect.
//!
//! e.g. `A2A_FAULT="seed=9,serve.request:0.01,serve.job.step:0.2:2,serve.checkpoint:0.5:4"`
//! chaos-tests the service layer: sporadic 500s, two simulated worker
//! crashes (retried with backoff), and flaky manifest writes.

use std::collections::HashMap;
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

/// One scheduled fault source: a site, a firing rate and a budget.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Instrumented site this rule applies to (exact match).
    pub site: String,
    /// Probability in `[0, 1]` that any one occurrence faults.
    pub rate: f64,
    /// Maximum number of faults this rule may fire (`u64::MAX` =
    /// unbounded).
    pub max: u64,
}

/// A deterministic, seeded schedule of injected faults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of the schedule; two plans with equal seeds and rules fault
    /// identically.
    pub seed: u64,
    /// The per-site rules (first exact match wins).
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan with a seed — add rules with [`FaultPlan::with`].
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        Self { seed, rules: Vec::new() }
    }

    /// Adds a rule: occurrences of `site` fault with probability `rate`,
    /// at most `max` times.
    #[must_use]
    pub fn with(mut self, site: &str, rate: f64, max: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate {rate} outside [0, 1]");
        self.rules.push(FaultRule { site: site.to_string(), rate, max });
        self
    }

    /// Whether occurrence `index` (0-based) of `site` faults under this
    /// plan — a pure function, exposed so tests can predict schedules.
    #[must_use]
    pub fn fires(&self, site: &str, index: u64) -> bool {
        let Some(rule) = self.rules.iter().find(|r| r.site == site) else {
            return false;
        };
        if rule.rate <= 0.0 {
            return false;
        }
        if rule.rate >= 1.0 {
            return true;
        }
        // SplitMix64 over (seed, site, index): deterministic, uniform,
        // independent across occurrences.
        let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in site.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
        h ^= index.wrapping_mul(0xA24B_AED4_963E_E407);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < rule.rate
    }

    /// Parses the `A2A_FAULT` grammar (`seed=N` and `site:rate[:max]`
    /// items, comma-separated). Malformed items are ignored — the
    /// variable is advisory, like `A2A_LOG`.
    #[must_use]
    pub fn parse(spec: &str) -> Self {
        let mut plan = Self::default();
        for item in spec.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            if let Some(seed) = item.strip_prefix("seed=") {
                if let Ok(s) = seed.parse() {
                    plan.seed = s;
                }
                continue;
            }
            let mut parts = item.split(':');
            let (Some(site), Some(rate)) = (parts.next(), parts.next()) else { continue };
            let Ok(rate) = rate.parse::<f64>() else { continue };
            if !(0.0..=1.0).contains(&rate) {
                continue;
            }
            let max = parts.next().and_then(|m| m.parse().ok()).unwrap_or(u64::MAX);
            plan.rules.push(FaultRule { site: site.to_string(), rate, max });
        }
        plan
    }

    /// Renders the plan in the `A2A_FAULT` grammar, the exact inverse of
    /// [`FaultPlan::parse`]: `FaultPlan::parse(&plan.to_spec()) == plan`
    /// for every plan whose rates survive `f64` printing (all parsed
    /// plans do). Lets a chaos harness hand a programmatic plan to a
    /// child process through the environment.
    #[must_use]
    pub fn to_spec(&self) -> String {
        let mut items = vec![format!("seed={}", self.seed)];
        for rule in &self.rules {
            if rule.max == u64::MAX {
                items.push(format!("{}:{}", rule.site, rule.rate));
            } else {
                items.push(format!("{}:{}:{}", rule.site, rule.rate, rule.max));
            }
        }
        items.join(",")
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
    let entry = active.counts.entry(site.to_string()).or_insert((0, 0));
    let index = entry.0;
    entry.0 += 1;
    let budget =
        active.plan.rules.iter().find(|r| r.site == site).map_or(0, |r| r.max);
    if entry.1 >= budget {
        return false;
    }
    if active.plan.fires(site, index) {
        entry.1 += 1;
        return true;
    }
    false
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
    fn schedules_are_deterministic_and_seed_dependent() {
        let a = FaultPlan::seeded(7).with("s", 0.3, u64::MAX);
        let b = FaultPlan::seeded(7).with("s", 0.3, u64::MAX);
        let c = FaultPlan::seeded(8).with("s", 0.3, u64::MAX);
        let hits = |p: &FaultPlan| (0..200).map(|i| p.fires("s", i)).collect::<Vec<_>>();
        assert_eq!(hits(&a), hits(&b));
        assert_ne!(hits(&a), hits(&c), "different seeds, different schedules");
        let n = hits(&a).iter().filter(|&&f| f).count();
        assert!((20..=100).contains(&n), "rate 0.3 over 200: {n}");
    }

    #[test]
    fn budget_bounds_fired_faults() {
        let _g = GUARD.lock().unwrap();
        arm(FaultPlan::seeded(1).with("k", 1.0, 2));
        let kills = (0..10).filter(|_| should_kill("k")).count();
        assert_eq!(kills, 2, "max = 2 caps a rate-1.0 rule");
        assert_eq!(fired("k"), 2);
        disarm();
    }

    #[test]
    fn io_and_panic_shapes_fire() {
        let _g = GUARD.lock().unwrap();
        arm(FaultPlan::seeded(3).with("w", 1.0, 1).with("p", 1.0, 1));
        assert!(io_error("w").is_err());
        io_error("w").unwrap();
        let caught = std::panic::catch_unwind(|| panic_point("p"));
        assert!(caught.is_err());
        disarm();
    }

    #[test]
    fn env_grammar_parses_and_ignores_noise() {
        let plan = FaultPlan::parse("seed=42, ga.pool.item:0.25:3 ,bad,x:2.0,w:1.0");
        assert_eq!(plan.seed, 42);
        assert_eq!(
            plan.rules,
            vec![
                FaultRule { site: "ga.pool.item".into(), rate: 0.25, max: 3 },
                FaultRule { site: "w".into(), rate: 1.0, max: u64::MAX },
            ]
        );
    }

    #[test]
    fn env_grammar_round_trips_through_to_spec() {
        // The serve sites ride the same grammar as every other site; a
        // plan covering all three (plus the PR-4 sites) must survive
        // render → parse bit-identically, budgets included.
        let plan = FaultPlan::seeded(9)
            .with("serve.request", 0.01, u64::MAX)
            .with("serve.job.step", 0.2, 2)
            .with("serve.checkpoint", 0.5, 4)
            .with("ga.pool.item", 0.05, 3)
            .with("run.checkpoint.write", 1.0, u64::MAX);
        let spec = plan.to_spec();
        assert_eq!(FaultPlan::parse(&spec), plan, "spec was: {spec}");
        // And the rendered grammar is exactly what the doc comment
        // promises: seed first, site:rate[:max] items.
        assert!(spec.starts_with("seed=9,serve.request:0.01,serve.job.step:0.2:2"), "{spec}");
        // A second round trip is a fixed point.
        assert_eq!(FaultPlan::parse(&spec).to_spec(), spec);
    }

    #[test]
    fn serve_sites_schedule_deterministically() {
        let plan = FaultPlan::seeded(77)
            .with("serve.request", 0.3, u64::MAX)
            .with("serve.job.step", 0.3, u64::MAX);
        let req: Vec<bool> = (0..64).map(|i| plan.fires("serve.request", i)).collect();
        let step: Vec<bool> = (0..64).map(|i| plan.fires("serve.job.step", i)).collect();
        assert_ne!(req, step, "sites hash independently");
        assert_eq!(req, (0..64).map(|i| plan.fires("serve.request", i)).collect::<Vec<_>>());
    }

    #[test]
    fn unknown_sites_never_fire() {
        let plan = FaultPlan::seeded(5).with("a", 1.0, u64::MAX);
        assert!(!plan.fires("b", 0));
    }
}
