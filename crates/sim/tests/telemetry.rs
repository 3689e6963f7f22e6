//! The kernel telemetry the end-to-end ledger reads: `kernel.runs`,
//! `kernel.steps`, `kernel.frontier.active` and the traced
//! `kernel.multi.{act,exchange}.ns` phase histograms. A dropped or
//! miscounted name would silently read 0 there, so each is pinned
//! against the runs it counts.
//!
//! The metrics registry and the level ceiling are process-global, so
//! this file holds exactly one test, in its own binary.

use a2a_fsm::best_agent;
use a2a_grid::GridKind;
use a2a_obs::Level;
use a2a_sim::{BatchRunner, InitialConfig, World, WorldConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const T_MAX: u32 = 300;

#[test]
fn run_all_feeds_the_counters_and_phase_histograms_the_ledger_reads() {
    let reg = a2a_obs::global();
    let counter = |name: &str| reg.counter(name).get();
    let hist = |name: &str| reg.histogram(name).snapshot();
    a2a_obs::set_metrics(true);
    for kind in [GridKind::Square, GridKind::Triangulate] {
        let cfg = WorldConfig::paper(kind, 16);
        let runner = BatchRunner::from_genome(&cfg, best_agent(kind), T_MAX).unwrap();
        let mut rng = SmallRng::seed_from_u64(17);
        let inits: Vec<InitialConfig> = [16usize, 1, 70, 2, 33, 8]
            .iter()
            .map(|&k| InitialConfig::random(cfg.lattice, kind, k, &[], &mut rng).unwrap())
            .collect();
        // The reference count of active agent-steps: `k − informed`
        // before every counted step, replayed on the oracle.
        let active: u64 = inits
            .iter()
            .map(|init| {
                let mut world = World::new(&cfg, best_agent(kind), init).unwrap();
                let mut active = 0;
                while !world.all_informed() && world.time() < T_MAX {
                    active += (init.agent_count() - world.informed_count()) as u64;
                    world.step();
                }
                active
            })
            .sum();

        for level in [Level::Debug, Level::Trace] {
            a2a_obs::set_level(level);
            let runs = counter("kernel.runs");
            let steps = counter("kernel.steps");
            let frontier = counter("kernel.frontier.active");
            let act = hist("kernel.multi.act.ns");
            let exchange = hist("kernel.multi.exchange.ns");
            let outcomes = runner.run_all(&inits).unwrap();
            let ctx = format!("{kind} at {level:?}");
            assert_eq!(counter("kernel.runs") - runs, inits.len() as u64, "{ctx}");
            assert_eq!(
                counter("kernel.steps") - steps,
                outcomes.iter().map(|o| u64::from(o.steps)).sum::<u64>(),
                "{ctx}"
            );
            assert_eq!(counter("kernel.frontier.active") - frontier, active, "{ctx}");
            for (name, before) in
                [("kernel.multi.act.ns", act), ("kernel.multi.exchange.ns", exchange)]
            {
                let after = hist(name);
                if level == Level::Trace {
                    assert!(after.count > before.count, "{ctx}: {name} gained no samples");
                    assert!(after.sum > before.sum, "{ctx}: {name} recorded no time");
                } else {
                    assert_eq!(after.count, before.count, "{ctx}: {name} timed below Trace");
                }
            }
        }
    }
    a2a_obs::set_level(Level::Off);
    a2a_obs::set_metrics(false);
}
