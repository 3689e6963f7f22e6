//! The kernel telemetry the end-to-end ledger reads: `kernel.runs`,
//! `kernel.steps`, `kernel.frontier.active`, `kernel.conflicts`,
//! `kernel.orbit.skipped_steps` and the traced
//! `kernel.multi.{act,exchange}.ns` phase histograms. A dropped or
//! miscounted name would silently read 0 there, so each is pinned
//! against the runs it counts — on the published agents, which solve
//! every run, and on stuck agents, whose runs end by skipping a
//! periodic orbit and must count exactly what stepping would. Each set
//! holds a fully packed configuration, which the Debug pass steps and
//! the Trace pass reuses: both must count what stepping it counts.
//!
//! The metrics registry and the level ceiling are process-global, so
//! this file holds exactly one test, in its own binary.

use a2a_fsm::{best_agent, Action, Entry, FsmSpec, Genome};
use a2a_grid::GridKind;
use a2a_obs::Level;
use a2a_sim::{BatchRunner, InitialConfig, MultiWorld, World, WorldConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const T_MAX: u32 = 300;

/// Shuttles: on a free front, move and turn back; blocked, stand still;
/// never change state or colour. Each agent moves back and forth
/// between two cells, so few runs complete, and neighbours contending
/// for one cell lose a conflict in every period.
fn shuttle(kind: GridKind) -> Genome {
    let spec = FsmSpec::paper(kind);
    let n_states = usize::from(spec.n_states);
    let entries = (0..spec.entry_count())
        .map(|i| Entry {
            next_state: (i % n_states) as u8,
            // Turn code 2 is 180° in both paper turn sets.
            action: if (i / n_states) % 2 == 0 {
                Action::new(2, true, 0)
            } else {
                Action::new(0, false, 0)
            },
        })
        .collect();
    Genome::from_entries(spec, entries)
}

/// What running `inits` should add to `kernel.steps`,
/// `kernel.frontier.active` and `kernel.conflicts`. Steps and active
/// agent-steps (`k − informed` before every counted step) are replayed
/// on the `World` oracle; it counts no conflicts, so those are replayed
/// with `MultiWorld::step`, which never skips.
fn replay(cfg: &WorldConfig, genome: &Genome, inits: &[InitialConfig]) -> (u64, u64, u64) {
    let (mut steps, mut active, mut conflicts) = (0, 0, 0);
    for init in inits {
        let mut world = World::new(cfg, genome.clone(), init).unwrap();
        while !world.all_informed() && world.time() < T_MAX {
            active += (init.agent_count() - world.informed_count()) as u64;
            world.step();
        }
        steps += u64::from(world.time());
        let mut multi = MultiWorld::new(cfg, genome.clone()).unwrap();
        multi.load(init).unwrap();
        while multi.informed_count() < multi.agent_count() && multi.time() < T_MAX {
            multi.step();
        }
        conflicts += multi.conflict_losses();
    }
    (steps, active, conflicts)
}

#[test]
fn run_all_feeds_the_counters_and_phase_histograms_the_ledger_reads() {
    let reg = a2a_obs::global();
    let counter = |name: &str| reg.counter(name).get();
    let hist = |name: &str| reg.histogram(name).snapshot();
    a2a_obs::set_metrics(true);
    for kind in [GridKind::Square, GridKind::Triangulate] {
        let cfg = WorldConfig::paper(kind, 16);
        let mut rng = SmallRng::seed_from_u64(17);
        let inits: Vec<InitialConfig> = [16usize, 1, 70, 2, 256, 33, 8]
            .iter()
            .map(|&k| InitialConfig::random(cfg.lattice, kind, k, &[], &mut rng).unwrap())
            .collect();
        for (genome, stuck) in [(best_agent(kind), false), (shuttle(kind), true)] {
            let runner = BatchRunner::from_genome(&cfg, genome.clone(), T_MAX).unwrap();
            let (steps, active, conflicts) = replay(&cfg, &genome, &inits);
            if stuck {
                assert!(conflicts > 0, "{kind}: the stuck arm must pin some conflicts");
            }
            for level in [Level::Debug, Level::Trace] {
                a2a_obs::set_level(level);
                let runs = counter("kernel.runs");
                let counted = counter("kernel.steps");
                let frontier = counter("kernel.frontier.active");
                let lost = counter("kernel.conflicts");
                let skipped = counter("kernel.orbit.skipped_steps");
                let act = hist("kernel.multi.act.ns");
                let exchange = hist("kernel.multi.exchange.ns");
                let outcomes = runner.run_all(&inits).unwrap();
                let ctx =
                    format!("{kind} {} at {level:?}", if stuck { "stuck" } else { "published" });
                assert_eq!(counter("kernel.runs") - runs, inits.len() as u64, "{ctx}");
                assert_eq!(
                    outcomes.iter().map(|o| u64::from(o.steps)).sum::<u64>(),
                    steps,
                    "{ctx}"
                );
                assert_eq!(counter("kernel.steps") - counted, steps, "{ctx}");
                assert_eq!(counter("kernel.frontier.active") - frontier, active, "{ctx}");
                assert_eq!(counter("kernel.conflicts") - lost, conflicts, "{ctx}");
                let skipped = counter("kernel.orbit.skipped_steps") - skipped;
                if stuck {
                    assert!(skipped > 0, "{ctx}: no periodic orbit was skipped");
                } else {
                    assert_eq!(skipped, 0, "{ctx}: solved runs have no orbit to skip");
                }
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
    }
    a2a_obs::set_level(Level::Off);
    a2a_obs::set_metrics(false);
}
