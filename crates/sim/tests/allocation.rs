//! Steady-state allocation accounting for single-configuration runs.
//!
//! A caller that loops over single configurations holds its own
//! [`MultiWorld`] and reloads it; [`BatchRunner::outcome_for`] builds a
//! fresh world per call instead. `MultiWorld::allocation_count()` is a
//! process-global counter of buffer-allocating constructions and grows,
//! so this file holds exactly one test (the `run_all` case lives in
//! `allocation_multi.rs` for the same reason): a sibling test
//! constructing worlds concurrently would move the counter and turn the
//! assertion into noise. A dedicated integration binary gives the test
//! its own process.

use a2a_fsm::best_agent;
use a2a_grid::GridKind;
use a2a_sim::{BatchRunner, InitialConfig, MultiWorld, RunOutcome, WorldConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn steady_state_batch_runs_perform_no_world_allocation() {
    for kind in [GridKind::Square, GridKind::Triangulate] {
        let cfg = WorldConfig::paper(kind, 16);
        let runner = BatchRunner::from_genome(&cfg, best_agent(kind), 200).unwrap();
        let mut world = MultiWorld::new(&cfg, best_agent(kind)).unwrap();
        let mut rng = SmallRng::seed_from_u64(2013);
        // One-word infosets, then four words per cell, whose wide
        // staging buffer `load` must reserve up front, then the fully
        // packed field.
        for k in [16, 200, 256] {
            let configs: Vec<InitialConfig> = (0..40)
                .map(|_| InitialConfig::random(cfg.lattice, kind, k, &[], &mut rng).unwrap())
                .collect();

            // Warm-up: the first load grows the caller-held world's
            // buffers to the workload shape.
            world.load(&configs[0]).unwrap();
            let _ = world.run(200);
            let before = MultiWorld::allocation_count();
            let reloaded: Vec<RunOutcome> = configs
                .iter()
                .map(|init| {
                    world.load(init).unwrap();
                    world.run(200)
                })
                .collect();
            assert_eq!(
                MultiWorld::allocation_count(),
                before,
                "{kind} k={k}: a reloaded world must not allocate"
            );

            // `outcome_for` builds a world and grows it on its first load.
            let before = MultiWorld::allocation_count();
            assert_eq!(
                runner.outcome_for(&configs[0]).unwrap(),
                reloaded[0],
                "{kind} k={k}"
            );
            assert_eq!(MultiWorld::allocation_count(), before + 2, "{kind} k={k}");

            // That call stepped the runner's first packed configuration;
            // a later one is validated on the fresh world and never
            // loaded, so only the construction counts.
            if k == cfg.lattice.len() {
                let before = MultiWorld::allocation_count();
                assert_eq!(runner.outcome_for(&configs[1]).unwrap(), reloaded[1], "{kind}");
                assert_eq!(MultiWorld::allocation_count(), before + 1, "{kind} k={k}");
            }
        }
    }
}
