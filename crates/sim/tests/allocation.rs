//! Steady-state allocation accounting for one-run-at-a-time batch calls.
//!
//! [`BatchRunner::outcome_for`] runs each configuration as a one-run
//! block on the same pooled per-thread [`MultiWorld`] that `run_all`
//! uses. `MultiWorld::allocation_count()` is a process-global counter of
//! buffer-allocating constructions and grows, so this file holds exactly
//! one test (the `run_all` case lives in `allocation_multi.rs` for the
//! same reason): a sibling test constructing worlds concurrently would
//! move the counter and turn the assertion into noise. A dedicated
//! integration binary gives the test its own process.

use a2a_fsm::best_agent;
use a2a_grid::GridKind;
use a2a_sim::{BatchRunner, InitialConfig, MultiWorld, WorldConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn steady_state_batch_runs_perform_no_world_allocation() {
    for kind in [GridKind::Square, GridKind::Triangulate] {
        let cfg = WorldConfig::paper(kind, 16);
        let runner = BatchRunner::from_genome(&cfg, best_agent(kind), 200).unwrap();
        let mut rng = SmallRng::seed_from_u64(2013);
        // One-word infosets, then the fully packed field's four words per
        // cell, whose wide staging buffer `load` must reserve up front.
        for k in [16, 256] {
            let configs: Vec<InitialConfig> = (0..40)
                .map(|_| InitialConfig::random(cfg.lattice, kind, k, &[], &mut rng).unwrap())
                .collect();

            // Warm-up: the first pooled run builds the one-run world (or
            // reuses the previous k's) and grows its buffers to the
            // workload shape.
            let _ = runner.outcome_for(&configs[0]).unwrap();
            let before = MultiWorld::allocation_count();
            for init in &configs {
                let _ = runner.outcome_for(init).unwrap();
            }
            assert_eq!(
                MultiWorld::allocation_count(),
                before,
                "{kind} k={k}: steady-state outcome_for must not allocate a world"
            );

            // The unpooled baseline allocates every run, by contrast: one
            // construction plus the growing first load of its empty
            // buffers.
            let _ = runner.fresh_outcome_for(&configs[0]).unwrap();
            assert_eq!(MultiWorld::allocation_count(), before + 2, "{kind} k={k}");
        }
    }
}
