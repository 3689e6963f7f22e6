//! Steady-state allocation accounting for the batch layer's chunked
//! [`MultiWorld`] runs.
//!
//! `MultiWorld::allocation_count()` is a process-global counter of
//! buffer-allocating constructions and grows, so this file holds exactly
//! one test (the one-run `outcome_for` case lives in `allocation.rs` for
//! the same reason): a sibling test constructing worlds concurrently
//! would move the counter and turn the assertion into noise.

use a2a_fsm::best_agent;
use a2a_grid::GridKind;
use a2a_sim::{BatchRunner, InitialConfig, MultiWorld, WorldConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn steady_state_run_all_performs_no_multi_world_allocation() {
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

            // Warm-up: the first batch builds the pooled arena and grows
            // its buffers to the workload shape.
            let warm = runner.run_all(&configs).unwrap();
            let before = MultiWorld::allocation_count();
            for _ in 0..5 {
                assert_eq!(
                    runner.run_all(&configs).unwrap(),
                    warm,
                    "{kind} k={k}: outcomes drifted"
                );
            }
            assert_eq!(
                MultiWorld::allocation_count(),
                before,
                "{kind} k={k}: steady-state run_all must not grow any multi-world buffer"
            );
        }
    }
}
