//! Allocation accounting for [`BatchRunner::run_all`], which builds one
//! [`MultiWorld`] per call and reloads it for every configuration that
//! is not a packed one reusing the runner's first packed outcome.
//!
//! `MultiWorld::allocation_count()` is a process-global counter of
//! buffer-allocating constructions and grows, so this file holds exactly
//! one test (the single-configuration case lives in `allocation.rs` for
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
        // One-word infosets, then four words per cell, whose wide
        // staging buffer `load` must reserve up front, then the fully
        // packed field, whose later configurations are never loaded.
        for k in [16, 200, 256] {
            let configs: Vec<InitialConfig> = (0..40)
                .map(|_| InitialConfig::random(cfg.lattice, kind, k, &[], &mut rng).unwrap())
                .collect();

            let first = runner.run_all(&configs).unwrap();
            // One construction plus its first, growing load: no run
            // after the call's first load allocates. Once the warm-up
            // has stepped the runner's first packed configuration, a
            // packed set is only validated, on the construction's
            // scratch, and nothing is loaded.
            let world_allocs = if k == cfg.lattice.len() { 1 } else { 2 };
            for _ in 0..5 {
                let before = MultiWorld::allocation_count();
                assert_eq!(
                    runner.run_all(&configs).unwrap(),
                    first,
                    "{kind} k={k}: outcomes drifted"
                );
                assert_eq!(
                    MultiWorld::allocation_count(),
                    before + world_allocs,
                    "{kind} k={k}: run_all must allocate only its world"
                );
            }
        }
    }
}
