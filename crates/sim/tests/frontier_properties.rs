//! Property tests of the activity-frontier bookkeeping in the batch
//! kernel: at every step, each run's frontier must contain *exactly*
//! the agents whose infoset is not yet saturated — no stale entries, no
//! premature retirements — and the frontier sweep must reproduce the
//! dense full-`k` scan bit for bit, including across mid-run mode
//! toggles. These are the invariants that make `frontier_speedup` a
//! pure-performance ratio (see DESIGN.md §13).

use a2a_fsm::{FsmSpec, Genome};
use a2a_grid::GridKind;
use a2a_sim::{InitialConfig, MultiWorld, WorldConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn arb_kind() -> impl Strategy<Value = GridKind> {
    prop_oneof![Just(GridKind::Square), Just(GridKind::Triangulate)]
}

/// A random batch: several runs of varying agent count in one
/// environment, so run-level retirement staggers.
fn arb_batch() -> impl Strategy<Value = (WorldConfig, Genome, Vec<InitialConfig>)> {
    (arb_kind(), 4u16..=8, 2usize..=5, any::<u64>()).prop_map(|(kind, m, runs, seed)| {
        let cfg = WorldConfig::paper(kind, m);
        let mut rng = SmallRng::seed_from_u64(seed);
        let genome = Genome::random(FsmSpec::paper(kind), &mut rng);
        let inits = (0..runs)
            .map(|i| {
                let k = (1 + (seed as usize).wrapping_add(i * 7) % 10).min(cfg.lattice.len());
                InitialConfig::random(cfg.lattice, kind, k, &[], &mut rng)
                    .expect("k clamped to the cell count")
            })
            .collect();
        (cfg, genome, inits)
    })
}

/// The ground truth: agent IDs of run `r` whose infoset is incomplete.
fn unsaturated(world: &MultiWorld, r: usize) -> Vec<u32> {
    (0..world.agent_count(r))
        .filter(|&i| !world.agent_info(r, i).is_complete())
        .map(|i| i as u32)
        .collect()
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

proptest! {
    /// `MultiWorld`: the per-run frontier permutation prefix is exactly
    /// the unsaturated set of every loaded run at every step.
    #[test]
    fn multi_frontier_is_exactly_the_unsaturated_set(
        (cfg, genome, inits) in arb_batch(),
    ) {
        let mut multi = MultiWorld::new(&cfg, genome).unwrap();
        multi.load(&inits).unwrap();
        for step in 0..40 {
            multi.step();
            for r in 0..multi.run_count() {
                let frontier = sorted(multi.active_agents(r));
                prop_assert_eq!(
                    &frontier, &unsaturated(&multi, r),
                    "step {}, run {}", step, r
                );
                prop_assert_eq!(
                    frontier.len(),
                    multi.agent_count(r) - multi.informed_count(r),
                    "step {}, run {}: frontier size vs informed counter", step, r
                );
                // Empty frontier ⟺ the run is solved (the retirement test).
                prop_assert_eq!(
                    frontier.is_empty(),
                    multi.informed_count(r) == multi.agent_count(r),
                    "step {}, run {}", step, r
                );
            }
        }
    }

    /// The dense scan and the frontier sweep are bit-identical at every
    /// step, and the dense engine's computed active set matches the
    /// frontier engine's maintained one.
    #[test]
    fn dense_and_frontier_sweeps_are_bit_identical(
        (cfg, genome, inits) in arb_batch(),
    ) {
        let mut frontier = MultiWorld::new(&cfg, genome.clone()).unwrap();
        frontier.load(&inits).unwrap();
        let mut dense = MultiWorld::new(&cfg, genome).unwrap();
        dense.set_dense(true);
        dense.load(&inits).unwrap();
        prop_assert!(dense.is_dense() && !frontier.is_dense());
        for step in 0..40 {
            frontier.step();
            dense.step();
            for r in 0..frontier.run_count() {
                prop_assert_eq!(frontier.positions(r), dense.positions(r), "step {}", step);
                prop_assert_eq!(frontier.dirs(r), dense.dirs(r), "step {}", step);
                prop_assert_eq!(frontier.states(r), dense.states(r), "step {}", step);
                prop_assert_eq!(frontier.colors(r), dense.colors(r), "step {}", step);
                for i in 0..frontier.agent_count(r) {
                    prop_assert_eq!(
                        frontier.agent_info(r, i), dense.agent_info(r, i),
                        "step {}, run {}, agent {}", step, r, i
                    );
                }
                prop_assert_eq!(
                    sorted(frontier.active_agents(r)),
                    sorted(dense.active_agents(r)),
                    "step {}, run {}: active sets diverged", step, r
                );
            }
        }
    }

    /// Toggling dense mode mid-run rebuilds the frontier permutation
    /// correctly: a world that switches dense→frontier→dense tracks a
    /// never-toggled world bit for bit, and the rebuilt frontier still
    /// satisfies the exactness invariant.
    #[test]
    fn mode_toggle_rebuilds_the_frontier(
        (cfg, genome, inits) in arb_batch(),
        flip_at in 1usize..20,
    ) {
        let mut straight = MultiWorld::new(&cfg, genome.clone()).unwrap();
        straight.load(&inits).unwrap();
        let mut toggled = MultiWorld::new(&cfg, genome).unwrap();
        toggled.load(&inits).unwrap();
        for step in 0..30 {
            if step == flip_at {
                toggled.set_dense(true);
            }
            if step == flip_at + 5 {
                toggled.set_dense(false);
            }
            straight.step();
            toggled.step();
        }
        toggled.set_dense(false); // rebuild even when the flip window never closed
        for r in 0..straight.run_count() {
            prop_assert_eq!(straight.positions(r), toggled.positions(r), "run {}", r);
            prop_assert_eq!(straight.states(r), toggled.states(r), "run {}", r);
            for i in 0..straight.agent_count(r) {
                prop_assert_eq!(
                    straight.agent_info(r, i), toggled.agent_info(r, i),
                    "run {}, agent {}", r, i
                );
            }
            prop_assert_eq!(
                sorted(toggled.active_agents(r)), unsaturated(&toggled, r), "run {}", r
            );
        }
    }
}

/// The multi-word (`stride > 1`) frontier path: more than 64 agents per
/// run, where completion is detected across words and the frontier
/// swap-remove runs inside the strided sweep.
#[test]
fn wide_runs_keep_the_frontier_exact_and_match_dense() {
    let cfg = WorldConfig::paper(GridKind::Triangulate, 12);
    let mut rng = SmallRng::seed_from_u64(0x57AB_517E);
    let genome = Genome::random(FsmSpec::paper(cfg.kind), &mut rng);
    let inits: Vec<InitialConfig> = (0..2)
        .map(|_| InitialConfig::random(cfg.lattice, cfg.kind, 100, &[], &mut rng).unwrap())
        .collect();
    let mut frontier = MultiWorld::new(&cfg, genome.clone()).unwrap();
    frontier.load(&inits).unwrap();
    let mut dense = MultiWorld::new(&cfg, genome).unwrap();
    dense.set_dense(true);
    dense.load(&inits).unwrap();
    for step in 0..60 {
        frontier.step();
        dense.step();
        for r in 0..frontier.run_count() {
            assert_eq!(
                sorted(frontier.active_agents(r)),
                unsaturated(&frontier, r),
                "step {step}, run {r}: wide frontier drifted from the unsaturated set"
            );
            for i in 0..frontier.agent_count(r) {
                assert_eq!(
                    frontier.agent_info(r, i),
                    dense.agent_info(r, i),
                    "step {step}, run {r}, agent {i}: wide sweeps diverged"
                );
            }
        }
    }
}
