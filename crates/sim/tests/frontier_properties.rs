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
/// environment, loaded one after another into the same world.
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

/// The ground truth: agent IDs whose infoset is incomplete.
fn unsaturated(world: &MultiWorld) -> Vec<u32> {
    (0..world.agent_count())
        .filter(|&i| !world.agent_info(i).is_complete())
        .map(|i| i as u32)
        .collect()
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

proptest! {
    /// `MultiWorld`: the frontier permutation prefix is exactly the
    /// unsaturated set of every loaded run at every step.
    #[test]
    fn multi_frontier_is_exactly_the_unsaturated_set(
        (cfg, genome, inits) in arb_batch(),
    ) {
        let mut multi = MultiWorld::new(&cfg, genome).unwrap();
        for (r, init) in inits.iter().enumerate() {
            multi.load(init).unwrap();
            for step in 0..40 {
                multi.step();
                let frontier = sorted(multi.active_agents());
                prop_assert_eq!(
                    &frontier, &unsaturated(&multi),
                    "step {}, run {}", step, r
                );
                prop_assert_eq!(
                    frontier.len(),
                    multi.agent_count() - multi.informed_count(),
                    "step {}, run {}: frontier size vs informed counter", step, r
                );
                // Empty frontier ⟺ the run is solved (the stopping test).
                prop_assert_eq!(
                    frontier.is_empty(),
                    multi.informed_count() == multi.agent_count(),
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
        let mut dense = MultiWorld::new(&cfg, genome).unwrap();
        dense.set_dense(true);
        for (r, init) in inits.iter().enumerate() {
            frontier.load(init).unwrap();
            dense.load(init).unwrap();
            prop_assert!(dense.is_dense() && !frontier.is_dense());
            for step in 0..40 {
                frontier.step();
                dense.step();
                prop_assert_eq!(frontier.positions(), dense.positions(), "step {}", step);
                prop_assert_eq!(frontier.dirs(), dense.dirs(), "step {}", step);
                prop_assert_eq!(frontier.states(), dense.states(), "step {}", step);
                prop_assert_eq!(frontier.colors(), dense.colors(), "step {}", step);
                for i in 0..frontier.agent_count() {
                    prop_assert_eq!(
                        frontier.agent_info(i), dense.agent_info(i),
                        "step {}, run {}, agent {}", step, r, i
                    );
                }
                prop_assert_eq!(
                    sorted(frontier.active_agents()),
                    sorted(dense.active_agents()),
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
        let mut toggled = MultiWorld::new(&cfg, genome).unwrap();
        for (r, init) in inits.iter().enumerate() {
            straight.load(init).unwrap();
            toggled.load(init).unwrap();
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
            prop_assert_eq!(straight.positions(), toggled.positions(), "run {}", r);
            prop_assert_eq!(straight.states(), toggled.states(), "run {}", r);
            for i in 0..straight.agent_count() {
                prop_assert_eq!(
                    straight.agent_info(i), toggled.agent_info(i),
                    "run {}, agent {}", r, i
                );
            }
            prop_assert_eq!(
                sorted(toggled.active_agents()), unsaturated(&toggled), "run {}", r
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
    let mut dense = MultiWorld::new(&cfg, genome).unwrap();
    dense.set_dense(true);
    for (r, init) in inits.iter().enumerate() {
        frontier.load(init).unwrap();
        dense.load(init).unwrap();
        for step in 0..60 {
            frontier.step();
            dense.step();
            assert_eq!(
                sorted(frontier.active_agents()),
                unsaturated(&frontier),
                "step {step}, run {r}: wide frontier drifted from the unsaturated set"
            );
            for i in 0..frontier.agent_count() {
                assert_eq!(
                    frontier.agent_info(i),
                    dense.agent_info(i),
                    "step {step}, run {r}, agent {i}: wide sweeps diverged"
                );
            }
        }
    }
}
