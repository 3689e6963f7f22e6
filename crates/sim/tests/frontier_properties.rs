//! Property tests of the activity-frontier bookkeeping in the batch
//! kernel: at every step, each run's frontier must contain *exactly*
//! the agents whose infoset is not yet saturated — no stale entries, no
//! premature retirements. This is what makes skipping saturated agents
//! in the exchange sweep exact rather than approximate (see DESIGN.md
//! §13); the step-for-step match with the reference `World` is
//! `tests/differential.rs`'s lockstep suite.

use a2a_fsm::{FsmSpec, Genome};
use a2a_grid::GridKind;
use a2a_sim::{InitialConfig, MultiWorld, World, WorldConfig};
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
}

/// The multi-word (`stride > 1`) frontier path: more than 64 agents per
/// run, where completion is detected across words and the frontier
/// swap-remove runs inside the strided sweep; the reference `World`
/// checks every agent's infoset along the way.
#[test]
fn wide_runs_keep_the_frontier_exact_and_match_dense() {
    let cfg = WorldConfig::paper(GridKind::Triangulate, 12);
    let mut rng = SmallRng::seed_from_u64(0x57AB_517E);
    let genome = Genome::random(FsmSpec::paper(cfg.kind), &mut rng);
    let inits: Vec<InitialConfig> = (0..2)
        .map(|_| InitialConfig::random(cfg.lattice, cfg.kind, 100, &[], &mut rng).unwrap())
        .collect();
    let mut frontier = MultiWorld::new(&cfg, genome.clone()).unwrap();
    for (r, init) in inits.iter().enumerate() {
        frontier.load(init).unwrap();
        let mut world = World::new(&cfg, genome.clone(), init).unwrap();
        for step in 0..60 {
            frontier.step();
            world.step();
            assert_eq!(
                sorted(frontier.active_agents()),
                unsaturated(&frontier),
                "step {step}, run {r}: wide frontier drifted from the unsaturated set"
            );
            for (i, agent) in world.agents().iter().enumerate() {
                assert_eq!(
                    frontier.agent_info(i),
                    *agent.info(),
                    "step {step}, run {r}, agent {i}: wide sweep diverged from the oracle"
                );
            }
        }
    }
}
