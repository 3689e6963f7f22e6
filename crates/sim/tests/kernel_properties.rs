//! Property-based tests of the [`MultiWorld`] kernel: agreement with
//! the reference engine and the information-flow invariants the
//! word-wise merge must preserve, on runs of every infoset width
//! (`⌈k/64⌉` words per cell) and on one world reloaded across widths.

use a2a_fsm::{FsmSpec, Genome};
use a2a_grid::{GridKind, Pos};
use a2a_sim::{simulate, BatchRunner, InitialConfig, MultiWorld, World, WorldConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn arb_kind() -> impl Strategy<Value = GridKind> {
    prop_oneof![Just(GridKind::Square), Just(GridKind::Triangulate)]
}

/// A random scenario: arbitrary genome and placement on a small torus.
fn arb_scenario() -> impl Strategy<Value = (WorldConfig, Genome, InitialConfig)> {
    (arb_kind(), 4u16..=10, 1usize..=12, any::<u64>()).prop_map(|(kind, m, k, seed)| {
        let cfg = WorldConfig::paper(kind, m);
        let mut rng = SmallRng::seed_from_u64(seed);
        let genome = Genome::random(FsmSpec::paper(kind), &mut rng);
        let k = k.min(cfg.lattice.len());
        let init = InitialConfig::random(cfg.lattice, kind, k, &[], &mut rng)
            .expect("k clamped to the cell count");
        (cfg, genome, init)
    })
}

/// A wide scenario: up to 200 agents on fields up to 20×20, with the
/// infoset width (1–4 words per cell) drawn first so every width occurs.
/// The field is at most three quarters full, so agents can still move.
fn arb_wide_scenario() -> impl Strategy<Value = (WorldConfig, Genome, InitialConfig)> {
    (arb_kind(), 1usize..=4, 0usize..64, 0u16..=3, any::<u64>()).prop_map(
        |(kind, stride, extra_k, extra_m, seed)| {
            let k = (64 * (stride - 1) + 1 + extra_k).min(200);
            let mut m = 8u16;
            while 3 * usize::from(m) * usize::from(m) < 4 * k {
                m += 1;
            }
            let cfg = WorldConfig::paper(kind, (m + extra_m).min(20));
            let mut rng = SmallRng::seed_from_u64(seed);
            let genome = Genome::random(FsmSpec::paper(kind), &mut rng);
            let init = InitialConfig::random(cfg.lattice, kind, k, &[], &mut rng)
                .expect("the field holds k agents");
            (cfg, genome, init)
        },
    )
}

/// Asserts that `multi` and `world` agree on positions, informed count
/// and every agent's infoset.
fn assert_run_matches(multi: &MultiWorld, world: &World, at: &str) -> Result<(), String> {
    let agents = world.agents();
    let positions: Vec<Pos> = agents.iter().map(|a| a.pos()).collect();
    prop_assert_eq!(multi.positions(), positions, "{}", at);
    prop_assert_eq!(multi.informed_count(), world.informed_count(), "{}", at);
    for (i, agent) in agents.iter().enumerate() {
        prop_assert_eq!(&multi.agent_info(i), agent.info(), "agent {} {}", i, at);
    }
    Ok(())
}

/// A freshly compiled kernel world holding `init`.
fn one_run(cfg: &WorldConfig, genome: Genome, init: &InitialConfig) -> MultiWorld {
    let mut world = MultiWorld::new(cfg, genome).unwrap();
    world.load(init).unwrap();
    world
}

proptest! {
    /// The kernel's whole outcome — `t_comm`, steps, informed count —
    /// equals the reference engine's for arbitrary genomes.
    #[test]
    fn outcome_matches_reference((cfg, genome, init) in arb_scenario(), t_max in 0u32..120) {
        let mut fast = one_run(&cfg, genome.clone(), &init);
        let reference = simulate(&cfg, genome, &init, t_max).unwrap();
        prop_assert_eq!(fast.run(t_max), reference);
    }

    /// The incremental informed counter never decreases, never exceeds the
    /// agent count, and every agent's gathered-bit count is monotone: the
    /// word-wise OR merge can only add information.
    #[test]
    fn informed_count_is_monotone((cfg, genome, init) in arb_scenario()) {
        let mut fast = one_run(&cfg, genome, &init);
        let k = fast.agent_count();
        let mut counts: Vec<usize> = (0..k).map(|i| fast.agent_info(i).count()).collect();
        let mut informed = fast.informed_count();
        for _ in 0..60 {
            fast.step();
            for (i, prev) in counts.iter_mut().enumerate() {
                let c = fast.agent_info(i).count();
                prop_assert!(c >= *prev, "agent {} lost bits ({} -> {})", i, *prev, c);
                *prev = c;
            }
            prop_assert!(fast.informed_count() >= informed);
            prop_assert!(fast.informed_count() <= k);
            informed = fast.informed_count();
        }
    }

    /// Completion means completion: when the kernel reports all informed,
    /// every agent's reconstructed infoset contains every agent's bit
    /// (the tail mask hides no missing high bits).
    #[test]
    fn completion_implies_every_bit((cfg, genome, init) in arb_scenario()) {
        let mut fast = one_run(&cfg, genome, &init);
        let out = fast.run(150);
        let k = fast.agent_count();
        if out.t_comm.is_some() {
            prop_assert_eq!(fast.informed_count(), k);
            for i in 0..k {
                let info = fast.agent_info(i);
                prop_assert!(info.is_complete(), "agent {} incomplete: {:?}", i, info);
                for j in 0..k {
                    prop_assert!(info.contains(j), "agent {} misses bit {}", i, j);
                }
            }
        } else {
            prop_assert!(fast.informed_count() < k);
        }
    }

    /// Stepping is deterministic, and a shared, pooled [`BatchRunner`]
    /// environment produces the same evolution as a freshly compiled
    /// kernel.
    #[test]
    fn shared_environment_is_equivalent((cfg, genome, init) in arb_scenario()) {
        let runner = BatchRunner::from_genome(&cfg, genome.clone(), 100).unwrap();
        let mut fresh = one_run(&cfg, genome, &init);
        prop_assert_eq!(runner.outcome_for(&init).unwrap(), fresh.run(100));
    }
}

proptest! {
    /// Wide runs (1–4 words per cell) reach the reference engine's
    /// outcome for arbitrary genomes.
    #[test]
    fn wide_outcome_matches_reference((cfg, genome, init) in arb_wide_scenario(), t_max in 0u32..120) {
        let mut fast = one_run(&cfg, genome.clone(), &init);
        let reference = simulate(&cfg, genome, &init, t_max).unwrap();
        prop_assert_eq!(fast.run(t_max), reference);
    }

    /// Step by step, a wide run's agents sit where the reference engine's
    /// do and carry the same infosets: the move copies all `stride` words
    /// of an agent's cell, and the gather ORs whole neighbour cells.
    #[test]
    fn wide_lockstep_matches_reference((cfg, genome, init) in arb_wide_scenario()) {
        let mut fast = one_run(&cfg, genome.clone(), &init);
        let mut world = World::new(&cfg, genome, &init).unwrap();
        for t in 0..25 {
            assert_run_matches(&fast, &world, &format!("t={t}"))?;
            fast.step();
            world.step();
        }
    }

    /// One world reloaded through every width, in shuffled order: each
    /// run's outcome equals the reference engine's, and after a few
    /// lockstep steps each run's infosets equal the reference engine's
    /// — which pins reloading a world whose infoset width differs from
    /// the last run's.
    #[test]
    fn ragged_batch_matches_reference(kind in arb_kind(), seed in any::<u64>()) {
        let cfg = WorldConfig::paper(kind, 20);
        let mut rng = SmallRng::seed_from_u64(seed);
        let genome = Genome::random(FsmSpec::paper(kind), &mut rng);
        let mut ks = [1usize, 8, 64, 65, 130, 200];
        let rot = (seed % ks.len() as u64) as usize;
        ks.rotate_left(rot);
        if seed & 1 == 1 {
            ks.reverse();
        }
        let inits: Vec<InitialConfig> = ks
            .iter()
            .map(|&k| InitialConfig::random(cfg.lattice, kind, k, &[], &mut rng).unwrap())
            .collect();
        let mut multi = MultiWorld::new(&cfg, genome.clone()).unwrap();
        for (r, init) in inits.iter().enumerate() {
            multi.load(init).unwrap();
            let expected = simulate(&cfg, genome.clone(), init, 80).unwrap();
            prop_assert_eq!(multi.run(80), expected, "run {} of ks {:?}", r, ks);
        }

        for (r, init) in inits.iter().enumerate() {
            multi.load(init).unwrap();
            let mut world = World::new(&cfg, genome.clone(), init).unwrap();
            for _ in 0..4 {
                multi.step();
                world.step();
            }
            assert_run_matches(&multi, &world, &format!("run {r} k={} t=4", ks[r]))?;
        }
    }
}
