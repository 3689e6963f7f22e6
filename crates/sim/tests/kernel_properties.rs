//! Property-based tests of the [`MultiWorld`] kernel on one-run
//! batches: agreement with the reference engine and the
//! information-flow invariants the word-wise merge must preserve.

use a2a_fsm::{FsmSpec, Genome};
use a2a_grid::GridKind;
use a2a_sim::{simulate, BatchRunner, InitialConfig, MultiWorld, WorldConfig};
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

/// A freshly compiled kernel world holding `init` in run slot 0.
fn one_run(cfg: &WorldConfig, genome: Genome, init: &InitialConfig) -> MultiWorld {
    let mut world = MultiWorld::new(cfg, genome).unwrap();
    world.load(std::slice::from_ref(init)).unwrap();
    world
}

proptest! {
    /// The kernel's whole outcome — `t_comm`, steps, informed count —
    /// equals the reference engine's for arbitrary genomes.
    #[test]
    fn outcome_matches_reference((cfg, genome, init) in arb_scenario(), t_max in 0u32..120) {
        let mut fast = one_run(&cfg, genome.clone(), &init);
        let reference = simulate(&cfg, genome, &init, t_max).unwrap();
        prop_assert_eq!(fast.run(t_max)[0], reference);
    }

    /// The incremental informed counter never decreases, never exceeds the
    /// agent count, and every agent's gathered-bit count is monotone: the
    /// word-wise OR merge can only add information.
    #[test]
    fn informed_count_is_monotone((cfg, genome, init) in arb_scenario()) {
        let mut fast = one_run(&cfg, genome, &init);
        let k = fast.agent_count(0);
        let mut counts: Vec<usize> = (0..k).map(|i| fast.agent_info(0, i).count()).collect();
        let mut informed = fast.informed_count(0);
        for _ in 0..60 {
            fast.step();
            for (i, prev) in counts.iter_mut().enumerate() {
                let c = fast.agent_info(0, i).count();
                prop_assert!(c >= *prev, "agent {} lost bits ({} -> {})", i, *prev, c);
                *prev = c;
            }
            prop_assert!(fast.informed_count(0) >= informed);
            prop_assert!(fast.informed_count(0) <= k);
            informed = fast.informed_count(0);
        }
    }

    /// Completion means completion: when the kernel reports all informed,
    /// every agent's reconstructed infoset contains every agent's bit
    /// (the tail mask hides no missing high bits).
    #[test]
    fn completion_implies_every_bit((cfg, genome, init) in arb_scenario()) {
        let mut fast = one_run(&cfg, genome, &init);
        let out = fast.run(150)[0];
        let k = fast.agent_count(0);
        if out.t_comm.is_some() {
            prop_assert_eq!(fast.informed_count(0), k);
            for i in 0..k {
                let info = fast.agent_info(0, i);
                prop_assert!(info.is_complete(), "agent {} incomplete: {:?}", i, info);
                for j in 0..k {
                    prop_assert!(info.contains(j), "agent {} misses bit {}", i, j);
                }
            }
        } else {
            prop_assert!(fast.informed_count(0) < k);
        }
    }

    /// Stepping is deterministic, and a shared, pooled [`BatchRunner`]
    /// environment produces the same evolution as a freshly compiled
    /// kernel.
    #[test]
    fn shared_environment_is_equivalent((cfg, genome, init) in arb_scenario()) {
        let runner = BatchRunner::from_genome(&cfg, genome.clone(), 100).unwrap();
        let mut fresh = one_run(&cfg, genome, &init);
        prop_assert_eq!(runner.outcome_for(&init).unwrap(), fresh.run(100)[0]);
    }
}
