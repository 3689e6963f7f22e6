//! Differential harness: both engines in lockstep — the reference
//! [`World`] oracle and the one-run kernel [`MultiWorld`] — on
//! randomized scenarios.
//!
//! Every scenario steps the engines together and asserts identical
//! positions, directions, control states, colour fields, infosets,
//! informed counts and, at the end, the same `t_comm`. The scenario pool
//! (>200 randomized cases across the two grid families) covers bordered
//! fields, obstacles, highest-ID arbitration, colour patterns,
//! time-shuffled behaviours and full-density packings; the wide cases
//! run 65 to 256 agents (multi-word infosets) on bordered and
//! obstacle-strewn fields, and dedicated batch cases pin dispatch
//! block boundaries, outcome ordering and parallel dispatch against
//! per-configuration oracle outcomes.

use a2a_fsm::{best_agent, FsmSpec, Genome, TurnSet};
use a2a_grid::{GridKind, Lattice, Pos};
use a2a_sim::{
    simulate, BatchRunner, Behaviour, ColorInit, ConflictPolicy, InitStatePolicy, InitialConfig,
    MultiWorld, RunOutcome, World, WorldConfig, DISPATCH_BLOCK,
};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Asserts that both engines expose byte-identical observable state.
fn assert_same_state(world: &World, multi: &MultiWorld, ctx: &str) {
    assert_eq!(world.time(), multi.time(), "{ctx}: time diverged");
    let positions = multi.positions();
    let dirs = multi.dirs();
    let states = multi.states();
    assert_eq!(world.agents().len(), multi.agent_count(), "{ctx}: agent count");
    for (i, agent) in world.agents().iter().enumerate() {
        assert_eq!(agent.pos(), positions[i], "{ctx}: agent {i} position");
        assert_eq!(agent.dir(), dirs[i], "{ctx}: agent {i} direction");
        assert_eq!(agent.state(), states[i], "{ctx}: agent {i} state");
        assert_eq!(*agent.info(), multi.agent_info(i), "{ctx}: agent {i} infoset");
    }
    assert_eq!(world.colors(), &multi.colors()[..], "{ctx}: colour field");
    assert_eq!(world.informed_count(), multi.informed_count(), "{ctx}: informed count");
    let done = multi.informed_count() == multi.agent_count();
    assert_eq!(world.all_informed(), done, "{ctx}: completion flag");
}

/// Runs both engines in lockstep for up to `t_max` counted steps,
/// comparing the full state after every step and the resulting `t_comm`.
fn lockstep(cfg: &WorldConfig, behaviour: &Behaviour, init: &InitialConfig, t_max: u32, ctx: &str) {
    let mut world = World::with_behaviour(cfg, behaviour.clone(), init)
        .unwrap_or_else(|e| panic!("{ctx}: oracle rejected scenario: {e}"));
    let mut multi = MultiWorld::with_behaviour(cfg, behaviour.clone())
        .unwrap_or_else(|e| panic!("{ctx}: multi kernel rejected scenario: {e}"));
    multi
        .load(init)
        .unwrap_or_else(|e| panic!("{ctx}: multi kernel rejected placement: {e}"));
    assert_same_state(&world, &multi, &format!("{ctx} @t=0"));
    let mut t_slow = world.all_informed().then_some(0u32);
    let mut t_multi = (multi.informed_count() == multi.agent_count()).then_some(0u32);
    for t in 1..=t_max {
        world.step();
        multi.step();
        assert_same_state(&world, &multi, &format!("{ctx} @t={t}"));
        if t_slow.is_none() && world.all_informed() {
            t_slow = Some(t);
        }
        if t_multi.is_none() && multi.informed_count() == multi.agent_count() {
            t_multi = Some(t);
        }
        if t_slow.is_some() && t_multi.is_some() {
            break;
        }
    }
    assert_eq!(t_slow, t_multi, "{ctx}: t_comm diverged");
}

/// The reference outcome of every configuration, one oracle run each.
fn oracle_outcomes(cfg: &WorldConfig, inits: &[InitialConfig], t_max: u32) -> Vec<RunOutcome> {
    inits
        .iter()
        .map(|i| simulate(cfg, best_agent(cfg.kind), i, t_max).unwrap())
        .collect()
}

/// One fully randomized scenario: lattice shape and edge rule, policies,
/// colour pattern, obstacles, FSM spec, behaviour and placement all drawn
/// from `seed`.
fn random_scenario(kind: GridKind, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let width = rng.random_range(3u16..10);
    let height = rng.random_range(3u16..10);
    let lattice = if rng.random_bool(0.25) {
        Lattice::bordered(width, height)
    } else {
        Lattice::torus(width, height)
    };
    let mut cfg = WorldConfig::with_lattice(kind, lattice);
    if rng.random_bool(0.5) {
        cfg.conflict = ConflictPolicy::HighestId;
    }

    let turn_set = match kind {
        GridKind::Square => TurnSet::Square,
        GridKind::Triangulate => {
            if rng.random_bool(0.3) {
                TurnSet::TriangulateFull
            } else {
                TurnSet::TriangulateRestricted
            }
        }
    };
    let n_states = rng.random_range(2u8..=6);
    let n_colors = rng.random_range(2u8..=4);
    let spec = FsmSpec::new(n_states, n_colors, turn_set);

    cfg.init_states = match rng.random_range(0u8..3) {
        0 => InitStatePolicy::Uniform(rng.random_range(0..n_states)),
        1 => InitStatePolicy::IdParity,
        _ => InitStatePolicy::IdModulo(rng.random_range(2..=n_states)),
    };
    if rng.random_bool(0.4) {
        let pattern = (0..lattice.len()).map(|_| rng.random_range(0..n_colors)).collect();
        cfg.colors = ColorInit::Pattern(pattern);
    }

    let mut obstacles: Vec<Pos> = Vec::new();
    if rng.random_bool(0.3) {
        while obstacles.len() < 3 {
            let pos = lattice.pos_at(rng.random_range(0..lattice.len()));
            if !obstacles.contains(&pos) {
                obstacles.push(pos);
            }
        }
    }
    cfg.obstacles.clone_from(&obstacles);

    let free = lattice.len() - obstacles.len();
    let k = rng.random_range(1..=free.min(12));
    let init = InitialConfig::random(lattice, kind, k, &obstacles, &mut rng)
        .expect("k is clamped to the free-cell count");

    let behaviour = if rng.random_bool(0.25) {
        Behaviour::shuffled_pair(Genome::random(spec, &mut rng), Genome::random(spec, &mut rng))
    } else {
        Behaviour::Single(Genome::random(spec, &mut rng))
    };
    lockstep(&cfg, &behaviour, &init, 60, &format!("{kind} seed {seed}"));
}

#[test]
fn random_scenarios_square() {
    for seed in 0..70 {
        random_scenario(GridKind::Square, seed);
    }
}

#[test]
fn random_scenarios_triangulate() {
    for seed in 0..70 {
        random_scenario(GridKind::Triangulate, 1_000 + seed);
    }
}

#[test]
fn full_density_scenarios() {
    // Every cell occupied: maximal conflict pressure on the arbitration
    // path, and the paper's D − 1 lower-bound regime.
    for kind in [GridKind::Square, GridKind::Triangulate] {
        for seed in 0..20 {
            let mut rng = SmallRng::seed_from_u64(40_000 + seed);
            let m = rng.random_range(3u16..8);
            let cfg = WorldConfig::paper(kind, m);
            let k = cfg.lattice.len();
            let init = InitialConfig::random(cfg.lattice, kind, k, &[], &mut rng).unwrap();
            let behaviour = Behaviour::Single(best_agent(kind));
            lockstep(&cfg, &behaviour, &init, 80, &format!("{kind} packed seed {seed}"));
        }
    }
}

#[test]
fn published_agent_scenarios() {
    // The paper's own evaluation setting: 16×16 torus, published best
    // agents, random placements at several densities.
    for kind in [GridKind::Square, GridKind::Triangulate] {
        for seed in 0..20 {
            let mut rng = SmallRng::seed_from_u64(90_000 + seed);
            let cfg = WorldConfig::paper(kind, 16);
            let k = rng.random_range(2usize..=32);
            let init = InitialConfig::random(cfg.lattice, kind, k, &[], &mut rng).unwrap();
            let behaviour = Behaviour::Single(best_agent(kind));
            lockstep(&cfg, &behaviour, &init, 250, &format!("{kind} paper seed {seed}"));
        }
    }
}

#[test]
fn degenerate_fields_match() {
    // Tiny tori exercise the self-neighbour check (a 1×1 torus wraps an
    // agent onto itself) and single-row wrap-arounds.
    let mut rng = SmallRng::seed_from_u64(7);
    for kind in [GridKind::Square, GridKind::Triangulate] {
        for (w, h) in [(1u16, 1u16), (1, 4), (4, 1), (2, 2)] {
            let lattice = Lattice::torus(w, h);
            let cfg = WorldConfig::with_lattice(kind, lattice);
            let spec = FsmSpec::paper(kind);
            for k in 1..=lattice.len().min(3) {
                let init = InitialConfig::random(lattice, kind, k, &[], &mut rng).unwrap();
                let behaviour = Behaviour::Single(Genome::random(spec, &mut rng));
                lockstep(&cfg, &behaviour, &init, 40, &format!("{kind} {w}x{h} k={k}"));
            }
        }
    }
}

#[test]
fn wide_scenarios_match_on_bordered_and_obstacle_fields() {
    // More than 64 agents: every infoset spans several words, so the
    // strided exchange and multi-word completion test run instead of
    // the one-word path. A 24×24 field leaves room for obstacles at
    // k = 256, on both edge rules, under the published agents and
    // random genomes alike.
    let mut seed = 70_000;
    for kind in [GridKind::Square, GridKind::Triangulate] {
        for k in [65usize, 128, 256] {
            for bordered in [false, true] {
                for published in [true, false] {
                    seed += 1;
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let lattice = if bordered {
                        Lattice::bordered(24, 24)
                    } else {
                        Lattice::torus(24, 24)
                    };
                    let mut cfg = WorldConfig::with_lattice(kind, lattice);
                    let mut obstacles: Vec<Pos> = Vec::new();
                    while obstacles.len() < 16 {
                        let pos = lattice.pos_at(rng.random_range(0..lattice.len()));
                        if !obstacles.contains(&pos) {
                            obstacles.push(pos);
                        }
                    }
                    cfg.obstacles.clone_from(&obstacles);
                    let init = InitialConfig::random(lattice, kind, k, &obstacles, &mut rng)
                        .expect("k fits the free cells");
                    let (genome, t_max) = if published {
                        (best_agent(kind), 200)
                    } else {
                        (Genome::random(FsmSpec::paper(kind), &mut rng), 60)
                    };
                    let edge = if bordered { "bordered" } else { "torus" };
                    let agent = if published { "published" } else { "random" };
                    lockstep(
                        &cfg,
                        &Behaviour::Single(genome),
                        &init,
                        t_max,
                        &format!("{kind} k={k} {edge} {agent} seed {seed}"),
                    );
                }
            }
        }
    }
}

#[test]
fn partial_chunk_batches_match_per_config_outcomes() {
    // Run counts straddling the dispatch block: a lone run, a block one
    // short, exactly one block, one over, and a two-block batch with a
    // ragged tail. Every shape must report the oracle's outcomes.
    let cfg = WorldConfig::paper(GridKind::Triangulate, 16);
    let runner = BatchRunner::from_genome(&cfg, best_agent(cfg.kind), 300).unwrap();
    let chunk = DISPATCH_BLOCK;
    let mut rng = SmallRng::seed_from_u64(64_001);
    for runs in [1usize, chunk - 1, chunk, chunk + 1, 2 * chunk + 3] {
        let inits: Vec<InitialConfig> = (0..runs)
            .map(|_| InitialConfig::random(cfg.lattice, cfg.kind, 16, &[], &mut rng).unwrap())
            .collect();
        let oracle = oracle_outcomes(&cfg, &inits, 300);
        assert_eq!(runner.run_all(&inits).unwrap(), oracle, "{runs} runs");
    }
}

#[test]
fn mid_batch_retirement_preserves_outcome_order() {
    // Random placements finish at scattered times. Outcome slots must
    // stay aligned with load order in both exchange modes, and the
    // batch must actually exercise staggered finishes (many distinct
    // communication times) rather than one synchronized finish.
    let cfg = WorldConfig::paper(GridKind::Square, 16);
    let runner = BatchRunner::from_genome(&cfg, best_agent(cfg.kind), 2_000).unwrap();
    let mut rng = SmallRng::seed_from_u64(64_002);
    let inits: Vec<InitialConfig> = (0..96)
        .map(|_| InitialConfig::random(cfg.lattice, cfg.kind, 8, &[], &mut rng).unwrap())
        .collect();
    let oracle = oracle_outcomes(&cfg, &inits, 2_000);
    let mut times: Vec<_> = oracle.iter().map(|o| o.t_comm).collect();
    times.sort_unstable();
    times.dedup();
    assert!(times.len() > 10, "scenario pool no longer staggers retirements");
    assert_eq!(runner.run_all(&inits).unwrap(), oracle, "frontier retirement order");
    assert_eq!(runner.run_all_multi_dense(&inits).unwrap(), oracle, "dense retirement order");
}

#[test]
fn parallel_dispatch_matches_serial_engines_under_mid_batch_retirement() {
    // The deterministic dispatcher shards fixed blocks across a real
    // worker pool; the ordered commit must keep outcome slots
    // bit-identical to the serial path and the oracle even while runs
    // finish at scattered times inside each block. Batch size is
    // derived from the dispatch block so the dispatcher genuinely fans
    // out over several blocks (plus a ragged tail) instead of
    // degenerating to a single submission.
    use a2a_ga::WorkerPool;
    use a2a_sim::Dispatch;
    use std::sync::Arc;

    let cfg = WorldConfig::paper(GridKind::Triangulate, 16);
    let runner = BatchRunner::from_genome(&cfg, best_agent(cfg.kind), 2_000).unwrap();
    let mut rng = SmallRng::seed_from_u64(64_003);
    let runs = DISPATCH_BLOCK * 3 + 5;
    let inits: Vec<InitialConfig> = (0..runs)
        .map(|_| InitialConfig::random(cfg.lattice, cfg.kind, 8, &[], &mut rng).unwrap())
        .collect();
    let oracle = oracle_outcomes(&cfg, &inits, 2_000);
    let mut times: Vec<_> = oracle.iter().map(|o| o.t_comm).collect();
    times.sort_unstable();
    times.dedup();
    assert!(times.len() > 10, "scenario pool no longer staggers retirements");

    let pool: Arc<dyn Dispatch> = Arc::new(WorkerPool::new(3));
    let parallel = runner.clone().with_dispatch(Arc::clone(&pool));
    assert_eq!(parallel.dispatch_workers(), 3, "pool advertises its worker count");
    assert_eq!(parallel.run_all(&inits).unwrap(), oracle, "dispatched frontier path");
    assert_eq!(parallel.run_all_multi_dense(&inits).unwrap(), oracle, "dispatched dense path");
    assert_eq!(runner.run_all(&inits).unwrap(), oracle, "serial vs dispatched");
    // Determinism across repeated dispatched executions of the same batch.
    assert_eq!(
        parallel.run_all(&inits).unwrap(),
        parallel.run_all(&inits).unwrap(),
        "dispatched run is reproducible"
    );
}
