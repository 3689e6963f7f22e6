//! World vs. MultiWorld: the reference engine against the lockstep batch
//! kernel on the two workloads that dominate wall-clock time — the GA
//! fitness evaluation (16×16, 16 agents, many configurations) and the
//! full-density 33×33 step (E9's field, maximal exchange pressure).

use a2a_fsm::best_agent;
use a2a_grid::{Dir, GridKind, Lattice};
use a2a_sim::{
    run_to_completion, BatchRunner, InitialConfig, MultiWorld, World, WorldConfig,
};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

const T_MAX: u32 = 200;

fn fitness_configs(kind: GridKind, k: usize, n: usize) -> (WorldConfig, Vec<InitialConfig>) {
    let cfg = WorldConfig::paper(kind, 16);
    let mut rng = SmallRng::seed_from_u64(2013);
    let configs = (0..n)
        .map(|_| {
            InitialConfig::random(cfg.lattice, kind, k, &[], &mut rng)
                .expect("agents fit the field")
        })
        .collect();
    (cfg, configs)
}

/// The GA inner loop: one genome, 32 random 16×16 configurations with 16
/// agents, run to completion — reference engine vs. batch kernel, one
/// configuration at a time and as one chunked batch.
fn bench_fitness_workload(c: &mut Criterion) {
    for kind in [GridKind::Square, GridKind::Triangulate] {
        let (cfg, configs) = fitness_configs(kind, 16, 32);
        let genome = best_agent(kind);
        let mut group =
            c.benchmark_group(format!("fitness_16x16_k16_{}", kind.label()));

        group.bench_function("world", |b| {
            b.iter(|| {
                for init in &configs {
                    let mut world = World::new(&cfg, genome.clone(), black_box(init))
                        .expect("valid world");
                    black_box(run_to_completion(&mut world, T_MAX));
                }
            });
        });

        group.bench_function("one_run", |b| {
            let runner = BatchRunner::from_genome(&cfg, genome.clone(), T_MAX)
                .expect("valid environment");
            b.iter(|| {
                for init in &configs {
                    black_box(runner.outcome_for(black_box(init)).expect("valid placement"));
                }
            });
        });

        group.bench_function("multiworld", |b| {
            let runner = BatchRunner::from_genome(&cfg, genome.clone(), T_MAX)
                .expect("valid environment");
            b.iter(|| {
                black_box(runner.run_all(black_box(&configs)).expect("valid placement"));
            });
        });

        group.finish();
    }
}

fn packed_init(m: u16) -> InitialConfig {
    let lattice = Lattice::torus(m, m);
    InitialConfig::new(lattice.positions().map(|p| (p, Dir::new(0))).collect())
}

/// One synchronous step of the fully packed 33×33 field (E9): 1089 agents,
/// pure exchange pressure — the per-step cost ceiling of both engines.
fn bench_packed_33_step(c: &mut Criterion) {
    for kind in [GridKind::Square, GridKind::Triangulate] {
        let cfg = WorldConfig::paper(kind, 33);
        let genome = best_agent(kind);
        let mut group = c.benchmark_group(format!("packed_33x33_step_{}", kind.label()));

        group.bench_function("world", |b| {
            b.iter_batched_ref(
                || {
                    World::new(&cfg, genome.clone(), &packed_init(33)).expect("valid world")
                },
                |world| world.step(),
                BatchSize::SmallInput,
            );
        });

        group.bench_function("multiworld", |b| {
            b.iter_batched_ref(
                || {
                    let mut world =
                        MultiWorld::new(&cfg, genome.clone()).expect("valid environment");
                    world.load(&[packed_init(33)]).expect("valid placement");
                    world
                },
                |world| world.step(),
                BatchSize::SmallInput,
            );
        });

        group.finish();
    }
}

criterion_group!(benches, bench_fitness_workload, bench_packed_33_step);
criterion_main!(benches);
