//! The adaptive-fitness-pipeline benchmark: a standard GA-shaped
//! workload, the pre-adaptive baseline path for comparison, and the
//! `BENCH_fitness.json` snapshot (schema `a2a-obs/fitness-bench/v1`)
//! that records before/after throughput — with a built-in differential
//! check that both paths produce bit-identical [`FitnessReport`]s.
//!
//! The workload mirrors one evolution step at paper scale on the
//! triangulate grid: a 20-individual pool (published T-agent plus
//! near-elite mutants), 100 random configurations with `k = 16` agents
//! on the 16×16 torus, and 10 candidate children. The
//! [`SNAPSHOT_EPOCHS`] repeated whole-population evaluations model the
//! island scheme, where every epoch restart re-ranks an
//! already-evaluated pool — the case the fitness cache exists for.

use a2a_fsm::{best_t_agent, offspring, FsmSpec, Genome, MutationRates};
use a2a_ga::{parallel_map, Evaluator, FitnessReport, GenomeEval, PAPER_T_MAX, PAPER_WEIGHT};
use a2a_grid::GridKind;
use a2a_obs::json::Json;
use a2a_obs::schema::FITNESS_BENCH_SCHEMA;
use a2a_sim::{paper_config_set, BatchRunner, InitialConfig, RunOutcome, WorldConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::time::Instant;

/// Pool size of the standard workload (the paper's `N = 20`).
pub const STANDARD_POPULATION: usize = 20;

/// Candidate children per selection step (the paper's `N/2`).
pub const STANDARD_CHILDREN: usize = 10;

/// Configurations in the standard workload's training set.
pub const STANDARD_CONFIGS: usize = 100;

/// Agents per configuration in the standard workload.
pub const STANDARD_K: usize = 16;

/// Whole-population evaluation epochs measured by [`fitness_snapshot`]
/// through each path. Three epochs = one cold evaluation plus two
/// island-style epoch re-ranks; the baseline re-simulates every one,
/// the adaptive path resolves epochs 2–3 from cache.
pub const SNAPSHOT_EPOCHS: usize = 3;

/// One GA-shaped fitness workload: environment, training set, pool and
/// candidate children.
#[derive(Debug, Clone)]
pub struct FitnessWorkload {
    /// The evaluation environment (16×16 T-grid torus).
    pub config: WorldConfig,
    /// The training configuration set.
    pub configs: Vec<InitialConfig>,
    /// The pool: published T-agent plus digit-distinct near-elite
    /// mutants, all solving the training set (a converged pool).
    pub population: Vec<Genome>,
    /// Candidate children: a couple of near-elite mutants plus random
    /// genomes (the mix a real generation produces).
    pub children: Vec<Genome>,
}

/// Builds the standard workload (see module docs), deterministically
/// from `seed`. `configs` scales the training set for quick runs; pass
/// [`STANDARD_CONFIGS`] for the recorded snapshot.
///
/// # Panics
///
/// Panics if the configuration set cannot be generated (cannot happen
/// for the fixed 16×16/k=16 geometry).
#[must_use]
pub fn standard_workload(configs: usize, seed: u64) -> FitnessWorkload {
    let kind = GridKind::Triangulate;
    let config = WorldConfig::paper(kind, 16);
    let configs = paper_config_set(config.lattice, kind, STANDARD_K, configs.max(10), seed)
        .expect("16 agents fit 16x16");
    let elite = best_t_agent();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xF17_BE5);

    // Near-elite pool: digit-distinct light mutants of the published
    // agent that still solve the whole training set ("converged pool").
    // The screening evaluator is separate so its cache/pool state does
    // not leak into anything the caller measures.
    let screen = Evaluator::new(config.clone(), configs.clone());
    let mut population = vec![elite.clone()];
    let mut seen: HashSet<String> = population.iter().map(Genome::to_digits).collect();
    let mut attempts = 0;
    while population.len() < STANDARD_POPULATION {
        let m = offspring(&elite, MutationRates::uniform(0.06), &mut rng);
        attempts += 1;
        let fresh = seen.insert(m.to_digits());
        // After many failed attempts accept weaker mutants rather than
        // loop forever; the workload stays deterministic either way.
        if fresh && (attempts > 400 || screen.evaluate(&m).is_completely_successful()) {
            population.push(m);
        }
    }

    let mut children = Vec::with_capacity(STANDARD_CHILDREN);
    let spec = FsmSpec::paper(kind);
    for i in 0..STANDARD_CHILDREN {
        let child = if i < 2 {
            offspring(&elite, MutationRates::paper(), &mut rng)
        } else {
            Genome::random(spec, &mut rng)
        };
        children.push(child);
    }
    FitnessWorkload { config, configs, population, children }
}

/// The exact report fold of the fitness layer, reproduced independently
/// so the baseline is a genuine differential check of the adaptive path.
fn report_from(outcomes: &[RunOutcome]) -> FitnessReport {
    let total = outcomes.len();
    let successes = outcomes.iter().filter(|o| o.is_successful()).count();
    let fitness =
        outcomes.iter().map(|o| o.fitness(PAPER_WEIGHT)).sum::<f64>() / total.max(1) as f64;
    let t_sum: u64 = outcomes.iter().filter_map(|o| o.t_comm.map(u64::from)).sum();
    FitnessReport {
        fitness,
        successes,
        total,
        mean_t_comm: (successes > 0).then(|| t_sum as f64 / successes as f64),
    }
}

/// The pre-adaptive evaluation path: scoped threads per call, a fresh
/// one-run world (heap-allocated) per run, no memoization — the first
/// `evaluate_all` reproduced for before/after comparison.
///
/// # Panics
///
/// Panics if a genome does not match the workload environment.
#[must_use]
pub fn baseline_population_eval(w: &FitnessWorkload, threads: usize) -> Vec<FitnessReport> {
    parallel_map(&w.population, threads, |g| {
        let runner = BatchRunner::from_genome(&w.config, g.clone(), PAPER_T_MAX)
            .expect("workload genomes match the environment");
        let outcomes: Vec<RunOutcome> = w
            .configs
            .iter()
            .map(|init| runner.fresh_outcome_for(init).expect("workload configs are valid"))
            .collect();
        report_from(&outcomes)
    })
}

/// Measures the standard workload through both paths and assembles the
/// `BENCH_fitness.json` document: [`SNAPSHOT_EPOCHS`] whole-population
/// epochs baseline vs adaptive, plus one pruned selection step, with
/// the differential `identical_reports` verdict and the speedup.
///
/// # Panics
///
/// Panics if the workload cannot be evaluated (invalid geometry — not
/// reachable from the fixed workload).
#[must_use]
pub fn fitness_snapshot(configs: usize, threads: usize, seed: u64) -> Json {
    let w = standard_workload(configs, seed);
    let n_cfg = w.configs.len();

    // Before: SNAPSHOT_EPOCHS epochs through the PR-1 path, every one
    // fully re-simulated.
    let started = Instant::now();
    let base_epochs: Vec<Vec<FitnessReport>> =
        (0..SNAPSHOT_EPOCHS).map(|_| baseline_population_eval(&w, threads)).collect();
    let baseline_us = started.elapsed().as_micros().max(1) as f64;

    // After: the same epochs through one adaptive evaluator (persistent
    // pool + world reuse + cache); epochs after the first hit the cache.
    let evaluator = Evaluator::new(w.config.clone(), w.configs.clone()).with_threads(threads);
    let started = Instant::now();
    let cold = evaluator.evaluate_all(&w.population);
    let cold_us = started.elapsed().as_micros().max(1) as f64;
    let mut adaptive_epochs = vec![cold.clone()];
    for _ in 1..SNAPSHOT_EPOCHS {
        adaptive_epochs.push(evaluator.evaluate_all(&w.population));
    }
    let adaptive_us = started.elapsed().as_micros().max(1) as f64;
    let identical = adaptive_epochs == base_epochs;

    // Selection step: the pool's exact fitnesses defend their slots
    // against the children; garbage children should be pruned early.
    let incumbents: Vec<f64> = cold.iter().map(|r| r.fitness).collect();
    let pool_digits: HashSet<String> = w.population.iter().map(Genome::to_digits).collect();
    let fresh: Vec<Genome> =
        w.children.iter().filter(|c| !pool_digits.contains(&c.to_digits())).cloned().collect();
    let started = Instant::now();
    let verdicts = evaluator.evaluate_selection(&fresh, STANDARD_POPULATION, &incumbents);
    let selection_us = started.elapsed().as_micros().max(1) as f64;
    let pruned_genomes = verdicts.iter().filter(|v| v.is_pruned()).count();
    let pruned_configs: usize = verdicts
        .iter()
        .filter_map(|v| match v {
            GenomeEval::Pruned(b) => Some(n_cfg - b.configs_run),
            GenomeEval::Exact(_) => None,
        })
        .sum();

    // Sealed so consumers (obs_validate, CI) can detect torn or edited
    // artifacts before trusting any number in them.
    a2a_obs::schema::seal(
            Json::object()
                .with("schema", FITNESS_BENCH_SCHEMA)
            .with(
                "workload",
                Json::object()
                    .with("population", w.population.len())
                    .with("children", fresh.len())
                    .with("configs", n_cfg)
                    .with("k", STANDARD_K)
                    .with("grid", "T"),
            )
            .with(
                "baseline",
                Json::object()
                    .with("elapsed_us", baseline_us)
                    .with("epochs", SNAPSHOT_EPOCHS as u64),
            )
            .with(
                "adaptive",
                Json::object()
                    .with("elapsed_us", adaptive_us)
                    .with("cold_us", cold_us)
                    .with("warm_us", adaptive_us - cold_us)
                    .with("cache_hits", evaluator.cache().hits())
                    .with("cache_misses", evaluator.cache().misses()),
            )
            .with(
                "selection",
                Json::object()
                    .with("elapsed_us", selection_us)
                    .with("pruned_genomes", pruned_genomes)
                    .with("pruned_configs", pruned_configs)
                    .with("exact", fresh.len() - pruned_genomes),
            )
            .with("speedup", baseline_us / adaptive_us)
            .with("identical_reports", identical),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_obs::schema::validate_fitness_snapshot;

    #[test]
    fn reduced_snapshot_validates_and_is_identical() {
        // A reduced-scale run of the full snapshot path: must satisfy
        // its own schema, reproduce baseline reports exactly, and not
        // be slower than the baseline.
        let snapshot = fitness_snapshot(12, 2, 99);
        validate_fitness_snapshot(&snapshot).unwrap();
        assert_eq!(snapshot.get("identical_reports"), Some(&Json::Bool(true)));
    }

    #[test]
    fn workload_population_is_digit_distinct() {
        let w = standard_workload(10, 3);
        let digits: HashSet<String> = w.population.iter().map(Genome::to_digits).collect();
        assert_eq!(digits.len(), w.population.len());
        assert_eq!(w.population.len(), STANDARD_POPULATION);
        assert_eq!(w.children.len(), STANDARD_CHILDREN);
    }
}
