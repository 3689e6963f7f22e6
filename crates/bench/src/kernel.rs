//! The batch-kernel benchmark: the dense full-scan `MultiWorld` path
//! (the pre-frontier engine, kept as the in-process baseline), the
//! frontier `MultiWorld` path `run_all` ships, and the same frontier
//! kernel behind the parallel dispatch seam, on the whole-population
//! fitness workload — sealed as `BENCH_kernel.json` (schema
//! `a2a-obs/kernel-bench/v4`) with a built-in differential check that
//! every path and the untimed reference `World` produce bit-identical
//! [`RunOutcome`]s.
//!
//! Timing is *interleaved and paired*: each repetition times one
//! whole-population pass through each path in turn, and the snapshot
//! keeps the minimum per path. Alternating the paths inside one
//! process cancels slow machine-level drift (thermal throttling, noisy
//! neighbours) that would otherwise dominate back-to-back block
//! measurements, and the minimum discards interruption spikes — the
//! speedup ratios are stable where separately-measured means are not.
//! Because the dense scan runs in the same process on the same
//! workload, `frontier_speedup = dense / multi` is an honest
//! same-machine ratio wherever the snapshot is taken. The
//! reference-`World` oracle pass and the metrics-instrumented
//! active-fraction pass run once each, outside the timed repetitions,
//! so neither the identity check nor the histogram capture perturbs
//! the measurement.

use a2a_fsm::{best_t_agent, offspring, Genome, MutationRates};
use a2a_ga::{Evaluator, WorkerPool};
use a2a_grid::GridKind;
use a2a_obs::json::Json;
use a2a_obs::schema::KERNEL_BENCH_SCHEMA;
use a2a_obs::HistogramSnapshot;
use a2a_sim::{
    paper_config_set, simulate, BatchRunner, Dispatch, InitialConfig, RunOutcome, WorldConfig,
    DISPATCH_BLOCK,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Genomes in the measured population: the published T-agent plus
/// light mutants — the shape of one generation's evaluation.
pub const KERNEL_POPULATION: usize = 8;

/// Configurations in the standard kernel workload (matches the fitness
/// pipeline's training-set size).
pub const KERNEL_CONFIGS: usize = 100;

/// Agents per configuration.
pub const KERNEL_K: usize = 16;

/// Paired repetitions per snapshot; each path's time is the minimum.
pub const KERNEL_REPS: usize = 5;

/// Step horizon of the workload. Mutants are unscreened, so a few runs
/// are unsuccessful; a tight horizon keeps the snapshot fast while the
/// differential check still covers the horizon-retirement path.
const T_MAX: u32 = 200;

/// One kernel-bench workload: environment, training set and genome
/// population.
#[derive(Debug, Clone)]
pub struct KernelWorkload {
    /// The evaluation environment (16×16 T-grid torus).
    pub config: WorldConfig,
    /// The training configuration set.
    pub configs: Vec<InitialConfig>,
    /// The measured population: elite plus screened light mutants (a
    /// converged pool, like the fitness pipeline's standard workload).
    pub population: Vec<Genome>,
}

/// Builds the standard kernel workload deterministically from `seed`.
/// `configs` scales the training set for quick runs; pass
/// [`KERNEL_CONFIGS`] for the recorded snapshot.
///
/// # Panics
///
/// Panics if the configuration set cannot be generated (cannot happen
/// for the fixed 16×16/k=16 geometry).
#[must_use]
pub fn kernel_workload(configs: usize, seed: u64) -> KernelWorkload {
    let kind = GridKind::Triangulate;
    let config = WorldConfig::paper(kind, 16);
    let configs = paper_config_set(config.lattice, kind, KERNEL_K, configs.max(4), seed)
        .expect("16 agents fit 16x16");
    let elite = best_t_agent();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6E55);

    // Screened near-elite mutants: a converged pool, the population
    // shape the fitness pipeline evaluates every generation (weak
    // mutants there are pruned away early by selection, so solving
    // genomes dominate the simulated work). After many failed attempts
    // accept weaker mutants rather than loop forever.
    let screen = Evaluator::new(config.clone(), configs.clone());
    let mut population = vec![elite.clone()];
    let mut attempts = 0;
    while population.len() < KERNEL_POPULATION {
        let m = offspring(&elite, MutationRates::uniform(0.06), &mut rng);
        attempts += 1;
        if attempts > 200 || screen.evaluate(&m).is_completely_successful() {
            population.push(m);
        }
    }
    KernelWorkload { config, configs, population }
}

/// One whole-population pass through the frontier multi-run path
/// `run_all` ships.
fn multi_pass(runners: &[BatchRunner], configs: &[InitialConfig]) -> Vec<RunOutcome> {
    let mut outcomes = Vec::with_capacity(runners.len() * configs.len());
    for runner in runners {
        outcomes.extend(runner.run_all(configs).expect("workload configs are valid"));
    }
    outcomes
}

/// One whole-population pass through the dense full-scan multi path —
/// the pre-frontier kernel, replayed verbatim so `frontier_speedup` is
/// measured in-process on the same machine and workload.
fn dense_pass(runners: &[BatchRunner], configs: &[InitialConfig]) -> Vec<RunOutcome> {
    let mut outcomes = Vec::with_capacity(runners.len() * configs.len());
    for runner in runners {
        outcomes
            .extend(runner.run_all_multi_dense(configs).expect("workload configs are valid"));
    }
    outcomes
}

/// One whole-population pass through the reference `World` oracle —
/// run once outside the timed repetitions to extend the identity check
/// to the oracle.
fn oracle_pass(w: &KernelWorkload) -> Vec<RunOutcome> {
    let mut outcomes = Vec::with_capacity(w.population.len() * w.configs.len());
    for genome in &w.population {
        for init in &w.configs {
            outcomes.push(
                simulate(&w.config, genome.clone(), init, T_MAX)
                    .expect("workload configs are valid"),
            );
        }
    }
    outcomes
}

/// The sample-wise difference `after − before` of two snapshots of the
/// same growing histogram — the samples recorded between the two
/// captures. `min`/`max` are taken from `after` (the underlying
/// histogram only widens its range), which is exact whenever `before`
/// is empty — the bench's case, since the instrumented pass is the
/// only metrics-enabled work in the process.
fn histogram_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let mut delta = HistogramSnapshot {
        count: after.count.saturating_sub(before.count),
        sum: after.sum.saturating_sub(before.sum),
        min: after.min,
        max: after.max,
        ..HistogramSnapshot::default()
    };
    for (d, (a, b)) in delta.buckets.iter_mut().zip(after.buckets.iter().zip(&before.buckets)) {
        *d = a.saturating_sub(*b);
    }
    delta
}

/// One untimed metrics-instrumented multi pass: returns the
/// `kernel.frontier.active` counter delta (active agent-steps) and the
/// `kernel.frontier.active_pct` histogram delta (per-step active
/// fraction, in percent) the pass recorded.
fn instrumented_pass(
    runners: &[BatchRunner],
    configs: &[InitialConfig],
) -> (u64, HistogramSnapshot) {
    let reg = a2a_obs::global();
    let active = reg.counter("kernel.frontier.active");
    let active_pct = reg.histogram("kernel.frontier.active_pct");
    let was_on = a2a_obs::metrics_enabled();
    let count_before = active.get();
    let hist_before = active_pct.snapshot();
    a2a_obs::set_metrics(true);
    let _ = multi_pass(runners, configs);
    a2a_obs::set_metrics(was_on);
    (active.get() - count_before, histogram_delta(&hist_before, &active_pct.snapshot()))
}

/// Measures the workload through the dense and frontier batch-kernel
/// paths plus the parallel dispatch seam and assembles the
/// `BENCH_kernel.json` document (see the module docs for the timing protocol). The
/// reference `World` oracle and the instrumented active-fraction pass
/// run once each, untimed; the oracle's outcomes join the
/// `identical_outcomes` check.
///
/// # Panics
///
/// Panics if the workload cannot be simulated (invalid geometry — not
/// reachable from the fixed workload).
#[must_use]
pub fn kernel_snapshot(configs: usize, seed: u64) -> Json {
    let w = kernel_workload(configs, seed);
    let runners: Vec<BatchRunner> = w
        .population
        .iter()
        .map(|g| {
            BatchRunner::from_genome(&w.config, g.clone(), T_MAX)
                .expect("workload genomes match the environment")
        })
        .collect();
    // The parallel series: the same frontier kernel, sharded across the
    // persistent worker pool through the dispatch seam. Outcomes are
    // committed in submission order, so this path joins the identity
    // check like any other engine.
    let pool: Arc<dyn Dispatch> = Arc::new(WorkerPool::new(
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    ));
    let par_runners: Vec<BatchRunner> =
        runners.iter().map(|r| r.clone().with_dispatch(Arc::clone(&pool))).collect();
    let workers = par_runners[0].dispatch_workers();

    let mut dense_us = f64::INFINITY;
    let mut multi_us = f64::INFINITY;
    let mut parallel_us = f64::INFINITY;
    let mut dense_outcomes = Vec::new();
    let mut multi_outcomes = Vec::new();
    let mut parallel_outcomes = Vec::new();
    for _ in 0..KERNEL_REPS {
        let started = Instant::now();
        dense_outcomes = dense_pass(&runners, &w.configs);
        dense_us = dense_us.min(started.elapsed().as_micros().max(1) as f64);

        let started = Instant::now();
        multi_outcomes = multi_pass(&runners, &w.configs);
        multi_us = multi_us.min(started.elapsed().as_micros().max(1) as f64);

        let started = Instant::now();
        parallel_outcomes = multi_pass(&par_runners, &w.configs);
        parallel_us = parallel_us.min(started.elapsed().as_micros().max(1) as f64);
    }
    let oracle_outcomes = oracle_pass(&w);
    let identical = oracle_outcomes == dense_outcomes
        && oracle_outcomes == multi_outcomes
        && oracle_outcomes == parallel_outcomes;
    let (active_steps, active_pct) = instrumented_pass(&runners, &w.configs);

    // All paths simulate the identical step count (retirement is
    // per-run early exit in every mode), so one total serves every
    // rate.
    let total_steps: u64 = multi_outcomes.iter().map(|o| u64::from(o.steps)).sum();
    let evals = (w.population.len() * w.configs.len()) as f64;
    let chunk = DISPATCH_BLOCK;
    let rates = |us: f64| {
        Json::object()
            .with("elapsed_us", us)
            .with("steps_per_sec", total_steps as f64 / (us / 1e6))
            .with("evals_per_sec", evals / (us / 1e6))
    };

    a2a_obs::schema::seal(
        Json::object()
            .with("schema", KERNEL_BENCH_SCHEMA)
            .with(
                "workload",
                Json::object()
                    .with("population", w.population.len())
                    .with("configs", w.configs.len())
                    .with("k", KERNEL_K)
                    .with("grid", "T"),
            )
            .with("dense", rates(dense_us).with("chunk", chunk as u64))
            .with("multi", rates(multi_us).with("chunk", chunk as u64))
            .with(
                "parallel",
                rates(parallel_us).with("chunk", chunk as u64).with("workers", workers as u64),
            )
            .with("frontier_speedup", dense_us / multi_us)
            .with("parallel_speedup", dense_us / parallel_us)
            .with(
                "frontier",
                Json::object()
                    .with("active_agent_steps", active_steps)
                    .with("active_pct", active_pct.to_json()),
            )
            .with("identical_outcomes", identical),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_obs::schema::validate_kernel_snapshot;

    #[test]
    fn reduced_snapshot_validates_and_is_identical() {
        // A reduced-scale run of the full snapshot path: must satisfy
        // its own schema, and every path must agree exactly with the
        // reference oracle.
        let snapshot = kernel_snapshot(24, 99);
        validate_kernel_snapshot(&snapshot).unwrap();
        assert_eq!(snapshot.get("identical_outcomes"), Some(&Json::Bool(true)));
    }

    #[test]
    #[ignore = "manual perf probe: prints the full-scale snapshot"]
    fn full_snapshot_report() {
        let snapshot = kernel_snapshot(KERNEL_CONFIGS, 2013);
        println!("{snapshot}");
        validate_kernel_snapshot(&snapshot).unwrap();
    }

    #[test]
    fn workload_is_deterministic() {
        let a = kernel_workload(6, 5);
        let b = kernel_workload(6, 5);
        assert_eq!(a.population, b.population);
        assert_eq!(a.configs, b.configs);
        assert_eq!(a.population.len(), KERNEL_POPULATION);
    }
}
