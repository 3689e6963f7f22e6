//! `evolve`: paper-protocol runs of `run_evolution` on the 16×16 T-grid
//! with k = 8 and 1000 random plus the designed configurations —
//! `GaConfig::paper` (pool 20, b = 3, 18 % mutation), one shared
//! 2-thread `WorkerPool` and a cadence-1 `CheckpointStore`, as
//! `evolve_run` and `a2a-serve` wire them. Here the kernel runs in many
//! short, pruned `evaluate_selection` blocks at one information-set
//! word, so selection, pruning, the fitness cache and pool dispatch
//! all matter.

use crate::common::{self, Capture, Tally};
use crate::ledger::{self, Analysis};
use crate::{Layers, Phase, Workload};
use a2a_fsm::{best_t_agent, FsmSpec};
use a2a_ga::{Evaluator, GaConfig, GenerationStats, WorkerPool};
use a2a_grid::GridKind;
use a2a_obs::Span;
use a2a_run::{run_evolution, CheckpointStore, RunOptions};
use a2a_sim::{paper_config_set, InitialConfig, WorldConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Generations per run. On this protocol generations 1–6 still breed
/// from the random initial pool (about 220 ms each on a 2-core x86-64
/// host); 7–10 run past it, where pruning starts to bite.
const GENERATIONS: usize = 10;

/// Seconds of `--seconds` per run (a 10-generation run, initial ranking
/// included, takes about 2.8 s on a 2-core x86-64 host). Runs differ by
/// how fast their trajectory converges (11 % CV), so a phase averages
/// several.
const SECONDS_PER_RUN: f64 = 2.8;

const AGENTS: usize = 8;
const RANDOM_CONFIGS: usize = 1000;
const THREADS: usize = 2;

/// Generations of the `Level::Trace` sub-run.
const SUBRUN_GENERATIONS: usize = 3;

pub struct Evolve {
    seed: u64,
    runs: usize,
    env: WorldConfig,
    /// Training set of each run.
    sets: Vec<Vec<InitialConfig>>,
    pool: Option<Arc<WorkerPool>>,
    store: PathBuf,
    /// Evaluators of the last phase (their caches hold its statistics).
    evaluators: Vec<Evaluator>,
    /// `(generation, process-clock ms)` at which each on-generation
    /// callback of the last phase returned.
    callbacks: Vec<(u64, f64)>,
}

impl Evolve {
    pub fn new(seed: u64, seconds: u64, scratch: &Path) -> Self {
        let runs = (seconds as f64 / SECONDS_PER_RUN).round().max(1.0) as usize;
        Self {
            seed,
            runs,
            env: WorldConfig::paper(GridKind::Triangulate, 16),
            sets: Vec::new(),
            pool: None,
            store: scratch.join("evolve"),
            evaluators: Vec::new(),
            callbacks: Vec::new(),
        }
    }

    /// Seed of run `run`'s training set; distinct `--seed`s never share
    /// a set.
    fn set_seed(&self, run: usize) -> u64 {
        self.seed.wrapping_mul(1_000).wrapping_add(run as u64)
    }

    fn evaluator(&self, run: usize) -> Evaluator {
        let pool = Arc::clone(self.pool.as_ref().expect("set-up created the worker pool"));
        Evaluator::new(self.env.clone(), self.sets[run].clone()).with_pool(pool)
    }
}

/// GA seed of run `run`: a fixed panel, so every `--seed` starts the
/// same searches from the same random pools on its own training sets.
/// How fast a search leaves the random-pool generations sets most of a
/// run's cost: runs vary by 11 % between GA seeds but by about 8 %
/// between training sets under one GA seed.
fn ga_seed(run: usize) -> u64 {
    run as u64 + 1
}

/// The digest `a2a-serve` seals into a result: FNV-1a over the JSON of
/// every generation's statistics.
fn history_digest(history: &[GenerationStats]) -> String {
    let bytes: String = history.iter().map(|s| s.to_json().to_string()).collect();
    common::digest_hex(&bytes)
}

/// Output check of one generation: the best fitness never rises.
fn check_best(prev: Option<f64>, stats: &GenerationStats) -> Result<(), String> {
    match prev {
        Some(p) if stats.best_fitness > p => Err(format!(
            "generation {}: best fitness rose from {p} to {}",
            stats.generation, stats.best_fitness
        )),
        _ => Ok(()),
    }
}

impl Workload for Evolve {
    fn aliases(&self) -> [&'static str; 3] {
        [
            "evolve.gen_p50_ms",
            "evolve.gen_p90_ms",
            "evolve.gens_per_s",
        ]
    }

    fn setup(&mut self, _rep: usize) -> Result<(), String> {
        // Training sets, the shared pool, the store directory, and one
        // discarded warm-up evaluation (compiles a runner and fills the
        // kernel's pooled worlds) on an evaluator of its own, so the
        // timed runs start with empty caches.
        self.sets = (0..self.runs)
            .map(|r| {
                paper_config_set(
                    self.env.lattice,
                    GridKind::Triangulate,
                    AGENTS,
                    RANDOM_CONFIGS,
                    self.set_seed(r),
                )
                .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        self.pool = Some(Arc::new(WorkerPool::new(THREADS)));
        std::fs::create_dir_all(&self.store).map_err(|e| e.to_string())?;
        let report = self.evaluator(0).evaluate(&best_t_agent());
        if report.is_completely_successful() {
            Ok(())
        } else {
            Err(format!(
                "published T agent solved {}/{}",
                report.successes, report.total
            ))
        }
    }

    fn phase(&mut self, index: usize) -> Phase {
        let mut tally = Tally::default();
        let mut op_ms = Vec::with_capacity(self.runs * GENERATIONS);
        let mut done_ms = Vec::with_capacity(self.runs * GENERATIONS);
        let mut digests = String::new();
        let mut callbacks = Vec::new();
        let evaluators: Vec<Evaluator> = (0..self.runs).map(|r| self.evaluator(r)).collect();
        let start = std::time::Instant::now();
        let (_, wall_s) = common::timed(|| {
            for (run, evaluator) in evaluators.iter().enumerate() {
                let _run = Span::enter("bench.evolve.run");
                let store = CheckpointStore::new(self.store.join(format!("phase{index}-run{run}")));
                let mut last = std::time::Instant::now();
                let mut best: Option<f64> = None;
                let report = common::unwind("run", || {
                    run_evolution(
                        FsmSpec::paper(GridKind::Triangulate),
                        evaluator,
                        GaConfig::paper(GENERATIONS, ga_seed(run)),
                        Vec::new(),
                        &RunOptions::persisting(store),
                        |stats| {
                            let _cb = Span::enter("bench.evolve.on_generation");
                            if stats.generation > 0 {
                                op_ms.push(last.elapsed().as_secs_f64() * 1e3);
                                done_ms.push(start.elapsed().as_secs_f64() * 1e3);
                                tally.op(check_best(best, stats));
                            }
                            best = Some(stats.best_fitness);
                            last = std::time::Instant::now();
                            callbacks.push((stats.generation as u64, a2a_obs::clock_ms()));
                        },
                    )
                })
                .and_then(|r| r);
                match report {
                    Ok(r) if r.completed && r.checkpoint_errors == 0 => {
                        digests.push_str(&history_digest(&r.outcome.history));
                    }
                    Ok(r) => tally.op(Err(format!(
                        "run {run}: completed {}, {} checkpoint errors",
                        r.completed, r.checkpoint_errors
                    ))),
                    Err(e) => tally.op(Err(format!("run {run}: {e}"))),
                }
            }
        });
        self.evaluators = evaluators;
        self.callbacks = callbacks;
        let digest = common::digest_hex(&digests);
        // One segment: runs differ by their search trajectory, not by
        // outside load, so the pooled rate of all runs (initial rankings
        // included) is steadier than a median over runs.
        Phase {
            op_ms,
            done_ms,
            segments: 1,
            wall_s,
            tally,
            digest,
        }
    }

    fn subrun(&mut self) {
        let _ = run_evolution(
            FsmSpec::paper(GridKind::Triangulate),
            &self.evaluator(0),
            GaConfig::paper(SUBRUN_GENERATIONS, ga_seed(0)),
            Vec::new(),
            &RunOptions::default(),
            |_| (),
        );
    }

    fn bench_layers(&self) -> &'static [(&'static str, &'static str)] {
        &[
            ("bench.timed", "unattributed"),
            ("bench.evolve.run", "a2a-run.harness"),
            ("bench.evolve.on_generation", "bench.check"),
        ]
    }

    fn layers(&mut self, capture: &Capture, analysis: &Analysis, _phase: &Phase) -> Layers {
        let main = analysis.threads_of("bench.timed");
        let on_main = |s: &a2a_obs::trace::SpanRecord| main.contains(&s.thread);
        let gens = ledger::intervals(analysis, "ga.generation", on_main);
        let (in_gens, outside) = gens.values().next().map_or((0.0, 0.0), |spans| {
            ledger::checkpoint_ms(spans, &self.callbacks)
        });
        let timeline = analysis.by_layer(on_main);
        let at = |layer: &str| timeline.get(layer).copied().unwrap_or(0.0);
        let mut ledger: Vec<(String, f64)> = timeline
            .iter()
            .map(|(layer, ms)| {
                let ms = match *layer {
                    "a2a-ga.select" => ms - in_gens,
                    "a2a-run.harness" => ms - outside,
                    _ => *ms,
                };
                ((*layer).to_string(), ms)
            })
            .collect();
        ledger.push(("a2a-run.checkpoint".to_string(), in_gens + outside));

        let (hits, misses) = self.evaluators.iter().fold((0, 0), |(h, m), e| {
            (h + e.cache().hits(), m + e.cache().misses())
        });
        let configs = (RANDOM_CONFIGS + 3) as f64;
        let store_bytes: u64 = (0..self.runs)
            .map(|r| common::dir_bytes(&self.store.join(format!("phase1-run{r}"))))
            .sum();
        let metrics = [
            ("ga.select_ms", at("a2a-ga.select") - in_gens),
            ("ga.evals", misses as f64),
            (
                "ga.cache_hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            ),
            (
                "ga.prune_ratio",
                capture.counter("ga.pruned.configs") as f64 / (misses.max(1) as f64 * configs),
            ),
            ("ga.pool.wait_ms", at("a2a-ga.pool_wait")),
            (
                "run.checkpoint.writes",
                capture.counter("run.checkpoint.writes") as f64,
            ),
            ("run.checkpoint_ms", in_gens + outside),
            (
                "run.store.bytes_per_job",
                store_bytes as f64 / self.runs as f64,
            ),
        ]
        .into_iter()
        .collect();
        Layers {
            metrics,
            ledger,
            timelines: 1,
        }
    }

    fn store_dir(&self) -> &Path {
        &self.store
    }
}
