//! The genetic procedure of Sect. 4: a 20-individual pool, mutation-only
//! offspring from the top half, duplicate elimination, truncation and the
//! diversity exchange between pool halves.

use crate::crossover::{one_point, uniform, ReproductionStrategy};
use crate::fitness::{Evaluator, FitnessReport, GenomeEval};
use a2a_fsm::{offspring, FsmSpec, Genome, MutationRates};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters of the genetic procedure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaConfig {
    /// Pool size `N` (paper: 20).
    pub population: usize,
    /// Diversity-exchange width `b` (paper: 3 — individuals 7,8,9 swap
    /// with 10,11,12).
    pub exchange_b: usize,
    /// Per-field mutation probabilities (paper: 18 % each).
    pub rates: MutationRates,
    /// Generations to run.
    pub generations: usize,
    /// RNG seed for initial population and mutations.
    pub seed: u64,
    /// How offspring are produced (the paper settled on mutation only).
    pub strategy: ReproductionStrategy,
}

impl GaConfig {
    /// The paper's GA parameters with a caller-chosen generation budget.
    #[must_use]
    pub fn paper(generations: usize, seed: u64) -> Self {
        Self {
            population: 20,
            exchange_b: 3,
            rates: MutationRates::paper(),
            generations,
            seed,
            strategy: ReproductionStrategy::MutationOnly,
        }
    }

    /// The paper's parameters with a different reproduction strategy
    /// (for the crossover comparison the paper describes).
    #[must_use]
    pub fn with_strategy(generations: usize, seed: u64, strategy: ReproductionStrategy) -> Self {
        Self { strategy, ..Self::paper(generations, seed) }
    }
}

/// One ranked individual of the pool.
#[derive(Debug, Clone, PartialEq)]
pub struct Individual {
    /// The behaviour.
    pub genome: Genome,
    /// Its evaluation on the training configuration set.
    pub report: FitnessReport,
}

/// Per-generation progress record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GenerationStats {
    /// Generation index (0 = initial random pool).
    pub generation: usize,
    /// Best (lowest) fitness in the pool.
    pub best_fitness: f64,
    /// Median fitness over the pool.
    pub median_fitness: f64,
    /// Mean fitness over the pool.
    pub mean_fitness: f64,
    /// Successes of the best individual.
    pub best_successes: usize,
    /// Whether the best individual is completely successful.
    pub best_complete: bool,
    /// Mean pairwise Hamming distance of the pool (the diversity the
    /// b=3 exchange is designed to preserve).
    pub pool_diversity: f64,
    /// Duplicate individuals eliminated from the parent/child union
    /// this generation (0 for the initial pool).
    pub duplicates_removed: usize,
    /// Offspring of this generation that made it into the new pool
    /// (mutation acceptance; 0 for the initial pool).
    pub offspring_accepted: usize,
}

impl GenerationStats {
    /// The JSON form used in checkpoints and the `ga.series` artifact.
    #[must_use]
    pub fn to_json(&self) -> a2a_obs::json::Json {
        a2a_obs::json::Json::object()
            .with("generation", self.generation as u64)
            .with("best_fitness", self.best_fitness)
            .with("median_fitness", self.median_fitness)
            .with("mean_fitness", self.mean_fitness)
            .with("best_successes", self.best_successes as u64)
            .with("best_complete", self.best_complete)
            .with("pool_diversity", self.pool_diversity)
            .with("duplicates_removed", self.duplicates_removed as u64)
            .with("offspring_accepted", self.offspring_accepted as u64)
    }

    /// Parses the [`GenerationStats::to_json`] form. Floats round-trip
    /// exactly (the JSON layer prints shortest-round-trip reprs), so a
    /// decoded history is bit-identical to the encoded one.
    ///
    /// # Errors
    ///
    /// A message naming the first missing or mistyped member.
    pub fn from_json(doc: &a2a_obs::json::Json) -> Result<Self, String> {
        use a2a_obs::json::Json;
        let num = |key: &str| {
            doc.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing numeric `{key}`"))
        };
        let int = |key: &str| num(key).map(|v| v as usize);
        let best_complete = match doc.get("best_complete") {
            Some(&Json::Bool(b)) => b,
            _ => return Err("missing boolean `best_complete`".to_string()),
        };
        Ok(Self {
            generation: int("generation")?,
            best_fitness: num("best_fitness")?,
            median_fitness: num("median_fitness")?,
            mean_fitness: num("mean_fitness")?,
            best_successes: int("best_successes")?,
            best_complete,
            pool_diversity: num("pool_diversity")?,
            duplicates_removed: int("duplicates_removed")?,
            offspring_accepted: int("offspring_accepted")?,
        })
    }
}

/// Result of an evolution run.
#[derive(Debug, Clone)]
pub struct EvolutionOutcome {
    /// Final pool, best first.
    pub pool: Vec<Individual>,
    /// Progress per generation (index 0 is the initial pool).
    pub history: Vec<GenerationStats>,
}

impl EvolutionOutcome {
    /// The best individual of the final pool.
    ///
    /// # Panics
    ///
    /// Never panics: the pool is non-empty by construction.
    #[must_use]
    pub fn best(&self) -> &Individual {
        &self.pool[0]
    }

    /// The top completely successful individuals (paper: the "top 3
    /// completely successful FSMs of each run" enter reliability
    /// screening).
    #[must_use]
    pub fn top_completely_successful(&self, n: usize) -> Vec<&Individual> {
        self.pool
            .iter()
            .filter(|i| i.report.is_completely_successful())
            .take(n)
            .collect()
    }
}

/// A snapshot of the procedure at a generation boundary — everything
/// needed to continue the run bit-identically. The loop is driven
/// solely by its [`SmallRng`] and deterministic evaluation, so the RNG
/// state plus the pool in its exact post-exchange order (order is
/// load-bearing: parent selection and duplicate deletion are positional)
/// plus the history so far reproduce the remainder of the run exactly.
///
/// The `a2a-run` crate persists these to disk; see its checkpoint
/// format (`a2a-run/checkpoint/v1`).
#[derive(Debug, Clone)]
pub struct RunState {
    /// RNG state at the boundary ([`SmallRng::state`]).
    pub rng_state: [u64; 4],
    /// The pool exactly as the generation loop left it (post-exchange
    /// order, NOT sorted best-first).
    pub pool: Vec<Individual>,
    /// History up to and including the last completed generation.
    pub history: Vec<GenerationStats>,
    /// The next generation index the loop would run (`generations + 1`
    /// when the run is complete).
    pub next_generation: usize,
}

/// What a boundary observer tells [`Evolution::run_resumable`] to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunControl {
    /// Keep evolving.
    Continue,
    /// Stop at this boundary (simulated kill, external shutdown). The
    /// partial outcome is returned with `completed = false`.
    Stop,
}

/// What [`Evolution::run_resumable`] produced.
#[derive(Debug, Clone)]
pub struct ResumableRun {
    /// The (possibly partial) outcome, pool sorted best-first.
    pub outcome: EvolutionOutcome,
    /// `false` iff the observer stopped the run before the configured
    /// generation budget.
    pub completed: bool,
}

/// The genetic procedure. Owns the evaluator (environment + training
/// configurations) and the GA parameters.
#[derive(Debug)]
pub struct Evolution {
    spec: FsmSpec,
    evaluator: Evaluator,
    config: GaConfig,
}

impl Evolution {
    /// Creates a procedure evolving FSMs of `spec` against `evaluator`.
    ///
    /// # Panics
    ///
    /// Panics if the population is smaller than 2 or `exchange_b` exceeds
    /// half the population.
    #[must_use]
    pub fn new(spec: FsmSpec, evaluator: Evaluator, config: GaConfig) -> Self {
        assert!(config.population >= 2, "population must hold at least 2 individuals");
        assert!(
            config.exchange_b <= config.population / 2,
            "exchange width b must fit in half the pool"
        );
        Self { spec, evaluator, config }
    }

    /// Runs the procedure, reporting each generation to `on_generation`
    /// (use `|_| ()` to run silently).
    #[must_use]
    pub fn run(&self, on_generation: impl FnMut(&GenerationStats)) -> EvolutionOutcome {
        self.run_seeded(Vec::new(), on_generation)
    }

    /// Like [`Evolution::run`] but starts from the given genomes (topped
    /// up with random FSMs to the pool size) — used by the island model's
    /// migration and for resuming a previous pool.
    ///
    /// # Panics
    ///
    /// Panics if a seed genome's spec differs from the procedure's.
    #[must_use]
    pub fn run_seeded(
        &self,
        seeds: Vec<Genome>,
        mut on_generation: impl FnMut(&GenerationStats),
    ) -> EvolutionOutcome {
        self.run_resumable(None, seeds, |stats, _| {
            on_generation(stats);
            RunControl::Continue
        })
        .outcome
    }

    /// The checkpointable core of the procedure: runs from scratch or
    /// from a captured [`RunState`], reporting every generation boundary
    /// (including generation 0, the ranked initial pool) to
    /// `on_boundary` together with the state that would resume there.
    /// The observer can persist the state and/or return
    /// [`RunControl::Stop`] to end the run at that boundary.
    ///
    /// A run resumed from a boundary state continues the interrupted
    /// run bit-identically: same history, same pool, same best genome
    /// (the fitness cache starting cold does not change results — only
    /// speed). When `resume` is `Some`, `seeds` is ignored and the
    /// already-completed boundaries are not re-reported.
    ///
    /// # Panics
    ///
    /// Panics if a seed genome's spec differs from the procedure's.
    #[must_use]
    pub fn run_resumable(
        &self,
        resume: Option<RunState>,
        seeds: Vec<Genome>,
        mut on_boundary: impl FnMut(&GenerationStats, &RunState) -> RunControl,
    ) -> ResumableRun {
        let n = self.config.population;
        let mut stopped = false;
        let (mut rng, mut pool, mut history, start_generation) = match resume {
            Some(state) => (
                SmallRng::from_state(state.rng_state),
                state.pool,
                state.history,
                state.next_generation,
            ),
            None => {
                let mut rng = SmallRng::seed_from_u64(self.config.seed);
                // Initial pool: the seeds plus random FSMs up to N
                // ("usually there is no FSM in the initial population
                // that is successful").
                for g in &seeds {
                    assert_eq!(g.spec(), self.spec, "seed genome spec mismatch");
                }
                let mut genomes = seeds;
                genomes.truncate(n);
                while genomes.len() < n {
                    genomes.push(Genome::random(self.spec, &mut rng));
                }
                let timer = a2a_obs::metrics_enabled().then(std::time::Instant::now);
                let pool = self.rank(genomes);
                let mut history = Vec::with_capacity(self.config.generations + 1);
                let stats = Self::stats(0, &pool, 0, 0);
                Self::observe(&stats, timer.map(|t| t.elapsed()));
                history.push(stats);
                let state = RunState {
                    rng_state: rng.state(),
                    pool: pool.clone(),
                    history: history.clone(),
                    next_generation: 1,
                };
                stopped = on_boundary(&stats, &state) == RunControl::Stop;
                (rng, pool, history, 1)
            }
        };

        for generation in start_generation..=self.config.generations {
            if stopped {
                break;
            }
            // Each generation is a causal span: evaluation fan-outs
            // (`ga.pool.map`) opened below adopt it as parent, so a
            // captured trace groups work by generation.
            let _gen_span = a2a_obs::Span::enter("ga.generation");
            let timer = a2a_obs::metrics_enabled().then(std::time::Instant::now);
            // N/2 offspring from the top N/2 individuals.
            let parents = &pool[..(n / 2).min(pool.len())];
            let children: Vec<Genome> = match self.config.strategy {
                ReproductionStrategy::MutationOnly => parents
                    .iter()
                    .map(|p| offspring(&p.genome, self.config.rates, &mut rng))
                    .collect(),
                ReproductionStrategy::OnePointCrossover
                | ReproductionStrategy::UniformCrossover => (0..parents.len())
                    .map(|i| {
                        // Pair each top parent with a random distinct mate,
                        // then mutate the recombined child.
                        let j = if parents.len() > 1 {
                            let mut j = rng.random_range(0..parents.len() - 1);
                            if j >= i {
                                j += 1;
                            }
                            j
                        } else {
                            i
                        };
                        let child = match self.config.strategy {
                            ReproductionStrategy::OnePointCrossover => {
                                one_point(&parents[i].genome, &parents[j].genome, &mut rng)
                            }
                            _ => uniform(&parents[i].genome, &parents[j].genome, &mut rng),
                        };
                        offspring(&child, self.config.rates, &mut rng)
                    })
                    .collect(),
            };
            let child_digits: std::collections::HashSet<String> =
                children.iter().map(Genome::to_digits).collect();
            let mut union: Vec<Individual> = pool;

            // Adaptive selection (DESIGN.md §8). Children whose digits
            // already occur in the pool would lose duplicate deletion to
            // the pool occurrence (same fitness, earlier position), so
            // they skip evaluation outright; the rest compete for the N
            // slots with bound-based pruning against the pool's distinct
            // exact fitnesses. Selection is provably identical to
            // evaluating every child in full.
            let pool_digits: std::collections::HashSet<String> =
                union.iter().map(|ind| ind.genome.to_digits()).collect();
            let mut incumbent_seen = std::collections::HashSet::new();
            let incumbents: Vec<f64> = union
                .iter()
                .filter(|ind| incumbent_seen.insert(ind.genome.to_digits()))
                .map(|ind| ind.report.fitness)
                .collect();
            let total_entries = union.len() + children.len();
            let fresh: Vec<Genome> = children
                .into_iter()
                .filter(|c| !pool_digits.contains(&c.to_digits()))
                .collect();
            let verdicts = self.evaluator.evaluate_selection(&fresh, n, &incumbents);
            for (genome, verdict) in fresh.into_iter().zip(verdicts) {
                if let GenomeEval::Exact(report) = verdict {
                    union.push(Individual { genome, report });
                }
            }

            // `before − after` of the exhaustive path, computed without
            // materialising the pruned entries: every deleted duplicate
            // is an entry whose digits already occurred.
            let mut all_digits = pool_digits;
            all_digits.extend(child_digits.iter().cloned());
            let duplicates_removed = total_entries - all_digits.len();

            // Sort by fitness, delete duplicates, truncate to N.
            union.sort_by(|a, b| {
                a.report
                    .fitness
                    .partial_cmp(&b.report.fitness)
                    .expect("fitness is never NaN")
            });
            let mut seen = std::collections::HashSet::new();
            union.retain(|ind| seen.insert(ind.genome.to_digits()));
            union.truncate(n);

            // Diversity exchange: the first b individuals of the second
            // half swap with the last b of the first half (7,8,9 ↔
            // 10,11,12 for N = 20, b = 3).
            let b = self.config.exchange_b;
            if b > 0 && union.len() == n {
                let half = n / 2;
                for j in 0..b {
                    union.swap(half - b + j, half + j);
                }
            }

            pool = union;
            let offspring_accepted = pool
                .iter()
                .filter(|i| child_digits.contains(&i.genome.to_digits()))
                .count();
            let stats = Self::stats(generation, &pool, duplicates_removed, offspring_accepted);
            Self::observe(&stats, timer.map(|t| t.elapsed()));
            history.push(stats);
            let state = RunState {
                rng_state: rng.state(),
                pool: pool.clone(),
                history: history.clone(),
                next_generation: generation + 1,
            };
            stopped = on_boundary(&stats, &state) == RunControl::Stop;
        }

        // Report the pool best-first regardless of the final exchange.
        pool.sort_by(|a, b| {
            a.report
                .fitness
                .partial_cmp(&b.report.fitness)
                .expect("fitness is never NaN")
        });
        ResumableRun { outcome: EvolutionOutcome { pool, history }, completed: !stopped }
    }

    fn rank(&self, genomes: Vec<Genome>) -> Vec<Individual> {
        let reports = self.evaluator.evaluate_all(&genomes);
        genomes
            .into_iter()
            .zip(reports)
            .map(|(genome, report)| Individual { genome, report })
            .collect()
    }

    fn stats(
        generation: usize,
        pool: &[Individual],
        duplicates_removed: usize,
        offspring_accepted: usize,
    ) -> GenerationStats {
        let best = pool
            .iter()
            .min_by(|a, b| {
                a.report
                    .fitness
                    .partial_cmp(&b.report.fitness)
                    .expect("fitness is never NaN")
            })
            .expect("pool is never empty");
        let mut fitnesses: Vec<f64> = pool.iter().map(|i| i.report.fitness).collect();
        fitnesses.sort_by(|a, b| a.partial_cmp(b).expect("fitness is never NaN"));
        let genomes: Vec<&Genome> = pool.iter().map(|i| &i.genome).collect();
        GenerationStats {
            generation,
            best_fitness: best.report.fitness,
            median_fitness: fitnesses[fitnesses.len() / 2],
            mean_fitness: fitnesses.iter().sum::<f64>() / fitnesses.len() as f64,
            best_successes: best.report.successes,
            best_complete: best.report.is_completely_successful(),
            pool_diversity: a2a_fsm::pool_diversity(&genomes),
            duplicates_removed,
            offspring_accepted,
        }
    }

    /// Publishes one generation to the observability layer: an
    /// `ga.generation` event at `Info`, plus the per-generation
    /// wall-clock histogram while metrics are on.
    fn observe(stats: &GenerationStats, elapsed: Option<std::time::Duration>) {
        if let Some(d) = elapsed {
            a2a_obs::global().histogram("ga.generation.us").record_duration_us(d);
        }
        a2a_obs::event!(a2a_obs::Level::Info, "ga.generation",
            "generation" => stats.generation,
            "best" => stats.best_fitness,
            "median" => stats.median_fitness,
            "mean" => stats.mean_fitness,
            "best_successes" => stats.best_successes,
            "diversity" => stats.pool_diversity,
            "duplicates_removed" => stats.duplicates_removed,
            "offspring_accepted" => stats.offspring_accepted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_grid::GridKind;
    use a2a_sim::{paper_config_set, WorldConfig};

    fn tiny_evolution(kind: GridKind, generations: usize, seed: u64) -> EvolutionOutcome {
        let cfg = WorldConfig::paper(kind, 8);
        let configs = paper_config_set(cfg.lattice, kind, 4, 12, 5).unwrap();
        let evaluator = Evaluator::new(cfg, configs).with_threads(2);
        let ga = Evolution::new(FsmSpec::paper(kind), evaluator, GaConfig::paper(generations, seed));
        ga.run(|_| ())
    }

    #[test]
    fn fitness_never_worsens_across_generations() {
        let out = tiny_evolution(GridKind::Square, 15, 3);
        let bests: Vec<f64> = out.history.iter().map(|s| s.best_fitness).collect();
        for w in bests.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "elitist pool: best fitness is monotone {bests:?}");
        }
        assert_eq!(out.history.len(), 16);
    }

    #[test]
    fn evolution_improves_over_random_pool() {
        let out = tiny_evolution(GridKind::Triangulate, 25, 11);
        let first = out.history.first().unwrap().best_fitness;
        let last = out.history.last().unwrap().best_fitness;
        assert!(last < first, "no progress: {first} -> {last}");
    }

    #[test]
    fn runs_are_seed_reproducible() {
        let a = tiny_evolution(GridKind::Square, 8, 42);
        let b = tiny_evolution(GridKind::Square, 8, 42);
        assert_eq!(a.best().genome, b.best().genome);
        let hist_a: Vec<f64> = a.history.iter().map(|s| s.best_fitness).collect();
        let hist_b: Vec<f64> = b.history.iter().map(|s| s.best_fitness).collect();
        assert_eq!(hist_a, hist_b);
    }

    #[test]
    fn pool_has_no_duplicates_and_is_sorted() {
        let out = tiny_evolution(GridKind::Square, 10, 7);
        let digits: Vec<String> = out.pool.iter().map(|i| i.genome.to_digits()).collect();
        let mut dedup = digits.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), digits.len(), "duplicates must be deleted");
        for w in out.pool.windows(2) {
            assert!(w[0].report.fitness <= w[1].report.fitness);
        }
    }

    #[test]
    fn stats_carry_median_and_acceptance() {
        let out = tiny_evolution(GridKind::Square, 10, 21);
        for s in &out.history {
            assert!(s.best_fitness <= s.median_fitness, "gen {}", s.generation);
            assert!(s.median_fitness.is_finite());
        }
        let first = &out.history[0];
        assert_eq!((first.duplicates_removed, first.offspring_accepted), (0, 0));
        assert!(
            out.history.iter().skip(1).any(|s| s.offspring_accepted > 0),
            "some offspring must be accepted across 10 generations"
        );
        for s in out.history.iter().skip(1) {
            assert!(s.offspring_accepted <= 10, "at most N/2 children per generation");
        }
    }

    fn tiny_ga(kind: GridKind, generations: usize, seed: u64) -> Evolution {
        let cfg = WorldConfig::paper(kind, 8);
        let configs = paper_config_set(cfg.lattice, kind, 4, 12, 5).unwrap();
        let evaluator = Evaluator::new(cfg, configs).with_threads(2);
        Evolution::new(FsmSpec::paper(kind), evaluator, GaConfig::paper(generations, seed))
    }

    #[test]
    fn interrupted_then_resumed_matches_uninterrupted() {
        let ga = tiny_ga(GridKind::Square, 12, 31);
        let full = ga.run(|_| ());

        // Stop at the generation-5 boundary, carrying the state out.
        let mut captured = None;
        let partial = ga.run_resumable(None, Vec::new(), |stats, state| {
            if stats.generation == 5 {
                captured = Some(state.clone());
                RunControl::Stop
            } else {
                RunControl::Continue
            }
        });
        assert!(!partial.completed);
        assert_eq!(partial.outcome.history.len(), 6, "generations 0..=5 ran");

        // Resume: the continuation must be bit-identical to the
        // uninterrupted run — history, pool, best genome.
        let resumed = ga.run_resumable(captured, Vec::new(), |_, _| RunControl::Continue);
        assert!(resumed.completed);
        assert_eq!(resumed.outcome.history, full.history);
        assert_eq!(resumed.outcome.pool, full.pool);
        assert_eq!(resumed.outcome.best().genome, full.best().genome);
    }

    #[test]
    fn generation_stats_json_round_trips_exactly() {
        let out = tiny_evolution(GridKind::Square, 6, 13);
        for stats in &out.history {
            let back = GenerationStats::from_json(&stats.to_json()).unwrap();
            assert_eq!(&back, stats, "floats must round-trip bit-exactly");
        }
        assert!(GenerationStats::from_json(&a2a_obs::json::Json::object()).is_err());
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_population_rejected() {
        let cfg = WorldConfig::paper(GridKind::Square, 8);
        let configs = paper_config_set(cfg.lattice, GridKind::Square, 2, 2, 0).unwrap();
        let _ = Evolution::new(
            FsmSpec::paper(GridKind::Square),
            Evaluator::new(cfg, configs),
            GaConfig { population: 1, ..GaConfig::paper(1, 0) },
        );
    }
}

#[cfg(test)]
mod strategy_tests {
    use super::*;
    use crate::crossover::ReproductionStrategy;
    use a2a_grid::GridKind;
    use a2a_sim::{paper_config_set, WorldConfig};

    fn run_with(strategy: ReproductionStrategy, seed: u64) -> EvolutionOutcome {
        let kind = GridKind::Square;
        let cfg = WorldConfig::paper(kind, 8);
        let configs = paper_config_set(cfg.lattice, kind, 4, 10, 3).unwrap();
        let ga = Evolution::new(
            FsmSpec::paper(kind),
            Evaluator::new(cfg, configs).with_threads(2),
            GaConfig::with_strategy(12, seed, strategy),
        );
        ga.run(|_| ())
    }

    #[test]
    fn all_strategies_make_progress_and_stay_valid() {
        for strategy in [
            ReproductionStrategy::MutationOnly,
            ReproductionStrategy::OnePointCrossover,
            ReproductionStrategy::UniformCrossover,
        ] {
            let out = run_with(strategy, 77);
            assert!(
                out.history.last().unwrap().best_fitness
                    <= out.history.first().unwrap().best_fitness,
                "{strategy:?}"
            );
            for ind in &out.pool {
                let spec = ind.genome.spec();
                for e in ind.genome.entries() {
                    assert!(e.next_state < spec.n_states, "{strategy:?}");
                }
            }
        }
    }

    #[test]
    fn strategies_explore_differently() {
        let mutation = run_with(ReproductionStrategy::MutationOnly, 5);
        let crossover = run_with(ReproductionStrategy::UniformCrossover, 5);
        assert_ne!(
            mutation.best().genome, crossover.best().genome,
            "same seed, different search trajectories"
        );
    }
}

#[cfg(test)]
mod diversity_tests {
    use super::*;
    use a2a_grid::GridKind;
    use a2a_sim::{paper_config_set, WorldConfig};

    #[test]
    fn diversity_is_tracked_and_decreases_from_random_start() {
        let kind = GridKind::Square;
        let cfg = WorldConfig::paper(kind, 8);
        let configs = paper_config_set(cfg.lattice, kind, 3, 6, 1).unwrap();
        let ga = Evolution::new(
            FsmSpec::paper(kind),
            Evaluator::new(cfg, configs).with_threads(2),
            GaConfig::paper(20, 9),
        );
        let out = ga.run(|_| ());
        let first = out.history.first().unwrap().pool_diversity;
        let last = out.history.last().unwrap().pool_diversity;
        assert!(first > 50.0, "random pools are diverse: {first}");
        assert!(last < first, "selection concentrates the pool: {first} -> {last}");
        assert!(last > 0.0, "the exchange keeps some diversity");
    }
}
