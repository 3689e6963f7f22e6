//! The paper's fitness function (Sect. 4): the dominance combination
//! `F = Σᵢ (W·(N_agents − aᵢ) + t_comm,ᵢ) / N_fields` with `W = 10⁴`,
//! evaluated by simulating the agent system over a set of initial
//! configurations.
//!
//! The [`Evaluator`] is an *adaptive* pipeline (see DESIGN.md §8): a
//! persistent [`WorkerPool`] runs every evaluation in one shape — each
//! genome's runner compiled once, then the (runner, range) pieces of
//! all genomes in one [`WorkerPool::run_ranges`] map — a
//! [`FitnessCache`] memoizes exact reports by canonical genome digits,
//! and [`Evaluator::evaluate_selection`] prunes hopeless genomes early
//! using provable fitness bounds — all without changing a single
//! reported number relative to the exhaustive path.

use crate::cache::FitnessCache;
use crate::pool::{default_threads, WorkerPool};
use a2a_fsm::{FsmSpec, Genome};
use a2a_obs::json::Json;
use a2a_sim::{BatchRunner, Behaviour, InitialConfig, SimError, WorldConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// The paper's dominance weight `W = 10⁴`.
pub const PAPER_WEIGHT: f64 = 1e4;

/// The paper's simulation horizon during evolution (`t_max = 200`).
pub const PAPER_T_MAX: u32 = 200;

/// Aggregated fitness of one behaviour over a configuration set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FitnessReport {
    /// Mean fitness `F` (lower is better).
    pub fitness: f64,
    /// Number of configurations solved within the horizon.
    pub successes: usize,
    /// Total configurations evaluated.
    pub total: usize,
    /// Mean communication time over the *successful* configurations
    /// (`None` when none succeeded — serialised as JSON `null`).
    pub mean_t_comm: Option<f64>,
}

impl FitnessReport {
    /// "Completely successful": solved every configuration in the set.
    #[must_use]
    pub fn is_completely_successful(&self) -> bool {
        self.successes == self.total && self.total > 0
    }

    /// Serialises the report as a JSON object (`mean_t_comm` becomes
    /// `null` when no configuration succeeded, keeping the document
    /// valid JSON — `NaN` is not).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("fitness", self.fitness)
            .with("successes", self.successes)
            .with("total", self.total)
            .with(
                "mean_t_comm",
                self.mean_t_comm.map_or(Json::Null, Json::Num),
            )
    }

    /// Parses a report serialised by [`FitnessReport::to_json`].
    ///
    /// # Errors
    ///
    /// A message naming the first missing or mistyped member.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("fitness report missing numeric `{key}`"))
        };
        let mean_t_comm = match doc.get("mean_t_comm") {
            None => return Err("fitness report missing `mean_t_comm`".to_string()),
            Some(Json::Null) => None,
            Some(v) => {
                Some(v.as_f64().ok_or("`mean_t_comm` must be a number or null")?)
            }
        };
        Ok(Self {
            fitness: num("fitness")?,
            successes: num("successes")? as usize,
            total: num("total")? as usize,
            mean_t_comm,
        })
    }
}

/// What a [`Fold`] needs of one dispatched piece's outcomes, taken on
/// the worker that ran them: each configuration's fitness in order,
/// plus the successes and their summed `t_comm`. A quarter of the
/// outcomes' size, so an evaluation holds no outcome vectors.
#[derive(Debug)]
struct Piece {
    fitness: Vec<f64>,
    successes: usize,
    t_sum: u64,
}

impl Piece {
    /// Runs `runner` over `inits` and keeps its fitness terms.
    fn run(runner: &BatchRunner, inits: &[InitialConfig], weight: f64) -> Result<Self, SimError> {
        let outcomes = runner.run_all(inits)?;
        Ok(Self {
            fitness: outcomes.iter().map(|o| o.fitness(weight)).collect(),
            successes: outcomes.iter().filter(|o| o.t_comm.is_some()).count(),
            t_sum: outcomes.iter().filter_map(|o| o.t_comm).map(u64::from).sum(),
        })
    }
}

/// The fold of a [`FitnessReport`] over outcomes taken in configuration
/// order. `sum` is the left fold `0.0 + f₀ + f₁ + …` of the
/// per-configuration fitnesses, bit-identical to `Iterator::sum` over
/// these non-negative terms, so a genome's pieces fold into exactly the
/// report a serial pass gives, and the pruning bounds bracket that
/// computed value. Nothing else of an outcome is kept.
#[derive(Debug, Clone, Copy, Default)]
struct Fold {
    sum: f64,
    total: usize,
    successes: usize,
    t_sum: u64,
}

impl Fold {
    /// Folds one runner's dispatched pieces, in order, dropping each.
    fn add(&mut self, pieces: Vec<Piece>) {
        for piece in pieces {
            for f in &piece.fitness {
                self.sum += f;
            }
            self.total += piece.fitness.len();
            self.successes += piece.successes;
            self.t_sum += piece.t_sum;
        }
    }

    /// The report of the configurations folded so far.
    fn report(&self) -> FitnessReport {
        FitnessReport {
            fitness: self.sum / self.total.max(1) as f64,
            successes: self.successes,
            total: self.total,
            mean_t_comm: (self.successes > 0)
                .then(|| self.t_sum as f64 / self.successes as f64),
        }
    }
}

/// Records one finished per-genome evaluation into the `ga.eval.us`
/// histogram (microseconds from the start of the genome's dispatch,
/// which the genomes of one `evaluate_all` share, to its report) and
/// the `ga.evals` counter. Pass the `Instant` captured while metrics
/// were on; the disabled path costs one relaxed atomic load.
fn record_genome_eval(started: Option<std::time::Instant>) {
    if let Some(t0) = started {
        let reg = a2a_obs::global();
        reg.histogram("ga.eval.us").record_duration_us(t0.elapsed());
        reg.counter("ga.evals").incr();
    }
}

/// Exact-or-pruned verdict for one genome, returned by
/// [`Evaluator::evaluate_selection`].
#[derive(Debug, Clone, PartialEq)]
pub enum GenomeEval {
    /// Full-set exact report, bit-identical to [`Evaluator::evaluate`].
    Exact(FitnessReport),
    /// Provably outside the kept set; carries the bounds at pruning
    /// time. Never cached, never reported as a fitness.
    Pruned(PruneBound),
}

impl GenomeEval {
    /// The exact report, if the genome was fully evaluated.
    #[must_use]
    pub fn report(&self) -> Option<&FitnessReport> {
        match self {
            Self::Exact(r) => Some(r),
            Self::Pruned(_) => None,
        }
    }

    /// Whether the genome was pruned.
    #[must_use]
    pub fn is_pruned(&self) -> bool {
        matches!(self, Self::Pruned(_))
    }
}

/// The fitness interval proven for a pruned genome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneBound {
    /// Proven lower bound on the genome's exact mean fitness.
    pub lower: f64,
    /// Proven upper bound on the genome's exact mean fitness.
    pub upper: f64,
    /// Configurations actually simulated before pruning.
    pub configs_run: usize,
}

/// Per-group evaluation state inside `evaluate_selection`.
struct ActiveGroup {
    /// Index into the representative list.
    gid: usize,
    /// The representative's compiled runner.
    runner: BatchRunner,
    /// The fold over the configurations run so far.
    fold: Fold,
}

/// A reusable fitness evaluator: an environment, a configuration set and
/// the horizon/weight parameters, backed by a persistent worker pool
/// and a genome-fitness cache (both shared by [`Clone`]).
#[derive(Debug, Clone)]
pub struct Evaluator {
    config: WorldConfig,
    configs: Arc<Vec<InitialConfig>>,
    t_max: u32,
    weight: f64,
    threads: usize,
    /// Lazily spawned shared pool; cloning the evaluator (e.g. per
    /// island) shares the same workers.
    pool: Arc<OnceLock<Arc<WorkerPool>>>,
    /// Exact-report memoization, keyed by `(spec, digits)`. Valid only
    /// for this evaluator's `(config, configs, t_max, weight)`, which
    /// is why `with_t_max` swaps in a fresh cache.
    cache: Arc<FitnessCache>,
}

impl Evaluator {
    /// Creates an evaluator with the paper's horizon and weight.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    #[must_use]
    pub fn new(config: WorldConfig, configs: Vec<InitialConfig>) -> Self {
        assert!(!configs.is_empty(), "fitness needs at least one configuration");
        Self {
            config,
            threads: default_threads().min(configs.len()),
            configs: Arc::new(configs),
            t_max: PAPER_T_MAX,
            weight: PAPER_WEIGHT,
            pool: Arc::new(OnceLock::new()),
            cache: Arc::new(FitnessCache::default()),
        }
    }

    /// Overrides the simulation horizon (paper: 200 during evolution).
    /// Cached reports depend on the horizon, so this installs a fresh
    /// cache.
    #[must_use]
    pub fn with_t_max(mut self, t_max: u32) -> Self {
        self.t_max = t_max;
        self.cache = Arc::new(FitnessCache::default());
        self
    }

    /// Overrides the worker-thread count (1 = run inline). Detaches
    /// from any previously shared pool; the cache is kept (results do
    /// not depend on the thread count).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self.pool = Arc::new(OnceLock::new());
        self
    }

    /// Shares an existing worker pool (e.g. across the independent runs
    /// of an experiment binary); the thread count follows the pool's.
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.threads = pool.threads();
        let slot = OnceLock::new();
        let _ = slot.set(pool);
        self.pool = Arc::new(slot);
        self
    }

    /// The evaluation environment.
    #[must_use]
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// The configuration set.
    #[must_use]
    pub fn configs(&self) -> &[InitialConfig] {
        &self.configs
    }

    /// Simulation horizon.
    #[must_use]
    pub fn t_max(&self) -> u32 {
        self.t_max
    }

    /// The genome-fitness cache backing this evaluator (shared across
    /// clones; exposed for statistics and tests).
    #[must_use]
    pub fn cache(&self) -> &FitnessCache {
        &self.cache
    }

    /// The shared worker pool, spawning it on first use.
    fn pool(&self) -> &Arc<WorkerPool> {
        self.pool.get_or_init(|| Arc::new(WorkerPool::new(self.threads)))
    }

    /// Compiles `genome` against the environment.
    fn runner(&self, genome: &Genome) -> BatchRunner {
        BatchRunner::from_genome(&self.config, genome.clone(), self.t_max)
            .expect("genome and configuration set must match the environment")
    }

    /// The one dispatch shape: every runner over configurations `range`,
    /// as (runner, range) pieces of one pool map, folded into `folds`
    /// (one per runner) in configuration order — bit-identical to a
    /// serial `run_all` whatever the thread count.
    fn simulate<'a>(
        &self,
        runners: &[BatchRunner],
        range: Range<usize>,
        folds: impl IntoIterator<Item = &'a mut Fold>,
    ) {
        let weight = self.weight;
        let piece =
            move |runner: &BatchRunner, inits: &[InitialConfig]| Piece::run(runner, inits, weight);
        let (pieces, ()) = self.pool().run_ranges(runners, &self.configs, range, piece, || ());
        for (fold, pieces) in folds.into_iter().zip(pieces) {
            fold.add(pieces.expect("genome and configuration set must match the environment"));
        }
    }

    /// Runs `genome` on every configuration (in parallel) and aggregates
    /// the paper's fitness; memoized on the genome's canonical digits.
    ///
    /// # Panics
    ///
    /// Panics if the genome is incompatible with the environment (wrong
    /// grid kind) — a programming error in GA callers, which construct
    /// genomes from the evaluator's own spec.
    #[must_use]
    pub fn evaluate(&self, genome: &Genome) -> FitnessReport {
        if let Some(report) = self.cache.lookup(genome) {
            return report;
        }
        let report = self.evaluate_behaviour(&Behaviour::Single(genome.clone()));
        self.cache.insert(genome, report);
        report
    }

    /// Runs a full [`Behaviour`] (e.g. a time-shuffled FSM pair) over the
    /// configuration set — the extension of the authors' earlier work.
    /// Uncached (the cache is keyed on single genomes).
    ///
    /// # Panics
    ///
    /// Panics if the behaviour is incompatible with the environment.
    #[must_use]
    pub fn evaluate_behaviour(&self, behaviour: &Behaviour) -> FitnessReport {
        let started = a2a_obs::metrics_enabled().then(std::time::Instant::now);
        let runner = BatchRunner::new(&self.config, behaviour, self.t_max)
            .expect("behaviour and configuration set must match the environment");
        let mut fold = Fold::default();
        self.simulate(std::slice::from_ref(&runner), 0..self.configs.len(), [&mut fold]);
        record_genome_eval(started);
        fold.report()
    }

    /// Evaluates many genomes over the full set in one dispatch: their
    /// (runner, range) pieces share the pool, so no core waits on one
    /// genome's tail. Cached genomes — survivors, GA duplicates — skip
    /// simulation entirely; results are identical either way.
    #[must_use]
    pub fn evaluate_all(&self, genomes: &[Genome]) -> Vec<FitnessReport> {
        let mut reports: Vec<Option<FitnessReport>> =
            genomes.iter().map(|g| self.cache.lookup(g)).collect();
        let missing: Vec<usize> = (0..genomes.len()).filter(|&i| reports[i].is_none()).collect();
        if !missing.is_empty() {
            let started = a2a_obs::metrics_enabled().then(std::time::Instant::now);
            let runners: Vec<BatchRunner> =
                missing.iter().map(|&i| self.runner(&genomes[i])).collect();
            let mut folds = vec![Fold::default(); missing.len()];
            self.simulate(&runners, 0..self.configs.len(), &mut folds);
            for (&i, fold) in missing.iter().zip(&folds) {
                let report = fold.report();
                record_genome_eval(started);
                self.cache.insert(&genomes[i], report);
                reports[i] = Some(report);
            }
        }
        reports
            .into_iter()
            .map(|r| r.expect("every genome was resolved from cache or simulation"))
            .collect()
    }

    /// Evaluates `genomes` as candidates competing for the `keep`
    /// lowest-fitness slots of a pool whose current members have the
    /// exact fitnesses `incumbents`, pruning candidates that provably
    /// cannot make the cut.
    ///
    /// Configurations are run in growing blocks. After each block a
    /// candidate's exact mean fitness `F` is bracketed by
    /// `[fl(partial / N), fl(fold(partial, worstⱼ…) / N)]`, where
    /// `partial` is the left-fold of the per-configuration fitnesses in
    /// set order (the exact float order `FitnessReport` uses, so the
    /// bound brackets the *computed* value, not just the real-valued
    /// sum) and `worstⱼ = W·kⱼ + t_max` bounds configuration `j` from
    /// above. A candidate is pruned once at least `keep` digit-distinct
    /// competitors (incumbents, finished candidates, or other active
    /// candidates via their upper bounds) are *strictly* below its
    /// lower bound — then even under worst-case tie-breaking it cannot
    /// be among the `keep` best, so dropping it cannot change selection
    /// (see DESIGN.md §8 for the argument). Surviving candidates finish
    /// the full set and return reports bit-identical to
    /// [`Evaluator::evaluate`].
    ///
    /// Preconditions (asserted nowhere, relied on by the proof): the
    /// `incumbents` values belong to genomes digit-distinct from each
    /// other and from every genome in `genomes`. Duplicate digits
    /// *within* `genomes` are fine — they share one verdict.
    ///
    /// # Panics
    ///
    /// Panics if a genome is incompatible with the environment.
    #[must_use]
    pub fn evaluate_selection(
        &self,
        genomes: &[Genome],
        keep: usize,
        incumbents: &[f64],
    ) -> Vec<GenomeEval> {
        if genomes.is_empty() {
            return Vec::new();
        }
        let n_cfg = self.configs.len();
        // Group by canonical digits: duplicates share one evaluation
        // and one verdict.
        let mut group_of: Vec<usize> = Vec::with_capacity(genomes.len());
        let mut reps: Vec<usize> = Vec::new();
        let mut by_key: HashMap<(FsmSpec, String), usize> = HashMap::new();
        for (i, g) in genomes.iter().enumerate() {
            let gid = *by_key.entry((g.spec(), g.to_digits())).or_insert_with(|| {
                reps.push(i);
                reps.len() - 1
            });
            group_of.push(gid);
        }

        let mut verdicts: Vec<Option<GenomeEval>> = vec![None; reps.len()];
        let mut active: Vec<ActiveGroup> = Vec::new();
        for (gid, &rep) in reps.iter().enumerate() {
            if let Some(report) = self.cache.lookup(&genomes[rep]) {
                verdicts[gid] = Some(GenomeEval::Exact(report));
            } else {
                active.push(ActiveGroup {
                    gid,
                    runner: self.runner(&genomes[rep]),
                    fold: Fold::default(),
                });
            }
        }

        // Per-configuration worst-case fitness: no agent informed, full
        // horizon charged.
        let worst: Vec<f64> = self
            .configs
            .iter()
            .map(|c| self.weight * c.agent_count() as f64 + f64::from(self.t_max))
            .collect();
        let total = n_cfg as f64;
        let metrics = a2a_obs::metrics_enabled();

        let mut done = 0usize;
        while !active.is_empty() && done < n_cfg {
            // Geometric schedule: a small probing block, then doubling —
            // hopeless genomes die cheaply, survivors pay ~2x block
            // overhead at most.
            let block = if done == 0 {
                let probe = (n_cfg / 16).max(4);
                if probe > n_cfg { n_cfg } else { probe }
            } else {
                done.min(n_cfg - done)
            };
            let to = done + block;

            // Every active genome's block in one dispatch, folded in
            // configuration order: bit-identical to per-config runs, so
            // the bounds (and therefore selection) are unchanged.
            let runners: Vec<BatchRunner> = active.iter().map(|a| a.runner.clone()).collect();
            self.simulate(&runners, done..to, active.iter_mut().map(|a| &mut a.fold));
            done = to;
            if done >= n_cfg {
                break;
            }

            // Bounds per active group (see the doc comment): the upper
            // bound folds each remaining worst-case term sequentially,
            // so round-to-nearest monotonicity applies per addition.
            let bounds: Vec<(f64, f64)> = active
                .iter()
                .map(|a| {
                    let lower = a.fold.sum / total;
                    let mut acc = a.fold.sum;
                    for w in &worst[done..] {
                        acc += *w;
                    }
                    (lower, acc / total)
                })
                .collect();
            let mut finished_uppers: Vec<f64> = incumbents.to_vec();
            for v in verdicts.iter().flatten() {
                if let GenomeEval::Exact(r) = v {
                    finished_uppers.push(r.fitness);
                }
            }
            let mut kept = Vec::with_capacity(active.len());
            for (idx, a) in active.into_iter().enumerate() {
                let (lower, upper) = bounds[idx];
                let strictly_better = finished_uppers.iter().filter(|&&u| u < lower).count()
                    + bounds
                        .iter()
                        .enumerate()
                        .filter(|&(j, &(_, u))| j != idx && u < lower)
                        .count();
                if strictly_better >= keep {
                    if metrics {
                        let reg = a2a_obs::global();
                        reg.counter("ga.pruned.genomes").incr();
                        reg.counter("ga.pruned.configs").add((n_cfg - done) as u64);
                    }
                    verdicts[a.gid] =
                        Some(GenomeEval::Pruned(PruneBound { lower, upper, configs_run: done }));
                } else {
                    kept.push(a);
                }
            }
            active = kept;
        }

        // Survivors ran the full set: their fold is the exact report
        // (bit-identical to `evaluate`); cache it.
        for a in active {
            let report = a.fold.report();
            self.cache.insert(&genomes[reps[a.gid]], report);
            verdicts[a.gid] = Some(GenomeEval::Exact(report));
        }
        group_of
            .into_iter()
            .map(|gid| {
                verdicts[gid].clone().expect("every digit group resolved to a verdict")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_fsm::{best_s_agent, best_t_agent, FsmSpec};
    use a2a_grid::GridKind;
    use a2a_sim::paper_config_set;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn evaluator(kind: GridKind, k: usize, n: usize) -> Evaluator {
        let cfg = WorldConfig::paper(kind, 16);
        let configs = paper_config_set(cfg.lattice, kind, k, n, 7).unwrap();
        Evaluator::new(cfg, configs)
    }

    #[test]
    fn best_agents_are_completely_successful_on_small_sets() {
        for (kind, genome) in [
            (GridKind::Square, best_s_agent()),
            (GridKind::Triangulate, best_t_agent()),
        ] {
            let eval = evaluator(kind, 8, 30);
            let report = eval.evaluate(&genome);
            assert!(report.is_completely_successful(), "{kind}: {report:?}");
            // Completely successful ⇒ fitness equals mean t_comm.
            let mean = report.mean_t_comm.unwrap();
            assert!((report.fitness - mean).abs() < 1e-9);
            assert!(mean < 150.0);
        }
    }

    #[test]
    fn random_genomes_rank_below_best() {
        let eval = evaluator(GridKind::Triangulate, 8, 20);
        let mut rng = SmallRng::seed_from_u64(0);
        let random = Genome::random(FsmSpec::paper(GridKind::Triangulate), &mut rng);
        let best = eval.evaluate(&best_t_agent());
        let rnd = eval.evaluate(&random);
        assert!(best.fitness < rnd.fitness, "best {best:?} vs random {rnd:?}");
    }

    #[test]
    fn evaluate_all_matches_evaluate() {
        let eval = evaluator(GridKind::Square, 4, 10).with_threads(2);
        let mut rng = SmallRng::seed_from_u64(1);
        let genomes: Vec<Genome> = (0..4)
            .map(|_| Genome::random(FsmSpec::paper(GridKind::Square), &mut rng))
            .collect();
        let batch = eval.evaluate_all(&genomes);
        for (g, r) in genomes.iter().zip(&batch) {
            assert_eq!(&eval.evaluate(g), r);
        }
    }

    #[test]
    fn failed_configs_dominate_fitness() {
        // With horizon 0 nothing can be solved unless already adjacent.
        let eval = evaluator(GridKind::Square, 8, 10).with_t_max(0);
        let report = eval.evaluate(&best_s_agent());
        assert!(!report.is_completely_successful());
        assert!(report.fitness >= PAPER_WEIGHT, "dominance term kicks in");
        assert_eq!(report.mean_t_comm, None, "no success, no mean");
    }

    #[test]
    #[should_panic(expected = "at least one configuration")]
    fn empty_config_set_rejected() {
        let cfg = WorldConfig::paper(GridKind::Square, 16);
        let _ = Evaluator::new(cfg, Vec::new());
    }

    #[test]
    fn report_json_round_trips() {
        let solved = FitnessReport {
            fitness: 42.5,
            successes: 30,
            total: 30,
            mean_t_comm: Some(42.5),
        };
        let back = FitnessReport::from_json(&solved.to_json()).unwrap();
        assert_eq!(back, solved);

        // The zero-success report used to serialise `NaN`, which is not
        // valid JSON; it must round-trip through `null` instead.
        let failed = FitnessReport {
            fitness: PAPER_WEIGHT * 8.0,
            successes: 0,
            total: 30,
            mean_t_comm: None,
        };
        let text = failed.to_json().to_string();
        assert!(text.contains("\"mean_t_comm\":null"), "{text}");
        assert!(!text.contains("NaN"), "{text}");
        let parsed = a2a_obs::json::parse(&text).unwrap();
        assert_eq!(FitnessReport::from_json(&parsed).unwrap(), failed);
    }

    #[test]
    fn evaluate_is_memoized() {
        let eval = evaluator(GridKind::Square, 4, 10);
        let genome = best_s_agent();
        let first = eval.evaluate(&genome);
        let hits_before = eval.cache().hits();
        let second = eval.evaluate(&genome);
        assert_eq!(first, second);
        assert_eq!(eval.cache().hits(), hits_before + 1, "second call hits the cache");
    }

    #[test]
    fn selection_matches_exhaustive_ranking() {
        // Small smoke check; the heavy differential test lives in
        // tests/equivalence.rs.
        let eval = evaluator(GridKind::Triangulate, 4, 12).with_threads(2);
        let spec = FsmSpec::paper(GridKind::Triangulate);
        let mut rng = SmallRng::seed_from_u64(9);
        let genomes: Vec<Genome> = (0..6).map(|_| Genome::random(spec, &mut rng)).collect();
        let exhaustive = evaluator(GridKind::Triangulate, 4, 12).evaluate_all(&genomes);
        let verdicts = eval.evaluate_selection(&genomes, 2, &[]);
        let mut order: Vec<usize> = (0..genomes.len()).collect();
        order.sort_by(|&a, &b| exhaustive[a].fitness.total_cmp(&exhaustive[b].fitness));
        for &i in &order[..2] {
            match &verdicts[i] {
                GenomeEval::Exact(r) => assert_eq!(r, &exhaustive[i]),
                GenomeEval::Pruned(b) => panic!("top genome pruned: {b:?}"),
            }
        }
        for (i, v) in verdicts.iter().enumerate() {
            if let GenomeEval::Exact(r) = v {
                assert_eq!(r, &exhaustive[i], "exact verdicts are bit-identical");
            }
        }
    }

    #[test]
    fn duplicate_genomes_share_one_verdict() {
        let eval = evaluator(GridKind::Square, 4, 10);
        let g = best_s_agent();
        let verdicts = eval.evaluate_selection(&[g.clone(), g.clone()], 1, &[]);
        assert_eq!(verdicts[0], verdicts[1]);
        assert!(!verdicts[0].is_pruned());
    }
}
