//! Batch evaluation: one compiled environment, many initial
//! configurations.
//!
//! The GA fitness workload evaluates a single genome on dozens to hundreds
//! of initial configurations. [`BatchRunner`] compiles the genome and the
//! environment once (neighbour tables, the empty-field cell image,
//! per-phase FSM tables) and shares them across every run through an
//! [`Arc`], so per-configuration cost is placement + simulation only.
//! Runs go one at a time through a one-run [`MultiWorld`] taken from a
//! per-thread pool and reloaded for each configuration. `BatchRunner`
//! is `Sync`: `outcome_for` takes `&self`, which lets callers fan
//! configurations out over threads, and `run_all` shards fixed
//! [`DISPATCH_BLOCK`] ranges across an attached [`Dispatch`] executor.

use crate::behaviour::Behaviour;
use crate::config::WorldConfig;
use crate::dispatch::{Dispatch, DispatchJob};
use crate::error::SimError;
use crate::init::InitialConfig;
use crate::kernel::KernelEnv;
use crate::multi::MultiWorld;
use crate::run::RunOutcome;
use a2a_fsm::Genome;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Configurations per job when [`BatchRunner::run_all`] shards a batch
/// across a [`Dispatch`] executor. Results are committed in range
/// order, so outcomes do not depend on it.
pub const DISPATCH_BLOCK: usize = 64;

/// Worlds kept warm per thread. GA workers interleave at most a handful
/// of runners (one per genome being pruned in a block), so a small pool
/// already gives near-perfect reuse; anything colder is rebuilt.
const POOL_LIMIT: usize = 4;

thread_local! {
    /// Per-thread pool of compiled worlds, most recently used at the
    /// back. Each pooled world pins its own `Arc<KernelEnv>`, so
    /// matching by pointer identity ([`MultiWorld::shares_env`]) cannot
    /// alias a recycled allocation. A `VecDeque` makes the cold-end
    /// eviction O(1) — with a `Vec`, every eviction shifted the whole
    /// pool.
    static MULTI_POOL: RefCell<VecDeque<MultiWorld>> = const { RefCell::new(VecDeque::new()) };
}

/// Takes the most recent pooled world compiled from `env`, if any.
fn take_pooled(env: &Arc<KernelEnv>) -> Option<MultiWorld> {
    MULTI_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        pool.iter().rposition(|w| w.shares_env(env)).and_then(|i| pool.remove(i))
    })
}

/// Returns a world to this thread's pool, evicting the coldest entry
/// when full.
fn return_pooled(world: MultiWorld) {
    MULTI_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() >= POOL_LIMIT {
            pool.pop_front();
            if a2a_obs::metrics_enabled() {
                a2a_obs::global().counter("kernel.pool.evictions").incr();
            }
        }
        pool.push_back(world);
    });
}

/// Evaluates one behaviour over many initial configurations on the
/// one-run [`MultiWorld`] kernel.
///
/// # Examples
///
/// ```
/// use a2a_sim::{BatchRunner, InitialConfig, WorldConfig};
/// use a2a_fsm::best_t_agent;
/// use a2a_grid::GridKind;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// # fn main() -> Result<(), a2a_sim::SimError> {
/// let cfg = WorldConfig::paper(GridKind::Triangulate, 16);
/// let runner = BatchRunner::from_genome(&cfg, best_t_agent(), 200)?;
/// let mut rng = SmallRng::seed_from_u64(3);
/// let init = InitialConfig::random(cfg.lattice, cfg.kind, 16, &[], &mut rng)?;
/// assert!(runner.outcome_for(&init)?.is_successful());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchRunner {
    env: Arc<KernelEnv>,
    t_max: u32,
    /// The executor [`BatchRunner::run_all`] shards configuration
    /// ranges across; `None` (the default) runs everything on the
    /// calling thread. Results are committed in submission order either
    /// way, so outcomes are bit-identical across executors.
    dispatch: Option<Arc<dyn Dispatch>>,
}

impl BatchRunner {
    /// Compiles `behaviour` against `config` for runs capped at `t_max`
    /// counted steps.
    ///
    /// # Errors
    ///
    /// The environment checks of [`crate::World::with_behaviour`]:
    /// inconsistent behaviours, grid-kind mismatch, invalid obstacles or
    /// colour patterns.
    pub fn new(
        config: &WorldConfig,
        behaviour: &Behaviour,
        t_max: u32,
    ) -> Result<Self, SimError> {
        Ok(Self { env: Arc::new(KernelEnv::new(config, behaviour)?), t_max, dispatch: None })
    }

    /// Attaches a parallel executor: [`BatchRunner::run_all`] shards
    /// [`DISPATCH_BLOCK`] ranges of the configuration set across it,
    /// committing range results in submission order — outcomes stay
    /// bit-identical to the serial path (the differential suite enforces
    /// this). Pass the GA worker pool through its `Dispatch` impl.
    #[must_use]
    pub fn with_dispatch(mut self, dispatch: Arc<dyn Dispatch>) -> Self {
        self.dispatch = Some(dispatch);
        self
    }

    /// Worker threads the attached executor offers (`1` without one).
    #[must_use]
    pub fn dispatch_workers(&self) -> usize {
        self.dispatch.as_ref().map_or(1, |d| d.workers().max(1))
    }

    /// [`BatchRunner::new`] for the paper's single-FSM behaviour.
    ///
    /// # Errors
    ///
    /// As [`BatchRunner::new`].
    pub fn from_genome(config: &WorldConfig, genome: Genome, t_max: u32) -> Result<Self, SimError> {
        Self::new(config, &Behaviour::Single(genome), t_max)
    }

    /// The run horizon in counted steps.
    #[must_use]
    pub fn t_max(&self) -> u32 {
        self.t_max
    }

    /// Runs one initial configuration to completion (or the horizon)
    /// on a pooled per-thread [`MultiWorld`] — the same world pool
    /// [`BatchRunner::run_all`] draws from, so the steady state performs
    /// no per-run world allocation (see [`MultiWorld::allocation_count`]).
    /// Outcomes are identical to [`BatchRunner::fresh_outcome_for`].
    ///
    /// # Errors
    ///
    /// The placement checks of [`crate::World::with_behaviour`]: invalid
    /// positions or directions, duplicates, agents on obstacles.
    pub fn outcome_for(&self, init: &InitialConfig) -> Result<RunOutcome, SimError> {
        Ok(self.run_block(std::slice::from_ref(init))?[0])
    }

    /// [`BatchRunner::outcome_for`] without the per-thread world pool: a
    /// fresh [`MultiWorld`] per call: the fresh-world reference the pool
    /// tests and `tests/allocation.rs` check the pooled path against.
    ///
    /// # Errors
    ///
    /// As [`BatchRunner::outcome_for`].
    pub fn fresh_outcome_for(&self, init: &InitialConfig) -> Result<RunOutcome, SimError> {
        let mut world = MultiWorld::from_env(Arc::clone(&self.env));
        world.load(init)?;
        Ok(world.run(self.t_max))
    }

    /// Runs every configuration in order, one at a time on a pooled
    /// per-thread [`MultiWorld`]. With an executor attached
    /// ([`BatchRunner::with_dispatch`]) [`DISPATCH_BLOCK`] ranges are
    /// sharded across it; outcomes are bit-identical either way, and
    /// bit-identical to mapping [`BatchRunner::outcome_for`] over the
    /// configurations.
    ///
    /// # Errors
    ///
    /// The first placement error encountered, as [`BatchRunner::outcome_for`].
    pub fn run_all(&self, inits: &[InitialConfig]) -> Result<Vec<RunOutcome>, SimError> {
        let _span = a2a_obs::Span::enter("batch.run_all");
        let blocks = inits.len().div_ceil(DISPATCH_BLOCK);
        let parallel = self
            .dispatch
            .as_ref()
            .filter(|d| d.workers() > 1 && blocks > 1);
        if a2a_obs::metrics_enabled() {
            let occupied = parallel.map_or(1, |d| d.workers().min(blocks));
            a2a_obs::global().gauge("kernel.dispatch.workers").set(occupied as i64);
        }
        let outcomes = match parallel {
            Some(dispatch) => self.run_blocks_parallel(dispatch, inits)?,
            None => self.run_block(inits)?,
        };
        a2a_obs::event!(a2a_obs::Level::Debug, "batch.run_all",
            "configs" => outcomes.len(),
            "successful" => outcomes.iter().filter(|o| o.is_successful()).count(),
            "t_max" => self.t_max);
        Ok(outcomes)
    }

    /// Runs a block of configurations one at a time on a pooled
    /// per-thread [`MultiWorld`] — the unit of work the serial path,
    /// the parallel dispatcher and the one-run
    /// [`BatchRunner::outcome_for`] all execute.
    fn run_block(&self, block: &[InitialConfig]) -> Result<Vec<RunOutcome>, SimError> {
        let mut world = match take_pooled(&self.env) {
            Some(world) => {
                if a2a_obs::metrics_enabled() {
                    a2a_obs::global().counter("kernel.pool.reuse").incr();
                }
                world
            }
            None => {
                if a2a_obs::metrics_enabled() {
                    a2a_obs::global().counter("kernel.pool.fresh").incr();
                }
                MultiWorld::from_env(Arc::clone(&self.env))
            }
        };
        let mut outcomes = Vec::with_capacity(block.len());
        for init in block {
            // A failed load leaves the world empty; it is dropped with
            // the error rather than pooled.
            world.load(init)?;
            outcomes.push(world.run(self.t_max));
        }
        return_pooled(world);
        Ok(outcomes)
    }

    /// Shards [`DISPATCH_BLOCK`] ranges across `dispatch` and commits
    /// the results in submission order, which makes the outcome vector
    /// — and the first reported error — independent of scheduling. Jobs
    /// only write their own pre-assigned slot; a slot the executor
    /// failed to deliver (e.g. a worker died mid-batch) is detected by
    /// the commit loop and re-run inline, so the result is total.
    fn run_blocks_parallel(
        &self,
        dispatch: &Arc<dyn Dispatch>,
        inits: &[InitialConfig],
    ) -> Result<Vec<RunOutcome>, SimError> {
        type Slot = Mutex<Option<Result<Vec<RunOutcome>, SimError>>>;
        let blocks: Arc<Vec<Vec<InitialConfig>>> =
            Arc::new(inits.chunks(DISPATCH_BLOCK).map(<[InitialConfig]>::to_vec).collect());
        let slots: Arc<Vec<Slot>> =
            Arc::new((0..blocks.len()).map(|_| Mutex::new(None)).collect());
        let jobs: Vec<DispatchJob> = (0..blocks.len())
            .map(|b| {
                let blocks = Arc::clone(&blocks);
                let slots = Arc::clone(&slots);
                let runner = self.clone();
                Box::new(move || {
                    let result = runner.run_block(&blocks[b]);
                    *slots[b].lock().expect("slot poisoned") = Some(result);
                }) as DispatchJob
            })
            .collect();
        dispatch.run_jobs(jobs);
        let mut outcomes: Vec<RunOutcome> = Vec::with_capacity(inits.len());
        for (b, slot) in slots.iter().enumerate() {
            let result = match slot.lock().expect("slot poisoned").take() {
                Some(result) => result,
                // Undelivered: repair deterministically on this thread.
                None => self.run_block(&blocks[b]),
            };
            outcomes.extend(result?);
        }
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::simulate;
    use a2a_fsm::best_agent;
    use a2a_grid::GridKind;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn batch_outcomes_equal_oracle_simulate() {
        for kind in [GridKind::Square, GridKind::Triangulate] {
            let cfg = WorldConfig::paper(kind, 16);
            let genome = best_agent(kind);
            let runner = BatchRunner::from_genome(&cfg, genome.clone(), 200).unwrap();
            let mut rng = SmallRng::seed_from_u64(77);
            for _ in 0..10 {
                let init =
                    InitialConfig::random(cfg.lattice, kind, 12, &[], &mut rng).unwrap();
                let fast = runner.outcome_for(&init).unwrap();
                let slow = simulate(&cfg, genome.clone(), &init, 200).unwrap();
                assert_eq!(fast, slow, "{kind}");
            }
        }
    }

    #[test]
    fn runner_is_shareable_across_threads() {
        let cfg = WorldConfig::paper(GridKind::Triangulate, 16);
        let runner = BatchRunner::from_genome(&cfg, best_agent(cfg.kind), 200).unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        let inits: Vec<InitialConfig> = (0..8)
            .map(|_| InitialConfig::random(cfg.lattice, cfg.kind, 8, &[], &mut rng).unwrap())
            .collect();
        let serial = runner.run_all(&inits).unwrap();
        let parallel: Vec<RunOutcome> = std::thread::scope(|scope| {
            inits
                .iter()
                .map(|init| scope.spawn(|| runner.outcome_for(init).unwrap()))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn environment_errors_surface_at_construction() {
        let cfg = WorldConfig::paper(GridKind::Square, 16);
        assert!(matches!(
            BatchRunner::from_genome(&cfg, best_agent(GridKind::Triangulate), 200),
            Err(SimError::SpecMismatch(_))
        ));
    }

    #[test]
    fn pooled_outcomes_equal_fresh_outcomes() {
        for kind in [GridKind::Square, GridKind::Triangulate] {
            let cfg = WorldConfig::paper(kind, 16);
            let runner = BatchRunner::from_genome(&cfg, best_agent(kind), 200).unwrap();
            let mut rng = SmallRng::seed_from_u64(123);
            for k in [4usize, 16, 9, 16] {
                let init = InitialConfig::random(cfg.lattice, kind, k, &[], &mut rng).unwrap();
                assert_eq!(
                    runner.outcome_for(&init).unwrap(),
                    runner.fresh_outcome_for(&init).unwrap(),
                    "{kind} k={k}"
                );
            }
        }
    }

    #[test]
    fn pool_keeps_interleaved_runners_separate() {
        // Two different genomes alternating on one thread: each reuse
        // must pick the world compiled for *its* environment.
        let cfg = WorldConfig::paper(GridKind::Triangulate, 16);
        let a = BatchRunner::from_genome(&cfg, best_agent(cfg.kind), 200).unwrap();
        let mut wanderer = best_agent(cfg.kind);
        {
            use rand::rngs::SmallRng as R;
            use rand::SeedableRng;
            let mut rng = R::seed_from_u64(5);
            wanderer = a2a_fsm::offspring(&wanderer, a2a_fsm::MutationRates::paper(), &mut rng);
        }
        let b = BatchRunner::from_genome(&cfg, wanderer, 200).unwrap();
        let mut rng = SmallRng::seed_from_u64(31);
        for _ in 0..6 {
            let init = InitialConfig::random(cfg.lattice, cfg.kind, 12, &[], &mut rng).unwrap();
            assert_eq!(a.outcome_for(&init).unwrap(), a.fresh_outcome_for(&init).unwrap());
            assert_eq!(b.outcome_for(&init).unwrap(), b.fresh_outcome_for(&init).unwrap());
        }
    }

    #[test]
    fn failed_reset_does_not_poison_the_pool() {
        let cfg = WorldConfig::paper(GridKind::Square, 16);
        let runner = BatchRunner::from_genome(&cfg, best_agent(cfg.kind), 200).unwrap();
        let mut rng = SmallRng::seed_from_u64(8);
        let good = InitialConfig::random(cfg.lattice, cfg.kind, 8, &[], &mut rng).unwrap();
        let _ = runner.outcome_for(&good).unwrap();
        let dup = InitialConfig::new(vec![
            (a2a_grid::Pos::new(1, 1), a2a_grid::Dir::new(0)),
            (a2a_grid::Pos::new(1, 1), a2a_grid::Dir::new(0)),
        ]);
        assert!(runner.outcome_for(&dup).is_err());
        // Subsequent pooled runs still match the fresh path.
        let next = InitialConfig::random(cfg.lattice, cfg.kind, 8, &[], &mut rng).unwrap();
        assert_eq!(
            runner.outcome_for(&next).unwrap(),
            runner.fresh_outcome_for(&next).unwrap()
        );
    }

    #[test]
    fn placement_errors_surface_per_configuration() {
        let cfg = WorldConfig::paper(GridKind::Square, 16);
        let runner = BatchRunner::from_genome(&cfg, best_agent(cfg.kind), 200).unwrap();
        let dup = InitialConfig::new(vec![
            (a2a_grid::Pos::new(1, 1), a2a_grid::Dir::new(0)),
            (a2a_grid::Pos::new(1, 1), a2a_grid::Dir::new(0)),
        ]);
        assert!(matches!(
            runner.outcome_for(&dup),
            Err(SimError::DuplicatePosition(_))
        ));
        // run_all reports the first failing configuration's error, just
        // like the serial per-config loop did.
        let mut rng = SmallRng::seed_from_u64(2);
        let good = InitialConfig::random(cfg.lattice, cfg.kind, 4, &[], &mut rng).unwrap();
        assert!(matches!(
            runner.run_all(&[good, dup]),
            Err(SimError::DuplicatePosition(_))
        ));
    }

    #[test]
    fn empty_batch_returns_empty_on_every_path() {
        let cfg = WorldConfig::paper(GridKind::Square, 16);
        let runner = BatchRunner::from_genome(&cfg, best_agent(cfg.kind), 200).unwrap();
        assert!(runner.run_all(&[]).unwrap().is_empty());
        let threaded = runner.with_dispatch(Arc::new(ThreadedDispatch(2)));
        assert!(threaded.run_all(&[]).unwrap().is_empty());
    }

    /// A real multi-threaded executor for the dispatch tests:
    /// round-robins jobs over `N` scoped threads.
    #[derive(Debug)]
    struct ThreadedDispatch(usize);

    impl crate::Dispatch for ThreadedDispatch {
        fn run_jobs(&self, jobs: Vec<crate::DispatchJob>) {
            let mut buckets: Vec<Vec<crate::DispatchJob>> =
                (0..self.0).map(|_| Vec::new()).collect();
            for (i, job) in jobs.into_iter().enumerate() {
                buckets[i % self.0].push(job);
            }
            std::thread::scope(|scope| {
                for bucket in buckets {
                    scope.spawn(move || {
                        for job in bucket {
                            job();
                        }
                    });
                }
            });
        }

        fn workers(&self) -> usize {
            self.0
        }
    }

    /// A hostile executor that silently drops every odd-indexed job —
    /// the commit loop must repair the holes inline.
    #[derive(Debug)]
    struct LossyDispatch;

    impl crate::Dispatch for LossyDispatch {
        fn run_jobs(&self, jobs: Vec<crate::DispatchJob>) {
            for (i, job) in jobs.into_iter().enumerate() {
                if i % 2 == 0 {
                    job();
                }
            }
        }

        fn workers(&self) -> usize {
            2
        }
    }

    #[test]
    fn dispatched_run_all_is_bit_identical_to_serial() {
        let cfg = WorldConfig::paper(GridKind::Triangulate, 16);
        let runner = BatchRunner::from_genome(&cfg, best_agent(cfg.kind), 200).unwrap();
        let mut rng = SmallRng::seed_from_u64(606);
        // Enough configurations for several dispatch blocks.
        let inits: Vec<InitialConfig> = (0..3 * DISPATCH_BLOCK + 7)
            .map(|_| InitialConfig::random(cfg.lattice, cfg.kind, 16, &[], &mut rng).unwrap())
            .collect();
        let serial = runner.run_all(&inits).unwrap();
        let threaded = runner.clone().with_dispatch(Arc::new(ThreadedDispatch(3)));
        assert_eq!(threaded.run_all(&inits).unwrap(), serial);
        assert_eq!(threaded.dispatch_workers(), 3);
        // A lossy executor leaves holes; the ordered commit repairs
        // them inline and the result is still bit-identical.
        let lossy = runner.clone().with_dispatch(Arc::new(LossyDispatch));
        assert_eq!(lossy.run_all(&inits).unwrap(), serial);
    }

    #[test]
    fn dispatched_run_all_reports_the_first_error_in_batch_order() {
        let cfg = WorldConfig::paper(GridKind::Square, 16);
        let runner = BatchRunner::from_genome(&cfg, best_agent(cfg.kind), 200).unwrap();
        let mut rng = SmallRng::seed_from_u64(607);
        let block = DISPATCH_BLOCK;
        let mut inits: Vec<InitialConfig> = (0..3 * block)
            .map(|_| InitialConfig::random(cfg.lattice, cfg.kind, 8, &[], &mut rng).unwrap())
            .collect();
        // Earlier block: a duplicate placement. Later block: an
        // out-of-field position. Batch order decides which one wins,
        // regardless of which job finishes first.
        inits[block + 1] = InitialConfig::new(vec![
            (a2a_grid::Pos::new(1, 1), a2a_grid::Dir::new(0)),
            (a2a_grid::Pos::new(1, 1), a2a_grid::Dir::new(0)),
        ]);
        inits[2 * block + 1] =
            InitialConfig::new(vec![(a2a_grid::Pos::new(99, 0), a2a_grid::Dir::new(0))]);
        let threaded = runner.clone().with_dispatch(Arc::new(ThreadedDispatch(3)));
        assert!(matches!(
            threaded.run_all(&inits),
            Err(SimError::DuplicatePosition(_))
        ));
    }

    #[test]
    fn run_all_matches_per_config_outcomes() {
        // The pooled path must be bit-identical to the reference oracle
        // run config by config — ragged agent counts included — and so
        // must the one-run path.
        for kind in [GridKind::Square, GridKind::Triangulate] {
            let cfg = WorldConfig::paper(kind, 16);
            let runner = BatchRunner::from_genome(&cfg, best_agent(kind), 200).unwrap();
            let mut rng = SmallRng::seed_from_u64(55);
            let inits: Vec<InitialConfig> = [16usize, 1, 8, 70, 16, 16, 2, 33]
                .iter()
                .map(|&k| InitialConfig::random(cfg.lattice, kind, k, &[], &mut rng).unwrap())
                .collect();
            let singles: Vec<RunOutcome> =
                inits.iter().map(|i| simulate(&cfg, best_agent(kind), i, 200).unwrap()).collect();
            assert_eq!(runner.run_all(&inits).unwrap(), singles, "{kind}");
            let one_by_one: Vec<RunOutcome> =
                inits.iter().map(|i| runner.outcome_for(i).unwrap()).collect();
            assert_eq!(one_by_one, singles, "{kind}");
        }
    }
}
