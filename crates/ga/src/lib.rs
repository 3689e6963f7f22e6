//! The genetic procedure of Hoffmann & Désérable (PaCT 2013), Sect. 4:
//! evolving agent FSMs for the all-to-all communication task.
//!
//! The procedure is mutation-only: each generation the top `N/2`
//! individuals produce one offspring each by incrementing every genome
//! field with probability 18 %; the union is sorted by the dominance
//! fitness `F = W·(N_agents − informed) + t_comm` (`W = 10⁴`), duplicates
//! are deleted, the pool is truncated to `N = 20`, and individuals 7,8,9
//! are exchanged with 10,11,12 to preserve diversity.
//!
//! * [`Evaluator`] — adaptive fitness evaluation over a configuration
//!   set: persistent [`WorkerPool`], genome memoization
//!   ([`FitnessCache`]) and exact bound-based pruning
//!   ([`Evaluator::evaluate_selection`]) — see DESIGN.md §8;
//! * [`Evolution`] / [`GaConfig`] — the generational loop;
//! * [`screen`] — reliability screening across agent densities (Sect. 5);
//! * [`WorkerPool`] — the workspace's one executor: [`WorkerPool::map`]
//!   over any shared item set, and [`WorkerPool::run_ranges`] sharding
//!   one shared configuration set across threads in [`DISPATCH_BLOCK`]
//!   index ranges, for several runners at once.
//!
//! # Examples
//!
//! A miniature evolution run (the real experiments use larger sets; see
//! the `evolve_run` binary in `a2a-bench`):
//!
//! ```
//! use a2a_ga::{Evaluator, Evolution, GaConfig};
//! use a2a_fsm::FsmSpec;
//! use a2a_grid::GridKind;
//! use a2a_sim::{paper_config_set, WorldConfig};
//!
//! # fn main() -> Result<(), a2a_sim::SimError> {
//! let env = WorldConfig::paper(GridKind::Square, 8);
//! let configs = paper_config_set(env.lattice, env.kind, 4, 8, 1)?;
//! let ga = Evolution::new(
//!     FsmSpec::paper(GridKind::Square),
//!     Evaluator::new(env, configs),
//!     GaConfig::paper(5, 42),
//! );
//! let outcome = ga.run(|_| ());
//! assert_eq!(outcome.history.len(), 6); // initial pool + 5 generations
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod cache;
mod crossover;
mod evolve;
mod fitness;
mod islands;
mod pool;
mod reliability;

pub use cache::{FitnessCache, DEFAULT_CACHE_CAPACITY};
pub use crossover::{one_point, uniform, ReproductionStrategy};
pub use evolve::{
    Evolution, EvolutionOutcome, GaConfig, GenerationStats, Individual, ResumableRun, RunControl,
    RunState,
};
pub use fitness::{
    Evaluator, FitnessReport, GenomeEval, PruneBound, PAPER_T_MAX, PAPER_WEIGHT,
};
pub use islands::{
    run_islands, run_islands_resumable, IslandConfig, IslandOutcome, IslandsState,
    ResumableIslands,
};
pub use pool::{default_threads, WorkerPool, DEFAULT_TASK_DEADLINE, DISPATCH_BLOCK, MAX_STRIKES};
pub use reliability::{screen, DensityReport, ReliabilityReport};
