//! Synchronous CA multi-agent simulator reproducing the model of
//! Hoffmann & Désérable, *CA Agents for All-to-All Communication Are
//! Faster in the Triangulate Grid* (PaCT 2013), Sect. 3.
//!
//! `k` FSM-controlled agents move on a cyclic square or triangulate field,
//! leave 1-bit colour traces ("pheromones"), resolve movement conflicts by
//! ID priority, and OR their communication vectors with all agents in
//! their von-Neumann neighbourhood each step. The task is solved when
//! every agent holds the all-ones vector; the counted step at which that
//! happens is the communication time `t_comm`.
//!
//! * [`World`] — the CA state and its synchronous `step`: the reference
//!   engine and semantic oracle;
//! * [`MultiWorld`] / [`BatchRunner`] — the fast engine: one compiled
//!   genome run over many configurations, one run at a time on a
//!   kernel world reloaded per configuration, checked against `World`
//!   step for step. The crate is serial; `a2a-ga`'s `WorkerPool`
//!   shards configuration sets across threads;
//! * [`WorldConfig`] — environment and policy knobs
//!   ([`ConflictPolicy`], [`InitStatePolicy`], [`ColorInit`], obstacles,
//!   borders);
//! * [`InitialConfig`] / [`paper_config_set`] — seeded random fields plus
//!   the paper's three manual hard cases (Sect. 4);
//! * [`run_to_completion`] / [`simulate`] — driving a run and summarising
//!   it as a [`RunOutcome`] with the paper's fitness;
//! * [`render_snapshot`] — Fig. 6/7-style ASCII views (agents, colours,
//!   visited streets).
//!
//! # Examples
//!
//! Measuring the communication time of the published best T-agent on one
//! random 16×16 configuration:
//!
//! ```
//! use a2a_sim::{simulate, InitialConfig, WorldConfig};
//! use a2a_fsm::best_t_agent;
//! use a2a_grid::GridKind;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! # fn main() -> Result<(), a2a_sim::SimError> {
//! let cfg = WorldConfig::paper(GridKind::Triangulate, 16);
//! let mut rng = SmallRng::seed_from_u64(2013);
//! let init = InitialConfig::random(cfg.lattice, cfg.kind, 16, &[], &mut rng)?;
//! let outcome = simulate(&cfg, best_t_agent(), &init, 1000)?;
//! assert!(outcome.is_successful());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod agent;
mod batch;
mod behaviour;
mod config;
mod decide;
mod error;
mod infoset;
mod init;
mod kernel;
mod multi;
mod recorder;
mod render;
mod run;
mod world;

pub use agent::Agent;
pub use batch::BatchRunner;
pub use behaviour::Behaviour;
pub use config::{ColorInit, ConflictPolicy, InitStatePolicy, WorldConfig};
pub use decide::{decide, Decision};
pub use error::SimError;
pub use infoset::InfoSet;
pub use init::{paper_config_set, InitialConfig};
pub use multi::MultiWorld;
pub use recorder::{record_trajectory, AgentSnapshot, Frame, TimedEvent, Trajectory};
pub use render::{render_agents, render_colors, render_snapshot, render_visited};
pub use run::{run_to_completion, run_with_profile, simulate, simulate_behaviour, RunOutcome};
pub use world::World;
