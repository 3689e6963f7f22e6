//! Crash-safe evolution runs (DESIGN.md §9).
//!
//! The GA crate exposes resumable cores
//! ([`a2a_ga::Evolution::run_resumable`], [`a2a_ga::run_islands_resumable`])
//! that report a complete resumable state at every generation/epoch
//! boundary; this crate gives that state a durable form and a policy:
//!
//! * [`checkpoint`] — the sealed `a2a-run/checkpoint/v1` JSON document
//!   (RNG state, full pool, history, context digest, counters);
//! * `sealed` — `SealedDir`, the one read/write seam of every durable
//!   document under the stores (fault probe, seal check, atomic publish;
//!   absent is `None`, corrupt is an error);
//! * [`store`] — a rolling `checkpoint.json` per run directory, written
//!   atomically so crashes never corrupt the last good checkpoint;
//! * [`harness`] — [`run_evolution`] / [`run_islands_checkpointed`]:
//!   work-driven persistence, digest-guarded resume, and the
//!   simulated-kill probe the chaos suite drives.
//!
//! The headline guarantee, enforced by the `equivalence` integration
//! test on both grid families: a run that is killed and resumed from its
//! checkpoint produces a **bit-identical** [`a2a_ga::EvolutionOutcome`]
//! to the uninterrupted run.
//!
//! # Examples
//!
//! ```
//! use a2a_run::{run_evolution, CheckpointStore, RunOptions};
//! use a2a_ga::{Evaluator, GaConfig};
//! use a2a_fsm::FsmSpec;
//! use a2a_grid::GridKind;
//! use a2a_sim::{paper_config_set, WorldConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let env = WorldConfig::paper(GridKind::Square, 8);
//! let configs = paper_config_set(env.lattice, env.kind, 4, 8, 1)?;
//! let evaluator = Evaluator::new(env, configs);
//! let dir = std::env::temp_dir().join("a2a_run_doctest");
//! let opts = RunOptions::persisting(CheckpointStore::new(&dir));
//! let report = run_evolution(
//!     FsmSpec::paper(GridKind::Square),
//!     &evaluator,
//!     GaConfig::paper(2, 42),
//!     Vec::new(),
//!     &opts,
//!     |_| (),
//! )?;
//! assert!(report.completed && report.checkpoints_written > 0);
//! // A second invocation with `resume` picks up the finished state.
//! let resumed = run_evolution(
//!     FsmSpec::paper(GridKind::Square),
//!     &evaluator,
//!     GaConfig::paper(2, 42),
//!     Vec::new(),
//!     &opts.clone().resuming(true),
//!     |_| (),
//! )?;
//! assert_eq!(resumed.outcome.history.len(), report.outcome.history.len());
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod campaign;
pub mod checkpoint;
pub mod harness;
pub mod jobs;
mod sealed;
pub mod store;

pub use campaign::{
    assign_round, genome_digest, run_campaign, run_shard_round, Archive, ArchiveDelta,
    CampaignCounters, CampaignOutcome, CampaignSpec, CampaignStore, DigestSet, Elite,
    EvaluatorBank, NicheKey, RoundStats, ARCHIVE_DELTA_SCHEMA, ARCHIVE_SCHEMA,
    CAMPAIGN_MERGED_SCHEMA, CAMPAIGN_ROUND_SITE, CAMPAIGN_SPEC_SCHEMA, CAMPAIGN_SUMMARY_SCHEMA,
};
pub use checkpoint::{
    context_digest, Checkpoint, Counters, Payload, CHECKPOINT_SCHEMA, CHECKPOINT_VERSION,
};
pub use harness::{
    run_evolution, run_islands_checkpointed, IslandsReport, RunOptions, RunReport, StopSignal,
};
pub use jobs::{
    validate_job_id, JobManifest, JobStatus, JobStore, JOB_MANIFEST_SCHEMA, MANIFEST_FILE,
    RESULT_FILE,
};
pub use store::{CheckpointStore, CHECKPOINT_FILE};
