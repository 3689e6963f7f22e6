//! The crash-safe run harness: wires [`Evolution::run_resumable`] /
//! [`run_islands_resumable`] to a [`CheckpointStore`], persisting the
//! resumable state once enough work has accumulated since the last
//! durable save ([`RunOptions::checkpoint_work`]) and restoring it
//! under `--resume`.
//!
//! Failure policy:
//!
//! * A checkpoint **save** failure is a warning, not a run failure — the
//!   run continues, the previous checkpoint file survives (atomic
//!   write), and the error count is reported so callers/CI can notice.
//! * A checkpoint **load** failure under `resume: true` is a hard error:
//!   silently restarting from scratch (or from someone else's
//!   experiment — digest mismatch) would fabricate results.
//! * The `run.generation` fault site is probed at every boundary; when
//!   it fires the run stops as if the process had been killed, which is
//!   exactly how the chaos suite simulates kills without losing the
//!   test harness itself.
//!
//! [`Evolution::run_resumable`]: a2a_ga::Evolution::run_resumable
//! [`run_islands_resumable`]: a2a_ga::run_islands_resumable

use crate::checkpoint::{context_digest, Checkpoint, Counters, Payload};
use crate::store::CheckpointStore;
use a2a_fsm::{FsmSpec, Genome};
use a2a_ga::{
    run_islands_resumable, Evaluator, Evolution, EvolutionOutcome, GaConfig, GenerationStats,
    IslandConfig, IslandOutcome, IslandsState, RunControl,
};
use a2a_obs::fault;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A cooperative stop flag checked at every generation/epoch boundary
/// (after the due checkpoint is persisted, so a stopped run is always
/// resumable from its last boundary). Clones share the flag; any holder
/// can raise it from any thread — the seam `a2a-serve` uses for job
/// deadlines and graceful drain.
#[derive(Debug, Clone, Default)]
pub struct StopSignal {
    flag: Arc<AtomicBool>,
}

impl StopSignal {
    /// A fresh, unraised signal.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag; every harnessed run holding a clone stops at
    /// its next boundary.
    pub fn stop(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether the flag has been raised.
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// How a harnessed run persists and restores checkpoints.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Where checkpoints go; `None` disables persistence entirely.
    pub store: Option<CheckpointStore>,
    /// The work, in horizon-bounded agent-steps, after which a boundary
    /// is due for a checkpoint: a boundary saves once the work of the
    /// boundaries since the last successful save reaches it, so 0 saves
    /// every boundary. A boundary's work is fixed by the spec alone
    /// (`population × t_max × Σ agents` over the configurations per
    /// generation; `islands × epoch` generations per epoch), so which
    /// boundaries save is reproducible. A raised [`StopSignal`] makes
    /// any boundary due.
    pub checkpoint_work: u64,
    /// Restore from the store's checkpoint before running. Requires a
    /// store; a missing checkpoint file just starts fresh, but a corrupt
    /// one or a context-digest mismatch is a hard error.
    pub resume: bool,
    /// Cooperative stop flag; `None` means the run only stops at its
    /// generation budget (or a simulated kill).
    pub stop: Option<StopSignal>,
}

impl RunOptions {
    /// Persistence into `store` at every boundary, no resume.
    #[must_use]
    pub fn persisting(store: CheckpointStore) -> Self {
        Self { store: Some(store), checkpoint_work: 0, resume: false, stop: None }
    }

    /// Builder-style resume flag.
    #[must_use]
    pub fn resuming(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Builder-style cooperative stop signal.
    #[must_use]
    pub fn with_stop(mut self, stop: StopSignal) -> Self {
        self.stop = Some(stop);
        self
    }
}

/// What a harnessed single-pool run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The (possibly partial) outcome, pool sorted best-first.
    pub outcome: EvolutionOutcome,
    /// `false` iff the run stopped before its generation budget.
    pub completed: bool,
    /// The generation index the run resumed at (`None` for a fresh
    /// start).
    pub resumed_from: Option<usize>,
    /// Checkpoints successfully persisted during this run.
    pub checkpoints_written: usize,
    /// Checkpoint saves that failed (run continued).
    pub checkpoint_errors: usize,
    /// Whether the `run.generation` fault site stopped the run
    /// (simulated kill).
    pub killed: bool,
    /// Whether a [`StopSignal`] stopped the run at a boundary (the run
    /// is resumable from its last checkpoint).
    pub stopped: bool,
}

/// What a harnessed island-model run produced.
#[derive(Debug, Clone)]
pub struct IslandsReport {
    /// The (possibly partial) outcome.
    pub outcome: IslandOutcome,
    /// `false` iff the run stopped before its epoch budget.
    pub completed: bool,
    /// The epoch index the run resumed at (`None` for a fresh start).
    pub resumed_from: Option<usize>,
    /// Checkpoints successfully persisted during this run.
    pub checkpoints_written: usize,
    /// Checkpoint saves that failed (run continued).
    pub checkpoint_errors: usize,
    /// Whether the `run.generation` fault site stopped the run.
    pub killed: bool,
    /// Whether a [`StopSignal`] stopped the run at a boundary.
    pub stopped: bool,
}

/// Book-keeping shared by both harness flavours.
#[derive(Debug, Default)]
struct Progress {
    written: usize,
    errors: usize,
    killed: bool,
    stopped: bool,
    /// Work of the boundaries since the last successful save (or the
    /// start of this process's run).
    unsaved: u64,
}

impl Progress {
    /// Adds `work` for the boundary just reached and persists
    /// `checkpoint` if that makes it due, then probes the kill site and
    /// the cooperative stop flag. Returns the control verdict for the
    /// boundary.
    fn boundary(
        &mut self,
        opts: &RunOptions,
        work: u64,
        checkpoint: impl FnOnce() -> Checkpoint,
    ) -> RunControl {
        self.unsaved = self.unsaved.saturating_add(work);
        // A raised stop flag forces this boundary's checkpoint whatever
        // the work, so the stopped run resumes exactly where it stopped.
        let stopping = opts.stop.as_ref().is_some_and(StopSignal::is_stopped);
        if let Some(store) = &opts.store {
            if stopping || self.unsaved >= opts.checkpoint_work {
                match store.save(&checkpoint()) {
                    Ok(()) => {
                        self.written += 1;
                        // Only a durable save resets the sum, so a
                        // failed one leaves the next boundary due.
                        self.unsaved = 0;
                        if a2a_obs::metrics_enabled() {
                            a2a_obs::global().counter("run.checkpoint.writes").incr();
                        }
                    }
                    Err(e) => {
                        self.errors += 1;
                        if a2a_obs::metrics_enabled() {
                            a2a_obs::global().counter("run.checkpoint.errors").incr();
                        }
                        a2a_obs::event!(
                            a2a_obs::Level::Warn,
                            "run.checkpoint.failed",
                            "error" => e.to_string()
                        );
                        // A failed checkpoint write is exactly the
                        // moment the recent event history matters —
                        // dump the flight recorder while the evidence
                        // is still in the rings.
                        a2a_obs::flight::dump("checkpoint-write-failed");
                    }
                }
            }
        }
        if fault::should_kill("run.generation") {
            self.killed = true;
            return RunControl::Stop;
        }
        if stopping {
            self.stopped = true;
            return RunControl::Stop;
        }
        RunControl::Continue
    }
}

/// Horizon-bounded agent-steps of one generation of `config` on
/// `evaluator`: every pool member on every configuration, each agent
/// for `t_max` steps.
fn generation_work(config: &GaConfig, evaluator: &Evaluator) -> u64 {
    let agents: u64 = evaluator.configs().iter().map(|c| c.agent_count() as u64).sum();
    (config.population as u64)
        .saturating_mul(u64::from(evaluator.t_max()))
        .saturating_mul(agents)
}

fn counters(evaluator: &Evaluator) -> Counters {
    Counters {
        cache_entries: evaluator.cache().len() as u64,
        cache_hits: evaluator.cache().hits(),
    }
}

/// Restores the checkpoint for `digest`/`spec` if `opts` asks for it.
///
/// # Errors
///
/// `resume: true` without a store, an unreadable/corrupt checkpoint, a
/// digest mismatch, or a spec mismatch.
fn restore(opts: &RunOptions, digest: &str, spec: FsmSpec) -> Result<Option<Payload>, String> {
    if !opts.resume {
        return Ok(None);
    }
    let store = opts
        .store
        .as_ref()
        .ok_or("resume requested but no checkpoint store configured")?;
    let Some(ckpt) = store.load()? else {
        return Ok(None); // Fresh directory: nothing to resume, start clean.
    };
    if ckpt.digest != digest {
        return Err(format!(
            "checkpoint digest {} does not match this experiment ({digest}); \
             refusing to resume across different configurations",
            ckpt.digest
        ));
    }
    if ckpt.spec != spec {
        return Err("checkpoint spec does not match this experiment".to_string());
    }
    Ok(Some(ckpt.payload))
}

/// Runs the single-pool procedure with checkpoint persistence and
/// optional resume. A resumed run's `outcome` is bit-identical to the
/// uninterrupted run's (see the `equivalence` integration test).
///
/// # Errors
///
/// Resume failures only (see [`RunOptions::resume`]); checkpoint save
/// failures are counted, not raised.
///
/// # Panics
///
/// As [`Evolution::new`] (invalid GA parameters).
pub fn run_evolution(
    spec: FsmSpec,
    evaluator: &Evaluator,
    config: GaConfig,
    seeds: Vec<Genome>,
    opts: &RunOptions,
    mut on_generation: impl FnMut(&GenerationStats),
) -> Result<RunReport, String> {
    let digest = context_digest(&config, evaluator.config(), evaluator.t_max(), evaluator.configs());
    let resume_state = match restore(opts, &digest, spec)? {
        None => None,
        Some(Payload::Single(state)) => Some(state),
        Some(Payload::Islands(_)) => {
            return Err("checkpoint is an island-model snapshot, not a single run".to_string())
        }
    };
    let resumed_from = resume_state.as_ref().map(|s| s.next_generation);
    let work = generation_work(&config, evaluator);
    let mut progress = Progress::default();
    let run = Evolution::new(spec, evaluator.clone(), config).run_resumable(
        resume_state,
        seeds,
        |stats, state| {
            on_generation(stats);
            progress.boundary(opts, work, || Checkpoint {
                digest: digest.clone(),
                spec,
                counters: counters(evaluator),
                payload: Payload::Single(state.clone()),
            })
        },
    );
    Ok(RunReport {
        outcome: run.outcome,
        completed: run.completed && !progress.killed && !progress.stopped,
        resumed_from,
        checkpoints_written: progress.written,
        checkpoint_errors: progress.errors,
        killed: progress.killed,
        stopped: progress.stopped,
    })
}

/// Island-model counterpart of [`run_evolution`]: checkpoints at epoch
/// boundaries (the island model's native unit of resumable work).
///
/// # Errors
///
/// Resume failures only; checkpoint save failures are counted.
///
/// # Panics
///
/// As [`run_islands_resumable`] (zero islands, oversized migration).
pub fn run_islands_checkpointed(
    spec: FsmSpec,
    evaluator: &Evaluator,
    config: GaConfig,
    island_config: IslandConfig,
    opts: &RunOptions,
    mut on_epoch: impl FnMut(usize, &[EvolutionOutcome]),
) -> Result<IslandsReport, String> {
    let digest = context_digest(&config, evaluator.config(), evaluator.t_max(), evaluator.configs());
    let resume_state = match restore(opts, &digest, spec)? {
        None => None,
        Some(Payload::Islands(state)) => Some(state),
        Some(Payload::Single(_)) => {
            return Err("checkpoint is a single-run snapshot, not an island model".to_string())
        }
    };
    let resumed_from = resume_state.as_ref().map(|s| s.next_epoch);
    let work = generation_work(&config, evaluator)
        .saturating_mul(island_config.islands as u64)
        .saturating_mul(island_config.epoch as u64);
    let mut progress = Progress::default();
    let run = run_islands_resumable(
        spec,
        evaluator,
        config,
        island_config,
        resume_state,
        |epoch, state: &IslandsState| {
            on_epoch(epoch, &state.outcomes);
            progress.boundary(opts, work, || Checkpoint {
                digest: digest.clone(),
                spec,
                counters: counters(evaluator),
                payload: Payload::Islands(state.clone()),
            })
        },
    );
    Ok(IslandsReport {
        outcome: run.outcome,
        completed: run.completed && !progress.killed && !progress.stopped,
        resumed_from,
        checkpoints_written: progress.written,
        checkpoint_errors: progress.errors,
        killed: progress.killed,
        stopped: progress.stopped,
    })
}
