//! The tentpole guarantee of the crash-safe harness: a run that is
//! killed at a generation boundary and later resumed from its rolling
//! checkpoint produces a **bit-identical** `EvolutionOutcome` (history
//! and final pool) to the same run executed uninterrupted — on both
//! grid families.
//!
//! The kill is injected through the real `run.generation` fault site
//! (armed mid-run from the generation observer), and the resumed run
//! uses a *fresh* evaluator so the test also witnesses PR 3's
//! determinism guarantee: a cold fitness cache changes timing, never
//! results.

use a2a_fsm::FsmSpec;
use a2a_ga::{Evaluator, GaConfig};
use a2a_grid::GridKind;
use a2a_obs::fault::{self, FaultPlan};
use a2a_run::{run_evolution, CheckpointStore, Payload, RunOptions, StopSignal};
use a2a_sim::{paper_config_set, WorldConfig};
use std::sync::Mutex;

/// Fault arming is process-global; tests that use it take this lock.
static FAULT_GUARD: Mutex<()> = Mutex::new(());

fn evaluator(kind: GridKind) -> Evaluator {
    let cfg = WorldConfig::paper(kind, 8);
    let configs = paper_config_set(cfg.lattice, kind, 4, 6, 17).unwrap();
    Evaluator::new(cfg, configs).with_threads(2).with_t_max(100)
}

fn assert_interrupt_resume_equivalence(kind: GridKind, kill_at_generation: usize) {
    let _guard = FAULT_GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    fault::disarm();
    let spec = FsmSpec::paper(kind);
    let config = GaConfig::paper(9, 4242);

    // Reference: the same experiment, uninterrupted, no persistence.
    let full = run_evolution(
        spec,
        &evaluator(kind),
        config,
        Vec::new(),
        &RunOptions::default(),
        |_| (),
    )
    .unwrap();
    assert!(full.completed && full.resumed_from.is_none());
    assert_eq!(full.outcome.history.len(), config.generations + 1);

    // Interrupted: arm a certain kill once the target generation's
    // boundary is reached; the harness checkpoints the boundary first,
    // then the probe fires — exactly a crash after a durable save.
    let dir = std::env::temp_dir().join(format!("a2a_run_equiv_{kind:?}"));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = RunOptions::persisting(CheckpointStore::new(&dir));
    let killed = run_evolution(spec, &evaluator(kind), config, Vec::new(), &opts, |stats| {
        if stats.generation == kill_at_generation {
            fault::arm(FaultPlan::parse("run.generation@0"));
        }
    })
    .unwrap();
    fault::disarm();
    assert!(killed.killed && !killed.completed, "the armed kill must fire");
    assert_eq!(
        killed.outcome.history.len(),
        kill_at_generation + 1,
        "run died right after the target generation"
    );

    // Resumed: fresh evaluator (cold cache), auto-restore from the
    // checkpoint, run to the end of the budget.
    let resumed = run_evolution(
        spec,
        &evaluator(kind),
        config,
        Vec::new(),
        &opts.clone().resuming(true),
        |_| (),
    )
    .unwrap();
    assert!(resumed.completed);
    assert_eq!(
        resumed.resumed_from,
        Some(kill_at_generation + 1),
        "resume continues at the first un-run generation"
    );
    assert_eq!(
        resumed.outcome.history, full.outcome.history,
        "resumed history must be bit-identical to the uninterrupted run"
    );
    assert_eq!(
        resumed.outcome.pool, full.outcome.pool,
        "resumed final pool must be bit-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn square_grid_interrupt_resume_is_bit_identical() {
    assert_interrupt_resume_equivalence(GridKind::Square, 4);
}

#[test]
fn triangulate_grid_interrupt_resume_is_bit_identical() {
    assert_interrupt_resume_equivalence(GridKind::Triangulate, 3);
}

#[test]
fn resume_refuses_a_different_experiment() {
    let _guard = FAULT_GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    fault::disarm();
    let kind = GridKind::Square;
    let spec = FsmSpec::paper(kind);
    let dir = std::env::temp_dir().join("a2a_run_equiv_digest_mismatch");
    let _ = std::fs::remove_dir_all(&dir);
    let opts = RunOptions::persisting(CheckpointStore::new(&dir));
    let first =
        run_evolution(spec, &evaluator(kind), GaConfig::paper(2, 1), Vec::new(), &opts, |_| ())
            .unwrap();
    assert!(first.checkpoints_written > 0);

    // Same directory, different seed → different context digest.
    let err = run_evolution(
        spec,
        &evaluator(kind),
        GaConfig::paper(2, 2),
        Vec::new(),
        &opts.clone().resuming(true),
        |_| (),
    )
    .unwrap_err();
    assert!(err.contains("digest"), "got: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The boundary the checkpoint in `store` was saved at, if any.
fn saved_boundary(store: &CheckpointStore) -> Option<usize> {
    let ckpt = store.load().unwrap()?;
    let Payload::Single(state) = ckpt.payload else { panic!("wrong mode") };
    Some(state.next_generation - 1)
}

#[test]
fn work_rule_saves_where_the_unsaved_work_reaches_the_threshold() {
    let _guard = FAULT_GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    fault::disarm();
    let kind = GridKind::Square;
    let spec = FsmSpec::paper(kind);
    let evaluator = evaluator(kind);
    let config = GaConfig::paper(5, 3);
    let agents: u64 = evaluator.configs().iter().map(|c| c.agent_count() as u64).sum();
    let boundary_work = config.population as u64 * u64::from(evaluator.t_max()) * agents;
    let dir = std::env::temp_dir().join("a2a_run_equiv_work_rule");
    let store = CheckpointStore::new(&dir);
    // Runs the 6-boundary experiment on a fresh store; returns the
    // report and, per boundary, the boundary of the checkpoint on disk
    // when its observer ran (before its own save), then after the run.
    let run = |opts: &RunOptions, stop_at: Option<usize>| {
        let _ = std::fs::remove_dir_all(&dir);
        let mut seen = Vec::new();
        let report = run_evolution(spec, &evaluator, config, Vec::new(), opts, |stats| {
            seen.push(saved_boundary(&store));
            if stop_at == Some(stats.generation) {
                opts.stop.as_ref().unwrap().stop();
            }
        })
        .unwrap();
        seen.push(saved_boundary(&store));
        (report, seen)
    };

    // Every boundary is worth 1/2.5 of the threshold: the unsaved work
    // reaches it at boundary 2, and again 3 boundaries later at 5.
    let opts = RunOptions {
        checkpoint_work: boundary_work * 5 / 2,
        ..RunOptions::persisting(store.clone())
    };
    let (thrifty, seen) = run(&opts, None);
    assert!(thrifty.completed);
    assert_eq!(thrifty.checkpoints_written, 2);
    assert_eq!(seen, [None, None, None, Some(2), Some(2), Some(2), Some(5)]);

    // 0 makes every boundary due: all 6 save, and results are the same.
    let (every, seen) = run(&RunOptions::persisting(store.clone()), None);
    assert_eq!(every.checkpoints_written, config.generations + 1);
    assert_eq!(seen, [None, Some(0), Some(1), Some(2), Some(3), Some(4), Some(5)]);
    assert_eq!(every.outcome.history, thrifty.outcome.history);
    assert_eq!(every.outcome.pool, thrifty.outcome.pool);

    // A stop raised where the rule saves nothing still forces a save,
    // and the run resumes from it bit-identically, boundary 0 included.
    for stop_at in [0, 1] {
        let opts = opts.clone().with_stop(StopSignal::new());
        let (stopped, seen) = run(&opts, Some(stop_at));
        assert!(stopped.stopped && !stopped.completed);
        assert_eq!(stopped.checkpoints_written, 1);
        assert_eq!(seen.last(), Some(&Some(stop_at)), "the stop saved its boundary");
        let resumed = run_evolution(
            spec,
            &evaluator,
            config,
            Vec::new(),
            &opts.clone().resuming(true).with_stop(StopSignal::new()),
            |_| (),
        )
        .unwrap();
        assert!(resumed.completed);
        assert_eq!(resumed.resumed_from, Some(stop_at + 1));
        assert_eq!(resumed.outcome.history, thrifty.outcome.history);
        assert_eq!(resumed.outcome.pool, thrifty.outcome.pool);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
