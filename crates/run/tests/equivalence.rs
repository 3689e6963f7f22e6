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
use a2a_run::{run_evolution, CheckpointStore, RunOptions};
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

#[test]
fn cadence_skips_intermediate_boundaries_but_keeps_the_last() {
    let _guard = FAULT_GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    fault::disarm();
    let kind = GridKind::Square;
    let spec = FsmSpec::paper(kind);
    let dir = std::env::temp_dir().join("a2a_run_equiv_cadence");
    let _ = std::fs::remove_dir_all(&dir);
    let config = GaConfig::paper(5, 3);
    let opts = RunOptions::persisting(CheckpointStore::new(&dir)).every(3);
    let report =
        run_evolution(spec, &evaluator(kind), config, Vec::new(), &opts, |_| ()).unwrap();
    // Boundaries 0..=5; due at 0, 3 and the final boundary 5.
    assert_eq!(report.checkpoints_written, 3);
    let ckpt = CheckpointStore::new(&dir).load().unwrap().expect("final checkpoint");
    let a2a_run::Payload::Single(state) = ckpt.payload else { panic!("wrong mode") };
    assert_eq!(state.next_generation, config.generations + 1);
    let _ = std::fs::remove_dir_all(&dir);
}
