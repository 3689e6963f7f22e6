//! Chaos suite: deterministic fault plans driving the three fault sites
//! end to end.
//!
//! * `ga.pool.item` — worker panics inside the evaluation pool: the
//!   watchdog retries the genome and the run's results are unaffected;
//! * `run.checkpoint.write` — IO errors while persisting: the run
//!   continues, errors are counted, the previous checkpoint survives;
//! * `run.generation` — simulated kills between generations: a
//!   kill/resume crash loop converges to the exact uninterrupted result.
//!
//! Every plan names the occurrences of a site that fault, so failures
//! reproduce exactly. Fault arming is process-global; the suite
//! serialises through one mutex.

use a2a_fsm::FsmSpec;
use a2a_ga::{Evaluator, GaConfig, IslandConfig};
use a2a_grid::GridKind;
use a2a_obs::fault::{self, FaultPlan};
use a2a_run::{
    run_evolution, run_islands_checkpointed, CheckpointStore, Payload, RunOptions,
};
use a2a_sim::{paper_config_set, WorldConfig};
use std::sync::Mutex;

static FAULT_GUARD: Mutex<()> = Mutex::new(());

fn evaluator(kind: GridKind) -> Evaluator {
    let cfg = WorldConfig::paper(kind, 8);
    let configs = paper_config_set(cfg.lattice, kind, 4, 6, 23).unwrap();
    Evaluator::new(cfg, configs).with_threads(3).with_t_max(100)
}

#[test]
fn worker_panics_do_not_change_results() {
    let _guard = FAULT_GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    fault::disarm();
    let kind = GridKind::Triangulate;
    let spec = FsmSpec::paper(kind);
    let config = GaConfig::paper(4, 77);

    let clean =
        run_evolution(spec, &evaluator(kind), config, Vec::new(), &RunOptions::default(), |_| ())
            .unwrap();

    // Five evaluation items blow up, each in a different pool map across
    // the run's ~110 probes; the pool retries each once, inline. A retry
    // probes the site again after its map's first attempts, so every
    // named occurrence here is a first attempt: one that landed on a
    // retry would fail its item twice and panic the run.
    fault::arm(FaultPlan::parse(
        "ga.pool.item@7,ga.pool.item@27,ga.pool.item@50,ga.pool.item@70,ga.pool.item@96",
    ));
    let faulty =
        run_evolution(spec, &evaluator(kind), config, Vec::new(), &RunOptions::default(), |_| ())
            .unwrap();
    let panics = fault::fired("ga.pool.item");
    fault::disarm();

    assert_eq!(panics, 5, "every named occurrence injects one panic");
    assert!(faulty.completed);
    assert_eq!(
        faulty.outcome.history, clean.outcome.history,
        "retried evaluations must not change the evolution trajectory"
    );
    assert_eq!(faulty.outcome.pool, clean.outcome.pool);
}

#[test]
fn checkpoint_write_errors_are_survived_and_counted() {
    let _guard = FAULT_GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    fault::disarm();
    let kind = GridKind::Square;
    let spec = FsmSpec::paper(kind);
    let config = GaConfig::paper(5, 13);
    let dir = std::env::temp_dir().join("a2a_run_chaos_io");
    let _ = std::fs::remove_dir_all(&dir);
    let opts = RunOptions::persisting(CheckpointStore::new(&dir));

    // The first two saves fail with injected IO errors; the rest land.
    fault::arm(FaultPlan::parse("run.checkpoint.write@0..2"));
    let report =
        run_evolution(spec, &evaluator(kind), config, Vec::new(), &opts, |_| ()).unwrap();
    fault::disarm();

    assert!(report.completed);
    assert_eq!(report.checkpoint_errors, 2);
    // Boundaries 0..=5 are all due at checkpoint_work 0; two saves
    // were eaten.
    assert_eq!(report.checkpoints_written, config.generations + 1 - 2);
    // The surviving rolling checkpoint is the final state, intact.
    let ckpt = CheckpointStore::new(&dir).load().unwrap().expect("final checkpoint persisted");
    let Payload::Single(state) = ckpt.payload else { panic!("wrong mode") };
    assert_eq!(state.next_generation, config.generations + 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_resume_crash_loop_converges_to_the_uninterrupted_result() {
    let _guard = FAULT_GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    fault::disarm();
    let kind = GridKind::Square;
    let spec = FsmSpec::paper(kind);
    let config = GaConfig::paper(8, 5150);

    let full =
        run_evolution(spec, &evaluator(kind), config, Vec::new(), &RunOptions::default(), |_| ())
            .unwrap();

    let dir = std::env::temp_dir().join("a2a_run_chaos_killloop");
    let _ = std::fs::remove_dir_all(&dir);
    let base = RunOptions::persisting(CheckpointStore::new(&dir));

    // Three certain kills: the first three boundary probes stop the
    // process image; occurrence bookkeeping persists across the loop's
    // re-invocations (same armed plan), so each restart gets further.
    fault::arm(FaultPlan::parse("run.generation@0..3"));
    let mut attempts = 0;
    let final_report = loop {
        attempts += 1;
        assert!(attempts <= 10, "crash loop must converge");
        let opts = base.clone().resuming(attempts > 1);
        let report =
            run_evolution(spec, &evaluator(kind), config, Vec::new(), &opts, |_| ()).unwrap();
        if report.completed {
            break report;
        }
        assert!(report.killed, "incomplete runs in this loop are killed runs");
    };
    let kills = fault::fired("run.generation");
    fault::disarm();

    assert_eq!(kills, 3, "the plan names exactly three kills");
    assert_eq!(attempts, 4, "three kills then a clean completion");
    assert_eq!(
        final_report.outcome.history, full.outcome.history,
        "crash-looped history must be bit-identical to the uninterrupted run"
    );
    assert_eq!(final_report.outcome.pool, full.outcome.pool);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn islands_kill_resume_matches_uninterrupted() {
    let _guard = FAULT_GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    fault::disarm();
    let kind = GridKind::Square;
    let spec = FsmSpec::paper(kind);
    let config = GaConfig::paper(10, 31);
    let islands = IslandConfig { islands: 2, epoch: 5, migrants: 1 };

    let full = run_islands_checkpointed(
        spec,
        &evaluator(kind),
        config,
        islands,
        &RunOptions::default(),
        |_, _| (),
    )
    .unwrap();

    let dir = std::env::temp_dir().join("a2a_run_chaos_islands");
    let _ = std::fs::remove_dir_all(&dir);
    let base = RunOptions::persisting(CheckpointStore::new(&dir));
    fault::arm(FaultPlan::parse("run.generation@0"));
    let killed = run_islands_checkpointed(
        spec,
        &evaluator(kind),
        config,
        islands,
        &base,
        |_, _| (),
    )
    .unwrap();
    fault::disarm();
    assert!(killed.killed && !killed.completed);

    let resumed = run_islands_checkpointed(
        spec,
        &evaluator(kind),
        config,
        islands,
        &base.clone().resuming(true),
        |_, _| (),
    )
    .unwrap();
    assert!(resumed.completed);
    assert_eq!(resumed.resumed_from, Some(1));
    assert_eq!(resumed.outcome.islands.len(), full.outcome.islands.len());
    for (a, b) in resumed.outcome.islands.iter().zip(&full.outcome.islands) {
        assert_eq!(a.pool, b.pool, "resumed island pools must be bit-identical");
        assert_eq!(a.history, b.history);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_kill_leaves_a_sealed_flight_dump_replaying_recent_events() {
    let _guard = FAULT_GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    fault::disarm();
    let dir = std::env::temp_dir().join("a2a_run_chaos_flight");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Arm the black box: small rings so the run overwrites them many
    // times over, dumps landing in the scratch dir.
    a2a_obs::flight::set_capacity(64);
    a2a_obs::flight::set_dump_dir(&dir);
    a2a_obs::flight::enable();

    let kind = GridKind::Square;
    let spec = FsmSpec::paper(kind);
    let config = GaConfig::paper(6, 4242);
    fault::arm(FaultPlan::parse("run.generation@0"));
    let report =
        run_evolution(spec, &evaluator(kind), config, Vec::new(), &RunOptions::default(), |_| ())
            .unwrap();
    fault::disarm();
    a2a_obs::flight::disable();
    assert!(report.killed, "the plan kills the first boundary");

    // Exactly one dump, triggered by the kill site, sealed and valid.
    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .collect();
    assert_eq!(dumps.len(), 1, "one kill, one flight dump: {dumps:?}");
    let content = std::fs::read_to_string(&dumps[0]).unwrap();
    let dump = a2a_obs::flight::read_dump(&content)
        .expect("dump is a sealed, checksum-valid a2a-obs/flight/v1 stream");
    assert!(dump.reason.contains("run.generation"), "reason names the site");
    assert!(dump.truncated_tail.is_none(), "atomic publish never tears");

    // The dump replays the recent history: the kill fault record itself
    // is the newest thing the rings saw, preceded by the span traffic
    // of the generations that ran — within each thread, at most the
    // ring capacity of retained records, in sequence order.
    let records = dump.records;
    assert!(!records.is_empty());
    assert!(
        records.iter().any(|r| r.kind == "fault" && r.name == "fault.kill"),
        "the injected kill is on the record"
    );
    assert!(
        records.iter().any(|r| r.kind == "span_enter"),
        "pre-kill span traffic is replayed"
    );
    let mut per_thread: std::collections::HashMap<u64, Vec<u64>> = std::collections::HashMap::new();
    for r in &records {
        per_thread.entry(r.thread).or_default().push(r.seq);
    }
    for (thread, seqs) in per_thread {
        assert!(seqs.len() <= 64, "thread {thread} kept more than one ring of records");
        let max = *seqs.iter().max().unwrap();
        let min = *seqs.iter().min().unwrap();
        assert_eq!(
            max - min + 1,
            seqs.len() as u64,
            "thread {thread}'s replay is a contiguous window of its newest records"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(feature = "fault-inject")]
#[test]
fn env_spec_grammar_parses_the_ci_schedule() {
    // The CI chaos job arms via A2A_FAULT; keep its grammar honest here
    // (parsing is pure — no env mutation, safe under parallel tests).
    // It kills `evolve_run` at generation boundary 3, mid-run.
    let plan = FaultPlan::parse("run.generation@3");
    assert_eq!(plan.rules.len(), 1);
    assert!((0..10).filter(|&i| plan.fires("run.generation", i)).eq([3]));
}
