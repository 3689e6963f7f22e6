//! Forged checkpoints: a document whose seal and context digest match
//! but whose resumable state no run saves — an empty pool, a pool
//! longer than the population, another island count — is refused by
//! name on resume instead of resuming into a panic or a wrong run.
//! Each forgery edits a real checkpoint and saves it back through the
//! store, which reseals it with the same digest.

use a2a_fsm::FsmSpec;
use a2a_ga::{Evaluator, EvolutionOutcome, GaConfig, IslandConfig};
use a2a_grid::GridKind;
use a2a_run::{
    run_evolution, run_islands_checkpointed, Checkpoint, CheckpointStore, Payload, RunOptions,
    StopSignal,
};
use a2a_sim::{paper_config_set, WorldConfig};

const KIND: GridKind = GridKind::Square;

fn evaluator() -> Evaluator {
    let cfg = WorldConfig::paper(KIND, 8);
    let configs = paper_config_set(cfg.lattice, KIND, 4, 6, 17).unwrap();
    Evaluator::new(cfg, configs).with_threads(1).with_t_max(100)
}

fn fresh_store(name: &str) -> CheckpointStore {
    let dir = std::env::temp_dir().join(format!("a2a_run_forged_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CheckpointStore::new(dir)
}

/// The islands of an islands checkpoint's payload.
fn island_states(payload: &mut Payload) -> &mut Vec<EvolutionOutcome> {
    match payload {
        Payload::Islands(state) => &mut state.outcomes,
        Payload::Single(_) => panic!("an islands checkpoint"),
    }
}

/// Saves `pristine` with `edit` applied to its payload.
fn forge(store: &CheckpointStore, pristine: &Checkpoint, edit: impl FnOnce(&mut Payload)) {
    let mut forged = pristine.clone();
    edit(&mut forged.payload);
    store.save(&forged).unwrap();
}

#[test]
fn single_run_pool_that_is_empty_or_too_long_is_refused_by_name() {
    let spec = FsmSpec::paper(KIND);
    let config = GaConfig::paper(3, 5);
    let evaluator = evaluator();
    let store = fresh_store("single");
    let stop = StopSignal::new();
    let opts = RunOptions::persisting(store.clone()).with_stop(stop.clone());
    let stopped = run_evolution(spec, &evaluator, config, Vec::new(), &opts, |stats| {
        if stats.generation == 1 {
            stop.stop();
        }
    })
    .unwrap();
    assert!(stopped.stopped, "the run stops at generation 1");
    let pristine = store.load().unwrap().expect("the stop saved a checkpoint");
    let resume = RunOptions::persisting(store.clone()).resuming(true);
    let resume_run = || run_evolution(spec, &evaluator, config, Vec::new(), &resume, |_| ());

    for len in [0, config.population + 1] {
        forge(&store, &pristine, |payload| {
            let Payload::Single(state) = payload else { panic!("a single-run checkpoint") };
            let first = state.pool[0].clone();
            state.pool.resize(len, first);
        });
        let err = resume_run().unwrap_err();
        assert!(err.contains("`pool`") && err.contains(&format!("holds {len} ")), "{err}");
    }

    // The untouched checkpoint still resumes to the end of the budget.
    store.save(&pristine).unwrap();
    let resumed = resume_run().unwrap();
    assert!(resumed.completed);
    assert_eq!(resumed.resumed_from, Some(2));
    let _ = std::fs::remove_dir_all(store.dir());
}

#[test]
fn islands_payload_with_another_island_count_or_an_empty_pool_is_refused_by_name() {
    let spec = FsmSpec::paper(KIND);
    let config = GaConfig::paper(2, 7);
    let islands = IslandConfig { islands: 2, epoch: 1, migrants: 1 };
    let evaluator = evaluator();
    let store = fresh_store("islands");
    let opts = RunOptions::persisting(store.clone());
    let full =
        run_islands_checkpointed(spec, &evaluator, config, islands, &opts, |_, _| ()).unwrap();
    assert!(full.completed);
    let pristine = store.load().unwrap().expect("every epoch saved a checkpoint");
    let resume = RunOptions::persisting(store.clone()).resuming(true);
    let resume_run =
        || run_islands_checkpointed(spec, &evaluator, config, islands, &resume, |_, _| ());

    // One island too few, and one too many.
    for count in [1, 3] {
        forge(&store, &pristine, |payload| {
            let outcomes = island_states(payload);
            let first = outcomes[0].clone();
            outcomes.resize(count, first);
        });
        let err = resume_run().unwrap_err();
        assert!(err.contains(&format!("`islands` holds {count} islands")), "{err}");
    }

    // An island whose pool is empty.
    forge(&store, &pristine, |payload| island_states(payload)[1].pool.clear());
    let err = resume_run().unwrap_err();
    assert!(err.contains("`islands[1].pool` holds 0 "), "{err}");

    store.save(&pristine).unwrap();
    let resumed = resume_run().unwrap();
    assert!(resumed.completed);
    let _ = std::fs::remove_dir_all(store.dir());
}
