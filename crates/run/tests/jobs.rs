//! Concurrent-writer isolation for the multi-job store layout: two
//! jobs sharing a [`JobStore`] root (and therefore two
//! [`CheckpointStore`]s under it) must never cross-corrupt, whatever
//! the interleaving of saves and loads. This is the disk-level
//! property `a2a-serve` leans on when several executor threads
//! checkpoint different jobs into one store.

use a2a_fsm::{FsmSpec, Genome};
use a2a_ga::{FitnessReport, Individual, RunState};
use a2a_grid::GridKind;
use a2a_obs::json::Json;
use a2a_run::{Checkpoint, Counters, JobManifest, JobStatus, JobStore, Payload};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A checkpoint whose content is a pure function of `(tag, round)` —
/// comparing digests and generation counters is enough to prove a load
/// saw one specific save, untouched by the other job's writes.
fn stamped_checkpoint(tag: u64, round: u64) -> Checkpoint {
    let spec = FsmSpec::paper(GridKind::Square);
    let mut rng = SmallRng::seed_from_u64(tag ^ (round << 16));
    Checkpoint {
        digest: format!("{tag:08x}{round:08x}"),
        spec,
        counters: Counters { cache_entries: tag, cache_hits: round },
        payload: Payload::Single(RunState {
            rng_state: [tag | 1, round | 1, 3, 4],
            pool: vec![Individual {
                genome: Genome::random(spec, &mut rng),
                report: FitnessReport {
                    fitness: (tag * 1000 + round) as f64,
                    successes: 1,
                    total: 2,
                    mean_t_comm: None,
                },
            }],
            history: Vec::new(),
            next_generation: round as usize,
        }),
    }
}

fn manifest(id: &str, attempts: u32) -> JobManifest {
    JobManifest {
        id: id.to_string(),
        tenant: format!("tenant-{id}"),
        priority: 1,
        seq: 0,
        status: JobStatus::Running,
        attempts,
        spec: Json::object().with("job", id),
        error: None,
    }
}

/// Two real threads hammer their own job subdirectories through one
/// shared root — every load must return that job's own latest complete
/// state, proving per-PID temp names and per-job directories keep the
/// writers fully isolated.
#[test]
fn concurrent_jobs_never_cross_corrupt() {
    let root = std::env::temp_dir().join("a2a_run_jobs_concurrent_test");
    let _ = std::fs::remove_dir_all(&root);
    let store = Arc::new(JobStore::new(&root));

    let writer = |job: &'static str, tag: u64| {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            let ckpts = store.checkpoints(job).unwrap();
            for round in 0..60u64 {
                store
                    .save_manifest(&manifest(job, u32::try_from(round).unwrap()))
                    .unwrap();
                ckpts.save(&stamped_checkpoint(tag, round)).unwrap();
                // Read-back mid-interleaving: whatever the other thread
                // is doing, this job's files hold this job's data.
                let m = store.load_manifest(job).unwrap().unwrap();
                assert_eq!(m.id, job);
                assert_eq!(m.tenant, format!("tenant-{job}"));
                assert_eq!(u64::from(m.attempts), round);
                let c = ckpts.load().unwrap().unwrap();
                assert_eq!(c.digest, format!("{tag:08x}{round:08x}"));
                assert_eq!(c.counters.cache_entries, tag);
                assert_eq!(c.counters.cache_hits, round);
            }
        })
    };
    let a = writer("job-a", 0xAAAA);
    let b = writer("job-b", 0xBBBB);
    a.join().unwrap();
    b.join().unwrap();

    // Final state: each job's files hold its own round-59 stamp.
    for (job, tag) in [("job-a", 0xAAAAu64), ("job-b", 0xBBBB)] {
        let c = store.checkpoints(job).unwrap().load().unwrap().unwrap();
        assert_eq!(c.digest, format!("{tag:08x}{:08x}", 59));
        assert_eq!(store.load_manifest(job).unwrap().unwrap().attempts, 59);
    }
    assert_eq!(store.list(), vec!["job-a".to_string(), "job-b".to_string()]);
    let _ = std::fs::remove_dir_all(&root);
}

/// One interleaving step: which job acts, and whether it saves or
/// loads.
#[derive(Debug, Clone, Copy)]
enum Op {
    Save(usize),
    Load(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0..2usize, any::<bool>()).prop_map(|(job, save)| if save { Op::Save(job) } else { Op::Load(job) })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random serialised interleavings of saves and loads across two
    /// job subdirectories: every load observes exactly the acting job's
    /// most recent save (or absence before the first), regardless of
    /// what the other job did in between.
    #[test]
    fn interleaved_saves_and_loads_stay_isolated(ops in proptest::collection::vec(op_strategy(), 1..40), case in 0u64..u64::MAX) {
        let root = std::env::temp_dir().join(format!("a2a_run_jobs_prop_{case:x}"));
        let _ = std::fs::remove_dir_all(&root);
        let store = JobStore::new(&root);
        let jobs = ["job-x", "job-y"];
        let tags = [0x1111u64, 0x2222];
        let mut last_round: [Option<u64>; 2] = [None, None];
        let mut rounds = [0u64, 0];
        for op in ops {
            match op {
                Op::Save(j) => {
                    let round = rounds[j];
                    rounds[j] += 1;
                    store.save_manifest(&manifest(jobs[j], u32::try_from(round).unwrap())).unwrap();
                    store.checkpoints(jobs[j]).unwrap().save(&stamped_checkpoint(tags[j], round)).unwrap();
                    last_round[j] = Some(round);
                }
                Op::Load(j) => {
                    let ckpt = store.checkpoints(jobs[j]).unwrap().load().unwrap();
                    let man = store.load_manifest(jobs[j]).unwrap();
                    match last_round[j] {
                        None => {
                            prop_assert!(ckpt.is_none(), "job {j} loaded a checkpoint it never saved");
                            prop_assert!(man.is_none());
                        }
                        Some(round) => {
                            let ckpt = ckpt.expect("saved checkpoint must load");
                            prop_assert_eq!(&ckpt.digest, &format!("{:08x}{:08x}", tags[j], round));
                            prop_assert_eq!(ckpt.counters.cache_hits, round);
                            let man = man.expect("saved manifest must load");
                            prop_assert_eq!(u64::from(man.attempts), round);
                            prop_assert_eq!(man.id, jobs[j]);
                        }
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Store I/O is one traced layer: every save and load opens a span
/// named after its document kind, nested under the caller's span.
#[test]
fn saves_and_loads_trace_as_named_spans_under_the_caller() {
    let root = std::env::temp_dir().join(format!("a2a_run_jobs_trace_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = JobStore::new(&root);
    a2a_obs::trace::start_capture();
    {
        let _caller = a2a_obs::Span::enter("test.caller");
        store.save_manifest(&manifest("traced", 1)).unwrap();
        assert!(store.load_manifest("traced").unwrap().is_some());
        let checkpoints = store.checkpoints("traced").unwrap();
        checkpoints.save(&stamped_checkpoint(1, 1)).unwrap();
        assert!(checkpoints.load().unwrap().is_some());
    }
    let trace = a2a_obs::trace::take_capture();
    let caller = trace.spans.iter().find(|s| s.name == "test.caller").expect("caller span");
    let nested: Vec<&str> =
        trace.spans.iter().filter(|s| s.parent == caller.id).map(|s| s.name).collect();
    assert_eq!(
        nested,
        [
            "store.save.manifest",
            "store.load.manifest",
            "store.save.checkpoint",
            "store.load.checkpoint"
        ]
    );
    let _ = std::fs::remove_dir_all(&root);
}
