//! On-disk checkpoint storage: one rolling `checkpoint.json` per run
//! directory, a `SealedDir` document, so a crash mid-save leaves the
//! previous checkpoint intact.

use crate::checkpoint::Checkpoint;
use crate::sealed::{DocKind, SealedDir};
use std::path::{Path, PathBuf};

/// File name of the rolling checkpoint inside a run directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.json";

/// A run directory holding the rolling checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: SealedDir,
}

impl CheckpointStore {
    /// A store rooted at `dir` (created on first save if absent).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: SealedDir::new(dir, "run.checkpoint.write", DocKind::Checkpoint) }
    }

    /// The directory this store writes into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        self.dir.dir()
    }

    /// Path of the rolling checkpoint file.
    #[must_use]
    pub fn path(&self) -> PathBuf {
        self.dir.path(CHECKPOINT_FILE)
    }

    /// Persists `checkpoint` atomically (`SealedDir::save`). A reader —
    /// including a resuming run — therefore sees either the previous
    /// complete checkpoint or this one, never a torn mix.
    ///
    /// # Errors
    ///
    /// Propagates IO errors (including those injected at the
    /// `run.checkpoint.write` fault site by the chaos suite); the
    /// previous checkpoint file survives any failure.
    pub fn save(&self, checkpoint: &Checkpoint) -> std::io::Result<()> {
        self.dir.save(CHECKPOINT_FILE, &checkpoint.to_json())
    }

    /// Loads and fully validates the rolling checkpoint. `Ok(None)` when
    /// no checkpoint exists yet (a fresh run directory).
    ///
    /// # Errors
    ///
    /// A message naming the failure: unreadable file, unparseable JSON,
    /// checksum mismatch, or any schema violation — a corrupt checkpoint
    /// is an error, never silently treated as absent.
    pub fn load(&self) -> Result<Option<Checkpoint>, String> {
        self.dir.load(CHECKPOINT_FILE, |doc| Checkpoint::from_json(&doc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{Counters, Payload};
    use a2a_fsm::{FsmSpec, Genome};
    use a2a_ga::{FitnessReport, Individual, RunState};
    use a2a_grid::GridKind;
    use rand::{rngs::SmallRng, SeedableRng};

    fn sample() -> Checkpoint {
        let spec = FsmSpec::paper(GridKind::Square);
        let mut rng = SmallRng::seed_from_u64(5);
        Checkpoint {
            digest: "f".repeat(16),
            spec,
            counters: Counters::default(),
            payload: Payload::Single(RunState {
                rng_state: rng.state(),
                pool: vec![Individual {
                    genome: Genome::random(spec, &mut rng),
                    report: FitnessReport {
                        fitness: 1.5,
                        successes: 1,
                        total: 2,
                        mean_t_comm: Some(10.0),
                    },
                }],
                history: Vec::new(),
                next_generation: 1,
            }),
        }
    }

    #[test]
    fn save_then_load_round_trips() {
        let dir = std::env::temp_dir().join("a2a_run_store_test");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir);
        assert!(store.load().unwrap().is_none(), "fresh dir has no checkpoint");
        let ckpt = sample();
        store.save(&ckpt).unwrap();
        let back = store.load().unwrap().expect("checkpoint saved");
        assert_eq!(back.digest, ckpt.digest);
        let (Payload::Single(a), Payload::Single(b)) = (&back.payload, &ckpt.payload) else {
            panic!("wrong mode");
        };
        assert_eq!(a.pool, b.pool);
        assert_eq!(a.rng_state, b.rng_state);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_is_an_error_not_absent() {
        let dir = std::env::temp_dir().join("a2a_run_store_corrupt_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = CheckpointStore::new(&dir);
        std::fs::write(store.path(), b"{\"schema\": \"a2a-run/checkpoint/v1\"").unwrap();
        let err = store.load().unwrap_err();
        assert!(err.contains("JSON"), "got: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
