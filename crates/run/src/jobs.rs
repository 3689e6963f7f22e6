//! Multi-job checkpoint layout: a [`JobStore`] roots many independent
//! jobs under one directory, each with its own manifest, rolling
//! checkpoint, and (once finished) result document.
//!
//! ```text
//! <root>/jobs/<id>/manifest.json     sealed a2a-run/job-manifest/v1
//! <root>/jobs/<id>/checkpoint.json   rolling a2a-run/checkpoint/v1
//! <root>/jobs/<id>/result.json       sealed result (opaque to this crate)
//! ```
//!
//! The layout is what makes `a2a-serve` crash-only: every piece of job
//! state a restart needs lives in exactly one job subdirectory, every
//! file is a `SealedDir` document written atomically, and two jobs
//! can never share a file path because job ids are validated to be
//! plain path components ([`validate_job_id`]). A killed server
//! therefore re-lists `jobs/`, reloads each manifest, and resumes each
//! non-terminal job from its own checkpoint with nothing shared to
//! corrupt — the property the concurrent-writer tests in
//! `tests/jobs.rs` pin down.
//!
//! Manifest and result writes probe the `serve.checkpoint` fault site,
//! so the chaos suite can inject IO failures at exactly the moments a
//! job's durable state transitions.

use crate::sealed::{expect_schema, member, str_member, u64_member, DocKind, SealedDir};
use crate::store::CheckpointStore;
use a2a_obs::json::Json;
use a2a_obs::schema;
use std::path::{Path, PathBuf};

/// Schema identifier of the sealed job manifest document.
pub const JOB_MANIFEST_SCHEMA: &str = "a2a-run/job-manifest/v1";

/// File name of a job's manifest inside its subdirectory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// File name of a job's sealed result inside its subdirectory.
pub const RESULT_FILE: &str = "result.json";

/// Longest accepted job id (path-component safety, not a protocol
/// limit).
pub const MAX_JOB_ID_LEN: usize = 64;

/// Where a job is in its lifecycle. `Completed`, `Failed` and
/// `TimedOut` are terminal: a restarting server re-enqueues only
/// `Queued`/`Running` jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for an executor.
    Queued,
    /// An executor is (or was, at crash time) running it.
    Running,
    /// Finished; `result.json` holds the sealed outcome.
    Completed,
    /// Exhausted its retry budget or hit a non-retryable error.
    Failed,
    /// Stopped by its own deadline.
    TimedOut,
}

impl JobStatus {
    /// Canonical wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Completed => "completed",
            Self::Failed => "failed",
            Self::TimedOut => "timed_out",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// Names the unknown status.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "queued" => Ok(Self::Queued),
            "running" => Ok(Self::Running),
            "completed" => Ok(Self::Completed),
            "failed" => Ok(Self::Failed),
            "timed_out" => Ok(Self::TimedOut),
            other => Err(format!("unknown job status `{other}`")),
        }
    }

    /// Whether the job will never run again.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(self, Self::Completed | Self::Failed | Self::TimedOut)
    }
}

/// The durable per-job record: everything a restarted server needs to
/// re-enqueue and resume the job. The submitted spec rides along
/// verbatim (opaque [`Json`]) so the executor can rebuild the exact
/// evaluator; scheduling state (priority, admission sequence number)
/// is preserved so recovery respects the original ordering.
#[derive(Debug, Clone)]
pub struct JobManifest {
    /// Validated job id ([`validate_job_id`]).
    pub id: String,
    /// Owning tenant (quota accounting).
    pub tenant: String,
    /// Scheduling priority (higher first).
    pub priority: u32,
    /// Admission sequence number (FIFO tie-break within a priority).
    pub seq: u64,
    /// Lifecycle state.
    pub status: JobStatus,
    /// Execution attempts so far (retries increment this).
    pub attempts: u32,
    /// The submitted job spec, verbatim.
    pub spec: Json,
    /// Terminal error message, if any.
    pub error: Option<String>,
}

impl JobManifest {
    /// Serialises the manifest as a sealed JSON document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut doc = Json::object()
            .with("schema", JOB_MANIFEST_SCHEMA)
            .with("id", self.id.as_str())
            .with("tenant", self.tenant.as_str())
            .with("priority", u64::from(self.priority))
            .with("seq", self.seq)
            .with("status", self.status.as_str())
            .with("attempts", u64::from(self.attempts))
            .with("spec", self.spec.clone());
        if let Some(e) = &self.error {
            doc.set("error", e.as_str());
        }
        schema::seal(doc)
    }

    /// Parses and validates a manifest document (checksum first).
    ///
    /// # Errors
    ///
    /// A message naming the first failed gate.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        schema::verify_checksum(doc)?;
        expect_schema(doc, JOB_MANIFEST_SCHEMA)?;
        let id = str_member(doc, "id")?;
        validate_job_id(id)?;
        let u32_member = |key: &str| {
            u32::try_from(u64_member(doc, key)?).map_err(|e| format!("`{key}`: {e}"))
        };
        Ok(Self {
            id: id.to_string(),
            tenant: str_member(doc, "tenant")?.to_string(),
            priority: u32_member("priority")?,
            seq: u64_member(doc, "seq")?,
            status: JobStatus::parse(str_member(doc, "status")?)?,
            attempts: u32_member("attempts")?,
            spec: member(doc, "spec")?.clone(),
            error: doc.get("error").and_then(Json::as_str).map(str::to_string),
        })
    }
}

/// Rejects any id that is not a plain path component: 1 to
/// [`MAX_JOB_ID_LEN`] characters from `[A-Za-z0-9._-]`, not starting
/// with a dot. Everything the store does with an id goes through this
/// gate, so `../`, separators, and hidden-file tricks can never escape
/// the `jobs/` directory.
///
/// # Errors
///
/// A message naming the violated rule.
pub fn validate_job_id(id: &str) -> Result<(), String> {
    if id.is_empty() {
        return Err("job id must not be empty".to_string());
    }
    if id.len() > MAX_JOB_ID_LEN {
        return Err(format!("job id longer than {MAX_JOB_ID_LEN} characters"));
    }
    if id.starts_with('.') {
        return Err("job id must not start with `.`".to_string());
    }
    if let Some(bad) =
        id.chars().find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')))
    {
        return Err(format!("job id contains forbidden character `{bad}`"));
    }
    Ok(())
}

/// A directory tree of independent jobs (see the module docs for the
/// layout). Cloning shares nothing but the root path; all coordination
/// happens through the per-job files themselves.
#[derive(Debug, Clone)]
pub struct JobStore {
    root: PathBuf,
}

impl JobStore {
    /// A store rooted at `root` (created lazily on first save).
    #[must_use]
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self { root: root.into() }
    }

    /// The root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The subdirectory owning every file of job `id`.
    ///
    /// # Errors
    ///
    /// Invalid job id ([`validate_job_id`]).
    pub fn job_dir(&self, id: &str) -> Result<PathBuf, String> {
        validate_job_id(id)?;
        Ok(self.root.join("jobs").join(id))
    }

    /// The rolling [`CheckpointStore`] for job `id` (its evolution
    /// checkpoints live next to its manifest).
    ///
    /// # Errors
    ///
    /// Invalid job id.
    pub fn checkpoints(&self, id: &str) -> Result<CheckpointStore, String> {
        Ok(CheckpointStore::new(self.job_dir(id)?))
    }

    /// Every job id present under `jobs/`, sorted. An absent root is an
    /// empty store, not an error (nothing was ever saved).
    #[must_use]
    pub fn list(&self) -> Vec<String> {
        let Ok(entries) = std::fs::read_dir(self.root.join("jobs")) else {
            return Vec::new();
        };
        let mut ids: Vec<String> = entries
            .filter_map(Result::ok)
            .filter(|e| e.path().is_dir())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|id| validate_job_id(id).is_ok())
            .collect();
        ids.sort();
        ids
    }

    /// One page of job ids: the first `limit` ids strictly after the
    /// `after` cursor (lexicographic, matching [`JobStore::list`]'s
    /// order). `after: None` starts at the beginning; a returned page
    /// shorter than `limit` means the listing is exhausted, otherwise
    /// the last id of the page is the next cursor.
    #[must_use]
    pub fn list_page(&self, after: Option<&str>, limit: usize) -> Vec<String> {
        self.list()
            .into_iter()
            .filter(|id| after.is_none_or(|cursor| id.as_str() > cursor))
            .take(limit)
            .collect()
    }

    /// Retention sweep: deletes the job directories of terminal jobs
    /// (completed / failed / timed-out) beyond the `keep` most recently
    /// admitted ones, ordered by manifest `seq`. Non-terminal jobs and
    /// jobs whose manifest is missing or unreadable are never touched —
    /// expiry must not destroy evidence of corruption or in-flight
    /// work. Returns the pruned ids, sorted.
    ///
    /// # Errors
    ///
    /// The first directory removal that fails (already-pruned jobs stay
    /// pruned; the sweep is safe to re-run).
    pub fn prune_terminal(&self, keep: usize) -> Result<Vec<String>, String> {
        let mut terminal: Vec<(u64, String)> = self
            .list()
            .into_iter()
            .filter_map(|id| match self.load_manifest(&id) {
                Ok(Some(m)) if m.status.is_terminal() => Some((m.seq, id)),
                _ => None,
            })
            .collect();
        // Newest admissions first; everything past `keep` expires.
        terminal.sort_by(|a, b| b.cmp(a));
        let mut pruned: Vec<String> = Vec::new();
        for (_, id) in terminal.into_iter().skip(keep) {
            let dir = self.job_dir(&id)?;
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("cannot prune {}: {e}", dir.display()))?;
            pruned.push(id);
        }
        pruned.sort();
        Ok(pruned)
    }

    /// The `SealedDir` of job `id`'s `kind` documents: its manifest and
    /// result saves probe the `serve.checkpoint` fault site.
    fn sealed(&self, id: &str, kind: DocKind) -> Result<SealedDir, String> {
        Ok(SealedDir::new(self.job_dir(id)?, "serve.checkpoint", kind))
    }

    /// Persists `manifest` atomically (`SealedDir::save`, probing the
    /// `serve.checkpoint` fault site first).
    ///
    /// # Errors
    ///
    /// Invalid job id (as [`std::io::ErrorKind::InvalidInput`]) or any
    /// IO failure; the previous manifest survives either.
    pub fn save_manifest(&self, manifest: &JobManifest) -> std::io::Result<()> {
        let dir = self.sealed(&manifest.id, DocKind::Manifest).map_err(invalid_input)?;
        dir.save(MANIFEST_FILE, &manifest.to_json())
    }

    /// Loads and validates job `id`'s manifest. `Ok(None)` when the job
    /// has none (yet, or any more — a prune racing this read).
    ///
    /// # Errors
    ///
    /// Invalid id, unreadable file, bad JSON, checksum mismatch, or any
    /// schema violation — corruption is an error, never absence.
    pub fn load_manifest(&self, id: &str) -> Result<Option<JobManifest>, String> {
        self.sealed(id, DocKind::Manifest)?.load(MANIFEST_FILE, |doc| JobManifest::from_json(&doc))
    }

    /// Persists a job's sealed result document atomically (probing the
    /// `serve.checkpoint` fault site first). The document must already
    /// be sealed: `SealedDir::save` verifies rather than re-seals.
    ///
    /// # Errors
    ///
    /// An unsealed document or invalid id (as
    /// [`std::io::ErrorKind::InvalidInput`]), or any IO failure.
    pub fn save_result(&self, id: &str, result: &Json) -> std::io::Result<()> {
        self.sealed(id, DocKind::Result).map_err(invalid_input)?.save(RESULT_FILE, result)
    }

    /// Loads and checksum-verifies job `id`'s result. `Ok(None)` when
    /// no result was published (or the job was pruned meanwhile).
    ///
    /// # Errors
    ///
    /// Invalid id, unreadable file, bad JSON, or checksum mismatch.
    pub fn load_result(&self, id: &str) -> Result<Option<Json>, String> {
        self.sealed(id, DocKind::Result)?.load(RESULT_FILE, Ok)
    }
}

fn invalid_input(e: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(id: &str) -> JobManifest {
        JobManifest {
            id: id.to_string(),
            tenant: "acme".to_string(),
            priority: 3,
            seq: 17,
            status: JobStatus::Queued,
            attempts: 0,
            spec: Json::object().with("generations", 4u64).with("seed", 42u64),
            error: None,
        }
    }

    #[test]
    fn manifest_round_trips_through_sealed_json() {
        let m = manifest("job-1");
        let back = JobManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back.id, "job-1");
        assert_eq!(back.tenant, "acme");
        assert_eq!(back.priority, 3);
        assert_eq!(back.seq, 17);
        assert_eq!(back.status, JobStatus::Queued);
        assert_eq!(back.attempts, 0);
        assert_eq!(back.spec.get("seed").and_then(Json::as_f64), Some(42.0));
        assert!(back.error.is_none());

        let mut failed = manifest("job-1");
        failed.status = JobStatus::Failed;
        failed.error = Some("boom".to_string());
        let back = JobManifest::from_json(&failed.to_json()).unwrap();
        assert_eq!(back.status, JobStatus::Failed);
        assert_eq!(back.error.as_deref(), Some("boom"));
    }

    #[test]
    fn tampered_manifest_fails_checksum() {
        let mut doc = manifest("job-1").to_json();
        doc.set("attempts", 99u64);
        assert!(JobManifest::from_json(&doc).is_err());
    }

    #[test]
    fn job_ids_are_confined_to_path_components() {
        for ok in ["job-1", "a", "X.y_z-9", &"n".repeat(MAX_JOB_ID_LEN)] {
            validate_job_id(ok).unwrap();
        }
        for bad in ["", "..", ".hidden", "a/b", "a\\b", "a b", "tab\tid", "é"] {
            assert!(validate_job_id(bad).is_err(), "{bad:?} must be rejected");
        }
        assert!(validate_job_id(&"n".repeat(MAX_JOB_ID_LEN + 1)).is_err());
        let store = JobStore::new("/tmp/nowhere");
        assert!(store.job_dir("../escape").is_err());
        assert!(store.checkpoints("x/y").is_err());
    }

    #[test]
    fn statuses_round_trip_and_classify() {
        for s in [
            JobStatus::Queued,
            JobStatus::Running,
            JobStatus::Completed,
            JobStatus::Failed,
            JobStatus::TimedOut,
        ] {
            assert_eq!(JobStatus::parse(s.as_str()).unwrap(), s);
        }
        assert!(JobStatus::parse("exploded").is_err());
        assert!(!JobStatus::Queued.is_terminal());
        assert!(!JobStatus::Running.is_terminal());
        assert!(JobStatus::Completed.is_terminal());
        assert!(JobStatus::Failed.is_terminal());
        assert!(JobStatus::TimedOut.is_terminal());
    }

    #[test]
    fn store_saves_lists_and_reloads_jobs() {
        let root = std::env::temp_dir().join("a2a_run_jobstore_test");
        let _ = std::fs::remove_dir_all(&root);
        let store = JobStore::new(&root);
        assert!(store.list().is_empty(), "absent root lists empty");
        assert!(store.load_manifest("job-b").unwrap().is_none());

        store.save_manifest(&manifest("job-b")).unwrap();
        store.save_manifest(&manifest("job-a")).unwrap();
        assert_eq!(store.list(), vec!["job-a".to_string(), "job-b".to_string()]);

        let mut m = store.load_manifest("job-a").unwrap().unwrap();
        m.status = JobStatus::Running;
        m.attempts = 1;
        store.save_manifest(&m).unwrap();
        let back = store.load_manifest("job-a").unwrap().unwrap();
        assert_eq!(back.status, JobStatus::Running);
        assert_eq!(back.attempts, 1);
        // job-b's manifest is untouched by job-a's updates.
        assert_eq!(store.load_manifest("job-b").unwrap().unwrap().status, JobStatus::Queued);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn pagination_walks_the_listing_in_stable_pages() {
        let root = std::env::temp_dir().join("a2a_run_jobstore_page_test");
        let _ = std::fs::remove_dir_all(&root);
        let store = JobStore::new(&root);
        assert!(store.list_page(None, 10).is_empty(), "absent root pages empty");
        for i in 0..5 {
            store.save_manifest(&manifest(&format!("job-{i}"))).unwrap();
        }
        assert_eq!(store.list_page(None, 2), vec!["job-0", "job-1"]);
        assert_eq!(store.list_page(Some("job-1"), 2), vec!["job-2", "job-3"]);
        // Short page signals exhaustion; a cursor past the end is empty.
        assert_eq!(store.list_page(Some("job-3"), 2), vec!["job-4"]);
        assert!(store.list_page(Some("job-4"), 2).is_empty());
        // Walking page-by-page reconstructs the full listing exactly.
        let mut walked = Vec::new();
        let mut cursor: Option<String> = None;
        loop {
            let page = store.list_page(cursor.as_deref(), 2);
            let done = page.len() < 2;
            cursor = page.last().cloned();
            walked.extend(page);
            if done {
                break;
            }
        }
        assert_eq!(walked, store.list());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn retention_prunes_oldest_terminal_jobs_only() {
        let root = std::env::temp_dir().join("a2a_run_jobstore_prune_test");
        let _ = std::fs::remove_dir_all(&root);
        let store = JobStore::new(&root);
        // seq encodes admission age; statuses mix terminal and live.
        for (id, seq, status) in [
            ("done-old", 1, JobStatus::Completed),
            ("failed-old", 2, JobStatus::Failed),
            ("live-old", 3, JobStatus::Running),
            ("done-mid", 4, JobStatus::TimedOut),
            ("queued", 5, JobStatus::Queued),
            ("done-new", 6, JobStatus::Completed),
        ] {
            let mut m = manifest(id);
            m.seq = seq;
            m.status = status;
            store.save_manifest(&m).unwrap();
        }
        // Keep the 2 newest terminal jobs: done-new (6) and done-mid (4).
        let pruned = store.prune_terminal(2).unwrap();
        assert_eq!(pruned, vec!["done-old", "failed-old"]);
        assert_eq!(
            store.list(),
            vec!["done-mid", "done-new", "live-old", "queued"],
            "non-terminal jobs survive regardless of age"
        );
        // Re-running the sweep is a no-op; keep=0 expires every terminal job.
        assert!(store.prune_terminal(2).unwrap().is_empty());
        assert_eq!(store.prune_terminal(0).unwrap(), vec!["done-mid", "done-new"]);
        assert_eq!(store.list(), vec!["live-old", "queued"]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn results_must_be_sealed_and_survive_round_trip() {
        let root = std::env::temp_dir().join("a2a_run_jobstore_result_test");
        let _ = std::fs::remove_dir_all(&root);
        let store = JobStore::new(&root);
        assert!(store.load_result("job-r").unwrap().is_none());

        let unsealed = Json::object().with("best", 123u64);
        let err = store.save_result("job-r", &unsealed).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);

        let sealed = schema::seal(Json::object().with("best", 123u64));
        store.save_result("job-r", &sealed).unwrap();
        let back = store.load_result("job-r").unwrap().unwrap();
        assert_eq!(back.get("best").and_then(Json::as_f64), Some(123.0));

        // A torn/edited result is an error, never silently absent.
        std::fs::write(store.job_dir("job-r").unwrap().join(RESULT_FILE), b"{\"best\": 5}")
            .unwrap();
        assert!(store.load_result("job-r").is_err());
        let _ = std::fs::remove_dir_all(&root);
    }
}
