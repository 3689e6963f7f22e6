//! Pluggable event sinks: human-readable stderr and JSONL files.

use crate::event::Event;
use crate::json::Json;
use crate::Level;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// An event backend. Implementations must be cheap per record and
/// internally synchronised — `record` is called from arbitrary threads.
pub trait Sink: Send + Sync + fmt::Debug {
    /// Handles one event (already filtered by level).
    fn record(&self, event: &Event);
    /// The chattiest level this sink wants.
    fn verbosity(&self) -> Level;
    /// Forces buffered output out (end of run).
    fn flush(&self) {}
    /// Marks the run complete: flush plus any publish step (e.g. a
    /// [`JsonlSink`] renames its `.partial` file into place). Called by
    /// [`finalize_all`] at clean shutdown; a crashed process never gets
    /// here, which is exactly what distinguishes its artifacts.
    fn finalize(&self) {
        self.flush();
    }
}

/// Writes `bytes` to `path` atomically: a `.tmp` sibling is written and
/// fsynced, then renamed over `path`, and the containing directory is
/// fsynced so the rename itself is durable. Readers therefore see
/// either the previous complete file or the new complete file, never a
/// truncated mix — the invariant every sealed store document in this
/// workspace relies on.
///
/// Each of the four steps is followed by a kill probe of the
/// `store.publish` fault site ([`crate::fault`]). A probe that fires
/// ends the process with exit status 137, like a SIGKILL; the first
/// also deletes the unsynced temp file, approximating the data a power
/// loss drops.
///
/// # Errors
///
/// Propagates IO errors from any step; on error the target file is
/// untouched (a stale `.tmp` sibling may remain).
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    publish(path.as_ref(), bytes, ".tmp", Some("store.publish"))
}

/// Writes `bytes` to the `.partial` sibling of `path` (fsynced), then
/// renames it into place — the publication discipline [`JsonlSink`]
/// uses for event streams, shared here so flight-recorder dumps get
/// the same guarantee: the final path only ever holds a complete
/// document, and a crash mid-write leaves a diagnosable `.partial`.
///
/// # Errors
///
/// Propagates IO errors from any step; on error the target path is
/// untouched (a `.partial` sibling may remain — deliberately, as the
/// crash artifact).
pub fn publish_via_partial(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    // No kill probes: flight dumps publish this way while a fired
    // kill is being recorded.
    publish(path.as_ref(), bytes, ".partial", None)
}

/// Fsyncs directory `dir` (the empty path is the current directory),
/// making the entries created, renamed or removed in it durable.
///
/// # Errors
///
/// Opening or syncing the directory failed.
pub fn sync_dir(dir: &Path) -> std::io::Result<()> {
    let dir = if dir.as_os_str().is_empty() { Path::new(".") } else { dir };
    File::open(dir)?.sync_all()
}

/// The one publish body behind [`atomic_write`] and
/// [`publish_via_partial`]: write and fsync a unique `tag` sibling,
/// rename it over `path`, then fsync the directory so the rename itself
/// is durable. With a `kill_site`, each step is followed by a kill
/// probe of that site.
fn publish(path: &Path, bytes: &[u8], tag: &str, kill_site: Option<&str>) -> std::io::Result<()> {
    let temp = unique_sibling(path, tag);
    let probe = |temp_unsynced: bool| {
        if kill_site.is_some_and(crate::fault::should_kill) {
            if temp_unsynced {
                let _ = std::fs::remove_file(&temp);
            }
            std::process::exit(137);
        }
    };
    {
        let mut file = File::create(&temp)?;
        file.write_all(bytes)?;
        probe(true);
        file.sync_all()?;
        probe(false);
    }
    std::fs::rename(&temp, path)?;
    probe(false);
    sync_dir(path.parent().unwrap_or(Path::new("")))?;
    probe(false);
    Ok(())
}

/// `path` with `suffix` appended to the full file name (keeping any
/// existing extension: `events.jsonl` → `events.jsonl.partial`).
fn sibling_with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(suffix);
    path.with_file_name(name)
}

/// Monotonic per-process counter distinguishing concurrent temp files.
static TEMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// A process- and call-unique temp sibling of `path`:
/// `events.jsonl` → `events.jsonl.partial.<pid>-<seq>`. Two sinks (or
/// two processes sharing a directory) targeting the same published path
/// therefore never write through the same temp file — each publishes by
/// renaming its own temp, and last rename wins with a complete file.
fn unique_sibling(path: &Path, tag: &str) -> PathBuf {
    let seq = TEMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    sibling_with_suffix(path, &format!("{tag}.{}-{seq}", std::process::id()))
}

static SINKS: OnceLock<RwLock<Vec<Arc<dyn Sink>>>> = OnceLock::new();

fn sinks() -> &'static RwLock<Vec<Arc<dyn Sink>>> {
    SINKS.get_or_init(|| RwLock::new(Vec::new()))
}

/// Attaches a sink for the rest of the process lifetime and raises the
/// dispatch ceiling to its verbosity (also enabling metrics when the
/// sink wants info or chattier).
pub fn attach_sink(sink: Arc<dyn Sink>) {
    crate::raise_level(sink.verbosity());
    sinks().write().expect("sink lock never poisoned").push(sink);
}

/// Finalizes every attached sink (flush + publish). Binaries call this
/// once at clean exit — attached sinks live for the process lifetime,
/// so their `Drop` never runs.
pub fn finalize_all() {
    for_each_sink(|sink| sink.finalize());
}

/// Runs `f` over every attached sink.
pub(crate) fn for_each_sink(mut f: impl FnMut(&dyn Sink)) {
    for sink in sinks().read().expect("sink lock never poisoned").iter() {
        f(sink.as_ref());
    }
}

/// Human-readable sink: one line per event on stderr, written with a
/// single locked `write_all` so concurrent workers never interleave
/// partial lines (the fix for the garbled `println!` progress output).
#[derive(Debug)]
pub struct StderrSink {
    verbosity: Level,
}

impl StderrSink {
    /// A stderr sink admitting events up to `verbosity`.
    #[must_use]
    pub fn new(verbosity: Level) -> Self {
        Self { verbosity }
    }
}

impl Sink for StderrSink {
    fn record(&self, event: &Event) {
        let line = format!("{event}\n");
        let mut err = std::io::stderr().lock();
        let _ = err.write_all(line.as_bytes());
    }

    fn verbosity(&self) -> Level {
        self.verbosity
    }

    fn flush(&self) {
        let _ = std::io::stderr().flush();
    }
}

/// JSONL sink: one [`Event::to_json`] object per line, buffered. The
/// schema is documented in [`crate::schema`] and validated by
/// `schema::validate_event_line`. Extra non-event lines (registry
/// snapshots) can be appended with [`JsonlSink::write_json`].
///
/// # Crash safety
///
/// The stream is written to a process- and sink-unique `.partial.*`
/// sibling of the requested path and renamed into place by
/// [`JsonlSink::finalize`] (or `Drop`). A finished file at the
/// requested path is therefore always one a clean shutdown produced; a
/// `.partial.*` left behind marks a crashed run — still readable line
/// by line, with at most the final line truncated (which `obs_validate`
/// tolerates and reports). The rename keeps the open descriptor valid,
/// so events recorded after finalization still land in the published
/// file. Because each sink owns its own temp name, two sinks in one
/// process (or two processes sharing a directory) targeting the same
/// published path cannot corrupt each other's stream: each publishes a
/// complete file and the last rename wins.
#[derive(Debug)]
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
    verbosity: Level,
    /// Requested (published) path; the stream starts at `partial`.
    path: PathBuf,
    /// This sink's own unique temp path (see [`unique_sibling`]).
    partial: PathBuf,
    finalized: AtomicBool,
}

impl JsonlSink {
    /// Opens a unique `.partial.*` sibling of `path` and admits events
    /// up to `verbosity`; `path` itself appears at finalization.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: impl AsRef<Path>, verbosity: Level) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let partial = unique_sibling(&path, ".partial");
        let file = File::create(&partial)?;
        Ok(Self {
            out: Mutex::new(BufWriter::new(file)),
            verbosity,
            path,
            partial,
            finalized: AtomicBool::new(false),
        })
    }

    /// The published path (where the stream lands after finalization).
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The in-progress temp path this sink writes through until
    /// finalization (useful for diagnosing crashed runs).
    #[must_use]
    pub fn partial_path(&self) -> &Path {
        &self.partial
    }

    /// Appends an arbitrary JSON document as one line (registry
    /// snapshots, summaries).
    pub fn write_json(&self, doc: &Json) {
        let mut out = self.out.lock().expect("jsonl lock never poisoned");
        let _ = writeln!(out, "{doc}");
    }

    /// Flush + fsync + rename this sink's own temp file into the
    /// requested path. Idempotent; errors are swallowed (observability
    /// must never take the run down), leaving the temp behind as the
    /// artifact.
    fn publish(&self) {
        let mut out = self.out.lock().expect("jsonl lock never poisoned");
        let _ = out.flush();
        if self.finalized.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = out.get_ref().sync_all();
        let _ = std::fs::rename(&self.partial, &self.path);
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        self.write_json(&event.to_json());
    }

    fn verbosity(&self) -> Level {
        self.verbosity
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("jsonl lock never poisoned").flush();
    }

    fn finalize(&self) {
        self.publish();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.publish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let dir = std::env::temp_dir().join("a2a_obs_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        {
            let sink = JsonlSink::create(&path, Level::Debug).unwrap();
            sink.record(&Event::new(Level::Info, "t.one").field("v", 1u64));
            sink.write_json(&Json::object().with("snapshot", true));
            sink.flush();
        }
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            crate::json::parse(line).unwrap();
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn jsonl_sink_publishes_on_finalize_and_keeps_writing() {
        let dir = std::env::temp_dir().join("a2a_obs_sink_finalize_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let _ = std::fs::remove_file(&path);
        let sink = JsonlSink::create(&path, Level::Debug).unwrap();
        let partial = sink.partial_path().to_path_buf();
        assert_ne!(partial, path);
        assert!(
            partial.file_name().unwrap().to_string_lossy().contains(".partial."),
            "temp name carries a unique .partial.<pid>-<seq> tag"
        );
        sink.record(&Event::new(Level::Info, "t.before"));
        sink.flush();
        assert!(partial.exists(), "stream starts at the sink's own temp");
        assert!(!path.exists(), "published path only appears at finalize");
        sink.finalize();
        assert!(path.exists() && !partial.exists(), "finalize renames into place");
        // The open descriptor survives the rename: later records land in
        // the published file.
        sink.record(&Event::new(Level::Info, "t.after"));
        sink.finalize(); // idempotent; flushes the late record
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().count(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn two_sinks_on_one_path_never_share_a_partial() {
        // Regression: both sinks used to open the same `.partial`
        // sibling, so the second create truncated the first sink's
        // stream and the first finalize renamed a half-written mix.
        let dir = std::env::temp_dir().join("a2a_obs_sink_race_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let a = JsonlSink::create(&path, Level::Debug).unwrap();
        let b = JsonlSink::create(&path, Level::Debug).unwrap();
        assert_ne!(a.partial_path(), b.partial_path(), "each sink owns its temp");
        for i in 0..50u64 {
            a.record(&Event::new(Level::Info, "race.a").field("i", i));
            b.record(&Event::new(Level::Info, "race.b").field("i", i));
        }
        a.finalize();
        b.finalize();
        // Last finalize wins with a COMPLETE single-sink stream: every
        // line parses and all 50 records come from exactly one sink.
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 50);
        let names: std::collections::BTreeSet<String> = lines
            .iter()
            .map(|l| {
                let doc = crate::json::parse(l).unwrap();
                doc.get("event").and_then(Json::as_str).unwrap().to_string()
            })
            .collect();
        assert_eq!(names.len(), 1, "published stream is one sink's, not interleaved");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces_whole_files() {
        let dir = std::env::temp_dir().join("a2a_obs_atomic_write_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");
        atomic_write(&path, b"{\"v\": 1}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\": 1}\n");
        atomic_write(&path, b"{\"v\": 2}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\": 2}\n");
        let stale = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .count();
        assert_eq!(stale, 0, "no stale temp on success");
        let _ = std::fs::remove_file(&path);
    }
}
