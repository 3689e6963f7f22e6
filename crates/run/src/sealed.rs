//! The one sealed-document directory under every durable store.
//!
//! [`CheckpointStore`](crate::CheckpointStore),
//! [`JobStore`](crate::JobStore) and
//! [`CampaignStore`](crate::CampaignStore) are thin typed wrappers over
//! [`SealedDir`]: it owns the only write path (fault probe, seal check,
//! atomic publish) and the only read path (absent is `None`, parse,
//! checksum) of every document they persist, so crash safety and reader
//! totality are argued once, here. The member readers the stores'
//! `from_json` decoders share live beside it.

use a2a_obs::json::{self, Json};
use a2a_obs::{atomic_write, fault, schema, sync_dir, Span};
use std::io;
use std::path::{Path, PathBuf};

/// The kind of document a [`SealedDir`] handle saves and loads; it
/// names their spans, `store.save.<kind>` and `store.load.<kind>`, so
/// store I/O is one traced layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DocKind {
    /// A job manifest.
    Manifest,
    /// A job's sealed result.
    Result,
    /// A run's rolling checkpoint.
    Checkpoint,
    /// Any campaign artifact (spec, delta, barrier, archive, summary).
    Campaign,
}

impl DocKind {
    /// The span names of a save and of a load.
    fn spans(self) -> (&'static str, &'static str) {
        match self {
            Self::Manifest => ("store.save.manifest", "store.load.manifest"),
            Self::Result => ("store.save.result", "store.load.result"),
            Self::Checkpoint => ("store.save.checkpoint", "store.load.checkpoint"),
            Self::Campaign => ("store.save.campaign", "store.load.campaign"),
        }
    }
}

/// A directory of sealed JSON documents of one [`DocKind`], each
/// published atomically as `{doc}\n`, whose writes probe one
/// fault-injection site.
#[derive(Debug, Clone)]
pub(crate) struct SealedDir {
    dir: PathBuf,
    site: &'static str,
    kind: DocKind,
}

impl SealedDir {
    /// A directory at `dir` (created on first save) of `kind` documents
    /// whose saves probe the fault site `site`.
    #[must_use]
    pub(crate) fn new(dir: impl Into<PathBuf>, site: &'static str, kind: DocKind) -> Self {
        Self { dir: dir.into(), site, kind }
    }

    /// The directory.
    #[must_use]
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of document `name`.
    #[must_use]
    pub(crate) fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Publishes `doc` as `name`. Probes the fault site once, before any
    /// filesystem effect; refuses a document whose seal does not verify
    /// (the store verifies rather than re-seals, so a caller bug cannot
    /// be laundered into a valid-looking artifact); then creates the
    /// directory durably and writes `{doc}\n` with [`atomic_write`]
    /// (temp file, fsync, rename, directory fsync). A reader therefore
    /// sees the previous complete document or this one, never a torn
    /// mix.
    ///
    /// # Errors
    ///
    /// An injected fault, an unsealed document
    /// ([`io::ErrorKind::InvalidInput`]) or any IO failure; the previous
    /// document survives each.
    pub(crate) fn save(&self, name: &str, doc: &Json) -> io::Result<()> {
        let _span = Span::enter(self.kind.spans().0);
        fault::io_error(self.site)?;
        schema::verify_checksum(doc).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        create_dir_durably(&self.dir)?;
        atomic_write(self.path(name), format!("{doc}\n").as_bytes())
    }

    /// Loads document `name`, verifies its checksum and hands it to
    /// `decode`. `Ok(None)` when the file is absent *at read time*: there
    /// is no separate existence check for a concurrent delete (a
    /// retention sweep) to race with.
    ///
    /// # Errors
    ///
    /// A message naming the path: unreadable file, text that is not
    /// valid JSON, a checksum mismatch, or `decode`'s own error —
    /// corruption is an error, never absence.
    pub(crate) fn load<T>(
        &self,
        name: &str,
        decode: impl FnOnce(Json) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let _span = Span::enter(self.kind.spans().1);
        let path = self.path(name);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        let doc =
            json::parse(&text).map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
        schema::verify_checksum(&doc)
            .and_then(|()| decode(doc))
            .map(Some)
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Creates `dir` and its missing ancestors like `create_dir_all`, and
/// fsyncs the parent of each directory it creates, so a new directory —
/// a new job's, with the manifest its `202` promised — survives a power
/// loss together with the documents published into it.
fn create_dir_durably(dir: &Path) -> io::Result<()> {
    if dir.is_dir() {
        return Ok(());
    }
    let parent = dir.parent().unwrap_or(Path::new(""));
    if !parent.as_os_str().is_empty() {
        create_dir_durably(parent)?;
    }
    match std::fs::create_dir(dir) {
        // A concurrent save may have created it first; syncing the
        // parent again is harmless.
        Err(e) if e.kind() != io::ErrorKind::AlreadyExists => Err(e),
        _ => sync_dir(parent),
    }
}

/// Checks that `doc`'s `schema` member is `want`.
pub(crate) fn expect_schema(doc: &Json, want: &str) -> Result<(), String> {
    let got = doc.get("schema").and_then(Json::as_str).unwrap_or("<missing>");
    if got == want {
        Ok(())
    } else {
        Err(format!("expected schema `{want}`, found `{got}`"))
    }
}

/// Member `key` of `doc`.
pub(crate) fn member<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("missing `{key}`"))
}

/// Array member `key` of `doc`.
pub(crate) fn arr_member<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    doc.get(key).and_then(Json::as_arr).ok_or_else(|| format!("missing array `{key}`"))
}

/// String member `key` of `doc`.
pub(crate) fn str_member<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    doc.get(key).and_then(Json::as_str).ok_or_else(|| format!("missing string `{key}`"))
}

/// Numeric member `key` of `doc` as a `u64` (JSON numbers are `f64`;
/// the cast saturates).
pub(crate) fn u64_member(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .map(|v| v as u64)
        .ok_or_else(|| format!("missing numeric `{key}`"))
}

/// Numeric member `key` of `doc` as a `usize`.
pub(crate) fn usize_member(doc: &Json, key: &str) -> Result<usize, String> {
    u64_member(doc, key).map(|v| v as usize)
}
