//! The flight recorder: per-thread lock-free ring buffers holding the
//! most recent observability records, dumped as a sealed
//! `a2a-obs/flight/v1` document when something goes wrong — so every
//! crash, injected fault or failed checkpoint write leaves a black box.
//!
//! # Design
//!
//! Each thread owns one fixed-capacity ring of [`Slot`]s; a record is
//! four relaxed atomic stores into the owner's ring (the owning thread
//! is the only writer, so no CAS loop and no lock — "lock-free" here is
//! the strong, wait-free kind). The ring overwrites its oldest entry
//! once full, keeping the last `capacity` records per thread. Event
//! names are interned to small ids once per distinct `&'static str`, so
//! the steady-state record path never allocates. Disabled (the
//! default), [`record`] is a single relaxed atomic load and an untaken
//! branch — the same fast-path discipline as [`crate::enabled`], with
//! the same ≤ 1 ns per-call budget.
//!
//! Rings are registered in a process-global list and kept alive by
//! `Arc`, so a dump sees the final records of threads that have already
//! exited (a worker that panicked, say). Readers snapshot a ring while
//! its owner may still be writing; each slot is read word-by-word, so a
//! record racing the dump may decode torn — acceptable for a black box,
//! and impossible in the quiescent states dumps actually happen in
//! (panic hooks, fault sites, checkpoint failures).
//!
//! # Dump format
//!
//! A dump is a JSONL stream: line 1 is the sealed header
//! (`schema: "a2a-obs/flight/v1"`, reason, counts, FNV checksum —
//! see [`read_dump`], the one reader), each following line one
//! record in the `a2a-obs/events/v1` line shape (`t_ms`, `level`,
//! `event`, optional `worker`, `fields`), globally ordered by
//! timestamp. Files are published with the same `.partial` → rename
//! discipline as [`crate::JsonlSink`], so a reader never sees a
//! half-written dump at the final path.
//!
//! # Quick start
//!
//! ```
//! use a2a_obs::flight;
//!
//! flight::enable();
//! flight::record(flight::Kind::Mark, "demo.step", 1, 2);
//! let text = flight::dump_string("demo");
//! assert!(text.starts_with("{\"schema\":\"a2a-obs/flight/v1\""));
//! assert_eq!(flight::read_dump(&text).unwrap().reason, "demo");
//! flight::disable();
//! ```
//!
//! Binaries normally never call this module directly: `A2A_FLIGHT=DIR`
//! (via [`crate::init_from_env`]) enables the recorder, points dumps at
//! `DIR` and installs the panic hook; [`crate::fault`] sites and the
//! `a2a-run` checkpoint path call [`dump`] on their own.

use crate::json::{parse, Json};
use crate::schema::FLIGHT_SCHEMA;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Default per-thread ring capacity (records kept per thread).
pub const DEFAULT_CAPACITY: usize = 1024;

/// Whether the recorder is on — the disabled fast-path gate.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Capacity used for rings created after the last [`set_capacity`].
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);

/// Every ring ever created, kept alive past thread exit.
static RINGS: OnceLock<Mutex<Vec<Arc<ThreadRing>>>> = OnceLock::new();

/// Where [`dump`] writes (set by `A2A_FLIGHT` or [`set_dump_dir`]).
static DUMP_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Monotone dump counter, so successive dumps never collide on a name.
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// What kind of moment a record captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// An [`crate::Event`] passing through [`crate::emit`].
    Event = 0,
    /// A [`crate::Span`] opening (`a` = span id, `b` = parent id).
    SpanEnter = 1,
    /// A [`crate::Span`] closing (`a` = span id, `b` = elapsed µs).
    SpanExit = 2,
    /// An injected fault firing (`a` = occurrence index).
    Fault = 3,
    /// A free-form caller mark (the panic hook's `flight.panic`).
    Mark = 4,
}

impl Kind {
    /// The stable lowercase name used in dump lines.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Event => "event",
            Self::SpanEnter => "span_enter",
            Self::SpanExit => "span_exit",
            Self::Fault => "fault",
            Self::Mark => "mark",
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            1 => Self::SpanEnter,
            2 => Self::SpanExit,
            3 => Self::Fault,
            4 => Self::Mark,
            _ => Self::Event,
        }
    }
}

/// One ring entry: timestamp, packed metadata and two payload words,
/// each an independent atomic so the recorder stays within
/// `#![forbid(unsafe_code)]`.
#[derive(Debug)]
struct Slot {
    t_ns: AtomicU64,
    /// Bits 0‥8 [`Kind`], bits 8‥40 interned name id, bits 40‥56
    /// worker id + 1 (0 = untagged).
    meta: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

fn pack_meta(kind: Kind, name_id: u32, worker: Option<usize>) -> u64 {
    let w = worker.map_or(0u64, |w| (w as u64 + 1).min((1 << 16) - 1));
    (kind as u64) | (u64::from(name_id) << 8) | (w << 40)
}

/// One thread's ring. The owning thread is the only writer; `head`
/// counts records ever written (so `head − capacity` is the oldest
/// still retained).
#[derive(Debug)]
struct ThreadRing {
    ordinal: u64,
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl ThreadRing {
    fn new(ordinal: u64, capacity: usize) -> Self {
        let slots = (0..capacity.max(16))
            .map(|_| Slot {
                t_ns: AtomicU64::new(0),
                meta: AtomicU64::new(0),
                a: AtomicU64::new(0),
                b: AtomicU64::new(0),
            })
            .collect();
        Self { ordinal, head: AtomicU64::new(0), slots }
    }

    fn push(&self, t_ns: u64, meta: u64, a: u64, b: u64) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head % self.slots.len() as u64) as usize];
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        slot.meta.store(meta, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        // Release-publish the slot words before the head advance that
        // makes them visible to a dumping reader.
        self.head.store(head + 1, Ordering::Release);
    }
}

fn rings() -> &'static Mutex<Vec<Arc<ThreadRing>>> {
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    /// This thread's ring, created on first record while enabled.
    static RING: OnceCell<Arc<ThreadRing>> = const { OnceCell::new() };
}

/// The name interner: `&'static str` → dense id, plus the reverse
/// table dumps decode through.
#[derive(Debug, Default)]
struct Interner {
    ids: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

static NAMES: OnceLock<RwLock<Interner>> = OnceLock::new();

fn interner() -> &'static RwLock<Interner> {
    NAMES.get_or_init(|| RwLock::new(Interner::default()))
}

fn intern(name: &'static str) -> u32 {
    if let Some(&id) = interner().read().expect("interner lock").ids.get(name) {
        return id;
    }
    let mut w = interner().write().expect("interner lock");
    if let Some(&id) = w.ids.get(name) {
        return id;
    }
    let id = w.names.len() as u32;
    w.names.push(name);
    w.ids.insert(name, id);
    id
}

fn name_of(id: u32) -> String {
    interner()
        .read()
        .expect("interner lock")
        .names
        .get(id as usize)
        .map_or_else(|| format!("?{id}"), |n| (*n).to_string())
}

/// Whether the recorder is on. One relaxed atomic load — the branch
/// every [`record`] call takes on the disabled path.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the recorder on. Rings are created lazily per thread on the
/// first record.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the recorder off (existing ring contents stay dumpable).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Sets the per-thread ring capacity for rings created from now on
/// (clamped to ≥ 16; existing rings keep their size).
pub fn set_capacity(capacity: usize) {
    CAPACITY.store(capacity.max(16), Ordering::Relaxed);
}

/// Records one moment into the calling thread's ring. A no-op costing
/// one relaxed load when the recorder is disabled; ~tens of ns when
/// enabled (clock read + four stores, plus the interning lookup).
#[inline]
pub fn record(kind: Kind, name: &'static str, a: u64, b: u64) {
    if !enabled() {
        return;
    }
    record_slow(kind, name, a, b);
}

#[cold]
fn record_slow(kind: Kind, name: &'static str, a: u64, b: u64) {
    let t_ns = crate::clock_ns();
    let meta = pack_meta(kind, intern(name), crate::worker_id());
    RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let ring = Arc::new(ThreadRing::new(
                crate::thread_ordinal(),
                CAPACITY.load(Ordering::Relaxed),
            ));
            rings().lock().expect("flight ring registry lock").push(Arc::clone(&ring));
            ring
        });
        ring.push(t_ns, meta, a, b);
    });
}

/// Records an event passing through [`crate::emit`]: the first two
/// numeric field values become the payload words (rounded to integers;
/// strings and later fields are dropped — the black box keeps shapes,
/// not payload fidelity).
pub(crate) fn note_event(event: &crate::Event) {
    if !enabled() {
        return;
    }
    let mut nums = event.fields.iter().filter_map(|(_, v)| match v {
        crate::Value::U64(n) => Some(*n),
        crate::Value::I64(n) => Some(*n as u64),
        crate::Value::F64(n) => Some(*n as u64),
        crate::Value::Bool(b) => Some(u64::from(*b)),
        crate::Value::Str(_) => None,
    });
    let a = nums.next().unwrap_or(0);
    let b = nums.next().unwrap_or(0);
    record_slow(Kind::Event, event.name, a, b);
}

/// One decoded ring record, as replayed from a dump or a live snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayRecord {
    /// Milliseconds since the process clock origin.
    pub t_ms: f64,
    /// Interned record name (event/span/site name).
    pub name: String,
    /// Record kind, as [`Kind::as_str`].
    pub kind: String,
    /// Position in the owning thread's record sequence (0-based).
    pub seq: u64,
    /// Owning thread's ordinal (see [`crate::thread_ordinal`]).
    pub thread: u64,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Worker tag, when the recording thread had one.
    pub worker: Option<u64>,
}

/// Decodes every ring's retained records, globally ordered by
/// timestamp (ties broken by thread then sequence).
#[must_use]
pub fn snapshot_records() -> Vec<ReplayRecord> {
    let mut out = Vec::new();
    for ring in rings().lock().expect("flight ring registry lock").iter() {
        let head = ring.head.load(Ordering::Acquire);
        let cap = ring.slots.len() as u64;
        let retained = head.min(cap);
        for seq in (head - retained)..head {
            let slot = &ring.slots[(seq % cap) as usize];
            let t_ns = slot.t_ns.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let kind = Kind::from_u8((meta & 0xFF) as u8);
            let name_id = ((meta >> 8) & 0xFFFF_FFFF) as u32;
            let w = (meta >> 40) & 0xFFFF;
            out.push(ReplayRecord {
                t_ms: t_ns as f64 / 1e6,
                name: name_of(name_id),
                kind: kind.as_str().to_string(),
                seq,
                thread: ring.ordinal,
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
                worker: (w > 0).then(|| w - 1),
            });
        }
    }
    out.sort_by(|x, y| {
        x.t_ms.total_cmp(&y.t_ms).then(x.thread.cmp(&y.thread)).then(x.seq.cmp(&y.seq))
    });
    out
}

fn record_line(r: &ReplayRecord) -> Json {
    let mut doc = Json::object()
        .with("t_ms", (r.t_ms * 1000.0).round() / 1000.0)
        .with("level", "trace")
        .with("event", r.name.clone());
    if let Some(w) = r.worker {
        doc.set("worker", w);
    }
    doc.set(
        "fields",
        Json::object()
            .with("kind", r.kind.clone())
            .with("seq", r.seq)
            .with("thread", r.thread)
            .with("a", r.a)
            .with("b", r.b),
    );
    doc
}

/// Renders the current ring contents as a complete dump document:
/// sealed header line plus one `events/v1`-shaped line per record.
#[must_use]
pub fn dump_string(reason: &str) -> String {
    let records = snapshot_records();
    let threads = {
        let mut t: Vec<u64> = records.iter().map(|r| r.thread).collect();
        t.sort_unstable();
        t.dedup();
        t.len()
    };
    // Records every ring has overwritten so far.
    let dropped: u64 = rings()
        .lock()
        .expect("flight ring registry lock")
        .iter()
        .map(|r| r.head.load(Ordering::Relaxed).saturating_sub(r.slots.len() as u64))
        .sum();
    let header = crate::schema::seal(
        Json::object()
            .with("schema", FLIGHT_SCHEMA)
            .with("reason", reason)
            .with("t_ms", (crate::clock_ms() * 1000.0).round() / 1000.0)
            .with("threads", threads)
            .with("records", records.len())
            .with("dropped", dropped),
    );
    let mut out = String::new();
    out.push_str(&header.to_string());
    out.push('\n');
    for r in &records {
        out.push_str(&record_line(r).to_string());
        out.push('\n');
    }
    out
}

/// Writes a dump to `path` via the shared `.partial` → rename
/// publication (see [`crate::publish_via_partial`]).
///
/// # Errors
///
/// Propagates IO errors; on error a `.partial` sibling may remain.
pub fn dump_to(path: impl AsRef<Path>, reason: &str) -> std::io::Result<()> {
    crate::sink::publish_via_partial(path, dump_string(reason).as_bytes())
}

/// Points [`dump`] at `dir` (created on first dump).
pub fn set_dump_dir(dir: impl Into<PathBuf>) {
    *DUMP_DIR.lock().expect("flight dump dir lock") = Some(dir.into());
}

/// The directory [`dump`] writes into, if configured.
#[must_use]
pub fn dump_dir() -> Option<PathBuf> {
    DUMP_DIR.lock().expect("flight dump dir lock").clone()
}

/// Dumps to the configured directory as
/// `flight-<pid>-<n>-<sanitised reason>.jsonl`, returning the
/// published path. The PID keeps concurrent processes pointed at one
/// shared dump directory (the CI `flight/` convention) from clobbering
/// each other's dumps; `n` separates successive dumps within a
/// process. `None` when the recorder is disabled, no directory is
/// configured, or the write fails — a flight dump must never take the
/// process down harder than it already is.
pub fn dump(reason: &str) -> Option<PathBuf> {
    if !enabled() {
        return None;
    }
    let dir = dump_dir()?;
    let _ = std::fs::create_dir_all(&dir);
    let n = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let slug: String = reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .take(48)
        .collect();
    let path = dir.join(format!("flight-{}-{n}-{slug}.jsonl", std::process::id()));
    dump_to(&path, reason).ok()?;
    Some(path)
}

/// Called from [`crate::fault`] when an injected fault fires: records
/// the firing (under the static shape name — the site string lands in
/// the dump's reason) and leaves a black box.
pub(crate) fn on_fault(site: &str, shape: &'static str) {
    if !enabled() {
        return;
    }
    record(Kind::Fault, shape, 0, 0);
    let _ = dump(&format!("fault-{site}"));
}

/// Installs a panic hook that dumps the rings (reason `"panic"`)
/// before delegating to the previous hook. Idempotent; the hook is a
/// no-op while the recorder is disabled, so tests that `catch_unwind`
/// expected panics are unaffected unless they opted in.
pub fn install_panic_hook() {
    static INSTALLED: AtomicBool = AtomicBool::new(false);
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if enabled() {
            record(Kind::Mark, "flight.panic", 0, 0);
            let _ = dump("panic");
        }
        prev(info);
    }));
}

/// Parses an `A2A_FLIGHT` value and configures the recorder:
/// `0`/`off`/empty disables; anything else enables, installs the panic
/// hook, and is taken as the dump directory (`1`/`on` use the default
/// `flight/`). A `dir:capacity` suffix overrides the ring size.
pub(crate) fn init_from_spec(spec: &str) {
    let spec = spec.trim();
    if spec.is_empty() || spec == "0" || spec.eq_ignore_ascii_case("off") {
        return;
    }
    let (dir, capacity) = match spec.rsplit_once(':') {
        Some((d, cap)) => match cap.parse::<usize>() {
            Ok(c) => (d, Some(c)),
            Err(_) => (spec, None),
        },
        None => (spec, None),
    };
    if let Some(c) = capacity {
        set_capacity(c);
    }
    let dir = if dir == "1" || dir.eq_ignore_ascii_case("on") { "flight" } else { dir };
    set_dump_dir(dir);
    enable();
    install_panic_hook();
}

/// What [`read_dump`] read from a flight-recorder dump.
#[derive(Debug, Clone, PartialEq)]
pub struct Dump {
    /// The dump's `reason` (why the black box was written).
    pub reason: String,
    /// Record count the sealed header declares.
    pub declared: usize,
    /// The record lines, decoded (the replay of the black box).
    pub records: Vec<ReplayRecord>,
    /// As [`crate::schema::EventsSummary::truncated_tail`]: a torn final
    /// line, only possible on a `.partial` dump a crash interrupted.
    pub truncated_tail: Option<String>,
}

/// Reads an `a2a-obs/flight/v1` dump stream, as [`dump_string`] writes
/// it: the first non-empty line must be the sealed header (schema,
/// verified checksum, reason and counts), every following line must
/// satisfy the `events/v1` line schema, and — unless the stream ends in
/// a torn final line — the record count must equal the header's
/// declaration. A torn tail is tolerated and reported, exactly as in
/// [`crate::schema::validate_events`].
///
/// # Errors
///
/// A message naming the first violated constraint.
pub fn read_dump(content: &str) -> Result<Dump, String> {
    let lines: Vec<&str> = content.lines().collect();
    let header_idx = lines
        .iter()
        .position(|l| !l.trim().is_empty())
        .ok_or("empty flight dump")?;
    let header = parse(lines[header_idx]).map_err(|e| format!("header: {e}"))?;
    let schema = header.get("schema").and_then(Json::as_str).ok_or("header missing `schema`")?;
    if schema != FLIGHT_SCHEMA {
        return Err(format!("schema `{schema}` is not `{FLIGHT_SCHEMA}`"));
    }
    crate::schema::verify_checksum(&header).map_err(|e| format!("header: {e}"))?;
    let reason = header
        .get("reason")
        .and_then(Json::as_str)
        .ok_or("header missing string `reason`")?
        .to_string();
    let count = |key: &str| {
        header
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("`header.{key}` must be a number"))
    };
    let declared = count("records")? as usize;
    count("threads")?;
    count("dropped")?;

    let body = lines[header_idx + 1..].join("\n");
    let truncated_tail = crate::schema::validate_events(&body)?.truncated_tail;
    // Every line but a torn tail parses now; the record lines are the
    // event lines among them.
    let records: Vec<ReplayRecord> = body
        .lines()
        .filter_map(|line| parse(line).ok())
        .filter(|doc| doc.get("level").is_some())
        .map(|doc| {
            let fields = doc.get("fields").cloned().unwrap_or_else(Json::object);
            let num = |d: &Json, k: &str| d.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            ReplayRecord {
                t_ms: num(&doc, "t_ms"),
                name: doc.get("event").and_then(Json::as_str).unwrap_or("?").to_string(),
                kind: fields.get("kind").and_then(Json::as_str).unwrap_or("event").to_string(),
                seq: num(&fields, "seq") as u64,
                thread: num(&fields, "thread") as u64,
                a: num(&fields, "a") as u64,
                b: num(&fields, "b") as u64,
                worker: doc.get("worker").and_then(Json::as_f64).map(|w| w as u64),
            }
        })
        .collect();
    match truncated_tail {
        None if records.len() != declared => Err(format!(
            "header declares {declared} records but the stream holds {}",
            records.len()
        )),
        Some(_) if records.len() >= declared => Err(format!(
            "torn stream holds {} records yet the header declares only {declared}",
            records.len()
        )),
        _ => Ok(Dump { reason, declared, records, truncated_tail }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recorder state is process-global; tests that enable serialise.
    static GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_recorder_is_inert() {
        let _g = GUARD.lock().unwrap();
        disable();
        let before = snapshot_records().len();
        record(Kind::Mark, "flight.test.inert", 1, 2);
        assert_eq!(snapshot_records().len(), before);
    }

    #[test]
    fn records_round_trip_through_dump() {
        let _g = GUARD.lock().unwrap();
        enable();
        record(Kind::Mark, "flight.test.rt", 7, 9);
        let text = dump_string("test");
        disable();
        assert!(text.starts_with(&format!("{{\"schema\":\"{FLIGHT_SCHEMA}\"")));
        let dump = read_dump(&text).unwrap();
        assert_eq!(dump.reason, "test");
        let mine = dump.records.iter().find(|r| r.name == "flight.test.rt").unwrap();
        assert_eq!((mine.a, mine.b), (7, 9));
        assert_eq!(mine.kind, "mark");
    }

    #[test]
    fn ring_overwrites_oldest() {
        let _g = GUARD.lock().unwrap();
        enable();
        // Far more records than any ring capacity: the ring must retain
        // the newest and report drops.
        for i in 0..(DEFAULT_CAPACITY as u64 + 64) {
            record(Kind::Mark, "flight.test.wrap", i, 0);
        }
        let records = snapshot_records();
        let text = dump_string("wrap");
        disable();
        let newest = records
            .iter()
            .filter(|r| r.name == "flight.test.wrap")
            .map(|r| r.a)
            .max()
            .unwrap();
        assert_eq!(newest, DEFAULT_CAPACITY as u64 + 63, "newest record retained");
        let header = parse(text.lines().next().unwrap()).unwrap();
        let dropped = header.get("dropped").and_then(Json::as_f64).unwrap();
        assert!(dropped > 0.0, "overwrites are counted");
    }

    #[test]
    fn other_threads_records_survive_thread_exit() {
        let _g = GUARD.lock().unwrap();
        enable();
        std::thread::spawn(|| record(Kind::Mark, "flight.test.dead_thread", 5, 0))
            .join()
            .unwrap();
        let records = snapshot_records();
        disable();
        assert!(records.iter().any(|r| r.name == "flight.test.dead_thread" && r.a == 5));
    }

    #[test]
    fn spec_grammar() {
        let _g = GUARD.lock().unwrap();
        init_from_spec("");
        init_from_spec("off");
        init_from_spec("0");
        assert!(!enabled(), "off specs leave the recorder disabled");
        init_from_spec("/tmp/a2a_flight_spec_test:128");
        assert!(enabled());
        assert_eq!(dump_dir().unwrap(), PathBuf::from("/tmp/a2a_flight_spec_test"));
        disable();
    }

    fn flight_dump(records: usize) -> String {
        let header = crate::schema::seal(
            Json::object()
                .with("schema", FLIGHT_SCHEMA)
                .with("reason", "test")
                .with("t_ms", 1.5)
                .with("threads", 1u64)
                .with("records", records as u64)
                .with("dropped", 0u64),
        );
        let mut out = format!("{header}\n");
        for i in 0..records {
            out.push_str(&format!(
                "{{\"t_ms\":{i}.5,\"level\":\"trace\",\"event\":\"t.r\",\
                 \"fields\":{{\"kind\":\"mark\",\"seq\":{i},\"thread\":0,\"a\":1,\"b\":2}}}}\n"
            ));
        }
        out
    }

    #[test]
    fn flight_dumps_validate() {
        let dump = read_dump(&flight_dump(3)).unwrap();
        assert_eq!((dump.declared, dump.records.len()), (3, 3));
        assert_eq!(dump.reason, "test");
        assert_eq!(dump.truncated_tail, None);
        assert_eq!((dump.records[2].seq, dump.records[2].a, dump.records[2].b), (2, 1, 2));
    }

    #[test]
    fn flight_header_gates() {
        assert!(read_dump("").is_err());
        assert!(read_dump("{\"schema\":\"other/v0\"}\n").is_err());
        // Unsealed header fails even with the right schema.
        let unsealed = format!(
            "{}\n",
            Json::object()
                .with("schema", FLIGHT_SCHEMA)
                .with("reason", "x")
                .with("threads", 0u64)
                .with("records", 0u64)
                .with("dropped", 0u64)
        );
        assert!(read_dump(&unsealed).unwrap_err().contains("checksum"));
        // A record-count mismatch on an untorn stream is truncation.
        let mut short = flight_dump(3);
        short = short.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(read_dump(&short).unwrap_err().contains("declares 3"));
    }

    #[test]
    fn flight_stream_tolerates_exactly_one_torn_final_line() {
        // The `validate_events` torn-tail discipline extends to the
        // flight stream: a crash mid-append tears at most the last line.
        let mut torn = flight_dump(3);
        torn.truncate(torn.len() - 20); // tear the final record line
        let dump = read_dump(&torn).unwrap();
        assert_eq!(dump.records.len(), 2, "lines before the tear count");
        assert!(dump.truncated_tail.is_some());

        // Mid-stream garbage is a hard error even in a flight dump.
        let mid = flight_dump(2).replace(
            "\"seq\":0",
            "\"seq\":0}GARBAGE{",
        );
        assert!(read_dump(&mid).is_err());
    }
}
