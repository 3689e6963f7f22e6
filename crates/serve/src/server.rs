//! The service itself: TCP accept loop, connection workers, executor
//! threads, startup recovery, and the HTTP route table.
//!
//! # Threads
//!
//! * one accept thread feeding a small pool of connection workers
//!   (each connection is one request, `Connection: close`),
//! * `executors` job-executor threads popping the [`crate::JobQueue`],
//! * one shared [`WorkerPool`] for fitness evaluation across every job
//!   (the PR-4 watchdog/quarantine path, so a hung or panicking
//!   evaluation degrades the pool instead of the service).
//!
//! # Durability protocol
//!
//! A job is durable from the moment its manifest lands (before the
//! queue admits it — a crash in between re-admits it at startup). A
//! completed job writes its sealed result **before** flipping the
//! manifest to `completed`, so a valid `result.json` is the source of
//! truth at recovery. `SIGKILL` at any point is safe: restart reruns
//! every non-terminal job from its last checkpoint, or from its start
//! when it has none, and resume is bit-identical from any boundary.
//!
//! A checkpoint only bounds the work a crash makes a job redo, so
//! executors save one through the job's own
//! [`a2a_run::CheckpointStore`] once `JOB_CHECKPOINT_WORK` agent-steps
//! have run since the last one, and at any boundary where the job is
//! stopped (deadline or drain). A default job never reaches the
//! threshold and writes no checkpoint. Each of its four remaining
//! fsynced writes is read by something:
//!
//! * `queued` manifest — what the `202` promises: recovery re-admits it;
//! * `running` manifest — its `attempts`, which bound a job that kills
//!   the process on every attempt;
//! * `result.json` — the authoritative outcome;
//! * `completed` manifest — read by `GET /jobs/:id`, the paged listing
//!   and `POST /admin/prune`'s retention sweep.

use crate::http::{read_request, Request, RequestError, Response};
use crate::job::{build_islands_result, build_result, JobSpec};
use crate::queue::{JobQueue, QueueConfig, QueuedJob, SubmitError};
use a2a_fsm::FsmSpec;
use a2a_ga::{Evaluator, GaConfig, IslandConfig, WorkerPool};
use a2a_obs::json::{self, Json};
use a2a_obs::{fault, Event, Level};
use a2a_run::{
    context_digest, run_evolution, run_islands_checkpointed, validate_job_id, IslandsReport,
    JobManifest, JobStatus, JobStore, RunOptions, RunReport, StopSignal,
};
use a2a_sim::{paper_config_set, WorldConfig};
use std::collections::{HashMap, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-job event-buffer cap (oldest lines drop first).
const EVENT_BUFFER_LINES: usize = 512;

/// Connection-handler threads.
const CONN_WORKERS: usize = 8;

/// Retry budget for panicking attempts of a job that sets no
/// `max_retries` of its own.
const DEFAULT_MAX_RETRIES: u32 = 2;

/// First retry backoff sleep (doubles per attempt).
const RETRY_BASE: Duration = Duration::from_millis(10);

/// Cap on one retry backoff sleep.
const MAX_BACKOFF: Duration = Duration::from_secs(2);

/// Horizon-bounded agent-steps a job runs between checkpoints
/// ([`RunOptions::checkpoint_work`]): about 16.8 M, roughly half a
/// second of kernel time. A default job (44 800 per generation, 224 000
/// in all) never reaches it; a paper-protocol job (pool 20, 1003
/// configurations of 8 agents, `t_max` 200: ≈ 32.1 M per generation)
/// saves at every generation boundary.
const JOB_CHECKPOINT_WORK: u64 = 1 << 24;

/// Service configuration. [`ServeConfig::default`] binds an ephemeral
/// loopback port — fine for tests; real deployments set `addr`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port `0` picks one).
    pub addr: String,
    /// Durable job-store root directory.
    pub store_root: PathBuf,
    /// Queue capacity and tenant quotas.
    pub queue: QueueConfig,
    /// Job-executor threads (jobs running concurrently).
    pub executors: usize,
    /// Threads in the shared fitness [`WorkerPool`].
    pub worker_threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            store_root: PathBuf::from("serve-store"),
            queue: QueueConfig::default(),
            executors: 4,
            worker_threads: 1,
        }
    }
}

/// Everything the server's threads share.
#[derive(Debug)]
struct ServerState {
    cfg: ServeConfig,
    store: JobStore,
    queue: JobQueue,
    pool: Arc<WorkerPool>,
    draining: AtomicBool,
    shutdown: AtomicBool,
    /// In-memory progress event lines per job (`GET /jobs/<id>/events`).
    events: Mutex<HashMap<String, VecDeque<String>>>,
    /// Stop signals of currently executing jobs, raised on drain/stop.
    stops: Mutex<HashMap<String, StopSignal>>,
    started: Instant,
}

impl ServerState {
    fn push_event(&self, id: &str, line: String) {
        let mut events = self.events.lock().unwrap();
        let buf = events.entry(id.to_string()).or_default();
        if buf.len() >= EVENT_BUFFER_LINES {
            buf.pop_front();
        }
        buf.push_back(line);
    }

    fn counter(&self, name: &'static str) {
        if a2a_obs::metrics_enabled() {
            a2a_obs::global().counter(name).incr();
        }
    }

    fn gauge_depth(&self) {
        if a2a_obs::metrics_enabled() {
            a2a_obs::global().gauge("serve.queue.depth").set(self.queue.depth() as i64);
        }
    }

    /// Raises admission refusal and stops running jobs at their next
    /// checkpointed generation boundary (they re-queue durably).
    fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.queue.close();
        for stop in self.stops.lock().unwrap().values() {
            stop.stop();
        }
    }
}

/// The service. [`Server::start`] returns a [`ServerHandle`]; the
/// server runs until [`ServerHandle::stop`] (or process death, which is
/// always safe — see the crate docs).
#[derive(Debug)]
pub struct Server;

/// A running server: its bound address plus join/stop control.
#[derive(Debug)]
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    state: Arc<ServerState>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, recovers durable jobs, and spawns every thread.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    ///
    /// # Panics
    ///
    /// If the store root exists but holds a corrupt manifest layout so
    /// broken that recovery cannot even enumerate it (never for merely
    /// torn files — those are per-job errors, logged and skipped).
    pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            store: JobStore::new(&cfg.store_root),
            queue: JobQueue::new(cfg.queue),
            pool: Arc::new(WorkerPool::new(cfg.worker_threads)),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            events: Mutex::new(HashMap::new()),
            stops: Mutex::new(HashMap::new()),
            started: Instant::now(),
            cfg,
        });
        recover(&state);

        let mut threads = Vec::new();
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        for w in 0..CONN_WORKERS {
            let state = Arc::clone(&state);
            let rx = Arc::clone(&conn_rx);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("a2a-serve-conn-{w}"))
                    .spawn(move || connection_worker(&state, &rx))
                    .expect("spawn connection worker"),
            );
        }
        {
            let state = Arc::clone(&state);
            threads.push(
                std::thread::Builder::new()
                    .name("a2a-serve-accept".to_string())
                    .spawn(move || {
                        for stream in listener.incoming() {
                            if state.shutdown.load(Ordering::SeqCst) {
                                break;
                            }
                            match stream {
                                Ok(s) => {
                                    if conn_tx.send(s).is_err() {
                                        break;
                                    }
                                }
                                Err(_) => continue,
                            }
                        }
                        drop(conn_tx); // hangs up the connection workers
                    })
                    .expect("spawn accept thread"),
            );
        }
        for e in 0..state.cfg.executors.max(1) {
            let state = Arc::clone(&state);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("a2a-serve-exec-{e}"))
                    .spawn(move || {
                        while let Some(job) = state.queue.pop() {
                            state.gauge_depth();
                            execute(&state, &job);
                            state.queue.done(&job.tenant);
                        }
                    })
                    .expect("spawn executor"),
            );
        }
        a2a_obs::event!(Level::Info, "serve.start",
            "addr" => addr.to_string(), "recovered" => state.queue.depth() as u64);
        Ok(ServerHandle { addr, state, threads })
    }
}

impl ServerHandle {
    /// The bound listen address.
    #[must_use]
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Graceful drain: stop admitting, stop running jobs at their next
    /// boundary (re-queued durably). The handle stays joinable.
    pub fn drain(&self) {
        self.state.drain();
    }

    /// Drains, wakes the accept loop, and joins every thread.
    pub fn stop(mut self) {
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.drain();
        // Unblock `listener.incoming()` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Startup recovery: every durable job that is not yet terminal goes
/// back into the queue; a job whose sealed result survived gets its
/// manifest flipped to `completed` (the result file is authoritative —
/// the crash may have hit between the two writes).
///
/// No writer is live yet, so each job directory first loses the temp
/// files of writes a crash cut short before their rename. A directory
/// left with no manifest is deleted: only a crash inside the job's
/// first manifest write leaves one, and the `202` is sent after that
/// write lands, so nothing was promised. A torn manifest stays, and
/// lists as `unreadable`.
fn recover(state: &Arc<ServerState>) {
    for id in state.store.list() {
        let Ok(dir) = state.store.job_dir(&id) else { continue };
        remove_temps(&dir);
        let manifest = match state.store.load_manifest(&id) {
            Ok(Some(m)) => m,
            Ok(None) => {
                let removed = std::fs::remove_dir_all(&dir).is_ok();
                a2a_obs::event!(Level::Warn, "serve.recover.no_manifest",
                    "job" => id.as_str(), "removed" => removed);
                continue;
            }
            Err(e) => {
                a2a_obs::event!(Level::Warn, "serve.recover.skip",
                    "job" => id.as_str(), "error" => e);
                continue;
            }
        };
        if state.store.load_result(&id).is_ok_and(|r| r.is_some()) {
            if manifest.status != JobStatus::Completed {
                let mut m = manifest;
                m.status = JobStatus::Completed;
                let _ = state.store.save_manifest(&m);
            }
            continue;
        }
        if manifest.status.is_terminal() {
            continue;
        }
        let mut m = manifest;
        m.status = JobStatus::Queued;
        if let Err(e) = state.store.save_manifest(&m) {
            a2a_obs::event!(Level::Warn, "serve.recover.skip",
                "job" => id.as_str(), "error" => e.to_string());
            continue;
        }
        state.queue.recover(&m.id, &m.tenant, m.priority, m.seq);
        a2a_obs::event!(Level::Info, "serve.recover",
            "job" => m.id.as_str(), "tenant" => m.tenant.as_str());
    }
}

/// Removes the `<doc>.tmp.<pid>-<seq>` temp files (`atomic_write`) a
/// crash between a temp's creation and its rename leaves in `dir`.
fn remove_temps(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.filter_map(Result::ok) {
        if entry.file_name().to_string_lossy().contains(".tmp.") {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

fn connection_worker(state: &Arc<ServerState>, rx: &Arc<Mutex<mpsc::Receiver<TcpStream>>>) {
    loop {
        let stream = match rx.lock().unwrap().recv() {
            Ok(s) => s,
            Err(_) => return,
        };
        let mut stream = stream;
        let response = match read_request(&stream) {
            Ok(req) => dispatch(state, &req),
            Err(RequestError::TooLarge) => Response::error(413, "body too large"),
            Err(RequestError::HeadTooLarge) => Response::error(431, "request head too large"),
            Err(RequestError::Malformed(m)) => Response::error(400, &m),
            Err(RequestError::Io(_)) => continue, // peer vanished
        };
        let _ = response.write_to(&mut stream);
    }
}

/// The route table. Every request first crosses the `serve.request`
/// fault site: an injected refusal answers `500` and the server keeps
/// serving — request handling is stateless by construction.
fn dispatch(state: &Arc<ServerState>, req: &Request) -> Response {
    if fault::io_error("serve.request").is_err() {
        state.counter("serve.requests.faulted");
        return Response::error(500, "injected request fault");
    }
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => submit(state, &req.body),
        ("GET", ["jobs"]) => jobs_index(state, req),
        // An id the store would refuse names no job; checked here so
        // the store's refusal is not answered as a server fault.
        ("GET", ["jobs", id] | ["jobs", id, "result" | "events"])
            if validate_job_id(id).is_err() =>
        {
            Response::error(404, "no such job")
        }
        ("GET", ["jobs", id]) => job_status(state, id),
        ("GET", ["jobs", id, "result"]) => job_result(state, id),
        ("GET", ["jobs", id, "events"]) => job_events(state, id),
        ("GET", ["healthz"]) => healthz(state),
        ("GET", ["metrics"]) => Response::json(200, &a2a_obs::global().snapshot().to_json()),
        ("POST", ["admin", "drain"]) => {
            state.drain();
            Response::json(200, &Json::object().with("draining", true))
        }
        ("POST", ["admin", "prune"]) => prune(state, req),
        ("GET" | "POST", _) => Response::error(404, "no such route"),
        _ => Response::error(405, "method not allowed"),
    }
}

fn submit(state: &Arc<ServerState>, body: &[u8]) -> Response {
    if state.draining.load(Ordering::SeqCst) {
        return Response::error(503, "draining").with_retry_after(10);
    }
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "body is not UTF-8"),
    };
    let doc = match json::parse(text) {
        Ok(d) => d,
        Err(e) => return Response::error(400, &format!("bad JSON: {e}")),
    };
    let spec = match JobSpec::from_json(&doc) {
        Ok(s) => s,
        Err(e) => return Response::error(400, &e),
    };
    let seq = state.queue.next_seq();
    let id = spec.id.clone().unwrap_or_else(|| format!("j{seq}"));
    match state.store.load_manifest(&id) {
        Ok(None) => {}
        Ok(Some(_)) => return Response::error(409, "job id already exists"),
        Err(e) => return Response::error(500, &e),
    }
    // Durable-first: the manifest lands before the queue admits. A
    // crash in between leaves an orphan that recovery re-admits; a
    // refusal below removes it again.
    let manifest = JobManifest {
        id: id.clone(),
        tenant: spec.tenant.clone(),
        priority: spec.priority,
        seq,
        status: JobStatus::Queued,
        attempts: 0,
        spec: doc,
        error: None,
    };
    if let Err(e) = state.store.save_manifest(&manifest) {
        return Response::error(500, &format!("cannot persist job: {e}"));
    }
    match state.queue.submit(&id, &spec.tenant, spec.priority, seq) {
        Ok(()) => {
            state.counter("serve.jobs.submitted");
            state.gauge_depth();
            Response::json(
                202,
                &Json::object().with("id", id.as_str()).with("status", "queued"),
            )
        }
        Err(refusal) => {
            if let Ok(dir) = state.store.job_dir(&id) {
                let _ = std::fs::remove_dir_all(dir);
            }
            state.counter("serve.jobs.rejected");
            match refusal {
                SubmitError::Full => {
                    Response::error(429, "queue_full").with_retry_after(2)
                }
                SubmitError::TenantQuota => {
                    Response::error(429, "tenant_quota").with_retry_after(5)
                }
                SubmitError::Closed => Response::error(503, "draining").with_retry_after(10),
            }
        }
    }
}

/// Largest accepted `limit` on `GET /jobs` (a page is one response).
const MAX_PAGE: usize = 200;

/// `GET /jobs?after=<id>&limit=<n>`: one page of the durable job
/// listing, oldest-id first, with a `next` cursor while more pages
/// remain. Jobs whose manifest is torn still appear (status
/// `"unreadable"`) — pagination must not hide corruption.
fn jobs_index(state: &Arc<ServerState>, req: &Request) -> Response {
    let after = req.query_param("after");
    let limit = match req.query_param("limit") {
        None => 50,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if (1..=MAX_PAGE).contains(&n) => n,
            _ => return Response::error(400, &format!("`limit` must be 1..={MAX_PAGE}")),
        },
    };
    let page = state.store.list_page(after, limit);
    let next = (page.len() == limit).then(|| page.last().cloned()).flatten();
    let jobs: Vec<Json> = page
        .iter()
        .map(|id| {
            let mut entry = Json::object().with("id", id.as_str());
            match state.store.load_manifest(id) {
                Ok(Some(m)) => entry = entry
                    .with("status", m.status.as_str())
                    .with("tenant", m.tenant.as_str())
                    .with("seq", m.seq),
                Ok(None) | Err(_) => entry = entry.with("status", "unreadable"),
            }
            entry
        })
        .collect();
    let mut doc = Json::object().with("jobs", Json::Arr(jobs)).with("count", page.len() as u64);
    if let Some(cursor) = next {
        doc.set("next", cursor.as_str());
    }
    Response::json(200, &doc)
}

/// `POST /admin/prune?keep=<n>`: retention sweep — expires terminal
/// jobs beyond the `keep` most recently admitted (default 64). Running
/// and queued jobs are never touched ([`JobStore::prune_terminal`]).
fn prune(state: &Arc<ServerState>, req: &Request) -> Response {
    let keep = match req.query_param("keep") {
        None => 64,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return Response::error(400, "`keep` must be a non-negative integer"),
        },
    };
    match state.store.prune_terminal(keep) {
        Ok(pruned) => {
            state.counter("serve.jobs.pruned");
            let ids: Vec<Json> = pruned.iter().map(|id| Json::Str(id.clone())).collect();
            Response::json(
                200,
                &Json::object()
                    .with("pruned", Json::Arr(ids))
                    .with("kept", keep as u64),
            )
        }
        Err(e) => Response::error(500, &e),
    }
}

fn job_status(state: &Arc<ServerState>, id: &str) -> Response {
    match state.store.load_manifest(id) {
        Ok(Some(m)) => Response::json(200, &m.to_json()),
        Ok(None) => Response::error(404, "no such job"),
        Err(e) => Response::error(500, &e),
    }
}

fn job_result(state: &Arc<ServerState>, id: &str) -> Response {
    match state.store.load_result(id) {
        Ok(Some(doc)) => Response::json(200, &doc),
        Ok(None) => {
            let status = state
                .store
                .load_manifest(id)
                .ok()
                .flatten()
                .map_or("unknown", |m| m.status.as_str());
            Response::json(
                404,
                &Json::object().with("error", "result not ready").with("status", status),
            )
        }
        Err(e) => Response::error(500, &e),
    }
}

fn job_events(state: &Arc<ServerState>, id: &str) -> Response {
    let events = state.events.lock().unwrap();
    let body: String = events
        .get(id)
        .map(|buf| buf.iter().map(|l| format!("{l}\n")).collect())
        .unwrap_or_default();
    Response::text(200, body, "application/x-ndjson")
}

fn healthz(state: &Arc<ServerState>) -> Response {
    let draining = state.draining.load(Ordering::SeqCst);
    Response::json(
        200,
        &Json::object()
            .with("status", if draining { "draining" } else { "ok" })
            .with("queued", state.queue.depth() as u64)
            .with("running", state.queue.running() as u64)
            .with("uptime_ms", state.started.elapsed().as_millis() as u64),
    )
}

/// What one execution attempt produced.
enum Attempt {
    /// Ran to its generation budget; result is sealed and saved.
    Completed(Box<RunReport>, String),
    /// Island-model run that reached its epoch budget.
    CompletedIslands(Box<IslandsReport>, String),
    /// Stopped at a boundary: deadline and drain checkpoint it, a
    /// simulated kill does not.
    Stopped {
        timed_out: bool,
    },
}

/// Runs one job to a terminal state (or back to `queued` under drain),
/// retrying panicking attempts with exponential backoff.
fn execute(state: &Arc<ServerState>, job: &QueuedJob) {
    let exec_start = Instant::now();
    let mut manifest = match state.store.load_manifest(&job.id) {
        Ok(Some(m)) => m,
        Ok(None) | Err(_) => {
            a2a_obs::event!(Level::Warn, "serve.exec.orphan", "job" => job.id.as_str());
            return;
        }
    };
    if manifest.status.is_terminal() {
        return;
    }
    let spec = match JobSpec::from_json(&manifest.spec) {
        Ok(s) => s,
        Err(e) => {
            finish(state, &mut manifest, JobStatus::Failed, Some(e));
            return;
        }
    };
    let max_retries = spec.max_retries.unwrap_or(DEFAULT_MAX_RETRIES);

    loop {
        manifest.attempts += 1;
        manifest.status = JobStatus::Running;
        let _ = state.store.save_manifest(&manifest);

        let stop = StopSignal::new();
        state.stops.lock().unwrap().insert(job.id.clone(), stop.clone());
        // Jobs stopped by an earlier drain re-enter here after restart;
        // a drain raised between pop() and this point must still stick.
        if state.draining.load(Ordering::SeqCst) {
            stop.stop();
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_attempt(state, &job.id, &spec, exec_start, &stop)
        }));
        state.stops.lock().unwrap().remove(&job.id);

        match outcome {
            Ok(Ok(attempt @ (Attempt::Completed(..) | Attempt::CompletedIslands(..)))) => {
                let result = match &attempt {
                    Attempt::Completed(report, digest) => build_result(&job.id, digest, report),
                    Attempt::CompletedIslands(report, digest) => {
                        build_islands_result(&job.id, digest, report)
                    }
                    Attempt::Stopped { .. } => unreachable!("matched completed variants"),
                };
                match state.store.save_result(&job.id, &result) {
                    Ok(()) => {
                        finish(state, &mut manifest, JobStatus::Completed, None);
                        state.counter("serve.jobs.completed");
                        if a2a_obs::metrics_enabled() {
                            a2a_obs::global()
                                .histogram("serve.job.us")
                                .record_duration_us(exec_start.elapsed());
                        }
                        state.push_event(
                            &job.id,
                            Event::new(Level::Info, "serve.job.done")
                                .field("attempts", u64::from(manifest.attempts))
                                .to_json()
                                .to_string(),
                        );
                        return;
                    }
                    Err(e) => {
                        // A torn result save is transient (it crosses
                        // the serve.checkpoint fault site): retry the
                        // attempt — the work rule bounds what the rerun
                        // redoes since the last checkpoint.
                        if !retry_or_fail(state, &mut manifest, max_retries, &e.to_string()) {
                            return;
                        }
                    }
                }
            }
            Ok(Ok(Attempt::Stopped { timed_out: true })) => {
                finish(
                    state,
                    &mut manifest,
                    JobStatus::TimedOut,
                    Some("deadline exceeded".to_string()),
                );
                state.counter("serve.jobs.timed_out");
                return;
            }
            Ok(Ok(Attempt::Stopped { timed_out: false })) => {
                // Drain/shutdown preemption: back to durable `queued`;
                // the next start recovers it from its checkpoint.
                finish(state, &mut manifest, JobStatus::Queued, None);
                return;
            }
            Ok(Err(e)) => {
                // A hard harness refusal (corrupt checkpoint, digest
                // mismatch, impossible spec) will not improve on retry.
                finish(state, &mut manifest, JobStatus::Failed, Some(e));
                state.counter("serve.jobs.failed");
                return;
            }
            Err(panic) => {
                let cause = panic
                    .downcast_ref::<&str>()
                    .map(ToString::to_string)
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic".to_string());
                if !retry_or_fail(state, &mut manifest, max_retries, &cause) {
                    return;
                }
            }
        }
    }
}

/// Records a failed attempt; `true` means "retry again" (after the
/// backoff sleep), `false` means the job was terminally failed.
fn retry_or_fail(
    state: &Arc<ServerState>,
    manifest: &mut JobManifest,
    max_retries: u32,
    cause: &str,
) -> bool {
    a2a_obs::event!(Level::Warn, "serve.exec.attempt_failed",
        "job" => manifest.id.as_str(), "attempt" => u64::from(manifest.attempts),
        "cause" => cause);
    if manifest.attempts > max_retries {
        finish(state, manifest, JobStatus::Failed, Some(cause.to_string()));
        state.counter("serve.jobs.failed");
        return false;
    }
    state.counter("serve.jobs.retries");
    let backoff = RETRY_BASE.saturating_mul(1 << (manifest.attempts - 1).min(16)).min(MAX_BACKOFF);
    std::thread::sleep(backoff);
    true
}

/// Persists a terminal (or re-queued) manifest state.
fn finish(
    state: &Arc<ServerState>,
    manifest: &mut JobManifest,
    status: JobStatus,
    error: Option<String>,
) {
    manifest.status = status;
    manifest.error = error;
    if let Err(e) = state.store.save_manifest(manifest) {
        // The fault site can refuse this write too; the job stays
        // `running` on disk and recovery re-queues it — never lost.
        a2a_obs::event!(Level::Warn, "serve.exec.manifest_write_failed",
            "job" => manifest.id.as_str(), "error" => e.to_string());
    }
}

/// One attempt: build the world from the spec and run the checkpointed
/// harness, stopping at generation boundaries on deadline or drain.
fn run_attempt(
    state: &Arc<ServerState>,
    id: &str,
    spec: &JobSpec,
    exec_start: Instant,
    stop: &StopSignal,
) -> Result<Attempt, String> {
    let world = WorldConfig::paper(spec.grid, spec.m);
    let configs = paper_config_set(world.lattice, spec.grid, spec.k, spec.configs, spec.seed)
        .map_err(|e| format!("config set: {e:?}"))?;
    let mut ga = GaConfig::paper(spec.generations, spec.seed);
    ga.population = spec.population;
    ga.exchange_b = ga.exchange_b.clamp(1, spec.population / 2);
    let mut evaluator =
        Evaluator::new(world.clone(), configs).with_pool(Arc::clone(&state.pool));
    if spec.t_max > 0 {
        evaluator = evaluator.with_t_max(spec.t_max);
    }
    let digest = context_digest(&ga, &world, evaluator.t_max(), evaluator.configs());
    let opts = RunOptions {
        store: Some(state.store.checkpoints(id)?),
        checkpoint_work: JOB_CHECKPOINT_WORK,
        resume: true,
        stop: Some(stop.clone()),
    };
    let timed_out = AtomicBool::new(false);
    if spec.islands > 0 {
        // Island-model jobs checkpoint at epoch boundaries; deadline
        // and drain are honoured there too.
        let island_config = IslandConfig {
            islands: spec.islands,
            epoch: spec.epoch,
            migrants: spec.migrants,
        };
        let report = run_islands_checkpointed(
            FsmSpec::paper(spec.grid),
            &evaluator,
            ga,
            island_config,
            &opts,
            |epoch, outcomes| {
                fault::panic_point("serve.job.step");
                if let Some(deadline_ms) = spec.deadline_ms {
                    if exec_start.elapsed() >= Duration::from_millis(deadline_ms) {
                        timed_out.store(true, Ordering::SeqCst);
                        stop.stop();
                    }
                }
                if state.draining.load(Ordering::SeqCst) {
                    stop.stop();
                }
                let best = outcomes
                    .iter()
                    .map(|o| o.best().report.fitness)
                    .fold(f64::INFINITY, f64::min);
                state.push_event(
                    id,
                    Event::new(Level::Info, "serve.job.epoch")
                        .field("epoch", epoch as u64)
                        .field("islands", outcomes.len() as u64)
                        .field("best_fitness", best)
                        .to_json()
                        .to_string(),
                );
            },
        )?;
        return if report.stopped || report.killed {
            Ok(Attempt::Stopped { timed_out: timed_out.load(Ordering::SeqCst) })
        } else {
            Ok(Attempt::CompletedIslands(Box::new(report), digest))
        };
    }
    let report = run_evolution(
        FsmSpec::paper(spec.grid),
        &evaluator,
        ga,
        Vec::new(),
        &opts,
        |s| {
            fault::panic_point("serve.job.step");
            if let Some(deadline_ms) = spec.deadline_ms {
                if exec_start.elapsed() >= Duration::from_millis(deadline_ms) {
                    timed_out.store(true, Ordering::SeqCst);
                    stop.stop();
                }
            }
            if state.draining.load(Ordering::SeqCst) {
                stop.stop();
            }
            state.push_event(
                id,
                Event::new(Level::Info, "serve.job.gen")
                    .field("generation", s.generation as u64)
                    .field("best_fitness", s.best_fitness)
                    .field("best_complete", s.best_complete)
                    .to_json()
                    .to_string(),
            );
        },
    )?;
    if report.stopped || report.killed {
        Ok(Attempt::Stopped { timed_out: timed_out.load(Ordering::SeqCst) })
    } else {
        Ok(Attempt::Completed(Box::new(report), digest))
    }
}
