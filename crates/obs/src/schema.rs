//! The JSONL and `BENCH_obs.json` schemas, with validators.
//!
//! # Event-line schema (`a2a-obs/events/v1`)
//!
//! Every line a [`crate::JsonlSink`] writes is one JSON object. Event
//! lines carry:
//!
//! | member   | type    | notes                                          |
//! |----------|---------|------------------------------------------------|
//! | `t_ms`   | number  | ms since the process's first observability call |
//! | `level`  | string  | `error`/`warn`/`info`/`debug`/`trace`          |
//! | `event`  | string  | dot-separated name, e.g. `kernel.run`          |
//! | `worker` | number  | optional; pool-thread id                       |
//! | `fields` | object  | string → number \| string \| bool              |
//!
//! Lines without a `level` member are auxiliary documents (registry
//! snapshots, bench summaries) and are validated only as JSON.
//!
//! # Bench-snapshot schema (`a2a-obs/bench-snapshot/v1`)
//!
//! The consolidated perf snapshot `all_experiments` writes to
//! `BENCH_obs.json`:
//!
//! ```json
//! {
//!   "schema": "a2a-obs/bench-snapshot/v1",
//!   "kernel": {"grid": "T", "steps_per_sec": 1.2e8, ...},
//!   "fitness": {"evals_per_sec": 1234.5, ...},
//!   "t_comm": [{"grid": "T", "k": 16, "histogram": {...}}, ...],
//!   "ga": {"series": [{"generation": 0, "best": 1e4, "median": 2e4}, ...]},
//!   "overhead": {"event_disabled_ns": 0.4, "flight_record_disabled_ns": 0.9,
//!                "reps": 5, "min_rep_ms": 50},
//!   "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}}
//! }
//! ```
//!
//! `t_comm` must cover `k ∈ {4, 16, 64}` and `ga.series` must be
//! non-empty — the acceptance gate of the observability PR. `overhead`
//! carries the per-call cost of the two disabled paths (`event!` with
//! the level off, `flight::record` with the recorder disabled), each
//! the median of `reps` release-build reps of at least `min_rep_ms`.
//! Both must be positive; their ≤ 1 ns budget is recorded, not gated
//! (a 2-core host measures ~0.9 ns on the flight path, so a gate would
//! flap).
//!
//! # Fitness-bench schema (`a2a-obs/fitness-bench/v1`)
//!
//! The before/after throughput snapshot the adaptive fitness pipeline
//! writes to `BENCH_fitness.json` (see DESIGN.md §8):
//!
//! ```json
//! {
//!   "schema": "a2a-obs/fitness-bench/v1",
//!   "workload": {"population": 20, "children": 10, "configs": 100, "k": 16, "grid": "T"},
//!   "baseline": {"elapsed_us": 1.0e6, "epochs": 2},
//!   "adaptive": {"elapsed_us": 4.0e5, "cold_us": 3.9e5, "warm_us": 1.0e4,
//!                "cache_hits": 20, "cache_misses": 20},
//!   "selection": {"elapsed_us": 1.0e5, "pruned_genomes": 6, "pruned_configs": 540, "exact": 4},
//!   "speedup": 2.5,
//!   "identical_reports": true
//! }
//! ```
//!
//! `identical_reports` asserts the adaptive path reproduced the
//! baseline's `FitnessReport`s bit-for-bit; `speedup` must be ≥ 1 (the
//! adaptive path must never be slower), which CI gates on via
//! `obs_validate --fitness`.
//!
//! # Kernel-bench schema (`a2a-obs/kernel-bench/v4`)
//!
//! The three-path kernel throughput snapshot written to
//! `BENCH_kernel.json` (see [`validate_kernel_snapshot`] for the
//! shape): the `dense` full-scan multi path (the pre-frontier engine,
//! replayed in-process as the honest same-machine baseline), the
//! frontier `multi` path `run_all` ships, and the `parallel` path (the
//! same multi kernel sharded across a [`crate`]-external dispatcher) —
//! all over one whole-population workload. `identical_outcomes`
//! asserts every path reproduced the reference `World`'s outcomes
//! bit-for-bit. `frontier_speedup` (dense vs. frontier multi — the
//! sparse kernel's own win) gates ≥ 1. `parallel_speedup` (dense vs.
//! parallel) is recorded always and gated ≥ 3 only when
//! `parallel.workers` ≥ 4 — a single-core runner cannot honestly bind a
//! multi-core target, so the gate arms exactly where the hardware can
//! meet it. The `frontier` section carries the
//! measured per-step active-fraction histogram
//! (`kernel.frontier.active_pct`, captured on an untimed instrumented
//! pass) — the empirical shape that justifies sparse stepping. CI gates
//! the ratios against a checked-in baseline via
//! [`validate_kernel_regression`] (`obs_validate --kernel` /
//! `--kernel-baseline`).
//!
//! # Checksums
//!
//! Both snapshot payloads carry a `checksum` member: the FNV-1a 64-bit
//! hash (as 16 lowercase hex digits) of the document serialized
//! *without* its `checksum` member. Producers add it with [`seal`];
//! validators recompute and compare, so a torn or hand-edited artifact
//! fails `obs_validate` loudly instead of feeding corrupt numbers into
//! a report. The same hash seals `a2a-run/checkpoint/v1` documents.

use crate::json::{parse, Json};
use crate::registry::HistogramSnapshot;
use crate::Level;

/// Schema identifier written into `BENCH_obs.json`.
pub const BENCH_SNAPSHOT_SCHEMA: &str = "a2a-obs/bench-snapshot/v1";

/// Schema identifier written into `BENCH_fitness.json`.
pub const FITNESS_BENCH_SCHEMA: &str = "a2a-obs/fitness-bench/v1";

/// Schema identifier written into `BENCH_kernel.json`.
pub const KERNEL_BENCH_SCHEMA: &str = "a2a-obs/kernel-bench/v4";

/// Schema identifier written into `BENCH_serve.json` (the `a2a-serve`
/// load-test snapshot sealed by `serve_bench`, gated by
/// `obs_validate --serve`).
pub const SERVE_BENCH_SCHEMA: &str = "a2a-obs/serve-bench/v1";

/// The minimum worker count at which [`validate_kernel_snapshot`]
/// arms the ≥ [`PARALLEL_SPEEDUP_GATE`] gate on `parallel_speedup`.
/// Below it (CI single-core runners included) the ratio is recorded
/// but not floored — one core cannot honestly bind a multi-core
/// target.
pub const PARALLEL_GATE_MIN_WORKERS: f64 = 4.0;

/// The `parallel_speedup` floor enforced once the dispatcher has at
/// least [`PARALLEL_GATE_MIN_WORKERS`] workers.
pub const PARALLEL_SPEEDUP_GATE: f64 = 3.0;

/// Schema identifier written into `BENCH_campaign.json` (the sharded
/// MAP-Elites campaign snapshot sealed by `campaign_run --bench`,
/// gated by `obs_validate --campaign`).
pub const CAMPAIGN_BENCH_SCHEMA: &str = "a2a-obs/campaign-bench/v1";

/// The `scaling.ratio` floor (multi-shard aggregate throughput over
/// the 1-shard run on the same budget) enforced by
/// [`validate_campaign_snapshot`] once the host has at least
/// [`PARALLEL_GATE_MIN_WORKERS`] cores. Below that the ratio is
/// recorded but not floored — the same honest-hardware convention as
/// the kernel dispatcher gate.
pub const CAMPAIGN_SHARD_SPEEDUP_GATE: f64 = 2.0;

/// Schema identifier of a flight-recorder dump's sealed header line
/// (see [`crate::flight`] for the stream layout).
pub const FLIGHT_SCHEMA: &str = "a2a-obs/flight/v1";

/// Schema identifier of one sealed `results/bench_history.jsonl` line
/// (appended by `all_experiments`, consumed by `obs_report`).
pub const BENCH_HISTORY_SCHEMA: &str = "a2a-obs/bench-history/v1";

/// The fraction of a baseline's kernel `frontier_speedup` a fresh
/// snapshot must keep before [`validate_kernel_regression`] rejects it
/// (the CI perf-smoke gate: > 30 % regression fails).
pub const KERNEL_REGRESSION_FLOOR: f64 = 0.7;

/// The agent counts every bench snapshot must histogram `t_comm` for.
pub const REQUIRED_T_COMM_KS: [u64; 3] = [4, 16, 64];

/// FNV-1a 64-bit hash — the workspace's checksum primitive (no crypto
/// needed: the adversary is a torn write, not an attacker).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01B3);
    }
    hash
}

/// The checksum of `doc`: FNV-1a 64 over the document serialized with
/// its top-level `checksum` member (if any) removed, as 16 lowercase
/// hex digits.
#[must_use]
pub fn document_checksum(doc: &Json) -> String {
    let body = match doc.as_obj() {
        Some(entries) => Json::Obj(
            entries.iter().filter(|(k, _)| k != "checksum").cloned().collect(),
        ),
        None => doc.clone(),
    };
    format!("{:016x}", fnv1a64(body.to_string().as_bytes()))
}

/// Adds (or replaces) the `checksum` member of `doc` so that
/// [`verify_checksum`] accepts it.
#[must_use]
pub fn seal(doc: Json) -> Json {
    let sum = document_checksum(&doc);
    doc.with("checksum", sum)
}

/// Verifies the `checksum` member of `doc` against the recomputed
/// value.
///
/// # Errors
///
/// A message naming the problem: missing/non-string member, or a
/// mismatch (both digests included).
pub fn verify_checksum(doc: &Json) -> Result<(), String> {
    let claimed = doc
        .get("checksum")
        .ok_or("missing `checksum`")?
        .as_str()
        .ok_or("`checksum` must be a string")?;
    let actual = document_checksum(doc);
    if claimed == actual {
        Ok(())
    } else {
        Err(format!("checksum mismatch: document says {claimed}, content hashes to {actual}"))
    }
}

/// Validates one JSONL line: any valid JSON object is accepted, and
/// objects carrying a `level` member must satisfy the event schema.
///
/// # Errors
///
/// A message naming the first violated constraint.
pub fn validate_event_line(line: &str) -> Result<(), String> {
    let doc = parse(line)?;
    if doc.as_obj().is_none() {
        return Err("line is not a JSON object".to_string());
    }
    let Some(level) = doc.get("level") else {
        return Ok(()); // auxiliary document (snapshot, summary)
    };
    let level = level.as_str().ok_or("`level` must be a string")?;
    if Level::parse(level).is_none_or(|l| l == Level::Off) {
        return Err(format!("unknown level `{level}`"));
    }
    doc.get("t_ms").and_then(Json::as_f64).ok_or("event missing numeric `t_ms`")?;
    let name = doc.get("event").and_then(Json::as_str).ok_or("event missing string `event`")?;
    if name.is_empty() {
        return Err("`event` must be non-empty".to_string());
    }
    if let Some(worker) = doc.get("worker") {
        worker.as_f64().ok_or("`worker` must be a number")?;
    }
    let fields = doc.get("fields").ok_or("event missing `fields`")?;
    let entries = fields.as_obj().ok_or("`fields` must be an object")?;
    for (key, value) in entries {
        match value {
            Json::Num(_) | Json::Str(_) | Json::Bool(_) => {}
            _ => return Err(format!("field `{key}` must be a scalar")),
        }
    }
    Ok(())
}

/// What [`validate_events`] found in a JSONL stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EventsSummary {
    /// Number of validated event lines (lines with a `level` member).
    pub events: usize,
    /// `Some(problem)` when the final non-empty line was not valid JSON
    /// — the signature a crashed writer leaves (a line torn mid-write).
    /// Tolerated so one truncated tail never invalidates the thousands
    /// of good lines before it, but reported so the reader knows the
    /// stream is from an unclean shutdown.
    pub truncated_tail: Option<String>,
}

/// Validates a whole JSONL stream (one document per non-empty line).
/// Returns the number of validated event lines, tolerating (and
/// reporting) an unparseable *final* line as a truncated tail.
///
/// # Errors
///
/// The first offending line number and its problem — for any line
/// other than a torn final one.
pub fn validate_events(content: &str) -> Result<EventsSummary, String> {
    let mut summary = EventsSummary::default();
    let last_line = content.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()).last();
    for (i, line) in content.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if let Err(e) = validate_event_line(line) {
            // Only an unparseable final line can be a torn tail; a line
            // that parses but violates the event schema is a producer
            // bug wherever it sits.
            if last_line.map(|(j, _)| j) == Some(i) && parse(line).is_err() {
                summary.truncated_tail = Some(format!("line {}: {e}", i + 1));
                break;
            }
            return Err(format!("line {}: {e}", i + 1));
        }
        if parse(line).is_ok_and(|d| d.get("level").is_some()) {
            summary.events += 1;
        }
    }
    Ok(summary)
}

/// What [`validate_flight`] found in a flight-recorder dump.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlightSummary {
    /// The dump's `reason` (why the black box was written).
    pub reason: String,
    /// Record count the sealed header declares.
    pub declared: usize,
    /// Record lines actually validated.
    pub records: usize,
    /// As [`EventsSummary::truncated_tail`]: a torn final line, only
    /// possible on a `.partial` dump a crash interrupted.
    pub truncated_tail: Option<String>,
}

/// Validates an `a2a-obs/flight/v1` dump stream: the first non-empty
/// line must be the sealed header (schema, verified checksum, reason
/// and counts), every following line must satisfy the `events/v1` line
/// schema, and — unless the stream ends in a torn final line — the
/// validated record count must equal the header's declaration. A torn
/// tail is tolerated and reported, exactly as in [`validate_events`].
///
/// # Errors
///
/// A message naming the first violated constraint.
pub fn validate_flight(content: &str) -> Result<FlightSummary, String> {
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
    verify_checksum(&header).map_err(|e| format!("header: {e}"))?;
    let reason = header
        .get("reason")
        .and_then(Json::as_str)
        .ok_or("header missing string `reason`")?
        .to_string();
    let declared = require_num(&header, "header", "records")? as usize;
    require_num(&header, "header", "threads")?;
    require_num(&header, "header", "dropped")?;

    let body = lines[header_idx + 1..].join("\n");
    let events = validate_events(&body)?;
    let summary = FlightSummary {
        reason,
        declared,
        records: events.events,
        truncated_tail: events.truncated_tail,
    };
    match summary.truncated_tail {
        None if summary.records != declared => Err(format!(
            "header declares {declared} records but the stream holds {}",
            summary.records
        )),
        Some(_) if summary.records >= declared => Err(format!(
            "torn stream holds {} records yet the header declares only {declared}",
            summary.records
        )),
        _ => Ok(summary),
    }
}

/// Validates one sealed `results/bench_history.jsonl` line
/// (`a2a-obs/bench-history/v1`) and returns the parsed document: the
/// per-run trend point `obs_report` plots. Requires a `kernel` section,
/// a positive `fitness.speedup` ratio and a numeric `t_ms` stamp. The
/// kernel's `frontier_speedup`, `frontier_active` and
/// `dispatch_workers` are optional (older lines predate them, and the
/// ratios of retired kernel paths they carry instead are ignored) but
/// type- and sign-checked when present, and `frontier_speedup < 1` is
/// rejected — a frontier kernel slower than its own dense scan is a
/// regression whatever machine ran it.
///
/// # Errors
///
/// A message naming the first violated constraint.
pub fn validate_history_line(line: &str) -> Result<Json, String> {
    let doc = parse(line)?;
    let schema = doc.get("schema").and_then(Json::as_str).ok_or("missing `schema`")?;
    if schema != BENCH_HISTORY_SCHEMA {
        return Err(format!("schema `{schema}` is not `{BENCH_HISTORY_SCHEMA}`"));
    }
    verify_checksum(&doc)?;
    require_num(&doc, "history", "t_ms")?;
    let kernel = doc.get("kernel").ok_or("missing `kernel`")?;
    if !matches!(kernel, Json::Obj(_)) {
        return Err("`kernel` must be an object".to_string());
    }
    if let Some(v) = kernel.get("frontier_speedup") {
        let v = v.as_f64().ok_or("`kernel.frontier_speedup` must be a number")?;
        if !v.is_finite() || v < 1.0 {
            return Err(format!(
                "`kernel.frontier_speedup` is {v}: the frontier kernel must not be slower \
                 than its own dense scan"
            ));
        }
    }
    for key in ["frontier_active", "dispatch_workers"] {
        if let Some(v) = kernel.get(key) {
            let v = v.as_f64().ok_or_else(|| format!("`kernel.{key}` must be a number"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("`kernel.{key}` must be non-negative"));
            }
        }
    }
    let fitness = doc.get("fitness").ok_or("missing `fitness`")?;
    let v = require_num(fitness, "fitness", "speedup")?;
    if !v.is_finite() || v <= 0.0 {
        return Err("`fitness.speedup` must be a positive ratio".to_string());
    }
    Ok(doc)
}

/// Validates a whole `bench_history.jsonl` stream and returns the
/// parsed entries in file order, tolerating (and dropping) an
/// unparseable *final* line — the append-only file may be mid-write
/// when read.
///
/// # Errors
///
/// The first offending line number and its problem — for any line
/// other than a torn final one.
pub fn validate_history(content: &str) -> Result<Vec<Json>, String> {
    let mut entries = Vec::new();
    let last_line = content.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()).last();
    for (i, line) in content.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match validate_history_line(line) {
            Ok(doc) => entries.push(doc),
            Err(e) => {
                if last_line.map(|(j, _)| j) == Some(i) && parse(line).is_err() {
                    break; // torn tail of an in-flight append
                }
                return Err(format!("line {}: {e}", i + 1));
            }
        }
    }
    Ok(entries)
}

fn require_num(doc: &Json, path: &str, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("`{path}.{key}` must be a number"))
}

/// Validates a parsed `BENCH_obs.json` document against
/// `a2a-obs/bench-snapshot/v1`.
///
/// # Errors
///
/// A message naming the first violated constraint.
pub fn validate_bench_snapshot(doc: &Json) -> Result<(), String> {
    let schema = doc.get("schema").and_then(Json::as_str).ok_or("missing `schema`")?;
    if schema != BENCH_SNAPSHOT_SCHEMA {
        return Err(format!("schema `{schema}` is not `{BENCH_SNAPSHOT_SCHEMA}`"));
    }
    verify_checksum(doc)?;

    let kernel = doc.get("kernel").ok_or("missing `kernel`")?;
    let sps = require_num(kernel, "kernel", "steps_per_sec")?;
    if !sps.is_finite() || sps <= 0.0 {
        return Err("`kernel.steps_per_sec` must be positive".to_string());
    }
    let fitness = doc.get("fitness").ok_or("missing `fitness`")?;
    let eps = require_num(fitness, "fitness", "evals_per_sec")?;
    if !eps.is_finite() || eps <= 0.0 {
        return Err("`fitness.evals_per_sec` must be positive".to_string());
    }

    let t_comm = doc.get("t_comm").and_then(Json::as_arr).ok_or("missing `t_comm` array")?;
    for required_k in REQUIRED_T_COMM_KS {
        let entry = t_comm
            .iter()
            .find(|e| e.get("k").and_then(Json::as_f64) == Some(required_k as f64))
            .ok_or_else(|| format!("`t_comm` missing an entry for k = {required_k}"))?;
        entry.get("grid").and_then(Json::as_str).ok_or("t_comm entry missing `grid`")?;
        let hist = entry.get("histogram").ok_or("t_comm entry missing `histogram`")?;
        let snap = HistogramSnapshot::from_json(hist)?;
        if snap.count == 0 {
            return Err(format!("t_comm histogram for k = {required_k} is empty"));
        }
    }

    let ga = doc.get("ga").ok_or("missing `ga`")?;
    let series = ga.get("series").and_then(Json::as_arr).ok_or("missing `ga.series`")?;
    if series.is_empty() {
        return Err("`ga.series` must be non-empty".to_string());
    }
    for point in series {
        require_num(point, "ga.series[]", "generation")?;
        require_num(point, "ga.series[]", "best")?;
        require_num(point, "ga.series[]", "median")?;
    }

    let overhead = doc.get("overhead").ok_or("missing `overhead`")?;
    for key in ["event_disabled_ns", "flight_record_disabled_ns"] {
        let ns = require_num(overhead, "overhead", key)?;
        if !ns.is_finite() || ns <= 0.0 {
            return Err(format!("`overhead.{key}` must be positive"));
        }
    }
    Ok(())
}

/// Validates a parsed `BENCH_fitness.json` document against
/// `a2a-obs/fitness-bench/v1`: structural members present, the adaptive
/// path not slower than the baseline, and reports bit-identical.
///
/// # Errors
///
/// A message naming the first violated constraint.
pub fn validate_fitness_snapshot(doc: &Json) -> Result<(), String> {
    let schema = doc.get("schema").and_then(Json::as_str).ok_or("missing `schema`")?;
    if schema != FITNESS_BENCH_SCHEMA {
        return Err(format!("schema `{schema}` is not `{FITNESS_BENCH_SCHEMA}`"));
    }
    verify_checksum(doc)?;

    let workload = doc.get("workload").ok_or("missing `workload`")?;
    for key in ["population", "children", "configs", "k"] {
        let v = require_num(workload, "workload", key)?;
        if v <= 0.0 {
            return Err(format!("`workload.{key}` must be positive"));
        }
    }
    workload.get("grid").and_then(Json::as_str).ok_or("`workload.grid` must be a string")?;

    let baseline = doc.get("baseline").ok_or("missing `baseline`")?;
    let baseline_us = require_num(baseline, "baseline", "elapsed_us")?;
    let adaptive = doc.get("adaptive").ok_or("missing `adaptive`")?;
    let adaptive_us = require_num(adaptive, "adaptive", "elapsed_us")?;
    for key in ["cache_hits", "cache_misses"] {
        require_num(adaptive, "adaptive", key)?;
    }
    if baseline_us <= 0.0 || adaptive_us <= 0.0 {
        return Err("elapsed times must be positive".to_string());
    }

    let selection = doc.get("selection").ok_or("missing `selection`")?;
    for key in ["pruned_genomes", "pruned_configs", "exact"] {
        require_num(selection, "selection", key)?;
    }

    let speedup = doc.get("speedup").and_then(Json::as_f64).ok_or("missing `speedup`")?;
    if !speedup.is_finite() || speedup < 1.0 {
        return Err(format!(
            "`speedup` is {speedup:.3}: the adaptive pipeline must not be slower than the baseline"
        ));
    }
    match doc.get("identical_reports") {
        Some(Json::Bool(true)) => Ok(()),
        Some(Json::Bool(false)) => {
            Err("`identical_reports` is false: the adaptive path changed results".to_string())
        }
        _ => Err("missing boolean `identical_reports`".to_string()),
    }
}

/// Validates a parsed `BENCH_serve.json` document against
/// `a2a-obs/serve-bench/v1`: the load test must have completed every
/// submitted job with zero lost or duplicated results, observed both
/// queue backpressure (≥ 1 rejection with a `Retry-After` header) and
/// a per-tenant quota rejection, and recorded a positive throughput
/// with a monotone latency distribution.
///
/// ```json
/// {
///   "schema": "a2a-obs/serve-bench/v1",
///   "workload": {"jobs": 1000, "tenants": 4, "clients": 8},
///   "jobs": {"submitted": 1000, "completed": 1000, "lost": 0, "duplicated": 0},
///   "backpressure": {"rejected_429": 17, "retry_after": true},
///   "quota": {"rejected_429": 3},
///   "throughput": {"jobs_per_sec": 210.0, "elapsed_us": 4.7e6},
///   "latency_ms": {"p50": 12.0, "p90": 31.0, "p99": 55.0},
///   "checksum": "…"
/// }
/// ```
///
/// # Errors
///
/// A message naming the first violated constraint.
pub fn validate_serve_snapshot(doc: &Json) -> Result<(), String> {
    let schema = doc.get("schema").and_then(Json::as_str).ok_or("missing `schema`")?;
    if schema != SERVE_BENCH_SCHEMA {
        return Err(format!("schema `{schema}` is not `{SERVE_BENCH_SCHEMA}`"));
    }
    verify_checksum(doc)?;

    let workload = doc.get("workload").ok_or("missing `workload`")?;
    for key in ["jobs", "tenants", "clients"] {
        let v = require_num(workload, "workload", key)?;
        if v <= 0.0 {
            return Err(format!("`workload.{key}` must be positive"));
        }
    }

    let jobs = doc.get("jobs").ok_or("missing `jobs`")?;
    let submitted = require_num(jobs, "jobs", "submitted")?;
    let completed = require_num(jobs, "jobs", "completed")?;
    let lost = require_num(jobs, "jobs", "lost")?;
    let duplicated = require_num(jobs, "jobs", "duplicated")?;
    if submitted <= 0.0 {
        return Err("`jobs.submitted` must be positive".to_string());
    }
    if lost != 0.0 {
        return Err(format!("`jobs.lost` is {lost}: the service dropped jobs"));
    }
    if duplicated != 0.0 {
        return Err(format!("`jobs.duplicated` is {duplicated}: the service duplicated jobs"));
    }
    if completed != submitted {
        return Err(format!(
            "`jobs.completed` ({completed}) must equal `jobs.submitted` ({submitted})"
        ));
    }

    let backpressure = doc.get("backpressure").ok_or("missing `backpressure`")?;
    let rejected = require_num(backpressure, "backpressure", "rejected_429")?;
    if rejected < 1.0 {
        return Err("`backpressure.rejected_429` must be ≥ 1 (full queue never observed)".into());
    }
    match backpressure.get("retry_after") {
        Some(Json::Bool(true)) => {}
        Some(Json::Bool(false)) => {
            return Err("`backpressure.retry_after` is false: 429 lacked Retry-After".into())
        }
        _ => return Err("missing boolean `backpressure.retry_after`".into()),
    }
    let quota = doc.get("quota").ok_or("missing `quota`")?;
    let quota_rejected = require_num(quota, "quota", "rejected_429")?;
    if quota_rejected < 1.0 {
        return Err("`quota.rejected_429` must be ≥ 1 (tenant quota never observed)".into());
    }

    let throughput = doc.get("throughput").ok_or("missing `throughput`")?;
    let jps = require_num(throughput, "throughput", "jobs_per_sec")?;
    if !jps.is_finite() || jps <= 0.0 {
        return Err("`throughput.jobs_per_sec` must be positive".to_string());
    }
    require_num(throughput, "throughput", "elapsed_us")?;

    let latency = doc.get("latency_ms").ok_or("missing `latency_ms`")?;
    let p50 = require_num(latency, "latency_ms", "p50")?;
    let p90 = require_num(latency, "latency_ms", "p90")?;
    let p99 = require_num(latency, "latency_ms", "p99")?;
    if !(p50 <= p90 && p90 <= p99) {
        return Err(format!(
            "`latency_ms` percentiles must be monotone (p50 {p50} ≤ p90 {p90} ≤ p99 {p99})"
        ));
    }
    Ok(())
}

/// Validates a parsed `BENCH_campaign.json` document against
/// `a2a-obs/campaign-bench/v1`.
///
/// Gates, in order:
///
/// * checksum and schema;
/// * `workload.{niches,shards,rounds,batch}` positive;
/// * `throughput.evals_per_sec` positive and finite, `throughput.evals`
///   positive;
/// * `dedup.hits ≥ 1` and `dedup.hit_rate > 0` — the campaign-wide
///   digest set must demonstrably skip work;
/// * `scaling.ratio` positive and finite, and ≥
///   [`CAMPAIGN_SHARD_SPEEDUP_GATE`] once `scaling.cores` ≥
///   [`PARALLEL_GATE_MIN_WORKERS`] (on smaller hosts the ratio is
///   recorded, not floored — one core cannot honestly bind a
///   multi-process target);
/// * `coverage_curve` non-empty with monotone non-decreasing `covered`,
///   `solved` and cumulative `evals`, and final coverage ≥ 1 niche.
///
/// # Errors
///
/// A message naming the first violated constraint.
pub fn validate_campaign_snapshot(doc: &Json) -> Result<(), String> {
    let schema = doc.get("schema").and_then(Json::as_str).ok_or("missing `schema`")?;
    if schema != CAMPAIGN_BENCH_SCHEMA {
        return Err(format!("schema `{schema}` is not `{CAMPAIGN_BENCH_SCHEMA}`"));
    }
    verify_checksum(doc)?;

    let workload = doc.get("workload").ok_or("missing `workload`")?;
    for key in ["niches", "shards", "rounds", "batch"] {
        let v = require_num(workload, "workload", key)?;
        if v <= 0.0 {
            return Err(format!("`workload.{key}` must be positive"));
        }
    }

    let throughput = doc.get("throughput").ok_or("missing `throughput`")?;
    let eps = require_num(throughput, "throughput", "evals_per_sec")?;
    if !eps.is_finite() || eps <= 0.0 {
        return Err("`throughput.evals_per_sec` must be positive".to_string());
    }
    if require_num(throughput, "throughput", "evals")? <= 0.0 {
        return Err("`throughput.evals` must be positive".to_string());
    }
    require_num(throughput, "throughput", "elapsed_us")?;

    let dedup = doc.get("dedup").ok_or("missing `dedup`")?;
    let hits = require_num(dedup, "dedup", "hits")?;
    let rate = require_num(dedup, "dedup", "hit_rate")?;
    if hits < 1.0 {
        return Err("`dedup.hits` must be ≥ 1 (digest set never skipped work)".to_string());
    }
    if !(rate > 0.0 && rate < 1.0) {
        return Err(format!("`dedup.hit_rate` is {rate}: must lie in (0, 1)"));
    }

    let scaling = doc.get("scaling").ok_or("missing `scaling`")?;
    let cores = require_num(scaling, "scaling", "cores")?;
    let ratio = require_num(scaling, "scaling", "ratio")?;
    require_num(scaling, "scaling", "single_evals_per_sec")?;
    require_num(scaling, "scaling", "sharded_evals_per_sec")?;
    if cores < 1.0 {
        return Err("`scaling.cores` must be ≥ 1".to_string());
    }
    if !ratio.is_finite() || ratio <= 0.0 {
        return Err(format!("`scaling.ratio` is {ratio}: must be positive and finite"));
    }
    if cores >= PARALLEL_GATE_MIN_WORKERS && ratio < CAMPAIGN_SHARD_SPEEDUP_GATE {
        return Err(format!(
            "`scaling.ratio` {ratio:.2} < {CAMPAIGN_SHARD_SPEEDUP_GATE}: sharded aggregate \
             throughput must reach {CAMPAIGN_SHARD_SPEEDUP_GATE}x over the 1-shard run \
             once {PARALLEL_GATE_MIN_WORKERS}+ cores are available"
        ));
    }

    let curve = doc
        .get("coverage_curve")
        .and_then(Json::as_arr)
        .ok_or("missing `coverage_curve` array")?;
    if curve.is_empty() {
        return Err("`coverage_curve` must not be empty".to_string());
    }
    let mut prev: Option<(f64, f64, f64)> = None;
    for (i, point) in curve.iter().enumerate() {
        let path = format!("coverage_curve[{i}]");
        let covered = require_num(point, &path, "covered")?;
        let solved = require_num(point, &path, "solved")?;
        let evals = require_num(point, &path, "evals")?;
        if let Some((pc, ps, pe)) = prev {
            if covered < pc || solved < ps || evals < pe {
                return Err(format!(
                    "`coverage_curve` must be monotone: point {i} regressed \
                     (covered {pc}→{covered}, solved {ps}→{solved}, evals {pe}→{evals})"
                ));
            }
        }
        prev = Some((covered, solved, evals));
    }
    if prev.map(|(c, _, _)| c).unwrap_or(0.0) < 1.0 {
        return Err("`coverage_curve` final `covered` must be ≥ 1 niche".to_string());
    }
    Ok(())
}

/// Validates a parsed `BENCH_kernel.json` document against
/// `a2a-obs/kernel-bench/v4`: structural members present, all three
/// paths' throughputs positive, the frontier kernel not slower than its
/// own dense scan, the parallel path gated ≥ [`PARALLEL_SPEEDUP_GATE`]
/// once the dispatcher has ≥ [`PARALLEL_GATE_MIN_WORKERS`] workers, a
/// non-empty active-fraction histogram, and outcomes bit-identical
/// across every path and the reference oracle.
///
/// ```json
/// {
///   "schema": "a2a-obs/kernel-bench/v4",
///   "workload": {"population": 8, "configs": 100, "k": 16, "grid": "T"},
///   "dense": {"elapsed_us": 6.9e5, "steps_per_sec": 1.5e6, "evals_per_sec": 1160.0,
///             "chunk": 51},
///   "multi": {"elapsed_us": 4.3e5, "steps_per_sec": 2.3e6, "evals_per_sec": 1860.0,
///             "chunk": 51},
///   "parallel": {"elapsed_us": 4.4e5, "steps_per_sec": 2.2e6, "evals_per_sec": 1820.0,
///                "chunk": 51, "workers": 1},
///   "frontier_speedup": 1.61,
///   "parallel_speedup": 1.57,
///   "frontier": {"active_agent_steps": 123456,
///                "active_pct": {"count": 800, "sum": 31000, ...}},
///   "identical_outcomes": true
/// }
/// ```
///
/// # Errors
///
/// A message naming the first violated constraint.
pub fn validate_kernel_snapshot(doc: &Json) -> Result<(), String> {
    let schema = doc.get("schema").and_then(Json::as_str).ok_or("missing `schema`")?;
    if schema != KERNEL_BENCH_SCHEMA {
        return Err(format!("schema `{schema}` is not `{KERNEL_BENCH_SCHEMA}`"));
    }
    verify_checksum(doc)?;

    let workload = doc.get("workload").ok_or("missing `workload`")?;
    for key in ["population", "configs", "k"] {
        let v = require_num(workload, "workload", key)?;
        if v <= 0.0 {
            return Err(format!("`workload.{key}` must be positive"));
        }
    }
    workload.get("grid").and_then(Json::as_str).ok_or("`workload.grid` must be a string")?;

    for engine in ["dense", "multi", "parallel"] {
        let section = doc.get(engine).ok_or_else(|| format!("missing `{engine}`"))?;
        for key in ["elapsed_us", "steps_per_sec", "evals_per_sec"] {
            let v = require_num(section, engine, key)?;
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("`{engine}.{key}` must be positive"));
            }
        }
        require_num(section, engine, "chunk")?;
    }
    let workers = require_num(doc.get("parallel").expect("checked above"), "parallel", "workers")?;
    if workers < 1.0 {
        return Err(format!("`parallel.workers` is {workers}: must be at least 1"));
    }

    let frontier_speedup = doc
        .get("frontier_speedup")
        .and_then(Json::as_f64)
        .ok_or("missing `frontier_speedup`")?;
    if !frontier_speedup.is_finite() || frontier_speedup < 1.0 {
        return Err(format!(
            "`frontier_speedup` is {frontier_speedup:.3}: the frontier kernel must not be \
             slower than its own dense scan"
        ));
    }
    let parallel_speedup = doc
        .get("parallel_speedup")
        .and_then(Json::as_f64)
        .ok_or("missing `parallel_speedup`")?;
    if !parallel_speedup.is_finite() || parallel_speedup <= 0.0 {
        return Err(format!("`parallel_speedup` is {parallel_speedup}: must be a positive ratio"));
    }
    if workers >= PARALLEL_GATE_MIN_WORKERS && parallel_speedup < PARALLEL_SPEEDUP_GATE {
        return Err(format!(
            "`parallel_speedup` is {parallel_speedup:.3} with {workers} workers: the \
             dispatcher must reach {PARALLEL_SPEEDUP_GATE}x over the dense single-thread \
             baseline once {PARALLEL_GATE_MIN_WORKERS}+ cores are available"
        ));
    }

    let frontier = doc.get("frontier").ok_or("missing `frontier`")?;
    let steps = require_num(frontier, "frontier", "active_agent_steps")?;
    if steps <= 0.0 {
        return Err("`frontier.active_agent_steps` must be positive".to_string());
    }
    let hist = frontier.get("active_pct").ok_or("`frontier` missing `active_pct` histogram")?;
    let snap = HistogramSnapshot::from_json(hist)?;
    if snap.count == 0 {
        return Err("`frontier.active_pct` histogram is empty".to_string());
    }

    match doc.get("identical_outcomes") {
        Some(Json::Bool(true)) => Ok(()),
        Some(Json::Bool(false)) => {
            Err("`identical_outcomes` is false: a batch kernel changed results".to_string())
        }
        _ => Err("missing boolean `identical_outcomes`".to_string()),
    }
}

/// Gates a fresh `BENCH_kernel.json` against a checked-in baseline
/// snapshot: both must validate, and the fresh `frontier_speedup` must
/// be at least [`KERNEL_REGRESSION_FLOOR`] of the baseline's. The ratio
/// is dimensionless, so the gate is meaningful across machines of
/// different absolute throughput (CI runners vs. the machine that
/// recorded the baseline).
///
/// # Errors
///
/// A message naming the first violated constraint, including the two
/// ratios when the regression gate trips.
pub fn validate_kernel_regression(baseline: &Json, fresh: &Json) -> Result<(), String> {
    validate_kernel_snapshot(baseline).map_err(|e| format!("baseline: {e}"))?;
    validate_kernel_snapshot(fresh).map_err(|e| format!("fresh: {e}"))?;
    let key = "frontier_speedup";
    let base = baseline.get(key).and_then(Json::as_f64).expect("validated above");
    let now = fresh.get(key).and_then(Json::as_f64).expect("validated above");
    if now < KERNEL_REGRESSION_FLOOR * base {
        return Err(format!(
            "kernel {key} regressed more than {:.0} %: baseline {base:.3}x, fresh {now:.3}x",
            (1.0 - KERNEL_REGRESSION_FLOOR) * 100.0
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, Value};

    #[test]
    fn real_event_lines_validate() {
        let mut e = Event::new(Level::Info, "ga.generation");
        e.fields.push(("best", Value::F64(123.5)));
        e.worker = Some(3);
        validate_event_line(&e.to_json().to_string()).unwrap();
    }

    #[test]
    fn auxiliary_lines_pass_and_noise_fails() {
        validate_event_line(r#"{"counters":{"a":1}}"#).unwrap();
        assert!(validate_event_line("not json").is_err());
        assert!(validate_event_line("[1,2]").is_err());
        assert!(validate_event_line(r#"{"level":"loud","t_ms":1,"event":"x","fields":{}}"#)
            .is_err());
        assert!(validate_event_line(r#"{"level":"info","event":"x","fields":{}}"#).is_err());
        assert!(
            validate_event_line(r#"{"level":"info","t_ms":1,"event":"x","fields":{"a":[1]}}"#)
                .is_err()
        );
    }

    #[test]
    fn stream_validation_counts_events() {
        let stream = format!(
            "{}\n\n{}\n",
            Event::new(Level::Debug, "a.b").to_json(),
            r#"{"snapshot":true}"#
        );
        let summary = validate_events(&stream).unwrap();
        assert_eq!(summary.events, 1);
        assert_eq!(summary.truncated_tail, None);
    }

    #[test]
    fn torn_final_line_is_tolerated_and_reported() {
        let good = Event::new(Level::Debug, "a.b").to_json().to_string();
        let torn = format!("{good}\n{good}\n{{\"level\":\"info\",\"t_ms\":12.5,\"ev");
        let summary = validate_events(&torn).unwrap();
        assert_eq!(summary.events, 2, "lines before the tear all count");
        assert!(summary.truncated_tail.is_some());

        // The same garbage anywhere but the tail is a hard error...
        let mid = format!("{good}\nnot json\n{good}\n");
        assert!(validate_events(&mid).is_err());
        // ...and a final line that parses but violates the schema is
        // a producer bug, not a tear.
        let bad_schema = format!("{good}\n{{\"level\":\"loud\",\"t_ms\":1,\"event\":\"x\",\"fields\":{{}}}}");
        assert!(validate_events(&bad_schema).is_err());
    }

    fn flight_dump(records: usize) -> String {
        let header = seal(
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
        let summary = validate_flight(&flight_dump(3)).unwrap();
        assert_eq!((summary.declared, summary.records), (3, 3));
        assert_eq!(summary.reason, "test");
        assert_eq!(summary.truncated_tail, None);
    }

    #[test]
    fn flight_header_gates() {
        assert!(validate_flight("").is_err());
        assert!(validate_flight("{\"schema\":\"other/v0\"}\n").is_err());
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
        assert!(validate_flight(&unsealed).unwrap_err().contains("checksum"));
        // A record-count mismatch on an untorn stream is truncation.
        let mut short = flight_dump(3);
        short = short.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(validate_flight(&short).unwrap_err().contains("declares 3"));
    }

    #[test]
    fn flight_stream_tolerates_exactly_one_torn_final_line() {
        // The `validate_events` torn-tail discipline extends to the
        // flight stream: a crash mid-append tears at most the last line.
        let mut torn = flight_dump(3);
        torn.truncate(torn.len() - 20); // tear the final record line
        let summary = validate_flight(&torn).unwrap();
        assert_eq!(summary.records, 2, "lines before the tear count");
        assert!(summary.truncated_tail.is_some());

        // Mid-stream garbage is a hard error even in a flight dump.
        let mid = flight_dump(2).replace(
            "\"seq\":0",
            "\"seq\":0}GARBAGE{",
        );
        assert!(validate_flight(&mid).is_err());
    }

    /// An older trend line: ratios of since-retired kernel paths, no
    /// frontier fields.
    fn history_line() -> String {
        seal(Json::object()
            .with("schema", BENCH_HISTORY_SCHEMA)
            .with("t_ms", 10.0)
            .with("run", Json::object().with("configs", 20u64).with("seed", 2013u64))
            .with(
                "kernel",
                Json::object()
                    .with("speedup", 1.7)
                    .with("sliced_speedup", 0.4)
                    .with("multi_steps_per_sec", 1.9e6),
            )
            .with(
                "fitness",
                Json::object().with("speedup", 2.5).with("evals_per_sec", 1530.0),
            ))
        .to_string()
    }

    #[test]
    fn history_lines_validate_and_gate() {
        validate_history_line(&history_line()).unwrap();
        let entries = validate_history(&format!("{}\n{}\n", history_line(), history_line()))
            .unwrap();
        assert_eq!(entries.len(), 2);

        // A torn final append is dropped, mid-stream garbage is fatal.
        let torn = format!("{}\n{}", history_line(), &history_line()[..30]);
        assert_eq!(validate_history(&torn).unwrap().len(), 1);
        let mid = format!("not json\n{}\n", history_line());
        assert!(validate_history(&mid).is_err());

        // Tampered ratios trip the seal; a zero ratio trips the gate.
        let mut doc = parse(&history_line()).unwrap();
        doc.set("t_ms", 99.0);
        assert!(validate_history_line(&doc.to_string()).unwrap_err().contains("checksum"));
        let zeroed = resealed(
            parse(&history_line()).unwrap(),
            "fitness",
            Json::object().with("speedup", 0.0),
        );
        assert!(validate_history_line(&zeroed.to_string()).is_err());
        let no_kernel = resealed(parse(&history_line()).unwrap(), "kernel", Json::Null);
        assert!(validate_history_line(&no_kernel.to_string()).is_err());
    }

    #[test]
    fn history_frontier_fields_are_optional_but_gated() {
        // Older lines (no frontier fields, ratios of retired kernel
        // paths instead) stay valid — that's the fixture. Lines
        // carrying the frontier fields are sign-checked.
        let with_frontier = resealed(
            parse(&history_line()).unwrap(),
            "kernel",
            Json::object()
                .with("frontier_speedup", 1.6)
                .with("multi_steps_per_sec", 1.9e6)
                .with("frontier_active", 123_456u64)
                .with("dispatch_workers", 1u64),
        );
        validate_history_line(&with_frontier.to_string()).unwrap();

        // `frontier_speedup < 1` is a regression wherever it ran.
        let slow = resealed(
            parse(&history_line()).unwrap(),
            "kernel",
            Json::object().with("frontier_speedup", 0.9),
        );
        let err = validate_history_line(&slow.to_string()).unwrap_err();
        assert!(err.contains("frontier_speedup"), "got: {err}");

        let bad_workers = resealed(
            parse(&history_line()).unwrap(),
            "kernel",
            Json::object().with("dispatch_workers", -1i64),
        );
        assert!(validate_history_line(&bad_workers.to_string()).is_err());
    }

    #[test]
    fn checksums_seal_and_verify() {
        let doc = Json::object().with("schema", "x/v1").with("value", 7u64);
        assert!(verify_checksum(&doc).is_err(), "unsealed documents fail");
        let sealed = seal(doc);
        verify_checksum(&sealed).unwrap();
        // Sealing is idempotent w.r.t. the existing checksum member.
        verify_checksum(&seal(sealed.clone())).unwrap();
        let mut tampered = sealed;
        tampered.set("value", 8u64);
        assert!(verify_checksum(&tampered).is_err(), "edits invalidate the seal");
    }

    fn minimal_snapshot() -> Json {
        let mut hist = HistogramSnapshot::default();
        hist.record(42);
        let t_comm: Vec<Json> = REQUIRED_T_COMM_KS
            .iter()
            .map(|&k| {
                Json::object()
                    .with("grid", "T")
                    .with("k", k)
                    .with("histogram", hist.to_json())
            })
            .collect();
        seal(
            Json::object()
                .with("schema", BENCH_SNAPSHOT_SCHEMA)
                .with("kernel", Json::object().with("steps_per_sec", 1e6))
                .with("fitness", Json::object().with("evals_per_sec", 100.0))
                .with("t_comm", Json::Arr(t_comm))
                .with(
                    "ga",
                    Json::object().with(
                        "series",
                        vec![Json::object()
                            .with("generation", 0u64)
                            .with("best", 1e4)
                            .with("median", 2e4)],
                    ),
                )
                .with(
                    "overhead",
                    Json::object()
                        .with("event_disabled_ns", 0.4)
                        .with("flight_record_disabled_ns", 0.9),
                ),
        )
    }

    fn minimal_fitness_snapshot() -> Json {
        seal(Json::object()
            .with("schema", FITNESS_BENCH_SCHEMA)
            .with(
                "workload",
                Json::object()
                    .with("population", 20u64)
                    .with("children", 10u64)
                    .with("configs", 100u64)
                    .with("k", 16u64)
                    .with("grid", "T"),
            )
            .with("baseline", Json::object().with("elapsed_us", 1e6).with("epochs", 2u64))
            .with(
                "adaptive",
                Json::object()
                    .with("elapsed_us", 4e5)
                    .with("cache_hits", 20u64)
                    .with("cache_misses", 20u64),
            )
            .with(
                "selection",
                Json::object()
                    .with("elapsed_us", 1e5)
                    .with("pruned_genomes", 6u64)
                    .with("pruned_configs", 540u64)
                    .with("exact", 4u64),
            )
            .with("speedup", 2.5)
            .with("identical_reports", true))
    }

    /// Mutates a sealed fixture and re-seals, so the intended gate (not
    /// the checksum) is what the validator trips on.
    fn resealed(mut doc: Json, key: &str, value: Json) -> Json {
        doc.set(key, value);
        seal(doc)
    }

    fn kernel_engine(us: f64, chunk: Option<u64>) -> Json {
        let mut section = Json::object()
            .with("elapsed_us", us)
            .with("steps_per_sec", 1e8 / us)
            .with("evals_per_sec", 8e8 / us);
        if let Some(c) = chunk {
            section = section.with("chunk", c);
        }
        section
    }

    fn minimal_kernel_snapshot() -> Json {
        let mut active = HistogramSnapshot::default();
        active.record(62);
        active.record(31);
        seal(Json::object()
            .with("schema", KERNEL_BENCH_SCHEMA)
            .with(
                "workload",
                Json::object()
                    .with("population", 8u64)
                    .with("configs", 100u64)
                    .with("k", 16u64)
                    .with("grid", "T"),
            )
            .with("dense", kernel_engine(6.9e5, Some(51)))
            .with("multi", kernel_engine(4.3e5, Some(51)))
            .with("parallel", kernel_engine(4.4e5, Some(51)).with("workers", 1u64))
            .with("frontier_speedup", 1.60)
            .with("parallel_speedup", 1.57)
            .with(
                "frontier",
                Json::object()
                    .with("active_agent_steps", 123_456u64)
                    .with("active_pct", active.to_json()),
            )
            .with("identical_outcomes", true))
    }

    fn minimal_serve_snapshot() -> Json {
        seal(Json::object()
            .with("schema", SERVE_BENCH_SCHEMA)
            .with(
                "workload",
                Json::object().with("jobs", 1000u64).with("tenants", 4u64).with("clients", 8u64),
            )
            .with(
                "jobs",
                Json::object()
                    .with("submitted", 1000u64)
                    .with("completed", 1000u64)
                    .with("lost", 0u64)
                    .with("duplicated", 0u64),
            )
            .with(
                "backpressure",
                Json::object().with("rejected_429", 17u64).with("retry_after", true),
            )
            .with("quota", Json::object().with("rejected_429", 3u64))
            .with(
                "throughput",
                Json::object().with("jobs_per_sec", 210.0).with("elapsed_us", 4.7e6),
            )
            .with(
                "latency_ms",
                Json::object().with("p50", 12.0).with("p90", 31.0).with("p99", 55.0),
            ))
    }

    #[test]
    fn serve_snapshot_validates_and_gates() {
        validate_serve_snapshot(&minimal_serve_snapshot()).unwrap();

        let lossy = resealed(
            minimal_serve_snapshot(),
            "jobs",
            Json::object()
                .with("submitted", 1000u64)
                .with("completed", 999u64)
                .with("lost", 1u64)
                .with("duplicated", 0u64),
        );
        assert!(validate_serve_snapshot(&lossy).is_err(), "lost jobs must fail");

        let duplicated = resealed(
            minimal_serve_snapshot(),
            "jobs",
            Json::object()
                .with("submitted", 1000u64)
                .with("completed", 1001u64)
                .with("lost", 0u64)
                .with("duplicated", 1u64),
        );
        assert!(validate_serve_snapshot(&duplicated).is_err(), "duplicated jobs must fail");

        let no_backpressure = resealed(
            minimal_serve_snapshot(),
            "backpressure",
            Json::object().with("rejected_429", 0u64).with("retry_after", true),
        );
        assert!(
            validate_serve_snapshot(&no_backpressure).is_err(),
            "a load test that never filled the queue proves nothing"
        );

        let no_retry_after = resealed(
            minimal_serve_snapshot(),
            "backpressure",
            Json::object().with("rejected_429", 5u64).with("retry_after", false),
        );
        assert!(validate_serve_snapshot(&no_retry_after).is_err());

        let non_monotone = resealed(
            minimal_serve_snapshot(),
            "latency_ms",
            Json::object().with("p50", 30.0).with("p90", 20.0).with("p99", 55.0),
        );
        assert!(validate_serve_snapshot(&non_monotone).is_err());

        let wrong = resealed(minimal_serve_snapshot(), "schema", "other/v0".into());
        assert!(validate_serve_snapshot(&wrong).is_err());

        let mut tampered = minimal_serve_snapshot();
        tampered.set("quota", Json::object().with("rejected_429", 99u64));
        assert!(validate_serve_snapshot(&tampered).is_err(), "tampering breaks the checksum");
    }

    fn curve_point(round: u64, covered: u64, solved: u64, evals: u64) -> Json {
        Json::object()
            .with("round", round)
            .with("covered", covered)
            .with("solved", solved)
            .with("evals", evals)
    }

    fn minimal_campaign_snapshot() -> Json {
        seal(Json::object()
            .with("schema", CAMPAIGN_BENCH_SCHEMA)
            .with(
                "workload",
                Json::object()
                    .with("niches", 8u64)
                    .with("shards", 4u64)
                    .with("rounds", 3u64)
                    .with("batch", 4u64),
            )
            .with(
                "throughput",
                Json::object()
                    .with("evals_per_sec", 520.0)
                    .with("evals", 96u64)
                    .with("elapsed_us", 1.8e5),
            )
            .with(
                "dedup",
                Json::object().with("hits", 16u64).with("hit_rate", 0.14).with("collisions", 0u64),
            )
            .with(
                "scaling",
                Json::object()
                    .with("cores", 8u64)
                    .with("shards", 4u64)
                    .with("single_evals_per_sec", 200.0)
                    .with("sharded_evals_per_sec", 520.0)
                    .with("ratio", 2.6),
            )
            .with(
                "coverage_curve",
                Json::Arr(vec![
                    curve_point(0, 6, 1, 40),
                    curve_point(1, 8, 2, 70),
                    curve_point(2, 8, 3, 96),
                ]),
            ))
    }

    #[test]
    fn campaign_snapshot_validates_and_gates() {
        validate_campaign_snapshot(&minimal_campaign_snapshot()).unwrap();

        let no_dedup = resealed(
            minimal_campaign_snapshot(),
            "dedup",
            Json::object().with("hits", 0u64).with("hit_rate", 0.0).with("collisions", 0u64),
        );
        assert!(
            validate_campaign_snapshot(&no_dedup).is_err(),
            "a campaign whose digest set never skipped work proves nothing"
        );

        // 8 cores + ratio below the floor → the 2x gate is armed.
        let slow_shards = resealed(
            minimal_campaign_snapshot(),
            "scaling",
            Json::object()
                .with("cores", 8u64)
                .with("shards", 4u64)
                .with("single_evals_per_sec", 200.0)
                .with("sharded_evals_per_sec", 240.0)
                .with("ratio", 1.2),
        );
        assert!(validate_campaign_snapshot(&slow_shards).is_err(), "2x gate armed on 8 cores");

        // 1 core + the same ratio → recorded, not floored.
        let single_core = resealed(
            minimal_campaign_snapshot(),
            "scaling",
            Json::object()
                .with("cores", 1u64)
                .with("shards", 4u64)
                .with("single_evals_per_sec", 200.0)
                .with("sharded_evals_per_sec", 240.0)
                .with("ratio", 1.2),
        );
        validate_campaign_snapshot(&single_core)
            .expect("one core cannot honestly bind a multi-process gate");

        let regressing_curve = resealed(
            minimal_campaign_snapshot(),
            "coverage_curve",
            Json::Arr(vec![curve_point(0, 6, 1, 40), curve_point(1, 5, 1, 70)]),
        );
        assert!(validate_campaign_snapshot(&regressing_curve).is_err(), "coverage regressed");

        let empty_curve =
            resealed(minimal_campaign_snapshot(), "coverage_curve", Json::Arr(Vec::new()));
        assert!(validate_campaign_snapshot(&empty_curve).is_err());

        let wrong = resealed(minimal_campaign_snapshot(), "schema", "other/v0".into());
        assert!(validate_campaign_snapshot(&wrong).is_err());

        let mut tampered = minimal_campaign_snapshot();
        tampered.set("dedup", Json::object().with("hits", 99u64).with("hit_rate", 0.5));
        assert!(validate_campaign_snapshot(&tampered).is_err(), "tampering breaks the checksum");
    }

    #[test]
    fn kernel_snapshot_validates_and_gates() {
        validate_kernel_snapshot(&minimal_kernel_snapshot()).unwrap();

        let drifted =
            resealed(minimal_kernel_snapshot(), "identical_outcomes", Json::Bool(false));
        assert!(validate_kernel_snapshot(&drifted).is_err(), "changed results must fail");

        let wrong = resealed(minimal_kernel_snapshot(), "schema", "other/v0".into());
        assert!(validate_kernel_snapshot(&wrong).is_err());

        let gap = resealed(minimal_kernel_snapshot(), "multi", kernel_engine(4.3e5, None));
        assert!(validate_kernel_snapshot(&gap).is_err(), "missing chunk must fail");
        let no_dense = resealed(minimal_kernel_snapshot(), "dense", Json::Null);
        assert!(validate_kernel_snapshot(&no_dense).is_err(), "missing baseline arm must fail");

        let mut tampered = minimal_kernel_snapshot();
        tampered.set("frontier_speedup", 99.0); // edited without re-sealing
        assert!(
            validate_kernel_snapshot(&tampered).unwrap_err().contains("checksum"),
            "unsealed edits trip the checksum gate"
        );
    }

    #[test]
    fn kernel_frontier_and_parallel_gates() {
        // A frontier kernel slower than its own dense scan must fail —
        // this ratio is in-run on one machine, so it is always binding.
        let slow = resealed(minimal_kernel_snapshot(), "frontier_speedup", Json::Num(0.97));
        assert!(
            validate_kernel_snapshot(&slow).unwrap_err().contains("frontier_speedup"),
            "sub-1 frontier ratio must fail"
        );
        let gone = resealed(minimal_kernel_snapshot(), "frontier_speedup", Json::Null);
        assert!(validate_kernel_snapshot(&gone).is_err(), "missing frontier ratio must fail");

        // With < 4 workers the parallel ratio is recorded, not floored:
        // the fixture (1 worker, 1.57x) passes. With >= 4 workers the
        // 3x gate arms.
        validate_kernel_snapshot(&minimal_kernel_snapshot()).unwrap();
        let wide = resealed(
            minimal_kernel_snapshot(),
            "parallel",
            kernel_engine(4.4e5, Some(51)).with("workers", 8u64),
        );
        assert!(
            validate_kernel_snapshot(&wide).unwrap_err().contains("parallel_speedup"),
            "8 workers at 1.57x must trip the 3x gate"
        );
        let wide_fast = resealed(
            resealed(
                minimal_kernel_snapshot(),
                "parallel",
                kernel_engine(1.5e5, Some(51)).with("workers", 8u64),
            ),
            "parallel_speedup",
            Json::Num(4.6),
        );
        validate_kernel_snapshot(&wide_fast).unwrap();
        let zero_workers = resealed(
            minimal_kernel_snapshot(),
            "parallel",
            kernel_engine(4.4e5, Some(51)).with("workers", 0u64),
        );
        assert!(validate_kernel_snapshot(&zero_workers).is_err(), "workers must be >= 1");

        // The active-fraction evidence must exist and be non-empty.
        let no_frontier = resealed(minimal_kernel_snapshot(), "frontier", Json::Null);
        assert!(validate_kernel_snapshot(&no_frontier).is_err());
        let empty_hist = resealed(
            minimal_kernel_snapshot(),
            "frontier",
            Json::object()
                .with("active_agent_steps", 123u64)
                .with("active_pct", HistogramSnapshot::default().to_json()),
        );
        assert!(
            validate_kernel_snapshot(&empty_hist).unwrap_err().contains("active_pct"),
            "empty histogram must fail"
        );
    }

    #[test]
    fn kernel_regression_gate_compares_speedups() {
        let baseline = minimal_kernel_snapshot();
        validate_kernel_regression(&baseline, &minimal_kernel_snapshot()).unwrap();

        // Better or mildly worse ratios pass...
        let better = resealed(minimal_kernel_snapshot(), "frontier_speedup", Json::Num(2.5));
        validate_kernel_regression(&baseline, &better).unwrap();
        let mild =
            resealed(minimal_kernel_snapshot(), "frontier_speedup", Json::Num(1.60 * 0.75));
        validate_kernel_regression(&baseline, &mild).unwrap();

        // ...a > 30 % loss of the ratio fails (a fresh 1.05x still
        // clears the absolute >= 1 gate, but loses more than 30 % of
        // the baseline's 1.60x).
        let frontier_rot =
            resealed(minimal_kernel_snapshot(), "frontier_speedup", Json::Num(1.05));
        let err = validate_kernel_regression(&baseline, &frontier_rot).unwrap_err();
        assert!(err.contains("regressed"), "got: {err}");
        assert!(err.contains("frontier_speedup"), "got: {err}");

        // An invalid party is named in the error.
        let broken = resealed(minimal_kernel_snapshot(), "schema", "other/v0".into());
        assert!(validate_kernel_regression(&broken, &baseline).unwrap_err().starts_with("baseline"));
        assert!(validate_kernel_regression(&baseline, &broken).unwrap_err().starts_with("fresh"));
    }

    #[test]
    fn fitness_snapshot_validates_and_gates() {
        validate_fitness_snapshot(&minimal_fitness_snapshot()).unwrap();

        let slower = resealed(minimal_fitness_snapshot(), "speedup", Json::Num(0.8));
        assert!(validate_fitness_snapshot(&slower).is_err(), "slower-than-baseline must fail");

        let drifted = resealed(minimal_fitness_snapshot(), "identical_reports", Json::Bool(false));
        assert!(validate_fitness_snapshot(&drifted).is_err(), "changed results must fail");

        let wrong = resealed(minimal_fitness_snapshot(), "schema", "other/v0".into());
        assert!(validate_fitness_snapshot(&wrong).is_err());

        let gap = resealed(
            minimal_fitness_snapshot(),
            "selection",
            Json::object().with("elapsed_us", 1e5),
        );
        assert!(validate_fitness_snapshot(&gap).is_err());

        let mut tampered = minimal_fitness_snapshot();
        tampered.set("speedup", 99.0); // edited without re-sealing
        assert!(
            validate_fitness_snapshot(&tampered).unwrap_err().contains("checksum"),
            "unsealed edits trip the checksum gate"
        );
    }

    #[test]
    fn bench_snapshot_validates_and_catches_gaps() {
        validate_bench_snapshot(&minimal_snapshot()).unwrap();

        let wrong_schema = resealed(minimal_snapshot(), "schema", "other/v0".into());
        assert!(validate_bench_snapshot(&wrong_schema).is_err());

        let base = minimal_snapshot();
        let Json::Arr(entries) = base.get("t_comm").unwrap().clone() else { unreachable!() };
        let missing_k = resealed(base, "t_comm", Json::Arr(entries[..2].to_vec()));
        assert!(validate_bench_snapshot(&missing_k).is_err());

        let empty_series = resealed(
            minimal_snapshot(),
            "ga",
            Json::object().with("series", Json::Arr(Vec::new())),
        );
        assert!(validate_bench_snapshot(&empty_series).is_err());

        let no_flight_cost = resealed(
            minimal_snapshot(),
            "overhead",
            Json::object().with("event_disabled_ns", 0.4),
        );
        let err = validate_bench_snapshot(&no_flight_cost).unwrap_err();
        assert!(err.contains("flight_record_disabled_ns"), "{err}");

        let mut tampered = minimal_snapshot();
        tampered.set("fitness", Json::object().with("evals_per_sec", 1e9));
        assert!(
            validate_bench_snapshot(&tampered).unwrap_err().contains("checksum"),
            "unsealed edits trip the checksum gate"
        );
    }
}
