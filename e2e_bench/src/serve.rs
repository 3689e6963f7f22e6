//! `serve`: a closed loop of one client thread (one tenant) against an
//! in-process `a2a-serve` server on `ServeConfig::default()` with its
//! store on local disk. Every job is `{tenant, id, seed}` with a
//! distinct seed, so it gets the service defaults (8×8, k = 4, 4 + 3
//! configurations, 4 generations, pool 8) and no two jobs share work.
//! Each job simulates little but writes several fsynced documents and
//! opens many short HTTP connections, so HTTP, queue and store I/O
//! dominate.

use crate::common::{self, Capture, Tally};
use crate::ledger::{self, Analysis};
use crate::{Layers, Phase, Workload};
use a2a_fsm::FsmSpec;
use a2a_ga::{Evaluator, GaConfig};
use a2a_obs::json::{self, Json};
use a2a_obs::trace::SpanRecord;
use a2a_obs::{schema, Span};
use a2a_run::{context_digest, run_evolution, RunOptions};
use a2a_serve::{build_result, client, JobSpec, ServeConfig, Server, ServerHandle, RESULT_SCHEMA};
use a2a_sim::{paper_config_set, WorldConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Jobs per second of `--seconds` (about 70 jobs/s complete on a 2-core
/// x86-64 host with an ext4 store).
const JOBS_PER_SECOND: f64 = 65.0;

/// Closed-loop clients. One, not `nproc` = 2: with two clients the
/// server's threads oversubscribe both cores, and a busy neighbour on
/// one core raised the median job latency by 30–40 %, more than the
/// bound allows between runs; with one client it did not move it.
const CLIENTS: usize = 1;

/// The client's tenant.
const TENANT: &str = "t0";

/// Poll interval of `GET /jobs/:id/result`, well below the job time.
const POLL: Duration = Duration::from_millis(2);

/// A job not finished after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Segments a phase's jobs are split into (in completion order) for the
/// per-segment medians.
const SEGMENTS: usize = 10;

/// Configurations per job at the service defaults: 4 random plus the 3
/// designed ones.
const JOB_CONFIGS: f64 = 7.0;

/// Jobs re-run in process to cross-check their results.
const SAMPLES: usize = 8;

/// Jobs of the `Level::Trace` sub-run.
const SUBRUN_JOBS: usize = 8;

pub struct Serve {
    seed: u64,
    jobs: usize,
    scratch: PathBuf,
    store: PathBuf,
    server: Option<ServerHandle>,
    /// Per-job records of the last phase.
    records: Vec<JobRecord>,
}

#[derive(Debug, Default)]
struct JobRecord {
    id: String,
    /// Job number within its phase.
    n: usize,
    job_ms: f64,
    /// Completion time, in milliseconds since the phase started.
    done_ms: f64,
    post_ms: f64,
    poll_ms: Vec<f64>,
    refused: bool,
    /// Why the job failed, if it did.
    error: Option<String>,
    /// `history_digest` of the result, when it passed its checks.
    digest: Option<u64>,
    /// The sealed result (dropped once the sample check has run).
    doc: Option<Json>,
}

/// The body of job `n` of a run seeded `seed`: only tenant, id and
/// seed, so every other field takes the service default. Distinct
/// `--seed`s never share a job seed.
fn job_body(id: &str, n: usize, seed: u64) -> String {
    Json::object()
        .with("tenant", TENANT)
        .with("id", id)
        .with("seed", seed.wrapping_mul(1_000_000).wrapping_add(n as u64))
        .to_string()
}

/// Output check of one result document: a sealed `a2a-serve/result/v1`
/// for job `id` whose checksum verifies. Returns its history digest.
pub fn check_result(doc: &Json, id: &str) -> Result<u64, String> {
    schema::verify_checksum(doc)?;
    if doc.get("schema").and_then(Json::as_str) != Some(RESULT_SCHEMA) {
        return Err(format!("result schema is not {RESULT_SCHEMA}"));
    }
    if doc.get("id").and_then(Json::as_str) != Some(id) {
        return Err(format!("result names another job than {id}"));
    }
    doc.get("history_digest")
        .and_then(Json::as_str)
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| "result lacks a history digest".to_string())
}

/// The result `a2a-serve` must seal for `body`, computed in process
/// with the same spec-to-run mapping the server applies.
fn expected_result(id: &str, body: &str) -> Result<Json, String> {
    let spec = JobSpec::from_json(&json::parse(body)?)?;
    let world = WorldConfig::paper(spec.grid, spec.m);
    let configs = paper_config_set(world.lattice, spec.grid, spec.k, spec.configs, spec.seed)
        .map_err(|e| e.to_string())?;
    let mut ga = GaConfig::paper(spec.generations, spec.seed);
    ga.population = spec.population;
    ga.exchange_b = ga.exchange_b.clamp(1, spec.population / 2);
    let evaluator = Evaluator::new(world.clone(), configs).with_threads(1);
    let digest = context_digest(&ga, &world, evaluator.t_max(), evaluator.configs());
    let report = run_evolution(
        FsmSpec::paper(spec.grid),
        &evaluator,
        ga,
        Vec::new(),
        &RunOptions::default(),
        |_| (),
    )?;
    Ok(build_result(id, &digest, &report))
}

impl Serve {
    pub fn new(seed: u64, seconds: u64, scratch: &Path) -> Self {
        let jobs = (seconds as f64 * JOBS_PER_SECOND)
            .round()
            .max(CLIENTS as f64) as usize;
        Self {
            seed,
            jobs,
            scratch: scratch.join("serve"),
            store: PathBuf::new(),
            server: None,
            records: Vec::new(),
        }
    }

    fn addr(&self) -> String {
        self.server
            .as_ref()
            .expect("set-up started the server")
            .addr()
            .to_string()
    }
}

/// Submits job `id` and polls its result until it is ready.
fn drive(addr: &str, id: &str, body: &str) -> JobRecord {
    let _job = Span::enter("bench.serve.job");
    let mut rec = JobRecord {
        id: id.to_string(),
        ..JobRecord::default()
    };
    let t0 = Instant::now();
    let posted = {
        let _post = Span::enter("bench.serve.post");
        client::post(addr, "/jobs", body)
    };
    rec.post_ms = t0.elapsed().as_secs_f64() * 1e3;
    match posted {
        Ok(reply) if reply.status == 202 => {}
        Ok(reply) => {
            rec.refused = reply.status == 429 || reply.status >= 500;
            rec.error = Some(format!(
                "job {id}: POST answered {}: {}",
                reply.status, reply.body
            ));
            return rec;
        }
        Err(e) => {
            rec.error = Some(format!("job {id}: POST failed: {e}"));
            return rec;
        }
    }
    let path = format!("/jobs/{id}/result");
    let doc = loop {
        let t = Instant::now();
        let reply = {
            let _poll = Span::enter("bench.serve.poll");
            client::get(addr, &path)
        };
        rec.poll_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match reply {
            Ok(r) if r.status == 200 => break r.json(),
            Ok(r) if r.status == 404 && t0.elapsed() < JOB_TIMEOUT => {
                let _sleep = Span::enter("bench.serve.sleep");
                std::thread::sleep(POLL);
            }
            Ok(r) => break Err(format!("GET result answered {}: {}", r.status, r.body)),
            Err(e) => break Err(format!("GET result failed: {e}")),
        }
    };
    rec.job_ms = t0.elapsed().as_secs_f64() * 1e3;
    let _check = Span::enter("bench.check");
    match doc.and_then(|d| check_result(&d, id).map(|h| (h, d))) {
        Ok((digest, doc)) => {
            rec.digest = Some(digest);
            rec.doc = Some(doc);
        }
        Err(e) => rec.error = Some(format!("job {id}: {e}")),
    }
    rec
}

impl Workload for Serve {
    fn aliases(&self) -> [&'static str; 3] {
        ["serve.job_p50_ms", "serve.job_p90_ms", "serve.jobs_per_s"]
    }

    fn setup(&mut self, rep: usize) -> Result<(), String> {
        // Start the server on a fresh store (its recovery scan included)
        // and drive one discarded warm-up job through it.
        if let Some(old) = self.server.take() {
            old.stop();
        }
        self.store = self.scratch.join(format!("store{rep}"));
        let server = Server::start(ServeConfig {
            store_root: self.store.clone(),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("server start: {e}"))?;
        self.server = Some(server);
        let body = job_body("warmup", 999_999, self.seed);
        drive(&self.addr(), "warmup", &body)
            .error
            .map_or(Ok(()), Err)
    }

    fn phase(&mut self, index: usize) -> Phase {
        let addr = self.addr();
        let ctx = a2a_obs::trace::current();
        let (jobs, seed) = (self.jobs, self.seed);
        let start = Instant::now();
        let (clients, wall_s) = common::timed(|| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..CLIENTS)
                    .map(|c| {
                        let addr = &addr;
                        scope.spawn(move || {
                            let _adopted = a2a_obs::trace::adopt(ctx);
                            let _client = Span::enter("bench.serve.client");
                            (c..jobs)
                                .step_by(CLIENTS)
                                .map(|n| {
                                    let id = format!("p{index}-{n}");
                                    let mut rec = drive(addr, &id, &job_body(&id, n, seed));
                                    rec.n = n;
                                    rec.done_ms = start.elapsed().as_secs_f64() * 1e3;
                                    rec
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().map_err(|_| "client thread panicked".to_string()))
                    .collect::<Vec<_>>()
            })
        });
        let mut tally = Tally::default();
        let mut records = Vec::with_capacity(jobs);
        for client in clients {
            match client {
                Ok(recs) => records.extend(recs),
                Err(e) => tally.op(Err(e)),
            }
        }
        records.sort_by_key(|r| r.n);

        // Outside the timed phase: re-run a deterministic sample of jobs
        // in process; the service must have sealed the same result.
        let stride = (jobs / SAMPLES).max(1);
        for rec in &mut records {
            let doc = rec.doc.take();
            if rec.n % stride != 0 || rec.error.is_some() {
                continue;
            }
            match expected_result(&rec.id, &job_body(&rec.id, rec.n, seed)) {
                Ok(want) if Some(want.to_string()) == doc.map(|d| d.to_string()) => {}
                Ok(_) => {
                    rec.error = Some(format!("job {}: differs from an in-process run", rec.id))
                }
                Err(e) => rec.error = Some(format!("job {}: in-process run: {e}", rec.id)),
            }
        }
        let mut xor = 0u64;
        let (mut op_ms, mut done_ms) = (Vec::new(), Vec::new());
        for rec in &records {
            tally.op(rec.error.clone().map_or(Ok(()), Err));
            if rec.error.is_none() {
                xor ^= rec.digest.unwrap_or(0);
                op_ms.push(rec.job_ms);
                done_ms.push(rec.done_ms);
            }
        }
        self.records = records;
        Phase {
            op_ms,
            done_ms,
            segments: SEGMENTS,
            wall_s,
            tally,
            digest: format!("{xor:016x}"),
        }
    }

    fn subrun(&mut self) {
        let addr = self.addr();
        for i in 0..SUBRUN_JOBS {
            let id = format!("x-{i}");
            let _ = drive(&addr, &id, &job_body(&id, i, self.seed));
        }
    }

    fn bench_layers(&self) -> &'static [(&'static str, &'static str)] {
        &[
            ("bench.timed", "unattributed"),
            ("bench.serve.client", "unattributed"),
            ("bench.serve.job", "bench.client"),
            ("bench.serve.post", "a2a-serve.http_post"),
            ("bench.serve.poll", "a2a-serve.poll_loop"),
            ("bench.serve.sleep", "a2a-serve.poll_loop"),
            ("bench.check", "bench.check"),
        ]
    }

    fn layers(&mut self, capture: &Capture, analysis: &Analysis, phase: &Phase) -> Layers {
        let clients = analysis.threads_of("bench.serve.client");
        let main = analysis.threads_of("bench.timed");
        let on_client = |s: &SpanRecord| clients.contains(&s.thread);
        let on_server = |s: &SpanRecord| !clients.contains(&s.thread) && !main.contains(&s.thread);
        let checkpoint =
            self.checkpoint_ms(&ledger::intervals(analysis, "ga.generation", on_server));
        let server = analysis.by_layer(on_server);
        let server_at = |layer: &str| server.get(layer).copied().unwrap_or(0.0);
        let exec = capture.histogram("serve.job.us");
        let exec_ms = exec.sum as f64 / 1e3;
        let select_ms = server_at("a2a-ga.select") - checkpoint.0;

        // The client timelines, averaged over clients; the poll loop is
        // split into the server's execution (by layer) and the rest,
        // which is queue wait plus poll delay.
        let per_client = |ms: f64| ms / clients.len().max(1) as f64;
        let timeline = analysis.by_layer(on_client);
        let mut ledger: Vec<(String, f64)> = Vec::new();
        let mut client_ms = 0.0;
        for (layer, ms) in &timeline {
            client_ms += ms;
            if *layer == "a2a-serve.poll_loop" {
                let exec_parts = [
                    ("a2a-sim", server_at("a2a-sim")),
                    ("a2a-ga.select", select_ms),
                    ("a2a-run.checkpoint", checkpoint.0 + checkpoint.1),
                ];
                let parts: f64 = exec_parts.iter().map(|(_, ms)| ms).sum();
                for (l, part) in exec_parts {
                    ledger.push((l.to_string(), per_client(part)));
                }
                ledger.push((
                    "a2a-serve.exec_other".to_string(),
                    per_client(exec_ms - parts),
                ));
                ledger.push((
                    "a2a-serve.queue_poll_wait".to_string(),
                    per_client(ms - exec_ms),
                ));
            } else {
                ledger.push(((*layer).to_string(), per_client(*ms)));
            }
        }
        let outside_clients = capture.wall_s * 1e3 - per_client(client_ms);
        match ledger.iter_mut().find(|(l, _)| l == "unattributed") {
            Some(entry) => entry.1 += outside_clients,
            None => ledger.push(("unattributed".to_string(), outside_clients)),
        }

        let ok: Vec<&JobRecord> = self.records.iter().filter(|r| r.error.is_none()).collect();
        let posts: Vec<f64> = ok.iter().map(|r| r.post_ms).collect();
        let polls: Vec<f64> = ok.iter().flat_map(|r| r.poll_ms.iter().copied()).collect();
        let (job_p50, post_p50) = (common::median(&phase.op_ms), common::median(&posts));
        let exec_p50 = exec.p50() as f64 / 1e3;
        let store_bytes: u64 = ok
            .iter()
            .map(|r| common::dir_bytes(&self.store.join("jobs").join(&r.id)))
            .sum();
        let (hits, misses) = (
            capture.counter("ga.cache.hits"),
            capture.counter("ga.cache.misses"),
        );
        let n = ok.len().max(1) as f64;
        let metrics = [
            ("ga.select_ms", select_ms),
            ("ga.evals", misses as f64),
            (
                "ga.cache_hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            ),
            (
                "ga.prune_ratio",
                capture.counter("ga.pruned.configs") as f64 / (misses.max(1) as f64 * JOB_CONFIGS),
            ),
            ("ga.pool.wait_ms", server_at("a2a-ga.pool_wait")),
            (
                "run.checkpoint.writes",
                capture.counter("run.checkpoint.writes") as f64,
            ),
            ("run.checkpoint_ms", checkpoint.0 + checkpoint.1),
            ("run.store.bytes_per_job", store_bytes as f64 / n),
            ("serve.post_p50_ms", post_p50),
            ("serve.poll_p50_ms", common::median(&polls)),
            ("serve.polls_per_job", polls.len() as f64 / n),
            ("serve.exec_p50_ms", exec_p50),
            ("serve.wait_p50_ms", job_p50 - exec_p50 - post_p50),
            (
                "serve.refused",
                self.records.iter().filter(|r| r.refused).count() as f64,
            ),
        ]
        .into_iter()
        .collect();
        Layers {
            metrics,
            ledger,
            timelines: clients.len(),
        }
    }

    fn store_dir(&self) -> &Path {
        &self.scratch
    }
}

impl Serve {
    /// Checkpoint milliseconds `(inside generation spans, after
    /// generation 0)` of the traced phase's jobs. Each job's
    /// on-generation callback stamps a `serve.job.gen` event on the
    /// process clock the spans use, just before the harness saves that
    /// boundary's checkpoint ([`ledger::checkpoint_ms`]).
    fn checkpoint_ms(&self, gens: &BTreeMap<u64, Vec<(f64, f64)>>) -> (f64, f64) {
        let addr = self.addr();
        let (mut inside, mut first) = (0.0, 0.0);
        for rec in self.records.iter().filter(|r| r.error.is_none()) {
            let Ok(reply) = client::get(&addr, &format!("/jobs/{}/events", rec.id)) else {
                continue;
            };
            let stamps: Vec<(u64, f64)> = reply
                .body
                .lines()
                .filter_map(|l| json::parse(l).ok())
                .filter(|e| e.get("event").and_then(Json::as_str) == Some("serve.job.gen"))
                .filter_map(|e| {
                    let g = e.get("fields")?.get("generation")?.as_f64()? as u64;
                    Some((g, e.get("t_ms")?.as_f64()?))
                })
                .collect();
            // The executor that ran the job holds the span around its
            // generation-1 callback.
            let Some(&(_, t1)) = stamps.iter().find(|(g, _)| *g == 1) else {
                continue;
            };
            let Some(spans) = gens
                .values()
                .find(|spans| ledger::containing(spans, t1).is_some())
            else {
                continue;
            };
            let (i, f) = ledger::checkpoint_ms(spans, &stamps);
            inside += i;
            first += f;
        }
        (inside, first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tampered result is an output failure counted in the error rate,
    /// not a job that goes through silently.
    #[test]
    fn tampered_result_is_counted_as_failed() {
        let body = job_body("j1", 1, 42);
        let doc = expected_result("j1", &body).expect("in-process run");
        let mut tally = Tally::default();
        tally.op(check_result(&doc, "j1").map(|_| ()));
        assert_eq!(tally.failed, 0, "{:?}", tally.failures);
        let mut tampered = doc.clone();
        tampered.set("history_digest", "0000000000000000");
        tally.op(check_result(&tampered, "j1").map(|_| ()));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        // A valid result filed under another job's id fails too.
        tally.op(check_result(&doc, "j2").map(|_| ()));
        assert_eq!(tally.failed, 2);
    }
}
