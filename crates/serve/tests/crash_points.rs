//! Crash at every step of one job's durable writes. A default job makes
//! four atomic writes — its `queued` and `running` manifests, its
//! result and its `completed` manifest — and each crosses four
//! `store.publish` kill probes (after the temp write, its fsync, the
//! rename and the directory fsync). For every probe `n`, a real
//! `a2a-serve` process runs the job under `A2A_FAULT=store.publish@n`
//! and dies there with exit status 137; a restart on the same store
//! must complete the job with a result byte-identical to an
//! uninterrupted control run's, and the store must hold that one job.
//! Probe 16 lies past the job's last write, so there the job completes
//! unkilled — which pins the job's write count at four. After every
//! kill the restarted server's recovery leaves the job directory with
//! its two documents and nothing else, no temp file of a cut-short
//! write included; and a job killed inside its first manifest write,
//! which was never accepted, is gone after a restart.

#![cfg(feature = "fault-inject")]

use a2a_obs::json::Json;
use a2a_run::JobStore;
use a2a_serve::client;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The job: every field but tenant and id takes the service default.
const ID: &str = "crash";

/// Probes of one default job: 4 writes × 4 probes.
const JOB_PROBES: u64 = 16;

/// Kills the child on drop so a failing assertion never leaks servers.
struct Server {
    child: Child,
    addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_server(store: &Path, fault: Option<&str>) -> Server {
    let mut command = Command::new(env!("CARGO_BIN_EXE_a2a-serve"));
    command
        .args(["--addr", "127.0.0.1:0", "--store", store.to_str().unwrap(), "--threads", "1"])
        .env_remove("A2A_FAULT")
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(plan) = fault {
        command.env("A2A_FAULT", plan);
    }
    let mut child = command.spawn().expect("spawn a2a-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let banner = std::io::BufReader::new(stdout)
        .lines()
        .next()
        .expect("server prints its banner")
        .expect("banner is readable");
    let addr = banner
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();
    Server { child, addr }
}

/// Submits the job; `None` when no reply came back.
fn submit(addr: &str) -> Option<u16> {
    let body = Json::object().with("tenant", "t").with("id", ID).to_string();
    client::post(addr, "/jobs", &body).ok().map(|reply| reply.status)
}

fn status(addr: &str) -> Option<String> {
    let reply = client::get(addr, &format!("/jobs/{ID}")).ok()?;
    reply.json().ok()?.get("status").and_then(Json::as_str).map(str::to_string)
}

/// Whether the server has no job queued or running. An executor hands a
/// job back to the queue only after the job's last write, so an idle
/// server whose job is `completed` has crossed every probe of it.
fn idle(addr: &str) -> bool {
    let Some(health) = client::get(addr, "/healthz").ok().and_then(|r| r.json().ok()) else {
        return false;
    };
    ["queued", "running"].iter().all(|k| health.get(k).and_then(Json::as_f64) == Some(0.0))
}

/// Waits until the fault-armed server dies (`true`, asserting exit
/// status 137) or finishes the job unkilled (`false`).
fn killed(server: &mut Server) -> bool {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(exit) = server.child.try_wait().expect("poll the server") {
            assert_eq!(exit.code(), Some(137), "the server died, but not at a probe");
            return true;
        }
        if idle(&server.addr) && status(&server.addr).as_deref() == Some("completed") {
            return false;
        }
        assert!(Instant::now() < deadline, "the server neither died nor finished the job");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn await_completed(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let now = status(addr).unwrap_or_default();
        assert!(!matches!(now.as_str(), "failed" | "timed_out"), "the job ended `{now}`");
        if now == "completed" {
            return;
        }
        assert!(Instant::now() < deadline, "the job is still `{now}`");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn result_bytes(store: &Path) -> Vec<u8> {
    let dir = JobStore::new(store).job_dir(ID).unwrap();
    std::fs::read(dir.join(a2a_run::RESULT_FILE)).expect("the completed job has a result")
}

/// Every file in the job's directory, sorted.
fn documents(store: &Path) -> Vec<String> {
    let dir = JobStore::new(store).job_dir(ID).unwrap();
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn a_kill_at_every_probe_of_a_job_recovers_the_identical_result() {
    let base: PathBuf =
        std::env::temp_dir().join(format!("a2a_serve_crash_points_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let control_store = base.join("control");
    let control = spawn_server(&control_store, None);
    assert_eq!(submit(&control.addr), Some(202));
    await_completed(&control.addr);
    drop(control);
    let control_result = result_bytes(&control_store);
    assert_eq!(documents(&control_store), ["manifest.json", "result.json"]);

    for n in 0.. {
        assert!(n <= JOB_PROBES, "probe {n} still kills: the job writes more than expected");
        let store = base.join(format!("kill-{n}"));
        let mut victim = spawn_server(&store, Some(&format!("store.publish@{n}")));
        let accepted = submit(&victim.addr) == Some(202);
        if !killed(&mut victim) {
            assert_eq!(n, JOB_PROBES, "the job finished unkilled at probe {n}");
            assert!(accepted);
            drop(victim);
            assert_eq!(result_bytes(&store), control_result);
            break;
        }
        drop(victim);

        let revived = spawn_server(&store, None);
        if !accepted {
            let again = submit(&revived.addr);
            assert!(
                matches!(again, Some(202 | 409)),
                "probe {n}: resubmission answered {again:?}"
            );
        }
        await_completed(&revived.addr);
        drop(revived);
        assert_eq!(result_bytes(&store), control_result, "probe {n}: the result differs");
        assert_eq!(JobStore::new(&store).list(), [ID], "probe {n}: the store holds one job");
        assert_eq!(documents(&store), ["manifest.json", "result.json"], "probe {n}");
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn a_job_killed_in_its_first_manifest_write_is_gone_after_a_restart() {
    let base: PathBuf =
        std::env::temp_dir().join(format!("a2a_serve_first_write_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    // Probe 0 follows the temp write, probe 1 its fsync: neither
    // publishes the manifest, and no `202` was sent.
    for n in 0..2 {
        let store = base.join(format!("kill-{n}"));
        let mut victim = spawn_server(&store, Some(&format!("store.publish@{n}")));
        assert_eq!(submit(&victim.addr), None, "probe {n}: the job was answered");
        assert!(killed(&mut victim), "probe {n}: the server survived");
        drop(victim);
        assert_eq!(JobStore::new(&store).list(), [ID], "probe {n}: no job directory to recover");

        let revived = spawn_server(&store, None);
        let listing = client::get(&revived.addr, "/jobs").unwrap().json().unwrap();
        assert_eq!(listing.get("count").and_then(Json::as_f64), Some(0.0), "probe {n}");
        drop(revived);
        assert!(JobStore::new(&store).list().is_empty(), "probe {n}: the job directory survived");
    }
    let _ = std::fs::remove_dir_all(&base);
}
