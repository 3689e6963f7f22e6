//! Process-level chaos: `kill -9` a real `a2a-serve` process with at
//! least four jobs mid-flight, restart it on the same store, and
//! require every job's sealed result to be **byte-equal** to an
//! uninterrupted control run — the crate's whole durability claim,
//! enforced end to end.

use a2a_obs::json::Json;
use a2a_serve::client;
use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

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

fn spawn_server(store: &std::path::Path) -> Server {
    let mut child = Command::new(env!("CARGO_BIN_EXE_a2a-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--store",
            store.to_str().unwrap(),
            "--executors",
            "6",
            "--tenant-running",
            "6",
            "--threads",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn a2a-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("server prints its banner")
        .expect("banner is readable");
    let addr = banner
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();
    Server { child, addr }
}

/// Six jobs, two tenants, fixed ids and seeds: heavy enough that the
/// kill lands mid-run, light enough to finish promptly after restart.
fn submissions() -> Vec<(String, String)> {
    (0..6)
        .map(|i| {
            let id = format!("chaos-{i}");
            let body = Json::object()
                .with("tenant", if i % 2 == 0 { "even" } else { "odd" })
                .with("id", id.as_str())
                .with("seed", 100 + i as u64)
                .with("m", 8u64)
                .with("k", 4u64)
                .with("configs", 2u64)
                .with("generations", 400u64)
                .with("population", 4u64)
                .with("t_max", 300u64)
                .to_string();
            (id, body)
        })
        .collect()
}

fn submit_all(addr: &str, jobs: &[(String, String)]) {
    for (id, body) in jobs {
        let reply = client::post(addr, "/jobs", body).expect("POST /jobs");
        assert_eq!(reply.status, 202, "submitting {id}: {}", reply.body);
    }
}

fn running_now(addr: &str) -> u64 {
    client::get(addr, "/healthz")
        .ok()
        .and_then(|r| r.json().ok())
        .and_then(|d| d.get("running").and_then(Json::as_f64))
        .unwrap_or(0.0) as u64
}

fn await_results(addr: &str, jobs: &[(String, String)], timeout: Duration) -> Vec<String> {
    let start = Instant::now();
    jobs.iter()
        .map(|(id, _)| loop {
            let reply = client::get(addr, &format!("/jobs/{id}/result")).expect("GET result");
            if reply.status == 200 {
                break reply.body;
            }
            let status = reply
                .json()
                .ok()
                .and_then(|d| d.get("status").and_then(Json::as_str).map(str::to_string))
                .unwrap_or_default();
            assert!(
                !matches!(status.as_str(), "failed" | "timed_out"),
                "job {id} ended `{status}` instead of completing"
            );
            assert!(
                start.elapsed() < timeout,
                "job {id} still `{status}` after {timeout:?}"
            );
            std::thread::sleep(Duration::from_millis(30));
        })
        .collect()
}

#[test]
fn kill_nine_mid_flight_then_restart_is_bit_identical() {
    let base = std::env::temp_dir().join(format!("a2a_serve_chaos_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let victim_store = base.join("victim");
    let control_store = base.join("control");
    let jobs = submissions();

    // Interrupted run: submit everything, wait until at least four
    // jobs are executing, then SIGKILL with no warning whatsoever.
    let victim = spawn_server(&victim_store);
    submit_all(&victim.addr, &jobs);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut peak = 0;
    while peak < 4 {
        peak = peak.max(running_now(&victim.addr));
        assert!(
            Instant::now() < deadline,
            "never saw 4 concurrent jobs (peak {peak}) — grow the job size"
        );
        std::thread::sleep(Duration::from_millis(3));
    }
    drop(victim); // Drop::drop is kill(-9): no drain, no flush, nothing.

    // Restart on the same store: recovery re-queues every non-terminal
    // job and each reruns from its last durable checkpoint, or from its
    // start when its work has not earned one yet.
    let revived = spawn_server(&victim_store);
    let interrupted = await_results(&revived.addr, &jobs, Duration::from_secs(240));

    // No duplicates, no strays: the store holds exactly the six jobs.
    let health = client::get(&revived.addr, "/healthz").unwrap().json().unwrap();
    assert_eq!(health.get("queued").and_then(Json::as_f64), Some(0.0));
    drop(revived);

    // Control run: same submissions, never interrupted.
    let control = spawn_server(&control_store);
    submit_all(&control.addr, &jobs);
    let baseline = await_results(&control.addr, &jobs, Duration::from_secs(240));
    drop(control);

    for ((id, _), (got, want)) in jobs.iter().zip(interrupted.iter().zip(baseline.iter())) {
        assert_eq!(
            got, want,
            "job {id}: interrupted-and-resumed result differs from the control run"
        );
        a2a_obs::schema::verify_checksum(&a2a_obs::json::parse(got).unwrap())
            .expect("results stay sealed");
    }

    let _ = std::fs::remove_dir_all(&base);
}
