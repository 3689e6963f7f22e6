//! In-process service tests: the full HTTP surface, backpressure,
//! quotas, deadlines, and drain — everything except process-kill chaos
//! (`tests/chaos.rs`) and fault injection (`tests/faults.rs`, which
//! needs its own process because fault plans are process-global).

use a2a_obs::json::Json;
use a2a_serve::{client, QueueConfig, ServeConfig, Server, ServerHandle};
use std::time::{Duration, Instant};

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("a2a_serve_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(name: &str, queue: QueueConfig, executors: usize) -> (ServerHandle, String) {
    let cfg = ServeConfig {
        store_root: scratch(name),
        queue,
        executors,
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg).expect("bind loopback");
    let addr = handle.addr().to_string();
    (handle, addr)
}

/// A fast job: tiny world, tight step budget — completes in well under
/// a second.
fn quick_job(tenant: &str, seed: u64) -> String {
    Json::object()
        .with("tenant", tenant)
        .with("seed", seed)
        .with("m", 4u64)
        .with("k", 2u64)
        .with("configs", 1u64)
        .with("generations", 2u64)
        .with("population", 2u64)
        .with("t_max", 200u64)
        .to_string()
}

/// A job that keeps an executor busy until stopped (the generation
/// budget is far beyond what any test waits for).
fn slow_job(tenant: &str, id: &str) -> String {
    Json::object()
        .with("tenant", tenant)
        .with("id", id)
        .with("m", 8u64)
        .with("k", 4u64)
        .with("configs", 2u64)
        .with("generations", 500_000u64)
        .with("population", 4u64)
        .with("t_max", 300u64)
        .to_string()
}

fn poll_status(addr: &str, id: &str, wanted: &[&str], timeout: Duration) -> String {
    let start = Instant::now();
    loop {
        let reply = client::get(addr, &format!("/jobs/{id}")).expect("GET status");
        let status = reply
            .json()
            .ok()
            .and_then(|d| d.get("status").and_then(Json::as_str).map(str::to_string))
            .unwrap_or_default();
        if wanted.contains(&status.as_str()) {
            return status;
        }
        assert!(
            start.elapsed() < timeout,
            "job {id} stuck in `{status}` (wanted one of {wanted:?})"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn wait_running(addr: &str, at_least: u64) {
    let start = Instant::now();
    loop {
        let health = client::get(addr, "/healthz").expect("GET healthz").json().unwrap();
        if health.get("running").and_then(Json::as_f64).unwrap_or(0.0) as u64 >= at_least {
            return;
        }
        assert!(start.elapsed() < Duration::from_secs(10), "no job ever started running");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn submit_poll_result_round_trip() {
    let (handle, addr) = start("round_trip", QueueConfig::default(), 2);

    let reply = client::post(&addr, "/jobs", &quick_job("acme", 7)).unwrap();
    assert_eq!(reply.status, 202, "{}", reply.body);
    let id = reply.json().unwrap().get("id").and_then(Json::as_str).unwrap().to_string();

    // Result is a 404-with-status until the job lands.
    let early = client::get(&addr, &format!("/jobs/{id}/result")).unwrap();
    if early.status == 404 {
        assert!(early.json().unwrap().get("status").is_some());
    }

    assert_eq!(poll_status(&addr, &id, &["completed", "failed"], Duration::from_secs(30)), "completed");
    let result = client::get(&addr, &format!("/jobs/{id}/result")).unwrap();
    assert_eq!(result.status, 200);
    let doc = result.json().unwrap();
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(a2a_serve::RESULT_SCHEMA));
    a2a_obs::schema::verify_checksum(&doc).expect("result is sealed");
    assert!(doc.get("best").and_then(|b| b.get("genome")).is_some());

    // Progress events streamed per generation boundary.
    let events = client::get(&addr, &format!("/jobs/{id}/events")).unwrap();
    assert_eq!(events.status, 200);
    assert!(
        events.body.lines().any(|l| l.contains("serve.job.gen")),
        "events buffer holds generation progress: {}",
        events.body
    );

    // Unknown routes and ids.
    assert_eq!(client::get(&addr, "/jobs/absent").unwrap().status, 404);
    assert_eq!(client::get(&addr, "/nope").unwrap().status, 404);
    assert_eq!(client::post(&addr, "/jobs", "{not json").unwrap().status, 400);
    assert_eq!(client::post(&addr, "/jobs", "{}").unwrap().status, 400);

    handle.stop();
}

#[test]
fn islands_job_completes_with_islands_result() {
    let (handle, addr) = start("islands", QueueConfig::default(), 1);
    let body = Json::object()
        .with("tenant", "acme")
        .with("id", "isl-1")
        .with("seed", 5u64)
        .with("m", 4u64)
        .with("k", 2u64)
        .with("configs", 1u64)
        .with("generations", 4u64)
        .with("population", 3u64)
        .with("t_max", 200u64)
        .with("islands", 2u64)
        .with("epoch", 2u64)
        .with("migrants", 1u64)
        .to_string();
    assert_eq!(client::post(&addr, "/jobs", &body).unwrap().status, 202);
    assert_eq!(
        poll_status(&addr, "isl-1", &["completed", "failed"], Duration::from_secs(30)),
        "completed"
    );

    let result = client::get(&addr, "/jobs/isl-1/result").unwrap();
    assert_eq!(result.status, 200);
    let doc = result.json().unwrap();
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(a2a_serve::RESULT_SCHEMA));
    a2a_obs::schema::verify_checksum(&doc).expect("islands result is sealed");
    assert_eq!(doc.get("mode").and_then(Json::as_str), Some("islands"));
    assert_eq!(doc.get("islands").and_then(Json::as_arr).map(|a| a.len()), Some(2));
    assert!(doc.get("best").and_then(|b| b.get("genome")).is_some());

    // Epoch progress reaches the event stream.
    let events = client::get(&addr, "/jobs/isl-1/events").unwrap();
    assert!(
        events.body.lines().any(|l| l.contains("serve.job.epoch")),
        "events buffer holds epoch progress: {}",
        events.body
    );
    handle.stop();
}

#[test]
fn job_listing_paginates_and_prunes() {
    let (handle, addr) = start("pagination", QueueConfig::default(), 2);
    for i in 0..5 {
        let body = Json::object()
            .with("tenant", "acme")
            .with("id", format!("page-{i}"))
            .with("seed", i as u64)
            .with("m", 4u64)
            .with("k", 2u64)
            .with("configs", 1u64)
            .with("generations", 2u64)
            .with("population", 2u64)
            .with("t_max", 200u64)
            .to_string();
        assert_eq!(client::post(&addr, "/jobs", &body).unwrap().status, 202);
    }
    for i in 0..5 {
        poll_status(&addr, &format!("page-{i}"), &["completed"], Duration::from_secs(30));
    }

    // Page 1: first two ids plus a `next` cursor.
    let page = client::get(&addr, "/jobs?limit=2").unwrap();
    assert_eq!(page.status, 200, "{}", page.body);
    let doc = page.json().unwrap();
    let ids = |d: &Json| -> Vec<String> {
        d.get("jobs")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|j| j.get("id").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    assert_eq!(ids(&doc), vec!["page-0", "page-1"]);
    assert_eq!(doc.get("next").and_then(Json::as_str), Some("page-1"));
    assert_eq!(
        doc.get("jobs").and_then(Json::as_arr).unwrap()[0]
            .get("status")
            .and_then(Json::as_str),
        Some("completed")
    );

    // Follow the cursor; the final short page carries no `next`.
    let page2 = client::get(&addr, "/jobs?after=page-1&limit=2").unwrap().json().unwrap();
    assert_eq!(ids(&page2), vec!["page-2", "page-3"]);
    let page3 = client::get(&addr, "/jobs?after=page-3&limit=2").unwrap().json().unwrap();
    assert_eq!(ids(&page3), vec!["page-4"]);
    assert!(page3.get("next").is_none(), "short page ends the walk");

    // Bad limits are named, not clamped silently.
    assert_eq!(client::get(&addr, "/jobs?limit=0").unwrap().status, 400);
    assert_eq!(client::get(&addr, "/jobs?limit=nope").unwrap().status, 400);

    // Retention: keep the 2 newest terminal jobs, expire the rest.
    let pruned = client::post(&addr, "/admin/prune?keep=2", "").unwrap();
    assert_eq!(pruned.status, 200, "{}", pruned.body);
    let pruned_ids: Vec<String> = pruned
        .json()
        .unwrap()
        .get("pruned")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|j| j.as_str().unwrap().to_string())
        .collect();
    assert_eq!(pruned_ids, vec!["page-0", "page-1", "page-2"]);
    let after = client::get(&addr, "/jobs").unwrap().json().unwrap();
    assert_eq!(ids(&after), vec!["page-3", "page-4"]);
    assert_eq!(client::get(&addr, "/jobs/page-0").unwrap().status, 404);

    handle.stop();
}

#[test]
fn identical_submissions_conflict() {
    let (handle, addr) = start("conflict", QueueConfig::default(), 1);
    let body = Json::object()
        .with("tenant", "t")
        .with("id", "fixed-id")
        .with("generations", 2u64)
        .with("configs", 1u64)
        .with("m", 4u64)
        .with("k", 2u64)
        .with("population", 2u64)
        .with("t_max", 200u64)
        .to_string();
    assert_eq!(client::post(&addr, "/jobs", &body).unwrap().status, 202);
    assert_eq!(client::post(&addr, "/jobs", &body).unwrap().status, 409);
    handle.stop();
}

#[test]
fn full_queue_answers_429_with_retry_after() {
    // One executor, one tenant running slot, queue of 2: a slow job
    // occupies the executor, two fit in the queue, the next sheds.
    let queue = QueueConfig { capacity: 2, tenant_max_queued: 16, tenant_max_running: 1 };
    let (handle, addr) = start("backpressure", queue, 1);

    assert_eq!(client::post(&addr, "/jobs", &slow_job("t1", "hog")).unwrap().status, 202);
    wait_running(&addr, 1);
    assert_eq!(client::post(&addr, "/jobs", &slow_job("t1", "q1")).unwrap().status, 202);
    assert_eq!(client::post(&addr, "/jobs", &slow_job("t1", "q2")).unwrap().status, 202);

    let shed = client::post(&addr, "/jobs", &slow_job("t1", "q3")).unwrap();
    assert_eq!(shed.status, 429, "{}", shed.body);
    assert!(shed.body.contains("queue_full"));
    let retry_after = shed.header("retry-after").expect("429 carries Retry-After");
    assert!(retry_after.parse::<u64>().unwrap() >= 1);

    // The shed job left no durable trace.
    let listed = client::get(&addr, "/jobs/q3").unwrap();
    assert_eq!(listed.status, 404);

    handle.stop();
}

#[test]
fn tenant_quota_answers_429_and_other_tenants_proceed() {
    let queue = QueueConfig { capacity: 100, tenant_max_queued: 1, tenant_max_running: 1 };
    let (handle, addr) = start("quota", queue, 2);

    assert_eq!(client::post(&addr, "/jobs", &slow_job("greedy", "g-run")).unwrap().status, 202);
    wait_running(&addr, 1);
    assert_eq!(client::post(&addr, "/jobs", &slow_job("greedy", "g-q")).unwrap().status, 202);

    let capped = client::post(&addr, "/jobs", &slow_job("greedy", "g-over")).unwrap();
    assert_eq!(capped.status, 429, "{}", capped.body);
    assert!(capped.body.contains("tenant_quota"));
    assert!(capped.header("retry-after").is_some());

    // A different tenant is unaffected by greedy's quota.
    let other = client::post(&addr, "/jobs", &quick_job("modest", 3)).unwrap();
    assert_eq!(other.status, 202, "{}", other.body);
    let id = other.json().unwrap().get("id").and_then(Json::as_str).unwrap().to_string();
    assert_eq!(poll_status(&addr, &id, &["completed"], Duration::from_secs(30)), "completed");

    handle.stop();
}

#[test]
fn deadline_marks_job_timed_out() {
    let (handle, addr) = start("deadline", QueueConfig::default(), 1);
    let body = Json::object()
        .with("tenant", "t")
        .with("id", "late")
        .with("m", 8u64)
        .with("k", 4u64)
        .with("configs", 2u64)
        .with("generations", 500_000u64)
        .with("population", 4u64)
        .with("t_max", 300u64)
        .with("deadline_ms", 50u64)
        .to_string();
    assert_eq!(client::post(&addr, "/jobs", &body).unwrap().status, 202);
    assert_eq!(
        poll_status(&addr, "late", &["timed_out", "completed", "failed"], Duration::from_secs(30)),
        "timed_out"
    );
    let manifest = client::get(&addr, "/jobs/late").unwrap().json().unwrap();
    assert_eq!(manifest.get("error").and_then(Json::as_str), Some("deadline exceeded"));
    handle.stop();
}

#[test]
fn drain_stops_admission_and_requeues_running_jobs() {
    let (handle, addr) = start("drain", QueueConfig::default(), 1);
    assert_eq!(client::post(&addr, "/jobs", &slow_job("t", "survivor")).unwrap().status, 202);
    wait_running(&addr, 1);

    assert_eq!(client::post(&addr, "/admin/drain", "").map(|r| r.status).unwrap_or(0), 200);
    let refused = client::post(&addr, "/jobs", &quick_job("t", 1)).unwrap();
    assert_eq!(refused.status, 503);
    assert!(refused.header("retry-after").is_some());
    let health = client::get(&addr, "/healthz").unwrap().json().unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("draining"));

    // The running job lands back in `queued`, durably, never lost.
    assert_eq!(
        poll_status(&addr, "survivor", &["queued"], Duration::from_secs(30)),
        "queued"
    );
    handle.stop();
}

#[test]
fn metrics_snapshot_serves_counters() {
    a2a_obs::set_metrics(true);
    let (handle, addr) = start("metrics", QueueConfig::default(), 1);
    let reply = client::post(&addr, "/jobs", &quick_job("t", 11)).unwrap();
    assert_eq!(reply.status, 202);
    let id = reply.json().unwrap().get("id").and_then(Json::as_str).unwrap().to_string();
    poll_status(&addr, &id, &["completed"], Duration::from_secs(30));
    let metrics = client::get(&addr, "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    assert!(
        metrics.body.contains("serve.jobs.submitted"),
        "snapshot names the serve counters: {}",
        metrics.body
    );
    handle.stop();
}

#[test]
fn post_with_oversized_body_answers_413() {
    use std::io::{Read, Write};
    let (handle, addr) = start("oversize", QueueConfig::default(), 1);
    // Headers only: the server must reject on the declared length
    // without ever trying to buffer the (absent) 2 MiB body.
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .write_all(b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 2097152\r\n\r\n")
        .unwrap();
    let mut reply = String::new();
    let _ = stream.read_to_string(&mut reply);
    assert!(reply.starts_with("HTTP/1.1 413"), "got: {reply}");
    handle.stop();
}

#[test]
fn deeply_nested_body_answers_400_and_the_server_stays_up() {
    let (handle, addr) = start("nested", QueueConfig::default(), 1);
    // 500 KB of `[`: a parser recursing once per level without a depth
    // limit overflows the connection thread's stack and aborts the
    // whole process.
    let reply = client::post(&addr, "/jobs", &"[".repeat(500_000)).unwrap();
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(reply.body.contains("nesting"), "{}", reply.body);
    let health = client::get(&addr, "/healthz").unwrap();
    assert_eq!(health.status, 200, "{}", health.body);
    handle.stop();
}

#[test]
fn oversized_job_answers_400_and_the_server_stays_up() {
    let (handle, addr) = start("oversized", QueueConfig::default(), 1);
    // A 65535×65535 torus would be allocated per field cell by the
    // kernel, and a run reserves its generation (or epoch) history up
    // front; the boundary refuses all of them before anything is queued.
    let job = Json::object().with("tenant", "t");
    for (body, field) in [
        (job.clone().with("m", 65_535u64), "`m`"),
        (job.clone().with("generations", 1e18), "`generations`"),
        (job.with("islands", 2u64).with("epoch", 1e18), "`epoch`"),
    ] {
        let reply = client::post(&addr, "/jobs", &body.to_string()).unwrap();
        assert_eq!(reply.status, 400, "{}", reply.body);
        assert!(reply.body.contains(field), "{}", reply.body);
    }
    let health = client::get(&addr, "/healthz").unwrap();
    assert_eq!(health.status, 200, "{}", health.body);
    handle.stop();
}
