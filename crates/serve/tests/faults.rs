//! Fault-injection tests for the service's three chaos seams. Fault
//! plans are process-global, so this file is its own test binary (the
//! plain service tests run in a different process) and every test here
//! serialises on one guard and disarms before releasing it.

use a2a_obs::fault::{self, FaultPlan};
use a2a_obs::json::Json;
use a2a_serve::{client, QueueConfig, ServeConfig, Server, ServerHandle};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static GUARD: Mutex<()> = Mutex::new(());

fn start(name: &str) -> (ServerHandle, String) {
    let store_root =
        std::env::temp_dir().join(format!("a2a_serve_fault_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_root);
    let cfg = ServeConfig {
        store_root,
        queue: QueueConfig::default(),
        executors: 1,
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg).expect("bind loopback");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn quick_job(id: &str) -> String {
    Json::object()
        .with("tenant", "chaos")
        .with("id", id)
        .with("m", 4u64)
        .with("k", 2u64)
        .with("configs", 1u64)
        .with("generations", 3u64)
        .with("population", 2u64)
        .with("t_max", 200u64)
        .with("max_retries", 3u64)
        .to_string()
}

fn poll_status(addr: &str, id: &str, wanted: &[&str]) -> String {
    let start = Instant::now();
    loop {
        let status = client::get(addr, &format!("/jobs/{id}"))
            .ok()
            .and_then(|r| r.json().ok())
            .and_then(|d| d.get("status").and_then(Json::as_str).map(str::to_string))
            .unwrap_or_default();
        if wanted.contains(&status.as_str()) {
            return status;
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "job {id} stuck in `{status}` (wanted one of {wanted:?})"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn injected_request_fault_answers_500_and_service_recovers() {
    let _guard = GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let (handle, addr) = start("request");

    fault::arm(FaultPlan::parse("serve.request@0..2"));
    let first = client::get(&addr, "/healthz").unwrap();
    assert_eq!(first.status, 500, "{}", first.body);
    assert!(first.body.contains("injected"));
    let second = client::get(&addr, "/healthz").unwrap();
    assert_eq!(second.status, 500);
    fault::disarm();

    // The fault site is request-scoped: the listener, workers, and
    // queue are untouched, so the very next request succeeds.
    let healthy = client::get(&addr, "/healthz").unwrap();
    assert_eq!(healthy.status, 200, "{}", healthy.body);
    handle.stop();
}

#[test]
fn step_panic_is_retried_with_backoff_until_completion() {
    let _guard = GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let (handle, addr) = start("step");

    // The first generation boundary panics; attempt two reruns the job
    // (too small to have earned a checkpoint) and finishes.
    fault::arm(FaultPlan::parse("serve.job.step@0"));
    assert_eq!(client::post(&addr, "/jobs", &quick_job("flaky")).unwrap().status, 202);
    assert_eq!(poll_status(&addr, "flaky", &["completed", "failed"]), "completed");
    fault::disarm();

    let manifest = client::get(&addr, "/jobs/flaky").unwrap().json().unwrap();
    let attempts = manifest.get("attempts").and_then(Json::as_f64).unwrap() as u64;
    assert!(attempts >= 2, "a panicking attempt must be visible: attempts = {attempts}");

    let result = client::get(&addr, "/jobs/flaky/result").unwrap();
    assert_eq!(result.status, 200);
    a2a_obs::schema::verify_checksum(&result.json().unwrap()).expect("sealed result");
    handle.stop();
}

#[test]
fn checkpoint_write_fault_is_transient_not_fatal() {
    let _guard = GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let (handle, addr) = start("checkpoint");

    // serve.checkpoint guards manifest and result saves. Refusing the
    // first two saves eats submit-time manifest writes (a 500 the
    // client retries) or an executor-side save (retried with backoff);
    // either way the job must still complete with a valid sealed
    // result.
    fault::arm(FaultPlan::parse("serve.checkpoint@0..2"));
    let mut accepted = false;
    for _ in 0..5 {
        let reply = client::post(&addr, "/jobs", &quick_job("durable")).unwrap();
        match reply.status {
            202 => {
                accepted = true;
                break;
            }
            409 => {
                // An earlier refused submit still left the manifest:
                // also fine, the job exists.
                accepted = true;
                break;
            }
            500 => continue,
            other => panic!("unexpected status {other}: {}", reply.body),
        }
    }
    assert!(accepted, "submission never got through");
    assert_eq!(poll_status(&addr, "durable", &["completed", "failed"]), "completed");
    fault::disarm();

    let result = client::get(&addr, "/jobs/durable/result").unwrap();
    assert_eq!(result.status, 200);
    a2a_obs::schema::verify_checksum(&result.json().unwrap()).expect("sealed result");
    handle.stop();
}
