//! End-to-end test of the `obs_report` binary: a sealed kernel snapshot
//! whose frontier ratio fell more than 30 % below the sealed baseline's
//! must be flagged from the artifacts alone, and `--check` must turn
//! the flag into a non-zero exit. A healthy history stream must pass
//! and render sparklines.

use a2a_obs::json::Json;
use a2a_obs::schema::{seal, BENCH_HISTORY_SCHEMA, KERNEL_BENCH_SCHEMA};
use a2a_obs::HistogramSnapshot;
use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("a2a_obs_report_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A schema-valid sealed kernel snapshot with a chosen frontier ratio.
fn kernel_snapshot(frontier_speedup: f64) -> Json {
    let rates = |us: f64| {
        Json::object()
            .with("elapsed_us", us)
            .with("steps_per_sec", 1e9 / us)
            .with("evals_per_sec", 1e6 / us)
    };
    let mut active = HistogramSnapshot::default();
    active.record(55);
    seal(Json::object()
        .with("schema", KERNEL_BENCH_SCHEMA)
        .with(
            "workload",
            Json::object().with("population", 8u64).with("configs", 24u64).with("k", 8u64).with("grid", "T"),
        )
        .with("dense", rates(100.0 * frontier_speedup).with("chunk", 64u64))
        .with("multi", rates(100.0).with("chunk", 64u64))
        .with("parallel", rates(102.0).with("chunk", 64u64).with("workers", 1u64))
        .with("frontier_speedup", frontier_speedup)
        .with("parallel_speedup", frontier_speedup / 1.02)
        .with(
            "frontier",
            Json::object()
                .with("active_agent_steps", 12_345u64)
                .with("active_pct", active.to_json()),
        )
        .with("identical_outcomes", true))
}

fn history_line(frontier_speedup: f64) -> String {
    seal(Json::object()
        .with("schema", BENCH_HISTORY_SCHEMA)
        .with("t_ms", 1.0)
        .with("run", Json::object().with("configs", 24u64).with("seed", 7u64))
        .with(
            "kernel",
            Json::object()
                .with("frontier_speedup", frontier_speedup)
                .with("multi_steps_per_sec", 2.0e6),
        )
        .with("fitness", Json::object().with("speedup", 2.1).with("evals_per_sec", 900.0)))
    .to_string()
}

fn run_report(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_obs_report"))
        .args(args)
        .output()
        .expect("obs_report runs")
}

#[test]
fn frontier_regression_fails_check_from_sealed_artifacts_alone() {
    let dir = scratch("frontier");
    let kernel_path = dir.join("BENCH_kernel.json");
    std::fs::write(&kernel_path, format!("{}\n", kernel_snapshot(1.05))).unwrap();
    let baseline_path = dir.join("kernel_baseline.json");
    std::fs::write(&baseline_path, format!("{}\n", kernel_snapshot(1.6))).unwrap();
    let out_dir = dir.join("report");

    let out = run_report(&[
        "--kernel",
        kernel_path.to_str().unwrap(),
        "--baseline",
        baseline_path.to_str().unwrap(),
        "--out",
        out_dir.to_str().unwrap(),
        "--check",
    ]);
    assert!(
        !out.status.success(),
        "--check must fail on a frontier ratio 34 % under the baseline: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("REGRESSION"), "stderr names the finding: {stderr}");
    assert!(stderr.contains("frontier_speedup"), "finding names the ratio: {stderr}");
    // The report is still written for the failing run — that is the
    // artifact CI uploads to explain the failure.
    let md = std::fs::read_to_string(out_dir.join("OBS_REPORT.md")).unwrap();
    assert!(md.contains("REGRESSION"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn healthy_artifacts_and_history_pass_and_render_sparklines() {
    let dir = scratch("healthy");
    let kernel_path = dir.join("BENCH_kernel.json");
    std::fs::write(&kernel_path, format!("{}\n", kernel_snapshot(1.3))).unwrap();
    let history_path = dir.join("bench_history.jsonl");
    let lines: String = (0..4).map(|_| format!("{}\n", history_line(2.0))).collect();
    std::fs::write(&history_path, lines).unwrap();
    let out_dir = dir.join("report");

    let out = run_report(&[
        "--kernel",
        kernel_path.to_str().unwrap(),
        "--history",
        history_path.to_str().unwrap(),
        "--out",
        out_dir.to_str().unwrap(),
        "--check",
    ]);
    assert!(
        out.status.success(),
        "healthy inputs must pass --check: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let md = std::fs::read_to_string(out_dir.join("OBS_REPORT.md")).unwrap();
    assert!(md.contains("No regressions detected"));
    assert!(md.contains("History trends"));
    // Every referenced sparkline file exists next to the markdown.
    for entry in std::fs::read_dir(&out_dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        if Path::new(&name).extension().is_some_and(|e| e == "svg") {
            assert!(md.contains(&name), "{name} is referenced by the report");
        }
    }
    assert!(md.contains(".svg"), "trend table links sparklines");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_history_file_is_an_empty_trend_not_an_error() {
    let dir = scratch("absent");
    let out_dir = dir.join("report");
    let out = run_report(&[
        "--history",
        dir.join("does_not_exist.jsonl").to_str().unwrap(),
        "--out",
        out_dir.to_str().unwrap(),
        "--check",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tampered_artifact_is_rejected_before_any_number_is_trusted() {
    let dir = scratch("tampered");
    let kernel_path = dir.join("BENCH_kernel.json");
    let tampered = kernel_snapshot(1.3)
        .to_string()
        .replace("\"frontier_speedup\":1.3", "\"frontier_speedup\":9");
    std::fs::write(&kernel_path, format!("{tampered}\n")).unwrap();
    let out = run_report(&[
        "--kernel",
        kernel_path.to_str().unwrap(),
        "--out",
        dir.join("report").to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("INVALID"));
    let _ = std::fs::remove_dir_all(&dir);
}
