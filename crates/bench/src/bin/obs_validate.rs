//! Validates observability artifacts: an events JSONL stream (written
//! via `--json-out`), a `BENCH_obs.json` perf snapshot, a
//! `BENCH_fitness.json` pipeline snapshot, a `BENCH_kernel.json`
//! multi-run kernel snapshot, and/or an `a2a-run` checkpoint. Exits
//! non-zero on the first schema violation, so CI can gate on it.
//!
//! ```text
//! cargo run --release -p a2a-bench --bin obs_validate -- \
//!     [--events events.jsonl] [--snapshot BENCH_obs.json] \
//!     [--fitness BENCH_fitness.json] [--kernel BENCH_kernel.json] \
//!     [--kernel-baseline BASELINE.json] [--serve BENCH_serve.json] \
//!     [--campaign BENCH_campaign.json] [--run CHECKPOINT_DIR_OR_FILE]
//! ```
//!
//! `--campaign` gates a `BENCH_campaign.json` snapshot: aggregate
//! evals/s positive, campaign-wide dedup hit rate observed, the archive
//! coverage curve monotone, and the 4-shard/1-shard throughput ratio ≥
//! 2× once the host has 4+ cores (recorded, not floored, on smaller
//! hosts — the honest-hardware convention of the kernel gates).
//!
//! `--serve` gates a `BENCH_serve.json` load snapshot: every submitted
//! job completed (zero lost or duplicated), backpressure and tenant
//! quotas both answered `429` (with `Retry-After`), and the latency
//! percentiles are monotone.
//! `--fitness` additionally gates on the snapshot's own acceptance
//! terms: `identical_reports` must be true and `speedup ≥ 1`; `--kernel`
//! gates the same way on `identical_outcomes` (every path and the
//! reference oracle) and `frontier_speedup ≥ 1`, plus the parallel
//! ratio once four or more workers are available. `--kernel-baseline
//! BASELINE` pairs with the `--kernel` files and additionally fails when
//! a fresh snapshot's `frontier_speedup` regressed more than 30 % below
//! the baseline's. Snapshot and checkpoint documents
//! are sealed; their embedded checksum is verified before any field is
//! trusted. A crashed run's events stream (a `.partial` file) may end
//! in one torn line — that is tolerated and reported, while any other
//! malformed line still fails.

use a2a_obs::json::parse;
use a2a_obs::schema::{
    validate_bench_snapshot, validate_campaign_snapshot, validate_events,
    validate_fitness_snapshot, validate_kernel_regression, validate_kernel_snapshot,
    validate_serve_snapshot,
};
use a2a_run::{CheckpointStore, Payload, CHECKPOINT_FILE};
use std::path::Path;
use std::process::ExitCode;

/// Validates one checkpoint (a directory holding `checkpoint.json`, or
/// the file itself) and renders a one-line summary.
fn validate_run_checkpoint(path: &str) -> Result<String, String> {
    let p = Path::new(path);
    let dir = if p.is_dir() {
        p.to_path_buf()
    } else if p.file_name().map(|n| n == CHECKPOINT_FILE).unwrap_or(false) {
        p.parent().unwrap_or_else(|| Path::new(".")).to_path_buf()
    } else {
        return Err(format!("expected a run directory or a {CHECKPOINT_FILE} file"));
    };
    let ckpt = CheckpointStore::new(dir)
        .load()?
        .ok_or_else(|| format!("no {CHECKPOINT_FILE} in the run directory"))?;
    Ok(match ckpt.payload {
        Payload::Single(state) => format!(
            "single run at generation boundary {} ({} individuals, {} history entries, \
             cache {} entries / {} hits)",
            state.next_generation.saturating_sub(1),
            state.pool.len(),
            state.history.len(),
            ckpt.counters.cache_entries,
            ckpt.counters.cache_hits,
        ),
        Payload::Islands(state) => format!(
            "island run at epoch boundary {} ({} islands)",
            state.next_epoch.saturating_sub(1),
            state.outcomes.len(),
        ),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut events: Vec<String> = Vec::new();
    let mut snapshots: Vec<String> = Vec::new();
    let mut fitness: Vec<String> = Vec::new();
    let mut kernels: Vec<String> = Vec::new();
    let mut kernel_baseline: Option<String> = None;
    let mut serves: Vec<String> = Vec::new();
    let mut campaigns: Vec<String> = Vec::new();
    let mut runs: Vec<String> = Vec::new();
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--events" | "--snapshot" | "--fitness" | "--kernel" | "--kernel-baseline"
            | "--serve" | "--campaign" | "--run" => {
                let Some(path) = it.next() else {
                    eprintln!("missing value for {flag}");
                    return ExitCode::FAILURE;
                };
                match flag.as_str() {
                    "--events" => events.push(path),
                    "--snapshot" => snapshots.push(path),
                    "--fitness" => fitness.push(path),
                    "--kernel" => kernels.push(path),
                    "--kernel-baseline" => kernel_baseline = Some(path),
                    "--serve" => serves.push(path),
                    "--campaign" => campaigns.push(path),
                    _ => runs.push(path),
                }
            }
            other => {
                eprintln!(
                    "unknown flag `{other}` (use --events FILE / --snapshot FILE / \
                     --fitness FILE / --kernel FILE / --kernel-baseline FILE / \
                     --serve FILE / --campaign FILE / --run DIR)"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if kernel_baseline.is_some() && kernels.is_empty() {
        eprintln!("--kernel-baseline needs at least one --kernel FILE to compare against");
        return ExitCode::FAILURE;
    }
    if events.is_empty() && snapshots.is_empty() && fitness.is_empty() && kernels.is_empty()
        && serves.is_empty() && campaigns.is_empty() && runs.is_empty()
    {
        eprintln!(
            "nothing to validate: pass --events FILE, --snapshot FILE, --fitness FILE, \
             --kernel FILE, --serve FILE, --campaign FILE and/or --run DIR"
        );
        return ExitCode::FAILURE;
    }

    let mut ok = true;
    for path in &events {
        match std::fs::read_to_string(path) {
            Ok(content) => match validate_events(&content) {
                Ok(summary) => {
                    let total = content.lines().filter(|l| !l.trim().is_empty()).count();
                    match summary.truncated_tail {
                        None => println!(
                            "{path}: OK ({} event lines, {total} total)",
                            summary.events
                        ),
                        Some(tail) => println!(
                            "{path}: OK ({} event lines, {total} total; torn final line \
                             tolerated: `{}`)",
                            summary.events,
                            tail.chars().take(60).collect::<String>(),
                        ),
                    }
                }
                Err(e) => {
                    eprintln!("{path}: INVALID: {e}");
                    ok = false;
                }
            },
            Err(e) => {
                eprintln!("{path}: unreadable: {e}");
                ok = false;
            }
        }
    }
    for path in &snapshots {
        let result = std::fs::read_to_string(path)
            .map_err(|e| format!("unreadable: {e}"))
            .and_then(|content| parse(content.trim()))
            .and_then(|doc| validate_bench_snapshot(&doc));
        match result {
            Ok(()) => println!("{path}: OK (bench snapshot, checksum verified)"),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                ok = false;
            }
        }
    }
    for path in &fitness {
        let result = std::fs::read_to_string(path)
            .map_err(|e| format!("unreadable: {e}"))
            .and_then(|content| parse(content.trim()))
            .and_then(|doc| validate_fitness_snapshot(&doc));
        match result {
            Ok(()) => println!(
                "{path}: OK (fitness snapshot, checksum verified, adaptive ≥ baseline, \
                 identical reports)"
            ),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                ok = false;
            }
        }
    }
    let baseline_doc = kernel_baseline.as_ref().and_then(|path| {
        match std::fs::read_to_string(path)
            .map_err(|e| format!("unreadable: {e}"))
            .and_then(|content| parse(content.trim()))
        {
            Ok(doc) => Some(doc),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                ok = false;
                None
            }
        }
    });
    for path in &kernels {
        let result = std::fs::read_to_string(path)
            .map_err(|e| format!("unreadable: {e}"))
            .and_then(|content| parse(content.trim()))
            .and_then(|doc| match &baseline_doc {
                // The regression check validates both documents itself.
                Some(base) => validate_kernel_regression(base, &doc),
                None => validate_kernel_snapshot(&doc),
            });
        match result {
            Ok(()) => match (&kernel_baseline, &baseline_doc) {
                (Some(base), Some(_)) => println!(
                    "{path}: OK (kernel snapshot, checksum verified, frontier ≥ dense, \
                     every path agrees with the oracle, within 30 % of {base})"
                ),
                _ => println!(
                    "{path}: OK (kernel snapshot, checksum verified, frontier ≥ dense, \
                     every path agrees with the oracle)"
                ),
            },
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                ok = false;
            }
        }
    }
    for path in &serves {
        let result = std::fs::read_to_string(path)
            .map_err(|e| format!("unreadable: {e}"))
            .and_then(|content| parse(content.trim()))
            .and_then(|doc| validate_serve_snapshot(&doc));
        match result {
            Ok(()) => println!(
                "{path}: OK (serve snapshot, checksum verified, zero lost/duplicated, \
                 backpressure and quota rejections observed)"
            ),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                ok = false;
            }
        }
    }
    for path in &campaigns {
        let result = std::fs::read_to_string(path)
            .map_err(|e| format!("unreadable: {e}"))
            .and_then(|content| parse(content.trim()))
            .and_then(|doc| validate_campaign_snapshot(&doc));
        match result {
            Ok(()) => println!(
                "{path}: OK (campaign snapshot, checksum verified, dedup observed, \
                 coverage monotone, shard scaling gated by available cores)"
            ),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                ok = false;
            }
        }
    }
    for path in &runs {
        match validate_run_checkpoint(path) {
            Ok(summary) => println!("{path}: OK ({summary})"),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                ok = false;
            }
        }
    }
    if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE }
}
