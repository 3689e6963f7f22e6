//! Validates observability artifacts: an events JSONL stream (written
//! via `--json-out`) and/or an `a2a-run` checkpoint. Exits non-zero on
//! the first schema violation, so CI can gate on it.
//!
//! ```text
//! cargo run --release -p a2a-bench --bin obs_validate -- \
//!     [--events events.jsonl] [--run CHECKPOINT_DIR_OR_FILE]
//! ```
//!
//! Checkpoint documents are sealed; their embedded checksum is verified
//! before any field is trusted. A crashed run's events stream (a
//! `.partial` file) may end in one torn line — that is tolerated and
//! reported, while any other malformed line still fails.

use a2a_obs::schema::validate_events;
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
    let mut runs: Vec<String> = Vec::new();
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--events" | "--run" => {
                let Some(path) = it.next() else {
                    eprintln!("missing value for {flag}");
                    return ExitCode::FAILURE;
                };
                if flag == "--events" {
                    events.push(path);
                } else {
                    runs.push(path);
                }
            }
            other => {
                eprintln!("unknown flag `{other}` (use --events FILE / --run DIR)");
                return ExitCode::FAILURE;
            }
        }
    }
    if events.is_empty() && runs.is_empty() {
        eprintln!("nothing to validate: pass --events FILE and/or --run DIR");
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
