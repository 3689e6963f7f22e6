//! Campaign chaos: kill every shard-worker process mid-campaign with an
//! injected `campaign.round` fault, let the supervisor respawn them
//! (with the fault plan scrubbed from the respawn environment), and
//! require the final sealed archive to be **byte-identical** to an
//! uninterrupted control campaign — the crash-only contract of
//! DESIGN.md §15, proven over real OS processes rather than in-process
//! simulated kills.
//!
//! Needs `--features fault-inject` (the site compiles to a no-op
//! otherwise), so the whole file is gated on the feature.

#![cfg(feature = "fault-inject")]

use a2a_obs::fault::FaultPlan;
use std::path::{Path, PathBuf};
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_campaign_run");
const SITE: &str = "campaign.round";

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("a2a_campaign_chaos_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fast 2-shard campaign: 2 niches, 3 rounds, tiny step budget.
fn campaign_args(store: &Path) -> Vec<String> {
    [
        "--store", &store.display().to_string(),
        "--grids", "t",
        "--m", "8",
        "--k", "2,3",
        "--shards", "2",
        "--rounds", "3",
        "--batch", "2",
        "--t-max", "150",
        "--configs", "2",
        "--seed", "9",
        "--threads", "1",
    ]
    .iter()
    .map(ToString::to_string)
    .collect()
}

/// The fault plan every shard child inherits: spare the first
/// `campaign.round` probe (round 0 must land its deltas) and kill at the
/// second (round 1).
const PLAN: &str = "campaign.round@1";

#[test]
fn killed_shards_respawn_and_the_archive_is_byte_identical() {
    let control_store = scratch("control");
    let faulted_store = scratch("faulted");

    // Control: no faults anywhere in the process tree.
    let control = Command::new(EXE)
        .args(campaign_args(&control_store))
        .env_remove("A2A_FAULT")
        .output()
        .expect("spawn control campaign");
    assert!(
        control.status.success(),
        "control campaign failed: {}",
        String::from_utf8_lossy(&control.stderr)
    );

    // Faulted: every shard child inherits the plan and dies (exit 137)
    // at its round-1 probe — after the round-0 barrier committed, so
    // the kill lands mid-campaign, not before any work.
    let faulted = Command::new(EXE)
        .args(campaign_args(&faulted_store))
        .env("A2A_FAULT", PLAN)
        .output()
        .expect("spawn faulted campaign");
    let stdout = String::from_utf8_lossy(&faulted.stdout);
    let stderr = String::from_utf8_lossy(&faulted.stderr);
    assert!(
        faulted.status.success(),
        "faulted campaign did not recover:\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("respawned shard"),
        "supervisor never reported a respawn (did the fault fire?):\n{stdout}\n{stderr}"
    );
    assert!(
        stderr.contains("killed by injected fault"),
        "no shard reported dying to the injected fault:\n{stderr}"
    );

    // The headline property: recovery is indistinguishable from an
    // uninterrupted run, byte for byte.
    let control_archive =
        std::fs::read(control_store.join("archive-final.json")).expect("control archive");
    let faulted_archive =
        std::fs::read(faulted_store.join("archive-final.json")).expect("faulted archive");
    assert_eq!(
        control_archive, faulted_archive,
        "resumed campaign archive diverged from the uninterrupted control"
    );

    let _ = std::fs::remove_dir_all(&control_store);
    let _ = std::fs::remove_dir_all(&faulted_store);
}

#[test]
fn fault_grammar_round_trips_the_campaign_site() {
    // The kill test arms via A2A_FAULT; keep its grammar honest for the
    // campaign site the same way the run-crate chaos suite does: the
    // plan spares round 0 and kills round 1 only.
    let plan = FaultPlan::parse(PLAN);
    assert_eq!(plan.rules.len(), 1);
    assert_eq!(plan.rules[0].site, SITE);
    assert!((0..16).filter(|&i| plan.fires(SITE, i)).eq([1]));
}
