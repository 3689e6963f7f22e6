//! Campaign chaos: kill the campaign process at the start of every
//! round with an injected `campaign.round` fault, rerun it without the
//! fault, and require the final sealed archive and summary to be
//! **byte-identical** to an uninterrupted control campaign — the
//! crash-only contract of DESIGN.md §15, proven over real OS processes
//! rather than in-process simulated kills.
//!
//! Needs `--features fault-inject` (the site compiles to a no-op
//! otherwise), so the whole file is gated on the feature.

#![cfg(feature = "fault-inject")]

use a2a_obs::fault::FaultPlan;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_campaign_run");
const SITE: &str = "campaign.round";
const ROUNDS: usize = 3;
const ARTIFACTS: [&str; 2] = ["archive-final.json", "campaign-summary.json"];

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
        "--rounds", &ROUNDS.to_string(),
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

/// Runs the campaign on `store`, with `fault` as the whole `A2A_FAULT`
/// plan (or none).
fn campaign(store: &Path, fault: Option<&str>) -> Output {
    let mut cmd = Command::new(EXE);
    cmd.args(campaign_args(store));
    match fault {
        Some(plan) => cmd.env("A2A_FAULT", plan),
        None => cmd.env_remove("A2A_FAULT"),
    };
    cmd.output().expect("spawn campaign_run")
}

fn artifacts(store: &Path) -> Vec<Vec<u8>> {
    ARTIFACTS
        .iter()
        .map(|name| std::fs::read(store.join(name)).unwrap_or_else(|e| panic!("{name}: {e}")))
        .collect()
}

/// The round-1 plan of the kill loop: spare the first `campaign.round`
/// probe (round 0 commits its barrier) and kill at the second.
const PLAN: &str = "campaign.round@1";

#[test]
fn killed_at_every_round_the_rerun_is_byte_identical() {
    let control_store = scratch("control");
    let control = campaign(&control_store, None);
    assert!(
        control.status.success(),
        "control campaign failed: {}",
        String::from_utf8_lossy(&control.stderr)
    );
    let control = artifacts(&control_store);

    for round in 0..ROUNDS {
        // Occurrence n of the probe is the start of round n on a fresh
        // store, after round n-1's barrier is durable.
        let store = scratch(&format!("killed_r{round}"));
        let killed = campaign(&store, Some(&format!("{SITE}@{round}")));
        let stderr = String::from_utf8_lossy(&killed.stderr);
        assert_eq!(killed.status.code(), Some(137), "round {round}: not killed:\n{stderr}");
        assert!(
            stderr.lines().any(|l| l.contains("killed by injected fault") && l.contains(SITE)),
            "round {round}: no stderr line names the injected fault:\n{stderr}"
        );
        assert!(
            !store.join(ARTIFACTS[0]).exists(),
            "round {round}: a killed campaign sealed its final archive"
        );

        let rerun = campaign(&store, None);
        assert!(
            rerun.status.success(),
            "round {round}: rerun did not recover: {}",
            String::from_utf8_lossy(&rerun.stderr)
        );
        // The headline property: recovery is indistinguishable from an
        // uninterrupted run, byte for byte.
        assert!(
            artifacts(&store) == control,
            "round {round}: rerun artifacts diverged from the uninterrupted control"
        );
        let _ = std::fs::remove_dir_all(&store);
    }
    let _ = std::fs::remove_dir_all(&control_store);
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
