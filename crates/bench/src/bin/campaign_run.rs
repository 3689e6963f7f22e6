//! Sharded MAP-Elites campaign driver (DESIGN.md §15).
//!
//! One binary, three modes:
//!
//! * **parent** (default): spawns `--shards` worker processes of itself,
//!   coordinates the round barriers, respawns any shard that dies
//!   mid-campaign (crash-only supervision), and seals the final archive;
//! * **`--shard-worker I`**: runs shard `I`'s loop against the shared
//!   store and exits `137` when an injected `campaign.round` fault
//!   fires (the chaos suite's SIGKILL stand-in). A worker reads the spec
//!   the parent sealed in the store (`campaign.json`) and ignores spec
//!   flags, so the parent spawns it with
//!   `--store DIR --shard-worker I --threads N --quiet`;
//! * **`--inline`**: the whole campaign in-process — byte-identical
//!   artifacts to the process mode, handy for debugging.
//!
//! ```text
//! cargo run --release -p a2a-bench --bin campaign_run -- \
//!     --store /tmp/campaign [--grids s,t] [--m 8] [--k 4,6,8,10] \
//!     [--shards N] [--rounds N] [--batch N] [--t-max N] \
//!     [--configs N] [--seed N] [--threads N] \
//!     [--inline]
//! campaign_run --store /tmp/campaign --shard-worker I [--threads N] [--quiet]
//! ```

use a2a_bench::campaign::{parse_grids, parse_list, run_process_campaign, CampaignParams};
use a2a_bench::RunScale;
use a2a_run::campaign::{run_inline, run_shard_process, CampaignStore, ShardExit};
use std::path::PathBuf;
use std::process::ExitCode;

enum Mode {
    Parent,
    ShardWorker(usize),
    Inline,
}

fn fail(msg: impl AsRef<str>) -> ExitCode {
    eprintln!("campaign_run: {}", msg.as_ref());
    ExitCode::FAILURE
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut params = CampaignParams::default();
    let scale = RunScale::extract(&mut args, params.configs);
    params.configs = scale.configs;
    params.seed = scale.seed;

    let mut mode = Mode::Parent;
    let mut store: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next().ok_or_else(|| format!("missing value for {flag}"))
        };
        let result: Result<(), String> = match flag.as_str() {
            "--inline" => {
                mode = Mode::Inline;
                Ok(())
            }
            "--shard-worker" => value(&flag)
                .and_then(|v| v.parse().map_err(|_| format!("numeric --shard-worker, got `{v}`")))
                .map(|i| mode = Mode::ShardWorker(i)),
            "--store" => value(&flag).map(|v| store = Some(PathBuf::from(v))),
            "--grids" => value(&flag).and_then(|v| parse_grids(&v)).map(|g| params.grids = g),
            "--m" => value(&flag).and_then(|v| parse_list(&v, "--m")).map(|m| params.ms = m),
            "--k" => value(&flag).and_then(|v| parse_list(&v, "--k")).map(|k| params.ks = k),
            "--shards" => value(&flag)
                .and_then(|v| v.parse().map_err(|_| format!("numeric --shards, got `{v}`")))
                .map(|s: usize| params.shards = s.max(1)),
            "--rounds" => value(&flag)
                .and_then(|v| v.parse().map_err(|_| format!("numeric --rounds, got `{v}`")))
                .map(|r| params.rounds = r),
            "--batch" => value(&flag)
                .and_then(|v| v.parse().map_err(|_| format!("numeric --batch, got `{v}`")))
                .map(|b| params.batch = b),
            "--t-max" => value(&flag)
                .and_then(|v| v.parse().map_err(|_| format!("numeric --t-max, got `{v}`")))
                .map(|t| params.t_max = t),
            other => Err(format!(
                "unknown flag `{other}` (see the module docs at the top of campaign_run.rs)"
            )),
        };
        if let Err(e) = result {
            return fail(e);
        }
    }
    if params.grids.is_empty() || params.ms.is_empty() || params.ks.is_empty() {
        return fail("--grids/--m/--k must each name at least one value");
    }

    let _sink = scale.init_obs("campaign");
    a2a_obs::set_metrics(true);

    let spec = params.spec();
    match mode {
        Mode::ShardWorker(shard) => {
            let Some(root) = store else { return fail("--shard-worker needs --store DIR") };
            match run_shard_process(&CampaignStore::new(root), shard, scale.threads) {
                Ok(ShardExit::Done) => ExitCode::SUCCESS,
                Ok(ShardExit::Killed) => {
                    // Die like a SIGKILLed process: the round's delta is
                    // not durable and the supervisor must respawn us.
                    eprintln!("campaign_run: shard {shard} killed by injected fault");
                    std::process::exit(137);
                }
                Err(e) => fail(format!("shard {shard}: {e}")),
            }
        }
        Mode::Inline => {
            let Some(root) = store else { return fail("--inline needs --store DIR") };
            scale.outln(scale.banner("campaign (inline)"));
            match run_inline(&CampaignStore::new(&root), &spec, scale.threads) {
                Ok(outcome) => {
                    report(&scale, &outcome, spec.niches.len(), &CampaignStore::new(root), 0);
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e),
            }
        }
        Mode::Parent => {
            let Some(root) = store else { return fail("campaign parent needs --store DIR") };
            let exe = match std::env::current_exe() {
                Ok(p) => p,
                Err(e) => return fail(format!("cannot locate own binary: {e}")),
            };
            scale.outln(scale.banner(&format!("campaign ({} shard processes)", spec.shards)));
            let run = run_process_campaign(&exe, &spec, &root, scale.threads, |shard, code| {
                scale.progress(
                    "campaign.respawn",
                    format!("campaign: respawned shard {shard} (exit {code:?})"),
                );
            });
            match run {
                Ok(run) => {
                    let total = spec.niches.len();
                    report(&scale, &run.outcome, total, &CampaignStore::new(root), run.respawns);
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e),
            }
        }
    }
}

/// Renders the end-of-campaign report: counters, coverage and the
/// per-niche elite table.
fn report(
    scale: &RunScale,
    outcome: &a2a_run::campaign::CampaignOutcome,
    niches: usize,
    store: &CampaignStore,
    respawns: usize,
) {
    let c = outcome.counters;
    scale.outln(format!(
        "campaign done: {} evals, {} dedup hits, {} migrations, {} collisions, {} respawns",
        c.evals, c.dedup_hits, c.migrations, c.collisions, respawns
    ));
    scale.outln(format!(
        "archive: {} / {niches} niches covered, {} solved",
        outcome.archive.covered(),
        outcome.archive.solved()
    ));
    for (niche, elite) in outcome.archive.iter() {
        let t_comm = elite
            .report
            .mean_t_comm
            .map_or_else(|| "-".to_string(), |t| format!("{t:.1}"));
        scale.outln(format!(
            "  {niche:<12} fitness {:>10.3}  success {}/{}  mean t_comm {t_comm}",
            elite.report.fitness, elite.report.successes, elite.report.total
        ));
    }
    scale.outln(format!("final archive: {}", store.final_path().display()));
}
