//! Sharded MAP-Elites campaign driver (DESIGN.md §15).
//!
//! Runs the whole campaign in this process against the store at
//! `--store`: each round the `--shards` shards take turns on one
//! evaluator bank of `--threads` workers, their deltas are merged and
//! the round's barrier is committed; the final archive and summary are
//! sealed at the end. Rerunning a killed campaign with the same flags
//! resumes it from its durable artifacts and writes byte-identical
//! ones. In a `fault-inject` build an `A2A_FAULT` kill at the
//! `campaign.round` site exits `137`, like a SIGKILLed process.
//!
//! ```text
//! cargo run --release -p a2a-bench --bin campaign_run -- \
//!     --store /tmp/campaign [--grids s,t] [--m 8] [--k 4,6,8,10] \
//!     [--shards N] [--rounds N] [--batch N] [--t-max N] \
//!     [--configs N] [--seed N] [--threads N]
//! ```

use a2a_bench::campaign::{parse_grids, parse_list, CampaignParams};
use a2a_bench::RunScale;
use a2a_run::campaign::{run_campaign, CampaignStore, CAMPAIGN_ROUND_SITE};
use std::path::PathBuf;
use std::process::ExitCode;

fn fail(msg: impl AsRef<str>) -> ExitCode {
    eprintln!("campaign_run: {}", msg.as_ref());
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut params = CampaignParams::default();
    let scale = RunScale::extract(&mut args, params.configs);
    params.configs = scale.configs;
    params.seed = scale.seed;

    let mut store: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next().ok_or_else(|| format!("missing value for {flag}"))
        };
        let result: Result<(), String> = match flag.as_str() {
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
    let Some(root) = store else { return fail("a campaign needs --store DIR") };

    let _sink = scale.init_obs("campaign");
    a2a_obs::set_metrics(true);

    let spec = params.spec();
    let store = CampaignStore::new(root);
    scale.outln(scale.banner(&format!("campaign ({} shards)", spec.shards)));
    match run_campaign(&store, &spec, scale.threads) {
        Ok(Some(outcome)) => {
            report(&scale, &outcome, spec.niches.len(), &store);
            ExitCode::SUCCESS
        }
        Ok(None) => {
            // Die like a SIGKILLed process: the committed rounds are
            // durable and a rerun with the same flags resumes them.
            eprintln!("campaign_run: killed by injected fault at {CAMPAIGN_ROUND_SITE}");
            std::process::exit(137);
        }
        Err(e) => fail(e),
    }
}

/// Renders the end-of-campaign report: counters, coverage and the
/// per-niche elite table.
fn report(
    scale: &RunScale,
    outcome: &a2a_run::campaign::CampaignOutcome,
    niches: usize,
    store: &CampaignStore,
) {
    let c = outcome.counters;
    scale.outln(format!(
        "campaign done: {} evals, {} dedup hits, {} migrations",
        c.evals, c.dedup_hits, c.migrations
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
