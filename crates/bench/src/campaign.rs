//! Process-mode driver for the campaign engine (`a2a_run::campaign`):
//! spawns N shard worker processes of the `campaign_run` binary against
//! one store and supervises them crash-only (a dead shard is respawned
//! and resumes from its durable deltas).

use a2a_grid::GridKind;
use a2a_run::campaign::{coordinate, CampaignOutcome, CampaignSpec, CampaignStore, NicheKey};
use std::path::Path;
use std::process::{Child, Command, Stdio};

/// How often a dead shard may be respawned before the campaign is
/// declared crash-looping.
const MAX_RESPAWNS_PER_SHARD: usize = 4;

/// Parsed niche-grid parameters of a campaign invocation.
#[derive(Debug, Clone)]
pub struct CampaignParams {
    /// Grid kinds (`--grids s,t`).
    pub grids: Vec<GridKind>,
    /// Field edge lengths (`--m 8`).
    pub ms: Vec<u16>,
    /// Agent counts (`--k 4,8`).
    pub ks: Vec<usize>,
    /// Worker shard processes (`--shards`).
    pub shards: usize,
    /// Synchronous rounds (`--rounds`).
    pub rounds: usize,
    /// Base candidate budget per niche per round (`--batch`).
    pub batch: usize,
    /// Seeded random configurations per niche (`--configs`).
    pub configs: usize,
    /// Simulation horizon (`--t-max`).
    pub t_max: u32,
    /// Campaign seed (`--seed`).
    pub seed: u64,
}

impl Default for CampaignParams {
    fn default() -> Self {
        Self {
            grids: vec![GridKind::Square, GridKind::Triangulate],
            ms: vec![8],
            ks: vec![4, 6, 8, 10],
            shards: 2,
            rounds: 3,
            batch: 4,
            configs: 6,
            t_max: 200,
            seed: 2013,
        }
    }
}

/// Parses a comma-separated grid list (`s`, `t`).
///
/// # Errors
///
/// An unknown grid letter.
pub fn parse_grids(arg: &str) -> Result<Vec<GridKind>, String> {
    arg.split(',')
        .map(|p| match p.trim() {
            "s" | "S" => Ok(GridKind::Square),
            "t" | "T" => Ok(GridKind::Triangulate),
            other => Err(format!("unknown grid `{other}` (use s,t)")),
        })
        .collect()
}

/// Parses a comma-separated numeric list.
///
/// # Errors
///
/// A non-numeric element.
pub fn parse_list<T: std::str::FromStr>(arg: &str, flag: &str) -> Result<Vec<T>, String> {
    arg.split(',')
        .map(|p| p.trim().parse().map_err(|_| format!("bad {flag} element `{p}`")))
        .collect()
}

impl CampaignParams {
    /// The campaign spec: the (grid, m, k) cross product in canonical
    /// order.
    #[must_use]
    pub fn spec(&self) -> CampaignSpec {
        let mut niches = Vec::new();
        for &kind in &self.grids {
            for &m in &self.ms {
                for &k in &self.ks {
                    niches.push(NicheKey { kind, m, k });
                }
            }
        }
        CampaignSpec {
            niches,
            shards: self.shards,
            rounds: self.rounds,
            batch: self.batch,
            configs: self.configs,
            t_max: self.t_max,
            seed: self.seed,
        }
    }
}

/// One supervised shard child.
#[derive(Debug)]
struct ShardChild {
    shard: usize,
    child: Option<Child>,
    respawns: usize,
    done: bool,
}

/// Outcome of a process-mode campaign run.
#[derive(Debug)]
pub struct ProcessCampaign {
    /// The merged outcome (identical to an inline run of the same spec).
    pub outcome: CampaignOutcome,
    /// Shard children respawned after dying mid-campaign.
    pub respawns: usize,
}

/// Spawns shard `shard` of the campaign sealed in `store`. The worker
/// reads its spec from the store, so its argv carries no spec flags.
fn spawn_shard(
    exe: &Path,
    store: &Path,
    threads: usize,
    shard: usize,
    clear_fault_env: bool,
) -> Result<Child, String> {
    let mut cmd = Command::new(exe);
    cmd.arg("--store")
        .arg(store)
        .args([
            "--shard-worker",
            &shard.to_string(),
            "--threads",
            &threads.to_string(),
            "--quiet",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    if clear_fault_env {
        // A respawned shard must not re-arm the fault plan that just
        // killed it — resume is the point of the respawn.
        cmd.env_remove("A2A_FAULT");
    }
    cmd.spawn().map_err(|e| format!("cannot spawn shard {shard}: {e}"))
}

/// Seals `spec` in the store at `store_root` and runs it with
/// `spec.shards` worker processes of `exe` (the `campaign_run` binary
/// itself, invoked in `--shard-worker` mode, which loads the sealed
/// spec), supervising them crash-only: a shard that exits before the
/// campaign is complete is respawned (with `A2A_FAULT` scrubbed) and
/// resumes from its durable deltas. `on_respawn` is called with the
/// shard index and exit code of every death.
///
/// # Errors
///
/// Spawn failures, a crash-looping shard, store I/O failures or a
/// wedged barrier.
pub fn run_process_campaign(
    exe: &Path,
    spec: &CampaignSpec,
    store_root: &Path,
    threads: usize,
    mut on_respawn: impl FnMut(usize, Option<i32>),
) -> Result<ProcessCampaign, String> {
    let store = CampaignStore::new(store_root);
    store.init(spec)?;
    let mut children: Vec<ShardChild> = (0..spec.shards)
        .map(|shard| {
            spawn_shard(exe, store_root, threads, shard, false).map(|child| ShardChild {
                shard,
                child: Some(child),
                respawns: 0,
                done: false,
            })
        })
        .collect::<Result<_, _>>()?;
    let mut respawns = 0usize;

    let outcome = coordinate(&store, spec, |_round| {
        for slot in &mut children {
            if slot.done {
                continue;
            }
            let Some(child) = slot.child.as_mut() else { continue };
            match child.try_wait() {
                Ok(None) => {}
                Ok(Some(status)) if status.success() => {
                    slot.done = true;
                    slot.child = None;
                }
                Ok(Some(status)) => {
                    // Mid-campaign death (SIGKILL, injected fault,
                    // panic): crash-only supervision respawns it and
                    // the durable deltas make the redo bit-identical.
                    slot.respawns += 1;
                    respawns += 1;
                    if slot.respawns > MAX_RESPAWNS_PER_SHARD {
                        return Err(format!(
                            "shard {} is crash-looping ({} respawns)",
                            slot.shard, slot.respawns
                        ));
                    }
                    on_respawn(slot.shard, status.code());
                    slot.child = Some(spawn_shard(exe, store_root, threads, slot.shard, true)?);
                }
                Err(e) => return Err(format!("cannot reap shard {}: {e}", slot.shard)),
            }
        }
        Ok(())
    });

    // Reap every child regardless of how coordination ended.
    for slot in &mut children {
        if let Some(mut child) = slot.child.take() {
            if outcome.is_err() {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
    }
    Ok(ProcessCampaign { outcome: outcome?, respawns })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_build_the_niche_cross_product_in_canonical_order() {
        let params = CampaignParams::default();
        let spec = params.spec();
        assert_eq!(spec.niches.len(), params.grids.len() * params.ms.len() * params.ks.len());
        assert_eq!(spec.niches[0], NicheKey { kind: GridKind::Square, m: 8, k: 4 });
    }

    #[test]
    fn grid_and_list_parsing() {
        assert_eq!(parse_grids("s,t").unwrap(), vec![GridKind::Square, GridKind::Triangulate]);
        assert!(parse_grids("s,x").is_err());
        assert_eq!(parse_list::<usize>("4, 8", "--k").unwrap(), vec![4, 8]);
        assert!(parse_list::<usize>("4,z", "--k").is_err());
    }
}
