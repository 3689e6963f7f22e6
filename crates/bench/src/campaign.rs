//! Command-line parameters of the campaign engine (`a2a_run::campaign`):
//! the niche grid and spec flags of the `campaign_run` binary.

use a2a_grid::GridKind;
use a2a_run::campaign::{CampaignSpec, NicheKey};

/// Parsed niche-grid parameters of a campaign invocation.
#[derive(Debug, Clone)]
pub struct CampaignParams {
    /// Grid kinds (`--grids s,t`).
    pub grids: Vec<GridKind>,
    /// Field edge lengths (`--m 8`).
    pub ms: Vec<u16>,
    /// Agent counts (`--k 4,8`).
    pub ks: Vec<usize>,
    /// Shards, each with its own niche deal and RNG streams (`--shards`).
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
