//! E15 — the environments the paper's conclusion lists as future work:
//! bordered fields ("environments with border are easier") and obstacle
//! fields, exercised with the published best agents.

use crate::experiments::density::{paper_sets, run_pass, DensityExperiment, GridSeries};
use a2a_fsm::best_agent;
use a2a_grid::{GridKind, Lattice, Pos};
use a2a_sim::{InitialConfig, SimError, WorldConfig};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Torus vs. bordered field, same behaviour and densities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BorderComparison {
    /// Which grid family.
    pub kind: GridKind,
    /// Series on the paper's torus.
    pub torus: GridSeries,
    /// Series on the bordered field.
    pub bordered: GridSeries,
}

/// Runs the border extension for one grid kind.
///
/// Note the published agents were evolved *for the torus*; the comparison
/// shows whether they exploit borders as meeting lines as the paper's
/// earlier S-grid work suggests, or lose performance out of distribution.
///
/// # Errors
///
/// Propagates configuration-set construction failures.
pub fn border_comparison(
    kind: GridKind,
    exp: &DensityExperiment,
) -> Result<BorderComparison, SimError> {
    let genome = best_agent(kind);
    let torus_cfg = WorldConfig::paper(kind, exp.m);
    let bordered_cfg = WorldConfig {
        lattice: Lattice::bordered(exp.m, exp.m),
        ..WorldConfig::paper(kind, exp.m)
    };
    let grids = [(torus_cfg, genome.clone()), (bordered_cfg, genome)];
    let [torus, bordered]: [GridSeries; 2] =
        run_pass(&grids, exp, paper_sets(exp))?.try_into().expect("one series per grid");
    Ok(BorderComparison { kind, torus, bordered })
}

/// Obstacle density sweep: `n_obstacles` random obstacle cells (seeded),
/// same densities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObstacleReport {
    /// Number of obstacle cells.
    pub obstacles: usize,
    /// Series in the obstacle field.
    pub series: GridSeries,
}

/// Runs the obstacle extension for one grid kind over several obstacle
/// counts.
///
/// # Errors
///
/// Propagates configuration-set construction failures.
pub fn obstacle_sweep(
    kind: GridKind,
    obstacle_counts: &[usize],
    exp: &DensityExperiment,
    obstacle_seed: u64,
) -> Result<Vec<ObstacleReport>, SimError> {
    let genome = best_agent(kind);
    let lattice = Lattice::torus(exp.m, exp.m);
    let grids: Vec<(WorldConfig, a2a_fsm::Genome)> = obstacle_counts
        .iter()
        .map(|&n_obs| {
            let mut rng = SmallRng::seed_from_u64(obstacle_seed ^ n_obs as u64);
            let mut cells: Vec<usize> = (0..lattice.len()).collect();
            for i in 0..n_obs.min(cells.len()) {
                let j = rng.random_range(i..cells.len());
                cells.swap(i, j);
            }
            let obstacles: Vec<Pos> = cells[..n_obs.min(cells.len())]
                .iter()
                .map(|&c| lattice.pos_at(c))
                .collect();
            (WorldConfig { obstacles, ..WorldConfig::paper(kind, exp.m) }, genome.clone())
        })
        .collect();
    // Keep agents off the obstacle cells: the shared config-set
    // generator does not know about them, so build sets that do.
    let series = run_pass(&grids, exp, |cfg: &WorldConfig, k| {
        let mut rng = SmallRng::seed_from_u64(exp.seed ^ (k as u64) << 1);
        (0..exp.n_random)
            .map(|_| InitialConfig::random(cfg.lattice, cfg.kind, k, &cfg.obstacles, &mut rng))
            .collect()
    })?;
    Ok(obstacle_counts
        .iter()
        .zip(series)
        .map(|(&obstacles, series)| ObstacleReport { obstacles, series })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DensityExperiment {
        DensityExperiment {
            m: 16,
            agent_counts: vec![8],
            n_random: 8,
            seed: 23,
            t_max: 4000,
            threads: 2,
        }
    }

    #[test]
    fn border_comparison_runs_both_environments() {
        let cmp = border_comparison(GridKind::Square, &tiny()).unwrap();
        assert!(cmp.torus.points[0].is_complete());
        // Bordered environments may or may not be solved by
        // torus-evolved agents; just require the runs happened
        // (8 random + 3 manual configurations).
        assert_eq!(cmp.bordered.points[0].total, 11);
    }

    #[test]
    fn obstacle_sweep_reports_each_count() {
        let reports = obstacle_sweep(GridKind::Triangulate, &[0, 8], &tiny(), 99).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].obstacles, 0);
        // The zero-obstacle case must be solvable.
        assert!(reports[0].series.points[0].successes > 0);
    }
}
