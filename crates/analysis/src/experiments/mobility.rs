//! E21 — mobility analysis: the fraction of steps agents actually move,
//! per density. Explains the Table 1 maximum at `k = 4`: two agents are
//! fully mobile but rarely meet; many agents meet instantly but block
//! each other; four agents combine long searches with little help from
//! crowding — the worst of both regimes.

use crate::stats::Summary;
use a2a_fsm::best_agent;
use a2a_ga::WorkerPool;
use a2a_grid::GridKind;
use a2a_sim::{paper_config_set, record_trajectory, SimError, World, WorldConfig};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Mobility statistics of one grid kind at one density.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MobilityPoint {
    /// Grid family.
    pub kind: GridKind,
    /// Agent count.
    pub agents: usize,
    /// Summary of per-run mobility (fraction of steps spent moving).
    pub mobility: Summary,
    /// Summary of per-run communication times (successful runs).
    pub times: Summary,
}

/// Measures mobility for the published best agent of `kind` across
/// densities.
///
/// # Errors
///
/// Propagates configuration-set construction failures.
pub fn mobility_sweep(
    kind: GridKind,
    agent_counts: &[usize],
    n_random: usize,
    seed: u64,
    t_max: u32,
    threads: usize,
) -> Result<Vec<MobilityPoint>, SimError> {
    let cfg = WorldConfig::paper(kind, 16);
    let genome = best_agent(kind);
    let pool = WorkerPool::new(threads);
    let mut points = Vec::with_capacity(agent_counts.len());
    for &k in agent_counts {
        let configs = Arc::new(paper_config_set(cfg.lattice, kind, k, n_random, seed)?);
        let (cfg, genome) = (cfg.clone(), genome.clone());
        let rows = pool.map(&configs, move |_, init| {
            let mut world = World::new(&cfg, genome.clone(), init)
                .expect("configuration sets match the environment");
            let (outcome, traj) = record_trajectory(&mut world, t_max);
            (traj.mobility(), outcome.t_comm)
        });
        let mobilities: Vec<f64> = rows.iter().map(|&(m, _)| m).collect();
        let times: Vec<u32> = rows.iter().filter_map(|&(_, t)| t).collect();
        points.push(MobilityPoint {
            kind,
            agents: k,
            mobility: Summary::of(&mobilities).expect("non-empty set"),
            times: Summary::of_u32(&times).unwrap_or(Summary::NAN),
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mobility_decreases_with_density() {
        let points =
            mobility_sweep(GridKind::Triangulate, &[2, 32, 256], 8, 3, 2000, 1).unwrap();
        assert_eq!(points.len(), 3);
        assert!(
            points[0].mobility.mean > points[1].mobility.mean,
            "sparse agents move more: {points:?}"
        );
        assert_eq!(points[2].mobility.mean, 0.0, "fully packed cannot move");
    }
}
