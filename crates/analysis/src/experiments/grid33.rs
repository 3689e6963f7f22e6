//! E9 — the 33×33 scaling comparison of Sect. 5: the best 16×16-evolved
//! agents tested on 1003 random 33×33 fields with 16 agents
//! (paper: S-agent 229 steps, T-agent 181 steps, both reliable).

use crate::experiments::density::{run_density_comparison, DensityExperiment, GridSeries};
use a2a_sim::SimError;
use serde::{Deserialize, Serialize};

/// Paper values for the 33×33 / 16-agent comparison.
pub const PAPER_GRID33_S: f64 = 229.0;
/// Paper value for the T-agent on 33×33.
pub const PAPER_GRID33_T: f64 = 181.0;

/// Result of the 33×33 comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid33Result {
    /// T-grid series (single point, `k = 16`).
    pub t_grid: GridSeries,
    /// S-grid series (single point, `k = 16`).
    pub s_grid: GridSeries,
}

impl Grid33Result {
    /// Mean T-agent time.
    #[must_use]
    pub fn t_mean(&self) -> f64 {
        self.t_grid.points[0].times.mean
    }

    /// Mean S-agent time.
    #[must_use]
    pub fn s_mean(&self) -> f64 {
        self.s_grid.points[0].times.mean
    }

    /// Whether both agents solved every configuration (the paper reports
    /// "the agents were reliable").
    #[must_use]
    pub fn both_reliable(&self) -> bool {
        self.t_grid.points[0].is_complete() && self.s_grid.points[0].is_complete()
    }
}

/// Runs the 33×33 comparison with `n_random` random configurations
/// (paper: 1003) as one two-grid pass, T then S.
///
/// # Errors
///
/// Propagates configuration-set construction failures.
pub fn run_grid33(n_random: usize, seed: u64, threads: usize) -> Result<Grid33Result, SimError> {
    let exp = DensityExperiment {
        m: 33,
        agent_counts: vec![16],
        n_random,
        seed,
        t_max: 20_000,
        threads,
    };
    let comparison = run_density_comparison(&exp)?;
    Ok(Grid33Result { t_grid: comparison.t_grid, s_grid: comparison.s_grid })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_grid33_run_preserves_ordering() {
        let r = run_grid33(8, 17, 2).unwrap();
        assert!(r.both_reliable(), "{r:?}");
        assert!(
            r.t_mean() < r.s_mean(),
            "T must stay faster when scaled up: T={} S={}",
            r.t_mean(),
            r.s_mean()
        );
        // Times grow well beyond the 16×16 values (paper: 181 / 229).
        assert!(r.t_mean() > 60.0);
    }
}
