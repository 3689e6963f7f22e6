//! E23 — field-size scaling: the T/S ratio across growing tori at fixed
//! agent density.
//!
//! The paper's explanation of the speed-up is the diameter ratio
//! `D^{T/S} ≈ 2/3` (Eq. 3), which is size-independent — so the measured
//! `t_comm` ratio should stay near 2/3 as the field grows. The paper
//! only probes 16×16 and one 33×33 point; this experiment sweeps sizes
//! at constant density (k ∝ N).

use crate::experiments::density::{run_density_comparison, DensityExperiment, DensityPoint};
use a2a_grid::{diameter, GridKind, Lattice};
use a2a_sim::SimError;
use serde::{Deserialize, Serialize};

/// One field size's T/S comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalePoint {
    /// Field extent `m` (field is `m × m`).
    pub m: u16,
    /// Number of agents (constant density).
    pub agents: usize,
    /// T-grid results.
    pub t: DensityPoint,
    /// S-grid results.
    pub s: DensityPoint,
    /// Diameter ratio `D_T / D_S` at this size (the Eq. 3 prediction).
    pub diameter_ratio: f64,
}

impl ScalePoint {
    /// Measured mean-time ratio `T/S`.
    #[must_use]
    pub fn time_ratio(&self) -> f64 {
        self.t.times.mean / self.s.times.mean
    }
}

/// Sweeps field extents at a fixed agent density (`density` = agents per
/// cell; the paper's 16 agents on 16×16 is `1/16`), one two-grid pass
/// (T then S) per extent.
///
/// # Errors
///
/// Propagates configuration-set construction failures.
///
/// # Panics
///
/// Panics if the density yields zero agents for some extent.
pub fn scaling_sweep(
    extents: &[u16],
    density: f64,
    n_random: usize,
    seed: u64,
    t_max: u32,
    threads: usize,
) -> Result<Vec<ScalePoint>, SimError> {
    let mut points = Vec::with_capacity(extents.len());
    for &m in extents {
        let cells = usize::from(m) * usize::from(m);
        let k = ((cells as f64 * density).round() as usize).max(1);
        let exp = DensityExperiment {
            m,
            agent_counts: vec![k],
            n_random,
            seed,
            t_max,
            threads,
        };
        let mut comparison = run_density_comparison(&exp)?;
        let t = comparison.t_grid.points.remove(0);
        let s = comparison.s_grid.points.remove(0);
        let lattice = Lattice::torus(m, m);
        points.push(ScalePoint {
            m,
            agents: k,
            t,
            s,
            diameter_ratio: f64::from(diameter(lattice, GridKind::Triangulate))
                / f64::from(diameter(lattice, GridKind::Square)),
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_stays_in_band_across_sizes() {
        let points = scaling_sweep(&[8, 16], 1.0 / 16.0, 10, 5, 5000, 2).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].agents, 4, "8x8 at density 1/16");
        assert_eq!(points[1].agents, 16);
        for p in &points {
            assert!(p.t.is_complete() && p.s.is_complete(), "m={}", p.m);
            let r = p.time_ratio();
            // Small fields + tiny samples vary widely; the binding
            // claims are completeness and the T < S ordering.
            assert!((0.2..1.0).contains(&r), "m={}: ratio {r}", p.m);
            assert!(p.t.times.mean < p.s.times.mean);
        }
        // Times grow with the field.
        assert!(points[1].t.times.mean > points[0].t.times.mean);
    }
}
