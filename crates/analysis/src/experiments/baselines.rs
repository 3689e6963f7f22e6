//! E16 — baseline comparison: the published evolved agents against
//! hand-coded reference behaviours and against the diffusion lower
//! bound. Quantifies the paper's premise that good agent behaviour is
//! hard to hand-design (and how close evolution gets to optimal).

use crate::bounds::diffusion_lower_bound;
use crate::experiments::ablation::Variant;
use crate::experiments::density::{run_series_in, DensityExperiment};
use crate::stats::Summary;
use a2a_fsm::{all_baselines, best_agent};
use a2a_ga::WorkerPool;
use a2a_grid::GridKind;
use a2a_sim::{paper_config_set, BatchRunner, SimError, WorldConfig};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Runs the published best agent plus every hand-coded baseline over the
/// experiment's densities.
///
/// # Errors
///
/// Propagates configuration-set construction failures.
pub fn baseline_comparison(
    kind: GridKind,
    exp: &DensityExperiment,
) -> Result<Vec<Variant>, SimError> {
    let cfg = WorldConfig::paper(kind, exp.m);
    let mut variants = vec![Variant {
        label: format!("{} evolved (paper)", kind.label()),
        series: run_series_in(&cfg, &best_agent(kind), exp)?,
    }];
    for (label, genome) in all_baselines(kind) {
        variants.push(Variant {
            label: format!("{} {label}", kind.label()),
            series: run_series_in(&cfg, &genome, exp)?,
        });
    }
    Ok(variants)
}

/// Measured-vs-bound report for one grid and agent count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundReport {
    /// Grid family.
    pub kind: GridKind,
    /// Agent count.
    pub agents: usize,
    /// Summary of the per-configuration diffusion lower bounds.
    pub bound: Summary,
    /// Summary of the measured times (successful configurations).
    pub measured: Summary,
    /// Mean of the per-configuration `measured / max(bound, 1)` ratios
    /// (how far from the movement-optimal diffusion the agents are).
    pub mean_slowdown: f64,
    /// Solved / total configurations.
    pub successes: usize,
    /// Total configurations.
    pub total: usize,
}

/// Compares the published best agent against the per-configuration
/// diffusion lower bound at one density.
///
/// # Errors
///
/// Propagates configuration-set construction failures.
pub fn bound_comparison(
    kind: GridKind,
    k: usize,
    n_random: usize,
    seed: u64,
    t_max: u32,
    threads: usize,
) -> Result<BoundReport, SimError> {
    let cfg = WorldConfig::paper(kind, 16);
    let configs = Arc::new(paper_config_set(cfg.lattice, kind, k, n_random, seed)?);
    let runner = BatchRunner::from_genome(&cfg, best_agent(kind), t_max)?;
    let outcomes = WorkerPool::new(threads).run_all(&runner, &configs)?;
    let bounds: Vec<u32> = configs
        .iter()
        .map(|init| diffusion_lower_bound(cfg.lattice, kind, init))
        .collect();
    let times: Vec<u32> = outcomes.iter().filter_map(|o| o.t_comm).collect();
    let slowdowns: Vec<f64> = bounds
        .iter()
        .zip(&outcomes)
        .filter_map(|(&b, o)| o.t_comm.map(|t| f64::from(t) / f64::from(b.max(1))))
        .collect();
    Ok(BoundReport {
        kind,
        agents: k,
        bound: Summary::of_u32(&bounds).expect("non-empty configuration set"),
        measured: Summary::of_u32(&times).unwrap_or(Summary::NAN),
        mean_slowdown: slowdowns.iter().sum::<f64>() / slowdowns.len().max(1) as f64,
        successes: times.len(),
        total: outcomes.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DensityExperiment {
        DensityExperiment {
            m: 16,
            agent_counts: vec![8],
            n_random: 10,
            seed: 13,
            t_max: 1500,
            threads: 1,
        }
    }

    #[test]
    fn evolved_beats_every_baseline() {
        let variants = baseline_comparison(GridKind::Triangulate, &tiny()).unwrap();
        assert_eq!(variants.len(), 5);
        let evolved = &variants[0].series.points[0];
        assert!(evolved.is_complete());
        for v in &variants[1..] {
            let p = &v.series.points[0];
            let worse = p.successes < p.total
                || (p.successes > 0 && p.times.mean > evolved.times.mean);
            assert!(worse, "{} unexpectedly matches the evolved agent: {p:?}", v.label);
        }
    }

    #[test]
    fn ballistic_agents_fail_somewhere() {
        // Parallel orbits never meet: the canonical unreliable behaviour.
        let variants = baseline_comparison(GridKind::Square, &tiny()).unwrap();
        let ballistic = variants
            .iter()
            .find(|v| v.label.contains("ballistic"))
            .expect("baseline present");
        let p = &ballistic.series.points[0];
        assert!(p.successes < p.total, "{p:?}");
    }

    #[test]
    fn bound_report_is_consistent() {
        let r = bound_comparison(GridKind::Triangulate, 8, 12, 3, 1500, 1).unwrap();
        assert_eq!(r.total, 12 + 3); // manual configs fit at k = 8
        assert_eq!(r.successes, r.total, "published T-agent is reliable");
        assert!(r.mean_slowdown >= 1.0, "can't beat a lower bound");
        assert!(r.measured.mean > r.bound.mean);
    }
}
