//! E19 — information-diffusion profiles: the mean fraction of informed
//! agents as a function of time, T vs. S. The paper reports only the
//! completion time `t_comm`; the profile shows *how* the triangulate
//! grid's advantage accrues (earlier first meetings *and* a faster final
//! consolidation phase).

use a2a_fsm::best_agent;
use a2a_ga::WorkerPool;
use a2a_grid::GridKind;
use a2a_sim::{paper_config_set, run_with_profile, SimError, World, WorldConfig};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Mean informed-fraction curve of one grid kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiffusionProfile {
    /// Grid family.
    pub kind: GridKind,
    /// Agent count.
    pub agents: usize,
    /// `fraction[t]` = mean fraction of informed agents after step `t`
    /// (index 0 = right after placement). Runs that finish early
    /// contribute 1.0 to later indices.
    pub fraction: Vec<f64>,
    /// Configurations averaged.
    pub configs: usize,
}

impl DiffusionProfile {
    /// First step at which the mean informed fraction reaches `q`
    /// (e.g. 0.5 for the median-information time), if ever.
    #[must_use]
    pub fn time_to_fraction(&self, q: f64) -> Option<u32> {
        self.fraction.iter().position(|&f| f >= q).map(|t| t as u32)
    }
}

/// Averages informed-fraction curves for the published best agent of
/// `kind` over a seeded configuration set.
///
/// # Errors
///
/// Propagates configuration-set construction failures.
pub fn diffusion_profile(
    kind: GridKind,
    k: usize,
    n_random: usize,
    seed: u64,
    t_max: u32,
    threads: usize,
) -> Result<DiffusionProfile, SimError> {
    let cfg = WorldConfig::paper(kind, 16);
    let configs = Arc::new(paper_config_set(cfg.lattice, kind, k, n_random, seed)?);
    let genome = best_agent(kind);
    let profiles: Vec<Vec<usize>> = WorkerPool::new(threads).map(&configs, move |_, init| {
        let mut world = World::new(&cfg, genome.clone(), init)
            .expect("configuration sets match the environment");
        run_with_profile(&mut world, t_max).1
    });
    let horizon = profiles.iter().map(Vec::len).max().unwrap_or(1);
    let mut fraction = vec![0.0f64; horizon];
    for profile in &profiles {
        for (t, slot) in fraction.iter_mut().enumerate() {
            // Completed runs stay at their final (complete) count.
            let informed = *profile.get(t).unwrap_or_else(|| {
                profile.last().expect("profiles have at least one entry")
            });
            *slot += informed as f64 / k as f64;
        }
    }
    for slot in &mut fraction {
        *slot /= profiles.len() as f64;
    }
    Ok(DiffusionProfile { kind, agents: k, fraction, configs: profiles.len() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_monotone_and_t_dominates_s() {
        let t = diffusion_profile(GridKind::Triangulate, 16, 15, 3, 2000, 1).unwrap();
        let s = diffusion_profile(GridKind::Square, 16, 15, 3, 2000, 1).unwrap();
        for p in [&t, &s] {
            for w in p.fraction.windows(2) {
                assert!(w[1] >= w[0] - 1e-12, "{:?} not monotone", p.kind);
            }
            assert!((p.fraction.last().unwrap() - 1.0).abs() < 1e-9, "ends complete");
        }
        // The T curve reaches every threshold no later than S on average.
        for q in [0.5, 0.9, 1.0] {
            let tt = t.time_to_fraction(q).unwrap();
            let ts = s.time_to_fraction(q).unwrap();
            assert!(tt <= ts, "q={q}: T {tt} vs S {ts}");
        }
    }

    #[test]
    fn initial_fraction_reflects_placement_exchange() {
        let p = diffusion_profile(GridKind::Triangulate, 2, 10, 9, 2000, 1).unwrap();
        // With 2 sparse agents, very few placements are adjacent: the
        // initial informed fraction is far below 1.
        assert!(p.fraction[0] < 0.5, "{}", p.fraction[0]);
    }
}
