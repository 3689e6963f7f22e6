//! E12–E14 — ablations of the paper's design choices:
//!
//! * **colours** (E12): suppressing colour writes isolates the indirect
//!   "pheromone" communication the paper credits with large speed-ups;
//! * **initial control states** (E13): the paper's reliability mechanism
//!   (`ID mod 2`) versus uniform starts, on the adversarial manual
//!   configurations;
//! * **conflict priority and turn set** (E14): lowest- vs. highest-ID
//!   arbitration, and the restricted T turn set vs. a naive full-set
//!   reinterpretation.

use crate::experiments::density::{run_series_in, DensityExperiment, GridSeries};
use crate::transform::{remap_to_full_turns, reinterpret_turns_naive, suppress_colors};
use a2a_fsm::{best_agent, Genome};
use a2a_ga::WorkerPool;
use a2a_grid::GridKind;
use a2a_sim::{BatchRunner, ConflictPolicy, InitStatePolicy, InitialConfig, SimError, WorldConfig};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A labelled variant outcome within an ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Variant {
    /// Human-readable variant name.
    pub label: String,
    /// Series over the experiment's densities.
    pub series: GridSeries,
}

/// E12: the paper's best agents with and without colour writes.
///
/// # Errors
///
/// Propagates configuration-set construction failures.
pub fn colors_ablation(exp: &DensityExperiment) -> Result<Vec<Variant>, SimError> {
    let mut variants = Vec::new();
    for kind in [GridKind::Triangulate, GridKind::Square] {
        let cfg = WorldConfig::paper(kind, exp.m);
        let genome = best_agent(kind);
        variants.push(Variant {
            label: format!("{} with colors", kind.label()),
            series: run_series_in(&cfg, &genome, exp)?,
        });
        variants.push(Variant {
            label: format!("{} colors suppressed", kind.label()),
            series: run_series_in(&cfg, &suppress_colors(&genome), exp)?,
        });
    }
    Ok(variants)
}

/// Paired colour comparison at one density: restricted to configurations
/// *both* variants solve, removing the survivor bias that makes the
/// colourless means in [`colors_ablation`] look deceptively low (the
/// colourless agent only solves the easy fields).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairedColors {
    /// Grid family.
    pub kind: GridKind,
    /// Agent count.
    pub agents: usize,
    /// Configurations solved by both variants.
    pub both_solved: usize,
    /// Total configurations.
    pub total: usize,
    /// Mean time of the coloured agent on the common set.
    pub mean_with: f64,
    /// Mean time of the colour-suppressed agent on the common set.
    pub mean_without: f64,
}

impl PairedColors {
    /// Colour speed-up factor on the common set (`without / with`).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.mean_without / self.mean_with
    }
}

/// E12 (paired): per-configuration comparison of the published agent with
/// and without colour writes, on the same configuration stream.
///
/// # Errors
///
/// Propagates configuration-set construction failures.
pub fn colors_paired(
    kind: GridKind,
    k: usize,
    n_random: usize,
    seed: u64,
    t_max: u32,
    threads: usize,
) -> Result<PairedColors, SimError> {
    let cfg = WorldConfig::paper(kind, 16);
    let configs = Arc::new(a2a_sim::paper_config_set(cfg.lattice, kind, k, n_random, seed)?);
    let with = best_agent(kind);
    let without = suppress_colors(&with);
    let pool = WorkerPool::new(threads);
    let run = |genome: Genome| -> Result<_, SimError> {
        pool.run_all(&BatchRunner::from_genome(&cfg, genome, t_max)?, &configs)
    };
    let (a, b) = (run(with)?, run(without)?);
    let common: Vec<(u32, u32)> = a
        .iter()
        .zip(&b)
        .filter_map(|(a, b)| Some((a.t_comm?, b.t_comm?)))
        .collect();
    let n = common.len().max(1) as f64;
    Ok(PairedColors {
        kind,
        agents: k,
        both_solved: common.len(),
        total: configs.len(),
        mean_with: common.iter().map(|&(a, _)| f64::from(a)).sum::<f64>() / n,
        mean_without: common.iter().map(|&(_, b)| f64::from(b)).sum::<f64>() / n,
    })
}

/// Success statistics of one initial-state policy on one configuration
/// class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyOutcome {
    /// Which policy.
    pub policy: String,
    /// Successes on the three manual (adversarial) configurations.
    pub manual_successes: usize,
    /// Manual configurations available.
    pub manual_total: usize,
    /// Successes on the random configurations.
    pub random_successes: usize,
    /// Random configurations evaluated.
    pub random_total: usize,
}

/// E13: initial-state policies on adversarial vs. random configurations.
///
/// The paper: "we could not find uniform reliable agents when all FSMs
/// started in control state 0 or 3 … we were able to find reliable
/// agents when we started some of the agents in state 0 and the others in
/// state 1."
///
/// # Errors
///
/// Propagates configuration-set construction failures.
pub fn init_state_ablation(
    kind: GridKind,
    k: usize,
    n_random: usize,
    seed: u64,
    t_max: u32,
    threads: usize,
) -> Result<Vec<PolicyOutcome>, SimError> {
    let genome = best_agent(kind);
    let base = WorldConfig::paper(kind, 16);
    let manual: Vec<InitialConfig> = [
        InitialConfig::queue_east(base.lattice, k),
        InitialConfig::queue_west(base.lattice, kind, k),
        InitialConfig::diagonal_spaced(base.lattice, kind, k),
    ]
    .into_iter()
    .flatten()
    .collect();
    let mut random = a2a_sim::paper_config_set(base.lattice, kind, k, n_random, seed)?;
    random.truncate(n_random);
    let (manual, random) = (Arc::new(manual), Arc::new(random));

    let policies = [
        ("ID mod 2 (paper)".to_string(), InitStatePolicy::IdParity),
        ("uniform state 0".to_string(), InitStatePolicy::Uniform(0)),
        ("uniform state 3".to_string(), InitStatePolicy::Uniform(3)),
    ];
    let pool = WorkerPool::new(threads);
    let mut outcomes = Vec::new();
    for (label, policy) in policies {
        let cfg = WorldConfig { init_states: policy, ..base.clone() };
        let runner = BatchRunner::from_genome(&cfg, genome.clone(), t_max)?;
        let count = |set: &Arc<Vec<InitialConfig>>| -> Result<usize, SimError> {
            Ok(pool.run_all(&runner, set)?.iter().filter(|o| o.is_successful()).count())
        };
        outcomes.push(PolicyOutcome {
            policy: label,
            manual_successes: count(&manual)?,
            manual_total: manual.len(),
            random_successes: count(&random)?,
            random_total: random.len(),
        });
    }
    Ok(outcomes)
}

/// E14a: conflict-arbitration priority (lowest vs. highest ID).
///
/// # Errors
///
/// Propagates configuration-set construction failures.
pub fn conflict_ablation(kind: GridKind, exp: &DensityExperiment) -> Result<Vec<Variant>, SimError> {
    let genome = best_agent(kind);
    let mut variants = Vec::new();
    for (label, policy) in [
        ("lowest ID wins (paper)", ConflictPolicy::LowestId),
        ("highest ID wins", ConflictPolicy::HighestId),
    ] {
        let cfg = WorldConfig { conflict: policy, ..WorldConfig::paper(kind, exp.m) };
        variants.push(Variant {
            label: format!("{} {label}", kind.label()),
            series: run_series_in(&cfg, &genome, exp)?,
        });
    }
    Ok(variants)
}

/// E14b: the restricted T turn set. Compares the evolved T-agent, its
/// behaviour-preserving re-expression over the full turn set (sanity: must
/// be identical) and the naive reinterpretation (codes keep their numeric
/// deltas), which perturbs every 180°/−60° turn.
///
/// # Errors
///
/// Propagates configuration-set construction failures.
pub fn turn_set_ablation(exp: &DensityExperiment) -> Result<Vec<Variant>, SimError> {
    let cfg = WorldConfig::paper(GridKind::Triangulate, exp.m);
    let genome = best_agent(GridKind::Triangulate);
    let variants = [
        ("restricted turns (paper)".to_string(), genome.clone()),
        ("full-set remap (equivalent)".to_string(), remap_to_full_turns(&genome)),
        ("naive reinterpretation".to_string(), reinterpret_turns_naive(&genome)),
    ];
    variants
        .into_iter()
        .map(|(label, g)| {
            Ok(Variant { label, series: run_series_in(&cfg, &g, exp)? })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DensityExperiment {
        DensityExperiment {
            m: 16,
            agent_counts: vec![8],
            n_random: 10,
            seed: 31,
            t_max: 3000,
            threads: 2,
        }
    }

    #[test]
    fn colors_help_substantially() {
        let variants = colors_ablation(&tiny()).unwrap();
        assert_eq!(variants.len(), 4);
        // With/without pairs per grid: colourless is slower (or fails).
        for pair in variants.chunks(2) {
            let with = &pair[0].series.points[0];
            let without = &pair[1].series.points[0];
            let with_time = with.times.mean;
            // Colourless agents may fail some configs; compare only when
            // both succeed somewhere.
            if without.successes > 0 {
                assert!(
                    without.times.mean > with_time || without.successes < with.successes,
                    "{}: with {with:?} vs without {without:?}",
                    pair[1].label
                );
            }
        }
    }

    #[test]
    fn uniform_states_fail_adversarial_configs() {
        let outcomes =
            init_state_ablation(GridKind::Square, 8, 6, 5, 1500, 2).unwrap();
        let paper = &outcomes[0];
        assert_eq!(paper.manual_successes, paper.manual_total, "ID mod 2 solves manual configs");
        let uniform0 = &outcomes[1];
        assert!(
            uniform0.manual_successes < uniform0.manual_total,
            "uniform state 0 should break on symmetric configs: {uniform0:?}"
        );
    }

    #[test]
    fn full_set_remap_is_behaviour_preserving() {
        let variants = turn_set_ablation(&tiny()).unwrap();
        let paper = &variants[0].series.points[0];
        let remap = &variants[1].series.points[0];
        assert_eq!(paper, remap, "re-expression must not change any outcome");
    }

    #[test]
    fn conflict_ablation_runs_both_policies() {
        let variants = conflict_ablation(GridKind::Triangulate, &tiny()).unwrap();
        assert_eq!(variants.len(), 2);
        for v in &variants {
            assert!(v.series.points[0].successes > 0, "{}", v.label);
        }
    }
}

#[cfg(test)]
mod paired_tests {
    use super::*;

    #[test]
    fn paired_colors_report_is_consistent() {
        let r = colors_paired(GridKind::Triangulate, 8, 12, 5, 2000, 1).unwrap();
        assert_eq!(r.total, 15);
        assert!(r.both_solved <= r.total);
        if r.both_solved > 0 {
            assert!(r.mean_with > 0.0);
            assert!(r.speedup().is_finite());
        }
    }
}
