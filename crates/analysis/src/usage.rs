//! Genome entry-usage analysis: which rows of an evolved state table
//! actually fire during simulation, and which are dead weight.
//!
//! The paper's genome has 32 (input, state) rows; evolution only shapes
//! the rows that execute. Dead rows are free mutation targets — one
//! reason mutation-only search works well here.

use a2a_fsm::Genome;
use a2a_ga::WorkerPool;
use a2a_sim::{InitialConfig, World, WorldConfig};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Aggregated entry-usage over a configuration set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UsageProfile {
    /// Usage count per flat genome index (Fig. 3's `i`).
    pub counts: Vec<u64>,
    /// Configurations simulated.
    pub configs: usize,
    /// Steps simulated in total.
    pub total_steps: u64,
}

impl UsageProfile {
    /// Flat indices that never fired (dead rows).
    #[must_use]
    pub fn dead_entries(&self) -> Vec<usize> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == 0)
            .map(|(i, _)| i)
            .collect()
    }

    /// Fraction of all decisions taken by the `n` hottest rows.
    #[must_use]
    pub fn concentration(&self, n: usize) -> f64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mut sorted = self.counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        sorted.iter().take(n).sum::<u64>() as f64 / total as f64
    }
}

/// Profiles `genome` over `configs` in `env`, running each to completion
/// (or `t_max`) with usage tracking enabled.
///
/// # Panics
///
/// Panics if a configuration is invalid for the environment (the callers
/// build both from the same lattice).
#[must_use]
pub fn profile_usage(
    env: &WorldConfig,
    genome: &Genome,
    configs: &[InitialConfig],
    t_max: u32,
    threads: usize,
) -> UsageProfile {
    let len = genome.spec().entry_count();
    let (env, genome) = (env.clone(), genome.clone());
    let per_config = WorkerPool::new(threads).map(&Arc::new(configs.to_vec()), move |_, init| {
        let mut world =
            World::new(&env, genome.clone(), init).expect("valid configuration");
        world.enable_usage_tracking();
        while !world.all_informed() && world.time() < t_max {
            world.step();
        }
        (world.usage().expect("tracking enabled").to_vec(), u64::from(world.time()))
    });
    let mut counts = vec![0u64; len];
    let mut total_steps = 0u64;
    for (usage, steps) in &per_config {
        for (slot, &c) in counts.iter_mut().zip(usage) {
            *slot += c;
        }
        total_steps += steps;
    }
    UsageProfile { counts, configs: configs.len(), total_steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_fsm::{best_t_agent, Entry};
    use a2a_grid::GridKind;
    use a2a_sim::paper_config_set;

    fn profile(n_cfg: usize) -> (WorldConfig, Vec<InitialConfig>, UsageProfile) {
        let env = WorldConfig::paper(GridKind::Triangulate, 16);
        let configs =
            paper_config_set(env.lattice, env.kind, 8, n_cfg, 77).unwrap();
        let p = profile_usage(&env, &best_t_agent(), &configs, 1000, 1);
        (env, configs, p)
    }

    #[test]
    fn counts_are_consistent() {
        let (_, configs, p) = profile(8);
        assert_eq!(p.configs, configs.len());
        assert_eq!(p.counts.len(), 32);
        // Every step decides one row per agent (8 agents).
        assert_eq!(p.counts.iter().sum::<u64>(), p.total_steps * 8);
        // A handful of rows dominates the behaviour.
        assert!(p.concentration(8) > 0.5, "{:?}", p.concentration(8));
    }

    /// Mutating a row that never fires cannot change any outcome on the
    /// same configuration set — dead rows are behaviourally neutral.
    #[test]
    fn dead_entries_are_behaviourally_neutral() {
        let (env, configs, p) = profile(6);
        let genome = best_t_agent();
        let Some(&dead) = p.dead_entries().first() else {
            // The published agent may use all rows on this set; the
            // property is then vacuous for it.
            return;
        };
        let mut mutated = genome.clone();
        let e = mutated.entry_mut(dead);
        *e = Entry {
            next_state: (e.next_state + 1) % 4,
            action: a2a_fsm::Action::new(
                (e.action.turn + 1) % 4,
                !e.action.mv,
                1 - e.action.set_color,
            ),
        };
        for init in &configs {
            let a = a2a_sim::simulate(&env, genome.clone(), init, 1000).unwrap();
            let b = a2a_sim::simulate(&env, mutated.clone(), init, 1000).unwrap();
            assert_eq!(a, b, "dead row must not matter");
        }
    }
}
