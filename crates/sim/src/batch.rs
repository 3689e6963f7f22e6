//! Batch evaluation: one compiled environment, many initial
//! configurations.
//!
//! The GA fitness workload evaluates a single genome on dozens to hundreds
//! of initial configurations. [`BatchRunner`] compiles the genome and the
//! environment once (neighbour tables, the empty-field cell image,
//! per-phase FSM tables) and shares them across every run through an
//! [`Arc`], so per-configuration cost is placement + simulation only.
//! [`BatchRunner::run_all`] builds one one-run [`MultiWorld`] per call
//! and reloads it for each configuration; nothing is kept between
//! calls. The batch layer is serial: `BatchRunner` is `Sync` and cheap
//! to clone, and `a2a-ga`'s `WorkerPool::run_ranges` shards index
//! ranges of a shared configuration set across threads by calling
//! `run_all` per range.
//!
//! **Packed fields end by arithmetic.** A configuration with one agent
//! on every free cell (`k` = cells − obstacles) is *packed*. Every
//! front is solid, so nobody ever moves or loses a conflict, and the
//! exchange floods the fixed free-cell graph one ring per step: the
//! outcome and the active agent-step tally depend only on the field
//! and the horizon, never on directions, control states, colours, the
//! behaviour or the policies. A runner steps the first packed
//! configuration it meets and hands every later one, once validated as
//! [`MultiWorld::load`] would, the same outcome and `kernel.*` counts.
//! Its clones share that first outcome.

use crate::behaviour::Behaviour;
use crate::config::WorldConfig;
use crate::error::SimError;
use crate::init::InitialConfig;
use crate::kernel::KernelEnv;
use crate::multi::{record_run, MultiWorld};
use crate::run::RunOutcome;
use a2a_fsm::Genome;
use std::sync::{Arc, OnceLock};

/// Evaluates one behaviour over many initial configurations on the
/// one-run [`MultiWorld`] kernel.
///
/// # Examples
///
/// ```
/// use a2a_sim::{BatchRunner, InitialConfig, WorldConfig};
/// use a2a_fsm::best_t_agent;
/// use a2a_grid::GridKind;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// # fn main() -> Result<(), a2a_sim::SimError> {
/// let cfg = WorldConfig::paper(GridKind::Triangulate, 16);
/// let runner = BatchRunner::from_genome(&cfg, best_t_agent(), 200)?;
/// let mut rng = SmallRng::seed_from_u64(3);
/// let init = InitialConfig::random(cfg.lattice, cfg.kind, 16, &[], &mut rng)?;
/// assert!(runner.outcome_for(&init)?.is_successful());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchRunner {
    env: Arc<KernelEnv>,
    t_max: u32,
    /// The first packed configuration's stepped run (module docs),
    /// shared by every clone.
    packed: Arc<OnceLock<PackedRun>>,
}

/// What stepping a packed configuration yields, the same for all of
/// them on one runner.
#[derive(Debug)]
struct PackedRun {
    outcome: RunOutcome,
    /// The run's active agent-steps (`kernel.frontier.active`).
    active_steps: u64,
}

impl BatchRunner {
    /// Compiles `behaviour` against `config` for runs capped at `t_max`
    /// counted steps.
    ///
    /// # Errors
    ///
    /// The environment checks of [`crate::World::with_behaviour`]:
    /// inconsistent behaviours, grid-kind mismatch, invalid obstacles or
    /// colour patterns.
    pub fn new(
        config: &WorldConfig,
        behaviour: &Behaviour,
        t_max: u32,
    ) -> Result<Self, SimError> {
        Ok(Self {
            env: Arc::new(KernelEnv::new(config, behaviour)?),
            t_max,
            packed: Arc::default(),
        })
    }

    /// [`BatchRunner::new`] for the paper's single-FSM behaviour.
    ///
    /// # Errors
    ///
    /// As [`BatchRunner::new`].
    pub fn from_genome(config: &WorldConfig, genome: Genome, t_max: u32) -> Result<Self, SimError> {
        Self::new(config, &Behaviour::Single(genome), t_max)
    }

    /// The run horizon in counted steps.
    #[must_use]
    pub fn t_max(&self) -> u32 {
        self.t_max
    }

    /// Runs one initial configuration to completion (or the horizon):
    /// [`BatchRunner::run_all`] over that one configuration, so every
    /// call builds a fresh [`MultiWorld`]. Callers that loop over
    /// single configurations hold their own world and reload it
    /// instead.
    ///
    /// # Errors
    ///
    /// The placement checks of [`crate::World::with_behaviour`]: invalid
    /// positions or directions, duplicates, agents on obstacles.
    pub fn outcome_for(&self, init: &InitialConfig) -> Result<RunOutcome, SimError> {
        Ok(self.run_all(std::slice::from_ref(init))?[0])
    }

    /// Runs every configuration in order on one [`MultiWorld`], built
    /// for this call and reloaded for each configuration. A packed
    /// configuration (an agent on every free cell) after the runner's
    /// first is only validated and gets that first one's outcome: in a
    /// packed field nobody can move, so every such run ends alike.
    /// Outcomes are bit-identical to running each configuration
    /// through the reference [`World`](crate::World).
    ///
    /// # Errors
    ///
    /// The first placement error in set order, as
    /// [`BatchRunner::outcome_for`].
    pub fn run_all(&self, inits: &[InitialConfig]) -> Result<Vec<RunOutcome>, SimError> {
        let _span = a2a_obs::Span::enter("batch.run_all");
        let mut world = MultiWorld::from_env(Arc::clone(&self.env));
        let outcomes = inits
            .iter()
            .map(|init| self.run_one(&mut world, init))
            .collect::<Result<Vec<RunOutcome>, SimError>>()?;
        a2a_obs::event!(a2a_obs::Level::Debug, "batch.run_all",
            "configs" => outcomes.len(),
            "successful" => outcomes.iter().filter(|o| o.is_successful()).count(),
            "t_max" => self.t_max);
        Ok(outcomes)
    }

    /// One configuration of [`BatchRunner::run_all`] on its world.
    fn run_one(
        &self,
        world: &mut MultiWorld,
        init: &InitialConfig,
    ) -> Result<RunOutcome, SimError> {
        let packed = init.agent_count() == self.env.free_cells;
        if packed {
            if let Some(run) = self.packed.get() {
                world.validate(init)?;
                record_run(self.env.kind, &run.outcome, run.active_steps, 0, 0);
                return Ok(run.outcome);
            }
        }
        world.load(init)?;
        let outcome = world.run(self.t_max);
        if packed {
            debug_assert_eq!(world.conflict_losses(), 0, "nobody moves on a packed field");
            let _ = self.packed.set(PackedRun { outcome, active_steps: world.active_steps() });
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::simulate;
    use a2a_fsm::best_agent;
    use a2a_grid::GridKind;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn batch_outcomes_equal_oracle_simulate() {
        for kind in [GridKind::Square, GridKind::Triangulate] {
            let cfg = WorldConfig::paper(kind, 16);
            let genome = best_agent(kind);
            let runner = BatchRunner::from_genome(&cfg, genome.clone(), 200).unwrap();
            let mut rng = SmallRng::seed_from_u64(77);
            for _ in 0..10 {
                let init =
                    InitialConfig::random(cfg.lattice, kind, 12, &[], &mut rng).unwrap();
                let fast = runner.outcome_for(&init).unwrap();
                let slow = simulate(&cfg, genome.clone(), &init, 200).unwrap();
                assert_eq!(fast, slow, "{kind}");
            }
        }
    }

    #[test]
    fn runner_is_shareable_across_threads() {
        let cfg = WorldConfig::paper(GridKind::Triangulate, 16);
        let runner = BatchRunner::from_genome(&cfg, best_agent(cfg.kind), 200).unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        let inits: Vec<InitialConfig> = (0..8)
            .map(|_| InitialConfig::random(cfg.lattice, cfg.kind, 8, &[], &mut rng).unwrap())
            .collect();
        let serial = runner.run_all(&inits).unwrap();
        let parallel: Vec<RunOutcome> = std::thread::scope(|scope| {
            inits
                .iter()
                .map(|init| scope.spawn(|| runner.outcome_for(init).unwrap()))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn environment_errors_surface_at_construction() {
        let cfg = WorldConfig::paper(GridKind::Square, 16);
        assert!(matches!(
            BatchRunner::from_genome(&cfg, best_agent(GridKind::Triangulate), 200),
            Err(SimError::SpecMismatch(_))
        ));
    }

    #[test]
    fn placement_errors_surface_per_configuration() {
        let cfg = WorldConfig::paper(GridKind::Square, 16);
        let runner = BatchRunner::from_genome(&cfg, best_agent(cfg.kind), 200).unwrap();
        let dup = InitialConfig::new(vec![
            (a2a_grid::Pos::new(1, 1), a2a_grid::Dir::new(0)),
            (a2a_grid::Pos::new(1, 1), a2a_grid::Dir::new(0)),
        ]);
        assert!(matches!(
            runner.outcome_for(&dup),
            Err(SimError::DuplicatePosition(_))
        ));
        // run_all reports the first failing configuration's error, just
        // like the serial per-config loop did.
        let mut rng = SmallRng::seed_from_u64(2);
        let good = InitialConfig::random(cfg.lattice, cfg.kind, 4, &[], &mut rng).unwrap();
        assert!(matches!(
            runner.run_all(&[good, dup]),
            Err(SimError::DuplicatePosition(_))
        ));
    }

    #[test]
    fn empty_batch_returns_empty_on_every_path() {
        let cfg = WorldConfig::paper(GridKind::Square, 16);
        let runner = BatchRunner::from_genome(&cfg, best_agent(cfg.kind), 200).unwrap();
        assert!(runner.run_all(&[]).unwrap().is_empty());
    }

    #[test]
    fn run_all_matches_per_config_outcomes() {
        // The batch path must be bit-identical to the reference oracle
        // run config by config — ragged agent counts included — and so
        // must the one-run path.
        for kind in [GridKind::Square, GridKind::Triangulate] {
            let cfg = WorldConfig::paper(kind, 16);
            let runner = BatchRunner::from_genome(&cfg, best_agent(kind), 200).unwrap();
            let mut rng = SmallRng::seed_from_u64(55);
            let inits: Vec<InitialConfig> = [16usize, 1, 8, 70, 16, 16, 2, 33]
                .iter()
                .map(|&k| InitialConfig::random(cfg.lattice, kind, k, &[], &mut rng).unwrap())
                .collect();
            let singles: Vec<RunOutcome> =
                inits.iter().map(|i| simulate(&cfg, best_agent(kind), i, 200).unwrap()).collect();
            assert_eq!(runner.run_all(&inits).unwrap(), singles, "{kind}");
            let one_by_one: Vec<RunOutcome> =
                inits.iter().map(|i| runner.outcome_for(i).unwrap()).collect();
            assert_eq!(one_by_one, singles, "{kind}");
        }
    }
}
