//! Running a world to completion and summarising the outcome.

use crate::behaviour::Behaviour;
use crate::error::SimError;
use crate::init::InitialConfig;
use crate::config::WorldConfig;
use crate::world::World;
use a2a_fsm::Genome;
use serde::{Deserialize, Serialize};

/// Result of running one initial configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Communication time: first counted step at which every agent is
    /// informed; `None` if the horizon was reached first.
    pub t_comm: Option<u32>,
    /// Number of informed agents when the run ended.
    pub informed: usize,
    /// Total number of agents.
    pub agents: usize,
    /// Steps actually executed.
    pub steps: u32,
}

impl RunOutcome {
    /// Whether the task was solved within the horizon ("successful" in the
    /// paper's terminology).
    #[must_use]
    pub fn is_successful(&self) -> bool {
        self.t_comm.is_some()
    }

    /// The paper's per-configuration fitness
    /// `F_i = W·(N_agents − a_i) + t_comm` with weight `W = 10⁴`
    /// (Sect. 4). For unsuccessful runs `t_comm` is the horizon.
    #[must_use]
    pub fn fitness(&self, weight: f64) -> f64 {
        let t = self.t_comm.unwrap_or(self.steps);
        weight * (self.agents - self.informed) as f64 + f64::from(t)
    }
}

/// Runs `world` until every agent is informed or `t_max` counted steps
/// have elapsed.
///
/// The world may already be complete at `t = 0` (e.g. two adjacent
/// agents); the outcome then reports `t_comm = Some(0)` without stepping.
///
/// When observability is on, the run feeds `world.*` metrics and a
/// `world.run` event carrying the same fields as the fast kernel's
/// `kernel.run`, so differential runs of both engines line up in one
/// event stream.
pub fn run_to_completion(world: &mut World, t_max: u32) -> RunOutcome {
    let t_start = world.time();
    while !world.all_informed() && world.time() < t_max {
        world.step();
    }
    let outcome = RunOutcome {
        t_comm: world.all_informed().then(|| world.time()),
        informed: world.informed_count(),
        agents: world.agents().len(),
        steps: world.time(),
    };
    record_world_run(world, outcome, t_start);
    outcome
}

/// Feeds one reference-engine run into the global registry and, at
/// `Debug`, the event stream (engine-comparable with
/// `MultiWorld::run`'s `kernel.run`).
fn record_world_run(world: &World, outcome: RunOutcome, t_start: u32) {
    let steps = outcome.steps - t_start;
    if a2a_obs::metrics_enabled() {
        let reg = a2a_obs::global();
        reg.counter("world.runs").incr();
        reg.counter("world.steps").add(u64::from(steps));
        match outcome.t_comm {
            Some(t) => reg.histogram("world.t_comm").record(u64::from(t)),
            None => reg.counter("world.unsuccessful").incr(),
        }
    }
    a2a_obs::event!(a2a_obs::Level::Debug, "world.run",
        "engine" => "world",
        "grid" => world.kind().to_string(),
        "k" => outcome.agents,
        "steps" => steps,
        "t_comm" => outcome.t_comm.map_or(-1i64, i64::from),
        "informed" => outcome.informed);
}

/// Runs `world` like [`run_to_completion`] while recording the informed
/// count after every step.
///
/// The returned profile has `steps + 1` entries: index 0 is the count
/// right after the uncounted placement exchange, index `t` the count
/// after counted step `t`. The profile of a successful run ends at the
/// agent count.
pub fn run_with_profile(world: &mut World, t_max: u32) -> (RunOutcome, Vec<usize>) {
    let t_start = world.time();
    let mut profile = vec![world.informed_count()];
    while !world.all_informed() && world.time() < t_max {
        world.step();
        profile.push(world.informed_count());
    }
    let outcome = RunOutcome {
        t_comm: world.all_informed().then(|| world.time()),
        informed: world.informed_count(),
        agents: world.agents().len(),
        steps: world.time(),
    };
    record_world_run(world, outcome, t_start);
    (outcome, profile)
}

/// Convenience: assembles a world and runs it to completion.
///
/// # Errors
///
/// Propagates [`World::new`] errors.
pub fn simulate(
    config: &WorldConfig,
    genome: Genome,
    init: &InitialConfig,
    t_max: u32,
) -> Result<RunOutcome, SimError> {
    simulate_behaviour(config, Genome::into(genome), init, t_max)
}

/// Like [`simulate`] but with a full [`Behaviour`] (e.g. a time-shuffled
/// pair of FSMs).
///
/// # Errors
///
/// Propagates [`World::with_behaviour`] errors.
pub fn simulate_behaviour(
    config: &WorldConfig,
    behaviour: Behaviour,
    init: &InitialConfig,
    t_max: u32,
) -> Result<RunOutcome, SimError> {
    let mut world = World::with_behaviour(config, behaviour, init)?;
    Ok(run_to_completion(&mut world, t_max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_fsm::{best_s_agent, best_t_agent};
    use a2a_grid::{Dir, GridKind, Pos};

    #[test]
    fn already_complete_reports_zero() {
        let cfg = WorldConfig::paper(GridKind::Square, 16);
        let init = InitialConfig::new(vec![
            (Pos::new(4, 4), Dir::new(0)),
            (Pos::new(5, 4), Dir::new(0)),
        ]);
        let out = simulate(&cfg, best_s_agent(), &init, 200).unwrap();
        assert_eq!(out.t_comm, Some(0));
        assert_eq!(out.steps, 0);
        assert!(out.is_successful());
        assert_eq!(out.fitness(1e4), 0.0);
    }

    #[test]
    fn horizon_caps_unsuccessful_runs() {
        // A horizon of 0 forbids any step; distant agents stay uninformed.
        let cfg = WorldConfig::paper(GridKind::Square, 16);
        let init = InitialConfig::new(vec![
            (Pos::new(0, 0), Dir::new(0)),
            (Pos::new(8, 8), Dir::new(0)),
        ]);
        let out = simulate(&cfg, best_s_agent(), &init, 0).unwrap();
        assert_eq!(out.t_comm, None);
        assert_eq!(out.informed, 0);
        assert_eq!(out.fitness(1e4), 2.0 * 1e4);
    }

    #[test]
    fn best_agents_solve_a_random_16x16_case() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        for (kind, genome) in [
            (GridKind::Square, best_s_agent()),
            (GridKind::Triangulate, best_t_agent()),
        ] {
            let cfg = WorldConfig::paper(kind, 16);
            let mut rng = SmallRng::seed_from_u64(99);
            let init = InitialConfig::random(cfg.lattice, kind, 16, &[], &mut rng).unwrap();
            let out = simulate(&cfg, genome, &init, 1000).unwrap();
            assert!(out.is_successful(), "{kind}: {out:?}");
            assert!(out.t_comm.unwrap() > 0);
            assert_eq!(out.fitness(1e4), f64::from(out.t_comm.unwrap()));
        }
    }

    #[test]
    fn fitness_dominance_relation() {
        // One uninformed agent dominates any admissible time.
        let failed = RunOutcome { t_comm: None, informed: 7, agents: 8, steps: 200 };
        let slow = RunOutcome { t_comm: Some(199), informed: 8, agents: 8, steps: 199 };
        assert!(failed.fitness(1e4) > slow.fitness(1e4));
    }
}

#[cfg(test)]
mod profile_tests {
    use super::*;
    use a2a_fsm::best_t_agent;
    use a2a_grid::GridKind;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn profile_is_monotone_and_ends_complete() {
        let cfg = WorldConfig::paper(GridKind::Triangulate, 16);
        let mut rng = SmallRng::seed_from_u64(31);
        let init = InitialConfig::random(cfg.lattice, cfg.kind, 16, &[], &mut rng).unwrap();
        let mut world = World::new(&cfg, best_t_agent(), &init).unwrap();
        let (outcome, profile) = run_with_profile(&mut world, 2000);
        assert!(outcome.is_successful());
        assert_eq!(profile.len() as u32, outcome.steps + 1);
        for w in profile.windows(2) {
            assert!(w[1] >= w[0], "informed count is monotone");
        }
        assert_eq!(*profile.last().unwrap(), 16);
    }

    #[test]
    fn profile_of_complete_placement_is_single_entry() {
        let cfg = WorldConfig::paper(GridKind::Square, 16);
        let init = InitialConfig::new(vec![
            (a2a_grid::Pos::new(0, 0), a2a_grid::Dir::new(0)),
            (a2a_grid::Pos::new(1, 0), a2a_grid::Dir::new(0)),
        ]);
        let mut world = World::new(&cfg, a2a_fsm::best_s_agent(), &init).unwrap();
        let (outcome, profile) = run_with_profile(&mut world, 100);
        assert_eq!(outcome.t_comm, Some(0));
        assert_eq!(profile, vec![2]);
    }
}
