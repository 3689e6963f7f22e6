//! E24 — adversarial worst-case search: hill-climbing over initial
//! configurations to *maximise* the communication time.
//!
//! Random sampling (the paper's protocol) characterises the average case;
//! the E22 exhaustive sweep settles `k = 2`. For larger `k` the space is
//! astronomically big, so this experiment searches it adversarially:
//! local moves (relocate one agent, re-aim one agent) accepted when they
//! slow the system down. The resulting configurations bound the published
//! agents' worst observed behaviour far more sharply than sampling.

use a2a_fsm::best_agent;
use a2a_grid::{Dir, GridKind, Pos};
use a2a_sim::{InitialConfig, MultiWorld, SimError, WorldConfig};
use rand::rngs::SmallRng;
use rand::{Rng, RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Result of one adversarial search run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorstCase {
    /// Grid family.
    pub kind: GridKind,
    /// Agent count.
    pub agents: usize,
    /// The hardest configuration found.
    pub config: InitialConfig,
    /// Its communication time (`None` would mean an unsolved
    /// configuration was found — a reliability refutation).
    pub time: Option<u32>,
    /// Time of the initial random configuration, for comparison.
    pub initial_time: u32,
    /// Accepted hill-climbing moves.
    pub improvements: usize,
}

/// Hill-climbs for `iterations` local moves from a seeded random start.
///
/// A move relocates one random agent to a random free cell or re-aims one
/// random agent; it is kept when the simulated time does not decrease
/// (plateau moves are accepted to escape flat regions). An unsolved
/// configuration (within `t_max`) terminates the search immediately — it
/// would refute reliability, which is the most interesting outcome.
///
/// # Errors
///
/// Propagates world-construction failures.
pub fn adversarial_search(
    kind: GridKind,
    k: usize,
    iterations: usize,
    seed: u64,
    t_max: u32,
) -> Result<WorstCase, SimError> {
    let cfg = WorldConfig::paper(kind, 16);
    // The search re-simulates thousands of candidates against one genome:
    // compile it once and reload one kernel world per candidate.
    let mut world = MultiWorld::new(&cfg, best_agent(kind))?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut current = InitialConfig::random(cfg.lattice, kind, k, &[], &mut rng)?;
    let mut run = |c: &InitialConfig| -> Result<Option<u32>, SimError> {
        world.load(c)?;
        Ok(world.run(t_max).t_comm)
    };
    let Some(initial_time) = run(&current)? else {
        return Ok(WorstCase {
            kind,
            agents: k,
            config: current,
            time: None,
            initial_time: 0,
            improvements: 0,
        });
    };
    let mut best_time = initial_time;
    let mut improvements = 0usize;

    for _ in 0..iterations {
        let candidate = perturb(&current, &cfg, kind, &mut rng);
        match run(&candidate)? {
            None => {
                return Ok(WorstCase {
                    kind,
                    agents: k,
                    config: candidate,
                    time: None,
                    initial_time,
                    improvements,
                });
            }
            Some(t) if t >= best_time => {
                if t > best_time {
                    improvements += 1;
                }
                best_time = t;
                current = candidate;
            }
            Some(_) => {}
        }
    }
    Ok(WorstCase {
        kind,
        agents: k,
        config: current,
        time: Some(best_time),
        initial_time,
        improvements,
    })
}

/// One local move: relocate or re-aim a random agent.
fn perturb<R: Rng + ?Sized>(
    config: &InitialConfig,
    cfg: &WorldConfig,
    kind: GridKind,
    rng: &mut R,
) -> InitialConfig {
    let mut placements: Vec<(Pos, Dir)> = config.placements().to_vec();
    let victim = rng.random_range(0..placements.len());
    if rng.random_bool(0.5) {
        // Relocate to a random free cell.
        let occupied: Vec<Pos> = placements.iter().map(|&(p, _)| p).collect();
        loop {
            let pos = cfg.lattice.pos_at(rng.random_range(0..cfg.lattice.len()));
            if !occupied.contains(&pos) {
                placements[victim].0 = pos;
                break;
            }
        }
    } else {
        placements[victim].1 = Dir::new(rng.random_range(0..kind.dir_count()));
    }
    InitialConfig::new(placements)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_never_returns_something_easier_than_its_start() {
        for kind in [GridKind::Square, GridKind::Triangulate] {
            let w = adversarial_search(kind, 4, 30, 7, 5000).unwrap();
            let t = w.time.expect("published agents stay reliable under this search");
            assert!(t >= w.initial_time, "{kind}: {w:?}");
            w.config.validate(WorldConfig::paper(kind, 16).lattice, kind).unwrap();
        }
    }

    #[test]
    fn found_cases_exceed_typical_random_times() {
        // The Table 1 mean for 4 T-agents is ~77; even a short search
        // should push well beyond it.
        let w = adversarial_search(GridKind::Triangulate, 4, 60, 11, 5000).unwrap();
        assert!(w.time.unwrap() > 90, "{w:?}");
        assert!(w.improvements > 0);
    }

    #[test]
    fn perturbations_keep_configurations_valid() {
        let cfg = WorldConfig::paper(GridKind::Square, 16);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut c = InitialConfig::random(cfg.lattice, cfg.kind, 8, &[], &mut rng).unwrap();
        for _ in 0..200 {
            c = perturb(&c, &cfg, GridKind::Square, &mut rng);
            c.validate(cfg.lattice, GridKind::Square).unwrap();
        }
    }
}
