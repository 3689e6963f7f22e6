//! E22 — exhaustive two-agent verification.
//!
//! The paper: "we could not prove that these state machines will be
//! successful for any arbitrary initial configuration." For `k = 2` we
//! *can*: the CA dynamics is equivariant under torus translations, so
//! fixing agent 0 at the origin loses no generality, and the remaining
//! configuration space — 255 relative positions × every direction pair —
//! is small enough to enumerate completely. A clean sweep is a proof of
//! 2-agent reliability (up to the translation argument); the histogram
//! is the exact 2-agent time distribution.

use crate::histogram::Histogram;
use a2a_fsm::best_agent;
use a2a_ga::WorkerPool;
use a2a_grid::{Dir, GridKind, Lattice, Pos};
use a2a_sim::{decide, Decision, InitialConfig, World, WorldConfig};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Outcome of the exhaustive sweep for one grid kind.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExhaustiveResult {
    /// Grid family.
    pub kind: GridKind,
    /// Configurations enumerated (modulo translation).
    pub total: usize,
    /// Configurations solved (with proof).
    pub solved: usize,
    /// Configurations proven to never solve (limit cycles).
    pub never_solves: usize,
    /// Exact time distribution over the solved configurations.
    pub histogram: Histogram,
    /// A worst-case configuration (agent-1 position and the two
    /// directions), if any run was slowest.
    pub worst: Option<(Pos, Dir, Dir, u32)>,
}

impl ExhaustiveResult {
    /// Whether the sweep proves 2-agent reliability (every configuration
    /// decided *solved*; failures would be decided, not timed out).
    #[must_use]
    pub fn is_proof(&self) -> bool {
        self.solved == self.total && self.never_solves == 0
    }
}

/// Enumerates every 2-agent configuration of the `m × m` torus modulo
/// translation (agent 0 fixed at the origin) and *decides* each with the
/// cycle-detecting procedure.
///
/// `max_states` bounds the per-configuration state store (memory safety
/// valve; decided cases are unaffected by its value).
#[must_use]
pub fn exhaustive_two_agents(
    kind: GridKind,
    m: u16,
    max_states: usize,
    threads: usize,
) -> ExhaustiveResult {
    let cfg = WorldConfig::paper(kind, m);
    let lattice = Lattice::torus(m, m);
    let genome = best_agent(kind);
    let dirs = kind.dir_count();

    let mut cases = Vec::new();
    for cell in 1..lattice.len() {
        let pos1 = lattice.pos_at(cell);
        for d0 in 0..dirs {
            for d1 in 0..dirs {
                cases.push((pos1, Dir::new(d0), Dir::new(d1)));
            }
        }
    }

    let cases = Arc::new(cases);
    let outcomes = WorkerPool::new(threads).map(&cases, move |_, &(pos1, d0, d1)| {
        let init = InitialConfig::new(vec![(Pos::new(0, 0), d0), (pos1, d1)]);
        let mut world = World::new(&cfg, genome.clone(), &init)
            .expect("enumerated configurations are valid");
        decide(&mut world, max_states)
    });

    let mut histogram = Histogram::new();
    let mut worst: Option<(Pos, Dir, Dir, u32)> = None;
    let mut solved = 0usize;
    let mut never_solves = 0usize;
    for (&(pos1, d0, d1), &decision) in cases.iter().zip(&outcomes) {
        match decision {
            Decision::Solved(t) => {
                solved += 1;
                histogram.record(t);
                if worst.is_none_or(|(_, _, _, wt)| t > wt) {
                    worst = Some((pos1, d0, d1, t));
                }
            }
            Decision::NeverSolves { .. } => never_solves += 1,
            Decision::Undecided => {}
        }
    }
    ExhaustiveResult { kind, total: cases.len(), solved, never_solves, histogram, worst }
}

/// Enumerates every **3-agent** configuration of the `m × m` torus modulo
/// translation (agent 0 at the origin; agents are distinguishable, so all
/// ordered pairs of distinct cells for agents 1 and 2) and decides each.
///
/// The case count is `(N−1)·(N−2)·dirs³` — use small `m` (the 8×8 S-grid
/// is ~250 k decisions, the 8×8 T-grid ~844 k).
#[must_use]
pub fn exhaustive_three_agents(
    kind: GridKind,
    m: u16,
    max_states: usize,
    threads: usize,
) -> ExhaustiveResult {
    let cfg = WorldConfig::paper(kind, m);
    let lattice = Lattice::torus(m, m);
    let genome = best_agent(kind);
    let dirs = kind.dir_count();

    let mut cases = Vec::new();
    for cell1 in 1..lattice.len() {
        for cell2 in 1..lattice.len() {
            if cell2 == cell1 {
                continue;
            }
            for d0 in 0..dirs {
                for d1 in 0..dirs {
                    for d2 in 0..dirs {
                        cases.push((
                            lattice.pos_at(cell1),
                            lattice.pos_at(cell2),
                            [Dir::new(d0), Dir::new(d1), Dir::new(d2)],
                        ));
                    }
                }
            }
        }
    }

    let cases = Arc::new(cases);
    let outcomes = WorkerPool::new(threads).map(&cases, move |_, &(p1, p2, ds)| {
        let init = InitialConfig::new(vec![
            (Pos::new(0, 0), ds[0]),
            (p1, ds[1]),
            (p2, ds[2]),
        ]);
        let mut world = World::new(&cfg, genome.clone(), &init)
            .expect("enumerated configurations are valid");
        decide(&mut world, max_states)
    });

    let mut histogram = Histogram::new();
    let mut worst: Option<(Pos, Dir, Dir, u32)> = None;
    let mut solved = 0usize;
    let mut never_solves = 0usize;
    for (&(p1, _, ds), &decision) in cases.iter().zip(&outcomes) {
        match decision {
            Decision::Solved(t) => {
                solved += 1;
                histogram.record(t);
                if worst.is_none_or(|(_, _, _, wt)| t > wt) {
                    worst = Some((p1, ds[0], ds[1], t));
                }
            }
            Decision::NeverSolves { .. } => never_solves += 1,
            Decision::Undecided => {}
        }
    }
    ExhaustiveResult { kind, total: cases.len(), solved, never_solves, histogram, worst }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive proof on a small torus: every 2-agent configuration of
    /// the 8×8 field is solved by both published agents.
    #[test]
    fn both_agents_are_provably_reliable_on_8x8() {
        for kind in [GridKind::Square, GridKind::Triangulate] {
            let r = exhaustive_two_agents(kind, 8, usize::MAX, 2);
            let dirs = usize::from(kind.dir_count());
            assert_eq!(r.total, 63 * dirs * dirs, "{kind}");
            assert!(r.is_proof(), "{kind}: {}/{} solved", r.solved, r.total);
            assert_eq!(r.histogram.total(), r.total as u64);
            assert!(r.worst.is_some());
        }
    }

    /// The 3-agent sweep on a tiny torus: a complete decision of all
    /// 4×4 S-grid configurations (13 440 cases).
    #[test]
    fn three_agents_decided_on_4x4() {
        let r = exhaustive_three_agents(GridKind::Square, 4, usize::MAX, 2);
        assert_eq!(r.total, 15 * 14 * 64);
        assert_eq!(r.solved + r.never_solves, r.total, "every case decided");
        // On a 4x4 torus agents are almost always within exchange reach
        // quickly; the published agents should solve the vast majority.
        assert!(r.solved * 10 > r.total * 9, "{} of {}", r.solved, r.total);
    }

    /// Translation equivariance spot-check: shifting both agents by the
    /// same offset shifts the trajectory but not the communication time.
    #[test]
    fn translation_invariance_holds() {
        let kind = GridKind::Triangulate;
        let cfg = WorldConfig::paper(kind, 16);
        let genome = best_agent(kind);
        let base = InitialConfig::new(vec![
            (Pos::new(0, 0), Dir::new(2)),
            (Pos::new(5, 9), Dir::new(4)),
        ]);
        let run = |init: &InitialConfig| {
            let mut w = World::new(&cfg, genome.clone(), init).unwrap();
            a2a_sim::run_to_completion(&mut w, 3000).t_comm
        };
        let t0 = run(&base);
        for (dx, dy) in [(3u16, 0u16), (0, 7), (11, 13)] {
            let shifted = InitialConfig::new(vec![
                (Pos::new(dx % 16, dy % 16), Dir::new(2)),
                (Pos::new((5 + dx) % 16, (9 + dy) % 16), Dir::new(4)),
            ]);
            assert_eq!(run(&shifted), t0, "shift ({dx},{dy})");
        }
    }
}
