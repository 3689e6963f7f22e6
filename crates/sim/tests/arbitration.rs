//! Multi-way movement conflicts, the [`MultiWorld`] kernel against the
//! reference [`World`] in lockstep: every agent around an empty cell
//! asks to move into it, under both conflict policies, on a torus and
//! against the border of a bordered field. Positions, directions,
//! control states and colours must agree at every step, and so must the
//! kernel's lost-conflict count with the count the oracle's pre-step
//! state implies: every FSM row here moves, so each free front cell
//! with `c` claimants costs `c − 1` losses.

use a2a_fsm::{Action, Entry, FsmSpec, Genome, Percept};
use a2a_grid::{Dir, GridKind, Lattice, Pos};
use a2a_sim::{ColorInit, ConflictPolicy, InitialConfig, MultiWorld, World, WorldConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};

const KINDS: [GridKind; 2] = [GridKind::Square, GridKind::Triangulate];
const POLICIES: [ConflictPolicy; 2] = [ConflictPolicy::LowestId, ConflictPolicy::HighestId];

/// A random paper-spec genome with the move bit set in every row.
fn always_move(kind: GridKind, seed: u64) -> Genome {
    let spec = FsmSpec::paper(kind);
    let random = Genome::random(spec, &mut SmallRng::seed_from_u64(seed));
    let entries = (0..spec.entry_count())
        .map(|i| {
            let e = random.entry(i);
            Entry { action: Action { mv: true, ..e.action }, ..e }
        })
        .collect();
    Genome::from_entries(spec, entries)
}

/// The conflicts the coming step loses, from the oracle's state.
fn expected_losses(world: &World) -> u64 {
    let occupied: HashSet<Pos> = world.agents().iter().map(|a| a.pos()).collect();
    let mut claimants: HashMap<Pos, u64> = HashMap::new();
    for a in world.agents() {
        if let Some(front) = world.lattice().neighbor(a.pos(), world.kind(), a.dir()) {
            if !occupied.contains(&front) {
                *claimants.entry(front).or_default() += 1;
            }
        }
    }
    claimants.values().map(|c| c - 1).sum()
}

/// Steps both engines `steps` times from `init`, comparing them before
/// every step and after the last; returns the conflicts lost.
fn assert_lockstep(config: &WorldConfig, genome: &Genome, init: &InitialConfig, steps: u32) -> u64 {
    let mut oracle = World::new(config, genome.clone(), init).unwrap();
    let mut kernel = MultiWorld::new(config, genome.clone()).unwrap();
    kernel.load(init).unwrap();
    let mut losses = 0;
    for t in 0..=steps {
        let agents = oracle.agents();
        let at = format!("{} {:?} t={t}", config.kind, config.conflict);
        assert_eq!(kernel.positions(), agents.iter().map(|a| a.pos()).collect::<Vec<_>>(), "{at}");
        assert_eq!(kernel.dirs(), agents.iter().map(|a| a.dir()).collect::<Vec<_>>(), "{at}");
        assert_eq!(kernel.states(), agents.iter().map(|a| a.state()).collect::<Vec<_>>(), "{at}");
        assert_eq!(kernel.colors(), oracle.colors(), "{at}");
        assert_eq!(kernel.conflict_losses(), losses, "{at}");
        losses += expected_losses(&oracle);
        oracle.step();
        kernel.step();
    }
    losses
}

/// One agent on every neighbour cell of `centre`, facing it, in
/// direction order.
fn ring(lattice: Lattice, kind: GridKind, centre: Pos) -> Vec<(Pos, Dir)> {
    let dirs = || (0..kind.dir_count()).map(Dir::new);
    dirs()
        .map(|d| {
            let p = lattice.neighbor(centre, kind, d).expect("the centre is inside");
            let back = dirs().find(|&b| lattice.neighbor(p, kind, b) == Some(centre)).unwrap();
            (p, back)
        })
        .collect()
}

#[test]
fn every_neighbour_contesting_one_cell_matches_the_oracle() {
    for kind in KINDS {
        let mut config = WorldConfig::paper(kind, 12);
        let lattice = config.lattice;
        let (a, b) = (Pos::new(3, 3), Pos::new(8, 8));
        // Colour 1 on both contested cells and on every third cell, so
        // a loser's re-perception reads a front colour of its own.
        let pattern = lattice
            .positions()
            .map(|p| u8::from(p == a || p == b || (p.x + p.y) % 3 == 0))
            .collect();
        config.colors = ColorInit::Pattern(pattern);
        // Two full rings, their IDs interleaved, so winners and losers
        // of the two contests alternate in the apply order.
        let placements: Vec<(Pos, Dir)> = ring(lattice, kind, a)
            .into_iter()
            .zip(ring(lattice, kind, b))
            .flat_map(|(pa, pb)| [pa, pb])
            .collect();
        let init = InitialConfig::new(placements);
        for conflict in POLICIES {
            config.conflict = conflict;
            for seed in 0..8 {
                let genome = always_move(kind, seed);
                let oracle = World::new(&config, genome.clone(), &init).unwrap();
                let first_step = expected_losses(&oracle);
                assert_eq!(first_step, 2 * (u64::from(kind.dir_count()) - 1), "one winner a ring");
                assert!(assert_lockstep(&config, &genome, &init, 40) >= first_step);
            }
        }
    }
}

#[test]
fn agents_facing_the_border_see_a_solid_colour_zero_front() {
    for kind in KINDS {
        let lattice = Lattice::bordered(6, 6);
        let mut config = WorldConfig { lattice, ..WorldConfig::paper(kind, 6) };
        // Every field cell is colour 1: only the border reads as 0.
        config.colors = ColorInit::Pattern(vec![1; lattice.len()]);
        // An agent on every edge cell, facing off the field, plus a ring
        // around an inner cell.
        let mut placements: Vec<(Pos, Dir)> = lattice
            .positions()
            .filter_map(|p| {
                let mut dirs = (0..kind.dir_count()).map(Dir::new);
                dirs.find(|&d| lattice.neighbor(p, kind, d).is_none()).map(|d| (p, d))
            })
            .collect();
        let edge = placements.len();
        placements.extend(ring(lattice, kind, Pos::new(3, 2)));
        let init = InitialConfig::new(placements);

        // A recorder FSM: the next state encodes the percept's blocked
        // bit and front colour, every row moves straight on.
        let spec = FsmSpec::paper(kind);
        let n_states = usize::from(spec.n_states);
        let recorder = Genome::from_entries(
            spec,
            (0..spec.entry_count())
                .map(|i| {
                    let p = Percept::decode(i / n_states, spec.n_colors);
                    Entry {
                        next_state: u8::from(p.blocked) + 2 * p.front_color,
                        action: Action::new(0, true, 1),
                    }
                })
                .collect(),
        );
        for conflict in POLICIES {
            config.conflict = conflict;
            let mut kernel = MultiWorld::new(&config, recorder.clone()).unwrap();
            kernel.load(&init).unwrap();
            assert_eq!(kernel.colors().len(), lattice.len(), "the wall is not a field cell");
            kernel.step();
            // Blocked (1) with front colour 0 (+ 0) on every edge
            // agent, and nobody moved off the field.
            assert_eq!(kernel.states()[..edge], vec![1; edge], "{kind} {conflict:?}");
            let edge_cells: Vec<Pos> = init.placements()[..edge].iter().map(|&(p, _)| p).collect();
            assert_eq!(kernel.positions()[..edge], edge_cells, "{kind} {conflict:?}");
            assert_eq!(kernel.colors().len(), lattice.len());
            assert_lockstep(&config, &recorder, &init, 20);
            for seed in 0..8 {
                assert_lockstep(&config, &always_move(kind, seed), &init, 40);
            }
        }
    }
}
