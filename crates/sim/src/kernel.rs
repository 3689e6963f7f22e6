//! The compiled kernel environment every [`MultiWorld`](crate::MultiWorld)
//! run of a batch shares: the same step semantics as [`World`](crate::World),
//! precomputed for throughput.
//!
//! [`KernelEnv`] holds everything about a simulation that does not
//! depend on the initial configuration — neighbour cells in a flat
//! per-lattice offset table, the FSM rows as a pre-resolved per-phase
//! table (turn codes already mapped to direction deltas), and the
//! empty field as one byte per cell (obstacle bit plus initial colour).
//! [`MultiWorld`](crate::MultiWorld) stamps that byte image into every
//! configuration it loads.
//!
//! The kernel is differentially tested against `World` (the oracle) in
//! `tests/differential.rs`: both are driven in lockstep and must agree on
//! every agent position, direction, state, colour, infoset and on
//! `t_comm` at every step.

use crate::behaviour::Behaviour;
use crate::config::{ColorInit, ConflictPolicy, InitStatePolicy, WorldConfig};
use crate::error::SimError;
use a2a_fsm::Genome;
use a2a_grid::{Dir, GridKind, Lattice};

/// Sentinel for "no cell" / "no agent" in the flat index tables.
pub(crate) const NONE: u32 = u32::MAX;

/// One FSM row with the turn code already resolved to a direction delta.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompiledEntry {
    pub(crate) next_state: u8,
    pub(crate) set_color: u8,
    /// Rotational steps, `turn_set.delta(turn)` precomputed.
    pub(crate) delta: u8,
    pub(crate) mv: bool,
}

/// Everything about a simulation that does not depend on the initial
/// configuration: lattice geometry, obstacles, initial colouring and the
/// compiled behaviour. Immutable and `Sync`, so one environment is shared
/// (via [`Arc`](std::sync::Arc)) by every run of a batch.
#[derive(Debug)]
pub(crate) struct KernelEnv {
    pub(crate) kind: GridKind,
    pub(crate) lattice: Lattice,
    pub(crate) conflict: ConflictPolicy,
    pub(crate) init_states: InitStatePolicy,
    pub(crate) n_states: u8,
    pub(crate) n_colors: u8,
    pub(crate) n_dirs: usize,
    /// Flat neighbour table: `fwd[cell * n_dirs + d]` is the cell one step
    /// along direction `d`, or [`NONE`] off a bordered field.
    pub(crate) fwd: Vec<u32>,
    /// Whether any `fwd` entry is [`NONE`] (bordered lattice). Toroidal
    /// fields are fully wrapped, so their exchange gathers skip the
    /// per-neighbour sentinel test entirely.
    pub(crate) has_border: bool,
    /// The empty field, one byte per cell: bit 0 is set on obstacles,
    /// bits 1.. hold the validated initial colour. Every run's cell
    /// state starts as a copy of this image.
    pub(crate) meta_init: Vec<u8>,
    /// Cells without the obstacle bit: the agent count of a fully
    /// packed configuration.
    pub(crate) free_cells: usize,
    /// Compiled FSM rows, one table per behaviour phase.
    pub(crate) phases: Vec<Vec<CompiledEntry>>,
}

impl KernelEnv {
    /// Validates the environment exactly as [`crate::World::with_behaviour`]
    /// does and precomputes the flat tables.
    pub(crate) fn new(config: &WorldConfig, behaviour: &Behaviour) -> Result<Self, SimError> {
        if !behaviour.is_consistent() {
            return Err(SimError::SpecMismatch(
                "time-shuffled behaviours need at least one FSM and a common spec".into(),
            ));
        }
        let spec = behaviour.spec();
        if spec.kind() != config.kind {
            return Err(SimError::SpecMismatch(format!(
                "genome drives {} agents but the world is {}",
                spec.kind(),
                config.kind
            )));
        }
        let lattice = config.lattice;
        let n_cells = lattice.len();
        if let Some(&p) = config.obstacles.iter().find(|&&p| !lattice.contains(p)) {
            return Err(SimError::OutsideField(p));
        }

        let colors = match &config.colors {
            ColorInit::AllZero => vec![0u8; n_cells],
            ColorInit::Pattern(pattern) => {
                if pattern.len() != n_cells {
                    return Err(SimError::SpecMismatch(format!(
                        "colour pattern has {} cells, field has {}",
                        pattern.len(),
                        n_cells
                    )));
                }
                pattern.clone()
            }
        };
        if let Some(&c) = colors.iter().find(|&&c| c >= spec.n_colors) {
            return Err(SimError::SpecMismatch(format!(
                "initial colour {c} exceeds the FSM's {} colours",
                spec.n_colors
            )));
        }
        let mut meta_init: Vec<u8> = colors.iter().map(|&c| c << 1).collect();
        for &p in &config.obstacles {
            meta_init[lattice.index_of(p)] |= 1;
        }

        let n_dirs = usize::from(config.kind.dir_count());
        let mut fwd = vec![NONE; n_cells * n_dirs];
        for c in 0..n_cells {
            let p = lattice.pos_at(c);
            for d in 0..n_dirs {
                if let Some(n) = lattice.neighbor(p, config.kind, Dir::new(d as u8)) {
                    fwd[c * n_dirs + d] = lattice.index_of(n) as u32;
                }
            }
        }

        let phases = (0..behaviour.phase_count())
            .map(|t| compile_genome(behaviour.genome_at(t as u32)))
            .collect();
        let has_border = fwd.contains(&NONE);
        let free_cells = meta_init.iter().filter(|&&m| m & 1 == 0).count();

        Ok(Self {
            kind: config.kind,
            lattice,
            conflict: config.conflict,
            init_states: config.init_states,
            n_states: spec.n_states,
            n_colors: spec.n_colors,
            n_dirs,
            fwd,
            has_border,
            meta_init,
            free_cells,
            phases,
        })
    }
}

/// Resolves every genome row to a [`CompiledEntry`].
fn compile_genome(genome: &Genome) -> Vec<CompiledEntry> {
    let spec = genome.spec();
    (0..spec.entry_count())
        .map(|i| {
            let e = genome.entry(i);
            CompiledEntry {
                next_state: e.next_state,
                set_color: e.action.set_color,
                delta: spec.turn_set.delta(e.action.turn),
                mv: e.action.mv,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::InitialConfig;
    use crate::multi::MultiWorld;
    use crate::world::World;
    use a2a_fsm::{best_s_agent, best_t_agent};
    use a2a_grid::Pos;

    fn cfg(kind: GridKind) -> WorldConfig {
        WorldConfig::paper(kind, 16)
    }

    /// A kernel world holding exactly `init`.
    fn one_run(config: &WorldConfig, genome: Genome, init: &InitialConfig) -> MultiWorld {
        let mut world = MultiWorld::new(config, genome).unwrap();
        world.load(init).unwrap();
        world
    }

    fn assert_lockstep(cfg: &WorldConfig, genome: Genome, init: &InitialConfig, steps: u32) {
        let mut slow = World::new(cfg, genome.clone(), init).unwrap();
        let mut fast = one_run(cfg, genome, init);
        for t in 0..=steps {
            assert_eq!(
                fast.positions(),
                slow.agents().iter().map(|a| a.pos()).collect::<Vec<_>>(),
                "positions diverge at t={t}"
            );
            assert_eq!(fast.colors(), slow.colors().to_vec(), "colours diverge at t={t}");
            assert_eq!(fast.informed_count(), slow.informed_count(), "informed at t={t}");
            slow.step();
            fast.step();
        }
    }

    #[test]
    fn matches_world_on_random_fields() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        for (kind, genome) in [
            (GridKind::Square, best_s_agent()),
            (GridKind::Triangulate, best_t_agent()),
        ] {
            let config = cfg(kind);
            let mut rng = SmallRng::seed_from_u64(5);
            let init =
                InitialConfig::random(config.lattice, kind, 16, &[], &mut rng).unwrap();
            assert_lockstep(&config, genome, &init, 60);
        }
    }

    #[test]
    fn fully_packed_takes_diameter_steps() {
        for (kind, expected) in [(GridKind::Square, 15), (GridKind::Triangulate, 9)] {
            let lattice = Lattice::torus(16, 16);
            let placements: Vec<(Pos, Dir)> =
                lattice.positions().map(|p| (p, Dir::new(0))).collect();
            let mut fast =
                one_run(&cfg(kind), a2a_fsm::best_agent(kind), &InitialConfig::new(placements));
            let outcome = fast.run(100);
            assert_eq!(outcome.t_comm, Some(expected), "{kind}");
        }
    }

    #[test]
    fn single_agent_is_informed_immediately() {
        let init = InitialConfig::new(vec![(Pos::new(4, 4), Dir::new(0))]);
        let mut w = one_run(&cfg(GridKind::Square), best_s_agent(), &init);
        assert_eq!(w.informed_count(), 1);
        assert_eq!(w.run(100).t_comm, Some(0));
    }

    #[test]
    fn rejects_kind_mismatch_and_bad_pattern() {
        assert!(matches!(
            MultiWorld::new(&cfg(GridKind::Square), best_t_agent()),
            Err(SimError::SpecMismatch(_))
        ));
        let mut config = cfg(GridKind::Square);
        config.colors = ColorInit::Pattern(vec![7u8; 256]);
        assert!(matches!(
            MultiWorld::new(&config, best_s_agent()),
            Err(SimError::SpecMismatch(_))
        ));
    }

    #[test]
    fn agent_info_reconstructs_infosets() {
        let init = InitialConfig::new(vec![
            (Pos::new(0, 0), Dir::new(0)),
            (Pos::new(1, 0), Dir::new(0)),
            (Pos::new(8, 8), Dir::new(0)),
        ]);
        let w = one_run(&cfg(GridKind::Square), best_s_agent(), &init);
        assert!(w.agent_info(0).contains(1), "adjacent pair exchanged at t=0");
        assert!(!w.agent_info(0).contains(2), "distant agent unknown");
        assert_eq!(w.agent_info(2).count(), 1);
    }

    #[test]
    fn conflict_losses_count_round_two_reperceptions() {
        use a2a_fsm::{FsmSpec, TableRow};
        // Two agents converging on (5,5): exactly one loser on step 1.
        let spec = FsmSpec::paper(GridKind::Square);
        let rows: Vec<TableRow> = (0..8)
            .map(|_| TableRow::from_digits("0000", "0000", "1111", "0000"))
            .collect();
        let straight = Genome::from_rows(spec, &rows);
        let init = InitialConfig::new(vec![
            (Pos::new(5, 4), Dir::new(1)),
            (Pos::new(5, 6), Dir::new(3)),
        ]);
        let mut w = one_run(&cfg(GridKind::Square), straight, &init);
        assert_eq!(w.conflict_losses(), 0);
        w.step();
        assert_eq!(w.conflict_losses(), 1, "id 1 lost the arbitration for (5,5)");
        assert_eq!(w.positions()[0], Pos::new(5, 5));
    }
}
