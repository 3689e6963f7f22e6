//! The one-run kernel world: one configuration of one compiled
//! environment, simulated in a structure-of-arrays object whose
//! buffers are reused from run to run.
//!
//! [`MultiWorld`] keeps the run's agent fields in flat arrays, its cell
//! state one byte per cell and its information sets cell-indexed for
//! every `k` (`⌈k/64⌉` words per cell), so the exchange is a plain OR
//! over the neighbour cells' words. An activity frontier keeps
//! saturated agents out of the exchange sweep. [`MultiWorld::load`]
//! re-seeds the same buffers for the next configuration, which is how
//! the batch layer runs a whole configuration set without allocating.
//!
//! Outcomes are **bit-identical** to running the configuration through
//! the reference [`World`](crate::World): the `act`/`exchange` bodies
//! replicate the oracle's step decision for decision. The differential
//! suite in `tests/differential.rs` drives both engines in lockstep.
//!
//! **Stuck runs end by arithmetic.** A run is a deterministic map on a
//! finite state, so a run that never completes is eventually periodic.
//! Once `informed` has stayed put for [`ORBIT_ARM`] counted steps,
//! [`MultiWorld::run`] keeps a Brent power-of-two snapshot of
//! everything the step map reads (positions, directions, control
//! states, cell bytes and each agent's infoset words), plus a wrapping
//! sum of the agent cells that rules most steps out with one compare.
//! When the live run equals the snapshot `λ` steps later, `λ` a whole
//! number of behaviour phases, every later period repeats this one and
//! no infoset can grow again (they only grow, and one came back), so
//! `run` adds the remaining whole periods to the time, the conflict
//! count and the active-step tally and steps only the remainder. The
//! end state is the one stepping would reach; [`MultiWorld::step`]
//! never skips.

use crate::behaviour::Behaviour;
use crate::config::{ConflictPolicy, WorldConfig};
use crate::error::SimError;
use crate::infoset::InfoSet;
use crate::init::InitialConfig;
use crate::kernel::{CompiledEntry, KernelEnv, NONE};
use crate::run::RunOutcome;
use a2a_fsm::Genome;
use a2a_grid::{Dir, GridKind, Pos};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Process-wide count of buffer-allocating kernel-world constructions:
/// one per [`MultiWorld::from_env`] plus one per [`MultiWorld::load`]
/// that had to grow a buffer. A world reloaded with a stable workload
/// shape must not move this counter, so a `run_all` call over a
/// non-empty set moves it by exactly 2, or by 1 when it loads nothing
/// (every configuration packed and its outcome reused) — asserted by
/// `crates/sim/tests/allocation.rs` and `allocation_multi.rs`.
static MULTI_BUFFER_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counted steps `informed` must stay unchanged before
/// [`MultiWorld::run`] arms periodic-orbit detection, and its first
/// Brent window.
const ORBIT_ARM: u32 = 16;

/// The one-run kernel world: same dynamics as [`World`](crate::World),
/// one loaded configuration at a time on buffers reused across loads.
///
/// # Examples
///
/// ```
/// use a2a_sim::{InitialConfig, MultiWorld, WorldConfig};
/// use a2a_fsm::best_t_agent;
/// use a2a_grid::GridKind;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// # fn main() -> Result<(), a2a_sim::SimError> {
/// let cfg = WorldConfig::paper(GridKind::Triangulate, 16);
/// let mut rng = SmallRng::seed_from_u64(1);
/// let mut world = MultiWorld::new(&cfg, best_t_agent())?;
/// for _ in 0..8 {
///     world.load(&InitialConfig::random(cfg.lattice, cfg.kind, 16, &[], &mut rng)?)?;
///     assert!(world.run(200).is_successful());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MultiWorld {
    env: Arc<KernelEnv>,

    /// Agents in the loaded run (`0` until a load succeeds).
    k: u32,
    /// Info words per cell: `k.div_ceil(64)`.
    stride: u32,
    /// Mask of valid bits in the last info word.
    tail_mask: u64,
    /// Informed agents (incremental counter).
    informed: u32,
    /// Movement conflicts lost so far.
    conflicts: u64,

    // Field state: `n_cells` entries plus the wall cell's (`stride`
    // words per cell in `cell_info`).
    /// Arbitration scratch, `n_cells` entries from construction on,
    /// all-`NONE` between steps: a claimed cell holds its winner until
    /// the winner moves in (see [`MultiWorld::act`]).
    claims: Vec<u32>,
    /// One byte of cell state per cell — bit 0 is the solid bit
    /// (occupancy ∪ obstacles ∪ the wall), bits 1.. the cell's colour.
    /// One byte load serves a neighbour's whole perception (blocked
    /// test and front colour), and colour writes and moves are plain
    /// byte stores. Every [`MultiWorld::load`] starts from the
    /// environment's empty-field image.
    meta: Vec<u8>,
    /// `stride` words per cell: each occupied cell holds its agent's
    /// info words, empty cells and the wall hold zeros. Cell-indexing
    /// makes the exchange gather a plain `w |= cell_info[neighbour]` —
    /// no occupant indirection, no branches, and empty neighbours OR in
    /// a no-op 0 — at the price of moving `stride` words per agent move
    /// in the apply pass.
    cell_info: Vec<u64>,

    // Agent state, `k` entries in ID order.
    pos: Vec<u32>,
    dir: Vec<u8>,
    state: Vec<u8>,
    /// Colour of each agent's own cell, mirrored out of `meta` (the
    /// invariant: `own_color[i] == meta[pos[i]] >> 1` between phases).
    /// Perception reads it directly, saving one field gather per agent
    /// per round.
    own_color: Vec<u8>,
    /// Activity frontier: a permutation of the agent IDs whose first
    /// [`MultiWorld::frontier_len`] entries are exactly the agents with
    /// unsaturated infosets; the rest are complete. Retirement is an
    /// O(1) swap with the prefix's last entry, so the saturation tail
    /// drops out of the exchange sweep instead of being skipped agent
    /// by agent.
    frontier: Vec<u32>,
    /// Live prefix length of [`MultiWorld::frontier`].
    frontier_len: u32,

    /// Wrapping sum of `pos`, kept by the apply loop: the orbit check's
    /// one-compare pre-filter.
    cell_sum: u32,
    /// Counted steps taken since the last load.
    time: u32,
    /// Counted steps the last [`MultiWorld::run`] skipped over a
    /// periodic orbit.
    skipped: u32,
    /// Active agent-steps (`k − informed` summed over the counted
    /// steps) of the last [`MultiWorld::run`].
    active_steps: u64,
    /// The Brent snapshot of [`MultiWorld::run`]'s orbit detection.
    snap: Snapshot,

    // Scratch reused across steps.
    /// Each agent's round-1 row and claimed front cell ([`NONE`] when
    /// it does not ask to move), by agent ID.
    decisions: Vec<(CompiledEntry, u32)>,
    /// Staging of gathered infosets: gathered from
    /// [`MultiWorld::cell_info`] into here, then committed back, so
    /// same-sweep peers read pre-exchange values. Wide (`stride > 1`)
    /// sweeps stage agent `i`'s words at `i * stride`; the one-word
    /// sweep stages into [`MultiWorld::wpairs`].
    wbuf: Vec<u64>,
    /// Staging of gathered one-word infosets as `(cell, word)` pairs in
    /// walk order — only active agents are staged, so both the gather
    /// and the commit loop are proportional to the live frontier, not
    /// `k`.
    wpairs: Vec<(u32, u64)>,
}

impl MultiWorld {
    /// An empty kernel world for a single-FSM behaviour; call
    /// [`MultiWorld::load`] to place a configuration.
    ///
    /// # Errors
    ///
    /// Exactly as [`crate::World::new`] for the environment checks.
    pub fn new(config: &WorldConfig, genome: Genome) -> Result<Self, SimError> {
        Self::with_behaviour(config, Behaviour::Single(genome))
    }

    /// Like [`MultiWorld::new`] with a full [`Behaviour`].
    ///
    /// # Errors
    ///
    /// Exactly as [`crate::World::with_behaviour`].
    pub fn with_behaviour(config: &WorldConfig, behaviour: Behaviour) -> Result<Self, SimError> {
        Ok(Self::from_env(Arc::new(KernelEnv::new(config, &behaviour)?)))
    }

    /// An empty kernel world over a shared environment. Its `claims`
    /// scratch is sized here, so [`MultiWorld::validate`] needs no
    /// load first.
    pub(crate) fn from_env(env: Arc<KernelEnv>) -> Self {
        MULTI_BUFFER_ALLOCS.fetch_add(1, Ordering::Relaxed);
        let n_cells = env.lattice.len();
        Self {
            env,
            k: 0,
            stride: 0,
            tail_mask: 0,
            informed: 0,
            conflicts: 0,
            claims: vec![NONE; n_cells],
            meta: Vec::new(),
            cell_info: Vec::new(),
            pos: Vec::new(),
            dir: Vec::new(),
            state: Vec::new(),
            own_color: Vec::new(),
            frontier: Vec::new(),
            frontier_len: 0,
            cell_sum: 0,
            time: 0,
            skipped: 0,
            active_steps: 0,
            snap: Snapshot::default(),
            decisions: Vec::new(),
            wbuf: Vec::new(),
            wpairs: Vec::new(),
        }
    }

    /// Process-wide count of buffer-allocating constructions (kernel
    /// worlds built plus [`MultiWorld::load`] calls that grew a
    /// buffer). Reloading a world with a stable workload
    /// shape keeps this constant; a [`BatchRunner::run_all`] call over a
    /// non-empty set moves it by 2 (its construction and its first,
    /// growing load), or by 1 when every configuration is packed and
    /// reuses the runner's first packed outcome (nothing is loaded).
    ///
    /// [`BatchRunner::run_all`]: crate::BatchRunner::run_all
    #[must_use]
    pub fn allocation_count() -> u64 {
        MULTI_BUFFER_ALLOCS.load(Ordering::Relaxed)
    }

    /// Total element capacity of every buffer. Loads only clear and
    /// refill, never shrink, so this grows exactly when a buffer did.
    fn capacity(&self) -> usize {
        self.claims.capacity()
            + self.meta.capacity()
            + self.cell_info.capacity()
            + self.pos.capacity()
            + self.dir.capacity()
            + self.state.capacity()
            + self.own_color.capacity()
            + self.frontier.capacity()
            + self.decisions.capacity()
            + self.wbuf.capacity()
            + self.wpairs.capacity()
            + self.snap.capacity()
    }

    /// Places one initial configuration and performs its uncounted
    /// `t = 0` exchange. Reuses every buffer: reloading a configuration
    /// no larger than one loaded before performs zero heap allocation.
    /// The configuration is validated and placed exactly as
    /// [`World::with_behaviour`](crate::World::with_behaviour) does, so
    /// the error matches a fresh construction's.
    ///
    /// # Errors
    ///
    /// The configuration's first placement error, exactly as a
    /// [`World`](crate::World) construction would report it. On error
    /// the world holds no run and must be re-loaded before use.
    pub fn load(&mut self, init: &InitialConfig) -> Result<(), SimError> {
        let env = Arc::clone(&self.env);
        let n_cells = env.lattice.len();
        let k = init.agent_count();
        let stride = k.div_ceil(64);

        // Reset every buffer to the run's shape up front, so placement
        // and stepping never grow one.
        let held = self.capacity();
        self.k = 0;
        self.meta.clear();
        self.meta.extend_from_slice(&env.meta_init);
        self.cell_info.clear();
        self.cell_info.resize((n_cells + 1) * stride, 0);
        self.pos.clear();
        self.pos.reserve(k);
        self.dir.clear();
        self.dir.reserve(k);
        self.state.clear();
        self.state.reserve(k);
        self.own_color.clear();
        self.own_color.reserve(k);
        // Every agent starts unsaturated (k = 1 resolves at the t = 0
        // exchange below, like everything else).
        self.frontier.clear();
        self.frontier.extend(0..k as u32);
        self.decisions.clear();
        self.decisions.resize(k, (CompiledEntry::default(), NONE));
        self.wbuf.clear();
        self.wbuf.reserve(k * stride);
        self.wpairs.clear();
        self.wpairs.resize(k, (0, 0));
        self.snap.reserve(k, n_cells + 1, stride);
        if self.capacity() != held {
            MULTI_BUFFER_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        self.validate(init)?;

        // Place: each agent's own bit goes into its cell's words.
        self.cell_sum = 0;
        for (i, &(p, d)) in init.placements().iter().enumerate() {
            let idx = env.lattice.index_of(p);
            self.cell_sum = self.cell_sum.wrapping_add(idx as u32);
            self.meta[idx] |= 1;
            self.cell_info[idx * stride + i / 64] |= 1u64 << (i % 64);
            self.pos.push(idx as u32);
            self.dir.push(d.index());
            self.state.push(env.init_states.state_for(i as u16, env.n_states));
            self.own_color.push(self.meta[idx] >> 1);
        }
        let tail = k % 64;
        self.k = k as u32;
        self.stride = stride as u32;
        self.tail_mask = if tail == 0 { u64::MAX } else { (1u64 << tail) - 1 };
        self.informed = 0;
        self.conflicts = 0;
        self.frontier_len = k as u32;
        self.time = 0;
        self.skipped = 0;
        self.active_steps = 0;

        // The uncounted exchange right after placement.
        self.exchange(&env);
        Ok(())
    }

    /// Checks `init` exactly as [`World::with_behaviour`] does, without
    /// placing it, so the first error is the one a fresh construction
    /// reports: no agents; then placement by placement an outside
    /// cell, an invalid direction or a duplicate cell; then too many
    /// agents; then the first agent on an obstacle. Allocates nothing:
    /// `claims` is the duplicate scratch, all-`NONE` again on return.
    ///
    /// [`World::with_behaviour`]: crate::World::with_behaviour
    ///
    /// # Errors
    ///
    /// The configuration's first placement error.
    pub(crate) fn validate(&mut self, init: &InitialConfig) -> Result<(), SimError> {
        let env = &*self.env;
        let claims = &mut self.claims;
        let placements = init.placements();
        if placements.is_empty() {
            return Err(SimError::NoAgents);
        }
        let (mut marked, mut invalid, mut on_obstacle) = (0usize, None, None);
        for &(pos, dir) in placements {
            if !env.lattice.contains(pos) {
                invalid = Some(SimError::OutsideField(pos));
                break;
            }
            if !dir.is_valid_for(env.kind) {
                invalid = Some(SimError::InvalidDirection {
                    index: dir.index(),
                    available: env.kind.dir_count(),
                });
                break;
            }
            let idx = env.lattice.index_of(pos);
            if claims[idx] != NONE {
                invalid = Some(SimError::DuplicatePosition(pos));
                break;
            }
            claims[idx] = 0;
            marked += 1;
            if env.meta_init[idx] & 1 != 0 {
                on_obstacle.get_or_insert(pos);
            }
        }
        for &(pos, _) in &placements[..marked] {
            claims[env.lattice.index_of(pos)] = NONE;
        }
        if let Some(e) = invalid {
            return Err(e);
        }
        let k = placements.len();
        if k > usize::from(u16::MAX) {
            return Err(SimError::TooManyAgents { requested: k, limit: usize::from(u16::MAX) });
        }
        on_obstacle.map_or(Ok(()), |p| Err(SimError::OnObstacle(p)))
    }

    /// Runs the loaded configuration until it is solved or `t_max`
    /// counted steps have passed, and returns its [`RunOutcome`] —
    /// bit-identical to what [`simulate`](crate::simulate) reports.
    ///
    /// A run caught in a periodic orbit jumps over its remaining whole
    /// periods (module docs); the outcome, the end state and every
    /// counter below are those of stepping to the horizon.
    ///
    /// With metrics on, feeds the per-run `kernel.*` series once per
    /// run (`kernel.runs` / `.steps` / `.conflicts` /
    /// `.frontier.active` counters, the `kernel.t_comm` and
    /// `kernel.run.conflicts` histograms, and
    /// `kernel.orbit.skipped_steps` for the steps jumped over).
    ///
    /// # Panics
    ///
    /// Panics if no configuration is loaded.
    pub fn run(&mut self, t_max: u32) -> RunOutcome {
        assert!(self.k > 0, "load a configuration before running");
        let env = Arc::clone(&self.env);
        // `kernel.frontier.active` counts active agent-steps (the work
        // the frontier sweep actually performs), published once per run
        // so parallel runs do not contend on the shared counter.
        // At `Trace`, the act and exchange phases are timed apart for
        // the profiler's phase table: two clock reads per step, the end
        // of one step's exchange being the start of the next one's act.
        let mut clock = a2a_obs::enabled(a2a_obs::Level::Trace).then(Instant::now);
        let (mut act_ns, mut exchange_ns, mut active_steps) = (0u64, 0u64, 0u64);
        let (mut informed, mut orbit) = (self.informed, Orbit::Quiet { since: self.time });
        self.skipped = 0;
        while self.informed < self.k && self.time < t_max {
            active_steps += u64::from(self.k - self.informed);
            let phase = &env.phases[self.time as usize % env.phases.len()];
            self.act(&env, phase);
            if let Some(t0) = clock {
                let t1 = Instant::now();
                self.exchange(&env);
                let t2 = Instant::now();
                act_ns += (t1 - t0).as_nanos() as u64;
                exchange_ns += (t2 - t1).as_nanos() as u64;
                clock = Some(t2);
            } else {
                self.exchange(&env);
            }
            self.time += 1;
            // Orbit detection (module docs); an agent completing
            // changes the state for good, so it starts over.
            if self.informed != informed {
                informed = self.informed;
                orbit = Orbit::Quiet { since: self.time };
            } else if let Some((lam, lost)) = self.watch_orbit(&mut orbit) {
                let periods = (t_max - self.time) / lam;
                self.skipped = periods * lam;
                self.time += self.skipped;
                self.conflicts += u64::from(periods) * lost;
                active_steps += u64::from(self.skipped) * u64::from(self.k - self.informed);
            }
        }
        let outcome = RunOutcome {
            t_comm: (self.informed == self.k).then_some(self.time),
            informed: self.informed as usize,
            agents: self.k as usize,
            steps: self.time,
        };
        if clock.is_some() {
            let reg = a2a_obs::global();
            reg.histogram("kernel.multi.act.ns").record(act_ns);
            reg.histogram("kernel.multi.exchange.ns").record(exchange_ns);
        }
        self.active_steps = active_steps;
        record_run(self.env.kind, &outcome, active_steps, self.conflicts, self.skipped);
        outcome
    }

    /// Advances the loaded run by one counted time step, solved or not
    /// — exactly like [`World::step`](crate::World::step) (agents keep
    /// acting after completion). This is the lockstep
    /// differential-test path; [`MultiWorld::run`] stops at
    /// completion.
    pub fn step(&mut self) {
        let env = Arc::clone(&self.env);
        let phase = &env.phases[self.time as usize % env.phases.len()];
        self.act(&env, phase);
        self.exchange(&env);
        self.time += 1;
    }

    /// Advances orbit detection past the counted step just taken, with
    /// `informed` unchanged since `orbit` last went quiet: arms once it
    /// has been quiet for [`ORBIT_ARM`] steps, then compares the live
    /// run with the snapshot and retakes it at the end of each Brent
    /// window. Returns the period `λ` and the conflicts lost over one
    /// period once the run equals the snapshot `λ` steps on, `λ` a
    /// whole number of behaviour phases.
    fn watch_orbit(&mut self, orbit: &mut Orbit) -> Option<(u32, u64)> {
        match *orbit {
            Orbit::Quiet { since } if self.time - since >= ORBIT_ARM => {
                self.take_snapshot();
                *orbit =
                    Orbit::Armed { at: self.time, window: ORBIT_ARM, conflicts: self.conflicts };
            }
            Orbit::Armed { at, window, conflicts } => {
                let lam = self.time - at;
                let phases = self.env.phases.len() as u32;
                if self.at_snapshot() && (phases == 1 || lam.is_multiple_of(phases)) {
                    *orbit = Orbit::Found;
                    return Some((lam, self.conflicts - conflicts));
                }
                if lam == window {
                    self.take_snapshot();
                    *orbit = Orbit::Armed {
                        at: self.time,
                        window: window.saturating_mul(2),
                        conflicts: self.conflicts,
                    };
                }
            }
            Orbit::Quiet { .. } | Orbit::Found => {}
        }
        None
    }

    /// Copies the live run state into [`MultiWorld::snap`], within the
    /// capacity [`MultiWorld::load`] reserved.
    fn take_snapshot(&mut self) {
        let stride = self.stride as usize;
        let snap = &mut self.snap;
        snap.cell_sum = self.cell_sum;
        snap.pos.clone_from(&self.pos);
        snap.dir.clone_from(&self.dir);
        snap.state.clone_from(&self.state);
        snap.meta.clone_from(&self.meta);
        snap.info.clear();
        for &c in &self.pos {
            snap.info.extend_from_slice(&self.cell_info[c as usize * stride..][..stride]);
        }
    }

    /// Whether the live run state equals [`MultiWorld::snap`]. The cell
    /// sums go first, then positions: they differ on almost every step
    /// of a moving run, so a miss usually costs one compare.
    fn at_snapshot(&self) -> bool {
        let stride = self.stride as usize;
        let snap = &self.snap;
        snap.cell_sum == self.cell_sum
            && snap.pos == self.pos
            && snap.dir == self.dir
            && snap.state == self.state
            && snap.meta == self.meta
            && self
                .pos
                .iter()
                .zip(snap.info.chunks_exact(stride))
                .all(|(&c, words)| self.cell_info[c as usize * stride..][..stride] == *words)
    }

    /// The act phase — the reference engine's perception, arbitration,
    /// colour writes and moves, decision for decision, table-driven.
    fn act(&mut self, env: &KernelEnv, phase: &[CompiledEntry]) {
        let n_states = usize::from(env.n_states);
        let n_colors = usize::from(env.n_colors);
        let n_dirs = env.n_dirs;
        let n_cells = env.lattice.len();
        let k = self.k as usize;
        let stride = self.stride as usize;

        // Slicing every array to its exact length up front lets the
        // loops below run without per-access bounds checks.
        let pos = &mut self.pos[..k];
        let dir = &mut self.dir[..k];
        let state = &mut self.state[..k];
        let own_color = &mut self.own_color[..k];
        let decisions = &mut self.decisions[..k];
        let claims = &mut self.claims[..n_cells];
        let cell_info = &mut self.cell_info[..(n_cells + 1) * stride];
        let meta = &mut self.meta[..=n_cells];

        // Round 1: perceive the pre-step configuration and claim the
        // front cells of move requests. IDs come in increasing order,
        // so the lowest claimant of a cell is its first, the highest
        // its last.
        for i in 0..k {
            let front = env.fwd[pos[i] as usize * n_dirs + usize::from(dir[i])];
            // One byte read covers the whole front perception: solid
            // bit and colour (the wall's is solid, colour 0).
            let front_meta = meta[front as usize];
            let hard_blocked = front_meta & 1 != 0;
            let x = usize::from(hard_blocked)
                + 2 * (usize::from(own_color[i]) + n_colors * usize::from(front_meta >> 1));
            let entry = phase[x * n_states + usize::from(state[i])];
            let mut target = NONE;
            if !hard_blocked && entry.mv {
                target = front;
                let claim = &mut claims[front as usize];
                *claim = match env.conflict {
                    ConflictPolicy::LowestId => (*claim).min(i as u32),
                    ConflictPolicy::HighestId => i as u32,
                };
            }
            decisions[i] = (entry, target);
        }

        // Apply in ID order, arbitrating on the way: an agent moves iff
        // its claim held, and clears the claim as it moves in. Each
        // claimed cell has one winner; under `LowestId` it is applied
        // before its losers, which then read `NONE`, under `HighestId`
        // after them, so they read its ID. Either way no loser reads
        // its own ID, and `claims` is all-`NONE` again afterwards.
        let nd = n_dirs as u8;
        let mut cell_sum = self.cell_sum;
        for i in 0..k {
            let (mut entry, target) = decisions[i];
            let (here, t) = (pos[i] as usize, target as usize);
            let won = target != NONE && claims[t] == i as u32;
            if won {
                claims[t] = NONE;
            } else if target != NONE {
                // Lost: re-perceive with blocked = 1 and stay put. The
                // contested cell keeps its pre-step colour all step (its
                // winner only sets the solid bit).
                self.conflicts += 1;
                let x = 1 + 2 * (usize::from(own_color[i]) + n_colors * usize::from(meta[t] >> 1));
                entry = phase[x * n_states + usize::from(state[i])];
            }
            state[i] = entry.next_state;
            // `delta < n_dirs`, so one conditional subtract replaces the
            // hardware division of a `%` reduction.
            let d = dir[i] + entry.delta;
            dir[i] = if d >= nd { d - nd } else { d };
            if won {
                // Vacated: colour written, solid bit dropped.
                meta[here] = entry.set_color << 1;
                // The target cell keeps its own colour; nobody else
                // writes it this step (it was free, so no agent's
                // `here` is `t`), so reading it back here is
                // pre-step-exact.
                let mt = meta[t] | 1;
                meta[t] = mt;
                own_color[i] = mt >> 1;
                // Move targets are distinct pre-step-free cells and
                // sources are occupied ones, so the word moves never
                // alias each other within a step.
                for w in 0..stride {
                    cell_info[t * stride + w] = cell_info[here * stride + w];
                    cell_info[here * stride + w] = 0;
                }
                pos[i] = target;
                cell_sum = cell_sum.wrapping_add(target).wrapping_sub(here as u32);
            } else {
                // Still occupied: solid bit stays set, colour is the
                // FSM's write.
                meta[here] = 1 | (entry.set_color << 1);
                own_color[i] = entry.set_color;
            }
        }
        self.cell_sum = cell_sum;
    }

    /// The exchange sweep: walk the live frontier prefix only,
    /// swap-removing each agent that saturates in O(1). This is exact,
    /// not approximate — a complete agent's exchange is a no-op by
    /// construction (its `cell_info` words are the all-ones fixed point,
    /// and neighbours keep reading them there). One-word runs
    /// stage `(cell, word)` pairs in [`MultiWorld::wpairs`] — staging
    /// and commit are both proportional to the frontier — so a run deep
    /// in its saturation tail costs almost nothing per step. Wide runs
    /// stage by agent in [`MultiWorld::wbuf`]; swap-removal permutes
    /// only within the walked prefix, so that prefix names exactly the
    /// staged agents at commit time.
    fn exchange(&mut self, env: &KernelEnv) {
        let n_dirs = env.n_dirs;
        let n_cells = env.lattice.len();
        let k = self.k as usize;
        let len = self.frontier_len as usize;
        if len == 0 {
            return;
        }
        let stride = self.stride as usize;
        let tail = self.tail_mask;
        let pos = &self.pos[..k];
        let frontier = &mut self.frontier[..k];
        let cell_info = &mut self.cell_info[..(n_cells + 1) * stride];

        if stride == 1 {
            let wpairs = &mut self.wpairs[..len];
            // Dispatch on the two real neighbourhood sizes, so the OR
            // loop unrolls.
            let live = match n_dirs {
                6 => gather_frontier::<6>(&env.fwd, cell_info, pos, frontier, wpairs, tail),
                4 => gather_frontier::<4>(&env.fwd, cell_info, pos, frontier, wpairs, tail),
                _ => unreachable!("square and triangulate cells have 4 and 6 neighbours"),
            };
            self.frontier_len = live as u32;
            self.informed += (len - live) as u32;
            // Commit the staged words; each active agent occupies a
            // distinct cell, so the stores never alias, and same-sweep
            // peers read only pre-exchange values.
            for &(c, w) in wpairs.iter() {
                cell_info[c as usize] = w;
            }
        } else {
            let wbuf = wide_stage(&mut self.wbuf, k * stride);
            let mut live = len;
            let mut j = 0;
            while j < live {
                let i = frontier[j] as usize;
                let here = pos[i] as usize;
                let acc = &mut wbuf[i * stride..i * stride + stride];
                if gather_wide(n_dirs, &env.fwd, cell_info, here, acc, tail) {
                    live -= 1;
                    frontier[j] = frontier[live];
                    frontier[live] = i as u32;
                } else {
                    j += 1;
                }
            }
            self.frontier_len = live as u32;
            self.informed += (len - live) as u32;
            for &i in &frontier[..len] {
                let (i, here) = (i as usize, pos[i as usize] as usize);
                cell_info[here * stride..here * stride + stride]
                    .copy_from_slice(&wbuf[i * stride..i * stride + stride]);
            }
        }
    }

    /// Counted steps taken since the last load.
    #[must_use]
    pub fn time(&self) -> u32 {
        self.time
    }

    /// Agents in the loaded run.
    #[must_use]
    pub fn agent_count(&self) -> usize {
        self.k as usize
    }

    /// Informed agents.
    #[must_use]
    pub fn informed_count(&self) -> usize {
        self.informed as usize
    }

    /// Movement conflicts lost so far.
    #[must_use]
    pub fn conflict_losses(&self) -> u64 {
        self.conflicts
    }

    /// Active agent-steps of the last [`MultiWorld::run`]: what it added
    /// to `kernel.frontier.active`.
    pub(crate) fn active_steps(&self) -> u64 {
        self.active_steps
    }

    /// The active agent IDs — exactly the agents whose infoset is not
    /// yet saturated — in unspecified order.
    #[must_use]
    pub fn active_agents(&self) -> Vec<u32> {
        self.frontier[..self.frontier_len as usize].to_vec()
    }

    /// Agent positions in ID order.
    #[must_use]
    pub fn positions(&self) -> Vec<Pos> {
        self.pos[..self.k as usize].iter().map(|&c| self.env.lattice.pos_at(c as usize)).collect()
    }

    /// Agent directions in ID order.
    #[must_use]
    pub fn dirs(&self) -> Vec<Dir> {
        self.dir[..self.k as usize].iter().map(|&d| Dir::new(d)).collect()
    }

    /// Agent control states in ID order.
    #[must_use]
    pub fn states(&self) -> Vec<u8> {
        self.state[..self.k as usize].to_vec()
    }

    /// Row-major cell colours, unpacked from the cell bytes (the wall
    /// cell is not one of them).
    #[must_use]
    pub fn colors(&self) -> Vec<u8> {
        self.meta.iter().take(self.env.lattice.len()).map(|m| m >> 1).collect()
    }

    /// Agent `i`'s communication vector as an [`InfoSet`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn agent_info(&self, i: usize) -> InfoSet {
        let k = self.k as usize;
        assert!(i < k, "agent {i} out of range for {k} agents");
        let stride = self.stride as usize;
        let cell = self.pos[i] as usize;
        let words = &self.cell_info[cell * stride..][..stride];
        let mut set = InfoSet::empty(k);
        for b in 0..k {
            if words[b / 64] & (1u64 << (b % 64)) != 0 {
                set.insert(b);
            }
        }
        set
    }
}

/// With metrics on, feeds one run's `kernel.*` series: the
/// `kernel.runs`, `.steps`, `.frontier.active` (`active_steps`, the
/// agent-steps the frontier sweep performs) and `.conflicts` counters,
/// the `kernel.run.conflicts` histogram, `kernel.t_comm` or
/// `kernel.unsuccessful`, `kernel.orbit.skipped_steps` for the counted
/// steps `run` jumped over a periodic orbit, and a Debug `kernel.run`
/// event. [`MultiWorld::run`] calls it once per run; the batch layer
/// calls it for a packed configuration whose outcome it reuses
/// (`skipped` 0: nothing was stepped, so nothing was jumped over).
pub(crate) fn record_run(
    kind: GridKind,
    outcome: &RunOutcome,
    active_steps: u64,
    conflicts: u64,
    skipped: u32,
) {
    if !a2a_obs::metrics_enabled() {
        return;
    }
    let reg = a2a_obs::global();
    reg.counter("kernel.runs").incr();
    reg.counter("kernel.steps").add(u64::from(outcome.steps));
    reg.counter("kernel.frontier.active").add(active_steps);
    reg.counter("kernel.conflicts").add(conflicts);
    reg.histogram("kernel.run.conflicts").record(conflicts);
    if skipped > 0 {
        reg.counter("kernel.orbit.skipped_steps").add(u64::from(skipped));
    }
    match outcome.t_comm {
        Some(t) => reg.histogram("kernel.t_comm").record(u64::from(t)),
        None => reg.counter("kernel.unsuccessful").incr(),
    }
    // Field-compatible with the reference engine's `world.run`, so
    // differential runs line up in one event stream.
    if a2a_obs::enabled(a2a_obs::Level::Debug) {
        a2a_obs::event!(a2a_obs::Level::Debug, "kernel.run",
            "engine" => "multi",
            "grid" => kind.to_string(),
            "k" => outcome.agents,
            "steps" => outcome.steps,
            "t_comm" => outcome.t_comm.map_or(-1i64, i64::from),
            "informed" => outcome.informed,
            "conflicts" => conflicts);
    }
}

/// Where one [`MultiWorld::run`] call's periodic-orbit detection stands.
#[derive(Debug, Clone, Copy)]
enum Orbit {
    /// `informed` last changed at time `since`.
    Quiet { since: u32 },
    /// The snapshot holds the run at time `at`, when `conflicts` had
    /// been lost; it is retaken at `at + window`.
    Armed { at: u32, window: u32, conflicts: u64 },
    /// The period was found and skipped: less than one period is left.
    Found,
}

/// Everything the step map reads, copied out of a [`MultiWorld`] for
/// orbit detection. Empty cells hold zero info words, and `own_color`,
/// `informed`, the frontier's agent set and the all-`NONE` `claims`
/// follow from these fields, so equal snapshots mean equal futures.
#[derive(Debug, Default)]
struct Snapshot {
    cell_sum: u32,
    pos: Vec<u32>,
    dir: Vec<u8>,
    state: Vec<u8>,
    meta: Vec<u8>,
    /// Each agent's `stride` info words, in ID order.
    info: Vec<u64>,
}

impl Snapshot {
    /// Empties the snapshot and reserves a run of `k` agents on
    /// `n_cells` cells with `stride` info words each.
    fn reserve(&mut self, k: usize, n_cells: usize, stride: usize) {
        self.pos.clear();
        self.pos.reserve(k);
        self.dir.clear();
        self.dir.reserve(k);
        self.state.clear();
        self.state.reserve(k);
        self.meta.clear();
        self.meta.reserve(n_cells);
        self.info.clear();
        self.info.reserve(k * stride);
    }

    fn capacity(&self) -> usize {
        self.pos.capacity()
            + self.dir.capacity()
            + self.state.capacity()
            + self.meta.capacity()
            + self.info.capacity()
    }
}

/// The frontier one-word gather: walks the run's live frontier prefix,
/// staging `(cell, gathered word)` pairs for exactly the active agents
/// — one per slot of `wpairs`, which holds the prefix's length — and
/// swap-removing each agent that saturates. `D` fixes the neighbourhood
/// size at compile time so the OR loop fully unrolls. Returns the new
/// live length; the caller derives the newly informed count as
/// `wpairs.len() - returned`.
fn gather_frontier<const D: usize>(
    fwd: &[u32],
    cell_info: &[u64],
    pos: &[u32],
    frontier: &mut [u32],
    wpairs: &mut [(u32, u64)],
    tail: u64,
) -> usize {
    // Each slot stages the agent at `j`, then either advances `j` or
    // shrinks the prefix, so `j < len` holds at every slot.
    let (mut j, mut len) = (0, wpairs.len());
    for slot in wpairs {
        let i = frontier[j] as usize;
        let here = pos[i] as usize;
        let mut w = cell_info[here];
        let row: [u32; D] = fwd[here * D..here * D + D].try_into().expect("row length is D");
        for nc in row {
            w |= cell_info[nc as usize];
        }
        *slot = (here as u32, w);
        if w == tail {
            len -= 1;
            frontier[j] = frontier[len];
            frontier[len] = i as u32;
        } else {
            j += 1;
        }
    }
    len
}

/// The wide staging area for a run of `words` staged words: grows
/// `wbuf` (within the capacity [`MultiWorld::load`] reserved) without
/// clearing it, since every sweep writes each word before reading it.
fn wide_stage(wbuf: &mut Vec<u64>, words: usize) -> &mut [u64] {
    debug_assert!(words <= wbuf.capacity(), "load reserves the run's staging");
    if wbuf.len() < words {
        wbuf.resize(words, 0);
    }
    &mut wbuf[..words]
}

/// The wide (`stride > 1`) gather of the agent on cell `here` into its
/// staged words `acc`: ORs the cell's `stride` words with those of its
/// `n_dirs` neighbour cells (empty cells hold zeros, so no occupant
/// lookup is needed) and reports whether the vector is complete.
#[inline(always)]
fn gather_wide(
    n_dirs: usize,
    fwd: &[u32],
    cell_info: &[u64],
    here: usize,
    acc: &mut [u64],
    tail: u64,
) -> bool {
    match n_dirs {
        6 => gather_wide_rows::<6>(fwd, cell_info, here, acc),
        4 => gather_wide_rows::<4>(fwd, cell_info, here, acc),
        _ => unreachable!("square and triangulate cells have 4 and 6 neighbours"),
    }
    let (&last, full) = acc.split_last().expect("stride is at least 1");
    last == tail && full.iter().all(|&w| w == u64::MAX)
}

/// [`gather_wide`]'s OR with the neighbourhood size `D` fixed at compile
/// time, so the neighbour loop unrolls and each word accumulates in a
/// register.
#[inline(always)]
fn gather_wide_rows<const D: usize>(fwd: &[u32], cell_info: &[u64], here: usize, acc: &mut [u64]) {
    let stride = acc.len();
    let row: [u32; D] = fwd[here * D..here * D + D].try_into().expect("row length is D");
    let mut cells: [&[u64]; D] = [&[]; D];
    for (cell, nc) in cells.iter_mut().zip(row) {
        let c = nc as usize;
        *cell = &cell_info[c * stride..c * stride + stride];
    }
    let own = &cell_info[here * stride..here * stride + stride];
    for w in 0..stride {
        let mut x = own[w];
        for cell in &cells {
            x |= cell[w];
        }
        acc[w] = x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{simulate, simulate_behaviour};
    use crate::world::World;
    use a2a_fsm::{ballistic, best_s_agent, best_t_agent, Action, Entry, FsmSpec};
    use a2a_grid::GridKind;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn cfg(kind: GridKind) -> WorldConfig {
        WorldConfig::paper(kind, 16)
    }

    fn random_batch(config: &WorldConfig, ks: &[usize], seed: u64) -> Vec<InitialConfig> {
        let mut rng = SmallRng::seed_from_u64(seed);
        ks.iter()
            .map(|&k| {
                InitialConfig::random(config.lattice, config.kind, k, &[], &mut rng).unwrap()
            })
            .collect()
    }

    #[test]
    fn outcomes_match_world_oracle_exactly() {
        for (kind, genome) in
            [(GridKind::Square, best_s_agent()), (GridKind::Triangulate, best_t_agent())]
        {
            let config = cfg(kind);
            // Ragged agent counts through one reloaded world, including
            // a k > 64 run (two infoset words per cell) and a k = 1 run
            // (solved at t = 0).
            let mut multi = MultiWorld::new(&config, genome.clone()).unwrap();
            for init in random_batch(&config, &[16, 1, 70, 4, 16, 33], 7) {
                multi.load(&init).unwrap();
                let expected = simulate(&config, genome.clone(), &init, 300).unwrap();
                assert_eq!(multi.run(300), expected, "{kind} k={}", init.agent_count());
            }
        }
    }

    #[test]
    fn lockstep_step_matches_world_per_run() {
        let config = cfg(GridKind::Triangulate);
        let mut multi = MultiWorld::new(&config, best_t_agent()).unwrap();
        for (r, init) in random_batch(&config, &[12, 5, 12], 11).iter().enumerate() {
            let mut world = World::new(&config, best_t_agent(), init).unwrap();
            multi.load(init).unwrap();
            for t in 0..40 {
                let agents = world.agents();
                let positions: Vec<Pos> = agents.iter().map(|a| a.pos()).collect();
                let states: Vec<u8> = agents.iter().map(|a| a.state()).collect();
                assert_eq!(multi.positions(), positions, "run {r} t={t}");
                assert_eq!(multi.states(), states, "run {r} t={t}");
                assert_eq!(multi.colors(), world.colors(), "run {r} t={t}");
                assert_eq!(multi.informed_count(), world.informed_count(), "run {r} t={t}");
                for (i, agent) in agents.iter().enumerate() {
                    assert_eq!(multi.agent_info(i), *agent.info(), "run {r} t={t}");
                }
                multi.step();
                world.step();
            }
        }
    }

    #[test]
    fn reload_reuses_buffers_and_matches_fresh() {
        let config = cfg(GridKind::Triangulate);
        let mut multi = MultiWorld::new(&config, best_t_agent()).unwrap();
        multi.load(&random_batch(&config, &[16], 1)[0]).unwrap();
        let _ = multi.run(200);
        for init in random_batch(&config, &[16; 8], 2) {
            multi.load(&init).unwrap();
            let got = multi.run(200);
            let mut fresh = MultiWorld::new(&config, best_t_agent()).unwrap();
            fresh.load(&init).unwrap();
            assert_eq!(got, fresh.run(200));
        }
        // The zero-allocation guarantee of reuse is asserted in
        // tests/allocation.rs — the process-global counter cannot be
        // compared exactly here, where tests run concurrently.
    }

    #[test]
    fn load_replicates_serial_error_order() {
        let config = cfg(GridKind::Square);
        let good = InitialConfig::new(vec![(Pos::new(1, 1), Dir::new(0))]);
        let mut multi = MultiWorld::new(&config, best_s_agent()).unwrap();
        // The first failing placement wins, later ones are not reached.
        let dup_then_outside = InitialConfig::new(vec![
            (Pos::new(2, 2), Dir::new(0)),
            (Pos::new(2, 2), Dir::new(1)),
            (Pos::new(99, 0), Dir::new(0)),
        ]);
        assert!(matches!(multi.load(&dup_then_outside), Err(SimError::DuplicatePosition(_))));
        let outside_then_dup = InitialConfig::new(vec![
            (Pos::new(99, 0), Dir::new(0)),
            (Pos::new(2, 2), Dir::new(0)),
            (Pos::new(2, 2), Dir::new(1)),
        ]);
        assert!(matches!(multi.load(&outside_then_dup), Err(SimError::OutsideField(_))));
        assert!(matches!(multi.load(&InitialConfig::new(Vec::new())), Err(SimError::NoAgents)));
        // A failed load leaves the world reloadable.
        multi.load(&good).unwrap();
        assert_eq!(multi.run(50).t_comm, Some(0));
    }

    /// A paper-spec genome that keeps its control state and writes
    /// colour 0, acting `free` on a free front and `blocked` on a
    /// blocked one.
    fn reflex(kind: GridKind, free: Action, blocked: Action) -> Genome {
        let spec = FsmSpec::paper(kind);
        let n_states = usize::from(spec.n_states);
        let entries = (0..spec.entry_count())
            .map(|i| Entry {
                next_state: (i % n_states) as u8,
                action: if (i / n_states) % 2 == 0 { free } else { blocked },
            })
            .collect();
        Genome::from_entries(spec, entries)
    }

    /// Runs `init` to `t_max` through `run` and through `step` alone,
    /// which never skips. Asserts that `run` reports the reference
    /// engine's outcome and ends in the stepped world's state, time and
    /// conflict count; returns the steps `run` skipped.
    fn skipped_by_run(
        config: &WorldConfig,
        behaviour: &Behaviour,
        init: &InitialConfig,
        t_max: u32,
    ) -> u32 {
        let mut run = MultiWorld::with_behaviour(config, behaviour.clone()).unwrap();
        run.load(init).unwrap();
        let outcome = run.run(t_max);
        assert_eq!(outcome, simulate_behaviour(config, behaviour.clone(), init, t_max).unwrap());
        let mut stepped = MultiWorld::with_behaviour(config, behaviour.clone()).unwrap();
        stepped.load(init).unwrap();
        while stepped.informed_count() < stepped.agent_count() && stepped.time() < t_max {
            stepped.step();
        }
        assert_eq!(run.time(), stepped.time());
        assert_eq!(run.conflict_losses(), stepped.conflict_losses());
        assert_eq!(run.positions(), stepped.positions());
        assert_eq!(run.dirs(), stepped.dirs());
        assert_eq!(run.states(), stepped.states());
        assert_eq!(run.colors(), stepped.colors());
        for i in 0..run.agent_count() {
            assert_eq!(run.agent_info(i), stepped.agent_info(i), "agent {i}");
        }
        run.skipped
    }

    /// Two agents too far apart to ever exchange.
    fn apart() -> InitialConfig {
        InitialConfig::new(vec![(Pos::new(0, 0), Dir::new(0)), (Pos::new(3, 8), Dir::new(1))])
    }

    #[test]
    fn standing_still_is_skipped_with_period_one() {
        let still = Action::new(0, false, 0);
        for kind in [GridKind::Square, GridKind::Triangulate] {
            let behaviour = Behaviour::Single(reflex(kind, still, still));
            // Quiet since t = 0: the snapshot is taken at t = 16 and met
            // again one step later, so everything after t = 17 is skipped.
            let skipped = skipped_by_run(&cfg(kind), &behaviour, &apart(), 200);
            assert_eq!(skipped, 200 - (ORBIT_ARM + 1), "{kind}");
        }
    }

    #[test]
    fn spreading_information_defers_the_skip() {
        // A standing chain of 24 agents plus one far away: nobody ever
        // completes, and bits cross the chain one cell per step until
        // t = 22. Positions repeat from the start, but the snapshot
        // taken at t = 16 is never met again; the next one, at t = 32,
        // is met one step later.
        let kind = GridKind::Square;
        let still = Action::new(0, false, 0);
        let mut placements: Vec<(Pos, Dir)> =
            (0..24).map(|x| (Pos::new(x, 0), Dir::new(0))).collect();
        placements.push((Pos::new(16, 16), Dir::new(0)));
        let config = WorldConfig::paper(kind, 32);
        let behaviour = Behaviour::Single(reflex(kind, still, still));
        let skipped = skipped_by_run(&config, &behaviour, &InitialConfig::new(placements), 200);
        assert_eq!(skipped, 200 - (2 * ORBIT_ARM + 1));
    }

    #[test]
    fn straight_walkers_skip_whole_laps_and_step_the_remainder() {
        // Two walkers on parallel rows of the 16-torus: period 16. The
        // orbit closes at t = 32, leaving 168 steps: 10 whole laps are
        // skipped and the last 8 steps are stepped.
        let kind = GridKind::Square;
        let init =
            InitialConfig::new(vec![(Pos::new(0, 0), Dir::new(0)), (Pos::new(5, 8), Dir::new(0))]);
        let skipped = skipped_by_run(&cfg(kind), &Behaviour::Single(ballistic(kind)), &init, 200);
        assert_eq!(skipped, 160);
    }

    #[test]
    fn time_shuffled_pairs_skip_only_whole_phase_cycles() {
        // Standing still on even steps and turning right on odd ones:
        // the state comes back after one step at every even time, but
        // a period must span whole phase cycles. The directions cycle
        // with period 8, met at t = 24, so 22 periods are skipped.
        let kind = GridKind::Square;
        let behaviour = Behaviour::shuffled_pair(
            reflex(kind, Action::new(0, false, 0), Action::new(0, false, 0)),
            reflex(kind, Action::new(1, false, 0), Action::new(1, false, 0)),
        );
        let skipped = skipped_by_run(&cfg(kind), &behaviour, &apart(), 200);
        assert_eq!(skipped, 176);
    }

    #[test]
    fn conflicts_lost_every_period_are_extrapolated() {
        // Shuttles move and turn back while free and stand still when
        // blocked. Agents 0 and 1 contend for (5,5) every second step
        // and agent 1 loses every time; agent 2 shuttles alone, so
        // nobody ever completes.
        let kind = GridKind::Square;
        let shuttle = reflex(kind, Action::new(2, true, 0), Action::new(0, false, 0));
        let init = InitialConfig::new(vec![
            (Pos::new(5, 4), Dir::new(1)),
            (Pos::new(5, 6), Dir::new(3)),
            (Pos::new(12, 12), Dir::new(0)),
        ]);
        let behaviour = Behaviour::Single(shuttle);
        assert!(skipped_by_run(&cfg(kind), &behaviour, &init, 201) > 0);
        let mut world = MultiWorld::with_behaviour(&cfg(kind), behaviour).unwrap();
        world.load(&init).unwrap();
        assert_eq!(world.run(201).t_comm, None);
        assert_eq!(world.conflict_losses(), 101, "one loss per period, the last one at t = 201");
    }

    #[test]
    fn obstacle_placement_rejected_per_run() {
        let mut config = cfg(GridKind::Square);
        config.obstacles = vec![Pos::new(3, 3)];
        let on_obstacle = InitialConfig::new(vec![
            (Pos::new(1, 1), Dir::new(0)),
            (Pos::new(3, 3), Dir::new(0)),
        ]);
        let mut multi = MultiWorld::new(&config, best_s_agent()).unwrap();
        assert!(matches!(multi.load(&on_obstacle), Err(SimError::OnObstacle(_))));
    }
}
