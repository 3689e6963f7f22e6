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

use crate::behaviour::Behaviour;
use crate::config::{ConflictPolicy, WorldConfig};
use crate::error::SimError;
use crate::infoset::InfoSet;
use crate::init::InitialConfig;
use crate::kernel::{CompiledEntry, KernelEnv, NONE};
use crate::run::RunOutcome;
use a2a_fsm::Genome;
use a2a_grid::{Dir, Pos};
use a2a_obs::HistogramSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Process-wide count of buffer-allocating kernel-world constructions:
/// one per [`MultiWorld::from_env`] plus one per [`MultiWorld::load`]
/// that had to grow a buffer. The batch layer's steady state (pooled
/// reuse with a stable workload shape) must not move this counter —
/// asserted by `crates/sim/tests/allocation.rs` and `allocation_multi.rs`.
static MULTI_BUFFER_ALLOCS: AtomicU64 = AtomicU64::new(0);

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

    // Field state, `n_cells` entries (`stride` words per cell in
    // `cell_info`).
    /// Arbitration scratch, all-`NONE` between steps.
    claims: Vec<u32>,
    /// One byte of cell state per cell — bit 0 is the solid bit
    /// (occupancy ∪ obstacles), bits 1.. the cell's colour. One byte
    /// load serves a neighbour's whole perception (blocked test and
    /// front colour), and colour writes and moves are plain byte
    /// stores. Every [`MultiWorld::load`] starts from the environment's
    /// empty-field image.
    meta: Vec<u8>,
    /// `stride` words per cell: each occupied cell holds its agent's
    /// info words, empty cells hold zeros. Cell-indexing makes the
    /// exchange gather a plain `w |= cell_info[neighbour]` — no
    /// occupant indirection, no branches, and empty neighbours OR in a
    /// no-op 0 — at the price of moving `stride` words per agent move
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
    complete: Vec<bool>,
    /// Activity frontier: a permutation of the agent IDs whose first
    /// [`MultiWorld::frontier_len`] entries are exactly the agents with
    /// unsaturated infosets. Retirement is an O(1) swap with the
    /// prefix's last entry, so the saturation tail drops out of the
    /// exchange sweep instead of being skipped agent by agent. Stale in
    /// dense mode ([`MultiWorld::set_dense`] rebuilds it on re-entry to
    /// frontier mode).
    frontier: Vec<u32>,
    /// Live prefix length of [`MultiWorld::frontier`].
    frontier_len: u32,

    /// Counted steps taken since the last load.
    time: u32,
    /// Dense-scan compatibility mode: `true` replays the pre-frontier
    /// full-`k` exchange sweep (the in-process baseline the kernel
    /// bench measures `frontier_speedup` against); `false` (the
    /// default) walks the activity frontier.
    dense: bool,

    // Scratch reused across steps.
    requests: Vec<(u32, u32)>,
    decisions: Vec<(CompiledEntry, u32)>,
    /// Staging of gathered infosets: gathered from
    /// [`MultiWorld::cell_info`] into here, then committed back, so
    /// same-sweep peers read pre-exchange values. Dense one-word sweeps
    /// push one word per agent; wide (`stride > 1`) sweeps stage agent
    /// `i`'s words at `i * stride`. The one-word frontier sweep stages
    /// into [`MultiWorld::wpairs`].
    wbuf: Vec<u64>,
    /// Frontier-mode staging of gathered one-word infosets as
    /// `(cell, word)` pairs — only active agents are staged, so both
    /// the gather and the commit loop are proportional to the live
    /// frontier, not `k`.
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

    /// An empty kernel world over a shared environment.
    pub(crate) fn from_env(env: Arc<KernelEnv>) -> Self {
        MULTI_BUFFER_ALLOCS.fetch_add(1, Ordering::Relaxed);
        Self {
            env,
            k: 0,
            stride: 0,
            tail_mask: 0,
            informed: 0,
            conflicts: 0,
            claims: Vec::new(),
            meta: Vec::new(),
            cell_info: Vec::new(),
            pos: Vec::new(),
            dir: Vec::new(),
            state: Vec::new(),
            own_color: Vec::new(),
            complete: Vec::new(),
            frontier: Vec::new(),
            frontier_len: 0,
            time: 0,
            dense: false,
            requests: Vec::new(),
            decisions: Vec::new(),
            wbuf: Vec::new(),
            wpairs: Vec::new(),
        }
    }

    /// Whether this world was compiled from exactly `env` (pointer
    /// identity) — the reuse precondition of [`MultiWorld::load`].
    pub(crate) fn shares_env(&self, env: &Arc<KernelEnv>) -> bool {
        Arc::ptr_eq(&self.env, env)
    }

    /// Process-wide count of buffer-allocating constructions
    /// ([`MultiWorld::from_env`] calls plus [`MultiWorld::load`] calls
    /// that grew a buffer). A reuse-only steady state keeps this
    /// constant — the zero-allocation acceptance check of the pooled
    /// batch layer.
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
            + self.complete.capacity()
            + self.frontier.capacity()
            + self.requests.capacity()
            + self.decisions.capacity()
            + self.wbuf.capacity()
            + self.wpairs.capacity()
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
        self.claims.clear();
        self.claims.resize(n_cells, NONE);
        self.meta.clear();
        self.meta.extend_from_slice(&env.meta_init);
        self.cell_info.clear();
        self.cell_info.resize(n_cells * stride, 0);
        self.pos.clear();
        self.pos.reserve(k);
        self.dir.clear();
        self.dir.reserve(k);
        self.state.clear();
        self.state.reserve(k);
        self.own_color.clear();
        self.own_color.reserve(k);
        self.complete.clear();
        self.complete.resize(k, false);
        // Every agent starts unsaturated (k = 1 resolves at the t = 0
        // exchange below, like everything else).
        self.frontier.clear();
        self.frontier.extend(0..k as u32);
        self.requests.clear();
        self.requests.reserve(k);
        self.decisions.clear();
        self.decisions.reserve(k);
        self.wbuf.clear();
        self.wbuf.reserve(k * stride);
        self.wpairs.clear();
        self.wpairs.reserve(k);
        if self.capacity() != held {
            MULTI_BUFFER_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }

        // Pass 1 — validate without allocating, replicating
        // `InitialConfig::validate` check for check (error order
        // matters to callers). The claims array doubles as the
        // duplicate scratch: it is all-NONE between steps.
        if init.placements().is_empty() {
            return Err(SimError::NoAgents);
        }
        let mut marked = 0usize;
        let mut invalid = None;
        for &(pos, dir) in init.placements() {
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
            if self.claims[idx] != NONE {
                invalid = Some(SimError::DuplicatePosition(pos));
                break;
            }
            self.claims[idx] = 0;
            marked += 1;
        }
        for &(pos, _) in &init.placements()[..marked] {
            self.claims[env.lattice.index_of(pos)] = NONE;
        }
        if let Some(e) = invalid {
            return Err(e);
        }
        if k > usize::from(u16::MAX) {
            return Err(SimError::TooManyAgents { requested: k, limit: usize::from(u16::MAX) });
        }

        // Pass 2 — place: each agent's own bit goes into its cell's
        // words.
        for (i, &(p, d)) in init.placements().iter().enumerate() {
            let idx = env.lattice.index_of(p);
            if env.meta_init[idx] & 1 != 0 {
                return Err(SimError::OnObstacle(p));
            }
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

        // The uncounted exchange right after placement.
        self.exchange(&env);
        Ok(())
    }

    /// Runs the loaded configuration until it is solved or `t_max`
    /// counted steps have passed, and returns its [`RunOutcome`] —
    /// bit-identical to what [`simulate`](crate::simulate) reports.
    ///
    /// With metrics on, feeds the per-run `kernel.*` series once per
    /// run (`kernel.runs` / `.steps` / `.conflicts` /
    /// `.frontier.active` counters, the `kernel.t_comm` and
    /// `kernel.run.conflicts` histograms) and one
    /// `kernel.frontier.active_pct` sample per step.
    ///
    /// # Panics
    ///
    /// Panics if no configuration is loaded.
    pub fn run(&mut self, t_max: u32) -> RunOutcome {
        assert!(self.k > 0, "load a configuration before running");
        let env = Arc::clone(&self.env);
        // `kernel.frontier.active` counts active agent-steps (the work
        // the frontier sweep actually performs); the `_pct` histogram
        // samples each step's active fraction. Both derive from
        // `k - informed`, so they are exact in dense mode too. The
        // samples go into a local histogram, `Some` exactly when metrics
        // are on, and are published once per run, so parallel runs do
        // not contend on the shared histogram every step.
        let mut active_pct = a2a_obs::metrics_enabled().then(HistogramSnapshot::default);
        // At `Trace`, the act and exchange phases are timed apart for
        // the profiler's phase table: two clock reads per step, the end
        // of one step's exchange being the start of the next one's act.
        let mut clock = a2a_obs::enabled(a2a_obs::Level::Trace).then(Instant::now);
        let (mut act_ns, mut exchange_ns, mut active_steps) = (0u64, 0u64, 0u64);
        while self.informed < self.k && self.time < t_max {
            let active = u64::from(self.k - self.informed);
            active_steps += active;
            if let Some(pct) = &mut active_pct {
                pct.record(active * 100 / u64::from(self.k));
            }
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
        }
        let outcome = RunOutcome {
            t_comm: (self.informed == self.k).then_some(self.time),
            informed: self.informed as usize,
            agents: self.k as usize,
            steps: self.time,
        };
        let reg = a2a_obs::global();
        if clock.is_some() {
            reg.histogram("kernel.multi.act.ns").record(act_ns);
            reg.histogram("kernel.multi.exchange.ns").record(exchange_ns);
        }
        if let Some(pct) = &active_pct {
            reg.histogram("kernel.frontier.active_pct").merge_snapshot(pct);
            reg.counter("kernel.runs").incr();
            reg.counter("kernel.steps").add(u64::from(outcome.steps));
            reg.counter("kernel.frontier.active").add(active_steps);
            reg.counter("kernel.conflicts").add(self.conflicts);
            reg.histogram("kernel.run.conflicts").record(self.conflicts);
            match outcome.t_comm {
                Some(t) => reg.histogram("kernel.t_comm").record(u64::from(t)),
                None => reg.counter("kernel.unsuccessful").incr(),
            }
            // Field-compatible with the reference engine's `world.run`,
            // so differential runs line up in one event stream.
            if a2a_obs::enabled(a2a_obs::Level::Debug) {
                a2a_obs::event!(a2a_obs::Level::Debug, "kernel.run",
                    "engine" => "multi",
                    "grid" => self.env.kind.to_string(),
                    "k" => outcome.agents,
                    "steps" => outcome.steps,
                    "t_comm" => outcome.t_comm.map_or(-1i64, i64::from),
                    "informed" => outcome.informed,
                    "conflicts" => self.conflicts);
            }
        }
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

    /// The act phase — the reference engine's perception, two-round
    /// arbitration, colour writes and moves, decision for decision,
    /// table-driven.
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
        let claims = &mut self.claims[..n_cells];
        let cell_info = &mut self.cell_info[..n_cells * stride];
        let meta = &mut self.meta[..n_cells];
        let conflicts = &mut self.conflicts;
        let requests = &mut self.requests;
        let decisions = &mut self.decisions;
        requests.clear();
        decisions.clear();

        // Round 1: perceive the pre-step configuration; collect and
        // arbitrate move requests while scanning.
        for i in 0..k {
            let here = pos[i] as usize;
            let front = env.fwd[here * n_dirs + usize::from(dir[i])];
            // One byte read covers the whole front perception: solid
            // bit and colour.
            let front_meta = if front == NONE { 1 } else { meta[front as usize] };
            let hard_blocked = front_meta & 1 != 0;
            let color = own_color[i];
            let front_color = if front == NONE { 0 } else { front_meta >> 1 };
            let x = usize::from(hard_blocked)
                + 2 * (usize::from(color) + n_colors * usize::from(front_color));
            let e = x * n_states + usize::from(state[i]);
            let entry = phase[e];
            let mut target = NONE;
            if !hard_blocked && entry.mv {
                target = front;
                requests.push((i as u32, front));
                let cur = claims[front as usize];
                let winner = match (cur, env.conflict) {
                    (NONE, _) => i as u32,
                    (c, ConflictPolicy::LowestId) => c.min(i as u32),
                    (c, ConflictPolicy::HighestId) => c.max(i as u32),
                };
                claims[front as usize] = winner;
            }
            decisions.push((entry, target));
        }

        // Round 2: losers re-perceive with blocked = 1 and stay put.
        for &(i, target) in requests.iter() {
            if claims[target as usize] != i {
                *conflicts += 1;
                let color = own_color[i as usize];
                let front_color = meta[target as usize] >> 1;
                let x = 1 + 2 * (usize::from(color) + n_colors * usize::from(front_color));
                let e = x * n_states + usize::from(state[i as usize]);
                decisions[i as usize] = (phase[e], NONE);
            }
        }
        for &(_, target) in requests.iter() {
            claims[target as usize] = NONE;
        }

        // Apply: colour writes, state/direction updates, moves.
        let nd = n_dirs as u8;
        for i in 0..k {
            let (entry, target) = decisions[i];
            let here = pos[i] as usize;
            state[i] = entry.next_state;
            // `delta < n_dirs`, so one conditional subtract replaces the
            // hardware division of a `%` reduction.
            let d = dir[i] + entry.delta;
            dir[i] = if d >= nd { d - nd } else { d };
            if target == NONE {
                // Still occupied: solid bit stays set, colour is the
                // FSM's write.
                meta[here] = 1 | (entry.set_color << 1);
                own_color[i] = entry.set_color;
            } else {
                let t = target as usize;
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
            }
        }
    }

    /// The exchange sweep, dispatched on the engine mode: the
    /// activity-frontier walk by default, the dense full-`k` scan under
    /// [`MultiWorld::set_dense`]. Both produce bit-identical state —
    /// a complete agent's exchange is a no-op by construction (its
    /// `cell_info` words are the all-ones fixed point, and neighbours
    /// keep reading them there), so walking only unsaturated agents is
    /// exact, not approximate.
    #[inline]
    fn exchange(&mut self, env: &KernelEnv) {
        if self.dense {
            self.exchange_dense(env);
        } else {
            self.exchange_frontier(env);
        }
    }

    /// The frontier exchange: walk the live frontier prefix only,
    /// swap-removing each agent that saturates in O(1). One-word runs
    /// stage `(cell, word)` pairs in [`MultiWorld::wpairs`] — staging
    /// and commit are both proportional to the frontier, and toroidal
    /// fields take a sentinel-free gather — so a run deep in its
    /// saturation tail costs almost nothing per step. Wide runs stage
    /// by agent in [`MultiWorld::wbuf`]; swap-removal permutes only
    /// within the walked prefix, so that prefix names exactly the
    /// staged agents at commit time.
    fn exchange_frontier(&mut self, env: &KernelEnv) {
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
        let complete = &mut self.complete[..k];
        let frontier = &mut self.frontier[..k];
        let cell_info = &mut self.cell_info[..n_cells * stride];

        if stride == 1 {
            let wpairs = &mut self.wpairs;
            wpairs.clear();
            // Dispatch on the two real neighbourhood sizes (unrolled
            // OR loop) crossed with borderedness (toroidal `fwd` rows
            // contain no `NONE`, so the sentinel test vanishes).
            let live = match (n_dirs, env.has_border) {
                (6, false) => gather_frontier::<6, false>(
                    &env.fwd, cell_info, pos, complete, frontier, len, wpairs, tail,
                ),
                (6, true) => gather_frontier::<6, true>(
                    &env.fwd, cell_info, pos, complete, frontier, len, wpairs, tail,
                ),
                (4, false) => gather_frontier::<4, false>(
                    &env.fwd, cell_info, pos, complete, frontier, len, wpairs, tail,
                ),
                (4, true) => gather_frontier::<4, true>(
                    &env.fwd, cell_info, pos, complete, frontier, len, wpairs, tail,
                ),
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
                    complete[i] = true;
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

    /// The dense exchange sweep — the pre-frontier full-`k` scan, kept
    /// as the kernel bench's same-process baseline for
    /// `frontier_speedup`: every agent gathers from
    /// [`MultiWorld::cell_info`] into [`MultiWorld::wbuf`], and the run
    /// is committed afterwards, so same-sweep peers read pre-exchange
    /// values (the double-buffer role).
    fn exchange_dense(&mut self, env: &KernelEnv) {
        let n_dirs = env.n_dirs;
        let n_cells = env.lattice.len();
        let k = self.k as usize;
        let stride = self.stride as usize;
        let tail = self.tail_mask;
        let pos = &self.pos[..k];
        let complete = &mut self.complete[..k];
        let informed = &mut self.informed;
        let cell_info = &mut self.cell_info[..n_cells * stride];

        if stride == 1 {
            // k ≤ 64: the gather is a branch-free `w |= cell_info[neighbour]`
            // — an empty neighbour ORs in 0, an occupied one its agent's
            // word, with no occupant lookup at all.
            let wbuf = &mut self.wbuf;
            wbuf.clear();
            // Dispatch on the two real neighbourhood sizes so the
            // per-neighbour loop fully unrolls.
            *informed += match n_dirs {
                6 => gather_one_word::<6>(&env.fwd, cell_info, pos, complete, wbuf, tail),
                4 => gather_one_word::<4>(&env.fwd, cell_info, pos, complete, wbuf, tail),
                _ => unreachable!("square and triangulate cells have 4 and 6 neighbours"),
            };
            for (&p, &w) in pos.iter().zip(wbuf.iter()) {
                cell_info[p as usize] = w;
            }
        } else {
            let wbuf = wide_stage(&mut self.wbuf, k * stride);
            for (i, acc) in wbuf.chunks_exact_mut(stride).enumerate() {
                let here = pos[i] as usize;
                // A complete agent gathers nothing: its words are the
                // frozen all-ones vector, re-committed as they are.
                if complete[i] {
                    acc.copy_from_slice(&cell_info[here * stride..here * stride + stride]);
                } else if gather_wide(n_dirs, &env.fwd, cell_info, here, acc, tail) {
                    complete[i] = true;
                    *informed += 1;
                }
            }
            for (&p, acc) in pos.iter().zip(wbuf.chunks_exact(stride)) {
                let here = p as usize;
                cell_info[here * stride..here * stride + stride].copy_from_slice(acc);
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

    /// Whether the dense (pre-frontier) exchange sweep is in effect.
    #[must_use]
    pub fn is_dense(&self) -> bool {
        self.dense
    }

    /// Selects the exchange sweep: `true` replays the dense full-`k`
    /// scan (the kernel bench's in-process baseline for
    /// `frontier_speedup`), `false` (the default) walks the activity
    /// frontier. Both produce bit-identical trajectories. Switching
    /// back to frontier mode rebuilds the frontier permutation from
    /// the completion flags, so the toggle is safe mid-run.
    pub fn set_dense(&mut self, dense: bool) {
        if self.dense && !dense {
            let k = self.k as usize;
            let mut live = 0usize;
            for i in 0..k {
                if !self.complete[i] {
                    self.frontier[live] = i as u32;
                    live += 1;
                }
            }
            let mut t = live;
            for i in 0..k {
                if self.complete[i] {
                    self.frontier[t] = i as u32;
                    t += 1;
                }
            }
            self.frontier_len = live as u32;
        }
        self.dense = dense;
    }

    /// The active agent IDs — exactly the agents whose infoset is not
    /// yet saturated — in unspecified order.
    #[must_use]
    pub fn active_agents(&self) -> Vec<u32> {
        let k = self.k as usize;
        if self.dense {
            (0..k as u32).filter(|&i| !self.complete[i as usize]).collect()
        } else {
            self.frontier[..self.frontier_len as usize].to_vec()
        }
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

    /// Row-major cell colours, unpacked from the cell bytes.
    #[must_use]
    pub fn colors(&self) -> Vec<u8> {
        self.meta.iter().map(|m| m >> 1).collect()
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

/// The one-word gather sweep with the neighbourhood size `D` fixed at
/// compile time, so the per-neighbour OR loop fully unrolls (the `fwd`
/// row is copied into a `[u32; D]` to make the trip count a constant).
/// Pushes one gathered word per agent into `wbuf` and returns how many
/// agents became complete.
fn gather_one_word<const D: usize>(
    fwd: &[u32],
    cell_info: &[u64],
    pos: &[u32],
    complete: &mut [bool],
    wbuf: &mut Vec<u64>,
    tail: u64,
) -> u32 {
    let mut newly = 0;
    for i in 0..pos.len() {
        let here = pos[i] as usize;
        if complete[i] {
            // Identity re-commit: the cell word is already the frozen
            // all-ones vector.
            wbuf.push(cell_info[here]);
            continue;
        }
        let mut w = cell_info[here];
        let row: [u32; D] = fwd[here * D..here * D + D].try_into().expect("row length is D");
        for nc in row {
            if nc != NONE {
                w |= cell_info[nc as usize];
            }
        }
        wbuf.push(w);
        if w == tail {
            complete[i] = true;
            newly += 1;
        }
    }
    newly
}

/// The frontier one-word gather: walks the run's live frontier prefix,
/// staging `(cell, gathered word)` pairs for exactly the active agents
/// and swap-removing each agent that saturates. `D` fixes the
/// neighbourhood size at compile time so the OR loop fully unrolls;
/// `BORDERED = false` (toroidal fields — no `NONE` entries anywhere in
/// `fwd`) removes the per-neighbour sentinel test from the inner loop
/// entirely. Returns the new live length; the caller derives the newly
/// informed count as `len - returned`.
#[allow(clippy::too_many_arguments)]
fn gather_frontier<const D: usize, const BORDERED: bool>(
    fwd: &[u32],
    cell_info: &[u64],
    pos: &[u32],
    complete: &mut [bool],
    frontier: &mut [u32],
    mut len: usize,
    wpairs: &mut Vec<(u32, u64)>,
    tail: u64,
) -> usize {
    let mut j = 0;
    while j < len {
        let i = frontier[j] as usize;
        let here = pos[i] as usize;
        let mut w = cell_info[here];
        let row: [u32; D] = fwd[here * D..here * D + D].try_into().expect("row length is D");
        for nc in row {
            if !BORDERED || nc != NONE {
                w |= cell_info[nc as usize];
            }
        }
        wpairs.push((here as u32, w));
        if w == tail {
            complete[i] = true;
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
/// register. An off-field neighbour reads the agent's own cell, a no-op.
#[inline(always)]
fn gather_wide_rows<const D: usize>(fwd: &[u32], cell_info: &[u64], here: usize, acc: &mut [u64]) {
    let stride = acc.len();
    let row: [u32; D] = fwd[here * D..here * D + D].try_into().expect("row length is D");
    let mut cells: [&[u64]; D] = [&[]; D];
    for (cell, nc) in cells.iter_mut().zip(row) {
        let c = if nc == NONE { here } else { nc as usize };
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
    use crate::run::simulate;
    use crate::world::World;
    use a2a_fsm::{best_s_agent, best_t_agent};
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
