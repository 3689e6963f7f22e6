//! The lockstep multi-run kernel: R configurations of one compiled
//! environment simulated simultaneously in a single fused
//! structure-of-arrays object.
//!
//! [`MultiWorld`] lays every run's state out run-major in contiguous
//! arrays (agent fields and infoset words behind per-run base
//! offsets, per-cell bytes at fixed per-run strides) and advances all
//! live runs with one `act`/`exchange` sweep per global step. A run
//! that solves the task or exhausts the horizon is *retired*: its slot
//! is swap-removed from the live list (`active`), so the tail of slow
//! configurations never drags dead iterations through the sweeps. The long fused
//! loops amortise phase-table and neighbour-table loads across runs
//! and keep branch predictors warm. Information sets are cell-indexed
//! for every `k` (`⌈k/64⌉` words per cell), so the exchange is a plain
//! OR over the neighbour cells' words.
//!
//! Outcomes are **bit-identical per configuration** to running each
//! one through the reference [`World`](crate::World): runs are fully
//! independent (no state is shared between them except the immutable
//! environment), and the per-run `act`/`exchange` bodies replicate the
//! oracle's step decision for decision. A batch of one is the
//! single-configuration path. The differential suite in
//! `tests/differential.rs` drives both engines in lockstep.

use crate::behaviour::Behaviour;
use crate::config::{ConflictPolicy, WorldConfig};
use crate::error::SimError;
use crate::infoset::InfoSet;
use crate::init::InitialConfig;
use crate::kernel::{CompiledEntry, KernelEnv, NONE};
use crate::run::RunOutcome;
use a2a_fsm::Genome;
use a2a_grid::{Dir, Pos};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide count of buffer-allocating multi-world constructions:
/// one per [`MultiWorld::from_env`] plus one per [`MultiWorld::load`]
/// that had to grow a buffer. The batch layer's steady state (chunked
/// reuse with a stable workload shape) must not move this counter —
/// asserted by `crates/sim/tests/allocation_multi.rs` and
/// `crates/sim/tests/allocation.rs`.
static MULTI_BUFFER_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Working-set budget per lockstep chunk. Small enough that one
/// chunk's mutable state stays cache-resident across consecutive
/// global steps, large enough that the fused sweeps amortise their
/// per-step overhead over many runs.
const CHUNK_BUDGET_BYTES: usize = 256 * 1024;

/// Runs per lockstep chunk for `env` with configurations of up to
/// `k` agents: as many as fit [`CHUNK_BUDGET_BYTES`], clamped to
/// `[4, 64]`.
pub(crate) fn preferred_chunk(env: &KernelEnv, k: usize) -> usize {
    let k = k.max(1);
    let stride = k.div_ceil(64);
    let per_run = (5 + 8 * stride) * env.lattice.len() // claims + meta + cell_info
        + 12 * k; // pos/dir/state/own_color/complete/frontier
    (CHUNK_BUDGET_BYTES / per_run).clamp(4, 64)
}

/// The fused multi-run engine: same dynamics as
/// [`World`](crate::World), one object simulating a whole batch of
/// initial configurations in lockstep.
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
/// let inits: Vec<InitialConfig> = (0..8)
///     .map(|_| InitialConfig::random(cfg.lattice, cfg.kind, 16, &[], &mut rng))
///     .collect::<Result<_, _>>()?;
/// let mut multi = MultiWorld::new(&cfg, best_t_agent())?;
/// multi.load(&inits)?;
/// assert!(multi.run(200).iter().all(|o| o.is_successful()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MultiWorld {
    env: Arc<KernelEnv>,

    // Per-run metadata, indexed by run slot `0..run_count()`.
    /// Start of each run's block in the agent arrays.
    agent_base: Vec<usize>,
    /// Start of each run's block in [`MultiWorld::cell_info`].
    cell_base: Vec<usize>,
    /// Agents per run.
    k: Vec<u32>,
    /// Info words per cell per run: `k.div_ceil(64)`.
    stride: Vec<u32>,
    /// Mask of valid bits in each run's last info word.
    tail_mask: Vec<u64>,
    /// Informed agents per run (incremental counter).
    informed: Vec<u32>,
    /// Movement conflicts lost per run.
    conflicts: Vec<u64>,
    /// Recorded outcome per run slot, filled at retirement.
    outcomes: Vec<Option<RunOutcome>>,

    // Field state, run-major: `n_cells` entries per run, `stride[r]`
    // words per cell in `cell_info`.
    /// `run_count() * n_cells`; arbitration scratch, all-`NONE` between steps.
    claims: Vec<u32>,
    /// `run_count() * n_cells`; one byte of cell state per cell — bit 0
    /// is the solid bit (occupancy ∪ obstacles), bits 1.. the cell's
    /// colour. One byte load serves a neighbour's whole perception
    /// (blocked test and front colour), and colour writes and moves
    /// are plain byte stores. Every [`MultiWorld::load`] starts each
    /// run from the environment's empty-field image.
    meta: Vec<u8>,
    /// `stride[r] * n_cells` words per run, behind `cell_base[r]`: each
    /// occupied cell holds its agent's `stride` info words, empty cells
    /// hold zeros. Cell-indexing makes the exchange gather a plain
    /// `w |= cell_info[neighbour]` — no occupant indirection, no
    /// branches, and empty neighbours OR in a no-op 0 — at the price of
    /// moving `stride` words per agent move in the apply pass.
    cell_info: Vec<u64>,

    // Agent state, flat behind `agent_base` offsets.
    pos: Vec<u32>,
    dir: Vec<u8>,
    state: Vec<u8>,
    /// Colour of each agent's own cell, mirrored out of `meta` (the
    /// invariant: `own_color[i] == meta[pos[i]] >> 1` between phases).
    /// Perception reads it directly, saving one field gather per agent
    /// per round.
    own_color: Vec<u8>,
    complete: Vec<bool>,
    /// Per-run activity frontier, flat behind `agent_base` offsets:
    /// each run's `k` entries are a permutation of its local agent IDs
    /// whose first [`MultiWorld::frontier_len`] entries are exactly the
    /// agents with unsaturated infosets. Retirement is an O(1) swap
    /// with the prefix's last entry, so the saturation tail drops out
    /// of the exchange sweep instead of being skipped agent by agent.
    /// Stale in dense mode ([`MultiWorld::set_dense`] rebuilds it on
    /// re-entry to frontier mode).
    frontier: Vec<u32>,
    /// Live prefix length of each run's [`MultiWorld::frontier`] block.
    frontier_len: Vec<u32>,

    /// Live run slots; retirement swap-removes (order is irrelevant —
    /// runs are independent, outcomes are reported by slot).
    active: Vec<u32>,
    /// Global lockstep time: every live run has taken exactly this
    /// many counted steps.
    time: u32,
    /// Dense-scan compatibility mode: `true` replays the pre-frontier
    /// full-`k` exchange sweep (the in-process baseline the kernel
    /// bench measures `frontier_speedup` against); `false` (the
    /// default) walks the activity frontier.
    dense: bool,

    // Scratch reused across steps.
    requests: Vec<(u32, u32)>,
    decisions: Vec<(CompiledEntry, u32)>,
    /// Per-run staging of gathered infosets: gathered from
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
    /// An empty multi-world for a single-FSM behaviour; call
    /// [`MultiWorld::load`] to place a batch.
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

    /// An empty multi-world over a shared environment.
    pub(crate) fn from_env(env: Arc<KernelEnv>) -> Self {
        MULTI_BUFFER_ALLOCS.fetch_add(1, Ordering::Relaxed);
        Self {
            env,
            agent_base: Vec::new(),
            cell_base: Vec::new(),
            k: Vec::new(),
            stride: Vec::new(),
            tail_mask: Vec::new(),
            informed: Vec::new(),
            conflicts: Vec::new(),
            outcomes: Vec::new(),
            claims: Vec::new(),
            meta: Vec::new(),
            cell_info: Vec::new(),
            pos: Vec::new(),
            dir: Vec::new(),
            state: Vec::new(),
            own_color: Vec::new(),
            complete: Vec::new(),
            frontier: Vec::new(),
            frontier_len: Vec::new(),
            active: Vec::new(),
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
    /// constant — the zero-allocation acceptance check of the chunked
    /// batch layer.
    #[must_use]
    pub fn allocation_count() -> u64 {
        MULTI_BUFFER_ALLOCS.load(Ordering::Relaxed)
    }

    /// Places a batch of initial configurations, one run slot each, and
    /// performs every run's uncounted `t = 0` exchange. Reuses every
    /// buffer: reloading a workload of the same shape performs zero
    /// heap allocation. Each configuration is validated and placed
    /// exactly as [`World::with_behaviour`](crate::World::with_behaviour)
    /// does, in batch order, so the first error matches a serial loop's.
    ///
    /// # Errors
    ///
    /// The first per-configuration error, exactly as a serial
    /// [`World`](crate::World) construction loop would report it. On
    /// error the world is partially loaded and must be discarded or
    /// re-loaded before use.
    pub fn load(&mut self, inits: &[InitialConfig]) -> Result<(), SimError> {
        let env = Arc::clone(&self.env);
        let n_cells = env.lattice.len();
        let runs = inits.len();

        // Sizing pass (agent counts only; validation happens per run
        // below, in batch order).
        let mut agent_total = 0usize;
        let mut words_total = 0usize;
        let mut max_k = 0usize;
        // Most words one sweep stages: every agent of the widest run.
        let mut max_staged = 0usize;
        for init in inits {
            let k = init.agent_count();
            agent_total += k;
            words_total += n_cells * k.div_ceil(64);
            max_k = max_k.max(k);
            max_staged = max_staged.max(k * k.div_ceil(64));
        }
        if runs > self.agent_base.capacity()
            || runs > self.cell_base.capacity()
            || runs > self.k.capacity()
            || runs > self.stride.capacity()
            || runs > self.tail_mask.capacity()
            || runs > self.informed.capacity()
            || runs > self.conflicts.capacity()
            || runs > self.outcomes.capacity()
            || runs > self.active.capacity()
            || runs * n_cells > self.claims.capacity()
            || words_total > self.cell_info.capacity()
            || max_staged > self.wbuf.capacity()
            || max_k > self.wpairs.capacity()
            || runs > self.frontier_len.capacity()
            || agent_total > self.frontier.capacity()
            || runs * n_cells > self.meta.capacity()
            || agent_total > self.pos.capacity()
            || agent_total > self.dir.capacity()
            || agent_total > self.state.capacity()
            || agent_total > self.own_color.capacity()
            || agent_total > self.complete.capacity()
            || max_k > self.requests.capacity()
            || max_k > self.decisions.capacity()
        {
            MULTI_BUFFER_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }

        self.agent_base.clear();
        self.cell_base.clear();
        self.k.clear();
        self.stride.clear();
        self.tail_mask.clear();
        self.informed.clear();
        self.conflicts.clear();
        self.outcomes.clear();
        self.active.clear();
        self.pos.clear();
        self.dir.clear();
        self.state.clear();
        self.own_color.clear();
        self.complete.clear();
        self.requests.clear();
        self.requests.reserve(max_k);
        self.decisions.clear();
        self.decisions.reserve(max_k);
        self.time = 0;
        self.claims.clear();
        self.claims.resize(runs * n_cells, NONE);
        self.cell_info.clear();
        self.cell_info.resize(words_total, 0);
        self.wbuf.clear();
        self.wbuf.reserve(max_staged);
        self.wpairs.clear();
        self.wpairs.reserve(max_k);
        self.frontier.clear();
        self.frontier_len.clear();
        self.meta.clear();
        for _ in 0..runs {
            self.meta.extend_from_slice(&env.meta_init);
        }

        let mut c0 = 0usize;
        for (r, init) in inits.iter().enumerate() {
            // Pass 1 — validate without allocating, replicating
            // `InitialConfig::validate` check for check (error order
            // matters to callers). The run's claims region doubles as
            // the duplicate scratch: it is all-NONE between steps.
            if init.placements().is_empty() {
                return Err(SimError::NoAgents);
            }
            let f0 = r * n_cells;
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
                if self.claims[f0 + idx] != NONE {
                    invalid = Some(SimError::DuplicatePosition(pos));
                    break;
                }
                self.claims[f0 + idx] = 0;
                marked += 1;
            }
            for &(pos, _) in &init.placements()[..marked] {
                self.claims[f0 + env.lattice.index_of(pos)] = NONE;
            }
            if let Some(e) = invalid {
                return Err(e);
            }
            let k = init.agent_count();
            if k > usize::from(u16::MAX) {
                return Err(SimError::TooManyAgents {
                    requested: k,
                    limit: usize::from(u16::MAX),
                });
            }

            // Pass 2 — place into the run's slot: each agent's own bit
            // goes into its cell's words.
            let a0 = self.pos.len();
            let stride = k.div_ceil(64);
            for (i, &(p, d)) in init.placements().iter().enumerate() {
                let idx = env.lattice.index_of(p);
                if env.meta_init[idx] & 1 != 0 {
                    return Err(SimError::OnObstacle(p));
                }
                self.meta[f0 + idx] |= 1;
                self.cell_info[c0 + idx * stride + i / 64] |= 1u64 << (i % 64);
                self.pos.push(idx as u32);
                self.dir.push(d.index());
                self.state.push(env.init_states.state_for(i as u16, env.n_states));
                self.own_color.push(self.meta[f0 + idx] >> 1);
            }
            self.complete.resize(a0 + k, false);
            let tail = k % 64;
            self.agent_base.push(a0);
            self.cell_base.push(c0);
            self.k.push(k as u32);
            self.stride.push(stride as u32);
            self.tail_mask.push(if tail == 0 { u64::MAX } else { (1u64 << tail) - 1 });
            self.informed.push(0);
            self.conflicts.push(0);
            self.outcomes.push(None);
            self.active.push(r as u32);
            // Every agent starts unsaturated (k = 1 resolves at the
            // t = 0 exchange below, like everything else).
            self.frontier.extend(0..k as u32);
            self.frontier_len.push(k as u32);
            c0 += n_cells * stride;
        }

        // The uncounted exchange right after placement, every run in
        // one sweep.
        let active = std::mem::take(&mut self.active);
        for &r in &active {
            self.exchange_one(&env, r as usize);
        }
        self.active = active;
        Ok(())
    }

    /// Runs every loaded configuration until it is solved or `t_max`
    /// counted steps have passed, retiring finished runs from the live
    /// list as they complete. Returns one [`RunOutcome`] per loaded
    /// configuration, in load order — each bit-identical to what
    /// [`simulate`](crate::simulate) reports for that configuration.
    ///
    /// With metrics on, feeds the per-run `kernel.*` series
    /// (`kernel.runs` / `.steps` / `.conflicts` counters, the
    /// `kernel.t_comm` and `kernel.run.conflicts` histograms) plus the
    /// multi-kernel extras (`kernel.multi.runs` / `.steps` /
    /// `.compactions` counters and the `kernel.multi.in_flight` gauge).
    ///
    /// # Panics
    ///
    /// Panics if nothing is loaded (zero configurations).
    pub fn run(&mut self, t_max: u32) -> Vec<RunOutcome> {
        assert!(!self.outcomes.is_empty(), "load a batch before running");
        let metrics = a2a_obs::metrics_enabled();
        let debug = a2a_obs::enabled(a2a_obs::Level::Debug);
        // At `Trace`, per-step phase timing goes into
        // `kernel.multi.act.ns` / `kernel.multi.exchange.ns` for the
        // profiler's phase table. Timing forces the sweeps apart (act
        // over all runs, then exchange over all runs) — runs are
        // independent, so the split changes nothing observable, only
        // the cache behaviour of the traced run itself.
        let phase_hists = a2a_obs::enabled(a2a_obs::Level::Trace).then(|| {
            let reg = a2a_obs::global();
            (reg.histogram("kernel.multi.act.ns"), reg.histogram("kernel.multi.exchange.ns"))
        });
        let env = Arc::clone(&self.env);
        // `kernel.frontier.active` counts active agent-steps (the work
        // the frontier sweep actually performs); the `_pct` histogram
        // samples each global step's active fraction across live runs.
        // Both derive from `k - informed`, so they are exact in dense
        // mode too. Handles are interned once, outside the loop.
        let frontier_stats = metrics.then(|| {
            let reg = a2a_obs::global();
            (reg.counter("kernel.frontier.active"), reg.histogram("kernel.frontier.active_pct"))
        });
        let mut run_steps: u64 = 0;
        let mut compactions: u64 = 0;
        self.retire_solved(metrics, debug, &mut compactions);
        while !self.active.is_empty() && self.time < t_max {
            if let Some((active_total, active_pct)) = &frontier_stats {
                let mut act: u64 = 0;
                let mut tot: u64 = 0;
                for &r in &self.active {
                    let r = r as usize;
                    act += u64::from(self.k[r] - self.informed[r]);
                    tot += u64::from(self.k[r]);
                }
                active_total.add(act);
                active_pct.record(act * 100 / tot.max(1));
            }
            let phase = &env.phases[self.time as usize % env.phases.len()];
            let active = std::mem::take(&mut self.active);
            if let Some((act_ns, exchange_ns)) = &phase_hists {
                let t0 = std::time::Instant::now();
                for &r in &active {
                    self.act_one(&env, phase, r as usize);
                }
                let t1 = std::time::Instant::now();
                for &r in &active {
                    self.exchange_one(&env, r as usize);
                }
                exchange_ns.record(t1.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                act_ns
                    .record(t1.duration_since(t0).as_nanos().min(u128::from(u64::MAX)) as u64);
            } else {
                // Act and exchange back-to-back per run while its state
                // is cache-hot; runs are independent, so fusing the
                // sweeps changes nothing observable.
                for &r in &active {
                    self.act_one(&env, phase, r as usize);
                    self.exchange_one(&env, r as usize);
                }
            }
            run_steps += active.len() as u64;
            self.active = active;
            self.time += 1;
            self.retire_solved(metrics, debug, &mut compactions);
        }
        // Horizon: whatever is still live is out of time.
        let horizon = std::mem::take(&mut self.active);
        for &r in &horizon {
            let r = r as usize;
            let outcome = RunOutcome {
                t_comm: None,
                informed: self.informed[r] as usize,
                agents: self.k[r] as usize,
                steps: self.time,
            };
            self.outcomes[r] = Some(outcome);
            if metrics {
                self.record_run(outcome, r, debug);
            }
        }
        // Hand the buffer back (emptied) so reloading a same-shape
        // batch stays allocation-free.
        self.active = horizon;
        self.active.clear();
        if metrics {
            let reg = a2a_obs::global();
            reg.counter("kernel.multi.runs").add(self.outcomes.len() as u64);
            reg.counter("kernel.multi.steps").add(run_steps);
            reg.counter("kernel.multi.compactions").add(compactions);
            reg.gauge("kernel.multi.in_flight").set(0);
        }
        self.outcomes
            .iter()
            .map(|o| o.expect("every run slot is retired by the loop above"))
            .collect()
    }

    /// Advances **every** loaded run by one counted time step — solved
    /// runs included, exactly like stepping each world individually
    /// (agents keep acting after completion). This is the lockstep
    /// differential-test path; the retiring throughput path is
    /// [`MultiWorld::run`].
    pub fn step(&mut self) {
        let env = Arc::clone(&self.env);
        let phase = &env.phases[self.time as usize % env.phases.len()];
        for r in 0..self.k.len() {
            self.act_one(&env, phase, r);
            self.exchange_one(&env, r);
        }
        self.time += 1;
    }

    /// Retires every live run whose agents are all informed, recording
    /// `t_comm = time`. Swap-remove keeps the live list dense.
    fn retire_solved(&mut self, metrics: bool, debug: bool, compactions: &mut u64) {
        let mut retired = false;
        let mut idx = 0;
        while idx < self.active.len() {
            let r = self.active[idx] as usize;
            if self.informed[r] == self.k[r] {
                let k = self.k[r] as usize;
                let outcome = RunOutcome {
                    t_comm: Some(self.time),
                    informed: k,
                    agents: k,
                    steps: self.time,
                };
                self.outcomes[r] = Some(outcome);
                self.active.swap_remove(idx);
                *compactions += 1;
                retired = true;
                if metrics {
                    self.record_run(outcome, r, debug);
                }
            } else {
                idx += 1;
            }
        }
        if retired && metrics {
            a2a_obs::global().gauge("kernel.multi.in_flight").set(self.active.len() as i64);
        }
    }

    /// Feeds one retired run's numbers into the global registry and,
    /// at `Debug`, emits the `kernel.run` summary with `engine:
    /// "multi"` (field-compatible with the reference engine's
    /// `world.run`, so differential runs line up in one event stream).
    fn record_run(&self, outcome: RunOutcome, r: usize, debug: bool) {
        let reg = a2a_obs::global();
        let conflicts = self.conflicts[r];
        reg.counter("kernel.runs").incr();
        reg.counter("kernel.steps").add(u64::from(outcome.steps));
        reg.counter("kernel.conflicts").add(conflicts);
        reg.histogram("kernel.run.conflicts").record(conflicts);
        match outcome.t_comm {
            Some(t) => reg.histogram("kernel.t_comm").record(u64::from(t)),
            None => reg.counter("kernel.unsuccessful").incr(),
        }
        if debug {
            a2a_obs::event!(a2a_obs::Level::Debug, "kernel.run",
                "engine" => "multi",
                "grid" => self.env.kind.to_string(),
                "k" => outcome.agents,
                "steps" => outcome.steps,
                "t_comm" => outcome.t_comm.map_or(-1i64, i64::from),
                "informed" => outcome.informed,
                "conflicts" => conflicts);
        }
    }

    /// One run's act phase — the reference engine's perception,
    /// two-round arbitration, colour writes and moves, decision for
    /// decision, table-driven on the run's slices.
    fn act_one(&mut self, env: &KernelEnv, phase: &[CompiledEntry], r: usize) {
        let n_states = usize::from(env.n_states);
        let n_colors = usize::from(env.n_colors);
        let n_dirs = env.n_dirs;
        let n_cells = env.lattice.len();
        let f0 = r * n_cells;
        let a0 = self.agent_base[r];
        let k = self.k[r] as usize;

        let pos = &mut self.pos[a0..a0 + k];
        let dir = &mut self.dir[a0..a0 + k];
        let state = &mut self.state[a0..a0 + k];
        let own_color = &mut self.own_color[a0..a0 + k];
        let claims = &mut self.claims[f0..f0 + n_cells];
        let stride = self.stride[r] as usize;
        let c0 = self.cell_base[r];
        let cell_info = &mut self.cell_info[c0..c0 + n_cells * stride];
        let meta = &mut self.meta[f0..f0 + n_cells];
        let conflicts = &mut self.conflicts[r];
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

    /// One run's exchange sweep, dispatched on the engine mode: the
    /// activity-frontier walk by default, the dense full-`k` scan under
    /// [`MultiWorld::set_dense`]. Both produce bit-identical state —
    /// a complete agent's exchange is a no-op by construction (its
    /// `cell_info` words are the all-ones fixed point, and neighbours
    /// keep reading them there), so walking only unsaturated agents is
    /// exact, not approximate.
    #[inline]
    fn exchange_one(&mut self, env: &KernelEnv, r: usize) {
        if self.dense {
            self.exchange_one_dense(env, r);
        } else {
            self.exchange_one_frontier(env, r);
        }
    }

    /// One run's frontier exchange: walk the live frontier prefix only,
    /// swap-removing each agent that saturates in O(1). One-word runs
    /// stage `(cell, word)` pairs in [`MultiWorld::wpairs`] — staging
    /// and commit are both proportional to the frontier, and toroidal
    /// fields take a sentinel-free gather — so a run deep in its
    /// saturation tail costs almost nothing per step. Wide runs stage
    /// by agent in [`MultiWorld::wbuf`]; swap-removal permutes only
    /// within the walked prefix, so that prefix names exactly the
    /// staged agents at commit time.
    fn exchange_one_frontier(&mut self, env: &KernelEnv, r: usize) {
        let n_dirs = env.n_dirs;
        let n_cells = env.lattice.len();
        let a0 = self.agent_base[r];
        let k = self.k[r] as usize;
        let len = self.frontier_len[r] as usize;
        if len == 0 {
            return;
        }
        let stride = self.stride[r] as usize;
        let c0 = self.cell_base[r];
        let tail = self.tail_mask[r];
        let pos = &self.pos[a0..a0 + k];
        let complete = &mut self.complete[a0..a0 + k];
        let frontier = &mut self.frontier[a0..a0 + k];
        let cell_info = &mut self.cell_info[c0..c0 + n_cells * stride];

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
                _ => gather_frontier_any(
                    n_dirs, &env.fwd, cell_info, pos, complete, frontier, len, wpairs, tail,
                ),
            };
            self.frontier_len[r] = live as u32;
            self.informed[r] += (len - live) as u32;
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
            self.frontier_len[r] = live as u32;
            self.informed[r] += (len - live) as u32;
            for &i in &frontier[..len] {
                let (i, here) = (i as usize, pos[i as usize] as usize);
                cell_info[here * stride..here * stride + stride]
                    .copy_from_slice(&wbuf[i * stride..i * stride + stride]);
            }
        }
    }

    /// One run's dense exchange sweep — the pre-frontier full-`k` scan,
    /// kept as the kernel bench's same-process baseline for
    /// `frontier_speedup`: every agent gathers from
    /// [`MultiWorld::cell_info`] into [`MultiWorld::wbuf`], and the run
    /// is committed afterwards, so same-sweep peers read pre-exchange
    /// values (the double-buffer role).
    fn exchange_one_dense(&mut self, env: &KernelEnv, r: usize) {
        let n_dirs = env.n_dirs;
        let n_cells = env.lattice.len();
        let a0 = self.agent_base[r];
        let k = self.k[r] as usize;
        let stride = self.stride[r] as usize;
        let c0 = self.cell_base[r];
        let tail = self.tail_mask[r];
        let pos = &self.pos[a0..a0 + k];
        let complete = &mut self.complete[a0..a0 + k];
        let informed = &mut self.informed[r];
        let cell_info = &mut self.cell_info[c0..c0 + n_cells * stride];

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
                _ => gather_one_word_any(n_dirs, &env.fwd, cell_info, pos, complete, wbuf, tail),
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

    /// Loaded configurations (including retired ones).
    #[must_use]
    pub fn run_count(&self) -> usize {
        self.k.len()
    }

    /// Global lockstep steps executed so far.
    #[must_use]
    pub fn time(&self) -> u32 {
        self.time
    }

    /// Agents in run `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.run_count()` (here and in every per-run
    /// accessor below).
    #[must_use]
    pub fn agent_count(&self, r: usize) -> usize {
        self.k[r] as usize
    }

    /// Informed agents in run `r`.
    #[must_use]
    pub fn informed_count(&self, r: usize) -> usize {
        self.informed[r] as usize
    }

    /// Movement conflicts lost so far in run `r`.
    #[must_use]
    pub fn conflict_losses(&self, r: usize) -> u64 {
        self.conflicts[r]
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
    /// back to frontier mode rebuilds every run's frontier permutation
    /// from its completion flags, so the toggle is safe mid-batch.
    pub fn set_dense(&mut self, dense: bool) {
        if self.dense && !dense {
            for r in 0..self.k.len() {
                let a0 = self.agent_base[r];
                let k = self.k[r] as usize;
                let mut live = 0usize;
                for i in 0..k {
                    if !self.complete[a0 + i] {
                        self.frontier[a0 + live] = i as u32;
                        live += 1;
                    }
                }
                let mut t = live;
                for i in 0..k {
                    if self.complete[a0 + i] {
                        self.frontier[a0 + t] = i as u32;
                        t += 1;
                    }
                }
                self.frontier_len[r] = live as u32;
            }
        }
        self.dense = dense;
    }

    /// Run `r`'s active agent IDs — exactly the agents whose infoset is
    /// not yet saturated — in unspecified order.
    #[must_use]
    pub fn active_agents(&self, r: usize) -> Vec<u32> {
        let a0 = self.agent_base[r];
        let k = self.k[r] as usize;
        if self.dense {
            (0..k as u32).filter(|&i| !self.complete[a0 + i as usize]).collect()
        } else {
            self.frontier[a0..a0 + self.frontier_len[r] as usize].to_vec()
        }
    }

    /// Run `r`'s agent positions in ID order.
    #[must_use]
    pub fn positions(&self, r: usize) -> Vec<Pos> {
        let a0 = self.agent_base[r];
        let k = self.k[r] as usize;
        self.pos[a0..a0 + k]
            .iter()
            .map(|&c| self.env.lattice.pos_at(c as usize))
            .collect()
    }

    /// Run `r`'s agent directions in ID order.
    #[must_use]
    pub fn dirs(&self, r: usize) -> Vec<Dir> {
        let a0 = self.agent_base[r];
        let k = self.k[r] as usize;
        self.dir[a0..a0 + k].iter().map(|&d| Dir::new(d)).collect()
    }

    /// Run `r`'s agent control states in ID order.
    #[must_use]
    pub fn states(&self, r: usize) -> Vec<u8> {
        let a0 = self.agent_base[r];
        let k = self.k[r] as usize;
        self.state[a0..a0 + k].to_vec()
    }

    /// Run `r`'s row-major cell colours, unpacked from its cell bytes.
    #[must_use]
    pub fn colors(&self, r: usize) -> Vec<u8> {
        let n_cells = self.env.lattice.len();
        assert!(r < self.k.len(), "run {r} out of range for {} runs", self.k.len());
        self.meta[r * n_cells..(r + 1) * n_cells].iter().map(|m| m >> 1).collect()
    }

    /// Agent `i` of run `r`'s communication vector as an [`InfoSet`].
    ///
    /// # Panics
    ///
    /// Panics if `r` or `i` is out of range.
    #[must_use]
    pub fn agent_info(&self, r: usize, i: usize) -> InfoSet {
        let k = self.k[r] as usize;
        assert!(i < k, "agent {i} out of range for {k} agents in run {r}");
        let stride = self.stride[r] as usize;
        let cell = self.pos[self.agent_base[r] + i] as usize;
        let words = &self.cell_info[self.cell_base[r] + cell * stride..][..stride];
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

/// Runtime-`n_dirs` fallback of [`gather_one_word`], for neighbourhood
/// sizes without a dedicated instantiation.
fn gather_one_word_any(
    n_dirs: usize,
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
            wbuf.push(cell_info[here]);
            continue;
        }
        let mut w = cell_info[here];
        for &nc in &fwd[here * n_dirs..here * n_dirs + n_dirs] {
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

/// Runtime-`n_dirs` fallback of [`gather_frontier`], for neighbourhood
/// sizes without a dedicated instantiation.
#[allow(clippy::too_many_arguments)]
fn gather_frontier_any(
    n_dirs: usize,
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
        for &nc in &fwd[here * n_dirs..here * n_dirs + n_dirs] {
            if nc != NONE {
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
    debug_assert!(words <= wbuf.capacity(), "load reserves every run's staging");
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
            // Ragged agent counts in one batch, including a k > 64 run
            // (two infoset words per cell) and a k = 1 run (solved at
            // t = 0).
            let inits = random_batch(&config, &[16, 1, 70, 4, 16, 33], 7);
            let expected: Vec<RunOutcome> = inits
                .iter()
                .map(|i| simulate(&config, genome.clone(), i, 300).unwrap())
                .collect();
            let mut multi = MultiWorld::new(&config, genome).unwrap();
            multi.load(&inits).unwrap();
            assert_eq!(multi.run(300), expected, "{kind}");
        }
    }

    #[test]
    fn lockstep_step_matches_world_per_run() {
        let config = cfg(GridKind::Triangulate);
        let inits = random_batch(&config, &[12, 5, 12], 11);
        let mut worlds: Vec<World> =
            inits.iter().map(|i| World::new(&config, best_t_agent(), i).unwrap()).collect();
        let mut multi = MultiWorld::new(&config, best_t_agent()).unwrap();
        multi.load(&inits).unwrap();
        for t in 0..40 {
            for (r, world) in worlds.iter().enumerate() {
                let agents = world.agents();
                let positions: Vec<Pos> = agents.iter().map(|a| a.pos()).collect();
                let states: Vec<u8> = agents.iter().map(|a| a.state()).collect();
                assert_eq!(multi.positions(r), positions, "run {r} t={t}");
                assert_eq!(multi.states(r), states, "run {r} t={t}");
                assert_eq!(multi.colors(r), world.colors(), "run {r} t={t}");
                assert_eq!(multi.informed_count(r), world.informed_count(), "run {r} t={t}");
                for (i, agent) in agents.iter().enumerate() {
                    assert_eq!(multi.agent_info(r, i), *agent.info(), "run {r} t={t}");
                }
            }
            multi.step();
            for world in &mut worlds {
                world.step();
            }
        }
    }

    #[test]
    fn reload_reuses_buffers_and_matches_fresh() {
        let config = cfg(GridKind::Triangulate);
        let mut multi = MultiWorld::new(&config, best_t_agent()).unwrap();
        multi.load(&random_batch(&config, &[16; 8], 1)).unwrap();
        let _ = multi.run(200);
        for seed in 2..6 {
            let inits = random_batch(&config, &[16; 8], seed);
            multi.load(&inits).unwrap();
            let got = multi.run(200);
            let mut fresh = MultiWorld::new(&config, best_t_agent()).unwrap();
            fresh.load(&inits).unwrap();
            assert_eq!(got, fresh.run(200), "seed {seed}");
        }
        // The zero-allocation guarantee of reuse is asserted in
        // tests/allocation_multi.rs — the process-global counter cannot
        // be compared exactly here, where tests run concurrently.
    }

    #[test]
    fn load_replicates_serial_error_order() {
        let config = cfg(GridKind::Square);
        let good = InitialConfig::new(vec![(Pos::new(1, 1), Dir::new(0))]);
        let dup = InitialConfig::new(vec![
            (Pos::new(2, 2), Dir::new(0)),
            (Pos::new(2, 2), Dir::new(1)),
        ]);
        let outside = InitialConfig::new(vec![(Pos::new(99, 0), Dir::new(0))]);
        let mut multi = MultiWorld::new(&config, best_s_agent()).unwrap();
        // First failing configuration wins, later ones are not reached.
        assert!(matches!(
            multi.load(&[good.clone(), dup.clone(), outside.clone()]),
            Err(SimError::DuplicatePosition(_))
        ));
        assert!(matches!(multi.load(&[outside, dup]), Err(SimError::OutsideField(_))));
        // An empty batch loads fine (and holds zero runs).
        multi.load(&[]).unwrap();
        assert_eq!(multi.run_count(), 0);
        assert!(matches!(
            multi.load(&[InitialConfig::new(Vec::new())]),
            Err(SimError::NoAgents)
        ));
        // A failed load leaves the world reloadable.
        multi.load(&[good]).unwrap();
        assert_eq!(multi.run(50)[0].t_comm, Some(0));
    }

    #[test]
    fn obstacle_placement_rejected_per_run() {
        let mut config = cfg(GridKind::Square);
        config.obstacles = vec![Pos::new(3, 3)];
        let on_obstacle = InitialConfig::new(vec![(Pos::new(3, 3), Dir::new(0))]);
        let good = InitialConfig::new(vec![(Pos::new(1, 1), Dir::new(0))]);
        let mut multi = MultiWorld::new(&config, best_s_agent()).unwrap();
        assert!(matches!(
            multi.load(&[good, on_obstacle]),
            Err(SimError::OnObstacle(_))
        ));
    }

    #[test]
    fn preferred_chunk_is_clamped_and_shrinks_with_footprint() {
        let small = cfg(GridKind::Triangulate);
        let env = Arc::new(
            KernelEnv::new(&small, &Behaviour::Single(best_t_agent())).unwrap(),
        );
        // Per run on 16×16: (4 B claims + 1 B meta + 8·stride B words)
        // per cell plus 12 B per agent, into a 256 KiB budget.
        assert_eq!(preferred_chunk(&env, 16), 64); // 3520 B/run: 74, clamped
        assert_eq!(preferred_chunk(&env, 65), 262_144 / (21 * 256 + 12 * 65));
        assert_eq!(preferred_chunk(&env, 256), 262_144 / (37 * 256 + 12 * 256));
        assert_eq!(preferred_chunk(&env, 256), 20);
        assert!(preferred_chunk(&env, 1000) <= preferred_chunk(&env, 256));
        assert_eq!(preferred_chunk(&env, 60_000), 4);
        assert!(preferred_chunk(&env, 0) >= 4);
    }
}
