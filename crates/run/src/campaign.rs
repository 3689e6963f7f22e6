//! Campaign engine: a MAP-Elites-style archive over (grid, density, k)
//! niches fed by shards that exchange migrants through the merged
//! archive, every round's work sealed in one store directory.
//!
//! # Shape of a campaign
//!
//! A campaign proceeds in synchronous **rounds**, all in one process
//! ([`run_campaign`]). Each round, the shards take turns: every shard
//! computes a batch of candidate genomes for its assigned niches,
//! dedups them against the digests of earlier rounds, evaluates the
//! survivors on the one shared [`EvaluatorBank`], and seals the outcome
//! as one **archive delta** (`a2a-run/archive-delta/v1`). The round's
//! deltas are then folded, in shard order, into the merged archive with
//! conflict-free niche-min semantics, and the sealed merged archive is
//! committed — the barrier the next round starts from.
//!
//! # Crash-only determinism
//!
//! Every shard round is a **pure function** of `(campaign seed, shard
//! index, round index, merged archive and digests of the previous
//! rounds)` — the per-round RNG is re-seeded from those via FNV, so no
//! RNG state is carried across rounds and the delta files *are* the
//! checkpoints. Resume is "find the artifacts that exist, recompute the
//! ones that don't": a campaign killed mid-round (SIGKILL, fault
//! injection, power loss) is simply rerun, skips every committed round
//! and durable delta, and — by purity — writes byte-identical ones, so
//! the final archive of an interrupted campaign is byte-identical to an
//! uninterrupted control run. The chaos suite kills it at every round
//! and asserts exactly that.
//!
//! # Dedup and merge semantics
//!
//! * A genome digest is FNV-1a 64 over `niche_id|digits`, so dedup is
//!   per-niche (the same FSM is legitimately re-evaluated in a
//!   different world). Digests ride inside the same sealed delta as the
//!   folded results — a digest is never durable without its elite, the
//!   invariant behind "dedup never drops a strictly-better elite".
//! * Cross-shard dedup is at **round granularity**: every shard of a
//!   round sees the union of the digests of the earlier rounds' deltas,
//!   never another shard's digests of the same round. Two shards cannot
//!   evaluate the same genome in one round: the deal gives each niche to
//!   one shard per round, and digests are niche-scoped.
//! * The archive merge keeps, per niche, the elite with **lower**
//!   fitness (the paper minimises), ties broken by lexicographically
//!   smaller digits. That order is total, so folding is commutative,
//!   associative and idempotent — deltas can be folded in any order
//!   and the merged archive is identical (property-tested).
//!
//! # Work distribution
//!
//! Niche assignment is deterministic work-stealing: every round the
//! niche deck is re-ordered cold-first (uncovered niches ahead of
//! covered, unsolved ahead of solved), rotated by the round index, and
//! dealt round-robin across shards with larger budgets for cold niches.
//! No shard idles on a cold-only set, and because the deal is a pure
//! function of the merged archive, a rerun computes the same
//! assignment.

use a2a_fsm::{offspring, FsmSpec, Genome, MutationRates};
use a2a_ga::{Evaluator, FitnessReport, WorkerPool};
use a2a_grid::{GridKind, Lattice};
use crate::sealed::{
    arr_member, expect_schema, member, str_member, u64_member, usize_member, DocKind, SealedDir,
};
use a2a_obs::json::Json;
use a2a_obs::{fault, schema};
use a2a_sim::{paper_config_set, WorldConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Schema identifier of the sealed campaign spec document.
pub const CAMPAIGN_SPEC_SCHEMA: &str = "a2a-run/campaign-spec/v1";
/// Schema identifier of sealed per-shard-per-round archive deltas.
pub const ARCHIVE_DELTA_SCHEMA: &str = "a2a-run/archive-delta/v1";
/// Schema identifier of sealed merged-archive round barriers.
pub const CAMPAIGN_MERGED_SCHEMA: &str = "a2a-run/campaign-merged/v2";
/// Schema identifier of the sealed final archive.
pub const ARCHIVE_SCHEMA: &str = "a2a-run/archive/v1";
/// Schema identifier of the sealed campaign summary.
pub const CAMPAIGN_SUMMARY_SCHEMA: &str = "a2a-run/campaign-summary/v2";

/// Fault-injection site probed once at the start of every round that
/// is not yet committed (the campaign analogue of `run.generation`): a
/// fired kill stops [`run_campaign`] as if the process had been
/// SIGKILLed there, after the previous round's barrier is durable.
pub const CAMPAIGN_ROUND_SITE: &str = "campaign.round";

/// One cell of the MAP-Elites archive: a (grid kind, field size, agent
/// count) niche. Density is implied (`k / m²`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NicheKey {
    /// Grid family (S or T).
    pub kind: GridKind,
    /// Field edge length (`m × m` torus).
    pub m: u16,
    /// Agents placed on the field.
    pub k: usize,
}

impl NicheKey {
    /// Canonical niche identifier, e.g. `t-m8-k4`. Used as the archive
    /// key and inside genome digests, so it must stay stable.
    #[must_use]
    pub fn id(&self) -> String {
        let kind = match self.kind {
            GridKind::Square => 's',
            GridKind::Triangulate => 't',
        };
        format!("{kind}-m{}-k{}", self.m, self.k)
    }

    /// Parses [`NicheKey::id`] back.
    ///
    /// # Errors
    ///
    /// A message naming the malformed part.
    pub fn parse(id: &str) -> Result<Self, String> {
        let mut parts = id.split('-');
        let kind = match parts.next() {
            Some("s") => GridKind::Square,
            Some("t") => GridKind::Triangulate,
            other => return Err(format!("bad niche kind in `{id}`: {other:?}")),
        };
        let m = parts
            .next()
            .and_then(|p| p.strip_prefix('m'))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad niche field size in `{id}`"))?;
        let k = parts
            .next()
            .and_then(|p| p.strip_prefix('k'))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad niche agent count in `{id}`"))?;
        if parts.next().is_some() {
            return Err(format!("trailing junk in niche id `{id}`"));
        }
        Ok(Self { kind, m, k })
    }

    /// Agent density of the niche (`k / m²`), the paper's x-axis.
    #[must_use]
    pub fn density(&self) -> f64 {
        self.k as f64 / (f64::from(self.m) * f64::from(self.m))
    }
}

/// Parameters of one campaign. Everything downstream — niche ids,
/// RNG streams, budgets — derives from this, so two processes with the
/// same spec replay the same campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// The archive cells.
    pub niches: Vec<NicheKey>,
    /// Worker shards feeding the archive.
    pub shards: usize,
    /// Synchronous rounds to run.
    pub rounds: usize,
    /// Base candidate budget per niche per round (cold niches get 2×).
    pub batch: usize,
    /// Seeded random configurations per niche evaluation set (the
    /// paper's designed hard cases are always appended).
    pub configs: usize,
    /// Simulation horizon per configuration.
    pub t_max: u32,
    /// Campaign seed; every RNG stream derives from it.
    pub seed: u64,
}

impl CampaignSpec {
    /// Context digest binding artifacts to this spec (same role as
    /// [`crate::context_digest`] for checkpoints).
    #[must_use]
    pub fn digest(&self) -> String {
        format!("{:016x}", schema::fnv1a64(format!("{self:?}").as_bytes()))
    }

    /// Serialises the spec as a sealed document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let doc = Json::object()
            .with("schema", CAMPAIGN_SPEC_SCHEMA)
            .with("digest", self.digest())
            .with(
                "niches",
                Json::Arr(self.niches.iter().map(|n| Json::Str(n.id())).collect()),
            )
            .with("shards", self.shards as u64)
            .with("rounds", self.rounds as u64)
            .with("batch", self.batch as u64)
            .with("configs", self.configs as u64)
            .with("t_max", u64::from(self.t_max))
            .with("seed", format!("{:016x}", self.seed));
        schema::seal(doc)
    }

    /// Parses and validates a sealed spec document.
    ///
    /// # Errors
    ///
    /// Checksum mismatch, wrong schema, or a missing/mistyped member.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        schema::verify_checksum(doc)?;
        expect_schema(doc, CAMPAIGN_SPEC_SCHEMA)?;
        let niches = arr_member(doc, "niches")?
            .iter()
            .map(|v| {
                v.as_str()
                    .ok_or_else(|| "niche id must be a string".to_string())
                    .and_then(NicheKey::parse)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let seed = str_member(doc, "seed")?;
        let t_max = u64_member(doc, "t_max")?;
        let spec = Self {
            niches,
            shards: usize_member(doc, "shards")?,
            rounds: usize_member(doc, "rounds")?,
            batch: usize_member(doc, "batch")?,
            configs: usize_member(doc, "configs")?,
            t_max: u32::try_from(t_max)
                .map_err(|_| format!("`t_max` must fit in 32 bits, got {t_max}"))?,
            seed: u64::from_str_radix(seed, 16).map_err(|e| format!("bad seed `{seed}`: {e}"))?,
        };
        let recorded = doc.get("digest").and_then(Json::as_str).unwrap_or("");
        if recorded != spec.digest() {
            return Err(format!(
                "campaign spec digest mismatch: recorded {recorded}, computed {}",
                spec.digest()
            ));
        }
        Ok(spec)
    }
}

/// The `digests` member of a delta.
fn digests_member(doc: &Json) -> Result<Vec<u64>, String> {
    arr_member(doc, "digests")?
        .iter()
        .map(|v| {
            let s = v.as_str().ok_or("digest must be a hex string")?;
            u64::from_str_radix(s, 16).map_err(|e| format!("bad digest `{s}`: {e}"))
        })
        .collect()
}

/// One archive entry: the niche champion and its full evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Elite {
    /// Genome digits (decodable via the niche's [`FsmSpec`]).
    pub digits: String,
    /// The sealed-in evaluation of those digits on the niche's
    /// configuration set.
    pub report: FitnessReport,
}

impl Elite {
    /// The total order that makes archive folding commutative: lower
    /// fitness wins (the paper minimises); exact ties break toward the
    /// lexicographically smaller digits string. Evaluation is
    /// bit-identical across engines and replays (PR 3/5), so comparing
    /// `f64` fitness exactly is sound.
    #[must_use]
    pub fn better_than(&self, other: &Elite) -> bool {
        if self.report.fitness != other.report.fitness {
            return self.report.fitness < other.report.fitness;
        }
        self.digits < other.digits
    }

    fn to_json(&self) -> Json {
        Json::object()
            .with("digits", self.digits.as_str())
            .with("report", self.report.to_json())
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        let digits = str_member(doc, "digits")?.to_string();
        let report = FitnessReport::from_json(member(doc, "report")?)?;
        Ok(Self { digits, report })
    }
}

/// Folds `elite` into the per-niche best of `entries` under the
/// [`Elite::better_than`] order; returns whether it became the elite.
fn fold_entry(entries: &mut BTreeMap<String, Elite>, niche_id: &str, elite: Elite) -> bool {
    match entries.get(niche_id) {
        Some(best) if !elite.better_than(best) => false,
        _ => {
            entries.insert(niche_id.to_string(), elite);
            true
        }
    }
}

fn entries_json(entries: &BTreeMap<String, Elite>) -> Json {
    Json::Arr(entries.iter().map(|(id, e)| e.to_json().with("niche", id.as_str())).collect())
}

/// The `entries` member of an archive, delta or merged barrier.
fn entries_from_json(doc: &Json) -> Result<BTreeMap<String, Elite>, String> {
    let mut entries = BTreeMap::new();
    for item in arr_member(doc, "entries")? {
        entries.insert(str_member(item, "niche")?.to_string(), Elite::from_json(item)?);
    }
    Ok(entries)
}

/// The MAP-Elites archive: best-known elite per niche id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Archive {
    entries: BTreeMap<String, Elite>,
}

impl Archive {
    /// An empty archive.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one candidate in; returns whether it became (or improved)
    /// the niche elite. Commutative in the sense documented on
    /// [`Elite::better_than`].
    pub fn fold(&mut self, niche_id: &str, elite: Elite) -> bool {
        fold_entry(&mut self.entries, niche_id, elite)
    }

    /// Folds a whole delta in; returns how many niches improved.
    pub fn merge(&mut self, delta: &ArchiveDelta) -> usize {
        let mut improved = 0;
        for (niche_id, elite) in &delta.entries {
            if self.fold(niche_id, elite.clone()) {
                improved += 1;
            }
        }
        improved
    }

    /// The elite of a niche, if the niche is covered.
    #[must_use]
    pub fn get(&self, niche_id: &str) -> Option<&Elite> {
        self.entries.get(niche_id)
    }

    /// Iterates `(niche id, elite)` in canonical (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Elite)> {
        self.entries.iter()
    }

    /// Covered niches (any elite at all).
    #[must_use]
    pub fn covered(&self) -> usize {
        self.entries.len()
    }

    /// Niches whose elite solves every training configuration.
    #[must_use]
    pub fn solved(&self) -> usize {
        self.entries.values().filter(|e| e.report.is_completely_successful()).count()
    }

    /// Serialises the archive as the sealed final-artifact document
    /// (the file the chaos suite byte-compares).
    #[must_use]
    pub fn to_json(&self, spec_digest: &str) -> Json {
        let doc = Json::object()
            .with("schema", ARCHIVE_SCHEMA)
            .with("digest", spec_digest)
            .with("covered", self.covered() as u64)
            .with("solved", self.solved() as u64)
            .with("entries", entries_json(&self.entries));
        schema::seal(doc)
    }

    /// Parses a sealed archive document.
    ///
    /// # Errors
    ///
    /// Checksum mismatch, wrong schema, or malformed entries.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        schema::verify_checksum(doc)?;
        expect_schema(doc, ARCHIVE_SCHEMA)?;
        Ok(Self { entries: entries_from_json(doc)? })
    }
}

/// Digest of one candidate genome in one niche: FNV-1a 64 over
/// `niche_id|digits`. Niche-scoped on purpose — the same FSM in a
/// different world is a different evaluation.
#[must_use]
pub fn genome_digest(niche_id: &str, digits: &str) -> u64 {
    schema::fnv1a64(format!("{niche_id}|{digits}").as_bytes())
}

/// The campaign-wide persistent dedup set: every genome digest whose
/// evaluation is already durable in some sealed artifact.
#[derive(Debug, Clone, Default)]
pub struct DigestSet {
    set: HashSet<u64>,
}

impl DigestSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `digest` is already known.
    #[must_use]
    pub fn contains(&self, digest: u64) -> bool {
        self.set.contains(&digest)
    }

    /// Inserts; returns `true` when the digest was new.
    pub fn insert(&mut self, digest: u64) -> bool {
        self.set.insert(digest)
    }

    /// Number of known digests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether no digest is known yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

/// One shard's sealed output for one round: improved elites, the
/// digests of every genome it evaluated, and honest counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArchiveDelta {
    /// Producing shard.
    pub shard: usize,
    /// Round index.
    pub round: usize,
    /// Best candidate per niche this shard touched this round.
    pub entries: BTreeMap<String, Elite>,
    /// Digests of genomes newly evaluated this round (sorted hex).
    pub digests: Vec<u64>,
    /// Evaluations actually performed.
    pub evals: u64,
    /// Candidates skipped because their digest was already known.
    pub dedup_hits: u64,
    /// Candidates derived from another niche's elite (migrants).
    pub migrations: u64,
}

impl ArchiveDelta {
    /// Folds a candidate outcome into the delta (same total order as
    /// the archive).
    pub fn fold(&mut self, niche_id: &str, elite: Elite) {
        fold_entry(&mut self.entries, niche_id, elite);
    }

    /// Serialises as a sealed delta document.
    #[must_use]
    pub fn to_json(&self, spec_digest: &str) -> Json {
        let mut digests = self.digests.clone();
        digests.sort_unstable();
        let doc = Json::object()
            .with("schema", ARCHIVE_DELTA_SCHEMA)
            .with("digest", spec_digest)
            .with("shard", self.shard as u64)
            .with("round", self.round as u64)
            .with("entries", entries_json(&self.entries))
            .with(
                "digests",
                Json::Arr(digests.iter().map(|d| Json::Str(format!("{d:016x}"))).collect()),
            )
            .with("evals", self.evals)
            .with("dedup_hits", self.dedup_hits)
            .with("migrations", self.migrations);
        schema::seal(doc)
    }

    /// Parses a sealed delta document.
    ///
    /// # Errors
    ///
    /// Checksum mismatch, wrong schema, or malformed members.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        schema::verify_checksum(doc)?;
        expect_schema(doc, ARCHIVE_DELTA_SCHEMA)?;
        Ok(Self {
            shard: usize_member(doc, "shard")?,
            round: usize_member(doc, "round")?,
            entries: entries_from_json(doc)?,
            digests: digests_member(doc)?,
            evals: u64_member(doc, "evals")?,
            dedup_hits: u64_member(doc, "dedup_hits")?,
            migrations: u64_member(doc, "migrations")?,
        })
    }
}

/// Cumulative campaign counters, as carried by each merged barrier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignCounters {
    /// Evaluations performed campaign-wide.
    pub evals: u64,
    /// Dedup hits (candidates skipped because already evaluated).
    pub dedup_hits: u64,
    /// Migrant-derived candidates.
    pub migrations: u64,
}

/// Per-round statistics, the source of the coverage curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundStats {
    /// Round index.
    pub round: usize,
    /// Cumulative counters after this round's merge.
    pub counters: CampaignCounters,
    /// Covered niches after this round.
    pub covered: usize,
    /// Completely-successful niches after this round.
    pub solved: usize,
}

/// Final outcome of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The merged final archive.
    pub archive: Archive,
    /// Cumulative counters.
    pub counters: CampaignCounters,
    /// Per-round history (coverage curve).
    pub rounds: Vec<RoundStats>,
}

/// File layout of one campaign in a store directory, every file a
/// `SealedDir` document whose save probes the `run.checkpoint.write`
/// fault site. A round's genome digests live in its deltas only.
///
/// ```text
/// <root>/campaign.json          sealed spec
/// <root>/delta-s<S>-r<R>.json   sealed shard deltas (the checkpoints)
/// <root>/merged-r<R>.json       sealed merged archive (round barrier)
/// <root>/archive-final.json     sealed final archive
/// <root>/campaign-summary.json  sealed counters + coverage curve
/// ```
#[derive(Debug, Clone)]
pub struct CampaignStore {
    dir: SealedDir,
}

const SPEC_FILE: &str = "campaign.json";
const FINAL_FILE: &str = "archive-final.json";
const SUMMARY_FILE: &str = "campaign-summary.json";

fn delta_file(shard: usize, round: usize) -> String {
    format!("delta-s{shard}-r{round}.json")
}

fn merged_file(round: usize) -> String {
    format!("merged-r{round}.json")
}

impl CampaignStore {
    /// A store rooted at `root` (created on first write).
    #[must_use]
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self { dir: SealedDir::new(root, "run.checkpoint.write", DocKind::Campaign) }
    }

    /// The root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        self.dir.dir()
    }

    /// Path of the sealed final archive.
    #[must_use]
    pub fn final_path(&self) -> PathBuf {
        self.dir.path(FINAL_FILE)
    }

    /// Path of the sealed campaign summary.
    #[must_use]
    pub fn summary_path(&self) -> PathBuf {
        self.dir.path(SUMMARY_FILE)
    }

    fn write(&self, name: &str, doc: &Json) -> Result<(), String> {
        self.dir
            .save(name, doc)
            .map_err(|e| format!("cannot write {}: {e}", self.dir.path(name).display()))
    }

    /// Publishes the sealed spec, or verifies it matches an existing
    /// one (resume against a different spec is refused, like checkpoint
    /// digest mismatches).
    ///
    /// # Errors
    ///
    /// Write failures, or a pre-existing spec with a different digest.
    pub fn init(&self, spec: &CampaignSpec) -> Result<(), String> {
        if let Some(existing) = self.load_spec()? {
            if existing.digest() != spec.digest() {
                return Err(format!(
                    "campaign store {} belongs to a different spec \
                     (stored digest {}, this campaign {})",
                    self.root().display(),
                    existing.digest(),
                    spec.digest()
                ));
            }
            return Ok(());
        }
        self.write(SPEC_FILE, &spec.to_json())
    }

    /// Loads the sealed spec, if the store is initialised.
    ///
    /// # Errors
    ///
    /// Unreadable or corrupt spec document.
    pub fn load_spec(&self) -> Result<Option<CampaignSpec>, String> {
        self.dir.load(SPEC_FILE, |doc| CampaignSpec::from_json(&doc))
    }

    /// Persists one shard delta (atomic; the shard's round checkpoint).
    ///
    /// # Errors
    ///
    /// Write failures (including injected `run.checkpoint.write` faults).
    pub fn save_delta(&self, spec: &CampaignSpec, delta: &ArchiveDelta) -> Result<(), String> {
        self.write(&delta_file(delta.shard, delta.round), &delta.to_json(&spec.digest()))
    }

    /// Loads one shard delta if present and intact.
    ///
    /// # Errors
    ///
    /// Unreadable or corrupt (checksum-failing) delta.
    pub fn load_delta(&self, shard: usize, round: usize) -> Result<Option<ArchiveDelta>, String> {
        self.dir.load(&delta_file(shard, round), |doc| ArchiveDelta::from_json(&doc))
    }

    /// Persists the merged barrier of `stats.round`, the round's commit
    /// point (written after every delta of the round is durable).
    ///
    /// # Errors
    ///
    /// Write failures.
    pub fn save_merged(
        &self,
        spec: &CampaignSpec,
        stats: &RoundStats,
        archive: &Archive,
    ) -> Result<(), String> {
        let merged = schema::seal(
            Json::object()
                .with("schema", CAMPAIGN_MERGED_SCHEMA)
                .with("digest", spec.digest())
                .with("round", stats.round as u64)
                .with("evals", stats.counters.evals)
                .with("dedup_hits", stats.counters.dedup_hits)
                .with("migrations", stats.counters.migrations)
                .with("covered", stats.covered as u64)
                .with("solved", stats.solved as u64)
                .with("entries", entries_json(&archive.entries)),
        );
        self.write(&merged_file(stats.round), &merged)
    }

    /// Loads the merged barrier of `round`, if committed.
    ///
    /// # Errors
    ///
    /// Unreadable or corrupt merged document.
    pub fn load_merged(&self, round: usize) -> Result<Option<(RoundStats, Archive)>, String> {
        self.dir.load(&merged_file(round), |doc| {
            expect_schema(&doc, CAMPAIGN_MERGED_SCHEMA)?;
            let stats = RoundStats {
                round: usize_member(&doc, "round")?,
                counters: CampaignCounters {
                    evals: u64_member(&doc, "evals")?,
                    dedup_hits: u64_member(&doc, "dedup_hits")?,
                    migrations: u64_member(&doc, "migrations")?,
                },
                covered: usize_member(&doc, "covered")?,
                solved: usize_member(&doc, "solved")?,
            };
            Ok((stats, Archive { entries: entries_from_json(&doc)? }))
        })
    }

    /// Persists the sealed final archive.
    ///
    /// # Errors
    ///
    /// Write failures.
    pub fn save_final(&self, spec: &CampaignSpec, archive: &Archive) -> Result<(), String> {
        self.write(FINAL_FILE, &archive.to_json(&spec.digest()))
    }

    /// Loads the sealed final archive, if the campaign finished.
    ///
    /// # Errors
    ///
    /// Unreadable or corrupt final archive.
    pub fn load_final(&self) -> Result<Option<Archive>, String> {
        self.dir.load(FINAL_FILE, |doc| Archive::from_json(&doc))
    }
}

/// Lazily-built per-niche evaluators sharing one [`WorkerPool`]: every
/// niche evaluation in a shard runs on the same pool threads.
#[derive(Debug)]
pub struct EvaluatorBank {
    spec: CampaignSpec,
    threads: usize,
    pool: Arc<WorkerPool>,
    evaluators: HashMap<String, Evaluator>,
}

impl EvaluatorBank {
    /// A bank for `spec` evaluating on `threads` workers.
    #[must_use]
    pub fn new(spec: &CampaignSpec, threads: usize) -> Self {
        Self {
            spec: spec.clone(),
            threads: threads.max(1),
            pool: Arc::new(WorkerPool::new(threads.max(1))),
            evaluators: HashMap::new(),
        }
    }

    /// The evaluator of one niche (built on first use).
    ///
    /// # Panics
    ///
    /// Panics when the niche's configuration set cannot be generated
    /// (`k` exceeding the cell count — a spec bug, not a runtime state).
    pub fn evaluator_for(&mut self, niche: NicheKey) -> &Evaluator {
        let id = niche.id();
        if !self.evaluators.contains_key(&id) {
            let world = WorldConfig::paper(niche.kind, niche.m);
            let configs = paper_config_set(
                Lattice::torus(niche.m, niche.m),
                niche.kind,
                niche.k,
                self.spec.configs,
                self.spec.seed,
            )
            .unwrap_or_else(|e| panic!("niche {id} has no valid configuration set: {e}"));
            let evaluator = Evaluator::new(world, configs)
                .with_t_max(self.spec.t_max)
                .with_threads(self.threads)
                .with_pool(Arc::clone(&self.pool));
            self.evaluators.insert(id.clone(), evaluator);
        }
        &self.evaluators[&id]
    }
}

/// The deterministic work-stealing deal: per shard, the niches it works
/// this round with their candidate budgets. A pure function of the spec
/// and the merged archive, so every replica agrees without messages.
#[must_use]
pub fn assign_round(
    spec: &CampaignSpec,
    round: usize,
    archive: &Archive,
) -> Vec<Vec<(NicheKey, usize)>> {
    // Cold-first deck: uncovered, then covered-but-unsolved, then
    // solved; stable by id within a class.
    let mut deck: Vec<(u8, String, NicheKey)> = spec
        .niches
        .iter()
        .map(|n| {
            let id = n.id();
            let class = match archive.get(&id) {
                None => 0u8,
                Some(e) if !e.report.is_completely_successful() => 1,
                Some(_) => 2,
            };
            (class, id, *n)
        })
        .collect();
    deck.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    let mut shards: Vec<Vec<(NicheKey, usize)>> = vec![Vec::new(); spec.shards.max(1)];
    for (i, (class, _, niche)) in deck.into_iter().enumerate() {
        // Rotating the deal by the round index spreads cold niches
        // across shards over time (no shard is pinned to a cold set).
        let shard = (i + round) % spec.shards.max(1);
        let budget = match class {
            0 => spec.batch * 2, // cold niches soak up spare capacity
            1 => spec.batch,
            // Solved niches still refine (lower mean t_comm): at least
            // the incumbent probe plus one mutation slot.
            _ => (spec.batch / 2).max(2),
        };
        shards[shard].push((niche, budget));
    }
    shards
}

/// Up to two migrant parents for `niche`: elites of *other* niches with
/// the same grid kind, nearest by (m, k) distance, deterministic order.
fn migrants_for(spec: &CampaignSpec, niche: NicheKey, archive: &Archive) -> Vec<Elite> {
    let mut sources: Vec<(u64, String, Elite)> = spec
        .niches
        .iter()
        .filter(|n| n.kind == niche.kind && **n != niche)
        .filter_map(|n| {
            let id = n.id();
            archive.get(&id).map(|e| {
                let dm = (i64::from(n.m) - i64::from(niche.m)).unsigned_abs();
                let dk = (n.k as i64 - niche.k as i64).unsigned_abs();
                (dm * 1000 + dk, id, e.clone())
            })
        })
        .collect();
    sources.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    sources.into_iter().take(2).map(|(_, _, e)| e).collect()
}

/// Runs one shard round: a pure function of the spec, shard, round and
/// previous merged archive (plus the digest set derived from committed
/// rounds). See the module docs for the candidate schedule.
pub fn run_shard_round(
    spec: &CampaignSpec,
    shard: usize,
    round: usize,
    merged: &Archive,
    digests: &DigestSet,
    bank: &mut EvaluatorBank,
) -> ArchiveDelta {
    let assignment = assign_round(spec, round, merged);
    let mut delta = ArchiveDelta { shard, round, ..ArchiveDelta::default() };
    let mut in_round: HashSet<u64> = HashSet::new();
    let rates = MutationRates::paper();
    for (niche, budget) in assignment.get(shard).cloned().unwrap_or_default() {
        let niche_id = niche.id();
        let fsm_spec = FsmSpec::paper(niche.kind);
        let stream = format!("{:016x}|{shard}|{round}|{niche_id}", spec.seed);
        let mut rng = SmallRng::seed_from_u64(schema::fnv1a64(stream.as_bytes()));
        let incumbent = merged.get(&niche_id).cloned();
        let migrants = migrants_for(spec, niche, merged);

        // Candidate schedule: the incumbent re-probe first (exercising
        // the dedup path every round), then mutations cycling over
        // incumbent + migrant parents, one fresh random genome last.
        let mut parents: Vec<(Genome, bool)> = Vec::new();
        if let Some(e) = &incumbent {
            if let Some(g) = Genome::from_digits(fsm_spec, &e.digits) {
                parents.push((g, false));
            }
        }
        for m in &migrants {
            if let Some(g) = Genome::from_digits(fsm_spec, &m.digits) {
                parents.push((g, true));
            }
        }
        let mut candidates: Vec<Genome> = Vec::with_capacity(budget);
        if let Some((g, _)) = parents.first() {
            candidates.push(g.clone()); // incumbent/migrant re-probe
        }
        // Start the parent cycle at the round index so small budgets
        // still rotate through migrants over the campaign instead of
        // re-mutating the incumbent forever.
        let mut next_parent = round;
        // One trailing random-exploration slot, but only when the
        // budget leaves room for at least one mutation beside it.
        let reserve_random = budget >= 3;
        while candidates.len() < budget {
            let remaining = budget - candidates.len();
            if parents.is_empty() || (reserve_random && remaining == 1) {
                candidates.push(Genome::random(fsm_spec, &mut rng));
            } else {
                let (parent, is_migrant) = &parents[next_parent % parents.len()];
                next_parent += 1;
                if *is_migrant {
                    delta.migrations += 1;
                }
                candidates.push(offspring(parent, rates, &mut rng));
            }
        }

        let mut to_eval: Vec<Genome> = Vec::new();
        for genome in candidates {
            let digest = genome_digest(&niche_id, &genome.to_digits());
            if digests.contains(digest) || !in_round.insert(digest) {
                delta.dedup_hits += 1;
            } else {
                delta.digests.push(digest);
                to_eval.push(genome);
            }
        }
        let reports = bank.evaluator_for(niche).evaluate_all(&to_eval);
        delta.evals += to_eval.len() as u64;
        for (genome, report) in to_eval.into_iter().zip(reports) {
            delta.fold(&niche_id, Elite { digits: genome.to_digits(), report });
        }
    }
    delta.digests.sort_unstable();
    if a2a_obs::metrics_enabled() {
        let reg = a2a_obs::global();
        reg.counter("campaign.evals").add(delta.evals);
        reg.counter("campaign.dedup.hits").add(delta.dedup_hits);
        reg.counter("campaign.migrations").add(delta.migrations);
    }
    delta
}

/// Runs (or resumes) a whole campaign in this process and seals
/// `archive-final.json` plus the summary. Round by round: a committed
/// barrier is loaded, and its deltas' digests join the dedup set;
/// otherwise [`CAMPAIGN_ROUND_SITE`] is probed once, the shards take
/// turns on one [`EvaluatorBank`] (a durable delta is loaded, not
/// recomputed), and their deltas are folded in shard order and
/// committed as the round's barrier.
///
/// Returns `Ok(None)` when an injected `campaign.round` kill fired: the
/// caller should die like a real crash (`exit(137)`), and a rerun
/// resumes from the last committed barrier.
///
/// # Errors
///
/// Store I/O failures, corrupt or missing artifacts, or a store sealed
/// for another spec.
pub fn run_campaign(
    store: &CampaignStore,
    spec: &CampaignSpec,
    threads: usize,
) -> Result<Option<CampaignOutcome>, String> {
    store.init(spec)?;
    let mut bank = EvaluatorBank::new(spec, threads);
    let mut archive = Archive::new();
    let mut digests = DigestSet::new();
    let mut counters = CampaignCounters::default();
    let mut rounds = Vec::with_capacity(spec.rounds);
    for round in 0..spec.rounds {
        let committed = store.load_merged(round)?;
        if committed.is_none() && fault::should_kill(CAMPAIGN_ROUND_SITE) {
            return Ok(None);
        }
        // Every shard sees only the digests of earlier rounds, so they
        // join the set after the whole round is computed.
        let mut deltas = Vec::with_capacity(spec.shards);
        for shard in 0..spec.shards {
            let delta = match store.load_delta(shard, round)? {
                Some(delta) => delta,
                None if committed.is_some() => {
                    return Err(format!("round {round} is committed without shard {shard}'s delta"))
                }
                None => {
                    let delta = run_shard_round(spec, shard, round, &archive, &digests, &mut bank);
                    store.save_delta(spec, &delta)?;
                    delta
                }
            };
            deltas.push(delta);
        }
        for d in deltas.iter().flat_map(|delta| &delta.digests) {
            digests.insert(*d);
        }
        if let Some((stats, merged)) = committed {
            archive = merged;
            counters = stats.counters;
            rounds.push(stats);
            continue;
        }
        for delta in &deltas {
            counters.evals += delta.evals;
            counters.dedup_hits += delta.dedup_hits;
            counters.migrations += delta.migrations;
            archive.merge(delta);
        }
        let stats = RoundStats {
            round,
            counters,
            covered: archive.covered(),
            solved: archive.solved(),
        };
        store.save_merged(spec, &stats, &archive)?;
        rounds.push(stats);
    }
    store.save_final(spec, &archive)?;
    let summary = schema::seal(
        Json::object()
            .with("schema", CAMPAIGN_SUMMARY_SCHEMA)
            .with("digest", spec.digest())
            .with("rounds", spec.rounds as u64)
            .with("shards", spec.shards as u64)
            .with("niches", spec.niches.len() as u64)
            .with("evals", counters.evals)
            .with("dedup_hits", counters.dedup_hits)
            .with("migrations", counters.migrations)
            .with(
                "coverage_curve",
                Json::Arr(
                    rounds
                        .iter()
                        .map(|r| {
                            Json::object()
                                .with("round", r.round as u64)
                                .with("covered", r.covered as u64)
                                .with("solved", r.solved as u64)
                                .with("evals", r.counters.evals)
                        })
                        .collect(),
                ),
            ),
    );
    store.write(SUMMARY_FILE, &summary)?;
    Ok(Some(CampaignOutcome { archive, counters, rounds }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            niches: vec![
                NicheKey { kind: GridKind::Square, m: 4, k: 2 },
                NicheKey { kind: GridKind::Triangulate, m: 4, k: 2 },
                NicheKey { kind: GridKind::Triangulate, m: 4, k: 3 },
            ],
            shards: 2,
            rounds: 2,
            batch: 3,
            configs: 2,
            t_max: 40,
            seed: 11,
        }
    }

    fn elite(digits: &str, fitness: f64) -> Elite {
        Elite {
            digits: digits.to_string(),
            report: FitnessReport { fitness, successes: 0, total: 2, mean_t_comm: None },
        }
    }

    #[test]
    fn niche_id_round_trips() {
        for n in tiny_spec().niches {
            assert_eq!(NicheKey::parse(&n.id()).unwrap(), n);
        }
        assert!(NicheKey::parse("x-m4-k2").is_err());
        assert!(NicheKey::parse("t-m4-k2-junk").is_err());
    }

    #[test]
    fn spec_round_trips_sealed() {
        let spec = tiny_spec();
        let doc = spec.to_json();
        assert!(schema::verify_checksum(&doc).is_ok());
        assert_eq!(CampaignSpec::from_json(&doc).unwrap(), spec);
    }

    #[test]
    fn spec_with_an_oversized_horizon_is_refused() {
        // 2³² + 40 used to truncate to the spec's own 40 and so pass the
        // digest check as that spec.
        let doc = schema::seal(tiny_spec().to_json().with("t_max", (1u64 << 32) + 40));
        let err = CampaignSpec::from_json(&doc).unwrap_err();
        assert!(err.contains("`t_max`"), "{err}");
    }

    #[test]
    fn elite_order_is_total_and_fold_is_commutative() {
        let a = elite("111", 5.0);
        let b = elite("222", 5.0);
        let c = elite("000", 3.0);
        assert!(a.better_than(&b) && !b.better_than(&a));
        assert!(c.better_than(&a));
        let mut one = Archive::new();
        let mut two = Archive::new();
        for e in [&a, &b, &c] {
            one.fold("n", (*e).clone());
        }
        for e in [&c, &b, &a] {
            two.fold("n", (*e).clone());
        }
        assert_eq!(one, two);
        assert_eq!(one.get("n").unwrap().digits, "000");
    }

    #[test]
    fn delta_round_trips_sealed() {
        let mut delta = ArchiveDelta { shard: 1, round: 3, ..Default::default() };
        delta.fold("t-m4-k2", elite("012", 42.5));
        delta.digests = vec![9, 4];
        delta.evals = 2;
        delta.dedup_hits = 1;
        delta.migrations = 1;
        let doc = delta.to_json("cafe");
        let back = ArchiveDelta::from_json(&doc).unwrap();
        // Serialisation sorts the digest list (canonical form).
        let mut want = delta.clone();
        want.digests.sort_unstable();
        assert_eq!(back, want);
    }

    #[test]
    fn archive_final_round_trips_sealed() {
        let mut archive = Archive::new();
        archive.fold("s-m4-k2", elite("001", 7.0));
        let doc = archive.to_json("deadbeef");
        assert_eq!(Archive::from_json(&doc).unwrap(), archive);
    }

    #[test]
    fn assignment_covers_every_niche_and_boosts_cold_ones() {
        let spec = tiny_spec();
        let empty = Archive::new();
        let deal = assign_round(&spec, 0, &empty);
        assert_eq!(deal.len(), spec.shards);
        let all: Vec<_> = deal.iter().flatten().collect();
        assert_eq!(all.len(), spec.niches.len(), "every niche dealt exactly once");
        assert!(all.iter().all(|(_, b)| *b == spec.batch * 2), "cold niches get 2x budget");
        // Once a niche is covered its budget drops to the base batch.
        let mut partial = Archive::new();
        partial.fold(&spec.niches[0].id(), elite("0", 1.0));
        let deal = assign_round(&spec, 1, &partial);
        let covered: Vec<_> = deal
            .iter()
            .flatten()
            .filter(|(n, _)| *n == spec.niches[0])
            .collect();
        assert_eq!(covered[0].1, spec.batch);
    }

    #[test]
    fn assignment_rotates_across_rounds() {
        let spec = tiny_spec();
        let empty = Archive::new();
        let r0 = assign_round(&spec, 0, &empty);
        let r1 = assign_round(&spec, 1, &empty);
        assert_ne!(
            r0.iter().map(|s| s.iter().map(|(n, _)| n.id()).collect::<Vec<_>>()).collect::<Vec<_>>(),
            r1.iter().map(|s| s.iter().map(|(n, _)| n.id()).collect::<Vec<_>>()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn shard_round_is_a_pure_function_of_its_inputs() {
        let spec = tiny_spec();
        let empty = Archive::new();
        let digests = DigestSet::new();
        let mut bank_a = EvaluatorBank::new(&spec, 1);
        let mut bank_b = EvaluatorBank::new(&spec, 1);
        let a = run_shard_round(&spec, 0, 0, &empty, &digests, &mut bank_a);
        let b = run_shard_round(&spec, 0, 0, &empty, &digests, &mut bank_b);
        assert_eq!(a, b);
        assert_eq!(format!("{}", a.to_json("d")), format!("{}", b.to_json("d")));
        assert!(a.evals > 0);
    }

    #[test]
    fn dedup_skips_already_known_digests() {
        let spec = tiny_spec();
        let empty = Archive::new();
        let mut bank = EvaluatorBank::new(&spec, 1);
        let first = run_shard_round(&spec, 0, 0, &empty, &DigestSet::new(), &mut bank);
        let mut known = DigestSet::new();
        for d in &first.digests {
            known.insert(*d);
        }
        let second = run_shard_round(&spec, 0, 0, &empty, &known, &mut bank);
        assert_eq!(second.evals, 0, "every candidate was already evaluated");
        assert_eq!(second.dedup_hits, first.evals + first.dedup_hits);
    }

    #[test]
    fn inline_campaign_runs_merges_and_seals() {
        let dir = std::env::temp_dir().join(format!("a2a_campaign_inline_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CampaignStore::new(&dir);
        let spec = tiny_spec();
        let outcome = run_campaign(&store, &spec, 1).unwrap().expect("no fault is armed");
        assert_eq!(outcome.rounds.len(), spec.rounds);
        assert!(outcome.counters.evals > 0);
        assert!(outcome.counters.dedup_hits > 0, "incumbent re-probes hit the dedup set");
        assert!(outcome.counters.migrations > 0, "same-kind elites migrate");
        assert_eq!(outcome.archive.covered(), spec.niches.len());
        // Final artifact loads back as the merged archive.
        assert_eq!(store.load_final().unwrap(), Some(outcome.archive.clone()));
        // Coverage curve is monotone.
        for w in outcome.rounds.windows(2) {
            assert!(w[1].covered >= w[0].covered);
            assert!(w[1].counters.evals >= w[0].counters.evals);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumed_campaign_is_byte_identical_to_control() {
        let base = std::env::temp_dir().join(format!("a2a_campaign_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let spec = tiny_spec();
        // Control: uninterrupted.
        let control = CampaignStore::new(base.join("control"));
        run_campaign(&control, &spec, 1).unwrap();
        // Killed mid-round 0: shard 0's delta landed, shard 1's never
        // did. Resume:
        let broken = CampaignStore::new(base.join("broken"));
        broken.init(&spec).unwrap();
        let mut bank = EvaluatorBank::new(&spec, 1);
        let empty = Archive::new();
        let d0 = run_shard_round(&spec, 0, 0, &empty, &DigestSet::new(), &mut bank);
        broken.save_delta(&spec, &d0).unwrap();
        run_campaign(&broken, &spec, 1).unwrap();
        // Killed at the start of round 1: round 0 is committed, so the
        // rerun reads round 0's digests back from its deltas.
        let committed = CampaignStore::new(base.join("committed"));
        std::fs::create_dir_all(committed.root()).unwrap();
        for name in [SPEC_FILE.to_string(), delta_file(0, 0), delta_file(1, 0), merged_file(0)] {
            std::fs::copy(control.root().join(&name), committed.root().join(&name)).unwrap();
        }
        run_campaign(&committed, &spec, 1).unwrap();
        for resumed in [&broken, &committed] {
            for (want, got) in [
                (control.final_path(), resumed.final_path()),
                (control.summary_path(), resumed.summary_path()),
            ] {
                let (a, b) = (std::fs::read(want).unwrap(), std::fs::read(&got).unwrap());
                assert!(a == b, "{} diverged from the control", got.display());
            }
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn store_refuses_a_different_spec() {
        let dir = std::env::temp_dir().join(format!("a2a_campaign_spec_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CampaignStore::new(&dir);
        let spec = tiny_spec();
        store.init(&spec).unwrap();
        let other = CampaignSpec { seed: 99, ..spec };
        let err = store.init(&other).unwrap_err();
        assert!(err.contains("different spec"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
