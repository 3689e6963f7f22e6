//! The `a2a-run/checkpoint/v1` document: a sealed, self-describing JSON
//! snapshot of an evolution run at a generation (or epoch) boundary.
//!
//! The format captures everything [`Evolution::run_resumable`] needs to
//! continue bit-identically:
//!
//! * the xoshiro256++ RNG state (four 64-bit words — serialised as
//!   16-digit hex strings because the JSON number model only covers
//!   integers below 2⁵³ exactly);
//! * the full population in post-exchange order (order is load-bearing:
//!   the diversity exchange of Sect. 4 is position-based);
//! * the per-generation history so the resumed
//!   [`a2a_ga::EvolutionOutcome`] is indistinguishable from an
//!   uninterrupted one;
//! * an evaluation-context digest (GA parameters, world, horizon and
//!   training configurations) so a checkpoint is never resumed against a
//!   different experiment;
//! * cache counters, informational only — the fitness cache is *not*
//!   persisted, and PR 3's determinism guarantee (cold caches change
//!   timing, never results) is what makes that sound.
//!
//! The whole document is sealed with [`a2a_obs::schema::seal`], so a
//! torn or hand-edited checkpoint fails [`verify_checksum`] before any
//! field is trusted.
//!
//! [`Evolution::run_resumable`]: a2a_ga::Evolution::run_resumable
//! [`verify_checksum`]: a2a_obs::schema::verify_checksum

use a2a_fsm::{FsmSpec, Genome, TurnSet};
use a2a_ga::{GaConfig, GenerationStats, Individual, IslandsState, RunState};
use crate::sealed::{arr_member, expect_schema, member, str_member, u64_member, usize_member};
use a2a_obs::json::Json;
use a2a_obs::schema;
use a2a_sim::{InitialConfig, WorldConfig};

/// Schema identifier of checkpoint documents.
pub const CHECKPOINT_SCHEMA: &str = "a2a-run/checkpoint/v1";

/// Format version inside the schema (bumped on incompatible layout
/// changes; the schema string itself names the major family).
pub const CHECKPOINT_VERSION: u64 = 1;

/// Digest of the evaluation context a run was checkpointed under: the
/// GA parameters, the world, the simulation horizon and the training
/// configuration placements. Two runs resume-compatible iff their
/// digests match — resuming against a different experiment would be
/// silently wrong, so [`Checkpoint::from_json`] callers compare this
/// first.
///
/// Implementation: FNV-1a 64 over the `Debug` rendering of the parts
/// (all involved types derive `Debug` with full field coverage), as 16
/// lowercase hex digits.
#[must_use]
pub fn context_digest(
    config: &GaConfig,
    world: &WorldConfig,
    t_max: u32,
    configs: &[InitialConfig],
) -> String {
    let mut text = format!("{config:?}|{world:?}|{t_max}|");
    for c in configs {
        text.push_str(&format!("{:?};", c.placements()));
    }
    format!("{:016x}", schema::fnv1a64(text.as_bytes()))
}

/// Informational cache/pool counters captured at checkpoint time. Not
/// needed for resume correctness (the cache is rebuilt warm as the
/// resumed run re-evaluates), but they let `obs_validate --run` report
/// how much work a recovered run had already amortised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// Entries in the fitness cache when the checkpoint was taken.
    pub cache_entries: u64,
    /// Cache hits accumulated so far.
    pub cache_hits: u64,
}

/// What kind of run the checkpoint snapshots.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A single-pool run at a generation boundary.
    Single(RunState),
    /// An island-model run at an epoch boundary.
    Islands(IslandsState),
}

/// One checkpoint document (see the module docs for the format).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// [`context_digest`] of the experiment this checkpoint belongs to.
    pub digest: String,
    /// The genome spec (needed to decode `digits` strings back into
    /// [`Genome`]s).
    pub spec: FsmSpec,
    /// Informational counters.
    pub counters: Counters,
    /// The resumable state.
    pub payload: Payload,
}

fn turn_set_name(t: TurnSet) -> &'static str {
    match t {
        TurnSet::Square => "square",
        TurnSet::TriangulateRestricted => "triangulate-restricted",
        TurnSet::TriangulateFull => "triangulate-full",
    }
}

fn turn_set_from_name(name: &str) -> Result<TurnSet, String> {
    match name {
        "square" => Ok(TurnSet::Square),
        "triangulate-restricted" => Ok(TurnSet::TriangulateRestricted),
        "triangulate-full" => Ok(TurnSet::TriangulateFull),
        other => Err(format!("unknown turn set `{other}`")),
    }
}

fn hex_word(w: u64) -> Json {
    Json::Str(format!("{w:016x}"))
}

fn parse_hex_word(v: &Json) -> Result<u64, String> {
    let s = v.as_str().ok_or("RNG state word must be a hex string")?;
    u64::from_str_radix(s, 16).map_err(|e| format!("bad RNG state word `{s}`: {e}"))
    // (JSON numbers cannot carry full u64 precision — see module docs.)
}

fn individual_to_json(ind: &Individual) -> Json {
    Json::object()
        .with("digits", ind.genome.to_digits())
        .with("report", ind.report.to_json())
}

fn individual_from_json(spec: FsmSpec, doc: &Json) -> Result<Individual, String> {
    let digits = str_member(doc, "digits")?;
    let genome = Genome::from_digits(spec, digits)
        .ok_or_else(|| format!("genome digits `{digits}` do not fit the spec"))?;
    let report = a2a_ga::FitnessReport::from_json(member(doc, "report")?)?;
    Ok(Individual { genome, report })
}

fn pool_to_json(pool: &[Individual]) -> Json {
    Json::Arr(pool.iter().map(individual_to_json).collect())
}

/// The `pool` member of a single-run checkpoint or of one island.
fn pool_from_json(spec: FsmSpec, doc: &Json) -> Result<Vec<Individual>, String> {
    arr_member(doc, "pool")?.iter().map(|ind| individual_from_json(spec, ind)).collect()
}

fn history_to_json(history: &[GenerationStats]) -> Json {
    Json::Arr(history.iter().map(GenerationStats::to_json).collect())
}

/// The `history` member of a single-run checkpoint or of one island.
fn history_from_json(doc: &Json) -> Result<Vec<GenerationStats>, String> {
    arr_member(doc, "history")?.iter().map(GenerationStats::from_json).collect()
}

impl Checkpoint {
    /// Serialises the checkpoint as a sealed JSON document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut doc = Json::object()
            .with("schema", CHECKPOINT_SCHEMA)
            .with("version", CHECKPOINT_VERSION)
            .with("digest", self.digest.as_str())
            .with(
                "spec",
                Json::object()
                    .with("n_states", u64::from(self.spec.n_states))
                    .with("n_colors", u64::from(self.spec.n_colors))
                    .with("turn_set", turn_set_name(self.spec.turn_set)),
            )
            .with(
                "counters",
                Json::object()
                    .with("cache_entries", self.counters.cache_entries)
                    .with("cache_hits", self.counters.cache_hits),
            );
        match &self.payload {
            Payload::Single(state) => {
                doc = doc
                    .with("mode", "single")
                    .with(
                        "rng_state",
                        Json::Arr(state.rng_state.iter().copied().map(hex_word).collect()),
                    )
                    .with("next_generation", state.next_generation as u64)
                    .with("pool", pool_to_json(&state.pool))
                    .with("history", history_to_json(&state.history));
            }
            Payload::Islands(state) => {
                doc = doc.with("mode", "islands").with("next_epoch", state.next_epoch as u64).with(
                    "islands",
                    Json::Arr(
                        state
                            .outcomes
                            .iter()
                            .map(|o| {
                                Json::object()
                                    .with("pool", pool_to_json(&o.pool))
                                    .with("history", history_to_json(&o.history))
                            })
                            .collect(),
                    ),
                );
            }
        }
        schema::seal(doc)
    }

    /// Parses and validates a checkpoint document: checksum first, then
    /// schema/version, then every field.
    ///
    /// # Errors
    ///
    /// A message naming the first failed gate (checksum mismatch, wrong
    /// schema, missing or mistyped member, undecodable genome).
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        schema::verify_checksum(doc)?;
        expect_schema(doc, CHECKPOINT_SCHEMA)?;
        let version = u64_member(doc, "version")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!("unsupported checkpoint version {version}"));
        }
        let digest = str_member(doc, "digest")?.to_string();
        let spec_doc = member(doc, "spec")?;
        let spec = FsmSpec::new(
            spec_count(spec_doc, "n_states")?,
            spec_count(spec_doc, "n_colors")?,
            turn_set_from_name(str_member(spec_doc, "turn_set")?)?,
        );
        let counters_doc = member(doc, "counters")?;
        let counters = Counters {
            cache_entries: u64_member(counters_doc, "cache_entries")?,
            cache_hits: u64_member(counters_doc, "cache_hits")?,
        };
        let payload = match str_member(doc, "mode")? {
            "single" => {
                let words = arr_member(doc, "rng_state")?;
                if words.len() != 4 {
                    return Err(format!("rng_state has {} words, want 4", words.len()));
                }
                let mut rng_state = [0u64; 4];
                for (slot, word) in rng_state.iter_mut().zip(words) {
                    *slot = parse_hex_word(word)?;
                }
                if rng_state == [0; 4] {
                    return Err("rng_state is all-zero (invalid xoshiro state)".to_string());
                }
                Payload::Single(RunState {
                    rng_state,
                    pool: pool_from_json(spec, doc)?,
                    history: history_from_json(doc)?,
                    next_generation: usize_member(doc, "next_generation")?,
                })
            }
            "islands" => {
                let outcomes = arr_member(doc, "islands")?
                    .iter()
                    .map(|island| {
                        Ok(a2a_ga::EvolutionOutcome {
                            pool: pool_from_json(spec, island)?,
                            history: history_from_json(island)?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Payload::Islands(IslandsState {
                    next_epoch: usize_member(doc, "next_epoch")?,
                    outcomes,
                })
            }
            other => return Err(format!("unknown checkpoint mode `{other}`")),
        };
        Ok(Self { digest, spec, counters, payload })
    }
}

/// A spec count (`n_states`, `n_colors`): `FsmSpec::new` needs it in
/// `1..=255`, so a value outside is refused by name, never truncated.
fn spec_count(spec_doc: &Json, key: &str) -> Result<u8, String> {
    let v = u64_member(spec_doc, key)?;
    u8::try_from(v)
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("`spec.{key}` must be in 1..=255, got {v}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_ga::FitnessReport;
    use a2a_grid::GridKind;
    use rand::{rngs::SmallRng, SeedableRng};

    fn sample_state(spec: FsmSpec) -> RunState {
        let mut rng = SmallRng::seed_from_u64(11);
        let pool: Vec<Individual> = (0..3)
            .map(|i| Individual {
                genome: Genome::random(spec, &mut rng),
                report: FitnessReport {
                    fitness: 1234.5 + f64::from(i),
                    successes: 3,
                    total: 5,
                    mean_t_comm: (i > 0).then_some(88.25),
                },
            })
            .collect();
        RunState {
            rng_state: rng.state(),
            pool,
            history: vec![GenerationStats {
                generation: 0,
                best_fitness: 1234.5,
                median_fitness: 1235.5,
                mean_fitness: 1235.5,
                best_successes: 3,
                best_complete: false,
                pool_diversity: 0.5,
                duplicates_removed: 0,
                offspring_accepted: 0,
            }],
            next_generation: 1,
        }
    }

    #[test]
    fn single_checkpoint_round_trips_exactly() {
        let spec = FsmSpec::paper(GridKind::Triangulate);
        let state = sample_state(spec);
        let ckpt = Checkpoint {
            digest: "00deadbeef00cafe".to_string(),
            spec,
            counters: Counters { cache_entries: 7, cache_hits: 3 },
            payload: Payload::Single(state.clone()),
        };
        let doc = a2a_obs::json::parse(&ckpt.to_json().to_string()).unwrap();
        let back = Checkpoint::from_json(&doc).unwrap();
        assert_eq!(back.digest, ckpt.digest);
        assert_eq!(back.spec, spec);
        assert_eq!(back.counters, ckpt.counters);
        let Payload::Single(got) = back.payload else { panic!("wrong mode") };
        assert_eq!(got.rng_state, state.rng_state);
        assert_eq!(got.pool, state.pool);
        assert_eq!(got.history, state.history);
        assert_eq!(got.next_generation, state.next_generation);
    }

    #[test]
    fn rng_words_survive_above_2_pow_53() {
        let spec = FsmSpec::paper(GridKind::Square);
        let mut state = sample_state(spec);
        state.rng_state = [u64::MAX, 1 << 60, (1 << 53) + 1, 0xDEAD_BEEF_DEAD_BEEF];
        let ckpt = Checkpoint {
            digest: "d".repeat(16),
            spec,
            counters: Counters::default(),
            payload: Payload::Single(state.clone()),
        };
        let doc = a2a_obs::json::parse(&ckpt.to_json().to_string()).unwrap();
        let Payload::Single(got) = Checkpoint::from_json(&doc).unwrap().payload else {
            panic!("wrong mode")
        };
        assert_eq!(got.rng_state, state.rng_state);
    }

    #[test]
    fn tampered_checkpoint_fails_checksum() {
        let spec = FsmSpec::paper(GridKind::Square);
        let ckpt = Checkpoint {
            digest: "a".repeat(16),
            spec,
            counters: Counters::default(),
            payload: Payload::Single(sample_state(spec)),
        };
        let mut doc = ckpt.to_json();
        doc.set("next_generation", 99u64);
        let err = Checkpoint::from_json(&doc).unwrap_err();
        assert!(err.contains("checksum"), "got: {err}");
    }

    #[test]
    fn out_of_range_spec_counts_are_refused_by_name() {
        // A resealed document whose spec count is 0 used to panic in
        // `FsmSpec::new`, and one above 255 loaded truncated (260 as 4).
        let spec = FsmSpec::paper(GridKind::Square);
        let ckpt = Checkpoint {
            digest: "e".repeat(16),
            spec,
            counters: Counters::default(),
            payload: Payload::Single(sample_state(spec)),
        };
        for key in ["n_states", "n_colors"] {
            for bad in [0u64, 260] {
                let mut doc = ckpt.to_json();
                let mut spec_doc = doc.get("spec").unwrap().clone();
                spec_doc.set(key, bad);
                doc.set("spec", spec_doc);
                let err = Checkpoint::from_json(&schema::seal(doc)).unwrap_err();
                assert_eq!(err, format!("`spec.{key}` must be in 1..=255, got {bad}"));
            }
        }
    }

    #[test]
    fn all_zero_rng_state_is_rejected() {
        let spec = FsmSpec::paper(GridKind::Square);
        let mut state = sample_state(spec);
        state.rng_state = [0; 4];
        let ckpt = Checkpoint {
            digest: "b".repeat(16),
            spec,
            counters: Counters::default(),
            payload: Payload::Single(state),
        };
        let err = Checkpoint::from_json(&ckpt.to_json()).unwrap_err();
        assert!(err.contains("all-zero"), "got: {err}");
    }

    #[test]
    fn islands_checkpoint_round_trips() {
        let spec = FsmSpec::paper(GridKind::Square);
        let state = sample_state(spec);
        let outcome = a2a_ga::EvolutionOutcome {
            pool: state.pool.clone(),
            history: state.history.clone(),
        };
        let ckpt = Checkpoint {
            digest: "c".repeat(16),
            spec,
            counters: Counters::default(),
            payload: Payload::Islands(IslandsState {
                next_epoch: 2,
                outcomes: vec![outcome.clone(), outcome.clone()],
            }),
        };
        let doc = a2a_obs::json::parse(&ckpt.to_json().to_string()).unwrap();
        let back = Checkpoint::from_json(&doc).unwrap();
        let Payload::Islands(got) = back.payload else { panic!("wrong mode") };
        assert_eq!(got.next_epoch, 2);
        assert_eq!(got.outcomes.len(), 2);
        assert_eq!(got.outcomes[0].pool, outcome.pool);
        assert_eq!(got.outcomes[1].history, outcome.history);
    }

    #[test]
    fn digest_distinguishes_experiments() {
        let world_s = WorldConfig::paper(GridKind::Square, 8);
        let world_t = WorldConfig::paper(GridKind::Triangulate, 8);
        let cfg = GaConfig::paper(10, 42);
        let a = context_digest(&cfg, &world_s, 200, &[]);
        let b = context_digest(&cfg, &world_t, 200, &[]);
        let c = context_digest(&cfg, &world_s, 201, &[]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, context_digest(&cfg, &world_s, 200, &[]));
        assert_eq!(a.len(), 16);
    }
}
