//! Reader totality for every document the stores write (DESIGN.md §9):
//! a document saved through its store, then torn at a random byte or
//! hit by one flipped byte, must load back through the same store as an
//! error — or, when the damage leaves the canonical rendering intact
//! (the trailing newline), as the identical value. It must never panic,
//! and it must never read as absent.

use a2a_fsm::FsmSpec;
use a2a_ga::{Evaluator, GaConfig, IslandConfig};
use a2a_grid::GridKind;
use a2a_obs::json::Json;
use a2a_obs::schema;
use a2a_run::campaign::{run_campaign, CampaignSpec, CampaignStore, NicheKey};
use a2a_run::{
    run_evolution, run_islands_checkpointed, CheckpointStore, JobManifest, JobStatus, JobStore,
    RunOptions,
};
use a2a_sim::{paper_config_set, WorldConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::fmt::Debug;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Every kind of document the three stores persist.
#[derive(Debug, Clone, Copy)]
enum Kind {
    SingleCheckpoint,
    IslandsCheckpoint,
    Manifest,
    Result,
    CampaignSpec,
    Delta,
    Merged,
    FinalArchive,
}

const KINDS: [Kind; 8] = [
    Kind::SingleCheckpoint,
    Kind::IslandsCheckpoint,
    Kind::Manifest,
    Kind::Result,
    Kind::CampaignSpec,
    Kind::Delta,
    Kind::Merged,
    Kind::FinalArchive,
];

const JOB: &str = "job-7";

/// Where each kind lives under a fixture root (the documented layouts
/// of the three stores).
fn file(kind: Kind) -> &'static str {
    match kind {
        Kind::SingleCheckpoint => "single/checkpoint.json",
        Kind::IslandsCheckpoint => "islands/checkpoint.json",
        Kind::Manifest => "serve/jobs/job-7/manifest.json",
        Kind::Result => "serve/jobs/job-7/result.json",
        Kind::CampaignSpec => "campaign/campaign.json",
        Kind::Delta => "campaign/delta-s1-r1.json",
        Kind::Merged => "campaign/merged-r0.json",
        Kind::FinalArchive => "campaign/archive-final.json",
    }
}

/// Loads `kind` from the tree at `root` through its store, rendering a
/// loaded value with `Debug` so every kind compares the same way.
fn load(kind: Kind, root: &Path) -> Result<Option<String>, String> {
    fn rendered<T: Debug>(loaded: Result<Option<T>, String>) -> Result<Option<String>, String> {
        loaded.map(|value| value.map(|v| format!("{v:?}")))
    }
    let jobs = JobStore::new(root.join("serve"));
    let campaign = CampaignStore::new(root.join("campaign"));
    match kind {
        Kind::SingleCheckpoint => rendered(CheckpointStore::new(root.join("single")).load()),
        Kind::IslandsCheckpoint => rendered(CheckpointStore::new(root.join("islands")).load()),
        Kind::Manifest => rendered(jobs.load_manifest(JOB)),
        Kind::Result => rendered(jobs.load_result(JOB)),
        Kind::CampaignSpec => rendered(campaign.load_spec()),
        Kind::Delta => rendered(campaign.load_delta(1, 1)),
        Kind::Merged => rendered(campaign.load_merged(0)),
        Kind::FinalArchive => rendered(campaign.load_final()),
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("a2a_sealed_totality_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Saves one document of every kind through its store under `root`:
/// the checkpoints of a real single-pool run and a real island run, a
/// job's manifest and result, and a real two-shard campaign.
fn save_all(root: &Path) {
    let kind = GridKind::Triangulate;
    let env = WorldConfig::paper(kind, 8);
    let configs = paper_config_set(env.lattice, kind, 4, 4, 1).unwrap();
    let evaluator = Evaluator::new(env, configs);
    let (spec, config) = (FsmSpec::paper(kind), GaConfig::paper(2, 42));
    let store = |dir: &str| RunOptions::persisting(CheckpointStore::new(root.join(dir)));
    run_evolution(spec, &evaluator, config, Vec::new(), &store("single"), |_| ()).unwrap();
    let islands = IslandConfig { islands: 2, epoch: 1, migrants: 1 };
    run_islands_checkpointed(spec, &evaluator, config, islands, &store("islands"), |_, _| ())
        .unwrap();

    let jobs = JobStore::new(root.join("serve"));
    let manifest = JobManifest {
        id: JOB.to_string(),
        tenant: "acme \"quoted\" ünïcode".to_string(),
        priority: 2,
        seq: 17,
        status: JobStatus::Running,
        attempts: 1,
        spec: Json::object().with("m", 8u64).with("k", 4u64).with("grid", "T"),
        error: Some("worker panicked\nretrying".to_string()),
    };
    jobs.save_manifest(&manifest).unwrap();
    let result = Json::object()
        .with("schema", "a2a-serve/result/v1")
        .with("id", JOB)
        .with("best", Json::object().with("fitness", 1234.5).with("successes", 5u64))
        .with("pool", vec!["0123", "4567"]);
    jobs.save_result(JOB, &schema::seal(result)).unwrap();

    let campaign = CampaignSpec {
        niches: vec![
            NicheKey { kind: GridKind::Square, m: 4, k: 2 },
            NicheKey { kind: GridKind::Triangulate, m: 4, k: 3 },
        ],
        shards: 2,
        rounds: 2,
        batch: 3,
        configs: 2,
        t_max: 40,
        seed: 11,
    };
    run_campaign(&CampaignStore::new(root.join("campaign")), &campaign, 1).unwrap();
}

/// One saved document: its kind, its bytes on disk, and the rendering
/// of the value it holds.
struct Pristine {
    kind: Kind,
    bytes: Vec<u8>,
    shown: String,
}

/// Every kind saved once through its store and loaded back intact,
/// kept in memory; the saving tree is deleted again.
fn pristine() -> &'static [Pristine] {
    static DOCS: OnceLock<Vec<Pristine>> = OnceLock::new();
    DOCS.get_or_init(|| {
        let root = scratch("pristine");
        save_all(&root);
        let docs = KINDS
            .into_iter()
            .map(|kind| {
                let shown = load(kind, &root).unwrap().expect("every kind was saved");
                let bytes = std::fs::read(root.join(file(kind))).unwrap();
                Pristine { kind, bytes, shown }
            })
            .collect();
        let _ = std::fs::remove_dir_all(&root);
        docs
    })
}

/// Writes a `damage`d copy of every pristine document into a tree of
/// its own and loads each back through its store.
fn damage_every_kind(
    name: &str,
    seed: u64,
    damage: impl Fn(&mut Vec<u8>, &mut SmallRng),
) -> Result<(), String> {
    let root = scratch(name);
    let mut rng = SmallRng::seed_from_u64(seed);
    for doc in pristine() {
        let path = root.join(file(doc.kind));
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let mut bytes = doc.bytes.clone();
        damage(&mut bytes, &mut rng);
        std::fs::write(&path, &bytes).unwrap();
        match load(doc.kind, &root) {
            Err(_) => {}
            Ok(Some(loaded)) => prop_assert_eq!(
                &loaded,
                &doc.shown,
                "{:?} damaged to {:?} loaded as a different value",
                doc.kind,
                String::from_utf8_lossy(&bytes)
            ),
            Ok(None) => return Err(format!("damaged {:?} read as absent", doc.kind)),
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A document torn at any byte (a crash mid-write without the
    /// atomic rename, a truncating copy) is an error.
    #[test]
    fn torn_documents_load_as_errors(seed in any::<u64>()) {
        damage_every_kind("torn", seed, |bytes, rng| {
            bytes.truncate(rng.random_range(0..bytes.len()));
        })?;
    }

    /// A document with any one byte flipped (bit rot, a stray edit) is
    /// an error unless the flip only touched the trailing newline.
    #[test]
    fn flipped_documents_load_as_errors(seed in any::<u64>()) {
        damage_every_kind("flipped", seed, |bytes, rng| {
            let at = rng.random_range(0..bytes.len());
            bytes[at] ^= rng.random_range(1..=255u8);
        })?;
    }
}
