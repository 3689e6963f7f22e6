//! Job specs (the submitted JSON) and sealed result documents.

use a2a_grid::GridKind;
use a2a_obs::json::Json;
use a2a_obs::schema;
use a2a_run::{IslandsReport, RunReport};

/// Schema identifier of a job's sealed result document.
pub const RESULT_SCHEMA: &str = "a2a-serve/result/v1";

/// Largest accepted torus side. The kernel allocates per field cell
/// (and `m² · ⌈k/64⌉` infoset words per run), so an unbounded `m` lets
/// one request exhaust memory; 64 covers the paper's 16×16 and 33×33
/// fields. `k` is bounded by the cell count `m²`.
pub const MAX_M: u64 = 64;

/// Largest accepted random-configuration count (the paper's protocol
/// uses 1000 on top of the 3 designed ones).
pub const MAX_CONFIGS: u64 = 1000;

/// Largest accepted GA pool (the paper's is 20).
pub const MAX_POPULATION: u64 = 1000;

/// Largest accepted `generations` and island `epoch`. A run reserves
/// its generation history up front, so an unbounded count panics the
/// attempt on allocation; a million covers the longest jobs any bench
/// submits.
pub const MAX_GENERATIONS: u64 = 1_000_000;

/// Largest accepted simulation horizon `t_max`. The job deadline is
/// only checked between generations, and a failing run that never
/// repeats a state simulates its whole horizon, so an unbounded `t_max`
/// lets one request pin an executor for hours; 100 000 is five times
/// the 33×33 experiment's 20 000.
pub const MAX_T_MAX: u64 = 100_000;

/// Largest accepted per-job `max_retries`. A retried attempt resumes
/// from its checkpoint but never reads the server's stop signal in
/// between, so an unbounded budget lets a job that panics on every
/// attempt retry forever and wedge the server's shutdown.
pub const MAX_RETRIES: u64 = 10;

/// A parsed evolution-job submission. Every field except `tenant` has
/// a service default, so the minimal useful submission is
/// `{"tenant": "t", "id": "job-1"}`.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Job id (optional at submit; the server assigns `j<seq>` when
    /// absent).
    pub id: Option<String>,
    /// Owning tenant (required).
    pub tenant: String,
    /// Scheduling priority, higher first (default 1).
    pub priority: u32,
    /// Grid family (`"S"` or `"T"`, default `"T"`).
    pub grid: GridKind,
    /// Torus side length (default 8).
    pub m: u16,
    /// Agent count (default 4).
    pub k: usize,
    /// Random initial configurations on top of the 3 designed ones
    /// (default 4).
    pub configs: usize,
    /// GA generations (default 4).
    pub generations: usize,
    /// GA seed (default 1).
    pub seed: u64,
    /// GA pool size (default 8; the paper's 20 is heavyweight for a
    /// service job — ask for it explicitly).
    pub population: usize,
    /// Simulation step budget override (`0` keeps the evaluator's
    /// default; at most [`MAX_T_MAX`]).
    pub t_max: u32,
    /// Wall-clock deadline in milliseconds, checked at generation
    /// boundaries; `None` means no deadline.
    pub deadline_ms: Option<u64>,
    /// Per-job retry budget override, at most [`MAX_RETRIES`] (`None`
    /// uses the server's).
    pub max_retries: Option<u32>,
    /// Island count; `0` (the default) runs the single-pool procedure,
    /// anything larger the ring island model (DESIGN.md §9).
    pub islands: usize,
    /// Generations per island epoch (only read when `islands > 0`).
    pub epoch: usize,
    /// Individuals migrating to the ring successor per epoch (only
    /// read when `islands > 0`; must leave room in the pool).
    pub migrants: usize,
}

/// The largest integer up to which every integer is an exact JSON
/// number (an `f64`), 2^53 − 1. A member past it may already have been
/// rounded when the body was parsed, so it is refused, not cast.
const MAX_EXACT_INT: u64 = (1 << 53) - 1;

fn num(doc: &Json, key: &str, default: u64) -> Result<u64, String> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => {
            let v = v.as_f64().ok_or_else(|| format!("`{key}` must be a number"))?;
            if v < 0.0 || v.fract() != 0.0 {
                return Err(format!("`{key}` must be a non-negative integer"));
            }
            if v > MAX_EXACT_INT as f64 {
                return Err(format!("`{key}` must be at most {MAX_EXACT_INT} (2^53 - 1)"));
            }
            Ok(v as u64)
        }
    }
}

/// [`num`], additionally bounded to `lo..=hi`.
fn num_in(doc: &Json, key: &str, default: u64, lo: u64, hi: u64) -> Result<u64, String> {
    let v = num(doc, key, default)?;
    if (lo..=hi).contains(&v) {
        Ok(v)
    } else {
        Err(format!("`{key}` must be in {lo}..={hi}, got {v}"))
    }
}

impl JobSpec {
    /// Parses and validates a submission document.
    ///
    /// # Errors
    ///
    /// A message naming the first invalid member (reported as `400`).
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let tenant = doc
            .get("tenant")
            .and_then(Json::as_str)
            .ok_or("`tenant` is required")?
            .to_string();
        if tenant.is_empty() || tenant.len() > 64 {
            return Err("`tenant` must be 1..=64 characters".to_string());
        }
        let id = match doc.get("id") {
            None => None,
            Some(v) => {
                let id = v.as_str().ok_or("`id` must be a string")?;
                a2a_run::validate_job_id(id)?;
                Some(id.to_string())
            }
        };
        let grid = match doc.get("grid").and_then(Json::as_str).unwrap_or("T") {
            "T" | "t" => GridKind::Triangulate,
            "S" | "s" => GridKind::Square,
            other => return Err(format!("`grid` must be \"S\" or \"T\", got `{other}`")),
        };
        let m = num_in(doc, "m", 8, 2, MAX_M)?;
        let spec = Self {
            id,
            tenant,
            priority: num_in(doc, "priority", 1, 0, u64::from(u32::MAX))? as u32,
            grid,
            m: m as u16,
            k: num_in(doc, "k", 4, 1, m * m)? as usize,
            configs: num_in(doc, "configs", 4, 0, MAX_CONFIGS)? as usize,
            generations: num_in(doc, "generations", 4, 1, MAX_GENERATIONS)? as usize,
            seed: num(doc, "seed", 1)?,
            population: num_in(doc, "population", 8, 2, MAX_POPULATION)? as usize,
            t_max: num_in(doc, "t_max", 0, 0, MAX_T_MAX)? as u32,
            deadline_ms: doc.get("deadline_ms").map(|_| num(doc, "deadline_ms", 0)).transpose()?,
            max_retries: doc
                .get("max_retries")
                .map(|_| num_in(doc, "max_retries", 0, 0, MAX_RETRIES))
                .transpose()?
                .map(|v| v as u32),
            islands: num(doc, "islands", 0)? as usize,
            epoch: num_in(doc, "epoch", 2, 0, MAX_GENERATIONS)? as usize,
            migrants: num(doc, "migrants", 1)? as usize,
        };
        // The three designed configurations all need `k <= m`; with no
        // random ones on top, the set would be empty.
        if spec.configs == 0 && spec.k > usize::from(spec.m) {
            return Err(format!(
                "`configs` must be at least 1 when `k` ({}) exceeds `m` ({})",
                spec.k, spec.m
            ));
        }
        if spec.islands > 0 {
            if spec.islands > 16 {
                return Err("`islands` must be at most 16".to_string());
            }
            if spec.epoch == 0 {
                return Err("`epoch` must be at least 1 when `islands` is set".to_string());
            }
            if spec.migrants >= spec.population {
                return Err("`migrants` must be smaller than `population`".to_string());
            }
        }
        Ok(spec)
    }
}

/// Builds the sealed result document for a completed run. Everything in
/// it is a pure function of the job spec (context digest, best genome
/// digits, fitness numbers, a digest over the full generation history),
/// so an interrupted-and-resumed job's result is **byte-equal** to an
/// uninterrupted control run's — the property the chaos suite compares
/// directly.
#[must_use]
pub fn build_result(id: &str, digest: &str, report: &RunReport) -> Json {
    let best = &report.outcome.pool[0];
    let history_bytes: String =
        report.outcome.history.iter().map(|s| s.to_json().to_string()).collect();
    let pool_digits: Vec<Json> =
        report.outcome.pool.iter().map(|ind| Json::Str(ind.genome.to_string())).collect();
    schema::seal(
        Json::object()
            .with("schema", RESULT_SCHEMA)
            .with("id", id)
            .with("digest", digest)
            .with(
                "best",
                Json::object()
                    .with("genome", best.genome.to_string())
                    .with("fitness", best.report.fitness)
                    .with("successes", best.report.successes as u64)
                    .with("total", best.report.total as u64),
            )
            .with("pool", Json::Arr(pool_digits))
            .with("history_len", report.outcome.history.len() as u64)
            .with(
                "history_digest",
                format!("{:016x}", schema::fnv1a64(history_bytes.as_bytes())),
            ),
    )
}

/// Island-model counterpart of [`build_result`]: the sealed document of
/// a completed islands job. Same schema, `"mode": "islands"`, the
/// globally best individual across islands plus each island's champion
/// — and the same purity guarantee: byte-equal after kill/resume.
#[must_use]
pub fn build_islands_result(id: &str, digest: &str, report: &IslandsReport) -> Json {
    let best = report.outcome.best();
    let history_bytes: String = report
        .outcome
        .islands
        .iter()
        .flat_map(|island| island.history.iter())
        .map(|s| s.to_json().to_string())
        .collect();
    let islands: Vec<Json> = report
        .outcome
        .islands
        .iter()
        .map(|island| {
            let top = island.best();
            Json::object()
                .with("genome", top.genome.to_string())
                .with("fitness", top.report.fitness)
                .with("successes", top.report.successes as u64)
                .with("total", top.report.total as u64)
        })
        .collect();
    schema::seal(
        Json::object()
            .with("schema", RESULT_SCHEMA)
            .with("id", id)
            .with("digest", digest)
            .with("mode", "islands")
            .with(
                "best",
                Json::object()
                    .with("genome", best.genome.to_string())
                    .with("fitness", best.report.fitness)
                    .with("successes", best.report.successes as u64)
                    .with("total", best.report.total as u64),
            )
            .with("islands", Json::Arr(islands))
            .with(
                "history_digest",
                format!("{:016x}", schema::fnv1a64(history_bytes.as_bytes())),
            ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(body: &str) -> Json {
        a2a_obs::json::parse(body).unwrap()
    }

    #[test]
    fn defaults_fill_a_minimal_submission() {
        let doc = Json::object().with("tenant", "acme");
        let spec = JobSpec::from_json(&doc).unwrap();
        assert!(spec.id.is_none());
        assert_eq!(spec.tenant, "acme");
        assert_eq!(spec.priority, 1);
        assert_eq!(spec.grid, GridKind::Triangulate);
        assert_eq!((spec.m, spec.k, spec.configs), (8, 4, 4));
        assert_eq!((spec.generations, spec.seed, spec.population), (4, 1, 8));
        assert_eq!(spec.t_max, 0);
        assert!(spec.deadline_ms.is_none() && spec.max_retries.is_none());
        assert_eq!(spec.islands, 0, "single-pool mode by default");
    }

    #[test]
    fn islands_submission_parses_and_validates() {
        let doc = Json::object()
            .with("tenant", "acme")
            .with("islands", 3u64)
            .with("epoch", 2u64)
            .with("migrants", 1u64);
        let spec = JobSpec::from_json(&doc).unwrap();
        assert_eq!((spec.islands, spec.epoch, spec.migrants), (3, 2, 1));
        for (doc, needle) in [
            (Json::object().with("tenant", "t").with("islands", 99u64), "islands"),
            (
                Json::object().with("tenant", "t").with("islands", 2u64).with("epoch", 0u64),
                "epoch",
            ),
            (
                Json::object().with("tenant", "t").with("islands", 2u64).with("migrants", 8u64),
                "migrants",
            ),
        ] {
            let err = JobSpec::from_json(&doc).unwrap_err();
            assert!(err.contains(needle), "{err} should mention {needle}");
        }
    }

    #[test]
    fn oversized_jobs_are_refused_at_the_boundary() {
        let job = |key: &str, v: u64| Json::object().with("tenant", "t").with(key, v);
        // The caps cover the paper's largest settings.
        let largest = job("m", MAX_M)
            .with("k", MAX_M * MAX_M)
            .with("configs", MAX_CONFIGS)
            .with("population", MAX_POPULATION)
            .with("generations", MAX_GENERATIONS)
            .with("islands", 2u64)
            .with("epoch", MAX_GENERATIONS)
            .with("t_max", MAX_T_MAX)
            .with("max_retries", MAX_RETRIES);
        let spec = JobSpec::from_json(&largest).unwrap();
        assert_eq!((spec.m, spec.k), (64, 4096));
        assert_eq!((spec.configs, spec.population), (1000, 1000));
        assert_eq!((spec.generations, spec.epoch), (1_000_000, 1_000_000));
        assert_eq!((spec.t_max, spec.max_retries), (100_000, Some(10)));
        // One request past any cap is a named 400, not an allocation.
        for (doc, needle) in [
            (job("m", 65_535), "`m`"),
            (job("m", 4).with("k", 17u64), "`k`"),
            (job("configs", 1_000_000_000), "`configs`"),
            (job("configs", MAX_CONFIGS + 1), "`configs`"),
            (job("population", MAX_POPULATION + 1), "`population`"),
            (job("generations", MAX_GENERATIONS + 1), "`generations`"),
            (
                Json::object().with("tenant", "t").with("generations", 1e18),
                "`generations`",
            ),
            (job("islands", 2).with("epoch", 1e18), "`epoch`"),
            (job("t_max", MAX_T_MAX + 1), "`t_max`"),
            (Json::object().with("tenant", "t").with("priority", 1e30), "`priority`"),
            (Json::object().with("tenant", "t").with("t_max", 1e30), "`t_max`"),
            (job("max_retries", MAX_RETRIES + 1), "`max_retries`"),
            (Json::object().with("tenant", "t").with("max_retries", 1e30), "`max_retries`"),
            // Past 2^53 - 1 a number may already be rounded: 2^53 + 1
            // parses as 2^53, and 1e30 used to saturate to u64::MAX.
            (parse(r#"{"tenant":"t","seed":9007199254740993}"#), "`seed`"),
            (parse(r#"{"tenant":"t","seed":1e30}"#), "`seed`"),
            (parse(r#"{"tenant":"t","deadline_ms":1e30}"#), "`deadline_ms`"),
            (parse(r#"{"tenant":"t","islands":0,"migrants":1e30}"#), "`migrants`"),
        ] {
            let err = JobSpec::from_json(&doc).unwrap_err();
            assert!(err.contains(needle), "{err} should mention {needle}");
        }
        let seed = JobSpec::from_json(&parse(r#"{"tenant":"t","seed":9007199254740991}"#));
        assert_eq!(seed.unwrap().seed, MAX_EXACT_INT);
    }

    #[test]
    fn invalid_submissions_are_named() {
        for (doc, needle) in [
            (Json::object(), "tenant"),
            (Json::object().with("tenant", "t").with("grid", "Q"), "grid"),
            (Json::object().with("tenant", "t").with("m", 1u64), "`m`"),
            (Json::object().with("tenant", "t").with("k", 0u64), "k"),
            (Json::object().with("tenant", "t").with("generations", 0u64), "generations"),
            (Json::object().with("tenant", "t").with("population", 1u64), "population"),
            (Json::object().with("tenant", "t").with("id", "a/b"), "character"),
            (Json::object().with("tenant", "t").with("seed", -3.0), "seed"),
            (
                Json::object()
                    .with("tenant", "t")
                    .with("m", 8u64)
                    .with("k", 9u64)
                    .with("configs", 0u64),
                "`configs`",
            ),
        ] {
            let err = JobSpec::from_json(&doc).unwrap_err();
            assert!(err.contains(needle), "{err} should mention {needle}");
        }
    }
}
