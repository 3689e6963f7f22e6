//! Runs the complete experiment suite at reduced (one-sitting) scale and
//! prints a combined markdown report — a smoke-regeneration of every
//! claim in EXPERIMENTS.md with one command — then measures a perf
//! snapshot (kernel throughput, fitness throughput, t_comm histograms,
//! a GA fitness series) and writes it to `BENCH_obs.json`
//! (schema `a2a-obs/bench-snapshot/v1`, validated before writing).
//!
//! ```text
//! cargo run --release -p a2a-bench --bin all_experiments [--configs N] \
//!     [--quiet] [--json-out events.jsonl] \
//!     [--checkpoint-dir DIR] [--resume]
//! ```
//!
//! `BENCH_obs.json` / `BENCH_fitness.json` / `BENCH_kernel.json` are
//! sealed (embedded FNV-1a checksum) and written atomically, so a crash
//! mid-write can never leave a torn artifact. `--checkpoint-dir` persists the GA-series run
//! as a rolling `a2a-run/checkpoint/v1` snapshot; `--resume` continues
//! it after an interruption.
//!
//! For the paper-scale numbers run the individual binaries with `--full`.

use a2a_analysis::experiments::{
    density::{run_density_comparison, DensityExperiment, TABLE1_AGENT_COUNTS},
    distances, exhaustive, grid33,
};
use a2a_analysis::{f2, f3};
use a2a_bench::RunScale;
use a2a_fsm::{best_t_agent, FsmSpec, Genome};
use a2a_ga::{Evaluator, GaConfig};
use a2a_grid::GridKind;
use a2a_run::{run_evolution, CheckpointStore, RunOptions};
use a2a_obs::schema::{
    validate_bench_snapshot, validate_fitness_snapshot, validate_history_line,
    validate_kernel_snapshot, BENCH_HISTORY_SCHEMA, BENCH_SNAPSHOT_SCHEMA, REQUIRED_T_COMM_KS,
};
use a2a_obs::json::Json;
use a2a_obs::HistogramSnapshot;
use a2a_sim::{paper_config_set, BatchRunner, WorldConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

/// Output path of the consolidated perf snapshot.
const SNAPSHOT_PATH: &str = "BENCH_obs.json";

/// Output path of the fitness-pipeline before/after snapshot.
const FITNESS_PATH: &str = "BENCH_fitness.json";

/// Output path of the batch-kernel snapshot (dense vs frontier vs parallel).
const KERNEL_PATH: &str = "BENCH_kernel.json";

/// Append-only trend file the perf observatory (`obs_report`) plots:
/// one sealed `a2a-obs/bench-history/v1` line per suite run.
const HISTORY_PATH: &str = "results/bench_history.jsonl";

/// Appends one sealed trend point distilled from the three snapshots to
/// [`HISTORY_PATH`]. Each line is self-validated before it is written;
/// append is a single `write_all` of one `\n`-terminated line, so a
/// concurrent reader sees at worst one torn *final* line — exactly what
/// `validate_history` tolerates.
fn append_history_line(
    scale: &RunScale,
    snapshot: &Json,
    fitness: &Json,
    kernel: &Json,
) -> std::io::Result<()> {
    use std::io::Write;
    let num = |doc: &Json, path: &[&str]| {
        path.iter().try_fold(doc, |d, k| d.get(k)).and_then(Json::as_f64).unwrap_or(f64::NAN)
    };
    let t_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0);
    let line = a2a_obs::schema::seal(
        Json::object()
            .with("schema", BENCH_HISTORY_SCHEMA)
            .with("t_ms", t_ms)
            .with(
                "run",
                Json::object().with("configs", scale.configs as u64).with("seed", scale.seed),
            )
            .with(
                "kernel",
                Json::object()
                    .with("frontier_speedup", num(kernel, &["frontier_speedup"]))
                    .with("multi_steps_per_sec", num(kernel, &["multi", "steps_per_sec"]))
                    .with("frontier_active", num(kernel, &["frontier", "active_agent_steps"]))
                    .with("dispatch_workers", num(kernel, &["parallel", "workers"])),
            )
            .with(
                "fitness",
                Json::object()
                    .with("speedup", num(fitness, &["speedup"]))
                    .with("evals_per_sec", num(snapshot, &["fitness", "evals_per_sec"])),
            ),
    )
    .to_string();
    validate_history_line(&line).expect("freshly sealed trend point satisfies its own schema");
    if let Some(parent) = std::path::Path::new(HISTORY_PATH).parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut file = std::fs::OpenOptions::new().create(true).append(true).open(HISTORY_PATH)?;
    file.write_all(format!("{line}\n").as_bytes())?;
    file.sync_all()
}

/// Measures the perf snapshot on the T-grid: kernel steps/s and per-k
/// `t_comm` histograms from one batch pass, fitness evals/s, and a small
/// GA run for the per-generation best/median series (checkpointed and
/// resumable when `ga_opts` carries a store).
fn perf_snapshot(scale: &RunScale, ga_opts: &RunOptions) -> Json {
    // The snapshot embeds the global registry, so make sure the layers
    // actually record (A2A_LOG may be unset).
    a2a_obs::set_metrics(true);
    let kind = GridKind::Triangulate;
    let env = WorldConfig::paper(kind, 16);

    // Kernel throughput + t_comm histograms, one batch per required k.
    let runner = BatchRunner::from_genome(&env, best_t_agent(), 5000)
        .expect("published T-agent matches the paper environment");
    let mut t_comm_entries: Vec<Json> = Vec::new();
    let mut total_steps: u64 = 0;
    let started = Instant::now();
    for k in REQUIRED_T_COMM_KS {
        let configs =
            paper_config_set(env.lattice, kind, k as usize, scale.configs.max(30), scale.seed)
                .expect("k agents fit 16x16");
        let outcomes = runner.run_all(&configs).expect("configs match the environment");
        let mut hist = HistogramSnapshot::default();
        for o in &outcomes {
            total_steps += u64::from(o.steps) * o.agents as u64;
            if let Some(t) = o.t_comm {
                hist.record(u64::from(t));
            }
        }
        t_comm_entries.push(
            Json::object()
                .with("grid", "T")
                .with("k", k)
                .with("configs", outcomes.len())
                .with("histogram", hist.to_json()),
        );
    }
    let kernel_us = started.elapsed().as_micros().max(1) as f64;
    let steps_per_sec = total_steps as f64 / (kernel_us / 1e6);

    // Fitness throughput: whole-population evaluation of random genomes.
    let train = paper_config_set(env.lattice, kind, 8, scale.configs.max(30), scale.seed)
        .expect("8 agents fit 16x16");
    let evaluator = Evaluator::new(env.clone(), train).with_threads(scale.threads);
    let mut rng = SmallRng::seed_from_u64(scale.seed);
    let genomes: Vec<Genome> = (0..8)
        .map(|_| Genome::random(FsmSpec::paper(kind), &mut rng))
        .collect();
    let started = Instant::now();
    let _ = evaluator.evaluate_all(&genomes);
    let fitness_us = started.elapsed().as_micros().max(1) as f64;
    let evals_per_sec = genomes.len() as f64 / (fitness_us / 1e6);

    // GA fitness series: a short real run (10 generations is enough for
    // a non-trivial best/median trajectory without dominating runtime).
    let generations = if scale.full { 50 } else { 10 };
    let mut series: Vec<Json> = Vec::new();
    let report = run_evolution(
        FsmSpec::paper(kind),
        &evaluator,
        GaConfig::paper(generations, scale.seed),
        Vec::new(),
        ga_opts,
        |s| {
            series.push(
                Json::object()
                    .with("generation", s.generation as u64)
                    .with("best", s.best_fitness)
                    .with("median", s.median_fitness),
            );
        },
    )
    .unwrap_or_else(|e| panic!("GA series cannot start: {e}"));
    if let Some(from) = report.resumed_from {
        // A resumed series only observed the freshly-run generations;
        // rebuild the full trajectory from the restored history.
        series = report
            .outcome
            .history
            .iter()
            .map(|s| {
                Json::object()
                    .with("generation", s.generation as u64)
                    .with("best", s.best_fitness)
                    .with("median", s.median_fitness)
            })
            .collect();
        a2a_obs::event!(a2a_obs::Level::Info, "bench.ga.resumed", "generation" => from as u64);
    }

    a2a_obs::schema::seal(Json::object()
        .with("schema", BENCH_SNAPSHOT_SCHEMA)
        .with(
            "kernel",
            Json::object()
                .with("grid", "T")
                .with("steps_per_sec", steps_per_sec)
                .with("agent_steps", total_steps)
                .with("elapsed_us", kernel_us),
        )
        .with(
            "fitness",
            Json::object()
                .with("evals_per_sec", evals_per_sec)
                .with("evals", genomes.len())
                .with("configs", scale.configs.max(30)),
        )
        .with("t_comm", Json::Arr(t_comm_entries))
        .with("ga", Json::object().with("series", Json::Arr(series)))
        .with("metrics", a2a_obs::global().snapshot().to_json()))
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let scale = RunScale::extract(&mut argv, 60);
    let mut checkpoint_dir: Option<String> = None;
    let mut resume = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--checkpoint-dir" => {
                checkpoint_dir = Some(
                    it.next().unwrap_or_else(|| panic!("missing value for --checkpoint-dir")).clone(),
                );
            }
            "--resume" => resume = true,
            other => panic!(
                "unknown flag `{other}` (use --configs/--seed/--threads/--full/--quiet/\
                 --json-out/--checkpoint-dir/--resume)"
            ),
        }
    }
    assert!(!resume || checkpoint_dir.is_some(), "--resume requires --checkpoint-dir");
    let ga_opts = RunOptions {
        store: checkpoint_dir.as_deref().map(CheckpointStore::new),
        cadence: 1,
        resume,
        stop: None,
    };
    let obs = scale.init_obs("all_experiments");
    scale.outln("# Combined reduced-scale regeneration\n");
    scale.outln(format!(
        "configs per point: {}, seed {}, threads {}\n",
        scale.configs, scale.seed, scale.threads
    ));

    // E1–E3: topology & distances.
    scale.outln("## Topology & distances (Fig. 1, Fig. 2, Eq. 1–3)\n");
    let s = distances::survey(GridKind::Square, 3);
    let t = distances::survey(GridKind::Triangulate, 3);
    scale.outln(format!(
        "- size-3 torus: D_S = {} (paper 8), D_T = {} (paper 5)",
        s.diameter, t.diameter
    ));
    scale.outln(format!(
        "- mean distances: S {} (paper 4), T {} (paper ≈3.09)\n",
        f2(s.mean),
        f2(t.mean)
    ));

    // E6: Table 1.
    scale.outln("## Table 1 / Fig. 5 (reduced)\n");
    let exp = DensityExperiment {
        m: 16,
        agent_counts: TABLE1_AGENT_COUNTS.to_vec(),
        n_random: scale.configs,
        seed: scale.seed,
        t_max: 5000,
        threads: scale.threads,
    };
    let cmp = run_density_comparison(&exp).expect("valid experiment");
    scale.outln(cmp.to_table().to_markdown());
    let solved: usize = cmp
        .t_grid
        .points
        .iter()
        .chain(&cmp.s_grid.points)
        .map(|p| p.successes)
        .sum();
    let total: usize = cmp
        .t_grid
        .points
        .iter()
        .chain(&cmp.s_grid.points)
        .map(|p| p.total)
        .sum();
    scale.outln(format!(
        "solved {solved}/{total}; ratios {:?}\n",
        cmp.ratios().iter().map(|r| f3(*r)).collect::<Vec<_>>()
    ));

    // E9: 33×33.
    scale.outln("## 33×33 comparison (reduced)\n");
    let g33 = grid33::run_grid33(scale.configs.min(60), scale.seed, scale.threads)
        .expect("valid run");
    scale.outln(format!(
        "- T {} (paper 181), S {} (paper 229), reliable: {}\n",
        f2(g33.t_mean()),
        f2(g33.s_mean()),
        g33.both_reliable()
    ));

    // E22 (small field): exhaustive proof.
    scale.outln("## Exhaustive 2-agent decision (8×8)\n");
    for kind in [GridKind::Triangulate, GridKind::Square] {
        let r = exhaustive::exhaustive_two_agents(kind, 8, usize::MAX, scale.threads);
        scale.outln(format!(
            "- {}-grid: {}/{} solved, {} cycles -> proof: {}",
            kind.label(),
            r.solved,
            r.total,
            r.never_solves,
            r.is_proof()
        ));
    }

    // Perf snapshot → BENCH_obs.json (+ a copy into the JSONL stream).
    scale.outln("\n## Perf snapshot\n");
    let snapshot = perf_snapshot(&scale, &ga_opts);
    validate_bench_snapshot(&snapshot).expect("snapshot satisfies its own schema");
    a2a_obs::atomic_write(SNAPSHOT_PATH, format!("{snapshot}\n").as_bytes())
        .expect("cwd is writable");
    if let Some(sink) = obs.sink() {
        sink.write_json(&snapshot);
    }
    let num = |path: &[&str]| {
        path.iter()
            .try_fold(&snapshot, |d, k| d.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    scale.outln(format!(
        "- kernel: {:.2e} agent-steps/s; fitness: {:.1} evals/s; wrote {SNAPSHOT_PATH} (schema-valid)",
        num(&["kernel", "steps_per_sec"]),
        num(&["fitness", "evals_per_sec"]),
    ));

    // Adaptive fitness pipeline before/after → BENCH_fitness.json.
    let fitness = a2a_bench::fitness::fitness_snapshot(
        a2a_bench::fitness::STANDARD_CONFIGS,
        scale.threads,
        scale.seed,
    );
    validate_fitness_snapshot(&fitness).expect("adaptive pipeline beats the baseline exactly");
    a2a_obs::atomic_write(FITNESS_PATH, format!("{fitness}\n").as_bytes())
        .expect("cwd is writable");
    if let Some(sink) = obs.sink() {
        sink.write_json(&fitness);
    }
    let fnum = |path: &[&str]| {
        path.iter()
            .try_fold(&fitness, |d, k| d.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    scale.outln(format!(
        "- adaptive fitness: {:.2}x vs baseline over {} epochs ({} cache hits, {} configs pruned); wrote {FITNESS_PATH} (schema-valid)",
        fnum(&["speedup"]),
        a2a_bench::fitness::SNAPSHOT_EPOCHS,
        fnum(&["adaptive", "cache_hits"]),
        fnum(&["selection", "pruned_configs"]),
    ));

    // Frontier vs dense kernel throughput → BENCH_kernel.json.
    let kernel = a2a_bench::kernel::kernel_snapshot(
        a2a_bench::kernel::KERNEL_CONFIGS.min(scale.configs.max(10)),
        scale.seed,
    );
    validate_kernel_snapshot(&kernel)
        .expect("frontier kernel beats the dense scan, every path agrees with the oracle");
    a2a_obs::atomic_write(KERNEL_PATH, format!("{kernel}\n").as_bytes())
        .expect("cwd is writable");
    if let Some(sink) = obs.sink() {
        sink.write_json(&kernel);
    }
    let knum = |path: &[&str]| {
        path.iter()
            .try_fold(&kernel, |d, k| d.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    scale.outln(format!(
        "- batch kernel: frontier {:.2}x vs dense scan ({:.2e} steps/s, chunk {}); \
         parallel {:.2}x over dense ({} worker(s)); wrote {KERNEL_PATH} (schema-valid)",
        knum(&["frontier_speedup"]),
        knum(&["multi", "steps_per_sec"]),
        knum(&["multi", "chunk"]),
        knum(&["parallel_speedup"]),
        knum(&["parallel", "workers"]),
    ));

    // One sealed trend point for the perf observatory.
    match append_history_line(&scale, &snapshot, &fitness, &kernel) {
        Ok(()) => scale.outln(format!("- appended trend point to {HISTORY_PATH}")),
        Err(e) => scale.outln(format!("- could not append to {HISTORY_PATH}: {e}")),
    }

    scale.outln(
        "\nAll headline claims regenerate at reduced scale; see EXPERIMENTS.md for the full protocol numbers.",
    );
}
