//! E11 — the genetic procedure of Sect. 4, at configurable scale:
//! four independent optimisation runs (k = 8, 16×16), extraction of the
//! top completely successful FSMs, and a reliability screen across agent
//! densities — exactly the paper's protocol, with `--configs/--full`
//! scaling the configuration sets.
//!
//! ```text
//! cargo run --release -p a2a-bench --bin evolve_run -- --grid t \
//!     [--configs N] [--generations G] [--runs R] \
//!     [--checkpoint-dir DIR] [--resume]
//! ```
//!
//! With `--checkpoint-dir` every optimisation run persists a rolling
//! `a2a-run/checkpoint/v1` snapshot (one subdirectory per run) at every
//! generation boundary; `--resume` restores a killed run from there and
//! continues bit-identically.

use a2a_bench::RunScale;
use a2a_fsm::{best_agent, FsmSpec, Genome};
use a2a_ga::{screen, Evaluator, GaConfig, WorkerPool};
use a2a_grid::GridKind;
use a2a_run::{run_evolution, CheckpointStore, RunOptions};
use a2a_sim::{paper_config_set, WorldConfig};
use std::sync::Arc;

struct Args {
    scale: RunScale,
    kind: GridKind,
    generations: usize,
    runs: usize,
    checkpoint_dir: Option<String>,
    resume: bool,
}

fn parse_args() -> Args {
    // Shared flags first (--configs/--seed/--threads/--full/--quiet/
    // --json-out), then this binary's own on what remains.
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let scale = RunScale::extract(&mut argv, 100);
    let mut args = Args {
        generations: if scale.full { 600 } else { 150 },
        scale,
        kind: GridKind::Triangulate,
        runs: 4,
        checkpoint_dir: None,
        resume: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
                .clone()
        };
        match flag.as_str() {
            "--grid" => {
                args.kind = match value("--grid").as_str() {
                    "t" | "T" => GridKind::Triangulate,
                    "s" | "S" => GridKind::Square,
                    g => panic!("unknown grid `{g}`"),
                }
            }
            "--generations" => args.generations = value("--generations").parse().expect("numeric"),
            "--runs" => args.runs = value("--runs").parse().expect("numeric"),
            "--checkpoint-dir" => args.checkpoint_dir = Some(value("--checkpoint-dir")),
            "--resume" => args.resume = true,
            other => panic!("unknown flag `{other}`"),
        }
    }
    assert!(
        !args.resume || args.checkpoint_dir.is_some(),
        "--resume requires --checkpoint-dir"
    );
    args
}

fn main() {
    let args = parse_args();
    let scale = &args.scale;
    let kind = args.kind;
    let _sink = scale.init_obs("evolve_run");
    scale.outln(format!(
        "=== E11: genetic procedure — {} grid, {} runs x {} generations, {} configs, seed {} ===\n",
        kind, args.runs, args.generations, scale.configs, scale.seed,
    ));
    scale.outln(format!(
        "search space: 10^{:.1} FSMs\n",
        FsmSpec::paper(kind).search_space_log10()
    ));

    let env = WorldConfig::paper(kind, 16);
    // One worker pool for every run in this process. The fitness caches
    // stay per-run: each run trains on its own configuration set, and a
    // cache is only valid for the set it was filled against.
    let workers = Arc::new(WorkerPool::new(scale.threads));
    // "Four independent optimization runs on 1003 initial configurations
    //  were performed, with field size 16x16 and N_agents = 8."
    let mut candidates: Vec<(usize, Genome, f64)> = Vec::new();
    for run in 0..args.runs {
        let run_seed = scale.seed.wrapping_add(run as u64 * 0x0123_4567);
        let train = paper_config_set(env.lattice, kind, 8, scale.configs, run_seed)
            .expect("8 agents fit 16x16");
        let evaluator = Evaluator::new(env.clone(), train).with_pool(Arc::clone(&workers));
        let cache_probe = evaluator.clone();
        // Each optimisation run checkpoints into its own subdirectory:
        // runs are independent experiments with distinct context digests.
        let opts = args
            .checkpoint_dir
            .as_ref()
            .map(|dir| CheckpointStore::new(format!("{dir}/run{run}")))
            .map_or_else(RunOptions::default, RunOptions::persisting)
            .resuming(args.resume);
        let report = run_evolution(
            FsmSpec::paper(kind),
            &evaluator,
            GaConfig::paper(args.generations, run_seed),
            Vec::new(),
            &opts,
            |s| {
                if s.generation % 25 == 0 {
                    scale.progress(
                        "bench.progress",
                        format!(
                            "  run {run}, gen {:4}: best F {:10.2}{}",
                            s.generation,
                            s.best_fitness,
                            if s.best_complete { " complete" } else { "" },
                        ),
                    );
                }
            },
        )
        .unwrap_or_else(|e| panic!("run {run} cannot start: {e}"));
        if let Some(from) = report.resumed_from {
            scale.progress(
                "bench.progress",
                format!("  run {run}: resumed from checkpoint at generation {from}"),
            );
        }
        if report.killed {
            // A scheduled fault-injection kill: die like a real crash
            // (checkpoint is already durable; `--resume` continues it).
            scale.progress(
                "bench.progress",
                format!("  run {run}: simulated kill — rerun with --resume to continue"),
            );
            std::process::exit(137);
        }
        if report.checkpoint_errors > 0 {
            scale.progress(
                "bench.progress",
                format!("  run {run}: {} checkpoint writes failed", report.checkpoint_errors),
            );
        }
        let outcome = report.outcome;
        // "Then the top 3 completely successful FSMs of each run
        //  (altogether 12) were also tested …"
        let top = outcome.top_completely_successful(3);
        let (hits, misses) = (cache_probe.cache().hits(), cache_probe.cache().misses());
        scale.outln(format!(
            "run {run}: {} completely successful individuals in the final pool \
             (fitness cache: {hits} hits / {misses} misses)",
            top.len()
        ));
        for ind in top {
            candidates.push((run, ind.genome.clone(), ind.report.fitness));
        }
    }

    if candidates.is_empty() {
        scale.outln(
            "\nno completely successful FSM evolved at this scale; \
             re-run with more --generations/--configs",
        );
        return;
    }

    // Reliability screening across densities, then rank.
    scale.progress(
        "bench.progress",
        format!("\nscreening {} candidates across densities…", candidates.len()),
    );
    let screen_ks = [2usize, 4, 8, 16, 32, 256];
    let mut ranked: Vec<(usize, Genome, f64, bool)> = Vec::new();
    for (run, genome, _) in candidates {
        let report = screen(
            &genome,
            &env,
            &screen_ks,
            (scale.configs / 4).max(10),
            scale.seed ^ 0xBEEF,
            2000,
            scale.threads,
        )
        .expect("screen densities fit the field");
        let mean_fitness: f64 = report
            .per_density
            .iter()
            .map(|d| d.report.fitness)
            .sum::<f64>()
            / report.per_density.len() as f64;
        ranked.push((run, genome, mean_fitness, report.is_reliable()));
    }
    ranked.sort_by(|a, b| {
        b.3.cmp(&a.3)
            .then(a.2.partial_cmp(&b.2).expect("fitness is not NaN"))
    });

    let (run, best, fitness, reliable) = &ranked[0];
    scale.outln(format!(
        "\nbest evolved candidate (from run {run}): screen fitness {fitness:.2}, reliable: {reliable}"
    ));
    scale.outln(format!("{best}"));
    scale.outln(format!("genome digits: {}\n", best.to_digits()));

    // Compare against the published FSM on a fresh set.
    let fresh = paper_config_set(env.lattice, kind, 8, scale.configs.max(100), 0xACE)
        .expect("8 agents fit 16x16");
    let eval = Evaluator::new(env, fresh).with_t_max(2000).with_threads(scale.threads);
    let ours = eval.evaluate(best);
    let published = eval.evaluate(&best_agent(kind));
    scale.outln(format!(
        "fresh-set comparison  (k = 8): evolved mean t_comm {:.2} ({}/{} solved) \
         vs published {:.2} ({}/{})",
        ours.mean_t_comm.unwrap_or(f64::NAN),
        ours.successes,
        ours.total,
        published.mean_t_comm.unwrap_or(f64::NAN),
        published.successes,
        published.total,
    ));
}
