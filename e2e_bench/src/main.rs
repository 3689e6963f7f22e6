//! End-to-end benchmark of the a2a workspace: three workloads driven
//! through the public entry points, their outputs checked, and a traced
//! run that splits the time by layer (crate).
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload table1|evolve|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root. The last line of standard output is
//! one JSON object `{correct, attempted, failed, metrics}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it carries the environment stamp, the
//! output digest and the workload's own metric names. Result, ledger and
//! Chrome-trace files go to `.e2e_bench/out/<workload>-seed<N>-trace<T>/`.
//! `BENCHMARK.json` and `e2e_bench/layers.json` say what each metric
//! means and which end-to-end metric each layer metric should move.

mod common;
mod evolve;
mod ledger;
mod serve;
mod table1;

use a2a_obs::json::Json;
use common::{Capture, Dirs, Tally};
use ledger::Analysis;
use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics (`--trace 0`), with units. The tail and the
/// throughput are medians over the phase's segments (consecutive groups
/// of operations in completion order), so a burst of outside load in
/// part of a run moves them less than it moves the run's mean.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. A workload that does
/// not run a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 22] = [
    ("sim.busy_ms", "ms"),
    ("sim.runs", "count"),
    ("sim.steps", "count"),
    ("sim.active_agent_steps", "count"),
    ("sim.ns_per_active_agent_step", "ns"),
    ("sim.exchange_share", "ratio"),
    ("ga.select_ms", "ms"),
    ("ga.evals", "count"),
    ("ga.cache_hit_ratio", "ratio"),
    ("ga.prune_ratio", "ratio"),
    ("ga.pool.wait_ms", "ms"),
    ("run.checkpoint.writes", "count"),
    ("run.checkpoint_ms", "ms"),
    ("run.store.bytes_per_job", "bytes"),
    ("serve.post_p50_ms", "ms"),
    ("serve.poll_p50_ms", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.exec_p50_ms", "ms"),
    ("serve.wait_p50_ms", "ms"),
    ("serve.refused", "count"),
    ("trace.overhead_pct", "%"),
    ("ledger.unattributed_pct", "%"),
];

/// One timed phase: the fixed set of operations a workload runs.
pub struct Phase {
    /// Duration of each operation, in milliseconds.
    pub op_ms: Vec<f64>,
    /// When each operation completed, in milliseconds since the phase
    /// started.
    pub done_ms: Vec<f64>,
    /// How many segments the operations are split into.
    pub segments: usize,
    pub wall_s: f64,
    pub tally: Tally,
    /// Digest of the phase's outputs (equal inputs give equal digests).
    pub digest: String,
}

/// What a workload reads from its traced phase: its own layer metrics
/// ([`traced`] adds the kernel's, which every workload reads alike) and
/// its ledger entries `(layer, ms)` over `timelines` timeline threads.
pub struct Layers {
    pub metrics: BTreeMap<&'static str, f64>,
    pub ledger: Vec<(String, f64)>,
    pub timelines: usize,
}

pub trait Workload {
    /// The end-to-end names of this workload's operation metrics:
    /// `(p50 name, p90 name, throughput name)`.
    fn aliases(&self) -> [&'static str; 3];
    /// One set-up: inputs, compiled runners or a started server, and a
    /// discarded warm-up operation. Called several times per run.
    fn setup(&mut self, rep: usize) -> Result<(), String>;
    /// Runs the fixed operations of phase `index` (0 untraced, 1 traced).
    fn phase(&mut self, index: usize) -> Phase;
    /// A short run of the same work at `Level::Trace`, for the kernel's
    /// act/exchange split.
    fn subrun(&mut self);
    /// Layers of the benchmark's own spans.
    fn bench_layers(&self) -> &'static [(&'static str, &'static str)];
    /// Layer metrics and ledger entries of the traced phase.
    fn layers(&mut self, capture: &Capture, analysis: &Analysis, phase: &Phase) -> Layers;
    /// The directory durable stores live in (stamped with its filesystem).
    fn store_dir(&self) -> &Path;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// The median over a phase's segments of each segment's p90 operation
/// time and of its throughput (operations over the time from the end of
/// the previous segment to the end of this one).
fn segment_medians(phase: &Phase) -> (f64, f64) {
    let mut ops: Vec<(f64, f64)> = phase
        .done_ms
        .iter()
        .copied()
        .zip(phase.op_ms.iter().copied())
        .collect();
    ops.sort_by(|a, b| a.0.total_cmp(&b.0));
    let k = phase.segments.clamp(1, ops.len().max(1));
    let (mut p90s, mut rates, mut prev_end) = (Vec::new(), Vec::new(), 0.0);
    for s in 0..k {
        let seg = &ops[s * ops.len() / k..(s + 1) * ops.len() / k];
        let Some(&(end, _)) = seg.last() else {
            continue;
        };
        let times: Vec<f64> = seg.iter().map(|&(_, ms)| ms).collect();
        p90s.push(common::quantile(&times, 0.9));
        rates.push(seg.len() as f64 * 1e3 / (end - prev_end).max(1e-9));
        prev_end = end;
    }
    (common::median(&p90s), common::median(&rates))
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("e2e_bench: {e}");
        std::process::exit(2);
    });
    let dirs = Dirs::create(&args.workload, args.seed, args.trace).unwrap_or_else(|e| {
        eprintln!("e2e_bench: cannot create working directories: {e}");
        std::process::exit(2);
    });
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "table1" => Box::new(table1::Table1::new(args.seed, args.seconds)),
        "evolve" => Box::new(evolve::Evolve::new(args.seed, args.seconds, &dirs.scratch)),
        "serve" => Box::new(serve::Serve::new(args.seed, args.seconds, &dirs.scratch)),
        other => {
            eprintln!("e2e_bench: unknown workload `{other}` (table1, evolve, serve)");
            std::process::exit(2);
        }
    };
    let (summary, op_ms, result) = run(workload.as_mut(), &args, &dirs);
    drop(workload);
    let file = summary.clone().with(
        "op_ms",
        Json::Arr(op_ms.into_iter().map(Json::from).collect()),
    );
    let _ = std::fs::write(dirs.out.join("result.json"), format!("{file}\n"));
    println!("{summary}");
    println!("{result}");
}

/// `{"value": v, "unit": u}`.
fn metric(value: f64, unit: &str) -> Json {
    Json::object().with("value", value).with("unit", unit)
}

/// Set-up, the untraced phase and, with `--trace 1`, the traced phase
/// with its ledger. Returns the summary line, the untraced operation
/// times and the result line.
fn run(w: &mut dyn Workload, args: &Args, dirs: &Dirs) -> (Json, Vec<f64>, Json) {
    let mut tally = Tally::default();
    let ((), setup_s) = common::repeated_setup(|rep| tally.op(w.setup(rep)));
    let mut timed = w.phase(0);
    tally.merge(std::mem::take(&mut timed.tally));
    let p50 = common::median(&timed.op_ms);
    let (p90, rate) = segment_medians(&timed);
    let per_layer = args
        .trace
        .then(|| traced(w, &timed, dirs, &args.workload, &mut tally));
    let e2e = [setup_s, p50, p90, rate, common::peak_rss_mb()];
    let mut e2e_json = Json::object();
    for ((name, unit), value) in END_TO_END.iter().zip(e2e) {
        e2e_json.set(name, metric(value, unit));
    }
    let [p50_name, p90_name, rate_name] = w.aliases();
    let failures = tally
        .failures
        .iter()
        .map(|f| Json::from(f.as_str()))
        .collect();
    let summary = Json::object()
        .with("workload", args.workload.as_str())
        .with("stamp", common::stamp(w.store_dir(), args.seed))
        .with("seconds", args.seconds)
        .with("wall_s", timed.wall_s)
        .with("digest", timed.digest.as_str())
        .with(
            "error_rate",
            tally.failed as f64 / tally.attempted.max(1) as f64,
        )
        .with(
            "aliases",
            Json::object()
                .with(p50_name, metric(p50, "ms"))
                .with(p90_name, metric(p90, "ms"))
                .with(rate_name, metric(rate, "1/s")),
        )
        .with("end_to_end", e2e_json.clone())
        .with("per_layer", per_layer.clone().unwrap_or(Json::Null))
        .with("failures", Json::Arr(failures));
    let result = Json::object()
        .with("correct", tally.failed == 0)
        .with("attempted", tally.attempted)
        .with("failed", tally.failed)
        .with("metrics", per_layer.unwrap_or(e2e_json));
    (summary, timed.op_ms, result)
}

/// The traced phase: the same inputs as `untraced`, with spans captured
/// and metrics on. Checks that it reproduces the untraced digest and
/// that its ledger sums to its wall time, writes the ledger and the
/// Chrome trace, and returns the per-layer metrics.
fn traced(
    w: &mut dyn Workload,
    untraced: &Phase,
    dirs: &Dirs,
    name: &str,
    tally: &mut Tally,
) -> Json {
    let (phase, capture) = common::traced(|| w.phase(1));
    tally.op(if phase.digest == untraced.digest {
        Ok(())
    } else {
        Err(format!(
            "traced digest {} differs from untraced {}",
            phase.digest, untraced.digest
        ))
    });
    let share = common::exchange_share(|| w.subrun());
    let analysis = Analysis::new(&capture.trace, w.bench_layers());
    let layers = w.layers(&capture, &analysis, &phase);
    let ledger = ledger::build(name, &layers.ledger, capture.wall_s * 1e3, layers.timelines);
    tally.op(if ledger.closure_pct.abs() <= 5.0 {
        Ok(())
    } else {
        Err(format!(
            "ledger misses the wall time by {:.2}%",
            ledger.closure_pct
        ))
    });
    tally.merge(phase.tally);
    // The kernel's numbers are read the same way on every workload.
    let busy_ms = analysis
        .by_layer(|_| true)
        .get("a2a-sim")
        .copied()
        .unwrap_or(0.0);
    let active = capture.counter("kernel.frontier.active");
    let mut values = layers.metrics;
    values.insert("sim.busy_ms", busy_ms);
    values.insert("sim.runs", capture.counter("kernel.runs") as f64);
    values.insert("sim.steps", capture.counter("kernel.steps") as f64);
    values.insert("sim.active_agent_steps", active as f64);
    values.insert(
        "sim.ns_per_active_agent_step",
        busy_ms * 1e6 / active.max(1) as f64,
    );
    values.insert("sim.exchange_share", share);
    values.insert(
        "trace.overhead_pct",
        100.0 * (capture.wall_s / untraced.wall_s - 1.0),
    );
    values.insert("ledger.unattributed_pct", ledger.unattributed_pct);
    let _ = std::fs::write(dirs.out.join("ledger.json"), format!("{}\n", ledger.json));
    let _ = std::fs::write(
        dirs.out.join("trace.chrome.json"),
        capture.trace.to_chrome_json().to_string(),
    );
    let mut metrics = Json::object();
    for (name, unit) in PER_LAYER {
        metrics.set(name, metric(values.get(name).copied().unwrap_or(0.0), unit));
    }
    metrics
}
