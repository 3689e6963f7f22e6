//! Perf-trend observatory: turns sealed bench artifacts
//! (`BENCH_kernel.json`, `BENCH_fitness.json`, `BENCH_obs.json`) and the
//! append-only `results/bench_history.jsonl` trend file into one
//! markdown report with SVG sparklines — and a machine-checkable list of
//! regressions, so CI can gate on drift the same way `obs_validate`
//! gates on schemas.
//!
//! The regression rules mirror the validators' acceptance terms:
//!
//! * any headline ratio (`kernel.frontier_speedup`, `fitness.speedup`)
//!   below 1 is flagged — the optimisation the ratio measures has
//!   become a pessimisation (this is how a frontier kernel losing to
//!   its own dense scan shows up from the artifacts alone);
//! * against an explicit kernel baseline, a drop below
//!   [`KERNEL_REGRESSION_FLOOR`](a2a_obs::schema::KERNEL_REGRESSION_FLOOR)
//!   of the baseline's ratio is flagged (same floor as
//!   `obs_validate --kernel-baseline`);
//! * against the history, the latest point of every tracked *ratio*
//!   series is compared to the median of the earlier points; a drop
//!   below the same floor is drift worth failing on. Absolute
//!   throughput series (steps/s, evals/s) are charted but never gate —
//!   they scale with the run's `--configs` and the machine, so mixed
//!   history lines would false-positive.

use crate::table::{f2, TextTable};
use a2a_obs::json::Json;
use a2a_obs::schema::KERNEL_REGRESSION_FLOOR;
use a2a_obs::HistogramSnapshot;

/// The sealed inputs of one report. Every artifact is optional — the
/// report renders whatever is present — but all documents must already
/// be checksum-verified (the `obs_report` binary validates before
/// building; library callers are trusted).
#[derive(Debug, Default)]
pub struct ReportInputs<'a> {
    /// `BENCH_kernel.json` (`a2a-obs/kernel-bench/v4`).
    pub kernel: Option<&'a Json>,
    /// `BENCH_fitness.json` (`a2a-obs/fitness-bench/v1`).
    pub fitness: Option<&'a Json>,
    /// `BENCH_obs.json` (`a2a-obs/bench-snapshot/v1`).
    pub snapshot: Option<&'a Json>,
    /// Parsed `results/bench_history.jsonl` entries, oldest first.
    pub history: &'a [Json],
    /// Kernel baseline fixture to diff the fresh `kernel` against.
    pub baseline: Option<&'a Json>,
}

/// One rendered report: the markdown body, the sparkline SVGs it
/// references (file name → content), and the regression list that
/// decides `obs_report --check`'s exit code.
#[derive(Debug)]
pub struct PerfReport {
    /// Markdown body (sparklines referenced by relative file name).
    pub markdown: String,
    /// `(file_name, svg)` pairs to write next to the markdown.
    pub sparklines: Vec<(String, String)>,
    /// Human-readable regression findings; empty means healthy.
    pub regressions: Vec<String>,
}

/// The history series the observatory tracks: markdown label, JSON
/// path into a `bench-history/v1` line, and whether a *drop* of the
/// latest value below the floor×median gates. Only the scale-invariant
/// ratios gate: absolute throughput depends on the run's `--configs`
/// and on the machine, so consecutive history lines of different scale
/// would false-positive — those series are charted, not gated.
const TREND_METRICS: &[(&str, &[&str], bool)] = &[
    ("frontier speedup (dense/multi)", &["kernel", "frontier_speedup"], true),
    ("multi kernel steps/s", &["kernel", "multi_steps_per_sec"], false),
    ("fitness speedup (adaptive/baseline)", &["fitness", "speedup"], true),
    ("fitness evals/s", &["fitness", "evals_per_sec"], false),
];

fn num(doc: &Json, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(doc, |d, k| d.get(k)).and_then(Json::as_f64)
}

fn fmt(v: Option<f64>) -> String {
    match v {
        Some(v) if v.abs() >= 10_000.0 => format!("{v:.3e}"),
        Some(v) => f2(v),
        None => "–".to_string(),
    }
}

/// Median of a non-empty slice (sorted copy; even length averages).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("trend values are not NaN"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn sparkline_file(label: &str) -> String {
    let slug: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
        .collect();
    format!("spark_{}.svg", slug.trim_matches('_').replace("__", "_"))
}

/// Builds the full observatory report from the sealed inputs.
#[must_use]
pub fn perf_report(inputs: &ReportInputs<'_>) -> PerfReport {
    let mut md = String::from("# Perf observatory\n\n");
    let mut regressions: Vec<String> = Vec::new();
    let mut sparklines: Vec<(String, String)> = Vec::new();

    // Headline numbers from the freshest sealed artifacts; a gated
    // ratio < 1 is a regression.
    let mut headline = TextTable::new(vec!["metric", "value", "source"]);
    let mut ratio = |doc: Option<&Json>, path: &[&str], label: &str, source: &str| {
        let v = num(doc?, path);
        if let Some(v) = v.filter(|&v| v < 1.0) {
            regressions.push(format!(
                "{label} = {} < 1: the measured optimisation is a pessimisation \
                 (from {source})",
                f2(v)
            ));
        }
        v
    };
    let kernel_rows = [
        (["frontier_speedup"].as_slice(), "frontier speedup (dense/multi)", true),
        // The parallel ratio is charted, not gated here: on a 1-worker
        // machine it carries no dispatch win by construction, and the
        // schema validator arms its 3x gate from `parallel.workers`.
        (&["parallel_speedup"], "parallel speedup (dense/parallel)", false),
        (&["multi", "steps_per_sec"], "multi kernel steps/s", false),
    ];
    for (path, label, gated) in kernel_rows {
        let v = if gated {
            ratio(inputs.kernel, path, label, "BENCH_kernel.json")
        } else {
            inputs.kernel.and_then(|d| num(d, path))
        };
        if inputs.kernel.is_some() {
            headline.add_row(vec![label.into(), fmt(v), "BENCH_kernel.json".into()]);
        }
    }
    if inputs.fitness.is_some() {
        let v = ratio(
            inputs.fitness,
            &["speedup"],
            "fitness speedup (adaptive/baseline)",
            "BENCH_fitness.json",
        );
        headline.add_row(vec![
            "fitness speedup (adaptive/baseline)".into(),
            fmt(v),
            "BENCH_fitness.json".into(),
        ]);
    }
    if let Some(snap) = inputs.snapshot {
        headline.add_row(vec![
            "batch kernel agent-steps/s".into(),
            fmt(num(snap, &["kernel", "steps_per_sec"])),
            "BENCH_obs.json".into(),
        ]);
        headline.add_row(vec![
            "fitness evals/s".into(),
            fmt(num(snap, &["fitness", "evals_per_sec"])),
            "BENCH_obs.json".into(),
        ]);
    }
    if headline.row_count() > 0 {
        md.push_str("## Headline numbers\n\n");
        md.push_str(&headline.to_markdown());
        md.push('\n');
    }

    // Baseline diff: the same floor `obs_validate --kernel-baseline`
    // enforces, but reported as a delta table either way.
    if let (Some(fresh), Some(base)) = (inputs.kernel, inputs.baseline) {
        let mut diff = TextTable::new(vec!["ratio", "baseline", "current", "delta"]);
        let key = "frontier_speedup";
        let (b, c) = (num(base, &[key]), num(fresh, &[key]));
        let delta = match (b, c) {
            (Some(b), Some(c)) if b > 0.0 => {
                let pct = (c / b - 1.0) * 100.0;
                if c < KERNEL_REGRESSION_FLOOR * b {
                    regressions.push(format!(
                        "kernel.{key} = {} fell below {:.0}% of the baseline's {} ({pct:+.1}%)",
                        f2(c),
                        KERNEL_REGRESSION_FLOOR * 100.0,
                        f2(b),
                    ));
                }
                format!("{pct:+.1}%")
            }
            _ => "–".to_string(),
        };
        diff.add_row(vec![format!("kernel.{key}"), fmt(b), fmt(c), delta]);
        md.push_str("## Baseline comparison\n\n");
        md.push_str(&diff.to_markdown());
        md.push('\n');
    }

    // t_comm tail latency from the perf snapshot's histograms — the
    // log-bucket quantile accessors keep these within 2× of the true
    // per-rank sample.
    if let Some(entries) = inputs
        .snapshot
        .and_then(|s| s.get("t_comm"))
        .and_then(|t| match t {
            Json::Arr(entries) => Some(entries),
            _ => None,
        })
    {
        let mut table = TextTable::new(vec!["grid", "k", "p50", "p90", "p99"]);
        for entry in entries {
            let Some(hist) = entry
                .get("histogram")
                .and_then(|h| HistogramSnapshot::from_json(h).ok())
            else {
                continue;
            };
            table.add_row(vec![
                entry.get("grid").and_then(Json::as_str).unwrap_or("?").to_string(),
                fmt(num(entry, &["k"])),
                hist.p50().to_string(),
                hist.p90().to_string(),
                hist.p99().to_string(),
            ]);
        }
        if table.row_count() > 0 {
            md.push_str("## t_comm quantiles (steps)\n\n");
            md.push_str(&table.to_markdown());
            md.push('\n');
        }
    }

    // Trend series over the history file: sparkline per metric, drift
    // check of the newest point against the median of the older ones.
    if !inputs.history.is_empty() {
        let mut table = TextTable::new(vec!["metric", "points", "median", "latest", "trend"]);
        for (label, path, gated) in TREND_METRICS {
            let series: Vec<f64> =
                inputs.history.iter().filter_map(|entry| num(entry, path)).collect();
            if series.is_empty() {
                continue;
            }
            let latest = *series.last().expect("non-empty");
            let prior = &series[..series.len() - 1];
            let med = median(if prior.is_empty() { &series } else { prior });
            if *gated && !prior.is_empty() && med > 0.0 && latest < KERNEL_REGRESSION_FLOOR * med {
                regressions.push(format!(
                    "history drift: {label} latest {} fell below {:.0}% of the \
                     prior median {} over {} points",
                    f2(latest),
                    KERNEL_REGRESSION_FLOOR * 100.0,
                    f2(med),
                    series.len(),
                ));
            }
            let file = sparkline_file(label);
            sparklines.push((file.clone(), a2a_viz::sparkline(&series, 120.0, 24.0)));
            table.add_row(vec![
                (*label).to_string(),
                series.len().to_string(),
                fmt(Some(med)),
                fmt(Some(latest)),
                format!("![{label}]({file})"),
            ]);
        }
        if table.row_count() > 0 {
            md.push_str("## History trends\n\n");
            md.push_str(&table.to_markdown());
            md.push('\n');
        }
    }

    md.push_str("## Verdict\n\n");
    if regressions.is_empty() {
        md.push_str("No regressions detected.\n");
    } else {
        for r in &regressions {
            md.push_str(&format!("- **REGRESSION** {r}\n"));
        }
    }

    PerfReport { markdown: md, sparklines, regressions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_obs::schema::BENCH_HISTORY_SCHEMA;

    fn kernel_doc(frontier: f64) -> Json {
        Json::object().with("frontier_speedup", frontier).with(
            "multi",
            Json::object().with("steps_per_sec", 2.0e6).with("elapsed_us", 10.0),
        )
    }

    fn history_entry(frontier: f64) -> Json {
        Json::object()
            .with("schema", BENCH_HISTORY_SCHEMA)
            .with("t_ms", 1.0)
            .with(
                "kernel",
                Json::object()
                    .with("frontier_speedup", frontier)
                    .with("multi_steps_per_sec", 2.0e6),
            )
            .with(
                "fitness",
                Json::object().with("speedup", 2.0).with("evals_per_sec", 100.0),
            )
    }

    #[test]
    fn frontier_regression_is_flagged_from_the_kernel_artifact_alone() {
        // A frontier kernel slower than its own dense scan is a
        // pessimisation wherever it ran — flagged without any baseline.
        let kernel = kernel_doc(0.9);
        let report =
            perf_report(&ReportInputs { kernel: Some(&kernel), ..ReportInputs::default() });
        assert_eq!(report.regressions.len(), 1, "{:?}", report.regressions);
        assert!(report.regressions[0].contains("frontier speedup"));
        assert!(report.markdown.contains("REGRESSION"));
        // The parallel ratio is charted but never gated here (the
        // schema validator owns its worker-conditioned gate).
        let parallel = kernel_doc(1.2).with("parallel_speedup", 0.8);
        let report =
            perf_report(&ReportInputs { kernel: Some(&parallel), ..ReportInputs::default() });
        assert!(report.regressions.is_empty(), "{:?}", report.regressions);
    }

    #[test]
    fn healthy_artifacts_produce_no_regressions() {
        let kernel = kernel_doc(1.2);
        let history: Vec<Json> = (0..4).map(|_| history_entry(1.2)).collect();
        let report = perf_report(&ReportInputs {
            kernel: Some(&kernel),
            history: &history,
            ..ReportInputs::default()
        });
        assert!(report.regressions.is_empty(), "{:?}", report.regressions);
        assert!(report.markdown.contains("No regressions detected"));
        assert_eq!(report.sparklines.len(), TREND_METRICS.len());
        for (file, svg) in &report.sparklines {
            assert!(report.markdown.contains(file.as_str()), "{file} referenced");
            assert!(svg.starts_with("<svg"));
        }
    }

    #[test]
    fn history_drift_below_the_floor_is_flagged() {
        let mut history: Vec<Json> = (0..5).map(|_| history_entry(2.0)).collect();
        history.push(history_entry(1.0)); // 50% of the prior median
        let report =
            perf_report(&ReportInputs { history: &history, ..ReportInputs::default() });
        assert!(
            report.regressions.iter().any(|r| r.contains("history drift")),
            "{:?}",
            report.regressions
        );
    }

    #[test]
    fn throughput_drift_is_charted_but_not_gated() {
        // Absolute rates depend on the run scale: a --configs 10 line
        // after a --configs 20 line halves evals/s without any code
        // regressing. Only the scale-invariant ratios gate.
        let mut history: Vec<Json> = (0..4).map(|_| history_entry(2.0)).collect();
        let small_run = Json::object()
            .with("schema", BENCH_HISTORY_SCHEMA)
            .with("t_ms", 1.0)
            .with(
                "kernel",
                Json::object().with("frontier_speedup", 2.0).with("multi_steps_per_sec", 2.0e5),
            )
            .with(
                "fitness",
                Json::object().with("speedup", 2.0).with("evals_per_sec", 10.0),
            );
        history.push(small_run);
        let report =
            perf_report(&ReportInputs { history: &history, ..ReportInputs::default() });
        assert!(report.regressions.is_empty(), "{:?}", report.regressions);
        assert!(report.markdown.contains("fitness evals/s"), "still charted");
    }

    #[test]
    fn baseline_floor_matches_obs_validate() {
        let base = kernel_doc(2.0);
        let fresh = kernel_doc(1.2); // 60% of the baseline ratio
        let report = perf_report(&ReportInputs {
            kernel: Some(&fresh),
            baseline: Some(&base),
            ..ReportInputs::default()
        });
        assert!(
            report.regressions.iter().any(|r| r.contains("below 70%")),
            "{:?}",
            report.regressions
        );
        assert!(report.markdown.contains("Baseline comparison"));
    }

    #[test]
    fn quantile_table_uses_the_histogram_accessors() {
        let mut hist = a2a_obs::HistogramSnapshot::default();
        for v in 1..=100u64 {
            hist.record(v);
        }
        let snapshot = Json::object().with(
            "t_comm",
            Json::Arr(vec![Json::object()
                .with("grid", "T")
                .with("k", 8u64)
                .with("histogram", hist.to_json())]),
        );
        let report =
            perf_report(&ReportInputs { snapshot: Some(&snapshot), ..ReportInputs::default() });
        assert!(report.markdown.contains("t_comm quantiles"));
        assert!(report.markdown.contains(&hist.p99().to_string()));
    }
}
