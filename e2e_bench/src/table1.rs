//! `table1`: full two-grid Table 1 regenerations through
//! `run_density_comparison` — the published S and T agents on 16×16,
//! k ∈ {2, 4, 8, 16, 32, 256}, 1000 random plus the designed
//! configurations per point, t_max 5000, 2 worker threads — one pass per
//! consecutive seed. The kernel does nearly all the work, including the
//! k = 256 multi-word information sets evolution never reaches.

use crate::common::{self, Capture, Tally};
use crate::ledger::Analysis;
use crate::{Layers, Phase, Workload};
use a2a_analysis::experiments::density::{
    run_density_comparison, DensityComparison, DensityExperiment, TABLE1_AGENT_COUNTS,
};
use a2a_fsm::best_agent;
use a2a_grid::GridKind;
use a2a_obs::Span;
use a2a_sim::{paper_config_set, BatchRunner, WorldConfig};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Passes per second of `--seconds` (one pass takes about 0.35 s on a
/// 2-core x86-64 host).
const PASSES_PER_SECOND: f64 = 3.0;

/// Segments a phase's passes are split into for the per-segment medians.
const SEGMENTS: usize = 10;

/// Worker threads of every pass.
const THREADS: usize = 2;

/// The band the T/S mean-time ratio at `k` agents must fall in. The
/// published agents measure 0.60–0.72 for k ≥ 4 over 20 seeds; at k = 2
/// the means rest on few long meeting times and the ratio spreads over
/// 0.67–0.79, so its band is wider above.
fn ratio_band(k: usize) -> (f64, f64) {
    if k == 2 {
        (0.55, 0.9)
    } else {
        (0.55, 0.75)
    }
}

pub struct Table1 {
    seed: u64,
    passes: usize,
}

impl Table1 {
    pub fn new(seed: u64, seconds: u64) -> Self {
        let passes = (seconds as f64 * PASSES_PER_SECOND).round().max(1.0) as usize;
        Self { seed, passes }
    }

    /// Seed of pass `i`; distinct `--seed`s never share a pass.
    fn pass_seed(&self, i: usize) -> u64 {
        self.seed.wrapping_mul(1_000).wrapping_add(i as u64)
    }
}

/// Output check of one pass: every configuration solved, and every T/S
/// ratio inside its band ([`ratio_band`]).
pub fn check(cmp: &DensityComparison) -> Result<(), String> {
    for series in [&cmp.t_grid, &cmp.s_grid] {
        if series.points.len() != TABLE1_AGENT_COUNTS.len() {
            return Err(format!(
                "{} grid has {} points",
                series.kind,
                series.points.len()
            ));
        }
        let n_random = cmp.experiment.n_random;
        if let Some(p) = series
            .points
            .iter()
            .find(|p| !p.is_complete() || p.total < n_random)
        {
            return Err(format!(
                "{} grid, k={}: {}/{} solved",
                series.kind, p.agents, p.successes, p.total
            ));
        }
    }
    for (k, r) in TABLE1_AGENT_COUNTS.into_iter().zip(cmp.ratios()) {
        let (lo, hi) = ratio_band(k);
        if !(lo..=hi).contains(&r) {
            return Err(format!("k={k}: T/S ratio {r:.4} outside [{lo}, {hi}]"));
        }
    }
    Ok(())
}

/// The Table 1 means of a pass, as digest input.
fn means(cmp: &DensityComparison) -> String {
    let mut out = String::new();
    for p in cmp.t_grid.points.iter().chain(&cmp.s_grid.points) {
        out.push_str(&format!("{}:{:.6};", p.agents, p.times.mean));
    }
    out
}

impl Workload for Table1 {
    fn aliases(&self) -> [&'static str; 3] {
        [
            "table1.pass_p50_ms",
            "table1.pass_p90_ms",
            "table1.passes_per_s",
        ]
    }

    fn setup(&mut self, rep: usize) -> Result<(), String> {
        // The configuration sets and compiled runners a pass builds,
        // then one discarded pass on a seed no timed pass uses.
        let seed = self.pass_seed(999 - rep);
        for kind in [GridKind::Triangulate, GridKind::Square] {
            let cfg = WorldConfig::paper(kind, 16);
            BatchRunner::from_genome(&cfg, best_agent(kind), 5000).map_err(|e| e.to_string())?;
            for k in TABLE1_AGENT_COUNTS {
                paper_config_set(cfg.lattice, kind, k, 1000, seed).map_err(|e| e.to_string())?;
            }
        }
        let cmp = run_density_comparison(&DensityExperiment::table1(seed, THREADS))
            .map_err(|e| e.to_string())?;
        check(&cmp)
    }

    fn phase(&mut self, _index: usize) -> Phase {
        let mut tally = Tally::default();
        let mut op_ms = Vec::with_capacity(self.passes);
        let mut done_ms = Vec::with_capacity(self.passes);
        let mut digest_input = String::new();
        let start = Instant::now();
        let (_, wall_s) = common::timed(|| {
            for i in 0..self.passes {
                let exp = DensityExperiment::table1(self.pass_seed(i), THREADS);
                let (cmp, secs) = common::timed(|| {
                    let _pass = Span::enter("bench.table1.pass");
                    common::unwind("pass", || run_density_comparison(&exp))
                });
                op_ms.push(secs * 1e3);
                done_ms.push(start.elapsed().as_secs_f64() * 1e3);
                let _check = Span::enter("bench.check");
                tally.op(cmp
                    .and_then(|r| r.map_err(|e| e.to_string()))
                    .and_then(|cmp| {
                        digest_input.push_str(&means(&cmp));
                        check(&cmp)
                    }));
            }
        });
        let digest = common::digest_hex(&digest_input);
        Phase {
            op_ms,
            done_ms,
            segments: SEGMENTS,
            wall_s,
            tally,
            digest,
        }
    }

    fn subrun(&mut self) {
        let _ = run_density_comparison(&DensityExperiment::table1(self.pass_seed(0), THREADS));
    }

    fn bench_layers(&self) -> &'static [(&'static str, &'static str)] {
        &[
            ("bench.timed", "unattributed"),
            ("bench.table1.pass", "a2a-analysis"),
            ("bench.check", "bench.check"),
        ]
    }

    fn layers(&mut self, _capture: &Capture, analysis: &Analysis, _phase: &Phase) -> Layers {
        // Only the kernel runs here, and `traced` reads its metrics.
        let main = analysis.threads_of("bench.timed");
        let ledger = analysis
            .by_layer(|s| main.contains(&s.thread))
            .into_iter()
            .map(|(layer, ms)| (layer.to_string(), ms))
            .collect();
        Layers {
            metrics: BTreeMap::new(),
            ledger,
            timelines: 1,
        }
    }

    fn store_dir(&self) -> &Path {
        Path::new(".")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A wrong T/S ratio is an output failure counted in the error rate,
    /// not a pass that goes through silently.
    #[test]
    fn wrong_ratio_is_counted_as_failed() {
        let exp = DensityExperiment {
            n_random: 300,
            ..DensityExperiment::table1(7, 2)
        };
        let mut cmp = run_density_comparison(&exp).expect("quick comparison runs");
        let mut tally = Tally::default();
        tally.op(check(&cmp));
        assert_eq!(tally.failed, 0, "{:?}", tally.failures);
        // Stretch the T-grid mean at k = 8 until T/S leaves the band.
        cmp.t_grid.points[2].times.mean = cmp.s_grid.points[2].times.mean * 0.9;
        tally.op(check(&cmp));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(tally.failures[0].contains("k=8"), "{:?}", tally.failures);
    }
}
