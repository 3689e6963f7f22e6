//! E6 — Table 1 / Fig. 5: communication time vs. agent density in the
//! T- and S-grids, plus arbitrary density sweeps (the same machinery runs
//! the 33×33 comparison, E9, via a different extent/agent count).

use crate::stats::Summary;
use crate::table::{f2, f3, TextTable};
use a2a_fsm::{best_agent, Genome};
use a2a_ga::WorkerPool;
use a2a_grid::GridKind;
use a2a_sim::{paper_config_set, BatchRunner, InitialConfig, RunOutcome, SimError, WorldConfig};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The agent counts of Table 1.
pub const TABLE1_AGENT_COUNTS: [usize; 6] = [2, 4, 8, 16, 32, 256];

/// Paper Table 1, T-grid row (16×16, 1003 configurations).
pub const PAPER_TABLE1_T: [f64; 6] = [58.43, 78.30, 58.68, 41.25, 28.06, 9.00];

/// Paper Table 1, S-grid row.
pub const PAPER_TABLE1_S: [f64; 6] = [82.78, 116.12, 90.93, 63.39, 42.93, 15.00];

/// Parameters of a density experiment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DensityExperiment {
    /// Field extent (`m × m`).
    pub m: u16,
    /// Agent counts to sweep.
    pub agent_counts: Vec<usize>,
    /// Random configurations per count (paper: 1000, plus the manual 3).
    pub n_random: usize,
    /// Seed of the configuration stream.
    pub seed: u64,
    /// Verification horizon (generous, unlike evolution's 200).
    pub t_max: u32,
    /// Worker threads.
    pub threads: usize,
}

impl DensityExperiment {
    /// The full Table 1 protocol: 16×16, `k ∈ {2,4,8,16,32,256}`,
    /// 1000 random + manual configurations each.
    #[must_use]
    pub fn table1(seed: u64, threads: usize) -> Self {
        Self {
            m: 16,
            agent_counts: TABLE1_AGENT_COUNTS.to_vec(),
            n_random: 1000,
            seed,
            t_max: 5000,
            threads,
        }
    }

    /// A reduced protocol for quick runs and benches.
    #[must_use]
    pub fn quick(n_random: usize, seed: u64, threads: usize) -> Self {
        Self { n_random, ..Self::table1(seed, threads) }
    }
}

/// Results for one grid at one agent count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DensityPoint {
    /// Agent count `k`.
    pub agents: usize,
    /// Summary of `t_comm` over the *successful* configurations.
    pub times: Summary,
    /// Solved configurations.
    pub successes: usize,
    /// Total configurations.
    pub total: usize,
}

impl DensityPoint {
    /// Folds the outcomes of one configuration set at `agents` agents:
    /// `t_comm` is summarised over the successful runs.
    #[must_use]
    pub fn from_outcomes(agents: usize, outcomes: &[RunOutcome]) -> Self {
        let times: Vec<u32> = outcomes.iter().filter_map(|o| o.t_comm).collect();
        Self {
            agents,
            times: Summary::of_u32(&times).unwrap_or(Summary::NAN),
            successes: times.len(),
            total: outcomes.len(),
        }
    }

    /// Whether every configuration was solved ("completely successful").
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.successes == self.total
    }
}

/// One grid's series over all densities (a Fig. 5 curve).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSeries {
    /// Which grid.
    pub kind: GridKind,
    /// One point per agent count.
    pub points: Vec<DensityPoint>,
}

/// The full two-grid comparison (Table 1 / Fig. 5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DensityComparison {
    /// Parameters that produced this result.
    pub experiment: DensityExperiment,
    /// T-grid series.
    pub t_grid: GridSeries,
    /// S-grid series.
    pub s_grid: GridSeries,
}

impl DensityComparison {
    /// The `T/S` mean-time ratios per agent count (Table 1's third row).
    #[must_use]
    pub fn ratios(&self) -> Vec<f64> {
        self.t_grid
            .points
            .iter()
            .zip(&self.s_grid.points)
            .map(|(t, s)| t.times.mean / s.times.mean)
            .collect()
    }

    /// Renders the paper's Table 1 layout (with our measured values).
    #[must_use]
    pub fn to_table(&self) -> TextTable {
        let mut header = vec!["N_agents".to_string()];
        header.extend(self.experiment.agent_counts.iter().map(ToString::to_string));
        let mut table = TextTable::new(header);
        let row = |label: &str, values: Vec<String>| {
            let mut cells = vec![label.to_string()];
            cells.extend(values);
            cells
        };
        table.add_row(row(
            "T-grid",
            self.t_grid.points.iter().map(|p| f2(p.times.mean)).collect(),
        ));
        table.add_row(row(
            "S-grid",
            self.s_grid.points.iter().map(|p| f2(p.times.mean)).collect(),
        ));
        table.add_row(row("T/S", self.ratios().iter().map(|&r| f3(r)).collect()));
        table
    }

    /// CSV of the Fig. 5 series (`k, t_mean, s_mean, ratio`).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("agents,t_grid_mean,s_grid_mean,ratio\n");
        for ((t, s), r) in self
            .t_grid
            .points
            .iter()
            .zip(&self.s_grid.points)
            .zip(self.ratios())
        {
            out.push_str(&format!("{},{:.4},{:.4},{:.4}\n", t.agents, t.times.mean, s.times.mean, r));
        }
        out
    }
}

/// Runs one grid's series in a custom environment (bordered fields,
/// obstacles, alternative policies — used by the ablations E12–E15):
/// the one-grid case of the pass pipeline ([`run_density_comparison`]).
///
/// # Errors
///
/// Propagates configuration-set construction failures.
pub fn run_series_in(
    cfg: &WorldConfig,
    genome: &Genome,
    exp: &DensityExperiment,
) -> Result<GridSeries, SimError> {
    let mut series = run_pass(&[(cfg.clone(), genome.clone())], exp, paper_sets(exp))?;
    Ok(series.pop().expect("one series per grid"))
}

/// Runs the full two-grid comparison with the paper's published best
/// agents (E6: Table 1 and Fig. 5) as one pass pipeline: the T-grid
/// points, then the S-grid points, on one pool.
///
/// # Errors
///
/// Propagates configuration-set construction failures.
pub fn run_density_comparison(exp: &DensityExperiment) -> Result<DensityComparison, SimError> {
    let grids = [GridKind::Triangulate, GridKind::Square]
        .map(|kind| (WorldConfig::paper(kind, exp.m), best_agent(kind)));
    let [t_grid, s_grid]: [GridSeries; 2] =
        run_pass(&grids, exp, paper_sets(exp))?.try_into().expect("one series per grid");
    Ok(DensityComparison { experiment: exp.clone(), t_grid, s_grid })
}

/// The paper's sets ([`paper_config_set`]) at the experiment's size
/// and seed, as a pass generator ([`run_pass`]).
pub(crate) fn paper_sets(
    exp: &DensityExperiment,
) -> impl Fn(&WorldConfig, usize) -> Result<Vec<InitialConfig>, SimError> {
    let (n_random, seed) = (exp.n_random, exp.seed);
    move |cfg: &WorldConfig, k| paper_config_set(cfg.lattice, cfg.kind, k, n_random, seed)
}

/// Runs every grid's series over `exp.agent_counts` as one pipeline on
/// one pool, `generate` building each point's set from its grid's
/// environment and agent count. The points run in order — each grid's
/// agent counts in turn — and while each point's single map runs its
/// set's ranges, the calling thread generates the next point's set, so
/// generation overlaps kernel work and at most two sets are alive: the
/// one running and the one being generated. Each grid's runner is
/// compiled once. Outcomes are bit-identical to the serial path at any
/// thread count.
///
/// # Errors
///
/// A grid whose runner does not compile, else the first failing set
/// generation in point order.
pub(crate) fn run_pass(
    grids: &[(WorldConfig, Genome)],
    exp: &DensityExperiment,
    generate: impl Fn(&WorldConfig, usize) -> Result<Vec<InitialConfig>, SimError>,
) -> Result<Vec<GridSeries>, SimError> {
    let pool = WorkerPool::new(exp.threads);
    let runners = grids
        .iter()
        .map(|(cfg, genome)| BatchRunner::from_genome(cfg, genome.clone(), exp.t_max))
        .collect::<Result<Vec<_>, _>>()?;
    let points: Vec<(usize, usize)> = (0..grids.len())
        .flat_map(|g| exp.agent_counts.iter().map(move |&k| (g, k)))
        .collect();
    let mut series: Vec<GridSeries> = grids
        .iter()
        .map(|(cfg, _)| GridSeries {
            kind: cfg.kind,
            points: Vec::with_capacity(exp.agent_counts.len()),
        })
        .collect();
    let Some(&(g0, k0)) = points.first() else { return Ok(series) };
    let generate = &generate;
    let mut set = generate(&grids[g0].0, k0)?;
    for (i, &(g, k)) in points.iter().enumerate() {
        let configs = Arc::new(std::mem::take(&mut set));
        // The point's dispatch, next set included, is kernel work.
        let span = a2a_obs::Span::enter("batch.run_all");
        let runner = std::slice::from_ref(&runners[g]);
        let (mut pieces, next_set) =
            pool.run_ranges(runner, &configs, 0..configs.len(), BatchRunner::run_all, || {
                points.get(i + 1).map(|&(g, k)| generate(&grids[g].0, k))
            });
        let outcomes = pieces
            .pop()
            .expect("one result per runner")
            .expect("configuration sets are generated to match the environment")
            .concat();
        drop(span);
        series[g].points.push(DensityPoint::from_outcomes(k, &outcomes));
        if let Some(next_set) = next_set {
            set = next_set?;
        }
    }
    Ok(series)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> DensityExperiment {
        DensityExperiment {
            m: 16,
            agent_counts: vec![2, 16, 256],
            n_random: 12,
            seed: 2013,
            t_max: 3000,
            threads: 2,
        }
    }

    #[test]
    fn quick_comparison_matches_paper_shape() {
        let cmp = run_density_comparison(&quick()).unwrap();
        // Complete success everywhere.
        for p in cmp.t_grid.points.iter().chain(&cmp.s_grid.points) {
            assert!(p.is_complete(), "{p:?}");
        }
        // T beats S at every density.
        for (t, s) in cmp.t_grid.points.iter().zip(&cmp.s_grid.points) {
            assert!(t.times.mean < s.times.mean, "T {t:?} vs S {s:?}");
        }
        // The fully packed case is exactly D − 1.
        assert_eq!(cmp.t_grid.points[2].times.mean, 9.0);
        assert_eq!(cmp.s_grid.points[2].times.mean, 15.0);
        // Ratios live in the paper's band.
        for r in cmp.ratios() {
            assert!((0.5..0.85).contains(&r), "ratio {r}");
        }
    }

    #[test]
    fn table_and_csv_render() {
        let cmp = run_density_comparison(&DensityExperiment {
            agent_counts: vec![256],
            n_random: 2,
            ..quick()
        })
        .unwrap();
        let table = cmp.to_table().to_string();
        assert!(table.contains("T-grid") && table.contains("T/S"), "{table}");
        let csv = cmp.to_csv();
        assert!(csv.starts_with("agents,"));
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("256,9.0000,15.0000,0.6000"), "{csv}");
    }

    /// One grid's series the serial way: every point's set generated
    /// up front and run through one `BatchRunner::run_all`.
    fn serial_series(cfg: &WorldConfig, genome: &Genome, exp: &DensityExperiment) -> GridSeries {
        let runner = BatchRunner::from_genome(cfg, genome.clone(), exp.t_max).unwrap();
        let points = exp
            .agent_counts
            .iter()
            .map(|&k| {
                let set = paper_config_set(cfg.lattice, cfg.kind, k, exp.n_random, exp.seed);
                DensityPoint::from_outcomes(k, &runner.run_all(&set.unwrap()).unwrap())
            })
            .collect();
        GridSeries { kind: cfg.kind, points }
    }

    #[test]
    fn pass_pipeline_matches_serial_series_at_any_thread_count() {
        // 143 configurations per point: three dispatch ranges, beside
        // the next point's generation, across the T-to-S boundary.
        let exp = DensityExperiment { agent_counts: vec![4, 32, 256], n_random: 140, ..quick() };
        assert!(exp.n_random + 3 > 2 * a2a_ga::DISPATCH_BLOCK);
        let serial =
            |kind| serial_series(&WorldConfig::paper(kind, exp.m), &best_agent(kind), &exp);
        let (t_grid, s_grid) = (serial(GridKind::Triangulate), serial(GridKind::Square));
        for threads in [1, 2, 3] {
            let cmp =
                run_density_comparison(&DensityExperiment { threads, ..exp.clone() }).unwrap();
            assert_eq!(cmp.t_grid, t_grid, "threads={threads}");
            assert_eq!(cmp.s_grid, s_grid, "threads={threads}");
        }
    }

    #[test]
    fn series_on_a_bordered_field_with_obstacles_matches_serial() {
        // The paper's sets place agents without regard to obstacles, so
        // the obstacles go on cells no configuration of the pass uses.
        let exp = DensityExperiment { agent_counts: vec![2, 3], n_random: 70, ..quick() };
        let mut cfg = WorldConfig {
            lattice: a2a_grid::Lattice::bordered(exp.m, exp.m),
            ..WorldConfig::paper(GridKind::Triangulate, exp.m)
        };
        let mut used = vec![false; cfg.lattice.len()];
        for &k in &exp.agent_counts {
            let set = paper_config_set(cfg.lattice, cfg.kind, k, exp.n_random, exp.seed);
            for init in set.unwrap() {
                for &(pos, _) in init.placements() {
                    used[cfg.lattice.index_of(pos)] = true;
                }
            }
        }
        cfg.obstacles = (0..cfg.lattice.len())
            .filter(|&c| !used[c])
            .step_by(3)
            .take(12)
            .map(|c| cfg.lattice.pos_at(c))
            .collect();
        assert_eq!(cfg.obstacles.len(), 12);
        let genome = best_agent(cfg.kind);
        let serial = serial_series(&cfg, &genome, &exp);
        for threads in [1, 2, 3] {
            let exp = DensityExperiment { threads, ..exp.clone() };
            assert_eq!(run_series_in(&cfg, &genome, &exp).unwrap(), serial, "threads={threads}");
        }
    }

    #[test]
    fn quick_protocol_shares_table1_structure() {
        let exp = DensityExperiment::quick(5, 1, 1);
        assert_eq!(exp.agent_counts, TABLE1_AGENT_COUNTS.to_vec());
        assert_eq!(exp.m, 16);
        assert_eq!(exp.n_random, 5);
    }
}
