//! Runs the complete experiment suite at reduced (one-sitting) scale and
//! prints a combined markdown report — a smoke-regeneration of every
//! claim in EXPERIMENTS.md with one command.
//!
//! ```text
//! cargo run --release -p a2a-bench --bin all_experiments [--configs N] \
//!     [--quiet] [--json-out events.jsonl]
//! ```
//!
//! For the paper-scale numbers run the individual binaries with `--full`;
//! for timings run the end-to-end benchmark in `e2e_bench/`.

use a2a_analysis::experiments::{
    density::{run_density_comparison, DensityExperiment, TABLE1_AGENT_COUNTS},
    distances, exhaustive, grid33,
};
use a2a_analysis::{f2, f3};
use a2a_bench::RunScale;
use a2a_grid::GridKind;

fn main() {
    let scale = RunScale::from_args(60);
    let _sink = scale.init_obs("all_experiments");
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

    scale.outln(
        "\nAll headline claims regenerate at reduced scale; see EXPERIMENTS.md for the full protocol numbers.",
    );
}
