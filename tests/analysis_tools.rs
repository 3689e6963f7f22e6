//! Cross-crate integration tests of the analysis toolbox: bounds, usage
//! profiling, inference and charts working against real simulations.

use a2a::analysis::{
    bootstrap_mean_ci, diffusion_lower_bound, profile_usage, significantly_different,
    stationary_time, welch_t, AsciiChart, Series, XScale,
};
use a2a::ga::WorkerPool;
use a2a::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The diffusion lower bound is respected by every run, and is tighter in
/// T than in S on the same placement (T distances dominate).
#[test]
fn bounds_hold_across_grids_on_shared_placements() {
    let lattice = Lattice::torus(16, 16);
    let mut rng = SmallRng::seed_from_u64(21);
    for _ in 0..10 {
        let init = InitialConfig::random(lattice, GridKind::Square, 6, &[], &mut rng).unwrap();
        let mut dirs_ok = true;
        for &(_, d) in init.placements() {
            dirs_ok &= d.is_valid_for(GridKind::Triangulate);
        }
        assert!(dirs_ok, "S directions are valid T directions");
        let bound_s = diffusion_lower_bound(lattice, GridKind::Square, &init);
        let bound_t = diffusion_lower_bound(lattice, GridKind::Triangulate, &init);
        assert!(bound_t <= bound_s);
        for (kind, bound) in [(GridKind::Square, bound_s), (GridKind::Triangulate, bound_t)] {
            let cfg = WorldConfig::paper(kind, 16);
            let out = simulate(&cfg, best_agent(kind), &init, 4000).unwrap();
            assert!(out.t_comm.unwrap() >= bound, "{kind}");
        }
    }
}

/// Stationary analysis: agents placed as a connected chain communicate
/// without moving in exactly chain-eccentricity − 1 steps under a
/// never-moving behaviour.
#[test]
fn stationary_time_is_exact_for_immobile_chains() {
    use a2a::fsm::{Entry, FsmSpec, Genome};
    let lattice = Lattice::torus(16, 16);
    let k = 6;
    let placements: Vec<(Pos, Dir)> =
        (0..k).map(|i| (Pos::new(3 + i, 5), Dir::new(0))).collect();
    let init = InitialConfig::new(placements);
    let expected = stationary_time(lattice, GridKind::Square, &init).unwrap();
    // A behaviour that never moves: chain gossip only.
    let spec = FsmSpec::paper(GridKind::Square);
    let immobile = Genome::from_entries(
        spec,
        vec![Entry { next_state: 0, action: a2a::fsm::Action::new(0, false, 0) }; 32],
    );
    let cfg = WorldConfig::paper(GridKind::Square, 16);
    let out = simulate(&cfg, immobile, &init, 100).unwrap();
    assert_eq!(out.t_comm, Some(expected));
    // A 6-chain: ends are 5 apart, so 4 counted steps after the free one.
    assert_eq!(expected, 4);
}

/// The T-vs-S difference at k = 16 is statistically significant on a
/// modest sample, and the bootstrap CIs do not overlap.
#[test]
fn t_vs_s_difference_is_significant() {
    let lattice = Lattice::torus(16, 16);
    let times = |kind: GridKind| -> Vec<f64> {
        let configs = a2a::sim::paper_config_set(lattice, kind, 16, 80, 5).unwrap();
        let configs = std::sync::Arc::new(configs);
        let cfg = WorldConfig::paper(kind, 16);
        let runner = a2a::sim::BatchRunner::from_genome(&cfg, best_agent(kind), 4000).unwrap();
        WorkerPool::new(4)
            .run_all(&runner, &configs)
            .unwrap()
            .iter()
            .map(|o| f64::from(o.t_comm.unwrap()))
            .collect()
    };
    let t = times(GridKind::Triangulate);
    let s = times(GridKind::Square);
    assert!(significantly_different(&t, &s));
    let (stat, df) = welch_t(&t, &s).unwrap();
    assert!(stat < -5.0, "t = {stat}");
    assert!(df > 100.0);
    let ci_t = bootstrap_mean_ci(&t, 400, 0.95, 1).unwrap();
    let ci_s = bootstrap_mean_ci(&s, 400, 0.95, 1).unwrap();
    assert!(ci_t.hi < ci_s.lo, "CIs must separate: {ci_t:?} vs {ci_s:?}");
}

/// Usage profiling composes with the facade: the published agents
/// exercise most of their genome across a config set.
#[test]
fn usage_profile_of_published_agents() {
    for kind in [GridKind::Square, GridKind::Triangulate] {
        let env = WorldConfig::paper(kind, 16);
        let configs = a2a::sim::paper_config_set(env.lattice, kind, 8, 20, 3).unwrap();
        let p = profile_usage(&env, &best_agent(kind), &configs, 1000, 2);
        assert!(p.dead_entries().len() <= 4, "{kind}: {:?}", p.dead_entries());
        assert!(p.concentration(32) > 0.999);
        assert!(p.total_steps > 0);
    }
}

/// Charts render simulation-derived series without panicking and embed
/// every series glyph.
#[test]
fn chart_renders_simulated_series() {
    let mut points_t = Vec::new();
    let mut points_s = Vec::new();
    for (k, out_t, out_s) in [(4usize, 70.0, 110.0), (16, 40.0, 63.0), (64, 18.0, 28.0)] {
        points_t.push((k as f64, out_t));
        points_s.push((k as f64, out_s));
    }
    let chart = AsciiChart::new(48, 12, XScale::Log2)
        .series(Series::new("T", 'T', points_t))
        .series(Series::new("S", 'S', points_s));
    let text = chart.to_string();
    assert!(text.matches('T').count() >= 3);
    assert!(text.matches('S').count() >= 3);
}
