//! Differential test for the adaptive fitness pipeline: the pruned,
//! cached, pooled selection path must pick exactly the same survivors
//! with exactly the same (bit-identical) reports as exhaustively
//! evaluating every candidate.
//!
//! Mirrors the union/sort/dedup/truncate sequence of `Evolution`'s
//! generation step on ≥ 50 seeded random populations per run, across
//! both grid kinds, with duplicate children, pool-duplicate children
//! and both garbage and elite incumbents mixed in.

use a2a_fsm::{best_agent, offspring, FsmSpec, Genome, MutationRates};
use a2a_ga::{
    Evaluator, Evolution, FitnessReport, GaConfig, GenomeEval, DISPATCH_BLOCK, PAPER_WEIGHT,
};
use a2a_grid::GridKind;
use a2a_sim::{paper_config_set, simulate, WorldConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// Applies the GA's selection ordering: stable sort by fitness, delete
/// later duplicates, truncate to `keep`.
fn select(mut union: Vec<(Genome, FitnessReport)>, keep: usize) -> Vec<(String, FitnessReport)> {
    union.sort_by(|a, b| a.1.fitness.partial_cmp(&b.1.fitness).expect("fitness is never NaN"));
    let mut seen = HashSet::new();
    union.retain(|(g, _)| seen.insert(g.to_digits()));
    union.truncate(keep);
    union.into_iter().map(|(g, r)| (g.to_digits(), r)).collect()
}

/// Runs one population over `n_random` random configurations (plus the
/// three designed ones) through both paths — the adaptive one at
/// `threads` threads, the exhaustive one inline — and returns how many
/// candidates the adaptive path pruned.
fn check_population(kind: GridKind, seed: u64, n_random: usize, threads: usize) -> usize {
    let cfg = WorldConfig::paper(kind, 8);
    let configs = paper_config_set(cfg.lattice, kind, 4, n_random, seed ^ 0xBEEF).unwrap();
    let spec = FsmSpec::paper(kind);
    let adaptive =
        Evaluator::new(cfg.clone(), configs.clone()).with_t_max(80).with_threads(threads);
    let exhaustive = Evaluator::new(cfg, configs).with_t_max(80).with_threads(1);

    let mut rng = SmallRng::seed_from_u64(seed);
    let pool_n = 4 + (seed as usize % 4);
    let children_n = 6 + (seed as usize % 5);
    let keep = pool_n;
    // Alternate between garbage pools and elite pools (published genome
    // plus light mutants): elite incumbents are what actually makes
    // bound-based pruning fire against garbage children.
    let pool: Vec<Genome> = if seed.is_multiple_of(2) {
        (0..pool_n).map(|_| Genome::random(spec, &mut rng)).collect()
    } else {
        let elite = best_agent(kind);
        let mut p = vec![elite.clone()];
        while p.len() < pool_n {
            p.push(offspring(&elite, MutationRates::uniform(0.05), &mut rng));
        }
        p
    };
    let mut children: Vec<Genome> =
        (0..children_n).map(|_| Genome::random(spec, &mut rng)).collect();
    // Stress duplicate handling: a repeated child and a pool clone.
    children.push(children[0].clone());
    children.push(pool[0].clone());

    // Exhaustive path: rank everything with an independent evaluator.
    let pool_reports = exhaustive.evaluate_all(&pool);
    let child_reports = exhaustive.evaluate_all(&children);
    let expected = select(
        pool.iter()
            .cloned()
            .zip(pool_reports.iter().copied())
            .chain(children.iter().cloned().zip(child_reports.iter().copied()))
            .collect(),
        keep,
    );

    // Adaptive path, mirroring `Evolution::run_seeded`.
    let inc_reports = adaptive.evaluate_all(&pool);
    assert_eq!(inc_reports, pool_reports, "{kind} seed {seed}: exact reports must agree");
    let pool_digits: HashSet<String> = pool.iter().map(Genome::to_digits).collect();
    let mut inc_seen = HashSet::new();
    let incumbents: Vec<f64> = pool
        .iter()
        .zip(&inc_reports)
        .filter(|(g, _)| inc_seen.insert(g.to_digits()))
        .map(|(_, r)| r.fitness)
        .collect();
    let fresh: Vec<Genome> =
        children.iter().filter(|c| !pool_digits.contains(&c.to_digits())).cloned().collect();
    let verdicts = adaptive.evaluate_selection(&fresh, keep, &incumbents);

    let mut union: Vec<(Genome, FitnessReport)> =
        pool.into_iter().zip(inc_reports).collect();
    let mut pruned_digits = Vec::new();
    for (g, v) in fresh.iter().zip(&verdicts) {
        match v {
            GenomeEval::Exact(r) => union.push((g.clone(), *r)),
            GenomeEval::Pruned(bound) => {
                assert!(
                    bound.lower <= bound.upper,
                    "{kind} seed {seed}: bound inverted {bound:?}"
                );
                pruned_digits.push(g.to_digits());
            }
        }
    }
    let actual = select(union, keep);

    assert_eq!(actual, expected, "{kind} seed {seed}: selection must be identical");
    let survivors: HashSet<&String> = expected.iter().map(|(d, _)| d).collect();
    for d in &pruned_digits {
        assert!(
            !survivors.contains(d),
            "{kind} seed {seed}: pruned genome survived exhaustive selection"
        );
    }
    pruned_digits.len()
}

#[test]
fn pruned_selection_is_identical_to_exhaustive_selection() {
    let mut pruned_total = 0;
    for kind in [GridKind::Square, GridKind::Triangulate] {
        for seed in 0..30 {
            pruned_total += check_population(kind, seed, 8 + (seed as usize % 5), 2);
        }
    }
    // The equality assertions above are vacuous for the pruning logic
    // unless the pruned arm actually fires somewhere in the sweep.
    assert!(pruned_total > 0, "no population exercised the pruning path");
}

#[test]
fn selection_pieces_spanning_several_ranges_match_exhaustive_selection() {
    // 300+ configurations: the later selection blocks (and every
    // `evaluate_all`) cut each genome's block into several
    // `DISPATCH_BLOCK` pieces that 3 threads share across genomes.
    let mut pruned_total = 0;
    for kind in [GridKind::Square, GridKind::Triangulate] {
        for seed in 0..3 {
            let n_random = 300 + 41 * seed as usize;
            assert!(n_random / 4 > DISPATCH_BLOCK, "a doubling block spans several ranges");
            pruned_total += check_population(kind, seed, n_random, 3);
        }
    }
    assert!(pruned_total > 0, "no population exercised the pruning path");
}

#[test]
fn evolved_pool_reports_match_a_fresh_evaluator() {
    // End-to-end spot check: after a full evolution run through the
    // adaptive pipeline, every surviving individual's stored report is
    // reproduced exactly by an untouched evaluator.
    for kind in [GridKind::Square, GridKind::Triangulate] {
        let cfg = WorldConfig::paper(kind, 8);
        let configs = paper_config_set(cfg.lattice, kind, 4, 8, 17).unwrap();
        let evaluator =
            Evaluator::new(cfg.clone(), configs.clone()).with_t_max(80).with_threads(2);
        let outcome = Evolution::new(
            FsmSpec::paper(kind),
            evaluator,
            GaConfig { population: 6, exchange_b: 1, ..GaConfig::paper(6, 23) },
        )
        .run(|_| ());
        let fresh = Evaluator::new(cfg, configs).with_t_max(80).with_threads(1);
        for ind in &outcome.pool {
            assert_eq!(
                fresh.evaluate(&ind.genome),
                ind.report,
                "{kind}: pool report drifted from a fresh evaluation"
            );
        }
    }
}

#[test]
fn cached_epochs_match_an_independent_fold_over_the_oracle() {
    // Island-style epoch re-ranks: the same population evaluated three
    // times through one evaluator. Every epoch must report exactly the
    // paper's fold over reference-`World` outcomes, and epochs 2 and 3
    // must come from the cache.
    for kind in [GridKind::Square, GridKind::Triangulate] {
        let cfg = WorldConfig::paper(kind, 8);
        // 9 random placements plus the 3 manual hard cases.
        let configs = paper_config_set(cfg.lattice, kind, 6, 9, 0xF17).unwrap();
        assert_eq!(configs.len(), 12);
        let mut rng = SmallRng::seed_from_u64(0xF17_BE5);
        let elite = best_agent(kind);
        let mut genomes = vec![elite.clone()];
        for _ in 0..3 {
            genomes.push(offspring(&elite, MutationRates::uniform(0.05), &mut rng));
        }
        for _ in 0..2 {
            genomes.push(Genome::random(FsmSpec::paper(kind), &mut rng));
        }

        let expected: Vec<FitnessReport> = genomes
            .iter()
            .map(|genome| {
                let outcomes: Vec<_> = configs
                    .iter()
                    .map(|init| simulate(&cfg, genome.clone(), init, 120).unwrap())
                    .collect();
                let successes = outcomes.iter().filter(|o| o.is_successful()).count();
                let t_sum: u64 = outcomes.iter().filter_map(|o| o.t_comm.map(u64::from)).sum();
                FitnessReport {
                    fitness: outcomes.iter().map(|o| o.fitness(PAPER_WEIGHT)).sum::<f64>()
                        / outcomes.len() as f64,
                    successes,
                    total: outcomes.len(),
                    mean_t_comm: (successes > 0).then(|| t_sum as f64 / successes as f64),
                }
            })
            .collect();

        let evaluator = Evaluator::new(cfg, configs).with_t_max(120).with_threads(2);
        let mut hits = evaluator.cache().hits();
        for epoch in 1..=3 {
            assert_eq!(evaluator.evaluate_all(&genomes), expected, "{kind} epoch {epoch}");
            let now = evaluator.cache().hits();
            if epoch > 1 {
                assert!(now > hits, "{kind} epoch {epoch}: re-rank missed the cache");
            }
            hits = now;
        }
    }
}
