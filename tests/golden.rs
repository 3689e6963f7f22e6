//! Golden-fixture regression for the published agents' exact `t_comm`
//! values, across densities and field sizes.
//!
//! `tests/fixtures/golden_tcomm.json` stores two sections:
//!
//! * the **density sweep** — for each grid family and
//!   `k ∈ {4, 16, 64, 128, 256}` on the paper's 16×16 torus, the
//!   communication times of 32 fixed seeded placements (`k > 64`
//!   exercises the multi-word infoset path in every engine);
//! * the **big fields** — `M ∈ {64, 512, 1024}` with `k = 16` agents
//!   and 4 seeds each, recording `(t_comm | -1, informed)` under a
//!   short horizon: at these sparsities the task is deliberately not
//!   finishable in the budget, so the pinned value is the exact
//!   partial progress, which is just as sensitive to semantic drift.
//!
//! Every path must reproduce every value exactly: the one-run kernel
//! path (`outcome_for`) and the reference `World` for the sweep, and
//! both batch exchange modes — the frontier `run_all` and the dense
//! `run_all_multi_dense` — for both sections. The fixture also pins the
//! paper's density observation that `k = 4` is the slowest sampled
//! density.
//!
//! Regenerate after an *intended* semantics change with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p a2a --test golden
//! ```

use a2a_fsm::best_agent;
use a2a_grid::GridKind;
use a2a_sim::{simulate, BatchRunner, InitialConfig, RunOutcome, WorldConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt::Write as _;

const FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/golden_tcomm.json");
const FIELD: u16 = 16;
const AGENT_COUNTS: [usize; 5] = [4, 16, 64, 128, 256];
const SEEDS: u64 = 32;
const T_MAX: u32 = 5000;
const KINDS: [GridKind; 2] = [GridKind::Square, GridKind::Triangulate];

/// Big-field section: M ∈ {64, 512, 1024}, a few seeds under a short
/// horizon, partial progress pinned exactly.
const BIG_FIELDS: [u16; 3] = [64, 512, 1024];
const BIG_K: usize = 16;
const BIG_SEEDS: u64 = 4;
const BIG_T_MAX: u32 = 4096;

fn kind_label(kind: GridKind) -> &'static str {
    match kind {
        GridKind::Square => "S",
        GridKind::Triangulate => "T",
    }
}

/// The fixed placement stream: one fresh rng per (kind-independent) seed.
fn placement(kind: GridKind, m: u16, k: usize, seed: u64) -> InitialConfig {
    let cfg = WorldConfig::paper(kind, m);
    let mut rng = SmallRng::seed_from_u64(seed);
    InitialConfig::random(cfg.lattice, kind, k, &[], &mut rng).unwrap()
}

/// Kernel-side times for one (kind, k) cell of the density sweep.
fn kernel_times(kind: GridKind, k: usize) -> Vec<u32> {
    let cfg = WorldConfig::paper(kind, FIELD);
    let runner = BatchRunner::from_genome(&cfg, best_agent(kind), T_MAX).unwrap();
    (0..SEEDS)
        .map(|seed| {
            runner
                .outcome_for(&placement(kind, FIELD, k, seed))
                .unwrap()
                .t_comm
                .expect("published agents solve every golden sweep scenario")
        })
        .collect()
}

/// One big-field cell as `(t_comm | -1, informed)` pairs, computed on
/// the batch path (the dense mode is asserted equal in the fixture
/// test).
fn big_field_records(kind: GridKind, m: u16) -> Vec<(i64, usize)> {
    let cfg = WorldConfig::paper(kind, m);
    let runner = BatchRunner::from_genome(&cfg, best_agent(kind), BIG_T_MAX).unwrap();
    let inits: Vec<InitialConfig> =
        (0..BIG_SEEDS).map(|seed| placement(kind, m, BIG_K, seed)).collect();
    runner
        .run_all(&inits)
        .unwrap()
        .into_iter()
        .map(|o| (o.t_comm.map_or(-1, i64::from), o.informed))
        .collect()
}

fn compute_sweep() -> Vec<(GridKind, usize, Vec<u32>)> {
    KINDS
        .iter()
        .flat_map(|&kind| AGENT_COUNTS.iter().map(move |&k| (kind, k, kernel_times(kind, k))))
        .collect()
}

/// One big-field series: grid kind, field edge, per-config
/// `(fitness, informed)` records.
type BigFieldSeries = (GridKind, u16, Vec<(i64, usize)>);

fn compute_big_fields() -> Vec<BigFieldSeries> {
    KINDS
        .iter()
        .flat_map(|&kind| BIG_FIELDS.iter().map(move |&m| (kind, m, big_field_records(kind, m))))
        .collect()
}

fn render_fixture(
    sweep: &[(GridKind, usize, Vec<u32>)],
    big: &[BigFieldSeries],
) -> String {
    let mut out = String::from("{\n");
    writeln!(out, "  \"field\": {FIELD},").unwrap();
    writeln!(out, "  \"seeds\": {SEEDS},").unwrap();
    writeln!(out, "  \"t_max\": {T_MAX},").unwrap();
    out.push_str("  \"entries\": [\n");
    for (i, (kind, k, times)) in sweep.iter().enumerate() {
        let list = times.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ");
        let comma = if i + 1 == sweep.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"kind\": \"{}\", \"k\": {k}, \"t_comm\": [{list}]}}{comma}",
            kind_label(*kind)
        )
        .unwrap();
    }
    out.push_str("  ],\n");
    out.push_str("  \"big_fields\": {\n");
    writeln!(out, "    \"k\": {BIG_K},").unwrap();
    writeln!(out, "    \"seeds\": {BIG_SEEDS},").unwrap();
    writeln!(out, "    \"t_max\": {BIG_T_MAX},").unwrap();
    out.push_str("    \"entries\": [\n");
    for (i, (kind, m, records)) in big.iter().enumerate() {
        let times = records.iter().map(|(t, _)| t.to_string()).collect::<Vec<_>>().join(", ");
        let informed =
            records.iter().map(|(_, n)| n.to_string()).collect::<Vec<_>>().join(", ");
        let comma = if i + 1 == big.len() { "" } else { "," };
        writeln!(
            out,
            "      {{\"kind\": \"{}\", \"m\": {m}, \"t_comm\": [{times}], \"informed\": [{informed}]}}{comma}",
            kind_label(*kind)
        )
        .unwrap();
    }
    out.push_str("    ]\n  }\n}\n");
    out
}

/// Scans one `"name": [v, v, ...]` list of integers out of `text`.
fn scan_list<T: std::str::FromStr>(text: &str, name: &str) -> Vec<T>
where
    T::Err: std::fmt::Debug,
{
    let tag = format!("\"{name}\": [");
    let at = text.find(&tag).unwrap_or_else(|| panic!("entry without {name}")) + tag.len();
    let end = at + text[at..].find(']').expect("unterminated list");
    text[at..end]
        .split(',')
        .map(|s| s.trim().parse().expect("list values are numbers"))
        .collect()
}

/// Minimal scanning parser for the fixture's fixed shape (the workspace
/// deliberately has no JSON dependency): the density-sweep entries and
/// the big-field entries, split at the `big_fields` key.
#[allow(clippy::type_complexity)]
fn parse_fixture(
    text: &str,
) -> (Vec<(String, usize, Vec<u32>)>, Vec<(String, u16, Vec<i64>, Vec<usize>)>) {
    let split = text.find("\"big_fields\"").expect("fixture without big_fields section");
    let (sweep_text, big_text) = text.split_at(split);

    let mut sweep = Vec::new();
    let mut cursor = 0;
    while let Some(at) = sweep_text[cursor..].find("\"kind\":") {
        let rest = &sweep_text[cursor + at..];
        let q1 = "\"kind\": \"".len();
        let q2 = q1 + rest[q1..].find('"').expect("unterminated kind string");
        let kind = rest[q1..q2].to_string();
        let kpos = rest.find("\"k\":").expect("entry without k") + "\"k\":".len();
        let kend = kpos + rest[kpos..].find(',').expect("unterminated k");
        let k: usize = rest[kpos..kend].trim().parse().expect("k is a number");
        sweep.push((kind, k, scan_list(rest, "t_comm")));
        cursor += at + kend;
    }

    let mut big = Vec::new();
    let mut cursor = 0;
    while let Some(at) = big_text[cursor..].find("\"kind\":") {
        let rest = &big_text[cursor + at..];
        let q1 = "\"kind\": \"".len();
        let q2 = q1 + rest[q1..].find('"').expect("unterminated kind string");
        let kind = rest[q1..q2].to_string();
        let mpos = rest.find("\"m\":").expect("entry without m") + "\"m\":".len();
        let mend = mpos + rest[mpos..].find(',').expect("unterminated m");
        let m: u16 = rest[mpos..mend].trim().parse().expect("m is a number");
        big.push((kind, m, scan_list(rest, "t_comm"), scan_list(rest, "informed")));
        cursor += at + mend;
    }
    (sweep, big)
}

#[allow(clippy::type_complexity)]
fn load_fixture() -> (Vec<(String, usize, Vec<u32>)>, Vec<(String, u16, Vec<i64>, Vec<usize>)>) {
    let text = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing — regenerate with GOLDEN_REGEN=1 cargo test -p a2a --test golden");
    parse_fixture(&text)
}

#[test]
fn golden_fixture_matches_both_engines() {
    let computed = compute_sweep();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(FIXTURE, render_fixture(&computed, &compute_big_fields())).unwrap();
    }
    let (golden, _) = load_fixture();
    assert_eq!(golden.len(), KINDS.len() * AGENT_COUNTS.len(), "fixture shape changed");
    for ((kind, k, fast), (gkind, gk, gtimes)) in computed.iter().zip(&golden) {
        assert_eq!(kind_label(*kind), gkind, "fixture entry order changed");
        assert_eq!(k, gk, "fixture entry order changed");
        assert_eq!(gtimes.len(), SEEDS as usize, "{gkind} k={gk}: seed count changed");
        assert_eq!(fast, gtimes, "{gkind} k={gk}: kernel diverged from golden times");
    }
    // The reference oracle reproduces the fixture independently.
    for (kind, k, gtimes) in KINDS
        .iter()
        .flat_map(|&kind| AGENT_COUNTS.iter().map(move |&k| (kind, k)))
        .zip(&golden)
        .map(|((kind, k), g)| (kind, k, &g.2))
    {
        let cfg = WorldConfig::paper(kind, FIELD);
        for (seed, &expect) in gtimes.iter().enumerate() {
            let init = placement(kind, FIELD, k, seed as u64);
            let got = simulate(&cfg, best_agent(kind), &init, T_MAX).unwrap().t_comm;
            assert_eq!(
                got,
                Some(expect),
                "oracle diverged from golden at {} k={k} seed={seed}",
                kind_label(kind)
            );
        }
    }
}

#[test]
fn golden_fixture_matches_batch_engines() {
    // Both exchange modes of the lockstep batch path reproduce every
    // sweep time through the chunked whole-batch API (all 32
    // placements of a cell in one call), pinning the frontier and
    // dense sweeps to the same semantics.
    let (golden, _) = load_fixture();
    for ((kind, k), (gkind, gk, gtimes)) in KINDS
        .iter()
        .flat_map(|&kind| AGENT_COUNTS.iter().map(move |&k| (kind, k)))
        .zip(&golden)
    {
        assert_eq!(kind_label(kind), gkind, "fixture entry order changed");
        assert_eq!(k, *gk, "fixture entry order changed");
        let cfg = WorldConfig::paper(kind, FIELD);
        let runner = BatchRunner::from_genome(&cfg, best_agent(kind), T_MAX).unwrap();
        let inits: Vec<InitialConfig> =
            (0..SEEDS).map(|seed| placement(kind, FIELD, k, seed)).collect();
        for (engine, outcomes) in [
            ("frontier", runner.run_all(&inits).unwrap()),
            ("dense", runner.run_all_multi_dense(&inits).unwrap()),
        ] {
            let times: Vec<u32> = outcomes
                .into_iter()
                .map(|o| o.t_comm.expect("published agents solve every golden sweep scenario"))
                .collect();
            assert_eq!(
                &times, gtimes,
                "{gkind} k={gk}: {engine} kernel diverged from golden times"
            );
        }
    }
}

#[test]
fn golden_big_fields_match_batch_engines() {
    // M up to 1024: exact partial progress under the short horizon,
    // identical in the frontier and dense exchange modes.
    let (_, golden) = load_fixture();
    assert_eq!(golden.len(), KINDS.len() * BIG_FIELDS.len(), "big-field shape changed");
    for ((kind, m), (gkind, gm, gtimes, ginformed)) in KINDS
        .iter()
        .flat_map(|&kind| BIG_FIELDS.iter().map(move |&m| (kind, m)))
        .zip(&golden)
    {
        assert_eq!(kind_label(kind), gkind, "big-field entry order changed");
        assert_eq!(m, *gm, "big-field entry order changed");
        let cfg = WorldConfig::paper(kind, m);
        let runner = BatchRunner::from_genome(&cfg, best_agent(kind), BIG_T_MAX).unwrap();
        let inits: Vec<InitialConfig> =
            (0..BIG_SEEDS).map(|seed| placement(kind, m, BIG_K, seed)).collect();
        for (engine, outcomes) in [
            ("frontier", runner.run_all(&inits).unwrap()),
            ("dense", runner.run_all_multi_dense(&inits).unwrap()),
        ] {
            let got: Vec<(i64, usize)> = outcomes
                .iter()
                .map(|o: &RunOutcome| (o.t_comm.map_or(-1, i64::from), o.informed))
                .collect();
            let want: Vec<(i64, usize)> =
                gtimes.iter().copied().zip(ginformed.iter().copied()).collect();
            assert_eq!(got, want, "{gkind} M={gm}: {engine} diverged from golden records");
        }
    }
}

#[test]
fn low_density_is_slowest_in_fixture() {
    // Table 1's non-monotone density curve: the sparse k = 4 row is the
    // slowest sampled density in both grids.
    let (golden, _) = load_fixture();
    for kind in ["S", "T"] {
        let mean = |k: usize| -> f64 {
            let (_, _, times) = golden
                .iter()
                .find(|(g, gk, _)| g == kind && *gk == k)
                .unwrap_or_else(|| panic!("fixture misses {kind} k={k}"));
            f64::from(times.iter().sum::<u32>()) / times.len() as f64
        };
        for denser in &AGENT_COUNTS[1..] {
            assert!(mean(4) > mean(*denser), "{kind}: k=4 not slower than k={denser}");
        }
    }
}
