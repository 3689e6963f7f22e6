//! Property tests: histogram merge algebra, JSONL round-trips, and
//! the totality of the JSON parser and the flight-dump reader on
//! arbitrary or damaged input.

use a2a_obs::flight::{self, Kind};
use a2a_obs::json::{parse, Json, MAX_DEPTH};
use a2a_obs::{Event, HistogramSnapshot, Level, Value};
use proptest::collection;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::sync::OnceLock;

/// Samples spanning the first 32 log buckets (the realistic range of
/// step counts and microsecond timings; JSON numbers are `f64`, so
/// sums must stay inside the exactly-representable 2⁵³ range).
fn samples(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let magnitude = rng.random_range(32..64u32);
            rng.random_range(0..=u64::MAX) >> magnitude
        })
        .collect()
}

fn hist_of(values: &[u64]) -> HistogramSnapshot {
    let mut h = HistogramSnapshot::default();
    for &v in values {
        h.record(v);
    }
    h
}

/// Bytes JSON text is made of, so mapped inputs reach deep parser
/// states (nesting, escapes, numbers) that uniform bytes rarely do.
const JSON_ALPHABET: &[u8] = b"[]{}\",:\\/ \n-+.eE0123456789truefalsnlbu\xc3\xa9";

/// A string over characters the writer must escape or pass through:
/// quotes, backslashes, every control character, non-ASCII and astral.
fn text(rng: &mut SmallRng) -> String {
    const SPECIAL: [char; 8] = ['"', '\\', '\u{7f}', 'é', '€', '😀', '\u{fffd}', '\u{2028}'];
    (0..rng.random_range(0..12usize))
        .map(|_| match rng.random_range(0..3u8) {
            0 => char::from(rng.random_range(0x20..0x7fu8)),
            1 => char::from(rng.random_range(0..0x20u8)),
            _ => SPECIAL[rng.random_range(0..SPECIAL.len())],
        })
        .collect()
}

/// A finite number in one of the writer's two forms: integral values
/// below 2⁵³ print as integers, everything else as the shortest
/// round-trip float.
fn number(rng: &mut SmallRng) -> f64 {
    let sign = if rng.random_range(0..2u8) == 0 { 1.0 } else { -1.0 };
    sign * match rng.random_range(0..3u8) {
        0 => (rng.random_range(0..=u64::MAX) >> rng.random_range(11..64u32)) as f64,
        1 => f64::from(rng.random_range(0..1u32 << 20)) / 64.0,
        _ => loop {
            let v = f64::from_bits(rng.random_range(0..=u64::MAX));
            if v.is_finite() {
                break v.abs();
            }
        },
    }
}

/// A random tree nested exactly `depth` containers deep along one
/// spine, with shallower random subtrees beside it.
fn tree(rng: &mut SmallRng, depth: usize) -> Json {
    if depth == 0 {
        return match rng.random_range(0..4u8) {
            0 => Json::Null,
            1 => Json::Bool(rng.random_range(0..2u8) == 1),
            2 => Json::Num(number(rng)),
            _ => Json::Str(text(rng)),
        };
    }
    let sides = rng.random_range(0..3usize);
    let spine_at = rng.random_range(0..=sides);
    let children: Vec<Json> = (0..=sides)
        .map(|i| {
            let child_depth =
                if i == spine_at { depth - 1 } else { rng.random_range(0..depth.min(3)) };
            tree(rng, child_depth)
        })
        .collect();
    if rng.random_range(0..2u8) == 0 {
        Json::Arr(children)
    } else {
        let keyed = children.into_iter().enumerate();
        Json::Obj(keyed.map(|(i, v)| (format!("{i}{}", text(rng)), v)).collect())
    }
}

/// A real flight-recorder dump with one record of every kind, which
/// the dump reader accepts as written.
fn flight_dump() -> &'static str {
    static DUMP: OnceLock<String> = OnceLock::new();
    DUMP.get_or_init(|| {
        flight::enable();
        let kinds = [Kind::Event, Kind::SpanEnter, Kind::SpanExit, Kind::Fault, Kind::Mark];
        for (i, kind) in kinds.into_iter().enumerate() {
            flight::record(kind, "prop.flight", i as u64, u64::MAX - i as u64);
        }
        let dump = flight::dump_string("totality");
        flight::read_dump(&dump).expect("a pristine dump reads");
        dump
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes (lossy UTF-8) — raw, mapped onto JSON's own
    /// alphabet, or behind nesting far past the limit — parse to `Ok` or
    /// `Err`: never a panic, never a stack overflow.
    #[test]
    fn parse_is_total_on_arbitrary_bytes(bytes in collection::vec(any::<u8>(), 0..2048)) {
        let raw = String::from_utf8_lossy(&bytes);
        let mapped: Vec<u8> =
            bytes.iter().map(|b| JSON_ALPHABET[usize::from(*b) % JSON_ALPHABET.len()]).collect();
        let mapped = String::from_utf8_lossy(&mapped);
        for text in [&raw, &mapped] {
            let _ = parse(text);
            let _ = flight::read_dump(text);
        }
        let _ = parse(&format!("{}{mapped}", "[".repeat(64 * bytes.len())));
    }

    /// A real flight dump torn at a random byte (a crash mid-write) or
    /// with one byte flipped reads as `Ok` or `Err` through the dump
    /// reader: never a panic.
    #[test]
    fn damaged_flight_dumps_never_panic_the_readers(seed in any::<u64>(), tear in any::<bool>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut bytes = flight_dump().as_bytes().to_vec();
        if tear {
            bytes.truncate(rng.random_range(0..bytes.len()));
        } else {
            let at = rng.random_range(0..bytes.len());
            bytes[at] ^= rng.random_range(1..=255u8);
        }
        let text = String::from_utf8_lossy(&bytes);
        let _ = flight::read_dump(&text);
    }

    /// Rendering is canonical: parsing a rendered tree (nested up to
    /// the parser's limit) gives the tree back, and rendering that
    /// gives the same text.
    #[test]
    fn render_then_parse_is_the_identity(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let depth = rng.random_range(0..=MAX_DEPTH);
        let doc = tree(&mut rng, depth);
        let text = doc.to_string();
        let back = parse(&text);
        prop_assert_eq!(back.as_ref(), Ok(&doc), "depth {}: {}", depth, text);
        prop_assert_eq!(back.unwrap().to_string(), text);
    }

    /// (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c): merging is associative, so
    /// per-worker partial histograms can be combined in any join order.
    #[test]
    fn histogram_merge_is_associative(sa in any::<u64>(), sb in any::<u64>(), sc in any::<u64>(),
                                      na in 0usize..50, nb in 0usize..50, nc in 0usize..50) {
        let (a, b, c) = (hist_of(&samples(sa, na)), hist_of(&samples(sb, nb)), hist_of(&samples(sc, nc)));

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        prop_assert_eq!(left, right);
    }

    /// a ⊔ b == b ⊔ a and the empty snapshot is the identity.
    #[test]
    fn histogram_merge_is_commutative_with_identity(sa in any::<u64>(), sb in any::<u64>(),
                                                    na in 0usize..50, nb in 0usize..50) {
        let (a, b) = (hist_of(&samples(sa, na)), hist_of(&samples(sb, nb)));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        let mut with_identity = a.clone();
        with_identity.merge(&HistogramSnapshot::default());
        prop_assert_eq!(with_identity, a);
    }

    /// Merging equals recording the concatenated sample stream.
    #[test]
    fn merge_equals_concatenation(sa in any::<u64>(), sb in any::<u64>(),
                                  na in 0usize..50, nb in 0usize..50) {
        let (va, vb) = (samples(sa, na), samples(sb, nb));
        let mut merged = hist_of(&va);
        merged.merge(&hist_of(&vb));
        let mut concat = va.clone();
        concat.extend(&vb);
        prop_assert_eq!(merged, hist_of(&concat));
    }

    /// Histogram JSON export parses back to the identical snapshot.
    #[test]
    fn histogram_json_round_trips(seed in any::<u64>(), n in 0usize..80) {
        let h = hist_of(&samples(seed, n));
        let parsed = parse(&h.to_json().to_string()).unwrap();
        prop_assert_eq!(HistogramSnapshot::from_json(&parsed).unwrap(), h);
    }

    /// The `p50`/`p90`/`p99` accessors land within a factor of two of
    /// a true sample at that rank — the bucket-resolution error bound
    /// of a power-of-two histogram. The rank-`r` sample sits in bucket
    /// `[lo, 2·lo)`; the estimate is the bucket's geometric midpoint
    /// (off by ≤ √2) truncated to an integer and clamped into
    /// `[min, max]`, both of which only move it *toward* the sample —
    /// so `est ∈ [s/2, 2·s]` with `s = 0` estimated exactly.
    #[test]
    fn quantile_accessors_bound_relative_error(seed in any::<u64>(), n in 1usize..200) {
        let values = samples(seed, n);
        let h = hist_of(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for (q, est) in [(0.50, h.p50()), (0.90, h.p90()), (0.99, h.p99())] {
            // Same rank arithmetic as `quantile`: buckets partition the
            // value axis in order, so the first bucket whose cumulative
            // count reaches `rank` is the bucket of the rank-th
            // smallest sample.
            let rank = ((q * n as f64).ceil() as usize).max(1);
            let s = sorted[rank - 1];
            if s == 0 {
                prop_assert_eq!(est, 0, "q={} of {:?}", q, sorted);
            } else {
                prop_assert!(
                    est >= s / 2 && est <= s.saturating_mul(2),
                    "q={}: estimate {} outside [{}, {}] around sample {}",
                    q, est, s / 2, s.saturating_mul(2), s
                );
            }
        }
        // Quantiles are monotone in q.
        prop_assert!(h.p50() <= h.p90() && h.p90() <= h.p99());
    }

    /// Every event the sink would write validates against the schema
    /// and round-trips through the JSON parser.
    #[test]
    fn event_lines_round_trip(seed in any::<u64>(), n_fields in 0usize..6) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut e = Event::new(Level::Info, "prop.event");
        if rng.random_range(0..2u8) == 1 {
            e.worker = Some(rng.random_range(0..64usize));
        }
        const KEYS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];
        for (i, key) in KEYS.iter().enumerate().take(n_fields) {
            let v = match i % 4 {
                0 => Value::U64(rng.random_range(0..=u64::MAX)),
                1 => Value::F64(f64::from(rng.random_range(0..1000u32)) / 8.0),
                2 => Value::Bool(rng.random_range(0..2u8) == 1),
                _ => Value::Str(format!("s{}\n\"quoted\"", rng.random_range(0..100u32))),
            };
            e.fields.push((key, v));
        }
        let line = e.to_json().to_string();
        prop_assert!(a2a_obs::schema::validate_event_line(&line).is_ok(), "{}", line);
        let doc = parse(&line).unwrap();
        prop_assert_eq!(doc.get("event").and_then(Json::as_str), Some("prop.event"));
        let fields = doc.get("fields").unwrap().as_obj().unwrap();
        prop_assert_eq!(fields.len(), n_fields);
    }
}
