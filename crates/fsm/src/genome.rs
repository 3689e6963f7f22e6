//! The FSM genome: the concatenation of (nextstate, action) pairs over all
//! (input, state) combinations — "the genome of one individual, a possible
//! solution" (Sect. 4, Fig. 3).

use crate::action::Action;
use crate::percept::Percept;
use crate::spec::FsmSpec;
use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One genome entry: the FSM's response to one (input, state) combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Entry {
    /// Next control state `s'`.
    pub next_state: u8,
    /// Output action `y = (move, turn, setcolor)`.
    pub action: Action,
}

/// A complete Mealy-FSM behaviour: the agent's "algorithm".
///
/// Lookup is by Fig. 3's flat index `i = x·|s| + s`; the table is dense, so
/// every perception/state pair has a defined response.
///
/// # Examples
///
/// ```
/// use a2a_fsm::{Genome, FsmSpec, Percept};
/// use a2a_grid::GridKind;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let spec = FsmSpec::paper(GridKind::Square);
/// let mut rng = SmallRng::seed_from_u64(7);
/// let g = Genome::random(spec, &mut rng);
/// let entry = g.lookup(Percept::new(false, 0, 0), 0);
/// assert!(entry.next_state < spec.n_states);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Genome {
    spec: FsmSpec,
    entries: Vec<Entry>,
}

impl Genome {
    /// Builds a genome from explicit entries in flat index order.
    ///
    /// # Panics
    ///
    /// Panics if the entry count does not match `spec.entry_count()` or an
    /// entry references an out-of-range state, colour or turn code.
    #[must_use]
    pub fn from_entries(spec: FsmSpec, entries: Vec<Entry>) -> Self {
        assert_eq!(
            entries.len(),
            spec.entry_count(),
            "genome must have exactly {} entries",
            spec.entry_count()
        );
        for (i, e) in entries.iter().enumerate() {
            assert!(e.next_state < spec.n_states, "entry {i}: bad next state");
            assert!(e.action.set_color < spec.n_colors, "entry {i}: bad colour");
            assert!(
                e.action.turn < spec.turn_set.cardinality(),
                "entry {i}: bad turn code"
            );
        }
        Self { spec, entries }
    }

    /// Builds a genome from per-input rows in the paper's table layout:
    /// for every input `x`, the four arrays give `nextstate`, `setcolor`,
    /// `move` and `turn` per state (exactly the digit rows of Fig. 3/4).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Genome::from_entries`], or if
    /// row counts do not match the spec.
    #[must_use]
    pub fn from_rows(spec: FsmSpec, rows: &[TableRow]) -> Self {
        assert_eq!(rows.len(), spec.input_count(), "one row per input value");
        let states = usize::from(spec.n_states);
        let mut entries = Vec::with_capacity(spec.entry_count());
        for row in rows {
            assert!(
                row.next_state.len() == states
                    && row.set_color.len() == states
                    && row.mv.len() == states
                    && row.turn.len() == states,
                "each row needs one digit per state"
            );
            for s in 0..states {
                entries.push(Entry {
                    next_state: row.next_state[s],
                    action: Action {
                        turn: row.turn[s],
                        mv: row.mv[s] != 0,
                        set_color: row.set_color[s],
                    },
                });
            }
        }
        Self::from_entries(spec, entries)
    }

    /// A uniformly random genome (initial GA population, Sect. 4).
    #[must_use]
    pub fn random<R: Rng + ?Sized>(spec: FsmSpec, rng: &mut R) -> Self {
        let entries = (0..spec.entry_count())
            .map(|_| Entry {
                next_state: rng.random_range(0..spec.n_states),
                action: Action {
                    turn: rng.random_range(0..spec.turn_set.cardinality()),
                    mv: rng.random_bool(0.5),
                    set_color: rng.random_range(0..spec.n_colors),
                },
            })
            .collect();
        Self { spec, entries }
    }

    /// The structural parameters of this genome.
    #[must_use]
    pub fn spec(&self) -> FsmSpec {
        self.spec
    }

    /// The FSM's response for a perception and control state.
    ///
    /// # Panics
    ///
    /// Panics if `state ≥ spec.n_states` or the percept's colours exceed
    /// the spec's colour count.
    #[must_use]
    pub fn lookup(&self, percept: Percept, state: u8) -> Entry {
        let x = percept.encode(self.spec.n_colors);
        self.entries[self.spec.entry_index(x, state)]
    }

    /// Entry at a flat genome index (Fig. 3's `i`).
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ spec.entry_count()`.
    #[must_use]
    pub fn entry(&self, i: usize) -> Entry {
        self.entries[i]
    }

    /// Mutable entry access for mutation operators.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ spec.entry_count()`.
    #[must_use]
    pub fn entry_mut(&mut self, i: usize) -> &mut Entry {
        &mut self.entries[i]
    }

    /// All entries in flat index order.
    #[must_use]
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Serialises the genome as a flat digit string (4 digits per entry:
    /// nextstate, setcolor, move, turn), a compact reproducible format for
    /// logs and EXPERIMENTS.md.
    ///
    /// A value ≥ 10 (possible only in custom specs) is written in
    /// decimal, as `Display` writes it.
    #[must_use]
    pub fn to_digits(&self) -> String {
        fn push_decimal(s: &mut String, v: u8) {
            if v >= 100 {
                s.push(char::from(b'0' + v / 100));
            }
            if v >= 10 {
                s.push(char::from(b'0' + v / 10 % 10));
            }
            s.push(char::from(b'0' + v % 10));
        }
        let mut s = String::with_capacity(self.entries.len() * 4);
        for e in &self.entries {
            for v in [e.next_state, e.action.set_color, u8::from(e.action.mv), e.action.turn] {
                push_decimal(&mut s, v);
            }
        }
        s
    }

    /// Parses a digit string produced by [`Genome::to_digits`].
    ///
    /// Returns `None` if the length or any digit is inconsistent with
    /// `spec`.
    #[must_use]
    pub fn from_digits(spec: FsmSpec, digits: &str) -> Option<Self> {
        let d: Vec<u8> = digits
            .chars()
            .map(|c| c.to_digit(10).map(|v| v as u8))
            .collect::<Option<_>>()?;
        if d.len() != spec.entry_count() * 4 {
            return None;
        }
        let entries: Vec<Entry> = d
            .chunks_exact(4)
            .map(|c| Entry {
                next_state: c[0],
                action: Action { set_color: c[1], mv: c[2] != 0, turn: c[3] },
            })
            .collect();
        let ok = entries.iter().all(|e| {
            e.next_state < spec.n_states
                && e.action.set_color < spec.n_colors
                && e.action.turn < spec.turn_set.cardinality()
        });
        ok.then_some(Self { spec, entries })
    }
}

/// One per-input row of a paper-style state table (Fig. 3/4), used with
/// [`Genome::from_rows`]. Each field holds one digit per control state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRow {
    /// `nextstate` digits per state.
    pub next_state: Vec<u8>,
    /// `setcolor` digits per state.
    pub set_color: Vec<u8>,
    /// `move` digits per state.
    pub mv: Vec<u8>,
    /// `turn` digits per state.
    pub turn: Vec<u8>,
}

impl TableRow {
    /// Builds a row from the four digit strings as printed in the paper,
    /// e.g. `TableRow::from_digits("2311", "1100", "1101", "3010")`.
    ///
    /// # Panics
    ///
    /// Panics if any character is not a digit.
    #[must_use]
    pub fn from_digits(next_state: &str, set_color: &str, mv: &str, turn: &str) -> Self {
        let parse = |s: &str| -> Vec<u8> {
            s.chars()
                .map(|c| c.to_digit(10).expect("table rows are decimal digits") as u8)
                .collect()
        };
        Self {
            next_state: parse(next_state),
            set_color: parse(set_color),
            mv: parse(mv),
            turn: parse(turn),
        }
    }
}

impl fmt::Display for Genome {
    /// Renders the genome as a paper-style state table (Fig. 3/4 layout).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let spec = self.spec;
        let states = usize::from(spec.n_states);
        write!(f, "{:<10}", "x")?;
        for x in 0..spec.input_count() {
            write!(f, " | {x:^width$}", width = states)?;
        }
        writeln!(f)?;
        for (label, digit) in [
            ("blocked", 0usize),
            ("color", 1),
            ("frontcolor", 2),
        ] {
            write!(f, "{label:<10}")?;
            for x in 0..spec.input_count() {
                let p = Percept::decode(x, spec.n_colors);
                let v = match digit {
                    0 => u8::from(p.blocked),
                    1 => p.color,
                    _ => p.front_color,
                };
                write!(f, " | {v:^width$}", width = states)?;
            }
            writeln!(f)?;
        }
        let mut line = |label: &str, get: &dyn Fn(Entry) -> u8| -> fmt::Result {
            write!(f, "{label:<10}")?;
            for x in 0..spec.input_count() {
                write!(f, " | ")?;
                for s in 0..states {
                    let e = self.entries[spec.entry_index(x, s as u8)];
                    write!(f, "{}", get(e))?;
                }
            }
            writeln!(f)
        };
        line("nextstate", &|e| e.next_state)?;
        line("setcolor", &|e| e.action.set_color)?;
        line("move", &|e| u8::from(e.action.mv))?;
        line("turn", &|e| e.action.turn)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_grid::GridKind;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn spec() -> FsmSpec {
        FsmSpec::paper(GridKind::Square)
    }

    #[test]
    fn random_genomes_are_valid_and_seeded_reproducible() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        let ga = Genome::random(spec(), &mut a);
        let gb = Genome::random(spec(), &mut b);
        assert_eq!(ga, gb);
        assert_eq!(ga.entries().len(), 32);
    }

    #[test]
    fn digits_match_display_for_wide_values() {
        // Custom specs reach values of two and three decimal digits.
        let spec = FsmSpec::new(250, 12, crate::TurnSet::for_kind(GridKind::Triangulate));
        let g = Genome::random(spec, &mut SmallRng::seed_from_u64(3));
        assert!(g.entries().iter().any(|e| e.next_state >= 100));
        assert!(g.entries().iter().any(|e| (10..100).contains(&e.action.set_color)));
        let display: String = g
            .entries()
            .iter()
            .map(|e| {
                let mv = u8::from(e.action.mv);
                format!("{}{}{}{}", e.next_state, e.action.set_color, mv, e.action.turn)
            })
            .collect();
        assert_eq!(g.to_digits(), display);
    }

    #[test]
    fn from_rows_matches_lookup() {
        let row = TableRow::from_digits("2311", "1100", "1101", "3010");
        let rows: Vec<TableRow> = (0..8).map(|_| row.clone()).collect();
        let g = Genome::from_rows(spec(), &rows);
        // State 2 of any input: nextstate 1, setcolor 0, move 0, turn 1.
        let e = g.lookup(Percept::new(false, 1, 1), 2);
        assert_eq!(e.next_state, 1);
        assert_eq!(e.action, Action::new(1, false, 0));
    }

    #[test]
    fn digits_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = Genome::random(spec(), &mut rng);
        let digits = g.to_digits();
        assert_eq!(digits.len(), 32 * 4);
        assert_eq!(Genome::from_digits(spec(), &digits), Some(g));
    }

    #[test]
    fn from_digits_rejects_bad_input() {
        assert_eq!(Genome::from_digits(spec(), "12"), None);
        let mut rng = SmallRng::seed_from_u64(5);
        let g = Genome::random(spec(), &mut rng);
        let mut digits = g.to_digits();
        // Corrupt a nextstate digit to 9 (≥ n_states).
        digits.replace_range(0..1, "9");
        assert_eq!(Genome::from_digits(spec(), &digits), None);
    }

    #[test]
    #[should_panic(expected = "exactly 32 entries")]
    fn wrong_entry_count_panics() {
        let _ = Genome::from_entries(spec(), vec![Entry::default(); 31]);
    }

    #[test]
    fn display_renders_all_rows() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = Genome::random(spec(), &mut rng);
        let table = g.to_string();
        for label in ["blocked", "color", "frontcolor", "nextstate", "setcolor", "move", "turn"] {
            assert!(table.contains(label), "missing row {label}:\n{table}");
        }
    }
}
