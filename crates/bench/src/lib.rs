//! Shared plumbing for the experiment binaries of the reproduction: a
//! tiny flag parser, run-scale presets and observability wiring, so
//! every binary accepts the same
//! `--configs/--seed/--threads/--full/--quiet/--json-out` switches.
//!
//! The binaries themselves (in `src/bin/`) regenerate the paper's tables
//! and figures; see DESIGN.md's per-experiment index for the mapping.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod campaign;

use a2a_ga::default_threads;
use a2a_obs::{JsonlSink, Level, Sink};
use std::sync::Arc;

/// Scale/seed/output options shared by all experiment binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunScale {
    /// Random configurations per measurement point.
    pub configs: usize,
    /// Seed of every configuration stream.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Whether `--full` (the paper's 1000-config protocol) was requested.
    pub full: bool,
    /// `--quiet`: suppress the stdout report (events still reach sinks).
    pub quiet: bool,
    /// `--json-out PATH`: mirror events into a JSONL file (see
    /// [`a2a_obs::schema`] for the line format).
    pub json_out: Option<String>,
}

impl RunScale {
    /// Parses the shared flags from the process arguments.
    /// `default_configs` applies when neither `--configs` nor `--full`
    /// is given; `--full` selects the paper's 1000 random configurations.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed or unknown flags (these
    /// are experiment binaries; failing fast beats guessing).
    #[must_use]
    pub fn from_args(default_configs: usize) -> Self {
        let mut args: Vec<String> = std::env::args().skip(1).collect();
        let scale = Self::extract(&mut args, default_configs);
        if let Some(other) = args.first() {
            panic!(
                "unknown flag `{other}` \
                 (use --configs/--seed/--threads/--full/--quiet/--json-out)"
            );
        }
        scale
    }

    /// Removes the shared flags from `args` and parses them, leaving
    /// binary-specific flags in place for the caller's own parser (used
    /// by binaries like `evolve_run` that add flags on top).
    ///
    /// # Panics
    ///
    /// Panics on malformed values or a flag missing its value.
    #[must_use]
    pub fn extract(args: &mut Vec<String>, default_configs: usize) -> Self {
        let mut scale = Self {
            configs: default_configs,
            seed: 2013,
            threads: default_threads(),
            full: false,
            quiet: false,
            json_out: None,
        };
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].clone();
            match flag.as_str() {
                "--full" => {
                    args.remove(i);
                    scale.full = true;
                    scale.configs = 1000;
                }
                "--quiet" => {
                    args.remove(i);
                    scale.quiet = true;
                }
                "--configs" | "--seed" | "--threads" | "--json-out" => {
                    args.remove(i);
                    if i >= args.len() {
                        panic!("missing value for {flag}");
                    }
                    let v = args.remove(i);
                    match flag.as_str() {
                        "--configs" => scale.configs = v.parse().expect("numeric --configs"),
                        "--seed" => scale.seed = v.parse().expect("numeric --seed"),
                        "--threads" => scale.threads = v.parse().expect("numeric --threads"),
                        _ => scale.json_out = Some(v),
                    }
                }
                _ => i += 1,
            }
        }
        scale
    }

    /// Initialises observability for an experiment binary: the level
    /// comes from `A2A_LOG` (stderr sink), and `--json-out` attaches a
    /// `Debug`-verbosity [`JsonlSink`] on top. Returns a guard that
    /// finalizes every sink when dropped — keep it alive for the whole
    /// `main` (sinks are process-global and never dropped themselves,
    /// so without the guard the JSONL stream is never published from
    /// its `.partial` sibling and the buffered tail is lost at exit).
    ///
    /// Emits a `bench.start` event carrying the experiment name and
    /// scale, so every sink's stream is self-describing.
    ///
    /// # Panics
    ///
    /// Panics when the `--json-out` file cannot be created.
    pub fn init_obs(&self, experiment: &str) -> ObsGuard {
        a2a_obs::init_from_env();
        if let Some(path) = self.json_out.as_deref() {
            let sink = JsonlSink::create(path, Level::Debug)
                .unwrap_or_else(|e| panic!("cannot create --json-out {path}: {e}"));
            a2a_obs::attach_sink(Arc::new(sink) as Arc<dyn Sink>);
        }
        a2a_obs::event!(Level::Info, "bench.start",
            "experiment" => experiment,
            "configs" => self.configs,
            "seed" => self.seed,
            "threads" => self.threads,
            "full" => self.full,
            "quiet" => self.quiet);
        ObsGuard(())
    }

    /// Writes one report line to stdout unless `--quiet` was given, and
    /// mirrors it as a `bench.out` event at `Debug` so JSONL sinks
    /// capture the rendered report without double-printing on stderr.
    pub fn outln(&self, line: impl AsRef<str>) {
        let line = line.as_ref();
        if !self.quiet {
            println!("{line}");
        }
        a2a_obs::event!(Level::Debug, "bench.out", "text" => line);
    }

    /// Emits a progress note: an `Info`-level event (single-line,
    /// interleave-safe even from worker threads) that also reaches
    /// stdout unless `--quiet` was given. Use this instead of
    /// `println!`/`eprintln!` for anything printed mid-run.
    pub fn progress(&self, what: &'static str, detail: impl AsRef<str>) {
        let detail = detail.as_ref();
        if !self.quiet {
            println!("{detail}");
        }
        a2a_obs::event!(Level::Info, what, "detail" => detail);
    }

    /// A banner line describing the scale, printed by every binary.
    #[must_use]
    pub fn banner(&self, experiment: &str) -> String {
        format!(
            "=== {experiment} — {} random configs per point, seed {}, {} threads{} ===",
            self.configs,
            self.seed,
            self.threads,
            if self.full { " (paper-scale protocol)" } else { "" }
        )
    }
}

/// End-of-run guard returned by [`RunScale::init_obs`]: flushes every
/// attached sink on drop. Bind it for the whole `main`
/// (`let _sink = scale.init_obs(...)`).
#[derive(Debug)]
pub struct ObsGuard(());

impl Drop for ObsGuard {
    fn drop(&mut self) {
        // Finalize (not just flush): a JSONL sink publishes its
        // `.partial` stream into the requested path here, marking the
        // run as cleanly shut down. A crash skips this drop and leaves
        // the `.partial` behind as the recoverable artifact.
        a2a_obs::finalize_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale() -> RunScale {
        RunScale {
            configs: 42,
            seed: 7,
            threads: 3,
            full: false,
            quiet: false,
            json_out: None,
        }
    }

    #[test]
    fn banner_mentions_scale() {
        let b = scale().banner("Table 1");
        assert!(b.contains("Table 1") && b.contains("42") && b.contains("seed 7"));
    }

    #[test]
    fn full_banner_marks_protocol() {
        let s = RunScale { configs: 1000, full: true, ..scale() };
        assert!(s.banner("x").contains("paper-scale"));
    }

    #[test]
    fn extract_takes_shared_flags_and_leaves_the_rest() {
        let mut args: Vec<String> = [
            "--grid", "t", "--configs", "12", "--quiet", "--json-out", "/tmp/x.jsonl",
            "--generations", "5", "--seed", "9",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let s = RunScale::extract(&mut args, 60);
        assert_eq!(s.configs, 12);
        assert_eq!(s.seed, 9);
        assert!(s.quiet);
        assert_eq!(s.json_out.as_deref(), Some("/tmp/x.jsonl"));
        assert_eq!(args, vec!["--grid", "t", "--generations", "5"]);
    }

    #[test]
    fn extract_full_sets_paper_scale() {
        let mut args: Vec<String> = vec!["--full".into()];
        let s = RunScale::extract(&mut args, 60);
        assert!(s.full);
        assert_eq!(s.configs, 1000);
        assert!(args.is_empty());
    }

    #[test]
    fn quiet_outln_prints_nothing_but_never_panics() {
        let s = RunScale { quiet: true, ..scale() };
        s.outln("suppressed");
        s.progress("bench.progress", "also suppressed");
    }
}
