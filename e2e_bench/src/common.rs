//! Pieces every workload shares: the failure tally, order statistics,
//! set-up repetition, registry deltas, the traced-phase wrapper and the
//! environment stamp written next to each result.

use a2a_obs::json::Json;
use a2a_obs::trace::{self, Trace};
use a2a_obs::{global, HistogramSnapshot, RegistrySnapshot, Span};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Failure reasons kept per run.
const KEPT_FAILURES: usize = 16;

/// Operations attempted and failed. An operation fails when it panics,
/// errors, is refused or fails its output check; the first few reasons
/// are kept for the result file.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation with its verdict.
    pub fn op(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = verdict {
            self.failed += 1;
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(reason);
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = KEPT_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }
}

/// Runs `f`, turning a panic into an error naming `what`.
pub fn unwind<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|_| format!("{what} panicked"))
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Seconds taken by `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Runs `setup` [`SETUP_REPS`] times and returns the last product with
/// the median set-up time in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut(usize) -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let (out, secs) = timed(|| setup(rep));
        times.push(secs);
        last = Some(out);
    }
    (
        last.expect("at least one set-up repetition"),
        median(&times),
    )
}

/// What one traced phase left behind: the captured spans, the registry
/// before and after, and the phase's wall time.
pub struct Capture {
    pub trace: Trace,
    pub before: RegistrySnapshot,
    pub after: RegistrySnapshot,
    pub wall_s: f64,
}

impl Capture {
    /// Growth of counter `name` over the phase.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        let at = |s: &RegistrySnapshot| s.counters.get(name).copied().unwrap_or(0);
        at(&self.after).saturating_sub(at(&self.before))
    }

    /// Samples histogram `name` gained over the phase (bucket counts,
    /// count and sum are exact; min and max are the whole process's).
    #[must_use]
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        let empty = HistogramSnapshot::default();
        let after = self.after.histograms.get(name).unwrap_or(&empty);
        let before = self.before.histograms.get(name).unwrap_or(&empty);
        let mut delta = after.clone();
        delta.count = after.count.saturating_sub(before.count);
        delta.sum = after.sum.saturating_sub(before.sum);
        for (d, b) in delta.buckets.iter_mut().zip(&before.buckets) {
            *d = d.saturating_sub(*b);
        }
        delta
    }
}

/// Runs `f` with span capture and registry metrics on, inside the
/// benchmark's root span `bench.timed`, and turns both off afterwards.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, Capture) {
    a2a_obs::set_metrics(true);
    let before = global().snapshot();
    trace::start_capture();
    let t0 = Instant::now();
    let out = {
        let _root = Span::enter("bench.timed");
        f()
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let trace = trace::take_capture();
    let after = global().snapshot();
    a2a_obs::set_metrics(false);
    (
        out,
        Capture {
            trace,
            before,
            after,
            wall_s,
        },
    )
}

/// Runs `f` at `Level::Trace`, where the multi-run kernel times its act
/// and exchange sweeps apart, and returns the exchange share of the
/// two. The split changes the sweeps' cache behaviour, so only the
/// share is reported, never the times.
pub fn exchange_share(f: impl FnOnce()) -> f64 {
    let sum = |name: &str| global().histogram(name).snapshot().sum as f64;
    let (act0, exch0) = (sum("kernel.multi.act.ns"), sum("kernel.multi.exchange.ns"));
    a2a_obs::set_level(a2a_obs::Level::Trace);
    f();
    a2a_obs::set_level(a2a_obs::Level::Off);
    let act = sum("kernel.multi.act.ns") - act0;
    let exch = sum("kernel.multi.exchange.ns") - exch0;
    if act + exch > 0.0 {
        exch / (act + exch)
    } else {
        0.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of the regular files under `dir`.
#[must_use]
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// FNV-1a over `text`, as 16 hex digits.
#[must_use]
pub fn digest_hex(text: &str) -> String {
    format!("{:016x}", a2a_obs::schema::fnv1a64(text.as_bytes()))
}

/// The per-run scratch and output directories, both inside the
/// working directory (the checkout root).
pub struct Dirs {
    /// Result, ledger and trace files of this run.
    pub out: PathBuf,
    /// Durable stores; removed when the run ends.
    pub scratch: PathBuf,
}

impl Dirs {
    pub fn create(workload: &str, seed: u64, trace: bool) -> std::io::Result<Self> {
        let root = PathBuf::from(".e2e_bench");
        let out = root
            .join("out")
            .join(format!("{workload}-seed{seed}-trace{}", u8::from(trace)));
        let scratch = root.join("scratch").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&out)?;
        std::fs::create_dir_all(&scratch)?;
        Ok(Self { out, scratch })
    }
}

impl Drop for Dirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// Where and how a result was measured: cores, CPU model, the store
/// directory's filesystem (it sets the fsync cost), the code, the build
/// profile and the seed.
#[must_use]
pub fn stamp(store: &Path, seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::object()
        .with("nproc", nproc)
        .with("cpu", cpu)
        .with("store_fs", filesystem_of(store))
        .with("commit", commit())
        .with("source_digest", source_digest())
        .with(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .with("seed", seed)
}

/// The filesystem type of the mount holding `path` (longest matching
/// mount point in `/proc/self/mounts`).
fn filesystem_of(path: &Path) -> String {
    let Ok(abs) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, kind) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// `git rev-parse HEAD` when the working directory is a git checkout,
/// else `"unknown"` (the source digest still identifies the code).
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// FNV-1a over every file under `crates/` (paths and bytes, in sorted
/// order): names the code measured even outside a git checkout.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.filter_map(Result::ok) {
            let path = e.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", a2a_obs::schema::fnv1a64(&bytes))
}
