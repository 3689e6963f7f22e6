//! `a2a-serve` — the crash-only experiment service as a process.
//!
//! ```text
//! a2a-serve --addr 127.0.0.1:8080 --store serve-store \
//!     [--capacity N] [--tenant-queued N] [--tenant-running N] \
//!     [--executors N] [--threads N]
//! ```
//!
//! Prints exactly one `listening on <addr>` line once the socket is
//! bound and recovery finished (the chaos harness reads it to learn the
//! ephemeral port), then serves until killed or drained. There is no
//! signal handler on purpose: `SIGKILL` is the supported way to stop
//! it, and a restart on the same `--store` reruns every in-flight job
//! from its last checkpoint (or its start) to a bit-identical result.

use a2a_serve::{ServeConfig, Server};
use std::io::Write;

fn main() {
    a2a_obs::init_from_env();
    let mut cfg = ServeConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value("--addr"),
            "--store" => cfg.store_root = value("--store").into(),
            "--capacity" => cfg.queue.capacity = parse(&value("--capacity")),
            "--tenant-queued" => cfg.queue.tenant_max_queued = parse(&value("--tenant-queued")),
            "--tenant-running" => cfg.queue.tenant_max_running = parse(&value("--tenant-running")),
            "--executors" => cfg.executors = parse(&value("--executors")),
            "--threads" => cfg.worker_threads = parse(&value("--threads")),
            other => {
                eprintln!("unknown flag `{other}`");
                std::process::exit(2);
            }
        }
    }
    let handle = Server::start(cfg).unwrap_or_else(|e| {
        eprintln!("cannot start: {e}");
        std::process::exit(1);
    });
    println!("listening on {}", handle.addr());
    let _ = std::io::stdout().flush();
    // Sleep forever: all the work happens on the server's own threads,
    // and the process is stopped by SIGKILL (or drained over HTTP and
    // then killed). Crash-only — there is nothing to tear down.
    loop {
        std::thread::park();
    }
}

fn parse(text: &str) -> usize {
    text.parse().unwrap_or_else(|_| {
        eprintln!("`{text}` is not a number");
        std::process::exit(2);
    })
}
