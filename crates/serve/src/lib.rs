//! `a2a-serve`: a crash-only, multi-tenant experiment service
//! (DESIGN.md §14) over a dependency-free, hand-rolled HTTP/1.1 layer
//! (std TCP + threads, matching the workspace's vendored style).
//!
//! The supervision layer is the headline:
//!
//! * **Bounded priority queue with backpressure** — [`queue::JobQueue`]
//!   admits at most its capacity; a full queue (or a tenant over its
//!   queued quota) answers `429` with `Retry-After` instead of queueing
//!   unboundedly.
//! * **Per-tenant quotas and fair scheduling** — each tenant is capped
//!   both in queued jobs and in concurrently running jobs; the
//!   dispatcher picks the highest-priority eligible job, FIFO within a
//!   priority, skipping tenants at their running cap.
//! * **Deadlines and retries** — every job may carry a deadline (checked at
//!   generation boundaries; an expired job stops checkpointed and is
//!   marked `timed_out`) and panicking attempts are retried with
//!   exponential backoff through the PR-4 watchdog/quarantine pool
//!   path before the job is marked `failed`.
//! * **Durable, bit-identical resume** — every job's state lives in its
//!   own [`a2a_run::JobStore`] subdirectory (sealed manifest, a rolling
//!   checkpoint once the job's work warrants one, sealed result).
//!   `kill -9` the server at any moment, restart it on the same store,
//!   and every job completes with a result **byte-equal** to an
//!   uninterrupted run — the chaos test in `tests/chaos.rs` enforces
//!   exactly that, and `tests/crash_points.rs` kills one job at every
//!   step of each of its durable writes.
//! * **Load shedding and graceful drain** — `POST /admin/drain` stops
//!   admissions (`503`), stops running jobs at their next checkpointed
//!   boundary, and re-queues them durably; the crate forbids `unsafe`
//!   so there is no signal handler — `SIGKILL` is always safe by
//!   design, which is what "crash-only" means here.
//!
//! The chaos seams are the `serve.request` / `serve.job.step` /
//! `serve.checkpoint` fault sites (see [`a2a_obs::fault`]).

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod client;
pub mod http;
pub mod job;
pub mod queue;
pub mod server;

pub use job::{
    build_islands_result, build_result, JobSpec, MAX_CONFIGS, MAX_GENERATIONS, MAX_M,
    MAX_POPULATION, MAX_RETRIES, MAX_T_MAX, RESULT_SCHEMA,
};
pub use queue::{JobQueue, QueueConfig, QueuedJob, SubmitError};
pub use server::{Server, ServerHandle, ServeConfig};
