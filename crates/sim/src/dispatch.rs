//! The dispatch seam: a sim-visible trait for running a batch of
//! independent jobs, possibly in parallel.
//!
//! The persistent worker pool lives in `a2a-ga` (`ga::pool::WorkerPool`),
//! which already depends on this crate — so the batch layer cannot name
//! it directly without a dependency cycle. [`Dispatch`] inverts the
//! seam: `a2a-ga` implements the trait for its pool and hands it to
//! [`BatchRunner::with_dispatch`](crate::BatchRunner::with_dispatch),
//! and the batch layer shards fixed
//! [`DISPATCH_BLOCK`](crate::DISPATCH_BLOCK) ranges of configurations
//! across whatever executor it was given. Without one, `run_all` runs
//! inline on the caller — the reference behaviour every parallel path
//! must be bit-identical to.

/// A boxed unit of work handed to a [`Dispatch`] executor.
pub type DispatchJob = Box<dyn FnOnce() + Send + 'static>;

/// An executor for batches of independent jobs.
///
/// The contract the batch layer relies on:
///
/// - **Completion**: `run_jobs` returns only after every job has been
///   given a chance to run. Jobs an implementation fails to run (e.g.
///   a worker died) may be dropped unexecuted — callers detect the
///   hole and re-run the job inline — but `run_jobs` must not return
///   while any job is still executing.
/// - **Independence**: jobs never depend on each other; any execution
///   order and any assignment of jobs to threads is correct. All
///   determinism lives in the *caller*, which commits results in
///   submission order regardless of completion order.
pub trait Dispatch: Send + Sync + std::fmt::Debug {
    /// Runs every job to completion, in any order, on any threads.
    fn run_jobs(&self, jobs: Vec<DispatchJob>);

    /// Worker threads this executor can occupy at once (`1` means the
    /// caller's thread only). Decides whether `run_all` dispatches at
    /// all, and feeds the `kernel.dispatch.workers` gauge.
    fn workers(&self) -> usize;
}
