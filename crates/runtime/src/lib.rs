//! # cilk-runtime: a work-stealing fork-join runtime
//!
//! This crate reproduces the Cilk++ runtime system described in §3 of
//! Leiserson, *The Cilk++ concurrency platform* (DAC 2009): a pool of
//! worker threads, one per processor, each with a work-stealing deque.
//! Spawned work is pushed on the bottom of the local deque; idle workers
//! become thieves and steal from the top of a random victim's deque.
//!
//! The public surface mirrors the three-keyword programming model:
//!
//! * [`join`] / [`join_context`] — `cilk_spawn` + `cilk_sync` of two
//!   branches (the child runs immediately, the continuation is stealable);
//! * [`scope`] — a dynamic set of spawns with the implicit sync every Cilk
//!   function performs before returning;
//! * [`for_each_index`] / [`map_reduce_index`] — `cilk_for`, implemented
//!   as divide-and-conquer recursion over the iteration space, exactly as
//!   the paper describes.
//!
//! A [`ThreadPool`] may be constructed explicitly (e.g. to override the
//! worker count, as the paper allows), or the lazily created global pool
//! is used.
//!
//! # Example
//!
//! ```
//! fn fib(n: u64) -> u64 {
//!     if n < 2 {
//!         return n;
//!     }
//!     let (a, b) = cilk_runtime::join(|| fib(n - 1), || fib(n - 2));
//!     a + b
//! }
//! assert_eq!(fib(20), 6765);
//! ```

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod admission;
mod config;
pub mod fault;
mod handle;
pub mod idle;
mod job;
mod join;
mod latch;
pub mod lifecycle;
mod metrics;
mod parallel_for;
mod poison;
pub mod probe;
mod registry;
mod retry;
mod scope;
mod supervisor;
mod unwind;

// For cilk-check's models of the blocking latch and the parker built on it
// (`crates/check/tests/models.rs`).
#[cfg(cilk_check)]
pub use latch::{Latch, LockLatch, Parker, Probe};
pub use admission::{
    AdmissionPolicy, AdmissionReport, Overloaded, Priority, RejectReason, SubmitError,
    TenantId, TenantStats,
};
pub use config::{BuildPoolError, Config, RuntimeStalled};
pub use handle::JobHandle;
pub use join::{join, join_context, JoinContext};
pub use metrics::MetricsSnapshot;
pub use parallel_for::{for_each_index, for_each_slice_mut, map_reduce_index, Grain};
pub use retry::RetryPolicy;
pub use scope::{scope, Scope, TaskContext};
pub use supervisor::{BeatSite, SupervisionPolicy, SupervisorReport};

use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

use registry::Registry;

/// A pool of worker threads executing fork-join computations.
///
/// Dropping the pool signals termination and joins all workers.
///
/// # Examples
///
/// ```
/// use cilk_runtime::{Config, ThreadPool};
///
/// let pool = ThreadPool::with_config(Config::new().num_workers(2))?;
/// let sum = pool.install(|| {
///     let (a, b) = cilk_runtime::join(|| 21, || 21);
///     a + b
/// });
/// assert_eq!(sum, 42);
/// # Ok::<(), cilk_runtime::BuildPoolError>(())
/// ```
pub struct ThreadPool {
    registry: Arc<Registry>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl ThreadPool {
    /// Creates a pool with default configuration (one worker per
    /// processor).
    ///
    /// # Errors
    ///
    /// Returns [`BuildPoolError`] if worker threads cannot be spawned.
    pub fn new() -> Result<ThreadPool, BuildPoolError> {
        Self::with_config(Config::new())
    }

    /// Creates a pool from an explicit [`Config`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildPoolError`] if worker threads cannot be spawned.
    pub fn with_config(config: Config) -> Result<ThreadPool, BuildPoolError> {
        let (registry, handles) = Registry::new(&config)?;
        Ok(ThreadPool { registry, handles: Mutex::new(handles) })
    }

    /// Number of workers in the pool.
    pub fn num_workers(&self) -> usize {
        self.registry.num_workers()
    }

    /// Executes `op` inside the pool, blocking until it returns. Any
    /// [`join`]/[`scope`]/[`for_each_index`] calls made by `op` run on this
    /// pool's workers.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        self.registry.in_worker(|_| op())
    }

    /// Like [`ThreadPool::install`], but a pool that fails to pick the job
    /// up within the configured
    /// [`stall_timeout`](Config::stall_timeout) yields a diagnosable
    /// [`RuntimeStalled`] error instead of hanging (e.g. because every
    /// worker simulated death under fault injection).
    ///
    /// Without a configured timeout this never returns `Err` — it waits
    /// unboundedly, exactly like `install`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeStalled`] when the injected job sat unclaimed past
    /// the timeout.
    pub fn try_install<OP, R>(&self, op: OP) -> Result<R, RuntimeStalled>
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        self.registry.in_worker_checked(|_| op())
    }

    /// A snapshot of the pool's scheduling counters (steals, spawns, deque
    /// and depth high-watermarks).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.metrics()
    }

    /// The per-worker dimension of [`metrics`](ThreadPool::metrics): one
    /// snapshot per worker slot, indexed by worker index, of the events
    /// that slot's worker raised itself (its spawns, pops, steals as the
    /// thief, deque and depth high-watermarks). Events raised off-pool —
    /// injections, admission decisions, supervision — belong to no worker
    /// and appear only in the pool-wide snapshot, which is the sum (for
    /// counts) and maximum (for high-watermarks) of these plus that
    /// off-pool share.
    pub fn metrics_per_worker(&self) -> Vec<MetricsSnapshot> {
        self.registry.metrics_per_worker()
    }

    /// The base seed of this pool's victim-selection PRNG streams:
    /// [`Config::rng_seed`] if pinned, otherwise derived from the
    /// workspace test seed (`CILK_TEST_SEED`). Print it in failure
    /// messages so a randomized schedule can be replayed exactly.
    pub fn rng_seed(&self) -> u64 {
        self.registry.rng_seed
    }

    /// Number of workers currently alive. Equal to
    /// [`num_workers`](ThreadPool::num_workers) unless workers have died
    /// (fault injection or an escaped panic) and not yet been respawned.
    pub fn live_workers(&self) -> usize {
        self.registry.live_workers()
    }

    /// Jobs currently queued in the external-injection queue (installs
    /// waiting for pickup plus work reclaimed from dead workers).
    pub fn queued_jobs(&self) -> usize {
        self.registry.queued_jobs()
    }

    /// The supervisor's view of the pool, or `None` when the pool was built
    /// without [`Config::supervision`].
    pub fn supervisor_report(&self) -> Option<SupervisorReport> {
        self.registry.supervision().map(|sup| sup.report())
    }

    /// Submits `op` on behalf of `tenant` at [`Priority::Normal`] and
    /// waits for its result — the scheduler-service entry point.
    ///
    /// Unlike [`install`](ThreadPool::install), submission is admission-
    /// controlled: the tenant must be under its in-flight quota and its
    /// home injection shard under capacity (see [`Config::admission`];
    /// pools built without a policy always admit). Overload is a typed
    /// [`SubmitError::Overloaded`] — the call never queues unboundedly.
    /// Use [`tenant`](ThreadPool::tenant) for priorities, and
    /// [`submit_with_retry`](ThreadPool::submit_with_retry) with a
    /// [`RetryPolicy::deadline`] to wait for admission.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when the submission is rejected at
    /// admission; [`SubmitError::Stalled`] when the admitted job sat
    /// unclaimed past the configured
    /// [`stall_timeout`](Config::stall_timeout).
    pub fn submit<OP, R>(&self, tenant: TenantId, op: OP) -> Result<R, SubmitError>
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        self.registry.submit_checked(tenant, Priority::Normal, |_| op())
    }

    /// The non-blocking variant of [`submit`](ThreadPool::submit):
    /// admission (quota, shard capacity, circuit breaker) happens
    /// synchronously, but the call returns a [`JobHandle`] the moment the
    /// job is queued instead of waiting for execution. The handle can be
    /// polled, waited with a timeout, waited to completion (a panic inside
    /// the job resumes on the waiter), or cancelled before a worker claims
    /// it — a successful cancel releases the tenant's quota slot without
    /// the closure ever running.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when the submission is refused at
    /// admission (the handle is never created; no quota is held).
    pub fn submit_async<OP, R>(
        &self,
        tenant: TenantId,
        op: OP,
    ) -> Result<JobHandle<R>, SubmitError>
    where
        OP: FnOnce() -> R + Send + 'static,
        R: Send + 'static,
    {
        self.registry.submit_async(tenant, Priority::Normal, op)
    }

    /// [`submit`](ThreadPool::submit) wrapped in a [`RetryPolicy`]:
    /// transient refusals (full shard, quota, open breaker) retry with
    /// seeded-jitter exponential backoff — honoring the breaker's
    /// [`retry_after`](SubmitError::retry_after) hint — while `Shed` and
    /// `Stalled` fail fast. The closure may run once per attempt, so it is
    /// `FnMut`-style: a fresh `op()` call per admission.
    ///
    /// # Errors
    ///
    /// The last [`SubmitError`] observed when the policy exhausts its
    /// attempts or deadline, or a non-retryable refusal immediately.
    pub fn submit_with_retry<OP, R>(
        &self,
        tenant: TenantId,
        policy: &RetryPolicy,
        mut op: OP,
    ) -> Result<R, SubmitError>
    where
        OP: FnMut() -> R + Send,
        R: Send,
    {
        policy.run(|| {
            self.registry
                .submit_checked(tenant, Priority::Normal, |_| op())
        })
    }

    /// A submission handle for `tenant`: set a [`Priority`], then
    /// [`submit`](Submission::submit) or one of its variants.
    ///
    /// # Examples
    ///
    /// ```
    /// use cilk_runtime::{Config, Priority, TenantId, ThreadPool};
    ///
    /// let pool = ThreadPool::with_config(Config::new().num_workers(2))?;
    /// let v = pool
    ///     .tenant(TenantId(3))
    ///     .priority(Priority::High)
    ///     .submit(|| 6 * 7)
    ///     .expect("no admission policy: always admitted");
    /// assert_eq!(v, 42);
    /// # Ok::<(), cilk_runtime::BuildPoolError>(())
    /// ```
    pub fn tenant(&self, tenant: TenantId) -> Submission<'_> {
        Submission { pool: self, tenant, priority: Priority::Normal }
    }

    /// A snapshot of the admission layer: shard geometry, current queue
    /// depth, and per-tenant counters (admitted / rejected / completed /
    /// cancelled / in-flight).
    pub fn admission_report(&self) -> AdmissionReport {
        self.registry.injector.report()
    }
}

/// A tenant-scoped submission builder returned by
/// [`ThreadPool::tenant`].
#[derive(Debug, Clone, Copy)]
pub struct Submission<'a> {
    pool: &'a ThreadPool,
    tenant: TenantId,
    priority: Priority,
}

impl Submission<'_> {
    /// Sets the priority band for subsequent submissions through this
    /// handle (default [`Priority::Normal`]).
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Submits `op` and waits for its result; a single admission attempt
    /// (see [`ThreadPool::submit`]).
    ///
    /// # Errors
    ///
    /// As [`ThreadPool::submit`].
    pub fn submit<OP, R>(&self, op: OP) -> Result<R, SubmitError>
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        self.pool.registry.submit_checked(self.tenant, self.priority, |_| op())
    }

    /// Non-blocking submission at this handle's priority; see
    /// [`ThreadPool::submit_async`].
    ///
    /// # Errors
    ///
    /// As [`ThreadPool::submit_async`].
    pub fn submit_async<OP, R>(&self, op: OP) -> Result<JobHandle<R>, SubmitError>
    where
        OP: FnOnce() -> R + Send + 'static,
        R: Send + 'static,
    {
        self.pool.registry.submit_async(self.tenant, self.priority, op)
    }

    /// Retrying submission at this handle's priority; see
    /// [`ThreadPool::submit_with_retry`].
    ///
    /// # Errors
    ///
    /// As [`ThreadPool::submit_with_retry`].
    pub fn submit_with_retry<OP, R>(
        &self,
        policy: &RetryPolicy,
        mut op: OP,
    ) -> Result<R, SubmitError>
    where
        OP: FnMut() -> R + Send,
        R: Send,
    {
        policy.run(|| {
            self.pool
                .registry
                .submit_checked(self.tenant, self.priority, |_| op())
        })
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.terminate();
        let handles =
            std::mem::take(&mut *crate::poison::recover(self.handles.lock()));
        for handle in handles {
            let _ = handle.join();
        }
        // The monitor thread is joined above, so no further respawns can
        // happen; collect the replacement workers it started.
        if let Some(sup) = self.registry.supervision() {
            for handle in sup.take_respawned_handles() {
                let _ = handle.join();
            }
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("num_workers", &self.num_workers())
            .finish_non_exhaustive()
    }
}

static GLOBAL_REGISTRY: OnceLock<Arc<Registry>> = OnceLock::new();

/// The global registry, created on first use with default configuration.
/// Worker threads of the global pool live for the process lifetime.
fn global_registry() -> &'static Arc<Registry> {
    GLOBAL_REGISTRY.get_or_init(|| {
        let (registry, _handles) =
            Registry::new(&Config::new()).expect("failed to start global cilk runtime");
        // Global workers are intentionally detached.
        registry
    })
}

/// Runs `op` on the current worker thread if there is one, otherwise on the
/// global pool.
pub(crate) fn in_worker<OP, R>(op: OP) -> R
where
    OP: FnOnce(&registry::WorkerThread) -> R + Send,
    R: Send,
{
    let current = registry::WorkerThread::current();
    if !current.is_null() {
        // SAFETY: a non-null pointer names this thread's worker context,
        // which outlives every job the worker runs, including this call.
        return op(unsafe { &*current });
    }
    global_registry().in_worker(op)
}

/// The number of workers in the pool associated with the current thread
/// (the enclosing pool for worker threads, the global pool otherwise).
pub fn current_num_workers() -> usize {
    let current = registry::WorkerThread::current();
    if !current.is_null() {
        // SAFETY: as in `in_worker`, the pointer names this thread's live
        // worker context.
        return unsafe { (*current).registry().num_workers() };
    }
    global_registry().num_workers()
}

/// Metrics of the global pool (creating it if necessary).
pub fn global_metrics() -> MetricsSnapshot {
    global_registry().metrics()
}

/// The index of the worker executing the caller, or `None` on threads
/// outside any pool. Useful for per-worker scratch arrays.
pub fn current_worker_index() -> Option<usize> {
    registry::current_worker_index()
}

/// The current `join` nesting depth of the calling worker (0 on non-pool
/// threads). Backs the paper's stack-space accounting experiment.
pub fn current_depth() -> usize {
    let current = registry::WorkerThread::current();
    if current.is_null() {
        0
    } else {
        // SAFETY: as in `in_worker`, the pointer names this thread's live
        // worker context.
        unsafe { (*current).depth() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn worker_index_visible_inside_pool() {
        let pool = ThreadPool::with_config(Config::new().num_workers(2)).expect("pool");
        assert_eq!(current_worker_index(), None);
        let idx = pool.install(current_worker_index);
        assert!(idx.is_some_and(|i| i < 2));
    }

    #[test]
    fn pool_installs_and_drops() {
        let pool = ThreadPool::with_config(Config::new().num_workers(2)).expect("pool");
        let v = pool.install(|| 7);
        assert_eq!(v, 7);
        drop(pool);
    }

    #[test]
    fn pool_runs_parallel_for() {
        let pool = ThreadPool::with_config(Config::new().num_workers(3)).expect("pool");
        let count = AtomicUsize::new(0);
        pool.install(|| {
            for_each_index(0..1000, Grain::Explicit(10), |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn metrics_record_activity() {
        let pool = ThreadPool::with_config(Config::new().num_workers(2)).expect("pool");
        pool.install(|| {
            for_each_index(0..10_000, Grain::Explicit(8), |_| {});
        });
        let m = pool.metrics();
        assert!(m.spawns > 0, "joins should record spawns: {m:?}");
        // Every continuation is resolved by a steal, an inline pop-back,
        // or (rarely) a local pop during a wait loop, so the first two
        // never exceed the spawn count.
        assert!(
            m.steals + m.inline_pops <= m.spawns,
            "steal/pop accounting exceeded spawns: {m:?}"
        );
    }

    #[test]
    fn single_worker_pool_works() {
        let pool = ThreadPool::with_config(Config::new().num_workers(1)).expect("pool");
        let total: u64 = pool.install(|| {
            map_reduce_index(0..1000, Grain::Auto, || 0u64, |i| i as u64, |a, b| a + b)
        });
        assert_eq!(total, 499_500);
        let m = pool.metrics();
        assert_eq!(m.steals, 0, "one worker can never steal");
    }

    #[test]
    fn nested_installs_compose() {
        let pool = ThreadPool::with_config(Config::new().num_workers(2)).expect("pool");
        let v = pool.install(|| {
            let (a, b) = join(
                || map_reduce_index(0..100, Grain::Auto, || 0u64, |i| i as u64, |a, b| a + b),
                || map_reduce_index(0..100, Grain::Auto, || 0u64, |i| i as u64, |a, b| a + b),
            );
            a + b
        });
        assert_eq!(v, 4950 * 2);
    }

    #[test]
    fn depth_tracking_grows_with_log_n() {
        let pool = ThreadPool::with_config(Config::new().num_workers(2)).expect("pool");
        pool.install(|| {
            for_each_index(0..1 << 12, Grain::Explicit(1), |_| {});
        });
        let m = pool.metrics();
        assert!(m.depth_high_watermark >= 12, "depth {m:?}");
    }
}
