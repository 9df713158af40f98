//! Asynchronous submission: [`Registry::submit_async`] → [`JobHandle`].
//!
//! `submit` blocks the caller until the job completes; under overload that
//! couples the client's thread to the pool's backlog. `submit_async`
//! decouples them: admission is the same synchronous
//! [`Registry::admit`] step `submit` takes (so every refusal is still a
//! typed [`SubmitError`] at the call site), but the call returns a handle
//! the moment the job is queued. The handle can be polled, waited with a
//! timeout, waited to completion (propagating a captured panic payload
//! exactly like the synchronous path), or cancelled. A blocked waiter
//! sleeps on the handle's [`Parker`] until the job resolves; only on a
//! supervised pool does it also wake once per watchdog tick, to rescue
//! the job if the pool has died ([`Registry::rescue_step`]).
//!
//! # The quota ticket, asynchronously
//!
//! The admission invariant — every reserved slot is released by exactly
//! one bookkeeping call — extends to handles:
//!
//! * the job runs → [`Injector::note_completed`] fires inside the job
//!   itself (worker or degraded-rescue execution alike);
//! * [`JobHandle::cancel`] wins the race for a still-queued job →
//!   [`Injector::note_cancelled`] fires in `cancel`, and the closure is
//!   dropped without ever executing;
//! * admission refuses after reserving (shard full, injected `Die`) →
//!   `admit` releases the reservation, and `submit_async` frees the job
//!   un-run before returning the refusal.
//!
//! `admitted == completed + cancelled` therefore still holds for any mix
//! of synchronous and asynchronous submissions.
//!
//! # Phases and cancellation
//!
//! A handle and its job are one allocation — a phase word, the result
//! cell, the waiter's [`Parker`] and, until it runs, the closure — with one
//! reference held by the handle and one by the injection queue, which the
//! job's single execution drops (docs/scheduler.md, "Blocking"). The phase
//! goes `QUEUED → RUNNING → DONE` when the job runs, or `QUEUED →
//! CANCELLED` when `cancel` wins. The ledger is counted before a terminal
//! phase is published, and the result before `DONE`. `wait_timeout`
//! borrows the handle mutably, so the parker never has two waiters.
//!
//! A [`JobRef`] must be executed exactly once across all copies. `cancel`
//! removes the job from its injection shard ([`Injector::cancel`]);
//! success means no worker claimed it or ever will, so the canceller owns
//! the single execution: it publishes `CANCELLED` and performs it, which
//! drops the closure un-run. Failure means a worker claimed it first, and
//! `cancel` reports `false`. The shard is searched by the job's address,
//! which a later submission may reuse once the allocation is freed — and
//! the handle's own reference keeps it alive while the handle can search.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::admission::{Priority, SubmitError, TenantId};
use crate::job::{Job, JobRef, JobResult};
use crate::latch::{Parker, Probe};
use crate::probe::ProbeEvent;
use crate::registry::{Placement, Registry, WorkerThread};
use crate::unwind;

/// In an injection shard; no worker has claimed the job.
const QUEUED: usize = 0;
/// A worker (or the degraded rescue) is running the closure.
const RUNNING: usize = 1;
/// Finished: the result cell holds a value or a captured panic payload.
const DONE: usize = 2;
/// [`JobHandle::cancel`] won the race; the closure never ran.
const CANCELLED: usize = 3;

/// The one allocation behind a [`JobHandle`] and its queued [`JobRef`].
struct AsyncJob<R> {
    /// `QUEUED`, `RUNNING`, `DONE` or `CANCELLED` (see the module docs).
    phase: AtomicUsize,
    /// Written by the job's execution before it publishes `DONE`.
    result: UnsafeCell<JobResult<R>>,
    /// Where the handle's one waiter sleeps until the job resolves.
    waiter: Parker,
    /// Taken by the job's single execution.
    func: UnsafeCell<Option<Box<dyn FnOnce() -> R + Send>>>,
    registry: Arc<Registry>,
    tenant: TenantId,
}

// SAFETY: the cells are written only by the job's single execution, which
// takes `func` and fills `result` before its `Release` store of `DONE`;
// `result` is read only by the handle's owner after an `Acquire` load of
// a terminal phase. Everything else is `Sync`.
unsafe impl<R: Send> Sync for AsyncJob<R> {}

/// Lets a worker of the same pool wait on a handle with the thief
/// protocol (steal and execute other work until the handle resolves)
/// instead of blocking — the same discipline `join` uses.
impl<R> Probe for AsyncJob<R> {
    #[inline]
    fn probe(&self) -> bool {
        self.phase.load(Ordering::Acquire) >= DONE
    }
}

impl<R: Send> Job for AsyncJob<R> {
    unsafe fn execute(this: *const ()) {
        // The queue's reference, handed to this single execution.
        let job = Arc::from_raw(this.cast::<Self>());
        let func = (*job.func.get()).take().expect("async job executed twice");
        if job.phase.load(Ordering::Relaxed) == CANCELLED {
            // `cancel` owns this execution (it removed the job from the
            // queue first) and has already done the accounting; dropping
            // `func` un-run is all that is left.
            return;
        }
        job.phase.store(RUNNING, Ordering::Relaxed);
        let result = if WorkerThread::current().is_null() {
            // Degraded rescue: the pool died with the job still queued and
            // the waiter is honoring the admission on its own thread. Run
            // inside a transient serial worker context so nested
            // `join`/`scope` calls stay on this pool (serial elision).
            job.registry.run_in_place(|_| run_captured(func))
        } else {
            run_captured(func)
        };
        *job.result.get() = result;
        // Completion is counted before the result is published: a waiter
        // that reads `DONE` must observe books that already balance
        // (`admitted == completed + cancelled`, quota slot returned).
        job.registry.injector.note_completed(job.tenant);
        job.phase.store(DONE, Ordering::Release);
        job.waiter.unpark();
    }
}

/// Runs the closure, converting an unwind into the `Panic` result the
/// handle resumes at `wait` — identical to the synchronous path's
/// panic-payload propagation.
fn run_captured<R>(func: impl FnOnce() -> R) -> JobResult<R> {
    match unwind::halt_unwinding(func) {
        Ok(value) => JobResult::Ok(value),
        Err(payload) => {
            crate::registry::note_panic_captured();
            JobResult::Panic(payload)
        }
    }
}

/// A handle to a job admitted by
/// [`ThreadPool::submit_async`](crate::ThreadPool::submit_async).
///
/// The handle is the asynchronous half of the admission contract: the
/// submission was already admitted (quota reserved, shard slot taken)
/// when the handle was created, and exactly one of
/// [`wait`](JobHandle::wait)-observed completion or a successful
/// [`cancel`](JobHandle::cancel) releases that quota.
///
/// Dropping the handle detaches the job: it still runs (it was admitted)
/// and its quota is still released on completion; only the result is
/// discarded.
pub struct JobHandle<R: Send + 'static> {
    job: Arc<AsyncJob<R>>,
}

impl<R: Send + 'static> JobHandle<R> {
    /// The tenant this submission is billed to.
    pub fn tenant(&self) -> TenantId {
        self.job.tenant
    }

    /// `true` once the job has finished or been cancelled — i.e. once
    /// [`wait`](JobHandle::wait) would return without blocking. Never
    /// blocks; one atomic load.
    pub fn poll(&self) -> bool {
        self.job.probe()
    }

    /// Waits until the job resolves or `timeout` elapses; `true` when
    /// resolved (finished or cancelled). The result stays in the handle —
    /// follow up with [`wait`](JobHandle::wait) to take it.
    pub fn wait_timeout(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now().checked_add(timeout);
        while !self.poll() {
            self.rescue_if_degraded();
            let left =
                deadline.map_or(Duration::MAX, |d| d.saturating_duration_since(Instant::now()));
            if left.is_zero() {
                return self.poll();
            }
            let step = self.job.registry.rescue_step().map_or(left, |s| left.min(s));
            // A stray or stale token costs one more look.
            self.job.waiter.park(step);
        }
        true
    }

    /// Waits for the job and takes its outcome: `Some(value)` on
    /// completion, `None` if [`cancel`](JobHandle::cancel) won. A panic
    /// captured inside the job is resumed here, on the waiter — the same
    /// panic-propagation contract as the synchronous `submit`.
    ///
    /// On a worker thread of the same pool this waits with the thief
    /// protocol (stealing and executing other work) instead of blocking,
    /// so handle waits compose with fork-join work without idling a
    /// processor.
    pub fn wait(mut self) -> Option<R> {
        let wt = WorkerThread::current();
        // SAFETY: a non-null pointer names this thread's worker context,
        // live for as long as the worker runs the job that called us.
        if let Some(wt) = unsafe { wt.as_ref() } {
            if Arc::ptr_eq(wt.registry(), &self.job.registry) {
                wt.wait_until(&*self.job);
            }
        }
        if !self.poll() {
            self.wait_timeout(Duration::MAX);
        }
        // SAFETY: a terminal phase was read with `Acquire`, so the
        // execution is done with the cell; this handle is consumed.
        match std::mem::replace(unsafe { &mut *self.job.result.get() }, JobResult::None) {
            JobResult::None => None,
            result => Some(result.into_return_value()),
        }
    }

    /// Attempts to cancel a not-yet-started job. `true` means the closure
    /// will never execute and the tenant's quota slot was released here
    /// (counted as cancelled, so the books still balance); `false` means a
    /// worker already claimed the job — cancel-after-start is refused, the
    /// job runs to completion and releases its own quota exactly once.
    pub fn cancel(&self) -> bool {
        if !self.take_from_queue() {
            return false;
        }
        let AsyncJob { registry, tenant, .. } = &*self.job;
        // Counted before the phase is published: a `poll` that reads
        // `CANCELLED` must observe books that already balance. Nobody is
        // parked to be woken: waiting borrows the handle mutably.
        registry.injector.note_cancelled(*tenant);
        registry.probe(ProbeEvent::JobCancelled { tenant: tenant.0 });
        self.job.phase.store(CANCELLED, Ordering::Release);
        // SAFETY: exclusive execution right established above; executes
        // the job exactly once (as a drop).
        unsafe { self.job_ref().execute() };
        true
    }

    /// Removes the job from its injection shard if no worker has claimed
    /// it; `true` grants the caller the job's single execution. The search
    /// is by address, which `self.job` keeps this job's throughout.
    fn take_from_queue(&self) -> bool {
        self.job.phase.load(Ordering::Relaxed) == QUEUED
            && self.job.registry.injector.cancel(self.job_ref())
    }

    /// The job's identity in the injection queue.
    fn job_ref(&self) -> JobRef {
        // SAFETY: `self.job` keeps the allocation alive while the reference
        // is searched for, and the queue's own reference while it executes.
        unsafe { JobRef::new(Arc::as_ptr(&self.job)) }
    }

    /// A fully dead pool (zero live workers, no recovery possible) can
    /// never claim the queued job; honor the admission by running it on
    /// this thread instead — completed, not cancelled, exactly like the
    /// synchronous path's degraded rescue.
    fn rescue_if_degraded(&self) {
        if self.job.registry.degraded_serial() && self.take_from_queue() {
            // SAFETY: queue removal grants the exclusive execution right;
            // the job body does its own completion accounting.
            unsafe { self.job_ref().execute() };
        }
    }
}

impl<R: Send + 'static> std::fmt::Debug for JobHandle<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("tenant", &self.job.tenant)
            .field("resolved", &self.poll())
            .finish_non_exhaustive()
    }
}

impl Registry {
    /// Admission-controlled non-blocking submission: passes
    /// [`Registry::admit`] and returns a [`JobHandle`] without waiting for
    /// execution. A refused (or fault-unwound) admission frees the job
    /// un-run and holds no quota.
    pub(crate) fn submit_async<OP, R>(
        self: &Arc<Self>,
        tenant: TenantId,
        priority: Priority,
        op: OP,
    ) -> Result<JobHandle<R>, SubmitError>
    where
        OP: FnOnce() -> R + Send + 'static,
        R: Send + 'static,
    {
        let handle = JobHandle {
            job: Arc::new(AsyncJob {
                phase: AtomicUsize::new(QUEUED),
                result: UnsafeCell::new(JobResult::None),
                waiter: Parker::new(),
                func: UnsafeCell::new(Some(Box::new(op))),
                registry: Arc::clone(self),
                tenant,
            }),
        };
        let unqueued = Unqueued(Arc::into_raw(Arc::clone(&handle.job)));
        // SAFETY: the queue's reference keeps the job alive until its
        // single execution (worker claim, cancel-drop, or degraded rescue)
        // drops it; until admission queues it, `unqueued` owns it.
        let job = unsafe { JobRef::new(unqueued.0) };
        self.admit(tenant, Placement::Queue(priority, job))?;
        std::mem::forget(unqueued);
        Ok(handle)
    }
}

/// Owns the queue's reference to a job until admission queues it: a
/// refusal, or an `Inject` fault unwinding out of admission, drops it here.
struct Unqueued<T>(*const T);

impl<T> Drop for Unqueued<T> {
    fn drop(&mut self) {
        // SAFETY: the pointer came from `Arc::into_raw`, and the job was
        // never queued, so nothing else can reach or execute it.
        unsafe { drop(Arc::from_raw(self.0)) };
    }
}
