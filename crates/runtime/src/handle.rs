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
//! sleeps on the handle's condvar until the job resolves; only on a
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
//! # Cancellation protocol
//!
//! A [`JobRef`] must be executed exactly once across all copies.
//! `cancel` first removes the job from the injection shard
//! ([`Injector::cancel`]); success means no worker has claimed it and none
//! ever will, so the canceller owns the single execution. It marks the
//! shared state `Cancelled` and then performs that execution — which
//! observes the mark, frees the boxed closure without running it, and
//! returns. A worker that claimed the job first makes [`Injector::cancel`]
//! fail, and `cancel` reports `false` (cancel-after-start is refused; the
//! result still arrives through the handle). The shard is searched by the
//! job's address, so the search only happens while the handle's state is
//! still `Queued` — execution leaves that state before it frees the job,
//! and a freed address may already belong to a later submission.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::admission::{Priority, SubmitError, TenantId};
use crate::job::{Job, JobRef, JobResult};
use crate::latch::Probe;
use crate::poison;
use crate::probe::ProbeEvent;
use crate::registry::{Placement, Registry, WorkerThread};
use crate::unwind;

/// Where an async job stands, guarded by [`Shared::state`].
enum HandleState<R> {
    /// Queued in an injection shard; no worker has claimed it.
    Queued,
    /// A worker (or the degraded rescue) is running the closure.
    Running,
    /// Finished: a value, or the captured panic payload.
    Done(JobResult<R>),
    /// [`JobHandle::cancel`] won the race; the closure never ran.
    Cancelled,
}

/// State shared between a [`JobHandle`] and its in-flight [`AsyncJob`].
struct Shared<R> {
    /// Lock-free "finished or cancelled" flag, set *after* the state
    /// transition below: lets a worker's steal-while-wait loop poll the
    /// handle without taking the mutex on every spin.
    finished: AtomicBool,
    state: Mutex<HandleState<R>>,
    cvar: Condvar,
}

impl<R> Shared<R> {
    fn new() -> Self {
        Shared {
            finished: AtomicBool::new(false),
            state: Mutex::new(HandleState::Queued),
            cvar: Condvar::new(),
        }
    }

    /// Publishes a terminal state (`Done` or `Cancelled`) and wakes
    /// waiters.
    fn finish(&self, terminal: HandleState<R>) {
        let mut state = poison::recover(self.state.lock());
        *state = terminal;
        drop(state);
        self.finished.store(true, Ordering::Release);
        self.cvar.notify_all();
    }
}

/// Lets a worker of the same pool wait on a handle with the thief
/// protocol (steal and execute other work until the handle resolves)
/// instead of blocking — the same discipline `join` uses.
impl<R> Probe for Shared<R> {
    #[inline]
    fn probe(&self) -> bool {
        self.finished.load(Ordering::Acquire)
    }
}

/// The heap job behind a [`JobHandle`]: owns the closure, the registry
/// (for completion accounting) and the shared result slot.
struct AsyncJob<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    registry: Arc<Registry>,
    tenant: TenantId,
    shared: Arc<Shared<R>>,
    func: F,
}

impl<F, R> Job for AsyncJob<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    unsafe fn execute(this: *const ()) {
        let this = this as *mut AsyncJob<F, R>;
        {
            // Leave `Queued` while the box is still allocated: the handle
            // finds the job in the injection queue by this address, which
            // the allocator may hand to the next submission once freed.
            let shared = &(*this).shared;
            let mut state = poison::recover(shared.state.lock());
            if matches!(*state, HandleState::Cancelled) {
                // `cancel` owns this execution (it removed the job from
                // the queue first) and has already done the accounting;
                // dropping `func` un-run is all that is left.
                drop(state);
                drop(Box::from_raw(this));
                return;
            }
            *state = HandleState::Running;
        }
        let AsyncJob { registry, tenant, shared, func } = *Box::from_raw(this);
        let wt = WorkerThread::current();
        let result = if wt.is_null() {
            // Degraded rescue: the pool died with the job still queued and
            // the waiter is honoring the admission on its own thread. Run
            // inside a transient serial worker context so nested
            // `join`/`scope` calls stay on this pool (serial elision).
            registry.run_in_place(|_| run_captured(func))
        } else {
            run_captured(func)
        };
        // Completion is counted before the result is published: a waiter
        // released by the condvar must observe books that already balance
        // (`admitted == completed + cancelled`, quota slot returned).
        registry.injector.note_completed(tenant);
        shared.finish(HandleState::Done(result));
    }
}

/// Runs the closure, converting an unwind into the `Panic` result the
/// handle resumes at `wait` — identical to the synchronous path's
/// panic-payload propagation.
fn run_captured<F, R>(func: F) -> JobResult<R>
where
    F: FnOnce() -> R,
{
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
    shared: Arc<Shared<R>>,
    registry: Arc<Registry>,
    tenant: TenantId,
    job: JobRef,
}

// SAFETY: the embedded `JobRef` is only ever used under the exactly-once
// execution protocol documented in the module header (`Injector::cancel`
// success grants exclusive execution rights); the closure and result are
// `Send` by bound. Shared access (`&JobHandle`) only reads the job ref to
// attempt queue removal, which is internally synchronized by the shard
// lock.
unsafe impl<R: Send + 'static> Send for JobHandle<R> {}
// SAFETY: see `Send` above: `&JobHandle` only reads the job ref to attempt
// its removal under the shard lock.
unsafe impl<R: Send + 'static> Sync for JobHandle<R> {}

impl<R: Send + 'static> JobHandle<R> {
    /// The tenant this submission is billed to.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// `true` once the job has finished or been cancelled — i.e. once
    /// [`wait`](JobHandle::wait) would return without blocking. Never
    /// blocks; one atomic load.
    pub fn poll(&self) -> bool {
        self.shared.probe()
    }

    /// Waits until the job resolves or `timeout` elapses; `true` when
    /// resolved (finished or cancelled). The result stays in the handle —
    /// follow up with [`wait`](JobHandle::wait) to take it.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let start = Instant::now();
        loop {
            if self.shared.probe() {
                return true;
            }
            let Some(remaining) = timeout.checked_sub(start.elapsed()) else {
                return false;
            };
            self.rescue_if_degraded();
            let state = poison::recover(self.shared.state.lock());
            if matches!(*state, HandleState::Done(_) | HandleState::Cancelled) {
                return true;
            }
            let step = self.registry.rescue_step().map_or(remaining, |s| remaining.min(s));
            let (guard, _) = poison::recover(self.shared.cvar.wait_timeout(state, step));
            drop(guard);
        }
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
    pub fn wait(self) -> Option<R> {
        let wt = WorkerThread::current();
        // SAFETY: a non-null pointer names this thread's worker context,
        // live for as long as the worker runs the job that called us.
        if let Some(wt) = unsafe { wt.as_ref() } {
            if Arc::ptr_eq(wt.registry(), &self.registry) {
                wt.wait_until(&*self.shared);
            }
        }
        while !self.poll() && !self.wait_timeout(Duration::MAX) {}
        // The placeholder is never observed: this handle is consumed.
        let resolved = std::mem::replace(
            &mut *poison::recover(self.shared.state.lock()),
            HandleState::Cancelled,
        );
        match resolved {
            HandleState::Done(result) => Some(result.into_return_value()),
            _ => None,
        }
    }

    /// Attempts to cancel a not-yet-started job. `true` means the closure
    /// will never execute and the tenant's quota slot was released here
    /// (counted as cancelled, so the books still balance); `false` means a
    /// worker already claimed the job — cancel-after-start is refused, the
    /// job runs to completion and releases its own quota exactly once.
    pub fn cancel(&self) -> bool {
        if !self.take_from_queue(|state| {
            // Count the cancellation before publishing the terminal state
            // — a waiter released by the condvar must observe books that
            // already balance — and publish `Cancelled` before executing
            // so that execution observes the mark and drops the closure
            // un-run.
            self.registry.injector.note_cancelled(self.tenant);
            self.registry.probe(ProbeEvent::JobCancelled { tenant: self.tenant.0 });
            *state = HandleState::Cancelled;
        }) {
            return false;
        }
        self.shared.finished.store(true, Ordering::Release);
        self.shared.cvar.notify_all();
        // SAFETY: exclusive execution right established above; executes
        // the job exactly once (as a drop).
        unsafe { self.job.execute() };
        true
    }

    /// Removes the job from its injection shard if no worker has claimed
    /// it; `true` grants the caller the job's single execution, after
    /// `on_removed` has run under the state lock. The queue is searched by
    /// the job's address, which only identifies this job while its box is
    /// allocated — guaranteed while the state is `Queued`, since execution
    /// leaves that state (under this lock) before freeing the box.
    fn take_from_queue(&self, on_removed: impl FnOnce(&mut HandleState<R>)) -> bool {
        let mut state = poison::recover(self.shared.state.lock());
        let removed = matches!(*state, HandleState::Queued)
            && self.registry.injector.cancel(self.job);
        if removed {
            on_removed(&mut state);
        }
        removed
    }

    /// A fully dead pool (zero live workers, no recovery possible) can
    /// never claim the queued job; honor the admission by running it on
    /// this thread instead — completed, not cancelled, exactly like the
    /// synchronous path's degraded rescue.
    fn rescue_if_degraded(&self) {
        if self.registry.degraded_serial() && self.take_from_queue(|_| {}) {
            // SAFETY: queue removal grants the exclusive execution right;
            // the job body does its own completion accounting.
            unsafe { self.job.execute() };
        }
    }
}

impl<R: Send + 'static> std::fmt::Debug for JobHandle<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("tenant", &self.tenant)
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
        let shared = Arc::new(Shared::new());
        let unqueued = Unqueued(Box::into_raw(Box::new(AsyncJob {
            registry: Arc::clone(self),
            tenant,
            shared: Arc::clone(&shared),
            func: op,
        })));
        // SAFETY: the box stays valid until the job's single execution
        // (worker claim, cancel-drop, or degraded rescue) reclaims it;
        // until admission queues it, `unqueued` owns it.
        let job = unsafe { JobRef::new(unqueued.0) };
        self.admit(tenant, Placement::Queue(priority, job))?;
        std::mem::forget(unqueued);
        Ok(JobHandle { shared, registry: Arc::clone(self), tenant, job })
    }
}

/// Owns a boxed job until admission queues it: a refusal, or an `Inject`
/// fault unwinding out of admission, frees it here without running it.
struct Unqueued<T>(*mut T);

impl<T> Drop for Unqueued<T> {
    fn drop(&mut self) {
        // SAFETY: the pointer came from `Box::into_raw`, and the job was
        // never queued, so nothing else can reach or execute it.
        unsafe { drop(Box::from_raw(self.0)) };
    }
}
