//! `scope`: structured task parallelism with an implicit sync.
//!
//! A scope models a Cilk function body: tasks spawned inside it may run in
//! parallel, and the scope does not return until all of them complete —
//! the paper's "every Cilk function syncs implicitly before it returns".

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::fault::{self, FaultSite};
use crate::job::{HeapJob, ScopeState};
use crate::probe::{self, EventMask, ProbeEvent};
use crate::registry::WorkerThread;
use crate::unwind;

/// Context passed to closures spawned with [`Scope::spawn`].
#[derive(Debug, Clone, Copy)]
pub struct TaskContext {
    migrated: bool,
    seq: u64,
}

impl TaskContext {
    /// Whether the task executed on a worker other than the spawner.
    pub fn migrated(&self) -> bool {
        self.migrated
    }

    /// The task's spawn sequence number within its scope (0-based, in
    /// program spawn order). Reducer hyperobjects use this to merge views
    /// deterministically in serial order.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// A scope in which tasks can be spawned; see [`scope`].
pub struct Scope<'scope> {
    /// Null when the scope runs in serial-capture mode (a serial-capture
    /// probe consumer — a race-detector session or an elision profile —
    /// is active on the creating thread; see [`crate::probe`]): tasks
    /// then execute inline at the spawn site, bracketed by structure
    /// events.
    state: *const ScopeState,
    seq: AtomicU64,
    owner_index: usize,
    /// Strand-profiling session of the enclosing `scope` call, if one was
    /// active on the creating thread.
    session: Option<probe::ScopeSession>,
    /// Measures of completed profiled tasks; points into the `scope`
    /// stack frame, null when `session` is `None`. Kept alive past every
    /// task by the scope's count latch.
    measures: *const Mutex<Vec<(u64, probe::Measure)>>,
    marker: PhantomData<&'scope mut &'scope ()>,
}

// SAFETY: the scope is shared with spawned tasks on other threads; all
// mutable state behind `state`/`measures` is synchronized (atomics +
// latch protocol, mutex).
unsafe impl Sync for Scope<'_> {}
// SAFETY: as for `Sync`; moving a `Scope` moves only pointers to that
// synchronized state.
unsafe impl Send for Scope<'_> {}

/// Wrapper making a raw `ScopeState` pointer `Send` for capture in jobs.
/// Validity is guaranteed by the scope's count latch: the state outlives
/// every spawned job.
struct StatePtr(*const ScopeState);
// SAFETY: `ScopeState` is `Sync`, and the latch keeps it alive (above).
unsafe impl Send for StatePtr {}

/// Wrapper making the task-measure collector pointer `Send`; same
/// validity argument as [`StatePtr`]. Null when the scope is unprofiled.
#[derive(Clone, Copy)]
struct MeasuresPtr(*const Mutex<Vec<(u64, probe::Measure)>>);
// SAFETY: the pointee is a `Mutex`, and the latch keeps it alive (above).
unsafe impl Send for MeasuresPtr {}

impl MeasuresPtr {
    /// Records a finished task's measure.
    ///
    /// # Safety
    ///
    /// The pointer must be non-null and the collector still alive (both
    /// guaranteed by the scope latch for measures pushed by live tasks).
    unsafe fn push(self, seq: u64, m: probe::Measure) {
        let measures = &*self.0;
        crate::poison::recover(measures.lock()).push((seq, m));
    }
}

impl<'scope> Scope<'scope> {
    /// Spawns `body` as a task of this scope. The task may execute on any
    /// worker, any time before the scope completes.
    ///
    /// Unlike `join`, spawned tasks are fire-and-forget: results are
    /// communicated through captured state (or reducers). `spawn` enqueues
    /// the task and returns immediately: a fire-and-forget task has no
    /// continuation to expose. Degraded serial pools drain tasks in spawn
    /// order.
    pub fn spawn<F>(&self, body: F)
    where
        F: FnOnce(TaskContext) + Send + 'scope,
    {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let task_ctx = self.session.map(|sess| probe::task_ctx(sess.task_base, seq));
        // SP-order labeling (parallel race detection): fork the task's
        // label bases off the spawning strand's frame — the spawner
        // continues as the task's parallel sibling — and let the task
        // install them on whichever worker runs it.
        let sp_task = if probe::gate_open(EventMask::NONE) { probe::sp_task_fork() } else { None };
        if self.state.is_null() {
            // Serial-capture mode: run the task now, as the serial elision
            // would, emitting spawn/return events for the detector. Capture
            // a panicking body so `spawn_end` still fires (an unbalanced
            // spawn would desync the detector's SP-bags state), then resume.
            let capture = probe::serial_capture()
                .expect("serial-capture scope outside a capture session");
            capture.spawn_begin();
            let frame = task_ctx.map(probe::StrandScope::enter);
            let _sp = sp_task.map(probe::SpFrameGuard::enter);
            let status = unwind::halt_unwinding(|| body(TaskContext { migrated: false, seq }));
            let measure = match (&status, frame) {
                (Ok(()), Some(frame)) => Some(frame.finish()),
                _ => None,
            };
            capture.spawn_end();
            if let Some(m) = measure {
                // SAFETY: `measures` is non-null whenever `session` is
                // Some, and the collector lives on the enclosing `scope`
                // frame, which cannot return while we run inline in it.
                unsafe { MeasuresPtr(self.measures).push(seq, m) };
            }
            if let Err(payload) = status {
                unwind::resume_unwinding(payload);
            }
            return;
        }
        // SAFETY: the latch keeps `state` alive until all tasks finish.
        let state = unsafe { &*self.state };
        state.latch.increment();
        let state_ptr = StatePtr(self.state);
        let measures_ptr = MeasuresPtr(self.measures);
        let job = HeapJob::new(self.owner_index, move |migrated| {
            let state_ptr = state_ptr;
            // SAFETY: see StatePtr.
            let state = unsafe { &*state_ptr.0 };
            if state.is_cancelled() {
                // A sibling panicked (or the scope was cancelled): skip the
                // body, but still report to the latch so the scope drains.
                crate::registry::note_task_cancelled();
                state.latch.decrement();
                return;
            }
            // A profiled task re-installs its strand frame on whichever
            // worker runs it; the measure lands in the scope's collector.
            // A labeled task likewise installs its SP-order frame there.
            let frame = task_ctx.map(probe::StrandScope::enter);
            let _sp = sp_task.map(probe::SpFrameGuard::enter);
            let status = unwind::halt_unwinding(|| {
                fault::fault_point(FaultSite::Spawn);
                body(TaskContext { migrated, seq })
            });
            match status {
                Ok(()) => {
                    if let Some(frame) = frame {
                        // SAFETY: see MeasuresPtr; the latch we have not
                        // yet decremented keeps the collector alive.
                        unsafe { measures_ptr.push(seq, frame.finish()) };
                    }
                }
                Err(payload) => {
                    drop(frame);
                    crate::registry::note_panic_captured();
                    state.capture_panic(payload);
                }
            }
            state.latch.decrement();
        });
        // SAFETY: the job executes exactly once: either by a worker that
        // pops/steals it, or it stays queued until the scope drains it.
        let job_ref = unsafe { job.into_job_ref() };
        let wt = WorkerThread::current();
        if wt.is_null() {
            // The scope body and every task run on pool workers (`scope`
            // goes through `in_worker`). Handing `&Scope` to a thread the
            // caller started itself is unsupported: panic, don't inject.
            unreachable!("Scope::spawn outside a worker thread");
        }
        // SAFETY: current() is non-null here and valid for this thread.
        let wt = unsafe { &*wt };
        // Strand boundary: tell the supervisor this worker is making
        // progress.
        wt.beat(crate::supervisor::BeatSite::ScopeSpawn);
        wt.probe(ProbeEvent::ScopeSpawn { worker: wt.index() });
        // Published immediately: scope tasks exist to be picked up by
        // other workers while this one continues the scope body, so they
        // must not linger in the owner's private window.
        wt.push_published(job_ref);
    }

    /// Cancels the scope: tasks that have not started yet skip their
    /// bodies (each counted in the pool's `tasks_cancelled` metric).
    /// Already-running tasks finish normally, and the scope still waits
    /// for everything at its implicit sync. Idempotent.
    ///
    /// This is the same mechanism the runtime uses internally when a task
    /// panics: the first panic cancels the remaining siblings.
    pub fn cancel(&self) {
        if self.state.is_null() {
            // Serial-capture mode runs tasks inline at the spawn site;
            // there are never pending tasks to cancel.
            return;
        }
        // SAFETY: the latch keeps `state` alive while the scope exists.
        unsafe { (*self.state).cancel() }
    }

    /// Whether this scope has been cancelled (explicitly via
    /// [`Scope::cancel`] or implicitly by a panicking task).
    pub fn is_cancelled(&self) -> bool {
        if self.state.is_null() {
            return false;
        }
        // SAFETY: the latch keeps `state` alive while the scope exists.
        unsafe { (*self.state).is_cancelled() }
    }
}

/// Creates a scope, runs `op` inside it, and waits for every task spawned
/// within (directly or transitively) to finish before returning.
///
/// # Panics
///
/// Panics (after all tasks complete) if `op` or any spawned task panicked;
/// the first panic wins.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicU32, Ordering};
///
/// let hits = AtomicU32::new(0);
/// cilk_runtime::scope(|s| {
///     for _ in 0..8 {
///         s.spawn(|_ctx| {
///             hits.fetch_add(1, Ordering::Relaxed);
///         });
///     }
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 8);
/// ```
pub fn scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    // `join`'s gate without its `SCHED` group: one relaxed load decides
    // whether any of the three session kinds can be watching; when none
    // can, no session thread-local is touched.
    let (session, sp_scope) = if probe::gate_open(EventMask::NONE) {
        // Under a serial-capture session the scope body runs on the
        // current thread with inline task execution; the scope's implicit
        // sync is reported when the body returns.
        if let Some(capture) = probe::serial_capture() {
            return scope_serial_capture(capture, op);
        }
        // Strand profiling of a scope uses the fork-at-start model
        // (body ∥ task₀ ∥ task₁ ∥ …; see `docs/probe.md`): the body and
        // each task run in their own frame, finished measures collect
        // here, and the combine happens on the calling thread after the
        // implicit sync. SP-order labeling: the scope body runs in its own
        // sub-frame (serial with the surrounding code) from which
        // `Scope::spawn` forks task labels; the caller's frame retires
        // past the implicit sync.
        (probe::strand_scope_begin(), probe::sp_scope_begin())
    } else {
        (None, None)
    };
    let measures: Mutex<Vec<(u64, probe::Measure)>> = Mutex::new(Vec::new());
    let measures_ptr = if session.is_some() {
        MeasuresPtr(&measures)
    } else {
        MeasuresPtr(std::ptr::null())
    };
    let (result, body_measure) = crate::in_worker(move |wt| {
        // Capture the whole `Send` wrapper, not just its pointer field
        // (edition-2021 closures capture disjoint fields by default).
        let measures_ptr = measures_ptr;
        let state = ScopeState::new();
        let scope = Scope {
            state: &state,
            seq: AtomicU64::new(0),
            owner_index: wt.index(),
            session,
            measures: measures_ptr.0,
            marker: PhantomData,
        };
        let body_frame = session.map(|s| probe::StrandScope::enter(s.body));
        let _sp_body = sp_scope.map(probe::SpFrameGuard::enter);
        let (result, body_measure) = match unwind::halt_unwinding(|| op(&scope)) {
            Ok(r) => (Some(r), body_frame.map(probe::StrandScope::finish)),
            Err(payload) => {
                drop(body_frame);
                crate::registry::note_panic_captured();
                state.capture_panic(payload);
                (None, None)
            }
        };
        // Drop the scope body's own unit of the count, then drain.
        state.latch.decrement();
        wt.wait_until(&state.latch);
        if let Some(payload) = state.take_panic() {
            unwind::resume_unwinding(payload);
        }
        // The implicit sync: every task has come to rest, none panicked.
        // An injected fault here surfaces like a panic at `cilk_sync`.
        fault::fault_point(FaultSite::Sync);
        (result.expect("scope body neither returned nor panicked"), body_measure)
    });
    if let (Some(sess), Some(body_measure)) = (session, body_measure) {
        let tasks = std::mem::take(&mut *crate::poison::recover(measures.lock()));
        probe::strand_scope_combine(sess.body.burden, body_measure, tasks);
    }
    result
}

/// The serial-elision path of [`scope`]: the body runs on the current
/// thread, tasks execute inline at their spawn sites, and the implicit
/// sync is reported (and the profile combined) when the body returns.
fn scope_serial_capture<'scope, OP, R>(capture: probe::SerialCapture, op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    let session = probe::strand_scope_begin();
    let measures: Mutex<Vec<(u64, probe::Measure)>> = Mutex::new(Vec::new());
    let scope = Scope {
        state: std::ptr::null(),
        seq: AtomicU64::new(0),
        owner_index: usize::MAX,
        session,
        measures: if session.is_some() { &measures } else { std::ptr::null() },
        marker: PhantomData,
    };
    let body_frame = session.map(|s| probe::StrandScope::enter(s.body));
    match unwind::halt_unwinding(|| op(&scope)) {
        Ok(result) => {
            let body_measure = body_frame.map(probe::StrandScope::finish);
            capture.sync();
            if let (Some(sess), Some(body_measure)) = (session, body_measure) {
                let tasks = std::mem::take(&mut *crate::poison::recover(measures.lock()));
                probe::strand_scope_combine(sess.body.burden, body_measure, tasks);
            }
            result
        }
        Err(payload) => {
            // Matches the pre-probe behaviour: a panicking body skips the
            // sync event (the session is torn down by the unwind anyway),
            // but the profiling frame must still pop.
            drop(body_frame);
            unwind::resume_unwinding(payload)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_waits_for_all_tasks() {
        let count = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..100 {
                s.spawn(|_| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn nested_spawns_complete() {
        let count = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..4 {
                s.spawn(|_| {
                    scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|_| {
                                count.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn scope_returns_value() {
        let v = scope(|_| 1234);
        assert_eq!(v, 1234);
    }

    #[test]
    fn task_seq_numbers_are_program_order() {
        scope(|s| {
            for i in 0..10u64 {
                s.spawn(move |ctx| {
                    assert_eq!(ctx.seq(), i);
                });
            }
        });
    }

    #[test]
    fn scope_task_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            scope(|s| {
                s.spawn(|_| panic!("task dies"));
            });
        });
        assert!(r.is_err());
    }

    #[test]
    fn explicit_cancel_skips_pending_tasks() {
        let ran = AtomicUsize::new(0);
        scope(|s| {
            s.cancel();
            assert!(s.is_cancelled());
            for _ in 0..16 {
                s.spawn(|_| {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        // Every task was spawned after the cancel, so none may run. (Tasks
        // already running at cancel time would be allowed to finish.)
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn scope_body_panic_propagates_after_tasks() {
        let count = AtomicUsize::new(0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scope(|s| {
                s.spawn(|_| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
                panic!("body dies");
            });
        }));
        assert!(r.is_err());
        // The body's panic cancels not-yet-started tasks; depending on the
        // schedule the task either completed before the cancel or was
        // skipped — never half-run (it increments exactly once or never).
        assert!(count.load(Ordering::Relaxed) <= 1);
    }
}
