//! `join`: the primitive fork-join construct.
//!
//! `join(a, b)` is the runtime form of
//!
//! ```text
//! cilk_spawn a();
//! b();
//! cilk_sync;
//! ```
//!
//! with the Cilk++ *work-first* discipline: the calling worker executes `a`
//! immediately and pushes `b` (the continuation) onto the bottom of its
//! deque, where a thief may steal it from the top. If nobody steals `b`,
//! the worker pops it back and runs it inline — the common case, which the
//! paper credits for the runtime's "negligible overhead (less than 2%)" on
//! one processor.

use std::mem;

use crate::fault::{self, FaultSite};
use crate::job::{self, JobRef, StackJob, StrandState};
use crate::latch::{CoreLatch, Probe};
use crate::probe::{self, EventMask, ProbeEvent};
use crate::registry::WorkerThread;
use crate::unwind;

/// Runs `a` and `b`, potentially in parallel, returning both results.
///
/// Semantically equivalent to `(a(), b())` — the *serial elision*. `a`
/// executes on the calling worker and `b` may be stolen by an idle worker.
///
/// # Panics
///
/// If either closure panics, the panic is resumed by `join` after both
/// closures have come to rest. If both panic, `a`'s panic wins.
///
/// A stolen `b` runs under the registered [`crate::StrandLocal`], whose
/// state is merged here once both sides are at rest; an un-stolen `b`
/// never touches it.
///
/// # Examples
///
/// ```
/// let (a, b) = cilk_runtime::join(|| 1 + 1, || 2 + 2);
/// assert_eq!((a, b), (2, 4));
/// ```
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    // The one instrumentation gate: a single relaxed load of the probe
    // mask says whether a serial-capture consumer, SP-order labeling, strand
    // profile or `SCHED` consumer exists anywhere in the process. When none
    // does — every production run — the closures go to the worker as they
    // are, no session thread-local is touched, and events are only counted.
    if probe::gate_open(EventMask::SCHED) {
        return join_instrumented(a, b);
    }
    // SAFETY: `in_worker` hands its closure the current worker.
    crate::in_worker(move |wt| unsafe { join_on_worker::<false, _, _, _, _>(wt, a, b) })
}

/// [`join`] while something may be watching: wraps the branches
/// for each session kind active on this thread, and emits the join's events.
#[cold]
fn join_instrumented<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    // Under a serial-capture session (a race-detector run or an elision
    // profile; see [`crate::probe`]) the join runs as its serial elision
    // on the current thread, bracketed by the pedigree-stamped structure
    // events SP-bags needs: spawn a; return; b; sync.
    if let Some(capture) = probe::serial_capture() {
        return join_serial_capture(capture, a, b);
    }
    // An SP-order labeling session (parallel race detection; see
    // `probe::with_sp_root`) forks the current strand's label pair here:
    // each branch carries its frame bases into its closure and installs
    // them on whichever worker runs it, so "logically parallel" stays
    // decidable under any schedule.
    let (sp_a, sp_b) = match probe::sp_join_fork() {
        Some((child, cont)) => (Some(child), Some(cont)),
        None => (None, None),
    };
    let a = move || {
        let _sp = sp_a.map(probe::SpFrameGuard::enter);
        a()
    };
    let b = move || {
        let _sp = sp_b.map(probe::SpFrameGuard::enter);
        b()
    };
    // A strand-profiling session wraps both branches in frames whose
    // `Copy` context travels with the closure to whichever worker runs
    // it, then combines the two measures on the parent strand — exact at
    // any worker count.
    match probe::strand_children() {
        None => {
            // SAFETY: `in_worker` hands its closure the current worker.
            crate::in_worker(move |wt| unsafe { join_on_worker::<true, _, _, _, _>(wt, a, b) })
        }
        Some((actx, bctx)) => {
            // SAFETY: as above, `wt` is the current worker.
            let ((ra, ma), (rb, mb)) = crate::in_worker(move |wt| unsafe {
                join_on_worker::<true, _, _, _, _>(
                    wt,
                    move || {
                        let frame = probe::StrandScope::enter(actx);
                        let r = a();
                        (r, frame.finish())
                    },
                    move || {
                        let frame = probe::StrandScope::enter(bctx);
                        let r = b();
                        (r, frame.finish())
                    },
                )
            });
            probe::strand_combine(ma, mb);
            (ra, rb)
        }
    }
}

/// The serial-elision path of [`join`]: both branches run
/// depth-first on the current thread with structure events (and, when a
/// profiling session is also active, strand measures) around them.
fn join_serial_capture<A, B, RA, RB>(capture: probe::SerialCapture, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let profiled = probe::strand_children();
    capture.spawn_begin();
    // Both closures run under panic capture so the bracketing events
    // stay balanced even when one unwinds: skipping a `spawn_end` or
    // `sync` would silently desynchronize the detector's SP-bags state
    // for everything that follows in the session. This also matches
    // the parallel semantics (both sides come to rest; `a`'s panic
    // wins) rather than the strict serial elision.
    let (ra, ma) = run_captured_branch(profiled.map(|p| p.0), a);
    capture.spawn_end();
    let (rb, mb) = run_captured_branch(profiled.map(|p| p.1), b);
    capture.sync();
    if let (Some(ma), Some(mb)) = (ma, mb) {
        probe::strand_combine(ma, mb);
    }
    match (ra, rb) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(pa), _) => unwind::resume_unwinding(pa),
        (Ok(_), Err(pb)) => unwind::resume_unwinding(pb),
    }
}

/// Runs one captured branch, optionally inside a strand frame; a
/// panicking branch discards its measure (the panic unwinds the whole
/// profile anyway) but still pops its frame.
fn run_captured_branch<R>(
    ctx: Option<probe::StrandCtx>,
    f: impl FnOnce() -> R,
) -> (Result<R, Box<dyn std::any::Any + Send>>, Option<probe::Measure>) {
    match ctx {
        None => (unwind::halt_unwinding(f), None),
        Some(ctx) => {
            let frame = probe::StrandScope::enter(ctx);
            match unwind::halt_unwinding(f) {
                Ok(r) => {
                    let m = frame.finish();
                    (Ok(r), Some(m))
                }
                Err(p) => {
                    drop(frame);
                    (Err(p), None)
                }
            }
        }
    }
}

/// The worker-side implementation of `join`: push the continuation `b`,
/// run the child `a`, pop `b` back and run it (or wait for its thief),
/// then the implicit sync, and the merge of a stolen `b`'s
/// [`crate::StrandLocal`] state. No capture frame: if either side unwinds,
/// the [`JoinGuard`] brings `b` to rest, drops that state and restores the
/// depth. Its events are counted, and handed to the probe consumers only if
/// `EMIT`.
///
/// # Safety
///
/// Must be called on a worker thread; `wt` must be the current worker.
unsafe fn join_on_worker<const EMIT: bool, A, B, RA, RB>(wt: &WorkerThread, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let depth = wt.bump_depth();
    wt.record::<EMIT>(ProbeEvent::Spawn { worker: wt.index(), depth });

    let job_b = StackJob::<_, _, _, true>::new(b, CoreLatch::new());
    let job_b_ref = job_b.as_job_ref();
    wt.push::<EMIT>(job_b_ref);
    let mut guard =
        JoinGuard::<_, _, EMIT> { wt, job: &job_b, job_ref: job_b_ref, pending: true };

    // Work-first: `a` runs now. The `spawn` fault point is part of `a`, so
    // an injected panic is the spawned child panicking on entry.
    fault::fault_point_on(wt, FaultSite::Spawn);
    let result_a = a();
    let (result_b, stolen_state) = guard.join_b();
    mem::forget(guard);
    wt.drop_depth();

    // The implicit `cilk_sync`: an injected fault here surfaces after both
    // branches have come to rest, exactly like a panic at the sync point,
    // and drops a stolen `b`'s state unmerged.
    fault::fault_point_on(wt, FaultSite::Sync);
    if let Some(state) = stolen_state {
        job::merge_strand_state(state);
    }
    (result_a, result_b)
}

/// Holds an unwinding `join` frame until its spawned side is at rest: the
/// pushed [`JobRef`] (and any thief holding it) points at `job`'s stack
/// slot. Forgotten on the normal path.
struct JoinGuard<'a, F, R, const EMIT: bool>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    wt: &'a WorkerThread,
    job: &'a StackJob<CoreLatch, F, R, true>,
    job_ref: JobRef,
    /// `job` is still on the deque or with a thief.
    pending: bool,
}

impl<F, R, const EMIT: bool> JoinGuard<'_, F, R, EMIT>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    /// Brings the spawned side to rest and takes its result: pops it back
    /// and runs it inline if nobody stole it — the common case the paper
    /// credits for near-zero spawn overhead, with no strand state — or
    /// defers to [`resolve_spawned`] and takes the thief's result and state.
    ///
    /// # Safety
    ///
    /// At most once per guard, on the worker that pushed the job.
    #[inline(always)]
    unsafe fn join_b(&mut self) -> (R, Option<StrandState>) {
        let popped = self.wt.take_local_job();
        let popped_back = popped == Some(self.job_ref)
            || resolve_spawned(self.wt, &self.job.latch, self.job_ref, popped);
        self.pending = false;
        if popped_back {
            self.wt.record::<EMIT>(ProbeEvent::InlinePop { worker: self.wt.index() });
            (self.job.run_inline(), None)
        } else {
            self.job.take_result()
        }
    }
}

impl<F, R, const EMIT: bool> Drop for JoinGuard<'_, F, R, EMIT>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    /// `a` or `b` is unwinding. A pending `b` comes to rest under one
    /// capture that discards its panic, so `a`'s wins, and its strand
    /// state is dropped unmerged; each panic counts as captured, as a
    /// capture frame around each side would.
    #[cold]
    fn drop(&mut self) {
        let wt = self.wt;
        wt.probe(ProbeEvent::PanicCaptured { worker: wt.index() });
        // SAFETY: the guard lives from the push to `join_b` on the pushing
        // worker, and `pending` says `join_b` has not taken `job` yet.
        if self.pending && unwind::halt_unwinding(|| unsafe { self.join_b() }).is_err() {
            wt.probe(ProbeEvent::PanicCaptured { worker: wt.index() });
        }
        wt.drop_depth();
    }
}

/// The spawned side of a `join` did not pop straight back: `popped` is
/// another local job, deeper in the serial order (e.g. handoff surplus
/// claimed while `a` waited), which runs now; or nothing, because a thief
/// took `job_ref`. Returns whether the job popped back after all (to run
/// inline) rather than ran on a thief, whose latch is then set.
///
/// # Safety
///
/// Must run on the worker that pushed the job; `latch` must be its latch.
#[cold]
unsafe fn resolve_spawned(
    wt: &WorkerThread,
    latch: &CoreLatch,
    job_ref: JobRef,
    mut popped: Option<JobRef>,
) -> bool {
    loop {
        match popped {
            Some(job) if job == job_ref => return true,
            Some(other) => wt.execute(other),
            // Stolen: steal back other work while we wait.
            None => wt.wait_until(latch),
        }
        if latch.probe() {
            return false;
        }
        popped = wt.take_local_job();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| "left", || "right");
        assert_eq!((a, b), ("left", "right"));
    }

    #[test]
    fn join_nested() {
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        assert_eq!(fib(15), 610);
    }

    #[test]
    fn join_propagates_panic_from_a() {
        let r = std::panic::catch_unwind(|| {
            join(|| panic!("a dies"), || 42)
        });
        assert!(r.is_err());
    }

    #[test]
    fn join_propagates_panic_from_b() {
        let r = std::panic::catch_unwind(|| {
            join(|| 42, || panic!("b dies"))
        });
        assert!(r.is_err());
    }

    #[test]
    fn join_a_panic_wins_when_both_panic() {
        let r = std::panic::catch_unwind(|| join(|| panic!("a dies"), || panic!("b dies")));
        let payload = r.expect_err("join must panic");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("a dies"));
    }

    /// One `join` under `pool` with four more nested in its child, so the
    /// deepest nesting is 5. With `steal`, the continuation is forced onto
    /// a second worker: the nested pushes move it out of the owner's
    /// private deque window, and the innermost child holds the owner until
    /// a thief has started it. Returns the nesting depth each side saw.
    fn nested_join(
        pool: &crate::ThreadPool,
        steal: bool,
        a_panics: bool,
        b_panics: bool,
    ) -> std::thread::Result<(usize, usize)> {
        use std::sync::atomic::{AtomicBool, Ordering};

        fn nest(levels: usize, leaf: &(dyn Fn() + Sync)) {
            if levels == 0 {
                leaf();
            } else {
                join(|| nest(levels - 1, leaf), || ());
            }
        }
        let b_started = AtomicBool::new(!steal);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                join(
                    || {
                        let depth = crate::current_depth();
                        nest(4, &|| {
                            while !b_started.load(Ordering::Acquire) {
                                std::thread::yield_now();
                            }
                        });
                        assert!(!a_panics, "a dies");
                        depth
                    },
                    || {
                        b_started.store(true, Ordering::Release);
                        assert!(!b_panics, "b dies");
                        crate::current_depth()
                    },
                )
            })
        }))
    }

    #[test]
    fn caught_panics_restore_nesting_depth() {
        use crate::{Config, ThreadPool};

        for workers in [1usize, 2] {
            let pool = ThreadPool::with_config(Config::new().num_workers(workers)).expect("pool");
            let steal = workers == 2;
            for _ in 0..3 {
                assert!(nested_join(&pool, steal, true, false).is_err());
                assert!(nested_join(&pool, steal, false, true).is_err());
            }
            // `a` runs one join deep on its worker; so does a `b` popped
            // back inline, while a stolen `b` runs at its thief's top
            // level. With two workers that reads the depth of both.
            let depths = nested_join(&pool, steal, false, false).expect("no panic planted");
            assert_eq!(depths, (1, if steal { 0 } else { 1 }), "{workers} workers");
            assert_eq!(pool.metrics().depth_high_watermark, 5, "{workers} workers");
        }
    }

    /// An `a` that panics while its `b` runs on a thief must wait for the
    /// thief before the `join` frame (which holds `b`'s job) is popped:
    /// `b`'s flag is set when the panic arrives, `a`'s payload wins even
    /// when `b` panics too, and the nesting depth is restored.
    #[test]
    fn a_panic_waits_for_its_stolen_b() {
        use crate::{Config, ThreadPool};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::Duration;

        fn nest(levels: usize, leaf: &(dyn Fn() + Sync)) {
            if levels == 0 {
                leaf();
            } else {
                join(|| nest(levels - 1, leaf), || ());
            }
        }
        let pool = ThreadPool::with_config(Config::new().num_workers(2)).expect("pool");
        for b_panics in [false, true] {
            for _ in 0..200 {
                let b_started = AtomicBool::new(false);
                let b_done = AtomicBool::new(false);
                let (depth_before, caught, depth_after) = pool.install(|| {
                    let before = crate::current_depth();
                    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        join(
                            || {
                                // Four nested pushes publish `b` out of the
                                // owner's private window.
                                nest(4, &|| {
                                    while !b_started.load(Ordering::Acquire) {
                                        std::thread::yield_now();
                                    }
                                });
                                panic!("a dies")
                            },
                            || {
                                b_started.store(true, Ordering::Release);
                                std::thread::sleep(Duration::from_millis(1));
                                b_done.store(true, Ordering::Release);
                                assert!(!b_panics, "b dies");
                            },
                        )
                    }));
                    (before, caught, crate::current_depth())
                });
                let payload = caught.expect_err("a panicked");
                assert!(b_done.load(Ordering::Acquire), "the join returned before its thief");
                assert_eq!(payload.downcast_ref::<&str>().copied(), Some("a dies"));
                assert_eq!(depth_after, depth_before);
            }
        }
    }

    /// What a `join` adds to `faults_injected` and `panics_captured`: a
    /// planted `spawn` panic and a panicking `b` are captured once each; a
    /// planted `sync` panic surfaces after both sides rested, uncaptured.
    #[test]
    fn join_panic_and_fault_accounting() {
        use crate::fault::{FaultAction, FaultSite};
        use crate::{Config, ThreadPool};
        use std::sync::{Arc, Mutex};

        for workers in [1usize, 2] {
            let armed: Arc<Mutex<Option<FaultSite>>> = Arc::new(Mutex::new(None));
            let handler_armed = Arc::clone(&armed);
            let pool = ThreadPool::with_config(Config::new().num_workers(workers).fault_handler(
                Arc::new(move |site| {
                    let mut armed = handler_armed.lock().expect("not poisoned");
                    if *armed == Some(site) {
                        *armed = None;
                        FaultAction::Panic
                    } else {
                        FaultAction::Continue
                    }
                }),
            ))
            .expect("pool");
            let delta = |plant: Option<FaultSite>, b_panics: bool| {
                let before = pool.metrics();
                *armed.lock().expect("not poisoned") = plant;
                let caught = pool.install(|| {
                    std::panic::catch_unwind(|| join(|| (), || assert!(!b_panics, "b dies")))
                });
                assert!(caught.is_err(), "{workers} workers, {plant:?}: the join panicked");
                assert_eq!(*armed.lock().expect("not poisoned"), None, "the plant fired");
                let after = pool.metrics();
                (
                    after.faults_injected - before.faults_injected,
                    after.panics_captured - before.panics_captured,
                )
            };
            assert_eq!(delta(Some(FaultSite::Spawn), false), (1, 1), "{workers} workers: spawn");
            assert_eq!(delta(None, true), (0, 1), "{workers} workers: b");
            assert_eq!(delta(Some(FaultSite::Sync), false), (1, 0), "{workers} workers: sync");
        }
    }

    /// The one gate of `join`: closed, with no session thread-local
    /// touched, while nothing can be watching — a consumer of only `VIEW`
    /// or `LOCK` events cannot; open while a `SCHED` consumer is registered
    /// or a session of any of the three kinds is live, each of which then
    /// sees its join.
    #[test]
    fn the_gate_opens_for_each_session_kind_and_only_then() {
        use crate::probe::{self, EventMask, Probe, ProfileSpec};
        use crate::{Config, ThreadPool};
        use std::cell::Cell;
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        use std::thread;

        // Closed. The join runs on the pool's worker, which holds the mask
        // at `mask` and the thread-locals borrowed around it: taking the
        // instrumented path would panic on the first of them. The join is
        // counted all the same.
        let pool = ThreadPool::with_config(Config::new().num_workers(1)).expect("pool");
        for mask in [EventMask::NONE, EventMask::VIEW, EventMask::LOCK] {
            let before = pool.metrics();
            let sum = pool.install(|| {
                probe::with_mask_held_and_sessions_untouchable(mask, || {
                    assert!(!probe::gate_open(EventMask::SCHED), "{mask:?}");
                    let (a, b) = join(|| 1, || 2);
                    a + b
                })
            });
            assert_eq!(sum, 3);
            let after = pool.metrics();
            let counted = (after.spawns - before.spawns, after.inline_pops - before.inline_pops);
            assert_eq!(counted, (1, 1), "{mask:?}");
        }

        // Open under a `SCHED` consumer (active on its own pool's worker
        // only): the join's events reach it, which only the instrumented
        // instantiation of `join_on_worker` emits.
        struct Sched(AtomicU64, AtomicU64);
        impl Probe for Sched {
            fn mask(&self) -> EventMask {
                EventMask::SCHED
            }
            fn active(&self) -> bool {
                thread::current().name().is_some_and(|name| name.starts_with("join-gate-sched"))
            }
            fn on_event(&self, event: &ProbeEvent) {
                match event {
                    ProbeEvent::Spawn { .. } => self.0.fetch_add(1, Ordering::Relaxed),
                    ProbeEvent::InlinePop { .. } => self.1.fetch_add(1, Ordering::Relaxed),
                    _ => 0,
                };
            }
        }
        let sched = Arc::new(Sched(AtomicU64::new(0), AtomicU64::new(0)));
        let handle = probe::register(sched.clone());
        assert!(probe::gate_open(EventMask::SCHED));
        let pool = ThreadPool::with_config(
            Config::new().num_workers(1).thread_name_prefix("join-gate-sched"),
        )
        .expect("pool");
        assert_eq!(pool.install(|| join(|| 1, || 2)), (1, 2));
        drop(handle);
        let seen = (sched.0.load(Ordering::Relaxed), sched.1.load(Ordering::Relaxed));
        assert_eq!(seen, (1, 1), "the consumer saw the join's Spawn and InlinePop");

        // Open under serial capture (active on this thread only, so the
        // tests sharing the process keep their parallel joins): both
        // branches run here, as the serial elision.
        thread_local! {
            static CAPTURING: Cell<bool> = const { Cell::new(false) };
        }
        struct Capture;
        impl Probe for Capture {
            fn mask(&self) -> EventMask {
                EventMask::NONE
            }
            fn serial_capture(&self) -> bool {
                true
            }
            fn active(&self) -> bool {
                CAPTURING.with(Cell::get)
            }
            fn on_event(&self, _event: &ProbeEvent) {}
        }
        let capture = probe::register(Arc::new(Capture));
        CAPTURING.with(|c| c.set(true));
        assert!(probe::gate_open(EventMask::SCHED));
        let here = thread::current().id();
        let ran_on = join(|| thread::current().id(), || thread::current().id());
        assert_eq!(ran_on, (here, here));
        CAPTURING.with(|c| c.set(false));
        drop(capture);

        // Open under an SP-order labeling: the branches are labeled parallel.
        probe::with_sp_root(|| {
            assert!(probe::gate_open(EventMask::SCHED));
            let label = || probe::current_sp_label().expect("labeled branch");
            let (a, b) = join(label, label);
            assert!(a.parallel_with(&b));
        });

        // Open under a strand profile: the join is measured.
        let ((), profile) = probe::profile_strands(ProfileSpec::new(), || {
            assert!(probe::gate_open(EventMask::SCHED));
            join(|| probe::charge(1), || probe::charge(2));
        });
        assert_eq!((profile.work, profile.span, profile.spawns), (3, 2, 1));
    }
}
