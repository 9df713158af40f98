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

use crate::fault::{self, FaultSite};
use crate::job::{JobRef, StackJob};
use crate::latch::{CoreLatch, Probe};
use crate::probe::{self, ProbeEvent};
use crate::registry::WorkerThread;
use crate::unwind;

/// Context passed to the closures of [`join_context`].
#[derive(Debug, Clone, Copy)]
pub struct JoinContext {
    migrated: bool,
}

impl JoinContext {
    /// Whether this closure is executing on a different worker than the one
    /// that called `join` — i.e. whether the continuation was stolen.
    ///
    /// Reducer hyperobjects use this to decide when a fresh view must be
    /// created (§5 of the paper; see the `cilk-hyper` crate).
    pub fn migrated(&self) -> bool {
        self.migrated
    }
}

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
    join_context(|_| a(), |_| b())
}

/// Like [`join`], but the closures receive a [`JoinContext`] that reports
/// whether they migrated to another worker.
pub fn join_context<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce(JoinContext) -> RA + Send,
    B: FnOnce(JoinContext) -> RB + Send,
    RA: Send,
    RB: Send,
{
    // The one instrumentation gate: a single relaxed load of the probe
    // mask says whether any serial-capture consumer, SP-order labeling or
    // strand profile exists anywhere in the process. When none does — every
    // production run — the caller's closures go to the worker as they are
    // and no session thread-local is touched.
    if probe::sessions_possible() {
        return join_instrumented(a, b);
    }
    // SAFETY: `in_worker` hands its closure the current worker.
    crate::in_worker(move |wt| unsafe { join_on_worker(wt, a, b) })
}

/// [`join_context`] while some session may be watching: consults each of
/// the three session kinds on this thread and wraps the branches for the
/// ones that are active here.
#[cold]
fn join_instrumented<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce(JoinContext) -> RA + Send,
    B: FnOnce(JoinContext) -> RB + Send,
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
    let a = move |ctx| {
        let _sp = sp_a.map(probe::SpFrameGuard::enter);
        a(ctx)
    };
    let b = move |ctx| {
        let _sp = sp_b.map(probe::SpFrameGuard::enter);
        b(ctx)
    };
    // A strand-profiling session wraps both branches in frames whose
    // `Copy` context travels with the closure to whichever worker runs
    // it, then combines the two measures on the parent strand — exact at
    // any worker count.
    match probe::strand_children() {
        // SAFETY: `in_worker` hands its closure the current worker.
        None => crate::in_worker(move |wt| unsafe { join_on_worker(wt, a, b) }),
        Some((actx, bctx)) => {
            // SAFETY: as above, `wt` is the current worker.
            let ((ra, ma), (rb, mb)) = crate::in_worker(move |wt| unsafe {
                join_on_worker(
                    wt,
                    move |ctx| {
                        let frame = probe::StrandScope::enter(actx);
                        let r = a(ctx);
                        (r, frame.finish())
                    },
                    move |ctx| {
                        let frame = probe::StrandScope::enter(bctx);
                        let r = b(ctx);
                        (r, frame.finish())
                    },
                )
            });
            probe::strand_combine(ma, mb);
            (ra, rb)
        }
    }
}

/// The serial-elision path of [`join_context`]: both branches run
/// depth-first on the current thread with structure events (and, when a
/// profiling session is also active, strand measures) around them.
fn join_serial_capture<A, B, RA, RB>(capture: probe::SerialCapture, a: A, b: B) -> (RA, RB)
where
    A: FnOnce(JoinContext) -> RA + Send,
    B: FnOnce(JoinContext) -> RB + Send,
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
    let (ra, ma) = run_captured_branch(profiled.map(|p| p.0), || a(JoinContext { migrated: false }));
    capture.spawn_end();
    let (rb, mb) = run_captured_branch(profiled.map(|p| p.1), || b(JoinContext { migrated: false }));
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

/// The worker-side implementation of `join_context`: push the continuation
/// `b`, run the child `a`, pop `b` back or wait for its thief, then the
/// implicit sync. Both sides come to rest before the sync, and `a`'s panic
/// wins.
///
/// # Safety
///
/// Must be called on a worker thread; `wt` must be the current worker.
unsafe fn join_on_worker<A, B, RA, RB>(wt: &WorkerThread, a: A, b: B) -> (RA, RB)
where
    A: FnOnce(JoinContext) -> RA + Send,
    B: FnOnce(JoinContext) -> RB + Send,
    RA: Send,
    RB: Send,
{
    // Strand boundary: tell the supervisor this worker is making progress.
    wt.beat(crate::supervisor::BeatSite::JoinEntry);
    let depth = wt.bump_depth();
    wt.probe(ProbeEvent::Spawn { worker: wt.index(), depth });

    let job_b = StackJob::new(
        wt.index(),
        |migrated| b(JoinContext { migrated }),
        CoreLatch::new(),
    );
    let job_b_ref = job_b.as_job_ref();
    wt.push(job_b_ref);

    // Execute `a` on this worker (work-first). The `spawn` fault point sits
    // inside the capture frame, so an injected panic is indistinguishable
    // from the spawned child itself panicking on entry.
    let status_a = unwind::halt_unwinding(|| {
        fault::fault_point(FaultSite::Spawn);
        a(JoinContext { migrated: false })
    });
    if status_a.is_err() {
        crate::registry::note_panic_captured();
    }

    // Bring `b` to rest whatever `a` did (its frame may be live on a
    // thief). `job_b` must not move before it is resolved — the pushed
    // `JobRef` points at this stack slot — so only the consuming step runs
    // under capture, which is what lets every outcome of either side leave
    // through the one `drop_depth` below.
    let resolved = resolve_spawned(wt, &job_b, job_b_ref);
    let status_b = unwind::halt_unwinding(move || match resolved {
        Resolved::PoppedBack => job_b.run_inline(wt.index()),
        Resolved::LatchSet => job_b.into_result(),
    });
    if status_b.is_err() {
        crate::registry::note_panic_captured();
    }

    wt.drop_depth();

    let (result_a, result_b) = match (status_a, status_b) {
        (Ok(result_a), Ok(result_b)) => (result_a, result_b),
        (Err(panic_a), _) => unwind::resume_unwinding(panic_a),
        (Ok(_), Err(panic_b)) => unwind::resume_unwinding(panic_b),
    };

    // The implicit `cilk_sync`: an injected fault here surfaces after both
    // branches have come to rest, exactly like a panic at the sync point.
    let status_sync = unwind::halt_unwinding(|| fault::fault_point(FaultSite::Sync));

    match status_sync {
        Ok(()) => (result_a, result_b),
        Err(panic_sync) => {
            drop((result_a, result_b));
            unwind::resume_unwinding(panic_sync)
        }
    }
}

/// How the spawned side of a `join` came to rest (see [`resolve_spawned`]).
enum Resolved {
    /// The owner popped the job back before any thief claimed it: run it
    /// inline, bypassing the latch.
    PoppedBack,
    /// A thief executed the job and set its latch: take the stored result.
    LatchSet,
}

/// Brings the spawned (pushed) side of a `join` to rest: pops it back if
/// no thief claimed it — the common case the paper credits for near-zero
/// spawn overhead — or helps with other work until the thief finishes.
///
/// The job is borrowed, never moved: the pushed [`JobRef`] (and any thief
/// holding it) points at the job's stack slot, so it must stay put until
/// the caller consumes it according to the returned [`Resolved`].
///
/// # Safety
///
/// Must run on the worker that pushed `job`; `job_ref` must refer to it.
unsafe fn resolve_spawned<F, R>(
    wt: &WorkerThread,
    job: &StackJob<CoreLatch, F, R>,
    job_ref: JobRef,
) -> Resolved
where
    F: FnOnce(bool) -> R + Send,
    R: Send,
{
    loop {
        if job.latch.probe() {
            return Resolved::LatchSet;
        }
        if let Some(local) = wt.take_local_job() {
            if local == job_ref {
                // Nobody stole it: the caller runs it inline.
                wt.probe(ProbeEvent::InlinePop { worker: wt.index() });
                return Resolved::PoppedBack;
            }
            // Some other local job (e.g. a scope spawn pushed by the side
            // that already ran): it is deeper in the serial order, so
            // execute it now.
            wt.execute(local);
            continue;
        }
        // The job was stolen; steal back other work while we wait.
        wt.wait_until(&job.latch);
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

    /// The one gate of `join_context`: closed, with no session thread-local
    /// touched, while nothing can be watching; open while a session of any
    /// of the three kinds is live, each of which then sees its join.
    #[test]
    fn the_gate_opens_for_each_session_kind_and_only_then() {
        use crate::probe::{self, EventMask, Probe, ProfileSpec};
        use crate::{Config, ThreadPool};
        use std::cell::Cell;
        use std::sync::Arc;
        use std::thread;

        // Closed. The join runs on the pool's worker, which holds the mask
        // empty and the thread-locals borrowed around it: taking the
        // instrumented path would panic on the first of them.
        let pool = ThreadPool::with_config(Config::new().num_workers(1)).expect("pool");
        let sum = pool.install(|| {
            probe::with_sessions_closed_and_untouchable(|| {
                assert!(!probe::sessions_possible());
                let (a, b) = join(|| 1, || 2);
                a + b
            })
        });
        assert_eq!(sum, 3);

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
        assert!(probe::sessions_possible());
        let here = thread::current().id();
        let ran_on = join(|| thread::current().id(), || thread::current().id());
        assert_eq!(ran_on, (here, here));
        CAPTURING.with(|c| c.set(false));
        drop(capture);

        // Open under an SP-order labeling: the branches are labeled parallel.
        probe::with_sp_root(|| {
            assert!(probe::sessions_possible());
            let label = || probe::current_sp_label().expect("labeled branch");
            let (a, b) = join(label, label);
            assert!(a.parallel_with(&b));
        });

        // Open under a strand profile: the join is measured.
        let ((), profile) = probe::profile_strands(ProfileSpec::new(), || {
            assert!(probe::sessions_possible());
            join(|| probe::charge(1), || probe::charge(2));
        });
        assert_eq!((profile.work, profile.span, profile.spawns), (3, 2, 1));
    }

    #[test]
    fn join_context_reports_not_migrated_for_a() {
        let (ma, _mb) = join_context(|ctx| ctx.migrated(), |ctx| ctx.migrated());
        assert!(!ma, "work-first runs the left branch on the calling worker");
    }
}
