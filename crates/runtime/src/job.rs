//! Jobs: the units of stealable work stored in worker deques.
//!
//! A [`JobRef`] is a type-erased pointer to a job plus its execute
//! function — the runtime analogue of the "activation frame" the paper
//! describes being pushed onto the worker's stack at each spawn.

use std::any::Any;
use std::cell::UnsafeCell;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::latch::{CountLatch, Latch, Probe};
use crate::unwind::{self, PanicPayload};

/// A type whose instances can be executed as jobs.
///
/// # Safety
///
/// `execute` consumes the logical job; it must be called at most once per
/// job instance, with a pointer produced by [`JobRef::new`].
pub(crate) trait Job {
    /// Executes the job.
    ///
    /// # Safety
    ///
    /// `this` must point to a live instance and must not be used afterwards.
    unsafe fn execute(this: *const ());
}

/// A type-erased, `Copy`able reference to a job.
#[derive(Clone, Copy, Debug)]
pub(crate) struct JobRef {
    pointer: *const (),
    execute_fn: unsafe fn(*const ()),
}

impl PartialEq for JobRef {
    fn eq(&self, other: &Self) -> bool {
        // Data-pointer identity suffices: each live job has a unique
        // address (function pointers are not compared; they may be
        // duplicated or merged by the compiler).
        std::ptr::eq(self.pointer, other.pointer)
    }
}

impl Eq for JobRef {}

// SAFETY: jobs are designed to be executed on other threads; the data they
// point to is either heap-allocated or stack memory that outlives the job
// (enforced by the latch protocol in `join` and `scope`).
unsafe impl Send for JobRef {}

impl JobRef {
    /// Creates a job reference from a pointer to a [`Job`] implementor.
    ///
    /// # Safety
    ///
    /// `data` must remain valid until the job executes.
    pub(crate) unsafe fn new<T: Job>(data: *const T) -> JobRef {
        JobRef { pointer: data.cast(), execute_fn: T::execute }
    }

    /// Executes the job, consuming this reference.
    ///
    /// # Safety
    ///
    /// Must be called exactly once across all copies of this `JobRef`.
    pub(crate) unsafe fn execute(self) {
        (self.execute_fn)(self.pointer)
    }
}

/// The result of a [`StackJob`] run on a thief, or the slot of a handle.
pub(crate) enum JobResult<R> {
    /// Not yet executed.
    None,
    /// Completed with a value.
    Ok(R),
    /// Panicked; the payload is resumed at the join point.
    Panic(PanicPayload),
}

impl<R> JobResult<R> {
    /// Consumes the result, resuming a captured panic if there was one.
    ///
    /// # Panics
    ///
    /// Panics (resumes) if the job panicked; panics if the job never ran.
    pub(crate) fn into_return_value(self) -> R {
        match self {
            JobResult::None => unreachable!("job was never executed"),
            JobResult::Ok(r) => r,
            JobResult::Panic(p) => unwind::resume_unwinding(p),
        }
    }
}

/// State a [`StrandLocal`] keeps for one stolen `join` continuation.
pub type StrandState = Box<dyn Any + Send>;

/// Per-strand state that follows the runtime's steals: "a view is created
/// on a steal and reduced at the sync" (§5). The runtime calls it only for
/// a `join` continuation that a thief (or a helping waiter) runs; an
/// un-stolen `join` never reaches it. `cilk-hyper` registers its view
/// frames here, once, before its first fork pushes anything or its first
/// reducer exists.
pub trait StrandLocal: Sync {
    /// On the thread about to run a stolen continuation, before it runs.
    fn enter(&self);

    /// On the same thread once the continuation returned or panicked:
    /// the state [`StrandLocal::enter`] opened, or `None` if there is
    /// nothing to hand back. It is dropped if the continuation panicked.
    fn leave(&self) -> Option<StrandState>;

    /// On the joining worker, after both sides of the `join` are at rest
    /// and past its `sync` fault point. Not called if either side panicked:
    /// the state is dropped instead.
    fn merge(&self, state: StrandState);
}

static STRAND_LOCAL: OnceLock<&'static dyn StrandLocal> = OnceLock::new();

/// Registers the process's [`StrandLocal`]. Registering the same one again
/// is a no-op.
///
/// # Panics
///
/// If a different `StrandLocal` is already registered: there is one slot.
pub fn set_strand_local(slot: &'static dyn StrandLocal) {
    let registered = *STRAND_LOCAL.get_or_init(|| slot);
    assert!(std::ptr::addr_eq(registered, slot), "another StrandLocal is registered");
}

/// Hands a stolen continuation's state to the registered [`StrandLocal`].
#[cold]
pub(crate) fn merge_strand_state(state: StrandState) {
    STRAND_LOCAL.get().expect("strand state comes from the registered StrandLocal").merge(state);
}

/// A job's value and, for a stolen `join` continuation, its
/// [`StrandLocal`] state.
type WithState<R> = (R, Option<StrandState>);

/// A job allocated on the stack of a `join` or `install` caller, who waits
/// on `latch` before returning so the job outlives any execution.
///
/// No drop glue: the job's one run (inline or [`Job::execute`]) takes the
/// closure, and only `execute` writes the result, which
/// [`StackJob::take_result`] moves out. A job that never runs leaks its
/// closure. A `JOIN` job is a `join` continuation: `execute` runs it under
/// the registered [`StrandLocal`] and returns that state beside its value.
pub(crate) struct StackJob<L, F, R, const JOIN: bool>
where
    L: Latch,
    F: FnOnce() -> R + Send,
    R: Send,
{
    /// Set when the job finishes (success or panic).
    pub(crate) latch: L,
    func: UnsafeCell<ManuallyDrop<F>>,
    /// Initialized by [`Job::execute`] before it sets the latch.
    result: UnsafeCell<MaybeUninit<JobResult<WithState<R>>>>,
}

impl<L, F, R, const JOIN: bool> StackJob<L, F, R, JOIN>
where
    L: Latch,
    F: FnOnce() -> R + Send,
    R: Send,
{
    /// Creates a stack job.
    pub(crate) fn new(func: F, latch: L) -> Self {
        StackJob {
            latch,
            func: UnsafeCell::new(ManuallyDrop::new(func)),
            result: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }

    /// Returns a type-erased reference to this job.
    ///
    /// # Safety
    ///
    /// The job must outlive the returned reference's execution; the caller
    /// ensures this by waiting on `latch`.
    pub(crate) unsafe fn as_job_ref(&self) -> JobRef {
        JobRef::new(self)
    }

    /// Runs the job inline on the owner after a successful un-push
    /// (the common, no-steal case), bypassing the latch.
    ///
    /// # Safety
    ///
    /// Must only be called by the owner, at most once, and only when the
    /// job was popped back before any thief executed it.
    #[inline]
    pub(crate) unsafe fn run_inline(&self) -> R {
        ManuallyDrop::take(&mut *self.func.get())()
    }

    /// Takes the result, and the [`StrandLocal`] state of a `JOIN` job,
    /// after the latch has been set.
    ///
    /// # Safety
    ///
    /// Must only be called once, after `latch.probe()` is true.
    pub(crate) unsafe fn take_result(&self) -> WithState<R> {
        (*self.result.get()).assume_init_read().into_return_value()
    }
}

impl<L, F, R, const JOIN: bool> Job for StackJob<L, F, R, JOIN>
where
    L: Latch,
    F: FnOnce() -> R + Send,
    R: Send,
{
    unsafe fn execute(this: *const ()) {
        let this = &*this.cast::<Self>();
        let func = ManuallyDrop::take(&mut *this.func.get());
        // One read of the slot serves both ends: a hook registered while
        // the continuation runs is not left without its `enter`.
        let strand = if JOIN { STRAND_LOCAL.get().copied() } else { None };
        if let Some(strand) = strand {
            strand.enter();
        }
        let result = unwind::halt_unwinding(func);
        let state = strand.and_then(|strand| strand.leave());
        let result = match result {
            Ok(r) => JobResult::Ok((r, state)),
            Err(p) => {
                // Before the latch: a joiner that sees it set finds the
                // state of a panicked side already gone.
                drop(state);
                crate::registry::note_panic_captured();
                JobResult::Panic(p)
            }
        };
        (*this.result.get()).write(result);
        // The latch set must be the last access: it releases the waiter.
        Latch::set(&this.latch);
    }
}

/// A heap-allocated job used by `scope::spawn`.
///
/// Completion is reported to the scope's [`CountLatch`]; panics are stashed
/// in the scope's shared panic slot rather than unwinding the worker.
pub(crate) struct HeapJob<F>
where
    F: FnOnce(bool) + Send,
{
    func: F,
    owner_index: usize,
}

impl<F> HeapJob<F>
where
    F: FnOnce(bool) + Send,
{
    /// Boxes a new heap job.
    pub(crate) fn new(owner_index: usize, func: F) -> Box<Self> {
        Box::new(HeapJob { func, owner_index })
    }

    /// Converts the box into a type-erased job reference.
    ///
    /// # Safety
    ///
    /// The returned `JobRef` must be executed exactly once, or the box
    /// leaks.
    pub(crate) unsafe fn into_job_ref(self: Box<Self>) -> JobRef {
        JobRef::new(Box::into_raw(self))
    }
}

impl<F> Job for HeapJob<F>
where
    F: FnOnce(bool) + Send,
{
    unsafe fn execute(this: *const ()) {
        let this = Box::from_raw(this.cast::<Self>().cast_mut());
        let migrated = crate::registry::current_worker_index() != Some(this.owner_index);
        (this.func)(migrated);
    }
}

/// Shared state backing one `scope`: the counting latch plus the first
/// captured panic (subsequent panics are dropped, like rayon and like the
/// "first exception wins" rule of Cilk++ exception handling).
pub(crate) struct ScopeState {
    pub(crate) latch: CountLatch,
    panic: UnsafeCell<Option<PanicPayload>>,
    panicked: AtomicUsize,
    /// Once set, not-yet-started sibling tasks skip their bodies (they
    /// still report to the latch). Set by the first captured panic and by
    /// explicit [`crate::Scope::cancel`].
    cancelled: AtomicBool,
}

// SAFETY: the panic slot is written at most once, guarded by the atomic
// `panicked` flag; reads happen only after the count latch is set.
unsafe impl Sync for ScopeState {}
// SAFETY: every field is `Send`: atomics, the latch, and a payload slot
// holding a `Box<dyn Any + Send>`.
unsafe impl Send for ScopeState {}

impl ScopeState {
    pub(crate) fn new() -> Self {
        ScopeState {
            latch: CountLatch::new(),
            panic: UnsafeCell::new(None),
            panicked: AtomicUsize::new(0),
            cancelled: AtomicBool::new(false),
        }
    }

    /// Records a panic payload if it is the first, and cancels the scope
    /// so not-yet-started siblings skip their bodies.
    pub(crate) fn capture_panic(&self, payload: PanicPayload) {
        self.cancel();
        if self.panicked.swap(1, Ordering::AcqRel) == 0 {
            // SAFETY: first (unique) writer, and readers wait for the latch.
            unsafe { *self.panic.get() = Some(payload) };
        }
    }

    /// Requests cancellation: tasks that have not started yet will skip
    /// their bodies (still reporting to the latch); running tasks finish.
    pub(crate) fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether this scope has been cancelled.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Takes the captured panic, if any. Call only after the latch is set.
    pub(crate) fn take_panic(&self) -> Option<PanicPayload> {
        debug_assert!(self.latch.probe());
        if self.panicked.load(Ordering::Acquire) == 1 {
            // SAFETY: latch set implies all writers finished.
            unsafe { (*self.panic.get()).take() }
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latch::CoreLatch;

    #[test]
    fn stack_job_runs_and_stores_result() {
        let job = StackJob::<_, _, _, false>::new(|| 1, CoreLatch::new());
        // SAFETY: `job` lives on this frame past the reference's execution.
        let job_ref = unsafe { job.as_job_ref() };
        assert!(!job.latch.probe());
        // SAFETY: the only execution of this reference.
        unsafe { job_ref.execute() };
        assert!(job.latch.probe());
        // SAFETY: taken once, after the latch was set (asserted above).
        let (value, state) = unsafe { job.take_result() };
        assert_eq!(value, 1);
        assert!(state.is_none(), "only a join continuation runs under the StrandLocal");
    }

    #[test]
    fn stack_job_inline_run_skips_the_latch() {
        let job = StackJob::<_, _, _, true>::new(|| 7, CoreLatch::new());
        // SAFETY: the owner runs it; no reference was ever handed out.
        assert_eq!(unsafe { job.run_inline() }, 7);
        assert!(!job.latch.probe());
    }

    #[test]
    fn stack_job_captures_panic() {
        let job: StackJob<CoreLatch, _, (), true> =
            StackJob::new(|| panic!("inner"), CoreLatch::new());
        // SAFETY: `job` lives on this frame past the reference's execution.
        let job_ref = unsafe { job.as_job_ref() };
        // SAFETY: the only execution of this reference.
        unsafe { job_ref.execute() };
        assert!(job.latch.probe());
        // SAFETY: taken once, after the latch was set (asserted above).
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            job.take_result()
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn heap_job_executes_once() {
        use std::sync::atomic::AtomicUsize;
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let job = HeapJob::new(0, |_| {
            RUNS.fetch_add(1, Ordering::SeqCst);
        });
        // SAFETY: executed exactly once, on the next line.
        let job_ref = unsafe { job.into_job_ref() };
        // SAFETY: the only execution of this reference.
        unsafe { job_ref.execute() };
        assert_eq!(RUNS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn scope_state_first_panic_wins() {
        let st = ScopeState::new();
        st.capture_panic(Box::new("first"));
        st.capture_panic(Box::new("second"));
        st.latch.decrement();
        let p = st.take_panic().expect("panic stored");
        assert_eq!(*p.downcast_ref::<&str>().expect("str"), "first");
    }

    #[test]
    fn scope_state_panic_implies_cancelled() {
        let st = ScopeState::new();
        assert!(!st.is_cancelled());
        st.capture_panic(Box::new("boom"));
        assert!(st.is_cancelled(), "first panic cancels siblings");
        let st2 = ScopeState::new();
        st2.cancel();
        assert!(st2.is_cancelled());
        st2.latch.decrement();
        assert!(st2.take_panic().is_none(), "explicit cancel is not a panic");
    }
}
