//! Virtual threads: the checker's replacement for `std::thread`.
//!
//! A spawned closure becomes a *virtual thread* multiplexed onto a pooled
//! OS thread; the engine runs exactly one virtual thread at a time and
//! chooses the interleaving at every shimmed atomic operation. Spawning is
//! deterministic (thread ids are assigned in spawn order), so schedule
//! strings replay across runs.
//!
//! Unlike `std::thread::JoinHandle`, [`JoinHandle::join`] returns `T`
//! directly: a panic on any virtual thread is a counterexample that aborts
//! the whole execution, so a join can never observe a panicked child.

use std::any::Any;
use std::marker::PhantomData;
use std::time::Duration;

use crate::engine;

/// Handle to a spawned virtual thread.
pub struct JoinHandle<T> {
    tid: usize,
    _marker: PhantomData<fn() -> T>,
}

/// Spawns a virtual thread running `f`. Panics when called outside a model
/// execution — virtual threads only exist under the checker.
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let tid = engine::spawn_vthread(Box::new(move || Box::new(f()) as Box<dyn Any + Send>));
    JoinHandle { tid, _marker: PhantomData }
}

/// Blocks the calling virtual thread until a wake token is pending for it,
/// then consumes the token — `std::thread::park` without spurious wake-ups.
/// A thread parked with no token in flight is simply never scheduled again;
/// if every live thread ends up blocked, the execution is reported as a
/// deadlock with a replayable schedule. Panics outside a model execution.
pub fn park() {
    engine::park_vthread();
}

/// Hands a wake token to the virtual thread `tid` (see
/// [`JoinHandle::tid`]). As with `std::thread::Thread::unpark`, tokens do
/// not accumulate, and the hand-over synchronizes-with the [`park`] that
/// consumes it. Panics outside a model execution.
pub fn unpark(tid: usize) {
    engine::unpark_vthread(tid);
}

/// A timed `std::thread::park`. The model has no clock, so the timeout
/// never fires: this is [`park`], and a model that relies on the timeout to
/// make progress ends in a deadlock (or its quiescence check) instead.
pub fn park_timeout(_timeout: Duration) {
    park();
}

/// A handle to a virtual thread, as `std::thread::Thread` is to a real
/// one: it can be cloned, stored and [`unpark`](Thread::unpark)ed.
#[derive(Clone, Debug)]
pub struct Thread {
    tid: usize,
}

impl Thread {
    /// Hands this thread a wake token (see [`unpark`]).
    pub fn unpark(&self) {
        unpark(self.tid);
    }
}

/// The calling virtual thread's handle (`std::thread::current`). Panics
/// outside a model execution.
pub fn current() -> Thread {
    Thread { tid: engine::current_vthread() }
}

impl<T: 'static> JoinHandle<T> {
    /// Blocks (as a schedulable transition with a happens-before edge)
    /// until the thread finishes, returning its result.
    pub fn join(self) -> T {
        *engine::join_vthread(self.tid)
            .downcast::<T>()
            .expect("join result type matches the spawn closure")
    }

    /// The virtual thread id, as it appears in schedule strings (`t<id>`).
    pub fn tid(&self) -> usize {
        self.tid
    }
}
