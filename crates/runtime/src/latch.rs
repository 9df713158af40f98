//! Latches: one-shot boolean gates used for all control synchronization.
//!
//! The paper notes that in Cilk++ "all protocols for control
//! synchronization are handled by the runtime system"; latches are that
//! protocol's primitive. A latch starts unset and is set exactly once.
//! Waiters either spin-and-steal (workers, see
//! [`crate::registry::WorkerThread::wait_until`]) or block on a mutex
//! (external threads, [`LockLatch`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::poison;

/// A latch that can be probed and set.
///
/// # Safety contract
///
/// `set` takes a raw pointer because setting a latch may *release* the
/// memory containing it (the waiter can be freed to return and pop its
/// stack frame the moment the latch becomes set). Implementations must not
/// touch `this` after the store that publishes the set state, and callers
/// must not use the pointer afterwards.
pub(crate) trait Latch {
    /// Sets the latch, waking any waiters.
    ///
    /// # Safety
    ///
    /// `this` must point to a live latch, and the caller must not
    /// dereference `this` after the call returns.
    unsafe fn set(this: *const Self);
}

/// A latch that waiters can poll.
pub(crate) trait Probe {
    /// Returns `true` once the latch has been set.
    fn probe(&self) -> bool;
}

const UNSET: usize = 0;
const SET: usize = 1;

/// The minimal spin latch: a single atomic word.
pub(crate) struct CoreLatch {
    state: AtomicUsize,
}

impl CoreLatch {
    pub(crate) fn new() -> Self {
        CoreLatch { state: AtomicUsize::new(UNSET) }
    }

    /// Sets the latch; returns `true` if this call performed the transition.
    #[inline]
    pub(crate) fn set_core(&self) -> bool {
        self.state.swap(SET, Ordering::Release) == UNSET
    }
}

impl Probe for CoreLatch {
    #[inline]
    fn probe(&self) -> bool {
        self.state.load(Ordering::Acquire) == SET
    }
}

impl Latch for CoreLatch {
    #[inline]
    unsafe fn set(this: *const Self) {
        (*this).set_core();
    }
}

/// A latch for blocking waits from threads outside the pool.
pub(crate) struct LockLatch {
    mutex: Mutex<bool>,
    cond: Condvar,
}

impl LockLatch {
    pub(crate) fn new() -> Self {
        LockLatch { mutex: Mutex::new(false), cond: Condvar::new() }
    }

    /// Blocks the calling thread until the latch is set.
    // Poison recovery throughout: the latch guards a single `bool`, which
    // is always consistent between operations — see `crate::poison`.
    pub(crate) fn wait(&self) {
        let guard = poison::recover(self.mutex.lock());
        drop(poison::recover(self.cond.wait_while(guard, |set| !*set)));
    }

    /// Blocks until the latch is set or `timeout` elapses; returns whether
    /// the latch was set. Backs the pool's stall detection
    /// ([`crate::Config::stall_timeout`]).
    pub(crate) fn wait_for(&self, timeout: Duration) -> bool {
        let guard = poison::recover(self.mutex.lock());
        *poison::recover(self.cond.wait_timeout_while(guard, timeout, |set| !*set)).0
    }
}

impl Latch for LockLatch {
    unsafe fn set(this: *const Self) {
        let this = &*this;
        let mut guard = poison::recover(this.mutex.lock());
        *guard = true;
        this.cond.notify_all();
    }
}

impl Probe for LockLatch {
    fn probe(&self) -> bool {
        *poison::recover(self.mutex.lock())
    }
}

/// A counting latch: set once the count returns to zero.
///
/// Used by [`crate::scope`] to wait for a dynamic number of spawned jobs
/// ("every Cilk function syncs implicitly before it returns").
pub(crate) struct CountLatch {
    counter: AtomicUsize,
    core: CoreLatch,
}

impl CountLatch {
    /// Creates a latch with an initial count of one (the scope body itself).
    pub(crate) fn new() -> Self {
        CountLatch { counter: AtomicUsize::new(1), core: CoreLatch::new() }
    }

    /// Increments the count; called before publishing each new job.
    #[inline]
    pub(crate) fn increment(&self) {
        let prev = self.counter.fetch_add(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "increment after latch was set");
    }

    /// Decrements; sets the core latch when the count reaches zero.
    /// Returns `true` if this call set the latch.
    #[inline]
    pub(crate) fn decrement(&self) -> bool {
        if self.counter.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.core.set_core()
        } else {
            false
        }
    }
}

impl Probe for CountLatch {
    #[inline]
    fn probe(&self) -> bool {
        self.core.probe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn core_latch_set_once() {
        let l = CoreLatch::new();
        assert!(!l.probe());
        assert!(l.set_core());
        assert!(l.probe());
        assert!(!l.set_core(), "second set reports no transition");
    }

    #[test]
    fn lock_latch_blocks_until_set() {
        let l = Arc::new(LockLatch::new());
        let l2 = Arc::clone(&l);
        let t = thread::spawn(move || {
            thread::sleep(std::time::Duration::from_millis(10));
            unsafe { Latch::set(&*l2 as *const LockLatch) };
        });
        l.wait();
        assert!(l.probe());
        t.join().expect("setter panicked");
    }

    #[test]
    fn lock_latch_wait_timeout_expires_then_succeeds() {
        let l = Arc::new(LockLatch::new());
        assert!(!l.wait_for(Duration::from_millis(5)), "unset latch times out");
        let l2 = Arc::clone(&l);
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            unsafe { Latch::set(&*l2 as *const LockLatch) };
        });
        assert!(l.wait_for(Duration::from_secs(30)), "set latch is observed");
        t.join().expect("setter panicked");
    }

    #[test]
    fn count_latch_waits_for_all() {
        let l = CountLatch::new();
        l.increment();
        l.increment();
        assert!(!l.decrement());
        assert!(!l.probe());
        assert!(!l.decrement());
        assert!(!l.probe());
        assert!(l.decrement()); // the initial count
        assert!(l.probe());
    }
}
