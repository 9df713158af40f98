//! Latches: one-shot boolean gates used for all control synchronization.
//!
//! The paper notes that in Cilk++ "all protocols for control
//! synchronization are handled by the runtime system"; latches are that
//! protocol's primitive. A latch starts unset and is set exactly once.
//! Waiters either spin-and-steal (workers, see
//! [`crate::registry::WorkerThread::wait_until`]) or poll briefly and then
//! park (external threads, [`LockLatch`]).

// The model-checker seam (see `crate::idle`): cilk-check mirrors the
// `std` paths used here, park/unpark included.
#[cfg(cilk_check)]
use cilk_check as shim;
#[cfg(not(cilk_check))]
use std as shim;

use shim::sync::atomic::{AtomicUsize, Ordering};
use shim::thread::{self, Thread};
use std::time::{Duration, Instant};

use crate::registry::{self, WAIT_SPINS, WAIT_YIELDS};

/// A latch that can be probed and set.
///
/// # Safety contract
///
/// `set` takes a raw pointer because setting a latch may *release* the
/// memory containing it (the waiter can be freed to return and pop its
/// stack frame the moment the latch becomes set). Implementations must not
/// touch `this` after the store that publishes the set state, and callers
/// must not use the pointer afterwards.
pub trait Latch {
    /// Sets the latch, waking any waiters.
    ///
    /// # Safety
    ///
    /// `this` must point to a live latch, and the caller must not
    /// dereference `this` after the call returns.
    unsafe fn set(this: *const Self);
}

/// A latch that waiters can poll.
pub trait Probe {
    /// Returns `true` once the latch has been set.
    fn probe(&self) -> bool;
}

const UNSET: usize = 0;
const SET: usize = 1;
/// [`LockLatch`] only: the waiter gave up polling and parks until set.
const SLEEPING: usize = 2;

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
        // SAFETY: the caller passes a live latch; nothing follows the swap.
        unsafe { (*this).set_core() };
    }
}

/// A latch for blocking waits from threads outside the pool: a state word
/// and the waiter's thread handle, no lock. The waiter polls for a few
/// microseconds, then announces `SLEEPING` and parks; `set` unparks only an
/// announced waiter, so a latch set while its waiter polls costs no syscall.
pub struct LockLatch {
    state: AtomicUsize,
    waiter: Thread,
}

impl LockLatch {
    /// A latch whose waiter is the calling thread: only it may wait on it.
    pub fn new() -> Self {
        LockLatch { state: AtomicUsize::new(UNSET), waiter: thread::current() }
    }

    /// Blocks the calling thread until the latch is set or `timeout`
    /// elapses (never, at `Duration::MAX`); returns whether it was set.
    pub fn wait_for(&self, timeout: Duration) -> bool {
        for round in 0..WAIT_SPINS + WAIT_YIELDS {
            if self.probe() {
                return true;
            }
            registry::pause(round, WAIT_SPINS);
        }
        // Counted from here: the polling above is a few microseconds.
        let deadline = Instant::now().checked_add(timeout);
        // Fails on `SET`, or on `SLEEPING` announced by an earlier call.
        // Relaxed: this and the setter's swap are read-modify-writes of one
        // word, so whichever comes second sees the first.
        let _ = self.state.compare_exchange(UNSET, SLEEPING, Ordering::Relaxed, Ordering::Relaxed);
        // A stale or spurious unpark costs one more look.
        while !self.probe() {
            match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                None => thread::park(),
                Some(left) if left.is_zero() => return false,
                Some(left) => thread::park_timeout(left),
            }
        }
        true
    }
}

impl Latch for LockLatch {
    unsafe fn set(this: *const Self) {
        // SAFETY: `this` is live until the swap publishes `SET`; from then
        // on the waiter may return and pop the latch's frame, so the handle
        // is cloned first and nothing of `*this` is touched after the swap.
        let waiter = unsafe { (*this).waiter.clone() };
        // SAFETY: as above; this swap is the last access to `*this`. Its
        // `Release` pairs with `probe`'s `Acquire`: the job's result is
        // visible to a waiter that reads `SET`.
        if unsafe { (*this).state.swap(SET, Ordering::Release) } == SLEEPING {
            // Synchronizes-with the `park` it ends: the next probe sees `SET`.
            waiter.unpark();
        }
    }
}

impl Probe for LockLatch {
    fn probe(&self) -> bool {
        self.state.load(Ordering::Acquire) == SET
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
    use std::sync::atomic::AtomicBool;
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
            // SAFETY: the `Arc` keeps the latch alive past the call.
            unsafe { Latch::set(&*l2 as *const LockLatch) };
        });
        assert!(l.wait_for(Duration::MAX));
        t.join().expect("setter panicked");
    }

    #[test]
    fn lock_latch_ignores_stray_unparks() {
        let l = Arc::new(LockLatch::new());
        let released = Arc::new(AtomicBool::new(false));
        let waiter = thread::current();
        let stop = Arc::new(AtomicBool::new(false));
        let spammer = {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    waiter.unpark();
                    thread::yield_now();
                }
            })
        };
        let setter = {
            let (l, released) = (Arc::clone(&l), Arc::clone(&released));
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(20));
                released.store(true, Ordering::Relaxed);
                // SAFETY: the `Arc` keeps the latch alive past the call.
                unsafe { Latch::set(&*l as *const LockLatch) };
            })
        };
        assert!(l.wait_for(Duration::MAX));
        assert!(released.load(Ordering::Relaxed), "wait returned before set");
        stop.store(true, Ordering::Relaxed);
        spammer.join().expect("spammer panicked");
        setter.join().expect("setter panicked");
    }

    #[test]
    fn lock_latch_wait_timeout_expires_then_succeeds() {
        let l = Arc::new(LockLatch::new());
        assert!(!l.wait_for(Duration::from_millis(5)), "unset latch times out");
        let l2 = Arc::clone(&l);
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            // SAFETY: the `Arc` keeps the latch alive past the call.
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
