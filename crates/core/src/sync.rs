//! The mutual-exclusion lock library (§1: "Cilk++ includes a library for
//! mutual-exclusion (mutex) locks").
//!
//! This is a from-scratch test-and-test-and-set lock with exponential
//! backoff. The paper's §5 warns that such locks "may create a bottleneck
//! in the computation … the contention on the mutex can destroy all the
//! parallelism" — this type exists both as the legitimate low-frequency
//! locking tool the paper describes and as the contended baseline of the
//! reducer-versus-mutex experiment (E10 in EXPERIMENTS.md).

use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A mutual-exclusion lock protecting a value of type `T`.
///
/// # Examples
///
/// ```
/// use cilk::sync::Mutex;
///
/// let counter = Mutex::new(0u32);
/// cilk::join(
///     || *counter.lock() += 1,
///     || *counter.lock() += 1,
/// );
/// assert_eq!(*counter.lock(), 2);
/// ```
pub struct Mutex<T: ?Sized> {
    locked: AtomicBool,
    /// Number of lock acquisitions that had to wait (contention metric for
    /// the E10 experiment).
    contended: AtomicU64,
    value: UnsafeCell<T>,
}

// SAFETY: moving the mutex moves the `T: Send` it owns.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
// SAFETY: the lock provides the required exclusion: `&T`/`&mut T` are only
// reachable through a guard, one holder at a time, so `T: Send` suffices.
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    /// Creates an unlocked mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            locked: AtomicBool::new(false),
            contended: AtomicU64::new(0),
            value: UnsafeCell::new(value),
        }
    }

    /// Consumes the mutex and returns the protected value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// The lock's identity for the race detector: the address of its state
    /// word, stable for the mutex's lifetime and unique among live locks.
    /// Cilkscreen's §4 race definition exempts logically parallel accesses
    /// that "hold a lock in common"; acquire/release events keyed by this
    /// id are how the detector learns what is held.
    pub fn lock_id(&self) -> cilkscreen::LockId {
        cilkscreen::LockId(&self.locked as *const AtomicBool as u64)
    }

    /// Reports an acquisition as a [`cilk_runtime::probe::ProbeEvent`]:
    /// Cilkscreen's detector consumes it for lockset suppression, and any
    /// other registered `LOCK` consumer sees it too. One relaxed atomic
    /// load when nobody listens.
    fn note_acquired(&self) {
        cilk_runtime::probe::emit(&cilk_runtime::probe::ProbeEvent::LockAcquired {
            lock: self.lock_id().0,
        });
    }

    /// Acquires the lock, spinning with exponential backoff until
    /// available, and returns an RAII guard.
    ///
    /// Under a Cilkscreen session the acquisition is reported to the
    /// detector, so tracked accesses made while the guard lives carry this
    /// lock in their lockset.
    ///
    /// Unlike `std::sync::Mutex` there is no poisoning: a panic while the
    /// guard is live simply releases the lock in the guard's destructor
    /// during unwinding.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        // The injectable fault fires before the lock is touched: an
        // injected panic here unwinds with the lock free and no acquire
        // event emitted, keeping the detector's lockset balanced.
        cilk_runtime::fault::fault_point(cilk_runtime::fault::FaultSite::LockAcquire);
        // Fast path.
        if self
            .locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            self.note_acquired();
            return MutexGuard { mutex: self };
        }
        self.contended.fetch_add(1, Ordering::Relaxed);
        let mut backoff: u32 = 1;
        loop {
            // Test-and-test-and-set: spin on a plain load first to avoid
            // cache-line ping-pong.
            while self.locked.load(Ordering::Relaxed) {
                for _ in 0..backoff {
                    std::hint::spin_loop();
                }
                if backoff < 1 << 10 {
                    backoff <<= 1;
                } else {
                    std::thread::yield_now();
                }
            }
            if self
                .locked
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                self.note_acquired();
                return MutexGuard { mutex: self };
            }
        }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        // See `lock` for the placement rationale.
        cilk_runtime::fault::fault_point(cilk_runtime::fault::FaultSite::LockAcquire);
        if self
            .locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            self.note_acquired();
            Some(MutexGuard { mutex: self })
        } else {
            None
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }

    /// How many `lock` calls found the mutex already held.
    pub fn contention_count(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("value", &&*guard).finish(),
            None => f.debug_struct("Mutex").field("value", &"<locked>").finish(),
        }
    }
}

/// RAII guard returned by [`Mutex::lock`]; releases the lock on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a Mutex<T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard holds the lock.
        unsafe { &*self.mutex.value.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard holds the lock exclusively.
        unsafe { &mut *self.mutex.value.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // The store must happen even if the detector hook panics (a hook
        // failure must never wedge the lock for every other thread), so it
        // lives in a drop guard that runs on the hook's unwind path too.
        struct Unlock<'a>(&'a AtomicBool);
        impl Drop for Unlock<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Release);
            }
        }
        let _unlock = Unlock(&self.mutex.locked);
        // Emitting the release *before* the store keeps the event balanced
        // with the acquire even when the guard drops during a panic's
        // unwind: the detector sees acquire/release pairs, never a lock
        // that stays "held" after its guard died.
        cilk_runtime::probe::emit(&cilk_runtime::probe::ProbeEvent::LockReleased {
            lock: self.mutex.lock_id().0,
        });
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn lock_unlock_roundtrip() {
        let m = Mutex::new(5);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn try_lock_fails_when_held() {
        let m = Mutex::new(());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn into_inner_and_get_mut() {
        let mut m = Mutex::new(7);
        *m.get_mut() = 8;
        assert_eq!(m.into_inner(), 8);
    }

    #[test]
    fn concurrent_increments_are_exact() {
        let m = Arc::new(Mutex::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                for _ in 0..10_000 {
                    *m.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().expect("incrementer panicked");
        }
        assert_eq!(*m.lock(), 40_000);
    }

    #[test]
    fn contention_counter_advances_under_contention() {
        let m = Arc::new(Mutex::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                for _ in 0..5_000 {
                    *m.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().expect("incrementer panicked");
        }
        // On a single-core box contention may be mild but must be recorded
        // at least sometimes across 20k acquisitions from 4 threads.
        assert_eq!(*m.lock(), 20_000);
    }

    #[test]
    fn debug_formats() {
        let m = Mutex::new(3);
        assert!(format!("{m:?}").contains('3'));
        let g = m.lock();
        assert!(format!("{m:?}").contains("locked"));
        drop(g);
    }

    #[test]
    fn monitored_common_lock_suppresses_race() {
        use cilkscreen::instrument::{run_monitored, Shadow};
        let cell = Shadow::new(0u64);
        let m = Mutex::new(());
        let ((), report) = run_monitored(|| {
            crate::join(
                || {
                    let _g = m.lock();
                    cell.update(|v| *v += 1);
                },
                || {
                    let _g = m.lock();
                    cell.update(|v| *v += 1);
                },
            );
        });
        assert!(report.is_race_free(), "common mutex held: {report}");
        assert_eq!(cell.get(), 2);
    }

    #[test]
    fn monitored_distinct_locks_still_race() {
        use cilkscreen::instrument::{run_monitored, Shadow};
        let cell = Shadow::new(0u64);
        let (m1, m2) = (Mutex::new(()), Mutex::new(()));
        let ((), report) = run_monitored(|| {
            crate::join(
                || {
                    let _g = m1.lock();
                    cell.update(|v| *v += 1);
                },
                || {
                    let _g = m2.lock();
                    cell.update(|v| *v += 1);
                },
            );
        });
        assert!(!report.is_race_free(), "different locks do not protect (§4)");
    }

    #[test]
    fn monitored_try_lock_reports_too() {
        use cilkscreen::instrument::{run_monitored, Shadow};
        let cell = Shadow::new(0u64);
        let m = Mutex::new(());
        let ((), report) = run_monitored(|| {
            crate::join(
                || {
                    // Serial elision: the lock is always free here.
                    let _g = m.try_lock().expect("uncontended under monitoring");
                    cell.update(|v| *v += 1);
                },
                || {
                    let _g = m.lock();
                    cell.update(|v| *v += 1);
                },
            );
        });
        assert!(report.is_race_free(), "{report}");
    }

    #[test]
    fn monitored_lockset_balanced_after_panic_while_locked() {
        use cilkscreen::instrument::{run_monitored, Shadow};
        let cell = Shadow::new(0u64);
        let m = Mutex::new(());
        let ((), report) = run_monitored(|| {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _g = m.lock();
                panic!("dies holding the lock");
            }));
            assert!(r.is_err());
            // If the unwinding guard had failed to emit its release event,
            // the session's lockset would still contain `m`, and the raw
            // race below would be wrongly suppressed by the common-lock
            // rule (§4).
            crate::join(|| cell.update(|v| *v += 1), || cell.update(|v| *v += 1));
        });
        assert!(
            !report.is_race_free(),
            "a stale held-lock entry would have masked this race: {report}"
        );
    }

    #[test]
    fn guard_releases_on_panic() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _g = m2.lock();
            panic!("dies holding lock");
        }));
        assert!(m.try_lock().is_some(), "lock must be released by unwinding");
    }
}
