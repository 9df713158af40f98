//! Explicit poison recovery for the runtime's internal locks.
//!
//! `std::sync::Mutex` poisons itself when a thread panics while holding
//! the guard, and every subsequent `.lock().unwrap()` then panics too —
//! so one worker's panic cascades into *unrelated* workers touching the
//! same scheduler lock ("Fearless Concurrency?" catalogues exactly this
//! pattern in runtime-internal code). No runtime thread sleeps on a lock:
//! every sleeper parks on a `LockLatch` (`crate::latch`). The remaining
//! locks all guard state whose invariants hold between individual
//! operations — no user closure runs under any of them:
//! the admission shards and breaker table, the idle protocol's parked-slot
//! stack, the supervisor's lists and the pool's join handles, the
//! `cilk_for` panic and scope measure slots, and the probe consumer table.
//!
//! A panic can therefore never leave them mid-mutation, and recovering the
//! guard from a poisoned lock is sound. [`recover`] documents that
//! invariant at every call site instead of an `expect("poisoned")` that
//! would turn one captured panic into a pool-wide cascade.

use std::sync::{LockResult, PoisonError};

/// Extracts the guard from a lock result, recovering from poison.
///
/// Sound only for locks whose protected state is consistent between
/// operations (see the module docs); all runtime-internal locks qualify.
#[inline]
pub(crate) fn recover<T>(result: LockResult<T>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use super::*;

    #[test]
    fn recovers_value_from_poisoned_mutex() {
        let m = Arc::new(Mutex::new(41));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().expect("first lock is clean");
            panic!("poison the lock");
        })
        .join();
        assert!(m.is_poisoned(), "panic while held must poison");
        *recover(m.lock()) += 1;
        assert_eq!(*recover(m.lock()), 42);
    }

    #[test]
    fn passes_clean_locks_through() {
        let m = Mutex::new(7);
        assert_eq!(*recover(m.lock()), 7);
    }
}
