//! Checked drop-in replacements for `std::sync::atomic`, and a checked
//! [`Mutex`].
//!
//! Inside a model execution every operation on these types is a yield
//! point recorded by the engine, and loads may return *stale* values per
//! the checker's weak-memory model. Outside an execution (for example in a
//! `Drop` impl running after a model, or when `crates/deque` is compiled
//! with `--cfg cilk_check` but used by ordinary runtime code) every
//! operation falls through to the real `std` atomic it wraps, with the
//! caller's ordering — the shim is then a zero-behavior-change wrapper.
//!
//! Only the surface the workspace's lock-free code actually uses is
//! provided; `compare_exchange_weak` is modeled without spurious failures
//! (fewer behaviors than reality, which can hide bugs that *require* a
//! spurious failure, but never invents impossible ones).

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LockResult, PoisonError};

use crate::engine::{self, ShimOp};

/// A checked `std::sync::Mutex`: inside a model execution `lock` is a
/// blocking yield point (granted only while the lock is free, with an
/// acquire edge from the previous unlock) and the guard's drop is a
/// release store, so critical sections may themselves contain checked
/// operations and be preempted. Outside an execution it is the `std`
/// mutex it wraps.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    real: std::sync::Mutex<T>,
    /// The model's lock word for this mutex (0 free, 1 held).
    loc: AtomicU64,
}

/// The guard of a checked [`Mutex`].
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    /// `None` only while dropping: the real lock is released before the
    /// model's, so whoever the scheduler grants the lock next finds the
    /// real one free.
    real: Option<std::sync::MutexGuard<'a, T>>,
    /// The lock word to release, when acquired inside an execution.
    modeled: Option<&'a AtomicU64>,
}

impl<T> Mutex<T> {
    /// Creates a new checked mutex holding `v`.
    pub const fn new(v: T) -> Self {
        Mutex { real: std::sync::Mutex::new(v), loc: AtomicU64::new(0) }
    }

    /// Acquires the mutex, blocking (as a schedulable transition) until it
    /// is free. Poisoning is reported exactly as `std` reports it.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let modeled = engine::shim_op(&self.loc, &|| 0, ShimOp::Lock).map(|_| &self.loc);
        match self.real.lock() {
            Ok(real) => Ok(MutexGuard { real: Some(real), modeled }),
            Err(poisoned) => Err(PoisonError::new(MutexGuard {
                real: Some(poisoned.into_inner()),
                modeled,
            })),
        }
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.real.as_ref().expect("guard is live until drop")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.real.as_mut().expect("guard is live until drop")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.real = None;
        if let Some(loc) = self.modeled {
            // A no-op while an aborted execution unwinds (see `with_current`).
            let _ = engine::shim_op(loc, &|| 0, ShimOp::Store(0, Ordering::Release));
        }
    }
}

/// Checked counterparts of `std::sync::atomic` types.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use std::sync::atomic as real;

    use crate::engine::{self, RmwKind, ShimOp, ShimOut};

    macro_rules! checked_int_atomic {
        ($(#[$meta:meta])* $Name:ident, $Int:ty, $Real:ty) => {
            $(#[$meta])*
            #[derive(Debug)]
            pub struct $Name {
                real: $Real,
                loc: real::AtomicU64,
            }

            impl $Name {
                /// Creates a new checked atomic holding `v`.
                pub const fn new(v: $Int) -> Self {
                    Self { real: <$Real>::new(v), loc: real::AtomicU64::new(0) }
                }

                fn op(&self, op: ShimOp) -> Option<ShimOut> {
                    engine::shim_op(&self.loc, &|| self.real.load(Ordering::Relaxed) as u64, op)
                }

                /// Loads the value; under the checker this may observe any
                /// store the memory model allows, not just the newest.
                pub fn load(&self, ord: Ordering) -> $Int {
                    match self.op(ShimOp::Load(ord)) {
                        Some(ShimOut::Val(v)) => v as $Int,
                        Some(_) => unreachable!("load returns a value"),
                        None => self.real.load(ord),
                    }
                }

                /// Stores `v`.
                pub fn store(&self, v: $Int, ord: Ordering) {
                    match self.op(ShimOp::Store(v as u64, ord)) {
                        Some(_) => self.real.store(v, Ordering::Relaxed),
                        None => self.real.store(v, ord),
                    }
                }

                /// Strong compare-and-exchange; RMWs always read the newest
                /// value in modification order.
                pub fn compare_exchange(
                    &self,
                    cur: $Int,
                    new: $Int,
                    succ: Ordering,
                    fail: Ordering,
                ) -> Result<$Int, $Int> {
                    match self.op(ShimOp::Cas {
                        cur: cur as u64,
                        new: new as u64,
                        succ,
                        fail,
                    }) {
                        Some(ShimOut::CasOk(old)) => {
                            self.real.store(new, Ordering::Relaxed);
                            Ok(old as $Int)
                        }
                        Some(ShimOut::CasErr(latest)) => Err(latest as $Int),
                        Some(_) => unreachable!("cas returns ok/err"),
                        None => self.real.compare_exchange(cur, new, succ, fail),
                    }
                }

                /// Weak compare-and-exchange, modeled without spurious
                /// failures (see module docs).
                pub fn compare_exchange_weak(
                    &self,
                    cur: $Int,
                    new: $Int,
                    succ: Ordering,
                    fail: Ordering,
                ) -> Result<$Int, $Int> {
                    self.compare_exchange(cur, new, succ, fail)
                }

                fn rmw(&self, kind: RmwKind, arg: $Int, ord: Ordering) -> Option<$Int> {
                    match self.op(ShimOp::Rmw { kind, arg: arg as u64, ord }) {
                        Some(ShimOut::Val(old)) => {
                            let new = match kind {
                                RmwKind::Add => (old as $Int).wrapping_add(arg),
                                RmwKind::Sub => (old as $Int).wrapping_sub(arg),
                                RmwKind::Swap => arg,
                            };
                            self.real.store(new, Ordering::Relaxed);
                            Some(old as $Int)
                        }
                        Some(_) => unreachable!("rmw returns the old value"),
                        None => None,
                    }
                }

                /// Atomic wrapping add; returns the previous value.
                pub fn fetch_add(&self, v: $Int, ord: Ordering) -> $Int {
                    self.rmw(RmwKind::Add, v, ord)
                        .unwrap_or_else(|| self.real.fetch_add(v, ord))
                }

                /// Atomic wrapping subtract; returns the previous value.
                pub fn fetch_sub(&self, v: $Int, ord: Ordering) -> $Int {
                    self.rmw(RmwKind::Sub, v, ord)
                        .unwrap_or_else(|| self.real.fetch_sub(v, ord))
                }

                /// Atomic swap; returns the previous value.
                pub fn swap(&self, v: $Int, ord: Ordering) -> $Int {
                    self.rmw(RmwKind::Swap, v, ord)
                        .unwrap_or_else(|| self.real.swap(v, ord))
                }

                /// Exclusive access to the underlying (newest) value.
                pub fn get_mut(&mut self) -> &mut $Int {
                    self.real.get_mut()
                }

                /// Consumes the atomic, returning the newest value.
                pub fn into_inner(self) -> $Int {
                    self.real.into_inner()
                }
            }
        };
    }

    checked_int_atomic!(
        /// A checked `AtomicIsize`.
        AtomicIsize,
        isize,
        real::AtomicIsize
    );
    checked_int_atomic!(
        /// A checked `AtomicUsize`.
        AtomicUsize,
        usize,
        real::AtomicUsize
    );
    checked_int_atomic!(
        /// A checked `AtomicU64`.
        AtomicU64,
        u64,
        real::AtomicU64
    );

    /// A checked `AtomicBool`.
    #[derive(Debug)]
    pub struct AtomicBool {
        real: real::AtomicBool,
        loc: real::AtomicU64,
    }

    impl AtomicBool {
        /// Creates a new checked atomic holding `v`.
        pub const fn new(v: bool) -> Self {
            AtomicBool { real: real::AtomicBool::new(v), loc: real::AtomicU64::new(0) }
        }

        fn op(&self, op: ShimOp) -> Option<ShimOut> {
            engine::shim_op(&self.loc, &|| self.real.load(Ordering::Relaxed) as u64, op)
        }

        /// Loads the value (possibly stale under the checker).
        pub fn load(&self, ord: Ordering) -> bool {
            match self.op(ShimOp::Load(ord)) {
                Some(ShimOut::Val(v)) => v != 0,
                Some(_) => unreachable!("load returns a value"),
                None => self.real.load(ord),
            }
        }

        /// Stores `v`.
        pub fn store(&self, v: bool, ord: Ordering) {
            match self.op(ShimOp::Store(v as u64, ord)) {
                Some(_) => self.real.store(v, Ordering::Relaxed),
                None => self.real.store(v, ord),
            }
        }

        /// Atomic swap; returns the previous value.
        pub fn swap(&self, v: bool, ord: Ordering) -> bool {
            match self.op(ShimOp::Rmw { kind: RmwKind::Swap, arg: v as u64, ord }) {
                Some(ShimOut::Val(old)) => {
                    self.real.store(v, Ordering::Relaxed);
                    old != 0
                }
                Some(_) => unreachable!("rmw returns the old value"),
                None => self.real.swap(v, ord),
            }
        }

        /// Exclusive access to the underlying (newest) value.
        pub fn get_mut(&mut self) -> &mut bool {
            self.real.get_mut()
        }

        /// Consumes the atomic, returning the newest value.
        pub fn into_inner(self) -> bool {
            self.real.into_inner()
        }
    }

    /// A checked `AtomicPtr`.
    ///
    /// Pointer values round-trip through `usize` bits inside the model;
    /// the real mirror always holds the newest pointer, so stale loads
    /// return addresses of still-allocated (retired) buffers.
    #[derive(Debug)]
    pub struct AtomicPtr<T> {
        real: real::AtomicPtr<T>,
        loc: real::AtomicU64,
    }

    impl<T> AtomicPtr<T> {
        /// Creates a new checked atomic holding `p`.
        pub const fn new(p: *mut T) -> Self {
            AtomicPtr { real: real::AtomicPtr::new(p), loc: real::AtomicU64::new(0) }
        }

        fn op(&self, op: ShimOp) -> Option<ShimOut> {
            engine::shim_op(
                &self.loc,
                &|| self.real.load(Ordering::Relaxed) as usize as u64,
                op,
            )
        }

        /// Loads the pointer (possibly a stale, still-live one under the
        /// checker).
        pub fn load(&self, ord: Ordering) -> *mut T {
            match self.op(ShimOp::Load(ord)) {
                Some(ShimOut::Val(bits)) => bits as usize as *mut T,
                Some(_) => unreachable!("load returns a value"),
                None => self.real.load(ord),
            }
        }

        /// Stores `p`.
        pub fn store(&self, p: *mut T, ord: Ordering) {
            match self.op(ShimOp::Store(p as usize as u64, ord)) {
                Some(_) => self.real.store(p, Ordering::Relaxed),
                None => self.real.store(p, ord),
            }
        }

        /// Exclusive access to the underlying (newest) pointer.
        pub fn get_mut(&mut self) -> &mut *mut T {
            self.real.get_mut()
        }

        /// Consumes the atomic, returning the newest pointer.
        pub fn into_inner(self) -> *mut T {
            self.real.into_inner()
        }
    }

    /// A memory fence; under the checker only `SeqCst` fences are modeled
    /// (they join the global SC clock both ways).
    pub fn fence(ord: Ordering) {
        if engine::shim_fence(ord).is_none() {
            real::fence(ord);
        }
    }
}
