//! # cilk: the Cilk++ concurrency platform, reproduced in Rust
//!
//! This crate is the user-facing facade of a from-scratch reproduction of
//! Leiserson, *The Cilk++ concurrency platform* (DAC 2009): "a compiler, a
//! runtime system, and a race-detection tool", plus the hyperobject
//! library and the scalability analyzer. The three C++ keywords map to
//! three constructs:
//!
//! | Cilk++                          | this crate                    |
//! |---------------------------------|-------------------------------|
//! | `cilk_spawn f(); g(); cilk_sync`| [`join`]`(f, g)`              |
//! | `cilk_for (…) body`             | [`cilk_for`] / [`map_reduce`] |
//! | dynamic spawns + implicit sync  | [`scope`]                     |
//!
//! All three are **reducer-aware**: hyperobjects ([`hyper`]) updated inside
//! them behave exactly as §5 promises — no locks, no code restructuring,
//! and serial-order-identical results.
//!
//! The platform's other components are available as modules:
//!
//! * [`runtime`] — the work-stealing scheduler (§3): explicit
//!   [`ThreadPool`]s, metrics, grain control;
//! * [`hyper`] — reducer hyperobjects (§5);
//! * [`screen`] — the Cilkscreen determinacy-race detector (§4);
//! * [`view`] — the Cilkview-style work/span analyzer (§3.1, Fig. 3);
//! * [`dag`] — the dag model of multithreading (§2) and the schedule
//!   simulators used for the paper's evaluation;
//! * [`sync`] — the mutex library (§1).
//!
//! # Quickstart
//!
//! ```
//! // Fig. 1's quicksort, in Rust:
//! fn qsort(v: &mut [i32]) {
//!     if v.len() <= 1 {
//!         return;
//!     }
//!     let mid = partition(v);
//!     let (lo, hi) = v.split_at_mut(mid);
//!     cilk::join(|| qsort(lo), || qsort(&mut hi[1..]));
//! }
//!
//! fn partition(v: &mut [i32]) -> usize {
//!     let pivot = v[v.len() - 1];
//!     let mut i = 0;
//!     for j in 0..v.len() - 1 {
//!         if v[j] <= pivot {
//!             v.swap(i, j);
//!             i += 1;
//!         }
//!     }
//!     let last = v.len() - 1;
//!     v.swap(i, last);
//!     i
//! }
//!
//! let mut data = vec![5, 3, 8, 1, 9, 2, 7];
//! qsort(&mut data);
//! assert_eq!(data, vec![1, 2, 3, 5, 7, 8, 9]);
//! ```

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod pedigree;
pub mod sync;

/// The work-stealing runtime (§3). Re-export of `cilk_runtime`.
pub mod runtime {
    pub use cilk_runtime::*;
}

/// Reducer hyperobjects (§5). Re-export of `cilk_hyper`.
pub mod hyper {
    pub use cilk_hyper::*;
}

/// The Cilkscreen race detector (§4). Re-export of `cilkscreen`.
pub mod screen {
    pub use cilkscreen::*;
}

/// The Cilkview scalability analyzer (§3.1). Re-export of `cilkview`.
pub mod view {
    pub use cilkview::*;
}

/// The dag model and schedule simulators (§2). Re-export of `cilk_dag`.
pub mod dag {
    pub use cilk_dag::*;
}

/// The work-stealing deque substrate. Re-export of `cilk_deque`.
pub mod deque {
    pub use cilk_deque::*;
}

pub use cilk_hyper::{join, scope, Scope};
pub use cilk_runtime::{BuildPoolError, Config, Grain, MetricsSnapshot, ThreadPool};

/// Three-way fork-join: all three closures may run in parallel
/// (reducer-aware, like [`join`]). Serial order is `a`, `b`, `c`.
///
/// # Examples
///
/// ```
/// let (a, b, c) = cilk::join3(|| 1, || 2, || 3);
/// assert_eq!(a + b + c, 6);
/// ```
pub fn join3<A, B, C, RA, RB, RC>(a: A, b: B, c: C) -> (RA, RB, RC)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    C: FnOnce() -> RC + Send,
    RA: Send,
    RB: Send,
    RC: Send,
{
    let (ra, (rb, rc)) = join(a, || join(b, c));
    (ra, rb, rc)
}

/// Four-way fork-join (reducer-aware). Serial order `a`, `b`, `c`, `d`.
pub fn join4<A, B, C, D, RA, RB, RC, RD>(a: A, b: B, c: C, d: D) -> (RA, RB, RC, RD)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    C: FnOnce() -> RC + Send,
    D: FnOnce() -> RD + Send,
    RA: Send,
    RB: Send,
    RC: Send,
    RD: Send,
{
    let ((ra, rb), (rc, rd)) = join(|| join(a, b), || join(c, d));
    (ra, rb, rc, rd)
}

/// Parallel loop over an index range — the `cilk_for` keyword.
///
/// Reducer-aware: hyperobject updates land in serial iteration order.
/// Grain size is automatic ([`Grain::Auto`]); use [`cilk_for_grain`] to
/// override, as Cilk++'s `#pragma cilk grainsize` does.
///
/// # Panics
///
/// If `body` panics, chunks that have not started are cancelled and the
/// first panic resumes here once the running chunks have come to rest:
/// each index runs at most once, exactly once when nothing panics.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// let sum = AtomicU64::new(0);
/// cilk::cilk_for(0..1000, |i| {
///     sum.fetch_add(i as u64, Ordering::Relaxed);
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 499_500);
/// ```
pub fn cilk_for<F>(range: std::ops::Range<usize>, body: F)
where
    F: Fn(usize) + Sync,
{
    cilk_hyper::follow_steals();
    cilk_runtime::for_each_index(range, Grain::Auto, body);
}

/// [`cilk_for`] with an explicit grain size.
pub fn cilk_for_grain<F>(range: std::ops::Range<usize>, grain: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    cilk_hyper::for_each_index(range, grain, body);
}

/// Parallel map-reduce over an index range (a `cilk_for` accumulating into
/// a local, the common idiom the "add" reducer serves).
///
/// `reduce` must be associative with identity `identity()`.
///
/// # Examples
///
/// ```
/// let total = cilk::map_reduce(0..100, || 0u64, |i| i as u64, |a, b| a + b);
/// assert_eq!(total, 4950);
/// ```
pub fn map_reduce<T, ID, M, R>(range: std::ops::Range<usize>, identity: ID, map: M, reduce: R) -> T
where
    T: Send,
    ID: Fn() -> T + Sync,
    M: Fn(usize) -> T + Sync,
    R: Fn(T, T) -> T + Sync,
{
    // Reducers touched by `map` follow its steals, as in `cilk_for`.
    cilk_hyper::follow_steals();
    cilk_runtime::map_reduce_index(range, Grain::Auto, identity, map, reduce)
}

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::hyper::{
        Monoid, Reducer, ReducerAnd, ReducerList, ReducerMax, ReducerMin, ReducerOr,
        ReducerString, ReducerSum,
    };
    pub use crate::sync::Mutex;
    pub use crate::{cilk_for, cilk_for_grain, join, join3, join4, map_reduce, scope, Config, ThreadPool};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_join_is_reducer_aware() {
        let list = ReducerList::<u8>::list();
        crate::join(|| list.push_back(1), || list.push_back(2));
        assert_eq!(list.into_value(), vec![1, 2]);
    }

    #[test]
    fn join3_and_join4_preserve_order() {
        let list = ReducerList::<u8>::list();
        crate::join3(
            || list.push_back(1),
            || list.push_back(2),
            || list.push_back(3),
        );
        crate::join4(
            || list.push_back(4),
            || list.push_back(5),
            || list.push_back(6),
            || list.push_back(7),
        );
        assert_eq!(list.into_value(), vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn cilk_for_covers_range() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = AtomicUsize::new(0);
        crate::cilk_for(0..5000, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 5000);
    }

    #[test]
    fn map_reduce_sums() {
        let v = crate::map_reduce(0..1000, || 0u64, |i| (i * i) as u64, |a, b| a + b);
        let expected: u64 = (0..1000u64).map(|i| i * i).sum();
        assert_eq!(v, expected);
    }

    #[test]
    fn mutex_composes_with_join() {
        let m = Mutex::new(Vec::new());
        crate::join(|| m.lock().push(1), || m.lock().push(2));
        let mut v = m.into_inner();
        v.sort_unstable();
        assert_eq!(v, vec![1, 2]);
    }

    #[test]
    fn pool_install_composes_with_facade() {
        let pool = ThreadPool::with_config(Config::new().num_workers(3)).expect("pool");
        let total =
            pool.install(|| crate::map_reduce(0..100, || 0u64, |i| i as u64, |a, b| a + b));
        assert_eq!(total, 4950);
    }
}
