//! Panic hygiene of the facade's `cilk_for`, the paper's keyword.
//!
//! `cilk::cilk_for` and `cilk::cilk_for_grain` keep the runtime loop's
//! contract (`crates/runtime/tests/panic_props.rs`) with reducers in the
//! body, whatever the range, grain or panic position:
//!
//! * every index runs **at most once**, and the panicking one exactly once;
//! * chunks that have not started when the panic lands are **cancelled**:
//!   on one worker, where chunks run in serial order, no index after the
//!   panicking one runs, and the pool counts the skipped subranges;
//! * the planted payload, not some replacement, reaches the caller, no
//!   reducer view leaks, and the pool runs the next loop normally.
//!
//! The tests share one lock: `live_views` is process-global.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use cilk::hyper::{live_views, ReducerSum};
use cilk::{Config, Grain, ThreadPool};
use cilk_testkit::forall;

/// A marker payload, so an infrastructure panic can never masquerade as
/// the planted one.
#[derive(Debug, PartialEq, Eq)]
struct Planted(usize);

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn pool(workers: usize) -> &'static ThreadPool {
    static POOLS: [OnceLock<ThreadPool>; 2] = [OnceLock::new(), OnceLock::new()];
    POOLS[workers - 1].get_or_init(|| {
        ThreadPool::with_config(Config::new().num_workers(workers)).expect("pool builds")
    })
}

/// The end of the leaf chunk that holds index `i` when `0..n` is halved
/// down to `grain`, as the loop recursion splits it.
fn leaf_end(n: usize, grain: usize, i: usize) -> usize {
    let (mut start, mut end) = (0, n);
    while end - start > grain {
        let mid = start + (end - start) / 2;
        if i < mid {
            end = mid;
        } else {
            start = mid;
        }
    }
    end
}

/// Runs a loop over `0..n` that adds each index into a reducer and panics
/// at `panic_at`, and checks the contract. `grain` `None` is `cilk_for`'s
/// automatic grain.
fn check_panicking_loop(workers: usize, n: usize, grain: Option<usize>, panic_at: usize) {
    let ctx = format!("{workers}w, n={n}, grain={grain:?}, panic_at={panic_at}");
    let pool = pool(workers);
    let cancelled_before = pool.metrics().tasks_cancelled;
    let visits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let sum = ReducerSum::<u64>::sum();
    let body = |i: usize| {
        visits[i].fetch_add(1, Ordering::Relaxed);
        sum.add(i as u64);
        if i == panic_at {
            std::panic::panic_any(Planted(i));
        }
    };
    let caught = catch_unwind(AssertUnwindSafe(|| {
        pool.install(|| match grain {
            Some(grain) => cilk::cilk_for_grain(0..n, grain, body),
            None => cilk::cilk_for(0..n, body),
        });
    }));

    let payload = caught.expect_err("the planted panic must surface");
    assert_eq!(payload.downcast_ref::<Planted>(), Some(&Planted(panic_at)), "{ctx}");
    for (i, v) in visits.iter().enumerate() {
        let count = v.load(Ordering::Relaxed);
        assert!(count <= 1, "index {i} ran {count} times ({ctx})");
        if workers == 1 && i > panic_at {
            assert_eq!(count, 0, "index {i} ran after the panic on one worker ({ctx})");
        }
    }
    assert_eq!(visits[panic_at].load(Ordering::Relaxed), 1, "{ctx}");
    let grain = grain.map_or(Grain::Auto, Grain::Explicit).resolve(n, workers);
    if workers == 1 && leaf_end(n, grain, panic_at) < n {
        assert!(
            pool.metrics().tasks_cancelled > cancelled_before,
            "no subrange was cancelled ({ctx})"
        );
    }
    assert_eq!(live_views(), 0, "leaked views ({ctx})");

    // The pool comes back unharmed: the same loop with no panic visits
    // every index once and the reducer holds the whole sum.
    let sum = ReducerSum::<u64>::sum();
    pool.install(|| cilk::cilk_for(0..n, |i| sum.add(i as u64)));
    assert_eq!(sum.into_value(), (n as u64 - 1) * n as u64 / 2, "pool damaged ({ctx})");
}

forall! {
    cases = 64,
    fn panicking_cilk_for_grain_runs_each_index_at_most_once(
        two_workers in 0usize..2,
        n in 1usize..400,
        grain in 1usize..32,
        position_seed in 0usize..1 << 16,
    ) {
        let _serial = serial();
        check_panicking_loop(1 + two_workers, n, Some(grain), position_seed % n);
    }
}

/// `cilk_for` with its automatic grain: on one worker, a panic cancels
/// every chunk after the panicking index's own.
#[test]
fn panicking_cilk_for_cancels_chunks_not_started() {
    let _serial = serial();
    for workers in [1usize, 2] {
        for (n, panic_at) in [(1000, 0), (1000, 500), (64, 63)] {
            check_panicking_loop(workers, n, None, panic_at);
        }
    }
}
