//! Stress tests of reducer view management under real multi-worker pools,
//! where continuations genuinely migrate between workers.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use cilk_hyper::{join, live_views, scope, Reducer, ReducerList, ReducerSum, Sum};
use cilk_runtime::{Config, ThreadPool};

fn pool(workers: usize) -> ThreadPool {
    ThreadPool::with_config(Config::new().num_workers(workers)).expect("pool")
}

/// Serializes the tests of this file: [`live_views`] is process-global,
/// so a test that asserts it back at zero must not overlap one that
/// creates views.
fn views_serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn walk(list: &ReducerList<u64>, lo: u64, hi: u64) {
    if hi - lo == 1 {
        list.push_back(lo);
        return;
    }
    let mid = lo + (hi - lo) / 2;
    join(|| walk(list, lo, mid), || walk(list, mid, hi));
}

#[test]
fn order_preserved_with_four_workers() {
    let _serial = views_serial();
    let pool = pool(4);
    for round in 0..20 {
        let list = ReducerList::<u64>::list();
        pool.install(|| walk(&list, 0, 2000));
        assert_eq!(
            list.into_value(),
            (0..2000).collect::<Vec<_>>(),
            "round {round}: steal pattern must not affect order"
        );
    }
    let m = pool.metrics();
    assert!(m.spawns > 0);
}

#[test]
fn sums_correct_with_eight_workers() {
    let _serial = views_serial();
    let pool = pool(8);
    let total = ReducerSum::<u64>::sum();
    pool.install(|| {
        cilk_hyper::for_each_index(0..100_000, 64, |i| total.add(i as u64));
    });
    assert_eq!(total.into_value(), 100_000u64 * 99_999 / 2);
}

#[test]
fn scope_order_with_workers() {
    let _serial = views_serial();
    let pool = pool(4);
    for _ in 0..10 {
        let list = ReducerList::<usize>::list();
        pool.install(|| {
            scope(|s| {
                for i in 0..200 {
                    let list = &list;
                    s.spawn(move || list.push_back(i));
                }
            });
        });
        assert_eq!(list.into_value(), (0..200).collect::<Vec<_>>());
    }
}

#[test]
fn two_reducers_do_not_interfere() {
    let _serial = views_serial();
    let pool = pool(4);
    let evens = ReducerList::<u64>::list();
    let odds = ReducerList::<u64>::list();
    pool.install(|| {
        cilk_hyper::for_each_index(0..1000, 8, |i| {
            if i % 2 == 0 {
                evens.push_back(i as u64);
            } else {
                odds.push_back(i as u64);
            }
        });
    });
    assert_eq!(evens.into_value(), (0..1000).step_by(2).map(|i| i as u64).collect::<Vec<_>>());
    assert_eq!(odds.into_value(), (1..1000).step_by(2).map(|i| i as u64).collect::<Vec<_>>());
}

#[test]
fn reducer_usable_across_multiple_installs() {
    let _serial = views_serial();
    let pool = pool(2);
    let total = ReducerSum::<u64>::sum();
    for _ in 0..5 {
        pool.install(|| {
            cilk_hyper::for_each_index(0..100, 4, |_| total.add(1));
        });
    }
    assert_eq!(total.into_value(), 500);
}

#[test]
fn deeply_nested_joins_with_steals() {
    let _serial = views_serial();
    let pool = pool(4);
    let list = ReducerList::<u64>::list();
    // Unbalanced recursion makes steal patterns irregular.
    fn skewed(list: &ReducerList<u64>, lo: u64, hi: u64) {
        if hi - lo == 1 {
            list.push_back(lo);
            return;
        }
        let cut = lo + 1.max((hi - lo) / 8);
        join(|| skewed(list, lo, cut), || skewed(list, cut, hi));
    }
    pool.install(|| skewed(&list, 0, 3000));
    assert_eq!(list.into_value(), (0..3000).collect::<Vec<_>>());
}

/// Runs `body` on a pool worker once in root context (no frame) and once
/// under a frame (a `scope` task, so no steal has to happen), each time on
/// fresh reducers; both must behave alike.
fn in_both_contexts(body: impl Fn() + Sync) {
    // Tells the contexts apart: under a frame a strand sees a fresh
    // identity view, not the root's 100.
    let context = Reducer::with_initial(Sum::<u64>::new(), 100);
    pool(4).install(|| {
        assert_eq!(context.with(|x| *x), 100, "root context");
        body();
        scope(|s| {
            s.spawn(|| {
                assert_eq!(context.with(|x| *x), 0, "under a frame");
                body();
            });
        });
    });
}

#[test]
fn a_with_closure_may_touch_another_reducer() {
    let _serial = views_serial();
    in_both_contexts(|| {
        let (a, b) = (ReducerSum::<u64>::sum(), ReducerSum::<u64>::sum());
        for _ in 0..3 {
            a.with(|x| {
                *x += 1;
                b.add(2);
            });
        }
        // Read inside the task: its views are still this strand's.
        assert_eq!((a.with(|x| *x), b.with(|x| *x)), (3, 6));
    });
}

#[test]
fn a_with_closure_may_fork() {
    let _serial = views_serial();
    in_both_contexts(|| {
        let (a, b) = (ReducerSum::<u64>::sum(), ReducerList::<usize>::list());
        a.with(|x| {
            join(|| b.push_back(0), || b.push_back(1));
            cilk_hyper::for_each_index(2..2000, 4, |i| b.push_back(i));
            scope(|s| s.spawn(|| b.push_back(2000)));
            *x += 1;
        });
        assert_eq!(a.with(|x| *x), 1);
        assert_eq!(b.with(|v| v.clone()), (0..=2000).collect::<Vec<_>>());
    });
}

#[test]
fn reentering_the_same_reducer_panics_naming_it() {
    let _serial = views_serial();
    in_both_contexts(|| {
        let a = ReducerSum::<u64>::sum();
        let nested = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.with(|x| {
                *x += 1;
                a.add(2);
            });
        }));
        let message = *nested.expect_err("nested access").downcast::<String>().expect("message");
        assert!(message.contains(&format!("reducer {} re-entered", a.id())), "{message}");
        // The outer access was released on the way out.
        a.add(4);
        assert_eq!(a.with(|x| *x), 5);
    });
}

fn nest(levels: usize, leaf: &(dyn Fn() + Sync)) {
    if levels == 0 {
        leaf();
    } else {
        join(|| nest(levels - 1, leaf), || ());
    }
}

/// One `join` on a two-worker pool whose continuation `b` is forced onto
/// the second worker: `a` pushes 0, then four nested joins publish `b` out
/// of the owner's private window and `a`'s innermost child waits until the
/// thief has run `b`'s body, which pushes 2; then `a` pushes 1. Either side
/// panics after its pushes when told to. Returns the list's final value,
/// whether the join panicked, and the live view count once it returned.
fn with_stolen_b(pool: &ThreadPool, a_panics: bool, b_panics: bool) -> (Vec<u32>, bool, i64) {
    let list = ReducerList::<u32>::list();
    let b_ran = AtomicBool::new(false);
    let caught = pool.install(|| {
        catch_unwind(AssertUnwindSafe(|| {
            join(
                || {
                    list.push_back(0);
                    nest(4, &|| {
                        while !b_ran.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                    });
                    assert!(!a_panics, "a dies");
                    list.push_back(1);
                },
                || {
                    list.push_back(2);
                    b_ran.store(true, Ordering::Release);
                    assert!(!b_panics, "b dies");
                },
            )
        }))
    });
    let live = live_views();
    (list.into_value(), caught.is_err(), live)
}

/// A stolen continuation's frame comes back through the join's side slot:
/// merged in serial order when both sides return, dropped — never merged —
/// when either side panics, and no view outlives the join in any case.
#[test]
fn a_stolen_continuations_frame_merges_in_order_or_is_dropped() {
    let _serial = views_serial();
    let pool = pool(2);
    for round in 0..50 {
        // `b` ran before `a` pushed 1, but serially it is second.
        assert_eq!(with_stolen_b(&pool, false, false), (vec![0, 1, 2], false, 0), "{round}");
        // `a` panics after `b` ran on the thief: `b`'s frame is dropped.
        assert_eq!(with_stolen_b(&pool, true, false), (vec![0], true, 0), "{round}");
        // The migrated `b` panics: its own frame is dropped.
        assert_eq!(with_stolen_b(&pool, false, true), (vec![0, 1], true, 0), "{round}");
    }
}
