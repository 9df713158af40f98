//! A global reducer, the analogue of the paper's nonlocal reducer, is a
//! lazily initialised static, created the first time a strand touches it.
//! Here that first touch is in a leaf of a loop, inside a continuation a
//! thief stole before any reducer existed. The loop registered the view
//! frames before it pushed anything, so the thief's strand has a view of
//! its own and the list comes out in serial order, not in schedule order.
//! This file holds one test, so nothing else in its process registers the
//! frames or creates a reducer first.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::LazyLock;
use std::time::{Duration, Instant};

use cilk_hyper::{for_each_index, live_views, ReducerList};
use cilk_runtime::{Config, ThreadPool};

static LOG: LazyLock<ReducerList<usize>> = LazyLock::new(ReducerList::list);

#[test]
fn a_global_reducer_first_touched_by_a_thief_reduces_in_serial_order() {
    const N: usize = 1024;
    let pool = ThreadPool::with_config(Config::new().num_workers(2)).expect("pool");
    let thief_logged = AtomicBool::new(false);
    pool.install(|| {
        for_each_index(0..N, 1, |i| {
            if i == 0 {
                // The owner's first leaf: hold it until the thief that took
                // the loop's top continuation has logged its first index,
                // so the thief creates LOG and logs before the owner does.
                let deadline = Instant::now() + Duration::from_secs(60);
                while !thief_logged.load(Ordering::Acquire) {
                    assert!(Instant::now() < deadline, "the top continuation was never stolen");
                    std::thread::yield_now();
                }
            }
            LOG.push_back(i);
            if i == N / 2 {
                thief_logged.store(true, Ordering::Release);
            }
        });
    });
    assert!(pool.metrics().steals > 0, "the top continuation was stolen");
    assert_eq!(LOG.with(|view| view.clone()), (0..N).collect::<Vec<_>>());
    assert_eq!(live_views(), 0);
}
