//! The first reducer a process creates is created inside a `join`
//! continuation that a thief is already running, behind forks made through
//! `cilk_runtime` directly, so nothing registered the view frames first.
//!
//! The thief entered that continuation without a frame, in root context.
//! That is sound for the reducers created inside its own subtree: every
//! steal within the subtree comes after the creation registered the
//! frames. Each worker count runs in its own test binary, so nothing else
//! in the process creates a reducer or forks through `cilk_hyper` first.
//! Only the first round runs before the registration; the later rounds
//! run the same shape with it in place.

use std::sync::atomic::{AtomicBool, Ordering};

use cilk_hyper::{join, live_views, ReducerList};
use cilk_runtime::{Config, ThreadPool};

fn walk(list: &ReducerList<u64>, lo: u64, hi: u64) {
    if hi - lo == 1 {
        list.push_back(lo);
        return;
    }
    let mid = lo + (hi - lo) / 2;
    join(|| walk(list, lo, mid), || walk(list, mid, hi));
}

fn nest(levels: usize, leaf: &(dyn Fn() + Sync)) {
    if levels == 0 {
        leaf();
    } else {
        cilk_runtime::join(|| nest(levels - 1, leaf), || ());
    }
}

/// One `join` whose continuation is forced onto a thief, as in
/// `multiworker.rs`: four nested joins publish it out of the owner's
/// private window, and `a` holds the owner until the thief has started it.
/// The continuation creates a list reducer and fills it by a recursive walk
/// whose own continuations may be stolen; it reads its view before
/// returning the reducer, and the list is read again after the join.
fn reducer_born_in_a_stolen_strand(pool: &ThreadPool, n: u64) -> (Vec<u64>, Vec<u64>) {
    let b_started = AtomicBool::new(false);
    let ((), (inside, list)) = pool.install(|| {
        cilk_runtime::join(
            || {
                nest(4, &|| {
                    while !b_started.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                })
            },
            || {
                b_started.store(true, Ordering::Release);
                let list = ReducerList::<u64>::list();
                walk(&list, 0, n);
                (list.with(|view| view.clone()), list)
            },
        )
    });
    (inside, list.into_value())
}

/// Twenty rounds on a fresh pool of `workers`, each in serial order both
/// inside the stolen strand and after its join.
pub fn reduces_in_serial_order(workers: usize) {
    let pool = ThreadPool::with_config(Config::new().num_workers(workers)).expect("pool");
    let serial: Vec<u64> = (0..1000).collect();
    for round in 0..20 {
        let (inside, after) = reducer_born_in_a_stolen_strand(&pool, 1000);
        assert_eq!(inside, serial, "{workers} workers, round {round}: inside the strand");
        assert_eq!(after, serial, "{workers} workers, round {round}: after the join");
        assert_eq!(live_views(), 0, "{workers} workers, round {round}");
    }
    assert!(pool.metrics().steals > 0, "{workers} workers: the continuation was stolen");
}
