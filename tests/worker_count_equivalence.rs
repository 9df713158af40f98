//! Worker-count equivalence: the pool's width may only change the
//! *schedule*, never the observable outcome. Results, reducer views —
//! serial element order included — and cilkscreen race sets must be
//! identical over fib, qsort and the §5 reducer tree walk at 1, 2 and 4
//! workers — and the pool's own join counters exact at 1, 2, 4 and 8,
//! with and without a probe consumer of the scheduler's events.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cilk::hyper::ReducerList;
use cilk::runtime::probe::{self, EventMask, Probe, ProbeEvent};
use cilk::{Config, MetricsSnapshot, ThreadPool};
use cilk_testkit::forall;
use cilk_testkit::prop::{any_int, vec_of};
use cilkscreen::instrument::run_monitored;
use cilkscreen::ShadowSlice;
use cilk_workloads::instrumented::{exposing_qsort_input, qsort_shadow, QSORT_SHADOW_CUTOFF};
use cilk_workloads::{
    build_tree, fib, fib_cutoff, fib_serial, qsort, qsort_serial, walk_reducer, walk_serial,
};

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn pool_with(workers: usize) -> ThreadPool {
    ThreadPool::with_config(Config::new().num_workers(workers))
        .expect("failed to build worker pool")
}

#[test]
fn fib_agrees_across_workers() {
    for n in [10u64, 16, 20] {
        let expected = fib_serial(n);
        for workers in WORKER_COUNTS {
            let pool = pool_with(workers);
            let got = pool.install(|| fib(n));
            assert_eq!(got, expected, "fib({n}) diverged at {workers} workers");
        }
    }
}

/// The join counters live in per-worker blocks summed at snapshot time;
/// the sum must stay *exact* at any width, not merely close. A spawn-at-
/// every-level fib makes one join per internal call of the recursion, and
/// every continuation a join pushes is popped back by its owner or stolen
/// — never both, never neither.
#[test]
fn join_counters_are_exact_at_any_width() {
    for workers in [1usize, 2, 4, 8] {
        exact_join_counters(Config::new().num_workers(workers));
    }
}

/// Runs `fib_cutoff(22, 0)` on a pool built from `config`, asserts the
/// join counters exact and returns them.
fn exact_join_counters(config: Config) -> MetricsSnapshot {
    const N: u64 = 22;
    // A binary recursion of `2·fib(N+1) − 1` calls has `fib(N+1) − 1`
    // internal ones.
    let joins = (cilk_workloads::fib::fib_call_count(N) - 1) / 2;
    let pool = ThreadPool::with_config(config).expect("failed to build worker pool");
    let workers = pool.num_workers();
    assert_eq!(pool.install(|| fib_cutoff(N, 0)), fib_serial(N), "{workers} workers");
    let m = pool.metrics();
    assert_eq!(m.spawns, joins, "{workers} workers: {m:?}");
    assert_eq!(m.inline_pops + m.steals, m.spawns, "{workers} workers: {m:?}");
    if workers == 1 {
        assert_eq!((m.steals, m.inline_pops), (0, joins), "{m:?}");
    }
    m
}

/// A `SCHED` consumer opens `join`'s gate, so every join takes the
/// instrumented path: the counters are as exact there, and the consumer
/// receives one `Spawn` per counted spawn and one `InlinePop` per counted
/// inline pop.
#[test]
fn join_counters_are_exact_with_a_sched_consumer() {
    const PREFIX: &str = "sched-consumer";
    #[derive(Default)]
    struct Sched {
        spawns: AtomicU64,
        inline_pops: AtomicU64,
    }
    impl Probe for Sched {
        fn mask(&self) -> EventMask {
            EventMask::SCHED
        }
        /// This test's pools only: the tests sharing the process join too.
        fn active(&self) -> bool {
            std::thread::current().name().is_some_and(|name| name.starts_with(PREFIX))
        }
        fn on_event(&self, event: &ProbeEvent) {
            match event {
                ProbeEvent::Spawn { .. } => self.spawns.fetch_add(1, Ordering::Relaxed),
                ProbeEvent::InlinePop { .. } => self.inline_pops.fetch_add(1, Ordering::Relaxed),
                _ => 0,
            };
        }
    }
    let sched = Arc::new(Sched::default());
    let _registered = probe::register(sched.clone());
    for workers in [1usize, 2, 4, 8] {
        let config = Config::new().num_workers(workers).thread_name_prefix(PREFIX);
        let m = exact_join_counters(config);
        let seen =
            (sched.spawns.swap(0, Ordering::Relaxed), sched.inline_pops.swap(0, Ordering::Relaxed));
        assert_eq!(seen, (m.spawns, m.inline_pops), "{workers} workers: {m:?}");
    }
}

forall! {
    /// qsort sorts identically (i.e. equals the serial sort) at every pool
    /// width.
    cases = 24,
    fn qsort_agrees_across_workers(input in vec_of(any_int::<i32>(), 0..200), workers in 1usize..5) {
        let mut expected = input.clone();
        qsort_serial(&mut expected);
        let pool = pool_with(workers);
        let mut v = input.clone();
        pool.install(|| qsort(&mut v));
        assert_eq!(v, expected, "qsort diverged at {workers} workers");
    }

    /// The §5 reducer tree walk yields the exact serial-order view —
    /// element for element — wherever the continuations migrate.
    cases = 24,
    fn reducer_tree_views_agree_across_workers(seed in any_int::<u64>(), workers in 1usize..5) {
        let tree = build_tree(200, seed);
        let modulus = 3 + (seed % 5);
        let mut expected = Vec::new();
        walk_serial(&tree, modulus, 10, &mut expected);
        let pool = pool_with(workers);
        let list = ReducerList::<u64>::list();
        pool.install(|| walk_reducer(&tree, modulus, 10, &list));
        assert_eq!(
            list.into_value(),
            expected,
            "reducer view diverged at {workers} workers (seed {seed})"
        );
    }
}

/// The cilkscreen racy-location set of the planted-overlap qsort is a
/// property of the program's dag, not of the pool it runs on: every width
/// must report the same non-empty set, and the clean variant must stay
/// clean.
#[test]
fn race_sets_agree_across_workers() {
    let input = exposing_qsort_input(0xC11F_5EED, 56);
    for overlap_bug in [false, true] {
        let mut baseline: Option<Vec<usize>> = None;
        for workers in WORKER_COUNTS {
            let pool = pool_with(workers);
            let data: ShadowSlice<i64> = input.iter().copied().collect();
            let ((), report) = pool.install(|| {
                run_monitored(|| qsort_shadow(&data, QSORT_SHADOW_CUTOFF, overlap_bug))
            });
            let mut racy: Vec<usize> = report
                .race_locations()
                .into_iter()
                .map(|l| data.index_of(l).expect("race outside the tracked slice"))
                .collect();
            racy.sort_unstable();
            racy.dedup();
            if overlap_bug {
                assert!(!racy.is_empty(), "planted overlap must race at {workers} workers");
            } else {
                assert!(racy.is_empty(), "clean qsort raced at {workers} workers: {racy:?}");
            }
            match &baseline {
                None => baseline = Some(racy),
                Some(expected) => assert_eq!(
                    &racy, expected,
                    "race set diverged at {workers} workers (overlap_bug={overlap_bug})"
                ),
            }
        }
    }
}
