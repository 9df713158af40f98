//! Stress and failure-injection tests for the work-stealing runtime.
//!
//! Every workload size is routed through [`scaled`], so the whole file has
//! one iteration budget: `CILK_STRESS_SCALE=25` quarters every count for a
//! quick smoke pass, `CILK_STRESS_SCALE=400` quadruples it for a soak run.
//! Assertions derive from the scaled counts, never from hard-coded totals.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use cilk_runtime::{for_each_index, join, map_reduce_index, scope, Config, Grain, ThreadPool};

/// Scales a default workload count by the `CILK_STRESS_SCALE` percentage
/// (default 100), with a floor of 1 so no loop degenerates to zero work.
fn scaled(n: usize) -> usize {
    static PCT: OnceLock<usize> = OnceLock::new();
    let pct = *PCT.get_or_init(|| {
        std::env::var("CILK_STRESS_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(100)
    });
    n.saturating_mul(pct).div_euclid(100).max(1)
}

fn pool(workers: usize) -> ThreadPool {
    ThreadPool::with_config(Config::new().num_workers(workers)).expect("pool")
}

#[test]
fn deep_unbalanced_recursion() {
    // Left-leaning join chain 3k deep on the "a" side (which runs on the
    // calling worker without pushing frames beyond the join itself is
    // inlined), interleaved with tiny right tasks.
    fn chain(depth: usize, hits: &AtomicUsize) {
        if depth == 0 {
            return;
        }
        join(
            || chain(depth - 1, hits),
            || {
                hits.fetch_add(1, Ordering::Relaxed);
            },
        );
    }
    let depth = scaled(3_000);
    // The chain burns real stack frames (fat ones in debug builds): size
    // the worker stacks with the scaled depth so soak runs don't overflow.
    let pool = ThreadPool::with_config(
        Config::new().num_workers(4).stack_size((depth * 8192).max(8 << 20)),
    )
    .expect("pool");
    let hits = AtomicUsize::new(0);
    pool.install(|| chain(depth, &hits));
    assert_eq!(hits.load(Ordering::Relaxed), depth);
}

#[test]
fn repeated_installs_many_rounds() {
    let pool = pool(3);
    for round in 0..scaled(200) {
        let v = pool.install(|| {
            map_reduce_index(0..100, Grain::Explicit(7), || 0u64, |i| i as u64, |a, b| a + b)
        });
        assert_eq!(v, 4950, "round {round}");
    }
}

#[test]
fn concurrent_external_installs() {
    let n = scaled(1000);
    let pool = pool(4);
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..6 {
            let pool = &pool;
            handles.push(s.spawn(move || {
                let v = pool.install(|| {
                    map_reduce_index(
                        0..n,
                        Grain::Explicit(16),
                        || 0u64,
                        |i| (i + t) as u64,
                        |a, b| a + b,
                    )
                });
                assert_eq!(v, (0..n as u64).map(|i| i + t as u64).sum::<u64>());
            }));
        }
        for h in handles {
            h.join().expect("external install panicked");
        }
    });
}

#[test]
fn panic_storm_leaves_pool_healthy() {
    let pool = pool(4);
    for i in 0..scaled(30) {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                for_each_index(0..100, Grain::Explicit(4), |j| {
                    if j == i * 3 % 100 {
                        panic!("storm {i}");
                    }
                });
            });
        }));
        assert!(r.is_err(), "iteration {i} should panic");
    }
    // Still functional afterwards.
    let v = pool.install(|| {
        map_reduce_index(0..1000, Grain::Auto, || 0u64, |i| i as u64, |a, b| a + b)
    });
    assert_eq!(v, 499_500);
}

#[test]
fn scope_with_mixed_join_and_spawn() {
    let tasks = scaled(16);
    let pool = pool(4);
    let count = AtomicUsize::new(0);
    pool.install(|| {
        scope(|s| {
            for _ in 0..tasks {
                s.spawn(|_| {
                    let (a, b) = join(
                        || {
                            map_reduce_index(
                                0..50,
                                Grain::Explicit(5),
                                || 0usize,
                                |_| 1,
                                |a, b| a + b,
                            )
                        },
                        || 1usize,
                    );
                    count.fetch_add(a + b, Ordering::Relaxed);
                });
            }
        });
    });
    assert_eq!(count.load(Ordering::Relaxed), tasks * 51);
}

#[test]
fn many_small_pools_created_and_dropped() {
    for i in 0..scaled(25) {
        let pool = pool(1 + i % 4);
        let v = pool.install(|| {
            let (a, b) = join(|| 20, || 22);
            a + b
        });
        assert_eq!(v, 42);
        drop(pool);
    }
}

#[test]
fn heavy_steal_traffic_metrics_consistent() {
    let n = scaled(50_000);
    let pool = pool(8);
    pool.install(|| {
        for_each_index(0..n, Grain::Explicit(2), |_| {
            // Minimal work: maximize scheduling pressure.
            std::hint::black_box(0u64);
        });
    });
    let m = pool.metrics();
    // Grain 2 over n indices splits into at least n/2 - 1 spawned frames.
    assert!(m.spawns >= (n / 2).saturating_sub(1) as u64, "expected ~n/grain spawns, got {m:?}");
    assert!(
        m.steals + m.inline_pops <= m.spawns,
        "accounting must never exceed spawns: {m:?}"
    );
}
