//! S1: owner push/pop and steal-drain cost of our Chase–Lev deque, plus the
//! growth-policy cost (DESIGN.md §choice 4).

use cilk_testkit::bench::Bench;
use cilk_testkit::{bench_group, bench_main};
use std::time::Duration;

fn bench_deque(c: &mut Bench) {
    let mut group = c.benchmark_group("deque");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    const N: usize = 10_000;

    group.bench_function("cilk_push_pop_10k", |b| {
        let (w, _s) = cilk_deque::Worker::<usize>::new();
        b.iter(|| {
            for i in 0..N {
                w.push(i);
            }
            let mut acc = 0usize;
            while let Some(v) = w.pop() {
                acc = acc.wrapping_add(v);
            }
            acc
        });
    });

    group.bench_function("cilk_steal_drain_10k", |b| {
        let (w, s) = cilk_deque::Worker::<usize>::new();
        b.iter(|| {
            for i in 0..N {
                w.push(i);
            }
            let mut acc = 0usize;
            while let Some(v) = s.steal_with_retries(8) {
                acc = acc.wrapping_add(v);
            }
            acc
        });
    });

    // Growth-policy cost: push N without pre-sizing (graceful doubling) —
    // the deque starts at 32 slots, so this path doubles ~9 times.
    group.bench_function("cilk_growth_path_10k", |b| {
        b.iter(|| {
            let (w, _s) = cilk_deque::Worker::<usize>::new();
            for i in 0..N {
                w.push(i);
            }
            w.len()
        });
    });

    group.finish();
}

bench_group!(benches, bench_deque);
bench_main!(benches);
