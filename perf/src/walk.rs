//! The layer walk: each layer's public functions called in a loop on an
//! otherwise idle process, fastest of a few repetitions. The numbers do not
//! depend on the workload; they say what one operation of a layer costs, so
//! a change in an end-to-end metric can be traced to the layer that moved.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cilk_deque::{Protocol, Steal, Worker};
use cilk_hyper::ReducerList;
use cilk_runtime::{AdmissionPolicy, Config, JobHandle, SubmitError, TenantId, ThreadPool};
use cilk_workloads::fib_cutoff;

use crate::forkjoin::plain_pool;
use crate::service::service_pool;
use crate::spec::Sizes;
use crate::stats;

const WALKER: TenantId = TenantId(9);

/// Fastest repetition of `timed`, which returns the nanoseconds it took,
/// divided by `ops`.
fn fastest(reps: usize, ops: usize, mut timed: impl FnMut() -> u64) -> f64 {
    (0..reps.max(1))
        .map(|_| timed())
        .min()
        .expect("one repetition") as f64
        / ops as f64
}

fn elapsed_ns(f: impl FnOnce()) -> u64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as u64
}

/// The deque traffic of a spawn-everywhere `fib`: push the continuation,
/// descend, pop it back, descend again.
fn fib_shaped(worker: &Worker<u64>, n: u64) {
    if n < 2 {
        return;
    }
    worker.push(n);
    fib_shaped(worker, n - 1);
    black_box(worker.pop());
    fib_shaped(worker, n - 2);
}

fn deque(sizes: &Sizes, out: &mut Vec<(&'static str, f64)>) {
    let ops = sizes.walk_ops;
    // The protocol the runtime's workers use.
    let (worker, stealer) = Worker::<u64>::new_with(Protocol::fence_elided());
    let pair = fastest(sizes.walk_reps, ops, || {
        elapsed_ns(|| {
            for i in 0..ops as u64 {
                worker.push(i);
                black_box(worker.pop());
            }
        })
    });
    out.push(("deque.push_pop_ns", pair));

    let steal = fastest(sizes.walk_reps, ops, || {
        for i in 0..ops as u64 {
            worker.push(i);
        }
        worker.publish();
        let mut stolen = 0;
        let ns = elapsed_ns(|| {
            while let Steal::Success(v) = stealer.steal() {
                black_box(v);
                stolen += 1;
            }
        });
        assert_eq!(
            stolen, ops,
            "an uncontended thief takes everything published"
        );
        ns
    });
    out.push(("deque.steal_ns", steal));

    let before = worker.owner_stats();
    fib_shaped(&worker, 22);
    let after = worker.owner_stats();
    let pushes = (after.pushes - before.pushes) as f64;
    let fenced = (after.pops_fenced - before.pops_fenced) as f64;
    let private = (after.pops_private - before.pops_private) as f64;
    out.push(("deque.fenced_pop_frac", fenced / (fenced + private)));
    out.push((
        "deque.publications_per_push",
        (after.publications - before.publications) as f64 / pushes,
    ));
}

fn one_worker_constructs(sizes: &Sizes, out: &mut Vec<(&'static str, f64)>) {
    let ops = sizes.walk_ops;
    let pool = plain_pool(1);
    let cycle = fastest(sizes.walk_reps, ops, || {
        pool.install(|| {
            elapsed_ns(|| {
                for _ in 0..ops {
                    cilk::join(|| black_box(1), || black_box(2));
                }
            })
        })
    });
    out.push(("join.cycle_ns", cycle));
    let push_pop = out
        .iter()
        .find(|(name, _)| *name == "deque.push_pop_ns")
        .expect("walked")
        .1;
    out.push(("join.tax_ns", cycle - push_pop));

    const PER_SCOPE: usize = 1024;
    let scopes = ops.div_ceil(PER_SCOPE);
    let spawn = fastest(sizes.walk_reps, scopes * PER_SCOPE, || {
        pool.install(|| {
            elapsed_ns(|| {
                for _ in 0..scopes {
                    cilk::scope(|s| {
                        for _ in 0..PER_SCOPE {
                            s.spawn(|| {
                                black_box(0);
                            });
                        }
                    });
                }
            })
        })
    });
    out.push(("scope.spawn_ns", spawn));

    // A range of grain × 2^k splits by halves into exactly 2^k chunks.
    const GRAIN: usize = 64;
    let chunks = ops.next_power_of_two();
    let chunk = fastest(sizes.walk_reps, chunks, || {
        pool.install(|| elapsed_ns(|| cilk::cilk_for_grain(0..GRAIN * chunks, GRAIN, |_| {})))
    });
    out.push(("parallel_for.chunk_ns", chunk));

    let access = fastest(sizes.walk_reps, ops, || {
        pool.install(|| {
            let list = ReducerList::<u32>::list();
            let ns = elapsed_ns(|| {
                for i in 0..ops as u32 {
                    list.push_back(i);
                }
            });
            assert_eq!(list.into_value().len(), ops);
            ns
        })
    });
    out.push(("hyper.view_access_ns", access));
}

fn registry(sizes: &Sizes, workers: usize, out: &mut Vec<(&'static str, f64)>) {
    let trips = sizes.walk_trips;
    let pool = plain_pool(workers);
    // Back to back: the worker that ran one trip has not parked yet when
    // the next arrives, which is also what a closed-loop client sees.
    let install = fastest(sizes.walk_reps, trips, || {
        elapsed_ns(|| {
            for _ in 0..trips {
                pool.install(|| ());
            }
        })
    });
    out.push(("registry.install_roundtrip_us", install / 1e3));

    let n = sizes.oversub_fib_n;
    let median_solve = |pool: &ThreadPool| {
        let solves: Vec<u64> = (0..8)
            .map(|_| {
                elapsed_ns(|| {
                    black_box(pool.install(|| fib_cutoff(black_box(n), 0)));
                })
            })
            .skip(1)
            .collect();
        stats::median_u64(&solves) as f64
    };
    let at_p = median_solve(&pool);
    drop(pool);
    let oversubscribed = plain_pool(4 * workers);
    out.push((
        "registry.oversub_slowdown",
        median_solve(&oversubscribed) / at_p,
    ));
}

fn wait_all(handles: Vec<JobHandle<()>>) {
    for handle in handles {
        handle.wait();
    }
}

fn admission_and_handles(sizes: &Sizes, workers: usize, out: &mut Vec<(&'static str, f64)>) {
    let trips = sizes.walk_trips;
    let pool = service_pool(workers);
    let submit = fastest(sizes.walk_reps, trips, || {
        elapsed_ns(|| {
            for _ in 0..trips {
                pool.submit(WALKER, || ()).expect("an idle pool admits");
            }
        })
    });
    out.push(("admission.submit_roundtrip_us", submit / 1e3));

    // Batches stay under the tenant's quota (5 × workers in flight).
    let batch = (5 * workers).min(8);
    let batches = trips.div_ceil(batch);
    let mut ready: Vec<JobHandle<()>> = Vec::with_capacity(batch);
    let submit_async = fastest(sizes.walk_reps, batches * batch, || {
        let mut ns = 0;
        for _ in 0..batches {
            let start = Instant::now();
            for _ in 0..batch {
                ready.push(pool.submit_async(WALKER, || ()).expect("under quota"));
            }
            ns += start.elapsed().as_nanos() as u64;
            wait_all(std::mem::take(&mut ready));
        }
        ns
    });
    out.push(("admission.submit_async_ns", submit_async));

    let finished = pool
        .submit_async(WALKER, || ())
        .expect("an idle pool admits");
    while !finished.poll() {
        std::thread::yield_now();
    }
    let ops = sizes.walk_ops;
    let poll = fastest(sizes.walk_reps, ops, || {
        elapsed_ns(|| {
            for _ in 0..ops {
                black_box(finished.poll());
            }
        })
    });
    out.push(("handle.poll_ns", poll));

    let wait_ready = fastest(sizes.walk_reps, batches * batch, || {
        let mut ns = 0;
        for _ in 0..batches {
            ready
                .extend((0..batch).map(|_| pool.submit_async(WALKER, || ()).expect("under quota")));
            while !ready.iter().all(JobHandle::poll) {
                std::thread::yield_now();
            }
            let finished = std::mem::take(&mut ready);
            ns += elapsed_ns(|| wait_all(finished));
        }
        ns
    });
    out.push(("handle.wait_ready_ns", wait_ready));
    drop(pool);

    // One worker held inside a gate job, so whatever is submitted stays
    // queued: a queued job can be cancelled, and a full shard refuses.
    const SHARD: usize = 8;
    let gated = ThreadPool::with_config(
        Config::new().num_workers(1).admission(
            AdmissionPolicy::new()
                .shards(1)
                .shard_capacity(SHARD)
                .fair_share(64)
                .burst(0),
        ),
    )
    .expect("worker thread starts");
    let (entered, release) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let gate = {
        let (entered, release) = (Arc::clone(&entered), Arc::clone(&release));
        gated
            .submit_async(TenantId(8), move || {
                entered.store(true, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_micros(200));
                }
            })
            .expect("an idle pool admits")
    };
    while !entered.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    let rounds = trips.div_ceil(SHARD);
    let cancel = fastest(sizes.walk_reps, rounds * SHARD, || {
        let mut ns = 0;
        for _ in 0..rounds {
            ready.extend(
                (0..SHARD).map(|_| gated.submit_async(WALKER, || ()).expect("shard has room")),
            );
            ns += elapsed_ns(|| {
                for handle in &ready {
                    assert!(handle.cancel(), "a queued job can be cancelled");
                }
            });
            ready.clear();
        }
        ns
    });
    out.push(("handle.cancel_ns", cancel));

    ready.extend((0..SHARD).map(|_| gated.submit_async(WALKER, || ()).expect("shard has room")));
    let refusals = trips * 50;
    let reject = fastest(sizes.walk_reps, refusals, || {
        elapsed_ns(|| {
            for _ in 0..refusals {
                match gated.submit_async(WALKER, || ()) {
                    Err(SubmitError::Overloaded(_)) => {}
                    other => panic!("a full shard must refuse, got {:?}", other.map(|_| ())),
                }
            }
        })
    });
    out.push(("admission.reject_ns", reject));
    release.store(true, Ordering::SeqCst);
    gate.wait();
    wait_all(ready);
}

/// Walks every layer; returns `(metric name, value)` in walk order.
pub fn walk(sizes: &Sizes, workers: usize) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    deque(sizes, &mut out);
    one_worker_constructs(sizes, &mut out);
    registry(sizes, workers, &mut out);
    admission_and_handles(sizes, workers, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_reports_every_walk_metric_once() {
        let sizes = Sizes {
            walk_ops: 2000,
            walk_trips: 40,
            walk_reps: 1,
            oversub_fib_n: 12,
            ..Sizes::quick()
        };
        let values = walk(&sizes, 2);
        let expected = [
            "deque.push_pop_ns",
            "deque.steal_ns",
            "deque.fenced_pop_frac",
            "deque.publications_per_push",
            "join.cycle_ns",
            "join.tax_ns",
            "scope.spawn_ns",
            "parallel_for.chunk_ns",
            "hyper.view_access_ns",
            "registry.install_roundtrip_us",
            "registry.oversub_slowdown",
            "admission.submit_roundtrip_us",
            "admission.submit_async_ns",
            "handle.poll_ns",
            "handle.wait_ready_ns",
            "handle.cancel_ns",
            "admission.reject_ns",
        ];
        let names: Vec<&str> = values.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, expected);
        assert!(values
            .iter()
            .all(|(name, v)| v.is_finite() && (*v >= 0.0 || *name == "join.tax_ns")));
    }
}
