//! Property tests for the phase-2 admission contract: weighted quotas,
//! async-handle bookkeeping and exactly-once cancellation, over seeded
//! random shapes (`CILK_TEST_SEED` replays a failure).
//!
//! The invariants under test (docs/scheduler-service.md):
//!
//! * a tenant's in-flight quota is exactly `fair_share × weight + burst`
//!   — the weighted-fairness knob admits precisely that many jobs, no
//!   matter the shape, and rejects the next;
//! * under any random interleaving of completions and cancellations the
//!   ledger balances: `admitted == completed + cancelled`, `in_flight`
//!   returns to zero, and a successfully cancelled closure never ran;
//! * `cancel()` is exactly-once even when racing callers: one winner,
//!   everyone else refused, one quota slot released;
//! * a handle wait ends only once the job resolves, whatever unparks its
//!   thread, and a timed-out wait can be taken up again on another thread.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use cilk::runtime::{AdmissionPolicy, RejectReason, SubmitError, TenantId, ThreadPool};
use cilk::Config;
use cilk_testkit::forall;
use cilk_testkit::prop::any_int;

fn gated_pool(policy: AdmissionPolicy) -> ThreadPool {
    ThreadPool::with_config(Config::new().num_workers(1).admission(policy))
        .expect("pool builds")
}

forall! {
    /// The weighted quota admits exactly `fair_share × weight + burst`
    /// jobs and refuses the next with `QuotaExceeded`; cancelling the
    /// queued ones hands every slot back.
    cases = 16,
    fn weighted_quota_admits_exactly_its_bound(
        fair_share in 1u64..5,
        weight in 1u32..8,
        burst in 0u64..3,
    ) {
        let tenant = TenantId(21);
        let pool = gated_pool(
            AdmissionPolicy::new()
                .shards(1)
                .shard_capacity(64)
                .fair_share(fair_share)
                .burst(burst)
                .weight(tenant, weight),
        );
        let quota = fair_share * u64::from(weight) + burst;

        // The first admitted job gates the only worker; everything else
        // sits queued, so `in_flight` is exactly what we submitted.
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let holder = pool
            .submit_async(tenant, move || {
                started_tx.send(()).unwrap();
                gate_rx.recv().unwrap();
            })
            .expect("slot 1 of the quota");
        started_rx.recv().expect("holder running");

        let queued: Vec<_> = (1..quota)
            .map(|i| {
                pool.submit_async(tenant, || ())
                    .unwrap_or_else(|e| panic!("slot {} of quota {quota}: {e}", i + 1))
            })
            .collect();

        // Slot quota+1 must bounce off the weighted bound.
        match pool.submit(tenant, || ()) {
            Err(SubmitError::Overloaded(over)) => {
                assert_eq!(over.reason, RejectReason::QuotaExceeded, "{over}");
                assert_eq!(over.capacity as u64, quota, "the bound reported is the quota");
            }
            other => panic!("expected quota rejection past slot {quota}, got {other:?}"),
        }

        // Every cancel releases one slot: afterwards the same tenant can
        // re-admit that many jobs even though the worker is still gated.
        for handle in &queued {
            assert!(handle.cancel(), "queued behind a gated worker: cancellable");
        }
        let refilled: Vec<_> = (1..quota)
            .map(|i| {
                pool.submit_async(tenant, || ())
                    .unwrap_or_else(|e| panic!("refill {i} after cancel: {e}"))
            })
            .collect();

        gate_tx.send(()).unwrap();
        assert!(holder.wait().is_some());
        for handle in refilled {
            assert!(handle.wait().is_some(), "refilled job lost");
        }
        let stats = *pool.admission_report().tenant(tenant).expect("tenant recorded");
        assert_eq!(stats.admitted, 2 * quota - 1, "{stats:?}");
        assert_eq!(stats.cancelled, quota - 1, "{stats:?}");
        assert_eq!(stats.completed, quota, "{stats:?}");
        assert_eq!(stats.rejected, 1, "{stats:?}");
        assert_eq!(stats.in_flight, 0, "{stats:?}");
    }

    /// Random cancellations racing real workers: whatever interleaving
    /// the schedule produces, the books balance, no quota slot leaks, and
    /// a closure whose cancel *won* never ran (while every completed
    /// handle's closure did).
    cases = 24,
    fn books_balance_under_racing_cancellation(
        workers in 1usize..4,
        jobs in 1usize..32,
        seed in any_int::<u64>(),
    ) {
        let tenant = TenantId(22);
        let pool = ThreadPool::with_config(Config::new().num_workers(workers).admission(
            AdmissionPolicy::new().shards(1).shard_capacity(64).fair_share(64),
        ))
        .expect("pool builds");
        let mut rng = cilk_testkit::Rng::seed_from_u64(seed);

        let flags: Vec<Arc<AtomicBool>> =
            (0..jobs).map(|_| Arc::new(AtomicBool::new(false))).collect();
        let handles: Vec<_> = flags
            .iter()
            .map(|flag| {
                let flag = Arc::clone(flag);
                pool.submit_async(tenant, move || {
                    // A touch of work so cancels genuinely race claims.
                    std::hint::black_box(cilk_workloads::fib_cutoff(6, 6));
                    flag.store(true, Ordering::SeqCst);
                })
                .expect("within quota")
            })
            .collect();

        let mut cancelled_here = 0u64;
        for handle in &handles {
            if rng.gen_bool(0.5) && handle.cancel() {
                cancelled_here += 1;
            }
        }
        let mut completed_here = 0u64;
        for (handle, flag) in handles.into_iter().zip(&flags) {
            match handle.wait() {
                Some(()) => {
                    completed_here += 1;
                    assert!(flag.load(Ordering::SeqCst), "completed job never ran");
                }
                None => assert!(
                    !flag.load(Ordering::SeqCst),
                    "cancelled job executed anyway (seed {seed:#x})"
                ),
            }
        }

        let stats = *pool.admission_report().tenant(tenant).expect("tenant recorded");
        assert_eq!(stats.admitted, jobs as u64, "{stats:?}");
        assert_eq!(stats.cancelled, cancelled_here, "{stats:?}");
        assert_eq!(stats.completed, completed_here, "{stats:?}");
        assert_eq!(
            stats.admitted,
            stats.completed + stats.cancelled,
            "books must balance: {stats:?}"
        );
        assert_eq!(stats.in_flight, 0, "quota slot leaked: {stats:?}");
        assert_eq!(pool.metrics().jobs_cancelled, cancelled_here, "probe ledger agrees");
    }

    /// Racing `cancel()` callers on one queued handle: exactly one wins.
    cases = 8,
    fn cancel_has_exactly_one_winner(racers in 2usize..6) {
        let tenant = TenantId(23);
        let pool = gated_pool(
            AdmissionPolicy::new().shards(1).shard_capacity(8).fair_share(4),
        );
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let holder = pool
            .submit_async(tenant, move || {
                started_tx.send(()).unwrap();
                gate_rx.recv().unwrap();
            })
            .expect("holder admitted");
        started_rx.recv().expect("holder running");

        let mut doomed = pool.submit_async(tenant, || ()).expect("queued behind the gate");
        let wins = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..racers {
                s.spawn(|| {
                    if doomed.cancel() {
                        wins.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::SeqCst), 1, "{racers} racers, one winner");

        gate_tx.send(()).unwrap();
        assert!(holder.wait().is_some());
        assert!(
            doomed.wait_timeout(Duration::from_secs(10)),
            "cancelled handle resolves"
        );
        let stats = *pool.admission_report().tenant(tenant).expect("tenant recorded");
        assert_eq!(stats.admitted, 2, "{stats:?}");
        assert_eq!(stats.completed, 1, "{stats:?}");
        assert_eq!(stats.cancelled, 1, "{stats:?}");
        assert_eq!(stats.in_flight, 0, "{stats:?}");
    }
}

/// A job gated until `release` is sent, then returning whether `released`
/// was set before it — so a `Some(true)` proves the wait ended after it.
fn gated_job(
    pool: &ThreadPool,
) -> (cilk::runtime::JobHandle<bool>, Arc<AtomicBool>, mpsc::Sender<()>) {
    let released = Arc::new(AtomicBool::new(false));
    let (release, gate) = mpsc::channel::<()>();
    let flag = Arc::clone(&released);
    let handle = pool
        .submit_async(TenantId(24), move || {
            gate.recv().unwrap();
            flag.load(Ordering::SeqCst)
        })
        .expect("no policy, no refusal");
    (handle, released, release)
}

/// Unparks aimed at the waiting thread (a spurious wake-up, or a token left
/// over from another wait) never end a handle wait early.
#[test]
fn handle_wait_ignores_stray_unparks() {
    let pool = ThreadPool::with_config(Config::new().num_workers(1)).expect("pool builds");
    let (handle, released, release) = gated_job(&pool);
    let waiter = std::thread::current();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                waiter.unpark();
                std::thread::yield_now();
            }
        });
        s.spawn(|| {
            std::thread::sleep(Duration::from_millis(20));
            released.store(true, Ordering::SeqCst);
            release.send(()).unwrap();
        });
        assert_eq!(handle.wait(), Some(true), "wait returned before the job finished");
        stop.store(true, Ordering::Relaxed);
    });
}

/// A wait that timed out withdrew from the handle's parker: the handle can
/// move to another thread and be woken there.
#[test]
fn timed_out_handle_waits_again_on_another_thread() {
    let pool = ThreadPool::with_config(Config::new().num_workers(1)).expect("pool builds");
    let (mut handle, released, release) = gated_job(&pool);
    assert!(!handle.wait_timeout(Duration::from_millis(10)), "the job is gated");
    assert!(!handle.wait_timeout(Duration::ZERO), "still gated");
    let waiter = std::thread::spawn(move || handle.wait());
    std::thread::sleep(Duration::from_millis(20));
    released.store(true, Ordering::SeqCst);
    release.send(()).unwrap();
    assert_eq!(waiter.join().expect("waiter panicked"), Some(true));
}
