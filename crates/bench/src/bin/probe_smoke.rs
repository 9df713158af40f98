//! Probe-overhead smoke check, run by `ci.sh`.
//!
//! This binary is a fresh process that never registers a probe consumer,
//! so it certifies the probe layer's disabled-cost contract end to end:
//!
//! * the global gate mask is empty and stays empty — every emission site
//!   in the scheduler ran as one relaxed atomic load;
//! * scheduler behaviour through the probe seams is unchanged: a 1-worker
//!   fib run produces exactly the spawn counts the pre-probe runtime
//!   produced (spawns = internal calls, every continuation popped back
//!   inline, zero steals);
//! * the per-pool metrics counters — now fed as `ProbeEvent` translations
//!   — report the identical numbers.
//!
//! Timing is printed informationally; assertions are count-based so the
//! check is deterministic on loaded CI machines.

use std::time::Instant;

use cilk_runtime::probe;

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = cilk_runtime::join(|| fib(n - 1), || fib(n - 2));
    a + b
}

/// Number of `join` calls fib(n) executes: one per internal call.
fn join_count(n: u64) -> u64 {
    if n < 2 {
        0
    } else {
        join_count(n - 1) + join_count(n - 2) + 1
    }
}

fn main() {
    cilk_bench::section("probe smoke: zero-consumer fast path");

    assert_eq!(
        probe::consumer_count(),
        0,
        "a fresh process must start with no probe consumers"
    );
    assert_eq!(probe::installed_mask(), probe::EventMask::NONE);
    assert!(!probe::enabled(probe::EventMask::ALL), "no group may be enabled");

    const N: u64 = 21;
    let expected_spawns = join_count(N);

    let pool = cilk_runtime::ThreadPool::with_config(
        cilk_runtime::Config::new().num_workers(1),
    )
    .expect("pool");
    let start = Instant::now();
    let v = pool.install(|| fib(N));
    let elapsed = start.elapsed();
    assert_eq!(v, 10946);

    let m = pool.metrics();
    println!("fib({N}) on 1 worker: {elapsed:?}");
    println!(
        "spawns {}  inline_pops {}  steals {}",
        m.spawns, m.inline_pops, m.steals
    );
    assert_eq!(
        m.spawns, expected_spawns,
        "metrics through the probe seam must match the join count"
    );
    assert_eq!(
        m.inline_pops, m.spawns,
        "at 1 worker every continuation is popped back inline"
    );
    assert_eq!(m.steals, 0, "a single worker cannot steal");

    // The run itself must not have registered anything.
    assert_eq!(probe::consumer_count(), 0);
    assert_eq!(probe::installed_mask(), probe::EventMask::NONE);
    assert!(
        !probe::strand_session_active(),
        "no strand-profiling frame may be live outside a session"
    );

    // Supervision-off contract: an unsupervised pool pays exactly one
    // relaxed load per heartbeat site (the `Option` discriminant test) and
    // its supervision counters stay at zero.
    assert_eq!(pool.live_workers(), pool.num_workers());
    assert!(pool.supervisor_report().is_none(), "unsupervised pool has no supervisor");
    assert_eq!(m.workers_respawned, 0);
    assert_eq!(m.jobs_reclaimed, 0);
    assert_eq!(m.pool_degraded, 0);

    cilk_bench::section("probe smoke: supervision stays off the probe registry");

    // A *supervised* pool runs its own monitor thread but must not widen
    // the global probe gate: supervision is per-pool state, not a probe
    // consumer, so unrelated pools keep the one-relaxed-load fast path.
    let supervised = cilk_runtime::ThreadPool::with_config(
        cilk_runtime::Config::new()
            .num_workers(2)
            .supervision(cilk_runtime::SupervisionPolicy::new().max_respawns(2)),
    )
    .expect("supervised pool");
    assert_eq!(
        probe::consumer_count(),
        0,
        "supervision must not register probe consumers"
    );
    assert_eq!(probe::installed_mask(), probe::EventMask::NONE);
    let v = supervised.install(|| fib(16));
    assert_eq!(v, 987);
    let report = supervised.supervisor_report().expect("supervised pool reports");
    assert_eq!(report.live_workers, 2);
    assert_eq!(report.respawns_used, 0, "no faults, no respawns");
    assert!(!report.degraded);
    assert!(
        report.heartbeats.iter().sum::<u64>() > 0,
        "workers beat at scheduling-loop boundaries: {report:?}"
    );
    drop(supervised);
    assert_eq!(probe::consumer_count(), 0);
    assert_eq!(probe::installed_mask(), probe::EventMask::NONE);

    cilk_bench::section("probe smoke: admission layer stays off the probe registry");

    // A scheduler-service pool (admission policy installed) routes every
    // submission through quota + sharded bounded queues, emitting
    // JobAdmitted/JobRejected/QueueDepth events — all of which must ride
    // the same one-relaxed-load fast path and register no consumers.
    let service = cilk_runtime::ThreadPool::with_config(
        cilk_runtime::Config::new().num_workers(1).admission(
            cilk_runtime::AdmissionPolicy::new()
                .shards(2)
                .shard_capacity(8)
                .fair_share(1)
                .burst(0),
        ),
    )
    .expect("service pool");
    assert_eq!(
        probe::consumer_count(),
        0,
        "admission control must not register probe consumers"
    );
    assert_eq!(probe::installed_mask(), probe::EventMask::NONE);

    let tenant = cilk_runtime::TenantId(5);
    // Deterministic quota rejection: hold the tenant's single in-flight
    // slot open with a gated job, then submit again from this thread.
    let (started_tx, started_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    std::thread::scope(|s| {
        let holder = s.spawn(|| {
            service.submit(tenant, move || {
                started_tx.send(()).expect("main thread listens");
                release_rx.recv().expect("main thread releases");
                21
            })
        });
        started_rx.recv().expect("held job starts");
        match service.submit(tenant, || 0) {
            Err(cilk_runtime::SubmitError::Overloaded(over)) => {
                assert_eq!(over.tenant, tenant, "{over}");
                assert_eq!(over.queued, 1, "one in-flight submission: {over}");
                assert_eq!(over.capacity, 1, "fair_share 1 + burst 0: {over}");
                assert_eq!(over.reason, cilk_runtime::RejectReason::QuotaExceeded);
            }
            other => panic!("tenant at quota must be rejected, got {other:?}"),
        }
        release_tx.send(()).expect("held job waits");
        let v = holder.join().expect("submitter thread").expect("admitted work completes");
        assert_eq!(v, 21);
    });
    let v = service.submit(tenant, || 2).expect("slot released: admitted again");
    assert_eq!(v, 2);

    let m = service.metrics();
    assert_eq!(m.jobs_admitted, 2, "two admitted submissions: {m:?}");
    assert_eq!(m.jobs_rejected, 1, "exactly the quota rejection: {m:?}");
    assert_eq!(m.injector_high_watermark, 1, "never more than one queued: {m:?}");
    assert_eq!(m.injector_batches, 0, "single-job claims are not batches: {m:?}");
    let report = service.admission_report();
    assert_eq!(report.shards, 2);
    assert_eq!(report.queued, 0, "service drained: {report:?}");
    let stats = *report.tenant(tenant).expect("tenant recorded");
    assert_eq!(stats.admitted, 2, "{stats:?}");
    assert_eq!(stats.rejected, 1, "{stats:?}");
    assert_eq!(stats.completed, 2, "{stats:?}");
    assert_eq!(stats.cancelled, 0, "{stats:?}");
    assert_eq!(stats.in_flight, 0, "all quota slots returned: {stats:?}");
    drop(service);
    assert_eq!(probe::consumer_count(), 0);
    assert_eq!(probe::installed_mask(), probe::EventMask::NONE);

    cilk_bench::section("probe smoke: phase-2 events stay off the probe registry");

    // Aging promotions, handle cancellation and breaker trips emit
    // JobAged/JobCancelled/BreakerTripped through the same global gate —
    // one relaxed load each while no consumer is installed — and the
    // per-pool counters record exact, deterministic counts.
    let phase2 = cilk_runtime::ThreadPool::with_config(
        cilk_runtime::Config::new().num_workers(1).admission(
            cilk_runtime::AdmissionPolicy::new()
                .shards(1)
                .shard_capacity(3)
                .fair_share(8)
                .burst(0)
                .age_after(std::time::Duration::from_millis(5))
                .breaker(2, std::time::Duration::from_secs(60)),
        ),
    )
    .expect("phase-2 pool");
    let tenant = cilk_runtime::TenantId(6);

    // Gate the only worker so the queue below is fully deterministic.
    let (started_tx, started_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let holder = phase2
        .submit_async(tenant, move || {
            started_tx.send(()).expect("main thread listens");
            release_rx.recv().expect("main thread releases");
        })
        .expect("holder admitted");
    started_rx.recv().expect("held job starts");

    // One Low-band job (will age two bands: exactly 2 JobAged events),
    // one job to cancel, one High-band filler to pin the queue at
    // capacity 3 (High is band 0 already — it cannot age and muddy the
    // JobAged count; the cancelled job never survives to a claim pass).
    let low = phase2
        .tenant(tenant)
        .priority(cilk_runtime::Priority::Low)
        .submit_async(|| 5u32)
        .expect("low-band job admitted");
    let doomed = phase2.submit_async(tenant, || 6u32).expect("doomed job admitted");
    let filler = phase2
        .tenant(tenant)
        .priority(cilk_runtime::Priority::High)
        .submit_async(|| 7u32)
        .expect("filler admitted");

    // Queue full: two QueueFull strikes trip the threshold-2 breaker
    // (exactly 1 BreakerTripped), the third rejection is the O(1)
    // fast-fail — counted globally but never reaching the shard stats.
    for strike in 1..=2 {
        match phase2.submit(tenant, || 0) {
            Err(cilk_runtime::SubmitError::Overloaded(over)) => {
                assert_eq!(
                    over.reason,
                    cilk_runtime::RejectReason::QueueFull,
                    "strike {strike}: {over}"
                );
            }
            other => panic!("strike {strike}: full queue must reject, got {other:?}"),
        }
    }
    match phase2.submit(tenant, || 0) {
        Err(cilk_runtime::SubmitError::Overloaded(over)) => {
            assert_eq!(over.reason, cilk_runtime::RejectReason::BreakerOpen, "{over}");
            assert!(over.retry_after.is_some(), "open breaker hints a retry: {over}");
        }
        other => panic!("tripped breaker must fast-fail, got {other:?}"),
    }

    assert!(doomed.cancel(), "queued behind a gated worker: cancellable");
    std::thread::sleep(std::time::Duration::from_millis(12)); // > age_after
    release_tx.send(()).expect("held job waits");
    assert!(holder.wait().is_some());
    assert_eq!(low.wait(), Some(5), "aged job served");
    assert_eq!(filler.wait(), Some(7), "filler served");

    let m = phase2.metrics();
    assert_eq!(m.jobs_aged, 2, "one Low job climbs exactly two bands: {m:?}");
    assert_eq!(m.jobs_cancelled, 1, "exactly the one cancel: {m:?}");
    assert_eq!(m.breakers_tripped, 1, "exactly one trip at strike 2: {m:?}");
    assert_eq!(m.jobs_rejected, 3, "two strikes + one fast-fail: {m:?}");
    let stats = *phase2.admission_report().tenant(tenant).expect("tenant recorded");
    assert_eq!(stats.admitted, 4, "{stats:?}");
    assert_eq!(stats.completed, 3, "{stats:?}");
    assert_eq!(stats.cancelled, 1, "{stats:?}");
    assert_eq!(stats.rejected, 2, "breaker fast-fails skip the shard stats: {stats:?}");
    assert_eq!(stats.in_flight, 0, "{stats:?}");
    drop(phase2);

    // The whole phase-2 exercise registered nothing: every JobAged,
    // JobCancelled and BreakerTripped emission paid one relaxed load.
    assert_eq!(probe::consumer_count(), 0);
    assert_eq!(probe::installed_mask(), probe::EventMask::NONE);

    println!("probe smoke: all disabled-cost invariants hold");
}
