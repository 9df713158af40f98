//! Starvation-freedom soak for the phase-2 scheduler service: weighted
//! fairness, aging, async handles with cancellation, the circuit breaker
//! and client-side retry, all exercised against sustained overload
//! (docs/scheduler-service.md):
//!
//! * **Low never starves under a permanent High flood** — with a High
//!   tenant offering 4× capacity and a Low-band tenant at 10% fair share
//!   (weights 9:1), every admitted Low job completes within a generous
//!   aged deadline, none is cancelled, and the aging counters prove the
//!   band climb actually happened;
//! * **weighted goodput tracks the weight ratio** — two tenants flooding
//!   the same shard at weights 3:1 complete work in that ratio, within
//!   the ISSUE's 10% tolerance;
//! * **`cancel()` on a queued handle releases the quota slot and the job
//!   never executes**; cancelling finished work is a no-op;
//! * **a tripped breaker fast-fails with a retry hint and recovers
//!   through its half-open probe**;
//! * **`submit_with_retry` rides out a transient overload** and panics
//!   travel through `JobHandle::wait` with their original payload;
//! * **open-loop collapse stays bounded** — offered load past capacity
//!   surfaces as typed rejections, queue depth and latency stay bounded,
//!   and the books balance to the last arrival.
//!
//! The pinned slice replays fixed seeds; the randomized slice derives its
//! seeds from `CILK_TEST_SEED` and prints them, like the overload soak.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use cilk::runtime::{
    AdmissionPolicy, Priority, RejectReason, RetryPolicy, SubmitError, TenantId,
    ThreadPool,
};
use cilk::Config;
use cilk_workloads::traffic::{percentile, run_open_loop, OpenLoopSpec};

/// Latency bounds are wall-clock-sensitive; running soak cases
/// concurrently with each other would only add scheduler noise.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

const HIGH: TenantId = TenantId(1);
const LOW: TenantId = TenantId(2);

/// Aged deadline for a Low job under flood: age_after (5ms) + a claim
/// pass + one full DRR cycle at weight 1-of-10 + service, with a wide
/// margin for a loaded CI box. Anything past this is starvation.
const AGED_DEADLINE: Duration = Duration::from_millis(500);

/// One starvation cell: a High tenant floods one shard open-loop at 4×
/// capacity while a Low-band tenant trickles at 10% of capacity. Weights
/// 9:1 put the Low tenant at a 10% fair share; its weighted quota
/// (`fair_share × weight + burst`) keeps the flood's standing backlog
/// strictly below the shard capacity, so the trickle is never locked out
/// at the door — and aging is the only way its band-2 jobs ever get
/// served while the High band stays backlogged.
fn starvation_cell(seed: u64, workers: usize) {
    let service_floor = Duration::from_millis(2);
    // capacity = workers / service_floor jobs per second.
    let flood_period = service_floor / (4 * workers as u32); // 4× capacity
    let trickle_period = service_floor * 10 / workers as u32; // 10% of capacity
    let pool = ThreadPool::with_config(Config::new().num_workers(workers).admission(
        AdmissionPolicy::new()
            .shards(1)
            .shard_capacity(16)
            .fair_share(1)
            .burst(1)
            .weight(HIGH, 9) // quota 10: backlog bounded under capacity 16
            .weight(LOW, 1) // quota 2: the 10% fair share
            .age_after(Duration::from_millis(5))
            .handoff_batch(4),
    ))
    .expect("pool builds");

    let flood = OpenLoopSpec {
        priority: Priority::High,
        period: flood_period,
        jobs: 300,
        service_floor,
        seed: seed ^ 0xF100D,
        ..OpenLoopSpec::new(HIGH)
    };
    let trickle = OpenLoopSpec {
        priority: Priority::Low,
        period: trickle_period,
        jobs: 8,
        service_floor,
        seed: seed ^ 0x10,
        ..OpenLoopSpec::new(LOW)
    };
    let report = run_open_loop(&pool, &[flood, trickle]);
    let ctx = format!("seed {seed:#x}, {workers}w");

    // Every arrival accounted, nothing stranded.
    assert_eq!(pool.queued_jobs(), 0, "{ctx}: job stranded in the injector");
    let admission = pool.admission_report();
    assert_eq!(admission.queued, 0, "{ctx}: {admission:?}");
    for stream in &report.streams {
        assert_eq!(
            stream.admitted + stream.rejected,
            stream.offered,
            "{ctx}: arrivals conserved for {:?}",
            stream.tenant
        );
        let stats = *admission.tenant(stream.tenant).expect("tenant recorded");
        assert_eq!(stats.in_flight, 0, "{ctx}: quota slot leaked: {stats:?}");
        assert_eq!(
            stats.admitted,
            stats.completed + stats.cancelled,
            "{ctx}: books must balance: {stats:?}"
        );
    }

    // Starvation freedom: every admitted Low job completed — none
    // cancelled, none stuck — and it completed within the aged deadline.
    let low = &report.streams[1];
    assert!(low.admitted > 0, "{ctx}: the flood locked the Low tenant out entirely");
    assert_eq!(low.cancelled, 0, "{ctx}: a Low job was dropped");
    assert_eq!(low.completed, low.admitted, "{ctx}: a Low job starved");
    let worst = low.latencies.iter().max().copied().unwrap_or_default();
    assert!(
        worst <= AGED_DEADLINE,
        "{ctx}: Low job took {worst:?}, past its aged deadline {AGED_DEADLINE:?}"
    );

    // The flood is 4× capacity by construction: the excess surfaces as
    // typed rejections and the queue never escapes its bound.
    let high = &report.streams[0];
    assert!(high.rejected > 0, "{ctx}: a 4× flood must see rejections");
    let metrics = pool.metrics();
    assert!(
        metrics.injector_high_watermark <= 16,
        "{ctx}: queue depth {} escaped its bound",
        metrics.injector_high_watermark
    );

    // Aging did the rescuing: with the High band permanently backlogged,
    // a band-2 job is only ever served after climbing, two promotions per
    // climb (Low → Normal → High).
    assert!(
        metrics.jobs_aged >= 2,
        "{ctx}: Low completions without aging events: {metrics:?}"
    );
    drop(pool);
}

/// The pinned-seed slice CI runs by name (`ci.sh` step "starvation
/// soak"): deterministic open-loop streams at 2 and 4 workers.
#[test]
fn starvation_soak_pinned_seeds() {
    let _serial = serial();
    for seed in 0..2u64 {
        for workers in [2usize, 4] {
            starvation_cell(seed, workers);
        }
    }
}

/// The randomized slice: stream seeds derive from the workspace base seed
/// (deterministic under `CILK_TEST_SEED`) and are printed for replay.
#[test]
fn starvation_soak_randomized() {
    let _serial = serial();
    let mut rng = cilk_testkit::rng_for("starvation-soak.randomized");
    let seeds: Vec<u64> = (0..2).map(|_| rng.next_u64()).collect();
    println!(
        "starvation soak randomized slice: CILK_TEST_SEED={:#x} -> stream seeds {seeds:x?}",
        cilk_testkit::base_seed(),
    );
    for &seed in &seeds {
        for workers in [2usize, 4] {
            starvation_cell(seed, workers);
        }
    }
}

/// Two tenants flooding the same shard at weights 3:1 complete work in
/// that ratio while both stay backlogged — the DRR invariant, measured as
/// goodput over a steady-state window (warmup excluded) and checked
/// against the ISSUE's 10% tolerance.
#[test]
fn weighted_goodput_tracks_weight_ratio() {
    let _serial = serial();
    let workers = 2;
    let heavy = TenantId(7);
    let light = TenantId(8);
    let pool = ThreadPool::with_config(Config::new().num_workers(workers).admission(
        AdmissionPolicy::new()
            .shards(1)
            .shard_capacity(48)
            .fair_share(8)
            .burst(0)
            .weight(heavy, 3)
            .weight(light, 1)
            // Both streams run at one priority; keep aging out of the way.
            .age_after(Duration::from_secs(60))
            .handoff_batch(4),
    ))
    .expect("pool builds");

    let service_floor = Duration::from_millis(2);
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for tenant in [heavy, light] {
            let pool = &pool;
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let submission = pool.tenant(tenant);
                let mut handles = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    match submission.submit_async(move || {
                        let start = Instant::now();
                        let v = cilk_workloads::fib_cutoff(8, 8);
                        if let Some(rem) = service_floor.checked_sub(start.elapsed()) {
                            std::thread::sleep(rem);
                        }
                        v
                    }) {
                        Ok(handle) => handles.push(handle),
                        // Quota is full: the backlog is standing, which is
                        // exactly the regime DRR is specified for.
                        Err(SubmitError::Overloaded(_)) => {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(other) => panic!("unexpected submit error: {other}"),
                    }
                }
                for handle in handles {
                    assert!(handle.wait().is_some(), "flood job lost");
                }
            });
        }

        // Warmup fills both backlogs, then a steady-state window.
        std::thread::sleep(Duration::from_millis(60));
        let at_warmup = pool.admission_report();
        let warm_heavy = at_warmup.tenant(heavy).expect("heavy recorded").completed;
        let warm_light = at_warmup.tenant(light).expect("light recorded").completed;
        std::thread::sleep(Duration::from_millis(300));
        let at_end = pool.admission_report();
        let delta_heavy = at_end.tenant(heavy).unwrap().completed - warm_heavy;
        let delta_light = at_end.tenant(light).unwrap().completed - warm_light;
        stop.store(true, Ordering::Relaxed);

        assert!(delta_light > 0, "light tenant starved outright");
        let ratio = delta_heavy as f64 / delta_light as f64;
        assert!(
            (ratio - 3.0).abs() <= 0.3,
            "goodput ratio {ratio:.2} ({delta_heavy}/{delta_light}) strayed \
             past 10% of the 3:1 weight ratio"
        );
    });

    // After the drain the books balance exactly.
    let admission = pool.admission_report();
    for tenant in [heavy, light] {
        let stats = *admission.tenant(tenant).expect("tenant recorded");
        assert_eq!(stats.in_flight, 0, "quota slot leaked: {stats:?}");
        assert_eq!(stats.admitted, stats.completed, "{stats:?}");
        assert_eq!(stats.cancelled, 0, "{stats:?}");
    }
    drop(pool);
}

/// `cancel()` on a not-yet-started handle releases the quota slot, never
/// executes the job, and is counted on the cancelled side of the ledger.
#[test]
fn cancel_releases_quota_and_never_executes() {
    let _serial = serial();
    let tenant = TenantId(4);
    let pool = ThreadPool::with_config(Config::new().num_workers(1).admission(
        AdmissionPolicy::new().shards(1).shard_capacity(8).fair_share(2).burst(0),
    ))
    .expect("pool builds");

    // Gate the only worker so nothing queued behind it can start.
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let holder = pool
        .submit_async(tenant, move || {
            started_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
            1u32
        })
        .expect("holder admitted");
    started_rx.recv().expect("holder running");

    // Queued behind the gated worker; must never run once cancelled.
    let ran = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&ran);
    let doomed = pool
        .submit_async(tenant, move || flag.store(true, Ordering::SeqCst))
        .expect("second slot admitted");
    assert!(!doomed.poll(), "nothing can run while the worker is gated");

    // Quota (fair_share 2, burst 0) is now exhausted.
    match pool.submit(tenant, || ()) {
        Err(SubmitError::Overloaded(over)) => {
            assert_eq!(over.reason, RejectReason::QuotaExceeded, "{over}")
        }
        other => panic!("expected quota rejection, got {other:?}"),
    }

    assert!(doomed.cancel(), "a queued job is cancellable");
    assert!(!doomed.cancel(), "cancellation is exactly-once");
    assert!(doomed.poll(), "a cancelled handle is finished");

    // The slot came back: a new submission is admitted immediately, while
    // the worker is still gated.
    let after = pool
        .submit_async(tenant, || 42u32)
        .expect("cancel released the quota slot");

    gate_tx.send(()).unwrap();
    assert_eq!(holder.wait(), Some(1));
    assert_eq!(after.wait(), Some(42));
    assert!(!ran.load(Ordering::SeqCst), "a cancelled job executed");

    let stats = *pool.admission_report().tenant(tenant).expect("tenant recorded");
    assert_eq!(stats.admitted, 3, "{stats:?}");
    assert_eq!(stats.completed, 2, "{stats:?}");
    assert_eq!(stats.cancelled, 1, "{stats:?}");
    assert_eq!(stats.rejected, 1, "{stats:?}");
    assert_eq!(stats.in_flight, 0, "{stats:?}");
    let metrics = pool.metrics();
    assert_eq!(metrics.jobs_cancelled, 1, "{metrics:?}");
    drop(pool);
}

/// Cancelling work that already finished is a no-op: the result survives.
#[test]
fn cancel_after_completion_is_a_no_op() {
    let _serial = serial();
    let tenant = TenantId(5);
    let pool = ThreadPool::with_config(
        Config::new()
            .num_workers(1)
            .admission(AdmissionPolicy::new().shards(1).shard_capacity(8).fair_share(4)),
    )
    .expect("pool builds");
    let mut handle = pool.submit_async(tenant, || 7u64).expect("admitted");
    assert!(handle.wait_timeout(Duration::from_secs(10)), "job finishes");
    assert!(!handle.cancel(), "finished work cannot be cancelled");
    assert_eq!(handle.wait(), Some(7));
    let stats = *pool.admission_report().tenant(tenant).expect("tenant recorded");
    assert_eq!(stats.completed, 1, "{stats:?}");
    assert_eq!(stats.cancelled, 0, "{stats:?}");
    drop(pool);
}

/// A tripped breaker fast-fails with a retry hint — without touching the
/// per-tenant shard stats (the O(1) path) — and recovers through its
/// half-open probe after the cooldown.
#[test]
fn breaker_trips_fast_fails_and_recovers() {
    let _serial = serial();
    let tenant = TenantId(6);
    let cooldown = Duration::from_millis(50);
    let pool = ThreadPool::with_config(Config::new().num_workers(1).admission(
        AdmissionPolicy::new()
            .shards(1)
            .shard_capacity(8)
            .fair_share(1)
            .burst(0)
            .breaker(3, cooldown),
    ))
    .expect("pool builds");

    // Gate the quota (fair_share 1): every further submission is refused.
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let holder = pool
        .submit_async(tenant, move || {
            started_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        })
        .expect("holder admitted");
    started_rx.recv().expect("holder running");

    // Three consecutive quota rejections: the third strike trips the
    // breaker.
    for strike in 1..=3 {
        match pool.submit(tenant, || ()) {
            Err(SubmitError::Overloaded(over)) => {
                assert_eq!(over.reason, RejectReason::QuotaExceeded, "strike {strike}: {over}")
            }
            other => panic!("strike {strike}: expected rejection, got {other:?}"),
        }
    }
    let tripped = pool.metrics();
    assert_eq!(tripped.breakers_tripped, 1, "{tripped:?}");
    let shard_rejections = pool.admission_report().tenant(tenant).unwrap().rejected;
    assert_eq!(shard_rejections, 3, "the strikes came through the shard path");

    // Open breaker: O(1) fast-fail with a retry hint, shard stats
    // untouched (the whole point — no locks on the rejection path).
    let start = Instant::now();
    match pool.submit(tenant, || ()) {
        Err(SubmitError::Overloaded(over)) => {
            assert_eq!(over.reason, RejectReason::BreakerOpen, "{over}");
            assert!(over.retry_after.is_some(), "open breaker hints a retry: {over}");
        }
        other => panic!("expected breaker fast-fail, got {other:?}"),
    }
    assert!(start.elapsed() < cooldown, "fast-fail must not wait out the cooldown");
    assert_eq!(
        pool.admission_report().tenant(tenant).unwrap().rejected,
        shard_rejections,
        "a breaker fast-fail never reaches the shard stats"
    );
    let metrics = pool.metrics();
    assert_eq!(metrics.jobs_rejected, 4, "fast-fails still count globally: {metrics:?}");

    // Free the quota, wait out the cooldown: the half-open probe is
    // admitted, succeeds, and the breaker closes.
    gate_tx.send(()).unwrap();
    assert!(holder.wait().is_some());
    std::thread::sleep(cooldown + Duration::from_millis(10));
    assert_eq!(pool.submit(tenant, || 11u32).expect("half-open probe admitted"), 11);
    assert_eq!(pool.submit(tenant, || 12u32).expect("breaker closed after the probe"), 12);

    let stats = *pool.admission_report().tenant(tenant).expect("tenant recorded");
    assert_eq!(stats.admitted, stats.completed + stats.cancelled, "{stats:?}");
    assert_eq!(stats.in_flight, 0, "{stats:?}");
    drop(pool);
}

/// `submit_with_retry` rides out a transient quota overload: refusals back
/// off (seeded jitter, deadline-bounded) until the gate lifts.
#[test]
fn submit_with_retry_rides_out_transient_overload() {
    let _serial = serial();
    let tenant = TenantId(9);
    let pool = ThreadPool::with_config(Config::new().num_workers(1).admission(
        AdmissionPolicy::new().shards(1).shard_capacity(8).fair_share(1).burst(0),
    ))
    .expect("pool builds");

    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let holder = pool
        .submit_async(tenant, move || {
            started_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        })
        .expect("holder admitted");
    started_rx.recv().expect("holder running");

    // Lift the gate mid-retry.
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        gate_tx.send(()).unwrap();
    });
    let policy = RetryPolicy::new()
        .max_attempts(16)
        .base_delay(Duration::from_millis(5))
        .max_delay(Duration::from_millis(20))
        .deadline(Duration::from_secs(5))
        .seed(0xD0C);
    let v = pool
        .submit_with_retry(tenant, &policy, || cilk_workloads::fib_cutoff(10, 6))
        .expect("retry succeeds once the quota frees up");
    assert_eq!(v, cilk_workloads::fib_serial(10));
    release.join().unwrap();
    assert!(holder.wait().is_some());

    let stats = *pool.admission_report().tenant(tenant).expect("tenant recorded");
    assert!(stats.rejected >= 1, "at least one transient refusal: {stats:?}");
    assert_eq!(stats.admitted, 2, "{stats:?}");
    assert_eq!(stats.completed, 2, "{stats:?}");
    assert_eq!(stats.in_flight, 0, "{stats:?}");
    drop(pool);
}

/// A panic inside an async job travels through `wait()` with its original
/// payload, the books still balance, and the pool stays usable.
#[test]
fn panic_propagates_through_handle_wait() {
    let _serial = serial();
    let tenant = TenantId(3);
    let pool = ThreadPool::with_config(
        Config::new()
            .num_workers(2)
            .admission(AdmissionPolicy::new().shards(1).shard_capacity(8).fair_share(4)),
    )
    .expect("pool builds");
    let handle = pool
        .submit_async(tenant, || -> u32 { panic!("async boom") })
        .expect("admitted");
    let unwound = catch_unwind(AssertUnwindSafe(|| handle.wait()))
        .expect_err("the payload must resurface");
    let msg = unwound.downcast_ref::<&str>().copied().unwrap_or_default();
    assert_eq!(msg, "async boom");

    // The pool survived: the panicked job is on the completed side of the
    // ledger and new work still runs.
    assert_eq!(pool.submit(tenant, || 2 + 2).expect("pool still runs work"), 4);
    let stats = *pool.admission_report().tenant(tenant).expect("tenant recorded");
    assert_eq!(stats.admitted, 2, "{stats:?}");
    assert_eq!(stats.completed, 2, "{stats:?}");
    assert_eq!(stats.in_flight, 0, "{stats:?}");
    drop(pool);
}

/// Open-loop collapse (`ci.sh` step "open-loop collapse"): a single
/// tenant at 4× capacity. The excess is shed as typed rejections, queue
/// depth and admitted-work latency stay bounded, and every arrival is
/// accounted.
#[test]
fn open_loop_collapse_stays_bounded() {
    let _serial = serial();
    let workers = 2;
    let tenant = TenantId(11);
    let shard_capacity = 16;
    let pool = ThreadPool::with_config(Config::new().num_workers(workers).admission(
        AdmissionPolicy::new()
            .shards(1)
            .shard_capacity(shard_capacity)
            .fair_share(shard_capacity as u64)
            .burst(0)
            .handoff_batch(4),
    ))
    .expect("pool builds");

    let service_floor = Duration::from_millis(2);
    let spec = OpenLoopSpec {
        period: service_floor / (4 * workers as u32), // 4× capacity
        jobs: 300,
        service_floor,
        seed: 0xC0 << 8,
        ..OpenLoopSpec::new(tenant)
    };
    let report = run_open_loop(&pool, &[spec]);
    let stream = &report.streams[0];

    assert_eq!(stream.admitted + stream.rejected, stream.offered, "arrivals conserved");
    assert!(stream.rejected > 0, "a 4× flood must shed");
    assert_eq!(stream.completed + stream.cancelled, stream.admitted, "books balance");
    assert_eq!(stream.cancelled, 0, "nothing dropped");
    assert_eq!(pool.queued_jobs(), 0, "queue drains after the flood");

    let metrics = pool.metrics();
    assert!(
        metrics.injector_high_watermark <= shard_capacity,
        "queue depth {} escaped its bound {shard_capacity}",
        metrics.injector_high_watermark
    );

    // Bounded queue ⇒ bounded latency: at most `capacity` jobs ahead of
    // any admitted arrival, so p99 stays far under a generous SLO.
    let mut latencies = stream.latencies.clone();
    latencies.sort_unstable();
    let p99 = percentile(&latencies, 99.0);
    assert!(
        p99 <= Duration::from_millis(500),
        "p99 {p99:?} blew the SLO (p50 {:?})",
        percentile(&latencies, 50.0)
    );

    let stats = *pool.admission_report().tenant(tenant).expect("tenant recorded");
    assert_eq!(stats.admitted, stats.completed + stats.cancelled, "{stats:?}");
    assert_eq!(stats.in_flight, 0, "{stats:?}");
    drop(pool);
}
