//! Overload soak for the multi-tenant scheduler service: offered load
//! deliberately past capacity, checked against the graceful-degradation
//! contract (docs/scheduler-service.md):
//!
//! * **rejections absorb the excess** — every attempt is accounted admitted
//!   or rejected, nothing is silently dropped and nothing is stranded in
//!   the injector;
//! * **queue depth stays bounded** — the per-shard high watermark never
//!   exceeds the configured shard capacity;
//! * **fair share survives a flood** — a tenant submitting within its quota
//!   keeps ≥ 90% of its throughput while another tenant floods the pool;
//! * **admitted work meets a (generous) latency SLO** at 2/4/8 workers;
//! * **a degraded pool sheds instead of stalling** — once every worker is
//!   dead with no supervisor to respawn, new submissions fail fast with a
//!   typed `Overloaded { Shed }`, not a hang.
//!
//! The pinned slice replays fixed seeds; the randomized slice derives its
//! seeds from `CILK_TEST_SEED` and prints them, like the fault matrix.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use cilk::runtime::fault::{FaultAction, FaultSite};
use cilk::runtime::{
    AdmissionPolicy, Priority, RejectReason, SubmitError, TenantId, ThreadPool,
};
use cilk::Config;
use cilk_faults::FaultPlan;
use cilk_workloads::traffic::{percentile, run_traffic, StreamSpec};

/// Latency percentiles are wall-clock-sensitive; running soak cases
/// concurrently with each other would only add scheduler noise.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Generous end-to-end bound for admitted work (each job is ~tens of µs of
/// fib): loose enough for a loaded CI box, tight enough to catch a
/// queue-forever regression.
const P99_SLO: Duration = Duration::from_millis(500);

/// One soak cell: a victim tenant inside its fair share and a flooding
/// tenant offering several times the pool's quota, closed-loop, with
/// seeded work sizes.
fn soak_cell(seed: u64, workers: usize) {
    let fair_share = workers as u64;
    let shard_capacity = 8;
    let pool = ThreadPool::with_config(Config::new().num_workers(workers).admission(
        AdmissionPolicy::new()
            .shards(2)
            .shard_capacity(shard_capacity)
            .fair_share(fair_share)
            .burst(1)
            .handoff_batch(4),
    ))
    .expect("pool builds");
    let quota = fair_share + 1;

    let victim = StreamSpec {
        clients: workers, // ≤ quota: never legitimately over its share
        jobs_per_client: 12,
        work: 10,
        work_spread: 2,
        priority: Priority::High,
        seed,
        ..StreamSpec::new(TenantId(1))
    };
    let flood = StreamSpec {
        clients: 3 * workers + 2, // far past the tenant quota
        jobs_per_client: 12,
        work: 10,
        work_spread: 2,
        priority: Priority::Normal,
        seed: seed ^ 0xF100D,
        ..StreamSpec::new(TenantId(2))
    };
    let offered: u64 =
        ((victim.clients + flood.clients) * victim.jobs_per_client) as u64;
    let report = run_traffic(&pool, &[victim.clone(), flood.clone()]);
    let ctx = format!("seed {seed:#x}, {workers}w");

    // Every attempt accounted, nothing stranded.
    assert_eq!(report.total_attempts(), offered, "{ctx}: attempts conserved");
    assert_eq!(pool.queued_jobs(), 0, "{ctx}: job stranded in the injector");
    let admission = pool.admission_report();
    assert_eq!(admission.queued, 0, "{ctx}: {admission:?}");
    for stream in &report.streams {
        let stats = *admission.tenant(stream.tenant).expect("tenant recorded");
        assert_eq!(stats.in_flight, 0, "{ctx}: quota slot leaked: {stats:?}");
        assert_eq!(stats.admitted, stream.admitted, "{ctx}: {stats:?}");
        assert_eq!(
            stats.admitted,
            stats.completed + stats.cancelled,
            "{ctx}: books must balance: {stats:?}"
        );
    }

    // The flood is over quota by construction: the excess surfaces as
    // typed rejections, and the queues never grow past their bound.
    let flooded = &report.streams[1];
    assert!(
        flooded.rejected > 0,
        "{ctx}: {} flooding clients against quota {quota} must see rejections",
        flood.clients,
    );
    let metrics = pool.metrics();
    assert_eq!(
        metrics.jobs_rejected,
        report.total_rejected() + report.streams.iter().map(|s| s.stalled).sum::<u64>(),
        "{ctx}: {metrics:?}"
    );
    assert!(
        metrics.injector_high_watermark <= shard_capacity,
        "{ctx}: queue depth {} escaped its bound {shard_capacity}",
        metrics.injector_high_watermark,
    );

    // Fair share under flood: the within-quota tenant keeps ≥ 90% of its
    // offered throughput (the ISSUE's 10% tolerance).
    let victim_report = &report.streams[0];
    let victim_offered = (victim.clients * victim.jobs_per_client) as u64;
    assert!(
        victim_report.admitted * 10 >= victim_offered * 9,
        "{ctx}: victim tenant got {}/{victim_offered} admitted — flood broke fair share",
        victim_report.admitted,
    );

    // Admitted work still meets the (generous) latency SLO under overload.
    let mut latencies: Vec<Duration> =
        report.streams.iter().flat_map(|s| s.latencies.iter().copied()).collect();
    latencies.sort_unstable();
    let p99 = percentile(&latencies, 99.0);
    assert!(
        p99 <= P99_SLO,
        "{ctx}: p99 {p99:?} blew the {P99_SLO:?} SLO (p50 {:?})",
        percentile(&latencies, 50.0),
    );
    drop(pool);
}

/// The pinned-seed slice CI runs by name (`ci.sh` step "overload soak"):
/// deterministic streams at 2/4/8 workers.
#[test]
fn overload_soak_pinned_seeds() {
    let _serial = serial();
    for seed in 0..2u64 {
        for workers in [2usize, 4, 8] {
            soak_cell(seed, workers);
        }
    }
}

/// The randomized slice: stream seeds derive from the workspace base seed
/// (deterministic under `CILK_TEST_SEED`) and are printed for replay.
#[test]
fn overload_soak_randomized() {
    let _serial = serial();
    let mut rng = cilk_testkit::rng_for("overload-soak.randomized");
    let seeds: Vec<u64> = (0..2).map(|_| rng.next_u64()).collect();
    println!(
        "overload soak randomized slice: CILK_TEST_SEED={:#x} -> stream seeds {:x?}",
        cilk_testkit::base_seed(),
        seeds
    );
    for &seed in &seeds {
        for workers in [2usize, 4, 8] {
            soak_cell(seed, workers);
        }
    }
}

/// A degraded pool — every worker dead, respawn budget exhausted — must
/// shed new submissions fast — a typed `Overloaded { Shed }`, never a
/// hang — while work it already admitted still completed.
#[test]
fn degraded_pool_sheds_instead_of_stalling() {
    let _serial = serial();
    let plan = FaultPlan::single(FaultSite::Spawn, 1, FaultAction::Die);
    let armed = plan.armed();
    let pool = ThreadPool::with_config(
        Config::new()
            .num_workers(1)
            .fault_handler(armed.as_handler())
            .supervision(cilk::runtime::SupervisionPolicy::new().max_respawns(0))
            .admission(AdmissionPolicy::new().shards(2).shard_capacity(8).fair_share(4)),
    )
    .expect("pool builds");
    let tenant = TenantId(3);

    // The admitted job completes even though it kills the only worker
    // (death is deferred to the worker's next top-of-loop).
    let v = pool
        .submit(tenant, || cilk_workloads::fib_cutoff(12, 6))
        .expect("admitted before the death");
    assert_eq!(v, cilk_workloads::fib_serial(12));
    assert!(armed.exhausted(), "the planted death fires");

    // Wait (bounded) for the doomed worker to actually retire.
    let deadline = Instant::now() + Duration::from_secs(5);
    while pool.live_workers() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(pool.live_workers(), 0, "the only worker retires");

    // New submissions shed, promptly and typed.
    let start = Instant::now();
    let outcome = pool.submit(tenant, || 1);
    let elapsed = start.elapsed();
    match outcome {
        Err(SubmitError::Overloaded(over)) => {
            assert_eq!(over.reason, RejectReason::Shed, "{over}");
            assert_eq!(over.tenant, tenant, "{over}");
        }
        other => panic!("a dead pool must shed, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(2),
        "shedding must be fast, took {elapsed:?}"
    );
    let stats = *pool.admission_report().tenant(tenant).expect("tenant recorded");
    assert_eq!(stats.admitted, 1, "{stats:?}");
    assert_eq!(stats.completed, 1, "{stats:?}");
    assert_eq!(stats.rejected, 1, "{stats:?}");
    assert_eq!(stats.in_flight, 0, "{stats:?}");
    drop(pool);
}
