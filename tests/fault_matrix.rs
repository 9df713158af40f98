//! The fault matrix: seed-driven fault injection swept over sites, worker
//! counts and real workloads.
//!
//! Every case builds a dedicated pool with an armed [`cilk_faults::FaultPlan`]
//! installed and runs a real workload (`fib`, `qsort`, `matmul`, the Fig. 7
//! reducer tree walk) under it. The invariants checked after each case are
//! the robustness contract of the runtime:
//!
//! * the run either completes with a **correct result** or unwinds with the
//!   **planted** [`InjectedFault`] payload — never a different panic, never
//!   a hang;
//! * **zero reducer views leak** ([`cilk::hyper::live_views`] returns to 0)
//!   no matter where the panic landed;
//! * the pool's metrics agree with the armed plan (every fired injection is
//!   accounted as `faults_injected`);
//! * with `stall_timeout` set, a pool whose only worker died reports
//!   [`cilk::runtime::RuntimeStalled`] instead of deadlocking;
//! * at one worker, structural sites (`spawn`/`sync`/`loop-chunk`) are
//!   fully deterministic: the same plan JSON replays to the identical
//!   outcome.
//!
//! Tests serialize on one lock: `live_views` is process-global, and pools
//! with stalls/death are timing-sensitive enough that running them
//! concurrently would only add noise.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use cilk::hyper::ReducerList;
use cilk::runtime::fault::{FaultAction, FaultSite, InjectedFault};
use cilk::runtime::{Grain, MetricsSnapshot, RuntimeStalled, SupervisionPolicy, ThreadPool};
use cilk::Config;
use cilk_faults::{ArmedPlan, FaultPlan, Injection, PlanShape};
use cilk_workloads::{build_tree, fib_cutoff, fib_serial, matmul, matmul_serial, qsort, Matrix};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn pool_with(workers: usize, armed: &std::sync::Arc<ArmedPlan>) -> ThreadPool {
    let config = Config::new().num_workers(workers).fault_handler(armed.as_handler());
    ThreadPool::with_config(config).expect("pool builds")
}

/// The outcome of one matrix case, normalized for comparison: either the
/// workload's digest or the site of the planted panic that surfaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Completed(u64),
    Planted(FaultSite),
}

/// Runs `work` on `pool`, requiring that any unwind carries the planted
/// [`InjectedFault`] payload (an unexpected panic fails the test).
fn run_case(pool: &ThreadPool, work: impl FnOnce() -> u64 + Send) -> Outcome {
    match catch_unwind(AssertUnwindSafe(|| pool.install(work))) {
        Ok(digest) => Outcome::Completed(digest),
        Err(payload) => match payload.downcast_ref::<InjectedFault>() {
            Some(fault) => Outcome::Planted(fault.site),
            None => panic!(
                "a non-planted panic escaped: {:?}",
                payload.downcast_ref::<&str>().copied().unwrap_or("<non-str payload>")
            ),
        },
    }
}

/// The named workloads of the matrix. Each returns a `u64` digest whose
/// expected value is computed serially, so a silently wrong result (e.g. a
/// subtree skipped without a surfaced panic) is caught.
#[derive(Debug, Clone, Copy)]
enum Workload {
    Fib,
    Qsort,
    Matmul,
    TreeReducer,
    /// A runtime map-reduce: one of the two workloads that reach the
    /// `loop-chunk` fault site.
    MapReduce,
    /// The facade's `cilk_for` adding into a `ReducerSum`: the other
    /// workload that reaches `loop-chunk`, with views on the loop's steals.
    ReducerLoop,
}

const WORKLOADS: [Workload; 4] =
    [Workload::Fib, Workload::Qsort, Workload::Matmul, Workload::TreeReducer];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Fib => "fib",
            Workload::Qsort => "qsort",
            Workload::Matmul => "matmul",
            Workload::TreeReducer => "tree-reducer",
            Workload::MapReduce => "map-reduce",
            Workload::ReducerLoop => "reducer-loop",
        }
    }

    fn expected(self) -> u64 {
        match self {
            Workload::Fib => fib_serial(16),
            Workload::Qsort => {
                let mut v = qsort_input();
                v.sort_unstable();
                digest_i64(&v)
            }
            Workload::Matmul => {
                let (a, b) = matmul_input();
                digest_f64(&matmul_serial(&a, &b))
            }
            Workload::TreeReducer => {
                let tree = build_tree(192, 0xDAC);
                let mut out = Vec::new();
                cilk_workloads::walk_serial(&tree, 3, 1, &mut out);
                digest_u64(&out)
            }
            Workload::MapReduce | Workload::ReducerLoop => (0..512u64).map(|i| i * i).sum(),
        }
    }

    fn run(self) -> u64 {
        match self {
            Workload::Fib => fib_cutoff(16, 8),
            Workload::Qsort => {
                let mut v = qsort_input();
                qsort(&mut v);
                digest_i64(&v)
            }
            Workload::Matmul => {
                let (a, b) = matmul_input();
                digest_f64(&matmul(&a, &b))
            }
            Workload::TreeReducer => {
                let tree = build_tree(192, 0xDAC);
                let out = ReducerList::<u64>::list();
                cilk_workloads::walk_reducer(&tree, 3, 1, &out);
                digest_u64(&out.into_value())
            }
            Workload::MapReduce => cilk::runtime::map_reduce_index(
                0..512,
                Grain::Explicit(16),
                || 0u64,
                |i| (i as u64) * (i as u64),
                |a, b| a + b,
            ),
            Workload::ReducerLoop => {
                let sum = cilk::hyper::ReducerSum::<u64>::sum();
                cilk::cilk_for(0..512, |i| sum.add((i as u64) * (i as u64)));
                sum.into_value()
            }
        }
    }
}

fn qsort_input() -> Vec<i64> {
    let mut rng = cilk_testkit::rng::Rng::seed_from_u64(0x9_5027);
    (0..1500).map(|_| rng.next_u64() as i64 % 1000).collect()
}

fn matmul_input() -> (Matrix, Matrix) {
    (Matrix::random(24, 7), Matrix::random(24, 8))
}

fn digest_i64(v: &[i64]) -> u64 {
    v.iter().fold(0u64, |acc, &x| {
        acc.wrapping_mul(0x100_0000_01B3).wrapping_add(x as u64)
    })
}

fn digest_u64(v: &[u64]) -> u64 {
    v.iter().fold(0u64, |acc, &x| acc.wrapping_mul(0x100_0000_01B3).wrapping_add(x))
}

fn digest_f64(m: &Matrix) -> u64 {
    let mut acc = 0u64;
    for i in 0..m.n() {
        for j in 0..m.n() {
            acc = acc.wrapping_mul(0x100_0000_01B3).wrapping_add(m.get(i, j).to_bits());
        }
    }
    acc
}

/// The pool's metrics and the plan's fired count, read once the two agree.
///
/// A worker counts a fault (a plain store to its own counter block) just
/// after the plan's handler has counted it, and an idle worker can fire a
/// steal-site fault at any moment — so a single read of each can catch one
/// fault between its two counts. Polling both until they match (bounded:
/// on a deadline the last, disagreeing pair is returned for the caller's
/// assertion to report) also gives the worker's store time to become
/// visible here.
fn settled_fault_counts(pool: &ThreadPool, armed: &ArmedPlan) -> (MetricsSnapshot, u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let fired = armed.fired_count() as u64;
        let metrics = pool.metrics();
        if metrics.faults_injected == fired || Instant::now() >= deadline {
            return (metrics, fired);
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// One seed × worker-count × workload sweep cell: a generated plan runs the
/// workload, then the robustness invariants are checked.
fn sweep_cell(seed: u64, workers: usize, workload: Workload) {
    let plan = FaultPlan::generate(seed, &FaultSite::ALL, PlanShape::default());
    let armed = plan.armed();
    // Pin the victim-selection PRNG to the cell's seed so a failing cell
    // replays with the same steal order, not whatever CILK_TEST_SEED the
    // environment happened to carry — and surface the effective seed in
    // every failure message for exactly that replay.
    let config = Config::new()
        .num_workers(workers)
        .fault_handler(armed.as_handler())
        .rng_seed(seed);
    let pool = ThreadPool::with_config(config).expect("pool builds");
    let victim_rng = pool.rng_seed();
    let outcome = run_case(&pool, || workload.run());
    if let Outcome::Completed(digest) = outcome {
        assert_eq!(
            digest,
            workload.expected(),
            "wrong result with no surfaced panic: seed {seed}, {workers}w, {} — \
             plan {plan}, victim rng {victim_rng:#x}",
            workload.name(),
        );
    }
    assert_eq!(
        cilk::hyper::live_views(),
        0,
        "leaked views: seed {seed}, {workers}w, {} — plan {plan}, \
         victim rng {victim_rng:#x}, outcome {outcome:?}",
        workload.name(),
    );
    let (metrics, fired) = settled_fault_counts(&pool, &armed);
    assert_eq!(
        metrics.faults_injected,
        fired,
        "metrics disagree with the armed plan: seed {seed}, {workers}w, {} — \
         plan {plan}, victim rng {victim_rng:#x}",
        workload.name(),
    );
    drop(pool); // must terminate cleanly even after injected faults
}

/// The pinned-seed slice that CI runs by name (`ci.sh` step "fault-matrix
/// slice"): deterministic plans, every workload, 1/2/4 workers.
#[test]
fn pinned_seed_slice() {
    let _serial = serial();
    for seed in 0..4u64 {
        for workers in [1usize, 2, 4] {
            for workload in WORKLOADS {
                sweep_cell(seed, workers, workload);
            }
        }
    }
}

/// The randomized slice: seeds derived from the workspace base seed, so
/// `CILK_TEST_SEED=<n> cargo test --test fault_matrix randomized` explores
/// (and replays) fresh plans. The effective seeds are printed for replay.
#[test]
fn randomized_seed_slice() {
    let _serial = serial();
    let mut rng = cilk_testkit::rng_for("fault-matrix.randomized");
    let seeds: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
    println!(
        "fault-matrix randomized slice: CILK_TEST_SEED={:#x} -> plan seeds {:x?}",
        cilk_testkit::base_seed(),
        seeds
    );
    for &seed in &seeds {
        for workers in [1usize, 2, 4] {
            for workload in WORKLOADS {
                sweep_cell(seed, workers, workload);
            }
        }
    }
}

/// A planted panic in a spawned child must surface at the logical parent
/// (the install caller), at every worker count, and be counted as a
/// captured panic.
#[test]
fn planted_child_panic_propagates_to_parent() {
    let _serial = serial();
    for workers in [1usize, 2, 4] {
        let plan = FaultPlan::single(FaultSite::Spawn, 1, FaultAction::Panic);
        let armed = plan.armed();
        let pool = pool_with(workers, &armed);
        let outcome = run_case(&pool, || fib_cutoff(14, 6));
        assert_eq!(outcome, Outcome::Planted(FaultSite::Spawn), "{workers} workers");
        assert!(armed.exhausted());
        let metrics = pool.metrics();
        assert!(metrics.panics_captured >= 1, "{workers} workers: {metrics:?}");
        assert_eq!(metrics.faults_injected, 1);
    }
}

/// Panics injected mid view-merge leak no views: each view is merged or
/// dropped exactly once, so the process-wide live-view count returns to
/// zero whether or not the fault fired.
#[test]
fn view_merge_panic_leaks_no_views() {
    let _serial = serial();
    for workers in [1usize, 2, 4] {
        for nth in [1u64, 2, 5] {
            let plan = FaultPlan::single(FaultSite::ViewMerge, nth, FaultAction::Panic);
            let armed = plan.armed();
            let pool = pool_with(workers, &armed);
            let outcome = run_case(&pool, || Workload::TreeReducer.run());
            if let Outcome::Completed(digest) = outcome {
                assert_eq!(digest, Workload::TreeReducer.expected(), "{workers}w nth {nth}");
            }
            assert_eq!(cilk::hyper::live_views(), 0, "{workers}w nth {nth}: {outcome:?}");
            // At one worker nothing is ever stolen, so no merge can fire;
            // at several workers both outcomes are legal schedules.
            if workers == 1 {
                assert_eq!(outcome, Outcome::Completed(Workload::TreeReducer.expected()));
                assert!(!armed.exhausted(), "no merges happen on one worker");
            }
        }
    }
}

/// Injected stalls perturb the schedule but never the results.
#[test]
fn stalls_preserve_results() {
    let _serial = serial();
    let plan = FaultPlan::with_injections(vec![
        Injection {
            site: FaultSite::Steal,
            nth: 1,
            action: FaultAction::Stall(Duration::from_micros(300)),
        },
        Injection {
            site: FaultSite::Spawn,
            nth: 2,
            action: FaultAction::Stall(Duration::from_micros(200)),
        },
        Injection {
            site: FaultSite::Sync,
            nth: 3,
            action: FaultAction::Stall(Duration::from_micros(100)),
        },
    ]);
    for workers in [2usize, 4] {
        let armed = plan.armed();
        let pool = pool_with(workers, &armed);
        for workload in WORKLOADS {
            let outcome = run_case(&pool, || workload.run());
            assert_eq!(
                outcome,
                Outcome::Completed(workload.expected()),
                "{workers}w {}",
                workload.name()
            );
        }
        let (metrics, fired) = settled_fault_counts(&pool, &armed);
        assert_eq!(metrics.faults_injected, fired);
        assert_eq!(metrics.stalls_injected, fired);
    }
}

/// At one worker the structural sites are deterministic: replaying the
/// same plan (round-tripped through its JSON) yields the identical
/// outcome, occurrence counts included.
#[test]
fn structural_sites_replay_identically_from_json() {
    let _serial = serial();
    let structural = [FaultSite::Spawn, FaultSite::Sync, FaultSite::LoopChunk];
    for site in structural {
        for nth in [1u64, 2, 4] {
            let plan = FaultPlan::single(site, nth, FaultAction::Panic);
            let replayed = FaultPlan::from_json(&plan.to_json()).expect("round trip");
            let run_once = |p: &FaultPlan| {
                let armed = p.armed();
                let pool = pool_with(1, &armed);
                let outcome = run_case(&pool, || {
                    if site == FaultSite::LoopChunk {
                        let mut acc = 0u64;
                        let total = cilk::runtime::map_reduce_index(
                            0..256,
                            Grain::Explicit(16),
                            || 0u64,
                            |i| i as u64,
                            |a, b| a + b,
                        );
                        acc = acc.wrapping_add(total);
                        acc
                    } else {
                        fib_cutoff(12, 6)
                    }
                });
                (outcome, armed.occurrences(site), armed.fired_count())
            };
            let first = run_once(&plan);
            let second = run_once(&replayed);
            assert_eq!(first, second, "site {site}, nth {nth}");
            assert_eq!(cilk::hyper::live_views(), 0);
        }
    }
}

/// A worker that "dies" parks gracefully: the in-flight computation still
/// completes correctly, and — with `stall_timeout` set — the next install
/// on the now-empty pool reports [`RuntimeStalled`] instead of hanging.
#[test]
fn dead_worker_turns_next_install_into_runtime_stalled() {
    let _serial = serial();
    let plan = FaultPlan::single(FaultSite::Spawn, 1, FaultAction::Die);
    let armed = plan.armed();
    let config = Config::new()
        .num_workers(1)
        .fault_handler(armed.as_handler())
        .stall_timeout(Duration::from_millis(40));
    let pool = ThreadPool::with_config(config).expect("pool builds");

    // The computation in flight when the fault fires must finish — death
    // is deferred to the top of the scheduling loop.
    let result = pool.install(|| fib_cutoff(12, 6));
    assert_eq!(result, fib_serial(12));
    assert!(armed.exhausted());

    let stalled: Result<u64, RuntimeStalled> = pool.try_install(|| 7);
    let err = stalled.expect_err("the only worker is dead; nothing can run the job");
    assert_eq!(err.workers, 1);
    assert_eq!(err.workers_died, 1);
    assert!(err.waited >= Duration::from_millis(40));
    let msg = err.to_string();
    assert!(msg.contains("stalled"), "{msg}");

    let metrics = pool.metrics();
    assert_eq!(metrics.workers_died, 1);
    drop(pool); // a dead worker must not block pool teardown
}

fn supervised_pool(workers: usize, budget: u32, armed: &std::sync::Arc<ArmedPlan>) -> ThreadPool {
    let config = Config::new()
        .num_workers(workers)
        .fault_handler(armed.as_handler())
        .supervision(SupervisionPolicy::new().max_respawns(budget).seed(0xDAC));
    ThreadPool::with_config(config).expect("pool builds")
}

/// Waits (bounded) until a supervised pool's recovery has settled:
/// `deaths` workers have retired, each death within the budget has been
/// answered by a respawn, and no reclaimed job lingers in the injector.
fn quiesce_supervised(pool: &ThreadPool, deaths: u64, budget: u32, ctx: &str) {
    let settled = |m: &cilk::runtime::MetricsSnapshot| {
        m.workers_died == deaths
            && m.workers_respawned == deaths.min(budget as u64)
            && pool.queued_jobs() == 0
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !settled(&pool.metrics()) && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let m = pool.metrics();
    assert!(
        settled(&m),
        "{ctx}: recovery never settled (want {deaths} deaths, \
         {} respawns, empty queue): {m:?}, report {:?}",
        deaths.min(budget as u64),
        pool.supervisor_report(),
    );
}

/// Checks the supervision counter contract after a settled run: respawns
/// never exceed the budget or the death count, and every death is either
/// answered by a respawn or visible as a permanently lost slot.
fn check_supervision_counters(pool: &ThreadPool, workers: usize, budget: u32, ctx: &str) {
    let m = pool.metrics();
    let report = pool.supervisor_report().expect("supervised pool");
    assert!(m.workers_respawned <= budget as u64, "{ctx}: {m:?}");
    assert!(m.workers_respawned <= m.workers_died, "{ctx}: {m:?}");
    if budget == 0 {
        assert_eq!(m.workers_respawned, 0, "{ctx}: {m:?}");
    }
    assert_eq!(
        m.workers_died - m.workers_respawned,
        (workers - report.live_workers) as u64,
        "{ctx}: every death is respawned or a lost slot: {m:?}, {report:?}"
    );
    assert_eq!(pool.queued_jobs(), 0, "{ctx}: reclaimed job stranded");
}

/// One cell of the recovery matrix: `Die` planted at `site`, a supervised
/// pool, two installs of `workload`. Both installs must complete with the
/// correct digest — on replacements when the budget allows, on survivors
/// (or serially, at zero workers) when it does not.
fn recovery_cell(site: FaultSite, workload: Workload, budget: u32, workers: usize) {
    let plan = FaultPlan::single(site, 1, FaultAction::Die);
    let armed = plan.armed();
    let pool = supervised_pool(workers, budget, &armed);
    let ctx = format!(
        "site {site}, {}, budget {budget}, {workers}w",
        workload.name()
    );
    for round in 0..2 {
        let outcome = run_case(&pool, || workload.run());
        assert_eq!(
            outcome,
            Outcome::Completed(workload.expected()),
            "{ctx}, round {round}"
        );
    }
    assert_eq!(cilk::hyper::live_views(), 0, "{ctx}");
    // Only `steal` may legitimately never fire: a one-worker pool has no
    // victims to steal from. Every other site is on the workload's path.
    if site != FaultSite::Steal {
        assert!(armed.occurrences(site) > 0, "{ctx}: the site was never reached");
    }
    // Death is deferred to the doomed worker's next top-of-loop, so it can
    // land after the install returns; wait for recovery to settle before
    // judging the counters.
    let deaths = armed.fired_count() as u64;
    quiesce_supervised(&pool, deaths, budget, &ctx);
    check_supervision_counters(&pool, workers, budget, &ctx);
    drop(pool);
}

/// The recovery matrix: `Die` at every fault-site class × respawn budget
/// {on, zero} × 1/2/4 workers × real workloads. The `loop-chunk` site only
/// fires inside a loop, so it is paired with the runtime's map-reduce and
/// with the facade's `cilk_for` into a reducer.
#[test]
fn supervised_recovery_matrix() {
    let _serial = serial();
    let cells: &[(FaultSite, Workload)] = &[
        (FaultSite::Steal, Workload::Fib),
        (FaultSite::Spawn, Workload::Fib),
        (FaultSite::Steal, Workload::Qsort),
        (FaultSite::Spawn, Workload::Qsort),
        (FaultSite::Steal, Workload::TreeReducer),
        (FaultSite::Spawn, Workload::TreeReducer),
        (FaultSite::LoopChunk, Workload::MapReduce),
        (FaultSite::LoopChunk, Workload::ReducerLoop),
    ];
    for &(site, workload) in cells {
        for budget in [4u32, 0] {
            for workers in [1usize, 2, 4] {
                recovery_cell(site, workload, budget, workers);
            }
        }
    }
}

/// Supervised runs replay deterministically: at one worker the structural
/// sites fire at fixed occurrences, so the same plan JSON yields the
/// identical outcomes *and* identical recovery counters.
#[test]
fn supervised_structural_replay_is_deterministic() {
    let _serial = serial();
    for site in [FaultSite::Spawn, FaultSite::Sync, FaultSite::LoopChunk] {
        for nth in [1u64, 3] {
            let plan = FaultPlan::single(site, nth, FaultAction::Die);
            let replayed = FaultPlan::from_json(&plan.to_json()).expect("round trip");
            let workload = if site == FaultSite::LoopChunk {
                Workload::MapReduce
            } else {
                Workload::Fib
            };
            let run_once = |p: &FaultPlan| {
                let armed = p.armed();
                let pool = supervised_pool(1, 4, &armed);
                let outcomes: Vec<Outcome> =
                    (0..2).map(|_| run_case(&pool, || workload.run())).collect();
                let deaths = armed.fired_count() as u64;
                quiesce_supervised(&pool, deaths, 4, &format!("replay {site} nth {nth}"));
                let m = pool.metrics();
                (
                    outcomes,
                    armed.occurrences(site),
                    armed.fired_count(),
                    m.workers_died,
                    m.workers_respawned,
                )
            };
            assert_eq!(run_once(&plan), run_once(&replayed), "site {site}, nth {nth}");
            assert_eq!(cilk::hyper::live_views(), 0);
        }
    }
}

/// One chaos-soak case: a death-heavy generated plan against a supervised
/// 4-worker pool running every workload. Whatever the plan provoked, the
/// contract holds: correct results (or the planted panic), zero leaked
/// views, zero stranded jobs, and self-consistent recovery counters.
fn chaos_case(seed: u64) {
    const WORKERS: usize = 4;
    const BUDGET: u32 = 8;
    let plan = FaultPlan::generate_chaos(seed, &FaultSite::ALL);
    let armed = plan.armed();
    let pool = supervised_pool(WORKERS, BUDGET, &armed);
    let ctx = format!("chaos seed {seed}, plan {plan}");
    for workload in WORKLOADS {
        let outcome = run_case(&pool, || workload.run());
        if let Outcome::Completed(digest) = outcome {
            assert_eq!(
                digest,
                workload.expected(),
                "{ctx}, {}",
                workload.name()
            );
        }
    }
    assert_eq!(cilk::hyper::live_views(), 0, "{ctx}");
    // The number of deaths is plan-dependent (a worker hit by two `Die`
    // injections dies once), so wait for stability instead of an exact
    // count: the queue drained and two consecutive samples agree.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let sample = |pool: &ThreadPool| {
        let m = pool.metrics();
        (m.workers_died, m.workers_respawned, pool.live_workers(), pool.queued_jobs())
    };
    let mut prev = sample(&pool);
    loop {
        std::thread::sleep(Duration::from_millis(25));
        let cur = sample(&pool);
        let (died, respawned, live, queued) = cur;
        if queued == 0
            && cur == prev
            && died - respawned == (WORKERS - live) as u64
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "{ctx}: never quiesced: {cur:?}"
        );
        prev = cur;
    }
    check_supervision_counters(&pool, WORKERS, BUDGET, &ctx);
    drop(pool);
}

/// The pinned chaos-soak slice CI runs by name (`ci.sh` step
/// "chaos-soak slice"): deterministic death-heavy plans.
#[test]
fn chaos_soak_pinned_seeds() {
    let _serial = serial();
    for seed in 0..6u64 {
        chaos_case(seed);
    }
}

/// The randomized chaos-soak slice: seeds derive from the workspace base
/// seed and are printed for replay, like `randomized_seed_slice`.
#[test]
fn chaos_soak_randomized() {
    let _serial = serial();
    let mut rng = cilk_testkit::rng_for("fault-matrix.chaos");
    let seeds: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
    println!(
        "chaos soak randomized slice: CILK_TEST_SEED={:#x} -> plan seeds {:x?}",
        cilk_testkit::base_seed(),
        seeds
    );
    for &seed in &seeds {
        chaos_case(seed);
    }
}

/// The satellite bugfix regression: jobs sitting on a doomed worker's
/// deque when it dies must be reclaimed and executed, not silently
/// stranded. A one-worker supervised pool plants a scope full of tasks and
/// kills the worker at its first spawn; every planted task must still run.
#[test]
fn dying_worker_strands_no_planted_jobs() {
    let _serial = serial();
    use std::sync::atomic::{AtomicUsize, Ordering};
    const TASKS: usize = 64;
    let plan = FaultPlan::single(FaultSite::Spawn, 1, FaultAction::Die);
    let armed = plan.armed();
    let pool = supervised_pool(1, 2, &armed);
    let ran = AtomicUsize::new(0);
    pool.install(|| {
        cilk::runtime::scope(|s| {
            for _ in 0..TASKS {
                s.spawn(|_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
    });
    assert_eq!(ran.load(Ordering::SeqCst), TASKS, "planted jobs lost");
    let deaths = armed.fired_count() as u64;
    quiesce_supervised(&pool, deaths, 2, "stranded-jobs regression");
    let m = pool.metrics();
    assert_eq!(m.workers_died, 1, "the planted death fires: {m:?}");
    check_supervision_counters(&pool, 1, 2, "stranded-jobs regression");
    drop(pool);
}

/// A fully degraded supervised pool (zero live workers, exhausted respawn
/// budget) falls back to serial in-place installs, and that fallback must
/// run in **serial-elision order**: on the emergency worker nothing is
/// ever stolen, so every `join` runs its child, then its continuation.
#[test]
fn degraded_pool_keeps_serial_elision_order() {
    let _serial = serial();
    let plan = FaultPlan::single(FaultSite::Spawn, 1, FaultAction::Die);
    let armed = plan.armed();
    let config = Config::new()
        .num_workers(1)
        .fault_handler(armed.as_handler())
        .supervision(SupervisionPolicy::new().max_respawns(0).seed(0xDAC));
    let pool = ThreadPool::with_config(config).expect("pool builds");

    // Round 1 plants the death; the in-flight work still completes.
    let v = pool.install(|| fib_cutoff(12, 6));
    assert_eq!(v, fib_serial(12));
    assert!(armed.exhausted(), "the planted death fires");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while pool.live_workers() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(pool.live_workers(), 0, "the worker never retired");

    // Round 2 degrades to the emergency serial worker. Nested joins
    // record the order their effects land; it must be the serial
    // elision (left branch fully before right).
    let order = std::sync::Mutex::new(Vec::new());
    let note = |tag: u32| order.lock().unwrap().push(tag);
    let v = pool.install(|| {
        cilk::runtime::join(
            || {
                note(1);
                let (x, y) = cilk::runtime::join(|| { note(2); 2u64 }, || { note(3); 3u64 });
                note(4);
                x + y
            },
            || {
                note(5);
                5u64
            },
        )
    });
    assert_eq!(v, (5, 5));
    assert_eq!(
        *order.lock().unwrap(),
        vec![1, 2, 3, 4, 5],
        "a degraded install must keep serial-elision order"
    );
    let m = pool.metrics();
    assert!(m.pool_degraded >= 1, "{m:?}");
    assert_eq!(cilk::hyper::live_views(), 0);
    drop(pool);
}

/// A way into admission; all of them pass the same `admit` step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    /// `submit` from outside the pool: admitted into the queue, waited on.
    Submit,
    /// `submit_async(..)` then `wait()` on the handle.
    AsyncWait,
    /// `submit` inside `install`: admitted inline on a worker.
    Nested,
}

/// The `inject` fault-site sweep: every fault action planted on the
/// submission path of a scheduler-service pool, through every entry point,
/// at 1/2/4 workers and two occurrence counts. The admission robustness
/// contract, the same for every entry point:
///
/// * `Panic` surfaces as the planted payload on the submitting thread with
///   the quota reservation already released;
/// * `Stall` only delays admission — the job still completes correctly;
/// * `Die` sheds the submission as a typed `Overloaded { Shed }` rejection
///   (there is no worker to kill on the submit path);
/// * in every case every tenant's books balance afterwards (admitted =
///   completed + cancelled, zero in flight, rejections counted), nothing
///   is stranded in the injector, and the pool stays usable.
#[test]
fn inject_site_sweep_leaks_no_quota_and_strands_no_jobs() {
    let _serial = serial();
    use cilk::runtime::{AdmissionPolicy, RejectReason, SubmitError, TenantId};

    let service_pool = |workers: usize, armed: &std::sync::Arc<ArmedPlan>| {
        let config = Config::new()
            .num_workers(workers)
            .fault_handler(armed.as_handler())
            .admission(
                AdmissionPolicy::new().shards(2).shard_capacity(64).fair_share(8).burst(0),
            );
        ThreadPool::with_config(config).expect("pool builds")
    };
    let tenant = TenantId(11);
    const JOBS: u64 = 6;

    for entry in [Entry::Submit, Entry::AsyncWait, Entry::Nested] {
        for workers in [1usize, 2, 4] {
            for nth in [1u64, 3] {
                for action in [
                    FaultAction::Panic,
                    FaultAction::Stall(Duration::from_micros(200)),
                    FaultAction::Die,
                ] {
                    let plan = FaultPlan::single(FaultSite::Inject, nth, action);
                    let armed = plan.armed();
                    let pool = service_pool(workers, &armed);
                    let ctx = format!("{entry:?}, {workers}w, nth {nth}, {action:?}");
                    let (mut ok, mut shed, mut planted) = (0u64, 0u64, 0u64);
                    for i in 0..JOBS {
                        let n = 10 + (i % 2);
                        let job = move || fib_cutoff(n, 6);
                        let submitted = catch_unwind(AssertUnwindSafe(|| match entry {
                            Entry::Submit => pool.submit(tenant, job),
                            Entry::AsyncWait => pool
                                .submit_async(tenant, job)
                                .map(|handle| handle.wait().expect("never cancelled")),
                            Entry::Nested => pool.install(|| pool.submit(tenant, job)),
                        }));
                        match submitted {
                            Ok(Ok(v)) => {
                                assert_eq!(v, fib_serial(n), "{ctx}, job {i}");
                                ok += 1;
                            }
                            Ok(Err(SubmitError::Overloaded(over))) => {
                                let at = format!("{ctx}, job {i}: {over}");
                                assert_eq!(over.reason, RejectReason::Shed, "{at}");
                                assert_eq!(over.tenant, tenant, "{at}");
                                shed += 1;
                            }
                            Ok(Err(other)) => panic!("{ctx}, job {i}: unexpected error {other}"),
                            Err(payload) => {
                                let fault = payload.downcast_ref::<InjectedFault>().unwrap_or_else(
                                    || panic!("{ctx}, job {i}: a non-planted panic escaped"),
                                );
                                assert_eq!(fault.site, FaultSite::Inject, "{ctx}, job {i}");
                                planted += 1;
                            }
                        }
                    }
                    // The single planted injection fires exactly once, at its
                    // nth submission, and the outcome matches the action.
                    assert!(armed.exhausted(), "{ctx}: the inject fault fires");
                    match action {
                        FaultAction::Panic => {
                            assert_eq!((planted, shed, ok), (1, 0, JOBS - 1), "{ctx}")
                        }
                        FaultAction::Die => {
                            assert_eq!((planted, shed, ok), (0, 1, JOBS - 1), "{ctx}")
                        }
                        _ => assert_eq!((planted, shed, ok), (0, 0, JOBS), "{ctx}"),
                    }
                    let m = pool.metrics();
                    assert_eq!(m.faults_injected, armed.fired_count() as u64, "{ctx}: {m:?}");
                    if matches!(action, FaultAction::Stall(_)) {
                        assert_eq!(m.stalls_injected, 1, "{ctx}: {m:?}");
                    }
                    // Each `install` around a nested submit is billed to the
                    // default tenant, admitted whatever its submit's outcome.
                    let installs = if entry == Entry::Nested { JOBS } else { 0 };
                    assert_eq!(m.jobs_admitted, ok + installs, "{ctx}: {m:?}");
                    assert_eq!(m.jobs_rejected, shed, "{ctx}: {m:?}");
                    let report = pool.admission_report();
                    let stats = *report.tenant(tenant).expect("tenant recorded");
                    assert_eq!(stats.admitted, ok, "{ctx}: {stats:?}");
                    assert_eq!(stats.rejected, shed, "{ctx}: {stats:?}");
                    for (id, stats) in &report.tenants {
                        let at = format!("{ctx}: {id}: {stats:?}");
                        assert_eq!(stats.in_flight, 0, "{at}: a reservation leaked");
                        let closed = stats.completed + stats.cancelled;
                        assert_eq!(stats.admitted, closed, "{at}: books must balance");
                    }
                    assert_eq!(pool.queued_jobs(), 0, "{ctx}: stranded job");
                    drop(pool); // must tear down cleanly whatever the fault did
                }
            }
        }
    }
}

/// Worker death at 4 workers degrades capacity but not correctness, and
/// the pool still terminates.
#[test]
fn worker_death_degrades_gracefully_at_four_workers() {
    let _serial = serial();
    let plan = FaultPlan::with_injections(vec![
        Injection { site: FaultSite::Steal, nth: 2, action: FaultAction::Die },
        Injection { site: FaultSite::Spawn, nth: 5, action: FaultAction::Die },
    ]);
    let armed = plan.armed();
    let pool = pool_with(4, &armed);
    for workload in WORKLOADS {
        let outcome = run_case(&pool, || workload.run());
        assert_eq!(outcome, Outcome::Completed(workload.expected()), "{}", workload.name());
    }
    // Both injections fired, but they may have picked the same worker
    // (which can only die once), and a doomed worker parks at its next
    // top-of-loop, not instantly — so wait for at least one death and
    // bound by the number of fired injections.
    let fired = armed.fired_count() as u64;
    assert!(fired >= 1, "the workloads reach steal #2 and spawn #5 at 4 workers");
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while pool.metrics().workers_died == 0 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    let died = pool.metrics().workers_died;
    assert!(
        (1..=fired).contains(&died),
        "expected 1..={fired} dead workers, saw {died}"
    );
    drop(pool);
}
