//! The idle path's contract (docs/scheduler.md, "Idle protocol"), against
//! real pools: a quiescent pool does nothing at all, a wake-up is never
//! lost although no worker has a timeout to fall back on, and a push that
//! publishes nothing wakes nobody. A regression here hangs rather than
//! flakes, so every wait is bounded by a watchdog that reports the pool's
//! counters instead.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use cilk::runtime::{MetricsSnapshot, TenantId, ThreadPool};
use cilk::Config;

fn pool(workers: usize) -> ThreadPool {
    ThreadPool::with_config(Config::new().num_workers(workers)).expect("pool builds")
}

/// Workers blocked on their parkers right now: every `park` is answered by
/// exactly one `unpark` (which a waker may count a moment before its
/// target counts the park, hence saturating).
fn parked(m: &MetricsSnapshot) -> u64 {
    m.parks.saturating_sub(m.unparks)
}

/// Waits until `n` workers are parked; panics with the counters if the
/// pool does not get there.
fn await_parked(pool: &ThreadPool, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while parked(&pool.metrics()) != n {
        assert!(Instant::now() < deadline, "never saw {n} parked workers: {:?}", pool.metrics());
        std::thread::yield_now();
    }
}

fn tree(depth: u32) {
    if depth > 0 {
        cilk::join(|| tree(depth - 1), || tree(depth - 1));
    }
}

#[test]
fn idle_pool_is_silent() {
    let pool = pool(4);
    pool.install(|| tree(12));
    await_parked(&pool, 4);
    let (before, before_each) = (pool.metrics(), pool.metrics_per_worker());
    std::thread::sleep(Duration::from_millis(50));
    // Not one counter moved on any worker: no park, no unpark, no search,
    // no steal attempt (before this protocol each worker woke up a thousand
    // times a second to fail two steals).
    assert_eq!(pool.metrics_per_worker(), before_each);
    assert_eq!(pool.metrics(), before);
    assert!(before.parks >= 4 && before.searches >= 4, "{before:?}");
    // And it still wakes up.
    assert_eq!(pool.install(|| 6 * 7), 42);
}

/// Runs `client` on `clients` threads against `pool`; a client still
/// blocked after two minutes is a lost wake-up, reported with the pool's
/// counters.
fn run_clients(pool: &ThreadPool, clients: usize, client: impl Fn() + Sync) {
    let (done, finished) = mpsc::channel();
    std::thread::scope(|s| {
        for _ in 0..clients {
            let (client, done) = (&client, done.clone());
            s.spawn(move || {
                client();
                done.send(()).expect("the watchdog outlives the clients");
            });
        }
        for stuck in 0..clients {
            if finished.recv_timeout(Duration::from_secs(120)).is_err() {
                // Exiting is the only way out: the scope would wait for
                // the stuck clients.
                eprintln!(
                    "{} workers: client {stuck} of {clients} is stuck, {} jobs queued: {:?}",
                    pool.num_workers(),
                    pool.queued_jobs(),
                    pool.metrics()
                );
                std::process::exit(1);
            }
        }
    });
}

#[test]
fn no_lost_wakeup_without_a_timeout() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 20_000;
    for workers in [1, 2, 4] {
        // No stall timeout, no supervision: a lost wake-up blocks a client
        // forever, and only the watchdog below gets the test out.
        let pool = pool(workers);
        let (done, finished) = mpsc::channel();
        std::thread::scope(|s| {
            for _ in 0..CLIENTS {
                let (pool, done) = (&pool, done.clone());
                s.spawn(move || {
                    for _ in 0..ROUNDS {
                        pool.install(|| ());
                    }
                    for round in 0..ROUNDS {
                        let handle =
                            pool.submit_async(TenantId(1), move || round).expect("no policy, no refusal");
                        assert_eq!(handle.wait(), Some(round));
                    }
                    done.send(()).expect("the watchdog outlives the clients");
                });
            }
            for client in 0..CLIENTS {
                if finished.recv_timeout(Duration::from_secs(120)).is_err() {
                    // Exiting is the only way out: the scope would wait for
                    // the stuck clients.
                    eprintln!(
                        "{workers} workers: client {client} of {CLIENTS} is stuck, {} jobs queued: {:?}",
                        pool.queued_jobs(),
                        pool.metrics()
                    );
                    std::process::exit(1);
                }
            }
        });
        let m = pool.metrics();
        assert_eq!(m.injections, (2 * CLIENTS * ROUNDS) as u64, "{m:?}");
        assert_eq!(pool.queued_jobs(), 0);
    }
}

/// An `install` waits on a latch in its own stack frame, and the next
/// `install` builds its latch in the same place the moment `wait` returns:
/// a worker that touched the latch after setting it would corrupt the
/// next round trip's (the moved-frame bug class).
#[test]
fn install_frames_are_reused_at_once() {
    const CLIENTS: u64 = 4;
    const ROUNDS: u64 = 25_000;
    for workers in [1, 2] {
        let pool = pool(workers);
        run_clients(&pool, CLIENTS as usize, || {
            for round in 0..ROUNDS {
                assert_eq!(pool.install(move || round ^ 0x5A5A), round ^ 0x5A5A);
            }
        });
        assert_eq!(pool.metrics().injections, CLIENTS * ROUNDS);
    }
}

#[test]
fn private_pushes_notify_nobody() {
    let pool = pool(2);
    await_parked(&pool, 2);
    let (shallow, deep, deep_pushes) = pool.install(|| {
        // The job woke one worker; the other stays parked (or parks again)
        // as long as nothing is published.
        await_parked(&pool, 1);
        let start = pool.metrics();
        // Four joins deep, the deque never holds more than the four
        // elements its owner retains: nothing is published, nobody is
        // notified, the sleeper sleeps on.
        tree(4);
        let shallow = pool.metrics();
        assert_eq!(parked(&shallow), 1, "{shallow:?}");
        // Eight deep it publishes, and the first publication finds a
        // parked worker and nobody searching.
        tree(8);
        let deep = pool.metrics();
        (shallow.unparks - start.unparks, deep.unparks - shallow.unparks, deep.spawns - shallow.spawns)
    });
    assert_eq!(shallow, 0, "a push inside the private window woke a worker");
    assert_eq!(deep_pushes, 255);
    // At most one wake-up per publication, and not every push publishes.
    assert!((1..deep_pushes).contains(&deep), "{deep} wake-ups for {deep_pushes} pushes");
}
