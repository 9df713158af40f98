//! Models of the runtime's idle protocol (`cilk_runtime::idle`), generic
//! over the protocol implementation so the same threads, environment and
//! assertions drive both the shipping code (`models.rs`, under `--cfg
//! cilk_check`) and its mutable shadow (`mutation.rs`).
//!
//! **Two producers, two sleepers.** Each producer makes one job visible
//! (with release ordering, the weakest publication the runtime performs: a
//! deque's `bottom`) and notifies. Each sleeper is a worker whose
//! `find_work` just failed: searching, it parks — on the checker's
//! `thread::park`, which unlike the real one has no spurious wake-ups and
//! no timeout to paper over a lost one — and looks again whenever `park`
//! returns, until it claims a job; that job then keeps it busy for good.
//! The model ends quiescent, every live thread parked, and is judged there:
//!
//! * **W1, no lost wake-up** — work made visible before a worker commits
//!   to park is seen: at quiescence no job is queued while a worker is
//!   parked. With one job per worker that also demands the baton pass: a
//!   busy worker never leaves the second job to a sleeping one.
//! * **W5, a wake token is consumed exactly once** — a slot is handed a
//!   token only while it holds none, every return from `block` consumes
//!   one, and none is left over at quiescence.
//! * The state word agrees: nobody parked, nobody searching.
//!
//! **Terminate.** Two searching workers with nothing to find and a `main`
//! that sets the terminate flag and wakes everyone: both exit (one that
//! registers just after the drain must see the flag in its re-scan), no
//! token is left over, and the word returns to zero.

use std::sync::atomic::Ordering::Relaxed as Plain;
use std::sync::atomic::{AtomicBool as PlainBool, AtomicUsize as PlainUsize};
use std::sync::Arc;

use cilk_check::sync::atomic::{AtomicUsize, Ordering};
use cilk_check::thread;
use cilk_runtime::idle::IdleEnv;

const PRODUCERS: usize = 2;
const SLEEPERS: usize = 2;

/// The operations of `cilk_runtime::idle::Idle`, as the model calls them.
pub trait Protocol: Send + Sync + 'static {
    fn notify_work(&self, env: &Pool);
    fn start_search(&self);
    fn end_search(&self, env: &Pool);
    fn park(&self, slot: usize, env: &Pool);
    fn wake_all(&self, env: &Pool);
    fn counts(&self) -> (usize, usize);
}

/// Set in [`Pool::work`] once the pool is terminating.
const TERMINATE: usize = 1 << 8;

/// The model pool: what [`IdleEnv`] scans, blocks on and wakes.
pub struct Pool {
    /// Everything a scan reads, folded into one location (each real one —
    /// the injector's depth, a deque's `bottom`, the terminate flag — is
    /// published and scanned by the same pattern): the number of visible
    /// jobs, plus [`TERMINATE`].
    work: AtomicUsize,
    /// Jobs run so far (plain: bookkeeping, not part of the protocol).
    ran: PlainUsize,
    /// Virtual-thread id of each sleeper slot.
    tids: [PlainUsize; SLEEPERS],
    /// Whether each slot holds an unconsumed wake token.
    tokens: [PlainBool; SLEEPERS],
}

impl Pool {
    fn new() -> Pool {
        Pool {
            work: AtomicUsize::new(0),
            ran: PlainUsize::new(0),
            tids: std::array::from_fn(|_| PlainUsize::new(0)),
            tokens: std::array::from_fn(|_| PlainBool::new(false)),
        }
    }

    /// `find_work`, then the terminate check; `true` if the worker has
    /// something to stay awake for. A visible job is claimed the way a
    /// thief claims one (a CAS; losing the race is a failed steal) and run.
    fn look(&self) -> bool {
        let work = self.work.load(Ordering::Acquire);
        if work & (TERMINATE - 1) == 0 {
            return work != 0;
        }
        let claimed = self
            .work
            .compare_exchange(work, work - 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok();
        if claimed {
            self.ran.fetch_add(1, Plain);
        }
        claimed
    }
}

impl IdleEnv for Pool {
    fn work_visible(&self) -> bool {
        self.work.load(Ordering::Acquire) != 0
    }

    fn block(&self, slot: usize) {
        thread::park();
        assert!(self.tokens[slot].swap(false, Plain), "worker {slot} woke without a token");
    }

    fn unblock(&self, slot: usize) {
        assert!(!self.tokens[slot].swap(true, Plain), "worker {slot} was handed a second token");
        thread::unpark(self.tids[slot].load(Plain));
    }
}

/// `WorkerThread::idle` from the end of the search rounds (which only ever
/// let a worker see *more*): park, look again, until there is a job to run
/// or the pool terminates.
fn sleeper(proto: &impl Protocol, pool: &Pool, slot: usize) {
    loop {
        proto.park(slot, pool);
        if pool.look() {
            return proto.end_search(pool);
        }
    }
}

/// Starts `SLEEPERS` searching workers, recording their thread ids for
/// `unblock`.
fn spawn_sleepers<P: Protocol>(world: &Arc<(P, Pool)>) -> Vec<thread::JoinHandle<()>> {
    (0..SLEEPERS)
        .map(|slot| {
            world.0.start_search();
            let w = Arc::clone(world);
            let handle = thread::spawn(move || sleeper(&w.0, &w.1, slot));
            // Recorded before any thread that could wake this slot runs:
            // nothing is scheduled between `spawn` returning and this store.
            world.1.tids[slot].store(handle.tid(), Plain);
            handle
        })
        .collect()
}

fn assert_no_token_left(pool: &Pool) {
    for (slot, token) in pool.tokens.iter().enumerate() {
        assert!(!token.load(Plain), "worker {slot}'s wake token was never consumed");
    }
}

/// The two-producer / two-sleeper model for one protocol implementation.
pub fn two_producers_two_sleepers<P: Protocol>(make: impl Fn(usize) -> P) -> impl Fn() {
    move || {
        let world = Arc::new((make(SLEEPERS), Pool::new()));
        let _sleepers = spawn_sleepers(&world);
        for _ in 0..PRODUCERS {
            let w = Arc::clone(&world);
            thread::spawn(move || {
                w.1.work.fetch_add(1, Ordering::Release);
                w.0.notify_work(&w.1);
            });
        }
        let w = Arc::clone(&world);
        cilk_check::at_quiescence(move || {
            let (proto, pool) = &*w;
            assert_eq!(
                (pool.ran.load(Plain), pool.work.load(Ordering::Relaxed)),
                (PRODUCERS, 0),
                "(jobs run, jobs queued) with a worker parked: a lost wake-up"
            );
            assert_no_token_left(pool);
            assert_eq!(proto.counts(), (0, 0), "(parked, searching) at quiescence");
        });
        // The pool's owner, idle for good; the model ends once every other
        // thread is parked too, or done.
        thread::park();
    }
}

/// The terminate model for one protocol implementation.
pub fn terminate_wakes_everyone<P: Protocol>(make: impl Fn(usize) -> P) -> impl Fn() {
    move || {
        let world = Arc::new((make(SLEEPERS), Pool::new()));
        let sleepers = spawn_sleepers(&world);
        let (proto, pool) = &*world;
        pool.work.fetch_add(TERMINATE, Ordering::SeqCst);
        proto.wake_all(pool);
        for sleeper in sleepers {
            sleeper.join();
        }
        assert_no_token_left(pool);
        assert_eq!(proto.counts(), (0, 0), "(parked, searching) after termination");
    }
}
