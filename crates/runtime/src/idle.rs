//! The idle protocol: who sleeps, who searches, and who wakes whom.
//!
//! The paper's scheduler pays for communication "only when a worker runs
//! out of work" (§3.2), so a spawn that nobody can steal must wake nobody.
//! A worker with nothing to do *searches* for a few microseconds, then
//! *parks* on its slot's parker with no timeout; a producer notifies only when
//! work became visible (an injector enqueue or a deque publication) and
//! wakes at most one parked worker, and only if nobody is searching — the
//! woken worker counts as searching on the waker's behalf, and the last
//! searcher to find work wakes the next if more is visible.
//!
//! The invariant: *work made visible before a worker commits to park is
//! seen.* Both sides run "write mine, `SeqCst` fence, read theirs" — the
//! producer publishes, fences, loads the state word; the sleeper registers
//! in the word, fences, re-scans — so whichever fence comes second sees the
//! other side's write. `docs/scheduler.md` ("Idle protocol") has the
//! sequences side by side. Like [`crate::lifecycle`], the handshake is a
//! pure state machine over an environment trait: `cilk-check` explores
//! this very code (`crates/check/tests/models.rs`), and the registry
//! implements [`IdleEnv`] over real deques and one parker per slot. The
//! parker is the runtime's one way to sleep (`crate::latch`): a state word
//! and a latch in the sleeper's frame, no lock and no condition variable,
//! and model-checked on its own (`parker_model`).

// The model-checker seam (see `cilk-deque`): under `--cfg cilk_check` the
// state word, the fences and the lock are cilk-check's recorded ones.
#[cfg(cilk_check)]
use cilk_check::sync::{
    atomic::{fence, AtomicUsize, Ordering},
    Mutex,
};
#[cfg(not(cilk_check))]
use std::sync::{
    atomic::{fence, AtomicUsize, Ordering},
    Mutex,
};

use crate::poison;

/// One searching worker in the state word: `searching << 16 | parked`.
const SEARCHING: usize = 1 << 16;
/// One parked worker in the state word.
const PARKED: usize = 1;
/// The word's change when a searcher parks; its negation when one is woken.
const SEARCHER_PARKS: usize = PARKED.wrapping_sub(SEARCHING);

/// What the idle protocol needs from the pool around it.
pub trait IdleEnv {
    /// Whether a scan finds anything a worker should be awake for: a queued
    /// injected job, a non-empty published deque, or termination.
    fn work_visible(&self) -> bool;
    /// Blocks worker `slot` (the caller) until its wake token arrives, and
    /// consumes the token.
    fn block(&self, slot: usize);
    /// Hands worker `slot` its wake token. Called at most once per time the
    /// slot registered as parked.
    fn unblock(&self, slot: usize);
}

/// The pool-wide idle state: one packed word for the producers' fast path
/// and a stack of parked slots (most recently parked woken first) whose
/// lock also covers every change to the word's parked count.
#[derive(Debug)]
pub struct Idle {
    word: AtomicUsize,
    parked: Mutex<Vec<usize>>,
}

impl Idle {
    /// Idle state for a pool of `workers` slots, nobody parked or searching.
    pub fn new(workers: usize) -> Idle {
        assert!(workers < SEARCHING, "at most {} workers per pool", SEARCHING - 1);
        Idle { word: AtomicUsize::new(0), parked: Mutex::new(Vec::with_capacity(workers)) }
    }

    /// `(parked, searching)` right now (racy; exact on a quiescent pool).
    pub fn counts(&self) -> (usize, usize) {
        let word = self.word.load(Ordering::Relaxed);
        (word % SEARCHING, word / SEARCHING)
    }

    /// Producer side, called *after* work became visible: one fence and one
    /// relaxed load when nobody is parked or somebody is searching.
    #[inline]
    pub fn notify_work<E: IdleEnv>(&self, env: &E) {
        fence(Ordering::SeqCst);
        let (parked, searching) = self.counts();
        if parked > 0 && searching == 0 {
            self.wake_one(env);
        }
    }

    /// Wakes the most recently parked worker as a searcher, unless a
    /// concurrent waker (or a worker that just ran dry) already is one.
    #[cold]
    fn wake_one<E: IdleEnv>(&self, env: &E) {
        let slot = {
            let mut parked = poison::recover(self.parked.lock());
            if self.counts().1 > 0 {
                return;
            }
            let Some(slot) = parked.pop() else { return };
            self.word.fetch_sub(SEARCHER_PARKS, Ordering::Relaxed);
            slot
        };
        env.unblock(slot);
    }

    /// A worker whose `find_work` failed starts searching.
    pub fn start_search(&self) {
        self.word.fetch_add(SEARCHING, Ordering::Relaxed);
    }

    /// A searching worker stops (it found work, or is leaving the pool).
    /// Producers skipped their wake-up while it searched, so the last
    /// searcher out re-scans and passes the baton if more work is visible.
    pub fn end_search<E: IdleEnv>(&self, env: &E) {
        if self.word.fetch_sub(SEARCHING, Ordering::Relaxed) / SEARCHING == 1 {
            fence(Ordering::SeqCst);
            if env.work_visible() {
                self.wake_one(env);
            }
        }
    }

    /// The searching worker `slot` gives up: registers as parked, fences,
    /// re-scans once, and blocks with no timeout. Returns searching again;
    /// `true` if it consumed a wake token, `false` if the re-scan saw work.
    pub fn park<E: IdleEnv>(&self, slot: usize, env: &E) -> bool {
        {
            let mut parked = poison::recover(self.parked.lock());
            parked.push(slot);
            self.word.fetch_add(SEARCHER_PARKS, Ordering::Relaxed);
        }
        fence(Ordering::SeqCst);
        if env.work_visible() {
            let mut parked = poison::recover(self.parked.lock());
            if let Some(at) = parked.iter().rposition(|&s| s == slot) {
                parked.remove(at);
                self.word.fetch_sub(SEARCHER_PARKS, Ordering::Relaxed);
                return false;
            }
            // A waker popped this slot first: its token is on the way and
            // must be consumed, or it would cut a later park short.
        }
        env.block(slot);
        true
    }

    /// Wakes every parked worker (termination, a respawned slot).
    pub fn wake_all<E: IdleEnv>(&self, env: &E) {
        fence(Ordering::SeqCst);
        let woken = {
            let mut parked = poison::recover(self.parked.lock());
            self.word.fetch_sub(SEARCHER_PARKS.wrapping_mul(parked.len()), Ordering::Relaxed);
            parked.drain(..).collect::<Vec<_>>()
        };
        for slot in woken {
            env.unblock(slot);
        }
    }
}
