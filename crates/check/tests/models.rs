//! Schedule-exploration models of the *real* `cilk-deque` code, and of the
//! runtime's idle protocol (`cilk_runtime::idle`) and blocking latch
//! (`cilk_runtime::LockLatch`).
//!
//! This file only compiles under `RUSTFLAGS="--cfg cilk_check"` (ci.sh's
//! `check` stage): the deque, idle and latch sources swap their `std::sync`
//! (and the latch its `std::thread`) imports for `cilk_check`'s, so the
//! code explored here is the code that ships — not a model of it.
//!
//! Deque invariants asserted across every explored interleaving (the idle
//! protocol's and the latch's are stated in `idle_model/mod.rs` and
//! `latch_model/mod.rs`):
//!
//! * **No lost task, no double execution** — the jobs collected by the
//!   owner (pops, seal drains) and the thieves partition the pushed set.
//! * **LIFO local, FIFO steal** — each thief's successful steals come out
//!   in push (age) order; the owner's pops come out newest-first relative
//!   to the remaining window.
//! * **Seal is exactly-once** — after `seal` returns, everything not won
//!   by a thief is in the drained vector, and the deque is empty.
#![cfg(cilk_check)]

mod idle_model;
mod latch_model;

use cilk_check::{model_with, thread, Config};
use cilk_deque::{Deque, Protocol, Steal, Stealer, Worker};

fn cfg() -> Config {
    Config { preemption_bound: Some(2), ..Config::default() }
}

/// The fence-elided owner protocol with the smallest window, so the models
/// hit every path (empty-public publication, batch publication, private
/// pop, boundary pop) within a handful of operations.
fn elided() -> Protocol {
    Protocol::FenceElided { retain: 1, publish_batch: 1 }
}

/// Spawn a thief making `attempts` steal attempts, collecting successes.
fn spawn_thief(s: Stealer<usize>, attempts: usize) -> thread::JoinHandle<Vec<usize>> {
    thread::spawn(move || {
        let mut got = Vec::new();
        for _ in 0..attempts {
            if let Steal::Success(v) = s.steal() {
                got.push(v);
            }
        }
        got
    })
}

fn assert_partition(mut all: Vec<usize>, pushed: usize) {
    all.sort_unstable();
    assert_eq!(
        all,
        (1..=pushed).collect::<Vec<_>>(),
        "each pushed job must be taken exactly once"
    );
}

fn assert_fifo(got: &[usize]) {
    assert!(got.windows(2).all(|w| w[0] < w[1]), "steals must come out in age order: {got:?}");
}

/// The ISSUE's acceptance model: two thieves race the owner's push/pop and
/// seal. Exhaustive within the preemption bound.
#[test]
fn two_thieves_steal_and_seal() {
    let report = model_with("two_thieves_steal_and_seal", &cfg(), || {
        let deque = Deque::with_capacity(4);
        let (s1, s2) = (deque.stealer(), deque.stealer());
        let w = deque.into_worker();
        let t1 = spawn_thief(s1, 1);
        let t2 = spawn_thief(s2, 1);
        for v in 1..=3 {
            w.push(v);
        }
        let mut owner = w.pop().into_iter().collect::<Vec<_>>();
        // Seal mid-race: thieves may still be stealing.
        let drained = w.seal();
        assert!(w.is_empty(), "a sealed deque drains fully");
        assert_eq!(w.pop(), None, "nothing re-appears after seal");
        let (g1, g2) = (t1.join(), t2.join());
        assert_fifo(&g1);
        assert_fifo(&g2);
        assert_fifo(&drained);
        owner.extend(drained);
        owner.extend(g1);
        owner.extend(g2);
        assert_partition(owner, 3);
    });
    assert!(report.executions > 100, "expected a substantial exploration: {report:?}");
}

/// Owner pushes across a buffer growth while one thief steals: stale
/// buffer pointers (the retired-buffer path) must never surface a wrong
/// value. This is the scenario the mutation self-test plants bugs into.
#[test]
fn growth_under_steal() {
    model_with("growth_under_steal", &cfg(), || {
        let deque = Deque::with_capacity(2);
        let s = deque.stealer();
        let w = deque.into_worker();
        let t = spawn_thief(s, 3);
        for v in 1..=3 {
            w.push(v); // third push doubles the buffer mid-race
        }
        let mut all = Vec::new();
        while let Some(v) = w.pop() {
            all.push(v);
        }
        let got = t.join();
        assert_fifo(&got);
        all.extend(got);
        assert_partition(all, 3);
    });
}

/// The same growth-under-steal model with the deque's free-running
/// counters starting at `isize::MAX - 1`: the buffer index computation and
/// every `top`/`bottom` comparison must survive signed wraparound.
#[test]
fn growth_across_index_wraparound() {
    model_with("growth_across_index_wraparound", &cfg(), || {
        let deque = Deque::with_capacity_and_origin(2, isize::MAX - 1);
        let s = deque.stealer();
        let w = deque.into_worker();
        let t = spawn_thief(s, 3);
        for v in 1..=3 {
            w.push(v); // bottom crosses isize::MAX on the second push
        }
        let mut all = Vec::new();
        while let Some(v) = w.pop() {
            all.push(v);
        }
        all.extend(t.join());
        assert_partition(all, 3);
    });
}

/// Seal / unseal / reinject against a racing thief: the handoff protocol
/// used when a supervisor moves a dead worker's deque to a replacement.
/// No job is both stolen *and* reinjected; nothing is lost.
#[test]
fn seal_unseal_reinject_exactly_once() {
    model_with("seal_unseal_reinject_exactly_once", &cfg(), || {
        let deque = Deque::with_capacity(4);
        let s = deque.stealer();
        let w = deque.into_worker();
        let t = spawn_thief(s, 2);
        w.push(1);
        w.push(2);
        // Retire: seal and reclaim what thieves did not win.
        let reclaimed = w.seal();
        assert!(w.is_empty(), "sealed deque must be empty after the drain");
        // Adopt: reopen and reinject the reclaimed jobs, oldest first.
        w.unseal();
        for v in &reclaimed {
            w.push(*v);
        }
        // The replacement owner drains its adopted deque.
        let mut all = Vec::new();
        while let Some(v) = w.pop() {
            all.push(v);
        }
        all.extend(t.join());
        assert_partition(all, 2);
    });
}

/// The supervisor slot-takeover protocol
/// ([`cilk_runtime::lifecycle::retire_worker`] then
/// [`cilk_runtime::lifecycle::adopt_orphan`]) driven under the checker with
/// a thief racing the whole handoff: a worker dies with jobs queued, the
/// deque is sealed and drained into the injector, the slot is marked dead,
/// the orphan is adopted, and a replacement drains the reopened deque.
///
/// Invariants across every interleaving:
/// * exactly-once — injector + thief + replacement partition the dead
///   worker's jobs;
/// * publication order — when the death becomes visible (`alive` reads
///   `false` with Acquire), the reclaimed jobs are already in the injector.
#[test]
fn supervisor_slot_takeover() {
    use cilk_check::sync::atomic::{AtomicBool, Ordering};
    use cilk_runtime::lifecycle::{adopt_orphan, retire_worker, AdoptEnv, AdoptOutcome, RetireEnv};
    use std::sync::{Arc, Mutex};

    /// Model pool: the one dead slot's liveness bit and the global injector.
    struct Pool {
        alive: AtomicBool,
        injector: Mutex<Vec<usize>>,
    }

    /// Model environment for both protocol halves. No OS threads: `install`
    /// hands the deque back for the (already spawned) replacement vthread.
    struct Env {
        pool: Arc<Pool>,
        adopted: Option<Worker<usize>>,
    }

    impl RetireEnv<usize> for Env {
        fn on_died(&mut self) {}
        fn reinject(&mut self, jobs: Vec<usize>) {
            self.pool.injector.lock().unwrap().extend(jobs);
        }
        fn on_reclaimed(&mut self, _jobs: usize) {}
        fn note_death(&mut self) -> bool {
            self.pool.alive.store(false, Ordering::Release);
            true
        }
        fn offer_orphan(&mut self, deque: Worker<usize>) {
            self.adopted = Some(deque);
        }
        fn on_terminate(&mut self) {}
    }

    impl AdoptEnv<usize> for Env {
        fn should_terminate(&mut self) -> bool {
            false
        }
        fn try_reserve_respawn(&mut self) -> Option<u64> {
            Some(0)
        }
        fn backoff(&mut self, _attempt: u64) -> bool {
            true
        }
        fn release_pending(&mut self) {}
        fn install(&mut self, deque: Worker<usize>, _generation: u64) -> bool {
            self.adopted = Some(deque);
            true
        }
        fn note_alive(&mut self) {
            self.pool.alive.store(true, Ordering::Release);
        }
        fn on_respawned(&mut self) {}
        fn on_degraded(&mut self) {
            unreachable!("budget never runs out in this model");
        }
    }

    model_with("supervisor_slot_takeover", &cfg(), || {
        let pool = Arc::new(Pool { alive: AtomicBool::new(true), injector: Mutex::new(Vec::new()) });
        let deque = Deque::with_capacity(4);
        let s = deque.stealer();
        let w = deque.into_worker();

        // A thief racing the retire/adopt handoff: steal once, and check
        // the publication-order invariant whenever the death is visible.
        let p2 = Arc::clone(&pool);
        let thief = thread::spawn(move || {
            let mut got = Vec::new();
            if let Steal::Success(v) = s.steal() {
                got.push(v);
            }
            if !p2.alive.load(Ordering::Acquire) {
                let banked = p2.injector.lock().unwrap().len();
                let dead_workers_jobs = got.iter().filter(|&&v| v <= 2).count();
                assert!(
                    banked + dead_workers_jobs <= 2,
                    "thief wins and injector jobs overlap: {banked} banked, {got:?} stolen"
                );
            }
            got
        });

        w.push(1);
        w.push(2);
        let mut env = Env { pool: Arc::clone(&pool), adopted: None };
        retire_worker(w, &mut env);
        let orphan = env.adopted.take().expect("supervised retire offers the deque");
        assert_eq!(adopt_orphan(orphan, &mut env), AdoptOutcome::Respawned);

        // The replacement worker pushes fresh work onto its adopted
        // (reopened) deque — the thief may still be racing it — and drains;
        // the reclaimed jobs run off the injector.
        let replacement = env.adopted.take().expect("install hands over the deque");
        replacement.push(3);
        let mut all = Vec::new();
        while let Some(v) = replacement.pop() {
            all.push(v);
        }
        all.extend(pool.injector.lock().unwrap().drain(..));
        all.extend(thief.join());
        assert_partition(all, 3);
    });
}

/// A deeper randomized slice: three thieves race the owner across a growth
/// from a 2-slot buffer plus a mid-race seal — too many interleavings to
/// enumerate in CI time, so ci.sh's `check` stage random-walks it without a
/// preemption bound under a fresh printed seed. `CILK_TEST_SEED` reproduces
/// the whole run; a failure's schedule string replays the one execution.
#[test]
#[ignore = "deep randomized slice; run by ci.sh's check stage"]
fn random_walk_three_thieves_growth_seal() {
    eprintln!(
        "random_walk_three_thieves_growth_seal: effective CILK_TEST_SEED=0x{:x}",
        cilk_testkit::seed::base_seed()
    );
    let cfg = Config { preemption_bound: None, ..Config::default() };
    let report = cilk_check::model_random("random_walk_three_thieves_growth_seal", &cfg, 2_000, || {
        let deque = Deque::with_capacity(2);
        let (s1, s2, s3) = (deque.stealer(), deque.stealer(), deque.stealer());
        let w = deque.into_worker();
        let thieves = [spawn_thief(s1, 2), spawn_thief(s2, 2), spawn_thief(s3, 2)];
        for v in 1..=5 {
            w.push(v); // crosses one growth
        }
        let mut all = w.pop().into_iter().collect::<Vec<_>>();
        let drained = w.seal();
        assert_fifo(&drained);
        all.extend(drained);
        for t in thieves {
            let got = t.join();
            assert_fifo(&got);
            all.extend(got);
        }
        assert_partition(all, 5);
    });
    assert_eq!(report.executions, 2_000, "every random walk must complete");
}

/// Owner-only LIFO sanity under the checker (fast; mostly validates that
/// the shim changes nothing single-threaded).
#[test]
fn single_thread_lifo() {
    model_with("single_thread_lifo", &cfg(), || {
        let (w, _s): (Worker<usize>, _) = Worker::new();
        w.push(1);
        w.push(2);
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), Some(1));
        assert_eq!(w.pop(), None);
    });
}

// ---------------------------------------------------------------------------
// Fence-elided protocol suites (ISSUE 9 acceptance: "cilk-check exhaustively
// passes the fence-elided deque protocol — two thieves + owner, growth,
// seal/unseal"). Same invariants as above, owner constructed with
// `into_worker_with(elided())` so the private-window paths, batch
// publication, and the boundary fence + CAS all run under exploration.
// ---------------------------------------------------------------------------

/// Single-threaded elided protocol with exact stats accounting: with
/// `retain: 1, publish_batch: 1` and two pushes, exactly one publication
/// happens (the empty-public rule exposing the oldest element), the first
/// pop is private (fence-free), and the remaining pops run the boundary
/// protocol.
#[test]
fn single_thread_lifo_elided_stats() {
    model_with("single_thread_lifo_elided_stats", &cfg(), || {
        let (w, _s): (Worker<usize>, _) = Worker::new_with(elided());
        w.push(1);
        w.push(2);
        assert_eq!(w.private_len(), 1, "newest element stays private");
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), Some(1));
        assert_eq!(w.pop(), None);
        let stats = w.owner_stats();
        assert_eq!(stats.pushes, 2);
        assert_eq!(stats.publications, 1, "one batch publication, not one per push");
        assert_eq!(stats.pops_private, 1, "the newest pop avoids the fence");
        assert_eq!(stats.pops_fenced, 2, "boundary pop + empty pop fence");
    });
}

/// The acceptance model on the elided protocol: two thieves race the
/// owner's private pop, the boundary window, and a mid-race seal.
#[test]
fn two_thieves_steal_and_seal_elided() {
    let report = model_with("two_thieves_steal_and_seal_elided", &cfg(), || {
        let deque = Deque::with_capacity(4);
        let (s1, s2) = (deque.stealer(), deque.stealer());
        let w = deque.into_worker_with(elided());
        let t1 = spawn_thief(s1, 1);
        let t2 = spawn_thief(s2, 1);
        for v in 1..=3 {
            w.push(v);
        }
        // Deterministic across interleavings: element 3 is in the private
        // window (thieves cannot have taken it), so this pop is the
        // fence-free fast path and must succeed.
        let mut owner = vec![w.pop().expect("private window pop cannot lose a race")];
        assert_eq!(owner, [3]);
        assert_eq!(w.owner_stats().pops_private, 1, "fast path ran fence-free");
        // Seal mid-race: the drain boundary-pops the published region
        // against both thieves.
        let drained = w.seal();
        assert!(w.is_empty(), "a sealed deque drains fully");
        assert_eq!(w.pop(), None, "nothing re-appears after seal");
        let (g1, g2) = (t1.join(), t2.join());
        assert_fifo(&g1);
        assert_fifo(&g2);
        assert_fifo(&drained);
        owner.extend(drained);
        owner.extend(g1);
        owner.extend(g2);
        assert_partition(owner, 3);
    });
    assert!(report.executions > 100, "expected a substantial exploration: {report:?}");
}

/// The boundary race window itself, exhaustively: the private window holds
/// exactly one element, the public region exactly one, and two thieves
/// fight the owner's fence + CAS for the published element while the
/// private pop must stay untouchable.
#[test]
fn elided_boundary_race_two_thieves() {
    model_with("elided_boundary_race_two_thieves", &cfg(), || {
        let deque = Deque::with_capacity(4);
        let (s1, s2) = (deque.stealer(), deque.stealer());
        let w = deque.into_worker_with(elided());
        let t1 = spawn_thief(s1, 1);
        let t2 = spawn_thief(s2, 1);
        w.push(1); // stays private until push 2's empty-public publication
        w.push(2); // private; element 1 becomes public
        let mut all = Vec::new();
        all.push(w.pop().expect("private pop cannot fail")); // fence-free
        all.extend(w.pop()); // boundary: fence + CAS against both thieves
        assert_eq!(w.pop(), None, "empty after the boundary window");
        all.extend(t1.join());
        all.extend(t2.join());
        assert_partition(all, 2);
    });
}

/// Owner pushes across a buffer growth under the elided protocol while a
/// thief steals: the capacity check runs against `cached_top` (a lower
/// bound on `top`), so growth may be spurious but must never overwrite a
/// live slot or lose an element.
#[test]
fn growth_under_steal_elided() {
    model_with("growth_under_steal_elided", &cfg(), || {
        let deque = Deque::with_capacity(2);
        let s = deque.stealer();
        let w = deque.into_worker_with(elided());
        let t = spawn_thief(s, 3);
        for v in 1..=4 {
            w.push(v); // crosses at least one growth at capacity 2
        }
        let mut all = Vec::new();
        while let Some(v) = w.pop() {
            all.push(v);
        }
        let got = t.join();
        assert_fifo(&got);
        all.extend(got);
        assert_partition(all, 4);
    });
}

/// Elided growth-under-steal with the free-running counters starting at
/// `isize::MAX - 1`: `priv_bottom`, `published`, and `cached_top` all cross
/// the signed wrap while a thief races.
#[test]
fn growth_across_index_wraparound_elided() {
    model_with("growth_across_index_wraparound_elided", &cfg(), || {
        let deque = Deque::with_capacity_and_origin(2, isize::MAX - 1);
        let s = deque.stealer();
        let w = deque.into_worker_with(elided());
        let t = spawn_thief(s, 3);
        for v in 1..=4 {
            w.push(v); // the private bottom crosses isize::MAX
        }
        let mut all = Vec::new();
        while let Some(v) = w.pop() {
            all.push(v);
        }
        all.extend(t.join());
        assert_partition(all, 4);
    });
}

/// Seal / unseal / reinject on the elided protocol against a racing thief:
/// the drain must reclaim the private window (no thief can win it) plus
/// whatever survives of the public region, and the reinjected elements run
/// the elided push policy again.
#[test]
fn seal_unseal_reinject_exactly_once_elided() {
    model_with("seal_unseal_reinject_exactly_once_elided", &cfg(), || {
        let deque = Deque::with_capacity(4);
        let s = deque.stealer();
        let w = deque.into_worker_with(elided());
        let t = spawn_thief(s, 2);
        w.push(1);
        w.push(2); // element 2 private, element 1 published
        let reclaimed = w.seal();
        assert!(w.is_empty(), "sealed deque must be empty after the drain");
        assert!(!reclaimed.is_empty(), "the private element is unstealable");
        w.unseal();
        for v in &reclaimed {
            w.push(*v);
        }
        let mut all = Vec::new();
        while let Some(v) = w.pop() {
            all.push(v);
        }
        all.extend(t.join());
        assert_partition(all, 2);
    });
}

/// `Worker::publish` hands the entire private window to thieves in one
/// release store: afterwards both elements are stealable, and the
/// partition invariant holds against the owner's subsequent boundary pops.
#[test]
fn publish_exposes_private_window_elided() {
    model_with("publish_exposes_private_window_elided", &cfg(), || {
        let deque = Deque::with_capacity(4);
        let s = deque.stealer();
        let w = deque.into_worker_with(elided());
        let t = spawn_thief(s, 2);
        w.push(1);
        w.push(2);
        w.publish();
        assert_eq!(w.private_len(), 0, "publish drains the private window");
        let mut all = Vec::new();
        while let Some(v) = w.pop() {
            all.push(v);
        }
        all.extend(t.join());
        assert_partition(all, 2);
    });
}

// ---------------------------------------------------------------------------
// The idle protocol (ISSUE 16): `cilk_runtime::idle::Idle` itself, compiled
// against the checker's atomics, fences and mutex, under the two-producer /
// two-sleeper model of `idle_model`. `mutation.rs` runs the same model over
// a shadow copy with the fence or the re-scan dropped, and must fail.
// ---------------------------------------------------------------------------

impl idle_model::Protocol for cilk_runtime::idle::Idle {
    fn notify_work(&self, env: &idle_model::Pool) {
        self.notify_work(env);
    }
    fn start_search(&self) {
        self.start_search();
    }
    fn end_search(&self, env: &idle_model::Pool) {
        self.end_search(env);
    }
    fn park(&self, slot: usize, env: &idle_model::Pool) {
        self.park(slot, env);
    }
    fn wake_all(&self, env: &idle_model::Pool) {
        self.wake_all(env);
    }
    fn counts(&self) -> (usize, usize) {
        self.counts()
    }
}

/// No lost wake-up and exactly-once tokens, exhaustively at preemption
/// bound 2: per-worker parking, wake-one on publication, the last searcher
/// passing the baton — with no timeout anywhere.
#[test]
fn idle_two_producers_two_sleepers() {
    let report = model_with(
        "idle_two_producers_two_sleepers",
        &cfg(),
        idle_model::two_producers_two_sleepers(cilk_runtime::idle::Idle::new),
    );
    assert!(report.executions > 1_000, "expected a substantial exploration: {report:?}");
}

/// Terminate reaches every sleeper, parked or about to be.
#[test]
fn idle_terminate_wakes_everyone() {
    model_with(
        "idle_terminate_wakes_everyone",
        &cfg(),
        idle_model::terminate_wakes_everyone(cilk_runtime::idle::Idle::new),
    );
}

// ---------------------------------------------------------------------------
// The blocking latch: `cilk_runtime::LockLatch` itself, compiled against the
// checker's atomics and park/unpark, under `latch_model`. `mutation.rs` runs
// the same model over a shadow copy with the setter's steps mutable.
// ---------------------------------------------------------------------------

impl latch_model::Latch for cilk_runtime::LockLatch {
    fn wait(&self) {
        self.wait_for(std::time::Duration::MAX);
    }
    fn probe(&self) -> bool {
        cilk_runtime::Probe::probe(self)
    }
    unsafe fn set(this: *const Self) {
        // SAFETY: forwarded from the caller's contract.
        unsafe { <Self as cilk_runtime::Latch>::set(this) };
    }
}

/// The waiter returns only after `SET` and with the setter's writes, and
/// never stays parked on a set latch — through its polling window, its
/// announce CAS and its park loop, with a stray unpark anywhere.
#[test]
fn latch_one_setter_one_waiter() {
    let report = model_with(
        "latch_one_setter_one_waiter",
        &cfg(),
        latch_model::one_setter_one_waiter(cilk_runtime::LockLatch::new),
    );
    assert!(report.executions > 1_000, "expected a substantial exploration: {report:?}");
}
