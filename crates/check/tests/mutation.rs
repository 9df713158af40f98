//! Mutation self-test (the checker checking itself): a checker-shadowed
//! copy of the Chase–Lev deque with *plantable* memory-ordering bugs.
//! `cilk-check` must find a counterexample for every planted mutation and
//! none for the faithful copy — otherwise the model suites in
//! `tests/models.rs` would be vacuous.
//!
//! The copy mirrors `crates/deque/src/lib.rs` structurally (raw buffer
//! pointer, retired-buffer retention, the same ordering discipline) but is
//! shrunk to `usize` payloads and the push/pop/steal core. Both owner
//! protocols are shadowed: the classic one and the fence-elided private
//! window (with `retain: 1, publish_batch: 1`, the same tuning the model
//! suites use), each with its own plantable weakenings.
//!
//! The same is done for the runtime's idle protocol: a shadow of
//! `cilk_runtime::idle::Idle` with a plantable dropped fence and dropped
//! re-scan, under the very model (`idle_model`) that `tests/models.rs`
//! passes the shipping code through — and for its blocking latch: a shadow
//! of `cilk_runtime::LockLatch` whose setter reads the waiter's handle after
//! its swap, or unparks on the wrong transition, under `latch_model` — and
//! for the parker built on that latch: a shadow of `cilk_runtime::Parker`
//! that skips the withdrawal of a timed-out waiter or the consumption of a
//! token, under `parker_model`.

mod idle_model;
mod latch_model;
mod parker_model;

use std::cell::Cell;
use std::sync::atomic::AtomicUsize as RealUsize;
use std::sync::atomic::Ordering::Relaxed as RealRelaxed;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cilk_check::sync::atomic::{fence, AtomicIsize, AtomicPtr, Ordering};
use cilk_check::{check, model_with, thread, Config, Mode};

/// The elided shadow's tuning, matching `tests/models.rs`: keep the newest
/// element private, publish one element per batch.
const RETAIN: isize = 1;
const BATCH: isize = 1;

/// Which single memory-ordering weakening to plant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mutation {
    /// The faithful classic copy: must survive exhaustive exploration.
    None,
    /// Drop the `SeqCst` fence between `pop`'s bottom decrement and its
    /// top read — the canonical Chase–Lev bug (owner and thief both take
    /// the last element).
    PopFenceSkipped,
    /// `steal` reads `bottom` with `Relaxed` instead of `Acquire`: the
    /// thief can pair a fresh `bottom` with a stale (retired) buffer
    /// pointer after growth and steal a wrong value.
    StealBottomRelaxed,
    /// `push` publishes `bottom` with `Relaxed` instead of `Release`:
    /// same stale-buffer pairing, planted on the owner side.
    PushBottomRelaxed,
    /// `steal`'s top CAS succeeds with `Relaxed` instead of `SeqCst`: the
    /// steal no longer participates in the SC order, so the owner's fenced
    /// top read (and a second thief's fenced bottom read) can both be
    /// stale at once — the same element is taken twice. Needs two thieves
    /// to manifest; a single thief is saved by RMW atomicity alone.
    StealCasRelaxed,
    /// The faithful fence-elided owner: must survive exhaustive
    /// exploration (private fast path + batched publication + boundary
    /// protocol, no planted bug).
    ElidedFaithful,
    /// Drop the `SeqCst` fence in the elided *boundary* pop — the one
    /// fence the protocol keeps. The owner's top read goes stale and it
    /// takes a published element a thief already stole.
    ElidedBoundaryFenceSkipped,
    /// Batch publication stores `bottom` with `Relaxed` instead of
    /// `Release`: a thief pairs the fresh bottom with a retired buffer
    /// after growth, as in `PushBottomRelaxed`, but on the batched path.
    ElidedPublishRelaxed,
    /// Off-by-one in the private-window test (`>= 0` instead of `> 0`):
    /// the owner claims a *published* element through the fence-free
    /// private path, without retracting `bottom` — a thief can take the
    /// same element.
    ElidedPrivateOverclaim,
}

impl Mutation {
    /// Whether the owner runs the fence-elided protocol in this variant.
    fn is_elided(self) -> bool {
        matches!(
            self,
            Mutation::ElidedFaithful
                | Mutation::ElidedBoundaryFenceSkipped
                | Mutation::ElidedPublishRelaxed
                | Mutation::ElidedPrivateOverclaim
        )
    }
}

struct Buf {
    cap: usize,
    slots: Vec<RealUsize>,
}

impl Buf {
    fn alloc(cap: usize) -> *mut Buf {
        Box::into_raw(Box::new(Buf {
            cap,
            slots: (0..cap).map(|_| RealUsize::new(0)).collect(),
        }))
    }
    /// Slot for absolute index `i` (wrap by capacity mask, like
    /// `deque::buffer::Buffer::at`).
    fn slot(&self, i: isize) -> &RealUsize {
        &self.slots[(i as usize) & (self.cap - 1)]
    }
}

/// The shadowed deque. Slot contents are plain (real) memory — exactly as
/// in the real deque, where only the indices and the buffer pointer are
/// atomic; the checker serializes all access, and stale *pointer* reads
/// land in retired (still-allocated) buffers.
struct MutDeque {
    mutation: Mutation,
    top: AtomicIsize,
    bottom: AtomicIsize,
    buffer: AtomicPtr<Buf>,
    retired: Mutex<Vec<*mut Buf>>,
    // Owner-local elided-protocol state, as in `deque::OwnerState`: plain
    // cells, touched only by the owning (main) thread.
    priv_bottom: Cell<isize>,
    published: Cell<isize>,
    cached_top: Cell<isize>,
}

unsafe impl Send for MutDeque {}
unsafe impl Sync for MutDeque {}

impl MutDeque {
    fn new(cap: usize, mutation: Mutation) -> Self {
        assert!(cap.is_power_of_two());
        MutDeque {
            mutation,
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
            buffer: AtomicPtr::new(Buf::alloc(cap)),
            retired: Mutex::new(Vec::new()),
            priv_bottom: Cell::new(0),
            published: Cell::new(0),
            cached_top: Cell::new(0),
        }
    }

    fn push(&self, v: usize) {
        if self.mutation.is_elided() {
            return self.push_elided(v);
        }
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        let mut buf = self.buffer.load(Ordering::Relaxed);
        if b.wrapping_sub(t) >= unsafe { (*buf).cap } as isize {
            buf = self.grow(buf, t, b);
        }
        unsafe { (*buf).slot(b).store(v, RealRelaxed) };
        let ord = if self.mutation == Mutation::PushBottomRelaxed {
            Ordering::Relaxed
        } else {
            Ordering::Release
        };
        self.bottom.store(b.wrapping_add(1), ord);
    }

    /// Mirror of `Worker::push_elided`: private write, batched publication.
    fn push_elided(&self, v: usize) {
        let pb = self.priv_bottom.get();
        let mut ct = self.cached_top.get();
        let mut buf = self.buffer.load(Ordering::Relaxed);
        if pb.wrapping_sub(ct) >= unsafe { (*buf).cap } as isize {
            ct = self.top.load(Ordering::Acquire);
            self.cached_top.set(ct);
            if pb.wrapping_sub(ct) >= unsafe { (*buf).cap } as isize {
                buf = self.grow(buf, ct, pb);
            }
        }
        unsafe { (*buf).slot(pb).store(v, RealRelaxed) };
        let pb = pb.wrapping_add(1);
        self.priv_bottom.set(pb);
        let published = self.published.get();
        let target = if published == ct {
            let exposed = pb.wrapping_sub(RETAIN);
            if exposed.wrapping_sub(published) > 0 {
                exposed
            } else {
                return;
            }
        } else if pb.wrapping_sub(published) >= RETAIN + BATCH {
            pb.wrapping_sub(RETAIN)
        } else {
            return;
        };
        let ord = if self.mutation == Mutation::ElidedPublishRelaxed {
            Ordering::Relaxed
        } else {
            Ordering::Release
        };
        self.bottom.store(target, ord);
        self.published.set(target);
    }

    fn grow(&self, old: *mut Buf, t: isize, b: isize) -> *mut Buf {
        let new = Buf::alloc(unsafe { (*old).cap } * 2);
        let mut i = t;
        while i != b {
            unsafe { (*new).slot(i).store((*old).slot(i).load(RealRelaxed), RealRelaxed) };
            i = i.wrapping_add(1);
        }
        self.buffer.store(new, Ordering::Release);
        self.retired.lock().unwrap().push(old);
        new
    }

    fn pop(&self) -> Option<usize> {
        if self.mutation.is_elided() {
            return self.pop_elided();
        }
        let b = self.bottom.load(Ordering::Relaxed).wrapping_sub(1);
        let buf = self.buffer.load(Ordering::Relaxed);
        self.bottom.store(b, Ordering::Relaxed);
        if self.mutation != Mutation::PopFenceSkipped {
            fence(Ordering::SeqCst);
        }
        let t = self.top.load(Ordering::Relaxed);
        if t.wrapping_sub(b) <= 0 {
            if t == b {
                // Last element: race thieves for it.
                let won = self
                    .top
                    .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                self.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
                won.then(|| unsafe { (*buf).slot(b).load(RealRelaxed) })
            } else {
                Some(unsafe { (*buf).slot(b).load(RealRelaxed) })
            }
        } else {
            self.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
            None
        }
    }

    /// Mirror of `Worker::pop_elided`: fence-free private fast path,
    /// classic boundary protocol when the private window is empty.
    fn pop_elided(&self) -> Option<usize> {
        let pb = self.priv_bottom.get();
        let published = self.published.get();
        let window = pb.wrapping_sub(published);
        let private_ok = if self.mutation == Mutation::ElidedPrivateOverclaim {
            window >= 0 // off-by-one: also claims a *published* slot
        } else {
            window > 0
        };
        if private_ok {
            let b = pb.wrapping_sub(1);
            let buf = self.buffer.load(Ordering::Relaxed);
            let v = unsafe { (*buf).slot(b).load(RealRelaxed) };
            self.priv_bottom.set(b);
            return Some(v);
        }

        // Boundary window: retract bottom, fence, race thieves.
        let b = pb.wrapping_sub(1);
        let buf = self.buffer.load(Ordering::Relaxed);
        self.bottom.store(b, Ordering::Relaxed);
        self.published.set(b);
        self.priv_bottom.set(b);
        if self.mutation != Mutation::ElidedBoundaryFenceSkipped {
            fence(Ordering::SeqCst);
        }
        let t = self.top.load(Ordering::Relaxed);
        self.cached_top.set(t);
        if b.wrapping_sub(t) >= 0 {
            if t == b {
                let won = self
                    .top
                    .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                self.restore_elided(b.wrapping_add(1));
                self.cached_top.set(t.wrapping_add(1));
                won.then(|| unsafe { (*buf).slot(b).load(RealRelaxed) })
            } else {
                Some(unsafe { (*buf).slot(b).load(RealRelaxed) })
            }
        } else {
            self.restore_elided(b.wrapping_add(1));
            None
        }
    }

    fn restore_elided(&self, b: isize) {
        self.bottom.store(b, Ordering::Relaxed);
        self.published.set(b);
        self.priv_bottom.set(b);
    }

    fn steal(&self) -> Option<usize> {
        let t = self.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let ord = if self.mutation == Mutation::StealBottomRelaxed {
            Ordering::Relaxed
        } else {
            Ordering::Acquire
        };
        let b = self.bottom.load(ord);
        if t.wrapping_sub(b) < 0 {
            let buf = self.buffer.load(Ordering::Acquire);
            let v = unsafe { (*buf).slot(t).load(RealRelaxed) };
            let cas_ord = if self.mutation == Mutation::StealCasRelaxed {
                Ordering::Relaxed
            } else {
                Ordering::SeqCst
            };
            self.top
                .compare_exchange(t, t.wrapping_add(1), cas_ord, Ordering::Relaxed)
                .is_ok()
                .then_some(v)
        } else {
            None
        }
    }
}

impl Drop for MutDeque {
    fn drop(&mut self) {
        // `get_mut` bypasses the shim: Drop may run while an aborted
        // execution unwinds.
        unsafe {
            drop(Box::from_raw(*self.buffer.get_mut()));
            for p in self.retired.get_mut().unwrap().drain(..) {
                drop(Box::from_raw(p));
            }
        }
    }
}

/// Owner pushes `1..=pushes`, `thieves` thieves each make `attempts`
/// steals, owner drains, and the union must be exactly one copy of every
/// pushed value.
fn partition_model(
    cap: usize,
    pushes: usize,
    attempts: usize,
    thieves: usize,
    mutation: Mutation,
) -> impl Fn() {
    move || {
        let q = Arc::new(MutDeque::new(cap, mutation));
        // Spawn the thieves *before* pushing: spawn synchronizes (the child
        // inherits the parent's clock), so anything pushed earlier could
        // never be observed stale.
        let handles: Vec<_> = (0..thieves)
            .map(|_| {
                let q2 = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    for _ in 0..attempts {
                        if let Some(v) = q2.steal() {
                            got.push(v);
                        }
                    }
                    got
                })
            })
            .collect();
        for v in 0..pushes {
            q.push(v + 1); // 0 is the "empty slot" sentinel; never push it
        }
        let mut got = Vec::new();
        while let Some(v) = q.pop() {
            got.push(v);
        }
        for thief in handles {
            got.extend(thief.join());
        }
        got.sort_unstable();
        assert_eq!(
            got,
            (1..=pushes).collect::<Vec<_>>(),
            "each pushed job must be taken exactly once"
        );
    }
}

fn cfg() -> Config {
    Config { preemption_bound: Some(2), ..Config::default() }
}

/// The faithful copy survives exhaustive exploration of the last-element
/// race (no growth) — the checker has no false positives here.
#[test]
fn faithful_copy_passes_steal_race() {
    let report = model_with(
        "faithful_copy_passes_steal_race",
        &cfg(),
        partition_model(4, 2, 2, 1, Mutation::None),
    );
    assert!(report.executions > 10, "expected a real exploration, got {report:?}");
}

/// The faithful copy survives exhaustive exploration across a buffer
/// growth (retired-buffer scenario).
#[test]
fn faithful_copy_passes_growth() {
    model_with("faithful_copy_passes_growth", &cfg(), partition_model(2, 3, 3, 1, Mutation::None));
}

/// The faithful copy also survives two thieves racing each other and the
/// owner — the configuration `StealCasRelaxed` breaks.
#[test]
fn faithful_copy_passes_two_thieves() {
    model_with(
        "faithful_copy_passes_two_thieves",
        &cfg(),
        partition_model(4, 2, 1, 2, Mutation::None),
    );
}

/// The faithful fence-elided owner survives the same steal race: the
/// private fast path, batch publication, and boundary protocol are sound.
#[test]
fn faithful_elided_passes_steal_race() {
    let report = model_with(
        "faithful_elided_passes_steal_race",
        &cfg(),
        partition_model(4, 3, 2, 1, Mutation::ElidedFaithful),
    );
    assert!(report.executions > 10, "expected a real exploration, got {report:?}");
}

/// The faithful fence-elided owner survives growth with the batched
/// publication crossing the retired buffer.
#[test]
fn faithful_elided_passes_growth() {
    model_with(
        "faithful_elided_passes_growth",
        &cfg(),
        partition_model(2, 4, 3, 1, Mutation::ElidedFaithful),
    );
}

fn assert_caught(name: &str, f: impl Fn()) {
    let report = check(name, &cfg(), Mode::Exhaustive, f);
    let failure = report
        .failure
        .unwrap_or_else(|| panic!("planted mutation not caught in {} executions", report.executions));
    assert!(
        failure.message.contains("exactly once"),
        "unexpected counterexample: {}",
        failure.message
    );
    assert!(!failure.schedule.is_empty(), "counterexample must be replayable");
}

/// Removing pop's SeqCst fence lets owner and thief take the same job.
#[test]
fn catches_pop_fence_skipped() {
    assert_caught(
        "catches_pop_fence_skipped",
        partition_model(4, 2, 2, 1, Mutation::PopFenceSkipped),
    );
}

/// A Relaxed bottom read in steal pairs a fresh index with a retired
/// buffer: the thief steals a stale value.
#[test]
fn catches_steal_bottom_relaxed() {
    assert_caught(
        "catches_steal_bottom_relaxed",
        partition_model(2, 3, 3, 1, Mutation::StealBottomRelaxed),
    );
}

/// A Relaxed bottom publish in push has the same stale-buffer consequence,
/// planted on the owner side.
#[test]
fn catches_push_bottom_relaxed() {
    assert_caught(
        "catches_push_bottom_relaxed",
        partition_model(2, 3, 3, 1, Mutation::PushBottomRelaxed),
    );
}

/// A Relaxed steal CAS drops the steal out of the SC order. One thief is
/// saved by RMW atomicity, but with two: thief A's relaxed CAS is
/// invisible to the owner's fence (stale top read — the owner takes a
/// non-boundary element), while thief B pairs A's advanced top with a
/// stale bottom (the owner's Relaxed retraction not yet fenced into the
/// global order) and steals the element the owner just took.
#[test]
fn catches_steal_cas_relaxed() {
    assert_caught(
        "catches_steal_cas_relaxed",
        partition_model(4, 2, 1, 2, Mutation::StealCasRelaxed),
    );
}

/// Removing the boundary pop's fence — the one fence the elided protocol
/// keeps — lets the owner read a stale top and take a published,
/// non-boundary element a thief already stole.
#[test]
fn catches_elided_boundary_fence_skipped() {
    assert_caught(
        "catches_elided_boundary_fence_skipped",
        partition_model(4, 3, 2, 1, Mutation::ElidedBoundaryFenceSkipped),
    );
}

/// A Relaxed batch publication lets a thief pair the fresh bottom with a
/// retired buffer after growth and steal a stale value.
#[test]
fn catches_elided_publish_relaxed() {
    assert_caught(
        "catches_elided_publish_relaxed",
        partition_model(2, 4, 3, 1, Mutation::ElidedPublishRelaxed),
    );
}

/// Claiming a published element through the fence-free private path (the
/// `>= 0` off-by-one) leaves `bottom` unretracted: a thief takes the same
/// element.
#[test]
fn catches_elided_private_overclaim() {
    assert_caught(
        "catches_elided_private_overclaim",
        partition_model(4, 2, 2, 1, Mutation::ElidedPrivateOverclaim),
    );
}

// ---------------------------------------------------------------------------
// The idle protocol's shadow (ISSUE 16): `cilk_runtime::idle::Idle` copied
// operation for operation, with the sleeper side of the handshake mutable.
// ---------------------------------------------------------------------------

/// Which step of `Idle::park` to drop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum IdleMutation {
    /// The faithful copy: must survive exhaustive exploration.
    None,
    /// Drop the `SeqCst` fence between registering as parked and the
    /// re-scan: the re-scan may read a stale "no work" while the producer
    /// reads a stale "nobody parked" — both sides miss.
    ParkFenceSkipped,
    /// Drop the re-scan: a job published after the worker's last look and
    /// before it registered is seen by nobody.
    ParkRescanSkipped,
}

const SEARCHING: usize = 1 << 16;
const SEARCHER_PARKS: usize = 1usize.wrapping_sub(SEARCHING);

struct ShadowIdle {
    mutation: IdleMutation,
    word: cilk_check::sync::atomic::AtomicUsize,
    parked: cilk_check::sync::Mutex<Vec<usize>>,
}

impl ShadowIdle {
    fn new(mutation: IdleMutation) -> Self {
        ShadowIdle {
            mutation,
            word: cilk_check::sync::atomic::AtomicUsize::new(0),
            parked: cilk_check::sync::Mutex::new(Vec::new()),
        }
    }

    fn wake_one(&self, env: &idle_model::Pool) {
        use cilk_runtime::idle::IdleEnv;
        let slot = {
            let mut parked = self.parked.lock().unwrap();
            if idle_model::Protocol::counts(self).1 > 0 {
                return;
            }
            let Some(slot) = parked.pop() else { return };
            self.word.fetch_sub(SEARCHER_PARKS, Ordering::Relaxed);
            slot
        };
        env.unblock(slot);
    }
}

impl idle_model::Protocol for ShadowIdle {
    fn counts(&self) -> (usize, usize) {
        let word = self.word.load(Ordering::Relaxed);
        (word % SEARCHING, word / SEARCHING)
    }

    fn notify_work(&self, env: &idle_model::Pool) {
        fence(Ordering::SeqCst);
        let (parked, searching) = self.counts();
        if parked > 0 && searching == 0 {
            self.wake_one(env);
        }
    }

    fn start_search(&self) {
        self.word.fetch_add(SEARCHING, Ordering::Relaxed);
    }

    fn end_search(&self, env: &idle_model::Pool) {
        use cilk_runtime::idle::IdleEnv;
        if self.word.fetch_sub(SEARCHING, Ordering::Relaxed) / SEARCHING == 1 {
            fence(Ordering::SeqCst);
            if env.work_visible() {
                self.wake_one(env);
            }
        }
    }

    fn park(&self, slot: usize, env: &idle_model::Pool) {
        use cilk_runtime::idle::IdleEnv;
        {
            let mut parked = self.parked.lock().unwrap();
            parked.push(slot);
            self.word.fetch_add(SEARCHER_PARKS, Ordering::Relaxed);
        }
        if self.mutation != IdleMutation::ParkFenceSkipped {
            fence(Ordering::SeqCst);
        }
        if self.mutation != IdleMutation::ParkRescanSkipped && env.work_visible() {
            let mut parked = self.parked.lock().unwrap();
            if let Some(at) = parked.iter().rposition(|&s| s == slot) {
                parked.remove(at);
                self.word.fetch_sub(SEARCHER_PARKS, Ordering::Relaxed);
                return;
            }
        }
        env.block(slot);
    }

    fn wake_all(&self, env: &idle_model::Pool) {
        use cilk_runtime::idle::IdleEnv;
        fence(Ordering::SeqCst);
        let woken = {
            let mut parked = self.parked.lock().unwrap();
            self.word.fetch_sub(SEARCHER_PARKS.wrapping_mul(parked.len()), Ordering::Relaxed);
            parked.drain(..).collect::<Vec<_>>()
        };
        for slot in woken {
            env.unblock(slot);
        }
    }
}

/// The faithful shadow survives both idle models, as the shipping code
/// does in `models.rs` — the mutants below differ from it by one step.
#[test]
fn faithful_idle_shadow_passes() {
    let make = |_workers| ShadowIdle::new(IdleMutation::None);
    model_with("faithful_idle_shadow_passes", &cfg(), idle_model::two_producers_two_sleepers(make));
    model_with("faithful_idle_shadow_terminates", &cfg(), idle_model::terminate_wakes_everyone(make));
}

fn assert_lost_wakeup_caught(name: &str, mutation: IdleMutation) {
    let model = idle_model::two_producers_two_sleepers(move |_workers| ShadowIdle::new(mutation));
    let report = check(name, &cfg(), Mode::Exhaustive, model);
    let failure = report
        .failure
        .unwrap_or_else(|| panic!("planted mutation not caught in {} executions", report.executions));
    assert!(
        failure.message.contains("a lost wake-up"),
        "unexpected counterexample: {}",
        failure.message
    );
    assert!(!failure.schedule.is_empty(), "counterexample must be replayable");
}

/// Without the fence, registering as parked and the re-scan are not
/// ordered against the producer's publish-then-look: both can miss.
#[test]
fn catches_idle_park_fence_skipped() {
    assert_lost_wakeup_caught("catches_idle_park_fence_skipped", IdleMutation::ParkFenceSkipped);
}

/// Without the re-scan, a job published just before the worker registered
/// waits for a wake-up nobody owes it.
#[test]
fn catches_idle_park_rescan_skipped() {
    assert_lost_wakeup_caught("catches_idle_park_rescan_skipped", IdleMutation::ParkRescanSkipped);
}

// ---------------------------------------------------------------------------
// The blocking latch's shadow: `cilk_runtime::LockLatch` copied operation
// for operation, with the setter's side mutable and every field access
// asserting that the waiter's frame is still there.
// ---------------------------------------------------------------------------

/// Which step of `LockLatch::set` to get wrong.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LatchMutation {
    None,
    /// Clone the waiter's handle *after* the swap: the waiter may have
    /// seen `SET`, returned and popped the frame holding it.
    HandleReadAfterSwap,
    /// Unpark when the swap found `UNSET` (a waiter still polling) instead
    /// of `SLEEPING` (a waiter that announced it parks).
    UnparkOnUnset,
}

const LATCH_UNSET: usize = 0;
const LATCH_SET: usize = 1;
const LATCH_SLEEPING: usize = 2;

struct ShadowLatch {
    mutation: LatchMutation,
    state: cilk_check::sync::atomic::AtomicUsize,
    waiter: thread::Thread,
    /// Checked, so that every access to the latch is a point where the
    /// waiter can run, return and pop the frame.
    retired: cilk_check::sync::atomic::AtomicBool,
}

impl ShadowLatch {
    /// A latch whose waiter is the calling thread.
    fn new(mutation: LatchMutation) -> Self {
        ShadowLatch {
            mutation,
            state: cilk_check::sync::atomic::AtomicUsize::new(LATCH_UNSET),
            waiter: thread::current(),
            retired: cilk_check::sync::atomic::AtomicBool::new(false),
        }
    }

    /// The latch, provided its frame is still live.
    fn live(&self) -> &Self {
        let retired = self.retired.load(Ordering::SeqCst);
        assert!(!retired, "the setter touched the latch after its frame was popped");
        self
    }
}

impl ShadowLatch {
    /// The park half of `wait`.
    fn sleep_for(&self, timeout: Duration) -> bool {
        let deadline = Instant::now().checked_add(timeout);
        let (unset, sleeping) = (LATCH_UNSET, LATCH_SLEEPING);
        let _ = self.state.compare_exchange(unset, sleeping, Ordering::Relaxed, Ordering::Relaxed);
        while !latch_model::Latch::probe(self) {
            match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                None => thread::park(),
                Some(left) if left.is_zero() => return false,
                Some(left) => thread::park_timeout(left),
            }
        }
        true
    }
}

impl latch_model::Latch for ShadowLatch {
    fn wait(&self) {
        // `WAIT_SPINS + WAIT_YIELDS` polls: the pauses are no yield points.
        for _ in 0..24 {
            if self.probe() {
                return;
            }
        }
        self.sleep_for(Duration::MAX);
    }

    fn probe(&self) -> bool {
        self.state.load(Ordering::Acquire) == LATCH_SET
    }

    unsafe fn set(this: *const Self) {
        // SAFETY: the model keeps the frame allocated; `live` asserts it
        // is still logically the waiter's.
        let this = unsafe { &*this };
        let (waiter, prev) = if this.mutation == LatchMutation::HandleReadAfterSwap {
            let prev = this.live().state.swap(LATCH_SET, Ordering::Release);
            (this.live().waiter.clone(), prev)
        } else {
            let waiter = this.live().waiter.clone();
            (waiter, this.live().state.swap(LATCH_SET, Ordering::Release))
        };
        let wake_on =
            if this.mutation == LatchMutation::UnparkOnUnset { LATCH_UNSET } else { LATCH_SLEEPING };
        if prev == wake_on {
            waiter.unpark();
        }
    }

    fn retire(&self) {
        self.retired.store(true, Ordering::SeqCst);
    }
}

/// The faithful shadow survives the model, as the shipping latch does in
/// `models.rs` — the mutants below differ from it by one step.
#[test]
fn faithful_latch_shadow_passes() {
    let model = latch_model::one_setter_one_waiter(|| ShadowLatch::new(LatchMutation::None));
    model_with("faithful_latch_shadow_passes", &cfg(), model);
}

fn assert_latch_caught(name: &str, mutation: LatchMutation, expected: &str) {
    let model = latch_model::one_setter_one_waiter(move || ShadowLatch::new(mutation));
    let report = check(name, &cfg(), Mode::Exhaustive, model);
    let failure = report
        .failure
        .unwrap_or_else(|| panic!("planted mutation not caught in {} executions", report.executions));
    assert!(failure.message.contains(expected), "unexpected counterexample: {}", failure.message);
    assert!(!failure.schedule.is_empty(), "counterexample must be replayable");
}

/// A waiter still polling sees `SET`, returns and pops its frame while the
/// setter has yet to read the handle it needs.
#[test]
fn catches_latch_handle_read_after_swap() {
    assert_latch_caught(
        "catches_latch_handle_read_after_swap",
        LatchMutation::HandleReadAfterSwap,
        "after its frame was popped",
    );
}

/// A waiter that announced `SLEEPING` and parked is never unparked.
#[test]
fn catches_latch_unpark_on_unset() {
    assert_latch_caught("catches_latch_unpark_on_unset", LatchMutation::UnparkOnUnset, "a lost wake-up");
}

// ---------------------------------------------------------------------------
// The parker's shadow: `cilk_runtime::Parker` copied operation for operation
// over the shadow latch, which asserts on every access that the park that
// built it has not returned. Each latch stays allocated after its park
// returns, so a stale address in the word is safe to follow and check.
// ---------------------------------------------------------------------------

/// Which step of `Parker::park` to drop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ParkerMutation {
    None,
    /// A timed-out waiter returns without taking its latch's address back:
    /// a later `unpark` sets a latch whose frame has popped.
    WithdrawSkipped,
    /// The waiter never moves the word off `TOKEN`: the stale token cuts
    /// the next park short.
    ConsumeSkipped,
    /// The token is consumed with a plain store after the look that found
    /// it: an `unpark` that merged into the token in between is erased
    /// without being acquired, and the waiter sleeps through its condition.
    ConsumeStored,
}

const PARKER_EMPTY: usize = 0;
const PARKER_TOKEN: usize = 1;

struct ShadowParker {
    mutation: ParkerMutation,
    word: cilk_check::sync::atomic::AtomicUsize,
    latches: Mutex<Vec<Arc<ShadowLatch>>>,
}

impl ShadowParker {
    fn new(mutation: ParkerMutation) -> Self {
        ShadowParker {
            mutation,
            word: cilk_check::sync::atomic::AtomicUsize::new(PARKER_EMPTY),
            latches: Mutex::new(Vec::new()),
        }
    }

    /// `Parker::park` on `latch`, the frame's latch at `addr`.
    fn park_on(&self, latch: &ShadowLatch, addr: usize, timeout: Duration) -> bool {
        let (empty, token) = (PARKER_EMPTY, PARKER_TOKEN);
        if let Err(seen) =
            self.word.compare_exchange(empty, addr, Ordering::Release, Ordering::Relaxed)
        {
            assert_eq!(seen, token, "a parker has one waiter at a time");
        } else if !latch.sleep_for(timeout) {
            if self.mutation == ParkerMutation::WithdrawSkipped
                || self.word.compare_exchange(addr, empty, Ordering::Relaxed, Ordering::Relaxed).is_ok()
            {
                return false;
            }
            latch.sleep_for(Duration::MAX);
        }
        match self.mutation {
            ParkerMutation::ConsumeSkipped => {}
            ParkerMutation::ConsumeStored => self.word.store(empty, Ordering::Relaxed),
            _ => {
                self.word.swap(empty, Ordering::Acquire);
            }
        }
        true
    }
}

impl parker_model::Parker for ShadowParker {
    fn park(&self, timeout: Duration) -> bool {
        let latch = Arc::new(ShadowLatch::new(LatchMutation::None));
        self.latches.lock().unwrap().push(Arc::clone(&latch));
        let woken = self.park_on(&latch, Arc::as_ptr(&latch) as usize, timeout);
        latch_model::Latch::retire(&*latch);
        woken
    }

    fn unpark(&self) {
        let seen = self.word.swap(PARKER_TOKEN, Ordering::AcqRel);
        if seen > PARKER_TOKEN {
            // SAFETY: `latches` keeps every latch allocated; the shadow
            // latch asserts that its park has not returned.
            unsafe { <ShadowLatch as latch_model::Latch>::set(seen as *const ShadowLatch) };
        }
    }
}

/// The faithful shadow survives the model, as the shipping parker does in
/// `models.rs` — the mutants below differ from it by one step.
#[test]
fn faithful_parker_shadow_passes() {
    let model = parker_model::one_waiter_two_unparkers(|| ShadowParker::new(ParkerMutation::None));
    model_with("faithful_parker_shadow_passes", &cfg(), model);
}

fn assert_parker_caught(name: &str, mutation: ParkerMutation, expected: &str) {
    let model = parker_model::one_waiter_two_unparkers(move || ShadowParker::new(mutation));
    let report = check(name, &cfg(), Mode::Exhaustive, model);
    let failure = report
        .failure
        .unwrap_or_else(|| panic!("planted mutation not caught in {} executions", report.executions));
    assert!(failure.message.contains(expected), "unexpected counterexample: {}", failure.message);
    assert!(!failure.schedule.is_empty(), "counterexample must be replayable");
}

/// The waiter times out and returns with its address still in the word; the
/// stray `unpark` swaps it out and sets a latch whose frame is gone.
#[test]
fn catches_parker_withdraw_skipped() {
    assert_parker_caught(
        "catches_parker_withdraw_skipped",
        ParkerMutation::WithdrawSkipped,
        "after its frame was popped",
    );
}

/// The token that woke the first park is still in the word when the
/// second park starts, which returns on it before the stray unparks.
#[test]
fn catches_parker_consume_skipped() {
    assert_parker_caught(
        "catches_parker_consume_skipped",
        ParkerMutation::ConsumeSkipped,
        "no unpark handed over",
    );
}

/// A token consumed by a store instead of a swap loses the unparker that
/// merged into it: the waiter's look at its flag can still read the old
/// value, and it parks for good.
#[test]
fn catches_parker_consume_stored() {
    assert_parker_caught(
        "catches_parker_consume_stored",
        ParkerMutation::ConsumeStored,
        "a lost wake-up",
    );
}
