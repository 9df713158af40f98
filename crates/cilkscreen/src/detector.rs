//! The Cilkscreen detector: SP-bags + shadow memory + lock sets.
//!
//! The detector monitors a **serial** execution of the parallel program
//! (exactly what Cilkscreen does via dynamic instrumentation, §4) and
//! reports every determinacy race that the program's dag exposes on this
//! input. The program is expressed against [`Execution`]: `spawn`, `sync`,
//! `read`/`write` of [`Location`]s, and `with_lock` critical sections.
//!
//! This module also holds the per-thread hooks both sessions share: the
//! access dispatch, the lock set, and reducer-view suppression.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use cilk_runtime::probe;

use crate::history::{LocState, RaceSink};
use crate::report::{Location, LockId, Report};
use crate::spbags::{ProcId, SpBags};
use crate::structure::{StructureEvent, StructureTrace};

/// The race detector. Construct with [`Detector::new`], then [`Detector::run`]
/// the program to obtain a [`Report`].
///
/// # Examples
///
/// A race between a spawned child and its parent's continuation:
///
/// ```
/// use cilkscreen::{Detector, Location};
///
/// let loc = Location(1);
/// let report = Detector::new().run(|exec| {
///     exec.spawn(|exec| exec.write(loc));
///     exec.write(loc); // parallel with the child: race!
///     exec.sync();
/// });
/// assert!(!report.is_race_free());
/// ```
///
/// Tracked data reports to the session by itself — here two logically
/// parallel pushes onto one shared list, the bug of the paper's Fig. 5:
///
/// ```
/// use cilkscreen::{Detector, Shadow};
///
/// let list = Shadow::new(Vec::new());
/// let report = Detector::new().run(|e| {
///     e.spawn(|_| list.update(|l| l.push(1)));
///     list.update(|l| l.push(2)); // parallel with the child: race!
///     e.sync();
/// });
/// assert!(!report.is_race_free());
/// println!("{report}"); // localized: which accesses, which location
/// ```
#[derive(Debug, Default)]
pub struct Detector;

impl Detector {
    /// Creates a detector. Reports keep one race per (location, kind).
    pub fn new() -> Self {
        Detector
    }

    /// Like [`Detector::run`], but additionally returns the recorded
    /// [`StructureTrace`]: the execution's series-parallel skeleton.
    pub fn run_traced<F>(self, program: F) -> (Report, StructureTrace)
    where
        F: FnOnce(&mut Execution<'_>),
    {
        let mut trace = StructureTrace::default();
        let ((), report) = self.session(|| program(&mut Execution::new()), Some(&mut trace));
        (report, trace)
    }

    /// Executes `program` under surveillance and returns the report.
    ///
    /// The closure receives the root [`Execution`]; an implicit `sync`
    /// is performed when it returns, like every Cilk function.
    pub fn run<F>(self, program: F) -> Report
    where
        F: FnOnce(&mut Execution<'_>),
    {
        self.session(|| program(&mut Execution::new()), None).1
    }

    /// Executes an arbitrary closure under surveillance and returns its
    /// value together with the race report.
    ///
    /// Unlike [`Detector::run`], the program is *not* expressed against the
    /// [`Execution`] DSL: it is real code whose parallel constructs and
    /// memory accesses report themselves through the instrumentation layer
    /// ([`crate::instrument`]) — tracked [`crate::instrument::Shadow`] /
    /// [`crate::instrument::ShadowSlice`] data, `cilk-runtime` scheduler
    /// hooks, `cilk::sync::Mutex` lock events. Prefer the convenience
    /// wrapper [`crate::instrument::run_monitored`], which also installs
    /// the runtime hooks.
    ///
    /// An implicit root `sync` is performed when the closure returns, like
    /// every Cilk function.
    pub fn monitor<F, R>(self, program: F) -> (R, Report)
    where
        F: FnOnce() -> R,
    {
        self.session(program, None)
    }

    fn session<F, R>(self, program: F, trace: Option<&mut StructureTrace>) -> (R, Report)
    where
        F: FnOnce() -> R,
    {
        let state = State {
            bags: SpBags::new(),
            shadow: HashMap::new(),
            sink: RaceSink::default(),
            suppressed_views: 0,
            structure: trace.is_some().then(StructureTrace::default),
        };
        SESSION.with(|session| {
            let mut slot = session.borrow_mut();
            assert!(slot.is_none(), "a cilkscreen session is already active on this thread");
            *slot = Some(state);
        });
        // Deactivates the session even if `program` panics, and gives the
        // thread back the lock set it had before the session began.
        struct SessionGuard(Vec<LockId>);
        impl Drop for SessionGuard {
            fn drop(&mut self) {
                let _ = SESSION.try_with(|session| session.borrow_mut().take());
                let _ = HELD_LOCKS.try_with(|held| held.replace(std::mem::take(&mut self.0)));
            }
        }
        let _guard = SessionGuard(HELD_LOCKS.with(RefCell::take));
        let value = program();
        with_state(State::sync); // the root procedure's implicit sync
        let state = SESSION
            .with(|session| session.borrow_mut().take())
            .expect("session still active");
        if let (Some(out), Some(recorded)) = (trace, state.structure) {
            *out = recorded;
        }
        (value, state.sink.to_report(state.suppressed_views))
    }
}

/// One serial session: SP-bags reachability over a plain per-thread map.
struct State {
    bags: SpBags,
    shadow: HashMap<Location, LocState<ProcId>>,
    sink: RaceSink,
    suppressed_views: u64,
    structure: Option<StructureTrace>,
}

impl State {
    fn trace(&mut self, event: StructureEvent) {
        let depth = self.bags.depth() - 1;
        if let Some(trace) = self.structure.as_mut() {
            trace.record(depth, event);
        }
    }

    fn access(&mut self, location: Location, write: bool, site: Option<&'static str>) {
        self.trace(if write {
            StructureEvent::Write(location, site)
        } else {
            StructureEvent::Read(location, site)
        });
        let current = self.bags.current_procedure();
        let history = self.shadow.entry(location).or_default();
        let racers = history.access(&mut self.bags, current, write, held_locks(), site);
        self.sink.push(location, racers, site);
    }

    fn spawn(&mut self) {
        self.trace(StructureEvent::Spawn);
        self.bags.spawn_procedure();
    }

    fn ret(&mut self) {
        self.bags.sync(); // the child's own implicit sync
        self.bags.return_procedure();
        self.trace(StructureEvent::Return);
    }

    fn sync(&mut self) {
        self.trace(StructureEvent::Sync);
        self.bags.sync();
    }
}

thread_local! {
    static SESSION: RefCell<Option<State>> = const { RefCell::new(None) };

    /// Locks held by the strand executing on this thread, sorted and
    /// deduplicated so lock-set snapshots compare as linear merges. One
    /// set serves both sessions: a parallel strand never migrates workers
    /// mid-critical-section, because `cilk::sync::Mutex` guards are held
    /// across no spawn or sync (documented in `docs/cilkscreen.md`).
    static HELD_LOCKS: RefCell<Vec<LockId>> = const { RefCell::new(Vec::new()) };

    /// Reducer-view suppression depth (§5): while positive, shadow-memory
    /// accesses on this thread are not recorded.
    static SUPPRESSED: Cell<usize> = const { Cell::new(0) };
}

// The hooks below use `try_with`: they fire from production code paths —
// lock guards, reducer accesses — which can run while the thread's TLS is
// already being torn down (e.g. a guard held in a TLS destructor) or while
// the thread unwinds from a panic. A destroyed slot means "no session":
// degrade to a no-op, never panic.

/// Runs `f` against this thread's serial session, if one is active.
fn with_session<R>(f: impl FnOnce(&mut State) -> R) -> Option<R> {
    SESSION.try_with(|session| session.borrow_mut().as_mut().map(f)).ok().flatten()
}

/// Runs `f` against the active session's state.
///
/// # Panics
///
/// Panics if no [`Detector::run`] is active on this thread.
fn with_state<R>(f: impl FnOnce(&mut State) -> R) -> R {
    with_session(f).expect("no active cilkscreen session on this thread")
}

/// Whether a serial detector session is active on this thread. This is the
/// `active` predicate of the serial-capture probe consumer.
pub(crate) fn session_active() -> bool {
    SESSION.try_with(|session| session.borrow().is_some()).unwrap_or(false)
}

pub(crate) fn suppression_enter() {
    let _ = SUPPRESSED.try_with(|depth| depth.set(depth.get() + 1));
}

pub(crate) fn suppression_exit() {
    let _ = SUPPRESSED.try_with(|depth| {
        debug_assert!(depth.get() > 0, "unbalanced suppression exit");
        depth.set(depth.get().saturating_sub(1));
    });
}

/// Reports an access to the active session, if any (no-op otherwise).
/// Used by the tracked data types in [`crate::instrument`].
///
/// Dispatch order: a thread-local serial session (SP-bags) claims the
/// access first; otherwise, if the thread carries an SP-order label (it
/// is executing a strand of a parallel monitoring session), the access
/// goes to the concurrent shadow memory ([`crate::shadow`]). The two
/// sessions are mutually exclusive by construction — serial capture
/// forces the elision, so no labeled strand exists during it.
pub(crate) fn record(location: Location, write: bool, site: Option<&'static str>) {
    if SUPPRESSED.try_with(|depth| depth.get() > 0).unwrap_or(false) {
        return;
    }
    if with_session(|state| state.access(location, write, site)).is_none() {
        crate::shadow::record(location, write, site);
    }
}

/// Scheduler hook: the current strand spawned a child procedure that is
/// about to execute (serial elision order). No-op without a session.
pub(crate) fn session_spawn() {
    with_session(State::spawn);
}

/// Scheduler hook: the spawned child returned (with its implicit sync).
pub(crate) fn session_return() {
    with_session(State::ret);
}

/// Scheduler hook: a `cilk_sync` in the current procedure.
pub(crate) fn session_sync() {
    with_session(State::sync);
}

/// Reducer hook: the current strand is entering an access to a reducer
/// view (`cilk-hyper`'s `Reducer::with`, or a view merge). While inside,
/// shadow accesses are suppressed — "the race detector should ignore
/// apparent races due to reducers" (§5) — and the session counts the
/// access so reports can show how much reducer traffic was excused.
pub(crate) fn view_enter() {
    if with_session(|state| state.suppressed_views += 1).is_none() {
        crate::shadow::count_view();
    }
    suppression_enter();
}

/// Adds `lock` to this thread's lock set; false if it was already held.
fn insert_lock(lock: LockId) -> bool {
    HELD_LOCKS
        .try_with(|held| {
            let mut held = held.borrow_mut();
            match held.binary_search(&lock) {
                Ok(_) => false,
                Err(pos) => {
                    held.insert(pos, lock);
                    true
                }
            }
        })
        .unwrap_or(true)
}

/// Lock hook: the current strand acquired `lock` (a real `Mutex`, not the
/// DSL's `with_lock`). Recorded only while a session — serial, or a
/// labeled parallel strand — is active on this thread, and idempotent on
/// re-acquisition: events can arrive both from the probe stream and from
/// the manual instrumentation API.
pub(crate) fn lock_acquired(lock: LockId) {
    if session_active() || probe::sp_session_active() {
        insert_lock(lock);
    }
}

/// Lock hook: the current strand released `lock`. Lenient on unheld locks.
pub(crate) fn lock_released(lock: LockId) {
    let _ = HELD_LOCKS.try_with(|held| {
        let mut held = held.borrow_mut();
        if let Ok(pos) = held.binary_search(&lock) {
            held.remove(pos);
        }
    });
}

/// A snapshot of this thread's lock set, for one access record.
pub(crate) fn held_locks() -> Vec<LockId> {
    HELD_LOCKS.try_with(|held| held.borrow().clone()).unwrap_or_default()
}

/// Handle through which the monitored program performs its actions.
///
/// An `Execution` tracks the serial execution of a Cilk program: `spawn`
/// runs the child immediately (depth-first, as the serial elision would)
/// while recording that the parent's continuation is logically parallel
/// with it until the enclosing `sync`.
pub struct Execution<'a> {
    _marker: std::marker::PhantomData<&'a mut ()>,
}

impl std::fmt::Debug for Execution<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let depth = with_state(|state| state.bags.depth());
        f.debug_struct("Execution").field("depth", &depth).finish_non_exhaustive()
    }
}

impl Execution<'_> {
    fn new() -> Self {
        Execution { _marker: std::marker::PhantomData }
    }

    /// Records a read of `location` by the current strand.
    pub fn read(&mut self, location: Location) {
        with_state(|state| state.access(location, false, None));
    }

    /// Records a labeled read (the label localizes races in reports).
    pub fn read_at(&mut self, location: Location, site: &'static str) {
        with_state(|state| state.access(location, false, Some(site)));
    }

    /// Records a write of `location` by the current strand.
    pub fn write(&mut self, location: Location) {
        with_state(|state| state.access(location, true, None));
    }

    /// Records a labeled write.
    pub fn write_at(&mut self, location: Location, site: &'static str) {
        with_state(|state| state.access(location, true, Some(site)));
    }

    /// Spawns `child` as a Cilk procedure: it executes now (serial order),
    /// but is logically parallel with everything the parent does until the
    /// next [`Execution::sync`]. An implicit sync runs when `child`
    /// returns, like every Cilk function.
    pub fn spawn<F>(&mut self, child: F)
    where
        F: FnOnce(&mut Execution<'_>),
    {
        with_state(State::spawn);
        child(&mut Execution::new());
        with_state(State::ret);
    }

    /// Calls `f` as an ordinary (non-spawned) procedure: serial semantics,
    /// provided for program structure only.
    pub fn call<F>(&mut self, f: F)
    where
        F: FnOnce(&mut Execution<'_>),
    {
        f(&mut Execution::new());
    }

    /// Executes a `cilk_sync`: all outstanding spawned children of the
    /// current procedure become serial with what follows.
    pub fn sync(&mut self) {
        with_state(State::sync);
    }

    /// Runs `body` while holding `lock`; logically parallel accesses that
    /// share a common lock are *not* races (§4's definition).
    ///
    /// # Panics
    ///
    /// Panics on recursive acquisition of the same lock.
    pub fn with_lock<F>(&mut self, lock: LockId, body: F)
    where
        F: FnOnce(&mut Execution<'_>),
    {
        assert!(insert_lock(lock), "lock {lock:?} is already held (recursive locking)");
        body(&mut Execution::new());
        lock_released(lock);
    }

    /// Emulates `cilk_for i in 0..n`: a balanced divide-and-conquer spawn
    /// tree over the iteration space (§2), with an implicit sync at the
    /// end of the loop.
    pub fn par_for<F>(&mut self, n: usize, body: F)
    where
        F: FnMut(&mut Execution<'_>, usize),
    {
        if n == 0 {
            return;
        }
        let mut body = body;
        self.par_for_rec(0, n, &mut body);
        self.sync();
    }

    fn par_for_rec<F>(&mut self, lo: usize, hi: usize, body: &mut F)
    where
        F: FnMut(&mut Execution<'_>, usize),
    {
        if hi - lo == 1 {
            self.spawn(|exec| body(exec, lo));
            return;
        }
        let mid = lo + (hi - lo) / 2;
        self.spawn(|exec| exec.par_for_rec(lo, mid, body));
        self.par_for_rec(mid, hi, body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::RaceKind;

    #[test]
    fn race_free_serial_program() {
        let loc = Location(1);
        let report = Detector::new().run(|e| {
            e.write(loc);
            e.read(loc);
            e.write(loc);
        });
        assert!(report.is_race_free());
    }

    #[test]
    fn spawn_then_parent_write_races() {
        let loc = Location(1);
        let report = Detector::new().run(|e| {
            e.spawn(|e| e.write_at(loc, "child"));
            e.write_at(loc, "parent");
            e.sync();
        });
        assert_eq!(report.races.len(), 1);
        assert_eq!(report.races[0].kind, RaceKind::WriteWrite);
        assert_eq!(report.races[0].first_site, Some("child"));
        assert_eq!(report.races[0].second_site, Some("parent"));
    }

    #[test]
    fn sync_removes_race() {
        let loc = Location(1);
        let report = Detector::new().run(|e| {
            e.spawn(|e| e.write(loc));
            e.sync();
            e.write(loc);
        });
        assert!(report.is_race_free());
    }

    #[test]
    fn read_read_is_not_a_race() {
        let loc = Location(1);
        let report = Detector::new().run(|e| {
            e.spawn(|e| e.read(loc));
            e.read(loc);
            e.sync();
        });
        assert!(report.is_race_free());
    }

    #[test]
    fn write_then_parallel_read_races() {
        let loc = Location(1);
        let report = Detector::new().run(|e| {
            e.spawn(|e| e.write(loc));
            e.read(loc);
            e.sync();
        });
        assert_eq!(report.races.len(), 1);
        assert_eq!(report.races[0].kind, RaceKind::WriteRead);
    }

    #[test]
    fn read_then_parallel_write_races() {
        let loc = Location(1);
        let report = Detector::new().run(|e| {
            e.spawn(|e| e.read_at(loc, "reader"));
            e.write_at(loc, "writer");
            e.sync();
        });
        assert_eq!(report.races.len(), 1);
        // Canonical form: observation order (read seen first) is erased,
        // so the race renders as write/read with the writer first.
        assert_eq!(report.races[0].kind, RaceKind::WriteRead);
        assert_eq!(report.races[0].first_site, Some("writer"));
        assert_eq!(report.races[0].second_site, Some("reader"));
    }

    #[test]
    fn common_lock_suppresses_race() {
        let loc = Location(1);
        let lock = LockId(9);
        let report = Detector::new().run(|e| {
            e.spawn(|e| e.with_lock(lock, |e| e.write(loc)));
            e.with_lock(lock, |e| e.write(loc));
            e.sync();
        });
        assert!(report.is_race_free(), "common lock means no race");
    }

    #[test]
    fn different_locks_still_race() {
        let loc = Location(1);
        let report = Detector::new().run(|e| {
            e.spawn(|e| e.with_lock(LockId(1), |e| e.write(loc)));
            e.with_lock(LockId(2), |e| e.write(loc));
            e.sync();
        });
        assert_eq!(report.races.len(), 1);
    }

    #[test]
    fn siblings_race_without_sync_between() {
        let loc = Location(1);
        let report = Detector::new().run(|e| {
            e.spawn(|e| e.write(loc));
            e.spawn(|e| e.write(loc));
            e.sync();
        });
        assert_eq!(report.races.len(), 1);
    }

    #[test]
    fn siblings_separated_by_sync_do_not_race() {
        let loc = Location(1);
        let report = Detector::new().run(|e| {
            e.spawn(|e| e.write(loc));
            e.sync();
            e.spawn(|e| e.write(loc));
            e.sync();
        });
        assert!(report.is_race_free());
    }

    #[test]
    fn par_for_disjoint_indices_race_free() {
        let locs: Vec<Location> = (0..16).map(Location).collect();
        let report = Detector::new().run(|e| {
            e.par_for(16, |e, i| e.write(locs[i]));
        });
        assert!(report.is_race_free());
    }

    #[test]
    fn par_for_shared_accumulator_races() {
        let shared = Location(99);
        let report = Detector::new().run(|e| {
            e.par_for(8, |e, _| {
                e.read(shared);
                e.write(shared);
            });
        });
        assert!(!report.is_race_free());
    }

    #[test]
    fn dedup_limits_reports() {
        let loc = Location(1);
        let report = Detector::new().run(|e| {
            e.par_for(32, |e, _| e.write(loc));
        });
        assert_eq!(report.races.len(), 1, "deduped to one per (loc, kind)");
    }

    #[test]
    fn child_and_grandchild_vs_continuation() {
        // Grandchild synced inside the child must still race with the
        // parent's continuation.
        let loc = Location(7);
        let report = Detector::new().run(|e| {
            e.spawn(|e| {
                e.spawn(|e| e.write(loc));
                e.sync();
            });
            e.write(loc);
            e.sync();
        });
        assert_eq!(report.races.len(), 1);
    }

    #[test]
    fn implicit_sync_on_child_return() {
        // Inside the child, a spawned grandchild followed by a child-local
        // access must be covered by the child's implicit sync: the parent's
        // access AFTER the enclosing sync is serial with everything.
        let loc = Location(3);
        let report = Detector::new().run(|e| {
            e.spawn(|e| {
                e.spawn(|e| e.write(loc));
                // no explicit sync: implicit one runs at return
            });
            e.sync();
            e.write(loc);
        });
        assert!(report.is_race_free());
    }

    #[test]
    fn run_traced_records_structure() {
        let loc = Location(5);
        let (report, trace) = Detector::new().run_traced(|e| {
            e.spawn(|e| e.write_at(loc, "child"));
            e.write_at(loc, "parent");
            e.sync();
        });
        assert!(!report.is_race_free());
        assert_eq!(trace.spawn_count(), 1);
        // One explicit sync plus the root's implicit sync at run() exit.
        assert_eq!(trace.sync_count(), 2);
        assert_eq!(trace.max_depth(), 1);
        let text = trace.to_string();
        assert!(text.contains("spawn {"), "{text}");
        assert!(text.contains("write 0x5 @ child"), "{text}");
    }

    #[test]
    fn plain_run_records_nothing() {
        // A plain run records no trace; exercised via run().
        let report = Detector::new().run(|e| {
            e.spawn(|e| e.write(Location(1)));
            e.sync();
        });
        assert!(report.is_race_free());
    }

    #[test]
    #[should_panic(expected = "recursive locking")]
    fn recursive_lock_panics() {
        let _ = Detector::new().run(|e| {
            e.with_lock(LockId(1), |e| {
                e.with_lock(LockId(1), |_| {});
            });
        });
    }

    #[test]
    fn lock_set_is_sorted_idempotent_and_per_session() {
        lock_acquired(LockId(5));
        assert!(held_locks().is_empty(), "no session: nothing recorded");
        let _ = Detector::new().run(|_| {
            lock_acquired(LockId(9));
            lock_acquired(LockId(3));
            lock_acquired(LockId(9));
            assert_eq!(held_locks(), vec![LockId(3), LockId(9)]);
            lock_released(LockId(3));
            lock_released(LockId(3));
            assert_eq!(held_locks(), vec![LockId(9)]);
        });
        assert!(held_locks().is_empty(), "a session's locks end with it");
    }
}
