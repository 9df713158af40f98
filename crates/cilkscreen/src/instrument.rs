//! Instrumentation of **real** platform code: the layer that lets the
//! detector monitor genuine `cilk-runtime` executions rather than programs
//! hand-written against the [`crate::Execution`] DSL.
//!
//! The real Cilkscreen "uses dynamic instrumentation to intercept every
//! load and store executed at user level" and runs the program serially
//! under its own scheduler (§4). This module assembles the Rust
//! equivalent from the platform's unified probe layer
//! ([`cilk_runtime::probe`]) plus self-reporting shadow data:
//!
//! * **Structure** — [`run_monitored`] registers the detector as a
//!   *serial-capture* probe consumer. While a session is active on the
//!   current thread, every `join`/`scope`/`cilk_for` runs as its serial
//!   elision *inline*, emitting the pedigree-stamped
//!   `SpawnBegin`/`SpawnEnd`/`Sync` events the SP-bags algorithm
//!   consumes. The program under test is unmodified production code, and
//!   because probe consumers compose, a Cilkscreen session coexists with
//!   metrics, fault logging, or a Cilkview profile of the same process.
//! * **Memory** — loads and stores cannot be intercepted at the binary
//!   level in safe Rust, so tracked data ([`Shadow`], [`ShadowSlice`])
//!   reports its own accesses to whichever session is active: a
//!   [`Detector::run`] replay, [`run_monitored`] or
//!   [`run_monitored_parallel`]. The containers are `Sync`, so real
//!   (potentially parallel) runtime closures can capture them.
//! * **Suppression** — `cilk::sync::Mutex` emits `LockAcquired`/
//!   `LockReleased` probe events feeding the ALL-SETS lockset logic
//!   (custom locks can call [`lock_acquired`]/[`lock_released`]
//!   directly), and `cilk-hyper` brackets every reducer-view access with
//!   `ViewAccessBegin`/`ViewAccessEnd` events so the detector "ignore[s]
//!   apparent races due to reducers" (§5).
//! * **Parallel mode** — [`run_monitored_parallel`] monitors a **real
//!   multi-worker execution** on a caller-supplied pool: no serial
//!   elision, work stealing and all. Structure comes from SP-order
//!   labels ([`crate::sporder`]) the runtime attaches to every strand,
//!   and accesses land in a sharded concurrent shadow memory instead of
//!   the per-thread session. See `docs/cilkscreen.md` for the guarantees
//!   relative to serial capture.
//!
//! # Example
//!
//! ```
//! use cilkscreen::instrument::{self, Shadow};
//!
//! let cell = Shadow::new(0u32);
//! let ((), report) = instrument::run_monitored(|| {
//!     // Real runtime join — under monitoring it runs serially, and the
//!     // two logically parallel writes are detected.
//!     cilk_runtime::join(|| cell.set(1), || cell.set(2));
//! });
//! assert!(!report.is_race_free());
//! assert_eq!(cell.get(), 2); // serial elision: right branch ran last
//! ```

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use cilk_runtime::probe::{self, EventMask, Probe, ProbeEvent, ProbeHandle};

use crate::detector;
use crate::report::{Location, LockId, Report};
use crate::shadow;
use crate::Detector;

/// The detector as a probe consumer, registered once per session kind.
/// Both map reducer-view and lock events onto the same per-thread hooks.
/// The serial one (`serial: true`) makes monitored constructs run as their
/// serial elision on session threads and feeds their structure events to
/// SP-bags. The parallel one leaves spawning constructs their real
/// parallel semantics and is active exactly on threads executing an
/// SP-labeled strand; structure travels in the labels themselves.
struct ScreenProbe {
    serial: bool,
}

impl Probe for ScreenProbe {
    fn mask(&self) -> EventMask {
        let strand = if self.serial { EventMask::STRAND } else { EventMask::NONE };
        strand | EventMask::VIEW | EventMask::LOCK
    }

    fn serial_capture(&self) -> bool {
        self.serial
    }

    fn active(&self) -> bool {
        if self.serial {
            detector::session_active()
        } else {
            probe::sp_session_active()
        }
    }

    fn on_event(&self, event: &ProbeEvent) {
        match *event {
            ProbeEvent::SpawnBegin { .. } => detector::session_spawn(),
            ProbeEvent::SpawnEnd { .. } => detector::session_return(),
            ProbeEvent::Sync { .. } => detector::session_sync(),
            ProbeEvent::ViewAccessBegin { .. } => detector::view_enter(),
            ProbeEvent::ViewAccessEnd { .. } => detector::suppression_exit(),
            ProbeEvent::LockAcquired { lock } => detector::lock_acquired(LockId(lock)),
            ProbeEvent::LockReleased { lock } => detector::lock_released(LockId(lock)),
            _ => {}
        }
    }
}

/// The process-wide registrations of the two consumers, indexed by
/// `serial` (each is inert on threads without its session, so it is
/// registered once and kept).
static PROBES: [OnceLock<ProbeHandle>; 2] = [OnceLock::new(), OnceLock::new()];

/// Registers the consumer for one session kind (idempotent).
fn install_hooks(serial: bool) {
    PROBES[serial as usize].get_or_init(|| probe::register(Arc::new(ScreenProbe { serial })));
}

/// Runs real platform code under the race detector and returns its value
/// together with the race [`Report`].
///
/// Installs the runtime/reducer hooks (once per process), opens a detector
/// session on the current thread, and executes `program` — which runs as
/// its *serial elision*: every `cilk_runtime::join`/`scope`/parallel-for
/// inside executes depth-first on this thread while reporting its
/// series-parallel structure. Accesses through [`Shadow`]/[`ShadowSlice`]
/// are checked against that structure; `cilk::sync::Mutex` critical
/// sections and reducer views suppress per §4/§5.
///
/// May be called from a worker of a [`cilk_runtime::ThreadPool`] (e.g.
/// inside `pool.install`) — monitoring is per-thread and the session never
/// migrates, since every monitored construct runs inline.
pub fn run_monitored<F, R>(program: F) -> (R, Report)
where
    F: FnOnce() -> R,
{
    install_hooks(true);
    // Strand stamps replay identically across repeated sessions.
    probe::pedigree_reset();
    Detector::new().monitor(program)
}

/// Runs real platform code under the **parallel** race detector: the
/// program executes on `pool` with genuine multi-worker scheduling — no
/// serial elision — while every strand carries an SP-order label pair
/// ([`crate::sporder`]) and every tracked access is checked against a
/// sharded concurrent shadow memory.
///
/// The race set is a function of the computation dag, so after
/// normalization the report equals the serial oracle's
/// ([`run_monitored`]) on the same program and input, at any worker
/// count — the cross-validation suite (`tests/parallel_screen.rs`)
/// asserts exactly that. One parallel session runs at a time
/// process-wide; concurrent calls queue.
///
/// Tracked containers stay physically sound during genuinely racy
/// executions: their accesses serialize through per-container stripe
/// locks while a labeling session is active, which linearizes the
/// *memory operations* without affecting the *logical* race decision
/// (labels, not interleavings, decide).
pub fn run_monitored_parallel<F, R>(pool: &cilk_runtime::ThreadPool, program: F) -> (R, Report)
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    install_hooks(false);
    let session = shadow::ParSession::begin();
    let value = pool.install(|| probe::with_sp_root(program));
    (value, session.finish())
}

/// Whether the current thread is inside a monitored session.
pub fn is_monitoring() -> bool {
    detector::session_active()
}

/// Suppresses shadow-memory reporting for the duration of `f` on this
/// thread (nestable). This is the primitive behind reducer-view
/// suppression; it is public so user code can excuse accesses it knows to
/// be race-free by construction (at its own risk — suppressed races are
/// not reported).
pub fn suppress<R>(f: impl FnOnce() -> R) -> R {
    detector::suppression_enter();
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            detector::suppression_exit();
        }
    }
    let _guard = Guard;
    f()
}

/// Reports that the current strand acquired `lock`. `cilk::sync::Mutex`
/// reports through probe events; custom lock types can call this. Feeds
/// the thread's lock set while a serial session or a labeled parallel
/// strand is active on it (idempotent on re-entry, so a lock that both
/// emits probe events and calls this directly stays consistent). No-op
/// otherwise.
pub fn lock_acquired(lock: LockId) {
    detector::lock_acquired(lock);
}

/// Reports that the current strand released `lock` (see [`lock_acquired`]).
pub fn lock_released(lock: LockId) {
    detector::lock_released(lock);
}

static NEXT_CONTAINER: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh logical container id: the high 32 bits of every
/// location the container reports, so two containers never alias.
fn fresh_base() -> u64 {
    NEXT_CONTAINER.fetch_add(1, Ordering::Relaxed) << 32
}

/// The low 32 bits of a location: the element index within its container.
const INDEX_MASK: u64 = 0xFFFF_FFFF;

/// A tracked memory cell usable from real runtime closures.
///
/// Every access reports to the active detector session, and the value
/// lives in an [`UnsafeCell`] so shared references can be captured by the
/// `Send` closures of `cilk_runtime::join`/`scope`. A `Shadow<Vec<T>>`
/// updated through [`Shadow::update`] is a tracked shared list: two
/// logically parallel pushes race (the bug of the paper's Fig. 5).
///
/// # Safety model
///
/// `Shadow` performs **no synchronization in its own right** — that is
/// the point: it holds the program's racy (or race-free) data exactly as
/// a plain variable would in Cilk++. Under [`run_monitored`] every
/// strand executes serially on one thread, so even racy programs execute
/// soundly *while being diagnosed*. Under [`run_monitored_parallel`] the
/// racy program really runs on several workers; there each physical
/// access additionally takes a per-container stripe lock (engaged only
/// on labeled strands), so the *tool* never commits undefined behavior
/// while observing a logical race — the race is still reported, because
/// detection compares SP-order labels, not interleavings. Outside any
/// monitored session, concurrent conflicting access from several threads
/// is a genuine data race — the very bug class this crate exists to find
/// before it ships; callers get safety there from the same discipline
/// (locks, disjointness, reducers) the detector verifies.
#[derive(Debug)]
pub struct Shadow<T> {
    base: u64,
    site: Option<&'static str>,
    value: UnsafeCell<T>,
}

// SAFETY: see the "Safety model" section above — accesses are serialized
// by the monitored session's serial elision; unmonitored multi-threaded
// use is subject to the usual data-race discipline the detector checks.
unsafe impl<T: Send> Sync for Shadow<T> {}

impl<T> Shadow<T> {
    /// Creates a tracked cell holding `value`, at a fresh logical location.
    pub fn new(value: T) -> Self {
        Shadow { base: fresh_base(), site: None, value: UnsafeCell::new(value) }
    }

    /// Creates a tracked cell whose accesses are labeled `site` in race
    /// reports.
    pub fn named(value: T, site: &'static str) -> Self {
        Shadow { base: fresh_base(), site: Some(site), value: UnsafeCell::new(value) }
    }

    /// The cell's logical location (stable for the cell's lifetime and
    /// never aliased with another tracked container).
    pub fn location(&self) -> Location {
        Location(self.base)
    }

    /// Reads the value (reported as a read).
    pub fn get(&self) -> T
    where
        T: Copy,
    {
        detector::record(self.location(), false, self.site);
        // SAFETY: see the type-level safety model.
        shadow::with_cell_lock(self.base, || unsafe { *self.value.get() })
    }

    /// Replaces the value (reported as a write).
    pub fn set(&self, value: T) {
        detector::record(self.location(), true, self.site);
        // SAFETY: see the type-level safety model.
        shadow::with_cell_lock(self.base, || unsafe { *self.value.get() = value })
    }

    /// Applies `f` to a shared borrow (reported as a read).
    pub fn read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        detector::record(self.location(), false, self.site);
        // SAFETY: see the type-level safety model.
        shadow::with_cell_lock(self.base, || f(unsafe { &*self.value.get() }))
    }

    /// Read-modify-write through `f` (reported as a read then a write,
    /// physically atomic under parallel monitoring).
    pub fn update<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        detector::record(self.location(), false, self.site);
        detector::record(self.location(), true, self.site);
        // SAFETY: see the type-level safety model.
        shadow::with_cell_lock(self.base, || f(unsafe { &mut *self.value.get() }))
    }

    /// Exclusive access through the borrow checker (unreported: `&mut self`
    /// proves no concurrent access exists).
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }

    /// Consumes the cell, returning its value (unreported).
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

impl<T: Default> Default for Shadow<T> {
    fn default() -> Self {
        Shadow::new(T::default())
    }
}

/// A tracked fixed-length slice usable from real runtime closures, for
/// array workloads (sorting, matrices) running on the real runtime.
///
/// Element accesses report per-index logical locations, so disjoint
/// parallel index ranges are race-free while overlapping ones (the §4
/// quicksort mutation) are caught. The safety model is that of [`Shadow`].
#[derive(Debug)]
pub struct ShadowSlice<T> {
    base: u64,
    site: Option<&'static str>,
    len: usize,
    items: UnsafeCell<Box<[T]>>,
}

// SAFETY: identical model to `Shadow` (see above).
unsafe impl<T: Send> Sync for ShadowSlice<T> {}

impl<T> ShadowSlice<T> {
    /// Creates a tracked slice from `items`, at a fresh logical base.
    pub fn from_vec(items: Vec<T>) -> Self {
        let items = items.into_boxed_slice();
        assert!((items.len() as u64) < INDEX_MASK, "slice too large to track");
        ShadowSlice {
            base: fresh_base(),
            site: None,
            len: items.len(),
            items: UnsafeCell::new(items),
        }
    }

    /// Like [`ShadowSlice::from_vec`], labeling accesses `site` in reports.
    pub fn named(items: Vec<T>, site: &'static str) -> Self {
        let mut slice = Self::from_vec(items);
        slice.site = Some(site);
        slice
    }

    /// Number of elements (fixed at construction; unreported, since the
    /// length is immutable and hence race-free).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The logical location of element `index`.
    pub fn location_of(&self, index: usize) -> Location {
        assert!(index < self.len, "index {index} out of bounds ({})", self.len);
        Location(self.base | index as u64)
    }

    /// If `location` belongs to this slice, the element index it names.
    pub fn index_of(&self, location: Location) -> Option<usize> {
        let (base, index) = (location.0 & !INDEX_MASK, location.0 & INDEX_MASK);
        (base == self.base && (index as usize) < self.len).then_some(index as usize)
    }

    /// Reads element `index` (reported).
    pub fn get(&self, index: usize) -> T
    where
        T: Copy,
    {
        detector::record(self.location_of(index), false, self.site);
        // SAFETY: see `Shadow`'s safety model; index checked by location_of.
        shadow::with_cell_lock(self.base, || unsafe { (*self.items.get())[index] })
    }

    /// Writes element `index` (reported).
    pub fn set(&self, index: usize, value: T) {
        detector::record(self.location_of(index), true, self.site);
        // SAFETY: see `Shadow`'s safety model; index checked by location_of.
        shadow::with_cell_lock(self.base, || unsafe { (*self.items.get())[index] = value })
    }

    /// Swaps elements `a` and `b` (reported as reads and writes of both;
    /// one stripe lock covers the whole exchange under parallel
    /// monitoring — both elements live in this container).
    pub fn swap(&self, a: usize, b: usize) {
        detector::record(self.location_of(a), false, self.site);
        detector::record(self.location_of(b), false, self.site);
        detector::record(self.location_of(a), true, self.site);
        detector::record(self.location_of(b), true, self.site);
        // SAFETY: see `Shadow`'s safety model; indices checked above.
        shadow::with_cell_lock(self.base, || unsafe { (*self.items.get()).swap(a, b) })
    }

    /// Consumes the wrapper, returning the elements (unreported).
    pub fn into_vec(self) -> Vec<T> {
        self.items.into_inner().into_vec()
    }
}

impl<T> FromIterator<T> for ShadowSlice<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        ShadowSlice::from_vec(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_works_outside_session() {
        let mut c = Shadow::new(5u32);
        c.set(6);
        assert_eq!(c.get(), 6);
        c.update(|v| *v += 1);
        assert_eq!(*c.get_mut(), 7);
        assert_eq!(c.into_inner(), 7);
    }

    #[test]
    fn real_join_race_is_detected() {
        let cell = Shadow::named(0u32, "cell");
        let ((), report) = run_monitored(|| {
            cilk_runtime::join(|| cell.set(1), || cell.set(2));
        });
        assert_eq!(report.races.len(), 1, "{report}");
        assert_eq!(report.races[0].first_site, Some("cell"));
        assert_eq!(cell.get(), 2, "serial elision order");
    }

    #[test]
    fn real_join_disjoint_writes_race_free() {
        let slice: ShadowSlice<u32> = (0..8).collect();
        let ((), report) = run_monitored(|| {
            cilk_runtime::join(
                || (0..4).for_each(|i| slice.set(i, 0)),
                || (4..8).for_each(|i| slice.set(i, 0)),
            );
        });
        assert!(report.is_race_free(), "{report}");
    }

    #[test]
    fn real_scope_spawns_race_with_continuation() {
        let cell = Shadow::new(0u64);
        let ((), report) = run_monitored(|| {
            cilk_runtime::scope(|s| {
                s.spawn(|_| cell.set(1));
                cell.set(2);
            });
        });
        assert!(!report.is_race_free());
    }

    #[test]
    fn real_sync_serializes() {
        // join-then-access: the second access is after the join's sync.
        let cell = Shadow::new(0u64);
        let ((), report) = run_monitored(|| {
            cilk_runtime::join(|| cell.set(1), || ());
            cell.set(2);
        });
        assert!(report.is_race_free(), "{report}");
    }

    #[test]
    fn real_parallel_for_disjoint_race_free_shared_racy() {
        let slice: ShadowSlice<u64> = (0..32).collect();
        let ((), report) = run_monitored(|| {
            cilk_runtime::for_each_index(0..32, cilk_runtime::Grain::Explicit(4), |i| {
                slice.set(i, i as u64 * 2);
            });
        });
        assert!(report.is_race_free(), "{report}");

        let shared = Shadow::new(0u64);
        let ((), report) = run_monitored(|| {
            cilk_runtime::for_each_index(0..32, cilk_runtime::Grain::Explicit(4), |_| {
                shared.update(|v| *v += 1);
            });
        });
        assert!(!report.is_race_free());
        assert_eq!(shared.get(), 32, "serial elision still computes the sum");
    }

    #[test]
    fn suppress_excuses_accesses() {
        let cell = Shadow::new(0u32);
        let ((), report) = run_monitored(|| {
            cilk_runtime::join(|| suppress(|| cell.set(1)), || suppress(|| cell.set(2)));
        });
        assert!(report.is_race_free(), "{report}");
    }

    #[test]
    fn reducer_views_are_suppressed() {
        // A reducer updated from both branches of a real join: the view
        // protocol's internal accesses must be excused (§5) and counted.
        let sum = cilk_hyper::ReducerSum::<u64>::sum();
        let (total, report) = run_monitored(|| {
            cilk_hyper::join(|| sum.add(1), || sum.add(2));
            sum.take()
        });
        assert_eq!(total, 3);
        assert!(report.is_race_free(), "{report}");
        assert!(report.suppressed_views >= 2, "views counted: {report:?}");
    }

    #[test]
    fn shadow_access_inside_reducer_view_is_suppressed() {
        // The §5 contract: everything inside a view access is excused,
        // including tracked data touched from the update closure.
        let cell = Shadow::new(0u32);
        let sum = cilk_hyper::ReducerSum::<u64>::sum();
        let ((), report) = run_monitored(|| {
            cilk_hyper::join(
                || sum.with(|v| {
                    *v += 1;
                    cell.set(1);
                }),
                || sum.with(|v| {
                    *v += 1;
                    cell.set(2);
                }),
            );
        });
        assert!(report.is_race_free(), "{report}");
    }

    #[test]
    fn lock_events_feed_locksets() {
        let cell = Shadow::new(0u32);
        let lock = LockId(0xbeef);
        let ((), report) = run_monitored(|| {
            cilk_runtime::join(
                || {
                    lock_acquired(lock);
                    cell.update(|v| *v += 1);
                    lock_released(lock);
                },
                || {
                    lock_acquired(lock);
                    cell.update(|v| *v += 1);
                    lock_released(lock);
                },
            );
        });
        assert!(report.is_race_free(), "common lock: {report}");
    }

    #[test]
    fn monitored_value_round_trips() {
        let slice: ShadowSlice<u32> = (0..4).collect();
        let (sum, report) = run_monitored(|| {
            let (a, b) = cilk_runtime::join(
                || slice.get(0) + slice.get(1),
                || slice.get(2) + slice.get(3),
            );
            a + b
        });
        assert_eq!(sum, 6);
        assert!(report.is_race_free());
    }

    #[test]
    fn parallel_pushes_to_a_shared_vec_race_like_fig5() {
        let list = Shadow::named(Vec::new(), "list");
        let ((), report) = run_monitored(|| {
            cilk_runtime::join(|| list.update(|l| l.push(1)), || list.update(|l| l.push(2)));
        });
        assert_eq!(report.race_locations(), vec![list.location()], "{report}");
        // A length read parallel with a push races too.
        let ((), report) = run_monitored(|| {
            cilk_runtime::join(|| list.update(|l| l.push(3)), || list.read(Vec::len));
        });
        assert!(!report.is_race_free());
        assert_eq!(list.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn shadow_reports_to_a_dsl_session() {
        let cell = Shadow::new(0u32);
        let racy = Detector::new().run(|e| {
            e.spawn(|_| cell.update(|v| *v += 1));
            cell.update(|v| *v += 1);
            e.sync();
        });
        assert!(!racy.is_race_free());
        let synced = Detector::new().run(|e| {
            e.spawn(|_| cell.update(|v| *v += 1));
            e.sync();
            cell.update(|v| *v += 1);
        });
        assert!(synced.is_race_free(), "{synced}");
        assert_eq!(cell.get(), 4);
    }

    #[test]
    fn swap_reports_both_elements() {
        let slice: ShadowSlice<u32> = (0..4).collect();
        let ((), report) = run_monitored(|| {
            cilk_runtime::join(|| slice.swap(0, 1), || slice.set(1, 9));
        });
        assert_eq!(report.race_locations(), vec![slice.location_of(1)], "{report}");
    }

    #[test]
    fn monitoring_flag_tracks_session() {
        assert!(!is_monitoring());
        let (flag, _report) = run_monitored(is_monitoring);
        assert!(flag);
        assert!(!is_monitoring());
    }

    #[test]
    fn shadow_slice_index_round_trip() {
        let slice: ShadowSlice<u8> = (0..10).collect();
        let loc = slice.location_of(7);
        assert_eq!(slice.index_of(loc), Some(7));
        let other: ShadowSlice<u8> = (0..10).collect();
        assert_eq!(other.index_of(loc), None, "locations never alias");
    }
}
