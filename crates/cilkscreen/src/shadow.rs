//! Concurrent shadow memory: the parallel monitor's session.
//!
//! The access history itself ([`crate::history`]) is shared with the
//! serial detector; this module is what makes it safe for **real
//! multi-worker executions**:
//!
//! * the location map is sharded by location hash, each shard a
//!   `Mutex<HashMap<Location, LocState>>`, so strands on different
//!   workers only contend when they touch locations that hash together;
//! * each recorded access carries the strand's SP-order label
//!   ([`cilk_runtime::probe::SpLabel`]) instead of an SP-bags procedure
//!   id — "logically parallel" is decided by comparing label pairs, a
//!   schedule-independent question two workers can ask concurrently;
//! * the check-then-insert of an access runs entirely under its shard
//!   lock, so two racing strands cannot both miss each other's entry:
//!   whichever gets the lock second sees the first and reports;
//! * race reports funnel into one mutex-protected sink.
//!
//! One session at a time, process-wide (the serial detector's session is
//! per-thread): [`ParSession::begin`] takes a global exclusivity lock so
//! concurrent monitored runs queue instead of interleaving histories.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use cilk_runtime::probe::{self, SpLabel};

use crate::detector::held_locks;
use crate::history::{LocState, RaceSink, SpOrder};
use crate::report::{Location, LockId, Report};

/// Shard count for the access-history map. Power of two; 64 shards keep
/// contention negligible at the worker counts this runtime targets (≤ a
/// few dozen) without bloating an idle session.
const SHARDS: usize = 64;

/// State of one parallel monitoring session.
#[derive(Debug)]
struct ParState {
    shards: Vec<Mutex<HashMap<Location, LocState<SpLabel>>>>,
    sink: Mutex<RaceSink>,
    suppressed_views: AtomicU64,
}

/// Multiplicative location hash → shard index. Locations from one shadow
/// container share their high base bits and differ in the low index bits,
/// so a plain modulo would pile a whole slice into one shard.
fn shard_of(location: Location) -> usize {
    (location.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % SHARDS
}

/// Recovers a mutex guard from a poisoned lock: the shadow map holds no
/// invariant a panicked strand could have half-applied (every mutation
/// completes under the guard), and monitoring must outlive a panicking
/// monitored program to report what it saw.
fn recover<'a, T>(
    result: Result<MutexGuard<'a, T>, std::sync::PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    result.unwrap_or_else(|e| e.into_inner())
}

impl ParState {
    fn new() -> ParState {
        ParState {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            sink: Mutex::new(RaceSink::default()),
            suppressed_views: AtomicU64::new(0),
        }
    }

    /// Checks and records one access by the strand labeled `label`. The
    /// sink is locked only when the access found a race.
    fn access(
        &self,
        location: Location,
        write: bool,
        label: SpLabel,
        locks: Vec<LockId>,
        site: Option<&'static str>,
    ) {
        let racers = recover(self.shards[shard_of(location)].lock())
            .entry(location)
            .or_default()
            .access(&mut SpOrder, label, write, locks, site);
        if racers.iter().any(Option::is_some) {
            recover(self.sink.lock()).push(location, racers, site);
        }
    }

    fn collect_report(&self) -> Report {
        recover(self.sink.lock()).to_report(self.suppressed_views.load(Ordering::Relaxed))
    }
}

/// The active parallel session, read by every worker on the probe path.
/// `RwLock`, not `Mutex`: record hooks only ever read, so steady-state
/// monitoring takes no exclusive lock here.
static PAR_SESSION: RwLock<Option<Arc<ParState>>> = RwLock::new(None);

/// Serializes whole sessions: two concurrent `run_monitored_parallel`
/// calls (e.g. parallel test threads) must not share one access history.
static PAR_EXCLUSIVE: Mutex<()> = Mutex::new(());

/// Runs `f` against the installed parallel session, if any.
fn with_session<R>(f: impl FnOnce(&ParState) -> R) -> Option<R> {
    PAR_SESSION.read().ok()?.as_deref().map(f)
}

/// RAII handle for one parallel monitoring session: construction
/// installs the concurrent shadow state process-wide (queueing behind
/// any session already running), drop uninstalls it.
pub(crate) struct ParSession {
    state: Arc<ParState>,
    _exclusive: MutexGuard<'static, ()>,
}

impl ParSession {
    /// Begins a session, blocking until any other parallel session ends.
    pub(crate) fn begin() -> ParSession {
        let exclusive = PAR_EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
        let state = Arc::new(ParState::new());
        *PAR_SESSION.write().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&state));
        ParSession { state, _exclusive: exclusive }
    }

    /// Ends the session and returns its normalized report.
    pub(crate) fn finish(self) -> Report {
        let report = self.state.collect_report();
        drop(self); // uninstalls the session
        report
    }
}

impl Drop for ParSession {
    fn drop(&mut self) {
        *PAR_SESSION.write().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

/// Counts one suppressed reducer-view access against the parallel session.
pub(crate) fn count_view() {
    with_session(|state| state.suppressed_views.fetch_add(1, Ordering::Relaxed));
}

/// Records an access against the parallel session. No-op unless the
/// current thread is executing a labeled strand (one thread-local read
/// when it is not) and a session is installed.
pub(crate) fn record(location: Location, write: bool, site: Option<&'static str>) {
    let Some(label) = probe::current_sp_label() else { return };
    with_session(|state| state.access(location, write, label, held_locks(), site));
}

/// Striped physical-access locks for the tracked containers.
///
/// Under parallel monitoring, the interesting workloads *really race*:
/// two workers touch the same `Shadow` cell concurrently. The logical
/// race is exactly what the detector reports — but the physical accesses
/// go through an `UnsafeCell`, and letting them overlap would be
/// undefined behavior in the monitoring *tool* itself. Each container
/// access therefore takes a stripe lock keyed on the container's base
/// while a labeling session is active: physical accesses serialize (the
/// tool stays sound), logical races are still detected, because
/// detection compares SP-order labels, never wall-clock interleavings.
/// When no session is active this is one thread-local read.
static CELL_STRIPES: [Mutex<()>; 64] = [const { Mutex::new(()) }; 64];

/// Runs `f` under the stripe lock for container `base` when the current
/// thread executes a labeled strand; plain call otherwise.
pub(crate) fn with_cell_lock<R>(base: u64, f: impl FnOnce() -> R) -> R {
    if !probe::sp_session_active() {
        return f();
    }
    let stripe = &CELL_STRIPES[(base.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % 64];
    let _guard = stripe.lock().unwrap_or_else(|e| e.into_inner());
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::RaceKind;

    /// Labels for "child parallel with continuation" without running a
    /// pool: root forks once inside an sp root.
    fn forked_labels() -> (SpLabel, SpLabel) {
        probe::with_sp_root(|| {
            cilk_runtime::join(
                || probe::current_sp_label().expect("child"),
                || probe::current_sp_label().expect("cont"),
            )
        })
    }

    #[test]
    fn concurrent_history_reports_parallel_write_write() {
        let (child, cont) = forked_labels();
        let state = ParState::new();
        let loc = Location(0x10);
        state.access(loc, true, child, Vec::new(), Some("a"));
        state.access(loc, true, cont, Vec::new(), Some("b"));
        let report = state.collect_report();
        assert_eq!(report.races.len(), 1);
        assert_eq!(report.races[0].kind, RaceKind::WriteWrite);
    }

    #[test]
    fn out_of_order_observation_still_detected() {
        // Under real parallelism the continuation's access can reach the
        // shadow map before the child's: detection must not depend on
        // observation order.
        let (child, cont) = forked_labels();
        let state = ParState::new();
        let loc = Location(0x10);
        state.access(loc, true, cont, Vec::new(), Some("cont"));
        state.access(loc, false, child, Vec::new(), Some("child"));
        let report = state.collect_report();
        assert_eq!(report.races.len(), 1);
        assert_eq!(report.races[0].kind, RaceKind::WriteRead);
        assert_eq!(report.races[0].first_site, Some("cont"));
    }

    #[test]
    fn session_installs_and_clears() {
        assert!(with_session(|_| ()).is_none());
        let session = ParSession::begin();
        assert!(with_session(|_| ()).is_some());
        let report = session.finish();
        assert!(report.is_race_free());
        assert!(with_session(|_| ()).is_none());
    }
}
