//! Deterministic fault-injection points threaded through the runtime.
//!
//! Robustness claims about a work-stealing runtime ("panics propagate to
//! the logical parent", "views are never leaked", "the pool quiesces even
//! when a worker is lost") are only as good as the schedules they were
//! tested on. This module is the seam that lets a test *provoke* the bad
//! schedules on demand: the scheduler and the libraries built on it call
//! [`fault_point`] at named [`FaultSite`]s, and a pool configured with a
//! [`FaultHandler`] (see [`crate::Config::fault_handler`]) decides, per
//! occurrence, whether to continue, panic, stall, or kill the worker.
//!
//! Without a handler installed the cost of a fault point is one
//! thread-local read plus one boolean load — and on the `join` path, which
//! already holds its worker, just the load; pools never pay for what their
//! tests do not use. The `cilk-faults` crate builds the deterministic,
//! seed-driven `FaultPlan` layer on top of this seam.
//!
//! # Site semantics
//!
//! | site | fires | `Panic` | `Stall` | `Die` |
//! |------|-------|---------|---------|-------|
//! | `Spawn` | entry of every spawned child (`join`'s left branch, every `scope` task) | captured like a user panic and propagated to the logical parent | delays the child, reordering steals | worker retires at its next top-of-loop |
//! | `Steal` | entry of every steal round | aborts the round (counted as `steals_aborted`) | delays the thief | aborts the round and retires the worker at its next top-of-loop |
//! | `Sync` | the implicit sync of `join`/`scope` | surfaces at the sync point after all children rest | delays the sync | retires at next top-of-loop |
//! | `ViewMerge` | every reducer view merge (`cilk-hyper`) | captured/propagated; views still torn down exactly once | reorders merges | retires at next top-of-loop |
//! | `LockAcquire` | entry of `cilk::sync::Mutex::lock`/`try_lock` | user panic before the lock is held (lock events stay balanced) | forces contention | retires at next top-of-loop |
//! | `LoopChunk` | before each `cilk_for` leaf chunk | captured, siblings cancelled, propagated | reorders chunk execution | retires at next top-of-loop |
//! | `Inject` | admission boundary of `ThreadPool::submit`, after the quota reservation | unwinds the submitter with the reservation released (no quota leak, nothing queued) | delays admission, perturbing arrival order | sheds the submission: reservation released, rejection counted, `Overloaded` returned |
//!
//! Worker death is deliberately graceful: the worker finishes every
//! obligation already on its stack (an in-flight `join` must resolve its
//! continuation before the stack frame can be popped), then retires at the
//! next top of its scheduling loop — sealing its deque, draining every
//! unstolen job back into the injection queue so no task is stranded, and
//! letting the thread exit. What happens next depends on the pool:
//!
//! * With [`crate::Config::supervision`], the supervisor respawns a
//!   replacement into the dead worker's slot (under the policy's budget
//!   and backoff); past the budget the pool degrades gracefully —
//!   survivors keep executing, and at zero workers `install` runs jobs
//!   serially in place.
//! * Without supervision the loss is permanent, and a pool whose workers
//!   have all died turns subsequent `install`s into a diagnosable
//!   [`crate::RuntimeStalled`] instead of a deadlock when
//!   [`crate::Config::stall_timeout`] is set.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use crate::registry::WorkerThread;

/// A named location in the runtime where faults can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// Entry of a spawned child (`join` left branch, `scope` task body).
    Spawn,
    /// Entry of a worker's steal round over random victims.
    Steal,
    /// The implicit sync of a `join` or `scope` (after children rest).
    Sync,
    /// A reducer view merge in `cilk-hyper` (join or scope drain).
    ViewMerge,
    /// Entry of `cilk::sync::Mutex::lock` / `try_lock`.
    LockAcquire,
    /// Before a `cilk_for` leaf chunk executes its iterations.
    LoopChunk,
    /// The admission boundary of `ThreadPool::submit`, consulted after a
    /// successful quota reservation and before the job enqueues. Unlike
    /// every other site this one fires on the *submitting* thread (which
    /// is outside the pool), so `Die` cannot kill a worker — it sheds the
    /// submission instead, exactly like a degraded pool would.
    Inject,
}

impl FaultSite {
    /// Every site, in a fixed order (stable across releases; used for
    /// occurrence-counter indexing and plan serialization).
    pub const ALL: [FaultSite; 7] = [
        FaultSite::Spawn,
        FaultSite::Steal,
        FaultSite::Sync,
        FaultSite::ViewMerge,
        FaultSite::LockAcquire,
        FaultSite::LoopChunk,
        FaultSite::Inject,
    ];

    /// The site's stable lower-case name (the FaultPlan JSON token).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Spawn => "spawn",
            FaultSite::Steal => "steal",
            FaultSite::Sync => "sync",
            FaultSite::ViewMerge => "view-merge",
            FaultSite::LockAcquire => "lock-acquire",
            FaultSite::LoopChunk => "loop-chunk",
            FaultSite::Inject => "inject",
        }
    }

    /// Parses a site from its [`FaultSite::name`].
    pub fn parse(name: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The site's index into [`FaultSite::ALL`].
    pub fn index(self) -> usize {
        FaultSite::ALL
            .iter()
            .position(|s| *s == self)
            .expect("every site is in ALL")
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a [`FaultHandler`] tells the runtime to do at a fault point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// No fault: proceed normally (the overwhelmingly common answer).
    Continue,
    /// Panic with an [`InjectedFault`] payload. At user-code sites the
    /// panic is captured and propagated exactly like an application panic;
    /// at the `Steal` site it aborts the steal round instead (a scheduler
    /// thread must never unwind outside a job).
    Panic,
    /// Sleep for the given duration at the fault point, perturbing the
    /// schedule (forces steals and merge reorders even on one core).
    Stall(Duration),
    /// Simulate losing the worker: it finishes its current obligations,
    /// then retires at the next top of its scheduling loop, reclaiming its
    /// deque into the injection queue. Supervised pools respawn the slot;
    /// unsupervised pools lose it permanently.
    Die,
}

impl FaultAction {
    /// The probe-event kind of a non-`Continue` action (see
    /// [`crate::probe::ProbeEvent::Fault`]).
    pub(crate) fn kind(self) -> Option<crate::probe::FaultKind> {
        match self {
            FaultAction::Continue => None,
            FaultAction::Panic => Some(crate::probe::FaultKind::Panic),
            FaultAction::Stall(_) => Some(crate::probe::FaultKind::Stall),
            FaultAction::Die => Some(crate::probe::FaultKind::Die),
        }
    }
}

/// A pool-scoped fault decision function. Consulted at every fault point
/// reached by that pool's workers; must be cheap and deterministic if the
/// run is to be replayable.
pub type FaultHandler = Arc<dyn Fn(FaultSite) -> FaultAction + Send + Sync>;

/// The panic payload of an injected [`FaultAction::Panic`].
///
/// Tests downcast the caught payload to this type to distinguish a
/// *planted* panic (expected, must surface at the logical parent) from an
/// accidental one (a real bug).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// The site at which the panic was injected.
    pub site: FaultSite,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cilk-faults: injected panic at site `{}`", self.site)
    }
}

/// Consults the current pool's fault handler at `site` and applies the
/// action. No-op on threads outside any pool and on pools without a
/// handler.
///
/// A `Panic` action unwinds with an [`InjectedFault`] payload — callers at
/// user-code sites sit under the runtime's usual panic capture, so the
/// panic propagates to the logical parent like any application panic. A
/// `Die` action is deferred: the worker retires at its next top-of-loop.
#[inline]
pub fn fault_point(site: FaultSite) {
    // SAFETY: the pointer is set for the lifetime of the worker's main
    // loop and only ever read from its own thread.
    if let Some(wt) = unsafe { WorkerThread::current().as_ref() } {
        fault_point_on(wt, site);
    }
}

/// [`fault_point`] for the worker already in hand (`wt` must be the
/// current thread's): no thread-local read, and with no handler installed
/// one test of the worker's own copy of it and a not-taken branch.
#[inline]
pub(crate) fn fault_point_on(wt: &WorkerThread, site: FaultSite) {
    if let Some(handler) = &wt.fault_handler {
        apply(wt, handler(site), site);
    }
}

/// Applies a fault action on behalf of `wt` (shared by [`fault_point`] and
/// the steal-site handling in the registry).
///
/// Every fired fault is reported as a [`crate::probe::ProbeEvent::Fault`]
/// through the worker's probe seam, which both updates its
/// `faults_injected`/`stalls_injected` counters (the metrics consumer)
/// and reaches any registered global consumer. Out of line: only pools
/// under test have a handler.
#[cold]
pub(crate) fn apply(wt: &WorkerThread, action: FaultAction, site: FaultSite) {
    if let Some(kind) = action.kind() {
        wt.probe(crate::probe::ProbeEvent::Fault { site, kind });
    }
    match action {
        FaultAction::Continue => {}
        FaultAction::Panic => std::panic::panic_any(InjectedFault { site }),
        FaultAction::Stall(d) => std::thread::sleep(d),
        FaultAction::Die => wt.request_death(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_names_round_trip() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::parse(site.name()), Some(site));
            assert_eq!(FaultSite::ALL[site.index()], site);
        }
        assert_eq!(FaultSite::parse("no-such-site"), None);
    }

    #[test]
    fn injected_fault_displays_site() {
        let msg = InjectedFault { site: FaultSite::ViewMerge }.to_string();
        assert!(msg.contains("view-merge"), "{msg}");
    }

    #[test]
    fn fault_point_is_inert_off_pool() {
        // Not on a worker thread: must be a cheap no-op.
        fault_point(FaultSite::Spawn);
        fault_point(FaultSite::Steal);
    }
}
