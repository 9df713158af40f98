//! The unified probe layer: one typed event stream for every
//! instrumentation seam in the platform.
//!
//! Cilkscreen's structure events, reducer view events, fault-injection
//! logging ([`crate::fault`]) and the metrics counters are all
//! **consumers** of this module:
//!
//! * every instrumented site builds a [`ProbeEvent`] and hands it to
//!   [`emit`] (scheduler sites first deliver it to the pool's counters:
//!   a worker to its own cache-line-isolated block with plain stores,
//!   off-pool threads to the pool's shared block);
//! * consumers implement [`Probe`] and call [`register`], which composes:
//!   Cilkscreen, the metrics counters, a fault logger and a profiler can
//!   all listen at once, and a consumer registered after another session
//!   ended behaves exactly like the first (no more silent no-op installs);
//! * a consumer whose [`Probe::serial_capture`] is `true` switches
//!   spawning constructs to their serial elision on threads where it is
//!   [`Probe::active`] — the depth-first replay that Cilkscreen's SP-bags
//!   algorithm and the elision profiler need — and receives
//!   pedigree-stamped strand-boundary events.
//!
//! # Overhead contract
//!
//! | state | cost per probe site |
//! |-------|---------------------|
//! | no consumer registered | one relaxed atomic load |
//! | consumers registered, none matching the event's group | one relaxed atomic load |
//! | matching consumers | + one generation check and the consumers' `active`/`on_event` calls |
//!
//! The contract is asserted by tests (`tests/probe.rs`); `docs/probe.md`
//! documents it for consumers.
//!
//! The strand profiler ([`profile_strands`], [`charge`]) is the payoff
//! consumer built on this layer: it records work/span measures from real
//! parallel executions. It is frame-based rather than event-based, and
//! powers `Cilkview::profile_runtime`.
//!
//! The three session kinds a `join` must honour — serial capture, SP-order
//! labeling ([`with_sp_root`]) and strand profiling — share one gate:
//! `gate_open` is a single relaxed load of the same mask word, and
//! while it reads `false` the spawning constructs take their
//! uninstrumented path without touching any session thread-local.

mod events;
mod registry;
mod sporder;
mod strand;

pub use events::{EventMask, FaultKind, ProbeEvent};
pub use registry::{consumer_count, emit, enabled, installed_mask, register, Probe, ProbeHandle};
pub use sporder::{
    current_sp_label, sp_session_active, with_sp_root, SpBranch, SpFrameGuard, SpLabel, SpRel,
};
pub use strand::{
    charge, pedigree_reset, profile_strands, strand_session_active, ProfileSpec, SpShape,
    StrandProfile,
};

pub(crate) use registry::gate_open;
pub(crate) use sporder::{sp_join_fork, sp_scope_begin, sp_task_fork};
pub(crate) use strand::{
    strand_children, strand_combine, strand_scope_begin, strand_scope_combine, task_ctx, Measure,
    ScopeSession, StrandCtx, StrandScope,
};

/// Runs `f` on this thread with the probe mask held at `mask` (no consumer
/// or session can register meanwhile) and every session thread-local
/// mutably borrowed, so reaching any session probe inside `f` panics.
#[cfg(test)]
pub(crate) fn with_mask_held_and_sessions_untouchable<R>(
    mask: EventMask,
    f: impl FnOnce() -> R,
) -> R {
    let _held = registry::hold_probes_at(mask);
    sporder::with_frames_borrowed(|| strand::with_frames_borrowed(f))
}

/// Token proving that some serial-capture consumer is active on the
/// current thread. Spawning constructs hold one for the duration of a
/// captured construct and report strand boundaries through it; the token
/// maintains the thread's pedigree and emits the structure events to
/// every active `STRAND` consumer.
pub(crate) struct SerialCapture(());

/// Checks whether any registered serial-capture consumer is active on
/// this thread. One relaxed atomic load when none is registered.
#[inline]
pub(crate) fn serial_capture() -> Option<SerialCapture> {
    if registry::serial_capture_active() {
        Some(SerialCapture(()))
    } else {
        None
    }
}

impl SerialCapture {
    /// Entering a spawned child (`cilk_spawn`).
    pub(crate) fn spawn_begin(&self) {
        let (strand, depth) = strand::pedigree_spawn_begin();
        emit(&ProbeEvent::SpawnBegin { strand, depth });
    }

    /// The spawned child returned to its parent.
    pub(crate) fn spawn_end(&self) {
        let (strand, depth) = strand::pedigree_spawn_end();
        emit(&ProbeEvent::SpawnEnd { strand, depth });
    }

    /// A `cilk_sync` in the current procedure.
    pub(crate) fn sync(&self) {
        let (strand, depth) = strand::pedigree_sync();
        emit(&ProbeEvent::Sync { strand, depth });
    }
}

/// RAII guard for a reducer view access; emits
/// [`ProbeEvent::ViewAccessEnd`] on drop.
#[derive(Debug)]
pub struct ViewAccess {
    reducer: u64,
}

impl Drop for ViewAccess {
    fn drop(&mut self) {
        emit(&ProbeEvent::ViewAccessEnd { reducer: self.reducer });
    }
}

/// Reports a reducer view access if any active consumer listens for
/// `VIEW` events; `cilk-hyper` brackets every view lookup and merge read
/// with this. Returns `None` (one atomic load, inlined into the caller)
/// when nobody listens.
#[inline]
pub fn view_access(reducer: u64) -> Option<ViewAccess> {
    if registry::enabled(EventMask::VIEW) && any_active(EventMask::VIEW) {
        emit(&ProbeEvent::ViewAccessBegin { reducer });
        Some(ViewAccess { reducer })
    } else {
        None
    }
}

/// Whether any registered consumer matching `group` is active on the
/// current thread. One relaxed atomic load when the group has no
/// registered consumer at all.
pub fn any_active(group: EventMask) -> bool {
    if !registry::enabled(group) {
        return false;
    }
    registry::snapshot()
        .iter()
        .any(|e| e.mask.intersects(group) && e.consumer.active())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    /// Probe-global state is process-wide; tests that register consumers
    /// serialize on this lock so their mask observations don't interleave.
    static PROBE_TEST_LOCK: Mutex<()> = Mutex::new(());

    struct CountingProbe {
        mask: EventMask,
        hits: AtomicU64,
    }

    impl Probe for CountingProbe {
        fn mask(&self) -> EventMask {
            self.mask
        }
        fn on_event(&self, _event: &ProbeEvent) {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn consumers_compose_and_deregister() {
        let _guard = PROBE_TEST_LOCK.lock().unwrap();
        let before = installed_mask();
        let a = Arc::new(CountingProbe { mask: EventMask::LOCK, hits: AtomicU64::new(0) });
        // Groups no pool of a concurrently running test emits on its own
        // (an idle worker parking raises `WORKER` events at any time).
        let b = Arc::new(CountingProbe {
            mask: EventMask::LOCK | EventMask::VIEW,
            hits: AtomicU64::new(0),
        });
        let ha = register(Arc::clone(&a) as Arc<dyn Probe>);
        let hb = register(Arc::clone(&b) as Arc<dyn Probe>);
        assert!(installed_mask().contains(EventMask::LOCK | EventMask::VIEW));
        emit(&ProbeEvent::LockAcquired { lock: 1 });
        emit(&ProbeEvent::ViewMerge { views: 1 });
        assert_eq!(a.hits.load(Ordering::Relaxed), 1, "mask-filtered delivery");
        assert_eq!(b.hits.load(Ordering::Relaxed), 2, "both groups delivered");
        drop(ha);
        emit(&ProbeEvent::LockAcquired { lock: 2 });
        assert_eq!(a.hits.load(Ordering::Relaxed), 1, "deregistered: no delivery");
        assert_eq!(b.hits.load(Ordering::Relaxed), 3);
        drop(hb);
        assert_eq!(installed_mask(), before, "mask restored after deregistration");
    }

    #[test]
    fn repeated_sessions_are_deterministic() {
        let _guard = PROBE_TEST_LOCK.lock().unwrap();
        // The regression the probe registry fixes: with the old OnceLock
        // seam, a second session's install silently no-opped. Here each
        // session registers afresh and observes its own events.
        for session in 0..3 {
            let p = Arc::new(CountingProbe { mask: EventMask::VIEW, hits: AtomicU64::new(0) });
            let handle = register(Arc::clone(&p) as Arc<dyn Probe>);
            emit(&ProbeEvent::ViewMerge { views: 1 });
            emit(&ProbeEvent::ViewMerge { views: 2 });
            assert_eq!(p.hits.load(Ordering::Relaxed), 2, "session {session}");
            drop(handle);
        }
    }

    #[test]
    fn inactive_consumers_get_nothing() {
        let _guard = PROBE_TEST_LOCK.lock().unwrap();
        struct InactiveProbe(AtomicU64);
        impl Probe for InactiveProbe {
            fn mask(&self) -> EventMask {
                EventMask::ALL
            }
            fn active(&self) -> bool {
                false
            }
            fn on_event(&self, _event: &ProbeEvent) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let p = Arc::new(InactiveProbe(AtomicU64::new(0)));
        let h = register(Arc::clone(&p) as Arc<dyn Probe>);
        emit(&ProbeEvent::Inject);
        assert_eq!(p.0.load(Ordering::Relaxed), 0);
        // An inactive consumer also must not force serial capture.
        struct InactiveCapture;
        impl Probe for InactiveCapture {
            fn mask(&self) -> EventMask {
                EventMask::NONE
            }
            fn serial_capture(&self) -> bool {
                true
            }
            fn active(&self) -> bool {
                false
            }
            fn on_event(&self, _event: &ProbeEvent) {}
        }
        let h2 = register(Arc::new(InactiveCapture));
        assert!(serial_capture().is_none());
        drop((h, h2));
    }

    #[test]
    fn view_access_requires_an_active_view_consumer() {
        let _guard = PROBE_TEST_LOCK.lock().unwrap();
        if installed_mask().intersects(EventMask::VIEW) {
            // Another test binary state leak; nothing to assert safely.
            return;
        }
        assert!(view_access(42).is_none());
        let p = Arc::new(CountingProbe { mask: EventMask::VIEW, hits: AtomicU64::new(0) });
        let h = register(Arc::clone(&p) as Arc<dyn Probe>);
        {
            let access = view_access(42);
            assert!(access.is_some());
        }
        assert_eq!(p.hits.load(Ordering::Relaxed), 2, "begin + end on drop");
        drop(h);
    }
}
