//! Integration tests of the probe layer's public contract: disabled
//! cost, composition, deregistration, per-thread activation and
//! pedigree-stamped serial capture.
//!
//! Probe state is process-global, so every test serializes on one lock
//! and must leave the registry empty (handles are scope-bound). The
//! zero-consumer *fresh-process* contract is additionally certified by
//! the `probe_smoke` binary in `cilk-bench`, which never registers
//! anything at all.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use cilk_runtime::probe::{
    self, EventMask, Probe, ProbeEvent, ProbeHandle,
};

fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A consumer that counts deliveries per group and can be gated.
struct Recorder {
    mask: EventMask,
    gate: AtomicBool,
    seen: AtomicU64,
    events: Mutex<Vec<ProbeEvent>>,
}

impl Recorder {
    fn new(mask: EventMask) -> Arc<Recorder> {
        Arc::new(Recorder {
            mask,
            gate: AtomicBool::new(true),
            seen: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
        })
    }

    fn count(&self) -> u64 {
        self.seen.load(Ordering::SeqCst)
    }

    fn events(&self) -> Vec<ProbeEvent> {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

impl Probe for Recorder {
    fn mask(&self) -> EventMask {
        self.mask
    }

    fn active(&self) -> bool {
        self.gate.load(Ordering::SeqCst)
    }

    fn on_event(&self, event: &ProbeEvent) {
        self.seen.fetch_add(1, Ordering::SeqCst);
        self.events.lock().unwrap_or_else(|e| e.into_inner()).push(*event);
    }
}

/// Every test starts and must end with an empty registry.
fn assert_registry_empty() {
    assert_eq!(probe::installed_mask(), EventMask::NONE, "leaked consumer mask");
    assert_eq!(probe::consumer_count(), 0, "leaked consumer");
}

#[test]
fn disabled_cost_gate_is_observable() {
    let _serial = test_lock();
    assert_registry_empty();
    assert!(!probe::enabled(EventMask::ALL));
    // Emitting with no consumer is the one-atomic-load fast path; it must
    // be a total no-op.
    probe::emit(&ProbeEvent::LoopChunk { start: 0, len: 8 });
    let r = Recorder::new(EventMask::LOOP);
    let handle = probe::register(r.clone());
    assert!(probe::enabled(EventMask::LOOP));
    assert!(!probe::enabled(EventMask::LOCK), "only registered groups enable");
    probe::emit(&ProbeEvent::LoopChunk { start: 0, len: 8 });
    assert_eq!(r.count(), 1, "the pre-registration emit was dropped");
    drop(handle);
    assert_registry_empty();
}

#[test]
fn consumers_compose_and_deregister_independently() {
    let _serial = test_lock();
    assert_registry_empty();
    let sched = Recorder::new(EventMask::SCHED);
    let lock = Recorder::new(EventMask::LOCK);
    let h1 = probe::register(sched.clone());
    let h2 = probe::register(lock.clone());
    assert_eq!(probe::installed_mask(), EventMask::SCHED | EventMask::LOCK);
    assert_eq!(probe::consumer_count(), 2);

    probe::emit(&ProbeEvent::Inject);
    probe::emit(&ProbeEvent::LockAcquired { lock: 7 });
    probe::emit(&ProbeEvent::LockReleased { lock: 7 });
    assert_eq!(sched.count(), 1, "masks route events to the right consumer");
    assert_eq!(lock.count(), 2);

    drop(h1);
    assert_eq!(probe::installed_mask(), EventMask::LOCK, "mask shrinks on deregistration");
    probe::emit(&ProbeEvent::Inject);
    assert_eq!(sched.count(), 1, "a dropped handle stops delivery");
    drop(h2);
    assert_registry_empty();
}

#[test]
fn active_gates_delivery_per_consumer() {
    let _serial = test_lock();
    assert_registry_empty();
    let r = Recorder::new(EventMask::SCHED);
    let handle = probe::register(r.clone());
    r.gate.store(false, Ordering::SeqCst);
    probe::emit(&ProbeEvent::Inject);
    assert_eq!(r.count(), 0, "inactive consumers see nothing");
    r.gate.store(true, Ordering::SeqCst);
    probe::emit(&ProbeEvent::Inject);
    assert_eq!(r.count(), 1);
    drop(handle);
    assert_registry_empty();
}

#[test]
fn repeated_sessions_are_deterministic_not_first_install_wins() {
    let _serial = test_lock();
    assert_registry_empty();
    // Session 1 registers, listens, ends.
    let first = Recorder::new(EventMask::LOOP);
    let h = probe::register(first.clone());
    probe::emit(&ProbeEvent::LoopChunk { start: 0, len: 1 });
    drop(h);
    // Session 2 — the case the old OnceLock seam silently broke — must
    // behave exactly like session 1.
    let second = Recorder::new(EventMask::LOOP);
    let h = probe::register(second.clone());
    probe::emit(&ProbeEvent::LoopChunk { start: 1, len: 1 });
    drop(h);
    assert_eq!(first.count(), 1);
    assert_eq!(second.count(), 1, "a later session must receive events like the first");
    assert_registry_empty();
}

#[test]
fn scheduler_and_worker_events_flow_from_a_real_pool() {
    let _serial = test_lock();
    assert_registry_empty();
    let r = Recorder::new(EventMask::SCHED | EventMask::WORKER);
    let handle = probe::register(r.clone());
    {
        let pool = cilk_runtime::ThreadPool::with_config(
            cilk_runtime::Config::new().num_workers(2),
        )
        .expect("pool");
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = cilk_runtime::join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        // Both workers parked, so the install has somebody to wake.
        while pool.metrics().parks < 2 {
            std::thread::yield_now();
        }
        assert_eq!(pool.install(|| fib(10)), 55);
        drop(pool);
    }
    let events = r.events();
    let spawns = events
        .iter()
        .filter(|e| matches!(e, ProbeEvent::Spawn { .. }))
        .count();
    assert_eq!(spawns, 88, "one Spawn event per join, globally observable");
    assert!(
        events.iter().any(|e| matches!(e, ProbeEvent::WorkerStart { .. })),
        "worker lifecycle events reach WORKER consumers"
    );
    let parks = events.iter().filter(|e| matches!(e, ProbeEvent::WorkerPark { .. })).count();
    let unparks = events.iter().filter(|e| matches!(e, ProbeEvent::WorkerUnpark { .. })).count();
    assert!(
        parks >= 2 && unparks >= 1 && unparks <= parks,
        "the timeline's park/unpark edges: {parks} parks, {unparks} unparks"
    );
    drop(handle);
    assert_registry_empty();
}

#[test]
fn serial_capture_emits_deterministic_pedigreed_strands() {
    let _serial = test_lock();
    assert_registry_empty();

    struct CaptureProbe {
        inner: Arc<Recorder>,
    }
    impl Probe for CaptureProbe {
        fn mask(&self) -> EventMask {
            EventMask::STRAND
        }
        fn serial_capture(&self) -> bool {
            true
        }
        fn on_event(&self, event: &ProbeEvent) {
            self.inner.on_event(event);
        }
    }

    fn session() -> Vec<ProbeEvent> {
        let inner = Recorder::new(EventMask::STRAND);
        let handle: ProbeHandle =
            probe::register(Arc::new(CaptureProbe { inner: inner.clone() }));
        probe::pedigree_reset();
        let (a, b) = cilk_runtime::join(|| 1, || 2);
        cilk_runtime::join(|| (), || ());
        assert_eq!((a, b), (1, 2));
        drop(handle);
        inner.events()
    }

    let first = session();
    let second = session();
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "strand boundary events (and their pedigree stamps) replay identically"
    );
    let begins: Vec<u64> = first
        .iter()
        .filter_map(|e| match e {
            ProbeEvent::SpawnBegin { strand, .. } => Some(*strand),
            _ => None,
        })
        .collect();
    assert_eq!(begins.len(), 2, "two joins → two captured spawns");
    assert_ne!(begins[0], begins[1], "sibling strands carry distinct stamps");
    assert_registry_empty();
}
