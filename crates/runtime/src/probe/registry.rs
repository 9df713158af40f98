//! The probe consumer registry: one registration path, many consumers.
//!
//! Consumers register an `Arc<dyn Probe>` and get a [`ProbeHandle`];
//! dropping the handle deregisters the consumer and shrinks the global
//! gate mask, so repeated sessions (a second Cilkscreen run, a second
//! profiled execution, a second test in the same process) are
//! deterministic: registration N+1 behaves exactly like registration 1.
//!
//! # Overhead contract
//!
//! With zero registered consumers — or none whose mask covers the event's
//! group — an emission site costs **one relaxed atomic load** of the
//! global gate mask. The slow path reads a generation counter and a
//! thread-cached snapshot of the consumer list, so delivery itself takes
//! no lock on the hot path; the mutex is only touched when the consumer
//! set actually changed.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use super::events::{EventMask, ProbeEvent};
use crate::poison;

/// A consumer of probe events. Register one with [`register`](super::register).
///
/// Implementations must be cheap: `on_event` runs inline at scheduler
/// sites on every worker. `active` is consulted per delivery and is the
/// per-thread gate (e.g. "is a detector session running on this
/// thread?"); `mask` and `serial_capture` are sampled once at
/// registration time and must be constant for the consumer's lifetime.
pub trait Probe: Send + Sync {
    /// The event groups this consumer wants delivered.
    fn mask(&self) -> EventMask;

    /// Whether spawning constructs should run their **serial elision** on
    /// threads where this consumer is [`active`](Probe::active) — the
    /// depth-first replay Cilkscreen's SP-bags algorithm and the elision
    /// profiler require. Sampled at registration.
    fn serial_capture(&self) -> bool {
        false
    }

    /// Per-thread, per-delivery gate. Events are only delivered (and
    /// serial capture only triggers) on threads for which this returns
    /// `true`. Defaults to always-on.
    fn active(&self) -> bool {
        true
    }

    /// Delivers one event. Called on whatever thread the event occurred.
    fn on_event(&self, event: &ProbeEvent);
}

/// One registered consumer.
#[derive(Clone)]
pub(super) struct Entry {
    id: u64,
    pub(super) mask: EventMask,
    pub(super) serial_capture: bool,
    pub(super) consumer: Arc<dyn Probe>,
}

/// The mutable registry state, behind the registration mutex.
struct Table {
    next_id: u64,
    entries: Vec<Entry>,
    /// Immutable snapshot handed to readers; rebuilt on every change.
    snapshot: Arc<Vec<Entry>>,
    /// Live [`Session`] guards (SP-order roots and strand profiles).
    sessions: usize,
}

impl Table {
    fn new() -> Table {
        Table { next_id: 1, entries: Vec::new(), snapshot: Arc::new(Vec::new()), sessions: 0 }
    }

    /// Recomputes the gate mask from the table. Must run under the table
    /// lock, which is what orders the stores.
    fn store_mask(&self) {
        let mut mask = EventMask::NONE;
        for e in &self.entries {
            mask |= e.mask;
            if e.serial_capture {
                mask |= EventMask::SERIAL_CAPTURE;
            }
        }
        if self.sessions > 0 {
            mask |= EventMask::SESSION;
        }
        MASK.store(mask.bits(), Ordering::Relaxed);
    }
}

/// Union of all registered consumers' masks, plus the
/// [`EventMask::SERIAL_CAPTURE`] gate bit if any consumer requests it and
/// the [`EventMask::SESSION`] gate bit while any [`Session`] is live.
/// This is the one word every emission site — and every `join` — loads.
static MASK: AtomicU32 = AtomicU32::new(0);

/// Bumped on every registration change; lets threads cache the snapshot.
static GENERATION: AtomicU64 = AtomicU64::new(0);

static TABLE: Mutex<Option<Table>> = Mutex::new(None);

thread_local! {
    /// Per-thread cache of (generation, snapshot) to keep delivery off the
    /// registration mutex.
    static CACHED: RefCell<(u64, Arc<Vec<Entry>>)> =
        RefCell::new((u64::MAX, Arc::new(Vec::new())));
}

/// Keeps a registered consumer alive; dropping it deregisters the
/// consumer and recomputes the global gate mask.
///
/// Returned by [`register`](super::register). Hold it for the lifetime of
/// a session, or store it in a `static` for a process-lifetime consumer.
#[derive(Debug)]
pub struct ProbeHandle {
    id: u64,
}

impl Drop for ProbeHandle {
    fn drop(&mut self) {
        let mut guard = poison::recover(TABLE.lock());
        if let Some(table) = guard.as_mut() {
            table.entries.retain(|e| e.id != self.id);
            publish(table);
        }
    }
}

/// Registers `consumer`; events matching its mask begin flowing
/// immediately. See [`ProbeHandle`] for deregistration.
pub fn register(consumer: Arc<dyn Probe>) -> ProbeHandle {
    let mask = consumer.mask();
    let serial_capture = consumer.serial_capture();
    let mut guard = poison::recover(TABLE.lock());
    let table = guard.get_or_insert_with(Table::new);
    let id = table.next_id;
    table.next_id += 1;
    table.entries.push(Entry { id, mask, serial_capture, consumer });
    publish(table);
    ProbeHandle { id }
}

/// Rebuilds the snapshot and gate mask after a table change. Must run
/// under the table lock.
fn publish(table: &mut Table) {
    table.snapshot = Arc::new(table.entries.clone());
    table.store_mask();
    // The store above must be visible before threads refresh; a Release
    // bump paired with the Acquire load in `snapshot()` orders them.
    GENERATION.fetch_add(1, Ordering::Release);
}

/// Keeps the [`EventMask::SESSION`] gate bit set: held by the root of an
/// SP-order labeling (`with_sp_root`) and by a strand profile
/// (`profile_strands`) for as long as it runs. Those sessions live in
/// thread-locals that travel with stolen closures, so "is one active on
/// this thread?" costs a thread-local probe per `join`; the bit lets
/// [`gate_open`] answer "no" for the whole process with the one
/// load of the gate mask. A thief that runs a session's closure sees the
/// bit through the steal's own synchronization.
pub(crate) struct Session(());

impl Session {
    pub(crate) fn enter() -> Session {
        let mut guard = poison::recover(TABLE.lock());
        let table = guard.get_or_insert_with(Table::new);
        table.sessions += 1;
        table.store_mask();
        Session(())
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let mut guard = poison::recover(TABLE.lock());
        let table = guard.as_mut().expect("a live session created the table");
        table.sessions -= 1;
        table.store_mask();
    }
}

/// The one instrumentation gate of the spawning constructs: whether a
/// serial-capture consumer is registered, an SP-order / strand session is
/// live, or a consumer of `also` is registered anywhere in the process.
/// `false` (one relaxed load) means the construct's uninstrumented path will
/// do: `scope` passes no group, `join` passes `SCHED`, whose events it then
/// only counts.
#[inline]
pub(crate) fn gate_open(also: EventMask) -> bool {
    let gate = EventMask::SERIAL_CAPTURE | EventMask::SESSION | also;
    MASK.load(Ordering::Relaxed) & gate.bits() != 0
}

/// Waits until no consumer is registered and no session is live, then
/// blocks both kinds of registration and holds the gate mask at `mask` for
/// as long as the returned guard lives: the only way a test sharing the
/// process with other tests can observe the gates in a known state. Nothing
/// that runs under the guard may reach the registration lock, so nothing
/// may emit an event of a group in `mask`.
#[cfg(test)]
pub(crate) fn hold_probes_at(mask: EventMask) -> impl Sized {
    struct Held {
        _table: std::sync::MutexGuard<'static, Option<Table>>,
    }
    impl Drop for Held {
        fn drop(&mut self) {
            MASK.store(0, Ordering::Relaxed);
        }
    }
    loop {
        let guard = poison::recover(TABLE.lock());
        if MASK.load(Ordering::Relaxed) == 0 {
            MASK.store(mask.bits(), Ordering::Relaxed);
            return Held { _table: guard };
        }
        drop(guard);
        std::thread::yield_now();
    }
}

/// Number of currently registered consumers (diagnostics and tests).
pub fn consumer_count() -> usize {
    poison::recover(TABLE.lock())
        .as_ref()
        .map_or(0, |t| t.entries.len())
}

/// The current global gate mask (diagnostics and tests). An empty mask
/// certifies the disabled-cost contract: every probe site is one atomic
/// load.
pub fn installed_mask() -> EventMask {
    EventMask::from_bits(MASK.load(Ordering::Relaxed) & EventMask::ALL.bits())
}

/// Whether events of `group` would currently be delivered to anyone.
#[inline]
pub fn enabled(group: EventMask) -> bool {
    EventMask::from_bits(MASK.load(Ordering::Relaxed)).intersects(group)
}

/// The current consumer snapshot, refreshed from the registry if this
/// thread's cache is stale.
pub(super) fn snapshot() -> Arc<Vec<Entry>> {
    let gen = GENERATION.load(Ordering::Acquire);
    CACHED.with(|c| {
        let mut cached = c.borrow_mut();
        if cached.0 != gen {
            let guard = poison::recover(TABLE.lock());
            let snap = guard
                .as_ref()
                .map_or_else(|| Arc::new(Vec::new()), |t| Arc::clone(&t.snapshot));
            // Re-read the generation under the lock so a racing change
            // invalidates this cache entry on the next emission.
            *cached = (GENERATION.load(Ordering::Acquire), snap);
        }
        Arc::clone(&cached.1)
    })
}

/// Emits `event` to every registered, active consumer whose mask covers
/// its group. With no such consumer, this is one relaxed atomic load.
#[inline]
pub fn emit(event: &ProbeEvent) {
    let group = event.group();
    if MASK.load(Ordering::Relaxed) & group.bits() != 0 {
        emit_slow(event, group);
    }
}

#[cold]
fn emit_slow(event: &ProbeEvent, group: EventMask) {
    // Clone the Arc out of the TLS cell before delivering: a consumer that
    // itself reaches a probe site (e.g. takes a monitored lock) re-enters
    // `snapshot()` without aliasing the RefCell borrow.
    let snap = snapshot();
    for entry in snap.iter() {
        if entry.mask.intersects(group) && entry.consumer.active() {
            entry.consumer.on_event(event);
        }
    }
}

/// Whether any registered serial-capture consumer is active on the
/// current thread. One atomic load when none is registered.
#[inline]
pub(crate) fn serial_capture_active() -> bool {
    if MASK.load(Ordering::Relaxed) & EventMask::SERIAL_CAPTURE.bits() == 0 {
        return false;
    }
    let snap = snapshot();
    snap.iter().any(|e| e.serial_capture && e.consumer.active())
}
