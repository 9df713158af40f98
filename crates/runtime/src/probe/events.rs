//! The probe event taxonomy: one typed enum for every instrumentation
//! seam in the platform.
//!
//! Events fall into two families with different emission guarantees:
//!
//! * **Scheduling events** (`Spawn`, `StealSuccess`, `Inject`, …) describe
//!   what the work-stealing scheduler actually did. They are emitted on
//!   every execution, gated only by the global [`EventMask`], and their
//!   fields are worker indices and queue depths — the raw material for
//!   steal-depth histograms and cache-complexity counters (Gu et al.,
//!   PAPERS.md).
//! * **Structure events** (`SpawnBegin`, `SpawnEnd`, `Sync`) describe the
//!   *logical* series-parallel structure of the program. They are only
//!   emitted while a serial-capture consumer (Cilkscreen, the elision
//!   profiler) is active on the current thread, because the depth-first
//!   serial replay is what makes their ordering meaningful. Each carries a
//!   pedigree stamp (a rolling hash over the spawn-tree path; see the
//!   `strand` submodule) identifying the strand independently of the
//!   schedule.

use crate::fault::FaultSite;

/// A bit-set of probe event groups; the unit of consumer registration.
///
/// Each [`ProbeEvent`] belongs to exactly one group. A consumer's
/// [`Probe::mask`](crate::probe::Probe::mask) is the union of the groups it
/// wants delivered; the global emission gate is the union of every
/// registered consumer's mask, so a site whose group nobody asked for
/// costs one relaxed atomic load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventMask(u32);

impl EventMask {
    /// The empty mask: no events delivered (still a valid registration —
    /// a consumer may exist only to request serial capture).
    pub const NONE: EventMask = EventMask(0);
    /// Logical structure events: `SpawnBegin`, `SpawnEnd`, `Sync`.
    pub const STRAND: EventMask = EventMask(1);
    /// Scheduler events: spawns, steals, pops, injections, deque depths.
    pub const SCHED: EventMask = EventMask(1 << 1);
    /// `cilk_for` leaf chunks: `LoopChunk`.
    pub const LOOP: EventMask = EventMask(1 << 2);
    /// Reducer view traffic: `ViewAccessBegin`/`End`, `ViewMerge`.
    pub const VIEW: EventMask = EventMask(1 << 3);
    /// Mutex traffic: `LockAcquired`, `LockReleased`.
    pub const LOCK: EventMask = EventMask(1 << 4);
    /// Robustness events: `Fault`, `PanicCaptured`, `TaskCancelled`.
    pub const FAULT: EventMask = EventMask(1 << 5);
    /// Worker lifecycle and supervision: `WorkerStart`, `WorkerDied`,
    /// `WorkerTerminate`, `DequeReclaimed`, `WorkerRespawned`,
    /// `PoolDegraded`, and the idle transitions `WorkerSearch`,
    /// `WorkerPark`, `WorkerUnpark`.
    pub const WORKER: EventMask = EventMask(1 << 6);
    /// Every group.
    pub const ALL: EventMask = EventMask(0x7f);

    /// Internal gate bit: some registered consumer requests serial capture.
    /// Never part of [`EventMask::ALL`]; maintained by the registry.
    pub(crate) const SERIAL_CAPTURE: EventMask = EventMask(1 << 31);

    /// Internal gate bit: an SP-order labeling or strand-profiling session
    /// is live somewhere in the process. Never part of [`EventMask::ALL`];
    /// maintained by the registry (see `probe::registry::Session`).
    pub(crate) const SESSION: EventMask = EventMask(1 << 30);

    /// The raw bits.
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// Constructs a mask from raw bits (unknown bits are kept, harmless).
    pub const fn from_bits(bits: u32) -> EventMask {
        EventMask(bits)
    }

    /// The union of two masks.
    pub const fn union(self, other: EventMask) -> EventMask {
        EventMask(self.0 | other.0)
    }

    /// Whether every bit of `other` is set in `self`.
    pub const fn contains(self, other: EventMask) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether the two masks share any bit.
    pub const fn intersects(self, other: EventMask) -> bool {
        self.0 & other.0 != 0
    }

    /// Whether no bits are set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl std::ops::BitOr for EventMask {
    type Output = EventMask;
    fn bitor(self, rhs: EventMask) -> EventMask {
        self.union(rhs)
    }
}

impl std::ops::BitOrAssign for EventMask {
    fn bitor_assign(&mut self, rhs: EventMask) {
        self.0 |= rhs.0;
    }
}

impl Default for EventMask {
    fn default() -> Self {
        EventMask::NONE
    }
}

/// The kind of fault action a [`ProbeEvent::Fault`] reports. Mirrors
/// [`crate::fault::FaultAction`] minus `Continue` (which is not an event)
/// and the stall duration (events are `Copy` and schedule-independent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// An injected panic ([`crate::fault::FaultAction::Panic`]).
    Panic,
    /// An injected stall ([`crate::fault::FaultAction::Stall`]).
    Stall,
    /// A simulated worker death ([`crate::fault::FaultAction::Die`]).
    Die,
}

/// One instrumentation event, delivered by value to every registered
/// consumer whose mask covers its group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProbeEvent {
    // ---- structure events (serial capture only; see module docs) ----
    /// Entering a spawned child procedure (`cilk_spawn`). `strand` is the
    /// child's pedigree stamp; `depth` the logical spawn depth.
    SpawnBegin {
        /// Pedigree stamp of the child strand.
        strand: u64,
        /// Logical spawn nesting depth of the child.
        depth: usize,
    },
    /// The spawned child returned to its parent.
    SpawnEnd {
        /// Pedigree stamp of the child strand that ended.
        strand: u64,
        /// Logical spawn nesting depth of the child.
        depth: usize,
    },
    /// A `cilk_sync` in the current procedure.
    Sync {
        /// Pedigree stamp of the syncing strand.
        strand: u64,
        /// Logical spawn nesting depth of the syncing strand.
        depth: usize,
    },

    // ---- scheduler events ----
    /// `join` pushed a stealable continuation.
    Spawn {
        /// Index of the spawning worker.
        worker: usize,
        /// The worker's `join` nesting depth after this spawn.
        depth: usize,
    },
    /// `Scope::spawn` pushed a task.
    ScopeSpawn {
        /// Index of the spawning worker.
        worker: usize,
    },
    /// A `join` owner popped its own continuation back (no steal).
    InlinePop {
        /// Index of the popping worker.
        worker: usize,
    },
    /// A job was injected from outside the pool.
    Inject,
    /// A steal succeeded.
    StealSuccess {
        /// Index of the stealing worker.
        thief: usize,
        /// Index of the victim whose deque was robbed.
        victim: usize,
    },
    /// A steal attempt found the victim empty or lost a race.
    StealFailed {
        /// Index of the stealing worker.
        thief: usize,
    },
    /// A whole steal round was aborted by an injected fault.
    StealAborted {
        /// Index of the aborting worker.
        thief: usize,
    },
    /// A worker's deque length after a push (high-watermark material).
    DequeLen {
        /// Index of the pushing worker.
        worker: usize,
        /// Deque length immediately after the push.
        len: usize,
    },
    /// A `ThreadPool::submit` passed admission (quota and shard capacity)
    /// and its job entered the injection queue or ran inline on a worker.
    JobAdmitted {
        /// Numeric id of the admitted tenant (`TenantId.0`).
        tenant: u32,
    },
    /// A `ThreadPool::submit` was rejected: quota, full shard, or shed by
    /// a degraded pool.
    JobRejected {
        /// Numeric id of the rejected tenant (`TenantId.0`).
        tenant: u32,
    },
    /// Depth of one injection shard immediately after a push (bounded-queue
    /// high-watermark material).
    QueueDepth {
        /// Index of the shard that was pushed to.
        shard: usize,
        /// Jobs queued on that shard after the push.
        depth: usize,
    },
    /// A multi-job injector transfer completed under a single lock
    /// acquisition: a worker claimed a handoff batch, or reclaimed jobs
    /// were requeued together.
    InjectorBatch {
        /// Number of jobs moved in the batch.
        jobs: usize,
    },
    /// A queued job waited past the admission policy's aging threshold and
    /// was promoted one priority band at claim time (starvation defense;
    /// emitted once per band climbed).
    JobAged {
        /// Numeric id of the promoted job's tenant (`TenantId.0`).
        tenant: u32,
    },
    /// A [`JobHandle::cancel`](crate::JobHandle::cancel) won the race for
    /// a still-queued async submission: the job was removed from its shard
    /// and its quota slot released without the closure ever executing.
    JobCancelled {
        /// Numeric id of the cancelling tenant (`TenantId.0`).
        tenant: u32,
    },
    /// A tenant's circuit breaker tripped open: its recent submissions were
    /// all rejected, so further submissions fast-fail without touching the
    /// shard locks until the cooldown elapses (then one half-open probe).
    BreakerTripped {
        /// Numeric id of the tripped tenant (`TenantId.0`).
        tenant: u32,
    },

    // ---- cilk_for events ----
    /// A `cilk_for` leaf chunk is about to execute.
    LoopChunk {
        /// First index of the chunk.
        start: usize,
        /// Number of iterations in the chunk.
        len: usize,
    },

    // ---- reducer view events ----
    /// A hyperobject view access began (`Reducer::with`, merge read).
    ViewAccessBegin {
        /// Identity of the reducer whose view is accessed.
        reducer: u64,
    },
    /// The matching view access ended.
    ViewAccessEnd {
        /// Identity of the reducer whose view access ended.
        reducer: u64,
    },
    /// A stolen frame's views were merged into the current frame.
    ViewMerge {
        /// Number of reducer views merged from the frame.
        views: usize,
    },

    // ---- lock events ----
    /// A `cilk::sync::Mutex` was acquired.
    LockAcquired {
        /// The lock's identity (address of its state word).
        lock: u64,
    },
    /// A `cilk::sync::Mutex` was released.
    LockReleased {
        /// The lock's identity (address of its state word).
        lock: u64,
    },

    // ---- robustness events ----
    /// The pool's fault handler fired (any non-`Continue` action).
    Fault {
        /// The site at which the fault fired.
        site: FaultSite,
        /// What kind of fault was injected.
        kind: FaultKind,
    },
    /// A panic was captured from user code for propagation.
    PanicCaptured {
        /// Index of the worker that captured the panic.
        worker: usize,
    },
    /// A scope task or loop subrange was skipped by cancellation.
    TaskCancelled {
        /// Index of the worker that skipped the task.
        worker: usize,
    },

    // ---- worker lifecycle ----
    /// A worker thread entered its scheduling loop.
    WorkerStart {
        /// The worker's index within its pool.
        worker: usize,
    },
    /// A worker died: either it simulated death (fault-injected `Die`) or a
    /// panic escaped the job boundary. The thread retires after reclaiming
    /// its deque.
    WorkerDied {
        /// The dead worker's index.
        worker: usize,
    },
    /// A worker ran out of work and began searching (scanning for visible
    /// work before it parks).
    WorkerSearch {
        /// The searching worker's index.
        worker: usize,
    },
    /// A worker found nothing, registered as parked, re-scanned, and is
    /// about to block on its parker (no timeout).
    WorkerPark {
        /// The parking worker's index.
        worker: usize,
        /// Whether its previous wake-up found no work either.
        empty_wake: bool,
    },
    /// A wake token was handed to a parked worker: work became visible
    /// while nobody was searching, a searcher found work and saw more, or
    /// the pool is waking everyone (termination, a respawn).
    WorkerUnpark {
        /// The worker being woken.
        worker: usize,
        /// Index of the waking worker; no worker index (`usize::MAX - 7`)
        /// when the waker is not a pool worker.
        by: usize,
    },
    /// A worker exited its scheduling loop at pool termination.
    WorkerTerminate {
        /// The exiting worker's index.
        worker: usize,
    },
    /// A dead worker's deque was sealed and its remaining jobs drained back
    /// into the pool's injector so no task is stranded.
    DequeReclaimed {
        /// Index of the dead worker whose deque was drained.
        worker: usize,
        /// Number of jobs reclaimed from the deque.
        jobs: usize,
    },
    /// The supervisor spawned a replacement worker that adopted a dead
    /// worker's slot and deque identity.
    WorkerRespawned {
        /// The slot index the replacement adopted.
        worker: usize,
    },
    /// The pool degraded: the respawn budget is exhausted (or supervision
    /// could not recover a loss) and execution continues on the survivors —
    /// or serially in place when none remain.
    PoolDegraded {
        /// Number of live workers remaining.
        live: usize,
    },
}

impl ProbeEvent {
    /// The group this event belongs to (its bit in an [`EventMask`]).
    pub const fn group(&self) -> EventMask {
        match self {
            ProbeEvent::SpawnBegin { .. } | ProbeEvent::SpawnEnd { .. } | ProbeEvent::Sync { .. } => {
                EventMask::STRAND
            }
            ProbeEvent::Spawn { .. }
            | ProbeEvent::ScopeSpawn { .. }
            | ProbeEvent::InlinePop { .. }
            | ProbeEvent::Inject
            | ProbeEvent::StealSuccess { .. }
            | ProbeEvent::StealFailed { .. }
            | ProbeEvent::StealAborted { .. }
            | ProbeEvent::DequeLen { .. }
            | ProbeEvent::JobAdmitted { .. }
            | ProbeEvent::JobRejected { .. }
            | ProbeEvent::QueueDepth { .. }
            | ProbeEvent::InjectorBatch { .. }
            | ProbeEvent::JobAged { .. }
            | ProbeEvent::JobCancelled { .. }
            | ProbeEvent::BreakerTripped { .. } => EventMask::SCHED,
            ProbeEvent::LoopChunk { .. } => EventMask::LOOP,
            ProbeEvent::ViewAccessBegin { .. }
            | ProbeEvent::ViewAccessEnd { .. }
            | ProbeEvent::ViewMerge { .. } => EventMask::VIEW,
            ProbeEvent::LockAcquired { .. } | ProbeEvent::LockReleased { .. } => EventMask::LOCK,
            ProbeEvent::Fault { .. }
            | ProbeEvent::PanicCaptured { .. }
            | ProbeEvent::TaskCancelled { .. } => EventMask::FAULT,
            ProbeEvent::WorkerStart { .. }
            | ProbeEvent::WorkerDied { .. }
            | ProbeEvent::WorkerTerminate { .. }
            | ProbeEvent::WorkerSearch { .. }
            | ProbeEvent::WorkerPark { .. }
            | ProbeEvent::WorkerUnpark { .. }
            | ProbeEvent::DequeReclaimed { .. }
            | ProbeEvent::WorkerRespawned { .. }
            | ProbeEvent::PoolDegraded { .. } => EventMask::WORKER,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_algebra() {
        let m = EventMask::STRAND | EventMask::LOCK;
        assert!(m.contains(EventMask::STRAND));
        assert!(m.contains(EventMask::LOCK));
        assert!(!m.contains(EventMask::VIEW));
        assert!(m.intersects(EventMask::LOCK | EventMask::SCHED));
        assert!(!m.intersects(EventMask::SCHED));
        assert!(EventMask::NONE.is_empty());
        assert!(EventMask::ALL.contains(m));
        // The internal gate bits are not deliverable groups.
        assert!(!EventMask::ALL.intersects(EventMask::SERIAL_CAPTURE | EventMask::SESSION));
    }

    #[test]
    fn every_event_has_a_group_inside_all() {
        let samples = [
            ProbeEvent::SpawnBegin { strand: 1, depth: 1 },
            ProbeEvent::SpawnEnd { strand: 1, depth: 1 },
            ProbeEvent::Sync { strand: 1, depth: 0 },
            ProbeEvent::Spawn { worker: 0, depth: 1 },
            ProbeEvent::ScopeSpawn { worker: 0 },
            ProbeEvent::InlinePop { worker: 0 },
            ProbeEvent::Inject,
            ProbeEvent::StealSuccess { thief: 0, victim: 1 },
            ProbeEvent::StealFailed { thief: 0 },
            ProbeEvent::StealAborted { thief: 0 },
            ProbeEvent::DequeLen { worker: 0, len: 3 },
            ProbeEvent::JobAdmitted { tenant: 4 },
            ProbeEvent::JobRejected { tenant: 4 },
            ProbeEvent::QueueDepth { shard: 1, depth: 5 },
            ProbeEvent::InjectorBatch { jobs: 4 },
            ProbeEvent::JobAged { tenant: 4 },
            ProbeEvent::JobCancelled { tenant: 4 },
            ProbeEvent::BreakerTripped { tenant: 4 },
            ProbeEvent::LoopChunk { start: 0, len: 8 },
            ProbeEvent::ViewAccessBegin { reducer: 7 },
            ProbeEvent::ViewAccessEnd { reducer: 7 },
            ProbeEvent::ViewMerge { views: 2 },
            ProbeEvent::LockAcquired { lock: 9 },
            ProbeEvent::LockReleased { lock: 9 },
            ProbeEvent::Fault { site: FaultSite::Steal, kind: FaultKind::Stall },
            ProbeEvent::PanicCaptured { worker: 0 },
            ProbeEvent::TaskCancelled { worker: 0 },
            ProbeEvent::WorkerStart { worker: 0 },
            ProbeEvent::WorkerDied { worker: 0 },
            ProbeEvent::WorkerTerminate { worker: 0 },
            ProbeEvent::WorkerSearch { worker: 0 },
            ProbeEvent::WorkerPark { worker: 0, empty_wake: false },
            ProbeEvent::WorkerUnpark { worker: 0, by: 1 },
            ProbeEvent::DequeReclaimed { worker: 0, jobs: 2 },
            ProbeEvent::WorkerRespawned { worker: 0 },
            ProbeEvent::PoolDegraded { live: 1 },
        ];
        for e in samples {
            let g = e.group();
            assert!(!g.is_empty(), "{e:?}");
            assert!(EventMask::ALL.contains(g), "{e:?}");
        }
    }
}
