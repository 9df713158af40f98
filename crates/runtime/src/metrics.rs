//! Runtime metrics: steal counts, spawn counts, and depth high-watermarks.
//!
//! These counters back the paper's quantitative claims about the runtime:
//! steals are infrequent when parallelism is ample (§3.2), and space
//! consumption is bounded — "on P processors, a Cilk++ program consumes at
//! most P times the stack space of a single-processor execution" (§3.1).
//!
//! # One table, per-worker blocks
//!
//! Every counter is one row of the `counter_table!` invocation below: its
//! name, whether it is a count (summed) or a high-watermark (maxed), and the
//! [`ProbeEvent`] that feeds it. The macro generates the storage
//! ([`CounterBlock`]), the public [`MetricsSnapshot`], the event mapping and
//! the aggregation from those rows, so the four cannot drift apart.
//!
//! A pool owns one [`CounterBlock`] per worker slot plus one for events
//! raised off-pool. A worker's block is written only by that worker, with
//! plain load-then-store (no `lock` prefix, no line shared with another
//! writer): the paper's guarantee charges communication to steals only, and
//! a spawn that bounced a shared counter line per `join` would sit outside
//! that model. Readers sum the blocks at snapshot time.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::probe::{FaultKind, ProbeEvent};

/// Alignment and padding unit of a [`CounterBlock`]: two 64-byte lines, so
/// the adjacent-line prefetcher never pulls a neighbour's block along.
pub(crate) const BLOCK_ALIGN: usize = 128;

/// Storage type, snapshot type and merge rule of the two counter kinds.
macro_rules! kind {
    (atomic count) => { AtomicU64 };
    (atomic max) => { AtomicUsize };
    (plain count) => { u64 };
    (plain max) => { usize };
    (merge count $into:expr, $from:expr) => { $into += $from };
    (merge max $into:expr, $from:expr) => { $into = $into.max($from) };
    // `SHARED` is the const parameter of the expanding `apply`.
    (write count $cell:expr, $amount:expr) => { add::<SHARED>($cell, $amount as u64) };
    (write max $cell:expr, $amount:expr) => { raise::<SHARED>($cell, $amount) };
}

/// Adds `n` to a count. `SHARED` blocks have many writers and need the
/// atomic read-modify-write; a worker's own block has one, so a plain
/// load-then-store loses nothing and costs no bus lock.
#[inline(always)]
fn add<const SHARED: bool>(cell: &AtomicU64, n: u64) {
    if SHARED {
        cell.fetch_add(n, Ordering::Relaxed);
    } else {
        cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }
}

/// Raises a high-watermark to at least `v`; write disciplines as in [`add`].
#[inline(always)]
fn raise<const SHARED: bool>(cell: &AtomicUsize, v: usize) {
    if SHARED {
        cell.fetch_max(v, Ordering::Relaxed);
    } else if v > cell.load(Ordering::Relaxed) {
        cell.store(v, Ordering::Relaxed);
    }
}

/// The declarative counter table. Each row reads
///
/// ```text
/// /// documentation (shared by the block field and the snapshot field)
/// count|max  field_name : EventPattern => amount;
/// ```
///
/// and means "when an event matching `EventPattern` is delivered, add
/// `amount` to (count) or raise to `amount` (max) the field". An event may
/// feed several rows.
macro_rules! counter_table {
    ($( $(#[$doc:meta])* $kind:ident $name:ident : $event:pat => $amount:expr; )*) => {
        /// One cache-line-isolated block of the pool's counters: a worker
        /// slot's own, or the pool's shared block for off-pool events.
        #[derive(Debug, Default)]
        #[repr(align(128))]
        pub(crate) struct CounterBlock {
            $( $(#[$doc])* $name: kind!(atomic $kind), )*
        }

        impl CounterBlock {
            /// The metrics seam as a probe consumer: every counter update
            /// is the delivery of one [`ProbeEvent`]. The call sites pass a
            /// freshly built event of a known variant, so after inlining
            /// only the matching rows survive.
            #[inline(always)]
            fn apply<const SHARED: bool>(&self, event: &ProbeEvent) {
                $(
                    if let $event = *event {
                        kind!(write $kind &self.$name, $amount);
                    }
                )*
            }

            pub(crate) fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $name: self.$name.load(Ordering::Relaxed), )*
                }
            }
        }

        /// A point-in-time snapshot of a pool's counters.
        ///
        /// Obtain one from [`crate::ThreadPool::metrics`] (the whole pool)
        /// or [`crate::ThreadPool::metrics_per_worker`] (one per worker
        /// slot). All counts are cumulative since pool creation.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct MetricsSnapshot {
            $( $(#[$doc])* pub $name: kind!(plain $kind), )*
        }

        impl MetricsSnapshot {
            /// Folds `other` into `self`: counts add, high-watermarks take
            /// the maximum. A pool's snapshot is this fold over its
            /// per-worker snapshots and its off-pool block.
            pub(crate) fn absorb(&mut self, other: &MetricsSnapshot) {
                $( kind!(merge $kind self.$name, other.$name); )*
            }
        }
    };
}

counter_table! {
    /// Successful steals of a job from another worker's deque.
    count steals: ProbeEvent::StealSuccess { .. } => 1;
    /// Steal attempts that found the victim empty or lost a race.
    count failed_steals: ProbeEvent::StealFailed { .. } => 1;
    /// Continuations made available to thieves by `join`.
    count spawns: ProbeEvent::Spawn { .. } => 1;
    /// Tasks spawned through a `scope`.
    count scope_spawns: ProbeEvent::ScopeSpawn { .. } => 1;
    /// Jobs injected from non-pool threads.
    count injections: ProbeEvent::Inject => 1;
    /// Continuations popped back and run inline by their owner (no steal
    /// happened).
    count inline_pops: ProbeEvent::InlinePop { .. } => 1;
    /// Maximum observed deque length on any worker.
    max deque_high_watermark: ProbeEvent::DequeLen { len, .. } => len;
    /// Maximum observed `join` nesting depth on any worker.
    max depth_high_watermark: ProbeEvent::Spawn { depth, .. } => depth;
    /// Panics captured from user code for propagation to the logical
    /// parent (spawned children, scope tasks/bodies, `cilk_for` chunks).
    count panics_captured: ProbeEvent::PanicCaptured { .. } => 1;
    /// Scope tasks and `cilk_for` subranges skipped because their scope or
    /// loop was cancelled (a sibling panicked or `Scope::cancel` ran).
    count tasks_cancelled: ProbeEvent::TaskCancelled { .. } => 1;
    /// Steal rounds aborted by an injected fault at the `steal` site.
    count steals_aborted: ProbeEvent::StealAborted { .. } => 1;
    /// Faults fired by the pool's fault handler (all kinds).
    count faults_injected: ProbeEvent::Fault { .. } => 1;
    /// Injected stalls (a subset of `faults_injected`).
    count stalls_injected: ProbeEvent::Fault { kind: FaultKind::Stall, .. } => 1;
    /// Workers that died (fault-injected `Die` or an escaped panic).
    count workers_died: ProbeEvent::WorkerDied { .. } => 1;
    /// Jobs drained from dead workers' deques back into the injector.
    count jobs_reclaimed: ProbeEvent::DequeReclaimed { jobs, .. } => jobs;
    /// Replacement workers spawned by the supervisor.
    count workers_respawned: ProbeEvent::WorkerRespawned { .. } => 1;
    /// Degradation events observed: losses the supervisor could not (or
    /// will not) recover, and serial in-place installs on a dead pool.
    count pool_degraded: ProbeEvent::PoolDegraded { .. } => 1;
    /// Submissions admitted past quota and shard capacity
    /// (`ThreadPool::submit` and friends).
    count jobs_admitted: ProbeEvent::JobAdmitted { .. } => 1;
    /// Submissions rejected at admission (quota, capacity, or shed).
    count jobs_rejected: ProbeEvent::JobRejected { .. } => 1;
    /// Multi-job injector transfers done under one lock acquisition
    /// (handoff-batch claims and batched reclamation requeues).
    count injector_batches: ProbeEvent::InjectorBatch { .. } => 1;
    /// Maximum observed depth of any single injection shard.
    max injector_high_watermark: ProbeEvent::QueueDepth { depth, .. } => depth;
    /// Band promotions of jobs that waited past the aging threshold (one
    /// per band climbed).
    count jobs_aged: ProbeEvent::JobAged { .. } => 1;
    /// Async submissions cancelled before a worker claimed them.
    count jobs_cancelled: ProbeEvent::JobCancelled { .. } => 1;
    /// Circuit-breaker trips (closed → open transitions).
    count breakers_tripped: ProbeEvent::BreakerTripped { .. } => 1;
    /// Times a worker ran out of work and started searching.
    count searches: ProbeEvent::WorkerSearch { .. } => 1;
    /// Times a worker blocked on its parker after a fruitless search.
    count parks: ProbeEvent::WorkerPark { .. } => 1;
    /// Wake tokens handed to parked workers, counted by the waker.
    count unparks: ProbeEvent::WorkerUnpark { .. } => 1;
    /// Woken workers that parked again without having found work (a
    /// subset of `parks`).
    count wakes_empty: ProbeEvent::WorkerPark { empty_wake: true, .. } => 1;
}

// Layout guard: a block starts on its own 128-byte unit and fills whole
// units, so no two blocks — and nothing laid out next to one — share a line.
const _: () = assert!(
    std::mem::align_of::<CounterBlock>() == BLOCK_ALIGN
        && std::mem::size_of::<CounterBlock>().is_multiple_of(BLOCK_ALIGN)
);

impl CounterBlock {
    /// Delivers `event` to a block with a single writer: the worker that
    /// owns the slot. No atomic read-modify-write, no shared line.
    #[inline(always)]
    pub(crate) fn record_owned(&self, event: &ProbeEvent) {
        self.apply::<false>(event);
    }

    /// Delivers `event` to the pool's shared block, which any thread may
    /// write: external submitters, the supervisor, emergency serial workers.
    #[inline(always)]
    pub(crate) fn record_shared(&self, event: &ProbeEvent) {
        self.apply::<true>(event);
    }
}

impl MetricsSnapshot {
    /// Fraction of spawned continuations that were actually stolen.
    ///
    /// The paper's §3.2 argument is that this ratio is small whenever the
    /// parallelism of the application comfortably exceeds the worker count.
    pub fn steal_ratio(&self) -> f64 {
        if self.spawns == 0 {
            0.0
        } else {
            self.steals as f64 / self.spawns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_ratio_zero_when_no_spawns() {
        assert_eq!(MetricsSnapshot::default().steal_ratio(), 0.0);
    }

    /// Delivers one of every counted event (some twice) through `record`.
    fn deliver_every_event(record: impl Fn(&ProbeEvent)) {
        use crate::fault::FaultSite;
        record(&ProbeEvent::Spawn { worker: 0, depth: 4 });
        record(&ProbeEvent::Spawn { worker: 0, depth: 2 });
        record(&ProbeEvent::ScopeSpawn { worker: 0 });
        record(&ProbeEvent::InlinePop { worker: 0 });
        record(&ProbeEvent::Inject);
        record(&ProbeEvent::StealSuccess { thief: 1, victim: 0 });
        record(&ProbeEvent::StealFailed { thief: 1 });
        record(&ProbeEvent::StealAborted { thief: 1 });
        record(&ProbeEvent::DequeLen { worker: 0, len: 6 });
        record(&ProbeEvent::DequeLen { worker: 0, len: 3 });
        record(&ProbeEvent::PanicCaptured { worker: 0 });
        record(&ProbeEvent::TaskCancelled { worker: 0 });
        record(&ProbeEvent::Fault { site: FaultSite::Steal, kind: FaultKind::Stall });
        record(&ProbeEvent::Fault { site: FaultSite::Sync, kind: FaultKind::Panic });
        record(&ProbeEvent::WorkerDied { worker: 0 });
        record(&ProbeEvent::DequeReclaimed { worker: 0, jobs: 3 });
        record(&ProbeEvent::WorkerRespawned { worker: 0 });
        record(&ProbeEvent::PoolDegraded { live: 0 });
        record(&ProbeEvent::JobAdmitted { tenant: 3 });
        record(&ProbeEvent::JobRejected { tenant: 3 });
        record(&ProbeEvent::JobRejected { tenant: 4 });
        record(&ProbeEvent::InjectorBatch { jobs: 4 });
        record(&ProbeEvent::JobAged { tenant: 4 });
        record(&ProbeEvent::JobAged { tenant: 4 });
        record(&ProbeEvent::JobCancelled { tenant: 3 });
        record(&ProbeEvent::BreakerTripped { tenant: 4 });
        record(&ProbeEvent::QueueDepth { shard: 0, depth: 9 });
        record(&ProbeEvent::QueueDepth { shard: 1, depth: 2 });
        record(&ProbeEvent::WorkerSearch { worker: 0 });
        record(&ProbeEvent::WorkerPark { worker: 0, empty_wake: false });
        record(&ProbeEvent::WorkerUnpark { worker: 0, by: 1 });
        record(&ProbeEvent::WorkerPark { worker: 0, empty_wake: true });
        // Lifecycle/structure events that map to no counter must be inert.
        record(&ProbeEvent::WorkerStart { worker: 0 });
        record(&ProbeEvent::Sync { strand: 1, depth: 0 });
    }

    /// The table is complete: every field of the snapshot is fed by some
    /// event, under both write disciplines, with identical results.
    #[test]
    fn counters_consume_probe_events() {
        let owned = CounterBlock::default();
        deliver_every_event(|e| owned.record_owned(e));
        let shared = CounterBlock::default();
        deliver_every_event(|e| shared.record_shared(e));
        let s = owned.snapshot();
        assert_eq!(s, shared.snapshot());
        let expected = MetricsSnapshot {
            steals: 1,
            failed_steals: 1,
            spawns: 2,
            scope_spawns: 1,
            injections: 1,
            inline_pops: 1,
            deque_high_watermark: 6,
            depth_high_watermark: 4,
            panics_captured: 1,
            tasks_cancelled: 1,
            steals_aborted: 1,
            faults_injected: 2,
            stalls_injected: 1,
            workers_died: 1,
            jobs_reclaimed: 3,
            workers_respawned: 1,
            pool_degraded: 1,
            jobs_admitted: 1,
            jobs_rejected: 2,
            injector_batches: 1,
            injector_high_watermark: 9,
            jobs_aged: 2,
            jobs_cancelled: 1,
            breakers_tripped: 1,
            searches: 1,
            parks: 2,
            unparks: 1,
            wakes_empty: 1,
        };
        assert_eq!(s, expected);
        assert!((s.steal_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn absorb_sums_counts_and_maxes_watermarks() {
        let a = CounterBlock::default();
        a.record_owned(&ProbeEvent::Spawn { worker: 0, depth: 3 });
        a.record_owned(&ProbeEvent::DequeLen { worker: 0, len: 7 });
        let b = CounterBlock::default();
        b.record_owned(&ProbeEvent::Spawn { worker: 1, depth: 9 });
        b.record_owned(&ProbeEvent::Spawn { worker: 1, depth: 1 });
        b.record_owned(&ProbeEvent::DequeLen { worker: 1, len: 2 });
        let mut total = a.snapshot();
        total.absorb(&b.snapshot());
        assert_eq!(total.spawns, 3);
        assert_eq!(total.depth_high_watermark, 9);
        assert_eq!(total.deque_high_watermark, 7);
        assert_eq!(total.steals, 0);
    }
}
