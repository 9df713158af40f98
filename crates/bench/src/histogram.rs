//! Probe-driven scheduling histograms: depth/length *distributions*
//! instead of aggregate counters.
//!
//! The paper's §3.2 claim is qualitative — "steals are infrequent" and
//! land on *shallow* frames (the top of the victim's deque holds the
//! oldest, shallowest continuation). The pool's aggregate counters can
//! support the first half but say nothing about the second; this consumer
//! listens to the probe layer's scheduler events and histograms
//!
//! * **spawn depth** — the `join` nesting depth at every `Spawn`;
//! * **steal depth** — the estimated depth of each stolen continuation:
//!   the victim's last observed spawn depth minus its outstanding deque
//!   length (thieves take the deque *top*, i.e. the oldest frame);
//! * **deque length** — the victim-side queue length after every push.
//!
//! One [`SchedHistograms`] instance observes one pool at a time (worker
//! indices are per-pool, and the probe registry is process-global), so
//! install it, run the workload, then drop the handle before profiling the
//! next pool.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use cilk_runtime::probe::{self, EventMask, Probe, ProbeEvent, ProbeHandle};

/// Number of buckets; values ≥ `BUCKETS - 1` clamp into the last bucket.
pub const BUCKETS: usize = 64;

/// A fixed-bucket counting histogram over small non-negative integers
/// (depths and deque lengths both live well under [`BUCKETS`] in
/// practice; the last bucket absorbs any overflow).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    fn new() -> Histogram {
        Histogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    /// Creates an empty histogram.
    pub fn empty() -> Histogram {
        Histogram::new()
    }

    /// Records one sample; values ≥ [`BUCKETS`] clamp into the last bucket.
    pub fn record(&self, value: usize) {
        self.buckets[value.min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The smallest value `v` such that at least `p` (in `0.0..=1.0`) of
    /// all samples are ≤ `v`. Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> usize {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let threshold = (p.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut cumulative = 0u64;
        for (value, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= threshold {
                return value;
            }
        }
        BUCKETS - 1
    }

    /// The largest recorded value (clamped to the last bucket).
    pub fn max(&self) -> usize {
        self.buckets
            .iter()
            .enumerate()
            .rev()
            .find(|(_, b)| b.load(Ordering::Relaxed) > 0)
            .map_or(0, |(value, _)| value)
    }

    /// Bucket counts, for callers that want the raw distribution.
    pub fn to_vec(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// A compact `p50/p90/max` summary string for bench tables.
    pub fn summary(&self) -> String {
        if self.count() == 0 {
            return "-".to_owned();
        }
        format!("{}/{}/{}", self.percentile(0.50), self.percentile(0.90), self.max())
    }
}

/// The probe consumer: scheduler-event histograms for one pool.
#[derive(Debug)]
pub struct SchedHistograms {
    /// Depth of every `Spawn` (join-nesting depth after the push).
    pub spawn_depth: Histogram,
    /// Estimated depth of every stolen continuation.
    pub steal_depth: Histogram,
    /// Victim-side deque length after every push.
    pub deque_len: Histogram,
    /// Injection-shard depth after every external submission
    /// ([`ProbeEvent::QueueDepth`]) — the scheduler-service backlog
    /// distribution.
    pub queue_depth: Histogram,
    /// Last observed spawn depth per worker slot (steal-depth estimator
    /// state).
    last_depth: Vec<AtomicUsize>,
    /// Last observed deque length per worker slot.
    last_len: Vec<AtomicUsize>,
}

impl SchedHistograms {
    /// A consumer sized for a pool of `workers` workers. Events carrying
    /// out-of-range worker indices (another pool's workers) are counted in
    /// the distributions but skipped by the steal-depth estimator.
    pub fn new(workers: usize) -> Arc<SchedHistograms> {
        Arc::new(SchedHistograms {
            spawn_depth: Histogram::new(),
            steal_depth: Histogram::new(),
            deque_len: Histogram::new(),
            queue_depth: Histogram::new(),
            last_depth: (0..workers).map(|_| AtomicUsize::new(0)).collect(),
            last_len: (0..workers).map(|_| AtomicUsize::new(0)).collect(),
        })
    }

    /// Registers the consumer with the probe layer. Events flow until the
    /// returned handle is dropped.
    pub fn install(self: &Arc<SchedHistograms>) -> ProbeHandle {
        probe::register(Arc::clone(self) as Arc<dyn Probe>)
    }
}

impl Probe for SchedHistograms {
    fn mask(&self) -> EventMask {
        EventMask::SCHED
    }

    fn on_event(&self, event: &ProbeEvent) {
        match *event {
            ProbeEvent::Spawn { worker, depth } => {
                self.spawn_depth.record(depth);
                if let Some(d) = self.last_depth.get(worker) {
                    d.store(depth, Ordering::Relaxed);
                }
            }
            ProbeEvent::QueueDepth { depth, .. } => {
                self.queue_depth.record(depth);
            }
            ProbeEvent::DequeLen { worker, len } => {
                self.deque_len.record(len);
                if let Some(l) = self.last_len.get(worker) {
                    l.store(len, Ordering::Relaxed);
                }
            }
            ProbeEvent::StealSuccess { victim, .. } => {
                // The thief took the deque *top*: the oldest outstanding
                // continuation, i.e. the shallowest. Estimate its depth
                // from the victim's newest frame minus the frames queued
                // above it. Racy by construction (the victim keeps
                // pushing), which is fine for a distribution.
                let (Some(d), Some(l)) =
                    (self.last_depth.get(victim), self.last_len.get(victim))
                else {
                    return;
                };
                let newest = d.load(Ordering::Relaxed);
                let queued = l.load(Ordering::Relaxed);
                self.steal_depth.record(newest.saturating_sub(queued.saturating_sub(1)));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// The probe registry is process-global: pools running concurrently
    /// would cross-pollute each other's histograms.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn histogram_percentiles_and_max() {
        let h = Histogram::new();
        for v in [0usize, 1, 1, 2, 2, 2, 2, 9, 200] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.percentile(0.5), 2);
        assert_eq!(h.max(), BUCKETS - 1, "200 clamps into the last bucket");
        assert_eq!(h.to_vec()[2], 4);
        assert_eq!(Histogram::new().percentile(0.9), 0, "empty histogram");
        assert_eq!(Histogram::new().summary(), "-");
    }

    #[test]
    fn pool_run_populates_distributions() {
        let _serial = serial();
        let workers = 4;
        let hist = SchedHistograms::new(workers);
        let handle = hist.install();
        let pool = cilk_runtime::ThreadPool::with_config(
            cilk_runtime::Config::new().num_workers(workers),
        )
        .expect("pool");
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = cilk_runtime::join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        assert_eq!(pool.install(|| fib(20)), 6765);
        let metrics = pool.metrics();
        drop(pool);
        drop(handle);

        assert_eq!(
            hist.spawn_depth.count(),
            metrics.spawns,
            "every Spawn event lands in the depth histogram"
        );
        assert_eq!(
            hist.steal_depth.count(),
            metrics.steals,
            "every StealSuccess lands in the steal-depth histogram"
        );
        assert!(hist.deque_len.count() > 0, "pushes report deque lengths");
        if metrics.steals > 0 {
            assert!(
                hist.steal_depth.percentile(0.5) <= hist.spawn_depth.max(),
                "stolen frames cannot be deeper than any spawned frame"
            );
        }
        // Dropping the handle deregistered the consumer.
        let before = hist.spawn_depth.count();
        let pool2 = cilk_runtime::ThreadPool::with_config(
            cilk_runtime::Config::new().num_workers(2),
        )
        .expect("pool");
        pool2.install(|| fib(12));
        drop(pool2);
        assert_eq!(hist.spawn_depth.count(), before, "deregistered consumers see nothing");
    }
}
