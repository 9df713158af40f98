//! Counter deltas around a workload's calls: the pool's own metrics and the
//! process's CPU time, read before and after.

use cilk_runtime::{MetricsSnapshot, ThreadPool};

use crate::sys;

/// A pool's counters and the process's CPU seconds at one instant.
pub struct Reading {
    metrics: MetricsSnapshot,
    cpu_s: f64,
}

impl Reading {
    pub fn of(pool: &ThreadPool) -> Reading {
        Reading {
            metrics: pool.metrics(),
            cpu_s: sys::cpu_seconds(),
        }
    }
}

/// What a pool counted, and the CPU time the process used, between readings.
#[derive(Default, Debug, Clone, Copy)]
pub struct Counters {
    pub spawns: u64,
    pub steals: u64,
    pub failed_steals: u64,
    pub jobs_admitted: u64,
    pub injector_batches: u64,
    pub jobs_aged: u64,
    /// Not a delta: the deepest any shard has been since the pool was built.
    pub injector_high_watermark: usize,
    pub cpu_s: f64,
}

impl Counters {
    /// Adds what `pool` counted since `before`.
    pub fn add_since(&mut self, before: &Reading, pool: &ThreadPool) {
        let (was, now) = (&before.metrics, Reading::of(pool));
        self.spawns += now.metrics.spawns - was.spawns;
        self.steals += now.metrics.steals - was.steals;
        self.failed_steals += now.metrics.failed_steals - was.failed_steals;
        self.jobs_admitted += now.metrics.jobs_admitted - was.jobs_admitted;
        self.injector_batches += now.metrics.injector_batches - was.injector_batches;
        self.jobs_aged += now.metrics.jobs_aged - was.jobs_aged;
        self.injector_high_watermark = now.metrics.injector_high_watermark;
        self.cpu_s += now.cpu_s - before.cpu_s;
    }
}
