//! The three fork-join workloads. Each solve is timed three ways: `TS`, the
//! serial elision called directly with no pool; `T1`, the parallel code on
//! a one-worker pool; `TP`, the same on `P` workers. The pools are built
//! without an admission policy: this half of the benchmark bypasses the
//! service layer, and asserts so in the traced run.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cilk_runtime::probe::{self, EventMask, Probe, ProbeEvent};
use cilk_runtime::{Config, ThreadPool};
use cilk_workloads::{bfs, bfs_serial, fib_cutoff, fib_serial, qsort, qsort_serial, Graph};

use crate::counters::{Counters, Reading};
use crate::rng::Rng;
use crate::spans::{now_ns, Recorder};
use crate::spec::Sizes;
use crate::stats;

/// One workload's inputs and reference answer, made from the seed.
pub enum Kernel {
    Fib { n: u64, expect: u64 },
    Qsort { input: Vec<i64>, checksum: Checksum },
    Bfs { graph: Graph, reference: Vec<i64> },
}

/// What one solve works on and leaves behind.
pub enum Work {
    Fib(u64),
    Sort(Vec<i64>),
    Dist(Vec<i64>),
}

/// Order-independent digest of a multiset of `i64`: a sort may permute its
/// input and do nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksum {
    sum: u64,
    xor: u64,
    squares: u64,
}

impl Checksum {
    fn of(values: &[i64]) -> Checksum {
        values.iter().fold(
            Checksum {
                sum: 0,
                xor: 0,
                squares: 0,
            },
            |c, &v| {
                let v = v as u64;
                Checksum {
                    sum: c.sum.wrapping_add(v),
                    xor: c.xor ^ v,
                    squares: c.squares.wrapping_add(v.wrapping_mul(v)),
                }
            },
        )
    }
}

pub fn is_fork_join(workload: &str) -> bool {
    matches!(workload, "fib_spawn" | "qsort_coarse" | "bfs_levels")
}

pub fn qsort_input(len: usize, seed: u64) -> Vec<i64> {
    let mut rng = Rng::new(seed);
    (0..len).map(|_| rng.next_u64() as i64).collect()
}

impl Kernel {
    /// Generates the inputs of `workload` from `seed` and computes the
    /// reference answer serially. `None` for a service workload.
    pub fn build(workload: &str, seed: u64, sizes: &Sizes) -> Option<Kernel> {
        Some(match workload {
            "fib_spawn" => Kernel::Fib {
                n: sizes.fib_n,
                expect: fib_serial(sizes.fib_n),
            },
            "qsort_coarse" => {
                let input = qsort_input(sizes.qsort_len, seed);
                let checksum = Checksum::of(&input);
                Kernel::Qsort { input, checksum }
            }
            "bfs_levels" => {
                let graph = Graph::random(sizes.bfs_vertices, sizes.bfs_degree, seed);
                let reference = bfs_serial(&graph, 0);
                Kernel::Bfs { graph, reference }
            }
            _ => return None,
        })
    }

    /// The state a solve starts from; the clone a sort needs happens here,
    /// outside every timed region.
    fn fresh(&self) -> Work {
        match self {
            Kernel::Fib { .. } => Work::Fib(0),
            Kernel::Qsort { input, .. } => Work::Sort(input.clone()),
            Kernel::Bfs { .. } => Work::Dist(Vec::new()),
        }
    }

    fn run(&self, work: &mut Work, parallel: bool) {
        match (self, work) {
            (Kernel::Fib { n, .. }, Work::Fib(out)) => {
                let n = black_box(*n);
                *out = if parallel {
                    fib_cutoff(n, 0)
                } else {
                    fib_serial(n)
                };
            }
            (Kernel::Qsort { .. }, Work::Sort(v)) => {
                if parallel {
                    qsort(v)
                } else {
                    qsort_serial(v)
                }
            }
            (Kernel::Bfs { graph, .. }, Work::Dist(out)) => {
                *out = if parallel {
                    bfs(graph, 0)
                } else {
                    bfs_serial(graph, 0)
                };
            }
            _ => unreachable!("work made by another kernel"),
        }
    }

    fn verify(&self, work: &Work) -> bool {
        match (self, work) {
            (Kernel::Fib { expect, .. }, Work::Fib(out)) => out == expect,
            (Kernel::Qsort { checksum, .. }, Work::Sort(v)) => {
                v.windows(2).all(|w| w[0] <= w[1]) && Checksum::of(v) == *checksum
            }
            (Kernel::Bfs { reference, .. }, Work::Dist(out)) => out == reference,
            _ => false,
        }
    }

    /// `cilk_for` loops one solve runs: BFS runs one per non-empty frontier.
    fn loops_per_solve(&self) -> u64 {
        match self {
            Kernel::Bfs { reference, .. } => reference
                .iter()
                .copied()
                .max()
                .map_or(0, |deepest| deepest as u64 + 1),
            _ => 0,
        }
    }

    fn uses_reducers(&self) -> bool {
        matches!(self, Kernel::Bfs { .. })
    }
}

pub fn plain_pool(workers: usize) -> ThreadPool {
    ThreadPool::with_config(Config::new().num_workers(workers)).expect("worker threads start")
}

/// A kernel, the pools it is timed on, and a finished warm-up round.
pub struct Bench {
    pub kernel: Kernel,
    pool_1: ThreadPool,
    pool_p: ThreadPool,
    solve_id: u32,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum On {
    /// The serial elision, called directly.
    NoPool,
    OneWorker,
    AllWorkers,
}

/// Timings in nanoseconds; `failed` counts solves with a wrong answer.
#[derive(Default)]
pub struct Measured {
    pub ts: Vec<u64>,
    pub t1: Vec<u64>,
    pub tp: Vec<u64>,
    pub failed: u64,
    /// Counter deltas over the `TP` solves (traced run only).
    pub counters: Option<Counters>,
}

impl Measured {
    pub fn attempted(&self) -> u64 {
        (self.ts.len() + self.t1.len() + self.tp.len()) as u64
    }
}

impl Bench {
    /// Everything `setup_s` covers: inputs, reference answer, both pools,
    /// and one warm-up round (page faults, deque growth, worker start-up).
    pub fn set_up(workload: &str, seed: u64, sizes: &Sizes, workers: usize) -> Option<Bench> {
        let kernel = Kernel::build(workload, seed, sizes)?;
        let mut bench = Bench {
            kernel,
            pool_1: plain_pool(1),
            pool_p: plain_pool(workers),
            solve_id: 0,
        };
        let mut warm = Measured::default();
        bench.round(&mut warm, None);
        assert_eq!(
            warm.failed, 0,
            "{workload}: wrong answer in the warm-up round"
        );
        Some(bench)
    }

    /// One solve; returns its wall time and whether the answer was right
    /// (checked after the clock stopped).
    fn solve(&mut self, on: On, recorder: Option<&mut Recorder>) -> (u64, bool) {
        let mut work = self.kernel.fresh();
        let kernel = &self.kernel;
        let t0 = now_ns();
        let (t1, t2) = match on {
            On::NoPool => {
                kernel.run(&mut work, false);
                (t0, now_ns())
            }
            On::OneWorker | On::AllWorkers => {
                let pool = if on == On::OneWorker {
                    &self.pool_1
                } else {
                    &self.pool_p
                };
                pool.install(|| {
                    let t1 = now_ns();
                    kernel.run(&mut work, true);
                    (t1, now_ns())
                })
            }
        };
        let t3 = now_ns();
        if let Some(recorder) = recorder {
            self.solve_id += 1;
            recorder.record(
                self.solve_id,
                &[
                    ("solve", t0, t3),
                    ("install_in", t0, t1),
                    ("compute", t1, t2),
                    ("install_out", t2, t3),
                ],
            );
        }
        (t3 - t0, kernel.verify(&work))
    }

    /// `TS`, `T1`, `TP`, once each. Interleaving them puts slow drift of
    /// the machine into all three alike, so the ratios keep.
    fn round(&mut self, into: &mut Measured, recorder: Option<&mut Recorder>) {
        let (ns, ok) = self.solve(On::NoPool, None);
        into.ts.push(ns);
        into.failed += u64::from(!ok);
        let (ns, ok) = self.solve(On::OneWorker, None);
        into.t1.push(ns);
        into.failed += u64::from(!ok);
        let before = into.counters.as_ref().map(|_| Reading::of(&self.pool_p));
        // Only `TP` solves are traced: they are the end-to-end number.
        let (ns, ok) = self.solve(On::AllWorkers, recorder);
        into.tp.push(ns);
        into.failed += u64::from(!ok);
        if let (Some(counters), Some(before)) = (into.counters.as_mut(), before) {
            counters.add_since(&before, &self.pool_p);
        }
    }

    /// Rounds for `duration`, three at least.
    pub fn measure(&mut self, duration: Duration, mut recorder: Option<&mut Recorder>) -> Measured {
        let mut measured = Measured {
            counters: recorder.is_some().then(Counters::default),
            ..Measured::default()
        };
        let start = Instant::now();
        while measured.tp.len() < 3 || start.elapsed() < duration {
            self.round(&mut measured, recorder.as_deref_mut());
        }
        measured
    }

    /// `cilk_for` leaf chunks per solve: every loop is split by joins down
    /// to the grain, so its chunks number its joins plus one.
    pub fn chunks_per_solve(&self, spawns_per_solve: f64) -> f64 {
        match self.kernel.loops_per_solve() {
            0 => 0.0,
            loops => spawns_per_solve + loops as f64,
        }
    }

    /// Reducer views created in one (untimed) `TP` solve, counted by a
    /// probe consumer listening to view merges: a view exists to be merged.
    pub fn views_created_in_one_solve(&mut self) -> u64 {
        if !self.kernel.uses_reducers() {
            return 0;
        }
        struct MergedViews(AtomicU64);
        impl Probe for MergedViews {
            fn mask(&self) -> EventMask {
                EventMask::VIEW
            }
            fn on_event(&self, event: &ProbeEvent) {
                if let ProbeEvent::ViewMerge { views } = event {
                    self.0.fetch_add(*views as u64, Ordering::Relaxed);
                }
            }
        }
        let counter = Arc::new(MergedViews(AtomicU64::new(0)));
        let registration = probe::register(Arc::clone(&counter) as Arc<dyn Probe>);
        let (_, ok) = self.solve(On::AllWorkers, None);
        drop(registration);
        assert!(ok, "wrong answer in the view-counting solve");
        counter.0.load(Ordering::Relaxed)
    }

    pub fn pool_p(&self) -> &ThreadPool {
        &self.pool_p
    }

    pub fn pool_1(&self) -> &ThreadPool {
        &self.pool_1
    }
}

/// Which solve time stands for `TS`, `T1` and `TP`: the lower quartile.
/// Whatever else runs on the machine only ever adds time to a solve, so the
/// fast end of a run's solves is the program's and the slow end is the
/// neighbours'; on a shared VM the quartile repeats from run to run about
/// twice as closely as the median does.
pub const TYPICAL: f64 = 25.0;
/// The tail of a run's few dozen solves (a p99 needs a thousand): the upper
/// quartile, where the disturbed solves begin.
pub const TAIL: f64 = 75.0;

/// `TS`, `T1` and `TP` of a run in nanoseconds, each at [`TYPICAL`].
pub fn typical(m: &Measured) -> [f64; 3] {
    [&m.ts, &m.t1, &m.tp].map(|solves| stats::percentile_unsorted(solves, TYPICAL) as f64)
}

/// The end-to-end numbers of a fork-join run, in `END_TO_END` order bar
/// `setup_s`: goodput, typical latency, tail, speedup, serial overhead.
pub fn end_to_end(m: &Measured) -> [f64; 5] {
    let [ts, t1, tp] = typical(m);
    [
        1e9 / tp,
        tp / 1e3,
        stats::percentile_unsorted(&m.tp, TAIL) as f64 / 1e3,
        t1 / tp,
        t1 / ts,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(qsort_input(1000, 5), qsort_input(1000, 5));
        assert_ne!(qsort_input(1000, 5), qsort_input(1000, 6));
        let sizes = Sizes {
            bfs_vertices: 2000,
            ..Sizes::quick()
        };
        let reference = |seed| match Kernel::build("bfs_levels", seed, &sizes) {
            Some(Kernel::Bfs { reference, .. }) => reference,
            _ => unreachable!(),
        };
        assert_eq!(reference(3), reference(3));
        assert_ne!(reference(3), reference(4));
    }

    #[test]
    fn checksum_ignores_order_and_catches_a_changed_element() {
        let v = qsort_input(500, 9);
        let mut shuffled = v.clone();
        shuffled.reverse();
        assert_eq!(Checksum::of(&v), Checksum::of(&shuffled));
        shuffled[17] = shuffled[17].wrapping_add(1);
        assert_ne!(Checksum::of(&v), Checksum::of(&shuffled));
        // A "sort" that overwrites with a sorted constant is caught.
        let kernel = Kernel::Qsort {
            checksum: Checksum::of(&v),
            input: v.clone(),
        };
        assert!(!kernel.verify(&Work::Sort(vec![0; v.len()])));
        let mut sorted = v;
        sorted.sort_unstable();
        assert!(kernel.verify(&Work::Sort(sorted)));
    }

    #[test]
    fn every_kernel_solves_correctly_all_three_ways() {
        let sizes = Sizes {
            fib_n: 16,
            qsort_len: 5000,
            bfs_vertices: 3000,
            ..Sizes::quick()
        };
        for workload in ["fib_spawn", "qsort_coarse", "bfs_levels"] {
            let mut bench = Bench::set_up(workload, 1, &sizes, 2).expect("fork-join workload");
            let mut recorder = Recorder::with_capacity(0, 64);
            let m = bench.measure(Duration::ZERO, Some(&mut recorder));
            assert_eq!(
                (m.failed, m.tp.len(), m.attempted()),
                (0, 3, 9),
                "{workload}"
            );
            let counters = m.counters.expect("traced");
            assert_eq!((counters.jobs_admitted, counters.injector_batches), (0, 0));
            assert!(counters.spawns > 0, "{workload}");
            let shares = spans::shares(&[recorder], spans::SOLVE).expect("spans recorded");
            assert_eq!(shares.operations, 3);
        }
        assert!(Bench::set_up("svc_closed", 1, &sizes, 2).is_none());
    }
}
