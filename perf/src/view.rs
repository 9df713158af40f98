//! Cilkview's prediction beside the measurement: the work/span profile of a
//! workload gives a burdened lower bound and the `min(P, T1/T∞)` upper
//! bound on speedup, printed next to the speedup the run measured.

use std::hint::black_box;
use std::time::Instant;

use cilk_runtime::ThreadPool;
use cilkview::{Cilkview, Profile};

/// What one steal is taken to cost on the critical path. Cilkview's burden
/// is "on the order of thousands of instructions"; the repo's Fig. 3
/// binary uses 15 000 units of about a nanosecond.
const BURDEN_NS: f64 = 15_000.0;

pub struct Prediction {
    /// What was profiled, with its size.
    pub what: String,
    pub work: u64,
    pub span: u64,
    pub burdened_span: u64,
    pub lo: f64,
    pub hi: f64,
}

impl Prediction {
    fn from_profile(what: String, profile: &Profile, workers: usize) -> Prediction {
        let table = profile.speedup_profile(workers as u64);
        let row = table
            .row(workers as u64)
            .expect("a row per processor count");
        Prediction {
            what,
            work: profile.work,
            span: profile.span,
            burdened_span: profile.burdened_span,
            lo: row.burdened_lower,
            hi: row.upper,
        }
    }

    pub fn line(&self, measured_speedup: f64) -> String {
        format!(
            "cilkview {}: work {} span {} burdened span {} -> predicted speedup {:.2}..{:.2}, measured {:.2}{}",
            self.what,
            self.work,
            self.span,
            self.burdened_span,
            self.lo,
            self.hi,
            measured_speedup,
            if measured_speedup < self.lo { "  ** below the burdened lower bound **" } else { "" },
        )
    }
}

/// The burden in charged units, given how long one unit takes on one worker.
fn burden_units(t1_ns: f64, work_units: u64) -> u64 {
    (BURDEN_NS / (t1_ns / work_units.max(1) as f64))
        .round()
        .max(1.0) as u64
}

/// `fib_cutoff(n, 0)` with one unit charged per call; the workload's own
/// `fib` carries no charges, and the strand profiler is too slow for the
/// full `n`, so this runs at the reduced `n` the output states.
fn fib_charged(n: u64) -> u64 {
    cilkview::charge(1);
    if n < 2 {
        return n;
    }
    let (a, b) = cilk::join(|| fib_charged(n - 1), || fib_charged(n - 2));
    a + b
}

pub fn fib(n: u64, pool_1: &ThreadPool, pool_p: &ThreadPool) -> Prediction {
    // Unprofiled time on one worker, to turn the burden into units.
    let t1_ns = (0..3)
        .map(|_| {
            let start = Instant::now();
            black_box(pool_1.install(|| fib_charged(black_box(n))));
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min);
    let calls = 2 * cilk_workloads::fib_serial(n + 1) - 1;
    let view = Cilkview::new().burden(burden_units(t1_ns, calls));
    let (value, profile) = view.profile_runtime(pool_p, || fib_charged(n));
    assert_eq!(
        value,
        cilk_workloads::fib_serial(n),
        "the profiled fib is still fib"
    );
    Prediction::from_profile(
        format!("fib_cutoff({n}, 0), reduced from the workload's n"),
        &profile,
        pool_p.num_workers(),
    )
}

/// The workload's own quicksort (it charges partition and leaf-sort costs
/// itself) on the workload's own input; `t1_ns` is the measured median.
pub fn qsort(input: &[i64], t1_ns: f64, pool_p: &ThreadPool) -> Prediction {
    let mut probe_run = input.to_vec();
    let (_, unburdened) =
        Cilkview::new().profile_runtime(pool_p, || cilk_workloads::qsort(&mut probe_run));
    let view = Cilkview::new().burden(burden_units(t1_ns, unburdened.work));
    let mut v = input.to_vec();
    let (_, profile) = view.profile_runtime(pool_p, || cilk_workloads::qsort(&mut v));
    assert!(
        v.windows(2).all(|w| w[0] <= w[1]),
        "the profiled sort still sorts"
    );
    Prediction::from_profile(
        format!("qsort of {} i64", input.len()),
        &profile,
        pool_p.num_workers(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forkjoin::{plain_pool, qsort_input};

    #[test]
    fn predictions_bracket_a_sane_range() {
        let (pool_1, pool_p) = (plain_pool(1), plain_pool(2));
        let p = fib(15, &pool_1, &pool_p);
        assert_eq!(p.work, 2 * cilk_workloads::fib_serial(16) - 1);
        assert!(
            p.lo > 0.0 && p.lo <= p.hi && p.hi <= 2.0,
            "{} {}",
            p.lo,
            p.hi
        );
        let q = qsort(&qsort_input(20_000, 1), 2e6, &pool_p);
        assert!(q.work > 20_000 && q.lo <= q.hi && q.hi <= 2.0);
        assert!(q.line(0.1).contains("below the burdened lower bound"));
    }
}
