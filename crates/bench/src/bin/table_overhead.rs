//! E5 — serial overhead of the runtime (§3: "on a single core, typical
//! programs run with negligible overhead (less than 2%)").
//!
//! Compares the serial elision of each workload against the same code on
//! a one-worker pool (work-first execution: every continuation is pushed
//! and popped back, never stolen). Wall-clock, min-of-N.
//!
//! Note: with serialized closures the Rust compiler sometimes optimizes
//! the elision *better* than C would (inlining through the recursion), so
//! the measured ratio is an upper bound on the protocol cost per spawn;
//! the `perf` layer walk (`join.cycle_ns`) measures the per-spawn cost
//! directly.

use cilk::{Config, ThreadPool};
use cilk_workloads::{fib, matmul, qsort};

fn main() {
    let pool = ThreadPool::with_config(Config::new().num_workers(1)).expect("pool");
    let runs = 5;

    cilk_bench::section("serial elision vs 1-worker pool (min of 5 runs)");
    println!(
        "{:<26} {:>12} {:>12} {:>10}",
        "workload", "serial (ms)", "1-worker(ms)", "overhead"
    );

    // Quicksort, n = 2,000,000.
    {
        let base: Vec<i64> = make_input(2_000_000);
        let serial = cilk_bench::time_min(runs, || {
            let mut v = base.clone();
            qsort::qsort_serial(&mut v);
            v
        });
        let parallel = cilk_bench::time_min(runs, || {
            let mut v = base.clone();
            pool.install(|| qsort::qsort(&mut v));
            v.len()
        });
        row("qsort n=2e6", serial, parallel);
    }

    // fib(32) with cutoff 16 (the production-grain configuration).
    {
        let serial = cilk_bench::time_min(runs, || fib::fib_serial(32));
        let parallel = cilk_bench::time_min(runs, || pool.install(|| fib::fib_cutoff(32, 16)));
        row("fib(32), cutoff 16", serial, parallel);
    }

    // fib(24) with cutoff 0: a spawn at every call — worst case.
    {
        let serial = cilk_bench::time_min(runs, || fib::fib_serial(24));
        let parallel = cilk_bench::time_min(runs, || pool.install(|| fib::fib_cutoff(24, 0)));
        row("fib(24), spawn-everywhere", serial, parallel);
    }

    // Matrix multiply 256×256.
    {
        let a = matmul::Matrix::random(256, 1);
        let b = matmul::Matrix::random(256, 2);
        let serial = cilk_bench::time_min(runs, || matmul::matmul_serial(&a, &b));
        let parallel = cilk_bench::time_min(runs, || pool.install(|| matmul::matmul(&a, &b)));
        row("matmul 256×256", serial, parallel);
    }

    println!(
        "\nThe paper's claim (<2% with production grain sizes) applies to the\n\
         grained rows; the spawn-everywhere row shows the raw per-spawn cost\n\
         that grain-size coarsening amortizes away."
    );
}

fn make_input(n: usize) -> Vec<i64> {
    let mut state = 0x0123_4567_89AB_CDEFu64;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as i64
        })
        .collect()
}

fn row(label: &str, serial: std::time::Duration, parallel: std::time::Duration) {
    let overhead = parallel.as_secs_f64() / serial.as_secs_f64() - 1.0;
    println!(
        "{:<26} {:>12} {:>12} {:>9.1}%",
        label,
        cilk_bench::ms(serial),
        cilk_bench::ms(parallel),
        overhead * 100.0
    );
}
