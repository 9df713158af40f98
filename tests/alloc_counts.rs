//! Heap allocations per solve, counted by this binary's global allocator.
//!
//! A strand changes its reducer view "without synchronizing with other
//! strands" (§5), yet a heap allocation can synchronize workers: glibc's
//! `malloc` and `realloc` lock the arena that owns the chunk, and blocks
//! freed across workers (a thief's views, merged by the joiner) let two
//! workers' buffers share an arena. So the hot paths allocate per level or
//! per steal, never per loop leaf or per spawn:
//!
//! - BFS of `Graph::random(100_000, 8, 7)` (10 levels, 1 558 leaves of 64
//!   vertices) allocates per level (the level's reducer, the growth of its
//!   leftmost view) and per steal (the thief's view and frame, their growth,
//!   the merge). A leaf that collected its finds in its own `Vec` made
//!   ~5 000 allocations per solve; a leaf that pushes into its view makes
//!   86 on one worker.
//! - `join`, un-stolen or stolen, allocates nothing: `fib_cutoff(22, 0)` and
//!   `qsort` allocate what an empty `install` trip does, whatever their
//!   steal count. The one exception is amortized: a worker's stack of view
//!   frames (one per stolen continuation it is running) doubles its
//!   capacity when stolen continuations first nest deeper on it than ever
//!   before (seen: 4 -> 8, once per worker, on four workers).
//!
//! The binary holds one test, so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cilk::{Config, ThreadPool};
use cilk_workloads::bfs::{bfs, bfs_serial, Graph};
use cilk_workloads::{fib_cutoff, qsort};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// `System`, counting every call that hands out memory.
struct Counting;

// SAFETY: every method forwards its arguments to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations a BFS solve may make per level (measured: 8.6).
const BFS_ALLOCS_PER_LEVEL: u64 = 12;
/// Allocations a BFS solve may make per steal (measured: 13-14).
const BFS_ALLOCS_PER_STEAL: u64 = 20;
/// Capacity doublings of one worker's view-frame stack the counted solves
/// may show: to 8, 16 and 32 nested stolen continuations.
const FRAME_STACK_DOUBLINGS: u64 = 3;
/// Counted `fib_cutoff` and `qsort` solves per pool.
const SOLVES: usize = 10;

/// Allocations and steals of `pool.install(f)`.
fn count(pool: &ThreadPool, f: impl FnOnce() + Send) -> (u64, u64) {
    let steals = pool.metrics().steals;
    let allocs = ALLOCS.load(Ordering::Relaxed);
    pool.install(f);
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;
    (allocs, pool.metrics().steals - steals)
}

#[test]
fn allocations_scale_with_levels_and_steals_not_with_leaves_or_spawns() {
    let graph = Graph::random(100_000, 8, 7);
    let dist = bfs_serial(&graph, 0);
    let levels = *dist.iter().max().expect("a source") as u64 + 1;
    let unsorted: Vec<i64> = (0..200_000).map(|i| (i * 48_271) % 65_537 - 32_768).collect();
    let mut sorted = unsorted.clone();
    sorted.sort_unstable();
    for workers in [1, 2, 4] {
        let pool = ThreadPool::with_config(Config::new().num_workers(workers)).expect("pool");
        // Warm up: the workers' thread-locals and deques reach their size.
        let mut v = unsorted.clone();
        pool.install(|| {
            assert_eq!(bfs(&graph, 0), dist);
            assert_eq!(fib_cutoff(22, 0), 17_711);
            qsort(&mut v);
        });
        let (trip, _) = count(&pool, || {});

        for solve in 0..3 {
            let (allocs, steals) = count(&pool, || assert_eq!(bfs(&graph, 0), dist));
            let bound = BFS_ALLOCS_PER_LEVEL * levels + BFS_ALLOCS_PER_STEAL * steals;
            eprintln!("bfs, {workers} workers: {allocs} allocations, {levels} levels, {steals} steals");
            assert!(
                allocs <= bound,
                "{workers} workers, solve {solve}: BFS made {allocs} allocations, over \
                 {BFS_ALLOCS_PER_LEVEL} x {levels} levels + {BFS_ALLOCS_PER_STEAL} x {steals} steals"
            );
        }

        let (mut extra, mut steals) = (0, 0);
        for _ in 0..SOLVES {
            let (fib_allocs, fib_steals) = count(&pool, || assert_eq!(fib_cutoff(22, 0), 17_711));
            let mut v = unsorted.clone();
            let (qsort_allocs, qsort_steals) = count(&pool, || qsort(&mut v));
            assert_eq!(v, sorted);
            extra += fib_allocs.saturating_sub(trip) + qsort_allocs.saturating_sub(trip);
            steals += fib_steals + qsort_steals;
        }
        eprintln!(
            "fib + qsort, {workers} workers: {extra} allocations beyond {} install trips of {trip}, \
             {steals} steals",
            2 * SOLVES
        );
        let doublings = if workers == 1 { 0 } else { FRAME_STACK_DOUBLINGS * workers as u64 };
        assert!(
            extra <= doublings,
            "{workers} workers: {SOLVES} fib_cutoff and qsort solves each made {extra} allocations \
             beyond an empty install trip's {trip} ({steals} steals); the workers' frame stacks \
             account for at most {doublings}"
        );
    }
}
