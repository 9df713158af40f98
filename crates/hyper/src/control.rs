//! Reducer-aware control constructs: `join`, `scope`, and `for_each_index`.
//!
//! They follow the view-frame protocol of §5: a stolen continuation starts
//! with fresh identity views; when strands join, views are reduced in
//! serial order. For `join` the runtime does it on its steal path (see
//! [`crate::frames`]). Each construct first makes sure the view frames are
//! registered there ([`crate::follow_steals`], one load and a branch), so
//! [`join`] is that check and `cilk_runtime::join`, and an un-stolen `join`
//! is the runtime's push, call and pop. A one-worker `fib_cutoff(28, 0)`
//! through it reads 12.1–12.5 ns per join, a copy of the same recursion
//! over `cilk_runtime::join` 11.9–12.2 ns (min of 40 solves, four runs,
//! 2-vCPU x86-64 box). `scope` wraps each of its tasks in a frame.
//!
//! [`for_each_index`] is the same check and `cilk_runtime::for_each_index`,
//! the one loop recursion, so a reducer-aware loop keeps the runtime
//! loop's panic contract: the first panicking iteration cancels the chunks
//! that have not started, the panic resumes at the loop once the running
//! chunks have come to rest, and no index runs twice. Each chunk it runs
//! is a `LoopChunk` probe event and a `loop-chunk` fault point.

use std::sync::Mutex;

use crate::frames::{self, Frame, FrameGuard};

/// Reducer-aware fork-join: [`cilk_runtime::join`] once this crate's view
/// frames are registered, so its stolen continuations get hyperobject
/// views per §5.
///
/// `a` is the spawned child (runs on the calling worker), `b` the
/// continuation (stealable). If `b` is stolen, its strand sees fresh
/// identity views; when both complete, `b`'s views are reduced into the
/// caller's in the order a serial execution would have produced.
///
/// # Panics
///
/// Propagates panics like `cilk_runtime::join`; views of a stolen `b` are
/// discarded if either side panicked.
///
/// # Examples
///
/// ```
/// use cilk_hyper::{join, ReducerList};
///
/// let list = ReducerList::<u32>::list();
/// join(
///     || list.push_back(1), // serially first
///     || list.push_back(2), // serially second
/// );
/// assert_eq!(list.into_value(), vec![1, 2]);
/// ```
#[inline(always)]
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    frames::follow_steals();
    cilk_runtime::join(a, b)
}

/// A reducer-aware scope; created by [`scope`].
pub struct Scope<'s, 'scope> {
    inner: &'s cilk_runtime::Scope<'scope>,
    // Raw pointer rather than a `'scope` borrow: `'scope` is a
    // caller-chosen brand, while the collection lives on `scope`'s stack
    // frame. Validity: every spawned task finishes before
    // `cilk_runtime::scope` returns, which happens before the collection
    // is dropped.
    collected: *const Mutex<Vec<(u64, Frame)>>,
}

/// Send-able wrapper for the collection pointer captured by task closures.
#[derive(Clone, Copy)]
struct CollectedPtr(*const Mutex<Vec<(u64, Frame)>>);
// SAFETY: see the comment on `Scope::collected`.
unsafe impl Send for CollectedPtr {}

impl std::fmt::Debug for Scope<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope").finish_non_exhaustive()
    }
}

impl<'scope> Scope<'_, 'scope> {
    /// Spawns `body` as a task of the scope. Every task runs with fresh
    /// hyperobject views; at scope exit the views of all tasks are reduced
    /// in **spawn order**, after the scope body's own updates, making the
    /// final value independent of the dynamic schedule.
    pub fn spawn<F>(&self, body: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        let collected = CollectedPtr(self.collected);
        self.inner.spawn(move |ctx| {
            let collected = collected;
            let guard = FrameGuard::push();
            body();
            let frame = guard.take();
            // A task that touched no reducer has nothing to reduce at scope
            // exit, and stays off the scope-wide lock.
            if frame.is_empty() {
                return;
            }
            // SAFETY: the collection outlives all tasks of this scope.
            let collected = unsafe { &*collected.0 };
            frames::recover(collected.lock()).push((ctx.seq(), frame));
        });
    }
}

/// Reducer-aware structured task parallelism: like
/// [`cilk_runtime::scope`], but tasks' hyperobject views are collected and
/// reduced deterministically (spawn order) when the scope completes.
///
/// # Examples
///
/// ```
/// use cilk_hyper::{scope, ReducerList};
///
/// let list = ReducerList::<usize>::list();
/// scope(|s| {
///     for i in 0..8 {
///         let list = &list;
///         s.spawn(move || list.push_back(i));
///     }
/// });
/// assert_eq!(list.into_value(), (0..8).collect::<Vec<_>>());
/// ```
pub fn scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'_, 'scope>) -> R + Send,
    R: Send,
{
    frames::follow_steals();
    let collected: Mutex<Vec<(u64, Frame)>> = Mutex::new(Vec::new());
    let result = {
        let collected_ptr = CollectedPtr(&collected);
        cilk_runtime::scope(move |inner| {
            // Capture the whole Send wrapper, not its raw-pointer field
            // (edition-2021 closures capture disjoint fields by default).
            let collected_ptr = collected_ptr;
            let scope = Scope { inner, collected: collected_ptr.0 };
            op(&scope)
        })
    };
    let mut frames_in_order = frames::recover(collected.into_inner());
    frames_in_order.sort_by_key(|(seq, _)| *seq);
    for (_seq, frame) in frames_in_order {
        frames::merge_frame_into_current(frame);
    }
    result
}

/// Reducer-aware `cilk_for`: [`cilk_runtime::for_each_index`] with an
/// explicit grain, once this crate's view frames are registered, so
/// hyperobject updates inside the loop land in serial iteration order.
///
/// # Panics
///
/// The runtime loop's contract: the first panicking iteration cancels the
/// chunks that have not started, and the panic resumes here once every
/// running chunk has come to rest, so each index runs at most once.
///
/// # Examples
///
/// ```
/// use cilk_hyper::{for_each_index, ReducerList};
///
/// let order = ReducerList::<usize>::list();
/// for_each_index(0..100, 10, |i| order.push_back(i));
/// assert_eq!(order.into_value(), (0..100).collect::<Vec<_>>());
/// ```
pub fn for_each_index<F>(range: std::ops::Range<usize>, grain: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    frames::follow_steals();
    cilk_runtime::for_each_index(range, cilk_runtime::Grain::Explicit(grain), body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reducer::{ReducerList, ReducerSum};

    fn walk(list: &ReducerList<u64>, lo: u64, hi: u64) {
        if hi - lo == 1 {
            list.push_back(lo);
            return;
        }
        let mid = lo + (hi - lo) / 2;
        join(|| walk(list, lo, mid), || walk(list, mid, hi));
    }

    #[test]
    fn join_preserves_serial_order_recursive() {
        let _serial = crate::frames::view_test_lock();
        let list = ReducerList::<u64>::list();
        walk(&list, 0, 512);
        assert_eq!(list.into_value(), (0..512).collect::<Vec<_>>());
    }

    /// On one worker nothing is stolen, so a `join` tree runs every leaf
    /// at frame depth 0 and creates no frame-held view.
    #[test]
    fn an_unstolen_join_tree_pushes_no_frame() {
        use crate::frames::{frame_depth, live_views};

        fn tree(list: &ReducerList<u64>, lo: u64, hi: u64) {
            if hi - lo == 1 {
                list.push_back(lo);
                assert_eq!((frame_depth(), live_views()), (0, 0), "leaf {lo}");
                return;
            }
            let mid = lo + (hi - lo) / 2;
            join(|| tree(list, lo, mid), || tree(list, mid, hi));
        }
        let _serial = crate::frames::view_test_lock();
        let pool = cilk_runtime::ThreadPool::with_config(cilk_runtime::Config::new().num_workers(1))
            .expect("pool");
        let list = ReducerList::<u64>::list();
        let after = pool.install(|| {
            tree(&list, 0, 256);
            (frame_depth(), live_views())
        });
        assert_eq!(after, (0, 0));
        assert_eq!(pool.metrics().steals, 0);
        assert_eq!(list.into_value(), (0..256).collect::<Vec<_>>());
    }

    #[test]
    fn join_sums_correctly() {
        let _serial = crate::frames::view_test_lock();
        let total = ReducerSum::<u64>::sum();
        fn add_range(total: &ReducerSum<u64>, lo: u64, hi: u64) {
            if hi - lo <= 4 {
                for v in lo..hi {
                    total.add(v);
                }
                return;
            }
            let mid = lo + (hi - lo) / 2;
            join(|| add_range(total, lo, mid), || add_range(total, mid, hi));
        }
        add_range(&total, 0, 10_000);
        assert_eq!(total.into_value(), 10_000u64 * 9999 / 2);
    }

    #[test]
    fn scope_merges_in_spawn_order() {
        let _serial = crate::frames::view_test_lock();
        let list = ReducerList::<usize>::list();
        scope(|s| {
            for i in 0..64 {
                let list = &list;
                s.spawn(move || list.push_back(i));
            }
        });
        assert_eq!(list.into_value(), (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_order_preserved_many_grains() {
        let _serial = crate::frames::view_test_lock();
        for grain in [1usize, 3, 16, 1000] {
            let order = ReducerList::<usize>::list();
            for_each_index(0..500, grain, |i| order.push_back(i));
            assert_eq!(order.into_value(), (0..500).collect::<Vec<_>>(), "grain {grain}");
        }
    }

    #[test]
    fn nested_joins_and_scopes_compose() {
        let _serial = crate::frames::view_test_lock();
        let total = ReducerSum::<u64>::sum();
        scope(|s| {
            for _ in 0..4 {
                let total = &total;
                s.spawn(move || {
                    join(|| total.add(1), || total.add(2));
                });
            }
        });
        assert_eq!(total.into_value(), 12);
    }

    #[test]
    fn panic_in_branch_discards_views_but_unwinds() {
        let _serial = crate::frames::view_test_lock();
        let list = ReducerList::<u8>::list();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            join(
                || list.push_back(1),
                || {
                    list.push_back(2);
                    panic!("branch dies");
                },
            );
        }));
        assert!(result.is_err());
        // No guarantee about partial contents, but the reducer must still
        // be usable and eventually drainable.
        let _ = list.into_value();
    }
}
