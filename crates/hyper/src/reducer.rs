//! The [`Reducer`] hyperobject.
//!
//! "A Cilk++ reducer hyperobject is a linguistic construct that allows many
//! strands to coordinate in updating a shared variable or data structure
//! independently by providing them different but coordinated views of the
//! same object." (§5)

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::frames::{self, recover, Checkout, SlotOps, ViewSlot};
use crate::monoid::{And, ListAppend, Max, Min, Monoid, Or, StrCat, Sum};

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Shared core of one reducer: the monoid plus the leftmost (root) view.
pub(crate) struct Core<M: Monoid> {
    monoid: M,
    root: Mutex<Option<M::Value>>,
}

impl<M: Monoid> SlotOps for Core<M> {
    fn merge(&self, left: Option<&mut (dyn Any + Send)>, right: Box<dyn Any + Send>) {
        let right = *right.downcast::<M::Value>().expect("view type mismatch");
        match left {
            Some(left) => self.monoid.reduce(left.downcast_mut().expect("view type mismatch"), right),
            None => {
                // Recover from poison: a panicking user `reduce` must not
                // cascade into every later access of this reducer (see
                // `frames::recover`).
                let mut root = recover(self.root.lock());
                match root.as_mut() {
                    Some(left) => self.monoid.reduce(left, right),
                    None => *root = Some(right),
                }
            }
        }
    }
}

/// A reducer hyperobject over monoid `M`.
///
/// Strands update the reducer through [`Reducer::with`] (or the
/// convenience methods of the aliases below) without any locking; the
/// runtime supplies a private view to every stolen strand and reduces
/// views with the monoid's associative operation when strands join,
/// "maintaining the proper ordering so that the resulting [value] contains
/// the identical elements in the same order as in a serial execution" (§5).
///
/// Views follow the runtime's steals: once [`crate::follow_steals`] has
/// run, every stolen `join` continuation runs under a fresh frame, and so
/// does every task of this crate's [`crate::scope`]. This crate's forks,
/// the `cilk` facade's and every reducer constructor run it first, so a
/// global reducer created lazily inside a loop is covered. A program that
/// forks only through `cilk_runtime` and reaches such a reducer calls it
/// before its first fork. A task of a plain `cilk_runtime::scope` gets no
/// frame and would race.
///
/// # Examples
///
/// ```
/// use cilk_hyper::{join, ReducerSum};
///
/// let total = ReducerSum::<u64>::sum();
/// join(
///     || total.with(|t| *t += 1),
///     || total.with(|t| *t += 2),
/// );
/// assert_eq!(total.into_value(), 3);
/// ```
pub struct Reducer<M: Monoid> {
    // Beside the `Arc`, not behind it: an access in a frame never reads
    // the line the root lock lives on.
    id: u64,
    core: Arc<Core<M>>,
}

impl<M: Monoid> std::fmt::Debug for Reducer<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reducer").field("id", &self.id).finish_non_exhaustive()
    }
}

impl<M: Monoid> Reducer<M> {
    /// Creates a reducer with the given monoid; the leftmost view starts at
    /// the identity.
    pub fn new(monoid: M) -> Self {
        frames::follow_steals();
        let core = Arc::new(Core { monoid, root: Mutex::new(None) });
        Reducer { id: NEXT_ID.fetch_add(1, Ordering::Relaxed), core }
    }

    /// Creates a reducer whose leftmost view starts at `initial` (like
    /// declaring a nonlocal variable with an initializer).
    pub fn with_initial(monoid: M, initial: M::Value) -> Self {
        frames::follow_steals();
        let core = Arc::new(Core { monoid, root: Mutex::new(Some(initial)) });
        Reducer { id: NEXT_ID.fetch_add(1, Ordering::Relaxed), core }
    }

    /// The reducer's unique identity.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Grants the current strand mutable access to **its** view.
    ///
    /// "A strand can access and change any of its view's state
    /// independently, without synchronizing with other strands." (§5)
    /// Inside a steal context (a stolen continuation, a [`crate::scope`]
    /// task) an access touches only the calling thread's own memory — a
    /// linear search of the frame's few views; no lock, reference count or
    /// hashing — and the reducer itself only when the view is created, once
    /// per steal. In root context (no steal above the strand) it is one
    /// lock and unlock of the leftmost view's mutex, uncontended unless
    /// several root-context threads share the reducer. Nothing is borrowed
    /// while `f` runs: it may update other reducers and may fork.
    ///
    /// `f` may run a loop leaf's whole loop. That is how a `cilk_for` leaf
    /// feeds a list reducer: one access per leaf, each update pushed
    /// straight into the view. A per-leaf buffer appended once costs an
    /// allocation per leaf instead, and `malloc` takes the lock of an arena
    /// the workers may share.
    ///
    /// # Panics
    ///
    /// If `f` re-enters *this* reducer — calls `with` on it, or joins a
    /// strand that updated it — naming [`Reducer::id`], in either context.
    pub fn with<R>(&self, f: impl FnOnce(&mut M::Value) -> R) -> R {
        // Bracket the whole access for the race detector (§5 suppression).
        // No-op unless this thread is monitored.
        let _view = cilk_runtime::probe::view_access(self.id);
        let mut lease = match frames::checkout(self.id) {
            Checkout::Held(lease) => lease,
            Checkout::Absent => {
                let identity = Box::new(self.core.monoid.identity());
                frames::install(self.id, ViewSlot::new(identity, self.core.clone()))
            }
            Checkout::Root(_held) => {
                let mut root = recover(self.core.root.lock());
                return f(root.get_or_insert_with(|| self.core.monoid.identity()));
            }
        };
        f(lease.view().downcast_mut().expect("view type mismatch"))
    }

    /// Consumes the reducer and returns the fully reduced value.
    ///
    /// Call after all parallel work involving the reducer has synced (e.g.
    /// after the enclosing [`crate::join`]/[`crate::scope`] returned); at
    /// that point every stolen view has been folded into the leftmost view.
    pub fn into_value(self) -> M::Value {
        self.take()
    }

    /// Takes the current leftmost value, resetting it to the identity.
    pub fn take(&self) -> M::Value {
        let taken = recover(self.core.root.lock()).take();
        taken.unwrap_or_else(|| self.core.monoid.identity())
    }
}

/// A list-append reducer (the paper's `reducer_list_append`).
pub type ReducerList<T> = Reducer<ListAppend<T>>;

impl<T: Send + 'static> ReducerList<T> {
    /// Creates an empty list-append reducer.
    pub fn list() -> Self {
        Reducer::new(ListAppend::new())
    }

    /// Appends `value` to the current strand's view — the reducer form of
    /// `output_list.push_back(x)` in Fig. 7.
    pub fn push_back(&self, value: T) {
        self.with(|v| v.push(value));
    }
}

/// An addition reducer (the paper's "add" reducer / `reducer_opadd`).
pub type ReducerSum<T> = Reducer<Sum<T>>;

impl<T> ReducerSum<T>
where
    T: std::ops::AddAssign + Default + Send + 'static,
{
    /// Creates a zero-initialized sum reducer.
    pub fn sum() -> Self {
        Reducer::new(Sum::new())
    }

    /// Adds `value` to the current strand's view.
    pub fn add(&self, value: T) {
        self.with(|v| *v += value);
    }
}

/// A minimum reducer.
pub type ReducerMin<T> = Reducer<Min<T>>;

impl<T: Ord + Send + 'static> ReducerMin<T> {
    /// Creates an empty min reducer.
    pub fn min() -> Self {
        Reducer::new(Min::new())
    }

    /// Offers `value` as a candidate minimum.
    pub fn update(&self, value: T) {
        self.with(|v| self.core.monoid.reduce(v, Some(value)));
    }
}

/// A maximum reducer.
pub type ReducerMax<T> = Reducer<Max<T>>;

impl<T: Ord + Send + 'static> ReducerMax<T> {
    /// Creates an empty max reducer.
    pub fn max() -> Self {
        Reducer::new(Max::new())
    }

    /// Offers `value` as a candidate maximum.
    pub fn update(&self, value: T) {
        self.with(|v| self.core.monoid.reduce(v, Some(value)));
    }
}

/// A logical-AND reducer (`true` until any strand reports `false`).
pub type ReducerAnd = Reducer<And>;

impl ReducerAnd {
    /// Creates a `true`-initialized AND reducer.
    pub fn and() -> Self {
        Reducer::new(And)
    }

    /// ANDs `value` into the current strand's view.
    pub fn record(&self, value: bool) {
        self.with(|v| *v = *v && value);
    }
}

/// A logical-OR reducer (`false` until any strand reports `true`).
pub type ReducerOr = Reducer<Or>;

impl ReducerOr {
    /// Creates a `false`-initialized OR reducer.
    pub fn or() -> Self {
        Reducer::new(Or)
    }

    /// ORs `value` into the current strand's view.
    pub fn record(&self, value: bool) {
        self.with(|v| *v = *v || value);
    }
}

/// A string-concatenation reducer.
pub type ReducerString = Reducer<StrCat>;

impl ReducerString {
    /// Creates an empty string reducer.
    pub fn string() -> Self {
        Reducer::new(StrCat)
    }

    /// Appends `s` to the current strand's view.
    pub fn append(&self, s: &str) {
        self.with(|v| v.push_str(s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_updates_accumulate_in_root() {
        let r = ReducerSum::<u64>::sum();
        r.add(3);
        r.add(4);
        assert_eq!(r.into_value(), 7);
    }

    #[test]
    fn with_initial_seeds_value() {
        let r = Reducer::with_initial(Sum::<u64>::new(), 100);
        r.add(1);
        assert_eq!(r.into_value(), 101);
    }

    #[test]
    fn take_resets_to_identity() {
        let r = ReducerList::<u8>::list();
        r.push_back(1);
        assert_eq!(r.take(), vec![1]);
        assert_eq!(r.take(), Vec::<u8>::new());
    }

    #[test]
    fn ids_are_unique() {
        let a = ReducerSum::<u32>::sum();
        let b = ReducerSum::<u32>::sum();
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn min_max_track_extremes() {
        let lo = ReducerMin::<i32>::min();
        let hi = ReducerMax::<i32>::max();
        for v in [5, -2, 9, 0] {
            lo.update(v);
            hi.update(v);
        }
        assert_eq!(lo.into_value(), Some(-2));
        assert_eq!(hi.into_value(), Some(9));
    }

    #[test]
    fn string_appends() {
        let s = ReducerString::string();
        s.append("hello ");
        s.append("world");
        assert_eq!(s.into_value(), "hello world");
    }

    #[test]
    fn and_or_reducers() {
        let all_ok = ReducerAnd::and();
        let any_hit = ReducerOr::or();
        crate::join(
            || {
                all_ok.record(true);
                any_hit.record(false);
            },
            || {
                all_ok.record(false);
                any_hit.record(true);
            },
        );
        assert!(!all_ok.into_value());
        assert!(any_hit.into_value());
    }

    /// The counted form of "an access writes no shared line": the only
    /// references on the reducer's `Arc` are the handle and one per live
    /// slot, whatever the number of accesses.
    #[test]
    fn accesses_leave_the_reference_count_alone() {
        let _serial = frames::view_test_lock();
        let r = ReducerSum::<u64>::sum();
        for _ in 0..10_000 {
            r.add(1);
            assert_eq!(Arc::strong_count(&r.core), 1, "root context: the handle alone");
        }
        let outer = frames::FrameGuard::push();
        for _ in 0..10_000 {
            r.add(1);
            assert_eq!(Arc::strong_count(&r.core), 2, "one slot in the frame");
        }
        let inner = frames::FrameGuard::push();
        r.add(1);
        assert_eq!(Arc::strong_count(&r.core), 3, "a slot per frame the reducer was touched in");
        frames::merge_frame_into_current(inner.take());
        assert_eq!(Arc::strong_count(&r.core), 2, "a merged slot gives its reference up");
        frames::merge_frame_into_current(outer.take());
        assert_eq!(Arc::strong_count(&r.core), 1);
        assert_eq!(r.into_value(), 20_001);
    }

    #[test]
    fn empty_reducer_yields_identity() {
        let r = ReducerList::<u8>::list();
        assert!(r.into_value().is_empty());
    }
}
