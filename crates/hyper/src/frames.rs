//! View frames: the per-worker machinery that gives each strand its view.
//!
//! "The state of a hyperobject as seen by a strand of an execution is
//! called the strand's *view*." (§5) A worker's thread-local **frame
//! stack** holds one frame per active steal context: when a stolen
//! continuation starts executing, a fresh (empty) frame is pushed, so
//! every hyperobject lazily materializes a fresh identity view in it; when
//! the corresponding join completes, the frame's views are reduced — in
//! serial order — into the caller's views.

use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Extracts a lock guard, recovering from poison. Sound here: the states
/// behind cilk-hyper's locks (a root view `Option`, a frame collection
/// `Vec`) stay usable after a panicking user closure — a half-reduced view
/// is a best-effort value, strictly better than cascading the panic into
/// every later reducer access on unrelated strands.
pub(crate) fn recover<T>(result: std::sync::LockResult<T>) -> T {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Count of reducer views currently alive in frames anywhere in the
/// process (root views excluded: they belong to their reducer, not to the
/// steal structure).
static LIVE_VIEWS: AtomicI64 = AtomicI64::new(0);

/// Number of frame-held reducer views currently alive process-wide.
///
/// After every `join`/`scope`/`for_each_index` of this crate has returned
/// — normally *or by panic* — this is zero: each view created for a stolen
/// strand is either merged (consumed) exactly once or dropped on the
/// unwind path. The fault-injection matrix asserts exactly that.
pub fn live_views() -> i64 {
    LIVE_VIEWS.load(Ordering::SeqCst)
}

/// A frame-owned reducer view with leak accounting: creation increments
/// [`live_views`], consumption (merge) or drop decrements it, so a view
/// can neither leak nor be double-consumed without the balance showing it.
pub(crate) struct ViewBox(Option<Box<dyn Any + Send>>);

impl ViewBox {
    pub(crate) fn new(value: Box<dyn Any + Send>) -> ViewBox {
        LIVE_VIEWS.fetch_add(1, Ordering::SeqCst);
        ViewBox(Some(value))
    }

    /// Consumes the view for a merge, settling its accounting.
    pub(crate) fn into_inner(mut self) -> Box<dyn Any + Send> {
        let value = self.0.take().expect("view already consumed");
        LIVE_VIEWS.fetch_sub(1, Ordering::SeqCst);
        value
    }

    pub(crate) fn as_box_mut(&mut self) -> &mut Box<dyn Any + Send> {
        self.0.as_mut().expect("view already consumed")
    }

    #[cfg(test)]
    pub(crate) fn as_box(&self) -> &Box<dyn Any + Send> {
        self.0.as_ref().expect("view already consumed")
    }
}

impl Drop for ViewBox {
    fn drop(&mut self) {
        // Discard path (e.g. a frame dropped during unwind): the view dies
        // here, exactly once.
        if self.0.is_some() {
            LIVE_VIEWS.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Type-erased per-reducer operations a view slot needs: identity creation
/// and ordered merging, plus access to the reducer's leftmost (root) view.
pub(crate) trait SlotOps: Send + Sync {
    /// A fresh identity view, boxed.
    fn identity_view(&self) -> Box<dyn Any + Send>;
    /// `left = left ⊗ right` (order matters).
    fn merge(&self, left: &mut Box<dyn Any + Send>, right: Box<dyn Any + Send>);
    /// Reduces `right` into the reducer's leftmost view.
    fn merge_into_root(&self, right: Box<dyn Any + Send>);
}

/// One hyperobject's view within a frame.
pub(crate) struct ViewSlot {
    pub(crate) value: ViewBox,
    pub(crate) ops: Arc<dyn SlotOps>,
}

impl std::fmt::Debug for ViewSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewSlot").finish_non_exhaustive()
    }
}

/// A frame: the set of views created since one steal point.
#[derive(Debug, Default)]
pub struct Frame {
    pub(crate) slots: HashMap<u64, ViewSlot>,
}

thread_local! {
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for a pushed frame; popping on drop keeps the stack balanced
/// even if the guarded closure panics.
#[derive(Debug)]
pub(crate) struct FrameGuard {
    taken: bool,
}

impl FrameGuard {
    /// Pushes a fresh frame on the current thread.
    pub(crate) fn push() -> FrameGuard {
        FRAMES.with(|f| f.borrow_mut().push(Frame::default()));
        FrameGuard { taken: false }
    }

    /// Pops and returns the frame (normal completion path).
    pub(crate) fn take(mut self) -> Frame {
        self.taken = true;
        FRAMES.with(|f| f.borrow_mut().pop()).expect("frame stack underflow")
    }
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        if !self.taken {
            // Panic path: discard the frame's views.
            let _ = FRAMES.with(|f| f.borrow_mut().pop());
        }
    }
}

/// Runs `f` with mutable access to the top frame, if any. Returns `None`
/// when the frame stack is empty (the strand runs in root context).
pub(crate) fn with_top_frame<R>(f: impl FnOnce(&mut Frame) -> R) -> Option<R> {
    FRAMES.with(|frames| {
        let mut frames = frames.borrow_mut();
        frames.last_mut().map(f)
    })
}

/// Merges `frame` (the views of a completed stolen continuation or scope
/// task) into the current context: slot-by-slot into the top frame, or
/// into each reducer's root view when the stack is empty.
///
/// Views of distinct hyperobjects are independent; within one hyperobject
/// the merge is ordered `current ⊗ incoming`.
pub(crate) fn merge_frame_into_current(frame: Frame) {
    // The `view-merge` fault point fires before any view is consumed: an
    // injected panic here drops `frame` whole, so every view dies exactly
    // once on the unwind path and `live_views` stays balanced.
    cilk_runtime::fault::fault_point(cilk_runtime::fault::FaultSite::ViewMerge);
    cilk_runtime::probe::emit(&cilk_runtime::probe::ProbeEvent::ViewMerge {
        views: frame.slots.len(),
    });
    let leftovers = FRAMES.with(|frames| {
        let mut frames = frames.borrow_mut();
        match frames.last_mut() {
            Some(top) => {
                for (id, slot) in frame.slots {
                    // Ordered merges touch both views: bracket them for the
                    // race detector like any other view access (§5).
                    let _view = cilk_runtime::probe::view_access(id);
                    match top.slots.entry(id) {
                        std::collections::hash_map::Entry::Occupied(mut cur) => {
                            let ops = Arc::clone(&cur.get().ops);
                            ops.merge(cur.get_mut().value.as_box_mut(), slot.value.into_inner());
                        }
                        std::collections::hash_map::Entry::Vacant(v) => {
                            // Current context held the identity: identity ⊗ x = x.
                            v.insert(slot);
                        }
                    }
                }
                None
            }
            None => Some(frame),
        }
    });
    if let Some(frame) = leftovers {
        for (id, slot) in frame.slots {
            let _view = cilk_runtime::probe::view_access(id);
            slot.ops.merge_into_root(slot.value.into_inner());
        }
    }
}

/// Depth of the current thread's frame stack (for tests/diagnostics).
#[cfg(test)]
pub(crate) fn frame_depth() -> usize {
    FRAMES.with(|f| f.borrow().len())
}

/// Serializes tests that create views: [`live_views`] is process-global,
/// so exact-balance assertions require that no other test is concurrently
/// creating or consuming views.
#[cfg(test)]
pub(crate) fn view_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    recover(LOCK.lock())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    struct VecOps {
        root: Mutex<Vec<u32>>,
    }

    impl SlotOps for VecOps {
        fn identity_view(&self) -> Box<dyn Any + Send> {
            Box::new(Vec::<u32>::new())
        }
        fn merge(&self, left: &mut Box<dyn Any + Send>, right: Box<dyn Any + Send>) {
            let right = *right.downcast::<Vec<u32>>().expect("vec view");
            left.downcast_mut::<Vec<u32>>().expect("vec view").extend(right);
        }
        fn merge_into_root(&self, right: Box<dyn Any + Send>) {
            let right = *right.downcast::<Vec<u32>>().expect("vec view");
            self.root.lock().expect("root lock").extend(right);
        }
    }

    #[test]
    fn guard_balances_on_take() {
        assert_eq!(frame_depth(), 0);
        let g = FrameGuard::push();
        assert_eq!(frame_depth(), 1);
        let frame = g.take();
        assert_eq!(frame_depth(), 0);
        assert!(frame.slots.is_empty());
    }

    #[test]
    fn guard_balances_on_drop() {
        let g = FrameGuard::push();
        assert_eq!(frame_depth(), 1);
        drop(g);
        assert_eq!(frame_depth(), 0);
    }

    #[test]
    fn merge_into_root_when_no_frames() {
        let _serial = view_test_lock();
        let ops = Arc::new(VecOps { root: Mutex::new(vec![1]) });
        let mut frame = Frame::default();
        frame.slots.insert(
            7,
            ViewSlot { value: ViewBox::new(Box::new(vec![2u32, 3])), ops: ops.clone() },
        );
        merge_frame_into_current(frame);
        assert_eq!(*ops.root.lock().expect("lock"), vec![1, 2, 3]);
    }

    #[test]
    fn merge_into_top_frame_preserves_order() {
        let _serial = view_test_lock();
        let ops = Arc::new(VecOps { root: Mutex::new(Vec::new()) });
        let g = FrameGuard::push();
        with_top_frame(|top| {
            top.slots.insert(
                7,
                ViewSlot { value: ViewBox::new(Box::new(vec![10u32])), ops: ops.clone() },
            );
        });
        let mut incoming = Frame::default();
        incoming.slots.insert(
            7,
            ViewSlot { value: ViewBox::new(Box::new(vec![20u32, 30])), ops: ops.clone() },
        );
        merge_frame_into_current(incoming);
        let frame = g.take();
        let v = frame.slots[&7]
            .value
            .as_box()
            .downcast_ref::<Vec<u32>>()
            .expect("vec view");
        assert_eq!(*v, vec![10, 20, 30], "current ⊗ incoming order");
    }

    #[test]
    fn view_box_balances_on_consume_and_on_drop() {
        let _serial = view_test_lock();
        let before = live_views();
        let a = ViewBox::new(Box::new(1u8));
        let b = ViewBox::new(Box::new(2u8));
        assert_eq!(live_views(), before + 2);
        drop(a.into_inner());
        assert_eq!(live_views(), before + 1, "consume settles the count");
        drop(b);
        assert_eq!(live_views(), before, "drop settles the count");
    }

    #[test]
    fn dropped_frame_releases_views() {
        let _serial = view_test_lock();
        let before = live_views();
        let ops = Arc::new(VecOps { root: Mutex::new(Vec::new()) });
        let mut frame = Frame::default();
        for id in 0..4 {
            frame.slots.insert(
                id,
                ViewSlot { value: ViewBox::new(Box::new(Vec::<u32>::new())), ops: ops.clone() },
            );
        }
        assert_eq!(live_views(), before + 4);
        drop(frame);
        assert_eq!(live_views(), before, "unwind-style discard leaks nothing");
    }
}
