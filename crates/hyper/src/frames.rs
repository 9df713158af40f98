//! View frames: the per-worker machinery that gives each strand its view.
//!
//! "The state of a hyperobject as seen by a strand of an execution is
//! called the strand's *view*." (§5) A worker's thread-local **frame
//! stack** holds one frame per active steal context: when a stolen
//! continuation starts executing, a fresh (empty) frame is pushed, so
//! every hyperobject lazily materializes a fresh identity view in it; when
//! the corresponding join completes, the frame's views are reduced — in
//! serial order — into the caller's views. It travels back through a side
//! slot on the joiner's stack ([`crate::join`]), dropped if a side panicked.
//!
//! A frame is a vector of `(reducer id, view)` pairs searched linearly — it
//! holds the views one stolen strand touched, usually none, one or two —
//! and an empty one allocates nothing. An access ([`checkout`]) borrows the
//! thread's state only to move the view's box out of its slot into a
//! [`Lease`]: no user code (a `with` closure, a monoid's `identity` or
//! `reduce`) runs under the borrow, so it may touch other reducers and
//! fork, and the slot left empty is how re-entering the *same* reducer is
//! caught. The path is the calling thread's own memory throughout: no
//! reference count, no lock, no hashing.

use std::any::Any;
use std::cell::RefCell;
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

/// The type-erased per-reducer operation a view slot needs.
pub(crate) trait SlotOps: Send + Sync {
    /// `left = left ⊗ right` (order matters); with no `left`, into the
    /// reducer's leftmost (root) view.
    fn merge(&self, left: Option<&mut (dyn Any + Send)>, right: Box<dyn Any + Send>);
}

/// One hyperobject's view within a frame, with leak accounting: a slot
/// counts in [`live_views`] from creation until it is dropped — after its
/// merge, or with its frame on an unwind path — so a view can neither leak
/// nor be consumed twice without the balance showing it.
pub(crate) struct ViewSlot {
    /// `None` while the view is out on a [`Lease`].
    view: Option<Box<dyn Any + Send>>,
    /// The only reference a frame holds on the reducer: cloned when the
    /// slot is created, once per reducer per steal, never per access.
    ops: Arc<dyn SlotOps>,
}

impl ViewSlot {
    pub(crate) fn new(view: Box<dyn Any + Send>, ops: Arc<dyn SlotOps>) -> ViewSlot {
        LIVE_VIEWS.fetch_add(1, Ordering::SeqCst);
        ViewSlot { view: Some(view), ops }
    }
}

impl Drop for ViewSlot {
    fn drop(&mut self) {
        LIVE_VIEWS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A frame: the views created since one steal point, keyed by reducer id.
#[derive(Default)]
pub(crate) struct Frame {
    slots: Vec<(u64, ViewSlot)>,
}

impl Frame {
    /// Whether the strand that ran under this frame touched no reducer.
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn slot(&mut self, id: u64) -> Option<&mut ViewSlot> {
        self.slots.iter_mut().find(|(slot_id, _)| *slot_id == id).map(|(_, slot)| slot)
    }
}

/// A thread's view state; never borrowed across user code.
struct Local {
    /// One frame per steal context active on this thread, innermost last.
    frames: Vec<Frame>,
    /// Reducers this thread is inside a root-context access to, and whose
    /// root lock it therefore holds.
    roots_held: Vec<u64>,
}

thread_local! {
    static LOCAL: RefCell<Local> =
        const { RefCell::new(Local { frames: Vec::new(), roots_held: Vec::new() }) };
}

#[inline]
fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> R {
    LOCAL.with(|local| f(&mut local.borrow_mut()))
}

/// RAII guard for a pushed frame; popping on drop keeps the stack balanced
/// even if the guarded closure panics.
pub(crate) struct FrameGuard(());

impl FrameGuard {
    /// Pushes a fresh frame on the current thread.
    pub(crate) fn push() -> FrameGuard {
        with_local(|local| local.frames.push(Frame::default()));
        FrameGuard(())
    }

    /// Pops and returns the frame (normal completion path).
    pub(crate) fn take(self) -> Frame {
        std::mem::forget(self);
        with_local(|local| local.frames.pop()).expect("frame stack underflow")
    }
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        // Panic path: discard the frame's views.
        drop(with_local(|local| local.frames.pop()));
    }
}

/// A view moved out of its slot in the top frame for the length of one
/// access; dropping the lease moves it back. Frames pushed during the
/// access are popped before it ends (`FrameGuard` nests inside it), so the
/// top frame is the same frame at both ends.
pub(crate) struct Lease {
    id: u64,
    view: Option<Box<dyn Any + Send>>,
}

impl Lease {
    #[inline]
    pub(crate) fn view(&mut self) -> &mut (dyn Any + Send) {
        self.view.as_deref_mut().expect("a lease holds its view until dropped")
    }
}

impl Drop for Lease {
    #[inline]
    fn drop(&mut self) {
        with_local(|local| {
            if let Some(slot) = local.frames.last_mut().and_then(|top| top.slot(self.id)) {
                slot.view = self.view.take();
            }
        });
    }
}

/// The mark of one root-context access in `Local::roots_held`; accesses
/// nest, so dropping it removes the last mark.
pub(crate) struct RootHeld(());

impl Drop for RootHeld {
    #[inline]
    fn drop(&mut self) {
        with_local(|local| local.roots_held.pop());
    }
}

/// Where the current strand's view of one reducer lives.
pub(crate) enum Checkout {
    /// Empty frame stack: the strand runs in root context, over the
    /// reducer's leftmost view, which it may now lock.
    Root(RootHeld),
    /// The top frame has no view of the reducer yet (it stands for the
    /// identity); [`install`] gives it one.
    Absent,
    /// The view, out of its slot until the lease drops.
    Held(Lease),
}

/// Claims the current strand's view of reducer `id` for one access.
///
/// # Panics
///
/// Naming `id`, if the strand is already inside an access to that view.
#[inline]
pub(crate) fn checkout(id: u64) -> Checkout {
    with_local(|local| {
        let claimed = match local.frames.last_mut() {
            None if local.roots_held.contains(&id) => None,
            None => {
                local.roots_held.push(id);
                Some(Checkout::Root(RootHeld(())))
            }
            Some(top) => match top.slot(id) {
                None => Some(Checkout::Absent),
                Some(slot) => slot.view.take().map(|view| Checkout::Held(Lease { id, view: Some(view) })),
            },
        };
        claimed.unwrap_or_else(|| {
            panic!("reducer {id} re-entered: this strand is already inside an access to it")
        })
    })
}

/// Gives the top frame `slot` as its view of `id`, handed straight back
/// out on a lease; follows a [`checkout`] that returned `Absent`.
#[inline]
pub(crate) fn install(id: u64, mut slot: ViewSlot) -> Lease {
    let view = slot.view.take();
    with_local(|local| {
        let top = local.frames.last_mut().expect("install follows a checkout that found a frame");
        top.slots.push((id, slot));
    });
    Lease { id, view }
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
    for (id, mut slot) in frame.slots {
        // Ordered merges touch both views: bracket them for the race
        // detector like any other view access (§5).
        let _view = cilk_runtime::probe::view_access(id);
        match checkout(id) {
            // Current context held the identity: identity ⊗ x = x.
            Checkout::Absent => drop(install(id, slot)),
            // Held until the merge is done: the lease, or the root mark.
            mut current => {
                let incoming = slot.view.take().expect("a popped frame has no view out on a lease");
                let left = match &mut current {
                    Checkout::Held(lease) => Some(lease.view()),
                    _ => None,
                };
                slot.ops.merge(left, incoming);
            }
        }
    }
}

/// Depth of the current thread's frame stack (for tests/diagnostics).
#[cfg(test)]
pub(crate) fn frame_depth() -> usize {
    with_local(|local| local.frames.len())
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

    use cilk_testkit::prop::{any_int, vec_of};

    struct VecOps {
        root: Mutex<Vec<u32>>,
    }

    impl SlotOps for VecOps {
        fn merge(&self, left: Option<&mut (dyn Any + Send)>, right: Box<dyn Any + Send>) {
            let right = *right.downcast::<Vec<u32>>().expect("vec view");
            match left {
                Some(left) => left.downcast_mut::<Vec<u32>>().expect("vec view").extend(right),
                None => self.root.lock().expect("root lock").extend(right),
            }
        }
    }

    fn vec_ops() -> Arc<VecOps> {
        Arc::new(VecOps { root: Mutex::new(Vec::new()) })
    }

    fn slot(ops: &Arc<VecOps>, view: Vec<u32>) -> ViewSlot {
        ViewSlot::new(Box::new(view), ops.clone())
    }

    /// The oracle's shape: views by reducer id.
    type Model = std::collections::HashMap<u64, Vec<u32>>;

    /// The frame's views by reducer id; a repeated id would show as a
    /// shorter map than the frame.
    fn contents(frame: &Frame) -> Model {
        let views: Model = frame
            .slots
            .iter()
            .map(|(id, slot)| {
                let view = slot.view.as_ref().expect("view at rest in its slot");
                (*id, view.downcast_ref::<Vec<u32>>().expect("vec view").clone())
            })
            .collect();
        assert_eq!(views.len(), frame.slots.len(), "one slot per reducer");
        views
    }

    #[test]
    fn guard_balances_on_take() {
        assert_eq!(frame_depth(), 0);
        let g = FrameGuard::push();
        assert_eq!(frame_depth(), 1);
        let frame = g.take();
        assert_eq!(frame_depth(), 0);
        assert!(frame.is_empty());
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
        merge_frame_into_current(Frame { slots: vec![(7, slot(&ops, vec![2, 3]))] });
        assert_eq!(*ops.root.lock().expect("lock"), vec![1, 2, 3]);
    }

    #[test]
    fn merge_into_top_frame_preserves_order() {
        let _serial = view_test_lock();
        let ops = vec_ops();
        let g = FrameGuard::push();
        drop(install(7, slot(&ops, vec![10])));
        merge_frame_into_current(Frame { slots: vec![(7, slot(&ops, vec![20, 30]))] });
        let frame = g.take();
        assert_eq!(contents(&frame)[&7], vec![10, 20, 30], "current ⊗ incoming order");
    }

    #[test]
    fn dropped_frame_releases_views() {
        let _serial = view_test_lock();
        let before = live_views();
        let ops = vec_ops();
        let frame = Frame { slots: (0..4).map(|id| (id, slot(&ops, Vec::new()))).collect() };
        assert_eq!(live_views(), before + 4);
        drop(frame);
        assert_eq!(live_views(), before, "unwind-style discard leaks nothing");
    }

    #[test]
    fn a_lease_empties_its_slot_and_refills_it_even_on_unwind() {
        let _serial = view_test_lock();
        let before = live_views();
        let ops = vec_ops();
        let g = FrameGuard::push();
        drop(install(3, slot(&ops, vec![1])));
        let reentry = std::panic::catch_unwind(|| {
            let Checkout::Held(_outer) = checkout(3) else { panic!("view 3 is installed") };
            drop(checkout(3));
        });
        let message = *reentry.expect_err("second checkout").downcast::<String>().expect("message");
        assert!(message.contains("reducer 3 re-entered"), "{message}");
        assert_eq!(live_views(), before + 1, "the unwound lease put its view back");
        assert_eq!(contents(&g.take())[&3], vec![1]);
        assert_eq!(live_views(), before);
    }

    const REDUCERS: u64 = 64;

    cilk_testkit::forall! {
        /// The vector frame against a `HashMap` oracle: 64 reducers in one
        /// frame, accessed and merged into in random order. A script word
        /// with bit 8 clear accesses one reducer's view; one with it set
        /// merges in a frame holding views of two.
        fn frame_matches_hashmap_model(script in vec_of(any_int::<u16>(), 0..400)) {
            let _serial = view_test_lock();
            let before = live_views();
            let ops = vec_ops();
            let mut model = Model::new();
            let g = FrameGuard::push();
            for (step, word) in script.into_iter().enumerate() {
                let (id, step) = (u64::from(word) % REDUCERS, step as u32);
                if word & 0x100 == 0 {
                    let mut lease = match checkout(id) {
                        Checkout::Held(lease) => lease,
                        Checkout::Absent => install(id, slot(&ops, Vec::new())),
                        Checkout::Root(_) => unreachable!("a frame is pushed"),
                    };
                    lease.view().downcast_mut::<Vec<u32>>().expect("vec view").push(step);
                    model.entry(id).or_default().push(step);
                } else {
                    let other = (id + 1 + u64::from(word >> 9) % (REDUCERS - 1)) % REDUCERS;
                    let incoming = [(id, vec![step, step]), (other, vec![step])];
                    for (id, view) in &incoming {
                        model.entry(*id).or_default().extend(view);
                    }
                    merge_frame_into_current(Frame {
                        slots: incoming.into_iter().map(|(id, view)| (id, slot(&ops, view))).collect(),
                    });
                }
            }
            let frame = g.take();
            assert_eq!(live_views(), before + model.len() as i64, "one live view per reducer touched");
            assert_eq!(contents(&frame), model);
            drop(frame);
            assert_eq!(live_views(), before);
            assert!(ops.root.lock().expect("root lock").is_empty(), "nothing reached the root");
        }
    }
}
