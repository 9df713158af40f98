//! SP-order labels: English–Hebrew order maintenance for *parallel*
//! on-the-fly race detection.
//!
//! The serial-capture seam replays a monitored program as its serial
//! elision so SP-bags can walk the series-parallel parse tree
//! depth-first. That is faithful to §4 of the paper but blind to the
//! schedules users actually run. This module provides the alternative:
//! every strand of a *real multi-worker execution* is tagged with a pair
//! of labels — one in **English order** (left-to-right reading of the SP
//! parse tree: spawned child before continuation) and one in **Hebrew
//! order** (right-to-left: continuation before child) — following the
//! SP-order algorithm of Bender, Fineman, Gilbert and Leiserson
//! ("On-the-fly maintenance of series-parallel relationships …"), as
//! revived for parallel detection by Utterback et al. ("Efficient Race
//! Detection with Futures").
//!
//! Two strands are **logically parallel** iff the two orders disagree
//! about them: serial predecessors come earlier in *both* orders, so
//!
//! * `e(a) < e(b)` and `h(a) < h(b)`  ⇒  `a` precedes `b`,
//! * `e(a) < e(b)` but `h(a) > h(b)`  ⇒  `a ∥ b`.
//!
//! # Label scheme
//!
//! Instead of an order-maintenance list (which would need global
//! synchronization), labels here are *paths*: sequences of `u64` digits
//! compared lexicographically, where a prefix sorts before any of its
//! extensions. Each executing strand owns a thread-local **frame**
//! `(eng_base, heb_base, slot k)`; its current label is `base·[3k]`
//! (or the base itself while `k = 0`). The `k`-th fork inside a frame
//! hands out digits `3k+1` and `3k+2` and retires the parent to digit
//! `3k+3`:
//!
//! * `join(a, b)` — child `a` gets `(eng·[3k+1], heb·[3k+2])`,
//!   continuation `b` gets `(eng·[3k+2], heb·[3k+1])` — swapped digit
//!   order, which is exactly what makes them parallel — and the strand
//!   after the join's sync is `base·[3k+3]`, serial-after both.
//! * `scope` — the body runs in a sub-frame `(eng·[3k+1], heb·[3k+1])`
//!   (same digit in both orders: the body is *serial* with the code
//!   around the scope), and each `Scope::spawn` at body slot `j` gives
//!   the task `(eng·[3j+1], heb·[3j+2])` while rebasing the body in
//!   place to `(eng·[3j+2], heb·[3j+1])` — so a task is parallel with
//!   everything after its spawn point up to the scope's implicit sync.
//!
//! Frames travel *with the closures*: a stolen continuation installs its
//! frame on whichever worker runs it, so the labeling is exact at any
//! worker count, under any schedule. When no labeling session is active
//! the cost at every fork is one thread-local read.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The series-parallel relation between two strands, decided by
/// comparing their [`SpLabel`] pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpRel {
    /// The first strand is a serial predecessor of the second.
    Before,
    /// The first strand is a serial successor of the second.
    After,
    /// The strands are logically parallel — they may run concurrently
    /// under some scheduling, and unsynchronized conflicting accesses
    /// between them are determinacy races.
    Parallel,
    /// The labels name the same strand.
    Equal,
}

impl fmt::Display for SpRel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SpRel::Before => "before",
            SpRel::After => "after",
            SpRel::Parallel => "parallel",
            SpRel::Equal => "equal",
        })
    }
}

/// A strand's English/Hebrew label pair.
///
/// Cheap to clone (the digit paths sit behind an [`Arc`]) so shadow
/// memory can snapshot the accessing strand's label per recorded access.
#[derive(Clone, PartialEq, Eq)]
pub struct SpLabel(Arc<LabelPair>);

#[derive(PartialEq, Eq)]
struct LabelPair {
    eng: Vec<u64>,
    heb: Vec<u64>,
}

impl SpLabel {
    fn new(eng: Vec<u64>, heb: Vec<u64>) -> SpLabel {
        SpLabel(Arc::new(LabelPair { eng, heb }))
    }

    /// The series-parallel relation of `self` to `other`.
    ///
    /// Lexicographic comparison of the English paths and of the Hebrew
    /// paths (a prefix sorts before its extensions): agreement means
    /// serial, disagreement means parallel. By construction two distinct
    /// strands never compare equal in one order alone, but any such
    /// out-of-tree pair is conservatively reported parallel.
    pub fn relation(&self, other: &SpLabel) -> SpRel {
        match (self.0.eng.cmp(&other.0.eng), self.0.heb.cmp(&other.0.heb)) {
            (Ordering::Equal, Ordering::Equal) => SpRel::Equal,
            (Ordering::Less, Ordering::Less) => SpRel::Before,
            (Ordering::Greater, Ordering::Greater) => SpRel::After,
            _ => SpRel::Parallel,
        }
    }

    /// Whether the two strands are logically parallel.
    pub fn parallel_with(&self, other: &SpLabel) -> bool {
        self.relation(other) == SpRel::Parallel
    }
}

impl fmt::Debug for SpLabel {
    /// Prints both digit paths compactly, e.g. `sp(e=[1, 2], h=[2, 1])`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sp(e={:?}, h={:?})", self.0.eng, self.0.heb)
    }
}

/// The label bases of one not-yet-entered strand frame. Produced at a
/// fork on the spawning worker, moved into the branch's closure, and
/// turned into a live frame by [`SpFrameGuard::enter`] on whichever
/// worker executes the branch.
pub struct SpBranch {
    eng: Vec<u64>,
    heb: Vec<u64>,
}

/// One live frame on a thread's SP-order stack.
struct SpFrame {
    eng: Vec<u64>,
    heb: Vec<u64>,
    slot: u64,
    /// Cached current label (`base·[3·slot]`, or the base while slot 0);
    /// refreshed whenever `slot` or the bases change.
    cur: SpLabel,
}

impl SpFrame {
    fn from_branch(branch: SpBranch) -> SpFrame {
        let cur = SpLabel::new(branch.eng.clone(), branch.heb.clone());
        SpFrame { eng: branch.eng, heb: branch.heb, slot: 0, cur }
    }

    fn refresh_cur(&mut self) {
        self.cur = if self.slot == 0 {
            SpLabel::new(self.eng.clone(), self.heb.clone())
        } else {
            let mut eng = self.eng.clone();
            eng.push(3 * self.slot);
            let mut heb = self.heb.clone();
            heb.push(3 * self.slot);
            SpLabel::new(eng, heb)
        };
    }
}

thread_local! {
    /// The current thread's stack of SP-order frames. Nonempty exactly
    /// while this thread is executing monitored computation: the root
    /// frame is installed by [`with_sp_root`], branch frames by the
    /// guards the forking constructs thread through their closures.
    static LFRAMES: RefCell<Vec<SpFrame>> = const { RefCell::new(Vec::new()) };
}

/// Whether an SP-order labeling session is active on the current thread
/// (i.e. the executing code is inside a [`with_sp_root`] computation, on
/// whatever worker the scheduler placed it). One thread-local read.
#[inline]
pub fn sp_session_active() -> bool {
    LFRAMES.with(|f| !f.borrow().is_empty())
}

/// The label of the strand the current thread is executing, or `None`
/// outside any labeling session.
pub fn current_sp_label() -> Option<SpLabel> {
    LFRAMES.with(|f| f.borrow().last().map(|frame| frame.cur.clone()))
}

/// Runs `f` as the root strand of a labeled computation: installs a root
/// frame on the current thread, so every `join`/`scope`/`cilk_for`
/// executed inside (on any worker — frames ride the stolen closures)
/// maintains English/Hebrew labels. The frame is removed when `f`
/// returns or unwinds.
///
/// This is the entry point parallel race detection uses:
/// `pool.install(|| with_sp_root(program))` labels exactly the monitored
/// computation and nothing else.
pub fn with_sp_root<R>(f: impl FnOnce() -> R) -> R {
    // Every frame of the labeling nests inside this call, so one gate
    // session covers them on whichever workers they run.
    let _session = super::registry::Session::enter();
    let _root = SpFrameGuard::enter(SpBranch { eng: Vec::new(), heb: Vec::new() });
    f()
}

/// RAII guard for one strand frame: pushed onto the executing thread's
/// frame stack on [`enter`](SpFrameGuard::enter), popped on drop (also
/// during unwinding, keeping the stack balanced when a branch panics).
pub struct SpFrameGuard {
    /// Defense against guards migrating across threads (they never do:
    /// each guard lives inside one closure invocation).
    depth: usize,
}

impl SpFrameGuard {
    /// Installs `branch` as a live frame on the current thread.
    pub fn enter(branch: SpBranch) -> SpFrameGuard {
        LFRAMES.with(|f| {
            let mut frames = f.borrow_mut();
            frames.push(SpFrame::from_branch(branch));
            SpFrameGuard { depth: frames.len() }
        })
    }
}

impl Drop for SpFrameGuard {
    fn drop(&mut self) {
        LFRAMES.with(|f| {
            let mut frames = f.borrow_mut();
            debug_assert_eq!(
                frames.len(),
                self.depth,
                "SP-order frames popped out of order"
            );
            frames.pop();
        });
    }
}

/// Forks the current strand for a `join(a, b)`: returns label bases for
/// the spawned child `a` and the continuation `b` (swapped digit order —
/// that swap *is* their parallelism) and advances the current frame past
/// the join's implicit sync. `None` (one thread-local read) outside a
/// session.
pub(crate) fn sp_join_fork() -> Option<(SpBranch, SpBranch)> {
    LFRAMES.with(|f| {
        let mut frames = f.borrow_mut();
        let frame = frames.last_mut()?;
        let k = frame.slot;
        let child = SpBranch {
            eng: extend(&frame.eng, 3 * k + 1),
            heb: extend(&frame.heb, 3 * k + 2),
        };
        let cont = SpBranch {
            eng: extend(&frame.eng, 3 * k + 2),
            heb: extend(&frame.heb, 3 * k + 1),
        };
        // The caller executes no user code between this fork and the
        // join's return, so the frame can retire past the sync eagerly.
        frame.slot = k + 1;
        frame.refresh_cur();
        Some((child, cont))
    })
}

/// Opens a `scope`: returns the body's frame bases (same digit in both
/// orders — the body is serial with the surrounding code) and advances
/// the current frame past the scope's implicit sync. `None` outside a
/// session.
pub(crate) fn sp_scope_begin() -> Option<SpBranch> {
    LFRAMES.with(|f| {
        let mut frames = f.borrow_mut();
        let frame = frames.last_mut()?;
        let k = frame.slot;
        let body = SpBranch {
            eng: extend(&frame.eng, 3 * k + 1),
            heb: extend(&frame.heb, 3 * k + 1),
        };
        frame.slot = k + 1;
        frame.refresh_cur();
        Some(body)
    })
}

/// Forks a `Scope::spawn`ed task off the current strand: returns the
/// task's frame bases and rebases the current frame in place (the
/// spawning strand continues as the task's parallel sibling). `None`
/// outside a session.
pub(crate) fn sp_task_fork() -> Option<SpBranch> {
    LFRAMES.with(|f| {
        let mut frames = f.borrow_mut();
        let frame = frames.last_mut()?;
        let j = frame.slot;
        let task = SpBranch {
            eng: extend(&frame.eng, 3 * j + 1),
            heb: extend(&frame.heb, 3 * j + 2),
        };
        frame.eng.push(3 * j + 2);
        frame.heb.push(3 * j + 1);
        frame.slot = 0;
        frame.refresh_cur();
        Some(task)
    })
}

/// Runs `f` with this thread's frame stack mutably borrowed: any SP-order
/// probe reached inside panics, which is how tests show a path touches none.
#[cfg(test)]
pub(crate) fn with_frames_borrowed<R>(f: impl FnOnce() -> R) -> R {
    LFRAMES.with(|frames| {
        let _held = frames.borrow_mut();
        f()
    })
}

fn extend(base: &[u64], digit: u64) -> Vec<u64> {
    let mut path = Vec::with_capacity(base.len() + 1);
    path.extend_from_slice(base);
    path.push(digit);
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    fn label() -> SpLabel {
        current_sp_label().expect("inside a session")
    }

    #[test]
    fn inactive_outside_root() {
        assert!(!sp_session_active());
        assert!(current_sp_label().is_none());
        assert!(sp_join_fork().is_none());
        assert!(sp_scope_begin().is_none());
        assert!(sp_task_fork().is_none());
        with_sp_root(|| assert!(sp_session_active()));
        assert!(!sp_session_active());
    }

    #[test]
    fn join_child_parallel_with_continuation() {
        with_sp_root(|| {
            let pre = label();
            let (child, cont) = sp_join_fork().unwrap();
            let post = label();
            let child = {
                let _g = SpFrameGuard::enter(child);
                label()
            };
            let cont = {
                let _g = SpFrameGuard::enter(cont);
                label()
            };
            assert_eq!(child.relation(&cont), SpRel::Parallel);
            assert_eq!(cont.relation(&child), SpRel::Parallel);
            assert_eq!(pre.relation(&child), SpRel::Before);
            assert_eq!(pre.relation(&cont), SpRel::Before);
            assert_eq!(child.relation(&post), SpRel::Before);
            assert_eq!(cont.relation(&post), SpRel::Before);
            assert_eq!(post.relation(&child), SpRel::After);
            assert_eq!(child.relation(&child), SpRel::Equal);
        });
    }

    #[test]
    fn sequential_joins_are_serial() {
        with_sp_root(|| {
            let (a1, b1) = sp_join_fork().unwrap();
            let a1 = {
                let _g = SpFrameGuard::enter(a1);
                label()
            };
            let b1 = {
                let _g = SpFrameGuard::enter(b1);
                label()
            };
            let (a2, b2) = sp_join_fork().unwrap();
            let a2 = {
                let _g = SpFrameGuard::enter(a2);
                label()
            };
            let b2 = {
                let _g = SpFrameGuard::enter(b2);
                label()
            };
            // Everything before the first sync precedes everything after.
            for x in [&a1, &b1] {
                for y in [&a2, &b2] {
                    assert_eq!(x.relation(y), SpRel::Before, "{x:?} vs {y:?}");
                }
            }
        });
    }

    #[test]
    fn nested_join_descendants_stay_parallel_with_uncle() {
        with_sp_root(|| {
            let (child, cont) = sp_join_fork().unwrap();
            // Inside the child, fork again; both grandchildren must stay
            // parallel with the outer continuation.
            let (gc_a, gc_b) = {
                let _g = SpFrameGuard::enter(child);
                let (ga, gb) = sp_join_fork().unwrap();
                let ga = {
                    let _g = SpFrameGuard::enter(ga);
                    label()
                };
                let gb = {
                    let _g = SpFrameGuard::enter(gb);
                    label()
                };
                (ga, gb)
            };
            let cont = {
                let _g = SpFrameGuard::enter(cont);
                label()
            };
            assert_eq!(gc_a.relation(&gc_b), SpRel::Parallel);
            assert_eq!(gc_a.relation(&cont), SpRel::Parallel);
            assert_eq!(gc_b.relation(&cont), SpRel::Parallel);
        });
    }

    #[test]
    fn scope_tasks_parallel_with_later_body_serial_with_after() {
        with_sp_root(|| {
            let pre = label();
            let body = sp_scope_begin().unwrap();
            let post = label();
            let (t0, mid_body, t1, end_body) = {
                let _g = SpFrameGuard::enter(body);
                let t0 = {
                    let _g = SpFrameGuard::enter(sp_task_fork().unwrap());
                    label()
                };
                let mid = label();
                let t1 = {
                    let _g = SpFrameGuard::enter(sp_task_fork().unwrap());
                    label()
                };
                (t0, mid, t1, label())
            };
            assert_eq!(pre.relation(&t0), SpRel::Before);
            assert_eq!(t0.relation(&mid_body), SpRel::Parallel);
            assert_eq!(t0.relation(&t1), SpRel::Parallel);
            assert_eq!(t1.relation(&end_body), SpRel::Parallel);
            assert_eq!(t0.relation(&post), SpRel::Before, "task before implicit sync exit");
            assert_eq!(t1.relation(&post), SpRel::Before);
            assert_eq!(mid_body.relation(&post), SpRel::Before);
            assert_eq!(end_body.relation(&post), SpRel::Before);
        });
    }

    #[test]
    fn task_spawned_before_access_is_parallel_only_with_later_code() {
        with_sp_root(|| {
            let body = sp_scope_begin().unwrap();
            let _g = SpFrameGuard::enter(body);
            let before_spawn = label();
            let task = {
                let _g = SpFrameGuard::enter(sp_task_fork().unwrap());
                label()
            };
            assert_eq!(before_spawn.relation(&task), SpRel::Before);
        });
    }

    #[test]
    fn guard_pops_on_unwind() {
        with_sp_root(|| {
            let depth_before = LFRAMES.with(|f| f.borrow().len());
            let (child, _cont) = sp_join_fork().unwrap();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _g = SpFrameGuard::enter(child);
                panic!("branch dies");
            }));
            assert!(result.is_err());
            assert_eq!(LFRAMES.with(|f| f.borrow().len()), depth_before);
        });
    }

    #[test]
    fn labels_are_cheap_to_clone_and_compare() {
        with_sp_root(|| {
            let l = label();
            let c = l.clone();
            assert_eq!(l.relation(&c), SpRel::Equal);
            assert!(!l.parallel_with(&c));
        });
    }
}
