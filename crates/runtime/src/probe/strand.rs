//! The online work/span strand profiler and the pedigree tracker.
//!
//! # Strand profiling
//!
//! Cilkview's headline capability (paper §3.1) is measuring the work and
//! span of a program from an instrumented run. This module records those
//! measures from **real parallel executions** of the real runtime: every
//! profiled `join` wraps its two branches in strand frames that accumulate
//! charged cost units, and combines them with the series-parallel algebra
//!
//! ```text
//! work(a ∥ b)          = work(a) + work(b)
//! span(a ∥ b)          = max(span(a), span(b))
//! burdened_span(a ∥ b) = max(bspan(a), bspan(b)) + burden
//! ```
//!
//! The propagation trick that makes the result *schedule-independent*: a
//! frame's context ([`StrandCtx`]) is `Copy` and captured by the wrapped
//! branch closures, so a stolen continuation re-installs its frame on
//! whichever worker runs it. Work and span therefore come out **exactly
//! equal** at any worker count — including 1 — and equal to the serial
//! elision's measurement of the same program (asserted by the acceptance
//! tests in `cilkview`).
//!
//! Strand costs are the units passed to [`charge`]; a workload that never
//! charges still gets spawn counts and (with shape recording) the full
//! series-parallel dag.
//!
//! # Pedigree stamps
//!
//! Strand boundaries are stamped with a *pedigree*: a rolling hash over
//! the path of spawn ranks from the root strand, in the spirit of the
//! deterministic-parallelism pedigree scheme. Stamps are independent of
//! the schedule (they derive from the spawn tree, not from workers) and
//! deterministic across runs once [`pedigree_reset`] starts a session.

use std::cell::RefCell;

/// Seed stamp of the root strand.
pub(crate) const ROOT_STAMP: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64-style combiner for pedigree stamps: mixes one path step
/// into a parent stamp. Cheap, and collisions are irrelevant to
/// correctness (stamps identify strands for consumers, not for the
/// scheduler).
#[inline]
pub(crate) fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// Pedigree tracking (serial capture)
// ---------------------------------------------------------------------

/// Per-thread pedigree state for serial-capture sessions: a stack of
/// `(stamp, rank)` pairs below an implicit root.
struct PedState {
    stack: Vec<(u64, u64)>,
    root_rank: u64,
}

thread_local! {
    static PEDIGREE: RefCell<PedState> =
        const { RefCell::new(PedState { stack: Vec::new(), root_rank: 0 }) };
}

/// Resets the current thread's pedigree tracker to the root strand.
/// Session owners (a detector run, an elision profile) call this at
/// session start so stamps are deterministic across repeated sessions.
pub fn pedigree_reset() {
    PEDIGREE.with(|p| {
        let mut st = p.borrow_mut();
        st.stack.clear();
        st.root_rank = 0;
    });
}

/// Descends into a spawned child strand; returns `(stamp, depth)` of the
/// child.
pub(crate) fn pedigree_spawn_begin() -> (u64, usize) {
    PEDIGREE.with(|p| {
        let mut st = p.borrow_mut();
        let (ps, pr) = st.stack.last().copied().unwrap_or((ROOT_STAMP, st.root_rank));
        let child = mix(ps, 2 * pr);
        st.stack.push((child, 0));
        (child, st.stack.len())
    })
}

/// Ascends out of the current child strand; returns its `(stamp, depth)`
/// and advances the parent's spawn rank.
pub(crate) fn pedigree_spawn_end() -> (u64, usize) {
    PEDIGREE.with(|p| {
        let mut st = p.borrow_mut();
        let depth = st.stack.len();
        let (child, _) = st.stack.pop().unwrap_or((ROOT_STAMP, 0));
        match st.stack.last_mut() {
            Some(top) => top.1 += 1,
            None => st.root_rank += 1,
        }
        (child, depth)
    })
}

/// Records a sync in the current strand; returns the sync's
/// `(stamp, depth)` and advances the rank (strands after a sync are new).
pub(crate) fn pedigree_sync() -> (u64, usize) {
    PEDIGREE.with(|p| {
        let mut st = p.borrow_mut();
        let depth = st.stack.len();
        let stamp = match st.stack.last_mut() {
            Some(top) => {
                let s = mix(top.0, 2 * top.1 + 1);
                top.1 += 1;
                s
            }
            None => {
                let s = mix(ROOT_STAMP, 2 * st.root_rank + 1);
                st.root_rank += 1;
                s
            }
        };
        (stamp, depth)
    })
}

// ---------------------------------------------------------------------
// Strand profiler
// ---------------------------------------------------------------------

/// A series-parallel shape recorded by the profiler; mirrors the `Sp` dag
/// of the `cilk-dag` simulator (the runtime cannot depend on that crate,
/// so `cilkview` converts this into a `cilk_dag::Sp` for replay).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpShape {
    /// A serial strand of the given cost.
    Leaf(u64),
    /// Series composition, in execution order.
    Series(Vec<SpShape>),
    /// Parallel composition of two branches (`a` serially first).
    Par(Box<SpShape>, Box<SpShape>),
}

impl SpShape {
    /// Series composition of a list, collapsing the trivial cases.
    pub fn series_of(mut items: Vec<SpShape>) -> SpShape {
        match items.len() {
            0 => SpShape::Leaf(0),
            1 => items.pop().expect("len checked"),
            _ => SpShape::Series(items),
        }
    }

    /// Parallel composition of two shapes.
    pub fn par(a: SpShape, b: SpShape) -> SpShape {
        SpShape::Par(Box::new(a), Box::new(b))
    }

    /// Total work of the shape (sum of leaf costs).
    pub fn work(&self) -> u64 {
        match self {
            SpShape::Leaf(c) => *c,
            SpShape::Series(items) => items.iter().map(SpShape::work).sum(),
            SpShape::Par(a, b) => a.work() + b.work(),
        }
    }

    /// Critical-path length of the shape.
    pub fn span(&self) -> u64 {
        match self {
            SpShape::Leaf(c) => *c,
            SpShape::Series(items) => items.iter().map(SpShape::span).sum(),
            SpShape::Par(a, b) => a.span().max(b.span()),
        }
    }
}

/// Configuration of a strand-profiling session; see [`profile_strands`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfileSpec {
    /// Cost units added to the burdened span at every parallel
    /// composition — the paper's "burden" modelling steal/migration
    /// overhead (§3.1's burdened parallelism).
    pub burden: u64,
    /// Whether to record the full [`SpShape`] dag (costs memory
    /// proportional to the number of strands; leave off for huge runs).
    pub record_shape: bool,
}

impl ProfileSpec {
    /// A spec with zero burden and no shape recording.
    pub fn new() -> ProfileSpec {
        ProfileSpec::default()
    }

    /// Sets the per-spawn burden (see [`ProfileSpec::burden`]).
    pub fn burden(mut self, burden: u64) -> ProfileSpec {
        self.burden = burden;
        self
    }

    /// Enables or disables shape recording.
    pub fn record_shape(mut self, record: bool) -> ProfileSpec {
        self.record_shape = record;
        self
    }
}

/// The result of a strand-profiling session.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StrandProfile {
    /// Total work: the sum of all charged units (T₁).
    pub work: u64,
    /// Span: the critical path of charged units (T∞).
    pub span: u64,
    /// Span with the configured burden added per parallel composition.
    pub burdened_span: u64,
    /// Number of parallel compositions (spawns) executed.
    pub spawns: u64,
    /// The recorded series-parallel dag, if requested.
    pub shape: Option<SpShape>,
}

/// The `Copy` per-strand context captured into wrapped branch closures;
/// re-installing it on the executing worker is what makes measures
/// schedule-independent.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StrandCtx {
    pub(crate) burden: u64,
    pub(crate) record: bool,
    pub(crate) stamp: u64,
}

/// Accumulated measures of one strand frame. Returned across threads by
/// wrapped branch closures (hence `Send`).
#[derive(Debug, Default)]
pub(crate) struct Measure {
    pub(crate) work: u64,
    pub(crate) span: u64,
    pub(crate) burdened: u64,
    pub(crate) spawns: u64,
    pub(crate) shape: Option<Vec<SpShape>>,
}

/// One frame of the per-thread profiling stack.
struct Frame {
    m: Measure,
    ctx: StrandCtx,
    /// Spawn sequence within this frame; drives child pedigree stamps.
    seq: u64,
}

impl Frame {
    fn new(ctx: StrandCtx) -> Frame {
        Frame {
            m: Measure {
                shape: if ctx.record { Some(Vec::new()) } else { None },
                ..Measure::default()
            },
            ctx,
            seq: 0,
        }
    }
}

thread_local! {
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Charges `units` of cost to the current strand. No-op (one
/// thread-local read) outside a profiling session, so real workloads can
/// stay permanently instrumented.
pub fn charge(units: u64) {
    FRAMES.with(|f| {
        let mut frames = f.borrow_mut();
        if let Some(fr) = frames.last_mut() {
            fr.m.work += units;
            fr.m.span += units;
            fr.m.burdened += units;
            if let Some(shape) = fr.m.shape.as_mut() {
                // Coalesce consecutive serial charges into one leaf.
                if let Some(SpShape::Leaf(c)) = shape.last_mut() {
                    *c += units;
                } else {
                    shape.push(SpShape::Leaf(units));
                }
            }
        }
    });
}

/// Whether a strand-profiling frame is active on the current thread.
pub fn strand_session_active() -> bool {
    FRAMES.with(|f| !f.borrow().is_empty())
}

/// Runs `f` with this thread's frame stack mutably borrowed: any strand
/// probe reached inside panics, which is how tests show a path touches none.
#[cfg(test)]
pub(crate) fn with_frames_borrowed<R>(f: impl FnOnce() -> R) -> R {
    FRAMES.with(|frames| {
        let _held = frames.borrow_mut();
        f()
    })
}

/// RAII frame guard: `enter` pushes, `finish` pops and yields the
/// measure; dropping without `finish` (a panicking branch) pops and
/// discards, keeping the per-thread stack balanced during unwinding.
pub(crate) struct StrandScope {
    finished: bool,
}

impl StrandScope {
    pub(crate) fn enter(ctx: StrandCtx) -> StrandScope {
        FRAMES.with(|f| f.borrow_mut().push(Frame::new(ctx)));
        StrandScope { finished: false }
    }

    pub(crate) fn finish(mut self) -> Measure {
        self.finished = true;
        FRAMES.with(|f| f.borrow_mut().pop().map(|fr| fr.m).unwrap_or_default())
    }
}

impl Drop for StrandScope {
    fn drop(&mut self) {
        if !self.finished {
            FRAMES.with(|f| {
                let _ = f.borrow_mut().pop();
            });
        }
    }
}

/// Child contexts for the two branches of a profiled `join`, derived from
/// the current frame; `None` when no profiling session is active on this
/// thread (the common case: one thread-local read).
pub(crate) fn strand_children() -> Option<(StrandCtx, StrandCtx)> {
    FRAMES.with(|f| {
        let frames = f.borrow();
        frames.last().map(|fr| {
            let a = StrandCtx { stamp: mix(fr.ctx.stamp, 2 * fr.seq), ..fr.ctx };
            let b = StrandCtx { stamp: mix(fr.ctx.stamp, 2 * fr.seq + 1), ..fr.ctx };
            (a, b)
        })
    })
}

/// Combines the measures of a completed `join`'s branches into the
/// current frame (series-parallel algebra; see module docs).
pub(crate) fn strand_combine(a: Measure, b: Measure) {
    FRAMES.with(|f| {
        let mut frames = f.borrow_mut();
        let Some(fr) = frames.last_mut() else { return };
        let burden = fr.ctx.burden;
        fr.m.work += a.work + b.work;
        fr.m.span += a.span.max(b.span);
        fr.m.burdened += a.burdened.max(b.burdened) + burden;
        fr.m.spawns += a.spawns + b.spawns + 1;
        fr.seq += 1;
        if let Some(shape) = fr.m.shape.as_mut() {
            shape.push(SpShape::par(
                SpShape::series_of(a.shape.unwrap_or_default()),
                SpShape::series_of(b.shape.unwrap_or_default()),
            ));
        }
    });
}

/// Contexts for a profiled `scope`: one for the body, one base from which
/// per-task contexts derive.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScopeSession {
    pub(crate) body: StrandCtx,
    pub(crate) task_base: StrandCtx,
}

/// Starts scope profiling if a session is active on this thread.
pub(crate) fn strand_scope_begin() -> Option<ScopeSession> {
    FRAMES.with(|f| {
        let frames = f.borrow();
        frames.last().map(|fr| ScopeSession {
            body: StrandCtx { stamp: mix(fr.ctx.stamp, 2 * fr.seq), ..fr.ctx },
            task_base: StrandCtx { stamp: mix(fr.ctx.stamp, 2 * fr.seq + 1), ..fr.ctx },
        })
    })
}

/// The context of task number `seq` of a profiled scope.
pub(crate) fn task_ctx(base: StrandCtx, seq: u64) -> StrandCtx {
    StrandCtx { stamp: mix(base.stamp, seq), ..base }
}

/// Combines a completed scope into the current frame. The model (an
/// approximation, documented in `docs/probe.md`): all tasks fork at scope
/// start and join at scope end, i.e. body ∥ task₀ ∥ task₁ ∥ …, with one
/// burden charged per task. Tasks are folded in spawn order so recorded
/// shapes are deterministic.
pub(crate) fn strand_scope_combine(
    burden: u64,
    body: Measure,
    mut tasks: Vec<(u64, Measure)>,
) {
    tasks.sort_by_key(|(seq, _)| *seq);
    let k = tasks.len() as u64;
    let mut work = body.work;
    let mut span = body.span;
    let mut burdened = body.burdened;
    let mut spawns = body.spawns;
    let mut shape_acc = body.shape.map(SpShape::series_of);
    for (_, t) in tasks {
        work += t.work;
        span = span.max(t.span);
        burdened = burdened.max(t.burdened);
        spawns += t.spawns;
        if let Some(acc) = shape_acc.take() {
            shape_acc = Some(SpShape::par(acc, SpShape::series_of(t.shape.unwrap_or_default())));
        }
    }
    burdened += burden * k;
    spawns += k;
    FRAMES.with(|f| {
        let mut frames = f.borrow_mut();
        let Some(fr) = frames.last_mut() else { return };
        fr.m.work += work;
        fr.m.span += span;
        fr.m.burdened += burdened;
        fr.m.spawns += spawns;
        fr.seq += 1;
        if let Some(shape) = fr.m.shape.as_mut() {
            if let Some(acc) = shape_acc {
                shape.push(acc);
            }
        }
    });
}

/// Runs `f` under a strand-profiling session on the current thread and
/// returns its result together with the recorded [`StrandProfile`].
///
/// Profiling follows the computation wherever the scheduler takes it:
/// stolen continuations carry their frame context with them, so the
/// measured work and span are identical at any worker count. To profile
/// a parallel execution on a specific pool, run this *inside*
/// [`crate::ThreadPool::install`] (or use `Cilkview::profile_runtime`,
/// which does that for you).
///
/// Sessions nest per thread: an inner session measures independently and
/// its charges are **not** added to the outer session.
///
/// # Panics
///
/// Propagates panics from `f` after unwinding the session frame.
pub fn profile_strands<R>(spec: ProfileSpec, f: impl FnOnce() -> R) -> (R, StrandProfile) {
    let ctx = StrandCtx { burden: spec.burden, record: spec.record_shape, stamp: ROOT_STAMP };
    // Every frame of the profile nests inside this call, so one gate
    // session covers them on whichever workers they run.
    let _session = super::registry::Session::enter();
    let scope = StrandScope::enter(ctx);
    match crate::unwind::halt_unwinding(f) {
        Ok(r) => {
            let m = scope.finish();
            (
                r,
                StrandProfile {
                    work: m.work,
                    span: m.span,
                    burdened_span: m.burdened,
                    spawns: m.spawns,
                    shape: m.shape.map(SpShape::series_of),
                },
            )
        }
        Err(payload) => {
            drop(scope);
            crate::unwind::resume_unwinding(payload)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_outside_session_is_a_noop() {
        assert!(!strand_session_active());
        charge(1_000_000);
        let ((), p) = profile_strands(ProfileSpec::new(), || charge(3));
        assert_eq!(p.work, 3);
        assert_eq!(p.span, 3);
        assert_eq!(p.spawns, 0);
    }

    #[test]
    fn serial_charges_coalesce_in_shape() {
        let ((), p) = profile_strands(ProfileSpec::new().record_shape(true), || {
            charge(2);
            charge(3);
        });
        assert_eq!(p.shape, Some(SpShape::Leaf(5)));
        assert_eq!(p.work, 5);
    }

    #[test]
    fn profiled_join_is_exact_and_schedule_independent() {
        // fib-shaped charge pattern through the real runtime `join`.
        fn fib(n: u64) -> u64 {
            charge(1);
            if n < 2 {
                return n;
            }
            let (a, b) = crate::join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        let (r, p) = profile_strands(ProfileSpec::new().burden(7), || fib(10));
        assert_eq!(r, 55);
        // Each call charges 1: work = number of calls = 2*fib(n+1)-1.
        let calls = 2 * 89 - 1;
        assert_eq!(p.work, calls);
        // Span of the charge-1 fib dag: depth of the recursion along the
        // n-1 spine plus the parent charges: span(n) = 1 + span(n-1),
        // span(1) = 1 ⇒ span(10) = 10... but the parallel composition
        // takes max(span(n-1), span(n-2)) so span(n) = n for n ≥ 1.
        assert_eq!(p.span, 10);
        assert_eq!(p.spawns, 88, "one spawn per internal call");
        assert_eq!(p.burdened_span, p.span + 7 * 9, "burden per spawn on the critical path");
        // A second identical run measures identically (determinism).
        let (_, p2) = profile_strands(ProfileSpec::new().burden(7), || fib(10));
        assert_eq!(p, p2);
    }

    #[test]
    fn recorded_shape_matches_measures() {
        fn tree(n: u64) -> u64 {
            charge(1);
            if n == 0 {
                return 1;
            }
            let (a, b) = crate::join(|| tree(n - 1), || tree(n - 1));
            a + b
        }
        let (r, p) = profile_strands(ProfileSpec::new().record_shape(true), || tree(4));
        assert_eq!(r, 16);
        let shape = p.shape.expect("recorded");
        assert_eq!(shape.work(), p.work);
        assert_eq!(shape.span(), p.span);
    }

    #[test]
    fn profiled_scope_uses_fork_at_start_model() {
        let ((), p) = profile_strands(ProfileSpec::new().burden(5), || {
            crate::scope(|s| {
                for cost in [10u64, 20, 30] {
                    s.spawn(move |_| charge(cost));
                }
                charge(4); // body work
            });
        });
        assert_eq!(p.work, 64);
        assert_eq!(p.span, 30, "body ∥ tasks: span is the longest task");
        assert_eq!(p.spawns, 3);
        assert_eq!(p.burdened_span, 30 + 3 * 5);
    }

    #[test]
    fn panicking_branch_unwinds_frames() {
        let r = std::panic::catch_unwind(|| {
            profile_strands(ProfileSpec::new(), || {
                crate::join(|| charge(1), || panic!("branch dies"));
            })
        });
        assert!(r.is_err());
        assert!(!strand_session_active(), "frames must unwind with the panic");
        // The thread remains usable for a fresh session.
        let ((), p) = profile_strands(ProfileSpec::new(), || charge(2));
        assert_eq!(p.work, 2);
    }

    #[test]
    fn nested_sessions_measure_independently() {
        let ((), outer) = profile_strands(ProfileSpec::new(), || {
            charge(1);
            let ((), inner) = profile_strands(ProfileSpec::new(), || charge(100));
            assert_eq!(inner.work, 100);
            charge(2);
        });
        assert_eq!(outer.work, 3, "inner session charges stay inner");
    }

    #[test]
    fn pedigree_stamps_deterministic_and_distinct() {
        pedigree_reset();
        let a = pedigree_spawn_begin();
        let a_end = pedigree_spawn_end();
        let s = pedigree_sync();
        let b = pedigree_spawn_begin();
        pedigree_spawn_end();
        pedigree_reset();
        let a2 = pedigree_spawn_begin();
        let a2_end = pedigree_spawn_end();
        let s2 = pedigree_sync();
        let b2 = pedigree_spawn_begin();
        pedigree_spawn_end();
        assert_eq!((a, a_end, s, b), (a2, a2_end, s2, b2), "sessions replay identically");
        assert_ne!(a.0, b.0, "sibling strands get distinct stamps");
        assert_ne!(a.0, s.0);
    }
}
