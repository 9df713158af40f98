//! The schedule-exploration engine.
//!
//! One *execution* runs the model closure with every shimmed atomic
//! operation serialized: exactly one virtual thread runs user code at a
//! time (the "baton"), and each shimmed operation is a yield point where
//! the engine decides which thread executes next. Re-running the closure
//! under different decision sequences explores the interleaving space:
//!
//! * **Exhaustive (DFS)** — depth-first over a persistent tree of choice
//!   points, with iterative context (preemption) bounding in the style of
//!   Musuvathi–Qadeer and sleep-set pruning in the style of DPOR.
//! * **Random walk** — seeded uniform choices, for models too large to
//!   enumerate; the seed flows from `cilk_testkit::seed` so `CILK_TEST_SEED`
//!   reproduces a whole run.
//! * **Replay** — follow a recorded schedule string token-for-token
//!   (`CILK_CHECK_SCHEDULE`), reproducing one execution exactly.
//!
//! # The memory model
//!
//! Loads may observe *stale* values: every atomic location keeps a bounded
//! history of stores, each stamped with the storer's vector clock. An entry
//! is visible unless a newer entry's store happens-before the reader
//! (coherence) or the reader has already observed a newer entry (per-thread
//! monotonicity). A load with several visible entries is itself a branch
//! point. Release stores carry the storer's clock; acquire loads join it;
//! relaxed stores carry nothing; RMWs always read the newest entry and
//! continue release sequences. `SeqCst` operations *and fences* additionally
//! join a global `sc` clock both ways, making them act as global
//! synchronization points — strictly stronger than C11's SC semantics, so
//! the checker can never report a false positive against correct code, at
//! the cost of missing some exotic real weak behaviors (see
//! `docs/model-checking.md`).

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering as ROrd};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use cilk_testkit::Rng;

use crate::clock::VClock;
use crate::pool;
use crate::sched::{self, Tok};

/// Atomic memory ordering, re-exported so shim call sites read like std.
pub use std::sync::atomic::Ordering;

// ---------------------------------------------------------------------------
// Public configuration and results
// ---------------------------------------------------------------------------

/// Tuning knobs for one exploration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Maximum number of *preemptions* per execution: switches away from a
    /// thread that could still run. Switches at blocking points are free.
    /// `None` removes the bound (feasible only for tiny models).
    pub preemption_bound: Option<usize>,
    /// Hard cap on executions explored; exceeding it sets
    /// [`Report::truncated`] instead of looping forever.
    pub max_executions: u64,
    /// Hard cap on operations in a single execution; exceeding it is
    /// reported as a failure (livelock suspicion). The Chase–Lev protocol
    /// is lock-free, so well-formed deque models always terminate.
    pub max_steps: u64,
    /// Enable DPOR-style sleep-set pruning in exhaustive mode. Sound for
    /// unbounded exploration; combined with a preemption bound it may prune
    /// a few bounded-but-redundant schedules (see docs).
    pub sleep_sets: bool,
    /// Per-location store-history depth. Older entries are forgotten
    /// (which only makes the model stronger, never unsound).
    pub history_cap: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            preemption_bound: Some(2),
            max_executions: 200_000,
            max_steps: 20_000,
            sleep_sets: true,
            history_cap: 8,
        }
    }
}

/// How to drive the exploration.
#[derive(Clone, Debug)]
pub enum Mode {
    /// Depth-first enumeration of all schedules within the bounds.
    Exhaustive,
    /// `iters` independent seeded random walks.
    Random {
        /// Number of random executions to run.
        iters: u64,
    },
    /// Replay one recorded schedule string.
    Replay {
        /// The schedule to follow, as printed by a failure report.
        schedule: String,
    },
}

/// The outcome of an exploration.
#[derive(Debug)]
pub struct Report {
    /// Executions actually run (including the failing one, if any).
    pub executions: u64,
    /// Executions cut short by sleep-set pruning (already covered
    /// elsewhere in the tree).
    pub pruned: u64,
    /// True if `max_executions` stopped an exhaustive run before the tree
    /// was fully explored.
    pub truncated: bool,
    /// The first counterexample found, if any.
    pub failure: Option<Failure>,
}

/// One counterexample: a replayable schedule plus the panic message.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Replayable schedule string (`t0,t1,v1,...`).
    pub schedule: String,
    /// The panic/deadlock message of the failing execution.
    pub message: String,
}

// ---------------------------------------------------------------------------
// Execution state
// ---------------------------------------------------------------------------

/// Payload used to unwind virtual threads when an execution aborts (a
/// counterexample was found, or the branch was pruned). Quietly swallowed
/// by the pool runner.
struct AbortToken;

const THREAD_LOC_BASE: u64 = 1 << 48;
/// Base of the per-thread wake-token pseudo-locations (`Park`/`Unpark`).
const TOKEN_LOC_BASE: u64 = 1 << 49;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct OpSummary {
    loc: Option<u64>,
    write: bool,
    sc: bool,
}

#[derive(Clone, Debug)]
enum OpKind {
    Load(Ordering),
    Store(u64, Ordering),
    Cas { cur: u64, new: u64, succ: Ordering, fail: Ordering },
    Rmw { kind: RmwKind, arg: u64, ord: Ordering },
    Fence(Ordering),
    /// Acquire a checked mutex: enabled only while its lock word reads 0
    /// (free); executes as an acquire CAS 0 -> 1. The unlock is an ordinary
    /// release store of 0.
    Lock,
    /// Consume the calling thread's wake token; enabled only while one is
    /// pending (`std::thread::park` without the spurious wake-ups).
    Park,
    /// Hand a wake token to the target thread; tokens do not accumulate.
    Unpark(usize),
    Join(usize),
    /// The implicit last transition of every spawned thread; makes thread
    /// completion schedulable (and `Join` wake-ups visible to sleep sets).
    Finish,
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum RmwKind {
    Add,
    Sub,
    Swap,
}

#[derive(Clone, Debug)]
struct Op {
    loc: Option<usize>,
    kind: OpKind,
}

impl Op {
    fn summary(&self, self_tid: usize) -> OpSummary {
        let is_sc = |o: &Ordering| matches!(o, Ordering::SeqCst);
        match &self.kind {
            OpKind::Load(o) => OpSummary { loc: self.loc.map(|l| l as u64), write: false, sc: is_sc(o) },
            OpKind::Store(_, o) => OpSummary { loc: self.loc.map(|l| l as u64), write: true, sc: is_sc(o) },
            OpKind::Cas { succ, fail, .. } => OpSummary {
                loc: self.loc.map(|l| l as u64),
                write: true,
                sc: is_sc(succ) || is_sc(fail),
            },
            OpKind::Rmw { ord, .. } => {
                OpSummary { loc: self.loc.map(|l| l as u64), write: true, sc: is_sc(ord) }
            }
            OpKind::Fence(o) => OpSummary { loc: None, write: false, sc: is_sc(o) },
            OpKind::Lock => OpSummary { loc: self.loc.map(|l| l as u64), write: true, sc: false },
            OpKind::Park => {
                OpSummary { loc: Some(TOKEN_LOC_BASE + self_tid as u64), write: true, sc: false }
            }
            OpKind::Unpark(target) => {
                OpSummary { loc: Some(TOKEN_LOC_BASE + *target as u64), write: true, sc: false }
            }
            OpKind::Join(target) => {
                OpSummary { loc: Some(THREAD_LOC_BASE + *target as u64), write: true, sc: false }
            }
            OpKind::Finish => OpSummary { loc: Some(THREAD_LOC_BASE + self_tid as u64), write: true, sc: false },
        }
    }
}

/// Two pending operations commute iff they touch different locations or
/// both only read, and are not both `SeqCst` (the global `sc` clock makes
/// any two SC operations order-sensitive).
fn independent(a: &OpSummary, b: &OpSummary) -> bool {
    let conflict_loc = match (a.loc, b.loc) {
        (Some(x), Some(y)) => x == y && (a.write || b.write),
        _ => false,
    };
    !(conflict_loc || (a.sc && b.sc))
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Status {
    /// Running user code or parked at a pending op.
    Live,
    Finished,
}

struct ThreadSt {
    clock: VClock,
    pending: Option<Op>,
    /// Parked at a yield point, waiting to be granted.
    parked: bool,
    status: Status,
    result: Option<Box<dyn Any + Send>>,
    /// A pending wake token, carrying the clock(s) of whoever handed it
    /// over (`Unpark` synchronizes-with the `Park` that consumes it).
    token: Option<VClock>,
}

impl ThreadSt {
    fn new(clock: VClock) -> Self {
        ThreadSt {
            clock,
            pending: None,
            parked: false,
            status: Status::Live,
            result: None,
            token: None,
        }
    }
}

struct Entry {
    val: u64,
    tid: usize,
    seq: u32,
    /// The synchronization message an acquire load of this entry joins.
    msg: VClock,
}

struct LocState {
    entries: VecDeque<Entry>,
    /// Absolute index of `entries[0]`.
    base: u64,
    /// Per-thread floor of observable absolute indices (coherence:
    /// a thread's reads of one location never go backwards).
    last_seen: Vec<u64>,
}

impl LocState {
    fn newest_abs(&self) -> u64 {
        self.base + self.entries.len() as u64 - 1
    }
}

#[derive(Clone, Copy, Debug)]
struct ThreadOpt {
    tid: usize,
    summary: OpSummary,
    preempts: bool,
}

enum Choice {
    Thread {
        options: Vec<ThreadOpt>,
        next: usize,
        /// Sleep set inherited when this node was created; the effective
        /// sleep set is `init_sleep ∪ options[..next]`.
        init_sleep: Vec<(usize, OpSummary)>,
    },
    Value {
        arity: usize,
        next: usize,
    },
}

enum Drive {
    Dfs,
    Random(Rng),
    Replay(Vec<Tok>),
}

struct ExecState {
    threads: Vec<ThreadSt>,
    locs: Vec<LocState>,
    generation: u64,
    sc: VClock,
    /// Thread currently running user code (owns the baton).
    active: Option<usize>,
    /// Thread granted permission to execute its pending op.
    granted: Option<usize>,
    /// Thread that executed the most recent transition.
    prev_exec: Option<usize>,
    preemptions: usize,
    steps: u64,
    path: Vec<Choice>,
    cursor: usize,
    cur_sleep: Vec<(usize, OpSummary)>,
    drive: Drive,
    replay_pos: usize,
    log: Vec<Tok>,
    cfg: Config,
    failure: Option<String>,
    pruned: bool,
    aborting: bool,
    done: bool,
    live_os: usize,
    /// The model's [`at_quiescence`] check, until it runs.
    at_quiescence: Option<Box<dyn FnOnce() + Send>>,
}

pub(crate) struct Exec {
    m: Mutex<ExecState>,
    cv: Condvar,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Exec>, usize)>> = const { RefCell::new(None) };
    /// Set while an [`at_quiescence`] check runs on this thread: shimmed
    /// operations bypass the (finished) execution and hit the real atomics.
    static BYPASS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static EXEC_GEN: AtomicU64 = AtomicU64::new(1);

fn lk(exec: &Exec) -> MutexGuard<'_, ExecState> {
    exec.m.lock().unwrap_or_else(|e| e.into_inner())
}

fn payload_msg(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Records the first failure and wakes everyone so they can unwind. Never
/// panics itself (callers in user-code context panic with [`AbortToken`]).
/// Whether `CILK_CHECK_TRACE` is set (cached: this gates the per-op hot
/// path).
fn trace_on() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("CILK_CHECK_TRACE").is_some())
}

fn fail_locked(st: &mut ExecState, exec: &Exec, msg: String) {
    if st.failure.is_none() {
        st.failure = Some(msg);
    }
    st.aborting = true;
    exec.cv.notify_all();
}

fn abort_unwind(st: MutexGuard<'_, ExecState>) -> ! {
    drop(st);
    panic::panic_any(AbortToken);
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

fn enabled(st: &ExecState, tid: usize) -> bool {
    let t = &st.threads[tid];
    if t.status == Status::Finished || !t.parked {
        return false;
    }
    match &t.pending {
        Some(op) => match op.kind {
            OpKind::Join(target) => st.threads[target].status == Status::Finished,
            OpKind::Lock => {
                let loc = op.loc.expect("lock has a location");
                st.locs[loc].entries.back().expect("location has an entry").val == 0
            }
            OpKind::Park => t.token.is_some(),
            _ => true,
        },
        None => false,
    }
}

/// Picks the next thread to execute its pending op, sets `granted` and
/// wakes it. Returns `Err` when the execution ends here (done, deadlock,
/// or sleep-set prune) — `done` is not an error for the caller to
/// propagate, so callers only unwind when `aborting` is set.
fn schedule_locked(st: &mut ExecState, exec: &Exec) -> Result<(), ()> {
    debug_assert!(st.active.is_none() && st.granted.is_none());
    let enabled_tids: Vec<usize> =
        (0..st.threads.len()).filter(|&t| enabled(st, t)).collect();
    if enabled_tids.is_empty() {
        if st.threads.iter().all(|t| t.status == Status::Finished) {
            st.done = true;
            exec.cv.notify_all();
            return Err(());
        }
        // Every live thread is parked with no token in flight: the model's
        // quiescent state, if it declared one. Its check decides whether
        // this is a legitimate end (idle workers, nothing to do) or a lost
        // wake-up.
        let parked = |t: &ThreadSt| matches!(t.pending, Some(Op { kind: OpKind::Park, .. }));
        if st.threads.iter().all(|t| t.status == Status::Finished || parked(t)) {
            if let Some(check) = st.at_quiescence.take() {
                BYPASS.with(|b| b.set(true));
                let verdict = panic::catch_unwind(AssertUnwindSafe(check));
                BYPASS.with(|b| b.set(false));
                match verdict {
                    // Complete: unwind the parked threads, record no failure.
                    Ok(()) => {
                        st.aborting = true;
                        exec.cv.notify_all();
                    }
                    Err(p) => fail_locked(st, exec, payload_msg(p.as_ref())),
                }
                return Err(());
            }
        }
        let blocked: Vec<String> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status != Status::Finished)
            .map(|(i, t)| format!("t{i} at {:?}", t.pending.as_ref().map(|o| &o.kind)))
            .collect();
        fail_locked(st, exec, format!("deadlock: no enabled thread ({})", blocked.join("; ")));
        return Err(());
    }

    let prev = st.prev_exec;
    let prev_enabled = prev.is_some_and(|p| enabled_tids.contains(&p));
    // prev-first ordering: option 0 continues the current thread, so the
    // DFS's leftmost path is the serial (no-preemption) execution.
    let ordered: Vec<usize> = {
        let mut v = Vec::with_capacity(enabled_tids.len());
        if let Some(p) = prev {
            if enabled_tids.contains(&p) {
                v.push(p);
            }
        }
        v.extend(enabled_tids.iter().copied().filter(|&t| Some(t) != prev));
        v
    };
    let ordered_opts: Vec<ThreadOpt> = ordered
        .iter()
        .map(|&tid| {
            let summary = st.threads[tid]
                .pending
                .as_ref()
                .expect("enabled implies pending")
                .summary(tid);
            ThreadOpt { tid, summary, preempts: prev_enabled && prev != Some(tid) }
        })
        .collect();
    let budget_left = st
        .cfg
        .preemption_bound
        .is_none_or(|b| st.preemptions < b);

    let chosen_tid = match &mut st.drive {
        Drive::Dfs => {
            if st.cursor == st.path.len() {
                // New node: apply preemption bound and sleep-set filters.
                let mut options: Vec<ThreadOpt> = Vec::new();
                for &opt in &ordered_opts {
                    if opt.preempts && !budget_left {
                        continue;
                    }
                    if st.cfg.sleep_sets && st.cur_sleep.iter().any(|(s, _)| *s == opt.tid) {
                        continue;
                    }
                    options.push(opt);
                }
                if options.is_empty() {
                    // Every enabled thread is asleep: this branch is a
                    // permutation of one already explored.
                    if trace_on() {
                        eprintln!("[trace] prune at step {} (sleep {:?})", st.steps, st.cur_sleep);
                    }
                    st.pruned = true;
                    st.aborting = true;
                    exec.cv.notify_all();
                    return Err(());
                }
                st.path.push(Choice::Thread {
                    options,
                    next: 0,
                    init_sleep: st.cur_sleep.clone(),
                });
            }
            let Choice::Thread { options, next, init_sleep } = &st.path[st.cursor] else {
                fail_locked(st, exec, "internal: schedule divergence (expected thread node)".into());
                return Err(());
            };
            let opt = options[*next];
            // The next node's sleep set: everything slept here (including
            // explored siblings) that commutes with the chosen transition.
            let mut sleep: Vec<(usize, OpSummary)> = init_sleep.clone();
            sleep.extend(options[..*next].iter().map(|o| (o.tid, o.summary)));
            sleep.retain(|(t, s)| *t != opt.tid && independent(s, &opt.summary));
            st.cur_sleep = sleep;
            st.cursor += 1;
            if opt.preempts {
                st.preemptions += 1;
            }
            opt.tid
        }
        Drive::Random(rng) => {
            let opts: Vec<ThreadOpt> = ordered_opts
                .iter()
                .copied()
                .filter(|o| budget_left || !o.preempts)
                .collect();
            let opt = opts[rng.gen_range(0..opts.len() as u64) as usize];
            if opt.preempts {
                st.preemptions += 1;
            }
            opt.tid
        }
        Drive::Replay(toks) => {
            let tok = toks.get(st.replay_pos).copied();
            st.replay_pos += 1;
            match tok {
                Some(Tok::Thread(tid)) if ordered.contains(&tid) => tid,
                other => {
                    fail_locked(
                        st,
                        exec,
                        format!(
                            "schedule diverged at step {}: token {other:?}, enabled {ordered:?} \
                             (is the model deterministic?)",
                            st.replay_pos - 1
                        ),
                    );
                    return Err(());
                }
            }
        }
    };
    st.log.push(Tok::Thread(chosen_tid));
    st.granted = Some(chosen_tid);
    exec.cv.notify_all();
    Ok(())
}

/// Resolves a multi-valued load: index into the visible options,
/// 0 = newest entry.
fn choose_value(st: &mut ExecState, exec: &Exec, arity: usize) -> Result<usize, ()> {
    debug_assert!(arity > 1);
    let k = match &mut st.drive {
        Drive::Dfs => {
            if st.cursor == st.path.len() {
                st.path.push(Choice::Value { arity, next: 0 });
            }
            let Choice::Value { arity: stored, next } = &st.path[st.cursor] else {
                fail_locked(st, exec, "internal: schedule divergence (expected value node)".into());
                return Err(());
            };
            debug_assert_eq!(*stored, arity, "value arity must replay deterministically");
            let k = *next;
            st.cursor += 1;
            k
        }
        Drive::Random(rng) => rng.gen_range(0..arity as u64) as usize,
        Drive::Replay(toks) => {
            let tok = toks.get(st.replay_pos).copied();
            st.replay_pos += 1;
            match tok {
                Some(Tok::Value(k)) if k < arity => k,
                other => {
                    fail_locked(
                        st,
                        exec,
                        format!(
                            "schedule diverged at step {}: token {other:?}, load arity {arity}",
                            st.replay_pos - 1
                        ),
                    );
                    return Err(());
                }
            }
        }
    };
    st.log.push(Tok::Value(k));
    Ok(k)
}

// ---------------------------------------------------------------------------
// Memory-model op execution
// ---------------------------------------------------------------------------

fn is_acquire(o: Ordering) -> bool {
    matches!(o, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(o: Ordering) -> bool {
    matches!(o, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

/// Absolute indices of the store entries thread `tid` may read right now.
fn visible_floor(st: &ExecState, loc: usize, tid: usize) -> u64 {
    let l = &st.locs[loc];
    let clock = &st.threads[tid].clock;
    let mut floor = l.base;
    for (i, e) in l.entries.iter().enumerate().rev() {
        if clock.contains(e.tid, e.seq) {
            floor = l.base + i as u64;
            break;
        }
    }
    floor.max(l.last_seen.get(tid).copied().unwrap_or(0))
}

fn note_seen(l: &mut LocState, tid: usize, abs: u64) {
    if l.last_seen.len() <= tid {
        l.last_seen.resize(tid + 1, 0);
    }
    l.last_seen[tid] = l.last_seen[tid].max(abs);
}

fn append_entry(st: &mut ExecState, loc: usize, tid: usize, val: u64, msg: VClock) {
    let seq = st.threads[tid].clock.tick(tid);
    let cap = st.cfg.history_cap.max(1);
    let l = &mut st.locs[loc];
    l.entries.push_back(Entry { val, tid, seq, msg });
    while l.entries.len() > cap {
        l.entries.pop_front();
        l.base += 1;
    }
    let newest = l.newest_abs();
    note_seen(l, tid, newest);
}

enum OpOut {
    Val(u64),
    CasOk(u64),
    CasErr(u64),
    Unit,
}

/// Executes `op` for `tid` against the model state. Called with the lock
/// held, by the granted thread itself.
fn execute_op<'a>(
    mut st: MutexGuard<'a, ExecState>,
    exec: &'a Exec,
    tid: usize,
    op: Op,
) -> (MutexGuard<'a, ExecState>, OpOut) {
    // A lock acquisition is an acquire CAS that the scheduler only grants
    // while the lock word reads 0, so it cannot fail.
    let kind = match op.kind {
        OpKind::Lock => {
            OpKind::Cas { cur: 0, new: 1, succ: Ordering::Acquire, fail: Ordering::Relaxed }
        }
        kind => kind,
    };
    let out = match kind {
        OpKind::Lock => unreachable!("rewritten to a CAS above"),
        OpKind::Park => {
            let msg = st.threads[tid].token.take().expect("park is granted only with a token");
            st.threads[tid].clock.join(&msg);
            OpOut::Unit
        }
        OpKind::Unpark(target) => {
            let mut msg = st.threads[tid].clock.clone();
            if let Some(pending) = st.threads[target].token.take() {
                msg.join(&pending);
            }
            st.threads[target].token = Some(msg);
            OpOut::Unit
        }
        OpKind::Fence(ord) => {
            if ord == Ordering::SeqCst {
                let sc = st.sc.clone();
                st.threads[tid].clock.join(&sc);
                let tc = st.threads[tid].clock.clone();
                st.sc.join(&tc);
            } else {
                // The deque only issues SeqCst fences; weaker fences would
                // need read/write-set bookkeeping this model doesn't carry.
                fail_locked(&mut st, exec, format!("unmodeled fence ordering {ord:?}"));
                abort_unwind(st);
            }
            OpOut::Unit
        }
        OpKind::Join(target) => {
            let tclock = st.threads[target].clock.clone();
            st.threads[tid].clock.join(&tclock);
            OpOut::Unit
        }
        OpKind::Finish => OpOut::Unit,
        OpKind::Load(ord) => {
            let loc = op.loc.expect("load has a location");
            if ord == Ordering::SeqCst {
                let sc = st.sc.clone();
                st.threads[tid].clock.join(&sc);
            }
            let floor = visible_floor(&st, loc, tid);
            let newest = st.locs[loc].newest_abs();
            let arity = (newest - floor + 1) as usize;
            // Option k reads the k-th newest visible entry (0 = SC value).
            let k = if arity > 1 {
                match choose_value(&mut st, exec, arity) {
                    Ok(k) => k,
                    Err(()) => abort_unwind(st),
                }
            } else {
                0
            };
            let abs = newest - k as u64;
            let l = &mut st.locs[loc];
            let idx = (abs - l.base) as usize;
            let val = l.entries[idx].val;
            let msg = l.entries[idx].msg.clone();
            note_seen(l, tid, abs);
            if is_acquire(ord) {
                st.threads[tid].clock.join(&msg);
            }
            if ord == Ordering::SeqCst {
                let tc = st.threads[tid].clock.clone();
                st.sc.join(&tc);
            }
            OpOut::Val(val)
        }
        OpKind::Store(val, ord) => {
            let loc = op.loc.expect("store has a location");
            if ord == Ordering::SeqCst {
                let sc = st.sc.clone();
                st.threads[tid].clock.join(&sc);
            }
            let msg = if is_release(ord) {
                // The message carries the storer's clock including the
                // store event itself (`append_entry` performs the same
                // tick on the live clock).
                let mut c = st.threads[tid].clock.clone();
                let _ = c.tick(tid);
                c
            } else {
                VClock::new()
            };
            append_entry(&mut st, loc, tid, val, msg);
            if ord == Ordering::SeqCst {
                let tc = st.threads[tid].clock.clone();
                st.sc.join(&tc);
            }
            OpOut::Unit
        }
        OpKind::Cas { cur, new, succ, fail } => {
            let loc = op.loc.expect("cas has a location");
            if succ == Ordering::SeqCst || fail == Ordering::SeqCst {
                let sc = st.sc.clone();
                st.threads[tid].clock.join(&sc);
            }
            let l = &st.locs[loc];
            let newest_abs = l.newest_abs();
            let latest_val = l.entries.back().expect("location has an entry").val;
            let latest_msg = l.entries.back().unwrap().msg.clone();
            if latest_val == cur {
                if is_acquire(succ) {
                    st.threads[tid].clock.join(&latest_msg);
                }
                let mut msg = latest_msg; // release-sequence continuation
                if is_release(succ) {
                    let mut c = st.threads[tid].clock.clone();
                    let _ = c.tick(tid);
                    msg.join(&c);
                }
                append_entry(&mut st, loc, tid, new, msg);
                if succ == Ordering::SeqCst {
                    let tc = st.threads[tid].clock.clone();
                    st.sc.join(&tc);
                }
                OpOut::CasOk(cur)
            } else {
                if is_acquire(fail) {
                    st.threads[tid].clock.join(&latest_msg);
                }
                let l = &mut st.locs[loc];
                note_seen(l, tid, newest_abs);
                OpOut::CasErr(latest_val)
            }
        }
        OpKind::Rmw { kind, arg, ord } => {
            let loc = op.loc.expect("rmw has a location");
            if ord == Ordering::SeqCst {
                let sc = st.sc.clone();
                st.threads[tid].clock.join(&sc);
            }
            let old = st.locs[loc].entries.back().expect("location has an entry").val;
            let latest_msg = st.locs[loc].entries.back().unwrap().msg.clone();
            if is_acquire(ord) {
                st.threads[tid].clock.join(&latest_msg);
            }
            let new = match kind {
                RmwKind::Add => old.wrapping_add(arg),
                RmwKind::Sub => old.wrapping_sub(arg),
                RmwKind::Swap => arg,
            };
            let mut msg = latest_msg;
            if is_release(ord) {
                let mut c = st.threads[tid].clock.clone();
                let _ = c.tick(tid);
                msg.join(&c);
            }
            append_entry(&mut st, loc, tid, new, msg);
            if ord == Ordering::SeqCst {
                let tc = st.threads[tid].clock.clone();
                st.sc.join(&tc);
            }
            OpOut::Val(old)
        }
    };
    (st, out)
}

// ---------------------------------------------------------------------------
// The yield point
// ---------------------------------------------------------------------------

/// Registers `op` as `tid`'s next transition, blocks until the scheduler
/// grants it, executes it, and resumes user code as the active thread.
fn op_yield(exec: &Arc<Exec>, tid: usize, op: Op) -> OpOut {
    let mut st = lk(exec);
    if st.aborting {
        abort_unwind(st);
    }
    st.threads[tid].pending = Some(op);
    st.threads[tid].parked = true;
    // Wake a spawner waiting for our first park.
    exec.cv.notify_all();
    if st.active == Some(tid) {
        st.active = None;
        if schedule_locked(&mut st, exec).is_err() {
            abort_unwind(st);
        }
    }
    loop {
        if st.aborting {
            abort_unwind(st);
        }
        if st.granted == Some(tid) {
            break;
        }
        st = exec.cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    st.granted = None;
    let op = st.threads[tid].pending.take().expect("granted thread has a pending op");
    if trace_on() {
        eprintln!("[trace] t{tid} step {} {:?}", st.steps, op.kind);
    }
    st.steps += 1;
    if st.steps > st.cfg.max_steps {
        let msg = format!("livelock suspected: exceeded max_steps = {}", st.cfg.max_steps);
        fail_locked(&mut st, exec, msg);
        abort_unwind(st);
    }
    let (mut st, out) = execute_op(st, exec, tid, op);
    st.threads[tid].parked = false;
    st.active = Some(tid);
    st.prev_exec = Some(tid);
    drop(st);
    out
}

// ---------------------------------------------------------------------------
// Shim entry points (used by `crate::sync` and `crate::thread`)
// ---------------------------------------------------------------------------

/// A shimmed atomic operation, location-attached.
pub(crate) enum ShimOp {
    Load(Ordering),
    Store(u64, Ordering),
    Cas { cur: u64, new: u64, succ: Ordering, fail: Ordering },
    Rmw { kind: RmwKind, arg: u64, ord: Ordering },
    /// Blocking acquisition of a lock word (see [`OpKind::Lock`]).
    Lock,
}

pub(crate) enum ShimOut {
    Val(u64),
    CasOk(u64),
    CasErr(u64),
    Unit,
}

fn with_current<R>(f: impl FnOnce(&Arc<Exec>, usize) -> R) -> Option<R> {
    // While unwinding (abort tokens, counterexample panics) shim operations
    // bypass the model and hit the real atomics: `Drop` impls of model
    // state must be able to run without re-entering the aborted execution.
    if std::thread::panicking() || BYPASS.with(|b| b.get()) {
        return None;
    }
    let cur = CURRENT.with(|c| c.borrow().as_ref().map(|(e, t)| (Arc::clone(e), *t)));
    cur.map(|(exec, tid)| f(&exec, tid))
}

/// Resolves (lazily registering) the model location behind `loc_cell`.
/// Must run with the state lock held; `init` supplies the location's
/// pre-execution value.
fn resolve_loc(st: &mut ExecState, loc_cell: &AtomicU64, init: &dyn Fn() -> u64) -> usize {
    let packed = loc_cell.load(ROrd::Relaxed);
    let generation = packed >> 24;
    if generation == st.generation {
        return ((packed & 0xFF_FFFF) - 1) as usize;
    }
    let idx = st.locs.len();
    assert!(idx < 0xFF_FFFF, "too many atomic locations in one model");
    st.locs.push(LocState {
        entries: VecDeque::from([Entry { val: init(), tid: 0, seq: 0, msg: VClock::new() }]),
        base: 0,
        last_seen: Vec::new(),
    });
    loc_cell.store((st.generation << 24) | (idx as u64 + 1), ROrd::Relaxed);
    idx
}

/// Runs one shimmed atomic op under the active execution, or returns
/// `None` when no execution is active on this thread (callers fall back
/// to the real atomic).
pub(crate) fn shim_op(
    loc_cell: &AtomicU64,
    init: &dyn Fn() -> u64,
    op: ShimOp,
) -> Option<ShimOut> {
    with_current(|exec, tid| {
        let loc = {
            let mut st = lk(exec);
            if st.aborting {
                abort_unwind(st);
            }
            resolve_loc(&mut st, loc_cell, init)
        };
        let kind = match op {
            ShimOp::Load(o) => OpKind::Load(o),
            ShimOp::Store(v, o) => OpKind::Store(v, o),
            ShimOp::Cas { cur, new, succ, fail } => OpKind::Cas { cur, new, succ, fail },
            ShimOp::Rmw { kind, arg, ord } => OpKind::Rmw { kind, arg, ord },
            ShimOp::Lock => OpKind::Lock,
        };
        match op_yield(exec, tid, Op { loc: Some(loc), kind }) {
            OpOut::Val(v) => ShimOut::Val(v),
            OpOut::CasOk(v) => ShimOut::CasOk(v),
            OpOut::CasErr(v) => ShimOut::CasErr(v),
            OpOut::Unit => ShimOut::Unit,
        }
    })
}

/// A shimmed `fence`; `None` when no execution is active.
pub(crate) fn shim_fence(ord: Ordering) -> Option<()> {
    with_current(|exec, tid| {
        op_yield(exec, tid, Op { loc: None, kind: OpKind::Fence(ord) });
    })
}

/// Blocks the calling virtual thread until it holds a wake token, then
/// consumes it. Panics outside a model.
pub(crate) fn park_vthread() {
    with_current(|exec, tid| {
        op_yield(exec, tid, Op { loc: None, kind: OpKind::Park });
    })
    .expect("cilk_check::thread::park used outside a model execution")
}

/// The calling virtual thread's id. Panics outside a model.
pub(crate) fn current_vthread() -> usize {
    with_current(|_, tid| tid).expect("cilk_check::thread::current used outside a model execution")
}

/// Hands a wake token to virtual thread `target`. Panics outside a model.
pub(crate) fn unpark_vthread(target: usize) {
    with_current(|exec, tid| {
        op_yield(exec, tid, Op { loc: None, kind: OpKind::Unpark(target) });
    })
    .expect("cilk_check::thread::unpark used outside a model execution")
}

/// Declares that this model may end with every unfinished thread parked
/// (see [`crate::thread::park`]) and registers the check that judges such
/// an end: if it returns, the execution is complete; if it panics, that is
/// the counterexample. Without one, an all-blocked end is a deadlock. The
/// check runs once, after the last transition, with shimmed operations
/// reading the final (newest) values. Panics outside a model.
pub fn at_quiescence(check: impl FnOnce() + Send + 'static) {
    with_current(|exec, _| lk(exec).at_quiescence = Some(Box::new(check)))
        .expect("cilk_check::at_quiescence used outside a model execution");
}

/// Whether the calling OS thread is inside a model execution.
pub fn in_model() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Spawns a virtual thread running `f`. Panics outside a model.
pub(crate) fn spawn_vthread(f: Box<dyn FnOnce() -> Box<dyn Any + Send> + Send>) -> usize {
    with_current(|exec, parent| {
        let tid;
        {
            let mut st = lk(exec);
            if st.aborting {
                abort_unwind(st);
            }
            tid = st.threads.len();
            let clock = st.threads[parent].clock.clone();
            st.threads.push(ThreadSt::new(clock));
            st.live_os += 1;
        }
        let exec2 = Arc::clone(exec);
        pool::run(Box::new(move || {
            CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec2), tid)));
            let r = panic::catch_unwind(AssertUnwindSafe(|| {
                let val = f();
                // Make completion a schedulable transition before the
                // status flips, so joiners and sleep sets observe it.
                op_yield(&exec2, tid, Op { loc: None, kind: OpKind::Finish });
                val
            }));
            CURRENT.with(|c| *c.borrow_mut() = None);
            let mut st = lk(&exec2);
            match r {
                Ok(val) => st.threads[tid].result = Some(val),
                Err(p) => {
                    if !p.is::<AbortToken>() {
                        fail_locked(&mut st, &exec2, payload_msg(p.as_ref()));
                    }
                }
            }
            st.threads[tid].status = Status::Finished;
            st.threads[tid].parked = false;
            st.threads[tid].pending = None;
            if st.active == Some(tid) {
                st.active = None;
                if !st.aborting && !st.done {
                    let _ = schedule_locked(&mut st, &exec2);
                }
            }
            st.live_os -= 1;
            exec2.cv.notify_all();
        }));
        // Hand the baton to nobody: wait until the child parks at its
        // first yield point (at latest its Finish op) so that scheduling
        // decisions always see every thread's next operation.
        let mut st = lk(exec);
        loop {
            if st.aborting {
                abort_unwind(st);
            }
            if st.threads[tid].parked || st.threads[tid].status == Status::Finished {
                break;
            }
            st = exec.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        tid
    })
    .expect("cilk_check::thread::spawn used outside a model execution")
}

/// Blocks until vthread `target` finishes and returns its result.
pub(crate) fn join_vthread(target: usize) -> Box<dyn Any + Send> {
    with_current(|exec, tid| {
        op_yield(exec, tid, Op { loc: None, kind: OpKind::Join(target) });
        let mut st = lk(exec);
        if st.aborting {
            abort_unwind(st);
        }
        st.threads[target]
            .result
            .take()
            .expect("joined thread has a result (already joined?)")
    })
    .expect("cilk_check::thread::join used outside a model execution")
}

// ---------------------------------------------------------------------------
// Running one execution
// ---------------------------------------------------------------------------

enum Outcome {
    Complete,
    Pruned,
    Failed(String),
}

fn run_once(cfg: &Config, drive: Drive, path: Vec<Choice>, f: &dyn Fn()) -> (Outcome, Vec<Choice>, Vec<Tok>) {
    let exec = Arc::new(Exec {
        m: Mutex::new(ExecState {
            threads: vec![ThreadSt::new(VClock::new())],
            locs: Vec::new(),
            generation: EXEC_GEN.fetch_add(1, ROrd::Relaxed),
            sc: VClock::new(),
            active: Some(0),
            granted: None,
            prev_exec: None,
            preemptions: 0,
            steps: 0,
            path,
            cursor: 0,
            cur_sleep: Vec::new(),
            drive,
            replay_pos: 0,
            log: Vec::new(),
            cfg: cfg.clone(),
            failure: None,
            pruned: false,
            aborting: false,
            done: false,
            live_os: 0,
            at_quiescence: None,
        }),
        cv: Condvar::new(),
    });
    CURRENT.with(|c| {
        assert!(c.borrow().is_none(), "model executions must not nest");
        *c.borrow_mut() = Some((Arc::clone(&exec), 0));
    });
    let r = panic::catch_unwind(AssertUnwindSafe(f));
    CURRENT.with(|c| *c.borrow_mut() = None);
    {
        let mut st = lk(&exec);
        st.threads[0].status = Status::Finished;
        st.threads[0].parked = false;
        st.threads[0].pending = None;
        if st.active == Some(0) {
            st.active = None;
        }
        if let Err(p) = &r {
            if !p.is::<AbortToken>() {
                fail_locked(&mut st, &exec, payload_msg(p.as_ref()));
            }
        }
        // Unjoined children keep running until everyone finishes.
        if !st.aborting && !st.done {
            let _ = schedule_locked(&mut st, &exec);
        }
        loop {
            if st.aborting || st.done {
                break;
            }
            st = exec.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if !st.done {
            st.aborting = true;
        }
        exec.cv.notify_all();
        // Reclaim every pooled OS thread before the next execution reuses
        // the pool.
        while st.live_os > 0 {
            st = exec.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
    let mut st = lk(&exec);
    if trace_on() {
        eprintln!(
            "[trace] run_once end: done={} pruned={} failure={:?}",
            st.done, st.pruned, st.failure
        );
    }
    let outcome = if let Some(msg) = st.failure.take() {
        Outcome::Failed(msg)
    } else if st.pruned {
        Outcome::Pruned
    } else {
        Outcome::Complete
    };
    let path = std::mem::take(&mut st.path);
    let log = std::mem::take(&mut st.log);
    drop(st);
    (outcome, path, log)
}

/// Advances the DFS tree to the next unexplored branch; false when the
/// whole tree is exhausted.
fn backtrack(path: &mut Vec<Choice>) -> bool {
    loop {
        match path.last_mut() {
            None => return false,
            Some(Choice::Value { arity, next }) => {
                *next += 1;
                if *next < *arity {
                    return true;
                }
                path.pop();
            }
            Some(Choice::Thread { options, next, .. }) => {
                *next += 1;
                if *next < options.len() {
                    return true;
                }
                path.pop();
            }
        }
    }
}

/// Explores `f` under `mode`, returning a [`Report`] (never panicking on
/// counterexamples — see [`crate::model`] for the panicking wrapper).
pub fn explore(name: &str, cfg: &Config, mode: Mode, f: &dyn Fn()) -> Report {
    match mode {
        Mode::Replay { schedule } => {
            let toks = sched::parse(&schedule)
                .unwrap_or_else(|e| panic!("invalid CILK_CHECK_SCHEDULE for `{name}`: {e}"));
            let (outcome, _, log) = run_once(cfg, Drive::Replay(toks), Vec::new(), f);
            Report {
                executions: 1,
                pruned: 0,
                truncated: false,
                failure: match outcome {
                    Outcome::Failed(message) => {
                        Some(Failure { schedule: sched::format(&log), message })
                    }
                    _ => None,
                },
            }
        }
        Mode::Random { iters } => {
            let key = format!("cilk-check.{name}");
            let mut pruned = 0;
            for i in 0..iters {
                let rng = cilk_testkit::rng_for_case(&key, i);
                let (outcome, _, log) = run_once(cfg, Drive::Random(rng), Vec::new(), f);
                match outcome {
                    Outcome::Failed(message) => {
                        return Report {
                            executions: i + 1,
                            pruned,
                            truncated: false,
                            failure: Some(Failure { schedule: sched::format(&log), message }),
                        };
                    }
                    Outcome::Pruned => pruned += 1,
                    Outcome::Complete => {}
                }
            }
            Report { executions: iters, pruned, truncated: false, failure: None }
        }
        Mode::Exhaustive => {
            let progress: u64 = std::env::var("CILK_CHECK_PROGRESS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            let mut path: Vec<Choice> = Vec::new();
            let mut executions = 0u64;
            let mut pruned = 0u64;
            loop {
                if executions >= cfg.max_executions {
                    return Report { executions, pruned, truncated: true, failure: None };
                }
                if progress != 0 && executions.is_multiple_of(progress) {
                    eprintln!("[cilk-check {name}] {executions} executions ({pruned} pruned), depth {}", path.len());
                }
                let (outcome, new_path, log) = run_once(cfg, Drive::Dfs, path, f);
                path = new_path;
                executions += 1;
                match outcome {
                    Outcome::Failed(message) => {
                        return Report {
                            executions,
                            pruned,
                            truncated: false,
                            failure: Some(Failure { schedule: sched::format(&log), message }),
                        };
                    }
                    Outcome::Pruned => pruned += 1,
                    Outcome::Complete => {}
                }
                if !backtrack(&mut path) {
                    return Report { executions, pruned, truncated: false, failure: None };
                }
            }
        }
    }
}
