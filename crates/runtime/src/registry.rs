//! The registry: worker threads, their deques, stealing, and injection.
//!
//! This is the scheduler of §3.2 of the paper: each worker owns a deque
//! used as a stack ("the worker operating on the bottom and thieves
//! stealing from the top"); a worker that runs out of work becomes a thief
//! and steals the top frame from a randomly chosen victim. All
//! communication and synchronization is incurred only when a worker runs
//! out of work — including the wake-ups: how an idle worker searches,
//! parks and is woken is the protocol of [`crate::idle`].

use std::cell::Cell;
use std::ptr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use cilk_deque::{Protocol, Steal, Stealer, Worker};

use crate::admission::{Injector, Overloaded, Priority, RejectReason, SubmitError, TenantId};
use crate::config::{BuildPoolError, Config, RuntimeStalled};
use crate::fault::{self, FaultAction, FaultHandler, FaultSite};
use crate::idle::{Idle, IdleEnv};
use crate::job::{JobRef, StackJob};
use crate::latch::{LockLatch, Parker, Probe};
use crate::lifecycle::{self, RetireEnv};
use crate::metrics::{CounterBlock, MetricsSnapshot};
use crate::probe::{self, ProbeEvent};
use crate::supervisor::{self, Supervision};
use crate::unwind;

/// Worker index standing for a thread outside the pool (an injecting
/// caller); never equal to a real worker index.
pub(crate) const INJECTED_OWNER: usize = usize::MAX - 7;

/// Per-worker bookkeeping visible to the whole registry.
struct ThreadInfo {
    stealer: Stealer<JobRef>,
    /// Where this slot's worker blocks when the idle protocol parks it:
    /// the slot's, not the thread's, so a respawned worker parks on it too.
    parker: Parker,
}

/// Rounds of an idle worker's search before it parks — a scan per round,
/// `spin_loop` hints between the first, a `yield_now` between the last; a
/// few microseconds in all. A long search (200 + 16) is a measured dead
/// end: the searcher holds the processor the woken client needs.
const SEARCH_SPINS: u32 = 16;
const SEARCH_YIELDS: u32 = 2;
// A woken worker looks for the work it was woken for in its first round.
const _: () = assert!(SEARCH_SPINS + SEARCH_YIELDS > 0);

/// Rounds a client blocked in [`LockLatch::wait_for`] polls before it parks,
/// paced as a search (docs/scheduler.md, "Blocking", has the ablations).
pub(crate) const WAIT_SPINS: u32 = 16;
pub(crate) const WAIT_YIELDS: u32 = 8;

/// The pause after round `round` of a bounded poll whose first `spins`
/// rounds spin: a few `spin_loop` hints, then a `yield_now`.
pub(crate) fn pause(round: u32, spins: u32) {
    if round < spins {
        (0..8).for_each(|_| std::hint::spin_loop());
    } else {
        thread::yield_now();
    }
}

/// Shared state of one thread pool.
pub(crate) struct Registry {
    thread_infos: Vec<ThreadInfo>,
    /// Sharded bounded injection queues (one unbounded shard on pools
    /// built without [`Config::admission`]). See `crate::admission`.
    pub(crate) injector: Injector,
    /// Who is parked and who is searching (see [`crate::idle`]).
    idle: Idle,
    terminate: AtomicBool,
    /// One counter block per worker slot, written only by the thread that
    /// currently owns the slot (see [`WorkerThread::probe`]).
    worker_counters: Box<[CounterBlock]>,
    /// The shared block for events raised by anything else: external
    /// submitters, the supervisor, retiring and emergency serial workers.
    off_pool_counters: CounterBlock,
    /// Base seed of the pool's victim-selection PRNG streams (per-worker
    /// streams are derived by worker index). Surfaced so randomized test
    /// failures can print the exact value to replay the schedule bias.
    pub(crate) rng_seed: u64,
    /// Fault-injection decision function, if this pool is under test.
    fault_handler: Option<FaultHandler>,
    /// External-wait deadline before diagnosing a stall (None = unbounded).
    stall_timeout: Option<Duration>,
    /// Self-healing state, if the pool is supervised (see `supervisor`).
    supervision: Option<Supervision>,
    /// Thread-naming prefix, kept for respawned workers.
    thread_name_prefix: String,
    /// Worker stack size, kept for respawned workers.
    stack_size: usize,
}

// SAFETY: `JobRef`s in the injected queue are `Send`; everything else is
// composed of sync primitives.
unsafe impl Send for Registry {}
// SAFETY: as for `Send`: shared access reaches the queued `JobRef`s only
// through the injector's locks and the deques' atomics.
unsafe impl Sync for Registry {}

impl Registry {
    /// Builds the registry and starts its worker threads.
    pub(crate) fn new(
        config: &Config,
    ) -> Result<(Arc<Registry>, Vec<JoinHandle<()>>), BuildPoolError> {
        let n = config.resolved_workers();
        let mut deques = Vec::with_capacity(n);
        let mut infos = Vec::with_capacity(n);
        for _ in 0..n {
            let deque = cilk_deque::Deque::new();
            infos.push(ThreadInfo {
                stealer: deque.stealer(),
                parker: Parker::new(),
            });
            deques.push(deque.into_worker_with(Protocol::fence_elided()));
        }
        let registry = Arc::new(Registry {
            thread_infos: infos,
            injector: Injector::new(config.admission.as_ref()),
            idle: Idle::new(n),
            terminate: AtomicBool::new(false),
            worker_counters: (0..n).map(|_| CounterBlock::default()).collect(),
            off_pool_counters: CounterBlock::default(),
            rng_seed: config.rng_seed.unwrap_or_else(cilk_testkit::base_seed),
            fault_handler: config.fault_handler.clone(),
            stall_timeout: config.stall_timeout,
            supervision: config
                .supervision
                .as_ref()
                .map(|policy| Supervision::new(n, policy.clone())),
            thread_name_prefix: config.thread_name_prefix.clone(),
            stack_size: config.stack_size,
        });
        let mut handles = Vec::with_capacity(n + 1);
        for (index, deque) in deques.into_iter().enumerate() {
            handles.push(registry.spawn_worker(index, deque, 0)?);
        }
        if registry.supervision.is_some() {
            // The watchdog/respawn monitor. It exits on `terminate`, so it
            // joins with the ordinary worker handles at pool drop.
            let monitor_registry = Arc::clone(&registry);
            let handle = thread::Builder::new()
                .name(format!("{}-supervisor", config.thread_name_prefix))
                .spawn(move || supervisor::monitor_main(monitor_registry))
                .map_err(|source| BuildPoolError { source })?;
            handles.push(handle);
        }
        Ok((registry, handles))
    }

    /// Spawns the worker thread for `index`, owning `deque`. `generation`
    /// is 0 for the pool's original workers and the respawn attempt number
    /// for replacements (it only affects the thread name).
    pub(crate) fn spawn_worker(
        self: &Arc<Self>,
        index: usize,
        deque: Worker<JobRef>,
        generation: u64,
    ) -> Result<JoinHandle<()>, BuildPoolError> {
        let registry = Arc::clone(self);
        let name = if generation == 0 {
            format!("{}-{}", self.thread_name_prefix, index)
        } else {
            format!("{}-{}-r{}", self.thread_name_prefix, index, generation)
        };
        thread::Builder::new()
            .name(name)
            .stack_size(self.stack_size)
            .spawn(move || WorkerThread::new(registry, index, deque, index as u64 + 1).main_loop())
            .map_err(|source| BuildPoolError { source })
    }

    /// Number of workers in this pool.
    pub(crate) fn num_workers(&self) -> usize {
        self.thread_infos.len()
    }

    /// Initial xorshift state for the worker stream keyed by `key`,
    /// derived from the pool seed through the testkit generator so
    /// `CILK_TEST_SEED` replays the identical steal schedule bias.
    /// Never zero (the xorshift fixed point).
    fn worker_rng_state(&self, key: u64) -> u64 {
        let mut rng = cilk_testkit::rng::Rng::from_keys(self.rng_seed, &[key]);
        loop {
            let state = rng.next_u64();
            if state != 0 {
                return state;
            }
        }
    }

    /// Snapshot of the pool counters: counts summed and high-watermarks
    /// maxed over every worker's block and the off-pool block.
    pub(crate) fn metrics(&self) -> MetricsSnapshot {
        let mut total = self.off_pool_counters.snapshot();
        for block in self.worker_counters.iter() {
            total.absorb(&block.snapshot());
        }
        total
    }

    /// One snapshot per worker slot, of what that slot's workers counted
    /// themselves. Off-pool events (injection, admission, supervision) are
    /// in [`Registry::metrics`] only.
    pub(crate) fn metrics_per_worker(&self) -> Vec<MetricsSnapshot> {
        self.worker_counters.iter().map(CounterBlock::snapshot).collect()
    }

    /// This pool's supervision state, if it was configured.
    #[inline]
    pub(crate) fn supervision(&self) -> Option<&Supervision> {
        self.supervision.as_ref()
    }

    /// Whether termination has been signalled.
    pub(crate) fn should_terminate(&self) -> bool {
        self.terminate.load(Ordering::SeqCst)
    }

    /// Workers currently alive: every slot when unsupervised (losses are
    /// not tracked), the supervision live count otherwise.
    pub(crate) fn live_workers(&self) -> usize {
        match &self.supervision {
            Some(sup) => sup.live(),
            None => self.num_workers(),
        }
    }

    /// Jobs sitting in the external-injection queues right now.
    pub(crate) fn queued_jobs(&self) -> usize {
        self.injector.depth()
    }

    /// Whether installs must degrade to serial in-place execution: a
    /// supervised pool with zero live workers and no recovery in flight.
    pub(crate) fn degraded_serial(&self) -> bool {
        self.supervision
            .as_ref()
            .is_some_and(|sup| sup.live() == 0 && !sup.recovery_possible())
    }

    /// How often a client blocked on a queued job wakes to re-check
    /// [`Registry::degraded_serial`]: once per watchdog tick on a
    /// supervised pool. An unsupervised pool never degrades, so its
    /// clients sleep until the job completes (or their own timeout).
    pub(crate) fn rescue_step(&self) -> Option<Duration> {
        self.supervision.is_some().then_some(supervisor::CHECK_INTERVAL)
    }

    /// Reports one scheduler event raised off-pool (or by a thread that
    /// owns no worker slot): delivered to the pool's shared counter block —
    /// one relaxed atomic read-modify-write per counter the event feeds —
    /// and then to any registered global probe consumers (one relaxed
    /// atomic load when there are none). Workers report through
    /// [`WorkerThread::probe`] instead, which writes no shared line.
    #[inline]
    pub(crate) fn probe(&self, event: ProbeEvent) {
        self.off_pool_counters.record_shared(&event);
        probe::emit(&event);
    }

    /// Reports one event on behalf of worker slot `who`: to that slot's own
    /// block with plain stores — so `who` must be the calling worker's own
    /// index — or to the shared block when `who` is no slot: an off-pool
    /// thread, or the emergency serial worker (several may exist at once
    /// under the same sentinel index).
    #[inline(always)]
    fn probe_as(&self, who: usize, event: ProbeEvent) {
        match self.worker_counters.get(who) {
            Some(own) => own.record_owned(&event),
            None => self.off_pool_counters.record_shared(&event),
        }
        probe::emit(&event);
    }

    /// Queues a job from outside the pool and wakes a worker. Capacity-
    /// exempt legacy path (`install` has no rejection channel); `submit`
    /// goes through [`Registry::admit`] instead.
    pub(crate) fn inject(&self, job: JobRef) {
        let (shard, depth) = self.injector.push_exempt(Priority::Normal, [job]);
        self.probe(ProbeEvent::Inject);
        self.probe(ProbeEvent::QueueDepth { shard, depth });
        self.notify_work(INJECTED_OWNER);
    }

    /// Requeues jobs reclaimed from a dead worker's deque, batched under a
    /// single shard lock. Unlike [`Registry::inject`] this does not count
    /// as an external injection — the jobs were already accounted when
    /// first spawned — and it bypasses shard capacity: dropping reclaimed
    /// work would strand it, the exact failure reclamation exists to
    /// prevent.
    pub(crate) fn reinject(&self, jobs: Vec<JobRef>) {
        if jobs.is_empty() {
            return;
        }
        let n = jobs.len();
        let (shard, depth) = self.injector.push_exempt(Priority::High, jobs);
        if n > 1 {
            self.probe(ProbeEvent::InjectorBatch { jobs: n });
        }
        self.probe(ProbeEvent::QueueDepth { shard, depth });
        self.notify_work(INJECTED_OWNER);
    }

    /// What an idle worker scans before it parks: anything queued in the
    /// injector, anything published in a deque, or termination.
    fn work_visible(&self) -> bool {
        self.injector.depth() > 0
            || self.thread_infos.iter().any(|info| !info.stealer.is_empty())
            || self.should_terminate()
    }

    /// Tells the idle protocol that work just became *visible* — an
    /// injector enqueue or a deque publication, never a push that stayed in
    /// its owner's private window. Wakes at most one parked worker, and
    /// none while another is searching. `by` is the calling worker's index,
    /// or [`INJECTED_OWNER`] off-pool.
    #[inline]
    pub(crate) fn notify_work(&self, by: usize) {
        self.idle.notify_work(&RegistryIdle { registry: self, who: by, empty_wake: false });
    }

    /// Wakes every parked worker: termination, and a respawned slot (the
    /// victim set just changed). The only wake-everyone callers.
    pub(crate) fn wake_all(&self) {
        self.idle.wake_all(&RegistryIdle { registry: self, who: INJECTED_OWNER, empty_wake: false });
    }

    /// Signals workers to exit once their work is drained.
    pub(crate) fn terminate(&self) {
        self.terminate.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    /// Runs `op` on a worker of this pool: directly if the current thread
    /// is already a pool worker, otherwise by injecting a job and blocking.
    pub(crate) fn in_worker<OP, R>(self: &Arc<Self>, op: OP) -> R
    where
        OP: FnOnce(&WorkerThread) -> R + Send,
        R: Send,
    {
        match self.in_worker_checked(op) {
            Ok(r) => r,
            // The unchecked entry point has no error channel; a diagnosed
            // stall becomes a panic carrying the full diagnosis, which is
            // still strictly better than the silent deadlock it replaces.
            Err(stall) => panic!("{stall}"),
        }
    }

    /// Like [`Registry::in_worker`], but a configured
    /// [`Config::stall_timeout`](crate::Config::stall_timeout) turns an
    /// unclaimed injected job into an [`RuntimeStalled`] error — and a
    /// supervised pool that has lost every worker with no recovery left
    /// runs the job serially in place instead of failing (graceful
    /// degradation to the serial elision).
    pub(crate) fn in_worker_checked<OP, R>(self: &Arc<Self>, op: OP) -> Result<R, RuntimeStalled>
    where
        OP: FnOnce(&WorkerThread) -> R + Send,
        R: Send,
    {
        // On a service pool (admission policy installed) the legacy entry
        // points bill the default tenant: admitted unconditionally —
        // `install`/`scope` predate the admission layer and have no error
        // channel — but fully accounted, so `admitted == completed +
        // cancelled` covers every job the pool ever ran. Unpoliced pools
        // skip all of this.
        let billed = self.injector.has_policy().then_some(TenantId::DEFAULT);
        if let Some(tenant) = billed {
            self.injector.note_legacy_admitted(tenant);
            self.probe(ProbeEvent::JobAdmitted { tenant: tenant.0 });
        }
        let current = WorkerThread::current();
        if !current.is_null() || self.degraded_serial() {
            let _complete = billed.map(|tenant| InlineComplete { registry: self, tenant });
            if current.is_null() {
                return Ok(self.run_in_place(op));
            }
            // Already on a worker thread (of this or another pool); run in
            // place. Cross-pool installs execute on the calling pool, which
            // preserves the paper's composability property.
            // SAFETY: a non-null `current()` is this thread's live worker.
            return Ok(op(unsafe { &*current }));
        }
        self.run_injected(billed, op, |job| {
            self.inject(job);
            Ok(())
        })
    }

    /// Runs `op` on a worker by way of the injector and blocks until it has
    /// run: `enqueue` places the job or refuses it, then the caller waits —
    /// forever on a plain pool, in bounded steps when a stall timeout or
    /// supervision may have to rescue the job. `tenant`, if any, is billed
    /// the completion or the cancellation.
    fn run_injected<OP, R, E>(
        self: &Arc<Self>,
        tenant: Option<TenantId>,
        op: OP,
        enqueue: impl FnOnce(JobRef) -> Result<(), E>,
    ) -> Result<R, E>
    where
        OP: FnOnce(&WorkerThread) -> R + Send,
        R: Send,
        E: From<RuntimeStalled>,
    {
        // The op lives in a slot the injected job empties on execution.
        // If the pool dies before claiming the job, the slot still holds
        // the op and the caller can run it serially in place.
        let mut op_slot = Some(op);
        let op_ptr = SendPtr(&mut op_slot as *mut Option<OP>);
        let job = StackJob::<_, _, _, false>::new(
            move || {
                let op_ptr = op_ptr;
                let wt = WorkerThread::current();
                debug_assert!(!wt.is_null(), "injected job must run on a worker");
                // SAFETY: the slot outlives the job (the caller waits on
                // the latch), and exactly one of {job execution,
                // post-cancel fallback} takes from it; jobs run on workers.
                unsafe {
                    let op = (*op_ptr.0).take().expect("injected op taken twice");
                    op(&*wt)
                }
            },
            LockLatch::new(),
        );
        // SAFETY: `job` stays on this frame until its latch is set or it
        // has been cancelled out of the queue, and is executed at most once.
        let job_ref = unsafe { job.as_job_ref() };
        enqueue(job_ref)?;
        let bill = |note: fn(&Injector, TenantId)| {
            if let Some(tenant) = tenant {
                note(&self.injector, tenant);
            }
        };
        let step = [self.stall_timeout, self.rescue_step()]
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(Duration::MAX);
        let mut waited = Duration::ZERO;
        while !job.latch.wait_for(step) {
            waited = waited.saturating_add(step);
            // A supervised pool that went fully dead with no recovery in
            // flight will never claim the job: reclaim it from the queue and
            // honor it serially in place — completed, not cancelled. (A
            // claimed job is already executing — wait on; a removed one
            // never will, so its frame can be abandoned.)
            if self.degraded_serial() && self.injector.cancel(job_ref) {
                let op = op_slot.take().expect("cancelled job retains its op");
                bill(Injector::note_completed);
                return Ok(self.run_in_place(op));
            }
            // Stall deadline passed. If the job is still sitting in the
            // queue no worker will ever claim it (all dead or wedged): cancel
            // it — making the stack frame safe to abandon — and diagnose.
            if self.stall_timeout.is_some_and(|t| waited >= t) && self.injector.cancel(job_ref) {
                bill(Injector::note_cancelled);
                return Err(self.stall_error(waited).into());
            }
        }
        // Count completion before `take_result`: a captured panic resumes
        // there, and the billed work did run to its end.
        bill(Injector::note_completed);
        // SAFETY: the latch is set, so the job has run and stored its result
        // (with no strand state: an injected job is not a `join`'s).
        Ok(unsafe { job.take_result() }.0)
    }

    /// Serial in-place execution of an installed op: the last resort of a
    /// supervised pool with no live workers and no respawn budget. An
    /// "emergency" worker context is materialized on the caller's stack so
    /// nested `join`/`scope`/`cilk_for` calls work normally — they just
    /// run depth-first, exactly like the serial elision. Its deque is
    /// invisible to the (dead) pool, and its sentinel index sits one past
    /// the real slots so probes and victim loops stay well-formed.
    pub(crate) fn run_in_place<OP, R>(self: &Arc<Self>, op: OP) -> R
    where
        OP: FnOnce(&WorkerThread) -> R + Send,
        R: Send,
    {
        self.probe(ProbeEvent::PoolDegraded { live: 0 });
        let deque = cilk_deque::Deque::new().into_worker();
        let worker = WorkerThread::new(Arc::clone(self), self.num_workers(), deque, 0xE5CA_1A7E);
        // Restore the previous TLS value even if `op` panics.
        struct TlsRestore(*const WorkerThread);
        impl Drop for TlsRestore {
            fn drop(&mut self) {
                WORKER_THREAD.with(|cell| cell.set(self.0));
            }
        }
        let _restore = TlsRestore(WorkerThread::current());
        WORKER_THREAD.with(|cell| cell.set(&worker as *const WorkerThread));
        op(&worker)
    }

    /// Assembles the [`RuntimeStalled`] diagnosis for a timed-out wait.
    /// On a supervised pool the error also names the suspect worker slots
    /// from the watchdog's last heartbeat scan, each with the probe site
    /// where it was last seen beating.
    fn stall_error(&self, waited: Duration) -> RuntimeStalled {
        let metrics = self.metrics();
        RuntimeStalled {
            waited,
            workers: self.num_workers(),
            live_workers: self.live_workers(),
            workers_died: metrics.workers_died,
            pending_injected: self.injector.depth(),
            suspects: self
                .supervision()
                .map(|sup| sup.suspect_slots())
                .unwrap_or_default(),
            metrics: Box::new(metrics),
        }
    }

    /// The admission-controlled analogue of
    /// [`Registry::in_worker_checked`]: the engine behind
    /// `ThreadPool::submit`. Off-pool the job is admitted into the queue
    /// and the caller waits for it; on a worker it is admitted inline and
    /// runs in place (like `install`), still holding a quota slot so a
    /// tenant's fair share covers its nested work too. One admission
    /// attempt either way: every refusal is a typed [`SubmitError`].
    pub(crate) fn submit_checked<OP, R>(
        self: &Arc<Self>,
        tenant: TenantId,
        priority: Priority,
        op: OP,
    ) -> Result<R, SubmitError>
    where
        OP: FnOnce(&WorkerThread) -> R + Send,
        R: Send,
    {
        let current = WorkerThread::current();
        if current.is_null() {
            return self.run_injected(Some(tenant), op, |job| {
                self.admit(tenant, Placement::Queue(priority, job))
            });
        }
        self.admit(tenant, Placement::Inline)?;
        // Complete-on-drop: the quota slot is released even when `op`
        // unwinds (the panic is the submitter's outcome; the admitted work
        // still counts as completed).
        let _complete = InlineComplete { registry: self, tenant };
        // SAFETY: a non-null `current()` is this thread's live worker.
        Ok(op(unsafe { &*current }))
    }

    /// The one admission step of every submission. In order: the circuit
    /// breaker (an open one fast-fails on atomics alone, touching no
    /// per-tenant stats — those live behind the shard lock it exists to
    /// avoid); a degraded pool sheds a job that would queue behind workers
    /// that will never come back; the quota reservation; the `Inject`
    /// fault point; the placement; then the books. `Ok` means admitted and
    /// placed: the caller's ticket now owes exactly one `note_completed` or
    /// `note_cancelled`. A refusal after the reservation releases it here.
    pub(crate) fn admit(&self, tenant: TenantId, place: Placement) -> Result<(), SubmitError> {
        if let Err(over) = self.injector.breaker_check(tenant) {
            self.probe(ProbeEvent::JobRejected { tenant: tenant.0 });
            return Err(over.into());
        }
        let refusal = if matches!(place, Placement::Queue(..)) && self.degraded_serial() {
            self.shed(tenant)
        } else if let Err(over) = self.injector.reserve(tenant) {
            over
        } else {
            let placed = self.consult_inject_fault(tenant).and_then(|()| match place {
                Placement::Inline => {
                    self.injector.note_admitted_inline(tenant);
                    Ok(None)
                }
                Placement::Queue(priority, job) => {
                    self.injector.enqueue(tenant, priority, job).map(Some)
                }
            });
            match placed {
                Ok(queued_at) => {
                    self.injector.breaker_outcome(tenant, true);
                    self.probe(ProbeEvent::JobAdmitted { tenant: tenant.0 });
                    if let Some((shard, depth)) = queued_at {
                        self.probe(ProbeEvent::Inject);
                        self.probe(ProbeEvent::QueueDepth { shard, depth });
                        self.notify_work(INJECTED_OWNER);
                    }
                    return Ok(());
                }
                Err(over) => {
                    self.injector.release_reservation(tenant);
                    over
                }
            }
        };
        self.injector.note_rejected(tenant);
        self.probe(ProbeEvent::JobRejected { tenant: tenant.0 });
        self.note_breaker_rejection(tenant);
        Err(refusal.into())
    }

    /// The refusal of a dead pool, or of an injected `Die` at the
    /// admission boundary: it sheds new work (work already admitted still
    /// drains via the serial fallback).
    fn shed(&self, tenant: TenantId) -> Overloaded {
        Overloaded {
            tenant,
            queued: self.injector.depth(),
            capacity: 0,
            reason: RejectReason::Shed,
            retry_after: None,
        }
    }

    /// Consults the pool's fault handler at the [`FaultSite::Inject`]
    /// seam on behalf of the submitting thread (which is typically outside
    /// the pool, where [`fault::fault_point`] would no-op), holding a
    /// fresh quota reservation for `tenant`:
    ///
    /// * `Panic` releases the reservation, then unwinds with
    ///   [`crate::fault::InjectedFault`] — no quota leak, nothing queued;
    /// * `Stall` sleeps at the admission boundary, perturbing arrival
    ///   order;
    /// * `Die` has no worker to kill here, so it sheds the submission,
    ///   simulating sudden pool death at the admission boundary.
    fn consult_inject_fault(&self, tenant: TenantId) -> Result<(), Overloaded> {
        let Some(handler) = &self.fault_handler else {
            return Ok(());
        };
        let action = handler(FaultSite::Inject);
        if let Some(kind) = action.kind() {
            self.probe(ProbeEvent::Fault { site: FaultSite::Inject, kind });
        }
        match action {
            FaultAction::Continue => Ok(()),
            FaultAction::Stall(d) => {
                thread::sleep(d);
                Ok(())
            }
            FaultAction::Panic => {
                self.injector.release_reservation(tenant);
                // A half-open probe that unwinds must still resolve the
                // breaker, or it would stick half-open forever.
                self.note_breaker_rejection(tenant);
                std::panic::panic_any(crate::fault::InjectedFault {
                    site: FaultSite::Inject,
                });
            }
            FaultAction::Die => Err(self.shed(tenant)),
        }
    }

    /// Records a rejection with `tenant`'s circuit breaker and emits the
    /// trip event if this strike opened it.
    fn note_breaker_rejection(&self, tenant: TenantId) {
        if self.injector.breaker_outcome(tenant, false) {
            self.probe(ProbeEvent::BreakerTripped { tenant: tenant.0 });
        }
    }
}

/// Where [`Registry::admit`] places an admitted submission.
pub(crate) enum Placement {
    /// Runs in place on the calling worker; nothing queues.
    Inline,
    /// Queued in the tenant's home shard in this priority band.
    Queue(Priority, JobRef),
}

/// Releases an inline submission's quota slot on scope exit, even when the
/// submitted op unwinds (see `Registry::submit_checked`).
struct InlineComplete<'a> {
    registry: &'a Registry,
    tenant: TenantId,
}

impl Drop for InlineComplete<'_> {
    fn drop(&mut self) {
        self.registry.injector.note_completed(self.tenant);
    }
}

/// A raw pointer that may travel into a `Send` closure. Safety is argued at
/// each use site; the wrapper only exists to satisfy the auto-trait bound.
struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: see the use sites — the pointee outlives the closure and access
// is mutually exclusive by protocol.
unsafe impl<T> Send for SendPtr<T> {}

thread_local! {
    static WORKER_THREAD: Cell<*const WorkerThread> = const { Cell::new(ptr::null()) };
}

/// Runs `f` on the current thread's worker context, if it has one.
fn on_worker<R>(f: impl FnOnce(&WorkerThread) -> R) -> Option<R> {
    let ptr = WorkerThread::current();
    // SAFETY: the pointer is set for the lifetime of `main_loop` (or of
    // `run_in_place`) and only read from its own thread.
    (!ptr.is_null()).then(|| f(unsafe { &*ptr }))
}

/// Bumps the current pool's `panics_captured` counter. Called at every
/// site that captures a [`crate::unwind::PanicPayload`] for propagation;
/// counts capture *events* (a panic crossing several nested joins is
/// captured once per frame). No-op off-pool (e.g. under serial capture).
pub(crate) fn note_panic_captured() {
    on_worker(|wt| wt.probe(ProbeEvent::PanicCaptured { worker: wt.index() }));
}

/// Bumps the current pool's `tasks_cancelled` counter. No-op off-pool.
pub(crate) fn note_task_cancelled() {
    on_worker(|wt| wt.probe(ProbeEvent::TaskCancelled { worker: wt.index() }));
}

/// Returns the index of the current worker thread, if any.
pub(crate) fn current_worker_index() -> Option<usize> {
    on_worker(WorkerThread::index)
}

/// State owned by a single worker thread. Lives on that thread's stack for
/// the duration of [`WorkerThread::main_loop`] and is reachable through a
/// thread-local pointer.
pub(crate) struct WorkerThread {
    deque: Worker<JobRef>,
    index: usize,
    registry: Arc<Registry>,
    /// This slot's own block in `registry.worker_counters`; null for the
    /// emergency serial worker, which owns no slot.
    counters: *const CounterBlock,
    /// The pool's fault handler, fixed when the pool is built.
    pub(crate) fault_handler: Option<FaultHandler>,
    rng_state: Cell<u64>,
    depth: Cell<usize>,
    /// Set by [`FaultAction::Die`]: the worker finishes the obligations
    /// already on its stack and retires at its next top-of-loop (sealing
    /// and reclaiming its deque; see [`WorkerThread::retire`]).
    pending_death: Cell<bool>,
}

impl WorkerThread {
    /// The context of the worker in slot `index` (one past the last slot
    /// for the emergency serial worker), drawing victims from the pool's
    /// PRNG stream `rng_key`.
    fn new(registry: Arc<Registry>, index: usize, deque: Worker<JobRef>, rng_key: u64) -> Self {
        WorkerThread {
            rng_state: Cell::new(registry.worker_rng_state(rng_key)),
            depth: Cell::new(0),
            pending_death: Cell::new(false),
            counters: registry.worker_counters.get(index).map_or(ptr::null(), ptr::from_ref),
            fault_handler: registry.fault_handler.clone(),
            deque,
            index,
            registry,
        }
    }

    /// The current thread's worker pointer (null on non-pool threads).
    #[inline]
    pub(crate) fn current() -> *const WorkerThread {
        WORKER_THREAD.with(Cell::get)
    }

    /// This worker's index within its pool.
    pub(crate) fn index(&self) -> usize {
        self.index
    }

    /// The registry this worker belongs to.
    pub(crate) fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Current `join` nesting depth on this worker.
    pub(crate) fn depth(&self) -> usize {
        self.depth.get()
    }

    pub(crate) fn bump_depth(&self) -> usize {
        let d = self.depth.get() + 1;
        self.depth.set(d);
        // The depth high-watermark is recorded when `join` reports its
        // `Spawn` probe event (see the counter table in `metrics`).
        d
    }

    pub(crate) fn drop_depth(&self) {
        let depth = self.depth.get();
        debug_assert!(depth > 0, "drop_depth without a matching bump_depth");
        self.depth.set(depth - 1);
    }

    /// Reports one scheduler event raised by this worker: delivered to the
    /// worker's own counter block with plain stores — it is the block's
    /// only writer, so the un-stolen `join` cycle writes no line another
    /// thread writes — and then to any registered global probe consumers
    /// (one relaxed atomic load when there are none).
    ///
    /// Always inlined: every caller passes a freshly built event, and only
    /// at the call site can the counter table fold down to that variant's
    /// one or two stores.
    #[inline(always)]
    pub(crate) fn probe(&self, event: ProbeEvent) {
        self.record::<true>(event);
    }

    /// [`WorkerThread::probe`] that hands the event on only if `EMIT`.
    #[inline(always)]
    pub(crate) fn record<const EMIT: bool>(&self, event: ProbeEvent) {
        // SAFETY: `counters` is null or points into `self.registry`'s
        // counter blocks, which the `Arc` this worker holds keeps alive;
        // this thread owns the slot, so it is the block's only writer.
        match unsafe { self.counters.as_ref() } {
            Some(own) => own.record_owned(&event),
            None => self.registry.off_pool_counters.record_shared(&event),
        }
        if EMIT {
            probe::emit(&event);
        }
    }

    /// Marks this worker for simulated death (see [`FaultAction::Die`]).
    /// Deliberately deferred: dying mid-`join` would leak the latch the
    /// continuation's thief will set, so the worker only retires once its
    /// stack has unwound back to the scheduling loop.
    pub(crate) fn request_death(&self) {
        self.pending_death.set(true);
    }

    /// One heartbeat for the watchdog, tagged with the probe site it came
    /// from (so stall diagnoses can name where a silent worker was last
    /// seen). A single `Option` discriminant test when supervision is off
    /// — the same order of cost as the probe layer's disabled relaxed
    /// load.
    #[inline]
    pub(crate) fn beat(&self, site: supervisor::BeatSite) {
        if let Some(sup) = self.registry.supervision() {
            sup.beat(self.index, site);
        }
    }

    /// Pushes a stealable job onto the bottom of this worker's deque.
    ///
    /// The job may sit in the owner's
    /// private window until the next batch publication — the right
    /// behaviour for `join` continuations, which the owner usually pops
    /// right back — and a push that publishes nothing notifies nobody: no
    /// thief could steal it. Work that exists to be *taken* (scope tasks,
    /// handoff surplus) should go through [`WorkerThread::push_published`].
    ///
    /// Always inlined, like [`WorkerThread::take_local_job`] and
    /// [`WorkerThread::current`] (`#[inline]`): `join` is generic, so it is
    /// compiled into the caller's crate, where these would otherwise be
    /// out-of-line calls on every spawn. The wake-up of a publishing push
    /// stays out of line.
    #[inline(always)]
    pub(crate) fn push<const EMIT: bool>(&self, job: JobRef) {
        let published = self.deque.push(job);
        self.record::<EMIT>(ProbeEvent::DequeLen { worker: self.index, len: self.deque.len() });
        if published {
            self.notify_published();
        }
    }

    /// The wake-up after a [`WorkerThread::push`] that published.
    #[cold]
    fn notify_published(&self) {
        self.registry.notify_work(self.index);
    }

    /// Pushes a stealable job and immediately publishes the owner's
    /// private window, making it (and everything older) visible to
    /// thieves now instead of at the next batch boundary.
    pub(crate) fn push_published(&self, job: JobRef) {
        self.deque.push(job);
        self.deque.publish();
        self.probe(ProbeEvent::DequeLen { worker: self.index, len: self.deque.len() });
        self.registry.notify_work(self.index);
    }

    /// Pops the most recent local job, if any.
    #[inline]
    pub(crate) fn take_local_job(&self) -> Option<JobRef> {
        self.deque.pop()
    }

    /// xorshift64* PRNG for victim selection.
    fn next_random(&self) -> u64 {
        let mut x = self.rng_state.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state.set(x);
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// One full round of steal attempts: a ring scan over every other
    /// worker from a random start (the paper's random victim selection).
    fn steal(&self) -> Option<JobRef> {
        self.beat(supervisor::BeatSite::StealRound);
        // Fault consultation happens before the single-worker early-return
        // so `steal`-site plans fire deterministically at any pool width.
        // `Panic` cannot unwind here — a scheduler thread outside a job has
        // no capture frame — so it aborts the round instead (and `Die`
        // additionally marks the worker).
        if let Some(handler) = &self.fault_handler {
            // Consult exactly once per round: handlers may count occurrences.
            let action = handler(FaultSite::Steal);
            match action {
                FaultAction::Continue => {}
                FaultAction::Panic | FaultAction::Die => {
                    let kind = action.kind().expect("non-Continue action has a kind");
                    self.probe(ProbeEvent::Fault { site: FaultSite::Steal, kind });
                    self.probe(ProbeEvent::StealAborted { thief: self.index });
                    if action == FaultAction::Die {
                        self.request_death();
                    }
                    return None;
                }
                FaultAction::Stall(_) => fault::apply(self, action, FaultSite::Steal),
            }
        }
        let n = self.registry.num_workers();
        if n <= 1 {
            return None;
        }
        loop {
            let mut retry = false;
            let start = (self.next_random() as usize) % n;
            for victim in (0..n).map(|offset| (start + offset) % n) {
                match self.steal_from(victim) {
                    Steal::Success(job) => return Some(job),
                    Steal::Retry => retry = true,
                    Steal::Empty => {}
                }
            }
            if !retry {
                return None;
            }
            std::hint::spin_loop();
        }
    }

    /// One counted steal attempt on `victim`. This worker itself and a dead
    /// slot read as empty without an attempt: degraded pools shrink the
    /// victim set to live workers, and a slot is only marked dead *after*
    /// its deque has been drained into the injector, so skipping it strands
    /// nothing.
    fn steal_from(&self, victim: usize) -> Steal<JobRef> {
        let registry = &*self.registry;
        if victim == self.index || registry.supervision().is_some_and(|sup| !sup.is_alive(victim)) {
            return Steal::Empty;
        }
        let attempt = registry.thread_infos[victim].stealer.steal();
        if let Steal::Success(_) = attempt {
            self.probe(ProbeEvent::StealSuccess { thief: self.index, victim });
        } else {
            self.probe(ProbeEvent::StealFailed { thief: self.index });
        }
        attempt
    }

    /// Finds work: local deque first, then stealing, then the injector.
    pub(crate) fn find_work(&self) -> Option<JobRef> {
        self.take_local_job()
            .or_else(|| self.steal())
            .or_else(|| self.claim_injected())
    }

    /// Claims a handoff batch from the injection shards (round-robin from
    /// a random start). The first job is returned for immediate execution;
    /// the surplus rides to this worker's own deque, so the cross-thread
    /// handoff costs one shard lock per `handoff_batch` jobs and the
    /// surplus becomes ordinary stealable work.
    fn claim_injected(&self) -> Option<JobRef> {
        let registry = &*self.registry;
        let shards = registry.injector.shards();
        let start =
            if shards > 1 { (self.next_random() as usize) % shards } else { 0 };
        let batch = registry.injector.claim(start, registry.injector.handoff_batch);
        for tenant in batch.aged {
            self.probe(ProbeEvent::JobAged { tenant });
        }
        let mut jobs = batch.jobs.into_iter();
        let first = jobs.next()?;
        let surplus = jobs.len();
        for job in jobs {
            // Published: handoff surplus exists to spread across workers.
            self.push_published(job);
        }
        if surplus > 0 {
            self.probe(ProbeEvent::InjectorBatch { jobs: surplus + 1 });
        }
        Some(first)
    }

    /// Executes one job.
    ///
    /// # Safety
    ///
    /// `job` must not have been executed before.
    pub(crate) unsafe fn execute(&self, job: JobRef) {
        job.execute();
    }

    /// Waits for `latch` as a thief (§3.2): executes other work until it
    /// is set. Helping starts with this worker's own deque, so jobs still
    /// in its private (unpublished) window are never stranded by a wait.
    pub(crate) fn wait_until<L: Probe>(&self, latch: &L) {
        let mut idle_spins = 0u32;
        while !latch.probe() {
            if let Some(job) = self.find_work() {
                // SAFETY: jobs from deques/injector are executed once.
                unsafe { self.execute(job) };
                self.beat(supervisor::BeatSite::WaitExecute);
                idle_spins = 0;
                continue;
            }
            idle_spins += 1;
            if idle_spins < 16 {
                std::hint::spin_loop();
            } else {
                thread::yield_now();
            }
        }
    }

    /// The worker's top-level scheduling loop.
    fn main_loop(self) {
        WORKER_THREAD.with(|cell| cell.set(&self as *const WorkerThread));
        self.probe(ProbeEvent::WorkerStart { worker: self.index });
        let mut died = false;
        loop {
            self.beat(supervisor::BeatSite::MainLoop);
            if self.pending_death.get() {
                // Simulated worker loss: every stack obligation has unwound
                // (we are at top-of-loop), so retiring here leaves no latch
                // unset and no job half-run.
                died = true;
                break;
            }
            let job = match self.find_work() {
                Some(job) => job,
                None if self.registry.should_terminate() => break,
                // A steal-site fault marked this worker dead: to the top.
                None if self.pending_death.get() => continue,
                // `None` again sends it to the top, to die or to terminate.
                None => match self.idle() {
                    Some(job) => job,
                    None => continue,
                },
            };
            // A panic escaping the job boundary would otherwise tear down
            // the thread with no accounting at all (jobs capture their own
            // panics, so this is a raw `Job` impl or a runtime bug). Treat
            // it as worker death: the supervisor reclaims the deque and can
            // respawn the slot.
            // SAFETY: jobs are executed exactly once.
            if unwind::halt_unwinding(|| unsafe { self.execute(job) }).is_err() {
                died = true;
                break;
            }
        }
        WORKER_THREAD.with(|cell| cell.set(ptr::null()));
        if died {
            self.retire();
        } else {
            self.probe(ProbeEvent::WorkerTerminate { worker: self.index });
        }
    }

    /// Retires a dead worker: reclaims its deque so no task is stranded,
    /// reports the loss to the supervisor (which may respawn the slot with
    /// this very deque), and lets the thread exit. Unsupervised pools do
    /// the same reclamation — the loss is then simply permanent.
    fn retire(self) {
        let WorkerThread { deque, index, registry, .. } = self;
        lifecycle::retire_worker(deque, &mut RegistryRetire { registry: &registry, index });
    }

    /// Out of work: searches briefly, then parks (no timeout) until a
    /// publication or termination hands this worker a token, and searches
    /// again — see [`crate::idle`]. A scan costs loads only and a steal is
    /// attempted only once one saw something, so an idle pool counts
    /// nothing. `None`: the pool is terminating, or a steal-site fault
    /// marked this worker dead.
    fn idle(&self) -> Option<JobRef> {
        let registry = &*self.registry;
        let mut env = RegistryIdle { registry, who: self.index, empty_wake: false };
        self.probe(ProbeEvent::WorkerSearch { worker: self.index });
        registry.idle.start_search();
        loop {
            for round in 0..SEARCH_SPINS + SEARCH_YIELDS {
                if registry.work_visible() {
                    let job = self.find_work();
                    if job.is_some() || registry.should_terminate() || self.pending_death.get() {
                        registry.idle.end_search(&env);
                        return job;
                    }
                }
                pause(round, SEARCH_SPINS);
            }
            env.empty_wake = registry.idle.park(self.index, &env);
        }
    }
}

/// [`IdleEnv`] over the registry, for worker slot `who` — or for an
/// off-pool thread, which only ever wakes, when `who` is no slot.
struct RegistryIdle<'a> {
    registry: &'a Registry,
    who: usize,
    /// Whether `who`'s last park ended with a token and no work since.
    empty_wake: bool,
}

impl IdleEnv for RegistryIdle<'_> {
    fn work_visible(&self) -> bool {
        self.registry.work_visible()
    }

    fn block(&self, slot: usize) {
        debug_assert_eq!(slot, self.who, "a worker parks only itself");
        let event = ProbeEvent::WorkerPark { worker: slot, empty_wake: self.empty_wake };
        self.registry.probe_as(slot, event);
        if let Some(sup) = self.registry.supervision() {
            sup.beat(slot, supervisor::BeatSite::Parked);
        }
        self.registry.thread_infos[slot].parker.park(Duration::MAX);
    }

    fn unblock(&self, slot: usize) {
        self.registry.probe_as(self.who, ProbeEvent::WorkerUnpark { worker: slot, by: self.who });
        self.registry.thread_infos[slot].parker.unpark();
    }
}

/// [`RetireEnv`] over the registry: probes for observability, the injector
/// for reclaimed jobs, and the supervisor (if any) for the orphaned deque.
struct RegistryRetire<'a> {
    registry: &'a Arc<Registry>,
    index: usize,
}

impl RetireEnv<JobRef> for RegistryRetire<'_> {
    fn on_died(&mut self) {
        self.registry.probe(ProbeEvent::WorkerDied { worker: self.index });
    }

    fn reinject(&mut self, jobs: Vec<JobRef>) {
        self.registry.reinject(jobs);
    }

    fn on_reclaimed(&mut self, jobs: usize) {
        self.registry.probe(ProbeEvent::DequeReclaimed { worker: self.index, jobs });
    }

    fn note_death(&mut self) -> bool {
        match self.registry.supervision() {
            Some(sup) => {
                sup.note_death(self.index);
                true
            }
            None => false,
        }
    }

    fn offer_orphan(&mut self, deque: Worker<JobRef>) {
        self.registry
            .supervision()
            .expect("offer_orphan follows a supervised note_death")
            .offer_orphan(self.index, deque);
    }

    fn on_terminate(&mut self) {
        self.registry.probe(ProbeEvent::WorkerTerminate { worker: self.index });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_starts_and_terminates() {
        let config = Config::new().num_workers(2);
        let (registry, handles) = Registry::new(&config).expect("spawn workers");
        assert_eq!(registry.num_workers(), 2);
        registry.terminate();
        for h in handles {
            h.join().expect("worker panicked");
        }
    }

    #[test]
    fn in_worker_runs_op_on_pool_thread() {
        let config = Config::new().num_workers(2);
        let (registry, handles) = Registry::new(&config).expect("spawn workers");
        let idx = registry.in_worker(|wt| wt.index());
        assert!(idx < 2);
        registry.terminate();
        for h in handles {
            h.join().expect("worker panicked");
        }
    }

    #[test]
    fn injected_jobs_count() {
        let config = Config::new().num_workers(1);
        let (registry, handles) = Registry::new(&config).expect("spawn workers");
        registry.in_worker(|_| ());
        assert!(registry.metrics().injections >= 1);
        registry.terminate();
        for h in handles {
            h.join().expect("worker panicked");
        }
    }

    #[test]
    fn pool_rng_seed_pinned_and_defaulted() {
        let config = Config::new().num_workers(1).rng_seed(42);
        let (registry, handles) = Registry::new(&config).expect("spawn workers");
        assert_eq!(registry.rng_seed, 42);
        registry.terminate();
        for h in handles {
            h.join().expect("worker panicked");
        }
        let (registry, handles) =
            Registry::new(&Config::new().num_workers(1)).expect("spawn workers");
        assert_eq!(registry.rng_seed, cilk_testkit::base_seed());
        registry.terminate();
        for h in handles {
            h.join().expect("worker panicked");
        }
    }

    /// Spawn-at-every-level fib: `fib(n + 1) - 1` joins.
    fn fib(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = crate::join(|| fib(n - 1), || fib(n - 2));
        a + b
    }

    #[test]
    fn per_worker_snapshots_and_the_off_pool_block_fold_to_the_pool_metrics() {
        let config = Config::new().num_workers(4);
        let (registry, handles) = Registry::new(&config).expect("spawn workers");
        assert_eq!(registry.in_worker(|_| fib(18)), 2584);
        // Quiesce: once the workers have exited, no block has a writer.
        registry.terminate();
        for h in handles {
            h.join().expect("worker panicked");
        }
        let per_worker = registry.metrics_per_worker();
        let off_pool = registry.off_pool_counters.snapshot();
        let total = registry.metrics();
        assert_eq!(per_worker.len(), 4);
        let mut folded = off_pool;
        for worker in &per_worker {
            folded.absorb(worker);
        }
        assert_eq!(folded, total);
        // The same by hand for a count and a high-watermark: every join was
        // counted by the worker that ran it, the one injection by nobody's.
        assert_eq!(per_worker.iter().map(|w| w.spawns).sum::<u64>(), 4180);
        assert_eq!(total.spawns, 4180);
        assert_eq!(
            per_worker.iter().map(|w| w.depth_high_watermark).max(),
            Some(total.depth_high_watermark)
        );
        assert_eq!((off_pool.spawns, off_pool.injections, total.injections), (0, 1, 1));
        assert!(per_worker.iter().all(|w| w.injections == 0));
    }

    #[test]
    fn counter_blocks_never_share_a_cache_line() {
        let unit = crate::metrics::BLOCK_ALIGN;
        let (registry, handles) =
            Registry::new(&Config::new().num_workers(3)).expect("spawn workers");
        let spans: Vec<(usize, usize)> = registry
            .worker_counters
            .iter()
            .chain([&registry.off_pool_counters])
            .map(|block| {
                let start = block as *const CounterBlock as usize;
                (start, start + std::mem::size_of::<CounterBlock>())
            })
            .collect();
        assert_eq!(spans.len(), 4);
        for (i, a) in spans.iter().enumerate() {
            // Whole 128-byte units, so nothing else shares a block's lines…
            assert_eq!((a.0 % unit, a.1 % unit), (0, 0), "block {i} at {a:x?}");
            // …and no two blocks overlap.
            for b in &spans[i + 1..] {
                assert!(a.1 <= b.0 || b.1 <= a.0, "{a:x?} overlaps {b:x?}");
            }
        }
        registry.terminate();
        for h in handles {
            h.join().expect("worker panicked");
        }
    }

    /// Polls `cond` until it holds or `deadline` elapses.
    fn wait_for(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let start = std::time::Instant::now();
        while start.elapsed() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        cond()
    }

    #[test]
    fn escaped_panic_retires_worker_reclaims_deque_and_respawns() {
        use crate::job::HeapJob;
        use crate::supervisor::SupervisionPolicy;
        use std::sync::atomic::AtomicUsize;

        const PLANTED: usize = 8;
        let config = Config::new()
            .num_workers(1)
            .supervision(SupervisionPolicy::new().max_respawns(2).seed(7));
        let (registry, handles) = Registry::new(&config).expect("spawn workers");
        let ran = Arc::new(AtomicUsize::new(0));
        let bomb = {
            let ran = Arc::clone(&ran);
            HeapJob::new(0, move |_| {
                // Plant jobs on the (sole) worker's own deque, then panic
                // out of the job boundary: the worker must retire,
                // reclaim the planted jobs, and a respawned replacement
                // must run every one of them.
                // SAFETY: running on a pool worker, so current() is
                // non-null and valid.
                let wt = unsafe { &*WorkerThread::current() };
                for _ in 0..PLANTED {
                    let ran = Arc::clone(&ran);
                    let job = HeapJob::new(wt.index(), move |_| {
                        ran.fetch_add(1, Ordering::SeqCst);
                    });
                    // SAFETY: planted jobs are executed (possibly after
                    // reclamation) exactly once.
                    wt.push::<true>(unsafe { job.into_job_ref() });
                }
                panic!("simulated runtime bug escaping the job boundary");
            })
        };
        // SAFETY: the injected job is executed exactly once.
        registry.inject(unsafe { bomb.into_job_ref() });

        assert!(
            wait_for(Duration::from_secs(10), || ran.load(Ordering::SeqCst) == PLANTED),
            "planted jobs stranded: {} of {PLANTED} ran",
            ran.load(Ordering::SeqCst)
        );
        assert!(
            wait_for(Duration::from_secs(10), || {
                registry.metrics().workers_respawned == 1
            }),
            "replacement never recorded: {:?}",
            registry.metrics()
        );
        let m = registry.metrics();
        assert_eq!(m.workers_died, 1, "{m:?}");
        assert_eq!(m.jobs_reclaimed, PLANTED as u64, "{m:?}");
        let sup = registry.supervision().expect("supervised pool");
        assert!(wait_for(Duration::from_secs(5), || sup.live() == 1));

        registry.terminate();
        for h in handles {
            h.join().expect("worker/monitor panicked");
        }
        for h in sup.take_respawned_handles() {
            h.join().expect("respawned worker panicked");
        }
    }

    #[test]
    fn exhausted_budget_degrades_to_serial_installs() {
        use crate::job::HeapJob;
        use crate::supervisor::SupervisionPolicy;

        let config = Config::new()
            .num_workers(1)
            .supervision(SupervisionPolicy::new().max_respawns(0).seed(11));
        let (registry, handles) = Registry::new(&config).expect("spawn workers");
        let kill = HeapJob::new(0, |_| {
            // SAFETY: running on a pool worker, so current() is non-null.
            let wt = unsafe { &*WorkerThread::current() };
            wt.request_death();
        });
        // SAFETY: the injected job is executed exactly once.
        registry.inject(unsafe { kill.into_job_ref() });
        let sup = registry.supervision().expect("supervised pool");
        assert!(
            wait_for(Duration::from_secs(10), || sup.live() == 0),
            "worker never retired"
        );
        // Budget 0: recovery is impossible, so an install must run
        // serially in place instead of stalling forever.
        let v = registry.in_worker_checked(|_| 6 * 7).expect("serial fallback");
        assert_eq!(v, 42);
        let m = registry.metrics();
        assert!(m.pool_degraded >= 1, "{m:?}");
        assert_eq!(registry.queued_jobs(), 0, "no job may linger: {m:?}");

        registry.terminate();
        for h in handles {
            h.join().expect("worker/monitor panicked");
        }
        assert!(
            sup.take_respawned_handles().is_empty(),
            "budget 0 must never respawn"
        );
    }
}
