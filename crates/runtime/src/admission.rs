//! The admission layer: tenants, quotas, priorities, and the sharded
//! bounded injection queues behind [`crate::ThreadPool::submit`].
//!
//! The paper's runtime serves *one* program: a single global injection
//! queue and an unconditionally blocking `install` are fine when the only
//! caller is the process that built the pool. A scheduler *service* — one
//! pool absorbing request streams from many callers — needs three things
//! the paper never had to provide:
//!
//! * **Bounded, sharded injection.** External submissions land in one of
//!   several independently locked shards (a tenant hashes to a home
//!   shard), each with its own capacity. One hot tenant fills its own
//!   shard and is rejected there; other tenants' shards stay shallow and
//!   responsive. Idle workers drain shards round-robin in small batches,
//!   amortizing the cross-thread handoff the same way
//!   `Registry::reinject` already batches dead-worker reclamation (the
//!   low-synchronization injection argument of Rito & Paulino,
//!   PAPERS.md).
//! * **Per-tenant quotas.** Every submission reserves an in-flight slot
//!   against its tenant's fair share plus burst allowance before it may
//!   enqueue. A tenant at its quota is *rejected*, not queued — the
//!   structural guarantee behind the fairness property tests: admitted
//!   in-flight work per tenant never exceeds its weighted quota, no
//!   matter the arrival order.
//! * **Typed backpressure.** Overload is an [`Overloaded`] value carrying
//!   the observed queue depth, the capacity it hit, and the tenant —
//!   never an unbounded queue and never a silent stall. Degraded pools
//!   (zero live workers, no recovery budget) shed new submissions for the
//!   same reason; work already admitted still completes (serially in
//!   place if it must).
//!
//! Phase 2 makes overload a *shaped* regime instead of a cliff
//! (docs/scheduler-service.md):
//!
//! * **Weighted fairness.** [`AdmissionPolicy::weight`] gives a tenant a
//!   service weight: its in-flight quota scales to
//!   `fair_share × weight + burst`, and within a shard's band the claim
//!   path serves backlogged tenants **deficit-round-robin** — each flow
//!   earns `weight` credits when it starts a quantum at the head of the
//!   service order and spends one per claimed job; a flow a full handoff
//!   batch interrupts keeps its place and its remaining credit, and earns
//!   nothing more until that credit is spent. The DRR invariant: over any
//!   window in which a set of tenants stays continuously backlogged in
//!   one band, tenant *i*'s share of claims is within one quantum of
//!   `wᵢ/Σw`. A band's one index is its ring of flows: a tenant has a
//!   flow there exactly while it has jobs queued in that band.
//! * **Aging promotion.** Queued jobs older than
//!   [`AdmissionPolicy::age_after`] climb one priority band per claim
//!   pass (a sufficiently old job climbs several bands in one pass), so
//!   a permanent High flood cannot starve a Low trickle: every Low job
//!   ages into the band the flood occupies and DRR then guarantees it a
//!   bounded wait.
//! * **Circuit breaker.** [`AdmissionPolicy::breaker`] arms a per-tenant
//!   breaker that trips open after `threshold` consecutive rejections.
//!   An open breaker fast-fails further submissions in O(1) — atomics
//!   only, **no shard lock** — with a [`Overloaded::retry_after`] hint;
//!   after the cooldown one submission is admitted as a half-open probe
//!   and its outcome closes or re-opens the breaker. Breaker fast-fails
//!   are counted in pool metrics (`jobs_rejected`) but not in per-tenant
//!   shard stats — touching those would mean taking the shard lock the
//!   breaker exists to avoid.
//!
//! Every submission (`submit` off-pool or nested on a worker, and
//! `submit_async`) passes one admission step, `Registry::admit`: breaker,
//! shed, quota, the `Inject` fault point, placement, books. This module
//! holds the state that step reads and writes. Waiting for admission is
//! the client's [`crate::RetryPolicy`], not a loop in here.
//!
//! The exhaustive blocking-at-the-boundary bug catalog of Yu et al.
//! ("Fearless Concurrency?", PAPERS.md) is the negative space this module
//! is shaped by: every path either completes, returns a typed rejection,
//! or folds into the [`RuntimeStalled`](crate::RuntimeStalled) diagnosis —
//! there is no path that waits forever.
//!
//! Accounting invariants (asserted by `tests/admission_props.rs` and the
//! overload/starvation soaks):
//!
//! * `in_flight` returns to 0 once every submission has resolved;
//! * `admitted == completed + cancelled` after drain — rejected
//!   submissions touch neither side;
//! * per-shard queue depth never exceeds `shard_capacity` (reclaimed jobs
//!   from dead workers are exempt: they were admitted once already and
//!   must not be dropped).

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use crate::config::RuntimeStalled;
use crate::job::JobRef;
use crate::poison;

/// Identifies one tenant (caller / request stream) of a scheduler-service
/// pool. Quotas, rejection accounting, and shard placement are keyed by
/// this id. Plain `u32` newtype: tenants are a caller-side namespace, the
/// pool imposes no registration step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The default tenant used by [`crate::ThreadPool::submit`] callers
    /// that do not care about multi-tenancy, and billed by the legacy
    /// `install`/`scope` entry points on a service pool.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Scheduling priority of a submission. Within one shard, workers always
/// drain higher bands first (subject to aging promotion); across shards
/// the round-robin rotation keeps any one band of any one shard from
/// monopolizing the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Served before all `Normal` and `Low` work of the same shard.
    High,
    /// The default band.
    #[default]
    Normal,
    /// Background work: served when the shard's other bands are empty, or
    /// after aging into a higher band.
    Low,
}

/// Number of priority bands (the length of a shard's queue array).
const BANDS: usize = 3;

impl Priority {
    const fn band(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// Admission-control policy for a scheduler-service pool, installed with
/// [`Config::admission`](crate::Config::admission).
///
/// Pools built *without* a policy keep the original single-caller
/// behaviour: one unbounded shard, no quotas, no aging, and submissions
/// are always admitted. With a policy, [`crate::ThreadPool::submit`]
/// enforces the bounds described at the module level.
///
/// # Examples
///
/// ```
/// use cilk_runtime::{AdmissionPolicy, Config, TenantId, ThreadPool};
///
/// let pool = ThreadPool::with_config(
///     Config::new().num_workers(2).admission(
///         AdmissionPolicy::new().shards(2).shard_capacity(64).fair_share(8).burst(8),
///     ),
/// )?;
/// let v = pool.submit(TenantId(7), || 6 * 7).expect("under quota");
/// assert_eq!(v, 42);
/// # Ok::<(), cilk_runtime::BuildPoolError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionPolicy {
    pub(crate) shards: usize,
    pub(crate) shard_capacity: usize,
    pub(crate) fair_share: u64,
    pub(crate) burst: u64,
    pub(crate) handoff_batch: usize,
    pub(crate) weights: Vec<(u32, u32)>,
    pub(crate) age_after: Option<Duration>,
    pub(crate) breaker: Option<BreakerPolicy>,
}

/// Circuit-breaker knobs (see [`AdmissionPolicy::breaker`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BreakerPolicy {
    pub(crate) threshold: u32,
    pub(crate) cooldown: Duration,
}

impl AdmissionPolicy {
    /// The default service policy: 4 shards of capacity 256, a fair share
    /// of 16 in-flight submissions per tenant with a burst allowance of
    /// 16 more, 4-job handoff batches, 100 ms aging promotion, and no
    /// circuit breaker.
    pub fn new() -> AdmissionPolicy {
        AdmissionPolicy {
            shards: 4,
            shard_capacity: 256,
            fair_share: 16,
            burst: 16,
            handoff_batch: 4,
            weights: Vec::new(),
            age_after: Some(Duration::from_millis(100)),
            breaker: None,
        }
    }

    /// Number of independently locked injection shards.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n > 0, "a pool needs at least one injection shard");
        self.shards = n;
        self
    }

    /// Maximum queued submissions per shard; a full shard rejects.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn shard_capacity(mut self, n: usize) -> Self {
        assert!(n > 0, "a shard needs capacity for at least one job");
        self.shard_capacity = n;
        self
    }

    /// Per-tenant fair share of concurrently in-flight submissions (for a
    /// weight-1 tenant; see [`AdmissionPolicy::weight`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn fair_share(mut self, n: u64) -> Self {
        assert!(n > 0, "a tenant's fair share must admit at least one job");
        self.fair_share = n;
        self
    }

    /// Extra in-flight allowance above the fair share (may be zero).
    pub fn burst(mut self, n: u64) -> Self {
        self.burst = n;
        self
    }

    /// Maximum jobs one idle worker claims from a shard in a single lock
    /// acquisition; the surplus rides to the worker's own deque, so the
    /// per-job synchronization cost of the handoff is `1/batch` locks.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn handoff_batch(mut self, n: usize) -> Self {
        assert!(n > 0, "a handoff batch moves at least one job");
        self.handoff_batch = n;
        self
    }

    /// Gives `tenant` a service weight (default 1 for every tenant): its
    /// in-flight quota becomes `fair_share × w + burst`, and the
    /// deficit-round-robin claim path serves it `w` jobs per round while
    /// it stays backlogged.
    ///
    /// # Panics
    ///
    /// Panics if `w` is zero (a zero-weight tenant could never be served).
    pub fn weight(mut self, tenant: TenantId, w: u32) -> Self {
        assert!(w > 0, "a tenant's weight must be at least 1");
        self.weights.retain(|(id, _)| *id != tenant.0);
        self.weights.push((tenant.0, w));
        self
    }

    /// Queued jobs older than `d` are promoted one priority band per
    /// claim pass (keeping their original enqueue time, so they climb
    /// until served). Defaults to 100 ms.
    pub fn age_after(mut self, d: Duration) -> Self {
        self.age_after = Some(d);
        self
    }

    /// Arms the per-tenant circuit breaker: `threshold` consecutive
    /// rejections trip the tenant into fast-fail for `cooldown`, after
    /// which one submission is admitted as a half-open probe. Off by
    /// default.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn breaker(mut self, threshold: u32, cooldown: Duration) -> Self {
        assert!(threshold > 0, "a breaker needs at least one strike to trip");
        self.breaker = Some(BreakerPolicy { threshold, cooldown });
        self
    }
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        Self::new()
    }
}

/// Why a submission was rejected (the `reason` of [`Overloaded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant's home shard is at capacity.
    QueueFull,
    /// The tenant is at its in-flight quota (`fair_share × weight + burst`).
    QuotaExceeded,
    /// The pool shed the submission: it is degraded (zero live workers
    /// with no recovery possible) — or an injected
    /// [`FaultAction::Die`](crate::fault::FaultAction::Die)
    /// (see [`crate::fault::FaultSite::Inject`]) simulated exactly that
    /// at the admission boundary.
    Shed,
    /// The tenant's circuit breaker is open: recent submissions were
    /// rejected at `threshold` consecutive strikes, so the pool fast-fails
    /// without touching the shard until [`Overloaded::retry_after`] has
    /// passed (then one half-open probe is let through).
    BreakerOpen,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RejectReason::QueueFull => "queue full",
            RejectReason::QuotaExceeded => "quota exceeded",
            RejectReason::Shed => "load shed",
            RejectReason::BreakerOpen => "breaker open",
        })
    }
}

/// Typed backpressure: the pool refused a submission instead of queueing
/// it unboundedly or blocking the caller.
///
/// Returned by [`crate::ThreadPool::submit`] (inside
/// [`SubmitError::Overloaded`]). The fields are the load observation at
/// the moment of rejection, so callers can make a real decision — retry
/// with backoff ([`crate::RetryPolicy`]), shed their own load, or fail
/// the request upstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overloaded {
    /// The tenant whose submission was rejected.
    pub tenant: TenantId,
    /// Jobs queued on the rejecting shard at the moment of rejection (for
    /// [`RejectReason::QuotaExceeded`]: the tenant's in-flight count; for
    /// [`RejectReason::BreakerOpen`]: the strike count that tripped it).
    pub queued: usize,
    /// The bound that was hit: the shard capacity, the tenant's weighted
    /// quota, the breaker threshold, or 0 for a degraded pool shedding
    /// load.
    pub capacity: usize,
    /// Which bound rejected the submission.
    pub reason: RejectReason,
    /// When retrying might succeed, if the pool can estimate it (today:
    /// the remaining breaker cooldown). `None` means the pool has no
    /// estimate, not "never retry".
    pub retry_after: Option<Duration>,
}

impl fmt::Display for Overloaded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pool overloaded: {} rejected ({}, {}/{})",
            self.tenant, self.reason, self.queued, self.capacity
        )?;
        if let Some(after) = self.retry_after {
            write!(f, ", retry in ~{after:?}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Overloaded {}

/// Why a [`crate::ThreadPool::submit`] call failed.
#[derive(Debug, Clone)]
pub enum SubmitError {
    /// Rejected at admission: quota, shard capacity, breaker, or load
    /// shedding.
    Overloaded(Overloaded),
    /// Admitted (or waiting for admission past its deadline) but the pool
    /// failed to make progress: the full stall diagnosis, including the
    /// supervisor's suspect workers, current queue depth, and live-worker
    /// count — enough to distinguish "overloaded" from "dead".
    Stalled(RuntimeStalled),
}

impl SubmitError {
    /// The `retry_after` hint of the underlying rejection, if any (stall
    /// diagnoses carry none: retrying against a dead pool is not a plan).
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            SubmitError::Overloaded(o) => o.retry_after,
            SubmitError::Stalled(_) => None,
        }
    }
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Overloaded(o) => o.fmt(f),
            SubmitError::Stalled(s) => s.fmt(f),
        }
    }
}

impl std::error::Error for SubmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SubmitError::Overloaded(o) => Some(o),
            SubmitError::Stalled(s) => Some(s),
        }
    }
}

impl From<Overloaded> for SubmitError {
    fn from(o: Overloaded) -> SubmitError {
        SubmitError::Overloaded(o)
    }
}

impl From<RuntimeStalled> for SubmitError {
    fn from(s: RuntimeStalled) -> SubmitError {
        SubmitError::Stalled(s)
    }
}

/// Per-tenant admission counters, as reported by
/// [`crate::ThreadPool::admission_report`]. All cumulative since pool
/// creation except `in_flight`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantStats {
    /// Submissions admitted past quota and capacity into the queue (or
    /// run inline on a worker thread).
    pub admitted: u64,
    /// Submissions rejected (quota, capacity, or shed). Breaker
    /// fast-fails are *not* counted here: they never touch the shard.
    pub rejected: u64,
    /// Admitted submissions whose work ran to completion (including ones
    /// that completed by unwinding with the caller's own panic).
    pub completed: u64,
    /// Admitted submissions cancelled before running (stall-cancelled
    /// from the queue, [`crate::JobHandle::cancel`], or released by a
    /// fault at the admission boundary).
    pub cancelled: u64,
    /// Submissions currently holding an in-flight quota slot.
    pub in_flight: u64,
}

/// A point-in-time view of the admission layer: shard geometry, current
/// queue depth, and every tenant's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionReport {
    /// Number of injection shards.
    pub shards: usize,
    /// Capacity of each shard (`usize::MAX` when unbounded).
    pub shard_capacity: usize,
    /// Per-tenant in-flight quota for a weight-1 tenant
    /// (`fair_share + burst`; `u64::MAX` when unbounded).
    pub quota: u64,
    /// Total jobs currently queued across all shards.
    pub queued: usize,
    /// Every tenant that has ever submitted, sorted by id.
    pub tenants: Vec<(TenantId, TenantStats)>,
}

impl AdmissionReport {
    /// The stats of one tenant, if it ever submitted.
    pub fn tenant(&self, tenant: TenantId) -> Option<&TenantStats> {
        self.tenants.iter().find(|(id, _)| *id == tenant).map(|(_, s)| s)
    }
}

/// One queued submission: the job plus what aging needs to know about it.
#[derive(Debug)]
struct QueuedJob {
    job: JobRef,
    enqueued: Instant,
}

/// One tenant's FIFO within one band, plus its deficit-round-robin credit.
/// A flow exists only while it holds jobs.
#[derive(Debug)]
struct Flow {
    tenant: u32,
    jobs: VecDeque<QueuedJob>,
    /// DRR credit in jobs: earned (`+weight`) when the flow starts a
    /// quantum, spent (one per job) while serving.
    deficit: u64,
}

/// One priority band: per-tenant flows served deficit-round-robin. The
/// ring is the band's only index: a tenant has a flow here iff it has
/// jobs queued in this band, and the ring's order is the service order.
#[derive(Debug, Default)]
struct Band {
    flows: VecDeque<Flow>,
    len: usize,
}

impl Band {
    fn push(&mut self, tenant: u32, job: QueuedJob) {
        match self.flows.iter_mut().find(|flow| flow.tenant == tenant) {
            Some(flow) => flow.jobs.push_back(job),
            None => self.flows.push_back(Flow { tenant, jobs: VecDeque::from([job]), deficit: 0 }),
        }
        self.len += 1;
    }

    /// Serves up to `max - out.len()` jobs deficit-round-robin. A flow
    /// earns its weight in credits only when it starts a quantum (credit
    /// 0), then spends one per job; a flow that empties forfeits leftover
    /// credit (DRR's anti-burst rule), a flow interrupted mid-quantum by a
    /// full batch stays at the head and finishes that quantum next claim.
    fn serve(&mut self, out: &mut Vec<JobRef>, max: usize, weights: &HashMap<u32, u64>) {
        while out.len() < max {
            let Some(flow) = self.flows.front_mut() else { return };
            if flow.deficit == 0 {
                flow.deficit = weights.get(&flow.tenant).copied().unwrap_or(1);
            }
            while flow.deficit > 0 && out.len() < max {
                let Some(q) = flow.jobs.pop_front() else { break };
                out.push(q.job);
                self.len -= 1;
                flow.deficit -= 1;
            }
            if flow.jobs.is_empty() {
                self.flows.pop_front();
            } else if flow.deficit == 0 {
                self.flows.rotate_left(1);
            }
        }
    }

    /// Removes `job` if this band holds it.
    fn remove(&mut self, job: JobRef) -> bool {
        for (at, flow) in self.flows.iter_mut().enumerate() {
            if let Some(pos) = flow.jobs.iter().position(|q| q.job == job) {
                flow.jobs.remove(pos);
                self.len -= 1;
                if flow.jobs.is_empty() {
                    self.flows.remove(at);
                }
                return true;
            }
        }
        false
    }
}

/// One injection shard: priority-banded DRR flows plus the admission
/// state of the tenants that hash here. A single mutex covers both, so a
/// submit is one lock acquisition for quota + enqueue and a claim is one
/// for the whole batch (aging promotion included).
#[derive(Debug, Default)]
struct ShardState {
    bands: [Band; BANDS],
    /// Total queued across the bands (maintained, not recomputed).
    queued: usize,
    tenants: HashMap<u32, TenantStats>,
}

impl ShardState {
    /// Promotes every queued job older than `age_after` one band up.
    /// Bands are scanned lowest-priority first, so a sufficiently old job
    /// climbs multiple bands in one pass; promoted jobs keep their
    /// original enqueue time and keep climbing until served. Pushes one
    /// tenant id per promotion step into `aged`.
    fn promote_aged(&mut self, age_after: Duration, now: Instant, aged: &mut Vec<u32>) {
        for band in (1..BANDS).rev() {
            let (upper, lower) = self.bands.split_at_mut(band);
            let dst = &mut upper[band - 1];
            let src = &mut lower[0];
            src.flows.retain_mut(|flow| {
                while flow
                    .jobs
                    .front()
                    .is_some_and(|q| now.duration_since(q.enqueued) >= age_after)
                {
                    let q = flow.jobs.pop_front().expect("front checked");
                    src.len -= 1;
                    dst.push(flow.tenant, q);
                    aged.push(flow.tenant);
                }
                !flow.jobs.is_empty()
            });
        }
    }
}

// SAFETY: `JobRef`s are `Send`; the shard is only ever accessed under its
// mutex.
unsafe impl Send for ShardState {}

/// Breaker state machine values (in `BreakerState::state`).
const BREAKER_CLOSED: u32 = 0;
const BREAKER_OPEN: u32 = 1;
const BREAKER_HALF_OPEN: u32 = 2;

/// Per-tenant circuit-breaker state. Lives *outside* the shard mutexes:
/// consulting an open breaker is a handful of atomic loads, so a tripped
/// tenant's submissions fast-fail without contending with admitted work.
#[derive(Debug, Default)]
struct BreakerState {
    /// `BREAKER_CLOSED` / `BREAKER_OPEN` / `BREAKER_HALF_OPEN`.
    state: AtomicU32,
    /// Consecutive rejections since the last admission.
    strikes: AtomicU32,
    /// When the breaker last opened, µs since the injector's epoch.
    opened_at_us: AtomicU64,
}

/// What was claimed for an idle worker, plus the aging promotions the
/// claim pass performed (the caller emits one `JobAged` probe event per
/// entry — the injector itself has no probe access).
#[derive(Debug, Default)]
pub(crate) struct Claimed {
    pub(crate) jobs: Vec<JobRef>,
    pub(crate) aged: Vec<u32>,
}

/// The sharded, bounded injection queue set of one registry. Replaces the
/// former single `Mutex<VecDeque<JobRef>>` global injector.
#[derive(Debug)]
pub(crate) struct Injector {
    shards: Vec<Mutex<ShardState>>,
    shard_capacity: usize,
    fair_share: u64,
    burst: u64,
    pub(crate) handoff_batch: usize,
    /// `true` iff the pool was built with an [`AdmissionPolicy`]; gates
    /// default-tenant billing of the legacy entry points so unpoliced
    /// pools keep the original zero-accounting behaviour.
    policy_installed: bool,
    weights: HashMap<u32, u64>,
    age_after: Option<Duration>,
    breaker: Option<BreakerPolicy>,
    breaker_states: RwLock<HashMap<u32, Arc<BreakerState>>>,
    /// Time origin for `BreakerState::opened_at_us`.
    epoch: Instant,
    /// Total queued jobs across shards, for lock-free `queued_jobs()` and
    /// the sleep re-check.
    depth: AtomicUsize,
    /// Round-robin cursor for untenanted pushes (installs, reinjection).
    cursor: AtomicUsize,
}

impl Injector {
    /// Builds the injector for a pool. Without a policy this is a single
    /// unbounded shard with 1-job handoffs and no aging — byte-for-byte
    /// the original global-injector behaviour.
    pub(crate) fn new(policy: Option<&AdmissionPolicy>) -> Injector {
        let (shards, shard_capacity, fair_share, burst, handoff_batch, age_after, breaker) =
            match policy {
                Some(p) => (
                    p.shards,
                    p.shard_capacity,
                    p.fair_share,
                    p.burst,
                    p.handoff_batch,
                    p.age_after,
                    p.breaker,
                ),
                None => (1, usize::MAX, u64::MAX, 0, 1, None, None),
            };
        let weights = policy
            .map(|p| p.weights.iter().map(|&(id, w)| (id, w as u64)).collect())
            .unwrap_or_default();
        Injector {
            shards: (0..shards).map(|_| Mutex::new(ShardState::default())).collect(),
            shard_capacity,
            fair_share,
            burst,
            handoff_batch,
            policy_installed: policy.is_some(),
            weights,
            age_after,
            breaker,
            breaker_states: RwLock::new(HashMap::new()),
            epoch: Instant::now(),
            depth: AtomicUsize::new(0),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Number of shards.
    pub(crate) fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Total jobs currently queued across all shards.
    pub(crate) fn depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    /// `true` iff the pool was built with an admission policy.
    pub(crate) fn has_policy(&self) -> bool {
        self.policy_installed
    }

    /// `tenant`'s in-flight quota: `fair_share × weight + burst`.
    fn quota_of(&self, tenant: TenantId) -> u64 {
        let weight = self.weights.get(&tenant.0).copied().unwrap_or(1);
        self.fair_share.saturating_mul(weight).saturating_add(self.burst)
    }

    /// Reserves an in-flight quota slot for `tenant`, or reports the quota
    /// it hit. The reservation is released by exactly one of
    /// [`note_completed`](Injector::note_completed),
    /// [`note_cancelled`](Injector::note_cancelled) or
    /// [`release_reservation`](Injector::release_reservation).
    pub(crate) fn reserve(&self, tenant: TenantId) -> Result<(), Overloaded> {
        let quota = self.quota_of(tenant);
        let shard = self.shard_of(tenant);
        let mut state = poison::recover(self.shards[shard].lock());
        let stats = state.tenants.entry(tenant.0).or_default();
        if stats.in_flight >= quota {
            return Err(Overloaded {
                tenant,
                queued: stats.in_flight as usize,
                capacity: quota as usize,
                reason: RejectReason::QuotaExceeded,
                retry_after: None,
            });
        }
        stats.in_flight += 1;
        Ok(())
    }

    /// Enqueues a reserved submission, or reports the shard capacity it
    /// hit (releasing the reservation is the caller's job via the ticket).
    /// On success returns `(shard, depth_after_push)` for the
    /// `QueueDepth` probe event.
    pub(crate) fn enqueue(
        &self,
        tenant: TenantId,
        priority: Priority,
        job: JobRef,
    ) -> Result<(usize, usize), Overloaded> {
        let now = Instant::now();
        let shard = self.shard_of(tenant);
        let mut state = poison::recover(self.shards[shard].lock());
        if state.queued >= self.shard_capacity {
            return Err(Overloaded {
                tenant,
                queued: state.queued,
                capacity: self.shard_capacity,
                reason: RejectReason::QueueFull,
                retry_after: None,
            });
        }
        state.bands[priority.band()].push(tenant.0, QueuedJob { job, enqueued: now });
        state.queued += 1;
        let depth = state.queued;
        state.tenants.entry(tenant.0).or_default().admitted += 1;
        drop(state);
        self.depth.fetch_add(1, Ordering::SeqCst);
        Ok((shard, depth))
    }

    /// Records an inline admission (the submitter was already a pool
    /// worker: the op runs in place, nothing queues).
    pub(crate) fn note_admitted_inline(&self, tenant: TenantId) {
        self.with_tenant(tenant, |s| s.admitted += 1);
    }

    /// Bills an untenanted legacy entry point (`install`/`scope` on a
    /// service pool) to `tenant`: admitted unconditionally — these entry
    /// points predate the admission layer and have no error channel — but
    /// fully accounted, so the books still balance. The slot is released
    /// like any other ticket.
    pub(crate) fn note_legacy_admitted(&self, tenant: TenantId) {
        self.with_tenant(tenant, |s| {
            s.admitted += 1;
            s.in_flight += 1;
        });
    }

    /// An admitted submission's work finished (possibly by unwinding with
    /// the caller's own panic): releases the quota slot.
    pub(crate) fn note_completed(&self, tenant: TenantId) {
        self.with_tenant(tenant, |s| {
            s.completed += 1;
            s.in_flight = s.in_flight.saturating_sub(1);
        });
    }

    /// An admitted submission was cancelled before running (stall-cancel
    /// or [`crate::JobHandle::cancel`]): releases the quota slot.
    pub(crate) fn note_cancelled(&self, tenant: TenantId) {
        self.with_tenant(tenant, |s| {
            s.cancelled += 1;
            s.in_flight = s.in_flight.saturating_sub(1);
        });
    }

    /// Releases a reservation that never became an admission (a fault
    /// unwound the submission between reserve and enqueue). Counts
    /// nothing: the submission was neither admitted nor rejected — the
    /// panic is the caller's outcome.
    pub(crate) fn release_reservation(&self, tenant: TenantId) {
        self.with_tenant(tenant, |s| s.in_flight = s.in_flight.saturating_sub(1));
    }

    /// Counts a rejection that never held a reservation (quota/capacity
    /// refusal, degraded-pool shed).
    pub(crate) fn note_rejected(&self, tenant: TenantId) {
        self.with_tenant(tenant, |s| s.rejected += 1);
    }

    fn with_tenant(&self, tenant: TenantId, f: impl FnOnce(&mut TenantStats)) {
        let shard = self.shard_of(tenant);
        let mut state = poison::recover(self.shards[shard].lock());
        f(state.tenants.entry(tenant.0).or_default());
    }

    /// Consults `tenant`'s circuit breaker before any shard work. `Ok` is
    /// either a closed breaker or this submission being elected the
    /// half-open probe; `Err` is an O(1) fast-fail — atomics only, no
    /// shard lock — carrying the remaining cooldown as `retry_after`.
    pub(crate) fn breaker_check(&self, tenant: TenantId) -> Result<(), Overloaded> {
        let Some(policy) = self.breaker else { return Ok(()) };
        let state = {
            let states = poison::recover(self.breaker_states.read());
            match states.get(&tenant.0) {
                Some(s) => Arc::clone(s),
                None => return Ok(()),
            }
        };
        let fast_fail = |retry_after: Duration| Overloaded {
            tenant,
            queued: state.strikes.load(Ordering::Relaxed) as usize,
            capacity: policy.threshold as usize,
            reason: RejectReason::BreakerOpen,
            retry_after: Some(retry_after),
        };
        match state.state.load(Ordering::Acquire) {
            BREAKER_OPEN => {
                let opened = Duration::from_micros(state.opened_at_us.load(Ordering::Acquire));
                let since = self.epoch.elapsed().saturating_sub(opened);
                if since < policy.cooldown {
                    return Err(fast_fail(policy.cooldown - since));
                }
                // Cooldown over: exactly one caller wins the CAS and
                // becomes the half-open probe; the rest keep fast-failing
                // until the probe resolves.
                if state
                    .state
                    .compare_exchange(
                        BREAKER_OPEN,
                        BREAKER_HALF_OPEN,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    Ok(())
                } else {
                    Err(fast_fail(policy.cooldown))
                }
            }
            BREAKER_HALF_OPEN => Err(fast_fail(policy.cooldown)),
            _ => Ok(()),
        }
    }

    /// Records a submission's admission outcome for the breaker. Returns
    /// `true` when this outcome tripped the breaker open (the caller
    /// emits `BreakerTripped`). No-op without a breaker policy.
    pub(crate) fn breaker_outcome(&self, tenant: TenantId, admitted: bool) -> bool {
        let Some(policy) = self.breaker else { return false };
        if admitted {
            let states = poison::recover(self.breaker_states.read());
            if let Some(state) = states.get(&tenant.0) {
                // An admission closes a half-open breaker and resets the
                // strike count either way.
                state.strikes.store(0, Ordering::Release);
                state.state.store(BREAKER_CLOSED, Ordering::Release);
            }
            return false;
        }
        let state = {
            let states = poison::recover(self.breaker_states.read());
            match states.get(&tenant.0) {
                Some(s) => Arc::clone(s),
                None => {
                    drop(states);
                    let mut states = poison::recover(self.breaker_states.write());
                    Arc::clone(states.entry(tenant.0).or_default())
                }
            }
        };
        let strikes = state.strikes.fetch_add(1, Ordering::AcqRel) + 1;
        let current = state.state.load(Ordering::Acquire);
        let trip = match current {
            // A failed half-open probe re-opens immediately.
            BREAKER_HALF_OPEN => true,
            BREAKER_CLOSED => strikes >= policy.threshold,
            _ => false,
        };
        if trip {
            state
                .opened_at_us
                .store(self.epoch.elapsed().as_micros() as u64, Ordering::Release);
            state.state.store(BREAKER_OPEN, Ordering::Release);
        }
        trip
    }

    /// Queues jobs that bypass admission, in one lock acquisition: an
    /// `install` (`Normal`: it predates the admission layer and has no
    /// error channel) or work reclaimed from a dead worker (`High`: it was
    /// already runnable, and new arrivals must not starve it). Round-robin
    /// across shards under the default tenant's flow, exempt from capacity
    /// — dropping reclaimed work would strand it, the exact bug
    /// reclamation exists to prevent. Returns `(shard, depth_after_push)`.
    pub(crate) fn push_exempt(
        &self,
        priority: Priority,
        jobs: impl IntoIterator<Item = JobRef>,
    ) -> (usize, usize) {
        let now = Instant::now();
        let shard = self.cursor.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let mut state = poison::recover(self.shards[shard].lock());
        let before = state.queued;
        for job in jobs {
            let band = &mut state.bands[priority.band()];
            band.push(TenantId::DEFAULT.0, QueuedJob { job, enqueued: now });
            state.queued += 1;
        }
        let depth = state.queued;
        drop(state);
        self.depth.fetch_add(depth - before, Ordering::SeqCst);
        (shard, depth)
    }

    /// Claims up to `max` jobs for an idle worker: shards are scanned
    /// round-robin from `start`, and the first non-empty shard surrenders
    /// a batch in a single lock acquisition — aging promotion first, then
    /// highest band first, deficit-round-robin across that band's
    /// backlogged tenants. Returns the claimed jobs in execution order
    /// plus the promotions performed.
    pub(crate) fn claim(&self, start: usize, max: usize) -> Claimed {
        let mut claimed = Claimed::default();
        if self.depth.load(Ordering::SeqCst) == 0 {
            return claimed;
        }
        let now = Instant::now();
        let n = self.shards.len();
        for offset in 0..n {
            let shard = (start + offset) % n;
            let mut state = poison::recover(self.shards[shard].lock());
            if state.queued == 0 {
                continue;
            }
            if let Some(age_after) = self.age_after {
                state.promote_aged(age_after, now, &mut claimed.aged);
            }
            claimed.jobs.reserve(max.min(state.queued));
            for band in 0..BANDS {
                if claimed.jobs.len() == max {
                    break;
                }
                state.bands[band].serve(&mut claimed.jobs, max, &self.weights);
            }
            state.queued -= claimed.jobs.len();
            drop(state);
            self.depth.fetch_sub(claimed.jobs.len(), Ordering::SeqCst);
            return claimed;
        }
        claimed
    }

    /// Removes a not-yet-claimed job from whichever shard and band holds
    /// it; `true` if it was still queued. Used by stall recovery and
    /// handle cancellation: a removed job will never execute, so the
    /// caller owns its cleanup.
    pub(crate) fn cancel(&self, job: JobRef) -> bool {
        for shard in &self.shards {
            let mut state = poison::recover(shard.lock());
            for band in 0..BANDS {
                if state.bands[band].remove(job) {
                    state.queued -= 1;
                    drop(state);
                    self.depth.fetch_sub(1, Ordering::SeqCst);
                    return true;
                }
            }
        }
        false
    }

    /// Snapshot for [`crate::ThreadPool::admission_report`].
    pub(crate) fn report(&self) -> AdmissionReport {
        let mut tenants: Vec<(TenantId, TenantStats)> = Vec::new();
        for shard in &self.shards {
            let state = poison::recover(shard.lock());
            tenants.extend(state.tenants.iter().map(|(&id, &s)| (TenantId(id), s)));
        }
        tenants.sort_by_key(|(id, _)| *id);
        AdmissionReport {
            shards: self.shards.len(),
            shard_capacity: self.shard_capacity,
            quota: self.fair_share.saturating_add(self.burst),
            queued: self.depth(),
            tenants,
        }
    }

    fn shard_of(&self, tenant: TenantId) -> usize {
        // Multiplicative (Fibonacci) hash: dense tenant ids spread over
        // shards instead of clustering.
        let h = (tenant.0 as u64 ^ 0xDAC_2009).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) % self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::HeapJob;

    fn dummy_job() -> JobRef {
        // SAFETY: test jobs are either executed exactly once or leaked
        // deliberately (cancel path drops the reference without running).
        unsafe { HeapJob::new(0, |_| ()).into_job_ref() }
    }

    /// Claims `batch` jobs at a time, like a worker would, and runs them
    /// until the injector is empty.
    fn drain_in_batches(inj: &Injector, batch: usize) {
        loop {
            let batch = inj.claim(0, batch);
            if batch.jobs.is_empty() {
                break;
            }
            for job in batch.jobs {
                // SAFETY: claimed jobs are executed exactly once.
                unsafe { job.execute() };
            }
        }
    }

    /// Admits `n` jobs for `tenant` in band `priority`, each appending the
    /// tenant's id to `served` when it runs. Their books are closed at
    /// once: these tests look only at service order.
    fn enqueue_recorded(
        inj: &Injector,
        served: &Arc<Mutex<Vec<u32>>>,
        tenant: TenantId,
        priority: Priority,
        n: usize,
    ) {
        for _ in 0..n {
            let served = Arc::clone(served);
            let job = HeapJob::new(0, move |_| served.lock().unwrap().push(tenant.0));
            inj.reserve(tenant).unwrap();
            // SAFETY: every recorded job is claimed and executed exactly once.
            inj.enqueue(tenant, priority, unsafe { job.into_job_ref() }).unwrap();
            inj.note_completed(tenant);
        }
    }

    #[test]
    fn default_injector_is_single_unbounded_shard() {
        let inj = Injector::new(None);
        assert_eq!(inj.shards(), 1);
        assert!(!inj.has_policy());
        assert_eq!(inj.report().shard_capacity, usize::MAX);
        assert_eq!(inj.handoff_batch, 1);
        let (shard, depth) = inj.push_exempt(Priority::Normal, [dummy_job()]);
        assert_eq!((shard, depth), (0, 1));
        assert_eq!(inj.depth(), 1);
        drain_in_batches(&inj, 64);
        assert_eq!(inj.depth(), 0);
    }

    #[test]
    fn quota_rejects_past_fair_share_plus_burst() {
        let policy = AdmissionPolicy::new().fair_share(2).burst(1);
        let inj = Injector::new(Some(&policy));
        let t = TenantId(9);
        for _ in 0..3 {
            inj.reserve(t).expect("under quota");
        }
        let over = inj.reserve(t).expect_err("fourth reservation exceeds 2+1");
        assert_eq!(over.reason, RejectReason::QuotaExceeded);
        assert_eq!(over.capacity, 3);
        assert_eq!(over.queued, 3);
        inj.note_rejected(t);
        // Releasing one slot re-opens the quota.
        inj.release_reservation(t);
        inj.reserve(t).expect("slot freed");
        let report = inj.report();
        let stats = report.tenant(t).expect("tenant recorded");
        assert_eq!(stats.in_flight, 3);
        assert_eq!(stats.rejected, 1);
    }

    #[test]
    fn weighted_quota_scales_with_weight() {
        let policy = AdmissionPolicy::new()
            .fair_share(2)
            .burst(1)
            .weight(TenantId(7), 3)
            .weight(TenantId(8), 1);
        let inj = Injector::new(Some(&policy));
        // Weight 3: quota 2×3 + 1 = 7.
        let heavy = TenantId(7);
        for _ in 0..7 {
            inj.reserve(heavy).expect("under weighted quota");
        }
        let over = inj.reserve(heavy).expect_err("eighth exceeds 2×3+1");
        assert_eq!(over.reason, RejectReason::QuotaExceeded);
        assert_eq!(over.capacity, 7);
        // Weight 1 (explicit and implicit agree): quota 2×1 + 1 = 3.
        for tenant in [TenantId(8), TenantId(9)] {
            for _ in 0..3 {
                inj.reserve(tenant).expect("under base quota");
            }
            let over = inj.reserve(tenant).expect_err("fourth exceeds 2+1");
            assert_eq!(over.capacity, 3, "{tenant}");
        }
    }

    #[test]
    fn shard_capacity_rejects_when_full() {
        let policy = AdmissionPolicy::new().shards(1).shard_capacity(2).fair_share(100);
        let inj = Injector::new(Some(&policy));
        let t = TenantId(1);
        for _ in 0..2 {
            inj.reserve(t).unwrap();
            inj.enqueue(t, Priority::Normal, dummy_job()).expect("fits");
        }
        inj.reserve(t).unwrap();
        let over = inj.enqueue(t, Priority::Normal, dummy_job()).expect_err("full");
        assert_eq!(over.reason, RejectReason::QueueFull);
        assert_eq!(over.queued, 2);
        assert_eq!(over.capacity, 2);
        inj.release_reservation(t);
        // Clean up: run the queued jobs and release their slots.
        drain_in_batches(&inj, 64);
        inj.note_completed(t);
        inj.note_completed(t);
        let report = inj.report();
        let stats = report.tenant(t).expect("tenant recorded");
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn claim_respects_priority_bands_and_batches() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let policy = AdmissionPolicy::new().shards(1).handoff_batch(4);
        let inj = Injector::new(Some(&policy));
        let t = TenantId(3);
        let order = Arc::new(AtomicUsize::new(0));
        let mut ran: Vec<Arc<AtomicUsize>> = Vec::new();
        // Queue Low first, then Normal, then High; claims must come out
        // High, Normal, Low.
        for (i, priority) in
            [Priority::Low, Priority::Normal, Priority::High].into_iter().enumerate()
        {
            let slot = Arc::new(AtomicUsize::new(usize::MAX));
            ran.push(Arc::clone(&slot));
            let order = Arc::clone(&order);
            let job = HeapJob::new(0, move |_| {
                slot.store(order.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
            });
            inj.reserve(t).unwrap();
            // SAFETY: each job executes exactly once below.
            inj.enqueue(t, priority, unsafe { job.into_job_ref() }).unwrap();
            let _ = i;
        }
        let batch = inj.claim(0, 4);
        assert_eq!(batch.jobs.len(), 3, "one lock acquisition drains the whole shard");
        assert!(batch.aged.is_empty(), "fresh jobs do not age");
        for job in batch.jobs {
            // SAFETY: executed exactly once.
            unsafe { job.execute() };
        }
        // Execution order: High (queued 3rd) ran first, Low (queued 1st) last.
        assert_eq!(ran[2].load(Ordering::SeqCst), 0, "High first");
        assert_eq!(ran[1].load(Ordering::SeqCst), 1, "Normal second");
        assert_eq!(ran[0].load(Ordering::SeqCst), 2, "Low last");
        for _ in 0..3 {
            inj.note_completed(t);
        }
    }

    /// The DRR invariant at the claim seam: two tenants continuously
    /// backlogged in the same band are served in exact weight ratio,
    /// whatever the batch size that drains them.
    #[test]
    fn claim_serves_backlogged_tenants_by_weight() {
        let heavy = TenantId(20);
        let light = TenantId(21);
        let policy = AdmissionPolicy::new()
            .shards(1)
            .fair_share(1000)
            .weight(heavy, 3)
            .weight(light, 1);
        let inj = Injector::new(Some(&policy));
        let served = Arc::new(Mutex::new(Vec::new()));
        for tenant in [heavy, light] {
            enqueue_recorded(&inj, &served, tenant, Priority::Normal, 40);
        }
        drain_in_batches(&inj, 4);
        let order = served.lock().unwrap();
        assert_eq!(order.len(), 80);
        // While both stay backlogged (the first 40 services: light still
        // has jobs), the ratio is exactly 3:1 per DRR round of 4.
        let first: Vec<u32> = order.iter().take(40).copied().collect();
        let heavy_count = first.iter().filter(|&&t| t == heavy.0).count();
        let light_count = first.iter().filter(|&&t| t == light.0).count();
        assert_eq!(heavy_count, 30, "weight-3 tenant gets 3/4 of service: {first:?}");
        assert_eq!(light_count, 10, "weight-1 tenant gets 1/4 of service: {first:?}");
    }

    /// A flow earns credit only when it starts a quantum. One that a full
    /// handoff batch interrupts finishes its quantum next claim; it must
    /// not get a fresh quantum on top, or a tenant whose weight exceeds
    /// the batch keeps the head of the band until its backlog drains.
    #[test]
    fn claim_does_not_recredit_an_interrupted_quantum() {
        for (weight, batch) in [(9u32, 4usize), (3, 2)] {
            let heavy = TenantId(22);
            let light = TenantId(23);
            let policy =
                AdmissionPolicy::new().shards(1).fair_share(1000).weight(heavy, weight);
            let inj = Injector::new(Some(&policy));
            let served = Arc::new(Mutex::new(Vec::new()));
            for tenant in [heavy, light] {
                enqueue_recorded(&inj, &served, tenant, Priority::Normal, 40);
            }
            drain_in_batches(&inj, batch);
            let order = served.lock().unwrap();
            let light_count = order.iter().take(40).filter(|&&t| t == light.0).count();
            assert_eq!(
                light_count,
                40 / (weight as usize + 1),
                "weights {weight}:1, batch {batch}: the light tenant gets one job a round: {:?}",
                &order[..40]
            );
        }
    }

    /// The ring is a band's only index, so the paths that empty a flow
    /// outside `serve` — cancelling a tenant's last queued job, aging the
    /// last job out of a band — must take the flow out of the ring: later
    /// claims serve only the tenants still queued, and the depth drains
    /// to 0.
    #[test]
    fn emptied_flows_leave_the_ring() {
        let (cancelled, queued, aged) = (TenantId(50), TenantId(51), TenantId(52));
        let policy = AdmissionPolicy::new()
            .shards(1)
            .fair_share(1000)
            .age_after(Duration::from_millis(20));
        let inj = Injector::new(Some(&policy));
        let served = Arc::new(Mutex::new(Vec::new()));
        enqueue_recorded(&inj, &served, aged, Priority::Low, 1);
        std::thread::sleep(Duration::from_millis(30));
        let gone = dummy_job();
        inj.reserve(cancelled).unwrap();
        inj.enqueue(cancelled, Priority::Normal, gone).unwrap();
        enqueue_recorded(&inj, &served, queued, Priority::Normal, 3);
        assert!(inj.cancel(gone), "the cancelled tenant's only job leaves its flow empty");
        inj.note_cancelled(cancelled);
        let first = inj.claim(0, 1);
        assert_eq!(first.aged, vec![aged.0, aged.0], "Low → Normal → High in one pass");
        for job in first.jobs {
            // SAFETY: executed exactly once.
            unsafe { job.execute() };
        }
        drain_in_batches(&inj, 1);
        assert_eq!(*served.lock().unwrap(), vec![aged.0, queued.0, queued.0, queued.0]);
        assert_eq!(inj.depth(), 0);
        let state = inj.shards[0].lock().unwrap();
        assert!(state.bands.iter().all(|band| band.flows.is_empty() && band.len == 0));
        assert_eq!(state.queued, 0);
    }

    /// Aging promotion: a Low job older than `age_after` climbs past a
    /// fresh High backlog instead of waiting behind it forever.
    #[test]
    fn aging_promotes_old_low_jobs_into_service() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let t_low = TenantId(30);
        let t_high = TenantId(31);
        let policy = AdmissionPolicy::new()
            .shards(1)
            .fair_share(1000)
            .age_after(Duration::from_millis(1));
        let inj = Injector::new(Some(&policy));
        let low_ran = Arc::new(AtomicBool::new(false));
        {
            let low_ran = Arc::clone(&low_ran);
            let job = HeapJob::new(0, move |_| low_ran.store(true, Ordering::SeqCst));
            inj.reserve(t_low).unwrap();
            // SAFETY: executes exactly once below.
            inj.enqueue(t_low, Priority::Low, unsafe { job.into_job_ref() }).unwrap();
        }
        std::thread::sleep(Duration::from_millis(5));
        for _ in 0..8 {
            inj.reserve(t_high).unwrap();
            inj.enqueue(t_high, Priority::High, dummy_job()).unwrap();
        }
        // One claim pass: the Low job climbs Low→Normal→High (two aging
        // steps — it is old enough for both) and is served in this batch.
        let batch = inj.claim(0, 9);
        assert_eq!(batch.aged, vec![t_low.0, t_low.0], "two promotion steps");
        assert_eq!(batch.jobs.len(), 9);
        for job in batch.jobs {
            // SAFETY: executed exactly once.
            unsafe { job.execute() };
        }
        assert!(low_ran.load(Ordering::SeqCst), "aged Low job was served");
        assert_eq!(inj.depth(), 0);
    }

    #[test]
    fn tenants_spread_over_shards() {
        let policy = AdmissionPolicy::new().shards(4);
        let inj = Injector::new(Some(&policy));
        let mut seen = std::collections::HashSet::new();
        for id in 0..64 {
            seen.insert(inj.shard_of(TenantId(id)));
        }
        assert!(seen.len() >= 3, "64 dense tenant ids must not cluster: {seen:?}");
    }

    #[test]
    fn cancel_removes_exactly_the_job() {
        let inj = Injector::new(None);
        let keep = HeapJob::new(0, |_| ());
        // SAFETY: `kept` executes exactly once below.
        let kept = unsafe { keep.into_job_ref() };
        // SAFETY: `gone` never executes (cancelled), so its box leaks —
        // acceptable in a test.
        let gone = unsafe { HeapJob::new(0, |_| ()).into_job_ref() };
        inj.push_exempt(Priority::Normal, [kept, gone]);
        assert!(inj.cancel(gone), "queued job cancels");
        assert!(!inj.cancel(gone), "double cancel is a no-op");
        assert_eq!(inj.depth(), 1);
        let batch = inj.claim(0, 8);
        assert_eq!(batch.jobs.len(), 1);
        assert!(batch.jobs[0] == kept);
        // SAFETY: executed exactly once.
        unsafe { batch.jobs[0].execute() };
    }

    /// The breaker state machine at the injector seam: trips after
    /// `threshold` consecutive rejections, fast-fails while open, admits
    /// exactly one half-open probe after the cooldown, and closes on a
    /// successful probe.
    #[test]
    fn breaker_trips_fast_fails_and_half_opens() {
        let policy = AdmissionPolicy::new().breaker(2, Duration::from_millis(10));
        let inj = Injector::new(Some(&policy));
        let t = TenantId(40);
        assert!(inj.breaker_check(t).is_ok(), "closed breaker admits");
        assert!(!inj.breaker_outcome(t, false), "first strike does not trip");
        assert!(inj.breaker_check(t).is_ok(), "still closed at one strike");
        assert!(inj.breaker_outcome(t, false), "second strike trips");
        let over = inj.breaker_check(t).expect_err("open breaker fast-fails");
        assert_eq!(over.reason, RejectReason::BreakerOpen);
        assert_eq!(over.capacity, 2, "threshold reported as the bound");
        let hint = over.retry_after.expect("open breaker hints a retry time");
        assert!(hint <= Duration::from_millis(10), "{hint:?}");
        std::thread::sleep(Duration::from_millis(15));
        assert!(inj.breaker_check(t).is_ok(), "cooldown over: half-open probe");
        let over = inj.breaker_check(t).expect_err("only one probe at a time");
        assert_eq!(over.reason, RejectReason::BreakerOpen);
        assert!(!inj.breaker_outcome(t, true), "successful probe closes");
        assert!(inj.breaker_check(t).is_ok(), "closed again");
        // A failed probe re-opens immediately.
        assert!(!inj.breaker_outcome(t, false), "strike 1 of closed does not trip");
        assert!(inj.breaker_outcome(t, false), "strike 2 trips again");
        std::thread::sleep(Duration::from_millis(15));
        assert!(inj.breaker_check(t).is_ok(), "second probe");
        assert!(inj.breaker_outcome(t, false), "failed probe re-trips");
        assert!(inj.breaker_check(t).is_err(), "open again");
    }

    #[test]
    fn overloaded_and_reasons_display() {
        let o = Overloaded {
            tenant: TenantId(5),
            queued: 7,
            capacity: 8,
            reason: RejectReason::QueueFull,
            retry_after: None,
        };
        let msg = o.to_string();
        assert!(msg.contains("tenant-5"), "{msg}");
        assert!(msg.contains("queue full"), "{msg}");
        assert!(msg.contains("7/8"), "{msg}");
        assert!(!msg.contains("retry in"), "no hint, no clause: {msg}");
        assert!(RejectReason::QuotaExceeded.to_string().contains("quota"));
        assert!(RejectReason::Shed.to_string().contains("shed"));
        assert!(RejectReason::BreakerOpen.to_string().contains("breaker"));
        let e: SubmitError = o.into();
        assert!(matches!(e, SubmitError::Overloaded(_)));
        assert_eq!(e.to_string(), msg);
        assert_eq!(e.retry_after(), None);

        let hinted = Overloaded { retry_after: Some(Duration::from_millis(3)), ..o };
        let msg = hinted.to_string();
        assert!(msg.contains("retry in ~3ms"), "{msg}");
        let e: SubmitError = hinted.into();
        assert_eq!(e.retry_after(), Some(Duration::from_millis(3)));
        // The satellite contract: SubmitError sources its inner rejection.
        use std::error::Error as _;
        let src = e.source().expect("Overloaded is the source");
        assert!(src.to_string().contains("breaker") || src.to_string().contains("queue full"));
    }
}
