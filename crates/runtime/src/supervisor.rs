//! Worker supervision: watchdog, work reclamation, respawn, degradation.
//!
//! The fault seam of `crate::fault` lets a pool *lose* workers (an injected
//! [`FaultAction::Die`](crate::fault::FaultAction::Die), or a panic that
//! escapes the job boundary). Without supervision such a loss is permanent:
//! the pool runs on the survivors forever and an install on a fully dead
//! pool can only be diagnosed, never served. This module adds the recovery
//! layer:
//!
//! * **Watchdog.** Every worker bumps a per-slot heartbeat epoch at its
//!   scheduling-loop boundaries (top of loop, steal rounds, wait-loop
//!   executions, scope spawns, parking). A low-frequency monitor thread —
//!   one per supervised pool — scans the epochs each [`CHECK_INTERVAL`]
//!   (1 ms) and counts *suspect* workers (alive but not beating). Death itself is
//!   reported synchronously: a dying worker hands its deque to the monitor
//!   as an orphan. When supervision is off none of this exists — the beat
//!   is a single `Option` discriminant test and no monitor is spawned,
//!   preserving the probe layer's disabled-cost contract.
//! * **Work reclamation.** A dying worker seals its deque
//!   ([`cilk_deque::Worker::seal`]) and drains every job it can still claim
//!   back into the pool's injector, so no task is stranded no matter when
//!   the death lands. The drain is raced by thieves under the Chase–Lev
//!   exactly-once protocol; whatever they win is simply executed instead.
//! * **Respawn.** The monitor replaces dead workers while the
//!   [`SupervisionPolicy::max_respawns`] budget lasts, after a seeded
//!   exponential backoff (testkit PRNG — deterministic per seed). The
//!   replacement adopts the dead worker's *slot and deque identity*: the
//!   registry's stealer for that slot still points at the same deque, so
//!   pedigrees, victim selection, and Cilkview strand profiles stay
//!   coherent across the swap.
//! * **Degradation.** With the budget exhausted the pool shrinks its
//!   steal-victim set to the survivors and keeps executing. At zero live
//!   workers an `install` runs serially in place on the caller's thread
//!   (see `Registry::in_worker_checked`) instead of stalling.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cilk_deque::Worker as DequeWorker;
use cilk_testkit::rng::mix_str;
use cilk_testkit::Rng;

use crate::job::JobRef;
use crate::lifecycle::{self, AdoptEnv, AdoptOutcome};
use crate::poison;
use crate::probe::ProbeEvent;
use crate::registry::Registry;

/// First respawn backoff; each later one doubles, up to [`BACKOFF_CAP`].
const BACKOFF_BASE: Duration = Duration::from_micros(500);
/// Longest respawn backoff.
const BACKOFF_CAP: Duration = Duration::from_millis(20);
/// The watchdog tick: how often the monitor adopts orphans and scans
/// heartbeats, and how often a client blocked on a queued job re-checks
/// for a dead pool (`Registry::rescue_step`).
pub(crate) const CHECK_INTERVAL: Duration = Duration::from_millis(1);

/// Recovery policy for a supervised pool, set with
/// [`Config::supervision`](crate::Config::supervision): a respawn budget
/// (default 16) and the seed of the backoff jitter. The backoff (500 µs
/// doubling to 20 ms) and the 1 ms watchdog tick are fixed.
///
/// # Examples
///
/// ```
/// use cilk_runtime::{Config, SupervisionPolicy, ThreadPool};
///
/// let pool = ThreadPool::with_config(
///     Config::new()
///         .num_workers(2)
///         .supervision(SupervisionPolicy::new().max_respawns(4).seed(7)),
/// )?;
/// assert_eq!(pool.live_workers(), 2);
/// # Ok::<(), cilk_runtime::BuildPoolError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisionPolicy {
    pub(crate) max_respawns: u32,
    pub(crate) seed: u64,
}

impl SupervisionPolicy {
    /// The default policy: budget 16, seed 0.
    pub fn new() -> Self {
        SupervisionPolicy { max_respawns: 16, seed: 0 }
    }

    /// Total replacement workers the pool may ever spawn. A budget of 0
    /// disables respawning entirely: losses degrade the pool immediately.
    pub fn max_respawns(mut self, budget: u32) -> Self {
        self.max_respawns = budget;
        self
    }

    /// Seeds the backoff jitter PRNG. Two pools with the same policy, the
    /// same fault plan, and one worker replay identical recovery schedules.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for SupervisionPolicy {
    fn default() -> Self {
        Self::new()
    }
}

/// The probe site at which a worker last bumped its heartbeat.
///
/// Each heartbeat carries the scheduling-loop boundary it came from, so a
/// stall diagnosis ([`RuntimeStalled`](crate::RuntimeStalled)) can say not
/// just *which* worker went silent but *where it was last seen*. `join`
/// does not beat (a joining worker is making progress by definition), so
/// a worker wedged in user code reads the boundary it crossed before
/// taking the job: `MainLoop`, `StealRound` or `WaitExecute`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BeatSite {
    /// Top of the worker's main scheduling loop.
    MainLoop,
    /// A steal round while idle or waiting on a latch.
    StealRound,
    /// Executed a stolen or injected job inside a wait loop.
    WaitExecute,
    /// A `Scope::spawn` pushed a task.
    ScopeSpawn,
    /// About to block on the slot's parker: idle, and silent until a
    /// producer wakes it — the one beat site a healthy worker may rest at.
    Parked,
}

impl BeatSite {
    /// Every site with its display name, in wire order: a site's encoding
    /// in the per-slot `AtomicU8` is its position here plus one (0 is
    /// "never beat").
    const ALL: [(BeatSite, &'static str); 5] = [
        (BeatSite::MainLoop, "main-loop"),
        (BeatSite::StealRound, "steal-round"),
        (BeatSite::WaitExecute, "wait-execute"),
        (BeatSite::ScopeSpawn, "scope-spawn"),
        (BeatSite::Parked, "parked"),
    ];

    fn encode(self) -> u8 {
        self as u8 + 1
    }

    fn decode(raw: u8) -> Option<BeatSite> {
        let (site, _) = Self::ALL.get(usize::from(raw).checked_sub(1)?)?;
        Some(*site)
    }
}

impl std::fmt::Display for BeatSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(Self::ALL[*self as usize].1)
    }
}

/// Point-in-time view of a supervised pool's recovery state, from
/// [`ThreadPool::supervisor_report`](crate::ThreadPool::supervisor_report).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorReport {
    /// Workers currently alive (original or replacement).
    pub live_workers: usize,
    /// Replacement workers spawned so far.
    pub respawns_used: u64,
    /// The policy's total respawn budget.
    pub respawn_budget: u32,
    /// Whether the pool has taken an unrecoverable loss (budget exhausted
    /// or a respawn failed).
    pub degraded: bool,
    /// Alive-but-not-beating workers seen at the watchdog's last scan.
    pub suspect_workers: usize,
    /// The suspect slots themselves, each with the probe site of its last
    /// heartbeat (`None` if the worker never beat at all).
    pub suspects: Vec<(usize, Option<BeatSite>)>,
    /// Per-slot heartbeat epochs (monotonic; bumped at scheduling-loop
    /// boundaries).
    pub heartbeats: Vec<u64>,
}

/// A dead worker's slot and deque, queued for the monitor to adopt.
pub(crate) struct Orphan {
    pub(crate) slot: usize,
    pub(crate) deque: DequeWorker<JobRef>,
}

/// One slot's heartbeat, on cache lines of its own: its worker writes it
/// every loop pass and steal round, so slots packed together would bounce
/// one line between every worker of the pool. Relaxed; diagnostic only.
#[repr(align(128))]
struct Heartbeat {
    /// Monotonic liveness epoch.
    epoch: AtomicU64,
    /// Encoded [`BeatSite`] of the most recent beat (0 = never beat).
    site: AtomicU8,
}

/// Per-pool supervision state, embedded in the registry when
/// [`Config::supervision`](crate::Config::supervision) is set.
pub(crate) struct Supervision {
    pub(crate) policy: SupervisionPolicy,
    /// One heartbeat per slot.
    heartbeats: Vec<Heartbeat>,
    /// Which slots currently have a live worker.
    alive: Vec<AtomicBool>,
    /// Count of `true` bits in `alive`.
    live: AtomicUsize,
    /// Replacement workers spawned (monotonic; bounded by the budget).
    respawns_used: AtomicU64,
    /// Respawns reserved (budget consumed) but not yet live — the window
    /// covering the backoff sleep. Installers treat a pending respawn as
    /// "recovery in flight" and keep waiting.
    pending_respawns: AtomicUsize,
    /// Set on the first unrecoverable loss.
    degraded: AtomicBool,
    /// The suspect slots (with last beat sites) from the watchdog's last
    /// heartbeat scan; what
    /// [`Registry::stall_error`](crate::registry::Registry) names.
    suspect_slots: Mutex<Vec<(usize, Option<BeatSite>)>>,
    /// Deques handed over by dying workers, awaiting adoption.
    orphans: Mutex<Vec<Orphan>>,
    /// Join handles of replacement workers (the originals live in
    /// `ThreadPool::handles`).
    respawned_handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Supervision {
    pub(crate) fn new(workers: usize, policy: SupervisionPolicy) -> Self {
        Supervision {
            policy,
            heartbeats: (0..workers)
                .map(|_| Heartbeat { epoch: AtomicU64::new(0), site: AtomicU8::new(0) })
                .collect(),
            alive: (0..workers).map(|_| AtomicBool::new(true)).collect(),
            live: AtomicUsize::new(workers),
            respawns_used: AtomicU64::new(0),
            pending_respawns: AtomicUsize::new(0),
            degraded: AtomicBool::new(false),
            suspect_slots: Mutex::new(Vec::new()),
            orphans: Mutex::new(Vec::new()),
            respawned_handles: Mutex::new(Vec::new()),
        }
    }

    /// One heartbeat from worker `slot`, tagged with the probe site it
    /// came from. Out-of-range slots (the serial fallback's emergency
    /// worker) are ignored.
    #[inline]
    pub(crate) fn beat(&self, slot: usize, site: BeatSite) {
        if let Some(h) = self.heartbeats.get(slot) {
            h.epoch.fetch_add(1, Ordering::Relaxed);
            h.site.store(site.encode(), Ordering::Relaxed);
        }
    }

    /// The probe site of `slot`'s most recent heartbeat, `None` if the
    /// worker never beat (or the slot is out of range).
    pub(crate) fn last_beat_site(&self, slot: usize) -> Option<BeatSite> {
        self.heartbeats
            .get(slot)
            .and_then(|h| BeatSite::decode(h.site.load(Ordering::Relaxed)))
    }

    /// The suspect slots (alive but silent) retained from the watchdog's
    /// last heartbeat scan, each with its last-beaten probe site.
    pub(crate) fn suspect_slots(&self) -> Vec<(usize, Option<BeatSite>)> {
        poison::recover(self.suspect_slots.lock()).clone()
    }

    pub(crate) fn is_alive(&self, slot: usize) -> bool {
        self.alive.get(slot).is_none_or(|a| a.load(Ordering::Relaxed))
    }

    pub(crate) fn live(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    pub(crate) fn respawns_used(&self) -> u64 {
        self.respawns_used.load(Ordering::SeqCst)
    }

    pub(crate) fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// Whether a lost worker can still come back: budget remains, or a
    /// respawn is already in its backoff window. While this holds,
    /// installers on a zero-live pool keep waiting instead of degrading
    /// to serial execution.
    pub(crate) fn recovery_possible(&self) -> bool {
        self.pending_respawns.load(Ordering::SeqCst) > 0
            || self.respawns_used.load(Ordering::SeqCst) < u64::from(self.policy.max_respawns)
    }

    /// Marks `slot` dead. Called by the dying worker *after* its deque has
    /// been drained, so a thief never skips a slot that still holds work.
    pub(crate) fn note_death(&self, slot: usize) {
        if self.alive[slot].swap(false, Ordering::SeqCst) {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn note_alive(&self, slot: usize) {
        if !self.alive[slot].swap(true, Ordering::SeqCst) {
            self.live.fetch_add(1, Ordering::SeqCst);
        }
    }

    pub(crate) fn offer_orphan(&self, slot: usize, deque: DequeWorker<JobRef>) {
        poison::recover(self.orphans.lock()).push(Orphan { slot, deque });
    }

    fn take_orphans(&self) -> Vec<Orphan> {
        std::mem::take(&mut *poison::recover(self.orphans.lock()))
    }

    /// Reserves one unit of respawn budget; returns the 0-based attempt
    /// number, or `None` when the budget is spent.
    fn try_reserve_respawn(&self) -> Option<u64> {
        let budget = u64::from(self.policy.max_respawns);
        let used = self
            .respawns_used
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |used| (used < budget).then_some(used + 1))
            .ok()?;
        self.pending_respawns.fetch_add(1, Ordering::SeqCst);
        Some(used)
    }

    pub(crate) fn take_respawned_handles(&self) -> Vec<JoinHandle<()>> {
        std::mem::take(&mut *poison::recover(self.respawned_handles.lock()))
    }

    pub(crate) fn report(&self) -> SupervisorReport {
        let suspects = self.suspect_slots();
        SupervisorReport {
            live_workers: self.live(),
            respawns_used: self.respawns_used(),
            respawn_budget: self.policy.max_respawns,
            degraded: self.is_degraded(),
            suspect_workers: suspects.len(),
            suspects,
            heartbeats: self
                .heartbeats
                .iter()
                .map(|h| h.epoch.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// One watchdog scan: records the alive slots whose epoch did not
    /// advance since `last`, with each one's last-beaten probe site. A
    /// parked worker beats [`BeatSite::Parked`] on its way into the parker
    /// and then nothing (it has no timeout to wake it), so a silent slot
    /// last seen there is idle, not suspect. Purely diagnostic — death is
    /// reported synchronously via the orphan queue — but a stall error
    /// names exactly these slots ([`suspect_slots`](Self::suspect_slots)).
    fn scan_heartbeats(&self, last: &mut [u64]) {
        let mut suspects = Vec::new();
        for (slot, h) in self.heartbeats.iter().enumerate() {
            let now = h.epoch.load(Ordering::Relaxed);
            let site = self.last_beat_site(slot);
            if now == last[slot] && self.is_alive(slot) && site != Some(BeatSite::Parked) {
                suspects.push((slot, site));
            }
            last[slot] = now;
        }
        *poison::recover(self.suspect_slots.lock()) = suspects;
    }
}

/// The backoff before attempt `k` (0-based): `base * 2^k` capped at `cap`,
/// then jittered to `[delay/2, delay]` with the policy-seeded PRNG.
fn backoff_delay(attempt: u64, rng: &mut Rng) -> Duration {
    let full = BACKOFF_BASE.saturating_mul(1u32 << attempt.min(16)).min(BACKOFF_CAP);
    let half = full / 2;
    let jitter_ns = rng.gen_range(0..=half.as_nanos() as u64);
    half + Duration::from_nanos(jitter_ns)
}

/// Sleeps up to `total`, returning early (false) if the pool terminates.
fn interruptible_sleep(registry: &Registry, total: Duration) -> bool {
    const SLICE: Duration = Duration::from_micros(200);
    let mut remaining = total;
    while !remaining.is_zero() {
        if registry.should_terminate() {
            return false;
        }
        let step = remaining.min(SLICE);
        std::thread::sleep(step);
        remaining = remaining.saturating_sub(step);
    }
    !registry.should_terminate()
}

/// The monitor thread of one supervised pool.
///
/// Ticks every [`CHECK_INTERVAL`]: adopts orphaned deques (respawning a
/// replacement after backoff while the budget lasts, degrading otherwise)
/// and scans heartbeats for suspects. Exits when the pool terminates.
pub(crate) fn monitor_main(registry: Arc<Registry>) {
    let sup = registry
        .supervision()
        .expect("monitor spawned without supervision state");
    let mut rng = Rng::from_keys(sup.policy.seed, &[mix_str("cilk-runtime.supervisor")]);
    let mut last_beats = vec![0u64; registry.num_workers()];
    while !registry.should_terminate() {
        for Orphan { slot, deque } in sup.take_orphans() {
            let mut env = MonitorAdopt { registry: &registry, sup, slot, rng: &mut rng, handle: None };
            if lifecycle::adopt_orphan(deque, &mut env) == AdoptOutcome::Terminated {
                return;
            }
        }
        sup.scan_heartbeats(&mut last_beats);
        if !interruptible_sleep(&registry, CHECK_INTERVAL) {
            return;
        }
    }
}

/// [`AdoptEnv`] over the monitor: the respawn budget and pending counter
/// live in [`Supervision`], the replacement thread comes from
/// [`Registry::spawn_worker`], and backoff is the policy's jittered
/// exponential delay (interruptible by termination).
struct MonitorAdopt<'a> {
    registry: &'a Arc<Registry>,
    sup: &'a Supervision,
    slot: usize,
    rng: &'a mut Rng,
    handle: Option<JoinHandle<()>>,
}

impl AdoptEnv<JobRef> for MonitorAdopt<'_> {
    fn should_terminate(&mut self) -> bool {
        self.registry.should_terminate()
    }

    fn try_reserve_respawn(&mut self) -> Option<u64> {
        self.sup.try_reserve_respawn()
    }

    fn backoff(&mut self, attempt: u64) -> bool {
        let delay = backoff_delay(attempt, self.rng);
        interruptible_sleep(self.registry, delay)
    }

    fn release_pending(&mut self) {
        self.sup.pending_respawns.fetch_sub(1, Ordering::SeqCst);
    }

    fn install(&mut self, deque: DequeWorker<JobRef>, generation: u64) -> bool {
        // On `Err` the OS refused a thread: the deque is consumed and the
        // slot's loss is unrecoverable.
        match self.registry.spawn_worker(self.slot, deque, generation) {
            Ok(handle) => {
                self.handle = Some(handle);
                true
            }
            Err(_) => false,
        }
    }

    fn note_alive(&mut self) {
        // Liveness first, then the pending count (in `release_pending`): at
        // every instant either `live > 0` holds or a recovery is still
        // accounted as in flight, so installers never degrade mid-swap.
        self.sup.note_alive(self.slot);
    }

    fn on_respawned(&mut self) {
        let handle = self.handle.take().expect("install stored the replacement handle");
        poison::recover(self.sup.respawned_handles.lock()).push(handle);
        self.registry.probe(ProbeEvent::WorkerRespawned { worker: self.slot });
        self.registry.wake_all();
    }

    fn on_degraded(&mut self) {
        self.sup.degraded.store(true, Ordering::SeqCst);
        self.registry.probe(ProbeEvent::PoolDegraded { live: self.sup.live() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_builder_and_equality() {
        let p = SupervisionPolicy::new().max_respawns(3).seed(42);
        assert_eq!(p.max_respawns, 3);
        assert_eq!(p, p.clone());
        assert_ne!(p, SupervisionPolicy::new());
        assert_eq!(SupervisionPolicy::default(), SupervisionPolicy::new());
        assert!(format!("{p:?}").contains("max_respawns"));
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_bounded() {
        let draw = || {
            let mut rng = Rng::from_keys(99, &[mix_str("cilk-runtime.supervisor")]);
            (0..8).map(|k| backoff_delay(k, &mut rng)).collect::<Vec<_>>()
        };
        let a = draw();
        let b = draw();
        assert_eq!(a, b, "same seed must replay the same backoff schedule");
        for (k, d) in a.iter().enumerate() {
            let full = BACKOFF_BASE.saturating_mul(1 << k).min(BACKOFF_CAP);
            assert!(*d >= full / 2 && *d <= full, "attempt {k}: {d:?} vs {full:?}");
        }
    }

    #[test]
    fn backoff_caps_exponent_shift() {
        // Attempt numbers far past the doubling range must not overflow.
        let mut rng = Rng::seed_from_u64(1);
        assert!(backoff_delay(1_000, &mut rng) <= BACKOFF_CAP);
    }

    #[test]
    fn liveness_accounting() {
        let sup = Supervision::new(3, SupervisionPolicy::new().max_respawns(1));
        assert_eq!(sup.live(), 3);
        assert!(sup.is_alive(1));
        sup.note_death(1);
        sup.note_death(1); // idempotent
        assert_eq!(sup.live(), 2);
        assert!(!sup.is_alive(1));
        assert!(sup.recovery_possible());
        assert_eq!(sup.try_reserve_respawn(), Some(0));
        assert!(sup.recovery_possible(), "pending respawn keeps recovery alive");
        sup.note_alive(1);
        sup.pending_respawns.fetch_sub(1, Ordering::SeqCst);
        assert_eq!(sup.live(), 3);
        assert_eq!(sup.try_reserve_respawn(), None, "budget of 1 is spent");
        assert!(!sup.recovery_possible());
    }

    #[test]
    fn heartbeat_scan_flags_silent_slots() {
        let sup = Supervision::new(2, SupervisionPolicy::new());
        let mut last = vec![0u64; 2];
        sup.beat(0, BeatSite::MainLoop);
        sup.scan_heartbeats(&mut last);
        assert_eq!(sup.report().suspect_workers, 1, "slot 1 never beat");
        assert_eq!(
            sup.report().suspects,
            vec![(1, None)],
            "a never-beaten suspect has no last site"
        );
        sup.note_death(1);
        sup.scan_heartbeats(&mut last);
        assert_eq!(
            sup.report().suspect_workers,
            1,
            "slot 0 is silent; dead slot 1 is not a suspect"
        );
        assert_eq!(
            sup.report().suspects,
            vec![(0, Some(BeatSite::MainLoop))],
            "the silent slot is named with its last-beaten site"
        );
        sup.beat(0, BeatSite::StealRound);
        sup.scan_heartbeats(&mut last);
        assert_eq!(sup.report().suspect_workers, 0, "live slot beat again");
        assert!(sup.report().suspects.is_empty());
        // Out-of-range beats (the emergency serial worker) are ignored.
        sup.beat(17, BeatSite::MainLoop);
        assert_eq!(sup.report().heartbeats, vec![2, 0]);
        assert_eq!(sup.last_beat_site(17), None);
        assert_eq!(sup.last_beat_site(0), Some(BeatSite::StealRound));
    }

    #[test]
    fn heartbeat_scan_keeps_parked_slots_out_of_the_suspects() {
        let sup = Supervision::new(2, SupervisionPolicy::new());
        let mut last = vec![0u64; 2];
        sup.beat(0, BeatSite::Parked);
        sup.beat(1, BeatSite::StealRound);
        sup.scan_heartbeats(&mut last);
        assert!(sup.report().suspects.is_empty(), "both slots beat since the last scan");
        // Neither beats again: the parked one is idle, the other is stuck.
        sup.scan_heartbeats(&mut last);
        assert_eq!(sup.report().suspects, vec![(1, Some(BeatSite::StealRound))]);
        assert_eq!(sup.report().suspect_workers, 1);
        // Woken, it beats elsewhere and falls silent there: suspect again.
        sup.beat(0, BeatSite::MainLoop);
        sup.scan_heartbeats(&mut last);
        sup.scan_heartbeats(&mut last);
        assert_eq!(
            sup.report().suspects,
            vec![(0, Some(BeatSite::MainLoop)), (1, Some(BeatSite::StealRound))]
        );
    }

    #[test]
    fn beat_site_encoding_round_trips() {
        for (at, (site, name)) in BeatSite::ALL.into_iter().enumerate() {
            assert_eq!(site as usize, at, "`ALL` is in declaration order");
            assert_eq!(BeatSite::decode(site.encode()), Some(site));
            assert_eq!(site.to_string(), name);
        }
        assert_eq!(BeatSite::decode(0), None);
        assert_eq!(BeatSite::decode(200), None);
    }

    #[test]
    fn report_reflects_state() {
        let sup = Supervision::new(2, SupervisionPolicy::new().max_respawns(5));
        let r = sup.report();
        assert_eq!(r.live_workers, 2);
        assert_eq!(r.respawn_budget, 5);
        assert_eq!(r.respawns_used, 0);
        assert!(!r.degraded);
        assert_eq!(r.heartbeats.len(), 2);
    }
}
