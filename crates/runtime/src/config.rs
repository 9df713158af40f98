//! Pool configuration.
//!
//! "When the runtime system starts up, it allocates as many operating-
//! system threads, called *workers*, as there are processors (although the
//! programmer can override this default decision)." — §3.2

use std::fmt;
use std::time::Duration;

use crate::admission::AdmissionPolicy;
use crate::fault::FaultHandler;
use crate::metrics::MetricsSnapshot;
use crate::supervisor::{BeatSite, SupervisionPolicy};

/// Builder for a [`crate::ThreadPool`].
///
/// # Examples
///
/// ```
/// use cilk_runtime::{Config, ThreadPool};
///
/// let pool = ThreadPool::with_config(Config::new().num_workers(2))?;
/// assert_eq!(pool.num_workers(), 2);
/// # Ok::<(), cilk_runtime::BuildPoolError>(())
/// ```
#[derive(Clone)]
pub struct Config {
    pub(crate) num_workers: Option<usize>,
    pub(crate) rng_seed: Option<u64>,
    pub(crate) thread_name_prefix: String,
    pub(crate) stack_size: usize,
    pub(crate) fault_handler: Option<FaultHandler>,
    pub(crate) stall_timeout: Option<Duration>,
    pub(crate) supervision: Option<SupervisionPolicy>,
    pub(crate) admission: Option<AdmissionPolicy>,
}

impl fmt::Debug for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Config")
            .field("num_workers", &self.num_workers)
            .field("rng_seed", &self.rng_seed)
            .field("thread_name_prefix", &self.thread_name_prefix)
            .field("stack_size", &self.stack_size)
            .field("fault_handler", &self.fault_handler.as_ref().map(|_| "<handler>"))
            .field("stall_timeout", &self.stall_timeout)
            .field("supervision", &self.supervision)
            .field("admission", &self.admission)
            .finish()
    }
}

impl PartialEq for Config {
    fn eq(&self, other: &Self) -> bool {
        let handlers_eq = match (&self.fault_handler, &other.fault_handler) {
            (None, None) => true,
            // Closures have no structural equality; identity is the only
            // meaningful comparison.
            (Some(a), Some(b)) => std::sync::Arc::ptr_eq(a, b),
            _ => false,
        };
        handlers_eq
            && self.num_workers == other.num_workers
            && self.rng_seed == other.rng_seed
            && self.thread_name_prefix == other.thread_name_prefix
            && self.stack_size == other.stack_size
            && self.stall_timeout == other.stall_timeout
            && self.supervision == other.supervision
            && self.admission == other.admission
    }
}

impl Eq for Config {}

impl Config {
    /// Creates the default configuration: one worker per available
    /// processor.
    pub fn new() -> Self {
        Config {
            num_workers: None,
            rng_seed: None,
            thread_name_prefix: "cilk-worker".to_owned(),
            // Fork-join recursion lives on the worker stack (Cilk++ used a
            // cactus stack); default to a roomy 8 MiB.
            stack_size: 8 * 1024 * 1024,
            fault_handler: None,
            stall_timeout: None,
            supervision: None,
            admission: None,
        }
    }

    /// Overrides the number of workers (the paper's programmer override).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn num_workers(mut self, n: usize) -> Self {
        assert!(n > 0, "a pool needs at least one worker");
        self.num_workers = Some(n);
        self
    }

    /// Pins the seed of the pool's victim-selection PRNG streams. Unset,
    /// the pool derives them from the workspace test seed
    /// (`CILK_TEST_SEED`, see `cilk-testkit`), so a failing randomized
    /// test replays its exact steal schedule bias when the printed seed is
    /// re-exported.
    pub fn rng_seed(mut self, seed: u64) -> Self {
        self.rng_seed = Some(seed);
        self
    }

    /// Sets the OS thread-name prefix for workers.
    pub fn thread_name_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.thread_name_prefix = prefix.into();
        self
    }

    /// Sets the stack size of each worker thread in bytes (default 8 MiB).
    /// Deep spawn recursions consume worker stack; raise this rather than
    /// coarsening the recursion if you hit the default.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn stack_size(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "stack size must be positive");
        self.stack_size = bytes;
        self
    }

    /// Installs a fault handler consulted at every [`crate::fault`] point
    /// reached by this pool's workers. Testing-only plumbing: pools without
    /// a handler skip the injection machinery entirely.
    pub fn fault_handler(mut self, handler: FaultHandler) -> Self {
        self.fault_handler = Some(handler);
        self
    }

    /// Bounds how long an external `install` waits for the pool to pick up
    /// its job before failing with [`RuntimeStalled`] — turning a
    /// lost-worker hang (e.g. every worker died under fault injection)
    /// into a diagnosable error instead of a deadlock. Unset by default:
    /// waits are unbounded.
    ///
    /// # Panics
    ///
    /// Panics if `timeout` is zero.
    pub fn stall_timeout(mut self, timeout: Duration) -> Self {
        assert!(!timeout.is_zero(), "stall timeout must be positive");
        self.stall_timeout = Some(timeout);
        self
    }

    /// Enables supervision: the pool self-heals from worker loss according
    /// to `policy` — dead workers' deques are reclaimed, replacements are
    /// respawned under a budget with seeded exponential backoff, and a pool
    /// whose budget is exhausted degrades gracefully (survivors keep
    /// executing; at zero workers `install` runs serially in place instead
    /// of stalling). Unsupervised pools keep the PR-3 behaviour: losses are
    /// permanent and only diagnosable via [`Config::stall_timeout`].
    pub fn supervision(mut self, policy: SupervisionPolicy) -> Self {
        self.supervision = Some(policy);
        self
    }

    /// Turns the pool into a scheduler service with admission control
    /// (see [`crate::AdmissionPolicy`] and `docs/scheduler-service.md`):
    /// external submissions through [`crate::ThreadPool::submit`] land in
    /// sharded bounded injection queues, every tenant is held to a
    /// fair-share in-flight quota, and overload is reported as a typed
    /// [`crate::Overloaded`] rejection instead of unbounded queueing.
    /// Without a policy the pool keeps the original single-caller
    /// behaviour: one unbounded injection queue and always-admitted
    /// submissions.
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = Some(policy);
        self
    }

    /// Resolves the worker count: explicit override or the machine's
    /// available parallelism.
    pub(crate) fn resolved_workers(&self) -> usize {
        self.num_workers.unwrap_or_else(|| {
            std::thread::available_parallelism().map(usize::from).unwrap_or(1)
        })
    }
}

impl Default for Config {
    fn default() -> Self {
        Self::new()
    }
}

/// Error returned when a pool's worker threads cannot be started.
#[derive(Debug)]
pub struct BuildPoolError {
    pub(crate) source: std::io::Error,
}

impl fmt::Display for BuildPoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "failed to spawn worker thread: {}", self.source)
    }
}

impl std::error::Error for BuildPoolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// The pool failed to make progress within the configured
/// [`Config::stall_timeout`]: an injected job sat unclaimed past the
/// deadline (typically because every worker is dead, parked, or wedged).
///
/// Returned by [`crate::ThreadPool::try_install`]; carries enough of the
/// pool's state to diagnose the stall instead of staring at a hung
/// process.
#[derive(Debug, Clone)]
pub struct RuntimeStalled {
    /// How long the caller waited before giving up.
    pub waited: Duration,
    /// Total workers the pool was built with.
    pub workers: usize,
    /// Workers alive at the moment of diagnosis. Together with
    /// `pending_injected` this distinguishes "overloaded" (live workers,
    /// deep queue) from "dead" (no workers left to claim anything).
    pub live_workers: usize,
    /// Workers that have simulated death and parked.
    pub workers_died: u64,
    /// Jobs still sitting in the external-injection queue.
    pub pending_injected: usize,
    /// Full counter snapshot at the moment of diagnosis (boxed: the error
    /// travels through `Result`s on the hot install path, and the snapshot
    /// is by far its largest field).
    pub metrics: Box<MetricsSnapshot>,
    /// Worker slots the supervisor's heartbeat scan flagged as silent,
    /// each with the probe site it last beat from (`None`: never beat).
    /// Empty when the pool runs without supervision — then the stall can
    /// only be diagnosed from the counters above.
    pub suspects: Vec<(usize, Option<BeatSite>)>,
}

impl fmt::Display for RuntimeStalled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "runtime stalled: injected job unclaimed after {:?} \
             ({} of {} workers dead, {} live, {} jobs queued, steals={} aborted={})",
            self.waited,
            self.workers_died,
            self.workers,
            self.live_workers,
            self.pending_injected,
            self.metrics.steals,
            self.metrics.steals_aborted,
        )?;
        if !self.suspects.is_empty() {
            write!(f, "; suspects:")?;
            for (i, (slot, site)) in self.suspects.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                match site {
                    Some(site) => write!(f, " slot {slot} (last beat {site})")?,
                    None => write!(f, " slot {slot} (never beat)")?,
                }
            }
        }
        Ok(())
    }
}

impl std::error::Error for RuntimeStalled {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_resolves_to_available_parallelism() {
        let c = Config::new();
        assert!(c.resolved_workers() >= 1);
    }

    #[test]
    fn override_wins() {
        assert_eq!(Config::new().num_workers(5).resolved_workers(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = Config::new().num_workers(0);
    }

    #[test]
    fn error_displays() {
        let e = BuildPoolError {
            source: std::io::Error::other("nope"),
        };
        assert!(e.to_string().contains("worker thread"));
    }

    #[test]
    #[should_panic(expected = "stall timeout")]
    fn zero_stall_timeout_rejected() {
        let _ = Config::new().stall_timeout(Duration::ZERO);
    }

    #[test]
    fn config_equality_tracks_handler_identity() {
        use crate::fault::{FaultAction, FaultHandler};
        let h: FaultHandler = std::sync::Arc::new(|_| FaultAction::Continue);
        let a = Config::new().fault_handler(std::sync::Arc::clone(&h));
        let b = Config::new().fault_handler(std::sync::Arc::clone(&h));
        assert_eq!(a, b, "same handler Arc compares equal");
        let c = Config::new().fault_handler(std::sync::Arc::new(|_| FaultAction::Continue));
        assert_ne!(a, c, "distinct handler closures compare unequal");
        assert_ne!(a, Config::new());
        assert!(format!("{a:?}").contains("<handler>"));
    }

    #[test]
    fn runtime_stalled_displays_diagnosis() {
        let e = RuntimeStalled {
            waited: Duration::from_millis(250),
            workers: 2,
            live_workers: 0,
            workers_died: 2,
            pending_injected: 1,
            metrics: Box::new(MetricsSnapshot::default()),
            suspects: Vec::new(),
        };
        let msg = e.to_string();
        assert!(msg.contains("2 of 2 workers dead"), "{msg}");
        assert!(msg.contains("0 live"), "{msg}");
        assert!(msg.contains("1 jobs queued"), "{msg}");
        assert!(!msg.contains("suspects"), "no suspects without supervision: {msg}");
    }

    #[test]
    fn runtime_stalled_names_suspect_slots() {
        let e = RuntimeStalled {
            waited: Duration::from_millis(250),
            workers: 4,
            live_workers: 4,
            workers_died: 0,
            pending_injected: 1,
            metrics: Box::new(MetricsSnapshot::default()),
            suspects: vec![(0, Some(BeatSite::StealRound)), (2, None)],
        };
        let msg = e.to_string();
        assert!(msg.contains("suspects: slot 0 (last beat steal-round), slot 2 (never beat)"), "{msg}");
    }
}
