//! Client-side retry with seeded-jitter exponential backoff.
//!
//! Admission control turns overload into typed refusals; this module is
//! the client half of that contract. [`RetryPolicy`] describes how a
//! caller should respond to an [`Overloaded`](crate::Overloaded) refusal
//! — how many attempts, how fast the backoff grows, how much jitter
//! decorrelates competing clients, and the deadline past which the caller
//! would rather have the error than the result.
//!
//! The policy is deliberately reason-aware:
//!
//! * `QueueFull` / `QuotaExceeded` are transient — pressure that drains as
//!   the pool executes; retrying after a backoff is productive.
//! * `BreakerOpen` carries the breaker's own
//!   [`retry_after`](crate::SubmitError::retry_after) hint; the backoff
//!   never sleeps less than the hint (retrying earlier is guaranteed to
//!   fast-fail again).
//! * `Shed` means the pool itself is degraded (zero live workers, no
//!   recovery) and `Stalled` means an admitted job sat unclaimed — neither
//!   gets better by retrying, so both fail fast.
//!
//! Jitter is seeded ([`RetryPolicy::seed`], defaulting to the workspace
//! test seed) so a soak that interleaves thousands of retries replays
//! byte-identically from `CILK_TEST_SEED` alone.

use std::time::{Duration, Instant};

use cilk_testkit::Rng;

use crate::admission::{RejectReason, SubmitError};

/// Backoff configuration for
/// [`ThreadPool::submit_with_retry`](crate::ThreadPool::submit_with_retry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    max_attempts: u32,
    base_delay: Duration,
    max_delay: Duration,
    deadline: Option<Duration>,
    seed: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(100),
            deadline: None,
            seed: None,
        }
    }
}

impl RetryPolicy {
    /// The default policy: 4 attempts, 1 ms base delay doubling to a
    /// 100 ms cap, no overall deadline, jitter seeded from the workspace
    /// test seed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of submission attempts (including the first).
    /// Clamped to at least 1.
    pub fn max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Backoff before the first retry; doubles on each subsequent retry.
    pub fn base_delay(mut self, d: Duration) -> Self {
        self.base_delay = d;
        self
    }

    /// Upper bound on any single backoff sleep (before the breaker's
    /// `retry_after` hint, which always takes precedence upward).
    pub fn max_delay(mut self, d: Duration) -> Self {
        self.max_delay = d;
        self
    }

    /// Overall deadline across all attempts and sleeps: once elapsed, the
    /// last refusal is returned instead of sleeping again.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Pins the jitter PRNG seed (default: derived from the workspace test
    /// seed, `CILK_TEST_SEED`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    fn rng(&self) -> Rng {
        match self.seed {
            Some(seed) => Rng::seed_from_u64(seed),
            None => Rng::from_keys(cilk_testkit::base_seed(), &[0x5E7B_AC0F]),
        }
    }

    /// The uncapped exponential step for retry number `retry` (0-based).
    fn step(&self, retry: u32) -> Duration {
        let factor = 1u32.checked_shl(retry).unwrap_or(u32::MAX);
        self.base_delay
            .saturating_mul(factor)
            .min(self.max_delay)
    }

    /// Runs `submit` until it succeeds, fails with a non-retryable error,
    /// or the policy is exhausted. See the module docs for which refusals
    /// retry; the returned error is always the *last* refusal observed.
    pub(crate) fn run<R>(
        &self,
        mut submit: impl FnMut() -> Result<R, SubmitError>,
    ) -> Result<R, SubmitError> {
        let start = Instant::now();
        let mut rng = self.rng();
        let mut attempt = 0u32;
        loop {
            let err = match submit() {
                Ok(r) => return Ok(r),
                Err(err) => err,
            };
            attempt += 1;
            let retryable = matches!(
                &err,
                SubmitError::Overloaded(over) if matches!(
                    over.reason,
                    RejectReason::QueueFull
                        | RejectReason::QuotaExceeded
                        | RejectReason::BreakerOpen
                )
            );
            if !retryable || attempt >= self.max_attempts {
                return Err(err);
            }
            // Half-fixed, half-jittered backoff: competing clients that
            // were refused together decorrelate instead of re-colliding.
            let step = self.step(attempt - 1);
            let jitter_span = (step / 2).as_nanos() as u64;
            let jitter = if jitter_span == 0 {
                Duration::ZERO
            } else {
                Duration::from_nanos(rng.gen_range(0..=jitter_span))
            };
            let mut sleep = step / 2 + jitter;
            // The breaker knows when its cooldown ends; sleeping less than
            // the hint buys a guaranteed fast-fail.
            if let Some(hint) = err.retry_after() {
                sleep = sleep.max(hint);
            }
            if let Some(deadline) = self.deadline {
                let Some(remaining) = deadline.checked_sub(start.elapsed()) else {
                    return Err(err);
                };
                if sleep > remaining {
                    return Err(err);
                }
            }
            std::thread::sleep(sleep);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{Overloaded, TenantId};

    fn refusal(reason: RejectReason, retry_after: Option<Duration>) -> SubmitError {
        SubmitError::Overloaded(Overloaded {
            tenant: TenantId(1),
            queued: 8,
            capacity: 8,
            reason,
            retry_after,
        })
    }

    #[test]
    fn retries_transient_refusals_until_success() {
        let policy = RetryPolicy::new()
            .base_delay(Duration::from_micros(10))
            .max_delay(Duration::from_micros(50))
            .seed(7);
        let mut calls = 0;
        let out: Result<u32, _> = policy.run(|| {
            calls += 1;
            if calls < 3 {
                Err(refusal(RejectReason::QueueFull, None))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(calls, 3);
    }

    #[test]
    fn exhausts_attempts_and_returns_last_refusal() {
        let policy = RetryPolicy::new()
            .max_attempts(3)
            .base_delay(Duration::from_micros(10))
            .seed(7);
        let mut calls = 0;
        let out: Result<u32, _> = policy.run(|| {
            calls += 1;
            Err(refusal(RejectReason::QuotaExceeded, None))
        });
        assert_eq!(calls, 3);
        let err = out.unwrap_err();
        assert!(
            matches!(&err, SubmitError::Overloaded(o) if o.reason == RejectReason::QuotaExceeded),
            "{err}"
        );
    }

    #[test]
    fn shed_fails_fast_without_retry() {
        let policy = RetryPolicy::new().seed(7);
        let mut calls = 0;
        let out: Result<u32, _> = policy.run(|| {
            calls += 1;
            Err(refusal(RejectReason::Shed, None))
        });
        assert_eq!(calls, 1, "shed is not retryable");
        assert!(out.is_err());
    }

    #[test]
    fn breaker_hint_floors_the_backoff_sleep() {
        let hint = Duration::from_millis(5);
        let policy = RetryPolicy::new()
            .max_attempts(2)
            .base_delay(Duration::from_nanos(1))
            .max_delay(Duration::from_nanos(1))
            .seed(7);
        let mut calls = 0;
        let start = Instant::now();
        let _: Result<u32, _> = policy.run(|| {
            calls += 1;
            Err(refusal(RejectReason::BreakerOpen, Some(hint)))
        });
        assert_eq!(calls, 2);
        assert!(
            start.elapsed() >= hint,
            "the retry must wait out the breaker's cooldown hint"
        );
    }

    #[test]
    fn deadline_bounds_total_retrying() {
        let policy = RetryPolicy::new()
            .max_attempts(u32::MAX)
            .base_delay(Duration::from_millis(50))
            .max_delay(Duration::from_millis(50))
            .deadline(Duration::from_millis(1))
            .seed(7);
        let mut calls = 0u32;
        let start = Instant::now();
        let out: Result<u32, _> = policy.run(|| {
            calls += 1;
            Err(refusal(RejectReason::QueueFull, None))
        });
        assert!(out.is_err());
        assert!(calls < 5, "deadline must cut retrying short, got {calls} calls");
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn jitter_is_seed_deterministic() {
        let p = RetryPolicy::new().seed(11);
        let mut a = p.rng();
        let mut b = p.rng();
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
