//! `cilk-check`: a bounded schedule-exploration model checker for the
//! workspace's lock-free protocols.
//!
//! The crate provides loom-style checked atomics ([`sync`]) and virtual
//! threads ([`thread`]). Code written against them — including the real
//! `cilk-deque` sources when the workspace is compiled with
//! `RUSTFLAGS="--cfg cilk_check"` — runs with every atomic operation
//! serialized and scheduled by an exploration engine that enumerates
//! interleavings exhaustively up to a preemption bound (with sleep-set
//! pruning), or samples them with seeded random walks.
//!
//! Every counterexample is a *schedule string*; re-running the failing test
//! with `CILK_CHECK_SCHEDULE=<string>` (plus `CILK_TEST_SEED` for randomized
//! modes) replays the exact execution. Failures print a single
//! copy-pasteable repro line in the same spirit as `cilk-testkit`'s
//! `forall!`.
//!
//! See `docs/model-checking.md` for the memory model and its honest
//! limitations.

#![warn(missing_docs)]

mod clock;
mod engine;
mod pool;
mod sched;

pub mod sync;
pub mod thread;

pub use engine::{at_quiescence, explore, in_model, Config, Failure, Mode, Report};

use std::sync::Once;

/// Environment variable holding a schedule string to replay instead of
/// exploring. Set it together with the `CILK_TEST_SEED` printed in a
/// failure's repro line, and filter `cargo test` down to the failing test —
/// the variable applies to every model the test binary runs.
pub const SCHEDULE_ENV: &str = "CILK_CHECK_SCHEDULE";

impl Failure {
    /// The single copy-pasteable repro line printed for this
    /// counterexample.
    pub fn repro_line(&self, name: &str) -> String {
        format!(
            "reproduce with: CILK_TEST_SEED=0x{seed:x} CILK_CHECK_SCHEDULE={sched} \
             cargo test -p cilk-check {name}",
            seed = cilk_testkit::base_seed(),
            sched = if self.schedule.is_empty() { "''" } else { &self.schedule },
            name = name,
        )
    }
}

/// Suppresses panic-hook output for panics raised *inside* model
/// executions: those are counterexamples (or internal abort tokens), and
/// the exploration wrapper re-raises them with a replayable report.
/// Panics outside executions still reach the previous hook.
fn install_quiet_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !in_model() {
                prev(info);
            }
        }));
    });
}

/// Explores `f` under `mode`, honoring a [`SCHEDULE_ENV`] override: when
/// the variable is set, the requested mode is replaced by a replay of that
/// schedule. Returns the [`Report`] without panicking on counterexamples.
pub fn check(name: &str, cfg: &Config, mode: Mode, f: impl Fn()) -> Report {
    install_quiet_hook();
    let mode = match std::env::var(SCHEDULE_ENV) {
        Ok(s) => Mode::Replay { schedule: s },
        Err(_) => mode,
    };
    explore(name, cfg, mode, &f)
}

/// Replays one recorded schedule string against `f`, returning the
/// [`Report`] (whose failure, if any, carries the re-recorded schedule).
pub fn replay(name: &str, schedule: &str, f: impl Fn()) -> Report {
    install_quiet_hook();
    explore(name, cfg_default(), Mode::Replay { schedule: schedule.to_owned() }, &f)
}

fn cfg_default() -> &'static Config {
    static CFG: std::sync::OnceLock<Config> = std::sync::OnceLock::new();
    CFG.get_or_init(Config::default)
}

fn panic_on_failure(name: &str, report: Report) -> Report {
    if let Some(failure) = &report.failure {
        panic!(
            "model `{name}` failed after {execs} execution(s): {msg}\n  schedule: {sched}\n  {repro}",
            execs = report.executions,
            msg = failure.message,
            sched = failure.schedule,
            repro = failure.repro_line(name),
        );
    }
    report
}

/// Exhaustively explores `f` under `cfg` and panics with a replayable
/// report on any counterexample — or on truncation, since a truncated run
/// cannot back the "exhaustively explored" claim.
pub fn model_with(name: &str, cfg: &Config, f: impl Fn()) -> Report {
    let report = check(name, cfg, Mode::Exhaustive, f);
    let report = panic_on_failure(name, report);
    assert!(
        !report.truncated,
        "model `{name}` truncated at {} executions; raise Config::max_executions \
         or tighten the model",
        report.executions
    );
    report
}

/// [`model_with`] under the default [`Config`] (preemption bound 2).
pub fn model(name: &str, f: impl Fn()) -> Report {
    model_with(name, cfg_default(), f)
}

/// Runs `iters` seeded random-walk executions of `f`, panicking with a
/// replayable report on any counterexample. The walk is seeded from
/// `CILK_TEST_SEED` via `cilk-testkit`, so the whole run reproduces from
/// the seed alone and any single failing execution from the schedule.
pub fn model_random(name: &str, cfg: &Config, iters: u64, f: impl Fn()) -> Report {
    let report = check(name, cfg, Mode::Random { iters }, f);
    panic_on_failure(name, report)
}
