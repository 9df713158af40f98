//! # cilkscreen: a determinacy-race detector
//!
//! §4 of Leiserson, *The Cilk++ concurrency platform* (DAC 2009) describes
//! Cilkscreen: "In a single serial execution on a test input for a
//! deterministic program, Cilkscreen guarantees to report a race bug if the
//! race bug is exposed". This crate reproduces that tool for programs
//! expressed against its event API:
//!
//! * [`spbags::SpBags`] — the provably good SP-bags algorithm of Feng and
//!   Leiserson maintains series-parallel relationships on the fly;
//! * [`union_find::UnionFind`] — the disjoint-set forest underneath;
//! * [`Detector`] / [`Execution`] — shadow memory over abstract
//!   [`Location`]s, with [`LockId`]-based suppression of accesses that hold
//!   a lock in common (the §4 definition of a data race);
//! * [`Report`] / [`Race`] — localized race reports;
//! * [`sporder`] + a sharded concurrent shadow memory (via
//!   [`instrument::run_monitored_parallel`]) — the parallel monitor:
//!   SP-order reachability labels decide "logically parallel" under any
//!   schedule, so the detector can watch *real multi-worker executions*
//!   instead of the serial elision.
//!
//! Both monitors share one ALL-SETS access history; only the reachability
//! oracle (SP-bags or SP-order) and the location map differ between them.
//!
//! # Example
//!
//! The paper's §4 example: replacing line 13 of the Fig. 1 quicksort with
//! `qsort(max(begin + 1, middle - 1), end)` makes the two recursive
//! subproblems overlap in one element — serially still correct, but a race
//! in parallel. See `crates/workloads` for the full traced quicksort; the
//! core pattern is:
//!
//! ```
//! use cilkscreen::{Detector, Location};
//!
//! let overlap = Location(42); // the element both halves touch
//! let report = Detector::new().run(|e| {
//!     e.spawn(|e| e.write_at(overlap, "qsort(begin, middle)"));
//!     e.write_at(overlap, "qsort(middle - 1, end)");
//!     e.sync();
//! });
//! assert!(!report.is_race_free());
//! ```

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod detector;
pub mod eraser;
mod history;
pub mod instrument;
mod report;
mod shadow;
pub mod spbags;
pub mod sporder;
mod structure;
pub mod union_find;

pub use detector::{Detector, Execution};
pub use instrument::{Shadow, ShadowSlice};
pub use report::{Location, LockId, Race, RaceKind, Report};
pub use structure::{StructureEvent, StructureTrace};
