//! The benchmark's contract: workloads, metrics, bounds and constants.
//! `BENCHMARK.json` at the repo root is [`benchmark_json`] printed (run
//! `perf --print-benchmark-json`); a unit test keeps the two equal.

use crate::json::Json;

/// Seconds one run measures, the `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 20;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fib_spawn",
        why: "fib(32) spawning at every level: millions of joins of no work, so deque and join are all the cost; admission unused",
    },
    Workload {
        name: "qsort_coarse",
        why: "quicksort of 4M i64 with leaf sorts of 64: memory-bound, joins are a few percent, so a join speed-up must not show here",
    },
    Workload {
        name: "bfs_levels",
        why: "level-synchronous BFS on a 1M-vertex graph: a cilk_for into a list reducer per level, one pool wake-up per level",
    },
    Workload {
        name: "svc_closed",
        why: "closed loop, P blocking clients of two tenants, 10 us jobs: submit, claim, wake and complete dominate, the goodput workload",
    },
    Workload {
        name: "svc_open",
        why: "open loop at 80% of capacity on an absolute schedule, async handles, latency from the due time: the queueing-latency workload",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

/// Every workload reports every one of these, with tracing off. A "job" is
/// one solve on the fork-join workloads and one request on the service ones.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "goodput_jobs_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "verified jobs per second on P workers: the upper-quartile window of the run's 50; 1/TP on the fork-join workloads",
    },
    EndToEnd {
        name: "latency_typ_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        what: "wall time of a typical job on P workers: the median request of a window, from submit (closed loop) or from its due time (open loop), at the lower-quartile window; the lower-quartile solve (TP) on the fork-join workloads",
    },
    EndToEnd {
        name: "latency_tail_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        what: "tail of the same samples: each window's p99 on svc_closed and p90 on svc_open, at the lower-quartile window; the upper-quartile solve on the fork-join workloads",
    },
    EndToEnd {
        name: "speedup",
        unit: "x",
        better: Better::Higher,
        bound: 0.25,
        what: "T1/TP: throughput on P workers over throughput on one worker (one worker is measured saturated, so on svc_open this is 0.8 P over 1 + its per-job overhead)",
    },
    EndToEnd {
        name: "serial_overhead",
        unit: "x",
        better: Better::Lower,
        bound: 0.25,
        what: "T1/TS: time per job on one worker over the time of the plain serial call of the same job (lower quartiles of the solves; upper-quartile windows of the rates)",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "input generation, reference answers, pool builds and one warm-up round (median of three set-ups)",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub what: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        what,
        moves,
    }
}

use Better::{Higher, Lower};

const FIB_ONLY: &str =
    "latency_typ_us, serial_overhead on fib_spawn; nothing on qsort_coarse, svc_open";
const BFS_ONLY: &str = "latency_typ_us, serial_overhead on bfs_levels only";
const REGISTRY: &str =
    "speedup on the fork-join workloads, most on bfs_levels; latency_typ_us on svc_open";
const ADMISSION: &str =
    "goodput_jobs_s, latency_tail_us on svc_closed; latency_tail_us on svc_open; zero on fork-join";
const HANDLE: &str = "latency_typ_us, latency_tail_us on svc_open; nothing on svc_closed";
const INFO: &str = "informational";

/// Every workload reports every one of these in the traced run. Names are
/// `<module>.<metric>`. The first seventeen are the layer walk: the same
/// calls whatever the workload, fastest of a few repetitions. The rest come
/// from spans and counter deltas around the workload's own calls, where a
/// "solve" is one job, and read 0 where the workload bypasses the layer.
pub const PER_LAYER: [PerLayer; 53] = [
    layer(
        "deque.push_pop_ns",
        "ns",
        Lower,
        "walk: one push and one pop of a fence-elided cilk-deque Worker, nothing else",
        FIB_ONLY,
    ),
    layer(
        "deque.steal_ns",
        "ns",
        Lower,
        "walk: one successful uncontended Stealer::steal of a published element",
        FIB_ONLY,
    ),
    layer(
        "deque.fenced_pop_frac",
        "frac",
        Lower,
        "walk: share of pops paying the SeqCst fence under fib-shaped push/pop traffic (OwnerStats)",
        FIB_ONLY,
    ),
    layer(
        "deque.publications_per_push",
        "count",
        Lower,
        "walk: release stores of bottom per push under the same traffic (OwnerStats)",
        FIB_ONLY,
    ),
    layer(
        "join.cycle_ns",
        "ns",
        Lower,
        "walk: one un-stolen cilk::join of two no-ops on a one-worker pool",
        FIB_ONLY,
    ),
    layer(
        "join.tax_ns",
        "ns",
        Lower,
        "join.cycle_ns minus deque.push_pop_ns: what the runtime adds to the deque",
        FIB_ONLY,
    ),
    layer(
        "scope.spawn_ns",
        "ns",
        Lower,
        "walk: one no-op Scope::spawn, 1024 per scope, one-worker pool",
        "scope-based code; none of the five workloads",
    ),
    layer(
        "parallel_for.chunk_ns",
        "ns",
        Lower,
        "walk: one leaf chunk of an empty-body cilk_for_grain(.., 64, ..), one-worker pool",
        BFS_ONLY,
    ),
    layer(
        "hyper.view_access_ns",
        "ns",
        Lower,
        "walk: one ReducerList::push_back in a serial loop",
        BFS_ONLY,
    ),
    layer(
        "registry.install_roundtrip_us",
        "us",
        Lower,
        "walk: install of a no-op from outside a P-worker pool, back to back: inject, claim, run, latch, wake the caller",
        REGISTRY,
    ),
    layer(
        "registry.oversub_slowdown",
        "x",
        Lower,
        "walk: median fib_cutoff(27, 0) solve on 4P workers over the same on P workers, 7 solves each",
        REGISTRY,
    ),
    layer(
        "admission.submit_roundtrip_us",
        "us",
        Lower,
        "walk: blocking submit of a no-op by one client on an idle service pool; minus install_roundtrip = admission's own cost",
        ADMISSION,
    ),
    layer(
        "admission.submit_async_ns",
        "ns",
        Lower,
        "walk: caller-side cost of one submit_async, in batches under the tenant's quota",
        ADMISSION,
    ),
    layer(
        "admission.reject_ns",
        "ns",
        Lower,
        "walk: one submit_async refused by a full shard",
        ADMISSION,
    ),
    layer(
        "handle.poll_ns",
        "ns",
        Lower,
        "walk: JobHandle::poll on a finished handle",
        HANDLE,
    ),
    layer(
        "handle.wait_ready_ns",
        "ns",
        Lower,
        "walk: JobHandle::wait on a finished handle",
        HANDLE,
    ),
    layer(
        "handle.cancel_ns",
        "ns",
        Lower,
        "walk: JobHandle::cancel of a still-queued job",
        HANDLE,
    ),
    layer(
        "join.spawns_per_solve",
        "count",
        Lower,
        "joins per solve: delta of MetricsSnapshot::spawns over the TP solves (exact)",
        FIB_ONLY,
    ),
    layer(
        "join.share_of_t1",
        "frac",
        Lower,
        "spawns_per_solve x join.cycle_ns over T1 (fork-join workloads)",
        FIB_ONLY,
    ),
    layer(
        "parallel_for.chunks_per_solve",
        "count",
        Lower,
        "cilk_for leaf chunks per solve: joins plus loops (bfs_levels)",
        BFS_ONLY,
    ),
    layer(
        "hyper.views_created_per_solve",
        "count",
        Lower,
        "reducer views merged in one untimed solve, counted by a probe consumer (bfs_levels)",
        BFS_ONLY,
    ),
    layer(
        "registry.steals_per_solve",
        "count",
        Lower,
        "successful steals per solve (MetricsSnapshot delta)",
        REGISTRY,
    ),
    layer(
        "registry.failed_steals_per_solve",
        "count",
        Lower,
        "steal attempts per solve that found nothing or lost a race",
        REGISTRY,
    ),
    layer(
        "registry.steal_success_frac",
        "frac",
        Higher,
        "steals over steals plus failed steals",
        REGISTRY,
    ),
    layer(
        "registry.cpu_s_per_solve",
        "s",
        Lower,
        "process CPU seconds per solve from /proc/self/stat: spinning shows here, not in wall time",
        REGISTRY,
    ),
    layer(
        "admission.queue_wait_us_p50",
        "us",
        Lower,
        "submit call to the first statement of the job's closure, median",
        ADMISSION,
    ),
    layer(
        "admission.queue_wait_us_p99",
        "us",
        Lower,
        "the same, p99",
        ADMISSION,
    ),
    layer(
        "admission.run_us_p50",
        "us",
        Lower,
        "first to last statement of the job's closure, median",
        ADMISSION,
    ),
    layer(
        "admission.batches_per_job",
        "count",
        Lower,
        "multi-job injector transfers per admitted job",
        ADMISSION,
    ),
    layer(
        "admission.jobs_aged",
        "count",
        Lower,
        "band promotions of jobs that waited past the aging threshold",
        ADMISSION,
    ),
    layer(
        "admission.injector_high_watermark",
        "count",
        Lower,
        "deepest any injection shard has been since the pool was built",
        ADMISSION,
    ),
    layer(
        "admission.jobs_admitted",
        "count",
        Higher,
        "jobs admitted over the traced run",
        "exactly 0 on the fork-join workloads",
    ),
    layer(
        "handle.complete_to_wake_us_p50",
        "us",
        Lower,
        "last statement of the closure to the dispatcher seeing the handle finished, median (svc_open)",
        HANDLE,
    ),
    layer(
        "handle.complete_to_wake_us_p99",
        "us",
        Lower,
        "the same, p99",
        HANDLE,
    ),
    layer(
        "svc.latency_p99_us",
        "us",
        Lower,
        "p99 request latency; end-to-end on svc_closed, too noisy for a bound on svc_open",
        INFO,
    ),
    layer(
        "svc.latency_p999_us",
        "us",
        Lower,
        "p99.9 request latency",
        INFO,
    ),
    layer(
        "svc.failed_frac",
        "frac",
        Lower,
        "(never admitted + stalled + cancelled + wrong) over attempted",
        "must stay 0: a request that never completes, or completes wrong, fails the run",
    ),
    layer(
        "svc.refused_frac",
        "frac",
        Lower,
        "submit_async calls the pool refused (quota, full shard) over requests; the open loop offers a refused request again and times it from its due time (svc_open)",
        "0 on a quiet machine at 80% load; above 0 the machine held the workers up, and latency_tail_us shows it",
    ),
    layer(
        "svc.backlog_growth",
        "1/s",
        Lower,
        "requests in flight at the end of the last window minus the first, per second (svc_open)",
        "must stay near 0 on svc_open at 80% load",
    ),
    layer(
        "gen.late_p99_us",
        "us",
        Lower,
        "how late the open-loop dispatcher fired a request after its due time, p99",
        "validity of svc_open: a median above 10% of the period warns that the load offered is not the load claimed",
    ),
    layer(
        "gen.skipped_frac",
        "frac",
        Lower,
        "share of open-loop requests dropped because they fell due while the machine had the dispatcher frozen for over 10 ms",
        "validity of svc_open: above 10% the run warns",
    ),
    layer(
        "trace.overhead_frac",
        "frac",
        Lower,
        "traced over untraced: TP on the fork-join workloads, goodput on the service ones",
        "validity of the traced numbers",
    ),
    layer(
        "machine.steal_frac",
        "frac",
        Lower,
        "share of the processors' time the hypervisor took away during the traced run (steal of /proc/stat); a thousandth on a quiet machine",
        "validity of every timing: above a hundredth the run measures the neighbours",
    ),
    layer(
        "cilkview.predicted_speedup_lo",
        "x",
        Higher,
        "Cilkview's burdened lower bound on speedup at P (fib_spawn, qsort_coarse)",
        "speedup on fib_spawn, qsort_coarse",
    ),
    layer(
        "cilkview.predicted_speedup_hi",
        "x",
        Higher,
        "min(P, T1/Tinf) from the same profile",
        "speedup on fib_spawn, qsort_coarse",
    ),
    layer(
        "span.submit_share",
        "frac",
        Lower,
        "median submit span over the median request span",
        INFO,
    ),
    layer(
        "span.queue_wait_share",
        "frac",
        Lower,
        "median queue_wait span over the median request span",
        INFO,
    ),
    layer(
        "span.run_share",
        "frac",
        Higher,
        "median run span over the median request span",
        INFO,
    ),
    layer(
        "span.complete_to_wake_share",
        "frac",
        Lower,
        "median complete_to_wake span over the median request span",
        INFO,
    ),
    layer(
        "span.install_in_share",
        "frac",
        Lower,
        "median install_in span (call to closure start) over the median solve span",
        INFO,
    ),
    layer(
        "span.compute_share",
        "frac",
        Higher,
        "median compute span over the median solve span",
        INFO,
    ),
    layer(
        "span.install_out_share",
        "frac",
        Lower,
        "median install_out span (closure end to caller resumed) over the median solve span",
        INFO,
    ),
    layer(
        "span.self_share",
        "frac",
        Lower,
        "median of the root span minus what its children cover, over the median root span",
        INFO,
    ),
];

/// Every constant a workload is built from; printed with the results.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub fib_n: u64,
    pub qsort_len: usize,
    pub bfs_vertices: usize,
    pub bfs_degree: usize,
    /// Service jobs are `fib_cutoff(n, svc_cutoff)`, `n` uniform in this range.
    pub svc_n_lo: u64,
    pub svc_n_hi: u64,
    pub svc_cutoff: u64,
    /// Every open-loop job is padded to this service time, so capacity is
    /// `P / floor` on any machine.
    pub open_floor_us: u64,
    /// Share of that capacity the open loop offers.
    pub open_load: f64,
    /// Operations per timed repetition of a nanosecond-scale walk step.
    pub walk_ops: usize,
    /// Round trips per timed repetition of a microsecond-scale walk step.
    pub walk_trips: usize,
    /// Repetitions of a walk step; the fastest is reported.
    pub walk_reps: usize,
    /// `fib_cutoff(n, 0)` timed on P and on 4P workers (7 solves each).
    pub oversub_fib_n: u64,
    /// The `n` at which Cilkview profiles the spawn-everywhere fib.
    pub view_fib_n: u64,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            fib_n: 32,
            qsort_len: 4_000_000,
            bfs_vertices: 1_000_000,
            bfs_degree: 8,
            svc_n_lo: 14,
            svc_n_hi: 18,
            svc_cutoff: 8,
            open_floor_us: 500,
            open_load: 0.8,
            walk_ops: 1_000_000,
            walk_trips: 2_000,
            walk_reps: 5,
            oversub_fib_n: 27,
            view_fib_n: 25,
        }
    }

    /// `--quick`: the same code paths on inputs small enough that all five
    /// workloads, traced and untraced, end in seconds.
    pub fn quick() -> Sizes {
        Sizes {
            fib_n: 24,
            qsort_len: 200_000,
            bfs_vertices: 50_000,
            walk_ops: 50_000,
            walk_trips: 200,
            walk_reps: 2,
            oversub_fib_n: 20,
            view_fib_n: 18,
            ..Sizes::full()
        }
    }

    pub fn to_json(&self) -> Json {
        let int = |v: u64| Json::Int(v as i64);
        Json::obj([
            ("fib_n", int(self.fib_n)),
            ("qsort_len", int(self.qsort_len as u64)),
            ("qsort_leaf", int(64)),
            ("bfs_vertices", int(self.bfs_vertices as u64)),
            ("bfs_degree", int(self.bfs_degree as u64)),
            ("bfs_grain", int(64)),
            ("svc_n_lo", int(self.svc_n_lo)),
            ("svc_n_hi", int(self.svc_n_hi)),
            ("svc_cutoff", int(self.svc_cutoff)),
            ("svc_shards", int(4)),
            ("svc_shard_capacity", int(128)),
            ("svc_handoff_batch", int(4)),
            ("open_floor_us", int(self.open_floor_us)),
            ("open_load", Json::Num(self.open_load)),
            ("walk_ops", int(self.walk_ops as u64)),
            ("walk_trips", int(self.walk_trips as u64)),
            ("walk_reps", int(self.walk_reps as u64)),
            ("oversub_fib_n", int(self.oversub_fib_n)),
            ("view_fib_n", int(self.view_fib_n)),
        ])
    }
}

/// The metric glossary, as the markdown tables of the README.
pub fn glossary() -> String {
    let mut out = String::from(
        "| end-to-end metric | unit | better | bound | what |\n|---|---|---|---|---|\n",
    );
    for m in &END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.what
        ));
    }
    out.push_str(
        "\n| per-layer metric | unit | better | what | should move |\n|---|---|---|---|---|\n",
    );
    for m in &PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.what,
            m.moves
        ));
    }
    out
}

/// The content of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "perf/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["perf"])),
        ("run_seconds", Json::Int(i64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, valid_name};

    #[test]
    fn the_contract_is_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(benchmark_json().to_pretty().len() < 64 * 1024);
    }

    #[test]
    fn the_readme_holds_the_glossary() {
        let readme = include_str!("../README.md");
        for table in glossary().split("\n\n") {
            assert!(
                readme.contains(table.trim_end()),
                "paste `perf --describe` into README.md"
            );
        }
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perf/");
        assert_eq!(
            parse(&text).expect("BENCHMARK.json parses"),
            benchmark_json(),
            "regenerate with `perf --print-benchmark-json > BENCHMARK.json`"
        );
    }
}
