#!/usr/bin/env bash
# Tier-1 verification, run exactly as the hermetic-build policy demands:
# everything `--offline`, so a registry dependency sneaking back into the
# workspace fails the build instead of silently downloading.
#
#   ./ci.sh          # hermetic check + lint gate + build + tests + smoke
#
# Seeded suites print their reproducing seed on failure; re-run with
# CILK_TEST_SEED=<seed> to replay a specific failure (see README).
set -euo pipefail
cd "$(dirname "$0")"

echo "== hermetic dependency check =="
./scripts/check_hermetic.sh

echo "== line counts (information only) =="
./scripts/loc.sh crates/runtime crates/deque crates/hyper crates/cilkscreen

echo "== tier-1: release build (warnings are errors) =="
RUSTFLAGS="-D warnings" cargo build --release --offline

echo "== one way to block: no condvar, no timed wait outside the latch =="
# Every runtime sleeper parks on a `LockLatch` (docs/scheduler.md,
# "Blocking"): an install/submit client directly, an idle worker and a
# `JobHandle` waiter through a `Parker`. Workers park with no timeout; the
# one place a timed wait (`park_timeout`) belongs is latch.rs, for the
# external waiter's stall and supervision steps and a handle's timed wait.
# A condition variable, or a timed park anywhere else, fails here.
if grep -rn 'Condvar' crates/runtime/src; then
    echo "a condition variable is back in cilk-runtime"
    exit 1
fi
if grep -rn 'park_timeout(' crates/runtime/src | grep -v '^crates/runtime/src/latch.rs:'; then
    echo "a timed park outside latch.rs"
    exit 1
fi
if grep -n 'parker\.park(' crates/runtime/src/registry.rs | grep -v 'Duration::MAX'; then
    echo "a timed wait is back on the worker idle path"
    exit 1
fi

echo "== lint gate: clippy (when installed) =="
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "clippy not installed; skipping (rustc -D warnings gate above still applies)"
fi

echo "== rustdoc: the runtime's docs build with no warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps -p cilk-runtime

echo "== tier-1: test suite =="
cargo test -q --offline --workspace

echo "== release-mode runtime: the optimizer-sensitive unsafe =="
# `join`'s unwind guard, `StackJob`'s uninitialized result cell and the
# deque's inlined owner path are `unsafe` whose mistakes an optimizer can
# expose and a debug build can hide; the suite above runs them in debug.
# A stolen continuation's view frame comes back to its joiner through
# `StackJob`'s result slot: cilk-hyper's suite, reducer_semantics and the
# view-merge fault test cover it; worker_count_equivalence both
# instantiations of `join_on_worker` (with and without a `SCHED` consumer).
# alloc_counts counts heap allocations per solve: per level and per steal
# in BFS, none per leaf; none per spawn or steal in fib and qsort.
release_start=$SECONDS
cargo test --release -q --offline -p cilk-runtime
cargo test --release -q --offline -p cilk-hyper
cargo test --release -q --offline --test fault_matrix pinned_seed_slice
cargo test --release -q --offline --test fault_matrix view_merge_panic_leaks_no_views
cargo test --release -q --offline --test reducer_semantics
cargo test --release -q --offline --test worker_count_equivalence
cargo test --release -q --offline --test alloc_counts
echo "release-mode runtime stage: $((SECONDS - release_start)) s"

echo "== cilk-check: bounded-exhaustive model suites (docs/model-checking.md) =="
# Under --cfg cilk_check the deque and the runtime's idle protocol swap
# std::sync for the cilk-check shims, so the models explore the shipping
# code itself (tests/models.rs), and tests/mutation.rs shows the same
# models catch the planted weakenings of each.
# A separate target dir keeps the two cfg builds from evicting each
# other's incremental cache. Any counterexample prints a copy-pasteable
#   CILK_TEST_SEED=... CILK_CHECK_SCHEDULE=... cargo test ...
# repro line that replays the exact failing interleaving.
RUSTFLAGS="--cfg cilk_check -D warnings" CARGO_TARGET_DIR=target/check \
    cargo test -q --offline -p cilk-check -p cilk-deque

echo "== cilk-check: randomized deep slice (seed printed for replay) =="
# Unbounded random walks over a model too large to enumerate; one fresh
# seed per CI run, printed so the whole run replays from the seed alone.
CILK_TEST_SEED="0x$(od -An -N8 -tx8 /dev/urandom | tr -d ' ')" \
    RUSTFLAGS="--cfg cilk_check -D warnings" CARGO_TARGET_DIR=target/check \
    cargo test -q --offline -p cilk-check --test models -- --ignored --nocapture \
    | grep -v '^$'

echo "== fault matrix: pinned-seed slice (docs/faults.md) =="
# Deterministic plans over every site at 1/2/4 workers; already part of
# the workspace suite above, repeated here by name so a matrix failure is
# attributed immediately.
cargo test -q --offline --test fault_matrix pinned_seed_slice

echo "== fault matrix: randomized slice (seed printed for replay) =="
# One fresh-seed exploration per CI run. The test prints the effective
# CILK_TEST_SEED; replaying it reproduces the identical plans.
CILK_TEST_SEED="0x$(od -An -N8 -tx8 /dev/urandom | tr -d ' ')" \
    cargo test -q --offline --test fault_matrix randomized_seed_slice -- --nocapture \
    | grep -v '^$'

echo "== chaos soak: pinned-seed supervised fault sweep =="
# Death-heavy generated plans against supervised pools: every workload
# must complete correctly with zero stranded jobs while workers die,
# respawn, and degrade (docs/supervision.md).
cargo test -q --offline --test fault_matrix chaos_soak_pinned_seeds

echo "== chaos soak: randomized slice (seed printed for replay) =="
CILK_TEST_SEED="0x$(od -An -N8 -tx8 /dev/urandom | tr -d ' ')" \
    cargo test -q --offline --test fault_matrix chaos_soak_randomized -- --nocapture \
    | grep -v '^$'

echo "== overload soak: pinned-seed scheduler-service slice =="
# Offered load past capacity at 2/4/8 workers: rejections must absorb the
# excess (typed, accounted), queue depth stays bounded, a within-quota
# tenant keeps ≥90% of its throughput while another floods, and a degraded
# pool sheds instead of stalling (docs/scheduler-service.md).
cargo test -q --offline --test overload_soak overload_soak_pinned_seeds
cargo test -q --offline --test overload_soak degraded_pool_sheds_instead_of_stalling

echo "== overload soak: randomized slice (seed printed for replay) =="
CILK_TEST_SEED="0x$(od -An -N8 -tx8 /dev/urandom | tr -d ' ')" \
    cargo test -q --offline --test overload_soak overload_soak_randomized -- --nocapture \
    | grep -v '^$'

echo "== starvation soak: pinned-seed weighted-fairness slice =="
# A permanent High flood at 4x capacity against a Low-band tenant at 10%
# fair share (weights 9:1): every admitted Low job completes within its
# aged deadline — aging climbs it out of the starved band — the books
# balance (admitted == completed + cancelled), cancel releases quota
# without executing, and a tripped breaker fast-fails with a retry hint
# (docs/scheduler-service.md, phase 2).
cargo test -q --offline --test starvation_soak starvation_soak_pinned_seeds
cargo test -q --offline --test starvation_soak weighted_goodput_tracks_weight_ratio
cargo test -q --offline --test starvation_soak cancel_releases_quota_and_never_executes
cargo test -q --offline --test starvation_soak breaker_trips_fast_fails_and_recovers

echo "== starvation soak: randomized slice (seed printed for replay) =="
CILK_TEST_SEED="0x$(od -An -N8 -tx8 /dev/urandom | tr -d ' ')" \
    cargo test -q --offline --test starvation_soak starvation_soak_randomized -- --nocapture \
    | grep -v '^$'

echo "== open-loop collapse: graceful degradation past capacity =="
# Arrivals on an absolute 4x-capacity schedule (admission slowness never
# back-pressures the arrival process): the excess sheds as typed
# rejections, queue depth and p99 stay bounded, every arrival accounted.
cargo test -q --offline --test starvation_soak open_loop_collapse_stays_bounded

echo "== handle properties: weighted quota, handle ledger, cancel races =="
CILK_TEST_SEED="0x$(od -An -N8 -tx8 /dev/urandom | tr -d ' ')" \
    cargo test -q --offline --test handle_props

echo "== parallel cilkscreen: pinned-seed oracle cross-validation =="
# The parallel monitor (SP-order labels + concurrent shadow memory,
# docs/cilkscreen.md Layer 3) must report exactly the serial SP-bags
# oracle's race set at 1/2/4/8 workers, with schedule-independent
# reports and every planted race caught; already part of the workspace
# suite above, repeated by name so a divergence is attributed here.
cargo test -q --offline --test parallel_screen

echo "== parallel cilkscreen: randomized slice (seed printed for replay) =="
# Fresh-seed planted slice races, serial vs 4-worker parallel agreement.
PAR_SEED="0x$(od -An -N8 -tx8 /dev/urandom | tr -d ' ')"
echo "CILK_TEST_SEED=${PAR_SEED}"
CILK_TEST_SEED="${PAR_SEED}" \
    cargo test -q --offline --test parallel_screen randomized_planted_slice_races_match_oracle

echo "== cilkscreen CLI smoke: workload expectations must hold =="
# --check exits 0 only when every workload's verdict (racy locations,
# reducer suppression, functional result) matches its expectation; the
# JSON artifact lands in target/cilkscreen/.
cargo run -q --release --offline -p cilk-workloads --bin cilkscreen -- \
    --check --workers 2 --json target/cilkscreen/ci-report.json

echo "== cilkscreen CLI smoke: --parallel-check at 1/2/4/8 workers =="
# Real multi-worker monitoring of every workload must agree with the
# serial oracle at each pool size (exit 2 on any divergence).
cargo run -q --release --offline -p cilk-workloads --bin cilkscreen -- \
    --parallel-check --json target/cilkscreen/ci-parallel-report.json

echo "== probe smoke: zero-consumer overhead contract =="
# A fresh process that never registers a probe consumer: the scheduler
# must run entirely on the one-atomic-load fast path and produce the
# seed runtime's exact metrics (docs/probe.md's overhead contract).
cargo run -q --release --offline -p cilk-bench --bin probe_smoke

echo "== Fig. 3 from a real trace: regenerate + schema diff =="
# fig3_qsort_profile runs the real cilk_workloads::qsort on a multi-worker
# pool under Cilkview::profile_runtime, asserts 1-worker and
# serial-elision profiles agree exactly, cross-checks the recorded dag
# against the work-stealing simulator, and writes the speedup-profile
# JSON. The key set is pinned: a schema drift fails CI here.
cargo run -q --release --offline -p cilk-bench --bin fig3_qsort_profile > /dev/null
grep -o '"[a-z_]*":' target/cilkview/fig3_real_run.json | sort -u \
    | diff -u scripts/fig3_schema.txt - \
    || { echo "fig3_real_run.json schema drifted from scripts/fig3_schema.txt"; exit 1; }
echo "target/cilkview/fig3_real_run.json schema OK"

echo "== perf: benchmark smoke + unit tests (perf/README.md) =="
# The repo's one benchmark on small inputs: every workload, correctness
# check and schema check on, timing bounds off. table_overhead is the
# paper-E5 (spawn overhead on one worker) smoke.
cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- --quick

echo "== perf: parallel-scaling gates (speedup and TS/TP floors on >= 2 CPUs) =="
# A workload must not run slower on P workers than on one. fib_spawn gates
# the spawn path (the un-stolen join cycle writes only the calling worker's
# own memory; it once ran at 0.56x on 2 workers with no gate to catch it),
# bfs_levels the cilk_for path (64-vertex leaves, each claiming vertices
# with a CAS and pushing them straight into its view of the level's list
# reducer, one access per leaf; a per-access reference count once held it
# at 1.3-1.46x, and a per-leaf `Vec`, whose allocations locked a malloc
# arena both workers shared, at 1.34-1.91x on 2-vCPU hosts against
# 1.90-2.07x without it), svc_closed the service path
# (submit, wake one parked worker, claim, complete; it read 1.0x when every
# push woke every sleeper), at a lower floor: its one-worker baseline
# pipelines two clients on a worker that never parks and so never pays a
# wake-up, while P workers do. Ten 20 s runs on a 2-vCPU host read
# 0.80-1.08x (median 0.95) with the mutex latch and 0.89-1.05x (median
# 1.00) with the polling one: 0.8 is the measured floor of both.
# bfs_levels also gates work efficiency: P workers must beat the serial
# elision itself, speedup / serial_overhead = TS / TP >= 1.0 (it read
# 0.83-0.99 when every edge paid a bus-locked CAS and every find a reducer
# access). A run the benchmark itself flags as disturbed — other load on
# the machine, or the hypervisor taking processors away — only warns: its
# timings are the neighbours', not the program's.
scaling_gate() { # <workload>, then a <metric> <floor> <what a shortfall would mean> triple per gate
    local workload="$1" out speedup overhead metric floor meaning value
    shift
    out="$(cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- \
        --workload "$workload" --seconds 5 --trace 0 2>&1)"
    echo "$out" | grep -E "^warning:|^  $workload " || true
    speedup="$(echo "$out" | awk -v w="$workload" '$1 == w && $2 == "speedup" { print $3 }')"
    overhead="$(echo "$out" | awk -v w="$workload" '$1 == w && $2 == "serial_overhead" { print $3 }')"
    [ -n "$speedup" ] && [ -n "$overhead" ] || { echo "perf printed no $workload speedup"; exit 1; }
    while [ "$#" -ge 3 ]; do
        metric="$1" floor="$2" meaning="$3"
        shift 3
        case "$metric" in
            speedup) value="$speedup" ;;
            ts_over_tp) value="$(awk -v s="$speedup" -v o="$overhead" 'BEGIN { printf "%.4f", s / o }')" ;;
        esac
        if awk -v v="$value" -v f="$floor" 'BEGIN { exit !(v < f) }'; then
            if echo "$out" | grep -qE '^warning: .*(load average|hypervisor took)'; then
                echo "warning: $workload $metric ${value}x < $floor on a disturbed machine; not failing"
            else
                echo "$workload $metric ${value}x < $floor on $(nproc) CPUs: $meaning"
                exit 1
            fi
        fi
    done
}
if [ "$(nproc)" -ge 2 ]; then
    scaling_gate fib_spawn speedup 1.0 "a second worker slowed the spawn path down"
    scaling_gate bfs_levels speedup 1.0 "a second worker slowed the cilk_for path down" \
        ts_over_tp 1.0 "parallel BFS on all workers is slower than its serial elision"
    scaling_gate svc_closed speedup 0.8 "a second worker slowed the service path down"
else
    echo "one CPU: no parallel speedup to gate"
fi

cargo test --release --offline --manifest-path perf/Cargo.toml
cargo run -q --release --offline -p cilk-bench --bin table_overhead

echo "== bench harness compiles =="
cargo build --offline --benches --workspace

echo "ci.sh: all checks passed"
