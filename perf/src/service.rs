//! The two service workloads and their load generators. Both run on a pool
//! with the same admission policy and differ in how they use it: the closed
//! loop blocks `P` clients in `submit`, the open loop fires `submit_async`
//! on an absolute schedule and watches `JobHandle`s. A gain for one path
//! that costs the other shows as a loss on the other workload.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cilk_runtime::{
    AdmissionPolicy, Config, JobHandle, Priority, SubmitError, TenantId, ThreadPool,
};
use cilk_workloads::{fib_cutoff, fib_serial};

use crate::counters::{Counters, Reading};
use crate::rng::Rng;
use crate::spans::{self, now_ns, Recorder};
use crate::spec::Sizes;
use crate::stats;

/// Measurement windows of each generator run. They are short and many so
/// that a run can be reported at the fast end of its windows.
pub const WINDOWS: usize = 50;
/// Which window stands for a run: the upper quartile of the windows' rates
/// and the lower quartile of their latency percentiles. Whatever else runs
/// on the machine only ever slows a window down, so the fast end of a run's
/// windows is the program's and the slow end the neighbours' (the same rule
/// as `forkjoin::TYPICAL`); on a shared VM the quartile window repeats from
/// run to run more closely than the median one.
pub const RATE_PERCENTILE: f64 = 75.0;
pub const TIME_PERCENTILE: f64 = 25.0;
/// A padded job sleeps until this long before its floor and spins the
/// rest: were the overshoot of a sleep left in, "80 % of capacity" would
/// mean 95 %.
const PAD_SPIN_NS: u64 = 100_000;
/// The dispatcher sleeps until this long before a request is due.
const DISPATCH_SPIN_NS: u64 = 120_000;
/// A dispatcher that wakes this long after the time it asked for was frozen
/// by the machine. Above the 3-4 ms this shared VM takes away about twice
/// a second, which the schedule rides out by firing late.
const FREEZE_NS: u64 = 10_000_000;
/// Spans kept per generator thread.
const RECORDER_SPANS: usize = 1 << 20;

const INTERACTIVE: TenantId = TenantId(1);
const BULK: TenantId = TenantId(2);
/// The open loop's requests come from this many independent users, taken
/// in turn. One user's quota (5 × workers in flight) is a few periods deep:
/// when the whole machine stalls for some milliseconds the absolute
/// schedule fires everything overdue at once, and a single tenant would be
/// refused for the machine's hiccup, not for the pool's.
const OPEN_LOOP_TENANTS: u32 = 32;
const FIRST_OPEN_LOOP_TENANT: u32 = 10;
/// Once the schedule has run out, the open loop keeps offering the requests
/// the pool has refused so far until the pool has admitted none for this
/// long, or for `DRAIN_NS` in all; what is left then has failed.
const GIVE_UP_NS: u64 = 2_000_000_000;
const DRAIN_NS: u64 = 60_000_000_000;
/// The pause between two offers of a refused request once the schedule has
/// run out (while it runs, the next due time paces them).
const RETRY_PAUSE: Duration = Duration::from_micros(200);

/// The seeded request stream: which `fib` each request computes, and the
/// serially computed answers they are checked against.
pub struct Jobs {
    ns: Vec<u8>,
    expect: Vec<u64>,
    cutoff: u64,
}

impl Jobs {
    pub fn build(seed: u64, sizes: &Sizes) -> Jobs {
        let mut rng = Rng::new(seed);
        let span = sizes.svc_n_hi - sizes.svc_n_lo + 1;
        Jobs {
            ns: (0..1 << 16)
                .map(|_| (sizes.svc_n_lo + rng.below(span)) as u8)
                .collect(),
            expect: (0..=sizes.svc_n_hi).map(fib_serial).collect(),
            cutoff: sizes.svc_cutoff,
        }
    }

    fn n(&self, i: usize) -> u64 {
        u64::from(self.ns[i % self.ns.len()])
    }

    fn right(&self, n: u64, value: u64) -> bool {
        self.expect[n as usize] == value
    }
}

/// What a job hands back: its answer and, in a traced run, when its
/// closure started and ended (its first and last statement).
#[derive(Clone, Copy)]
struct Done {
    value: u64,
    start_ns: u64,
    end_ns: u64,
}

/// One request's work, padded to `floor_ns` of service time if that is not 0.
/// The clock is read only if the floor or a traced run (`stamp`) needs it.
fn job(n: u64, cutoff: u64, floor_ns: u64, stamp: bool) -> Done {
    let timed = stamp || floor_ns > 0;
    let start_ns = if timed { now_ns() } else { 0 };
    let value = fib_cutoff(black_box(n), cutoff);
    if floor_ns > 0 {
        sleep_then_spin_until(start_ns + floor_ns, PAD_SPIN_NS);
    }
    Done {
        value,
        start_ns,
        end_ns: if timed { now_ns() } else { 0 },
    }
}

/// Waits for `deadline_ns` precisely without burning a processor: sleeps
/// until `spin_ns` before it (a sleep alone overshoots by the timer slack,
/// 50-100 us), then spins the rest.
fn sleep_then_spin_until(deadline_ns: u64, spin_ns: u64) {
    loop {
        let now = now_ns();
        if now >= deadline_ns {
            return;
        }
        if deadline_ns - now > spin_ns {
            std::thread::sleep(Duration::from_nanos(deadline_ns - now - spin_ns));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The policy of both service workloads, scaled by the pool's width.
pub fn service_pool(workers: usize) -> ThreadPool {
    let policy = AdmissionPolicy::new()
        .shards(4)
        .shard_capacity(128)
        .fair_share(4 * workers as u64)
        .burst(workers as u64)
        .handoff_batch(4);
    ThreadPool::with_config(Config::new().num_workers(workers).admission(policy))
        .expect("worker threads start")
}

/// Everything one run of a load generator observed.
#[derive(Default)]
pub struct LoopRun {
    /// Verified completions per second, one entry per measurement window.
    pub window_goodput: Vec<f64>,
    /// Latency of every request that completed inside a window, and the
    /// window (0-based) each belongs to.
    pub latencies_ns: Vec<u64>,
    pub latency_window: Vec<u16>,
    pub attempted: u64,
    /// Open loop only: `submit_async` calls the pool refused. The request is
    /// offered again, so a refusal costs latency and fails nothing.
    pub refused: u64,
    /// Requests the pool never admitted.
    pub rejected: u64,
    pub stalled: u64,
    pub cancelled: u64,
    pub wrong: u64,
    /// Traced run only: the spans, and the durations of three of them.
    pub recorders: Vec<Recorder>,
    pub queue_wait_ns: Vec<u64>,
    pub run_ns: Vec<u64>,
    pub wake_ns: Vec<u64>,
    /// Open loop only: how late each request was fired, and the requests
    /// in flight at the end of each window.
    pub late_ns: Vec<u64>,
    /// Requests dropped because they fell due while the machine had the
    /// dispatcher frozen (see `FREEZE_NS`); not attempted, not failed.
    pub skipped: u64,
    pub in_flight_at_window_end: Vec<usize>,
    pub window_s: f64,
    /// Threads the generator spawned.
    pub generator_threads: usize,
}

impl LoopRun {
    pub fn failed(&self) -> u64 {
        self.rejected + self.stalled + self.cancelled + self.wrong
    }

    /// Verified completions per second of the [`RATE_PERCENTILE`] window.
    pub fn goodput(&self) -> f64 {
        stats::percentile_f64(&self.window_goodput, RATE_PERCENTILE)
    }

    /// The `p`th percentile latency of each window's requests (an exact
    /// order statistic of that window's samples), at the
    /// [`TIME_PERCENTILE`] window.
    pub fn latency_ns(&self, p: f64) -> f64 {
        let mut by_window = vec![Vec::new(); self.window_goodput.len()];
        for (&ns, &window) in self.latencies_ns.iter().zip(&self.latency_window) {
            by_window[usize::from(window)].push(ns);
        }
        let per_window: Vec<f64> = by_window
            .iter_mut()
            .filter(|samples| !samples.is_empty())
            .map(|samples| {
                samples.sort_unstable();
                stats::percentile(samples, p) as f64
            })
            .collect();
        stats::percentile_f64(&per_window, TIME_PERCENTILE)
    }

    fn absorb(&mut self, other: LoopRun) {
        self.latencies_ns.extend(other.latencies_ns);
        self.latency_window.extend(other.latency_window);
        self.attempted += other.attempted;
        self.refused += other.refused;
        self.rejected += other.rejected;
        self.stalled += other.stalled;
        self.cancelled += other.cancelled;
        self.wrong += other.wrong;
        self.recorders.extend(other.recorders);
        self.queue_wait_ns.extend(other.queue_wait_ns);
        self.run_ns.extend(other.run_ns);
        self.wake_ns.extend(other.wake_ns);
    }

    fn note_error(&mut self, error: &SubmitError) {
        match error {
            SubmitError::Overloaded(_) => self.rejected += 1,
            SubmitError::Stalled(_) => self.stalled += 1,
        }
    }
}

/// Lengths of the phases of one generator run.
#[derive(Clone, Copy)]
pub struct Phases {
    pub warm_up: Duration,
    pub window: Duration,
    pub windows: usize,
}

impl Phases {
    /// Nanosecond offsets, from the start, of the beginning of the first
    /// window and of the end of every window.
    fn boundaries_ns(&self) -> Vec<u64> {
        (0..=self.windows as u32)
            .map(|k| (self.warm_up + self.window * k).as_nanos() as u64)
            .collect()
    }
}

/// Clients of the interactive and of the bulk tenant: half of `P` each,
/// the odd one to the interactive side, one each at least.
pub fn closed_loop_clients(workers: usize) -> (usize, usize) {
    (workers.div_ceil(2).max(1), (workers / 2).max(1))
}

/// The closed loop: every client is a thread inside a blocking `submit`,
/// with no think time, so runnable threads stay near `P`. `floor_ns` pads
/// each job (0: no padding).
pub fn run_closed(
    pool: &ThreadPool,
    jobs: &Jobs,
    (interactive, bulk): (usize, usize),
    floor_ns: u64,
    phases: Phases,
    trace: bool,
) -> LoopRun {
    let clients = interactive + bulk;
    // 0 while warming up, k inside window k, past the last window: stop.
    let phase = AtomicUsize::new(0);
    let mut marks_ns = Vec::with_capacity(phases.windows + 1);
    let mut per_client: Vec<(LoopRun, Vec<u64>)> = Vec::with_capacity(clients);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let phase = &phase;
                let (tenant, priority) = if c < interactive {
                    (INTERACTIVE, Priority::High)
                } else {
                    (BULK, Priority::Low)
                };
                scope.spawn(move || {
                    let submission = pool.tenant(tenant).priority(priority);
                    let mut run = LoopRun::default();
                    let mut completed_in = vec![0u64; phases.windows];
                    run.latencies_ns.reserve(1 << 20);
                    run.latency_window.reserve(1 << 20);
                    let mut recorder =
                        trace.then(|| Recorder::with_capacity(c as u32, RECORDER_SPANS));
                    let cutoff = jobs.cutoff;
                    let mut i = c * (jobs.ns.len() / clients);
                    while phase.load(Ordering::Relaxed) <= phases.windows {
                        i += 1;
                        let n = jobs.n(i);
                        let t0 = now_ns();
                        let outcome = submission.submit(move || job(n, cutoff, floor_ns, trace));
                        let t_end = now_ns();
                        let window = phase.load(Ordering::Relaxed);
                        if window == 0 || window > phases.windows {
                            continue;
                        }
                        run.attempted += 1;
                        match outcome {
                            Ok(done) if jobs.right(n, done.value) => {
                                completed_in[window - 1] += 1;
                                run.latencies_ns.push(t_end - t0);
                                run.latency_window.push(window as u16 - 1);
                                if let Some(recorder) = recorder.as_mut() {
                                    run.queue_wait_ns.push(done.start_ns.saturating_sub(t0));
                                    run.run_ns.push(done.end_ns - done.start_ns);
                                    run.wake_ns.push(t_end.saturating_sub(done.end_ns));
                                    recorder.record(
                                        ((c as u32) << 24) | (i as u32 & 0xFF_FFFF),
                                        &[
                                            ("request", t0, t_end),
                                            ("submit", t0, t_end),
                                            ("queue_wait", t0, done.start_ns),
                                            ("run", done.start_ns, done.end_ns),
                                            ("complete_to_wake", done.end_ns, t_end),
                                        ],
                                    );
                                }
                            }
                            Ok(_) => run.wrong += 1,
                            Err(error) => run.note_error(&error),
                        }
                    }
                    run.recorders.extend(recorder);
                    (run, completed_in)
                })
            })
            .collect();
        // This thread only sleeps: it flips the phase on an absolute
        // schedule and notes when it really did.
        let start = Instant::now();
        for (k, boundary) in phases.boundaries_ns().into_iter().enumerate() {
            std::thread::sleep(Duration::from_nanos(boundary).saturating_sub(start.elapsed()));
            phase.store(k + 1, Ordering::Relaxed);
            marks_ns.push(now_ns());
        }
        per_client.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread")),
        );
    });
    let mut total = LoopRun {
        window_s: phases.window.as_secs_f64(),
        generator_threads: clients,
        ..LoopRun::default()
    };
    for k in 0..phases.windows {
        let completed: u64 = per_client.iter().map(|(_, counts)| counts[k]).sum();
        total
            .window_goodput
            .push(completed as f64 / ((marks_ns[k + 1] - marks_ns[k]) as f64 / 1e9));
    }
    for (run, _) in per_client {
        total.absorb(run);
    }
    total
}

/// When each request of an open loop is due: fixed by the start, the
/// period and a seeded jitter of up to half a period — never by when
/// earlier requests were really sent, so a stalled generator cannot thin
/// the load it offers.
pub struct Schedule {
    start_ns: u64,
    period_ns: f64,
    jitter_ns: Vec<u32>,
}

impl Schedule {
    pub fn new(start_ns: u64, period_ns: f64, requests: usize, seed: u64) -> Schedule {
        let mut rng = Rng::new(seed ^ 0x5EED_0FA2_217A_15D5);
        let jitter_ns = (0..requests)
            .map(|_| (rng.unit() * period_ns / 2.0) as u32)
            .collect();
        Schedule {
            start_ns,
            period_ns,
            jitter_ns,
        }
    }

    pub fn len(&self) -> usize {
        self.jitter_ns.len()
    }

    pub fn due_ns(&self, i: usize) -> u64 {
        self.start_ns + (i as f64 * self.period_ns) as u64 + u64::from(self.jitter_ns[i])
    }
}

/// A request of the open loop that is due and not admitted yet.
#[derive(Clone, Copy)]
struct Offer {
    id: usize,
    n: u64,
    due_ns: u64,
    /// Due inside a measurement window.
    measured: bool,
}

struct InFlight {
    id: usize,
    n: u64,
    due_ns: u64,
    call_ns: u64,
    returned_ns: u64,
    handle: JobHandle<Done>,
}

/// The open loop. This thread is the dispatcher: it fires each request at
/// its due time and hands the `JobHandle` to a second thread, which waits on
/// the handles in the order they were issued. Latency runs from the due
/// time to the moment `wait` returns on that thread, so it includes the
/// handle's completion-to-wake path. Neither thread spins for long: with the
/// workers' padding the whole workload needs under one processor, so it
/// measures the pool and not the competition of a busy generator with the
/// workers for two processors. (A request that finishes before an earlier
/// one is seen only after it, as by any client that reads replies in order;
/// with a fixed service time that is rare.) A request the pool refuses is
/// offered again until it is admitted, so no request fails because the
/// machine was busy; its latency shows how long that took.
pub fn run_open(
    pool: &ThreadPool,
    jobs: &Jobs,
    phases: Phases,
    period_ns: f64,
    floor_ns: u64,
    seed: u64,
    trace: bool,
) -> LoopRun {
    let boundaries = phases.boundaries_ns();
    let total_ns = *boundaries.last().expect("at least one boundary");
    let requests = (total_ns as f64 / period_ns) as usize;
    let cutoff = jobs.cutoff;
    let schedule = Schedule::new(now_ns() + 1_000_000, period_ns, requests, seed);
    let start_ns = schedule.start_ns;
    // The window (1-based) an instant falls in; 0 outside every window.
    let window_of = |t_ns: u64| {
        let offset = t_ns.saturating_sub(start_ns);
        match boundaries.iter().position(|&b| offset < b) {
            Some(0) | None => 0,
            Some(k) => k,
        }
    };
    let completed = AtomicUsize::new(0);
    let (sender, receiver) = std::sync::mpsc::channel::<InFlight>();

    let mut run = LoopRun {
        window_s: phases.window.as_secs_f64(),
        generator_threads: 1,
        ..LoopRun::default()
    };
    run.late_ns.reserve(requests);
    let mut waited = std::thread::scope(|scope| {
        let waiter = scope.spawn(|| {
            let mut run = LoopRun::default();
            run.latencies_ns.reserve(requests);
            run.latency_window.reserve(requests);
            // Per window: completions, and when the first and the last was seen.
            let mut completed_in = vec![(0u64, 0u64, 0u64); phases.windows];
            let mut recorder = trace.then(|| Recorder::with_capacity(0, RECORDER_SPANS));
            for request in receiver {
                let outcome = request.handle.wait();
                let seen_ns = now_ns();
                completed.fetch_add(1, Ordering::Relaxed);
                let due_in = window_of(request.due_ns);
                let measured = due_in != 0;
                // The answer is checked after the clock has stopped.
                match outcome {
                    Some(done) if jobs.right(request.n, done.value) => {
                        if let Some(window) = window_of(seen_ns).checked_sub(1) {
                            let (count, first_ns, last_ns) = &mut completed_in[window];
                            if *count == 0 {
                                *first_ns = seen_ns;
                            }
                            *count += 1;
                            *last_ns = seen_ns;
                        }
                        if measured {
                            run.latencies_ns.push(seen_ns - request.due_ns);
                            run.latency_window.push(due_in as u16 - 1);
                        }
                        if let (true, Some(recorder)) = (measured, recorder.as_mut()) {
                            run.queue_wait_ns
                                .push(done.start_ns.saturating_sub(request.call_ns));
                            run.run_ns.push(done.end_ns - done.start_ns);
                            run.wake_ns.push(seen_ns.saturating_sub(done.end_ns));
                            recorder.record(
                                request.id as u32,
                                &[
                                    ("request", request.due_ns, seen_ns),
                                    ("submit", request.call_ns, request.returned_ns),
                                    ("queue_wait", request.call_ns, done.start_ns),
                                    ("run", done.start_ns, done.end_ns),
                                    ("handle.complete_to_wake", done.end_ns, seen_ns),
                                ],
                            );
                        }
                    }
                    Some(_) => run.wrong += u64::from(measured),
                    None => run.cancelled += u64::from(measured),
                }
            }
            // The rate between a window's first and last completion:
            // measured time under measured work, not the nominal length.
            run.window_goodput = completed_in
                .iter()
                .map(|&(count, first_ns, last_ns)| {
                    count.saturating_sub(1) as f64 / ((last_ns - first_ns).max(1) as f64 / 1e9)
                })
                .collect();
            run.recorders.extend(recorder);
            run
        });

        let mut submitted = 0;
        let mut next_boundary = 1;
        let mut frozen_until_ns = 0;
        // Requests that are due and not admitted yet, oldest first. The pool
        // refuses a tenant over its quota and a full shard, which at 80 % of
        // capacity takes the machine holding the workers up for a tenth of a
        // second. The generator then does what a client does: it offers the
        // request again, ahead of everything newer, and the request's
        // latency still runs from its due time. A refusal therefore shows
        // in the latencies and in `refused`, and fails nothing.
        let mut offers: VecDeque<Offer> = VecDeque::new();
        // Offers the oldest request; true if it left the queue.
        let offer_oldest =
            |offers: &mut VecDeque<Offer>, run: &mut LoopRun, submitted: &mut usize| {
                let Some(&offer) = offers.front() else {
                    return false;
                };
                let Offer { id, n, due_ns, .. } = offer;
                let tenant = TenantId(FIRST_OPEN_LOOP_TENANT + id as u32 % OPEN_LOOP_TENANTS);
                let call_ns = now_ns();
                match pool.submit_async(tenant, move || job(n, cutoff, floor_ns, true)) {
                    Ok(handle) => {
                        let returned_ns = now_ns();
                        *submitted += 1;
                        let request = InFlight {
                            id,
                            n,
                            due_ns,
                            call_ns,
                            returned_ns,
                            handle,
                        };
                        sender
                            .send(request)
                            .expect("the waiting thread outlives the schedule");
                    }
                    Err(SubmitError::Overloaded(_)) => {
                        run.refused += u64::from(offer.measured);
                        return false;
                    }
                    Err(SubmitError::Stalled(_)) => run.stalled += u64::from(offer.measured),
                }
                offers.pop_front();
                true
            };
        for id in 0..schedule.len() {
            let (due_ns, n) = (schedule.due_ns(id), jobs.n(id));
            let began_waiting_ns = now_ns();
            sleep_then_spin_until(due_ns, DISPATCH_SPIN_NS);
            let woke_ns = now_ns();
            if began_waiting_ns <= due_ns && woke_ns > due_ns + FREEZE_NS {
                // This thread asked to wake at `due_ns` and woke much later:
                // the machine froze the generator (a paused VM, a stolen
                // processor), not the pool. Time spent inside `submit_async`
                // never counts here; that would be the pool's doing.
                frozen_until_ns = woke_ns;
            }
            if due_ns + FREEZE_NS < frozen_until_ns {
                // Due while the generator was frozen. Firing the whole
                // freeze's worth at once would test the admission quota
                // against the hypervisor; the requests are dropped and
                // counted as `skipped`.
                run.skipped += u64::from(window_of(due_ns) != 0);
                continue;
            }
            while next_boundary < boundaries.len() && due_ns >= start_ns + boundaries[next_boundary]
            {
                run.in_flight_at_window_end
                    .push(offers.len() + submitted - completed.load(Ordering::Relaxed));
                next_boundary += 1;
            }
            let measured = window_of(due_ns) != 0;
            if measured {
                run.attempted += 1;
                run.late_ns.push(woke_ns - due_ns);
            }
            offers.push_back(Offer {
                id,
                n,
                due_ns,
                measured,
            });
            while offer_oldest(&mut offers, &mut run, &mut submitted) {}
        }
        // The schedule has run out; what the pool still refuses is offered
        // until it is admitted, or given up as failed.
        let drain_began_ns = now_ns();
        let mut admitted_ns = drain_began_ns;
        while !offers.is_empty() {
            let now = now_ns();
            if offer_oldest(&mut offers, &mut run, &mut submitted) {
                admitted_ns = now;
            } else if now > admitted_ns + GIVE_UP_NS || now > drain_began_ns + DRAIN_NS {
                break;
            } else {
                std::thread::sleep(RETRY_PAUSE);
            }
        }
        run.rejected += offers.iter().filter(|offer| offer.measured).count() as u64;
        run.in_flight_at_window_end
            .push(offers.len() + submitted - completed.load(Ordering::Relaxed));
        // Closing the channel lets the other thread wait out what is left.
        drop(sender);
        waiter.join().expect("waiting thread")
    });
    run.window_goodput = std::mem::take(&mut waited.window_goodput);
    run.absorb(waited);
    run
}

/// Requests in flight at the end of the last window minus at the end of the
/// first, per second: zero while the pool keeps up with the schedule.
pub fn backlog_growth(run: &LoopRun) -> f64 {
    match (
        run.in_flight_at_window_end.first(),
        run.in_flight_at_window_end.last(),
    ) {
        (Some(&first), Some(&last)) if run.in_flight_at_window_end.len() > 1 => {
            (last as f64 - first as f64)
                / (run.window_s * (run.in_flight_at_window_end.len() - 1) as f64)
        }
        _ => 0.0,
    }
}

/// At drain the admission books must balance: every admitted job completed
/// or was cancelled, nothing holds a quota slot, nothing is queued. The
/// counters settle a moment after the last waiter is released (a worker
/// wakes its client, then closes the books, and a busy machine may take the
/// processor away in between), so wait for them: seconds, on a bad day.
pub fn ledger_balanced(pool: &ThreadPool) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let report = pool.admission_report();
        let sum = |f: fn(&cilk_runtime::TenantStats) -> u64| -> u64 {
            report.tenants.iter().map(|(_, s)| f(s)).sum()
        };
        let (admitted, completed, cancelled, in_flight) = (
            sum(|s| s.admitted),
            sum(|s| s.completed),
            sum(|s| s.cancelled),
            sum(|s| s.in_flight),
        );
        let queued = pool.queued_jobs();
        if admitted == completed + cancelled && in_flight == 0 && queued == 0 {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "admission ledger: admitted {admitted} != completed {completed} + cancelled \
                 {cancelled}, in flight {in_flight}, queued {queued}"
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Closed,
    Open,
}

/// A service workload ready to measure: jobs, both pools, warmed up.
pub struct Bench {
    pub kind: Kind,
    jobs: Jobs,
    pool_1: ThreadPool,
    pool_p: ThreadPool,
    /// The closed loop has as many clients on one worker as on `P`.
    clients: (usize, usize),
    seed: u64,
    floor_ns: u64,
    load: f64,
}

/// The run on `P` workers, the run on one worker, and the serial rate.
pub struct Measured {
    pub main: LoopRun,
    pub one_worker: LoopRun,
    /// Plain serial calls of the same jobs per second (`1/TS`).
    pub serial_jobs_s: f64,
    pub serial_calls: u64,
    /// Counter deltas of the `P`-worker pool over the main run.
    pub counters: Counters,
    /// Which percentile `latency_tail_us` is on this workload.
    pub tail_percentile: f64,
}

impl Bench {
    pub fn set_up(workload: &str, seed: u64, sizes: &Sizes, workers: usize) -> Option<Bench> {
        let kind = match workload {
            "svc_closed" => Kind::Closed,
            "svc_open" => Kind::Open,
            _ => return None,
        };
        let mut bench = Bench {
            kind,
            jobs: Jobs::build(seed, sizes),
            pool_1: service_pool(1),
            pool_p: service_pool(workers),
            clients: closed_loop_clients(workers),
            seed,
            floor_ns: sizes.open_floor_us * 1000,
            load: sizes.open_load,
        };
        let warm = Phases {
            warm_up: Duration::from_millis(50),
            window: Duration::from_millis(100),
            windows: 1,
        };
        // Nothing of the warm-up is measured or judged: a request that fails
        // here says the machine was busy just now, and one that fails for a
        // reason of the program's fails again in the measured run.
        bench.run_one_worker(warm);
        bench.run_main(warm, false);
        Some(bench)
    }

    /// The workload's own load on `P` workers.
    fn run_main(&mut self, phases: Phases, trace: bool) -> LoopRun {
        match self.kind {
            Kind::Closed => run_closed(&self.pool_p, &self.jobs, self.clients, 0, phases, trace),
            Kind::Open => run_open(
                &self.pool_p,
                &self.jobs,
                phases,
                self.period_ns(),
                self.floor_ns,
                self.seed,
                trace,
            ),
        }
    }

    /// The same jobs on one worker (`T1`), always as a closed loop with the
    /// closed workload's clients: it slows down with the worker instead of
    /// failing, where an open loop at 80 % of one worker's capacity has no
    /// headroom for the worker losing its processor for a few slices. The
    /// open workload's jobs keep their padding.
    fn run_one_worker(&mut self, phases: Phases) -> LoopRun {
        let floor_ns = match self.kind {
            Kind::Closed => 0,
            Kind::Open => self.floor_ns,
        };
        run_closed(
            &self.pool_1,
            &self.jobs,
            self.clients,
            floor_ns,
            phases,
            false,
        )
    }

    /// The open loop's period on `P` workers, in nanoseconds.
    pub fn period_ns(&self) -> f64 {
        self.floor_ns as f64 / (self.load * self.pool_p.num_workers() as f64)
    }

    /// Plain serial calls of the request stream for `duration`, in
    /// [`WINDOWS`] slices: the `TS` of a service workload, per job, as the
    /// rate of the [`RATE_PERCENTILE`] slice. Also the calls made and how
    /// many gave a wrong answer.
    fn serial(&self, duration: Duration) -> (f64, u64, u64) {
        let slice = duration / WINDOWS as u32;
        let mut rates = Vec::with_capacity(WINDOWS);
        let (mut calls, mut wrong) = (0u64, 0u64);
        for _ in 0..WINDOWS {
            let (start, calls_before) = (Instant::now(), calls);
            while calls == calls_before || start.elapsed() < slice {
                for _ in 0..4 {
                    let n = self.jobs.n(calls as usize);
                    let value = if self.kind == Kind::Open {
                        let began = now_ns();
                        let value = fib_serial(black_box(n));
                        sleep_then_spin_until(began + self.floor_ns, PAD_SPIN_NS);
                        value
                    } else {
                        fib_serial(black_box(n))
                    };
                    wrong += u64::from(!self.jobs.right(n, value));
                    calls += 1;
                }
            }
            rates.push((calls - calls_before) as f64 / start.elapsed().as_secs_f64());
        }
        (stats::percentile_f64(&rates, RATE_PERCENTILE), calls, wrong)
    }

    /// Over half of `duration` on `P` workers in [`WINDOWS`] windows, over a
    /// quarter on one worker, the rest on plain serial calls and warm-up.
    pub fn measure(&mut self, duration: Duration, trace: bool) -> Measured {
        let main_phases = Phases {
            warm_up: duration.mul_f64(0.04),
            window: duration.mul_f64(0.55 / WINDOWS as f64),
            windows: WINDOWS,
        };
        let one_phases = Phases {
            warm_up: duration.mul_f64(0.03),
            window: duration.mul_f64(0.28 / WINDOWS as f64),
            windows: WINDOWS,
        };
        let before = Reading::of(&self.pool_p);
        let main = self.run_main(main_phases, trace);
        let mut counters = Counters::default();
        counters.add_since(&before, &self.pool_p);
        let one_worker = self.run_one_worker(one_phases);
        let (serial_jobs_s, serial_calls, serial_wrong) = self.serial(duration.mul_f64(0.06));
        let mut measured = Measured {
            main,
            one_worker,
            serial_jobs_s,
            serial_calls,
            counters,
            tail_percentile: self.tail_percentile(),
        };
        measured.main.wrong += serial_wrong;
        measured
    }

    /// The highest percentile that repeats within a tenth from run to run
    /// on the reference machine. A closed loop throttles itself through a
    /// machine hiccup and its p99 holds; an open loop at 80 % load needs
    /// four times a hiccup's length to drain what piled up, so on a shared
    /// two-processor VM that loses a few milliseconds every second its p99
    /// measures the hypervisor. p99 and p99.9 stay per-layer metrics.
    pub fn tail_percentile(&self) -> f64 {
        match self.kind {
            Kind::Closed => 99.0,
            Kind::Open => 90.0,
        }
    }

    pub fn pools(&self) -> [&ThreadPool; 2] {
        [&self.pool_1, &self.pool_p]
    }

    pub fn tree(&self) -> spans::Tree {
        match self.kind {
            Kind::Closed => spans::REQUEST_BLOCKING,
            Kind::Open => spans::REQUEST_ASYNC,
        }
    }
}

impl Measured {
    pub fn attempted(&self) -> u64 {
        self.main.attempted + self.one_worker.attempted + self.serial_calls
    }

    pub fn failed(&self) -> u64 {
        self.main.failed() + self.one_worker.failed()
    }
}

/// The end-to-end numbers of a service run, in `END_TO_END` order bar
/// `setup_s`: goodput, p50, tail, speedup, serial overhead.
pub fn end_to_end(m: &Measured) -> [f64; 5] {
    let (goodput, goodput_one) = (m.main.goodput(), m.one_worker.goodput());
    [
        goodput,
        m.main.latency_ns(50.0) / 1e3,
        m.main.latency_ns(m.tail_percentile) / 1e3,
        goodput / goodput_one,
        m.serial_jobs_s / goodput_one,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_is_absolute() {
        let period = 208_333.333_333;
        let s = Schedule::new(1_000, period, 2_000_000, 42);
        // Request i is due within half a period after start + i × period,
        // however many requests came before and whenever they were sent:
        // no rounding error accumulates over two million requests.
        for i in [0usize, 1, 2, 999, 1_000_000, 1_999_999] {
            let nominal = 1_000 + (i as f64 * period) as u64;
            let due = s.due_ns(i);
            assert!(
                due >= nominal && due < nominal + (period / 2.0) as u64 + 1,
                "request {i}"
            );
        }
        let again = Schedule::new(1_000, period, 2_000_000, 42);
        assert!((0..2000).all(|i| s.due_ns(i) == again.due_ns(i)), "seeded");
        let other = Schedule::new(1_000, period, 2000, 43);
        assert!((0..2000).any(|i| s.due_ns(i) != other.due_ns(i)));
    }

    #[test]
    fn same_seed_same_jobs() {
        let sizes = Sizes::quick();
        let (a, b, c) = (
            Jobs::build(5, &sizes),
            Jobs::build(5, &sizes),
            Jobs::build(6, &sizes),
        );
        assert_eq!(a.ns, b.ns);
        assert_ne!(a.ns, c.ns);
        assert!(a.ns.iter().all(|&n| (14..=18).contains(&n)));
        assert!(a.right(10, 55) && !a.right(10, 56));
    }

    #[test]
    fn clients_split_between_the_tenants() {
        assert_eq!(closed_loop_clients(1), (1, 1));
        assert_eq!(closed_loop_clients(2), (1, 1));
        assert_eq!(closed_loop_clients(5), (3, 2));
        assert_eq!(closed_loop_clients(8), (4, 4));
    }

    #[test]
    fn the_open_loop_offers_a_refused_request_again() {
        // Twice what one worker can serve: the tenants run over their
        // quotas within a tenth of a second, and every request still
        // completes, late.
        let jobs = Jobs::build(4, &Sizes::quick());
        let pool = service_pool(1);
        let phases = Phases {
            warm_up: Duration::ZERO,
            window: Duration::from_millis(40),
            windows: 10,
        };
        let run = run_open(&pool, &jobs, phases, 250_000.0, 500_000, 4, false);
        assert!(run.refused > 0, "nothing was refused");
        assert_eq!(run.failed(), 0);
        assert_eq!(run.latencies_ns.len() as u64, run.attempted);
        assert!(backlog_growth(&run) > 0.0);
        ledger_balanced(&pool).expect("books balance");
    }

    #[test]
    fn both_loops_run_clean_and_balance_the_ledger() {
        let sizes = Sizes::quick();
        for workload in ["svc_closed", "svc_open"] {
            let mut bench = Bench::set_up(workload, 3, &sizes, 2).expect("service workload");
            let m = bench.measure(Duration::from_millis(600), true);
            assert_eq!(m.failed(), 0, "{workload}");
            assert!(m.main.latencies_ns.len() > 50, "{workload}");
            assert_eq!(m.main.window_goodput.len(), WINDOWS);
            for pool in bench.pools() {
                ledger_balanced(pool).expect(workload);
            }
            let handle_spans = spans::any_named(&m.main.recorders, "handle.");
            assert_eq!(handle_spans, bench.kind == Kind::Open, "{workload}");
            assert!(spans::shares(&m.main.recorders, bench.tree()).is_some());
            assert!(
                end_to_end(&m).iter().all(|v| v.is_finite() && *v > 0.0),
                "{workload}"
            );
        }
    }
}
