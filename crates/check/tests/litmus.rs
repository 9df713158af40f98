//! Classic memory-model litmus tests, run directly against the checked
//! shim (no `--cfg cilk_check` needed): they calibrate the checker itself.
//!
//! Each "fails" test asserts the checker *finds* the well-known weak-memory
//! counterexample; each "passes" test asserts correctly-synchronized code
//! survives exhaustive exploration — i.e. the model has no false positives
//! on the idioms the deque relies on.
//!
//! Note: model state must be created *inside* the model closure so every
//! execution starts from the constructor values.

use std::sync::Arc;

use cilk_check::sync::atomic::{fence, AtomicUsize, Ordering};
use cilk_check::{check, model, thread, Config, Mode};

/// Two increment-by-CAS threads: the final count is exactly 2 in every
/// interleaving (RMWs always read the newest value).
#[test]
fn cas_counter_is_exact() {
    let report = model("cas_counter_is_exact", || {
        let n = Arc::new(AtomicUsize::new(0));
        let hs: Vec<_> = (0..2)
            .map(|_| {
                let n = Arc::clone(&n);
                thread::spawn(move || loop {
                    let cur = n.load(Ordering::Relaxed);
                    if n.compare_exchange(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed).is_ok()
                    {
                        break;
                    }
                })
            })
            .collect();
        for h in hs {
            h.join();
        }
        assert_eq!(n.load(Ordering::Relaxed), 2);
    });
    assert!(report.executions > 1, "exploration should cover several interleavings");
}

fn message_passing(store_ord: Ordering, load_ord: Ordering) -> impl Fn() {
    move || {
        let data = Arc::new(AtomicUsize::new(0));
        let flag = Arc::new(AtomicUsize::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let w = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(1, store_ord);
        });
        let (d3, f3) = (Arc::clone(&data), Arc::clone(&flag));
        let r = thread::spawn(move || {
            if f3.load(load_ord) == 1 {
                assert_eq!(d3.load(Ordering::Relaxed), 42, "MP: stale data behind flag");
            }
        });
        w.join();
        r.join();
    }
}

/// Release/acquire message passing is correct: exhaustive exploration finds
/// no counterexample (no false positives).
#[test]
fn mp_release_acquire_passes() {
    model(
        "mp_release_acquire_passes",
        message_passing(Ordering::Release, Ordering::Acquire),
    );
}

/// Fully relaxed message passing is broken, and the checker proves it:
/// some interleaving reads the flag but stale data.
#[test]
fn mp_relaxed_fails() {
    let report = check(
        "mp_relaxed_fails",
        &Config::default(),
        Mode::Exhaustive,
        message_passing(Ordering::Relaxed, Ordering::Relaxed),
    );
    let failure = report.failure.expect("checker must find the relaxed-MP violation");
    assert!(
        failure.message.contains("stale data behind flag"),
        "unexpected failure: {}",
        failure.message
    );
}

fn store_buffering(with_fences: bool) -> impl Fn() {
    move || {
        let x = Arc::new(AtomicUsize::new(0));
        let y = Arc::new(AtomicUsize::new(0));
        let side = |a: Arc<AtomicUsize>, b: Arc<AtomicUsize>| {
            thread::spawn(move || {
                a.store(1, Ordering::Relaxed);
                if with_fences {
                    fence(Ordering::SeqCst);
                }
                b.load(Ordering::Relaxed)
            })
        };
        let h1 = side(Arc::clone(&x), Arc::clone(&y));
        let h2 = side(Arc::clone(&y), Arc::clone(&x));
        let (r1, r2) = (h1.join(), h2.join());
        assert!(!(r1 == 0 && r2 == 0), "SB: both threads read 0");
    }
}

/// Store buffering with SeqCst fences between the store and the load is
/// forbidden: the fences join the global SC clock both ways, so at least
/// one load observes the other store. This is exactly the idiom `pop`
/// vs `steal` relies on.
#[test]
fn sb_with_seqcst_fences_passes() {
    model("sb_with_seqcst_fences_passes", store_buffering(true));
}

/// Store buffering without fences exhibits r1 == r2 == 0.
#[test]
fn sb_relaxed_fails() {
    let report = check(
        "sb_relaxed_fails",
        &Config::default(),
        Mode::Exhaustive,
        store_buffering(false),
    );
    let failure = report.failure.expect("checker must find the SB weak outcome");
    assert!(failure.message.contains("both threads read 0"), "{}", failure.message);
}

// ---------------------------------------------------------------------------
// Litmus tests for the fence-elided deque orderings (ISSUE 9): the batched
// publication idiom and the asymmetry of the one fence the protocol keeps.
// ---------------------------------------------------------------------------

fn batched_publication(publish_ord: Ordering) -> impl Fn() {
    move || {
        // The elided push idiom: several plain slot writes, then ONE
        // publication store of `bottom` covering the whole batch.
        let slot_a = Arc::new(AtomicUsize::new(0));
        let slot_b = Arc::new(AtomicUsize::new(0));
        let bottom = Arc::new(AtomicUsize::new(0));
        let (sa, sb, bo) = (Arc::clone(&slot_a), Arc::clone(&slot_b), Arc::clone(&bottom));
        let owner = thread::spawn(move || {
            sa.store(11, Ordering::Relaxed); // private push 1
            sb.store(22, Ordering::Relaxed); // private push 2
            bo.store(2, publish_ord); // one batch publication
        });
        let (sa, sb, bo) = (Arc::clone(&slot_a), Arc::clone(&slot_b), Arc::clone(&bottom));
        let thief = thread::spawn(move || {
            if bo.load(Ordering::Acquire) == 2 {
                assert_eq!(sa.load(Ordering::Relaxed), 11, "batch: stale slot behind bottom");
                assert_eq!(sb.load(Ordering::Relaxed), 22, "batch: stale slot behind bottom");
            }
        });
        owner.join();
        thief.join();
    }
}

/// One release store publishes an entire batch of prior plain writes: a
/// thief acquiring `bottom` sees every slot in the batch. This is why the
/// elided push needs no per-element synchronization.
#[test]
fn batched_publication_release_passes() {
    model(
        "batched_publication_release_passes",
        batched_publication(Ordering::Release),
    );
}

/// Demoting the batch publication to Relaxed breaks it — the mutation
/// suite plants exactly this bug into the shadow deque
/// (`ElidedPublishRelaxed`) and the checker finds the stale slot here at
/// litmus granularity too.
#[test]
fn batched_publication_relaxed_fails() {
    let report = check(
        "batched_publication_relaxed_fails",
        &Config::default(),
        Mode::Exhaustive,
        batched_publication(Ordering::Relaxed),
    );
    let failure = report.failure.expect("checker must find the relaxed-publication violation");
    assert!(
        failure.message.contains("stale slot behind bottom"),
        "unexpected failure: {}",
        failure.message
    );
}

/// Store buffering with a fence on only ONE side still exhibits the weak
/// outcome: the thief's steal-side fence alone cannot save a fenceless
/// boundary pop. This is why [`Protocol::FenceElided`] keeps the owner's
/// SeqCst fence in the boundary window even though thieves always fence —
/// eliding it is only sound while the pop stays inside the private window,
/// where no thief races at all.
#[test]
fn sb_single_fence_fails() {
    let report = check(
        "sb_single_fence_fails",
        &Config::default(),
        Mode::Exhaustive,
        || {
            let x = Arc::new(AtomicUsize::new(0));
            let y = Arc::new(AtomicUsize::new(0));
            // Owner side: fence elided (the planted bug).
            let (a, b) = (Arc::clone(&x), Arc::clone(&y));
            let owner = thread::spawn(move || {
                a.store(1, Ordering::Relaxed);
                b.load(Ordering::Relaxed)
            });
            // Thief side: fences, as `steal` always does.
            let (a, b) = (Arc::clone(&y), Arc::clone(&x));
            let thief = thread::spawn(move || {
                a.store(1, Ordering::Relaxed);
                fence(Ordering::SeqCst);
                b.load(Ordering::Relaxed)
            });
            let (r1, r2) = (owner.join(), thief.join());
            assert!(!(r1 == 0 && r2 == 0), "SB: both threads read 0");
        },
    );
    let failure = report.failure.expect("one-sided fencing must not forbid the weak outcome");
    assert!(failure.message.contains("both threads read 0"), "{}", failure.message);
}

/// Spawn/join passes results and establishes happens-before: the parent
/// reads the child's relaxed store without any extra synchronization.
#[test]
fn join_synchronizes() {
    model("join_synchronizes", || {
        let v = Arc::new(AtomicUsize::new(0));
        let v2 = Arc::clone(&v);
        let h = thread::spawn(move || {
            v2.store(7, Ordering::Relaxed);
            "done"
        });
        assert_eq!(h.join(), "done");
        assert_eq!(v.load(Ordering::Relaxed), 7, "join must synchronize");
    });
}

/// Random mode finds the relaxed-MP bug too (with enough iterations), and
/// reports a replayable schedule.
#[test]
fn random_walk_finds_mp() {
    let report = check(
        "random_walk_finds_mp",
        &Config::default(),
        Mode::Random { iters: 2000 },
        message_passing(Ordering::Relaxed, Ordering::Relaxed),
    );
    let failure = report.failure.expect("random walk should hit the MP violation");
    assert!(!failure.schedule.is_empty());
}

/// A checked mutex excludes and synchronizes: two threads doing a
/// non-atomic read-modify-write of a *relaxed* cell under the lock — with a
/// yield point inside the critical section — never lose an update, and the
/// second holder never reads a stale value.
#[test]
fn mutex_excludes_and_synchronizes() {
    use cilk_check::sync::Mutex;
    let report = model("mutex_excludes_and_synchronizes", || {
        let cell = Arc::new((Mutex::new(()), AtomicUsize::new(0)));
        let hs: Vec<_> = (0..2)
            .map(|_| {
                let cell = Arc::clone(&cell);
                thread::spawn(move || {
                    let _guard = cell.0.lock().unwrap();
                    let v = cell.1.load(Ordering::Relaxed);
                    cell.1.store(v + 1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in hs {
            h.join();
        }
        assert_eq!(cell.1.load(Ordering::Relaxed), 2, "lost update under the lock");
    });
    assert!(report.executions > 1, "both lock orders must be explored: {report:?}");
}

/// `unpark` wakes the parker, and the hand-over is a happens-before edge
/// (relaxed data written before it is fresh after `park`).
#[test]
fn park_unpark_hands_over_one_token() {
    model("park_unpark_hands_over_one_token", || {
        let data = Arc::new(AtomicUsize::new(0));
        let d2 = Arc::clone(&data);
        let sleeper = thread::spawn(move || {
            thread::park();
            assert_eq!(d2.load(Ordering::Relaxed), 7, "unpark must synchronize with park");
        });
        data.store(7, Ordering::Relaxed);
        thread::unpark(sleeper.tid());
        sleeper.join();
    });
}

/// A park nobody answers is a deadlock, reported with a replayable
/// schedule — the shape a lost wake-up takes under the checker.
#[test]
fn unanswered_park_is_a_reported_deadlock() {
    let report = check(
        "unanswered_park_is_a_reported_deadlock",
        &Config::default(),
        Mode::Exhaustive,
        || {
            let flag = Arc::new(AtomicUsize::new(0));
            let f2 = Arc::clone(&flag);
            let sleeper = thread::spawn(move || {
                // Check-then-park with no re-check: the classic lost wake-up.
                if f2.load(Ordering::SeqCst) == 0 {
                    thread::park();
                }
            });
            // The producer publishes but never learns of the sleeper, so in
            // the interleavings where the sleeper checked first it hangs.
            flag.store(1, Ordering::SeqCst);
            sleeper.join();
        },
    );
    let failure = report.failure.expect("the lost wake-up must be found");
    assert!(failure.message.contains("deadlock"), "{}", failure.message);
    assert!(!failure.schedule.is_empty(), "counterexample must be replayable");
}
