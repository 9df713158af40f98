//! A model of the runtime's parker (`cilk_runtime::Parker`: one word holding
//! `EMPTY`, `TOKEN`, or the address of the `LockLatch` its waiter sleeps on
//! in its own frame), generic over the parker so the same threads and
//! assertions drive the shipping code (`models.rs`, under `--cfg
//! cilk_check`) and its mutable shadow (`mutation.rs`).
//!
//! **One waiter parks twice; one unparker, one stray unparker.** The waiter
//! is a handle's waiter in miniature: it parks with no timeout until the
//! unparker's flag is up — the unparker raises it and unparks, as a job's
//! execution publishes `DONE` and unparks — and then parks once more with a
//! zero timeout, which expires at once: the waiter withdraws its latch's
//! address, or finds that an `unpark` took it and waits for that `unpark`'s
//! set. The stray unparks once at an arbitrary moment, as a worker's waker
//! or a finished job may hand a token to a parker whose waiter moved on.
//!
//! * **Every token is consumed exactly once** — a `park` that reports a
//!   token is paid for by an `unpark` that started before it returned (a
//!   token left in the word would cut a later park short), and the waiter
//!   is never parked at quiescence, when the flag is up and its token is
//!   pending (a lost wake-up).
//! * **No latch is touched after its frame has retired** — each park's
//!   latch lives in that call's frame. The shadow keeps every latch
//!   allocated and asserts on each access that its park has not returned;
//!   the shipping parker is the shadow's line-for-line original and cannot
//!   be instrumented.

use std::sync::atomic::AtomicBool as PlainBool;
use std::sync::atomic::AtomicUsize as PlainUsize;
use std::sync::atomic::Ordering::Relaxed as Plain;
use std::sync::Arc;
use std::time::Duration;

use cilk_check::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use cilk_check::thread;

/// The operations of `cilk_runtime::Parker`, as the model calls them.
pub trait Parker: Send + Sync + 'static {
    fn park(&self, timeout: Duration) -> bool;
    fn unpark(&self);
}

struct World<P> {
    parker: P,
    /// The unparker's condition, raised before it unparks.
    ready: AtomicBool,
    /// `unpark`s started: a step of its own, so the model places it.
    sent: AtomicUsize,
    /// `park`s that reported a token (plain: only the waiter counts).
    consumed: PlainUsize,
    returned: PlainBool,
}

impl<P: Parker> World<P> {
    fn unpark(&self) {
        self.sent.fetch_add(1, Ordering::Relaxed);
        self.parker.unpark();
    }

    fn park(&self, timeout: Duration) {
        if self.parker.park(timeout) {
            let consumed = self.consumed.fetch_add(1, Plain) + 1;
            // A read-modify-write reads the newest count, never a stale one.
            let sent = self.sent.fetch_add(0, Ordering::Relaxed);
            assert!(consumed <= sent, "a park consumed a token no unpark handed over");
        }
    }
}

/// The one-waiter / unparker / stray-unparker model for one parker
/// implementation.
pub fn one_waiter_two_unparkers<P: Parker>(make: impl Fn() -> P) -> impl Fn() {
    move || {
        let world = Arc::new(World {
            parker: make(),
            ready: AtomicBool::new(false),
            sent: AtomicUsize::new(0),
            consumed: PlainUsize::new(0),
            returned: PlainBool::new(false),
        });
        let w = Arc::clone(&world);
        thread::spawn(move || {
            w.ready.store(true, Ordering::Release);
            w.unpark();
        });
        let w = Arc::clone(&world);
        thread::spawn(move || w.unpark());
        let w = Arc::clone(&world);
        cilk_check::at_quiescence(move || {
            assert!(
                w.returned.load(Plain),
                "the waiter is parked with its token pending: a lost wake-up"
            );
        });
        while !world.ready.load(Ordering::Acquire) {
            world.park(Duration::MAX);
        }
        world.park(Duration::ZERO);
        world.returned.store(true, Plain);
    }
}
