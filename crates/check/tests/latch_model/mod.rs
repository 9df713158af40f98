//! A model of the runtime's blocking latch (`cilk_runtime::LockLatch`, the
//! latch an `install`/`submit` caller outside the pool waits on), generic
//! over the latch so the same threads and assertions drive the shipping
//! code (`models.rs`, under `--cfg cilk_check`) and its mutable shadow
//! (`mutation.rs`).
//!
//! **One waiter, one setter, one stray unparker.** The waiter creates the
//! latch on its own stack frame (here: a frame it shares by `Arc`, so the
//! model itself stays memory-safe), waits, and on return *retires* the
//! frame — from then on the latch is logically freed, as a popped stack
//! frame is. The setter publishes a payload with a relaxed store and sets
//! the latch, as a worker finishing an injected job stores its result and
//! sets the job's latch. The stray thread unparks the waiter once at an
//! arbitrary moment: the checker's `park` has no spurious wake-ups, the
//! real one does, and a stale token from an earlier wait looks the same.
//!
//! * **The waiter returns only after `SET`** — on return it probes the
//!   latch set and reads the setter's payload, which the release swap and
//!   the acquire probe must have carried over.
//! * **No lost wake-up** — no execution ends with the waiter parked while
//!   the latch is set (the quiescence check).
//! * **The setter never touches the latch after its swap** — the waiter
//!   may return and retire the frame the instant `SET` is visible. The
//!   shadow asserts this on every access to its fields; the shipping latch
//!   is the shadow's line-for-line original and cannot be instrumented.

use std::sync::atomic::AtomicBool as PlainBool;
use std::sync::atomic::Ordering::Relaxed as Plain;
use std::sync::Arc;

use cilk_check::sync::atomic::{AtomicUsize, Ordering};
use cilk_check::thread;

/// The operations of `cilk_runtime::LockLatch`, as the model calls them.
pub trait Latch: Send + Sync + 'static {
    fn wait(&self);
    fn probe(&self) -> bool;
    /// # Safety
    ///
    /// `this` is live; the caller does not use it after the call.
    unsafe fn set(this: *const Self);
    /// The frame holding the latch is gone; the shadow records it.
    fn retire(&self) {}
}

const PAYLOAD: usize = 42;

struct Frame<L> {
    latch: L,
    payload: AtomicUsize,
    returned: PlainBool,
}

/// The waiter / setter / stray-unparker model for one latch implementation;
/// `make` creates a latch whose waiter is the calling thread.
pub fn one_setter_one_waiter<L: Latch>(make: impl Fn() -> L) -> impl Fn() {
    move || {
        let frame = Arc::new(Frame {
            latch: make(),
            payload: AtomicUsize::new(0),
            returned: PlainBool::new(false),
        });
        let f = Arc::clone(&frame);
        thread::spawn(move || {
            f.payload.store(PAYLOAD, Ordering::Relaxed);
            // SAFETY: the frame is kept alive by the `Arc`; the latch is
            // not used again by this thread.
            unsafe { L::set(&f.latch) };
        });
        let waiter = thread::current();
        thread::spawn(move || waiter.unpark());
        let f = Arc::clone(&frame);
        cilk_check::at_quiescence(move || {
            assert!(
                f.returned.load(Plain) || !f.latch.probe(),
                "the waiter is parked on a set latch: a lost wake-up"
            );
        });
        frame.latch.wait();
        assert!(frame.latch.probe(), "wait returned before the latch was set");
        assert_eq!(
            frame.payload.load(Ordering::Relaxed),
            PAYLOAD,
            "wait returned without the setter's writes"
        );
        frame.returned.store(true, Plain);
        frame.latch.retire();
    }
}
