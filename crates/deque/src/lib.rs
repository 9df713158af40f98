//! # cilk-deque: a Chase–Lev work-stealing deque
//!
//! The Cilk++ paper (§3.2) describes each worker's stack as "in fact, a
//! double-ended queue, with the worker operating on the bottom and thieves
//! stealing from the top". This crate implements that structure from
//! scratch: the lock-free dynamic circular work-stealing deque of Chase and
//! Lev, which is the lineage of the THE protocol used by Cilk-5 and Cilk++.
//!
//! * The **owner** ([`Worker`]) pushes and pops at the *bottom* with plain
//!   loads/stores plus one fence on `pop`.
//! * **Thieves** ([`Stealer`]) steal from the *top* with a compare-and-swap.
//! * The buffer grows geometrically; retired buffers are kept alive until
//!   the deque is dropped so that in-flight thieves never read freed memory.
//!
//! # Owner protocols
//!
//! Two owner-side protocols are available per deque (thief code is
//! identical under both — see [`Protocol`]):
//!
//! * [`Protocol::Classic`] — textbook Chase–Lev: every `push` publishes
//!   `bottom` with a release store, every `pop` pays a `SeqCst` fence to
//!   arbitrate the boundary race against thieves.
//! * [`Protocol::FenceElided`] — the THE-style fast path: the owner keeps
//!   the newest `retain`..`retain + publish_batch` elements in a *private
//!   window* beyond the published `bottom`. Private pushes and pops touch
//!   no shared atomic and pay no fence; `bottom` is published in batches
//!   (one release store per `publish_batch` pushes), and the classic
//!   fence + CAS protocol runs only in the boundary window, when the
//!   private region is exhausted and the owner must race thieves for a
//!   published element. `crates/check` model-checks this protocol
//!   exhaustively (two thieves + owner, growth, seal/unseal) and verifies
//!   that weakening any of its orderings is caught.
//!
//! # Example
//!
//! ```
//! use cilk_deque::{Deque, Steal};
//!
//! let deque = Deque::new();
//! let stealer = deque.stealer();
//! let worker = deque.into_worker();
//!
//! worker.push(1);
//! worker.push(2);
//!
//! // The owner pops LIFO from the bottom...
//! assert_eq!(worker.pop(), Some(2));
//! // ...while thieves steal FIFO from the top.
//! assert_eq!(stealer.steal(), Steal::Success(1));
//! assert_eq!(worker.pop(), None);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

mod buffer;

use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;
use std::mem;
// The single model-checker seam: compiled with `RUSTFLAGS="--cfg
// cilk_check"` (see ci.sh's `check` stage and docs/model-checking.md), the
// exact protocol code below runs against cilk-check's recorded atomics and
// is schedule-explored by `crates/check/tests/models.rs`. In ordinary
// builds this import is `std`'s and the checker crate is dead code.
#[cfg(not(cilk_check))]
use std::sync::atomic::{fence, AtomicBool, AtomicIsize, AtomicPtr, Ordering};

#[cfg(cilk_check)]
use cilk_check::sync::atomic::{fence, AtomicBool, AtomicIsize, AtomicPtr, Ordering};

use std::sync::{Arc, Mutex};

use buffer::Buffer;

/// Initial buffer capacity. Small so the growth path is exercised often in
/// tests; growth is geometric so the amortized cost is O(1) per push.
const MIN_CAP: usize = 32;

/// Owner-side protocol selector. Thieves are oblivious: both protocols
/// present the identical `top`/`bottom`/CAS interface at the steal end, so
/// a pool can mix protocols per worker without thieves knowing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// Textbook Chase–Lev: `bottom` published on every push, `SeqCst`
    /// fence on every pop.
    Classic,
    /// Fence-elided owner fast path. The owner retains up to
    /// `retain + publish_batch` of its newest elements in a private window
    /// invisible to thieves; operations inside the window are fence-free
    /// plain memory accesses.
    FenceElided {
        /// Number of newest elements the owner prefers to keep private
        /// (the fence-free pop window). Publication stops `retain` short
        /// of the owner's true bottom except when the public region is
        /// known empty and there is nothing older to expose.
        retain: usize,
        /// How many unpublished elements accumulate beyond `retain`
        /// before a batch publication (one release store exposes the
        /// whole batch). Larger batches amortize publication but widen
        /// the window in which thieves cannot see fresh work.
        publish_batch: usize,
    },
}

impl Protocol {
    /// The fence-elided protocol with the tuning used by the runtime:
    /// keep the 4 newest elements private, publish in batches of 4.
    pub fn fence_elided() -> Self {
        Protocol::FenceElided { retain: 4, publish_batch: 4 }
    }
}

impl Default for Protocol {
    /// The crate-level default stays `Classic`: raw deque users get the
    /// strongest visibility guarantees (every push immediately stealable)
    /// unless they opt into the elided fast path.
    fn default() -> Self {
        Protocol::Classic
    }
}

/// Owner-side operation counters, maintained in plain `Cell`s on the
/// owner's hot path (never shared, never atomic). They exist so tests and
/// benches can *prove* which protocol ran: under [`Protocol::FenceElided`]
/// the common-path pop increments `pops_private` and pays no fence, and
/// `publications` lags `pushes` by the batch factor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OwnerStats {
    /// Total owner pushes.
    pub pushes: u64,
    /// Pops served from the private window: no fence, no shared store.
    pub pops_private: u64,
    /// Pops that ran the classic boundary protocol (one `SeqCst` fence
    /// each, plus a CAS in the single-element race window). Under
    /// `Classic` every pop lands here.
    pub pops_fenced: u64,
    /// Release stores that published `bottom` to thieves. Under `Classic`
    /// every push publishes.
    pub publications: u64,
}

/// Shared state of one deque, alone on its 128-byte units (what adjacent-
/// line prefetching moves): no other deque's words or buffer share them.
#[repr(align(128))]
struct Inner<T> {
    /// Index of the next element to steal (thief end).
    top: AtomicIsize,
    /// Index one past the last *published* element (owner end). Under the
    /// fence-elided protocol the owner may privately hold elements beyond
    /// this index; thieves can never observe them.
    bottom: AtomicIsize,
    /// Current buffer. Replaced (never mutated in place) on growth.
    buffer: AtomicPtr<Buffer<T>>,
    /// Buffers retired by growth. They may still be read by in-flight
    /// thieves, so they are only freed when the deque itself is dropped.
    retired: Mutex<Vec<*mut Buffer<T>>>,
    /// Set once the owner has declared this deque closed to new pushes
    /// (see [`Worker::seal`]). Steals remain legal: elements already in
    /// the deque stay up for grabs while the owner drains the remainder.
    sealed: AtomicBool,
}

const _: () = assert!(mem::align_of::<Inner<()>>() == 128);

// SAFETY: `Inner` encapsulates raw pointers that are only dereferenced under
// the Chase–Lev protocol; `T: Send` is required because elements move
// between threads.
unsafe impl<T: Send> Send for Inner<T> {}
// SAFETY: shared access goes through atomics (`top`, `bottom`, `buffer`)
// and the `retired` mutex; a slot's `T` is moved out by exactly one thread,
// the one whose CAS on `top` (or owner pop) claimed it, so `T: Send` is
// enough — no `&T` is ever shared.
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Inner<T> {
    fn new() -> Self {
        Self::with(MIN_CAP, 0)
    }

    fn with(cap: usize, origin: isize) -> Self {
        let buf = Box::into_raw(Buffer::alloc(cap));
        Inner {
            top: AtomicIsize::new(origin),
            bottom: AtomicIsize::new(origin),
            buffer: AtomicPtr::new(buf),
            retired: Mutex::new(Vec::new()),
            sealed: AtomicBool::new(false),
        }
    }
}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        let top = *self.top.get_mut();
        let bottom = *self.bottom.get_mut();
        let buf_ptr = *self.buffer.get_mut();
        // SAFETY: we have exclusive access during drop; elements in
        // [top, bottom) are live and stored in the *current* buffer.
        // (`Worker::drop` published any private window, so `bottom` covers
        // every live element regardless of protocol.)
        unsafe {
            let buf = &*buf_ptr;
            // Signed length, not an `i != bottom` walk: `pop` transiently
            // decrements `bottom` below `top`, and a drop during unwinding
            // (e.g. a cilk-check aborted execution) can observe that state.
            // A negative window drops nothing (leaking the in-flight
            // element is safe; walking to equality would wrap the entire
            // isize range).
            let len = bottom.wrapping_sub(top);
            let mut i = top;
            let mut remaining = if len > 0 { len } else { 0 };
            while remaining > 0 {
                drop(buf.read(i));
                i = i.wrapping_add(1);
                remaining -= 1;
            }
            drop(Box::from_raw(buf_ptr));
        }
        let retired = mem::take(&mut *self.retired.lock().expect("retired lock poisoned"));
        for ptr in retired {
            // SAFETY: retired buffers hold only bit-copies whose ownership
            // moved to the replacement buffer; no element drops here.
            unsafe { drop(Box::from_raw(ptr)) };
        }
    }
}

/// A freshly created deque, not yet split into its owner and thief halves.
///
/// Call [`Deque::stealer`] any number of times, then [`Deque::into_worker`]
/// exactly once to obtain the owner handle.
pub struct Deque<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Deque<T> {
    /// Creates an empty deque.
    pub fn new() -> Self {
        Deque { inner: Arc::new(Inner::new()) }
    }

    /// Creates an empty deque with initial buffer capacity `cap` (a power
    /// of two). Small capacities exercise the growth path early — useful
    /// for tests and model checking.
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_capacity_and_origin(cap, 0)
    }

    /// Creates an empty deque whose `top`/`bottom` counters start at
    /// `origin` instead of 0.
    ///
    /// The counters are free-running: they only ever increase and are
    /// reduced modulo the buffer capacity on access, so a deque is correct
    /// arbitrarily close to (and across) `isize::MAX`. Placing the origin
    /// there lets tests cover the wraparound in minutes instead of the
    /// centuries a counter would need to get there by itself.
    pub fn with_capacity_and_origin(cap: usize, origin: isize) -> Self {
        Deque { inner: Arc::new(Inner::with(cap, origin)) }
    }

    /// Creates a new thief handle for this deque.
    pub fn stealer(&self) -> Stealer<T> {
        Stealer { inner: Arc::clone(&self.inner) }
    }

    /// Converts this deque into its unique owner handle, running the
    /// [`Protocol::Classic`] owner protocol.
    pub fn into_worker(self) -> Worker<T> {
        self.into_worker_with(Protocol::Classic)
    }

    /// Converts this deque into its unique owner handle running the given
    /// owner protocol.
    pub fn into_worker_with(self, protocol: Protocol) -> Worker<T> {
        // No element can exist before the owner handle does (only the
        // owner pushes), so the relaxed snapshot below is exact.
        let bottom = self.inner.bottom.load(Ordering::Relaxed);
        let top = self.inner.top.load(Ordering::Relaxed);
        Worker {
            inner: self.inner,
            owner: OwnerState {
                protocol,
                priv_bottom: Cell::new(bottom),
                published: Cell::new(bottom),
                cached_top: Cell::new(top),
                stats: StatCells::default(),
            },
            _not_sync: PhantomData,
        }
    }
}

impl<T> Default for Deque<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for Deque<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Deque").finish_non_exhaustive()
    }
}

/// Owner-local (unshared, unsynchronized) protocol state. Lives in the
/// `Worker` and travels with it across threads on seal/adopt handoff.
struct OwnerState {
    protocol: Protocol,
    /// One past the last slot the owner wrote: the owner's true bottom.
    /// Invariant: `top <= bottom(published) <= priv_bottom` (wrapping).
    priv_bottom: Cell<isize>,
    /// Mirror of `Inner::bottom`. Exact: the owner is its only writer.
    published: Cell<isize>,
    /// Lower bound on `Inner::top` (thieves only increase `top`), so
    /// `priv_bottom - cached_top` is an upper bound on the live length —
    /// safe for capacity checks — and `published == cached_top` proves
    /// the public region empty. Refreshed on capacity pressure and on
    /// every boundary pop.
    cached_top: Cell<isize>,
    stats: StatCells,
}

#[derive(Default)]
struct StatCells {
    pushes: Cell<u64>,
    pops_private: Cell<u64>,
    pops_fenced: Cell<u64>,
    publications: Cell<u64>,
}

/// The owner end of the deque: pushes and pops at the bottom.
///
/// There is exactly one `Worker` per deque; it is `Send` but deliberately
/// not `Sync` (the `PhantomData<Cell<()>>` suppresses `Sync`), matching the
/// single-owner protocol.
pub struct Worker<T> {
    inner: Arc<Inner<T>>,
    owner: OwnerState,
    _not_sync: PhantomData<Cell<()>>,
}

// SAFETY: a `Worker` may migrate threads as long as only one thread uses it
// at a time (it is not `Sync`).
unsafe impl<T: Send> Send for Worker<T> {}

impl<T> fmt::Debug for Worker<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Worker")
            .field("len", &self.len())
            .field("protocol", &self.owner.protocol)
            .finish()
    }
}

impl<T> Drop for Worker<T> {
    fn drop(&mut self) {
        // Abandoned private elements become public so they are either
        // stolen (they are live work) or swept by `Inner::drop` — the
        // no-lost-elements invariant survives an owner that drops with a
        // non-empty private window.
        let pb = self.owner.priv_bottom.get();
        if pb.wrapping_sub(self.owner.published.get()) > 0 {
            self.inner.bottom.store(pb, Ordering::Release);
        }
    }
}

impl<T> Worker<T> {
    /// Creates a new deque and returns its owner handle together with one
    /// thief handle. The owner runs [`Protocol::Classic`].
    pub fn new() -> (Worker<T>, Stealer<T>) {
        Self::new_with(Protocol::Classic)
    }

    /// Creates a new deque whose owner runs `protocol`, returning the
    /// owner handle together with one thief handle.
    pub fn new_with(protocol: Protocol) -> (Worker<T>, Stealer<T>) {
        let deque = Deque::new();
        let stealer = deque.stealer();
        (deque.into_worker_with(protocol), stealer)
    }

    /// The owner protocol this worker runs.
    pub fn protocol(&self) -> Protocol {
        self.owner.protocol
    }

    /// Snapshot of the owner-side operation counters (see [`OwnerStats`]).
    pub fn owner_stats(&self) -> OwnerStats {
        OwnerStats {
            pushes: self.owner.stats.pushes.get(),
            pops_private: self.owner.stats.pops_private.get(),
            pops_fenced: self.owner.stats.pops_fenced.get(),
            publications: self.owner.stats.publications.get(),
        }
    }

    /// Number of elements currently in the deque (racy but monotonic from
    /// the owner's point of view between its own operations). Includes the
    /// owner's private window.
    pub fn len(&self) -> usize {
        let b = match self.owner.protocol {
            Protocol::Classic => self.inner.bottom.load(Ordering::Relaxed),
            Protocol::FenceElided { .. } => self.owner.priv_bottom.get(),
        };
        let t = self.inner.top.load(Ordering::Relaxed);
        // Wrapping difference: the counters are free-running and may cross
        // `isize::MAX`; their distance is always small and non-negative.
        usize::try_from(b.wrapping_sub(t)).unwrap_or(0)
    }

    /// Whether the deque appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of elements currently held in the owner's private window
    /// (always 0 under [`Protocol::Classic`]).
    pub fn private_len(&self) -> usize {
        let d = self.owner.priv_bottom.get().wrapping_sub(self.owner.published.get());
        usize::try_from(d).unwrap_or(0)
    }

    /// Creates an additional thief handle.
    pub fn stealer(&self) -> Stealer<T> {
        Stealer { inner: Arc::clone(&self.inner) }
    }

    /// Pushes `value` onto the bottom of the deque.
    ///
    /// Amortized O(1); grows the buffer geometrically when full. Under
    /// [`Protocol::FenceElided`] the element may land in the owner's
    /// private window and only become visible to thieves at the next batch
    /// publication.
    ///
    /// Returns whether this push published: `true` when it advanced the
    /// `bottom` thieves read (every `Classic` push; a batch or empty-public
    /// publication under `FenceElided`), `false` when the element stayed in
    /// the private window and no thief can have learned of it. An owner
    /// that wakes sleeping thieves needs to do so only on `true`.
    #[inline]
    pub fn push(&self, value: T) -> bool {
        debug_assert!(
            !self.inner.sealed.load(Ordering::Relaxed),
            "push on a sealed deque: unseal before reuse"
        );
        match self.owner.protocol {
            Protocol::Classic => self.push_classic(value),
            Protocol::FenceElided { retain, publish_batch } => {
                self.push_elided(value, retain as isize, publish_batch as isize)
            }
        }
    }

    fn push_classic(&self, value: T) -> bool {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Acquire);
        let mut buf_ptr = self.inner.buffer.load(Ordering::Relaxed);
        // SAFETY: the owner is the only mutator of `buffer`.
        let mut buf = unsafe { &*buf_ptr };
        let len = b.wrapping_sub(t);
        if len >= buf.cap() as isize {
            self.grow(t, b);
            buf_ptr = self.inner.buffer.load(Ordering::Relaxed);
            // SAFETY: `grow` just installed this buffer; only the owner
            // replaces it, and replaced buffers stay allocated until drop.
            buf = unsafe { &*buf_ptr };
        }
        // SAFETY: slot `b` is outside [t, b) so no live element is
        // overwritten; only the owner writes slots.
        unsafe { buf.write(b, value) };
        self.inner.bottom.store(b.wrapping_add(1), Ordering::Release);
        self.owner.stats.pushes.set(self.owner.stats.pushes.get() + 1);
        self.owner.stats.publications.set(self.owner.stats.publications.get() + 1);
        true
    }

    /// Fence-elided push: write the slot, advance the private bottom, and
    /// publish `bottom` only when a batch has accumulated or the public
    /// region is provably empty. No fence on any path; one release store
    /// per publication.
    #[inline]
    fn push_elided(&self, value: T, retain: isize, batch: isize) -> bool {
        let pb = self.owner.priv_bottom.get();
        let mut ct = self.owner.cached_top.get();
        let mut buf_ptr = self.inner.buffer.load(Ordering::Relaxed);
        // SAFETY: the owner is the only mutator of `buffer`.
        let mut buf = unsafe { &*buf_ptr };
        // `pb - cached_top >= pb - top` = live length, so this check is
        // conservative: it can trigger a spurious refresh, never an
        // overwrite of a live slot.
        if pb.wrapping_sub(ct) >= buf.cap() as isize {
            ct = self.inner.top.load(Ordering::Acquire);
            self.owner.cached_top.set(ct);
            if pb.wrapping_sub(ct) >= buf.cap() as isize {
                self.grow(ct, pb);
                buf_ptr = self.inner.buffer.load(Ordering::Relaxed);
                // SAFETY: `grow` just installed this buffer; only the owner
                // replaces it, and replaced buffers stay allocated until drop.
                buf = unsafe { &*buf_ptr };
            }
        }
        // SAFETY: slot `pb` is outside the live window [top, pb); only the
        // owner writes slots, and thieves cannot observe indices >= the
        // published bottom (<= pb).
        unsafe { buf.write(pb, value) };
        let pb = pb.wrapping_add(1);
        self.owner.priv_bottom.set(pb);
        self.owner.stats.pushes.set(self.owner.stats.pushes.get() + 1);

        let published = self.owner.published.get();
        // Publication policy. `published == cached_top` *proves* the
        // public region empty (cached_top is a lower bound on top): expose
        // everything but the retained window so thieves regain a target.
        // Otherwise publish only when a full batch has accumulated beyond
        // the retained window. Either way the newest `retain` elements
        // stay private — the fence-free pop window.
        let target = if published == ct {
            let exposed = pb.wrapping_sub(retain);
            if exposed.wrapping_sub(published) > 0 {
                exposed
            } else {
                return false;
            }
        } else if pb.wrapping_sub(published) >= retain.wrapping_add(batch.max(1)) {
            pb.wrapping_sub(retain)
        } else {
            return false;
        };
        // Release: thieves acquiring `bottom` see every slot write above.
        self.inner.bottom.store(target, Ordering::Release);
        self.owner.published.set(target);
        self.owner.stats.publications.set(self.owner.stats.publications.get() + 1);
        true
    }

    /// Pops an element from the bottom of the deque (LIFO).
    ///
    /// Returns `None` when empty. The final element is raced against
    /// thieves with a compare-and-swap, per Chase–Lev.
    #[inline]
    pub fn pop(&self) -> Option<T> {
        match self.owner.protocol {
            Protocol::Classic => self.pop_classic(),
            Protocol::FenceElided { .. } => self.pop_elided(),
        }
    }

    fn pop_classic(&self) -> Option<T> {
        let b = self.inner.bottom.load(Ordering::Relaxed).wrapping_sub(1);
        let buf_ptr = self.inner.buffer.load(Ordering::Relaxed);
        self.inner.bottom.store(b, Ordering::Relaxed);
        self.owner.stats.pops_fenced.set(self.owner.stats.pops_fenced.get() + 1);
        fence(Ordering::SeqCst);
        let t = self.inner.top.load(Ordering::Relaxed);

        // `b - t >= 0` via wrapping arithmetic, not `t <= b`: near
        // `isize::MAX` the reserved window [t, b] can straddle the wrap.
        if b.wrapping_sub(t) >= 0 {
            // Non-empty: at least one element remains after our reservation.
            // SAFETY: slot `b` holds a live element; we are the only popper
            // at the bottom.
            let value = unsafe { (*buf_ptr).read(b) };
            if t == b {
                // Last element: race thieves for it.
                if self
                    .inner
                    .top
                    .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
                    .is_err()
                {
                    // A thief won; it owns the value. Forget our bit-copy.
                    mem::forget(value);
                    self.inner.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
                    return None;
                }
                self.inner.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
            }
            Some(value)
        } else {
            // Empty: restore bottom.
            self.inner.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
            None
        }
    }

    /// Fence-elided pop. The common path takes the newest element from the
    /// private window with plain memory accesses — no fence, no shared
    /// store; thieves cannot observe indices at or beyond the published
    /// bottom, so the slot is owner-exclusive by construction. Only when
    /// the private window is empty (`priv_bottom == published`, the
    /// boundary race window) does the classic decrement + `SeqCst` fence +
    /// CAS protocol run against the public region, out of line
    /// ([`Worker::pop_boundary`]).
    #[inline]
    fn pop_elided(&self) -> Option<T> {
        let pb = self.owner.priv_bottom.get();
        let published = self.owner.published.get();
        if pb.wrapping_sub(published) > 0 {
            // Private fast path.
            let b = pb.wrapping_sub(1);
            let buf_ptr = self.inner.buffer.load(Ordering::Relaxed);
            // SAFETY: slot `b >= published` is invisible to thieves (they
            // bound their reads by `bottom`, and any stale larger bottom
            // value is fenced out by the boundary pop that retracted it —
            // model-checked in crates/check); the owner wrote it and is
            // the only reader.
            let value = unsafe { (*buf_ptr).read(b) };
            self.owner.priv_bottom.set(b);
            self.owner.stats.pops_private.set(self.owner.stats.pops_private.get() + 1);
            return Some(value);
        }
        self.pop_boundary()
    }

    /// The boundary window of [`Worker::pop_elided`]: the private region
    /// is empty, so race thieves for the newest *published* element with
    /// the classic protocol.
    #[cold]
    fn pop_boundary(&self) -> Option<T> {
        let b = self.owner.priv_bottom.get().wrapping_sub(1);
        let buf_ptr = self.inner.buffer.load(Ordering::Relaxed);
        self.inner.bottom.store(b, Ordering::Relaxed);
        self.owner.published.set(b);
        self.owner.priv_bottom.set(b);
        self.owner.stats.pops_fenced.set(self.owner.stats.pops_fenced.get() + 1);
        fence(Ordering::SeqCst);
        let t = self.inner.top.load(Ordering::Relaxed);
        self.owner.cached_top.set(t);

        if b.wrapping_sub(t) >= 0 {
            // SAFETY: slot `b` holds a live element; we are the only popper
            // at the bottom.
            let value = unsafe { (*buf_ptr).read(b) };
            if t == b {
                // Last element: race thieves for it.
                let won = self
                    .inner
                    .top
                    .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                self.restore_elided(b.wrapping_add(1));
                self.owner.cached_top.set(t.wrapping_add(1));
                if !won {
                    // A thief won; it owns the value. Forget our bit-copy.
                    mem::forget(value);
                    return None;
                }
            }
            Some(value)
        } else {
            // Empty: restore bottom.
            self.restore_elided(b.wrapping_add(1));
            None
        }
    }

    /// Restores `bottom` (and the owner mirrors) after a boundary pop.
    fn restore_elided(&self, b: isize) {
        self.inner.bottom.store(b, Ordering::Relaxed);
        self.owner.published.set(b);
        self.owner.priv_bottom.set(b);
    }

    /// Publishes the owner's entire private window to thieves, if any.
    ///
    /// A no-op under [`Protocol::Classic`]. Useful before the owner parks
    /// or blocks for a long stretch: retained elements become stealable
    /// immediately instead of at the next batch boundary.
    pub fn publish(&self) {
        let pb = self.owner.priv_bottom.get();
        if pb.wrapping_sub(self.owner.published.get()) > 0 {
            self.inner.bottom.store(pb, Ordering::Release);
            self.owner.published.set(pb);
            self.owner.stats.publications.set(self.owner.stats.publications.get() + 1);
        }
    }

    /// Seals the deque against further pushes and drains every element the
    /// owner can still claim, returning them oldest-first (top-to-bottom
    /// order, the order thieves would have seen).
    ///
    /// Concurrent thieves may race the drain; the Chase–Lev protocol keeps
    /// every element exactly-once, so anything a thief wins is simply
    /// missing from the returned vector. After `seal` the deque stays
    /// usable for steals but `push` asserts (debug) until [`Worker::unseal`]
    /// is called — the hand-off protocol for adopting a dead worker's deque.
    pub fn seal(&self) -> Vec<T> {
        self.inner.sealed.store(true, Ordering::Release);
        let mut drained = Vec::new();
        while let Some(v) = self.pop() {
            drained.push(v);
        }
        // `pop` drains bottom-up (newest first); callers re-enqueueing the
        // orphaned work expect the age order thieves would have observed.
        drained.reverse();
        drained
    }

    /// Reopens a sealed deque for pushes. Used when a replacement owner
    /// adopts the deque of a dead worker.
    pub fn unseal(&self) {
        self.inner.sealed.store(false, Ordering::Release);
    }

    /// Whether the owner has sealed this deque.
    pub fn is_sealed(&self) -> bool {
        self.inner.sealed.load(Ordering::Acquire)
    }

    /// Doubles the buffer, copying live elements `[t, b)` into the new one.
    /// The old buffer is retired (kept allocated) because concurrent
    /// thieves may still read from it.
    #[cold]
    fn grow(&self, t: isize, b: isize) {
        let old_ptr = self.inner.buffer.load(Ordering::Relaxed);
        // SAFETY: owner-exclusive access to the buffer pointer.
        let old = unsafe { &*old_ptr };
        let new = Buffer::<T>::alloc(old.cap() * 2);
        let mut i = t;
        while i != b {
            // SAFETY: bit-copy live elements; logical ownership transfers to
            // the new buffer. The retired buffer's copies are only ever read
            // by thieves whose CAS on `top` certifies unique ownership.
            unsafe { new.write(i, old.read(i)) };
            i = i.wrapping_add(1);
        }
        let new_ptr = Box::into_raw(new);
        self.inner.buffer.store(new_ptr, Ordering::Release);
        self.inner
            .retired
            .lock()
            .expect("retired lock poisoned")
            .push(old_ptr);
    }
}

impl<T> Default for Worker<T> {
    fn default() -> Self {
        Deque::new().into_worker()
    }
}

/// Result of a steal attempt.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Steal<T> {
    /// The deque was observed empty.
    Empty,
    /// The steal lost a race (against the owner or another thief); the
    /// caller may retry immediately or move to another victim.
    Retry,
    /// An element was stolen from the top of the deque.
    Success(T),
}

impl<T> Steal<T> {
    /// Returns the stolen value, if any.
    pub fn success(self) -> Option<T> {
        match self {
            Steal::Success(v) => Some(v),
            _ => None,
        }
    }

    /// Whether this result is [`Steal::Empty`].
    pub fn is_empty(&self) -> bool {
        matches!(self, Steal::Empty)
    }

    /// Whether this result is [`Steal::Retry`].
    pub fn is_retry(&self) -> bool {
        matches!(self, Steal::Retry)
    }
}

/// A thief handle: steals from the top of the deque.
///
/// Cloneable and shareable across threads.
pub struct Stealer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer { inner: Arc::clone(&self.inner) }
    }
}

impl<T> fmt::Debug for Stealer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stealer").finish_non_exhaustive()
    }
}

impl<T> Stealer<T> {
    /// Attempts to steal the element at the top of the deque.
    pub fn steal(&self) -> Steal<T> {
        let t = self.inner.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.inner.bottom.load(Ordering::Acquire);
        // Wrapping comparison, as in `pop`: the counters may cross
        // `isize::MAX` while the deque holds only a handful of elements.
        if b.wrapping_sub(t) <= 0 {
            return Steal::Empty;
        }
        let buf_ptr = self.inner.buffer.load(Ordering::Acquire);
        // SAFETY: the buffer pointed to is either current or retired;
        // retired buffers stay allocated for the deque's lifetime, and slot
        // `t` holds a valid bit-copy as long as our CAS below succeeds for
        // this exact `t` (nobody recycles slot `t` until `top` passes it).
        let value = unsafe { (*buf_ptr).read(t) };
        if self
            .inner
            .top
            .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            // Lost the race; another party owns the element.
            mem::forget(value);
            return Steal::Retry;
        }
        Steal::Success(value)
    }

    /// Steals with bounded retries, returning `None` on empty or persistent
    /// contention.
    pub fn steal_with_retries(&self, max_retries: usize) -> Option<T> {
        let mut attempts = 0;
        loop {
            match self.steal() {
                Steal::Success(v) => return Some(v),
                Steal::Empty => return None,
                Steal::Retry => {
                    attempts += 1;
                    if attempts > max_retries {
                        return None;
                    }
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Steals up to `limit` elements, pushing them into `dest` (another
    /// worker's deque) and returning the count actually taken.
    ///
    /// Steal-batching amortizes the per-steal synchronization when a thief
    /// finds a long queue — an optimization Cilk-family runtimes use for
    /// flat loops. Elements keep their top-to-bottom order.
    pub fn steal_batch(&self, dest: &Worker<T>, limit: usize) -> usize {
        let mut moved = 0;
        while moved < limit {
            match self.steal() {
                Steal::Success(v) => {
                    dest.push(v);
                    moved += 1;
                }
                Steal::Empty => break,
                Steal::Retry => {
                    if moved > 0 {
                        break; // keep what we have; contention detected
                    }
                    std::hint::spin_loop();
                }
            }
        }
        moved
    }

    /// Approximate number of elements observable in the deque. Does not
    /// count the owner's private window under [`Protocol::FenceElided`]
    /// (those elements are not stealable yet by definition).
    pub fn len(&self) -> usize {
        let b = self.inner.bottom.load(Ordering::Acquire);
        let t = self.inner.top.load(Ordering::Acquire);
        // Wrapping difference, as in `Worker::len`.
        usize::try_from(b.wrapping_sub(t)).unwrap_or(0)
    }

    /// Whether the deque appears empty to this thief.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the owner has sealed this deque (no further pushes will
    /// arrive; what is visible now is all there will ever be).
    pub fn is_sealed(&self) -> bool {
        self.inner.sealed.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    /// Every protocol a test should pass under, elided with small tuning
    /// so boundary paths are hit often.
    fn protocols() -> Vec<Protocol> {
        vec![
            Protocol::Classic,
            Protocol::FenceElided { retain: 1, publish_batch: 1 },
            Protocol::FenceElided { retain: 2, publish_batch: 3 },
            Protocol::fence_elided(),
        ]
    }

    /// Deques made back to back, the way a pool makes one per worker: each
    /// one's shared words fill whole 128-byte units, so no other deque's
    /// words and no buffer — its slots or its header — share their lines.
    #[test]
    fn shared_words_never_share_a_cache_line() {
        const UNIT: usize = 128;
        let workers: Vec<Worker<u64>> =
            (0..4).map(|_| Deque::new().into_worker_with(Protocol::fence_elided())).collect();
        let span = |start: usize, len: usize| (start, start + len);
        let inners: Vec<(usize, usize)> = workers
            .iter()
            .map(|w| span(Arc::as_ptr(&w.inner) as usize, mem::size_of::<Inner<u64>>()))
            .collect();
        let buffers = workers.iter().flat_map(|w| {
            let header = w.inner.buffer.load(Ordering::Relaxed);
            // SAFETY: the current buffer stays allocated while its deque lives.
            let buf = unsafe { &*header };
            let slots = span(buf.at(0) as usize, buf.cap() * mem::size_of::<u64>());
            [span(header as usize, mem::size_of::<Buffer<u64>>()), slots]
        });
        for (i, a) in inners.iter().enumerate() {
            assert_eq!((a.0 % UNIT, a.1 % UNIT), (0, 0), "deque {i} at {a:x?}");
            for b in inners[i + 1..].iter().copied().chain(buffers.clone()) {
                assert!(a.1 <= b.0 || b.1 <= a.0, "{a:x?} overlaps {b:x?}");
            }
        }
    }

    #[test]
    fn push_pop_lifo() {
        for p in protocols() {
            let (w, _s) = Worker::new_with(p);
            for i in 0..100 {
                w.push(i);
            }
            for i in (0..100).rev() {
                assert_eq!(w.pop(), Some(i), "{p:?}");
            }
            assert_eq!(w.pop(), None, "{p:?}");
        }
    }

    #[test]
    fn steal_fifo() {
        let (w, s) = Worker::new();
        for i in 0..100 {
            w.push(i);
        }
        for i in 0..100 {
            assert_eq!(s.steal(), Steal::Success(i));
        }
        assert!(s.steal().is_empty());
    }

    #[test]
    fn steal_fifo_elided_after_publish() {
        // Under the elided protocol the newest `retain` elements are
        // private until `publish`; afterwards thieves see everything in
        // FIFO order.
        let (w, s) = Worker::new_with(Protocol::FenceElided { retain: 4, publish_batch: 4 });
        for i in 0..100 {
            w.push(i);
        }
        assert!(w.private_len() > 0, "some elements retained privately");
        w.publish();
        assert_eq!(w.private_len(), 0);
        for i in 0..100 {
            assert_eq!(s.steal(), Steal::Success(i));
        }
        assert!(s.steal().is_empty());
    }

    #[test]
    fn elided_common_path_pops_pay_no_fence() {
        // The protocol's reason to exist: the join hot path — a recursive
        // push/(recurse)/pop tree, where the popped element is the most
        // recent push — stays inside the private window. Leaf-adjacent
        // pairs (the overwhelming majority of a fork-join tree) never
        // publish and never fence.
        fn tree(w: &Worker<usize>, depth: usize) {
            if depth == 0 {
                return;
            }
            w.push(depth);
            tree(w, depth - 1);
            tree(w, depth - 1);
            assert_eq!(w.pop(), Some(depth), "no thieves: every pop succeeds");
        }
        let (w, _s) = Worker::new_with(Protocol::fence_elided());
        tree(&w, 10);
        let stats = w.owner_stats();
        assert_eq!(stats.pushes, 1023);
        assert_eq!(stats.pops_private + stats.pops_fenced, 1023);
        assert!(
            stats.pops_private * 10 >= 1023 * 7,
            "the common-path pop must avoid the fence: {stats:?}"
        );
        assert!(
            stats.publications * 2 <= stats.pushes,
            "publication must be batched: {stats:?}"
        );
    }

    #[test]
    fn push_reports_exactly_its_publications() {
        // The bool an owner uses to decide whether thieves need waking:
        // true precisely when `bottom` moved.
        for p in protocols() {
            let (w, s) = Worker::new_with(p);
            let mut reported = 0;
            for i in 0..100 {
                let visible_before = s.len();
                let published = w.push(i);
                assert_eq!(published, s.len() > visible_before, "{p:?} push {i}");
                reported += u64::from(published);
                if i % 3 == 0 {
                    let _ = w.pop();
                }
            }
            assert_eq!(reported, w.owner_stats().publications, "{p:?}");
        }
    }

    #[test]
    fn classic_stats_count_every_pop_as_fenced() {
        let (w, _s) = Worker::new();
        w.push(1);
        w.push(2);
        let _ = w.pop();
        let _ = w.pop();
        let _ = w.pop(); // empty pop still fences
        let stats = w.owner_stats();
        assert_eq!(stats.pushes, 2);
        assert_eq!(stats.publications, 2);
        assert_eq!(stats.pops_private, 0);
        assert_eq!(stats.pops_fenced, 3);
    }

    #[test]
    fn elided_empty_public_region_publishes_older_work() {
        // With a non-empty private window and a provably empty public
        // region, pushes expose the oldest elements so thieves have a
        // target (the biggest pieces of work, per the stealing heuristic).
        let (w, s) = Worker::new_with(Protocol::FenceElided { retain: 2, publish_batch: 8 });
        for i in 0..6 {
            w.push(i);
        }
        // The empty-public rule fired once (exposing the oldest element);
        // the rest wait for a full batch.
        assert!(!s.is_empty(), "older work must be visible to thieves");
        assert_eq!(s.len(), 1, "exactly the oldest element is exposed");
        assert_eq!(w.private_len(), 5);
        assert_eq!(s.steal(), Steal::Success(0), "oldest element published first");
    }

    #[test]
    fn interleaved_owner_and_thief_serial() {
        let (w, s) = Worker::new();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(w.pop(), Some(3));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
        assert!(s.steal().is_empty());
    }

    #[test]
    fn interleaved_owner_and_thief_serial_elided() {
        let (w, s) = Worker::new_with(Protocol::FenceElided { retain: 1, publish_batch: 1 });
        w.push(1);
        w.push(2);
        w.push(3);
        w.publish();
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(w.pop(), Some(3));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
        assert!(s.steal().is_empty());
    }

    #[test]
    fn growth_preserves_elements() {
        for p in protocols() {
            let (w, _s) = Worker::new_with(p);
            let n = MIN_CAP * 8;
            for i in 0..n {
                w.push(i);
            }
            assert_eq!(w.len(), n, "{p:?}");
            let mut seen = Vec::new();
            while let Some(v) = w.pop() {
                seen.push(v);
            }
            seen.reverse();
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "{p:?}");
        }
    }

    #[test]
    fn growth_with_offset_top() {
        // Force wraparound: steal some, then grow.
        let (w, s) = Worker::new();
        for i in 0..MIN_CAP {
            w.push(i);
        }
        for i in 0..MIN_CAP / 2 {
            assert_eq!(s.steal(), Steal::Success(i));
        }
        for i in MIN_CAP..(MIN_CAP * 4) {
            w.push(i);
        }
        let expected: Vec<usize> = (MIN_CAP / 2..MIN_CAP * 4).collect();
        let mut got = Vec::new();
        while let Steal::Success(v) = s.steal() {
            got.push(v);
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn growth_with_offset_top_elided() {
        let deque = Deque::with_capacity(MIN_CAP);
        let s = deque.stealer();
        let w = deque.into_worker_with(Protocol::FenceElided { retain: 3, publish_batch: 2 });
        for i in 0..MIN_CAP {
            w.push(i);
        }
        w.publish();
        for i in 0..MIN_CAP / 2 {
            assert_eq!(s.steal(), Steal::Success(i));
        }
        for i in MIN_CAP..(MIN_CAP * 4) {
            w.push(i);
        }
        w.publish();
        let expected: Vec<usize> = (MIN_CAP / 2..MIN_CAP * 4).collect();
        let mut got = Vec::new();
        while let Steal::Success(v) = s.steal() {
            got.push(v);
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn elided_origin_wraparound() {
        // Free-running counters across isize::MAX, private window live
        // through the wrap.
        let deque = Deque::with_capacity_and_origin(16, isize::MAX - 3);
        let s = deque.stealer();
        let w = deque.into_worker_with(Protocol::FenceElided { retain: 2, publish_batch: 2 });
        for i in 0..12 {
            w.push(i);
        }
        let mut got = Vec::new();
        while let Some(v) = w.pop() {
            got.push(v);
        }
        got.reverse();
        assert_eq!(got, (0..12).collect::<Vec<_>>());
        assert!(s.steal().is_empty());
    }

    #[test]
    fn drops_remaining_elements() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let (w, _s) = Worker::new();
            for _ in 0..10 {
                w.push(Counted);
            }
            drop(w.pop()); // one dropped here
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn drops_remaining_elements_including_private_window() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let (w, _s) = Worker::new_with(Protocol::FenceElided { retain: 8, publish_batch: 8 });
            for _ in 0..10 {
                w.push(Counted);
            }
            assert!(w.private_len() > 0, "retained elements exist");
            drop(w.pop()); // one dropped here
        }
        // Worker::drop published the private window so Inner::drop swept it.
        assert_eq!(DROPS.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn concurrent_steal_no_loss_no_dup() {
        // All pushed values are seen exactly once across owner pops and
        // thief steals, under every protocol.
        const N: usize = 50_000;
        const THIEVES: usize = 4;
        for p in protocols() {
            let (w, s) = Worker::new_with(p);
            let mut handles = Vec::new();
            for _ in 0..THIEVES {
                let s = s.clone();
                handles.push(thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match s.steal() {
                            Steal::Success(v) => {
                                if v == usize::MAX {
                                    break;
                                }
                                got.push(v);
                            }
                            Steal::Empty => {
                                thread::yield_now();
                            }
                            Steal::Retry => {}
                        }
                    }
                    got
                }));
            }
            let mut owner_got = Vec::new();
            for i in 0..N {
                w.push(i);
                if i % 3 == 0 {
                    if let Some(v) = w.pop() {
                        owner_got.push(v);
                    }
                }
            }
            while let Some(v) = w.pop() {
                owner_got.push(v);
            }
            // Poison pills to stop thieves; publish so they are stealable
            // under the elided protocol.
            for _ in 0..THIEVES {
                w.push(usize::MAX);
            }
            w.publish();
            let mut all: Vec<usize> = owner_got;
            for h in handles {
                all.extend(h.join().expect("thief panicked"));
            }
            assert_eq!(all.len(), N, "{p:?}: lost or duplicated elements");
            let set: HashSet<usize> = all.iter().copied().collect();
            assert_eq!(set.len(), N, "{p:?}: duplicated elements");
        }
    }

    #[test]
    fn concurrent_steal_boxed_values() {
        // Heap values: leaks/double frees would crash under ASan and often
        // corrupt the heap; the exactly-once accounting doubles as a check.
        const N: usize = 20_000;
        for p in [Protocol::Classic, Protocol::fence_elided()] {
            let (w, s): (Worker<Box<usize>>, Stealer<Box<usize>>) = Worker::new_with(p);
            let total = std::sync::Arc::new(AtomicUsize::new(0));
            let done = std::sync::Arc::new(AtomicUsize::new(0));
            let mut handles = Vec::new();
            for _ in 0..3 {
                let s = s.clone();
                let total = total.clone();
                let done = done.clone();
                handles.push(thread::spawn(move || loop {
                    match s.steal() {
                        Steal::Success(v) => {
                            total.fetch_add(*v, Ordering::Relaxed);
                            done.fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Empty => {
                            if done.load(Ordering::Relaxed) >= N {
                                break;
                            }
                            thread::yield_now();
                        }
                        Steal::Retry => {}
                    }
                }));
            }
            for i in 0..N {
                w.push(Box::new(1usize + (i % 7)));
            }
            while let Some(v) = w.pop() {
                total.fetch_add(*v, Ordering::Relaxed);
                done.fetch_add(1, Ordering::Relaxed);
            }
            for h in handles {
                h.join().expect("thief panicked");
            }
            let expected: usize = (0..N).map(|i| 1 + (i % 7)).sum();
            assert_eq!(total.load(Ordering::Relaxed), expected, "{p:?}");
        }
    }

    #[test]
    fn steal_batch_moves_in_order() {
        let (victim, stealer) = Worker::new();
        let (thief, _ts) = Worker::new();
        for i in 0..20 {
            victim.push(i);
        }
        let moved = stealer.steal_batch(&thief, 5);
        assert_eq!(moved, 5);
        // The thief received the oldest elements 0..5, and pops LIFO.
        assert_eq!(thief.pop(), Some(4));
        assert_eq!(thief.pop(), Some(3));
        // The victim keeps the rest.
        assert_eq!(victim.len(), 15);
    }

    #[test]
    fn steal_batch_respects_emptiness() {
        let (_victim, stealer) = Worker::<u8>::new();
        let (thief, _ts) = Worker::new();
        assert_eq!(stealer.steal_batch(&thief, 8), 0);
        assert!(thief.is_empty());
    }

    #[test]
    fn steal_batch_limit_zero() {
        let (victim, stealer) = Worker::new();
        let (thief, _ts) = Worker::new();
        victim.push(1);
        assert_eq!(stealer.steal_batch(&thief, 0), 0);
        assert_eq!(victim.len(), 1);
    }

    #[test]
    fn steal_with_retries_empty() {
        let (_w, s) = Worker::<u8>::new();
        assert_eq!(s.steal_with_retries(4), None);
    }

    #[test]
    fn worker_is_send_not_sync() {
        fn assert_send<T: Send>() {}
        assert_send::<Worker<u32>>();
        assert_send::<Stealer<u32>>();
        fn assert_sync<T: Sync>() {}
        assert_sync::<Stealer<u32>>();
        // Worker<T> must NOT be Sync; enforced by PhantomData<Cell<()>>.
        // (Compile-fail is covered by the type design; nothing to run.)
    }

    #[test]
    fn seal_drains_oldest_first() {
        for p in protocols() {
            let (w, s) = Worker::new_with(p);
            for i in 0..10 {
                w.push(i);
            }
            assert!(!s.is_sealed());
            let drained = w.seal();
            assert!(w.is_sealed());
            assert!(s.is_sealed());
            assert_eq!(drained, (0..10).collect::<Vec<_>>(), "{p:?}");
            assert!(w.is_empty());
            assert!(s.steal().is_empty());
            w.unseal();
        }
    }

    #[test]
    fn unseal_reopens_for_pushes() {
        let (w, s) = Worker::new();
        w.push(1);
        assert_eq!(w.seal(), vec![1]);
        w.unseal();
        assert!(!s.is_sealed());
        w.push(2);
        assert_eq!(s.steal(), Steal::Success(2));
    }

    #[test]
    fn unseal_reopens_for_pushes_elided() {
        let (w, s) = Worker::new_with(Protocol::FenceElided { retain: 2, publish_batch: 2 });
        w.push(1);
        assert_eq!(w.seal(), vec![1]);
        w.unseal();
        assert!(!s.is_sealed());
        w.push(2);
        w.publish();
        assert_eq!(s.steal(), Steal::Success(2));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "push on a sealed deque")]
    fn push_on_sealed_asserts() {
        let (w, _s) = Worker::new();
        let _ = w.seal();
        w.push(1);
    }

    #[test]
    fn seal_races_thieves_exactly_once() {
        // Elements are split between the sealing owner and concurrent
        // thieves, never lost or duplicated.
        const N: usize = 20_000;
        const THIEVES: usize = 3;
        for p in [Protocol::Classic, Protocol::fence_elided()] {
            for _round in 0..4 {
                let (w, s) = Worker::new_with(p);
                for i in 0..N {
                    w.push(i);
                }
                let barrier = std::sync::Arc::new(std::sync::Barrier::new(THIEVES + 1));
                let mut handles = Vec::new();
                for _ in 0..THIEVES {
                    let s = s.clone();
                    let barrier = barrier.clone();
                    handles.push(thread::spawn(move || {
                        barrier.wait();
                        let mut got = Vec::new();
                        loop {
                            match s.steal() {
                                Steal::Success(v) => got.push(v),
                                Steal::Empty => {
                                    if s.is_sealed() {
                                        break;
                                    }
                                    thread::yield_now();
                                }
                                Steal::Retry => {}
                            }
                        }
                        got
                    }));
                }
                barrier.wait();
                let mut all = w.seal();
                for h in handles {
                    all.extend(h.join().expect("thief panicked"));
                }
                assert_eq!(all.len(), N, "{p:?}: lost or duplicated elements across seal");
                let set: HashSet<usize> = all.iter().copied().collect();
                assert_eq!(set.len(), N, "{p:?}: duplicated elements across seal");
            }
        }
    }

    #[test]
    fn debug_is_nonempty() {
        let (w, s) = Worker::<u8>::new();
        assert!(!format!("{w:?}").is_empty());
        assert!(!format!("{s:?}").is_empty());
        assert!(!format!("{:?}", Deque::<u8>::new()).is_empty());
    }
}
