//! Growable circular buffer backing the Chase–Lev deque.
//!
//! A [`Buffer`] is a fixed-capacity, power-of-two ring of possibly
//! uninitialized slots. It performs **no** synchronization and **no** drop
//! bookkeeping of its own: the deque algorithm in [`crate::Worker`] /
//! [`crate::Stealer`] is responsible for ensuring that every slot is read by
//! exactly one logical owner.

use std::alloc::{self, Layout};
use std::ptr;

/// A fixed-capacity ring buffer of raw slots indexed by unbounded `isize`
/// positions (the deque's `top`/`bottom` counters), wrapped modulo capacity.
pub(crate) struct Buffer<T> {
    ptr: *mut T,
    cap: usize,
}

impl<T> Buffer<T> {
    /// Allocates a buffer with capacity `cap`.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero, not a power of two, or if allocation fails.
    pub(crate) fn alloc(cap: usize) -> Box<Self> {
        assert!(cap > 0 && cap.is_power_of_two(), "capacity must be a power of two");
        let layout = Layout::array::<T>(cap).expect("buffer layout overflow");
        // A zero-sized `T` gets a zero-size layout: no allocation, and a
        // dangling pointer is a valid pointer to every slot.
        let ptr = if layout.size() == 0 {
            ptr::NonNull::<T>::dangling().as_ptr()
        } else {
            // SAFETY: `layout` has non-zero size (checked just above).
            let raw = unsafe { alloc::alloc(layout) };
            if raw.is_null() {
                alloc::handle_alloc_error(layout);
            }
            raw.cast::<T>()
        };
        Box::new(Buffer { ptr, cap })
    }

    /// Capacity of the buffer (always a power of two).
    #[inline]
    pub(crate) fn cap(&self) -> usize {
        self.cap
    }

    /// Returns the raw slot pointer for logical index `index`.
    #[inline]
    pub(crate) fn at(&self, index: isize) -> *mut T {
        // `cap` is a power of two, so `index & (cap - 1)` wraps correctly
        // even for negative indices in two's complement.
        let mask = self.cap as isize - 1;
        // SAFETY: the masked index is within `[0, cap)`.
        unsafe { self.ptr.offset(index & mask) }
    }

    /// Writes `value` into the slot for `index` without dropping the
    /// previous contents.
    ///
    /// # Safety
    ///
    /// The caller must guarantee exclusive access to the slot for the
    /// duration of the write and that any previous value in the slot has
    /// already been moved out or is allowed to be overwritten.
    #[inline]
    pub(crate) unsafe fn write(&self, index: isize, value: T) {
        ptr::write(self.at(index), value);
    }

    /// Reads the value at `index`, leaving the slot logically uninitialized.
    ///
    /// # Safety
    ///
    /// The slot must contain a valid `T` and the deque protocol must ensure
    /// at most one reader ever materializes ownership of this value (a
    /// failed competing reader must `mem::forget` its copy).
    #[inline]
    pub(crate) unsafe fn read(&self, index: isize) -> T {
        ptr::read(self.at(index))
    }
}

impl<T> Drop for Buffer<T> {
    fn drop(&mut self) {
        let layout = Layout::array::<T>(self.cap).expect("buffer layout overflow");
        if layout.size() != 0 {
            // SAFETY: allocated with the identical layout in `alloc`.
            // Elements are *not* dropped here; the deque drops live
            // elements before releasing its buffers.
            unsafe { alloc::dealloc(self.ptr.cast(), layout) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_within_capacity() {
        let buf = Buffer::<u64>::alloc(8);
        for i in 0..8 {
            // SAFETY: one thread owns the buffer; slot `i` is empty.
            unsafe { buf.write(i, i as u64 * 10) };
        }
        for i in 0..8 {
            // SAFETY: slot `i` holds the value written above, read once.
            assert_eq!(unsafe { buf.read(i) }, i as u64 * 10);
        }
    }

    #[test]
    fn wraps_modulo_capacity() {
        let buf = Buffer::<u32>::alloc(4);
        // SAFETY: one thread owns the buffer; the slot is empty.
        unsafe { buf.write(5, 55) };
        // index 5 and index 1 share a slot when cap = 4
        // SAFETY: that slot holds the `u32` just written, read once.
        assert_eq!(unsafe { buf.read(1) }, 55);
    }

    #[test]
    fn negative_indices_wrap() {
        let buf = Buffer::<u32>::alloc(4);
        // SAFETY: one thread owns the buffer; the slot is empty.
        unsafe { buf.write(-1, 99) };
        // SAFETY: index 3 is the slot index -1 wrote, read once.
        assert_eq!(unsafe { buf.read(3) }, 99);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = Buffer::<u8>::alloc(3);
    }

    #[test]
    fn zero_sized_elements() {
        let buf = Buffer::<()>::alloc(16);
        // SAFETY: one thread owns the buffer; `()` needs no memory.
        unsafe { buf.write(3, ()) };
        // SAFETY: slot 3 holds the `()` just written, read once.
        unsafe { buf.read(3) };
        assert_eq!(buf.cap(), 16);
    }
}
