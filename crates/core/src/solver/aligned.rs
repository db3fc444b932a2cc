//! 64-byte-aligned `f64` buffers for the batched chunk matrices.
//!
//! The lane sweep (`super::simd`) streams 8-lane blocks through the
//! chunk's `cur`/`next`/`power_dt` matrices. `Vec<f64>` only
//! guarantees 8-byte alignment, so a 64-byte (cache-line / AVX-512
//! register) block could straddle two lines. [`AlignedVec`] is a
//! minimal fixed-length `f64` buffer whose storage is allocated at
//! 64-byte alignment; it derefs to `[f64]` so the rest of the batch
//! code is oblivious. Chunk row strides are padded to 8 lanes
//! (`simd::LANE_PAD`), one cache line, so an aligned start keeps every
//! row of every chunk line-aligned. The sweep is correct without it —
//! it is safe code over slices — but not as fast: with plain
//! `Vec<f64>` matrices `replay_steady` reads 14.0 M machine-ticks/s
//! against 16.0 M (0.85× on an alternated in-process measure), which
//! is what this module's `unsafe` buys.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Cache-line / widest-vector alignment for chunk matrices.
pub(crate) const MATRIX_ALIGN: usize = 64;

/// A fixed-length, zero-initialised `f64` buffer aligned to
/// [`MATRIX_ALIGN`] bytes. Supports exactly what the chunk matrices
/// need: allocate zeroed, index as a slice, swap via `std::mem::swap`.
pub(crate) struct AlignedVec {
    ptr: NonNull<f64>,
    len: usize,
}

// SAFETY: AlignedVec uniquely owns its allocation and holds plain
// `f64`s; it is as thread-safe as `Vec<f64>`.
#[allow(unsafe_code)]
unsafe impl Send for AlignedVec {}
#[allow(unsafe_code)]
unsafe impl Sync for AlignedVec {}

impl AlignedVec {
    /// Allocates `len` zeroed `f64`s at 64-byte alignment.
    #[allow(unsafe_code)]
    pub(crate) fn zeroed(len: usize) -> AlignedVec {
        let layout = Self::layout(len);
        // SAFETY: `layout` has non-zero size (len is clamped to >= 1
        // below) and valid alignment; a null return is routed to the
        // global allocation-error handler. All-zero bits are a valid
        // `f64` (0.0), so the buffer is fully initialised.
        let ptr = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(ptr.cast::<f64>()) else {
            handle_alloc_error(layout);
        };
        debug_assert_eq!(ptr.as_ptr() as usize % MATRIX_ALIGN, 0);
        AlignedVec { ptr, len }
    }

    fn layout(len: usize) -> Layout {
        // Zero-size allocations are UB with the global allocator;
        // round a zero-length buffer up to one element.
        Layout::from_size_align(len.max(1) * std::mem::size_of::<f64>(), MATRIX_ALIGN)
            .expect("chunk matrix layout")
    }
}

impl Drop for AlignedVec {
    #[allow(unsafe_code)]
    fn drop(&mut self) {
        // SAFETY: `ptr` came from `alloc_zeroed` with this exact layout.
        unsafe { dealloc(self.ptr.as_ptr().cast(), Self::layout(self.len)) };
    }
}

impl Deref for AlignedVec {
    type Target = [f64];
    #[allow(unsafe_code)]
    fn deref(&self) -> &[f64] {
        // SAFETY: the allocation holds `len` initialised f64s.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl DerefMut for AlignedVec {
    #[allow(unsafe_code)]
    fn deref_mut(&mut self) -> &mut [f64] {
        // SAFETY: as above; `&mut self` guarantees uniqueness.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl std::fmt::Debug for AlignedVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedVec")
            .field("len", &self.len)
            .field("align", &MATRIX_ALIGN)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_buffers_are_zeroed_aligned_and_swappable() {
        for len in [0usize, 1, 7, 32, 32 * 12] {
            let mut a = AlignedVec::zeroed(len);
            assert_eq!(a.len(), len);
            assert_eq!(a.as_ptr() as usize % MATRIX_ALIGN, 0);
            assert!(a.iter().all(|&x| x == 0.0));
            if len > 0 {
                a[len - 1] = 42.0;
            }
            let mut b = AlignedVec::zeroed(len);
            std::mem::swap(&mut a, &mut b);
            if len > 0 {
                assert_eq!(b[len - 1], 42.0);
                assert_eq!(a[len - 1], 0.0);
            }
        }
    }
}
