//! A counting [`GlobalAlloc`] wrapper around the system allocator.
//!
//! The pooled launch engine's claim is *fewer heap allocations per warp*;
//! wall clock alone cannot verify that (the allocator may be fast enough
//! to hide in noise on a small dataset). This wrapper counts every
//! `alloc`/`realloc` call and the bytes requested, with two relaxed
//! atomic increments per call — cheap enough to leave on for the whole
//! crate (see the `#[global_allocator]` in `lib.rs`).
//!
//! Counters are process-global and monotone; measure with
//! [`snapshot`] / [`AllocSnapshot::since`] deltas, and keep concurrent
//! allocating work out of the measured window: every test that measures
//! a delta — and every allocation-heavy test that could run in the same
//! process — must hold [`measurement_lock`] for its duration.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper counting allocation calls and bytes requested.
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counters are lock-free atomics
// and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A regrow is a fresh request for `new_size` bytes: count the whole
        // new block, mirroring how `Vec` growth stresses the allocator.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Monotone allocation counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocation calls (`alloc` + `alloc_zeroed` + `realloc`) so far.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Counters accumulated since an earlier snapshot.
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// The current process-global allocation counters.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot { allocs: ALLOCS.load(Ordering::Relaxed), bytes: BYTES.load(Ordering::Relaxed) }
}

/// Serializes windows that read the process-global counters against any
/// other allocation-heavy work in the same process. Code that compares
/// [`snapshot`] deltas (the host-throughput tests, the benchmark's
/// measured runs) must hold this while measuring, and long allocating
/// work sharing the process must hold it too — otherwise the harness
/// interleaves them and the bystander's allocations land inside the
/// measured delta.
pub fn measurement_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_vec_allocations() {
        let before = snapshot();
        let v: Vec<u64> = Vec::with_capacity(1024);
        let after = snapshot();
        drop(v);
        let d = after.since(&before);
        assert!(d.allocs >= 1, "with_capacity must hit the allocator");
        assert!(d.bytes >= 8 * 1024, "at least the requested block: {}", d.bytes);
    }
}
