//! Counting wrapper around the system allocator.
//!
//! Every allocator call that can hand out memory (`alloc`, `alloc_zeroed`,
//! `realloc`) adds one to the call count and its requested size to the
//! byte count. The counters are process-wide relaxed atomics: they are
//! statistics, publish no other data, and cost two uncontended adds per
//! call — the same in the untraced and the traced run, because both are
//! the same binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The counting allocator; installed as `#[global_allocator]` in `lib.rs`.
pub struct Counting;

fn count(size: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocator calls and requested bytes, either since process start
/// ([`now`]) or between two readings ([`Tally::since`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub calls: u64,
    /// Bytes requested by those calls (`realloc` counts its new size).
    pub bytes: u64,
}

impl Tally {
    /// The growth from `earlier` to `self`.
    pub fn since(self, earlier: Tally) -> Tally {
        Tally {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Current process-wide totals.
pub fn now() -> Tally {
    Tally {
        calls: CALLS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Runs `f` and returns its result with what it allocated (on all threads).
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Tally) {
    let before = now();
    let out = f();
    (out, now().since(before))
}
