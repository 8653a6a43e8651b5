//! Reusable `f64` memory for the kernels and for FSI's blocks: borrowed
//! scratch windows and owned pooled buffers, both cache-line aligned.
//!
//! # Borrowed scratch ([`with_scratch`])
//!
//! The packed GEMM engine needs two pack buffers (an `MC × KC` panel of A
//! and a `KC × NC` panel of B) on every call, and the blocked QR
//! application needs a `kb × n` reflector workspace per block. Allocating
//! those with `Vec` on every kernel invocation puts an allocator
//! round-trip on the hottest path of the workspace; this module instead
//! keeps a small per-thread stack of `f64` buffers that kernels borrow for
//! the duration of one call.
//!
//! [`with_scratch`] pops a buffer (allocating only if the stack is empty),
//! grows it if needed, hands a window of it to the closure, and pushes it
//! back afterwards. Nested borrows simply pop further buffers, so the
//! mechanism is reentrancy-safe — a kernel that borrows scratch may call
//! another kernel that borrows scratch — and pool worker threads (which
//! persist across [`crate::ThreadPool::scope`] calls) reuse their buffers
//! across every job they run.
//!
//! The window **starts on a cache line** ([`CACHE_LINE`] bytes): the
//! AVX-512 micro-kernel reads the packed A panel with two 64-byte loads
//! per depth step, and from a buffer that is only 16-byte aligned (all
//! `malloc` promises) every one of them splits a line — 26 instead of
//! 46 Gflop/s at N = 144 (EXPERIMENTS.md). The buffer is over-allocated by
//! one line and the window offset into it; no `unsafe`, no special
//! allocator call.
//!
//! # Owned buffers ([`take`] / [`give`])
//!
//! A selected inversion returns its blocks to the caller, so their memory
//! cannot be closure-scoped; and DQMC asks for the same-shaped selection
//! thousands of times. Freed through the allocator, those 33.5 MB go back
//! to the OS and are page-faulted in again on the next call — a third of
//! the call's CPU time at N = 64 (EXPERIMENTS.md). [`take`] hands out an
//! owned `Vec<f64>` of an exact length from a process-wide free list keyed
//! by that length, [`give`] puts it back. The list is process-wide because
//! blocks are allocated on pool workers and dropped by the caller's
//! thread. `fsi_dense::Matrix` wraps the pair — every matrix above a small
//! size floor takes its buffer here and gives it back when dropped — so no
//! caller handles raw buffers, and no early return can forget one.
//!
//! The free list bounds itself. With `out` the bytes currently checked
//! out and `high` the most that were ever checked out at once, it retains
//! at most `high + high/8 − out`: memory held by the pool plus memory
//! held by its users never exceeds what the users alone held at their
//! peak by more than an eighth, and there is no cap to configure. The
//! eighth is there because shapes peak at different moments: in every
//! workload of the benchmark the per-shape peaks add up to 2–3 % more than
//! the overall peak, and a pool held to exactly `high` would evict and
//! reallocate that remainder on every call, forever. A `give` always fits
//! under the rule; a `take` that misses allocates fresh memory and first
//! evicts retained buffers, smallest first, until it holds again.
//! [`release_pool`] frees everything retained and restarts the high-water
//! mark from what is checked out now.
//!
//! # Contents
//!
//! Neither kind of buffer is cleared between uses: callers must treat the
//! memory as uninitialized garbage and overwrite every element they read
//! back (the pack routines, `beta = 0` store-mode products and block
//! copies do exactly that). Under `debug_assertions` — which includes
//! `--profile checked` — pooled buffers are filled with NaN whenever they
//! change hands, so a block that is not completely overwritten trips
//! `health::check_block` at the next stage boundary instead of returning
//! the previous call's numbers.

use crate::metrics::{LazyCounter, LazyGauge};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// Bytes per cache line: the alignment of every scratch window and of
/// every buffer offset computed with [`line_offset`].
pub const CACHE_LINE: usize = 64;
/// `f64`s per cache line — what an aligned window over-allocates.
pub const LINE_F64: usize = CACHE_LINE / std::mem::size_of::<f64>();

/// How many leading `f64`s of a buffer starting at `ptr` to skip so that
/// the rest starts on a cache line (`0..LINE_F64`).
#[inline]
pub fn line_offset(ptr: *const f64) -> usize {
    (ptr as usize).wrapping_neg() % CACHE_LINE / std::mem::size_of::<f64>()
}

/// Scratch borrows served (stack hit or miss): the denominator for
/// scratch churn. The batched small-GEMM paths exist to keep this flat
/// across a refresh — one borrow per worker chunk instead of one per
/// product.
static BORROWS: LazyCounter = LazyCounter::new("runtime.workspace.borrows");
/// Borrows that had to touch the allocator (empty stack, or a growing
/// resize). Steady state should serve every borrow from the stack, so this
/// counter staying near its warm-up value is the health signal.
static ALLOCS: LazyCounter = LazyCounter::new("runtime.workspace.allocs");

thread_local! {
    /// Per-thread stack of reusable buffers. Depth is bounded by the
    /// deepest nesting of `with_scratch` calls (≤ 4 in this workspace:
    /// the QR apply's two intermediates > B-pack > A-pack).
    static SCRATCH: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
}

/// Borrows a thread-local, cache-line-aligned scratch slice of `len`
/// `f64`s for the duration of `f`.
///
/// The slice contents are unspecified on entry (stale data from a previous
/// borrow); the caller must overwrite before reading. Reentrant: `f` may
/// itself call [`with_scratch`].
pub fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    BORROWS.inc();
    let popped = SCRATCH.with(|s| s.borrow_mut().pop());
    let pool_miss = popped.is_none();
    let mut buf = popped.unwrap_or_default();
    let need = len + LINE_F64;
    if pool_miss || buf.len() < need {
        ALLOCS.inc();
    }
    if buf.len() < need {
        buf.resize(need, 0.0);
    }
    let off = line_offset(buf.as_ptr());
    let out = f(&mut buf[off..off + len]);
    SCRATCH.with(|s| s.borrow_mut().push(buf));
    out
}

/// Borrows two independent thread-local scratch slices at once (the
/// pack-buffer pair of the GEMM engine).
pub fn with_scratch2<R>(
    len_a: usize,
    len_b: usize,
    f: impl FnOnce(&mut [f64], &mut [f64]) -> R,
) -> R {
    with_scratch(len_a, |a| with_scratch(len_b, |b| f(a, b)))
}

/// The pool and its users together may hold `1/SLACK_DIVISOR` more than
/// the high-water mark (see the module docs for why not zero).
const SLACK_DIVISOR: usize = 8;

/// [`take`]s served from the free list.
static POOL_HITS: LazyCounter = LazyCounter::new("runtime.workspace.pool_hits");
/// [`take`]s that allocated: warm-up, a new shape, or after an eviction.
static POOL_MISSES: LazyCounter = LazyCounter::new("runtime.workspace.pool_misses");
/// Bytes the free list holds right now.
static POOL_RETAINED: LazyGauge = LazyGauge::new("runtime.workspace.pool_retained_bytes");
/// Most bytes ever checked out at once (since the last [`release_pool`]).
static POOL_HIGH_WATER: LazyGauge = LazyGauge::new("runtime.workspace.pool_high_water_bytes");

/// The process-wide free list and its accounting, all in bytes.
/// Invariant, restored before the lock is released:
/// `retained + out ≤ cap(high)`.
struct Pool {
    /// Retained buffers by length in `f64`s.
    free: BTreeMap<usize, Vec<Vec<f64>>>,
    retained: usize,
    out: usize,
    high: usize,
}

/// Most bytes the pool and its users may hold together at high-water
/// mark `high`.
fn cap(high: usize) -> usize {
    high + high / SLACK_DIVISOR
}

static POOL: Mutex<Pool> = Mutex::new(Pool {
    free: BTreeMap::new(),
    retained: 0,
    out: 0,
    high: 0,
});

/// A reading of the block pool's accounting, consistent across fields.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Bytes held by the free list.
    pub retained_bytes: usize,
    /// Bytes handed out by [`take`] and not yet handed back.
    pub checked_out_bytes: usize,
    /// Most bytes checked out at once since the last [`release_pool`].
    pub high_water_bytes: usize,
}

impl PoolStats {
    /// The bound `retained_bytes + checked_out_bytes` never exceeds: the
    /// high-water mark plus an eighth.
    pub fn cap_bytes(&self) -> usize {
        cap(self.high_water_bytes)
    }
}

/// Every update below leaves the pool valid at each step (a panic between
/// two of them can at worst lose a buffer to the allocator), so a poisoned
/// lock is recovered rather than propagated — `give` runs inside `Drop`.
fn lock_pool() -> MutexGuard<'static, Pool> {
    POOL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn bytes_of(len: usize) -> usize {
    len * std::mem::size_of::<f64>()
}

fn publish(pool: &Pool) {
    POOL_RETAINED.set(pool.retained as f64);
    POOL_HIGH_WATER.set(pool.high as f64);
}

/// Takes an owned buffer of exactly `len` `f64`s from the process-wide
/// block pool, allocating if none of that length is retained. Contents are
/// unspecified (NaN under `debug_assertions`); hand it back with [`give`].
pub fn take(len: usize) -> Vec<f64> {
    if len == 0 {
        return Vec::new();
    }
    let bytes = bytes_of(len);
    let mut evicted = Vec::new();
    let hit = {
        let mut guard = lock_pool();
        let pool = &mut *guard;
        let hit = pool.free.get_mut(&len).and_then(Vec::pop);
        pool.out += bytes;
        pool.high = pool.high.max(pool.out);
        match hit {
            Some(_) => pool.retained -= bytes,
            // Make room for the allocation below, smallest buffers first:
            // they are the cheapest to allocate again should their shape
            // come back (a large one costs a page fault per 4 KiB).
            None => {
                while pool.retained + pool.out > cap(pool.high) {
                    let Some(mut class) = pool.free.first_entry() else {
                        break;
                    };
                    match class.get_mut().pop() {
                        Some(buf) => {
                            pool.retained -= bytes_of(buf.len());
                            evicted.push(buf);
                        }
                        None => {
                            class.remove();
                        }
                    }
                }
            }
        }
        publish(pool);
        hit
    };
    drop(evicted); // freed outside the lock
    match hit {
        Some(buf) => {
            POOL_HITS.inc();
            buf
        }
        None => {
            POOL_MISSES.inc();
            // `calloc`: large buffers arrive as lazily mapped zero pages,
            // so memory a caller never writes is never resident.
            let mut buf = vec![0.0; len];
            if cfg!(debug_assertions) {
                buf.fill(f64::NAN);
            }
            buf
        }
    }
}

/// Hands a buffer obtained from [`take`] back to the pool. Under
/// `debug_assertions` it is filled with NaN first (the stale-data guard).
pub fn give(mut buf: Vec<f64>) {
    if buf.is_empty() {
        return;
    }
    if cfg!(debug_assertions) {
        buf.fill(f64::NAN);
    }
    let bytes = bytes_of(buf.len());
    let mut pool = lock_pool();
    // Saturating so that a buffer that never came from `take` cannot
    // underflow the accounting.
    pool.out = pool.out.saturating_sub(bytes);
    if pool.retained + bytes + pool.out <= cap(pool.high) {
        pool.retained += bytes;
        pool.free.entry(buf.len()).or_default().push(buf);
    }
    publish(&pool);
}

/// Frees every buffer the block pool retains and restarts its high-water
/// mark from what is checked out now — the way to give FSI's block memory
/// back to the OS (the service calls it when it drains or shuts down).
/// Buffers still checked out are unaffected and are retained again when
/// they come back.
pub fn release_pool() {
    let freed = {
        let mut pool = lock_pool();
        pool.retained = 0;
        pool.high = pool.out;
        publish(&pool);
        std::mem::take(&mut pool.free)
    };
    drop(freed);
}

/// The block pool's current accounting.
pub fn pool_stats() -> PoolStats {
    let pool = lock_pool();
    PoolStats {
        retained_bytes: pool.retained,
        checked_out_bytes: pool.out,
        high_water_bytes: pool.high,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_has_requested_length() {
        with_scratch(17, |s| assert_eq!(s.len(), 17));
        with_scratch(3, |s| assert_eq!(s.len(), 3));
    }

    #[test]
    fn scratch_windows_start_on_a_cache_line() {
        for len in [1, 7, 64, 1000] {
            with_scratch2(len, len + 3, |a, b| {
                assert_eq!(a.as_ptr() as usize % CACHE_LINE, 0);
                assert_eq!(b.as_ptr() as usize % CACHE_LINE, 0);
            });
        }
    }

    #[test]
    fn buffers_are_reused_across_calls() {
        let p1 = with_scratch(64, |s| {
            s.fill(1.0);
            s.as_ptr() as usize
        });
        let p2 = with_scratch(64, |s| s.as_ptr() as usize);
        assert_eq!(p1, p2, "second borrow reuses the pooled allocation");
    }

    #[test]
    fn nested_borrows_are_distinct() {
        with_scratch(8, |a| {
            a.fill(1.0);
            with_scratch(8, |b| {
                b.fill(2.0);
                assert!(a.iter().all(|&x| x == 1.0));
            });
            assert!(a.iter().all(|&x| x == 1.0));
        });
    }

    #[test]
    fn scratch2_gives_disjoint_slices() {
        with_scratch2(10, 20, |a, b| {
            assert_eq!(a.len(), 10);
            assert_eq!(b.len(), 20);
            a.fill(-1.0);
            b.fill(3.0);
            assert!(a.iter().all(|&x| x == -1.0));
        });
    }

    /// The pool is process-wide and the tests of this binary run on
    /// parallel threads: the tests that take from it run one at a time.
    static POOL_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn a_given_buffer_is_taken_again() {
        let _serial = POOL_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let len = 12_345;
        let buf = take(len);
        assert_eq!(buf.len(), len);
        let addr = buf.as_ptr() as usize;
        give(buf);
        let again = take(len);
        assert_eq!(again.as_ptr() as usize, addr, "same allocation");
        if cfg!(debug_assertions) {
            assert!(again.iter().all(|x| x.is_nan()), "stale-data guard");
        }
        give(again);
    }

    #[test]
    fn retained_plus_checked_out_never_exceeds_the_cap() {
        let _serial = POOL_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let check = || {
            let s = pool_stats();
            assert!(s.retained_bytes + s.checked_out_bytes <= s.cap_bytes());
        };
        // Many small buffers, then one large: the miss must evict.
        let small: Vec<_> = (0..64).map(|_| take(1_001)).collect();
        check();
        small.into_iter().for_each(give);
        check();
        let large = take(64 * 1_001 + 7);
        check();
        give(large);
        check();
    }

    #[test]
    fn empty_buffers_bypass_the_pool() {
        assert!(take(0).is_empty());
        give(Vec::new());
    }
}
