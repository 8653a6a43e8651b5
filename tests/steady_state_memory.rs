//! What the block pool and the aligned buffers promise, measured with this
//! binary's own counting allocator: a warm `fsi_with_q` hardly touches the
//! system allocator, matrix and scratch memory sit on cache lines, tiny
//! matrices stay exact, and the pool never outgrows its bound.
//!
//! One test function: the counters and the pool are process-wide, so the
//! phases must not run beside each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use fsi::dense::Matrix;
use fsi::pcyclic::random_pcyclic;
use fsi::runtime::workspace::{self, CACHE_LINE};
use fsi::selinv::{fsi_with_q, Parallelism, Pattern, Selection};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Counts every call that can hand out memory and the bytes it asks for
/// (statistics only: relaxed, they publish nothing).
struct Counting;

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
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(calls, bytes)` requested from the system allocator while `f` runs.
fn measure<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let out = f();
    (
        out,
        CALLS.load(Ordering::Relaxed) - calls,
        BYTES.load(Ordering::Relaxed) - bytes,
    )
}

fn on_a_line(data: &[f64]) -> bool {
    (data.as_ptr() as usize).is_multiple_of(CACHE_LINE)
}

#[test]
fn warm_calls_reuse_their_memory_and_buffers_sit_on_cache_lines() {
    // Tiny matrices are exact: one allocation of rows·cols doubles (the
    // frozen benchmark's allocation probe relies on it).
    let (small, calls, bytes) = measure(|| Matrix::zeros(8, 8));
    assert_eq!((calls, bytes), (1, 8 * 8 * 8));
    drop(small);

    // A dropped matrix's buffer is the next same-shaped matrix's buffer,
    // whatever it is asked to hold (the first hit registers its meter,
    // the second is free of the allocator).
    let mut m = Matrix::zeros(64, 64);
    assert!(on_a_line(m.as_slice()));
    m.as_mut().fill(7.0);
    let addr = m.as_slice().as_ptr();
    drop(m);
    drop(Matrix::pooled(64, 64));
    let (again, calls, _) = measure(|| Matrix::zeros(64, 64));
    assert_eq!(again.as_slice().as_ptr(), addr);
    assert_eq!(calls, 0, "served by the pool");
    assert!(again.as_slice().iter().all(|&x| x == 0.0));
    drop(again);

    workspace::with_scratch2(100, 1000, |a, b| assert!(on_a_line(a) && on_a_line(b)));

    // Steady state of a column selection at N = 16, L = 32, c = 4: the
    // third call asks the allocator for a fraction of what it returns.
    let pc = random_pcyclic(16, 32, 2016);
    let selection = Selection::new(Pattern::Columns, 4, 1);
    let call = |pc| fsi_with_q(Parallelism::Serial, pc, &selection).expect("healthy");
    let reference = call(&pc);
    drop(call(&pc));
    let (out, _, bytes) = measure(|| call(&pc));
    let returned = out.selected.bytes() as u64;
    assert_eq!(returned, 8 * 32 * 16 * 16 * 8);
    assert!(
        bytes < returned / 4,
        "third call requested {bytes} B for {returned} B of output"
    );
    for (&(k, l), blk) in out.selected.iter() {
        assert!(on_a_line(blk.as_slice()), "block ({k},{l})");
        assert_eq!(blk, reference.selected.get(k, l).expect("same coordinates"));
    }
    drop((out, reference, pc));

    // Two threads taking and giving buffers of several lengths, in step:
    // at every reading the pool and its users together stay within the
    // high-water mark plus its eighth of slack.
    workspace::release_pool();
    let in_step = Barrier::new(2);
    std::thread::scope(|s| {
        for t in 0..2 {
            let in_step = &in_step;
            s.spawn(move || {
                for round in 0..200 {
                    let lens = [1000 + 500 * t, 4000, 9000 - 1000 * (round % 3)];
                    let held: Vec<Vec<f64>> = lens
                        .iter()
                        .cycle()
                        .take(3 + round % 5)
                        .map(|&len| workspace::take(len))
                        .collect();
                    in_step.wait();
                    let stats = workspace::pool_stats();
                    assert!(
                        stats.retained_bytes + stats.checked_out_bytes <= stats.cap_bytes(),
                        "{stats:?}"
                    );
                    held.into_iter().for_each(workspace::give);
                }
            });
        }
    });
    let stats = workspace::pool_stats();
    assert_eq!(stats.checked_out_bytes, 0, "everything came back");
    assert!(stats.retained_bytes <= stats.cap_bytes());
    workspace::release_pool();
    assert_eq!(workspace::pool_stats().retained_bytes, 0);

    // The pool's meters ride the ordinary registry and exporters.
    let snapshot = fsi::runtime::metrics::snapshot();
    assert!(snapshot.counter("runtime.workspace.pool_hits") > 0);
    assert!(snapshot.counter("runtime.workspace.pool_misses") > 0);
    assert_eq!(
        snapshot.gauge("runtime.workspace.pool_retained_bytes"),
        Some(0.0)
    );
    let text = snapshot.to_prometheus();
    assert!(text.contains("fsi_runtime_workspace_pool_high_water_bytes"));
}
