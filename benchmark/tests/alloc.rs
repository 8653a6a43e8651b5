//! Alone in its test binary, so no other test thread allocates while the
//! process-wide counters are read.

use fsi_benchmark::alloc;

#[test]
fn counts_a_known_vec_allocation_exactly() {
    let (v, tally) = alloc::measure(|| Vec::<u8>::with_capacity(1000));
    assert_eq!((tally.calls, tally.bytes), (1, 1000));
    drop(v);

    // Growth is a realloc: one more call, counted at its new size.
    let mut v = Vec::<u64>::with_capacity(4);
    let ((), tally) = alloc::measure(|| v.reserve_exact(100));
    assert_eq!((tally.calls, tally.bytes), (1, 800));

    let ((), tally) = alloc::measure(|| ());
    assert_eq!(tally, alloc::Tally::default());

    let (m, tally) = alloc::measure(|| fsi_dense::Matrix::zeros(8, 8));
    assert_eq!((tally.calls, tally.bytes), (1, 8 * 8 * 8));
    drop(m);
}
