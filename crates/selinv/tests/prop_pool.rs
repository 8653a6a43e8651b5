//! The block pool decides where a result's memory comes from, never what
//! the result is: selections computed on recycled, dirty buffers equal the
//! ones computed on fresh memory bit for bit — whatever ran before them,
//! on whatever schedule, and however it ended.
//!
//! Under `debug_assertions` every buffer that changes hands is NaN-filled,
//! so these tests also catch a block that is returned partly unwritten.

use fsi_pcyclic::{random_pcyclic, BlockPCyclic};
use fsi_runtime::health::inject::{self, FaultKind, Site};
use fsi_runtime::health::Stage;
use fsi_runtime::{workspace, ThreadPool};
use fsi_selinv::fsi::fsi_measurement_set;
use fsi_selinv::{
    bsofi, cls, fsi_with_q, wrap_all_diagonals, Parallelism, Pattern, SelectedInverse, Selection,
};
use proptest::prelude::*;

/// Block sizes: 5 stays below the pool's size floor, the rest are pooled.
const BLOCK_SIZES: [usize; 4] = [5, 12, 16, 24];

/// What to compute from a matrix.
#[derive(Clone, Copy, Debug)]
enum Request {
    /// `fsi_with_q` for one of the four patterns.
    Fsi(Pattern),
    /// CLS → dense BSOFI → `wrap_all_diagonals`.
    AllDiagonals,
    /// `fsi_measurement_set` (two selections).
    MeasurementSet,
}

const REQUESTS: [Request; 6] = [
    Request::Fsi(Pattern::Diagonal),
    Request::Fsi(Pattern::SubDiagonal),
    Request::Fsi(Pattern::Columns),
    Request::Fsi(Pattern::Rows),
    Request::AllDiagonals,
    Request::MeasurementSet,
];

/// One call: a request on an `(N, L = b·c)` matrix with shift `q`.
#[derive(Clone, Copy, Debug)]
struct Call {
    request: Request,
    n: usize,
    b: usize,
    c: usize,
    q: usize,
    seed: u64,
}

impl Call {
    fn matrix(&self) -> BlockPCyclic {
        random_pcyclic(self.n, self.b * self.c, self.seed)
    }
}

fn call() -> impl Strategy<Value = Call> {
    (0usize..6, 0usize..4, 2usize..4, 2usize..5, any::<u64>()).prop_map(|(r, ni, b, c, seed)| {
        Call {
            request: REQUESTS[r],
            n: BLOCK_SIZES[ni],
            b,
            c,
            q: seed as usize % c,
            seed,
        }
    })
}

/// The bits of a selection in coordinate order, on plain vectors — so
/// holding a result for comparison keeps no pooled buffer checked out.
type Bits = Vec<((usize, usize), Vec<u64>)>;

fn bits(sel: &SelectedInverse) -> Bits {
    sel.sorted_coordinates()
        .into_iter()
        .map(|(k, l)| {
            let blk = sel.get(k, l).expect("coordinate just listed");
            ((k, l), blk.as_slice().iter().map(|x| x.to_bits()).collect())
        })
        .collect()
}

/// Runs one call and lets go of everything but the bits of its result.
fn run(call: &Call, par: Parallelism<'_>) -> Vec<Bits> {
    let pc = call.matrix();
    let (c, q) = (call.c, call.q);
    match call.request {
        Request::Fsi(pattern) => {
            let out = fsi_with_q(par, &pc, &Selection::new(pattern, c, q)).expect("healthy");
            vec![bits(&out.selected)]
        }
        Request::AllDiagonals => {
            let (outer, inner) = par.split();
            let clustered = cls(outer, inner, &pc, c, q);
            let g = bsofi(outer, inner, &clustered.reduced);
            let diags = wrap_all_diagonals(outer, &pc, &clustered, &g).expect("healthy");
            vec![bits(&diags)]
        }
        Request::MeasurementSet => {
            let (merged, diags) = fsi_measurement_set(par, &pc, c, q).expect("healthy");
            vec![bits(&merged), bits(&diags)]
        }
    }
}

/// The tests of this file run one at a time: the drill at the bottom arms
/// a process-wide fault that the properties must not run into.
fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A sequence of calls of different shapes, each recycling what the
    /// ones before it dropped, repeated on a warm pool and again on an
    /// emptied one: three times the same bits.
    #[test]
    fn recycled_memory_does_not_change_a_bit(calls in proptest::collection::vec(call(), 3..7)) {
        let _guard = one_at_a_time();
        let first: Vec<_> = calls.iter().map(|c| run(c, Parallelism::Serial)).collect();
        // Every buffer the first pass used is back in the pool, dirty.
        let warm: Vec<_> = calls.iter().rev().map(|c| run(c, Parallelism::Serial)).collect();
        workspace::release_pool();
        let cold: Vec<_> = calls.iter().map(|c| run(c, Parallelism::Serial)).collect();
        for (i, call) in calls.iter().enumerate() {
            prop_assert!(first[i] == warm[calls.len() - 1 - i], "warm pool: {call:?}");
            prop_assert!(first[i] == cold[i], "after release_pool: {call:?}");
        }
    }

    /// Blocks taken on pool workers and given back by the caller: the
    /// schedule changes which buffer a block lands on, not its value.
    #[test]
    fn schedule_does_not_change_a_bit(call in call()) {
        let _guard = one_at_a_time();
        let serial = run(&call, Parallelism::Serial);
        for threads in 1..=4 {
            let pool = ThreadPool::new(threads);
            prop_assert!(
                serial == run(&call, Parallelism::OpenMp(&pool)),
                "OpenMp({threads}): {call:?}"
            );
            prop_assert!(
                serial == run(&call, Parallelism::MklStyle(&pool)),
                "MklStyle({threads}): {call:?}"
            );
        }
    }
}

/// A wrap that fails half-way hands its finished and its poisoned blocks
/// back to the pool; the next call gets them and must not show it.
#[test]
fn a_poisoned_wrap_leaves_no_trace_in_the_next_call() {
    let _guard = one_at_a_time();
    for pattern in [Pattern::Columns, Pattern::Rows, Pattern::SubDiagonal] {
        let call = Call {
            request: Request::Fsi(pattern),
            n: 16,
            b: 3,
            c: 4,
            q: 1,
            seed: 2016,
        };
        let clean = run(&call, Parallelism::Serial);
        // The seeds sit on block rows 2, 6, 10 (offset c − 1 − q): row 0
        // is reached only by a walk, after other blocks were produced.
        let pc = call.matrix();
        let selection = Selection::new(pattern, call.c, call.q);
        let block = match pattern {
            Pattern::Columns => 0,
            _ => inject::ANY_BLOCK,
        };
        inject::arm(Site {
            stage: Stage::Wrap,
            block,
            kind: FaultKind::Nan,
        });
        let failed = fsi_with_q(Parallelism::Serial, &pc, &selection);
        assert_eq!(inject::disarm(), 1, "{pattern:?}: the fault fired");
        assert!(failed.is_err(), "{pattern:?}: the probe caught it");
        drop(failed);
        assert!(
            clean == run(&call, Parallelism::Serial),
            "{pattern:?}: clean after a poisoned wrap"
        );
    }
}
