//! Parallel application of FSI to many Green's functions (paper Alg. 3)
//! and the node-memory model behind Fig. 9.
//!
//! DQMC needs selected inversions of *tens of thousands* of independent
//! p-cyclic matrices. Alg. 3 distributes them over MPI ranks: the root
//! generates the Hubbard–Stratonovich field parameters `h` (cheap to ship,
//! unlike the matrices), each rank builds its matrices locally and runs
//! the OpenMP FSI per matrix, and local measurement quantities are
//! combined with `MPI_Reduce`. [`run_multi`] is that loop in one process:
//! the paper's block distribution seeds one deque per rank
//! ([`fsi_runtime::StealQueues`]), each rank is a thread with its own
//! `threads_per_rank` pool running one [`MatrixTask`] per matrix, and a rank
//! that runs dry steals half of the fullest backlog — on Fig. 9's
//! equal-cost matrices that happens only at the tail. The `fsi-service`
//! crate builds its multi-tenant job queue on the same two pieces.
//!
//! Results are **bitwise independent** of the rank count, the thread count
//! and of who stole what, for the same `(seed, matrices, c, pattern)`:
//! fields come from one root RNG stream in matrix order, each matrix's
//! shift `q` is derived from `(seed, index)` alone (never from the rank
//! that happens to run it), and measurement vectors are summed in
//! matrix-index order.
//!
//! The memory model captures why the paper's Fig. 9 favors the hybrid
//! configuration: a rank must hold its matrix, the reduced inverse `Ḡ`,
//! and the selected blocks simultaneously; with 12 ranks per socket the
//! per-rank budget (≈2.5 GB on Edison) is exceeded already at `N = 576`,
//! so pure MPI configurations are infeasible exactly where the paper's
//! OOM-killer anecdote places them.
//!
//! Each matrix's clustering stage is the batched small-GEMM hot shape: in
//! the `Serial` and `OpenMp` rank configurations (`par_gemm` sequential)
//! the per-matrix CLS rides [`fsi_dense::gemm_batched`]'s lockstep path,
//! so a multi-matrix run issues one batched dispatch per chain position
//! per matrix instead of `b·(c−1)` individual small products. The
//! `selinv.multi.matrices` counter tracks driver progress in the metrics
//! registry.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use fsi_pcyclic::{hubbard_pcyclic, BlockBuilder, HsField, Spin};
use fsi_runtime::health::{FsiResult, HealthEvent};
use fsi_runtime::{trace, StealQueues, Stopwatch, ThreadPool};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::fsi::Parallelism;
use crate::patterns::{Pattern, SelectedInverse, Selection};

/// Configuration of a multi-matrix FSI run.
#[derive(Clone, Debug)]
pub struct MultiConfig {
    /// Number of message-passing ranks (MPI processes).
    pub ranks: usize,
    /// OpenMP-style threads per rank.
    pub threads_per_rank: usize,
    /// Number of independent Green's functions (matrices).
    pub matrices: usize,
    /// Cluster size `c`.
    pub c: usize,
    /// Selection pattern computed per matrix.
    pub pattern: Pattern,
    /// RNG seed for field generation and the per-matrix shift `q`.
    pub seed: u64,
}

/// Result of a multi-matrix run.
#[derive(Clone, Debug)]
pub struct MultiResult {
    /// Globally reduced measurement quantities (sum over matrices).
    pub global_measurements: Vec<f64>,
    /// Wall-clock seconds of the parallel region.
    pub seconds: f64,
    /// Total matrices processed.
    pub matrices: usize,
}

/// The per-matrix measurement hook: reduces a selected inversion to a
/// vector of quantities, which are summed across matrices and ranks (the
/// paper's `local_measurement_quantities` → `MPI_Reduce`).
pub type MeasureFn = dyn Fn(&SelectedInverse) -> Vec<f64> + Sync;

/// One matrix's unit of work: the per-matrix body of Alg. 3.
///
/// Owns the HS field, so whichever worker holds the task can
/// [`run`](MatrixTask::run) it. The shift `q` is derived from
/// `(seed, index, c)` alone, so results are independent of which worker
/// executes the task and in what order.
///
/// [`MatrixTask::degrade`] implements the per-job rung of the §II-C
/// recovery ladder: it halves the cluster size, so one sick job retries
/// smaller without touching its neighbors.
pub struct MatrixTask {
    index: usize,
    field: HsField,
    c: usize,
    pattern: Pattern,
    seed: u64,
    quantities: Option<Vec<f64>>,
    degradations: u32,
}

impl MatrixTask {
    /// Creates a task for matrix `index` with the given field and
    /// selection parameters. `seed` is the *run* seed; the per-matrix
    /// shift is derived from it and `index` alone, so it does not depend
    /// on the rank that runs the task.
    pub fn new(index: usize, field: HsField, c: usize, pattern: Pattern, seed: u64) -> Self {
        assert!(c > 0, "cluster size must be positive");
        MatrixTask {
            index,
            field,
            c,
            pattern,
            seed,
            quantities: None,
            degradations: 0,
        }
    }

    /// The matrix index this task computes.
    pub(crate) fn index(&self) -> usize {
        self.index
    }

    /// The cluster size the task currently runs with (shrinks on
    /// [`MatrixTask::degrade`]).
    pub fn c(&self) -> usize {
        self.c
    }

    /// Consumes the task, returning `(index, quantities)`.
    ///
    /// # Panics
    /// If [`MatrixTask::run`] has not succeeded since construction or the
    /// last [`MatrixTask::degrade`].
    pub fn into_quantities(self) -> (usize, Vec<f64>) {
        (
            self.index,
            self.quantities.expect("task must run before harvest"),
        )
    }

    /// Builds the p-cyclic matrix from the field, runs the selected
    /// inversion (Alg. 1) and measures it. The matrix and the selected
    /// blocks are dropped before this returns; only the measurement vector
    /// stays in the task.
    ///
    /// # Errors
    /// Propagates health-probe failures from the inversion; the caller may
    /// [`MatrixTask::degrade`] and run again.
    pub fn run(
        &mut self,
        par: Parallelism<'_>,
        builder: &BlockBuilder,
        measure: &MeasureFn,
    ) -> FsiResult<()> {
        static MATRICES: fsi_runtime::metrics::LazyCounter =
            fsi_runtime::metrics::LazyCounter::new("selinv.multi.matrices");
        let pc = hubbard_pcyclic(builder, &self.field, Spin::Up);
        let q = shift_for(self.seed, self.index, self.c);
        let selection = Selection::new(self.pattern, self.c, q);
        let out = crate::fsi::fsi_with_q(par, &pc, &selection)?;
        self.quantities = Some(measure(&out.selected));
        MATRICES.inc();
        Ok(())
    }

    /// Shrinks the cluster size (the §II-C "shrink `c`" rung scoped to
    /// this one task) and discards any earlier result.
    ///
    /// An even `c` halves (`c | L` and `2 | c` imply `c/2 | L`, so the
    /// clustering stays legal); an odd `c > 1` drops to 1 (plain block
    /// LU, no clustering). Returns `false` — without changing anything —
    /// once `c == 1`, the ladder's floor.
    pub fn degrade(&mut self) -> bool {
        if self.c == 1 {
            return false;
        }
        self.c = if self.c.is_multiple_of(2) {
            self.c / 2
        } else {
            1
        };
        self.degradations += 1;
        self.quantities = None;
        true
    }
}

/// The deterministic per-matrix shift `q ∈ [0, c)` (paper: "select `q`
/// randomly").
///
/// Derived from `(seed, index, c)` only — *not* from the rank or worker
/// executing the matrix — so every rank count and steal order produces
/// bitwise-identical selected inversions.
fn shift_for(seed: u64, index: usize, c: usize) -> usize {
    let mix = seed ^ 0x9E37 ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ChaCha8Rng::seed_from_u64(mix).gen_range(0..c)
}

/// Generates the HS fields for a run: one [`ChaCha8Rng`] stream seeded by
/// `seed`, drawn in matrix order — the root-side generation of Alg. 3,
/// shared by [`run_multi`] and the `fsi-service` job runner.
pub fn generate_fields(l: usize, n: usize, matrices: usize, seed: u64) -> Vec<HsField> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..matrices)
        .map(|_| HsField::random(l, n, &mut rng))
        .collect()
}

/// Sums per-matrix measurement vectors in matrix-index order, so the
/// global reduction is bitwise-reproducible across rank counts and steal
/// orders (float addition is not associative; fixing the order fixes the
/// sum).
fn ordered_sum(mut pairs: Vec<(usize, Vec<f64>)>) -> Vec<f64> {
    pairs.sort_by_key(|(i, _)| *i);
    let mut acc: Vec<f64> = Vec::new();
    for (_, q) in pairs {
        if acc.is_empty() {
            acc = q;
        } else {
            assert_eq!(acc.len(), q.len(), "measure length varies");
            for (a, v) in acc.iter_mut().zip(q) {
                *a += v;
            }
        }
    }
    acc
}

/// The half-open range of `n` items owned by `rank` of `size` under the
/// paper's block distribution (`m_per_MPI = m / num_MPI_process`, the
/// first `n % size` ranks taking one more).
fn block_range(n: usize, size: usize, rank: usize) -> std::ops::Range<usize> {
    let base = n / size;
    let extra = n % size;
    let lo = rank * base + rank.min(extra);
    lo..lo + base + usize::from(rank < extra)
}

/// Runs Alg. 3: distribute fields over ranks, per-rank FSI over the local
/// share of matrices, reduce measurement vectors in matrix order.
///
/// The spin is fixed to [`Spin::Up`]; DQMC proper (both spins, Metropolis
/// dynamics) lives in the `fsi-dqmc` crate — this driver is the
/// performance harness of the paper's §V-B.
///
/// ```
/// use fsi_selinv::{run_multi, trace_measure, MultiConfig, Pattern};
/// use fsi_pcyclic::{BlockBuilder, HubbardParams, SquareLattice};
///
/// let builder = BlockBuilder::new(
///     SquareLattice::square(2),
///     HubbardParams::paper_validation(8),
/// );
/// let cfg = MultiConfig {
///     ranks: 2,
///     threads_per_rank: 1,
///     matrices: 3,
///     c: 4,
///     pattern: Pattern::Diagonal,
///     seed: 1,
/// };
/// let result = run_multi(&builder, &cfg, &trace_measure).unwrap();
/// // One diagonal selection per cluster: 3 matrices × (L/c = 2) blocks.
/// assert_eq!(result.global_measurements[1], 6.0);
/// ```
///
/// # Errors
/// Any rank whose FSI invocation trips a health probe aborts the run;
/// remaining queued matrices are drained unprocessed and the failure with
/// the lowest matrix index is surfaced.
pub fn run_multi(
    builder: &BlockBuilder,
    cfg: &MultiConfig,
    measure: &MeasureFn,
) -> FsiResult<MultiResult> {
    assert!(cfg.ranks > 0 && cfg.threads_per_rank > 0 && cfg.matrices > 0);
    let sw = Stopwatch::start();
    let l = builder.params().l;
    let n = builder.lattice().n_sites();
    let mut fields = generate_fields(l, n, cfg.matrices, cfg.seed).into_iter();
    let queues = StealQueues::new(cfg.ranks);
    for rank in 0..cfg.ranks {
        // The range leads the zip, so an exhausted share takes no field.
        let share = block_range(cfg.matrices, cfg.ranks, rank).zip(fields.by_ref());
        queues.push_batch(
            rank,
            share.map(|(m, field)| MatrixTask::new(m, field, cfg.c, cfg.pattern, cfg.seed)),
        );
    }
    queues.close(); // batch run: drain and exit

    let abort = AtomicBool::new(false);
    let failure: Mutex<Option<(usize, HealthEvent)>> = Mutex::new(None);
    let done: Mutex<Vec<(usize, Vec<f64>)>> = Mutex::new(Vec::new());
    // Rank threads charge the caller's open span, as pool workers do.
    let ctx = trace::current_context();
    std::thread::scope(|s| {
        for rank in 0..cfg.ranks {
            let (queues, abort, failure, done) = (&queues, &abort, &failure, &done);
            let ctx = ctx.clone();
            s.spawn(move || {
                trace::with_context(ctx, || {
                    // Per-rank pool = the OpenMP level of the hybrid model.
                    let pool = ThreadPool::new(cfg.threads_per_rank);
                    let par = if cfg.threads_per_rank == 1 {
                        Parallelism::Serial
                    } else {
                        Parallelism::OpenMp(&pool)
                    };
                    while let Some(mut task) = queues.acquire(rank) {
                        if abort.load(Ordering::Acquire) {
                            continue; // drain without processing
                        }
                        match task.run(par, builder, measure) {
                            Ok(()) => done.lock().unwrap().push(task.into_quantities()),
                            Err(e) => {
                                let mut slot = failure.lock().unwrap();
                                // Keep the lowest-index failure for
                                // deterministic error surfacing.
                                if slot.as_ref().is_none_or(|(i, _)| task.index() < *i) {
                                    *slot = Some((task.index(), e));
                                }
                                abort.store(true, Ordering::Release);
                            }
                        }
                    }
                })
            });
        }
    });
    if let Some((_, e)) = failure.into_inner().unwrap() {
        return Err(e);
    }
    Ok(MultiResult {
        global_measurements: ordered_sum(done.into_inner().unwrap()),
        seconds: sw.seconds(),
        matrices: cfg.matrices,
    })
}

/// A simple default measurement: `[Σ tr G(k,k), #blocks]` over the
/// selection — enough to validate reductions end to end.
///
/// The diagonal traces are summed in ascending block order: the selected
/// inverse stores blocks in a hash map, and a measurement hook that sums
/// in map-iteration order would produce run-dependent last bits.
pub fn trace_measure(s: &SelectedInverse) -> Vec<f64> {
    let mut diags: Vec<(usize, f64)> = s
        .iter()
        .filter(|(coord, _)| coord.0 == coord.1)
        .map(|(coord, blk)| {
            let mut t = 0.0;
            for i in 0..blk.rows() {
                t += blk[(i, i)];
            }
            (coord.0, t)
        })
        .collect();
    diags.sort_by_key(|(k, _)| *k);
    let trace = diags.iter().map(|(_, t)| t).sum();
    vec![trace, s.len() as f64]
}

/// Per-rank memory requirement of one FSI invocation, in bytes
/// (paper §V-B: input blocks + reduced inverse + selected blocks +
/// workspace).
pub fn per_rank_bytes(n: usize, l: usize, c: usize, pattern: Pattern) -> u64 {
    let n = n as u64;
    let l = l as u64;
    let b = l / c as u64;
    let f = 8u64; // sizeof f64
    let input = l * n * n * f;
    let reduced_blocks = b * n * n * f;
    let g_reduced = (b * n) * (b * n) * f;
    let selected = pattern.n_blocks(l as usize, c) as u64 * n * n * f;
    // LU factor cache for the wrapping stage plus per-thread scratch.
    let workspace = l * n * n * f / 4 + 16 * n * n * f;
    input + reduced_blocks + g_reduced + selected + workspace
}

/// The Edison-node memory model of Fig. 9.
#[derive(Clone, Copy, Debug)]
pub struct MemoryModel {
    /// Physical memory per node in bytes (Edison: 64 GB).
    pub node_bytes: u64,
    /// Memory consumed by OS/kernel/filesystem/MPI buffers per node
    /// (paper: ≈2.5 GB usable per core of 2.67 GB raw → ≈4 GB overhead).
    pub reserved_bytes: u64,
    /// Cores per node (Edison: 24).
    pub cores_per_node: usize,
}

impl MemoryModel {
    /// Edison Cray XC30 node parameters from the paper's §V.
    pub fn edison() -> Self {
        MemoryModel {
            node_bytes: 64 * (1 << 30),
            reserved_bytes: 4 * (1 << 30),
            cores_per_node: 24,
        }
    }

    /// Whether a `(ranks_per_node × threads_per_rank)` configuration fits.
    ///
    /// Each rank needs `per_rank` bytes simultaneously; exceeding the
    /// usable node memory is what triggered Edison's OOM killer for the
    /// pure-MPI configurations at `N ≥ 576`.
    pub fn feasible(&self, ranks_per_node: usize, per_rank: u64) -> bool {
        ranks_per_node as u64 * per_rank <= self.node_bytes - self.reserved_bytes
    }

    /// The rank×thread configurations of Fig. 9 for this node
    /// (`ranks_per_node × threads = cores_per_node`).
    pub fn configurations(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for threads in 1..=self.cores_per_node {
            if self.cores_per_node.is_multiple_of(threads) {
                out.push((self.cores_per_node / threads, threads));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_pcyclic::{HubbardParams, SquareLattice};
    use proptest::prelude::*;

    fn small_builder() -> BlockBuilder {
        BlockBuilder::new(SquareLattice::square(2), HubbardParams::paper_validation(8))
    }

    fn base_cfg() -> MultiConfig {
        MultiConfig {
            ranks: 3,
            threads_per_rank: 1,
            matrices: 7,
            c: 4,
            pattern: Pattern::Diagonal,
            seed: 42,
        }
    }

    /// `ordered_sum` of a serial `MatrixTask::run` loop: what Alg. 3 must
    /// reduce to whatever the ranks, threads and steals.
    fn serial_reference(builder: &BlockBuilder, cfg: &MultiConfig) -> Vec<f64> {
        let l = builder.params().l;
        let n = builder.lattice().n_sites();
        let pairs = generate_fields(l, n, cfg.matrices, cfg.seed)
            .into_iter()
            .enumerate()
            .map(|(m, field)| {
                let mut task = MatrixTask::new(m, field, cfg.c, cfg.pattern, cfg.seed);
                task.run(Parallelism::Serial, builder, &trace_measure)
                    .expect("healthy");
                task.into_quantities()
            })
            .collect();
        ordered_sum(pairs)
    }

    #[test]
    fn multi_run_reduces_across_ranks() {
        let builder = small_builder();
        let result = run_multi(&builder, &base_cfg(), &trace_measure).expect("healthy");
        assert_eq!(result.matrices, 7);
        // Block-count channel: 7 matrices × b=2 diagonal blocks.
        assert_eq!(result.global_measurements[1], 14.0);
        assert!(result.global_measurements[0].is_finite());
    }

    #[test]
    fn rank_and_thread_grid_does_not_change_the_bits() {
        let builder = small_builder();
        let run = |ranks, threads_per_rank| {
            let cfg = MultiConfig {
                ranks,
                threads_per_rank,
                ..base_cfg()
            };
            let r = run_multi(&builder, &cfg, &trace_measure).expect("healthy");
            r.global_measurements
        };
        let want = run(1, 1);
        for ranks in [1usize, 2, 3, 5] {
            for threads_per_rank in [1usize, 2] {
                assert_eq!(
                    run(ranks, threads_per_rank),
                    want,
                    "ranks={ranks} threads={threads_per_rank}"
                );
            }
        }
        // The value itself, as recorded at commit 7994857: kernels may
        // round differently one day, the physics may not move.
        let recorded = f64::from_bits(0x403c_3898_0cfd_d89a);
        assert!(((want[0] - recorded) / recorded).abs() < 1e-12, "{want:?}");
        assert_eq!(want[1], 14.0);
    }

    #[test]
    fn run_multi_is_the_ordered_sum_of_a_serial_task_loop() {
        let builder = small_builder();
        let base = MultiConfig {
            matrices: 5,
            seed: 7,
            ..base_cfg()
        };
        // Under stage tracing, so the spans also show every rank's flops
        // reaching the caller's span.
        let _lock = trace::test_lock();
        trace::set_level(trace::TraceLevel::Stages);
        let span = trace::span("serial");
        let want = serial_reference(&builder, &base);
        let serial_flops = span.finish().flops;
        assert!(serial_flops > 0);
        for (ranks, threads_per_rank) in [(1usize, 1usize), (2, 1), (3, 2), (5, 1), (7, 1)] {
            let cfg = MultiConfig {
                ranks,
                threads_per_rank,
                ..base.clone()
            };
            let span = trace::span("run_multi");
            let r = run_multi(&builder, &cfg, &trace_measure).expect("healthy");
            let flops = span.finish().flops;
            let label = format!("ranks={ranks} threads={threads_per_rank}");
            assert_eq!(r.global_measurements, want, "{label}");
            assert_eq!(flops, serial_flops, "{label}");
        }
        trace::set_level(trace::TraceLevel::Off);
        trace::clear();
    }

    #[test]
    fn rank_count_does_not_change_the_bits() {
        // The same seed and matrix count must give *bitwise* identical
        // reductions regardless of how many ranks share the work — the
        // ordered reduction guarantees it. 8 ranks > 5 matrices: three
        // deques start empty.
        let builder = small_builder();
        let base = MultiConfig {
            ranks: 1,
            matrices: 5,
            seed: 7,
            ..base_cfg()
        };
        let r1 = run_multi(&builder, &base, &trace_measure).expect("healthy");
        for ranks in [2usize, 5, 8] {
            let cfg = MultiConfig {
                ranks,
                ..base.clone()
            };
            let r = run_multi(&builder, &cfg, &trace_measure).expect("healthy");
            assert_eq!(
                r1.global_measurements, r.global_measurements,
                "ranks={ranks}"
            );
        }
    }

    #[test]
    fn hybrid_threads_match_pure_mpi_results() {
        let builder = small_builder();
        let cfg1 = MultiConfig {
            ranks: 2,
            threads_per_rank: 1,
            matrices: 4,
            c: 4,
            pattern: Pattern::Columns,
            seed: 9,
        };
        let cfg2 = MultiConfig {
            threads_per_rank: 2,
            ranks: 1,
            ..cfg1.clone()
        };
        let r1 = run_multi(&builder, &cfg1, &trace_measure).expect("healthy");
        let r2 = run_multi(&builder, &cfg2, &trace_measure).expect("healthy");
        for (a, b) in r1.global_measurements.iter().zip(&r2.global_measurements) {
            assert!((a - b).abs() < 1e-6 * a.abs().max(1.0));
        }
    }

    #[test]
    fn degrade_halves_c_down_to_the_floor() {
        let builder = small_builder();
        let l = builder.params().l;
        let n = builder.lattice().n_sites();
        let field = generate_fields(l, n, 1, 5).remove(0);
        let mut task = MatrixTask::new(0, field, 4, Pattern::Diagonal, 5);
        task.run(Parallelism::Serial, &builder, &trace_measure)
            .expect("healthy");
        assert!(task.degrade());
        assert_eq!(task.c(), 2);
        // The degraded task still completes (c=2 divides L=8).
        task.run(Parallelism::Serial, &builder, &trace_measure)
            .expect("healthy after degrade");
        assert!(task.degrade());
        assert_eq!(task.c(), 1);
        assert!(!task.degrade(), "c=1 is the floor");
    }

    #[test]
    fn degraded_task_equals_a_fresh_task_at_the_smaller_c() {
        let builder = small_builder();
        let l = builder.params().l;
        let n = builder.lattice().n_sites();
        let field = generate_fields(l, n, 2, 21).remove(1);
        let mut degraded = MatrixTask::new(1, field.clone(), 4, Pattern::Diagonal, 21);
        assert!(degraded.degrade());
        degraded
            .run(Parallelism::Serial, &builder, &trace_measure)
            .expect("healthy degraded");
        let mut fresh = MatrixTask::new(1, field, 2, Pattern::Diagonal, 21);
        fresh
            .run(Parallelism::Serial, &builder, &trace_measure)
            .expect("healthy fresh");
        assert_eq!(degraded.into_quantities(), fresh.into_quantities());
    }

    #[test]
    fn shift_is_schedule_independent_and_in_range() {
        for seed in [0u64, 42, u64::MAX] {
            for index in [0usize, 1, 999] {
                for c in [1usize, 4, 10] {
                    let q = shift_for(seed, index, c);
                    assert!(q < c);
                    assert_eq!(q, shift_for(seed, index, c), "deterministic");
                }
            }
        }
        // Different matrices get different shift streams (not all equal).
        let qs: Vec<usize> = (0..32).map(|m| shift_for(11, m, 10)).collect();
        assert!(qs.iter().any(|&q| q != qs[0]));
    }

    #[test]
    fn memory_model_reproduces_paper_thresholds() {
        let model = MemoryModel::edison();
        // N = 576, (L, c) = (100, 10), columns: paper quotes ≈2.65 GB per
        // selected inversion; our model adds the working set on top.
        let per_rank = per_rank_bytes(576, 100, 10, Pattern::Columns);
        assert!(
            per_rank > 2 * (1 << 30) as u64,
            "selected inversion alone > 2 GB"
        );
        // Pure MPI (12 ranks/socket ⇒ 24 ranks/node) does NOT fit at
        // N = 576 — the paper's OOM case.
        assert!(
            !model.feasible(24, per_rank),
            "24 ranks x {per_rank} B must OOM"
        );
        // The hybrid 4 ranks × 6 threads fits.
        assert!(model.feasible(4, per_rank));
        // N = 400 fits even for pure MPI (the paper's only feasible pure
        // MPI point).
        let per_rank_400 = per_rank_bytes(400, 100, 10, Pattern::Columns);
        assert!(model.feasible(24, per_rank_400), "N=400 pure MPI fits");
    }

    #[test]
    fn configurations_cover_fig9_grid() {
        let model = MemoryModel::edison();
        let configs = model.configurations();
        // Fig. 9's x-axis per node: 24×1, 12×2, 8×3, 4×6, 2×12, 1×24 ...
        assert!(configs.contains(&(24, 1)));
        assert!(configs.contains(&(12, 2)));
        assert!(configs.contains(&(8, 3)));
        assert!(configs.contains(&(4, 6)));
        assert!(configs.contains(&(2, 12)));
        assert!(configs.contains(&(1, 24)));
        for (r, t) in configs {
            assert_eq!(r * t, 24);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// block_range partitions exactly and near-evenly for any (n, size).
        #[test]
        fn block_range_partitions(n in 0usize..1000, size in 1usize..17) {
            let mut seen = 0usize;
            let mut lens = Vec::new();
            let mut next = 0usize;
            for r in 0..size {
                let range = block_range(n, size, r);
                prop_assert_eq!(range.start, next);
                next = range.end;
                seen += range.len();
                lens.push(range.len());
            }
            prop_assert_eq!(seen, n);
            let max = lens.iter().max().unwrap();
            let min = lens.iter().min().unwrap();
            prop_assert!(max - min <= 1);
        }
    }
}
