//! Calibration probes of the two lowest layers, run inside every traced
//! run so that stage efficiencies divide by a kernel rate measured on
//! the same host, at the same `N`, minutes apart at most.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use fsi_dense::{
    gemm_batched, gemm_op, geqrf, getrf, test_matrix, BatchOperand, MatMut, MatRef, Matrix, Op,
};
use fsi_pcyclic::{hubbard_pcyclic, BlockBuilder, HsField, Spin};
use fsi_runtime::flops::counts;
use fsi_runtime::{parallel_for, Par, Schedule, ThreadPool};

use crate::alloc;
use crate::report::Values;
use crate::stats::median;

/// Shortest time each kernel is sampled for; the best sample is kept.
const CALIBRATE_SECONDS: f64 = 0.25;

/// Best rate in Gflop/s of `run`, which performs `flops` per call.
/// `prepare` rebuilds the consumed input outside the timed call.
fn best_gflops<I>(flops: u64, mut prepare: impl FnMut() -> I, mut run: impl FnMut(I)) -> f64 {
    let started = Instant::now();
    let mut best = f64::INFINITY;
    while started.elapsed().as_secs_f64() < CALIBRATE_SECONDS {
        let input = prepare();
        let t = Instant::now();
        run(input);
        best = best.min(t.elapsed().as_secs_f64());
    }
    flops as f64 / best * 1e-9
}

/// A well-conditioned `n × n` matrix (random plus a dominant diagonal).
fn conditioned(n: usize, seed: u64) -> Matrix {
    let mut a = test_matrix(n, n, seed);
    a.add_diag(n as f64);
    a
}

/// Sequential rates of the five kernels the stages are made of, at block
/// size `n` and batch size `batch`: `dense.*_gflops`.
pub fn dense(n: usize, batch: usize, out: &mut Values) {
    let a = test_matrix(n, n, 1);
    let b = test_matrix(n, n, 2);
    let mut c = Matrix::zeros(n, n);
    out.set(
        "dense.gemm_gflops",
        best_gflops(
            counts::gemm(n, n, n),
            || (),
            |()| {
                gemm_op(
                    Par::Seq,
                    1.0,
                    Op::NoTrans,
                    a.as_ref(),
                    Op::NoTrans,
                    b.as_ref(),
                    0.0,
                    c.as_mut(),
                );
                black_box(&c);
            },
        ),
    );

    let lhs: Vec<Matrix> = (0..batch)
        .map(|i| test_matrix(n, n, 10 + i as u64))
        .collect();
    let rhs: Vec<Matrix> = (0..batch)
        .map(|i| test_matrix(n, n, 90 + i as u64))
        .collect();
    let lhs_refs: Vec<MatRef<'_>> = lhs.iter().map(Matrix::as_ref).collect();
    let rhs_refs: Vec<MatRef<'_>> = rhs.iter().map(Matrix::as_ref).collect();
    let mut outs: Vec<Matrix> = (0..batch).map(|_| Matrix::zeros(n, n)).collect();
    out.set(
        "dense.gemm_batched_gflops",
        best_gflops(
            counts::gemm(n, n, n) * batch as u64,
            || (),
            |()| {
                let mut views: Vec<MatMut<'_>> = outs.iter_mut().map(Matrix::as_mut).collect();
                gemm_batched(
                    Par::Seq,
                    1.0,
                    Op::NoTrans,
                    BatchOperand::Each(&lhs_refs),
                    Op::NoTrans,
                    BatchOperand::Each(&rhs_refs),
                    0.0,
                    &mut views,
                );
                black_box(&views);
            },
        ),
    );

    let square = conditioned(n, 3);
    out.set(
        "dense.getrf_gflops",
        best_gflops(
            counts::getrf(n, n),
            || square.clone(),
            |m| {
                black_box(getrf(m).expect("diagonally dominant matrix factors"));
            },
        ),
    );

    // The `B⁻¹` application of a wrap step: N right-hand sides against
    // one LU factorization, both triangles.
    let lu = getrf(square.clone()).expect("diagonally dominant matrix factors");
    out.set(
        "dense.lu_solve_gflops",
        best_gflops(
            2 * counts::trsm(n, n),
            || b.clone(),
            |mut x| {
                lu.solve_in_place(x.as_mut());
                black_box(&x);
            },
        ),
    );

    // The BSOFI stage-A panel.
    let panel = test_matrix(2 * n, n, 4);
    out.set(
        "dense.geqrf_gflops",
        best_gflops(
            counts::geqrf(2 * n, n),
            || panel.clone(),
            |m| {
                black_box(geqrf(m));
            },
        ),
    );
}

/// `pcyclic.build_s` and `pcyclic.build_alloc_bytes`: `hubbard_pcyclic`
/// for one spin of `field`, median of five builds.
pub fn pcyclic_build(builder: &BlockBuilder, field: &HsField, out: &mut Values) {
    let mut seconds = Vec::new();
    let mut bytes = 0;
    for _ in 0..5 {
        let t = Instant::now();
        let (built, tally) = alloc::measure(|| hubbard_pcyclic(builder, field, Spin::Up));
        seconds.push(t.elapsed().as_secs_f64());
        bytes = tally.bytes;
        drop(built);
    }
    out.set("pcyclic.build_s", median(&seconds));
    out.set("pcyclic.build_alloc_bytes", bytes as f64);
}

/// `runtime.pool_dispatch_s` (an empty-body `parallel_for` over one item
/// per pool thread) and `runtime.ckpt_store_s` (`ckpt::store` of 1 MiB
/// into `dir`).
///
/// # Errors
/// Filesystem errors from the checkpoint store.
pub fn runtime(pool: &ThreadPool, dir: &Path, out: &mut Values) -> std::io::Result<()> {
    let items = pool.size();
    let dispatch: Vec<f64> = (0..2000)
        .map(|_| {
            let t = Instant::now();
            parallel_for(Par::Pool(pool), items, Schedule::Static, |i| {
                black_box(i);
            });
            t.elapsed().as_secs_f64()
        })
        .collect();
    out.set("runtime.pool_dispatch_s", median(&dispatch));

    let payload = vec![0x5au8; 1 << 20];
    let path = dir.join("probe.ckpt");
    let mut store = Vec::new();
    for _ in 0..12 {
        let t = Instant::now();
        fsi_runtime::ckpt::store(&path, 1, &payload)?;
        store.push(t.elapsed().as_secs_f64());
    }
    out.set("runtime.ckpt_store_s", median(&store));
    Ok(())
}
