//! Integration tests of the DQMC engine against exactly solvable limits
//! and internal consistency requirements.

use fsi_dqmc::{run, DqmcConfig, SweepConfig, Sweeper};
use fsi_pcyclic::{BlockBuilder, HsField, HubbardParams, Spin, SquareLattice};
use fsi_selinv::Parallelism;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// At U = 0 the HS field decouples: every observable must equal the exact
/// free-fermion value regardless of the Monte Carlo dynamics.
#[test]
fn free_fermion_limit_is_exact() {
    let cfg = DqmcConfig {
        nx: 4,
        ny: 4,
        t: 1.0,
        u: 0.0,
        beta: 2.0,
        l: 16,
        c: 4,
        warmup: 1,
        measurements: 3,
        stabilize_every: 4,
        delay: 1,
        seed: 3,
    };
    let r = run(&cfg, Parallelism::Serial).expect("healthy");
    // Half filling exactly.
    assert!(
        (r.density.mean() - 1.0).abs() < 1e-10,
        "density {}",
        r.density.mean()
    );
    assert!(
        r.density.stderr() < 1e-10,
        "free density must not fluctuate"
    );
    // Double occupancy is exactly n↑·n↓ = 0.25.
    assert!((r.double_occupancy.mean() - 0.25).abs() < 1e-10);
    // Moment exactly 0.5.
    assert!((r.moment.mean() - 0.5).abs() < 1e-10);
    // Every proposal is accepted (the ratio is identically 1).
    assert!((r.acceptance.mean() - 1.0).abs() < 1e-12);
}

/// Exact benchmark: a single site (no hopping) at half filling has the
/// closed-form double occupancy
/// `⟨n↑n↓⟩ = 1/(2·(1 + e^{βU/2}·sech-ish…))` — more robustly, compare
/// against exact diagonalization of the 4-state single-site problem.
#[test]
fn single_site_atomic_limit_matches_exact_diagonalization() {
    // H = U(n↑−1/2)(n↓−1/2) (particle-hole symmetric single site).
    // States: |0⟩, |↑⟩, |↓⟩, |↑↓⟩ with energies U/4, −U/4, −U/4, U/4.
    let u = 4.0;
    let beta = 1.5;
    let x: f64 = beta * u / 4.0;
    let z = 2.0 * (-x).exp() + 2.0 * x.exp();
    // ⟨n↑n↓⟩ = e^{−βU/4}/Z  (only |↑↓⟩ contributes, weight e^{−βU/4}).
    let exact_docc = (-x).exp() / z;
    // DQMC on a 1×1 "lattice" (no neighbours → kinetic term vanishes;
    // the Trotter factorization is then EXACT, no discretization error).
    let cfg = DqmcConfig {
        nx: 1,
        ny: 1,
        t: 1.0,
        u,
        beta,
        l: 8,
        c: 4,
        warmup: 50,
        measurements: 400,
        stabilize_every: 4,
        delay: 1,
        seed: 17,
    };
    let r = run(&cfg, Parallelism::Serial).expect("healthy");
    let err = (r.double_occupancy.mean() - exact_docc).abs();
    // Monte Carlo error bar at 400 samples; allow 5 sigma + a floor.
    let tol = (5.0 * r.double_occupancy.stderr()).max(0.02);
    assert!(
        err < tol,
        "⟨n↑n↓⟩ = {} ± {} vs exact {exact_docc} (err {err}, tol {tol})",
        r.double_occupancy.mean(),
        r.double_occupancy.stderr()
    );
    assert!(
        (r.density.mean() - 1.0).abs() < 1e-8,
        "PH symmetry holds per config"
    );
}

/// Detailed balance smoke test: forward and reverse flips have reciprocal
/// Metropolis ratios.
#[test]
fn metropolis_ratios_are_reciprocal() {
    let builder = BlockBuilder::new(SquareLattice::square(2), HubbardParams::paper_validation(8));
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let field = HsField::random(8, 4, &mut rng);
    let sweeper = Sweeper::new(&builder, field, SweepConfig::default()).expect("healthy");
    // Ratio of flipping (0, 2), then after flipping, the reverse ratio.
    let (r_up, r_dn) = sweeper.ratio(0, 2);
    let forward = r_up * r_dn;
    // Accept the flip by force: use the public sweep path via a crafted
    // single-step — easiest is a fresh sweeper with the flipped field.
    let mut flipped_field = sweeper.field().clone();
    flipped_field.flip(0, 2);
    let flipped = Sweeper::new(&builder, flipped_field, SweepConfig::default()).expect("healthy");
    let (ru2, rd2) = flipped.ratio(0, 2);
    let backward = ru2 * rd2;
    assert!(
        (forward * backward - 1.0).abs() < 1e-8,
        "detailed balance: {forward} × {backward} ≠ 1"
    );
}

/// The Green's function wrap chain around the full torus returns to the
/// starting frame.
#[test]
fn wrap_around_the_torus_is_identity() {
    let builder = BlockBuilder::new(SquareLattice::square(2), HubbardParams::paper_validation(6));
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let field = HsField::random(6, 4, &mut rng);
    let cfg = SweepConfig {
        c: 3,
        ..SweepConfig::default()
    };
    let mut sweeper = Sweeper::new(&builder, field, cfg).expect("healthy");
    let g0 = sweeper.green(Spin::Up);
    // Refresh at each slice in turn and come back to 0.
    for slice in [1usize, 2, 3, 4, 5, 0] {
        sweeper
            .refresh(slice, Parallelism::Serial)
            .expect("healthy");
    }
    let g_back = sweeper.green(Spin::Up);
    assert!(
        fsi_dense::rel_error(&g_back, &g0) < 1e-9,
        "torus roundtrip drift {}",
        fsi_dense::rel_error(&g_back, &g0)
    );
}

/// `to_bits` of every accumulator mean of a fixed `run`, followed by an
/// FNV-1a digest of the SPXX table's entries and row counts.
fn run_fingerprint() -> [u64; 9] {
    // t = 1, U = 4, β = 2, c = stabilize_every = 4, delay 1 from `small`.
    let cfg = DqmcConfig {
        nx: 4,
        ny: 4,
        l: 16,
        warmup: 1,
        measurements: 2,
        seed: 2016,
        ..DqmcConfig::small()
    };
    let r = run(&cfg, Parallelism::Serial).expect("healthy");
    let spxx = r.spxx.as_ref().expect("spxx accumulated");
    let mut bytes = Vec::new();
    for tau in 0..spxx.l() {
        bytes.extend((spxx.count(tau) as u64).to_le_bytes());
        for d in 0..spxx.dmax() {
            bytes.extend(spxx.at(tau, d).to_bits().to_le_bytes());
        }
    }
    [
        r.density.mean().to_bits(),
        r.double_occupancy.mean().to_bits(),
        r.moment.mean().to_bits(),
        r.kinetic.mean().to_bits(),
        r.avg_sign.mean().to_bits(),
        r.acceptance.mean().to_bits(),
        r.structure_factor.mean().to_bits(),
        r.susceptibility.mean().to_bits(),
        fsi_runtime::ckpt::fnv1a(&bytes),
    ]
}

/// The default sweep path is pinned bit for bit: every accumulator mean
/// and the SPXX table of a 4×4, L = 16, c = 4 run, per kernel tier (the
/// GEMM tiers round differently, so each has its own fingerprint).
/// Measured with rustc 1.95.0 + glibc 2.36 (whose `exp` builds the
/// propagators) on an AVX-512 Xeon; a toolchain or libm change moves them too.
#[cfg(target_arch = "x86_64")]
#[test]
fn run_is_pinned_bitwise_per_kernel_tier() {
    use fsi_dense::{available_tiers, with_tier, Tier};
    const SCALAR: [u64; 9] = [
        0x3ff0000000000002,
        0x3fc06ea9f3bd49d8,
        0x3fe7c8ab06215b18,
        0xbff3e04026743fc2,
        0x3ff0000000000000,
        0x3fe5d55555555555,
        0x3fdf0e6af408e8df,
        0x3fd2f8caceb92a2a,
        0xbb928d2dca8cd6f6,
    ];
    // AVX2 (via `with_tier` on that host) and AVX-512 agree bit for bit.
    const SIMD: [u64; 9] = [
        0x3ff0000000000001,
        0x3fc06ea9f3bd49d6,
        0x3fe7c8ab06215b16,
        0xbff3e04026743fc4,
        0x3ff0000000000000,
        0x3fe5d55555555555,
        0x3fdf0e6af408e8e7,
        0x3fd2f8caceb92a26,
        0x4f98a10d563c021a,
    ];
    for tier in available_tiers() {
        let want = if tier == Tier::Scalar { SCALAR } else { SIMD };
        let got = with_tier(tier, run_fingerprint);
        let (name, why) = (tier.name(), "pinned with rustc 1.95.0, glibc 2.36");
        assert_eq!(got, want, "tier {name} ({why}): {got:#018x?}");
    }
}

/// Delayed updates at the simulation level reproduce the plain results,
/// on the one-channel path (2×2) and the two-channel path (3×2).
#[test]
fn delayed_updates_do_not_change_the_simulation() {
    for nx in [2, 3] {
        let base = DqmcConfig {
            nx,
            ny: 2,
            t: 1.0,
            u: 4.0,
            beta: 2.0,
            l: 8,
            c: 4,
            warmup: 1,
            measurements: 3,
            stabilize_every: 4,
            delay: 1,
            seed: 21,
        };
        let plain = run(&base, Parallelism::Serial).expect("healthy");
        let delayed = run(
            &DqmcConfig {
                delay: 8,
                ..base.clone()
            },
            Parallelism::Serial,
        )
        .expect("healthy");
        assert!((plain.density.mean() - delayed.density.mean()).abs() < 1e-9);
        assert!((plain.moment.mean() - delayed.moment.mean()).abs() < 1e-9);
        assert!((plain.kinetic.mean() - delayed.kinetic.mean()).abs() < 1e-9);
    }
}
