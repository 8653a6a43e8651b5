//! Micro-kernel tiers and runtime kernel dispatch.
//!
//! The packed GEMM engine and the batched small-matrix engine both bottom
//! out in an `MR × NR` register-tile micro-kernel. This module owns the
//! kernel implementations and the policy that picks one at runtime:
//!
//! | tier     | tile  | ISA          | notes                                |
//! |----------|-------|--------------|--------------------------------------|
//! | `Scalar` | 8×4   | portable     | plain multiply-add, LLVM auto-vec    |
//! | `Avx2`   | 8×4   | AVX2 + FMA   | 8 `ymm` accumulators, PR-2 kernel    |
//! | `Avx512` | 16×4  | AVX-512F     | 8 `zmm` accumulators, 16 FMAs/step   |
//!
//! Both wide tiers keep `NR = 4`, so the NR-strided B panel layout is
//! identical across tiers and the packing routines never branch on the
//! tier. The AVX-512 tile doubles `MR` instead: two `zmm` loads per depth
//! step feed 8 independent accumulator chains — exactly the FMA
//! latency×throughput product of the 512-bit ports, the same occupancy
//! argument as the AVX2 kernel's 8 `ymm` chains.
//!
//! Each tier provides two entry points sharing one accumulation order:
//!
//! * a **packed kernel** (`MicroKernel`) reading MR/NR-strided panels —
//!   the blocked engine's innermost loop;
//! * a **direct kernel** (behind each tier's `DirectDriver`) reading
//!   column-major operands
//!   in place — the small-N fast path, which skips packing entirely for
//!   `NoTrans` operands (partial tiles use masked loads/stores, with dead
//!   lanes contributing exact zeros).
//!
//! **Bitwise contract.** For one C element, every tier accumulates
//! `a[i,p]·b[p,j]` over `p` in the same order, and the writeback is the
//! unfused `c + alpha·acc` (or `0.0 + alpha·acc` in store mode, the exact
//! bit pattern `fill(0.0)`-then-add would produce). Hence AVX2 and
//! AVX-512 results are bitwise identical (both fuse the accumulation
//! FMAs), packed and direct paths are bitwise identical, and the scalar
//! tier — whose accumulation is unfused, since Rust never contracts float
//! expressions — agrees to rounding (≲1e-15 relative per element, tested
//! at 1e-13).
//!
//! **Dispatch.** [`active_tier`] resolves, in priority order: a
//! thread-local override ([`with_tier`], for equivalence tests), the
//! `FSI_KERNEL=avx512|avx2|scalar` environment variable (the process-wide
//! pin), and finally feature detection (widest supported tier). A
//! requested tier the CPU lacks silently degrades to the next narrower
//! one, so `FSI_KERNEL=avx512` on an AVX2-only host runs the AVX2 kernel.

use std::sync::OnceLock;

/// The packed micro-kernel signature: `(kc, alpha, Ã-panel, B̃-panel,
/// C-tile, ldc, m_eff, n_eff, store)`. With `store == false` the live
/// corner is updated as `c += alpha·acc`; with `store == true` it is
/// overwritten with `0.0 + alpha·acc` (bitwise what a zero-filled C plus
/// the accumulate path would hold, without the fill pass).
pub(crate) type MicroKernel =
    unsafe fn(usize, f64, *const f64, *const f64, *mut f64, usize, usize, usize, bool);

/// The direct (no-pack) whole-matrix driver signature: `(m, n, k, alpha,
/// A, lda, B, ldb, C, ldc, store)`. The driver walks register tiles
/// straight over the column-major operands and calls its tier's direct
/// kernel on each — the tile loop lives *inside* the tier's
/// `#[target_feature]` region so the kernel call is direct (and
/// inlinable), not an indirect function-pointer call per tile; at the
/// small-N shapes this path exists for, that per-tile indirection is a
/// measurable fraction of the whole product.
pub(crate) type DirectDriver = unsafe fn(
    usize,
    usize,
    usize,
    f64,
    *const f64,
    usize,
    *const f64,
    usize,
    *mut f64,
    usize,
    bool,
);

/// One dispatchable kernel tier: tile shape plus both kernel entry points.
pub(crate) struct KernelTier {
    /// Register-tile height (rows of C per kernel call).
    pub mr: usize,
    /// Register-tile width of the *packed* kernel. All tiers share
    /// `nr = 4` so the B panel layout is tier-independent.
    pub nr: usize,
    /// The packed-panel kernel.
    pub micro: MicroKernel,
    /// The in-place (no-pack) whole-matrix driver. Its tile width is the
    /// tier's own choice: the no-pack path reads B straight from
    /// column-major storage, so it is free to use a wider tile than the
    /// panel layout allows — AVX-512 runs 16×8 there (16 accumulator
    /// registers out of 32, twice the FMAs per A-load of the 16×4 shape,
    /// which is what closes the gap to FMA-port peak at the CLS sizes).
    pub driver: DirectDriver,
}

/// A micro-kernel instruction-set tier, from narrowest to widest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Portable plain multiply-add (auto-vectorized by LLVM).
    Scalar,
    /// AVX2 + FMA, 8×4 tile.
    Avx2,
    /// AVX-512F, 16×4 tile.
    Avx512,
}

impl Tier {
    /// The canonical lowercase name (`"scalar"`, `"avx2"`, `"avx512"`).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Avx2 => "avx2",
            Tier::Avx512 => "avx512",
        }
    }

    /// Parses a tier name as accepted by `FSI_KERNEL`.
    pub fn parse(s: &str) -> Option<Tier> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" | "portable" => Some(Tier::Scalar),
            "avx2" => Some(Tier::Avx2),
            "avx512" | "avx-512" => Some(Tier::Avx512),
            _ => None,
        }
    }

    /// Whether the running CPU can execute this tier.
    pub fn is_available(self) -> bool {
        match self {
            Tier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest available tier at or below this one (the silent
    /// degradation path: `Avx512 → Avx2 → Scalar`).
    fn degrade(self) -> Tier {
        let mut t = self;
        loop {
            if t.is_available() {
                return t;
            }
            t = match t {
                Tier::Avx512 => Tier::Avx2,
                _ => Tier::Scalar,
            };
        }
    }

    fn code(self) -> u8 {
        match self {
            Tier::Scalar => 1,
            Tier::Avx2 => 2,
            Tier::Avx512 => 3,
        }
    }

    fn from_code(c: u8) -> Option<Tier> {
        match c {
            1 => Some(Tier::Scalar),
            2 => Some(Tier::Avx2),
            3 => Some(Tier::Avx512),
            _ => None,
        }
    }
}

/// The tiers the running CPU supports, narrowest first.
pub fn available_tiers() -> Vec<Tier> {
    [Tier::Scalar, Tier::Avx2, Tier::Avx512]
        .into_iter()
        .filter(|t| t.is_available())
        .collect()
}

/// Widest tier supported by the running CPU.
fn detect() -> Tier {
    Tier::Avx512.degrade()
}

/// Process default: `FSI_KERNEL` (degraded to availability) or detection,
/// resolved once.
fn process_default() -> Tier {
    static DEFAULT: OnceLock<Tier> = OnceLock::new();
    *DEFAULT.get_or_init(|| match std::env::var("FSI_KERNEL") {
        Ok(v) => match Tier::parse(&v) {
            Some(t) => t.degrade(),
            None => {
                eprintln!("fsi-dense: ignoring unknown FSI_KERNEL={v:?} (want avx512|avx2|scalar)");
                detect()
            }
        },
        Err(_) => detect(),
    })
}

thread_local! {
    /// Thread-local override set by [`with_tier`] (0 = unset).
    static TL_TIER: std::cell::Cell<u8> = const { std::cell::Cell::new(0) };
}

/// Runs `f` with the calling thread's kernel tier forced to `tier`
/// (restored afterwards, also on panic). The equivalence-test hook.
///
/// # Panics
/// Panics when the CPU cannot execute `tier`; gate calls on
/// [`Tier::is_available`].
pub fn with_tier<R>(tier: Tier, f: impl FnOnce() -> R) -> R {
    assert!(
        tier.is_available(),
        "kernel tier {} not supported by this CPU",
        tier.name()
    );
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            TL_TIER.with(|c| c.set(self.0));
        }
    }
    let _restore = TL_TIER.with(|c| {
        let prev = c.get();
        c.set(tier.code());
        Restore(prev)
    });
    f()
}

/// The tier the calling thread's next GEMM will run: thread-local
/// override, then `FSI_KERNEL`/detection.
pub fn active_tier() -> Tier {
    if let Some(t) = Tier::from_code(TL_TIER.with(|c| c.get())) {
        return t;
    }
    process_default()
}

/// Resolves the active tier to its kernel table entry.
pub(crate) fn active() -> &'static KernelTier {
    tier_kernels(active_tier())
}

/// The kernel table entry for a tier (degraded to availability, so a
/// stored-but-stale override can never dispatch an illegal instruction).
pub(crate) fn tier_kernels(tier: Tier) -> &'static KernelTier {
    match tier.degrade() {
        Tier::Scalar => &SCALAR_TIER,
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => &AVX2_TIER,
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => &AVX512_TIER,
        #[cfg(not(target_arch = "x86_64"))]
        _ => &SCALAR_TIER,
    }
}

static SCALAR_TIER: KernelTier = KernelTier {
    mr: 8,
    nr: 4,
    micro: micro_kernel_portable,
    driver: direct_driver_portable,
};

#[cfg(target_arch = "x86_64")]
static AVX2_TIER: KernelTier = KernelTier {
    mr: 8,
    nr: 4,
    micro: micro_kernel_avx2,
    driver: direct_driver_avx2,
};

#[cfg(target_arch = "x86_64")]
static AVX512_TIER: KernelTier = KernelTier {
    mr: 16,
    nr: 4,
    micro: micro_kernel_avx512,
    driver: direct_driver_avx512,
};

/// Unfused `base + alpha·acc` writeback of one element; `store` replaces
/// `base` with literal `0.0` (including its effect on signed zeros), so
/// store mode is bitwise identical to filling C with zero first.
#[inline(always)]
unsafe fn write_elem(c: *mut f64, alpha: f64, acc: f64, store: bool) {
    let contrib = alpha * acc;
    *c = if store { 0.0 + contrib } else { *c + contrib };
}

/// Portable 8×4 micro-kernel: accumulates the full register tile from
/// zero over `kc` packed depth steps (padding lanes contribute exact
/// zeros), then writes `alpha ·` the live `m_eff × n_eff` corner into C.
/// Written over fixed-size arrays with plain multiply-add so LLVM
/// auto-vectorizes with whatever SIMD the baseline target allows, without
/// emitting libm `fma` calls.
///
/// # Safety
/// `ap` must point at `kc·8` packed values, `bp` at `kc·4`, and `c` at a
/// tile whose `m_eff × n_eff` corner is exclusively writable with column
/// stride `ldc`.
#[allow(clippy::too_many_arguments)]
unsafe fn micro_kernel_portable(
    kc: usize,
    alpha: f64,
    ap: *const f64,
    bp: *const f64,
    c: *mut f64,
    ldc: usize,
    m_eff: usize,
    n_eff: usize,
    store: bool,
) {
    const MR: usize = 8;
    const NR: usize = 4;
    let mut acc = [[0.0f64; MR]; NR];
    for p in 0..kc {
        let a = ap.add(p * MR);
        let b = bp.add(p * NR);
        let mut av = [0.0f64; MR];
        for (i, slot) in av.iter_mut().enumerate() {
            *slot = *a.add(i);
        }
        for (j, accj) in acc.iter_mut().enumerate() {
            let bj = *b.add(j);
            for (i, accij) in accj.iter_mut().enumerate() {
                *accij += av[i] * bj;
            }
        }
    }
    for (j, accj) in acc.iter().enumerate().take(n_eff) {
        let cj = c.add(j * ldc);
        for (i, &accij) in accj.iter().enumerate().take(m_eff) {
            write_elem(cj.add(i), alpha, accij, store);
        }
    }
}

/// Portable direct kernel: same 8×4 tile and accumulation order as
/// [`micro_kernel_portable`], but reading the operands in place —
/// `a[i, p] = a[i + p·lda]`, `b[p, j] = b[p + j·ldb]` — with short rows
/// zero-padded in registers.
///
/// # Safety
/// The `m_eff × kc` A tile, `kc × n_eff` B tile, and `m_eff × n_eff` C
/// tile must be in bounds at the given strides; the C tile must be
/// exclusively writable.
#[allow(clippy::too_many_arguments)]
unsafe fn direct_kernel_portable(
    kc: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    c: *mut f64,
    ldc: usize,
    m_eff: usize,
    n_eff: usize,
    store: bool,
) {
    const MR: usize = 8;
    const NR: usize = 4;
    let mut acc = [[0.0f64; MR]; NR];
    for p in 0..kc {
        let ac = a.add(p * lda);
        let mut av = [0.0f64; MR];
        for (i, slot) in av.iter_mut().enumerate().take(m_eff) {
            *slot = *ac.add(i);
        }
        for (j, accj) in acc.iter_mut().enumerate().take(n_eff) {
            let bj = *b.add(p + j * ldb);
            for (i, accij) in accj.iter_mut().enumerate() {
                *accij += av[i] * bj;
            }
        }
    }
    for (j, accj) in acc.iter().enumerate().take(n_eff) {
        let cj = c.add(j * ldc);
        for (i, &accij) in accj.iter().enumerate().take(m_eff) {
            write_elem(cj.add(i), alpha, accij, store);
        }
    }
}

/// AVX2+FMA 8×4 packed kernel: the tile lives in 8 `ymm` accumulators
/// (two per C column), and each depth step issues 2 panel loads, 4
/// broadcasts, and 8 `vfmadd231pd` — exactly enough independent chains to
/// saturate both FMA ports of Haswell-and-later cores.
///
/// The writeback deliberately uses unfused multiply-then-add (not
/// `vfmadd`) so each C element sees the same rounding sequence as the
/// partial-tile path and the scalar-lane paths — results are bitwise
/// independent of where tile boundaries fall, which keeps parallel runs
/// bitwise equal to sequential ones.
///
/// # Safety
/// See [`micro_kernel_portable`]; additionally the CPU must support AVX2
/// and FMA (guaranteed by the tier dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_kernel_avx2(
    kc: usize,
    alpha: f64,
    ap: *const f64,
    bp: *const f64,
    c: *mut f64,
    ldc: usize,
    m_eff: usize,
    n_eff: usize,
    store: bool,
) {
    use std::arch::x86_64::*;
    const MR: usize = 8;
    const NR: usize = 4;
    let mut acc = [[_mm256_setzero_pd(); 2]; NR];
    for p in 0..kc {
        let a0 = _mm256_loadu_pd(ap.add(p * MR));
        let a1 = _mm256_loadu_pd(ap.add(p * MR + 4));
        for (j, accj) in acc.iter_mut().enumerate() {
            let bj = _mm256_broadcast_sd(&*bp.add(p * NR + j));
            accj[0] = _mm256_fmadd_pd(a0, bj, accj[0]);
            accj[1] = _mm256_fmadd_pd(a1, bj, accj[1]);
        }
    }
    let alphav = _mm256_set1_pd(alpha);
    if m_eff == MR && n_eff == NR {
        for (j, accj) in acc.iter().enumerate() {
            let cj = c.add(j * ldc);
            let lo_contrib = _mm256_mul_pd(alphav, accj[0]);
            let hi_contrib = _mm256_mul_pd(alphav, accj[1]);
            let (base_lo, base_hi) = if store {
                (_mm256_setzero_pd(), _mm256_setzero_pd())
            } else {
                (_mm256_loadu_pd(cj), _mm256_loadu_pd(cj.add(4)))
            };
            _mm256_storeu_pd(cj, _mm256_add_pd(base_lo, lo_contrib));
            _mm256_storeu_pd(cj.add(4), _mm256_add_pd(base_hi, hi_contrib));
        }
    } else {
        let mut tile = [[0.0f64; MR]; NR];
        for (j, accj) in acc.iter().enumerate() {
            _mm256_storeu_pd(tile[j].as_mut_ptr(), accj[0]);
            _mm256_storeu_pd(tile[j].as_mut_ptr().add(4), accj[1]);
        }
        for (j, tj) in tile.iter().enumerate().take(n_eff) {
            let cj = c.add(j * ldc);
            for (i, &v) in tj.iter().enumerate().take(m_eff) {
                write_elem(cj.add(i), alpha, v, store);
            }
        }
    }
}

/// Builds a 4-lane AVX2 load/store mask with the low `live` lanes
/// enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_mask(live: usize) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let lane = |i: usize| if live > i { -1i64 } else { 0 };
    _mm256_setr_epi64x(lane(0), lane(1), lane(2), lane(3))
}

/// AVX2+FMA direct kernel: identical FMA chains to [`micro_kernel_avx2`]
/// but reading operands in place; partial row tiles use masked loads and
/// stores (dead lanes load exact zeros, so they accumulate zeros and are
/// never written back).
///
/// # Safety
/// See [`direct_kernel_portable`]; additionally the CPU must support AVX2
/// and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn direct_kernel_avx2(
    kc: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    c: *mut f64,
    ldc: usize,
    m_eff: usize,
    n_eff: usize,
    store: bool,
) {
    use std::arch::x86_64::*;
    const MR: usize = 8;
    const NR: usize = 4;
    let alphav = _mm256_set1_pd(alpha);
    if m_eff == MR && n_eff == NR {
        // Full tile: constant trip counts, fully unrolled FMA group (see
        // the AVX-512 direct kernel).
        let mut acc = [[_mm256_setzero_pd(); 2]; NR];
        for p in 0..kc {
            let ac = a.add(p * lda);
            let a0 = _mm256_loadu_pd(ac);
            let a1 = _mm256_loadu_pd(ac.add(4));
            for (j, accj) in acc.iter_mut().enumerate() {
                let bj = _mm256_broadcast_sd(&*b.add(p + j * ldb));
                accj[0] = _mm256_fmadd_pd(a0, bj, accj[0]);
                accj[1] = _mm256_fmadd_pd(a1, bj, accj[1]);
            }
        }
        for (j, accj) in acc.iter().enumerate() {
            let cj = c.add(j * ldc);
            let lo_contrib = _mm256_mul_pd(alphav, accj[0]);
            let hi_contrib = _mm256_mul_pd(alphav, accj[1]);
            let (base_lo, base_hi) = if store {
                (_mm256_setzero_pd(), _mm256_setzero_pd())
            } else {
                (_mm256_loadu_pd(cj), _mm256_loadu_pd(cj.add(4)))
            };
            _mm256_storeu_pd(cj, _mm256_add_pd(base_lo, lo_contrib));
            _mm256_storeu_pd(cj.add(4), _mm256_add_pd(base_hi, hi_contrib));
        }
    } else {
        let m_lo = avx2_mask(m_eff.min(4));
        let m_hi = avx2_mask(m_eff.saturating_sub(4));
        let mut acc = [[_mm256_setzero_pd(); 2]; NR];
        for p in 0..kc {
            let ac = a.add(p * lda);
            let a0 = _mm256_maskload_pd(ac, m_lo);
            let a1 = _mm256_maskload_pd(ac.add(4), m_hi);
            for (j, accj) in acc.iter_mut().enumerate().take(n_eff) {
                let bj = _mm256_broadcast_sd(&*b.add(p + j * ldb));
                accj[0] = _mm256_fmadd_pd(a0, bj, accj[0]);
                accj[1] = _mm256_fmadd_pd(a1, bj, accj[1]);
            }
        }
        for (j, accj) in acc.iter().enumerate().take(n_eff) {
            let cj = c.add(j * ldc);
            let lo_contrib = _mm256_mul_pd(alphav, accj[0]);
            let hi_contrib = _mm256_mul_pd(alphav, accj[1]);
            let (base_lo, base_hi) = if store {
                (_mm256_setzero_pd(), _mm256_setzero_pd())
            } else {
                (
                    _mm256_maskload_pd(cj, m_lo),
                    _mm256_maskload_pd(cj.add(4), m_hi),
                )
            };
            _mm256_maskstore_pd(cj, m_lo, _mm256_add_pd(base_lo, lo_contrib));
            _mm256_maskstore_pd(cj.add(4), m_hi, _mm256_add_pd(base_hi, hi_contrib));
        }
    }
}

/// AVX-512F 16×4 packed kernel: two `zmm` loads and 4 broadcasts feed 8
/// FMAs per depth step into 8 independent `zmm` accumulator chains. The
/// accumulation order per C element is identical to the AVX2 kernel's
/// (element `(i, j)` always lives in lane `i mod 8` of its half-tile), so
/// AVX-512 and AVX2 results are bitwise equal.
///
/// # Safety
/// `ap` must point at `kc·16` packed values, `bp` at `kc·4`; see
/// [`micro_kernel_portable`] for the C contract. The CPU must support
/// AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_kernel_avx512(
    kc: usize,
    alpha: f64,
    ap: *const f64,
    bp: *const f64,
    c: *mut f64,
    ldc: usize,
    m_eff: usize,
    n_eff: usize,
    store: bool,
) {
    use std::arch::x86_64::*;
    const MR: usize = 16;
    const NR: usize = 4;
    let mut acc = [[_mm512_setzero_pd(); 2]; NR];
    for p in 0..kc {
        let a0 = _mm512_loadu_pd(ap.add(p * MR));
        let a1 = _mm512_loadu_pd(ap.add(p * MR + 8));
        for (j, accj) in acc.iter_mut().enumerate() {
            let bj = _mm512_set1_pd(*bp.add(p * NR + j));
            accj[0] = _mm512_fmadd_pd(a0, bj, accj[0]);
            accj[1] = _mm512_fmadd_pd(a1, bj, accj[1]);
        }
    }
    let alphav = _mm512_set1_pd(alpha);
    if m_eff == MR && n_eff == NR {
        for (j, accj) in acc.iter().enumerate() {
            let cj = c.add(j * ldc);
            let lo_contrib = _mm512_mul_pd(alphav, accj[0]);
            let hi_contrib = _mm512_mul_pd(alphav, accj[1]);
            let (base_lo, base_hi) = if store {
                (_mm512_setzero_pd(), _mm512_setzero_pd())
            } else {
                (_mm512_loadu_pd(cj), _mm512_loadu_pd(cj.add(8)))
            };
            _mm512_storeu_pd(cj, _mm512_add_pd(base_lo, lo_contrib));
            _mm512_storeu_pd(cj.add(8), _mm512_add_pd(base_hi, hi_contrib));
        }
    } else {
        let mut tile = [[0.0f64; MR]; NR];
        for (j, accj) in acc.iter().enumerate() {
            _mm512_storeu_pd(tile[j].as_mut_ptr(), accj[0]);
            _mm512_storeu_pd(tile[j].as_mut_ptr().add(8), accj[1]);
        }
        for (j, tj) in tile.iter().enumerate().take(n_eff) {
            let cj = c.add(j * ldc);
            for (i, &v) in tj.iter().enumerate().take(m_eff) {
                write_elem(cj.add(i), alpha, v, store);
            }
        }
    }
}

/// AVX-512F direct kernel, 16×8: per element the same sequential FMA
/// chain over `k` as [`micro_kernel_avx512`] (tile width never changes an
/// element's accumulation order, so results stay bitwise identical to the
/// 16×4 packed kernel), but reading operands in place with twice the FMAs
/// per A-load — 16 accumulator registers of the 32 AVX-512 offers.
/// Partial row tiles use `k`-masked zero-filling loads and masked stores.
///
/// # Safety
/// See [`direct_kernel_portable`]; additionally the CPU must support
/// AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn direct_kernel_avx512(
    kc: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    c: *mut f64,
    ldc: usize,
    m_eff: usize,
    n_eff: usize,
    store: bool,
) {
    use std::arch::x86_64::*;
    const MR: usize = 16;
    const NR: usize = 8;
    let alphav = _mm512_set1_pd(alpha);
    if m_eff == MR && n_eff == NR {
        // Full tile: constant trip counts so LLVM fully unrolls the
        // 8-column FMA group per depth step (a runtime `n_eff` bound here
        // keeps a counted loop in the hot path and costs ~5% at N = 64).
        let mut acc = [[_mm512_setzero_pd(); 2]; NR];
        for p in 0..kc {
            let ac = a.add(p * lda);
            let a0 = _mm512_loadu_pd(ac);
            let a1 = _mm512_loadu_pd(ac.add(8));
            for (j, accj) in acc.iter_mut().enumerate() {
                let bj = _mm512_set1_pd(*b.add(p + j * ldb));
                accj[0] = _mm512_fmadd_pd(a0, bj, accj[0]);
                accj[1] = _mm512_fmadd_pd(a1, bj, accj[1]);
            }
        }
        for (j, accj) in acc.iter().enumerate() {
            let cj = c.add(j * ldc);
            let lo_contrib = _mm512_mul_pd(alphav, accj[0]);
            let hi_contrib = _mm512_mul_pd(alphav, accj[1]);
            let (base_lo, base_hi) = if store {
                (_mm512_setzero_pd(), _mm512_setzero_pd())
            } else {
                (_mm512_loadu_pd(cj), _mm512_loadu_pd(cj.add(8)))
            };
            _mm512_storeu_pd(cj, _mm512_add_pd(base_lo, lo_contrib));
            _mm512_storeu_pd(cj.add(8), _mm512_add_pd(base_hi, hi_contrib));
        }
    } else {
        let k_lo: __mmask8 = if m_eff >= 8 { 0xff } else { (1u8 << m_eff) - 1 };
        let k_hi: __mmask8 = if m_eff > 8 {
            ((1u32 << (m_eff - 8)) - 1) as u8
        } else {
            0
        };
        let mut acc = [[_mm512_setzero_pd(); 2]; NR];
        for p in 0..kc {
            let ac = a.add(p * lda);
            let a0 = _mm512_maskz_loadu_pd(k_lo, ac);
            let a1 = _mm512_maskz_loadu_pd(k_hi, ac.add(8));
            for (j, accj) in acc.iter_mut().enumerate().take(n_eff) {
                let bj = _mm512_set1_pd(*b.add(p + j * ldb));
                accj[0] = _mm512_fmadd_pd(a0, bj, accj[0]);
                accj[1] = _mm512_fmadd_pd(a1, bj, accj[1]);
            }
        }
        for (j, accj) in acc.iter().enumerate().take(n_eff) {
            let cj = c.add(j * ldc);
            let lo_contrib = _mm512_mul_pd(alphav, accj[0]);
            let hi_contrib = _mm512_mul_pd(alphav, accj[1]);
            let (base_lo, base_hi) = if store {
                (_mm512_setzero_pd(), _mm512_setzero_pd())
            } else {
                (
                    _mm512_maskz_loadu_pd(k_lo, cj),
                    _mm512_maskz_loadu_pd(k_hi, cj.add(8)),
                )
            };
            _mm512_mask_storeu_pd(cj, k_lo, _mm512_add_pd(base_lo, lo_contrib));
            _mm512_mask_storeu_pd(cj.add(8), k_hi, _mm512_add_pd(base_hi, hi_contrib));
        }
    }
}

/// Generates one tier's whole-matrix direct driver: the register-tile
/// loop over `m × n`, calling the tier's direct kernel on each tile. The
/// attribute list (forwarded verbatim) places the loop inside the same
/// `#[target_feature]` region as the kernel it calls, so the call is
/// direct and inlinable.
macro_rules! direct_driver {
    ($(#[$attr:meta])* $name:ident, $kernel:ident, $mr:expr, $nr:expr) => {
        $(#[$attr])*
        #[allow(clippy::too_many_arguments)]
        unsafe fn $name(
            m: usize,
            n: usize,
            k: usize,
            alpha: f64,
            a: *const f64,
            lda: usize,
            b: *const f64,
            ldb: usize,
            c: *mut f64,
            ldc: usize,
            store: bool,
        ) {
            let mut jr = 0;
            while jr < n {
                let n_eff = ($nr).min(n - jr);
                let mut ir = 0;
                while ir < m {
                    let m_eff = ($mr).min(m - ir);
                    // SAFETY: the A tile at row `ir` has `m_eff ≤ MR` live
                    // rows and `k` columns at stride `lda`; the B tile at
                    // column `jr` has `n_eff` columns of depth `k`; the C
                    // corner is inside the caller's exclusive view. The
                    // kernel masks all dead lanes.
                    $kernel(
                        k,
                        alpha,
                        a.add(ir),
                        lda,
                        b.add(jr * ldb),
                        ldb,
                        c.add(ir + jr * ldc),
                        ldc,
                        m_eff,
                        n_eff,
                        store,
                    );
                    ir += $mr;
                }
                jr += $nr;
            }
        }
    };
}

direct_driver!(direct_driver_portable, direct_kernel_portable, 8, 4);
direct_driver!(
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    direct_driver_avx2,
    direct_kernel_avx2,
    8,
    4
);
direct_driver!(
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    direct_driver_avx512,
    direct_kernel_avx512,
    16,
    8
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_canonical_names() {
        assert_eq!(Tier::parse("avx512"), Some(Tier::Avx512));
        assert_eq!(Tier::parse("AVX2"), Some(Tier::Avx2));
        assert_eq!(Tier::parse(" scalar "), Some(Tier::Scalar));
        assert_eq!(Tier::parse("neon"), None);
    }

    #[test]
    fn scalar_always_available_and_degrade_terminates() {
        assert!(Tier::Scalar.is_available());
        for t in [Tier::Scalar, Tier::Avx2, Tier::Avx512] {
            assert!(t.degrade().is_available());
        }
    }

    #[test]
    fn available_tiers_is_prefix_closed() {
        // If a wide tier is available, every narrower one is too (the
        // degradation chain never dead-ends).
        let avail = available_tiers();
        assert!(avail.contains(&Tier::Scalar));
        if avail.contains(&Tier::Avx512) {
            assert!(avail.contains(&Tier::Avx2), "avx512 without avx2?");
        }
    }

    #[test]
    fn with_tier_overrides_and_restores() {
        let before = active_tier();
        with_tier(Tier::Scalar, || {
            assert_eq!(active_tier(), Tier::Scalar);
            assert_eq!(tier_kernels(active_tier()).mr, 8);
        });
        assert_eq!(active_tier(), before);
    }

    #[test]
    fn tier_table_shapes_are_consistent() {
        for t in available_tiers() {
            let kt = tier_kernels(t);
            assert_eq!(kt.nr, 4, "all tiers share the B panel layout");
            assert!(kt.mr == 8 || kt.mr == 16);
        }
    }
}
