//! Zero-dependency SIMD shim for the batched SoA lane sweep.
//!
//! The batched cluster kernel (`super::batch`) stores chunk state
//! node-major: row `i` holds node `i`'s temperature for every machine
//! (lane) in the chunk. A sub-step is two row passes per node —
//! `next = self_w·cur + ΔT_power`, then `next += w_j·src_j` per
//! operator entry — and lanes never interact, so the passes are pure
//! elementwise multiply-adds over contiguous rows: the textbook SIMD
//! shape.
//!
//! This module supplies that sweep at explicit vector widths behind a
//! small backend enum:
//!
//! | backend  | block      | requires                      |
//! |----------|------------|-------------------------------|
//! | `Scalar` | `f64`      | nothing (reference path)      |
//! | `Sse2`   | `f64x2`    | x86-64 (baseline)             |
//! | `Avx2`   | `f64x4`    | runtime `avx2` + `fma`        |
//! | `Avx512` | `f64x8`    | runtime `avx512f`             |
//! | `Neon`   | `f64x2`    | aarch64 (baseline)            |
//!
//! The best supported backend is detected once per process at runtime
//! ([`SimdBackend::select`]); the `MERCURY_SIMD` environment variable
//! (`scalar`/`sse2`/`avx2`/`avx512`/`neon`/`auto`) overrides detection,
//! falling back to auto-detection when the named backend is not
//! supported on the host. [`super::ClusterSolver::set_simd_backend`]
//! overrides per solver, which is how the equivalence tests force every
//! backend on one machine.
//!
//! ## Exactness contract
//!
//! In the **default mode** every backend is *bit-identical* to the
//! scalar reference sweep: vector lanes round elementwise exactly like
//! scalar `f64` (`mul` then `add`, same IEEE 754 rounding), the
//! per-lane operation order is unchanged (block-outer/entry-inner
//! nesting reorders nothing within a lane because lanes are
//! independent), and rows are whole blocks: `batch` pads every chunk
//! with dead all-zero lanes to [`LANE_PAD`], so there are no remainder
//! lanes. `tests/batch_equivalence.rs` holds every backend to bitwise
//! equality with the per-machine kernel.
//!
//! In the opt-in **fast-math mode** (`ClusterSolver::set_fast_math`)
//! the sweep may contract each multiply-add into a fused FMA (one
//! rounding instead of two) and may reassociate the per-row
//! accumulation. The current kernels contract but do not reassociate;
//! `Sse2` has no FMA hardware and keeps the exact two-rounding
//! sequence, and the `Scalar` backend ignores the flag entirely.
//! Fast-math trajectories are specified by the
//! bounded-divergence contract in `DESIGN.md` §3b ("Vectorized lane
//! sweeps") and `tests/fast_math_divergence.rs`, not by bit-identity.

use std::sync::OnceLock;

/// Instruction-set backend for the batched chunk lane sweep.
///
/// `Scalar` is the portable reference path and the bit-exactness
/// oracle; the vector backends are bit-identical to it in default mode
/// (see the module docs for the argument) and bounded-divergent in
/// fast-math mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdBackend {
    /// Portable scalar row loop — always available, the reference path.
    #[default]
    Scalar,
    /// 2-wide `f64x2` blocks over SSE2 (x86-64 baseline, no FMA).
    Sse2,
    /// 4-wide `f64x4` blocks over AVX2, FMA contraction in fast-math
    /// mode.
    Avx2,
    /// 8-wide `f64x8` blocks over AVX-512F, FMA contraction in
    /// fast-math mode.
    Avx512,
    /// 2-wide `f64x2` blocks over NEON (aarch64 baseline), FMA
    /// contraction in fast-math mode.
    Neon,
}

impl SimdBackend {
    /// Every backend, best-first. Tests iterate this (filtered by
    /// [`SimdBackend::supported`]) to cover each path the host can run.
    pub const ALL: [SimdBackend; 5] = [
        SimdBackend::Avx512,
        SimdBackend::Avx2,
        SimdBackend::Sse2,
        SimdBackend::Neon,
        SimdBackend::Scalar,
    ];

    /// `f64` lanes per vector block (1 for the scalar path).
    #[must_use]
    pub fn lane_width(self) -> usize {
        match self {
            SimdBackend::Scalar => 1,
            SimdBackend::Sse2 | SimdBackend::Neon => 2,
            SimdBackend::Avx2 => 4,
            SimdBackend::Avx512 => 8,
        }
    }

    /// Stable lowercase name (the `MERCURY_SIMD` vocabulary).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            SimdBackend::Sse2 => "sse2",
            SimdBackend::Avx2 => "avx2",
            SimdBackend::Avx512 => "avx512",
            SimdBackend::Neon => "neon",
        }
    }

    /// Whether this backend can run on the current host (compile-time
    /// architecture plus runtime feature detection).
    #[must_use]
    pub fn supported(self) -> bool {
        match self {
            SimdBackend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Sse2 => true,
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => {
                // FMA is required up front so the fast-math toggle never
                // changes which code the backend may execute.
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "aarch64")]
            SimdBackend::Neon => true,
            #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
            _ => false,
            #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
            _ => false,
        }
    }

    /// The widest backend supported on this host.
    #[must_use]
    pub fn detect() -> SimdBackend {
        *Self::ALL
            .iter()
            .find(|b| b.supported())
            .expect("Scalar is always supported")
    }

    /// Process-wide default backend: `MERCURY_SIMD` if set to a
    /// supported backend name, otherwise [`SimdBackend::detect`].
    /// Cached after the first call (the environment is read once).
    #[must_use]
    pub fn select() -> SimdBackend {
        static SELECTED: OnceLock<SimdBackend> = OnceLock::new();
        *SELECTED.get_or_init(|| match std::env::var("MERCURY_SIMD") {
            Ok(name) => match Self::parse(name.trim()) {
                Some(b) if b.supported() => b,
                _ => Self::detect(),
            },
            Err(_) => Self::detect(),
        })
    }

    /// Parses a `MERCURY_SIMD` value; `auto`/unknown yield `None`.
    fn parse(name: &str) -> Option<SimdBackend> {
        Self::ALL.iter().copied().find(|b| b.name() == name)
    }
}

/// Row stride granularity of chunk matrices: the widest vector block.
/// `batch` pads every chunk's live lanes with dead (all-zero) lanes to a
/// multiple of this, so a row is whole blocks on every backend and the
/// sweep needs no remainder loop.
pub(crate) const LANE_PAD: usize = 8;

/// Borrowed view of one chunk sub-step: the operator plus the chunk's
/// `[nodes × lanes]` matrices. `cur` is read-only, `next` is written;
/// `fixed` rows are skipped entirely (both buffers already hold their
/// boundary values — see `batch::BatchSet::begin_tick`).
///
/// The operator's weights come from one of two sources. Shared
/// (`lane_w` false): `op_w` holds one weight per entry and `self_w` one
/// per node, splat across the row. Per-lane (`lane_w` true): `op_w` is
/// an `[entries × lanes]` matrix and `self_w` a `[nodes × lanes]`
/// matrix, so each lane multiplies by its own machine's weights. The
/// per-lane operation sequence is the same either way.
#[derive(Debug)]
pub(crate) struct Sweep<'a> {
    pub n: usize,
    /// Row stride: live plus dead lanes, a multiple of [`LANE_PAD`].
    pub lanes: usize,
    pub op_off: &'a [u32],
    pub op_src: &'a [u32],
    pub op_w: &'a [f64],
    pub self_w: &'a [f64],
    pub lane_w: bool,
    pub fixed: &'a [bool],
    pub power_dt: &'a [f64],
    pub cur: &'a [f64],
    pub next: &'a mut [f64],
}

impl Sweep<'_> {
    fn check(&self) {
        // Not a debug assertion: with no remainder loop, lanes past the
        // last whole block would silently stay unstepped.
        assert_eq!(self.lanes % LANE_PAD, 0, "row stride is not padded");
        let per_weight = if self.lane_w { self.lanes } else { 1 };
        debug_assert_eq!(self.cur.len(), self.n * self.lanes);
        debug_assert_eq!(self.next.len(), self.n * self.lanes);
        debug_assert_eq!(self.power_dt.len(), self.n * self.lanes);
        debug_assert_eq!(self.self_w.len(), self.n * per_weight);
        debug_assert_eq!(self.fixed.len(), self.n);
        debug_assert_eq!(self.op_off.len(), self.n + 1);
        debug_assert_eq!(self.op_w.len(), self.op_src.len() * per_weight);
        debug_assert!(self.op_src.iter().all(|&s| (s as usize) < self.n));
    }
}

/// Runs one sub-step sweep on the given backend. `fast` selects the
/// fast-math kernels (FMA contraction where the backend has it);
/// default mode is bit-identical to [`substep_scalar`] on every
/// backend. Falls back to the scalar sweep for backends this binary
/// was not compiled for (the cluster never selects those — see
/// [`SimdBackend::supported`]).
pub(crate) fn substep(backend: SimdBackend, fast: bool, sweep: Sweep<'_>) {
    sweep.check();
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the cluster only selects backends that passed
        // `SimdBackend::supported` on this host (sse2 is the x86-64
        // baseline; avx2/avx512 were runtime-detected), and
        // `Sweep::check` validated every index bound the kernels rely
        // on.
        #[allow(unsafe_code)]
        SimdBackend::Sse2 => unsafe { x86::substep_sse2(sweep, fast) },
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        // SAFETY: as above — avx2+fma runtime-detected before selection.
        SimdBackend::Avx2 => unsafe { x86::substep_avx2(sweep, fast) },
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        // SAFETY: as above — avx512f runtime-detected before selection.
        SimdBackend::Avx512 => unsafe { x86::substep_avx512(sweep, fast) },
        #[cfg(target_arch = "aarch64")]
        #[allow(unsafe_code)]
        // SAFETY: as above — NEON is the aarch64 baseline.
        SimdBackend::Neon => unsafe { neon::substep_neon(sweep, fast) },
        _ if sweep.lane_w => substep_scalar::<true>(sweep),
        _ => substep_scalar::<false>(sweep),
    }
}

/// The scalar reference sweep: the row-pass loop the batched kernel has
/// always run, minus the fixed-row copies (fixed rows are pre-written
/// into both buffers at gather time). Per lane this is the scalar
/// machine kernel's exact operation sequence, with the lane's weights
/// read from the source `LANE_W` names.
fn substep_scalar<const LANE_W: bool>(s: Sweep<'_>) {
    let lanes = s.lanes;
    for i in 0..s.n {
        if s.fixed[i] {
            continue;
        }
        let row = i * lanes;
        let cur_row = &s.cur[row..row + lanes];
        let pd_row = &s.power_dt[row..row + lanes];
        let next_row = &mut s.next[row..row + lanes];
        if LANE_W {
            let sw_row = &s.self_w[row..row + lanes];
            for l in 0..lanes {
                next_row[l] = sw_row[l] * cur_row[l] + pd_row[l];
            }
        } else {
            let sw = s.self_w[i];
            for l in 0..lanes {
                next_row[l] = sw * cur_row[l] + pd_row[l];
            }
        }
        for j in s.op_off[i] as usize..s.op_off[i + 1] as usize {
            let src = s.op_src[j] as usize * lanes;
            let src_row = &s.cur[src..src + lanes];
            let next_row = &mut s.next[row..row + lanes];
            if LANE_W {
                let w_row = &s.op_w[j * lanes..(j + 1) * lanes];
                for l in 0..lanes {
                    next_row[l] += w_row[l] * src_row[l];
                }
            } else {
                let w = s.op_w[j];
                for l in 0..lanes {
                    next_row[l] += w * src_row[l];
                }
            }
        }
    }
}

/// Minimal vector-of-`f64` interface the generic sweep is written
/// against. Methods are `unsafe` because the intrinsics they wrap
/// require their target feature to be enabled in the calling context —
/// every call site sits inside a `#[target_feature]` entry point and
/// the impls are `#[inline(always)]` so they compile under it.
#[allow(unsafe_code)]
trait VecF64: Copy {
    const WIDTH: usize;
    unsafe fn load(p: *const f64) -> Self;
    unsafe fn store(self, p: *mut f64);
    unsafe fn splat(x: f64) -> Self;
    unsafe fn mul(a: Self, b: Self) -> Self;
    unsafe fn add(a: Self, b: Self) -> Self;
    /// `a·b + c`. Fused (one rounding) where the backend has FMA
    /// hardware; otherwise the exact two-rounding sequence. Only the
    /// fast-math kernels call this.
    unsafe fn mul_add(a: Self, b: Self, c: Self) -> Self;
}

/// One group of `G` consecutive `V::WIDTH`-lane blocks of a node row,
/// accumulated fully in registers: the `self_w`/`ΔT_power` pass, then
/// the whole operator row, then one store per block. Grouping shares
/// each entry's source-offset computation (and, for shared weights, its
/// weight splat) across the `G` blocks and gives the CPU `G`
/// independent accumulate chains to overlap (a single block's chain is
/// latency-bound).
///
/// `LANE_W` names the weight source at compile time, so the
/// shared-weight instantiation carries none of the per-lane address
/// arithmetic: `sw` points at the node's self weight and `op_w` at the
/// entry weights (shared), or at the node's row of the `[nodes × lanes]`
/// matrix and at the `[entries × lanes]` matrix (per-lane).
///
/// # Safety
///
/// Caller must hold `V`'s target feature enabled and guarantee
/// `col + G·V::WIDTH ≤ lanes` plus the `Sweep` bounds (`Sweep::check`).
#[allow(unsafe_code, clippy::too_many_arguments)]
#[inline(always)]
unsafe fn sweep_row_group<V: VecF64, const FAST: bool, const LANE_W: bool, const G: usize>(
    cur: *const f64,
    pd: *const f64,
    next: *mut f64,
    lanes: usize,
    row: usize,
    col: usize,
    sw: *const f64,
    op_src: &[u32],
    op_w: *const f64,
    lo: usize,
    hi: usize,
) {
    // SAFETY (whole body): bounds guaranteed by the caller as above.
    unsafe {
        let shared_sw = if LANE_W { V::splat(0.0) } else { V::splat(*sw) };
        let mut acc = [V::splat(0.0); G];
        for (g, a) in acc.iter_mut().enumerate() {
            let off = row + col + g * V::WIDTH;
            let swv = if LANE_W {
                V::load(sw.add(col + g * V::WIDTH))
            } else {
                shared_sw
            };
            let c = V::load(cur.add(off));
            let p = V::load(pd.add(off));
            *a = if FAST {
                V::mul_add(swv, c, p)
            } else {
                V::add(V::mul(swv, c), p)
            };
        }
        for j in lo..hi {
            let srow = *op_src.get_unchecked(j) as usize * lanes + col;
            let shared_w = if LANE_W {
                V::splat(0.0)
            } else {
                V::splat(*op_w.add(j))
            };
            for (g, a) in acc.iter_mut().enumerate() {
                let w = if LANE_W {
                    V::load(op_w.add(j * lanes + col + g * V::WIDTH))
                } else {
                    shared_w
                };
                let v = V::load(cur.add(srow + g * V::WIDTH));
                *a = if FAST {
                    V::mul_add(w, v, *a)
                } else {
                    V::add(*a, V::mul(w, v))
                };
            }
        }
        for (g, a) in acc.iter().enumerate() {
            a.store(next.add(row + col + g * V::WIDTH));
        }
    }
}

/// The generic blocked sweep: for each non-fixed node row, lane blocks
/// accumulate the whole operator row in registers before one store per
/// block (the scalar pass re-loads and re-stores `next` per operator
/// entry) — in groups of four blocks while they last, then singly; the
/// padded row stride leaves no remainder lanes. Per lane the operation
/// order is exactly the scalar sweep's, so with `FAST = false` the
/// result is bit-identical.
///
/// # Safety
///
/// Caller must hold `V`'s target feature enabled and have validated
/// the `Sweep` bounds (`Sweep::check`).
#[allow(unsafe_code)]
#[inline(always)]
unsafe fn sweep_vec<V: VecF64, const FAST: bool, const LANE_W: bool>(s: Sweep<'_>) {
    let lanes = s.lanes;
    let cur = s.cur.as_ptr();
    let pd = s.power_dt.as_ptr();
    let next = s.next.as_mut_ptr();
    let self_w = s.self_w.as_ptr();
    let op_w = s.op_w.as_ptr();
    for i in 0..s.n {
        // SAFETY (whole body): `Sweep::check` established that every
        // row index `i·lanes + l` with `i < n`, `l < lanes` and every
        // source row `op_src[j]·lanes + l` lies inside the three
        // `n·lanes` matrices, that `op_off[i]..op_off[i+1]` indexes
        // `op_src` (CSR invariant from operator assembly), that
        // `self_w`/`op_w` hold one weight per node/entry — or one row of
        // `lanes` weights per node/entry when `LANE_W` — and that
        // `lanes` is a whole number of `V::WIDTH` blocks.
        unsafe {
            if *s.fixed.get_unchecked(i) {
                continue;
            }
            let row = i * lanes;
            let sw = self_w.add(if LANE_W { row } else { i });
            let lo = *s.op_off.get_unchecked(i) as usize;
            let hi = *s.op_off.get_unchecked(i + 1) as usize;
            let mut col = 0usize;
            while col + 4 * V::WIDTH <= lanes {
                sweep_row_group::<V, FAST, LANE_W, 4>(
                    cur, pd, next, lanes, row, col, sw, s.op_src, op_w, lo, hi,
                );
                col += 4 * V::WIDTH;
            }
            while col + V::WIDTH <= lanes {
                sweep_row_group::<V, FAST, LANE_W, 1>(
                    cur, pd, next, lanes, row, col, sw, s.op_src, op_w, lo, hi,
                );
                col += V::WIDTH;
            }
        }
    }
}

/// Picks the `(FAST, LANE_W)` instantiation of [`sweep_vec`] for a
/// sweep — the one body every backend's entry point runs.
///
/// # Safety
///
/// As [`sweep_vec`].
#[allow(unsafe_code)]
#[inline(always)]
unsafe fn sweep_modes<V: VecF64>(s: Sweep<'_>, fast: bool) {
    // SAFETY: forwarded to the caller.
    unsafe {
        match (fast, s.lane_w) {
            (false, false) => sweep_vec::<V, false, false>(s),
            (false, true) => sweep_vec::<V, false, true>(s),
            (true, false) => sweep_vec::<V, true, false>(s),
            (true, true) => sweep_vec::<V, true, true>(s),
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::{sweep_modes, Sweep, VecF64};
    use std::arch::x86_64::*;

    #[derive(Clone, Copy)]
    struct F64x2(__m128d);

    impl VecF64 for F64x2 {
        const WIDTH: usize = 2;
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            F64x2(_mm_loadu_pd(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm_storeu_pd(p, self.0);
        }
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            F64x2(_mm_set1_pd(x))
        }
        #[inline(always)]
        unsafe fn mul(a: Self, b: Self) -> Self {
            F64x2(_mm_mul_pd(a.0, b.0))
        }
        #[inline(always)]
        unsafe fn add(a: Self, b: Self) -> Self {
            F64x2(_mm_add_pd(a.0, b.0))
        }
        /// SSE2 has no FMA: fast-math on this backend keeps the exact
        /// two-rounding sequence (contraction is permitted, not
        /// required).
        #[inline(always)]
        unsafe fn mul_add(a: Self, b: Self, c: Self) -> Self {
            F64x2(_mm_add_pd(_mm_mul_pd(a.0, b.0), c.0))
        }
    }

    #[derive(Clone, Copy)]
    struct F64x4(__m256d);

    impl VecF64 for F64x4 {
        const WIDTH: usize = 4;
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            F64x4(_mm256_loadu_pd(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm256_storeu_pd(p, self.0);
        }
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            F64x4(_mm256_set1_pd(x))
        }
        #[inline(always)]
        unsafe fn mul(a: Self, b: Self) -> Self {
            F64x4(_mm256_mul_pd(a.0, b.0))
        }
        #[inline(always)]
        unsafe fn add(a: Self, b: Self) -> Self {
            F64x4(_mm256_add_pd(a.0, b.0))
        }
        #[inline(always)]
        unsafe fn mul_add(a: Self, b: Self, c: Self) -> Self {
            F64x4(_mm256_fmadd_pd(a.0, b.0, c.0))
        }
    }

    #[derive(Clone, Copy)]
    struct F64x8(__m512d);

    impl VecF64 for F64x8 {
        const WIDTH: usize = 8;
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            F64x8(_mm512_loadu_pd(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm512_storeu_pd(p, self.0);
        }
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            F64x8(_mm512_set1_pd(x))
        }
        #[inline(always)]
        unsafe fn mul(a: Self, b: Self) -> Self {
            F64x8(_mm512_mul_pd(a.0, b.0))
        }
        #[inline(always)]
        unsafe fn add(a: Self, b: Self) -> Self {
            F64x8(_mm512_add_pd(a.0, b.0))
        }
        #[inline(always)]
        unsafe fn mul_add(a: Self, b: Self, c: Self) -> Self {
            F64x8(_mm512_fmadd_pd(a.0, b.0, c.0))
        }
    }

    /// # Safety
    /// Caller guarantees sse2 (x86-64 baseline) and validated bounds.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn substep_sse2(s: Sweep<'_>, fast: bool) {
        sweep_modes::<F64x2>(s, fast);
    }

    /// # Safety
    /// Caller guarantees runtime avx2+fma and validated bounds.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn substep_avx2(s: Sweep<'_>, fast: bool) {
        sweep_modes::<F64x4>(s, fast);
    }

    /// # Safety
    /// Caller guarantees runtime avx512f and validated bounds.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn substep_avx512(s: Sweep<'_>, fast: bool) {
        sweep_modes::<F64x8>(s, fast);
    }
}

#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)]
mod neon {
    use super::{sweep_modes, Sweep, VecF64};
    use std::arch::aarch64::*;

    #[derive(Clone, Copy)]
    struct F64x2(float64x2_t);

    impl VecF64 for F64x2 {
        const WIDTH: usize = 2;
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            F64x2(vld1q_f64(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            vst1q_f64(p, self.0);
        }
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            F64x2(vdupq_n_f64(x))
        }
        #[inline(always)]
        unsafe fn mul(a: Self, b: Self) -> Self {
            F64x2(vmulq_f64(a.0, b.0))
        }
        #[inline(always)]
        unsafe fn add(a: Self, b: Self) -> Self {
            F64x2(vaddq_f64(a.0, b.0))
        }
        #[inline(always)]
        unsafe fn mul_add(a: Self, b: Self, c: Self) -> Self {
            // vfmaq(c, a, b) = c + a·b, fused.
            F64x2(vfmaq_f64(c.0, a.0, b.0))
        }
    }

    /// # Safety
    /// Caller guarantees NEON (aarch64 baseline) and validated bounds.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn substep_neon(s: Sweep<'_>, fast: bool) {
        sweep_modes::<F64x2>(s, fast);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_supported_and_detect_never_panics() {
        assert!(SimdBackend::Scalar.supported());
        let best = SimdBackend::detect();
        assert!(best.supported());
        assert!(best.lane_width() >= 1);
        assert!(SimdBackend::select().supported());
    }

    #[test]
    fn names_round_trip_through_parse() {
        for b in SimdBackend::ALL {
            assert_eq!(SimdBackend::parse(b.name()), Some(b));
        }
        assert_eq!(SimdBackend::parse("auto"), None);
        assert_eq!(SimdBackend::parse("quantum"), None);
    }

    /// Random small operators: every supported backend's exact sweep
    /// must be bitwise equal to the scalar sweep, and the fast-math
    /// sweep must stay finite and close, at every block-count residue
    /// of the four-block grouping — with shared weights and with
    /// per-lane weights. Per-lane weights that repeat the shared ones
    /// in every lane must reproduce the shared sweep bit for bit.
    #[test]
    fn vector_sweeps_match_scalar_bitwise() {
        // Deterministic xorshift so the test needs no rng dependency.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for &lanes in &[8usize, 16, 24, 32, 40] {
            let n = 6;
            // A diagonally-plausible random operator: ~2 entries/node.
            let mut op_off = vec![0u32];
            let mut op_src = Vec::new();
            let mut op_w = Vec::new();
            for i in 0..n {
                for _ in 0..2 {
                    op_src.push(((i + 1 + (rnd() * (n - 1) as f64) as usize) % n) as u32);
                    op_w.push(rnd() * 0.2);
                }
                op_off.push(op_src.len() as u32);
            }
            let self_w: Vec<f64> = (0..n).map(|_| 0.6 + rnd() * 0.4).collect();
            let fixed: Vec<bool> = (0..n).map(|i| i == 0).collect();
            let cur: Vec<f64> = (0..n * lanes).map(|_| 20.0 + rnd() * 30.0).collect();
            let power_dt: Vec<f64> = (0..n * lanes).map(|_| rnd() * 0.01).collect();
            let repeat = |w: &[f64]| -> Vec<f64> {
                w.iter()
                    .flat_map(|&x| std::iter::repeat_n(x, lanes))
                    .collect()
            };
            let own_op_w: Vec<f64> = (0..op_w.len() * lanes).map(|_| rnd() * 0.2).collect();
            let own_self_w: Vec<f64> = (0..n * lanes).map(|_| 0.6 + rnd() * 0.4).collect();
            // Fixed rows are pre-written into both buffers by the
            // gather; mirror that here.
            let blank = {
                let mut next = cur.clone();
                for i in (0..n).filter(|&i| !fixed[i]) {
                    next[i * lanes..(i + 1) * lanes].fill(0.0);
                }
                next
            };
            let sweep = |op_w: &[f64], self_w: &[f64], lane_w, backend, fast| {
                let mut next = blank.clone();
                substep(
                    backend,
                    fast,
                    Sweep {
                        n,
                        lanes,
                        op_off: &op_off,
                        op_src: &op_src,
                        op_w,
                        self_w,
                        lane_w,
                        fixed: &fixed,
                        power_dt: &power_dt,
                        cur: &cur,
                        next: &mut next,
                    },
                );
                next
            };
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let shared = sweep(&op_w, &self_w, false, SimdBackend::Scalar, false);
            let repeated = sweep(
                &repeat(&op_w),
                &repeat(&self_w),
                true,
                SimdBackend::Scalar,
                false,
            );
            assert_eq!(bits(&shared), bits(&repeated), "lanes={lanes}");
            for (lane_w, op_w, self_w) in [(false, &op_w, &self_w), (true, &own_op_w, &own_self_w)]
            {
                let want = sweep(op_w, self_w, lane_w, SimdBackend::Scalar, false);
                for backend in SimdBackend::ALL.into_iter().filter(|b| b.supported()) {
                    let got = sweep(op_w, self_w, lane_w, backend, false);
                    assert_eq!(
                        bits(&want),
                        bits(&got),
                        "{} lanes={lanes} lane_w={lane_w}",
                        backend.name()
                    );
                    // Fast-math: same values within one sub-step's rounding.
                    let fast = sweep(op_w, self_w, lane_w, backend, true);
                    for (w, g) in want.iter().zip(&fast) {
                        assert!((w - g).abs() < 1e-12, "{} fast diverged", backend.name());
                    }
                }
            }
        }
    }
}
