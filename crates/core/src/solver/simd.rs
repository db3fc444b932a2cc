//! The batched SoA lane sweep: one safe body, compiled at three
//! instruction-set levels.
//!
//! The batched cluster kernel (`super::batch`) stores chunk state
//! node-major: row `i` holds node `i`'s temperature for every machine
//! (lane) in the chunk. A sweep computes, per lane,
//! `next = self_w·cur + ΔT_power` and then `next += w_j·src_j` per
//! operator entry, in operator order. Lanes never interact, so a row is
//! pure elementwise multiply-then-add over contiguous memory, which the
//! compiler vectorizes from plain array code.
//!
//! The one body has three uses, all affine maps of that shape: a chunk
//! tick (the composed tick `M` with the drive `B·ΔT_power` in the power
//! slot, `super::kernel`), a chunk's drive itself (`B` over the power
//! rows, with a zero self term), and composition (the raw sub-step
//! operator, swept `N` times over a basis chunk to produce `M` and `B`).
//!
//! That sweep is written once ([`Sweep::block`], [`sweep`]) over
//! fixed-width `[f64; W]` views — a row's [`WIDE`] blocks, then its
//! tail of 8, 16 or 24 lanes as one block — and is compiled once per
//! level:
//!
//! | level      | compiled with                           | requires         |
//! |------------|-----------------------------------------|------------------|
//! | `Baseline` | the target's baseline (SSE2, NEON, …)   | nothing          |
//! | `Avx2`     | `#[target_feature(enable = "avx2")]`    | runtime `avx2`   |
//! | `Avx512`   | `#[target_feature(enable = "avx512f")]` | runtime `avx512f`|
//!
//! [`SimdBackend::detect`] picks the widest level the host supports;
//! [`super::ClusterSolver::set_simd_backend`] overrides per solver,
//! which is how the equivalence tests force every level on one machine.
//!
//! ## Exactness contract
//!
//! Every level is *bit-identical* to the scalar machine kernel. The
//! source spells each lane's arithmetic as an IEEE 754 multiply
//! followed by an add, in operator order; rustc never contracts the
//! pair into a fused multiply-add and never reassociates, so a wider
//! register only changes how many independent lanes one instruction
//! covers. Rows are whole blocks: `batch` pads every chunk with dead
//! all-zero lanes to [`LANE_PAD`], so there are no remainder lanes. The
//! unit test below holds every level to bitwise equality with a
//! row-pass reference, and `tests/batch_equivalence.rs` with the
//! per-machine kernel. Because composition runs here too, every level
//! composes the same `M` and `B` bits, so which level a host detects
//! cannot move a trajectory either.

/// Instruction-set level the batched chunk lane sweep is compiled at.
///
/// All levels run the same body and are bit-identical (see the module
/// docs); they differ only in vector register width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdBackend {
    /// The compile target's baseline instruction set — always
    /// available (128-bit SSE2 on x86-64, NEON on aarch64).
    #[default]
    Baseline,
    /// 256-bit AVX2 (x86-64, runtime-detected).
    Avx2,
    /// 512-bit AVX-512F (x86-64, runtime-detected).
    Avx512,
}

impl SimdBackend {
    /// Every level, widest first. Tests iterate this (filtered by
    /// [`SimdBackend::supported`]) to cover each one the host can run.
    pub const ALL: [SimdBackend; 3] = [
        SimdBackend::Avx512,
        SimdBackend::Avx2,
        SimdBackend::Baseline,
    ];

    /// `f64` lanes per vector register at this level. The baseline's 2
    /// is the 128-bit register of x86-64 and aarch64, and nominal on a
    /// target without one.
    #[must_use]
    pub fn lane_width(self) -> usize {
        match self {
            SimdBackend::Baseline => 2,
            SimdBackend::Avx2 => 4,
            SimdBackend::Avx512 => 8,
        }
    }

    /// Stable lowercase name (the `mercury_build_info` `simd` label).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Baseline => "baseline",
            SimdBackend::Avx2 => "avx2",
            SimdBackend::Avx512 => "avx512",
        }
    }

    /// Whether this level can run on the current host (compile-time
    /// architecture plus runtime feature detection).
    #[must_use]
    pub fn supported(self) -> bool {
        match self {
            SimdBackend::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            SimdBackend::Avx2 | SimdBackend::Avx512 => false,
        }
    }

    /// The widest level supported on this host.
    #[must_use]
    pub fn detect() -> SimdBackend {
        *Self::ALL
            .iter()
            .find(|b| b.supported())
            .expect("Baseline is always supported")
    }
}

/// Row stride granularity of chunk matrices, and the sweep's narrowest
/// block. `batch` pads every chunk's live lanes with dead (all-zero)
/// lanes to a multiple of this, so a row is whole blocks and the sweep
/// needs no remainder loop.
pub(crate) const LANE_PAD: usize = 8;

/// The sweep's wide block: four [`LANE_PAD`] blocks accumulated
/// together, so each operator entry's source offset (and, for shared
/// weights, its weight) is worked out once per 32 lanes and the CPU has
/// several independent accumulate chains to overlap. A row's tail after
/// its wide blocks runs as one block of 8, 16 or 24 lanes, so a stride
/// that is not whole wide blocks — a chunk of 16 machines, or a
/// composition basis, padded only to [`LANE_PAD`] — keeps most of that
/// overlap.
pub(crate) const WIDE: usize = 4 * LANE_PAD;

/// Borrowed view of one chunk sweep: the operator plus the chunk's
/// `[nodes × lanes]` matrices. `cur` is read-only, `next` is written;
/// `fixed` rows are skipped entirely (both buffers already hold their
/// boundary values — see `batch::BatchSet::begin_tick`).
///
/// The operator's weights come from one of two sources. Shared
/// (`lane_w` false): `op_w` holds one weight per entry and `self_w` one
/// per node, applied to every lane of the row. Per-lane (`lane_w`
/// true): `op_w` is an `[entries × lanes]` matrix and `self_w` a
/// `[nodes × lanes]` matrix, so each lane multiplies by its own
/// machine's weights. The per-lane operation sequence is the same
/// either way.
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

/// The `W` lanes of `m` starting at element `off`, as an array the
/// compiler knows the length of. Panics when they are not all inside
/// `m`.
#[inline(always)]
fn lanes_at<const W: usize>(m: &[f64], off: usize) -> &[f64; W] {
    m[off..off + W]
        .try_into()
        .expect("a W-element slice is a [f64; W]")
}

impl<'a> Sweep<'a> {
    /// The same sweep with every slice trimmed to exactly the length
    /// the loops index: a short one panics here rather than mid-row,
    /// and the compiler can see that a node, lane or entry index in
    /// range for one slice is in range for its siblings, so the loops
    /// repeat few of the bounds checks.
    #[inline(always)]
    fn check(self) -> Sweep<'a> {
        // With no remainder loop, lanes past the last whole block would
        // silently stay unstepped.
        assert_eq!(self.lanes % LANE_PAD, 0, "row stride is not padded");
        debug_assert!(self.op_src.iter().all(|&s| (s as usize) < self.n));
        let cells = self.n * self.lanes;
        let per_weight = if self.lane_w { self.lanes } else { 1 };
        Sweep {
            op_off: &self.op_off[..=self.n],
            op_w: &self.op_w[..self.op_src.len() * per_weight],
            self_w: &self.self_w[..self.n * per_weight],
            fixed: &self.fixed[..self.n],
            power_dt: &self.power_dt[..cells],
            cur: &self.cur[..cells],
            next: &mut self.next[..cells],
            ..self
        }
    }

    /// Lanes `col..col + W` of node row `i` after this sweep, held
    /// in a local array the compiler keeps in registers: the
    /// `self_w`/`ΔT_power` pass, then every operator entry of the row
    /// in operator order. Per lane this is the scalar machine kernel's
    /// exact sequence of multiplies and adds.
    ///
    /// `LANE_W` names the weight source at compile time, so the
    /// shared-weight instantiation carries none of the per-lane loads.
    #[inline(always)]
    fn block<const LANE_W: bool, const W: usize>(&self, i: usize, col: usize) -> [f64; W] {
        let lanes = self.lanes;
        let off = i * lanes + col;
        let cur = lanes_at::<W>(self.cur, off);
        let pd = lanes_at::<W>(self.power_dt, off);
        let mut acc = [0.0; W];
        if LANE_W {
            let sw = lanes_at::<W>(self.self_w, off);
            for l in 0..W {
                acc[l] = sw[l] * cur[l] + pd[l];
            }
        } else {
            let sw = self.self_w[i];
            for l in 0..W {
                acc[l] = sw * cur[l] + pd[l];
            }
        }
        let entries = self.op_off[i] as usize..self.op_off[i + 1] as usize;
        let srcs = &self.op_src[entries.clone()];
        if LANE_W {
            for (j, &src) in entries.zip(srcs) {
                let v = lanes_at::<W>(self.cur, src as usize * lanes + col);
                let w = lanes_at::<W>(self.op_w, j * lanes + col);
                for l in 0..W {
                    acc[l] += w[l] * v[l];
                }
            }
        } else {
            for (&src, &w) in srcs.iter().zip(&self.op_w[entries]) {
                let v = lanes_at::<W>(self.cur, src as usize * lanes + col);
                for l in 0..W {
                    acc[l] += w * v[l];
                }
            }
        }
        acc
    }

    /// Writes one block's lanes into `next` at element `off`.
    #[inline(always)]
    fn store<const W: usize>(&mut self, off: usize, acc: [f64; W]) {
        self.next[off..off + W].copy_from_slice(&acc);
    }
}

/// The blocked sweep: each non-fixed node row in [`WIDE`] blocks while
/// they last, then its tail — the 8, 16 or 24 lanes left, the padded
/// stride leaves no other remainder — as one block, so a narrow row
/// still keeps several accumulate chains in flight. One store per
/// block.
#[inline(always)]
fn sweep<const LANE_W: bool>(s: Sweep<'_>) {
    let mut s = s.check();
    for i in 0..s.n {
        if s.fixed[i] {
            continue;
        }
        let row = i * s.lanes;
        let mut col = 0;
        while col + WIDE <= s.lanes {
            s.store(row + col, s.block::<LANE_W, WIDE>(i, col));
            col += WIDE;
        }
        match s.lanes - col {
            0 => {}
            LANE_PAD => s.store(row + col, s.block::<LANE_W, LANE_PAD>(i, col)),
            TAIL_16 => s.store(row + col, s.block::<LANE_W, TAIL_16>(i, col)),
            TAIL_24 => s.store(row + col, s.block::<LANE_W, TAIL_24>(i, col)),
            _ => unreachable!("the stride is whole LANE_PAD blocks"),
        }
    }
}

/// The two tail widths between [`LANE_PAD`] and [`WIDE`].
const TAIL_16: usize = 2 * LANE_PAD;
const TAIL_24: usize = 3 * LANE_PAD;

/// The one sweep body. `#[inline(always)]` so that each entry point
/// below compiles its own copy under its own target features.
#[inline(always)]
fn sweep_either(s: Sweep<'_>) {
    if s.lane_w {
        sweep::<true>(s);
    } else {
        sweep::<false>(s);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sweep_avx2(s: Sweep<'_>) {
    sweep_either(s);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn sweep_avx512(s: Sweep<'_>) {
    sweep_either(s);
}

/// Runs one sweep at the given level. Every level is
/// bit-identical, so a level the host lacks (which the cluster never
/// selects — see [`SimdBackend::supported`]) runs at the baseline.
pub(crate) fn substep(backend: SimdBackend, s: Sweep<'_>) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        // SAFETY: the guard has just detected `avx2` on this CPU — the
        // one thing a safe `#[target_feature]` function asks of a
        // caller compiled without the feature.
        SimdBackend::Avx2 if std::arch::is_x86_feature_detected!("avx2") => unsafe {
            sweep_avx2(s);
        },
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        // SAFETY: as above, for `avx512f`.
        SimdBackend::Avx512 if std::arch::is_x86_feature_detected!("avx512f") => unsafe {
            sweep_avx512(s);
        },
        _ => sweep_either(s),
    }
}

/// Row-pass reference for the unit test: the same arithmetic in the
/// plainest loop shape — whole rows, one pass per operator entry, `next`
/// re-loaded and re-stored each time.
#[cfg(test)]
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_always_supported_and_detect_never_panics() {
        assert!(SimdBackend::Baseline.supported());
        let best = SimdBackend::detect();
        assert!(best.supported());
        assert!(best.lane_width() >= 1);
    }

    /// Deterministic xorshift in `[0, 1)` so the tests need no rng
    /// dependency.
    fn xorshift() -> impl FnMut() -> f64 {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A random six-node operator with node 0 fixed, plus chunk state
    /// at the given row stride, with shared and per-lane weights.
    struct Case {
        n: usize,
        lanes: usize,
        op_off: Vec<u32>,
        op_src: Vec<u32>,
        op_w: Vec<f64>,
        self_w: Vec<f64>,
        own_op_w: Vec<f64>,
        own_self_w: Vec<f64>,
        fixed: Vec<bool>,
        cur: Vec<f64>,
        power_dt: Vec<f64>,
    }

    impl Case {
        fn new(lanes: usize, rnd: &mut impl FnMut() -> f64) -> Case {
            let n = 6;
            // A diagonally-plausible random operator: 2 entries/node.
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
            Case {
                n,
                lanes,
                self_w: (0..n).map(|_| 0.6 + rnd() * 0.4).collect(),
                own_op_w: (0..op_w.len() * lanes).map(|_| rnd() * 0.2).collect(),
                own_self_w: (0..n * lanes).map(|_| 0.6 + rnd() * 0.4).collect(),
                fixed: (0..n).map(|i| i == 0).collect(),
                cur: (0..n * lanes).map(|_| 20.0 + rnd() * 30.0).collect(),
                power_dt: (0..n * lanes).map(|_| rnd() * 0.01).collect(),
                op_off,
                op_src,
                op_w,
            }
        }

        /// One sweep with the given weights, at `backend` or (for
        /// `None`) through the row-pass reference; returns `next` as
        /// bit patterns. Fixed rows are pre-written into both buffers
        /// by the gather; mirrored here.
        fn run(
            &self,
            op_w: &[f64],
            self_w: &[f64],
            lane_w: bool,
            backend: Option<SimdBackend>,
        ) -> Vec<u64> {
            let mut next = self.cur.clone();
            for i in (0..self.n).filter(|&i| !self.fixed[i]) {
                next[i * self.lanes..(i + 1) * self.lanes].fill(0.0);
            }
            let sweep = Sweep {
                n: self.n,
                lanes: self.lanes,
                op_off: &self.op_off,
                op_src: &self.op_src,
                op_w,
                self_w,
                lane_w,
                fixed: &self.fixed,
                power_dt: &self.power_dt,
                cur: &self.cur,
                next: &mut next,
            };
            match backend {
                Some(backend) => substep(backend, sweep),
                None if lane_w => substep_scalar::<true>(sweep),
                None => substep_scalar::<false>(sweep),
            }
            next.iter().map(|x| x.to_bits()).collect()
        }
    }

    /// Random small operators: the sweep at every supported level must
    /// be bitwise equal to the row-pass reference at every tail a row
    /// can end in — no wide block and a tail of 8, 16 or 24 lanes, one
    /// whole wide block, one plus a tail of 8 or 24 — with shared
    /// weights and with per-lane weights. Per-lane weights that repeat
    /// the shared ones in every lane must reproduce the shared sweep bit
    /// for bit.
    #[test]
    fn vector_sweeps_match_scalar_bitwise() {
        let mut rnd = xorshift();
        for lanes in [8usize, 16, 24, 32, 40, 56] {
            let case = Case::new(lanes, &mut rnd);
            let repeat = |w: &[f64]| -> Vec<f64> {
                w.iter()
                    .flat_map(|&x| std::iter::repeat_n(x, lanes))
                    .collect()
            };
            for backend in SimdBackend::ALL.into_iter().filter(|b| b.supported()) {
                let shared = case.run(&case.op_w, &case.self_w, false, Some(backend));
                let repeated = case.run(
                    &repeat(&case.op_w),
                    &repeat(&case.self_w),
                    true,
                    Some(backend),
                );
                assert_eq!(shared, repeated, "{} lanes={lanes}", backend.name());
                for (lane_w, op_w, self_w) in [
                    (false, &case.op_w, &case.self_w),
                    (true, &case.own_op_w, &case.own_self_w),
                ] {
                    assert_eq!(
                        case.run(op_w, self_w, lane_w, None),
                        case.run(op_w, self_w, lane_w, Some(backend)),
                        "{} lanes={lanes} lane_w={lane_w}",
                        backend.name()
                    );
                }
            }
        }
    }

    /// With no remainder loop, a stride that is not whole blocks would
    /// leave lanes unstepped; the sweep refuses it in release too.
    #[test]
    #[should_panic(expected = "row stride is not padded")]
    fn unpadded_stride_panics() {
        let case = Case::new(12, &mut xorshift());
        case.run(&case.op_w, &case.self_w, false, Some(SimdBackend::detect()));
    }

    /// An operator entry naming a node the chunk does not have is
    /// refused, not read out of bounds: by `Sweep::check` in debug
    /// builds and by the slice bounds in release.
    #[test]
    #[should_panic]
    fn out_of_range_source_node_panics() {
        let mut case = Case::new(8, &mut xorshift());
        *case.op_src.last_mut().unwrap() = case.n as u32;
        case.run(&case.op_w, &case.self_w, false, Some(SimdBackend::detect()));
    }
}
