//! The shared CSR-indexed step kernel.
//!
//! Both solvers used to walk their graphs with per-tick linear scans: the
//! machine solver re-scanned the full air-edge list for every air region
//! in every sub-step (O(nodes × edges)), and the cluster solver rebuilt a
//! `HashMap<ClusterEndpoint, Celsius>` — with freshly allocated `String`
//! keys — every tick. This module flattens both graphs once, at
//! construction (or when a runtime change dirties the topology), into
//! compressed-sparse-row (CSR) adjacency: per-node offset ranges into
//! contiguous edge arrays, plus precomputed `1/(m·c)` rate constants and
//! reusable scratch buffers. [`StepKernel`] owns the per-machine step
//! loop; [`MixGraph`] owns the inter-machine mixing plan. The two solver
//! types in [`super::machine`] and [`super::cluster`] are thin state
//! holders on top.
//!
//! ## Bit-for-bit equivalence with the scan-based step
//!
//! The refactor preserves the exact floating-point results of the
//! original nested-loop implementation wherever the original was
//! deterministic, because every per-node accumulation happens in the same
//! order:
//!
//! - CSR adjacency lists are filled by iterating the edge list in
//!   declaration order, so each node sees its incident edges in exactly
//!   the order the original `for edge in edges` loop delivered them.
//! - `heat_transfer(k, t_a, t_b, dt)` is antisymmetric *exactly* in IEEE
//!   arithmetic (negating a subtraction and negating a product are both
//!   exact), so accumulating `+heat_transfer(k, t_nbr, t_self, dt)` per
//!   node equals the original's paired `dq[a] -= q; dq[b] += q`.
//! - Per-substep constants (the power term, the advection replacement
//!   fraction `alpha`, the per-node incoming mass) are hoisted out of the
//!   loop; they were recomputed from identical inputs every sub-step, so
//!   hoisting cannot change their values.
//!
//! The deliberate deviations, all ulp-level per sub-step and bounded at
//! 1e-9 over hundreds of ticks by the property tests in
//! `tests/kernel_equivalence.rs`:
//!
//! - divisions are hoisted: `dq / (m·c)` becomes a multiply by the
//!   precomputed reciprocal, and the advection mix divides once per
//!   rebuild instead of once per node per sub-step;
//! - the per-node heat sum is factored: `Σ k·(T_j − T_i)·Δt` is computed
//!   as `Δt/(m·c) · (Σ k·T_j − T_i·Σk)` with `Σk` precomputed, halving
//!   the work per incidence. The subtraction of the two partial sums
//!   cancels like the original's per-edge subtractions did, so the
//!   absolute error stays ~1 ulp of `k·T` per sub-step — orders of
//!   magnitude below the solver's 1e-6-class accuracy targets;
//! - the whole sub-step is assembled, at rebuild time, into one sparse
//!   affine row per node — `T'_i = w_self·T_i + Σ w_j·T_j + ΔT_power` —
//!   combining heat conduction and advection weights, and applied as a
//!   single double-buffered sweep — the engine that composes the tick,
//!   below.
//!   The stability bound keeps every `w_self` in `[1 − 2·limit, 1]`, so
//!   assembling the row reassociates well-conditioned sums only.
//!
//! ## One sweep per tick
//!
//! The sub-step count sets the discretisation; it does not set how many
//! sweeps a tick runs. Within a tick the sub-step `T' = A·T + p` is
//! linear and its input `p` (the power ΔT) is held, so the tick's `N`
//! sub-steps compose into one affine map
//!
//! ```text
//! T_N = M·T_0 + B·p,    M = Aᴺ,    B = Σₖ₌₀ᴺ⁻¹ Aᵏ
//! ```
//!
//! (fixed rows of `A` are the identity and `p` is zero on them).
//! [`StepKernel::compose`] builds both once per rebuild or boundary-mask
//! change, in the CSR shape the sweep already takes: `M` over the
//! non-fixed rows, the diagonal as the self weight and every node the
//! row reaches within `N` sub-steps as an entry (fixed inlets and pins
//! are source columns); `B` over the non-fixed rows and the non-fixed
//! component columns it reaches within `N − 1`. The patterns come from
//! the operator's structure, the fixed mask and `N` alone, never from
//! the values, so every kernel with the same structure, mask and `N`
//! composes to the same pattern — which is what lets a per-lane batch
//! group share one. The values come from running the stepped form
//! itself: the raw sub-step operator is swept `N` times over a basis
//! chunk whose lane `j` starts at the unit temperature vector `e_j` (so
//! it ends as `M`'s column `j`) and whose lane `n + k` starts at zero
//! with unit power on component `k` (so it ends as `B`'s column), on
//! `super::simd`'s lane sweep, allocation-free once its thread-local
//! buffers have grown.
//!
//! A tick is then `drive = B·power_dt` (recomputed only when the power
//! changed) and one pass `T'_i = m_self_i·T_i + drive_i`, then
//! `+= w·T_src` in `M`'s entry order — against the stepped form's `N`
//! passes, it moves each trajectory by rounding only (`tests/`
//! `kernel_equivalence.rs` bounds it).
//!
//! ## What a machine type shares, and where a composed tick lives
//!
//! A compiled kernel is two parts. [`KernelStructure`] is what the
//! machine type fixes — both adjacencies, the components, `1/(m·c)`, the
//! operator's offsets and sources — plus the patterns of `M` and `B`
//! ([`TickPattern`]), kept per boundary mask and settled sub-step range
//! as they are first asked for. It sits behind one `Arc` per machine
//! type, shared by the type's replicas *and* by the machines a fan,
//! heat-k or air-fraction change has diverged: such a change moves
//! weights, never which node reads which, so a rebuild recomputes the
//! values and keeps the structure. [`StepKernel`] is a machine's values:
//! its flow cache, sub-step count and operator weights, and — only where
//! the machine steps by itself (a solo or pinned cluster member, a
//! standalone solver) — its composed tick, boxed and composed lazily.
//! A per-lane batch member composes straight into its chunk's lane
//! column ([`StepKernel::compose_into`], `super::batch`), which is the
//! only copy of its `M` and `B` weights; the undiverged replicas of a
//! type share one kernel, composed once for the inlet-only mask. A batch
//! group keeps a detached copy of its representative's kernel
//! ([`StepKernel::detached`]) — structure, patterns and, for a
//! shared-operator group, the composed weights its lanes run — so the
//! plan holds nothing of the machine type past its machines.

use super::flows::{refill, required_substeps_in, FlowCache, FlowScratch};
use super::simd::{self, SimdBackend, Sweep};
use crate::model::{ClusterEndpoint, ClusterModel};
use crate::units::{Celsius, JoulesPerKelvin, KilogramsPerSecond, Seconds, WattsPerKelvin};
use std::cell::RefCell;
use std::sync::{Arc, Mutex, PoisonError};

/// The working memory of a kernel rebuild — the per-incidence
/// conductances and air flows, the per-node constants the operator is
/// assembled from, the flow walk's buffers — and of a composition: the
/// basis chunk's two temperature matrices, its unit power matrix and
/// each component's lane in it, and the two reach bitset matrices.
#[derive(Debug, Default)]
struct RebuildScratch {
    flow: FlowScratch,
    conductive: Vec<f64>,
    heat_k: Vec<f64>,
    heat_ksum: Vec<f64>,
    heat_coef: Vec<f64>,
    air_flow: Vec<f64>,
    inflow: Vec<KilogramsPerSecond>,
    alpha: Vec<f64>,
    inv_streams_mass: Vec<f64>,
    op_off: Vec<u32>,
    basis: Vec<f64>,
    basis_next: Vec<f64>,
    unit_power: Vec<f64>,
    /// Each component's basis lane (`n + k` for component `k`), which
    /// `B`'s values are read from.
    power_lane: Vec<u32>,
    reach: Vec<u64>,
    reach_next: Vec<u64>,
}

thread_local! {
    /// One [`RebuildScratch`] per thread rather than per kernel: a
    /// rebuild runs on whichever thread steps the machine, and a copy in
    /// every kernel would grow a 1024-machine room by ≈0.5 MB of buffers
    /// that sit idle between fan commands.
    static REBUILD_SCRATCH: RefCell<RebuildScratch> = RefCell::default();
}

/// A CSR over `n` nodes of `(node, far end, edge)` incidences, kept in
/// the order given: each node's offsets, and the far end and edge of
/// each incidence.
fn csr(
    n: usize,
    incidences: impl Iterator<Item = (usize, u32, u32)> + Clone,
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut off = vec![0u32; n + 1];
    for (node, _, _) in incidences.clone() {
        off[node + 1] += 1;
    }
    for i in 0..n {
        off[i + 1] += off[i];
    }
    let count = off[n] as usize;
    let (mut far_end, mut edge) = (vec![0u32; count], vec![0u32; count]);
    // `off[i]` is node `i`'s fill cursor, which ends at `off[i + 1]`.
    for (node, far, e) in incidences {
        let c = off[node] as usize;
        (far_end[c], edge[c]) = (far, e);
        off[node] += 1;
    }
    off.copy_within(0..n, 1);
    off[0] = 0;
    (off, far_end, edge)
}

/// Patterns of `M` and `B` a structure keeps at most; the oldest goes
/// first. A pattern that settles serves every sub-step count above its
/// settling point, so a machine type under fan control needs one per
/// boundary mask.
const MAX_PATTERNS: usize = 32;

/// What every kernel of one machine type shares (see the module docs):
/// both adjacencies, the components, `1/(m·c)`, the assembled
/// operator's offsets and sources, and the composed patterns of `M` and
/// `B` per boundary mask and settled sub-step range. Built once per
/// machine type and held in an `Arc`; a rebuild recomputes values only,
/// and builds a new one only if the operator's shape moved.
#[derive(Debug)]
pub(crate) struct KernelStructure {
    /// Number of nodes.
    n: usize,
    /// Tick length and explicit-Euler stability margin.
    dt: Seconds,
    stability_limit: f64,
    /// Heat adjacency: node `i`'s incident heat edges occupy
    /// `heat_off[i]..heat_off[i+1]` in the arrays below, ordered by edge
    /// declaration index — the node on the far side and the edge.
    heat_off: Vec<u32>,
    heat_nbr: Vec<u32>,
    heat_edge: Vec<u32>,
    /// Incoming-air adjacency, same CSR layout: for node `i`, the
    /// upstream region and the edge of each incoming stream.
    air_off: Vec<u32>,
    air_src: Vec<u32>,
    air_edge: Vec<u32>,
    /// Precomputed `1/(m·c)` per node.
    inv_capacity: Vec<f64>,
    /// Component node indices (the nodes without an air mass), in node
    /// order: the columns of `B`.
    components: Vec<u32>,
    /// The assembled sub-step operator's shape: one sparse affine row
    /// per node, `T'_i = self_w[i]·T_i + Σ op_w[j]·T[op_src[j]] +
    /// ΔT_power[i]`, heat incidences first (edge declaration order),
    /// then the air streams of a node that mixes.
    op_off: Vec<u32>,
    op_src: Vec<u32>,
    /// The composed patterns found so far (see [`TickPattern`]).
    patterns: Mutex<Vec<Arc<TickPattern>>>,
}

impl Clone for KernelStructure {
    /// A copy keeps none of the patterns found so far; it finds its own
    /// as they are asked for.
    fn clone(&self) -> Self {
        KernelStructure {
            n: self.n,
            dt: self.dt,
            stability_limit: self.stability_limit,
            heat_off: self.heat_off.clone(),
            heat_nbr: self.heat_nbr.clone(),
            heat_edge: self.heat_edge.clone(),
            air_off: self.air_off.clone(),
            air_src: self.air_src.clone(),
            air_edge: self.air_edge.clone(),
            inv_capacity: self.inv_capacity.clone(),
            components: self.components.clone(),
            op_off: self.op_off.clone(),
            op_src: self.op_src.clone(),
            patterns: Mutex::default(),
        }
    }
}

/// The patterns of a composed tick `T' = M·T + B·p` (see the module
/// docs) for one boundary mask, valid for every sub-step count in
/// `from..=to`: `M` as CSR rows (sources in ascending node order) and
/// `B` as CSR rows (component sources in node order). Fixed rows have no
/// entries, and `M`'s diagonal is its own `[nodes]` vector.
#[derive(Debug)]
pub(crate) struct TickPattern {
    pub fixed: Vec<bool>,
    from: usize,
    to: usize,
    pub m_off: Vec<u32>,
    pub m_src: Vec<u32>,
    pub b_off: Vec<u32>,
    pub b_src: Vec<u32>,
}

impl TickPattern {
    fn holds_for(&self, fixed: &[bool], substeps: usize) -> bool {
        (self.from..=self.to).contains(&substeps) && self.fixed == fixed
    }
}

impl KernelStructure {
    /// The adjacencies, components and `1/(m·c)` of a machine; the
    /// operator's shape is left empty for the first rebuild to set.
    fn new(
        dt: Seconds,
        stability_limit: f64,
        heat_edges: &[(usize, usize, WattsPerKelvin)],
        air_edges: &[(usize, usize, f64)],
        capacity: &[JoulesPerKelvin],
        air_mass: impl Fn(usize) -> Option<f64>,
    ) -> Self {
        let n = capacity.len();
        debug_assert!(n < u32::MAX as usize, "node count exceeds CSR index width");
        // Both CSRs are filled in edge declaration order, which keeps each
        // node's adjacency list in declaration order and so preserves the
        // scan-based accumulation order exactly. Every heat edge is one
        // incidence of each endpoint; every air edge one of its target.
        let heat = (heat_edges.iter().enumerate())
            .flat_map(|(e, &(a, b, _))| [(a, b as u32, e as u32), (b, a as u32, e as u32)]);
        let (heat_off, heat_nbr, heat_edge) = csr(n, heat);
        let air =
            (air_edges.iter().enumerate()).map(|(e, &(from, to, _))| (to, from as u32, e as u32));
        let (air_off, air_src, air_edge) = csr(n, air);
        KernelStructure {
            n,
            dt,
            stability_limit,
            heat_off,
            heat_nbr,
            heat_edge,
            air_off,
            air_src,
            air_edge,
            inv_capacity: capacity.iter().map(|c| 1.0 / c.0).collect(),
            components: (0..n as u32)
                .filter(|&i| air_mass(i as usize).is_none())
                .collect(),
            op_off: Vec::new(),
            op_src: Vec::new(),
            patterns: Mutex::default(),
        }
    }

    /// Bitwise equality of everything a batch group's lanes share: the
    /// node count, `1/(m·c)` and the operator's shape (and with it every
    /// pattern) — what a batch group checks a member against its own
    /// copy of the representative's structure with.
    pub(crate) fn same_as(&self, other: &KernelStructure) -> bool {
        self.n == other.n
            && self.op_off == other.op_off
            && self.op_src == other.op_src
            && (self.inv_capacity.iter().zip(&other.inv_capacity))
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Number of nodes.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// `1/(m·c)` per node.
    pub(crate) fn inv_capacity(&self) -> &[f64] {
        &self.inv_capacity
    }

    /// The patterns of `M` and `B` for the boundary mask `fixed` at
    /// `substeps` sub-steps: a kept one if it holds for both, else a new
    /// one, kept from now on. Allocates only when it finds none.
    fn pattern(&self, fixed: &[bool], substeps: usize, s: &mut RebuildScratch) -> Arc<TickPattern> {
        // A poisoned cache is still whole: it is only ever pushed to (a
        // finished pattern) and trimmed.
        let mut patterns = self.patterns.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(p) = patterns.iter().find(|p| p.holds_for(fixed, substeps)) {
            return Arc::clone(p);
        }
        if patterns.len() == MAX_PATTERNS {
            patterns.remove(0);
        }
        let pattern = Arc::new(self.compose_pattern(fixed, substeps, s));
        patterns.push(Arc::clone(&pattern));
        pattern
    }

    /// The patterns of `M` and `B` for the boundary mask `fixed` at
    /// `substeps` sub-steps (see the module docs): `reach` row `i` is the
    /// set of nodes row `i` reads within `k` sub-steps, advanced one
    /// sub-step at a time — `B`'s pattern after `N − 1`, `M`'s after `N`.
    /// Once a sub-step adds nothing, no later one will, so a pattern that
    /// settles at `k < N` holds for every sub-step count above `k`.
    fn compose_pattern(
        &self,
        fixed: &[bool],
        substeps: usize,
        s: &mut RebuildScratch,
    ) -> TickPattern {
        let n = self.n;
        let words = n.div_ceil(64);
        refill(&mut s.reach, n * words, 0);
        for i in 0..n {
            s.reach[i * words + i / 64] |= 1 << (i % 64);
        }
        // `s.reach` ends as `B`'s pattern and `s.reach_next` as `M`'s.
        let mut k = 0;
        let (from, to) = loop {
            self.advance_reach(fixed, words, &s.reach, &mut s.reach_next);
            if s.reach_next == s.reach {
                break (k + 1, usize::MAX);
            }
            if k + 1 == substeps {
                break (substeps, substeps);
            }
            std::mem::swap(&mut s.reach, &mut s.reach_next);
            k += 1;
        };
        let reaches =
            |reach: &[u64], i: usize, j: usize| (reach[i * words + j / 64] >> (j % 64)) & 1 != 0;
        let mut p = TickPattern {
            fixed: fixed.to_vec(),
            from,
            to,
            m_off: vec![0; n + 1],
            m_src: Vec::new(),
            b_off: vec![0; n + 1],
            b_src: Vec::new(),
        };
        for (i, &fixed_row) in fixed.iter().enumerate() {
            if !fixed_row {
                p.b_src.extend(
                    self.components.iter().filter(|&&comp| {
                        !fixed[comp as usize] && reaches(&s.reach, i, comp as usize)
                    }),
                );
                p.m_src.extend(
                    (0..n as u32)
                        .filter(|&j| j as usize != i && reaches(&s.reach_next, i, j as usize)),
                );
            }
            p.b_off[i + 1] = p.b_src.len() as u32;
            p.m_off[i + 1] = p.m_src.len() as u32;
        }
        p
    }

    /// One sub-step of reach: `to[i] = {i} ∪ ⋃ from[src]` over row `i`'s
    /// operator entries, and `{i}` alone for a fixed row, which reads
    /// nothing.
    fn advance_reach(&self, fixed: &[bool], words: usize, from: &[u64], to: &mut Vec<u64>) {
        refill(to, self.n * words, 0);
        for i in 0..self.n {
            let row = i * words;
            to[row + i / 64] |= 1 << (i % 64);
            if fixed[i] {
                continue;
            }
            for &src in &self.op_src[self.op_off[i] as usize..self.op_off[i + 1] as usize] {
                let src = src as usize * words;
                for w in 0..words {
                    to[row + w] |= from[src + w];
                }
            }
        }
    }
}

/// One machine's compiled step kernel: its type's shared
/// [`KernelStructure`] and the machine's own values — the flow cache,
/// the sub-step count, the operator weights and, where the machine steps
/// by itself, its composed tick (see the module docs).
///
/// Built with [`StepKernel::new`] and filled by [`StepKernel::rebuild`],
/// which also recomputes it. The replicas of one machine type share one
/// kernel; a solver that changes the fan speed, a heat-transfer
/// coefficient or an air fraction rebuilds a copy of its values only
/// ([`StepKernel::uncomposed`], the one way a kernel is copied).
#[derive(Debug)]
pub(crate) struct StepKernel {
    structure: Arc<KernelStructure>,
    /// Sub-steps per tick and the resulting sub-step length.
    substeps: usize,
    dt_sub: Seconds,
    /// The assembled sub-step operator's weights, in the structure's
    /// `op_off`/`op_src` layout, and the self weight of every row:
    /// the factored heat update and the advection mix combined.
    op_w: Vec<f64>,
    self_w: Vec<f64>,
    /// The composed tick, allocated at the first composition into the
    /// kernel itself — never for a per-lane batch member, which composes
    /// into its lane.
    composed: Option<Box<Composed>>,
    /// Dirty-tracked air-flow cache: rebuilds triggered by non-flow
    /// changes (e.g. a heat-k fiddle) replay the stored distribution.
    flow_cache: FlowCache,
}

/// A kernel's composed tick (see the module docs) and the scratch of the
/// per-machine tick that runs it — boxed, and allocated at the kernel's
/// first composition, so a kernel that never steps by itself carries one
/// pointer instead.
#[derive(Debug)]
struct Composed {
    /// Whether the weights are current; every rebuild clears it.
    valid: bool,
    /// The patterns (and boundary mask) the weights were composed for.
    pattern: Arc<TickPattern>,
    /// `M`'s entries and diagonal, `B`'s entries, in `pattern`'s layout.
    m_w: Vec<f64>,
    m_self: Vec<f64>,
    b_w: Vec<f64>,
    /// Per-tick scratch: the power ΔT per sub-step as last priced, the
    /// drive `B·power_dt` computed from it (a composition zeroes both,
    /// which keeps them consistent), and the sweep's output row.
    power_dt: Vec<f64>,
    drive: Vec<f64>,
    next: Vec<f64>,
}

/// Where a composition writes `M`'s entries and diagonal and `B`'s
/// entries: value `j` of each goes to `[j * stride + lane]` — the
/// kernel's own box (`stride` 1) or one lane of a batch chunk's weight
/// matrices.
pub(crate) struct Column<'a> {
    pub m_w: &'a mut [f64],
    pub m_self: &'a mut [f64],
    pub b_w: &'a mut [f64],
    pub stride: usize,
    pub lane: usize,
}

/// A read-only view of the weights of a kernel's composed tick
/// `T' = M·T + B·p` (see the module docs), in its pattern's layout
/// ([`StepKernel::composed_pattern`]): what a shared-operator batch
/// group runs, so both paths run the exact same per-node affine rows.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ComposedOp<'a> {
    pub m_w: &'a [f64],
    pub m_self: &'a [f64],
    pub b_w: &'a [f64],
}

impl StepKernel {
    /// A kernel on a new structure compiled from the edge lists and
    /// capacities (see [`StepKernel::rebuild`] for the arguments), its
    /// values empty: call [`StepKernel::rebuild`] before stepping.
    pub(crate) fn new(
        dt: Seconds,
        stability_limit: f64,
        heat_edges: &[(usize, usize, WattsPerKelvin)],
        air_edges: &[(usize, usize, f64)],
        capacity: &[JoulesPerKelvin],
        air_mass: impl Fn(usize) -> Option<f64>,
    ) -> Self {
        let structure = KernelStructure::new(
            dt,
            stability_limit,
            heat_edges,
            air_edges,
            capacity,
            air_mass,
        );
        StepKernel {
            structure: Arc::new(structure),
            substeps: 1,
            dt_sub: dt,
            op_w: Vec::new(),
            self_w: Vec::new(),
            composed: None,
            flow_cache: FlowCache::new(),
        }
    }

    /// A copy of this kernel's values, sharing its structure and leaving
    /// out its composed tick — what a machine copies to change its own:
    /// to rebuild or recompose it, or to tick on it (a tick writes the
    /// composed tick's scratch), which composes it first.
    pub(crate) fn uncomposed(&self) -> Self {
        StepKernel {
            structure: Arc::clone(&self.structure),
            substeps: self.substeps,
            dt_sub: self.dt_sub,
            op_w: self.op_w.clone(),
            self_w: self.self_w.clone(),
            composed: None,
            flow_cache: self.flow_cache.clone(),
        }
    }

    /// A copy of this kernel's values on a copy of its structure, sharing
    /// nothing with it — so it keeps nothing of its machine type alive —
    /// and uncomposed.
    pub(crate) fn detached(&self) -> Self {
        StepKernel {
            structure: Arc::new(KernelStructure::clone(&self.structure)),
            ..self.uncomposed()
        }
    }

    /// Drops the composed tick: the machine composes into a batch lane
    /// from now on, and its box would be a second copy.
    pub(crate) fn drop_composed(&mut self) {
        self.composed = None;
    }

    /// The machine type's structure this kernel runs on.
    pub(crate) fn structure(&self) -> &Arc<KernelStructure> {
        &self.structure
    }

    /// Sub-steps one tick is divided into.
    pub(crate) fn substeps(&self) -> usize {
        self.substeps
    }

    /// Length of one sub-step.
    pub(crate) fn dt_sub(&self) -> Seconds {
        self.dt_sub
    }

    /// Length of one tick: the `dt` the kernel's machine type was
    /// compiled with.
    pub(crate) fn dt(&self) -> Seconds {
        self.structure.dt
    }

    /// The assembled operator's weights and self weights, in the
    /// structure's layout.
    pub(crate) fn op_weights(&self) -> (&[f64], &[f64]) {
        (&self.op_w, &self.self_w)
    }

    /// Times the air-flow distribution has been recomputed (vs replayed
    /// from the dirty-tracked cache) across all rebuilds.
    pub(crate) fn flow_recomputes(&self) -> u64 {
        self.flow_cache.recomputes()
    }

    /// The composed tick, for the batched cluster kernel: call
    /// [`StepKernel::compose`] with the current boundary mask first.
    pub(crate) fn composed_op(&self) -> ComposedOp<'_> {
        let c = self.composed.as_deref().expect("composed first");
        debug_assert!(c.valid, "the composed tick is stale");
        ComposedOp {
            m_w: &c.m_w,
            m_self: &c.m_self,
            b_w: &c.b_w,
        }
    }

    /// The patterns of the kernel's own composed tick: call
    /// [`StepKernel::compose`] first.
    pub(crate) fn composed_pattern(&self) -> Arc<TickPattern> {
        let c = self.composed.as_deref().expect("composed first");
        Arc::clone(&c.pattern)
    }

    /// The patterns of `M` and `B` this kernel composes to for the
    /// boundary mask `fixed`, from its structure's.
    pub(crate) fn pattern_for(&self, fixed: &[bool]) -> Arc<TickPattern> {
        REBUILD_SCRATCH.with_borrow_mut(|s| self.structure.pattern(fixed, self.substeps, s))
    }

    /// Recomputes the values — sub-step count, operator weights — from
    /// the edge constants and the fan, allocation-free once the buffers
    /// have grown: the kernel's own are reused, and the working memory
    /// lives in [`REBUILD_SCRATCH`]. A new structure is built only if
    /// the operator's shape moved (a node that mixed no longer does, or
    /// the reverse), which no fan, heat-k or air-fraction change does.
    ///
    /// `air_mass(i)` is `Some(kg)` for air regions and `None` for
    /// components. Edge lists use the same `(a, b, k)` / `(from, to,
    /// fraction)` layout the solver stores, with the endpoints the
    /// structure was compiled from.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rebuild(
        &mut self,
        heat_edges: &[(usize, usize, WattsPerKelvin)],
        air_edges: &[(usize, usize, f64)],
        topo: &[usize],
        inlets: &[usize],
        fan_mass_flow: KilogramsPerSecond,
        capacity: &[JoulesPerKelvin],
        air_mass: impl Fn(usize) -> Option<f64>,
    ) {
        REBUILD_SCRATCH.with_borrow_mut(|scratch| {
            self.rebuild_in(
                scratch,
                heat_edges,
                air_edges,
                topo,
                inlets,
                fan_mass_flow,
                capacity,
                air_mass,
            );
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn rebuild_in(
        &mut self,
        s: &mut RebuildScratch,
        heat_edges: &[(usize, usize, WattsPerKelvin)],
        air_edges: &[(usize, usize, f64)],
        topo: &[usize],
        inlets: &[usize],
        fan_mass_flow: KilogramsPerSecond,
        capacity: &[JoulesPerKelvin],
        air_mass: impl Fn(usize) -> Option<f64>,
    ) {
        let st = &*self.structure;
        let n = st.n;
        debug_assert_eq!(capacity.len(), n, "a kernel keeps its structure's nodes");
        if let Some(composed) = &mut self.composed {
            composed.valid = false;
        }

        // Each heat incidence's conductance, in the structure's order.
        s.heat_k.clear();
        (s.heat_k).extend(st.heat_edge.iter().map(|&e| heat_edges[e as usize].2 .0));

        // Air flows: delegate to the shared propagation routine in
        // `flows` — the single home of flow-graph walking, which reads
        // the solver's edge tuples as they are — then index the per-edge
        // result by incoming stream. The dirty-tracked cache replays the
        // stored distribution when neither the fan mass flow nor an
        // air-edge fraction changed (e.g. a heat-k rebuild).
        let (edge_flow, inflow) =
            self.flow_cache
                .flows(n, air_edges, topo, inlets, fan_mass_flow, &mut s.flow);
        s.air_flow.clear();
        (s.air_flow).extend(st.air_edge.iter().map(|&e| edge_flow[e as usize].0));
        s.inflow.clear();
        s.inflow.extend_from_slice(inflow);

        // Sub-step count first: the advection coefficients depend on the
        // sub-step length.
        self.substeps = required_substeps_in(
            st.dt,
            st.stability_limit,
            heat_edges,
            capacity,
            &s.inflow,
            &air_mass,
            &mut s.conductive,
        );
        self.dt_sub = Seconds(st.dt.0 / self.substeps as f64);

        // Factored heat constants: Σk per node (in adjacency order) and
        // the Δt/(m·c) coefficient that turns the conductance sum into a
        // temperature delta.
        refill(&mut s.heat_ksum, n, 0.0);
        for i in 0..n {
            let mut ksum = 0.0;
            for j in st.heat_off[i] as usize..st.heat_off[i + 1] as usize {
                ksum += s.heat_k[j];
            }
            s.heat_ksum[i] = ksum;
        }
        s.heat_coef.clear();
        (s.heat_coef).extend(st.inv_capacity.iter().map(|inv| self.dt_sub.0 * inv));

        // Advection plan: the per-sub-step replacement fraction and the
        // reciprocal mass for the mix average. The scan-based step
        // recomputed both every sub-step from these same inputs; `alpha`
        // stays zero for nodes that don't mix.
        refill(&mut s.alpha, n, 0.0);
        refill(&mut s.inv_streams_mass, n, 0.0);
        for &node in topo {
            let Some(mass_kg) = air_mass(node) else {
                continue;
            };
            let mut streams_mass = 0.0;
            for j in st.air_off[node] as usize..st.air_off[node + 1] as usize {
                streams_mass += s.air_flow[j];
            }
            if streams_mass > 0.0 {
                s.alpha[node] = crate::physics::replacement_fraction(
                    KilogramsPerSecond(streams_mass),
                    mass_kg,
                    self.dt_sub,
                );
                s.inv_streams_mass[node] = 1.0 / streams_mass;
            }
        }

        // The operator's shape: per node, one entry per heat incidence,
        // and one per incoming air stream if the node mixes. A new shape
        // is a new structure (the patterns follow it).
        refill(&mut s.op_off, n + 1, 0);
        for i in 0..n {
            let heat = st.heat_off[i + 1] - st.heat_off[i];
            let air = if s.alpha[i] != 0.0 {
                st.air_off[i + 1] - st.air_off[i]
            } else {
                0
            };
            s.op_off[i + 1] = s.op_off[i] + heat + air;
        }
        if s.op_off != st.op_off {
            // Set in place at the first compile; a shared structure
            // stays with the kernels that still run on it.
            let (dt, limit) = (st.dt, st.stability_limit);
            if Arc::get_mut(&mut self.structure).is_none() {
                let fresh =
                    KernelStructure::new(dt, limit, heat_edges, air_edges, capacity, &air_mass);
                self.structure = Arc::new(fresh);
            }
            let st = Arc::get_mut(&mut self.structure).expect("unshared above");
            *st.patterns
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner) = Vec::new();
            st.op_off.clone_from(&s.op_off);
            st.op_src.clear();
            for i in 0..n {
                st.op_src.extend_from_slice(
                    &st.heat_nbr[st.heat_off[i] as usize..st.heat_off[i + 1] as usize],
                );
                if s.alpha[i] != 0.0 {
                    st.op_src.extend_from_slice(
                        &st.air_src[st.air_off[i] as usize..st.air_off[i + 1] as usize],
                    );
                }
            }
        }
        let st = &*self.structure;

        // Assemble the sub-step operator's weights: per node, one per
        // heat incidence (Δt/(m·c) · k), one per incoming air stream
        // (α · ṁ/Σṁ), and the self weight 1 − Δt/(m·c)·Σk − α. The
        // stability bound keeps the self weight in [1 − 2·limit, 1], so
        // the assembled row is well-conditioned.
        refill(&mut self.op_w, st.op_src.len(), 0.0);
        refill(&mut self.self_w, n, 0.0);
        for i in 0..n {
            let mut w = st.op_off[i] as usize;
            for j in st.heat_off[i] as usize..st.heat_off[i + 1] as usize {
                self.op_w[w] = s.heat_coef[i] * s.heat_k[j];
                w += 1;
            }
            if s.alpha[i] != 0.0 {
                for j in st.air_off[i] as usize..st.air_off[i + 1] as usize {
                    self.op_w[w] = s.alpha[i] * s.inv_streams_mass[i] * s.air_flow[j];
                    w += 1;
                }
            }
            debug_assert_eq!(w, st.op_off[i + 1] as usize);
            self.self_w[i] = 1.0 - s.heat_coef[i] * s.heat_ksum[i] - s.alpha[i];
        }
    }

    /// Composes the tick's `N` sub-steps into `M` and `B` (see the
    /// module docs) for the boundary mask `fixed`, into the kernel's own
    /// box, unless they are already composed for it since the last
    /// rebuild.
    pub(crate) fn compose(&mut self, fixed: &[bool]) {
        if !self.is_composed_for(fixed) {
            self.compose_at(fixed, SimdBackend::detect(), simd::LANE_PAD);
        }
    }

    /// Whether `M` and `B` are composed into the kernel's own box for the
    /// boundary mask `fixed` since the last rebuild.
    pub(crate) fn is_composed_for(&self, fixed: &[bool]) -> bool {
        (self.composed.as_deref()).is_some_and(|c| c.valid && c.pattern.fixed == fixed)
    }

    /// Composes for `fixed` into the kernel's own box unconditionally,
    /// sweeping the basis chunk at `backend` with its lanes padded to a
    /// multiple of `pad` — every level and every padding composes the
    /// same bits, because lanes never interact.
    fn compose_at(&mut self, fixed: &[bool], backend: SimdBackend, pad: usize) {
        let n = self.structure.n;
        let composed = self.composed.take();
        let composed = REBUILD_SCRATCH.with_borrow_mut(|s| {
            let pattern = self.structure.pattern(fixed, self.substeps, s);
            let mut c = composed.unwrap_or_else(|| {
                Box::new(Composed {
                    valid: false,
                    pattern: Arc::clone(&pattern),
                    m_w: Vec::new(),
                    m_self: Vec::new(),
                    b_w: Vec::new(),
                    power_dt: Vec::new(),
                    drive: Vec::new(),
                    next: Vec::new(),
                })
            });
            refill(&mut c.m_w, pattern.m_src.len(), 0.0);
            refill(&mut c.m_self, n, 0.0);
            refill(&mut c.b_w, pattern.b_src.len(), 0.0);
            c.pattern = pattern;
            self.sweep_basis(s, fixed, backend, pad);
            let column = Column {
                m_w: &mut c.m_w,
                m_self: &mut c.m_self,
                b_w: &mut c.b_w,
                stride: 1,
                lane: 0,
            };
            self.read_basis(s, &c.pattern, column);
            c.valid = true;
            refill(&mut c.power_dt, n, 0.0);
            refill(&mut c.drive, n, 0.0);
            refill(&mut c.next, n, 0.0);
            c
        });
        self.composed = Some(composed);
    }

    /// Composes the tick for `pattern`'s boundary mask straight into
    /// `out` — a batch lane's weight column — leaving the kernel's own
    /// box alone. `pattern` must hold for this kernel (one of its
    /// structure's, or a bitwise-equal structure's, at its sub-step
    /// count): the same routine, on the same values, writes the bits
    /// [`StepKernel::compose`] would.
    pub(crate) fn compose_into(&self, pattern: &TickPattern, out: Column<'_>) {
        debug_assert!(pattern.holds_for(&pattern.fixed, self.substeps));
        REBUILD_SCRATCH.with_borrow_mut(|s| {
            self.sweep_basis(s, &pattern.fixed, SimdBackend::detect(), simd::LANE_PAD);
            self.read_basis(s, pattern, out);
        });
    }

    /// Sweeps the raw sub-step operator `N` times over the basis chunk
    /// (see the module docs), leaving row `i` of `M` and of `B` as row
    /// `i` of `s.basis`.
    fn sweep_basis(
        &self,
        s: &mut RebuildScratch,
        fixed: &[bool],
        backend: SimdBackend,
        pad: usize,
    ) {
        let st = &*self.structure;
        let n = st.n;
        debug_assert_eq!(fixed.len(), n);

        // The basis chunk: lane `j < n` starts at `e_j`, lane `n + k` at
        // zero with unit power on component `k`, padded to whole
        // `LANE_PAD` blocks only (the sweep runs a row's tail as one
        // block), so the Table 1 machine sweeps 24 lanes, not 32. Fixed
        // rows hold in both buffers, as the sweep requires.
        let stride = (n + st.components.len()).next_multiple_of(pad);
        refill(&mut s.basis, n * stride, 0.0);
        for j in 0..n {
            s.basis[j * stride + j] = 1.0;
        }
        s.basis_next.clone_from(&s.basis);
        refill(&mut s.unit_power, n * stride, 0.0);
        refill(&mut s.power_lane, n, 0);
        for (k, &comp) in st.components.iter().enumerate() {
            s.unit_power[comp as usize * stride + n + k] = 1.0;
            s.power_lane[comp as usize] = (n + k) as u32;
        }
        for _ in 0..self.substeps {
            simd::substep(
                backend,
                Sweep {
                    n,
                    lanes: stride,
                    op_off: &st.op_off,
                    op_src: &st.op_src,
                    op_w: &self.op_w,
                    self_w: &self.self_w,
                    lane_w: false,
                    fixed,
                    power_dt: &s.unit_power,
                    cur: &s.basis,
                    next: &mut s.basis_next,
                },
            );
            std::mem::swap(&mut s.basis, &mut s.basis_next);
        }
    }

    /// Reads `M` and `B` off the swept basis into `out`, in `pattern`'s
    /// layout: row `i` of `M` is row `i` of the basis lanes, row `i` of
    /// `B` that of the component lanes (both in node order). A fixed
    /// row's diagonal is zero.
    fn read_basis(&self, s: &RebuildScratch, pattern: &TickPattern, out: Column<'_>) {
        let n = self.structure.n;
        let stride = s.basis.len() / n.max(1);
        let at = |j: usize| j * out.stride + out.lane;
        for i in 0..n {
            if pattern.fixed[i] {
                out.m_self[at(i)] = 0.0;
                continue;
            }
            let row = &s.basis[i * stride..(i + 1) * stride];
            out.m_self[at(i)] = row[i];
            for j in pattern.m_off[i] as usize..pattern.m_off[i + 1] as usize {
                out.m_w[at(j)] = row[pattern.m_src[j] as usize];
            }
            for j in pattern.b_off[i] as usize..pattern.b_off[i + 1] as usize {
                out.b_w[at(j)] = row[s.power_lane[pattern.b_src[j] as usize] as usize];
            }
        }
    }

    /// Advances `temp` by one tick: `T' = M·T + B·p` (see the module
    /// docs), composing first if the kernel was rebuilt or the boundary
    /// mask changed since the last composition.
    ///
    /// `fixed[i]` marks boundary nodes (inlets and force-pinned nodes)
    /// that never change; `power_q[k]` is the heat the structure's
    /// `k`-th component generates per sub-step (air regions generate
    /// none). Returns the total heat generated over the tick, in Joules.
    pub(crate) fn tick(&mut self, temp: &mut [Celsius], fixed: &[bool], power_q: &[f64]) -> f64 {
        let n = self.structure.n;
        debug_assert_eq!(temp.len(), n);
        debug_assert_eq!(power_q.len(), self.structure.components.len());
        self.compose(fixed);
        let st = &*self.structure;
        let c = self.composed.as_deref_mut().expect("composed above");
        let p = &*c.pattern;
        // Equation 3: `power_q` is constant across the tick's sub-steps,
        // so the generated total and the per-sub-step ΔT are priced once,
        // and the drive only when the ΔT moved (a composition zeroes the
        // ΔT it was last priced from, so a new `B` always reprices). Air
        // rows keep the zero ΔT a composition leaves.
        let mut sum_q = 0.0;
        let mut repriced = false;
        for (&comp, &q) in st.components.iter().zip(power_q) {
            let pt = &mut c.power_dt[comp as usize];
            sum_q += q;
            let dt = q * st.inv_capacity[comp as usize];
            repriced |= dt.to_bits() != pt.to_bits();
            *pt = dt;
        }
        let generated = sum_q * self.substeps as f64;
        if repriced {
            for (i, d) in c.drive.iter_mut().enumerate() {
                let entries = p.b_off[i] as usize..p.b_off[i + 1] as usize;
                let mut sum = 0.0;
                for (&comp, &w) in p.b_src[entries.clone()].iter().zip(&c.b_w[entries]) {
                    sum += w * c.power_dt[comp as usize];
                }
                *d = sum;
            }
        }

        // One pass: every non-fixed row reads the start-of-tick `temp`
        // and writes `next` — the self term plus the drive, then one
        // multiply-add per entry of `M` in entry order, the sequence a
        // batch lane runs.
        for i in 0..n {
            if fixed[i] {
                continue;
            }
            let entries = p.m_off[i] as usize..p.m_off[i + 1] as usize;
            let mut t = c.m_self[i] * temp[i].0 + c.drive[i];
            for (&src, &w) in p.m_src[entries.clone()].iter().zip(&c.m_w[entries]) {
                t += w * temp[src as usize].0;
            }
            c.next[i] = t;
        }
        for (i, t) in temp.iter_mut().enumerate() {
            if !fixed[i] {
                t.0 = c.next[i];
            }
        }
        generated
    }
}

/// Flattened inter-machine mixing plan for the cluster solver.
///
/// Endpoints are mapped to dense *slots* — supplies first (model order),
/// then junctions, then one exhaust slot per machine — and each sink's
/// incoming edges are stored as CSR ranges of `(source slot, fraction)`
/// pairs in edge declaration order. A tick fills the slot temperatures
/// once ([`MixGraph::begin_tick`]) and mixes by index, replacing the
/// per-tick `HashMap<ClusterEndpoint, Celsius>` (and its `String` clones)
/// of the original implementation.
///
/// ## What a fused span mixes
///
/// Inside a fused span only the span's feed runs between ticks, and a
/// feed only sets utilizations: supply temperatures, forced inlets and
/// the graph itself are fixed until the span ends. So each sink is
/// classified once, from the graph alone:
///
/// - an inlet is *span-invariant* when every source it reads is a
///   supply — each tick of the span would mix the value the span's
///   first (full) tick already set;
/// - a junction is *deferred* when no edge reads it and every junction
///   it reads comes before it in model order — its value after the span
///   depends only on the last tick's exhausts and on junctions that are
///   already final, so mixing it once at the span's end from the last
///   tick's exhausts gives the bits a per-tick loop leaves;
/// - every other sink is *live* and is mixed every tick.
#[derive(Debug)]
pub(crate) struct MixGraph {
    n_supply: usize,
    /// Per-junction incoming CSR (junctions in model order).
    junction_off: Vec<u32>,
    junction_src: Vec<u32>,
    junction_frac: Vec<f64>,
    /// Per-machine-inlet incoming CSR.
    inlet_off: Vec<u32>,
    inlet_src: Vec<u32>,
    inlet_frac: Vec<f64>,
    /// Per-machine exhaust node indices (model order within the machine).
    exhaust_off: Vec<u32>,
    exhaust_node: Vec<u32>,
    /// Endpoint temperatures for the current tick, by slot.
    temps: Vec<f64>,
    /// Span classes: `inlet_live[m]` unless machine `m`'s inlet is
    /// span-invariant; live and deferred junctions, each in model order.
    inlet_live: Vec<bool>,
    live_junctions: Vec<u32>,
    deferred_junctions: Vec<u32>,
}

impl MixGraph {
    /// Compiles the cluster model's edge list into the dense mixing plan.
    pub(crate) fn build(model: &ClusterModel) -> Self {
        let n_supply = model.supplies().len();
        let n_junction = model.junctions().len();
        let n_machine = model.machines().len();
        let slot = |ep: &ClusterEndpoint| -> usize {
            match ep {
                ClusterEndpoint::Supply(name) => {
                    model.supply_index(name).expect("validated supply")
                }
                ClusterEndpoint::Junction(name) => {
                    n_supply + model.junction_index(name).expect("validated junction")
                }
                ClusterEndpoint::MachineExhaust(i) => n_supply + n_junction + *i,
                ClusterEndpoint::MachineInlet(_) => {
                    unreachable!("machine inlets are sinks, never sources")
                }
            }
        };

        let mut junction_off = vec![0u32; n_junction + 1];
        let mut inlet_off = vec![0u32; n_machine + 1];
        for e in model.edges() {
            match &e.to {
                ClusterEndpoint::Junction(name) => {
                    junction_off[model.junction_index(name).expect("validated junction") + 1] += 1;
                }
                ClusterEndpoint::MachineInlet(i) => inlet_off[*i + 1] += 1,
                // The builder rejects edges into supplies or exhausts.
                _ => {}
            }
        }
        for j in 0..n_junction {
            junction_off[j + 1] += junction_off[j];
        }
        for m in 0..n_machine {
            inlet_off[m + 1] += inlet_off[m];
        }
        let mut junction_src = vec![0u32; junction_off[n_junction] as usize];
        let mut junction_frac = vec![0.0_f64; junction_off[n_junction] as usize];
        let mut inlet_src = vec![0u32; inlet_off[n_machine] as usize];
        let mut inlet_frac = vec![0.0_f64; inlet_off[n_machine] as usize];
        let mut jcursor: Vec<u32> = junction_off[..n_junction].to_vec();
        let mut icursor: Vec<u32> = inlet_off[..n_machine].to_vec();
        for e in model.edges() {
            match &e.to {
                ClusterEndpoint::Junction(name) => {
                    let j = model.junction_index(name).expect("validated junction");
                    let c = jcursor[j] as usize;
                    junction_src[c] = slot(&e.from) as u32;
                    junction_frac[c] = e.fraction;
                    jcursor[j] += 1;
                }
                ClusterEndpoint::MachineInlet(i) => {
                    let c = icursor[*i] as usize;
                    inlet_src[c] = slot(&e.from) as u32;
                    inlet_frac[c] = e.fraction;
                    icursor[*i] += 1;
                }
                _ => {}
            }
        }

        let mut exhaust_off = vec![0u32; n_machine + 1];
        let mut exhaust_node = Vec::new();
        for (m, machine) in model.machines().iter().enumerate() {
            for id in machine.exhausts() {
                exhaust_node.push(id.index() as u32);
            }
            exhaust_off[m + 1] = exhaust_node.len() as u32;
        }

        // Span classes (see the type docs). Slots below `n_supply` are
        // supplies, the next `n_junction` junctions.
        let junction_slot = |s: u32| {
            (s as usize)
                .checked_sub(n_supply)
                .filter(|&j| j < n_junction)
        };
        let inlet_live = (0..n_machine)
            .map(|m| {
                inlet_src[inlet_off[m] as usize..inlet_off[m + 1] as usize]
                    .iter()
                    .any(|&s| s as usize >= n_supply)
            })
            .collect();
        let mut read = vec![false; n_junction];
        for &s in junction_src.iter().chain(&inlet_src) {
            if let Some(j) = junction_slot(s) {
                read[j] = true;
            }
        }
        let (deferred_junctions, live_junctions): (Vec<u32>, Vec<u32>) = (0..n_junction as u32)
            .partition(|&j| {
                let sources = &junction_src
                    [junction_off[j as usize] as usize..junction_off[j as usize + 1] as usize];
                !read[j as usize]
                    && sources
                        .iter()
                        .all(|&s| junction_slot(s).is_none_or(|k| k < j as usize))
            });

        MixGraph {
            n_supply,
            junction_off,
            junction_src,
            junction_frac,
            inlet_off,
            inlet_src,
            inlet_frac,
            exhaust_off,
            exhaust_node,
            temps: vec![0.0; n_supply + n_junction + n_machine],
            inlet_live,
            live_junctions,
            deferred_junctions,
        }
    }

    /// Whether machine `m`'s inlet reads anything but supplies, and so
    /// must be mixed on every tick of a fused span.
    pub(crate) fn inlet_live(&self, m: usize) -> bool {
        self.inlet_live[m]
    }

    /// Whether any sink must be mixed on every tick of a fused span.
    pub(crate) fn span_live(&self) -> bool {
        !self.live_junctions.is_empty() || self.inlet_live.contains(&true)
    }

    /// Whether any junction is mixed only at a fused span's end.
    pub(crate) fn has_deferred(&self) -> bool {
        !self.deferred_junctions.is_empty()
    }

    /// Mixes the live junctions in model order, into `junctions` — a
    /// fused tick's junction pass (see [`MixGraph::mix_junction`]).
    pub(crate) fn mix_live_junctions(&mut self, junctions: &mut [Celsius]) {
        for k in 0..self.live_junctions.len() {
            let j = self.live_junctions[k] as usize;
            if let Some(t) = self.mix_junction(j) {
                junctions[j] = t;
            }
        }
    }

    /// Mixes the deferred junctions in model order, into `junctions` —
    /// once, at a fused span's end, with the slots loaded from the
    /// span's last tick.
    pub(crate) fn mix_deferred_junctions(&mut self, junctions: &mut [Celsius]) {
        for k in 0..self.deferred_junctions.len() {
            let j = self.deferred_junctions[k] as usize;
            if let Some(t) = self.mix_junction(j) {
                junctions[j] = t;
            }
        }
    }

    /// Node indices of machine `m`'s exhaust air regions.
    pub(crate) fn exhaust_nodes(&self, m: usize) -> &[u32] {
        &self.exhaust_node[self.exhaust_off[m] as usize..self.exhaust_off[m + 1] as usize]
    }

    /// Loads this tick's endpoint temperatures into the slot array.
    pub(crate) fn begin_tick(
        &mut self,
        supplies: &[Celsius],
        junctions: &[Celsius],
        exhausts: &[Celsius],
    ) {
        let mut w = 0;
        for t in supplies.iter().chain(junctions).chain(exhausts) {
            self.temps[w] = t.0;
            w += 1;
        }
        debug_assert_eq!(w, self.temps.len());
    }

    /// Mixes junction `j` from its incoming edges and publishes the
    /// result to its slot, so later junctions and the machine inlets see
    /// the updated value — matching the original single junction pass.
    /// Returns `None` for a junction with no incoming edges.
    pub(crate) fn mix_junction(&mut self, j: usize) -> Option<Celsius> {
        let t = self.mix(
            &self.junction_src[self.junction_off[j] as usize..self.junction_off[j + 1] as usize],
            &self.junction_frac[self.junction_off[j] as usize..self.junction_off[j + 1] as usize],
        )?;
        self.temps[self.n_supply + j] = t.0;
        Some(t)
    }

    /// Mixes machine `m`'s inlet temperature from its incoming edges.
    pub(crate) fn mix_inlet(&self, m: usize) -> Option<Celsius> {
        self.mix(
            &self.inlet_src[self.inlet_off[m] as usize..self.inlet_off[m + 1] as usize],
            &self.inlet_frac[self.inlet_off[m] as usize..self.inlet_off[m + 1] as usize],
        )
    }

    /// Fraction-weighted average over `(source slot, fraction)` pairs, in
    /// the same accumulation order as the original edge-list scan.
    fn mix(&self, src: &[u32], frac: &[f64]) -> Option<Celsius> {
        let mut weight = 0.0;
        let mut sum = 0.0;
        for (&s, &f) in src.iter().zip(frac) {
            weight += f;
            sum += f * self.temps[s as usize];
        }
        if weight > 0.0 {
            Some(Celsius(sum / weight))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::cluster::mixed_inlet_temperature;
    use crate::model::{ClusterEndpoint, ClusterModel, MachineModel};
    use std::collections::HashMap;

    fn machine(name: &str) -> MachineModel {
        let mut b = MachineModel::builder(name);
        b.component("cpu")
            .mass_kg(0.1)
            .specific_heat(896.0)
            .power_range(7.0, 31.0);
        b.inlet("inlet");
        b.air("cpu_air");
        b.exhaust("exhaust");
        b.heat_edge("cpu", "cpu_air", 0.75).unwrap();
        b.air_edge("inlet", "cpu_air", 1.0).unwrap();
        b.air_edge("cpu_air", "exhaust", 1.0).unwrap();
        b.build().unwrap()
    }

    /// Two machines, one junction, recirculation from the junction back
    /// into machine 1's inlet.
    fn recirculating_cluster() -> ClusterModel {
        let mut b = ClusterModel::builder();
        b.supply("ac", 18.0);
        b.junction("room");
        let m0 = b.machine(machine("m1"));
        let m1 = b.machine(machine("m2"));
        b.edge(
            ClusterEndpoint::Supply("ac".into()),
            ClusterEndpoint::MachineInlet(m0),
            0.8,
        );
        b.edge(
            ClusterEndpoint::Junction("room".into()),
            ClusterEndpoint::MachineInlet(m0),
            0.2,
        );
        b.edge(
            ClusterEndpoint::Supply("ac".into()),
            ClusterEndpoint::MachineInlet(m1),
            1.0,
        );
        b.edge(
            ClusterEndpoint::MachineExhaust(m0),
            ClusterEndpoint::Junction("room".into()),
            1.0,
        );
        b.edge(
            ClusterEndpoint::MachineExhaust(m1),
            ClusterEndpoint::Junction("room".into()),
            1.0,
        );
        b.build().unwrap()
    }

    #[test]
    fn mix_graph_matches_the_hashmap_reference() {
        let model = recirculating_cluster();
        let mut mix = MixGraph::build(&model);
        let supplies = [Celsius(18.0)];
        let junctions = [Celsius(21.0)];
        let exhausts = [Celsius(35.0), Celsius(31.0)];
        mix.begin_tick(&supplies, &junctions, &exhausts);

        // The reference: the HashMap-based helper the cluster solver used
        // before the kernel refactor.
        let mut temps = HashMap::new();
        temps.insert(ClusterEndpoint::Supply("ac".into()), supplies[0]);
        temps.insert(ClusterEndpoint::Junction("room".into()), junctions[0]);
        temps.insert(ClusterEndpoint::MachineExhaust(0), exhausts[0]);
        temps.insert(ClusterEndpoint::MachineExhaust(1), exhausts[1]);

        let jt = mix.mix_junction(0).unwrap();
        let expected = mixed_inlet_temperature(
            model.edges(),
            &ClusterEndpoint::Junction("room".into()),
            &temps,
        )
        .unwrap();
        assert_eq!(jt.0, expected.0);
        // The junction pass publishes before inlets mix, as the original
        // single pass did.
        temps.insert(ClusterEndpoint::Junction("room".into()), expected);

        for m in 0..2 {
            let got = mix.mix_inlet(m).unwrap();
            let want =
                mixed_inlet_temperature(model.edges(), &ClusterEndpoint::MachineInlet(m), &temps)
                    .unwrap();
            assert_eq!(got.0, want.0, "machine {m} inlet");
        }
    }

    /// Two machines whose inlets read supply `ac`, the given junctions,
    /// and the given edges at fraction 0.5 each.
    fn room(junctions: &[&str], edges: &[(ClusterEndpoint, ClusterEndpoint)]) -> MixGraph {
        let mut b = ClusterModel::builder();
        b.supply("ac", 18.0);
        for j in junctions {
            b.junction(*j);
        }
        for m in 0..2 {
            let m = b.machine(machine(&format!("m{m}")));
            b.edge(
                ClusterEndpoint::Supply("ac".into()),
                ClusterEndpoint::MachineInlet(m),
                1.0,
            );
        }
        for (from, to) in edges {
            b.edge(from.clone(), to.clone(), 0.5);
        }
        MixGraph::build(&b.build().unwrap())
    }

    fn junction(name: &str) -> ClusterEndpoint {
        ClusterEndpoint::Junction(name.into())
    }

    #[test]
    fn mix_graph_classifies_the_ideal_room() {
        let mix = MixGraph::build(&crate::presets::validation_cluster(6));
        assert!(
            (0..6).all(|m| !mix.inlet_live(m)),
            "inlets read the supply only"
        );
        assert_eq!(mix.deferred_junctions, [0], "cluster_exhaust is deferred");
        assert!(mix.live_junctions.is_empty());
        assert!(!mix.span_live());
        assert!(mix.has_deferred());
    }

    #[test]
    fn mix_graph_classifies_the_recirculating_room() {
        let mix = MixGraph::build(&crate::presets::recirculating_cluster(6, 0.2));
        assert!((0..6).all(|m| mix.inlet_live(m)), "inlets read hot_aisle");
        assert_eq!(mix.live_junctions, [0], "hot_aisle feeds the inlets");
        assert!(mix.deferred_junctions.is_empty());
        assert!(mix.span_live());
    }

    #[test]
    fn mix_graph_keeps_a_junction_read_by_a_later_one_live() {
        // `a` is read only by `b`, which comes after it; nothing reads
        // `b`, and `b` reads only an earlier junction: deferred.
        let mix = room(
            &["a", "b"],
            &[
                (ClusterEndpoint::MachineExhaust(0), junction("a")),
                (junction("a"), junction("b")),
                (ClusterEndpoint::MachineExhaust(1), junction("b")),
            ],
        );
        assert_eq!(mix.live_junctions, [0]);
        assert_eq!(mix.deferred_junctions, [1]);
        assert!((0..2).all(|m| !mix.inlet_live(m)));
    }

    #[test]
    fn mix_graph_does_not_defer_a_junction_reading_a_later_one() {
        // `a` reads `b`, declared after it: `a` would see `b`'s
        // previous-tick value, which the span's end no longer has.
        let mix = room(
            &["a", "b"],
            &[
                (junction("b"), junction("a")),
                (ClusterEndpoint::MachineExhaust(0), junction("b")),
            ],
        );
        assert_eq!(mix.live_junctions, [0, 1], "b is read, a reads later");
        assert!(mix.deferred_junctions.is_empty());
    }

    #[test]
    fn mix_graph_treats_an_inlet_without_edges_as_span_invariant() {
        // The builder allows edge-less inlets only in a room without
        // edges; such an inlet keeps whatever it was set to.
        let mut b = ClusterModel::builder();
        b.supply("ac", 18.0);
        b.junction("a");
        b.machine(machine("m0"));
        let mix = MixGraph::build(&b.build().unwrap());
        assert_eq!(mix.inlet_off, [0, 0], "no inlet edge");
        assert!(!mix.inlet_live(0));
        assert!(!mix.span_live());
        assert_eq!(mix.deferred_junctions, [0], "nothing reads `a`");
    }

    #[test]
    fn mix_graph_exposes_exhaust_nodes_in_model_order() {
        let model = recirculating_cluster();
        let mix = MixGraph::build(&model);
        for m in 0..2 {
            let nodes = mix.exhaust_nodes(m);
            let expected: Vec<u32> = model.machines()[m]
                .exhausts()
                .iter()
                .map(|id| id.index() as u32)
                .collect();
            assert_eq!(nodes, expected.as_slice());
        }
    }

    /// `model`'s kernel, compiled at its own fan speed, and its
    /// inlet-only boundary mask.
    fn compiled(model: &MachineModel) -> (StepKernel, Vec<bool>) {
        let mut kernel = None;
        let fixed = with_inputs(
            model,
            |heat_edges, air_edges, topo, inlets, capacity, air_mass| {
                let mut k = StepKernel::new(
                    Seconds(1.0),
                    0.25,
                    heat_edges,
                    air_edges,
                    capacity,
                    air_mass,
                );
                let fan = model.fan().mass_flow();
                k.rebuild(heat_edges, air_edges, topo, inlets, fan, capacity, air_mass);
                kernel = Some(k);
            },
        );
        (kernel.unwrap(), fixed)
    }

    /// Hands `model`'s kernel inputs, laid out as a solver stores them,
    /// to `f`; returns the inlet-only boundary mask.
    fn with_inputs(
        model: &MachineModel,
        f: impl FnOnce(
            &[(usize, usize, WattsPerKelvin)],
            &[(usize, usize, f64)],
            &[usize],
            &[usize],
            &[JoulesPerKelvin],
            &dyn Fn(usize) -> Option<f64>,
        ),
    ) -> Vec<bool> {
        let capacity: Vec<JoulesPerKelvin> = model.nodes().iter().map(|n| n.capacity()).collect();
        let air_mass: Vec<Option<f64>> = model
            .nodes()
            .iter()
            .map(|n| n.as_air().map(|a| a.mass_kg))
            .collect();
        let heat_edges: Vec<(usize, usize, WattsPerKelvin)> = model
            .heat_edges()
            .iter()
            .map(|e| (e.a.index(), e.b.index(), e.k))
            .collect();
        let air_edges: Vec<(usize, usize, f64)> = model
            .air_edges()
            .iter()
            .map(|e| (e.from.index(), e.to.index(), e.fraction))
            .collect();
        let topo: Vec<usize> = model.topo_order().iter().map(|id| id.index()).collect();
        let inlets: Vec<usize> = model.inlets().iter().map(|id| id.index()).collect();
        let mass = |i: usize| air_mass[i];
        f(&heat_edges, &air_edges, &topo, &inlets, &capacity, &mass);
        (0..capacity.len()).map(|i| inlets.contains(&i)).collect()
    }

    /// A rebuild keeps the structure it shares; one that moves the
    /// operator's shape — a stopped fan, which no fiddle allows but a
    /// restored checkpoint could carry — runs on a new structure and
    /// leaves the shared one to the kernels still on it.
    #[test]
    fn only_a_new_operator_shape_builds_a_new_structure() {
        let model = machine("m");
        let (kernel, _) = compiled(&model);
        let shared = kernel.uncomposed();
        for (fan, kept) in [(model.fan().mass_flow().0 * 0.5, true), (0.0, false)] {
            let mut rebuilt = kernel.uncomposed();
            with_inputs(
                &model,
                |heat_edges, air_edges, topo, inlets, capacity, air_mass| {
                    rebuilt.rebuild(
                        heat_edges,
                        air_edges,
                        topo,
                        inlets,
                        KilogramsPerSecond(fan),
                        capacity,
                        air_mass,
                    );
                },
            );
            let same = Arc::ptr_eq(rebuilt.structure(), shared.structure());
            assert_eq!(same, kept, "fan {fan} kg/s");
            // Without flow no air region mixes: only heat entries remain.
            let entries = rebuilt.structure().op_src.len();
            assert_eq!(entries == 2 * model.heat_edges().len(), !kept);
        }
    }

    #[test]
    fn kernel_reuses_scratch_and_counts_substeps() {
        let model = machine("m");
        let (mut kernel, fixed) = compiled(&model);
        assert!(kernel.substeps() >= 1);
        assert!((kernel.dt_sub().0 * kernel.substeps() as f64 - 1.0).abs() < 1e-12);

        let n = model.nodes().len();
        let mut temp = vec![Celsius(21.6); n];
        let mut power_q = vec![0.0; kernel.structure().components.len()];
        assert_eq!(kernel.structure().components[0], 0, "node 0 is the cpu");
        power_q[0] = 31.0 * kernel.dt_sub().0; // cpu at full utilization
        let generated = kernel.tick(&mut temp, &fixed, &power_q);
        assert!((generated - 31.0).abs() < 1e-9, "generated {generated}");
        // The CPU warmed; the inlet boundary did not move.
        assert!(temp[0].0 > 21.6);
        assert_eq!(temp[1], Celsius(21.6));
    }

    #[test]
    fn every_simd_level_composes_the_same_bits() {
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for model in [
            crate::presets::validation_machine(),
            crate::presets::freon_machine(),
        ] {
            let (mut kernel, mut fixed) = compiled(&model);
            // The inlet-only mask, and one with a pinned air region.
            for pin in [None, model.node_id("cpu_air")] {
                if let Some(id) = pin {
                    fixed[id.index()] = true;
                }
                let mut composed = Vec::new();
                for backend in SimdBackend::ALL.into_iter().filter(|b| b.supported()) {
                    kernel.compose_at(&fixed, backend, simd::LANE_PAD);
                    let (c, p) = (kernel.composed_op(), kernel.composed_pattern());
                    composed.push((
                        backend,
                        (
                            p.m_off.to_vec(),
                            p.m_src.to_vec(),
                            p.b_off.to_vec(),
                            p.b_src.to_vec(),
                        ),
                        [bits(c.m_w), bits(c.m_self), bits(c.b_w)],
                    ));
                }
                let (_, pattern, weights) = &composed[0];
                assert!(!weights[0].is_empty() && !weights[2].is_empty());
                for (backend, p, w) in &composed[1..] {
                    assert_eq!(p, pattern, "{} pattern, pin {pin:?}", backend.name());
                    assert_eq!(w, weights, "{} weights, pin {pin:?}", backend.name());
                }
            }
        }
    }

    /// A composition straight into a batch lane's column writes the bits
    /// the kernel's own box holds, inlet-only and with a pinned air
    /// region.
    #[test]
    fn a_lane_column_holds_the_box_bits() {
        for model in [
            crate::presets::validation_machine(),
            crate::presets::freon_machine(),
        ] {
            let (mut kernel, mut fixed) = compiled(&model);
            for pin in [None, model.node_id("cpu_air")] {
                if let Some(id) = pin {
                    fixed[id.index()] = true;
                }
                kernel.compose(&fixed);
                let (own, pattern) = (kernel.composed_op(), kernel.composed_pattern());
                let (stride, lane, n) = (16, 11, fixed.len());
                let mut m_w = vec![f64::NAN; pattern.m_src.len() * stride];
                let mut m_self = vec![f64::NAN; n * stride];
                let mut b_w = vec![f64::NAN; pattern.b_src.len() * stride];
                let column = Column {
                    m_w: &mut m_w,
                    m_self: &mut m_self,
                    b_w: &mut b_w,
                    stride,
                    lane,
                };
                kernel.compose_into(&pattern, column);
                for (lanes, box_w) in [(&m_w, own.m_w), (&m_self, own.m_self), (&b_w, own.b_w)] {
                    let column = lanes.iter().skip(lane).step_by(stride);
                    let column: Vec<u64> = column.map(|w| w.to_bits()).collect();
                    let own: Vec<u64> = box_w.iter().map(|w| w.to_bits()).collect();
                    assert_eq!(column, own, "{}, pin {pin:?}", model.name());
                }
            }
        }
    }

    /// The basis is padded to `LANE_PAD`, not to a whole wide block: the
    /// Table 1 and Freon machines, inlet-only and with a pinned air
    /// region, compose the same `M` and `B` bits on the narrow basis
    /// (whose rows end in a tail block) as on the old `WIDE` one, at
    /// every level.
    #[test]
    fn the_narrow_basis_composes_the_wide_basis_bits() {
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let snapshot = |kernel: &StepKernel| {
            let (c, p) = (kernel.composed_op(), kernel.composed_pattern());
            (
                [
                    p.m_off.to_vec(),
                    p.m_src.to_vec(),
                    p.b_off.to_vec(),
                    p.b_src.to_vec(),
                ],
                [bits(c.m_w), bits(c.m_self), bits(c.b_w)],
            )
        };
        for model in [
            crate::presets::validation_machine(),
            crate::presets::freon_machine(),
        ] {
            let (mut kernel, mut fixed) = compiled(&model);
            let basis = model.nodes().len() + kernel.structure.components.len();
            assert_ne!(
                basis.next_multiple_of(simd::LANE_PAD),
                basis.next_multiple_of(simd::WIDE),
                "{}: the two paddings differ",
                model.name()
            );
            for pin in [None, model.node_id("cpu_air")] {
                if let Some(id) = pin {
                    fixed[id.index()] = true;
                }
                for backend in SimdBackend::ALL.into_iter().filter(|b| b.supported()) {
                    kernel.compose_at(&fixed, backend, simd::WIDE);
                    let wide = snapshot(&kernel);
                    kernel.compose_at(&fixed, backend, simd::LANE_PAD);
                    assert_eq!(
                        snapshot(&kernel),
                        wide,
                        "{} on {}, pin {pin:?}",
                        model.name(),
                        backend.name()
                    );
                }
            }
        }
    }
}
