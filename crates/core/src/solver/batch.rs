//! Batched cluster stepping: structure-sharing for replicated machines.
//!
//! Mercury's trace-replication trick (§2.3) emulates a large machine room
//! by replicating one calibrated server model, so the common cluster is
//! hundreds of machines with *identical* stepping structure. Stepping
//! them through separate [`super::kernel::StepKernel`]s wastes both
//! memory (each kernel holds its own copy of the same CSR topology and
//! operator weights) and cache (every machine switch evicts the previous
//! machine's operator arrays).
//!
//! This module groups machines by [`structural
//! fingerprint`](crate::model::MachineModel::structural_fingerprint) and
//! steps each group as one fused sweep over a contiguous
//! `[nodes × machines]` state matrix:
//!
//! - **Shared operator.** One read-only composed tick (`T' = M·T +
//!   B·p`, see `super::kernel`: the patterns of `M` and `B`, their
//!   weights, and `1/(m·c)`) serves every machine in the group — a copy
//!   of the representative's kernel the group owns ([`SharedOp`]) — and
//!   the member solvers share one copy of their machine type's structure
//!   and compiled kernel (`super::machine`) — so the topology memory for
//!   a 1024-replica room is that of *one* machine plus state rows
//!   (`tests/step_alloc.rs`,
//!   `replicas_share_their_machine_type`, pins the model and solvers at
//!   ≈1.3 KB a machine).
//! - **SoA layout.** Temperatures, per-node power ΔT and the drive
//!   `B·ΔT` are stored node-major: row `i` holds node `i`'s value for
//!   every machine in the chunk (one f64 *lane* per machine). Applying
//!   operator entry `(src, w)` to node `i` is then a straight sequential
//!   walk over two contiguous rows — `next[i][·] += w · cur[src][·]` —
//!   which the compiler auto-vectorizes.
//! - **Bit-identical trajectories.** Per lane, a tick is exactly the
//!   scalar kernel's sequence: the drive `0 + Σ b·ΔT` in `B`'s entry
//!   order when the power changed, then `m_self·T_i + drive`, then one
//!   `+= w_j·T_src(j)` per entry of `M` in the same order. Lanes never
//!   interact (no horizontal reductions), so batched, per-machine,
//!   serial, and parallel stepping all produce the same bits.
//!
//! ## Group classes
//!
//! Eligible machines are grouped by `(structural fingerprint, class)`:
//!
//! - **Shared operator** — machines whose kernel constants still match
//!   their source model. They compile to bit-identical operators, so
//!   the group composes one copy of the representative's kernel (no
//!   member composes) and the sweep splats each weight across the row.
//! - **Per-lane weights, `N` sub-steps** — machines a fan-speed, heat-k
//!   or air-fraction fiddle has diverged from the model. A fiddle
//!   changes an operator's *weights* (and sometimes its sub-step
//!   count), not its CSR structure, so such machines still share their
//!   type's kernel structure — offsets, sources, `1/(m·c)` and, with the
//!   same sub-step count and boundary mask, the composed patterns of `M`
//!   and `B`; each chunk carries `[entries × lanes]` weight matrices of
//!   `M` and `B` and a `[nodes × lanes]` matrix of `M`'s diagonal beside
//!   its state, and the same sweep loads a lane's weights where the
//!   shared class splats them. A member composes its tick straight into
//!   its lane's column, so the chunk holds the only copy of its weights;
//!   the member's own kernel keeps its values (flow cache, sub-step
//!   count, operator weights) and no composed tick — it composes one of
//!   its own only if it comes to step by itself (solo or pinned), and
//!   drops it when it rejoins a lane. The composed patterns follow the
//!   sub-step count, so
//!   it is part of the class: a fan command that moves a machine from
//!   14 to 15 sub-steps moves it to another group.
//!
//! What still steps per-machine: machines with force-pinned nodes
//! (pinning changes the boundary-flag pattern a group shares; see
//! [`super::machine::Solver::batch_eligible`]) and classes with fewer
//! than [`MIN_GROUP`] members. Groups are split into fixed-width chunks
//! of at most [`CHUNK_LANES`] machines so that the working set of one
//! chunk stays cache-resident. A chunk's row stride is its lane count
//! rounded up to [`LANE_PAD`]: the dead lanes are zero in every matrix
//! (weights included) and therefore stay zero, and every row is whole
//! vector blocks on every backend.
//!
//! ## Plan maintenance
//!
//! [`BatchSet::plan`] replans only when some machine's signature moved
//! (its class, a pin, or a diverged machine's rebuild epoch), and a
//! replan recycles rather than rebuilds — a fan command moves its
//! machine between per-lane classes, and a room under fan control
//! replans often. A class whose key the previous plan had keeps that
//! group's operator (the same fingerprint and sub-step count mean the
//! same structure and composed pattern) and verifies only the members
//! new to it or rebuilt since. Lanes keep their machine, not cluster
//! order ([`place`]): a machine that stays in its class keeps its lane
//! and its weight column, a machine that leaves leaves a hole, and a
//! machine new to the class fills one. Chunk counts and sizes still
//! follow the class size (all chunks full but the last), so a class that
//! shrinks compacts — the machines past the new layout move their weight
//! columns lane to lane within the group — and each chunk keeps its
//! buffers while its stride holds. Only a machine new to its lane's
//! class or rebuilt since composes; a lane given another machine, moved
//! or new, is gathered whole (cold). The bucketing and the placement
//! run in scratch kept on the set, so a warm replan that moves machines
//! between existing classes without changing a chunk's stride allocates
//! nothing. Which lane or chunk a machine lands in never touches its
//! bits.
//!
//! ## What a tick re-reads
//!
//! A warm lane holds last tick's state, so the gather rewrites only
//! what changed, told apart by two solver flags: *inputs repriced*
//! (a utilization or power-model change — the lane's component
//! `power_dt` rows and its generated heat) and *temperatures rewritten
//! outside the chunk* (a direct step, `set_temperature`, a restore —
//! the lane's whole `cur` column). Boundary rows are re-read every
//! tick, because the room graph rewrites inlets every tick. A lane's
//! weight column is rewritten when its solver's rebuild epoch moved,
//! which [`BatchSet::plan`] sees because the epoch is in the signature.
//! A chunk recomputes its drive rows only on a tick after its power
//! rows or weights changed.
//!
//! ## Inputs that arrive inside a span
//!
//! A replay call runs every tick in the lanes, its first included, so
//! the chunk is the only copy of its lanes' state while the call's feed
//! runs, and a utilization that lands there ([`super::TickInputs`]) is
//! priced where it is consumed. Each chunk carries
//! `[monitored components × stride]` rows of the lane's linear power
//! coefficients `(P_base, P_max − P_base)` — read from the solvers when
//! the chunk is first fed and after `set_power_model`, never on an
//! ordinary repriced gather — and of pending utilizations, beside
//! `[components × stride]` rows of the per-sub-step heat `q`. Pricing
//! computes `q = (P_base + u·(P_max − P_base))·dt_sub` with the function
//! `PowerModel::power` itself calls, stores `q` and `q·inv_capacity`,
//! and remembers `u`; the lane's generated heat is re-summed from the
//! `q` rows by the next [`Chunk::tick`], and [`BatchSet::finish_span`]
//! hands each remembered utilization to its member solver *with* its
//! `q` — the bits the solver would price — so the next gather reprices
//! nothing. A cell with no linear coefficients (a `Table` or `Constant`
//! model, a component the group's representative does not monitor) is
//! priced by its solver instead and only the resulting heat is written
//! ([`BatchSet::write_lane_heat`]) — decided per cell, from the rows.
//!
//! One cell at a time, [`BatchSet::price_lane`] prices a write. A whole
//! input frame (`super::InputFrame`, how `.events` replay feeds) is
//! routed once per call instead — [`BatchSet::route_frame`] maps each
//! chunk's `[monitored × stride]` rows to frame indices and lists the
//! cells the lanes cannot price — and [`BatchSet::price_frame`] prices
//! every routed cell chunk by chunk, row by row, reading its value
//! straight from the feed. The routing is per call because the plan,
//! and with it every cell's lane, may change between calls.
//!
//! ## The room's air mix inside a span
//!
//! Inlet and exhaust rows are structural, like `fixed`, so the group's
//! operator lists them and the room mixes chunk by chunk, not machine
//! by machine: [`BatchSet::record_exhausts`] sums every lane's exhaust
//! rows in one row pass per exhaust before a fused tick sweeps,
//! [`BatchSet::exhaust_means`] turns the sums into the per-machine
//! observations the mixing plan reads, and [`BatchSet::write_inlets`]
//! writes mixed inlets into both buffers' inlet rows. Each chunk
//! carries its lanes' inlet field too: gathered only in a group without
//! exhaust regions (it is what such a machine shows the room), and
//! handed back at [`BatchSet::finish_span`] only for lanes the mix
//! wrote. Every call mixes every sink on its first tick, a one-tick
//! `step()` included; which sinks it mixes after that is the mixing
//! plan's call (`super::kernel::MixGraph`).

use super::aligned::{AlignedVec, MATRIX_ALIGN};
use super::kernel::{Column, StepKernel, TickPattern};
use super::machine::{Solver, SpanClock};
use super::simd::{self, SimdBackend, Sweep, LANE_PAD};
use crate::units::Celsius;
use std::collections::HashMap;
use std::sync::Arc;

/// Maximum machines (f64 lanes) per batch chunk. 32 lanes keep one
/// chunk's three `[nodes × lanes]` matrices a few KiB — cache-resident —
/// while amortizing the per-node operator walk over a long vectorizable
/// inner loop. Chunk width is a constant of the layout, not a tuning
/// knob: trajectories must not depend on how machines are chunked.
pub(crate) const CHUNK_LANES: usize = 32;

/// Below this many same-class machines, batching is not worth the
/// per-tick gather/scatter: the machine stays on the per-machine path.
const MIN_GROUP: usize = 2;

/// What machines must have in common to step in one group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GroupKey {
    fingerprint: u64,
    /// `None` for undiverged machines (one shared operator); the
    /// compiled sub-step count for diverged ones (per-lane weights).
    per_lane_substeps: Option<usize>,
}

/// One machine's entry in the plan signature: its group key plus, for a
/// diverged machine, the rebuild epoch the plan last saw — so a rebuilt
/// kernel forces the replan that refreshes its weight column. `None`
/// for machines that may not batch.
type Signature = Option<(GroupKey, u64)>;

fn signature_of(machine: &mut Solver) -> Signature {
    if !machine.batch_eligible() {
        return None;
    }
    let (per_lane_substeps, epoch) = if machine.diverged() {
        // Reading the sub-step count compiles a pending rebuild — the
        // one `fill_tick_inputs` would run later this tick.
        let substeps = machine.compiled_kernel().substeps();
        (Some(substeps), machine.rebuild_epoch())
    } else {
        (None, 0)
    };
    let key = GroupKey {
        fingerprint: machine.fingerprint(),
        per_lane_substeps,
    };
    Some((key, epoch))
}

/// One group's shared, read-only operator: a detached copy of the
/// representative machine's kernel ([`StepKernel::detached`]) — the
/// structure every member is matched against, and in a shared-operator
/// group the composed weights every lane runs — and the patterns of `M`
/// and `B` for the group's boundary mask (inlet nodes; eligible machines
/// have no force-pinned nodes, so the mask is structural and identical
/// across the group) and sub-step count. A per-lane group's weights live
/// in its chunks' lanes.
///
/// The copy is the group's own rather than the machine type's `Arc`s:
/// the type is compiled when its room is built, and a group that held
/// it would keep it alive until the plan drops, after the machines —
/// which, with a caller that keeps a little memory from every room it
/// builds (as `bench-e2e` keeps each pass's metric handles), fragments
/// the heap: `replay_steady`'s peak RSS read ≈40 % higher that way.
#[derive(Debug)]
struct SharedOp {
    n: usize,
    substeps: usize,
    kernel: StepKernel,
    pattern: Arc<TickPattern>,
    per_lane: bool,
    /// `[nodes × CHUNK_LANES]` zeros: the self weights and power rows
    /// of the sweep that computes a chunk's drive.
    zeros: Vec<f64>,
    /// Seconds per sub-step: what generated heat is priced against.
    dt_sub: f64,
    /// Component node indices in node order (structural, so shared)
    /// and each node's row in the chunks' `[components × stride]` heat
    /// matrix ([`NO_ROW`] for air regions).
    components: Vec<usize>,
    component_row: Vec<u32>,
    /// The components the representative monitors — the ones a feed may
    /// set — and each node's row in the `[monitored × stride]` pricing
    /// matrices. Monitoring is not part of the fingerprint; a lane that
    /// monitors something else is priced by its solver.
    monitored: Vec<usize>,
    monitored_row: Vec<u32>,
    /// Inlet rows (the `fixed` ones: eligible machines carry no pins)
    /// and exhaust rows, in node order — structural, so shared.
    inlets: Vec<usize>,
    exhausts: Vec<usize>,
    /// Lane-sweep backend, stamped from the owning [`BatchSet`] so
    /// `(op, chunk)` carries everything a chunk's tick needs.
    backend: SimdBackend,
}

impl SharedOp {
    fn from_representative(solver: &mut Solver, per_lane: bool, backend: SimdBackend) -> Self {
        let fixed = solver.tick_inputs().0.to_vec();
        // Eligible machines carry no pins: the fixed rows are the inlets.
        let inlets: Vec<usize> = (0..fixed.len()).filter(|&i| fixed[i]).collect();
        let exhausts = solver.exhaust_nodes();
        let components = solver.component_nodes().to_vec();
        let monitored: Vec<usize> = components
            .iter()
            .copied()
            .filter(|&i| solver.is_monitored_at(i))
            .collect();
        let mut kernel = solver.compiled_kernel().detached();
        let pattern = if per_lane {
            kernel.pattern_for(&fixed)
        } else {
            kernel.compose(&fixed);
            kernel.composed_pattern()
        };
        let n = kernel.structure().n();
        let rows = |nodes: &[usize]| {
            let mut row_of = vec![NO_ROW; n];
            for (row, &i) in nodes.iter().enumerate() {
                row_of[i] = row as u32;
            }
            row_of
        };
        SharedOp {
            n,
            substeps: kernel.substeps(),
            dt_sub: kernel.dt_sub().0,
            kernel,
            pattern,
            per_lane,
            zeros: vec![0.0; n * CHUNK_LANES],
            component_row: rows(&components),
            components,
            monitored_row: rows(&monitored),
            monitored,
            inlets,
            exhausts,
            backend,
        }
    }

    /// Whether a machine's compiled kernel steps on this group's
    /// operator: the same structure and sub-step length bitwise and,
    /// unless each lane carries its own, the same weights. Class-equal
    /// machines compile to matching operators by construction; this
    /// check makes a 64-bit fingerprint collision harmless instead of
    /// silently wrong.
    fn matches(&self, kernel: &StepKernel) -> bool {
        self.kernel.structure().same_as(kernel.structure())
            && self.substeps == kernel.substeps()
            && self.dt_sub.to_bits() == kernel.dt_sub().0.to_bits()
            && (self.per_lane || {
                let ((w, self_w), (kw, k_self_w)) = (self.kernel.op_weights(), kernel.op_weights());
                bits_eq(w, kw) && bits_eq(self_w, k_self_w)
            })
    }

    /// The group's boundary mask.
    fn fixed(&self) -> &[bool] {
        &self.pattern.fixed
    }
}

/// A node with no row in a `[components × stride]` or
/// `[monitored × stride]` matrix.
const NO_ROW: u32 = u32::MAX;

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One monitored component on one lane, as the chunk prices it.
#[derive(Debug, Clone, Copy)]
struct PricedCell {
    /// Linear power coefficients `P_base` and `P_max − P_base`; NaN
    /// where the member solver has to price the cell.
    base: f64,
    span: f64,
    /// A utilization priced in the lane and not yet handed to the
    /// member solver; NaN when there is none.
    pending: f64,
}

impl PricedCell {
    const SOLVER_PRICED: PricedCell = PricedCell {
        base: f64::NAN,
        span: f64::NAN,
        pending: f64::NAN,
    };

    /// Remembers `u` and returns its per-sub-step heat `q` — the one
    /// expression every in-lane write prices with.
    fn price(&mut self, u: f64, dt_sub: f64) -> f64 {
        self.pending = u;
        crate::physics::linear_power(self.base, self.span, u) * dt_sub
    }
}

/// Reads one lane's linear power coefficients from its solver into the
/// `[monitored × stride]` matrix `priced`, column `l`.
fn load_coefficients(
    priced: &mut [PricedCell],
    stride: usize,
    l: usize,
    op: &SharedOp,
    solver: &Solver,
) {
    for (row, &i) in op.monitored.iter().enumerate() {
        let cell = &mut priced[row * stride + l];
        (cell.base, cell.span) = solver.lane_pricing(i).unwrap_or((f64::NAN, f64::NAN));
    }
}

// `Chunk::fed` and `Chunk::inlet_set` have one bit per lane.
const _: () = assert!(CHUNK_LANES <= u32::BITS as usize);

/// One chunk of a batch group: up to [`CHUNK_LANES`] machines stepped
/// together over node-major state matrices.
#[derive(Debug)]
struct Chunk {
    /// Cluster machine indices; lane `l` holds machine `members[l]`. A
    /// lane keeps its machine while the machine keeps its class, so the
    /// order is the plan's history, not the cluster's.
    members: Vec<usize>,
    /// Row stride of every matrix: `members.len()` rounded up to
    /// [`LANE_PAD`]. Lanes past `members.len()` are dead — never
    /// written, so zero everywhere, which the sweep maps to zero.
    stride: usize,
    /// `[nodes × stride]` temperature matrices, double-buffered and
    /// 64-byte aligned for the vector sweep. `fixed` rows are kept
    /// valid in *both* buffers (written at gather time, skipped by the
    /// sweep), so the double-buffer swap never stales them.
    cur: AlignedVec,
    next: AlignedVec,
    /// `[nodes × stride]` per-sub-step power ΔT, 64-byte aligned. Only
    /// component rows are ever written; air rows stay zero.
    power_dt: AlignedVec,
    /// `[nodes × stride]` drive `B·power_dt`, what a tick adds to the
    /// self term; recomputed by the first tick after `power_dt` or a
    /// lane's weights changed (`resum`).
    drive: AlignedVec,
    /// Per-lane composed weights: `M`'s entries `[entries × stride]`
    /// and diagonal `[nodes × stride]`, `B`'s entries
    /// `[entries × stride]` — the only copy of a lane's weights, which
    /// its machine composes straight into them; empty in a
    /// shared-operator group.
    m_w: AlignedVec,
    m_self: AlignedVec,
    b_w: AlignedVec,
    /// The rebuild epoch each lane's weight column was composed at (0 =
    /// never); empty in a shared-operator group.
    epochs: Vec<u64>,
    /// `[components × stride]` per-sub-step heat `q` of every lane's
    /// components (`power_dt` holds `q·inv_capacity`), kept so that a
    /// lane's generated heat can be re-summed after one cell changed.
    power_q: Vec<f64>,
    /// `[monitored × stride]` cells this chunk may price itself (see
    /// the module docs); empty until a feed first writes to the chunk,
    /// so a room that only ever steps per tick never carries them.
    priced: Vec<PricedCell>,
    /// Lanes (bit `l`) with a pending utilization in `priced`.
    fed: u32,
    /// `[monitored × stride]` index of the routed input frame's cell
    /// each lane row takes ([`NO_ROW`] for none), and the lanes (bit
    /// `l`) it reaches — valid while [`BatchSet::route_frame`]'s frame
    /// is routed.
    frame_rows: Vec<u32>,
    frame_lanes: u32,
    /// Per-lane heat generated over the tick (Joules), for
    /// [`Solver::finish_tick_span`] bookkeeping: `Σ q` in node order
    /// times the sub-step count, re-summed by the next [`Chunk::tick`]
    /// whenever `power_q` changed (`resum`, which also recomputes the
    /// drive) — so it always reads the heat of the last tick run, never
    /// of inputs not yet stepped.
    generated: Vec<f64>,
    resum: bool,
    /// Per-lane sum of the exhaust rows, in node order from `0.0`, as
    /// recorded by [`BatchSet::record_exhausts`] (`[stride]`).
    exhaust_sum: Vec<f64>,
    /// Per-lane inlet boundary temperature — the solver's inlet field
    /// while a fused span runs in the lanes: gathered in a group
    /// without exhaust regions (it is what such a machine shows the
    /// room), written by the room's air mix.
    inlet: Vec<f64>,
    /// Lanes (bit `l`) whose inlet the mix wrote since the last scatter.
    inlet_set: u32,
    /// Lanes (bit `l`) the next gather reads whole: every lane of a new
    /// chunk, and a lane a replan gave another machine. The
    /// others already hold their member's state from the previous tick
    /// (see the module docs for what a warm lane re-reads).
    cold: u32,
}

impl Chunk {
    /// A chunk shaped for `lanes` machines of the group `op` — for any
    /// count up to its stride — every matrix zero and every lane a
    /// [`HOLE`] for [`place`] to fill.
    fn new(op: &SharedOp, lanes: usize) -> Self {
        let stride = lanes.next_multiple_of(LANE_PAD);
        let weights = |rows: usize| AlignedVec::zeroed(if op.per_lane { rows * stride } else { 0 });
        let mut members = Vec::with_capacity(stride);
        members.resize(lanes, HOLE);
        Chunk {
            members,
            stride,
            cur: AlignedVec::zeroed(op.n * stride),
            next: AlignedVec::zeroed(op.n * stride),
            power_dt: AlignedVec::zeroed(op.n * stride),
            drive: AlignedVec::zeroed(op.n * stride),
            m_w: weights(op.pattern.m_src.len()),
            m_self: weights(op.n),
            b_w: weights(op.pattern.b_src.len()),
            epochs: vec![0; if op.per_lane { lanes } else { 0 }],
            power_q: vec![0.0; op.components.len() * stride],
            priced: Vec::new(),
            fed: 0,
            frame_rows: Vec::new(),
            frame_lanes: 0,
            generated: vec![0.0; lanes],
            resum: true,
            exhaust_sum: vec![0.0; stride],
            inlet: vec![0.0; lanes],
            inlet_set: 0,
            cold: 0,
        }
    }

    /// Resizes the live lanes to `lanes` (same stride): lanes past it
    /// are zeroed, new ones are holes.
    fn resize_lanes(&mut self, lanes: usize, op: &SharedOp) {
        debug_assert_eq!(lanes.next_multiple_of(LANE_PAD), self.stride);
        for l in lanes..self.members.len() {
            self.zero_lane(l);
        }
        self.members.resize(lanes, HOLE);
        self.epochs.resize(if op.per_lane { lanes } else { 0 }, 0);
        self.generated.resize(lanes, 0.0);
        self.inlet.resize(lanes, 0.0);
        self.frame_lanes = 0;
    }

    /// Gives hole `l` to machine `m`, whose weight column (in a per-lane
    /// group) is `column` as of rebuild epoch `epoch` — 0 and empty for a
    /// machine that brings none, which [`Chunk::refresh_weights`] then
    /// composes. The lane's state is gathered whole by the next gather.
    fn fill(&mut self, l: usize, m: usize, epoch: u64, column: &[f64]) {
        debug_assert_eq!(self.members[l], HOLE);
        self.members[l] = m;
        self.cold |= 1 << l;
        if let Some(lane_epoch) = self.epochs.get_mut(l) {
            *lane_epoch = epoch;
            if epoch != 0 {
                let stride = self.stride;
                let mut column = column.iter();
                for matrix in [&mut self.m_w, &mut self.m_self, &mut self.b_w] {
                    for (w, &x) in matrix.iter_mut().skip(l).step_by(stride).zip(&mut column) {
                        *w = x;
                    }
                }
            }
        }
    }

    /// Appends lane `l`'s weight column — `M`'s entries, its diagonal,
    /// `B`'s entries — to `out`, for [`Chunk::fill`] to move elsewhere.
    fn read_column(&self, l: usize, out: &mut Vec<f64>) {
        for matrix in [&self.m_w, &self.m_self, &self.b_w] {
            out.extend(matrix.iter().skip(l).step_by(self.stride));
        }
    }

    /// Zeroes lane `l` in every matrix: a lane past the live ones is
    /// dead, and dead lanes are zero.
    fn zero_lane(&mut self, l: usize) {
        let stride = self.stride;
        for matrix in [
            &mut self.cur,
            &mut self.next,
            &mut self.power_dt,
            &mut self.drive,
            &mut self.m_w,
            &mut self.m_self,
            &mut self.b_w,
        ] {
            matrix
                .iter_mut()
                .skip(l)
                .step_by(stride)
                .for_each(|x| *x = 0.0);
        }
        self.power_q
            .iter_mut()
            .skip(l)
            .step_by(stride)
            .for_each(|q| *q = 0.0);
        let priced = self.priced.iter_mut().skip(l).step_by(stride);
        priced.for_each(|cell| *cell = PricedCell::SOLVER_PRICED);
    }

    /// Composes the weights of every lane whose machine was rebuilt
    /// since its column was composed, or that brought no column, straight
    /// into the lane. The plan verified each such member against the
    /// group's operator.
    fn refresh_weights(&mut self, op: &SharedOp, machines: &mut [Solver]) {
        for l in 0..self.epochs.len() {
            let solver = &mut machines[self.members[l]];
            if self.epochs[l] == solver.rebuild_epoch() {
                continue;
            }
            debug_assert!(
                op.matches(solver.compiled_kernel()),
                "members are verified when they join or are rebuilt"
            );
            let column = Column {
                m_w: &mut self.m_w,
                m_self: &mut self.m_self,
                b_w: &mut self.b_w,
                stride: self.stride,
                lane: l,
            };
            solver.compose_lane(&op.pattern, column);
            self.epochs[l] = solver.rebuild_epoch();
            self.resum = true;
        }
    }

    /// Sets the per-sub-step heat of component `node` on lane `l`.
    fn set_heat(&mut self, op: &SharedOp, node: usize, l: usize, q: f64) {
        let row = op.component_row[node];
        debug_assert_ne!(row, NO_ROW, "only components generate heat");
        self.power_q[row as usize * self.stride + l] = q;
        self.power_dt[node * self.stride + l] = q * op.kernel.structure().inv_capacity()[node];
        self.resum = true;
    }

    /// Allocates the pricing cells and reads every lane's coefficients
    /// the first time the chunk is fed.
    fn ensure_priced(&mut self, op: &SharedOp, machines: &[Solver]) {
        if self.priced.is_empty() {
            let cells = op.monitored.len() * self.stride;
            self.priced.resize(cells, PricedCell::SOLVER_PRICED);
            for (l, &m) in self.members.iter().enumerate() {
                load_coefficients(&mut self.priced, self.stride, l, op, &machines[m]);
            }
        }
    }

    /// Prices the routed frame's cells of this chunk, row by row:
    /// `value(k)` is frame cell `k`'s utilization.
    fn price_frame(&mut self, op: &SharedOp, value: &impl Fn(usize) -> f64) {
        let stride = self.stride;
        let lanes = self.members.len();
        for (row, &node) in op.monitored.iter().enumerate() {
            let cells = row * stride..row * stride + lanes;
            let q_row = op.component_row[node] as usize * stride;
            let dt_row = node * stride;
            let inv_capacity = op.kernel.structure().inv_capacity()[node];
            let routed = self.frame_rows[cells.clone()].iter();
            for (l, (&k, cell)) in routed.zip(&mut self.priced[cells]).enumerate() {
                if k == NO_ROW {
                    continue;
                }
                let q = cell.price(value(k as usize), op.dt_sub);
                self.power_q[q_row + l] = q;
                self.power_dt[dt_row + l] = q * inv_capacity;
            }
        }
        self.fed |= self.frame_lanes;
        self.resum = true;
    }

    /// Advances every lane by one tick: one sweep of the composed tick.
    /// Pure compute on chunk-owned state plus the shared read-only
    /// operator — safe to run concurrently with other chunks.
    ///
    /// Per lane this is the scalar kernel's exact sequence — after a
    /// power change the drive `0 + Σ b·ΔT_power` in `B`'s entry order,
    /// then `t = m_self·T_i + drive`, then `+= w_j·T_src(j)` in `M`'s
    /// entry order — run as row sweeps by `super::simd` on the
    /// operator's stamped backend (the drive as a sweep whose self term
    /// and power rows are zero). Lanes are independent, so the sweep
    /// reorders nothing within a lane and every backend is bit-identical
    /// to the scalar kernel. `fixed` rows are already valid in both
    /// buffers (see [`BatchSet::begin_tick`]) and are skipped outright.
    fn tick(&mut self, op: &SharedOp) {
        debug_assert_eq!(self.cur.as_ptr() as usize % MATRIX_ALIGN, 0);
        debug_assert_eq!(self.next.as_ptr() as usize % MATRIX_ALIGN, 0);
        debug_assert_eq!(self.drive.as_ptr() as usize % MATRIX_ALIGN, 0);
        let (m_w, m_self, b_w): (&[f64], &[f64], &[f64]) = if op.per_lane {
            (&self.m_w, &self.m_self, &self.b_w)
        } else {
            let tick = op.kernel.composed_op();
            (tick.m_w, tick.m_self, tick.b_w)
        };
        if std::mem::take(&mut self.resum) {
            // Per lane `0.0 + q₀ + q₁ + …` in node order: the scalar
            // kernel's exact `generated` bookkeeping, less its additions
            // of the air nodes' +0.0.
            self.generated.fill(0.0);
            for row in self.power_q.chunks_exact(self.stride) {
                for (sum, q) in self.generated.iter_mut().zip(row) {
                    *sum += q;
                }
            }
            for sum in &mut self.generated {
                *sum *= op.substeps as f64;
            }
            simd::substep(
                op.backend,
                Sweep {
                    n: op.n,
                    lanes: self.stride,
                    op_off: &op.pattern.b_off,
                    op_src: &op.pattern.b_src,
                    op_w: b_w,
                    self_w: &op.zeros,
                    lane_w: op.per_lane,
                    fixed: op.fixed(),
                    power_dt: &op.zeros,
                    cur: &self.power_dt,
                    next: &mut self.drive,
                },
            );
        }
        simd::substep(
            op.backend,
            Sweep {
                n: op.n,
                lanes: self.stride,
                op_off: &op.pattern.m_off,
                op_src: &op.pattern.m_src,
                op_w: m_w,
                self_w: m_self,
                lane_w: op.per_lane,
                fixed: op.fixed(),
                power_dt: &self.drive,
                cur: &self.cur,
                next: &mut self.next,
            },
        );
        std::mem::swap(&mut self.cur, &mut self.next);
    }
}

/// A machine's `(group, chunk, lane)` coordinates under the current
/// plan (see [`BatchSet::lane`]).
pub(crate) type Lane = (u32, u32, u32);

/// One group: the shared operator plus its member chunks.
#[derive(Debug)]
struct Group {
    key: GroupKey,
    /// The machines of every chunk, in cluster order.
    members: Vec<usize>,
    op: SharedOp,
    chunks: Vec<Chunk>,
}

/// One class of a replan: its key, its eligible machines in cluster
/// order, and the previous plan's group of that key, if any.
#[derive(Debug)]
struct Bucket {
    key: GroupKey,
    members: Vec<usize>,
    old: Option<usize>,
}

/// The working memory of [`BatchSet::plan`], kept between replans so
/// that a warm one which only moves machines between existing classes
/// allocates nothing.
#[derive(Debug, Default)]
struct PlanScratch {
    /// The classes, in first-seen machine order: `buckets[..used]` are
    /// this replan's, found by key through `bucket_of`.
    buckets: Vec<Bucket>,
    bucket_of: HashMap<GroupKey, u32>,
    /// Per machine: whether its signature moved at this replan, then,
    /// for the demotion count, whether the new plan batches it.
    mark: Vec<bool>,
    /// The previous plan's groups, each taken by the class that keeps
    /// it.
    old: Vec<Option<Group>>,
    place: PlaceScratch,
}

/// A lane [`place`] has yet to fill.
const HOLE: usize = usize::MAX;

/// The working memory of [`place`].
#[derive(Debug, Default)]
struct PlaceScratch {
    /// Per machine: in the class being placed, and not yet met in a
    /// lane of the group's chunks.
    unplaced: Vec<bool>,
    /// The class's machines that lose their lane, each with the rebuild
    /// epoch of its weight column, and (in a per-lane group) the
    /// columns, concatenated in the same order.
    movers: Vec<(usize, u64)>,
    columns: Vec<f64>,
}

/// Lays the class `members` (cluster order) out over the chunks of its
/// group — the previous plan's, or none — keeping every lane that can
/// keep its machine. Chunk counts and sizes follow the class size as
/// they always have: `⌈members / CHUNK_LANES⌉` chunks, all full but the
/// last. A chunk keeps its buffers while its stride holds, and its
/// machines' lanes wherever they still fit; a machine that left the
/// class leaves a hole. The machines that no longer fit — a chunk
/// dropped or reshaped, a lane past its chunk's new size — move to the
/// holes, each taking its weight column with it, and the machines new to
/// the class take the holes left: only they, and rebuilt members,
/// compose ([`Chunk::refresh_weights`]). Which lane a machine lands in
/// never touches its bits, so this only saves work.
fn place(op: &SharedOp, chunks: &mut Vec<Chunk>, members: &[usize], s: &mut PlaceScratch) {
    let total = members.len();
    let count = total.div_ceil(CHUNK_LANES);
    let size = |c: usize| (total - c * CHUNK_LANES).min(CHUNK_LANES);
    let stride = |c: usize| size(c).next_multiple_of(LANE_PAD);
    for &m in members {
        s.unplaced[m] = true;
    }
    s.movers.clear();
    s.columns.clear();
    for (c, chunk) in chunks.iter_mut().enumerate() {
        let kept = c < count && chunk.stride == stride(c);
        for l in 0..chunk.members.len() {
            let m = chunk.members[l];
            debug_assert_ne!(m, HOLE, "a plan fills every lane");
            if !std::mem::take(&mut s.unplaced[m]) {
                // Left the class.
                chunk.members[l] = HOLE;
            } else if !(kept && l < size(c)) {
                s.movers
                    .push((m, chunk.epochs.get(l).copied().unwrap_or(0)));
                chunk.read_column(l, &mut s.columns);
                chunk.members[l] = HOLE;
            }
        }
    }
    chunks.truncate(count);
    for c in 0..count {
        if c == chunks.len() {
            chunks.push(Chunk::new(op, size(c)));
        } else if chunks[c].stride != stride(c) {
            chunks[c] = Chunk::new(op, size(c));
        } else {
            chunks[c].resize_lanes(size(c), op);
        }
    }
    let width = s.columns.len() / s.movers.len().max(1);
    let (mut mover, mut newcomer) = (0, 0);
    for chunk in chunks.iter_mut() {
        for l in 0..chunk.members.len() {
            if chunk.members[l] != HOLE {
                continue;
            }
            if let Some(&(m, epoch)) = s.movers.get(mover) {
                chunk.fill(l, m, epoch, &s.columns[mover * width..(mover + 1) * width]);
                mover += 1;
            } else {
                while !s.unplaced[members[newcomer]] {
                    newcomer += 1;
                }
                let m = members[newcomer];
                s.unplaced[m] = false;
                chunk.fill(l, m, 0, &[]);
            }
        }
    }
    debug_assert!(
        members.iter().all(|&m| !s.unplaced[m]),
        "every member placed"
    );
}

/// The cluster's batch plan: which machines step together, and the
/// matrices they step in. Owned by `ClusterSolver`; replanned only when
/// the signature changes (a machine diverges or is re-fiddled, a pin
/// appears/disappears, or batching is toggled), and then by recycling
/// the groups it keeps (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct BatchSet {
    groups: Vec<Group>,
    /// Machine `m`'s lane under the current plan, `None` for a machine on
    /// the per-machine path — and those machines, in cluster order. Both
    /// are rebuilt only when the plan is, so a tick reads them without
    /// building them.
    lanes: Vec<Option<Lane>>,
    solos: Vec<usize>,
    /// The per-machine signature the current plan was built from,
    /// compared (and updated) in place every tick; empty until the
    /// first plan.
    signature: Vec<Signature>,
    /// Lane-sweep backend for every chunk tick. Defaults to
    /// [`SimdBackend::detect`]; bit-identical across backends.
    backend: SimdBackend,
    /// The id of the input frame the chunks' `frame_rows` route, and the
    /// frame cells the lanes cannot price (see [`BatchSet::route_frame`]).
    frame: Option<u64>,
    frame_fallback: Vec<u32>,
    scratch: PlanScratch,
}

impl BatchSet {
    pub(crate) fn new(n_machines: usize) -> Self {
        BatchSet {
            groups: Vec::new(),
            lanes: vec![None; n_machines],
            solos: (0..n_machines).collect(),
            signature: Vec::new(),
            backend: SimdBackend::detect(),
            frame: None,
            frame_fallback: Vec::new(),
            scratch: PlanScratch::default(),
        }
    }

    /// The lane-sweep backend chunk ticks run on.
    pub(crate) fn backend(&self) -> SimdBackend {
        self.backend
    }

    /// Switches the lane-sweep backend, restamping existing group
    /// operators so the change takes effect on the next tick. Callers
    /// must pass a [`SimdBackend::supported`] backend.
    pub(crate) fn set_backend(&mut self, backend: SimdBackend) {
        debug_assert!(backend.supported());
        self.backend = backend;
        for group in &mut self.groups {
            group.op.backend = backend;
        }
    }

    /// Machine `m`'s `(group, chunk, lane)` under the current plan, or
    /// `None` when it steps on the per-machine path.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub(crate) fn lane(&self, m: usize) -> Option<Lane> {
        self.lanes[m]
    }

    /// The machines on the per-machine path, in cluster order.
    pub(crate) fn solos(&self) -> &[usize] {
        &self.solos
    }

    /// Number of machines currently stepped on the batched path.
    pub(crate) fn batched_machines(&self) -> usize {
        self.groups.iter().map(|g| g.members.len()).sum()
    }

    /// Drops the plan; every machine steps per-machine until `plan` runs
    /// again.
    pub(crate) fn clear(&mut self) {
        self.groups.clear();
        self.signature.clear();
        self.scratch = PlanScratch::default();
        self.index_lanes(self.lanes.len());
    }

    /// Rebuilds the lane map and the solo list from the groups.
    fn index_lanes(&mut self, n_machines: usize) {
        self.lanes.clear();
        self.lanes.resize(n_machines, None);
        for (g, group) in self.groups.iter().enumerate() {
            for (c, chunk) in group.chunks.iter().enumerate() {
                for (l, &m) in chunk.members.iter().enumerate() {
                    self.lanes[m] = Some((g as u32, c as u32, l as u32));
                }
            }
        }
        self.solos.clear();
        self.solos
            .extend((0..n_machines).filter(|&m| self.lanes[m].is_none()));
    }

    /// (Re)partitions the cluster into batch groups. Cheap when nothing
    /// changed: one pass comparing each machine's signature with the
    /// stored one, in place, allocating nothing.
    ///
    /// Returns `None` when the existing plan still stands, or
    /// `Some(demotions)` after a replan — the number of machines that
    /// were on the batched path before and are not any more (grew a
    /// pin, or their class shrank below [`MIN_GROUP`]). The cluster
    /// feeds this into its telemetry.
    ///
    /// A replan recycles rather than rebuilds: a class whose key the
    /// previous plan had keeps that group's operator and chunks, and
    /// verifies only the members new to it or rebuilt since; each
    /// machine that stays in its class keeps its lane and weight column
    /// ([`place`]).
    pub(crate) fn plan(&mut self, machines: &mut [Solver]) -> Option<u64> {
        let s = &mut self.scratch;
        let mut changed = self.signature.len() != machines.len();
        self.signature.resize(machines.len(), None);
        s.mark.clear();
        s.mark.resize(machines.len(), false);
        s.place.unplaced.resize(machines.len(), false);
        let signatures = self.signature.iter_mut().zip(machines.iter_mut());
        for ((seen, machine), moved) in signatures.zip(&mut s.mark) {
            let now = signature_of(machine);
            if *seen != now {
                *seen = now;
                *moved = true;
                changed = true;
            }
        }
        if !changed {
            return None;
        }

        // Bucket eligible machines by key, in first-seen order so the
        // plan is deterministic in machine order; a run of machines of
        // one key looks its bucket up once.
        s.bucket_of.clear();
        let mut used = 0;
        let mut last = None;
        for (m, signature) in self.signature.iter().enumerate() {
            let Some((key, _)) = *signature else {
                continue;
            };
            let b = match last {
                Some((seen, b)) if seen == key => b,
                _ => *s.bucket_of.entry(key).or_insert_with(|| {
                    if s.buckets.len() == used {
                        s.buckets.push(Bucket {
                            key,
                            members: Vec::new(),
                            old: None,
                        });
                    }
                    let bucket = &mut s.buckets[used];
                    (bucket.key, bucket.old) = (key, None);
                    bucket.members.clear();
                    used += 1;
                    (used - 1) as u32
                }) as usize,
            };
            last = Some((key, b));
            s.buckets[b].members.push(m);
        }
        for (g, group) in self.groups.iter().enumerate() {
            if let Some(&b) = s.bucket_of.get(&group.key) {
                s.buckets[b as usize].old = Some(g);
            }
        }
        s.old.clear();
        s.old.extend(self.groups.drain(..).map(Some));

        for bucket in &mut s.buckets[..used] {
            if bucket.members.len() < MIN_GROUP {
                continue;
            }
            // A member the kept group already verified at its current
            // signature: batched before (so in the one group of its
            // key, which `lanes` still maps) and not moved since.
            let known = |m: usize| self.lanes[m].is_some() && !s.mark[m];
            let old = bucket.old.and_then(|g| s.old[g].take());
            let (op, mut chunks, mut members) = match old {
                Some(group) => (group.op, group.chunks, group.members),
                None => {
                    let representative = &mut machines[bucket.members[0]];
                    let per_lane = bucket.key.per_lane_substeps.is_some();
                    let op = SharedOp::from_representative(representative, per_lane, self.backend);
                    (op, Vec::new(), Vec::new())
                }
            };
            // Class-equal machines compile to matching operators by
            // construction; the check makes a 64-bit fingerprint
            // collision demote the odd one out instead of stepping it
            // wrong.
            bucket.members.retain(|&m| {
                known(m) || {
                    let same = op.matches(machines[m].compiled_kernel());
                    debug_assert!(same, "fingerprint collision between machines");
                    same
                }
            });
            if bucket.members.len() < MIN_GROUP {
                continue;
            }
            place(&op, &mut chunks, &bucket.members, &mut s.place);
            for chunk in &mut chunks {
                chunk.refresh_weights(&op, machines);
            }
            // The group takes the bucket's list; the bucket keeps the
            // old one's allocation for the next replan.
            std::mem::swap(&mut members, &mut bucket.members);
            self.groups.push(Group {
                key: bucket.key,
                members,
                op,
                chunks,
            });
        }
        s.old.clear();
        s.mark.fill(false);
        for group in &self.groups {
            group.members.iter().for_each(|&m| s.mark[m] = true);
        }
        let demoted = |m: usize| self.lanes[m].is_some() && !s.mark[m];
        let demotions = (0..machines.len()).filter(|&m| demoted(m)).count() as u64;
        self.index_lanes(machines.len());
        Some(demotions)
    }

    /// Chunks in the current plan.
    pub(crate) fn chunk_count(&self) -> usize {
        self.groups.iter().map(|g| g.chunks.len()).sum()
    }

    /// Occupied lanes per chunk, in plan order — observed into the
    /// occupancy histogram at plan time.
    pub(crate) fn chunk_lanes(&self) -> impl Iterator<Item = usize> + '_ {
        self.groups
            .iter()
            .flat_map(|g| g.chunks.iter().map(|c| c.members.len()))
    }

    /// Explicit-Euler sub-steps one batched tick represents across all
    /// member machines (Σ group members × group sub-steps; the sweep
    /// runs once, on their composition). Lets the
    /// cluster book tick/sub-step counters in bulk — a handful of adds
    /// per tick — instead of per lane.
    pub(crate) fn planned_substeps(&self) -> u64 {
        self.groups
            .iter()
            .map(|g| (g.members.len() * g.op.substeps) as u64)
            .sum()
    }

    /// Tick preamble for every batched machine: runs the identical
    /// per-machine input pricing ([`Solver::fill_tick_inputs`]), then
    /// brings the chunk matrices up to date with whatever changed in
    /// the solver since the last tick (everything, for a cold chunk).
    pub(crate) fn begin_tick(&mut self, machines: &mut [Solver]) {
        for group in &mut self.groups {
            let op = &group.op;
            for chunk in &mut group.chunks {
                let stride = chunk.stride;
                for (l, &m) in chunk.members.iter().enumerate() {
                    let solver = &mut machines[m];
                    let cold = chunk.cold & (1 << l) != 0;
                    let repriced = solver.fill_tick_inputs();
                    let rewritten = solver.take_temps_dirty();
                    let remodelled = solver.take_power_models_dirty();
                    let (fixed, power_q) = solver.tick_inputs();
                    debug_assert_eq!(op.fixed(), fixed, "boundary mask diverged within group");
                    debug_assert_eq!(op.components, solver.component_nodes());
                    let temps = solver.temps();
                    if cold || rewritten {
                        for (i, t) in temps.iter().enumerate() {
                            chunk.cur[i * stride + l] = t.0;
                        }
                    }
                    // Boundary rows change outside the chunk every tick
                    // (the room graph rewrites the inlet). They go into
                    // *both* buffers: the sweep skips them, so each
                    // buffer must carry its own copy across the
                    // double-buffer swaps.
                    for &i in &op.inlets {
                        chunk.cur[i * stride + l] = temps[i].0;
                        chunk.next[i * stride + l] = temps[i].0;
                    }
                    if op.exhausts.is_empty() {
                        chunk.inlet[l] = solver.inlet_temperature().0;
                    }
                    if cold || repriced {
                        for (row, &i) in op.components.iter().enumerate() {
                            chunk.power_q[row * stride + l] = power_q[row];
                            chunk.power_dt[i * stride + l] =
                                power_q[row] * op.kernel.structure().inv_capacity()[i];
                        }
                        chunk.resum = true;
                    }
                    // Not on every repriced gather: a room that changes
                    // utilizations each tick through its solvers would
                    // pay for rows only a fed span reads.
                    if (cold || remodelled) && !chunk.priced.is_empty() {
                        load_coefficients(&mut chunk.priced, stride, l, op, solver);
                    }
                }
                chunk.cold = 0;
            }
        }
    }

    /// Steps every chunk serially, in plan order.
    pub(crate) fn tick_serial(&mut self) {
        for group in &mut self.groups {
            for chunk in &mut group.chunks {
                chunk.tick(&group.op);
            }
        }
    }

    /// Epilogue of a call's `span` ticks (the chunk matrices stayed hot
    /// throughout, so there is exactly one scatter to pay): scatters
    /// chunk temperatures (and any inlet field the span's mix wrote)
    /// back into each member solver, hands it the utilizations its lane
    /// priced during the span together with the heat they were priced at
    /// (so the next gather reprices nothing), and books its heat/time
    /// accounting, exactly as [`Solver::step`]'s epilogue does — the
    /// clock read off `clock`, which adds each distinct start up once.
    pub(crate) fn finish_span(
        &mut self,
        machines: &mut [Solver],
        span: usize,
        clock: &mut SpanClock,
    ) {
        for group in &mut self.groups {
            let op = &group.op;
            for chunk in &mut group.chunks {
                let stride = chunk.stride;
                for (l, &m) in chunk.members.iter().enumerate() {
                    let solver = &mut machines[m];
                    for (i, t) in solver.temps_mut().iter_mut().enumerate() {
                        t.0 = chunk.cur[i * stride + l];
                    }
                    if chunk.inlet_set & (1 << l) != 0 {
                        solver.set_inlet_field(Celsius(chunk.inlet[l]));
                    }
                    if chunk.fed & (1 << l) != 0 {
                        for (row, &i) in op.monitored.iter().enumerate() {
                            let pending = &mut chunk.priced[row * stride + l].pending;
                            let u = std::mem::replace(pending, f64::NAN);
                            if !u.is_nan() {
                                let q = chunk.power_q[op.component_row[i] as usize * stride + l];
                                solver.hand_back_priced(i, u, q);
                            }
                        }
                    }
                    solver.finish_tick_span(chunk.generated[l], span, clock);
                }
                chunk.fed = 0;
                chunk.inlet_set = 0;
            }
        }
    }

    /// Records every lane's exhaust sum from the chunk's current state:
    /// per lane `0.0 + T_e₀ + T_e₁ + …` over the exhaust rows in node
    /// order — the additions the cluster's scalar `exhaust_temperature`
    /// makes on a solver's scattered temperatures — as one row pass per
    /// exhaust. Called before a fused tick sweeps, so after the span the
    /// sums are those the span's last tick mixed from.
    pub(crate) fn record_exhausts(&mut self) {
        for group in &mut self.groups {
            for chunk in &mut group.chunks {
                let stride = chunk.stride;
                chunk.exhaust_sum.fill(0.0);
                for &i in &group.op.exhausts {
                    let row = &chunk.cur[i * stride..(i + 1) * stride];
                    for (sum, &t) in chunk.exhaust_sum.iter_mut().zip(row) {
                        *sum += t;
                    }
                }
            }
        }
    }

    /// Writes each batched machine's exhaust observation at the last
    /// [`BatchSet::record_exhausts`] into `out[m]`: the mean of its
    /// exhaust regions, or its inlet temperature if it has none — as
    /// the scalar `exhaust_temperature` reads it off a solver.
    pub(crate) fn exhaust_means(&self, out: &mut [Celsius]) {
        for group in &self.groups {
            let exhausts = group.op.exhausts.len();
            for chunk in &group.chunks {
                for (l, &m) in chunk.members.iter().enumerate() {
                    out[m] = Celsius(if exhausts == 0 {
                        chunk.inlet[l]
                    } else {
                        chunk.exhaust_sum[l] / exhausts as f64
                    });
                }
            }
        }
    }

    /// Sets the inlet boundary of every batched machine `m` for which
    /// `inlet(m)` is `Some` — the fused span's equivalent of
    /// `set_inlet_temperature` on the scattered solver. Inlet rows are
    /// `fixed`, which the sweep skips rather than copies, so the value
    /// goes into both buffers to survive the double-buffer swaps; the
    /// field reaches the solver at [`BatchSet::finish_span`].
    pub(crate) fn write_inlets(&mut self, mut inlet: impl FnMut(usize) -> Option<Celsius>) {
        for group in &mut self.groups {
            for chunk in &mut group.chunks {
                let stride = chunk.stride;
                for (l, &m) in chunk.members.iter().enumerate() {
                    let Some(t) = inlet(m) else {
                        continue;
                    };
                    chunk.inlet[l] = t.0;
                    chunk.inlet_set |= 1 << l;
                    for &i in &group.op.inlets {
                        chunk.cur[i * stride + l] = t.0;
                        chunk.next[i * stride + l] = t.0;
                    }
                }
            }
        }
    }

    /// One node's current temperature on a chunk lane, for per-tick
    /// probe recording inside a fused span.
    pub(crate) fn lane_value(&self, g: u32, c: u32, l: u32, node: usize) -> f64 {
        let chunk = &self.groups[g as usize].chunks[c as usize];
        chunk.cur[node * chunk.stride + l as usize]
    }

    /// Prices utilization `u` of component `node` on a chunk lane, in
    /// place (see the module docs); `machines` is the room, read only
    /// the first time a chunk is fed, for its lanes' coefficients.
    /// Returns `false`, having written nothing, when the lane has no
    /// linear coefficients for the cell: the caller then prices it
    /// through the member solver and calls
    /// [`BatchSet::write_lane_heat`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub(crate) fn price_lane(
        &mut self,
        (g, c, l): Lane,
        node: usize,
        u: f64,
        machines: &[Solver],
    ) -> bool {
        let group = &mut self.groups[g as usize];
        let op = &group.op;
        let row = op.monitored_row[node];
        if row == NO_ROW {
            return false;
        }
        let (chunk, l) = (&mut group.chunks[c as usize], l as usize);
        chunk.ensure_priced(op, machines);
        let cell = &mut chunk.priced[row as usize * chunk.stride + l];
        if cell.span.is_nan() {
            return false;
        }
        let q = cell.price(u, op.dt_sub);
        chunk.fed |= 1 << l;
        chunk.set_heat(op, node, l, q);
        true
    }

    /// Forgets the routed input frame: the next
    /// [`BatchSet::route_frame`] routes afresh. A replay call opens with
    /// this, because the plan — and with it every cell's lane, and
    /// whether the lane can price it — may have changed since the last.
    pub(crate) fn unroute_frame(&mut self) {
        self.frame = None;
    }

    /// Routes input frame `id` — cell `k` is `(machine, node)` =
    /// `cells[k]` — onto the chunk rows, unless it is routed already:
    /// each cell the lanes can price gets its lane row's
    /// `frame_rows` entry, and every other cell (a solo machine, a node
    /// the group's representative does not monitor, a lane without
    /// linear coefficients for it) is listed in
    /// [`BatchSet::frame_fallback`], for the caller to set one by one.
    pub(crate) fn route_frame(&mut self, id: u64, cells: &[(u32, u32)], machines: &[Solver]) {
        if self.frame == Some(id) {
            return;
        }
        for group in &mut self.groups {
            let op = &group.op;
            for chunk in &mut group.chunks {
                chunk.ensure_priced(op, machines);
                chunk.frame_rows.clear();
                chunk.frame_rows.resize(chunk.priced.len(), NO_ROW);
                chunk.frame_lanes = 0;
            }
        }
        self.frame_fallback.clear();
        for (k, &(m, node)) in cells.iter().enumerate() {
            let in_lane = self.lanes[m as usize].filter(|&(g, c, l)| {
                let group = &mut self.groups[g as usize];
                let row = group.op.monitored_row[node as usize];
                if row == NO_ROW {
                    return false;
                }
                let chunk = &mut group.chunks[c as usize];
                let at = row as usize * chunk.stride + l as usize;
                if chunk.priced[at].span.is_nan() {
                    return false;
                }
                chunk.frame_rows[at] = k as u32;
                chunk.frame_lanes |= 1 << l;
                true
            });
            if in_lane.is_none() {
                self.frame_fallback.push(k as u32);
            }
        }
        self.frame = Some(id);
    }

    /// Prices every lane cell of the routed frame at `value(k)`, chunk by
    /// chunk and row by row — what [`BatchSet::price_lane`] does for one
    /// cell. The fallback cells are the caller's.
    pub(crate) fn price_frame(&mut self, value: impl Fn(usize) -> f64) {
        for group in &mut self.groups {
            for chunk in &mut group.chunks {
                if chunk.frame_lanes != 0 {
                    chunk.price_frame(&group.op, &value);
                }
            }
        }
    }

    /// The routed frame's cells the lanes cannot price, by frame index.
    pub(crate) fn frame_fallback(&self) -> &[u32] {
        &self.frame_fallback
    }

    /// Writes the per-sub-step heat `q` its solver priced for component
    /// `node` into a chunk lane.
    pub(crate) fn write_lane_heat(&mut self, (g, c, l): Lane, node: usize, q: f64) {
        let group = &mut self.groups[g as usize];
        group.chunks[c as usize].set_heat(&group.op, node, l as usize, q);
    }
}
