//! The cluster solver: per-machine solvers coupled by the inter-machine
//! air-flow graph.

use super::batch::BatchSet;
use super::kernel::MixGraph;
use super::machine::{finite_temperature, MachineType, Solver, SolverConfig, SpanClock};
use super::metrics::{ClusterMetrics, SolverMetrics};
use super::simd::SimdBackend;
use crate::error::Error;
use crate::model::{ClusterModel, MachineBody};
use crate::units::{Celsius, Seconds, Utilization};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use telemetry::Tracer;

/// A resolved `(machine, node)` temperature probe for
/// [`ClusterSolver::step_for_recorded`]: resolve names once, then record
/// by dense index every tick.
#[derive(Debug, Clone, Copy)]
pub struct ClusterProbe {
    machine: usize,
    node: usize,
}

/// A resolved set of `(machine, node)` input cells for
/// [`TickInputs::set_frame`] — what [`ClusterProbe`] is for outputs:
/// validated once by [`ClusterSolver::input_frame`], then set whole, as
/// one frame, on every tick that changes.
#[derive(Debug, Clone)]
pub struct InputFrame {
    /// Tells the room's per-call routing which frame it routed.
    id: u64,
    /// `(machine, node)` of cell `k`.
    cells: Vec<(u32, u32)>,
}

impl InputFrame {
    /// Cells in the frame.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the frame has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// The inputs of the tick about to run, handed to the feed of
/// [`ClusterSolver::step_for_fed`] before every tick of a span.
///
/// Inputs land at tick boundaries — the semantics `.events` replay and
/// `monitord`'s once-a-second reports already have — so a span does not
/// have to end where one changes. A replay call runs every tick in the
/// chunk lanes, its first included, so a write is priced where the lane
/// sweep reads it (`solver::batch`) and the solver gets the utilization
/// back, with its heat, when the call ends; a solo machine takes it in
/// its [`Solver`]. Either way the room ends up exactly where
/// `machine_at_mut(m).set_utilization_at(node, u)` before a
/// [`ClusterSolver::step`] would have left it.
#[derive(Debug)]
pub struct TickInputs<'a> {
    machines: &'a mut [Solver],
    /// The chunk matrices, and each machine's lane in them.
    batch: &'a mut BatchSet,
    time: Seconds,
    changed: bool,
}

impl TickInputs<'_> {
    /// Number of machines in the room.
    pub fn machines(&self) -> usize {
        self.machines.len()
    }

    /// Emulated time at the start of the tick these inputs are for.
    pub fn time(&self) -> Seconds {
        self.time
    }

    /// Sets the utilization of the monitored component `node` (from
    /// [`Solver::node_index`]) of machine `machine` (cluster index),
    /// from this tick on.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when the node is not a monitored
    /// component, like [`Solver::set_utilization_at`].
    ///
    /// # Panics
    ///
    /// Panics if `machine` or `node` is out of range.
    pub fn set_utilization_at(
        &mut self,
        machine: usize,
        node: usize,
        utilization: impl Into<Utilization>,
    ) -> Result<(), Error> {
        let u: Utilization = utilization.into();
        self.changed = true;
        let Some(lane) = self.batch.lane(machine) else {
            // A solo machine: its solver reprices before it next ticks.
            return self.machines[machine].set_utilization_at(node, u);
        };
        if !self
            .batch
            .price_lane(lane, node, u.fraction(), self.machines)
        {
            // No linear coefficients for this cell (a table or constant
            // model, or not a monitored component at all): the solver
            // validates and prices it, the lane takes the heat.
            let solver = &mut self.machines[machine];
            solver.set_utilization_at(node, u)?;
            self.batch
                .write_lane_heat(lane, node, solver.price_node(node));
        }
        Ok(())
    }

    /// Sets every cell of `frame` from this tick on: cell `k` takes
    /// utilization `value(k)` (clamped like [`Utilization::new`]). The
    /// same as [`TickInputs::set_utilization_at`] on each cell, bit for
    /// bit, but the room routes the frame onto its chunk rows once per
    /// call and prices it row by row; only the cells the lanes cannot
    /// price go one by one.
    ///
    /// # Panics
    ///
    /// Panics if a cell of `frame` is out of range for this room or not
    /// one of its monitored components — which a frame
    /// [`ClusterSolver::input_frame`] built on this room, or on another
    /// room of the same model, never is.
    pub fn set_frame(&mut self, frame: &InputFrame, value: impl Fn(usize) -> f64) {
        self.changed = true;
        self.batch
            .route_frame(frame.id, &frame.cells, self.machines);
        self.batch
            .price_frame(|k| Utilization::new(value(k)).fraction());
        for i in 0..self.batch.frame_fallback().len() {
            let k = self.batch.frame_fallback()[i] as usize;
            let (m, node) = frame.cells[k];
            self.set_utilization_at(m as usize, node as usize, Utilization::new(value(k)))
                .expect("input_frame validated the cell");
        }
    }
}

/// Emulates the temperatures of an entire machine room (Figure 1c).
///
/// Each tick, the cluster solver:
/// 1. resolves every junction temperature and machine-inlet temperature as
///    the fraction-weighted mix of its sources (AC supplies, machine
///    exhausts from the previous tick, upstream junctions) through the
///    mixing plan precompiled in `solver::kernel` — no per-tick hashing or
///    allocation;
/// 2. pushes each inlet temperature into the corresponding machine
///    (unless `fiddle` has forced that inlet); and
/// 3. steps every machine by one tick, on the calling thread. Machines
///    within a tick are independent (they only read the *previous*
///    tick's exhaust temperatures, all mixed in phases 1–2); the
///    parallelism that scales is across rooms and across time segments
///    cut at checkpoints (see [`ClusterSolver::checkpoint`]), both
///    bit-identical to one serial run.
///
/// Every way of advancing the room — [`ClusterSolver::step`] and the
/// `step_for*` family — is one call of the same tick loop, which runs
/// the batched machines in their chunk lanes and the rest on their own
/// solvers (see [`ClusterSolver::step_for`]).
///
/// Junctions are resolved in model declaration order, with each junction's
/// update visible to the junctions and inlets after it — deterministic
/// across runs and processes.
///
/// ```
/// use mercury::presets;
/// use mercury::solver::{ClusterSolver, SolverConfig};
///
/// # fn main() -> Result<(), mercury::Error> {
/// let cluster = presets::validation_cluster(4);
/// let mut solver = ClusterSolver::new(&cluster, SolverConfig::default())?;
/// solver.machine_mut("machine1")?.set_utilization("cpu", 0.9)?;
/// solver.step_for(300);
/// let t = solver.temperature("machine1", "cpu")?;
/// assert!(t.0 > 21.6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ClusterSolver {
    machines: Vec<Solver>,
    by_name: HashMap<String, usize>,
    supply_names: Vec<String>,
    supply_temps: Vec<Celsius>,
    junction_names: Vec<String>,
    junction_temps: Vec<Celsius>,
    /// The precompiled mixing plan over dense endpoint slots.
    mix: MixGraph,
    /// Per-machine exhaust temperatures observed at the start of the tick.
    exhaust_scratch: Vec<Celsius>,
    /// Machine inlets whose temperature fiddle has taken over, as
    /// `(machine, °C)` sorted by machine (found through `forced_slot`).
    /// It holds no storage until an inlet is first forced, and keeps its
    /// capacity when they are released, so a room whose inlets are
    /// forced and released over and over allocates once.
    forced_inlets: Vec<(usize, Celsius)>,
    /// Batch plan over structurally identical machines (see
    /// [`ClusterSolver::set_batching`]).
    batch: BatchSet,
    batching: bool,
    time: Seconds,
    dt: Seconds,
    /// Always-on metric handles; the nested solver bundle is shared with
    /// every machine in the room.
    metrics: ClusterMetrics,
    /// Runtime instrumentation switch (default on), cascaded to every
    /// machine solver; see [`ClusterSolver::set_instrumentation`].
    instrumented: bool,
    /// Span tracer for tick-phase causal tracing (detached by default);
    /// see [`ClusterSolver::set_tracer`].
    tracer: Tracer,
}

impl ClusterSolver {
    /// Creates a solver for the given cluster model.
    ///
    /// Machines of one model body — the replicas
    /// [`MachineModel::renamed`](crate::model::MachineModel::renamed)
    /// makes, or equal bodies built apart — share one compiled machine
    /// type: its structure and its kernel are derived once, and each
    /// machine holds only its own state until a fiddle copies what it
    /// changes (see [`Solver`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for a configuration
    /// [`Solver::new`] rejects.
    pub fn new(model: &ClusterModel, cfg: SolverConfig) -> Result<Self, Error> {
        cfg.validate()?;
        // One machine-level metric bundle for the whole room, which every
        // machine reports to — the initial flow compile of each machine
        // type included.
        let metrics = ClusterMetrics::new();
        let machine_metrics = Arc::new(metrics.solver.clone());
        let mut types = TypeTable::default();
        let mut machines = Vec::with_capacity(model.machines().len());
        let mut by_name = HashMap::new();
        for (i, m) in model.machines().iter().enumerate() {
            let machine_type = types.intern(m.body(), &cfg, &metrics.solver);
            machines.push(Solver::of_type(
                m.name(),
                machine_type,
                &cfg,
                Arc::clone(&machine_metrics),
            ));
            by_name.insert(m.name().to_string(), i);
        }
        let supply_names: Vec<String> = model.supplies().iter().map(|s| s.name.clone()).collect();
        let supply_temps: Vec<Celsius> = model.supplies().iter().map(|s| s.temperature).collect();
        let initial = cfg.initial_temperature.unwrap_or_else(|| {
            model
                .supplies()
                .first()
                .map(|s| s.temperature)
                .unwrap_or(Celsius(21.6))
        });
        let junction_names = model.junctions().to_vec();
        let junction_temps = vec![initial; junction_names.len()];
        let n = machines.len();
        let batch = BatchSet::new(n);
        metrics
            .solver
            .simd_lane_width
            .set(batch.backend().lane_width() as f64);
        Ok(ClusterSolver {
            machines,
            by_name,
            supply_names,
            supply_temps,
            junction_names,
            junction_temps,
            mix: MixGraph::build(model),
            exhaust_scratch: vec![Celsius(0.0); n],
            forced_inlets: Vec::new(),
            batch,
            batching: true,
            time: Seconds(0.0),
            dt: cfg.dt,
            metrics,
            instrumented: true,
            tracer: Tracer::default(),
        })
    }

    /// Number of machines in the cluster.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Whether the cluster has no machines.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Emulated time elapsed since construction.
    pub fn time(&self) -> Seconds {
        self.time
    }

    /// Machine names in index order.
    pub fn machine_names(&self) -> Vec<&str> {
        self.machines.iter().map(Solver::machine_name).collect()
    }

    /// The index of the named machine (its position in
    /// [`ClusterSolver::machine_names`], what
    /// [`ClusterSolver::machine_at`] takes), or `None` for unknown
    /// names.
    pub fn machine_position(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    fn machine_index(&self, name: &str) -> Result<usize, Error> {
        self.machine_position(name)
            .ok_or_else(|| Error::UnknownMachine {
                name: name.to_string(),
            })
    }

    /// Immutable access to one machine's solver.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownMachine`] for unknown names.
    pub fn machine(&self, name: &str) -> Result<&Solver, Error> {
        Ok(&self.machines[self.machine_index(name)?])
    }

    /// Mutable access to one machine's solver (to set utilizations, fan
    /// speeds, etc.).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownMachine`] for unknown names.
    pub fn machine_mut(&mut self, name: &str) -> Result<&mut Solver, Error> {
        let i = self.machine_index(name)?;
        Ok(&mut self.machines[i])
    }

    /// Machine solver by index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn machine_at(&self, index: usize) -> &Solver {
        &self.machines[index]
    }

    /// Mutable machine solver by index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn machine_at_mut(&mut self, index: usize) -> &mut Solver {
        &mut self.machines[index]
    }

    /// Shorthand for `machine(name)?.temperature(node)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownMachine`] or [`Error::UnknownNode`].
    pub fn temperature(&self, machine: &str, node: &str) -> Result<Celsius, Error> {
        self.machine(machine)?.temperature(node)
    }

    /// Shorthand for `machine_mut(name)?.set_utilization(component, u)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownMachine`], [`Error::UnknownNode`], or
    /// [`Error::InvalidInput`].
    pub fn set_utilization(
        &mut self,
        machine: &str,
        component: &str,
        utilization: impl Into<Utilization>,
    ) -> Result<(), Error> {
        self.machine_mut(machine)?
            .set_utilization(component, utilization)
    }

    /// Changes an AC supply's output temperature (e.g. to emulate a failed
    /// or degraded air conditioner for a whole region of the room).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNode`] for unknown supply names and
    /// [`Error::InvalidInput`] for a temperature that is not finite.
    pub fn set_supply_temperature(&mut self, supply: &str, t: Celsius) -> Result<(), Error> {
        match self.supply_names.iter().position(|n| n == supply) {
            Some(i) => {
                finite_temperature(t, supply)?;
                self.supply_temps[i] = t;
                Ok(())
            }
            None => Err(Error::unknown_node(supply)),
        }
    }

    /// Pins one machine's inlet to a fixed temperature, overriding the
    /// inter-machine graph (fiddle's "blocked inlet / broken AC duct").
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownMachine`] for unknown names and
    /// [`Error::InvalidInput`] for a temperature that is not finite.
    pub fn force_inlet(&mut self, machine: &str, t: Celsius) -> Result<(), Error> {
        let i = self.machine_index(machine)?;
        finite_temperature(t, machine)?;
        match forced_slot(&self.forced_inlets, i) {
            Ok(k) => self.forced_inlets[k].1 = t,
            Err(k) => self.forced_inlets.insert(k, (i, t)),
        }
        self.machines[i].set_inlet_temperature(t);
        Ok(())
    }

    /// Releases a pinned inlet back to the inter-machine graph.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownMachine`] for unknown names.
    pub fn release_inlet(&mut self, machine: &str) -> Result<(), Error> {
        let i = self.machine_index(machine)?;
        if let Ok(k) = forced_slot(&self.forced_inlets, i) {
            self.forced_inlets.remove(k);
        }
        Ok(())
    }

    /// Current temperature of a room junction.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNode`] for unknown junction names.
    pub fn junction_temperature(&self, name: &str) -> Result<Celsius, Error> {
        self.junction_names
            .iter()
            .position(|n| n == name)
            .map(|i| self.junction_temps[i])
            .ok_or_else(|| Error::unknown_node(name))
    }

    /// Does nothing: a room steps on its caller's thread.
    // `bench-e2e/src/workloads/replay.rs:73` still calls this; the next
    // benchmark-only change removes that call and this shim together.
    #[doc(hidden)]
    pub fn set_threads(&mut self, _threads: usize) {}

    /// Enables or disables batched stepping of structurally identical
    /// machines (default: enabled).
    ///
    /// When enabled, machines that share a [`structural
    /// fingerprint`](crate::model::MachineModel::structural_fingerprint)
    /// step together through one structure-of-arrays kernel — the fast
    /// path for trace-replicated rooms. Machines fiddled away from
    /// their source model (fan speed, heat k, air fraction) stay on it,
    /// grouped by sub-step count with per-lane operator weights; only
    /// machines with force-pinned nodes, and machines alone in their
    /// group, step per-machine. Batched and per-machine stepping are
    /// bit-identical; this switch exists for benchmarking and for
    /// pinning down a suspect path, not for correctness.
    pub fn set_batching(&mut self, on: bool) {
        self.batching = on;
        if !on {
            self.batch.clear();
        }
    }

    /// Whether batched stepping is enabled.
    pub fn batching(&self) -> bool {
        self.batching
    }

    /// The SIMD backend the batched lane sweeps run on. Defaults to the
    /// widest instruction set the host supports
    /// ([`SimdBackend::detect`]).
    pub fn simd_backend(&self) -> SimdBackend {
        self.batch.backend()
    }

    /// Forces the batched lane sweeps onto a specific [`SimdBackend`].
    ///
    /// Every backend is bit-identical — this switch exists for
    /// benchmarking and for pinning down a suspect path (like
    /// [`ClusterSolver::set_batching`]), and it is how the equivalence
    /// suites force each backend on one host. Takes effect on the next
    /// tick; the `mercury_solver_simd_lane_width` gauge follows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when the backend is not
    /// supported on this host (see [`SimdBackend::supported`]).
    pub fn set_simd_backend(&mut self, backend: SimdBackend) -> Result<(), Error> {
        if !backend.supported() {
            return Err(Error::invalid_input(format!(
                "SIMD backend `{}` is not supported on this host",
                backend.name()
            )));
        }
        self.batch.set_backend(backend);
        self.metrics
            .solver
            .simd_lane_width
            .set(backend.lane_width() as f64);
        Ok(())
    }

    /// Number of machines stepped on the batched path in the most recent
    /// tick (`0` before the first tick, or with batching disabled).
    pub fn batched_machines(&self) -> usize {
        self.batch.batched_machines()
    }

    /// The cluster's always-on metric handles (`mercury_cluster_*` plus
    /// the room-shared `mercury_solver_*` bundle). Register them on a
    /// [`telemetry::Registry`] to export them — `net::SolverService`
    /// does this automatically for its scrape surface.
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// Runtime switch for metric updates (default on), cascaded to
    /// every machine solver. Off skips handle updates — the overhead
    /// benchmark's within-one-binary A/B.
    pub fn set_instrumentation(&mut self, on: bool) {
        self.instrumented = on;
        for machine in &mut self.machines {
            machine.set_instrumentation(on);
        }
    }

    /// Attaches a span [`Tracer`]: every call — a [`ClusterSolver::step`]
    /// as much as a replay of many ticks — records two sibling root
    /// spans, its opening (`cluster.tick` → `batch.plan` /
    /// `batch.gather`) and then one `cluster.fused_span` for all its
    /// ticks (→ `cluster.sweep` around the tick loop, then
    /// `batch.scatter`). A detached tracer (the default) makes every
    /// span site a cheap no-op, and tracing never touches the numerics —
    /// trajectories are bit-identical with or without it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The attached span tracer (detached by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Advances the whole room by one tick: a replay call of one tick
    /// (see [`ClusterSolver::step_for`]) whose feed sets nothing. Inputs
    /// written to the machines before it — utilizations, fiddles, a
    /// supply change, a forced inlet — take effect on this tick.
    pub fn step(&mut self) {
        self.replay(1, &[], &mut |_, _| {}, &mut |_| Ok(true))
            .expect("a feed that does nothing cannot fail");
    }

    /// Brings the chunk lanes up to date with the room: the batch plan,
    /// then the gather — the opening of every call.
    fn open_lanes(&mut self, parent: u64) {
        // Partition the cluster: machines of one structure and class
        // step batched; pinned machines and singleton classes step
        // per-machine. The plan is rebuilt only when a signature
        // changes.
        let plan_span = self.tracer.start_child("batch.plan", "solver", parent);
        if self.batching {
            if let Some(demotions) = self.batch.plan(&mut self.machines) {
                // Replanned: record the new plan's shape once.
                if self.instrumented {
                    self.metrics.solo_demotions.add(demotions);
                    for lanes in self.batch.chunk_lanes() {
                        self.metrics.chunk_occupancy.observe(lanes as u64);
                    }
                }
            }
        }
        self.tracer.end(plan_span);
        // Gather batched machines' inputs into the chunk matrices
        // (serial: touches every member solver).
        let gather_span = self.tracer.start_child("batch.gather", "solver", parent);
        self.batch.begin_tick(&mut self.machines);
        self.tracer.end(gather_span);
    }

    /// Sets the plan-shape gauges from the current batch plan.
    fn book_plan_gauges(&self) {
        let batched = self.batch.batched_machines();
        self.metrics.batched_machines.set(batched as f64);
        self.metrics
            .solo_machines
            .set((self.machines.len() - batched) as f64);
        self.metrics
            .batch_chunks
            .set(self.batch.chunk_count() as f64);
    }

    /// Advances the room by `ticks` ticks.
    ///
    /// This is the room's one tick loop, of which
    /// [`ClusterSolver::step`] is the one-tick call: the call first opens
    /// the chunk lanes — the batch plan, flow caches, kernel rebuilds and
    /// the gather absorb whatever happened since the last call (fiddles,
    /// a restore, direct writes to a machine) — and then runs all
    /// `ticks` as one *fused span* inside the kernel/batch layer, closed
    /// by one scatter. Within the span no code but the span's own feed
    /// can run (see [`ClusterSolver::step_for_fed`]; this method's feed
    /// does nothing), and a feed can only change utilizations, so chunk
    /// matrices stay hot across ticks (no per-tick gather/scatter),
    /// solo machines reprice only when fed, and plan checks plus sampled
    /// metrics are paid once per call. The room's air mix runs chunk by
    /// chunk: the first tick mixes every sink, and later ticks only the
    /// sinks a span can change — an inlet that reads only supplies keeps
    /// the value the first tick mixed, and a junction nothing in the
    /// room reads is mixed once more, at the span's end, from the
    /// exhausts its last tick saw. The trajectory is bit-identical to
    /// calling [`ClusterSolver::step`] in a loop, and to a room stepped
    /// machine by machine — the equivalence proptests hold it to both.
    /// Use [`ClusterSolver::step_for_recorded`] to observe per-tick
    /// history from inside a span.
    pub fn step_for(&mut self, ticks: usize) {
        self.step_for_recorded(ticks, &[], |_, _| {});
    }

    /// Serializes the room's full mutable state to a `mercury-ckpt-v1`
    /// blob — a convenience wrapper over [`crate::trace::checkpoint::save`].
    #[must_use]
    pub fn checkpoint(&self) -> Vec<u8> {
        crate::trace::checkpoint::save(self)
    }

    /// Restores a blob from [`ClusterSolver::checkpoint`] into this room,
    /// which must have been built from the same model and configuration —
    /// a convenience wrapper over [`crate::trace::checkpoint::restore`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for malformed or mismatched blobs.
    pub fn restore_checkpoint(&mut self, blob: &[u8]) -> Result<(), Error> {
        crate::trace::checkpoint::restore(self, blob)
    }

    /// Writes the cluster-level mutable state (clock, supply and junction
    /// temperatures, forced inlets) followed by every machine's state.
    ///
    /// Scratch that is recomputed from this state each tick — exhaust
    /// buffers, batch chunk matrices, kernel double buffers — is *not*
    /// serialized: every tick/span boundary scatters it back into the
    /// state written here, and a restored solver re-gathers it.
    pub(crate) fn write_ckpt<S: crate::codec::Sink>(&self, w: &mut crate::codec::Writer<S>) {
        w.f64(self.time.0);
        w.u32(self.supply_temps.len() as u32);
        for t in &self.supply_temps {
            w.f64(t.0);
        }
        w.u32(self.junction_temps.len() as u32);
        for t in &self.junction_temps {
            w.f64(t.0);
        }
        w.u32(self.machines.len() as u32);
        let mut forced = self.forced_inlets.iter().peekable();
        for (i, m) in self.machines.iter().enumerate() {
            let t = forced.next_if(|&&(f, _)| f == i).map(|&(_, t)| t.0);
            crate::trace::checkpoint::write_opt_f64(w, t);
            m.write_ckpt(w);
        }
    }

    /// Restores state written by [`ClusterSolver::write_ckpt`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when the blob is truncated or was
    /// taken from a differently shaped cluster.
    pub(crate) fn read_ckpt(&mut self, r: &mut crate::codec::Reader<&[u8]>) -> Result<(), Error> {
        use crate::trace::checkpoint::{read_count, read_opt_f64};
        self.time = Seconds(r.f64("cluster time")?);
        read_count(r, "supply count", self.supply_temps.len())?;
        for t in &mut self.supply_temps {
            *t = Celsius(r.f64("supply temperature")?);
        }
        read_count(r, "junction count", self.junction_temps.len())?;
        for t in &mut self.junction_temps {
            *t = Celsius(r.f64("junction temperature")?);
        }
        read_count(r, "machine count", self.machines.len())?;
        self.forced_inlets.clear();
        for i in 0..self.machines.len() {
            if let Some(t) = read_opt_f64(r, "forced inlet")? {
                self.forced_inlets.push((i, Celsius(t)));
            }
            self.machines[i].read_ckpt(r)?;
        }
        Ok(())
    }

    /// Resolves a `(machine, node)` pair into a dense probe for
    /// [`ClusterSolver::step_for_recorded`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownMachine`] or [`Error::UnknownNode`].
    pub fn probe(&self, machine: &str, node: &str) -> Result<ClusterProbe, Error> {
        let m = self.machine_index(machine)?;
        let n = self.machines[m]
            .node_index(node)
            .ok_or_else(|| Error::unknown_node(node))?;
        Ok(ClusterProbe {
            machine: m,
            node: n,
        })
    }

    /// Resolves `(machine, node)` cells — cluster machine indices and
    /// [`Solver::node_index`] node indices — into an [`InputFrame`] for
    /// [`TickInputs::set_frame`]; cell `k` of the frame is `cells[k]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for a machine or node index out of
    /// range, a node that is not a monitored component, or a cell listed
    /// twice.
    pub fn input_frame(&self, cells: &[(usize, usize)]) -> Result<InputFrame, Error> {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let mut seen = HashSet::with_capacity(cells.len());
        let mut resolved = Vec::with_capacity(cells.len());
        for &(m, node) in cells {
            let solver = self.machines.get(m).ok_or_else(|| {
                Error::invalid_input(format!(
                    "machine index {m} is out of range for a room of {}",
                    self.machines.len()
                ))
            })?;
            let name = solver.machine_name();
            let Some(component) = solver.node_names().nth(node) else {
                return Err(Error::invalid_input(format!(
                    "node index {node} is out of range on `{name}`"
                )));
            };
            if !solver.is_monitored_at(node) {
                return Err(Error::invalid_input(format!(
                    "`{component}` on `{name}` is not a monitored component"
                )));
            }
            if !seen.insert((m, node)) {
                return Err(Error::invalid_input(format!(
                    "`{component}` on `{name}` is in the frame twice"
                )));
            }
            resolved.push((m as u32, node as u32));
        }
        Ok(InputFrame {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            cells: resolved,
        })
    }

    /// Advances the room by `ticks` ticks like
    /// [`ClusterSolver::step_for`], delivering each tick's probed
    /// temperatures to `sink`: the post-tick emulated time and the
    /// probed values in probe order. Inside a fused span the probes read
    /// straight off the hot chunk lanes, so recording per-tick history
    /// does not force the span apart. The trajectory is bit-identical to
    /// [`ClusterSolver::step_for`]; only the observation differs.
    pub fn step_for_recorded<F>(&mut self, ticks: usize, probes: &[ClusterProbe], mut sink: F)
    where
        F: FnMut(Seconds, &[Celsius]),
    {
        self.replay(ticks, probes, &mut sink, &mut |_| Ok(true))
            .expect("a feed that does nothing cannot fail");
    }

    /// Advances the room by up to `ticks` ticks like
    /// [`ClusterSolver::step_for_recorded`], calling `feed` before
    /// every tick with that tick's [`TickInputs`]. A utilization the
    /// feed sets takes effect from that tick on, exactly as
    /// `machine_at_mut(m).set_utilization_at(node, u)` followed by
    /// [`ClusterSolver::step`] would — bit for bit, checkpoint bytes
    /// included — but the span does not end there: the change is priced
    /// in the chunk lanes, on the call's first tick as on every other
    /// (see [`TickInputs`]). This is how trace replay keeps a room whose
    /// every cell changes every tick inside one fused span.
    ///
    /// `feed` returns `Ok(false)` to end the span before the tick it
    /// was called for. Returns the number of ticks stepped. A call whose
    /// first feed ends it (or fails) without setting anything leaves the
    /// room's state — its [`ClusterSolver::checkpoint`] bytes — as it
    /// was.
    ///
    /// # Errors
    ///
    /// The first error `feed` returns, after the span has been closed
    /// at the ticks already stepped (state scattered back, time and
    /// counters booked), so the room is at a consistent tick boundary.
    /// Inputs set by a call that then ends the span or fails stay set,
    /// for whatever tick comes next.
    pub fn step_for_fed<S, F>(
        &mut self,
        ticks: usize,
        probes: &[ClusterProbe],
        mut sink: S,
        mut feed: F,
    ) -> Result<usize, Error>
    where
        S: FnMut(Seconds, &[Celsius]),
        F: FnMut(&mut TickInputs<'_>) -> Result<bool, Error>,
    {
        self.replay(ticks, probes, &mut sink, &mut feed)
    }

    /// The one tick loop behind `step`, `step_for`, `step_for_recorded`
    /// and `step_for_fed`; returns the ticks stepped.
    ///
    /// The call opens the chunk lanes first — plan and gather under a
    /// `cluster.tick` span — and then runs every tick fused, under
    /// `cluster.fused_span`: mixing and stepping operate directly on the
    /// chunk matrices (and the solo solvers), with the deferred
    /// junctions, the scatter, span accounting and metrics paid once at
    /// the end. From the opening until this method returns only `feed`
    /// can touch the room, through [`TickInputs`], which cannot
    /// invalidate the plan, a kernel or a lane. The first tick is booked
    /// as a full step: in `ticks`, not in `fed_ticks`, `fused_ticks` or
    /// the `fused_span_ticks` runs.
    fn replay(
        &mut self,
        ticks: usize,
        probes: &[ClusterProbe],
        sink: &mut dyn FnMut(Seconds, &[Celsius]),
        feed: Feed<'_>,
    ) -> Result<usize, Error> {
        if ticks == 0 {
            return Ok(0);
        }
        let open_span = self.tracer.start("cluster.tick", "solver");
        self.open_lanes(open_span.id());
        self.tracer.end(open_span);
        self.batch.unroute_frame();
        if self.instrumented {
            self.book_plan_gauges();
        }

        // One boundary span per call, with one sweep span around the
        // tick loop — per-tick spans would cost more than a small tick.
        let trace_span = self.tracer.start("cluster.fused_span", "solver");
        let trace_id = trace_span.id();
        let n = self.machines.len();
        // What the room's air mix costs a fused tick (see `MixGraph`):
        // the first tick mixes every sink, later ones only the live
        // sinks; deferred junctions mix once more, at the end, from the
        // exhausts the last tick recorded.
        let live = self.mix.span_live();
        let records = live || self.mix.has_deferred();
        let mut scratch = vec![Celsius(0.0); probes.len()];
        let mut done = 0;
        // In-lane ticks after the first that took an input, and the
        // input-stable runs between them (what `fused_ticks`/
        // `fused_spans` have always counted).
        let mut fed_ticks = 0u64;
        let mut stable_run = 0u64;
        let mut result = Ok(());
        let sweep_span = self.tracer.start_child("cluster.sweep", "solver", trace_id);
        while done < ticks {
            let mut inputs = TickInputs {
                machines: &mut self.machines,
                batch: &mut self.batch,
                time: self.time,
                changed: false,
            };
            match feed(&mut inputs) {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
            let first = done == 0;
            if !first {
                if inputs.changed {
                    fed_ticks += 1;
                    if self.instrumented && stable_run > 0 {
                        self.metrics.fused_spans.observe(stable_run);
                    }
                    stable_run = 0;
                } else {
                    stable_run += 1;
                }
            }

            // Phase 0: previous-tick exhausts — off the solver for solos,
            // one row sum per chunk for batched machines.
            if records {
                for &m in self.batch.solos() {
                    self.exhaust_scratch[m] =
                        exhaust_temperature(&self.machines[m], self.mix.exhaust_nodes(m));
                }
                self.batch.record_exhausts();
            }

            // Phases 1–2: junctions in model order, then inlets — written
            // straight into the chunk inlet rows for batched machines
            // (those rows are `fixed`, so the chunk tick carries them
            // through its sweep). The first tick mixes every sink:
            // it absorbs supply changes, forced inlets and releases since
            // the last call; later ticks only the live sinks.
            if first || live {
                if records {
                    self.batch.exhaust_means(&mut self.exhaust_scratch);
                }
                self.mix.begin_tick(
                    &self.supply_temps,
                    &self.junction_temps,
                    &self.exhaust_scratch,
                );
                if first {
                    for j in 0..self.junction_temps.len() {
                        if let Some(t) = self.mix.mix_junction(j) {
                            self.junction_temps[j] = t;
                        }
                    }
                } else {
                    self.mix.mix_live_junctions(&mut self.junction_temps);
                }
                let (mix, forced) = (&self.mix, &self.forced_inlets);
                let inlet = |m: usize| {
                    if first || mix.inlet_live(m) {
                        (forced_slot(forced, m).ok().map(|k| forced[k].1))
                            .or_else(|| mix.mix_inlet(m))
                    } else {
                        None
                    }
                };
                self.batch.write_inlets(inlet);
                for &m in self.batch.solos() {
                    if let Some(t) = inlet(m) {
                        self.machines[m].set_inlet_temperature(t);
                    }
                }
            }

            // Phase 3: step. Chunk matrices stay hot — no gather, no
            // scatter, no plan check until the call ends.
            for &m in self.batch.solos() {
                self.machines[m].tick_fused();
            }
            self.batch.tick_serial();

            self.time.0 += self.dt.0;
            done += 1;
            if !probes.is_empty() {
                for (s, p) in scratch.iter_mut().zip(probes) {
                    *s = match self.batch.lane(p.machine) {
                        Some((g, c, l)) => Celsius(self.batch.lane_value(g, c, l, p.node)),
                        None => self.machines[p.machine].temperature_at(p.node),
                    };
                }
                sink(self.time, &scratch);
            }
        }
        self.tracer.end(sweep_span);

        // Epilogue. Deferred junctions mix once more, from the exhausts
        // the last tick recorded (already scattered if the room is live
        // or only one tick ran) and live junctions that are final by now.
        if done > 0 && self.mix.has_deferred() {
            if !live {
                self.batch.exhaust_means(&mut self.exhaust_scratch);
            }
            self.mix.begin_tick(
                &self.supply_temps,
                &self.junction_temps,
                &self.exhaust_scratch,
            );
            self.mix.mix_deferred_junctions(&mut self.junction_temps);
        }
        // One scatter plus per-machine span accounting. Runs for a call
        // of no ticks too: the feed may have set inputs before ending
        // it, and the lanes hand those back here.
        let scatter_span = self.tracer.start_child("batch.scatter", "solver", trace_id);
        let mut clock = SpanClock::default();
        self.batch.finish_span(&mut self.machines, done, &mut clock);
        for &m in self.batch.solos() {
            self.machines[m].finish_span(done, &mut clock);
        }
        self.tracer.end(scatter_span);

        // Bulk metrics: counters stay exact; the latency histograms get
        // one per-tick mean observation per call.
        if self.instrumented && done > 0 {
            let done_u64 = done as u64;
            self.metrics.ticks.add(done_u64);
            self.metrics.fed_ticks.add(fed_ticks);
            self.metrics.fused_ticks.add(done_u64 - 1 - fed_ticks);
            if stable_run > 0 {
                self.metrics.fused_spans.observe(stable_run);
            }
            self.metrics.solver.ticks.add(n as u64 * done_u64);
            let solo_substeps: u64 = self
                .batch
                .solos()
                .iter()
                .map(|&m| self.machines[m].current_substeps() as u64)
                .sum();
            self.metrics
                .solver
                .substeps
                .add((self.batch.planned_substeps() + solo_substeps) * done_u64);
        }
        if trace_span.is_live() {
            let args = vec![
                (Cow::Borrowed("ticks"), done.to_string()),
                (Cow::Borrowed("machines"), n.to_string()),
            ];
            self.tracer.end_with_args(trace_span, args);
        }
        result.map(|()| done)
    }
}

/// The machine types a room's construction has compiled, interned by
/// model body: a pointer-equal body first, then an equal one (same
/// structural fingerprint and `==`).
#[derive(Default)]
struct TypeTable {
    types: Vec<MachineType>,
    by_body: HashMap<*const MachineBody, usize>,
    by_fingerprint: HashMap<u64, Vec<usize>>,
}

impl TypeTable {
    fn intern(
        &mut self,
        body: &Arc<MachineBody>,
        cfg: &SolverConfig,
        metrics: &SolverMetrics,
    ) -> &MachineType {
        let ptr = Arc::as_ptr(body);
        if let Some(&t) = self.by_body.get(&ptr) {
            return &self.types[t];
        }
        let fingerprint = body.fingerprint();
        let equal = self
            .by_fingerprint
            .get(&fingerprint)
            .and_then(|candidates| {
                (candidates.iter().copied()).find(|&t| **self.types[t].body() == **body)
            });
        let t = equal.unwrap_or_else(|| {
            self.types.push(MachineType::compile(body, cfg, metrics));
            let t = self.types.len() - 1;
            self.by_fingerprint.entry(fingerprint).or_default().push(t);
            t
        });
        self.by_body.insert(ptr, t);
        &self.types[t]
    }
}

/// What [`ClusterSolver::step_for_fed`] calls before every tick.
type Feed<'f> = &'f mut dyn FnMut(&mut TickInputs<'_>) -> Result<bool, Error>;

/// Where machine `m` sits in a forced-inlet list sorted by machine:
/// `Ok` at its entry, `Err` where one would go.
fn forced_slot(forced: &[(usize, Celsius)], m: usize) -> Result<usize, usize> {
    forced.binary_search_by_key(&m, |&(f, _)| f)
}

/// The temperature the inter-machine graph observes at a machine's
/// exhaust: the mean over its exhaust air regions (in model node order),
/// or its inlet temperature if it has none.
fn exhaust_temperature(solver: &Solver, exhaust_nodes: &[u32]) -> Celsius {
    if exhaust_nodes.is_empty() {
        return solver.inlet_temperature();
    }
    let mut sum = 0.0;
    for &i in exhaust_nodes {
        sum += solver.temperature_at(i as usize).0;
    }
    Celsius(sum / exhaust_nodes.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::solver::SolverConfig;

    #[test]
    fn cluster_of_four_steps_and_heats() {
        let cluster = presets::validation_cluster(4);
        let mut s = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        for name in ["machine1", "machine2", "machine3", "machine4"] {
            s.set_utilization(name, "cpu", 1.0).unwrap();
        }
        s.step_for(1200);
        for name in s
            .machine_names()
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
        {
            let t = s.temperature(&name, "cpu").unwrap();
            assert!(t.0 > 40.0, "{name} cpu stayed at {t}");
        }
        // The shared exhaust junction warms above the supply.
        let exhaust = s.junction_temperature("cluster_exhaust").unwrap();
        assert!(exhaust.0 > 21.0, "cluster exhaust at {exhaust}");
    }

    #[test]
    fn forced_inlet_overrides_the_room_graph() {
        let cluster = presets::validation_cluster(2);
        let mut s = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
        s.force_inlet("machine1", Celsius(38.6)).unwrap();
        s.step_for(5);
        let t1 = s.machine("machine1").unwrap().inlet_temperature();
        let t2 = s.machine("machine2").unwrap().inlet_temperature();
        assert_eq!(t1, Celsius(38.6));
        assert!((t2.0 - 21.6).abs() < 0.5);
        s.release_inlet("machine1").unwrap();
        s.step_for(5);
        let t1 = s.machine("machine1").unwrap().inlet_temperature();
        assert!((t1.0 - 21.6).abs() < 0.5, "inlet did not recover: {t1}");
    }

    #[test]
    fn non_finite_temperatures_are_refused() {
        let cluster = presets::validation_cluster(4);
        let mut s = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
        for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY].map(Celsius) {
            assert!(matches!(
                s.force_inlet("machine1", t),
                Err(Error::InvalidInput { .. })
            ));
            assert!(matches!(
                s.set_supply_temperature("ac", t),
                Err(Error::InvalidInput { .. })
            ));
            assert!(matches!(
                s.machine_mut("machine2")
                    .unwrap()
                    .force_temperature("cpu", t),
                Err(Error::InvalidInput { .. })
            ));
        }
        s.step_for(5);
        for m in 0..s.len() {
            for (node, t) in s.machine_at(m).temperatures() {
                assert!(t.0.is_finite(), "machine {m} {node} at {t}");
            }
        }
    }

    /// Forced inlets are a sparse list sorted by machine: it holds
    /// nothing until an inlet is forced, forcing out of order and
    /// re-forcing keep one entry per forced machine, a checkpoint
    /// restores into the same list and the same bytes, and forcing
    /// again after a release allocates nothing.
    #[test]
    fn forced_inlets_are_held_sparsely() {
        let cluster = presets::validation_cluster(4);
        let mut s = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
        assert_eq!(s.forced_inlets.capacity(), 0);
        s.force_inlet("machine3", Celsius(30.0)).unwrap();
        s.force_inlet("machine1", Celsius(28.0)).unwrap();
        s.force_inlet("machine3", Celsius(31.0)).unwrap();
        assert_eq!(s.forced_inlets, [(0, Celsius(28.0)), (2, Celsius(31.0))]);
        s.step_for(3);
        let inlet = |s: &ClusterSolver, m| s.machine(m).unwrap().inlet_temperature();
        assert_eq!(inlet(&s, "machine1"), Celsius(28.0));
        assert_eq!(inlet(&s, "machine3"), Celsius(31.0));
        let blob = s.checkpoint();
        let mut restored = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
        restored.restore_checkpoint(&blob).unwrap();
        assert_eq!(restored.forced_inlets, s.forced_inlets);
        assert_eq!(restored.checkpoint(), blob);
        for m in ["machine1", "machine3", "machine3", "machine2"] {
            s.release_inlet(m).unwrap();
        }
        assert!(s.forced_inlets.is_empty());
        let held = s.forced_inlets.as_ptr();
        s.force_inlet("machine4", Celsius(29.0)).unwrap();
        assert_eq!(s.forced_inlets.as_ptr(), held, "a re-force reuses the list");
    }

    #[test]
    fn supply_temperature_reaches_all_machines() {
        let cluster = presets::validation_cluster(2);
        let mut s = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
        s.set_supply_temperature("ac", Celsius(30.0)).unwrap();
        s.step_for(3);
        for name in ["machine1", "machine2"] {
            let t = s.machine(name).unwrap().inlet_temperature();
            assert!((t.0 - 30.0).abs() < 1e-9, "{name} inlet at {t}");
        }
        assert!(s.set_supply_temperature("ghost", Celsius(1.0)).is_err());
    }

    #[test]
    fn unknown_machine_errors() {
        let cluster = presets::validation_cluster(1);
        let mut s = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
        assert!(matches!(
            s.machine("nope"),
            Err(Error::UnknownMachine { .. })
        ));
        assert!(s.machine_mut("nope").is_err());
        assert!(s.force_inlet("nope", Celsius(1.0)).is_err());
        assert!(s.temperature("nope", "cpu").is_err());
        assert!(s.junction_temperature("nope").is_err());
    }

    #[test]
    fn time_advances_with_ticks() {
        let cluster = presets::validation_cluster(1);
        let mut s = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
        s.step_for(42);
        assert!((s.time().0 - 42.0).abs() < 1e-12);
    }

    #[test]
    fn batch_fused_span_matches_per_tick_steps() {
        let model = presets::validation_cluster(10);
        let mut fused = ClusterSolver::new(&model, SolverConfig::default()).unwrap();
        let mut looped = ClusterSolver::new(&model, SolverConfig::default()).unwrap();
        for s in [&mut fused, &mut looped] {
            s.set_utilization("machine2", "cpu", 0.7).unwrap();
            s.machine_mut("machine5")
                .unwrap()
                .set_fan_cfm(20.0)
                .unwrap();
        }
        // One fused replay call against a hand-rolled per-tick loop.
        fused.step_for(40);
        for _ in 0..40 {
            looped.step();
        }
        for m in 0..fused.len() {
            let a = fused.machine_at(m).temperatures();
            let b = looped.machine_at(m).temperatures();
            for ((name, ta), (_, tb)) in a.iter().zip(&b) {
                assert_eq!(ta.0.to_bits(), tb.0.to_bits(), "machine {m} node {name}");
            }
        }
        assert!(
            (fused.time().0 - looped.time().0).abs() < 1e-12,
            "span accounting advanced time differently"
        );
    }

    #[test]
    fn recorded_replay_matches_per_tick_observation() {
        let model = presets::validation_cluster(6);
        let mut fused = ClusterSolver::new(&model, SolverConfig::default()).unwrap();
        let mut reference = ClusterSolver::new(&model, SolverConfig::default()).unwrap();
        for s in [&mut fused, &mut reference] {
            s.set_utilization("machine1", "cpu", 1.0).unwrap();
            s.machine_mut("machine4")
                .unwrap()
                .set_fan_cfm(22.0)
                .unwrap();
        }
        let probes = [
            fused.probe("machine1", "cpu").unwrap(),
            fused.probe("machine4", "cpu_air").unwrap(),
        ];
        let mut history = Vec::new();
        fused.step_for_recorded(30, &probes, |time, temps| {
            history.push((time, temps.to_vec()));
        });
        assert_eq!(history.len(), 30);
        for (tick, (time, temps)) in history.iter().enumerate() {
            reference.step();
            assert!((time.0 - reference.time().0).abs() < 1e-12, "tick {tick}");
            let want = [
                reference.temperature("machine1", "cpu").unwrap(),
                reference.temperature("machine4", "cpu_air").unwrap(),
            ];
            for (p, (got, want)) in temps.iter().zip(&want).enumerate() {
                assert_eq!(got.0.to_bits(), want.0.to_bits(), "tick {tick} probe {p}");
            }
        }
        assert!(fused.probe("machine1", "ghost").is_err());
        assert!(fused.probe("ghost", "cpu").is_err());
    }

    #[test]
    fn metrics_count_ticks_per_call() {
        let cluster = presets::validation_cluster(12);
        let mut s = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
        s.step(); // initial plan: all 12 machines batched
        assert_eq!(s.metrics().batched_machines.get(), 12.0);
        assert!(s.metrics().batch_chunks.get() >= 1.0);

        // A fan fiddle leaves machine3 alone in its class, which demotes
        // it to the solo path at the replan.
        s.machine_mut("machine3")
            .unwrap()
            .set_fan_cfm(20.0)
            .unwrap();
        s.step_for(9);
        s.step();
        let m = s.metrics();
        assert_eq!(m.ticks.get(), 11, "one room tick per tick of every call");
        assert_eq!(m.solver.ticks.get(), 132, "12 machine ticks per room tick");
        assert!(m.solver.substeps.get() >= m.solver.ticks.get());
        assert_eq!(m.solo_demotions.get(), 1);
        assert_eq!(m.batched_machines.get(), 11.0);
        assert_eq!(m.solo_machines.get(), 1.0);
        // Construction compiled the one machine type's flows once; the
        // fiddle recompiled machine3's.
        assert_eq!(m.solver.flow_recomputes.get(), 2);
        // A call's first tick is booked as a full step: of the eleven
        // ticks, only step_for(9)'s last eight are fused.
        assert_eq!(m.fused_ticks.get(), 8);
        assert_eq!(m.fused_spans.snapshot().count, 1);

        // The runtime switch freezes every counter without touching the
        // trajectory.
        s.set_instrumentation(false);
        s.step_for(5);
        s.step();
        assert_eq!(s.metrics().ticks.get(), 11);
        assert_eq!(s.metrics().solver.ticks.get(), 132);
    }

    /// Checks the span tree of the one call `spans` recorded — its
    /// opening and its fused span, siblings at the root, over `ticks`
    /// ticks.
    fn call_tree(spans: &[telemetry::SpanRecord], ticks: usize) {
        let find = |name: &str| {
            let mut named = spans.iter().filter(|r| r.name == name);
            let span = named
                .next()
                .unwrap_or_else(|| panic!("missing span {name}"));
            assert!(named.next().is_none(), "one {name} per call");
            span
        };
        let (opening, fused) = (find("cluster.tick"), find("cluster.fused_span"));
        assert_eq!(opening.parent, 0, "the opening does not nest");
        assert_eq!(fused.parent, 0, "nor does the fused span");
        let under = |parent: u64| -> Vec<&str> {
            spans
                .iter()
                .filter(|r| r.parent == parent)
                .map(|r| r.name.as_ref())
                .collect()
        };
        assert_eq!(under(opening.id), ["batch.plan", "batch.gather"]);
        assert_eq!(under(fused.id), ["cluster.sweep", "batch.scatter"]);
        let arg = fused.args.iter().find(|(k, _)| k == "ticks").unwrap();
        assert_eq!(arg.1, ticks.to_string(), "every tick runs in the lanes");
    }

    #[test]
    fn tick_spans_narrate_the_causal_phases() {
        let cluster = presets::validation_cluster(12);
        let mut s = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();

        // A step is a call of one tick and records a call's tree.
        let tracer = Tracer::new(4096);
        s.set_tracer(tracer.clone());
        s.step();
        call_tree(&tracer.recent(100), 1);

        // A replay call records the same tree once for all its ticks.
        let tracer = Tracer::new(4096);
        s.set_tracer(tracer.clone());
        s.step_for(10);
        call_tree(&tracer.recent(1000), 10);

        // Tracing never touches the numerics.
        let mut untraced = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
        untraced.step();
        untraced.step_for(10);
        for m in 0..s.len() {
            let a = s.machine_at(m).temperatures();
            let b = untraced.machine_at(m).temperatures();
            for ((name, ta), (_, tb)) in a.iter().zip(&b) {
                assert_eq!(ta.0.to_bits(), tb.0.to_bits(), "machine {m} node {name}");
            }
        }
    }
}
