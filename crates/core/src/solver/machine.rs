//! The per-machine solver.

use super::kernel::{Column, StepKernel, TickPattern};
use super::metrics::SolverMetrics;
use crate::error::Error;
use crate::model::{AirKind, MachineBody, MachineModel, NodeSpec, PowerModel};
use crate::units::{
    Celsius, CubicMetersPerSecond, Joules, JoulesPerKelvin, Seconds, Utilization, WattsPerKelvin,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Configuration of a [`Solver`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolverConfig {
    /// Length of one tick. The paper computes "one iteration per second by
    /// default".
    pub dt: Seconds,
    /// Maximum fraction of a node's distance-to-equilibrium exchanged per
    /// internal sub-step (explicit-Euler stability margin). Smaller is more
    /// accurate but takes proportionally more sub-steps per tick — paid
    /// when a kernel rebuild composes them, not on every tick.
    pub stability_limit: f64,
    /// Starting temperature for every node. `None` starts everything at
    /// the machine's inlet temperature — the paper's "user-defined initial
    /// air temperature".
    pub initial_temperature: Option<Celsius>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            dt: Seconds(1.0),
            stability_limit: 0.25,
            initial_temperature: None,
        }
    }
}

impl SolverConfig {
    /// Rejects a non-positive `dt` or a stability limit outside `(0, 1]`.
    pub(crate) fn validate(&self) -> Result<(), Error> {
        if !self.dt.is_finite() || self.dt.0 <= 0.0 {
            return Err(Error::invalid_input(format!(
                "solver dt {} must be positive",
                self.dt
            )));
        }
        if !(self.stability_limit > 0.0 && self.stability_limit <= 1.0) {
            return Err(Error::invalid_input(format!(
                "stability limit {} outside (0, 1]",
                self.stability_limit
            )));
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
enum NodeRt {
    /// A component: its power model, its row in the machine's
    /// per-component heat (`Shape::components` order), and, when it is
    /// monitored, its slot in the machine's utilizations (monitored
    /// components in node order).
    Component {
        power: PowerModel,
        row: u32,
        input: Option<u32>,
    },
    Air {
        kind: AirKind,
        mass_kg: f64,
    },
}

/// The structure a solver derives from its model body: node lookup,
/// kinds, power models and each component's heat row and input slot,
/// capacities, both edge lists, the air topological order, inlets and
/// their boundary mask, components and the structural fingerprint.
/// Derived once per machine type and shared by its replicas; a fiddle
/// that retunes any of it copies it first.
#[derive(Debug, Clone)]
pub(crate) struct Shape {
    /// The source model's body: node names, and the constants a restore
    /// holds an undiverged machine to.
    body: Arc<MachineBody>,
    by_name: HashMap<String, usize>,
    kind: Vec<NodeRt>,
    capacity: Vec<JoulesPerKelvin>,
    heat_edges: Vec<(usize, usize, WattsPerKelvin)>,
    air_edges: Vec<(usize, usize, f64)>,
    topo: Vec<usize>,
    inlets: Vec<usize>,
    /// `inlet_mask[i]` is whether node `i` is an inlet: the boundary
    /// mask of every machine with no pinned node, which shares it.
    inlet_mask: Arc<[bool]>,
    /// Component node indices in node order — the only nodes that
    /// generate heat, hence the only ones repricing visits.
    components: Vec<usize>,
    /// [`MachineModel::structural_fingerprint`] of the body, for batch
    /// grouping.
    fingerprint: u64,
}

impl Shape {
    fn of(body: &Arc<MachineBody>) -> Shape {
        let (mut rows, mut inputs) = (0, 0);
        let kind: Vec<NodeRt> = body
            .nodes
            .iter()
            .map(|node| match node {
                NodeSpec::Component(c) => {
                    let (row, input) = (rows, c.monitored.then_some(inputs));
                    rows += 1;
                    inputs += u32::from(c.monitored);
                    NodeRt::Component {
                        power: c.power.clone(),
                        row,
                        input,
                    }
                }
                NodeSpec::Air(a) => NodeRt::Air {
                    kind: a.kind,
                    mass_kg: a.mass_kg,
                },
            })
            .collect();
        let inlet_mask: Arc<[bool]> = (body.nodes.iter())
            .map(|node| node.is_air_kind(AirKind::Inlet))
            .collect();
        Shape {
            body: Arc::clone(body),
            by_name: (body.nodes.iter().enumerate())
                .map(|(i, node)| (node.name().to_string(), i))
                .collect(),
            capacity: body.nodes.iter().map(NodeSpec::capacity).collect(),
            heat_edges: (body.heat_edges.iter())
                .map(|e| (e.a.index(), e.b.index(), e.k))
                .collect(),
            air_edges: (body.air_edges.iter())
                .map(|e| (e.from.index(), e.to.index(), e.fraction))
                .collect(),
            topo: body.topo_order.iter().map(|id| id.index()).collect(),
            inlets: (0..kind.len()).filter(|&i| inlet_mask[i]).collect(),
            inlet_mask,
            components: (0..kind.len())
                .filter(|&i| matches!(kind[i], NodeRt::Component { .. }))
                .collect(),
            fingerprint: body.fingerprint(),
            kind,
        }
    }

    fn name(&self, i: usize) -> &str {
        self.body.nodes[i].name()
    }

    /// Monitored components: the length of a machine's utilizations.
    fn inputs(&self) -> usize {
        (self.kind.iter())
            .filter(|k| matches!(k, NodeRt::Component { input: Some(_), .. }))
            .count()
    }

    /// Compiles a kernel — structure and values — from the edge lists
    /// at fan flow `fan`.
    fn compile(&self, cfg: &SolverConfig, fan: CubicMetersPerSecond) -> StepKernel {
        let mut kernel = StepKernel::new(
            cfg.dt,
            cfg.stability_limit,
            &self.heat_edges,
            &self.air_edges,
            &self.capacity,
            |i| self.air_mass(i),
        );
        self.rebuild(&mut kernel, fan);
        kernel
    }

    /// Recomputes `kernel`'s values from the edge lists at fan flow
    /// `fan`.
    fn rebuild(&self, kernel: &mut StepKernel, fan: CubicMetersPerSecond) {
        kernel.rebuild(
            &self.heat_edges,
            &self.air_edges,
            &self.topo,
            &self.inlets,
            fan.mass_flow(),
            &self.capacity,
            |i| self.air_mass(i),
        );
    }

    fn air_mass(&self, i: usize) -> Option<f64> {
        match self.kind[i] {
            NodeRt::Air { mass_kg, .. } => Some(mass_kg),
            NodeRt::Component { .. } => None,
        }
    }

    /// Whether fan flow `fan` and these edge constants are the source
    /// model's, bit for bit.
    fn is_model(&self, fan: CubicMetersPerSecond) -> bool {
        let body = &self.body;
        fan.0.to_bits() == body.fan.0.to_bits()
            && (self.heat_edges.iter().zip(&body.heat_edges))
                .all(|(&(_, _, k), e)| k.0.to_bits() == e.k.0.to_bits())
            && (self.air_edges.iter().zip(&body.air_edges))
                .all(|(&(_, _, f), e)| f.to_bits() == e.fraction.to_bits())
    }
}

/// A machine type: the [`Shape`] of one model body and its kernel,
/// compiled and composed for the inlet-only boundary mask. A standalone
/// [`Solver`] compiles its own; a cluster compiles one per distinct body
/// and every replica of that body starts out sharing it.
#[derive(Debug, Clone)]
pub(crate) struct MachineType {
    shape: Arc<Shape>,
    kernel: Arc<StepKernel>,
}

impl MachineType {
    /// Compiles the type of `body`, booking the kernel's initial flow
    /// compile on `metrics`.
    pub(crate) fn compile(
        body: &Arc<MachineBody>,
        cfg: &SolverConfig,
        metrics: &SolverMetrics,
    ) -> MachineType {
        let shape = Shape::of(body);
        let mut kernel = shape.compile(cfg, body.fan);
        kernel.compose(&shape.inlet_mask);
        metrics.flow_recomputes.add(kernel.flow_recomputes());
        MachineType {
            shape: Arc::new(shape),
            kernel: Arc::new(kernel),
        }
    }

    /// The body this type was compiled from.
    pub(crate) fn body(&self) -> &Arc<MachineBody> {
        &self.shape.body
    }
}

/// The clock a span of ticks ends at, by start time, tick length and
/// span: `start + dt + dt + …` over `span` additions, the bits `span`
/// single steps produce. A room's machines mostly share one clock, so a
/// call computes each distinct end once and hands it to every machine
/// starting there; the few ends a call has seen are kept, and a call
/// with more distinct clocks than that adds up the rest machine by
/// machine.
#[derive(Debug, Default)]
pub(crate) struct SpanClock {
    /// Span keys and the ends they add up to.
    ends: [Option<(SpanKey, Seconds)>; 4],
}

/// `(start bits, dt bits, span)`.
type SpanKey = (u64, u64, usize);

impl SpanClock {
    /// The clock `span` ticks of `dt` after `start`.
    pub(crate) fn end(&mut self, start: Seconds, dt: Seconds, span: usize) -> Seconds {
        let key = (start.0.to_bits(), dt.0.to_bits(), span);
        if let Some((_, end)) = self.ends.iter().flatten().find(|(k, _)| *k == key) {
            return *end;
        }
        let mut end = start;
        for _ in 0..span {
            end.0 += dt.0;
        }
        if let Some(free) = self.ends.iter_mut().find(|e| e.is_none()) {
            *free = Some((key, end));
        }
        end
    }
}

/// `kernel`, to be changed: a shared one is first replaced by a copy of
/// its values ([`StepKernel::uncomposed`]). A rebuild or a new mask
/// recomposes anyway; a solo tick on a copy of the type's kernel
/// composes once, for the bits the copy would have held.
fn own_kernel(kernel: &mut Arc<StepKernel>) -> &mut StepKernel {
    if Arc::get_mut(kernel).is_none() {
        *kernel = Arc::new(kernel.uncomposed());
    }
    Arc::get_mut(kernel).expect("unshared above")
}

/// `mask`, to be changed: a shared one (the machine type's inlet mask)
/// is first replaced by a copy.
fn own_mask(mask: &mut Arc<[bool]>) -> &mut [bool] {
    if Arc::get_mut(mask).is_none() {
        *mask = Arc::from(&mask[..]);
    }
    Arc::get_mut(mask).expect("unshared above")
}

/// Refuses a temperature that is not finite before it is imposed on
/// `what`: one NaN pin spreads to every node it exchanges heat with.
pub(super) fn finite_temperature(t: Celsius, what: &str) -> Result<(), Error> {
    if t.0.is_finite() {
        Ok(())
    } else {
        Err(Error::invalid_input(format!(
            "temperature {} °C imposed on `{what}` is not finite",
            t.0
        )))
    }
}

/// Emulates the temperatures of one machine.
///
/// A `Solver` never writes back to its [`MachineModel`]: runtime changes
/// (fiddle commands, fan-speed changes) land in the solver. The stepping
/// arithmetic itself lives in the shared `solver::kernel` module: at
/// construction (and again after any topology-affecting change such as
/// [`Solver::set_fan_cfm`]) the solver's graphs are compiled into a
/// CSR-indexed `StepKernel` with precomputed rate constants, and each
/// [`Solver::step`] is a single kernel tick over reused buffers.
/// Temperatures are queried by node name, exactly like probing a hardware
/// sensor — or by dense index via [`Solver::node_index`] /
/// [`Solver::temperature_at`] when polling in a tight loop:
///
/// ```
/// use mercury::presets;
/// use mercury::solver::{Solver, SolverConfig};
///
/// # fn main() -> Result<(), mercury::Error> {
/// let mut solver = Solver::new(&presets::validation_machine(), SolverConfig::default())?;
/// solver.set_utilization("cpu", 1.0)?;
/// solver.step_for(600);
/// println!("CPU air after 10 min: {}", solver.temperature("cpu_air")?);
/// # Ok(())
/// # }
/// ```
///
/// A solver is its machine's state plus two shared references to its
/// machine type — the structure derived from the model (names, kinds,
/// power models, edge lists) and the compiled kernel — so the replicas
/// of one model in a [`ClusterSolver`](super::ClusterSolver) hold one
/// copy of each. Nothing writes through a shared reference: whatever
/// changes one of them copies it first (copy on write), so a fiddled,
/// pinned or restored replica never changes another. The state itself
/// is sized by what the type uses: one utilization per monitored
/// component, one heat per component, the type's boundary mask until a
/// node is pinned, and no pin storage until then.
#[derive(Debug, Clone)]
pub struct Solver {
    machine: String,
    /// The machine type's structure. Copied by the fiddles that retune
    /// it — heat k, air fraction, power model — and by a restore whose
    /// edge constants differ from it.
    shape: Arc<Shape>,
    /// The compiled step kernel: the machine type's shared structure and
    /// this machine's values, rebuilt from `shape` and `fan` whenever
    /// `dirty` is set. The values are copied before anything changes
    /// them — a rebuild, a composition for another boundary mask (a pin
    /// or release), a tick on the solver's own kernel, which writes its
    /// scratch — and the structure never is.
    kernel: Arc<StepKernel>,
    /// Utilization of each monitored component, at the input slot its
    /// node's kind names; every other node is idle.
    utilization: Box<[Utilization]>,
    temp: Box<[Celsius]>,
    /// Force-pinned nodes and their temperatures, in pin order; empty,
    /// and holding no storage, while nothing is pinned.
    forced: Vec<(usize, Celsius)>,
    /// Per-tick inputs: boundary flags (forced nodes and inlets) — the
    /// type's inlet mask, copied by the first pin that changes it — and
    /// the per-sub-step generated heat of each component, in
    /// `Shape::components` order.
    fixed: Arc<[bool]>,
    power_q: Box<[f64]>,
    fan: CubicMetersPerSecond,
    inlet_temperature: Celsius,
    dirty: bool,
    /// Kernel rebuilds so far. A per-lane batch chunk composes this
    /// machine's tick into its lane; a changed epoch tells it the lane's
    /// weights are stale.
    rebuild_epoch: u64,
    /// Set when the generated heat may have changed since the last
    /// [`Solver::fill_tick_inputs`] (utilization, power model, or the
    /// sub-step length after a rebuild); cleared there. While clear,
    /// stepping reuses the priced heat.
    inputs_dirty: bool,
    /// Set when temperatures were written outside a batch chunk (a
    /// direct step, `set_temperature`, a pin, a restore) since the last
    /// [`Solver::take_temps_dirty`]. A warm chunk lane re-reads its
    /// non-boundary rows only when this is set; repricing alone does
    /// not touch them.
    temps_dirty: bool,
    /// Set when a component's power model may differ from what a batch
    /// chunk copied into its pricing rows (construction,
    /// [`Solver::set_power_model`]); cleared by
    /// [`Solver::take_power_models_dirty`].
    power_models_dirty: bool,
    /// Set once any kernel constant diverges from the source model
    /// (fan speed, heat k, air fraction). A diverged solver no longer
    /// shares its group's operator weights: it batches with machines of
    /// the same structure and sub-step count, each lane carrying its own
    /// weights (see `super::batch`).
    diverged: bool,
    time: Seconds,
    generated_last_tick: Joules,
    /// Always-on metric handles. A standalone solver owns a detached
    /// bundle; a cluster's machines share one.
    metrics: Arc<SolverMetrics>,
    /// Ticks stepped on the per-machine path or as a diverged batch
    /// lane. Serialized by `mercury-ckpt-v1`, so which machines book it
    /// cannot follow which path stepped them.
    ticks_stepped: u64,
    /// Runtime instrumentation switch (default on). Exists for overhead
    /// A/B measurements within one binary.
    instrumented: bool,
}

impl Solver {
    /// Creates a solver for the given model.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if the configuration is unusable
    /// (non-positive `dt` or stability limit outside `(0, 1]`).
    pub fn new(model: &MachineModel, cfg: SolverConfig) -> Result<Self, Error> {
        cfg.validate()?;
        let metrics = Arc::new(SolverMetrics::new());
        let machine_type = MachineType::compile(model.body(), &cfg, &metrics);
        Ok(Solver::of_type(model.name(), &machine_type, &cfg, metrics))
    }

    /// A fresh machine named `name` of type `machine_type`, sharing its
    /// shape and kernel, reporting to `metrics`. `cfg` must be the one
    /// the type was compiled with, and valid; the tick length and
    /// stability limit live on in the kernel, and only the initial
    /// temperature is read here.
    pub(crate) fn of_type(
        name: &str,
        machine_type: &MachineType,
        cfg: &SolverConfig,
        metrics: Arc<SolverMetrics>,
    ) -> Solver {
        let shape = &machine_type.shape;
        let body = &shape.body;
        let initial = cfg.initial_temperature.unwrap_or(body.inlet_temperature);
        let mut temp = vec![initial; shape.kind.len()].into_boxed_slice();
        // Inlets are boundary nodes, and start at the boundary
        // temperature even when `initial_temperature` differs.
        for &i in &shape.inlets {
            temp[i] = body.inlet_temperature;
        }
        Solver {
            machine: name.to_string(),
            shape: Arc::clone(shape),
            kernel: Arc::clone(&machine_type.kernel),
            utilization: vec![Utilization::IDLE; shape.inputs()].into_boxed_slice(),
            temp,
            forced: Vec::new(),
            fixed: Arc::clone(&shape.inlet_mask),
            power_q: vec![0.0; shape.components.len()].into_boxed_slice(),
            fan: body.fan,
            inlet_temperature: body.inlet_temperature,
            dirty: false,
            rebuild_epoch: 1,
            inputs_dirty: true,
            temps_dirty: true,
            power_models_dirty: true,
            diverged: false,
            time: Seconds(0.0),
            generated_last_tick: Joules(0.0),
            metrics,
            ticks_stepped: 0,
            instrumented: true,
        }
    }

    /// The machine name this solver emulates.
    pub fn machine_name(&self) -> &str {
        &self.machine
    }

    /// Emulated time elapsed since construction.
    pub fn time(&self) -> Seconds {
        self.time
    }

    /// Length of one tick.
    pub fn dt(&self) -> Seconds {
        self.kernel.dt()
    }

    /// All node names, in model order.
    pub fn node_names(&self) -> impl Iterator<Item = &str> {
        self.shape.body.nodes.iter().map(NodeSpec::name)
    }

    /// Names of the monitored components (the ones that accept
    /// [`Solver::set_utilization`]).
    pub fn monitored_components(&self) -> Vec<&str> {
        (0..self.shape.kind.len())
            .filter(|&i| self.is_monitored_at(i))
            .map(|i| self.shape.name(i))
            .collect()
    }

    /// Whether the node at `index` (from [`Solver::node_index`]) is a
    /// monitored component, i.e. accepts
    /// [`Solver::set_utilization_at`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn is_monitored_at(&self, index: usize) -> bool {
        self.input_slot(index).is_some()
    }

    /// Node `i`'s slot in `utilization`, if it is a monitored component.
    fn input_slot(&self, i: usize) -> Option<usize> {
        match self.shape.kind[i] {
            NodeRt::Component { input, .. } => input.map(|s| s as usize),
            NodeRt::Air { .. } => None,
        }
    }

    /// Node `i`'s utilization: idle unless it is a monitored component.
    fn utilization_at(&self, i: usize) -> Utilization {
        self.input_slot(i)
            .map_or(Utilization::IDLE, |s| self.utilization[s])
    }

    /// The temperature node `i` is pinned at, if it is.
    fn pin(&self, i: usize) -> Option<Celsius> {
        (self.forced.iter())
            .find(|&&(node, _)| node == i)
            .map(|&(_, t)| t)
    }

    /// Whether the named node is an inlet air region.
    pub fn is_inlet(&self, name: &str) -> bool {
        self.is_air_kind(name, AirKind::Inlet)
    }

    /// Whether the named node is an exhaust air region.
    pub fn is_exhaust(&self, name: &str) -> bool {
        self.is_air_kind(name, AirKind::Exhaust)
    }

    fn is_air_kind(&self, name: &str, air: AirKind) -> bool {
        self.node_index(name)
            .is_some_and(|i| matches!(self.shape.kind[i], NodeRt::Air { kind, .. } if kind == air))
    }

    /// Sub-steps the solver currently performs per tick (diagnostic).
    pub fn substeps_per_tick(&mut self) -> usize {
        self.compiled_kernel().substeps()
    }

    /// Heat generated by all components during the most recent tick.
    pub fn generated_last_tick(&self) -> Joules {
        self.generated_last_tick
    }

    /// Total heat content relative to 0 °C, `Σ m·c·T` — used by
    /// conservation tests.
    pub fn heat_content(&self) -> Joules {
        Joules(
            self.temp
                .iter()
                .zip(&self.shape.capacity)
                .map(|(t, c)| t.0 * c.0)
                .sum(),
        )
    }

    fn index(&self, name: &str) -> Result<usize, Error> {
        self.node_index(name)
            .ok_or_else(|| Error::unknown_node(name))
    }

    /// The current temperature of a node.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNode`] for names not in the model.
    pub fn temperature(&self, name: &str) -> Result<Celsius, Error> {
        Ok(self.temp[self.index(name)?])
    }

    /// Snapshot of every node's temperature, in model order.
    pub fn temperatures(&self) -> Vec<(String, Celsius)> {
        self.node_names()
            .map(str::to_string)
            .zip(self.temp.iter().copied())
            .collect()
    }

    /// Stable dense index of a node, for repeated access without name
    /// hashing. Indices follow model order and never change over the
    /// solver's lifetime; resolve once, then poll with
    /// [`Solver::temperature_at`] on the hot path.
    pub fn node_index(&self, name: &str) -> Option<usize> {
        self.shape.by_name.get(name).copied()
    }

    /// The current temperature of the node at `index` (from
    /// [`Solver::node_index`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn temperature_at(&self, index: usize) -> Celsius {
        self.temp[index]
    }

    /// Sets the utilization of a monitored component.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNode`] for unknown names and
    /// [`Error::InvalidInput`] when the node is not a monitored component.
    pub fn set_utilization(
        &mut self,
        name: &str,
        utilization: impl Into<Utilization>,
    ) -> Result<(), Error> {
        let i = self.index(name)?;
        self.set_utilization_at(i, utilization)
    }

    /// Sets the utilization of the monitored component at `index` (from
    /// [`Solver::node_index`]) — the hot-path variant of
    /// [`Solver::set_utilization`] for callers feeding utilizations every
    /// tick.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when the node is not a monitored
    /// component.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_utilization_at(
        &mut self,
        index: usize,
        utilization: impl Into<Utilization>,
    ) -> Result<(), Error> {
        match self.shape.kind[index] {
            NodeRt::Component { input: Some(s), .. } => {
                self.utilization[s as usize] = utilization.into();
                self.inputs_dirty = true;
                Ok(())
            }
            NodeRt::Component { input: None, .. } => Err(Error::invalid_input(format!(
                "component `{}` is not monitored; its power draw is fixed",
                self.shape.name(index)
            ))),
            NodeRt::Air { .. } => Err(Error::invalid_input(format!(
                "`{}` is an air region, not a component",
                self.shape.name(index)
            ))),
        }
    }

    /// The current utilization of a component.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNode`] for unknown names.
    pub fn utilization(&self, name: &str) -> Result<Utilization, Error> {
        Ok(self.utilization_at(self.index(name)?))
    }

    /// Sets the inlet boundary temperature (all inlet nodes).
    pub fn set_inlet_temperature(&mut self, t: Celsius) {
        self.inlet_temperature = t;
        for &i in &self.shape.inlets {
            if self.pin(i).is_none() {
                self.temp[i] = t;
            }
        }
    }

    /// The current inlet boundary temperature.
    pub fn inlet_temperature(&self) -> Celsius {
        self.inlet_temperature
    }

    /// Pins a node at a temperature until [`Solver::release_temperature`].
    /// This is how `fiddle` simulates e.g. a blocked inlet or a failed fan
    /// sensor.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNode`] for unknown names and
    /// [`Error::InvalidInput`] for a temperature that is not finite.
    pub fn force_temperature(&mut self, name: &str, t: Celsius) -> Result<(), Error> {
        let i = self.index(name)?;
        finite_temperature(t, name)?;
        match self.forced.iter_mut().find(|(node, _)| *node == i) {
            Some(pin) => pin.1 = t,
            None => self.forced.push((i, t)),
        }
        if !self.fixed[i] {
            own_mask(&mut self.fixed)[i] = true;
        }
        self.temp[i] = t;
        self.temps_dirty = true;
        Ok(())
    }

    /// Releases a pinned node; it resumes evolving from the pinned value.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNode`] for unknown names.
    pub fn release_temperature(&mut self, name: &str) -> Result<(), Error> {
        let i = self.index(name)?;
        if let Some(k) = self.forced.iter().position(|&(node, _)| node == i) {
            self.forced.swap_remove(k);
        }
        let inlet = self.shape.inlet_mask[i];
        if self.forced.is_empty() {
            // Nothing pinned: back to holding no pin storage and the
            // type's mask.
            self.forced = Vec::new();
            self.fixed = Arc::clone(&self.shape.inlet_mask);
        } else if self.fixed[i] != inlet {
            own_mask(&mut self.fixed)[i] = inlet;
        }
        if inlet {
            self.temp[i] = self.inlet_temperature;
        }
        self.temps_dirty = true;
        Ok(())
    }

    /// Overwrites a node's temperature once (it keeps evolving afterwards).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNode`] for unknown names.
    pub fn set_temperature(&mut self, name: &str, t: Celsius) -> Result<(), Error> {
        let i = self.index(name)?;
        self.temp[i] = t;
        self.temps_dirty = true;
        Ok(())
    }

    /// Changes the fan's volumetric flow (multi-speed fans, §2.2).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for non-positive flows.
    pub fn set_fan_cfm(&mut self, cfm: f64) -> Result<(), Error> {
        if !cfm.is_finite() || cfm <= 0.0 {
            return Err(Error::invalid_input(format!(
                "fan flow {cfm} cfm must be positive"
            )));
        }
        self.fan = CubicMetersPerSecond::from_cfm(cfm);
        self.dirty = true;
        self.diverged = true;
        Ok(())
    }

    /// The fan's current volumetric flow.
    pub fn fan(&self) -> CubicMetersPerSecond {
        self.fan
    }

    /// Changes the heat-transfer coefficient of an existing heat edge.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNode`] if either endpoint is unknown,
    /// [`Error::InvalidInput`] if the edge does not exist or `k` is not
    /// positive.
    pub fn set_heat_k(&mut self, a: &str, b: &str, k: f64) -> Result<(), Error> {
        if !k.is_finite() || k <= 0.0 {
            return Err(Error::invalid_input(format!("heat k {k} must be positive")));
        }
        let ia = self.index(a)?;
        let ib = self.index(b)?;
        let Some(edge) = (self.shape.heat_edges.iter())
            .position(|&(x, y, _)| (x == ia && y == ib) || (x == ib && y == ia))
        else {
            return Err(Error::invalid_input(format!(
                "no heat edge between `{a}` and `{b}`"
            )));
        };
        Arc::make_mut(&mut self.shape).heat_edges[edge].2 = WattsPerKelvin(k);
        self.dirty = true;
        self.diverged = true;
        Ok(())
    }

    /// Changes the fraction of an existing air edge. The fractions leaving
    /// the upstream node must still sum to at most 1.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNode`] / [`Error::InvalidInput`] analogous
    /// to [`Solver::set_heat_k`].
    pub fn set_air_fraction(&mut self, from: &str, to: &str, fraction: f64) -> Result<(), Error> {
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(Error::invalid_input(format!(
                "air fraction {fraction} outside (0, 1]"
            )));
        }
        let ifrom = self.index(from)?;
        let ito = self.index(to)?;
        let mut found = None;
        let mut total = 0.0;
        for (e, &(src, dst, f)) in self.shape.air_edges.iter().enumerate() {
            if src == ifrom {
                if dst == ito {
                    found = Some(e);
                    total += fraction;
                } else {
                    total += f;
                }
            }
        }
        let Some(edge) = found else {
            return Err(Error::invalid_input(format!(
                "no air edge `{from}` -> `{to}`"
            )));
        };
        if total > 1.0 + 1e-9 {
            return Err(Error::invalid_input(format!(
                "air fractions leaving `{from}` would sum to {total:.4} > 1"
            )));
        }
        Arc::make_mut(&mut self.shape).air_edges[edge].2 = fraction;
        self.dirty = true;
        self.diverged = true;
        Ok(())
    }

    /// Replaces a component's power model (emulating e.g. voltage/frequency
    /// scaling or clock throttling, §7).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNode`] for unknown names,
    /// [`Error::InvalidInput`] for air regions or invalid models.
    pub fn set_power_model(&mut self, name: &str, model: PowerModel) -> Result<(), Error> {
        model.validate().map_err(Error::invalid_input)?;
        let i = self.index(name)?;
        if let NodeRt::Air { .. } = self.shape.kind[i] {
            return Err(Error::invalid_input(format!(
                "`{name}` is an air region, not a component"
            )));
        }
        if let NodeRt::Component { power, .. } = &mut Arc::make_mut(&mut self.shape).kind[i] {
            *power = model;
        }
        self.inputs_dirty = true;
        self.power_models_dirty = true;
        Ok(())
    }

    /// Recompiles the kernel's values from the current edge lists and
    /// fan speed, on a copy of its own if the kernel is shared.
    fn refresh(&mut self) {
        let kernel = own_kernel(&mut self.kernel);
        let recomputes_before = kernel.flow_recomputes();
        self.shape.rebuild(kernel, self.fan);
        if self.instrumented {
            self.metrics
                .flow_recomputes
                .add(kernel.flow_recomputes() - recomputes_before);
        }
        self.dirty = false;
        self.rebuild_epoch += 1;
        // A rebuild can change the sub-step length, which the generated
        // heat is priced against.
        self.inputs_dirty = true;
    }

    /// This solver's always-on metric handles. Register them on a
    /// [`telemetry::Registry`] to export them; for a cluster member the
    /// bundle is shared room-wide (see [`ClusterMetrics`]'s docs).
    ///
    /// [`ClusterMetrics`]: super::ClusterMetrics
    pub fn metrics(&self) -> &SolverMetrics {
        &self.metrics
    }

    /// Runtime switch for metric updates (default on). Off makes the
    /// solver skip handle updates entirely — used by the overhead
    /// benchmark to A/B within one binary.
    pub fn set_instrumentation(&mut self, on: bool) {
        self.instrumented = on;
    }

    /// Whether this solver and `other` share one copy of their machine
    /// type's structure (see the type docs).
    #[doc(hidden)]
    pub fn shares_shape_with(&self, other: &Solver) -> bool {
        Arc::ptr_eq(&self.shape, &other.shape)
    }

    /// Whether this solver holds pin storage of its own: a pin list or
    /// a boundary mask it does not share with its machine type. Neither
    /// exists until a node is pinned, nor once every pin is released.
    #[doc(hidden)]
    pub fn holds_pin_storage(&self) -> bool {
        self.forced.capacity() > 0 || !Arc::ptr_eq(&self.fixed, &self.shape.inlet_mask)
    }

    /// Whether this solver and `other` share one compiled kernel,
    /// values included (see the type docs).
    #[doc(hidden)]
    pub fn shares_kernel_with(&self, other: &Solver) -> bool {
        Arc::ptr_eq(&self.kernel, &other.kernel)
    }

    /// Whether this solver and `other` share one kernel structure — the
    /// part of a compiled kernel a fan, heat-k or air-fraction change
    /// leaves alone (see the type docs).
    #[doc(hidden)]
    pub fn shares_kernel_structure_with(&self, other: &Solver) -> bool {
        Arc::ptr_eq(self.kernel.structure(), other.kernel.structure())
    }

    /// Prices this tick's generated heat exactly as [`Solver::step`]
    /// does: recompiles the kernel if dirty, then fills the per-sub-step
    /// heat of every component. The batched cluster kernel calls this
    /// before gathering the machine's state so both paths run the
    /// identical preamble. (The boundary flags need no pricing: pins
    /// update them in place.)
    ///
    /// The heat only changes when a setter ran since the last pricing
    /// (utilization, power model, a kernel rebuild), so unchanged inputs
    /// are reused. Returns whether a repricing happened — the batch
    /// gather rewrites the lane's power rows only then.
    pub(crate) fn fill_tick_inputs(&mut self) -> bool {
        if self.dirty {
            self.refresh();
        }
        if !self.inputs_dirty {
            return false;
        }
        for row in 0..self.shape.components.len() {
            self.power_q[row] = self.price_node(self.shape.components[row]);
        }
        self.inputs_dirty = false;
        true
    }

    /// The heat node `i` generates per sub-step at its current
    /// utilization (Equation 3; zero for an air region, and an
    /// unmonitored component draws its idle power). The compiled kernel
    /// must be current — it is inside a tick and inside a span.
    pub(crate) fn price_node(&self, i: usize) -> f64 {
        match &self.shape.kind[i] {
            NodeRt::Component { power, .. } => {
                let u = self.utilization_at(i);
                crate::physics::heat_generated(power, u, self.kernel.dt_sub()).0
            }
            NodeRt::Air { .. } => 0.0,
        }
    }

    /// `(P_base, P_max − P_base)` when node `i` is a monitored component
    /// with a linear power model — the cells a batch chunk can price in
    /// its own lanes ([`crate::physics::linear_power`]). `None` for
    /// everything else: those go through [`Solver::set_utilization_at`]
    /// and [`Solver::price_node`].
    pub(crate) fn lane_pricing(&self, i: usize) -> Option<(f64, f64)> {
        match &self.shape.kind[i] {
            NodeRt::Component {
                power,
                input: Some(_),
                ..
            } => power.linear_coefficients(),
            _ => None,
        }
    }

    /// Takes back utilization `u` of monitored component `i` together
    /// with the per-sub-step heat `q` a batch chunk priced it at
    /// ([`Solver::lane_pricing`] against this kernel's sub-step) —
    /// exactly what [`Solver::fill_tick_inputs`] would price, so the
    /// inputs are not marked stale and the next gather reprices nothing.
    pub(crate) fn hand_back_priced(&mut self, i: usize, u: f64, q: f64) {
        let NodeRt::Component {
            row,
            input: Some(s),
            ..
        } = self.shape.kind[i]
        else {
            unreachable!("only monitored cells are priced in the lanes");
        };
        self.utilization[s as usize] = Utilization::new(u);
        self.power_q[row as usize] = q;
    }

    /// Whether a power model changed since the last call; clears the
    /// flag. The chunk holding this machine re-reads the lane's pricing
    /// coefficients when set.
    pub(crate) fn take_power_models_dirty(&mut self) -> bool {
        std::mem::take(&mut self.power_models_dirty)
    }

    /// Whether temperatures were written outside a batch chunk since the
    /// last call; clears the flag. The chunk holding this machine
    /// re-reads the whole lane when set.
    pub(crate) fn take_temps_dirty(&mut self) -> bool {
        std::mem::take(&mut self.temps_dirty)
    }

    /// Books `span` ticks stepped outside this solver (by the batched
    /// cluster kernel): heat accounting and the time advance, the
    /// epilogue of [`Solver::step`]. Time advances by repeated addition
    /// — the bit-exact trajectory `span` single steps would produce,
    /// read off `clock` — and `generated` is the per-tick heat (constant
    /// across the span, so the last tick's value equals every tick's). A
    /// span of no ticks books nothing: the chunk may not have run a tick
    /// since it was gathered.
    ///
    /// A diverged machine also books `ticks_stepped`, as it did when it
    /// stepped per-machine: the counter is in the checkpoint format, and
    /// a blob must not record which path stepped a machine.
    pub(crate) fn finish_tick_span(&mut self, generated: f64, span: usize, clock: &mut SpanClock) {
        if span == 0 {
            return;
        }
        self.generated_last_tick = Joules(generated);
        self.time = clock.end(self.time, self.kernel.dt(), span);
        if self.diverged {
            self.ticks_stepped += span as u64;
        }
    }

    /// One kernel tick without the epilogue: what a solo machine runs on
    /// every tick of a cluster call, and the body of [`Solver::step`].
    /// The heat is repriced (and a pending rebuild compiled) only when
    /// something changed since the last pricing — on an in-span tick,
    /// only the call's feed can have. Heat accounting lands immediately;
    /// the time advance and tick bookkeeping are booked once per call
    /// via [`Solver::finish_span`]. The tick writes the kernel's
    /// scratch, so a shared kernel is copied first (and composed anew).
    pub(crate) fn tick_fused(&mut self) {
        self.fill_tick_inputs();
        let kernel = own_kernel(&mut self.kernel);
        let generated = kernel.tick(&mut self.temp, &self.fixed, &self.power_q);
        self.generated_last_tick = Joules(generated);
    }

    /// Epilogue for `span` [`Solver::tick_fused`] ticks: the time
    /// advance (by repeated addition, as `span` single steps make it,
    /// read off `clock`), the tick counter, and the changed-state flag
    /// that makes a batch chunk re-gather this machine's lane.
    pub(crate) fn finish_span(&mut self, span: usize, clock: &mut SpanClock) {
        self.time = clock.end(self.time, self.kernel.dt(), span);
        self.ticks_stepped += span as u64;
        self.temps_dirty = true;
    }

    /// Overwrites the inlet boundary field without touching node
    /// temperatures — a batch chunk carries the field beside its inlet
    /// rows and hands it back when it scatters.
    pub(crate) fn set_inlet_field(&mut self, t: Celsius) {
        self.inlet_temperature = t;
    }

    /// Node indices of the exhaust air regions, in model order (cold:
    /// a batch group reads its representative's once).
    pub(crate) fn exhaust_nodes(&self) -> Vec<usize> {
        (0..self.shape.kind.len())
            .filter(|&i| self.shape.body.nodes[i].is_air_kind(AirKind::Exhaust))
            .collect()
    }

    /// Sub-steps per tick of the currently compiled kernel, without the
    /// laziness of [`Solver::substeps_per_tick`] — callers inside a
    /// fused span know no rebuild can be pending.
    pub(crate) fn current_substeps(&self) -> usize {
        self.kernel.substeps()
    }

    /// Structural fingerprint of the source model, for batch grouping.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.shape.fingerprint
    }

    /// Whether this machine may step on the batched path this tick: no
    /// node is force-pinned (pinning changes the boundary-flag pattern,
    /// which a batch group shares structurally).
    pub(crate) fn batch_eligible(&self) -> bool {
        self.forced.is_empty()
    }

    /// Whether a kernel constant has diverged from the source model, so
    /// the machine needs its own operator weights.
    pub(crate) fn diverged(&self) -> bool {
        self.diverged
    }

    /// Kernel rebuilds so far (never 0 once constructed).
    pub(crate) fn rebuild_epoch(&self) -> u64 {
        self.rebuild_epoch
    }

    /// Component node indices, in node order.
    pub(crate) fn component_nodes(&self) -> &[usize] {
        &self.shape.components
    }

    /// Recompiles the kernel if a change is pending, then exposes it
    /// (a batch group matches its members on the assembled operator).
    pub(crate) fn compiled_kernel(&mut self) -> &StepKernel {
        if self.dirty {
            self.refresh();
        }
        &self.kernel
    }

    /// Composes this machine's tick for `pattern` (its boundary mask,
    /// which must be the machine's) straight into `out`, a per-lane
    /// batch chunk's weight column, compiling a pending rebuild first.
    /// The lane is then the only copy of the weights: a composed tick
    /// the machine's own kernel kept from stepping by itself is dropped.
    pub(crate) fn compose_lane(&mut self, pattern: &TickPattern, out: Column<'_>) {
        if self.dirty {
            self.refresh();
        }
        debug_assert_eq!(
            pattern.fixed[..],
            self.fixed[..],
            "a lane composes for its own mask"
        );
        self.kernel.compose_into(pattern, out);
        if let Some(kernel) = Arc::get_mut(&mut self.kernel) {
            kernel.drop_composed();
        }
    }

    /// The per-tick inputs: the boundary flags (always current) and the
    /// heat priced by [`Solver::fill_tick_inputs`], one value per
    /// component in [`Solver::component_nodes`] order.
    pub(crate) fn tick_inputs(&self) -> (&[bool], &[f64]) {
        (&self.fixed, &self.power_q)
    }

    /// Raw temperature state, for the batch gather.
    pub(crate) fn temps(&self) -> &[Celsius] {
        &self.temp
    }

    /// Raw temperature state, for the batch scatter.
    pub(crate) fn temps_mut(&mut self) -> &mut [Celsius] {
        &mut self.temp
    }

    /// Serializes this machine's mutable state into a `mercury-ckpt-v1`
    /// blob (see `trace::checkpoint` for the layout and contract).
    ///
    /// Only state a tick can change is written: structural data (names,
    /// edge topology, kernels) is rebuilt deterministically from the
    /// model at restore time. Heat-edge conductances and air fractions
    /// *are* written because fiddle commands retune them at runtime.
    pub(crate) fn write_ckpt<S: crate::codec::Sink>(&self, w: &mut crate::codec::Writer<S>) {
        w.str_u16(&self.machine);
        w.f64(self.time.0);
        w.u64(self.ticks_stepped);
        w.f64(self.generated_last_tick.0);
        w.f64(self.fan.0);
        w.f64(self.inlet_temperature.0);
        w.u8(u8::from(self.diverged));
        w.u32(self.temp.len() as u32);
        for i in 0..self.temp.len() {
            w.f64(self.temp[i].0);
            w.f64(self.utilization_at(i).fraction());
            crate::trace::checkpoint::write_opt_f64(w, self.pin(i).map(|t| t.0));
        }
        w.u32(self.shape.heat_edges.len() as u32);
        for &(_, _, k) in &self.shape.heat_edges {
            w.f64(k.0);
        }
        w.u32(self.shape.air_edges.len() as u32);
        for &(_, _, fraction) in &self.shape.air_edges {
            w.f64(fraction);
        }
    }

    /// Restores state written by [`Solver::write_ckpt`] into this solver,
    /// which must have been built from the same machine model.
    ///
    /// Marks the tick inputs stale so the next step re-prices power, and
    /// the kernel dirty when the restored fan or edge constants differ
    /// from the compiled ones — recompilation is deterministic, so a
    /// restored solver continues the checkpointed trajectory
    /// bit-for-bit. Constants equal to the shared ones keep sharing;
    /// different edge constants are written to a copy of the shape.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when the blob is truncated, was
    /// taken from a differently shaped machine, gives a utilization
    /// other than `0.0` to a node that takes none (an air region or an
    /// unmonitored component), or clears the diverged flag while its
    /// fan or edge constants differ from the model's.
    pub(crate) fn read_ckpt(&mut self, r: &mut crate::codec::Reader<&[u8]>) -> Result<(), Error> {
        use crate::trace::checkpoint::{read_count, read_flag, read_opt_f64};
        let name = r.str_u16("machine name")?;
        if name != self.machine {
            return Err(Error::invalid_input(format!(
                "checkpoint machine `{name}` does not match target machine `{}`",
                self.machine
            )));
        }
        self.time = Seconds(r.f64("machine time")?);
        self.ticks_stepped = r.u64("ticks stepped")?;
        self.generated_last_tick = Joules(r.f64("generated heat")?);
        let fan = CubicMetersPerSecond(r.f64("fan")?);
        if fan.0.to_bits() != self.fan.0.to_bits() {
            self.fan = fan;
            self.dirty = true;
        }
        self.inlet_temperature = Celsius(r.f64("inlet temperature")?);
        self.diverged = read_flag(r, "diverged flag")?;
        read_count(r, "node count", self.temp.len())?;
        self.forced.clear();
        for i in 0..self.temp.len() {
            self.temp[i] = Celsius(r.f64("node temperature")?);
            let u = r.f64("node utilization")?;
            match self.input_slot(i) {
                Some(s) => self.utilization[s] = Utilization::new(u),
                None if u.to_bits() != 0.0f64.to_bits() => {
                    return Err(r.invalid(
                        "node utilization",
                        format_args!(
                            "`{}` takes no utilization, but the checkpoint gives it {u}",
                            self.shape.name(i)
                        ),
                    ));
                }
                None => {}
            }
            if let Some(t) = read_opt_f64(r, "forced temperature")? {
                self.forced.push((i, Celsius(t)));
            }
        }
        self.fixed = Arc::clone(&self.shape.inlet_mask);
        if self.forced.is_empty() {
            self.forced = Vec::new();
        } else {
            let fixed = own_mask(&mut self.fixed);
            for &(i, _) in &self.forced {
                fixed[i] = true;
            }
        }
        read_count(r, "heat edge count", self.shape.heat_edges.len())?;
        for e in 0..self.shape.heat_edges.len() {
            let k = r.f64("heat conductance")?;
            if k.to_bits() != self.shape.heat_edges[e].2 .0.to_bits() {
                Arc::make_mut(&mut self.shape).heat_edges[e].2 = WattsPerKelvin(k);
                self.dirty = true;
            }
        }
        read_count(r, "air edge count", self.shape.air_edges.len())?;
        for e in 0..self.shape.air_edges.len() {
            let fraction = r.f64("air fraction")?;
            if fraction.to_bits() != self.shape.air_edges[e].2.to_bits() {
                Arc::make_mut(&mut self.shape).air_edges[e].2 = fraction;
                self.dirty = true;
            }
        }
        // An undiverged machine steps on its group's shared weights, so
        // its constants must be the model's.
        if !self.diverged && !self.shape.is_model(self.fan) {
            return Err(Error::invalid_input(format!(
                "checkpoint machine `{name}` is marked undiverged, but its fan or edge \
                 constants differ from the model's"
            )));
        }
        // Input re-pricing and a lane re-gather on the next tick, plus
        // the kernel rebuild if `dirty`; all are pure functions of the
        // state restored above.
        self.inputs_dirty = true;
        self.temps_dirty = true;
        Ok(())
    }

    /// Advances the emulation by one tick of [`SolverConfig::dt`] seconds.
    ///
    /// The graph arithmetic (Equations 2, 3, and 5 plus advection) runs in
    /// the compiled `StepKernel`; this method only refreshes the kernel
    /// when dirty and prices the per-tick inputs — boundary flags and the
    /// per-sub-step generated heat, both constant within a tick. It is
    /// the tick a solo machine runs inside a cluster call
    /// (`Solver::tick_fused`), its epilogue (`Solver::finish_span`
    /// of one tick) and the counters.
    pub fn step(&mut self) {
        // The counters never touch the arithmetic, so trajectories are
        // identical with instrumentation on or off.
        self.tick_fused();
        self.finish_span(1, &mut SpanClock::default());
        if self.instrumented {
            self.metrics.ticks.inc();
            self.metrics.substeps.add(self.kernel.substeps() as u64);
        }
    }

    /// Advances the emulation by `ticks` ticks: [`Solver::step`] in a
    /// loop.
    pub fn step_for(&mut self, ticks: usize) {
        for _ in 0..ticks {
            self.step();
        }
    }

    /// Steps until every temperature changes by less than `tolerance`
    /// Kelvin per tick, or until `max_ticks` elapse. Returns the number of
    /// ticks taken and whether the run converged.
    pub fn run_to_steady_state(&mut self, tolerance: f64, max_ticks: usize) -> (usize, bool) {
        let mut prev: Vec<f64> = self.temp.iter().map(|t| t.0).collect();
        for tick in 1..=max_ticks {
            self.step();
            let max_delta = self
                .temp
                .iter()
                .zip(&prev)
                .map(|(t, p)| (t.0 - p).abs())
                .fold(0.0_f64, f64::max);
            if max_delta < tolerance {
                return (tick, true);
            }
            prev.iter_mut().zip(&self.temp).for_each(|(p, t)| *p = t.0);
        }
        (max_ticks, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MachineModel;

    fn two_body_model() -> MachineModel {
        // A closed system: two components coupled by one heat edge, no air.
        let mut b = MachineModel::builder("closed");
        b.component("hot")
            .mass_kg(1.0)
            .specific_heat(1000.0)
            .constant_power(0.0);
        b.component("cold")
            .mass_kg(1.0)
            .specific_heat(1000.0)
            .constant_power(0.0);
        b.heat_edge("hot", "cold", 5.0).unwrap();
        b.build().unwrap()
    }

    fn flow_model() -> MachineModel {
        let mut b = MachineModel::builder("flow");
        b.component("cpu")
            .mass_kg(0.151)
            .specific_heat(896.0)
            .power_range(7.0, 31.0);
        b.inlet("inlet");
        b.air("cpu_air");
        b.exhaust("exhaust");
        b.heat_edge("cpu", "cpu_air", 0.75).unwrap();
        b.air_edge("inlet", "cpu_air", 1.0).unwrap();
        b.air_edge("cpu_air", "exhaust", 1.0).unwrap();
        b.fan_cfm(38.6);
        b.inlet_temperature_c(21.6);
        b.build().unwrap()
    }

    #[test]
    fn closed_system_conserves_energy_and_equalizes() {
        let model = two_body_model();
        let mut s = Solver::new(&model, SolverConfig::default()).unwrap();
        s.set_temperature("hot", Celsius(80.0)).unwrap();
        s.set_temperature("cold", Celsius(20.0)).unwrap();
        let before = s.heat_content();
        s.step_for(5000);
        let after = s.heat_content();
        assert!(
            (before.0 - after.0).abs() < 1e-6,
            "energy drifted by {}",
            after.0 - before.0
        );
        let hot = s.temperature("hot").unwrap().0;
        let cold = s.temperature("cold").unwrap().0;
        assert!((hot - 50.0).abs() < 0.01, "hot settled at {hot}");
        assert!((cold - 50.0).abs() < 0.01, "cold settled at {cold}");
    }

    #[test]
    fn heat_always_flows_hot_to_cold() {
        let model = two_body_model();
        let mut s = Solver::new(&model, SolverConfig::default()).unwrap();
        s.set_temperature("hot", Celsius(80.0)).unwrap();
        s.set_temperature("cold", Celsius(20.0)).unwrap();
        let mut prev_hot = 80.0;
        let mut prev_cold = 20.0;
        for _ in 0..100 {
            s.step();
            let hot = s.temperature("hot").unwrap().0;
            let cold = s.temperature("cold").unwrap().0;
            assert!(hot <= prev_hot + 1e-12);
            assert!(cold >= prev_cold - 1e-12);
            assert!(hot >= cold - 1e-12, "temperatures crossed: {hot} < {cold}");
            prev_hot = hot;
            prev_cold = cold;
        }
    }

    #[test]
    fn cpu_air_steady_state_matches_analytic_rise() {
        // With the full fan flow over the CPU air, the steady-state air
        // rise is P / (ṁ·c) and the CPU sits k⁻¹·P above its air.
        let model = flow_model();
        let mut s = Solver::new(&model, SolverConfig::default()).unwrap();
        s.set_utilization("cpu", 1.0).unwrap();
        let (_, converged) = s.run_to_steady_state(1e-6, 20_000);
        assert!(converged);
        let m_dot = model.fan().mass_flow().0;
        let expected_air = 21.6 + 31.0 / (m_dot * 1005.0);
        let air = s.temperature("cpu_air").unwrap().0;
        assert!(
            (air - expected_air).abs() < 0.05,
            "air {air} vs analytic {expected_air}"
        );
        let cpu = s.temperature("cpu").unwrap().0;
        let expected_cpu = expected_air + 31.0 / 0.75;
        assert!(
            (cpu - expected_cpu).abs() < 0.1,
            "cpu {cpu} vs analytic {expected_cpu}"
        );
    }

    #[test]
    fn utilization_changes_power_and_temperature() {
        let model = flow_model();
        let mut s = Solver::new(&model, SolverConfig::default()).unwrap();
        s.set_utilization("cpu", 0.0).unwrap();
        s.run_to_steady_state(1e-6, 20_000);
        let idle = s.temperature("cpu").unwrap().0;
        s.set_utilization("cpu", 1.0).unwrap();
        s.run_to_steady_state(1e-6, 20_000);
        let busy = s.temperature("cpu").unwrap().0;
        assert!(busy > idle + 20.0, "idle {idle}, busy {busy}");
    }

    #[test]
    fn inlet_temperature_shift_propagates_downstream() {
        let model = flow_model();
        let mut s = Solver::new(&model, SolverConfig::default()).unwrap();
        s.set_utilization("cpu", 0.5).unwrap();
        s.run_to_steady_state(1e-6, 20_000);
        let before = s.temperature("cpu").unwrap().0;
        s.set_inlet_temperature(Celsius(30.0));
        s.run_to_steady_state(1e-6, 20_000);
        let after = s.temperature("cpu").unwrap().0;
        // An 8.4 K inlet rise moves the whole chain up by ~8.4 K.
        assert!(
            (after - before - 8.4).abs() < 0.1,
            "before {before}, after {after}"
        );
    }

    #[test]
    fn forced_temperature_pins_until_release() {
        let model = flow_model();
        let mut s = Solver::new(&model, SolverConfig::default()).unwrap();
        s.force_temperature("cpu", Celsius(99.0)).unwrap();
        s.step_for(100);
        assert_eq!(s.temperature("cpu").unwrap(), Celsius(99.0));
        s.release_temperature("cpu").unwrap();
        s.step_for(500);
        assert!(s.temperature("cpu").unwrap().0 < 99.0);
    }

    #[test]
    fn faster_fan_cools_the_cpu() {
        let model = flow_model();
        let mut s = Solver::new(&model, SolverConfig::default()).unwrap();
        s.set_utilization("cpu", 1.0).unwrap();
        s.run_to_steady_state(1e-6, 20_000);
        let slow = s.temperature("cpu").unwrap().0;
        s.set_fan_cfm(77.2).unwrap();
        s.run_to_steady_state(1e-6, 20_000);
        let fast = s.temperature("cpu").unwrap().0;
        // Doubling the flow halves the air-side rise (P/(ṁ·c) ≈ 1.4 K at
        // 38.6 cfm); the die-to-air drop is k-limited and flow-independent
        // in this model, so the total improvement is modest but real.
        assert!(fast < slow - 0.5, "slow fan {slow}, fast fan {fast}");
    }

    #[test]
    fn set_heat_k_and_air_fraction_validate() {
        let model = flow_model();
        let mut s = Solver::new(&model, SolverConfig::default()).unwrap();
        assert!(s.set_heat_k("cpu", "cpu_air", 1.5).is_ok());
        assert!(s.set_heat_k("cpu", "exhaust", 1.0).is_err());
        assert!(s.set_heat_k("cpu", "cpu_air", 0.0).is_err());
        assert!(s.set_air_fraction("inlet", "cpu_air", 0.9).is_ok());
        assert!(s.set_air_fraction("inlet", "exhaust", 0.5).is_err());
        assert!(s.set_air_fraction("cpu_air", "exhaust", 1.1).is_err());
    }

    #[test]
    fn air_fraction_overcommit_is_rejected_at_runtime() {
        let mut b = MachineModel::builder("m");
        b.inlet("inlet");
        b.air("a");
        b.air("b");
        b.exhaust("exhaust");
        b.air_edge("inlet", "a", 0.5).unwrap();
        b.air_edge("inlet", "b", 0.5).unwrap();
        b.air_edge("a", "exhaust", 1.0).unwrap();
        b.air_edge("b", "exhaust", 1.0).unwrap();
        let model = b.build().unwrap();
        let mut s = Solver::new(&model, SolverConfig::default()).unwrap();
        // raising inlet->a to 0.6 would overcommit 0.6+0.5.
        assert!(s.set_air_fraction("inlet", "a", 0.6).is_err());
        assert!(s.set_air_fraction("inlet", "a", 0.4).is_ok());
    }

    #[test]
    fn unknown_names_error() {
        let model = flow_model();
        let mut s = Solver::new(&model, SolverConfig::default()).unwrap();
        assert!(matches!(
            s.temperature("ghost"),
            Err(Error::UnknownNode { .. })
        ));
        assert!(s.set_utilization("ghost", 0.5).is_err());
        assert!(s.set_utilization("cpu_air", 0.5).is_err());
        assert!(s.force_temperature("ghost", Celsius(1.0)).is_err());
    }

    #[test]
    fn config_validation() {
        let model = flow_model();
        let bad = SolverConfig {
            dt: Seconds(0.0),
            ..SolverConfig::default()
        };
        assert!(Solver::new(&model, bad).is_err());
        let bad = SolverConfig {
            stability_limit: 0.0,
            ..SolverConfig::default()
        };
        assert!(Solver::new(&model, bad).is_err());
        let bad = SolverConfig {
            stability_limit: 2.0,
            ..SolverConfig::default()
        };
        assert!(Solver::new(&model, bad).is_err());
    }

    #[test]
    fn time_advances_by_dt() {
        let model = flow_model();
        let mut s = Solver::new(&model, SolverConfig::default()).unwrap();
        s.step_for(10);
        assert!((s.time().0 - 10.0).abs() < 1e-12);
        let cfg = SolverConfig {
            dt: Seconds(0.5),
            ..SolverConfig::default()
        };
        let mut s = Solver::new(&model, cfg).unwrap();
        s.step_for(10);
        assert!((s.time().0 - 5.0).abs() < 1e-12);
    }

    #[test]
    fn smaller_dt_agrees_with_default_dt() {
        // The sub-stepping should make tick size nearly irrelevant.
        let model = flow_model();
        let mut coarse = Solver::new(&model, SolverConfig::default()).unwrap();
        let fine_cfg = SolverConfig {
            dt: Seconds(0.1),
            ..SolverConfig::default()
        };
        let mut fine = Solver::new(&model, fine_cfg).unwrap();
        coarse.set_utilization("cpu", 0.8).unwrap();
        fine.set_utilization("cpu", 0.8).unwrap();
        coarse.step_for(300);
        fine.step_for(3000);
        let tc = coarse.temperature("cpu").unwrap().0;
        let tf = fine.temperature("cpu").unwrap().0;
        assert!((tc - tf).abs() < 0.05, "coarse {tc} vs fine {tf}");
    }

    #[test]
    fn generated_heat_accounting() {
        let model = flow_model();
        let mut s = Solver::new(&model, SolverConfig::default()).unwrap();
        s.set_utilization("cpu", 1.0).unwrap();
        s.step();
        // CPU at 31 W for 1 s.
        assert!((s.generated_last_tick().0 - 31.0).abs() < 1e-9);
    }

    #[test]
    fn monitored_components_listing() {
        let model = flow_model();
        let s = Solver::new(&model, SolverConfig::default()).unwrap();
        assert_eq!(s.monitored_components(), vec!["cpu"]);
        assert_eq!(s.machine_name(), "flow");
        assert_eq!(s.node_names().count(), 4);
    }
}
