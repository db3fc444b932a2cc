//! The per-machine model: heat-flow and air-flow graphs plus constants.

use super::node::{AirKind, AirSpec, ComponentSpec, NodeId, NodeSpec, DEFAULT_AIR_REGION_MASS_KG};
use crate::error::Error;
use crate::physics::PowerModel;
use crate::units::{Celsius, CubicMetersPerSecond, JoulesPerKgKelvin, Kilograms, WattsPerKelvin};
use std::collections::HashMap;
use std::sync::Arc;

/// An undirected heat-flow edge (Figure 1a): heat moves between `a` and
/// `b` in proportion to their temperature difference, at `k` W/K.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeatEdge {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Heat-transfer coefficient × surface area, W/K.
    pub k: WattsPerKelvin,
}

/// A directed air-flow edge (Figure 1b): `fraction` of the air leaving
/// `from` enters `to`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AirEdge {
    /// Upstream air region.
    pub from: NodeId,
    /// Downstream air region.
    pub to: NodeId,
    /// Fraction of the upstream region's outflow carried by this edge, in
    /// `(0, 1]`. The fractions leaving one region may sum to less than 1
    /// (leakage out of the case) but never more.
    pub fraction: f64,
}

/// A complete, validated single-machine thermal model.
///
/// Build one with [`MachineModel::builder`], the only way to make one, so
/// every model has passed the builder's validation; see
/// [`crate::presets`] for the paper's Table 1 server. The model is
/// immutable — runtime changes (emergencies, fan-speed changes) are
/// applied to a [`crate::solver::Solver`], which never writes back to it.
///
/// A model is its name plus a shared, immutable body (nodes, edges, fan,
/// inlet temperature, topological order): cloning it or
/// [renaming](MachineModel::renamed) it shares the body, so a room of
/// replicas holds one machine description, not one per replica.
#[derive(Debug, Clone)]
pub struct MachineModel {
    name: String,
    body: Arc<MachineBody>,
}

/// Everything about a machine but its name — what replicas share.
#[derive(Debug, PartialEq)]
pub(crate) struct MachineBody {
    pub(crate) nodes: Vec<NodeSpec>,
    pub(crate) heat_edges: Vec<HeatEdge>,
    pub(crate) air_edges: Vec<AirEdge>,
    pub(crate) fan: CubicMetersPerSecond,
    pub(crate) inlet_temperature: Celsius,
    /// Air nodes in a topological order of the air-flow graph.
    pub(crate) topo_order: Vec<NodeId>,
}

impl PartialEq for MachineModel {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && (Arc::ptr_eq(&self.body, &other.body) || self.body == other.body)
    }
}

impl MachineModel {
    /// Starts building a machine model with the given name.
    pub fn builder(name: impl Into<String>) -> MachineBuilder {
        MachineBuilder::new(name)
    }

    /// The machine's name (e.g. `"machine1"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nodes, indexable by [`NodeId::index`].
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.body.nodes
    }

    /// The undirected heat-flow edges.
    pub fn heat_edges(&self) -> &[HeatEdge] {
        &self.body.heat_edges
    }

    /// The directed air-flow edges.
    pub fn air_edges(&self) -> &[AirEdge] {
        &self.body.air_edges
    }

    /// The fan's volumetric flow.
    pub fn fan(&self) -> CubicMetersPerSecond {
        self.body.fan
    }

    /// The default inlet-air boundary temperature.
    pub fn inlet_temperature(&self) -> Celsius {
        self.body.inlet_temperature
    }

    /// Air nodes in topological (upstream-to-downstream) order.
    pub fn topo_order(&self) -> &[NodeId] {
        &self.body.topo_order
    }

    /// Looks a node up by name.
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.body
            .nodes
            .iter()
            .position(|n| n.name() == name)
            .map(|i| NodeId(i as u32))
    }

    /// The spec of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this model.
    pub fn node(&self, id: NodeId) -> &NodeSpec {
        &self.body.nodes[id.index()]
    }

    /// Names of all monitored components (the ones `monitord` reports
    /// utilizations for), in insertion order.
    pub fn monitored_components(&self) -> Vec<&str> {
        self.body
            .nodes
            .iter()
            .filter_map(|n| n.as_component())
            .filter(|c| c.monitored)
            .map(|c| c.name.as_str())
            .collect()
    }

    /// Ids of all inlet air nodes.
    pub fn inlets(&self) -> Vec<NodeId> {
        self.air_ids(AirKind::Inlet)
    }

    /// Ids of all exhaust air nodes.
    pub fn exhausts(&self) -> Vec<NodeId> {
        self.air_ids(AirKind::Exhaust)
    }

    fn air_ids(&self, kind: AirKind) -> Vec<NodeId> {
        self.body
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_air_kind(kind))
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Returns this model under a different machine name, sharing its
    /// body — useful for replicating one calibrated server into a
    /// cluster (§2: "replicating these traces allows Mercury to emulate
    /// large cluster installations").
    pub fn renamed(&self, name: impl Into<String>) -> MachineModel {
        MachineModel {
            name: name.into(),
            body: Arc::clone(&self.body),
        }
    }

    /// The shared body, which a cluster solver interns machine types by.
    pub(crate) fn body(&self) -> &Arc<MachineBody> {
        &self.body
    }

    /// A hash of everything the step kernel's constants derive from:
    /// node kinds and heat capacities, air-region kinds and masses, both
    /// edge lists (indices and rate constants), the air topological
    /// order, and the fan's mass flow.
    ///
    /// Two machines with equal fingerprints compile to identical kernels
    /// and can be stepped together by the batched cluster kernel. Names,
    /// power models, and the inlet boundary temperature are deliberately
    /// excluded: they are per-machine *inputs* (utilization-driven heat
    /// and boundary data), not stepping structure, so trace-replicated
    /// machines batch even when each replica runs a different workload.
    pub fn structural_fingerprint(&self) -> u64 {
        self.body.fingerprint()
    }
}

impl MachineBody {
    /// [`MachineModel::structural_fingerprint`].
    pub(crate) fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.nodes.len().hash(&mut h);
        for node in &self.nodes {
            match node {
                NodeSpec::Component(c) => {
                    0u8.hash(&mut h);
                    c.capacity().0.to_bits().hash(&mut h);
                }
                NodeSpec::Air(a) => {
                    1u8.hash(&mut h);
                    (a.kind as u8).hash(&mut h);
                    a.mass_kg.to_bits().hash(&mut h);
                }
            }
        }
        self.heat_edges.len().hash(&mut h);
        for e in &self.heat_edges {
            e.a.0.hash(&mut h);
            e.b.0.hash(&mut h);
            e.k.0.to_bits().hash(&mut h);
        }
        self.air_edges.len().hash(&mut h);
        for e in &self.air_edges {
            e.from.0.hash(&mut h);
            e.to.0.hash(&mut h);
            e.fraction.to_bits().hash(&mut h);
        }
        for id in &self.topo_order {
            id.0.hash(&mut h);
        }
        self.fan.mass_flow().0.to_bits().hash(&mut h);
        h.finish()
    }
}

/// Handle returned by [`MachineBuilder::component`] for fluent per-component
/// configuration.
#[derive(Debug)]
pub struct ComponentHandle<'a> {
    builder: &'a mut MachineBuilder,
    index: usize,
}

impl ComponentHandle<'_> {
    fn spec(&mut self) -> &mut ComponentSpec {
        match &mut self.builder.nodes[self.index] {
            NodeSpec::Component(c) => c,
            NodeSpec::Air(_) => unreachable!("component handle points at an air node"),
        }
    }

    /// Sets the component's mass in kilograms.
    pub fn mass_kg(&mut self, kg: f64) -> &mut Self {
        self.spec().mass = Kilograms(kg);
        self
    }

    /// Sets the specific heat capacity in J/(kg·K).
    pub fn specific_heat(&mut self, c: f64) -> &mut Self {
        self.spec().specific_heat = JoulesPerKgKelvin(c);
        self
    }

    /// Uses the linear power model `P(u) = base + u·(max−base)` (Equation 4).
    pub fn power_range(&mut self, base_w: f64, max_w: f64) -> &mut Self {
        self.spec().power = PowerModel::linear(base_w, max_w);
        self
    }

    /// Uses a constant power draw and marks the component unmonitored
    /// (e.g. the power supply and motherboard in Table 1).
    pub fn constant_power(&mut self, watts: f64) -> &mut Self {
        let spec = self.spec();
        spec.power = PowerModel::Constant(crate::units::Watts(watts));
        spec.monitored = false;
        self
    }

    /// Replaces the power model wholesale.
    pub fn power_model(&mut self, model: PowerModel) -> &mut Self {
        self.spec().power = model;
        self
    }

    /// Marks whether `monitord` reports a utilization for this component.
    pub fn monitored(&mut self, yes: bool) -> &mut Self {
        self.spec().monitored = yes;
        self
    }
}

/// Incremental builder for [`MachineModel`].
///
/// ```
/// use mercury::model::MachineModel;
///
/// # fn main() -> Result<(), mercury::Error> {
/// let mut b = MachineModel::builder("demo");
/// b.component("cpu").mass_kg(0.151).specific_heat(896.0).power_range(7.0, 31.0);
/// b.inlet("inlet");
/// b.air("cpu_air");
/// b.exhaust("exhaust");
/// b.heat_edge("cpu", "cpu_air", 0.75)?;
/// b.air_edge("inlet", "cpu_air", 1.0)?;
/// b.air_edge("cpu_air", "exhaust", 1.0)?;
/// b.fan_cfm(38.6).inlet_temperature_c(21.6);
/// let model = b.build()?;
/// assert_eq!(model.nodes().len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MachineBuilder {
    name: String,
    nodes: Vec<NodeSpec>,
    heat_edges: Vec<(String, String, WattsPerKelvin)>,
    air_edges: Vec<(String, String, f64)>,
    fan: CubicMetersPerSecond,
    inlet_temperature: Celsius,
}

impl MachineBuilder {
    /// Creates a builder for a machine with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        MachineBuilder {
            name: name.into(),
            nodes: Vec::new(),
            heat_edges: Vec::new(),
            air_edges: Vec::new(),
            fan: CubicMetersPerSecond::from_cfm(38.6),
            inlet_temperature: Celsius(21.6),
        }
    }

    /// Adds a hardware component with placeholder constants (1 kg of
    /// aluminium, no power draw) and returns a handle to configure it.
    pub fn component(&mut self, name: impl Into<String>) -> ComponentHandle<'_> {
        self.nodes.push(NodeSpec::Component(ComponentSpec {
            name: name.into(),
            mass: Kilograms(1.0),
            specific_heat: JoulesPerKgKelvin(896.0),
            power: PowerModel::Constant(crate::units::Watts(0.0)),
            monitored: true,
        }));
        let index = self.nodes.len() - 1;
        ComponentHandle {
            builder: self,
            index,
        }
    }

    /// Adds an interior air region with the default effective mass.
    pub fn air(&mut self, name: impl Into<String>) -> &mut Self {
        self.air_with_mass(name, DEFAULT_AIR_REGION_MASS_KG, AirKind::Internal)
    }

    /// Adds an inlet air region (temperature boundary).
    pub fn inlet(&mut self, name: impl Into<String>) -> &mut Self {
        self.air_with_mass(name, DEFAULT_AIR_REGION_MASS_KG, AirKind::Inlet)
    }

    /// Adds an exhaust air region (terminal).
    pub fn exhaust(&mut self, name: impl Into<String>) -> &mut Self {
        self.air_with_mass(name, DEFAULT_AIR_REGION_MASS_KG, AirKind::Exhaust)
    }

    /// Adds an air region with an explicit effective mass and kind.
    pub fn air_with_mass(
        &mut self,
        name: impl Into<String>,
        mass_kg: f64,
        kind: AirKind,
    ) -> &mut Self {
        self.nodes.push(NodeSpec::Air(AirSpec {
            name: name.into(),
            kind,
            mass_kg,
        }));
        self
    }

    /// Connects two nodes with an undirected heat-flow edge at `k` W/K.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNode`] if either endpoint has not been added
    /// yet, and [`Error::InvalidInput`] for a non-positive `k` or a
    /// self-loop.
    pub fn heat_edge(&mut self, a: &str, b: &str, k: f64) -> Result<&mut Self, Error> {
        if a == b {
            return Err(Error::invalid_input(format!(
                "heat edge `{a}` -- `{b}` is a self-loop"
            )));
        }
        if !k.is_finite() || k <= 0.0 {
            return Err(Error::invalid_input(format!(
                "heat edge `{a}` -- `{b}` has non-positive k {k}"
            )));
        }
        self.require_node(a)?;
        self.require_node(b)?;
        self.heat_edges
            .push((a.to_string(), b.to_string(), WattsPerKelvin(k)));
        Ok(self)
    }

    /// Connects two air regions with a directed air-flow edge carrying
    /// `fraction` of the upstream outflow.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNode`] for missing endpoints and
    /// [`Error::InvalidInput`] for fractions outside `(0, 1]`, self-loops,
    /// or endpoints that are not air regions.
    pub fn air_edge(&mut self, from: &str, to: &str, fraction: f64) -> Result<&mut Self, Error> {
        if from == to {
            return Err(Error::invalid_input(format!(
                "air edge `{from}` -> `{to}` is a self-loop"
            )));
        }
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(Error::invalid_input(format!(
                "air edge `{from}` -> `{to}` has fraction {fraction} outside (0, 1]"
            )));
        }
        for name in [from, to] {
            let node = self.require_node(name)?;
            if node.as_air().is_none() {
                return Err(Error::invalid_input(format!(
                    "air edge endpoint `{name}` is a component, not an air region"
                )));
            }
        }
        self.air_edges
            .push((from.to_string(), to.to_string(), fraction));
        Ok(self)
    }

    /// Sets the fan's volumetric flow in ft³/min (Table 1 uses 38.6).
    pub fn fan_cfm(&mut self, cfm: f64) -> &mut Self {
        self.fan = CubicMetersPerSecond::from_cfm(cfm);
        self
    }

    /// Sets the default inlet-air temperature in °C.
    pub fn inlet_temperature_c(&mut self, celsius: f64) -> &mut Self {
        self.inlet_temperature = Celsius(celsius);
        self
    }

    fn require_node(&self, name: &str) -> Result<&NodeSpec, Error> {
        self.nodes
            .iter()
            .find(|n| n.name() == name)
            .ok_or_else(|| Error::unknown_node(name))
    }

    /// Validates every invariant and produces the immutable model.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidModel`] when:
    /// - the machine name or any node spec is invalid,
    /// - node names collide,
    /// - a heat edge is duplicated,
    /// - the air-flow fractions leaving any region sum to more than 1,
    /// - an inlet has incoming air edges, or an exhaust has outgoing ones,
    /// - the air-flow graph contains a cycle,
    /// - the fan flow is non-positive while air edges exist.
    pub fn build(&self) -> Result<MachineModel, Error> {
        if self.name.is_empty() {
            return Err(Error::invalid_model("machine name is empty"));
        }
        let mut by_name: HashMap<&str, NodeId> = HashMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            node.validate().map_err(Error::invalid_model)?;
            if by_name.insert(node.name(), NodeId(i as u32)).is_some() {
                return Err(Error::invalid_model(format!(
                    "duplicate node name `{}`",
                    node.name()
                )));
            }
        }

        let mut heat_edges = Vec::with_capacity(self.heat_edges.len());
        let mut seen_pairs = std::collections::HashSet::new();
        for (a, b, k) in &self.heat_edges {
            let ia = by_name[a.as_str()];
            let ib = by_name[b.as_str()];
            let key = (ia.min(ib), ia.max(ib));
            if !seen_pairs.insert(key) {
                return Err(Error::invalid_model(format!(
                    "duplicate heat edge `{a}` -- `{b}`"
                )));
            }
            heat_edges.push(HeatEdge {
                a: ia,
                b: ib,
                k: *k,
            });
        }

        let mut air_edges = Vec::with_capacity(self.air_edges.len());
        let mut outgoing: HashMap<NodeId, f64> = HashMap::new();
        let mut seen_air = std::collections::HashSet::new();
        for (from, to, fraction) in &self.air_edges {
            let ifrom = by_name[from.as_str()];
            let ito = by_name[to.as_str()];
            if !seen_air.insert((ifrom, ito)) {
                return Err(Error::invalid_model(format!(
                    "duplicate air edge `{from}` -> `{to}`"
                )));
            }
            if self.nodes[ito.index()].is_air_kind(AirKind::Inlet) {
                return Err(Error::invalid_model(format!(
                    "air edge `{from}` -> `{to}` flows into an inlet; inlets are boundaries"
                )));
            }
            if self.nodes[ifrom.index()].is_air_kind(AirKind::Exhaust) {
                return Err(Error::invalid_model(format!(
                    "air edge `{from}` -> `{to}` leaves an exhaust; exhausts are terminal"
                )));
            }
            *outgoing.entry(ifrom).or_insert(0.0) += fraction;
            air_edges.push(AirEdge {
                from: ifrom,
                to: ito,
                fraction: *fraction,
            });
        }
        for (id, total) in &outgoing {
            if *total > 1.0 + 1e-9 {
                return Err(Error::invalid_model(format!(
                    "air fractions leaving `{}` sum to {total:.4} > 1",
                    self.nodes[id.index()].name()
                )));
            }
        }
        if !air_edges.is_empty() && (self.fan.0.is_nan() || self.fan.0 <= 0.0) {
            return Err(Error::invalid_model(
                "air edges exist but fan flow is non-positive",
            ));
        }

        let topo_order = topo_sort_air(&self.nodes, &air_edges)?;

        Ok(MachineModel {
            name: self.name.clone(),
            body: Arc::new(MachineBody {
                nodes: self.nodes.clone(),
                heat_edges,
                air_edges,
                fan: self.fan,
                inlet_temperature: self.inlet_temperature,
                topo_order,
            }),
        })
    }
}

/// Kahn's algorithm over the air nodes; errors on a cycle.
fn topo_sort_air(nodes: &[NodeSpec], edges: &[AirEdge]) -> Result<Vec<NodeId>, Error> {
    let n = nodes.len();
    let mut indegree = vec![0usize; n];
    let mut is_air = vec![false; n];
    for (i, node) in nodes.iter().enumerate() {
        is_air[i] = node.as_air().is_some();
    }
    for e in edges {
        indegree[e.to.index()] += 1;
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| is_air[i] && indegree[i] == 0).collect();
    // Deterministic order: process lowest index first.
    queue.sort_unstable();
    let mut order = Vec::new();
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        order.push(NodeId(u as u32));
        let mut newly_ready: Vec<usize> = Vec::new();
        for e in edges.iter().filter(|e| e.from.index() == u) {
            let v = e.to.index();
            indegree[v] -= 1;
            if indegree[v] == 0 {
                newly_ready.push(v);
            }
        }
        newly_ready.sort_unstable();
        queue.extend(newly_ready);
    }
    let air_count = is_air.iter().filter(|&&b| b).count();
    if order.len() != air_count {
        return Err(Error::invalid_model("air-flow graph contains a cycle"));
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_builder() -> MachineBuilder {
        let mut b = MachineModel::builder("m");
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
        b
    }

    #[test]
    fn builds_a_minimal_machine() {
        let model = tiny_builder().build().unwrap();
        assert_eq!(model.name(), "m");
        assert_eq!(model.nodes().len(), 4);
        assert_eq!(model.heat_edges().len(), 1);
        assert_eq!(model.air_edges().len(), 2);
        assert_eq!(model.monitored_components(), vec!["cpu"]);
        assert_eq!(model.inlets().len(), 1);
        assert_eq!(model.exhausts().len(), 1);
    }

    #[test]
    fn node_lookup_by_name() {
        let model = tiny_builder().build().unwrap();
        let id = model.node_id("cpu_air").unwrap();
        assert_eq!(model.node(id).name(), "cpu_air");
        assert!(model.node_id("nope").is_none());
    }

    #[test]
    fn topo_order_is_upstream_first() {
        let model = tiny_builder().build().unwrap();
        let order: Vec<&str> = model
            .topo_order()
            .iter()
            .map(|id| model.node(*id).name())
            .collect();
        let inlet_pos = order.iter().position(|n| *n == "inlet").unwrap();
        let cpu_air_pos = order.iter().position(|n| *n == "cpu_air").unwrap();
        let exhaust_pos = order.iter().position(|n| *n == "exhaust").unwrap();
        assert!(inlet_pos < cpu_air_pos && cpu_air_pos < exhaust_pos);
    }

    #[test]
    fn rejects_duplicate_node_names() {
        let mut b = MachineModel::builder("m");
        b.component("cpu");
        b.air("cpu");
        assert!(matches!(b.build(), Err(Error::InvalidModel { .. })));
    }

    #[test]
    fn rejects_duplicate_heat_edges_even_reversed() {
        let mut b = tiny_builder();
        b.heat_edge("cpu_air", "cpu", 0.5).unwrap();
        assert!(matches!(b.build(), Err(Error::InvalidModel { .. })));
    }

    #[test]
    fn rejects_overcommitted_air_fractions() {
        let mut b = tiny_builder();
        b.air("extra");
        b.air_edge("inlet", "extra", 0.5).unwrap();
        // inlet now emits 1.0 + 0.5.
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("sum to"), "{err}");
    }

    #[test]
    fn rejects_flow_into_inlet_and_out_of_exhaust() {
        // Endpoint roles are validated at build time, not add time.
        let mut b = tiny_builder();
        b.air("side");
        b.air_edge("side", "inlet", 1.0).unwrap();
        assert!(b.build().is_err());

        let mut b = tiny_builder();
        b.air("side");
        b.air_edge("exhaust", "side", 1.0).unwrap();
        assert!(b.build().is_err());
    }

    #[test]
    fn rejects_air_cycles() {
        let mut b = MachineModel::builder("m");
        b.inlet("inlet");
        b.air("a");
        b.air("b");
        b.air_edge("inlet", "a", 0.5).unwrap();
        b.air_edge("a", "b", 1.0).unwrap();
        b.air_edge("b", "a", 1.0).unwrap();
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
    }

    #[test]
    fn rejects_bad_edge_inputs() {
        let mut b = tiny_builder();
        assert!(b.heat_edge("cpu", "cpu", 1.0).is_err());
        assert!(b.heat_edge("cpu", "cpu_air", 0.0).is_err());
        assert!(b.heat_edge("cpu", "ghost", 1.0).is_err());
        assert!(b.air_edge("inlet", "inlet", 0.5).is_err());
        assert!(b.air_edge("inlet", "cpu", 0.5).is_err());
        assert!(b.air_edge("inlet", "cpu_air", 0.0).is_err());
        assert!(b.air_edge("inlet", "cpu_air", 1.5).is_err());
    }

    #[test]
    fn rejects_zero_fan_with_air_edges() {
        let mut b = tiny_builder();
        b.fan_cfm(0.0);
        assert!(b.build().is_err());
    }

    #[test]
    fn renamed_copies_everything_but_the_name() {
        let model = tiny_builder().build().unwrap();
        let copy = model.renamed("m2");
        assert_eq!(copy.name(), "m2");
        assert_eq!(copy.nodes(), model.nodes());
        assert_eq!(copy.heat_edges(), model.heat_edges());
        assert!(Arc::ptr_eq(copy.body(), model.body()), "the body is shared");
        assert_ne!(copy, model);
        assert_eq!(copy.renamed("m"), model);
    }

    #[test]
    fn component_handle_configures_spec() {
        let mut b = MachineModel::builder("m");
        b.component("psu")
            .mass_kg(1.643)
            .specific_heat(896.0)
            .constant_power(40.0);
        b.component("nic").monitored(false);
        let model = b.build().unwrap();
        let psu = model
            .node(model.node_id("psu").unwrap())
            .as_component()
            .unwrap()
            .clone();
        assert!(!psu.monitored);
        assert_eq!(psu.power, PowerModel::Constant(crate::units::Watts(40.0)));
        assert!(model.monitored_components().is_empty());
    }
}
