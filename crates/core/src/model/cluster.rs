//! The inter-machine air-flow graph (Figure 1c) and cluster model.
//!
//! A cluster is a set of machines plus a directed air graph among three
//! kinds of endpoints: **supplies** (air conditioners with a set output
//! temperature), machine **inlets**/**exhausts**, and **junctions** (room
//! air regions such as "cluster exhaust"). Each edge carries a fraction;
//! a machine inlet's temperature is the fraction-weighted average of its
//! incoming edges, which is the paper's "perfect mixing" assumption.
//! Recirculation (exhaust → inlet edges) and rack-layout effects are
//! modelled with additional edges, exactly as the paper suggests.

use super::machine::MachineModel;
use crate::error::Error;
use crate::units::Celsius;
#[cfg(test)]
use std::collections::HashMap;
use std::collections::HashSet;

/// A cold-air source in the room: an air conditioner.
#[derive(Debug, Clone, PartialEq)]
pub struct SupplySpec {
    /// Unique endpoint name (e.g. `"ac"`).
    pub name: String,
    /// Temperature of the supplied air.
    pub temperature: Celsius,
}

/// One endpoint of the inter-machine air graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ClusterEndpoint {
    /// An air-conditioner supply, by name.
    Supply(String),
    /// The inlet of machine `index` (into [`ClusterModel::machines`]).
    MachineInlet(usize),
    /// The exhaust of machine `index`.
    MachineExhaust(usize),
    /// A room air region, by name (e.g. `"cluster_exhaust"`).
    Junction(String),
}

impl std::fmt::Display for ClusterEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterEndpoint::Supply(n) => write!(f, "supply:{n}"),
            ClusterEndpoint::MachineInlet(i) => write!(f, "machine{i}:inlet"),
            ClusterEndpoint::MachineExhaust(i) => write!(f, "machine{i}:exhaust"),
            ClusterEndpoint::Junction(n) => write!(f, "junction:{n}"),
        }
    }
}

/// A directed inter-machine air edge carrying `fraction` of the source's
/// outflow to the destination.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterEdge {
    /// Upstream endpoint.
    pub from: ClusterEndpoint,
    /// Downstream endpoint.
    pub to: ClusterEndpoint,
    /// Mixing weight in `(0, 1]`.
    pub fraction: f64,
}

/// A validated cluster model: machines plus the inter-machine air graph.
///
/// Build with [`ClusterModel::builder`]. The common ideal case of the
/// paper — an AC feeding N machines equally, all exhausting into a shared
/// "cluster exhaust", no recirculation — is available as
/// [`crate::presets::validation_cluster`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterModel {
    machines: Vec<MachineModel>,
    supplies: Vec<SupplySpec>,
    junctions: Vec<String>,
    edges: Vec<ClusterEdge>,
}

impl ClusterModel {
    /// Starts building a cluster model.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// The machines, in insertion order.
    pub fn machines(&self) -> &[MachineModel] {
        &self.machines
    }

    /// The air-conditioner supplies.
    pub fn supplies(&self) -> &[SupplySpec] {
        &self.supplies
    }

    /// Names of the room junctions.
    pub fn junctions(&self) -> &[String] {
        &self.junctions
    }

    /// The inter-machine air edges.
    pub fn edges(&self) -> &[ClusterEdge] {
        &self.edges
    }

    /// Index of the machine with the given name.
    pub fn machine_index(&self, name: &str) -> Option<usize> {
        self.machines.iter().position(|m| m.name() == name)
    }

    /// Index of the supply with the given name (into
    /// [`ClusterModel::supplies`]).
    pub fn supply_index(&self, name: &str) -> Option<usize> {
        self.supplies.iter().position(|s| s.name == name)
    }

    /// Index of the junction with the given name (into
    /// [`ClusterModel::junctions`]).
    pub fn junction_index(&self, name: &str) -> Option<usize> {
        self.junctions.iter().position(|j| j == name)
    }
}

/// Incremental builder for [`ClusterModel`].
#[derive(Debug, Default)]
pub struct ClusterBuilder {
    machines: Vec<MachineModel>,
    supplies: Vec<SupplySpec>,
    junctions: Vec<String>,
    edges: Vec<ClusterEdge>,
}

impl ClusterBuilder {
    /// Adds a machine; returns its index for use in endpoints.
    pub fn machine(&mut self, model: MachineModel) -> usize {
        self.machines.push(model);
        self.machines.len() - 1
    }

    /// Adds an air-conditioner supply at the given output temperature.
    pub fn supply(&mut self, name: impl Into<String>, temperature_c: f64) -> &mut Self {
        self.supplies.push(SupplySpec {
            name: name.into(),
            temperature: Celsius(temperature_c),
        });
        self
    }

    /// Adds a room air junction.
    pub fn junction(&mut self, name: impl Into<String>) -> &mut Self {
        self.junctions.push(name.into());
        self
    }

    /// Adds a directed air edge between two endpoints.
    pub fn edge(&mut self, from: ClusterEndpoint, to: ClusterEndpoint, fraction: f64) -> &mut Self {
        self.edges.push(ClusterEdge { from, to, fraction });
        self
    }

    /// Validates and produces the cluster model.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidModel`] when names collide, edges reference
    /// unknown endpoints, fractions are out of range, a supply or machine
    /// exhaust has incoming edges, a machine inlet or junction has no
    /// incoming edges while edges exist elsewhere, or machine names
    /// collide.
    pub fn build(&self) -> Result<ClusterModel, Error> {
        // Every check below looks names up by reference: validating a
        // room copies none of them.
        let mut machine_names = HashSet::with_capacity(self.machines.len());
        for m in &self.machines {
            if !machine_names.insert(m.name()) {
                return Err(Error::invalid_model(format!(
                    "duplicate machine name `{}`",
                    m.name()
                )));
            }
        }
        let mut names = HashSet::new();
        for s in &self.supplies {
            if s.name.is_empty() {
                return Err(Error::invalid_model("supply name is empty"));
            }
            if !s.temperature.is_finite() {
                return Err(Error::invalid_model(format!(
                    "supply `{}` has non-finite temperature",
                    s.name
                )));
            }
            if !names.insert(("s", s.name.as_str())) {
                return Err(Error::invalid_model(format!(
                    "duplicate supply name `{}`",
                    s.name
                )));
            }
        }
        for j in &self.junctions {
            if j.is_empty() {
                return Err(Error::invalid_model("junction name is empty"));
            }
            if !names.insert(("j", j.as_str())) {
                return Err(Error::invalid_model(format!(
                    "duplicate junction name `{j}`"
                )));
            }
        }

        let mut seen_edges = HashSet::with_capacity(self.edges.len());
        for e in &self.edges {
            if !(e.fraction > 0.0 && e.fraction <= 1.0) {
                return Err(Error::invalid_model(format!(
                    "cluster edge {} -> {} has fraction {} outside (0, 1]",
                    e.from, e.to, e.fraction
                )));
            }
            self.check_endpoint(&e.from)?;
            self.check_endpoint(&e.to)?;
            if matches!(e.to, ClusterEndpoint::Supply(_)) {
                return Err(Error::invalid_model(format!(
                    "cluster edge flows into supply {} — supplies are sources",
                    e.to
                )));
            }
            if matches!(e.to, ClusterEndpoint::MachineExhaust(_)) {
                return Err(Error::invalid_model(format!(
                    "cluster edge flows into {} — machine exhausts are sources",
                    e.to
                )));
            }
            if matches!(e.from, ClusterEndpoint::MachineInlet(_)) {
                return Err(Error::invalid_model(format!(
                    "cluster edge leaves {} — machine inlets are sinks",
                    e.from
                )));
            }
            if !seen_edges.insert((&e.from, &e.to)) {
                return Err(Error::invalid_model(format!(
                    "duplicate cluster edge {} -> {}",
                    e.from, e.to
                )));
            }
        }

        // Every machine inlet should be fed by something if any edges
        // exist: one pass marks the fed inlets (endpoints are checked
        // above, so every index is in range).
        if !self.edges.is_empty() {
            let mut fed = vec![false; self.machines.len()];
            for e in &self.edges {
                if let ClusterEndpoint::MachineInlet(i) = e.to {
                    fed[i] = true;
                }
            }
            if let Some(i) = fed.iter().position(|&fed| !fed) {
                return Err(Error::invalid_model(format!(
                    "machine `{}` has no incoming cluster air edge",
                    self.machines[i].name()
                )));
            }
        }

        Ok(ClusterModel {
            machines: self.machines.clone(),
            supplies: self.supplies.clone(),
            junctions: self.junctions.clone(),
            edges: self.edges.clone(),
        })
    }

    fn check_endpoint(&self, ep: &ClusterEndpoint) -> Result<(), Error> {
        match ep {
            ClusterEndpoint::Supply(n) => {
                if !self.supplies.iter().any(|s| &s.name == n) {
                    return Err(Error::invalid_model(format!("unknown supply `{n}`")));
                }
            }
            ClusterEndpoint::Junction(n) => {
                if !self.junctions.iter().any(|j| j == n) {
                    return Err(Error::invalid_model(format!("unknown junction `{n}`")));
                }
            }
            ClusterEndpoint::MachineInlet(i) | ClusterEndpoint::MachineExhaust(i) => {
                if *i >= self.machines.len() {
                    return Err(Error::invalid_model(format!(
                        "machine index {i} out of range"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Mixing reference: resolves the temperature of a sink endpoint as the
/// fraction-weighted average of its incoming edges.
///
/// `source_temp` maps each source endpoint to its current temperature.
/// Returns `None` when the endpoint has no incoming edges (the caller
/// keeps the previous value).
///
/// The cluster solver used to call this every tick; it now mixes through
/// the precompiled CSR plan in `solver::kernel::MixGraph`, and this
/// straightforward formulation survives as the test oracle the plan is
/// checked against.
#[cfg(test)]
pub(crate) fn mixed_inlet_temperature(
    edges: &[ClusterEdge],
    sink: &ClusterEndpoint,
    source_temp: &HashMap<ClusterEndpoint, Celsius>,
) -> Option<Celsius> {
    let mut weight = 0.0;
    let mut sum = 0.0;
    for e in edges.iter().filter(|e| &e.to == sink) {
        if let Some(t) = source_temp.get(&e.from) {
            weight += e.fraction;
            sum += e.fraction * t.0;
        }
    }
    if weight > 0.0 {
        Some(Celsius(sum / weight))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn four_machine_builder() -> ClusterBuilder {
        let mut b = ClusterModel::builder();
        b.supply("ac", 18.0);
        b.junction("cluster_exhaust");
        for i in 0..4 {
            let idx = b.machine(machine(&format!("m{}", i + 1)));
            b.edge(
                ClusterEndpoint::Supply("ac".into()),
                ClusterEndpoint::MachineInlet(idx),
                0.25,
            );
            b.edge(
                ClusterEndpoint::MachineExhaust(idx),
                ClusterEndpoint::Junction("cluster_exhaust".into()),
                1.0,
            );
        }
        b
    }

    #[test]
    fn builds_the_figure_1c_cluster() {
        let cluster = four_machine_builder().build().unwrap();
        assert_eq!(cluster.machines().len(), 4);
        assert_eq!(cluster.supplies().len(), 1);
        assert_eq!(cluster.edges().len(), 8);
        assert_eq!(cluster.machine_index("m3"), Some(2));
        assert_eq!(cluster.machine_index("nope"), None);
    }

    #[test]
    fn rejects_an_unfed_machine_by_name() {
        let mut b = four_machine_builder();
        b.edges.retain(|e| e.to != ClusterEndpoint::MachineInlet(2));
        let err = b.build().unwrap_err();
        assert!(
            matches!(&err, Error::InvalidModel { reason }
                if reason.contains("`m3` has no incoming cluster air edge")),
            "{err}"
        );
    }

    #[test]
    fn rejects_duplicate_machine_names() {
        let mut b = ClusterModel::builder();
        b.machine(machine("m1"));
        b.machine(machine("m1"));
        assert!(b.build().is_err());
    }

    #[test]
    fn rejects_unknown_endpoints_and_bad_fractions() {
        let mut b = ClusterModel::builder();
        let idx = b.machine(machine("m1"));
        b.edge(
            ClusterEndpoint::Supply("ghost".into()),
            ClusterEndpoint::MachineInlet(idx),
            0.5,
        );
        assert!(b.build().is_err());

        let mut b = ClusterModel::builder();
        b.supply("ac", 18.0);
        let idx = b.machine(machine("m1"));
        b.edge(
            ClusterEndpoint::Supply("ac".into()),
            ClusterEndpoint::MachineInlet(idx),
            1.5,
        );
        assert!(b.build().is_err());
    }

    #[test]
    fn rejects_edges_with_wrong_direction() {
        // Into a supply.
        let mut b = ClusterModel::builder();
        b.supply("ac", 18.0);
        b.junction("j");
        b.edge(
            ClusterEndpoint::Junction("j".into()),
            ClusterEndpoint::Supply("ac".into()),
            0.5,
        );
        assert!(b.build().is_err());

        // Out of a machine inlet.
        let mut b = ClusterModel::builder();
        b.supply("ac", 18.0);
        b.junction("j");
        let idx = b.machine(machine("m1"));
        b.edge(
            ClusterEndpoint::Supply("ac".into()),
            ClusterEndpoint::MachineInlet(idx),
            1.0,
        );
        b.edge(
            ClusterEndpoint::MachineInlet(idx),
            ClusterEndpoint::Junction("j".into()),
            0.5,
        );
        assert!(b.build().is_err());
    }

    #[test]
    fn rejects_unfed_machines() {
        let mut b = ClusterModel::builder();
        b.supply("ac", 18.0);
        b.junction("j");
        let m1 = b.machine(machine("m1"));
        let _m2 = b.machine(machine("m2"));
        b.edge(
            ClusterEndpoint::Supply("ac".into()),
            ClusterEndpoint::MachineInlet(m1),
            1.0,
        );
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("m2"), "{err}");
    }

    #[test]
    fn mixed_inlet_temperature_weights_by_fraction() {
        let edges = vec![
            ClusterEdge {
                from: ClusterEndpoint::Supply("ac".into()),
                to: ClusterEndpoint::MachineInlet(0),
                fraction: 0.75,
            },
            ClusterEdge {
                from: ClusterEndpoint::MachineExhaust(1),
                to: ClusterEndpoint::MachineInlet(0),
                fraction: 0.25,
            },
        ];
        let mut temps = HashMap::new();
        temps.insert(ClusterEndpoint::Supply("ac".into()), Celsius(18.0));
        temps.insert(ClusterEndpoint::MachineExhaust(1), Celsius(38.0));
        let t = mixed_inlet_temperature(&edges, &ClusterEndpoint::MachineInlet(0), &temps).unwrap();
        assert!((t.0 - 23.0).abs() < 1e-12);

        assert!(
            mixed_inlet_temperature(&edges, &ClusterEndpoint::MachineInlet(9), &temps).is_none()
        );
    }
}
