//! Node types of the intra-machine graphs: hardware components and air
//! regions.

use crate::physics::PowerModel;
use crate::units::{JoulesPerKelvin, JoulesPerKgKelvin, Kilograms, AIR_SPECIFIC_HEAT};
use std::fmt;

/// Default effective mass of air held by one air region, in kilograms.
///
/// The steady-state temperature rise across an air region is
/// `P / (ṁ·c)` — *independent* of this mass (see `physics`); the region
/// mass only shapes how quickly transients settle. 6 g corresponds to
/// roughly five litres of air, a reasonable region size inside a 1U–4U
/// server case. Override per node with [`AirSpec::mass_kg`] when modelling
/// notably larger or smaller regions.
pub const DEFAULT_AIR_REGION_MASS_KG: f64 = 0.006;

/// Identifies a node within a single [`super::MachineModel`].
///
/// Ids are dense indices assigned in insertion order by the builder; they
/// are only meaningful for the model that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The role an air region plays in the air-flow graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AirKind {
    /// A boundary region whose temperature is imposed from outside: the
    /// machine inlet. In a cluster, the inter-machine graph drives it; in a
    /// single-machine run it stays at the configured inlet temperature
    /// unless `fiddle` changes it.
    Inlet,
    /// An interior air region (e.g. "CPU air", "void space air").
    Internal,
    /// A terminal region where air leaves the machine. Its temperature is
    /// what the inter-machine graph observes as the machine's exhaust.
    Exhaust,
}

impl fmt::Display for AirKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AirKind::Inlet => "inlet",
            AirKind::Internal => "internal",
            AirKind::Exhaust => "exhaust",
        };
        f.write_str(s)
    }
}

/// A hardware component: a vertex of the heat-flow graph that produces
/// heat (Equation 3) and stores it in its thermal mass (Equation 5).
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentSpec {
    /// Unique (per machine) component name, e.g. `"cpu"`.
    pub name: String,
    /// Mass of the component in kilograms (Table 1 weighs the CPU together
    /// with its heat sink).
    pub mass: Kilograms,
    /// Specific heat capacity in J/(kg·K) — Table 1 uses aluminium
    /// (896) for the disk and CPU/heat-sink and FR4 (1245) for the
    /// motherboard.
    pub specific_heat: JoulesPerKgKelvin,
    /// How utilization translates to dissipated power.
    pub power: PowerModel,
    /// Whether `monitord` reports a utilization for this component (true
    /// for CPUs, disks, NICs; false for the power supply or motherboard,
    /// which draw constant power in the paper's model).
    pub monitored: bool,
}

impl ComponentSpec {
    /// Heat capacity `m · c` of the component.
    pub fn capacity(&self) -> JoulesPerKelvin {
        self.mass * self.specific_heat
    }

    /// Validates mass, specific heat, and the power model.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("component name is empty".to_string());
        }
        if !self.mass.is_finite() || self.mass.0 <= 0.0 {
            return Err(format!(
                "component `{}` has non-positive mass {}",
                self.name, self.mass
            ));
        }
        if !self.specific_heat.is_finite() || self.specific_heat.0 <= 0.0 {
            return Err(format!(
                "component `{}` has non-positive specific heat {}",
                self.name, self.specific_heat
            ));
        }
        self.power
            .validate()
            .map_err(|e| format!("component `{}`: {e}", self.name))
    }
}

/// An air region: a vertex of the air-flow graph (and possibly of the
/// heat-flow graph, when components dump heat into it).
#[derive(Debug, Clone, PartialEq)]
pub struct AirSpec {
    /// Unique (per machine) region name, e.g. `"cpu_air"`.
    pub name: String,
    /// The region's role in the air-flow graph.
    pub kind: AirKind,
    /// Effective mass of air held by the region, kg. Shapes transient
    /// response only; see [`DEFAULT_AIR_REGION_MASS_KG`].
    pub mass_kg: f64,
}

impl AirSpec {
    /// Heat capacity of the air held by this region.
    pub fn capacity(&self) -> JoulesPerKelvin {
        Kilograms(self.mass_kg) * AIR_SPECIFIC_HEAT
    }

    /// Validates the region's name and mass.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("air region name is empty".to_string());
        }
        if !self.mass_kg.is_finite() || self.mass_kg <= 0.0 {
            return Err(format!(
                "air region `{}` has non-positive mass {}",
                self.name, self.mass_kg
            ));
        }
        Ok(())
    }
}

/// Any vertex of a machine model.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeSpec {
    /// A hardware component.
    Component(ComponentSpec),
    /// An air region.
    Air(AirSpec),
}

impl NodeSpec {
    /// The node's name.
    pub fn name(&self) -> &str {
        match self {
            NodeSpec::Component(c) => &c.name,
            NodeSpec::Air(a) => &a.name,
        }
    }

    /// The node's heat capacity `m · c`.
    pub fn capacity(&self) -> JoulesPerKelvin {
        match self {
            NodeSpec::Component(c) => c.capacity(),
            NodeSpec::Air(a) => a.capacity(),
        }
    }

    /// Returns the component spec if this node is a component.
    pub fn as_component(&self) -> Option<&ComponentSpec> {
        match self {
            NodeSpec::Component(c) => Some(c),
            NodeSpec::Air(_) => None,
        }
    }

    /// Returns the air spec if this node is an air region.
    pub fn as_air(&self) -> Option<&AirSpec> {
        match self {
            NodeSpec::Air(a) => Some(a),
            NodeSpec::Component(_) => None,
        }
    }

    /// Whether the node is an air region of the given kind.
    pub fn is_air_kind(&self, kind: AirKind) -> bool {
        matches!(self, NodeSpec::Air(a) if a.kind == kind)
    }

    /// Validates the underlying spec.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            NodeSpec::Component(c) => c.validate(),
            NodeSpec::Air(a) => a.validate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Watts;

    fn cpu() -> ComponentSpec {
        ComponentSpec {
            name: "cpu".to_string(),
            mass: Kilograms(0.151),
            specific_heat: JoulesPerKgKelvin(896.0),
            power: PowerModel::linear(7.0, 31.0),
            monitored: true,
        }
    }

    #[test]
    fn component_capacity_is_mass_times_specific_heat() {
        let cap = cpu().capacity();
        assert!((cap.0 - 135.296).abs() < 1e-9);
    }

    #[test]
    fn component_validation() {
        assert!(cpu().validate().is_ok());
        let mut bad = cpu();
        bad.mass = Kilograms(0.0);
        assert!(bad.validate().is_err());
        let mut bad = cpu();
        bad.specific_heat = JoulesPerKgKelvin(-1.0);
        assert!(bad.validate().is_err());
        let mut bad = cpu();
        bad.name.clear();
        assert!(bad.validate().is_err());
        let mut bad = cpu();
        bad.power = PowerModel::Constant(Watts(-3.0));
        assert!(bad.validate().is_err());
    }

    #[test]
    fn air_capacity_uses_air_specific_heat() {
        let air = AirSpec {
            name: "cpu_air".to_string(),
            kind: AirKind::Internal,
            mass_kg: DEFAULT_AIR_REGION_MASS_KG,
        };
        assert!((air.capacity().0 - 0.006 * 1005.0).abs() < 1e-9);
        assert!(air.validate().is_ok());
    }

    #[test]
    fn air_validation_rejects_bad_mass() {
        let air = AirSpec {
            name: "x".to_string(),
            kind: AirKind::Internal,
            mass_kg: 0.0,
        };
        assert!(air.validate().is_err());
        let air = AirSpec {
            name: "x".to_string(),
            kind: AirKind::Internal,
            mass_kg: f64::NAN,
        };
        assert!(air.validate().is_err());
    }

    #[test]
    fn node_spec_accessors() {
        let node = NodeSpec::Component(cpu());
        assert_eq!(node.name(), "cpu");
        assert!(node.as_component().is_some());
        assert!(node.as_air().is_none());
        assert!(!node.is_air_kind(AirKind::Inlet));

        let inlet = NodeSpec::Air(AirSpec {
            name: "inlet".to_string(),
            kind: AirKind::Inlet,
            mass_kg: 0.01,
        });
        assert!(inlet.is_air_kind(AirKind::Inlet));
        assert!(!inlet.is_air_kind(AirKind::Exhaust));
    }

    #[test]
    fn air_kind_display() {
        assert_eq!(AirKind::Inlet.to_string(), "inlet");
        assert_eq!(AirKind::Internal.to_string(), "internal");
        assert_eq!(AirKind::Exhaust.to_string(), "exhaust");
    }
}
