//! Machine and cluster descriptions: the graphs and constants of §2.2.
//!
//! A [`MachineModel`] holds the two intra-machine input graphs of the paper
//! (Figure 1a/1b):
//!
//! * the **heat-flow graph** — undirected edges labelled with a
//!   heat-transfer coefficient `k` (W/K) between hardware components and
//!   the air regions around them, and
//! * the **air-flow graph** — directed edges labelled with the *fraction*
//!   of the upstream region's air that flows into the downstream region.
//!
//! A [`ClusterModel`] composes several machines with the inter-machine
//! air-flow graph of Figure 1c (air-conditioner supplies, machine inlets
//! and exhausts, and room junctions such as "cluster exhaust").
//!
//! Models are immutable once built; construction goes through
//! [`MachineBuilder`] / [`ClusterBuilder`], which validate every structural
//! and physical invariant up front so the solver can run without checks.

pub(crate) mod cluster;
mod machine;
mod node;

pub use cluster::{ClusterBuilder, ClusterEdge, ClusterEndpoint, ClusterModel, SupplySpec};
pub(crate) use machine::MachineBody;
pub use machine::{AirEdge, HeatEdge, MachineBuilder, MachineModel};
pub use node::{AirKind, AirSpec, ComponentSpec, NodeId, NodeSpec, DEFAULT_AIR_REGION_MASS_KG};

pub use crate::physics::PowerModel;
