//! The policy framework: declarative specs, composable actuators, and
//! the interpreter tying them together.
//!
//! Three layers:
//!
//! 1. **Spec** ([`PolicySpec`], [`spec`]) — a declarative, serializable
//!    description of a thermal policy: monitored components and
//!    thresholds, check/sample periods, PD gains, and ordered
//!    `(trigger, action, reason)` rules. Specs load from TOML files
//!    ([`toml`]) and the paper's policies ship as built-in specs.
//! 2. **Actuators** ([`actuators`], mediated by [`Mediator`]) — each
//!    lever over the cluster (admission weights, DVFS frequency, fan
//!    CFM, power states) behind one [`Actuator`] trait, dispatched in
//!    dependency order with every applied action counted under
//!    `mercury_freon_decisions_total{action,reason}`.
//! 3. **Interpreter** ([`SpecPolicy`], [`interp`]) — executes a spec
//!    against per-server [`Tempd`](crate::Tempd) reports, including the
//!    Freon-EC Figure 10 loop when the spec carries an `[ec]` section.
//!
//! A policy is configured only by a spec: a built-in
//! ([`PolicySpec::builtin`]) or a TOML file, optionally edited field by
//! field, run by [`SpecPolicy::new`]. The paper's Freon, Freon-EC,
//! traditional and local-DVFS policies are built-in specs. [`NoPolicy`]
//! (in [`builtins`]) reads no configuration at all.

pub mod actuators;
pub mod builtins;
pub mod interp;
pub mod mediator;
pub mod spec;
pub mod toml;

pub use actuators::{
    ActionRequest, ActuationCtx, Actuator, AdmissionActuator, EngineCommand, FanActuator,
    FrequencyActuator, IncidentRecord, PowerActuator, DEFAULT_LEVELS,
};
pub use builtins::NoPolicy;
pub use interp::SpecPolicy;
pub use mediator::Mediator;
pub use spec::{
    ActionSpec, EcSpec, GainSpec, Gate, PolicySpec, ReasonCode, RuleSpec, Trigger, BUILTIN_NAMES,
};
pub use toml::TomlError;

use crate::engine::ServerSnapshot;
use cluster_sim::ClusterSim;
use telemetry::{Registry, Tracer};

/// A cluster-level thermal-management policy, invoked once per simulated
/// second with fresh temperatures and utilizations. Policies do their own
/// internal scheduling (the paper's daemons wake once per minute and
/// sample LVS every five seconds).
pub trait ThermalPolicy: std::fmt::Debug {
    /// Short name for logs and reports.
    fn name(&self) -> &str;

    /// Observes the cluster and optionally actuates the balancer/servers.
    fn control(&mut self, now_s: u64, snapshots: &[ServerSnapshot], sim: &mut ClusterSim);

    /// Registers the policy's `mercury_freon_*` metric families on
    /// `registry`, so a scrape of e.g. a
    /// [`mercury::net::SolverService`] registry includes the control
    /// loop's decision counters. The default registers nothing —
    /// appropriate for policies that never act (like [`NoPolicy`]).
    fn register_metrics(&self, _registry: &Registry) {}

    /// Drains commands the policy wants the *engine* to apply to the
    /// thermal model (e.g. fan CFM changes, which live outside the
    /// cluster simulator). The engine calls this after every control
    /// step; the default has none.
    fn drain_engine_commands(&mut self) -> Vec<EngineCommand> {
        Vec::new()
    }

    /// Attaches a tracer for decision-chain spans (`tempd.observe` →
    /// `policy.rule` → `mediator.dispatch`). The experiment engine calls
    /// this once before the run; the default ignores it — appropriate
    /// for policies that never act.
    fn set_tracer(&mut self, _tracer: Tracer) {}

    /// Structured records of emergency shutdowns so far; the engine's
    /// flight recorder turns new entries into red-line incident
    /// bundles. The default has none.
    fn incidents(&self) -> &[IncidentRecord] {
        &[]
    }
}
