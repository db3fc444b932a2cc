//! # freon — thermal-emergency management for server clusters
//!
//! Freon (the paper's §4) manages component temperatures in a web-server
//! cluster fronted by an LVS load balancer, **without** the traditional
//! approach of turning affected servers off (which needlessly degrades
//! throughput under high load). Its pieces:
//!
//! * [`PdController`] — the proportional-derivative feedback controller
//!   `output = max(kp·(T − T_h) + kd·(T − T_last), 0)` with the paper's
//!   constants kp = 0.1, kd = 0.2;
//! * [`Tempd`] — the per-server temperature daemon: wakes once a minute,
//!   compares each component against its high/low/red-line thresholds,
//!   and reports controller outputs to `admd`;
//! * [`Admd`] — the admission-control daemon at the balancer: on a report
//!   it rescales the hot server's LVS weight so the server receives only
//!   `1/(output+1)` of its current load share, and caps its concurrent
//!   connections at the last minute's average ("remote throttling");
//! * the policies, each a built-in [`PolicySpec`] run by [`SpecPolicy`]:
//!   `freon`, the base policy wiring tempd + admd together, plus
//!   red-line shutdown as the last resort; `freon-ec`, Freon-EC (§4.2,
//!   Figure 10): energy conservation by shrinking/growing the active
//!   server set, with room *regions* so replacements come from parts of
//!   the room unaffected by the emergency; `traditional`, the baseline
//!   the paper compares against: do nothing until a component
//!   red-lines, then turn the server off; and `local-dvfs`, §4.3's
//!   CPU-local voltage/frequency scaling;
//! * [`CombinedPolicy`] — Freon combined with local DVFS, the paper's
//!   suggested software+hardware split (§4.3);
//! * [`Experiment`] — the closed loop: workload trace → cluster sim →
//!   utilizations → Mercury → temperatures → policy → LVS, with fiddle
//!   scripts injecting thermal emergencies (this regenerates Figures 11
//!   and 12).
//!
//! ## The policy framework
//!
//! Every policy but [`NoPolicy`] and [`CombinedPolicy`] is a spec run by
//! the three-layer framework in [`policy`]:
//!
//! * [`PolicySpec`] — a declarative description of a policy (monitored
//!   components and thresholds, check/sample periods, PD gains, ordered
//!   trigger → action rules with reason codes) that serializes to and
//!   from TOML. The built-in behaviors ship as specs
//!   (`crates/freon/policies/*.toml`) loadable by name via
//!   [`PolicySpec::builtin`], and new policies need no Rust at all:
//!   write a TOML file and run it with [`SpecPolicy::from_toml_file`].
//! * [`Actuator`]s — composable knobs a policy can turn: LVS admission
//!   weights, DVFS frequency ladders, machine fan CFM, and power state
//!   (emergency shutdown emits a structured [`IncidentRecord`]).
//! * [`Mediator`] — dispatches each [`ActionRequest`] to its actuator in
//!   a fixed dependency order and counts every *applied* actuation under
//!   `mercury_freon_decisions_total{action, reason}`.
//!
//! Specs are validated eagerly — [`SpecPolicy::new`] and the networked
//! daemons' `spawn` reject inverted thresholds, zero periods, and unknown
//! actuator names with an error naming the offender — so a bad config
//! fails at construction, not mid-experiment.
//!
//! Every policy meters its decisions through always-on [`telemetry`]
//! handles ([`FreonMetrics`]): `mercury_freon_decisions_total` labelled
//! by `{action, reason}`, tempd observation counts, and PD-controller
//! activation/saturation counters. Register them on any
//! [`telemetry::Registry`] — e.g. a scraped
//! [`mercury::net::SolverService`] registry — via
//! [`ThermalPolicy::register_metrics`], or let [`Experiment`] do it by
//! setting [`ExperimentConfig::registry`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod admd;
mod config;
mod controller;
mod engine;
mod local;
mod log;
mod metrics;
pub mod net;
pub mod policy;
mod tempd;

pub use admd::Admd;
pub use config::ComponentThresholds;
pub use controller::PdController;
pub use engine::{Experiment, ExperimentConfig, HistoryConfig, ServerSnapshot};
pub use local::CombinedPolicy;
pub use log::ExperimentLog;
pub use metrics::{ExperimentMetrics, FreonMetrics};
pub use net::{AdmdService, TempdDaemon, TempdMessage};
#[doc(hidden)]
pub use policy::builtins::{FreonConfig, FreonPolicy};
pub use policy::{
    ActionRequest, ActionSpec, Actuator, EngineCommand, Gate, IncidentRecord, Mediator, NoPolicy,
    PolicySpec, ReasonCode, RuleSpec, SpecPolicy, ThermalPolicy, Trigger, BUILTIN_NAMES,
    DEFAULT_LEVELS,
};
pub use tempd::{Tempd, TempdReport};
