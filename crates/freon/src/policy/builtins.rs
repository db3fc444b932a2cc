//! The paper's policies as thin wrappers over the spec interpreter.
//!
//! Each wrapper builds its [`PolicySpec`]
//! from the legacy config structs and delegates everything to
//! [`SpecPolicy`], so the historical constructor signatures and
//! accessors keep working while the actual decision logic lives in one
//! interpreter. Construction fails fast: an invalid config (inverted
//! thresholds, zero periods, bad region map) panics with a message
//! naming the offending component and values.

use crate::config::{EcConfig, FreonConfig};
use crate::engine::ServerSnapshot;
use crate::metrics::FreonMetrics;
use crate::policy::actuators::EngineCommand;
use crate::policy::interp::SpecPolicy;
use crate::policy::spec::PolicySpec;
use crate::policy::ThermalPolicy;
use cluster_sim::ClusterSim;
use telemetry::{Registry, Tracer};

fn build(spec: PolicySpec, n: usize) -> SpecPolicy {
    let name = spec.name.clone();
    SpecPolicy::new(spec, n)
        .unwrap_or_else(|e| panic!("invalid `{name}` policy configuration: {e}"))
}

/// A policy that never intervenes — the control for validation runs.
#[derive(Debug, Clone, Default)]
pub struct NoPolicy;

impl ThermalPolicy for NoPolicy {
    fn name(&self) -> &str {
        "none"
    }

    fn control(&mut self, _now_s: u64, _snapshots: &[ServerSnapshot], _sim: &mut ClusterSim) {}
}

/// The traditional approach (§5.1): ignore temperatures until a component
/// crosses its red line, then turn the server off. Servers stay off for
/// the rest of the run (the emergency persists, so they would immediately
/// red-line again).
#[derive(Debug)]
pub struct TraditionalPolicy {
    inner: SpecPolicy,
}

impl TraditionalPolicy {
    /// Creates the baseline for an `n`-server cluster.
    ///
    /// # Panics
    ///
    /// Panics when `config` is invalid, naming the offending component
    /// and values.
    pub fn new(config: FreonConfig, n: usize) -> Self {
        TraditionalPolicy {
            inner: build(PolicySpec::traditional(&config), n),
        }
    }

    /// When each server was turned off (`None` = survived the run).
    pub fn shutdown_times(&self) -> &[Option<u64>] {
        self.inner.shutdown_times()
    }

    /// The policy's telemetry handles.
    pub fn metrics(&self) -> &FreonMetrics {
        self.inner.metrics()
    }
}

impl ThermalPolicy for TraditionalPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn control(&mut self, now_s: u64, snapshots: &[ServerSnapshot], sim: &mut ClusterSim) {
        self.inner.control(now_s, snapshots, sim);
    }

    fn register_metrics(&self, registry: &Registry) {
        self.inner.register_metrics(registry);
    }

    fn drain_engine_commands(&mut self) -> Vec<EngineCommand> {
        self.inner.drain_engine_commands()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer);
    }

    fn incidents(&self) -> &[crate::policy::IncidentRecord] {
        ThermalPolicy::incidents(&self.inner)
    }
}

/// The base Freon policy (§4.1): remote throttling via LVS weights and
/// connection caps, driven by per-server PD controllers; red-line
/// shutdown only as the last resort.
#[derive(Debug)]
pub struct FreonPolicy {
    inner: SpecPolicy,
}

impl FreonPolicy {
    /// Creates the policy for an `n`-server cluster.
    ///
    /// # Panics
    ///
    /// Panics when `config` is invalid, naming the offending component
    /// and values.
    pub fn new(config: FreonConfig, n: usize) -> Self {
        FreonPolicy {
            inner: build(PolicySpec::freon(&config), n),
        }
    }

    /// The policy's telemetry handles.
    pub fn metrics(&self) -> &FreonMetrics {
        self.inner.metrics()
    }

    /// How many load-distribution adjustments admd has made.
    pub fn adjustments(&self) -> u64 {
        self.inner.adjustments()
    }

    /// How many servers were lost to red-line shutdowns.
    pub fn red_line_shutdowns(&self) -> u64 {
        self.inner.red_line_shutdowns()
    }

    /// Which servers currently carry restrictions.
    pub fn restricted(&self) -> &[bool] {
        self.inner.restricted()
    }

    /// Structured records of every emergency shutdown so far.
    pub fn incidents(&self) -> &[crate::policy::IncidentRecord] {
        self.inner.incidents()
    }
}

impl ThermalPolicy for FreonPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn control(&mut self, now_s: u64, snapshots: &[ServerSnapshot], sim: &mut ClusterSim) {
        self.inner.control(now_s, snapshots, sim);
    }

    fn register_metrics(&self, registry: &Registry) {
        self.inner.register_metrics(registry);
    }

    fn drain_engine_commands(&mut self) -> Vec<EngineCommand> {
        self.inner.drain_engine_commands()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer);
    }

    fn incidents(&self) -> &[crate::policy::IncidentRecord] {
        ThermalPolicy::incidents(&self.inner)
    }
}

/// Freon-EC (§4.2, Figure 10): the base thermal policy plus cluster
/// reconfiguration for energy conservation, with room regions guiding
/// which servers replace which.
#[derive(Debug)]
pub struct FreonEcPolicy {
    inner: SpecPolicy,
}

impl FreonEcPolicy {
    /// Creates Freon-EC for a cluster of `ec.regions.len()` servers.
    ///
    /// # Panics
    ///
    /// Panics when the config is invalid, naming the offending component
    /// and values.
    pub fn new(config: FreonConfig, ec: EcConfig) -> Self {
        let n = ec.regions.len();
        FreonEcPolicy {
            inner: build(PolicySpec::freon_ec(&config, &ec), n),
        }
    }

    /// The policy's telemetry handles.
    pub fn metrics(&self) -> &FreonMetrics {
        self.inner.metrics()
    }

    /// Servers powered on by the policy so far.
    pub fn power_ons(&self) -> u64 {
        self.inner.power_ons()
    }

    /// Servers powered off by the policy so far.
    pub fn power_offs(&self) -> u64 {
        self.inner.power_offs()
    }

    /// Load-distribution adjustments made by the base thermal policy.
    pub fn adjustments(&self) -> u64 {
        self.inner.adjustments()
    }

    /// Current per-region emergency counts.
    pub fn region_emergencies(&self) -> &[i64] {
        self.inner.region_emergencies()
    }
}

impl ThermalPolicy for FreonEcPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn control(&mut self, now_s: u64, snapshots: &[ServerSnapshot], sim: &mut ClusterSim) {
        self.inner.control(now_s, snapshots, sim);
    }

    fn register_metrics(&self, registry: &Registry) {
        self.inner.register_metrics(registry);
    }

    fn drain_engine_commands(&mut self) -> Vec<EngineCommand> {
        self.inner.drain_engine_commands()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer);
    }

    fn incidents(&self) -> &[crate::policy::IncidentRecord] {
        ThermalPolicy::incidents(&self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::ServerConfig;

    fn snapshots(specs: &[(f64, f64, bool)]) -> Vec<ServerSnapshot> {
        // (cpu_temp, cpu_util, powered)
        specs
            .iter()
            .map(|&(temp, util, powered)| ServerSnapshot {
                temps: vec![
                    ("cpu".to_string(), temp),
                    ("disk_platters".to_string(), 40.0),
                ],
                cpu_util: util,
                disk_util: util * 0.2,
                connections: (util * 50.0) as usize,
                powered,
                accepting: powered,
            })
            .collect()
    }

    #[test]
    fn freon_throttles_only_at_monitor_boundaries() {
        let mut policy = FreonPolicy::new(FreonConfig::paper(), 2);
        let mut sim = ClusterSim::homogeneous(2, ServerConfig::default());
        let snaps = snapshots(&[(68.0, 0.7, true), (60.0, 0.7, true)]);
        policy.control(59, &snaps, &mut sim);
        assert_eq!(policy.adjustments(), 0);
        policy.control(60, &snaps, &mut sim);
        assert_eq!(policy.adjustments(), 1);
        assert!(sim.lvs().weight(0) < 1.0);
        assert_eq!(sim.lvs().weight(1), 1.0);
        assert!(policy.restricted()[0]);
    }

    #[test]
    fn freon_releases_after_cooling_below_low() {
        let mut policy = FreonPolicy::new(FreonConfig::paper(), 2);
        let mut sim = ClusterSim::homogeneous(2, ServerConfig::default());
        policy.control(
            60,
            &snapshots(&[(68.0, 0.7, true), (60.0, 0.7, true)]),
            &mut sim,
        );
        assert!(sim.lvs().weight(0) < 1.0);
        // Still warm (between T_l and T_h): restrictions stay.
        policy.control(
            120,
            &snapshots(&[(65.0, 0.5, true), (60.0, 0.7, true)]),
            &mut sim,
        );
        assert!(sim.lvs().weight(0) < 1.0);
        // Cool below T_l=64: released.
        policy.control(
            180,
            &snapshots(&[(63.0, 0.4, true), (60.0, 0.7, true)]),
            &mut sim,
        );
        assert_eq!(sim.lvs().weight(0), 1.0);
        assert!(!policy.restricted()[0]);
    }

    #[test]
    fn freon_red_line_turns_the_server_off() {
        let mut policy = FreonPolicy::new(FreonConfig::paper(), 2);
        let mut sim = ClusterSim::homogeneous(2, ServerConfig::default());
        policy.control(
            60,
            &snapshots(&[(69.5, 0.9, true), (60.0, 0.5, true)]),
            &mut sim,
        );
        assert_eq!(policy.red_line_shutdowns(), 1);
        assert!(!sim.server(0).is_powered());
        assert!(sim.lvs().is_quiesced(0));
        // The shutdown produced a structured incident record.
        assert_eq!(policy.incidents().len(), 1);
        assert_eq!(policy.incidents()[0].component.as_deref(), Some("cpu"));
    }

    #[test]
    fn traditional_ignores_everything_below_red_line() {
        let mut policy = TraditionalPolicy::new(FreonConfig::paper(), 2);
        let mut sim = ClusterSim::homogeneous(2, ServerConfig::default());
        policy.control(
            60,
            &snapshots(&[(68.5, 0.9, true), (60.0, 0.5, true)]),
            &mut sim,
        );
        assert!(sim.server(0).is_powered(), "68.5 < red line 69: no action");
        assert_eq!(sim.lvs().weight(0), 1.0);
        policy.control(
            120,
            &snapshots(&[(69.2, 0.9, true), (60.0, 0.5, true)]),
            &mut sim,
        );
        assert!(!sim.server(0).is_powered());
        assert_eq!(policy.shutdown_times(), &[Some(120), None]);
    }

    #[test]
    fn ec_shrinks_under_light_load() {
        let mut policy = FreonEcPolicy::new(FreonConfig::paper(), EcConfig::paper_four_servers());
        let mut sim = ClusterSim::homogeneous(4, ServerConfig::default());
        let light = snapshots(&[(40.0, 0.1, true); 4]);
        policy.control(60, &light, &mut sim);
        // avg 0.1 over 4 servers -> one server would run at 0.4 < 0.6.
        assert!(
            policy.power_offs() >= 3,
            "power offs: {}",
            policy.power_offs()
        );
        assert_eq!(sim.active_servers(), 1);
    }

    #[test]
    fn ec_grows_on_projected_load() {
        let mut policy = FreonEcPolicy::new(FreonConfig::paper(), EcConfig::paper_four_servers());
        let mut sim = ClusterSim::homogeneous(4, ServerConfig::default());
        // Start with three servers off.
        for i in 1..4 {
            sim.lvs_mut().set_quiesced(i, true);
            sim.server_mut(i).shutdown_hard();
        }
        let mut snaps = snapshots(&[
            (50.0, 0.5, true),
            (30.0, 0.0, false),
            (30.0, 0.0, false),
            (30.0, 0.0, false),
        ]);
        policy.control(60, &snaps, &mut sim);
        // First observation: no history, no projection, 0.5 < 0.7.
        assert_eq!(policy.power_ons(), 0);
        // Load rising: 0.5 -> 0.65, projected 0.65 + 2·0.15 = 0.95 > 0.7.
        snaps[0].cpu_util = 0.65;
        policy.control(120, &snaps, &mut sim);
        assert_eq!(policy.power_ons(), 1);
        assert_eq!(sim.powered_servers(), 2);
    }

    #[test]
    fn ec_replaces_hot_server_from_other_region() {
        let mut policy = FreonEcPolicy::new(FreonConfig::paper(), EcConfig::paper_four_servers());
        let mut sim = ClusterSim::homogeneous(4, ServerConfig::default());
        // Servers 2 and 3 off; servers 0 and 1 at healthy load.
        for i in 2..4 {
            sim.lvs_mut().set_quiesced(i, true);
            sim.server_mut(i).shutdown_hard();
        }
        // Server 0 (region 0) crosses T_h; load too high to just remove it.
        let snaps = snapshots(&[
            (68.0, 0.6, true),
            (55.0, 0.6, true),
            (30.0, 0.0, false),
            (30.0, 0.0, false),
        ]);
        policy.control(60, &snaps, &mut sim);
        assert_eq!(policy.region_emergencies()[0], 1);
        // A replacement was powered on and the hot server taken out.
        assert!(policy.power_ons() >= 1, "no replacement powered on");
        assert!(sim.lvs().is_quiesced(0), "hot server still in rotation");
        // The replacement should come from region 1 (no emergency there):
        // region 1's off server is index 3.
        assert!(sim.server(3).is_powered() || sim.server(1).is_powered());
    }

    #[test]
    fn ec_emergency_counts_decrement_on_cooling() {
        let mut policy = FreonEcPolicy::new(FreonConfig::paper(), EcConfig::paper_four_servers());
        let mut sim = ClusterSim::homogeneous(4, ServerConfig::default());
        let hot = snapshots(&[
            (68.0, 0.8, true),
            (66.0, 0.8, true),
            (60.0, 0.8, true),
            (60.0, 0.8, true),
        ]);
        policy.control(60, &hot, &mut sim);
        assert_eq!(policy.region_emergencies()[0], 1);
        let cool = snapshots(&[
            (63.0, 0.5, true),
            (60.0, 0.5, true),
            (55.0, 0.5, true),
            (55.0, 0.5, true),
        ]);
        policy.control(120, &cool, &mut sim);
        assert_eq!(policy.region_emergencies()[0], 0);
    }

    #[test]
    fn ec_never_removes_the_last_server() {
        let mut policy = FreonEcPolicy::new(
            FreonConfig::paper(),
            EcConfig {
                regions: vec![0],
                ..EcConfig::paper_four_servers()
            },
        );
        let mut sim = ClusterSim::homogeneous(1, ServerConfig::default());
        let idle = snapshots(&[(30.0, 0.0, true)]);
        policy.control(60, &idle, &mut sim);
        policy.control(120, &idle, &mut sim);
        assert_eq!(sim.active_servers(), 1);
        assert_eq!(policy.power_offs(), 0);
    }

    #[test]
    fn policy_decisions_land_in_the_metrics_registry() {
        let mut policy = FreonPolicy::new(FreonConfig::paper(), 2);
        let registry = Registry::new();
        policy.register_metrics(&registry);
        let mut sim = ClusterSim::homogeneous(2, ServerConfig::default());
        // Throttle at 60, release at 120, red-line at 180.
        policy.control(
            60,
            &snapshots(&[(68.0, 0.7, true), (60.0, 0.7, true)]),
            &mut sim,
        );
        policy.control(
            120,
            &snapshots(&[(63.0, 0.4, true), (60.0, 0.7, true)]),
            &mut sim,
        );
        policy.control(
            180,
            &snapshots(&[(60.0, 0.4, true), (69.5, 0.9, true)]),
            &mut sim,
        );
        let m = policy.metrics();
        assert_eq!(m.throttles.get(), 1);
        assert_eq!(m.releases.get(), 1);
        assert_eq!(m.red_line_shutdowns.get(), 1);
        assert_eq!(m.observations.get(), 6);
        assert_eq!(m.activations.get(), 1);
        let text = registry.render_prometheus();
        assert!(text
            .contains("mercury_freon_decisions_total{action=\"shutdown\",reason=\"red_line\"} 1"));
    }

    #[test]
    fn ec_power_decisions_carry_reason_codes() {
        let mut policy = FreonEcPolicy::new(FreonConfig::paper(), EcConfig::paper_four_servers());
        let mut sim = ClusterSim::homogeneous(4, ServerConfig::default());
        let light = snapshots(&[(40.0, 0.1, true); 4]);
        policy.control(60, &light, &mut sim);
        let m = policy.metrics();
        assert_eq!(m.power_offs_energy.get(), policy.power_offs());
        assert!(m.power_offs_energy.get() >= 3);
        assert_eq!(m.power_offs_heat.get(), 0);
    }

    #[test]
    fn no_policy_does_nothing() {
        let mut policy = NoPolicy;
        let mut sim = ClusterSim::homogeneous(2, ServerConfig::default());
        policy.control(
            60,
            &snapshots(&[(90.0, 1.0, true), (90.0, 1.0, true)]),
            &mut sim,
        );
        assert_eq!(sim.active_servers(), 2);
        assert_eq!(policy.name(), "none");
    }

    #[test]
    #[should_panic(expected = "must satisfy low < high < red_line")]
    fn invalid_config_fails_fast_at_construction() {
        let mut config = FreonConfig::paper();
        config.thresholds[0].low = 99.0;
        let _ = FreonPolicy::new(config, 2);
    }
}
