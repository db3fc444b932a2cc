//! [`NoPolicy`], the policy that reads no configuration, and the
//! hidden `FreonPolicy`/`FreonConfig` pair the benchmark still names.
//!
//! Every other policy is a [`PolicySpec`] run by [`SpecPolicy`].

use crate::engine::ServerSnapshot;
use crate::metrics::FreonMetrics;
use crate::policy::actuators::{EngineCommand, IncidentRecord};
use crate::policy::interp::SpecPolicy;
use crate::policy::spec::PolicySpec;
use crate::policy::ThermalPolicy;
use cluster_sim::ClusterSim;
use telemetry::{Registry, Tracer};

/// A policy that never intervenes — the control for validation runs.
#[derive(Debug, Clone, Default)]
pub struct NoPolicy;

impl ThermalPolicy for NoPolicy {
    fn name(&self) -> &str {
        "none"
    }

    fn control(&mut self, _now_s: u64, _snapshots: &[ServerSnapshot], _sim: &mut ClusterSim) {}
}

/// Names the paper's configuration for [`FreonPolicy::new`].
// `bench-e2e/src/workloads/freon_closed_loop.rs:130,197` still build
// `FreonPolicy::new(FreonConfig::paper(), n)`; ROADMAP item 1(a) moves
// them to the built-in `freon` spec and removes this shim and
// `FreonPolicy` together.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct FreonConfig;

impl FreonConfig {
    /// The paper's §5 configuration: the built-in `freon` spec.
    pub fn paper() -> Self {
        FreonConfig
    }
}

/// The built-in `freon` spec run by [`SpecPolicy`].
// Kept only for `bench-e2e/src/workloads/freon_closed_loop.rs:130,197`;
// ROADMAP item 1(a) removes it with `FreonConfig`.
#[doc(hidden)]
#[derive(Debug)]
pub struct FreonPolicy(SpecPolicy);

impl FreonPolicy {
    /// Builds the built-in `freon` spec for an `n`-server cluster.
    pub fn new(_config: FreonConfig, n: usize) -> Self {
        let spec = PolicySpec::builtin("freon").expect("`freon` is a built-in spec");
        FreonPolicy(SpecPolicy::new(spec, n).expect("the built-in `freon` spec is valid"))
    }

    /// The policy's telemetry handles.
    pub fn metrics(&self) -> &FreonMetrics {
        self.0.metrics()
    }

    /// How many load-distribution adjustments were made.
    pub fn adjustments(&self) -> u64 {
        self.0.adjustments()
    }

    /// How many servers were lost to red-line shutdowns.
    pub fn red_line_shutdowns(&self) -> u64 {
        self.0.red_line_shutdowns()
    }
}

impl ThermalPolicy for FreonPolicy {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn control(&mut self, now_s: u64, snapshots: &[ServerSnapshot], sim: &mut ClusterSim) {
        self.0.control(now_s, snapshots, sim);
    }

    fn register_metrics(&self, registry: &Registry) {
        self.0.register_metrics(registry);
    }

    fn drain_engine_commands(&mut self) -> Vec<EngineCommand> {
        self.0.drain_engine_commands()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.0.set_tracer(tracer);
    }

    fn incidents(&self) -> &[IncidentRecord] {
        ThermalPolicy::incidents(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::ServerConfig;

    fn builtin(name: &str, n: usize) -> SpecPolicy {
        SpecPolicy::new(PolicySpec::builtin(name).unwrap(), n).unwrap()
    }

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
        let mut policy = builtin("freon", 2);
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
        let mut policy = builtin("freon", 2);
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
        let mut policy = builtin("freon", 2);
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
        let mut policy = builtin("traditional", 2);
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
        let mut policy = builtin("freon-ec", 4);
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
        let mut policy = builtin("freon-ec", 4);
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
        let mut policy = builtin("freon-ec", 4);
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
        let mut policy = builtin("freon-ec", 4);
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
        let mut spec = PolicySpec::builtin("freon-ec").unwrap();
        spec.ec.as_mut().unwrap().regions = vec![0];
        let mut policy = SpecPolicy::new(spec, 1).unwrap();
        let mut sim = ClusterSim::homogeneous(1, ServerConfig::default());
        let idle = snapshots(&[(30.0, 0.0, true)]);
        policy.control(60, &idle, &mut sim);
        policy.control(120, &idle, &mut sim);
        assert_eq!(sim.active_servers(), 1);
        assert_eq!(policy.power_offs(), 0);
    }

    #[test]
    fn policy_decisions_land_in_the_metrics_registry() {
        let mut policy = builtin("freon", 2);
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
        let mut policy = builtin("freon-ec", 4);
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
        let mut spec = PolicySpec::builtin("freon").unwrap();
        spec.thresholds[0].low = 99.0;
        SpecPolicy::new(spec, 2).unwrap();
    }

    /// The benchmark's `FreonPolicy` makes the decisions `SpecPolicy`
    /// makes on the built-in `freon` spec: throttle, release, red line.
    #[test]
    fn freon_policy_shim_decides_like_the_builtin_spec() {
        let mut shim = FreonPolicy::new(FreonConfig::paper(), 2);
        let mut spec = builtin("freon", 2);
        let mut shim_sim = ClusterSim::homogeneous(2, ServerConfig::default());
        let mut spec_sim = ClusterSim::homogeneous(2, ServerConfig::default());
        let script = [
            (60, [(68.0, 0.7, true), (60.0, 0.7, true)]),
            (65, [(68.5, 0.7, true), (60.0, 0.7, true)]),
            (120, [(68.8, 0.6, true), (66.0, 0.7, true)]),
            (180, [(63.0, 0.4, true), (69.5, 0.9, true)]),
        ];
        for (now_s, servers) in script {
            let snaps = snapshots(&servers);
            shim.control(now_s, &snaps, &mut shim_sim);
            spec.control(now_s, &snaps, &mut spec_sim);
            for i in 0..2 {
                assert_eq!(shim_sim.lvs().weight(i), spec_sim.lvs().weight(i));
                assert_eq!(
                    shim_sim.server(i).is_powered(),
                    spec_sim.server(i).is_powered()
                );
            }
        }
        assert_eq!(shim.name(), "freon");
        assert_eq!(shim.adjustments(), spec.adjustments());
        assert_eq!(shim.adjustments(), 2);
        assert_eq!(shim.red_line_shutdowns(), spec.red_line_shutdowns());
        assert_eq!(shim.red_line_shutdowns(), 1);
        assert_eq!(shim.metrics().decisions(), spec.metrics().decisions());
        assert_eq!(ThermalPolicy::incidents(&shim).len(), 1);
    }
}
