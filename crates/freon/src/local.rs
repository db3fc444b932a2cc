//! CPU-local thermal management and the software+hardware combination
//! (§4.3).
//!
//! The paper contrasts Freon's *remote throttling* with techniques that
//! act on the hot CPU itself — clock throttling and voltage/frequency
//! scaling — and argues the best system "should probably be a
//! combination \[...\]; the software being responsible for the
//! higher-level, coarser-grained tasks and the hardware being
//! responsible for fine-grained, immediate-reaction, low-level tasks."
//! Both sides of that comparison:
//!
//! * the built-in `local-dvfs` spec — each server manages only itself:
//!   when its CPU crosses `T_h` it steps down through a ladder of
//!   frequency scales (the engine applies the cubic DVFS power law to the
//!   thermal model), stepping back up when the CPU cools below `T_l`. No
//!   load balancer involvement: in a least-connections cluster the slowed
//!   server naturally sheds load, which is the effect the paper observes
//!   — at the cost of slower service for the requests it does take. The
//!   ladder is the [`FrequencyActuator`](crate::policy::FrequencyActuator).
//! * [`CombinedPolicy`] — Freon's remote throttling as the first,
//!   coarse-grained line of defense, with local DVFS engaging only for
//!   servers that stay above `T_h` despite the load-distribution
//!   adjustments.

use crate::engine::ServerSnapshot;
use crate::policy::{EngineCommand, FrequencyActuator, SpecPolicy, ThermalPolicy, DEFAULT_LEVELS};
use cluster_sim::ClusterSim;

/// Freon plus local DVFS as the second line of defense.
#[derive(Debug)]
pub struct CombinedPolicy {
    freon: SpecPolicy,
    ladder: FrequencyActuator,
}

impl CombinedPolicy {
    /// Adds a DVFS ladder to `freon` (typically the built-in `freon`
    /// spec). The ladder reads the spec's `cpu` thresholds and check
    /// period.
    pub fn new(freon: SpecPolicy) -> Self {
        let n = freon.restricted().len();
        CombinedPolicy {
            freon,
            ladder: FrequencyActuator::new(DEFAULT_LEVELS.to_vec(), n),
        }
    }

    /// The wrapped Freon policy (for its counters).
    pub fn freon(&self) -> &SpecPolicy {
        &self.freon
    }

    /// Total downward DVFS steps the hardware side took.
    pub fn dvfs_steps_down(&self) -> u64 {
        self.ladder.steps_down()
    }

    /// The wrapped Freon policy's telemetry handles.
    pub fn metrics(&self) -> &crate::FreonMetrics {
        self.freon.metrics()
    }
}

impl ThermalPolicy for CombinedPolicy {
    fn name(&self) -> &str {
        "freon+dvfs"
    }

    fn control(&mut self, now_s: u64, snapshots: &[ServerSnapshot], sim: &mut ClusterSim) {
        // Software first: the coarse-grained, cluster-wide decisions.
        self.freon.control(now_s, snapshots, sim);
        let spec = self.freon.spec();
        if now_s == 0 || !now_s.is_multiple_of(spec.check_period_s) {
            return;
        }
        // Hardware second: servers that are *still* above T_h even though
        // Freon has already restricted them get a frequency step; cool
        // servers recover their frequency before their restrictions lift.
        let (high, low) = match spec.thresholds_for("cpu") {
            Some(t) => (t.high, t.low),
            None => return,
        };
        for (i, snapshot) in snapshots.iter().enumerate() {
            if !snapshot.powered || !sim.server(i).is_powered() {
                continue;
            }
            let temp = match snapshot.temps.iter().find(|(c, _)| c == "cpu") {
                Some((_, t)) => *t,
                None => continue,
            };
            if temp > high && self.freon.restricted()[i] {
                self.ladder.step_down(sim, i);
            } else if temp < low {
                self.ladder.step_up(sim, i);
            }
        }
    }

    fn register_metrics(&self, registry: &telemetry::Registry) {
        // The software half makes all cluster-level decisions; the DVFS
        // ladder is hardware-internal and has no decision counters.
        self.freon.register_metrics(registry);
    }

    fn drain_engine_commands(&mut self) -> Vec<EngineCommand> {
        self.freon.drain_engine_commands()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicySpec;
    use cluster_sim::ServerConfig;

    fn builtin(name: &str, n: usize) -> SpecPolicy {
        SpecPolicy::new(PolicySpec::builtin(name).unwrap(), n).unwrap()
    }

    fn snapshot(temp: f64, powered: bool) -> ServerSnapshot {
        ServerSnapshot {
            temps: vec![
                ("cpu".to_string(), temp),
                ("disk_platters".to_string(), 40.0),
            ],
            cpu_util: 0.7,
            disk_util: 0.2,
            connections: 10,
            powered,
            accepting: powered,
        }
    }

    #[test]
    fn dvfs_steps_down_when_hot_and_recovers_when_cool() {
        let mut policy = builtin("local-dvfs", 2);
        let mut sim = ClusterSim::homogeneous(2, ServerConfig::default());
        let hot = vec![snapshot(68.0, true), snapshot(60.0, true)];
        policy.control(60, &hot, &mut sim);
        assert_eq!(policy.frequency_scale(0), 0.85);
        assert_eq!(policy.frequency_scale(1), 1.0);
        assert_eq!(sim.server(0).speed_scale(), 0.85);
        policy.control(120, &hot, &mut sim);
        assert_eq!(policy.frequency_scale(0), 0.7);
        assert_eq!(policy.frequency_steps_down(), 2);

        let cool = vec![snapshot(63.0, true), snapshot(60.0, true)];
        policy.control(180, &cool, &mut sim);
        assert_eq!(policy.frequency_scale(0), 0.85);
        policy.control(240, &cool, &mut sim);
        assert_eq!(policy.frequency_scale(0), 1.0);
        assert_eq!(sim.server(0).speed_scale(), 1.0);
    }

    #[test]
    fn dvfs_saturates_at_the_ladder_bottom() {
        let mut spec = PolicySpec::builtin("local-dvfs").unwrap();
        spec.frequency_levels = vec![1.0, 0.5];
        let mut policy = SpecPolicy::new(spec, 1).unwrap();
        let mut sim = ClusterSim::homogeneous(1, ServerConfig::default());
        let hot = vec![snapshot(68.0, true)];
        policy.control(60, &hot, &mut sim);
        policy.control(120, &hot, &mut sim);
        policy.control(180, &hot, &mut sim);
        assert_eq!(policy.frequency_scale(0), 0.5);
        assert_eq!(policy.frequency_steps_down(), 1);
    }

    #[test]
    fn dvfs_red_lines_like_real_hardware() {
        let mut policy = builtin("local-dvfs", 1);
        let mut sim = ClusterSim::homogeneous(1, ServerConfig::default());
        policy.control(60, &[snapshot(69.5, true)], &mut sim);
        assert_eq!(policy.red_line_shutdowns(), 1);
        assert!(!sim.server(0).is_powered());
    }

    #[test]
    fn dvfs_acts_only_on_monitor_boundaries_and_powered_servers() {
        let mut policy = builtin("local-dvfs", 1);
        let mut sim = ClusterSim::homogeneous(1, ServerConfig::default());
        policy.control(59, &[snapshot(68.0, true)], &mut sim);
        assert_eq!(policy.frequency_scale(0), 1.0);
        policy.control(60, &[snapshot(68.0, false)], &mut sim);
        assert_eq!(policy.frequency_scale(0), 1.0);
    }

    #[test]
    fn combined_engages_dvfs_only_after_freon_restrictions() {
        let mut policy = CombinedPolicy::new(builtin("freon", 2));
        let mut sim = ClusterSim::homogeneous(2, ServerConfig::default());
        let hot = vec![snapshot(68.0, true), snapshot(60.0, true)];
        // First period: Freon restricts, and since the server is both
        // restricted and still hot, the hardware steps once too.
        policy.control(60, &hot, &mut sim);
        assert!(policy.freon().restricted()[0]);
        assert_eq!(policy.dvfs_steps_down(), 1);
        assert_eq!(sim.server(0).speed_scale(), 0.85);
        // Cooling below T_l recovers the frequency.
        let cool = vec![snapshot(63.0, true), snapshot(60.0, true)];
        policy.control(120, &cool, &mut sim);
        assert_eq!(sim.server(0).speed_scale(), 1.0);
    }
}
