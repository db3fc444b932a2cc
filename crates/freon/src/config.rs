//! Freon configuration: thresholds, periods, and Freon-EC settings.

/// Per-component temperature thresholds (°C).
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentThresholds {
    /// Component name as reported by Mercury (e.g. `"cpu"`).
    pub component: String,
    /// `T_h`: above this, Freon throttles load to the server.
    pub high: f64,
    /// `T_l`: below this, restrictions are lifted.
    pub low: f64,
    /// `T_r`: the red line — the maximum temperature the component can
    /// reach without serious reliability degradation; crossing it turns
    /// the whole server off.
    pub red_line: f64,
}

impl ComponentThresholds {
    /// Creates thresholds, with `red_line` defaulting to `high + 2` — the
    /// paper: "`T_h` should be set just below `T_r`, e.g. 2 °C lower".
    pub fn new(component: impl Into<String>, high: f64, low: f64) -> Self {
        ComponentThresholds {
            component: component.into(),
            high,
            low,
            red_line: high + 2.0,
        }
    }

    /// Overrides the red line.
    pub fn with_red_line(mut self, red_line: f64) -> Self {
        self.red_line = red_line;
        self
    }

    /// Validates ordering: `low < high < red_line`.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.low < self.high && self.high < self.red_line) {
            return Err(format!(
                "thresholds for `{}` must satisfy low < high < red_line, got {} / {} / {}",
                self.component, self.low, self.high, self.red_line
            ));
        }
        Ok(())
    }
}

/// Configuration of the base Freon policy.
#[derive(Debug, Clone, PartialEq)]
pub struct FreonConfig {
    /// Thresholds per monitored component.
    pub thresholds: Vec<ComponentThresholds>,
    /// How often `tempd` wakes to check temperatures, seconds (paper: 60).
    pub monitor_period_s: u64,
    /// How often `admd` samples LVS connection statistics, seconds
    /// (paper: 5).
    pub sample_period_s: u64,
    /// Proportional gain (paper: 0.1).
    pub kp: f64,
    /// Derivative gain (paper: 0.2).
    pub kd: f64,
    /// Whether `admd` also caps a hot server's concurrent connections at
    /// the last interval's average (the paper's second lever). Disabled
    /// only by ablation experiments isolating the weight lever.
    pub connection_caps: bool,
}

impl FreonConfig {
    /// The paper's §5 configuration: `T_h^CPU = 67`, `T_l^CPU = 64`,
    /// `T_h^disk = 65`, `T_l^disk = 62` (°C); red lines 2 °C above the
    /// highs; one-minute monitoring; five-second sampling.
    ///
    /// The disk thresholds attach to Mercury's `disk_platters` node — the
    /// disk's own heat source, whose internal sensor the paper reads.
    pub fn paper() -> Self {
        FreonConfig {
            thresholds: vec![
                ComponentThresholds::new("cpu", 67.0, 64.0),
                ComponentThresholds::new("disk_platters", 65.0, 62.0),
            ],
            monitor_period_s: 60,
            sample_period_s: 5,
            kp: crate::controller::DEFAULT_KP,
            kd: crate::controller::DEFAULT_KD,
            connection_caps: true,
        }
    }

    /// Thresholds for a component, if configured.
    pub fn thresholds_for(&self, component: &str) -> Option<&ComponentThresholds> {
        self.thresholds.iter().find(|t| t.component == component)
    }

    /// Validates every threshold triple and the periods.
    pub fn validate(&self) -> Result<(), String> {
        if self.monitor_period_s == 0 || self.sample_period_s == 0 {
            return Err("freon periods must be positive".to_string());
        }
        if self.thresholds.is_empty() {
            return Err("freon needs at least one monitored component".to_string());
        }
        for t in &self.thresholds {
            t.validate()?;
        }
        Ok(())
    }
}

impl Default for FreonConfig {
    fn default() -> Self {
        FreonConfig::paper()
    }
}

/// Additional configuration for Freon-EC.
#[derive(Debug, Clone, PartialEq)]
pub struct EcConfig {
    /// Region id per server (index-aligned with the cluster). The paper
    /// groups servers so "common thermal emergencies will likely affect
    /// all servers of a region" — e.g. one region per air conditioner.
    pub regions: Vec<usize>,
    /// `U_h`: add a server when any component's *projected* utilization
    /// exceeds this (paper: 0.70).
    pub u_high: f64,
    /// `U_l`: remove servers while the post-removal average utilization
    /// stays below this (paper: 0.60).
    pub u_low: f64,
    /// How many observation intervals ahead load is projected, assuming
    /// linear growth (paper: 2).
    pub projection_intervals: u32,
}

impl EcConfig {
    /// The paper's §5.2 setup for four servers: regions `{m1, m3}` and
    /// `{m2, m4}` (indices 0,2 vs 1,3), `U_h = 70%`, `U_l = 60%`,
    /// projection two intervals ahead.
    pub fn paper_four_servers() -> Self {
        EcConfig {
            regions: vec![0, 1, 0, 1],
            u_high: 0.70,
            u_low: 0.60,
            projection_intervals: 2,
        }
    }

    /// Number of distinct regions.
    pub fn region_count(&self) -> usize {
        self.regions
            .iter()
            .copied()
            .max()
            .map(|m| m + 1)
            .unwrap_or(0)
    }

    /// Validates utilization bounds and the region map.
    pub fn validate(&self, servers: usize) -> Result<(), String> {
        if self.regions.len() != servers {
            return Err(format!(
                "region map covers {} servers but the cluster has {servers}",
                self.regions.len()
            ));
        }
        if !(0.0 < self.u_low && self.u_low < self.u_high && self.u_high <= 1.0) {
            return Err(format!(
                "utilization thresholds must satisfy 0 < U_l < U_h <= 1, got {} / {}",
                self.u_low, self.u_high
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_encodes_section_5_values() {
        let cfg = FreonConfig::paper();
        assert!(cfg.validate().is_ok());
        let cpu = cfg.thresholds_for("cpu").unwrap();
        assert_eq!((cpu.high, cpu.low, cpu.red_line), (67.0, 64.0, 69.0));
        let disk = cfg.thresholds_for("disk_platters").unwrap();
        assert_eq!((disk.high, disk.low, disk.red_line), (65.0, 62.0, 67.0));
        assert_eq!(cfg.monitor_period_s, 60);
        assert_eq!(cfg.sample_period_s, 5);
        assert_eq!((cfg.kp, cfg.kd), (0.1, 0.2));
        assert!(cfg.thresholds_for("gpu").is_none());
    }

    #[test]
    fn threshold_validation_enforces_ordering() {
        assert!(ComponentThresholds::new("cpu", 67.0, 64.0)
            .validate()
            .is_ok());
        assert!(ComponentThresholds::new("cpu", 60.0, 64.0)
            .validate()
            .is_err());
        let bad = ComponentThresholds::new("cpu", 67.0, 64.0).with_red_line(66.0);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn freon_config_validation() {
        let mut cfg = FreonConfig::paper();
        cfg.monitor_period_s = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = FreonConfig::paper();
        cfg.thresholds.clear();
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn ec_config_paper_regions() {
        let ec = EcConfig::paper_four_servers();
        assert!(ec.validate(4).is_ok());
        assert_eq!(ec.region_count(), 2);
        // m1 and m3 (indices 0, 2) share region 0.
        assert_eq!(ec.regions[0], ec.regions[2]);
        assert_eq!(ec.regions[1], ec.regions[3]);
        assert_ne!(ec.regions[0], ec.regions[1]);
        assert!(ec.validate(3).is_err());
        let bad = EcConfig {
            u_low: 0.8,
            ..EcConfig::paper_four_servers()
        };
        assert!(bad.validate(4).is_err());
    }
}
