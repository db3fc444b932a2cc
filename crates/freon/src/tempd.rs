//! `tempd` — the per-server temperature daemon (§4.1, Figure 9).

use crate::controller::PdController;
use crate::policy::PolicySpec;
use std::collections::HashMap;

/// What one `tempd` observation produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TempdReport {
    /// The overall controller output, `max{output_c}` over components
    /// above their high threshold. `None` when no component is above
    /// `T_h` (the daemons stay silent between `T_l` and `T_h`).
    pub output: Option<f64>,
    /// Components that crossed above `T_h` *on this observation*.
    pub crossed_high: Vec<String>,
    /// Components that crossed below `T_l` on this observation.
    pub crossed_low: Vec<String>,
    /// True when every monitored component is below its `T_l` — the
    /// signal to lift all load restrictions.
    pub all_below_low: bool,
    /// The first component found above its red line, if any.
    pub red_lined: Option<String>,
}

/// The temperature daemon for one server: tracks per-component episode
/// state and PD controllers, and turns raw temperatures into a
/// [`TempdReport`] once per monitoring period.
#[derive(Debug, Clone)]
pub struct Tempd {
    controllers: HashMap<String, PdController>,
    above_high: HashMap<String, bool>,
    kp: f64,
    kd: f64,
}

impl Tempd {
    /// Creates a daemon using the PD gains of `spec`.
    pub fn new(spec: &PolicySpec) -> Self {
        Tempd {
            controllers: HashMap::new(),
            above_high: HashMap::new(),
            kp: spec.gains.kp,
            kd: spec.gains.kd,
        }
    }

    /// Whether any component is currently in an above-`T_h` episode.
    pub fn in_emergency(&self) -> bool {
        self.above_high.values().any(|&b| b)
    }

    /// Processes one observation of `(component, temperature)` pairs
    /// against the thresholds in `spec`.
    ///
    /// Components without configured thresholds are ignored (tempd only
    /// monitors the CPU(s) and disk(s) it was told about).
    pub fn observe(&mut self, temps: &[(String, f64)], spec: &PolicySpec) -> TempdReport {
        let mut report = TempdReport::default();
        let mut any_monitored = false;
        let mut all_below_low = true;

        for (component, temp) in temps {
            let thresholds = match spec.thresholds_for(component) {
                Some(t) => t,
                None => continue,
            };
            any_monitored = true;

            if *temp >= thresholds.red_line && report.red_lined.is_none() {
                report.red_lined = Some(component.clone());
            }
            if *temp >= thresholds.low {
                all_below_low = false;
            }

            let was_above = self.above_high.get(component).copied().unwrap_or(false);
            if *temp > thresholds.high {
                if !was_above {
                    report.crossed_high.push(component.clone());
                    self.above_high.insert(component.clone(), true);
                }
                let controller = self
                    .controllers
                    .entry(component.clone())
                    .or_insert_with(|| PdController::new(self.kp, self.kd));
                let output = controller.output(*temp, thresholds.high);
                report.output = Some(report.output.map_or(output, |o: f64| o.max(output)));
            } else if was_above && *temp < thresholds.low {
                // The episode ends only when the component falls below
                // T_l; between T_l and T_h tempd stays quiet but keeps the
                // episode open.
                report.crossed_low.push(component.clone());
                self.above_high.insert(component.clone(), false);
                if let Some(c) = self.controllers.get_mut(component) {
                    c.reset();
                }
            }
        }

        report.all_below_low = any_monitored && all_below_low;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temps(cpu: f64, disk: f64) -> Vec<(String, f64)> {
        vec![
            ("cpu".to_string(), cpu),
            ("disk_platters".to_string(), disk),
        ]
    }

    #[test]
    fn silent_below_high_threshold() {
        let spec = PolicySpec::builtin("freon").unwrap();
        let mut tempd = Tempd::new(&spec);
        let report = tempd.observe(&temps(60.0, 50.0), &spec);
        assert_eq!(report.output, None);
        assert!(report.crossed_high.is_empty());
        assert!(report.all_below_low);
        assert!(!tempd.in_emergency());
    }

    #[test]
    fn crossing_high_triggers_output_and_episode() {
        let spec = PolicySpec::builtin("freon").unwrap();
        let mut tempd = Tempd::new(&spec);
        let report = tempd.observe(&temps(68.0, 50.0), &spec);
        assert_eq!(report.crossed_high, vec!["cpu".to_string()]);
        // kp·(68−67) + kd·0 = 0.1.
        assert!((report.output.unwrap() - 0.1).abs() < 1e-12);
        assert!(tempd.in_emergency());
        // Next observation, still hot and rising: output grows, but no new
        // crossing event.
        let report = tempd.observe(&temps(69.0, 50.0), &spec);
        assert!(report.crossed_high.is_empty());
        assert!((report.output.unwrap() - (0.2 + 0.2)).abs() < 1e-12);
    }

    #[test]
    fn between_low_and_high_keeps_quiet_but_episode_open() {
        let spec = PolicySpec::builtin("freon").unwrap();
        let mut tempd = Tempd::new(&spec);
        tempd.observe(&temps(68.0, 50.0), &spec);
        // Drops to 65: between T_l=64 and T_h=67 -> no output, no release.
        let report = tempd.observe(&temps(65.0, 50.0), &spec);
        assert_eq!(report.output, None);
        assert!(report.crossed_low.is_empty());
        assert!(!report.all_below_low);
        assert!(tempd.in_emergency());
    }

    #[test]
    fn falling_below_low_ends_the_episode() {
        let spec = PolicySpec::builtin("freon").unwrap();
        let mut tempd = Tempd::new(&spec);
        tempd.observe(&temps(68.0, 50.0), &spec);
        let report = tempd.observe(&temps(63.0, 50.0), &spec);
        assert_eq!(report.crossed_low, vec!["cpu".to_string()]);
        assert!(report.all_below_low);
        assert!(!tempd.in_emergency());
    }

    #[test]
    fn output_is_max_over_components() {
        let spec = PolicySpec::builtin("freon").unwrap();
        let mut tempd = Tempd::new(&spec);
        // CPU 1° over (0.1), disk 3° over its 65 threshold (0.3).
        let report = tempd.observe(&temps(68.0, 68.0), &spec);
        assert!((report.output.unwrap() - 0.3).abs() < 1e-12);
        assert_eq!(report.crossed_high.len(), 2);
    }

    #[test]
    fn red_line_detection() {
        let spec = PolicySpec::builtin("freon").unwrap();
        let mut tempd = Tempd::new(&spec);
        let report = tempd.observe(&temps(69.5, 50.0), &spec);
        assert_eq!(report.red_lined.as_deref(), Some("cpu"));
        let report = tempd.observe(&temps(60.0, 67.5), &spec);
        assert_eq!(report.red_lined.as_deref(), Some("disk_platters"));
    }

    #[test]
    fn unmonitored_components_are_ignored() {
        let spec = PolicySpec::builtin("freon").unwrap();
        let mut tempd = Tempd::new(&spec);
        let report = tempd.observe(&[("psu".to_string(), 500.0)], &spec);
        assert_eq!(report.output, None);
        assert!(report.red_lined.is_none());
        // No monitored component at all -> all_below_low is false (we
        // cannot claim anything cooled down).
        assert!(!report.all_below_low);
    }
}
