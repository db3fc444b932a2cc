//! Variable-speed fan modelling (§7: "we are currently extending our
//! models to consider clock throttling and variable-speed fans").
//!
//! The paper notes these behaviours are "well-defined and essentially
//! depend on temperature, which Mercury emulates accurately" — so a fan
//! controller is just a curve from an observed temperature to a
//! volumetric flow, applied to the solver through the same
//! [`crate::solver::Solver::set_fan_cfm`] lever `fiddle` uses.
//!
//! ```
//! use mercury::fan::FanCurve;
//!
//! // A typical firmware curve: 19.3 cfm floor, ramp between 45 and
//! // 70 °C, 44 cfm ceiling.
//! let curve = FanCurve::ramp(45.0, 19.3, 70.0, 44.0);
//! assert_eq!(curve.cfm_for(30.0), 19.3);
//! assert_eq!(curve.cfm_for(80.0), 44.0);
//! assert!((curve.cfm_for(57.5) - 31.65).abs() < 1e-9);
//! ```

/// A monotone temperature → fan-speed curve, interpolated piecewise
/// linearly between control points and clamped at the ends.
#[derive(Debug, Clone, PartialEq)]
pub struct FanCurve {
    /// `(°C, cfm)` control points, sorted by temperature.
    points: Vec<(f64, f64)>,
}

impl FanCurve {
    /// Creates a curve from control points.
    ///
    /// # Errors
    ///
    /// Returns a message when fewer than one point is given, points are
    /// not sorted by temperature, or any flow is non-positive.
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self, String> {
        if points.is_empty() {
            return Err("a fan curve needs at least one point".to_string());
        }
        for pair in points.windows(2) {
            if pair[1].0 < pair[0].0 {
                return Err("fan-curve points must be sorted by temperature".to_string());
            }
            if pair[1].1 < pair[0].1 {
                return Err("fan curves must be monotone (hotter -> not slower)".to_string());
            }
        }
        if points
            .iter()
            .any(|(t, cfm)| !t.is_finite() || cfm.is_nan() || *cfm <= 0.0)
        {
            return Err("fan-curve flows must be positive and finite".to_string());
        }
        Ok(FanCurve { points })
    }

    /// The common firmware shape: `low_cfm` below `t_low`, linear ramp
    /// to `high_cfm` at `t_high`, flat above.
    ///
    /// # Panics
    ///
    /// Panics if `t_low >= t_high` or either flow is non-positive — fan
    /// curves are static configuration, not runtime data.
    pub fn ramp(t_low: f64, low_cfm: f64, t_high: f64, high_cfm: f64) -> Self {
        assert!(t_low < t_high, "ramp start must be below its end");
        FanCurve::new(vec![(t_low, low_cfm), (t_high, high_cfm)])
            .expect("a two-point monotone ramp is always valid")
    }

    /// The flow commanded at an observed temperature.
    pub fn cfm_for(&self, temp_c: f64) -> f64 {
        let first = self.points[0];
        if temp_c <= first.0 {
            return first.1;
        }
        let last = self.points[self.points.len() - 1];
        if temp_c >= last.0 {
            return last.1;
        }
        for pair in self.points.windows(2) {
            let (t0, f0) = pair[0];
            let (t1, f1) = pair[1];
            if temp_c >= t0 && temp_c <= t1 {
                if (t1 - t0).abs() < f64::EPSILON {
                    return f1;
                }
                let x = (temp_c - t0) / (t1 - t0);
                return f0 + x * (f1 - f0);
            }
        }
        last.1
    }

    /// The control points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }
}

/// A per-machine fan controller: reads one node, commands the fan, and
/// hysteresis-filters small changes.
///
/// The solver's flow cache already makes re-commanding an *unchanged*
/// speed free (the air-flow tables are keyed on the fan's mass flow and
/// only recompute when it actually moves — watch the
/// `mercury_solver_flow_recomputes_total` metric), so hysteresis is not
/// needed for solver throughput. It still matters for batching: any
/// *applied* fan change diverges the machine from its replicated group
/// (DESIGN.md §3b), so suppressing sub-`min_step_cfm` jitter keeps
/// identical machines stepping together on the batched path.
#[derive(Debug, Clone, PartialEq)]
pub struct FanController {
    /// The firmware curve.
    pub curve: FanCurve,
    /// The node whose temperature drives the fan (e.g. `"cpu"`).
    pub sensor_node: String,
    /// Minimum cfm change worth applying (default 0.5).
    pub min_step_cfm: f64,
    last_commanded: Option<f64>,
}

impl FanController {
    /// Creates a controller from a curve and a sensor node.
    pub fn new(curve: FanCurve, sensor_node: impl Into<String>) -> Self {
        FanController {
            curve,
            sensor_node: sensor_node.into(),
            min_step_cfm: 0.5,
            last_commanded: None,
        }
    }

    /// Observes the sensor and adjusts the solver's fan if the commanded
    /// flow moved by at least `min_step_cfm`. Returns the new flow if a
    /// change was applied.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::UnknownNode`] when the sensor node is not
    /// in the model.
    pub fn regulate(
        &mut self,
        solver: &mut crate::solver::Solver,
    ) -> Result<Option<f64>, crate::Error> {
        let temp = solver.temperature(&self.sensor_node)?;
        let target = self.curve.cfm_for(temp.0);
        let apply = match self.last_commanded {
            Some(last) => (target - last).abs() >= self.min_step_cfm,
            None => true,
        };
        if apply {
            solver.set_fan_cfm(target)?;
            self.last_commanded = Some(target);
            Ok(Some(target))
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{self, nodes};
    use crate::solver::{Solver, SolverConfig};

    #[test]
    fn curve_clamps_and_interpolates() {
        let curve = FanCurve::ramp(45.0, 19.3, 70.0, 44.0);
        assert_eq!(curve.cfm_for(-10.0), 19.3);
        assert_eq!(curve.cfm_for(45.0), 19.3);
        assert_eq!(curve.cfm_for(70.0), 44.0);
        assert_eq!(curve.cfm_for(200.0), 44.0);
        let mid = curve.cfm_for(57.5);
        assert!((mid - (19.3 + 44.0) / 2.0).abs() < 1e-9);
        assert_eq!(curve.points().len(), 2);
    }

    #[test]
    fn multi_point_curves_work() {
        let curve = FanCurve::new(vec![(40.0, 10.0), (50.0, 20.0), (60.0, 40.0)]).unwrap();
        assert!((curve.cfm_for(45.0) - 15.0).abs() < 1e-9);
        assert!((curve.cfm_for(55.0) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn bad_curves_are_rejected() {
        assert!(FanCurve::new(vec![]).is_err());
        assert!(FanCurve::new(vec![(50.0, 20.0), (40.0, 30.0)]).is_err()); // unsorted
        assert!(FanCurve::new(vec![(40.0, 30.0), (50.0, 20.0)]).is_err()); // non-monotone
        assert!(FanCurve::new(vec![(40.0, 0.0)]).is_err()); // zero flow
    }

    #[test]
    #[should_panic(expected = "ramp start")]
    fn inverted_ramp_panics() {
        let _ = FanCurve::ramp(70.0, 10.0, 45.0, 44.0);
    }

    #[test]
    fn controller_speeds_the_fan_up_as_the_cpu_heats() {
        let model = presets::validation_machine();
        let mut solver = Solver::new(&model, SolverConfig::default()).unwrap();
        solver.set_utilization(nodes::CPU, 1.0).unwrap();
        let mut fan = FanController::new(FanCurve::ramp(40.0, 38.6, 75.0, 77.2), nodes::CPU);
        let initial = solver.fan().to_cfm();
        for _ in 0..1200 {
            solver.step();
            fan.regulate(&mut solver).unwrap();
        }
        let final_cfm = solver.fan().to_cfm();
        assert!(
            final_cfm > initial + 5.0,
            "fan never sped up: {initial} -> {final_cfm}"
        );
    }

    #[test]
    fn controller_lowers_peak_temperature() {
        let model = presets::validation_machine();
        let run = |with_fan: bool| {
            let mut solver = Solver::new(&model, SolverConfig::default()).unwrap();
            solver.set_utilization(nodes::CPU, 1.0).unwrap();
            let mut fan = FanController::new(FanCurve::ramp(40.0, 38.6, 70.0, 77.2), nodes::CPU);
            for _ in 0..4000 {
                solver.step();
                if with_fan {
                    fan.regulate(&mut solver).unwrap();
                }
            }
            solver.temperature(nodes::CPU).unwrap().0
        };
        let fixed = run(false);
        let controlled = run(true);
        assert!(
            controlled < fixed - 1.0,
            "fan control useless: {fixed} vs {controlled}"
        );
    }

    #[test]
    fn hysteresis_suppresses_tiny_changes() {
        let model = presets::validation_machine();
        let mut solver = Solver::new(&model, SolverConfig::default()).unwrap();
        let mut fan = FanController::new(FanCurve::ramp(10.0, 20.0, 100.0, 40.0), nodes::CPU);
        // First regulation always applies.
        assert!(fan.regulate(&mut solver).unwrap().is_some());
        // Without meaningful temperature movement, no re-command.
        assert!(fan.regulate(&mut solver).unwrap().is_none());
    }

    #[test]
    fn unchanged_speed_commands_do_not_recompute_flows() {
        let model = presets::validation_machine();
        let mut solver = Solver::new(&model, SolverConfig::default()).unwrap();
        // Flat curve: every regulation commands the same 33 cfm.
        let mut fan = FanController::new(FanCurve::new(vec![(50.0, 33.0)]).unwrap(), nodes::CPU);
        fan.min_step_cfm = 0.0; // defeat hysteresis: re-command every call
        fan.regulate(&mut solver).unwrap();
        solver.step();
        let after_first = solver.metrics().flow_recomputes.get();
        for _ in 0..5 {
            fan.regulate(&mut solver).unwrap();
            solver.step();
        }
        assert_eq!(
            solver.metrics().flow_recomputes.get(),
            after_first,
            "identical fan commands must hit the flow cache"
        );
    }

    #[test]
    fn unknown_sensor_errors() {
        let model = presets::validation_machine();
        let mut solver = Solver::new(&model, SolverConfig::default()).unwrap();
        let mut fan = FanController::new(FanCurve::ramp(40.0, 20.0, 70.0, 40.0), "gpu");
        assert!(fan.regulate(&mut solver).is_err());
    }
}
