//! Per-component temperature thresholds (`T_l`, `T_h`, `T_r`), as a
//! [`crate::PolicySpec`] lists them.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
