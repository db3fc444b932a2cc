//! The PD feedback controller (§4.1, "Details").

/// The paper's proportional gain.
pub const DEFAULT_KP: f64 = 0.1;
/// The paper's derivative gain.
pub const DEFAULT_KD: f64 = 0.2;

/// A proportional-derivative controller for one component's temperature.
///
/// The output is computed only while the temperature exceeds the high
/// threshold and is forced non-negative:
///
/// ```text
/// output_c = max(kp·(T_curr − T_h) + kd·(T_curr − T_last), 0)
/// ```
///
/// ```
/// use freon::PdController;
///
/// let mut pd = PdController::paper();
/// // 2° above threshold and climbing 1°/interval:
/// let first = pd.output(69.0, 67.0);
/// let second = pd.output(70.0, 67.0);
/// assert!(second > first);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PdController {
    kp: f64,
    kd: f64,
    last: Option<f64>,
}

impl PdController {
    /// Creates a controller with explicit gains.
    pub fn new(kp: f64, kd: f64) -> Self {
        PdController { kp, kd, last: None }
    }

    /// The paper's controller: kp = 0.1, kd = 0.2.
    pub fn paper() -> Self {
        PdController::new(DEFAULT_KP, DEFAULT_KD)
    }

    /// A proportional-only variant (kd = 0) — used by the ablation
    /// experiments to show what the derivative term buys.
    pub fn proportional_only(kp: f64) -> Self {
        PdController::new(kp, 0.0)
    }

    /// The proportional gain.
    pub fn kp(&self) -> f64 {
        self.kp
    }

    /// The derivative gain.
    pub fn kd(&self) -> f64 {
        self.kd
    }

    /// Computes the controller output for the current temperature against
    /// the high threshold, updating the remembered last observation.
    ///
    /// On the first call the derivative term is zero (there is no
    /// previous observation yet).
    pub fn output(&mut self, t_curr: f64, t_high: f64) -> f64 {
        let derivative = match self.last {
            Some(last) => t_curr - last,
            None => 0.0,
        };
        self.last = Some(t_curr);
        (self.kp * (t_curr - t_high) + self.kd * derivative).max(0.0)
    }

    /// Forgets the controller's history — called when the component drops
    /// below its low threshold and the emergency episode ends.
    pub fn reset(&mut self) {
        self.last = None;
    }

    /// The last observed temperature, if any.
    pub fn last_observation(&self) -> Option<f64> {
        self.last
    }
}

impl Default for PdController {
    fn default() -> Self {
        PdController::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_matches_the_paper_formula() {
        let mut pd = PdController::paper();
        // First observation: T=69, Th=67 -> 0.1·2 + 0 = 0.2.
        assert!((pd.output(69.0, 67.0) - 0.2).abs() < 1e-12);
        // Second: T=70 -> 0.1·3 + 0.2·1 = 0.5.
        assert!((pd.output(70.0, 67.0) - 0.5).abs() < 1e-12);
        // Falling fast: T=67.5, derivative −2.5 -> 0.05 − 0.5 -> clamped 0.
        assert_eq!(pd.output(67.5, 67.0), 0.0);
    }

    #[test]
    fn output_is_never_negative() {
        let mut pd = PdController::paper();
        assert_eq!(pd.output(60.0, 67.0), 0.0);
        assert_eq!(pd.output(50.0, 67.0), 0.0);
    }

    #[test]
    fn reset_clears_the_derivative_history() {
        let mut pd = PdController::paper();
        pd.output(70.0, 67.0);
        assert_eq!(pd.last_observation(), Some(70.0));
        pd.reset();
        assert_eq!(pd.last_observation(), None);
        // After a reset, derivative is zero again.
        assert!((pd.output(70.0, 67.0) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn proportional_only_has_no_derivative_kick() {
        let mut pd = PdController::proportional_only(0.1);
        pd.output(68.0, 67.0);
        let out = pd.output(72.0, 67.0); // big jump, no kd
        assert!((out - 0.5).abs() < 1e-12);
        assert_eq!(pd.kd(), 0.0);
        assert_eq!(pd.kp(), 0.1);
    }

    #[test]
    fn rising_temperature_raises_output_via_kd() {
        let mut slow = PdController::paper();
        let mut fast = PdController::paper();
        slow.output(68.0, 67.0);
        fast.output(68.0, 67.0);
        let slow_out = slow.output(68.2, 67.0);
        let fast_out = fast.output(70.0, 67.0);
        assert!(fast_out > slow_out);
    }
}
