//! Offered-load profiles over time.

/// A valley→peak→valley load curve over one period — the "well-known
/// traffic pattern of most Internet services" the paper's trace mimics.
///
/// The curve is a raised cosine rising from `valley_rps` to `peak_rps`,
/// with the peak placed at `peak_position` (a fraction of the period, 0.5
/// by default) and an asymmetric rise/fall so afternoon peaks can arrive
/// late in the day, as in the paper's Figure 11 where load subsides around
/// t = 1500 s of a 2000 s run.
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalProfile {
    period_s: f64,
    valley_rps: f64,
    peak_rps: f64,
    peak_position: f64,
    /// Width of the flat top around the peak, as a fraction of the period.
    plateau: f64,
}

impl DiurnalProfile {
    /// Creates a profile with the peak at mid-period.
    ///
    /// Non-finite or negative rates are clamped to zero; a non-positive
    /// period is clamped to one second.
    pub fn new(period_s: f64, valley_rps: f64, peak_rps: f64) -> Self {
        let clamp = |v: f64| if v.is_finite() { v.max(0.0) } else { 0.0 };
        DiurnalProfile {
            period_s: if period_s.is_finite() {
                period_s.max(1.0)
            } else {
                1.0
            },
            valley_rps: clamp(valley_rps),
            peak_rps: clamp(peak_rps).max(clamp(valley_rps)),
            peak_position: 0.5,
            plateau: 0.0,
        }
    }

    /// Moves the peak to `fraction` of the period (clamped to
    /// `[0.05, 0.95]`).
    pub fn with_peak_at(mut self, fraction: f64) -> Self {
        self.peak_position = fraction.clamp(0.05, 0.95);
        self
    }

    /// Holds the load flat at the peak for `fraction` of the period,
    /// centered on the peak position (clamped to `[0, 0.8]`) — afternoon
    /// peaks are sustained, not instantaneous.
    pub fn with_plateau(mut self, fraction: f64) -> Self {
        self.plateau = fraction.clamp(0.0, 0.8);
        self
    }

    /// The profile's period.
    pub fn period_s(&self) -> f64 {
        self.period_s
    }

    /// The valley request rate.
    pub fn valley_rps(&self) -> f64 {
        self.valley_rps
    }

    /// The peak request rate.
    pub fn peak_rps(&self) -> f64 {
        self.peak_rps
    }

    /// Offered load at time `t` seconds (periodic).
    pub fn rps_at(&self, t: f64) -> f64 {
        let phase = (t.rem_euclid(self.period_s)) / self.period_s;
        // Piecewise raised cosine: 0 at the period edges, 1 across the
        // (possibly zero-width) plateau around the peak.
        let half = self.plateau / 2.0;
        let rise_end = (self.peak_position - half).clamp(1e-6, 1.0);
        let fall_start = (self.peak_position + half).clamp(0.0, 1.0 - 1e-6);
        let shape = if phase <= rise_end {
            0.5 * (1.0 - (std::f64::consts::PI * (phase / rise_end)).cos())
        } else if phase < fall_start {
            1.0
        } else {
            let fall = (phase - fall_start) / (1.0 - fall_start);
            0.5 * (1.0 + (std::f64::consts::PI * fall).cos())
        };
        self.valley_rps + (self.peak_rps - self.valley_rps) * shape
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valley_at_edges_peak_at_position() {
        let p = DiurnalProfile::new(2000.0, 40.0, 300.0).with_peak_at(0.65);
        assert!((p.rps_at(0.0) - 40.0).abs() < 1e-9);
        assert!((p.rps_at(2000.0) - 40.0).abs() < 1e-9);
        assert!((p.rps_at(1300.0) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn curve_is_monotone_up_then_down() {
        let p = DiurnalProfile::new(1000.0, 10.0, 100.0).with_peak_at(0.5);
        let mut last = p.rps_at(0.0);
        for t in 1..=500 {
            let v = p.rps_at(t as f64);
            assert!(v >= last - 1e-9, "dip on the way up at t={t}");
            last = v;
        }
        for t in 501..=1000 {
            let v = p.rps_at(t as f64);
            assert!(v <= last + 1e-9, "bump on the way down at t={t}");
            last = v;
        }
    }

    #[test]
    fn profile_is_periodic() {
        let p = DiurnalProfile::new(500.0, 5.0, 50.0).with_peak_at(0.3);
        for t in [0.0, 123.0, 250.0, 499.0] {
            assert!((p.rps_at(t) - p.rps_at(t + 500.0)).abs() < 1e-9);
            assert!((p.rps_at(t) - p.rps_at(t - 500.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn values_stay_within_valley_and_peak() {
        let p = DiurnalProfile::new(777.0, 12.0, 88.0).with_peak_at(0.8);
        for t in 0..777 {
            let v = p.rps_at(t as f64);
            assert!(
                (12.0..=88.0 + 1e-9).contains(&v),
                "out of range at {t}: {v}"
            );
        }
    }

    #[test]
    fn bad_inputs_are_clamped() {
        let p = DiurnalProfile::new(-3.0, f64::NAN, -1.0);
        assert_eq!(p.period_s(), 1.0);
        assert_eq!(p.valley_rps(), 0.0);
        assert_eq!(p.peak_rps(), 0.0);
        let p = DiurnalProfile::new(100.0, 50.0, 10.0);
        // Peak below valley is raised to the valley.
        assert_eq!(p.peak_rps(), 50.0);
        let p = DiurnalProfile::new(100.0, 0.0, 1.0).with_peak_at(2.0);
        assert!((p.rps_at(95.0) - p.rps_at(95.0)).abs() < 1e-12); // no panic
    }
}
