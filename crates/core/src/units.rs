//! Typed physical quantities used throughout the suite.
//!
//! Mercury deals in a handful of physical units; mixing them up is the
//! classic catastrophic-but-silent bug in thermal code (a `k` in W/K added
//! to a temperature in °C type-checks fine if everything is `f64`). The
//! newtypes in this module make those mistakes compile errors while staying
//! zero-cost: each is a transparent wrapper around `f64` with only the
//! dimensionally meaningful arithmetic defined.
//!
//! ```
//! use mercury::units::{Celsius, Kelvin};
//!
//! let inlet = Celsius(21.6);
//! let hot = Celsius(38.6);
//! let delta: Kelvin = hot - inlet; // temperature differences are Kelvin
//! assert!((delta.0 - 17.0).abs() < 1e-9);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// Returns the wrapped value as a raw `f64`.
            pub fn value(self) -> f64 {
                self.0
            }

            /// Returns `true` if the wrapped value is finite (not NaN or ±∞).
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match f.precision() {
                    Some(p) => write!(f, "{:.*} {}", p, self.0, $suffix),
                    None => write!(f, "{} {}", self.0, $suffix),
                }
            }
        }

        impl From<f64> for $name {
            fn from(v: f64) -> Self {
                $name(v)
            }
        }

        impl From<$name> for f64 {
            fn from(v: $name) -> f64 {
                v.0
            }
        }
    };
}

unit!(
    /// A temperature in degrees Celsius.
    Celsius,
    "°C"
);
unit!(
    /// A temperature *difference* in Kelvin (identical magnitude to a
    /// Celsius difference; kept distinct so that absolute temperatures and
    /// deltas cannot be confused).
    Kelvin,
    "K"
);
unit!(
    /// Power in Watts.
    Watts,
    "W"
);
unit!(
    /// Energy (heat) in Joules.
    Joules,
    "J"
);
unit!(
    /// Mass in kilograms.
    Kilograms,
    "kg"
);
unit!(
    /// Specific heat capacity in J/(kg·K).
    JoulesPerKgKelvin,
    "J/(kg·K)"
);
unit!(
    /// Heat capacity (mass × specific heat) in J/K.
    JoulesPerKelvin,
    "J/K"
);
unit!(
    /// A heat-transfer coefficient (the paper's `k`) in W/K — it already
    /// embodies the surface area of the object.
    WattsPerKelvin,
    "W/K"
);
unit!(
    /// A duration in seconds.
    Seconds,
    "s"
);
unit!(
    /// Volumetric air flow in m³/s.
    CubicMetersPerSecond,
    "m³/s"
);
unit!(
    /// Mass flow in kg/s.
    KilogramsPerSecond,
    "kg/s"
);

/// Density of air at ~25 °C and sea-level pressure, kg/m³.
pub const AIR_DENSITY: f64 = 1.184;

/// Specific heat capacity of air at constant pressure, J/(kg·K).
pub const AIR_SPECIFIC_HEAT: JoulesPerKgKelvin = JoulesPerKgKelvin(1005.0);

/// One cubic foot per minute expressed in m³/s.
pub const CFM_TO_M3S: f64 = 0.000_471_947_443;

impl CubicMetersPerSecond {
    /// Creates a volumetric flow from cubic feet per minute, the unit used
    /// for fan speeds in the paper's Table 1 (e.g. `38.6 ft³/min`).
    pub fn from_cfm(cfm: f64) -> Self {
        CubicMetersPerSecond(cfm * CFM_TO_M3S)
    }

    /// Converts this flow back to cubic feet per minute.
    pub fn to_cfm(self) -> f64 {
        self.0 / CFM_TO_M3S
    }

    /// The air mass flow corresponding to this volumetric flow at standard
    /// air density.
    pub fn mass_flow(self) -> KilogramsPerSecond {
        KilogramsPerSecond(self.0 * AIR_DENSITY)
    }
}

// --- Temperature arithmetic -------------------------------------------------

impl Sub for Celsius {
    type Output = Kelvin;
    fn sub(self, rhs: Celsius) -> Kelvin {
        Kelvin(self.0 - rhs.0)
    }
}

impl Add<Kelvin> for Celsius {
    type Output = Celsius;
    fn add(self, rhs: Kelvin) -> Celsius {
        Celsius(self.0 + rhs.0)
    }
}

impl Sub<Kelvin> for Celsius {
    type Output = Celsius;
    fn sub(self, rhs: Kelvin) -> Celsius {
        Celsius(self.0 - rhs.0)
    }
}

impl AddAssign<Kelvin> for Celsius {
    fn add_assign(&mut self, rhs: Kelvin) {
        self.0 += rhs.0;
    }
}

impl SubAssign<Kelvin> for Celsius {
    fn sub_assign(&mut self, rhs: Kelvin) {
        self.0 -= rhs.0;
    }
}

impl Add for Kelvin {
    type Output = Kelvin;
    fn add(self, rhs: Kelvin) -> Kelvin {
        Kelvin(self.0 + rhs.0)
    }
}

impl Sub for Kelvin {
    type Output = Kelvin;
    fn sub(self, rhs: Kelvin) -> Kelvin {
        Kelvin(self.0 - rhs.0)
    }
}

impl Neg for Kelvin {
    type Output = Kelvin;
    fn neg(self) -> Kelvin {
        Kelvin(-self.0)
    }
}

impl Mul<f64> for Kelvin {
    type Output = Kelvin;
    fn mul(self, rhs: f64) -> Kelvin {
        Kelvin(self.0 * rhs)
    }
}

// --- Heat / power arithmetic -------------------------------------------------

impl Mul<Seconds> for Watts {
    type Output = Joules;
    fn mul(self, rhs: Seconds) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Mul<Kelvin> for WattsPerKelvin {
    type Output = Watts;
    fn mul(self, rhs: Kelvin) -> Watts {
        Watts(self.0 * rhs.0)
    }
}

impl Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        Watts(iter.map(|w| w.0).sum())
    }
}

impl Add for Joules {
    type Output = Joules;
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}

impl Sub for Joules {
    type Output = Joules;
    fn sub(self, rhs: Joules) -> Joules {
        Joules(self.0 - rhs.0)
    }
}

impl AddAssign for Joules {
    fn add_assign(&mut self, rhs: Joules) {
        self.0 += rhs.0;
    }
}

impl SubAssign for Joules {
    fn sub_assign(&mut self, rhs: Joules) {
        self.0 -= rhs.0;
    }
}

impl Neg for Joules {
    type Output = Joules;
    fn neg(self) -> Joules {
        Joules(-self.0)
    }
}

impl Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Joules {
        Joules(iter.map(|j| j.0).sum())
    }
}

impl Div<JoulesPerKelvin> for Joules {
    type Output = Kelvin;
    fn div(self, rhs: JoulesPerKelvin) -> Kelvin {
        Kelvin(self.0 / rhs.0)
    }
}

impl Mul<JoulesPerKgKelvin> for Kilograms {
    type Output = JoulesPerKelvin;
    fn mul(self, rhs: JoulesPerKgKelvin) -> JoulesPerKelvin {
        JoulesPerKelvin(self.0 * rhs.0)
    }
}

/// A component utilization in the closed interval `[0, 1]`.
///
/// Construction clamps NaN to 0 and saturates out-of-range values, because
/// utilizations arrive from noisy sources (`/proc`, UDP messages, traces)
/// and the solver must never be poisoned by a bad sample.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Utilization(f64);

impl Utilization {
    /// Fully idle.
    pub const IDLE: Utilization = Utilization(0.0);
    /// Fully busy.
    pub const FULL: Utilization = Utilization(1.0);

    /// Creates a utilization, clamping to `[0, 1]` and mapping NaN to 0.
    pub fn new(value: f64) -> Self {
        if value.is_nan() {
            Utilization(0.0)
        } else {
            Utilization(value.clamp(0.0, 1.0))
        }
    }

    /// Creates a utilization from a percentage in `[0, 100]`.
    pub fn from_percent(pct: f64) -> Self {
        Utilization::new(pct / 100.0)
    }

    /// The utilization as a fraction in `[0, 1]`.
    pub fn fraction(self) -> f64 {
        self.0
    }

    /// The utilization as a percentage in `[0, 100]`.
    pub fn percent(self) -> f64 {
        self.0 * 100.0
    }
}

impl fmt::Display for Utilization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.percent())
    }
}

impl From<f64> for Utilization {
    fn from(v: f64) -> Self {
        Utilization::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn celsius_difference_is_kelvin() {
        let d = Celsius(38.6) - Celsius(21.6);
        assert!((d.0 - 17.0).abs() < 1e-12);
    }

    #[test]
    fn celsius_plus_kelvin_round_trips() {
        let t = Celsius(20.0) + Kelvin(5.5);
        assert_eq!(t, Celsius(25.5));
        let t2 = t - Kelvin(5.5);
        assert!((t2.0 - 20.0).abs() < 1e-12);
    }

    #[test]
    fn power_times_time_is_energy() {
        let q = Watts(31.0) * Seconds(2.0);
        assert_eq!(q, Joules(62.0));
    }

    #[test]
    fn conductance_times_delta_is_power() {
        let p = WattsPerKelvin(0.75) * Kelvin(40.0);
        assert!((p.0 - 30.0).abs() < 1e-12);
    }

    #[test]
    fn heat_over_capacity_is_delta_t() {
        let cap = Kilograms(0.151) * JoulesPerKgKelvin(896.0);
        let dt = Joules(135.296) / cap;
        assert!((dt.0 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cfm_conversion_matches_table_1_fan() {
        let flow = CubicMetersPerSecond::from_cfm(38.6);
        assert!((flow.0 - 0.018217).abs() < 1e-4);
        assert!((flow.to_cfm() - 38.6).abs() < 1e-9);
        // Mass flow of the paper's fan is about 21.6 g/s.
        let m = flow.mass_flow();
        assert!((m.0 - 0.02157).abs() < 5e-4, "mass flow was {m}");
    }

    #[test]
    fn utilization_clamps_and_rejects_nan() {
        assert_eq!(Utilization::new(-0.5).fraction(), 0.0);
        assert_eq!(Utilization::new(1.5).fraction(), 1.0);
        assert_eq!(Utilization::new(f64::NAN).fraction(), 0.0);
        assert_eq!(Utilization::from_percent(70.0).fraction(), 0.7);
    }

    #[test]
    fn display_includes_units() {
        assert_eq!(format!("{:.1}", Celsius(21.64)), "21.6 °C");
        assert_eq!(format!("{}", Watts(40.0)), "40 W");
        assert_eq!(format!("{}", Utilization::from_percent(12.34)), "12.3%");
    }

    #[test]
    fn joules_sum_and_assign_ops() {
        let mut q = Joules(1.0);
        q += Joules(2.0);
        q -= Joules(0.5);
        assert_eq!(q, Joules(2.5));
        let total: Joules = vec![Joules(1.0), Joules(2.0)].into_iter().sum();
        assert_eq!(total, Joules(3.0));
    }
}
