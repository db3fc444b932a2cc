//! The governing equations of the Mercury thermal model (paper §2.1).
//!
//! Mercury's key insight is that software-level thermal management research
//! does not need wall-roughness-accurate CFD: a handful of coarse equations
//! suffice. This module implements exactly those equations as pure, easily
//! testable functions:
//!
//! 1. **Conservation of energy** — `Q_gained = Q_transfer + Q_component`
//!    (realized by the solver summing the two terms below per node).
//! 2. **Newton's law of cooling** — [`heat_transfer`]:
//!    `Q = k · (T₁ − T₂) · Δt`.
//! 3. **Energy equivalent of work** — [`PowerModel::power`] +
//!    [`heat_generated`]: `Q = P(utilization) · Δt` with the default linear
//!    form `P(u) = P_base + u · (P_max − P_base)`.
//! 4. **Heat capacity** — [`temperature_delta`]: `ΔT = ΔQ / (m · c)`.
//!
//! Air mixing (the "perfect mixing" weighted average of §2.2) is
//! implemented by [`mix_temperatures`].

use crate::units::{
    Celsius, Joules, JoulesPerKelvin, Kelvin, KilogramsPerSecond, Seconds, Utilization, Watts,
    WattsPerKelvin,
};

/// How a component converts utilization into dissipated power.
///
/// The paper's default is the linear form (Equation 4); §2.3 notes that it
/// "can be easily replaced by a more sophisticated one for components that
/// do not exhibit a linear relationship", which [`PowerModel::Table`]
/// provides. [`PowerModel::Constant`] models always-on components such as
/// the power supply (40 W) and the motherboard (4 W) in Table 1.
#[derive(Debug, Clone, PartialEq)]
pub enum PowerModel {
    /// `P(u) = base + u · (max − base)` — Equation 4 of the paper.
    Linear {
        /// Idle power consumption, `P_base`.
        base: Watts,
        /// Fully-utilized power consumption, `P_max`.
        max: Watts,
    },
    /// Piecewise-linear interpolation over `(utilization, power)` points.
    ///
    /// Points must be sorted by utilization; queries outside the table are
    /// clamped to the first/last point.
    Table(Vec<(Utilization, Watts)>),
    /// A fixed draw regardless of utilization.
    Constant(Watts),
}

impl PowerModel {
    /// Creates the default linear model from idle and peak Watts.
    pub fn linear(base: f64, max: f64) -> Self {
        PowerModel::Linear {
            base: Watts(base),
            max: Watts(max),
        }
    }

    /// The power consumed at a given utilization.
    pub fn power(&self, utilization: Utilization) -> Watts {
        let u = utilization.fraction();
        match self {
            PowerModel::Linear { base, max } => Watts(linear_power(base.0, max.0 - base.0, u)),
            PowerModel::Constant(w) => *w,
            PowerModel::Table(points) => interpolate_table(points, u),
        }
    }

    /// `(P_base, P_max − P_base)` of a [`PowerModel::Linear`] model —
    /// what [`linear_power`] takes — or `None` for the other forms. The
    /// batched solver keeps these per chunk lane so that it can price a
    /// utilization where the sweep consumes it.
    pub fn linear_coefficients(&self) -> Option<(f64, f64)> {
        match self {
            PowerModel::Linear { base, max } => Some((base.0, max.0 - base.0)),
            PowerModel::Constant(_) | PowerModel::Table(_) => None,
        }
    }

    /// The idle (minimum-utilization) power of this model.
    pub fn base(&self) -> Watts {
        self.power(Utilization::IDLE)
    }

    /// The peak (full-utilization) power of this model.
    pub fn max(&self) -> Watts {
        self.power(Utilization::FULL)
    }

    /// Validates the model: powers must be finite and non-negative and
    /// table points sorted.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            PowerModel::Linear { base, max } => {
                if !base.is_finite() || !max.is_finite() || base.0 < 0.0 || max.0 < 0.0 {
                    return Err(format!(
                        "linear power range ({base}, {max}) must be finite and non-negative"
                    ));
                }
                if max.0 < base.0 {
                    return Err(format!("peak power {max} is below idle power {base}"));
                }
                Ok(())
            }
            PowerModel::Constant(w) => {
                if !w.is_finite() || w.0 < 0.0 {
                    return Err(format!(
                        "constant power {w} must be finite and non-negative"
                    ));
                }
                Ok(())
            }
            PowerModel::Table(points) => {
                if points.is_empty() {
                    return Err("power table is empty".to_string());
                }
                for window in points.windows(2) {
                    if window[1].0 < window[0].0 {
                        return Err("power table points are not sorted by utilization".to_string());
                    }
                }
                if points.iter().any(|(_, w)| !w.is_finite() || w.0 < 0.0) {
                    return Err("power table contains a negative or non-finite power".to_string());
                }
                Ok(())
            }
        }
    }
}

/// Equation 4 in Watts: `P(u) = P_base + u · span`, with
/// `span = P_max − P_base`. The one place the expression is written:
/// [`PowerModel::power`] and the batched solver's in-lane pricing both
/// call it, so the two cannot drift apart by a rounding.
#[inline]
pub fn linear_power(base: f64, span: f64, u: f64) -> f64 {
    base + u * span
}

fn interpolate_table(points: &[(Utilization, Watts)], u: f64) -> Watts {
    debug_assert!(!points.is_empty());
    if u <= points[0].0.fraction() {
        return points[0].1;
    }
    if let Some(last) = points.last() {
        if u >= last.0.fraction() {
            return last.1;
        }
    }
    for window in points.windows(2) {
        let (u0, p0) = (window[0].0.fraction(), window[0].1 .0);
        let (u1, p1) = (window[1].0.fraction(), window[1].1 .0);
        if u >= u0 && u <= u1 {
            if (u1 - u0).abs() < f64::EPSILON {
                return Watts(p1);
            }
            let t = (u - u0) / (u1 - u0);
            return Watts(p0 + t * (p1 - p0));
        }
    }
    // Unreachable given the guards above, but stay total.
    points[points.len() - 1].1
}

/// Equation 2: the heat transferred from object 1 to object 2 over `dt`.
///
/// Positive when object 1 is hotter (heat flows 1 → 2).
pub fn heat_transfer(k: WattsPerKelvin, t1: Celsius, t2: Celsius, dt: Seconds) -> Joules {
    (k * (t1 - t2)) * dt
}

/// Equation 3: the heat produced by a component doing work over `dt`.
pub fn heat_generated(model: &PowerModel, utilization: Utilization, dt: Seconds) -> Joules {
    model.power(utilization) * dt
}

/// Equation 5: the temperature change caused by a heat gain/loss.
///
/// # Panics
///
/// Panics in debug builds if `capacity` is non-positive; the model builder
/// rejects such capacities, so release builds treat this as unreachable.
pub fn temperature_delta(q: Joules, capacity: JoulesPerKelvin) -> Kelvin {
    debug_assert!(capacity.0 > 0.0, "heat capacity must be positive");
    q / capacity
}

/// The "perfect mixing" weighted average of incoming air temperatures
/// (§2.2): each incoming stream contributes in proportion to its mass flow.
///
/// Returns `None` when the total incoming flow is zero (a stagnant region —
/// the caller keeps the previous temperature).
pub fn mix_temperatures(streams: &[(KilogramsPerSecond, Celsius)]) -> Option<Celsius> {
    let total: f64 = streams.iter().map(|(m, _)| m.0).sum();
    if total <= 0.0 {
        return None;
    }
    let weighted: f64 = streams.iter().map(|(m, t)| m.0 * t.0).sum();
    Some(Celsius(weighted / total))
}

/// The fraction of an air region's contents replaced by inflow during `dt`,
/// for a region holding `region_mass` kg of air. Capped at 1 (the region
/// cannot be more than fully flushed in one step).
pub fn replacement_fraction(inflow: KilogramsPerSecond, region_mass_kg: f64, dt: Seconds) -> f64 {
    if region_mass_kg <= 0.0 {
        return 1.0;
    }
    ((inflow.0 * dt.0) / region_mass_kg).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_power_matches_equation_4() {
        // The paper's Pentium III CPU: 7 W idle, 31 W peak.
        let cpu = PowerModel::linear(7.0, 31.0);
        assert_eq!(cpu.power(Utilization::IDLE), Watts(7.0));
        assert_eq!(cpu.power(Utilization::FULL), Watts(31.0));
        let half = cpu.power(Utilization::new(0.5));
        assert!((half.0 - 19.0).abs() < 1e-12);
        assert_eq!(cpu.base(), Watts(7.0));
        assert_eq!(cpu.max(), Watts(31.0));
    }

    #[test]
    fn linear_coefficients_reproduce_power_bit_for_bit() {
        let cpu = PowerModel::linear(7.0, 31.0);
        let (base, span) = cpu.linear_coefficients().unwrap();
        for u in [0.0, 0.1, 1.0 / 3.0, 0.73, 1.0] {
            assert_eq!(
                linear_power(base, span, u).to_bits(),
                cpu.power(Utilization::new(u)).0.to_bits()
            );
        }
        assert!(PowerModel::Constant(Watts(40.0))
            .linear_coefficients()
            .is_none());
        let table = PowerModel::Table(vec![(Utilization::new(0.0), Watts(10.0))]);
        assert!(table.linear_coefficients().is_none());
    }

    #[test]
    fn constant_power_ignores_utilization() {
        let psu = PowerModel::Constant(Watts(40.0));
        assert_eq!(psu.power(Utilization::IDLE), Watts(40.0));
        assert_eq!(psu.power(Utilization::FULL), Watts(40.0));
    }

    #[test]
    fn table_power_interpolates_and_clamps() {
        let table = PowerModel::Table(vec![
            (Utilization::new(0.0), Watts(10.0)),
            (Utilization::new(0.5), Watts(20.0)),
            (Utilization::new(1.0), Watts(40.0)),
        ]);
        assert_eq!(table.power(Utilization::new(0.0)), Watts(10.0));
        assert!((table.power(Utilization::new(0.25)).0 - 15.0).abs() < 1e-12);
        assert!((table.power(Utilization::new(0.75)).0 - 30.0).abs() < 1e-12);
        assert_eq!(table.power(Utilization::new(1.0)), Watts(40.0));
    }

    #[test]
    fn power_model_validation_catches_bad_inputs() {
        assert!(PowerModel::linear(7.0, 31.0).validate().is_ok());
        assert!(PowerModel::linear(31.0, 7.0).validate().is_err());
        assert!(PowerModel::linear(-1.0, 5.0).validate().is_err());
        assert!(PowerModel::Constant(Watts(f64::NAN)).validate().is_err());
        assert!(PowerModel::Table(vec![]).validate().is_err());
        let unsorted = PowerModel::Table(vec![
            (Utilization::new(0.5), Watts(1.0)),
            (Utilization::new(0.1), Watts(2.0)),
        ]);
        assert!(unsorted.validate().is_err());
    }

    #[test]
    fn heat_transfer_sign_follows_temperature_difference() {
        let k = WattsPerKelvin(2.0);
        let q = heat_transfer(k, Celsius(30.0), Celsius(20.0), Seconds(1.0));
        assert_eq!(q, Joules(20.0));
        let q = heat_transfer(k, Celsius(20.0), Celsius(30.0), Seconds(1.0));
        assert_eq!(q, Joules(-20.0));
        let q = heat_transfer(k, Celsius(25.0), Celsius(25.0), Seconds(100.0));
        assert_eq!(q, Joules(0.0));
    }

    #[test]
    fn heat_transfer_scales_linearly_with_time() {
        let k = WattsPerKelvin(0.75);
        let q1 = heat_transfer(k, Celsius(60.0), Celsius(30.0), Seconds(1.0));
        let q10 = heat_transfer(k, Celsius(60.0), Celsius(30.0), Seconds(10.0));
        assert!((q10.0 - 10.0 * q1.0).abs() < 1e-12);
    }

    #[test]
    fn generated_heat_is_power_times_time() {
        let cpu = PowerModel::linear(7.0, 31.0);
        let q = heat_generated(&cpu, Utilization::FULL, Seconds(60.0));
        assert_eq!(q, Joules(31.0 * 60.0));
    }

    #[test]
    fn temperature_delta_matches_equation_5() {
        // CPU + heat sink: 0.151 kg at 896 J/(kg·K) -> 135.296 J/K.
        let cap = JoulesPerKelvin(135.296);
        let dt = temperature_delta(Joules(135.296), cap);
        assert!((dt.0 - 1.0).abs() < 1e-12);
        let dt = temperature_delta(Joules(-270.592), cap);
        assert!((dt.0 + 2.0).abs() < 1e-12);
    }

    #[test]
    fn mixing_is_flow_weighted() {
        let streams = [
            (KilogramsPerSecond(3.0), Celsius(20.0)),
            (KilogramsPerSecond(1.0), Celsius(40.0)),
        ];
        let t = mix_temperatures(&streams).unwrap();
        assert!((t.0 - 25.0).abs() < 1e-12);
    }

    #[test]
    fn mixing_with_no_flow_is_none() {
        assert!(mix_temperatures(&[]).is_none());
        assert!(mix_temperatures(&[(KilogramsPerSecond(0.0), Celsius(50.0))]).is_none());
    }

    #[test]
    fn mixing_single_stream_is_identity() {
        let t = mix_temperatures(&[(KilogramsPerSecond(0.5), Celsius(33.3))]).unwrap();
        assert!((t.0 - 33.3).abs() < 1e-12);
    }

    #[test]
    fn replacement_fraction_caps_at_one() {
        assert_eq!(
            replacement_fraction(KilogramsPerSecond(1.0), 0.1, Seconds(1.0)),
            1.0
        );
        let f = replacement_fraction(KilogramsPerSecond(0.01), 0.1, Seconds(1.0));
        assert!((f - 0.1).abs() < 1e-12);
        assert_eq!(
            replacement_fraction(KilogramsPerSecond(1.0), 0.0, Seconds(1.0)),
            1.0
        );
    }
}
