//! Performance-counter energy accounting (§2.3, "Mercury for modern
//! processors").
//!
//! Computing CPU heat from a single high-level utilization number is not
//! adequate for processors whose power draw depends heavily on *what* they
//! execute. For the Pentium 4, the paper's `monitord` instead monitors
//! hardware performance counters and translates each observed performance
//! event into an estimated energy (the event-driven accounting of Bellosa
//! et al.). To avoid modifying Mercury itself, the per-interval energy is
//! converted to an average power and then *linearly mapped back to a
//! "low-level utilization"* in `[0% = P_base, 100% = P_max]`, which is what
//! gets reported to the solver.
//!
//! [`EventEnergyModel`] implements that pipeline:
//!
//! ```
//! use mercury::perf::{CounterSample, EventEnergyModel};
//! use mercury::units::{Seconds, Watts};
//!
//! let model = EventEnergyModel::pentium4();
//! let sample = CounterSample::new(Seconds(1.0))
//!     .with_count("uops_retired", 800_000_000)
//!     .with_count("l2_cache_miss", 2_000_000);
//! let power = model.average_power(&sample);
//! let util = model.low_level_utilization(&sample, Watts(12.0), Watts(55.0));
//! assert!(power.0 > 12.0);
//! assert!(util.fraction() > 0.0);
//! ```

use crate::units::{Joules, Seconds, Utilization, Watts};
use std::collections::HashMap;

/// A per-interval reading of hardware performance counters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CounterSample {
    interval: Seconds,
    counts: HashMap<String, u64>,
}

impl CounterSample {
    /// Creates an empty sample covering `interval` seconds.
    pub fn new(interval: Seconds) -> Self {
        CounterSample {
            interval,
            counts: HashMap::new(),
        }
    }

    /// Adds (or accumulates into) one counter's event count.
    pub fn with_count(mut self, event: impl Into<String>, count: u64) -> Self {
        *self.counts.entry(event.into()).or_insert(0) += count;
        self
    }

    /// The sampling interval.
    pub fn interval(&self) -> Seconds {
        self.interval
    }

    /// The count recorded for an event (0 when absent).
    pub fn count(&self, event: &str) -> u64 {
        self.counts.get(event).copied().unwrap_or(0)
    }

    /// Iterates over `(event, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

/// Maps performance-event counts to energy, power, and the "low-level
/// utilization" Mercury's solver consumes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventEnergyModel {
    /// Energy attributed to one occurrence of each event, nanojoules.
    event_nanojoules: HashMap<String, f64>,
    /// Power drawn independently of any counted event (clock tree, leakage).
    idle: Watts,
}

impl EventEnergyModel {
    /// Creates an empty model with the given uncounted idle power.
    pub fn new(idle: Watts) -> Self {
        EventEnergyModel {
            event_nanojoules: HashMap::new(),
            idle,
        }
    }

    /// A representative model for the Pentium 4 (Northwood-class) with
    /// per-event energies in the range published by event-driven energy
    /// accounting work: micro-ops around a few nJ, cache misses tens of
    /// nJ, bus transactions most expensive. The exact values are
    /// calibration inputs in practice; these defaults give realistic
    /// magnitudes (≈12 W idle to ≈55-60 W at full tilt).
    pub fn pentium4() -> Self {
        EventEnergyModel::new(Watts(12.0))
            .with_event("uops_retired", 4.8)
            .with_event("l2_cache_miss", 22.0)
            .with_event("bus_transaction", 42.0)
            .with_event("fp_uop", 7.5)
            .with_event("branch_mispredict", 12.0)
    }

    /// Adds (or replaces) an event's per-occurrence energy in nanojoules.
    pub fn with_event(mut self, event: impl Into<String>, nanojoules: f64) -> Self {
        self.event_nanojoules
            .insert(event.into(), nanojoules.max(0.0));
        self
    }

    /// Per-occurrence energy of an event, nanojoules (0 when unknown —
    /// unknown events contribute nothing rather than poisoning the
    /// estimate).
    pub fn event_energy_nj(&self, event: &str) -> f64 {
        self.event_nanojoules.get(event).copied().unwrap_or(0.0)
    }

    /// Total estimated energy of a sample: idle draw over the interval
    /// plus the per-event energies.
    pub fn energy(&self, sample: &CounterSample) -> Joules {
        let event_j: f64 = sample
            .iter()
            .map(|(event, count)| self.event_energy_nj(event) * 1e-9 * count as f64)
            .sum();
        Joules(self.idle.0 * sample.interval().0 + event_j)
    }

    /// Average power over the sample's interval.
    pub fn average_power(&self, sample: &CounterSample) -> Watts {
        let dt = sample.interval().0;
        if dt <= 0.0 {
            return self.idle;
        }
        Watts(self.energy(sample).0 / dt)
    }

    /// The paper's transformation: average power mapped linearly onto
    /// `[0% = base, 100% = max]` and clamped, so that the solver's linear
    /// power model (Equation 4) reproduces the estimated power exactly.
    pub fn low_level_utilization(
        &self,
        sample: &CounterSample,
        base: Watts,
        max: Watts,
    ) -> Utilization {
        let p = self.average_power(sample).0;
        if max.0 <= base.0 {
            return Utilization::IDLE;
        }
        Utilization::new((p - base.0) / (max.0 - base.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physics::PowerModel;

    #[test]
    fn energy_sums_idle_and_events() {
        let model = EventEnergyModel::new(Watts(10.0)).with_event("op", 1.0); // 1 nJ/op
        let sample = CounterSample::new(Seconds(2.0)).with_count("op", 1_000_000_000);
        // idle 10 W * 2 s = 20 J, events 1e9 * 1 nJ = 1 J.
        assert!((model.energy(&sample).0 - 21.0).abs() < 1e-9);
        assert!((model.average_power(&sample).0 - 10.5).abs() < 1e-9);
    }

    #[test]
    fn unknown_events_contribute_nothing() {
        let model = EventEnergyModel::new(Watts(5.0));
        let sample = CounterSample::new(Seconds(1.0)).with_count("mystery", u64::MAX / 2);
        assert!((model.average_power(&sample).0 - 5.0).abs() < 1e-9);
    }

    #[test]
    fn counts_accumulate_per_event() {
        let sample = CounterSample::new(Seconds(1.0))
            .with_count("op", 10)
            .with_count("op", 5);
        assert_eq!(sample.count("op"), 15);
        assert_eq!(sample.count("other"), 0);
        assert_eq!(sample.iter().count(), 1);
    }

    #[test]
    fn zero_interval_degrades_to_idle_power() {
        let model = EventEnergyModel::new(Watts(9.0)).with_event("op", 100.0);
        let sample = CounterSample::new(Seconds(0.0)).with_count("op", 1_000);
        assert_eq!(model.average_power(&sample), Watts(9.0));
    }

    #[test]
    fn low_level_utilization_round_trips_through_equation_4() {
        // The point of the transformation: feeding the derived utilization
        // into the linear power model must reproduce the estimated power.
        let model = EventEnergyModel::pentium4();
        let sample = CounterSample::new(Seconds(1.0))
            .with_count("uops_retired", 2_000_000_000)
            .with_count("l2_cache_miss", 40_000_000)
            .with_count("bus_transaction", 12_000_000);
        let base = Watts(12.0);
        let max = Watts(55.0);
        let estimated = model.average_power(&sample);
        let util = model.low_level_utilization(&sample, base, max);
        let linear = PowerModel::Linear { base, max };
        let reproduced = linear.power(util);
        if estimated.0 <= max.0 {
            assert!(
                (reproduced.0 - estimated.0).abs() < 1e-9,
                "estimated {estimated} vs reproduced {reproduced}"
            );
        } else {
            // Saturates at P_max when the estimate exceeds the range.
            assert_eq!(util, Utilization::FULL);
        }
    }

    #[test]
    fn utilization_clamps_to_range() {
        let model = EventEnergyModel::new(Watts(5.0));
        let idle_sample = CounterSample::new(Seconds(1.0));
        // 5 W estimated, base 12 -> below range -> 0.
        let u = model.low_level_utilization(&idle_sample, Watts(12.0), Watts(55.0));
        assert_eq!(u, Utilization::IDLE);
        // Degenerate base >= max -> 0.
        let u = model.low_level_utilization(&idle_sample, Watts(55.0), Watts(12.0));
        assert_eq!(u, Utilization::IDLE);
    }

    #[test]
    fn pentium4_defaults_have_realistic_magnitudes() {
        let model = EventEnergyModel::pentium4();
        // A busy second: ~2 G uops, heavy memory traffic.
        let busy = CounterSample::new(Seconds(1.0))
            .with_count("uops_retired", 2_500_000_000)
            .with_count("l2_cache_miss", 50_000_000)
            .with_count("bus_transaction", 20_000_000)
            .with_count("fp_uop", 500_000_000);
        let p = model.average_power(&busy).0;
        assert!((25.0..90.0).contains(&p), "busy P4 estimated at {p} W");
        let idle = CounterSample::new(Seconds(1.0));
        assert!((model.average_power(&idle).0 - 12.0).abs() < 1e-9);
    }
}
