//! Seeded arrival generation and pre-generated traces.

use crate::mix::RequestMix;
use crate::profile::DiurnalProfile;
use cluster_sim::{Request, RequestKind};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{object, req_field, DeError, Deserialize, Serialize, Value};

/// Generates Poisson arrivals second by second, following a profile.
///
/// The generator is deterministic for a given `(profile, mix, seed)`
/// triple — the ChaCha8 stream is stable across platforms — so every
/// policy under comparison can be driven by the *same* trace, which is
/// the whole point of emulation ("enables repeatable experiments").
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    profile: DiurnalProfile,
    mix: RequestMix,
    rng: ChaCha8Rng,
}

impl WorkloadGenerator {
    /// Creates a generator with the given seed.
    pub fn new(profile: DiurnalProfile, mix: RequestMix, seed: u64) -> Self {
        WorkloadGenerator {
            profile,
            mix,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// The load profile.
    pub fn profile(&self) -> &DiurnalProfile {
        &self.profile
    }

    /// The request mix.
    pub fn mix(&self) -> &RequestMix {
        &self.mix
    }

    /// Draws the arrivals for second `t`.
    pub fn arrivals_at(&mut self, t: u64) -> Vec<Request> {
        let lambda = self.profile.rps_at(t as f64);
        let count = poisson(&mut self.rng, lambda);
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let kind = if self.rng.gen::<f64>() < self.mix.dynamic_fraction {
                RequestKind::Dynamic
            } else {
                RequestKind::Static
            };
            out.push(self.mix.request(kind));
        }
        out
    }

    /// Pre-generates `duration_s` seconds into a compact trace.
    pub fn generate(&mut self, duration_s: u64) -> WorkloadTrace {
        let mut seconds = Vec::with_capacity(duration_s as usize);
        for t in 0..duration_s {
            let arrivals = self.arrivals_at(t);
            let dynamic = arrivals
                .iter()
                .filter(|r| r.kind() == RequestKind::Dynamic)
                .count() as u32;
            seconds.push(SecondCounts {
                static_count: (arrivals.len() as u32) - dynamic,
                dynamic_count: dynamic,
            });
        }
        WorkloadTrace {
            mix: self.mix.clone(),
            seconds,
        }
    }
}

/// Sample a Poisson variate. Knuth's product method below λ=30, normal
/// approximation above (clamped at zero) — accurate enough for load
/// generation and allocation-free.
fn poisson(rng: &mut ChaCha8Rng, lambda: f64) -> usize {
    if lambda.is_nan() || lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0usize;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
            if k > 10_000 {
                return k; // numerical safety net
            }
        }
    } else {
        // Box-Muller normal approximation N(λ, λ).
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = lambda + lambda.sqrt() * z;
        v.round().max(0.0) as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SecondCounts {
    static_count: u32,
    dynamic_count: u32,
}

/// One second of a [`WorkloadTrace`]'s arrivals, materialized lazily:
/// what [`WorkloadTrace::arrivals_at`] returns and `ClusterSim::tick`
/// consumes without a per-second `Vec`. Its length is exact.
#[derive(Debug, Clone)]
pub struct Arrivals {
    dynamic: Request,
    dynamic_left: u32,
    static_file: Request,
    static_left: u32,
}

impl Iterator for Arrivals {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.dynamic_left > 0 {
            self.dynamic_left -= 1;
            Some(self.dynamic.clone())
        } else if self.static_left > 0 {
            self.static_left -= 1;
            Some(self.static_file.clone())
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.dynamic_left as usize + self.static_left as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Arrivals {}

/// A pre-generated arrival schedule: per-second static/dynamic counts,
/// materialized back into [`Request`] values at replay time.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadTrace {
    mix: RequestMix,
    seconds: Vec<SecondCounts>,
}

impl WorkloadTrace {
    /// Length of the trace, seconds.
    pub fn duration_s(&self) -> u64 {
        self.seconds.len() as u64
    }

    /// The mix requests are materialized with.
    pub fn mix(&self) -> &RequestMix {
        &self.mix
    }

    /// The arrivals of second `t` (none past the end): the dynamic
    /// requests, then the static ones, each made as it is taken.
    pub fn arrivals_at(&self, t: u64) -> Arrivals {
        let counts = self.seconds.get(t as usize);
        Arrivals {
            dynamic: self.mix.request(RequestKind::Dynamic),
            dynamic_left: counts.map_or(0, |c| c.dynamic_count),
            static_file: self.mix.request(RequestKind::Static),
            static_left: counts.map_or(0, |c| c.static_count),
        }
    }

    /// Total requests in the trace.
    pub fn total_requests(&self) -> u64 {
        self.seconds
            .iter()
            .map(|s| (s.static_count + s.dynamic_count) as u64)
            .sum()
    }

    /// Fraction of requests that are dynamic.
    pub fn dynamic_fraction(&self) -> f64 {
        let total = self.total_requests();
        if total == 0 {
            return 0.0;
        }
        let dynamic: u64 = self.seconds.iter().map(|s| s.dynamic_count as u64).sum();
        dynamic as f64 / total as f64
    }

    /// Offered requests during second `t`.
    pub fn offered_at(&self, t: u64) -> u32 {
        self.seconds
            .get(t as usize)
            .map(|s| s.static_count + s.dynamic_count)
            .unwrap_or(0)
    }

    /// Serializes the trace to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("traces contain only plain data")
    }

    /// Reads a trace back from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error for malformed input.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Converts the offered load to a component-utilization series: the
    /// mean offered rate over each `interval_s`-second bucket divided by
    /// `peak_rps` (the rate that saturates the component), clamped to
    /// `[0, 1]`. This is how `mercury-traceconv` turns a generated
    /// workload into solver inputs without this crate depending on the
    /// solver.
    ///
    /// # Panics
    ///
    /// Panics when `interval_s` is zero or `peak_rps` is not a positive
    /// finite number.
    pub fn utilization_series(&self, interval_s: u64, peak_rps: f64) -> Vec<f64> {
        assert!(interval_s > 0, "interval must be at least one second");
        assert!(
            peak_rps.is_finite() && peak_rps > 0.0,
            "peak rate must be positive"
        );
        let buckets = self.duration_s().div_ceil(interval_s);
        (0..buckets)
            .map(|b| {
                let start = b * interval_s;
                let end = (start + interval_s).min(self.duration_s());
                let offered: u64 = (start..end).map(|t| u64::from(self.offered_at(t))).sum();
                let mean = offered as f64 / (end - start) as f64;
                (mean / peak_rps).clamp(0.0, 1.0)
            })
            .collect()
    }
}

// --- JSON ------------------------------------------------------------------
//
// A trace's JSON is `{"mix": {...}, "seconds": [{"static_count": n,
// "dynamic_count": n}, ...]}`, keys in that order; every object refuses a
// key it does not know and needs every key it does.

impl Serialize for RequestMix {
    fn to_value(&self) -> Value {
        Value::object([
            ("dynamic_fraction", Value::Num(self.dynamic_fraction)),
            ("dynamic_cpu_ms", Value::Num(self.dynamic_cpu_ms)),
            ("dynamic_disk_ms", Value::Num(self.dynamic_disk_ms)),
            ("static_cpu_ms", Value::Num(self.static_cpu_ms)),
            ("static_disk_ms", Value::Num(self.static_disk_ms)),
        ])
    }
}

impl Deserialize for RequestMix {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        const KEYS: [&str; 5] = [
            "dynamic_fraction",
            "dynamic_cpu_ms",
            "dynamic_disk_ms",
            "static_cpu_ms",
            "static_disk_ms",
        ];
        let entries = object(v, "mix", &KEYS)?;
        let field = |key| req_field(entries, key, "mix");
        Ok(RequestMix {
            dynamic_fraction: field(KEYS[0])?,
            dynamic_cpu_ms: field(KEYS[1])?,
            dynamic_disk_ms: field(KEYS[2])?,
            static_cpu_ms: field(KEYS[3])?,
            static_disk_ms: field(KEYS[4])?,
        })
    }
}

impl Serialize for SecondCounts {
    fn to_value(&self) -> Value {
        Value::object([
            ("static_count", self.static_count.to_value()),
            ("dynamic_count", self.dynamic_count.to_value()),
        ])
    }
}

impl Deserialize for SecondCounts {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let entries = object(v, "second", &["static_count", "dynamic_count"])?;
        Ok(SecondCounts {
            static_count: req_field(entries, "static_count", "second")?,
            dynamic_count: req_field(entries, "dynamic_count", "second")?,
        })
    }
}

impl Serialize for WorkloadTrace {
    fn to_value(&self) -> Value {
        Value::object([
            ("mix", self.mix.to_value()),
            ("seconds", self.seconds.to_value()),
        ])
    }
}

impl Deserialize for WorkloadTrace {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let entries = object(v, "trace", &["mix", "seconds"])?;
        Ok(WorkloadTrace {
            mix: req_field(entries, "mix", "trace")?,
            seconds: req_field(entries, "seconds", "trace")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn paper_generator(seed: u64) -> WorkloadGenerator {
        let mix = RequestMix::paper();
        let peak = mix.rps_for_cpu_utilization(0.7, 4, 1000.0);
        let profile = DiurnalProfile::new(2000.0, peak * 0.15, peak).with_peak_at(0.65);
        WorkloadGenerator::new(profile, mix, seed)
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let t1 = paper_generator(7).generate(500);
        let t2 = paper_generator(7).generate(500);
        assert_eq!(t1, t2);
        let t3 = paper_generator(8).generate(500);
        assert_ne!(t1, t3);
    }

    #[test]
    fn utilization_series_buckets_and_clamps() {
        let trace = paper_generator(42).generate(100);
        // A saturation rate well below the offered load clamps at 1.
        assert!(trace.utilization_series(10, 1e-3).iter().all(|u| *u == 1.0));
        // Bucketing conserves the offered total (peak chosen so nothing
        // clamps; a 1 s bucket is just offered/peak).
        let peak = 10.0 * trace.total_requests() as f64;
        let per_second = trace.utilization_series(1, peak);
        assert_eq!(per_second.len(), 100);
        for (t, u) in per_second.iter().enumerate() {
            assert_eq!(*u, f64::from(trace.offered_at(t as u64)) / peak);
        }
        // A coarse bucket is the mean of its seconds.
        let coarse = trace.utilization_series(25, peak);
        assert_eq!(coarse.len(), 4);
        let mean: f64 = per_second[..25].iter().sum::<f64>() / 25.0;
        assert!((coarse[0] - mean).abs() < 1e-12);
    }

    #[test]
    fn dynamic_share_approximates_30_percent() {
        let trace = paper_generator(42).generate(2000);
        let share = trace.dynamic_fraction();
        assert!((share - 0.3).abs() < 0.02, "dynamic share {share}");
    }

    #[test]
    fn offered_load_follows_the_profile_shape() {
        let trace = paper_generator(42).generate(2000);
        let window = |center: u64| -> f64 {
            let lo = center.saturating_sub(50);
            (lo..center + 50)
                .map(|t| trace.offered_at(t) as f64)
                .sum::<f64>()
                / 100.0
        };
        let valley = window(60);
        let peak = window(1300);
        let late = window(1900);
        assert!(peak > 3.0 * valley, "valley {valley}, peak {peak}");
        assert!(
            late < peak / 2.0,
            "load did not subside: peak {peak}, late {late}"
        );
    }

    #[test]
    fn peak_rate_matches_the_70_percent_sizing() {
        let trace = paper_generator(42).generate(2000);
        let peak_avg: f64 = (1250..1350)
            .map(|t| trace.offered_at(t) as f64)
            .sum::<f64>()
            / 100.0;
        let expected = RequestMix::paper().rps_for_cpu_utilization(0.7, 4, 1000.0);
        assert!(
            (peak_avg - expected).abs() < expected * 0.1,
            "peak average {peak_avg} vs sized {expected}"
        );
    }

    #[test]
    fn replay_materializes_the_same_counts() {
        let trace = paper_generator(1).generate(100);
        for t in [0u64, 50, 99] {
            let arrivals = trace.arrivals_at(t);
            assert_eq!(arrivals.len() as u32, trace.offered_at(t));
        }
        assert_eq!(trace.arrivals_at(100).len(), 0);
        assert_eq!(trace.offered_at(100), 0);
    }

    #[test]
    fn json_round_trip() {
        let trace = paper_generator(3).generate(50);
        let json = trace.to_json();
        let back = WorkloadTrace::from_json(&json).unwrap();
        assert_eq!(trace, back);
        assert!(WorkloadTrace::from_json("{broken").is_err());
    }

    #[test]
    fn json_text_is_pinned() {
        // `bench-e2e` hashes the bytes of the trace it writes, so the
        // text itself, not only the round trip, is part of the format.
        let trace = paper_generator(3).generate(4);
        assert_eq!(
            trace.to_json(),
            "{\"mix\":{\"dynamic_fraction\":0.3,\"dynamic_cpu_ms\":25,\"dynamic_disk_ms\":1,\
             \"static_cpu_ms\":2,\"static_disk_ms\":6},\"seconds\":[\
             {\"static_count\":25,\"dynamic_count\":15},{\"static_count\":36,\"dynamic_count\":16},\
             {\"static_count\":35,\"dynamic_count\":15},{\"static_count\":39,\"dynamic_count\":14}]}"
        );
        let odd = RequestMix {
            dynamic_fraction: 0.1 + 0.2,
            dynamic_cpu_ms: 1e-7,
            dynamic_disk_ms: 2.5,
            static_cpu_ms: 1e20,
            static_disk_ms: 0.0,
        };
        let trace = WorkloadGenerator::new(DiurnalProfile::new(10.0, 1.0, 1.0), odd, 5).generate(2);
        assert_eq!(
            trace.to_json(),
            "{\"mix\":{\"dynamic_fraction\":0.30000000000000004,\"dynamic_cpu_ms\":1e-7,\
             \"dynamic_disk_ms\":2.5,\"static_cpu_ms\":1e20,\"static_disk_ms\":0},\"seconds\":[\
             {\"static_count\":1,\"dynamic_count\":1},{\"static_count\":0,\"dynamic_count\":1}]}"
        );
        assert_eq!(WorkloadTrace::from_json(&trace.to_json()).unwrap(), trace);
    }

    #[test]
    fn json_counts_refuse_numbers_they_cannot_hold() {
        let text = paper_generator(3).generate(2).to_json();
        let with = |from: &str, to: &str| WorkloadTrace::from_json(&text.replacen(from, to, 1));
        let count = "\"static_count\":";
        for bad in ["-3", "2.5", "4294967296", "1e400", "\"25\"", "null"] {
            let err = with(&format!("{count}25"), &format!("{count}{bad}")).expect_err(bad);
            assert!(err.to_string().contains("field `static_count`"), "{err}");
        }
        let spelled = with(&format!("{count}25"), &format!("{count}2.5e1"));
        assert_eq!(spelled.unwrap(), with("", "").unwrap());
        // Unknown and missing keys are refused too.
        assert!(with("\"dynamic_count\"", "\"dynamic_counts\"").is_err());
        assert!(with(",\"static_disk_ms\":6", "").is_err());
        assert!(with("{\"mix\"", "{\"extra\":1,\"mix\"").is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary text is an error or a trace, never a panic; so is a
        /// trace's JSON with a byte replaced and the rest cut somewhere.
        #[test]
        fn json_parsing_is_total(
            noise in "\\PC{0,120}",
            tokens in "[a-z_\\[\\]{}:\",.0-9 e-]{0,160}",
            (seed, at, byte, cut) in (any::<u64>(), any::<usize>(), any::<u8>(), any::<usize>()),
        ) {
            let mut mangled = paper_generator(seed).generate(seed % 20).to_json().into_bytes();
            let at = at % mangled.len();
            mangled[at] = byte;
            mangled.truncate(cut % (mangled.len() + 1));
            for text in [noise, tokens, String::from_utf8_lossy(&mangled).into_owned()] {
                let _ = WorkloadTrace::from_json(&text);
            }
        }

        /// Every generated trace reads back equal from its JSON.
        #[test]
        fn generated_traces_round_trip(
            seed in any::<u64>(),
            seconds in 0u64..300,
            valley in 0.0..50.0f64,
            extra in 0.0..400.0f64,
            dynamic_fraction in 0.0..1.0f64,
        ) {
            let mix = RequestMix { dynamic_fraction, ..RequestMix::paper() };
            let profile = DiurnalProfile::new(300.0, valley, valley + extra);
            let trace = WorkloadGenerator::new(profile, mix, seed).generate(seconds);
            prop_assert_eq!(WorkloadTrace::from_json(&trace.to_json()).unwrap(), trace);
        }
    }

    #[test]
    fn poisson_sampler_hits_the_mean_in_both_regimes() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for lambda in [0.5, 5.0, 25.0, 80.0, 300.0] {
            let n = 3000;
            let total: usize = (0..n).map(|_| poisson(&mut rng, lambda)).sum();
            let mean = total as f64 / n as f64;
            let tolerance = 4.0 * (lambda / n as f64).sqrt() + 0.5;
            assert!(
                (mean - lambda).abs() < tolerance,
                "lambda {lambda}: sampled mean {mean}"
            );
        }
        assert_eq!(poisson(&mut rng, 0.0), 0);
        assert_eq!(poisson(&mut rng, -3.0), 0);
        assert_eq!(poisson(&mut rng, f64::NAN), 0);
    }

    #[test]
    fn arrivals_at_uses_profile_rate() {
        // A flat profile (valley == peak) should produce ~lambda arrivals.
        let profile = DiurnalProfile::new(100.0, 50.0, 50.0);
        let mut generator = WorkloadGenerator::new(profile, RequestMix::paper(), 11);
        let total: usize = (0..500).map(|t| generator.arrivals_at(t).len()).sum();
        let mean = total as f64 / 500.0;
        assert!((mean - 50.0).abs() < 2.0, "mean arrivals {mean}");
    }
}
