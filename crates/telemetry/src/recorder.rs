//! Thermal flight recorder: bounded per-machine rings of recent
//! per-tick state, dumped as a structured JSON *incident bundle* when
//! something goes wrong.
//!
//! The paper's argument is a causal chain (utilization → temperature →
//! observation → decision → actuation); when an emergency scenario ends
//! in a red-line shutdown the question is always "what did the last N
//! seconds look like?". The recorder answers it the way an aircraft
//! flight recorder does: every control tick, each machine's probe
//! temperatures, utilization, power state and applied actuations go
//! into a bounded ring; when a red-line [`IncidentTrigger`] fires — or
//! an anomaly trigger trips (temperature rate-of-change, band
//! violation) — the rings plus the tracer's recent spans are rendered
//! into one self-contained JSON bundle for `results/incidents/`.
//!
//! The recorder stores state and detects anomalies; it never touches
//! the filesystem. The freon experiment engine decides where bundles
//! land, and `mercury-trace` converts a bundle's `spans` section to
//! Chrome trace-event JSON ([`extract_bundle_spans`]).

use crate::trace::{SpanRecord, TraceParseError};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Version tag written into every bundle.
pub const BUNDLE_SCHEMA: &str = "mercury-incident-v1";

/// Static configuration for a [`FlightRecorder`].
#[derive(Clone, Debug)]
pub struct RecorderConfig {
    /// Ticks retained per machine (min 2; rate detection needs a pair).
    pub capacity: usize,
    /// Names of the temperature probes, in the order
    /// [`TickState::temps`] is filled.
    pub probes: Vec<String>,
    /// Lower edge of the healthy temperature band, °C.
    pub band_low_c: f64,
    /// Upper edge of the healthy temperature band, °C — crossing it on
    /// a powered machine trips the `band_violation` trigger.
    pub band_high_c: f64,
    /// Absolute per-probe rate of change, °C/s, above which the
    /// `rate_of_change` trigger trips.
    pub max_rate_c_per_s: f64,
    /// Minimum seconds between triggers *of the same kind* (recording
    /// continues in between; only the trigger output is suppressed).
    /// Kinds cool down independently so an early trend anomaly never
    /// swallows the later `red_line` bundle.
    pub cooldown_s: u64,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            capacity: 120,
            probes: Vec::new(),
            band_low_c: 5.0,
            band_high_c: 68.0,
            max_rate_c_per_s: 5.0,
            cooldown_s: 60,
        }
    }
}

/// One machine-tick of recorded state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TickState {
    /// Simulation time, seconds.
    pub time_s: u64,
    /// Probe temperatures, °C, parallel to [`RecorderConfig::probes`].
    pub temps: Vec<f64>,
    /// CPU utilization in `[0, 1]`.
    pub cpu_util: f64,
    /// Disk utilization in `[0, 1]`.
    pub disk_util: f64,
    /// Whether the machine was powered.
    pub powered: bool,
    /// Whether the load balancer was sending it traffic.
    pub accepting: bool,
    /// DVFS speed scale in `(0, 1]`.
    pub speed_scale: f64,
    /// Actuations applied this tick (`action@reason` strings).
    pub actuations: Vec<String>,
}

/// Why a bundle was requested.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IncidentTrigger {
    /// Simulation time of the trigger, seconds.
    pub time_s: u64,
    /// The machine that tripped it.
    pub machine: usize,
    /// Trigger kind: `band_violation`, `rate_of_change`, or `red_line`.
    pub kind: String,
    /// Human-readable detail (probe, temperature, threshold).
    pub detail: String,
}

#[derive(Debug)]
struct RecInner {
    config: RecorderConfig,
    rings: Vec<VecDeque<TickState>>,
    /// Last trigger time per kind — the per-kind cooldown state.
    last_trigger: Vec<(String, u64)>,
}

/// A shareable per-machine ring of recent [`TickState`]s with anomaly
/// triggers. Clones share the rings. For [`FlightRecorder::disabled`]
/// every method is a no-op.
#[derive(Clone, Debug, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<Mutex<RecInner>>>,
}

impl FlightRecorder {
    /// A detached recorder: records nothing, never triggers.
    #[must_use]
    pub fn disabled() -> Self {
        FlightRecorder::default()
    }

    /// Creates a recorder with the given configuration.
    #[must_use]
    pub fn new(config: RecorderConfig) -> Self {
        let config = RecorderConfig {
            capacity: config.capacity.max(2),
            ..config
        };
        FlightRecorder {
            inner: Some(Arc::new(Mutex::new(RecInner {
                config,
                rings: Vec::new(),
                last_trigger: Vec::new(),
            }))),
        }
    }

    /// Whether this handle has backing storage.
    #[must_use]
    pub fn is_attached(&self) -> bool {
        self.inner.is_some()
    }

    fn lock(&self) -> Option<std::sync::MutexGuard<'_, RecInner>> {
        self.inner
            .as_deref()
            .map(|m| m.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Records one machine-tick and runs the anomaly triggers against
    /// it. Returns a trigger when one tripped and the cooldown allows
    /// reporting it; recording happens regardless.
    pub fn record(&self, machine: usize, state: TickState) -> Option<IncidentTrigger> {
        let mut inner = self.lock()?;
        if inner.rings.len() <= machine {
            inner.rings.resize_with(machine + 1, VecDeque::new);
        }
        let trigger = detect(&inner.config, &inner.rings[machine], machine, &state);
        let cap = inner.config.capacity;
        let ring = &mut inner.rings[machine];
        if ring.len() == cap {
            ring.pop_front();
        }
        let time_s = state.time_s;
        ring.push_back(state);
        match trigger {
            Some(t) if inner.allow_trigger(&t.kind, time_s) => Some(t),
            _ => None,
        }
    }

    /// Builds a `red_line` trigger for an externally-detected incident
    /// (an emergency shutdown), honoring the trigger cooldown. Returns
    /// `None` when detached or still cooling down.
    pub fn red_line(&self, time_s: u64, machine: usize, detail: String) -> Option<IncidentTrigger> {
        self.anomaly(time_s, machine, "red_line", detail)
    }

    /// Builds a trigger of an arbitrary `kind` — the entry point for
    /// externally-run detectors (the `telemetry::detect` trend scanners
    /// use kinds like `trend_redline_eta`) — honoring that kind's
    /// cooldown. Returns `None` when detached or still cooling down.
    pub fn anomaly(
        &self,
        time_s: u64,
        machine: usize,
        kind: &str,
        detail: String,
    ) -> Option<IncidentTrigger> {
        let mut inner = self.lock()?;
        if !inner.allow_trigger(kind, time_s) {
            return None;
        }
        Some(IncidentTrigger {
            time_s,
            machine,
            kind: kind.to_string(),
            detail,
        })
    }

    /// Renders a self-contained JSON incident bundle: the trigger,
    /// build attribution, every machine's recorded ring, and `spans`
    /// (one span object per line, so [`extract_bundle_spans`] and
    /// `mercury-trace` can lift them back out).
    #[must_use]
    pub fn bundle(
        &self,
        trigger: &IncidentTrigger,
        build: &[(String, String)],
        spans: &[SpanRecord],
    ) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{BUNDLE_SCHEMA}\",");
        let _ = writeln!(
            out,
            "  \"trigger\": {{\"time_s\": {}, \"machine\": {}, \"kind\": \"{}\", \"detail\": \"{}\"}},",
            trigger.time_s,
            trigger.machine,
            escape(&trigger.kind),
            escape(&trigger.detail)
        );
        out.push_str("  \"build\": {");
        for (i, (k, v)) in build.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": \"{}\"", escape(k), escape(v));
        }
        out.push_str("},\n");
        let (probes, rings): (Vec<String>, Vec<Vec<TickState>>) = match self.lock() {
            Some(inner) => (
                inner.config.probes.clone(),
                inner
                    .rings
                    .iter()
                    .map(|r| r.iter().cloned().collect())
                    .collect(),
            ),
            None => (Vec::new(), Vec::new()),
        };
        out.push_str("  \"probes\": [");
        for (i, p) in probes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\"", escape(p));
        }
        out.push_str("],\n");
        out.push_str("  \"machines\": [\n");
        for (m, ring) in rings.iter().enumerate() {
            let _ = write!(out, "    {{\"machine\": {m}, \"ticks\": [");
            for (i, t) in ring.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_tick(&mut out, t);
            }
            out.push_str("]}");
            out.push_str(if m + 1 < rings.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"spans\": [\n");
        for (i, s) in spans.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&s.to_json());
            out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

impl RecInner {
    /// Whether a `kind` trigger at `time_s` is outside that kind's
    /// cooldown window, latching it if so. Kinds are independent: a
    /// `trend_redline_eta` trigger never delays the `red_line` one.
    fn allow_trigger(&mut self, kind: &str, time_s: u64) -> bool {
        match self.last_trigger.iter_mut().find(|(k, _)| k == kind) {
            Some((_, last)) => {
                if time_s.saturating_sub(*last) >= self.config.cooldown_s {
                    *last = time_s;
                    true
                } else {
                    false
                }
            }
            None => {
                self.last_trigger.push((kind.to_string(), time_s));
                true
            }
        }
    }
}

/// Runs the anomaly triggers for one new tick against the ring's tail.
fn detect(
    config: &RecorderConfig,
    ring: &VecDeque<TickState>,
    machine: usize,
    state: &TickState,
) -> Option<IncidentTrigger> {
    let probe_name = |i: usize| {
        config
            .probes
            .get(i)
            .map_or_else(|| format!("probe{i}"), String::clone)
    };
    if state.powered {
        for (i, &t) in state.temps.iter().enumerate() {
            if t > config.band_high_c || t < config.band_low_c {
                return Some(IncidentTrigger {
                    time_s: state.time_s,
                    machine,
                    kind: "band_violation".to_string(),
                    detail: format!(
                        "{} at {t:.2} C outside [{:.1}, {:.1}]",
                        probe_name(i),
                        config.band_low_c,
                        config.band_high_c
                    ),
                });
            }
        }
    }
    if let Some(prev) = ring.back() {
        let dt = state.time_s.saturating_sub(prev.time_s);
        if dt > 0 {
            for (i, (&now, &before)) in state.temps.iter().zip(&prev.temps).enumerate() {
                let rate = (now - before).abs() / dt as f64;
                if rate > config.max_rate_c_per_s {
                    return Some(IncidentTrigger {
                        time_s: state.time_s,
                        machine,
                        kind: "rate_of_change".to_string(),
                        detail: format!(
                            "{} moved {rate:.2} C/s (limit {:.2})",
                            probe_name(i),
                            config.max_rate_c_per_s
                        ),
                    });
                }
            }
        }
    }
    None
}

/// Renders one tick as a JSON object.
fn render_tick(out: &mut String, t: &TickState) {
    let _ = write!(out, "{{\"time_s\": {}, \"temps\": [", t.time_s);
    for (i, &v) in t.temps.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_f64(v));
    }
    let _ = write!(
        out,
        "], \"cpu_util\": {}, \"disk_util\": {}, \"powered\": {}, \"accepting\": {}, \"speed_scale\": {}, \"actuations\": [",
        json_f64(t.cpu_util),
        json_f64(t.disk_util),
        t.powered,
        t.accepting,
        json_f64(t.speed_scale)
    );
    for (i, a) in t.actuations.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\"", escape(a));
    }
    out.push_str("]}");
}

/// JSON-safe `f64` (JSON has no NaN/Inf; those become `null`).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for embedding in the bundle JSON.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Lifts the `spans` section back out of an incident bundle written by
/// [`FlightRecorder::bundle`] — the inverse `mercury-trace` uses to
/// convert bundles for Perfetto. Tolerant of surrounding formatting but
/// strict about the span objects themselves.
///
/// # Errors
///
/// Returns a [`TraceParseError`] if the bundle has no `spans` section
/// or a span object inside it is malformed.
pub fn extract_bundle_spans(bundle: &str) -> Result<Vec<SpanRecord>, TraceParseError> {
    let start = bundle.find("\"spans\": [").ok_or(TraceParseError {
        pos: 0,
        message: "bundle has no \"spans\" section".to_string(),
    })?;
    let mut spans = Vec::new();
    for line in bundle[start..].lines().skip(1) {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() {
            continue;
        }
        if line.starts_with(']') {
            return Ok(spans);
        }
        spans.push(SpanRecord::from_json(line)?);
    }
    Err(TraceParseError {
        pos: bundle.len(),
        message: "unterminated \"spans\" section".to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(time_s: u64, temps: &[f64]) -> TickState {
        TickState {
            time_s,
            temps: temps.to_vec(),
            cpu_util: 0.5,
            disk_util: 0.1,
            powered: true,
            accepting: true,
            speed_scale: 1.0,
            actuations: Vec::new(),
        }
    }

    #[test]
    fn bundle_renders_and_spans_extract_even_when_detached() {
        let rec = FlightRecorder::disabled();
        let trigger = IncidentTrigger {
            time_s: 300,
            machine: 2,
            kind: "red_line".to_string(),
            detail: "cpu at 69.5 C".to_string(),
        };
        let spans = vec![SpanRecord {
            id: 7,
            parent: 3,
            tid: 0,
            start_ns: 10,
            dur_ns: 5,
            cat: "freon".into(),
            name: "mediator.dispatch".into(),
            args: vec![("action".into(), "shutdown".to_string())],
        }];
        let bundle = rec.bundle(
            &trigger,
            &[("version".to_string(), "0.1.0".to_string())],
            &spans,
        );
        assert!(bundle.contains(BUNDLE_SCHEMA));
        assert!(bundle.contains("\"kind\": \"red_line\""));
        assert!(bundle.contains("\"version\": \"0.1.0\""));
        let extracted = extract_bundle_spans(&bundle).unwrap();
        assert_eq!(extracted, spans);
        assert!(extract_bundle_spans("{}").is_err());
    }

    mod live {
        use super::*;

        #[test]
        fn rings_are_bounded_per_machine() {
            let rec = FlightRecorder::new(RecorderConfig {
                capacity: 3,
                probes: vec!["cpu".to_string()],
                ..RecorderConfig::default()
            });
            for t in 0..10 {
                assert!(rec.record(0, tick(t, &[40.0])).is_none());
            }
            let trigger = IncidentTrigger {
                time_s: 9,
                machine: 0,
                kind: "red_line".to_string(),
                detail: String::new(),
            };
            let bundle = rec.bundle(&trigger, &[], &[]);
            // Only the 3 most recent ticks survive.
            assert!(!bundle.contains("\"time_s\": 6,"));
            assert!(bundle.contains("\"time_s\": 7,"));
            assert!(bundle.contains("\"time_s\": 9,"));
        }

        #[test]
        fn band_violation_trips_and_cools_down() {
            let rec = FlightRecorder::new(RecorderConfig {
                band_high_c: 65.0,
                cooldown_s: 30,
                probes: vec!["cpu".to_string()],
                ..RecorderConfig::default()
            });
            assert!(rec.record(1, tick(10, &[60.0])).is_none());
            let t = rec.record(1, tick(11, &[66.0])).expect("band trigger");
            assert_eq!(t.kind, "band_violation");
            assert_eq!(t.machine, 1);
            assert!(t.detail.contains("cpu"));
            // Still hot 5 s later: suppressed by the cooldown.
            assert!(rec.record(1, tick(16, &[67.0])).is_none());
            // Past the cooldown it fires again.
            assert!(rec.record(1, tick(45, &[67.0])).is_some());
        }

        #[test]
        fn rate_trigger_needs_history_and_powered_band_only() {
            let rec = FlightRecorder::new(RecorderConfig {
                band_high_c: 100.0,
                max_rate_c_per_s: 2.0,
                cooldown_s: 0,
                ..RecorderConfig::default()
            });
            // First tick: no history, no rate.
            assert!(rec.record(0, tick(0, &[40.0])).is_none());
            // +1.5 C/s: fine.
            assert!(rec.record(0, tick(2, &[43.0])).is_none());
            // +5 C/s: trips.
            let t = rec.record(0, tick(3, &[48.0])).expect("rate trigger");
            assert_eq!(t.kind, "rate_of_change");

            // Unpowered machines don't band-trigger (exhaust cooling
            // readings drift), but a detached recorder never does.
            let band = FlightRecorder::new(RecorderConfig {
                band_high_c: 50.0,
                cooldown_s: 0,
                ..RecorderConfig::default()
            });
            let mut off = tick(0, &[80.0]);
            off.powered = false;
            assert!(band.record(0, off).is_none());
        }

        #[test]
        fn red_line_respects_cooldown() {
            let rec = FlightRecorder::new(RecorderConfig {
                cooldown_s: 20,
                ..RecorderConfig::default()
            });
            assert!(rec.red_line(100, 0, "cpu 69.5".to_string()).is_some());
            assert!(rec.red_line(110, 1, "cpu 70.1".to_string()).is_none());
            assert!(rec.red_line(125, 1, "cpu 70.4".to_string()).is_some());
            assert!(FlightRecorder::disabled()
                .red_line(0, 0, String::new())
                .is_none());
        }

        #[test]
        fn cooldowns_are_per_kind() {
            let rec = FlightRecorder::new(RecorderConfig {
                cooldown_s: 60,
                ..RecorderConfig::default()
            });
            // A trend anomaly must not delay the red-line trigger that
            // follows it inside the same cooldown window.
            let t = rec
                .anomaly(100, 0, "trend_redline_eta", "climbing".to_string())
                .expect("first trend trigger");
            assert_eq!(t.kind, "trend_redline_eta");
            assert!(rec
                .anomaly(120, 0, "trend_redline_eta", "still".to_string())
                .is_none());
            assert!(rec.red_line(130, 0, "cpu 69.6".to_string()).is_some());
            assert!(FlightRecorder::disabled()
                .anomaly(0, 0, "trend_zscore", String::new())
                .is_none());
        }
    }
}
