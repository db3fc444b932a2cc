//! The read side: [`Registry`], [`TelemetrySnapshot`], and the
//! Prometheus text renderer.
//!
//! A registry is an *index* of handles, not their owner: registering a
//! counter clones its `Arc`, so the writer keeps updating its own handle
//! and the registry sees every update. There is deliberately no global
//! default registry — a process can have several (each `SolverService`
//! owns one), and a handle may be registered in more than one.
//!
//! The registry also owns one [`EventRing`] so subsystems that want a
//! shared event log (`registry.event(...)`) get one without extra
//! plumbing; subsystems with their own rings just keep them.

use crate::events::{Event, EventRing, Severity};
use crate::handles::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

#[derive(Clone, Debug)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    /// Histogram plus the raw-unit → exposition-unit scale (e.g. 1e-9
    /// for nanosecond recordings exposed as `_seconds`).
    Histogram(Histogram, f64),
}

#[derive(Clone, Debug)]
struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    handle: Handle,
}

/// A sampled counter value.
#[derive(Clone, Debug)]
pub struct CounterSample {
    /// Metric family name.
    pub name: String,
    /// Label pairs.
    pub labels: Vec<(String, String)>,
    /// Value at snapshot time.
    pub value: u64,
}

/// A sampled gauge value.
#[derive(Clone, Debug)]
pub struct GaugeSample {
    /// Metric family name.
    pub name: String,
    /// Label pairs.
    pub labels: Vec<(String, String)>,
    /// Value at snapshot time.
    pub value: f64,
}

/// A sampled histogram.
#[derive(Clone, Debug)]
pub struct HistogramSample {
    /// Metric family name.
    pub name: String,
    /// Label pairs.
    pub labels: Vec<(String, String)>,
    /// Raw-unit → exposition-unit multiplier.
    pub scale: f64,
    /// Bucket contents at snapshot time.
    pub snapshot: HistogramSnapshot,
}

/// A structured point-in-time copy of everything a [`Registry`] knows —
/// the in-process twin of the Prometheus text exposition, consumed by
/// experiments and tests.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// All registered counters, in registration order.
    pub counters: Vec<CounterSample>,
    /// All registered gauges, in registration order.
    pub gauges: Vec<GaugeSample>,
    /// All registered histograms, in registration order.
    pub histograms: Vec<HistogramSample>,
    /// Most recent events from the registry's ring, oldest first.
    pub events: Vec<Event>,
}

impl TelemetrySnapshot {
    /// The value of the counter `name` with no labels, if registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name && c.labels.is_empty())
            .map(|c| c.value)
    }

    /// Sum over every labelled variant of the counter family `name`.
    #[must_use]
    pub fn counter_family(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// The value of the gauge `name` with no labels, if registered.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|g| g.name == name && g.labels.is_empty())
            .map(|g| g.value)
    }

    /// The histogram `name` (first labelled variant), if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// How many events the registry's built-in ring retains.
const DEFAULT_EVENT_CAPACITY: usize = 256;

/// Synthetic counter exposing the built-in ring's overflow count.
const EVENTS_DROPPED: &str = "mercury_telemetry_events_dropped_total";

/// A global-free metric index with a built-in event ring.
///
/// See the [crate docs](crate) for the design rules and an example.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
    events: EventRing,
}

impl Registry {
    /// Creates an empty registry (event-ring capacity 256).
    #[must_use]
    pub fn new() -> Self {
        Registry {
            entries: Mutex::new(Vec::new()),
            events: EventRing::with_capacity(DEFAULT_EVENT_CAPACITY),
        }
    }

    /// Creates an empty registry wrapped in an [`Arc`], the common shape
    /// for sharing between a service's threads.
    #[must_use]
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    fn entries(&self) -> MutexGuard<'_, Vec<Entry>> {
        // Registration never panics while holding the lock, but don't
        // let an unrelated poisoned-lock panic cascade into a scrape.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn insert(&self, name: &str, help: &str, labels: &[(&str, &str)], handle: Handle) {
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        let mut entries = self.entries();
        // Re-registering the same (name, labels) replaces the handle:
        // makes registration idempotent when a component is rebuilt.
        if let Some(e) = entries
            .iter_mut()
            .find(|e| e.name == name && e.labels == labels)
        {
            e.help = help.to_string();
            e.handle = handle;
            return;
        }
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            handle,
        });
    }

    /// Registers an existing counter handle under `name`.
    pub fn register_counter(&self, name: &str, help: &str, labels: &[(&str, &str)], c: &Counter) {
        self.insert(name, help, labels, Handle::Counter(c.clone()));
    }

    /// Registers an existing gauge handle under `name`.
    pub fn register_gauge(&self, name: &str, help: &str, labels: &[(&str, &str)], g: &Gauge) {
        self.insert(name, help, labels, Handle::Gauge(g.clone()));
    }

    /// Registers an existing histogram handle under `name`; `scale`
    /// converts raw recorded units into the exposition unit (use 1.0
    /// for unit-free values, 1e-9 for nanoseconds → `_seconds`).
    pub fn register_histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        h: &Histogram,
        scale: f64,
    ) {
        self.insert(name, help, labels, Handle::Histogram(h.clone(), scale));
    }

    /// Creates and registers an unlabelled counter in one step.
    #[must_use]
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let c = Counter::new();
        self.register_counter(name, help, &[], &c);
        c
    }

    /// Creates and registers a labelled counter in one step.
    #[must_use]
    pub fn counter_with_labels(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let c = Counter::new();
        self.register_counter(name, help, labels, &c);
        c
    }

    /// Creates and registers an unlabelled gauge in one step.
    #[must_use]
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let g = Gauge::new();
        self.register_gauge(name, help, &[], &g);
        g
    }

    /// Creates and registers a labelled gauge in one step (the
    /// `mercury_build_info` idiom: constant labels, value 1).
    #[must_use]
    pub fn gauge_with_labels(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let g = Gauge::new();
        self.register_gauge(name, help, labels, &g);
        g
    }

    /// Creates and registers a unit-free histogram in one step.
    #[must_use]
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_scaled(name, help, 1.0)
    }

    /// Creates and registers a scaled histogram in one step.
    #[must_use]
    pub fn histogram_scaled(&self, name: &str, help: &str, scale: f64) -> Histogram {
        let h = Histogram::new();
        self.register_histogram(name, help, &[], &h, scale);
        h
    }

    /// The registry's shared event ring (clone to keep a handle).
    #[must_use]
    pub fn events(&self) -> EventRing {
        self.events.clone()
    }

    /// Records an event on the registry's ring.
    pub fn event(&self, severity: Severity, message: impl Into<String>, fields: &[(&str, &str)]) {
        self.events.push(severity, message, fields);
    }

    /// Samples every registered metric (plus recent events) into a
    /// structured [`TelemetrySnapshot`].
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let entries = self.entries().clone();
        let mut snap = TelemetrySnapshot {
            events: self.events.recent(DEFAULT_EVENT_CAPACITY),
            ..TelemetrySnapshot::default()
        };
        // The built-in ring's overflow is part of the surface: a reader
        // must be able to tell "quiet system" from "events lost".
        snap.counters.push(CounterSample {
            name: EVENTS_DROPPED.to_string(),
            labels: Vec::new(),
            value: self.events.overwritten(),
        });
        for e in entries {
            match e.handle {
                Handle::Counter(c) => snap.counters.push(CounterSample {
                    name: e.name,
                    labels: e.labels,
                    value: c.get(),
                }),
                Handle::Gauge(g) => snap.gauges.push(GaugeSample {
                    name: e.name,
                    labels: e.labels,
                    value: g.get(),
                }),
                Handle::Histogram(h, scale) => snap.histograms.push(HistogramSample {
                    name: e.name,
                    labels: e.labels,
                    scale,
                    snapshot: h.snapshot(),
                }),
            }
        }
        snap
    }

    /// Renders the Prometheus text exposition format (version 0.0.4):
    /// `# HELP` / `# TYPE` per family, one sample line per series,
    /// histograms as cumulative `_bucket{le=...}` plus `_sum`/`_count`.
    ///
    /// Families render grouped by name in registration order of their
    /// first series; label values are escaped per the format spec.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries().clone();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# HELP {EVENTS_DROPPED} Events lost to the registry ring's wraparound"
        );
        let _ = writeln!(out, "# TYPE {EVENTS_DROPPED} counter");
        let _ = writeln!(out, "{EVENTS_DROPPED} {}", self.events.overwritten());
        let mut rendered: Vec<&str> = Vec::new();
        for e in &entries {
            if rendered.contains(&e.name.as_str()) {
                continue;
            }
            rendered.push(&e.name);
            let family: Vec<&Entry> = entries.iter().filter(|f| f.name == e.name).collect();
            let kind = match e.handle {
                Handle::Counter(_) => "counter",
                Handle::Gauge(_) => "gauge",
                Handle::Histogram(..) => "histogram",
            };
            let _ = writeln!(out, "# HELP {} {}", e.name, escape_help(&e.help));
            let _ = writeln!(out, "# TYPE {} {}", e.name, kind);
            for f in family {
                match &f.handle {
                    Handle::Counter(c) => {
                        let _ = writeln!(out, "{}{} {}", f.name, labels(&f.labels, None), c.get());
                    }
                    Handle::Gauge(g) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            f.name,
                            labels(&f.labels, None),
                            fmt_f64(g.get())
                        );
                    }
                    Handle::Histogram(h, scale) => {
                        render_histogram(&mut out, f, &h.snapshot(), *scale);
                    }
                }
            }
        }
        out
    }
}

/// Renders one histogram series: cumulative buckets (non-empty ones
/// only — cumulative values stay monotone), `+Inf`, `_sum`, `_count`.
fn render_histogram(out: &mut String, e: &Entry, snap: &HistogramSnapshot, scale: f64) {
    let mut cumulative = 0u64;
    for (i, &count) in snap.buckets.iter().enumerate() {
        if count == 0 {
            continue;
        }
        cumulative += count;
        let le = HistogramSnapshot::bucket_upper_bound(i) as f64 * scale;
        let _ = writeln!(
            out,
            "{}_bucket{} {}",
            e.name,
            labels(&e.labels, Some(&fmt_f64(le))),
            cumulative
        );
    }
    let _ = writeln!(
        out,
        "{}_bucket{} {}",
        e.name,
        labels(&e.labels, Some("+Inf")),
        snap.count
    );
    let _ = writeln!(
        out,
        "{}_sum{} {}",
        e.name,
        labels(&e.labels, None),
        fmt_f64(snap.sum as f64 * scale)
    );
    let _ = writeln!(
        out,
        "{}_count{} {}",
        e.name,
        labels(&e.labels, None),
        snap.count
    );
}

/// Formats a label set (optionally with an `le` bucket label appended).
fn labels(pairs: &[(String, String)], le: Option<&str>) -> String {
    if pairs.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in pairs {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}=\"{}\"", k, escape_label(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

/// Escapes a label value per the exposition format: `\`, `"`, newline.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escapes a HELP string: `\` and newline.
fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Formats an `f64` the way Prometheus expects (no exponent needed for
/// our ranges; integers render without a trailing `.0`).
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_sees_updates_before_and_after_registration() {
        let r = Registry::new();
        let c = Counter::new();
        c.add(5);
        r.register_counter("mercury_test_total", "t", &[], &c);
        c.add(2);
        assert_eq!(r.snapshot().counter("mercury_test_total"), Some(7));
    }

    #[test]
    fn labelled_families_group_and_sum() {
        let r = Registry::new();
        let a = r.counter_with_labels(
            "mercury_freon_decisions_total",
            "d",
            &[("action", "throttle")],
        );
        let b = r.counter_with_labels(
            "mercury_freon_decisions_total",
            "d",
            &[("action", "release")],
        );
        a.add(3);
        b.add(4);
        let snap = r.snapshot();
        assert_eq!(snap.counter_family("mercury_freon_decisions_total"), 7);
        assert_eq!(snap.counter("mercury_freon_decisions_total"), None);

        let text = r.render_prometheus();
        // One HELP/TYPE pair for the family, two sample lines.
        assert_eq!(
            text.matches("# TYPE mercury_freon_decisions_total counter")
                .count(),
            1
        );
        assert!(text.contains("mercury_freon_decisions_total{action=\"throttle\"} 3"));
        assert!(text.contains("mercury_freon_decisions_total{action=\"release\"} 4"));
    }

    #[test]
    fn registration_is_idempotent_per_series() {
        let r = Registry::new();
        let old = r.counter("mercury_x_total", "x");
        old.add(9);
        let new = Counter::new();
        new.add(1);
        r.register_counter("mercury_x_total", "x", &[], &new);
        assert_eq!(r.snapshot().counter("mercury_x_total"), Some(1));
        let snap = r.snapshot();
        assert_eq!(
            snap.counters
                .iter()
                .filter(|c| c.name == "mercury_x_total")
                .count(),
            1
        );
    }

    #[test]
    fn histogram_rendering_is_cumulative_and_scaled() {
        let r = Registry::new();
        let h = r.histogram_scaled("mercury_tick_seconds", "latency", 1e-9);
        h.observe(1_000); // ~1 µs, bucket upper bound 1023 ns
        h.observe(1_000);
        h.observe(2_000_000); // ~2 ms
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE mercury_tick_seconds histogram"));
        assert!(text.contains("mercury_tick_seconds_bucket{le=\"0.000001023\"} 2"));
        assert!(text.contains("mercury_tick_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("mercury_tick_seconds_count 3"));
        // Sum: 2_002_000 ns = 0.002002 s
        assert!(text.contains("mercury_tick_seconds_sum 0.002002"));
    }

    #[test]
    fn gauge_and_event_surface() {
        let r = Registry::new();
        let g = r.gauge("mercury_cluster_batched_machines", "b");
        g.set(24.0);
        r.event(
            Severity::Warn,
            "malformed packet",
            &[("peer", "127.0.0.1:1")],
        );
        let snap = r.snapshot();
        assert_eq!(snap.gauge("mercury_cluster_batched_machines"), Some(24.0));
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].message, "malformed packet");
        assert!(r
            .render_prometheus()
            .contains("mercury_cluster_batched_machines 24\n"));
    }

    #[test]
    fn events_dropped_counter_tracks_ring_overflow() {
        let r = Registry::new();
        assert_eq!(r.snapshot().counter(EVENTS_DROPPED), Some(0));
        assert!(r
            .render_prometheus()
            .contains(&format!("{EVENTS_DROPPED} 0")));
        for i in 0..300 {
            r.event(Severity::Info, format!("e{i}"), &[]);
        }
        // 300 pushes into a 256-slot ring: 44 lost.
        assert_eq!(r.snapshot().counter(EVENTS_DROPPED), Some(44));
        assert!(r
            .render_prometheus()
            .contains(&format!("{EVENTS_DROPPED} 44")));
    }

    #[test]
    fn labelled_gauge_renders_constant_value() {
        let r = Registry::new();
        let g = r.gauge_with_labels(
            "mercury_build_info",
            "b",
            &[("version", "0.1.0"), ("simd", "avx2")],
        );
        g.set(1.0);
        assert!(r
            .render_prometheus()
            .contains("mercury_build_info{version=\"0.1.0\",simd=\"avx2\"} 1"));
    }

    #[test]
    fn label_escaping() {
        let r = Registry::new();
        let c = r.counter_with_labels("mercury_esc_total", "e", &[("msg", "a\"b\\c\nd")]);
        c.inc();
        let text = r.render_prometheus();
        assert!(text.contains("msg=\"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    fn rendered_output_parses() {
        let r = Registry::new();
        let _ = r.counter("mercury_a_total", "a");
        let g = r.gauge("mercury_b", "b");
        g.set(0.5);
        let h = r.histogram_scaled("mercury_c_seconds", "c", 1e-9);
        h.observe(123);
        let text = r.render_prometheus();
        let samples = crate::text::parse_exposition(&text).expect("render must parse");
        assert!(samples.iter().any(|s| s.name == "mercury_a_total"));
        assert!(samples.iter().any(|s| s.name == "mercury_c_seconds_bucket"));
    }
}
