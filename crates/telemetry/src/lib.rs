//! # telemetry — global-free metrics for the Mercury & Freon reproduction
//!
//! Mercury's pitch (§2.3 of the paper) is that an emulated machine room
//! can be *observed* like a real one. This crate is the reproduction's
//! own observability substrate: a tiny, zero-dependency metrics library
//! used by the solver, the freon policies, and the UDP services.
//!
//! Design rules, in order of importance:
//!
//! 1. **No globals.** There is no process-wide default registry and no
//!    `lazy_static`-style hidden state. Components own their handles
//!    ([`Counter`], [`Gauge`], [`Histogram`], [`EventRing`]) and whoever
//!    wants a scrape surface owns a [`Registry`] and registers those
//!    handles into it. Handles are `Arc`-backed, so registration is a
//!    cheap clone and updates made before/after registration are all
//!    visible.
//! 2. **Always-on and cheap.** Updating a handle is one relaxed atomic
//!    op — no locks, no allocation, no formatting. The hot solver paths
//!    update handles unconditionally; the measured contract (see
//!    `DESIGN.md` §"Telemetry") is ≤ 2 % overhead on the 256-machine
//!    batched cluster tick.
//! 3. **Mergeable.** [`Histogram`] uses log-2 buckets over `u64` values
//!    so snapshots from different threads (or machines) merge by simple
//!    element-wise addition — no bucket-boundary negotiation.
//!
//! Two read-side surfaces are built on top:
//!
//! * [`Registry::snapshot`] returns a structured [`TelemetrySnapshot`]
//!   for in-process consumers (experiments, tests);
//! * [`Registry::render_prometheus`] renders the Prometheus text
//!   exposition format, served by `mercury::net::SolverService` and
//!   scraped by the `mercury-stats` tool. [`text::parse_exposition`]
//!   parses it back for pretty-printing and tests.
//!
//! Metric names follow `mercury_<subsystem>_<metric>` (e.g.
//! `mercury_net_interarrival_seconds`); counters end in `_total`, histogram
//! families use base units (seconds) via the registration-time scale.
//!
//! Sibling subsystems share these rules: [`trace`] records
//! causally-linked spans (packet → solver tick → policy decision →
//! actuation) and exports them as
//! Chrome trace-event JSON, and [`recorder`] is a thermal flight
//! recorder — bounded per-machine rings of recent tick state dumped as
//! JSON incident bundles when a red-line or anomaly trigger fires.
//! The history layer adds time: [`tsdb`] is an embedded Gorilla-style
//! compressed time-series store with bounded per-series rings,
//! [`sampler`] snapshots a [`Registry`] (plus caller-supplied series
//! such as per-machine temperatures) into it on a background cadence,
//! and [`detect`] runs trend detectors — rolling z-score, slope-toward-
//! red-line ETA, stuck-sensor flatline — over that history, feeding
//! [`FlightRecorder::anomaly`] so bundles capture *developing*
//! emergencies, not just breaches.
//!
//! ```
//! use telemetry::{Registry, Severity};
//!
//! let registry = Registry::new();
//! let ticks = registry.counter("mercury_demo_ticks_total", "Demo ticks");
//! let latency = registry.histogram_scaled(
//!     "mercury_demo_tick_seconds",
//!     "Demo tick latency",
//!     1e-9, // recorded in nanoseconds, exposed in seconds
//! );
//! ticks.inc();
//! latency.observe(1_500);
//! registry.event(Severity::Info, "demo tick", &[("tick", "0")]);
//!
//! let text = registry.render_prometheus();
//! assert!(text.contains("mercury_demo_ticks_total 1"));
//! assert!(telemetry::text::parse_exposition(&text).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod detect;
mod events;
mod handles;
pub mod recorder;
mod registry;
pub mod sampler;
pub mod text;
pub mod trace;
pub mod tsdb;

pub use detect::{TrendAnomaly, TrendConfig, TrendDetector, TrendKind};
pub use events::{Event, EventRing, Severity};
pub use handles::{Counter, Gauge, Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use recorder::{FlightRecorder, IncidentTrigger, RecorderConfig, TickState};
pub use registry::{CounterSample, GaugeSample, HistogramSample, Registry, TelemetrySnapshot};
pub use sampler::Sampler;
pub use trace::{Span, SpanArgs, SpanRecord, Tracer};
pub use tsdb::{Tsdb, TsdbConfig};

/// Always `true`: there is one build, and its handles are live. Kept
/// only for an outside caller that still asks.
#[doc(hidden)]
#[inline(always)]
#[must_use]
pub const fn enabled() -> bool {
    true
}
