//! Background sampling of registry metrics into a [`Tsdb`].
//!
//! A [`Sampler`] owns one thread that, at a configurable cadence,
//! snapshots a [`Registry`] — counters, gauges, and histogram
//! `_count`/`_sum` pairs become series keyed by their exposition name —
//! and then asks an *extra source* callback for additional
//! `(series, value)` pairs. The solver service uses the extra source to
//! read per-machine node temperatures (briefly taking the solver lock,
//! collecting into a reused buffer, and releasing before the store is
//! touched), so the history gains the `temp/<machine>/<component>`
//! series the thermal console lives on.
//!
//! Timestamps are wall-clock milliseconds from [`now_millis`]. The pure
//! sampling step is exposed as [`sample_registry`] so benchmarks and
//! the freon engine (which samples in *simulated* seconds, on its own
//! cadence, with no thread) reuse the exact same series naming.

use crate::registry::{Registry, TelemetrySnapshot};
use crate::tsdb::Tsdb;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Milliseconds since the Unix epoch — the service-side sample clock.
#[must_use]
pub fn now_millis() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Series name for a metric sample: the Prometheus exposition name,
/// with any whitespace flattened so the wire text stays line-oriented.
#[must_use]
pub fn series_name(name: &str, labels: &[(String, String)]) -> String {
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(v);
            out.push('"');
        }
        out.push('}');
    }
    if out.contains(char::is_whitespace) {
        out = out
            .chars()
            .map(|c| if c.is_whitespace() { '_' } else { c })
            .collect();
    }
    out
}

/// Appends one registry snapshot to the store at timestamp `t`.
///
/// Returns the number of series touched. Counters and gauges map
/// one-to-one; histograms contribute `<name>_count` and `<name>_sum`
/// series (the pair downstream rate queries need), buckets stay
/// scrape-only.
pub fn sample_registry(tsdb: &Tsdb, snapshot: &TelemetrySnapshot, t: u64) -> usize {
    let mut touched = 0;
    for c in &snapshot.counters {
        tsdb.append(&series_name(&c.name, &c.labels), t, c.value as f64);
        touched += 1;
    }
    for g in &snapshot.gauges {
        tsdb.append(&series_name(&g.name, &g.labels), t, g.value);
        touched += 1;
    }
    for h in &snapshot.histograms {
        let base = series_name(&h.name, &h.labels);
        tsdb.append(&format!("{base}_count"), t, h.snapshot.count as f64);
        tsdb.append(&format!("{base}_sum"), t, h.snapshot.sum as f64 * h.scale);
        touched += 2;
    }
    touched
}

/// Extra `(series, value)` source polled once per sampling tick.
pub type ExtraSource = Box<dyn FnMut(&mut Vec<(String, f64)>) + Send>;

/// Handle to the background sampling thread; dropping it stops the
/// thread and joins it.
#[derive(Debug)]
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Sampler {
    /// Spawns the sampling thread.
    ///
    /// Every `cadence` the thread appends a registry snapshot plus
    /// whatever `extra` produces, stamped with [`now_millis`]. The
    /// extra buffer is reused across ticks, so a steady source
    /// allocates nothing after warm-up.
    #[must_use]
    pub fn spawn(
        cadence: Duration,
        tsdb: Arc<Tsdb>,
        registry: Arc<Registry>,
        mut extra: ExtraSource,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let cadence = cadence.max(Duration::from_millis(1));
        let handle = thread::Builder::new()
            .name("mercury-sampler".into())
            .spawn(move || {
                let mut buf: Vec<(String, f64)> = Vec::new();
                while !stop_flag.load(Ordering::Relaxed) {
                    let t = now_millis();
                    sample_registry(&tsdb, &registry.snapshot(), t);
                    buf.clear();
                    extra(&mut buf);
                    for (name, value) in &buf {
                        tsdb.append(name, t, *value);
                    }
                    // Sleep in short slices so stop() returns promptly
                    // even at slow cadences.
                    let mut left = cadence;
                    while !left.is_zero() && !stop_flag.load(Ordering::Relaxed) {
                        let nap = left.min(Duration::from_millis(50));
                        thread::sleep(nap);
                        left = left.saturating_sub(nap);
                    }
                }
            })
            .expect("spawn sampler thread");
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the thread and waits for it to exit.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsdb::TsdbConfig;
    use crate::Counter;

    #[test]
    fn series_names_mirror_exposition() {
        assert_eq!(series_name("ticks_total", &[]), "ticks_total");
        assert_eq!(
            series_name(
                "decisions_total",
                &[
                    ("action".into(), "throttle".into()),
                    ("reason".into(), "hot".into())
                ]
            ),
            "decisions_total{action=\"throttle\",reason=\"hot\"}"
        );
        assert_eq!(
            series_name("weird", &[("k".into(), "two words".into())]),
            "weird{k=\"two_words\"}"
        );
    }

    #[test]
    fn sample_registry_records_counters_and_histograms() {
        let registry = Registry::new();
        let c = Counter::default();
        registry.register_counter("widgets_total", "widgets", &[], &c);
        let h = crate::Histogram::default();
        registry.register_histogram("lat_seconds", "latency", &[], &h, 1e-6);
        c.add(7);
        h.observe(2_000_000);
        let tsdb = Tsdb::new(TsdbConfig::default());
        let touched = sample_registry(&tsdb, &registry.snapshot(), 5);
        assert!(touched >= 3);
        assert_eq!(tsdb.latest("widgets_total"), Some((5, 7.0)));
        assert_eq!(tsdb.latest("lat_seconds_count"), Some((5, 1.0)));
        let (_, sum) = tsdb.latest("lat_seconds_sum").unwrap();
        assert!((sum - 2.0).abs() < 1e-9, "scaled sum, got {sum}");
    }

    #[test]
    fn sampler_thread_collects_extra_series() {
        let tsdb = Tsdb::shared(TsdbConfig::default());
        let registry = Registry::shared();
        let sampler = Sampler::spawn(
            Duration::from_millis(5),
            Arc::clone(&tsdb),
            registry,
            Box::new(|buf| buf.push(("temp/m1/cpu".into(), 41.5))),
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while tsdb.latest("temp/m1/cpu").is_none() && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        sampler.stop();
        let (_, v) = tsdb.latest("temp/m1/cpu").expect("sampled at least once");
        assert_eq!(v, 41.5);
    }
}
