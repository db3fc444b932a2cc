//! Bounded structured-event ring buffer.
//!
//! Metrics answer "how many / how fast"; events answer "what happened
//! last". The ring keeps the most recent N structured events (severity,
//! message, key/value fields) under a mutex — events are rare (policy
//! decisions, malformed packets, fiddle injections), so a lock is fine
//! where it would not be on the per-tick metric paths. When the ring is
//! full the oldest event is overwritten; `overwritten()` says how many
//! were lost, so a reader can tell a quiet system from a noisy one.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Event severity, ordered from least to most severe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Developer-facing detail.
    Debug,
    /// Normal operational event (a policy throttled a server).
    Info,
    /// Something unexpected but tolerated (a malformed packet).
    Warn,
    /// Something failed (a red-line shutdown, an I/O error).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        })
    }
}

/// One recorded event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number (starts at 0, never reused) — gaps in
    /// a reader's view mean the ring wrapped between reads.
    pub seq: u64,
    /// Severity.
    pub severity: Severity,
    /// Human-readable message (stable, grep-able; details go in fields).
    pub message: String,
    /// Structured key/value fields.
    pub fields: Vec<(String, String)>,
}

#[derive(Debug, Default)]
struct RingInner {
    events: VecDeque<Event>,
    next_seq: u64,
    overwritten: u64,
}

/// A bounded, shareable ring of [`Event`]s.
///
/// Cloning shares the ring (same `Arc`), like the metric handles.
///
/// ```
/// use telemetry::{EventRing, Severity};
/// let ring = EventRing::with_capacity(2);
/// ring.push(Severity::Info, "a", &[]);
/// ring.push(Severity::Info, "b", &[]);
/// ring.push(Severity::Warn, "c", &[("k", "v")]);
/// let recent = ring.recent(10);
/// assert_eq!(recent.len(), 2); // "a" was overwritten
/// assert_eq!(recent[0].message, "b");
/// assert_eq!(ring.overwritten(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct EventRing {
    capacity: usize,
    inner: Arc<Mutex<RingInner>>,
}

impl Default for EventRing {
    /// A ring with the registry's default capacity (256).
    fn default() -> Self {
        EventRing::with_capacity(256)
    }
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events (min 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventRing {
            capacity,
            inner: Arc::new(Mutex::new(RingInner::default())),
        }
    }

    /// Maximum number of retained events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records an event, evicting the oldest if the ring is full.
    pub fn push(&self, severity: Severity, message: impl Into<String>, fields: &[(&str, &str)]) {
        let event_fields = fields
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        let mut inner = lock(&self.inner);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.overwritten += 1;
        }
        inner.events.push_back(Event {
            seq,
            severity,
            message: message.into(),
            fields: event_fields,
        });
    }

    /// The most recent `limit` events, oldest first.
    #[must_use]
    pub fn recent(&self, limit: usize) -> Vec<Event> {
        let inner = lock(&self.inner);
        let skip = inner.events.len().saturating_sub(limit);
        inner.events.iter().skip(skip).cloned().collect()
    }

    /// Total events ever pushed (including overwritten ones).
    #[must_use]
    pub fn total(&self) -> u64 {
        lock(&self.inner).next_seq
    }

    /// Events lost to wraparound.
    #[must_use]
    pub fn overwritten(&self) -> u64 {
        lock(&self.inner).overwritten
    }
}

/// Locks the ring, recovering from poisoning: an event push can never
/// panic, so a poisoned mutex only means some other thread panicked
/// mid-push — the ring contents are still sound to read.
fn lock(inner: &Arc<Mutex<RingInner>>) -> std::sync::MutexGuard<'_, RingInner> {
    inner
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraparound_evicts_oldest_and_counts() {
        let ring = EventRing::with_capacity(3);
        for i in 0..7 {
            ring.push(Severity::Info, format!("event {i}"), &[]);
        }
        let recent = ring.recent(10);
        assert_eq!(recent.len(), 3);
        assert_eq!(
            recent
                .iter()
                .map(|e| e.message.as_str())
                .collect::<Vec<_>>(),
            ["event 4", "event 5", "event 6"]
        );
        // Sequence numbers survive the wrap.
        assert_eq!(recent.iter().map(|e| e.seq).collect::<Vec<_>>(), [4, 5, 6]);
        assert_eq!(ring.total(), 7);
        assert_eq!(ring.overwritten(), 4);
    }

    #[test]
    fn recent_limit_and_fields() {
        let ring = EventRing::with_capacity(8);
        ring.push(
            Severity::Warn,
            "malformed packet",
            &[("peer", "10.0.0.1:999")],
        );
        ring.push(
            Severity::Error,
            "red-line",
            &[("machine", "3"), ("temp", "69.1")],
        );
        let last = ring.recent(1);
        assert_eq!(last.len(), 1);
        assert_eq!(last[0].severity, Severity::Error);
        assert_eq!(last[0].fields[0], ("machine".to_string(), "3".to_string()));
        assert_eq!(ring.recent(0).len(), 0);
    }

    #[test]
    fn clones_share_the_ring() {
        let ring = EventRing::with_capacity(4);
        let other = ring.clone();
        other.push(Severity::Debug, "x", &[]);
        assert_eq!(ring.total(), 1);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let ring = EventRing::with_capacity(0);
        assert_eq!(ring.capacity(), 1);
        ring.push(Severity::Info, "a", &[]);
        ring.push(Severity::Info, "b", &[]);
        assert_eq!(ring.recent(10).len(), 1);
        assert_eq!(ring.overwritten(), 1);
    }

    #[test]
    fn severity_display_and_order() {
        assert!(Severity::Debug < Severity::Error);
        assert_eq!(Severity::Warn.to_string(), "warn");
    }
}
