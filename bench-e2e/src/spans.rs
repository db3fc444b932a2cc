//! Turning a span tree into per-layer times.
//!
//! The traced run attaches one `telemetry::Tracer` to the program
//! (through its public configuration) and to the benchmark's own
//! `bench.*` spans around each call into a layer. The tracer's ring is
//! bounded, so the run drains it at unit boundaries into a
//! [`SpanTotals`]: per span name, how many, their summed duration, and
//! their summed *self* time — duration minus the part their children
//! cover. A bounded tail of raw spans is kept for the JSONL file
//! written at exit.

use std::collections::{BTreeMap, HashMap, VecDeque};
use telemetry::{SpanRecord, Tracer};

/// Raw spans kept for `<workload>.spans.jsonl`.
const TAIL_SPANS: usize = 20_000;

/// Capacity of the tracer a traced run creates: large enough that one
/// unit of any workload fits between two drains.
pub const TRACER_CAPACITY: usize = 1 << 21;

/// Count and times of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Spans seen.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration not covered by child spans, ns.
    pub self_ns: u64,
}

/// Running per-name totals over everything drained so far.
#[derive(Debug, Default)]
pub struct SpanTotals {
    by_name: BTreeMap<String, NameTotal>,
    tail: VecDeque<SpanRecord>,
    spans: u64,
    /// Span name whose idle gaps are summed, and the sum so far, ns.
    gaps_of: Option<&'static str>,
    gap_ns: u64,
}

impl SpanTotals {
    /// Empty totals.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Totals that also sum the time *between* consecutive spans named
    /// `name` within each drain — what a thread that opens one such span
    /// per item of work spends outside them (waiting for, or fetching,
    /// the next item).
    #[must_use]
    pub fn with_gaps_of(name: &'static str) -> Self {
        SpanTotals {
            gaps_of: Some(name),
            ..Self::default()
        }
    }

    /// Drains `tracer` and folds what it held into the totals. A child
    /// is charged to its parent only when both are in the same drain —
    /// drain when no span of interest is open.
    pub fn absorb(&mut self, tracer: &Tracer) {
        self.absorb_records(tracer.drain());
    }

    /// As [`SpanTotals::absorb`], over records already in hand.
    pub fn absorb_records(&mut self, records: Vec<SpanRecord>) {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for r in &records {
            if r.parent != 0 {
                *child_ns.entry(r.parent).or_default() += r.dur_ns;
            }
        }
        for r in &records {
            let covered = child_ns.get(&r.id).copied().unwrap_or(0);
            // Millions of spans share a handful of names: allocate a key
            // only the first time one is seen.
            if !self.by_name.contains_key(r.name.as_ref()) {
                self.by_name
                    .insert(r.name.to_string(), NameTotal::default());
            }
            let t = self
                .by_name
                .get_mut(r.name.as_ref())
                .expect("inserted just above");
            t.count += 1;
            t.total_ns += r.dur_ns;
            t.self_ns += r.dur_ns.saturating_sub(covered);
        }
        if let Some(name) = self.gaps_of {
            let mut intervals: Vec<(u64, u64)> = records
                .iter()
                .filter(|r| r.name == name)
                .map(|r| (r.start_ns, r.start_ns + r.dur_ns))
                .collect();
            intervals.sort_unstable();
            self.gap_ns += intervals
                .windows(2)
                .map(|w| w[1].0.saturating_sub(w[0].1))
                .sum::<u64>();
        }
        self.spans += records.len() as u64;
        let skip = records.len().saturating_sub(TAIL_SPANS);
        self.tail.extend(records.into_iter().skip(skip));
        let excess = self.tail.len().saturating_sub(TAIL_SPANS);
        self.tail.drain(..excess);
    }

    /// Totals of the spans named `name` (zero when none were seen).
    #[must_use]
    pub fn get(&self, name: &str) -> NameTotal {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Summed duration of `name`, seconds.
    #[must_use]
    pub fn total_s(&self, name: &str) -> f64 {
        self.get(name).total_ns as f64 * 1e-9
    }

    /// Summed gaps between the spans named in
    /// [`SpanTotals::with_gaps_of`], seconds.
    #[must_use]
    pub fn gap_s(&self) -> f64 {
        self.gap_ns as f64 * 1e-9
    }

    /// Share of `name`'s summed duration that its child spans cover,
    /// percent: how much of a unit the layers below it account for.
    #[must_use]
    pub fn covered_pct(&self, name: &str) -> f64 {
        let t = self.get(name);
        if t.total_ns == 0 {
            0.0
        } else {
            100.0 * (1.0 - t.self_ns as f64 / t.total_ns as f64)
        }
    }

    /// Spans folded in so far.
    #[must_use]
    pub fn spans(&self) -> u64 {
        self.spans
    }

    /// The most recent raw spans as JSONL (one tree: ids and parent
    /// links are the tracer's).
    #[must_use]
    pub fn tail_jsonl(&self) -> String {
        let tail: Vec<SpanRecord> = self.tail.iter().cloned().collect();
        telemetry::trace::to_jsonl(&tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn rec(id: u64, parent: u64, name: &'static str, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            tid: 0,
            start_ns: id * 10,
            dur_ns,
            cat: Cow::Borrowed("bench"),
            name: Cow::Borrowed(name),
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut totals = SpanTotals::new();
        totals.absorb_records(vec![
            rec(2, 1, "child", 30),
            rec(3, 1, "child", 20),
            rec(4, 3, "leaf", 5),
            rec(1, 0, "root", 100),
        ]);
        assert_eq!(
            totals.get("root"),
            NameTotal {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            totals.get("child"),
            NameTotal {
                count: 2,
                total_ns: 50,
                self_ns: 45
            }
        );
        assert_eq!(totals.get("leaf").self_ns, 5);
        assert_eq!(totals.get("absent"), NameTotal::default());
        assert_eq!(totals.spans(), 4);
        // Self times of a tree add up to its root.
        let sum: u64 = ["root", "child", "leaf"]
            .iter()
            .map(|n| totals.get(n).self_ns)
            .sum();
        assert_eq!(sum, 100);
        assert_eq!(totals.covered_pct("root"), 50.0);
        assert_eq!(totals.covered_pct("absent"), 0.0);
    }

    #[test]
    fn totals_accumulate_across_drains_and_the_tail_is_bounded() {
        let mut totals = SpanTotals::new();
        for batch in 0..3u64 {
            let records = (0..TAIL_SPANS as u64)
                .map(|i| rec(batch * 1_000_000 + i + 1, 0, "unit", 2))
                .collect();
            totals.absorb_records(records);
        }
        assert_eq!(totals.get("unit").count, 3 * TAIL_SPANS as u64);
        assert!((totals.total_s("unit") - 3.0 * TAIL_SPANS as f64 * 2e-9).abs() < 1e-12);
        assert_eq!(totals.tail_jsonl().lines().count(), TAIL_SPANS);
    }

    #[test]
    fn gaps_between_named_spans_are_summed_per_drain() {
        let mut totals = SpanTotals::with_gaps_of("req");
        // start_ns = id * 10: [10,14) [20,25) [40,41) — gaps 6 and 15;
        // the other name and the drain boundary do not count.
        totals.absorb_records(vec![
            rec(4, 0, "req", 1),
            rec(1, 0, "req", 4),
            rec(3, 0, "other", 9),
            rec(2, 0, "req", 5),
        ]);
        totals.absorb_records(vec![rec(100, 0, "req", 1)]);
        assert!((totals.gap_s() - 21e-9).abs() < 1e-15);
        assert_eq!(SpanTotals::new().gap_s(), 0.0);
    }

    #[test]
    fn absorbs_a_live_tracer() {
        let tracer = Tracer::new(64);
        let root = tracer.start("bench.unit", "bench");
        let child = tracer.start_child("bench.layer", "bench", root.id());
        tracer.end(child);
        tracer.end(root);
        let mut totals = SpanTotals::new();
        totals.absorb(&tracer);
        if telemetry::enabled() {
            assert_eq!(totals.get("bench.unit").count, 1);
            assert!(totals.get("bench.unit").self_ns <= totals.get("bench.unit").total_ns);
            assert!(tracer.drain().is_empty());
        }
    }
}
