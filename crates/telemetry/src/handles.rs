//! The write-side handles: [`Counter`], [`Gauge`], and [`Histogram`].
//!
//! Each handle is a thin `Arc` around atomic storage. Cloning a handle
//! shares the underlying cells — that is the mechanism by which one
//! metric can be updated from many places (e.g. every machine solver in
//! a cluster bumping the same tick counter) and read from a
//! [`Registry`](crate::Registry) without any global state.
//!
//! All updates use `Ordering::Relaxed`: metrics are monotonic summaries,
//! not synchronization primitives, and relaxed ops compile to plain
//! `lock xadd`/`mov` on x86 — cheap enough to leave on in production
//! builds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of log-2 histogram buckets: bucket `i` counts values whose
/// bit length is `i`, i.e. bucket 0 holds the value `0`, bucket `i ≥ 1`
/// holds `[2^(i-1), 2^i)`. 65 buckets cover the full `u64` range.
pub const NUM_BUCKETS: usize = 65;

/// A monotonically increasing `u64` counter.
///
/// ```
/// let c = telemetry::Counter::new();
/// c.inc();
/// c.add(41);
/// assert_eq!(c.get(), 42);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Creates a detached counter (not yet registered anywhere).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` gauge (stored as bits in an `AtomicU64`).
///
/// ```
/// let g = telemetry::Gauge::new();
/// g.set(3.5);
/// assert_eq!(g.get(), 3.5);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Creates a detached gauge.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.cell.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }
}

/// A histogram's cells, buckets inline: one allocation per histogram.
/// A process that builds many short-lived rooms and keeps each room's
/// handles (as `bench-e2e` keeps every pass's) holds one block per
/// histogram; a separate bucket vector made it two, and its 528-byte
/// chunk split whatever mid-sized hole the allocator had free.
#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

/// A log-2-bucketed histogram over `u64` values.
///
/// Values are recorded raw (pick one unit per metric — the solver uses
/// nanoseconds for latencies, lane counts for occupancy); the unit is
/// converted to base units only at exposition time via the scale passed
/// to [`Registry::register_histogram`](crate::Registry::register_histogram).
/// Because buckets are at fixed powers of two, snapshots from any two
/// histograms merge exactly with [`HistogramSnapshot::merge`].
///
/// ```
/// let h = telemetry::Histogram::new();
/// h.observe(0);
/// h.observe(1);
/// h.observe(1000);
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 3);
/// assert_eq!(snap.sum, 1001);
/// assert_eq!(snap.buckets[0], 1); // the value 0
/// assert_eq!(snap.buckets[1], 1); // the value 1
/// assert_eq!(snap.buckets[10], 1); // 1000 ∈ [512, 1024)
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    cells: Arc<HistogramCells>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates a detached histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            cells: Arc::new(HistogramCells {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }),
        }
    }

    /// Records one value: two relaxed adds and one relaxed increment.
    #[inline]
    pub fn observe(&self, value: u64) {
        let idx = bucket_index(value);
        self.cells.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.cells.sum.fetch_add(value, Ordering::Relaxed);
        self.cells.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current bucket contents out.
    ///
    /// The copy is not atomic across buckets — concurrent `observe`
    /// calls may straddle the read — which is the standard (and
    /// harmless) property of scrape-style metrics.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .cells
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.cells.sum.load(Ordering::Relaxed),
            count: self.cells.count.load(Ordering::Relaxed),
        }
    }
}

/// Which bucket a value falls into: its bit length.
#[inline]
fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// A point-in-time copy of a [`Histogram`], suitable for merging.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (`NUM_BUCKETS` entries; bucket `i`
    /// holds values of bit length `i`).
    pub buckets: Vec<u64>,
    /// Sum of all recorded raw values.
    pub sum: u64,
    /// Number of recorded values.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Inclusive upper bound of bucket `i` in raw units.
    ///
    /// Bucket 0 holds only 0; bucket `i ≥ 1` holds `[2^(i-1), 2^i)`, so
    /// its upper bound is `2^i − 1` (saturating at `u64::MAX`).
    #[must_use]
    pub fn bucket_upper_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            1..=63 => (1u64 << i) - 1,
            _ => u64::MAX,
        }
    }

    /// Element-wise merge of another snapshot into this one. Because
    /// bucket boundaries are fixed powers of two this is exact — the
    /// merged histogram is identical to having recorded both value
    /// streams into one histogram.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.sum += other.sum;
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        // Clones share the cell.
        let c2 = c.clone();
        c2.inc();
        assert_eq!(c.get(), 11);

        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(-2.25);
        assert_eq!(g.get(), -2.25);
        g.clone().set(7.0);
        assert_eq!(g.get(), 7.0);
    }

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_tile_the_u64_range() {
        // Every bucket's lower edge is the previous bucket's upper
        // bound + 1, and the index function maps edges consistently.
        for i in 1..NUM_BUCKETS {
            let upper = HistogramSnapshot::bucket_upper_bound(i);
            let lower = HistogramSnapshot::bucket_upper_bound(i - 1).wrapping_add(1);
            assert_eq!(bucket_index(lower), i, "lower edge of bucket {i}");
            assert_eq!(bucket_index(upper), i, "upper edge of bucket {i}");
        }
    }

    #[test]
    fn histogram_observe_snapshot() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 500, 512, u64::MAX] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(
            s.sum,
            0u64.wrapping_add(1 + 2 + 3 + 500 + 512)
                .wrapping_add(u64::MAX)
        );
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 2); // 2 and 3
        assert_eq!(s.buckets[9], 1); // 500 ∈ [256, 512)
        assert_eq!(s.buckets[10], 1); // 512 ∈ [512, 1024)
        assert_eq!(s.buckets[64], 1); // u64::MAX
    }

    #[test]
    fn histogram_merge_is_exact() {
        let a = Histogram::new();
        let b = Histogram::new();
        let both = Histogram::new();
        for v in [1u64, 7, 100, 4096] {
            a.observe(v);
            both.observe(v);
        }
        for v in [0u64, 7, 65_000] {
            b.observe(v);
            both.observe(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }

    #[test]
    fn histogram_merge_across_threads() {
        // The same histogram handle updated from several threads: the
        // shared-cell design *is* the cross-thread merge.
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.observe(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 4000);
    }
}
