//! Embedded time-series store: Gorilla-style compressed history rings.
//!
//! [`Tsdb`] keeps one bounded ring of compressed blocks per series.
//! Inside a block, timestamps are delta-of-delta coded and values are
//! XOR coded against their predecessor (the scheme from Facebook's
//! Gorilla paper), so a steady 1 Hz temperature series costs a couple
//! of bytes per sample instead of sixteen. Decoding is bit-exact: every
//! `(u64, f64)` pair appended — including NaNs with odd payloads,
//! infinities, and denormals — comes back with identical bits.
//!
//! Memory is bounded per series: when the ring exceeds
//! [`TsdbConfig::max_blocks_per_series`] the oldest sealed block is
//! dropped and counted in [`TsdbStats::evicted_blocks`].
//!
//! The store itself is clock-free and unit-agnostic: callers pick the
//! timestamp unit (the service samples wall-clock milliseconds, the
//! freon engine samples simulated seconds) and must append each series
//! in non-decreasing time order — out-of-order appends are dropped and
//! counted, never reordered, preserving the repo's determinism
//! invariant.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Bit-level plumbing
// ---------------------------------------------------------------------------

/// Append-only MSB-first bit buffer.
#[derive(Debug, Clone, Default)]
struct BitWriter {
    bytes: Vec<u8>,
    /// Bits used in the final byte (0 when byte-aligned).
    used: u8,
}

impl BitWriter {
    fn push_bit(&mut self, bit: bool) {
        if self.used == 0 {
            self.bytes.push(0);
        }
        if bit {
            let last = self.bytes.len() - 1;
            self.bytes[last] |= 1 << (7 - self.used);
        }
        self.used = (self.used + 1) % 8;
    }

    /// Writes the low `count` bits of `value`, most significant first.
    fn push_bits(&mut self, value: u64, count: u32) {
        debug_assert!(count <= 64);
        for i in (0..count).rev() {
            self.push_bit((value >> i) & 1 == 1);
        }
    }

    fn byte_len(&self) -> usize {
        self.bytes.len()
    }
}

/// MSB-first bit cursor over a byte slice.
#[derive(Debug)]
struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit position.
    pos: usize,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn read_bit(&mut self) -> Option<bool> {
        let byte = self.bytes.get(self.pos / 8)?;
        let bit = (byte >> (7 - (self.pos % 8) as u32)) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    fn read_bits(&mut self, count: u32) -> Option<u64> {
        let mut value = 0u64;
        for _ in 0..count {
            value = (value << 1) | u64::from(self.read_bit()?);
        }
        Some(value)
    }
}

// ---------------------------------------------------------------------------
// Block encoding
// ---------------------------------------------------------------------------

/// One sealed, immutable compressed run of samples.
#[derive(Debug, Clone)]
pub struct Block {
    /// Compressed payload (timestamp + value streams interleaved).
    bytes: Vec<u8>,
    /// Number of samples encoded in `bytes`.
    count: u32,
    /// Timestamp of the first sample.
    t_first: u64,
    /// Timestamp of the last sample.
    t_last: u64,
}

impl Block {
    /// Timestamp of the first sample in the block.
    #[must_use]
    pub fn t_first(&self) -> u64 {
        self.t_first
    }

    /// Timestamp of the last sample in the block.
    #[must_use]
    pub fn t_last(&self) -> u64 {
        self.t_last
    }

    /// Number of samples in the block.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Compressed payload size in bytes.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Decompresses the block back to its `(timestamp, value)` pairs.
    ///
    /// The decode mirrors the append path bit for bit; a well-formed
    /// block always yields exactly [`count`](Self::count) samples.
    #[must_use]
    pub fn samples(&self) -> Vec<(u64, f64)> {
        decode_stream(&self.bytes, self.count)
    }
}

/// Streaming Gorilla encoder for the open (not yet sealed) block.
#[derive(Debug, Clone, Default)]
struct BlockBuilder {
    w: BitWriter,
    count: u32,
    t_first: u64,
    t_last: u64,
    prev_delta: u64,
    prev_bits: u64,
    lead: u32,
    trail: u32,
    window_valid: bool,
}

impl BlockBuilder {
    /// Appends one sample; `t` must be `>= self.t_last` once non-empty.
    fn push(&mut self, t: u64, value: f64) {
        let bits = value.to_bits();
        if self.count == 0 {
            self.t_first = t;
            self.w.push_bits(t, 64);
            self.w.push_bits(bits, 64);
            self.prev_delta = 0;
        } else {
            // Delta-of-delta timestamp classes: 0 | 10+7b | 110+9b |
            // 1110+12b | 1111+64b. Wrapping arithmetic keeps arbitrary
            // u64 timestamps exact through the i64 cast.
            let delta = t.wrapping_sub(self.t_last);
            let dod = delta.wrapping_sub(self.prev_delta) as i64;
            self.prev_delta = delta;
            if dod == 0 {
                self.w.push_bit(false);
            } else if (-63..=64).contains(&dod) {
                self.w.push_bits(0b10, 2);
                self.w.push_bits((dod + 63) as u64, 7);
            } else if (-255..=256).contains(&dod) {
                self.w.push_bits(0b110, 3);
                self.w.push_bits((dod + 255) as u64, 9);
            } else if (-2047..=2048).contains(&dod) {
                self.w.push_bits(0b1110, 4);
                self.w.push_bits((dod + 2047) as u64, 12);
            } else {
                self.w.push_bits(0b1111, 4);
                self.w.push_bits(dod as u64, 64);
            }

            // XOR value classes: 0 (identical) | 10 + bits inside the
            // previous leading/trailing window | 11 + new window.
            let xor = bits ^ self.prev_bits;
            if xor == 0 {
                self.w.push_bit(false);
            } else {
                self.w.push_bit(true);
                let lead = xor.leading_zeros().min(31);
                let trail = xor.trailing_zeros();
                if self.window_valid && lead >= self.lead && trail >= self.trail {
                    self.w.push_bit(false);
                    let sig = 64 - self.lead - self.trail;
                    self.w.push_bits(xor >> self.trail, sig);
                } else {
                    self.w.push_bit(true);
                    let sig = 64 - lead - trail;
                    self.w.push_bits(u64::from(lead), 5);
                    self.w.push_bits(u64::from(sig - 1), 6);
                    self.w.push_bits(xor >> trail, sig);
                    self.lead = lead;
                    self.trail = trail;
                    self.window_valid = true;
                }
            }
        }
        self.t_last = t;
        self.prev_bits = bits;
        self.count += 1;
    }

    fn seal(&mut self) -> Block {
        let sealed = std::mem::take(self);
        Block {
            bytes: sealed.w.bytes,
            count: sealed.count,
            t_first: sealed.t_first,
            t_last: sealed.t_last,
        }
    }

    /// Decodes the open block's samples so queries see un-sealed data.
    fn samples(&self) -> Vec<(u64, f64)> {
        decode_stream(&self.w.bytes, self.count)
    }
}

/// Decodes `count` samples out of a compressed stream.
fn decode_stream(bytes: &[u8], count: u32) -> Vec<(u64, f64)> {
    let mut out = Vec::with_capacity(count as usize);
    if count == 0 {
        return out;
    }
    let mut r = BitReader::new(bytes);
    let Some(mut t) = r.read_bits(64) else {
        return out;
    };
    let Some(mut bits) = r.read_bits(64) else {
        return out;
    };
    out.push((t, f64::from_bits(bits)));
    let mut delta = 0u64;
    let (mut lead, mut trail) = (0u32, 0u32);
    for _ in 1..count {
        let dod = match r.read_bit() {
            Some(false) => 0i64,
            Some(true) => match r.read_bit() {
                Some(false) => match r.read_bits(7) {
                    Some(v) => v as i64 - 63,
                    None => break,
                },
                Some(true) => match r.read_bit() {
                    Some(false) => match r.read_bits(9) {
                        Some(v) => v as i64 - 255,
                        None => break,
                    },
                    Some(true) => match r.read_bit() {
                        Some(false) => match r.read_bits(12) {
                            Some(v) => v as i64 - 2047,
                            None => break,
                        },
                        Some(true) => match r.read_bits(64) {
                            Some(v) => v as i64,
                            None => break,
                        },
                        None => break,
                    },
                    None => break,
                },
                None => break,
            },
            None => break,
        };
        delta = delta.wrapping_add(dod as u64);
        t = t.wrapping_add(delta);

        match r.read_bit() {
            Some(false) => {}
            Some(true) => match r.read_bit() {
                Some(false) => {
                    let sig = 64 - lead - trail;
                    match r.read_bits(sig) {
                        Some(v) => bits ^= v << trail,
                        None => break,
                    }
                }
                Some(true) => {
                    let Some(new_lead) = r.read_bits(5) else {
                        break;
                    };
                    let Some(sig_m1) = r.read_bits(6) else { break };
                    let sig = sig_m1 as u32 + 1;
                    lead = new_lead as u32;
                    trail = 64 - lead - sig;
                    match r.read_bits(sig) {
                        Some(v) => bits ^= v << trail,
                        None => break,
                    }
                }
                None => break,
            },
            None => break,
        }
        out.push((t, f64::from_bits(bits)));
    }
    out
}

// ---------------------------------------------------------------------------
// Series + store
// ---------------------------------------------------------------------------

/// Sizing knobs for a [`Tsdb`].
#[derive(Debug, Clone)]
pub struct TsdbConfig {
    /// Samples per compressed block before it is sealed.
    pub samples_per_block: u32,
    /// Sealed blocks retained per series; the oldest is evicted beyond
    /// this and counted.
    pub max_blocks_per_series: usize,
}

impl Default for TsdbConfig {
    fn default() -> Self {
        Self {
            samples_per_block: 240,
            max_blocks_per_series: 16,
        }
    }
}

#[derive(Debug, Default)]
struct SeriesStore {
    open: BlockBuilder,
    blocks: VecDeque<Block>,
    evicted_blocks: u64,
    dropped_out_of_order: u64,
}

impl SeriesStore {
    /// Samples with timestamps in `[start, end]`, in time order.
    fn raw(&self, start: u64, end: u64) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        for block in &self.blocks {
            if block.t_last < start || block.t_first > end {
                continue;
            }
            out.extend(
                block
                    .samples()
                    .into_iter()
                    .filter(|&(t, _)| t >= start && t <= end),
            );
        }
        if self.open.count > 0 && self.open.t_last >= start && self.open.t_first <= end {
            out.extend(
                self.open
                    .samples()
                    .into_iter()
                    .filter(|&(t, _)| t >= start && t <= end),
            );
        }
        out
    }

    /// See [`Tsdb::query_downsampled`].
    fn downsampled(&self, start: u64, end: u64, step: u64) -> Vec<Bucket> {
        let step = step.max(1);
        let mut out: Vec<Bucket> = Vec::new();
        for (t, v) in self.raw(start, end) {
            if v.is_nan() {
                continue;
            }
            let bucket_t = start + (t - start) / step * step;
            match out.last_mut() {
                Some(b) if b.t == bucket_t => {
                    b.min = b.min.min(v);
                    b.max = b.max.max(v);
                    // `mean` accumulates the sum until the final pass.
                    b.mean += v;
                    b.count += 1;
                }
                _ => out.push(Bucket {
                    t: bucket_t,
                    min: v,
                    mean: v,
                    max: v,
                    count: 1,
                }),
            }
        }
        for b in &mut out {
            b.mean /= b.count as f64;
        }
        out
    }

    /// See [`Tsdb::query_rate`].
    fn rate(&self, start: u64, end: u64, step: u64) -> Vec<(u64, f64)> {
        let step = step.max(1);
        let mut out: Vec<(u64, f64)> = Vec::new();
        let mut prev: Option<f64> = None;
        for (t, v) in self.raw(start, end) {
            if v.is_nan() {
                continue;
            }
            let increase = match prev {
                None => 0.0,
                Some(p) if v >= p => v - p,
                Some(_) => v, // counter reset
            };
            prev = Some(v);
            let bucket_t = start + (t - start) / step * step;
            match out.last_mut() {
                Some(b) if b.0 == bucket_t => b.1 += increase,
                _ => out.push((bucket_t, increase)),
            }
        }
        for (_, v) in &mut out {
            *v /= step as f64;
        }
        out
    }

    /// One query's points, shaped for the wire.
    fn points(&self, kind: QueryKind, start: u64, end: u64, step: u64) -> Vec<SeriesPoint> {
        match kind {
            QueryKind::Raw => (self.raw(start, end).into_iter())
                .map(|(t, v)| SeriesPoint::flat(t, v))
                .collect(),
            QueryKind::Downsample => (self.downsampled(start, end, step).into_iter())
                .map(|b| SeriesPoint {
                    t: b.t,
                    min: b.min,
                    mean: b.mean,
                    max: b.max,
                })
                .collect(),
            QueryKind::Rate => (self.rate(start, end, step).into_iter())
                .map(|(t, v)| SeriesPoint::flat(t, v))
                .collect(),
        }
    }
}

#[derive(Debug)]
struct SeriesEntry {
    name: String,
    store: SeriesStore,
}

#[derive(Debug, Default)]
struct TsdbInner {
    index: HashMap<String, usize>,
    series: Vec<SeriesEntry>,
}

/// Stable handle to one series, resolved once via [`Tsdb::handle`] so
/// hot append paths skip the name hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesHandle(usize);

/// Aggregate counters over the whole store (see [`Tsdb::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TsdbStats {
    /// Number of distinct series.
    pub series: usize,
    /// Sealed blocks currently retained across every ring.
    pub sealed_blocks: usize,
    /// Total samples currently queryable (sealed + open).
    pub samples: u64,
    /// Blocks evicted from rings since the store was created.
    pub evicted_blocks: u64,
    /// Appends dropped for arriving out of time order.
    pub dropped_out_of_order: u64,
}

/// One downsampled bucket from [`Tsdb::query_downsampled`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    /// Bucket start timestamp (inclusive).
    pub t: u64,
    /// Minimum sample value in the bucket.
    pub min: f64,
    /// Mean of the sample values in the bucket.
    pub mean: f64,
    /// Maximum sample value in the bucket.
    pub max: f64,
    /// Samples aggregated into the bucket.
    pub count: u64,
}

/// Thread-safe store of per-series compressed history rings.
#[derive(Debug)]
pub struct Tsdb {
    config: TsdbConfig,
    inner: Mutex<TsdbInner>,
}

impl Tsdb {
    /// Empty store with the given sizing.
    #[must_use]
    pub fn new(config: TsdbConfig) -> Self {
        Self {
            config,
            inner: Mutex::new(TsdbInner::default()),
        }
    }

    /// `Arc`-wrapped store, ready to share with a [`crate::Sampler`].
    #[must_use]
    pub fn shared(config: TsdbConfig) -> Arc<Self> {
        Arc::new(Self::new(config))
    }

    /// The sizing this store was built with.
    #[must_use]
    pub fn config(&self) -> &TsdbConfig {
        &self.config
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TsdbInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Resolves (creating if needed) a stable handle for `series`.
    pub fn handle(&self, series: &str) -> SeriesHandle {
        let mut inner = self.lock();
        SeriesHandle(entry_index(&mut inner, series))
    }

    /// Appends one sample to `series`, creating it on first touch.
    ///
    /// Returns `false` (and counts a drop) if `t` precedes the series'
    /// newest timestamp; equal timestamps are accepted.
    pub fn append(&self, series: &str, t: u64, value: f64) -> bool {
        let mut inner = self.lock();
        let idx = entry_index(&mut inner, series);
        append_at(&self.config, &mut inner.series[idx].store, t, value)
    }

    /// [`append`](Self::append) through a pre-resolved handle.
    pub fn append_handle(&self, handle: SeriesHandle, t: u64, value: f64) -> bool {
        let mut inner = self.lock();
        match inner.series.get_mut(handle.0) {
            Some(entry) => append_at(&self.config, &mut entry.store, t, value),
            None => false,
        }
    }

    /// Every series name, sorted.
    #[must_use]
    pub fn series_names(&self) -> Vec<String> {
        let inner = self.lock();
        let mut names: Vec<String> = inner.series.iter().map(|e| e.name.clone()).collect();
        names.sort();
        names
    }

    /// Series names matching a `*`-glob pattern, sorted.
    #[must_use]
    pub fn match_names(&self, pattern: &str) -> Vec<String> {
        let inner = self.lock();
        let mut names: Vec<String> = (inner.series.iter())
            .filter(|e| glob_match(pattern.as_bytes(), e.name.as_bytes()))
            .map(|e| e.name.clone())
            .collect();
        names.sort_unstable();
        names
    }

    /// Runs one query over the first `limit` series matching a `*`-glob
    /// pattern, in name order — the prefix of
    /// [`match_names`](Self::match_names) — in one pass under one lock:
    /// the matches are selected and sorted by reference, and only the
    /// kept series are read.
    #[must_use]
    pub fn query_matching(
        &self,
        pattern: &str,
        limit: usize,
        kind: QueryKind,
        start: u64,
        end: u64,
        step: u64,
    ) -> Vec<SeriesResult> {
        let inner = self.lock();
        let mut kept: Vec<&SeriesEntry> = (inner.series.iter())
            .filter(|e| glob_match(pattern.as_bytes(), e.name.as_bytes()))
            .collect();
        let by_name = |a: &&SeriesEntry, b: &&SeriesEntry| a.name.cmp(&b.name);
        if kept.len() > limit {
            kept.select_nth_unstable_by(limit, by_name);
            kept.truncate(limit);
        }
        // Series names are unique, so an unstable sort is the sort.
        kept.sort_unstable_by(by_name);
        kept.into_iter()
            .map(|e| SeriesResult {
                name: e.name.clone(),
                kind,
                points: e.store.points(kind, start, end, step),
            })
            .collect()
    }

    /// The store of `series` under the lock, if it exists.
    fn with_store<T: Default>(&self, series: &str, f: impl FnOnce(&SeriesStore) -> T) -> T {
        let inner = self.lock();
        match inner.index.get(series) {
            Some(&idx) => f(&inner.series[idx].store),
            None => T::default(),
        }
    }

    /// Raw samples of `series` with timestamps in `[start, end]`.
    #[must_use]
    pub fn query_raw(&self, series: &str, start: u64, end: u64) -> Vec<(u64, f64)> {
        self.with_store(series, |store| store.raw(start, end))
    }

    /// Min/mean/max buckets of width `step` over `[start, end]`.
    ///
    /// Empty buckets are omitted; NaN samples are skipped during
    /// aggregation (they would poison every bound they touch).
    #[must_use]
    pub fn query_downsampled(&self, series: &str, start: u64, end: u64, step: u64) -> Vec<Bucket> {
        self.with_store(series, |store| store.downsampled(start, end, step))
    }

    /// Per-bucket counter rate (increase per timestamp unit) over
    /// `[start, end]`, reset-aware: a decrease is treated as a counter
    /// restart and contributes the post-reset value.
    #[must_use]
    pub fn query_rate(&self, series: &str, start: u64, end: u64, step: u64) -> Vec<(u64, f64)> {
        self.with_store(series, |store| store.rate(start, end, step))
    }

    /// Newest sample of `series`, if any.
    #[must_use]
    pub fn latest(&self, series: &str) -> Option<(u64, f64)> {
        let inner = self.lock();
        let &idx = inner.index.get(series)?;
        let store = &inner.series[idx].store;
        if store.open.count > 0 {
            store.open.samples().last().copied()
        } else {
            store
                .blocks
                .back()
                .and_then(|b| b.samples().last().copied())
        }
    }

    /// Payload bytes currently held: sealed block bytes, open-block
    /// bytes, and series names. The eviction bound caps this.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let inner = self.lock();
        inner
            .series
            .iter()
            .map(|e| {
                e.name.len()
                    + e.store.open.w.byte_len()
                    + e.store.blocks.iter().map(Block::byte_len).sum::<usize>()
            })
            .sum()
    }

    /// Aggregate counters across every series.
    #[must_use]
    pub fn stats(&self) -> TsdbStats {
        let inner = self.lock();
        let mut stats = TsdbStats {
            series: inner.series.len(),
            ..TsdbStats::default()
        };
        for e in &inner.series {
            stats.sealed_blocks += e.store.blocks.len();
            stats.samples += u64::from(e.store.open.count)
                + e.store
                    .blocks
                    .iter()
                    .map(|b| u64::from(b.count))
                    .sum::<u64>();
            stats.evicted_blocks += e.store.evicted_blocks;
            stats.dropped_out_of_order += e.store.dropped_out_of_order;
        }
        stats
    }
}

fn entry_index(inner: &mut TsdbInner, series: &str) -> usize {
    if let Some(&idx) = inner.index.get(series) {
        return idx;
    }
    let idx = inner.series.len();
    inner.series.push(SeriesEntry {
        name: series.to_string(),
        store: SeriesStore::default(),
    });
    inner.index.insert(series.to_string(), idx);
    idx
}

fn append_at(config: &TsdbConfig, store: &mut SeriesStore, t: u64, value: f64) -> bool {
    let newest = if store.open.count > 0 {
        Some(store.open.t_last)
    } else {
        store.blocks.back().map(|b| b.t_last)
    };
    if newest.is_some_and(|n| t < n) {
        store.dropped_out_of_order += 1;
        return false;
    }
    store.open.push(t, value);
    if store.open.count >= config.samples_per_block {
        let block = store.open.seal();
        store.blocks.push_back(block);
        while store.blocks.len() > config.max_blocks_per_series {
            store.blocks.pop_front();
            store.evicted_blocks += 1;
        }
    }
    true
}

/// Matches `*`-globs (any run of characters); everything else literal.
///
/// Two cursors and the last `*` seen: on a mismatch the star takes one
/// more byte of the name and matching resumes after it. Only the last
/// star ever needs retrying (whatever an earlier star would absorb, the
/// later one can), so the match is O(pattern × name) at worst, however
/// many stars a query sends.
fn glob_match(pattern: &[u8], name: &[u8]) -> bool {
    let (mut p, mut n) = (0, 0);
    // Pattern index just after the last `*`, and the name index it is
    // currently matched up to.
    let mut star: Option<(usize, usize)> = None;
    while n < name.len() {
        if p < pattern.len() && pattern[p] == b'*' {
            p += 1;
            star = Some((p, n));
        } else if p < pattern.len() && pattern[p] == name[n] {
            p += 1;
            n += 1;
        } else if let Some((after, taken)) = star {
            p = after;
            n = taken + 1;
            star = Some((after, n));
        } else {
            return false;
        }
    }
    pattern[p..].iter().all(|&c| c == b'*')
}

// ---------------------------------------------------------------------------
// Wire text format (shared by the service and the tools)
// ---------------------------------------------------------------------------

/// What a `SeriesQuery` asks the store to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Raw `(t, value)` samples.
    Raw,
    /// Min/mean/max buckets of the requested step.
    Downsample,
    /// Reset-aware counter rate per bucket.
    Rate,
}

impl QueryKind {
    /// Wire byte for this kind.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        match self {
            QueryKind::Raw => 0,
            QueryKind::Downsample => 1,
            QueryKind::Rate => 2,
        }
    }

    /// Parses a wire byte back into a kind.
    #[must_use]
    pub fn from_u8(byte: u8) -> Option<Self> {
        match byte {
            0 => Some(QueryKind::Raw),
            1 => Some(QueryKind::Downsample),
            2 => Some(QueryKind::Rate),
            _ => None,
        }
    }

    fn token(self) -> &'static str {
        match self {
            QueryKind::Raw => "raw",
            QueryKind::Downsample => "ds",
            QueryKind::Rate => "rate",
        }
    }

    fn from_token(token: &str) -> Option<Self> {
        match token {
            "raw" => Some(QueryKind::Raw),
            "ds" => Some(QueryKind::Downsample),
            "rate" => Some(QueryKind::Rate),
            _ => None,
        }
    }
}

/// One point of a query result; raw and rate points carry the value in
/// all three of `min`/`mean`/`max`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Sample or bucket-start timestamp.
    pub t: u64,
    /// Bucket minimum (== value for raw/rate).
    pub min: f64,
    /// Bucket mean (== value for raw/rate).
    pub mean: f64,
    /// Bucket maximum (== value for raw/rate).
    pub max: f64,
}

impl SeriesPoint {
    /// A point where min == mean == max == `value`.
    #[must_use]
    pub fn flat(t: u64, value: f64) -> Self {
        Self {
            t,
            min: value,
            mean: value,
            max: value,
        }
    }
}

/// One series' worth of query output, as moved over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesResult {
    /// Series name.
    pub name: String,
    /// Query kind that produced the points.
    pub kind: QueryKind,
    /// The points, in time order.
    pub points: Vec<SeriesPoint>,
}

/// Renders query results as the line-oriented wire text: one series per
/// line, `name kind t:v ...` (raw/rate) or `name ds t:min:mean:max ...`.
///
/// Finite values survive the text round trip exactly (Rust's `f64`
/// `Display` is shortest-round-trip); NaN collapses to the canonical
/// NaN, which is the one place the wire is lossier than the store.
#[must_use]
pub fn render_results(results: &[SeriesResult]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&r.name);
        out.push(' ');
        out.push_str(r.kind.token());
        for p in &r.points {
            match r.kind {
                QueryKind::Downsample => {
                    let _ = write!(out, " {}:{}:{}:{}", p.t, p.min, p.mean, p.max);
                }
                _ => {
                    let _ = write!(out, " {}:{}", p.t, p.mean);
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Parses [`render_results`] text back into structured results.
pub fn parse_results(text: &str) -> Result<Vec<SeriesResult>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let name = tokens.next().ok_or_else(|| bad_line(lineno))?.to_string();
        let kind = tokens
            .next()
            .and_then(QueryKind::from_token)
            .ok_or_else(|| bad_line(lineno))?;
        let mut points = Vec::new();
        for token in tokens {
            let fields: Vec<&str> = token.split(':').collect();
            let point = match (kind, fields.as_slice()) {
                (QueryKind::Downsample, [t, min, mean, max]) => SeriesPoint {
                    t: parse_u64(t, lineno)?,
                    min: parse_f64(min, lineno)?,
                    mean: parse_f64(mean, lineno)?,
                    max: parse_f64(max, lineno)?,
                },
                (QueryKind::Raw | QueryKind::Rate, [t, v]) => {
                    SeriesPoint::flat(parse_u64(t, lineno)?, parse_f64(v, lineno)?)
                }
                _ => return Err(bad_line(lineno)),
            };
            points.push(point);
        }
        out.push(SeriesResult { name, kind, points });
    }
    Ok(out)
}

fn bad_line(lineno: usize) -> String {
    format!("malformed series line {}", lineno + 1)
}

fn parse_u64(token: &str, lineno: usize) -> Result<u64, String> {
    token.parse().map_err(|_| bad_line(lineno))
}

fn parse_f64(token: &str, lineno: usize) -> Result<f64, String> {
    token.parse().map_err(|_| bad_line(lineno))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(samples: &[(u64, f64)]) {
        let mut b = BlockBuilder::default();
        for &(t, v) in samples {
            b.push(t, v);
        }
        let got = b.samples();
        assert_eq!(got.len(), samples.len());
        for (i, (&(t, v), &(gt, gv))) in samples.iter().zip(got.iter()).enumerate() {
            assert_eq!(t, gt, "timestamp {i}");
            assert_eq!(v.to_bits(), gv.to_bits(), "value bits {i}");
        }
        let sealed = b.clone().seal();
        let got = sealed.samples();
        assert_eq!(got.len(), samples.len());
        for (&(t, v), &(gt, gv)) in samples.iter().zip(got.iter()) {
            assert_eq!((t, v.to_bits()), (gt, gv.to_bits()));
        }
    }

    #[test]
    fn block_roundtrips_steady_series() {
        let samples: Vec<(u64, f64)> = (0..500)
            .map(|i| (1000 + i * 1000, 40.0 + (i as f64 * 0.1).sin()))
            .collect();
        roundtrip(&samples);
    }

    #[test]
    fn block_roundtrips_awkward_values() {
        roundtrip(&[
            (0, 0.0),
            (0, -0.0),
            (1, f64::NAN),
            (2, f64::from_bits(0x7ff8_dead_beef_0001)), // NaN payload
            (3, f64::INFINITY),
            (5, f64::NEG_INFINITY),
            (5, f64::MIN_POSITIVE / 8.0), // denormal
            (1_000_000_007, f64::MAX),
            (u64::MAX, f64::MIN),
        ]);
    }

    #[test]
    fn block_roundtrips_irregular_timestamps() {
        let samples: Vec<(u64, f64)> =
            [0u64, 1, 2, 70, 71, 400, 3000, 3001, 9_999_999, u64::MAX / 2]
                .iter()
                .enumerate()
                .map(|(i, &t)| (t, i as f64 * -3.25))
                .collect();
        roundtrip(&samples);
    }

    #[test]
    fn steady_series_compresses_well() {
        let mut b = BlockBuilder::default();
        for i in 0..240u64 {
            b.push(i * 1000, 42.0);
        }
        let block = b.seal();
        // 16 bytes for the header pair, ~2 bits per further sample.
        assert!(block.byte_len() < 120, "got {} bytes", block.byte_len());
    }

    #[test]
    fn append_rejects_out_of_order() {
        let db = Tsdb::new(TsdbConfig::default());
        assert!(db.append("s", 10, 1.0));
        assert!(db.append("s", 10, 2.0)); // equal timestamps allowed
        assert!(!db.append("s", 9, 3.0));
        assert_eq!(db.stats().dropped_out_of_order, 1);
        assert_eq!(db.query_raw("s", 0, 100).len(), 2);
    }

    #[test]
    fn ring_evicts_oldest_blocks() {
        let db = Tsdb::new(TsdbConfig {
            samples_per_block: 10,
            max_blocks_per_series: 3,
        });
        for t in 0..100u64 {
            db.append("s", t, t as f64);
        }
        let stats = db.stats();
        assert_eq!(stats.sealed_blocks, 3);
        assert_eq!(stats.evicted_blocks, 7);
        // t=99 sealed the 10th block, so the ring holds t = 70..99.
        let samples = db.query_raw("s", 0, 1000);
        assert_eq!(samples.first().unwrap().0, 70);
        assert_eq!(samples.last().unwrap().0, 99);
    }

    #[test]
    fn downsample_and_rate() {
        let db = Tsdb::new(TsdbConfig::default());
        for t in 0..60u64 {
            db.append("temps", t, t as f64);
            db.append("requests_total", t, (t * 5) as f64);
        }
        let buckets = db.query_downsampled("temps", 0, 59, 10);
        assert_eq!(buckets.len(), 6);
        assert_eq!(buckets[0].min, 0.0);
        assert_eq!(buckets[0].max, 9.0);
        assert!((buckets[0].mean - 4.5).abs() < 1e-12);
        let rate = db.query_rate("requests_total", 0, 59, 10);
        // 5 per unit, except the first bucket misses the seed sample's delta.
        assert!((rate[1].1 - 5.0).abs() < 1e-12);
        assert!((rate[5].1 - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rate_handles_counter_reset() {
        let db = Tsdb::new(TsdbConfig::default());
        for (t, v) in [(0u64, 10.0), (1, 20.0), (2, 3.0), (3, 8.0)] {
            db.append("c", t, v);
        }
        let rate = db.query_rate("c", 0, 3, 4);
        // 10 (increase) + 3 (post-reset) + 5 (increase) over step 4.
        assert!((rate[0].1 - 18.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn glob_matching() {
        let db = Tsdb::new(TsdbConfig::default());
        for name in ["temp/m1/cpu", "temp/m1/disk", "temp/m2/cpu", "other"] {
            db.append(name, 0, 1.0);
        }
        assert_eq!(db.match_names("temp/*/cpu").len(), 2);
        assert_eq!(db.match_names("temp/*").len(), 3);
        assert_eq!(db.match_names("*").len(), 4);
        assert_eq!(db.match_names("other").len(), 1);
        assert_eq!(db.match_names("missing*thing").len(), 0);
    }

    /// A bounded match keeps exactly the prefix of the full sorted match,
    /// whatever order the series were created in.
    #[test]
    fn a_bounded_match_is_the_prefix_of_the_full_one() {
        let db = Tsdb::new(TsdbConfig::default());
        // 700 matching series created in a scrambled order, plus some
        // that do not match.
        for i in 0..700u64 {
            let m = (i * 337) % 700;
            db.append(&format!("temp/machine{m}/cpu"), 0, 1.0);
            if i % 7 == 0 {
                db.append(&format!("other/{m}"), 0, 1.0);
            }
        }
        let all = db.match_names("temp/*");
        assert_eq!(all.len(), 700);
        let first = |pattern: &str, limit| -> Vec<String> {
            (db.query_matching(pattern, limit, QueryKind::Raw, 0, 0, 1)
                .into_iter())
            .map(|r| r.name)
            .collect()
        };
        for limit in [0, 1, 512, 699, 700, 701] {
            assert_eq!(
                first("temp/*", limit),
                all[..limit.min(all.len())],
                "limit {limit}"
            );
        }
        assert!(first("missing*", 512).is_empty());
    }

    /// A matching query answers what one query per matched name did,
    /// to the byte of the wire text, for every kind.
    #[test]
    fn a_matching_query_is_the_per_name_queries_in_one_pass() {
        let db = Tsdb::new(TsdbConfig {
            samples_per_block: 8,
            max_blocks_per_series: 4,
        });
        for t in 0..50u64 {
            for m in [3, 1, 2] {
                let v = if t == 9 {
                    f64::NAN
                } else {
                    (t * m) as f64 / 7.0
                };
                db.append(&format!("temp/m{m}/cpu"), t, v);
            }
            db.append("requests_total", t, (t % 20) as f64);
        }
        // What the service ran per matched name before.
        let per_name = |name: &String, kind| {
            let points = match kind {
                QueryKind::Raw => (db.query_raw(name, 5, 40).into_iter())
                    .map(|(t, v)| SeriesPoint::flat(t, v))
                    .collect(),
                QueryKind::Rate => (db.query_rate(name, 5, 40, 6).into_iter())
                    .map(|(t, v)| SeriesPoint::flat(t, v))
                    .collect(),
                QueryKind::Downsample => (db.query_downsampled(name, 5, 40, 6).into_iter())
                    .map(|b| SeriesPoint {
                        t: b.t,
                        min: b.min,
                        mean: b.mean,
                        max: b.max,
                    })
                    .collect(),
            };
            SeriesResult {
                name: name.clone(),
                kind,
                points,
            }
        };
        for kind in [QueryKind::Raw, QueryKind::Downsample, QueryKind::Rate] {
            for (pattern, limit) in [("temp/*", 512), ("*", 512), ("*", 2), ("none", 512)] {
                let want: Vec<SeriesResult> = (db.match_names(pattern).iter().take(limit))
                    .map(|name| per_name(name, kind))
                    .collect();
                let got = db.query_matching(pattern, limit, kind, 5, 40, 6);
                assert_eq!(
                    render_results(&got),
                    render_results(&want),
                    "{kind:?} {pattern}"
                );
            }
        }
    }

    /// The backtracking matcher `glob_match` replaced: exponential in
    /// the star count, kept as the oracle.
    fn glob_match_recursive(pattern: &[u8], name: &[u8]) -> bool {
        match pattern.first() {
            None => name.is_empty(),
            Some(b'*') => {
                glob_match_recursive(&pattern[1..], name)
                    || (!name.is_empty() && glob_match_recursive(pattern, &name[1..]))
            }
            Some(c) => name.first() == Some(c) && glob_match_recursive(&pattern[1..], &name[1..]),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2048))]

        #[test]
        fn glob_match_agrees_with_the_backtracking_oracle(
            pattern in "[ab/*]{0,8}",
            name in "[ab/*]{0,10}",
        ) {
            let fast = glob_match(pattern.as_bytes(), name.as_bytes());
            let oracle = glob_match_recursive(pattern.as_bytes(), name.as_bytes());
            proptest::prop_assert!(fast == oracle, "pattern {:?} name {:?}", pattern, name);
        }
    }

    #[test]
    fn many_stars_match_in_linear_passes() {
        let db = Tsdb::new(TsdbConfig::default());
        for i in 0..1_000 {
            db.append(&format!("temp/machine-{i:04}/cpu_utilization_0"), 0, 1.0);
        }
        let pattern = format!("{}x", "*".repeat(64));
        let started = std::time::Instant::now();
        assert!(db.match_names(&pattern).is_empty());
        // The backtracking matcher took over a second at 8 stars on one
        // name; the two-cursor match is microseconds a name.
        assert!(
            started.elapsed() < std::time::Duration::from_secs(2),
            "{:?}",
            started.elapsed()
        );
        assert_eq!(
            db.match_names(&format!("{}cpu*", "*".repeat(64))).len(),
            1_000
        );
    }

    #[test]
    fn handles_bypass_name_lookup() {
        let db = Tsdb::new(TsdbConfig::default());
        let h = db.handle("fast");
        assert!(db.append_handle(h, 1, 2.0));
        assert_eq!(db.latest("fast"), Some((1, 2.0)));
        assert_eq!(db.handle("fast"), h);
    }

    #[test]
    fn wire_text_roundtrips() {
        let db = Tsdb::new(TsdbConfig::default());
        for t in 0..20u64 {
            db.append("temp/m1/cpu", t, 40.0 + t as f64 / 3.0);
        }
        let results: Vec<SeriesResult> = [
            (QueryKind::Raw, 1),
            (QueryKind::Downsample, 5),
            (QueryKind::Rate, 5),
        ]
        .into_iter()
        .flat_map(|(kind, step)| db.query_matching("temp/m1/cpu", 1, kind, 0, 19, step))
        .collect();
        assert_eq!(results.len(), 3);
        let text = render_results(&results);
        let parsed = parse_results(&text).unwrap();
        assert_eq!(parsed, results);
    }

    #[test]
    fn wire_text_carries_non_finite_values() {
        let r = vec![SeriesResult {
            name: "weird".into(),
            kind: QueryKind::Raw,
            points: vec![
                SeriesPoint::flat(1, f64::INFINITY),
                SeriesPoint::flat(2, f64::NEG_INFINITY),
                SeriesPoint::flat(3, f64::NAN),
            ],
        }];
        let parsed = parse_results(&render_results(&r)).unwrap();
        assert_eq!(parsed[0].points[0].mean, f64::INFINITY);
        assert_eq!(parsed[0].points[1].mean, f64::NEG_INFINITY);
        assert!(parsed[0].points[2].mean.is_nan());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_results("name").is_err());
        assert!(parse_results("name nope 1:2").is_err());
        assert!(parse_results("name raw 1:2:3").is_err());
        assert!(parse_results("name ds 1:2").is_err());
        assert!(parse_results("name raw x:2").is_err());
    }
}
