//! `mercury-events-v1`: a compact little-endian binary trace format.
//!
//! CSV traces are convenient but cap replay at what fits in RAM and
//! spend the hot loop parsing text. Following the preprocessing approach
//! of *Caching with Delayed Hits* (everything converted once into a
//! little-endian `.events` stream, then streamed), this module defines a
//! binary on-disk format for fleet utilization traces:
//!
//! ```text
//! header:
//!   magic      8  b"MCEVENT1"           (mercury-events-v1)
//!   version    u32  = 1
//!   interval   f64  tick interval, seconds (bit pattern preserved)
//!   machines   u32  machine count
//!   components u32  component count (columns, shared by all machines)
//!   ticks      u64  total ticks covered by the record stream
//!   machine table:   machines   x (u16 len, UTF-8 bytes)
//!   component table: components x (u16 len, UTF-8 bytes)
//! records (cover exactly `ticks` ticks, then end of file):
//!   0x01 FULL   machines*components u16 cells, machine-major;  1 tick
//!   0x02 DELTA  u32 n (>0), n x (u32 cell, u16 value)
//!               cells strictly increasing;                     1 tick
//!   0x03 HOLD   u32 n (>0): previous cells hold for n more ticks
//! ```
//!
//! Utilizations are quantized to 16-bit fixed point (`round(u * 65535)`),
//! so one decode step never strays more than [`QUANT_BOUND`] from the
//! source fraction, and re-encoding a decoded trace is byte-identical
//! (the quantized grid round-trips exactly through `f64`).
//!
//! The encoder is canonical: the first record is FULL, an unchanged tick
//! extends a HOLD run, and a changed tick is a DELTA when that is
//! strictly smaller than a FULL frame. HOLD runs are what make
//! `ClusterSolver::step_for` fusion opportunities explicit — the replay
//! layer turns each run into one fused multi-tick span.
//!
//! The decoder is strict: bad magic, version, counts, tags, non-canonical
//! deltas, tick-count mismatches, and trailing bytes are all hard errors.

use crate::error::Error;
use crate::trace::UtilizationTrace;
use std::collections::HashSet;
use std::io::Write;

/// File magic, "mercury-events-v1".
pub const MAGIC: [u8; 8] = *b"MCEVENT1";
/// Current format version.
pub const VERSION: u32 = 1;
/// Record tags.
pub(crate) const TAG_FULL: u8 = 0x01;
pub(crate) const TAG_DELTA: u8 = 0x02;
pub(crate) const TAG_HOLD: u8 = 0x03;

/// Largest representable quantized value (`u16::MAX`).
const QUANT_MAX: f64 = 65535.0;
/// Worst-case absolute error of one quantize/dequantize round trip:
/// half a quantization step.
pub const QUANT_BOUND: f64 = 0.5 / QUANT_MAX;

/// Quantizes a utilization fraction in `[0, 1]` to 16-bit fixed point.
pub fn quantize(fraction: f64) -> u16 {
    (fraction.clamp(0.0, 1.0) * QUANT_MAX).round() as u16
}

/// The utilization fraction a quantized cell decodes to.
pub fn dequantize(q: u16) -> f64 {
    f64::from(q) / QUANT_MAX
}

/// Parsed `.events` header: the machine/component tables and trace shape.
#[derive(Debug, Clone, PartialEq)]
pub struct EventsHeader {
    /// Tick interval in seconds (bit pattern preserved end to end).
    pub interval_s: f64,
    /// Machine names, in frame row order.
    pub machines: Vec<String>,
    /// Component names, in frame column order (shared by all machines).
    pub components: Vec<String>,
    /// Total ticks covered by the record stream.
    pub ticks: u64,
}

impl EventsHeader {
    /// Cells per frame (`machines * components`).
    pub fn cells(&self) -> usize {
        self.machines.len() * self.components.len()
    }

    /// Parses a header from the start of `bytes`, returning it together
    /// with the offset of the first record.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for truncated or malformed headers.
    pub fn parse(bytes: &[u8]) -> Result<(EventsHeader, usize), Error> {
        match Self::parse_prefix(bytes)? {
            Some(parsed) => Ok(parsed),
            None => Err(Error::invalid_input(
                "truncated events data: incomplete header",
            )),
        }
    }

    /// Parses a header from a file *prefix*: returns `Ok(None)` when the
    /// prefix is well-formed so far but incomplete (the streaming opener
    /// should read more bytes), an error as soon as the prefix is
    /// provably invalid.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for malformed headers.
    pub(crate) fn parse_prefix(bytes: &[u8]) -> Result<Option<(EventsHeader, usize)>, Error> {
        match Self::parse_inner(bytes) {
            Ok(parsed) => Ok(Some(parsed)),
            Err(ReadFail::Eof) => Ok(None),
            Err(ReadFail::Bad(e)) => Err(e),
        }
    }

    fn parse_inner(bytes: &[u8]) -> Result<(EventsHeader, usize), ReadFail> {
        let mut r = Reader::new(bytes);
        let magic = r.bytes(8)?;
        if magic != MAGIC {
            return Err(ReadFail::bad("not a mercury-events file (bad magic)"));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(ReadFail::bad(format!(
                "unsupported mercury-events version {version} (expected {VERSION})"
            )));
        }
        let interval_s = f64::from_bits(r.u64()?);
        if !interval_s.is_finite() || interval_s <= 0.0 {
            return Err(ReadFail::bad(format!(
                "events interval {interval_s} must be positive"
            )));
        }
        let machines = r.u32()? as usize;
        let components = r.u32()? as usize;
        if machines == 0 || components == 0 {
            return Err(ReadFail::bad(
                "events file declares zero machines or components",
            ));
        }
        // Bound the frame size before multiplying so a hostile header
        // cannot overflow the cell count or provoke huge allocations.
        if machines > 1 << 24 || components > 1 << 16 || machines * components > 1 << 28 {
            return Err(ReadFail::bad(format!(
                "events frame shape {machines}x{components} is implausibly large"
            )));
        }
        let ticks = r.u64()?;
        // A name twice would bind two frame rows (or columns) to one
        // machine (or component); the encoder never writes one.
        let mut names = |count: usize, table: &str| {
            let mut seen = HashSet::with_capacity(count);
            let mut names = Vec::with_capacity(count);
            for _ in 0..count {
                let name = r.name()?;
                if !seen.insert(name.clone()) {
                    return Err(ReadFail::bad(format!(
                        "duplicate {table} name `{name}` in the events header"
                    )));
                }
                names.push(name);
            }
            Ok(names)
        };
        let machine_names = names(machines, "machine")?;
        let component_names = names(components, "component")?;
        Ok((
            EventsHeader {
                interval_s,
                machines: machine_names,
                components: component_names,
                ticks,
            },
            r.pos,
        ))
    }

    fn write<W: Write>(&self, w: &mut W) -> Result<(), Error> {
        w.write_all(&MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&self.interval_s.to_bits().to_le_bytes())?;
        w.write_all(&(self.machines.len() as u32).to_le_bytes())?;
        w.write_all(&(self.components.len() as u32).to_le_bytes())?;
        w.write_all(&self.ticks.to_le_bytes())?;
        for name in self.machines.iter().chain(&self.components) {
            let bytes = name.as_bytes();
            if bytes.len() > usize::from(u16::MAX) {
                return Err(Error::invalid_input(format!(
                    "name `{}...` is too long for the events name table",
                    &name[..32.min(name.len())]
                )));
            }
            w.write_all(&(bytes.len() as u16).to_le_bytes())?;
            w.write_all(bytes)?;
        }
        Ok(())
    }
}

/// What the encoder produced, for logs and compression diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EncodeStats {
    /// Ticks covered.
    pub ticks: u64,
    /// FULL frames written.
    pub full_frames: u64,
    /// DELTA frames written.
    pub delta_frames: u64,
    /// HOLD records written (each covers ≥1 tick).
    pub hold_records: u64,
    /// Ticks covered by HOLD records — each one is a `step_for` fusion
    /// opportunity the replay layer exploits.
    pub held_ticks: u64,
    /// Total bytes written, header included.
    pub bytes: u64,
}

/// Encodes one trace per machine into a `mercury-events-v1` stream.
///
/// All traces must share the tick interval (bit-equal), the component
/// list, and the row count; machine names must be unique. This mirrors
/// the paper's trace-replication usage — a fleet is one measured trace
/// replicated (or several aligned recordings), never a ragged bundle.
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] for ragged or inconsistent trace
/// bundles and propagates writer I/O errors.
pub fn encode<W: Write>(traces: &[UtilizationTrace], w: &mut W) -> Result<EncodeStats, Error> {
    let first = traces
        .first()
        .ok_or_else(|| Error::invalid_input("no traces to encode"))?;
    let components: Vec<String> = first.components().to_vec();
    let mut seen = HashSet::with_capacity(components.len());
    if let Some(twice) = components.iter().find(|c| !seen.insert(c.as_str())) {
        return Err(Error::invalid_input(format!(
            "duplicate component name `{twice}` in trace `{}`",
            first.machine()
        )));
    }
    let ticks = first.len();
    let mut machines = Vec::with_capacity(traces.len());
    let mut seen = HashSet::with_capacity(traces.len());
    for t in traces {
        if t.interval().0.to_bits() != first.interval().0.to_bits() {
            return Err(Error::invalid_input(format!(
                "trace `{}` interval {} differs from `{}` interval {}",
                t.machine(),
                t.interval().0,
                first.machine(),
                first.interval().0
            )));
        }
        if t.components() != &components[..] {
            return Err(Error::invalid_input(format!(
                "trace `{}` has a different component list",
                t.machine()
            )));
        }
        if t.len() != ticks {
            return Err(Error::invalid_input(format!(
                "trace `{}` has {} rows but `{}` has {ticks}",
                t.machine(),
                t.len(),
                first.machine()
            )));
        }
        if !seen.insert(t.machine()) {
            return Err(Error::invalid_input(format!(
                "duplicate machine name `{}` in trace bundle",
                t.machine()
            )));
        }
        machines.push(t.machine().to_string());
    }
    let header = EventsHeader {
        interval_s: first.interval().0,
        machines,
        components,
        ticks: ticks as u64,
    };
    let mut counted = CountingWriter { inner: w, bytes: 0 };
    header.write(&mut counted)?;
    let cells = header.cells();
    let width = header.components.len();
    let mut stats = EncodeStats {
        ticks: ticks as u64,
        bytes: 0,
        ..Default::default()
    };
    let mut cur = vec![0u16; cells];
    let mut next = vec![0u16; cells];
    let mut hold_run = 0u32;
    for tick in 0..ticks {
        let t = crate::units::Seconds(tick as f64 * header.interval_s);
        for (m, trace) in traces.iter().enumerate() {
            let row = trace.at(t).expect("tick < len implies a row");
            for (c, u) in row.iter().enumerate() {
                next[m * width + c] = quantize(u.fraction());
            }
        }
        if tick == 0 {
            write_full(&mut counted, &next)?;
            stats.full_frames += 1;
        } else if next == cur {
            hold_run += 1;
            std::mem::swap(&mut cur, &mut next);
            continue;
        } else {
            flush_hold(&mut counted, &mut hold_run, &mut stats)?;
            let changes = next.iter().zip(&cur).filter(|(a, b)| a != b).count();
            // A DELTA costs 5 + 6*changes bytes against 1 + 2*cells for
            // a FULL frame; pick whichever is strictly smaller.
            if 5 + 6 * changes < 1 + 2 * cells {
                counted.write_all(&[TAG_DELTA])?;
                counted.write_all(&(changes as u32).to_le_bytes())?;
                for (i, (a, _)) in next
                    .iter()
                    .zip(&cur)
                    .enumerate()
                    .filter(|(_, (a, b))| a != b)
                {
                    counted.write_all(&(i as u32).to_le_bytes())?;
                    counted.write_all(&a.to_le_bytes())?;
                }
                stats.delta_frames += 1;
            } else {
                write_full(&mut counted, &next)?;
                stats.full_frames += 1;
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    flush_hold(&mut counted, &mut hold_run, &mut stats)?;
    stats.bytes = counted.bytes;
    Ok(stats)
}

/// [`encode`] into a fresh byte vector.
///
/// # Errors
///
/// As [`encode`].
pub fn encode_to_vec(traces: &[UtilizationTrace]) -> Result<(Vec<u8>, EncodeStats), Error> {
    let mut out = Vec::new();
    let stats = encode(traces, &mut out)?;
    Ok((out, stats))
}

fn write_full<W: Write>(w: &mut W, frame: &[u16]) -> Result<(), Error> {
    w.write_all(&[TAG_FULL])?;
    for q in frame {
        w.write_all(&q.to_le_bytes())?;
    }
    Ok(())
}

fn flush_hold<W: Write>(w: &mut W, run: &mut u32, stats: &mut EncodeStats) -> Result<(), Error> {
    if *run > 0 {
        w.write_all(&[TAG_HOLD])?;
        w.write_all(&run.to_le_bytes())?;
        stats.hold_records += 1;
        stats.held_ticks += u64::from(*run);
        *run = 0;
    }
    Ok(())
}

struct CountingWriter<'a, W: Write> {
    inner: &'a mut W,
    bytes: u64,
}

impl<W: Write> Write for CountingWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// One decoded record: either new cell values now in effect for one
/// tick, or a hold extending the previous values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Record<'a> {
    /// A complete frame payload (`2 * cells` bytes, LE u16 cells).
    Full(&'a [u8]),
    /// A sparse update payload (`6 * n` bytes of `(u32 cell, u16 value)`).
    Delta(&'a [u8]),
    /// The previous frame holds for this many additional ticks.
    Hold(u32),
}

/// Sequential record cursor over an in-memory `.events` record stream
/// (everything after the header) — the walker shared by the one-shot
/// [`decode`] path and the memory-mapped replay stream.
pub(crate) struct RecordCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    cells: usize,
    first: bool,
}

impl<'a> RecordCursor<'a> {
    pub(crate) fn new(records: &'a [u8], cells: usize) -> Self {
        Self::resume(records, cells, 0, true)
    }

    /// Rebuilds a cursor mid-stream — how the memory-mapped replay
    /// stream resumes from a saved byte offset without holding a
    /// self-referential borrow.
    pub(crate) fn resume(records: &'a [u8], cells: usize, pos: usize, first: bool) -> Self {
        RecordCursor {
            bytes: records,
            pos,
            cells,
            first,
        }
    }

    /// Byte offset of the next unread record, relative to the record
    /// stream start.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Un-reads back to a previously observed position (peek support).
    pub(crate) fn rewind_to(&mut self, pos: usize) {
        debug_assert!(pos <= self.pos);
        self.pos = pos;
    }

    /// Decodes the next record, or `None` at a clean end of stream.
    pub(crate) fn next(&mut self) -> Result<Option<Record<'a>>, Error> {
        if self.pos == self.bytes.len() {
            return Ok(None);
        }
        let truncated = |what: &str| Error::invalid_input(format!("truncated events data: {what}"));
        let mut r = Reader {
            bytes: self.bytes,
            pos: self.pos,
        };
        let tag = r.bytes(1).map_err(|_| truncated("record tag"))?[0];
        let record = match tag {
            TAG_FULL => Record::Full(
                r.bytes(2 * self.cells)
                    .map_err(|_| truncated("full frame"))?,
            ),
            TAG_DELTA => {
                if self.first {
                    return Err(Error::invalid_input(
                        "events stream must start with a FULL frame",
                    ));
                }
                let n = r.u32().map_err(|_| truncated("delta count"))? as usize;
                if n == 0 {
                    return Err(Error::invalid_input("empty DELTA record"));
                }
                Record::Delta(r.bytes(6 * n).map_err(|_| truncated("delta payload"))?)
            }
            TAG_HOLD => {
                if self.first {
                    return Err(Error::invalid_input(
                        "events stream must start with a FULL frame",
                    ));
                }
                let n = r.u32().map_err(|_| truncated("hold count"))?;
                if n == 0 {
                    return Err(Error::invalid_input("empty HOLD record"));
                }
                Record::Hold(n)
            }
            other => {
                return Err(Error::invalid_input(format!(
                    "unknown events record tag {other:#04x} at byte {}",
                    self.pos
                )))
            }
        };
        self.first = false;
        self.pos = r.pos;
        Ok(Some(record))
    }
}

/// Applies a FULL payload to the current frame.
pub(crate) fn apply_full(payload: &[u8], cur: &mut [u16]) -> Result<(), Error> {
    if payload.len() != 2 * cur.len() {
        return Err(Error::invalid_input("full frame payload length mismatch"));
    }
    for (cell, chunk) in cur.iter_mut().zip(payload.chunks_exact(2)) {
        *cell = u16::from_le_bytes([chunk[0], chunk[1]]);
    }
    Ok(())
}

/// Applies a DELTA payload to the current frame, enforcing the canonical
/// strictly-increasing cell order and cell bounds.
pub(crate) fn apply_delta(payload: &[u8], cur: &mut [u16]) -> Result<(), Error> {
    let mut last: Option<usize> = None;
    for entry in payload.chunks_exact(6) {
        let cell = u32::from_le_bytes([entry[0], entry[1], entry[2], entry[3]]) as usize;
        let value = u16::from_le_bytes([entry[4], entry[5]]);
        if cell >= cur.len() {
            return Err(Error::invalid_input(format!(
                "delta cell {cell} out of range (frame has {} cells)",
                cur.len()
            )));
        }
        if last.is_some_and(|l| cell <= l) {
            return Err(Error::invalid_input(
                "delta cells are not strictly increasing",
            ));
        }
        last = Some(cell);
        cur[cell] = value;
    }
    Ok(())
}

/// Decodes a complete in-memory `.events` image back into one
/// [`UtilizationTrace`] per machine — the `mercury-traceconv decode`
/// direction. Strictly validating: every malformation is an error.
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] for any header or record defect,
/// including a tick-count mismatch or trailing bytes.
pub fn decode(bytes: &[u8]) -> Result<Vec<UtilizationTrace>, Error> {
    let (header, offset) = EventsHeader::parse(bytes)?;
    let cells = header.cells();
    let width = header.components.len();
    let mut cursor = RecordCursor::new(&bytes[offset..], cells);
    let mut cur = vec![0u16; cells];
    let mut traces: Vec<UtilizationTrace> = header
        .machines
        .iter()
        .map(|m| UtilizationTrace::new(m.clone(), header.interval_s, header.components.clone()))
        .collect::<Result<_, _>>()?;
    let mut ticks = 0u64;
    let mut row = vec![0.0f64; width];
    let push_current =
        |traces: &mut Vec<UtilizationTrace>, cur: &[u16], row: &mut [f64]| -> Result<(), Error> {
            for (m, trace) in traces.iter_mut().enumerate() {
                for (c, v) in row.iter_mut().enumerate() {
                    *v = dequantize(cur[m * width + c]);
                }
                trace.push_row(row)?;
            }
            Ok(())
        };
    while let Some(record) = cursor.next()? {
        match record {
            Record::Full(payload) => {
                apply_full(payload, &mut cur)?;
                push_current(&mut traces, &cur, &mut row)?;
                ticks += 1;
            }
            Record::Delta(payload) => {
                apply_delta(payload, &mut cur)?;
                push_current(&mut traces, &cur, &mut row)?;
                ticks += 1;
            }
            Record::Hold(n) => {
                for _ in 0..n {
                    push_current(&mut traces, &cur, &mut row)?;
                }
                ticks += u64::from(n);
            }
        }
        if ticks > header.ticks {
            return Err(Error::invalid_input(format!(
                "events records cover {ticks}+ ticks but the header declares {}",
                header.ticks
            )));
        }
    }
    if ticks != header.ticks {
        return Err(Error::invalid_input(format!(
            "events records cover {ticks} ticks but the header declares {}",
            header.ticks
        )));
    }
    Ok(traces)
}

/// How a bounded read can fail: the slice ran out (which a prefix
/// parser treats as "need more bytes" and a record parser treats as
/// truncation), or the data is provably invalid.
enum ReadFail {
    Eof,
    Bad(Error),
}

impl ReadFail {
    fn bad(reason: impl Into<String>) -> Self {
        ReadFail::Bad(Error::invalid_input(reason))
    }
}

/// Bounds-checked little-endian primitive reader over a byte slice.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ReadFail> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(ReadFail::Eof),
        }
    }

    fn u32(&mut self) -> Result<u32, ReadFail> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ReadFail> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn name(&mut self) -> Result<String, ReadFail> {
        let len = usize::from(u16::from_le_bytes({
            let b = self.bytes(2)?;
            [b[0], b[1]]
        }));
        let raw = self.bytes(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| ReadFail::bad("table name is not UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(machine: &str, rows: usize) -> UtilizationTrace {
        UtilizationTrace::from_fn(
            machine,
            1.0,
            vec!["cpu".into(), "disk".into()],
            rows,
            |t, c| {
                if c == 0 {
                    if (t as usize / 10).is_multiple_of(2) {
                        0.9
                    } else {
                        0.1
                    }
                } else {
                    0.25
                }
            },
        )
        .unwrap()
    }

    #[test]
    fn quantization_bound_holds_on_the_grid() {
        for q in [0u16, 1, 7, 32768, 65534, 65535] {
            assert_eq!(quantize(dequantize(q)), q);
        }
        for u in [0.0, 0.123456, 0.5, 0.999999, 1.0] {
            assert!((dequantize(quantize(u)) - u).abs() <= QUANT_BOUND);
        }
    }

    #[test]
    fn encode_decode_round_trips_canonically() {
        let traces = vec![trace("m1", 50), trace("m1", 50).replicate_for("m2")];
        let (bytes, stats) = encode_to_vec(&traces).unwrap();
        assert_eq!(stats.ticks, 50);
        assert!(stats.held_ticks > 0, "staircase trace should RLE-compress");
        let back = decode(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].machine(), "m1");
        assert_eq!(back[1].machine(), "m2");
        let (bytes2, _) = encode_to_vec(&back).unwrap();
        assert_eq!(
            bytes, bytes2,
            "re-encode of a decode must be byte-identical"
        );
    }

    #[test]
    fn encoder_rejects_ragged_bundles() {
        assert!(encode_to_vec(&[]).is_err());
        let a = trace("m1", 10);
        let mut bad_len = vec![a.clone(), trace("m2", 11)];
        assert!(encode_to_vec(&bad_len).is_err());
        bad_len.pop();
        bad_len.push(a.replicate_for("m1"));
        assert!(encode_to_vec(&bad_len).is_err(), "duplicate machine name");
        let twice =
            UtilizationTrace::from_fn("m1", 1.0, vec!["cpu".into(), "cpu".into()], 10, |_, _| 0.5)
                .unwrap();
        assert!(encode_to_vec(&[twice]).is_err(), "duplicate component name");
        let other_components =
            UtilizationTrace::from_fn("m2", 1.0, vec!["gpu".into()], 10, |_, _| 0.5).unwrap();
        assert!(encode_to_vec(&[a.clone(), other_components]).is_err());
        let other_interval =
            UtilizationTrace::from_fn("m2", 2.0, vec!["cpu".into(), "disk".into()], 10, |_, _| 0.5)
                .unwrap();
        assert!(encode_to_vec(&[a, other_interval]).is_err());
    }

    #[test]
    fn decoder_rejects_corruption() {
        let (bytes, _) = encode_to_vec(&[trace("m1", 30)]).unwrap();
        // Truncation anywhere in the file must fail, not wrap around.
        for cut in [0, 4, 8, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "truncated at {cut}");
        }
        // Bad magic and version.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(decode(&bad).is_err());
        let mut bad = bytes.clone();
        bad[8] = 99;
        assert!(decode(&bad).is_err());
        // Trailing garbage.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(decode(&bad).is_err());
        // Tick-count mismatch.
        let mut bad = bytes.clone();
        bad[24] ^= 0x01; // low byte of the u64 tick count
        assert!(decode(&bad).is_err());
    }

    #[test]
    fn empty_trace_encodes_to_header_only() {
        let t = UtilizationTrace::new("m", 1.0, vec!["cpu".into()]).unwrap();
        let (bytes, stats) = encode_to_vec(&[t]).unwrap();
        assert_eq!(stats.ticks, 0);
        let back = decode(&bytes).unwrap();
        assert!(back[0].is_empty());
    }
}
