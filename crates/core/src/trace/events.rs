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

use crate::codec::{Reader, Writer};
use crate::error::Error;
use crate::trace::UtilizationTrace;
use crate::units::{Seconds, Utilization};
use std::collections::HashSet;
use std::io::{BufRead, Write};
use std::sync::Arc;

/// File magic, "mercury-events-v1".
pub const MAGIC: [u8; 8] = *b"MCEVENT1";
/// Current format version.
pub const VERSION: u32 = 1;
/// Record tags.
const TAG_FULL: u8 = 0x01;
const TAG_DELTA: u8 = 0x02;
const TAG_HOLD: u8 = 0x03;

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
        let mut r = Reader::input(bytes, "events data");
        let header = Self::read(&mut r)?;
        Ok((header, r.position() as usize))
    }

    /// Reads a header from the start of an `.events` stream.
    pub(crate) fn read<R: BufRead>(r: &mut Reader<R>) -> Result<EventsHeader, Error> {
        if r.array::<8>("magic")? != MAGIC {
            return Err(r.invalid("magic", "not a mercury-events file"));
        }
        let version = r.u32("version")?;
        if version != VERSION {
            return Err(r.invalid(
                "version",
                format_args!("unsupported mercury-events version {version} (expected {VERSION})"),
            ));
        }
        let interval_s = r.f64("interval")?;
        if !interval_s.is_finite() || interval_s <= 0.0 {
            return Err(r.invalid("interval", format_args!("{interval_s} must be positive")));
        }
        // Bound the frame before multiplying so a hostile header cannot
        // overflow the cell count or provoke huge allocations.
        let machines = r.count("machine count", 1 << 24)?;
        let components = r.count("component count", 1 << 16)?;
        if machines == 0 || components == 0 {
            return Err(r.invalid("shape", "zero machines or components"));
        }
        if machines * components > 1 << 28 {
            return Err(r.invalid(
                "shape",
                format_args!("frame {machines}x{components} is implausibly large"),
            ));
        }
        let ticks = r.u64("tick count")?;
        // A name twice would bind two frame rows (or columns) to one
        // machine (or component); the encoder never writes one. The
        // tables grow with the names actually read, not with the counts,
        // and the duplicate check borrows the names the table owns. It
        // reports the first name seen before, at the offset just past it.
        let mut names = |count: usize, table: &str| {
            let mut end = r.position();
            let mut names = Vec::new();
            for _ in 0..count {
                names.push(r.str_u16("name")?);
            }
            let mut seen = HashSet::with_capacity(names.len());
            for name in &names {
                end += 2 + name.len() as u64;
                if !seen.insert(name.as_str()) {
                    return Err(r.invalid_at(
                        end,
                        "name",
                        format_args!("duplicate {table} name `{name}` in the events header"),
                    ));
                }
            }
            drop(seen);
            Ok(names)
        };
        let machines = names(machines, "machine")?;
        let components = names(components, "component")?;
        Ok(EventsHeader {
            interval_s,
            machines,
            components,
            ticks,
        })
    }

    fn write(&self, w: &mut Writer) -> Result<(), Error> {
        w.bytes(&MAGIC);
        w.u32(VERSION);
        w.f64(self.interval_s);
        w.u32(self.machines.len() as u32);
        w.u32(self.components.len() as u32);
        w.u64(self.ticks);
        for name in self.machines.iter().chain(&self.components) {
            if name.len() > usize::from(u16::MAX) {
                return Err(Error::invalid_input(format!(
                    "name `{}...` is too long for the events name table",
                    crate::codec::prefix(name, 32)
                )));
            }
            w.str_u16(name);
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
    let cells = header.cells();
    let width = header.components.len();
    // Each record is built in `rec` and written whole.
    let mut rec = Writer::with_capacity(1 + 2 * cells);
    header.write(&mut rec)?;
    let mut stats = EncodeStats {
        ticks: ticks as u64,
        ..Default::default()
    };
    let mut emit = |rec: &mut Writer, stats: &mut EncodeStats| -> Result<(), Error> {
        w.write_all(rec.as_bytes())?;
        stats.bytes += rec.as_bytes().len() as u64;
        rec.clear();
        Ok(())
    };
    emit(&mut rec, &mut stats)?;
    let mut cur = vec![0u16; cells];
    let mut next = vec![0u16; cells];
    let mut hold_run = 0u32;
    for tick in 0..ticks {
        let t = Seconds(tick as f64 * header.interval_s);
        for (m, trace) in traces.iter().enumerate() {
            let row = trace.at(t).expect("tick < len implies a row");
            for (c, u) in row.iter().enumerate() {
                next[m * width + c] = quantize(u.fraction());
            }
        }
        if tick == 0 {
            write_full(&mut rec, &next);
            stats.full_frames += 1;
        } else if next == cur {
            hold_run += 1;
            std::mem::swap(&mut cur, &mut next);
            continue;
        } else {
            flush_hold(&mut rec, &mut hold_run, &mut stats);
            let changes = next.iter().zip(&cur).filter(|(a, b)| a != b).count();
            // A DELTA costs 5 + 6*changes bytes against 1 + 2*cells for
            // a FULL frame; pick whichever is strictly smaller.
            if 5 + 6 * changes < 1 + 2 * cells {
                rec.u8(TAG_DELTA);
                rec.u32(changes as u32);
                for (i, (a, _)) in next
                    .iter()
                    .zip(&cur)
                    .enumerate()
                    .filter(|(_, (a, b))| a != b)
                {
                    rec.u32(i as u32);
                    rec.u16(*a);
                }
                stats.delta_frames += 1;
            } else {
                write_full(&mut rec, &next);
                stats.full_frames += 1;
            }
        }
        emit(&mut rec, &mut stats)?;
        std::mem::swap(&mut cur, &mut next);
    }
    flush_hold(&mut rec, &mut hold_run, &mut stats);
    emit(&mut rec, &mut stats)?;
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

fn write_full(w: &mut Writer, frame: &[u16]) {
    w.u8(TAG_FULL);
    for q in frame {
        w.u16(*q);
    }
}

fn flush_hold(w: &mut Writer, run: &mut u32, stats: &mut EncodeStats) {
    if *run > 0 {
        w.u8(TAG_HOLD);
        w.u32(*run);
        stats.hold_records += 1;
        stats.held_ticks += u64::from(*run);
        *run = 0;
    }
}

/// One input-stable span of a record stream: the ticks it covers, and
/// whether a FULL or DELTA record opened it (a frame decoded) or a HOLD
/// did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) ticks: u64,
    pub(crate) frames: u64,
}

/// The one `.events` record decoder, shared by [`decode`] and the replay
/// stream. It reads the stream a span at a time — a FULL or DELTA record
/// and every HOLD right after it — into a frame, holding the stream to
/// its rules: the first record is FULL, DELTA cells are in range and
/// strictly increasing, DELTA and HOLD counts are non-zero, and the
/// records cover exactly the ticks the header declares.
#[derive(Debug)]
pub(crate) struct Records<R> {
    r: Reader<R>,
    /// Cells per frame.
    cells: usize,
    /// Ticks the header declares.
    declared: u64,
    /// Ticks covered by the spans decoded so far.
    ticks: u64,
    /// A record after a span that failed to decode while the span was
    /// being extended: returned by the next call, so every tick before
    /// it is delivered first.
    deferred: Option<Error>,
}

impl<R: BufRead> Records<R> {
    /// The records after `header`, which `r` has just read.
    pub(crate) fn new(r: Reader<R>, header: &EventsHeader) -> Self {
        Records {
            r,
            cells: header.cells(),
            declared: header.ticks,
            ticks: 0,
            deferred: None,
        }
    }

    /// Ticks covered by the spans decoded so far.
    pub(crate) fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Decodes the next span, leaving the values it holds in `frame`
    /// (`cells` long). Returns `None` at a clean end of the stream.
    pub(crate) fn next_span(&mut self, frame: &mut [u16]) -> Result<Option<Span>, Error> {
        if let Some(e) = self.deferred.take() {
            return Err(e);
        }
        let Some(tag) = self.r.peek_u8()? else {
            if self.ticks != self.declared {
                return Err(self.r.invalid(
                    "end",
                    format_args!(
                        "records cover {} ticks but the header declares {}",
                        self.ticks, self.declared
                    ),
                ));
            }
            return Ok(None);
        };
        let (mut ticks, frames) = match tag {
            TAG_FULL => {
                self.r.u8("record tag")?;
                self.r.u16s("full frame", frame)?;
                (1, 1)
            }
            TAG_DELTA | TAG_HOLD if self.ticks == 0 => {
                return Err(self
                    .r
                    .invalid("record tag", "events stream must start with a FULL frame"));
            }
            TAG_DELTA => {
                self.r.u8("record tag")?;
                self.delta(frame)?;
                (1, 1)
            }
            // Non-canonical but well-formed: a HOLD not merged with its
            // predecessor is its own unchanged-values span.
            TAG_HOLD => (self.hold()?, 0),
            other => {
                return Err(self.r.invalid(
                    "record tag",
                    format_args!("unknown events record tag {other:#04x}"),
                ));
            }
        };
        while self.r.peek_u8()? == Some(TAG_HOLD) {
            match self.hold() {
                Ok(n) => ticks += n,
                Err(e) => {
                    self.deferred = Some(e);
                    break;
                }
            }
        }
        self.ticks += ticks;
        if self.ticks > self.declared {
            return Err(self.r.invalid(
                "record",
                format_args!(
                    "records cover {}+ ticks but the header declares {}",
                    self.ticks, self.declared
                ),
            ));
        }
        Ok(Some(Span { ticks, frames }))
    }

    fn hold(&mut self) -> Result<u64, Error> {
        self.r.u8("record tag")?;
        match self.r.u32("hold count")? {
            0 => Err(self.r.invalid("hold count", "empty HOLD record")),
            n => Ok(u64::from(n)),
        }
    }

    fn delta(&mut self, frame: &mut [u16]) -> Result<(), Error> {
        // Strictly increasing in-range cells number at most `cells`: a
        // larger count is rejected before a byte of its payload is read.
        let n = self.r.count("delta count", self.cells)?;
        if n == 0 {
            return Err(self.r.invalid("delta count", "empty DELTA record"));
        }
        // The lowest cell the next entry may name.
        let mut next = 0;
        for _ in 0..n {
            let cell = self.r.u32("delta cell")? as usize;
            let value = self.r.u16("delta value")?;
            if cell >= self.cells {
                return Err(self.r.invalid(
                    "delta cell",
                    format_args!("cell {cell} out of range (frame has {} cells)", self.cells),
                ));
            }
            if cell < next {
                return Err(self
                    .r
                    .invalid("delta cell", "delta cells are not strictly increasing"));
            }
            frame[cell] = value;
            next = cell + 1;
        }
        Ok(())
    }
}

/// Decodes a complete in-memory `.events` image back into one
/// [`UtilizationTrace`] per machine — the `mercury-traceconv decode`
/// direction. Strictly validating: every malformation is an error.
///
/// By design this materializes every tick of every cell (`ticks ×
/// machines × components` values, each trace one buffer reserved up
/// front at the size the header declares), so its memory is what the
/// header says, not what the file holds: a few bytes of HOLD records
/// can declare years of ticks. A header whose total overflows the
/// address space is refused, and so is a reservation the allocator
/// refuses; but under overcommit the allocator grants far more than
/// the host can back, and such a file is then filled until the process
/// is killed. For input that is not trusted use
/// [`crate::trace::stream::EventsStream`], which replays in a frame's
/// memory whatever the trace's length.
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] for any header or record defect,
/// including a tick-count mismatch or trailing bytes, when the values
/// the header declares exceed `isize::MAX` bytes in all, and when the
/// allocator refuses a trace's buffer.
pub fn decode(bytes: &[u8]) -> Result<Vec<UtilizationTrace>, Error> {
    let mut r = Reader::input(bytes, "events data");
    let header = EventsHeader::read(&mut r)?;
    let cells = header.cells();
    let mut records = Records::new(r, &header);
    let EventsHeader {
        interval_s,
        machines,
        components,
        ticks,
    } = header;
    let width = components.len();
    let count = machines.len();
    let shape = || format!("{ticks} ticks of {count} machines x {width} components");
    // Values per trace, provided all the traces' bytes fit the address
    // space.
    let values = usize::try_from(ticks)
        .ok()
        .and_then(|ticks| ticks.checked_mul(width))
        .filter(|&n| {
            n.checked_mul(count)
                .and_then(|n| n.checked_mul(std::mem::size_of::<Utilization>()))
                .is_some_and(|bytes| isize::try_from(bytes).is_ok())
        })
        .ok_or_else(|| {
            Error::invalid_input(format!("events data: {} exceed the address space", shape()))
        })?;
    let components: Arc<[String]> = components.into();
    let mut traces = Vec::with_capacity(count);
    for machine in machines {
        let mut trace = UtilizationTrace::with_components(
            machine,
            Seconds(interval_s),
            Arc::clone(&components),
        );
        if Arc::make_mut(&mut trace.samples)
            .try_reserve_exact(values)
            .is_err()
        {
            return Err(Error::invalid_input(format!(
                "events data: {} cannot be allocated",
                shape()
            )));
        }
        traces.push(trace);
    }
    let mut frame = vec![0u16; cells];
    while let Some(span) = records.next_span(&mut frame)? {
        for (trace, cells) in traces.iter_mut().zip(frame.chunks_exact(width)) {
            // Within the reservation: the records cover no more ticks
            // than the header declares.
            let samples = Arc::make_mut(&mut trace.samples);
            let start = samples.len();
            samples.extend(cells.iter().map(|&q| Utilization::new(dequantize(q))));
            for _ in 1..span.ticks {
                samples.extend_from_within(start..start + width);
            }
        }
    }
    Ok(traces)
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
    fn decoder_names_a_duplicate_name_where_it_ends() {
        let traces = [trace("m1", 5), trace("m1", 5).replicate_for("m2")];
        let (mut bytes, _) = encode_to_vec(&traces).unwrap();
        // The names follow the tick count, each a u16 length and its
        // bytes: `m1` then `m2`, whose last byte becomes `1`.
        let second_end = TICKS_AT + 8 + 2 * (2 + 2);
        assert_eq!(&bytes[second_end - 2..second_end], b"m2");
        bytes[second_end - 1] = b'1';
        let err = decode(&bytes).unwrap_err().to_string();
        assert!(
            err.contains(&format!(
                "name at byte {second_end}: duplicate machine name `m1`"
            )),
            "{err}"
        );
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
        // Component-count mismatch: 2 -> 3 reads a name that is not
        // there.
        let mut bad = bytes.clone();
        bad[COMPONENTS_AT] ^= 0x01; // low byte of the u32 component count
        assert!(decode(&bad).is_err());
        // Tick-count mismatch.
        let mut bad = bytes.clone();
        bad[TICKS_AT] ^= 0x01; // low byte of the u64 tick count
        assert!(decode(&bad).is_err());
    }

    /// Offset of the header's `u32` component count: magic, version,
    /// interval and machine count come first.
    const COMPONENTS_AT: usize = 8 + 4 + 8 + 4;
    /// Offset of the header's `u64` tick count, after the component
    /// count.
    const TICKS_AT: usize = COMPONENTS_AT + 4;

    #[test]
    fn decode_refuses_a_tick_count_it_cannot_hold() {
        // A 2^62-tick header over one FULL frame and HOLDs of u32::MAX
        // ticks: the buffers it declares are refused before a record is
        // read, not filled until the process runs out of memory.
        let (mut bytes, _) = encode_to_vec(&[trace("m1", 1)]).unwrap();
        bytes[TICKS_AT..TICKS_AT + 8].copy_from_slice(&(1u64 << 62).to_le_bytes());
        for _ in 0..4 {
            bytes.push(TAG_HOLD);
            bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        }
        let err = decode(&bytes).unwrap_err();
        assert!(
            matches!(&err, Error::InvalidInput { reason } if reason.contains("address space")),
            "{err}"
        );
    }

    #[test]
    fn decode_counts_every_machine_against_the_address_space() {
        // 2^53 ticks x 2 components is 2^57 bytes a trace, which fits
        // `isize`; 1024 such traces do not. The total is refused before
        // any trace's buffer is asked of the allocator.
        let traces: Vec<_> = (0..1024).map(|m| trace(&format!("m{m}"), 1)).collect();
        let (mut bytes, _) = encode_to_vec(&traces).unwrap();
        bytes[TICKS_AT..TICKS_AT + 8].copy_from_slice(&(1u64 << 53).to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(
            matches!(&err, Error::InvalidInput { reason } if reason.contains("address space")),
            "{err}"
        );
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
