//! The one little-endian byte codec behind every binary format in the
//! crate: the UDP protocol (`net::proto`), `.events` traces
//! (`trace::events`, `trace::stream`) and `mercury-ckpt-v1` blobs
//! (`trace::checkpoint`).
//!
//! [`Reader`] is strict. Every read is bounds-checked; a length or count
//! read from the input never sizes an allocation by itself (strings grow
//! as their bytes arrive, counts are capped by the caller before use);
//! and [`Reader::finish`] rejects trailing bytes. It reads any
//! [`BufRead`] — a datagram or blob as `&[u8]`, a trace file as a
//! `BufReader<File>` — so each format has one decoder whatever holds its
//! bytes. Every error names the document, the field and the byte offset,
//! and has the caller's kind: [`Error::Protocol`] for datagrams,
//! [`Error::InvalidInput`] for files and blobs. [`Writer`] is the mirror.

use crate::error::Error;
use std::fmt::Display;
use std::io::{BufRead, ErrorKind, Read};

/// Strict little-endian reader over a [`BufRead`].
pub(crate) struct Reader<R> {
    inner: R,
    /// Bytes consumed so far: the offset errors report.
    pos: u64,
    /// What is being decoded, for error messages ("checkpoint", ...).
    doc: &'static str,
    /// The caller's error kind.
    kind: fn(String) -> Error,
}

impl<R> std::fmt::Debug for Reader<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reader")
            .field("doc", &self.doc)
            .field("pos", &self.pos)
            .finish()
    }
}

impl<R: BufRead> Reader<R> {
    /// A reader whose errors are [`Error::Protocol`].
    pub(crate) fn protocol(inner: R, doc: &'static str) -> Self {
        Reader {
            inner,
            pos: 0,
            doc,
            kind: |reason| Error::Protocol { reason },
        }
    }

    /// A reader whose errors are [`Error::InvalidInput`].
    pub(crate) fn input(inner: R, doc: &'static str) -> Self {
        Reader {
            inner,
            pos: 0,
            doc,
            kind: |reason| Error::InvalidInput { reason },
        }
    }

    /// Bytes consumed so far.
    pub(crate) fn position(&self) -> u64 {
        self.pos
    }

    /// An error of this reader's kind about `field`, at the reader's
    /// offset (just past the field it names, when it was read).
    pub(crate) fn invalid(&self, field: &str, reason: impl Display) -> Error {
        self.invalid_at(self.pos, field, reason)
    }

    /// An error of this reader's kind about `field`, at offset `at`.
    pub(crate) fn invalid_at(&self, at: u64, field: &str, reason: impl Display) -> Error {
        (self.kind)(format!("{}: {field} at byte {at}: {reason}", self.doc))
    }

    fn truncated(&self, field: &str) -> Error {
        (self.kind)(format!(
            "truncated {}: {field} at byte {}",
            self.doc, self.pos
        ))
    }

    /// Fills `out` from the input.
    fn fill(&mut self, field: &str, out: &mut [u8]) -> Result<(), Error> {
        match self.inner.read_exact(out) {
            Ok(()) => {
                self.pos += out.len() as u64;
                Ok(())
            }
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => Err(self.truncated(field)),
            Err(e) => Err(Error::Io(e)),
        }
    }

    /// The next `N` bytes.
    pub(crate) fn array<const N: usize>(&mut self, field: &str) -> Result<[u8; N], Error> {
        let mut out = [0u8; N];
        self.fill(field, &mut out)?;
        Ok(out)
    }

    /// The next `n` bytes. The vector is sized by bytes already in hand,
    /// or grows as they arrive, so `n` cannot allocate beyond the input
    /// actually there.
    pub(crate) fn bytes(&mut self, field: &str, n: usize) -> Result<Vec<u8>, Error> {
        let buf = self.inner.fill_buf().map_err(Error::Io)?;
        let out = if buf.len() >= n {
            let out = buf[..n].to_vec();
            self.inner.consume(n);
            out
        } else {
            let mut out = Vec::new();
            let got = (&mut self.inner)
                .take(n as u64)
                .read_to_end(&mut out)
                .map_err(Error::Io)?;
            if got < n {
                return Err(self.truncated(field));
            }
            out
        };
        self.pos += n as u64;
        Ok(out)
    }

    pub(crate) fn u8(&mut self, field: &str) -> Result<u8, Error> {
        Ok(self.array::<1>(field)?[0])
    }

    pub(crate) fn u16(&mut self, field: &str) -> Result<u16, Error> {
        self.array(field).map(u16::from_le_bytes)
    }

    pub(crate) fn u32(&mut self, field: &str) -> Result<u32, Error> {
        self.array(field).map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self, field: &str) -> Result<u64, Error> {
        self.array(field).map(u64::from_le_bytes)
    }

    /// An `f32` with its bit pattern preserved.
    pub(crate) fn f32(&mut self, field: &str) -> Result<f32, Error> {
        self.u32(field).map(f32::from_bits)
    }

    /// An `f64` with its bit pattern preserved (NaN payloads and signed
    /// zeros included).
    pub(crate) fn f64(&mut self, field: &str) -> Result<f64, Error> {
        self.u64(field).map(f64::from_bits)
    }

    /// A `u8`-length-prefixed UTF-8 string.
    pub(crate) fn str_u8(&mut self, field: &str) -> Result<String, Error> {
        let len = self.u8(field)?;
        self.utf8(field, usize::from(len))
    }

    /// A `u16`-length-prefixed UTF-8 string.
    pub(crate) fn str_u16(&mut self, field: &str) -> Result<String, Error> {
        let len = self.u16(field)?;
        self.utf8(field, usize::from(len))
    }

    fn utf8(&mut self, field: &str, len: usize) -> Result<String, Error> {
        let at = self.pos;
        let raw = self.bytes(field, len)?;
        String::from_utf8(raw).map_err(|_| self.invalid_at(at, field, "not UTF-8"))
    }

    /// A `u32` count, rejected above `max` before anything is sized or
    /// read by it.
    pub(crate) fn count(&mut self, field: &str, max: usize) -> Result<usize, Error> {
        let at = self.pos;
        let n = self.u32(field)? as usize;
        if n > max {
            return Err(self.invalid_at(at, field, format_args!("count {n} exceeds {max}")));
        }
        Ok(n)
    }

    /// Fills `out` with little-endian `u16`s straight from the input's
    /// buffer: no scratch copy, so a frame-sized read allocates nothing.
    pub(crate) fn u16s(&mut self, field: &str, out: &mut [u16]) -> Result<(), Error> {
        let mut filled = 0;
        while filled < out.len() {
            let buf = self.inner.fill_buf().map_err(Error::Io)?;
            let take = (buf.len() / 2).min(out.len() - filled);
            if take == 0 {
                // Fewer than two bytes buffered: a value straddles the
                // buffer's end, or the input ends here.
                out[filled] = self.u16(field)?;
                filled += 1;
                continue;
            }
            for (v, b) in out[filled..filled + take]
                .iter_mut()
                .zip(buf.chunks_exact(2))
            {
                *v = u16::from_le_bytes([b[0], b[1]]);
            }
            self.inner.consume(2 * take);
            self.pos += 2 * take as u64;
            filled += take;
        }
        Ok(())
    }

    /// The next byte without consuming it, or `None` at the end of the
    /// input.
    pub(crate) fn peek_u8(&mut self) -> Result<Option<u8>, Error> {
        Ok(self.inner.fill_buf().map_err(Error::Io)?.first().copied())
    }

    /// Ends the decode: anything left in the input is an error.
    pub(crate) fn finish(mut self) -> Result<(), Error> {
        match self.peek_u8()? {
            None => Ok(()),
            Some(_) => Err(self.invalid("end", "trailing bytes")),
        }
    }
}

/// Where a [`Writer`]'s bytes go: kept in a `Vec`, or only counted
/// ([`Count`]).
pub(crate) trait Sink {
    fn put(&mut self, b: &[u8]);
    /// Bytes put so far.
    fn len(&self) -> usize;
}

impl Sink for Vec<u8> {
    fn put(&mut self, b: &[u8]) {
        self.extend_from_slice(b);
    }

    fn len(&self) -> usize {
        Vec::len(self)
    }
}

/// A length-only sink: it keeps no bytes and counts what it is given.
#[derive(Debug, Default)]
pub(crate) struct Count(usize);

impl Sink for Count {
    fn put(&mut self, b: &[u8]) {
        self.0 += b.len();
    }

    fn len(&self) -> usize {
        self.0
    }
}

/// Little-endian writer, the mirror of [`Reader`].
///
/// A length-only writer ([`Writer::counter`]) writes into a [`Count`],
/// so a format's one layout routine, generic over the sink and run on a
/// counter and then on a writer, sizes its output exactly: see
/// [`exact`]. The count pass compiles to length arithmetic.
#[derive(Debug, Default)]
pub(crate) struct Writer<S = Vec<u8>> {
    out: S,
}

impl Writer {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Writer {
            out: Vec::with_capacity(capacity),
        }
    }

    /// The bytes written so far.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.out
    }

    /// Forgets the bytes written, keeping the buffer.
    pub(crate) fn clear(&mut self) {
        self.out.clear();
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.out
    }
}

impl Writer<Count> {
    /// A length-only writer: it allocates nothing and [`Writer::len`]
    /// is what a writer would have written.
    pub(crate) fn counter() -> Self {
        Writer { out: Count(0) }
    }
}

impl<S: Sink> Writer<S> {
    /// Bytes written (or counted) so far.
    pub(crate) fn len(&self) -> usize {
        self.out.len()
    }

    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.out.put(b);
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    pub(crate) fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Writes the exact bit pattern.
    pub(crate) fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Writes the exact bit pattern: checkpoints must round-trip NaNs
    /// and signed zeros untouched for the bitwise-continuation contract.
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A `u8`-length-prefixed string, cut at a character boundary to
    /// the 255 bytes the prefix can count.
    pub(crate) fn str_u8(&mut self, s: &str) {
        let s = prefix(s, usize::from(u8::MAX));
        self.u8(s.len() as u8);
        self.bytes(s.as_bytes());
    }

    /// A `u16`-length-prefixed string, cut at a character boundary to
    /// the 65 535 bytes the prefix can count.
    pub(crate) fn str_u16(&mut self, s: &str) {
        let s = prefix(s, usize::from(u16::MAX));
        self.u16(s.len() as u16);
        self.bytes(s.as_bytes());
    }
}

/// A binary format's one layout routine, generic over where its bytes
/// go so that [`exact`] can run it to count and to write.
pub(crate) trait Layout {
    fn write<S: Sink>(&self, w: &mut Writer<S>);
}

/// Runs a format's `layout` twice — on a [`Writer::counter`] to learn
/// the output's length, then on a writer allocated at exactly that
/// length — so an encoder makes one allocation with no slack. Shrinking
/// a roomier buffer afterwards would not do: each in-place shrink
/// leaves a hole in the heap between the buffers kept.
pub(crate) fn exact(layout: &impl Layout) -> Vec<u8> {
    let mut count = Writer::counter();
    layout.write(&mut count);
    let mut w = Writer::with_capacity(count.len());
    layout.write(&mut w);
    debug_assert_eq!(w.len(), count.len(), "a layout wrote what it counted");
    w.into_bytes()
}

/// The longest prefix of `s` of at most `max` bytes that ends on a
/// character boundary.
pub(crate) fn prefix(s: &str, max: usize) -> &str {
    let mut cut = s.len().min(max);
    while !s.is_char_boundary(cut) {
        cut -= 1;
    }
    &s[..cut]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_little_endian() {
        let mut w = Writer::default();
        w.u8(7);
        w.u16(0x0102);
        w.u32(0x0304_0506);
        w.u64(u64::MAX - 1);
        w.f32(-0.0);
        w.f64(f64::from_bits(0x7ff8_0000_0000_0001));
        w.str_u8("cpu");
        w.str_u16("héllo");
        let bytes = w.into_bytes();
        assert_eq!(&bytes[1..3], &[0x02, 0x01], "little-endian");
        let mut r = Reader::input(&bytes[..], "test");
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16("b").unwrap(), 0x0102);
        assert_eq!(r.u32("c").unwrap(), 0x0304_0506);
        assert_eq!(r.u64("d").unwrap(), u64::MAX - 1);
        assert_eq!(r.f32("e").unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.f64("f").unwrap().to_bits(), 0x7ff8_0000_0000_0001);
        assert_eq!(r.str_u8("g").unwrap(), "cpu");
        assert_eq!(r.str_u16("h").unwrap(), "héllo");
        assert_eq!(r.position(), bytes.len() as u64);
        r.finish().unwrap();
    }

    #[test]
    fn errors_name_the_field_and_offset_in_the_callers_kind() {
        let mut r = Reader::protocol(&[1u8, 2, 3][..], "request");
        r.u8("tag").unwrap();
        let err = r.u32("count").unwrap_err();
        assert!(
            matches!(&err, Error::Protocol { reason } if reason == "truncated request: count at byte 1"),
            "{err}"
        );
        let mut r = Reader::input(&[9u8, 0, 0, 0, 0xff][..], "blob");
        let err = r.count("machines", 8).unwrap_err();
        assert!(
            matches!(&err, Error::InvalidInput { reason } if reason.contains("machines at byte 0")),
            "{err}"
        );
        let err = Reader::input(&[0u8][..], "blob").finish().unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
        let mut r = Reader::input(&[2u8, 0xc3, 0x28][..], "blob");
        assert!(r
            .str_u8("name")
            .unwrap_err()
            .to_string()
            .contains("not UTF-8"));
    }

    #[test]
    fn a_length_prefix_past_the_input_is_a_truncation() {
        // A u16 prefix claiming 65 535 bytes over a 4-byte input is a
        // truncation, not a 64 KiB buffer.
        let mut r = Reader::input(&[0xff, 0xff, b'a', b'b'][..], "blob");
        assert!(r.str_u16("name").is_err());
    }

    #[test]
    fn u16s_cross_buffer_boundaries() {
        let values: Vec<u16> = (0..101).map(|i| i * 257).collect();
        let mut w = Writer::default();
        for v in &values {
            w.u16(*v);
        }
        let bytes = w.into_bytes();
        // An odd buffer size splits some values across refills.
        let mut r = Reader::input(std::io::BufReader::with_capacity(7, &bytes[..]), "frame");
        let mut out = vec![0u16; values.len()];
        r.u16s("cells", &mut out).unwrap();
        assert_eq!(out, values);
        r.finish().unwrap();
        let mut r = Reader::input(&bytes[..bytes.len() - 1], "frame");
        assert!(r.u16s("cells", &mut out).is_err());
    }

    #[test]
    fn a_counter_counts_what_a_writer_writes() {
        struct Every;
        impl Layout for Every {
            fn write<S: Sink>(&self, w: &mut Writer<S>) {
                w.u8(7);
                w.u16(1);
                w.u32(2);
                w.u64(3);
                w.f32(1.5);
                w.f64(-2.5);
                w.str_u8("cpu");
                w.str_u16("héllo");
            }
        }
        let mut count = Writer::counter();
        Every.write(&mut count);
        let bytes = exact(&Every);
        assert_eq!(bytes.len(), count.len());
        assert_eq!(bytes.capacity(), bytes.len());
        let mut w = Writer::default();
        Every.write(&mut w);
        assert_eq!(w.into_bytes(), bytes);
    }

    #[test]
    fn strings_are_cut_at_character_boundaries() {
        let long = "é".repeat(200); // 400 bytes
        let mut w = Writer::default();
        w.str_u8(&long);
        let bytes = w.into_bytes();
        assert_eq!(bytes[0], 254);
        let mut r = Reader::input(&bytes[..], "blob");
        assert_eq!(r.str_u8("name").unwrap(), "é".repeat(127));
    }
}
