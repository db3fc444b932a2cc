//! Out-of-core replay of `.events` traces.
//!
//! [`EventsStream`] reads a `mercury-events-v1` file either through a
//! read-only memory map (the default on Unix) or through buffered
//! streaming (`MERCURY_REPLAY_MMAP=off`, non-Unix platforms, or
//! [`EventsStream::open_buffered`]). Either way the resident working set
//! is a few frame-sized buffers — flat regardless of trace length, and
//! accounted exactly by [`EventsStream::memory_bytes`] the same way
//! `telemetry::Tsdb` accounts its ring memory.
//!
//! Replay is one [`ClusterSolver::step_for_fed`] call per
//! [`EventsStream::replay_ticks`], with **zero per-tick allocation**:
//! the stream is the span's feed. Before each tick it decodes the next
//! frame if the current input-stable span (a FULL/DELTA frame plus the
//! HOLD run after it) is used up, and — when the decoded frame differs
//! from the one last applied — sets it whole as that tick's inputs
//! ([`TickInputs::set_frame`] over the [`ClusterBinding`]'s
//! [`InputFrame`]), dequantizing each cell where the lanes price it
//! rather than into a buffer of its own. Inputs land at tick boundaries,
//! so a changed frame does not end the solver's fused span: the whole
//! call runs in the chunk lanes and each chunk prices its rows of the
//! frame in one pass — a trace whose every cell changes every tick
//! replays in the same loop as one that holds for minutes.
//!
//! # Safety
//!
//! The memory map is the crate's fourth sanctioned `unsafe` region (see
//! `lib.rs`): two foreign calls (`mmap`/`munmap`) plus one
//! `slice::from_raw_parts` over the mapping, all confined to [`Mmap`].
//! The mapping is `PROT_READ`/`MAP_PRIVATE` over a regular file we never
//! write; like every mmap consumer, we treat trace files as immutable
//! inputs — truncating one mid-replay is undefined at the OS level
//! (SIGBUS), which the buffered fallback avoids entirely.

use super::events::{self, EventsHeader, Record, RecordCursor, TAG_DELTA, TAG_FULL, TAG_HOLD};
use crate::error::Error;
use crate::solver::{ClusterSolver, InputFrame, TickInputs};
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;
use telemetry::{Counter, Gauge, Registry};

/// Replay telemetry bundle, mirroring the `SolverMetrics` pattern:
/// detached relaxed-atomic handles, exported only once someone calls
/// [`ReplayMetrics::register`].
#[derive(Debug, Clone, Default)]
pub struct ReplayMetrics {
    /// `mercury_replay_frames_decoded_total` — FULL/DELTA frames decoded.
    pub frames_decoded: Counter,
    /// `mercury_replay_spans_total` — input-stable spans begun (a span
    /// resumed by a later `replay_ticks` call counts again).
    pub spans: Counter,
    /// `mercury_replay_ticks_total` — trace ticks replayed.
    pub ticks: Counter,
    /// `mercury_replay_mapped_bytes_total` — bytes memory-mapped over
    /// the stream's lifetime (0 when streaming buffered).
    pub mapped_bytes: Counter,
    /// `mercury_replay_peak_rss_bytes` — the process's peak resident set
    /// (`VmHWM`), refreshed when a replay call reaches the end of the
    /// trace or fails (not mid-trace: each read is a procfs round trip);
    /// the gauge behind the flat-memory assertion.
    pub peak_rss: Gauge,
}

impl ReplayMetrics {
    /// Fresh, detached handles (all zero).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the `mercury_replay_*` families on `registry`.
    pub fn register(&self, registry: &Registry) {
        registry.register_counter(
            "mercury_replay_frames_decoded_total",
            "FULL/DELTA frames decoded from .events streams",
            &[],
            &self.frames_decoded,
        );
        registry.register_counter(
            "mercury_replay_spans_total",
            "Input-stable spans begun during replay",
            &[],
            &self.spans,
        );
        registry.register_counter(
            "mercury_replay_ticks_total",
            "Trace ticks replayed from .events streams",
            &[],
            &self.ticks,
        );
        registry.register_counter(
            "mercury_replay_mapped_bytes_total",
            "Bytes of .events data memory-mapped for replay",
            &[],
            &self.mapped_bytes,
        );
        registry.register_gauge(
            "mercury_replay_peak_rss_bytes",
            "Peak resident set size (VmHWM), read when a replay call reaches the end of the trace or fails",
            &[],
            &self.peak_rss,
        );
    }
}

/// The process's peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kib * 1024);
        }
    }
    None
}

// --- the sanctioned mmap region ---------------------------------------

#[cfg(unix)]
mod mapped {
    //! Read-only file mapping. This module is one of the crate's
    //! sanctioned `unsafe` exceptions (see `lib.rs`): the raw syscalls
    //! are declared here directly so the zero-dependency build needs no
    //! libc crate — the symbols resolve from the C runtime Rust already
    //! links on Unix.

    use std::ffi::{c_int, c_void};
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;

    const PROT_READ: c_int = 0x1;
    const MAP_PRIVATE: c_int = 0x02;

    #[allow(unsafe_code)]
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// An immutable, page-aligned view of a whole file.
    #[derive(Debug)]
    pub(super) struct Mmap {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ and never handed out mutably, so
    // concurrent reads from any thread are data-race free; the pointer
    // is owned (munmapped exactly once, on drop).
    #[allow(unsafe_code)]
    unsafe impl Send for Mmap {}
    #[allow(unsafe_code)]
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Maps `file` read-only in full.
        pub(super) fn map(file: &File, len: usize) -> io::Result<Mmap> {
            if len == 0 {
                // mmap(2) rejects zero-length mappings; an empty file is
                // never a valid .events file anyway.
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "cannot map an empty file",
                ));
            }
            // SAFETY: a fresh anonymous-address PROT_READ/MAP_PRIVATE
            // mapping of an fd we own; `len` equals the file length
            // measured by the caller. The return value is checked
            // against MAP_FAILED before use.
            #[allow(unsafe_code)]
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Mmap {
                ptr: ptr as *const u8,
                len,
            })
        }

        /// The mapped bytes.
        pub(super) fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes (established in `map`, released only in `drop`), and
            // no mutable view of it ever exists.
            #[allow(unsafe_code)]
            unsafe {
                std::slice::from_raw_parts(self.ptr, self.len)
            }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: exactly the pointer/length pair returned by mmap,
            // unmapped exactly once. Failure is ignored: the only way
            // munmap fails on a valid mapping is address-space
            // corruption, and there is nothing useful to do in drop.
            #[allow(unsafe_code)]
            unsafe {
                munmap(self.ptr as *mut c_void, self.len);
            }
        }
    }
}

// --- the stream itself -------------------------------------------------

enum Source {
    /// The whole file, memory-mapped. `pos` indexes the record stream
    /// (relative to the end of the header).
    #[cfg(unix)]
    Mapped {
        map: mapped::Mmap,
        header_len: usize,
        pos: usize,
        started: bool,
    },
    /// Buffered incremental reads; `scratch` is the one reusable record
    /// payload buffer (sized to a FULL frame, allocated once).
    Buffered {
        reader: BufReader<File>,
        scratch: Vec<u8>,
        pending_tag: Option<u8>,
        started: bool,
    },
}

/// A sequential, out-of-core reader over one `.events` file.
pub struct EventsStream {
    header: EventsHeader,
    source: Source,
    /// Quantized cells currently in effect.
    cur: Vec<u16>,
    /// Cells as last pushed into a cluster, for changed-cell application.
    applied: Vec<u16>,
    applied_valid: bool,
    /// Ticks whose values are already in `cur` but not yet replayed
    /// (a span crossing a `replay_ticks` boundary leaves a remainder).
    span_left: u64,
    /// Ticks consumed from the record stream (replayed or sought past).
    ticks_done: u64,
    metrics: ReplayMetrics,
}

impl std::fmt::Debug for EventsStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventsStream")
            .field("machines", &self.header.machines.len())
            .field("components", &self.header.components.len())
            .field("ticks", &self.header.ticks)
            .field("ticks_done", &self.ticks_done)
            .field("mapped", &matches!(&self.source, Source::Mapped { .. }))
            .finish()
    }
}

impl EventsStream {
    /// Opens a `.events` file, memory-mapping it when the platform
    /// allows and `MERCURY_REPLAY_MMAP` is not `off`/`0`, falling back
    /// to buffered streaming otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] for filesystem failures and
    /// [`Error::InvalidInput`] for malformed headers.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, Error> {
        let want_mmap = !matches!(
            std::env::var("MERCURY_REPLAY_MMAP").as_deref(),
            Ok("off") | Ok("0") | Ok("false")
        );
        #[cfg(unix)]
        if want_mmap {
            return Self::open_mapped(path);
        }
        let _ = want_mmap;
        Self::open_buffered(path)
    }

    /// Opens a `.events` file through a read-only memory map.
    ///
    /// # Errors
    ///
    /// As [`EventsStream::open`].
    #[cfg(unix)]
    pub fn open_mapped(path: impl AsRef<Path>) -> Result<Self, Error> {
        let file = File::open(path)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| Error::invalid_input("events file is too large to map"))?;
        let map = mapped::Mmap::map(&file, len)?;
        let (header, header_len) = EventsHeader::parse(map.as_slice())?;
        let metrics = ReplayMetrics::new();
        metrics.mapped_bytes.add(len as u64);
        Ok(Self::with_source(
            header,
            Source::Mapped {
                map,
                header_len,
                pos: 0,
                started: false,
            },
            metrics,
        ))
    }

    /// Opens a `.events` file through buffered streaming reads — the
    /// portable fallback, immune to concurrent-truncation SIGBUS.
    ///
    /// # Errors
    ///
    /// As [`EventsStream::open`].
    pub fn open_buffered(path: impl AsRef<Path>) -> Result<Self, Error> {
        let mut reader = BufReader::new(File::open(path)?);
        // The header is bounded but variable-length (name tables); read
        // it through a growing prefix buffer, then seek the file to the
        // first record. `parse_prefix` distinguishes "need more bytes"
        // from "provably malformed", so a bad magic fails immediately
        // without scanning the file.
        let mut prefix = Vec::with_capacity(4096);
        let (header, header_len) = loop {
            match EventsHeader::parse_prefix(&prefix)? {
                Some(parsed) => break parsed,
                None => {
                    let before = prefix.len();
                    prefix.resize(before + 4096, 0);
                    let n = read_up_to(&mut reader, &mut prefix[before..])?;
                    prefix.truncate(before + n);
                    if n == 0 {
                        return Err(Error::invalid_input(
                            "truncated events data: incomplete header",
                        ));
                    }
                }
            }
        };
        // Anything after the header in the prefix belongs to the record
        // stream; re-position the underlying file there.
        let mut file = reader.into_inner();
        use std::io::Seek;
        file.seek(std::io::SeekFrom::Start(header_len as u64))?;
        let reader = BufReader::new(file);
        let cells = header.cells();
        Ok(Self::with_source(
            header,
            Source::Buffered {
                reader,
                scratch: Vec::with_capacity(2 * cells),
                pending_tag: None,
                started: false,
            },
            ReplayMetrics::new(),
        ))
    }

    fn with_source(header: EventsHeader, source: Source, metrics: ReplayMetrics) -> Self {
        let cells = header.cells();
        EventsStream {
            header,
            source,
            cur: vec![0; cells],
            applied: vec![0; cells],
            applied_valid: false,
            span_left: 0,
            ticks_done: 0,
            metrics,
        }
    }

    /// The parsed header (machine/component tables, interval, ticks).
    pub fn header(&self) -> &EventsHeader {
        &self.header
    }

    /// Whether this stream reads through a memory map.
    pub fn is_mapped(&self) -> bool {
        match &self.source {
            #[cfg(unix)]
            Source::Mapped { .. } => true,
            _ => false,
        }
    }

    /// Replaces the metric bundle (register it on a
    /// [`telemetry::Registry`] to export the `mercury_replay_*`
    /// families). Mapped-bytes for an already-open map are re-counted
    /// onto the new bundle.
    pub fn set_metrics(&mut self, metrics: ReplayMetrics) {
        #[cfg(unix)]
        if let Source::Mapped { map, .. } = &self.source {
            metrics.mapped_bytes.add(map.as_slice().len() as u64);
        }
        self.metrics = metrics;
    }

    /// Ticks consumed so far (replayed or sought past).
    pub fn position(&self) -> u64 {
        self.ticks_done.saturating_sub(self.span_left)
    }

    /// Exact resident bytes of this stream's decode state — the frame
    /// buffers and the buffered-mode scratch. Deliberately excludes the
    /// memory map (clean, read-only pages the OS reclaims under
    /// pressure; reported via `mercury_replay_mapped_bytes_total`
    /// instead) and the `BufReader`'s fixed 8 KiB block. This is the
    /// quantity the flat-memory tests assert stays constant while a
    /// replay runs, exactly like `Tsdb::memory_bytes`.
    pub fn memory_bytes(&self) -> usize {
        let scratch = match &self.source {
            Source::Buffered { scratch, .. } => scratch.capacity(),
            #[cfg(unix)]
            Source::Mapped { .. } => 0,
        };
        2 * self.cur.capacity() + 2 * self.applied.capacity() + scratch
    }

    /// Decodes the next input-stable span into `cur`. Returns the span
    /// length in ticks, or `None` at a clean end of trace.
    fn next_span(&mut self) -> Result<Option<u64>, Error> {
        let cells = self.cur.len();
        let (span, frames) = match &mut self.source {
            #[cfg(unix)]
            Source::Mapped {
                map,
                header_len,
                pos,
                started,
            } => {
                let records = &map.as_slice()[*header_len..];
                let mut cursor = RecordCursor::resume(records, cells, *pos, !*started);
                let mut frames = 0u64;
                // First record of the span: new values (or EOF).
                let mut span = match cursor.next()? {
                    None => {
                        if self.ticks_done != self.header.ticks {
                            return Err(Error::invalid_input(format!(
                                "events records cover {} ticks but the header declares {}",
                                self.ticks_done, self.header.ticks
                            )));
                        }
                        return Ok(None);
                    }
                    Some(Record::Full(payload)) => {
                        events::apply_full(payload, &mut self.cur)?;
                        frames += 1;
                        1u64
                    }
                    Some(Record::Delta(payload)) => {
                        events::apply_delta(payload, &mut self.cur)?;
                        frames += 1;
                        1u64
                    }
                    // Non-canonical but well-formed: a hold not merged
                    // with its predecessor is its own unchanged-values
                    // span.
                    Some(Record::Hold(n)) => u64::from(n),
                };
                // Extend the span over any immediately following HOLD
                // records by peeking (position only advances when the
                // peeked record really is a HOLD). A record that does
                // not decode is left for the call that reaches it, so
                // every tick before it replays, as when streaming.
                loop {
                    let peek_pos = cursor.pos();
                    match cursor.next() {
                        Ok(Some(Record::Hold(n))) => span += u64::from(n),
                        _ => {
                            cursor.rewind_to(peek_pos);
                            break;
                        }
                    }
                }
                *pos = cursor.pos();
                *started = true;
                (span, frames)
            }
            Source::Buffered {
                reader,
                scratch,
                pending_tag,
                started,
            } => {
                let tag = match pending_tag.take() {
                    Some(t) => Some(t),
                    None => read_tag(reader)?,
                };
                let Some(tag) = tag else {
                    if self.ticks_done != self.header.ticks {
                        return Err(Error::invalid_input(format!(
                            "events records cover {} ticks but the header declares {}",
                            self.ticks_done, self.header.ticks
                        )));
                    }
                    return Ok(None);
                };
                let mut frames = 0u64;
                let mut span;
                match tag {
                    TAG_FULL => {
                        read_exactly(reader, scratch, 2 * cells)?;
                        events::apply_full(scratch, &mut self.cur)?;
                        frames += 1;
                        span = 1;
                    }
                    TAG_DELTA => {
                        if !*started {
                            return Err(Error::invalid_input(
                                "events stream must start with a FULL frame",
                            ));
                        }
                        read_exactly(reader, scratch, 4)?;
                        let n = u32::from_le_bytes([scratch[0], scratch[1], scratch[2], scratch[3]])
                            as usize;
                        if n == 0 {
                            return Err(Error::invalid_input("empty DELTA record"));
                        }
                        read_exactly(reader, scratch, 6 * n)?;
                        events::apply_delta(scratch, &mut self.cur)?;
                        frames += 1;
                        span = 1;
                    }
                    TAG_HOLD => {
                        if !*started {
                            return Err(Error::invalid_input(
                                "events stream must start with a FULL frame",
                            ));
                        }
                        read_exactly(reader, scratch, 4)?;
                        let n =
                            u32::from_le_bytes([scratch[0], scratch[1], scratch[2], scratch[3]]);
                        if n == 0 {
                            return Err(Error::invalid_input("empty HOLD record"));
                        }
                        span = u64::from(n);
                    }
                    other => {
                        return Err(Error::invalid_input(format!(
                            "unknown events record tag {other:#04x}"
                        )))
                    }
                }
                *started = true;
                // Merge immediately following HOLDs into this span; a
                // non-HOLD tag is remembered for the next call.
                while let Some(next) = read_tag(reader)? {
                    if next == TAG_HOLD {
                        read_exactly(reader, scratch, 4)?;
                        let n =
                            u32::from_le_bytes([scratch[0], scratch[1], scratch[2], scratch[3]]);
                        if n == 0 {
                            return Err(Error::invalid_input("empty HOLD record"));
                        }
                        span += u64::from(n);
                    } else {
                        *pending_tag = Some(next);
                        break;
                    }
                }
                (span, frames)
            }
        };
        if self.ticks_done + span > self.header.ticks {
            return Err(Error::invalid_input(format!(
                "events records cover {}+ ticks but the header declares {}",
                self.ticks_done + span,
                self.header.ticks
            )));
        }
        self.ticks_done += span;
        self.metrics.frames_decoded.add(frames);
        Ok(Some(span))
    }

    /// Fast-forwards decoding (without stepping any solver) so the next
    /// replayed tick is `tick` — how a time-segment worker positions
    /// itself at a checkpoint cut. After seeking, `cur` holds exactly
    /// the inputs in effect at `tick`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when `tick` lies before the
    /// current position or past the end of the trace.
    pub fn seek(&mut self, tick: u64) -> Result<(), Error> {
        if tick > self.header.ticks {
            return Err(Error::invalid_input(format!(
                "seek target {tick} is past the end of the {}-tick trace",
                self.header.ticks
            )));
        }
        if tick < self.position() {
            return Err(Error::invalid_input(format!(
                "cannot seek backwards (at tick {}, asked for {tick})",
                self.position()
            )));
        }
        while self.position() < tick {
            let remaining = tick - self.position();
            if self.span_left == 0 {
                let Some(span) = self.next_span()? else {
                    unreachable!("position < ticks implies another span");
                };
                self.span_left = span;
                // Values changed under the solver's feet (or were never
                // applied): the next apply must push every cell.
                self.applied_valid = false;
            }
            let consumed = self.span_left.min(remaining);
            self.span_left -= consumed;
        }
        Ok(())
    }

    /// Sets the whole frame `cur` as the tick's inputs, unless it equals
    /// the last one applied (always after a seek or on the first
    /// application).
    fn apply_current(&mut self, binding: &ClusterBinding, inputs: &mut TickInputs<'_>) {
        if self.applied_valid && self.applied == self.cur {
            return;
        }
        let cur = &self.cur;
        inputs.set_frame(&binding.frame, |k| events::dequantize(cur[k]));
        self.applied.copy_from_slice(&self.cur);
        self.applied_valid = true;
    }

    /// Replays up to `max_ticks` ticks into `cluster` as one
    /// [`ClusterSolver::step_for_fed`] span fed from the decoded frames.
    /// Returns the per-call statistics; `ticks` is less than `max_ticks`
    /// only when the trace ended.
    ///
    /// # Errors
    ///
    /// Propagates decode errors — the cluster is then at a consistent
    /// tick boundary, `cluster.time()` and this stream's
    /// `mercury_replay_ticks_total` covering exactly the ticks stepped
    /// before the bad record; [`Error::InvalidInput`] when `binding`
    /// was built for a different stream shape.
    pub fn replay_ticks(
        &mut self,
        binding: &ClusterBinding,
        cluster: &mut ClusterSolver,
        max_ticks: u64,
    ) -> Result<ReplayStats, Error> {
        if binding.frame.len() != self.cur.len() {
            return Err(Error::invalid_input(
                "cluster binding does not match this stream's frame shape",
            ));
        }
        let mut stats = ReplayStats::default();
        let limit = usize::try_from(max_ticks).unwrap_or(usize::MAX);
        let result = cluster.step_for_fed(
            limit,
            &[],
            |_, _| {},
            |inputs| {
                if self.span_left == 0 {
                    let Some(span) = self.next_span()? else {
                        return Ok(false);
                    };
                    self.span_left = span;
                    self.apply_current(binding, inputs);
                    stats.spans += 1;
                } else if stats.ticks == 0 {
                    // Resuming a span an earlier call (or a seek) split.
                    if !self.applied_valid {
                        // Right after a seek: the values for the
                        // remainder still need to reach the solvers.
                        self.apply_current(binding, inputs);
                    }
                    stats.spans += 1;
                }
                self.span_left -= 1;
                stats.ticks += 1;
                Ok(true)
            },
        );
        self.metrics.ticks.add(stats.ticks);
        self.metrics.spans.add(stats.spans);
        // A procfs read costs microseconds, and callers that replay in
        // short calls make many: the gauge is refreshed when a call
        // reaches the end of the trace or fails, not on every call.
        if result.is_err() || self.position() == self.header.ticks {
            if let Some(rss) = peak_rss_bytes() {
                self.metrics.peak_rss.set(rss as f64);
            }
        }
        result.map(|_| stats)
    }

    /// Replays the remainder of the trace into `cluster`.
    ///
    /// # Errors
    ///
    /// As [`EventsStream::replay_ticks`].
    pub fn replay(
        &mut self,
        binding: &ClusterBinding,
        cluster: &mut ClusterSolver,
    ) -> Result<ReplayStats, Error> {
        self.replay_ticks(binding, cluster, u64::MAX)
    }
}

/// What one replay call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayStats {
    /// Ticks stepped.
    pub ticks: u64,
    /// Input-stable spans begun or resumed (1 span may cover many
    /// ticks; every one of them ran in the same solver span).
    pub spans: u64,
}

/// Precomputed name-free routing from `.events` cells to cluster solver
/// inputs: the room's [`InputFrame`] over the stream's
/// `(machine, component)` cells, in frame order, so the replay hot path
/// never hashes a string and sets each decoded frame whole.
#[derive(Debug, Clone)]
pub struct ClusterBinding {
    /// Cell `k` of a decoded frame is cell `k` of this input frame.
    frame: InputFrame,
}

impl ClusterBinding {
    /// Resolves every stream machine and component against `cluster`,
    /// validating up front that each component is a monitored component
    /// of its machine and that the stream interval matches the solver
    /// tick (`dt`) bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownMachine`] / [`Error::UnknownNode`] for
    /// names missing from the cluster and [`Error::InvalidInput`] for
    /// interval mismatches or non-monitored components.
    pub fn new(header: &EventsHeader, cluster: &ClusterSolver) -> Result<Self, Error> {
        if cluster.is_empty() {
            return Err(Error::invalid_input("cannot bind to an empty cluster"));
        }
        let dt = cluster.machine_at(0).dt().0;
        if dt.to_bits() != header.interval_s.to_bits() {
            return Err(Error::invalid_input(format!(
                "events interval {} s does not match the solver tick {} s",
                header.interval_s, dt
            )));
        }
        let mut cells = Vec::with_capacity(header.cells());
        for name in &header.machines {
            let index = cluster
                .machine_position(name)
                .ok_or_else(|| Error::UnknownMachine { name: name.clone() })?;
            let solver = cluster.machine_at(index);
            for component in &header.components {
                let node = solver
                    .node_index(component)
                    .ok_or_else(|| Error::unknown_node(component))?;
                cells.push((index, node));
            }
        }
        Ok(ClusterBinding {
            frame: cluster.input_frame(&cells)?,
        })
    }
}

fn read_tag<R: Read>(reader: &mut R) -> Result<Option<u8>, Error> {
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(byte[0])),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
}

fn read_exactly<R: Read>(reader: &mut R, scratch: &mut Vec<u8>, n: usize) -> Result<(), Error> {
    scratch.clear();
    scratch.resize(n, 0);
    reader.read_exact(scratch).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            Error::invalid_input("truncated events data: record payload")
        } else {
            Error::from(e)
        }
    })
}

fn read_up_to<R: Read>(reader: &mut R, buf: &mut [u8]) -> Result<usize, Error> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(filled)
}
