//! Out-of-core replay of `.events` traces.
//!
//! [`EventsStream`] reads a `mercury-events-v1` file through one
//! buffered reader and the record decoder [`events::decode`] uses, so
//! the resident working set is two frame-sized rows plus the reader's
//! fixed block — flat regardless of trace length, and accounted exactly
//! by [`EventsStream::memory_bytes`] the same way `telemetry::Tsdb`
//! accounts its ring memory.
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

use super::events::{self, EventsHeader, Records};
use crate::codec::Reader;
use crate::error::Error;
use crate::solver::{ClusterSolver, InputFrame, TickInputs};
use std::fs::File;
use std::io::BufReader;
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

/// A sequential, out-of-core reader over one `.events` file.
pub struct EventsStream {
    header: EventsHeader,
    records: Records<BufReader<File>>,
    /// Quantized cells currently in effect.
    cur: Vec<u16>,
    /// Cells as last pushed into a cluster, for changed-cell application.
    applied: Vec<u16>,
    applied_valid: bool,
    /// Ticks whose values are already in `cur` but not yet replayed
    /// (a span crossing a `replay_ticks` boundary leaves a remainder).
    span_left: u64,
    metrics: ReplayMetrics,
}

impl std::fmt::Debug for EventsStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventsStream")
            .field("machines", &self.header.machines.len())
            .field("components", &self.header.components.len())
            .field("ticks", &self.header.ticks)
            .field("position", &self.position())
            .finish()
    }
}

impl EventsStream {
    /// Opens a `.events` file and reads its header.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] for filesystem failures and
    /// [`Error::InvalidInput`] for malformed headers.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, Error> {
        let mut r = Reader::input(BufReader::new(File::open(path)?), "events data");
        let header = EventsHeader::read(&mut r)?;
        let cells = header.cells();
        Ok(EventsStream {
            records: Records::new(r, &header),
            header,
            cur: vec![0; cells],
            applied: vec![0; cells],
            applied_valid: false,
            span_left: 0,
            metrics: ReplayMetrics::new(),
        })
    }

    /// The parsed header (machine/component tables, interval, ticks).
    pub fn header(&self) -> &EventsHeader {
        &self.header
    }

    /// Always `false`: streams read through a buffered reader. Kept
    /// only because the `bench-e2e` replay workloads report it as
    /// `core.trace.mapped`; it goes when that metric does.
    pub fn is_mapped(&self) -> bool {
        false
    }

    /// Replaces the metric bundle (register it on a
    /// [`telemetry::Registry`] to export the `mercury_replay_*`
    /// families).
    pub fn set_metrics(&mut self, metrics: ReplayMetrics) {
        self.metrics = metrics;
    }

    /// Ticks consumed so far (replayed or sought past).
    pub fn position(&self) -> u64 {
        self.records.ticks() - self.span_left
    }

    /// Exact resident bytes of this stream's decode state — the two
    /// frame rows. Excludes the reader's fixed 8 KiB block. This is the
    /// quantity the flat-memory tests assert stays constant while a
    /// replay runs, exactly like `Tsdb::memory_bytes`.
    pub fn memory_bytes(&self) -> usize {
        2 * self.cur.capacity() + 2 * self.applied.capacity()
    }

    /// Decodes the next input-stable span into `cur`. Returns the span
    /// length in ticks, or `None` at a clean end of trace.
    fn next_span(&mut self) -> Result<Option<u64>, Error> {
        let Some(span) = self.records.next_span(&mut self.cur)? else {
            return Ok(None);
        };
        self.metrics.frames_decoded.add(span.frames);
        Ok(Some(span.ticks))
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
