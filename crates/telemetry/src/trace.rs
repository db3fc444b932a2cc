//! Structured causal tracing: timed spans with parent links, a bounded
//! process-wide span store, and Chrome trace-event export.
//!
//! Metrics (the rest of this crate) aggregate; spans *narrate*. A
//! [`SpanRecord`] is one timed interval — a solver tick phase, a UDP
//! request, a tempd observation — with a process-unique id and an
//! optional parent id. Parent links are what make the causal chain of
//! the paper reconstructable from one artifact: a Freon actuation span
//! points at the rule-evaluation span that requested it, which points at
//! the tempd observation that fired the rule.
//!
//! Design rules follow the crate's:
//!
//! 1. **No globals.** A [`Tracer`] is an `Arc`-backed handle owned by
//!    whoever wants a trace (a `SolverService`, an experiment). Cloning
//!    shares the store. The default [`Tracer::disabled`] handle carries
//!    no storage, so components can hold one unconditionally.
//! 2. **Cheap when off, bounded when on.** A detached or disabled
//!    tracer costs one branch per call site. When recording, ids come
//!    from one relaxed atomic, clocks from `Instant`, and finished spans
//!    go into a bounded ring under a mutex, one lock acquisition per
//!    span; any thread may record through a clone of the same tracer.
//!    The ring overwrites oldest-first and counts what it dropped.
//! 3. **Mergeable.** Span ids are unique per tracer, timestamps are
//!    nanoseconds since the tracer's epoch, and the JSONL wire form
//!    round-trips losslessly, so dumps from several sources can be
//!    concatenated and exported together (`mercury-trace` does exactly
//!    that).
//!
//! Export targets: [`to_jsonl`] / [`parse_jsonl`] for the wire and for
//! incident bundles, [`to_chrome_trace`] for `chrome://tracing` /
//! Perfetto (complete `"X"` events; instants are zero-duration spans).

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default bound on retained spans (~6 MiB at ~100 B/span).
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// Argument list attached to a finished span. Keys are `'static` at
/// every in-process call site; parsed spans own theirs.
pub type SpanArgs = Vec<(Cow<'static, str>, String)>;

/// One finished span: a timed interval with a process-unique `id` and a
/// `parent` link (`0` = no parent). `dur_ns == 0` marks an instant
/// event. `tid` is a logical lane for display: `0` for every span a
/// [`Tracer`] records; merged dumps from other sources may set it.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Id of the causally-enclosing span, or 0.
    pub parent: u64,
    /// Logical lane (thread) for display.
    pub tid: u32,
    /// Start time, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 = instant event).
    pub dur_ns: u64,
    /// Category (subsystem): `solver`, `net`, `freon`, `engine`.
    pub cat: Cow<'static, str>,
    /// Span name, stable and grep-able (`cluster.tick`, `net.request`).
    pub name: Cow<'static, str>,
    /// Structured key/value arguments.
    pub args: SpanArgs,
}

/// An in-flight span started by [`Tracer::start`]. Inert (and free)
/// when the tracer was detached or disabled at start time. Dropping an
/// unfinished span simply discards it.
#[derive(Debug)]
#[must_use = "finish the span with Tracer::end"]
pub struct Span {
    id: u64,
    parent: u64,
    start_ns: u64,
    name: &'static str,
    cat: &'static str,
    live: bool,
}

impl Span {
    /// A span that records nothing when ended.
    fn inert() -> Span {
        Span {
            id: 0,
            parent: 0,
            start_ns: 0,
            name: "",
            cat: "",
            live: false,
        }
    }

    /// This span's id (0 when inert) — pass as `parent` to children or
    /// stash it to link later work back to this span.
    #[must_use]
    pub fn id(&self) -> u64 {
        if self.live {
            self.id
        } else {
            0
        }
    }

    /// Whether ending this span will record anything.
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.live
    }
}

#[derive(Debug)]
struct Store {
    ring: VecDeque<SpanRecord>,
    capacity: usize,
    dropped: u64,
}

impl Store {
    fn push(&mut self, rec: SpanRecord) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(rec);
    }
}

#[derive(Debug)]
struct TracerInner {
    epoch: Instant,
    next_id: AtomicU64,
    enabled: AtomicBool,
    store: Mutex<Store>,
}

fn lock(inner: &TracerInner) -> std::sync::MutexGuard<'_, Store> {
    // A span push never panics while holding the lock; recover from a
    // poisoning panic elsewhere rather than cascading into tracing.
    inner
        .store
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A shareable handle to one span store.
///
/// ```
/// use telemetry::trace::Tracer;
/// let tracer = Tracer::new(1024);
/// let tick = tracer.start("cluster.tick", "solver");
/// let phase = tracer.start_child("batch.sweep", "solver", tick.id());
/// tracer.end(phase);
/// tracer.end(tick);
/// assert_eq!(tracer.recent(10).len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A detached tracer: every operation is a cheap no-op. This is the
    /// `Default`, so components can hold a `Tracer` unconditionally.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// Creates a tracer retaining at most `capacity` spans (min 16),
    /// enabled immediately.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                enabled: AtomicBool::new(true),
                store: Mutex::new(Store {
                    ring: VecDeque::new(),
                    capacity: capacity.max(16),
                    dropped: 0,
                }),
            })),
        }
    }

    /// Whether this handle has a backing store at all.
    #[must_use]
    pub fn is_attached(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether spans started now will record (attached *and* enabled).
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.inner
            .as_deref()
            .is_some_and(|i| i.enabled.load(Ordering::Relaxed))
    }

    /// Runtime switch: pauses / resumes recording without detaching.
    pub fn set_enabled(&self, on: bool) {
        if let Some(inner) = self.inner.as_deref() {
            inner.enabled.store(on, Ordering::Relaxed);
        }
    }

    /// Starts a root span.
    pub fn start(&self, name: &'static str, cat: &'static str) -> Span {
        self.start_child(name, cat, 0)
    }

    /// Starts a span whose parent is the span with id `parent` (0 for
    /// none). Inert if the tracer is detached or disabled.
    pub fn start_child(&self, name: &'static str, cat: &'static str, parent: u64) -> Span {
        let Some(inner) = self.inner.as_deref() else {
            return Span::inert();
        };
        if !inner.enabled.load(Ordering::Relaxed) {
            return Span::inert();
        }
        Span {
            id: inner.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            start_ns: inner.epoch.elapsed().as_nanos() as u64,
            name,
            cat,
            live: true,
        }
    }

    /// Finishes a span with no arguments.
    pub fn end(&self, span: Span) {
        self.end_with_args(span, Vec::new());
    }

    /// Finishes a span, attaching arguments.
    pub fn end_with_args(&self, span: Span, args: SpanArgs) {
        if !span.live {
            return;
        }
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        let end_ns = inner.epoch.elapsed().as_nanos() as u64;
        lock(inner).push(SpanRecord {
            id: span.id,
            parent: span.parent,
            tid: 0,
            start_ns: span.start_ns,
            dur_ns: end_ns.saturating_sub(span.start_ns),
            cat: Cow::Borrowed(span.cat),
            name: Cow::Borrowed(span.name),
            args,
        });
    }

    /// Records a zero-duration instant event; returns its span id (0
    /// when nothing was recorded).
    pub fn instant(
        &self,
        name: &'static str,
        cat: &'static str,
        parent: u64,
        args: SpanArgs,
    ) -> u64 {
        let span = self.start_child(name, cat, parent);
        let id = span.id();
        self.end_with_args(span, args);
        id
    }

    /// The most recent `limit` finished spans, oldest first, without
    /// clearing the store.
    #[must_use]
    pub fn recent(&self, limit: usize) -> Vec<SpanRecord> {
        let Some(inner) = self.inner.as_deref() else {
            return Vec::new();
        };
        let store = lock(inner);
        let skip = store.ring.len().saturating_sub(limit);
        store.ring.iter().skip(skip).cloned().collect()
    }

    /// Removes and returns every finished span, oldest first.
    #[must_use]
    pub fn drain(&self) -> Vec<SpanRecord> {
        let Some(inner) = self.inner.as_deref() else {
            return Vec::new();
        };
        lock(inner).ring.drain(..).collect()
    }

    /// Spans lost to ring wraparound since creation.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.as_deref().map_or(0, |i| lock(i).dropped)
    }
}

// ---------------------------------------------------------------------------
// Serialization: JSONL wire/bundle form and Chrome trace-event export.
// ---------------------------------------------------------------------------

/// Escapes a string into a JSON string literal (without quotes).
fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

impl SpanRecord {
    /// Renders this span as one compact JSON object (the JSONL /
    /// incident-bundle form; [`SpanRecord::from_json`] inverts it).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"tid\":{},\"start_ns\":{},\"dur_ns\":{},\"cat\":\"",
            self.id, self.parent, self.tid, self.start_ns, self.dur_ns
        ));
        escape_json(&self.cat, &mut out);
        out.push_str("\",\"name\":\"");
        escape_json(&self.name, &mut out);
        out.push_str("\",\"args\":{");
        for (i, (k, v)) in self.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(k, &mut out);
            out.push_str("\":\"");
            escape_json(v, &mut out);
            out.push('"');
        }
        out.push_str("}}");
        out
    }

    /// Parses one span object produced by [`SpanRecord::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`TraceParseError`] describing the first malformed
    /// byte.
    pub fn from_json(s: &str) -> Result<SpanRecord, TraceParseError> {
        let mut p = Parser::new(s);
        let rec = p.parse_span()?;
        p.ws();
        if !p.at_end() {
            return Err(p.err("trailing bytes after span object"));
        }
        Ok(rec)
    }
}

/// Renders spans as newline-delimited JSON, one span object per line —
/// the text a span dump's `Reply::Part`s carry (cut at line boundaries
/// like the metrics scrape) and the `spans` payload of incident bundles.
#[must_use]
pub fn to_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&s.to_json());
        out.push('\n');
    }
    out
}

/// Parses newline-delimited span objects (blank lines skipped).
///
/// # Errors
///
/// Returns a [`TraceParseError`] naming the first malformed line.
pub fn parse_jsonl(text: &str) -> Result<Vec<SpanRecord>, TraceParseError> {
    let mut spans = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        spans.push(SpanRecord::from_json(line)?);
    }
    Ok(spans)
}

/// Renders spans as a Chrome trace-event JSON document (the "JSON
/// object format": `{"traceEvents": [...]}`) loadable in
/// `chrome://tracing` and Perfetto. Timestamps convert to microseconds;
/// every event carries its `span_id` / `parent_id` in `args` so the
/// causal chain survives the export.
#[must_use]
pub fn to_chrome_trace(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_json(&s.name, &mut out);
        out.push_str("\",\"cat\":\"");
        escape_json(&s.cat, &mut out);
        out.push_str(&format!(
            "\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{",
            s.start_ns as f64 / 1_000.0,
            s.dur_ns as f64 / 1_000.0,
            s.tid
        ));
        out.push_str(&format!(
            "\"span_id\":\"{}\",\"parent_id\":\"{}\"",
            s.id, s.parent
        ));
        for (k, v) in &s.args {
            out.push_str(",\"");
            escape_json(k, &mut out);
            out.push_str("\":\"");
            escape_json(v, &mut out);
            out.push('"');
        }
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// A span-JSON parse failure, with the byte offset where it happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceParseError {
    /// Byte offset of the offending input.
    pub pos: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "span json at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for TraceParseError {}

/// Minimal cursor parser for the fixed span-object shape this module
/// emits (flat fields plus one nested string-valued `args` object).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> TraceParseError {
        TraceParseError {
            pos: self.pos,
            message: message.into(),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), TraceParseError> {
        self.ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn parse_string(&mut self) -> Result<String, TraceParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("\\u escape not a scalar"))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(self.err(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is valid UTF-8
                    // because it came in as &str).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("eof"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_u64(&mut self) -> Result<u64, TraceParseError> {
        self.ws();
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected a number"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| self.err("number out of range"))
    }

    fn parse_args(&mut self) -> Result<SpanArgs, TraceParseError> {
        self.expect(b'{')?;
        let mut args = SpanArgs::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(args);
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_string()?;
            args.push((Cow::Owned(key), value));
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(args);
                }
                _ => return Err(self.err("expected ',' or '}' in args")),
            }
        }
    }

    fn parse_span(&mut self) -> Result<SpanRecord, TraceParseError> {
        self.expect(b'{')?;
        let mut rec = SpanRecord {
            id: 0,
            parent: 0,
            tid: 0,
            start_ns: 0,
            dur_ns: 0,
            cat: Cow::Borrowed(""),
            name: Cow::Borrowed(""),
            args: Vec::new(),
        };
        let mut saw_id = false;
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            match key.as_str() {
                "id" => {
                    rec.id = self.parse_u64()?;
                    saw_id = true;
                }
                "parent" => rec.parent = self.parse_u64()?,
                "tid" => {
                    rec.tid = u32::try_from(self.parse_u64()?)
                        .map_err(|_| self.err("tid out of range"))?;
                }
                "start_ns" => rec.start_ns = self.parse_u64()?,
                "dur_ns" => rec.dur_ns = self.parse_u64()?,
                "cat" => rec.cat = Cow::Owned(self.parse_string()?),
                "name" => rec.name = Cow::Owned(self.parse_string()?),
                "args" => rec.args = self.parse_args()?,
                other => return Err(self.err(format!("unknown span field {other:?}"))),
            }
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(self.err("expected ',' or '}' in span")),
            }
        }
        if !saw_id || rec.id == 0 {
            return Err(self.err("span object missing a nonzero id"));
        }
        if rec.name.is_empty() {
            return Err(self.err("span object missing a name"));
        }
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(id: u64, parent: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            tid: 2,
            start_ns: 1_000,
            dur_ns: 250,
            cat: Cow::Borrowed("solver"),
            name: Cow::Borrowed("cluster.tick"),
            args: vec![(Cow::Borrowed("tick"), "7".to_string())],
        }
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let mut rec = sample(3, 1);
        rec.args
            .push((Cow::Borrowed("msg"), "quo\"te\\slash\nnl\ttab".to_string()));
        let parsed = SpanRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(parsed, rec);
    }

    #[test]
    fn jsonl_roundtrip_and_blank_lines() {
        let spans = vec![sample(1, 0), sample(2, 1)];
        let mut text = to_jsonl(&spans);
        text.push('\n');
        assert_eq!(parse_jsonl(&text).unwrap(), spans);
        assert!(parse_jsonl("").unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_malformed_spans() {
        for (bad, what) in [
            ("{\"id\":0,\"name\":\"x\"}", "zero id"),
            ("{\"parent\":1}", "missing id"),
            ("{\"id\":1,\"name\":\"x\"} trailing", "trailing bytes"),
            ("{\"id\":1,\"name\":\"x\",\"bogus\":3}", "unknown field"),
            ("{\"id\":1,\"name\":\"x\"", "unterminated object"),
        ] {
            assert!(SpanRecord::from_json(bad).is_err(), "{what}: {bad}");
        }
    }

    #[test]
    fn chrome_export_is_wellformed() {
        let out = to_chrome_trace(&[sample(1, 0), sample(2, 1)]);
        assert!(out.starts_with("{\"traceEvents\":["));
        assert!(out.ends_with("\"displayTimeUnit\":\"ms\"}"));
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"span_id\":\"2\",\"parent_id\":\"1\""));
        assert!(out.contains("\"ts\":1.000"));
    }

    mod live {
        use super::*;

        #[test]
        fn spans_record_with_parent_links() {
            let tracer = Tracer::new(64);
            let root = tracer.start("a", "t");
            let child = tracer.start_child("b", "t", root.id());
            assert_ne!(root.id(), 0);
            tracer.end(child);
            tracer.end_with_args(root, vec![(Cow::Borrowed("k"), "v".into())]);
            let spans = tracer.recent(10);
            assert_eq!(spans.len(), 2);
            assert_eq!(spans[0].name, "b");
            assert_eq!(spans[0].parent, spans[1].id);
            assert_eq!(spans[1].args[0].1, "v");
            assert!(spans[1].dur_ns >= spans[0].dur_ns);
        }

        #[test]
        fn detached_and_disabled_tracers_record_nothing() {
            let detached = Tracer::disabled();
            let s = detached.start("a", "t");
            assert!(!s.is_live());
            detached.end(s);
            assert!(detached.recent(10).is_empty());
            assert!(!detached.is_attached());

            let paused = Tracer::new(64);
            paused.set_enabled(false);
            assert!(paused.is_attached() && !paused.is_active());
            let s = paused.start("a", "t");
            assert!(!s.is_live());
            paused.end(s);
            assert_eq!(paused.instant("i", "t", 0, Vec::new()), 0);
            assert!(paused.recent(10).is_empty());
        }

        #[test]
        fn ring_bounds_and_counts_drops() {
            let tracer = Tracer::new(16); // min capacity
            for _ in 0..20 {
                let s = tracer.start("a", "t");
                tracer.end(s);
            }
            assert_eq!(tracer.recent(100).len(), 16);
            assert_eq!(tracer.dropped(), 4);
            assert_eq!(tracer.drain().len(), 16);
            assert!(tracer.recent(100).is_empty());
        }

        #[test]
        fn instants_are_zero_duration_and_linked() {
            let tracer = Tracer::new(64);
            let root = tracer.start("a", "t");
            let root_id = root.id();
            let id = tracer.instant("evt", "t", root_id, Vec::new());
            tracer.end(root);
            assert_ne!(id, 0);
            let spans = tracer.recent(10);
            let evt = spans.iter().find(|s| s.name == "evt").unwrap();
            assert_eq!(evt.parent, root_id);
        }

        #[test]
        fn ids_are_unique_across_threads() {
            let tracer = Tracer::new(4096);
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    let tracer = tracer.clone();
                    scope.spawn(move || {
                        for _ in 0..200 {
                            let s = tracer.start("w", "t");
                            tracer.end(s);
                        }
                    });
                }
            });
            let spans = tracer.recent(5000);
            assert_eq!(spans.len(), 800);
            let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 800, "span ids must be unique");
        }
    }
}
