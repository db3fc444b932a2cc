//! Wire format of the Mercury UDP protocol.
//!
//! Datagrams are small little-endian binary messages, written and read
//! through the crate's one strict codec: a decoder rejects truncation,
//! trailing bytes and anything over [`MAX_DATAGRAM`]. Strings are
//! `u8`-length-prefixed UTF-8 (node and machine names are short);
//! utilizations travel as `f32` (plenty for a `[0, 1]` fraction) and
//! temperatures as `f64`. A typical utilization update — machine name plus
//! a handful of `(component, utilization)` pairs — fits comfortably inside
//! the 128-byte updates the paper describes.
//!
//! A document too long for one datagram — a scrape, a span dump, a
//! series-query result — travels as [`Reply::Part`]s cut at line
//! boundaries by [`parts`], and `net::fetch_multipart` reassembles it.

use crate::codec::{prefix, Layout, Reader, Sink, Writer};
use crate::error::Error;
use crate::fiddle::FiddleCommand;
use telemetry::tsdb::QueryKind;

/// Largest datagram either side will send or accept.
pub const MAX_DATAGRAM: usize = 1400;

/// Longest error message a [`Reply::Error`] carries, in bytes.
const MAX_ERROR_MESSAGE: usize = 512;

/// Bytes a [`Reply::Part`] spends before its text: tag, index, total
/// and the text's length.
const PART_HEADER: usize = 7;

/// Client → service messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `monitord` reporting fresh component utilizations.
    UtilizationUpdate {
        /// Reporting machine.
        machine: String,
        /// `(component, utilization)` pairs.
        utilizations: Vec<(String, f32)>,
    },
    /// Sensor read: the temperature of one node.
    ReadTemperature {
        /// Machine to query; empty string means "the only machine".
        machine: String,
        /// Node to query.
        node: String,
    },
    /// A fiddle command to apply immediately.
    Fiddle {
        /// The command.
        command: FiddleCommand,
    },
    /// List the node names of a machine (used by sensors to validate).
    ListNodes {
        /// Machine to query; empty string means "the only machine".
        machine: String,
    },
    /// Liveness probe.
    Ping,
    /// Scrape the service's telemetry registry (Prometheus text
    /// exposition). Answered by one or more [`Reply::Part`] datagrams.
    Scrape,
    /// Dump the service's recent trace spans (JSONL, one span object
    /// per line — see `telemetry::trace`). Answered by one or more
    /// [`Reply::Part`] datagrams; a service without an attached tracer
    /// answers with a single empty part.
    TraceDump,
    /// Query the service's sampled time-series history
    /// (`telemetry::tsdb`). Answered by one or more [`Reply::Part`]
    /// datagrams carrying the line-oriented result text
    /// (`telemetry::tsdb::render_results`). A service without sampling
    /// enabled answers with [`Reply::Error`].
    SeriesQuery {
        /// `*`-glob over series names (e.g. `temp/*/cpu`).
        pattern: String,
        /// Range start timestamp, inclusive (service clock:
        /// milliseconds since the Unix epoch).
        start: u64,
        /// Range end timestamp, inclusive.
        end: u64,
        /// Bucket width for downsample/rate queries (same unit).
        step: u64,
        /// What to compute over the range.
        kind: QueryKind,
    },
}

/// Service → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Answer to [`Request::ReadTemperature`].
    Temperature {
        /// Temperature in °C.
        celsius: f64,
        /// Emulated time of the reading, seconds.
        time: f64,
    },
    /// Positive acknowledgement (updates, fiddle).
    Ack,
    /// Answer to [`Request::ListNodes`].
    Nodes {
        /// Node names.
        names: Vec<String>,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// One part of a document too long for one datagram: a scrape's
    /// exposition, a span dump or a series-query result. [`parts`] cuts
    /// the document at line boundaries into `total` parts, so each
    /// carries whole lines and the client reassembles by concatenating
    /// them in `index` order. The request fixes which document it is.
    Part {
        /// Zero-based index of this part.
        index: u16,
        /// Parts in the document.
        total: u16,
        /// This part's whole lines.
        text: String,
    },
    /// The request failed on the service side.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

const TAG_UTIL: u8 = 0x01;
const TAG_READ: u8 = 0x02;
const TAG_FIDDLE: u8 = 0x03;
const TAG_LIST: u8 = 0x04;
const TAG_PING: u8 = 0x05;
const TAG_SCRAPE: u8 = 0x06;
const TAG_TRACE_DUMP: u8 = 0x07;
const TAG_SERIES_QUERY: u8 = 0x08;

const TAG_TEMP: u8 = 0x81;
const TAG_ACK: u8 = 0x82;
const TAG_NODES: u8 = 0x83;
const TAG_PONG: u8 = 0x84;
const TAG_ERR: u8 = 0x85;
const TAG_PART: u8 = 0x86;

/// Encodes a request into a datagram, allocated once at its exact
/// length.
pub fn encode_request(req: &Request) -> Vec<u8> {
    crate::codec::exact(req)
}

/// The request layout, run by [`encode_request`] to count and to write.
impl Layout for Request {
    fn write<S: Sink>(&self, w: &mut Writer<S>) {
        match self {
            Request::UtilizationUpdate {
                machine,
                utilizations,
            } => {
                w.u8(TAG_UTIL);
                w.str_u8(machine);
                w.u8(utilizations.len().min(255) as u8);
                for (component, util) in utilizations.iter().take(255) {
                    w.str_u8(component);
                    w.f32(*util);
                }
            }
            Request::ReadTemperature { machine, node } => {
                w.u8(TAG_READ);
                w.str_u8(machine);
                w.str_u8(node);
            }
            Request::Fiddle { command } => {
                w.u8(TAG_FIDDLE);
                // Fiddle commands reuse their script syntax on the wire: the
                // service parses the line with the grammar of script files'
                // `fiddle` statements, keeping the two front doors
                // behaviourally identical.
                w.str_u16(&command.to_string());
            }
            Request::ListNodes { machine } => {
                w.u8(TAG_LIST);
                w.str_u8(machine);
            }
            Request::Ping => w.u8(TAG_PING),
            Request::Scrape => w.u8(TAG_SCRAPE),
            Request::TraceDump => w.u8(TAG_TRACE_DUMP),
            Request::SeriesQuery {
                pattern,
                start,
                end,
                step,
                kind,
            } => {
                w.u8(TAG_SERIES_QUERY);
                w.str_u8(pattern);
                w.u64(*start);
                w.u64(*end);
                w.u64(*step);
                w.u8(kind.as_u8());
            }
        }
    }
}

/// A reader over one datagram, which must fit [`MAX_DATAGRAM`].
fn datagram<'a>(data: &'a [u8], doc: &'static str) -> Result<Reader<&'a [u8]>, Error> {
    if data.len() > MAX_DATAGRAM {
        return Err(Error::protocol(format!(
            "{doc} of {} bytes exceeds MAX_DATAGRAM",
            data.len()
        )));
    }
    Ok(Reader::protocol(data, doc))
}

/// Decodes a request datagram.
///
/// # Errors
///
/// Returns [`Error::Protocol`] for truncated, oversized, or malformed
/// payloads, and for bytes after the last field.
pub fn decode_request(data: &[u8]) -> Result<Request, Error> {
    let mut r = datagram(data, "request")?;
    let request = match r.u8("tag")? {
        TAG_UTIL => {
            let machine = r.str_u8("machine")?;
            let n = r.u8("utilization count")?;
            let mut utilizations = Vec::new();
            for _ in 0..n {
                let component = r.str_u8("component")?;
                utilizations.push((component, r.f32("utilization")?));
            }
            Request::UtilizationUpdate {
                machine,
                utilizations,
            }
        }
        TAG_READ => Request::ReadTemperature {
            machine: r.str_u8("machine")?,
            node: r.str_u8("node")?,
        },
        TAG_FIDDLE => {
            let command = r
                .str_u16("fiddle command")?
                .parse()
                .map_err(|e| Error::protocol(format!("bad fiddle command on the wire: {e}")))?;
            Request::Fiddle { command }
        }
        TAG_LIST => Request::ListNodes {
            machine: r.str_u8("machine")?,
        },
        TAG_PING => Request::Ping,
        TAG_SCRAPE => Request::Scrape,
        TAG_TRACE_DUMP => Request::TraceDump,
        TAG_SERIES_QUERY => {
            let pattern = r.str_u8("pattern")?;
            let start = r.u64("start")?;
            let end = r.u64("end")?;
            let step = r.u64("step")?;
            let kind = QueryKind::from_u8(r.u8("query kind")?)
                .ok_or_else(|| r.invalid("query kind", "unknown series query kind"))?;
            if start > end {
                return Err(r.invalid("end", "series query range is inverted"));
            }
            Request::SeriesQuery {
                pattern,
                start,
                end,
                step,
                kind,
            }
        }
        other => return Err(r.invalid("tag", format_args!("unknown request tag {other:#04x}"))),
    };
    r.finish()?;
    Ok(request)
}

/// Cuts a multi-line document into [`Reply::Part`]s that each encode
/// within [`MAX_DATAGRAM`], breaking at line boundaries so every part
/// carries whole lines and the client reassembles by plain
/// concatenation. (A single line longer than one datagram is hard-split
/// as a fallback rather than dropped.) An empty document is one empty
/// part.
pub fn parts(text: &str) -> Vec<Reply> {
    const BUDGET: usize = MAX_DATAGRAM - PART_HEADER;
    let mut chunks: Vec<String> = vec![String::new()];
    let mut push = |piece: &str| {
        let last = chunks.last_mut().expect("seeded with one chunk");
        if !last.is_empty() && last.len() + piece.len() > BUDGET {
            chunks.push(piece.to_string());
        } else {
            last.push_str(piece);
        }
    };
    for line in text.split_inclusive('\n') {
        let mut rest = line;
        while rest.len() > BUDGET {
            let head = prefix(rest, BUDGET);
            push(head);
            rest = &rest[head.len()..];
        }
        push(rest);
    }
    let total = chunks.len() as u16;
    chunks
        .into_iter()
        .enumerate()
        .map(|(i, text)| Reply::Part {
            index: i as u16,
            total,
            text,
        })
        .collect()
}

/// Encodes a reply into a datagram, allocated once at its exact length.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    crate::codec::exact(reply)
}

/// The reply layout, run by [`encode_reply`] to count and to write.
impl Layout for Reply {
    fn write<S: Sink>(&self, w: &mut Writer<S>) {
        match self {
            Reply::Temperature { celsius, time } => {
                w.u8(TAG_TEMP);
                w.f64(*celsius);
                w.f64(*time);
            }
            Reply::Ack => w.u8(TAG_ACK),
            Reply::Nodes { names } => {
                w.u8(TAG_NODES);
                w.u8(names.len().min(255) as u8);
                for name in names.iter().take(255) {
                    w.str_u8(name);
                }
            }
            Reply::Pong => w.u8(TAG_PONG),
            Reply::Part { index, total, text } => {
                w.u8(TAG_PART);
                w.u16(*index);
                w.u16(*total);
                w.str_u16(prefix(text, MAX_DATAGRAM - PART_HEADER));
            }
            Reply::Error { message } => {
                w.u8(TAG_ERR);
                w.str_u16(prefix(message, MAX_ERROR_MESSAGE));
            }
        }
    }
}

/// Decodes a reply datagram.
///
/// # Errors
///
/// Returns [`Error::Protocol`] for truncated, oversized, or malformed
/// payloads, and for bytes after the last field.
pub fn decode_reply(data: &[u8]) -> Result<Reply, Error> {
    let mut r = datagram(data, "reply")?;
    let reply = match r.u8("tag")? {
        TAG_TEMP => Reply::Temperature {
            celsius: r.f64("celsius")?,
            time: r.f64("time")?,
        },
        TAG_ACK => Reply::Ack,
        TAG_NODES => {
            let n = r.u8("node count")?;
            let mut names = Vec::new();
            for _ in 0..n {
                names.push(r.str_u8("node")?);
            }
            Reply::Nodes { names }
        }
        TAG_PONG => Reply::Pong,
        TAG_PART => {
            let index = r.u16("part index")?;
            let total = r.u16("part total")?;
            if index >= total {
                return Err(r.invalid("part index", format_args!("part {index} of {total}")));
            }
            Reply::Part {
                index,
                total,
                text: r.str_u16("part text")?,
            }
        }
        TAG_ERR => {
            let message = r.str_u16("error message")?;
            if message.len() > MAX_ERROR_MESSAGE {
                return Err(r.invalid(
                    "error message",
                    format_args!("longer than {MAX_ERROR_MESSAGE} bytes"),
                ));
            }
            Reply::Error { message }
        }
        other => return Err(r.invalid("tag", format_args!("unknown reply tag {other:#04x}"))),
    };
    r.finish()?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One request of every kind.
    fn requests() -> Vec<Request> {
        let mut requests = vec![
            Request::Ping,
            Request::Scrape,
            Request::TraceDump,
            Request::ReadTemperature {
                machine: "machine1".into(),
                node: "disk_shell".into(),
            },
            Request::ListNodes {
                machine: String::new(),
            },
            Request::UtilizationUpdate {
                machine: "machine1".into(),
                utilizations: vec![("cpu".into(), 0.75), ("disk_platters".into(), 0.1)],
            },
            Request::Fiddle {
                command: FiddleCommand::Temperature {
                    machine: "machine1".into(),
                    node: "inlet".into(),
                    celsius: 38.6,
                },
            },
        ];
        for kind in [QueryKind::Raw, QueryKind::Downsample, QueryKind::Rate] {
            requests.push(Request::SeriesQuery {
                pattern: "temp/*/cpu".into(),
                start: 1_700_000_000_000,
                end: u64::MAX,
                step: 10_000,
                kind,
            });
        }
        requests
    }

    /// One reply of every kind.
    fn replies() -> Vec<Reply> {
        vec![
            Reply::Ack,
            Reply::Pong,
            Reply::Temperature {
                celsius: 35.25,
                time: 1234.0,
            },
            Reply::Nodes {
                names: vec!["cpu".into(), "cpu_air".into()],
            },
            Reply::Error {
                message: "unknown node `gpu`".into(),
            },
            Reply::Part {
                index: 1,
                total: 3,
                text: "mercury_solver_ticks_total 42\n".into(),
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in requests() {
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
    }

    #[test]
    fn replies_round_trip() {
        for reply in replies() {
            assert_eq!(decode_reply(&encode_reply(&reply)).unwrap(), reply);
        }
    }

    #[test]
    fn every_kind_rejects_a_trailing_byte() {
        for req in requests() {
            let mut bytes = encode_request(&req);
            bytes.push(0);
            assert!(
                decode_request(&bytes).is_err(),
                "{req:?} with a trailing byte"
            );
        }
        for reply in replies() {
            let mut bytes = encode_reply(&reply);
            bytes.push(0);
            assert!(
                decode_reply(&bytes).is_err(),
                "{reply:?} with a trailing byte"
            );
        }
    }

    #[test]
    fn series_query_validates_on_decode() {
        let good = encode_request(&Request::SeriesQuery {
            pattern: "*".into(),
            start: 10,
            end: 20,
            step: 1,
            kind: QueryKind::Raw,
        });
        assert!(decode_request(&good).is_ok());
        // Unknown kind byte rejected.
        let mut bad_kind = good.clone();
        let last = bad_kind.len() - 1;
        bad_kind[last] = 99;
        assert!(decode_request(&bad_kind).is_err());
        // Inverted range rejected.
        let inverted = encode_request(&Request::SeriesQuery {
            pattern: "*".into(),
            start: 20,
            end: 10,
            step: 1,
            kind: QueryKind::Raw,
        });
        assert!(decode_request(&inverted).is_err());
        for cut in 1..good.len() {
            let _ = decode_request(&good[..cut]); // must not panic
        }
    }

    /// Each multi-part document — a scrape's exposition, a JSONL span
    /// dump, a series-query result — splits into whole-line parts that
    /// fit a datagram and reassemble to the document.
    #[test]
    fn parts_split_reassemble_and_fit_datagrams() {
        // ~100 metric lines.
        let metrics: String = (0..100)
            .map(|i| format!("mercury_test_metric_number_{i}{{label=\"value-{i}\"}} {i}\n"))
            .collect();
        // ~200 span lines.
        let spans: String = (1..=200u64)
            .map(|i| {
                format!(
                    "{{\"id\":{i},\"parent\":0,\"tid\":0,\"start_ns\":{},\"dur_ns\":10,\
                     \"cat\":\"solver\",\"name\":\"cluster.tick\",\"args\":{{}}}}\n",
                    i * 1000
                )
            })
            .collect();
        // 40 series lines of 12 buckets each.
        let series: String = (0..40)
            .map(|m| {
                let buckets: String = (0..12)
                    .map(|b| format!(" {}:40.1:41.25:42.9", b * 10_000))
                    .collect();
                format!("temp/machine{m}/cpu ds{buckets}\n")
            })
            .collect();
        for doc in [&metrics, &spans, &series] {
            let replies = parts(doc);
            assert!(replies.len() > 1, "expected a multi-part document");
            let mut reassembled = String::new();
            for (i, reply) in replies.iter().enumerate() {
                let encoded = encode_reply(reply);
                assert!(encoded.len() <= MAX_DATAGRAM, "part {i} oversized");
                match decode_reply(&encoded).unwrap() {
                    Reply::Part { index, total, text } => {
                        assert_eq!(index as usize, i);
                        assert_eq!(total as usize, replies.len());
                        assert!(text.ends_with('\n'), "parts carry whole lines");
                        reassembled.push_str(&text);
                    }
                    other => panic!("expected a part, got {other:?}"),
                }
            }
            assert_eq!(&reassembled, doc);
        }
        assert_eq!(
            telemetry::trace::parse_jsonl(&spans).unwrap().len(),
            200,
            "each span line parses"
        );
        let parsed = telemetry::tsdb::parse_results(&series).unwrap();
        assert_eq!(parsed.len(), 40);
        assert_eq!(parsed[0].points.len(), 12);
        assert_eq!(
            parts(""),
            vec![Reply::Part {
                index: 0,
                total: 1,
                text: String::new()
            }]
        );
    }

    #[test]
    fn metrics_part_index_validated() {
        let good = encode_reply(&Reply::Part {
            index: 2,
            total: 3,
            text: "x 1\n".into(),
        });
        assert!(decode_reply(&good).is_ok());
        // Corrupt `total` (LE u16 at bytes 3..5) below `index`.
        let mut raw = good.clone();
        raw[3] = 1;
        raw[4] = 0;
        assert!(decode_reply(&raw).is_err());
    }

    #[test]
    fn utilization_update_fits_the_papers_128_bytes() {
        // The paper's monitord sends 128-byte UDP messages; a realistic
        // update (machine name + CPU/disk/NIC utilizations) must fit.
        let req = Request::UtilizationUpdate {
            machine: "machine1".into(),
            utilizations: vec![
                ("cpu".into(), 0.73),
                ("disk_platters".into(), 0.21),
                ("nic".into(), 0.05),
            ],
        };
        let bytes = encode_request(&req);
        assert!(bytes.len() <= 128, "update was {} bytes", bytes.len());
    }

    #[test]
    fn truncated_datagrams_error_cleanly() {
        for req in requests() {
            let full = encode_request(&req);
            for cut in 0..full.len() {
                assert!(
                    decode_request(&full[..cut]).is_err(),
                    "{req:?} cut at {cut}"
                );
            }
        }
        assert!(decode_request(&[0xFF]).is_err());
        assert!(decode_reply(&[]).is_err());
        assert!(decode_reply(&[0x00]).is_err());
    }

    #[test]
    fn fiddle_wire_format_rejects_garbage() {
        let mut buf = vec![0x03u8];
        buf.extend_from_slice(&(5u16).to_le_bytes());
        buf.extend_from_slice(b"junk!");
        assert!(decode_request(&buf).is_err());
    }

    /// A fiddle datagram carries one command line: an empty payload, a
    /// bare `sleep` or a second command is refused, and a refusal reads
    /// as the script parser's would.
    #[test]
    fn a_fiddle_datagram_is_one_command() {
        let fiddle = |line: &str| {
            let mut buf = vec![TAG_FIDDLE];
            buf.extend_from_slice(&(line.len() as u16).to_le_bytes());
            buf.extend_from_slice(line.as_bytes());
            decode_request(&buf)
        };
        assert_eq!(
            fiddle("fiddle m1 fanspeed 19.3").unwrap(),
            Request::Fiddle {
                command: FiddleCommand::FanSpeed {
                    machine: "m1".into(),
                    cfm: 19.3
                }
            }
        );
        for line in ["", "sleep 10", "fiddle m1 fanspeed 1\nfiddle m2 fanspeed 2"] {
            assert!(fiddle(line).is_err(), "`{line}`");
        }
        match fiddle("fiddle m1 fanspeed nan") {
            Err(Error::Protocol { reason }) => assert_eq!(
                reason,
                "bad fiddle command on the wire: fiddle script error at line 1: \
                 `nan` is not a finite number"
            ),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_datagram_rejected() {
        assert!(decode_request(&vec![0x05u8; MAX_DATAGRAM + 1]).is_err());
        let mut reply = encode_reply(&Reply::Error {
            message: "x".repeat(MAX_ERROR_MESSAGE),
        });
        assert!(decode_reply(&reply).is_ok());
        reply.resize(MAX_DATAGRAM + 1, b'x');
        assert!(decode_reply(&reply).is_err());
    }
}
