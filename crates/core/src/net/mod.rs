//! The networked Mercury suite (§2.3, Figure 2).
//!
//! The paper runs Mercury as four cooperating pieces: the **solver** on a
//! separate machine, **monitoring daemons** on each emulated server
//! shipping 128-byte UDP utilization updates, a **sensor library** that
//! applications call as if probing a local thermal sensor, and the
//! **fiddle** tool injecting emergencies. This module implements all four
//! over UDP:
//!
//! * [`service::SolverService`] — binds a UDP socket, advances the solver
//!   at a configurable wall-clock pace, and answers sensor reads, fiddle
//!   commands, and utilization updates;
//! * [`sensor::Sensor`] — the `opensensor`/`readsensor`/`closesensor`
//!   client (Figure 3);
//! * [`monitord::Monitord`] — samples a [`monitord::UtilizationSource`]
//!   (a replayed trace, a closure, or Linux `/proc`) and streams updates;
//! * [`send_fiddle`] — one-shot fiddle delivery;
//! * [`fetch_multipart`] — one request answered by a multi-part document
//!   (a scrape, a span dump, a series query), reassembled.
//!
//! The wire format lives in [`proto`]; it is a tiny length-prefixed binary
//! encoding designed to keep a typical utilization update under the
//! paper's 128 bytes.
//!
//! Every piece meters itself through always-on [`telemetry`] handles
//! ([`metrics::NetMetrics`] server-side, [`metrics::MonitordStats`]
//! client-side), and the service exposes its whole registry — solver,
//! net, and anything callers add — as a Prometheus text exposition via
//! [`proto::Request::Scrape`].

pub mod metrics;
pub mod monitord;
pub mod proto;
pub mod sensor;
pub mod service;

pub use metrics::{MonitordStats, NetMetrics};
pub use monitord::{FnSource, Monitord, PerfSource, ProcSource, TraceSource, UtilizationSource};
pub use sensor::Sensor;
pub use service::{ServiceConfig, SolverService};

use crate::error::Error;
use crate::fiddle::FiddleCommand;
use std::collections::BTreeMap;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::Duration;

/// Sends a single fiddle command to a running solver service and waits
/// for its acknowledgement.
///
/// # Errors
///
/// Returns [`Error::Io`] for socket failures, [`Error::Timeout`] when the
/// service does not answer within a second, and [`Error::Remote`] when the
/// service rejects the command (e.g. unknown machine or node).
pub fn send_fiddle(addr: impl ToSocketAddrs, command: &FiddleCommand) -> Result<(), Error> {
    let socket = UdpSocket::bind(("127.0.0.1", 0))?;
    socket.connect(addr)?;
    socket.set_read_timeout(Some(Duration::from_secs(1)))?;
    let msg = proto::Request::Fiddle {
        command: command.clone(),
    };
    socket.send(&proto::encode_request(&msg))?;
    let mut buf = [0u8; proto::MAX_DATAGRAM];
    let n = match socket.recv(&mut buf) {
        Ok(n) => n,
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            return Err(Error::Timeout)
        }
        Err(e) => return Err(e.into()),
    };
    match proto::decode_reply(&buf[..n])? {
        proto::Reply::Ack => Ok(()),
        proto::Reply::Error { message } => Err(Error::Remote { reason: message }),
        other => Err(Error::protocol(format!(
            "unexpected reply {other:?} to a fiddle command"
        ))),
    }
}

/// A reassembled multi-part reply, with total-parts accounting so
/// callers can tell a complete document from one with datagrams missing.
#[derive(Debug, Clone)]
pub struct MultipartFetch {
    /// The received parts concatenated in part order (gaps skipped).
    pub text: String,
    /// How many distinct parts actually arrived.
    pub received: usize,
    /// How many parts the service advertised in each header.
    pub total: usize,
}

impl MultipartFetch {
    /// Whether every advertised part arrived.
    pub fn is_complete(&self) -> bool {
        self.received == self.total
    }
}

/// Sends `request` to `solver` and reassembles the [`proto::Reply::Part`]s
/// that answer it.
///
/// This is the one fetch path of every multi-part client — the
/// `mercury-stats`, `mercury-trace` and `mercury-top` tools and the
/// service's own tests. It keeps reading until every advertised part has
/// arrived or `timeout` passes with nothing new (UDP may drop
/// datagrams), and returns the parts it got in order. Callers decide
/// what a gap means — the tools warn on stderr and exit non-zero rather
/// than silently presenting a truncated document.
///
/// # Errors
///
/// Returns [`Error::Io`] for socket failures, [`Error::Protocol`] for an
/// undecodable or unexpected reply, [`Error::Remote`] when the service
/// answers with [`proto::Reply::Error`], and [`Error::Timeout`] when *no*
/// part arrives within `timeout`.
pub fn fetch_multipart(
    solver: SocketAddr,
    request: &proto::Request,
    timeout: Duration,
) -> Result<MultipartFetch, Error> {
    let socket = UdpSocket::bind("0.0.0.0:0")?;
    socket.set_read_timeout(Some(timeout))?;
    socket.send_to(&proto::encode_request(request), solver)?;

    let mut parts: BTreeMap<u16, String> = BTreeMap::new();
    let mut total: Option<u16> = None;
    let mut buf = [0u8; proto::MAX_DATAGRAM];
    while total.is_none_or(|n| parts.len() < n as usize) {
        let len = match socket.recv(&mut buf) {
            Ok(len) => len,
            // First part never arrived: a real failure. Later silence
            // just means the remaining datagrams were dropped.
            Err(e)
                if parts.is_empty()
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                return Err(Error::Timeout)
            }
            Err(e) if parts.is_empty() => return Err(e.into()),
            Err(_) => break,
        };
        match proto::decode_reply(&buf[..len])? {
            proto::Reply::Part {
                index,
                total: n,
                text,
            } => {
                total = Some(total.unwrap_or(n).max(n));
                parts.insert(index, text);
            }
            proto::Reply::Error { message } => return Err(Error::Remote { reason: message }),
            other => {
                return Err(Error::protocol(format!(
                    "unexpected reply {other:?} to a multi-part request"
                )))
            }
        }
    }
    Ok(MultipartFetch {
        received: parts.len(),
        text: parts.into_values().collect(),
        total: total.map_or(0, usize::from),
    })
}

#[cfg(test)]
mod tests {
    use super::proto::{Reply, Request};
    use super::*;

    /// Spawns a fake solver that answers the first datagram with the
    /// given replies and returns its address.
    fn fake_responder(replies: Vec<Reply>) -> SocketAddr {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = socket.local_addr().unwrap();
        std::thread::spawn(move || {
            let mut buf = [0u8; proto::MAX_DATAGRAM];
            let (_, peer) = socket.recv_from(&mut buf).unwrap();
            for reply in &replies {
                socket.send_to(&proto::encode_reply(reply), peer).unwrap();
            }
        });
        addr
    }

    fn part(index: u16, total: u16, text: &str) -> Reply {
        Reply::Part {
            index,
            total,
            text: text.into(),
        }
    }

    #[test]
    fn fetch_multipart_reassembles_in_order() {
        // Parts delivered out of order still concatenate by index.
        let addr = fake_responder(vec![part(1, 2, "b raw 2:2\n"), part(0, 2, "a raw 1:1\n")]);
        let fetch = fetch_multipart(addr, &Request::Ping, Duration::from_secs(2)).unwrap();
        assert!(fetch.is_complete());
        assert_eq!((fetch.received, fetch.total), (2, 2));
        assert_eq!(fetch.text, "a raw 1:1\nb raw 2:2\n");
    }

    #[test]
    fn fetch_multipart_accounts_for_dropped_parts() {
        // Part 1 of 3 goes missing: the fetch reports the gap instead
        // of presenting a silently truncated document.
        let addr = fake_responder(vec![part(0, 3, "a raw 1:1\n"), part(2, 3, "c raw 3:3\n")]);
        let fetch = fetch_multipart(addr, &Request::Ping, Duration::from_millis(300)).unwrap();
        assert!(!fetch.is_complete());
        assert_eq!((fetch.received, fetch.total), (2, 3));
        assert_eq!(fetch.text, "a raw 1:1\nc raw 3:3\n");
    }

    #[test]
    fn fetch_multipart_surfaces_service_errors_and_silence() {
        let addr = fake_responder(vec![Reply::Error {
            message: "series history is disabled".into(),
        }]);
        let err = fetch_multipart(addr, &Request::Ping, Duration::from_secs(2)).unwrap_err();
        assert!(
            matches!(&err, Error::Remote { reason } if reason.contains("series history is disabled")),
            "{err}"
        );

        // Nobody listening: the first recv times out into an error.
        let silent = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = silent.local_addr().unwrap();
        let err = fetch_multipart(addr, &Request::Ping, Duration::from_millis(100)).unwrap_err();
        assert!(matches!(err, Error::Timeout), "{err}");
    }
}
