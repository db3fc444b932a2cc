//! The networked Freon deployment (Figure 9).
//!
//! In the paper, Freon is "a couple of communicating daemons and LVS": a
//! `tempd` on every server monitors its component temperatures (through
//! Mercury's sensor interface) and, on threshold crossings, sends UDP
//! messages to `admd` at the load-balancer node, which adjusts the LVS
//! request distribution. This module is that deployment over real
//! sockets:
//!
//! * [`TempdDaemon`] — a thread that polls thermal sensors (any closure;
//!   typically [`mercury::net::Sensor`] reads against a solver service)
//!   once per monitoring period and ships [`TempdMessage`]s over UDP;
//! * [`AdmdService`] — a thread that receives those messages and applies
//!   the base-policy actions (throttle / release / red-line shutdown) to
//!   the cluster behind a lock.
//!
//! Both daemons are configured by a [`PolicySpec`] (typically the
//! built-in `freon` spec): its thresholds, gains, periods and
//! connection-cap setting. The in-process [`crate::SpecPolicy`] and this
//! networked pair share all decision logic ([`crate::Tempd`],
//! [`crate::Admd`]), so the two deployments cannot drift apart
//! behaviourally.

use crate::admd::Admd;
use crate::policy::PolicySpec;
use crate::tempd::Tempd;
use cluster_sim::ClusterSim;
use parking_lot::Mutex;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What a tempd tells admd (the paper sends "the output of a PD feedback
/// controller"; release and red-line notifications travel the same way).
#[derive(Debug, Clone, PartialEq)]
pub enum TempdMessage {
    /// A component is above `T_h`; apply the controller output.
    Throttle {
        /// Reporting server's index at the balancer.
        server: usize,
        /// `max{output_c}` from the PD controllers.
        output: f64,
    },
    /// Every monitored component fell below `T_l`; lift restrictions.
    Release {
        /// Reporting server's index.
        server: usize,
    },
    /// A component crossed its red line; the server must go offline.
    RedLine {
        /// Reporting server's index.
        server: usize,
    },
}

/// Why a datagram is not a [`TempdMessage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The datagram is empty or its first byte names no message.
    UnknownTag,
    /// The datagram is not the length its tag fixes.
    Length,
    /// A throttle's output is NaN or infinite.
    NonFiniteOutput,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DecodeError::UnknownTag => "tempd datagram names no message",
            DecodeError::Length => "tempd datagram is not its message's length",
            DecodeError::NonFiniteOutput => "tempd throttle output is not finite",
        })
    }
}

impl std::error::Error for DecodeError {}

const THROTTLE: u8 = 1;
const RELEASE: u8 = 2;
const RED_LINE: u8 = 3;

impl TempdMessage {
    /// Encodes the message for the wire: a tag byte (1 throttle, 2
    /// release, 3 red line), the server as a little-endian `u32`, then
    /// for a throttle the output as a little-endian `f64` — 13 or 5
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics when the server index does not fit in a `u32`.
    pub fn encode(&self) -> Vec<u8> {
        let (tag, server, output) = match *self {
            TempdMessage::Throttle { server, output } => (THROTTLE, server, Some(output)),
            TempdMessage::Release { server } => (RELEASE, server, None),
            TempdMessage::RedLine { server } => (RED_LINE, server, None),
        };
        let server = u32::try_from(server).expect("server indices fit in a u32");
        let mut out = Vec::with_capacity(13);
        out.push(tag);
        out.extend_from_slice(&server.to_le_bytes());
        out.extend(output.iter().flat_map(|o| o.to_le_bytes()));
        out
    }

    /// Decodes a wire message (see [`TempdMessage::encode`]).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for an unknown tag, a length other than
    /// the tag's, or a throttle output that is not finite.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let (&tag, body) = bytes.split_first().ok_or(DecodeError::UnknownTag)?;
        let server = || u32::from_le_bytes([body[0], body[1], body[2], body[3]]) as usize;
        match (tag, body.len()) {
            (THROTTLE, 12) => {
                let output = f64::from_le_bytes(body[4..].try_into().expect("eight bytes"));
                if !output.is_finite() {
                    return Err(DecodeError::NonFiniteOutput);
                }
                Ok(TempdMessage::Throttle {
                    server: server(),
                    output,
                })
            }
            (RELEASE, 4) => Ok(TempdMessage::Release { server: server() }),
            (RED_LINE, 4) => Ok(TempdMessage::RedLine { server: server() }),
            (THROTTLE | RELEASE | RED_LINE, _) => Err(DecodeError::Length),
            _ => Err(DecodeError::UnknownTag),
        }
    }
}

/// A running admd: receives [`TempdMessage`]s over UDP and actuates the
/// balancer.
#[derive(Debug)]
pub struct AdmdService {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    messages_handled: Arc<Mutex<u64>>,
}

impl AdmdService {
    /// Spawns the service on a loopback port, actuating `sim` as `spec`
    /// says: its connection-cap setting is used, and the admd samples LVS
    /// connection statistics every [`PolicySpec::sample_period_s`]
    /// *scaled* by `time_compression` (pass e.g. 0.0005 to run a sped-up
    /// experiment — the daemons only see durations). The spec's rules
    /// beyond the base throttle/release/red-line triple do not travel
    /// over the wire.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::ErrorKind::InvalidInput`] for a spec that does
    /// not validate, before any socket work, and the [`std::io::Error`]
    /// when the socket cannot be bound.
    pub fn spawn(
        sim: Arc<Mutex<ClusterSim>>,
        spec: &PolicySpec,
        time_compression: f64,
    ) -> std::io::Result<Self> {
        spec.validate()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let sample_every =
            Duration::from_secs_f64((spec.sample_period_s as f64 * time_compression).max(0.001));
        let connection_caps = spec.connection_caps;
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        socket.set_read_timeout(Some(Duration::from_millis(10)))?;
        let addr = socket.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let messages_handled = Arc::new(Mutex::new(0u64));
        let thread = {
            let stop = Arc::clone(&stop);
            let handled = Arc::clone(&messages_handled);
            std::thread::Builder::new()
                .name("freon-admd".into())
                .spawn(move || {
                    let n = sim.lock().len();
                    let mut admd = Admd::new(n);
                    let mut last_sample = std::time::Instant::now();
                    let mut buf = [0u8; 512];
                    while !stop.load(Ordering::Relaxed) {
                        if last_sample.elapsed() >= sample_every {
                            admd.sample_connections(&sim.lock());
                            last_sample = std::time::Instant::now();
                        }
                        let len = match socket.recv(&mut buf) {
                            Ok(len) => len,
                            Err(e)
                                if e.kind() == std::io::ErrorKind::WouldBlock
                                    || e.kind() == std::io::ErrorKind::TimedOut =>
                            {
                                continue
                            }
                            Err(_) => break,
                        };
                        let message = match TempdMessage::decode(&buf[..len]) {
                            Ok(m) => m,
                            Err(_) => continue, // garbage datagrams are dropped
                        };
                        let mut sim = sim.lock();
                        match message {
                            TempdMessage::Throttle { server, output } if server < n => {
                                admd.rescale_weight(&mut sim, server, output);
                                if connection_caps {
                                    admd.apply_connection_cap(&mut sim, server);
                                }
                                admd.end_interval();
                            }
                            TempdMessage::Release { server } if server < n => {
                                admd.release(&mut sim, server);
                            }
                            TempdMessage::RedLine { server } if server < n => {
                                sim.lvs_mut().set_quiesced(server, true);
                                sim.server_mut(server).shutdown_hard();
                            }
                            _ => continue,
                        }
                        *handled.lock() += 1;
                    }
                })?
        };
        Ok(AdmdService {
            addr,
            stop,
            thread: Some(thread),
            messages_handled,
        })
    }

    /// The address tempds should send to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Messages applied so far.
    pub fn messages_handled(&self) -> u64 {
        *self.messages_handled.lock()
    }

    /// Stops the service.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for AdmdService {
    fn drop(&mut self) {
        // The receive loop polls the stop flag every 10 ms.
        self.stop_and_join();
    }
}

/// A running tempd: polls temperatures and reports threshold events.
#[derive(Debug)]
pub struct TempdDaemon {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl TempdDaemon {
    /// Spawns a tempd for server `server`, checking temperatures against
    /// `spec`'s thresholds with its gains. `read_temps` produces
    /// `(component, °C)` pairs each wake-up — typically by reading
    /// Mercury sensors over UDP. The daemon wakes every
    /// [`PolicySpec::check_period_s`] scaled by `time_compression`.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::ErrorKind::InvalidInput`] for a spec that does
    /// not validate, before any socket work, and the [`std::io::Error`]
    /// when the reporting socket cannot be created.
    pub fn spawn(
        server: usize,
        spec: &PolicySpec,
        admd_addr: SocketAddr,
        time_compression: f64,
        mut read_temps: impl FnMut() -> Vec<(String, f64)> + Send + 'static,
    ) -> std::io::Result<Self> {
        spec.validate()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let spec = spec.clone();
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        socket.connect(admd_addr)?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("freon-tempd-{server}"))
                .spawn(move || {
                    let mut tempd = Tempd::new(&spec);
                    let mut restricted = false;
                    let period = Duration::from_secs_f64(
                        (spec.check_period_s as f64 * time_compression).max(0.001),
                    );
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(period);
                        let temps = read_temps();
                        let report = tempd.observe(&temps, &spec);
                        let message = if report.red_lined.is_some() {
                            Some(TempdMessage::RedLine { server })
                        } else if let Some(output) = report.output {
                            restricted = true;
                            Some(TempdMessage::Throttle { server, output })
                        } else if report.all_below_low && restricted {
                            restricted = false;
                            Some(TempdMessage::Release { server })
                        } else {
                            None
                        };
                        if let Some(message) = message {
                            let _ = socket.send(&message.encode());
                        }
                    }
                })?
        };
        Ok(TempdDaemon {
            stop,
            thread: Some(thread),
        })
    }

    /// Stops the daemon.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TempdDaemon {
    fn drop(&mut self) {
        // The wake-up period is compressed in tests; joining is quick.
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::ServerConfig;
    use proptest::prelude::*;

    #[test]
    fn messages_round_trip() {
        for message in [
            TempdMessage::Throttle {
                server: 2,
                output: 0.35,
            },
            TempdMessage::Release { server: 0 },
            TempdMessage::RedLine { server: 3 },
        ] {
            assert_eq!(TempdMessage::decode(&message.encode()).unwrap(), message);
        }
        assert!(TempdMessage::decode(b"junk").is_err());
    }

    #[test]
    fn wire_bytes_are_pinned() {
        let throttle = TempdMessage::Throttle {
            server: 0x0102_0304,
            output: 0.35,
        };
        let golden = [
            1, 4, 3, 2, 1, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0xd6, 0x3f,
        ];
        assert_eq!(throttle.encode(), golden);
        assert_eq!(
            TempdMessage::Release { server: 7 }.encode(),
            [2, 7, 0, 0, 0]
        );
        assert_eq!(
            TempdMessage::RedLine { server: 65_536 }.encode(),
            [3, 0, 0, 1, 0]
        );
        let mut nan = golden;
        nan[5..].copy_from_slice(&f64::NAN.to_le_bytes());
        for (bytes, error) in [
            (&[][..], DecodeError::UnknownTag),
            (&[0, 1, 0, 0, 0], DecodeError::UnknownTag),
            (&golden[..12], DecodeError::Length),
            (&[2, 1, 0, 0, 0, 0], DecodeError::Length),
            (&nan, DecodeError::NonFiniteOutput),
        ] {
            assert_eq!(TempdMessage::decode(bytes), Err(error), "{bytes:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Any short datagram is refused or is a message that encodes
        /// back to exactly its bytes. Half the cases start with a real
        /// tag so the length and output checks are reached.
        #[test]
        fn decode_is_total_and_exact(
            tag in 0u8..5,
            mut bytes in proptest::collection::vec(any::<u8>(), 0..=64),
            tagged in any::<bool>(),
        ) {
            if tagged && !bytes.is_empty() {
                bytes[0] = tag;
                bytes.truncate(if tag == 1 { 13 } else { 5 });
            }
            if let Ok(message) = TempdMessage::decode(&bytes) {
                prop_assert_eq!(message.encode(), bytes);
            }
        }
    }

    #[test]
    fn networked_loop_throttles_and_releases() {
        let sim = Arc::new(Mutex::new(ClusterSim::homogeneous(
            2,
            ServerConfig::default(),
        )));
        let spec = PolicySpec::builtin("freon").unwrap();
        let admd = AdmdService::spawn(Arc::clone(&sim), &spec, 0.0005).unwrap();

        // Server 0's CPU runs hot for a while, then cools below T_l.
        let hot_phase = Arc::new(AtomicBool::new(true));
        let hot_flag = Arc::clone(&hot_phase);
        let tempd = TempdDaemon::spawn(0, &spec, admd.local_addr(), 0.0005, move || {
            let t = if hot_flag.load(Ordering::Relaxed) {
                68.5
            } else {
                62.0
            };
            vec![("cpu".to_string(), t), ("disk_platters".to_string(), 40.0)]
        })
        .unwrap();

        // Wait for a throttle to land.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if sim.lock().lvs().weight(0) < 1.0 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "no throttle arrived");
            std::thread::sleep(Duration::from_millis(5));
        }

        // Cool down; the release must restore the weight.
        hot_phase.store(false, Ordering::Relaxed);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if sim.lock().lvs().weight(0) == 1.0 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "no release arrived");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(admd.messages_handled() >= 2);
        tempd.shutdown();
        admd.shutdown();
    }

    #[test]
    fn networked_red_line_kills_the_server() {
        let sim = Arc::new(Mutex::new(ClusterSim::homogeneous(
            1,
            ServerConfig::default(),
        )));
        let spec = PolicySpec::builtin("freon").unwrap();
        let admd = AdmdService::spawn(Arc::clone(&sim), &spec, 0.0005).unwrap();
        let tempd = TempdDaemon::spawn(0, &spec, admd.local_addr(), 0.0005, || {
            vec![("cpu".to_string(), 70.0)]
        })
        .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if !sim.lock().server(0).is_powered() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "red line never landed"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        tempd.shutdown();
        admd.shutdown();
    }

    /// A spec other than the built-in `freon` drives both daemons (here
    /// without connection caps), and each daemon's `spawn` refuses a spec
    /// that does not validate.
    #[test]
    fn spec_spawned_daemons_match_the_config_path() {
        let sim = Arc::new(Mutex::new(ClusterSim::homogeneous(
            1,
            ServerConfig::default(),
        )));
        let mut spec = PolicySpec::builtin("freon").unwrap();
        spec.connection_caps = false;
        let admd = AdmdService::spawn(Arc::clone(&sim), &spec, 0.0005).unwrap();
        let tempd = TempdDaemon::spawn(0, &spec, admd.local_addr(), 0.0005, || {
            vec![("cpu".to_string(), 68.5)]
        })
        .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if sim.lock().lvs().weight(0) < 1.0 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "no throttle arrived");
            std::thread::sleep(Duration::from_millis(5));
        }
        tempd.shutdown();
        admd.shutdown();

        // An invalid spec is rejected before any socket work.
        let mut bad = PolicySpec::builtin("freon").unwrap();
        bad.check_period_s = 0;
        let addr = "127.0.0.1:9".parse().unwrap();
        for err in [
            AdmdService::spawn(sim, &bad, 0.0005).unwrap_err(),
            TempdDaemon::spawn(0, &bad, addr, 0.0005, Vec::new).unwrap_err(),
        ] {
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains("periods"), "{err}");
        }
    }

    #[test]
    fn garbage_datagrams_are_ignored() {
        let sim = Arc::new(Mutex::new(ClusterSim::homogeneous(
            1,
            ServerConfig::default(),
        )));
        let spec = PolicySpec::builtin("freon").unwrap();
        let admd = AdmdService::spawn(Arc::clone(&sim), &spec, 0.001).unwrap();
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let throttle = |server, output| TempdMessage::Throttle { server, output }.encode();
        let mut nan = throttle(0, 1.0);
        nan[5..].copy_from_slice(&f64::NAN.to_le_bytes());
        for datagram in [
            b"{not json".to_vec(),
            throttle(99, 1.0),
            throttle(0, 1.0)[..12].to_vec(),
            nan,
        ] {
            socket.send_to(&datagram, admd.local_addr()).unwrap();
        }
        // A valid message sent after them lands once they are all read.
        let release = TempdMessage::Release { server: 0 }.encode();
        socket.send_to(&release, admd.local_addr()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while admd.messages_handled() == 0 {
            assert!(std::time::Instant::now() < deadline, "no release arrived");
            std::thread::sleep(Duration::from_millis(5));
        }
        // No garbage datagram crashed or actuated anything.
        assert_eq!(sim.lock().lvs().weight(0), 1.0);
        assert_eq!(admd.messages_handled(), 1);
        admd.shutdown();
    }
}
