//! `monitord` — the component-utilization monitoring daemon (§2.3).
//!
//! On each emulated server, `monitord` periodically samples the
//! utilization of the machine's components and reports it to the solver in
//! small UDP messages. The sampling back end is pluggable through
//! [`UtilizationSource`]:
//!
//! * [`ProcSource`] samples a real Linux host's `/proc/stat` and
//!   `/proc/diskstats` — the paper's deployment;
//! * [`TraceSource`] replays a recorded [`crate::trace::UtilizationTrace`];
//! * [`FnSource`] adapts a closure — how the cluster simulation feeds its
//!   per-server utilizations into Mercury.

use super::metrics::MonitordStats;
use super::proto::{self, Reply, Request};
use crate::error::Error;
use crate::trace::UtilizationTrace;
use crate::units::Seconds;
use std::fs;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use telemetry::Registry;

/// Provides `(component, utilization)` samples for one machine.
///
/// Implementations may keep state between calls (rate counters, trace
/// cursors). Returning an empty vector is allowed and simply skips the
/// update for that interval.
pub trait UtilizationSource: Send + 'static {
    /// Takes one sample. Utilizations are fractions in `[0, 1]`; values
    /// outside the range are clamped downstream.
    fn sample(&mut self) -> Vec<(String, f64)>;
}

/// A [`UtilizationSource`] backed by a closure.
#[derive(Debug)]
pub struct FnSource<F>(pub F);

impl<F> UtilizationSource for FnSource<F>
where
    F: FnMut() -> Vec<(String, f64)> + Send + 'static,
{
    fn sample(&mut self) -> Vec<(String, f64)> {
        (self.0)()
    }
}

/// Replays a recorded utilization trace row by row (one row per sample,
/// clamping at the final row), mapping trace components 1:1 onto solver
/// components.
#[derive(Debug, Clone)]
pub struct TraceSource {
    trace: UtilizationTrace,
    cursor: usize,
}

impl TraceSource {
    /// Creates a source replaying `trace` from its beginning.
    pub fn new(trace: UtilizationTrace) -> Self {
        TraceSource { trace, cursor: 0 }
    }

    /// Rows already replayed.
    pub fn position(&self) -> usize {
        self.cursor
    }
}

impl UtilizationSource for TraceSource {
    fn sample(&mut self) -> Vec<(String, f64)> {
        let t = Seconds(self.cursor as f64 * self.trace.interval().0);
        let row = match self.trace.at(t) {
            Some(row) => row,
            None => return Vec::new(),
        };
        let out = self
            .trace
            .components()
            .iter()
            .zip(row)
            .map(|(c, u)| (c.clone(), u.fraction()))
            .collect();
        if self.cursor + 1 < self.trace.len() {
            self.cursor += 1;
        }
        out
    }
}

/// The §2.3 "Mercury for modern processors" pipeline as a monitord
/// source: a provider yields per-interval performance-counter samples,
/// the event-energy model turns them into an estimated average power,
/// and the power is mapped linearly onto `[0% = P_base, 100% = P_max]` —
/// the "low-level utilization" reported to the solver, which keeps the
/// solver itself unmodified.
pub struct PerfSource<F> {
    component: String,
    model: crate::perf::EventEnergyModel,
    base: crate::units::Watts,
    max: crate::units::Watts,
    provider: F,
}

impl<F> std::fmt::Debug for PerfSource<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerfSource")
            .field("component", &self.component)
            .field("base", &self.base)
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

impl<F> PerfSource<F>
where
    F: FnMut() -> crate::perf::CounterSample + Send + 'static,
{
    /// Creates a source reporting for `component`, using `provider` to
    /// read the hardware counters each interval and `(base, max)` as the
    /// linear power range the solver was configured with.
    pub fn new(
        component: impl Into<String>,
        model: crate::perf::EventEnergyModel,
        base_w: f64,
        max_w: f64,
        provider: F,
    ) -> Self {
        PerfSource {
            component: component.into(),
            model,
            base: crate::units::Watts(base_w),
            max: crate::units::Watts(max_w),
            provider,
        }
    }
}

impl<F> UtilizationSource for PerfSource<F>
where
    F: FnMut() -> crate::perf::CounterSample + Send + 'static,
{
    fn sample(&mut self) -> Vec<(String, f64)> {
        let counters = (self.provider)();
        let util = self
            .model
            .low_level_utilization(&counters, self.base, self.max);
        vec![(self.component.clone(), util.fraction())]
    }
}

/// Samples CPU and disk utilization from a Linux host's `/proc`.
///
/// CPU utilization is `1 − idle_share` over `/proc/stat` deltas (idle +
/// iowait count as idle). Disk utilization is the rate of change of the
/// "time spent doing I/Os" field of `/proc/diskstats`. The first sample
/// after construction reports zeros (no deltas yet), matching how real
/// monitoring daemons warm up.
#[derive(Debug)]
pub struct ProcSource {
    cpu_component: String,
    disk_component: String,
    disk_device: String,
    last_cpu: Option<(u64, u64)>,
    last_disk: Option<std::time::Instant>,
    last_disk_ms: Option<u64>,
    proc_root: std::path::PathBuf,
}

impl ProcSource {
    /// Creates a source mapping the host CPU to `cpu_component` and the
    /// named block device (e.g. `"sda"`) to `disk_component`.
    pub fn new(
        cpu_component: impl Into<String>,
        disk_component: impl Into<String>,
        disk_device: impl Into<String>,
    ) -> Self {
        ProcSource {
            cpu_component: cpu_component.into(),
            disk_component: disk_component.into(),
            disk_device: disk_device.into(),
            last_cpu: None,
            last_disk: None,
            last_disk_ms: None,
            proc_root: "/proc".into(),
        }
    }

    /// Points the source at an alternative procfs root — lets tests (and
    /// containers) supply canned `stat`/`diskstats` files.
    pub fn with_proc_root(mut self, root: impl Into<std::path::PathBuf>) -> Self {
        self.proc_root = root.into();
        self
    }

    fn read_cpu_counters(&self) -> Option<(u64, u64)> {
        let text = fs::read_to_string(self.proc_root.join("stat")).ok()?;
        let line = text.lines().find(|l| l.starts_with("cpu "))?;
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        if fields.len() < 5 {
            return None;
        }
        let total: u64 = fields.iter().sum();
        // idle (index 3) + iowait (index 4).
        let idle = fields[3] + fields.get(4).copied().unwrap_or(0);
        Some((total, idle))
    }

    fn read_disk_io_ms(&self) -> Option<u64> {
        let text = fs::read_to_string(self.proc_root.join("diskstats")).ok()?;
        for line in text.lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            // name is field 2 (0-based); "time spent doing I/Os (ms)" is
            // field 12.
            if fields.len() > 12 && fields[2] == self.disk_device {
                return fields[12].parse().ok();
            }
        }
        None
    }
}

impl UtilizationSource for ProcSource {
    fn sample(&mut self) -> Vec<(String, f64)> {
        let mut out = Vec::with_capacity(2);
        if let Some((total, idle)) = self.read_cpu_counters() {
            if let Some((last_total, last_idle)) = self.last_cpu {
                let dt = total.saturating_sub(last_total);
                let di = idle.saturating_sub(last_idle);
                if dt > 0 {
                    let busy = 1.0 - di as f64 / dt as f64;
                    out.push((self.cpu_component.clone(), busy.clamp(0.0, 1.0)));
                }
            }
            self.last_cpu = Some((total, idle));
        }
        if let Some(io_ms) = self.read_disk_io_ms() {
            let now = std::time::Instant::now();
            if let (Some(last_ms), Some(last_t)) = (self.last_disk_ms, self.last_disk) {
                let wall_ms = now.duration_since(last_t).as_millis() as f64;
                if wall_ms > 0.0 {
                    let busy = io_ms.saturating_sub(last_ms) as f64 / wall_ms;
                    out.push((self.disk_component.clone(), busy.clamp(0.0, 1.0)));
                }
            }
            self.last_disk_ms = Some(io_ms);
            self.last_disk = Some(now);
        }
        out
    }
}

/// A running monitoring daemon: samples a source on an interval and ships
/// UDP updates to the solver service.
#[derive(Debug)]
pub struct Monitord {
    machine: String,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    stats: MonitordStats,
}

/// Ships one utilization update and waits for the service's reply.
///
/// Historically the reporting loop fired and forgot (`let _ =` on both
/// the send and the reply drain), which made a dead service, a chopped
/// datagram, and a healthy ack all look identical. Every outcome is now
/// classified: booked on `stats` and returned as a typed [`Error`] so
/// the loop (and tests) can tell them apart. The daemon itself stays
/// tolerant — a failed report is counted and the next interval retried.
fn report_update(
    socket: &UdpSocket,
    machine: &str,
    utilizations: Vec<(String, f32)>,
    stats: &MonitordStats,
) -> Result<(), Error> {
    let req = Request::UtilizationUpdate {
        machine: machine.to_string(),
        utilizations,
    };
    if let Err(e) = socket.send(&proto::encode_request(&req)) {
        stats.send_errors.inc();
        return Err(e.into());
    }
    stats.updates.inc();
    let mut buf = [0u8; proto::MAX_DATAGRAM];
    let n = match socket.recv(&mut buf) {
        Ok(n) => n,
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            stats.send_errors.inc();
            return Err(Error::Timeout);
        }
        Err(e) => {
            stats.send_errors.inc();
            return Err(e.into());
        }
    };
    let reply = match proto::decode_reply(&buf[..n]) {
        Ok(reply) => reply,
        Err(e) => {
            stats.malformed.inc();
            return Err(e);
        }
    };
    stats.record_reply(&reply);
    match reply {
        Reply::Ack => Ok(()),
        Reply::Error { message } => Err(Error::Remote { reason: message }),
        other => Err(Error::protocol(format!(
            "unexpected reply {other:?} to a utilization update"
        ))),
    }
}

impl Monitord {
    /// Spawns a daemon reporting for `machine` to the solver at
    /// `solver_addr`, sampling every `interval` (the paper's default is
    /// one second).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the reporting socket cannot be created.
    pub fn spawn(
        machine: impl Into<String>,
        mut source: impl UtilizationSource,
        solver_addr: SocketAddr,
        interval: Duration,
    ) -> Result<Self, Error> {
        let machine = machine.into();
        let socket = UdpSocket::bind(("0.0.0.0", 0))?;
        socket.connect(solver_addr)?;
        // The service answers every update; wait briefly for the ack so
        // outcomes can be classified (and the socket buffer stays clean).
        socket.set_read_timeout(Some(Duration::from_millis(5)))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = MonitordStats::new();
        let thread = {
            let stop = Arc::clone(&stop);
            let stats = stats.clone();
            let machine = machine.clone();
            std::thread::Builder::new()
                .name(format!("monitord-{machine}"))
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let utilizations: Vec<(String, f32)> = source
                            .sample()
                            .into_iter()
                            .map(|(c, u)| (c, u as f32))
                            .collect();
                        if !utilizations.is_empty() {
                            // Failures are booked on `stats`; the daemon
                            // retries at the next interval regardless.
                            let _ = report_update(&socket, &machine, utilizations, &stats);
                        }
                        std::thread::sleep(interval);
                    }
                })
                .map_err(Error::Io)?
        };
        Ok(Monitord {
            machine,
            stop,
            thread: Some(thread),
            stats,
        })
    }

    /// The daemon's always-on reporting counters (updates, acks,
    /// malformed replies, socket errors).
    pub fn stats(&self) -> &MonitordStats {
        &self.stats
    }

    /// Registers the `mercury_monitord_*` families on `registry`,
    /// labelled with this daemon's machine name — typically the registry
    /// of the [`SolverService`](super::SolverService) it reports to, so
    /// client-side counters appear in the same scrape.
    pub fn register_metrics(&self, registry: &Registry) {
        self.stats.register(registry, &self.machine);
    }

    /// Stops the daemon and waits for its thread.
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

impl Drop for Monitord {
    fn drop(&mut self) {
        // The sampling loop polls the stop flag each interval; intervals
        // are short in practice, so this join is brief.
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::service::{ServiceConfig, SolverService};
    use crate::presets::{self, nodes};

    #[test]
    fn fn_source_feeds_the_solver() {
        let service =
            SolverService::spawn_machine(&presets::validation_machine(), ServiceConfig::fast())
                .unwrap();
        let daemon = Monitord::spawn(
            "",
            FnSource(|| vec![("cpu".to_string(), 1.0)]),
            service.local_addr(),
            Duration::from_millis(5),
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(300));
        let util = service.with_system(|sys| match sys {
            crate::net::service::EmulatedSystem::Single(s) => s.utilization("cpu").unwrap(),
            _ => unreachable!(),
        });
        assert_eq!(util.fraction(), 1.0);
        daemon.shutdown();
        service.shutdown();
    }

    #[test]
    fn stats_count_updates_and_acks() {
        let service =
            SolverService::spawn_machine(&presets::validation_machine(), ServiceConfig::fast())
                .unwrap();
        let daemon = Monitord::spawn(
            "",
            FnSource(|| vec![("cpu".to_string(), 0.5)]),
            service.local_addr(),
            Duration::from_millis(5),
        )
        .unwrap();
        daemon.register_metrics(service.registry());
        std::thread::sleep(Duration::from_millis(300));
        let updates = daemon.stats().updates.get();
        let acks = daemon.stats().acks.get();
        assert!(updates >= 5, "only {updates} updates sent");
        assert!(acks >= 1, "no acks recorded");
        assert!(acks <= updates);
        // The daemon's counters render in the service's scrape document.
        let text = service.registry().render_prometheus();
        assert!(text.contains("mercury_monitord_updates_total"));
        daemon.shutdown();
        service.shutdown();
    }

    #[test]
    fn report_update_classifies_a_dead_service() {
        // No service behind this address: the send succeeds, the reply
        // times out, and the outcome is a typed error plus a counter.
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
        socket.connect(sink.local_addr().unwrap()).unwrap();
        socket
            .set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        let stats = MonitordStats::new();
        let err = report_update(&socket, "m", vec![("cpu".into(), 0.5)], &stats).unwrap_err();
        assert!(matches!(err, Error::Timeout));
        assert_eq!(stats.updates.get(), 1);
        assert_eq!(stats.send_errors.get(), 1);
        assert_eq!(stats.acks.get(), 0);
    }

    #[test]
    fn trace_source_replays_rows_and_clamps() {
        let trace = UtilizationTrace::from_fn("m", 1.0, vec![nodes::CPU.to_string()], 3, |t, _| {
            if t < 1.0 {
                0.2
            } else {
                0.9
            }
        })
        .unwrap();
        let mut source = TraceSource::new(trace);
        assert_eq!(source.sample()[0].1, 0.2);
        assert_eq!(source.position(), 1);
        assert_eq!(source.sample()[0].1, 0.9);
        assert_eq!(source.sample()[0].1, 0.9);
        // Clamped at the last row forever.
        assert_eq!(source.sample()[0].1, 0.9);
    }

    #[test]
    fn proc_source_parses_canned_files() {
        let dir = std::env::temp_dir().join(format!("mercury-proc-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("stat"),
            "cpu  100 0 100 800 0 0 0 0 0 0\ncpu0 100 0 100 800 0 0 0 0 0 0\n",
        )
        .unwrap();
        fs::write(
            dir.join("diskstats"),
            "   8       0 sda 100 0 100 0 0 0 0 0 0 5000 0\n",
        )
        .unwrap();
        let mut source = ProcSource::new("cpu", "disk_platters", "sda").with_proc_root(&dir);
        // First sample warms up the counters.
        let first = source.sample();
        assert!(
            first.is_empty(),
            "warm-up sample should be empty, got {first:?}"
        );
        // Advance the counters: 100 more busy jiffies, 100 more idle.
        fs::write(
            dir.join("stat"),
            "cpu  150 0 150 900 0 0 0 0 0 0\ncpu0 150 0 150 900 0 0 0 0 0 0\n",
        )
        .unwrap();
        fs::write(
            dir.join("diskstats"),
            "   8       0 sda 100 0 100 0 0 0 0 0 0 5005 0\n",
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let second = source.sample();
        let cpu = second.iter().find(|(c, _)| c == "cpu").expect("cpu sample");
        // Delta: total 200, idle 100 -> 50% busy.
        assert!((cpu.1 - 0.5).abs() < 1e-9, "cpu util {}", cpu.1);
        let disk = second
            .iter()
            .find(|(c, _)| c == "disk_platters")
            .expect("disk sample");
        assert!(disk.1 > 0.0 && disk.1 <= 1.0, "disk util {}", disk.1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn proc_source_survives_missing_files() {
        let mut source =
            ProcSource::new("cpu", "disk", "sda").with_proc_root("/definitely/not/here");
        assert!(source.sample().is_empty());
    }

    #[test]
    fn perf_source_reports_the_low_level_utilization() {
        use crate::perf::{CounterSample, EventEnergyModel};
        use crate::units::Seconds;
        // A synthetic counter stream: heavy for the first sample, idle
        // afterwards.
        let mut first = true;
        let mut source =
            PerfSource::new("cpu", EventEnergyModel::pentium4(), 12.0, 55.0, move || {
                let sample = if first {
                    CounterSample::new(Seconds(1.0))
                        .with_count("uops_retired", 2_000_000_000)
                        .with_count("l2_cache_miss", 40_000_000)
                } else {
                    CounterSample::new(Seconds(1.0))
                };
                first = false;
                sample
            });
        let busy = source.sample();
        assert_eq!(busy[0].0, "cpu");
        assert!(busy[0].1 > 0.1, "busy sample reported {}", busy[0].1);
        let idle = source.sample();
        assert_eq!(idle[0].1, 0.0, "idle sample should map to P_base");
    }

    #[test]
    fn perf_source_feeds_a_live_solver() {
        use crate::perf::{CounterSample, EventEnergyModel};
        use crate::units::Seconds;
        let service =
            SolverService::spawn_machine(&presets::validation_machine(), ServiceConfig::fast())
                .unwrap();
        let source = PerfSource::new("cpu", EventEnergyModel::pentium4(), 7.0, 31.0, || {
            CounterSample::new(Seconds(1.0))
                .with_count("uops_retired", 3_000_000_000)
                .with_count("bus_transaction", 50_000_000)
        });
        let daemon =
            Monitord::spawn("", source, service.local_addr(), Duration::from_millis(5)).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        let util = service.with_system(|sys| match sys {
            crate::net::service::EmulatedSystem::Single(s) => s.utilization("cpu").unwrap(),
            _ => unreachable!(),
        });
        assert!(util.fraction() > 0.3, "counter-driven utilization {util}");
        daemon.shutdown();
        service.shutdown();
    }

    #[test]
    fn monitord_drives_a_cluster_machine_by_name() {
        let cluster = presets::validation_cluster(2);
        let service = SolverService::spawn_cluster(&cluster, ServiceConfig::fast()).unwrap();
        let daemon = Monitord::spawn(
            "machine2",
            FnSource(|| vec![("cpu".to_string(), 0.8)]),
            service.local_addr(),
            Duration::from_millis(5),
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(200));
        let util = service.with_system(|sys| match sys {
            crate::net::service::EmulatedSystem::Cluster(c) => {
                c.machine("machine2").unwrap().utilization("cpu").unwrap()
            }
            _ => unreachable!(),
        });
        assert!((util.fraction() - 0.8).abs() < 1e-6);
        daemon.shutdown();
        service.shutdown();
    }
}
