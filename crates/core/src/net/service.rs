//! The solver service: Mercury's long-running network front end.

use super::metrics::NetMetrics;
use super::proto::{self, Reply, Request};
use crate::error::Error;
use crate::model::{ClusterModel, MachineModel};
use crate::solver::{ClusterSolver, Solver, SolverConfig};
use crate::units::Utilization;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::HashSet;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::tsdb::{self, Tsdb, TsdbConfig};
use telemetry::{Registry, Sampler, Severity, Tracer};

/// Most recent spans a [`Request::TraceDump`] answers with. Bounded so a
/// dump stays a few hundred datagrams even when the tracer's ring is at
/// full capacity.
const TRACE_DUMP_SPANS: usize = 2048;

/// A multi-part answer — a scrape, a span dump, a series-query result —
/// is a one-shot burst with no flow control, and at a few hundred
/// datagrams it overruns the receiver's socket buffer (~208 KiB by
/// default on Linux) long before the client can drain it. Yielding for
/// a moment every `PART_BURST` parts keeps the in-flight window well
/// under that buffer.
const PART_BURST: usize = 32;
const PART_BURST_PAUSE: Duration = Duration::from_millis(2);

/// Sends the parts of a multi-part answer to `peer`, pausing after every
/// [`PART_BURST`] datagrams.
fn send_paced(socket: &UdpSocket, peer: SocketAddr, replies: &[Reply], net: &NetMetrics) {
    for (i, reply) in replies.iter().enumerate() {
        if i > 0 && i % PART_BURST == 0 {
            std::thread::sleep(PART_BURST_PAUSE);
        }
        net.replies.inc();
        let _ = socket.send_to(&proto::encode_reply(reply), peer);
    }
}

/// Missed ticks the ticker steps back to back before it gives up on
/// them and re-anchors on the present: enough to ride out a late
/// wake-up or a thread descheduled for a few milliseconds at a 1 ms
/// pace, few enough that a long stall does not burst its whole backlog
/// into the emulated clock.
const CATCH_UP_TICKS: u32 = 32;

/// Series matched by one [`Request::SeriesQuery`] pattern, at most. A
/// registry snapshot plus per-component temperatures is a few hundred
/// series even for a large room, so the cap only bites on `*` against
/// pathological label cardinality.
const SERIES_QUERY_MAX_SERIES: usize = 512;

/// The peers whose malformed datagrams the event ring has heard of:
/// malformed traffic is counted per packet but logged once per distinct
/// peer, so one chattering client cannot wash everything else out of the
/// ring. Held to the ring's capacity, because a client that binds a
/// fresh port per send is a new peer every time: when full, the set is
/// cleared, and a peer heard from again is logged again, as the ring
/// itself would have forgotten it by then.
#[derive(Debug)]
struct MalformedPeers {
    seen: HashSet<SocketAddr>,
    capacity: usize,
}

impl MalformedPeers {
    fn new(capacity: usize) -> Self {
        MalformedPeers {
            seen: HashSet::new(),
            capacity: capacity.max(1),
        }
    }

    /// Whether `peer` is new since the set was last cleared; remembers it.
    fn first_from(&mut self, peer: SocketAddr) -> bool {
        if self.seen.contains(&peer) {
            return false;
        }
        if self.seen.len() == self.capacity {
            self.seen.clear();
        }
        self.seen.insert(peer)
    }
}

/// The emulated system behind a service: one machine or a whole room.
///
/// The variants differ a lot in size, but exactly one instance exists
/// per service thread, so boxing would only add indirection.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum EmulatedSystem {
    /// A single machine.
    Single(Solver),
    /// A cluster with an inter-machine air graph.
    Cluster(ClusterSolver),
}

impl EmulatedSystem {
    fn step(&mut self) {
        match self {
            EmulatedSystem::Single(s) => s.step(),
            EmulatedSystem::Cluster(c) => c.step(),
        }
    }

    fn time(&self) -> f64 {
        match self {
            EmulatedSystem::Single(s) => s.time().0,
            EmulatedSystem::Cluster(c) => c.time().0,
        }
    }

    fn resolve_machine(&mut self, machine: &str) -> Result<&mut Solver, Error> {
        match self {
            EmulatedSystem::Single(s) => {
                if machine.is_empty() || machine == s.machine_name() {
                    Ok(s)
                } else {
                    Err(Error::UnknownMachine {
                        name: machine.to_string(),
                    })
                }
            }
            EmulatedSystem::Cluster(c) => {
                if machine.is_empty() {
                    if c.is_empty() {
                        Err(Error::UnknownMachine {
                            name: String::new(),
                        })
                    } else {
                        Ok(c.machine_at_mut(0))
                    }
                } else {
                    c.machine_mut(machine)
                }
            }
        }
    }

    fn handle(&mut self, request: Request) -> Reply {
        let result = self.try_handle(request);
        match result {
            Ok(reply) => reply,
            Err(e) => Reply::Error {
                message: e.to_string(),
            },
        }
    }

    fn try_handle(&mut self, request: Request) -> Result<Reply, Error> {
        match request {
            Request::Ping => Ok(Reply::Pong),
            Request::ReadTemperature { machine, node } => {
                let time = self.time();
                let solver = self.resolve_machine(&machine)?;
                let t = solver.temperature(&node)?;
                Ok(Reply::Temperature { celsius: t.0, time })
            }
            Request::ListNodes { machine } => {
                let solver = self.resolve_machine(&machine)?;
                Ok(Reply::Nodes {
                    names: solver.node_names().map(str::to_string).collect(),
                })
            }
            Request::UtilizationUpdate {
                machine,
                utilizations,
            } => {
                let solver = self.resolve_machine(&machine)?;
                for (component, util) in utilizations {
                    solver.set_utilization(&component, Utilization::new(util as f64))?;
                }
                Ok(Reply::Ack)
            }
            Request::Fiddle { command } => {
                match self {
                    EmulatedSystem::Single(s) => command.apply(s)?,
                    EmulatedSystem::Cluster(c) => command.apply_to_cluster(c)?,
                }
                Ok(Reply::Ack)
            }
            // Scrapes and trace dumps are answered by the UDP front end
            // straight from the registry/tracer (no solver lock);
            // reaching here means a caller bypassed it.
            Request::Scrape => Err(Error::invalid_input(
                "scrape requests are answered by the service front end, not the solver",
            )),
            Request::TraceDump => Err(Error::invalid_input(
                "trace dumps are answered by the service front end, not the solver",
            )),
            Request::SeriesQuery { .. } => Err(Error::invalid_input(
                "series queries are answered by the service front end, not the solver",
            )),
        }
    }
}

/// Configuration of a [`SolverService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Address to bind the UDP socket to. Use port 0 to pick a free port
    /// (the actual address is available from
    /// [`SolverService::local_addr`]). The paper's example uses port 8367.
    pub bind: SocketAddr,
    /// Wall-clock duration of one emulated tick. One second matches the
    /// paper's real-time deployment; tests and experiments shrink it to
    /// fast-forward.
    pub tick_wall: Duration,
    /// Solver configuration (tick length in *emulated* seconds, etc.).
    pub solver: SolverConfig,
    /// Span tracer shared by the service: the request thread records
    /// the request lifecycle (`net.request` → `net.decode` /
    /// `net.handle` / `net.reply`), a cluster solver records its tick
    /// phases into it, and [`Request::TraceDump`] answers from it. The
    /// default detached tracer makes every span site a no-op.
    pub tracer: Tracer,
    /// Cadence of the background history sampler. `Some(period)` spawns
    /// a [`telemetry::Sampler`] that snapshots the registry and every
    /// monitored component temperature into an embedded time-series
    /// store, which [`Request::SeriesQuery`] answers from. `None` (the
    /// default) keeps history off: no sampling thread runs and series
    /// queries are answered with an error.
    pub sample_every: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            bind: "127.0.0.1:0".parse().expect("valid literal address"),
            tick_wall: Duration::from_secs(1),
            solver: SolverConfig::default(),
            tracer: Tracer::default(),
            sample_every: None,
        }
    }
}

impl ServiceConfig {
    /// A configuration suited to tests: loopback, free port, 1 ms per
    /// emulated second (a 2000 s experiment runs in 2 s of wall time).
    pub fn fast() -> Self {
        ServiceConfig {
            tick_wall: Duration::from_millis(1),
            ..ServiceConfig::default()
        }
    }
}

/// A running solver service: background ticker + UDP request handler.
///
/// ```no_run
/// use mercury::net::{Sensor, ServiceConfig, SolverService};
/// use mercury::presets;
///
/// # fn main() -> Result<(), mercury::Error> {
/// let service = SolverService::spawn_machine(&presets::validation_machine(), ServiceConfig::default())?;
/// let sensor = Sensor::open(service.local_addr(), "", "disk_shell")?;
/// let temp = sensor.read()?;
/// println!("disk is at {temp}");
/// sensor.close();
/// service.shutdown();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SolverService {
    addr: SocketAddr,
    system: Arc<Mutex<EmulatedSystem>>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// The scrape surface: solver and net metrics register here at
    /// spawn; callers may add their own before scraping.
    registry: Arc<Registry>,
    /// The span tracer from [`ServiceConfig::tracer`].
    tracer: Tracer,
    /// The embedded time-series store behind [`Request::SeriesQuery`],
    /// present when [`ServiceConfig::sample_every`] was set.
    history: Option<Arc<Tsdb>>,
    /// The background sampling thread feeding `history`; stopped before
    /// the service threads at shutdown.
    sampler: Option<Sampler>,
}

impl SolverService {
    /// Spawns a service emulating a single machine.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the socket cannot be bound and solver
    /// construction errors for an unusable configuration.
    pub fn spawn_machine(model: &MachineModel, cfg: ServiceConfig) -> Result<Self, Error> {
        let solver = Solver::new(model, cfg.solver.clone())?;
        Self::spawn(EmulatedSystem::Single(solver), cfg)
    }

    /// Spawns a service emulating a cluster.
    ///
    /// # Errors
    ///
    /// As [`SolverService::spawn_machine`].
    pub fn spawn_cluster(model: &ClusterModel, cfg: ServiceConfig) -> Result<Self, Error> {
        let solver = ClusterSolver::new(model, cfg.solver.clone())?;
        Self::spawn(EmulatedSystem::Cluster(solver), cfg)
    }

    fn spawn(mut system: EmulatedSystem, cfg: ServiceConfig) -> Result<Self, Error> {
        let socket = UdpSocket::bind(cfg.bind)?;
        socket.set_read_timeout(Some(Duration::from_millis(20)))?;
        let addr = socket.local_addr()?;

        // Build the scrape surface before the system disappears behind
        // its mutex: the solver's always-on handles register here, so a
        // scrape needs no solver lock. Cluster solvers also adopt the
        // service tracer so tick-phase spans land in the same dump as
        // the request lifecycle.
        let registry = Registry::shared();
        match &mut system {
            EmulatedSystem::Single(s) => s.metrics().register(&registry),
            EmulatedSystem::Cluster(c) => {
                c.metrics().register(&registry);
                c.set_tracer(cfg.tracer.clone());
            }
        }
        let net = NetMetrics::new();
        net.register(&registry);
        crate::build::register_build_info(&registry);

        // Temperature probe list for the history sampler, also built
        // while the system is still in hand: (series, machine index,
        // node index) triples let the sampling thread read temperatures
        // positionally under a brief lock, with no name lookups.
        let probes: Vec<(String, usize, usize)> = if cfg.sample_every.is_some() {
            let mut probes = Vec::new();
            let mut add = |machine_idx: usize, solver: &Solver| {
                for component in solver.monitored_components() {
                    if let Some(node) = solver.node_index(component) {
                        let series = format!("temp/{}/{component}", solver.machine_name());
                        probes.push((series, machine_idx, node));
                    }
                }
            };
            match &system {
                EmulatedSystem::Single(s) => add(0, s),
                EmulatedSystem::Cluster(c) => {
                    for i in 0..c.len() {
                        add(i, c.machine_at(i));
                    }
                }
            }
            probes
        } else {
            Vec::new()
        };

        let system = Arc::new(Mutex::new(system));
        let stop = Arc::new(AtomicBool::new(false));

        // History sampler: at the configured cadence, snapshot every
        // registry metric plus the probed component temperatures into
        // the embedded time-series store. The solver lock is held only
        // while the temperature values are copied out.
        let (history, sampler) = match cfg.sample_every {
            Some(period) => {
                let tsdb = Tsdb::shared(TsdbConfig::default());
                let sys = Arc::clone(&system);
                let extra: telemetry::sampler::ExtraSource = Box::new(move |out| {
                    let sys = sys.lock();
                    out.push(("mercury_emulated_time_seconds".to_string(), sys.time()));
                    for (series, machine, node) in &probes {
                        let celsius = match &*sys {
                            EmulatedSystem::Single(s) => s.temperature_at(*node),
                            EmulatedSystem::Cluster(c) => {
                                c.machine_at(*machine).temperature_at(*node)
                            }
                        };
                        out.push((series.clone(), celsius.0));
                    }
                });
                let sampler =
                    Sampler::spawn(period, Arc::clone(&tsdb), Arc::clone(&registry), extra);
                (Some(tsdb), Some(sampler))
            }
            None => (None, None),
        };

        // Ticker thread: advances emulated time at the configured pace.
        // Tick `k` is due at `start + k·pace`, and the thread sleeps only
        // until the next deadline, so neither the locked step nor sleep
        // overshoot slows the emulated clock. A ticker that fell behind
        // (a late wake-up, a descheduled thread) steps the ticks it
        // missed back to back, up to `CATCH_UP_TICKS` of them; one
        // further behind re-anchors on the present instead of bursting
        // the whole backlog.
        let ticker = {
            let system = Arc::clone(&system);
            let stop = Arc::clone(&stop);
            let pace = cfg.tick_wall;
            let max_lag = pace * CATCH_UP_TICKS;
            std::thread::Builder::new()
                .name("mercury-ticker".into())
                .spawn(move || {
                    let mut deadline = Instant::now() + pace;
                    while !stop.load(Ordering::Relaxed) {
                        let now = Instant::now();
                        if now > deadline + max_lag {
                            deadline = now;
                        }
                        std::thread::sleep(deadline.saturating_duration_since(now));
                        system.lock().step();
                        deadline += pace;
                    }
                })
                .map_err(Error::Io)?
        };

        // Request thread: answers datagrams until shutdown.
        let handler = {
            let system = Arc::clone(&system);
            let stop = Arc::clone(&stop);
            let registry = Arc::clone(&registry);
            let net = net.clone();
            let tracer = cfg.tracer.clone();
            let history = history.clone();
            let mut malformed_peers = MalformedPeers::new(registry.events().capacity());
            std::thread::Builder::new()
                .name("mercury-udp".into())
                .spawn(move || {
                    let mut buf = [0u8; proto::MAX_DATAGRAM];
                    let mut last_arrival: Option<Instant> = None;
                    while !stop.load(Ordering::Relaxed) {
                        let (n, peer) = match socket.recv_from(&mut buf) {
                            Ok(ok) => ok,
                            Err(e)
                                if e.kind() == std::io::ErrorKind::WouldBlock
                                    || e.kind() == std::io::ErrorKind::TimedOut =>
                            {
                                continue
                            }
                            Err(_) => break,
                        };
                        net.datagrams.inc();
                        let now = Instant::now();
                        if let Some(prev) = last_arrival.replace(now) {
                            let nanos = u64::try_from(now.duration_since(prev).as_nanos())
                                .unwrap_or(u64::MAX);
                            net.interarrival_nanos.observe(nanos);
                        }
                        let req_span = tracer.start("net.request", "net");
                        let decode_span = tracer.start_child("net.decode", "net", req_span.id());
                        let decoded = proto::decode_request(&buf[..n]);
                        tracer.end(decode_span);
                        match decoded {
                            Ok(Request::Scrape) => {
                                // Answered from the registry alone — a
                                // scrape never blocks on the solver.
                                net.requests_scrape.inc();
                                let text = registry.render_prometheus();
                                send_paced(&socket, peer, &proto::parts(&text), &net);
                            }
                            Ok(Request::TraceDump) => {
                                // Answered from the tracer alone. A
                                // detached tracer dumps a single empty
                                // part.
                                net.requests_trace.inc();
                                let spans = tracer.recent(TRACE_DUMP_SPANS);
                                let text = telemetry::trace::to_jsonl(&spans);
                                send_paced(&socket, peer, &proto::parts(&text), &net);
                            }
                            Ok(Request::SeriesQuery {
                                pattern,
                                start,
                                end,
                                step,
                                kind,
                            }) => {
                                // Answered from the history store alone
                                // — a series query never blocks on the
                                // solver (the sampler does the locking,
                                // briefly, on its own thread).
                                net.requests_series.inc();
                                let replies = match &history {
                                    Some(db) => {
                                        let results = db.query_matching(
                                            &pattern,
                                            SERIES_QUERY_MAX_SERIES,
                                            kind,
                                            start,
                                            end,
                                            step,
                                        );
                                        proto::parts(&tsdb::render_results(&results))
                                    }
                                    None => vec![Reply::Error {
                                        message: "series history is disabled on this service \
                                                  (spawn it with sample_every set)"
                                            .to_string(),
                                    }],
                                };
                                send_paced(&socket, peer, &replies, &net);
                            }
                            Ok(request) => {
                                net.request_counter(&request).inc();
                                let handle_span =
                                    tracer.start_child("net.handle", "net", req_span.id());
                                let reply = system.lock().handle(request);
                                tracer.end(handle_span);
                                let reply_span =
                                    tracer.start_child("net.reply", "net", req_span.id());
                                net.replies.inc();
                                let _ = socket.send_to(&proto::encode_reply(&reply), peer);
                                tracer.end(reply_span);
                            }
                            Err(e) => {
                                net.malformed.inc();
                                if tracer.is_active() {
                                    tracer.instant(
                                        "net.malformed",
                                        "net",
                                        req_span.id(),
                                        vec![(Cow::Borrowed("error"), e.to_string())],
                                    );
                                }
                                if malformed_peers.first_from(peer) {
                                    let peer_s = peer.to_string();
                                    let error_s = e.to_string();
                                    registry.event(
                                        Severity::Warn,
                                        "malformed datagram",
                                        &[("peer", &peer_s), ("error", &error_s)],
                                    );
                                }
                                let reply = Reply::Error {
                                    message: e.to_string(),
                                };
                                net.replies.inc();
                                let _ = socket.send_to(&proto::encode_reply(&reply), peer);
                            }
                        }
                        if req_span.is_live() {
                            let args = vec![(Cow::Borrowed("peer"), peer.to_string())];
                            tracer.end_with_args(req_span, args);
                        }
                    }
                })
                .map_err(Error::Io)?
        };

        Ok(SolverService {
            addr,
            system,
            stop,
            threads: vec![ticker, handler],
            registry,
            tracer: cfg.tracer,
            history,
            sampler,
        })
    }

    /// The service's telemetry registry — the document a
    /// [`Request::Scrape`] renders. The solver's and the UDP front
    /// end's metric families are registered at spawn; callers (Freon
    /// policies, experiment harnesses) may register more at any time
    /// and they appear in subsequent scrapes.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The service's span tracer (from [`ServiceConfig::tracer`]) — the
    /// store a [`Request::TraceDump`] answers from. Detached unless one
    /// was supplied at spawn.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The address the service is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The embedded time-series store behind [`Request::SeriesQuery`] —
    /// `Some` when the service was spawned with
    /// [`ServiceConfig::sample_every`] set. In-process callers (tests,
    /// experiment harnesses) can query it directly without the wire.
    pub fn history(&self) -> Option<&Arc<Tsdb>> {
        self.history.as_ref()
    }

    /// Runs a closure with exclusive access to the emulated system —
    /// useful for tests and for in-process experiment harnesses that also
    /// expose the system over the network.
    pub fn with_system<R>(&self, f: impl FnOnce(&mut EmulatedSystem) -> R) -> R {
        f(&mut self.system.lock())
    }

    /// Stops the background threads and waits for them to finish.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        // The sampler goes first: it locks the emulated system on its
        // own cadence, and there is no point sampling a stopping
        // service.
        if let Some(sampler) = self.sampler.take() {
            sampler.stop();
        }
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for SolverService {
    fn drop(&mut self) {
        // Both threads poll the stop flag with short timeouts, so joining
        // here never blocks longer than one poll interval.
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fiddle::FiddleCommand;
    use crate::presets;

    fn send(addr: SocketAddr, req: &Request) -> Reply {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        socket.connect(addr).unwrap();
        socket
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        socket.send(&proto::encode_request(req)).unwrap();
        let mut buf = [0u8; proto::MAX_DATAGRAM];
        let n = socket.recv(&mut buf).unwrap();
        proto::decode_reply(&buf[..n]).unwrap()
    }

    /// A client binding a fresh port per malformed send is a new peer
    /// every time; the set remembering them stays within the event
    /// ring's capacity.
    #[test]
    fn malformed_peer_log_is_held_to_the_ring_capacity() {
        let capacity = Registry::new().events().capacity();
        let mut peers = MalformedPeers::new(capacity);
        let peer = |port: u16| SocketAddr::from(([127, 0, 0, 1], port));
        for port in 0..(4 * capacity as u16 + 3) {
            assert!(peers.first_from(peer(port)), "port {port} is new");
            assert!(!peers.first_from(peer(port)), "port {port} was just logged");
            assert!(peers.seen.len() <= capacity);
        }
        // Clearing forgets: the first peer is logged again.
        assert!(peers.first_from(peer(0)));
    }

    #[test]
    fn ping_pong() {
        let service =
            SolverService::spawn_machine(&presets::validation_machine(), ServiceConfig::fast())
                .unwrap();
        assert_eq!(send(service.local_addr(), &Request::Ping), Reply::Pong);
        service.shutdown();
    }

    #[test]
    fn read_temperature_and_list_nodes() {
        let service =
            SolverService::spawn_machine(&presets::validation_machine(), ServiceConfig::fast())
                .unwrap();
        let addr = service.local_addr();
        let reply = send(
            addr,
            &Request::ReadTemperature {
                machine: String::new(),
                node: "cpu".into(),
            },
        );
        match reply {
            Reply::Temperature { celsius, .. } => assert!(celsius > 0.0),
            other => panic!("unexpected {other:?}"),
        }
        match send(
            addr,
            &Request::ListNodes {
                machine: String::new(),
            },
        ) {
            Reply::Nodes { names } => {
                assert!(names.contains(&"cpu".to_string()));
                assert!(names.contains(&"disk_shell".to_string()));
            }
            other => panic!("unexpected {other:?}"),
        }
        match send(
            addr,
            &Request::ReadTemperature {
                machine: String::new(),
                node: "gpu".into(),
            },
        ) {
            Reply::Error { message } => assert!(message.contains("gpu")),
            other => panic!("unexpected {other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn utilization_updates_heat_the_cpu() {
        let service =
            SolverService::spawn_machine(&presets::validation_machine(), ServiceConfig::fast())
                .unwrap();
        let addr = service.local_addr();
        let reply = send(
            addr,
            &Request::UtilizationUpdate {
                machine: String::new(),
                utilizations: vec![("cpu".into(), 1.0)],
            },
        );
        assert_eq!(reply, Reply::Ack);
        // Give the fast ticker a few hundred emulated seconds.
        std::thread::sleep(Duration::from_millis(400));
        match send(
            addr,
            &Request::ReadTemperature {
                machine: String::new(),
                node: "cpu".into(),
            },
        ) {
            Reply::Temperature { celsius, time } => {
                assert!(time > 100.0, "only {time}s elapsed");
                assert!(celsius > 30.0, "cpu only reached {celsius}");
            }
            other => panic!("unexpected {other:?}"),
        }
        service.shutdown();
    }

    /// The ticker keeps to its deadlines: an idle fast service advances
    /// one emulated second per wall millisecond, less scheduling jitter —
    /// not a step's length slow on every tick.
    #[test]
    fn idle_ticker_keeps_the_wall_clock_pace() {
        let service =
            SolverService::spawn_machine(&presets::validation_machine(), ServiceConfig::fast())
                .unwrap();
        let time = || service.with_system(|system| system.time());
        let (start, wall) = (time(), Instant::now());
        std::thread::sleep(Duration::from_millis(300));
        let emulated = time() - start;
        let per_ms = emulated / (wall.elapsed().as_secs_f64() * 1e3);
        service.shutdown();
        assert!(
            per_ms >= 0.97,
            "{emulated} emulated s in 300 ms: {per_ms} per ms"
        );
    }

    #[test]
    fn fiddle_over_the_wire() {
        let model = presets::validation_machine_named("machine1");
        let service = SolverService::spawn_machine(&model, ServiceConfig::fast()).unwrap();
        let addr = service.local_addr();
        super::super::send_fiddle(
            addr,
            &FiddleCommand::Temperature {
                machine: "machine1".into(),
                node: "inlet".into(),
                celsius: 38.6,
            },
        )
        .unwrap();
        match send(
            addr,
            &Request::ReadTemperature {
                machine: String::new(),
                node: "inlet".into(),
            },
        ) {
            Reply::Temperature { celsius, .. } => assert!((celsius - 38.6).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
        // A fiddle against an unknown machine is a remote error.
        let err = super::super::send_fiddle(
            addr,
            &FiddleCommand::FanSpeed {
                machine: "ghost".into(),
                cfm: 1.0,
            },
        )
        .unwrap_err();
        assert!(matches!(err, Error::Remote { .. }));
        service.shutdown();
    }

    /// A fiddle that carries a non-finite number never reaches the
    /// solver: the datagram fails to decode, is answered with an error
    /// and counted as malformed, and every temperature stays finite.
    #[test]
    fn a_non_finite_fiddle_is_malformed() {
        let service =
            SolverService::spawn_cluster(&presets::validation_cluster(4), ServiceConfig::fast())
                .unwrap();
        let addr = service.local_addr();
        let malformed = || {
            service
                .registry()
                .snapshot()
                .counter_family("mercury_net_malformed_total")
        };
        let before = malformed();
        for node in ["inlet", "cpu"] {
            let err = super::super::send_fiddle(
                addr,
                &FiddleCommand::Temperature {
                    machine: "machine2".into(),
                    node: node.into(),
                    celsius: f64::NAN,
                },
            )
            .unwrap_err();
            match err {
                Error::Remote { reason } => assert!(reason.contains("finite"), "{reason}"),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(malformed() - before, 2);
        // Let the ticker run a few hundred ticks past the refused pins.
        std::thread::sleep(Duration::from_millis(200));
        service.with_system(|system| {
            let EmulatedSystem::Cluster(room) = system else {
                panic!("a cluster service");
            };
            for m in 0..room.len() {
                for (node, t) in room.machine_at(m).temperatures() {
                    assert!(t.0.is_finite(), "machine {m} {node} at {t}");
                }
            }
        });
        service.shutdown();
    }

    #[test]
    fn cluster_service_routes_by_machine_name() {
        let cluster = presets::validation_cluster(2);
        let service = SolverService::spawn_cluster(&cluster, ServiceConfig::fast()).unwrap();
        let addr = service.local_addr();
        for machine in ["machine1", "machine2"] {
            match send(
                addr,
                &Request::ReadTemperature {
                    machine: machine.into(),
                    node: "cpu".into(),
                },
            ) {
                Reply::Temperature { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        match send(
            addr,
            &Request::ReadTemperature {
                machine: "machine9".into(),
                node: "cpu".into(),
            },
        ) {
            Reply::Error { message } => assert!(message.contains("machine9")),
            other => panic!("unexpected {other:?}"),
        }
        service.shutdown();
    }

    /// Sends one request and reassembles its whole multi-part answer.
    fn fetch(addr: SocketAddr, req: &Request) -> String {
        let fetch = crate::net::fetch_multipart(addr, req, Duration::from_secs(2)).unwrap();
        assert!(
            fetch.is_complete(),
            "{}/{} parts",
            fetch.received,
            fetch.total
        );
        fetch.text
    }

    #[test]
    fn scrape_exposes_solver_and_net_families() {
        let service =
            SolverService::spawn_machine(&presets::validation_machine(), ServiceConfig::fast())
                .unwrap();
        let addr = service.local_addr();
        assert_eq!(send(addr, &Request::Ping), Reply::Pong);

        // A malformed datagram is counted, answered with an error, and
        // logged once per peer.
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        socket.connect(addr).unwrap();
        socket
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        socket.send(&[0xEE, 0x01, 0x02]).unwrap();
        let mut buf = [0u8; proto::MAX_DATAGRAM];
        let n = socket.recv(&mut buf).unwrap();
        assert!(matches!(
            proto::decode_reply(&buf[..n]).unwrap(),
            Reply::Error { .. }
        ));

        std::thread::sleep(Duration::from_millis(50));
        let text = fetch(addr, &Request::Scrape);
        let samples = telemetry::text::parse_exposition(&text).unwrap();
        let value = |name: &str| {
            samples
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.value)
                .sum::<f64>()
        };
        assert!(value("mercury_solver_ticks_total") >= 1.0);
        assert!(value("mercury_net_datagrams_total") >= 3.0);
        assert!(value("mercury_net_malformed_total") >= 1.0);
        assert!(value("mercury_net_requests_total") >= 2.0);

        let events = service.registry().events().recent(16);
        assert!(
            events.iter().any(|e| e.message == "malformed datagram"),
            "missing malformed-datagram event in {events:?}"
        );
        service.shutdown();
    }

    #[test]
    fn trace_dump_returns_request_and_tick_spans() {
        let cluster = presets::validation_cluster(2);
        let cfg = ServiceConfig {
            tracer: Tracer::new(4096),
            ..ServiceConfig::fast()
        };
        let service = SolverService::spawn_cluster(&cluster, cfg).unwrap();
        let addr = service.local_addr();
        assert_eq!(send(addr, &Request::Ping), Reply::Pong);
        // Let the ticker record a few cluster ticks.
        std::thread::sleep(Duration::from_millis(50));

        let text = fetch(addr, &Request::TraceDump);
        let spans = telemetry::trace::parse_jsonl(&text).unwrap();
        assert!(!spans.is_empty());
        // The ping's full lifecycle is in the dump, parented to one
        // net.request span, alongside the solver's tick spans.
        let req = spans
            .iter()
            .find(|s| s.name == "net.request")
            .expect("request span");
        for name in ["net.decode", "net.handle", "net.reply"] {
            assert!(
                spans.iter().any(|s| s.name == name && s.parent == req.id),
                "missing {name} under net.request"
            );
        }
        assert!(spans.iter().any(|s| s.name == "cluster.tick"));
        service.shutdown();
    }

    #[test]
    fn series_query_returns_sampled_temperature_history() {
        use telemetry::tsdb::QueryKind;
        let cfg = ServiceConfig {
            sample_every: Some(Duration::from_millis(5)),
            ..ServiceConfig::fast()
        };
        let service = SolverService::spawn_machine(&presets::validation_machine(), cfg).unwrap();
        let addr = service.local_addr();
        // Let the sampler take a couple of dozen snapshots.
        std::thread::sleep(Duration::from_millis(150));

        let text = fetch(
            addr,
            &Request::SeriesQuery {
                pattern: "temp/*".into(),
                start: 0,
                end: u64::MAX,
                step: 1000,
                kind: QueryKind::Raw,
            },
        );
        let results = telemetry::tsdb::parse_results(&text).unwrap();
        let cpu = results
            .iter()
            .find(|r| r.name == "temp/server/cpu")
            .unwrap_or_else(|| panic!("no cpu series in {results:?}"));
        assert!(cpu.points.len() >= 2, "only {} samples", cpu.points.len());
        assert!(cpu
            .points
            .iter()
            .all(|p| p.mean.is_finite() && p.mean > 0.0));
        // Timestamps are the sampler's wall clock, so they ascend.
        assert!(cpu.points.windows(2).all(|w| w[0].t <= w[1].t));

        // The store is also reachable in-process, without the wire.
        let db = service.history().expect("history enabled");
        assert!(db.latest("temp/server/cpu").is_some());
        service.shutdown();
    }

    #[test]
    fn series_query_without_sampling_is_an_error() {
        use telemetry::tsdb::QueryKind;
        let service =
            SolverService::spawn_machine(&presets::validation_machine(), ServiceConfig::fast())
                .unwrap();
        assert!(service.history().is_none());
        match send(
            service.local_addr(),
            &Request::SeriesQuery {
                pattern: "*".into(),
                start: 0,
                end: u64::MAX,
                step: 0,
                kind: QueryKind::Raw,
            },
        ) {
            Reply::Error { message } => assert!(message.contains("disabled")),
            other => panic!("unexpected {other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn with_system_gives_exclusive_access() {
        let service =
            SolverService::spawn_machine(&presets::validation_machine(), ServiceConfig::fast())
                .unwrap();
        let name = service.with_system(|sys| match sys {
            EmulatedSystem::Single(s) => s.machine_name().to_string(),
            EmulatedSystem::Cluster(_) => unreachable!(),
        });
        assert_eq!(name, "server");
        service.shutdown();
    }
}
