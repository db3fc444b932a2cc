//! The routing contract and the service model, each against an oracle
//! that shares no code with the crate.
//!
//! `ClusterSim::tick` routes each admission batch through
//! `LoadBalancer::route_batch` (one heap per batch); `LoadBalancer::route`
//! is the single-request scan. Both must make the choice the contract
//! states, which `oracle_route` below spells out from public getters
//! alone: among servers that are accepting, not quiesced, of positive
//! weight, below `max_connections` and below their cap, the smallest
//! `connections / weight`, ties to the lowest index; nobody eligible is a
//! drop. Because the oracle shares no code with the crate, dropping an
//! eligibility clause or the index tie-break from the crate fails here.
//!
//! `Server::serve_slice` keeps two floats per connection, skips idle
//! servers and compacts by count. `ReferenceServer` below is the service
//! model as first written — full request records, two counting passes
//! and one charging pass per round, a completion test per record — and
//! a whole `ClusterSim` must match a cluster of them bit for bit.

use cluster_sim::{
    ClusterSim, LoadBalancer, PowerState, Request, RequestKind, RouteHeap, RouteOutcome, Server,
    ServerConfig, TickStats,
};
use proptest::prelude::*;

/// What routing may read of a server: accepting, connections,
/// `max_connections`.
type ServerView = (bool, usize, usize);

fn view(server: &Server) -> ServerView {
    (
        server.accepts_connections(),
        server.connections(),
        server.config().max_connections,
    )
}

/// The contract, restated independently of the crate's implementation.
fn oracle_route(lvs: &LoadBalancer, servers: impl Iterator<Item = ServerView>) -> RouteOutcome {
    let mut best: Option<(usize, f64)> = None;
    for (i, (accepting, connections, max_connections)) in servers.enumerate() {
        let eligible = accepting
            && !lvs.is_quiesced(i)
            && lvs.weight(i) > 0.0
            && connections < max_connections
            && lvs.connection_cap(i).is_none_or(|cap| connections < cap);
        if !eligible {
            continue;
        }
        let ratio = connections as f64 / lvs.weight(i);
        if best.is_none_or(|(_, least)| ratio < least) {
            best = Some((i, ratio));
        }
    }
    best.map_or(RouteOutcome::Dropped, |(i, _)| RouteOutcome::Routed(i))
}

#[derive(Debug, Clone, Copy)]
enum Power {
    On,
    Off,
    Booting,
    Draining,
}

#[derive(Debug, Clone)]
struct ServerSpec {
    weight: f64,
    cap: Option<usize>,
    quiesced: bool,
    power: Power,
    max_connections: usize,
    preload: usize,
}

fn weight() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(5e-324), // subnormal: every busy server's ratio is +inf
        Just(1.0),
        Just(1.0),
        Just(0.5),
        0.1..4.0f64,
    ]
}

fn cap() -> impl Strategy<Value = Option<usize>> {
    prop_oneof![Just(None), Just(Some(0)), (1..7usize).prop_map(Some)]
}

fn server_spec() -> impl Strategy<Value = ServerSpec> {
    (weight(), cap(), 0..5u8, 0..8u8, 1..9usize, 0..9usize).prop_map(
        |(weight, cap, quiesced, power, max_connections, preload)| ServerSpec {
            weight,
            cap,
            quiesced: quiesced == 0,
            power: match power {
                0 => Power::Off,
                1 => Power::Booting,
                2 => Power::Draining,
                _ => Power::On,
            },
            max_connections,
            preload,
        },
    )
}

fn build(specs: &[ServerSpec]) -> (LoadBalancer, Vec<Server>) {
    let mut lvs = LoadBalancer::new(specs.len());
    let servers = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            lvs.set_weight(i, spec.weight);
            lvs.set_connection_cap(i, spec.cap);
            lvs.set_quiesced(i, spec.quiesced);
            let mut server = Server::new(ServerConfig {
                max_connections: spec.max_connections,
                boot_seconds: 3,
                ..ServerConfig::default()
            });
            for _ in 0..spec.preload.min(spec.max_connections) {
                server.admit(Request::dynamic());
            }
            match spec.power {
                Power::On => {}
                Power::Off => {
                    server.shutdown_hard();
                }
                Power::Booting => {
                    server.shutdown_hard();
                    server.power_on();
                }
                Power::Draining => server.shutdown_graceful(),
            }
            server
        })
        .collect();
    (lvs, servers)
}

fn connections(servers: &[Server]) -> Vec<usize> {
    servers.iter().map(Server::connections).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_batch_routes_like_the_scan_and_the_contract(
        specs in proptest::collection::vec(server_spec(), 1..=40),
        batch in 0..160usize,
    ) {
        let (lvs, mut by_oracle) = build(&specs);
        let mut by_scan = by_oracle.clone();
        let mut by_batch = by_oracle.clone();

        let mut expected = Vec::with_capacity(batch);
        for _ in 0..batch {
            let outcome = oracle_route(&lvs, by_oracle.iter().map(view));
            prop_assert_eq!(lvs.route(&by_scan), outcome);
            if let RouteOutcome::Routed(i) = outcome {
                by_oracle[i].admit(Request::static_file());
                by_scan[i].admit(Request::static_file());
            }
            expected.push(outcome);
        }

        let mut got = Vec::with_capacity(batch);
        // A heap that has seen another cluster must not leak into this one.
        let mut heap = RouteHeap::default();
        let (other_lvs, mut other) = build(&specs[..specs.len() / 2]);
        other_lvs.route_batch(&mut other, &mut heap, [Request::dynamic()], |_| {});
        lvs.route_batch(
            &mut by_batch,
            &mut heap,
            (0..batch).map(|_| Request::static_file()),
            |outcome| got.push(outcome),
        );

        // Index sequence and drops alike: a drop is an element too.
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(connections(&by_batch), connections(&by_oracle));
    }
}

/// A request as the service model first kept it: the demands it came
/// with beside what is left of them.
#[derive(Debug, Clone)]
struct ReferenceRequest {
    remaining_cpu_ms: f64,
    remaining_disk_ms: f64,
}

impl ReferenceRequest {
    fn serve(&mut self, cpu_budget_ms: f64, disk_budget_ms: f64) -> (f64, f64) {
        let cpu_used = self.remaining_cpu_ms.min(cpu_budget_ms.max(0.0));
        self.remaining_cpu_ms -= cpu_used;
        let disk_used = self.remaining_disk_ms.min(disk_budget_ms.max(0.0));
        self.remaining_disk_ms -= disk_used;
        (cpu_used, disk_used)
    }

    fn is_complete(&self) -> bool {
        self.remaining_cpu_ms <= 1e-9 && self.remaining_disk_ms <= 1e-9
    }
}

/// `Server` as first written, life cycle included, sharing nothing with
/// it but the public `ServerConfig` and `PowerState` types.
#[derive(Debug, Clone)]
struct ReferenceServer {
    config: ServerConfig,
    state: PowerState,
    active: Vec<ReferenceRequest>,
    speed_scale: f64,
    cpu_utilization: f64,
    disk_utilization: f64,
    tick_cpu_used: f64,
    tick_disk_used: f64,
    tick_completed: usize,
    tick_request_seconds: f64,
    killed_total: u64,
}

impl ReferenceServer {
    fn new(config: ServerConfig) -> Self {
        ReferenceServer {
            config,
            state: PowerState::On,
            active: Vec::new(),
            speed_scale: 1.0,
            cpu_utilization: 0.0,
            disk_utilization: 0.0,
            tick_cpu_used: 0.0,
            tick_disk_used: 0.0,
            tick_completed: 0,
            tick_request_seconds: 0.0,
            killed_total: 0,
        }
    }

    fn view(&self) -> ServerView {
        (
            self.state == PowerState::On,
            self.active.len(),
            self.config.max_connections,
        )
    }

    fn admit(&mut self, request: &Request) {
        self.active.push(ReferenceRequest {
            remaining_cpu_ms: request.cpu_ms(),
            remaining_disk_ms: request.disk_ms(),
        });
    }

    fn set_speed_scale(&mut self, scale: f64) {
        self.speed_scale = if scale.is_finite() {
            scale.clamp(0.25, 1.0)
        } else {
            1.0
        };
    }

    fn power_on(&mut self) {
        if self.state == PowerState::Off {
            self.state = match self.config.boot_seconds {
                0 => PowerState::On,
                remaining => PowerState::Booting { remaining },
            };
        }
    }

    fn shutdown_graceful(&mut self) {
        self.state = match self.state {
            PowerState::On if !self.active.is_empty() => PowerState::Draining,
            PowerState::On | PowerState::Booting { .. } => PowerState::Off,
            state => state,
        };
    }

    fn shutdown_hard(&mut self) -> usize {
        let killed = self.active.len();
        self.killed_total += killed as u64;
        self.active.clear();
        self.state = PowerState::Off;
        self.cpu_utilization = 0.0;
        self.disk_utilization = 0.0;
        killed
    }

    fn begin_tick(&mut self) {
        self.tick_cpu_used = 0.0;
        self.tick_disk_used = 0.0;
        self.tick_completed = 0;
        self.tick_request_seconds = 0.0;
    }

    /// The three-pass processor-sharing loop, verbatim.
    fn serve_slice(&mut self, fraction: f64) {
        if !matches!(self.state, PowerState::On | PowerState::Draining) {
            return;
        }
        let mut cpu_left = self.config.cpu_capacity_ms * self.speed_scale * fraction;
        let mut disk_left = self.config.disk_capacity_ms * fraction;
        for _ in 0..32 {
            let cpu_hungry = self
                .active
                .iter()
                .filter(|r| r.remaining_cpu_ms > 1e-9)
                .count();
            let disk_hungry = self
                .active
                .iter()
                .filter(|r| r.remaining_disk_ms > 1e-9)
                .count();
            if (cpu_hungry == 0 || cpu_left <= 1e-9) && (disk_hungry == 0 || disk_left <= 1e-9) {
                break;
            }
            let cpu_share = if cpu_hungry > 0 {
                cpu_left / cpu_hungry as f64
            } else {
                0.0
            };
            let disk_share = if disk_hungry > 0 {
                disk_left / disk_hungry as f64
            } else {
                0.0
            };
            for r in &mut self.active {
                let want_cpu = if r.remaining_cpu_ms > 1e-9 {
                    cpu_share
                } else {
                    0.0
                };
                let want_disk = if r.remaining_disk_ms > 1e-9 {
                    disk_share
                } else {
                    0.0
                };
                let (c, d) = r.serve(want_cpu, want_disk);
                cpu_left -= c;
                disk_left -= d;
                self.tick_cpu_used += c;
                self.tick_disk_used += d;
            }
        }
        self.active.retain(|r| {
            if r.is_complete() {
                self.tick_completed += 1;
                false
            } else {
                true
            }
        });
        self.tick_request_seconds += self.active.len() as f64 * fraction;
    }

    fn end_tick(&mut self) -> usize {
        match self.state {
            PowerState::Off => {
                self.cpu_utilization = 0.0;
                self.disk_utilization = 0.0;
            }
            PowerState::Booting { remaining } => {
                self.cpu_utilization = 1.0;
                self.disk_utilization = 0.5;
                self.state = if remaining <= 1 {
                    PowerState::On
                } else {
                    PowerState::Booting {
                        remaining: remaining - 1,
                    }
                };
            }
            PowerState::On | PowerState::Draining => {
                self.cpu_utilization = (self.tick_cpu_used
                    / (self.config.cpu_capacity_ms * self.speed_scale))
                    .clamp(0.0, 1.0);
                self.disk_utilization =
                    (self.tick_disk_used / self.config.disk_capacity_ms).clamp(0.0, 1.0);
                if self.state == PowerState::Draining && self.active.is_empty() {
                    self.state = PowerState::Off;
                }
            }
        }
        self.tick_completed
    }
}

/// `ClusterSim::tick` rebuilt from the two oracles: the same 20
/// admission slots, each request routed by the contract's scan and
/// served by the reference server.
fn reference_tick(
    lvs: &LoadBalancer,
    servers: &mut [ReferenceServer],
    arrivals: &[Request],
) -> TickStats {
    const SLOTS: usize = 20;
    let mut stats = TickStats {
        offered: arrivals.len(),
        ..TickStats::default()
    };
    for server in servers.iter_mut() {
        server.begin_tick();
    }
    let per_slot = arrivals.len().div_ceil(SLOTS);
    let mut queue = arrivals.iter();
    for _ in 0..SLOTS {
        for request in queue.by_ref().take(per_slot) {
            match oracle_route(lvs, servers.iter().map(ReferenceServer::view)) {
                RouteOutcome::Routed(i) => {
                    servers[i].admit(request);
                    stats.routed += 1;
                }
                RouteOutcome::Dropped => stats.dropped += 1,
            }
        }
        for server in servers.iter_mut() {
            server.serve_slice(1.0 / SLOTS as f64);
        }
    }
    for server in servers.iter_mut() {
        stats.completed += server.end_tick();
        stats.request_seconds += server.tick_request_seconds;
    }
    stats.connections = servers.iter().map(|s| s.active.len()).collect();
    stats.cpu_utilization = servers.iter().map(|s| s.cpu_utilization).collect();
    stats.disk_utilization = servers.iter().map(|s| s.disk_utilization).collect();
    stats
}

/// Every field of a `TickStats`, floats by bit pattern.
fn bits(stats: &TickStats) -> (Vec<usize>, Vec<u64>) {
    let counts = [stats.offered, stats.routed, stats.dropped, stats.completed]
        .into_iter()
        .chain(stats.connections.iter().copied())
        .collect();
    let floats = std::iter::once(stats.request_seconds)
        .chain(stats.cpu_utilization.iter().copied())
        .chain(stats.disk_utilization.iter().copied())
        .map(f64::to_bits)
        .collect();
    (counts, floats)
}

/// The paper's two kinds, plus what stresses the service model: a
/// request complete at admission, one far above a slice's budget, a
/// disk-bound one, and arbitrary demands whose sums round differently
/// in a different order.
fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::dynamic()),
        Just(Request::static_file()),
        Just(Request::static_file()),
        Just(Request::new(RequestKind::Static, 0.0, 0.0)),
        Just(Request::new(RequestKind::Dynamic, 5_000.0, 0.0)),
        Just(Request::new(RequestKind::Static, 1.0, 30.0)),
        (0.0..60.0f64, 0.0..60.0f64).prop_map(|(cpu, disk)| Request::new(
            RequestKind::Dynamic,
            cpu,
            disk
        )),
    ]
}

fn server_config() -> impl Strategy<Value = ServerConfig> {
    let capacity = || prop_oneof![Just(1000.0), 150.0..3000.0f64];
    (capacity(), capacity(), 4..40usize).prop_map(|(cpu, disk, max_connections)| ServerConfig {
        cpu_capacity_ms: cpu,
        disk_capacity_ms: disk,
        boot_seconds: 2,
        max_connections,
    })
}

/// What Freon does to a running cluster between ticks.
#[derive(Debug, Clone)]
enum Action {
    SetWeight(usize, f64),
    SetCap(usize, Option<usize>),
    SetQuiesced(usize, bool),
    SetSpeedScale(usize, f64),
    ShutdownHard(usize),
    ShutdownGraceful(usize),
    PowerOn(usize),
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0..64usize, weight()).prop_map(|(i, w)| Action::SetWeight(i, w)),
        (0..64usize, proptest::option::of(0..30usize)).prop_map(|(i, c)| Action::SetCap(i, c)),
        (0..64usize, any::<bool>()).prop_map(|(i, q)| Action::SetQuiesced(i, q)),
        (0..64usize, 0.1..1.2f64).prop_map(|(i, s)| Action::SetSpeedScale(i, s)),
        (0..64usize).prop_map(Action::ShutdownHard),
        (0..64usize).prop_map(Action::ShutdownGraceful),
        (0..64usize).prop_map(Action::PowerOn),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tick_equals_the_scan_built_reference_tick(
        configs in proptest::collection::vec(server_config(), 1..=12),
        seconds in proptest::collection::vec(
            (
                proptest::collection::vec(request(), 0..320),
                proptest::collection::vec(action(), 0..3),
            ),
            4..14,
        ),
    ) {
        let n = configs.len();
        let mut sim = ClusterSim::new(configs.clone());
        let mut lvs = LoadBalancer::new(n);
        let mut servers: Vec<ReferenceServer> =
            configs.into_iter().map(ReferenceServer::new).collect();
        let (mut request_seconds, mut completed) = (0.0f64, 0u64);

        for (arrivals, actions) in &seconds {
            for action in actions {
                match *action {
                    Action::SetWeight(i, w) => {
                        sim.lvs_mut().set_weight(i % n, w);
                        lvs.set_weight(i % n, w);
                    }
                    Action::SetCap(i, cap) => {
                        sim.lvs_mut().set_connection_cap(i % n, cap);
                        lvs.set_connection_cap(i % n, cap);
                    }
                    Action::SetQuiesced(i, quiesced) => {
                        sim.lvs_mut().set_quiesced(i % n, quiesced);
                        lvs.set_quiesced(i % n, quiesced);
                    }
                    Action::SetSpeedScale(i, scale) => {
                        sim.server_mut(i % n).set_speed_scale(scale);
                        servers[i % n].set_speed_scale(scale);
                    }
                    Action::ShutdownHard(i) => {
                        let killed = sim.server_mut(i % n).shutdown_hard();
                        prop_assert_eq!(servers[i % n].shutdown_hard(), killed);
                    }
                    Action::ShutdownGraceful(i) => {
                        sim.server_mut(i % n).shutdown_graceful();
                        servers[i % n].shutdown_graceful();
                    }
                    Action::PowerOn(i) => {
                        sim.server_mut(i % n).power_on();
                        servers[i % n].power_on();
                    }
                }
            }
            // A `Vec` one second, a lazy exact-size iterator the next.
            let got = if sim.time_s().is_multiple_of(2) {
                sim.tick(arrivals.clone())
            } else {
                sim.tick(arrivals.iter().cloned())
            };
            let expected = reference_tick(&lvs, &mut servers, arrivals);
            prop_assert_eq!(bits(&got), bits(&expected));
            prop_assert_eq!(got.offered, got.routed + got.dropped);
            request_seconds += expected.request_seconds;
            completed += expected.completed as u64;
            // `bits` covered each server's connections and utilizations;
            // the life cycle is what is left to see of one.
            for (i, reference) in servers.iter().enumerate() {
                prop_assert_eq!((i, sim.server(i).state()), (i, reference.state));
            }
        }
        let mean_response_time_s = if completed == 0 {
            0.0
        } else {
            request_seconds / completed as f64
        };
        prop_assert_eq!(
            sim.mean_response_time_s().to_bits(),
            mean_response_time_s.to_bits()
        );
        let killed: u64 = servers.iter().map(|s| s.killed_total).sum();
        prop_assert_eq!(sim.total_killed(), killed);
    }
}
