//! The routing contract, checked three ways.
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

use cluster_sim::{
    ClusterSim, LoadBalancer, Request, RouteHeap, RouteOutcome, Server, ServerConfig, TickStats,
};
use proptest::prelude::*;

/// The contract, restated independently of the crate's implementation.
fn oracle_route(lvs: &LoadBalancer, servers: &[Server]) -> RouteOutcome {
    let mut best: Option<(usize, f64)> = None;
    for (i, server) in servers.iter().enumerate() {
        let eligible = server.accepts_connections()
            && !lvs.is_quiesced(i)
            && lvs.weight(i) > 0.0
            && server.connections() < server.config().max_connections
            && lvs
                .connection_cap(i)
                .is_none_or(|cap| server.connections() < cap);
        if !eligible {
            continue;
        }
        let ratio = server.connections() as f64 / lvs.weight(i);
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
            let outcome = oracle_route(&lvs, &by_oracle);
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

/// `ClusterSim::tick` as it was before the heap: the same 20 admission
/// slots, each request routed by the `route()` scan.
fn reference_tick(lvs: &LoadBalancer, servers: &mut [Server], arrivals: Vec<Request>) -> TickStats {
    const SLOTS: usize = 20;
    let mut stats = TickStats {
        offered: arrivals.len(),
        ..TickStats::default()
    };
    for server in servers.iter_mut() {
        server.begin_tick();
    }
    let per_slot = arrivals.len().div_ceil(SLOTS);
    let mut queue = arrivals.into_iter();
    for _ in 0..SLOTS {
        for request in queue.by_ref().take(per_slot) {
            match lvs.route(servers) {
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
        stats.request_seconds += server.tick_request_seconds();
    }
    stats.connections = connections(servers);
    stats.cpu_utilization = servers.iter().map(Server::cpu_utilization).collect();
    stats.disk_utilization = servers.iter().map(Server::disk_utilization).collect();
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

/// The paper's mix: 30% CGI, the rest static files.
fn burst(count: usize) -> Vec<Request> {
    (0..count)
        .map(|k| {
            if k % 10 < 3 {
                Request::dynamic()
            } else {
                Request::static_file()
            }
        })
        .collect()
}

/// What Freon does to a running cluster between ticks.
#[derive(Debug, Clone)]
enum Action {
    SetWeight(usize, f64),
    SetCap(usize, Option<usize>),
    SetQuiesced(usize, bool),
    ShutdownHard(usize),
    ShutdownGraceful(usize),
    PowerOn(usize),
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0..64usize, weight()).prop_map(|(i, w)| Action::SetWeight(i, w)),
        (0..64usize, proptest::option::of(0..30usize)).prop_map(|(i, c)| Action::SetCap(i, c)),
        (0..64usize, any::<bool>()).prop_map(|(i, q)| Action::SetQuiesced(i, q)),
        (0..64usize).prop_map(Action::ShutdownHard),
        (0..64usize).prop_map(Action::ShutdownGraceful),
        (0..64usize).prop_map(Action::PowerOn),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tick_equals_the_scan_built_reference_tick(
        n in 1..=12usize,
        max_connections in 4..40usize,
        seconds in proptest::collection::vec(
            (0..320usize, proptest::collection::vec(action(), 0..3)),
            4..14,
        ),
    ) {
        let config = ServerConfig {
            max_connections,
            boot_seconds: 2,
            ..ServerConfig::default()
        };
        let mut sim = ClusterSim::homogeneous(n, config.clone());
        let mut lvs = LoadBalancer::new(n);
        let mut servers: Vec<Server> = (0..n).map(|_| Server::new(config.clone())).collect();

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
            let got = sim.tick(burst(*arrivals));
            let expected = reference_tick(&lvs, &mut servers, burst(*arrivals));
            prop_assert_eq!(bits(&got), bits(&expected));
            prop_assert_eq!(got.offered, got.routed + got.dropped);
        }
        let killed: u64 = servers.iter().map(Server::killed_total).sum();
        prop_assert_eq!(sim.total_killed(), killed);
    }
}
