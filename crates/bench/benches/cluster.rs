//! Cluster-substrate kernels: LVS routing and one simulated second under
//! the paper's peak load, whole (`cluster_tick_*`) and split into its two
//! halves — one admission slot through the routing heap
//! (`lvs_route_batch_*`) and one service slice of one server
//! (`server_serve_slice_*`) — so that where a tick's time goes can be read
//! without a cycle counter: a 64-server tick is 20 × (one
//! `lvs_route_batch_64_servers` + 64 service slices).

use cluster_sim::{
    ClusterSim, LoadBalancer, Request, RequestKind, RouteHeap, Server, ServerConfig,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// ≈ the §5 peak, 315 requests/s over four servers with 30% CGI, scaled
/// to `servers`.
fn peak_arrivals(servers: usize) -> Vec<Request> {
    (0..315 * servers / 4)
        .map(|i| {
            if i % 10 < 3 {
                Request::dynamic()
            } else {
                Request::static_file()
            }
        })
        .collect()
}

fn bench_cluster(c: &mut Criterion) {
    c.bench_function("lvs_route_one_request", |b| {
        // Four idle servers, built outside the timed closure.
        let lvs = LoadBalancer::new(4);
        let servers: Vec<Server> = (0..4)
            .map(|_| Server::new(ServerConfig::default()))
            .collect();
        b.iter(|| black_box(lvs.route(black_box(&servers))));
    });

    // Per-request cost must not grow with the cluster: 64 and 256 servers
    // carry 16x and 64x the 4-server load and should take 16x and 64x its
    // time, no more.
    for servers in [4, 64, 256] {
        c.bench_function(&format!("cluster_tick_peak_load_{servers}_servers"), |b| {
            let mut sim = ClusterSim::homogeneous(servers, ServerConfig::default());
            let arrivals = peak_arrivals(servers);
            b.iter(|| black_box(sim.tick(arrivals.iter().cloned())));
        });
    }

    // One of a peak second's 20 admission slots, every server eligible
    // and the heap's storage reused as `ClusterSim` reuses it. Emptying
    // the servers again is inside the timed closure: two stores and a
    // `Vec::clear` per server against ≈4 routed requests per server.
    for servers in [64, 256] {
        c.bench_function(&format!("lvs_route_batch_{servers}_servers"), |b| {
            let lvs = LoadBalancer::new(servers);
            let mut pool: Vec<Server> = (0..servers)
                .map(|_| {
                    Server::new(ServerConfig {
                        boot_seconds: 0,
                        ..ServerConfig::default()
                    })
                })
                .collect();
            let mut heap = RouteHeap::default();
            let mut slot = peak_arrivals(servers);
            slot.truncate(slot.len().div_ceil(20));
            b.iter(|| {
                let mut routed = 0usize;
                lvs.route_batch(&mut pool, &mut heap, slot.iter().cloned(), |_| routed += 1);
                for server in &mut pool {
                    server.shutdown_hard();
                    server.power_on();
                }
                black_box(routed)
            });
        });
    }

    // One 50 ms service slice of one server. The demands outlast the
    // benchmark, so every call is the common case: one round that spends
    // both budgets, a second look that finds them spent, nothing to
    // compact.
    for connections in [1, 4, 32] {
        c.bench_function(
            &format!("server_serve_slice_{connections}_connections"),
            |b| {
                let mut server = Server::new(ServerConfig::default());
                for _ in 0..connections {
                    server.admit(Request::new(RequestKind::Dynamic, 1e12, 1e12));
                }
                b.iter(|| {
                    server.serve_slice(black_box(0.05));
                    black_box(server.connections())
                });
            },
        );
    }

    c.bench_function("cluster_tick_idle_16_servers", |b| {
        let mut sim = ClusterSim::homogeneous(16, ServerConfig::default());
        b.iter(|| black_box(sim.tick(Vec::new())));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(40);
    targets = bench_cluster
}
criterion_main!(benches);
