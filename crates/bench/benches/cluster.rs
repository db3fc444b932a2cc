//! Cluster-substrate kernels: LVS routing and one simulated second under
//! the paper's peak load.

use cluster_sim::{ClusterSim, LoadBalancer, Request, Server, ServerConfig};
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
            b.iter(|| black_box(sim.tick(arrivals.clone())));
        });
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
