//! End-to-end telemetry: a short cluster run behind a
//! [`mercury::net::SolverService`], with a Freon policy registered on the
//! service registry, scraped over UDP and parsed line-by-line.
//!
//! This is the observability acceptance path: solver, cluster, freon,
//! and net metric families must all be present and the whole exposition
//! must round-trip through the strict parser.

#![cfg(feature = "instrument")]

use freon::{FreonConfig, FreonPolicy, ServerSnapshot, ThermalPolicy};
use mercury::net::proto::Request;
use mercury::net::{fetch_multipart, ServiceConfig, SolverService};
use std::time::Duration;

fn hot_snapshots(n: usize, hot: usize) -> Vec<ServerSnapshot> {
    (0..n)
        .map(|i| ServerSnapshot {
            temps: vec![
                ("cpu".to_string(), if i == hot { 68.0 } else { 55.0 }),
                ("disk_platters".to_string(), 40.0),
            ],
            cpu_util: 0.7,
            disk_util: 0.2,
            connections: 30,
            powered: true,
            accepting: true,
        })
        .collect()
}

#[test]
fn scrape_covers_solver_cluster_freon_and_net_families() {
    let model = mercury::presets::validation_cluster(4);
    let service = SolverService::spawn_cluster(&model, ServiceConfig::fast()).unwrap();

    // A Freon policy watching a (separately simulated) cluster registers
    // its decision counters on the same scrape surface.
    let mut policy = FreonPolicy::new(FreonConfig::paper(), 4);
    policy.register_metrics(service.registry());
    let mut sim = cluster_sim::ClusterSim::homogeneous(4, cluster_sim::ServerConfig::default());
    policy.control(60, &hot_snapshots(4, 0), &mut sim);
    assert_eq!(policy.adjustments(), 1, "the hot server must be throttled");

    // Let the paced solver take a few ticks, then scrape.
    std::thread::sleep(Duration::from_millis(100));
    let fetch = fetch_multipart(
        service.local_addr(),
        &Request::Scrape,
        Duration::from_secs(2),
    )
    .expect("scrape answered");
    assert!(
        fetch.is_complete(),
        "{}/{} parts",
        fetch.received,
        fetch.total
    );
    let text = fetch.text;
    let samples = telemetry::text::parse_exposition(&text)
        .expect("every scraped line must parse as Prometheus text exposition");

    for family in [
        "mercury_solver_",
        "mercury_cluster_",
        "mercury_freon_",
        "mercury_net_",
    ] {
        assert!(
            samples.iter().any(|s| s.name.starts_with(family)),
            "no {family}* samples in:\n{text}"
        );
    }

    let sum = |name: &str| -> f64 {
        samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    };
    assert!(
        sum("mercury_solver_ticks_total") >= 4.0,
        "solver never ticked"
    );
    assert!(sum("mercury_cluster_ticks_total") >= 1.0);
    assert!(sum("mercury_freon_decisions_total") >= 1.0);
    assert!(sum("mercury_freon_observations_total") >= 4.0);
    assert!(sum("mercury_net_datagrams_total") >= 1.0);
    assert!(
        samples.iter().any(|s| {
            s.name == "mercury_freon_decisions_total"
                && s.label("action") == Some("throttle")
                && s.label("reason") == Some("above_high")
                && s.value >= 1.0
        }),
        "throttle decision not attributed to its reason code"
    );
    assert_eq!(
        sum("mercury_telemetry_events_dropped_total"),
        0.0,
        "the registry's event ring wrapped during a short e2e run"
    );
    assert!(
        samples.iter().any(|s| {
            s.name == "mercury_build_info"
                && s.value == 1.0
                && s.label("version").is_some()
                && s.label("simd").is_some()
        }),
        "build identity gauge missing from the scrape"
    );

    service.shutdown();
}
