//! A live scrape target: a 64-machine emulated room behind a
//! [`mercury::net::SolverService`] with a Freon policy making decisions
//! against it, so every metric family — solver, cluster, freon, net —
//! shows up on one exposition page.
//!
//! Run it, then point the scraper at the printed address:
//!
//! ```text
//! cargo run --release -p freon --example live_telemetry
//! mercury-stats --solver 127.0.0.1:<port> --watch 2
//! ```
//!
//! Optional arguments: `live_telemetry [machines] [bind-addr]`
//! (defaults: 64 machines, `127.0.0.1:0`).

use freon::{PolicySpec, ServerSnapshot, SpecPolicy, ThermalPolicy};
use mercury::net::{ServiceConfig, SolverService};
use std::time::Duration;

/// One round of observations: every machine warm, one running hot enough
/// to keep the PD controller (and its decision counters) busy.
fn snapshots(n: usize, hot: usize, hot_temp: f64) -> Vec<ServerSnapshot> {
    (0..n)
        .map(|i| ServerSnapshot {
            temps: vec![
                ("cpu".to_string(), if i == hot { hot_temp } else { 55.0 }),
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let n: usize = match args.next() {
        Some(raw) => raw.parse()?,
        None => 64,
    };
    let mut cfg = ServiceConfig {
        tick_wall: Duration::from_millis(10),
        ..ServiceConfig::default()
    };
    if let Some(bind) = args.next() {
        cfg.bind = bind.parse()?;
    }

    let model = mercury::presets::validation_cluster(n);
    let service = SolverService::spawn_cluster(&model, cfg)?;

    let spec = PolicySpec::builtin("freon").ok_or("`freon` is a built-in spec")?;
    let mut policy = SpecPolicy::new(spec, n)?;
    policy.register_metrics(service.registry());
    let mut sim = cluster_sim::ClusterSim::homogeneous(n, cluster_sim::ServerConfig::default());

    println!(
        "{n}-machine room with a live Freon policy; scrape with\n  \
         mercury-stats --solver {}",
        service.local_addr()
    );

    // Drive the policy forever: alternate a hot interval (throttle) with
    // a cool one (release) so the decision counters keep moving.
    let mut now_s = 0u64;
    loop {
        let hot = (now_s / 60) as usize % n;
        let hot_temp = if (now_s / 120).is_multiple_of(2) {
            68.0
        } else {
            50.0
        };
        policy.control(now_s, &snapshots(n, hot, hot_temp), &mut sim);
        now_s += 60;
        std::thread::sleep(Duration::from_millis(200));
    }
}
