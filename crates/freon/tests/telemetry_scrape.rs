//! End-to-end telemetry: a short cluster run behind a
//! [`mercury::net::SolverService`], with a Freon policy registered on the
//! service registry, scraped over UDP and parsed line-by-line.
//!
//! This is the observability acceptance path: solver, cluster, freon,
//! and net metric families must all be present and the whole exposition
//! must round-trip through the strict parser. The same registries check
//! DESIGN.md §8's family catalogue both ways.

use freon::{PolicySpec, ServerSnapshot, SpecPolicy, ThermalPolicy};
use mercury::net::proto::Request;
use mercury::net::{fetch_multipart, ServiceConfig, SolverService};
use std::collections::BTreeMap;
use std::time::Duration;

/// The built-in `freon` spec for an `n`-server cluster.
fn freon_policy(n: usize) -> SpecPolicy {
    SpecPolicy::new(PolicySpec::builtin("freon").unwrap(), n).unwrap()
}

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
    let mut policy = freon_policy(4);
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

/// Every family a registry of the suite exposes, with its type, read off
/// the `# TYPE` lines of the rendered exposition.
fn registered_families(registries: &[&telemetry::Registry]) -> BTreeMap<String, String> {
    let mut families = BTreeMap::new();
    for registry in registries {
        for line in registry.render_prometheus().lines() {
            if let Some(decl) = line.strip_prefix("# TYPE ") {
                let (name, kind) = decl.split_once(' ').expect("`# TYPE name kind`");
                families.insert(name.to_string(), kind.to_string());
            }
        }
    }
    families
}

/// DESIGN.md §8's family catalogue: the `| `name` | type | readers |`
/// rows between the section's heading and §8b.
fn documented_families() -> BTreeMap<String, String> {
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
        .expect("DESIGN.md at the repository root");
    let start = design.find("## 8. Telemetry").expect("DESIGN §8");
    let end = start + design[start..].find("### 8b.").expect("DESIGN §8b");
    let mut families = BTreeMap::new();
    for row in design[start..end].lines() {
        let Some(row) = row.strip_prefix("| `mercury_") else {
            continue;
        };
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let name = format!("mercury_{}", cells[0].trim_end_matches('`'));
        assert!(
            families
                .insert(name.clone(), cells[1].to_string())
                .is_none(),
            "{name} is documented twice"
        );
    }
    families
}

/// The catalogue is exact: a family registered anywhere in the suite is
/// documented with its type, and a documented family is registered.
#[test]
fn catalogue_matches_the_registries() {
    // The live service: solver, cluster, net, build and event-ring
    // families, with a policy's decision families registered on it.
    let model = mercury::presets::validation_cluster(2);
    let service = SolverService::spawn_cluster(&model, ServiceConfig::fast()).unwrap();
    freon_policy(2).register_metrics(service.registry());
    // The bundles registered elsewhere: a monitord's client counters, a
    // trace replay's and an experiment engine's.
    let elsewhere = telemetry::Registry::new();
    mercury::net::MonitordStats::new().register(&elsewhere, "machine1");
    mercury::trace::stream::ReplayMetrics::new().register(&elsewhere);
    freon::ExperimentMetrics::new().register(&elsewhere);

    let registered = registered_families(&[service.registry(), &elsewhere]);
    service.shutdown();
    let documented = documented_families();
    let undocumented: Vec<_> = registered
        .iter()
        .filter(|(name, _)| !documented.contains_key(*name))
        .collect();
    let vanished: Vec<_> = documented
        .keys()
        .filter(|name| !registered.contains_key(*name))
        .collect();
    let retyped: Vec<_> = registered
        .iter()
        .filter(|(name, kind)| documented.get(*name).is_some_and(|doc| doc != *kind))
        .collect();
    assert!(
        undocumented.is_empty() && vanished.is_empty() && retyped.is_empty(),
        "DESIGN §8's catalogue is out of date:\n  registered, not documented: {undocumented:?}\n  \
         documented, not registered: {vanished:?}\n  registered with another type: {retyped:?}"
    );
}
