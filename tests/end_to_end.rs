//! Integration tests spanning the whole workspace: graph language →
//! thermal model → cluster simulation → Freon policies → results.

use mercury_freon::cluster::{ClusterSim, ServerConfig};
use mercury_freon::freon::{Experiment, ExperimentConfig, NoPolicy, PolicySpec, SpecPolicy};
use mercury_freon::mercury::fiddle::FiddleScript;
use mercury_freon::mercury::presets;
use mercury_freon::workload::{DiurnalProfile, RequestMix, WorkloadGenerator, WorkloadTrace};

fn short_trace(duration: u64, peak_util: f64) -> WorkloadTrace {
    let mix = RequestMix::paper();
    let peak = mix.rps_for_cpu_utilization(peak_util, 4, 1000.0);
    let profile = DiurnalProfile::new(duration as f64, peak * 0.15, peak)
        .with_peak_at(0.7)
        .with_plateau(0.3);
    WorkloadGenerator::new(profile, mix, 42).generate(duration)
}

/// The built-in policy `name` for an `n`-server cluster.
fn builtin(name: &str, n: usize) -> SpecPolicy {
    SpecPolicy::new(PolicySpec::builtin(name).unwrap(), n).unwrap()
}

/// The paper's CPU red line, from the built-in `freon` spec.
fn cpu_red_line() -> f64 {
    let spec = PolicySpec::builtin("freon").unwrap();
    spec.thresholds_for("cpu").unwrap().red_line
}

fn emergency_script() -> FiddleScript {
    FiddleScript::parse(
        "sleep 300\nfiddle machine1 temperature inlet 38.6\nfiddle machine3 temperature inlet 35.6\n",
    )
    .expect("script parses")
}

/// The whole §5 loop, compressed: emergencies hit, Freon throttles, no
/// red lines, nothing dropped.
#[test]
fn freon_contains_emergencies_without_drops() {
    let model = presets::freon_cluster(4);
    let sim = ClusterSim::homogeneous(4, ServerConfig::default());
    let trace = short_trace(1500, 0.7);
    let script = emergency_script();
    let config = ExperimentConfig {
        duration_s: 1500,
        ..Default::default()
    };
    let mut policy = builtin("freon", 4);
    let log = Experiment::new(&model, sim, &trace, Some(&script), config)
        .unwrap()
        .run(&mut policy)
        .unwrap();

    assert_eq!(log.total_dropped(), 0, "freon dropped requests");
    assert_eq!(policy.red_line_shutdowns(), 0, "freon lost a server");
    let tr = cpu_red_line();
    for server in 0..4 {
        assert!(
            log.max_cpu_temp(server) < tr,
            "server {server} reached {:.1} (red line {tr})",
            log.max_cpu_temp(server)
        );
    }
}

/// Freon beats the traditional baseline on the same trace: fewer drops,
/// no lost servers.
#[test]
fn freon_dominates_the_traditional_baseline() {
    let run = |policy: &mut dyn mercury_freon::freon::ThermalPolicy| {
        let model = presets::freon_cluster(4);
        let sim = ClusterSim::homogeneous(4, ServerConfig::default());
        let trace = short_trace(2000, 0.7);
        let script = emergency_script();
        let config = ExperimentConfig {
            duration_s: 2000,
            ..Default::default()
        };
        Experiment::new(&model, sim, &trace, Some(&script), config)
            .unwrap()
            .run(policy)
            .unwrap()
    };
    let mut freon = builtin("freon", 4);
    let freon_log = run(&mut freon);
    let mut traditional = builtin("traditional", 4);
    let trad_log = run(&mut traditional);

    assert_eq!(freon_log.total_dropped(), 0);
    assert!(
        trad_log.total_dropped() > freon_log.total_dropped(),
        "traditional dropped {} vs freon {}",
        trad_log.total_dropped(),
        freon_log.total_dropped()
    );
    assert!(
        traditional.shutdown_times().iter().any(Option::is_some),
        "the baseline never red-lined — the scenario is too mild to compare"
    );
}

/// Freon-EC conserves energy in the valley and still serves the trace.
#[test]
fn freon_ec_shrinks_and_grows_the_configuration() {
    let model = presets::freon_cluster(4);
    let sim = ClusterSim::homogeneous(4, ServerConfig::default());
    let trace = short_trace(1500, 0.7);
    let config = ExperimentConfig {
        duration_s: 1500,
        ..Default::default()
    };
    let mut policy = builtin("freon-ec", 4);
    let log = Experiment::new(&model, sim, &trace, None, config)
        .unwrap()
        .run(&mut policy)
        .unwrap();

    let min_active = log.rows().iter().map(|r| r.active_servers).min().unwrap();
    let max_active = log.rows().iter().map(|r| r.active_servers).max().unwrap();
    assert_eq!(min_active, 1, "never shrank to one server");
    assert_eq!(max_active, 4, "never grew back to four");
    assert!(policy.power_offs() >= 3);
    assert!(policy.power_ons() >= 1);
    assert!(log.drop_rate() < 0.01, "drop rate {:.3}", log.drop_rate());
    // Energy saved: mean active servers well below the static 4.
    assert!(
        log.mean_active_servers() < 3.6,
        "mean {}",
        log.mean_active_servers()
    );
}

/// Without any policy, the emergencies drive the affected CPUs past the
/// red line — proof the scenario actually *is* an emergency.
#[test]
fn the_emergencies_are_real_without_a_policy() {
    let model = presets::freon_cluster(4);
    let sim = ClusterSim::homogeneous(4, ServerConfig::default());
    let trace = short_trace(2000, 0.7);
    let script = emergency_script();
    let config = ExperimentConfig {
        duration_s: 2000,
        ..Default::default()
    };
    let log = Experiment::new(&model, sim, &trace, Some(&script), config)
        .unwrap()
        .run(&mut NoPolicy)
        .unwrap();
    let tr = cpu_red_line();
    assert!(
        log.max_cpu_temp(0) > tr,
        "machine1 only reached {:.1}",
        log.max_cpu_temp(0)
    );
    assert!(log.max_cpu_temp(1) < tr, "machine2 should stay safe");
}

/// The assets file, the graph language, and the built-in presets all
/// agree.
#[test]
fn assets_match_presets_through_the_graph_language() {
    let source = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/assets/server.mdl"))
        .expect("assets/server.mdl exists");
    let library = mercury_freon::graphdl::parse(&source).expect("assets parse");
    let machine = library.machine("server").expect("machine `server` defined");
    assert_eq!(machine, &presets::validation_machine());
    let room = library.cluster("room").expect("cluster `room` defined");
    assert_eq!(room.machines().len(), 4);
}

/// Deterministic replay: the same seed and scenario produce bit-identical
/// logs — Mercury's core promise of repeatable experiments.
#[test]
fn experiments_are_exactly_repeatable() {
    let run = || {
        let model = presets::freon_cluster(2);
        let sim = ClusterSim::homogeneous(2, ServerConfig::default());
        let mix = RequestMix::paper();
        let profile = DiurnalProfile::new(400.0, 20.0, 120.0);
        let trace = WorkloadGenerator::new(profile, mix, 7).generate(400);
        let config = ExperimentConfig {
            duration_s: 400,
            ..Default::default()
        };
        let mut policy = builtin("freon", 2);
        Experiment::new(&model, sim, &trace, None, config)
            .unwrap()
            .run(&mut policy)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}
