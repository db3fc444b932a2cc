//! End-to-end causal tracing: a cooling-failure experiment with the
//! tracer and flight recorder attached must produce an incident bundle
//! from which the full chain — engine second → solver tick, and tempd
//! observation → policy rule → mediator actuation — reconstructs by
//! span ids alone. This is the observability acceptance path for the
//! tracing subsystem.

use cluster_sim::{ClusterSim, ServerConfig};
use freon::policy::SpecPolicy;
use freon::{Experiment, ExperimentConfig, PolicySpec};
use mercury::fiddle::FiddleScript;
use telemetry::recorder::extract_bundle_spans;
use telemetry::{FlightRecorder, RecorderConfig, Tracer};
use workload_gen::{DiurnalProfile, RequestMix, WorkloadGenerator};

const SERVERS: usize = 4;
const DURATION: u64 = 1200;

#[test]
fn cooling_failure_produces_a_linkable_incident_bundle() {
    let dir = std::env::temp_dir().join(format!("mercury-trace-chain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let model = mercury::presets::freon_cluster(SERVERS);
    let sim = ClusterSim::homogeneous(SERVERS, ServerConfig::default());
    let mix = RequestMix::paper();
    let peak = mix.rps_for_cpu_utilization(0.7, SERVERS, 1000.0);
    let profile = DiurnalProfile::new(DURATION as f64, peak * 0.15, peak)
        .with_peak_at(0.70)
        .with_plateau(0.30);
    let trace = WorkloadGenerator::new(profile, mix, 42).generate(DURATION);
    // CRAC failure: every inlet to 40 °C at 60 s; under the traditional
    // policy the red line is crossed and servers shut down.
    let script = FiddleScript::parse(
        "sleep 60\n\
         fiddle machine1 temperature inlet 40.0\n\
         fiddle machine2 temperature inlet 40.0\n\
         fiddle machine3 temperature inlet 40.0\n\
         fiddle machine4 temperature inlet 40.0\n",
    )
    .unwrap();

    let tracer = Tracer::new(65_536);
    let config = ExperimentConfig {
        duration_s: DURATION,
        tracer: tracer.clone(),
        recorder: FlightRecorder::new(RecorderConfig {
            probes: vec!["cpu".to_string(), "disk_platters".to_string()],
            band_high_c: 70.0,
            max_rate_c_per_s: 25.0,
            ..RecorderConfig::default()
        }),
        incident_dir: Some(dir.clone()),
        ..ExperimentConfig::default()
    };
    let spec = PolicySpec::builtin("traditional").unwrap();
    let mut policy = SpecPolicy::new(spec, SERVERS).unwrap();
    Experiment::new(&model, sim, &trace, Some(&script), config)
        .unwrap()
        .run(&mut policy)
        .unwrap();
    assert!(
        !policy.incidents().is_empty(),
        "the cooling failure must red-line at least one server"
    );

    // One artifact: the first bundle written by the flight recorder.
    let mut bundles: Vec<_> = std::fs::read_dir(&dir)
        .expect("incident directory must exist")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    bundles.sort();
    assert!(!bundles.is_empty(), "no incident bundle was written");
    let text = std::fs::read_to_string(&bundles[0]).unwrap();
    assert!(text.contains(telemetry::recorder::BUNDLE_SCHEMA));
    assert!(text.contains("\"machines\""), "rings missing from bundle");
    let spans = extract_bundle_spans(&text).expect("bundle spans must extract");
    assert!(!spans.is_empty(), "bundle carries no spans");

    // The causal chain must reconstruct from this single artifact.
    let by_name = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let observe_ids: std::collections::HashSet<u64> =
        by_name("tempd.observe").map(|s| s.id).collect();
    assert!(!observe_ids.is_empty(), "no tempd.observe spans in bundle");
    let dispatch = by_name("mediator.dispatch")
        .find(|s| observe_ids.contains(&s.parent))
        .expect("an actuation span must link back to a tempd observation by span id");
    assert!(
        dispatch
            .args
            .iter()
            .any(|(k, v)| k == "action" && v == "shutdown"),
        "the traced actuation is the red-line shutdown"
    );
    let rule = by_name("policy.rule")
        .find(|s| s.parent == dispatch.parent)
        .expect("the fired rule shares the observation parent");
    assert!(rule
        .args
        .iter()
        .any(|(k, v)| k == "trigger" && v == "red_line"));
    // Engine and solver layers are present in the same artifact.
    assert!(by_name("engine.second").next().is_some());
    assert!(by_name("cluster.tick").next().is_some());

    // Determinism: an identical untraced run produces the same incidents.
    let sim2 = ClusterSim::homogeneous(SERVERS, ServerConfig::default());
    let config2 = ExperimentConfig {
        duration_s: DURATION,
        ..ExperimentConfig::default()
    };
    let mut policy2 =
        SpecPolicy::new(PolicySpec::builtin("traditional").unwrap(), SERVERS).unwrap();
    let script2 = FiddleScript::parse(
        "sleep 60\n\
         fiddle machine1 temperature inlet 40.0\n\
         fiddle machine2 temperature inlet 40.0\n\
         fiddle machine3 temperature inlet 40.0\n\
         fiddle machine4 temperature inlet 40.0\n",
    )
    .unwrap();
    Experiment::new(&model, sim2, &trace, Some(&script2), config2)
        .unwrap()
        .run(&mut policy2)
        .unwrap();
    assert_eq!(
        policy.incidents(),
        policy2.incidents(),
        "tracing must not perturb the trajectory"
    );

    std::fs::remove_dir_all(&dir).ok();
}
