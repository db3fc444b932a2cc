//! Freon managing a four-server cluster through two inlet emergencies —
//! a compact version of the paper's §5.1 experiment (Figure 11).
//!
//! Run with: `cargo run --release --example freon_cluster`

use mercury_freon::cluster::{ClusterSim, ServerConfig};
use mercury_freon::freon::{Experiment, ExperimentConfig, PolicySpec, SpecPolicy};
use mercury_freon::mercury::fiddle::FiddleScript;
use mercury_freon::mercury::presets;
use mercury_freon::workload::{DiurnalProfile, RequestMix, WorkloadGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The thermal model: four servers fed by one AC (Figure 1c).
    let model = presets::freon_cluster(4);
    // The substrate Freon manages: four Apache-like servers behind LVS.
    let sim = ClusterSim::homogeneous(4, ServerConfig::default());

    // The paper's trace recipe: diurnal load, 30% CGI, peak at 70%
    // utilization across the four servers.
    let mix = RequestMix::paper();
    let peak = mix.rps_for_cpu_utilization(0.7, 4, 1000.0);
    let profile = DiurnalProfile::new(2000.0, peak * 0.15, peak)
        .with_peak_at(0.70)
        .with_plateau(0.3);
    let trace = WorkloadGenerator::new(profile, mix, 42).generate(2000);

    // Two thermal emergencies at t=480 s, lasting the whole run.
    let script = FiddleScript::parse(
        "sleep 480\nfiddle machine1 temperature inlet 38.6\nfiddle machine3 temperature inlet 35.6\n",
    )?;

    let config = ExperimentConfig {
        duration_s: 2000,
        ..Default::default()
    };
    // The paper's Freon: the built-in `freon` spec (§5's thresholds,
    // one-minute checks, kp = 0.1, kd = 0.2).
    let spec = PolicySpec::builtin("freon").ok_or("`freon` is a built-in spec")?;
    let mut policy = SpecPolicy::new(spec, 4)?;
    let log = Experiment::new(&model, sim, &trace, Some(&script), config)?.run(&mut policy)?;

    println!("time   m1_temp m2_temp m3_temp m4_temp   m1_w  active  dropped");
    for row in log.rows().iter().filter(|r| r.time_s % 100 == 99) {
        println!(
            "{:>4}   {:>6.1}  {:>6.1}  {:>6.1}  {:>6.1}   {:>5.2}  {:>5}   {:>5}",
            row.time_s + 1,
            row.cpu_temp[0],
            row.cpu_temp[1],
            row.cpu_temp[2],
            row.cpu_temp[3],
            row.weight[0],
            row.active_servers,
            row.dropped,
        );
    }
    println!(
        "\nsummary: {} adjustments, {} red-line shutdowns, {}/{} requests dropped ({:.2}%)",
        policy.adjustments(),
        policy.red_line_shutdowns(),
        log.total_dropped(),
        log.total_offered(),
        log.drop_rate() * 100.0
    );
    println!(
        "peak CPU temperatures: {:?}",
        (0..4)
            .map(|i| log.max_cpu_temp(i).round())
            .collect::<Vec<_>>()
    );
    Ok(())
}
