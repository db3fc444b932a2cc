//! Freon-EC: energy conservation plus thermal management (§4.2 / Figure
//! 12). Watch the active configuration shrink to one server in the load
//! valley, grow back for the peak, and route around the emergencies
//! using room regions.
//!
//! Run with: `cargo run --release --example freon_ec`

use mercury_freon::cluster::{ClusterSim, ServerConfig};
use mercury_freon::freon::{Experiment, ExperimentConfig, PolicySpec, SpecPolicy};
use mercury_freon::mercury::fiddle::FiddleScript;
use mercury_freon::mercury::presets;
use mercury_freon::workload::{DiurnalProfile, RequestMix, WorkloadGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = presets::freon_cluster(4);
    let sim = ClusterSim::homogeneous(4, ServerConfig::default());

    let mix = RequestMix::paper();
    let peak = mix.rps_for_cpu_utilization(0.7, 4, 1000.0);
    let profile = DiurnalProfile::new(2000.0, peak * 0.15, peak)
        .with_peak_at(0.70)
        .with_plateau(0.3);
    let trace = WorkloadGenerator::new(profile, mix, 42).generate(2000);

    let script = FiddleScript::parse(
        "sleep 480\nfiddle machine1 temperature inlet 38.6\nfiddle machine3 temperature inlet 35.6\n",
    )?;

    // Regions as in the paper: {machine1, machine3} near one AC,
    // {machine2, machine4} near the other — the emergencies hit region 0.
    // The built-in `freon-ec` spec carries them as `regions = [0, 1, 0, 1]`.
    let spec = PolicySpec::builtin("freon-ec").ok_or("`freon-ec` is a built-in spec")?;
    let mut policy = SpecPolicy::new(spec, 4)?;

    let config = ExperimentConfig {
        duration_s: 2000,
        ..Default::default()
    };
    let log = Experiment::new(&model, sim, &trace, Some(&script), config)?.run(&mut policy)?;

    println!("time   active  m1_temp m2_temp m3_temp m4_temp  dropped");
    for row in log.rows().iter().filter(|r| r.time_s % 100 == 99) {
        println!(
            "{:>4}   {:>5}   {:>6.1}  {:>6.1}  {:>6.1}  {:>6.1}  {:>6}",
            row.time_s + 1,
            row.active_servers,
            row.cpu_temp[0],
            row.cpu_temp[1],
            row.cpu_temp[2],
            row.cpu_temp[3],
            row.dropped,
        );
    }
    println!(
        "\nsummary: power-offs {}, power-ons {}, mean active servers {:.2}, dropped {:.2}%",
        policy.power_offs(),
        policy.power_ons(),
        log.mean_active_servers(),
        log.drop_rate() * 100.0
    );
    println!(
        "region emergency counts at the end: {:?}",
        policy.region_emergencies()
    );
    Ok(())
}
