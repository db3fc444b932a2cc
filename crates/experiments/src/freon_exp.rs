//! Figures 11–12 and the §5.1 drop comparison: Freon, Freon-EC, and the
//! traditional baseline under two simultaneous inlet emergencies.

use crate::common::{measured, paper, verdict, write_results};
use cluster_sim::{ClusterSim, ServerConfig};
use freon::{Experiment, ExperimentConfig, ExperimentLog, PolicySpec, SpecPolicy, ThermalPolicy};
use mercury::fiddle::FiddleScript;
use mercury::model::ClusterModel;
use workload_gen::{DiurnalProfile, RequestMix, WorkloadGenerator, WorkloadTrace};

type Result<T = ()> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Run length of the §5 experiments (the paper's figures span 2 000 s).
pub const DURATION_S: u64 = 2000;
/// Trace seed.
pub const SEED: u64 = 42;

/// The paper's synthetic trace: diurnal valley→peak→valley with the peak
/// sized at 70% utilization across 4 servers and 30% CGI requests.
pub fn paper_trace() -> WorkloadTrace {
    let mix = RequestMix::paper();
    let peak = mix.rps_for_cpu_utilization(0.7, 4, 1000.0);
    let profile = DiurnalProfile::new(DURATION_S as f64, peak * 0.15, peak)
        .with_peak_at(0.70)
        .with_plateau(0.30);
    WorkloadGenerator::new(profile, mix, SEED).generate(DURATION_S)
}

/// The §5 emergencies: "At 480 seconds, fiddle raised the inlet
/// temperature of machine 1 to 38.6 °C and machine 3 to 35.6 °C. (The
/// emergencies are set to last the entire experiment.)"
pub fn emergencies() -> FiddleScript {
    FiddleScript::parse(
        "#!/bin/bash\n\
         sleep 480\n\
         fiddle machine1 temperature inlet 38.6\n\
         fiddle machine3 temperature inlet 35.6\n",
    )
    .expect("the emergency script is well-formed")
}

/// Shared setup: the 4-machine Freon cluster model and a matching
/// simulation.
pub fn setup() -> (ClusterModel, ClusterSim) {
    let model = mercury::presets::freon_cluster(4);
    let sim = ClusterSim::homogeneous(4, ServerConfig::default());
    (model, sim)
}

/// The built-in spec `name`, to edit before building a policy from it.
pub fn builtin_spec(name: &str) -> Result<PolicySpec> {
    PolicySpec::builtin(name).ok_or_else(|| format!("no built-in policy `{name}`").into())
}

/// The built-in policy `name` for the 4-server §5 cluster.
pub fn builtin_policy(name: &str) -> Result<SpecPolicy> {
    Ok(SpecPolicy::new(builtin_spec(name)?, 4)?)
}

/// Runs the §5 scenario under any policy.
pub fn run_policy(policy: &mut dyn ThermalPolicy) -> Result<ExperimentLog> {
    run_policy_with(policy, ServerConfig::default())
}

/// As [`run_policy`], with a custom per-server configuration (used by the
/// ablations, e.g. to lengthen boot times).
pub fn run_policy_with(
    policy: &mut dyn ThermalPolicy,
    server_config: ServerConfig,
) -> Result<ExperimentLog> {
    let model = mercury::presets::freon_cluster(4);
    let sim = ClusterSim::homogeneous(4, server_config);
    let trace = paper_trace();
    let script = emergencies();
    let config = ExperimentConfig {
        duration_s: DURATION_S,
        ..Default::default()
    };
    let log = Experiment::new(&model, sim, &trace, Some(&script), config)?.run(policy)?;
    Ok(log)
}

fn log_to_csv(log: &ExperimentLog) -> Result<String> {
    let mut out = Vec::new();
    log.write_csv(&mut out)?;
    Ok(String::from_utf8(out)?)
}

/// Figure 11: the base Freon policy.
pub fn fig11() -> Result {
    let mut policy = builtin_policy("freon")?;
    let log = run_policy(&mut policy)?;
    write_results("fig11_freon.csv", &log_to_csv(&log)?)?;

    let cpu = policy
        .spec()
        .thresholds_for("cpu")
        .expect("cpu thresholds exist");
    let (th, tr) = (cpu.high, cpu.red_line);
    let crossings: Vec<Option<u64>> = (0..4).map(|i| log.first_crossing(i, th)).collect();
    let peaks: Vec<f64> = (0..4).map(|i| log.max_cpu_temp(i)).collect();

    paper("CPUs heat normally; after the 480 s emergencies machine1 crosses T_h=67 °C (paper: ~1200 s) and machine3 later (~1380 s); Freon holds both just under T_h with load-distribution adjustments and serves the entire workload without drops");
    measured(&format!(
        "T_h crossings: m1 {:?}, m2 {:?}, m3 {:?}, m4 {:?} (s)",
        crossings[0], crossings[1], crossings[2], crossings[3]
    ));
    measured(&format!(
        "peak CPU temps: m1 {:.1}, m2 {:.1}, m3 {:.1}, m4 {:.1} °C (red line {tr})",
        peaks[0], peaks[1], peaks[2], peaks[3]
    ));
    measured(&format!(
        "adjustments: {}, red-line shutdowns: {}, dropped: {}/{} ({:.2}%)",
        policy.adjustments(),
        policy.red_line_shutdowns(),
        log.total_dropped(),
        log.total_offered(),
        log.drop_rate() * 100.0
    ));
    verdict(
        crossings[0].is_some() && crossings[2].is_some(),
        "both emergency machines cross T_h",
    );
    verdict(
        crossings[0].unwrap_or(u64::MAX) < crossings[2].unwrap_or(u64::MAX),
        "machine1 (hotter inlet) crosses before machine3",
    );
    verdict(
        crossings[1].is_none() && crossings[3].is_none(),
        "unaffected machines stay below T_h",
    );
    verdict(
        peaks.iter().all(|&p| p < tr),
        "no CPU ever reaches the red line under Freon",
    );
    verdict(policy.red_line_shutdowns() == 0, "no server was turned off");
    verdict(
        log.total_dropped() == 0,
        "the entire workload was served (0 drops)",
    );
    Ok(())
}

/// Figure 12: Freon-EC — energy conservation plus thermal management.
pub fn fig12() -> Result {
    let mut policy = builtin_policy("freon-ec")?;
    let log = run_policy(&mut policy)?;
    write_results("fig12_freon_ec.csv", &log_to_csv(&log)?)?;

    let min_active = log
        .rows()
        .iter()
        .map(|r| r.active_servers)
        .min()
        .unwrap_or(0);
    let max_active = log
        .rows()
        .iter()
        .map(|r| r.active_servers)
        .max()
        .unwrap_or(0);
    let active_at_valley = log
        .rows()
        .iter()
        .take(300)
        .map(|r| r.active_servers)
        .min()
        .unwrap_or(0);

    paper("during light load Freon-EC shrinks the active configuration to a single server (at ~60 s); off machines cool ~10 °C; as load rises the configuration grows back to 4 without dropping requests; the peak emergencies are handled by the base policy");
    measured(&format!(
        "active servers: min {min_active}, max {max_active}; min over the first 300 s: {active_at_valley}; mean {:.2}",
        log.mean_active_servers()
    ));
    measured(&format!(
        "power-offs {} / power-ons {}; adjustments {}; dropped {}/{} ({:.2}%)",
        policy.power_offs(),
        policy.power_ons(),
        policy.adjustments(),
        log.total_dropped(),
        log.total_offered(),
        log.drop_rate() * 100.0
    ));
    // Cooling while off: compare machine4's temperature right before the
    // valley shutdown with its minimum while off.
    let m4_at_60 = log
        .rows()
        .get(60)
        .map(|r| r.cpu_temp[3])
        .unwrap_or(f64::NAN);
    let m4_min: f64 = log
        .rows()
        .iter()
        .take(600)
        .map(|r| r.cpu_temp[3])
        .fold(f64::INFINITY, f64::min);
    measured(&format!(
        "machine4 CPU: {m4_at_60:.1} °C at the shutdown, cooled to {m4_min:.1} °C while off (Δ {:.1})",
        m4_at_60 - m4_min
    ));
    verdict(
        active_at_valley <= 1,
        "the valley shrinks the configuration to one server",
    );
    verdict(
        max_active == 4,
        "the peak grows the configuration back to four",
    );
    verdict(
        log.drop_rate() < 0.005,
        "energy conservation cost (almost) no requests",
    );
    Ok(())
}

/// §5.1's comparison: Freon vs the traditional red-line approach.
pub fn table_drops() -> Result {
    let mut freon = builtin_policy("freon")?;
    let freon_log = run_policy(&mut freon)?;

    let mut traditional = builtin_policy("traditional")?;
    let traditional_log = run_policy(&mut traditional)?;
    write_results(
        "table_drops_traditional.csv",
        &log_to_csv(&traditional_log)?,
    )?;

    let mut csv = String::from("policy,offered,dropped,drop_rate_pct,mean_response_ms\n");
    for log in [&freon_log, &traditional_log] {
        csv.push_str(&format!(
            "{},{},{},{:.2},{:.1}\n",
            log.policy,
            log.total_offered(),
            log.total_dropped(),
            log.drop_rate() * 100.0,
            log.mean_response_time_s() * 1000.0
        ));
    }
    write_results("table_drops.csv", &csv)?;

    paper("the traditional system turned machine1 off at 1440 s and machine3 just before 1500 s and dropped 14% of the requests; Freon dropped none");
    measured(&format!(
        "traditional shutdowns at {:?}; drop rates — freon {:.2}%, traditional {:.2}%",
        traditional.shutdown_times(),
        freon_log.drop_rate() * 100.0,
        traditional_log.drop_rate() * 100.0
    ));
    measured(&format!(
        "mean response times — freon {:.0} ms, traditional {:.0} ms",
        freon_log.mean_response_time_s() * 1000.0,
        traditional_log.mean_response_time_s() * 1000.0
    ));
    verdict(freon_log.total_dropped() == 0, "Freon serves everything");
    let t_rate = traditional_log.drop_rate();
    verdict(
        (0.05..0.30).contains(&t_rate),
        "the traditional baseline loses a substantial fraction of the trace (paper: 14%)",
    );
    verdict(
        traditional
            .shutdown_times()
            .iter()
            .filter(|t| t.is_some())
            .count()
            == 2,
        "exactly the two emergency machines red-line under the traditional policy",
    );
    Ok(())
}
