//! Ablations of design choices called out in DESIGN.md.

use crate::common::{measured, paper, verdict, write_results};
use crate::freon_exp::{builtin_spec, run_policy};
use cluster_sim::ClusterSim;
use freon::{Admd, PolicySpec, ServerSnapshot, SpecPolicy, Tempd, ThermalPolicy};
use mercury::presets::{self, nodes};
use mercury::solver::{Solver, SolverConfig};

use std::fmt::Write as _;

type Result<T = ()> = std::result::Result<T, Box<dyn std::error::Error>>;

/// A bang-bang variant of Freon: above `T_h` the hot server's share is
/// simply halved each period, no controller. Used to show what the PD
/// controller buys.
#[derive(Debug)]
struct BangBangPolicy {
    spec: PolicySpec,
    tempds: Vec<Tempd>,
    admd: Admd,
    restricted: Vec<bool>,
}

impl BangBangPolicy {
    fn new(spec: PolicySpec, n: usize) -> Self {
        let tempds = (0..n).map(|_| Tempd::new(&spec)).collect();
        BangBangPolicy {
            spec,
            tempds,
            admd: Admd::new(n),
            restricted: vec![false; n],
        }
    }
}

impl ThermalPolicy for BangBangPolicy {
    fn name(&self) -> &'static str {
        "bang-bang"
    }

    fn control(&mut self, now_s: u64, snapshots: &[ServerSnapshot], sim: &mut ClusterSim) {
        if now_s > 0 && now_s.is_multiple_of(self.spec.sample_period_s) {
            self.admd.sample_connections(sim);
        }
        if now_s == 0 || !now_s.is_multiple_of(self.spec.check_period_s) {
            return;
        }
        for (i, snapshot) in snapshots.iter().enumerate() {
            if !snapshot.powered {
                continue;
            }
            let report = self.tempds[i].observe(&snapshot.temps, &self.spec);
            if report.output.is_some() {
                // Fixed halving regardless of how hot the server runs.
                self.admd.rescale_weight(sim, i, 1.0);
                if self.spec.connection_caps {
                    self.admd.apply_connection_cap(sim, i);
                }
                self.restricted[i] = true;
            } else if report.all_below_low && self.restricted[i] {
                self.admd.release(sim, i);
                self.restricted[i] = false;
            }
        }
        self.admd.end_interval();
    }
}

/// PD vs P-only vs bang-bang admission control under the §5 scenario.
pub fn controller() -> Result {
    // Connection caps are disabled for all three variants so the
    // controllers' weight decisions are the only lever under test.
    let mut pd_spec = builtin_spec("freon")?;
    pd_spec.connection_caps = false;
    let mut p_only_spec = pd_spec.clone();
    p_only_spec.name = "p-only".to_string();
    p_only_spec.gains.kd = 0.0;
    let th = pd_spec
        .thresholds_for("cpu")
        .expect("cpu thresholds exist")
        .high;

    let mut pd = SpecPolicy::new(pd_spec.clone(), 4)?;
    let pd_log = run_policy(&mut pd)?;
    let mut p_only = SpecPolicy::new(p_only_spec, 4)?;
    let p_log = run_policy(&mut p_only)?;
    let mut bang = BangBangPolicy::new(pd_spec, 4);
    let bang_log = run_policy(&mut bang)?;

    let mut csv =
        String::from("controller,drop_rate_pct,overshoot_c,seconds_above_th,mean_hot_weight\n");
    for (name, log) in [
        ("pd", &pd_log),
        ("p-only", &p_log),
        ("bang-bang", &bang_log),
    ] {
        let overshoot = (0..4)
            .map(|i| log.max_cpu_temp(i) - th)
            .fold(f64::NEG_INFINITY, f64::max)
            .max(0.0);
        let above: u64 = (0..4).map(|i| log.seconds_above(i, th)).sum();
        // How hard machine1 was throttled after its emergency: the mean
        // of its LVS weight from the emergency onset onward. Lower means
        // the controller sacrificed more of a working server's capacity.
        let m1_weights: Vec<f64> = log
            .rows()
            .iter()
            .filter(|r| r.time_s >= 480)
            .map(|r| r.weight[0])
            .collect();
        let mean_weight = m1_weights.iter().sum::<f64>() / m1_weights.len().max(1) as f64;
        let _ = writeln!(
            csv,
            "{name},{:.3},{overshoot:.2},{above},{mean_weight:.3}",
            log.drop_rate() * 100.0
        );
    }
    write_results("ablation_controller.csv", &csv)?;
    paper("(design choice) the paper uses a PD controller with kp=0.1, kd=0.2; the derivative term reacts to fast-rising temperatures before they overshoot");
    measured("see ablation_controller.csv: drop rate, peak overshoot over T_h, and time spent above T_h per controller");
    verdict(
        pd_log.total_dropped() == 0,
        "the PD controller serves the full trace",
    );
    Ok(())
}

/// Freon-EC utilization-projection horizon sweep (0/1/2/4 intervals).
pub fn projection() -> Result {
    let mut csv =
        String::from("projection_intervals,drop_rate_pct,mean_active_servers,power_ons\n");
    let mut drop_rates = Vec::new();
    for horizon in [0u32, 1, 2, 4] {
        let mut spec = builtin_spec("freon-ec")?;
        spec.ec
            .as_mut()
            .expect("freon-ec has an [ec] section")
            .projection_intervals = horizon;
        let mut policy = SpecPolicy::new(spec, 4)?;
        // Slow-booting servers (2.5 min) are where look-ahead should
        // matter: a boot must start before rising load arrives.
        let server_config = cluster_sim::ServerConfig {
            boot_seconds: 150,
            ..Default::default()
        };
        let log = crate::freon_exp::run_policy_with(&mut policy, server_config)?;
        drop_rates.push(log.drop_rate());
        let _ = writeln!(
            csv,
            "{horizon},{:.3},{:.2},{}",
            log.drop_rate() * 100.0,
            log.mean_active_servers(),
            policy.power_ons()
        );
    }
    write_results("ablation_projection.csv", &csv)?;
    paper("(design choice) Freon-EC projects utilization two intervals ahead because booting a server 'takes quite some time'; without projection, rising load outruns the boot latency");
    measured(&format!(
        "drop rates at horizon 0/1/2/4: {:.2}% / {:.2}% / {:.2}% / {:.2}%",
        drop_rates[0] * 100.0,
        drop_rates[1] * 100.0,
        drop_rates[2] * 100.0,
        drop_rates[3] * 100.0
    ));
    verdict(
        drop_rates[2] <= drop_rates[0] + 1e-9,
        "the paper's 2-interval projection drops no more than the no-projection variant",
    );
    Ok(())
}

/// Solver stability-limit sweep: accuracy (vs a fine-grained run) against
/// sub-step cost, on the Table 1 machine.
pub fn substeps() -> Result {
    // Ground truth: very small stability limit (many sub-steps).
    let model = presets::validation_machine();
    let truth = run_step_response(&model, 0.02)?;
    let mut csv = String::from("stability_limit,substeps_per_tick,max_error_c\n");
    let mut rows = Vec::new();
    for limit in [0.05, 0.1, 0.25, 0.5, 1.0] {
        let series = run_step_response(&model, limit)?;
        let err = crate::common::max_abs_diff(&series.1, &truth.1);
        rows.push((limit, series.0, err));
        let _ = writeln!(csv, "{limit},{},{err:.4}", series.0);
    }
    write_results("ablation_substeps.csv", &csv)?;
    paper("(design choice) the solver sub-divides each 1 s tick to keep explicit Euler stable; the limit trades accuracy for per-tick cost");
    for (limit, steps, err) in &rows {
        measured(&format!(
            "limit {limit}: {steps} sub-steps/tick, max error {err:.4} °C"
        ));
    }
    verdict(
        rows.iter().all(|(_, _, err)| *err < 0.5),
        "every tested limit stays within 0.5 °C of the fine-grained run",
    );
    Ok(())
}

/// A CPU step response: utilization 0→1 at t=0 for 1 200 s, recording the
/// CPU temperature each second. Returns (substeps/tick, series).
fn run_step_response(
    model: &mercury::model::MachineModel,
    stability_limit: f64,
) -> Result<(usize, Vec<f64>)> {
    let cfg = SolverConfig {
        stability_limit,
        ..SolverConfig::default()
    };
    let mut solver = Solver::new(model, cfg)?;
    solver.set_utilization(nodes::CPU, 1.0)?;
    let substeps = solver.substeps_per_tick();
    let mut series = Vec::with_capacity(1200);
    for _ in 0..1200 {
        solver.step();
        series.push(solver.temperature(nodes::CPU)?.0);
    }
    Ok((substeps, series))
}
