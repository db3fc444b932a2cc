//! The paper's discussed-but-unevaluated comparisons, built out: §4.3's
//! remote vs local throttling, and §7's variable-speed fans.

use crate::common::{measured, paper, verdict, write_results};
use crate::freon_exp::{builtin_policy, run_policy};
use freon::{CombinedPolicy, NoPolicy};
use mercury::fan::{FanController, FanCurve};
use std::fmt::Write as _;

type Result<T = ()> = std::result::Result<T, Box<dyn std::error::Error>>;

/// §4.3: Freon's remote throttling vs CPU-local DVFS vs the combination,
/// under the §5 scenario.
pub fn sec43_throttling() -> Result {
    let mut freon = builtin_policy("freon")?;
    let th = freon
        .spec()
        .thresholds_for("cpu")
        .expect("cpu thresholds exist")
        .high;
    let freon_log = run_policy(&mut freon)?;
    let mut local = builtin_policy("local-dvfs")?;
    let local_log = run_policy(&mut local)?;
    let mut combined = CombinedPolicy::new(builtin_policy("freon")?);
    let combined_log = run_policy(&mut combined)?;

    let mut csv = String::from("policy,drop_rate_pct,seconds_above_th,peak_c,servers_lost\n");
    let mut rows = Vec::new();
    for (name, log, lost) in [
        ("freon", &freon_log, freon.red_line_shutdowns()),
        ("local-dvfs", &local_log, local.red_line_shutdowns()),
        (
            "freon+dvfs",
            &combined_log,
            combined.freon().red_line_shutdowns(),
        ),
    ] {
        let above: u64 = (0..4).map(|i| log.seconds_above(i, th)).sum();
        let peak = (0..4)
            .map(|i| log.max_cpu_temp(i))
            .fold(f64::NEG_INFINITY, f64::max);
        let _ = writeln!(
            csv,
            "{name},{:.3},{above},{peak:.2},{lost}",
            log.drop_rate() * 100.0
        );
        rows.push((name, log.drop_rate(), above, peak, lost));
    }
    write_results("sec43_throttling.csv", &csv)?;

    paper("§4.3 argues remote throttling needs no hardware support, throttles any component, and offers a continuous control range, while DVFS is CPU-only with few levels; 'the best approach should probably be a combination' of software (coarse) and hardware (fine-grained)");
    for (name, drop, above, peak, lost) in &rows {
        measured(&format!(
            "{name}: drop {:.2}%, {above} s above T_h, peak {peak:.1} °C, {lost} servers lost",
            drop * 100.0
        ));
    }
    measured(&format!(
        "local DVFS took {} frequency steps; the combination took {} (software absorbed the rest)",
        local.frequency_steps_down(),
        combined.dvfs_steps_down()
    ));
    let freon_row = &rows[0];
    let combined_row = &rows[2];
    verdict(
        freon_row.1 == 0.0,
        "remote throttling serves the full trace",
    );
    verdict(
        combined_row.2 <= freon_row.2 && combined_row.1 <= freon_row.1,
        "the combination is at least as good as software alone (the paper's conjecture)",
    );
    verdict(
        rows[1].4 == 0,
        "local DVFS alone avoids red-lining in this scenario",
    );
    Ok(())
}

/// §7: variable-speed fans. The same no-policy emergency run with fixed
/// Table 1 fans vs a firmware fan curve — the curve should blunt the
/// emergency on its own.
pub fn ablation_fans() -> Result {
    let (model, sim) = crate::freon_exp::setup();
    let trace = crate::freon_exp::paper_trace();
    let script = crate::freon_exp::emergencies();

    let run = |fan: Option<FanController>| -> Result<freon::ExperimentLog> {
        let config = freon::ExperimentConfig {
            duration_s: crate::freon_exp::DURATION_S,
            fan_controller: fan,
            ..Default::default()
        };
        let log = freon::Experiment::new(&model, sim.clone(), &trace, Some(&script), config)?
            .run(&mut NoPolicy)?;
        Ok(log)
    };

    let fixed = run(None)?;
    // A 38.6 cfm floor (the Table 1 fan) ramping to double speed by 70 °C.
    let curve = FanCurve::ramp(45.0, 38.6, 70.0, 77.2);
    let variable = run(Some(FanController::new(curve, "cpu")))?;

    let mut csv = String::from("fans,peak_m1_c,peak_m3_c,seconds_m1_above_67\n");
    for (name, log) in [("fixed", &fixed), ("variable", &variable)] {
        let _ = writeln!(
            csv,
            "{name},{:.2},{:.2},{}",
            log.max_cpu_temp(0),
            log.max_cpu_temp(2),
            log.seconds_above(0, 67.0)
        );
    }
    write_results("ablation_fans.csv", &csv)?;

    paper("§7: 'we are currently extending our models to consider clock throttling and variable-speed fans' — both 'essentially depend on temperature, which Mercury emulates accurately'");
    measured(&format!(
        "machine1 peak with fixed fans {:.1} °C vs {:.1} °C with a 38.6→77.2 cfm curve; time above 67 °C {} s vs {} s",
        fixed.max_cpu_temp(0),
        variable.max_cpu_temp(0),
        fixed.seconds_above(0, 67.0),
        variable.seconds_above(0, 67.0)
    ));
    verdict(
        variable.max_cpu_temp(0) < fixed.max_cpu_temp(0) - 0.5,
        "the fan curve lowers the emergency peak on its own",
    );
    Ok(())
}
