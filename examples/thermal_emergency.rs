//! Injecting a thermal emergency with `fiddle` (the paper's Figure 4).
//!
//! A cooling failure is simulated by pinning a machine's inlet air at
//! 30 °C for 200 seconds; the CPU heats toward a new equilibrium and
//! recovers after the "repair". The same script drives both the
//! in-process solver and (commented path) a remote solver service.
//!
//! Run with: `cargo run --example thermal_emergency`

use mercury_freon::mercury::fiddle::FiddleScript;
use mercury_freon::mercury::presets::{self, nodes};
use mercury_freon::mercury::solver::{Solver, SolverConfig};
use mercury_freon::mercury::units::Seconds;

const SCRIPT: &str = "#!/bin/bash
# Figure 4 of the paper: a 200-second cooling failure.
sleep 100
fiddle machine1 temperature inlet 30
sleep 200
fiddle machine1 temperature inlet 21.6
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = presets::validation_machine_named("machine1");
    let mut solver = Solver::new(&model, SolverConfig::default())?;
    solver.set_utilization(nodes::CPU, 0.7)?;

    let script = FiddleScript::parse(SCRIPT)?;
    println!("script events:");
    for (at, command) in script.commands() {
        println!("  t={at:>5}  {command}");
    }

    let mut runner = script.runner();
    println!("\ntime   inlet    cpu_air  cpu");
    for t in 0..600u64 {
        runner.apply_due_to_solver(Seconds(t as f64), &mut solver)?;
        solver.step();
        if t % 50 == 49 {
            println!(
                "{:>4}  {:>7.1}  {:>7.1}  {:>6.1}",
                t + 1,
                solver.temperature(nodes::INLET)?.0,
                solver.temperature(nodes::CPU_AIR)?.0,
                solver.temperature(nodes::CPU)?.0,
            );
        }
    }
    println!("\n(the inlet jumps to 30 °C at t=100 and back at t=300; the CPU\n lags behind with its ~3-minute thermal time constant)");
    Ok(())
}
