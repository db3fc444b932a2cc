//! Table 1, Figure 1, Figure 4, and the §2.3 micro measurements.

use crate::common::{measured, paper, verdict, write_results};
use mercury::fiddle::FiddleScript;
use mercury::net::{Sensor, ServiceConfig, SolverService};
use mercury::presets::{self, nodes};
use mercury::solver::{Solver, SolverConfig};
use mercury::units::Seconds;
use reference_models::fluent2d::{CaseConfig, Component, Fluent2d};
use std::fmt::Write as _;
use std::time::Instant;

type Result = std::result::Result<(), Box<dyn std::error::Error>>;

/// Prints the Table 1 model exactly as Mercury loads it.
pub fn table1() -> Result {
    let model = presets::validation_machine();
    println!(
        "machine `{}` — {} nodes, {} heat edges, {} air edges",
        model.name(),
        model.nodes().len(),
        model.heat_edges().len(),
        model.air_edges().len()
    );
    println!(
        "fan: {:.1} cfm, inlet: {}",
        model.fan().to_cfm(),
        model.inlet_temperature()
    );
    println!("\ncomponents:");
    for node in model.nodes() {
        if let Some(c) = node.as_component() {
            println!(
                "  {:14} mass {:>6.3} kg  c {:>6.0} J/(kg·K)  power {:?}  monitored={}",
                c.name, c.mass.0, c.specific_heat.0, c.power, c.monitored
            );
        }
    }
    println!("\nheat edges (k in W/K):");
    for e in model.heat_edges() {
        println!(
            "  {:14} -- {:14} k={}",
            model.node(e.a).name(),
            model.node(e.b).name(),
            e.k.0
        );
    }
    println!("\nair edges (fractions):");
    for e in model.air_edges() {
        println!(
            "  {:14} -> {:14} {}",
            model.node(e.from).name(),
            model.node(e.to).name(),
            e.fraction
        );
    }
    paper("Table 1 lists the validation server's constants");
    measured("all constants encoded and asserted by unit tests (presets module)");
    Ok(())
}

/// Dumps the three Figure 1 graphs as Graphviz dot files.
pub fn fig1() -> Result {
    let machine = presets::validation_machine();
    let cluster = presets::validation_cluster(4);
    write_results(
        "fig1a_heatflow.dot",
        &mercury_graphdl::dot::heat_flow_to_dot(&machine),
    )?;
    write_results(
        "fig1b_airflow.dot",
        &mercury_graphdl::dot::air_flow_to_dot(&machine),
    )?;
    write_results(
        "fig1c_cluster.dot",
        &mercury_graphdl::dot::cluster_to_dot(&cluster),
    )?;
    paper("Figure 1 shows the intra-machine heat-flow, intra-machine air-flow, and inter-machine air-flow graphs");
    measured("three dot files written (render with `dot -Tpng`)");
    Ok(())
}

/// Replays the Figure 4 fiddle script against a solver and records the
/// inlet/CPU response.
pub fn fig4() -> Result {
    let model = presets::validation_machine_named("machine1");
    let mut solver = Solver::new(&model, SolverConfig::default())?;
    solver.set_utilization(nodes::CPU, 0.6)?;
    let script = FiddleScript::parse(
        "#!/bin/bash\nsleep 100\nfiddle machine1 temperature inlet 30\nsleep 200\nfiddle machine1 temperature inlet 21.6\n",
    )?;
    let mut runner = script.runner();
    let mut csv = String::from("time,inlet,cpu_air,cpu\n");
    let mut inlet_during = 0.0_f64;
    let mut inlet_after = 0.0_f64;
    for t in 0..600u64 {
        runner.apply_due_to_solver(Seconds(t as f64), &mut solver)?;
        solver.step();
        let inlet = solver.temperature(nodes::INLET)?.0;
        let cpu_air = solver.temperature(nodes::CPU_AIR)?.0;
        let cpu = solver.temperature(nodes::CPU)?.0;
        let _ = writeln!(csv, "{t},{inlet:.3},{cpu_air:.3},{cpu:.3}");
        if t == 250 {
            inlet_during = inlet;
        }
        if t == 550 {
            inlet_after = inlet;
        }
    }
    write_results("fig4_fiddle.csv", &csv)?;
    paper("the script raises machine1's inlet to 30 °C at t=100 s and restores 21.6 °C at t=300 s");
    measured(&format!(
        "inlet at t=250 s: {inlet_during:.1} °C; at t=550 s: {inlet_after:.1} °C"
    ));
    verdict(
        (inlet_during - 30.0).abs() < 1e-6 && (inlet_after - 21.6).abs() < 1e-6,
        "fiddle events land at the scripted times",
    );
    Ok(())
}

/// The §2.3 micro numbers: solver iteration cost (M1, paper ≈ 100 µs),
/// `readsensor` latency (M2, paper ≈ 300 µs, vs 500 µs for the real SCSI
/// in-disk sensor), and the motivation (M3): one steady-state solve of
/// the CFD stand-in against a whole ten-minute Mercury transient.
pub fn micro() -> Result {
    // Solver iteration cost over the Table 1 graphs.
    let model = presets::validation_machine();
    let mut solver = Solver::new(&model, SolverConfig::default())?;
    solver.set_utilization(nodes::CPU, 0.7)?;
    solver.set_utilization(nodes::DISK_PLATTERS, 0.4)?;
    solver.step_for(100); // warm up
    let iters = 20_000;
    let start = Instant::now();
    solver.step_for(iters);
    let per_iter = start.elapsed().as_secs_f64() / iters as f64;

    // readsensor over UDP loopback.
    let service = SolverService::spawn_machine(&model, ServiceConfig::fast())?;
    let sensor = Sensor::open(service.local_addr(), "", nodes::DISK_SHELL)?;
    let reads = 2_000;
    let start = Instant::now();
    for _ in 0..reads {
        sensor.read()?;
    }
    let per_read = start.elapsed().as_secs_f64() / reads as f64;
    sensor.close();
    service.shutdown();

    // One operating point from the CFD stand-in vs a 600 s transient.
    let mut case = Fluent2d::server_case(CaseConfig::coarse());
    case.set_power(Component::Cpu, 19.0);
    case.set_power(Component::Disk, 11.5);
    case.set_power(Component::Psu, 40.0);
    let start = Instant::now();
    case.solve(1e-5, 400_000)?;
    let cfd_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut transient = Solver::new(&model, SolverConfig::default())?;
    transient.set_utilization(nodes::CPU, 0.6)?;
    transient.step_for(600);
    let mercury_s = start.elapsed().as_secs_f64();

    paper("solver ≈ 100 µs per iteration; readsensor ≈ 300 µs (real SCSI sensor: 500 µs)");
    measured(&format!(
        "solver {:.1} µs/iteration; readsensor {:.1} µs over UDP loopback",
        per_iter * 1e6,
        per_read * 1e6
    ));
    paper("Fluent takes hours per case; Mercury emulates a whole transient");
    measured(&format!(
        "CFD stand-in steady solve {:.1} ms; Mercury 600 s transient {:.2} ms ({:.0}x)",
        cfd_s * 1e3,
        mercury_s * 1e3,
        cfd_s / mercury_s
    ));
    verdict(
        per_iter * 1e6 < 500.0,
        "solver iteration is in the paper's order of magnitude",
    );
    verdict(
        per_read * 1e6 < 1_000.0,
        "sensor reads beat the real in-disk sensor's 500 µs class",
    );
    verdict(
        mercury_s < cfd_s,
        "a 600 s Mercury transient costs less than one CFD operating point",
    );
    Ok(())
}
