//! The complete Figure 9 deployment over real sockets: Mercury's solver
//! service emulating a 4-machine room, the cluster simulation serving a
//! live workload, one `monitord` and one `tempd` per server, sensors
//! reading temperatures over UDP, and `admd` at the balancer applying
//! Freon's adjustments — every arrow in the paper's architecture diagram
//! is a datagram here.
//!
//! Wall-clock compression: one emulated second ≈ 2 ms, so the 2000 s
//! §5 scenario plays in a few seconds.
//!
//! Run with: `cargo run --release --example networked_freon`

use mercury_freon::cluster::{ClusterSim, ServerConfig};
use mercury_freon::freon::net::{AdmdService, TempdDaemon};
use mercury_freon::freon::PolicySpec;
use mercury_freon::mercury::fiddle::FiddleCommand;
use mercury_freon::mercury::net::{
    send_fiddle, FnSource, Monitord, Sensor, ServiceConfig, SolverService,
};
use mercury_freon::mercury::presets;
use mercury_freon::workload::{DiurnalProfile, RequestMix, WorkloadGenerator};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Wall milliseconds per emulated second.
const MS_PER_SECOND: u64 = 2;
/// Emulated seconds to run.
const DURATION_S: u64 = 2000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Mercury: the thermal side, served over UDP -----------------------
    let room = presets::freon_cluster(4);
    let solver = SolverService::spawn_cluster(
        &room,
        ServiceConfig {
            tick_wall: Duration::from_millis(MS_PER_SECOND),
            ..ServiceConfig::default()
        },
    )?;
    println!("mercury solver service on {}", solver.local_addr());

    // --- The cluster being managed ----------------------------------------
    let sim = Arc::new(Mutex::new(ClusterSim::homogeneous(
        4,
        ServerConfig::default(),
    )));

    // --- admd at the balancer ----------------------------------------------
    let compression = MS_PER_SECOND as f64 / 1000.0;
    let spec = PolicySpec::builtin("freon").ok_or("`freon` is a built-in spec")?;
    let admd = AdmdService::spawn(Arc::clone(&sim), &spec, compression)?;
    println!("freon admd on {}", admd.local_addr());

    // --- One monitord + one tempd per server -------------------------------
    let mut daemons = Vec::new();
    for i in 0..4 {
        let machine = format!("machine{}", i + 1);
        // monitord: samples the simulated server, reports to Mercury.
        let sim_for_monitor = Arc::clone(&sim);
        let monitord = Monitord::spawn(
            machine.clone(),
            FnSource(move || {
                let sim = sim_for_monitor.lock();
                vec![
                    ("cpu".to_string(), sim.server(i).cpu_utilization()),
                    (
                        "disk_platters".to_string(),
                        sim.server(i).disk_utilization(),
                    ),
                ]
            }),
            solver.local_addr(),
            Duration::from_millis(MS_PER_SECOND),
        )?;
        // tempd: reads Mercury sensors over UDP, reports to admd.
        let cpu_sensor = Sensor::open(solver.local_addr(), machine.clone(), "cpu")?;
        let disk_sensor = Sensor::open(solver.local_addr(), machine.clone(), "disk_platters")?;
        let tempd = TempdDaemon::spawn(i, &spec, admd.local_addr(), compression, move || {
            let mut temps = Vec::with_capacity(2);
            if let Ok(t) = cpu_sensor.read() {
                temps.push(("cpu".to_string(), t.0));
            }
            if let Ok(t) = disk_sensor.read() {
                temps.push(("disk_platters".to_string(), t.0));
            }
            temps
        })?;
        daemons.push((monitord, tempd));
    }

    // --- The workload driver, in this thread --------------------------------
    let mix = RequestMix::paper();
    let peak = mix.rps_for_cpu_utilization(0.7, 4, 1000.0);
    let profile = DiurnalProfile::new(DURATION_S as f64, peak * 0.15, peak)
        .with_peak_at(0.70)
        .with_plateau(0.3);
    let mut generator = WorkloadGenerator::new(profile, mix, 42);

    let stop = Arc::new(AtomicBool::new(false));
    println!(
        "\nrunning {DURATION_S} emulated seconds ({} ms wall each)...",
        MS_PER_SECOND
    );
    let mut emergency_sent = false;
    for t in 0..DURATION_S {
        let arrivals = generator.arrivals_at(t);
        sim.lock().tick(arrivals);
        if t == 480 && !emergency_sent {
            // The §5 emergencies, injected over the wire with fiddle.
            for (machine, celsius) in [("machine1", 38.6), ("machine3", 35.6)] {
                send_fiddle(
                    solver.local_addr(),
                    &FiddleCommand::Temperature {
                        machine: machine.into(),
                        node: "inlet".into(),
                        celsius,
                    },
                )?;
            }
            println!("t=480s: raised machine1 inlet to 38.6 °C, machine3 to 35.6 °C (via fiddle)");
            emergency_sent = true;
        }
        if t % 200 == 199 {
            let weights: Vec<f64> = {
                let sim = sim.lock();
                (0..4).map(|i| sim.lvs().weight(i)).collect()
            };
            let m1 = Sensor::open(solver.local_addr(), "machine1", "cpu")?;
            println!(
                "t={:>4}s  m1 cpu {:>5.1}  weights {:?}",
                t + 1,
                m1.read()?.0,
                weights
                    .iter()
                    .map(|w| (w * 100.0).round() / 100.0)
                    .collect::<Vec<_>>()
            );
        }
        std::thread::sleep(Duration::from_millis(MS_PER_SECOND));
    }
    stop.store(true, Ordering::Relaxed);

    let sim = sim.lock();
    println!(
        "\nfinal: offered {}, dropped {} ({:.2}%), mean response {:.0} ms, admd handled {} messages",
        sim.total_offered(),
        sim.total_dropped(),
        sim.drop_rate() * 100.0,
        sim.mean_response_time_s() * 1000.0,
        admd.messages_handled()
    );
    drop(sim);
    for (monitord, tempd) in daemons {
        monitord.shutdown();
        tempd.shutdown();
    }
    admd.shutdown();
    solver.shutdown();
    Ok(())
}
