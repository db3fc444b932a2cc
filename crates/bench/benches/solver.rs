//! M1: the solver's per-iteration cost (the paper reports ≈ 100 µs per
//! iteration on 2006 hardware for the Table 1 graphs).

use criterion::{criterion_group, criterion_main, Criterion};
use mercury::presets::{self, nodes};
use mercury::solver::{ClusterSolver, SimdBackend, Solver, SolverConfig};
use std::hint::black_box;

fn bench_solver(c: &mut Criterion) {
    let model = presets::validation_machine();

    c.bench_function("solver_tick_table1", |b| {
        let mut solver = Solver::new(&model, SolverConfig::default()).unwrap();
        solver.set_utilization(nodes::CPU, 0.7).unwrap();
        solver.set_utilization(nodes::DISK_PLATTERS, 0.4).unwrap();
        b.iter(|| {
            solver.step();
            black_box(solver.time());
        });
    });

    c.bench_function("solver_tick_cluster4", |b| {
        let cluster = presets::validation_cluster(4);
        let mut solver = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
        for i in 1..=4 {
            solver
                .set_utilization(&format!("machine{i}"), nodes::CPU, 0.7)
                .unwrap();
        }
        b.iter(|| {
            solver.step();
            black_box(solver.time());
        });
    });

    c.bench_function("solver_tick_cluster64_serial", |b| {
        let cluster = presets::validation_cluster(64);
        let mut solver = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
        for i in 1..=64 {
            solver
                .set_utilization(&format!("machine{i}"), nodes::CPU, 0.7)
                .unwrap();
        }
        b.iter(|| {
            solver.step();
            black_box(solver.time());
        });
    });

    // Replicated-room scaling: the batched SoA path vs per-machine
    // stepping: the comparison is pure kernel effect.
    for &n in &[256usize, 1024] {
        for &(label, batching) in &[("batched", true), ("per_machine", false)] {
            c.bench_function(&format!("solver_tick_cluster{n}_{label}"), |b| {
                let cluster = presets::validation_cluster(n);
                let mut solver = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
                solver.set_batching(batching);
                for i in 1..=n {
                    solver
                        .set_utilization(&format!("machine{i}"), nodes::CPU, 0.7)
                        .unwrap();
                }
                solver.step(); // build the batch plan outside the timing
                b.iter(|| {
                    solver.step();
                    black_box(solver.time());
                });
            });
        }
    }

    // `replay_churn`'s shape without the file: every cell changes every
    // tick and 128 of the 1024 fans are re-commanded every 10 ticks, so
    // the per-machine-tick cost of a diverged machine reads beside the
    // uniform `solver_tick_cluster1024_batched` above.
    c.bench_function("cluster1024_fan_churn", |b| {
        let cluster = presets::validation_cluster(1024);
        let mut solver = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
        let cpu = solver.machine_at(0).node_index(nodes::CPU).unwrap();
        let mut tick = 0usize;
        b.iter(|| {
            for m in 0..1024 {
                let u = ((tick * 31 + m * 17) % 100) as f64 / 100.0;
                solver.machine_at_mut(m).set_utilization_at(cpu, u).unwrap();
            }
            if tick.is_multiple_of(10) {
                for m in (0..1024).step_by(8) {
                    let scale = 0.7 + ((tick / 10 * 7 + m) % 60) as f64 / 100.0;
                    solver
                        .machine_at_mut(m)
                        .set_fan_cfm(presets::FAN_CFM * scale)
                        .unwrap();
                }
            }
            solver.step();
            tick += 1;
            black_box(solver.time());
        });
    });

    // The input-carrying half of `replay_churn` alone (no fan commands):
    // two cells of every machine change on every tick, ten ticks per
    // iteration — through the solvers and one `step()` per tick, or as
    // one `step_for_fed` span that prices them in the chunk lanes.
    for fed in [false, true] {
        let name = format!("cluster1024_churn_{}", if fed { "fed" } else { "step" });
        c.bench_function(&name, |b| {
            let cluster = presets::validation_cluster(1024);
            let mut solver = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
            let cells = [nodes::CPU, nodes::DISK_PLATTERS]
                .map(|c| solver.machine_at(0).node_index(c).unwrap());
            let u = |tick: usize, m: usize, c: usize| {
                ((tick * 31 + m * 17 + c * 7) % 100) as f64 / 100.0
            };
            let mut tick = 0usize;
            b.iter(|| {
                if fed {
                    solver
                        .step_for_fed(
                            10,
                            &[],
                            |_, _| {},
                            |inputs| {
                                for m in 0..1024 {
                                    for (c, &node) in cells.iter().enumerate() {
                                        inputs.set_utilization_at(m, node, u(tick, m, c))?;
                                    }
                                }
                                tick += 1;
                                Ok(true)
                            },
                        )
                        .unwrap();
                } else {
                    for _ in 0..10 {
                        for m in 0..1024 {
                            for (c, &node) in cells.iter().enumerate() {
                                solver
                                    .machine_at_mut(m)
                                    .set_utilization_at(node, u(tick, m, c))
                                    .unwrap();
                            }
                        }
                        solver.step();
                        tick += 1;
                    }
                }
                black_box(solver.time());
            });
        });
    }

    // A fused span over the room with the property the span's air mix
    // relies on (every inlet reads only the supply, the one junction is
    // read by nothing: the mix runs once, at the span's end) and over the
    // room without it (every inlet reads the hot aisle: it runs every
    // tick).
    for (name, cluster) in [
        (
            "cluster1024_fused_ideal_room",
            presets::validation_cluster(1024),
        ),
        (
            "cluster1024_fused_recirculating_room",
            presets::recirculating_cluster(1024, 0.2),
        ),
    ] {
        c.bench_function(name, |b| {
            let mut solver = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
            for m in 0..1024 {
                solver
                    .machine_at_mut(m)
                    .set_utilization(nodes::CPU, (m % 10) as f64 / 10.0)
                    .unwrap();
            }
            solver.step_for(30); // warm-up: plan, gather, hot chunks
            b.iter(|| {
                solver.step_for(30);
                black_box(solver.time());
            });
        });
    }

    // The batched 1024-machine tick at every compile level of the lane
    // sweep the host supports.
    for backend in SimdBackend::ALL.into_iter().filter(|b| b.supported()) {
        let name = format!("solver_tick_cluster1024_simd_{}", backend.name());
        c.bench_function(&name, |b| {
            let cluster = presets::validation_cluster(1024);
            let mut solver = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
            solver.set_simd_backend(backend).unwrap();
            for i in 1..=1024 {
                solver
                    .set_utilization(&format!("machine{i}"), nodes::CPU, 0.7)
                    .unwrap();
            }
            solver.step(); // build the batch plan outside the timing
            b.iter(|| {
                solver.step();
                black_box(solver.time());
            });
        });
    }

    c.bench_function("solver_temperature_query", |b| {
        let solver = Solver::new(&model, SolverConfig::default()).unwrap();
        b.iter(|| black_box(solver.temperature(nodes::CPU_AIR).unwrap()));
    });

    c.bench_function("solver_steady_state_from_cold", |b| {
        b.iter(|| {
            let mut solver = Solver::new(&model, SolverConfig::default()).unwrap();
            solver.set_utilization(nodes::CPU, 1.0).unwrap();
            black_box(solver.run_to_steady_state(1e-4, 50_000));
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_solver
}
criterion_main!(benches);
