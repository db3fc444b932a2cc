//! `freon_closed_loop`: the in-process §5 experiment.
//!
//! One unit is one `freon::Experiment::run` over
//! `presets::freon_cluster(64)` and `ClusterSim::homogeneous(64)` under
//! `FreonPolicy` (paper configuration), driven by a diurnal
//! `WorkloadTrace` of three cycles peaking at 70 % utilisation, with the
//! inlet of every 8th machine raised part-way through.
//!
//! The traced run drives the same second-by-second sequence through the
//! public functions the engine calls, with a `bench.*` span around each
//! call into a layer, and must reproduce the engine's log bit for bit.

use crate::catalogue::FREON_CLOSED_LOOP;
use crate::harness::{
    fast_decile_of, median_of, run_units, timed_setups, HostClock, Result, RunOptions,
};
use crate::prepare::{self, Corpus};
use crate::report::Outcome;
use crate::sizes::Sizes;
use crate::spans::{SpanTotals, TRACER_CAPACITY};
use crate::stats::{hash48, Fnv1a};
use cluster_sim::{ClusterSim, ServerConfig};
use freon::{
    EngineCommand, Experiment, ExperimentConfig, ExperimentLog, ExperimentMetrics, FreonConfig,
    FreonMetrics, FreonPolicy, ServerSnapshot, ThermalPolicy,
};
use mercury::fiddle::FiddleScript;
use mercury::model::{ClusterModel, NodeSpec, PowerModel};
use mercury::presets;
use mercury::solver::{ClusterMetrics, ClusterSolver};
use mercury::units::{Seconds, Watts};
use std::time::Instant;
use telemetry::{Registry, Tracer};
use workload_gen::{DiurnalProfile, RequestMix, WorkloadGenerator, WorkloadTrace};

/// Everything a unit reads; built once per set-up.
struct Inputs {
    model: ClusterModel,
    trace: WorkloadTrace,
    script: FiddleScript,
    corpus: Corpus,
}

fn config(duration_s: u64) -> ExperimentConfig {
    ExperimentConfig {
        duration_s,
        ..ExperimentConfig::default()
    }
}

fn setup(opts: &RunOptions, sizes: &Sizes) -> Result<Inputs> {
    let corpus = prepare::ensure(FREON_CLOSED_LOOP, opts.seed, opts.smoke, &opts.data_root)?;
    let trace =
        WorkloadTrace::from_json(&std::fs::read_to_string(corpus.file("freon.trace.json"))?)
            .map_err(|e| format!("freon.trace.json: {e}"))?;
    let script = FiddleScript::parse(&std::fs::read_to_string(corpus.file("freon.fiddle"))?)?;
    let model = presets::freon_cluster(sizes.freon_machines);
    let inputs = Inputs {
        model,
        trace,
        script,
        corpus,
    };
    // Warm-up: a short run pages the code in and sizes the allocator.
    engine_run(&inputs, sizes, sizes.freon_check_s.min(30))?;
    Ok(inputs)
}

/// What either loop produced for one unit.
#[derive(Debug, Clone, PartialEq)]
struct UnitResult {
    wall_s: f64,
    log_hash: u64,
    rows: u64,
    offered: u64,
    dropped: u64,
    fiddle_events: u64,
    observations: u64,
    decisions: u64,
    adjustments: u64,
    red_line_shutdowns: u64,
}

/// Hash of what the issue requires to match bit for bit — per-second
/// CPU temperatures and drop counts — plus the other per-server columns
/// both loops produce.
#[derive(Default)]
struct LogHasher(Fnv1a);

impl LogHasher {
    fn row(
        &mut self,
        time_s: u64,
        floats: impl Iterator<Item = f64>,
        counts: impl Iterator<Item = usize>,
    ) {
        self.0.write_u64(time_s);
        for v in floats {
            self.0.write_f64(v);
        }
        for c in counts {
            self.0.write_u64(c as u64);
        }
    }
}

fn hash_log(log: &ExperimentLog) -> u64 {
    let mut h = LogHasher::default();
    for r in log.rows() {
        h.row(
            r.time_s,
            r.cpu_temp
                .iter()
                .chain(&r.disk_temp)
                .chain(&r.weight)
                .copied(),
            r.connections
                .iter()
                .copied()
                .chain([r.offered, r.dropped, r.completed]),
        );
    }
    h.0.finish()
}

/// One untraced `Experiment::run` of `duration_s` simulated seconds.
fn engine_run(inputs: &Inputs, sizes: &Sizes, duration_s: u64) -> Result<UnitResult> {
    let n = sizes.freon_machines;
    let sim = ClusterSim::homogeneous(n, ServerConfig::default());
    let mut policy = FreonPolicy::new(FreonConfig::paper(), n);
    let started = Instant::now();
    let log = Experiment::new(
        &inputs.model,
        sim,
        &inputs.trace,
        Some(&inputs.script),
        config(duration_s),
    )?
    .run(&mut policy)?;
    let wall_s = started.elapsed().as_secs_f64();
    let fiddle_events = inputs
        .script
        .events()
        .iter()
        .filter(|e| e.at.0 < duration_s as f64)
        .count() as u64;
    Ok(UnitResult {
        wall_s,
        log_hash: hash_log(&log),
        rows: log.len() as u64,
        offered: log.total_offered(),
        dropped: log.total_dropped(),
        fiddle_events,
        observations: policy.metrics().observations.get(),
        decisions: policy.metrics().decisions(),
        adjustments: policy.adjustments(),
        red_line_shutdowns: policy.red_line_shutdowns(),
    })
}

/// DVFS power law, as the engine applies it when a policy scales a CPU.
fn scaled_cpu_power(original: &PowerModel, scale: f64) -> PowerModel {
    match original {
        PowerModel::Linear { base, max } => PowerModel::Linear {
            base: *base,
            max: Watts(base.0 + (max.0 - base.0) * scale.powi(3)),
        },
        other => other.clone(),
    }
}

/// Registry counts of the solver an unrolled unit stepped.
#[derive(Debug, Clone, Copy, Default)]
struct SolverCounts {
    ticks: u64,
    fused_ticks: u64,
    substeps: u64,
    flow_recomputes: u64,
    solo_machines: f64,
    solo_demotions: u64,
    simd_lane_width: f64,
}

/// The engine's loop, unrolled over the public functions it calls, one
/// `bench.*` span per call into a layer (inert when `tracer` is
/// detached). Default `ExperimentConfig`: no fan controller, recorder
/// or history, as in the untraced unit.
fn unrolled_run(
    inputs: &Inputs,
    sizes: &Sizes,
    duration_s: u64,
    tracer: &Tracer,
) -> Result<(UnitResult, SolverCounts)> {
    let cfg = config(duration_s);
    let n = sizes.freon_machines;
    let mut sim = ClusterSim::homogeneous(n, ServerConfig::default());
    let mut policy = FreonPolicy::new(FreonConfig::paper(), n);
    let started = Instant::now();
    let unit_span = tracer.start("bench.unit", "bench");
    let unit = unit_span.id();

    let mut solver = ClusterSolver::new(&inputs.model, cfg.solver.clone())?;
    let mut runner = inputs.script.runner();
    solver.set_tracer(tracer.clone());
    policy.set_tracer(tracer.clone());
    let original_power: Vec<Vec<(String, PowerModel)>> = inputs
        .model
        .machines()
        .iter()
        .map(|m| {
            m.nodes()
                .iter()
                .filter_map(|node| match node {
                    NodeSpec::Component(c) => Some((c.name.clone(), c.power.clone())),
                    NodeSpec::Air(_) => None,
                })
                .collect()
        })
        .collect();
    let mut was_powered = vec![true; n];
    let mut last_scale = vec![1.0_f64; n];
    let index_of = |component: &str| -> Result<Vec<usize>> {
        (0..n)
            .map(|i| {
                solver
                    .machine_at(i)
                    .node_index(component)
                    .ok_or_else(|| format!("no node `{component}`").into())
            })
            .collect()
    };
    let cpu_idx = index_of(&cfg.cpu_component)?;
    let disk_idx = index_of(&cfg.disk_component)?;

    let mut hasher = LogHasher::default();
    let (mut offered, mut dropped, mut fiddle_events) = (0u64, 0u64, 0u64);
    for t in 0..duration_s {
        for command in runner.due(Seconds(t as f64)) {
            command.apply_to_cluster(&mut solver)?;
            fiddle_events += 1;
        }

        let span = tracer.start_child("bench.workload.arrivals", "bench", unit);
        let arrivals = inputs.trace.arrivals_at(t);
        tracer.end(span);

        let span = tracer.start_child("bench.cluster.tick", "bench", unit);
        let stats = sim.tick(arrivals);
        tracer.end(span);

        let span = tracer.start_child("bench.core.set_inputs", "bench", unit);
        for i in 0..n {
            let powered = sim.server(i).is_powered();
            let scale = sim.server(i).speed_scale();
            if powered != was_powered[i] || (powered && scale != last_scale[i]) {
                let machine = solver.machine_at_mut(i);
                for (component, model) in &original_power[i] {
                    let desired = if !powered {
                        PowerModel::Constant(Watts(cfg.off_watts))
                    } else if component == &cfg.cpu_component && scale < 1.0 {
                        scaled_cpu_power(model, scale)
                    } else {
                        model.clone()
                    };
                    machine.set_power_model(component, desired)?;
                }
                was_powered[i] = powered;
                last_scale[i] = scale;
            }
            let machine = solver.machine_at_mut(i);
            machine.set_utilization_at(cpu_idx[i], stats.cpu_utilization[i])?;
            machine.set_utilization_at(disk_idx[i], stats.disk_utilization[i])?;
        }
        tracer.end(span);

        let span = tracer.start_child("bench.core.step", "bench", unit);
        solver.step();
        tracer.end(span);

        let span = tracer.start_child("bench.freon.snapshot", "bench", unit);
        let snapshots: Vec<ServerSnapshot> = (0..n)
            .map(|i| ServerSnapshot {
                temps: solver
                    .machine_at(i)
                    .temperatures()
                    .into_iter()
                    .map(|(name, c)| (name, c.0))
                    .collect(),
                cpu_util: stats.cpu_utilization[i],
                disk_util: stats.disk_utilization[i],
                connections: stats.connections[i],
                powered: sim.server(i).is_powered(),
                accepting: sim.server(i).accepts_connections(),
            })
            .collect();
        tracer.end(span);

        let span = tracer.start_child("bench.freon.control", "bench", unit);
        policy.control(t, &snapshots, &mut sim);
        for command in policy.drain_engine_commands() {
            match command {
                EngineCommand::SetFanCfm { server, cfm } => {
                    solver.machine_at_mut(server).set_fan_cfm(cfm)?;
                }
            }
        }
        tracer.end(span);

        let span = tracer.start_child("bench.freon.log", "bench", unit);
        hasher.row(
            t,
            (0..n)
                .map(|i| solver.machine_at(i).temperature_at(cpu_idx[i]).0)
                .chain((0..n).map(|i| solver.machine_at(i).temperature_at(disk_idx[i]).0))
                .chain((0..n).map(|i| sim.lvs().weight(i))),
            stats.connections.iter().copied().chain([
                stats.offered,
                stats.dropped,
                stats.completed,
            ]),
        );
        offered += stats.offered as u64;
        dropped += stats.dropped as u64;
        tracer.end(span);
    }
    tracer.end(unit_span);
    let wall_s = started.elapsed().as_secs_f64();

    let m = solver.metrics();
    let counts = SolverCounts {
        ticks: m.ticks.get(),
        fused_ticks: m.fused_ticks.get(),
        substeps: m.solver.substeps.get(),
        flow_recomputes: m.solver.flow_recomputes.get(),
        solo_machines: m.solo_machines.get(),
        solo_demotions: m.solo_demotions.get(),
        simd_lane_width: m.solver.simd_lane_width.get(),
    };
    Ok((
        UnitResult {
            wall_s,
            log_hash: hasher.0.finish(),
            rows: duration_s,
            offered,
            dropped,
            fiddle_events,
            observations: policy.metrics().observations.get(),
            decisions: policy.metrics().decisions(),
            adjustments: policy.adjustments(),
            red_line_shutdowns: policy.red_line_shutdowns(),
        },
        counts,
    ))
}

/// `ClusterSim::tick` cost per request at the probe size, where
/// O(servers) routing shows.
fn scale_probe(seed: u64, sizes: &Sizes) -> f64 {
    let n = sizes.freon_probe_machines;
    let mix = RequestMix::paper();
    let peak = mix.rps_for_cpu_utilization(0.7, n, 1000.0);
    let profile =
        DiurnalProfile::new(sizes.freon_probe_s as f64, peak * 0.15, peak).with_peak_at(0.65);
    let trace = WorkloadGenerator::new(profile, mix, seed).generate(sizes.freon_probe_s);
    let mut sim = ClusterSim::homogeneous(n, ServerConfig::default());
    let mut busy_ns = 0u128;
    for t in 0..sizes.freon_probe_s {
        let arrivals = trace.arrivals_at(t);
        let started = Instant::now();
        std::hint::black_box(sim.tick(arrivals));
        busy_ns += started.elapsed().as_nanos();
    }
    busy_ns as f64 / trace.total_requests().max(1) as f64
}

/// Compares everything two loops must agree on.
fn same_outputs(a: &UnitResult, b: &UnitResult) -> bool {
    UnitResult {
        wall_s: 0.0,
        ..a.clone()
    } == UnitResult {
        wall_s: 0.0,
        ..b.clone()
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Corpus, model or solver errors; a failed output check is reported
/// through the outcome, not as an error.
pub fn run(opts: &RunOptions) -> Result<Outcome> {
    let sizes = Sizes::of(opts.smoke);
    let clock = HostClock::start();
    let mut out = Outcome::new();
    let (inputs, setup_s) = timed_setups(|| setup(opts, sizes))?;
    let duration = sizes.freon_duration_s();
    let machine_seconds = (sizes.freon_machines as u64 * duration) as f64;

    // Output check, every run: over a prefix the engine and the
    // unrolled loop must produce the same log.
    let engine_prefix = engine_run(&inputs, sizes, sizes.freon_check_s)?;
    let (unrolled_prefix, _) =
        unrolled_run(&inputs, sizes, sizes.freon_check_s, &Tracer::disabled())?;
    out.check(same_outputs(&engine_prefix, &unrolled_prefix), || {
        format!(
            "Experiment::run and the unrolled loop differ over the first {} s: {engine_prefix:?} vs {unrolled_prefix:?}",
            sizes.freon_check_s
        )
    });

    if !opts.traced {
        let units = run_units(opts.seconds, 1, |_| engine_run(&inputs, sizes, duration))?;
        let first = &units[0];
        for (i, u) in units.iter().enumerate() {
            out.check(same_outputs(first, u), || {
                format!("unit {i} differs from unit 0: {u:?} vs {first:?}")
            });
            out.check(
                u.rows == duration && u.offered == inputs.trace.total_requests(),
                || format!("unit {i} logged {} rows, {} requests", u.rows, u.offered),
            );
        }
        out.set("setup_s", setup_s);
        out.set(
            "machine_seconds_per_s",
            fast_decile_of(&units, |u| machine_seconds / u.wall_s),
        );
        out.set(
            "requests_per_s",
            fast_decile_of(&units, |u| (u.offered - u.dropped) as f64 / u.wall_s),
        );
        clock.finish(false, &mut out);
        return Ok(out);
    }

    // Traced: the engine once for the reference log and `run_s`, then
    // the unrolled loop under the tracer for the rest of the window.
    let reference = engine_run(&inputs, sizes, duration)?;
    let tracer = Tracer::new(TRACER_CAPACITY);
    let mut totals = SpanTotals::new();
    let window = (opts.seconds - reference.wall_s).max(0.0);
    let units = run_units(window, 1, |_| {
        let unit = unrolled_run(&inputs, sizes, duration, &tracer)?;
        totals.absorb(&tracer);
        Ok(unit)
    })?;
    for (i, (u, _)) in units.iter().enumerate() {
        out.check(same_outputs(&reference, u), || {
            format!("traced unit {i} does not reproduce Experiment::run: {u:?} vs {reference:?}")
        });
    }
    let k = units.len() as f64;
    let per_unit = |name: &str| totals.total_s(name) / k;
    let (unit0, counts) = &units[0];

    out.set("workload.arrivals_s", per_unit("bench.workload.arrivals"));
    out.set("workload.requests", unit0.offered as f64);
    out.set("cluster.tick_s", per_unit("bench.cluster.tick"));
    out.set(
        "cluster.ns_per_request",
        per_unit("bench.cluster.tick") * 1e9 / unit0.offered.max(1) as f64,
    );
    out.set(
        "cluster.requests_routed",
        (unit0.offered - unit0.dropped) as f64,
    );
    out.set("cluster.requests_dropped", unit0.dropped as f64);
    out.set("cluster.ns_per_request_256", scale_probe(opts.seed, sizes));

    out.set("core.solver.step_s", per_unit("bench.core.step"));
    out.set(
        "core.solver.ns_per_machine_tick",
        per_unit("bench.core.step") * 1e9 / machine_seconds,
    );
    out.set(
        "core.solver.set_inputs_s",
        per_unit("bench.core.set_inputs"),
    );
    super::set_solver_phases(&mut out, &totals, k);
    out.set("core.solver.ticks", counts.ticks as f64);
    out.set("core.solver.fused_ticks", counts.fused_ticks as f64);
    out.set("core.solver.substeps", counts.substeps as f64);
    out.set("core.solver.flow_recomputes", counts.flow_recomputes as f64);
    out.set("core.solver.solo_machines", counts.solo_machines);
    out.set("core.solver.solo_demotions", counts.solo_demotions as f64);
    out.set("core.solver.simd_lane_width", counts.simd_lane_width);

    let below_engine = [
        "bench.workload.arrivals",
        "bench.cluster.tick",
        "bench.core.set_inputs",
        "bench.core.step",
        "bench.freon.control",
    ];
    out.set("freon.engine.run_s", reference.wall_s);
    out.set(
        "freon.engine.self_s",
        reference.wall_s - below_engine.iter().map(|s| per_unit(s)).sum::<f64>(),
    );
    out.set("freon.engine.snapshot_s", per_unit("bench.freon.snapshot"));
    out.set("freon.engine.log_rows", unit0.rows as f64);
    out.set("freon.engine.log_hash48", hash48(unit0.log_hash));
    out.set("freon.policy.control_s", per_unit("bench.freon.control"));
    out.set("freon.policy.observations", unit0.observations as f64);
    out.set("freon.policy.decisions", unit0.decisions as f64);
    out.set("freon.policy.adjustments", unit0.adjustments as f64);
    out.set(
        "freon.policy.red_line_shutdowns",
        unit0.red_line_shutdowns as f64,
    );
    out.set("freon.policy.fiddle_events", unit0.fiddle_events as f64);

    let traced_wall = median_of(&units, |(u, _)| u.wall_s);
    out.set(
        "telemetry.trace_overhead_pct",
        (traced_wall / reference.wall_s - 1.0) * 100.0,
    );
    out.set("telemetry.accounted_pct", totals.covered_pct("bench.unit"));
    // The exposition an experiment with `ExperimentConfig::registry`
    // set would be scraped for.
    let registry = Registry::new();
    ClusterMetrics::new().register(&registry);
    FreonMetrics::new().register(&registry);
    ExperimentMetrics::new().register(&registry);
    super::set_scrape_cost(&mut out, &registry);
    super::set_common_traced(
        &mut out,
        opts,
        FREON_CLOSED_LOOP,
        &inputs.corpus,
        &tracer,
        &totals,
        &units.iter().map(|(u, _)| u.wall_s).collect::<Vec<_>>(),
    )?;
    clock.finish(true, &mut out);
    Ok(out)
}
