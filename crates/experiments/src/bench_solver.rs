//! Overhead A/Bs of the observability stack, written to
//! `BENCH_solver.json`: always-on telemetry, span tracing and the history
//! sampler, each against its switched-off arm with a hard 2% gate, plus
//! the out-of-core `.events` replay with its three gates.

use crate::common::{measured, verdict};
use mercury::presets::{self, nodes};
use mercury::solver::{ClusterSolver, SolverConfig};
use std::time::Instant;

type Result<T = ()> = std::result::Result<T, Box<dyn std::error::Error>>;

fn time<F: FnMut()>(mut f: F) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// A `validation_cluster(n)` solver set up by `configure`, every CPU at
/// 70% and warmed by 20 ticks (which also build the batch plan).
fn warm_cluster(n: usize, configure: impl FnOnce(&mut ClusterSolver)) -> Result<ClusterSolver> {
    let model = presets::validation_cluster(n);
    let mut s = ClusterSolver::new(&model, SolverConfig::default())?;
    configure(&mut s);
    for i in 1..=n {
        s.set_utilization(&format!("machine{i}"), nodes::CPU, 0.7)?;
    }
    for _ in 0..20 {
        s.step();
    }
    Ok(s)
}

/// Best-of-`runs` wall time for `ticks` per-tick steps of one solver
/// under each of `modes`, the modes taking turns run by run: every arm
/// of the A/B steps the same machines in the same memory, and a burst of
/// host noise lands on every arm alike rather than on one arm's block of
/// runs. Min-of-runs is the standard noise-robust estimator for an
/// overhead comparison. Deliberately steps tick-by-tick: the ≤2%
/// contracts are defined on the per-tick path, where instrumentation and
/// tick-phase spans run every tick — fused replay (`step_for`) amortizes
/// them to once per span and would hide a regression here.
fn time_modes<const ARMS: usize>(
    s: &mut ClusterSolver,
    modes: [&dyn Fn(&mut ClusterSolver); ARMS],
    ticks: usize,
    runs: usize,
) -> [f64; ARMS] {
    let mut best = [f64::INFINITY; ARMS];
    for _ in 0..runs {
        for (mode, best) in modes.iter().zip(&mut best) {
            mode(s);
            *best = best.min(time(|| (0..ticks).for_each(|_| s.step())));
        }
    }
    best
}

/// The solver-service shape at `n` machines, reused across sampler A/B
/// rounds: the solver sits behind a mutex the ticker loop locks every
/// step, and (when a cadence is given) a background
/// [`telemetry::Sampler`] snapshots the registry plus every machine's
/// CPU temperature under its own brief locks at wall-clock cadence —
/// so the measured delta is the true production cost of history
/// sampling, lock contention included.
struct SamplerBench {
    solver: std::sync::Arc<std::sync::Mutex<ClusterSolver>>,
    registry: std::sync::Arc<telemetry::Registry>,
    cpu_idx: Vec<usize>,
    series: Vec<String>,
}

impl SamplerBench {
    fn new(n: usize) -> Result<Self> {
        let registry = telemetry::Registry::shared();
        let s = warm_cluster(n, |s| s.metrics().register(&registry))?;
        let cpu_idx: Vec<usize> = (0..n)
            .map(|i| s.machine_at(i).node_index(nodes::CPU).expect("cpu node"))
            .collect();
        let series: Vec<String> = (1..=n).map(|i| format!("temp/machine{i}/cpu")).collect();
        Ok(Self {
            solver: std::sync::Arc::new(std::sync::Mutex::new(s)),
            registry,
            cpu_idx,
            series,
        })
    }

    /// One timed run of `ticks` lock-step cluster steps, with an
    /// optional live sampler at `cadence`.
    fn run(&self, ticks: usize, cadence: Option<std::time::Duration>) -> f64 {
        let sampler = cadence.map(|period| {
            let tsdb = telemetry::tsdb::Tsdb::shared(Default::default());
            let solver = std::sync::Arc::clone(&self.solver);
            let cpu_idx = self.cpu_idx.clone();
            let series = self.series.clone();
            telemetry::Sampler::spawn(
                period,
                tsdb,
                std::sync::Arc::clone(&self.registry),
                Box::new(move |out| {
                    let s = solver.lock().expect("solver lock");
                    for (i, &idx) in cpu_idx.iter().enumerate() {
                        out.push((series[i].clone(), s.machine_at(i).temperature_at(idx).0));
                    }
                }),
            )
        });
        let secs = time(|| {
            for _ in 0..ticks {
                self.solver.lock().expect("solver lock").step();
            }
        });
        if let Some(sampler) = sampler {
            sampler.stop();
        }
        secs
    }
}

/// Best-of-`rounds` wall time for each sampler cadence, measured
/// *interleaved* — every round times all cadences back to back on the
/// same harness — so slow machine-wide drift (thermal throttling, a
/// noisy CI neighbor) lands on every configuration instead of biasing
/// whichever one ran last. Returns one best time per cadence.
fn time_sampling_interleaved(
    n: usize,
    ticks: usize,
    cadences: &[Option<std::time::Duration>],
    rounds: usize,
) -> Result<Vec<f64>> {
    let bench = SamplerBench::new(n)?;
    let mut best = vec![f64::INFINITY; cadences.len()];
    for _ in 0..rounds {
        for (i, &cadence) in cadences.iter().enumerate() {
            best[i] = best[i].min(bench.run(ticks, cadence));
        }
    }
    Ok(best)
}

/// `bench_solver`: the telemetry, tracing and sampler overhead A/Bs and
/// the out-of-core replay, written to `BENCH_solver.json` with the core
/// count. Each 2% contract and each replay gate fails the run.
pub fn bench_solver() -> Result {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // --- telemetry overhead: instrumented vs switched-off, best of 9 -----
    // A tick is one composed sweep, so the windows take thousands of
    // ticks to last ≈50 ms on a 2-core x86-64 host, long enough for the
    // 2% gates below to read the overhead rather than scheduler noise.
    let telem_ticks = 4800usize;
    let telem_runs = 9usize;
    let [instrumented_s, uninstrumented_s] = time_modes(
        &mut warm_cluster(256, |_| {})?,
        [&|s| s.set_instrumentation(true), &|s| {
            s.set_instrumentation(false)
        }],
        telem_ticks,
        telem_runs,
    );
    let overhead_pct = (instrumented_s / uninstrumented_s - 1.0) * 100.0;
    let telemetry_json = format!(
        "\"telemetry_overhead\": {{\n    \"model\": \"validation_cluster(256)\",\n    \"ticks\": {telem_ticks},\n    \"runs\": {telem_runs},\n    \"instrumented_seconds\": {instrumented_s:.4},\n    \"uninstrumented_seconds\": {uninstrumented_s:.4},\n    \"overhead_pct\": {overhead_pct:.2}\n  }}"
    );

    // --- span tracing overhead: detached / attached-off / attached-on ----
    // The tracing contract has two halves: a binary that carries the
    // span sites but runs untraced must pay nothing (hard gate), and a
    // fully recording run must stay within 2% (soft gate — recording
    // is opt-in and post-incident, not always-on).
    let trace_ticks = 1200usize;
    let trace_runs = 9usize;
    // Detached: every span site is a no-op (the default). Attached but
    // off: the cost of the attachment check alone, which must be free —
    // it is what every untraced production run pays. Attached and on:
    // the full recording cost.
    let tracer = |on: bool| {
        let tracer = telemetry::Tracer::new(telemetry::trace::DEFAULT_SPAN_CAPACITY);
        tracer.set_enabled(on);
        tracer
    };
    let (off, on) = (tracer(false), tracer(true));
    let [trace_detached_s, trace_off_s, trace_on_s] = time_modes(
        &mut warm_cluster(1024, |_| {})?,
        [
            &|s| s.set_tracer(telemetry::Tracer::default()),
            &|s| s.set_tracer(off.clone()),
            &|s| s.set_tracer(on.clone()),
        ],
        trace_ticks,
        trace_runs,
    );
    let trace_off_pct = (trace_off_s / trace_detached_s - 1.0) * 100.0;
    let trace_on_pct = (trace_on_s / trace_detached_s - 1.0) * 100.0;
    let trace_json = format!(
        "\"trace_overhead\": {{\n    \"model\": \"validation_cluster(1024)\",\n    \"ticks\": {trace_ticks},\n    \"runs\": {trace_runs},\n    \"detached_seconds\": {trace_detached_s:.4},\n    \"attached_off_seconds\": {trace_off_s:.4},\n    \"attached_on_seconds\": {trace_on_s:.4},\n    \"attached_off_pct\": {trace_off_pct:.2},\n    \"attached_on_pct\": {trace_on_pct:.2}\n  }}"
    );

    // --- history sampler overhead: off / 1 Hz / 10 Hz --------------------
    // The service shape at 1024 machines. The 1 Hz row is the gate: the
    // paper's deployment samples at most once a second, and background
    // history must stay within the same ≤2% budget as the rest of the
    // observability stack. The 10 Hz row is recorded for context only.
    let sampler_ticks = 30_000usize;
    let sampler_runs = 3usize;
    let sampler_best = time_sampling_interleaved(
        1024,
        sampler_ticks,
        &[
            None,
            Some(std::time::Duration::from_secs(1)),
            Some(std::time::Duration::from_millis(100)),
        ],
        sampler_runs,
    )?;
    let (sampler_off_s, sampler_1hz_s, sampler_10hz_s) =
        (sampler_best[0], sampler_best[1], sampler_best[2]);
    let sampler_1hz_pct = (sampler_1hz_s / sampler_off_s - 1.0) * 100.0;
    let sampler_10hz_pct = (sampler_10hz_s / sampler_off_s - 1.0) * 100.0;
    let sampler_json = format!(
        "\"sampler_overhead\": {{\n    \"model\": \"validation_cluster(1024)\",\n    \"ticks\": {sampler_ticks},\n    \"runs\": {sampler_runs},\n    \"off_seconds\": {sampler_off_s:.4},\n    \"hz1_seconds\": {sampler_1hz_s:.4},\n    \"hz10_seconds\": {sampler_10hz_s:.4},\n    \"hz1_overhead_pct\": {sampler_1hz_pct:.2},\n    \"hz10_overhead_pct\": {sampler_10hz_pct:.2}\n  }}"
    );

    // --- out-of-core .events replay: the fleet-scale trace pipeline ------
    // Same harness as `experiments replay` (which can refresh just this
    // section): synthesize a 1024-machine blocky trace, verify the
    // checkpointed parallel segments bitwise, then time repeated
    // out-of-core passes. Its three gates (≥100k machine-ticks/s, flat
    // RSS, bit-identical segments) are hard failures here too.
    let replay_bench = {
        let path = std::env::temp_dir().join(format!(
            "mercury-bench-replay-{}.events",
            std::process::id()
        ));
        crate::replay::synthesize_events(&path, 1024, 2000)?;
        let bench = crate::replay::bench_replay(&path, 1024, 3, 4);
        let _ = std::fs::remove_file(&path);
        bench?
    };
    let replay_json = replay_bench.to_json();

    let json = format!(
        "{{\n  \"hardware\": {{ \"cores\": {cores} }},\n  {telemetry_json},\n  {trace_json},\n  {sampler_json},\n  {replay_json}\n}}\n"
    );
    std::fs::write("BENCH_solver.json", &json)?;
    println!("wrote BENCH_solver.json");

    measured(&format!(
        "telemetry overhead, 256-machine batched tick: instrumented {instrumented_s:.3} s vs off {uninstrumented_s:.3} s ({overhead_pct:+.2}%)"
    ));
    verdict(
        overhead_pct <= 2.0,
        "always-on telemetry costs ≤2% of the 256-machine batched tick",
    );
    if overhead_pct > 2.0 {
        return Err(format!(
            "telemetry overhead {overhead_pct:.2}% exceeds the 2% contract \
             (instrumented {instrumented_s:.4} s vs uninstrumented {uninstrumented_s:.4} s)"
        )
        .into());
    }
    measured(&format!(
        "span tracing, 1024-machine per-tick: detached {trace_detached_s:.3} s, \
         attached-off {trace_off_s:.3} s ({trace_off_pct:+.2}%), \
         attached-on {trace_on_s:.3} s ({trace_on_pct:+.2}%)"
    ));
    verdict(
        trace_off_pct <= 2.0,
        "an attached-but-off tracer costs ≤2% (the untraced production path)",
    );
    verdict(
        trace_on_pct <= 2.0,
        "full span recording stays within the 2% tracing budget",
    );
    if trace_off_pct > 2.0 {
        return Err(format!(
            "dormant tracer overhead {trace_off_pct:.2}% exceeds the 2% contract \
             (attached-off {trace_off_s:.4} s vs detached {trace_detached_s:.4} s)"
        )
        .into());
    }
    measured(&format!(
        "history sampler, 1024-machine service shape: off {sampler_off_s:.3} s, \
         1 Hz {sampler_1hz_s:.3} s ({sampler_1hz_pct:+.2}%), \
         10 Hz {sampler_10hz_s:.3} s ({sampler_10hz_pct:+.2}%)"
    ));
    verdict(
        sampler_1hz_pct <= 2.0,
        "1 Hz history sampling costs ≤2% of the 1024-machine service",
    );
    if sampler_1hz_pct > 2.0 {
        return Err(format!(
            "1 Hz sampler overhead {sampler_1hz_pct:.2}% exceeds the 2% contract \
             (sampled {sampler_1hz_s:.4} s vs off {sampler_off_s:.4} s)"
        )
        .into());
    }
    measured(&format!(
        "out-of-core replay: {} passes of {} ticks x {} machines in {:.2} s \
         ({:.2}M machine-ticks/s, {} segments, RSS growth {} bytes)",
        replay_bench.passes,
        replay_bench.ticks,
        replay_bench.machines,
        replay_bench.serial_seconds,
        replay_bench.machine_ticks_per_sec() / 1e6,
        replay_bench.segments,
        replay_bench.rss_growth_bytes(),
    ));
    crate::replay::gate(&replay_bench)?;
    Ok(())
}
