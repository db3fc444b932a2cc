//! Solver throughput benchmark: the CSR step kernel vs the original
//! scan-based stepper.
//!
//! `ReferenceSolver` / `ReferenceCluster` below reimplement the
//! pre-kernel algorithm exactly as the seed shipped it: per-sub-step
//! edge-list scans, an O(nodes × edges) advection rescan, per-tick
//! allocation of the accumulators, division by the heat capacity, and
//! name/HashMap-keyed inter-machine mixing. Timing both against the
//! production [`Solver`] / [`ClusterSolver`] gives the before/after
//! numbers recorded in `BENCH_solver.json`.

// The reference port deliberately mirrors the seed's indexed loops.
#![allow(clippy::needless_range_loop)]

use crate::common::{measured, paper, verdict};
use mercury::model::{AirKind, ClusterEndpoint, ClusterModel, MachineModel};
use mercury::physics;
use mercury::presets::{self, nodes};
use mercury::solver::{air_flows, required_substeps, ClusterSolver, Solver, SolverConfig};
use mercury::units::{Celsius, KilogramsPerSecond, Seconds, Utilization};
use std::collections::HashMap;
use std::time::Instant;

type Result<T = ()> = std::result::Result<T, Box<dyn std::error::Error>>;

/// The seed's single-machine stepper, preserved for benchmarking.
struct ReferenceSolver {
    names: Vec<String>,
    power: Vec<Option<mercury::model::PowerModel>>,
    air_mass: Vec<Option<f64>>,
    fixed: Vec<bool>,
    capacity: Vec<f64>,
    utilization: Vec<Utilization>,
    temp: Vec<f64>,
    heat_edges: Vec<(usize, usize, mercury::units::WattsPerKelvin)>,
    air_edges: Vec<(usize, usize, f64)>,
    edge_flow: Vec<KilogramsPerSecond>,
    topo: Vec<usize>,
    inlet_nodes: Vec<usize>,
    exhaust_nodes: Vec<usize>,
    substeps: usize,
    dt: Seconds,
}

impl ReferenceSolver {
    fn new(model: &MachineModel) -> Self {
        let cfg = SolverConfig::default();
        let n = model.nodes().len();
        let heat_edges: Vec<_> = model
            .heat_edges()
            .iter()
            .map(|e| (e.a.index(), e.b.index(), e.k))
            .collect();
        let air_mass: Vec<Option<f64>> = model
            .nodes()
            .iter()
            .map(|x| x.as_air().map(|a| a.mass_kg))
            .collect();
        let inlets = model.inlets();
        let (edge_flow, inflow) = air_flows(
            n,
            model.air_edges(),
            model.topo_order(),
            &inlets,
            model.fan().mass_flow(),
        );
        let caps: Vec<_> = model.nodes().iter().map(|x| x.capacity()).collect();
        let substeps = required_substeps(
            cfg.dt,
            cfg.stability_limit,
            &heat_edges,
            &caps,
            &inflow,
            &air_mass,
        );
        ReferenceSolver {
            names: model.nodes().iter().map(|x| x.name().to_string()).collect(),
            power: model
                .nodes()
                .iter()
                .map(|x| x.as_component().map(|c| c.power.clone()))
                .collect(),
            air_mass,
            fixed: model
                .nodes()
                .iter()
                .map(|x| x.is_air_kind(AirKind::Inlet))
                .collect(),
            capacity: caps.iter().map(|c| c.0).collect(),
            utilization: vec![Utilization::IDLE; n],
            temp: vec![model.inlet_temperature().0; n],
            heat_edges,
            air_edges: model
                .air_edges()
                .iter()
                .map(|e| (e.from.index(), e.to.index(), e.fraction))
                .collect(),
            edge_flow,
            topo: model.topo_order().iter().map(|id| id.index()).collect(),
            inlet_nodes: inlets.iter().map(|id| id.index()).collect(),
            exhaust_nodes: model
                .nodes()
                .iter()
                .enumerate()
                .filter(|(_, x)| x.is_air_kind(AirKind::Exhaust))
                .map(|(i, _)| i)
                .collect(),
            substeps,
            dt: cfg.dt,
        }
    }

    fn set_utilization(&mut self, name: &str, u: f64) {
        let i = self.names.iter().position(|x| x == name).unwrap();
        self.utilization[i] = u.into();
    }

    fn set_inlet(&mut self, t: Celsius) {
        for &i in &self.inlet_nodes {
            self.temp[i] = t.0;
        }
    }

    fn exhaust_temperature(&self) -> Celsius {
        let sum: f64 = self.exhaust_nodes.iter().map(|&i| self.temp[i]).sum();
        Celsius(sum / self.exhaust_nodes.len() as f64)
    }

    fn step(&mut self) {
        let n = self.names.len();
        let dts = Seconds(self.dt.0 / self.substeps as f64);
        // The seed allocated fresh accumulators every tick.
        let mut dq = vec![0.0_f64; n];
        let mut adv = vec![0.0_f64; n];
        for _ in 0..self.substeps {
            dq.iter_mut().for_each(|q| *q = 0.0);
            adv.iter_mut().for_each(|q| *q = 0.0);
            for i in 0..n {
                if let Some(power) = &self.power[i] {
                    dq[i] += physics::heat_generated(power, self.utilization[i], dts).0;
                }
            }
            for &(a, b, k) in &self.heat_edges {
                let q =
                    physics::heat_transfer(k, Celsius(self.temp[a]), Celsius(self.temp[b]), dts);
                dq[a] -= q.0;
                dq[b] += q.0;
            }
            // O(nodes × edges): every air node rescans the full edge list.
            for &node in &self.topo {
                if self.fixed[node] {
                    continue;
                }
                let Some(mass_kg) = self.air_mass[node] else {
                    continue;
                };
                let mut streams_mass = 0.0;
                let mut streams_heat = 0.0;
                for (ei, &(from, to, _)) in self.air_edges.iter().enumerate() {
                    if to == node {
                        streams_mass += self.edge_flow[ei].0;
                        streams_heat += self.edge_flow[ei].0 * self.temp[from];
                    }
                }
                if streams_mass > 0.0 {
                    let t_mix = streams_heat / streams_mass;
                    let alpha = physics::replacement_fraction(
                        KilogramsPerSecond(streams_mass),
                        mass_kg,
                        dts,
                    );
                    adv[node] = alpha * (t_mix - self.temp[node]);
                }
            }
            for i in 0..n {
                if !self.fixed[i] {
                    self.temp[i] += dq[i] / self.capacity[i] + adv[i];
                }
            }
        }
    }
}

/// The seed's cluster stepper: serial machines plus HashMap-keyed
/// endpoint mixing.
struct ReferenceCluster {
    machines: Vec<ReferenceSolver>,
    supplies: HashMap<String, Celsius>,
    junctions: HashMap<String, Celsius>,
    edges: Vec<mercury::model::ClusterEdge>,
    junction_names: Vec<String>,
}

impl ReferenceCluster {
    fn new(model: &ClusterModel) -> Self {
        let supplies: HashMap<String, Celsius> = model
            .supplies()
            .iter()
            .map(|s| (s.name.clone(), s.temperature))
            .collect();
        let initial = model
            .supplies()
            .first()
            .map(|s| s.temperature)
            .unwrap_or(Celsius(21.6));
        ReferenceCluster {
            machines: model.machines().iter().map(ReferenceSolver::new).collect(),
            junctions: model
                .junctions()
                .iter()
                .map(|j| (j.clone(), initial))
                .collect(),
            supplies,
            edges: model.edges().to_vec(),
            junction_names: model.junctions().to_vec(),
        }
    }

    fn endpoint_temperature(&self, e: &ClusterEndpoint, exhausts: &[Celsius]) -> Option<Celsius> {
        match e {
            ClusterEndpoint::Supply(name) => self.supplies.get(name).copied(),
            ClusterEndpoint::MachineExhaust(i) => Some(exhausts[*i]),
            ClusterEndpoint::Junction(name) => self.junctions.get(name).copied(),
            ClusterEndpoint::MachineInlet(_) => None,
        }
    }

    fn mix_into(&self, to: &ClusterEndpoint, exhausts: &[Celsius]) -> Option<Celsius> {
        let mut weight = 0.0;
        let mut heat = 0.0;
        for e in self.edges.iter().filter(|e| e.to == *to) {
            if let Some(t) = self.endpoint_temperature(&e.from, exhausts) {
                weight += e.fraction;
                heat += e.fraction * t.0;
            }
        }
        (weight > 0.0).then(|| Celsius(heat / weight))
    }

    fn step(&mut self) {
        let exhausts: Vec<Celsius> = self
            .machines
            .iter()
            .map(|m| m.exhaust_temperature())
            .collect();
        for name in &self.junction_names {
            if let Some(t) = self.mix_into(&ClusterEndpoint::Junction(name.clone()), &exhausts) {
                self.junctions.insert(name.clone(), t);
            }
        }
        for m in 0..self.machines.len() {
            if let Some(t) = self.mix_into(&ClusterEndpoint::MachineInlet(m), &exhausts) {
                self.machines[m].set_inlet(t);
            }
        }
        for m in &mut self.machines {
            m.step();
        }
    }
}

fn time<F: FnMut()>(mut f: F) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (Linux `VmHWM`), in bytes.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Times one replicated-cluster configuration, with the batched path on
/// or off. Returns (seconds, batched machines).
fn time_replicated_cluster(n: usize, ticks: usize, batching: bool) -> Result<(f64, usize)> {
    let model = presets::validation_cluster(n);
    let mut s = ClusterSolver::new(&model, SolverConfig::default())?;
    s.set_batching(batching);
    for i in 1..=n {
        s.set_utilization(&format!("machine{i}"), nodes::CPU, 0.7)?;
    }
    s.step_for(20); // warm-up (also builds the batch plan)
    let secs = time(|| s.step_for(ticks));
    Ok((secs, s.batched_machines()))
}

/// Best-of-`runs` wall time for `ticks` cluster ticks
/// at `n` machines: `fused` chooses one `step_for` span versus a
/// per-tick `step()` loop (the pre-fusion replay shape). Utilization is
/// constant, so repeated runs on the same steady-state solver are
/// directly comparable.
fn time_replay(n: usize, ticks: usize, fused: bool, runs: usize) -> Result<f64> {
    let mut s = warm_cluster(n, |_| {})?;
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        best = best.min(if fused {
            time(|| s.step_for(ticks))
        } else {
            time(|| (0..ticks).for_each(|_| s.step()))
        });
    }
    Ok(best)
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
        let model = presets::validation_cluster(n);
        let mut s = ClusterSolver::new(&model, SolverConfig::default())?;
        let registry = telemetry::Registry::shared();
        s.metrics().register(&registry);
        for i in 1..=n {
            s.set_utilization(&format!("machine{i}"), nodes::CPU, 0.7)?;
        }
        for _ in 0..20 {
            s.step(); // warm-up (also builds the batch plan)
        }
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

/// `bench_solver`: single-machine and cluster throughput — the CSR
/// kernel vs the seed algorithm, and the batched SoA cluster path vs
/// per-machine stepping at 64/256/1024 replicated machines — written to
/// `BENCH_solver.json` together with the core count, peak RSS, and the telemetry overhead A/B (instrumented vs
/// not, which must stay within the 2% contract).
pub fn bench_solver() -> Result {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // --- single machine: Table 1 graphs, 20k ticks -----------------------
    let model = presets::validation_machine();
    let ticks = 20_000usize;

    let mut reference = ReferenceSolver::new(&model);
    reference.set_utilization(nodes::CPU, 0.7);
    reference.set_utilization(nodes::DISK_PLATTERS, 0.4);
    for _ in 0..200 {
        reference.step(); // warm-up
    }
    let ref_s = time(|| {
        for _ in 0..ticks {
            reference.step();
        }
    });

    let mut kernel = Solver::new(&model, SolverConfig::default())?;
    kernel.set_utilization(nodes::CPU, 0.7)?;
    kernel.set_utilization(nodes::DISK_PLATTERS, 0.4)?;
    kernel.step_for(200); // warm-up
    let kern_s = time(|| kernel.step_for(ticks));

    let machine_ref_tps = ticks as f64 / ref_s;
    let machine_kern_tps = ticks as f64 / kern_s;
    let machine_speedup = machine_kern_tps / machine_ref_tps;

    // --- 64-machine cluster: step_for(3600), one emulated hour -----------
    let cluster_model = presets::validation_cluster(64);
    let cluster_ticks = 3_600usize;

    let mut ref_cluster = ReferenceCluster::new(&cluster_model);
    for m in &mut ref_cluster.machines {
        m.set_utilization(nodes::CPU, 0.7);
    }
    let cluster_ref_s = time(|| {
        for _ in 0..cluster_ticks {
            ref_cluster.step();
        }
    });

    // Per-machine path (the PR-1 kernel): batching off.
    let (cluster_serial_s, _) = time_replicated_cluster(64, cluster_ticks, false)?;
    // Batched path.
    let (cluster_batched_s, _) = time_replicated_cluster(64, cluster_ticks, true)?;

    let cluster_ref_tps = cluster_ticks as f64 / cluster_ref_s;
    let cluster_serial_tps = cluster_ticks as f64 / cluster_serial_s;
    let cluster_batched_tps = cluster_ticks as f64 / cluster_batched_s;
    let cluster_speedup = cluster_batched_tps / cluster_ref_tps;

    // --- replicated-cluster scaling: batched vs per-machine kernel -------
    let scale = |n: usize, ticks: usize| -> Result<(usize, f64, f64, usize)> {
        let (per_machine_s, _) = time_replicated_cluster(n, ticks, false)?;
        let (batched_s, batched) = time_replicated_cluster(n, ticks, true)?;
        Ok((ticks, per_machine_s, batched_s, batched))
    };
    let (ticks_256, per_machine_256_s, batched_256_s, batched_256) = scale(256, 1200)?;
    let (ticks_1024, per_machine_1024_s, batched_1024_s, batched_1024) = scale(1024, 300)?;
    let batch_speedup_256 = per_machine_256_s / batched_256_s;
    let batch_speedup_1024 = per_machine_1024_s / batched_1024_s;

    let rss = peak_rss_bytes().unwrap_or(0);
    let scaling_json = |name: &str,
                        n: usize,
                        ticks: usize,
                        pm_s: f64,
                        b_s: f64,
                        batched: usize,
                        speedup: f64| {
        format!(
            "\"{name}\": {{\n    \"model\": \"validation_cluster({n})\",\n    \"ticks\": {ticks},\n    \"threads\": 1,\n    \"per_machine_seconds\": {pm_s:.3},\n    \"batched_seconds\": {b_s:.3},\n    \"per_machine_ticks_per_sec\": {:.1},\n    \"batched_ticks_per_sec\": {:.1},\n    \"batched_machines\": {batched},\n    \"batch_speedup\": {speedup:.2}\n  }}",
            ticks as f64 / pm_s,
            ticks as f64 / b_s,
        )
    };
    let s256 = scaling_json(
        "cluster_256",
        256,
        ticks_256,
        per_machine_256_s,
        batched_256_s,
        batched_256,
        batch_speedup_256,
    );
    let s1024 = scaling_json(
        "cluster_1024",
        1024,
        ticks_1024,
        per_machine_1024_s,
        batched_1024_s,
        batched_1024,
        batch_speedup_1024,
    );

    // --- fused replay vs per-tick loop: steady-state 10k-tick trace ------
    // Constant utilization for the whole span — the paper's trace-replay
    // shape — so the fused path keeps the chunk matrices hot and pays
    // plan/gather/scatter once. The 1024-machine number is the PR gate:
    // ≥1.3× over per-tick stepping (the PR 2 replay shape).
    let replay_ticks = 10_000usize;
    let fused_replay = |n: usize| -> Result<(f64, f64)> {
        let loop_s = time_replay(n, replay_ticks, false, 3)?;
        let fused_s = time_replay(n, replay_ticks, true, 3)?;
        Ok((loop_s, fused_s))
    };
    let (loop_256_s, fused_256_s) = fused_replay(256)?;
    let (loop_1024_s, fused_1024_s) = fused_replay(1024)?;
    let fused_speedup_256 = loop_256_s / fused_256_s;
    let fused_speedup_1024 = loop_1024_s / fused_1024_s;
    let fused_json = |name: &str, n: usize, loop_s: f64, fused_s: f64, sp: f64| {
        format!(
            "\"{name}\": {{\n    \"model\": \"validation_cluster({n})\",\n    \"ticks\": {replay_ticks},\n    \"threads\": 1,\n    \"per_tick_seconds\": {loop_s:.3},\n    \"fused_seconds\": {fused_s:.3},\n    \"per_tick_ticks_per_sec\": {:.1},\n    \"fused_ticks_per_sec\": {:.1},\n    \"fused_speedup\": {sp:.2}\n  }}",
            replay_ticks as f64 / loop_s,
            replay_ticks as f64 / fused_s,
        )
    };
    let fused_256_json = fused_json(
        "replay_fused_256",
        256,
        loop_256_s,
        fused_256_s,
        fused_speedup_256,
    );
    let fused_1024_json = fused_json(
        "replay_fused_1024",
        1024,
        loop_1024_s,
        fused_1024_s,
        fused_speedup_1024,
    );

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
        "{{\n  \"hardware\": {{ \"cores\": {cores}, \"peak_rss_bytes\": {rss} }},\n  \"single_machine\": {{\n    \"model\": \"validation_machine\",\n    \"ticks\": {ticks},\n    \"reference_ticks_per_sec\": {machine_ref_tps:.1},\n    \"kernel_ticks_per_sec\": {machine_kern_tps:.1},\n    \"speedup\": {machine_speedup:.2}\n  }},\n  \"cluster_64\": {{\n    \"model\": \"validation_cluster(64)\",\n    \"ticks\": {cluster_ticks},\n    \"reference_seconds\": {cluster_ref_s:.3},\n    \"kernel_serial_seconds\": {cluster_serial_s:.3},\n    \"kernel_batched_seconds\": {cluster_batched_s:.3},\n    \"reference_ticks_per_sec\": {cluster_ref_tps:.1},\n    \"kernel_serial_ticks_per_sec\": {cluster_serial_tps:.1},\n    \"kernel_batched_ticks_per_sec\": {cluster_batched_tps:.1},\n    \"speedup_vs_reference\": {cluster_speedup:.2}\n  }},\n  {s256},\n  {s1024},\n  {fused_256_json},\n  {fused_1024_json},\n  {telemetry_json},\n  {trace_json},\n  {sampler_json},\n  {replay_json}\n}}\n"
    );
    std::fs::write("BENCH_solver.json", &json)?;
    println!("wrote BENCH_solver.json");

    paper("solver ≈ 100 µs per iteration on 2006 hardware (§2.3)");
    measured(&format!(
        "single machine: reference {machine_ref_tps:.0} ticks/s, kernel {machine_kern_tps:.0} ticks/s ({machine_speedup:.2}×)"
    ));
    measured(&format!(
        "64-machine cluster, 3600 ticks: reference {cluster_ref_s:.2} s, per-machine {cluster_serial_s:.2} s, batched {cluster_batched_s:.2} s ({cluster_speedup:.2}× vs reference)"
    ));
    measured(&format!(
        "256-machine cluster: per-machine {per_machine_256_s:.2} s, batched {batched_256_s:.2} s ({batch_speedup_256:.2}×, {batched_256} machines batched)"
    ));
    measured(&format!(
        "1024-machine cluster: per-machine {per_machine_1024_s:.2} s, batched {batched_1024_s:.2} s ({batch_speedup_1024:.2}×, peak RSS {:.0} MiB)",
        rss as f64 / (1024.0 * 1024.0)
    ));
    verdict(
        cluster_speedup >= 2.0,
        "64-machine cluster steps ≥2× faster than the seed algorithm",
    );
    verdict(
        batch_speedup_256 >= 3.0,
        "256-machine replicated cluster: batched kernel ≥3× the per-machine kernel",
    );
    measured(&format!(
        "fused 10k-tick replay: 256 machines {loop_256_s:.2} s → {fused_256_s:.2} s ({fused_speedup_256:.2}×), 1024 machines {loop_1024_s:.2} s → {fused_1024_s:.2} s ({fused_speedup_1024:.2}×)"
    ));
    verdict(
        fused_speedup_1024 >= 1.3,
        "1024-machine steady-state 10k-tick replay ≥1.3× over per-tick stepping",
    );
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
