//! The closed experiment loop: workload → cluster → Mercury → policy.
//!
//! Each simulated second the engine
//!
//! 1. applies any due `fiddle` events (the thermal emergencies),
//! 2. feeds the second's arrivals through the LVS model and advances the
//!    servers,
//! 3. plays `monitord`: reports every server's CPU/disk utilization to
//!    the Mercury cluster solver,
//! 4. steps Mercury one tick,
//! 5. hands the policy fresh temperatures and utilizations, and
//! 6. records a log row.
//!
//! The engine also keeps the thermal model honest about power state:
//! while a simulated server is off, its Mercury components are switched
//! to (near-)zero draw, and restored when it boots — so Figure 12's
//! "machines cooled down substantially while off" reproduces.

use crate::log::{ExperimentLog, LogRow};
use crate::metrics::ExperimentMetrics;
use crate::policy::ThermalPolicy;
use cluster_sim::ClusterSim;
use mercury::fiddle::FiddleScript;
use mercury::model::{ClusterModel, NodeSpec, PowerModel};
use mercury::solver::{ClusterSolver, SolverConfig};
use mercury::units::Watts;
use std::borrow::Cow;
use std::sync::Arc;
use telemetry::tsdb::Tsdb;
use telemetry::{
    FlightRecorder, IncidentTrigger, Registry, TickState, Tracer, TrendConfig, TrendDetector,
};
use workload_gen::WorkloadTrace;

/// How many recent spans land in an incident bundle's `spans` section.
const BUNDLE_SPANS: usize = 4096;

/// Embedded time-series history for an experiment run, plus the trend
/// detectors that watch it.
///
/// When attached to an [`ExperimentConfig`], the engine appends every
/// machine's monitored CPU and disk temperature (`temp/<machine>/cpu`,
/// `temp/<machine>/disk`) to the store each sampled simulated second —
/// timestamps are *simulated seconds*, not wall time — and scans each
/// machine's trailing CPU window for developing anomalies. Detected
/// trends fire the flight recorder's `trend_*` triggers, so an incident
/// bundle captures a runaway ramp *before* the reactive red-line
/// trigger would.
#[derive(Debug, Clone)]
pub struct HistoryConfig {
    /// The store appended to. Shared, so harnesses can query it while
    /// the run executes or after it finishes.
    pub tsdb: Arc<Tsdb>,
    /// Append (and scan) every `cadence_s` simulated seconds; 1 samples
    /// every tick. Zero is treated as 1.
    pub cadence_s: u64,
    /// Trend detection over the trailing per-machine CPU window.
    /// `None` records history without watching it.
    pub detect: Option<TrendConfig>,
}

impl HistoryConfig {
    /// History at every tick with the default trend detectors.
    #[must_use]
    pub fn new(tsdb: Arc<Tsdb>) -> Self {
        HistoryConfig {
            tsdb,
            cadence_s: 1,
            detect: Some(TrendConfig::default()),
        }
    }
}

/// What a policy sees about one server each second.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSnapshot {
    /// Component temperatures, as `(component, °C)` pairs — what `tempd`
    /// reads from Mercury's sensor interface.
    pub temps: Vec<(String, f64)>,
    /// CPU utilization over the last second.
    pub cpu_util: f64,
    /// Disk utilization over the last second.
    pub disk_util: f64,
    /// Active connections.
    pub connections: usize,
    /// Whether the server is powered at all.
    pub powered: bool,
    /// Whether the server currently accepts connections.
    pub accepting: bool,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Run length, simulated seconds.
    pub duration_s: u64,
    /// Mercury solver configuration (1 s ticks by default).
    pub solver: SolverConfig,
    /// Mercury component fed with the server's CPU utilization.
    pub cpu_component: String,
    /// Mercury component fed with the server's disk utilization.
    pub disk_component: String,
    /// Residual draw of a powered-off server's monitored components, W
    /// (wake-on-LAN circuitry etc.).
    pub off_watts: f64,
    /// Per-machine variable-speed fan firmware (§7 extension). Cloned for
    /// every machine; `None` keeps fans at their fixed Table 1 speed.
    pub fan_controller: Option<mercury::fan::FanController>,
    /// Telemetry registry the run reports into: the cluster solver's
    /// metric bundle, the policy's `mercury_freon_*` families, and the
    /// engine's own fiddle/power-state counters are all registered here
    /// at the start of [`Experiment::run`]. `None` keeps the counters
    /// updating but unscrapeable.
    pub registry: Option<Arc<Registry>>,
    /// Tracer for the causal chain. The engine attaches it to the
    /// cluster solver and the policy at the start of the run and wraps
    /// each simulated second in an `engine.second` span; a detached
    /// tracer (the default) records nothing.
    pub tracer: Tracer,
    /// Thermal flight recorder, fed one [`TickState`] per
    /// machine-second. Its anomaly triggers — and red-line incidents
    /// reported by the policy — produce JSON incident bundles under
    /// [`ExperimentConfig::incident_dir`]. Detached by default.
    pub recorder: FlightRecorder,
    /// Directory incident bundles are written to (created on demand).
    /// `None` suppresses bundle files; triggers still fire.
    pub incident_dir: Option<std::path::PathBuf>,
    /// Embedded time-series history and trend detection. `None` (the
    /// default) keeps both off.
    pub history: Option<HistoryConfig>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            duration_s: 2000,
            solver: SolverConfig::default(),
            cpu_component: "cpu".to_string(),
            disk_component: "disk_platters".to_string(),
            off_watts: 0.5,
            fan_controller: None,
            registry: None,
            tracer: Tracer::default(),
            recorder: FlightRecorder::disabled(),
            incident_dir: None,
            history: None,
        }
    }
}

/// DVFS power law: at frequency scale `s`, dynamic power scales roughly
/// with `f·V²` and voltage tracks frequency, so `P_dyn ∝ s³`; idle/static
/// power is unaffected.
fn scaled_cpu_power(original: &PowerModel, scale: f64) -> PowerModel {
    match original {
        PowerModel::Linear { base, max } => PowerModel::Linear {
            base: *base,
            max: Watts(base.0 + (max.0 - base.0) * scale.powi(3)),
        },
        other => other.clone(),
    }
}

/// Runs one experiment and returns its log.
///
/// `model` and `sim` must describe the same number of machines; the
/// machine at cluster-model index `i` is driven by simulated server `i`.
#[derive(Debug)]
pub struct Experiment<'a> {
    model: &'a ClusterModel,
    sim: ClusterSim,
    trace: &'a WorkloadTrace,
    script: Option<&'a FiddleScript>,
    config: ExperimentConfig,
}

impl<'a> Experiment<'a> {
    /// Prepares an experiment.
    ///
    /// # Errors
    ///
    /// Returns [`mercury::Error::InvalidInput`] when the cluster model and
    /// simulation disagree on the machine count.
    pub fn new(
        model: &'a ClusterModel,
        sim: ClusterSim,
        trace: &'a WorkloadTrace,
        script: Option<&'a FiddleScript>,
        config: ExperimentConfig,
    ) -> Result<Self, mercury::Error> {
        if model.machines().len() != sim.len() {
            return Err(mercury::Error::invalid_input(format!(
                "thermal model has {} machines but the simulation has {}",
                model.machines().len(),
                sim.len()
            )));
        }
        Ok(Experiment {
            model,
            sim,
            trace,
            script,
            config,
        })
    }

    /// Runs the experiment to completion under the given policy.
    ///
    /// # Errors
    ///
    /// Propagates Mercury solver construction errors and fiddle events
    /// that address unknown machines or nodes.
    pub fn run(mut self, policy: &mut dyn ThermalPolicy) -> Result<ExperimentLog, mercury::Error> {
        let n = self.sim.len();
        let mut solver = ClusterSolver::new(self.model, self.config.solver.clone())?;
        let mut runner = self.script.map(FiddleScript::runner);
        let mut log = ExperimentLog::new(policy.name());
        let metrics = ExperimentMetrics::new();
        if let Some(registry) = &self.config.registry {
            solver.metrics().register(registry);
            policy.register_metrics(registry);
            metrics.register(registry);
            mercury::build::register_build_info(registry);
        }
        let tracer = self.config.tracer.clone();
        solver.set_tracer(tracer.clone());
        policy.set_tracer(tracer.clone());
        let recorder = self.config.recorder.clone();
        let mut seen_incidents = policy.incidents().len();

        // Embedded history: per-machine series handles resolved once,
        // so the per-second appends below are index lookups. The trend
        // window is sized to the largest detector's appetite.
        let history = self.config.history.clone();
        let mut cpu_series = Vec::new();
        let mut cpu_handles = Vec::new();
        let mut disk_handles = Vec::new();
        let mut trend: Option<(TrendDetector, u64)> = None;
        if let Some(h) = &history {
            for i in 0..n {
                let machine = solver.machine_at(i).machine_name().to_string();
                let cpu_name = format!("temp/{machine}/cpu");
                cpu_handles.push(h.tsdb.handle(&cpu_name));
                disk_handles.push(h.tsdb.handle(&format!("temp/{machine}/disk")));
                cpu_series.push(cpu_name);
            }
            if let Some(cfg) = &h.detect {
                let window_samples = cfg.min_samples.max(cfg.flatline_samples) as u64;
                let window_s = h.cadence_s.max(1) * window_samples;
                trend = Some((TrendDetector::new(cfg.clone()), window_s));
            }
        }

        // Original power models, to restore after a power-off episode.
        let original_power: Vec<Vec<(String, PowerModel)>> = self
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
        let mut fans: Vec<Option<mercury::fan::FanController>> =
            vec![self.config.fan_controller.clone(); n];

        // Resolve the monitored component names to dense node indices
        // once; the per-second loop below reads and writes by index.
        let mut cpu_idx = Vec::with_capacity(n);
        let mut disk_idx = Vec::with_capacity(n);
        for i in 0..n {
            let machine = solver.machine_at(i);
            cpu_idx.push(
                machine
                    .node_index(&self.config.cpu_component)
                    .ok_or_else(|| mercury::Error::unknown_node(&self.config.cpu_component))?,
            );
            disk_idx.push(
                machine
                    .node_index(&self.config.disk_component)
                    .ok_or_else(|| mercury::Error::unknown_node(&self.config.disk_component))?,
            );
        }

        // What the policy sees, built once: node names never change and
        // node order is stable, so each second only rewrites the values.
        let mut snapshots: Vec<ServerSnapshot> = (0..n)
            .map(|i| ServerSnapshot {
                temps: solver
                    .machine_at(i)
                    .temperatures()
                    .into_iter()
                    .map(|(name, c)| (name, c.0))
                    .collect(),
                cpu_util: 0.0,
                disk_util: 0.0,
                connections: 0,
                powered: true,
                accepting: true,
            })
            .collect();

        for t in 0..self.config.duration_s {
            let sec_span = tracer.start("engine.second", "freon");
            if let Some(r) = runner.as_mut() {
                for command in r.due(mercury::units::Seconds(t as f64)) {
                    command.apply_to_cluster(&mut solver)?;
                    metrics.fiddle_events.inc();
                }
            }

            let stats = self.sim.tick(self.trace.arrivals_at(t));

            // monitord: utilizations into Mercury, with power-state
            // bookkeeping.
            for i in 0..n {
                let powered = self.sim.server(i).is_powered();
                let scale = self.sim.server(i).speed_scale();
                if powered != was_powered[i] || (powered && scale != last_scale[i]) {
                    if powered != was_powered[i] {
                        metrics.power_state_changes.inc();
                    }
                    let machine = solver.machine_at_mut(i);
                    for (component, model) in &original_power[i] {
                        let desired = if !powered {
                            PowerModel::Constant(Watts(self.config.off_watts))
                        } else if component == &self.config.cpu_component && scale < 1.0 {
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
                if let Some(fan) = fans[i].as_mut() {
                    fan.regulate(machine)?;
                }
            }

            solver.step();

            // Policy observation: refresh the snapshots in place.
            for (i, snap) in snapshots.iter_mut().enumerate() {
                let machine = solver.machine_at(i);
                for (j, (_, celsius)) in snap.temps.iter_mut().enumerate() {
                    *celsius = machine.temperature_at(j).0;
                }
                snap.cpu_util = stats.cpu_utilization[i];
                snap.disk_util = stats.disk_utilization[i];
                snap.connections = stats.connections[i];
                snap.powered = self.sim.server(i).is_powered();
                snap.accepting = self.sim.server(i).accepts_connections();
            }
            policy.control(t, &snapshots, &mut self.sim);

            // Policies can also steer the thermal plant itself (e.g. a
            // fan-CFM rule); those commands drain here, after control.
            let commands = policy.drain_engine_commands();
            for command in &commands {
                match command {
                    crate::policy::EngineCommand::SetFanCfm { server, cfm } => {
                        solver.machine_at_mut(*server).set_fan_cfm(*cfm)?;
                        metrics.policy_fan_commands.inc();
                    }
                }
            }

            let cpu_temp: Vec<f64> = (0..n)
                .map(|i| solver.machine_at(i).temperature_at(cpu_idx[i]).0)
                .collect();
            let disk_temp: Vec<f64> = (0..n)
                .map(|i| solver.machine_at(i).temperature_at(disk_idx[i]).0)
                .collect();

            // Embedded history + trend detection: append this second's
            // monitored temperatures, then scan each machine's trailing
            // CPU window for developing anomalies. A detected trend
            // arms the flight recorder before the reactive red-line
            // trigger would.
            let mut trend_triggers: Vec<IncidentTrigger> = Vec::new();
            if let Some(h) = &history {
                if t % h.cadence_s.max(1) == 0 {
                    for i in 0..n {
                        h.tsdb.append_handle(cpu_handles[i], t, cpu_temp[i]);
                        h.tsdb.append_handle(disk_handles[i], t, disk_temp[i]);
                    }
                    if let Some((detector, window_s)) = &trend {
                        for (i, series) in cpu_series.iter().enumerate() {
                            let window = h.tsdb.query_raw(series, t.saturating_sub(*window_s), t);
                            if let Some(anomaly) = detector.scan(&window) {
                                metrics.trend_anomalies.inc();
                                if let Some(trigger) = recorder.anomaly(
                                    t,
                                    i,
                                    anomaly.kind.as_str(),
                                    anomaly.detail.clone(),
                                ) {
                                    trend_triggers.push(trigger);
                                }
                            }
                        }
                    }
                }
            }

            // Flight recorder: one TickState per machine-second, then
            // bundles for anything that tripped — trend triggers from
            // the history detectors above, anomaly triggers from the
            // recorder itself, or fresh red-line incidents from the
            // policy.
            if recorder.is_attached() {
                let mut triggers: Vec<IncidentTrigger> = trend_triggers;
                for (i, snap) in snapshots.iter().enumerate() {
                    let mut actuations: Vec<String> = policy.incidents()[seen_incidents..]
                        .iter()
                        .filter(|inc| inc.server == i)
                        .map(|inc| format!("{}@{}", inc.action, inc.reason))
                        .collect();
                    actuations.extend(commands.iter().filter_map(|c| match c {
                        crate::policy::EngineCommand::SetFanCfm { server, cfm } if *server == i => {
                            Some(format!("set_fan@{cfm}"))
                        }
                        _ => None,
                    }));
                    let state = TickState {
                        time_s: t,
                        temps: snap.temps.iter().map(|(_, c)| *c).collect(),
                        cpu_util: snap.cpu_util,
                        disk_util: snap.disk_util,
                        powered: snap.powered,
                        accepting: snap.accepting,
                        speed_scale: self.sim.server(i).speed_scale(),
                        actuations,
                    };
                    if let Some(trigger) = recorder.record(i, state) {
                        triggers.push(trigger);
                    }
                }
                for incident in &policy.incidents()[seen_incidents..] {
                    let detail = match (&incident.component, incident.temperature_c) {
                        (Some(c), Some(temp)) => format!("{c} at {temp:.2} C"),
                        _ => incident.reason.clone(),
                    };
                    if let Some(trigger) =
                        recorder.red_line(incident.time_s, incident.server, detail)
                    {
                        triggers.push(trigger);
                    }
                }
                for trigger in &triggers {
                    self.write_bundle(&recorder, &tracer, policy.name(), trigger, &metrics);
                }
            }
            seen_incidents = policy.incidents().len();

            log.push(LogRow {
                time_s: t,
                cpu_temp,
                disk_temp,
                cpu_util: stats.cpu_utilization.clone(),
                weight: (0..n).map(|i| self.sim.lvs().weight(i)).collect(),
                connections: stats.connections.clone(),
                active_servers: self.sim.active_servers(),
                offered: stats.offered,
                dropped: stats.dropped,
                completed: stats.completed,
                request_seconds: stats.request_seconds,
            });
            if sec_span.is_live() {
                tracer.end_with_args(sec_span, vec![(Cow::Borrowed("time_s"), t.to_string())]);
            }
        }
        Ok(log)
    }

    /// Renders and writes one incident bundle under
    /// `config.incident_dir`. Filesystem trouble is reported to stderr
    /// but never aborts the run — the recorder must not be able to kill
    /// an experiment.
    fn write_bundle(
        &self,
        recorder: &FlightRecorder,
        tracer: &Tracer,
        policy: &str,
        trigger: &IncidentTrigger,
        metrics: &ExperimentMetrics,
    ) {
        let dir = match &self.config.incident_dir {
            Some(dir) => dir,
            None => return,
        };
        let mut build: Vec<(String, String)> = mercury::build::build_labels()
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        build.push(("policy".to_string(), policy.to_string()));
        let bundle = recorder.bundle(trigger, &build, &tracer.recent(BUNDLE_SPANS));
        let path = dir.join(format!(
            "incident_t{}_m{}_{}.json",
            trigger.time_s, trigger.machine, trigger.kind
        ));
        let result = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, bundle));
        match result {
            Ok(()) => metrics.incident_bundles.inc(),
            Err(e) => eprintln!("freon: failed to write {}: {e}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{NoPolicy, PolicySpec, SpecPolicy};
    use cluster_sim::ServerConfig;
    use workload_gen::{DiurnalProfile, RequestMix, WorkloadGenerator};

    fn paper_trace(duration: u64) -> WorkloadTrace {
        let mix = RequestMix::paper();
        let peak = mix.rps_for_cpu_utilization(0.7, 4, 1000.0);
        let profile = DiurnalProfile::new(duration as f64, peak * 0.15, peak).with_peak_at(0.65);
        WorkloadGenerator::new(profile, mix, 42).generate(duration)
    }

    #[test]
    fn engine_couples_load_to_temperature() {
        let model = mercury::presets::validation_cluster(4);
        let sim = ClusterSim::homogeneous(4, ServerConfig::default());
        let trace = paper_trace(600);
        let cfg = ExperimentConfig {
            duration_s: 600,
            ..Default::default()
        };
        let log = Experiment::new(&model, sim, &trace, None, cfg)
            .unwrap()
            .run(&mut NoPolicy)
            .unwrap();
        assert_eq!(log.len(), 600);
        // Temperatures rise from ambient as load ramps.
        let first = log.rows()[10].cpu_temp[0];
        let last = log.rows()[599].cpu_temp[0];
        assert!(last > first + 3.0, "no thermal coupling: {first} -> {last}");
        assert_eq!(log.total_dropped(), 0);
    }

    #[test]
    fn engine_applies_fiddle_emergencies() {
        let model = mercury::presets::validation_cluster(2);
        let sim = ClusterSim::homogeneous(2, ServerConfig::default());
        let trace = paper_trace(300);
        let script =
            FiddleScript::parse("sleep 100\nfiddle machine1 temperature inlet 38.6\n").unwrap();
        let cfg = ExperimentConfig {
            duration_s: 300,
            ..Default::default()
        };
        let log = Experiment::new(&model, sim, &trace, Some(&script), cfg)
            .unwrap()
            .run(&mut NoPolicy)
            .unwrap();
        // Machine 1 ends hotter than machine 2.
        let t1 = log.rows().last().unwrap().cpu_temp[0];
        let t2 = log.rows().last().unwrap().cpu_temp[1];
        assert!(t1 > t2 + 5.0, "emergency had no effect: {t1} vs {t2}");
    }

    #[test]
    fn machine_count_mismatch_is_rejected() {
        let model = mercury::presets::validation_cluster(2);
        let sim = ClusterSim::homogeneous(3, ServerConfig::default());
        let trace = paper_trace(10);
        assert!(Experiment::new(&model, sim, &trace, None, Default::default()).is_err());
    }

    #[test]
    fn powered_off_servers_cool_down() {
        let model = mercury::presets::validation_cluster(2);
        let mut sim = ClusterSim::homogeneous(2, ServerConfig::default());
        sim.lvs_mut().set_quiesced(1, true);
        sim.server_mut(1).shutdown_hard();
        let trace = paper_trace(900);
        let cfg = ExperimentConfig {
            duration_s: 900,
            ..Default::default()
        };
        let log = Experiment::new(&model, sim, &trace, None, cfg)
            .unwrap()
            .run(&mut NoPolicy)
            .unwrap();
        let on = log.rows().last().unwrap().cpu_temp[0];
        let off = log.rows().last().unwrap().cpu_temp[1];
        // The off machine sits near ambient; the on machine runs warm.
        assert!(off < 25.0, "off server at {off}");
        assert!(on > off + 8.0, "on {on} vs off {off}");
    }

    #[test]
    fn history_trends_flag_a_ramp_before_red_line() {
        use telemetry::RecorderConfig;

        let model = mercury::presets::validation_cluster(2);
        let sim = ClusterSim::homogeneous(2, ServerConfig::default());
        let duration = 520;
        let trace = paper_trace(duration);
        // Ramp machine1's inlet steadily toward the red line. The slope
        // detector should forecast the breach from the trend alone.
        let mut script = String::from("sleep 120\n");
        let mut inlet = 25.0;
        for _ in 0..70 {
            inlet += 0.75;
            script.push_str(&format!(
                "fiddle machine1 temperature inlet {inlet:.2}\nsleep 5\n"
            ));
        }
        let script = FiddleScript::parse(&script).unwrap();

        let dir = std::env::temp_dir().join(format!("freon-trend-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tsdb = Tsdb::shared(Default::default());
        let registry = Arc::new(Registry::new());
        let cfg = ExperimentConfig {
            duration_s: duration,
            registry: Some(Arc::clone(&registry)),
            recorder: FlightRecorder::new(RecorderConfig {
                // Leave headroom so only trend triggers (and the
                // recorder's own band trigger, eventually) fire.
                band_high_c: 200.0,
                max_rate_c_per_s: 50.0,
                ..Default::default()
            }),
            incident_dir: Some(dir.clone()),
            history: Some(HistoryConfig::new(Arc::clone(&tsdb))),
            ..Default::default()
        };
        let log = Experiment::new(&model, sim, &trace, Some(&script), cfg)
            .unwrap()
            .run(&mut NoPolicy)
            .unwrap();
        assert_eq!(log.len(), duration as usize);

        // History: one cpu and one disk series per machine, stamped in
        // simulated seconds.
        let stats = tsdb.stats();
        assert_eq!(stats.series, 4, "series: {:?}", tsdb.series_names());
        assert_eq!(tsdb.latest("temp/machine1/cpu").unwrap().0, duration - 1);
        assert_eq!(
            tsdb.query_raw("temp/machine1/cpu", 0, u64::MAX).len(),
            duration as usize
        );

        // The ramp tripped the forecast detector and the recorder wrote
        // a trend bundle.
        let text = registry.render_prometheus();
        assert!(
            text.contains("mercury_freon_trend_anomalies_total")
                && !text.contains("mercury_freon_trend_anomalies_total 0\n"),
            "no trend anomalies counted:\n{text}"
        );
        let bundles: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            bundles.iter().any(|b| b.contains("trend_redline_eta")),
            "no trend bundle in {bundles:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn freon_policy_runs_in_the_loop() {
        let model = mercury::presets::validation_cluster(4);
        let sim = ClusterSim::homogeneous(4, ServerConfig::default());
        let trace = paper_trace(400);
        let cfg = ExperimentConfig {
            duration_s: 400,
            ..Default::default()
        };
        let mut policy = SpecPolicy::new(PolicySpec::builtin("freon").unwrap(), 4).unwrap();
        let log = Experiment::new(&model, sim, &trace, None, cfg)
            .unwrap()
            .run(&mut policy)
            .unwrap();
        assert_eq!(log.policy, "freon");
        assert_eq!(log.len(), 400);
    }
}
