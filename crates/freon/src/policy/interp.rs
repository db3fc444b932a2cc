//! The spec interpreter: executes a [`PolicySpec`] against the cluster.
//!
//! [`SpecPolicy`] is the one concrete policy engine in the crate. It
//! walks the spec's ordered rules per gated server at every check
//! boundary (first firing rule wins, mirroring the paper daemons'
//! `if/else if` chains), routes every action through the
//! [`Mediator`](crate::policy::Mediator), and — when the spec carries an
//! `[ec]` section — runs the Figure 10 energy-conservation loop around
//! the rule chain. The legacy policy types
//! ([`FreonPolicy`](crate::FreonPolicy) etc.) are thin wrappers over
//! this interpreter.

use crate::config::FreonConfig;
use crate::engine::ServerSnapshot;
use crate::metrics::FreonMetrics;
use crate::policy::actuators::{ActionRequest, EngineCommand, IncidentRecord};
use crate::policy::mediator::Mediator;
use crate::policy::spec::{ActionSpec, EcSpec, Gate, PolicySpec, ReasonCode, RuleSpec, Trigger};
use crate::policy::ThermalPolicy;
use crate::tempd::{Tempd, TempdReport};
use cluster_sim::ClusterSim;
use std::borrow::Cow;
use telemetry::{Registry, Tracer};

/// Freon-EC bookkeeping (Figure 10) for a spec with an `[ec]` section.
#[derive(Debug)]
struct EcState {
    cfg: EcSpec,
    region_emergencies: Vec<i64>,
    /// Round-robin cursor over regions for turn-on selection.
    next_region: usize,
    /// Previous interval's cluster-average utilization per tracked
    /// component (CPU, disk), for the linear projection.
    prev_avg: Option<(f64, f64)>,
    power_ons: u64,
    power_offs: u64,
}

impl EcState {
    fn new(cfg: EcSpec) -> Self {
        let region_count = cfg.regions.iter().copied().max().map_or(0, |m| m + 1);
        EcState {
            cfg,
            region_emergencies: vec![0; region_count],
            next_region: 0,
            prev_avg: None,
            power_ons: 0,
            power_offs: 0,
        }
    }

    /// Picks a region to take a replacement server from: round-robin over
    /// regions that have at least one off server, preferring regions not
    /// under an emergency. Returns a server index to power on.
    fn select_server_to_turn_on(&mut self, snapshots: &[ServerSnapshot]) -> Option<usize> {
        let region_count = self
            .cfg
            .regions
            .iter()
            .copied()
            .max()
            .map_or(0, |m| m + 1)
            .max(1);
        let has_off = |region: usize| {
            self.cfg
                .regions
                .iter()
                .enumerate()
                .any(|(i, &r)| r == region && !snapshots[i].powered)
        };
        // Two passes: first regions without emergencies, then any region.
        for emergency_ok in [false, true] {
            for offset in 0..region_count {
                let region = (self.next_region + offset) % region_count;
                let under_emergency = self.region_emergencies.get(region).copied().unwrap_or(0) > 0;
                if (under_emergency && !emergency_ok) || !has_off(region) {
                    continue;
                }
                let server = self
                    .cfg
                    .regions
                    .iter()
                    .enumerate()
                    .find(|(i, &r)| r == region && !snapshots[*i].powered)
                    .map(|(i, _)| i);
                if let Some(server) = server {
                    self.next_region = (region + 1) % region_count;
                    return Some(server);
                }
            }
        }
        None
    }
}

/// One gated server's tempd reading plus the id of its `tempd.observe`
/// span — the `cause` every downstream rule and actuation span links
/// back to (0 when untraced).
struct Observation {
    report: TempdReport,
    cause: u64,
}

/// A thermal policy defined entirely by a [`PolicySpec`].
#[derive(Debug)]
pub struct SpecPolicy {
    spec: PolicySpec,
    /// Daemon-side view of the spec (thresholds, periods, gains).
    base: FreonConfig,
    tempds: Vec<Tempd>,
    restricted: Vec<bool>,
    shutdown_times: Vec<Option<u64>>,
    adjustments: u64,
    red_line_shutdowns: u64,
    mediator: Mediator,
    metrics: FreonMetrics,
    ec: Option<EcState>,
    uses_admission: bool,
    tracer: Tracer,
}

impl SpecPolicy {
    /// Builds the interpreter for an `n`-server cluster, validating the
    /// spec first.
    ///
    /// # Errors
    ///
    /// Returns the validation error (naming the offending component and
    /// values) when the spec is inconsistent or does not fit the cluster.
    pub fn new(spec: PolicySpec, n: usize) -> Result<Self, String> {
        spec.validate_for_cluster(n)?;
        let base = spec.base_config();
        let tempds = (0..n).map(|_| Tempd::new(&base)).collect();
        let metrics = FreonMetrics::new();
        let mediator = Mediator::new(
            n,
            spec.frequency_levels.clone(),
            spec.connection_caps,
            metrics.clone(),
        );
        let ec = spec.ec.clone().map(EcState::new);
        let uses_admission = spec.uses_admission();
        Ok(SpecPolicy {
            spec,
            base,
            tempds,
            restricted: vec![false; n],
            shutdown_times: vec![None; n],
            adjustments: 0,
            red_line_shutdowns: 0,
            mediator,
            metrics,
            ec,
            uses_admission,
            tracer: Tracer::default(),
        })
    }

    /// Loads and builds a policy from a TOML spec file.
    ///
    /// # Errors
    ///
    /// Returns read, parse, or validation errors, all naming the file.
    pub fn from_toml_file(path: &std::path::Path, n: usize) -> Result<Self, String> {
        let spec = PolicySpec::from_toml_file(path)?;
        Self::new(spec, n).map_err(|e| format!("in {}: {e}", path.display()))
    }

    /// The spec this policy interprets.
    pub fn spec(&self) -> &PolicySpec {
        &self.spec
    }

    /// The policy's telemetry handles.
    pub fn metrics(&self) -> &FreonMetrics {
        &self.metrics
    }

    /// How many load-distribution adjustments were made (throttles and
    /// sheds).
    pub fn adjustments(&self) -> u64 {
        self.adjustments
    }

    /// How many servers were lost to red-line shutdowns.
    pub fn red_line_shutdowns(&self) -> u64 {
        self.red_line_shutdowns
    }

    /// Which servers currently carry admission restrictions.
    pub fn restricted(&self) -> &[bool] {
        &self.restricted
    }

    /// When each server was shut down at the red line (`None` =
    /// survived).
    pub fn shutdown_times(&self) -> &[Option<u64>] {
        &self.shutdown_times
    }

    /// Servers powered on by the EC extension so far.
    pub fn power_ons(&self) -> u64 {
        self.ec.as_ref().map_or(0, |e| e.power_ons)
    }

    /// Servers powered off by the EC extension (including red-line
    /// shutdowns under EC) so far.
    pub fn power_offs(&self) -> u64 {
        self.ec.as_ref().map_or(0, |e| e.power_offs)
    }

    /// Current per-region emergency counts (empty without `[ec]`).
    pub fn region_emergencies(&self) -> &[i64] {
        self.ec
            .as_ref()
            .map_or(&[][..], |e| e.region_emergencies.as_slice())
    }

    /// Structured records of every emergency shutdown so far.
    pub fn incidents(&self) -> &[IncidentRecord] {
        self.mediator.incidents()
    }

    /// The current DVFS speed scale of `server`.
    pub fn frequency_scale(&self, server: usize) -> f64 {
        self.mediator.frequency().scale(server)
    }

    /// Total downward DVFS steps taken across the cluster.
    pub fn frequency_steps_down(&self) -> u64 {
        self.mediator.frequency().steps_down()
    }

    fn gate_open(&self, snapshot: &ServerSnapshot) -> bool {
        match self.spec.gate {
            Gate::Powered => snapshot.powered,
            Gate::Accepting => snapshot.accepting,
        }
    }

    fn rule_for(&self, trigger: Trigger) -> Option<RuleSpec> {
        self.spec
            .rules
            .iter()
            .find(|r| r.trigger == trigger)
            .cloned()
    }

    /// Records one server's `tempd.observe` span around the tempd read;
    /// its id becomes the `cause` of every downstream rule and
    /// actuation span for this server at this check boundary.
    fn observe_traced(
        &mut self,
        server: usize,
        now_s: u64,
        snapshot: &ServerSnapshot,
    ) -> Observation {
        let span = self.tracer.start("tempd.observe", "freon");
        let report = self.tempds[server].observe(&snapshot.temps, &self.base);
        let cause = span.id();
        if span.is_live() {
            let mut args = vec![
                (Cow::Borrowed("server"), server.to_string()),
                (Cow::Borrowed("time_s"), now_s.to_string()),
            ];
            if let Some(component) = &report.red_lined {
                args.push((Cow::Borrowed("red_lined"), component.clone()));
            }
            self.tracer.end_with_args(span, args);
        }
        Observation { report, cause }
    }

    /// Dispatches a rule's action for one server, attaching the
    /// triggering component's context for incident records and the
    /// observation span id (`cause`) for the trace.
    fn dispatch_rule(
        &mut self,
        rule: &RuleSpec,
        server: usize,
        obs: &Observation,
        snapshot: &ServerSnapshot,
        now_s: u64,
        sim: &mut ClusterSim,
    ) -> bool {
        if self.tracer.is_active() {
            self.tracer.instant(
                "policy.rule",
                "freon",
                obs.cause,
                vec![
                    (Cow::Borrowed("trigger"), rule.trigger.as_str().to_string()),
                    (Cow::Borrowed("action"), rule.action.name().to_string()),
                    (Cow::Borrowed("server"), server.to_string()),
                ],
            );
        }
        let mut req = ActionRequest::new(server, rule.action.clone(), rule.reason, now_s);
        req.output = obs.report.output;
        req.cause = obs.cause;
        if let Some(component) = &obs.report.red_lined {
            req.component = Some(component.clone());
            req.temperature_c = snapshot
                .temps
                .iter()
                .find(|(c, _)| c == component)
                .map(|(_, t)| *t);
            req.threshold_c = self.base.thresholds_for(component).map(|t| t.red_line);
        }
        self.mediator.dispatch(&req, sim)
    }

    /// Policy-side bookkeeping for an applied action.
    fn bookkeep(&mut self, server: usize, action: &ActionSpec, now_s: u64) {
        match action {
            ActionSpec::Shutdown => {
                self.restricted[server] = false;
                self.shutdown_times[server] = Some(now_s);
                self.red_line_shutdowns += 1;
            }
            ActionSpec::Throttle | ActionSpec::Shed { .. } => {
                self.restricted[server] = true;
                self.adjustments += 1;
            }
            ActionSpec::Release => {
                self.restricted[server] = false;
            }
            _ => {}
        }
    }

    /// The plain rule chain: first firing rule per gated server wins.
    fn rule_monitor(&mut self, now_s: u64, snapshots: &[ServerSnapshot], sim: &mut ClusterSim) {
        let rules = self.spec.rules.clone();
        for (i, snapshot) in snapshots.iter().enumerate() {
            if !self.gate_open(snapshot) {
                continue;
            }
            self.metrics.observations.inc();
            let obs = self.observe_traced(i, now_s, snapshot);
            for rule in &rules {
                let fired = match rule.trigger {
                    Trigger::RedLine => obs.report.red_lined.is_some(),
                    Trigger::AboveHigh => obs.report.output.is_some(),
                    Trigger::BelowLow => obs.report.all_below_low,
                };
                if !fired {
                    continue;
                }
                // Releasing an unrestricted server is a no-op; let later
                // rules (if any) have a look instead.
                if matches!(rule.action, ActionSpec::Release) && !self.restricted[i] {
                    continue;
                }
                if self.dispatch_rule(rule, i, &obs, snapshot, now_s, sim) {
                    self.bookkeep(i, &rule.action, now_s);
                }
                break;
            }
        }
        if self.uses_admission {
            self.mediator.end_interval();
        }
    }

    /// Cluster-average CPU and disk utilization over the servers carrying
    /// load (accepting connections).
    fn average_utilization(snapshots: &[ServerSnapshot]) -> (f64, f64, usize) {
        let mut cpu = 0.0;
        let mut disk = 0.0;
        let mut n = 0usize;
        for s in snapshots.iter().filter(|s| s.accepting) {
            cpu += s.cpu_util;
            disk += s.disk_util;
            n += 1;
        }
        if n == 0 {
            (0.0, 0.0, 0)
        } else {
            (cpu / n as f64, disk / n as f64, n)
        }
    }

    fn ec_turn_on(
        &mut self,
        ec: &mut EcState,
        sim: &mut ClusterSim,
        server: usize,
        reason: ReasonCode,
        now_s: u64,
        cause: u64,
    ) {
        let mut req = ActionRequest::new(server, ActionSpec::PowerOn, reason, now_s);
        req.cause = cause;
        self.mediator.dispatch(&req, sim);
        self.restricted[server] = false;
        ec.power_ons += 1;
    }

    fn ec_turn_off(
        &mut self,
        ec: &mut EcState,
        sim: &mut ClusterSim,
        server: usize,
        reason: ReasonCode,
        now_s: u64,
        cause: u64,
    ) {
        let mut req = ActionRequest::new(server, ActionSpec::PowerOff, reason, now_s);
        req.cause = cause;
        self.mediator.dispatch(&req, sim);
        ec.power_offs += 1;
    }

    /// The Freon-EC loop (Figure 10): grow on projected load, handle
    /// per-server thermal events (replace/remove/throttle), then shrink
    /// for energy.
    fn ec_monitor(&mut self, now_s: u64, snapshots: &[ServerSnapshot], sim: &mut ClusterSim) {
        let mut ec = self.ec.take().expect("ec_monitor requires an [ec] section");

        // --- Figure 10, step 1: grow the configuration on projected load.
        let (cpu_avg, disk_avg, active) = Self::average_utilization(snapshots);
        let (cpu_proj, disk_proj) = match ec.prev_avg {
            Some((pc, pd)) if cpu_avg + disk_avg > pc + pd => {
                let k = ec.cfg.projection_intervals as f64;
                (cpu_avg + k * (cpu_avg - pc), disk_avg + k * (disk_avg - pd))
            }
            _ => (cpu_avg, disk_avg),
        };
        ec.prev_avg = Some((cpu_avg, disk_avg));

        let need_add = cpu_proj > ec.cfg.u_high || disk_proj > ec.cfg.u_high;
        let any_off = snapshots.iter().any(|s| !s.powered);
        if need_add && any_off {
            if let Some(server) = ec.select_server_to_turn_on(snapshots) {
                self.ec_turn_on(&mut ec, sim, server, ReasonCode::ProjectedLoad, now_s, 0);
            }
        }

        // Removal headroom: removing k servers lifts the average to
        // avg·active/(active−k); it must stay below U_l.
        let u_low = ec.cfg.u_low;
        let removable = move |k: usize| {
            active > k
                && cpu_avg * active as f64 / (active - k) as f64 <= u_low
                && disk_avg * active as f64 / (active - k) as f64 <= u_low
        };

        // --- Figure 10, step 2: per-server thermal events.
        let mut observations: Vec<Option<Observation>> = Vec::with_capacity(snapshots.len());
        for (i, snapshot) in snapshots.iter().enumerate() {
            if !snapshot.powered {
                observations.push(None);
                continue;
            }
            self.metrics.observations.inc();
            let obs = self.observe_traced(i, now_s, snapshot);
            observations.push(Some(obs));
        }

        let mut removed_for_heat = 0usize;
        for (i, obs) in observations.iter().enumerate() {
            let obs = match obs {
                Some(o) => o,
                None => continue,
            };
            if obs.report.red_lined.is_some() {
                // Modern CPUs and disks turn themselves off at the red
                // line; Freon extends the action to the entire server.
                if let Some(rule) = self.rule_for(Trigger::RedLine) {
                    if self.dispatch_rule(&rule, i, obs, &snapshots[i], now_s, sim) {
                        self.bookkeep(i, &rule.action, now_s);
                        ec.power_offs += 1;
                    }
                }
                continue;
            }
            let region = ec.cfg.regions[i];
            if !obs.report.crossed_high.is_empty() {
                ec.region_emergencies[region] += 1;
                if !removable(removed_for_heat + 1) {
                    // All remaining servers are needed: fall back to the
                    // base policy — unless we can bring up a replacement.
                    if snapshots.iter().any(|s| !s.powered) {
                        if let Some(replacement) = ec.select_server_to_turn_on(snapshots) {
                            self.ec_turn_on(
                                &mut ec,
                                sim,
                                replacement,
                                ReasonCode::Replacement,
                                now_s,
                                obs.cause,
                            );
                            self.ec_turn_off(&mut ec, sim, i, ReasonCode::Heat, now_s, obs.cause);
                            removed_for_heat += 1;
                            continue;
                        }
                    }
                    if obs.report.output.is_some() {
                        if let Some(rule) = self.rule_for(Trigger::AboveHigh) {
                            if self.dispatch_rule(&rule, i, obs, &snapshots[i], now_s, sim) {
                                self.bookkeep(i, &rule.action, now_s);
                            }
                        }
                    }
                } else {
                    // Capacity to spare: simply turn the hot server off.
                    self.ec_turn_off(&mut ec, sim, i, ReasonCode::Heat, now_s, obs.cause);
                    removed_for_heat += 1;
                }
                continue;
            }
            if !obs.report.crossed_low.is_empty() {
                ec.region_emergencies[region] = (ec.region_emergencies[region] - 1).max(0);
            }
            // Base policy for ongoing episodes / releases.
            if obs.report.output.is_some() {
                if let Some(rule) = self.rule_for(Trigger::AboveHigh) {
                    if self.dispatch_rule(&rule, i, obs, &snapshots[i], now_s, sim) {
                        self.bookkeep(i, &rule.action, now_s);
                    }
                }
            } else if obs.report.all_below_low && self.restricted[i] {
                if let Some(rule) = self.rule_for(Trigger::BelowLow) {
                    if self.dispatch_rule(&rule, i, obs, &snapshots[i], now_s, sim) {
                        self.bookkeep(i, &rule.action, now_s);
                    }
                }
            }
        }

        // --- Figure 10, step 3: energy conservation — turn off as many
        // servers as possible. Prefer servers in regions under emergency
        // (they are the riskiest to keep hot), then higher indices; the
        // paper orders by "current processing capacity", which is uniform
        // in our homogeneous cluster.
        let mut shrink = 0usize;
        loop {
            if !removable(removed_for_heat + shrink + 1) {
                break;
            }
            let candidate = snapshots
                .iter()
                .enumerate()
                .filter(|(i, s)| s.accepting && !sim.lvs().is_quiesced(*i))
                .max_by_key(|(i, _)| {
                    let emergency = ec
                        .region_emergencies
                        .get(ec.cfg.regions[*i])
                        .copied()
                        .unwrap_or(0)
                        > 0;
                    (emergency, *i)
                })
                .map(|(i, _)| i);
            match candidate {
                Some(i) if snapshots.iter().filter(|s| s.accepting).count() > shrink + 1 => {
                    self.ec_turn_off(&mut ec, sim, i, ReasonCode::Energy, now_s, 0);
                    shrink += 1;
                }
                _ => break,
            }
        }

        self.mediator.end_interval();
        self.ec = Some(ec);
    }
}

impl ThermalPolicy for SpecPolicy {
    fn name(&self) -> &str {
        &self.spec.name
    }

    fn control(&mut self, now_s: u64, snapshots: &[ServerSnapshot], sim: &mut ClusterSim) {
        if self.uses_admission && now_s > 0 && now_s.is_multiple_of(self.spec.sample_period_s) {
            self.mediator.sample_connections(sim);
        }
        if now_s > 0 && now_s.is_multiple_of(self.spec.check_period_s) {
            if self.ec.is_some() {
                self.ec_monitor(now_s, snapshots, sim);
            } else {
                self.rule_monitor(now_s, snapshots, sim);
            }
        }
    }

    fn register_metrics(&self, registry: &Registry) {
        self.metrics.register(registry);
    }

    fn drain_engine_commands(&mut self) -> Vec<EngineCommand> {
        self.mediator.take_commands()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.mediator.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    fn incidents(&self) -> &[IncidentRecord] {
        self.mediator.incidents()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FreonConfig;
    use cluster_sim::ServerConfig;

    fn snapshots(specs: &[(f64, f64, bool)]) -> Vec<ServerSnapshot> {
        // (cpu_temp, cpu_util, powered)
        specs
            .iter()
            .map(|&(temp, util, powered)| ServerSnapshot {
                temps: vec![
                    ("cpu".to_string(), temp),
                    ("disk_platters".to_string(), 40.0),
                ],
                cpu_util: util,
                disk_util: util * 0.2,
                connections: (util * 50.0) as usize,
                powered,
                accepting: powered,
            })
            .collect()
    }

    fn shed_spec() -> PolicySpec {
        let text = "\
name = \"load-shed\"

[[thresholds]]
component = \"cpu\"
high = 67.0
low = 64.0
red_line = 69.0

[[rules]]
trigger = \"red_line\"
action = \"shutdown\"

[[rules]]
trigger = \"above_high\"
action = \"shed\"
factor = 0.5

[[rules]]
trigger = \"below_low\"
action = \"release\"
";
        PolicySpec::from_toml_str(text).unwrap()
    }

    #[test]
    fn toml_only_shed_policy_halves_weight_and_releases() {
        let mut policy = SpecPolicy::new(shed_spec(), 2).unwrap();
        let mut sim = ClusterSim::homogeneous(2, ServerConfig::default());
        policy.control(
            60,
            &snapshots(&[(68.0, 0.7, true), (60.0, 0.7, true)]),
            &mut sim,
        );
        assert!((sim.lvs().weight(0) - 0.5).abs() < 1e-12);
        assert!(policy.restricted()[0]);
        assert_eq!(policy.adjustments(), 1);
        assert_eq!(policy.metrics().sheds.get(), 1);
        // Cooling below T_l releases the shed weight.
        policy.control(
            120,
            &snapshots(&[(63.0, 0.4, true), (60.0, 0.7, true)]),
            &mut sim,
        );
        assert_eq!(sim.lvs().weight(0), 1.0);
        assert!(!policy.restricted()[0]);
        assert_eq!(policy.metrics().releases.get(), 1);
    }

    #[test]
    fn shutdown_rules_emit_incident_records() {
        let mut policy = SpecPolicy::new(shed_spec(), 2).unwrap();
        let mut sim = ClusterSim::homogeneous(2, ServerConfig::default());
        policy.control(
            60,
            &snapshots(&[(69.5, 0.9, true), (60.0, 0.5, true)]),
            &mut sim,
        );
        assert_eq!(policy.red_line_shutdowns(), 1);
        assert_eq!(policy.shutdown_times(), &[Some(60), None]);
        let incidents = policy.incidents();
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].server, 0);
        assert_eq!(incidents[0].component.as_deref(), Some("cpu"));
        assert_eq!(incidents[0].temperature_c, Some(69.5));
        assert_eq!(incidents[0].threshold_c, Some(69.0));
        assert_eq!(incidents[0].reason, "red_line");
    }

    #[test]
    fn fan_rules_queue_engine_commands() {
        let text = "\
name = \"fan-boost\"

[[thresholds]]
component = \"cpu\"
high = 67.0
low = 64.0
red_line = 69.0

[[rules]]
trigger = \"above_high\"
action = \"set_fan\"
cfm = 90.0

[[rules]]
trigger = \"below_low\"
action = \"set_fan\"
cfm = 56.6
reason = \"below_low\"
";
        let spec = PolicySpec::from_toml_str(text).unwrap();
        let mut policy = SpecPolicy::new(spec, 1).unwrap();
        let mut sim = ClusterSim::homogeneous(1, ServerConfig::default());
        policy.control(60, &snapshots(&[(68.0, 0.7, true)]), &mut sim);
        assert_eq!(
            policy.drain_engine_commands(),
            vec![EngineCommand::SetFanCfm {
                server: 0,
                cfm: 90.0
            }]
        );
        // Still hot: same command is deduped.
        policy.control(120, &snapshots(&[(68.2, 0.7, true)]), &mut sim);
        assert!(policy.drain_engine_commands().is_empty());
        // Cooled: fan returns to nominal.
        policy.control(180, &snapshots(&[(63.0, 0.3, true)]), &mut sim);
        assert_eq!(
            policy.drain_engine_commands(),
            vec![EngineCommand::SetFanCfm {
                server: 0,
                cfm: 56.6
            }]
        );
        assert_eq!(policy.metrics().fan_commands.get(), 2);
    }

    #[test]
    fn decision_spans_link_back_to_the_observation() {
        let mut policy = SpecPolicy::new(shed_spec(), 2).unwrap();
        let tracer = Tracer::new(1024);
        crate::policy::ThermalPolicy::set_tracer(&mut policy, tracer.clone());
        let mut sim = ClusterSim::homogeneous(2, ServerConfig::default());
        // Server 0 above T_h: observe → rule → shed dispatch.
        policy.control(
            60,
            &snapshots(&[(68.0, 0.7, true), (60.0, 0.7, true)]),
            &mut sim,
        );
        let spans = tracer.drain();
        let observations: Vec<_> = spans.iter().filter(|s| s.name == "tempd.observe").collect();
        assert_eq!(observations.len(), 2, "one observation per gated server");
        let obs0 = observations
            .iter()
            .find(|s| s.args.iter().any(|(k, v)| k == "server" && v == "0"))
            .unwrap();
        let rule = spans.iter().find(|s| s.name == "policy.rule").unwrap();
        assert_eq!(rule.parent, obs0.id);
        assert!(rule.args.iter().any(|(k, v)| k == "action" && v == "shed"));
        let dispatch = spans
            .iter()
            .find(|s| s.name == "mediator.dispatch")
            .unwrap();
        assert_eq!(
            dispatch.parent, obs0.id,
            "actuation links back to the observation that caused it"
        );
        assert!(dispatch
            .args
            .iter()
            .any(|(k, v)| k == "applied" && v == "true"));
    }

    #[test]
    fn invalid_specs_are_rejected_at_construction() {
        let mut spec = PolicySpec::freon(&FreonConfig::paper());
        spec.thresholds[0].low = 70.0;
        let err = SpecPolicy::new(spec, 2).unwrap_err();
        assert!(err.contains("cpu"), "{err}");
        let spec = PolicySpec::freon_ec(
            &FreonConfig::paper(),
            &crate::config::EcConfig::paper_four_servers(),
        );
        assert!(SpecPolicy::new(spec, 3).unwrap_err().contains("region map"));
    }
}
