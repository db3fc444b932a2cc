//! Composable actuators — the hands of a thermal policy.
//!
//! Each [`Actuator`] owns one lever over the cluster (admission weights,
//! DVFS frequency, fan airflow, machine power state). The
//! [`crate::policy::Mediator`] dispatches [`ActionRequest`]s to the first
//! actuator that handles the action, in a fixed dependency order, so the
//! decision logic (spec interpreter, legacy policies, ad hoc harnesses)
//! never touches the cluster directly.
//!
//! Actuators that cannot act on the simulated cluster alone — the fan
//! lives in the thermal model, which the policy never sees — queue an
//! [`EngineCommand`] instead; the experiment engine drains and applies
//! those after every control step.

use crate::admd::Admd;
use crate::policy::spec::{ActionSpec, ReasonCode};
use cluster_sim::ClusterSim;

/// The default DVFS ladder: full speed plus four progressively slower
/// steps, mirroring the frequency/voltage pairs of mobile processors of
/// the paper's era.
pub const DEFAULT_LEVELS: [f64; 5] = [1.0, 0.85, 0.7, 0.55, 0.4];

/// One actuation request from a policy, routed by the mediator.
#[derive(Debug, Clone)]
pub struct ActionRequest {
    /// Target server index.
    pub server: usize,
    /// What to do.
    pub action: ActionSpec,
    /// Why — lands on the decision telemetry and in incident records.
    pub reason: ReasonCode,
    /// PD-controller output backing a throttle, when there is one.
    pub output: Option<f64>,
    /// Simulation time of the decision, seconds.
    pub now_s: u64,
    /// The component that triggered the rule, when known.
    pub component: Option<String>,
    /// That component's temperature at decision time, °C.
    pub temperature_c: Option<f64>,
    /// The threshold it crossed, °C.
    pub threshold_c: Option<f64>,
    /// Span id of the `tempd.observe` span that triggered this request
    /// (0 = untraced), so actuation spans link back to the observation.
    pub cause: u64,
}

impl ActionRequest {
    /// A bare request with no triggering-component context.
    pub fn new(server: usize, action: ActionSpec, reason: ReasonCode, now_s: u64) -> Self {
        ActionRequest {
            server,
            action,
            reason,
            output: None,
            now_s,
            component: None,
            temperature_c: None,
            threshold_c: None,
            cause: 0,
        }
    }
}

/// A side effect a policy asks the *engine* (not the cluster) to apply to
/// the thermal model.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineCommand {
    /// Set a machine's fan to a fixed airflow.
    SetFanCfm {
        /// Target machine index.
        server: usize,
        /// Airflow in cubic feet per minute.
        cfm: f64,
    },
}

/// A structured record of an emergency shutdown, kept by the power
/// actuator for operators and the scenario harness.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentRecord {
    /// Simulation time of the shutdown, seconds.
    pub time_s: u64,
    /// The server that was shut down.
    pub server: usize,
    /// The component that crossed its red line, when known.
    pub component: Option<String>,
    /// Its temperature at shutdown, °C.
    pub temperature_c: Option<f64>,
    /// The red-line threshold, °C.
    pub threshold_c: Option<f64>,
    /// The action taken (metric-label spelling).
    pub action: String,
    /// The reason code (metric-label spelling).
    pub reason: String,
}

/// Mutable state an actuator may touch while applying a request.
#[derive(Debug)]
pub struct ActuationCtx<'a> {
    /// The cluster under control.
    pub sim: &'a mut ClusterSim,
    /// Commands for the engine to apply to the thermal model.
    pub commands: &'a mut Vec<EngineCommand>,
    /// Incident log (appended by emergency shutdowns).
    pub incidents: &'a mut Vec<IncidentRecord>,
}

/// One lever over the cluster.
///
/// `apply` returns whether the actuator actually changed anything — a
/// frequency step at the end of its ladder, or a fan command equal to the
/// last one, returns `false` and is not counted as a decision.
pub trait Actuator: std::fmt::Debug {
    /// Short name for diagnostics.
    fn name(&self) -> &'static str;
    /// Whether this actuator implements `action`.
    fn handles(&self, action: &ActionSpec) -> bool;
    /// Applies the request; returns whether anything changed.
    fn apply(&mut self, req: &ActionRequest, ctx: &mut ActuationCtx<'_>) -> bool;
}

/// Admission control at the load balancer: weight rescaling, connection
/// caps, load shedding, and release. Owns the [`Admd`] sampler.
#[derive(Debug)]
pub struct AdmissionActuator {
    admd: Admd,
    connection_caps: bool,
}

impl AdmissionActuator {
    /// Creates the actuator for an `n`-server cluster.
    pub fn new(n: usize, connection_caps: bool) -> Self {
        AdmissionActuator {
            admd: Admd::new(n),
            connection_caps,
        }
    }

    /// Records one LVS statistics sample.
    pub fn sample_connections(&mut self, sim: &ClusterSim) {
        self.admd.sample_connections(sim);
    }

    /// Closes the current observation interval.
    pub fn end_interval(&mut self) {
        self.admd.end_interval();
    }

    /// The underlying admission daemon.
    pub fn admd(&self) -> &Admd {
        &self.admd
    }
}

impl Actuator for AdmissionActuator {
    fn name(&self) -> &'static str {
        "admission"
    }

    fn handles(&self, action: &ActionSpec) -> bool {
        matches!(
            action,
            ActionSpec::Throttle | ActionSpec::Release | ActionSpec::Shed { .. }
        )
    }

    fn apply(&mut self, req: &ActionRequest, ctx: &mut ActuationCtx<'_>) -> bool {
        match req.action {
            ActionSpec::Throttle => {
                self.admd
                    .rescale_weight(ctx.sim, req.server, req.output.unwrap_or(0.0));
                if self.connection_caps {
                    self.admd.apply_connection_cap(ctx.sim, req.server);
                }
                true
            }
            ActionSpec::Release => {
                self.admd.release(ctx.sim, req.server);
                true
            }
            ActionSpec::Shed { factor } => {
                let lvs = ctx.sim.lvs_mut();
                let weight = lvs.weight(req.server);
                lvs.set_weight(req.server, weight * factor);
                true
            }
            _ => false,
        }
    }
}

/// Machine power states: emergency shutdown (hard, with an incident
/// record), graceful power-off, and power-on.
#[derive(Debug, Default)]
pub struct PowerActuator;

impl Actuator for PowerActuator {
    fn name(&self) -> &'static str {
        "power"
    }

    fn handles(&self, action: &ActionSpec) -> bool {
        matches!(
            action,
            ActionSpec::Shutdown | ActionSpec::PowerOff | ActionSpec::PowerOn
        )
    }

    fn apply(&mut self, req: &ActionRequest, ctx: &mut ActuationCtx<'_>) -> bool {
        match req.action {
            ActionSpec::Shutdown => {
                ctx.sim.lvs_mut().set_quiesced(req.server, true);
                ctx.sim.server_mut(req.server).shutdown_hard();
                ctx.incidents.push(IncidentRecord {
                    time_s: req.now_s,
                    server: req.server,
                    component: req.component.clone(),
                    temperature_c: req.temperature_c,
                    threshold_c: req.threshold_c,
                    action: req.action.name().to_string(),
                    reason: req.reason.as_str().to_string(),
                });
                true
            }
            ActionSpec::PowerOff => {
                ctx.sim.lvs_mut().set_quiesced(req.server, true);
                ctx.sim.server_mut(req.server).shutdown_graceful();
                true
            }
            ActionSpec::PowerOn => {
                ctx.sim.server_mut(req.server).power_on();
                ctx.sim.lvs_mut().set_quiesced(req.server, false);
                ctx.sim.lvs_mut().clear_restrictions(req.server);
                true
            }
            _ => false,
        }
    }
}

/// Per-server DVFS frequency ladder (§4.3): each server walks a shared
/// descending list of speed scales.
#[derive(Debug)]
pub struct FrequencyActuator {
    levels: Vec<f64>,
    index: Vec<usize>,
    steps_down: u64,
}

impl FrequencyActuator {
    /// Creates the actuator with an explicit ladder for `n` servers.
    pub fn new(levels: Vec<f64>, n: usize) -> Self {
        FrequencyActuator {
            levels,
            index: vec![0; n],
            steps_down: 0,
        }
    }

    /// The current speed scale of `server`.
    pub fn scale(&self, server: usize) -> f64 {
        self.levels[self.index[server]]
    }

    /// Total downward steps taken across the cluster.
    pub fn steps_down(&self) -> u64 {
        self.steps_down
    }

    /// Steps `server` one ladder level down; returns whether it moved.
    pub fn step_down(&mut self, sim: &mut ClusterSim, server: usize) -> bool {
        if self.index[server] + 1 < self.levels.len() {
            self.index[server] += 1;
            sim.server_mut(server)
                .set_speed_scale(self.levels[self.index[server]]);
            self.steps_down += 1;
            true
        } else {
            false
        }
    }

    /// Steps `server` one ladder level back up; returns whether it moved.
    pub fn step_up(&mut self, sim: &mut ClusterSim, server: usize) -> bool {
        if self.index[server] > 0 {
            self.index[server] -= 1;
            sim.server_mut(server)
                .set_speed_scale(self.levels[self.index[server]]);
            true
        } else {
            false
        }
    }
}

impl Actuator for FrequencyActuator {
    fn name(&self) -> &'static str {
        "frequency"
    }

    fn handles(&self, action: &ActionSpec) -> bool {
        matches!(
            action,
            ActionSpec::StepDownFrequency | ActionSpec::StepUpFrequency
        )
    }

    fn apply(&mut self, req: &ActionRequest, ctx: &mut ActuationCtx<'_>) -> bool {
        match req.action {
            ActionSpec::StepDownFrequency => self.step_down(ctx.sim, req.server),
            ActionSpec::StepUpFrequency => self.step_up(ctx.sim, req.server),
            _ => false,
        }
    }
}

/// Fan airflow: queues [`EngineCommand::SetFanCfm`] for the engine,
/// deduplicating repeats of the last commanded CFM per machine.
#[derive(Debug)]
pub struct FanActuator {
    last_cfm: Vec<Option<f64>>,
}

impl FanActuator {
    /// Creates the actuator for an `n`-machine cluster.
    pub fn new(n: usize) -> Self {
        FanActuator {
            last_cfm: vec![None; n],
        }
    }
}

impl Actuator for FanActuator {
    fn name(&self) -> &'static str {
        "fan"
    }

    fn handles(&self, action: &ActionSpec) -> bool {
        matches!(action, ActionSpec::SetFan { .. })
    }

    fn apply(&mut self, req: &ActionRequest, ctx: &mut ActuationCtx<'_>) -> bool {
        let ActionSpec::SetFan { cfm } = req.action else {
            return false;
        };
        if self.last_cfm[req.server] == Some(cfm) {
            return false;
        }
        self.last_cfm[req.server] = Some(cfm);
        ctx.commands.push(EngineCommand::SetFanCfm {
            server: req.server,
            cfm,
        });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::ServerConfig;

    fn sim(n: usize) -> ClusterSim {
        ClusterSim::homogeneous(n, ServerConfig::default())
    }

    fn ctx<'a>(
        sim: &'a mut ClusterSim,
        commands: &'a mut Vec<EngineCommand>,
        incidents: &'a mut Vec<IncidentRecord>,
    ) -> ActuationCtx<'a> {
        ActuationCtx {
            sim,
            commands,
            incidents,
        }
    }

    #[test]
    fn shed_multiplies_the_weight() {
        let mut sim = sim(2);
        let mut adm = AdmissionActuator::new(2, true);
        let (mut cmds, mut inc) = (Vec::new(), Vec::new());
        let req = ActionRequest::new(
            0,
            ActionSpec::Shed { factor: 0.5 },
            ReasonCode::AboveHigh,
            60,
        );
        assert!(adm.apply(&req, &mut ctx(&mut sim, &mut cmds, &mut inc)));
        assert!((sim.lvs().weight(0) - 0.5).abs() < 1e-12);
        assert!(adm.apply(&req, &mut ctx(&mut sim, &mut cmds, &mut inc)));
        assert!((sim.lvs().weight(0) - 0.25).abs() < 1e-12);
        // Release restores the weight.
        let rel = ActionRequest::new(0, ActionSpec::Release, ReasonCode::BelowLow, 120);
        assert!(adm.apply(&rel, &mut ctx(&mut sim, &mut cmds, &mut inc)));
        assert_eq!(sim.lvs().weight(0), 1.0);
    }

    #[test]
    fn shutdown_records_an_incident() {
        let mut sim = sim(2);
        let mut power = PowerActuator;
        let (mut cmds, mut inc) = (Vec::new(), Vec::new());
        let mut req = ActionRequest::new(1, ActionSpec::Shutdown, ReasonCode::RedLine, 300);
        req.component = Some("cpu".to_string());
        req.temperature_c = Some(69.5);
        req.threshold_c = Some(69.0);
        assert!(power.apply(&req, &mut ctx(&mut sim, &mut cmds, &mut inc)));
        assert!(!sim.server(1).is_powered());
        assert_eq!(inc.len(), 1);
        assert_eq!(inc[0].server, 1);
        assert_eq!(inc[0].component.as_deref(), Some("cpu"));
        assert_eq!(inc[0].reason, "red_line");
        // Power back on clears quiescence.
        let on = ActionRequest::new(1, ActionSpec::PowerOn, ReasonCode::ProjectedLoad, 360);
        assert!(power.apply(&on, &mut ctx(&mut sim, &mut cmds, &mut inc)));
        assert!(sim.server(1).is_powered());
        assert!(!sim.lvs().is_quiesced(1));
    }

    #[test]
    fn frequency_ladder_saturates_at_both_ends() {
        let mut sim = sim(1);
        let mut freq = FrequencyActuator::new(vec![1.0, 0.8, 0.6], 1);
        assert_eq!(freq.scale(0), 1.0);
        assert!(!freq.step_up(&mut sim, 0), "already at the top");
        assert!(freq.step_down(&mut sim, 0));
        assert!(freq.step_down(&mut sim, 0));
        assert_eq!(freq.scale(0), 0.6);
        assert!((sim.server(0).speed_scale() - 0.6).abs() < 1e-12);
        assert!(!freq.step_down(&mut sim, 0), "bottom of the ladder");
        assert_eq!(freq.steps_down(), 2);
        assert!(freq.step_up(&mut sim, 0));
        assert_eq!(freq.scale(0), 0.8);
    }

    #[test]
    fn fan_actuator_dedupes_repeat_commands() {
        let mut sim = sim(2);
        let mut fan = FanActuator::new(2);
        let (mut cmds, mut inc) = (Vec::new(), Vec::new());
        let req = ActionRequest::new(
            0,
            ActionSpec::SetFan { cfm: 90.0 },
            ReasonCode::AboveHigh,
            60,
        );
        assert!(fan.apply(&req, &mut ctx(&mut sim, &mut cmds, &mut inc)));
        assert!(!fan.apply(&req, &mut ctx(&mut sim, &mut cmds, &mut inc)));
        let other = ActionRequest::new(
            0,
            ActionSpec::SetFan { cfm: 60.0 },
            ReasonCode::BelowLow,
            120,
        );
        assert!(fan.apply(&other, &mut ctx(&mut sim, &mut cmds, &mut inc)));
        assert_eq!(
            cmds,
            vec![
                EngineCommand::SetFanCfm {
                    server: 0,
                    cfm: 90.0
                },
                EngineCommand::SetFanCfm {
                    server: 0,
                    cfm: 60.0
                },
            ]
        );
    }
}
