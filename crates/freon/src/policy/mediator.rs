//! The mediation layer between policy decisions and actuators.
//!
//! A [`Mediator`] owns the standard actuator set in dependency order —
//! admission first (cheapest, most reversible), then frequency, then
//! fan, then power (most drastic) — plus any extension actuators pushed
//! by the embedder. `dispatch` routes an
//! [`ActionRequest`] to the first actuator
//! that handles it and, when the actuator reports a real change, books
//! the decision under `mercury_freon_decisions_total{action,reason}`.

use crate::metrics::FreonMetrics;
use crate::policy::actuators::{
    ActionRequest, ActuationCtx, Actuator, AdmissionActuator, EngineCommand, FanActuator,
    FrequencyActuator, IncidentRecord, PowerActuator,
};
use crate::policy::spec::{ActionSpec, ReasonCode};
use cluster_sim::ClusterSim;
use std::borrow::Cow;
use telemetry::Tracer;

/// Dependency-ordered actuator mediation with decision telemetry.
#[derive(Debug)]
pub struct Mediator {
    admission: AdmissionActuator,
    frequency: FrequencyActuator,
    fan: FanActuator,
    power: PowerActuator,
    extra: Vec<Box<dyn Actuator + Send>>,
    commands: Vec<EngineCommand>,
    incidents: Vec<IncidentRecord>,
    metrics: FreonMetrics,
    tracer: Tracer,
}

impl Mediator {
    /// Creates the standard actuator set for an `n`-server cluster.
    pub fn new(
        n: usize,
        frequency_levels: Vec<f64>,
        connection_caps: bool,
        metrics: FreonMetrics,
    ) -> Self {
        Mediator {
            admission: AdmissionActuator::new(n, connection_caps),
            frequency: FrequencyActuator::new(frequency_levels, n),
            fan: FanActuator::new(n),
            power: PowerActuator,
            extra: Vec::new(),
            commands: Vec::new(),
            incidents: Vec::new(),
            metrics,
            tracer: Tracer::default(),
        }
    }

    /// Attaches a tracer; every subsequent dispatch records a
    /// `mediator.dispatch` span whose parent is the request's `cause`
    /// (the triggering `tempd.observe` span).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Appends an extension actuator, consulted after the standard set.
    pub fn push_actuator(&mut self, actuator: Box<dyn Actuator + Send>) {
        self.extra.push(actuator);
    }

    /// Routes a request to the first actuator handling its action.
    /// Returns whether an actuator applied a real change; only then is
    /// the decision counted.
    pub fn dispatch(&mut self, req: &ActionRequest, sim: &mut ClusterSim) -> bool {
        let span = self
            .tracer
            .start_child("mediator.dispatch", "freon", req.cause);
        let mut ctx = ActuationCtx {
            sim,
            commands: &mut self.commands,
            incidents: &mut self.incidents,
        };
        let standard: [&mut dyn Actuator; 4] = [
            &mut self.admission,
            &mut self.frequency,
            &mut self.fan,
            &mut self.power,
        ];
        let mut applied = None;
        for actuator in standard {
            if actuator.handles(&req.action) {
                applied = Some(actuator.apply(req, &mut ctx));
                break;
            }
        }
        if applied.is_none() {
            for actuator in &mut self.extra {
                if actuator.handles(&req.action) {
                    applied = Some(actuator.apply(req, &mut ctx));
                    break;
                }
            }
        }
        let applied = applied.unwrap_or(false);
        if applied {
            self.count(req);
        }
        if span.is_live() {
            self.tracer.end_with_args(
                span,
                vec![
                    (Cow::Borrowed("server"), req.server.to_string()),
                    (Cow::Borrowed("action"), req.action.name().to_string()),
                    (Cow::Borrowed("reason"), req.reason.as_str().to_string()),
                    (Cow::Borrowed("applied"), applied.to_string()),
                ],
            );
        }
        applied
    }

    fn count(&self, req: &ActionRequest) {
        match req.action {
            ActionSpec::Throttle => {
                self.metrics.record_output(req.output.unwrap_or(0.0));
                self.metrics.throttles.inc();
            }
            ActionSpec::Release => self.metrics.releases.inc(),
            ActionSpec::Shutdown => self.metrics.red_line_shutdowns.inc(),
            ActionSpec::PowerOn => match req.reason {
                ReasonCode::Replacement => self.metrics.power_ons_replacement.inc(),
                _ => self.metrics.power_ons_load.inc(),
            },
            ActionSpec::PowerOff => match req.reason {
                ReasonCode::Energy => self.metrics.power_offs_energy.inc(),
                _ => self.metrics.power_offs_heat.inc(),
            },
            ActionSpec::Shed { .. } => self.metrics.sheds.inc(),
            ActionSpec::StepDownFrequency => self.metrics.frequency_steps_down.inc(),
            ActionSpec::StepUpFrequency => self.metrics.frequency_steps_up.inc(),
            ActionSpec::SetFan { .. } => self.metrics.fan_commands.inc(),
        }
    }

    /// Records one LVS statistics sample (admission actuator).
    pub fn sample_connections(&mut self, sim: &ClusterSim) {
        self.admission.sample_connections(sim);
    }

    /// Closes the current admission observation interval.
    pub fn end_interval(&mut self) {
        self.admission.end_interval();
    }

    /// Drains the queued engine commands.
    pub fn take_commands(&mut self) -> Vec<EngineCommand> {
        std::mem::take(&mut self.commands)
    }

    /// The incident log so far.
    pub fn incidents(&self) -> &[IncidentRecord] {
        &self.incidents
    }

    /// The frequency actuator (for policies stepping ladders directly).
    pub fn frequency(&self) -> &FrequencyActuator {
        &self.frequency
    }

    /// The admission actuator.
    pub fn admission(&self) -> &AdmissionActuator {
        &self.admission
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::ServerConfig;

    #[test]
    fn dispatch_routes_counts_and_logs() {
        let mut sim = ClusterSim::homogeneous(2, ServerConfig::default());
        let metrics = FreonMetrics::new();
        let mut mediator = Mediator::new(
            2,
            crate::policy::DEFAULT_LEVELS.to_vec(),
            true,
            metrics.clone(),
        );

        let mut throttle = ActionRequest::new(0, ActionSpec::Throttle, ReasonCode::AboveHigh, 60);
        throttle.output = Some(0.4);
        assert!(mediator.dispatch(&throttle, &mut sim));
        assert_eq!(metrics.throttles.get(), 1);
        assert_eq!(metrics.activations.get(), 1);

        let shutdown = ActionRequest::new(1, ActionSpec::Shutdown, ReasonCode::RedLine, 60);
        assert!(mediator.dispatch(&shutdown, &mut sim));
        assert_eq!(metrics.red_line_shutdowns.get(), 1);
        assert_eq!(mediator.incidents().len(), 1);

        let fan = ActionRequest::new(
            0,
            ActionSpec::SetFan { cfm: 80.0 },
            ReasonCode::AboveHigh,
            60,
        );
        assert!(mediator.dispatch(&fan, &mut sim));
        // Duplicate fan command is deduped and NOT counted.
        assert!(!mediator.dispatch(&fan, &mut sim));
        assert_eq!(metrics.fan_commands.get(), 1);
        assert_eq!(mediator.take_commands().len(), 1);
        assert!(mediator.take_commands().is_empty());
    }

    #[test]
    fn frequency_saturation_is_not_a_decision() {
        let mut sim = ClusterSim::homogeneous(1, ServerConfig::default());
        let metrics = FreonMetrics::new();
        let mut mediator = Mediator::new(1, vec![1.0, 0.5], true, metrics.clone());
        let down = ActionRequest::new(0, ActionSpec::StepDownFrequency, ReasonCode::AboveHigh, 60);
        assert!(mediator.dispatch(&down, &mut sim));
        assert!(!mediator.dispatch(&down, &mut sim), "ladder exhausted");
        assert_eq!(metrics.frequency_steps_down.get(), 1);
        let up = ActionRequest::new(0, ActionSpec::StepUpFrequency, ReasonCode::BelowLow, 120);
        assert!(mediator.dispatch(&up, &mut sim));
        assert!(!mediator.dispatch(&up, &mut sim), "back at the top");
        assert_eq!(metrics.frequency_steps_up.get(), 1);
    }
}
