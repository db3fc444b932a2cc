//! The declarative policy specification.
//!
//! A [`PolicySpec`] is the serializable description of a thermal policy:
//! which components are monitored against which thresholds, how often the
//! daemons wake, the PD-controller gains, and an ordered list of
//! *rules* — `(trigger, action, reason)` triples evaluated first-match
//! per server at every check boundary. The interpreter
//! ([`crate::policy::SpecPolicy`]) executes a spec; the built-in paper
//! policies (Freon, Freon-EC, traditional, none) are themselves specs
//! (see [`PolicySpec::builtin`] and the TOML files under
//! `crates/freon/policies/`), so everything the daemons can do is
//! reachable from a config file.
//!
//! Specs are read and written as TOML (via [`crate::policy::toml`]):
//!
//! ```toml
//! name = "load-shed"
//!
//! [[thresholds]]
//! component = "cpu"
//! high = 67.0
//! low = 64.0
//! red_line = 69.0
//!
//! [[rules]]
//! trigger = "red_line"
//! action = "shutdown"
//!
//! [[rules]]
//! trigger = "above_high"
//! action = "shed"
//! factor = 0.6
//!
//! [[rules]]
//! trigger = "below_low"
//! action = "release"
//! ```

use crate::config::{ComponentThresholds, EcConfig, FreonConfig};
use crate::policy::toml::{self, TomlError};
use serde::{object, opt_field, req_field, DeError, Deserialize, Serialize, Value};

/// Which servers a policy observes at a check boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Gate {
    /// Observe every powered server (Freon's view: a booted server has
    /// sensors worth reading even while quiesced).
    #[default]
    Powered,
    /// Observe only servers currently accepting connections (the
    /// traditional baseline's view).
    Accepting,
}

impl Gate {
    fn as_str(self) -> &'static str {
        match self {
            Gate::Powered => "powered",
            Gate::Accepting => "accepting",
        }
    }

    fn parse(s: &str) -> Result<Self, DeError> {
        match s {
            "powered" => Ok(Gate::Powered),
            "accepting" => Ok(Gate::Accepting),
            other => Err(DeError::msg(format!("unknown gate `{other}`"))),
        }
    }
}

/// PD-controller gains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GainSpec {
    /// Proportional gain (paper: 0.1).
    pub kp: f64,
    /// Derivative gain (paper: 0.2).
    pub kd: f64,
}

impl Default for GainSpec {
    fn default() -> Self {
        GainSpec {
            kp: crate::controller::DEFAULT_KP,
            kd: crate::controller::DEFAULT_KD,
        }
    }
}

/// The condition side of a rule, matched against one server's
/// [`crate::TempdReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Any monitored component is at or above its red line.
    RedLine,
    /// Any monitored component is above its high threshold (`T_h`) — the
    /// PD controllers produce an output.
    AboveHigh,
    /// Every monitored component is below its low threshold (`T_l`).
    BelowLow,
}

impl Trigger {
    /// The TOML spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Trigger::RedLine => "red_line",
            Trigger::AboveHigh => "above_high",
            Trigger::BelowLow => "below_low",
        }
    }

    fn parse(s: &str) -> Result<Self, DeError> {
        match s {
            "red_line" => Ok(Trigger::RedLine),
            "above_high" => Ok(Trigger::AboveHigh),
            "below_low" => Ok(Trigger::BelowLow),
            other => Err(DeError::msg(format!("unknown trigger `{other}`"))),
        }
    }
}

/// The action side of a rule — what the mediator asks an actuator to do.
#[derive(Debug, Clone, PartialEq)]
pub enum ActionSpec {
    /// Rescale the server's LVS weight to `1/(output+1)` of its current
    /// share (plus a connection cap when enabled) — Freon's remote
    /// throttling.
    Throttle,
    /// Lift every admission restriction from the server.
    Release,
    /// Multiply the server's LVS weight by `factor` — thermally-aware
    /// load shedding without a controller.
    Shed {
        /// Weight multiplier per firing, in `(0, 1)`.
        factor: f64,
    },
    /// Quiesce the server and cut power immediately (the red-line last
    /// resort). Emits a structured [`crate::policy::IncidentRecord`].
    Shutdown,
    /// Quiesce the server and let it drain, then power off.
    PowerOff,
    /// Power the server on and return it to rotation.
    PowerOn,
    /// Step the server one level down its DVFS frequency ladder.
    StepDownFrequency,
    /// Step the server one level back up its frequency ladder.
    StepUpFrequency,
    /// Command the machine's fan to a fixed CFM (applied to the thermal
    /// model by the engine, via
    /// [`crate::policy::EngineCommand::SetFanCfm`]).
    SetFan {
        /// Target airflow, cubic feet per minute.
        cfm: f64,
    },
}

impl ActionSpec {
    /// The TOML spelling (parameters travel as sibling keys).
    pub fn name(&self) -> &'static str {
        match self {
            ActionSpec::Throttle => "throttle",
            ActionSpec::Release => "release",
            ActionSpec::Shed { .. } => "shed",
            ActionSpec::Shutdown => "shutdown",
            ActionSpec::PowerOff => "power_off",
            ActionSpec::PowerOn => "power_on",
            ActionSpec::StepDownFrequency => "step_down_frequency",
            ActionSpec::StepUpFrequency => "step_up_frequency",
            ActionSpec::SetFan { .. } => "set_fan",
        }
    }
}

/// Why a decision was made — the `reason` label on
/// `mercury_freon_decisions_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReasonCode {
    /// A component crossed its red line.
    RedLine,
    /// A component is above `T_h`.
    AboveHigh,
    /// Every component cooled below `T_l`.
    BelowLow,
    /// Projected utilization exceeds `U_h` (Freon-EC growth).
    ProjectedLoad,
    /// A cool server replaces a hot one (Freon-EC).
    Replacement,
    /// A hot server is removed because capacity allows it (Freon-EC).
    Heat,
    /// A server is removed to save energy (Freon-EC shrink).
    Energy,
}

impl ReasonCode {
    /// The metric-label spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ReasonCode::RedLine => "red_line",
            ReasonCode::AboveHigh => "above_high",
            ReasonCode::BelowLow => "below_low",
            ReasonCode::ProjectedLoad => "projected_load",
            ReasonCode::Replacement => "replacement",
            ReasonCode::Heat => "heat",
            ReasonCode::Energy => "energy",
        }
    }

    fn parse(s: &str) -> Result<Self, DeError> {
        match s {
            "red_line" => Ok(ReasonCode::RedLine),
            "above_high" => Ok(ReasonCode::AboveHigh),
            "below_low" => Ok(ReasonCode::BelowLow),
            "projected_load" => Ok(ReasonCode::ProjectedLoad),
            "replacement" => Ok(ReasonCode::Replacement),
            "heat" => Ok(ReasonCode::Heat),
            "energy" => Ok(ReasonCode::Energy),
            other => Err(DeError::msg(format!("unknown reason `{other}`"))),
        }
    }

    /// The canonical reason for a trigger, used when a rule omits one.
    pub fn for_trigger(trigger: Trigger) -> Self {
        match trigger {
            Trigger::RedLine => ReasonCode::RedLine,
            Trigger::AboveHigh => ReasonCode::AboveHigh,
            Trigger::BelowLow => ReasonCode::BelowLow,
        }
    }
}

/// One ordered action rule: when `trigger` fires for a server, ask the
/// mediator to perform `action`, tagged with `reason` for telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleSpec {
    /// The firing condition.
    pub trigger: Trigger,
    /// What to do.
    pub action: ActionSpec,
    /// The reason code recorded with the decision.
    pub reason: ReasonCode,
}

/// The Freon-EC extension: utilization-driven growth/shrink of the
/// active server set, with room regions guiding replacements.
#[derive(Debug, Clone, PartialEq)]
pub struct EcSpec {
    /// Region id per server (index-aligned with the cluster).
    pub regions: Vec<usize>,
    /// `U_h`: add a server when projected utilization exceeds this.
    pub u_high: f64,
    /// `U_l`: remove servers while the post-removal average stays below.
    pub u_low: f64,
    /// Projection horizon in observation intervals.
    pub projection_intervals: u32,
}

impl EcSpec {
    /// Converts from the legacy struct.
    pub fn from_config(ec: &EcConfig) -> Self {
        EcSpec {
            regions: ec.regions.clone(),
            u_high: ec.u_high,
            u_low: ec.u_low,
            projection_intervals: ec.projection_intervals,
        }
    }

    /// Converts to the legacy struct.
    pub fn to_config(&self) -> EcConfig {
        EcConfig {
            regions: self.regions.clone(),
            u_high: self.u_high,
            u_low: self.u_low,
            projection_intervals: self.projection_intervals,
        }
    }
}

/// A complete declarative thermal policy.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySpec {
    /// Short policy name for logs, league tables, and metric exposition.
    pub name: String,
    /// Which servers the policy observes.
    pub gate: Gate,
    /// Seconds between temperature checks (paper: 60).
    pub check_period_s: u64,
    /// Seconds between LVS connection samples (paper: 5).
    pub sample_period_s: u64,
    /// Whether throttling also caps concurrent connections.
    pub connection_caps: bool,
    /// PD-controller gains.
    pub gains: GainSpec,
    /// Monitored components and their `T_l`/`T_h`/`T_r` thresholds.
    pub thresholds: Vec<ComponentThresholds>,
    /// Ordered action rules (first match per server wins).
    pub rules: Vec<RuleSpec>,
    /// The Freon-EC extension, when present.
    pub ec: Option<EcSpec>,
    /// Descending DVFS frequency ladder for the frequency actuator.
    pub frequency_levels: Vec<f64>,
}

/// Names of the built-in specs shipped inside the crate.
pub const BUILTIN_NAMES: &[&str] = &["none", "traditional", "freon", "freon-ec", "local-dvfs"];

impl PolicySpec {
    /// The standard thermal rule chain: red-line shutdown first, then
    /// `hot_action` above `T_h`, then release below `T_l`.
    fn standard_rules(hot_action: ActionSpec) -> Vec<RuleSpec> {
        vec![
            RuleSpec {
                trigger: Trigger::RedLine,
                action: ActionSpec::Shutdown,
                reason: ReasonCode::RedLine,
            },
            RuleSpec {
                trigger: Trigger::AboveHigh,
                action: hot_action,
                reason: ReasonCode::AboveHigh,
            },
            RuleSpec {
                trigger: Trigger::BelowLow,
                action: ActionSpec::Release,
                reason: ReasonCode::BelowLow,
            },
        ]
    }

    /// A policy that never acts (the experimental control).
    pub fn none() -> Self {
        PolicySpec {
            name: "none".to_string(),
            gate: Gate::Powered,
            check_period_s: 60,
            sample_period_s: 5,
            connection_caps: true,
            gains: GainSpec::default(),
            thresholds: Vec::new(),
            rules: Vec::new(),
            ec: None,
            frequency_levels: crate::policy::DEFAULT_LEVELS.to_vec(),
        }
    }

    /// The traditional baseline: ignore everything below the red line,
    /// then turn the server off.
    pub fn traditional(config: &FreonConfig) -> Self {
        PolicySpec {
            name: "traditional".to_string(),
            gate: Gate::Accepting,
            rules: vec![RuleSpec {
                trigger: Trigger::RedLine,
                action: ActionSpec::Shutdown,
                reason: ReasonCode::RedLine,
            }],
            ..PolicySpec::from_base_config(config)
        }
    }

    /// The base Freon policy (§4.1): PD-driven remote throttling.
    pub fn freon(config: &FreonConfig) -> Self {
        PolicySpec {
            name: "freon".to_string(),
            rules: Self::standard_rules(ActionSpec::Throttle),
            ..PolicySpec::from_base_config(config)
        }
    }

    /// Freon-EC (§4.2): the base policy plus the energy-conservation
    /// extension.
    pub fn freon_ec(config: &FreonConfig, ec: &EcConfig) -> Self {
        PolicySpec {
            name: "freon-ec".to_string(),
            rules: Self::standard_rules(ActionSpec::Throttle),
            ec: Some(EcSpec::from_config(ec)),
            ..PolicySpec::from_base_config(config)
        }
    }

    /// CPU-local DVFS (§4.3): each server steps its own frequency ladder.
    pub fn local_dvfs(config: &FreonConfig, levels: Vec<f64>) -> Self {
        PolicySpec {
            name: "local-dvfs".to_string(),
            thresholds: config.thresholds_for("cpu").cloned().into_iter().collect(),
            rules: vec![
                RuleSpec {
                    trigger: Trigger::RedLine,
                    action: ActionSpec::Shutdown,
                    reason: ReasonCode::RedLine,
                },
                RuleSpec {
                    trigger: Trigger::AboveHigh,
                    action: ActionSpec::StepDownFrequency,
                    reason: ReasonCode::AboveHigh,
                },
                RuleSpec {
                    trigger: Trigger::BelowLow,
                    action: ActionSpec::StepUpFrequency,
                    reason: ReasonCode::BelowLow,
                },
            ],
            frequency_levels: levels,
            ..PolicySpec::from_base_config(config)
        }
    }

    /// Carries the shared fields (thresholds, periods, gains, caps) over
    /// from a [`FreonConfig`]; name and rules are left for the caller.
    fn from_base_config(config: &FreonConfig) -> Self {
        PolicySpec {
            name: String::new(),
            gate: Gate::Powered,
            check_period_s: config.monitor_period_s,
            sample_period_s: config.sample_period_s,
            connection_caps: config.connection_caps,
            gains: GainSpec {
                kp: config.kp,
                kd: config.kd,
            },
            thresholds: config.thresholds.clone(),
            rules: Vec::new(),
            ec: None,
            frequency_levels: crate::policy::DEFAULT_LEVELS.to_vec(),
        }
    }

    /// The equivalent daemon configuration (thresholds, periods, gains),
    /// usable with [`crate::Tempd`] and the networked deployment.
    pub fn base_config(&self) -> FreonConfig {
        FreonConfig {
            thresholds: self.thresholds.clone(),
            monitor_period_s: self.check_period_s,
            sample_period_s: self.sample_period_s,
            kp: self.gains.kp,
            kd: self.gains.kd,
            connection_caps: self.connection_caps,
        }
    }

    /// Loads one of the built-in specs embedded in the crate (see
    /// [`BUILTIN_NAMES`]).
    pub fn builtin(name: &str) -> Option<Self> {
        let text = match name {
            "none" => include_str!("../../policies/none.toml"),
            "traditional" => include_str!("../../policies/traditional.toml"),
            "freon" => include_str!("../../policies/freon.toml"),
            "freon-ec" => include_str!("../../policies/freon_ec.toml"),
            "local-dvfs" => include_str!("../../policies/local_dvfs.toml"),
            _ => return None,
        };
        Some(Self::from_toml_str(text).expect("builtin specs are valid"))
    }

    /// Parses a spec from TOML text.
    ///
    /// # Errors
    ///
    /// Returns a [`TomlError`] for syntax errors, unknown keys, unknown
    /// trigger/action/reason names, or wrongly-typed fields. The result
    /// is *not* yet validated — call [`PolicySpec::validate`].
    pub fn from_toml_str(text: &str) -> Result<Self, TomlError> {
        toml::from_str(text)
    }

    /// Reads and parses a spec from a TOML file.
    ///
    /// # Errors
    ///
    /// Returns the I/O error or the parse error, both stringified with
    /// the path for context.
    pub fn from_toml_file(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read policy spec {}: {e}", path.display()))?;
        Self::from_toml_str(&text).map_err(|e| format!("in {}: {e}", path.display()))
    }

    /// Renders the spec as TOML.
    pub fn to_toml_string(&self) -> String {
        toml::to_string(self).expect("specs always serialize")
    }

    /// Whether any rule (or the EC extension) needs the admission
    /// actuator — and therefore LVS connection sampling.
    pub fn uses_admission(&self) -> bool {
        self.ec.is_some()
            || self.rules.iter().any(|r| {
                matches!(
                    r.action,
                    ActionSpec::Throttle | ActionSpec::Release | ActionSpec::Shed { .. }
                )
            })
    }

    /// Validates the spec's internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field/component and the
    /// offending values.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.trim().is_empty() {
            return Err("policy spec needs a non-empty `name`".to_string());
        }
        if self.check_period_s == 0 || self.sample_period_s == 0 {
            return Err(format!(
                "policy `{}`: check/sample periods must be positive, got {} / {}",
                self.name, self.check_period_s, self.sample_period_s
            ));
        }
        for t in &self.thresholds {
            t.validate()?;
        }
        for (i, t) in self.thresholds.iter().enumerate() {
            if self.thresholds[..i]
                .iter()
                .any(|o| o.component == t.component)
            {
                return Err(format!(
                    "policy `{}`: component `{}` has duplicate thresholds",
                    self.name, t.component
                ));
            }
        }
        if !self.rules.is_empty() && self.thresholds.is_empty() {
            return Err(format!(
                "policy `{}` has rules but no monitored components",
                self.name
            ));
        }
        for (i, rule) in self.rules.iter().enumerate() {
            if self.rules[..i].iter().any(|o| o.trigger == rule.trigger) {
                return Err(format!(
                    "policy `{}`: duplicate rule for trigger `{}` (the first match wins, later rules are dead)",
                    self.name,
                    rule.trigger.as_str()
                ));
            }
            match rule.action {
                ActionSpec::Shed { factor } if !(factor > 0.0 && factor < 1.0) => {
                    return Err(format!(
                        "policy `{}`: shed factor must be in (0, 1), got {factor}",
                        self.name
                    ));
                }
                ActionSpec::SetFan { cfm } if cfm.is_nan() || cfm <= 0.0 => {
                    return Err(format!(
                        "policy `{}`: fan cfm must be positive, got {cfm}",
                        self.name
                    ));
                }
                ActionSpec::StepDownFrequency | ActionSpec::StepUpFrequency
                    if self.frequency_levels.len() < 2 =>
                {
                    return Err(format!(
                        "policy `{}`: frequency rules need at least two ladder levels",
                        self.name
                    ));
                }
                _ => {}
            }
        }
        if !self.frequency_levels.is_empty() {
            let descending = self.frequency_levels.windows(2).all(|w| w[0] > w[1]);
            let in_range = self.frequency_levels.iter().all(|&l| l > 0.0 && l <= 1.0);
            if !descending || !in_range {
                return Err(format!(
                    "policy `{}`: frequency levels must be strictly descending within (0, 1], got {:?}",
                    self.name, self.frequency_levels
                ));
            }
        }
        if let Some(ec) = &self.ec {
            if ec.regions.is_empty() {
                return Err(format!(
                    "policy `{}`: ec.regions must not be empty",
                    self.name
                ));
            }
            if !(0.0 < ec.u_low && ec.u_low < ec.u_high && ec.u_high <= 1.0) {
                return Err(format!(
                    "policy `{}`: utilization thresholds must satisfy 0 < U_l < U_h <= 1, got {} / {}",
                    self.name, ec.u_low, ec.u_high
                ));
            }
        }
        Ok(())
    }

    /// Validates the spec against a concrete cluster size (the EC region
    /// map must cover exactly the cluster).
    ///
    /// # Errors
    ///
    /// Returns [`PolicySpec::validate`]'s errors plus region-map size
    /// mismatches.
    pub fn validate_for_cluster(&self, servers: usize) -> Result<(), String> {
        self.validate()?;
        if let Some(ec) = &self.ec {
            if ec.regions.len() != servers {
                return Err(format!(
                    "policy `{}`: region map covers {} servers but the cluster has {servers}",
                    self.name,
                    ec.regions.len()
                ));
            }
        }
        Ok(())
    }
}

// --- serde -----------------------------------------------------------------
//
// Hand-written: the TOML surface wants optional fields with paper
// defaults, and every table refuses a key it does not know.

impl Serialize for ComponentThresholds {
    fn to_value(&self) -> Value {
        Value::object([
            ("component", Value::Str(self.component.clone())),
            ("high", Value::Num(self.high)),
            ("low", Value::Num(self.low)),
            ("red_line", Value::Num(self.red_line)),
        ])
    }
}

impl Deserialize for ComponentThresholds {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        const WHAT: &str = "[[thresholds]]";
        let entries = object(v, WHAT, &["component", "high", "low", "red_line"])?;
        Ok(ComponentThresholds {
            component: req_field(entries, "component", WHAT)?,
            high: req_field(entries, "high", WHAT)?,
            low: req_field(entries, "low", WHAT)?,
            red_line: req_field(entries, "red_line", WHAT)?,
        })
    }
}

impl Serialize for GainSpec {
    fn to_value(&self) -> Value {
        Value::object([("kp", Value::Num(self.kp)), ("kd", Value::Num(self.kd))])
    }
}

impl Deserialize for GainSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let entries = object(v, "[gains]", &["kp", "kd"])?;
        let default = GainSpec::default();
        Ok(GainSpec {
            kp: opt_field(entries, "kp")?.unwrap_or(default.kp),
            kd: opt_field(entries, "kd")?.unwrap_or(default.kd),
        })
    }
}

impl Serialize for EcSpec {
    fn to_value(&self) -> Value {
        Value::object([
            ("regions", self.regions.to_value()),
            ("u_high", Value::Num(self.u_high)),
            ("u_low", Value::Num(self.u_low)),
            ("projection_intervals", self.projection_intervals.to_value()),
        ])
    }
}

impl Deserialize for EcSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let entries = object(
            v,
            "[ec]",
            &["regions", "u_high", "u_low", "projection_intervals"],
        )?;
        Ok(EcSpec {
            regions: req_field(entries, "regions", "[ec]")?,
            u_high: opt_field(entries, "u_high")?.unwrap_or(0.70),
            u_low: opt_field(entries, "u_low")?.unwrap_or(0.60),
            projection_intervals: opt_field(entries, "projection_intervals")?.unwrap_or(2),
        })
    }
}

impl Serialize for RuleSpec {
    fn to_value(&self) -> Value {
        let parameter = match self.action {
            ActionSpec::Shed { factor } => Some(("factor", Value::Num(factor))),
            ActionSpec::SetFan { cfm } => Some(("cfm", Value::Num(cfm))),
            _ => None,
        };
        let reason = (self.reason != ReasonCode::for_trigger(self.trigger))
            .then(|| ("reason", Value::Str(self.reason.as_str().to_string())));
        let fields = [
            ("trigger", Value::Str(self.trigger.as_str().to_string())),
            ("action", Value::Str(self.action.name().to_string())),
        ];
        Value::object(fields.into_iter().chain(parameter).chain(reason))
    }
}

impl Deserialize for RuleSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let entries = object(
            v,
            "[[rules]]",
            &["trigger", "action", "reason", "factor", "cfm"],
        )?;
        let trigger = Trigger::parse(&req_field::<String>(entries, "trigger", "[[rules]]")?)?;
        let action_name = req_field::<String>(entries, "action", "[[rules]]")?;
        let factor = opt_field::<f64>(entries, "factor")?;
        let cfm = opt_field::<f64>(entries, "cfm")?;
        let action = match action_name.as_str() {
            "throttle" => ActionSpec::Throttle,
            "release" => ActionSpec::Release,
            "shed" => ActionSpec::Shed {
                factor: factor.ok_or_else(|| DeError::msg("action `shed` needs a `factor`"))?,
            },
            "shutdown" => ActionSpec::Shutdown,
            "power_off" => ActionSpec::PowerOff,
            "power_on" => ActionSpec::PowerOn,
            "step_down_frequency" => ActionSpec::StepDownFrequency,
            "step_up_frequency" => ActionSpec::StepUpFrequency,
            "set_fan" => ActionSpec::SetFan {
                cfm: cfm.ok_or_else(|| DeError::msg("action `set_fan` needs a `cfm`"))?,
            },
            other => {
                return Err(DeError::msg(format!(
                    "unknown action `{other}` (expected one of throttle, release, shed, \
                     shutdown, power_off, power_on, step_down_frequency, \
                     step_up_frequency, set_fan)"
                )))
            }
        };
        if factor.is_some() && !matches!(action, ActionSpec::Shed { .. }) {
            return Err(DeError::msg(format!(
                "`factor` is only valid with action `shed`, not `{action_name}`"
            )));
        }
        if cfm.is_some() && !matches!(action, ActionSpec::SetFan { .. }) {
            return Err(DeError::msg(format!(
                "`cfm` is only valid with action `set_fan`, not `{action_name}`"
            )));
        }
        let reason = match opt_field::<String>(entries, "reason")? {
            Some(s) => ReasonCode::parse(&s)?,
            None => ReasonCode::for_trigger(trigger),
        };
        Ok(RuleSpec {
            trigger,
            action,
            reason,
        })
    }
}

impl Serialize for PolicySpec {
    fn to_value(&self) -> Value {
        let fields = [
            ("name", Value::Str(self.name.clone())),
            ("gate", Value::Str(self.gate.as_str().to_string())),
            ("check_period_s", self.check_period_s.to_value()),
            ("sample_period_s", self.sample_period_s.to_value()),
            ("connection_caps", Value::Bool(self.connection_caps)),
            ("frequency_levels", self.frequency_levels.to_value()),
            ("gains", self.gains.to_value()),
            ("thresholds", self.thresholds.to_value()),
            ("rules", self.rules.to_value()),
        ];
        let ec = self.ec.as_ref().map(|ec| ("ec", ec.to_value()));
        Value::object(fields.into_iter().chain(ec))
    }
}

impl Deserialize for PolicySpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let entries = object(
            v,
            "policy spec",
            &[
                "name",
                "gate",
                "check_period_s",
                "sample_period_s",
                "connection_caps",
                "frequency_levels",
                "gains",
                "thresholds",
                "rules",
                "ec",
            ],
        )?;
        let gate = match opt_field::<String>(entries, "gate")? {
            Some(s) => Gate::parse(&s)?,
            None => Gate::Powered,
        };
        Ok(PolicySpec {
            name: req_field(entries, "name", "policy spec")?,
            gate,
            check_period_s: opt_field(entries, "check_period_s")?.unwrap_or(60),
            sample_period_s: opt_field(entries, "sample_period_s")?.unwrap_or(5),
            connection_caps: opt_field(entries, "connection_caps")?.unwrap_or(true),
            gains: opt_field(entries, "gains")?.unwrap_or_default(),
            thresholds: opt_field(entries, "thresholds")?.unwrap_or_default(),
            rules: opt_field(entries, "rules")?.unwrap_or_default(),
            ec: opt_field(entries, "ec")?,
            frequency_levels: opt_field(entries, "frequency_levels")?
                .unwrap_or_else(|| crate::policy::DEFAULT_LEVELS.to_vec()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_specs_match_the_programmatic_constructors() {
        let cfg = FreonConfig::paper();
        assert_eq!(PolicySpec::builtin("none").unwrap(), PolicySpec::none());
        assert_eq!(
            PolicySpec::builtin("traditional").unwrap(),
            PolicySpec::traditional(&cfg)
        );
        assert_eq!(
            PolicySpec::builtin("freon").unwrap(),
            PolicySpec::freon(&cfg)
        );
        assert_eq!(
            PolicySpec::builtin("freon-ec").unwrap(),
            PolicySpec::freon_ec(&cfg, &EcConfig::paper_four_servers())
        );
        assert_eq!(
            PolicySpec::builtin("local-dvfs").unwrap(),
            PolicySpec::local_dvfs(&cfg, crate::policy::DEFAULT_LEVELS.to_vec())
        );
        assert!(PolicySpec::builtin("made-up").is_none());
        for name in BUILTIN_NAMES {
            let spec = PolicySpec::builtin(name).unwrap();
            assert_eq!(&spec.name, name);
            spec.validate().unwrap();
        }
    }

    #[test]
    fn specs_round_trip_through_toml() {
        for name in BUILTIN_NAMES {
            let spec = PolicySpec::builtin(name).unwrap();
            let text = spec.to_toml_string();
            let back = PolicySpec::from_toml_str(&text).unwrap();
            assert_eq!(back, spec, "round trip failed for `{name}`:\n{text}");
        }
    }

    #[test]
    fn defaults_fill_missing_fields() {
        let spec = PolicySpec::from_toml_str("name = \"bare\"\n").unwrap();
        assert_eq!(spec.gate, Gate::Powered);
        assert_eq!(spec.check_period_s, 60);
        assert_eq!(spec.sample_period_s, 5);
        assert!(spec.connection_caps);
        assert_eq!(spec.gains, GainSpec::default());
        assert!(spec.rules.is_empty());
        assert!(spec.ec.is_none());
        spec.validate().unwrap();
    }

    #[test]
    fn unknown_keys_and_names_are_rejected() {
        assert!(PolicySpec::from_toml_str("name = \"x\"\ntypo_key = 1\n").is_err());
        let bad_action = "name = \"x\"\n[[thresholds]]\ncomponent = \"cpu\"\nhigh = 67.0\nlow = 64.0\nred_line = 69.0\n[[rules]]\ntrigger = \"above_high\"\naction = \"explode\"\n";
        let err = PolicySpec::from_toml_str(bad_action).unwrap_err();
        assert!(
            err.to_string().contains("unknown action `explode`"),
            "{err}"
        );
        let bad_trigger = "name = \"x\"\n[[rules]]\ntrigger = \"too_warm\"\naction = \"release\"\n";
        assert!(PolicySpec::from_toml_str(bad_trigger).is_err());
    }

    #[test]
    fn validation_names_the_offender() {
        let mut spec = PolicySpec::freon(&FreonConfig::paper());
        spec.thresholds[0].low = 70.0; // inverted: low > high
        let err = spec.validate().unwrap_err();
        assert!(err.contains("cpu"), "{err}");
        assert!(err.contains("70"), "{err}");

        let mut spec = PolicySpec::freon(&FreonConfig::paper());
        spec.check_period_s = 0;
        assert!(spec.validate().unwrap_err().contains("periods"));

        let mut spec = PolicySpec::freon(&FreonConfig::paper());
        spec.thresholds.clear();
        assert!(spec
            .validate()
            .unwrap_err()
            .contains("no monitored components"));

        let mut spec = PolicySpec::freon_ec(&FreonConfig::paper(), &EcConfig::paper_four_servers());
        spec.ec.as_mut().unwrap().u_low = 0.9;
        assert!(spec.validate().unwrap_err().contains("0.9"));
        let spec = PolicySpec::freon_ec(&FreonConfig::paper(), &EcConfig::paper_four_servers());
        assert!(spec.validate_for_cluster(4).is_ok());
        assert!(spec.validate_for_cluster(3).is_err());
    }

    #[test]
    fn rule_parameters_are_checked() {
        let shed = |factor: f64| PolicySpec {
            rules: vec![RuleSpec {
                trigger: Trigger::AboveHigh,
                action: ActionSpec::Shed { factor },
                reason: ReasonCode::AboveHigh,
            }],
            ..PolicySpec::freon(&FreonConfig::paper())
        };
        assert!(shed(0.5).validate().is_ok());
        assert!(shed(0.0).validate().is_err());
        assert!(shed(1.5).validate().is_err());

        // Duplicate triggers are dead rules under first-match-wins.
        let mut spec = PolicySpec::freon(&FreonConfig::paper());
        spec.rules.push(spec.rules[1].clone());
        assert!(spec.validate().unwrap_err().contains("duplicate rule"));

        // factor/cfm on the wrong action.
        let text = "name = \"x\"\n[[thresholds]]\ncomponent = \"cpu\"\nhigh = 67.0\nlow = 64.0\nred_line = 69.0\n[[rules]]\ntrigger = \"above_high\"\naction = \"throttle\"\nfactor = 0.5\n";
        assert!(PolicySpec::from_toml_str(text).is_err());
    }

    #[test]
    fn base_config_round_trips() {
        let cfg = FreonConfig {
            connection_caps: false,
            kd: 0.0,
            ..FreonConfig::paper()
        };
        assert_eq!(PolicySpec::freon(&cfg).base_config(), cfg);
    }
}
