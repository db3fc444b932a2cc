//! `fiddle` — the thermal-emergency tool (§2.3, Figure 4).
//!
//! Fiddle forces the solver to change any constant or temperature on-line:
//! set a machine's inlet air to 30 °C to simulate a failed air
//! conditioner, drop the fan speed to emulate a dying fan, rewrite a power
//! range to emulate voltage/frequency scaling, and so on.
//!
//! Commands can be built programmatically ([`FiddleCommand`]) and applied
//! to a running [`Solver`]/[`ClusterSolver`], or parsed from the paper's
//! shell-script-like format:
//!
//! ```text
//! #!/bin/bash
//! sleep 100
//! fiddle machine1 temperature inlet 30
//! sleep 200
//! fiddle machine1 temperature inlet 21.6
//! ```
//!
//! [`FiddleScript::parse`] turns that text into timestamped commands and
//! [`ScriptRunner`] replays them against a solver as emulated time
//! advances. A script holds its events once: every runner is a cursor
//! over that one schedule, and [`ScriptRunner::due`] lends the commands
//! that fire rather than copying them.

use crate::error::Error;
use crate::model::PowerModel;
use crate::solver::{ClusterSolver, Solver};
use crate::units::{Celsius, Seconds};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A single fiddle command, addressed to one machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FiddleCommand {
    /// Pin a node's temperature (persistently, until [`FiddleCommand::Release`]).
    /// On a machine inlet this emulates a cooling failure or a blocked
    /// duct; the paper's Figure 4 script is two of these.
    Temperature {
        /// Target machine.
        machine: String,
        /// Target node.
        node: String,
        /// Imposed temperature, °C.
        celsius: f64,
    },
    /// Release a pinned node so it evolves freely again.
    Release {
        /// Target machine.
        machine: String,
        /// Target node.
        node: String,
    },
    /// Change the machine's fan speed (multi-speed fans).
    FanSpeed {
        /// Target machine.
        machine: String,
        /// New volumetric flow, ft³/min.
        cfm: f64,
    },
    /// Replace a component's linear power range (emulating DVFS or clock
    /// throttling).
    Power {
        /// Target machine.
        machine: String,
        /// Target component.
        component: String,
        /// New idle power, W.
        base_w: f64,
        /// New peak power, W.
        max_w: f64,
    },
    /// Change a heat edge's transfer coefficient.
    HeatK {
        /// Target machine.
        machine: String,
        /// One endpoint of the heat edge.
        a: String,
        /// The other endpoint.
        b: String,
        /// New coefficient, W/K.
        k: f64,
    },
    /// Change an air edge's fraction (e.g. a partially blocked duct).
    AirFraction {
        /// Target machine.
        machine: String,
        /// Upstream air region.
        from: String,
        /// Downstream air region.
        to: String,
        /// New fraction in `(0, 1]`.
        fraction: f64,
    },
}

impl FiddleCommand {
    /// The machine this command addresses.
    pub fn machine(&self) -> &str {
        match self {
            FiddleCommand::Temperature { machine, .. }
            | FiddleCommand::Release { machine, .. }
            | FiddleCommand::FanSpeed { machine, .. }
            | FiddleCommand::Power { machine, .. }
            | FiddleCommand::HeatK { machine, .. }
            | FiddleCommand::AirFraction { machine, .. } => machine,
        }
    }

    /// Applies this command to a single-machine solver.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownMachine`] when the command addresses a
    /// different machine, plus whatever the underlying solver operation
    /// returns.
    pub fn apply(&self, solver: &mut Solver) -> Result<(), Error> {
        if solver.machine_name() != self.machine() {
            return Err(Error::UnknownMachine {
                name: self.machine().to_string(),
            });
        }
        match self {
            FiddleCommand::Temperature { node, celsius, .. } => {
                solver.force_temperature(node, Celsius(*celsius))
            }
            FiddleCommand::Release { node, .. } => solver.release_temperature(node),
            FiddleCommand::FanSpeed { cfm, .. } => solver.set_fan_cfm(*cfm),
            FiddleCommand::Power {
                component,
                base_w,
                max_w,
                ..
            } => solver.set_power_model(component, PowerModel::linear(*base_w, *max_w)),
            FiddleCommand::HeatK { a, b, k, .. } => solver.set_heat_k(a, b, *k),
            FiddleCommand::AirFraction {
                from, to, fraction, ..
            } => solver.set_air_fraction(from, to, *fraction),
        }
    }

    /// Applies this command to the right machine of a cluster solver.
    ///
    /// Pinning a machine's *inlet* routes through
    /// [`ClusterSolver::force_inlet`] so the inter-machine graph stops
    /// feeding it; anything else is forwarded to the machine solver.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownMachine`] for machines not in the cluster,
    /// plus whatever the underlying solver operation returns.
    pub fn apply_to_cluster(&self, cluster: &mut ClusterSolver) -> Result<(), Error> {
        match self {
            FiddleCommand::Temperature {
                machine,
                node,
                celsius,
            } => {
                let is_inlet = {
                    let m = cluster.machine(machine)?;
                    m.is_inlet(node)
                };
                if is_inlet {
                    cluster.force_inlet(machine, Celsius(*celsius))
                } else {
                    cluster
                        .machine_mut(machine)?
                        .force_temperature(node, Celsius(*celsius))
                }
            }
            FiddleCommand::Release { machine, node } => {
                let is_inlet = {
                    let m = cluster.machine(machine)?;
                    m.is_inlet(node)
                };
                if is_inlet {
                    cluster.release_inlet(machine)?;
                }
                cluster.machine_mut(machine)?.release_temperature(node)
            }
            other => other.apply(cluster.machine_mut(other.machine())?),
        }
    }
}

impl fmt::Display for FiddleCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FiddleCommand::Temperature {
                machine,
                node,
                celsius,
            } => {
                write!(f, "fiddle {machine} temperature {node} {celsius}")
            }
            FiddleCommand::Release { machine, node } => {
                write!(f, "fiddle {machine} release {node}")
            }
            FiddleCommand::FanSpeed { machine, cfm } => {
                write!(f, "fiddle {machine} fanspeed {cfm}")
            }
            FiddleCommand::Power {
                machine,
                component,
                base_w,
                max_w,
            } => {
                write!(f, "fiddle {machine} power {component} {base_w} {max_w}")
            }
            FiddleCommand::HeatK { machine, a, b, k } => {
                write!(f, "fiddle {machine} k {a} {b} {k}")
            }
            FiddleCommand::AirFraction {
                machine,
                from,
                to,
                fraction,
            } => {
                write!(f, "fiddle {machine} fraction {from} {to} {fraction}")
            }
        }
    }
}

/// A timestamped fiddle command inside a script.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FiddleEvent {
    /// Emulated time at which the command fires, seconds from script start.
    pub at: Seconds,
    /// The command.
    pub command: FiddleCommand,
}

/// A parsed fiddle script: a time-ordered list of commands.
///
/// The events live once, shared with every [`ScriptRunner`] handed out;
/// [`FiddleScript::at`] copies them first if a runner still holds them.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FiddleScript {
    events: Arc<Vec<FiddleEvent>>,
}

impl FiddleScript {
    /// Creates an empty script.
    pub fn new() -> Self {
        FiddleScript::default()
    }

    /// Adds a command firing `at` seconds into the run. Events may be
    /// added out of order; they are kept sorted by time.
    pub fn at(&mut self, seconds: f64, command: FiddleCommand) -> &mut Self {
        let events = Arc::make_mut(&mut self.events);
        events.push(FiddleEvent {
            at: Seconds(seconds),
            command,
        });
        events.sort_by(|a, b| {
            a.at.0
                .partial_cmp(&b.at.0)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        self
    }

    /// The timestamped events, sorted by firing time.
    pub fn events(&self) -> &[FiddleEvent] {
        &self.events
    }

    /// Parses the paper's script format (Figure 4).
    ///
    /// Supported statements, one per line:
    ///
    /// - `sleep <seconds>` — advance the script clock,
    /// - `fiddle <machine> temperature <node> <°C>`,
    /// - `fiddle <machine> release <node>`,
    /// - `fiddle <machine> fanspeed <cfm>`,
    /// - `fiddle <machine> power <component> <base W> <max W>`,
    /// - `fiddle <machine> k <a> <b> <W/K>`,
    /// - `fiddle <machine> fraction <from> <to> <fraction>`,
    /// - blank lines and `#` comments (including the `#!/bin/bash`
    ///   shebang) are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`Error::FiddleParse`] with the 1-based line number of the
    /// first malformed statement. A number that is not finite (`nan`,
    /// `inf`) is malformed, and so is a `sleep` that carries the script
    /// clock past the largest finite time.
    pub fn parse(text: &str) -> Result<Self, Error> {
        let mut events = Vec::new();
        let mut clock = 0.0_f64;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let lineno = lineno + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let err = |reason: String| Error::FiddleParse {
                line: lineno,
                reason,
            };
            match tokens[0] {
                "sleep" => {
                    if tokens.len() != 2 {
                        return Err(err("usage: sleep <seconds>".to_string()));
                    }
                    let secs = parse_f64(tokens[1]).map_err(&err)?;
                    if secs < 0.0 {
                        return Err(err(format!("cannot sleep a negative duration ({secs})")));
                    }
                    clock += secs;
                    if !clock.is_finite() {
                        return Err(err("the script clock overflows".to_string()));
                    }
                }
                "fiddle" => {
                    if tokens.len() < 3 {
                        return Err(err("usage: fiddle <machine> <verb> ...".to_string()));
                    }
                    let machine = tokens[1].to_string();
                    let command = match tokens[2] {
                        "temperature" => {
                            let [node, val] =
                                expect_args(&tokens[3..], lineno, "temperature <node> <celsius>")?;
                            FiddleCommand::Temperature {
                                machine,
                                node: node.to_string(),
                                celsius: parse_f64(val).map_err(&err)?,
                            }
                        }
                        "release" => {
                            let [node] = expect_args(&tokens[3..], lineno, "release <node>")?;
                            FiddleCommand::Release {
                                machine,
                                node: node.to_string(),
                            }
                        }
                        "fanspeed" => {
                            let [val] = expect_args(&tokens[3..], lineno, "fanspeed <cfm>")?;
                            FiddleCommand::FanSpeed {
                                machine,
                                cfm: parse_f64(val).map_err(&err)?,
                            }
                        }
                        "power" => {
                            let [comp, base, max] = expect_args(
                                &tokens[3..],
                                lineno,
                                "power <component> <base> <max>",
                            )?;
                            FiddleCommand::Power {
                                machine,
                                component: comp.to_string(),
                                base_w: parse_f64(base).map_err(&err)?,
                                max_w: parse_f64(max).map_err(&err)?,
                            }
                        }
                        "k" => {
                            let [a, b, k] = expect_args(&tokens[3..], lineno, "k <a> <b> <value>")?;
                            FiddleCommand::HeatK {
                                machine,
                                a: a.to_string(),
                                b: b.to_string(),
                                k: parse_f64(k).map_err(&err)?,
                            }
                        }
                        "fraction" => {
                            let [from, to, frac] =
                                expect_args(&tokens[3..], lineno, "fraction <from> <to> <value>")?;
                            FiddleCommand::AirFraction {
                                machine,
                                from: from.to_string(),
                                to: to.to_string(),
                                fraction: parse_f64(frac).map_err(&err)?,
                            }
                        }
                        verb => return Err(err(format!("unknown fiddle verb `{verb}`"))),
                    };
                    events.push(FiddleEvent {
                        at: Seconds(clock),
                        command,
                    });
                }
                word => return Err(err(format!("unknown statement `{word}`"))),
            }
        }
        events.shrink_to_fit();
        Ok(FiddleScript {
            events: Arc::new(events),
        })
    }

    /// Creates a runner that replays this script against a solver. The
    /// runner shares the script's events; it copies nothing.
    pub fn runner(&self) -> ScriptRunner {
        ScriptRunner {
            events: Arc::clone(&self.events),
            next: 0,
        }
    }
}

fn parse_f64(s: &str) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        Ok(_) => Err(format!("`{s}` is not a finite number")),
        Err(_) => Err(format!("`{s}` is not a number")),
    }
}

fn expect_args<'a, const N: usize>(
    args: &[&'a str],
    line: usize,
    usage: &str,
) -> Result<[&'a str; N], Error> {
    if args.len() != N {
        return Err(Error::FiddleParse {
            line,
            reason: format!("usage: fiddle <machine> {usage}"),
        });
    }
    let mut out = [""; N];
    out.copy_from_slice(args);
    Ok(out)
}

/// Replays a [`FiddleScript`] against a solver as emulated time advances.
///
/// A cursor over the script's shared events. Call [`ScriptRunner::due`]
/// once per tick with the current emulated time; it yields every command
/// whose firing time has been reached.
#[derive(Debug, Clone)]
pub struct ScriptRunner {
    events: Arc<Vec<FiddleEvent>>,
    next: usize,
}

impl ScriptRunner {
    /// Commands that fire at or before `now`, in order, lent from the
    /// script. Each command is yielded exactly once across calls.
    ///
    /// The cursor moves past them before this returns, so a result that
    /// is dropped unread still skips them: `let _ = runner.due(cut)`
    /// passes over the commands a restored checkpoint already holds.
    pub fn due(&mut self, now: Seconds) -> impl ExactSizeIterator<Item = &FiddleCommand> + '_ {
        let start = self.next;
        self.next += self.events[start..]
            .iter()
            .take_while(|e| e.at.0 <= now.0)
            .count();
        self.events[start..self.next].iter().map(|e| &e.command)
    }

    /// When the next command that has not fired yet falls due, or `None`
    /// once every event has fired.
    pub fn next_due(&self) -> Option<Seconds> {
        self.events.get(self.next).map(|e| e.at)
    }

    /// Whether every event has fired.
    pub fn is_finished(&self) -> bool {
        self.next >= self.events.len()
    }

    /// Applies all due commands to a cluster solver, stopping at the first
    /// error.
    ///
    /// # Errors
    ///
    /// Propagates the first failing command's error; remaining due
    /// commands are *not* retried.
    pub fn apply_due_to_cluster(
        &mut self,
        now: Seconds,
        cluster: &mut ClusterSolver,
    ) -> Result<(), Error> {
        for cmd in self.due(now) {
            cmd.apply_to_cluster(cluster)?;
        }
        Ok(())
    }

    /// Applies all due commands to a single-machine solver, stopping at the
    /// first error.
    ///
    /// # Errors
    ///
    /// Propagates the first failing command's error.
    pub fn apply_due_to_solver(&mut self, now: Seconds, solver: &mut Solver) -> Result<(), Error> {
        for cmd in self.due(now) {
            cmd.apply(solver)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::solver::SolverConfig;

    const FIGURE_4: &str = "#!/bin/bash\n\
                            sleep 100\n\
                            fiddle machine1 temperature inlet 30\n\
                            sleep 200\n\
                            fiddle machine1 temperature inlet 21.6\n";

    #[test]
    fn parses_the_figure_4_script() {
        let script = FiddleScript::parse(FIGURE_4).unwrap();
        assert_eq!(script.events().len(), 2);
        assert_eq!(script.events()[0].at, Seconds(100.0));
        assert_eq!(
            script.events()[0].command,
            FiddleCommand::Temperature {
                machine: "machine1".into(),
                node: "inlet".into(),
                celsius: 30.0
            }
        );
        assert_eq!(script.events()[1].at, Seconds(300.0));
    }

    #[test]
    fn parses_every_verb() {
        let text = "fiddle m1 temperature cpu 55\n\
                    fiddle m1 release cpu\n\
                    fiddle m1 fanspeed 19.3\n\
                    fiddle m1 power cpu 7 31\n\
                    fiddle m1 k cpu cpu_air 0.9\n\
                    fiddle m1 fraction inlet disk_air 0.3\n";
        let script = FiddleScript::parse(text).unwrap();
        assert_eq!(script.events().len(), 6);
        // All fire at t=0 since there is no sleep.
        assert!(script.events().iter().all(|e| e.at == Seconds(0.0)));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = FiddleScript::parse("sleep 10\nfiddle m1 blowup 3\n").unwrap_err();
        match err {
            Error::FiddleParse { line, reason } => {
                assert_eq!(line, 2);
                assert!(reason.contains("blowup"));
            }
            other => panic!("unexpected error {other}"),
        }
        assert!(FiddleScript::parse("sleep -5").is_err());
        assert!(FiddleScript::parse("sleep ten").is_err());
        assert!(FiddleScript::parse("jump 10").is_err());
        assert!(FiddleScript::parse("fiddle m1 temperature inlet").is_err());
        assert!(FiddleScript::parse("fiddle m1 temperature inlet warm").is_err());
        assert!(FiddleScript::parse("fiddle m1").is_err());
    }

    #[test]
    fn command_display_round_trips_through_parse() {
        let commands = vec![
            FiddleCommand::Temperature {
                machine: "m1".into(),
                node: "inlet".into(),
                celsius: 30.0,
            },
            FiddleCommand::Release {
                machine: "m1".into(),
                node: "inlet".into(),
            },
            FiddleCommand::FanSpeed {
                machine: "m1".into(),
                cfm: 19.3,
            },
            FiddleCommand::Power {
                machine: "m1".into(),
                component: "cpu".into(),
                base_w: 7.0,
                max_w: 31.0,
            },
            FiddleCommand::HeatK {
                machine: "m1".into(),
                a: "cpu".into(),
                b: "cpu_air".into(),
                k: 0.9,
            },
            FiddleCommand::AirFraction {
                machine: "m1".into(),
                from: "inlet".into(),
                to: "disk_air".into(),
                fraction: 0.3,
            },
        ];
        for cmd in commands {
            let text = cmd.to_string();
            let script = FiddleScript::parse(&text).unwrap();
            assert_eq!(
                script.events()[0].command,
                cmd,
                "round trip failed for `{text}`"
            );
        }
    }

    #[test]
    fn runner_fires_events_once_and_in_order() {
        let script = FiddleScript::parse(FIGURE_4).unwrap();
        let mut runner = script.runner();
        assert!(runner.due(Seconds(50.0)).len() == 0);
        assert_eq!(runner.due(Seconds(100.0)).len(), 1);
        assert!(
            runner.due(Seconds(100.0)).len() == 0,
            "events must fire once"
        );
        assert!(!runner.is_finished());
        assert_eq!(runner.due(Seconds(1000.0)).len(), 1);
        assert!(runner.is_finished());
    }

    fn fan(machine: &str, cfm: f64) -> FiddleCommand {
        FiddleCommand::FanSpeed {
            machine: machine.into(),
            cfm,
        }
    }

    /// Five commands over three times, drained in calls that fall
    /// between, on and past them.
    const STAGGERED: &str = "fiddle a fanspeed 1\n\
                             fiddle b fanspeed 2\n\
                             sleep 10\n\
                             fiddle a fanspeed 3\n\
                             sleep 5\n\
                             fiddle b fanspeed 4\n\
                             fiddle c fanspeed 5\n";

    #[test]
    fn due_yields_each_command_once_in_order() {
        let script = FiddleScript::parse(STAGGERED).unwrap();
        let mut runner = script.runner();
        let mut fired = Vec::new();
        for now in [0.0, 0.0, 9.9, 10.0, 12.0, 15.0, 15.0, 99.0] {
            let (due, before) = (runner.due(Seconds(now)), fired.len());
            let len = due.len();
            fired.extend(due.cloned());
            assert_eq!(fired.len() - before, len, "exact size at {now}");
        }
        let expected: Vec<FiddleCommand> =
            script.events().iter().map(|e| e.command.clone()).collect();
        assert_eq!(fired, expected);
        assert!(runner.is_finished());
        assert_eq!(runner.next_due(), None);
    }

    #[test]
    fn a_discarded_due_still_advances_the_cursor() {
        let script = FiddleScript::parse(STAGGERED).unwrap();
        let mut runner = script.runner();
        let _ = runner.due(Seconds(10.0));
        assert_eq!(runner.next_due(), Some(Seconds(15.0)));
        let rest: Vec<&FiddleCommand> = runner.due(Seconds(15.0)).collect();
        assert_eq!(rest, [&fan("b", 4.0), &fan("c", 5.0)]);
    }

    #[test]
    fn runners_of_one_script_advance_independently() {
        let script = FiddleScript::parse(STAGGERED).unwrap();
        let (mut first, mut second) = (script.runner(), script.runner());
        assert_eq!(first.due(Seconds(15.0)).len(), 5);
        assert!(first.is_finished());
        assert_eq!(second.next_due(), Some(Seconds(0.0)));
        assert_eq!(second.due(Seconds(0.0)).len(), 2);
        assert_eq!(script.runner().due(Seconds(15.0)).len(), 5);
    }

    #[test]
    fn a_runner_taken_before_at_keeps_its_schedule() {
        let mut script = FiddleScript::parse(STAGGERED).unwrap();
        let mut before = script.runner();
        script.at(12.0, fan("d", 6.0));
        assert_eq!(script.events().len(), 6);
        let old: Vec<&FiddleCommand> = before.due(Seconds(12.0)).collect();
        assert_eq!(old, [&fan("a", 1.0), &fan("b", 2.0), &fan("a", 3.0)]);
        assert_eq!(before.due(Seconds(99.0)).len(), 2);
        let mut after = script.runner();
        let new: Vec<&FiddleCommand> = after.due(Seconds(12.0)).collect();
        assert_eq!(new.last(), Some(&&fan("d", 6.0)));
    }

    #[test]
    fn parse_rejects_non_finite_numbers() {
        for (text, line) in [
            ("sleep nan", 1),
            ("sleep inf", 1),
            ("fiddle m1 fanspeed 1\nsleep infinity", 2),
            ("sleep 1e308\nsleep 1e308", 2),
            ("fiddle m1 temperature inlet nan", 1),
            ("fiddle m1 temperature inlet -inf", 1),
            ("fiddle m1 fanspeed NaN", 1),
            ("fiddle m1 power cpu 7 inf", 1),
            ("fiddle m1 k cpu cpu_air nan", 1),
            ("fiddle m1 fraction inlet disk_air NaN", 1),
        ] {
            match FiddleScript::parse(text) {
                Err(Error::FiddleParse { line: at, .. }) => assert_eq!(at, line, "`{text}`"),
                other => panic!("`{text}` gave {other:?}"),
            }
        }
    }

    #[test]
    fn figure_4_script_drives_a_real_solver() {
        let model = presets::validation_machine_named("machine1");
        let mut solver = Solver::new(&model, SolverConfig::default()).unwrap();
        let script = FiddleScript::parse(FIGURE_4).unwrap();
        let mut runner = script.runner();
        let mut inlet_at_150 = None;
        let mut inlet_at_400 = None;
        for t in 0..500 {
            runner
                .apply_due_to_solver(Seconds(t as f64), &mut solver)
                .unwrap();
            solver.step();
            if t == 150 {
                inlet_at_150 = Some(solver.temperature("inlet").unwrap());
            }
            if t == 400 {
                inlet_at_400 = Some(solver.temperature("inlet").unwrap());
            }
        }
        assert_eq!(inlet_at_150.unwrap(), Celsius(30.0));
        assert_eq!(inlet_at_400.unwrap(), Celsius(21.6));
    }

    #[test]
    fn apply_rejects_wrong_machine() {
        let model = presets::validation_machine_named("machine1");
        let mut solver = Solver::new(&model, SolverConfig::default()).unwrap();
        let cmd = FiddleCommand::FanSpeed {
            machine: "other".into(),
            cfm: 10.0,
        };
        assert!(matches!(
            cmd.apply(&mut solver),
            Err(Error::UnknownMachine { .. })
        ));
    }

    #[test]
    fn cluster_inlet_force_and_release() {
        let cluster = presets::validation_cluster(2);
        let mut cs = crate::solver::ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
        let force = FiddleCommand::Temperature {
            machine: "machine1".into(),
            node: "inlet".into(),
            celsius: 38.6,
        };
        force.apply_to_cluster(&mut cs).unwrap();
        cs.step_for(3);
        assert_eq!(
            cs.machine("machine1").unwrap().inlet_temperature(),
            Celsius(38.6)
        );
        let release = FiddleCommand::Release {
            machine: "machine1".into(),
            node: "inlet".into(),
        };
        release.apply_to_cluster(&mut cs).unwrap();
        cs.step_for(3);
        let t = cs.machine("machine1").unwrap().inlet_temperature();
        assert!((t.0 - 21.6).abs() < 0.5, "inlet stuck at {t}");
    }

    #[test]
    fn builder_api_keeps_events_sorted() {
        let mut script = FiddleScript::new();
        script.at(
            200.0,
            FiddleCommand::FanSpeed {
                machine: "m".into(),
                cfm: 10.0,
            },
        );
        script.at(
            100.0,
            FiddleCommand::FanSpeed {
                machine: "m".into(),
                cfm: 20.0,
            },
        );
        assert_eq!(script.events()[0].at, Seconds(100.0));
        assert_eq!(script.events()[1].at, Seconds(200.0));
    }
}
