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
//! advances. A script holds each distinct name once, in one table, and
//! its events as fixed-size records that index it. Every runner is a
//! cursor over that one schedule, and [`ScriptRunner::due`] lends a
//! [`CommandRef`] view of each command that fires rather than copying it.
//!
//! One generic [`Command`] is all three forms: [`FiddleCommand`] owns
//! its names, [`CommandRef`] borrows them, and a script's records hold
//! name indices. A command line has one grammar, shared by the script
//! parser and [`FiddleCommand`]'s [`FromStr`].

use crate::error::Error;
use crate::model::PowerModel;
use crate::solver::{ClusterSolver, Solver};
use crate::units::{Celsius, Seconds};
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// A single fiddle command, addressed to one machine, over names of type
/// `S`: [`FiddleCommand`] owns them, [`CommandRef`] borrows them.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Command<S> {
    /// Pin a node's temperature (persistently, until [`Command::Release`]).
    /// On a machine inlet this emulates a cooling failure or a blocked
    /// duct; the paper's Figure 4 script is two of these.
    Temperature {
        /// Target machine.
        machine: S,
        /// Target node.
        node: S,
        /// Imposed temperature, °C.
        celsius: f64,
    },
    /// Release a pinned node so it evolves freely again.
    Release {
        /// Target machine.
        machine: S,
        /// Target node.
        node: S,
    },
    /// Change the machine's fan speed (multi-speed fans).
    FanSpeed {
        /// Target machine.
        machine: S,
        /// New volumetric flow, ft³/min.
        cfm: f64,
    },
    /// Replace a component's linear power range (emulating DVFS or clock
    /// throttling).
    Power {
        /// Target machine.
        machine: S,
        /// Target component.
        component: S,
        /// New idle power, W.
        base_w: f64,
        /// New peak power, W.
        max_w: f64,
    },
    /// Change a heat edge's transfer coefficient.
    HeatK {
        /// Target machine.
        machine: S,
        /// One endpoint of the heat edge.
        a: S,
        /// The other endpoint.
        b: S,
        /// New coefficient, W/K.
        k: f64,
    },
    /// Change an air edge's fraction (e.g. a partially blocked duct).
    AirFraction {
        /// Target machine.
        machine: S,
        /// Upstream air region.
        from: S,
        /// Downstream air region.
        to: S,
        /// New fraction in `(0, 1]`.
        fraction: f64,
    },
}

/// A fiddle command that owns its names.
pub type FiddleCommand = Command<String>;

/// A fiddle command that borrows its names: what [`ScriptRunner::due`]
/// lends and [`Command::as_ref`] views.
pub type CommandRef<'a> = Command<&'a str>;

impl<S> Command<S> {
    /// The same command over names `f` maps, values unchanged.
    fn map<'s, T>(&'s self, mut f: impl FnMut(&'s S) -> T) -> Command<T> {
        match self {
            Command::Temperature {
                machine,
                node,
                celsius,
            } => Command::Temperature {
                machine: f(machine),
                node: f(node),
                celsius: *celsius,
            },
            Command::Release { machine, node } => Command::Release {
                machine: f(machine),
                node: f(node),
            },
            Command::FanSpeed { machine, cfm } => Command::FanSpeed {
                machine: f(machine),
                cfm: *cfm,
            },
            Command::Power {
                machine,
                component,
                base_w,
                max_w,
            } => Command::Power {
                machine: f(machine),
                component: f(component),
                base_w: *base_w,
                max_w: *max_w,
            },
            Command::HeatK { machine, a, b, k } => Command::HeatK {
                machine: f(machine),
                a: f(a),
                b: f(b),
                k: *k,
            },
            Command::AirFraction {
                machine,
                from,
                to,
                fraction,
            } => Command::AirFraction {
                machine: f(machine),
                from: f(from),
                to: f(to),
                fraction: *fraction,
            },
        }
    }
}

impl<S: AsRef<str>> Command<S> {
    /// A view of this command that borrows its names.
    pub fn as_ref(&self) -> CommandRef<'_> {
        self.map(AsRef::as_ref)
    }

    /// The machine this command addresses.
    pub fn machine(&self) -> &str {
        match self {
            Command::Temperature { machine, .. }
            | Command::Release { machine, .. }
            | Command::FanSpeed { machine, .. }
            | Command::Power { machine, .. }
            | Command::HeatK { machine, .. }
            | Command::AirFraction { machine, .. } => machine.as_ref(),
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
        match self.as_ref() {
            Command::Temperature { node, celsius, .. } => {
                solver.force_temperature(node, Celsius(celsius))
            }
            Command::Release { node, .. } => solver.release_temperature(node),
            Command::FanSpeed { cfm, .. } => solver.set_fan_cfm(cfm),
            Command::Power {
                component,
                base_w,
                max_w,
                ..
            } => solver.set_power_model(component, PowerModel::linear(base_w, max_w)),
            Command::HeatK { a, b, k, .. } => solver.set_heat_k(a, b, k),
            Command::AirFraction {
                from, to, fraction, ..
            } => solver.set_air_fraction(from, to, fraction),
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
        match self.as_ref() {
            Command::Temperature {
                machine,
                node,
                celsius,
            } => {
                if cluster.machine(machine)?.is_inlet(node) {
                    cluster.force_inlet(machine, Celsius(celsius))
                } else {
                    cluster
                        .machine_mut(machine)?
                        .force_temperature(node, Celsius(celsius))
                }
            }
            Command::Release { machine, node } => {
                if cluster.machine(machine)?.is_inlet(node) {
                    cluster.release_inlet(machine)?;
                }
                cluster.machine_mut(machine)?.release_temperature(node)
            }
            other => other.apply(cluster.machine_mut(other.machine())?),
        }
    }
}

impl<S: AsRef<str>> fmt::Display for Command<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_ref() {
            Command::Temperature {
                machine,
                node,
                celsius,
            } => {
                write!(f, "fiddle {machine} temperature {node} {celsius}")
            }
            Command::Release { machine, node } => {
                write!(f, "fiddle {machine} release {node}")
            }
            Command::FanSpeed { machine, cfm } => {
                write!(f, "fiddle {machine} fanspeed {cfm}")
            }
            Command::Power {
                machine,
                component,
                base_w,
                max_w,
            } => {
                write!(f, "fiddle {machine} power {component} {base_w} {max_w}")
            }
            Command::HeatK { machine, a, b, k } => {
                write!(f, "fiddle {machine} k {a} {b} {k}")
            }
            Command::AirFraction {
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

impl From<CommandRef<'_>> for FiddleCommand {
    fn from(command: CommandRef<'_>) -> Self {
        command.map(|name| name.to_string())
    }
}

impl FromStr for FiddleCommand {
    type Err = Error;

    /// Parses one command line, `fiddle <machine> <verb> …`, with the
    /// grammar of a script's `fiddle` statements; an error names line 1.
    fn from_str(line: &str) -> Result<Self, Error> {
        let mut words = line.split_whitespace();
        let command = match words.next() {
            Some("fiddle") => parse_command(words),
            _ => Err(COMMAND_USAGE.to_string()),
        };
        command
            .map(FiddleCommand::from)
            .map_err(|reason| Error::FiddleParse { line: 1, reason })
    }
}

const COMMAND_USAGE: &str = "usage: fiddle <machine> <verb> ...";

/// The grammar of one command: the words after `fiddle`. Returns the
/// reason a malformed command is refused.
fn parse_command<'a>(mut words: impl Iterator<Item = &'a str>) -> Result<CommandRef<'a>, String> {
    let (Some(machine), Some(verb)) = (words.next(), words.next()) else {
        return Err(COMMAND_USAGE.to_string());
    };
    // No verb takes more than three arguments; `n` counts them all.
    let mut args = [""; 3];
    let mut n = 0;
    for word in words {
        if let Some(slot) = args.get_mut(n) {
            *slot = word;
        }
        n += 1;
    }
    let arity = |want: usize, usage: &str| {
        if n == want {
            Ok(())
        } else {
            Err(format!("usage: fiddle <machine> {usage}"))
        }
    };
    let [x, y, z] = args;
    Ok(match verb {
        "temperature" => {
            arity(2, "temperature <node> <celsius>")?;
            Command::Temperature {
                machine,
                node: x,
                celsius: parse_f64(y)?,
            }
        }
        "release" => {
            arity(1, "release <node>")?;
            Command::Release { machine, node: x }
        }
        "fanspeed" => {
            arity(1, "fanspeed <cfm>")?;
            Command::FanSpeed {
                machine,
                cfm: parse_f64(x)?,
            }
        }
        "power" => {
            arity(3, "power <component> <base> <max>")?;
            Command::Power {
                machine,
                component: x,
                base_w: parse_f64(y)?,
                max_w: parse_f64(z)?,
            }
        }
        "k" => {
            arity(3, "k <a> <b> <value>")?;
            Command::HeatK {
                machine,
                a: x,
                b: y,
                k: parse_f64(z)?,
            }
        }
        "fraction" => {
            arity(3, "fraction <from> <to> <value>")?;
            Command::AirFraction {
                machine,
                from: x,
                to: y,
                fraction: parse_f64(z)?,
            }
        }
        verb => return Err(format!("unknown fiddle verb `{verb}`")),
    })
}

fn parse_f64(s: &str) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        Ok(_) => Err(format!("`{s}` is not a finite number")),
        Err(_) => Err(format!("`{s}` is not a number")),
    }
}

/// A timestamped fiddle command inside a script: a fixed-size record
/// whose names are indices into its script's name table (40 bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiddleEvent {
    /// Emulated time at which the command fires, seconds from script start.
    pub at: Seconds,
    command: Command<u32>,
}

const _: () = assert!(std::mem::size_of::<FiddleEvent>() <= 40);

/// What a script holds: each distinct name once, and its events sorted
/// by firing time.
#[derive(Debug, Clone, Default)]
struct Schedule {
    names: Vec<Box<str>>,
    events: Vec<FiddleEvent>,
}

impl Schedule {
    fn command(&self, event: &FiddleEvent) -> CommandRef<'_> {
        event.command.map(|&i| &*self.names[i as usize])
    }
}

/// A parsed fiddle script: a time-ordered list of commands.
///
/// The schedule lives once, shared with every [`ScriptRunner`] handed
/// out; [`FiddleScript::at`] copies it first if a runner still holds it.
#[derive(Debug, Clone, Default)]
pub struct FiddleScript {
    schedule: Arc<Schedule>,
}

impl FiddleScript {
    /// Creates an empty script.
    pub fn new() -> Self {
        FiddleScript::default()
    }

    /// Adds a command firing `at` seconds into the run. Events may be
    /// added out of order; they are kept sorted by time.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is not finite: such an event would never fall
    /// due, and every event after it would wait behind it.
    pub fn at<S: AsRef<str>>(&mut self, seconds: f64, command: Command<S>) -> &mut Self {
        assert!(seconds.is_finite(), "a fiddle event at {seconds} s");
        let schedule = Arc::make_mut(&mut self.schedule);
        let names = &mut schedule.names;
        let command = command.map(|name| {
            let name = name.as_ref();
            let i = names.iter().position(|n| **n == *name).unwrap_or_else(|| {
                names.push(name.into());
                names.len() - 1
            });
            i as u32
        });
        // After every event due by then, as a stable sort would put it.
        let events = &mut schedule.events;
        let k = events.partition_point(|e| e.at.0 <= seconds);
        events.insert(
            k,
            FiddleEvent {
                at: Seconds(seconds),
                command,
            },
        );
        self
    }

    /// The timestamped events, sorted by firing time.
    pub fn events(&self) -> &[FiddleEvent] {
        &self.schedule.events
    }

    /// Every command with its firing time, in order.
    pub fn commands(&self) -> impl ExactSizeIterator<Item = (Seconds, CommandRef<'_>)> + '_ {
        let schedule = &*self.schedule;
        (schedule.events.iter()).map(move |e| (e.at, schedule.command(e)))
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
    /// Names are interned through a map that borrows `text`, and the
    /// events are reserved once at their exact count.
    ///
    /// # Errors
    ///
    /// Returns [`Error::FiddleParse`] with the 1-based line number of the
    /// first malformed statement. A number that is not finite (`nan`,
    /// `inf`) is malformed, and so is a `sleep` that carries the script
    /// clock past the largest finite time.
    pub fn parse(text: &str) -> Result<Self, Error> {
        let commands = text
            .lines()
            .filter(|line| line.split_whitespace().next() == Some("fiddle"))
            .count();
        let mut events = Vec::with_capacity(commands);
        let mut names = Vec::new();
        let mut index: HashMap<&str, u32> = HashMap::new();
        let mut clock = 0.0_f64;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |reason: String| Error::FiddleParse {
                line: lineno + 1,
                reason,
            };
            let mut words = line.split_whitespace();
            match words.next().unwrap_or_default() {
                "sleep" => {
                    let (Some(secs), None) = (words.next(), words.next()) else {
                        return Err(err("usage: sleep <seconds>".to_string()));
                    };
                    let secs = parse_f64(secs).map_err(err)?;
                    if secs < 0.0 {
                        return Err(err(format!("cannot sleep a negative duration ({secs})")));
                    }
                    clock += secs;
                    if !clock.is_finite() {
                        return Err(err("the script clock overflows".to_string()));
                    }
                }
                "fiddle" => {
                    let command = parse_command(words).map_err(err)?.map(|&name| {
                        *index.entry(name).or_insert_with(|| {
                            names.push(Box::from(name));
                            names.len() as u32 - 1
                        })
                    });
                    events.push(FiddleEvent {
                        at: Seconds(clock),
                        command,
                    });
                }
                word => return Err(err(format!("unknown statement `{word}`"))),
            }
        }
        names.shrink_to_fit();
        Ok(FiddleScript {
            schedule: Arc::new(Schedule { names, events }),
        })
    }

    /// Creates a runner that replays this script against a solver. The
    /// runner shares the script's schedule; it copies nothing.
    pub fn runner(&self) -> ScriptRunner {
        ScriptRunner {
            schedule: Arc::clone(&self.schedule),
            next: 0,
        }
    }
}

/// Replays a [`FiddleScript`] against a solver as emulated time advances.
///
/// A cursor over the script's shared schedule. Call [`ScriptRunner::due`]
/// once per tick with the current emulated time; it yields every command
/// whose firing time has been reached.
#[derive(Debug, Clone)]
pub struct ScriptRunner {
    schedule: Arc<Schedule>,
    next: usize,
}

impl ScriptRunner {
    /// Commands that fire at or before `now`, in order, as views that
    /// borrow the script's names. Each command is yielded exactly once
    /// across calls.
    ///
    /// The cursor moves past them before this returns, so a result that
    /// is dropped unread still skips them: `let _ = runner.due(cut)`
    /// passes over the commands a restored checkpoint already holds.
    pub fn due(&mut self, now: Seconds) -> impl ExactSizeIterator<Item = CommandRef<'_>> + '_ {
        let (start, schedule) = (self.next, &*self.schedule);
        self.next += schedule.events[start..]
            .iter()
            .take_while(|e| e.at.0 <= now.0)
            .count();
        (schedule.events[start..self.next].iter()).map(|e| schedule.command(e))
    }

    /// When the next command that has not fired yet falls due, or `None`
    /// once every event has fired.
    pub fn next_due(&self) -> Option<Seconds> {
        self.schedule.events.get(self.next).map(|e| e.at)
    }

    /// Whether every event has fired.
    pub fn is_finished(&self) -> bool {
        self.next >= self.schedule.events.len()
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
    use proptest::prelude::*;

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
            script.commands().next(),
            Some((
                Seconds(100.0),
                Command::Temperature {
                    machine: "machine1",
                    node: "inlet",
                    celsius: 30.0
                }
            ))
        );
        assert_eq!(script.events()[1].at, Seconds(300.0));
        assert_eq!(*script.schedule.names, ["machine1".into(), "inlet".into()]);
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
        let shown: Vec<String> = script.commands().map(|(_, c)| c.to_string()).collect();
        assert_eq!(shown.join("\n") + "\n", text);
        // Each distinct name is held once.
        assert_eq!(script.schedule.names.len(), 5);
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

    fn every_verb() -> Vec<FiddleCommand> {
        vec![
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
        ]
    }

    #[test]
    fn command_display_round_trips_through_parse() {
        for cmd in every_verb() {
            let text = cmd.to_string();
            let script = FiddleScript::parse(&text).unwrap();
            assert_eq!(
                script.commands().next().map(|(_, c)| c),
                Some(cmd.as_ref()),
                "round trip failed for `{text}`"
            );
            assert_eq!(text.parse::<FiddleCommand>().unwrap(), cmd, "`{text}`");
        }
    }

    #[test]
    fn a_command_line_parses_like_a_script_line() {
        assert_eq!(
            "  fiddle m1 fanspeed 19.3\n"
                .parse::<FiddleCommand>()
                .unwrap(),
            FiddleCommand::FanSpeed {
                machine: "m1".into(),
                cfm: 19.3
            }
        );
        for (line, reason) in [
            ("", COMMAND_USAGE),
            ("sleep 10", COMMAND_USAGE),
            ("fiddle m1", COMMAND_USAGE),
            ("fiddle m1 fanspeed nan", "`nan` is not a finite number"),
            (
                "fiddle m1 fanspeed 1 2",
                "usage: fiddle <machine> fanspeed <cfm>",
            ),
            ("fiddle m1 blowup 3", "unknown fiddle verb `blowup`"),
        ] {
            match line.parse::<FiddleCommand>() {
                Err(Error::FiddleParse {
                    line: 1,
                    reason: got,
                }) => {
                    assert_eq!(got, reason, "`{line}`")
                }
                other => panic!("`{line}` gave {other:?}"),
            }
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

    fn fan(machine: &str, cfm: f64) -> CommandRef<'_> {
        Command::FanSpeed { machine, cfm }
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
            fired.extend(due.map(FiddleCommand::from));
            assert_eq!(fired.len() - before, len, "exact size at {now}");
        }
        let expected: Vec<FiddleCommand> = script.commands().map(|(_, c)| c.into()).collect();
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
        let rest: Vec<CommandRef> = runner.due(Seconds(15.0)).collect();
        assert_eq!(rest, [fan("b", 4.0), fan("c", 5.0)]);
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
        let old: Vec<CommandRef> = before.due(Seconds(12.0)).collect();
        assert_eq!(old, [fan("a", 1.0), fan("b", 2.0), fan("a", 3.0)]);
        assert_eq!(before.due(Seconds(99.0)).len(), 2);
        let mut after = script.runner();
        let new: Vec<CommandRef> = after.due(Seconds(12.0)).collect();
        assert_eq!(new.last(), Some(&fan("d", 6.0)));
        // `at` interns too: `a` is not held twice.
        script.at(20.0, fan("a", 7.0));
        assert_eq!(
            *script.schedule.names,
            ["a".into(), "b".into(), "c".into(), "d".into()]
        );
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
        // A command added at a time already held goes after the others.
        script.at(100.0, fan("m", 30.0));
        let order: Vec<(Seconds, CommandRef)> = script.commands().collect();
        assert_eq!(
            order,
            [
                (Seconds(100.0), fan("m", 20.0)),
                (Seconds(100.0), fan("m", 30.0)),
                (Seconds(200.0), fan("m", 10.0)),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "a fiddle event at NaN s")]
    fn a_non_finite_time_is_refused() {
        FiddleScript::new().at(f64::NAN, fan("m", 1.0));
    }

    /// The parser this module had while every event owned its names,
    /// kept as the reference the interning parser is held to.
    fn oracle_parse(text: &str) -> Result<Vec<(Seconds, FiddleCommand)>, Error> {
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
                    events.push((Seconds(clock), command));
                }
                word => return Err(err(format!("unknown statement `{word}`"))),
            }
        }
        Ok(events)
    }

    /// One well-formed statement: a command of any verb over a few
    /// repeated names, a sleep, a comment or a blank line.
    fn good_line() -> impl Strategy<Value = String> {
        prop_oneof![
            "fiddle (m1|m2|machine3) temperature (inlet|cpu|disk) (30|21.6|-4|1e3)",
            "fiddle (m1|m2|machine3) release (inlet|cpu)",
            "fiddle (m1|m2|machine3) fanspeed (19.3|38.6|0.5|1e-3)",
            "fiddle (m1|m2|machine3) power (cpu|disk) (7|0) (31|12.5)",
            "fiddle (m1|m2|machine3) k (cpu|inlet) (cpu_air|disk) (0.9|2)",
            "fiddle (m1|m2|machine3) fraction (inlet|cpu_air) (disk_air|exhaust) (0.3|1)",
            "sleep (0|1|2.5|10|100|1e308)",
            "(|#!/bin/bash|# fiddle m1 fanspeed 3|#comment)",
        ]
    }

    /// A statement that is usually malformed: a wrong arity, an unknown
    /// verb or statement, or a number that is not a finite number.
    fn bad_line() -> impl Strategy<Value = String> {
        prop_oneof![
            "fiddle( (m1|m2))?( (temperature|release|fanspeed|power|k|fraction|blowup))?\
             ( (inlet|cpu|30|nan|inf|-inf|NaN|warm|1e308)){0,4}",
            "sleep( (-5|ten|nan|inf|1e308|3)){0,3}",
            "(jump|fidle|Fiddle|sleeps)( (m1|10))?",
        ]
    }

    /// Random scripts: well-formed lines, indented or not, with at most
    /// one usually malformed line among them.
    fn script() -> impl Strategy<Value = String> {
        (
            proptest::collection::vec(("( |\t){0,2}", good_line()), 0..24),
            proptest::option::of((0usize..24, bad_line())),
            "(\n|\r\n)",
        )
            .prop_map(|(lines, bad, newline)| {
                let mut lines: Vec<String> =
                    lines.into_iter().map(|(indent, l)| indent + &l).collect();
                if let Some((at, line)) = bad {
                    lines.insert(at.min(lines.len()), line);
                }
                lines.join(&newline)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The interning parser yields the events the owning one did —
        /// time and display — or fails on the same line for the same
        /// reason.
        #[test]
        fn parse_matches_the_owning_parser(text in script()) {
            match (FiddleScript::parse(&text), oracle_parse(&text)) {
                (Ok(script), Ok(expected)) => {
                    let got: Vec<(Seconds, String)> =
                        script.commands().map(|(at, c)| (at, c.to_string())).collect();
                    let expected: Vec<(Seconds, String)> =
                        expected.iter().map(|(at, c)| (*at, c.to_string())).collect();
                    prop_assert_eq!(got, expected);
                    let mut names: Vec<&str> =
                        script.schedule.names.iter().map(|n| &**n).collect();
                    let held = names.len();
                    names.sort_unstable();
                    names.dedup();
                    prop_assert!(names.len() == held, "a name is held twice");
                }
                (
                    Err(Error::FiddleParse { line, reason }),
                    Err(Error::FiddleParse { line: want_line, reason: want }),
                ) => {
                    prop_assert_eq!((line, reason), (want_line, want));
                }
                (got, expected) => {
                    prop_assert!(false, "`{text}`: {got:?} against {expected:?}");
                }
            }
        }

        /// A command's display parses back to the same command, alone or
        /// as a script line.
        #[test]
        fn display_then_parse_round_trips(
            which in 0usize..6,
            machine in "[a-zA-Z][a-zA-Z0-9_]{0,12}",
            node in "[a-zA-Z][a-zA-Z0-9_]{0,12}",
            x in -1e6f64..1e6,
            y in -1e300f64..1e300,
        ) {
            let command = match which {
                0 => FiddleCommand::Temperature { machine, node, celsius: x },
                1 => FiddleCommand::Release { machine, node },
                2 => FiddleCommand::FanSpeed { machine, cfm: y },
                3 => FiddleCommand::Power { machine, component: node, base_w: x, max_w: y },
                4 => FiddleCommand::HeatK { machine, a: node.clone(), b: node, k: x },
                _ => FiddleCommand::AirFraction {
                    machine,
                    from: node.clone(),
                    to: format!("{node}_x"),
                    fraction: y,
                },
            };
            let text = command.to_string();
            prop_assert_eq!(text.parse::<FiddleCommand>().unwrap(), command.clone());
            let script = FiddleScript::parse(&text).unwrap();
            prop_assert_eq!(script.commands().next().map(|(_, c)| c), Some(command.as_ref()));
        }
    }
}
