//! The `bench-e2e` command line.
//!
//! ```text
//! bench-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     The driver's form: one workload in this process. The last line
//!     of standard output is the result object.
//! bench-e2e run <workload>|--all [--seed n] [--seconds s] [--traced]
//!               [--repeats k] [--out file] [--smoke]
//!     `run <workload>` runs one workload (traced with --traced);
//!     `--all` runs every workload untraced and then traced. Each run
//!     is its own process, so `peak_rss_mb` is per workload. Prints
//!     every metric by name with its unit, writes the result set, and
//!     exits non-zero if any output check failed. With `--repeats k`
//!     each run is made k times and medians and quartiles are printed.
//! bench-e2e prepare --workload <name>|--all --seed <n> [--smoke]
//!     Builds the corpus of a seed (normally run for you, as a child).
//! bench-e2e agree <a.json> <b.json>
//!     Compares two result sets of one commit against the bounds and
//!     exits non-zero naming each metric that is out of bounds.
//! ```

use crate::catalogue::{self, WORKLOADS};
use crate::harness::{Result, RunOptions};
use crate::json;
use crate::prepare;
use crate::report::{agree, ResultSet, RunReport};
use crate::sizes::Sizes;
use crate::workloads;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Window length when `--seconds` is not given; `BENCHMARK.json` says
/// the same.
pub const DEFAULT_SECONDS: f64 = 25.0;

/// Parsed flags: `--name value` pairs, bare `--switches`, positionals.
#[derive(Debug, Default, PartialEq)]
struct Args {
    flags: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

const SWITCHES: [&str; 4] = ["--all", "--traced", "--smoke", "--help"];

impl Args {
    fn parse(args: &[String]) -> std::result::Result<Self, String> {
        let mut out = Args::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if SWITCHES.contains(&a.as_str()) {
                out.switches.push(a.clone());
            } else if a.starts_with("--") {
                let value = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                out.flags.push((a.clone(), value.clone()));
            } else {
                out.positional.push(a.clone());
            }
        }
        Ok(out)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn number<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
    ) -> std::result::Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} `{v}` is not a number")),
        }
    }
}

/// Where corpora and results live unless `--data-root` says otherwise:
/// `bench-e2e/` inside the Cargo target directory this executable was
/// built into, so everything the benchmark writes stays in the checkout
/// and is already ignored by git.
fn default_data_root() -> Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("the executable is not inside a Cargo target directory")?;
    Ok(target.join("bench-e2e"))
}

fn options(args: &Args, traced: bool) -> Result<RunOptions> {
    let seconds: f64 = args.number("--seconds", DEFAULT_SECONDS)?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("--seconds {seconds} is not a duration").into());
    }
    Ok(RunOptions {
        seed: args.number("--seed", 42)?,
        seconds,
        traced,
        smoke: args.has("--smoke"),
        data_root: match args.flag("--data-root") {
            Some(dir) => PathBuf::from(dir),
            None => default_data_root()?,
        },
    })
}

fn known(workload: &str) -> Result<&'static str> {
    catalogue::workload(workload)
        .map(|w| w.name)
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload `{workload}` (one of {})",
                names.join(", ")
            )
            .into()
        })
}

/// One workload, in this process. Prints the rendering, then the
/// result object as the last line.
fn run_here(workload: &str, opts: &RunOptions) -> Result<RunReport> {
    let workload = known(workload)?;
    let outcome = workloads::run(workload, opts)?;
    let report = RunReport::from_outcome(workload, opts.seed, opts.traced, outcome)?;
    print!("{}", report.render());
    println!("{}", report.contract_line());
    Ok(report)
}

/// One workload in a child process, in the driver's form; the child's
/// output is passed through and its last line parsed.
fn run_child(workload: &str, opts: &RunOptions) -> Result<RunReport> {
    let mut child = Command::new(std::env::current_exe()?);
    child
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.traced { "1" } else { "0" }])
        .arg("--data-root")
        .arg(&opts.data_root)
        .stdout(Stdio::piped());
    if opts.smoke {
        child.arg("--smoke");
    }
    let output = child.spawn()?.wait_with_output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let Some((rendering, last)) = stdout.trim_end().rsplit_once('\n') else {
        return Err(format!(
            "`{workload}` exited with {} and printed no result",
            output.status
        )
        .into());
    };
    println!("{rendering}");
    RunReport::from_json(&json::parse(last)?, workload, opts.seed, opts.traced)
        .map_err(|e| format!("`{workload}` ({}): {e}", output.status).into())
}

fn cmd_run(args: &Args) -> Result<bool> {
    let repeats: usize = args.number("--repeats", 1)?;
    let all = args.has("--all");
    let plan: Vec<(&str, bool)> = if all {
        [false, true]
            .iter()
            .flat_map(|&traced| WORKLOADS.iter().map(move |w| (w.name, traced)))
            .collect()
    } else {
        let name = args
            .positional
            .get(1)
            .ok_or("run needs a workload name or --all")?;
        vec![(known(name)?, args.has("--traced"))]
    };
    let base = options(args, false)?;
    let mut set = ResultSet::default();
    for (workload, traced) in plan {
        let opts = RunOptions {
            traced,
            ..base.clone()
        };
        for _ in 0..repeats.max(1) {
            // A lone run already is its own process.
            let report = if all || repeats > 1 {
                run_child(workload, &opts)?
            } else {
                run_here(workload, &opts)?
            };
            set.runs.push(report);
        }
    }
    if repeats > 1 {
        print!("{}", set.render_summaries());
    }
    let out = match args.flag("--out") {
        Some(path) => PathBuf::from(path),
        None => prepare::data_dir(&base.data_root, base.seed, base.smoke).join("result.json"),
    };
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&out, set.to_json())?;
    println!("wrote {}", out.display());
    let failed: Vec<&RunReport> = set.runs.iter().filter(|r| !r.correct).collect();
    for r in &failed {
        eprintln!(
            "bench-e2e: {} ({}) failed {} of {} operations",
            r.workload,
            if r.traced { "traced" } else { "untraced" },
            r.failed,
            r.attempted
        );
    }
    Ok(failed.is_empty())
}

fn cmd_prepare(args: &Args) -> Result<bool> {
    let opts = options(args, false)?;
    let names: Vec<&str> = if args.has("--all") {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        vec![known(
            args.flag("--workload")
                .ok_or("prepare needs --workload or --all")?,
        )?]
    };
    let dir = prepare::data_dir(&opts.data_root, opts.seed, opts.smoke);
    for name in names {
        prepare::generate(name, opts.seed, Sizes::of(opts.smoke), &dir)?;
    }
    Ok(true)
}

fn cmd_agree(args: &Args) -> Result<bool> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("agree needs two result files".into());
    };
    let read = |path: &String| -> Result<ResultSet> {
        ResultSet::from_json(&std::fs::read_to_string(path)?)
            .map_err(|e| format!("{path}: {e}").into())
    };
    let (a, b) = (read(a)?, read(b)?);
    let disagreements = agree(&a, &b);
    for line in &disagreements {
        println!("DISAGREE: {line}");
    }
    if disagreements.is_empty() {
        println!(
            "the two sets agree: every end-to-end median within its bound, every exact count identical ({} and {} runs)",
            a.runs.len(),
            b.runs.len()
        );
    }
    Ok(disagreements.is_empty())
}

fn dispatch(args: &[String]) -> Result<bool> {
    let args = Args::parse(args)?;
    if args.has("--help") {
        println!("{}", USAGE.trim());
        return Ok(true);
    }
    match args.positional.first().map(String::as_str) {
        Some("run") => cmd_run(&args),
        Some("prepare") => cmd_prepare(&args),
        Some("agree") => cmd_agree(&args),
        Some(other) => Err(format!("unknown command `{other}`\n{}", USAGE.trim()).into()),
        None => {
            let workload = args
                .flag("--workload")
                .ok_or_else(|| format!("nothing to do\n{}", USAGE.trim()))?;
            let traced = match args.flag("--trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace `{other}` is neither 0 nor 1").into()),
            };
            Ok(run_here(workload, &options(&args, traced)?)?.correct)
        }
    }
}

const USAGE: &str = "
usage: bench-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
       bench-e2e run <workload>|--all [--seed n] [--seconds s] [--traced] [--repeats k] [--out file] [--smoke]
       bench-e2e prepare --workload <name>|--all --seed <n> [--smoke]
       bench-e2e agree <a.json> <b.json>
";

/// Runs the command line; failure of the program or of any output
/// check is a non-zero exit.
#[must_use]
pub fn main(args: &[String]) -> ExitCode {
    match dispatch(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench-e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parses_the_drivers_form_and_the_subcommands() {
        let a = Args::parse(&strings(&[
            "--workload",
            "net_live",
            "--seed",
            "7",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.flag("--workload"), Some("net_live"));
        assert_eq!(a.number("--seed", 0u64), Ok(7));
        assert_eq!(a.number("--seconds", 0.0), Ok(2.5));
        assert!(a.positional.is_empty());

        let a = Args::parse(&strings(&["run", "--all", "--smoke", "--repeats", "3"])).unwrap();
        assert_eq!(a.positional, ["run"]);
        assert!(a.has("--all") && a.has("--smoke") && !a.has("--traced"));
        assert_eq!(a.number("--repeats", 1usize), Ok(3));
        assert_eq!(a.number("--seed", 42u64), Ok(42));

        assert!(Args::parse(&strings(&["--seed"])).is_err());
        assert!(a.number::<u64>("--repeats", 0).is_ok());
        let bad = Args::parse(&strings(&["--seed", "x"])).unwrap();
        assert!(bad.number::<u64>("--seed", 0).is_err());
    }

    #[test]
    fn refuses_what_it_cannot_run() {
        assert!(known("replay_churn").is_ok());
        assert!(known("replay").is_err());
        assert!(dispatch(&strings(&["frobnicate"])).is_err());
        assert!(dispatch(&strings(&[])).is_err());
        assert!(dispatch(&strings(&["--workload", "net_live", "--trace", "2"])).is_err());
        assert!(dispatch(&strings(&["agree", "only-one.json"])).is_err());
        assert!(dispatch(&strings(&["run"])).is_err());
        assert!(dispatch(&strings(&["--workload", "x", "--seconds", "-1"])).is_err());
        assert_eq!(dispatch(&strings(&["--help"])).ok(), Some(true));
    }
}
