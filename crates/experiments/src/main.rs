//! Reproduction harness for "Mercury and Freon" (ASPLOS 2006).
//!
//! One subcommand per paper artifact; each writes CSV series under
//! `results/` and prints `PAPER:` / `MEASURED:` summary lines. Run with
//! `--release` — the Fluent stand-in and the long calibration runs are
//! deliberately expensive.
//!
//! ```text
//! cargo run --release -p experiments -- all
//! cargo run --release -p experiments -- fig11
//! ```

mod ablation;
mod bench_solver;
mod common;
mod extensions;
mod fluent;
mod freon_exp;
mod misc;
mod replay;
mod scenarios;
mod validation;

use std::process::ExitCode;

const USAGE: &str = "\
usage: experiments <subcommand>

  table1            print the Table 1 model as loaded by Mercury
  fig1              dump the Figure 1 graphs in Graphviz dot
  fig4              run the Figure 4 fiddle script against a live solver
  fig5              CPU calibration run (plant vs Mercury)
  fig6              disk calibration run
  fig7              CPU-air validation on the combined benchmark
  fig8              disk validation on the combined benchmark
  table_fluent      14-combo steady-state comparison vs the CFD stand-in
  fig11             Freon base policy under two inlet emergencies
  fig12             Freon-EC under the same trace and emergencies
  table_drops       Freon vs the traditional red-line baseline
  micro             solver-iteration and sensor-read latency micro numbers
  bench_solver      step-kernel vs seed-algorithm throughput -> BENCH_solver.json
  replay            out-of-core .events fleet replay: throughput, flat-RSS,
                    and checkpointed parallel time segments vs serial
                    (--machines/--ticks/--passes/--segments/--events;
                     updates the replay section of BENCH_solver.json)
  ablation_controller   PD vs P-only vs bang-bang admission control
  ablation_projection   Freon-EC projection horizon 0/1/2/4 intervals
  ablation_substeps     solver stability-limit sweep (accuracy vs cost)
  sec43_throttling  remote (Freon) vs local (DVFS) vs combined throttling
  ablation_fans     fixed vs variable-speed fans under the emergencies
  scenarios         emergency grid x declarative policies league table
                    (--fast for the CI smoke; --policy <file.toml> to add specs;
                     --scenario <name> for one cell; --trace for causal spans
                     + flight-recorder incident bundles in results/incidents/)
  all               everything above, in order
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match args.first() {
        Some(c) => c.as_str(),
        None => {
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = run_with(command, &args[1..]);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("experiments {command}: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run(command: &str) -> Result<(), Box<dyn std::error::Error>> {
    run_with(command, &[])
}

fn run_with(command: &str, args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    // One subcommand per invocation: in `fig11 fig12` nothing would read
    // `fig12`, and a word dropped silently looks like a run that happened.
    if !matches!(command, "scenarios" | "replay") {
        if let Some(extra) = args.first() {
            return Err(format!("unexpected argument `{extra}` after `{command}`\n{USAGE}").into());
        }
    }
    match command {
        "scenarios" => scenarios::scenarios(args),
        "table1" => misc::table1(),
        "fig1" => misc::fig1(),
        "fig4" => misc::fig4(),
        "fig5" => validation::fig5(),
        "fig6" => validation::fig6(),
        "fig7" => validation::fig7(),
        "fig8" => validation::fig8(),
        "table_fluent" => fluent::table_fluent(),
        "fig11" => freon_exp::fig11(),
        "fig12" => freon_exp::fig12(),
        "table_drops" => freon_exp::table_drops(),
        "micro" => misc::micro(),
        "bench_solver" => bench_solver::bench_solver(),
        "replay" => replay::replay(args),
        "ablation_controller" => ablation::controller(),
        "ablation_projection" => ablation::projection(),
        "ablation_substeps" => ablation::substeps(),
        "sec43_throttling" => extensions::sec43_throttling(),
        "ablation_fans" => extensions::ablation_fans(),
        "all" => {
            for cmd in [
                "table1",
                "fig1",
                "fig4",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "table_fluent",
                "fig11",
                "fig12",
                "table_drops",
                "micro",
                "bench_solver",
                "ablation_controller",
                "ablation_projection",
                "ablation_substeps",
                "sec43_throttling",
                "ablation_fans",
                "scenarios",
            ] {
                println!("==================== {cmd} ====================");
                run(cmd)?;
                println!();
            }
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`\n{USAGE}").into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn trailing_words_are_rejected_with_the_usage_text() {
        let err = run_with("fig11", &words(&["fig12"]))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("unexpected argument `fig12` after `fig11`"),
            "{err}"
        );
        assert!(err.contains(USAGE), "{err}");
    }

    /// The flags still reach the subcommands that take them: `--fast`
    /// parses, and the run stops at the scenario lookup.
    #[test]
    fn scenarios_flags_still_parse() {
        let err = run_with("scenarios", &words(&["--fast", "--scenario", "no_such"]))
            .unwrap_err()
            .to_string();
        assert_eq!(err, "no scenario named `no_such`");
    }
}
