//! `mercury-fiddle` — inject thermal emergencies into a running solver.
//!
//! One-shot, mirroring the paper's command line:
//!
//! ```text
//! mercury-fiddle --solver HOST:PORT machine1 temperature inlet 30
//! mercury-fiddle --solver HOST:PORT machine1 fanspeed 19.3
//! mercury-fiddle --solver HOST:PORT machine1 release inlet
//! ```
//!
//! Or replay a whole script (Figure 4) with real sleeps:
//!
//! ```text
//! mercury-fiddle --solver HOST:PORT --script emergency.fiddle
//! ```
//!
//! With `--speedup N`, script sleeps are divided by N (pair it with a
//! fast-forwarding solver).

use mercury::fiddle::{FiddleCommand, FiddleScript};
use mercury::net::send_fiddle;
use mercury_tools::{resolve, Args};
use std::time::Duration;

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("mercury-fiddle: {message}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1));
    let solver = resolve(args.require("solver")?)?;

    if let Some(path) = args.value("script") {
        let speedup: f64 = args
            .value("speedup")
            .unwrap_or("1")
            .parse()
            .map_err(|_| "--speedup wants a number".to_string())?;
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read script `{path}`: {e}"))?;
        let script = FiddleScript::parse(&text).map_err(|e| e.to_string())?;
        eprintln!("replaying {} events from `{path}`", script.events().len());
        let mut clock = 0.0_f64;
        for (at, command) in script.commands() {
            let wait = (at.0 - clock).max(0.0) / speedup.max(1e-9);
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait));
            }
            clock = at.0;
            eprintln!("t={:>6.0}s  {command}", at.0);
            send_fiddle(solver, &command.into()).map_err(|e| e.to_string())?;
        }
        return Ok(());
    }

    // One-shot: the script grammar's `fiddle` line.
    let command: FiddleCommand = format!("fiddle {}", args.positional().join(" "))
        .parse()
        .map_err(|e: mercury::Error| e.to_string())?;
    send_fiddle(solver, &command).map_err(|e| e.to_string())?;
    eprintln!("applied: {command}");
    Ok(())
}
