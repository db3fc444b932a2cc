//! `mercury-trace` — fetch, merge, and convert Mercury span dumps.
//!
//! ```text
//! usage: mercury-trace fetch HOST:PORT [--out FILE]
//!        mercury-trace convert INPUT... [--out FILE]
//!
//!   fetch    ask a running solver service for its recent spans
//!            (the TraceDump request) and write them as span JSONL
//!   convert  merge span JSONL dumps and/or flight-recorder incident
//!            bundles into one Chrome trace-event JSON file, ready for
//!            chrome://tracing or https://ui.perfetto.dev
//! ```
//!
//! A typical post-incident session:
//!
//! ```text
//! $ mercury-trace fetch 127.0.0.1:8367 --out spans.jsonl
//! $ mercury-trace convert spans.jsonl results/incidents/incident_t300_m1_red_line.json \
//!       --out incident.trace.json
//! ```

use mercury::net::fetch_multipart;
use mercury::net::proto::Request;
use mercury_tools::{resolve, Args};
use std::time::Duration;
use telemetry::trace::{parse_jsonl, to_chrome_trace, to_jsonl, SpanRecord};

fn main() -> std::process::ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("mercury-trace: {message}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run() -> Result<std::process::ExitCode, String> {
    let args = Args::parse(std::env::args().skip(1));
    match args.positional() {
        [] => Err("usage: mercury-trace fetch HOST:PORT | convert INPUT... (see --help)".into()),
        [cmd, rest @ ..] => match cmd.as_str() {
            "fetch" => fetch(&args, rest),
            "convert" => convert(&args, rest).map(|()| std::process::ExitCode::SUCCESS),
            other => Err(format!("unknown command `{other}`; try fetch or convert")),
        },
    }
}

/// Writes `text` to `--out` or stdout.
fn emit(args: &Args, text: &str) -> Result<(), String> {
    match args.value("out") {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

/// `fetch HOST:PORT` — one TraceDump round trip through the shared
/// multi-part fetch path. A dump with datagrams missing is still
/// written (spans are independent JSONL lines), but the gap is warned
/// about and the exit status is 2.
fn fetch(args: &Args, rest: &[String]) -> Result<std::process::ExitCode, String> {
    let addr = rest
        .first()
        .ok_or("fetch wants the solver's HOST:PORT".to_string())?;
    let solver = resolve(addr)?;
    let dump = fetch_multipart(solver, &Request::TraceDump, Duration::from_secs(2))
        .map_err(|e| e.to_string())?;
    let spans =
        parse_jsonl(&dump.text).map_err(|e| format!("solver sent a malformed dump: {e}"))?;
    eprintln!("fetched {} spans from {addr}", spans.len());
    if !dump.is_complete() {
        eprintln!(
            "mercury-trace: warning: incomplete dump — {}/{} parts arrived (UDP loss)",
            dump.received, dump.total
        );
    }
    emit(args, &dump.text)?;
    Ok(if dump.is_complete() {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::from(2)
    })
}

/// Reads one input file as spans: an incident bundle (detected by its
/// schema tag) or plain span JSONL.
fn read_spans(path: &str) -> Result<Vec<SpanRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    if text.contains(telemetry::recorder::BUNDLE_SCHEMA) {
        telemetry::recorder::extract_bundle_spans(&text).map_err(|e| format!("{path}: {e}"))
    } else {
        parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))
    }
}

/// `convert INPUT...` — merge dumps and bundles, sort by start time,
/// drop duplicate span ids (the same span can appear in a live dump and
/// in a bundle), and emit Chrome trace-event JSON — or, with `--jsonl`,
/// merged span JSONL.
fn convert(args: &Args, rest: &[String]) -> Result<(), String> {
    if rest.is_empty() {
        return Err("convert wants at least one JSONL dump or incident bundle".to_string());
    }
    let mut spans: Vec<SpanRecord> = Vec::new();
    for path in rest {
        spans.extend(read_spans(path)?);
    }
    let mut seen = std::collections::HashSet::new();
    spans.retain(|s| s.id == 0 || seen.insert(s.id));
    spans.sort_by_key(|s| s.start_ns);
    eprintln!("merged {} spans from {} input(s)", spans.len(), rest.len());
    if args.has("jsonl") {
        emit(args, &to_jsonl(&spans))
    } else {
        emit(args, &to_chrome_trace(&spans))
    }
}
