//! `mercury-top` — a live terminal console over a solver's sampled
//! history.
//!
//! ```text
//! usage: mercury-top --solver HOST:PORT [--interval SECONDS]
//!                    [--window SECONDS] [--top N] [--once]
//!
//!   --solver    the solver service address (run `mercury-solverd`
//!               with --sample-ms so it keeps history)
//!   --interval  seconds between frames            (default 2)
//!   --window    history window shown, in seconds  (default 120)
//!   --top       rows in the hottest-machines list (default 8)
//!   --once      render a single frame without clearing the screen
//!               and exit (for scripts and CI)
//! ```
//!
//! Each frame is two `SeriesQuery` round trips against the embedded
//! time-series store: a downsampled sweep of every `temp/*` series
//! (cluster heatmap + per-machine sparklines) and a rate sweep of every
//! sampled counter family (solver/net/freon activity). The console is
//! read-only — it never perturbs the emulation beyond the queries
//! themselves.

use mercury::net::fetch_multipart;
use mercury::net::proto::Request;
use mercury_tools::{resolve, Args};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, SystemTime};
use telemetry::tsdb::{parse_results, QueryKind, SeriesResult};

/// Sparkline ramp, coolest to hottest bucket.
const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
/// Downsample buckets per window — also the sparkline width.
const BUCKETS: u64 = 12;
/// Heatmap cells per row.
const HEAT_ROW: usize = 64;

fn main() -> std::process::ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("mercury-top: {message}");
            if message.contains("disabled") {
                eprintln!(
                    "mercury-top: start the solver with --sample-ms (e.g. 1000) to keep history"
                );
            }
            std::process::ExitCode::FAILURE
        }
    }
}

/// Wall-clock milliseconds since the Unix epoch — the service's sample
/// clock.
fn now_millis() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// One machine's thermal state, reduced from its `temp/<machine>/*`
/// series to the hottest component.
struct MachineHeat {
    machine: String,
    component: String,
    /// Latest bucket maximum, °C.
    latest: f64,
    /// Bucket means across the window, for the sparkline.
    history: Vec<f64>,
}

/// Sorts machine names numeric-aware so `server10` follows `server9`.
fn machine_key(name: &str) -> (String, u64) {
    let digits = name.len() - name.bytes().rev().take_while(u8::is_ascii_digit).count();
    (
        name[..digits].to_string(),
        name[digits..].parse().unwrap_or(0),
    )
}

/// Reduces the downsampled `temp/*` results to one entry per machine
/// (its hottest component), sorted by machine name.
fn reduce_machines(results: &[SeriesResult]) -> Vec<MachineHeat> {
    let mut by_machine: BTreeMap<(String, u64), MachineHeat> = BTreeMap::new();
    for r in results {
        let mut parts = r.name.splitn(3, '/');
        let (Some("temp"), Some(machine), Some(component)) =
            (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        let Some(last) = r.points.last() else {
            continue;
        };
        let heat = MachineHeat {
            machine: machine.to_string(),
            component: component.to_string(),
            latest: last.max,
            history: r.points.iter().map(|p| p.mean).collect(),
        };
        match by_machine.entry(machine_key(machine)) {
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(heat);
            }
            std::collections::btree_map::Entry::Occupied(mut slot) => {
                if heat.latest > slot.get().latest {
                    slot.insert(heat);
                }
            }
        }
    }
    by_machine.into_values().collect()
}

/// Heatmap shade for a temperature.
fn shade(celsius: f64) -> char {
    match celsius {
        c if c < 30.0 => '·',
        c if c < 45.0 => '░',
        c if c < 55.0 => '▒',
        c if c < 65.0 => '▓',
        _ => '█',
    }
}

/// A sparkline over the series' own min..max range (flat series render
/// as a mid-level bar).
fn sparkline(history: &[f64]) -> String {
    let finite: Vec<f64> = history.iter().copied().filter(|v| v.is_finite()).collect();
    let (lo, hi) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    history
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                return '?';
            }
            if hi - lo < 1e-9 {
                return SPARK[3];
            }
            let idx = ((v - lo) / (hi - lo) * (SPARK.len() - 1) as f64).round() as usize;
            SPARK[idx.min(SPARK.len() - 1)]
        })
        .collect()
}

/// Sums per-second rates per counter family (the series name up to its
/// label block), from a `Rate` query whose step spans the window.
fn family_rates(results: &[SeriesResult]) -> BTreeMap<String, f64> {
    let mut families: BTreeMap<String, f64> = BTreeMap::new();
    for r in results {
        let family = r.name.split('{').next().unwrap_or(&r.name).to_string();
        // Rate buckets are increase per millisecond (the sample clock).
        let per_s = r.points.last().map_or(0.0, |p| p.mean * 1000.0);
        *families.entry(family).or_insert(0.0) += per_s;
    }
    families
}

fn query(
    solver: SocketAddr,
    pattern: &str,
    kind: QueryKind,
    window_ms: u64,
    step: u64,
) -> Result<(Vec<SeriesResult>, bool), String> {
    let now = now_millis();
    let request = Request::SeriesQuery {
        pattern: pattern.to_string(),
        start: now.saturating_sub(window_ms),
        end: u64::MAX,
        step: step.max(1),
        kind,
    };
    let fetch =
        fetch_multipart(solver, &request, Duration::from_secs(2)).map_err(|e| e.to_string())?;
    let results = parse_results(&fetch.text)?;
    Ok((results, fetch.is_complete()))
}

/// Renders one frame to stdout. Returns whether every reply datagram
/// arrived.
fn frame(solver: SocketAddr, window_s: u64, top_n: usize) -> Result<bool, String> {
    let window_ms = window_s * 1000;
    let (temps, temps_ok) = query(
        solver,
        "temp/*",
        QueryKind::Downsample,
        window_ms,
        window_ms / BUCKETS,
    )?;
    let (counters, counters_ok) = query(solver, "*_total*", QueryKind::Rate, window_ms, window_ms)?;

    let machines = reduce_machines(&temps);
    println!(
        "mercury-top — {solver} — {} machines, {} temp series, window {window_s} s",
        machines.len(),
        temps.len()
    );
    println!();

    println!("cluster heatmap (one cell per machine, hottest component; · <30°C ░ <45 ▒ <55 ▓ <65 █ ≥65)");
    if machines.is_empty() {
        println!("  (no temp/* series in the window yet — is sampling on and warmed up?)");
    }
    for (row_start, row) in machines
        .chunks(HEAT_ROW)
        .enumerate()
        .map(|(i, c)| (i * HEAT_ROW, c))
    {
        let cells: String = row.iter().map(|m| shade(m.latest)).collect();
        println!("  [{row_start:>4}] {cells}");
    }
    println!();

    println!("hottest machines");
    println!(
        "  {:<18} {:<14} {:>8}   trend over {window_s} s",
        "machine", "component", "now °C"
    );
    let mut hottest: Vec<&MachineHeat> = machines.iter().collect();
    hottest.sort_by(|a, b| b.latest.total_cmp(&a.latest));
    for m in hottest.iter().take(top_n) {
        println!(
            "  {:<18} {:<14} {:>8.1}   {}",
            m.machine,
            m.component,
            m.latest,
            sparkline(&m.history)
        );
    }
    println!();

    let rates = family_rates(&counters);
    println!("activity (per second over the window)");
    if rates.is_empty() {
        println!("  (no counter series sampled yet)");
    }
    for (family, rate) in &rates {
        println!("  {family:<52} {rate:>10.3}/s");
    }
    let freon_rate = |family: &str| {
        rates
            .get(family)
            .map_or("-".to_string(), |r| format!("{r:.3}/s"))
    };
    println!(
        "  freon: decisions {}, trend anomalies {}",
        freon_rate("mercury_freon_decisions_total"),
        freon_rate("mercury_freon_trend_anomalies_total")
    );

    Ok(temps_ok && counters_ok)
}

fn run() -> Result<std::process::ExitCode, String> {
    let args = Args::parse(std::env::args().skip(1));
    let solver = resolve(args.require("solver")?)?;
    let interval: f64 = args
        .value("interval")
        .unwrap_or("2")
        .parse()
        .map_err(|_| "--interval wants seconds".to_string())?;
    let window_s: u64 = args
        .value("window")
        .unwrap_or("120")
        .parse()
        .map_err(|_| "--window wants whole seconds".to_string())?;
    let top_n: usize = args
        .value("top")
        .unwrap_or("8")
        .parse()
        .map_err(|_| "--top wants an integer".to_string())?;
    let window_s = window_s.max(1);

    if args.has("once") {
        let complete = frame(solver, window_s, top_n)?;
        if !complete {
            eprintln!("mercury-top: warning: some reply datagrams were lost");
        }
        return Ok(if complete {
            std::process::ExitCode::SUCCESS
        } else {
            std::process::ExitCode::from(2)
        });
    }

    loop {
        // Clear and home, then draw the frame in one go.
        print!("\x1b[2J\x1b[H");
        if let Err(message) = frame(solver, window_s, top_n) {
            // Transient fetch errors shouldn't kill a live console.
            eprintln!("mercury-top: {message}");
        }
        std::thread::sleep(Duration::from_secs_f64(interval.max(0.1)));
    }
}
