//! `mercury-stats` — scrape and pretty-print a running solver's
//! telemetry.
//!
//! ```text
//! usage: mercury-stats --solver HOST:PORT [--raw] [--watch SECONDS]
//!
//!   --raw    print the Prometheus text exposition verbatim (pipe it to
//!            a file and point a Prometheus file exporter at it)
//!   --watch  re-scrape every N seconds until interrupted; from the
//!            second frame on, counter families additionally print
//!            their per-interval rate (delta / elapsed)
//! ```
//!
//! The default output groups the scrape by metric family: counters and
//! gauges one per line, histograms as `count / mean / max-bucket`.
//!
//! Scrapes travel as multiple UDP datagrams; when any advertised part
//! fails to arrive the tool warns on stderr and (in one-shot mode)
//! exits with status 2 rather than presenting a truncated document.

use mercury::net::proto::Request;
use mercury::net::{fetch_multipart, MultipartFetch};
use mercury_tools::{resolve, Args};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn main() -> std::process::ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("mercury-stats: {message}");
            std::process::ExitCode::FAILURE
        }
    }
}

/// Sends one scrape request and reassembles the (possibly multi-part)
/// metrics reply.
fn scrape(solver: SocketAddr) -> Result<MultipartFetch, String> {
    fetch_multipart(solver, &Request::Scrape, Duration::from_secs(2)).map_err(|e| e.to_string())
}

fn format_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{{{}}}", inner.join(","))
}

/// One histogram series, reassembled from its `_bucket`/`_sum`/`_count`
/// exposition lines.
#[derive(Default)]
struct HistogramSeries {
    count: f64,
    sum: f64,
    /// `(le, cumulative)` pairs in line order.
    buckets: Vec<(f64, f64)>,
}

impl HistogramSeries {
    /// The smallest finite `le` bound whose cumulative bucket already
    /// holds every sample — an upper bound on the largest observation.
    fn max_le(&self) -> Option<f64> {
        self.buckets
            .iter()
            .filter(|(le, cumulative)| le.is_finite() && *cumulative >= self.count)
            .map(|(le, _)| *le)
            .fold(None, |best, le| Some(best.map_or(le, |b: f64| b.min(le))))
    }
}

fn pretty_print(text: &str) -> Result<(), String> {
    let samples = telemetry::text::parse_exposition(text)
        .map_err(|e| format!("scrape did not parse as Prometheus text: {e}"))?;

    let mut histograms: BTreeMap<String, HistogramSeries> = BTreeMap::new();
    let mut scalars: Vec<(String, f64)> = Vec::new();
    for sample in &samples {
        if let Some(family) = sample.name.strip_suffix("_bucket") {
            let labels: Vec<(String, String)> = sample
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .cloned()
                .collect();
            let series = histograms
                .entry(format!("{family}{}", format_labels(&labels)))
                .or_default();
            let le: f64 = match sample.label("le") {
                Some("+Inf") | None => f64::INFINITY,
                Some(bound) => bound.parse().unwrap_or(f64::INFINITY),
            };
            series.buckets.push((le, sample.value));
            continue;
        }
        if let Some(family) = sample.name.strip_suffix("_sum") {
            let key = format!("{family}{}", format_labels(&sample.labels));
            histograms.entry(key).or_default().sum = sample.value;
            continue;
        }
        if let Some(family) = sample.name.strip_suffix("_count") {
            let key = format!("{family}{}", format_labels(&sample.labels));
            histograms.entry(key).or_default().count = sample.value;
            continue;
        }
        scalars.push((
            format!("{}{}", sample.name, format_labels(&sample.labels)),
            sample.value,
        ));
    }

    for (name, value) in &scalars {
        println!("{name:<70} {value}");
    }
    for (name, series) in &histograms {
        if series.count > 0.0 {
            let mean = series.sum / series.count;
            let max = series
                .max_le()
                .map_or("?".to_string(), |le| format!("{le:.3e}"));
            println!(
                "{name:<70} count={} mean={mean:.3e} max<={max}",
                series.count
            );
        } else {
            println!("{name:<70} count=0");
        }
    }
    Ok(())
}

/// Extracts every counter-family sample (`*_total` counters and
/// histogram `*_count` lines) keyed by `name{labels}`, for rate
/// computation between watch frames.
fn counter_samples(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let samples = telemetry::text::parse_exposition(text)
        .map_err(|e| format!("scrape did not parse as Prometheus text: {e}"))?;
    Ok(samples
        .iter()
        .filter(|s| s.name.ends_with("_total") || s.name.ends_with("_count"))
        .map(|s| (format!("{}{}", s.name, format_labels(&s.labels)), s.value))
        .collect())
}

/// Prints per-second rates for every counter seen this frame, using the
/// previous frame as the baseline (counters new this frame rate from 0).
fn print_rates(now: &BTreeMap<String, f64>, before: &BTreeMap<String, f64>, elapsed: Duration) {
    let dt = elapsed.as_secs_f64();
    if dt <= 0.0 {
        return;
    }
    println!("-- counter rates over the last {dt:.1} s --");
    for (name, value) in now {
        let delta = value - before.get(name).copied().unwrap_or(0.0);
        println!("{name:<70} {:+.3}/s", delta / dt);
    }
}

fn run() -> Result<std::process::ExitCode, String> {
    let args = Args::parse(std::env::args().skip(1));
    let solver = resolve(args.require("solver")?)?;
    let raw = args.has("raw");

    let print = |fetch: &MultipartFetch| -> Result<(), String> {
        if !fetch.is_complete() {
            eprintln!(
                "mercury-stats: warning: incomplete scrape — {}/{} parts arrived (UDP loss)",
                fetch.received, fetch.total
            );
        }
        if raw {
            print!("{}", fetch.text);
            Ok(())
        } else {
            pretty_print(&fetch.text)
        }
    };

    match args.value("watch") {
        None => {
            let fetch = scrape(solver)?;
            print(&fetch)?;
            Ok(if fetch.is_complete() {
                std::process::ExitCode::SUCCESS
            } else {
                std::process::ExitCode::from(2)
            })
        }
        Some(period) => {
            let period: f64 = period
                .parse()
                .map_err(|_| "--watch wants seconds".to_string())?;
            let mut prev: Option<(Instant, BTreeMap<String, f64>)> = None;
            loop {
                let fetch = scrape(solver)?;
                print(&fetch)?;
                if !raw {
                    let counters = counter_samples(&fetch.text)?;
                    let now = Instant::now();
                    if let Some((then, before)) = prev.take() {
                        print_rates(&counters, &before, now - then);
                    }
                    prev = Some((now, counters));
                }
                println!();
                std::thread::sleep(Duration::from_secs_f64(period.max(0.05)));
            }
        }
    }
}
