//! `experiments replay` — the fleet-scale `.events` replay harness.
//!
//! Synthesizes (or loads) a 1024-machine `mercury-events-v1` trace,
//! replays it out of core through [`mercury::trace::stream`], cuts it at
//! checkpoint boundaries, replays the segments in parallel, and verifies
//! the segmented run is bit-identical to the serial one. The measured
//! numbers become the `replay` section of `BENCH_solver.json` (written
//! in full by `experiments bench_solver`, spliced in place by this
//! subcommand), with three hard gates from the roadmap:
//!
//! * ≥ 100k machine-ticks/sec sustained wall-clock replay throughput
//!   (a week of a 10k-machine fleet ≈ 6 × 10⁹ machine-ticks);
//! * a flat resident set while replaying — the peak-RSS watermark taken
//!   after the warm-up pass may not grow measurably over the remaining
//!   passes, and the stream's own decode memory must not grow at all;
//! * every parallel time segment ends bit-identical to the serial run.
//!
//! ```text
//! usage: experiments replay [--machines N] [--ticks N] [--passes N]
//!                           [--segments N] [--events FILE]
//!
//!   --machines   fleet size for the synthesized trace (default 1024)
//!   --ticks      ticks per synthesized trace (default 2000)
//!   --passes     replay passes for the throughput measurement (default 3)
//!   --segments   parallel time segments for the equivalence run (default 4)
//!   --events     replay an existing .events file (e.g. from
//!                mercury-traceconv) instead of synthesizing one; machine
//!                names must match validation_cluster(N) (machine1..N)
//! ```
//!
//! An unknown flag, or a flag without its value, is an error.

use crate::common::{measured, verdict};
use mercury::presets;
use mercury::solver::{ClusterSolver, SolverConfig};
use mercury::trace::events;
use mercury::trace::stream::{peak_rss_bytes, ClusterBinding, EventsStream, ReplayMetrics};
use mercury::trace::UtilizationTrace;
use std::path::{Path, PathBuf};
use std::time::Instant;

type Result<T = ()> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Monitored components driven by the synthesized trace.
const COMPONENTS: [&str; 2] = ["cpu", "disk_platters"];
/// Ticks per input-stable block in the synthesized trace — the span
/// length the encoder turns into HOLD records and replay fuses into one
/// `step_for` call.
const BLOCK_TICKS: usize = 30;

/// Everything one harness run measured, for the JSON section and logs.
pub struct ReplayBench {
    pub machines: usize,
    pub ticks: u64,
    pub passes: usize,
    pub segments: usize,
    pub events_bytes: u64,
    pub serial_seconds: f64,
    pub segmented_seconds: f64,
    pub bit_identical: bool,
    pub stream_memory_bytes: usize,
    pub rss_warm_bytes: u64,
    pub rss_end_bytes: u64,
    pub metrics: ReplayMetrics,
}

impl ReplayBench {
    /// Cluster ticks per wall-clock second over the throughput passes.
    pub fn ticks_per_sec(&self) -> f64 {
        self.ticks as f64 * self.passes as f64 / self.serial_seconds
    }

    /// Machine-ticks per wall-clock second — the fleet-scale unit the
    /// ROADMAP's ≥100k gate is expressed in (one cluster tick advances
    /// every machine by one tick).
    pub fn machine_ticks_per_sec(&self) -> f64 {
        self.ticks_per_sec() * self.machines as f64
    }

    /// Peak-RSS growth between the warm-up watermark and the end of the
    /// last pass.
    pub fn rss_growth_bytes(&self) -> u64 {
        self.rss_end_bytes.saturating_sub(self.rss_warm_bytes)
    }

    /// The `"replay"` object for `BENCH_solver.json`.
    pub fn to_json(&self) -> String {
        format!(
            "\"replay\": {{\n    \"model\": \"validation_cluster({})\",\n    \"machines\": {},\n    \"ticks_per_pass\": {},\n    \"passes\": {},\n    \"segments\": {},\n    \"events_bytes\": {},\n    \"serial_seconds\": {:.3},\n    \"ticks_per_sec\": {:.1},\n    \"machine_ticks_per_sec\": {:.1},\n    \"segmented_seconds\": {:.3},\n    \"segments_bit_identical\": {},\n    \"stream_memory_bytes\": {},\n    \"peak_rss_warm_bytes\": {},\n    \"peak_rss_end_bytes\": {},\n    \"rss_growth_bytes\": {}\n  }}",
            self.machines,
            self.machines,
            self.ticks,
            self.passes,
            self.segments,
            self.events_bytes,
            self.serial_seconds,
            self.ticks_per_sec(),
            self.machine_ticks_per_sec(),
            self.segmented_seconds,
            self.bit_identical,
            self.stream_memory_bytes,
            self.rss_warm_bytes,
            self.rss_end_bytes,
            self.rss_growth_bytes()
        )
    }
}

/// Synthesizes a blocky fleet trace — per-machine phase-shifted square
/// waves whose inputs hold for [`BLOCK_TICKS`]-tick spans — and encodes
/// it to `path`.
pub fn synthesize_events(path: &Path, machines: usize, ticks: usize) -> Result<()> {
    let mut traces = Vec::with_capacity(machines);
    for m in 0..machines {
        let mut trace = UtilizationTrace::new(
            format!("machine{}", m + 1),
            1.0,
            COMPONENTS.iter().map(|c| c.to_string()).collect(),
        )?;
        for t in 0..ticks {
            let block = t / BLOCK_TICKS + m % 7;
            let cpu = 0.15 + 0.1 * (block % 8) as f64;
            let disk = 0.9 - 0.1 * (block % 5) as f64;
            trace.push_row(&[cpu, disk])?;
        }
        traces.push(trace);
    }
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    events::encode(&traces, &mut out)?;
    use std::io::Write as _;
    out.flush()?;
    Ok(())
}

fn build_cluster(machines: usize) -> Result<ClusterSolver> {
    Ok(ClusterSolver::new(
        &presets::validation_cluster(machines),
        SolverConfig::default(),
    )?)
}

/// Runs the full harness: segmented-equivalence pass first, then the
/// timed throughput passes over the same file.
pub fn bench_replay(
    events_path: &Path,
    machines: usize,
    passes: usize,
    segments: usize,
) -> Result<ReplayBench> {
    let metrics = ReplayMetrics::new();
    let events_bytes = std::fs::metadata(events_path)?.len();

    // --- pass 0: serial replay, checkpointing at segment boundaries ---
    let mut serial = build_cluster(machines)?;
    let mut stream = EventsStream::open(events_path)?;
    stream.set_metrics(metrics.clone());
    let ticks = stream.header().ticks;
    if ticks < segments as u64 {
        return Err(format!("{ticks}-tick trace cannot be cut into {segments} segments").into());
    }
    let binding = ClusterBinding::new(stream.header(), &serial)?;
    let bounds: Vec<u64> = (0..=segments as u64)
        .map(|i| i * ticks / segments as u64)
        .collect();
    let serial_start = Instant::now();
    let mut blobs = vec![serial.checkpoint()];
    for pair in bounds.windows(2) {
        stream.replay_ticks(&binding, &mut serial, pair[1] - pair[0])?;
        blobs.push(serial.checkpoint());
    }
    let serial_pass_seconds = serial_start.elapsed().as_secs_f64();

    // --- parallel time segments: restore blob i, seek, replay, compare ---
    let segmented_start = Instant::now();
    // Worker errors cross the thread boundary as strings (`Box<dyn
    // Error>` is not `Send`).
    let ends: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .windows(2)
            .enumerate()
            .map(|(i, pair)| {
                let (start, end) = (pair[0], pair[1]);
                let blob = &blobs[i];
                let metrics = &metrics;
                scope.spawn(move || -> std::result::Result<Vec<u8>, String> {
                    let run = || -> Result<Vec<u8>> {
                        let mut cluster = build_cluster(machines)?;
                        cluster.restore_checkpoint(blob)?;
                        let mut stream = EventsStream::open(events_path)?;
                        stream.set_metrics(metrics.clone());
                        let binding = ClusterBinding::new(stream.header(), &cluster)?;
                        stream.seek(start)?;
                        stream.replay_ticks(&binding, &mut cluster, end - start)?;
                        Ok(cluster.checkpoint())
                    };
                    run().map_err(|e| format!("segment {i}: {e}"))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("segment worker panicked"))
            .collect::<std::result::Result<Vec<_>, String>>()
    })?;
    let segmented_seconds = segmented_start.elapsed().as_secs_f64();
    let bit_identical = ends.iter().enumerate().all(|(i, end)| *end == blobs[i + 1]);

    // --- throughput passes: repeat the trace through one hot cluster ---
    // Pass 1 above already warmed the page cache, the batch plan, and
    // the allocator; watermark now, then require the remaining passes to
    // leave both the stream memory and the process peak RSS flat.
    let rss_warm_bytes = peak_rss_bytes().unwrap_or(0);
    let mut stream_memory_bytes = 0usize;
    let timed_start = Instant::now();
    for _ in 0..passes {
        let mut stream = EventsStream::open(events_path)?;
        stream.set_metrics(metrics.clone());
        let flat = stream.memory_bytes();
        stream.replay(&binding, &mut serial)?;
        if stream.memory_bytes() != flat {
            return Err("stream decode memory grew during replay".into());
        }
        stream_memory_bytes = flat;
    }
    let serial_seconds = timed_start.elapsed().as_secs_f64();
    let rss_end_bytes = peak_rss_bytes().unwrap_or(0);
    let _ = serial_pass_seconds;

    Ok(ReplayBench {
        machines,
        ticks,
        passes,
        segments,
        events_bytes,
        serial_seconds,
        segmented_seconds,
        bit_identical,
        stream_memory_bytes,
        rss_warm_bytes,
        rss_end_bytes,
        metrics,
    })
}

/// Hard-gates the bench against the roadmap's acceptance criteria.
/// Returns an error (failing the harness) when a gate is missed.
pub fn gate(bench: &ReplayBench) -> Result {
    let mtps = bench.machine_ticks_per_sec();
    verdict(
        mtps >= 100_000.0,
        &format!("replay sustains {mtps:.0} machine-ticks/s (gate: ≥100000)"),
    );
    if mtps < 100_000.0 {
        return Err(
            format!("replay throughput {mtps:.0} machine-ticks/s is below the 100k gate").into(),
        );
    }
    let growth = bench.rss_growth_bytes();
    let budget = 16 * 1024 * 1024;
    verdict(
        growth <= budget,
        &format!(
            "peak RSS grew {growth} bytes across {} passes (budget {budget})",
            bench.passes
        ),
    );
    if growth > budget {
        return Err(format!("replay RSS grew {growth} bytes — memory is not flat").into());
    }
    verdict(
        bench.bit_identical,
        "parallel time segments end bit-identical to the serial replay",
    );
    if !bench.bit_identical {
        return Err("segmented replay diverged from the serial run".into());
    }
    Ok(())
}

/// Splices `"replay": {...}` into an existing `BENCH_solver.json`
/// (replacing the old section or inserting before the closing brace), or
/// creates a minimal file when none exists.
fn splice_bench_json(section: &str) -> std::io::Result<()> {
    let path = "BENCH_solver.json";
    let json = match std::fs::read_to_string(path) {
        Ok(text) => {
            let anchor = "  \"replay\": {";
            if let Some(start) = text.find(anchor) {
                // Sections are written with two-space indent, so the
                // first "\n  }" after the anchor closes the object.
                let close = text[start..]
                    .find("\n  }")
                    .map(|o| start + o + "\n  }".len())
                    .unwrap_or(text.len());
                format!("{}  {}{}", &text[..start], section, &text[close..])
            } else if let Some(end) = text.rfind("\n}") {
                format!("{},\n  {}{}", &text[..end], section, &text[end..])
            } else {
                format!("{{\n  {section}\n}}\n")
            }
        }
        Err(_) => format!("{{\n  {section}\n}}\n"),
    };
    std::fs::write(path, json)
}

/// What `experiments replay` was asked to do.
#[derive(Debug, PartialEq)]
struct ReplayArgs {
    machines: usize,
    ticks: usize,
    passes: usize,
    segments: usize,
    events: Option<PathBuf>,
}

impl ReplayArgs {
    /// Parses `--flag value` pairs. A flag the subcommand does not take,
    /// a flag without its value and a count that is not a number are
    /// errors that name the flag.
    fn parse(args: &[String]) -> Result<Self> {
        let mut parsed = ReplayArgs {
            machines: 1024,
            ticks: 2000,
            passes: 3,
            segments: 4,
            events: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let flag = flag.as_str();
            if !matches!(
                flag,
                "--machines" | "--ticks" | "--passes" | "--segments" | "--events"
            ) {
                return Err(format!("unknown replay flag `{flag}`").into());
            }
            let value = it
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("replay flag `{flag}` needs a value"))?;
            let count = || -> Result<usize> {
                value
                    .parse()
                    .map_err(|_| format!("{flag} `{value}` is not a number").into())
            };
            match flag {
                "--machines" => parsed.machines = count()?,
                "--ticks" => parsed.ticks = count()?,
                "--passes" => parsed.passes = count()?.max(1),
                "--segments" => parsed.segments = count()?.max(1),
                _ => parsed.events = Some(PathBuf::from(value)),
            }
        }
        if parsed.machines == 0 || parsed.ticks == 0 {
            return Err("--machines and --ticks must be positive".into());
        }
        Ok(parsed)
    }
}

/// The `experiments replay` subcommand.
pub fn replay(args: &[String]) -> Result {
    let ReplayArgs {
        machines,
        ticks,
        passes,
        segments,
        events,
    } = ReplayArgs::parse(args)?;

    let (events_path, _cleanup): (PathBuf, Option<TempFile>) = match events {
        Some(path) => (path, None),
        None => {
            let path = std::env::temp_dir().join(format!(
                "mercury-replay-{}-{machines}x{ticks}.events",
                std::process::id()
            ));
            println!(
                "synthesizing {machines}-machine x {ticks}-tick trace at {}",
                path.display()
            );
            synthesize_events(&path, machines, ticks)?;
            (path.clone(), Some(TempFile(path)))
        }
    };

    let bench = bench_replay(&events_path, machines, passes, segments)?;
    measured(&format!(
        "{} machines x {} ticks x {} passes in {:.2} s: {:.0} cluster ticks/s, {:.2}M machine-ticks/s",
        bench.machines,
        bench.ticks,
        bench.passes,
        bench.serial_seconds,
        bench.ticks_per_sec(),
        bench.machine_ticks_per_sec() / 1e6,
    ));
    measured(&format!(
        "{} parallel segments in {:.2} s (serial pass baseline above); stream decode memory {} bytes",
        bench.segments, bench.segmented_seconds, bench.stream_memory_bytes,
    ));

    // Export the replay telemetry the way a service would: register the
    // bundle and render the exposition text mercury-stats scrapes.
    let registry = telemetry::Registry::new();
    bench.metrics.register(&registry);
    print!("{}", registry.render_prometheus());

    gate(&bench)?;
    splice_bench_json(&bench.to_json())?;
    println!("updated BENCH_solver.json (replay section)");
    Ok(())
}

/// Deletes the synthesized trace on exit, pass or fail.
struct TempFile(PathBuf);
impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    fn error(args: &[&str]) -> String {
        ReplayArgs::parse(&words(args)).unwrap_err().to_string()
    }

    #[test]
    fn flags_parse_with_their_defaults() {
        let parsed = ReplayArgs::parse(&words(&["--machines", "64", "--segments", "0"])).unwrap();
        assert_eq!(
            parsed,
            ReplayArgs {
                machines: 64,
                ticks: 2000,
                passes: 3,
                segments: 1,
                events: None,
            }
        );
        let parsed = ReplayArgs::parse(&words(&["--events", "fleet.events"])).unwrap();
        assert_eq!(parsed.events, Some(PathBuf::from("fleet.events")));
    }

    #[test]
    fn an_unknown_flag_is_rejected_by_name() {
        assert_eq!(
            error(&["--machines", "64", "--threads", "2"]),
            "unknown replay flag `--threads`"
        );
        assert_eq!(error(&["64"]), "unknown replay flag `64`");
    }

    #[test]
    fn a_flag_without_its_value_is_rejected_by_name() {
        assert_eq!(
            error(&["--machines", "64", "--segments"]),
            "replay flag `--segments` needs a value"
        );
        assert_eq!(
            error(&["--events", "--ticks", "10"]),
            "replay flag `--events` needs a value"
        );
        assert_eq!(error(&["--ticks", "ten"]), "--ticks `ten` is not a number");
    }
}
