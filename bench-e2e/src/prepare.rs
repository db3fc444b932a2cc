//! `prepare`: the deterministic corpus builder.
//!
//! Every input a workload reads is made here from `--seed`, written
//! under `<target>/bench-e2e/<seed>/`, and only ever read by the
//! program under test ("preprocess once into a little-endian file, then
//! replay"). `events::encode` wants whole `UtilizationTrace`s in
//! memory, so `prepare` runs as its own process: that memory never
//! counts in a workload's `peak_rss_mb`. A manifest of FNV-1a file
//! hashes makes the cache self-checking and lets two commits show they
//! read the same bytes (`prepare.corpus_hash48`).

use crate::catalogue::{FREON_CLOSED_LOOP, NET_LIVE, REPLAY_CHURN, REPLAY_STEADY};
use crate::sizes::Sizes;
use crate::stats::{fnv1a, Fnv1a, SplitMix64};
use mercury::presets::{nodes, FAN_CFM};
use mercury::trace::{events, UtilizationTrace};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload_gen::{DiurnalProfile, RequestMix, WorkloadGenerator, WorkloadTrace};

type Result<T = ()> = std::result::Result<T, Box<dyn std::error::Error>>;

/// The monitored components every `.events` corpus drives.
pub const COMPONENTS: [&str; 2] = [nodes::CPU, nodes::DISK_PLATTERS];

/// Inlet temperature of a fiddled machine, °C (the paper's machine 1).
pub const EMERGENCY_INLET_C: f64 = 38.6;

/// A verified corpus on disk.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Directory holding the files.
    pub dir: PathBuf,
    /// FNV-1a over the manifest's file hashes, in file-name order.
    pub hash: u64,
    /// Total bytes of the corpus files.
    pub bytes: u64,
    /// Seconds the `prepare` child took; 0 when the cache was valid.
    pub generated_s: f64,
}

impl Corpus {
    /// Path of one corpus file.
    #[must_use]
    pub fn file(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

/// Where the corpus of `seed` lives under `root`.
#[must_use]
pub fn data_dir(root: &Path, seed: u64, smoke: bool) -> PathBuf {
    root.join(if smoke {
        format!("{seed}-smoke")
    } else {
        seed.to_string()
    })
}

fn manifest_path(dir: &Path, workload: &str) -> PathBuf {
    dir.join(format!("{workload}.manifest"))
}

/// The paper's request mix at a diurnal load peaking at 70 % CPU
/// utilisation across `machines` servers.
fn diurnal_trace(seed: u64, machines: usize, cycle_s: u64, duration_s: u64) -> WorkloadTrace {
    let mix = RequestMix::paper();
    let peak = mix.rps_for_cpu_utilization(0.7, machines, 1000.0);
    let profile = DiurnalProfile::new(cycle_s as f64, peak * 0.15, peak).with_peak_at(0.65);
    WorkloadGenerator::new(profile, mix, seed).generate(duration_s)
}

/// A diurnal utilisation curve in `[0, 1]`, one value per `interval_s`.
fn diurnal_series(seed: u64, buckets: usize, interval_s: u64) -> Vec<f64> {
    let duration = buckets as u64 * interval_s;
    let trace = diurnal_trace(seed, 4, (duration / 3).max(1), duration);
    let peak = RequestMix::paper().rps_for_cpu_utilization(1.0, 4, 1000.0);
    trace.utilization_series(interval_s, peak)
}

/// Name of machine `index` in every preset cluster (`machine1`…).
#[must_use]
pub fn machine_name(index: usize) -> String {
    format!("machine{}", index + 1)
}

fn write_events(path: &Path, traces: &[UtilizationTrace]) -> Result {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    events::encode(traces, &mut out)?;
    out.flush()?;
    Ok(())
}

/// The steady corpus cell `(machine, tick, component)` before
/// quantisation: a diurnal curve held for `span` ticks, phase-shifted
/// per machine in whole spans so the fleet's inputs change together and
/// the replay fuses `span − 1` of every `span` ticks.
#[must_use]
pub fn steady_value(
    series: &[f64],
    jitter: &[f64],
    span: usize,
    m: usize,
    t: usize,
    c: usize,
) -> f64 {
    let u = series[(t / span + m % 11) % series.len()];
    let v = match c {
        0 => u + jitter[m],
        _ => 0.15 + 0.6 * u - jitter[m],
    };
    v.clamp(0.0, 1.0)
}

/// The per-machine offsets and diurnal curve behind [`steady_value`].
#[must_use]
pub fn steady_inputs(seed: u64, sizes: &Sizes) -> (Vec<f64>, Vec<f64>) {
    let series = diurnal_series(
        seed,
        sizes.steady_ticks / sizes.steady_span,
        sizes.steady_span as u64,
    );
    let mut rng = SplitMix64::new(seed ^ 0x5ead_1e55);
    let jitter = (0..sizes.replay_machines)
        .map(|_| (rng.next_f64() - 0.5) * 0.1)
        .collect();
    (series, jitter)
}

/// The first `ticks` ticks of the churn corpus: a fresh value in every
/// cell on every tick, tick-major (`[tick][machine][component]`), so a
/// check of the leading ticks need not materialise the rest.
#[must_use]
pub fn churn_values(seed: u64, sizes: &Sizes, ticks: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed ^ 0xc4u64.rotate_left(40));
    (0..ticks * sizes.replay_machines * COMPONENTS.len())
        .map(|_| 0.05 + 0.9 * rng.next_f64())
        .collect()
}

/// Index of cell `(machine, tick, component)` in [`churn_values`].
#[must_use]
pub fn churn_index(sizes: &Sizes, m: usize, t: usize, c: usize) -> usize {
    (t * sizes.replay_machines + m) * COMPONENTS.len() + c
}

fn components() -> Vec<String> {
    COMPONENTS.iter().map(|c| (*c).to_string()).collect()
}

fn generate_freon(seed: u64, sizes: &Sizes, dir: &Path) -> Result<Vec<&'static str>> {
    let trace = diurnal_trace(
        seed,
        sizes.freon_machines,
        sizes.freon_cycle_s,
        sizes.freon_duration_s(),
    );
    std::fs::write(dir.join("freon.trace.json"), trace.to_json())?;
    let mut script = format!("#!/bin/bash\nsleep {}\n", sizes.freon_fiddle_at_s);
    for m in (0..sizes.freon_machines).step_by(8) {
        let _ = writeln!(
            script,
            "fiddle {} temperature {} {EMERGENCY_INLET_C}",
            machine_name(m),
            nodes::INLET
        );
    }
    std::fs::write(dir.join("freon.fiddle"), script)?;
    Ok(vec!["freon.trace.json", "freon.fiddle"])
}

fn generate_net(seed: u64, sizes: &Sizes, dir: &Path) -> Result<Vec<&'static str>> {
    let series = diurnal_series(seed, sizes.net_corpus_ticks, 1);
    let traces = (0..sizes.net_machines)
        .map(|m| {
            UtilizationTrace::from_fn(
                machine_name(m),
                1.0,
                components(),
                sizes.net_corpus_ticks,
                |t, c| {
                    let t = t as usize;
                    match c {
                        0 => series[(t + 7 * m) % series.len()],
                        _ => 0.1 + 0.6 * series[(t + 13 * m) % series.len()],
                    }
                },
            )
        })
        .collect::<std::result::Result<Vec<_>, _>>()?;
    write_events(&dir.join("net.events"), &traces)?;
    Ok(vec!["net.events"])
}

fn generate_steady(seed: u64, sizes: &Sizes, dir: &Path) -> Result<Vec<&'static str>> {
    let (series, jitter) = steady_inputs(seed, sizes);
    let traces = (0..sizes.replay_machines)
        .map(|m| {
            UtilizationTrace::from_fn(
                machine_name(m),
                1.0,
                components(),
                sizes.steady_ticks,
                |t, c| steady_value(&series, &jitter, sizes.steady_span, m, t as usize, c),
            )
        })
        .collect::<std::result::Result<Vec<_>, _>>()?;
    write_events(&dir.join("steady.events"), &traces)?;
    Ok(vec!["steady.events"])
}

fn generate_churn(seed: u64, sizes: &Sizes, dir: &Path) -> Result<Vec<&'static str>> {
    let values = churn_values(seed, sizes, sizes.churn_ticks);
    let traces = (0..sizes.replay_machines)
        .map(|m| {
            UtilizationTrace::from_fn(
                machine_name(m),
                1.0,
                components(),
                sizes.churn_ticks,
                |t, c| values[churn_index(sizes, m, t as usize, c)],
            )
        })
        .collect::<std::result::Result<Vec<_>, _>>()?;
    write_events(&dir.join("churn.events"), &traces)?;

    // Fan re-commands: the same machines every time (they stay on the
    // sticky solo path), a different speed each time (every command
    // recompiles that machine's flows).
    let stride = (sizes.replay_machines / sizes.churn_fiddle_machines).max(1);
    let mut rng = SplitMix64::new(seed ^ 0xfa4);
    let mut script = String::from("#!/bin/bash\n");
    for _ in (0..sizes.churn_ticks).step_by(sizes.churn_fiddle_every) {
        for g in 0..sizes.churn_fiddle_machines {
            let cfm = FAN_CFM * (0.7 + 0.6 * rng.next_f64());
            let _ = writeln!(
                script,
                "fiddle {} fanspeed {cfm:.3}",
                machine_name(g * stride)
            );
        }
        let _ = writeln!(script, "sleep {}", sizes.churn_fiddle_every);
    }
    std::fs::write(dir.join("churn.fiddle"), script)?;
    Ok(vec!["churn.events", "churn.fiddle"])
}

/// Generates the corpus of `workload` into `dir` and writes its
/// manifest last, so a manifest on disk means the files before it are
/// complete.
///
/// # Errors
///
/// Unknown workloads, encoder errors and filesystem errors.
pub fn generate(workload: &str, seed: u64, sizes: &Sizes, dir: &Path) -> Result {
    std::fs::create_dir_all(dir)?;
    let files = match workload {
        FREON_CLOSED_LOOP => generate_freon(seed, sizes, dir)?,
        NET_LIVE => generate_net(seed, sizes, dir)?,
        REPLAY_STEADY => generate_steady(seed, sizes, dir)?,
        REPLAY_CHURN => generate_churn(seed, sizes, dir)?,
        other => return Err(format!("unknown workload `{other}`").into()),
    };
    let mut manifest = format!("sizes {:016x}\n", sizes_hash(sizes));
    for name in files {
        let bytes = std::fs::read(dir.join(name))?;
        let _ = writeln!(manifest, "{:016x} {} {name}", fnv1a(&bytes), bytes.len());
    }
    let path = manifest_path(dir, workload);
    let tmp = path.with_extension("manifest.tmp");
    std::fs::write(&tmp, manifest)?;
    std::fs::rename(&tmp, &path)?;
    Ok(())
}

/// Bump when a generator's output changes for unchanged sizes, so a
/// corpus cached by an older build of the benchmark is regenerated.
const GENERATOR_REVISION: u32 = 2;

fn sizes_hash(sizes: &Sizes) -> u64 {
    fnv1a(format!("{GENERATOR_REVISION} {sizes:?}").as_bytes())
}

/// Re-hashes every file the manifest lists; `None` when anything is
/// missing, resized, altered, or was generated for other sizes.
fn verify(workload: &str, sizes: &Sizes, dir: &Path) -> Option<(u64, u64)> {
    let manifest = std::fs::read_to_string(manifest_path(dir, workload)).ok()?;
    let mut lines = manifest.lines();
    if lines.next()? != format!("sizes {:016x}", sizes_hash(sizes)) {
        return None;
    }
    let mut combined = Fnv1a::default();
    let mut total = 0u64;
    for line in lines {
        let mut fields = line.splitn(3, ' ');
        let hash = u64::from_str_radix(fields.next()?, 16).ok()?;
        let len: u64 = fields.next()?.parse().ok()?;
        let bytes = std::fs::read(dir.join(fields.next()?)).ok()?;
        if bytes.len() as u64 != len || fnv1a(&bytes) != hash {
            return None;
        }
        combined.write_u64(hash);
        total += len;
    }
    Some((combined.finish(), total))
}

/// Makes sure the corpus of `workload` exists and matches its
/// manifest, running `prepare` in a child process when it does not.
///
/// # Errors
///
/// A `prepare` child that cannot be started or fails, or a corpus that
/// still does not verify afterwards.
pub fn ensure(workload: &str, seed: u64, smoke: bool, root: &Path) -> Result<Corpus> {
    let sizes = Sizes::of(smoke);
    let dir = data_dir(root, seed, smoke);
    let mut generated_s = 0.0;
    let verified = match verify(workload, sizes, &dir) {
        Some(ok) => ok,
        None => {
            let started = Instant::now();
            let mut child = std::process::Command::new(std::env::current_exe()?);
            child
                .arg("prepare")
                .args(["--workload", workload])
                .args(["--seed", &seed.to_string()])
                .arg("--data-root")
                .arg(root);
            if smoke {
                child.arg("--smoke");
            }
            let status = child.status()?;
            if !status.success() {
                return Err(format!("prepare for `{workload}` exited with {status}").into());
            }
            generated_s = started.elapsed().as_secs_f64();
            verify(workload, sizes, &dir)
                .ok_or_else(|| format!("corpus of `{workload}` does not match its manifest"))?
        }
    };
    Ok(Corpus {
        dir,
        hash: verified.0,
        bytes: verified.1,
        generated_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bench-e2e-prepare-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn corpora_are_a_function_of_the_seed() {
        let sizes = Sizes::of(true);
        let (a, b, c) = (scratch("a"), scratch("b"), scratch("c"));
        for w in [FREON_CLOSED_LOOP, NET_LIVE, REPLAY_STEADY, REPLAY_CHURN] {
            generate(w, 7, sizes, &a).unwrap();
            generate(w, 7, sizes, &b).unwrap();
            generate(w, 8, sizes, &c).unwrap();
            let same = verify(w, sizes, &a).unwrap();
            assert_eq!(same, verify(w, sizes, &b).unwrap(), "{w}");
            assert_ne!(same.0, verify(w, sizes, &c).unwrap().0, "{w}");
        }
        for d in [a, b, c] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn a_touched_corpus_no_longer_verifies() {
        let sizes = Sizes::of(true);
        let dir = scratch("touched");
        generate(REPLAY_CHURN, 3, sizes, &dir).unwrap();
        assert!(verify(REPLAY_CHURN, sizes, &dir).is_some());
        assert!(verify(REPLAY_CHURN, &Sizes::FULL, &dir).is_none());
        let path = dir.join("churn.events");
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 1;
        std::fs::write(&path, bytes).unwrap();
        assert!(verify(REPLAY_CHURN, sizes, &dir).is_none());
        assert!(verify(REPLAY_STEADY, sizes, &dir).is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn steady_spans_hold_and_churn_cells_move() {
        let sizes = Sizes::of(true);
        let (series, jitter) = steady_inputs(5, sizes);
        for m in [0, 7, sizes.replay_machines - 1] {
            for t in 0..sizes.steady_ticks {
                let block_start = t - t % sizes.steady_span;
                for c in 0..2 {
                    assert_eq!(
                        steady_value(&series, &jitter, sizes.steady_span, m, t, c),
                        steady_value(&series, &jitter, sizes.steady_span, m, block_start, c)
                    );
                }
            }
        }
        let churn = churn_values(5, sizes, sizes.churn_ticks);
        assert_eq!(churn[..200], churn_values(5, sizes, 10)[..200]);
        let cells = sizes.replay_machines * COMPONENTS.len();
        let held = (cells..churn.len())
            .filter(|&i| events::quantize(churn[i]) == events::quantize(churn[i - cells]))
            .count();
        assert!(
            held <= 4,
            "{held} of {} cells held their value",
            churn.len()
        );
    }
}
