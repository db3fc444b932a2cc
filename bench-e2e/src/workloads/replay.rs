//! `replay_steady` and `replay_churn`: the offline trace-driven mode at
//! fleet scale, used two ways.
//!
//! One unit is one pass of the `.events` corpus through
//! `EventsStream` into a freshly built single-threaded
//! `ClusterSolver(validation_cluster(1024))`. *Steady* inputs hold for
//! 30-tick spans, so almost every tick runs inside a fused span and the
//! lane sweep is nearly all the work. *Churn* changes every cell every
//! tick (dense delta frames, no fusion) and re-commands 128 fans every
//! 10 ticks (sticky solo path, flow recompiles), so plan, gather,
//! scatter, the solo kernel and frame decode dominate.

use crate::catalogue::{REPLAY_CHURN, REPLAY_STEADY};
use crate::harness::{
    fast_decile_of, median_of, run_units, timed_setups, HostClock, Result, RunOptions,
};
use crate::prepare::{self, Corpus, COMPONENTS};
use crate::report::Outcome;
use crate::sizes::Sizes;
use crate::spans::{SpanTotals, TRACER_CAPACITY};
use crate::stats::{fnv1a, hash48};
use mercury::fiddle::{FiddleScript, ScriptRunner};
use mercury::model::ClusterModel;
use mercury::presets::{self, nodes};
use mercury::solver::{ClusterMetrics, ClusterSolver, SolverConfig};
use mercury::trace::events::{dequantize, quantize};
use mercury::trace::run_offline;
use mercury::trace::stream::{ClusterBinding, EventsStream, ReplayMetrics};
use mercury::units::{Seconds, Utilization};
use reference_models::microbench::combined_benchmark;
use reference_models::Plant;
use std::path::PathBuf;
use std::time::Instant;
use telemetry::{Registry, Tracer};

/// Which of the two replay workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Inputs hold for whole spans.
    Steady,
    /// Every cell changes every tick; fans are re-commanded.
    Churn,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Steady => REPLAY_STEADY,
            Kind::Churn => REPLAY_CHURN,
        }
    }

    fn ticks(self, sizes: &Sizes) -> usize {
        match self {
            Kind::Steady => sizes.steady_ticks,
            Kind::Churn => sizes.churn_ticks,
        }
    }
}

struct Inputs {
    kind: Kind,
    model: ClusterModel,
    events: PathBuf,
    /// Fan re-commands (churn only).
    script: Option<FiddleScript>,
    binding: ClusterBinding,
    corpus: Corpus,
}

fn build_cluster(model: &ClusterModel, tracer: &Tracer) -> Result<ClusterSolver> {
    let mut cluster = ClusterSolver::new(model, SolverConfig::default())?;
    cluster.set_threads(1);
    cluster.set_tracer(tracer.clone());
    Ok(cluster)
}

/// Applies the fan commands due at tick `t`; returns how many.
fn apply_due(
    runner: &mut Option<ScriptRunner>,
    t: u64,
    cluster: &mut ClusterSolver,
) -> Result<u64> {
    let mut applied = 0;
    if let Some(runner) = runner {
        for command in runner.due(Seconds(t as f64)) {
            command.apply_to_cluster(cluster)?;
            applied += 1;
        }
    }
    Ok(applied)
}

/// One replay in progress: the stream, the fan schedule and the freshly
/// built solver they feed.
struct Replay<'a> {
    inputs: &'a Inputs,
    tracer: &'a Tracer,
    stream: EventsStream,
    runner: Option<ScriptRunner>,
    cluster: ClusterSolver,
    /// Ticks between fan commands (the whole corpus when there are none).
    step: u64,
    /// Next tick to replay.
    at: u64,
    /// Fan commands applied so far.
    fiddles: u64,
}

impl<'a> Replay<'a> {
    fn open(inputs: &'a Inputs, sizes: &Sizes, tracer: &'a Tracer) -> Result<Self> {
        Ok(Replay {
            inputs,
            tracer,
            stream: EventsStream::open(&inputs.events)?,
            runner: inputs.script.as_ref().map(FiddleScript::runner),
            cluster: build_cluster(&inputs.model, tracer)?,
            step: match inputs.kind {
                Kind::Steady => u64::MAX,
                Kind::Churn => sizes.churn_fiddle_every as u64,
            },
            at: 0,
            fiddles: 0,
        })
    }

    /// Replays up to tick `to`: straight through for the steady corpus,
    /// in fiddle-interval steps with the due fan commands before each
    /// for churn. `parent` is the span the `bench.*` spans hang from.
    fn advance_to(&mut self, to: u64, parent: u64) -> Result {
        while self.at < to {
            if self.runner.is_some() {
                let span = self
                    .tracer
                    .start_child("bench.core.fiddle", "bench", parent);
                self.fiddles += apply_due(&mut self.runner, self.at, &mut self.cluster)?;
                self.tracer.end(span);
            }
            let chunk = self.step.min(to - self.at);
            let span = self
                .tracer
                .start_child("bench.trace.replay", "bench", parent);
            let stats = self
                .stream
                .replay_ticks(&self.inputs.binding, &mut self.cluster, chunk)?;
            self.tracer.end(span);
            if stats.ticks != chunk {
                return Err(
                    format!("corpus ended at tick {} of {to}", self.at + stats.ticks).into(),
                );
            }
            self.at += chunk;
        }
        Ok(())
    }

    /// Moves a fresh replay to tick `cut` and into the state `blob` was
    /// saved in there, without replaying what came before.
    fn resume_at(&mut self, cut: u64, blob: &[u8]) -> Result {
        self.cluster.restore_checkpoint(blob)?;
        self.stream.seek(cut)?;
        if let Some(runner) = self.runner.as_mut() {
            // Commands before the cut are part of the restored state.
            let _ = runner.due(Seconds(cut as f64 - 0.5));
        }
        self.at = cut;
        Ok(())
    }
}

fn setup(opts: &RunOptions, sizes: &Sizes, kind: Kind) -> Result<Inputs> {
    let corpus = prepare::ensure(kind.name(), opts.seed, opts.smoke, &opts.data_root)?;
    let (events, script) = match kind {
        Kind::Steady => (corpus.file("steady.events"), None),
        Kind::Churn => (
            corpus.file("churn.events"),
            Some(FiddleScript::parse(&std::fs::read_to_string(
                corpus.file("churn.fiddle"),
            )?)?),
        ),
    };
    let model = presets::validation_cluster(sizes.replay_machines);
    let quiet = Tracer::disabled();
    let binding = ClusterBinding::new(
        EventsStream::open(&events)?.header(),
        &build_cluster(&model, &quiet)?,
    )?;
    let inputs = Inputs {
        kind,
        model,
        events,
        script,
        binding,
        corpus,
    };
    // Warm-up: two spans' worth of ticks page in the map, compile the
    // batch plan and size the scratch buffers.
    let warm = (2 * sizes.steady_span).min(kind.ticks(sizes)) as u64;
    Replay::open(&inputs, sizes, &quiet)?.advance_to(warm, 0)?;
    Ok(inputs)
}

/// One pass and what it left behind.
struct Pass {
    wall_s: f64,
    checkpoint_hash: u64,
    fiddles: u64,
    replay: ReplayMetrics,
    cluster: ClusterMetrics,
    mapped: bool,
    stream_memory_bytes: usize,
}

fn pass(inputs: &Inputs, sizes: &Sizes, tracer: &Tracer) -> Result<Pass> {
    let mut replay = Replay::open(inputs, sizes, tracer)?;
    let metrics = ReplayMetrics::new();
    replay.stream.set_metrics(metrics.clone());
    let ticks = replay.stream.header().ticks;
    let memory_before = replay.stream.memory_bytes();
    let started = Instant::now();
    let unit = tracer.start("bench.unit", "bench");
    replay.advance_to(ticks, unit.id())?;
    tracer.end(unit);
    let wall_s = started.elapsed().as_secs_f64();
    if replay.stream.memory_bytes() != memory_before {
        return Err("stream decode memory grew during replay".into());
    }
    Ok(Pass {
        wall_s,
        checkpoint_hash: fnv1a(&replay.cluster.checkpoint()),
        fiddles: replay.fiddles,
        replay: metrics,
        cluster: replay.cluster.metrics().clone(),
        mapped: replay.stream.is_mapped(),
        stream_memory_bytes: memory_before,
    })
}

/// The leading corpus cells as the encoder stored them, recomputed
/// from the seed rather than decoded from the file.
enum CorpusCells {
    Steady {
        series: Vec<f64>,
        jitter: Vec<f64>,
        span: usize,
    },
    Churn(Vec<f64>),
}

impl CorpusCells {
    fn new(kind: Kind, seed: u64, sizes: &Sizes, ticks: usize) -> Self {
        match kind {
            Kind::Steady => {
                let (series, jitter) = prepare::steady_inputs(seed, sizes);
                CorpusCells::Steady {
                    series,
                    jitter,
                    span: sizes.steady_span,
                }
            }
            Kind::Churn => CorpusCells::Churn(prepare::churn_values(seed, sizes, ticks)),
        }
    }

    fn at(&self, sizes: &Sizes, m: usize, t: usize, c: usize) -> Utilization {
        let raw = match self {
            CorpusCells::Steady {
                series,
                jitter,
                span,
            } => prepare::steady_value(series, jitter, *span, m, t, c),
            CorpusCells::Churn(values) => values[prepare::churn_index(sizes, m, t, c)],
        };
        Utilization::new(dequantize(quantize(raw)))
    }
}

/// Output check: the streamed (fused, changed-cells-only) replay of the
/// first ticks must leave the solver in exactly the state an unfused,
/// per-tick, every-cell replay from memory leaves it in.
fn matches_unfused_reference(inputs: &Inputs, opts: &RunOptions, sizes: &Sizes) -> Result<bool> {
    let ticks = sizes.replay_check_ticks.min(inputs.kind.ticks(sizes));
    let quiet = Tracer::disabled();

    let mut streamed = Replay::open(inputs, sizes, &quiet)?;
    streamed.advance_to(ticks as u64, 0)?;

    let cells = CorpusCells::new(inputs.kind, opts.seed, sizes, ticks);
    let mut reference = build_cluster(&inputs.model, &quiet)?;
    let mut runner = inputs.script.as_ref().map(FiddleScript::runner);
    let node_of: Vec<usize> = COMPONENTS
        .iter()
        .map(|c| {
            reference
                .machine_at(0)
                .node_index(c)
                .ok_or_else(|| format!("no node `{c}`"))
        })
        .collect::<std::result::Result<_, _>>()?;
    for t in 0..ticks {
        apply_due(&mut runner, t as u64, &mut reference)?;
        for m in 0..sizes.replay_machines {
            let machine = reference.machine_at_mut(m);
            for (c, &node) in node_of.iter().enumerate() {
                machine.set_utilization_at(node, cells.at(sizes, m, t, c))?;
            }
        }
        reference.step();
    }
    Ok(streamed.cluster.checkpoint() == reference.checkpoint())
}

/// Save → restore → continue: a solver restored from a checkpoint cut
/// mid-corpus must finish the corpus in the state the original does.
fn checkpoint_round_trip(inputs: &Inputs, sizes: &Sizes, out: &mut Outcome) -> Result {
    let quiet = Tracer::disabled();
    let ticks = inputs.kind.ticks(sizes) as u64;
    let every = sizes.churn_fiddle_every as u64;
    let cut = (ticks / 2) / every * every;

    let mut original = Replay::open(inputs, sizes, &quiet)?;
    original.advance_to(cut, 0)?;

    let started = Instant::now();
    let blob = original.cluster.checkpoint();
    out.set(
        "core.trace.checkpoint_save_s",
        started.elapsed().as_secs_f64(),
    );
    out.set("core.trace.checkpoint_bytes", blob.len() as f64);

    let mut restored = Replay::open(inputs, sizes, &quiet)?;
    let started = Instant::now();
    restored.resume_at(cut, &blob)?;
    out.set(
        "core.trace.checkpoint_restore_s",
        started.elapsed().as_secs_f64(),
    );

    original.advance_to(ticks, 0)?;
    restored.advance_to(ticks, 0)?;
    out.check(
        original.cluster.checkpoint() == restored.cluster.checkpoint(),
        || format!("a solver restored at tick {cut} did not finish the corpus bit-identically"),
    );
    Ok(())
}

fn smooth(series: &[f64], w: usize) -> Vec<f64> {
    let half = w / 2;
    (0..series.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(series.len());
            series[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

/// Mercury (the shipped `validation_machine`) against
/// `reference::Plant` on the combined benchmark, read as figures 7 and
/// 8 are: 61 s centred smoothing, first 120 s skipped. The simulator's
/// error, stated beside its speed.
fn set_model_error(out: &mut Outcome, sizes: &Sizes) -> Result {
    const SKIP: usize = 120;
    let trace = combined_benchmark(sizes.reference_s, 7);
    let plant = Plant::pentium3_testbed(20_061_023).record_sensors(&trace)?;
    let mercury = run_offline(
        &presets::validation_machine(),
        &trace,
        SolverConfig::default(),
        None,
    )?;
    let compare = |plant_column: &str, node: &str| -> Result<(f64, f64)> {
        let p = smooth(&plant.series(plant_column)?, 61);
        let e = smooth(&mercury.series(node)?, 61);
        let diffs: Vec<f64> = p
            .iter()
            .zip(&e)
            .skip(SKIP)
            .map(|(a, b)| (a - b).abs())
            .collect();
        let max = diffs.iter().copied().fold(0.0, f64::max);
        let rmse = (diffs.iter().map(|d| d * d).sum::<f64>() / diffs.len().max(1) as f64).sqrt();
        Ok((max, rmse))
    };
    let (cpu_max, cpu_rmse) = compare("cpu_air", nodes::CPU_AIR)?;
    let (disk_max, _) = compare("disk", nodes::DISK_SHELL)?;
    out.set("reference.model_max_err_c", cpu_max.max(disk_max));
    out.set("reference.cpu_air_max_err_c", cpu_max);
    out.set("reference.disk_max_err_c", disk_max);
    out.set("reference.cpu_air_rmse_c", cpu_rmse);
    Ok(())
}

/// Runs the workload.
///
/// # Errors
///
/// Corpus, stream or solver errors; a failed output check is reported
/// through the outcome, not as an error.
pub fn run(opts: &RunOptions, kind: Kind) -> Result<Outcome> {
    let sizes = Sizes::of(opts.smoke);
    let clock = HostClock::start();
    let mut out = Outcome::new();
    let (inputs, setup_s) = timed_setups(|| setup(opts, sizes, kind))?;
    let ticks = kind.ticks(sizes);
    let machine_ticks = (sizes.replay_machines * ticks) as f64;

    out.check(matches_unfused_reference(&inputs, opts, sizes)?, || {
        format!(
            "streamed replay of the first {} ticks differs from the unfused per-tick replay",
            sizes.replay_check_ticks
        )
    });

    let compare_passes = |out: &mut Outcome, passes: &[&Pass]| {
        let first = passes[0];
        for (i, p) in passes.iter().enumerate() {
            out.check(p.checkpoint_hash == first.checkpoint_hash, || {
                format!(
                    "pass {i} ended at checkpoint {:016x}, pass 0 at {:016x}",
                    p.checkpoint_hash, first.checkpoint_hash
                )
            });
            out.check(p.replay.ticks.get() == ticks as u64, || {
                format!(
                    "pass {i} replayed {} of {ticks} ticks",
                    p.replay.ticks.get()
                )
            });
        }
    };

    if !opts.traced {
        let quiet = Tracer::disabled();
        let passes = run_units(opts.seconds, 1, |_| pass(&inputs, sizes, &quiet))?;
        compare_passes(&mut out, &passes.iter().collect::<Vec<_>>());
        // In trace-driven mode the corpus stands in for monitord: every
        // cell a frame changes is one utilisation update applied.
        let updates = match kind {
            Kind::Steady => machine_ticks * COMPONENTS.len() as f64 / sizes.steady_span as f64,
            Kind::Churn => machine_ticks * COMPONENTS.len() as f64,
        };
        out.set("setup_s", setup_s);
        out.set(
            "machine_seconds_per_s",
            fast_decile_of(&passes, |p| machine_ticks / p.wall_s),
        );
        out.set(
            "requests_per_s",
            fast_decile_of(&passes, |p| updates / p.wall_s),
        );
        clock.finish(false, &mut out);
        return Ok(out);
    }

    // Traced: two passes with the tracer detached give the baseline
    // the overhead is taken against, the rest run under the tracer.
    let quiet = Tracer::disabled();
    let baseline = [pass(&inputs, sizes, &quiet)?, pass(&inputs, sizes, &quiet)?];
    let baseline_s = baseline[0].wall_s + baseline[1].wall_s;
    let tracer = Tracer::new(TRACER_CAPACITY);
    let mut totals = SpanTotals::new();
    let passes = run_units((opts.seconds - baseline_s).max(0.0), 1, |_| {
        let p = pass(&inputs, sizes, &tracer)?;
        totals.absorb(&tracer);
        Ok(p)
    })?;
    compare_passes(
        &mut out,
        &baseline.iter().chain(&passes).collect::<Vec<_>>(),
    );
    let k = passes.len() as f64;
    let per_unit = |name: &str| totals.total_s(name) / k;
    let first = &passes[0];

    // A decode-only pass: seek to the end without stepping a solver.
    let mut stream = EventsStream::open(&inputs.events)?;
    let started = Instant::now();
    stream.seek(ticks as u64)?;
    let decode_s = started.elapsed().as_secs_f64();
    let events_bytes = std::fs::metadata(&inputs.events)?.len();

    let solver_s = per_unit("cluster.tick") + per_unit("cluster.fused_span");
    let replay_s = per_unit("bench.trace.replay");
    out.set("core.solver.step_s", solver_s);
    out.set(
        "core.solver.ns_per_machine_tick",
        solver_s * 1e9 / machine_ticks,
    );
    // What `EventsStream::replay` spends outside the solver's own spans
    // and outside decoding is pushing changed cells into the solvers.
    out.set(
        "core.solver.set_inputs_s",
        (replay_s - solver_s - decode_s).max(0.0),
    );
    super::set_solver_phases(&mut out, &totals, k);
    let cm = &first.cluster;
    out.set("core.solver.ticks", cm.ticks.get() as f64);
    out.set("core.solver.fused_ticks", cm.fused_ticks.get() as f64);
    out.set("core.solver.substeps", cm.solver.substeps.get() as f64);
    out.set(
        "core.solver.flow_recomputes",
        cm.solver.flow_recomputes.get() as f64,
    );
    out.set("core.solver.solo_machines", cm.solo_machines.get());
    out.set("core.solver.solo_demotions", cm.solo_demotions.get() as f64);
    out.set(
        "core.solver.simd_lane_width",
        cm.solver.simd_lane_width.get(),
    );
    out.set(
        "core.solver.checkpoint_hash48",
        hash48(first.checkpoint_hash),
    );

    out.set("core.trace.decode_s", decode_s);
    out.set(
        "core.trace.frames_decoded",
        first.replay.frames_decoded.get() as f64,
    );
    out.set("core.trace.spans", first.replay.spans.get() as f64);
    out.set("core.trace.ticks", first.replay.ticks.get() as f64);
    out.set("core.trace.events_bytes", events_bytes as f64);
    out.set(
        "core.trace.bytes_per_machine_tick",
        events_bytes as f64 / machine_ticks,
    );
    out.set("core.trace.mapped", f64::from(u8::from(first.mapped)));
    out.set(
        "core.trace.stream_memory_bytes",
        first.stream_memory_bytes as f64,
    );
    checkpoint_round_trip(&inputs, sizes, &mut out)?;
    out.set("core.solver.fan_commands", first.fiddles as f64);

    if kind == Kind::Steady {
        set_model_error(&mut out, sizes)?;
    }

    let traced_wall = median_of(&passes, |p| p.wall_s);
    out.set(
        "telemetry.trace_overhead_pct",
        (traced_wall / median_of(&baseline, |p| p.wall_s) - 1.0) * 100.0,
    );
    out.set("telemetry.accounted_pct", totals.covered_pct("bench.unit"));
    let registry = Registry::new();
    first.cluster.register(&registry);
    first.replay.register(&registry);
    super::set_scrape_cost(&mut out, &registry);
    super::set_common_traced(
        &mut out,
        opts,
        kind.name(),
        &inputs.corpus,
        &tracer,
        &totals,
        &passes.iter().map(|p| p.wall_s).collect::<Vec<_>>(),
    )?;
    clock.finish(true, &mut out);
    Ok(out)
}
