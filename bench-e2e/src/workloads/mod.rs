//! The four workloads. Each module's `run` sets up [`SETUP_REPEATS`]
//! times, checks the program's outputs, repeats its fixed unit of work
//! for the window, and returns an [`Outcome`].
//!
//! [`SETUP_REPEATS`]: crate::harness::SETUP_REPEATS

pub mod freon_closed_loop;
pub mod net_live;
pub mod replay;

use crate::catalogue::{FREON_CLOSED_LOOP, NET_LIVE, REPLAY_CHURN, REPLAY_STEADY};
use crate::harness::{Result, RunOptions};
use crate::prepare::{data_dir, Corpus};
use crate::report::Outcome;
use crate::spans::SpanTotals;
use crate::stats::{hash48, median};
use std::time::Instant;
use telemetry::{Registry, Tracer};

/// Runs `workload`.
///
/// # Errors
///
/// An unknown workload name, or whatever the workload's layers return.
pub fn run(workload: &str, opts: &RunOptions) -> Result<Outcome> {
    match workload {
        FREON_CLOSED_LOOP => freon_closed_loop::run(opts),
        NET_LIVE => net_live::run(opts),
        REPLAY_STEADY => replay::run(opts, replay::Kind::Steady),
        REPLAY_CHURN => replay::run(opts, replay::Kind::Churn),
        other => Err(format!("unknown workload `{other}`").into()),
    }
}

/// The solver's own tick-phase spans, per unit (`k` units traced).
fn set_solver_phases(out: &mut Outcome, totals: &SpanTotals, k: f64) {
    for (metric, span) in [
        ("core.solver.mix_s", "cluster.mix"),
        ("core.solver.plan_s", "batch.plan"),
        ("core.solver.gather_s", "batch.gather"),
        ("core.solver.sweep_s", "cluster.sweep"),
        ("core.solver.scatter_s", "batch.scatter"),
        ("core.solver.fused_span_s", "cluster.fused_span"),
    ] {
        out.set(metric, totals.total_s(span) / k);
    }
}

/// What the instruments themselves cost: one exposition of `registry`
/// rendered twenty times.
fn set_scrape_cost(out: &mut Outcome, registry: &Registry) {
    let mut bytes = 0;
    let micros: Vec<f64> = (0..20)
        .map(|_| {
            let started = Instant::now();
            bytes = std::hint::black_box(registry.render_prometheus()).len();
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.set(
        "telemetry.render_prometheus_us",
        median(&micros).unwrap_or(0.0),
    );
    out.set("telemetry.scrape_bytes", bytes as f64);
}

/// The closing metrics every traced run owes, and the span file.
fn set_common_traced(
    out: &mut Outcome,
    opts: &RunOptions,
    workload: &str,
    corpus: &Corpus,
    tracer: &Tracer,
    totals: &SpanTotals,
    unit_walls: &[f64],
) -> Result {
    out.set("telemetry.spans_recorded", totals.spans() as f64);
    out.set("telemetry.spans_dropped", tracer.dropped() as f64);
    out.set("prepare.corpus_hash48", hash48(corpus.hash));
    out.set("prepare.corpus_bytes", corpus.bytes as f64);
    out.set("prepare.generate_s", corpus.generated_s);
    out.set("bench.units", unit_walls.len() as f64);
    out.set("bench.unit_wall_s", median(unit_walls).unwrap_or(0.0));
    let path =
        data_dir(&opts.data_root, opts.seed, opts.smoke).join(format!("{workload}.spans.jsonl"));
    std::fs::write(path, totals.tail_jsonl())?;
    Ok(())
}
