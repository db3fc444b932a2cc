//! Every workload and metric the benchmark knows, in one table.
//!
//! `BENCHMARK.json` repeats this table for the driver; the
//! `benchmark_json_matches_the_catalogue` test keeps the two equal, and
//! the reporter refuses a metric that is not listed here, so a name can
//! not drift between the code that measures it, the file that bounds it
//! and the test that expects it.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput).
    Higher,
    /// Smaller values are better (time, memory, error).
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric: its name, unit, direction and — for end-to-end metrics —
/// the share of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, `layer.metric` for per-layer metrics.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
    /// Whether the value is a count or hash of one fixed unit of work
    /// that must repeat exactly for one seed and one build, and stay
    /// identical across a change that is a pure speed-up.
    pub exact: bool,
}

/// One workload and the reason it exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadDef {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// One line: which layers it loads and which it leaves idle.
    pub why: &'static str,
}

/// The in-process §5 experiment.
pub const FREON_CLOSED_LOOP: &str = "freon_closed_loop";
/// The §2.3 suite over loopback UDP.
pub const NET_LIVE: &str = "net_live";
/// Fleet-scale offline replay with fused input-stable spans.
pub const REPLAY_STEADY: &str = "replay_steady";
/// Fleet-scale offline replay with dense frames and fan fiddles.
pub const REPLAY_CHURN: &str = "replay_churn";

/// The four workloads, in the order `run --all` runs them.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: FREON_CLOSED_LOOP,
        why: "the loop the paper evaluates: cluster-sim does ~87% of the work, core.solver ~5%, freon.policy <0.1%, so a solver gain must not move it and an LVS or engine gain must",
    },
    WorkloadDef {
        name: NET_LIVE,
        why: "one closed-loop UDP client, window 64, against a 64-machine SolverService at 1 ms ticks: core.net and the system mutex do all the work; cluster, freon and core.trace do none",
    },
    WorkloadDef {
        name: REPLAY_STEADY,
        why: "1024-machine .events replay whose inputs hold for 30-tick spans: the fused lane sweep of core.solver is nearly all the work, core.trace decode nearly none",
    },
    WorkloadDef {
        name: REPLAY_CHURN,
        why: "1024-machine replay where every cell changes every tick and 128 fans are re-commanded every 10 ticks: plan, gather, scatter, the solo kernel and dense frame decode dominate",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn time(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: true,
    }
}

/// What a user of the system sees; measured with tracing off and
/// reported by every workload.
///
/// The throughput bounds are the widest the driver allows, not the 5 to
/// 10 % the issue hoped for: on the 2-vCPU shared host this was written
/// on, ten runs of one workload spread 0.6 to 2.4 % (quartile distance
/// over median) in a quiet quarter of an hour, 5 to 15 % in a noisy one
/// and once 23.5 %, and the medians of two such sets lay up to 23 %
/// apart (see the crate docs). A bound below that rejects the benchmark
/// against itself.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("machine_seconds_per_s", "1/s", Better::Higher, 0.25),
    e2e("requests_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
];

/// One layer each; measured by the traced run. A workload reports 0 for
/// a layer it does not enter.
pub const PER_LAYER: [MetricDef; 89] = [
    // workload-gen
    time("workload.arrivals_s", "s"),
    count("workload.requests", "count"),
    // cluster-sim
    time("cluster.tick_s", "s"),
    time("cluster.ns_per_request", "ns"),
    count("cluster.requests_routed", "count"),
    count("cluster.requests_dropped", "count"),
    time("cluster.ns_per_request_256", "ns"),
    // mercury::solver
    time("core.solver.step_s", "s"),
    time("core.solver.ns_per_machine_tick", "ns"),
    time("core.solver.set_inputs_s", "s"),
    time("core.solver.mix_s", "s"),
    time("core.solver.plan_s", "s"),
    time("core.solver.gather_s", "s"),
    time("core.solver.sweep_s", "s"),
    time("core.solver.scatter_s", "s"),
    time("core.solver.fused_span_s", "s"),
    count("core.solver.ticks", "count"),
    count("core.solver.fused_ticks", "count"),
    count("core.solver.substeps", "count"),
    count("core.solver.flow_recomputes", "count"),
    count("core.solver.solo_machines", "count"),
    count("core.solver.solo_demotions", "count"),
    count("core.solver.simd_lane_width", "count"),
    count("core.solver.fan_commands", "count"),
    count("core.solver.checkpoint_hash48", "hash"),
    // mercury::trace
    time("core.trace.decode_s", "s"),
    count("core.trace.frames_decoded", "count"),
    count("core.trace.spans", "count"),
    count("core.trace.ticks", "count"),
    count("core.trace.events_bytes", "bytes"),
    time("core.trace.bytes_per_machine_tick", "bytes"),
    count("core.trace.mapped", "count"),
    count("core.trace.stream_memory_bytes", "bytes"),
    time("core.trace.checkpoint_save_s", "s"),
    time("core.trace.checkpoint_restore_s", "s"),
    count("core.trace.checkpoint_bytes", "bytes"),
    // mercury::net::proto
    time("core.net.proto.encode_request_ns", "ns"),
    time("core.net.proto.decode_request_ns", "ns"),
    time("core.net.proto.encode_reply_ns", "ns"),
    time("core.net.proto.decode_reply_ns", "ns"),
    count("core.net.proto.update_bytes", "bytes"),
    // mercury::net::service
    time("core.net.service.request_s", "s"),
    time("core.net.service.decode_s", "s"),
    time("core.net.service.handle_s", "s"),
    time("core.net.service.reply_s", "s"),
    time("core.net.service.recv_s", "s"),
    count("core.net.service.datagrams", "count"),
    count("core.net.service.replies", "count"),
    count("core.net.service.malformed", "count"),
    time("core.net.service.lock_probe_p50_us", "us"),
    time("core.net.service.lock_probe_p99_us", "us"),
    rate("core.net.service.idle_pace_ratio", "ratio"),
    rate("core.net.service.tick_pace_ratio", "ratio"),
    // mercury::net::sensor
    time("core.net.sensor.open_us", "us"),
    time("core.net.sensor.read_p50_us", "us"),
    time("core.net.sensor.read_p99_us", "us"),
    time("core.net.sensor.read_p999_us", "us"),
    rate("core.net.sensor.reads", "count"),
    time("core.net.sensor.timeouts", "count"),
    // freon::engine
    time("freon.engine.run_s", "s"),
    time("freon.engine.self_s", "s"),
    time("freon.engine.snapshot_s", "s"),
    count("freon.engine.log_rows", "count"),
    count("freon.engine.log_hash48", "hash"),
    // freon::policy
    time("freon.policy.control_s", "s"),
    count("freon.policy.observations", "count"),
    count("freon.policy.decisions", "count"),
    count("freon.policy.adjustments", "count"),
    count("freon.policy.red_line_shutdowns", "count"),
    count("freon.policy.fiddle_events", "count"),
    // telemetry
    time("telemetry.trace_overhead_pct", "%"),
    rate("telemetry.accounted_pct", "%"),
    time("telemetry.spans_recorded", "count"),
    time("telemetry.spans_dropped", "count"),
    time("telemetry.render_prometheus_us", "us"),
    time("telemetry.scrape_bytes", "bytes"),
    // reference-models
    count("reference.model_max_err_c", "C"),
    count("reference.cpu_air_max_err_c", "C"),
    count("reference.disk_max_err_c", "C"),
    count("reference.cpu_air_rmse_c", "C"),
    // the benchmark's own inputs, checks and host
    count("prepare.corpus_hash48", "hash"),
    count("prepare.corpus_bytes", "bytes"),
    time("prepare.generate_s", "s"),
    time("check.failed_share", "ratio"),
    rate("bench.units", "count"),
    time("bench.unit_wall_s", "s"),
    time("host.cpu_s", "s"),
    time("host.runqueue_wait_s", "s"),
    rate("host.threads_available", "count"),
];

/// The workload named `name`.
#[must_use]
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The metric named `name`, end-to-end or per-layer.
#[must_use]
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Whether `metric` must repeat exactly on `workload`. `net_live` ticks
/// follow the wall clock, so there only the request, reply and input
/// counts carry the mark; solver and trace counts do not.
#[must_use]
pub fn exact_on(metric: &MetricDef, workload: &str) -> bool {
    metric.exact
        && (workload != NET_LIVE
            || metric.name.starts_with("core.net.")
            || metric.name.starts_with("prepare.")
            || metric.name.starts_with("check."))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= max
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(well_formed(w.name, 64), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name));
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(well_formed(m.name, 64), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit of {}",
                m.name
            );
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(PER_LAYER.len() <= 128);
        let setup = metric("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn wall_clock_paced_counts_are_not_exact_on_net_live() {
        let ticks = metric("core.solver.ticks").unwrap();
        assert!(exact_on(ticks, REPLAY_STEADY));
        assert!(!exact_on(ticks, NET_LIVE));
        let datagrams = metric("core.net.service.datagrams").unwrap();
        assert!(exact_on(datagrams, NET_LIVE));
        assert!(!exact_on(
            metric("cluster.tick_s").unwrap(),
            FREON_CLOSED_LOOP
        ));
    }
}
