//! All four workloads at 1/200 scale, through the real executable.
//!
//! `run --all --smoke` twice: every metric the catalogue names must be
//! present, finite and correctly signed; the layers a workload enters
//! must report time and the ones it does not must report none; and
//! every `=` count and hash must match between the two runs. Also pins
//! `BENCHMARK.json` to the catalogue and exercises `agree`.

use bench_e2e::catalogue::{
    self, END_TO_END, FREON_CLOSED_LOOP, NET_LIVE, PER_LAYER, REPLAY_CHURN, REPLAY_STEADY,
    WORKLOADS,
};
use bench_e2e::json::{self, Value};
use bench_e2e::report::ResultSet;
use std::path::{Path, PathBuf};
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_bench-e2e");

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_all(root: &Path, out: &str) -> ResultSet {
    let out = root.join(out);
    let status = Command::new(EXE)
        .args([
            "run",
            "--all",
            "--smoke",
            "--seed",
            "11",
            "--seconds",
            "0.3",
        ])
        .arg("--data-root")
        .arg(root)
        .arg("--out")
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "run --all --smoke exited with {status}");
    ResultSet::from_json(&std::fs::read_to_string(out).unwrap()).unwrap()
}

/// Metrics that are differences of two noisy times and may dip below 0.
const MAY_BE_NEGATIVE: [&str; 2] = ["telemetry.trace_overhead_pct", "freon.engine.self_s"];

/// Per workload: layers it must be seen working in, and layers it must
/// not enter.
const EXPECT: [(&str, &[&str], &[&str]); 4] = [
    (
        FREON_CLOSED_LOOP,
        &[
            "workload.arrivals_s",
            "workload.requests",
            "cluster.tick_s",
            "cluster.ns_per_request_256",
            "core.solver.step_s",
            "core.solver.sweep_s",
            "core.solver.ticks",
            "freon.engine.run_s",
            "freon.engine.snapshot_s",
            "freon.engine.log_rows",
            "freon.engine.log_hash48",
            "freon.policy.control_s",
            "freon.policy.observations",
            "freon.policy.fiddle_events",
            "telemetry.accounted_pct",
            "telemetry.spans_recorded",
            "telemetry.scrape_bytes",
        ],
        &[
            "core.net.service.request_s",
            "core.trace.frames_decoded",
            "core.solver.fused_ticks",
        ],
    ),
    (
        NET_LIVE,
        &[
            "core.net.proto.encode_request_ns",
            "core.net.proto.decode_request_ns",
            "core.net.proto.encode_reply_ns",
            "core.net.proto.decode_reply_ns",
            "core.net.proto.update_bytes",
            "core.net.service.request_s",
            "core.net.service.decode_s",
            "core.net.service.handle_s",
            "core.net.service.reply_s",
            "core.net.service.datagrams",
            "core.net.service.replies",
            "core.net.service.idle_pace_ratio",
            "core.net.service.tick_pace_ratio",
            "core.net.sensor.open_us",
            "core.net.sensor.read_p50_us",
            "core.net.sensor.reads",
            "core.solver.step_s",
            "telemetry.render_prometheus_us",
        ],
        &[
            "cluster.tick_s",
            "freon.policy.control_s",
            "core.trace.decode_s",
            "core.net.service.malformed",
            "core.net.sensor.timeouts",
        ],
    ),
    (
        REPLAY_STEADY,
        &[
            "core.solver.step_s",
            "core.solver.fused_span_s",
            "core.solver.fused_ticks",
            "core.solver.substeps",
            "core.solver.checkpoint_hash48",
            "core.trace.decode_s",
            "core.trace.frames_decoded",
            "core.trace.spans",
            "core.trace.ticks",
            "core.trace.events_bytes",
            "core.trace.stream_memory_bytes",
            "core.trace.checkpoint_save_s",
            "core.trace.checkpoint_restore_s",
            "core.trace.checkpoint_bytes",
            "reference.model_max_err_c",
            "reference.cpu_air_max_err_c",
            "reference.disk_max_err_c",
            "reference.cpu_air_rmse_c",
        ],
        &[
            "cluster.tick_s",
            "core.net.service.request_s",
            "core.solver.fan_commands",
        ],
    ),
    (
        REPLAY_CHURN,
        &[
            "core.solver.step_s",
            "core.solver.plan_s",
            "core.solver.gather_s",
            "core.solver.scatter_s",
            "core.solver.solo_machines",
            "core.solver.flow_recomputes",
            "core.solver.fan_commands",
            "core.trace.frames_decoded",
            "core.trace.bytes_per_machine_tick",
        ],
        &[
            "cluster.tick_s",
            "core.solver.fused_ticks",
            "reference.model_max_err_c",
        ],
    ),
];

#[test]
fn every_metric_is_reported_and_exact_counts_repeat() {
    let root = scratch("runs");
    let (a, b) = (run_all(&root, "a.json"), run_all(&root, "b.json"));

    for set in [&a, &b] {
        assert_eq!(set.runs.len(), 2 * WORKLOADS.len());
        for run in &set.runs {
            assert!(run.correct && run.failed == 0, "{run:?}");
            assert!(run.attempted >= 1);
            let defs: &[catalogue::MetricDef] = if run.traced { &PER_LAYER } else { &END_TO_END };
            assert_eq!(
                run.metrics.len(),
                defs.len(),
                "{} traced={}",
                run.workload,
                run.traced
            );
            for def in defs {
                let v = run
                    .metric(def.name)
                    .unwrap_or_else(|| panic!("{} lacks {}", run.workload, def.name));
                assert!(v.is_finite(), "{} {} = {v}", run.workload, def.name);
                if run.traced {
                    assert!(
                        v >= 0.0 || MAY_BE_NEGATIVE.contains(&def.name),
                        "{} {} = {v}",
                        run.workload,
                        def.name
                    );
                } else {
                    assert!(v > 0.0, "{} {} = {v}", run.workload, def.name);
                }
            }
        }
    }

    for (workload, entered, idle) in EXPECT {
        let run = a
            .runs
            .iter()
            .find(|r| r.workload == workload && r.traced)
            .unwrap();
        for name in entered {
            assert!(
                run.metric(name).unwrap() > 0.0,
                "{workload}: {name} reads 0"
            );
        }
        for name in idle {
            assert_eq!(run.metric(name), Some(0.0), "{workload}: {name}");
        }
        for name in [
            "prepare.corpus_hash48",
            "prepare.corpus_bytes",
            "bench.units",
            "host.threads_available",
        ] {
            assert!(
                run.metric(name).unwrap() > 0.0,
                "{workload}: {name} reads 0"
            );
        }
    }

    // Every `=` count and hash is identical between two runs of one
    // seed — and there are some to compare on every workload.
    for w in &WORKLOADS {
        let exact: Vec<_> = PER_LAYER
            .iter()
            .filter(|d| catalogue::exact_on(d, w.name))
            .collect();
        assert!(exact.len() >= 5, "{}", w.name);
        for def in exact {
            assert_eq!(
                a.values(w.name, true, def.name),
                b.values(w.name, true, def.name),
                "{}: {}",
                w.name,
                def.name
            );
        }
    }

    // The span file of a traced run is one JSONL tree.
    let spans =
        std::fs::read_to_string(root.join("11-smoke").join("replay_churn.spans.jsonl")).unwrap();
    assert!(spans.lines().count() > 10);
    assert!(spans.contains("bench.trace.replay") && spans.contains("cluster.tick"));

    // `agree`: a set agrees with itself; one moved exact count is named.
    let agree = |x: &Path, y: &Path| {
        Command::new(EXE)
            .arg("agree")
            .arg(x)
            .arg(y)
            .output()
            .unwrap()
    };
    let same = agree(&root.join("a.json"), &root.join("a.json"));
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );
    let mut moved = a.clone();
    for run in &mut moved.runs {
        if run.workload == REPLAY_STEADY && run.traced {
            for (name, value) in &mut run.metrics {
                if name == "core.trace.frames_decoded" {
                    *value += 1.0;
                }
            }
        }
    }
    std::fs::write(root.join("moved.json"), moved.to_json()).unwrap();
    let differ = agree(&root.join("a.json"), &root.join("moved.json"));
    assert_eq!(differ.status.code(), Some(1));
    let said = String::from_utf8_lossy(&differ.stdout);
    assert!(
        said.contains("replay_steady") && said.contains("core.trace.frames_decoded"),
        "{said}"
    );

    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn the_drivers_form_ends_with_the_result_object() {
    let root = scratch("driver");
    let output = Command::new(EXE)
        .args([
            "--workload",
            "replay_churn",
            "--seed",
            "3",
            "--seconds",
            "0.1",
            "--trace",
            "0",
            "--smoke",
        ])
        .arg("--data-root")
        .arg(&root)
        .output()
        .unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let last = json::parse(stdout.trim_end().lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = last
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct").unwrap().as_bool(), Some(true));
    let metrics = last.get("metrics").unwrap().as_object().unwrap();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, END_TO_END.map(|d| d.name));

    // An unknown workload is an error and prints no result.
    let output = Command::new(EXE)
        .args([
            "--workload",
            "nonesuch",
            "--seed",
            "3",
            "--seconds",
            "0.1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
    let _ = std::fs::remove_dir_all(root);
}

fn strings<'a>(v: &'a Value, key: &str) -> Vec<&'a str> {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
        .iter()
        .map(|s| s.as_str().unwrap())
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(strings(&doc, "paths"), ["bench-e2e"]);
    let command = strings(&doc, "command");
    assert_eq!(command[0], "cargo");
    assert!(command.contains(&"bench-e2e/Cargo.toml") && command.last() == Some(&"--"));
    assert_eq!(
        doc.get("run_seconds").unwrap().as_f64(),
        Some(bench_e2e::cli::DEFAULT_SECONDS)
    );

    let workloads = doc.get("workloads").unwrap().as_array().unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (got, want) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(got.get("name").unwrap().as_str(), Some(want.name));
        assert_eq!(got.get("why").unwrap().as_str(), Some(want.why));
    }
    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = doc.get(key).unwrap().as_array().unwrap();
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (got, want) in listed.iter().zip(defs) {
            assert_eq!(got.get("name").unwrap().as_str(), Some(want.name));
            assert_eq!(
                got.get("unit").unwrap().as_str(),
                Some(want.unit),
                "{}",
                want.name
            );
            assert_eq!(
                got.get("better").unwrap().as_str(),
                Some(want.better.as_str()),
                "{}",
                want.name
            );
            assert_eq!(
                got.get("bound").and_then(Value::as_f64),
                want.bound,
                "{}",
                want.name
            );
        }
    }
}
