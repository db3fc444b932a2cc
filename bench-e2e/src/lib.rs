//! # bench-e2e — the closed-loop, layer-attributed benchmark
//!
//! The paper's systems are a loop — monitord → UDP → solver tick →
//! `readsensor` → tempd → policy → admd → LVS (§2.3, §4.1). This
//! package measures that loop end to end and layer by layer, from
//! outside, through the public functions of the workspace crates. It is
//! the program `BENCHMARK.json` names, and it supersedes
//! `BENCH_solver.json` (one layer, best of three, "overheads" of −11 %)
//! as the record a performance claim is made against; that file and
//! `experiments bench_solver` are left for a later change to retire.
//!
//! ```text
//! cargo run --release --manifest-path bench-e2e/Cargo.toml -- run --all --seed 42
//! cargo run --release --manifest-path bench-e2e/Cargo.toml -- \
//!     --workload net_live --seed 7 --seconds 10 --trace 0      # the driver's form
//! ```
//!
//! ## Workloads
//!
//! A run repeats one fixed *unit* of work until `--seconds` have passed,
//! so simulated statistics are those of one unit and repeat exactly
//! for a seed. The two throughput metrics are those of the fastest
//! decile of units ([`harness::fast_decile_of`] says why not the
//! median: interference on a shared host only adds time, in phases
//! longer than a run); medians and quartiles over runs are then taken
//! by `--repeats` and by the driver. Inputs come from `--seed`
//! through [`prepare`], which runs as its own process and caches by
//! seed and content hash; the program under test only ever reads them.
//!
//! | workload | unit | why it exists |
//! |---|---|---|
//! | `freon_closed_loop` | one `freon::Experiment::run`: `freon_cluster(64)` + `ClusterSim::homogeneous(64)`, `FreonPolicy`, three diurnal cycles peaking at 70 % utilisation, inlet of every 8th machine raised at t = 480 s | the loop the paper evaluates; `cluster` does most of the work |
//! | `net_live` | 200 rounds × 64 machines × (update, read cpu, read disk) through one socket at window 64 against `SolverService` at 1 ms ticks | `core.net.*` and the system mutex do all the work |
//! | `replay_steady` | one pass of a 1024-machine `.events` corpus whose inputs hold for 30-tick spans | fused spans make the lane sweep of `core.solver` nearly all of the work |
//! | `replay_churn` | one pass of a 1024-machine corpus where every cell changes every tick and 128 fans are re-commanded every 10 ticks | plan/gather/scatter, the solo kernel and dense decode dominate |
//!
//! ## End-to-end metrics
//!
//! Measured with tracing off; every workload reports all four, and the
//! bound is the share of the parent's median by which a metric may
//! worsen ([`catalogue::END_TO_END`]).
//!
//! * `setup_s` — corpus verification (or generation), model build,
//!   service spawn or stream open, and warm-up; median of the three to
//!   fifteen set-ups a run makes.
//! * `machine_seconds_per_s` — simulated machine-seconds advanced per
//!   host wall second. On `net_live`, whose ticks follow the wall
//!   clock, this is 64 × the emulated seconds between the first and
//!   last `Reply::Temperature.time` of a unit per wall second: 64 000 ×
//!   the *tick pace ratio* (1.0 = the emulator keeps wall-clock pace).
//! * `requests_per_s` — requests the system served per wall second:
//!   wire requests answered (`net_live`), web requests routed by LVS
//!   (`freon_closed_loop`), utilisation cells applied from the trace,
//!   which stands in for monitord in trace-driven mode (`replay_*`).
//! * `peak_rss_mb` — `VmHWM` of the workload's process at exit.
//!
//! Operations failed ÷ attempted (the issue's `failed_share`) travels
//! in the result line's `failed` and `attempted`, and any failed output
//! check makes the run incorrect and the exit code non-zero. The model
//! error beside the speed (`reference.model_max_err_c`) repeats exactly
//! and is therefore a per-layer metric here: the driver bounds
//! end-to-end metrics as a share of their median and refuses values
//! that never vary.
//!
//! ## Per-layer metrics and the prediction table
//!
//! From the traced run ([`catalogue::PER_LAYER`]); layer = module name.
//! Counts marked `=` by `run` are those of one unit and must be
//! identical between parent and change for a pure speed-up.
//!
//! | layer metrics | should move | on |
//! |---|---|---|
//! | `workload.arrivals_s` | `machine_seconds_per_s` (≈2 %) | `freon_closed_loop` |
//! | `cluster.tick_s`, `cluster.ns_per_request`, `cluster.ns_per_request_256` | `machine_seconds_per_s`, `requests_per_s` (≈87 %) | `freon_closed_loop`; nothing elsewhere |
//! | `core.solver.step_s`, `sweep_s`, `fused_span_s` | `machine_seconds_per_s` | `replay_steady` (≈ all); ≈5 % on `freon_closed_loop` |
//! | `core.solver.plan_s`, `gather_s`, `scatter_s`, `set_inputs_s`, `flow_recomputes`, `solo_machines` | `machine_seconds_per_s` | `replay_churn` |
//! | `core.solver.step_s` on `net_live` (the ticker's lock-hold time) | `machine_seconds_per_s` (pace) | `net_live`, not `requests_per_s` |
//! | `core.trace.decode_s`, `frames_decoded`, `bytes_per_machine_tick` | `machine_seconds_per_s`, `peak_rss_mb` | `replay_churn`; barely `replay_steady` |
//! | `core.net.proto.*_ns`, `core.net.service.*_s`, `lock_probe_*` | `requests_per_s`, pace | `net_live` |
//! | `core.net.sensor.*` (window 1, scheduler-sensitive) | none gated; the paper's ≈300 µs `readsensor` figure | `net_live` |
//! | `freon.engine.self_s`, `snapshot_s` | `machine_seconds_per_s`, `peak_rss_mb` | `freon_closed_loop` |
//! | `freon.policy.control_s` | nothing (<0.1 %) | `freon_closed_loop` |
//! | `telemetry.trace_overhead_pct`, `render_prometheus_us` | the cost the instruments add to all of the above | every workload |
//! | `reference.*_err_c` | the simulator's error, stated beside every simulated speed-up | `replay_steady` |
//!
//! `graphdl`, `tools` and `experiments` sit on no measured path.
//!
//! ## Sizing, from the reference host
//!
//! Taken on the 2-core host this benchmark was written on, before any
//! source change: at 64 machines × 21 600 simulated seconds
//! `freon::Experiment::run` takes ≈19 s, of which `ClusterSim::tick` is
//! ≈87 % and `ClusterSolver::step` ≈5 % (at 256 machines 96 % against
//! 1.2 %: `lvs.route` scans every server per request, 727 against
//! 215 ns per request); a `SolverService` at 1 ms ticks advances ≈0.84
//! emulated seconds per intended second idle and ≈0.76 under request
//! load; `replay_steady` runs ≈12 M machine-ticks/s and `replay_churn`
//! ≈3 M. Six changes of solver work went into a layer that is one
//! twentieth of the loop the paper evaluates. The unit sizes in
//! [`sizes::Sizes::FULL`] keep the issue's shapes and scale its tick
//! and request constants so that 92 driver runs of 25 s fit the time
//! cap.
//!
//! At those sizes the same host reads (seed 300, a quiet quarter of an
//! hour): `freon_closed_loop` ≈86 k machine-seconds/s with
//! `cluster.tick_s` ≈75 % of a unit and `core.solver.step_s` ≈14 % —
//! the engine's solver resolves `threads = 0` to a two-worker pool at
//! 64 machines, and the same 2 400 ticks take 0.033 s instead of 0.25 s
//! with `set_threads(1)`; `net_live` ≈257 k requests/s at a pace of
//! ≈0.80; `replay_steady` ≈11.8 M and `replay_churn` ≈2.6 M
//! machine-ticks/s; `freon_closed_loop`'s `setup_s` is ≈85 %
//! `WorkloadTrace::from_json`.
//!
//! The noise floor, as quartile distance over median of ten runs with
//! ten seeds, six such sets over an afternoon: 0.6–2.4 % on every
//! throughput metric when the host is quiet, 5–15 % when it is not,
//! once 23.5 % on `replay_steady` (whose megabyte working set lives in
//! a cache shared with other tenants: fastest deciles from 8.1 M to
//! 14.0 M machine-ticks/s within five minutes). Medians of two
//! consecutive sets lay up to 23 % apart on the two workloads whose
//! threads wake each other across vCPUs (`freon_closed_loop`,
//! `net_live`) and 2–5 % apart on the single-threaded replays;
//! `setup_s` (12–150 ms) moved by up to 44 %.
//! Hence the bounds in [`catalogue::END_TO_END`]. Read a difference
//! smaller than these as unresolved, not as a result.
//!
//! ## Modules
//!
//! [`stats`] (order statistics, FNV-1a, `/proc` readers), [`json`],
//! [`catalogue`] (names, units, bounds), [`sizes`], [`prepare`],
//! [`spans`] (span tree → self times), [`harness`], [`report`]
//! (result lines, result sets, `agree`), [`workloads`], [`cli`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalogue;
pub mod cli;
pub mod harness;
pub mod json;
pub mod prepare;
pub mod report;
pub mod sizes;
pub mod spans;
pub mod stats;
pub mod workloads;
