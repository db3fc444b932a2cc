//! The Mercury solver: a coarse-grained finite-element analyzer (§2.2).
//!
//! The solver advances a [`crate::model::MachineModel`] (or a whole
//! [`crate::model::ClusterModel`]) in discrete time steps. Each tick does
//! the paper's three graph traversals:
//!
//! 1. **inter-component heat flow** — Newton's law of cooling over the
//!    heat-flow edges plus utilization-driven heat generation,
//! 2. **intra-machine air movement** — flow-weighted mixing along the
//!    air-flow edges in topological order, and
//! 3. **inter-machine air movement** (cluster solver only) — supply /
//!    exhaust / junction mixing that feeds every machine's inlet.
//!
//! ## Numerical stability
//!
//! The paper runs one solver iteration per emulated second. With the
//! constants of Table 1 an explicit Euler step of a full second is
//! *unstable* for the fastest couplings (e.g. the motherboard's k = 10 W/K
//! against a few-gram air region). The solver therefore divides each tick
//! into automatically-chosen sub-steps so that no node can exchange more
//! than [`SolverConfig::stability_limit`] of its "distance to equilibrium"
//! per sub-step. The public interface is unaffected: [`Solver::step`]
//! still advances exactly one tick of [`SolverConfig::dt`] seconds. The
//! sub-steps set the discretisation, not the cost of a tick: a tick's
//! inputs are held, so its sub-steps compose once (per kernel rebuild)
//! into one affine map, and every tick is one sweep of that map.
//!
//! ## Engine layout
//!
//! The graph arithmetic for traversals 1 and 2 lives in one place — the
//! private `kernel` module — as a CSR-indexed step kernel with
//! precomputed rate constants and reusable scratch buffers; `Solver` and
//! `ClusterSolver` are state holders compiled onto it. The cluster
//! solver's traversal 3 uses the same module's precompiled mixing plan.
//! A room steps on its caller's thread; parallelism runs across rooms
//! and across time segments cut at checkpoints, each bit-identical to
//! one serial run.
//!
//! Structurally identical machines — the common case under the paper's
//! trace replication (§2.3) — are additionally stepped *batched*: the
//! private `batch` module groups them by structural fingerprint and
//! sweeps each group in a structure-of-arrays layout — over one shared
//! operator, or, for machines a fan/heat-k/air-fraction fiddle has
//! diverged from their model, over per-lane operator weights —
//! bit-identical to per-machine stepping (see
//! [`ClusterSolver::set_batching`]). The lane sweep is one safe body
//! (the private `simd` module) compiled at the target's baseline and,
//! on x86-64, for AVX2 and AVX-512; the widest level the host has is
//! detected at run time ([`SimdBackend`]) and all are bit-identical.
//!
//! Multi-tick replays ([`ClusterSolver::step_for`]) run as fused spans
//! so the per-tick orchestration (plan checks, gather/scatter, sampled
//! metrics) is paid once per call — every tick of a call runs in the
//! lanes, its first included. Inputs land at tick boundaries, so a span
//! does not end where one changes: a feed
//! ([`ClusterSolver::step_for_fed`], [`TickInputs`]) sets utilizations
//! before any tick — one cell at a time, or a whole resolved
//! [`InputFrame`] — and the batched lanes price them in place, handing
//! them back to the solvers with their heat when the call ends. That is
//! how trace replay keeps a room whose every cell changes every tick
//! inside one span. Inside a span traversal 3 runs chunk by chunk: the
//! first tick mixes every sink, later ticks only the sinks a span can
//! change; see `DESIGN.md` §3b.
//!
//! Both solvers meter themselves through always-on [`telemetry`] handles
//! (tick counts, sampled latencies, batch-plan shape); see the `metrics`
//! module and `DESIGN.md` §"Telemetry".

mod aligned;
mod batch;
mod cluster;
mod flows;
mod kernel;
mod machine;
mod metrics;
mod simd;

pub use cluster::{ClusterProbe, ClusterSolver, InputFrame, TickInputs};
pub use flows::{air_flows, model_air_flows, required_substeps};
pub use machine::{Solver, SolverConfig};
pub use metrics::{ClusterMetrics, SolverMetrics};
pub use simd::SimdBackend;
