//! # Mercury — temperature emulation for server systems
//!
//! Mercury is a software suite that **emulates** component and air
//! temperatures in single-node or clustered server systems, reproducing the
//! system described in *"Mercury and Freon: Temperature Emulation and
//! Management for Server Systems"* (Heath et al., ASPLOS 2006).
//!
//! Instead of instrumenting real hardware with thermal sensors (slow,
//! noisy, unrepeatable) or running a computational-fluid-dynamics simulator
//! (hours per run, cannot execute software), Mercury computes temperatures
//! from three groups of inputs:
//!
//! 1. **Graphs** — an undirected *heat-flow* graph between hardware
//!    components and air regions, a directed *intra-machine air-flow*
//!    graph, and (for clusters) a directed *inter-machine air-flow* graph
//!    ([`model`]).
//! 2. **Constants** — masses, specific heat capacities, heat-transfer
//!    coefficients (`k`), air fractions, fan speeds, and idle/peak power
//!    consumptions ([`model::ComponentSpec`], [`presets`] for the paper's
//!    Table 1).
//! 3. **Dynamic component utilizations** — sampled online by a monitoring
//!    daemon ([`net::monitord`]) or replayed from a trace ([`trace`]).
//!
//! The [`solver`] advances the model in discrete time steps (1 s by
//! default, with automatic sub-stepping for numerical stability) and can be
//! queried like a bank of thermal sensors, either in-process
//! ([`solver::Solver::temperature`]) or over UDP with the paper's
//! `opensensor`/`readsensor`/`closesensor` interface ([`net::sensor`]).
//! Thermal emergencies — a failed air conditioner, a blocked inlet — are
//! injected at run time with [`fiddle`].
//!
//! ## Quick start
//!
//! ```
//! use mercury::presets;
//! use mercury::solver::{Solver, SolverConfig};
//!
//! # fn main() -> Result<(), mercury::Error> {
//! // The Pentium-III validation server from Table 1 of the paper.
//! let model = presets::validation_machine();
//! let mut solver = Solver::new(&model, SolverConfig::default())?;
//!
//! // Run one hour of emulated time at 80% CPU utilization.
//! solver.set_utilization("cpu", 0.8)?;
//! for _ in 0..3600 {
//!     solver.step();
//! }
//! let cpu_air = solver.temperature("cpu_air")?;
//! assert!(cpu_air.0 > 25.0 && cpu_air.0 < 45.0);
//! # Ok(())
//! # }
//! ```
//!
//! ## Crate layout
//!
//! | module | role |
//! |--------|------|
//! | [`units`] | typed physical quantities (°C, W, J, kg, …) |
//! | [`physics`] | the four governing equations of §2.1 of the paper |
//! | [`model`] | machine/cluster descriptions: nodes, edges, constants |
//! | [`solver`] | the coarse-grained finite-element solver (§2.2) |
//! | [`fiddle`] | thermal-emergency injection tool and script language (§2.3) |
//! | [`fan`] | variable-speed fan curves and controllers (§7 extension) |
//! | [`trace`] | utilization traces, `.events` binary replay, checkpoints |
//! | [`perf`] | performance-counter energy accounting (Pentium 4 mode, §2.3) |
//! | [`presets`] | ready-made models with the paper's Table 1 constants |
//! | [`net`] | UDP solver service, `monitord`, and the sensor client library |

// `deny`, not `forbid`: the sanctioned exceptions are (a) the two
// `#[target_feature]` call sites in `solver::simd` (each guarded by
// runtime detection of its feature; the sweep they call is safe Rust)
// and (b) the aligned chunk buffers in `solver::aligned` (a
// fixed-length `Vec<f64>` at cache-line alignment). Neither spawns
// or synchronises threads. Each site carries a SAFETY comment and is
// `#[allow]`ed individually; everything else in the crate remains safe
// Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod build;
mod codec;
pub mod error;
pub mod fan;
pub mod fiddle;
pub mod model;
pub mod net;
pub mod perf;
pub mod physics;
pub mod presets;
pub mod solver;
pub mod trace;
pub mod units;

pub use error::Error;
pub use units::Celsius;

/// Convenient result alias for fallible Mercury operations.
pub type Result<T> = std::result::Result<T, Error>;
