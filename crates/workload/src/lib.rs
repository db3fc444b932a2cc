//! # workload-gen — synthetic web workloads
//!
//! The paper could not find a public web trace with dynamic-content
//! requests, so it built a synthetic one (§5): 30% of requests hit a CGI
//! script that computes for 25 ms, the rest are static files, and "the
//! timing of the requests mimics the well-known traffic pattern of most
//! Internet services, consisting of recurring load valleys (over night)
//! followed by load peaks (in the afternoon). The load peak is set at 70%
//! utilization with 4 servers."
//!
//! This crate reproduces that recipe deterministically:
//!
//! * [`RequestMix`] — the static/dynamic blend and per-kind demands;
//! * [`DiurnalProfile`] — valley→peak→valley offered load over time;
//! * [`WorkloadGenerator`] — seeded Poisson arrivals following a profile;
//! * [`WorkloadTrace`] — a pre-generated, serializable arrival schedule
//!   (so an experiment and its baseline see the *identical* request
//!   sequence);
//! * [`Arrivals`] — one second of a trace, as
//!   [`WorkloadTrace::arrivals_at`] returns it: an exact-size iterator
//!   that makes each request as it is taken, which is what
//!   `ClusterSim::tick` consumes. Collect it when a `Vec` is wanted.
//!
//! ```
//! use workload_gen::{DiurnalProfile, RequestMix, WorkloadGenerator};
//!
//! let mix = RequestMix::paper();
//! // Peak sized for 70% CPU utilization on 4 stock servers.
//! let peak = mix.rps_for_cpu_utilization(0.7, 4, 1000.0);
//! let profile = DiurnalProfile::new(2000.0, peak * 0.15, peak).with_peak_at(0.65);
//! let mut generator = WorkloadGenerator::new(profile, mix, 42);
//! let trace = generator.generate(2000);
//! assert_eq!(trace.duration_s(), 2000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod gen;
mod mix;
mod profile;

pub use gen::{Arrivals, WorkloadGenerator, WorkloadTrace};
pub use mix::RequestMix;
pub use profile::DiurnalProfile;
