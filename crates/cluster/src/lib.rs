//! # cluster-sim — the server-cluster substrate
//!
//! Freon (the paper's §4–5) manages a **web server cluster fronted by a
//! load balancer**: four Apache servers behind LVS, the Linux Virtual
//! Server kernel module, using *weighted least-connections* request
//! distribution. This crate is that substrate, rebuilt as a deterministic
//! discrete-time simulation:
//!
//! * [`Request`] — a web request with CPU and disk service demands (the
//!   paper's trace mixes small static files with 25 ms CGI requests);
//! * [`Server`] — an Apache-like server: processor-sharing CPU and disk,
//!   connection tracking, boot/drain/shutdown life cycle, per-tick
//!   component utilizations (which feed Mercury's `monitord`). Once
//!   admitted, a request is its two remaining demands and nothing else;
//! * [`LoadBalancer`] — the LVS model: per-server weights, concurrent-
//!   connection caps, weighted least-connections routing (one request
//!   by scan, a batch through a heap of packed integer keys, same
//!   choices), and the statistics queries Freon's `admd` performs;
//! * [`ClusterSim`] — glue: offer arrivals, advance one second, collect
//!   [`TickStats`]. [`ClusterSim::tick`] takes the arrivals as any
//!   `IntoIterator<Item = Request>` whose iterator knows its length — a
//!   `Vec<Request>`, or a lazy source such as `workload_gen::Arrivals`
//!   that makes each request as it is routed.
//!
//! Everything the real Freon does to a real LVS — set a weight, cap
//! connections, quiesce a server, read per-server connection counts — has
//! the same operation here, so the Freon crate's policy code is written
//! against the identical control surface.
//!
//! ```
//! use cluster_sim::{ClusterSim, Request, ServerConfig};
//!
//! let mut sim = ClusterSim::homogeneous(4, ServerConfig::default());
//! // One second of traffic: 100 static requests.
//! let arrivals: Vec<Request> = (0..100).map(|_| Request::static_file()).collect();
//! let stats = sim.tick(arrivals);
//! assert_eq!(stats.dropped, 0);
//! assert!(sim.server(0).cpu_utilization() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod lvs;
mod request;
mod server;
mod sim;

pub use lvs::{LoadBalancer, RouteHeap, RouteOutcome};
pub use request::{Request, RequestKind};
pub use server::{PowerState, Server, ServerConfig};
pub use sim::{ClusterSim, TickStats};
