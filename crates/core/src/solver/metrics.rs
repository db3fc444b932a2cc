//! Always-on solver telemetry: handle bundles for the machine and
//! cluster solvers.
//!
//! The solvers measure themselves unconditionally through detached
//! [`telemetry`] handles — relaxed atomics cheap enough to leave on in
//! production (the measured contract is ≤ 2 % on the 256-machine batched
//! tick; see `DESIGN.md` §"Telemetry"). Nothing is exported anywhere
//! until someone with a [`telemetry::Registry`] calls
//! [`SolverMetrics::register`] / [`ClusterMetrics::register`], which is
//! how `net::SolverService` builds its scrape surface without the
//! solvers knowing a network exists.
//!
//! Instrumentation must never perturb the physics: handles are updated
//! strictly *outside* the kernel arithmetic (tick prologues/epilogues
//! and plan rebuilds), so per-machine and batched trajectories stay
//! bit-identical with telemetry on or off.
//!
//! A cluster shares **one** [`SolverMetrics`] across all of its machine
//! solvers (handles are `Arc`-backed, so sharing is cloning): the
//! interesting signal at room scale is "ticks per second across the
//! room", not 1024 separate counters.

use telemetry::{Counter, Gauge, Histogram, Registry};

/// Metric handles shared by every machine solver of one emulated system.
///
/// All handles are cheap to clone and clones share their cells, so a
/// cluster hands one bundle to each of its machines.
#[derive(Debug, Clone, Default)]
pub struct SolverMetrics {
    /// `mercury_solver_ticks_total` — machine ticks completed, on either
    /// the solo or the batched path.
    pub ticks: Counter,
    /// `mercury_solver_substeps_total` — explicit-Euler sub-steps
    /// represented (ticks × the stability-limited sub-step count). A
    /// tick runs its sub-steps composed into one sweep, so this counts
    /// the discretisation stepped, not sweeps run.
    pub substeps: Counter,
    /// `mercury_solver_flow_recomputes_total` — air-flow distribution
    /// recompilations, aggregated across machines. The initial compile
    /// counts once per machine type (a cluster's replicas share one);
    /// only changes that move the flows (fan speed, air fractions) add
    /// more.
    pub flow_recomputes: Counter,
    /// `mercury_solver_simd_lane_width` — `f64` lanes per vector
    /// register at the batched sweep's active SIMD level. Set at
    /// cluster construction and on
    /// [`super::ClusterSolver::set_simd_backend`].
    pub simd_lane_width: Gauge,
}

impl SolverMetrics {
    /// Fresh, detached handles (all zero).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the `mercury_solver_*` families on `registry`.
    pub fn register(&self, registry: &Registry) {
        registry.register_counter(
            "mercury_solver_ticks_total",
            "Machine-solver ticks completed (solo and batched paths)",
            &[],
            &self.ticks,
        );
        registry.register_counter(
            "mercury_solver_substeps_total",
            "Explicit-Euler sub-steps represented across all machines",
            &[],
            &self.substeps,
        );
        registry.register_counter(
            "mercury_solver_flow_recomputes_total",
            "Air-flow distribution recompilations across all machines",
            &[],
            &self.flow_recomputes,
        );
        registry.register_gauge(
            "mercury_solver_simd_lane_width",
            "f64 lanes per vector register at the batched sweep's SIMD level",
            &[],
            &self.simd_lane_width,
        );
    }
}

/// Metric handles owned by one [`super::ClusterSolver`].
#[derive(Debug, Clone, Default)]
pub struct ClusterMetrics {
    /// `mercury_cluster_ticks_total` — whole-room ticks completed.
    pub ticks: Counter,
    /// `mercury_cluster_batched_machines` — machines on the batched SoA
    /// path in the latest tick, diverged (fan-/heat-k-/air-fraction-
    /// fiddled) machines in per-lane-weight groups included.
    pub batched_machines: Gauge,
    /// `mercury_cluster_solo_machines` — machines on the per-machine
    /// path in the latest tick: those with a force-pinned node and
    /// those alone in their batch class.
    pub solo_machines: Gauge,
    /// `mercury_cluster_batch_chunks` — chunks in the current plan.
    pub batch_chunks: Gauge,
    /// `mercury_cluster_chunk_occupancy` — live lanes per chunk (row
    /// padding excluded), observed each time the batch plan is rebuilt.
    /// A healthy replicated room shows a spike at `CHUNK_LANES`;
    /// diverged machines group by sub-step count, so heavy fan
    /// actuation shows up as mass in the low buckets.
    pub chunk_occupancy: Histogram,
    /// `mercury_cluster_solo_demotions_total` — machines a replan moved
    /// off the batched path because they grew a force-pinned node or
    /// were left alone in their class. A fan, heat-k or air-fraction
    /// command by itself does not demote: the machine moves to a
    /// per-lane-weight group.
    pub solo_demotions: Counter,
    /// `mercury_cluster_fused_ticks_total` — *input-stable* ticks
    /// executed inside fused replay spans (see
    /// `ClusterSolver::step_for`) after each call's first: in the chunk
    /// lanes, plan/gather/scatter and sampled metrics paid once per
    /// call, and no input taken from the span's feed.
    pub fused_ticks: Counter,
    /// `mercury_cluster_fed_ticks_total` — ticks after a replay call's
    /// first whose feed changed an input
    /// (`ClusterSolver::step_for_fed`): as cheap as a fused tick plus
    /// the in-lane pricing. The rest of `mercury_cluster_ticks_total`
    /// beside `fused + fed` are `step()`s and the first tick of each
    /// replay call, which runs in the lanes but is booked as a full
    /// step.
    pub fed_ticks: Counter,
    /// `mercury_cluster_fused_span_ticks` — lengths of the input-stable
    /// runs of in-lane ticks after each call's first (a fed tick ends a
    /// run), observed once per run.
    pub fused_spans: Histogram,
    /// The machine-level bundle shared by every solver in the cluster.
    pub solver: SolverMetrics,
}

impl ClusterMetrics {
    /// Fresh, detached handles (all zero).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the `mercury_cluster_*` families — and the shared
    /// `mercury_solver_*` families — on `registry`.
    pub fn register(&self, registry: &Registry) {
        self.solver.register(registry);
        registry.register_counter(
            "mercury_cluster_ticks_total",
            "Whole-room cluster ticks completed",
            &[],
            &self.ticks,
        );
        registry.register_gauge(
            "mercury_cluster_batched_machines",
            "Machines stepped on the batched SoA path in the latest tick",
            &[],
            &self.batched_machines,
        );
        registry.register_gauge(
            "mercury_cluster_solo_machines",
            "Machines stepped on the per-machine path in the latest tick (pinned, or alone in their batch class)",
            &[],
            &self.solo_machines,
        );
        registry.register_gauge(
            "mercury_cluster_batch_chunks",
            "Chunks in the current batch plan",
            &[],
            &self.batch_chunks,
        );
        registry.register_histogram(
            "mercury_cluster_chunk_occupancy",
            "Live lanes per batch chunk (row padding excluded), observed at plan time",
            &[],
            &self.chunk_occupancy,
            1.0,
        );
        registry.register_counter(
            "mercury_cluster_solo_demotions_total",
            "Machines a replan demoted to the per-machine path (grew a pin, or left alone in their class)",
            &[],
            &self.solo_demotions,
        );
        registry.register_counter(
            "mercury_cluster_fused_ticks_total",
            "Input-stable ticks executed inside fused replay spans",
            &[],
            &self.fused_ticks,
        );
        registry.register_counter(
            "mercury_cluster_fed_ticks_total",
            "Ticks executed inside fused replay spans that took an input from the span's feed",
            &[],
            &self.fed_ticks,
        );
        registry.register_histogram(
            "mercury_cluster_fused_span_ticks",
            "Lengths of input-stable runs of ticks inside fused replay spans, observed once per run",
            &[],
            &self.fused_spans,
            1.0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_exposes_all_families() {
        let registry = Registry::new();
        let m = ClusterMetrics::new();
        m.register(&registry);
        m.ticks.inc();
        m.solver.ticks.add(4);
        let text = registry.render_prometheus();
        for family in [
            "mercury_solver_ticks_total",
            "mercury_solver_substeps_total",
            "mercury_solver_flow_recomputes_total",
            "mercury_solver_simd_lane_width",
            "mercury_cluster_ticks_total",
            "mercury_cluster_batched_machines",
            "mercury_cluster_solo_machines",
            "mercury_cluster_batch_chunks",
            "mercury_cluster_chunk_occupancy",
            "mercury_cluster_solo_demotions_total",
            "mercury_cluster_fused_ticks_total",
            "mercury_cluster_fed_ticks_total",
            "mercury_cluster_fused_span_ticks",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }
}
