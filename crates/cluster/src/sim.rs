//! The cluster simulation: servers + balancer + per-tick statistics.

use crate::lvs::{LoadBalancer, RouteHeap, RouteOutcome};
use crate::request::Request;
use crate::server::{Server, ServerConfig};

/// What happened during one simulated second.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TickStats {
    /// Requests offered this tick.
    pub offered: usize,
    /// Requests accepted and routed.
    pub routed: usize,
    /// Requests dropped (no eligible server below its cap).
    pub dropped: usize,
    /// Requests that finished service this tick (across all servers).
    pub completed: usize,
    /// Active connections per server after the tick.
    pub connections: Vec<usize>,
    /// CPU utilization per server over the tick.
    pub cpu_utilization: Vec<f64>,
    /// Disk utilization per server over the tick.
    pub disk_utilization: Vec<f64>,
    /// Request-seconds accumulated this tick (time-integral of requests
    /// in the system, summed over servers). With completions, Little's
    /// law yields the mean response time.
    pub request_seconds: f64,
}

/// The whole simulated cluster: N servers behind one balancer.
#[derive(Debug, Clone)]
pub struct ClusterSim {
    servers: Vec<Server>,
    lvs: LoadBalancer,
    /// Routing scratch, reused by every admission batch.
    route_heap: RouteHeap,
    time_s: u64,
    total_offered: u64,
    total_dropped: u64,
    total_completed: u64,
    total_request_seconds: f64,
}

impl ClusterSim {
    /// Creates a cluster of identical servers.
    pub fn homogeneous(n: usize, config: ServerConfig) -> Self {
        ClusterSim::new((0..n).map(|_| config.clone()).collect())
    }

    /// Creates a cluster from per-server configurations.
    pub fn new(configs: Vec<ServerConfig>) -> Self {
        let n = configs.len();
        ClusterSim {
            servers: configs.into_iter().map(Server::new).collect(),
            lvs: LoadBalancer::new(n),
            route_heap: RouteHeap::default(),
            time_s: 0,
            total_offered: 0,
            total_dropped: 0,
            total_completed: 0,
            total_request_seconds: 0.0,
        }
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the cluster has no servers.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Elapsed simulated seconds.
    pub fn time_s(&self) -> u64 {
        self.time_s
    }

    /// A server by index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn server(&self, index: usize) -> &Server {
        &self.servers[index]
    }

    /// Mutable server access (power control).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn server_mut(&mut self, index: usize) -> &mut Server {
        &mut self.servers[index]
    }

    /// The balancer (statistics queries).
    pub fn lvs(&self) -> &LoadBalancer {
        &self.lvs
    }

    /// Mutable balancer access (weights, caps, quiescing) — the interface
    /// Freon's `admd` drives.
    pub fn lvs_mut(&mut self) -> &mut LoadBalancer {
        &mut self.lvs
    }

    /// Requests offered since construction.
    pub fn total_offered(&self) -> u64 {
        self.total_offered
    }

    /// Requests dropped since construction.
    pub fn total_dropped(&self) -> u64 {
        self.total_dropped
    }

    /// Requests completed since construction.
    pub fn total_completed(&self) -> u64 {
        self.total_completed
    }

    /// Connections aborted by hard shutdowns since construction. They
    /// are not counted as dropped: the balancer had accepted them.
    pub fn total_killed(&self) -> u64 {
        self.servers.iter().map(Server::killed_total).sum()
    }

    /// Fraction of all offered requests that were dropped, in `[0, 1]`.
    pub fn drop_rate(&self) -> f64 {
        if self.total_offered == 0 {
            0.0
        } else {
            self.total_dropped as f64 / self.total_offered as f64
        }
    }

    /// Service sub-slots per second. Arrivals are admitted in batches
    /// interleaved with 50 ms service slices so that connections drain
    /// *during* the second — a balancer sees realistic instantaneous
    /// concurrency (Little's law) instead of a second's worth of queued
    /// arrivals, and connection caps throttle concurrency rather than
    /// blocking whole seconds of traffic.
    const SLOTS: usize = 20;

    /// Routes this tick's arrivals and advances every server by one
    /// second. The arrivals are split evenly over the admission slots,
    /// so their number must be known up front: a `Vec<Request>`, or any
    /// exact-size iterator that makes each request as it is routed.
    pub fn tick(
        &mut self,
        arrivals: impl IntoIterator<Item = Request, IntoIter: ExactSizeIterator>,
    ) -> TickStats {
        let mut queue = arrivals.into_iter();
        let mut stats = TickStats {
            offered: queue.len(),
            ..TickStats::default()
        };
        for server in &mut self.servers {
            server.begin_tick();
        }
        let slice = 1.0 / Self::SLOTS as f64;
        let per_slot = stats.offered.div_ceil(Self::SLOTS);
        for _ in 0..Self::SLOTS {
            self.lvs.route_batch(
                &mut self.servers,
                &mut self.route_heap,
                queue.by_ref().take(per_slot),
                |outcome| match outcome {
                    RouteOutcome::Routed(_) => stats.routed += 1,
                    RouteOutcome::Dropped => stats.dropped += 1,
                },
            );
            for server in &mut self.servers {
                server.serve_slice(slice);
            }
        }
        for server in &mut self.servers {
            stats.completed += server.end_tick();
            stats.request_seconds += server.tick_request_seconds();
        }
        stats.connections = self.servers.iter().map(Server::connections).collect();
        stats.cpu_utilization = self.servers.iter().map(Server::cpu_utilization).collect();
        stats.disk_utilization = self.servers.iter().map(Server::disk_utilization).collect();

        self.time_s += 1;
        self.total_offered += stats.offered as u64;
        self.total_dropped += stats.dropped as u64;
        self.total_completed += stats.completed as u64;
        self.total_request_seconds += stats.request_seconds;
        stats
    }

    /// Mean response time of completed requests so far, seconds, by
    /// Little's law (`Σ request-seconds / Σ completions`). Zero before
    /// any completion. Resolution is one service slice (50 ms).
    pub fn mean_response_time_s(&self) -> f64 {
        if self.total_completed == 0 {
            0.0
        } else {
            self.total_request_seconds / self.total_completed as f64
        }
    }

    /// Number of servers currently accepting connections.
    pub fn active_servers(&self) -> usize {
        self.servers
            .iter()
            .filter(|s| s.accepts_connections())
            .count()
    }

    /// Number of servers that are powered (anything but off).
    pub fn powered_servers(&self) -> usize {
        self.servers.iter().filter(|s| s.is_powered()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burst(n: usize) -> Vec<Request> {
        (0..n)
            .map(|i| {
                if i % 10 < 3 {
                    Request::dynamic()
                } else {
                    Request::static_file()
                }
            })
            .collect()
    }

    #[test]
    fn a_quiet_cluster_serves_everything() {
        let mut sim = ClusterSim::homogeneous(4, ServerConfig::default());
        let mut completed = 0;
        for _ in 0..10 {
            let stats = sim.tick(burst(40));
            assert_eq!(stats.dropped, 0);
            completed += stats.completed;
        }
        // Everything offered eventually completes (last tick may carry
        // residue, so allow the last batch to still be in flight).
        assert!(completed >= 360, "completed {completed}");
        assert_eq!(sim.total_dropped(), 0);
        assert_eq!(sim.drop_rate(), 0.0);
        assert_eq!(sim.time_s(), 10);
    }

    #[test]
    fn load_spreads_evenly_across_equal_servers() {
        // Uniform requests: least-connections balances counts, and equal
        // counts of equal requests mean equal utilization. (A mixed burst
        // whose sizes correlate with arrival order spreads *connections*
        // evenly but not CPU — that is faithful LVS behaviour.)
        let mut sim = ClusterSim::homogeneous(4, ServerConfig::default());
        let stats = sim.tick((0..400).map(|_| Request::dynamic()));
        let max = stats.cpu_utilization.iter().cloned().fold(0.0, f64::max);
        let min = stats.cpu_utilization.iter().cloned().fold(1.0, f64::min);
        assert!(max - min < 0.15, "uneven load: {:?}", stats.cpu_utilization);
    }

    #[test]
    fn weight_changes_steer_cpu_utilization() {
        let mut sim = ClusterSim::homogeneous(2, ServerConfig::default());
        sim.lvs_mut().set_weight(0, 0.25);
        let mut u0 = 0.0;
        let mut u1 = 0.0;
        for _ in 0..5 {
            let stats = sim.tick(burst(120));
            u0 = stats.cpu_utilization[0];
            u1 = stats.cpu_utilization[1];
        }
        // With weight 0.25 vs 1.0 the hot server should settle near a
        // quarter of the other's connection count; utilization follows.
        assert!(u1 > 1.7 * u0, "weights had no effect: {u0} vs {u1}");
    }

    #[test]
    fn turning_all_servers_off_drops_everything() {
        let mut sim = ClusterSim::homogeneous(2, ServerConfig::default());
        sim.server_mut(0).shutdown_graceful();
        sim.server_mut(1).shutdown_graceful();
        let stats = sim.tick(burst(10));
        assert_eq!(stats.dropped, 10);
        assert_eq!(sim.drop_rate(), 1.0);
        assert_eq!(sim.active_servers(), 0);
        assert_eq!(sim.powered_servers(), 0);
    }

    #[test]
    fn booting_server_joins_after_boot_time() {
        let cfg = ServerConfig {
            boot_seconds: 2,
            ..Default::default()
        };
        let mut sim = ClusterSim::homogeneous(2, cfg);
        sim.server_mut(0).shutdown_graceful();
        assert_eq!(sim.active_servers(), 1);
        sim.server_mut(0).power_on();
        assert_eq!(sim.powered_servers(), 2);
        assert_eq!(sim.active_servers(), 1);
        sim.tick(vec![]);
        sim.tick(vec![]);
        assert_eq!(sim.active_servers(), 2);
    }

    #[test]
    fn overload_is_visible_in_cumulative_stats() {
        // One server, capped connections, sustained overload.
        let mut sim = ClusterSim::homogeneous(1, ServerConfig::default());
        sim.lvs_mut().set_connection_cap(0, Some(30));
        for _ in 0..20 {
            // ~1.9 s of CPU demand per tick: the backlog outgrows the cap
            // within a few seconds and everything beyond it is dropped.
            sim.tick(burst(200));
        }
        assert!(sim.total_dropped() > 0);
        assert!(sim.drop_rate() > 0.1, "drop rate {}", sim.drop_rate());
        assert!(sim.total_completed() > 0);
    }

    #[test]
    fn response_time_grows_with_queueing() {
        // Light load: requests finish within their arrival slice, so the
        // mean response time stays near the slice resolution.
        let mut light = ClusterSim::homogeneous(1, ServerConfig::default());
        for _ in 0..20 {
            light.tick(burst(20));
        }
        let light_rt = light.mean_response_time_s();
        assert!(light_rt < 0.2, "light-load response time {light_rt}");

        // Sustained overload backs requests up behind the 256-connection
        // queue: response times grow by an order of magnitude.
        let mut heavy = ClusterSim::homogeneous(1, ServerConfig::default());
        for _ in 0..20 {
            heavy.tick(burst(150)); // ~1.4 s of CPU work per second
        }
        let heavy_rt = heavy.mean_response_time_s();
        assert!(
            heavy_rt > 3.0 * light_rt,
            "no queueing delay: {light_rt} vs {heavy_rt}"
        );
    }

    #[test]
    fn requests_are_conserved_through_a_kill_and_a_drain() {
        use crate::server::PowerState;
        // ~3.5 s of CPU demand per second over three servers: queues
        // build to `max_connections`, so the kill aborts a full server
        // and the balancer drops as well.
        let mut sim = ClusterSim::homogeneous(3, ServerConfig::default());
        let mut routed = 0u64;
        for t in 0..30 {
            if t == 5 {
                assert!(sim.server_mut(0).shutdown_hard() > 0);
            }
            if t == 10 {
                sim.server_mut(1).shutdown_graceful();
                assert_eq!(sim.server(1).state(), PowerState::Draining);
            }
            let stats = sim.tick(burst(if t < 15 { 400 } else { 20 }));
            assert_eq!(stats.offered, stats.routed + stats.dropped);
            routed += stats.routed as u64;
            let in_flight: usize = stats.connections.iter().sum();
            assert_eq!(
                routed,
                sim.total_completed() + in_flight as u64 + sim.total_killed(),
                "second {t}"
            );
            assert_eq!(sim.total_offered(), routed + sim.total_dropped());
        }
        assert_eq!(sim.total_killed(), sim.server(0).killed_total());
        assert!(sim.total_killed() > 0 && sim.total_dropped() > 0);
        assert_eq!(sim.server(1).state(), PowerState::Off, "drained");
    }

    #[test]
    fn response_time_is_zero_before_any_completion() {
        let sim = ClusterSim::homogeneous(1, ServerConfig::default());
        assert_eq!(sim.mean_response_time_s(), 0.0);
    }

    #[test]
    fn tick_stats_shapes_match_server_count() {
        let mut sim = ClusterSim::homogeneous(3, ServerConfig::default());
        let stats = sim.tick(vec![]);
        assert_eq!(stats.connections.len(), 3);
        assert_eq!(stats.cpu_utilization.len(), 3);
        assert_eq!(stats.disk_utilization.len(), 3);
        assert_eq!(stats.offered, 0);
    }
}
