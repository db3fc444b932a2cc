//! `admd` — the admission-control daemon at the load balancer (§4.1).

use cluster_sim::ClusterSim;

/// The admission-control daemon: turns `tempd` reports into LVS weight
/// and connection-cap adjustments.
///
/// Two levers, exactly as in the paper:
///
/// 1. **Weight rescaling** — "admd forces LVS to adjust its request
///    distribution by setting the hot server's weight so that it receives
///    only `1/(output+1)` of the load it is currently receiving (this
///    requires accounting for the weights of all servers)."
/// 2. **Connection capping** — "Freon also orders LVS to limit the
///    maximum allowed number of concurrent requests to the hot server at
///    the average number of concurrent requests over the last time
///    interval," which admd learns by sampling LVS every few seconds.
#[derive(Debug, Clone)]
pub struct Admd {
    /// Rolling per-server connection samples within the current minute.
    samples: Vec<Vec<usize>>,
}

impl Admd {
    /// Creates a daemon for an `n`-server cluster.
    pub fn new(n: usize) -> Self {
        Admd {
            samples: vec![Vec::new(); n],
        }
    }

    /// Records one LVS statistics sample (called every
    /// [`crate::FreonConfig::sample_period_s`] seconds).
    pub fn sample_connections(&mut self, sim: &ClusterSim) {
        for (i, samples) in self.samples.iter_mut().enumerate() {
            samples.push(sim.server(i).connections());
        }
    }

    /// Average connections observed for `server` since the last
    /// [`Admd::end_interval`], or `None` before any sample.
    pub fn average_connections(&self, server: usize) -> Option<f64> {
        let s = &self.samples[server];
        if s.is_empty() {
            None
        } else {
            Some(s.iter().sum::<usize>() as f64 / s.len() as f64)
        }
    }

    /// Closes the current observation interval (called once per
    /// monitoring period, after the reports are processed).
    pub fn end_interval(&mut self) {
        for s in &mut self.samples {
            s.clear();
        }
    }

    /// Applies a controller output to a hot server: rescale its weight so
    /// its share of new load drops to `1/(output+1)` of the current
    /// share, and cap its concurrent connections at the last interval's
    /// average.
    pub fn throttle(&self, sim: &mut ClusterSim, server: usize, output: f64) {
        self.rescale_weight(sim, server, output);
        self.apply_connection_cap(sim, server);
    }

    /// The weight lever alone.
    pub fn rescale_weight(&self, sim: &mut ClusterSim, server: usize, output: f64) {
        let output = output.max(0.0);
        let lvs = sim.lvs_mut();
        let n = lvs.len();
        let w_hot = lvs.weight(server);
        let w_total: f64 = (0..n).map(|i| lvs.weight(i)).sum();
        let w_rest = w_total - w_hot;
        if w_total > 0.0 && w_rest > 0.0 {
            let share = w_hot / w_total;
            let target_share = share / (output + 1.0);
            // Solve target = w' / (w' + w_rest) for the new weight.
            let new_weight = if target_share >= 1.0 {
                w_hot
            } else {
                (target_share * w_rest / (1.0 - target_share)).max(0.0)
            };
            lvs.set_weight(server, new_weight);
        } else if w_total > 0.0 {
            // The hot server is the only one in rotation: scale its
            // weight down anyway; least-connections keeps using it, but
            // the connection cap below still throttles.
            lvs.set_weight(server, w_hot / (output + 1.0));
        }
    }

    /// The connection-cap lever alone: caps the server's concurrency at
    /// the last interval's average (no-op before the first sample).
    pub fn apply_connection_cap(&self, sim: &mut ClusterSim, server: usize) {
        let cap = self
            .average_connections(server)
            .map(|avg| avg.ceil().max(1.0) as usize);
        if let Some(cap) = cap {
            sim.lvs_mut().set_connection_cap(server, Some(cap));
        }
    }

    /// Lifts every restriction from a server (weight 1, no cap) — the
    /// paper's response to all components cooling below `T_l`.
    pub fn release(&self, sim: &mut ClusterSim, server: usize) {
        sim.lvs_mut().clear_restrictions(server);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::{Request, ServerConfig};

    fn loaded_sim(n: usize) -> ClusterSim {
        let mut sim = ClusterSim::homogeneous(n, ServerConfig::default());
        // Long-running requests so connections persist across samples.
        let arrivals =
            (0..n * 20).map(|_| Request::new(cluster_sim::RequestKind::Dynamic, 60_000.0, 0.0));
        sim.tick(arrivals);
        sim
    }

    #[test]
    fn weight_rescaling_hits_the_target_share() {
        let mut sim = loaded_sim(4);
        let admd = Admd::new(4);
        // output = 1 -> hot server share should halve: 0.25 -> 0.125.
        admd.throttle(&mut sim, 0, 1.0);
        let w: Vec<f64> = (0..4).map(|i| sim.lvs().weight(i)).collect();
        let share = w[0] / w.iter().sum::<f64>();
        assert!((share - 0.125).abs() < 1e-9, "share {share}");
        // Other weights untouched.
        assert_eq!(&w[1..], &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn repeated_throttling_compounds() {
        let mut sim = loaded_sim(2);
        let admd = Admd::new(2);
        admd.throttle(&mut sim, 0, 1.0); // share 0.5 -> 0.25
        admd.throttle(&mut sim, 0, 1.0); // share 0.25 -> 0.125
        let w0 = sim.lvs().weight(0);
        let share = w0 / (w0 + 1.0);
        assert!((share - 0.125).abs() < 1e-9, "share {share}");
    }

    #[test]
    fn zero_output_still_caps_but_keeps_share() {
        let mut sim = loaded_sim(2);
        let mut admd = Admd::new(2);
        admd.sample_connections(&sim);
        admd.throttle(&mut sim, 0, 0.0);
        let w0 = sim.lvs().weight(0);
        assert!((w0 - 1.0).abs() < 1e-9, "weight changed to {w0}");
        assert!(sim.lvs().connection_cap(0).is_some());
    }

    #[test]
    fn connection_cap_uses_the_interval_average() {
        let mut sim = loaded_sim(2); // 20 connections per server
        let mut admd = Admd::new(2);
        admd.sample_connections(&sim);
        admd.sample_connections(&sim);
        assert_eq!(admd.average_connections(0), Some(20.0));
        admd.throttle(&mut sim, 0, 0.5);
        assert_eq!(sim.lvs().connection_cap(0), Some(20));
        // New interval forgets the samples.
        admd.end_interval();
        assert_eq!(admd.average_connections(0), None);
    }

    #[test]
    fn no_samples_means_no_cap() {
        let mut sim = loaded_sim(2);
        let admd = Admd::new(2);
        admd.throttle(&mut sim, 0, 1.0);
        assert_eq!(sim.lvs().connection_cap(0), None);
    }

    #[test]
    fn release_clears_weight_and_cap() {
        let mut sim = loaded_sim(2);
        let mut admd = Admd::new(2);
        admd.sample_connections(&sim);
        admd.throttle(&mut sim, 0, 2.0);
        assert!(sim.lvs().weight(0) < 1.0);
        admd.release(&mut sim, 0);
        assert_eq!(sim.lvs().weight(0), 1.0);
        assert_eq!(sim.lvs().connection_cap(0), None);
    }

    #[test]
    fn sole_server_weight_still_scales() {
        let mut sim = loaded_sim(1);
        let admd = Admd::new(1);
        admd.throttle(&mut sim, 0, 1.0);
        assert!((sim.lvs().weight(0) - 0.5).abs() < 1e-9);
    }
}
