//! The static/dynamic request blend.

use cluster_sim::{Request, RequestKind};

/// How requests divide between static files and CGI scripts, and what
/// each kind demands from the CPU and disk.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestMix {
    /// Fraction of requests that are dynamic, in `[0, 1]`.
    pub dynamic_fraction: f64,
    /// CPU demand of a dynamic request, ms.
    pub dynamic_cpu_ms: f64,
    /// Disk demand of a dynamic request, ms.
    pub dynamic_disk_ms: f64,
    /// CPU demand of a static request, ms.
    pub static_cpu_ms: f64,
    /// Disk demand of a static request, ms.
    pub static_disk_ms: f64,
}

impl RequestMix {
    /// The paper's trace: 30% dynamic, 25 ms CGI compute.
    pub fn paper() -> Self {
        RequestMix {
            dynamic_fraction: 0.3,
            dynamic_cpu_ms: cluster_sim::Request::dynamic().cpu_ms(),
            dynamic_disk_ms: cluster_sim::Request::dynamic().disk_ms(),
            static_cpu_ms: cluster_sim::Request::static_file().cpu_ms(),
            static_disk_ms: cluster_sim::Request::static_file().disk_ms(),
        }
    }

    /// Mean CPU demand per request, ms.
    pub fn mean_cpu_ms(&self) -> f64 {
        self.dynamic_fraction * self.dynamic_cpu_ms
            + (1.0 - self.dynamic_fraction) * self.static_cpu_ms
    }

    /// Mean disk demand per request, ms.
    pub fn mean_disk_ms(&self) -> f64 {
        self.dynamic_fraction * self.dynamic_disk_ms
            + (1.0 - self.dynamic_fraction) * self.static_disk_ms
    }

    /// The request rate that produces `target` average CPU utilization on
    /// `servers` machines of `cpu_capacity_ms` ms/s each — how the paper
    /// sizes its peak ("70% utilization with 4 servers").
    pub fn rps_for_cpu_utilization(
        &self,
        target: f64,
        servers: usize,
        cpu_capacity_ms: f64,
    ) -> f64 {
        let budget = target.clamp(0.0, 1.0) * servers as f64 * cpu_capacity_ms;
        let mean = self.mean_cpu_ms();
        if mean <= 0.0 {
            0.0
        } else {
            budget / mean
        }
    }

    /// Materializes a request of the given kind with this mix's demands.
    pub fn request(&self, kind: RequestKind) -> Request {
        match kind {
            RequestKind::Dynamic => Request::new(
                RequestKind::Dynamic,
                self.dynamic_cpu_ms,
                self.dynamic_disk_ms,
            ),
            RequestKind::Static => {
                Request::new(RequestKind::Static, self.static_cpu_ms, self.static_disk_ms)
            }
        }
    }
}

impl Default for RequestMix {
    fn default() -> Self {
        RequestMix::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mix_is_30_percent_cgi() {
        let mix = RequestMix::paper();
        assert_eq!(mix.dynamic_fraction, 0.3);
        assert_eq!(mix.dynamic_cpu_ms, 25.0);
        // 0.3·25 + 0.7·2 = 8.9 ms mean CPU.
        assert!((mix.mean_cpu_ms() - 8.9).abs() < 1e-9);
    }

    #[test]
    fn peak_sizing_matches_hand_arithmetic() {
        let mix = RequestMix::paper();
        // 70% of 4×1000 ms = 2800 ms budget / 8.9 ms mean ≈ 314.6 rps.
        let rps = mix.rps_for_cpu_utilization(0.7, 4, 1000.0);
        assert!((rps - 2800.0 / 8.9).abs() < 1e-9);
        // Degenerate mean -> 0.
        let silly = RequestMix {
            dynamic_cpu_ms: 0.0,
            static_cpu_ms: 0.0,
            ..RequestMix::paper()
        };
        assert_eq!(silly.rps_for_cpu_utilization(0.7, 4, 1000.0), 0.0);
    }

    #[test]
    fn materialized_requests_carry_the_mix_demands() {
        let mix = RequestMix {
            dynamic_cpu_ms: 40.0,
            ..RequestMix::paper()
        };
        let r = mix.request(RequestKind::Dynamic);
        assert_eq!(r.cpu_ms(), 40.0);
        let r = mix.request(RequestKind::Static);
        assert_eq!(r.kind(), RequestKind::Static);
    }
}
