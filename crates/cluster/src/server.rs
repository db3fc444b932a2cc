//! The Apache-like server model.

use crate::request::Request;

/// Static configuration of one server.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// CPU service capacity, milliseconds of CPU work per second
    /// (1000 = one core at full speed).
    pub cpu_capacity_ms: f64,
    /// Disk service capacity, milliseconds of disk work per second.
    pub disk_capacity_ms: f64,
    /// Seconds from "power on" until the server accepts connections —
    /// the paper notes "turning on a server takes quite some time", which
    /// is why Freon-EC projects load into the future.
    pub boot_seconds: u32,
    /// Hard limit on concurrent connections (Apache's `MaxClients`).
    /// Beyond it the balancer has nowhere to put a request and drops it —
    /// this is where the traditional policy's "14% of requests" go when
    /// too few servers remain.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cpu_capacity_ms: 1000.0,
            disk_capacity_ms: 1000.0,
            boot_seconds: 30,
            max_connections: 256,
        }
    }
}

/// Power/lifecycle state of a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerState {
    /// Serving (or ready to serve) requests.
    On,
    /// Powered on, still booting; accepts no connections yet.
    Booting {
        /// Seconds until the server reaches [`PowerState::On`].
        remaining: u32,
    },
    /// Accepting no *new* connections, finishing the current ones, then
    /// turning off — how the paper turns a server off: "instructing LVS to
    /// stop using the server, waiting for its current connections to
    /// terminate, and then shutting it down".
    Draining,
    /// Powered off.
    Off,
}

/// One simulated server: a processor-sharing CPU and disk working through
/// its active connections.
#[derive(Debug, Clone)]
pub struct Server {
    config: ServerConfig,
    state: PowerState,
    /// Remaining `[cpu, disk]` demand, ms, of each active connection in
    /// admission order — all the service model reads of a request.
    active: Vec<[f64; 2]>,
    completed_last_tick: usize,
    cpu_utilization: f64,
    disk_utilization: f64,
    tick_cpu_used: f64,
    tick_disk_used: f64,
    tick_completed: usize,
    tick_request_seconds: f64,
    /// Connections aborted by hard shutdowns since construction.
    killed_total: u64,
    /// CPU frequency scale in `[MIN_SPEED_SCALE, 1]` — the DVFS /
    /// clock-throttling lever the paper's §4.3 compares Freon against.
    speed_scale: f64,
}

/// Demand below which a connection no longer wants a resource, ms.
const SERVED_MS: f64 = 1e-9;

/// The lowest CPU frequency scale a server supports (real parts offer a
/// limited set of voltage/frequency pairs; we allow a continuous range
/// down to a quarter speed).
pub const MIN_SPEED_SCALE: f64 = 0.25;

impl Server {
    /// Creates a powered-on, idle server.
    pub fn new(config: ServerConfig) -> Self {
        Server {
            config,
            state: PowerState::On,
            active: Vec::new(),
            completed_last_tick: 0,
            cpu_utilization: 0.0,
            disk_utilization: 0.0,
            tick_cpu_used: 0.0,
            tick_disk_used: 0.0,
            tick_completed: 0,
            tick_request_seconds: 0.0,
            killed_total: 0,
            speed_scale: 1.0,
        }
    }

    /// The current CPU frequency scale in `[MIN_SPEED_SCALE, 1]`.
    pub fn speed_scale(&self) -> f64 {
        self.speed_scale
    }

    /// Sets the CPU frequency scale (DVFS / clock throttling). Values are
    /// clamped to `[MIN_SPEED_SCALE, 1]`; non-finite input resets to full
    /// speed. At scale `s` the CPU serves `s × cpu_capacity_ms` of work
    /// per second; utilization is reported relative to the *scaled*
    /// capacity, exactly as a real `/proc` reading would behave.
    pub fn set_speed_scale(&mut self, scale: f64) {
        self.speed_scale = if scale.is_finite() {
            scale.clamp(MIN_SPEED_SCALE, 1.0)
        } else {
            1.0
        };
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Current lifecycle state.
    pub fn state(&self) -> PowerState {
        self.state
    }

    /// Whether the server accepts new connections right now.
    pub fn accepts_connections(&self) -> bool {
        self.state == PowerState::On
    }

    /// Whether the server consumes power right now (anything but `Off`).
    pub fn is_powered(&self) -> bool {
        self.state != PowerState::Off
    }

    /// Number of active connections.
    pub fn connections(&self) -> usize {
        self.active.len()
    }

    /// CPU utilization over the last tick, in `[0, 1]` — what `monitord`
    /// reports to Mercury for this server's CPU.
    pub fn cpu_utilization(&self) -> f64 {
        self.cpu_utilization
    }

    /// Disk utilization over the last tick, in `[0, 1]`.
    pub fn disk_utilization(&self) -> f64 {
        self.disk_utilization
    }

    /// Requests completed during the last tick.
    pub fn completed_last_tick(&self) -> usize {
        self.completed_last_tick
    }

    /// Connections aborted by [`shutdown_hard`](Self::shutdown_hard)
    /// since construction — accepted by the balancer, never completed.
    pub fn killed_total(&self) -> u64 {
        self.killed_total
    }

    /// Hands the server a new connection.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when called on a server that does not accept
    /// connections; the load balancer never routes to one.
    pub fn admit(&mut self, request: Request) {
        debug_assert!(
            self.accepts_connections(),
            "routed to a non-accepting server"
        );
        self.active.push([request.cpu_ms(), request.disk_ms()]);
    }

    /// Begins the power-on sequence. No-op unless the server is off.
    pub fn power_on(&mut self) {
        if self.state == PowerState::Off {
            self.state = if self.config.boot_seconds == 0 {
                PowerState::On
            } else {
                PowerState::Booting {
                    remaining: self.config.boot_seconds,
                }
            };
        }
    }

    /// Begins a graceful shutdown: stop accepting, drain, then off.
    pub fn shutdown_graceful(&mut self) {
        match self.state {
            PowerState::On => {
                self.state = if self.active.is_empty() {
                    PowerState::Off
                } else {
                    PowerState::Draining
                };
            }
            PowerState::Booting { .. } => self.state = PowerState::Off,
            PowerState::Draining | PowerState::Off => {}
        }
    }

    /// Immediately cuts power, aborting active connections. Returns how
    /// many connections were killed.
    pub fn shutdown_hard(&mut self) -> usize {
        let killed = self.active.len();
        self.killed_total += killed as u64;
        self.active.clear();
        self.state = PowerState::Off;
        self.cpu_utilization = 0.0;
        self.disk_utilization = 0.0;
        killed
    }

    /// Whether the server is in a state that performs service this tick.
    fn is_serving(&self) -> bool {
        matches!(self.state, PowerState::On | PowerState::Draining)
    }

    /// Starts a new one-second tick: resets the per-tick accumulators.
    pub fn begin_tick(&mut self) {
        self.tick_cpu_used = 0.0;
        self.tick_disk_used = 0.0;
        self.tick_completed = 0;
        self.tick_request_seconds = 0.0;
    }

    /// Request-seconds accumulated this tick: the time-integral of the
    /// number of requests in the system (Little's law turns this into a
    /// mean response time: `Σ request-seconds / Σ completions`).
    pub fn tick_request_seconds(&self) -> f64 {
        self.tick_request_seconds
    }

    /// Serves `fraction` of one second of capacity by processor sharing.
    /// The cluster simulation calls this many times per tick, interleaved
    /// with request admission, so connections drain *during* the second —
    /// matching how a real balancer observes concurrency.
    pub fn serve_slice(&mut self, fraction: f64) {
        // An idle server runs no round, completes nothing and adds
        // `0 × fraction` request-seconds: nothing to write.
        if !self.is_serving() || self.active.is_empty() {
            return;
        }
        let mut cpu_left = self.config.cpu_capacity_ms * self.speed_scale * fraction;
        let mut disk_left = self.config.disk_capacity_ms * fraction;
        // Locals, so that the charging loop keeps them in registers: a
        // store through `active` might alias a field of `self`.
        let (mut cpu_used, mut disk_used) = (self.tick_cpu_used, self.tick_disk_used);
        // Round-based processor sharing: split the remaining budget
        // equally among connections that still need that resource; repeat
        // until the budget or the demand is exhausted.
        for _ in 0..32 {
            let cpu_hungry = self.active.iter().filter(|r| r[0] > SERVED_MS).count();
            let disk_hungry = self.active.iter().filter(|r| r[1] > SERVED_MS).count();
            if (cpu_hungry == 0 || cpu_left <= SERVED_MS)
                && (disk_hungry == 0 || disk_left <= SERVED_MS)
            {
                break;
            }
            // With nobody hungry the quotient is ±∞ or NaN, and nobody
            // is offered it.
            let cpu_offer = (cpu_left / cpu_hungry as f64).max(0.0);
            let disk_offer = (disk_left / disk_hungry as f64).max(0.0);
            for [cpu, disk] in &mut self.active {
                let used = cpu.min(if *cpu > SERVED_MS { cpu_offer } else { 0.0 });
                *cpu -= used;
                cpu_left -= used;
                cpu_used += used;
                let used = disk.min(if *disk > SERVED_MS { disk_offer } else { 0.0 });
                *disk -= used;
                disk_left -= used;
                disk_used += used;
            }
        }
        (self.tick_cpu_used, self.tick_disk_used) = (cpu_used, disk_used);
        let before = self.active.len();
        self.active
            .retain(|[cpu, disk]| *cpu > SERVED_MS || *disk > SERVED_MS);
        self.tick_completed += before - self.active.len();
        // Requests still in the system at the end of the slice have spent
        // (at least) the slice in it; completed requests spent part of it,
        // which this under-counts by at most one slice each — a bounded,
        // documented approximation.
        self.tick_request_seconds += self.active.len() as f64 * fraction;
    }

    /// Finishes the tick: computes utilizations and advances the
    /// lifecycle. Returns the number of requests completed this tick.
    pub fn end_tick(&mut self) -> usize {
        match self.state {
            PowerState::Off => {
                self.cpu_utilization = 0.0;
                self.disk_utilization = 0.0;
            }
            PowerState::Booting { remaining } => {
                // Booting consumes CPU (disk spin-up, daemon start): the
                // paper observes that a machine turning on spikes its CPU
                // utilization and temperature.
                self.cpu_utilization = 1.0;
                self.disk_utilization = 0.5;
                self.state = if remaining <= 1 {
                    PowerState::On
                } else {
                    PowerState::Booting {
                        remaining: remaining - 1,
                    }
                };
            }
            PowerState::On | PowerState::Draining => {
                self.cpu_utilization = (self.tick_cpu_used
                    / (self.config.cpu_capacity_ms * self.speed_scale))
                    .clamp(0.0, 1.0);
                self.disk_utilization =
                    (self.tick_disk_used / self.config.disk_capacity_ms).clamp(0.0, 1.0);
                if self.state == PowerState::Draining && self.active.is_empty() {
                    self.state = PowerState::Off;
                }
            }
        }
        self.completed_last_tick = self.tick_completed;
        self.tick_completed
    }

    /// Advances the server by one second of processor-sharing service
    /// with all of this tick's work already admitted. Returns the number
    /// of requests completed.
    pub fn tick(&mut self) -> usize {
        self.begin_tick();
        self.serve_slice(1.0);
        self.end_tick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Request, RequestKind, STATIC_CPU_MS, STATIC_DISK_MS};

    #[test]
    fn idle_server_has_zero_utilization() {
        let mut s = Server::new(ServerConfig::default());
        assert_eq!(s.tick(), 0);
        assert_eq!(s.cpu_utilization(), 0.0);
        assert_eq!(s.disk_utilization(), 0.0);
        assert!(s.accepts_connections());
    }

    #[test]
    fn serving_drains_demands_and_completes() {
        // 6 ms of CPU and 10 ms of disk per second against a request
        // that wants 10 and 4.
        let mut s = Server::new(ServerConfig {
            cpu_capacity_ms: 6.0,
            disk_capacity_ms: 10.0,
            ..Default::default()
        });
        s.admit(Request::new(RequestKind::Dynamic, 10.0, 4.0));
        assert_eq!(s.tick(), 0);
        assert_eq!((s.cpu_utilization(), s.disk_utilization()), (1.0, 0.4));
        assert_eq!(s.connections(), 1);
        assert_eq!(s.tick(), 1);
        assert_eq!(
            (s.cpu_utilization(), s.disk_utilization()),
            (4.0 / 6.0, 0.0)
        );
        assert_eq!(s.connections(), 0);
        // Further service consumes nothing.
        assert_eq!(s.tick(), 0);
        assert_eq!((s.cpu_utilization(), s.disk_utilization()), (0.0, 0.0));
    }

    #[test]
    fn negative_budgets_serve_nothing() {
        let mut s = Server::new(ServerConfig::default());
        s.admit(Request::static_file());
        s.begin_tick();
        s.serve_slice(-1.0);
        assert_eq!(s.end_tick(), 0);
        assert_eq!((s.cpu_utilization(), s.disk_utilization()), (0.0, 0.0));
        // The demand is untouched: the next second serves all of it.
        assert_eq!(s.tick(), 1);
        assert_eq!(s.cpu_utilization(), STATIC_CPU_MS / 1000.0);
        assert_eq!(s.disk_utilization(), STATIC_DISK_MS / 1000.0);
    }

    #[test]
    fn a_zero_demand_request_completes_in_the_next_slice() {
        // Clamped to nothing, it is complete at admission; no round runs
        // for it, yet the slice must count and remove it.
        let mut s = Server::new(ServerConfig::default());
        s.admit(Request::new(RequestKind::Static, -5.0, f64::NAN));
        assert_eq!(s.connections(), 1);
        assert_eq!(s.tick(), 1);
        assert_eq!(s.connections(), 0);
        assert_eq!(s.tick_request_seconds(), 0.0);
    }

    #[test]
    fn utilization_tracks_offered_cpu_work() {
        let mut s = Server::new(ServerConfig::default());
        // 20 CGI requests × 25 ms = 500 ms of CPU work -> 50% utilization.
        for _ in 0..20 {
            s.admit(Request::dynamic());
        }
        let done = s.tick();
        assert_eq!(done, 20, "all requests fit within one second");
        assert!(
            (s.cpu_utilization() - 0.5).abs() < 0.01,
            "cpu {}",
            s.cpu_utilization()
        );
    }

    #[test]
    fn overload_carries_work_across_ticks() {
        let mut s = Server::new(ServerConfig::default());
        // 60 × 25 ms = 1500 ms of CPU demand: one second cannot finish it.
        for _ in 0..60 {
            s.admit(Request::dynamic());
        }
        let done_first = s.tick();
        assert!(done_first < 60);
        assert!((s.cpu_utilization() - 1.0).abs() < 1e-6);
        assert!(s.connections() > 0);
        let done_second = s.tick();
        assert_eq!(done_first + done_second, 60);
        assert!(s.cpu_utilization() < 1.0);
    }

    #[test]
    fn processor_sharing_is_fair_across_mixed_work() {
        let mut s = Server::new(ServerConfig::default());
        for _ in 0..10 {
            s.admit(Request::dynamic());
            s.admit(Request::static_file());
        }
        s.tick();
        // 10×25 + 10×2 = 270 ms CPU; 10×1 + 10×6 = 70 ms disk.
        assert!((s.cpu_utilization() - 0.27).abs() < 0.01);
        assert!((s.disk_utilization() - 0.07).abs() < 0.01);
        assert_eq!(s.connections(), 0);
    }

    #[test]
    fn boot_sequence_takes_configured_time_and_burns_cpu() {
        let mut s = Server::new(ServerConfig {
            boot_seconds: 3,
            ..Default::default()
        });
        s.shutdown_graceful();
        assert_eq!(s.state(), PowerState::Off);
        s.power_on();
        assert_eq!(s.state(), PowerState::Booting { remaining: 3 });
        assert!(!s.accepts_connections());
        s.tick();
        assert_eq!(s.cpu_utilization(), 1.0, "booting spikes the cpu");
        s.tick();
        s.tick();
        assert_eq!(s.state(), PowerState::On);
        assert!(s.accepts_connections());
    }

    #[test]
    fn graceful_shutdown_drains_first() {
        let mut s = Server::new(ServerConfig::default());
        for _ in 0..80 {
            s.admit(Request::dynamic()); // 2 s of CPU work
        }
        s.shutdown_graceful();
        assert_eq!(s.state(), PowerState::Draining);
        assert!(!s.accepts_connections());
        s.tick();
        assert_eq!(s.state(), PowerState::Draining, "still busy");
        s.tick();
        assert_eq!(s.state(), PowerState::Off, "drained and powered down");
    }

    #[test]
    fn graceful_shutdown_of_idle_server_is_immediate() {
        let mut s = Server::new(ServerConfig::default());
        s.shutdown_graceful();
        assert_eq!(s.state(), PowerState::Off);
    }

    #[test]
    fn hard_shutdown_kills_connections() {
        let mut s = Server::new(ServerConfig::default());
        for _ in 0..5 {
            s.admit(Request::new(RequestKind::Dynamic, 10_000.0, 0.0));
        }
        assert_eq!(s.shutdown_hard(), 5);
        assert_eq!(s.state(), PowerState::Off);
        assert_eq!(s.connections(), 0);
        assert_eq!(s.cpu_utilization(), 0.0);
    }

    #[test]
    fn power_on_is_noop_unless_off() {
        let mut s = Server::new(ServerConfig::default());
        s.power_on();
        assert_eq!(s.state(), PowerState::On);
    }

    #[test]
    fn zero_boot_time_powers_on_instantly() {
        let mut s = Server::new(ServerConfig {
            boot_seconds: 0,
            ..Default::default()
        });
        s.shutdown_graceful();
        s.power_on();
        assert_eq!(s.state(), PowerState::On);
    }

    #[test]
    fn speed_scale_halves_throughput_and_rescales_utilization() {
        let mut s = Server::new(ServerConfig::default());
        s.set_speed_scale(0.5);
        assert_eq!(s.speed_scale(), 0.5);
        // 30 CGI × 25 ms = 750 ms of CPU work; at half speed only 500 ms
        // can be served in one second.
        for _ in 0..30 {
            s.admit(Request::new(RequestKind::Dynamic, 25.0, 0.0));
        }
        let done = s.tick();
        assert!(done < 30, "half-speed CPU finished everything");
        // Utilization is relative to the scaled capacity: saturated.
        assert!((s.cpu_utilization() - 1.0).abs() < 1e-6);
        // Back to full speed, the backlog clears.
        s.set_speed_scale(1.0);
        s.tick();
        assert_eq!(s.connections(), 0);
    }

    #[test]
    fn speed_scale_clamps_bad_values() {
        let mut s = Server::new(ServerConfig::default());
        s.set_speed_scale(0.01);
        assert_eq!(s.speed_scale(), MIN_SPEED_SCALE);
        s.set_speed_scale(3.0);
        assert_eq!(s.speed_scale(), 1.0);
        s.set_speed_scale(f64::NAN);
        assert_eq!(s.speed_scale(), 1.0);
    }

    #[test]
    fn speed_scale_leaves_the_disk_alone() {
        let mut s = Server::new(ServerConfig::default());
        s.set_speed_scale(0.25);
        for _ in 0..100 {
            s.admit(Request::new(RequestKind::Static, 0.0, 8.0)); // 800 ms disk
        }
        s.tick();
        assert!(
            (s.disk_utilization() - 0.8).abs() < 0.01,
            "disk {}",
            s.disk_utilization()
        );
    }

    #[test]
    fn disk_bound_work_saturates_the_disk_not_the_cpu() {
        let mut s = Server::new(ServerConfig::default());
        for _ in 0..300 {
            s.admit(Request::new(RequestKind::Static, 1.0, 10.0)); // 3 s of disk
        }
        s.tick();
        assert!((s.disk_utilization() - 1.0).abs() < 1e-6);
        assert!(s.cpu_utilization() < 0.5);
    }
}
