//! How big each workload's fixed unit of work is.
//!
//! A run repeats whole units until `--seconds` have passed and reports
//! one order statistic over them, so every simulated statistic is that
//! of one unit and repeats exactly, while the wall-clock window stays
//! what the driver asked for. The full sizes keep one unit between a seventh of
//! a second and about two and a half seconds on a 2-core host — the shapes are
//! those of the issue (64-machine closed loop, window-64 UDP client,
//! 1024-machine replays), the tick and request constants are scaled to
//! fit the driver's total time cap. `--smoke` shrinks every constant so
//! the four workloads finish in a few seconds in a debug build.

/// Every size constant of the four workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizes {
    /// `freon_closed_loop`: servers in the room and behind LVS.
    pub freon_machines: usize,
    /// Length of one diurnal cycle, simulated seconds.
    pub freon_cycle_s: u64,
    /// Cycles per unit (unit = `cycle_s × cycles` simulated seconds).
    pub freon_cycles: u64,
    /// When the inlet of every 8th machine is raised.
    pub freon_fiddle_at_s: u64,
    /// Prefix over which every run compares `Experiment::run` with the
    /// unrolled loop.
    pub freon_check_s: u64,
    /// Scale probe: machines and simulated seconds.
    pub freon_probe_machines: usize,
    /// Scale probe length, simulated seconds.
    pub freon_probe_s: u64,

    /// `net_live`: machines emulated by the service.
    pub net_machines: usize,
    /// Rounds per unit; one round is three requests per machine.
    pub net_rounds_per_unit: usize,
    /// Ticks of utilization corpus the rounds cycle through.
    pub net_corpus_ticks: usize,
    /// Calls per `proto` function in the codec probe.
    pub net_proto_calls: usize,
    /// Window-1 `Sensor::read_with_time` calls in the sensor probe.
    pub net_sensor_reads: usize,
    /// Seconds the service is left without requests to read its idle
    /// pace.
    pub net_idle_s: f64,

    /// `replay_*`: machines in the fleet.
    pub replay_machines: usize,
    /// `replay_steady`: ticks in the corpus (one pass = one unit).
    pub steady_ticks: usize,
    /// Ticks each input holds (the monitord interval).
    pub steady_span: usize,
    /// `replay_churn`: ticks in the corpus.
    pub churn_ticks: usize,
    /// Ticks between fan re-commands.
    pub churn_fiddle_every: usize,
    /// Machines whose fan is re-commanded each time.
    pub churn_fiddle_machines: usize,
    /// Leading ticks every run replays unfused, per tick and from
    /// memory, to check the streamed replay against.
    pub replay_check_ticks: usize,
    /// Seconds of the validation benchmark behind `reference.*`.
    pub reference_s: u64,
}

impl Sizes {
    /// The sizes `BENCHMARK.json` is bounded at.
    pub const FULL: Sizes = Sizes {
        freon_machines: 64,
        freon_cycle_s: 800,
        freon_cycles: 3,
        freon_fiddle_at_s: 480,
        freon_check_s: 240,
        freon_probe_machines: 256,
        freon_probe_s: 200,
        net_machines: 64,
        net_rounds_per_unit: 200,
        net_corpus_ticks: 512,
        net_proto_calls: 1_000_000,
        net_sensor_reads: 20_000,
        net_idle_s: 2.0,
        replay_machines: 1024,
        steady_ticks: 2880,
        steady_span: 30,
        churn_ticks: 1000,
        churn_fiddle_every: 10,
        churn_fiddle_machines: 128,
        replay_check_ticks: 120,
        reference_s: 5000,
    };

    /// Roughly 1/200 of the work, same shapes.
    pub const SMOKE: Sizes = Sizes {
        freon_machines: 8,
        freon_cycle_s: 60,
        freon_cycles: 3,
        freon_fiddle_at_s: 40,
        freon_check_s: 60,
        freon_probe_machines: 16,
        freon_probe_s: 20,
        net_machines: 8,
        net_rounds_per_unit: 100,
        net_corpus_ticks: 32,
        net_proto_calls: 2_000,
        net_sensor_reads: 200,
        net_idle_s: 0.2,
        replay_machines: 48,
        steady_ticks: 300,
        steady_span: 30,
        churn_ticks: 100,
        churn_fiddle_every: 10,
        churn_fiddle_machines: 6,
        replay_check_ticks: 60,
        reference_s: 400,
    };

    /// Full or smoke sizes.
    #[must_use]
    pub fn of(smoke: bool) -> &'static Sizes {
        if smoke {
            &Sizes::SMOKE
        } else {
            &Sizes::FULL
        }
    }

    /// Simulated seconds in one `freon_closed_loop` unit.
    #[must_use]
    pub fn freon_duration_s(&self) -> u64 {
        self.freon_cycle_s * self.freon_cycles
    }
}
