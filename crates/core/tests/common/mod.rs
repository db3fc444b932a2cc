//! Script machinery shared by the diverged-room equivalence suites
//! (`batch_equivalence.rs`, `pool_equivalence.rs`): a room whose
//! machines are fan-, heat-k- and air-fraction-fiddled, pinned and
//! released mid-run, driven the same way through differently configured
//! solvers.

#![allow(dead_code)] // each suite uses its own subset

use mercury::model::ClusterModel;
use mercury::presets::{nodes, FAN_CFM};
use mercury::solver::{ClusterSolver, SimdBackend, SolverConfig};
use mercury::units::Celsius;
use proptest::prelude::*;

/// One mid-run command against one machine.
#[derive(Debug, Clone)]
pub enum Fiddle {
    /// `set_fan_cfm(FAN_CFM × scale)`, scale in 0.5–1.5: diverges the
    /// machine and, across that range, moves its sub-step count.
    Fan(f64),
    /// `set_heat_k(cpu, cpu_air, k)`.
    HeatK(f64),
    /// `set_air_fraction(void_air, exhaust, f)`.
    AirFraction(f64),
    /// `force_temperature(cpu, t)`: the machine leaves the batch.
    Pin(f64),
    /// `release_temperature(cpu)`: it may rejoin.
    Release,
    /// `set_utilization(cpu, u)`.
    Utilization(f64),
}

/// A [`Fiddle`] applied before tick `tick` to machine `machine` (taken
/// modulo the room size).
#[derive(Debug, Clone)]
pub struct Event {
    pub tick: usize,
    pub machine: usize,
    pub fiddle: Fiddle,
}

/// Fan scales come from a 17-step palette over 0.5–1.5 so that machines
/// land on equal speeds (same-speed re-commands, shared classes) as well
/// as on different sub-step counts. Fan commands are listed twice to
/// make them the common draw.
pub fn fiddle_strategy() -> impl Strategy<Value = Fiddle> {
    prop_oneof![
        (0usize..17).prop_map(|i| Fiddle::Fan(0.5 + i as f64 / 16.0)),
        (0usize..17).prop_map(|i| Fiddle::Fan(0.5 + i as f64 / 16.0)),
        (0.4f64..1.5).prop_map(Fiddle::HeatK),
        (0.5f64..0.95).prop_map(Fiddle::AirFraction),
        (30.0f64..70.0).prop_map(Fiddle::Pin),
        Just(Fiddle::Release),
        (0.0f64..1.0).prop_map(Fiddle::Utilization),
    ]
}

/// Events over `ticks` ticks against the first `subset` machines, so the
/// same machines are commanded repeatedly.
pub fn script_strategy(
    ticks: usize,
    subset: usize,
    events: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<Event>> {
    proptest::collection::vec(
        (0..ticks, 0..subset, fiddle_strategy()).prop_map(|(tick, machine, fiddle)| Event {
            tick,
            machine,
            fiddle,
        }),
        events,
    )
}

/// How one run is configured and driven.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    pub batching: bool,
    pub threads: usize,
    pub backend: Option<SimdBackend>,
    /// `step_for` between events instead of one `step` per tick.
    pub fused: bool,
    /// Before this tick: checkpoint, restore into a fresh solver,
    /// continue on that one.
    pub restore_at: Option<usize>,
}

impl Setup {
    /// The reference: every machine on its own kernel, one thread.
    pub const PER_MACHINE: Setup = Setup {
        batching: false,
        threads: 1,
        backend: None,
        fused: false,
        restore_at: None,
    };

    /// Batched, otherwise as the reference.
    pub const BATCHED: Setup = Setup {
        batching: true,
        ..Setup::PER_MACHINE
    };

    fn build(&self, cluster: &ClusterModel) -> ClusterSolver {
        let mut s = ClusterSolver::new(cluster, SolverConfig::default()).unwrap();
        s.set_batching(self.batching);
        s.set_threads(self.threads);
        if let Some(backend) = self.backend {
            s.set_simd_backend(backend).unwrap();
        }
        s
    }
}

fn apply(s: &mut ClusterSolver, event: &Event) {
    let machine = event.machine % s.len();
    let solver = s.machine_at_mut(machine);
    match event.fiddle {
        Fiddle::Fan(scale) => solver.set_fan_cfm(FAN_CFM * scale).unwrap(),
        Fiddle::HeatK(k) => solver.set_heat_k(nodes::CPU, nodes::CPU_AIR, k).unwrap(),
        Fiddle::AirFraction(f) => solver
            .set_air_fraction(nodes::VOID_AIR, nodes::EXHAUST, f)
            .unwrap(),
        Fiddle::Pin(t) => solver.force_temperature(nodes::CPU, Celsius(t)).unwrap(),
        Fiddle::Release => solver.release_temperature(nodes::CPU).unwrap(),
        Fiddle::Utilization(u) => solver.set_utilization(nodes::CPU, u).unwrap(),
    }
}

/// Runs `script` for `ticks` ticks on a solver configured by `setup`.
/// Every machine starts at a utilization from `utils` (cycled).
pub fn run(
    cluster: &ClusterModel,
    utils: &[f64],
    script: &[Event],
    ticks: usize,
    setup: Setup,
) -> ClusterSolver {
    let mut s = setup.build(cluster);
    for m in 0..s.len() {
        let u = utils[m % utils.len()];
        let solver = s.machine_at_mut(m);
        solver.set_utilization(nodes::CPU, u).unwrap();
        solver
            .set_utilization(nodes::DISK_PLATTERS, 1.0 - u)
            .unwrap();
    }
    // Segment boundaries: every tick something happens before.
    let mut stops: Vec<usize> = script.iter().map(|e| e.tick).collect();
    stops.extend(setup.restore_at);
    stops.push(ticks);
    stops.retain(|&t| t <= ticks);
    stops.sort_unstable();
    stops.dedup();
    let mut at = 0;
    for stop in stops {
        if setup.fused {
            s.step_for(stop - at);
        } else {
            (at..stop).for_each(|_| s.step());
        }
        at = stop;
        if setup.restore_at == Some(at) {
            let blob = s.checkpoint();
            s = setup.build(cluster);
            s.restore_checkpoint(&blob).unwrap();
        }
        // Events in script order within a tick: a pin and its release
        // on one machine must not swap.
        for event in script.iter().filter(|e| e.tick == at) {
            apply(&mut s, event);
        }
    }
    s
}

/// Bitwise comparison of everything a tick computes: the clock, every
/// node temperature and each machine's generated heat.
pub fn assert_same_state(a: &ClusterSolver, b: &ClusterSolver, context: &str) {
    assert_eq!(a.len(), b.len());
    assert_eq!(
        a.time().0.to_bits(),
        b.time().0.to_bits(),
        "{context}: clock drift"
    );
    for m in 0..a.len() {
        let (ma, mb) = (a.machine_at(m), b.machine_at(m));
        assert_eq!(
            ma.generated_last_tick().0.to_bits(),
            mb.generated_last_tick().0.to_bits(),
            "{context}: machine {m} generated heat"
        );
        for ((name, x), (_, y)) in ma.temperatures().iter().zip(&mb.temperatures()) {
            assert_eq!(
                x.0.to_bits(),
                y.0.to_bits(),
                "{context}: machine {m} node {name}: {} vs {}",
                x.0,
                y.0
            );
        }
    }
}

/// The backends this host can run.
pub fn supported_backends() -> impl Iterator<Item = SimdBackend> {
    SimdBackend::ALL.into_iter().filter(|b| b.supported())
}
