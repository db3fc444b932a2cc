//! Script machinery shared by the diverged-room equivalence suites
//! (`batch_equivalence.rs`, `copy_on_write.rs`): a room whose
//! machines are fan-, heat-k- and air-fraction-fiddled, pinned and
//! released mid-run, driven the same way through differently configured
//! solvers — and, for the fed span ([`FedPlan`]), a second room that
//! takes the same inputs through its solvers one `step()` at a time.
//! For the room's air mix inside a span ([`MixPlan`]), random rooms of
//! supplies, junctions, recirculation and pinned machines are held to a
//! per-machine room that takes the same calls one `step()` at a time.
//! And [`RoomStepper`] is the per-tick reference those per-machine rooms
//! answer to ([`OraclePlan`]): a room stepped from public API only,
//! sharing nothing with `ClusterSolver` but the machine [`Solver`].
//!
//! Two oracles stand outside the kernel altogether: [`ReferenceSolver`],
//! the scan-based stepped-Euler machine the composed tick is held to
//! within rounding (a [`RoomStepper`] of them is the room-level one,
//! [`RecomposePlan`]), and [`ExactPropagator`], the matrix exponential
//! of a machine's generator, which measures Euler's discretisation
//! error.

#![allow(dead_code)]
// each suite uses its own subset
// The stepped oracle deliberately mirrors the original indexed loops.
#![allow(clippy::needless_range_loop)]

use mercury::model::{
    AirEdge, AirKind, ClusterEdge, ClusterEndpoint, ClusterModel, MachineModel, NodeId, PowerModel,
};
use mercury::physics;
use mercury::presets::{self, nodes, FAN_CFM};
use mercury::solver::{
    air_flows, model_air_flows, required_substeps, ClusterSolver, SimdBackend, Solver,
    SolverConfig, TickInputs,
};
use mercury::units::{
    Celsius, CubicMetersPerSecond, JoulesPerKelvin, KilogramsPerSecond, Seconds, Utilization,
    Watts, WattsPerKelvin,
};
use mercury::Error;
use proptest::prelude::*;
use std::collections::HashSet;

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
    /// `force_temperature(cpu_air, t)`: an air region pinned, so the
    /// composed tick reads it as a source column.
    PinAir(f64),
    /// `release_temperature(cpu_air)`.
    ReleaseAir,
    /// `set_utilization(cpu, u)`.
    Utilization(f64),
    /// `set_power_model(cpu, linear(7 W, max W))`: a power model the
    /// lanes still price themselves.
    Power(f64),
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
        (25.0f64..45.0).prop_map(Fiddle::PinAir),
        Just(Fiddle::ReleaseAir),
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
    pub backend: Option<SimdBackend>,
    /// `step_for` between events instead of one `step` per tick.
    pub fused: bool,
    /// Before this tick: checkpoint, restore into a fresh solver,
    /// continue on that one.
    pub restore_at: Option<usize>,
}

impl Setup {
    /// The reference: every machine on its own kernel.
    pub const PER_MACHINE: Setup = Setup {
        batching: false,
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
        if let Some(backend) = self.backend {
            s.set_simd_backend(backend).unwrap();
        }
        s
    }
}

pub fn apply(s: &mut ClusterSolver, event: &Event) {
    let machine = event.machine % s.len();
    fiddle(s.machine_at_mut(machine), &event.fiddle);
}

/// Applies one [`Fiddle`] to one machine. An air-fraction fiddle moves
/// the Table 1 server's void-air → exhaust split, or the inlet edge of a
/// CPU-only [`mix_machine`], which has no void air.
pub fn fiddle(solver: &mut Solver, fiddle: &Fiddle) {
    match *fiddle {
        Fiddle::Fan(scale) => solver.set_fan_cfm(FAN_CFM * scale).unwrap(),
        Fiddle::HeatK(k) => solver.set_heat_k(nodes::CPU, nodes::CPU_AIR, k).unwrap(),
        Fiddle::AirFraction(f) => {
            let (from, to) = if solver.node_index(nodes::VOID_AIR).is_some() {
                (nodes::VOID_AIR, nodes::EXHAUST)
            } else {
                (nodes::INLET, nodes::CPU_AIR)
            };
            solver.set_air_fraction(from, to, f).unwrap()
        }
        Fiddle::Pin(t) => solver.force_temperature(nodes::CPU, Celsius(t)).unwrap(),
        Fiddle::Release => solver.release_temperature(nodes::CPU).unwrap(),
        Fiddle::PinAir(t) => solver
            .force_temperature(nodes::CPU_AIR, Celsius(t))
            .unwrap(),
        Fiddle::ReleaseAir => solver.release_temperature(nodes::CPU_AIR).unwrap(),
        Fiddle::Utilization(u) => solver.set_utilization(nodes::CPU, u).unwrap(),
        Fiddle::Power(max_w) => solver
            .set_power_model(nodes::CPU, PowerModel::linear(7.0, max_w))
            .unwrap(),
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

/// The components a [`FedPlan`] feeds, as `.events` replay does.
pub const FED_COMPONENTS: [&str; 2] = [nodes::CPU, nodes::DISK_PLATTERS];

/// Utilizations that land at tick boundaries: a pure function of
/// `(seed, tick, machine, component)`, so the fed room and the stepped
/// room draw the same values without sharing state.
#[derive(Debug, Clone, Copy)]
pub struct FedInputs {
    pub seed: u64,
    /// Percentage of cells that change on any one tick: 100 is the
    /// churn regime, a few percent the sparse one, 0 feeds nothing.
    pub density: u64,
}

impl FedInputs {
    /// What cell `(machine, component)` changes to at `tick`, if it does.
    pub fn at(&self, tick: usize, machine: usize, component: usize) -> Option<f64> {
        // splitmix64 over the coordinates.
        let mut h = self
            .seed
            .wrapping_add((tick as u64) << 40 | (machine as u64) << 8 | component as u64)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        (h % 100 < self.density).then(|| ((h >> 32) % 1001) as f64 / 1000.0)
    }

    /// Every change due at `tick`, as `(machine, component, u)`.
    fn due(self, tick: usize, machines: usize) -> impl Iterator<Item = (usize, usize, f64)> {
        (0..machines).flat_map(move |m| {
            (0..FED_COMPONENTS.len()).filter_map(move |c| self.at(tick, m, c).map(|u| (m, c, u)))
        })
    }
}

/// A power model swapped onto one machine's CPU before tick `tick`
/// (taken modulo the room size, like [`Event::machine`]).
#[derive(Debug, Clone, Copy)]
pub struct Remodel {
    pub tick: usize,
    pub machine: usize,
    /// 0 linear, 1 table, 2 constant — the last two cannot be priced in
    /// a chunk lane.
    pub kind: usize,
}

impl Remodel {
    fn model(&self) -> PowerModel {
        match self.kind % 3 {
            0 => PowerModel::linear(9.0, 40.0),
            1 => PowerModel::Table(vec![
                (Utilization::new(0.0), Watts(8.0)),
                (Utilization::new(0.4), Watts(21.0)),
                (Utilization::new(1.0), Watts(33.0)),
            ]),
            _ => PowerModel::Constant(Watts(12.5)),
        }
    }
}

/// One fed-span equivalence case; see [`FedPlan::check`].
#[derive(Debug, Clone)]
pub struct FedPlan<'a> {
    pub cluster: &'a ClusterModel,
    pub utils: &'a [f64],
    /// Fiddles between `step_for_fed` calls (fan, heat-k, air fraction,
    /// pins, releases, utilizations through the solver).
    pub script: &'a [Event],
    /// Power-model changes between calls; tick 0 entries are in place
    /// before the first span.
    pub remodels: &'a [Remodel],
    pub inputs: FedInputs,
    pub ticks: usize,
    /// The feed ends every span after this many ticks (0 = never).
    pub cut: usize,
    /// The feed sets the next tick's inputs *before* it ends the span.
    pub write_at_cut: bool,
}

impl FedPlan<'_> {
    /// Drives one room through `step_for_fed` (configured by `setup`)
    /// and a second through "the same inputs via
    /// `machine_at_mut(..).set_utilization_at`, then `step()`", and
    /// holds them together: every node temperature and the clock after
    /// every tick (through probes, from inside the span), and
    /// `checkpoint()` bytes, `generated_last_tick`, `utilization()` and
    /// `time()` wherever a span ends. Returns the fed room.
    pub fn check(&self, setup: Setup) -> ClusterSolver {
        let mut fed = setup.build(self.cluster);
        let mut stepped = setup.build(self.cluster);
        let n = fed.len();
        let node_of: Vec<usize> = FED_COMPONENTS
            .iter()
            .map(|c| fed.machine_at(0).node_index(c).unwrap())
            .collect();
        let names: Vec<String> = fed.machine_names().iter().map(|s| s.to_string()).collect();
        let node_names: Vec<String> = fed.machine_at(0).node_names().map(str::to_string).collect();
        let probes: Vec<_> = names
            .iter()
            .flat_map(|m| node_names.iter().map(move |node| (m, node)))
            .map(|(m, node)| fed.probe(m, node).unwrap())
            .collect();
        for s in [&mut fed, &mut stepped] {
            for m in 0..n {
                let u = self.utils[m % self.utils.len()];
                let solver = s.machine_at_mut(m);
                solver.set_utilization(nodes::CPU, u).unwrap();
                solver
                    .set_utilization(nodes::DISK_PLATTERS, 1.0 - u)
                    .unwrap();
            }
        }

        let mut stops: Vec<usize> = self.script.iter().map(|e| e.tick).collect();
        stops.extend(self.remodels.iter().map(|r| r.tick));
        stops.push(self.ticks);
        stops.retain(|&t| t <= self.ticks);
        stops.sort_unstable();
        stops.dedup();
        let mut at = 0;
        for stop in stops {
            while at < stop {
                let mut history: Vec<(u64, Vec<u64>)> = Vec::new();
                let mut now = fed.time().0;
                let dt = fed.machine_at(0).dt().0;
                let mut fed_ticks = 0;
                let push = |inputs: &mut TickInputs<'_>, tick: usize| -> Result<(), Error> {
                    for (m, c, u) in self.inputs.due(tick, n) {
                        inputs.set_utilization_at(m, node_of[c], u)?;
                    }
                    Ok(())
                };
                let stepped_now = fed
                    .step_for_fed(
                        stop - at,
                        &probes,
                        |time, temps| {
                            let bits = temps.iter().map(|t| t.0.to_bits()).collect();
                            history.push((time.0.to_bits(), bits));
                        },
                        |inputs| {
                            assert_eq!(inputs.machines(), n);
                            assert_eq!(inputs.time().0.to_bits(), now.to_bits(), "feed clock");
                            if self.cut != 0 && fed_ticks == self.cut {
                                if self.write_at_cut {
                                    push(inputs, at + fed_ticks)?;
                                }
                                return Ok(false);
                            }
                            push(inputs, at + fed_ticks)?;
                            fed_ticks += 1;
                            now += dt;
                            Ok(true)
                        },
                    )
                    .unwrap();
                assert_eq!(stepped_now, fed_ticks);
                assert_eq!(history.len(), fed_ticks);
                assert!(fed_ticks > 0, "a span steps at least its first tick");

                let through_solvers = |stepped: &mut ClusterSolver, tick: usize| {
                    for (m, c, u) in self.inputs.due(tick, n) {
                        stepped
                            .machine_at_mut(m)
                            .set_utilization_at(node_of[c], u)
                            .unwrap();
                    }
                };
                for (k, (time, temps)) in history.iter().enumerate() {
                    through_solvers(&mut stepped, at + k);
                    stepped.step();
                    assert_eq!(*time, stepped.time().0.to_bits(), "tick {}: clock", at + k);
                    let mut probe = 0;
                    for m in 0..n {
                        for (name, t) in stepped.machine_at(m).temperatures() {
                            assert_eq!(
                                temps[probe],
                                t.0.to_bits(),
                                "tick {}: machine {m} node {name}",
                                at + k
                            );
                            probe += 1;
                        }
                    }
                }
                at += fed_ticks;
                if self.write_at_cut && at < stop {
                    // The feed set tick `at`'s inputs before ending the
                    // span; the stepped room has them set the same way.
                    through_solvers(&mut stepped, at);
                }
                let context = format!("after tick {at}");
                assert_same_state(&fed, &stepped, &context);
                for m in 0..n {
                    for c in FED_COMPONENTS {
                        assert_eq!(
                            fed.machine_at(m).utilization(c).unwrap(),
                            stepped.machine_at(m).utilization(c).unwrap(),
                            "{context}: machine {m} utilization of {c}"
                        );
                    }
                }
                assert!(
                    fed.checkpoint() == stepped.checkpoint(),
                    "{context}: checkpoint bytes differ"
                );
            }
            for s in [&mut fed, &mut stepped] {
                // Script order within a tick, as in [`run`].
                for event in self.script.iter().filter(|e| e.tick == at) {
                    apply(s, event);
                }
                for r in self.remodels.iter().filter(|r| r.tick == at) {
                    s.machine_at_mut(r.machine % n)
                        .set_power_model(nodes::CPU, r.model())
                        .unwrap();
                }
            }
        }
        fed
    }
}

// --- rooms for the air-mix suites -----------------------------------------

/// A server with `exhausts` exhaust regions: one is the Table 1 server
/// itself, zero or two a CPU-only box whose CPU air drains nowhere or
/// splits between a front and a rear exhaust. The count is structural,
/// so machines of different counts batch in different groups.
pub fn mix_machine(name: &str, exhausts: usize) -> MachineModel {
    if exhausts == 1 {
        return presets::validation_machine().renamed(name);
    }
    let mut b = MachineModel::builder(name);
    b.component(nodes::CPU)
        .mass_kg(0.151)
        .specific_heat(896.0)
        .power_range(7.0, 31.0);
    b.inlet(nodes::INLET);
    b.air(nodes::CPU_AIR);
    b.heat_edge(nodes::CPU, nodes::CPU_AIR, 0.75).unwrap();
    b.air_edge(nodes::INLET, nodes::CPU_AIR, 1.0).unwrap();
    if exhausts == 2 {
        b.exhaust("exhaust_front");
        b.exhaust("exhaust_rear");
        b.air_edge(nodes::CPU_AIR, "exhaust_front", 0.6).unwrap();
        b.air_edge(nodes::CPU_AIR, "exhaust_rear", 0.4).unwrap();
    }
    b.build().unwrap()
}

/// A machine room for the air-mix suites. Per-machine lists are cycled
/// over the machines; supply and junction indices are taken modulo
/// their counts, and junction edges are dropped in a room without
/// junctions.
#[derive(Debug, Clone)]
pub struct MixRoom {
    pub machines: usize,
    /// Exhaust regions of each machine (see [`mix_machine`]).
    pub exhausts: Vec<usize>,
    /// 1 or 2 AC supplies; machine `m`'s inlet reads supply `m % supplies`.
    pub supplies: usize,
    pub junctions: usize,
    /// The junction each machine's exhaust feeds, if any.
    pub exhaust_to: Vec<Option<usize>>,
    /// The junction recirculating into each machine's inlet, if any.
    pub recirculate: Vec<Option<usize>>,
    /// Junction → junction edges, in either declaration order
    /// (self-loops and repeats dropped).
    pub links: Vec<(usize, usize)>,
    /// Machines whose CPU is pinned before the first call: they step
    /// solo.
    pub pinned: Vec<usize>,
}

impl MixRoom {
    /// Figure 1c's ideal room: every inlet reads the one supply, every
    /// exhaust feeds one junction nothing reads; machines with one and
    /// with two exhaust regions alternate.
    pub fn ideal(machines: usize) -> MixRoom {
        MixRoom {
            machines,
            exhausts: vec![1, 2],
            supplies: 1,
            junctions: 1,
            exhaust_to: vec![Some(0)],
            recirculate: vec![None],
            links: Vec::new(),
            pinned: Vec::new(),
        }
    }

    pub fn model(&self) -> ClusterModel {
        let cycle = |v: &[Option<usize>], m: usize| v[m % v.len()].filter(|_| self.junctions > 0);
        let junction = |j: usize| ClusterEndpoint::Junction(format!("j{}", j % self.junctions));
        let mut b = ClusterModel::builder();
        for s in 0..self.supplies {
            b.supply(format!("ac{s}"), 18.0 + 4.0 * s as f64);
        }
        for j in 0..self.junctions {
            b.junction(format!("j{j}"));
        }
        for m in 0..self.machines {
            let exhausts = self.exhausts[m % self.exhausts.len()];
            let i = b.machine(mix_machine(&format!("m{m}"), exhausts));
            let supply = ClusterEndpoint::Supply(format!("ac{}", m % self.supplies));
            let inlet = ClusterEndpoint::MachineInlet(i);
            match cycle(&self.recirculate, m) {
                Some(j) => {
                    b.edge(supply, inlet.clone(), 0.8);
                    b.edge(junction(j), inlet, 0.2);
                }
                None => {
                    b.edge(supply, inlet, 1.0);
                }
            }
            if let Some(j) = cycle(&self.exhaust_to, m) {
                b.edge(ClusterEndpoint::MachineExhaust(i), junction(j), 1.0);
            }
        }
        if self.junctions > 0 {
            let mut linked = HashSet::new();
            for &(from, to) in &self.links {
                let (from, to) = (from % self.junctions, to % self.junctions);
                if from != to && linked.insert((from, to)) {
                    b.edge(junction(from), junction(to), 0.5);
                }
            }
        }
        b.build().unwrap()
    }
}

/// Random [`MixRoom`]s: 2–40 machines of up to three exhaust counts,
/// 1–2 supplies, 0–3 junctions, exhausts into some junctions,
/// recirculation into some inlets, up to three junction links and up to
/// two pinned machines.
pub fn mix_room_strategy() -> impl Strategy<Value = MixRoom> {
    let junction = || prop_oneof![Just(None), (0usize..3).prop_map(Some)];
    (
        2usize..=40,
        proptest::collection::vec(0usize..3, 1..=3),
        1usize..=2,
        0usize..=3,
        proptest::collection::vec(junction(), 1..=5),
        proptest::collection::vec(junction(), 1..=5),
        proptest::collection::vec((0usize..3, 0usize..3), 0..=3),
        proptest::collection::vec(0usize..40, 0..=2),
    )
        .prop_map(
            |(machines, exhausts, supplies, junctions, exhaust_to, recirculate, links, pinned)| {
                MixRoom {
                    machines,
                    exhausts,
                    supplies,
                    junctions,
                    exhaust_to,
                    recirculate,
                    links,
                    pinned,
                }
            },
        )
}

/// One call a [`MixPlan`] makes on both rooms.
#[derive(Debug, Clone)]
pub enum MixCall {
    /// `step_for_fed(ticks)`. The feed sets CPU utilizations on about
    /// half the machines before every tick and ends the span at its
    /// `end`-th call (so after `end` ticks, if fewer than `ticks`) with
    /// `Ok(false)` — or with an error, if `fail`.
    Fed {
        ticks: usize,
        end: Option<usize>,
        fail: bool,
    },
    /// `step_for_recorded(ticks)`.
    Recorded { ticks: usize },
    /// `force_inlet(machine, t)`.
    Force { machine: usize, t: f64 },
    /// `release_inlet(machine)`.
    Release { machine: usize },
    /// `set_supply_temperature(supply, t)`.
    Supply { supply: usize, t: f64 },
}

impl MixCall {
    pub const fn fed(ticks: usize) -> MixCall {
        MixCall::Fed {
            ticks,
            end: None,
            fail: false,
        }
    }
}

/// Random call sequences: fed spans (ending at 0, 1 or k ticks, or
/// failing), recorded spans, and forced inlets, releases and supply
/// changes between them.
pub fn mix_calls_strategy() -> impl Strategy<Value = Vec<MixCall>> {
    let end = prop_oneof![
        Just(None),
        Just(Some(0usize)),
        Just(Some(1)),
        Just(Some(2)),
        (3usize..9).prop_map(Some)
    ];
    let fed = (1usize..12, end, any::<bool>()).prop_map(|(ticks, end, fail)| MixCall::Fed {
        ticks,
        end,
        fail,
    });
    let call = prop_oneof![
        fed.clone(),
        fed,
        (1usize..12).prop_map(|ticks| MixCall::Recorded { ticks }),
        (0usize..40, 25.0f64..40.0).prop_map(|(machine, t)| MixCall::Force { machine, t }),
        (0usize..40).prop_map(|machine| MixCall::Release { machine }),
        (0usize..2, 15.0f64..26.0).prop_map(|(supply, t)| MixCall::Supply { supply, t }),
    ];
    proptest::collection::vec(call, 2..=7)
}

/// One air-mix equivalence case; see [`MixPlan::check`].
#[derive(Debug, Clone)]
pub struct MixPlan<'a> {
    pub room: &'a MixRoom,
    pub calls: &'a [MixCall],
}

impl MixPlan<'_> {
    /// Makes `calls` on a room configured by `setup` and on a room
    /// stepped one `step()` at a time with the same
    /// inputs, and holds them together by bit pattern: every probe
    /// value after every tick (every node of every machine, from inside
    /// the span), and after every call the clock, every node
    /// temperature, every inlet field, every junction temperature and
    /// the `checkpoint()` bytes. (The stepped room batches like the
    /// other: `mercury-ckpt-v1` books a tick counter only for machines
    /// off the shared-operator path.) Returns the room under test.
    pub fn check(&self, setup: Setup) -> ClusterSolver {
        let model = self.room.model();
        let mut fast = setup.build(&model);
        let mut slow = setup.build(&model);
        let n = fast.len();
        let name = |m: usize| format!("m{}", m % n);
        let cpu: Vec<usize> = (0..n)
            .map(|m| fast.machine_at(m).node_index(nodes::CPU).unwrap())
            .collect();
        let probes: Vec<_> = (0..n)
            .flat_map(|m| {
                let nodes: Vec<String> = fast
                    .machine_at(m)
                    .node_names()
                    .map(str::to_string)
                    .collect();
                nodes.into_iter().map(move |node| (m, node))
            })
            .map(|(m, node)| fast.probe(&name(m), &node).unwrap())
            .collect();
        for s in [&mut fast, &mut slow] {
            for &m in &self.room.pinned {
                s.machine_at_mut(m % n)
                    .force_temperature(nodes::CPU, Celsius(70.0))
                    .unwrap();
            }
        }
        // Half the machines change their CPU utilization on any tick.
        let input = |tick: usize, m: usize| {
            let h = (tick * 7919 + m * 104_729) % 1009;
            h.is_multiple_of(2).then(|| (h % 101) as f64 / 100.0)
        };

        let mut tick = 0;
        for (k, call) in self.calls.iter().enumerate() {
            let context = format!("call {k} ({call:?})");
            let mut history: Vec<Vec<u64>> = Vec::new();
            let record = |history: &mut Vec<Vec<u64>>, temps: &[Celsius]| {
                history.push(temps.iter().map(|t| t.0.to_bits()).collect());
            };
            match *call {
                MixCall::Fed { ticks, end, fail } => {
                    let mut calls = 0;
                    let result = fast.step_for_fed(
                        ticks,
                        &probes,
                        |_, temps| record(&mut history, temps),
                        |inputs| {
                            if end == Some(calls) {
                                return if fail {
                                    Err(Error::invalid_input("the feed failed"))
                                } else {
                                    Ok(false)
                                };
                            }
                            for (m, &cpu) in cpu.iter().enumerate() {
                                if let Some(u) = input(tick + calls, m) {
                                    inputs.set_utilization_at(m, cpu, u)?;
                                }
                            }
                            calls += 1;
                            Ok(true)
                        },
                    );
                    let stepped = end.map_or(ticks, |e| e.min(ticks));
                    match result {
                        Ok(done) => {
                            assert!(!fail || stepped == ticks, "{context}: no error");
                            assert_eq!(done, stepped, "{context}: ticks stepped");
                        }
                        Err(e) => assert!(fail && stepped < ticks, "{context}: {e}"),
                    }
                    assert_eq!(history.len(), stepped, "{context}: ticks recorded");
                }
                MixCall::Recorded { ticks } => {
                    fast.step_for_recorded(ticks, &probes, |_, temps| record(&mut history, temps));
                }
                MixCall::Force { machine, t } => {
                    for s in [&mut fast, &mut slow] {
                        s.force_inlet(&name(machine), Celsius(t)).unwrap();
                    }
                }
                MixCall::Release { machine } => {
                    for s in [&mut fast, &mut slow] {
                        s.release_inlet(&name(machine)).unwrap();
                    }
                }
                MixCall::Supply { supply, t } => {
                    let supply = format!("ac{}", supply % self.room.supplies);
                    for s in [&mut fast, &mut slow] {
                        s.set_supply_temperature(&supply, Celsius(t)).unwrap();
                    }
                }
            }
            let fed = matches!(call, MixCall::Fed { .. });
            for (at, temps) in history.iter().enumerate() {
                if fed {
                    for (m, &cpu) in cpu.iter().enumerate() {
                        if let Some(u) = input(tick, m) {
                            slow.machine_at_mut(m).set_utilization_at(cpu, u).unwrap();
                        }
                    }
                }
                slow.step();
                tick += 1;
                let want = (0..n).flat_map(|m| slow.machine_at(m).temperatures());
                for (p, ((node, t), got)) in want.zip(temps).enumerate() {
                    assert_eq!(
                        *got,
                        t.0.to_bits(),
                        "{context}, tick {at}: probe {p} ({node})"
                    );
                }
            }
            assert_mix_state(&fast, &slow, self.room, &context);
        }
        fast
    }
}

/// [`assert_same_state`] plus every inlet field, every junction
/// temperature and the checkpoint bytes.
pub fn assert_mix_state(a: &ClusterSolver, b: &ClusterSolver, room: &MixRoom, context: &str) {
    assert_same_state(a, b, context);
    for m in 0..a.len() {
        assert_eq!(
            a.machine_at(m).inlet_temperature().0.to_bits(),
            b.machine_at(m).inlet_temperature().0.to_bits(),
            "{context}: machine {m} inlet field"
        );
    }
    for j in 0..room.junctions {
        let name = format!("j{j}");
        let (x, y) = (
            a.junction_temperature(&name).unwrap(),
            b.junction_temperature(&name).unwrap(),
        );
        assert_eq!(
            x.0.to_bits(),
            y.0.to_bits(),
            "{context}: junction {name}: {x} vs {y}"
        );
    }
    assert!(
        a.checkpoint() == b.checkpoint(),
        "{context}: checkpoint bytes differ"
    );
}

// --- whole-frame feeds ----------------------------------------------------

/// The components of a [`frame_machine`], in node order.
pub const FRAME_COMPONENTS: [&str; 3] = [nodes::CPU, "disk", "nic"];

/// A server for the frame suites: `cpu` and `disk` on linear power
/// models and `nic` on a constant one, all cooled by one air path.
/// `monitors` picks what `monitord` reports — 0: `cpu` and `disk`,
/// 1: `cpu` only, 2: all three. Monitoring is not structure, so the
/// three variants batch together: a lane can monitor a node its group's
/// representative does not, and the other way round.
pub fn frame_machine(name: &str, monitors: usize) -> MachineModel {
    let mut b = MachineModel::builder(name);
    b.component(nodes::CPU)
        .mass_kg(0.151)
        .specific_heat(896.0)
        .power_range(7.0, 31.0);
    b.component("disk")
        .mass_kg(0.336)
        .specific_heat(896.0)
        .power_range(9.0, 14.0)
        .monitored(monitors != 1);
    b.component("nic")
        .mass_kg(0.05)
        .specific_heat(900.0)
        .constant_power(3.0)
        .monitored(monitors == 2);
    b.inlet(nodes::INLET);
    b.air(nodes::CPU_AIR);
    b.exhaust(nodes::EXHAUST);
    b.heat_edge(nodes::CPU, nodes::CPU_AIR, 0.75).unwrap();
    b.heat_edge("disk", nodes::CPU_AIR, 1.9).unwrap();
    b.heat_edge("nic", nodes::CPU_AIR, 0.5).unwrap();
    b.air_edge(nodes::INLET, nodes::CPU_AIR, 1.0).unwrap();
    b.air_edge(nodes::CPU_AIR, nodes::EXHAUST, 1.0).unwrap();
    b.fan_cfm(FAN_CFM);
    b.build().unwrap()
}

/// A room of [`frame_machine`]s, `m0..`: supply `ac0` feeds every inlet,
/// every exhaust feeds the junction `j0`, and `j0` recirculates into the
/// inlets of the machines `recirculate` marks — so `j0` is deferred in a
/// room without recirculation and live in one with it. Per-machine lists
/// are cycled over the machines.
#[derive(Debug, Clone)]
pub struct FrameRoom {
    pub machines: usize,
    /// The [`frame_machine`] variant of each machine.
    pub monitors: Vec<usize>,
    pub recirculate: Vec<bool>,
    /// Machines whose CPU is pinned before the first call: they step
    /// solo.
    pub pinned: Vec<usize>,
}

impl FrameRoom {
    /// `machines` machines of every monitoring variant, without
    /// recirculation or pins.
    pub fn ideal(machines: usize) -> FrameRoom {
        FrameRoom {
            machines,
            monitors: vec![0, 1, 2],
            recirculate: vec![false],
            pinned: Vec::new(),
        }
    }

    pub fn model(&self) -> ClusterModel {
        let mut b = ClusterModel::builder();
        b.supply("ac0", 18.0);
        b.junction("j0");
        let j0 = || ClusterEndpoint::Junction("j0".into());
        for m in 0..self.machines {
            let monitors = self.monitors[m % self.monitors.len()];
            let i = b.machine(frame_machine(&format!("m{m}"), monitors));
            let supply = ClusterEndpoint::Supply("ac0".into());
            let inlet = ClusterEndpoint::MachineInlet(i);
            if self.recirculate[m % self.recirculate.len()] {
                b.edge(supply, inlet.clone(), 0.8);
                b.edge(j0(), inlet, 0.2);
            } else {
                b.edge(supply, inlet, 1.0);
            }
            b.edge(ClusterEndpoint::MachineExhaust(i), j0(), 1.0);
        }
        b.build().unwrap()
    }

    /// The frame the suites feed: the monitored components of every
    /// machine but a few, last machine first — so frame order is neither
    /// room order nor lane order.
    pub fn cells(&self, room: &ClusterSolver) -> Vec<(usize, usize)> {
        let mut cells = Vec::new();
        for m in 0..room.len() {
            let solver = room.machine_at(m);
            for (c, name) in FRAME_COMPONENTS.iter().enumerate() {
                let node = solver.node_index(name).unwrap();
                if solver.is_monitored_at(node) && (m + 2 * c) % 7 != 3 {
                    cells.push((m, node));
                }
            }
        }
        cells.reverse();
        cells
    }
}

/// Random [`FrameRoom`]s: 2–40 machines of up to three monitoring
/// variants, recirculation into some inlets, up to two pinned machines.
pub fn frame_room_strategy() -> impl Strategy<Value = FrameRoom> {
    (
        2usize..=40,
        proptest::collection::vec(0usize..3, 1..=3),
        proptest::collection::vec(any::<bool>(), 1..=3),
        proptest::collection::vec(0usize..40, 0..=2),
    )
        .prop_map(|(machines, monitors, recirculate, pinned)| FrameRoom {
            machines,
            monitors,
            recirculate,
            pinned,
        })
}

/// One call a [`FramePlan`] makes on its rooms; machine indices are
/// taken modulo the room size.
#[derive(Debug, Clone, Copy)]
pub enum FrameCall {
    /// `step_for_fed(ticks)`. The feed sets the tick's inputs on every
    /// tick that has any and ends the span at its `end`-th call (so
    /// after `end` ticks, if fewer than `ticks`) with `Ok(false)` — or
    /// with an error, if `fail` — having set that tick's inputs first if
    /// `write`.
    Fed {
        ticks: usize,
        end: Option<usize>,
        fail: bool,
        write: bool,
    },
    /// `set_supply_temperature(ac0, t)`.
    Supply(f64),
    /// `set_fan_cfm(FAN_CFM × scale)`: a per-lane group, or solo.
    Fan { machine: usize, scale: f64 },
    /// `force_temperature(cpu, 65)`: solo.
    Pin { machine: usize },
    /// `release_temperature(cpu)`.
    Release { machine: usize },
    /// A power model swapped onto the CPU, as [`Remodel::kind`] says.
    Remodel { machine: usize, kind: usize },
}

impl FrameCall {
    pub const fn fed(ticks: usize) -> FrameCall {
        FrameCall::Fed {
            ticks,
            end: None,
            fail: false,
            write: false,
        }
    }
}

/// Random call sequences: fed spans (ending at 0, 1 or k ticks or
/// failing, with or without the last inputs set) and, between them,
/// supply changes, fan commands, pins, releases and power models.
pub fn frame_calls_strategy() -> impl Strategy<Value = Vec<FrameCall>> {
    let end = prop_oneof![
        Just(None),
        Just(Some(0usize)),
        Just(Some(1)),
        (2usize..9).prop_map(Some)
    ];
    let fed =
        (1usize..12, end, any::<bool>(), any::<bool>()).prop_map(|(ticks, end, fail, write)| {
            FrameCall::Fed {
                ticks,
                end,
                fail,
                write,
            }
        });
    // Fed spans are listed three times to make them the common draw.
    let call = prop_oneof![
        fed.clone(),
        fed.clone(),
        fed,
        (15.0f64..26.0).prop_map(FrameCall::Supply),
        (0usize..40, 0usize..17).prop_map(|(machine, i)| FrameCall::Fan {
            machine,
            scale: 0.5 + i as f64 / 16.0,
        }),
        (0usize..40).prop_map(|machine| FrameCall::Pin { machine }),
        (0usize..40).prop_map(|machine| FrameCall::Release { machine }),
        (0usize..40, 0usize..3).prop_map(|(machine, kind)| FrameCall::Remodel { machine, kind }),
    ];
    proptest::collection::vec(call, 2..=8)
}

/// One whole-frame equivalence case; see [`FramePlan::check`].
#[derive(Debug, Clone)]
pub struct FramePlan<'a> {
    pub room: &'a FrameRoom,
    pub calls: &'a [FrameCall],
    /// Frame cell `k` changes at tick `t` to `inputs.at(t, k, 0)`, except
    /// on every fourth tick, which holds every cell.
    pub inputs: FedInputs,
}

impl FramePlan<'_> {
    /// Makes `calls` on three rooms of `room`: one fed whole frames
    /// (`TickInputs::set_frame`, configured by `setup`), one fed the
    /// changed cells one by one (`TickInputs::set_utilization_at`, same
    /// setup), and one that takes the same cells through its solvers and
    /// `step()`s. Holds them together by bit pattern:
    /// every probe after every tick (every node of every machine), and
    /// after every call the clock, every node temperature, inlet field
    /// and junction temperature and the `checkpoint()` bytes — and the
    /// two fed rooms' `fed_ticks`, `fused_ticks` and `fused_span_ticks`.
    /// A call whose first feed ends it without setting anything must
    /// leave the framed room's checkpoint bytes as they were. Returns
    /// the framed room.
    pub fn check(&self, setup: Setup) -> ClusterSolver {
        let model = self.room.model();
        let mut framed = setup.build(&model);
        let mut celled = setup.build(&model);
        let mut stepped = setup.build(&model);
        let n = framed.len();
        let cells = self.room.cells(&framed);
        let frame = framed.input_frame(&cells).unwrap();
        assert_eq!(frame.len(), cells.len());
        let probes: Vec<_> = (0..n)
            .flat_map(|m| {
                let solver = framed.machine_at(m);
                let nodes: Vec<String> = solver.node_names().map(str::to_string).collect();
                nodes.into_iter().map(move |node| (format!("m{m}"), node))
            })
            .map(|(m, node)| framed.probe(&m, &node).unwrap())
            .collect();
        for s in [&mut framed, &mut celled, &mut stepped] {
            for &m in &self.room.pinned {
                s.machine_at_mut(m % n)
                    .force_temperature(nodes::CPU, Celsius(70.0))
                    .unwrap();
            }
        }
        let due = |tick: usize| -> Vec<(usize, f64)> {
            if tick % 4 == 3 {
                return Vec::new();
            }
            (0..cells.len())
                .filter_map(|k| self.inputs.at(tick, k, 0).map(|u| (k, u)))
                .collect()
        };
        // The framed room's inputs, as the frame sets them whole.
        let mut values = vec![0.0; cells.len()];

        let mut tick = 0;
        for (i, &call) in self.calls.iter().enumerate() {
            let context = format!("call {i} ({call:?})");
            match call {
                FrameCall::Fed {
                    ticks,
                    end,
                    fail,
                    write,
                } => {
                    let before = framed.checkpoint();
                    let stepped_ticks = end.map_or(ticks, |e| e.min(ticks));
                    let ended = end.is_some_and(|e| e < ticks);
                    let ending = |calls: usize| -> Option<Result<bool, Error>> {
                        (end == Some(calls)).then(|| {
                            if fail {
                                Err(Error::invalid_input("the feed failed"))
                            } else {
                                Ok(false)
                            }
                        })
                    };
                    let mut histories: [Vec<Vec<u64>>; 2] = Default::default();
                    let [framed_history, celled_history] = &mut histories;
                    let mut calls = 0;
                    let result = framed.step_for_fed(
                        ticks,
                        &probes,
                        |_, temps| framed_history.push(bits(temps)),
                        |inputs| {
                            let stop = ending(calls);
                            if stop.is_none() || write {
                                let changes = due(tick + calls);
                                if !changes.is_empty() {
                                    for &(k, u) in &changes {
                                        values[k] = u;
                                    }
                                    inputs.set_frame(&frame, |k| values[k]);
                                }
                            }
                            calls += 1;
                            stop.unwrap_or(Ok(true))
                        },
                    );
                    let fed_result = |result: Result<usize, Error>| match result {
                        Ok(done) => {
                            assert!(!(fail && ended), "{context}: no error");
                            assert_eq!(done, stepped_ticks, "{context}: ticks stepped");
                        }
                        Err(e) => assert!(fail && ended, "{context}: {e}"),
                    };
                    fed_result(result);
                    calls = 0;
                    let result = celled.step_for_fed(
                        ticks,
                        &probes,
                        |_, temps| celled_history.push(bits(temps)),
                        |inputs| {
                            let stop = ending(calls);
                            if stop.is_none() || write {
                                for (k, u) in due(tick + calls) {
                                    let (m, node) = cells[k];
                                    inputs.set_utilization_at(m, node, u)?;
                                }
                            }
                            calls += 1;
                            stop.unwrap_or(Ok(true))
                        },
                    );
                    fed_result(result);
                    assert_eq!(framed_history.len(), stepped_ticks, "{context}");
                    assert_eq!(
                        framed_history, celled_history,
                        "{context}: framed vs celled"
                    );

                    let through_solvers = |stepped: &mut ClusterSolver, tick: usize| {
                        for (k, u) in due(tick) {
                            let (m, node) = cells[k];
                            stepped
                                .machine_at_mut(m)
                                .set_utilization_at(node, u)
                                .unwrap();
                        }
                    };
                    for (at, temps) in framed_history.iter().enumerate() {
                        through_solvers(&mut stepped, tick + at);
                        stepped.step();
                        let want = (0..n).flat_map(|m| stepped.machine_at(m).temperatures());
                        for (p, ((node, t), got)) in want.zip(temps).enumerate() {
                            assert_eq!(
                                *got,
                                t.0.to_bits(),
                                "{context}, tick {at}: probe {p} ({node})"
                            );
                        }
                    }
                    tick += stepped_ticks;
                    if ended && write {
                        through_solvers(&mut stepped, tick);
                    }
                    if end == Some(0) && !write {
                        assert!(
                            framed.checkpoint() == before,
                            "{context}: a call that stepped and set nothing moved the room"
                        );
                    }
                }
                FrameCall::Supply(t) => {
                    for s in [&mut framed, &mut celled, &mut stepped] {
                        s.set_supply_temperature("ac0", Celsius(t)).unwrap();
                    }
                }
                FrameCall::Fan { machine, scale } => {
                    for s in [&mut framed, &mut celled, &mut stepped] {
                        s.machine_at_mut(machine % n)
                            .set_fan_cfm(FAN_CFM * scale)
                            .unwrap();
                    }
                }
                FrameCall::Pin { machine } => {
                    for s in [&mut framed, &mut celled, &mut stepped] {
                        s.machine_at_mut(machine % n)
                            .force_temperature(nodes::CPU, Celsius(65.0))
                            .unwrap();
                    }
                }
                FrameCall::Release { machine } => {
                    for s in [&mut framed, &mut celled, &mut stepped] {
                        s.machine_at_mut(machine % n)
                            .release_temperature(nodes::CPU)
                            .unwrap();
                    }
                }
                FrameCall::Remodel { machine, kind } => {
                    let model = Remodel {
                        tick: 0,
                        machine,
                        kind,
                    }
                    .model();
                    for s in [&mut framed, &mut celled, &mut stepped] {
                        s.machine_at_mut(machine % n)
                            .set_power_model(nodes::CPU, model.clone())
                            .unwrap();
                    }
                }
            }
            // The frame rooms wire one junction, `j0`, as `MixRoom::ideal`.
            let junctions = MixRoom::ideal(n);
            assert_mix_state(&framed, &celled, &junctions, &format!("{context}: celled"));
            assert_mix_state(
                &framed,
                &stepped,
                &junctions,
                &format!("{context}: stepped"),
            );
            let (a, b) = (framed.metrics(), celled.metrics());
            assert_eq!(a.ticks.get(), b.ticks.get(), "{context}: ticks");
            assert_eq!(a.fed_ticks.get(), b.fed_ticks.get(), "{context}: fed_ticks");
            assert_eq!(
                a.fused_ticks.get(),
                b.fused_ticks.get(),
                "{context}: fused_ticks"
            );
            let (x, y) = (a.fused_spans.snapshot(), b.fused_spans.snapshot());
            assert_eq!(
                (x.count, x.sum),
                (y.count, y.sum),
                "{context}: fused_span_ticks"
            );
        }
        framed
    }
}

fn bits(temps: &[Celsius]) -> Vec<u64> {
    temps.iter().map(|t| t.0.to_bits()).collect()
}

// --- the per-tick oracle --------------------------------------------------

/// What a [`RoomStepper`] needs of a machine: the [`Solver`] itself, or
/// the stepped oracle [`ReferenceSolver`].
pub trait RoomMachine {
    fn build(model: &MachineModel) -> Self;
    fn fiddle(&mut self, fiddle: &Fiddle);
    fn temperature_at(&self, i: usize) -> Celsius;
    fn inlet_temperature(&self) -> Celsius;
    fn set_inlet_temperature(&mut self, t: Celsius);
    fn step(&mut self);
}

impl RoomMachine for Solver {
    fn build(model: &MachineModel) -> Self {
        Solver::new(model, SolverConfig::default()).unwrap()
    }

    fn fiddle(&mut self, f: &Fiddle) {
        fiddle(self, f);
    }

    fn temperature_at(&self, i: usize) -> Celsius {
        Solver::temperature_at(self, i)
    }

    fn inlet_temperature(&self) -> Celsius {
        Solver::inlet_temperature(self)
    }

    fn set_inlet_temperature(&mut self, t: Celsius) {
        Solver::set_inlet_temperature(self, t);
    }

    fn step(&mut self) {
        Solver::step(self);
    }
}

/// A machine room stepped one tick at a time the way §2.2 describes the
/// tick, from public API only: standalone [`Solver`]s built from
/// [`ClusterModel::machines`], and each tick the previous tick's
/// exhausts observed, the junctions mixed in model order (each visible
/// to the junctions and inlets after it), every inlet forced or mixed,
/// and every machine stepped. A sink mixes its edges in declaration
/// order as `weight += f; sum += f·t`, then `sum / weight` — the
/// arithmetic of `model::cluster::mixed_inlet_temperature`. It shares
/// nothing with `ClusterSolver` but the machine [`Solver`], so it is the
/// reference the room's one tick loop answers to.
#[derive(Debug, Clone)]
pub struct RoomStepper<M = Solver> {
    machines: Vec<M>,
    /// Node indices of each machine's exhaust regions, in node order.
    exhausts: Vec<Vec<usize>>,
    supplies: Vec<(String, Celsius)>,
    junctions: Vec<(String, Celsius)>,
    edges: Vec<ClusterEdge>,
    forced: Vec<Option<Celsius>>,
    time: Seconds,
    dt: Seconds,
}

impl<M: RoomMachine> RoomStepper<M> {
    pub fn new(model: &ClusterModel) -> RoomStepper<M> {
        let cfg = SolverConfig::default();
        let machines: Vec<M> = model.machines().iter().map(M::build).collect();
        let exhausts = model
            .machines()
            .iter()
            .map(|m| {
                let nodes = m.nodes().iter().enumerate();
                nodes
                    .filter(|(_, node)| node.is_air_kind(AirKind::Exhaust))
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();
        let supplies: Vec<(String, Celsius)> = model
            .supplies()
            .iter()
            .map(|s| (s.name.clone(), s.temperature))
            .collect();
        // Junctions start where the room's air does: at the configured
        // temperature, else at the first supply's.
        let initial = cfg
            .initial_temperature
            .unwrap_or_else(|| supplies.first().map_or(Celsius(21.6), |s| s.1));
        RoomStepper {
            forced: vec![None; machines.len()],
            machines,
            exhausts,
            supplies,
            junctions: model
                .junctions()
                .iter()
                .map(|j| (j.clone(), initial))
                .collect(),
            edges: model.edges().to_vec(),
            time: Seconds(0.0),
            dt: cfg.dt,
        }
    }

    pub fn machine_at(&self, m: usize) -> &M {
        &self.machines[m]
    }

    pub fn machine_at_mut(&mut self, m: usize) -> &mut M {
        &mut self.machines[m]
    }

    /// Pins machine `m`'s inlet, from now on.
    pub fn force_inlet(&mut self, m: usize, t: Celsius) {
        self.forced[m] = Some(t);
        self.machines[m].set_inlet_temperature(t);
    }

    /// Returns machine `m`'s inlet to the room's air.
    pub fn release_inlet(&mut self, m: usize) {
        self.forced[m] = None;
    }

    pub fn set_supply_temperature(&mut self, name: &str, t: Celsius) {
        self.supplies.iter_mut().find(|s| s.0 == name).unwrap().1 = t;
    }

    /// The temperature the room sees at machine `m`'s exhaust: the mean
    /// of its exhaust regions, summed in node order from 0, or its inlet
    /// temperature if it has none.
    fn exhaust(&self, m: usize) -> Celsius {
        let solver = &self.machines[m];
        let nodes = &self.exhausts[m];
        if nodes.is_empty() {
            return solver.inlet_temperature();
        }
        let mut sum = 0.0;
        for &i in nodes {
            sum += solver.temperature_at(i).0;
        }
        Celsius(sum / nodes.len() as f64)
    }

    fn mix(&self, sink: &ClusterEndpoint, exhausts: &[Celsius]) -> Option<Celsius> {
        let source = |from: &ClusterEndpoint| match from {
            ClusterEndpoint::Supply(name) => self.supplies.iter().find(|s| s.0 == *name).unwrap().1,
            ClusterEndpoint::Junction(name) => {
                self.junctions.iter().find(|j| j.0 == *name).unwrap().1
            }
            ClusterEndpoint::MachineExhaust(m) => exhausts[*m],
            ClusterEndpoint::MachineInlet(_) => unreachable!("inlets are sinks"),
        };
        let (mut weight, mut sum) = (0.0, 0.0);
        for edge in self.edges.iter().filter(|e| e.to == *sink) {
            weight += edge.fraction;
            sum += edge.fraction * source(&edge.from).0;
        }
        (weight > 0.0).then(|| Celsius(sum / weight))
    }

    /// Advances the room by one tick.
    pub fn step(&mut self) {
        let exhausts: Vec<Celsius> = (0..self.machines.len()).map(|m| self.exhaust(m)).collect();
        for j in 0..self.junctions.len() {
            let sink = ClusterEndpoint::Junction(self.junctions[j].0.clone());
            if let Some(t) = self.mix(&sink, &exhausts) {
                self.junctions[j].1 = t;
            }
        }
        for m in 0..self.machines.len() {
            let inlet =
                self.forced[m].or_else(|| self.mix(&ClusterEndpoint::MachineInlet(m), &exhausts));
            if let Some(t) = inlet {
                self.machines[m].set_inlet_temperature(t);
            }
        }
        for machine in &mut self.machines {
            machine.step();
        }
        self.time.0 += self.dt.0;
    }
}

impl RoomStepper<Solver> {
    /// Holds `room` to this stepper by bit pattern: the room's clock,
    /// every junction, and on every machine its clock, generated heat,
    /// inlet field and every node.
    pub fn assert_matches(&self, room: &ClusterSolver, context: &str) {
        let same = |what: String, got: f64, want: f64| {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{context}: {what}: {got} vs {want}"
            );
        };
        same("clock".into(), room.time().0, self.time.0);
        for (name, t) in &self.junctions {
            same(
                format!("junction {name}"),
                room.junction_temperature(name).unwrap().0,
                t.0,
            );
        }
        for (m, want) in self.machines.iter().enumerate() {
            let got = room.machine_at(m);
            same(format!("machine {m} clock"), got.time().0, want.time().0);
            same(
                format!("machine {m} generated heat"),
                got.generated_last_tick().0,
                want.generated_last_tick().0,
            );
            same(
                format!("machine {m} inlet field"),
                got.inlet_temperature().0,
                want.inlet_temperature().0,
            );
            for ((node, x), (_, y)) in got.temperatures().iter().zip(&want.temperatures()) {
                same(format!("machine {m} node {node}"), x.0, y.0);
            }
        }
    }
}

/// Room-level changes before given ticks, for an [`OraclePlan`]:
/// forced inlets, releases and supply changes (the [`MixCall`]s that
/// are not spans).
pub fn room_changes_strategy(ticks: usize) -> impl Strategy<Value = Vec<(usize, MixCall)>> {
    let change = prop_oneof![
        (0usize..40, 25.0f64..40.0).prop_map(|(machine, t)| MixCall::Force { machine, t }),
        (0usize..40).prop_map(|machine| MixCall::Release { machine }),
        (0usize..2, 15.0f64..26.0).prop_map(|(supply, t)| MixCall::Supply { supply, t }),
    ];
    proptest::collection::vec((0..ticks, change), 0..8)
}

/// One oracle case; see [`OraclePlan::check`].
#[derive(Debug, Clone)]
pub struct OraclePlan<'a> {
    pub room: &'a MixRoom,
    /// CPU utilizations the machines start at (cycled).
    pub utils: &'a [f64],
    /// Fiddles before given ticks, machines taken modulo the room size.
    pub script: &'a [Event],
    /// Room-level changes before given ticks, after that tick's
    /// fiddles.
    pub changes: &'a [(usize, MixCall)],
    pub ticks: usize,
}

impl OraclePlan<'_> {
    /// Steps a room configured by `setup` one `step()` per tick beside a
    /// [`RoomStepper`], both taking the same fiddles and room changes,
    /// and holds them together after every tick
    /// ([`RoomStepper::assert_matches`]). Returns the room.
    pub fn check(&self, setup: Setup) -> ClusterSolver {
        let model = self.room.model();
        let mut room = setup.build(&model);
        let mut oracle = RoomStepper::<Solver>::new(&model);
        let n = room.len();
        for m in 0..n {
            let u = self.utils[m % self.utils.len()];
            room.machine_at_mut(m)
                .set_utilization(nodes::CPU, u)
                .unwrap();
            oracle
                .machine_at_mut(m)
                .set_utilization(nodes::CPU, u)
                .unwrap();
        }
        for &m in &self.room.pinned {
            fiddle(room.machine_at_mut(m % n), &Fiddle::Pin(70.0));
            fiddle(oracle.machine_at_mut(m % n), &Fiddle::Pin(70.0));
        }
        for tick in 0..self.ticks {
            for event in self.script.iter().filter(|e| e.tick == tick) {
                fiddle(room.machine_at_mut(event.machine % n), &event.fiddle);
                fiddle(oracle.machine_at_mut(event.machine % n), &event.fiddle);
            }
            for (_, change) in self.changes.iter().filter(|(t, _)| *t == tick) {
                match *change {
                    MixCall::Force { machine, t } => {
                        room.force_inlet(&format!("m{}", machine % n), Celsius(t))
                            .unwrap();
                        oracle.force_inlet(machine % n, Celsius(t));
                    }
                    MixCall::Release { machine } => {
                        room.release_inlet(&format!("m{}", machine % n)).unwrap();
                        oracle.release_inlet(machine % n);
                    }
                    MixCall::Supply { supply, t } => {
                        let supply = format!("ac{}", supply % self.room.supplies);
                        room.set_supply_temperature(&supply, Celsius(t)).unwrap();
                        oracle.set_supply_temperature(&supply, Celsius(t));
                    }
                    MixCall::Fed { .. } | MixCall::Recorded { .. } => {
                        unreachable!("an oracle case steps one tick at a time")
                    }
                }
            }
            room.step();
            oracle.step();
            oracle.assert_matches(&room, &format!("tick {tick}"));
        }
        room
    }
}

// --- the stepped-Euler oracle and the exact propagator --------------------

/// How far the composed tick may sit from the stepped oracle on any node,
/// °C: rounding only (the composed map and the `N` sub-steps it replaces
/// are the same arithmetic, reassociated).
pub const COMPOSED_VS_STEPPED_C: f64 = 1e-9;

/// The original scan-based stepper — every sub-step rescans the edge
/// lists and divides by the heat capacity — built on the public API
/// only: the stepped-Euler oracle the composed kernel is held to within
/// rounding ([`COMPOSED_VS_STEPPED_C`]). It takes the [`Fiddle`]s a
/// [`Solver`] takes and, after each one that moves a constant,
/// recompiles its air flows and sub-step count as a kernel rebuild does.
#[derive(Debug, Clone)]
pub struct ReferenceSolver {
    pub names: Vec<String>,
    power: Vec<Option<PowerModel>>,
    air_mass: Vec<Option<f64>>,
    inlet: Vec<bool>,
    pinned: Vec<bool>,
    capacity: Vec<JoulesPerKelvin>,
    utilization: Vec<Utilization>,
    pub temp: Vec<f64>,
    heat_edges: Vec<(usize, usize, WattsPerKelvin)>,
    air_edges: Vec<AirEdge>,
    edge_flow: Vec<KilogramsPerSecond>,
    topo: Vec<NodeId>,
    inlets: Vec<NodeId>,
    fan: KilogramsPerSecond,
    inlet_temperature: Celsius,
    substeps: usize,
    cfg: SolverConfig,
}

impl ReferenceSolver {
    pub fn new(model: &MachineModel) -> Self {
        let nodes = model.nodes();
        let mut reference = ReferenceSolver {
            names: nodes.iter().map(|x| x.name().to_string()).collect(),
            power: nodes
                .iter()
                .map(|x| x.as_component().map(|c| c.power.clone()))
                .collect(),
            air_mass: nodes
                .iter()
                .map(|x| x.as_air().map(|a| a.mass_kg))
                .collect(),
            inlet: nodes
                .iter()
                .map(|x| x.is_air_kind(AirKind::Inlet))
                .collect(),
            pinned: vec![false; nodes.len()],
            capacity: nodes.iter().map(|x| x.capacity()).collect(),
            utilization: vec![Utilization::IDLE; nodes.len()],
            temp: vec![model.inlet_temperature().0; nodes.len()],
            heat_edges: model
                .heat_edges()
                .iter()
                .map(|e| (e.a.index(), e.b.index(), e.k))
                .collect(),
            air_edges: model.air_edges().to_vec(),
            edge_flow: Vec::new(),
            topo: model.topo_order().to_vec(),
            inlets: model.inlets(),
            fan: model.fan().mass_flow(),
            inlet_temperature: model.inlet_temperature(),
            substeps: 0,
            cfg: SolverConfig::default(),
        };
        reference.recompile();
        reference
    }

    /// The air flows and the sub-step count, from the current constants.
    fn recompile(&mut self) {
        let (edge_flow, inflow) = air_flows(
            self.names.len(),
            &self.air_edges,
            &self.topo,
            &self.inlets,
            self.fan,
        );
        self.edge_flow = edge_flow;
        self.substeps = required_substeps(
            self.cfg.dt,
            self.cfg.stability_limit,
            &self.heat_edges,
            &self.capacity,
            &inflow,
            &self.air_mass,
        );
    }

    fn index(&self, name: &str) -> usize {
        self.names.iter().position(|x| x == name).unwrap()
    }

    pub fn set_utilization(&mut self, name: &str, u: f64) {
        let i = self.index(name);
        self.utilization[i] = u.into();
    }

    /// Per-node utilizations as fractions (zero for air regions).
    pub fn utilizations(&self) -> Vec<f64> {
        self.utilization.iter().map(|u| u.fraction()).collect()
    }

    fn pin(&mut self, name: &str, t: f64) {
        let i = self.index(name);
        self.pinned[i] = true;
        self.temp[i] = t;
    }

    fn release(&mut self, name: &str) {
        let i = self.index(name);
        self.pinned[i] = false;
        if self.inlet[i] {
            self.temp[i] = self.inlet_temperature.0;
        }
    }

    /// One tick: `substeps` explicit-Euler sub-steps, each rescanning
    /// the edge lists.
    pub fn step(&mut self) {
        let n = self.names.len();
        let dts = Seconds(self.cfg.dt.0 / self.substeps as f64);
        let fixed: Vec<bool> = (0..n).map(|i| self.inlet[i] || self.pinned[i]).collect();
        let mut dq = vec![0.0_f64; n];
        let mut adv = vec![0.0_f64; n];
        for _ in 0..self.substeps {
            dq.iter_mut().for_each(|q| *q = 0.0);
            adv.iter_mut().for_each(|q| *q = 0.0);
            for i in 0..n {
                if let Some(power) = &self.power[i] {
                    dq[i] += physics::heat_generated(power, self.utilization[i], dts).0;
                }
            }
            for &(a, b, k) in &self.heat_edges {
                let q =
                    physics::heat_transfer(k, Celsius(self.temp[a]), Celsius(self.temp[b]), dts);
                dq[a] -= q.0;
                dq[b] += q.0;
            }
            for node in self.topo.iter().map(|id| id.index()) {
                if fixed[node] {
                    continue;
                }
                let Some(mass_kg) = self.air_mass[node] else {
                    continue;
                };
                let mut streams_mass = 0.0;
                let mut streams_heat = 0.0;
                for (e, flow) in self.air_edges.iter().zip(&self.edge_flow) {
                    if e.to.index() == node {
                        streams_mass += flow.0;
                        streams_heat += flow.0 * self.temp[e.from.index()];
                    }
                }
                if streams_mass > 0.0 {
                    let t_mix = streams_heat / streams_mass;
                    let alpha = physics::replacement_fraction(
                        KilogramsPerSecond(streams_mass),
                        mass_kg,
                        dts,
                    );
                    adv[node] = alpha * (t_mix - self.temp[node]);
                }
            }
            for i in 0..n {
                if !fixed[i] {
                    self.temp[i] += dq[i] / self.capacity[i].0 + adv[i];
                }
            }
        }
    }
}

impl RoomMachine for ReferenceSolver {
    fn build(model: &MachineModel) -> Self {
        ReferenceSolver::new(model)
    }

    /// The same change [`fiddle`] makes to a [`Solver`].
    fn fiddle(&mut self, fiddle: &Fiddle) {
        match *fiddle {
            Fiddle::Fan(scale) => {
                self.fan = CubicMetersPerSecond::from_cfm(FAN_CFM * scale).mass_flow();
                self.recompile();
            }
            Fiddle::HeatK(k) => {
                let (a, b) = (self.index(nodes::CPU), self.index(nodes::CPU_AIR));
                for edge in &mut self.heat_edges {
                    if (edge.0, edge.1) == (a, b) || (edge.0, edge.1) == (b, a) {
                        edge.2 = WattsPerKelvin(k);
                    }
                }
                self.recompile();
            }
            Fiddle::AirFraction(f) => {
                let (from, to) = if self.names.iter().any(|x| x == nodes::VOID_AIR) {
                    (nodes::VOID_AIR, nodes::EXHAUST)
                } else {
                    (nodes::INLET, nodes::CPU_AIR)
                };
                let (from, to) = (self.index(from), self.index(to));
                for edge in &mut self.air_edges {
                    if (edge.from.index(), edge.to.index()) == (from, to) {
                        edge.fraction = f;
                    }
                }
                self.recompile();
            }
            Fiddle::Pin(t) => self.pin(nodes::CPU, t),
            Fiddle::Release => self.release(nodes::CPU),
            Fiddle::PinAir(t) => self.pin(nodes::CPU_AIR, t),
            Fiddle::ReleaseAir => self.release(nodes::CPU_AIR),
            Fiddle::Utilization(u) => self.set_utilization(nodes::CPU, u),
            Fiddle::Power(max_w) => {
                let i = self.index(nodes::CPU);
                self.power[i] = Some(PowerModel::linear(7.0, max_w));
            }
        }
    }

    fn temperature_at(&self, i: usize) -> Celsius {
        Celsius(self.temp[i])
    }

    fn inlet_temperature(&self) -> Celsius {
        self.inlet_temperature
    }

    fn set_inlet_temperature(&mut self, t: Celsius) {
        self.inlet_temperature = t;
        for i in 0..self.temp.len() {
            if self.inlet[i] && !self.pinned[i] {
                self.temp[i] = t.0;
            }
        }
    }

    fn step(&mut self) {
        ReferenceSolver::step(self);
    }
}

/// A machine's exact per-tick propagator. With its inputs held over a
/// tick the machine is the linear system `dT/dt = G·T + g`: the
/// generator `G` carries `k/(m·c)` per heat edge and `ṁ/m_air` per
/// incoming air stream — the limits of the Euler sub-step's weights as
/// `Δt_sub → 0` — `g` is each component's `P(u)/(m·c)`, and fixed rows
/// (the inlets) are zero. One tick is then exactly
/// `T' = e^{G·dt}·T + (∫₀^dt e^{G·s} ds)·g`, and both matrices are
/// blocks of one exponential of the augmented `[[G, I], [0, 0]]·dt`,
/// taken by scaling and squaring a Taylor series. Built from the public
/// model at its own fan speed.
#[derive(Debug, Clone)]
pub struct ExactPropagator {
    n: usize,
    /// `e^{G·dt}` and `∫₀^dt e^{G·s} ds`, row-major.
    transition: Vec<f64>,
    input: Vec<f64>,
    power: Vec<Option<PowerModel>>,
    capacity: Vec<f64>,
    fixed: Vec<bool>,
}

impl ExactPropagator {
    pub fn new(model: &MachineModel, dt: Seconds) -> Self {
        let nodes = model.nodes();
        let n = nodes.len();
        let capacity: Vec<f64> = nodes.iter().map(|x| x.capacity().0).collect();
        let fixed: Vec<bool> = nodes
            .iter()
            .map(|x| x.is_air_kind(AirKind::Inlet))
            .collect();
        let mut g = vec![0.0; n * n];
        let mut couple = |i: usize, j: usize, rate: f64| {
            if !fixed[i] {
                g[i * n + j] += rate;
                g[i * n + i] -= rate;
            }
        };
        for e in model.heat_edges() {
            let (a, b, k) = (e.a.index(), e.b.index(), e.k.0);
            couple(a, b, k / capacity[a]);
            couple(b, a, k / capacity[b]);
        }
        let (edge_flow, _) = model_air_flows(model);
        for (e, flow) in model.air_edges().iter().zip(&edge_flow) {
            if let Some(air) = nodes[e.to.index()].as_air() {
                couple(e.to.index(), e.from.index(), flow.0 / air.mass_kg);
            }
        }
        let m = 2 * n;
        let mut augmented = vec![0.0; m * m];
        for i in 0..n {
            for j in 0..n {
                augmented[i * m + j] = g[i * n + j] * dt.0;
            }
            augmented[i * m + n + i] = dt.0;
        }
        let exp = expm(&augmented, m);
        let block = |col: usize| -> Vec<f64> {
            (0..n)
                .flat_map(|i| exp[i * m + col..i * m + col + n].to_vec())
                .collect()
        };
        ExactPropagator {
            n,
            transition: block(0),
            input: block(n),
            power: nodes
                .iter()
                .map(|x| x.as_component().map(|c| c.power.clone()))
                .collect(),
            capacity,
            fixed,
        }
    }

    /// One exact tick from `temp` with node `i` held at utilization
    /// `utilization[i]` (ignored for air regions).
    pub fn step(&self, temp: &[f64], utilization: &[f64]) -> Vec<f64> {
        let n = self.n;
        let g: Vec<f64> = (0..n)
            .map(|i| match &self.power[i] {
                Some(p) if !self.fixed[i] => {
                    p.power(Utilization::new(utilization[i])).0 / self.capacity[i]
                }
                _ => 0.0,
            })
            .collect();
        (0..n)
            .map(|i| {
                let row = i * n..(i + 1) * n;
                let free: f64 = self.transition[row.clone()]
                    .iter()
                    .zip(temp)
                    .map(|(e, t)| e * t)
                    .sum();
                let driven: f64 = self.input[row].iter().zip(&g).map(|(p, g)| p * g).sum();
                free + driven
            })
            .collect()
    }
}

fn matmul(a: &[f64], b: &[f64], m: usize) -> Vec<f64> {
    let mut c = vec![0.0; m * m];
    for i in 0..m {
        for k in 0..m {
            let aik = a[i * m + k];
            if aik != 0.0 {
                for j in 0..m {
                    c[i * m + j] += aik * b[k * m + j];
                }
            }
        }
    }
    c
}

/// `e^x` of an `m × m` matrix: halve `x` until its infinity norm is at
/// most 1/2, sum the Taylor series there (30 terms leave a remainder
/// below 2⁻³⁰/30!), then square back.
fn expm(x: &[f64], m: usize) -> Vec<f64> {
    let norm = (0..m)
        .map(|i| x[i * m..(i + 1) * m].iter().map(|v| v.abs()).sum::<f64>())
        .fold(0.0, f64::max);
    let mut squarings = 0;
    while norm * 0.5f64.powi(squarings) > 0.5 {
        squarings += 1;
    }
    let scaled: Vec<f64> = x.iter().map(|v| v * 0.5f64.powi(squarings)).collect();
    let identity: Vec<f64> = (0..m * m)
        .map(|k| if k / m == k % m { 1.0 } else { 0.0 })
        .collect();
    let mut sum = identity.clone();
    let mut term = identity;
    for k in 1..=30 {
        term = matmul(&term, &scaled, m);
        term.iter_mut().for_each(|v| *v /= k as f64);
        sum.iter_mut().zip(&term).for_each(|(s, t)| *s += t);
    }
    for _ in 0..squarings {
        sum = matmul(&sum, &sum, m);
    }
    sum
}

/// A pin of machine `machine`'s CPU air and of the next machine's CPU at
/// tick `pinned`, and both releases at tick `released`.
pub fn pins_and_releases(machine: usize, pinned: usize, released: usize) -> [Event; 4] {
    let event = |tick, machine, fiddle| Event {
        tick,
        machine,
        fiddle,
    };
    [
        event(pinned, machine, Fiddle::PinAir(38.0)),
        event(pinned, machine + 1, Fiddle::Pin(62.0)),
        event(released, machine, Fiddle::ReleaseAir),
        event(released, machine + 1, Fiddle::Release),
    ]
}

/// One recomposition case; see [`RecomposePlan::check`].
#[derive(Debug, Clone)]
pub struct RecomposePlan<'a> {
    pub room: &'a MixRoom,
    /// CPU utilizations the machines start at (cycled).
    pub utils: &'a [f64],
    /// Fiddles before given ticks — fan, heat-k and air-fraction
    /// commands, pins of CPUs and of CPU air regions, releases — with
    /// machines taken modulo the room size.
    pub script: &'a [Event],
    pub ticks: usize,
}

impl RecomposePlan<'_> {
    /// Steps the room per machine (`set_batching(false)`, one `step()` a
    /// tick), batched at every supported SIMD level (one `step_for_recorded` span between events, so every command
    /// recomposes a kernel between two spans), and as a [`RoomStepper`]
    /// of stepped-Euler [`ReferenceSolver`]s, all taking the script.
    /// Holds every batched room to the per-machine one bit for bit after
    /// every tick (every node of every machine) and at each span's end
    /// (clock, generated heat, every node), and the per-machine room to
    /// the oracle within [`COMPOSED_VS_STEPPED_C`] on every node after
    /// every tick. Returns the largest gap to the oracle, °C.
    pub fn check(&self) -> f64 {
        let model = self.room.model();
        let mut per_machine = Setup::PER_MACHINE.build(&model);
        let mut batched: Vec<ClusterSolver> = supported_backends()
            .map(|backend| {
                Setup {
                    backend: Some(backend),
                    ..Setup::BATCHED
                }
                .build(&model)
            })
            .collect();
        let mut oracle = RoomStepper::<ReferenceSolver>::new(&model);
        let n = per_machine.len();
        let node_counts: Vec<usize> = (0..n)
            .map(|m| per_machine.machine_at(m).node_names().count())
            .collect();
        let probes: Vec<_> = (0..n)
            .flat_map(|m| {
                let names: Vec<String> = per_machine
                    .machine_at(m)
                    .node_names()
                    .map(str::to_string)
                    .collect();
                names.into_iter().map(move |node| (m, node))
            })
            .map(|(m, node)| per_machine.probe(&format!("m{m}"), &node).unwrap())
            .collect();
        let apply = |per_machine: &mut ClusterSolver,
                     batched: &mut [ClusterSolver],
                     oracle: &mut RoomStepper<ReferenceSolver>,
                     m: usize,
                     f: &Fiddle| {
            fiddle(per_machine.machine_at_mut(m), f);
            for room in batched.iter_mut() {
                fiddle(room.machine_at_mut(m), f);
            }
            oracle.machine_at_mut(m).fiddle(f);
        };
        for m in 0..n {
            let u = Fiddle::Utilization(self.utils[m % self.utils.len()]);
            apply(&mut per_machine, &mut batched, &mut oracle, m, &u);
        }
        for &m in &self.room.pinned {
            apply(
                &mut per_machine,
                &mut batched,
                &mut oracle,
                m % n,
                &Fiddle::Pin(70.0),
            );
        }

        let mut stops: Vec<usize> = self.script.iter().map(|e| e.tick).collect();
        stops.push(self.ticks);
        stops.retain(|&t| t <= self.ticks);
        stops.sort_unstable();
        stops.dedup();
        let mut worst = 0.0_f64;
        let mut at = 0;
        for stop in stops {
            let mut history: Vec<Vec<u64>> = Vec::new();
            for tick in at..stop {
                per_machine.step();
                oracle.step();
                let mut temps = Vec::new();
                for (m, &count) in node_counts.iter().enumerate() {
                    for i in 0..count {
                        let got = per_machine.machine_at(m).temperature_at(i).0;
                        let want = oracle.machine_at(m).temperature_at(i).0;
                        let gap = (got - want).abs();
                        assert!(
                            gap <= COMPOSED_VS_STEPPED_C,
                            "tick {tick}: machine {m} node {i}: composed {got} vs stepped {want}"
                        );
                        worst = worst.max(gap);
                        temps.push(got.to_bits());
                    }
                }
                history.push(temps);
            }
            for room in &mut batched {
                let backend = room.simd_backend().name();
                let mut recorded: Vec<Vec<u64>> = Vec::new();
                room.step_for_recorded(stop - at, &probes, |_, temps| recorded.push(bits(temps)));
                assert!(
                    recorded == history,
                    "ticks {at}..{stop} on {backend}: batched probes differ"
                );
                assert_same_state(
                    &per_machine,
                    room,
                    &format!("after tick {stop} on {backend}"),
                );
            }
            at = stop;
            // Script order within a tick, as in [`run`].
            for event in self.script.iter().filter(|e| e.tick == at) {
                let m = event.machine % n;
                apply(
                    &mut per_machine,
                    &mut batched,
                    &mut oracle,
                    m,
                    &event.fiddle,
                );
            }
        }
        worst
    }
}
