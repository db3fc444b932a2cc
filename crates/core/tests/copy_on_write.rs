//! Replicas share their machine type until they diverge.
//!
//! The replicas of one model body in a `ClusterSolver` share the solver
//! structure derived from it and one compiled kernel, and copy either
//! only when a fiddle, a pin or a restore changes it — and then a
//! kernel's values only: every machine of a room keeps sharing its
//! type's kernel structure (adjacency, operator shape, the patterns of
//! the composed tick), whatever it was commanded. This suite drives
//! fan, heat-k, air-fraction, power-model and pin/release scripts, with
//! a checkpoint-restore cut, through two rooms — one whose machines are
//! renamed copies of a single prototype, one whose machines were built
//! apart (equal bodies, interned by value) — beside a `RoomStepper`
//! whose standalone solvers share nothing. After every tick the two
//! rooms write the same checkpoint bytes, the stepper holds the first
//! room bit for bit, the machines no command touched still share one
//! shape and one kernel, and every machine shares one kernel structure.

mod common;

use common::{fiddle, fiddle_strategy, Fiddle, RoomStepper};
use mercury::model::{ClusterEndpoint, ClusterModel};
use mercury::presets::{self, nodes};
use mercury::solver::{ClusterSolver, Solver, SolverConfig};
use proptest::prelude::*;
use std::collections::HashSet;

const MACHINES: usize = 8;
const TICKS: usize = 24;

/// `presets::validation_cluster(MACHINES)`, wired the same, but with
/// every machine built on its own.
fn built_apart() -> ClusterModel {
    let mut b = ClusterModel::builder();
    b.supply("ac", presets::INLET_TEMPERATURE_C);
    b.junction("cluster_exhaust");
    for i in 0..MACHINES {
        let m = b.machine(presets::validation_machine_named(&format!(
            "machine{}",
            i + 1
        )));
        b.edge(
            ClusterEndpoint::Supply("ac".into()),
            ClusterEndpoint::MachineInlet(m),
            1.0 / MACHINES as f64,
        );
        b.edge(
            ClusterEndpoint::MachineExhaust(m),
            ClusterEndpoint::Junction("cluster_exhaust".into()),
            1.0,
        );
    }
    b.build().unwrap()
}

fn room(model: &ClusterModel) -> ClusterSolver {
    ClusterSolver::new(model, SolverConfig::default()).unwrap()
}

/// Every fiddle the shared drivers know, power models included.
fn command_strategy() -> impl Strategy<Value = Fiddle> {
    prop_oneof![fiddle_strategy(), (20.0f64..45.0).prop_map(Fiddle::Power),]
}

/// Asserts that the machines outside `touched` share one shape and one
/// kernel — everything — and that every machine, touched or not,
/// shares one kernel structure.
fn assert_untouched_share(room: &ClusterSolver, touched: &HashSet<usize>, context: &str) {
    for m in 1..room.len() {
        assert!(
            room.machine_at(m)
                .shares_kernel_structure_with(room.machine_at(0)),
            "{context}: machine {m} has a kernel structure of its own"
        );
    }
    let untouched: Vec<&Solver> = (0..room.len())
        .filter(|m| !touched.contains(m))
        .map(|m| room.machine_at(m))
        .collect();
    for (k, machine) in untouched.iter().enumerate().skip(1) {
        assert!(
            machine.shares_shape_with(untouched[0]),
            "{context}: untouched machine {k} has a shape of its own"
        );
        assert!(
            machine.shares_kernel_with(untouched[0]),
            "{context}: untouched machine {k} has a kernel of its own"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cow_replicas_never_change_each_other(
        utils in proptest::collection::vec(0.0f64..1.0, 1..4),
        script in proptest::collection::vec(
            (0..TICKS, 0..MACHINES / 2, command_strategy()),
            0..14,
        ),
        restore_at in proptest::option::of(1..TICKS),
    ) {
        let (prototype, apart) = (presets::validation_cluster(MACHINES), built_apart());
        let (mut shared, mut separate) = (room(&prototype), room(&apart));
        let mut oracle = RoomStepper::<Solver>::new(&apart);
        for m in 0..MACHINES {
            let u = utils[m % utils.len()];
            for machine in [shared.machine_at_mut(m), separate.machine_at_mut(m), oracle.machine_at_mut(m)] {
                machine.set_utilization(nodes::CPU, u).unwrap();
            }
        }
        assert_untouched_share(&shared, &HashSet::new(), "built");
        assert_untouched_share(&separate, &HashSet::new(), "built apart");

        let mut touched = HashSet::new();
        for tick in 0..TICKS {
            if restore_at == Some(tick) {
                for (room_ref, model) in [(&mut shared, &prototype), (&mut separate, &apart)] {
                    let blob = room_ref.checkpoint();
                    *room_ref = room(model);
                    room_ref.restore_checkpoint(&blob).unwrap();
                    prop_assert_eq!(room_ref.checkpoint(), blob);
                    // Power models are not in `mercury-ckpt-v1`: the
                    // driver re-commands the ones it set.
                    for earlier in 0..tick {
                        for (_, m, command) in script.iter().filter(|(t, _, _)| *t == earlier) {
                            if let Fiddle::Power(_) = command {
                                fiddle(room_ref.machine_at_mut(*m), command);
                            }
                        }
                    }
                }
            }
            for (_, m, command) in script.iter().filter(|(t, _, _)| *t == tick) {
                fiddle(shared.machine_at_mut(*m), command);
                fiddle(separate.machine_at_mut(*m), command);
                fiddle(oracle.machine_at_mut(*m), command);
                if !matches!(command, Fiddle::Utilization(_)) {
                    touched.insert(*m);
                }
            }
            shared.step();
            separate.step();
            oracle.step();
            let context = format!("tick {tick}");
            assert_eq!(shared.checkpoint(), separate.checkpoint(), "{context}");
            oracle.assert_matches(&shared, &context);
            assert_untouched_share(&shared, &touched, &context);
            assert_untouched_share(&separate, &touched, &context);
        }
    }
}

/// Which part of its machine type a replica copies for each command,
/// as `(shape, kernel, kernel structure)` shared with an untouched
/// replica: a kernel copy is its values only, never the structure.
#[test]
fn cow_a_fiddled_replica_copies_only_what_it_changes() {
    let mut room = room(&presets::validation_cluster(6));
    room.step();
    let shares = |room: &ClusterSolver, m: usize| {
        let (a, b) = (room.machine_at(0), room.machine_at(m));
        (
            a.shares_shape_with(b),
            a.shares_kernel_with(b),
            a.shares_kernel_structure_with(b),
        )
    };
    // A power model is structure, not kernel.
    fiddle(room.machine_at_mut(1), &Fiddle::Power(40.0));
    // A fan command is state, but the kernel's values recompile for it.
    fiddle(room.machine_at_mut(2), &Fiddle::Fan(0.8));
    // A pin recomposes the kernel for its boundary mask.
    fiddle(room.machine_at_mut(3), &Fiddle::PinAir(40.0));
    // A heat k or an air fraction retunes the structure's edge list and
    // recompiles the kernel's values.
    fiddle(room.machine_at_mut(4), &Fiddle::HeatK(0.9));
    fiddle(room.machine_at_mut(5), &Fiddle::AirFraction(0.7));
    room.step();
    assert_eq!(shares(&room, 1), (false, true, true), "power model");
    assert_eq!(shares(&room, 2), (true, false, true), "fan");
    assert_eq!(shares(&room, 3), (true, false, true), "pin");
    assert_eq!(shares(&room, 4), (false, false, true), "heat k");
    assert_eq!(shares(&room, 5), (false, false, true), "air fraction");
    // Two replicas on one fan speed step in one per-lane class, each
    // lane composed from the machine's own values on the one structure.
    fiddle(room.machine_at_mut(1), &Fiddle::Fan(0.8));
    room.step();
    assert!(room.batched_machines() >= 2, "machines 1 and 2 batch");
    assert!(room
        .machine_at(1)
        .shares_kernel_structure_with(room.machine_at(2)));
    assert!(!room.machine_at(1).shares_kernel_with(room.machine_at(2)));
}
