//! Property tests for the Mercury core: physics invariants over random
//! graphs, protocol totality, fiddle grammar round-trips, and one
//! structure-aware fuzz target per binary format (request, reply,
//! `.events`, checkpoint).

mod fuzz;

use fuzz::Damage;
use mercury::fiddle::{FiddleCommand, FiddleScript};
use mercury::model::MachineModel;
use mercury::net::proto::{self, Request};
use mercury::solver::{Solver, SolverConfig};
use mercury::trace::events;
use mercury::units::Celsius;
use proptest::prelude::*;

/// A random closed system: `n` components fully mixed by a random
/// spanning tree of heat edges (no air, no boundary, no power).
fn closed_system() -> impl Strategy<Value = (MachineModel, Vec<f64>)> {
    (2usize..7).prop_flat_map(|n| {
        (
            proptest::collection::vec(0.05f64..3.0, n..=n), // masses
            proptest::collection::vec(0.1f64..15.0, n - 1..=n - 1), // tree edge ks
            proptest::collection::vec(-20.0f64..90.0, n..=n), // initial temps
        )
            .prop_map(move |(masses, ks, temps)| {
                let mut b = MachineModel::builder("closed");
                for (i, mass) in masses.iter().enumerate() {
                    b.component(format!("c{i}"))
                        .mass_kg(*mass)
                        .specific_heat(900.0)
                        .constant_power(0.0);
                }
                for (i, k) in ks.iter().enumerate() {
                    // A path graph keeps everything connected and acyclic.
                    b.heat_edge(&format!("c{i}"), &format!("c{}", i + 1), *k)
                        .unwrap();
                }
                (b.build().unwrap(), temps)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Energy conservation over arbitrary closed chains.
    #[test]
    fn random_closed_chains_conserve_energy((model, temps) in closed_system(), ticks in 1usize..300) {
        let mut solver = Solver::new(&model, SolverConfig::default()).unwrap();
        for (i, t) in temps.iter().enumerate() {
            solver.set_temperature(&format!("c{i}"), Celsius(*t)).unwrap();
        }
        let before = solver.heat_content().0;
        solver.step_for(ticks);
        let after = solver.heat_content().0;
        prop_assert!(
            (before - after).abs() <= 1e-6 * before.abs().max(1.0),
            "energy drifted {before} -> {after}"
        );
    }

    /// Maximum principle: in a closed system with no sources, every
    /// temperature stays inside the initial [min, max] envelope forever.
    #[test]
    fn closed_chains_obey_the_maximum_principle((model, temps) in closed_system()) {
        let mut solver = Solver::new(&model, SolverConfig::default()).unwrap();
        for (i, t) in temps.iter().enumerate() {
            solver.set_temperature(&format!("c{i}"), Celsius(*t)).unwrap();
        }
        let lo = temps.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = temps.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for _ in 0..300 {
            solver.step();
            for (name, t) in solver.temperatures() {
                prop_assert!(
                    t.0 >= lo - 1e-9 && t.0 <= hi + 1e-9,
                    "{name} escaped [{lo}, {hi}]: {t}"
                );
            }
        }
    }

    /// Equilibrium: the chain converges to the energy-weighted mean.
    #[test]
    fn closed_chains_converge_to_the_weighted_mean((model, temps) in closed_system()) {
        let mut solver = Solver::new(&model, SolverConfig::default()).unwrap();
        let mut total_energy = 0.0;
        let mut total_capacity = 0.0;
        for (i, t) in temps.iter().enumerate() {
            solver.set_temperature(&format!("c{i}"), Celsius(*t)).unwrap();
        }
        for node in model.nodes() {
            let capacity = node.capacity().0;
            let i: usize = node.name()[1..].parse().unwrap();
            total_energy += capacity * temps[i];
            total_capacity += capacity;
        }
        let expected = total_energy / total_capacity;
        let (_, converged) = solver.run_to_steady_state(1e-9, 2_000_000);
        prop_assume!(converged);
        for (name, t) in solver.temperatures() {
            prop_assert!(
                (t.0 - expected).abs() < 0.01,
                "{name} settled at {t}, expected {expected:.3}"
            );
        }
    }

    /// The wire protocol decoder is total: arbitrary bytes never panic.
    #[test]
    fn protocol_decoders_are_total(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = proto::decode_request(&bytes);
        let _ = proto::decode_reply(&bytes);
    }

    /// Utilization updates round-trip for arbitrary names and values.
    #[test]
    fn utilization_updates_round_trip(
        machine in "[a-zA-Z0-9_.-]{0,30}",
        pairs in proptest::collection::vec(("[a-zA-Z0-9_]{1,20}", 0.0f32..=1.0), 0..8),
    ) {
        let request = Request::UtilizationUpdate {
            machine,
            utilizations: pairs,
        };
        let decoded = proto::decode_request(&proto::encode_request(&request)).unwrap();
        prop_assert_eq!(decoded, request);
    }

    /// Every fiddle command's display form parses back to itself, for
    /// random identifiers and finite values.
    #[test]
    fn fiddle_commands_round_trip(
        machine in "[a-zA-Z][a-zA-Z0-9_]{0,12}",
        node in "[a-zA-Z][a-zA-Z0-9_]{0,12}",
        value in 0.001f64..1000.0,
        which in 0usize..6,
    ) {
        let command = match which {
            0 => FiddleCommand::Temperature { machine, node, celsius: value },
            1 => FiddleCommand::Release { machine, node },
            2 => FiddleCommand::FanSpeed { machine, cfm: value },
            3 => FiddleCommand::Power {
                machine,
                component: node,
                base_w: value,
                max_w: value * 2.0,
            },
            4 => FiddleCommand::HeatK { machine, a: node.clone(), b: format!("{node}_x"), k: value },
            _ => FiddleCommand::AirFraction {
                machine,
                from: node.clone(),
                to: format!("{node}_x"),
                fraction: (value % 1.0).max(0.001),
            },
        };
        let script = FiddleScript::parse(&command.to_string()).unwrap();
        prop_assert_eq!(script.commands().next().map(|(_, c)| c), Some(command.as_ref()));
        prop_assert_eq!(command.to_string().parse::<FiddleCommand>().unwrap(), command);
    }

    /// The fiddle script parser is total on arbitrary text.
    #[test]
    fn fiddle_parser_is_total(text in "\\PC{0,300}") {
        let _ = FiddleScript::parse(&text);
    }
}

/// A random [`Damage`]: a cut, one to three bit flips, or a splice.
fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (0usize..4096).prop_map(Damage::Truncate),
        proptest::collection::vec((0usize..4096, 1u8..=255), 1..4).prop_map(Damage::Flip),
        (0usize..4096, 0usize..4096).prop_map(|(head, tail)| Damage::Splice(head, tail)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A damaged request never panics the decoder, and one that still
    /// decodes re-encodes to the same bytes. A fiddle travels as script
    /// text, which decoding normalises, so for it the re-encoding is a
    /// fixed point instead.
    #[test]
    fn damaged_requests_decode_canonically_or_not_at_all(
        seed in 0usize..8,
        donor in 0usize..8,
        damage in damage(),
    ) {
        let requests = fuzz::requests();
        let bytes = damage.apply(
            &proto::encode_request(&requests[seed % requests.len()]),
            &proto::encode_request(&requests[donor % requests.len()]),
        );
        if let Ok(request) = proto::decode_request(&bytes) {
            let again = proto::encode_request(&request);
            if matches!(request, Request::Fiddle { .. }) {
                let twice = proto::encode_request(&proto::decode_request(&again).unwrap());
                prop_assert_eq!(twice, again);
            } else {
                prop_assert_eq!(again, bytes);
            }
        }
    }

    /// A damaged reply never panics the decoder, and one that still
    /// decodes re-encodes to the same bytes.
    #[test]
    fn damaged_replies_decode_canonically_or_not_at_all(
        seed in 0usize..6,
        donor in 0usize..6,
        damage in damage(),
    ) {
        let replies = fuzz::replies();
        let bytes = damage.apply(
            &proto::encode_reply(&replies[seed % replies.len()]),
            &proto::encode_reply(&replies[donor % replies.len()]),
        );
        if let Ok(reply) = proto::decode_reply(&bytes) {
            prop_assert_eq!(proto::encode_reply(&reply), bytes);
        }
    }

    /// A damaged `.events` image never panics the decoder. The encoder
    /// is canonical, the decoder merely strict: an undamaged seed
    /// re-encodes byte-identically, and whatever a damaged one decodes
    /// to re-encodes to a fixed point of decode→encode.
    #[test]
    fn damaged_events_decode_strictly(
        seed in 0usize..3,
        donor in 0usize..3,
        damage in damage(),
    ) {
        let seeds = fuzz::events_seeds();
        let original = &seeds[seed];
        prop_assert_eq!(&events::encode_to_vec(&events::decode(original).unwrap()).unwrap().0, original);
        let bytes = damage.apply(original, &seeds[donor]);
        if let Ok(traces) = events::decode(&bytes) {
            let (again, _) = events::encode_to_vec(&traces).unwrap();
            let (twice, _) = events::encode_to_vec(&events::decode(&again).unwrap()).unwrap();
            prop_assert_eq!(twice, again);
        }
    }

    /// A damaged checkpoint never panics a restore. An undamaged one
    /// round-trips save→restore→save byte-identically; a damaged one
    /// that restores leaves a room whose own checkpoint round-trips.
    #[test]
    fn damaged_checkpoints_restore_strictly(
        seed in 0usize..3,
        donor in 0usize..3,
        damage in damage(),
    ) {
        let seeds = fuzz::ckpt_seeds();
        let original = &seeds[seed];
        let mut room = fuzz::ckpt_room();
        room.restore_checkpoint(original).unwrap();
        prop_assert_eq!(&room.checkpoint(), original);
        let bytes = damage.apply(original, &seeds[donor]);
        let mut room = fuzz::ckpt_room();
        if room.restore_checkpoint(&bytes).is_ok() {
            let saved = room.checkpoint();
            let mut again = fuzz::ckpt_room();
            again.restore_checkpoint(&saved).unwrap();
            prop_assert_eq!(again.checkpoint(), saved);
        }
    }
}
