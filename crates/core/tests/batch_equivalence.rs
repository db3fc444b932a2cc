//! Equivalence tests for batched cluster stepping.
//!
//! The cluster solver's batched path (structure-sharing SoA sweeps over
//! fingerprint-identical machines) must be *bit-identical* to the
//! per-machine path, on clusters that mix replicated machines,
//! structurally unique machines, and machines fiddled away from their
//! source model mid-run — which stay batched, in per-lane-weight
//! groups — and fused multi-tick replay (`step_for`) must be
//! bit-identical to one `step()` per tick. These tests drive every
//! path over the same inputs and compare every node temperature
//! bitwise.
//!
//! Test names contain `batch` so CI can run exactly this suite in
//! release mode (`cargo test -p mercury --release -- batch`), where the
//! vectorized sweep actually engages.

mod common;

use common::{
    assert_same_state, fiddle, frame_calls_strategy, frame_room_strategy, mix_calls_strategy,
    mix_room_strategy, pins_and_releases, room_changes_strategy, run, script_strategy,
    supported_backends, Event, FedInputs, FedPlan, Fiddle, FrameCall, FramePlan, FrameRoom,
    MixCall, MixPlan, MixRoom, OraclePlan, RecomposePlan, Remodel, RoomStepper, Setup,
};
use mercury::presets::{self, nodes, FAN_CFM};
use mercury::solver::{ClusterSolver, SimdBackend, Solver, SolverConfig};
use mercury::units::Celsius;
use mercury::Error;
use proptest::prelude::*;

/// Bitwise comparison of the clock and of every node temperature on
/// every machine.
fn assert_bit_identical(a: &ClusterSolver, b: &ClusterSolver, context: &str) {
    assert_eq!(a.len(), b.len());
    assert_eq!(
        a.time().0.to_bits(),
        b.time().0.to_bits(),
        "{context}: clock drift"
    );
    for m in 0..a.len() {
        let ta = a.machine_at(m).temperatures();
        let tb = b.machine_at(m).temperatures();
        for ((name, x), (_, y)) in ta.iter().zip(&tb) {
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

/// One scripted run: identical inputs pushed into a solver with
/// batching on or off. Exercises replica fan-fiddles mid-run (a
/// machine left alone in its class steps per-machine), per-variant
/// utilizations, and a forced inlet. `backend` forces the batched lane sweeps onto one
/// SIMD backend (`None` keeps the host default).
#[allow(clippy::too_many_arguments)]
fn scripted_run(
    cluster: &mercury::model::ClusterModel,
    batching: bool,
    backend: Option<SimdBackend>,
    utils: &[f64],
    fiddle_machine: usize,
    fiddle_tick: usize,
    ticks: usize,
) -> ClusterSolver {
    let mut s = ClusterSolver::new(cluster, SolverConfig::default()).unwrap();
    s.set_batching(batching);
    if let Some(backend) = backend {
        s.set_simd_backend(backend).unwrap();
    }
    let names: Vec<String> = s.machine_names().iter().map(|n| n.to_string()).collect();
    for (i, name) in names.iter().enumerate() {
        let u = utils[i % utils.len()];
        s.set_utilization(name, nodes::CPU, u).unwrap();
        s.set_utilization(name, nodes::DISK_PLATTERS, 1.0 - u)
            .unwrap();
    }
    s.force_inlet(&names[0], Celsius(24.0)).unwrap();
    for tick in 0..ticks {
        if tick == fiddle_tick {
            // Kick one machine off the batched path mid-run: a fan-speed
            // fiddle diverges its kernel from the source model, and a
            // class of one does not batch.
            let name = &names[fiddle_machine % names.len()];
            s.machine_mut(name).unwrap().set_fan_cfm(30.0).unwrap();
        }
        s.step();
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched and per-machine stepping are bit-identical on a mixed
    /// cluster (replicas + structural variants + a mid-run fan fiddle +
    /// a forced inlet), on every SIMD
    /// backend the host supports (unsupported draws fall back to the
    /// baseline, so every backend index is a valid case everywhere).
    #[test]
    fn batched_matches_per_machine_on_mixed_clusters(
        replicated in 3usize..8,
        unique in 0usize..3,
        utils in proptest::collection::vec(0.0f64..1.0, 3..6),
        fiddle_machine in 0usize..8,
        fiddle_tick in 1usize..25,
        backend_idx in 0usize..SimdBackend::ALL.len(),
    ) {
        let backend = SimdBackend::ALL[backend_idx];
        let backend = if backend.supported() { backend } else { SimdBackend::Baseline };
        let cluster = presets::mixed_cluster(replicated, unique);
        let baseline = scripted_run(
            &cluster, false, None, &utils, fiddle_machine, fiddle_tick, 30,
        );
        prop_assert_eq!(baseline.batched_machines(), 0);
        let batched = scripted_run(
            &cluster, true, Some(backend), &utils, fiddle_machine,
            fiddle_tick, 30,
        );
        // The batched run really used the batched path (the replicas
        // minus at most the fiddled one still form a group of >= 2).
        prop_assert!(
            batched.batched_machines() >= replicated - 1,
            "only {} machines batched out of {} replicas",
            batched.batched_machines(),
            replicated
        );
        assert_bit_identical(
            &baseline,
            &batched,
            &format!("mixed cluster on {}", batched.simd_backend().name()),
        );
    }
}

/// Every supported SIMD backend is bit-identical to the per-machine
/// path at lane counts that stress the dead-lane padding: cluster sizes
/// 2, 3, 31, 32 and 33 produce chunks of 1 (the 33rd machine's
/// remainder chunk), 2, 3, 31 and a full 32 live lanes, so strides of
/// one narrow block and of one wide block, full and part-dead.
#[test]
fn batched_backends_match_at_odd_lane_counts() {
    let utils = [0.85, 0.15, 0.6, 0.4, 0.95];
    for machines in [2usize, 3, 31, 32, 33] {
        let cluster = presets::validation_cluster(machines);
        let baseline = scripted_run(&cluster, false, None, &utils, 1, 9, 25);
        for backend in SimdBackend::ALL.into_iter().filter(|b| b.supported()) {
            let batched = scripted_run(&cluster, true, Some(backend), &utils, 1, 9, 25);
            assert_eq!(batched.simd_backend(), backend);
            // After the mid-run fiddle demotes one machine, the rest
            // still batch — unless that leaves fewer than the 2-machine
            // group minimum (the `machines == 2` case, whose 2-lane
            // chunks were exercised by the pre-fiddle ticks).
            let expect_batched = if machines > 2 { machines - 1 } else { 0 };
            assert!(
                batched.batched_machines() >= expect_batched,
                "{machines} machines on {}: only {} batched",
                backend.name(),
                batched.batched_machines()
            );
            assert_bit_identical(
                &baseline,
                &batched,
                &format!("{machines} machines on {}", backend.name()),
            );
        }
    }
}

/// Forcing an unsupported backend is a checked error; the selected
/// backend and the lane-width gauge stay put. (An AVX-512 host supports
/// all three levels and has nothing to reject.)
#[test]
fn batch_backend_selection_is_validated() {
    let cluster = presets::validation_cluster(4);
    let mut s = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
    assert_eq!(s.simd_backend(), SimdBackend::detect());
    s.set_simd_backend(SimdBackend::Baseline).unwrap();
    assert_eq!(s.simd_backend(), SimdBackend::Baseline);
    for backend in SimdBackend::ALL.into_iter().filter(|b| !b.supported()) {
        assert!(s.set_simd_backend(backend).is_err());
        assert_eq!(
            s.simd_backend(),
            SimdBackend::Baseline,
            "rejected switch stuck"
        );
    }
}

/// The replicated fast path engages on a homogeneous cluster and stays
/// bit-identical to the per-machine path.
#[test]
fn batched_replicated_cluster_matches_per_machine() {
    let cluster = presets::validation_cluster(40);
    let utils = [0.9, 0.2, 0.55, 0.7];
    let baseline = scripted_run(&cluster, false, None, &utils, 5, 10, 40);
    let batched = scripted_run(&cluster, true, None, &utils, 5, 10, 40);
    // 40 replicas, one fiddled away mid-run.
    assert_eq!(batched.batched_machines(), 39);
    assert_bit_identical(&baseline, &batched, "replicated room");
}

/// A machine whose fan is fiddled leaves the shared-operator group; alone
/// in its class, it steps per-machine. The rest stay.
#[test]
fn batch_membership_follows_divergence() {
    let cluster = presets::validation_cluster(12);
    let mut s = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
    assert_eq!(s.batched_machines(), 0, "no plan before the first tick");
    s.step();
    assert_eq!(s.batched_machines(), 12);
    s.machine_mut("machine3")
        .unwrap()
        .set_fan_cfm(20.0)
        .unwrap();
    s.step();
    assert_eq!(s.batched_machines(), 11);
    // Disabling batching clears the plan; re-enabling rebuilds it.
    s.set_batching(false);
    s.step();
    assert_eq!(s.batched_machines(), 0);
    s.set_batching(true);
    s.step();
    assert_eq!(s.batched_machines(), 11);
}

/// A mid-run fan-speed change invalidates the cached air flows exactly
/// once: the flows are recomputed on the next step and then served from
/// cache again, and re-commanding the *same* speed recomputes nothing.
#[test]
fn batch_flow_cache_invalidated_exactly_once_by_fan_change() {
    let mut s = Solver::new(&presets::validation_machine(), SolverConfig::default()).unwrap();
    let recomputes = s.metrics().flow_recomputes.clone();
    assert_eq!(recomputes.get(), 1, "construction prices the flows once");
    for _ in 0..10 {
        s.step();
    }
    assert_eq!(recomputes.get(), 1, "steady stepping hits the cache");

    s.set_fan_cfm(50.0).unwrap();
    for _ in 0..10 {
        s.step();
    }
    assert_eq!(recomputes.get(), 2, "fan change recomputes exactly once");

    s.set_fan_cfm(50.0).unwrap();
    s.step();
    assert_eq!(
        recomputes.get(),
        2,
        "same speed re-commanded is a cache hit"
    );

    // A heat-k fiddle rebuilds the operator but leaves air flows alone.
    s.set_heat_k(nodes::CPU, nodes::CPU_AIR, 0.9).unwrap();
    s.step();
    assert_eq!(recomputes.get(), 2, "heat-k fiddle does not touch flows");

    // An air-fraction fiddle *does* change the flow distribution.
    s.set_air_fraction(nodes::VOID_AIR, nodes::EXHAUST, 0.9)
        .unwrap();
    s.step();
    assert_eq!(recomputes.get(), 3);
}

/// Sub-steps per tick of a Table 1 machine at a fan scale.
fn substeps_at(scale: f64) -> usize {
    let mut s = Solver::new(&presets::validation_machine(), SolverConfig::default()).unwrap();
    s.set_fan_cfm(FAN_CFM * scale).unwrap();
    s.substeps_per_tick()
}

fn fan(tick: usize, machine: usize, scale: f64) -> Event {
    Event {
        tick,
        machine,
        fiddle: Fiddle::Fan(scale),
    }
}

/// Fan-commanded machines stay on the batched path, grouped by sub-step
/// count; `batched_machines()` counts them, so a silent fall-back to
/// the per-machine kernel fails here. The script walks one machine
/// through everything that must refresh its lane: a re-command inside
/// its class (same group, new weights), the same speed again, a speed
/// that flips its sub-step count (another group), and a pin and release.
#[test]
fn batch_diverged_machines_stay_batched_by_substep_class() {
    let (slow, slower, fast) = (0.8, 0.805, 1.25);
    assert_eq!(substeps_at(slow), substeps_at(slower), "one class");
    assert_ne!(substeps_at(slow), substeps_at(fast), "two classes");
    let cluster = presets::recirculating_cluster(12, 0.3);
    let utils = [0.9, 0.2, 0.55];
    let mut script: Vec<Event> = vec![
        fan(0, 0, slow),
        fan(0, 1, slow),
        fan(0, 2, slower),
        fan(0, 3, fast),
        fan(0, 4, fast),
        fan(0, 5, fast),
    ];
    let batched_after = |script: &[Event], ticks: usize| {
        let reference = run(&cluster, &utils, script, ticks, Setup::PER_MACHINE);
        let batched = run(&cluster, &utils, script, ticks, Setup::BATCHED);
        assert_same_state(&reference, &batched, &format!("{ticks} ticks"));
        batched.batched_machines()
    };
    assert_eq!(batched_after(&script, 8), 12, "two per-lane groups");
    // New weights inside the class, then the same speed re-commanded.
    script.push(fan(8, 1, slower));
    script.push(fan(12, 1, slower));
    assert_eq!(batched_after(&script, 16), 12);
    // A sub-step flip moves machine 2 into the other group...
    script.push(fan(16, 2, fast));
    assert_eq!(batched_after(&script, 24), 12);
    // ...and one more leaves machine 0 alone in its class: solo.
    script.push(fan(24, 1, fast));
    assert_eq!(batched_after(&script, 32), 11);
    // A pin takes a diverged machine off the batch; a release returns it.
    script.push(Event {
        tick: 32,
        machine: 4,
        fiddle: Fiddle::Pin(55.0),
    });
    assert_eq!(batched_after(&script, 40), 10);
    script.push(Event {
        tick: 40,
        machine: 4,
        fiddle: Fiddle::Release,
    });
    assert_eq!(batched_after(&script, 48), 11);
}

/// Per-lane groups of 2, 7, 8, 9, 31, 32 and 33 machines — every
/// residue of the 8-lane row padding, and a second chunk — are
/// bit-identical to the per-machine kernel on every backend, per tick
/// and fused, with the room's exhaust recirculating into its inlets (a
/// dead lane leaking into a live one would show there first).
#[test]
fn batch_per_lane_groups_match_at_every_row_padding() {
    let utils = [0.85, 0.15, 0.6, 0.4, 0.95];
    for group in [2usize, 7, 8, 9, 31, 32, 33] {
        let cluster = presets::recirculating_cluster(group + 3, 0.3);
        // Distinct speeds inside one sub-step class; three undiverged
        // machines keep a shared-operator group beside it.
        let scale = |m: usize| 0.8 + m as f64 * 1e-4;
        assert_eq!(substeps_at(scale(0)), substeps_at(scale(group)));
        let mut script: Vec<Event> = (0..group).map(|m| fan(3, m, scale(m))).collect();
        script.push(fan(11, group - 1, scale(group)));
        script.push(fan(11, 0, scale(0)));
        let reference = run(&cluster, &utils, &script, 25, Setup::PER_MACHINE);
        for backend in supported_backends() {
            for fused in [false, true] {
                let drive = Setup {
                    backend: Some(backend),
                    fused,
                    ..Setup::BATCHED
                };
                let batched = run(&cluster, &utils, &script, 25, drive);
                assert_eq!(batched.batched_machines(), group + 3);
                assert_same_state(
                    &reference,
                    &batched,
                    &format!("group of {group} on {} fused={fused}", backend.name()),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rooms of 1..=70 replicated machines under a random script of fan,
    /// heat-k and air-fraction commands, pins, releases and utilization
    /// changes against a subset of the machines, repeatedly: batched
    /// stepping is bit-identical to per-machine stepping on every
    /// backend (unsupported draws fall back to the baseline).
    #[test]
    fn batch_fiddled_rooms_match_per_machine(
        machines in 1usize..=70,
        subset in 1usize..=24,
        script in script_strategy(30, 24, 0..40),
        utils in proptest::collection::vec(0.0f64..1.0, 3..6),
        backend_idx in 0usize..SimdBackend::ALL.len(),
    ) {
        let backend = SimdBackend::ALL[backend_idx];
        let backend = if backend.supported() { backend } else { SimdBackend::Baseline };
        let cluster = presets::recirculating_cluster(machines, 0.25);
        let script: Vec<Event> = script
            .into_iter()
            .map(|e| Event { machine: e.machine % subset, ..e })
            .collect();
        let reference = run(&cluster, &utils, &script, 30, Setup::PER_MACHINE);
        prop_assert_eq!(reference.batched_machines(), 0);
        let drive = Setup { backend: Some(backend), ..Setup::BATCHED };
        let batched = run(&cluster, &utils, &script, 30, drive);
        assert_same_state(
            &reference,
            &batched,
            &format!("{machines} machines on {}", backend.name()),
        );
    }
}

// --- fused replay -----------------------------------------------------------
//
// One `step_for` call per script segment against one `step()` per tick,
// batched or per machine, through fiddles, forced inlets and restores.

/// How a run advances time between script events.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Drive {
    /// One `step()` call per tick.
    PerTick,
    /// One `step_for(segment)` call per script segment (fused spans).
    Fused,
}

/// One scripted run in two segments. Between them — the only place
/// external mutation is allowed, and therefore a natural fused span
/// break — the script fiddles one machine's fan (moving it out of its
/// batch group).
fn segmented_run(
    cluster: &mercury::model::ClusterModel,
    drive: Drive,
    batching: bool,
    utils: &[f64],
    fiddle_machine: usize,
    segments: [usize; 2],
) -> ClusterSolver {
    let mut s = ClusterSolver::new(cluster, SolverConfig::default()).unwrap();
    s.set_batching(batching);
    let names: Vec<String> = s.machine_names().iter().map(|n| n.to_string()).collect();
    for (i, name) in names.iter().enumerate() {
        let u = utils[i % utils.len()];
        s.set_utilization(name, nodes::CPU, u).unwrap();
        s.set_utilization(name, nodes::DISK_PLATTERS, 1.0 - u)
            .unwrap();
    }
    s.force_inlet(&names[0], Celsius(24.0)).unwrap();
    let advance = |s: &mut ClusterSolver, ticks: usize| match drive {
        Drive::PerTick => (0..ticks).for_each(|_| s.step()),
        Drive::Fused => s.step_for(ticks),
    };
    advance(&mut s, segments[0]);
    // Mid-run divergence: a fan-speed fiddle kicks one machine off the
    // batched path and invalidates its flow cache.
    let name = &names[fiddle_machine % names.len()];
    s.machine_mut(name).unwrap().set_fan_cfm(30.0).unwrap();
    advance(&mut s, segments[1]);
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Per-machine, batched per-tick and batched fused-replay stepping
    /// are bit-identical on mixed clusters with a mid-run fan fiddle
    /// and a forced inlet.
    #[test]
    fn batch_and_fused_match_serial_on_mixed_clusters(
        replicated in 3usize..8,
        unique in 0usize..3,
        utils in proptest::collection::vec(0.0f64..1.0, 3..6),
        fiddle_machine in 0usize..8,
        seg0 in 1usize..12,
        seg1 in 1usize..24,
    ) {
        let segments = [seg0, seg1];
        let cluster = presets::mixed_cluster(replicated, unique);
        let serial = segmented_run(
            &cluster, Drive::PerTick, false, &utils, fiddle_machine, segments,
        );
        prop_assert_eq!(serial.batched_machines(), 0);
        let batched = segmented_run(
            &cluster, Drive::PerTick, true, &utils, fiddle_machine, segments,
        );
        let fused = segmented_run(
            &cluster, Drive::Fused, true, &utils, fiddle_machine, segments,
        );
        // The fused run really engaged the batched path (replicas minus
        // at most the fiddled one still group).
        prop_assert!(fused.batched_machines() >= replicated - 1);
        assert_bit_identical(&serial, &batched, "batched vs serial");
        assert_bit_identical(&serial, &fused, "fused vs serial");
    }
}

/// Fused replay with a recording sink observes exactly the per-tick
/// trajectory: the recorded history is bit-identical to stepping one
/// tick at a time and reading the probed nodes after each tick.
#[test]
fn batch_fused_recorded_history_matches_per_tick_reads() {
    let cluster = presets::validation_cluster(24);
    let mut reference = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
    let mut fused = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
    for s in [&mut reference, &mut fused] {
        s.set_utilization("machine3", nodes::CPU, 0.8).unwrap();
        s.set_utilization("machine7", nodes::DISK_PLATTERS, 0.5)
            .unwrap();
        // One batched probe, one solo probe (machine11 leaves the batch).
        s.machine_mut("machine11")
            .unwrap()
            .set_fan_cfm(32.0)
            .unwrap();
    }
    let probes = [
        fused.probe("machine3", nodes::CPU).unwrap(),
        fused.probe("machine11", nodes::CPU_AIR).unwrap(),
    ];

    let mut expected = Vec::new();
    for _ in 0..50 {
        reference.step();
        expected.push((
            reference.time().0,
            reference.temperature("machine3", nodes::CPU).unwrap().0,
            reference
                .temperature("machine11", nodes::CPU_AIR)
                .unwrap()
                .0,
        ));
    }

    let mut recorded = Vec::new();
    fused.step_for_recorded(50, &probes, |time, temps| {
        recorded.push((time.0, temps[0].0, temps[1].0));
    });

    assert_eq!(recorded.len(), expected.len());
    for (tick, (r, e)) in recorded.iter().zip(&expected).enumerate() {
        assert_eq!(r.0.to_bits(), e.0.to_bits(), "tick {tick}: time");
        assert_eq!(r.1.to_bits(), e.1.to_bits(), "tick {tick}: batched probe");
        assert_eq!(r.2.to_bits(), e.2.to_bits(), "tick {tick}: solo probe");
    }
    assert_bit_identical(&reference, &fused, "after recorded replay");
}

/// Every supported SIMD backend stays bit-identical to per-machine
/// stepping under per-tick and fused replay, with a solo machine
/// stepping beside the chunks.
#[test]
fn batch_per_tick_and_fused_match_on_every_simd_backend() {
    let cluster = presets::validation_cluster(40);
    let utils = [0.9, 0.25, 0.6];
    let run = |backend: Option<SimdBackend>, fused: bool| {
        let mut s = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
        if let Some(b) = backend {
            s.set_simd_backend(b).unwrap();
        } else {
            s.set_batching(false);
        }
        let names: Vec<String> = s.machine_names().iter().map(|n| n.to_string()).collect();
        for (i, name) in names.iter().enumerate() {
            s.set_utilization(name, nodes::CPU, utils[i % utils.len()])
                .unwrap();
        }
        // Demote one machine so chunks and a solo machine share ticks.
        s.machine_mut("machine17")
            .unwrap()
            .set_fan_cfm(30.0)
            .unwrap();
        if fused {
            s.step_for(35);
        } else {
            for _ in 0..35 {
                s.step();
            }
        }
        s
    };
    let serial = run(None, false);
    for backend in supported_backends() {
        let per_tick = run(Some(backend), false);
        assert!(per_tick.batched_machines() >= 39);
        assert_bit_identical(&serial, &per_tick, &format!("per-tick {}", backend.name()));
        let fused = run(Some(backend), true);
        assert_bit_identical(&serial, &fused, &format!("fused {}", backend.name()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rooms of 1..=70 machines under a random fiddle script (fan,
    /// heat-k, air-fraction, pins, releases — see `common`): batched
    /// per-tick or fused stepping, with a checkpoint → restore →
    /// continue in the middle, ends bit-identical to per-machine
    /// stepping that never left its solver.
    #[test]
    fn batch_fiddled_rooms_match_serial_through_fusion_and_restore(
        machines in 1usize..=70,
        subset in 1usize..=24,
        script in script_strategy(36, 24, 0..40),
        utils in proptest::collection::vec(0.0f64..1.0, 3..6),
        fused in any::<bool>(),
        restore_at in 1usize..36,
    ) {
        let cluster = presets::recirculating_cluster(machines, 0.25);
        let script: Vec<Event> = script
            .into_iter()
            .map(|e| Event { machine: e.machine % subset, ..e })
            .collect();
        let serial = run(&cluster, &utils, &script, 36, Setup::PER_MACHINE);
        let drive = Setup {
            fused,
            restore_at: Some(restore_at),
            ..Setup::BATCHED
        };
        let batched = run(&cluster, &utils, &script, 36, drive);
        assert_same_state(
            &serial,
            &batched,
            &format!("{machines} machines, fused={fused}, restored at {restore_at}"),
        );
    }
}

/// A checkpoint does not record which path stepped a machine: after 200
/// churned ticks with fan commands every 10, the blob of a batched room
/// equals the blob of the same room stepped per-machine, byte for byte.
///
/// Every machine is fan-commanded before the first tick. `mercury-ckpt-v1`
/// carries a tick counter that undiverged batched machines have never
/// booked, so only a diverged room has path-independent bytes; dropping
/// the field is a format change.
#[test]
fn batch_checkpoint_bytes_ignore_the_batching_path() {
    let machines = 40;
    let cluster = presets::recirculating_cluster(machines, 0.2);
    // Five speeds: several per-lane groups, re-dealt every 10 ticks so
    // machines keep changing groups and weights; every cell changes
    // every tick.
    let scale = |m: usize, round: usize| 0.7 + ((m * 7 + round * 3) % 5) as f64 * 0.15;
    let mut script = Vec::new();
    for tick in 0..200 {
        for m in 0..machines {
            if tick % 10 == 0 && (tick == 0 || m % 3 == 0) {
                script.push(Event {
                    tick,
                    machine: m,
                    fiddle: Fiddle::Fan(scale(m, tick / 10)),
                });
            }
            script.push(Event {
                tick,
                machine: m,
                fiddle: Fiddle::Utilization(((tick * 31 + m * 17) % 100) as f64 / 100.0),
            });
        }
    }
    let utils = [0.5];
    let per_machine = run(&cluster, &utils, &script, 200, Setup::PER_MACHINE);
    let batched = run(&cluster, &utils, &script, 200, Setup::BATCHED);
    assert!(
        batched.batched_machines() >= machines - 5,
        "only {} of {machines} diverged machines batched",
        batched.batched_machines()
    );
    assert!(
        batched.checkpoint() == per_machine.checkpoint(),
        "checkpoint bytes differ between batched and per-machine"
    );
}

// --- the fed span ---------------------------------------------------------
//
// `step_for_fed` against "the same inputs through
// `machine_at_mut(..).set_utilization_at`, then `step()`" (the driver is
// `common::FedPlan::check`). Names start `batch_fed_` so the CI filter
// above picks them up.

fn remodel_strategy(ticks: usize) -> impl Strategy<Value = Vec<Remodel>> {
    proptest::collection::vec(
        (0..ticks, 0usize..24, 0usize..3).prop_map(|(tick, machine, kind)| Remodel {
            tick,
            machine,
            kind,
        }),
        0..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Rooms of 1..=70 machines, some with table or constant power
    /// models from the start and some re-modelled between spans, under
    /// the random fiddle scripts of `common` (so shared-operator lanes,
    /// per-lane lanes and solo machines all occur), fed dense or sparse
    /// inputs by feeds that may end the span early — with or without
    /// having set the next tick's inputs first: tick by tick and span
    /// by span the room equals one that took the same inputs through
    /// its solvers and stepped, on every backend.
    #[test]
    fn batch_fed_span_matches_set_then_step(
        machines in 1usize..=70,
        subset in 1usize..=24,
        script in script_strategy(30, 24, 0..30),
        remodels in remodel_strategy(30),
        utils in proptest::collection::vec(0.0f64..1.0, 3..6),
        seed in any::<u64>(),
        density in prop_oneof![Just(100u64), Just(100u64), 0u64..30],
        cut in prop_oneof![Just(0usize), 1usize..9],
        write_at_cut in any::<bool>(),
        backend_idx in 0usize..SimdBackend::ALL.len(),
    ) {
        let backend = SimdBackend::ALL[backend_idx];
        let backend = if backend.supported() { backend } else { SimdBackend::Baseline };
        let cluster = presets::recirculating_cluster(machines, 0.25);
        let script: Vec<Event> = script
            .into_iter()
            .map(|e| Event { machine: e.machine % subset, ..e })
            .collect();
        FedPlan {
            cluster: &cluster,
            utils: &utils,
            script: &script,
            remodels: &remodels,
            inputs: FedInputs { seed, density },
            ticks: 30,
            cut,
            write_at_cut,
        }
        .check(Setup { backend: Some(backend), ..Setup::BATCHED });
    }
}

/// A plain fed plan over `cluster`: dense inputs, nothing between spans.
fn dense_plan<'a>(cluster: &'a mercury::model::ClusterModel, ticks: usize) -> FedPlan<'a> {
    FedPlan {
        cluster,
        utils: &[0.3, 0.8],
        script: &[],
        remodels: &[],
        inputs: FedInputs {
            seed: 21,
            density: 100,
        },
        ticks,
        cut: 0,
        write_at_cut: false,
    }
}

/// The churn regime on every backend: every cell of a replicated room
/// changes every tick and the whole run is one span, priced in the
/// chunk lanes with `(base, max − base)` and handed back at its end —
/// utilizations, generated heat and checkpoint bytes included.
#[test]
fn batch_fed_dense_inputs_price_in_the_lanes() {
    let cluster = presets::validation_cluster(37);
    for backend in supported_backends() {
        let fed = dense_plan(&cluster, 25).check(Setup {
            backend: Some(backend),
            ..Setup::BATCHED
        });
        assert_eq!(fed.batched_machines(), 37, "{}", backend.name());
    }
}

/// A power model set between two fed spans reaches the lane's pricing
/// coefficients: linear to other linear coefficients, to a table the
/// lane cannot price, and back.
#[test]
fn batch_fed_reprices_after_set_power_model() {
    let cluster = presets::validation_cluster(9);
    let remodels: Vec<Remodel> = [(8, 2, 0), (8, 5, 1), (16, 5, 0), (16, 7, 2), (24, 2, 1)]
        .into_iter()
        .map(|(tick, machine, kind)| Remodel {
            tick,
            machine,
            kind,
        })
        .collect();
    let fed = FedPlan {
        remodels: &remodels,
        ..dense_plan(&cluster, 32)
    }
    .check(Setup::BATCHED);
    assert_eq!(
        fed.batched_machines(),
        9,
        "re-modelled machines stay in their lanes"
    );
}

/// Solo machines — one pinned, one alone in its fan class — take their
/// inputs through their solvers and reprice before every in-span tick.
#[test]
fn batch_fed_solo_machines_reprice_in_span() {
    let cluster = presets::validation_cluster(8);
    let script = [
        Event {
            tick: 0,
            machine: 1,
            fiddle: Fiddle::Pin(48.0),
        },
        Event {
            tick: 0,
            machine: 4,
            fiddle: Fiddle::Fan(0.6),
        },
    ];
    let fed = FedPlan {
        script: &script,
        ..dense_plan(&cluster, 20)
    }
    .check(Setup::BATCHED);
    assert_eq!(fed.batched_machines(), 6);
}

/// The same solo machines — one pinned, one alone in its fan class — in
/// a room of 40 on every backend, every cell changing every tick.
#[test]
fn batch_fed_solo_machines_reprice_on_every_backend() {
    let cluster = presets::validation_cluster(40);
    let script = [
        Event {
            tick: 0,
            machine: 3,
            fiddle: Fiddle::Pin(52.0),
        },
        Event {
            tick: 0,
            machine: 17,
            fiddle: Fiddle::Fan(0.7),
        },
    ];
    for backend in supported_backends() {
        let fed = FedPlan {
            utils: &[0.2, 0.9, 0.5],
            script: &script,
            inputs: FedInputs {
                seed: 5,
                density: 100,
            },
            ..dense_plan(&cluster, 18)
        }
        .check(Setup {
            backend: Some(backend),
            ..Setup::BATCHED
        });
        assert_eq!(fed.batched_machines(), 38, "{}", backend.name());
    }
}

/// A feed that fails mid-span leaves the room at the tick boundary it
/// had reached — the ticks stepped so far scattered back and booked —
/// and the next span picks up from there.
#[test]
fn batch_fed_feed_errors_close_the_span() {
    let cluster = presets::validation_cluster(12);
    let mut fed = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
    let mut stepped = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
    let cpu = fed.machine_at(0).node_index(nodes::CPU).unwrap();
    let inlet = fed.machine_at(0).node_index(nodes::INLET).unwrap();
    let u = |tick: usize, m: usize| ((tick * 13 + m * 7) % 100) as f64 / 100.0;
    let mut tick = 0;
    let err = fed
        .step_for_fed(
            20,
            &[],
            |_, _| {},
            |inputs| {
                if tick == 7 {
                    return Err(Error::invalid_input("bad record"));
                }
                for m in 0..12 {
                    inputs.set_utilization_at(m, cpu, u(tick, m))?;
                }
                tick += 1;
                Ok(true)
            },
        )
        .unwrap_err();
    assert!(matches!(err, Error::InvalidInput { .. }), "{err}");
    for t in 0..7 {
        for m in 0..12 {
            stepped
                .machine_at_mut(m)
                .set_utilization_at(cpu, u(t, m))
                .unwrap();
        }
        stepped.step();
    }
    assert_same_state(&fed, &stepped, "after the failed span");
    assert!(fed.checkpoint() == stepped.checkpoint());

    // A cell that is not a monitored component is the feed's own error,
    // before the span's first tick (no tick runs) and in the lanes (one
    // has).
    for in_lane in [false, true] {
        let mut calls = 0;
        let err = fed
            .step_for_fed(
                5,
                &[],
                |_, _| {},
                |inputs| {
                    if calls == usize::from(in_lane) {
                        inputs.set_utilization_at(3, inlet, 0.5)?;
                    }
                    calls += 1;
                    Ok(true)
                },
            )
            .unwrap_err();
        assert!(matches!(err, Error::InvalidInput { .. }), "{err}");
        if in_lane {
            stepped.step();
        }
        assert_same_state(&fed, &stepped, "after the rejected cell");
    }
    fed.step_for(3);
    stepped.step_for(3);
    assert_same_state(&fed, &stepped, "continuing");
}

/// `fused_ticks` and the `fused_span_ticks` histogram go on counting
/// input-stable in-lane ticks and runs; in-lane ticks that took an
/// input are `fed_ticks`.
#[test]
fn batch_fed_ticks_count_apart_from_fused_ticks() {
    let cluster = presets::validation_cluster(6);
    let mut s = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
    let cpu = s.machine_at(0).node_index(nodes::CPU).unwrap();
    // 31 ticks: one full step, then inputs on in-lane ticks 5, 6 and 20.
    let mut tick = 0;
    let stepped = s
        .step_for_fed(
            31,
            &[],
            |_, _| {},
            |inputs| {
                if [0, 5, 6, 20].contains(&tick) {
                    inputs.set_utilization_at(2, cpu, tick as f64 / 40.0)?;
                }
                tick += 1;
                Ok(true)
            },
        )
        .unwrap();
    assert_eq!(stepped, 31);
    let m = s.metrics();
    assert_eq!(m.ticks.get(), 31);
    assert_eq!(m.fed_ticks.get(), 3);
    assert_eq!(m.fused_ticks.get(), 27);
    // Input-stable runs: ticks 1–4, 7–19, 21–30.
    let runs = m.fused_spans.snapshot();
    assert_eq!(runs.count, 3);
    assert_eq!(runs.sum, 27);

    // A span whose every tick takes an input has no fused tick at all.
    s.step_for_fed(
        10,
        &[],
        |_, _| {},
        |inputs| {
            inputs.set_utilization_at(0, cpu, 0.5)?;
            Ok(true)
        },
    )
    .unwrap();
    let m = s.metrics();
    assert_eq!(m.ticks.get(), 41);
    assert_eq!(m.fed_ticks.get(), 12);
    assert_eq!(m.fused_ticks.get(), 27);
    assert_eq!(m.fused_spans.snapshot().count, 3);
}

// --- the room's air mix inside a span ----------------------------------------
//
// A fused span mixes only the sinks it can change: inlets that read
// anything but supplies and junctions something reads (or that read a
// later junction) every tick, the other junctions once at its end.
// `common::MixPlan::check` holds a room to one stepped one `step()` at a
// time, down to every junction temperature and the checkpoint bytes. Names start `batch_mix_` so the CI filter above
// picks them up.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random rooms — 1–2 supplies, 0–3 junctions linked in either
    /// declaration order, recirculation into some inlets, machines with
    /// zero, one and two exhaust regions, pinned machines — through fed
    /// spans that end early or fail, recorded spans, forced inlets,
    /// releases and supply changes, on every backend.
    #[test]
    fn batch_mix_random_rooms_match_per_tick_stepping(
        room in mix_room_strategy(),
        calls in mix_calls_strategy(),
        backend_idx in 0usize..SimdBackend::ALL.len(),
    ) {
        let backend = SimdBackend::ALL[backend_idx];
        let backend = if backend.supported() { backend } else { SimdBackend::Baseline };
        MixPlan { room: &room, calls: &calls }
            .check(Setup { backend: Some(backend), ..Setup::BATCHED });
    }
}

/// The ideal room's one junction is read by nothing and mixed once per
/// span, from the exhausts the span's last tick saw.
#[test]
fn batch_mix_deferred_junctions_mix_from_the_last_tick() {
    let room = MixRoom {
        exhausts: vec![1, 2, 0],
        ..MixRoom::ideal(12)
    };
    let calls = [
        MixCall::fed(20),
        MixCall::Recorded { ticks: 15 },
        MixCall::Supply { supply: 0, t: 24.0 },
        MixCall::fed(10),
    ];
    let fused = MixPlan {
        room: &room,
        calls: &calls,
    }
    .check(Setup::BATCHED);
    assert_eq!(fused.batched_machines(), 12);
}

/// A span the feed ends, or fails, after some ticks still mixes its
/// deferred junctions.
#[test]
fn batch_mix_deferral_runs_when_the_feed_ends_or_fails() {
    let end = |end: usize, fail: bool| MixCall::Fed {
        ticks: 10,
        end: Some(end),
        fail,
    };
    let calls = [
        end(2, false),
        end(5, true),
        end(0, false),
        end(1, true),
        end(7, false),
        end(3, true),
    ];
    MixPlan {
        room: &MixRoom::ideal(10),
        calls: &calls,
    }
    .check(Setup::BATCHED);
}

/// `j0` reads `j1`, declared after it, and nothing reads `j0`: it must
/// still mix every tick, because each tick reads `j1`'s value from the
/// tick before. `j2` reads the earlier `j1` and is deferred.
#[test]
fn batch_mix_junction_chains_in_both_orders() {
    let room = MixRoom {
        junctions: 3,
        exhaust_to: vec![Some(1)],
        links: vec![(1, 0), (1, 2)],
        ..MixRoom::ideal(10)
    };
    let calls = [
        MixCall::fed(15),
        MixCall::Recorded { ticks: 10 },
        MixCall::Fed {
            ticks: 12,
            end: Some(6),
            fail: false,
        },
    ];
    MixPlan {
        room: &room,
        calls: &calls,
    }
    .check(Setup::BATCHED);
}

/// The hot aisle `j0` recirculates into every other inlet; `j1` beside
/// it takes some exhausts and feeds nothing.
fn recirculating_room(machines: usize) -> MixRoom {
    MixRoom {
        junctions: 2,
        exhaust_to: vec![Some(0), Some(1), Some(0)],
        recirculate: vec![Some(0), None],
        ..MixRoom::ideal(machines)
    }
}

/// The recirculated inlets mix every tick; the others keep the value
/// the supply gave them.
#[test]
fn batch_mix_recirculated_inlets_mix_every_tick() {
    let calls = [
        MixCall::fed(15),
        MixCall::Recorded { ticks: 10 },
        MixCall::Fed {
            ticks: 12,
            end: Some(4),
            fail: true,
        },
    ];
    MixPlan {
        room: &recirculating_room(12),
        calls: &calls,
    }
    .check(Setup::BATCHED);
}

/// A forced inlet holds through spans that mix its neighbours every
/// tick, and rejoins the mix once released.
#[test]
fn batch_mix_forced_inlets_hold_inside_live_spans() {
    let calls = [
        MixCall::Force {
            machine: 2,
            t: 33.0,
        },
        MixCall::Force {
            machine: 5,
            t: 27.5,
        },
        MixCall::fed(12),
        MixCall::Recorded { ticks: 8 },
        MixCall::Release { machine: 2 },
        MixCall::fed(10),
    ];
    MixPlan {
        room: &recirculating_room(12),
        calls: &calls,
    }
    .check(Setup::BATCHED);
}

/// Pinned machines step solo; their exhausts reach the deferred
/// junction as the span's last tick saw them, not as the span left
/// them.
#[test]
fn batch_mix_solo_exhausts_reach_deferred_junctions() {
    let room = MixRoom {
        pinned: vec![2, 5],
        ..MixRoom::ideal(10)
    };
    let calls = [
        MixCall::fed(15),
        MixCall::Recorded { ticks: 10 },
        MixCall::Fed {
            ticks: 9,
            end: Some(4),
            fail: false,
        },
    ];
    let fused = MixPlan {
        room: &room,
        calls: &calls,
    }
    .check(Setup::BATCHED);
    assert_eq!(fused.batched_machines(), 8);
}

/// Live and deferred sinks with solo machines beside the chunks, on
/// every backend: a hot aisle recirculating into some inlets, a
/// junction reading a later one, an unread junction, two pinned
/// machines and a forced inlet.
#[test]
fn batch_mix_live_and_deferred_sinks_on_every_backend() {
    let room = MixRoom {
        exhausts: vec![1, 2, 0],
        junctions: 3,
        exhaust_to: vec![Some(0), Some(2)],
        recirculate: vec![Some(0), None, None],
        links: vec![(2, 1)],
        pinned: vec![4, 11],
        ..MixRoom::ideal(36)
    };
    let calls = [
        MixCall::fed(12),
        MixCall::Force {
            machine: 3,
            t: 31.0,
        },
        MixCall::Recorded { ticks: 9 },
        MixCall::Fed {
            ticks: 10,
            end: Some(5),
            fail: true,
        },
        MixCall::Supply { supply: 0, t: 20.5 },
        MixCall::fed(8),
    ];
    for backend in supported_backends() {
        let fused = MixPlan {
            room: &room,
            calls: &calls,
        }
        .check(Setup {
            backend: Some(backend),
            ..Setup::BATCHED
        });
        assert_eq!(fused.batched_machines(), 34, "{}", backend.name());
    }
}

// --- whole-frame feeds ----------------------------------------------------
//
// `TickInputs::set_frame` against per-cell `set_utilization_at` feeds and
// against a set-then-`step()` loop (the driver is
// `common::FramePlan::check`). A replay call runs its first tick in the
// lanes too, so these also hold the call's opening — every sink mixed,
// the frame priced in the lanes, one scatter — to a full `step()`. Names
// start `batch_frame_` so the CI filter above picks them up.

fn frame_plan<'a>(room: &'a FrameRoom, calls: &'a [FrameCall]) -> FramePlan<'a> {
    FramePlan {
        room,
        calls,
        inputs: FedInputs {
            seed: 77,
            density: 60,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random rooms — lanes monitoring more or less than their group's
    /// representative, recirculation, pinned machines — through fed
    /// spans that end at 0, 1 or k ticks or fail, with supply changes,
    /// fan commands (per-lane groups, singleton classes), pins, releases
    /// and table or constant power models between them, on every
    /// backend.
    #[test]
    fn batch_frame_random_rooms_match_cell_feeds_and_steps(
        room in frame_room_strategy(),
        calls in frame_calls_strategy(),
        seed in any::<u64>(),
        density in prop_oneof![Just(100u64), 0u64..60],
        backend_idx in 0usize..SimdBackend::ALL.len(),
    ) {
        let backend = SimdBackend::ALL[backend_idx];
        let backend = if backend.supported() { backend } else { SimdBackend::Baseline };
        FramePlan { room: &room, calls: &calls, inputs: FedInputs { seed, density } }
            .check(Setup { backend: Some(backend), ..Setup::BATCHED });
    }
}

/// Cells the lanes cannot price go one by one, through their solvers:
/// a node the group's representative does not monitor, a constant
/// model, and CPUs re-modelled to a table or a constant between spans.
/// Every representative variant leads a group once.
#[test]
fn batch_frame_fallback_cells_take_the_per_cell_path() {
    let remodel = |machine, kind| FrameCall::Remodel { machine, kind };
    let calls = [
        FrameCall::fed(6),
        remodel(4, 1),
        remodel(7, 2),
        FrameCall::fed(7),
        remodel(4, 0),
        FrameCall::fed(5),
    ];
    for monitors in [vec![0, 1, 2], vec![1, 0, 2], vec![2, 1, 0]] {
        let room = FrameRoom {
            monitors,
            ..FrameRoom::ideal(12)
        };
        let framed = frame_plan(&room, &calls).check(Setup::BATCHED);
        assert_eq!(framed.batched_machines(), 12);
    }
}

/// Solo machines — pinned, and alone in their fan class — take their
/// cells in their solvers, beside lanes that price theirs.
#[test]
fn batch_frame_solo_machines_take_their_cells_in_their_solvers() {
    let room = FrameRoom {
        pinned: vec![3],
        ..FrameRoom::ideal(10)
    };
    let calls = [
        FrameCall::Fan {
            machine: 6,
            scale: 0.6,
        },
        FrameCall::fed(9),
        FrameCall::fed(4),
    ];
    let framed = frame_plan(&room, &calls).check(Setup::BATCHED);
    assert_eq!(framed.batched_machines(), 8);
}

/// Solo machines and cells the lanes cannot price, on every backend: a
/// pinned machine and one alone in its fan class step beside the chunks
/// while the frame lands on both.
#[test]
fn batch_frame_solo_and_fallback_cells_on_every_backend() {
    let room = FrameRoom {
        recirculate: vec![true, false],
        pinned: vec![7],
        ..FrameRoom::ideal(36)
    };
    let calls = [
        FrameCall::Fan {
            machine: 20,
            scale: 0.7,
        },
        FrameCall::Remodel {
            machine: 11,
            kind: 1,
        },
        FrameCall::fed(9),
        FrameCall::Supply(20.5),
        FrameCall::Fed {
            ticks: 8,
            end: Some(3),
            fail: true,
            write: true,
        },
        FrameCall::fed(6),
    ];
    for backend in supported_backends() {
        let framed = FramePlan {
            room: &room,
            calls: &calls,
            inputs: FedInputs {
                seed: 13,
                density: 100,
            },
        }
        .check(Setup {
            backend: Some(backend),
            ..Setup::BATCHED
        });
        assert_eq!(framed.batched_machines(), 34, "{}", backend.name());
    }
}

/// The heat a lane priced goes back to the solver with the utilization:
/// after fan commands regroup the room and a pin moves a machine solo,
/// the cold chunks and the solo kernel read the handed-back heat.
#[test]
fn batch_frame_hand_back_carries_the_heat_into_a_regroup() {
    let fan = |machine, scale| FrameCall::Fan { machine, scale };
    let calls = [
        FrameCall::fed(5),
        fan(1, 0.75),
        fan(2, 0.75),
        fan(5, 0.75),
        FrameCall::fed(1),
        FrameCall::Pin { machine: 8 },
        fan(9, 1.25),
        fan(10, 1.25),
        FrameCall::fed(1),
        fan(2, 1.25),
        FrameCall::Release { machine: 8 },
        FrameCall::fed(4),
    ];
    frame_plan(&FrameRoom::ideal(12), &calls).check(Setup::BATCHED);
}

/// A call's first tick mixes every sink, as `step()` does: a supply
/// changed between calls reaches the inlets that read only the supply,
/// and the unread junction, on the call's first tick — also for calls
/// of one tick.
#[test]
fn batch_frame_first_tick_mixes_every_sink() {
    let calls = [
        FrameCall::fed(4),
        FrameCall::Supply(24.0),
        FrameCall::fed(1),
        FrameCall::Supply(16.5),
        FrameCall::fed(6),
        FrameCall::Supply(21.0),
        FrameCall::fed(2),
    ];
    for recirculate in [vec![false], vec![true, false]] {
        let room = FrameRoom {
            recirculate,
            ..FrameRoom::ideal(12)
        };
        frame_plan(&room, &calls).check(Setup::BATCHED);
    }
}

/// Spans the feed ends at 0, 1 or k ticks, or fails there, with and
/// without setting that tick's inputs first. A call whose first feed
/// ends it having set nothing leaves the checkpoint bytes unchanged
/// (the driver asserts it): the lanes open, but nothing is mixed before
/// a tick runs.
#[test]
fn batch_frame_spans_end_or_fail_at_any_tick() {
    let mut calls = Vec::new();
    for end in [0, 1, 3] {
        for (fail, write) in [(false, false), (true, false), (false, true), (true, true)] {
            calls.push(FrameCall::Fed {
                ticks: 6,
                end: Some(end),
                fail,
                write,
            });
        }
        calls.push(FrameCall::Supply(19.0 + end as f64));
    }
    calls.push(FrameCall::fed(3));
    let room = FrameRoom {
        recirculate: vec![false, true],
        pinned: vec![4],
        ..FrameRoom::ideal(11)
    };
    frame_plan(&room, &calls).check(Setup::BATCHED);
}

/// One frame, fed across calls whose plans differ: each call routes it
/// afresh, so a cell follows its machine into another group, another
/// chunk, onto the solo path and back.
#[test]
fn batch_frame_routes_afresh_after_a_replan() {
    let fan = |machine, scale| FrameCall::Fan { machine, scale };
    let calls = [
        FrameCall::fed(3),
        fan(0, 0.75),
        fan(33, 0.75),
        FrameCall::fed(3),
        FrameCall::Pin { machine: 5 },
        fan(0, 1.0),
        FrameCall::fed(3),
        FrameCall::Release { machine: 5 },
        fan(33, 1.25),
        fan(34, 1.25),
        FrameCall::fed(3),
    ];
    frame_plan(&FrameRoom::ideal(40), &calls).check(Setup::BATCHED);
}

/// A call's first tick is booked as a full step: in `ticks`, not in
/// `fed_ticks`, `fused_ticks` or the `fused_span_ticks` runs — whether
/// its feed sets a frame or not.
#[test]
fn batch_frame_first_tick_is_booked_as_a_full_step() {
    let room = FrameRoom::ideal(9);
    let mut s = ClusterSolver::new(&room.model(), SolverConfig::default()).unwrap();
    let frame = s.input_frame(&room.cells(&s)).unwrap();
    // 12 ticks: frames on ticks 0, 4 and 5.
    let mut tick = 0;
    s.step_for_fed(
        12,
        &[],
        |_, _| {},
        |inputs| {
            if [0, 4, 5].contains(&tick) {
                inputs.set_frame(&frame, |k| (k + tick) as f64 / 40.0);
            }
            tick += 1;
            Ok(true)
        },
    )
    .unwrap();
    let m = s.metrics();
    assert_eq!(m.ticks.get(), 12);
    assert_eq!(m.fed_ticks.get(), 2);
    assert_eq!(m.fused_ticks.get(), 9);
    // Input-stable runs: ticks 1–3 and 6–11.
    let runs = m.fused_spans.snapshot();
    assert_eq!((runs.count, runs.sum), (2, 9));
    // A call of one tick books one full step and nothing else.
    s.step_for_fed(
        1,
        &[],
        |_, _| {},
        |inputs| {
            inputs.set_frame(&frame, |_| 0.5);
            Ok(true)
        },
    )
    .unwrap();
    let m = s.metrics();
    assert_eq!(m.ticks.get(), 13);
    assert_eq!(m.fed_ticks.get(), 2);
    assert_eq!(m.fused_ticks.get(), 9);
}

/// `input_frame` takes each cell once, on a known machine, at a
/// monitored component — the checks a `.events` binding makes.
#[test]
fn batch_frame_rejects_cells_it_cannot_take() {
    let room = FrameRoom::ideal(3);
    let s = ClusterSolver::new(&room.model(), SolverConfig::default()).unwrap();
    let node = |m: usize, name: &str| s.machine_at(m).node_index(name).unwrap();
    let cpu = node(0, nodes::CPU);
    assert!(s.input_frame(&[]).unwrap().is_empty());
    let frame = s.input_frame(&[(2, cpu), (0, cpu), (0, node(0, "disk"))]);
    assert_eq!(frame.unwrap().len(), 3);
    let invalid = |cells: &[(usize, usize)], says: &str| match s.input_frame(cells) {
        Err(Error::InvalidInput { reason }) => assert!(reason.contains(says), "{reason}"),
        other => panic!("{cells:?}: {other:?}"),
    };
    invalid(&[(0, cpu), (3, cpu)], "machine index 3 is out of range");
    invalid(&[(1, 99)], "node index 99 is out of range on `m1`");
    invalid(
        &[(1, node(1, "disk"))],
        "`disk` on `m1` is not a monitored component",
    );
    invalid(
        &[(0, node(0, "nic"))],
        "`nic` on `m0` is not a monitored component",
    );
    invalid(
        &[(0, node(0, nodes::INLET))],
        "`inlet` on `m0` is not a monitored",
    );
    invalid(
        &[(2, cpu), (1, cpu), (2, cpu)],
        "`cpu` on `m2` is in the frame twice",
    );
}

// --- the per-tick oracle --------------------------------------------------
//
// Every suite above holds one configuration of `ClusterSolver` to
// another; `step()` itself is a one-tick call of the same loop they
// all run. `common::RoomStepper` is the reference from outside: a room
// stepped one standalone `Solver` at a time with the air mixed by hand,
// sharing no room-level code with the solver; `common::OraclePlan::check`
// runs each case. Names start `batch_oracle_` so the CI filter above
// picks them up.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random rooms — 1–2 supplies, 0–3 junctions linked in either
    /// declaration order, recirculation into some inlets, machines with
    /// zero, one and two exhaust regions, pinned machines — under random
    /// fan, heat-k, air-fraction, pin, release and utilization scripts,
    /// forced inlets, releases and supply changes: the per-machine room
    /// (`set_batching(false)`, one `step()` per tick) equals the room
    /// stepper after every tick, bit for bit.
    #[test]
    fn batch_oracle_per_machine_rooms_match_the_room_stepper(
        room in mix_room_strategy(),
        script in script_strategy(30, 40, 0..30),
        changes in room_changes_strategy(30),
        utils in proptest::collection::vec(0.0f64..1.0, 1..4),
    ) {
        OraclePlan { room: &room, utils: &utils, script: &script, changes: &changes, ticks: 30 }
            .check(Setup::PER_MACHINE);
    }
}

/// The room stepper does not care how the room is configured: a batched
/// room with per-lane groups, solo machines, a
/// recirculating junction and an unread one, forced inlets and a supply
/// change, equals it after every tick.
#[test]
fn batch_oracle_batched_rooms_match_the_room_stepper() {
    let room = MixRoom {
        junctions: 2,
        exhaust_to: vec![Some(0), Some(1), Some(0)],
        recirculate: vec![Some(0), None],
        pinned: vec![5],
        ..MixRoom::ideal(24)
    };
    let script: Vec<Event> = (0..8)
        .map(|m| fan(2 + m, 2 * m, 0.8 + m as f64 * 1e-4))
        .chain([
            Event {
                tick: 6,
                machine: 3,
                fiddle: Fiddle::HeatK(0.9),
            },
            Event {
                tick: 9,
                machine: 7,
                fiddle: Fiddle::AirFraction(0.7),
            },
            Event {
                tick: 14,
                machine: 5,
                fiddle: Fiddle::Release,
            },
        ])
        .collect();
    let changes = [
        (
            4,
            MixCall::Force {
                machine: 1,
                t: 31.0,
            },
        ),
        (11, MixCall::Supply { supply: 0, t: 23.5 }),
        (16, MixCall::Release { machine: 1 }),
    ];
    let batched = OraclePlan {
        room: &room,
        utils: &[0.2, 0.9, 0.55],
        script: &script,
        changes: &changes,
        ticks: 20,
    }
    .check(Setup::BATCHED);
    // The heat-k- and air-fraction-fiddled boxes are each alone in
    // their class, so they step solo beside the chunks.
    assert_eq!(batched.batched_machines(), 22);
}

/// A call hands each machine the clock its span ends at, added up once
/// per distinct start: members stepped alone beforehand (one lane of a
/// shared group, one of a per-lane group, a solo machine twice) start
/// the call on clocks of their own. After `step_for`, every machine's
/// clock and state equal the room stepper's, and the room writes the
/// checkpoint bytes of a twin that took the same ticks one `step()` at
/// a time.
#[test]
fn batch_oracle_members_on_their_own_clocks_end_spans_on_them() {
    let model = presets::validation_cluster(24);
    let mut room = ClusterSolver::new(&model, SolverConfig::default()).unwrap();
    let mut twin = ClusterSolver::new(&model, SolverConfig::default()).unwrap();
    let mut oracle = RoomStepper::<Solver>::new(&model);
    let commands = (0..24)
        .map(|m| (m, Fiddle::Utilization([0.2, 0.9, 0.55][m % 3])))
        .chain((8..16).map(|m| (m, Fiddle::Fan(0.8))))
        .chain([(20, Fiddle::Pin(50.0))]);
    for (m, command) in commands {
        fiddle(room.machine_at_mut(m), &command);
        fiddle(twin.machine_at_mut(m), &command);
        fiddle(oracle.machine_at_mut(m), &command);
    }
    for ticks in [3, 1, 5] {
        room.step();
        twin.step();
        oracle.step();
        for m in [2, 9, 20, 20] {
            room.machine_at_mut(m).step();
            twin.machine_at_mut(m).step();
            oracle.machine_at_mut(m).step();
        }
        room.step_for(ticks);
        for _ in 0..ticks {
            twin.step();
            oracle.step();
        }
        let context = format!("a call of {ticks} ticks");
        oracle.assert_matches(&room, &context);
        assert!(
            room.machine_at(20).time().0 > room.machine_at(9).time().0,
            "clocks differ"
        );
        assert!(
            room.checkpoint() == twin.checkpoint(),
            "{context}: checkpoint bytes"
        );
    }
}

// --- recomposition ----------------------------------------------------------
//
// A tick is one sweep of its sub-steps' composition, recomposed after
// every kernel rebuild and every pin or release. `common::RecomposePlan`
// holds batched rooms at every SIMD level to the per-machine room bit for
// bit and the per-machine room to the stepped-Euler oracle within
// rounding. Names start `batch_recompose_` so the CI filter above picks
// them up.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random rooms under random fan, heat-k, air-fraction, pin and
    /// release scripts, plus a pinned CPU air region and a pinned CPU
    /// released again between two spans.
    #[test]
    fn batch_recompose_random_rooms_match_per_machine_and_the_stepped_oracle(
        room in mix_room_strategy(),
        script in script_strategy(30, 40, 0..30),
        utils in proptest::collection::vec(0.0f64..1.0, 1..4),
        (machine, pinned, released) in (0usize..40, 1usize..12, 12usize..28),
    ) {
        let mut script = script;
        script.extend(pins_and_releases(machine, pinned, released));
        RecomposePlan { room: &room, utils: &utils, script: &script, ticks: 30 }
            .check();
    }
}

/// Every command that recomposes, one after another on one machine of a
/// recirculating room — a fan command, the same speed again, a heat-k
/// and an air-fraction fiddle, a pin of its air and of its CPU, both
/// released — while its neighbours run on per-lane and shared weights.
#[test]
fn batch_recompose_every_command_in_turn() {
    let room = MixRoom {
        junctions: 1,
        exhausts: vec![1],
        recirculate: vec![Some(0)],
        ..MixRoom::ideal(12)
    };
    let at = |tick, fiddle| Event {
        tick,
        machine: 3,
        fiddle,
    };
    let script = [
        fan(2, 4, 0.9),
        fan(2, 5, 0.9001),
        at(4, Fiddle::Fan(0.9002)),
        at(6, Fiddle::Fan(0.9002)),
        at(8, Fiddle::HeatK(0.95)),
        at(10, Fiddle::AirFraction(0.8)),
        at(12, Fiddle::PinAir(41.0)),
        at(14, Fiddle::Pin(66.0)),
        at(17, Fiddle::ReleaseAir),
        at(20, Fiddle::Release),
    ];
    let gap = RecomposePlan {
        room: &room,
        utils: &[0.3, 0.8],
        script: &script,
        ticks: 26,
    }
    .check();
    assert!(gap > 0.0, "composition reassociates, so some bit moves");
}

// --- replans ------------------------------------------------------------------
//
// A fan command moves its machine between per-lane classes, and the replan
// that follows recycles the groups it touches: their operators, their
// chunks, and the lanes that keep their machines. `ReplanRooms` holds such
// a room, after every tick and at every SIMD level, to a twin that plans
// from scratch before every call and to the room stepper. Names start
// `batch_replan_` so the CI filter above picks them up.

/// Three sub-step classes of the Table 1 machine, as fan scales: class
/// `c` commands `CLASS_BASES[c] + j·1e-3` for `j < 10`
/// (`replan_classes_are_three_substep_counts` holds them apart).
const CLASS_BASES: [f64; 3] = [0.6, 0.8, 1.1];

/// One change between two calls of a replan script. Machine indices are
/// taken modulo the room size.
#[derive(Debug, Clone)]
enum Replan {
    /// Two machines trade classes one for one (an undiverged one gives
    /// nothing back): each takes a new speed in the other's class.
    Swap(usize, usize),
    /// `count` machines from `first` on take a speed in `class`.
    Join {
        first: usize,
        count: usize,
        class: usize,
    },
    /// Every machine of `class` but its first leaves for class `to` (the
    /// next class, if `to` is `class`): the class shrinks below two.
    Drain {
        class: usize,
        to: usize,
    },
    /// A new speed inside the machine's class (class 0 if it has none).
    Recommand(usize),
    /// The machine's CPU pinned, taking it off the batch, and released.
    Pin(usize),
    Release(usize),
    /// Checkpoint every room here, and restore the last checkpoint.
    Save,
    Restore,
}

fn replan_strategy() -> impl Strategy<Value = Replan> {
    let machine = || 0usize..80;
    prop_oneof![
        (machine(), machine()).prop_map(|(a, b)| Replan::Swap(a, b)),
        (machine(), machine()).prop_map(|(a, b)| Replan::Swap(a, b)),
        (machine(), machine()).prop_map(|(a, b)| Replan::Swap(a, b)),
        (machine(), 1usize..12, 0usize..3).prop_map(|(first, count, class)| Replan::Join {
            first,
            count,
            class
        }),
        (0usize..3, 0usize..3).prop_map(|(class, to)| Replan::Drain { class, to }),
        machine().prop_map(Replan::Recommand),
        machine().prop_map(Replan::Recommand),
        machine().prop_map(Replan::Pin),
        machine().prop_map(Replan::Release),
        Just(Replan::Save),
        Just(Replan::Restore),
    ]
}

/// What [`Replan::Save`] keeps.
#[derive(Debug, Clone)]
struct Saved {
    room: Vec<u8>,
    twin: Vec<u8>,
    oracle: RoomStepper,
    class: Vec<Option<usize>>,
}

/// A recirculating room of Table 1 servers stepped one `step()` per call
/// three ways: `room` replans in place, `twin` drops its plan before
/// every call (`set_batching(false)` then `(true)`), and `oracle` is the
/// room stepper. All three take every command.
struct ReplanRooms {
    room: ClusterSolver,
    twin: ClusterSolver,
    oracle: RoomStepper,
    /// Each machine's class, `None` while undiverged.
    class: Vec<Option<usize>>,
    saved: Option<Saved>,
    /// Fan commands so far, which picks each command's speed in its
    /// class.
    commands: usize,
    calls: usize,
}

impl ReplanRooms {
    /// Class 0 opens with every other machine of the first 60, class 1
    /// with the odd ones below 20, class 2 with machines 21 and 23.
    fn new(machines: usize, backend: SimdBackend) -> ReplanRooms {
        let model = MixRoom {
            exhausts: vec![1],
            recirculate: vec![Some(0), None],
            ..MixRoom::ideal(machines)
        }
        .model();
        let build = || {
            let mut s = ClusterSolver::new(&model, SolverConfig::default()).unwrap();
            s.set_simd_backend(backend).unwrap();
            s
        };
        let mut rooms = ReplanRooms {
            room: build(),
            twin: build(),
            oracle: RoomStepper::new(&model),
            class: vec![None; machines],
            saved: None,
            commands: 0,
            calls: 0,
        };
        for m in 0..machines {
            let u = [0.9, 0.15, 0.6, 0.35][m % 4];
            rooms.fiddle(m, &Fiddle::Utilization(u));
        }
        let opening = (0..60).step_by(2).map(|m| (m, 0));
        let opening = opening.chain((1..20).step_by(2).map(|m| (m, 1)));
        for (m, class) in opening.chain([(21, 2), (23, 2)]) {
            rooms.fan(m % machines, class);
        }
        rooms
    }

    fn fiddle(&mut self, m: usize, f: &Fiddle) {
        fiddle(self.room.machine_at_mut(m), f);
        fiddle(self.twin.machine_at_mut(m), f);
        fiddle(self.oracle.machine_at_mut(m), f);
    }

    fn fan(&mut self, m: usize, class: usize) {
        self.commands += 1;
        let scale = CLASS_BASES[class] + (self.commands % 10) as f64 * 1e-3;
        self.fiddle(m, &Fiddle::Fan(scale));
        self.class[m] = Some(class);
    }

    fn members(&self, class: usize) -> Vec<usize> {
        (0..self.class.len())
            .filter(|&m| self.class[m] == Some(class))
            .collect()
    }

    fn apply(&mut self, change: &Replan) {
        let n = self.class.len();
        match *change {
            Replan::Swap(a, b) => {
                let (a, b) = (a % n, b % n);
                let (class_a, class_b) = (self.class[a], self.class[b]);
                if let Some(class) = class_b {
                    self.fan(a, class);
                }
                if let Some(class) = class_a {
                    self.fan(b, class);
                }
            }
            Replan::Join {
                first,
                count,
                class,
            } => (first..first + count).for_each(|m| self.fan(m % n, class)),
            Replan::Drain { class, to } => {
                let to = if to == class { (class + 1) % 3 } else { to };
                for &m in self.members(class).iter().skip(1) {
                    self.fan(m, to);
                }
            }
            Replan::Recommand(m) => self.fan(m % n, self.class[m % n].unwrap_or(0)),
            Replan::Pin(m) => self.fiddle(m % n, &Fiddle::Pin(60.0)),
            Replan::Release(m) => self.fiddle(m % n, &Fiddle::Release),
            Replan::Save => {
                self.saved = Some(Saved {
                    room: self.room.checkpoint(),
                    twin: self.twin.checkpoint(),
                    oracle: self.oracle.clone(),
                    class: self.class.clone(),
                });
            }
            Replan::Restore => {
                if let Some(saved) = self.saved.clone() {
                    self.room.restore_checkpoint(&saved.room).unwrap();
                    self.twin.restore_checkpoint(&saved.twin).unwrap();
                    self.oracle = saved.oracle;
                    self.class = saved.class;
                }
            }
        }
    }

    /// One call of one tick on every room, then the three held together
    /// bit for bit: every node, generated heat, inlet field, clock and
    /// junction, the plans' sizes, and the checkpoint bytes.
    fn step(&mut self) {
        self.twin.set_batching(false);
        self.twin.set_batching(true);
        self.room.step();
        self.twin.step();
        self.oracle.step();
        self.calls += 1;
        let context = format!("call {} on {}", self.calls, self.room.simd_backend().name());
        self.oracle.assert_matches(&self.room, &context);
        self.oracle.assert_matches(&self.twin, &context);
        assert_eq!(
            self.room.batched_machines(),
            self.twin.batched_machines(),
            "{context}: plans"
        );
        assert!(
            self.room.checkpoint() == self.twin.checkpoint(),
            "{context}: checkpoint bytes"
        );
    }

    /// Runs `script`, one call after each change.
    fn run(&mut self, script: &[Replan]) {
        self.step();
        for change in script {
            self.apply(change);
            self.step();
        }
    }
}

#[test]
fn batch_replan_classes_are_three_substep_counts() {
    let counts: Vec<usize> = CLASS_BASES.iter().map(|&base| substeps_at(base)).collect();
    for (class, &base) in CLASS_BASES.iter().enumerate() {
        assert_eq!(substeps_at(base + 9e-3), counts[class], "class {class}");
    }
    assert!(counts[0] != counts[1] && counts[1] != counts[2] && counts[0] != counts[2]);
}

/// Every replan a fan command can cause, in turn, on a 64-machine room:
/// one-for-one trades, a class growing past one chunk of 32 lanes and
/// back, a class shrinking to one machine (which steps solo) and
/// growing again, re-commands inside a class, a pin and its release,
/// and a checkpoint restored across replans.
#[test]
fn batch_replan_every_kind_of_replan_in_turn() {
    use Replan::*;
    let script = [
        Swap(0, 1),
        Swap(2, 21),
        Save,
        Join {
            first: 60,
            count: 4,
            class: 0,
        },
        Recommand(4),
        Drain { class: 2, to: 1 },
        Swap(3, 4),
        Pin(6),
        Join {
            first: 22,
            count: 3,
            class: 2,
        },
        Release(6),
        Restore,
        Drain { class: 0, to: 2 },
        Recommand(0),
        Swap(0, 21),
    ];
    for backend in supported_backends() {
        let mut rooms = ReplanRooms::new(64, backend);
        rooms.run(&script[..3]);
        assert_eq!(rooms.room.batched_machines(), 64, "three per-lane classes");
        assert_eq!(rooms.members(0).len(), 30);
        rooms.run(&script[3..4]);
        assert_eq!(rooms.members(0).len(), 34, "class 0 spans two chunks");
        rooms.run(&script[4..6]);
        assert_eq!(rooms.members(2).len(), 1);
        assert_eq!(rooms.room.batched_machines(), 63, "class 2 steps solo");
        rooms.run(&script[6..]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random trades, joins, drains, re-commands, pins, releases and
    /// restores on rooms of 40–80 machines, at every SIMD level.
    #[test]
    fn batch_replan_random_scripts_match_a_fresh_plan_and_the_room_stepper(
        machines in 40usize..80,
        script in proptest::collection::vec(replan_strategy(), 4..16),
    ) {
        for backend in supported_backends() {
            ReplanRooms::new(machines, backend).run(&script);
        }
    }
}
