//! Equivalence tests for the persistent tick pool and fused replay.
//!
//! Three ways of advancing a cluster must be *bit-identical*: serial
//! per-machine stepping, pool-parallel stepping, and fused multi-tick
//! replay (`step_for`). These tests drive all three over the same
//! scripted inputs — mixed solo/batched clusters, mid-run fiddles that
//! break fused spans and move machines between batch groups, and
//! `set_threads` resizes mid-run — and compare every node temperature
//! bitwise at 1, 2 and 8 threads.
//!
//! Test names contain `pool` so CI can run exactly this suite in
//! release mode (`cargo test -p mercury --release -- batch pool`).

mod common;

use common::{
    assert_same_state, frame_calls_strategy, frame_room_strategy, mix_calls_strategy,
    mix_room_strategy, pins_and_releases, run, script_strategy, supported_backends, Event,
    FedInputs, FedPlan, Fiddle, FrameCall, FramePlan, FrameRoom, MixCall, MixPlan, MixRoom,
    RecomposePlan, Remodel, Setup,
};
use mercury::presets::{self, nodes};
use mercury::solver::{ClusterSolver, SimdBackend, SolverConfig};
use mercury::units::Celsius;
use proptest::prelude::*;

/// How a run advances time between script events.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Drive {
    /// One `step()` call per tick.
    PerTick,
    /// One `step_for(segment)` call per script segment (fused spans).
    Fused,
}

/// Bitwise comparison of every node temperature on every machine.
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

/// One scripted run in three segments. Between segments — the only
/// places external mutation is allowed, and therefore natural fused
/// span breaks — the script fiddles one machine's fan (moving it out
/// of its batch group) and optionally resizes the thread pool.
#[allow(clippy::too_many_arguments)]
fn scripted_run(
    cluster: &mercury::model::ClusterModel,
    drive: Drive,
    batching: bool,
    threads: usize,
    resize_to: Option<usize>,
    utils: &[f64],
    fiddle_machine: usize,
    segments: [usize; 3],
) -> ClusterSolver {
    let mut s = ClusterSolver::new(cluster, SolverConfig::default()).unwrap();
    s.set_batching(batching);
    s.set_threads(threads);
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
    if let Some(t) = resize_to {
        s.set_threads(t);
    }
    advance(&mut s, segments[2]);
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Serial, pool-parallel, and fused-replay stepping are
    /// bit-identical on mixed clusters with a mid-run fan fiddle, a
    /// forced inlet, and a mid-run `set_threads` resize, at 1, 2 and 8
    /// threads.
    #[test]
    fn pool_and_fused_match_serial_on_mixed_clusters(
        replicated in 3usize..8,
        unique in 0usize..3,
        utils in proptest::collection::vec(0.0f64..1.0, 3..6),
        fiddle_machine in 0usize..8,
        threads in prop_oneof![Just(1usize), Just(2usize), Just(8usize)],
        resize_to in prop_oneof![Just(1usize), Just(2usize), Just(8usize)],
        seg0 in 1usize..12,
        seg1 in 1usize..12,
        seg2 in 1usize..12,
    ) {
        let segments = [seg0, seg1, seg2];
        let cluster = presets::mixed_cluster(replicated, unique);
        let serial = scripted_run(
            &cluster, Drive::PerTick, false, 1, None,
            &utils, fiddle_machine, segments,
        );
        prop_assert_eq!(serial.batched_machines(), 0);
        let pooled = scripted_run(
            &cluster, Drive::PerTick, true, threads, Some(resize_to), &utils,
            fiddle_machine, segments,
        );
        // The pool resizes lazily at the next *parallel* tick: after a
        // resize to > 1 threads the worker count matches; a resize to 1
        // goes serial, leaving the earlier segment's workers parked.
        if resize_to > 1 {
            prop_assert_eq!(pooled.pool_workers(), pooled.effective_threads());
        } else {
            prop_assert!(pooled.pool_workers() <= pooled.len().min(threads));
        }
        let fused = scripted_run(
            &cluster, Drive::Fused, true, threads, Some(resize_to), &utils,
            fiddle_machine, segments,
        );
        // The parallel runs really engaged the batched path (replicas
        // minus at most the fiddled one still group).
        prop_assert!(fused.batched_machines() >= replicated - 1);
        assert_bit_identical(&serial, &pooled, "pool vs serial");
        assert_bit_identical(&serial, &fused, "fused vs serial");
    }
}

/// Fused replay with a recording sink observes exactly the per-tick
/// trajectory: the recorded history is bit-identical to stepping one
/// tick at a time and reading the probed nodes after each tick.
#[test]
fn pool_fused_recorded_history_matches_per_tick_reads() {
    let cluster = presets::validation_cluster(24);
    let mut reference = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
    let mut fused = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
    for s in [&mut reference, &mut fused] {
        s.set_threads(2);
        s.set_utilization("machine3", nodes::CPU, 0.8).unwrap();
        s.set_utilization("machine7", nodes::DISK_PLATTERS, 0.5)
            .unwrap();
    }
    // One batched probe, one solo probe (machine11 leaves the batch).
    fused
        .machine_mut("machine11")
        .unwrap()
        .set_fan_cfm(32.0)
        .unwrap();
    reference
        .machine_mut("machine11")
        .unwrap()
        .set_fan_cfm(32.0)
        .unwrap();
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

/// Regression for the historical oversubscription bug: a tick whose
/// work mixes solo machines and batch chunks must run on exactly the
/// configured number of workers, not `2 × threads`.
#[test]
fn pool_worker_count_stays_at_configured_threads_with_mixed_work() {
    let cluster = presets::validation_cluster(16);
    let mut s = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
    s.set_threads(2);
    // Demote two machines so every tick carries solos *and* chunks.
    s.machine_mut("machine2")
        .unwrap()
        .set_fan_cfm(30.0)
        .unwrap();
    s.machine_mut("machine9")
        .unwrap()
        .set_fan_cfm(28.0)
        .unwrap();
    for _ in 0..4 {
        s.step();
    }
    assert!(s.batched_machines() >= 14, "batched path engaged");
    assert_eq!(
        s.pool_workers(),
        2,
        "solo + chunk work shares one queue on exactly `threads` workers"
    );
    s.step_for(16);
    assert_eq!(s.pool_workers(), 2, "fused spans reuse the same pool");
}

/// Every supported SIMD backend stays bit-identical to serial scalar
/// stepping under pool-parallel execution and fused replay at 1, 2 and
/// 8 threads — the vector sweep may not interact with how chunks are
/// distributed across workers.
#[test]
fn pool_parallel_and_fused_match_on_every_simd_backend() {
    let cluster = presets::validation_cluster(40);
    let utils = [0.9, 0.25, 0.6];
    let run = |backend: Option<SimdBackend>, threads: usize, fused: bool| {
        let mut s = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
        s.set_threads(threads);
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
        // Demote one machine so chunks and solos share the queue.
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
    let serial = run(None, 1, false);
    for backend in SimdBackend::ALL.into_iter().filter(|b| b.supported()) {
        for threads in [1usize, 2, 8] {
            let parallel = run(Some(backend), threads, false);
            assert!(parallel.batched_machines() >= 39);
            assert_bit_identical(
                &serial,
                &parallel,
                &format!("per-tick {} at {threads} threads", backend.name()),
            );
            let fused = run(Some(backend), threads, true);
            assert_bit_identical(
                &serial,
                &fused,
                &format!("fused {} at {threads} threads", backend.name()),
            );
        }
    }
}

/// `set_threads(0)` means "pick for me": the pool sizes itself to the
/// tick's work, capped by the host's available parallelism — and stays
/// serial when the plan holds too little work to pay for a wake-up.
#[test]
fn pool_auto_thread_selection_tracks_available_parallelism() {
    let cluster = presets::validation_cluster(1100);
    let mut s = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
    s.set_threads(0);
    // 1100 solo machines: two workers' worth of per-tick work.
    s.set_batching(false);
    let auto = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(2);
    assert_eq!(s.effective_threads(), auto);
    s.step();
    if auto > 1 {
        assert_eq!(s.pool_workers(), auto);
    } else {
        assert_eq!(s.pool_workers(), 0, "serial ticks never spawn workers");
    }
    // The same room batched is 35 chunks: serial.
    s.set_batching(true);
    s.step();
    assert_eq!(s.effective_threads(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rooms of 1..=70 machines under a random fiddle script (fan,
    /// heat-k, air-fraction, pins, releases — see `common`): pool-
    /// parallel and fused stepping at 1, 2 and 8 threads, with a
    /// checkpoint → restore → continue in the middle, end bit-identical
    /// to serial per-machine stepping that never left its solver.
    #[test]
    fn pool_fiddled_rooms_match_serial_through_fusion_and_restore(
        machines in 1usize..=70,
        subset in 1usize..=24,
        script in script_strategy(36, 24, 0..40),
        utils in proptest::collection::vec(0.0f64..1.0, 3..6),
        threads in prop_oneof![Just(1usize), Just(2usize), Just(8usize)],
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
            threads,
            fused,
            restore_at: Some(restore_at),
            ..Setup::BATCHED
        };
        let pooled = run(&cluster, &utils, &script, 36, drive);
        assert_same_state(
            &serial,
            &pooled,
            &format!("{machines} machines, {threads} threads, fused={fused}, restored at {restore_at}"),
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
fn pool_checkpoint_bytes_ignore_the_batching_path() {
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
    for threads in [1usize, 2] {
        let drive = Setup {
            threads,
            ..Setup::BATCHED
        };
        let batched = run(&cluster, &utils, &script, 200, drive);
        assert!(
            batched.batched_machines() >= machines - 5,
            "only {} of {machines} diverged machines batched",
            batched.batched_machines()
        );
        assert!(
            batched.checkpoint() == per_machine.checkpoint(),
            "checkpoint bytes differ between batched ({threads} threads) and per-machine"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fed span on the pool: rooms of 1..=70 machines under a
    /// random fiddle script (so solo machines and chunks share the
    /// queue), some with table power models, fed dense or sparse inputs
    /// by feeds that may end the span early, at 1, 2 and 3 threads —
    /// tick by tick and span by span equal to a room that took the same
    /// inputs through its solvers and stepped serially (the driver is
    /// `common::FedPlan::check`).
    #[test]
    fn pool_fed_span_matches_set_then_step(
        machines in 1usize..=70,
        subset in 1usize..=24,
        script in script_strategy(24, 24, 0..30),
        tables in proptest::collection::vec((0usize..24, 0usize..24), 0..4),
        utils in proptest::collection::vec(0.0f64..1.0, 3..6),
        seed in any::<u64>(),
        density in prop_oneof![Just(100u64), 0u64..30],
        cut in prop_oneof![Just(0usize), 1usize..9],
        threads in 1usize..=3,
    ) {
        let cluster = presets::recirculating_cluster(machines, 0.25);
        let script: Vec<Event> = script
            .into_iter()
            .map(|e| Event { machine: e.machine % subset, ..e })
            .collect();
        let remodels: Vec<Remodel> = tables
            .into_iter()
            .map(|(tick, machine)| Remodel { tick, machine, kind: 1 })
            .collect();
        FedPlan {
            cluster: &cluster,
            utils: &utils,
            script: &script,
            remodels: &remodels,
            inputs: FedInputs { seed, density },
            ticks: 24,
            cut,
            write_at_cut: seed % 2 == 0,
        }
        .check(Setup { threads, ..Setup::BATCHED });
    }
}

/// Solo machines reprice on the pool too: a pinned machine and one alone
/// in its fan class step as `FusedStep` items beside the chunks, every
/// cell changing every tick, on every backend at 2 and 3 threads.
#[test]
fn pool_fed_solo_machines_reprice_on_the_pool() {
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
        for threads in [2usize, 3] {
            let fed = FedPlan {
                cluster: &cluster,
                utils: &[0.2, 0.9, 0.5],
                script: &script,
                remodels: &[],
                inputs: FedInputs {
                    seed: 5,
                    density: 100,
                },
                ticks: 18,
                cut: 0,
                write_at_cut: false,
            }
            .check(Setup {
                threads,
                backend: Some(backend),
                ..Setup::BATCHED
            });
            assert_eq!(fed.batched_machines(), 38);
            assert_eq!(fed.pool_workers(), threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The room's air mix on the pool: the random rooms and calls of
    /// `common::MixPlan` (live and deferred sinks, solo machines beside
    /// chunks, spans that end early or fail) at 1, 2 and 3 threads, held
    /// to a room stepped one `step()` at a time on one thread.
    #[test]
    fn pool_mix_random_rooms_match_per_tick_stepping(
        room in mix_room_strategy(),
        calls in mix_calls_strategy(),
        threads in 1usize..=3,
    ) {
        MixPlan { room: &room, calls: &calls }.check(Setup { threads, ..Setup::BATCHED });
    }
}

/// Live and deferred sinks with solo machines beside the chunks, on
/// every backend at 2 and 3 threads: a hot aisle recirculating into
/// some inlets, a junction reading a later one, an unread junction, two
/// pinned machines and a forced inlet.
#[test]
fn pool_mix_live_and_deferred_sinks_on_the_pool() {
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
        for threads in [2usize, 3] {
            let fused = MixPlan {
                room: &room,
                calls: &calls,
            }
            .check(Setup {
                threads,
                backend: Some(backend),
                ..Setup::BATCHED
            });
            assert_eq!(fused.batched_machines(), 34);
            assert_eq!(fused.pool_workers(), threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whole-frame feeds on the pool: the random rooms and calls of
    /// `common::FramePlan` (solo machines beside chunks, lanes that
    /// cannot price some of their cells, spans that end early or fail)
    /// at 1, 2 and 3 threads, held to per-cell feeds and to a room
    /// stepped one `step()` at a time on one thread.
    #[test]
    fn pool_frame_random_rooms_match_at_one_to_three_threads(
        room in frame_room_strategy(),
        calls in frame_calls_strategy(),
        seed in any::<u64>(),
        threads in 1usize..=3,
    ) {
        FramePlan { room: &room, calls: &calls, inputs: FedInputs { seed, density: 100 } }
            .check(Setup { threads, ..Setup::BATCHED });
    }
}

/// Solo machines and cells the lanes cannot price on the pool, on every
/// backend at 2 and 3 threads: a pinned machine and one alone in its
/// fan class step as `FusedStep` items beside the chunks while the
/// frame lands on both.
#[test]
fn pool_frame_solo_and_fallback_cells_on_the_pool() {
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
        for threads in [2usize, 3] {
            let framed = FramePlan {
                room: &room,
                calls: &calls,
                inputs: FedInputs {
                    seed: 13,
                    density: 100,
                },
            }
            .check(Setup {
                threads,
                backend: Some(backend),
                ..Setup::BATCHED
            });
            assert_eq!(framed.batched_machines(), 34);
            assert_eq!(framed.pool_workers(), threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `batch_recompose_random_rooms_match_per_machine_and_the_stepped_oracle`
    /// with the batched rooms on the pool: workers compose the kernels
    /// they tick (solo machines recompose on whichever thread runs them).
    #[test]
    fn pool_recompose_random_rooms_match_per_machine_and_the_stepped_oracle(
        room in mix_room_strategy(),
        script in script_strategy(24, 40, 0..24),
        threads in 2usize..=3,
        (machine, pinned, released) in (0usize..40, 1usize..10, 10usize..22),
    ) {
        let mut script = script;
        script.extend(pins_and_releases(machine, pinned, released));
        RecomposePlan { room: &room, utils: &[0.25, 0.75], script: &script, ticks: 24, threads }
            .check();
    }
}
