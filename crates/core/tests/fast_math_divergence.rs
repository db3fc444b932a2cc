//! Bounded-divergence suite for the fast-math lane mode.
//!
//! Fast-math sweeps ([`ClusterSolver::set_fast_math`]) trade the repo's
//! bit-identity invariant for FMA contraction in the batched chunk
//! kernel. These tests pin down what replaces that invariant: over
//! multi-thousand-tick replays, every node temperature must stay within
//! [`EPSILON_CELSIUS`] of the exact scalar-kernel trajectory — the
//! epsilon whose derivation lives in `DESIGN.md` §"Vectorized lane
//! sweeps". An FMA replaces `round(round(a·b) + c)` with
//! `round(a·b + c)`, perturbing each sub-step by at most one ulp of the
//! operand (~1e-14 °C at room temperatures); the sub-step operator is a
//! convex mix (weights sum to 1 on air nodes, below 1 on components),
//! so perturbations do not amplify and the accumulated gap stays orders
//! of magnitude below the documented bound.
//!
//! Test names contain `fast_math` so CI can run exactly this suite
//! (`cargo test -p mercury --release --test fast_math_divergence`).

mod common;

use common::{run, supported_backends, Event, Fiddle, Setup};
use mercury::presets::{self, nodes};
use mercury::solver::{ClusterSolver, SimdBackend, SolverConfig};
use proptest::prelude::*;

/// The documented fast-math divergence bound: the maximum per-node
/// temperature gap between a fast-math and an exact trajectory over a
/// ≥5000-tick replay. Measured worst case on AVX-512/AVX2/NEON hosts is
/// below 1e-10 °C; the contract leaves two orders of magnitude of
/// margin. Keep in sync with `DESIGN.md` §"Vectorized lane sweeps".
const EPSILON_CELSIUS: f64 = 1e-8;

/// Runs `ticks` ticks of a scripted replay and returns the largest
/// per-node absolute temperature gap between the exact per-machine
/// scalar path and the batched fast-math path on `backend`.
fn max_divergence(
    cluster: &mercury::model::ClusterModel,
    backend: SimdBackend,
    utils: &[f64],
    ticks: usize,
) -> f64 {
    let run = |fast: bool| {
        let mut s = ClusterSolver::new(cluster, SolverConfig::default()).unwrap();
        if fast {
            s.set_simd_backend(backend).unwrap();
            s.set_fast_math(true);
        } else {
            // The exact baseline is the scalar kernel itself: batching
            // off, so every machine steps through its own StepKernel.
            s.set_batching(false);
        }
        let names: Vec<String> = s.machine_names().iter().map(|n| n.to_string()).collect();
        for (i, name) in names.iter().enumerate() {
            let u = utils[i % utils.len()];
            s.set_utilization(name, nodes::CPU, u).unwrap();
            s.set_utilization(name, nodes::DISK_PLATTERS, 1.0 - u)
                .unwrap();
        }
        s.step_for(ticks);
        s
    };
    let exact = run(false);
    let fast = run(true);
    assert!(
        fast.batched_machines() == fast.len(),
        "fast-math run must engage the batched path"
    );
    let mut worst = 0.0f64;
    for m in 0..exact.len() {
        let ta = exact.machine_at(m).temperatures();
        let tb = fast.machine_at(m).temperatures();
        for ((_, x), (_, y)) in ta.iter().zip(&tb) {
            assert!(y.0.is_finite(), "fast-math produced a non-finite value");
            worst = worst.max((x.0 - y.0).abs());
        }
    }
    worst
}

/// Fast-math divergence from the exact scalar kernel stays within the
/// documented epsilon over a long replay on every supported vector
/// backend, at lane counts covering full and remainder chunks.
#[test]
fn fast_math_divergence_bounded_over_5k_tick_replays() {
    let utils = [0.95, 0.1, 0.7, 0.4];
    for machines in [8usize, 33] {
        let cluster = presets::validation_cluster(machines);
        for backend in SimdBackend::ALL.into_iter().filter(|b| b.supported()) {
            let worst = max_divergence(&cluster, backend, &utils, 5000);
            eprintln!(
                "fast-math divergence: {machines} machines, {}: {worst:.3e} °C",
                backend.name()
            );
            assert!(
                worst <= EPSILON_CELSIUS,
                "{} on {machines} machines diverged {worst:.3e} °C (bound {EPSILON_CELSIUS:.0e})",
                backend.name()
            );
        }
    }
}

/// The bound holds for diverged machines too: their per-lane-weight
/// groups run the same contracted sweep, each lane on its own weights.
/// Half the room is fan-commanded into two sub-step classes and one
/// machine's heat k is retuned, before the first tick and again mid-run.
#[test]
fn fast_math_divergence_bounded_with_diverged_machines() {
    let machines = 16;
    let cluster = presets::validation_cluster(machines);
    let utils = [0.95, 0.1, 0.7, 0.4];
    let mut script: Vec<Event> = (0..machines / 2)
        .map(|m| Event {
            tick: 0,
            machine: m,
            fiddle: Fiddle::Fan(if m % 2 == 0 { 0.8 } else { 1.25 } + m as f64 * 1e-4),
        })
        .collect();
    script.push(Event {
        tick: 0,
        machine: 3,
        fiddle: Fiddle::HeatK(0.9),
    });
    script.push(Event {
        tick: 2500,
        machine: 4,
        fiddle: Fiddle::Fan(1.25),
    });
    let exact = run(&cluster, &utils, &script, 5000, Setup::PER_MACHINE);
    for backend in supported_backends() {
        let drive = Setup {
            backend: Some(backend),
            fast_math: true,
            fused: true,
            threads: 2,
            ..Setup::BATCHED
        };
        let fast = run(&cluster, &utils, &script, 5000, drive);
        assert_eq!(fast.batched_machines(), machines, "diverged lanes batched");
        let mut worst = 0.0f64;
        for m in 0..machines {
            let ta = exact.machine_at(m).temperatures();
            let tb = fast.machine_at(m).temperatures();
            for ((_, x), (_, y)) in ta.iter().zip(&tb) {
                assert!(y.0.is_finite(), "fast-math produced a non-finite value");
                worst = worst.max((x.0 - y.0).abs());
            }
        }
        eprintln!(
            "fast-math divergence, diverged room, {}: {worst:.3e} °C",
            backend.name()
        );
        assert!(
            worst <= EPSILON_CELSIUS,
            "{} diverged {worst:.3e} °C (bound {EPSILON_CELSIUS:.0e})",
            backend.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The divergence bound holds on randomized utilization mixes over
    /// 5000-tick replays with the host's best backend.
    #[test]
    fn fast_math_divergence_bounded_on_random_loads(
        utils in proptest::collection::vec(0.0f64..1.0, 3..6),
        machines in 4usize..10,
    ) {
        let cluster = presets::validation_cluster(machines);
        let worst = max_divergence(&cluster, SimdBackend::detect(), &utils, 5000);
        prop_assert!(
            worst <= EPSILON_CELSIUS,
            "diverged {worst:.3e} °C (bound {EPSILON_CELSIUS:.0e})"
        );
    }
}

/// The scalar backend has no FMA to contract: fast-math on scalar is
/// bit-identical to the exact path, and turning fast-math off restores
/// bit-identity on any backend from the next replan.
#[test]
fn fast_math_on_scalar_backend_is_bit_identical() {
    let cluster = presets::validation_cluster(12);
    let run = |configure: &dyn Fn(&mut ClusterSolver)| {
        let mut s = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
        configure(&mut s);
        s.set_utilization("machine1", nodes::CPU, 0.9).unwrap();
        s.set_utilization("machine5", nodes::CPU, 0.3).unwrap();
        s.step_for(200);
        s
    };
    let exact = run(&|s| s.set_batching(false));
    let scalar_fast = run(&|s| {
        s.set_simd_backend(SimdBackend::Scalar).unwrap();
        s.set_fast_math(true);
    });
    assert!(!scalar_fast.fast_math() || scalar_fast.simd_backend() == SimdBackend::Scalar);
    let vector_off = run(&|s| {
        s.set_fast_math(true);
        s.set_fast_math(false);
        assert!(!s.fast_math());
    });
    for (s, context) in [
        (&scalar_fast, "scalar+fast"),
        (&vector_off, "fast toggled off"),
    ] {
        for m in 0..exact.len() {
            let ta = exact.machine_at(m).temperatures();
            let tb = s.machine_at(m).temperatures();
            for ((name, x), (_, y)) in ta.iter().zip(&tb) {
                assert_eq!(
                    x.0.to_bits(),
                    y.0.to_bits(),
                    "{context}: machine {m} node {name}"
                );
            }
        }
    }
}
