//! Equivalence tests for the CSR step kernel.
//!
//! `common::ReferenceSolver` is a line-for-line port of the original
//! scan-based step loop (per-sub-step edge-list scans, division by the
//! heat capacity) built purely on the public API: the stepped-Euler
//! oracle. The property tests drive it and the production [`Solver`] —
//! whose tick is the composition of those sub-steps, one sweep — over
//! random machine models and require agreement within 1e-9 °C per node
//! over a hundred-plus ticks: composing reassociates the same
//! arithmetic, worth rounding only.
//!
//! The `batch_propagator_bounds_*` tests state the two numbers behind
//! the sub-step count: composed-vs-stepped (rounding) per tick and over
//! 3 000 ticks, and stepped-vs-exact per tick (Euler's discretisation,
//! against `common::ExactPropagator`'s matrix exponential).
//!
//! The cluster-side guarantee is stronger: serial and multi-threaded
//! stepping must be *bit-identical*, because machines within a tick are
//! independent.

mod common;

use common::{ExactPropagator, ReferenceSolver, COMPOSED_VS_STEPPED_C};
use mercury::model::{AirKind, MachineModel};
use mercury::presets;
use mercury::solver::{Solver, SolverConfig};
use proptest::prelude::*;

/// A random but always-valid machine: an air chain from inlet to exhaust
/// with optional skip edges, and components heat-tied to random regions.
fn random_machine() -> impl Strategy<Value = (MachineModel, Vec<f64>)> {
    (1usize..5, 1usize..5).prop_flat_map(|(airs, comps)| {
        (
            proptest::collection::vec(0.004f64..0.02, airs..=airs), // region masses
            proptest::collection::vec(0.3f64..0.9, airs + 1..=airs + 1), // chain fractions
            proptest::collection::vec(0.05f64..2.0, comps..=comps), // component masses
            proptest::collection::vec(0.2f64..8.0, comps..=comps),  // heat ks
            proptest::collection::vec(0usize..airs, comps..=comps), // component placement
            proptest::collection::vec(0.0f64..1.0, comps..=comps),  // utilizations
            proptest::collection::vec(3.0f64..60.0, comps..=comps), // max powers
            (20.0f64..80.0, any::<bool>()),                         // fan cfm, skip edges
        )
            .prop_map(
                move |(masses, fracs, cmasses, ks, placement, utils, powers, (cfm, skips))| {
                    let mut b = MachineModel::builder("random");
                    b.inlet("inlet");
                    for (i, m) in masses.iter().enumerate() {
                        b.air_with_mass(format!("a{i}"), *m, AirKind::Internal);
                    }
                    b.exhaust("exhaust");
                    let node_name = |i: usize| {
                        if i == 0 {
                            "inlet".to_string()
                        } else if i <= airs {
                            format!("a{}", i - 1)
                        } else {
                            "exhaust".to_string()
                        }
                    };
                    // Chain inlet -> a0 -> ... -> exhaust. With skip edges
                    // on, each chain hop carries `f` and a skip edge to the
                    // node after next carries most of the remainder, so no
                    // source ever exceeds a fraction sum of 1.
                    for (i, &frac) in fracs.iter().enumerate() {
                        let f = if skips { frac } else { 1.0 };
                        b.air_edge(&node_name(i), &node_name(i + 1), f).unwrap();
                        if skips && i + 2 <= airs + 1 {
                            b.air_edge(&node_name(i), &node_name(i + 2), (1.0 - frac) * 0.9)
                                .unwrap();
                        }
                    }
                    for (c, &cmass) in cmasses.iter().enumerate() {
                        b.component(format!("c{c}"))
                            .mass_kg(cmass)
                            .specific_heat(896.0)
                            .power_range(powers[c] * 0.2, powers[c]);
                        b.heat_edge(&format!("c{c}"), &format!("a{}", placement[c]), ks[c])
                            .unwrap();
                    }
                    b.fan_cfm(cfm).inlet_temperature_c(21.6);
                    (b.build().unwrap(), utils)
                },
            )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The kernel-based solver agrees with the scan-based reference to
    /// 1e-9 °C on every node, over 120 ticks of a random machine.
    #[test]
    fn kernel_matches_reference_stepper((model, utils) in random_machine()) {
        let mut reference = ReferenceSolver::new(&model);
        let mut solver = Solver::new(&model, SolverConfig::default()).unwrap();
        for (c, u) in utils.iter().enumerate() {
            let name = format!("c{c}");
            reference.set_utilization(&name, *u);
            solver.set_utilization(&name, *u).unwrap();
        }
        for tick in 0..120 {
            reference.step();
            solver.step();
            for (i, name) in reference.names.iter().enumerate() {
                let got = solver.temperature(name).unwrap().0;
                let want = reference.temp[i];
                prop_assert!(
                    (got - want).abs() <= COMPOSED_VS_STEPPED_C,
                    "tick {tick}, node {name}: kernel {got} vs reference {want}"
                );
            }
        }
    }

    /// Changing utilization mid-run keeps the two steppers in agreement
    /// (the kernel re-prices its per-tick power inputs every step).
    #[test]
    fn kernel_tracks_utilization_changes((model, utils) in random_machine(), flip in 1usize..100) {
        let mut reference = ReferenceSolver::new(&model);
        let mut solver = Solver::new(&model, SolverConfig::default()).unwrap();
        for tick in 0..100 {
            if tick == flip {
                for (c, u) in utils.iter().enumerate() {
                    let name = format!("c{c}");
                    reference.set_utilization(&name, *u);
                    solver.set_utilization(&name, *u).unwrap();
                }
            }
            reference.step();
            solver.step();
        }
        for (i, name) in reference.names.iter().enumerate() {
            let got = solver.temperature(name).unwrap().0;
            prop_assert!(
                (got - reference.temp[i]).abs() <= COMPOSED_VS_STEPPED_C,
                "node {name}: kernel {got} vs reference {}", reference.temp[i]
            );
        }
    }
}

/// The paper's Table 1 machine, end to end: kernel vs reference.
#[test]
fn validation_machine_matches_reference() {
    let model = presets::validation_machine();
    let mut reference = ReferenceSolver::new(&model);
    let mut solver = Solver::new(&model, SolverConfig::default()).unwrap();
    for name in model
        .nodes()
        .iter()
        .filter_map(|n| n.as_component().map(|c| c.name.clone()))
    {
        if solver.set_utilization(&name, 0.7).is_ok() {
            reference.set_utilization(&name, 0.7);
        }
    }
    for _ in 0..300 {
        reference.step();
        solver.step();
    }
    for (i, name) in reference.names.iter().enumerate() {
        let got = solver.temperature(name).unwrap().0;
        let want = reference.temp[i];
        assert!(
            (got - want).abs() <= COMPOSED_VS_STEPPED_C,
            "node {name}: kernel {got} vs reference {want}"
        );
    }
}

// --- the propagator bounds ------------------------------------------------

/// Ticks each bound is measured over.
const BOUND_TICKS: usize = 3000;

/// How far one stepped-Euler tick may land from the exact propagator on
/// any node, °C, at the default stability limit: Euler's discretisation.
/// Measured at 2.7e-4 (Table 1), 3.5e-4 (Freon) and at most 8.0e-4
/// (random machines) — three orders below the model's own 1.08 °C
/// error against the reference plant.
const EULER_VS_EXACT_C: f64 = 2e-3;

/// The gaps one machine shows over [`BOUND_TICKS`] ticks whose
/// utilizations move every 100 ticks, each the largest over every node.
#[derive(Debug, Clone, Copy, Default)]
struct Bounds {
    /// Composed vs stepped, one tick from the same state.
    composed_tick: f64,
    /// Composed vs stepped, each run free from the start.
    composed_run: f64,
    /// Stepped vs exact, one tick from the same state.
    euler_tick: f64,
}

fn propagator_bounds(model: &MachineModel) -> Bounds {
    let cfg = SolverConfig::default();
    let mut solver = Solver::new(model, cfg.clone()).unwrap();
    let mut free = ReferenceSolver::new(model);
    let exact = ExactPropagator::new(model, cfg.dt);
    let monitored: Vec<String> = solver
        .monitored_components()
        .iter()
        .map(|c| c.to_string())
        .collect();
    let temps = |s: &Solver| -> Vec<f64> { s.temperatures().iter().map(|(_, t)| t.0).collect() };
    let gap = |a: &[f64], b: &[f64]| {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    };
    let mut bounds = Bounds::default();
    for tick in 0..BOUND_TICKS {
        if tick % 100 == 0 {
            for (c, name) in monitored.iter().enumerate() {
                let u = ((tick / 100) as f64 * 0.37 + c as f64 * 0.19) % 1.0;
                solver.set_utilization(name, u).unwrap();
                free.set_utilization(name, u);
            }
        }
        let start = temps(&solver);
        let mut stepped = free.clone();
        stepped.temp.clone_from(&start);
        stepped.step();
        let exact_end = exact.step(&start, &free.utilizations());
        solver.step();
        free.step();
        bounds.composed_tick = bounds
            .composed_tick
            .max(gap(&temps(&solver), &stepped.temp));
        bounds.euler_tick = bounds.euler_tick.max(gap(&stepped.temp, &exact_end));
    }
    bounds.composed_run = gap(&temps(&solver), &free.temp);
    bounds
}

/// Prints a machine's bounds and holds them to the stated limits.
fn assert_bounds(machine: &str, bounds: Bounds) {
    println!(
        "{machine}: composed vs stepped {:.1e} °C per tick, {:.1e} °C after {BOUND_TICKS} \
         ticks; stepped vs exact {:.1e} °C per tick",
        bounds.composed_tick, bounds.composed_run, bounds.euler_tick
    );
    assert!(
        bounds.composed_tick <= COMPOSED_VS_STEPPED_C,
        "{machine}: {bounds:?}"
    );
    assert!(
        bounds.composed_run <= COMPOSED_VS_STEPPED_C,
        "{machine}: {bounds:?}"
    );
    assert!(
        bounds.euler_tick <= EULER_VS_EXACT_C,
        "{machine}: {bounds:?}"
    );
}

/// The paper's Table 1 machine: the bounds DESIGN §3 quotes.
#[test]
fn batch_propagator_bounds_validation_machine() {
    assert_bounds(
        "validation_machine",
        propagator_bounds(&presets::validation_machine()),
    );
}

/// The Freon cluster's server.
#[test]
fn batch_propagator_bounds_freon_machine() {
    assert_bounds(
        "freon_machine",
        propagator_bounds(&presets::freon_machine()),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random machines: air chains with skip edges, components on random
    /// regions, fans from 20 to 80 cfm.
    #[test]
    fn batch_propagator_bounds_random_machines((model, _) in random_machine()) {
        assert_bounds("random machine", propagator_bounds(&model));
    }
}
