//! Seeds and damage for the structure-aware decoder fuzzing in
//! `property_suite.rs` (totality and canonical re-encoding) and
//! `step_alloc.rs` (allocation bounds): a valid encoding of every
//! request and reply kind, of `.events` traces and of checkpoints, and
//! the three ways a test damages one — cut it, flip bits in it, or
//! splice another seed's tail onto its head.

#![allow(dead_code)] // each suite uses its own subset

use mercury::fiddle::FiddleCommand;
use mercury::net::proto::{Reply, Request};
use mercury::presets;
use mercury::solver::{ClusterSolver, SolverConfig};
use mercury::trace::{events, UtilizationTrace};
use mercury::units::Celsius;
use telemetry::tsdb::QueryKind;

/// One request of every kind.
pub fn requests() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Scrape,
        Request::TraceDump,
        Request::ReadTemperature {
            machine: "machine1".into(),
            node: "disk_shell".into(),
        },
        Request::ListNodes {
            machine: "machine2".into(),
        },
        Request::UtilizationUpdate {
            machine: "machine1".into(),
            utilizations: vec![("cpu".into(), 0.75), ("disk_platters".into(), 0.1)],
        },
        Request::Fiddle {
            command: FiddleCommand::Temperature {
                machine: "machine1".into(),
                node: "inlet".into(),
                celsius: 38.6,
            },
        },
        Request::SeriesQuery {
            pattern: "temp/*/cpu".into(),
            start: 1_700_000_000_000,
            end: u64::MAX,
            step: 10_000,
            kind: QueryKind::Downsample,
        },
    ]
}

/// One reply of every kind.
pub fn replies() -> Vec<Reply> {
    vec![
        Reply::Ack,
        Reply::Pong,
        Reply::Temperature {
            celsius: 35.25,
            time: 1234.0,
        },
        Reply::Nodes {
            names: vec!["cpu".into(), "cpu_air".into(), "disk_platters".into()],
        },
        Reply::Error {
            message: "unknown node `gpu`".into(),
        },
        Reply::Part {
            index: 1,
            total: 3,
            text: "mercury_solver_ticks_total 42\nmercury_net_datagrams_total 7\n".into(),
        },
    ]
}

/// `.events` encodings of a staircase trace (FULL, HOLD runs and
/// DELTAs), a trace whose every cell changes every tick (FULLs) and one
/// where one cell changes per tick (DELTAs), over 2 or 3 machines of
/// `cpu` and `disk_platters`.
pub fn events_seeds() -> Vec<Vec<u8>> {
    let fleet = |machines: usize, ticks: usize, f: fn(usize, usize) -> f64| {
        let traces: Vec<UtilizationTrace> = (0..machines)
            .map(|m| {
                UtilizationTrace::from_fn(
                    format!("machine{}", m + 1),
                    1.0,
                    vec!["cpu".into(), "disk_platters".into()],
                    ticks,
                    move |t, c| f(t as usize + m, c),
                )
                .unwrap()
            })
            .collect();
        events::encode_to_vec(&traces).unwrap().0
    };
    vec![
        fleet(2, 40, |t, c| {
            if c == 0 {
                (t / 8 % 3) as f64 * 0.3
            } else {
                0.25
            }
        }),
        fleet(2, 6, |t, c| ((t * 7 + c * 3) % 11) as f64 / 10.0),
        fleet(3, 12, |t, c| if c == 0 && t % 2 == 0 { 0.5 } else { 0.1 }),
    ]
}

/// The room every checkpoint seed is taken from and restored into.
pub fn ckpt_room() -> ClusterSolver {
    ClusterSolver::new(&presets::validation_cluster(2), SolverConfig::default()).unwrap()
}

/// Checkpoints of [`ckpt_room`]: fresh, stepped under load, and with a
/// fan fiddle, a pinned node and a forced inlet.
pub fn ckpt_seeds() -> Vec<Vec<u8>> {
    let fresh = ckpt_room();
    let mut stepped = ckpt_room();
    stepped
        .machine_at_mut(0)
        .set_utilization("cpu", 0.9)
        .unwrap();
    stepped.step_for(20);
    let mut fiddled = ckpt_room();
    fiddled.machine_at_mut(1).set_fan_cfm(20.0).unwrap();
    fiddled
        .machine_at_mut(0)
        .force_temperature("cpu_air", Celsius(40.0))
        .unwrap();
    fiddled.force_inlet("machine2", Celsius(30.0)).unwrap();
    fiddled.step_for(5);
    vec![
        fresh.checkpoint(),
        stepped.checkpoint(),
        fiddled.checkpoint(),
    ]
}

/// One way to damage a valid encoding.
#[derive(Debug, Clone)]
pub enum Damage {
    /// Keep this many leading bytes (modulo the length).
    Truncate(usize),
    /// XOR each `(offset, mask)` into the bytes (offsets modulo the
    /// length).
    Flip(Vec<(usize, u8)>),
    /// This seed's head up to the first offset, then another seed's
    /// tail from the second.
    Splice(usize, usize),
}

impl Damage {
    /// `seed` damaged, with `other` as the splice donor.
    pub fn apply(&self, seed: &[u8], other: &[u8]) -> Vec<u8> {
        match self {
            Damage::Truncate(at) => seed[..at % (seed.len() + 1)].to_vec(),
            Damage::Flip(flips) => {
                let mut out = seed.to_vec();
                if !out.is_empty() {
                    for (at, mask) in flips {
                        let i = at % out.len();
                        out[i] ^= mask;
                    }
                }
                out
            }
            Damage::Splice(head, tail) => {
                let mut out = seed[..head % (seed.len() + 1)].to_vec();
                out.extend_from_slice(&other[tail % (other.len() + 1)..]);
                out
            }
        }
    }
}
