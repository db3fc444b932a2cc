//! `mercury-ckpt-v1`: full solver-state checkpoints.
//!
//! A checkpoint captures everything that distinguishes a running
//! [`ClusterSolver`] from a freshly constructed one — node temperatures,
//! utilizations, fiddle state (forced nodes and inlets, fan speeds,
//! retuned heat/air edges), divergence flags, junction and supply
//! temperatures, and the emulated clock — as a compact little-endian
//! blob:
//!
//! ```text
//! magic    8  b"MCCKPT1\0"             (mercury-ckpt-v1)
//! version  u32 = 1
//! time     f64 (bit pattern preserved)
//! supplies u32, then f64 each
//! junctions u32, then f64 each
//! machines u32, then per machine:
//!   forced inlet     u8 flag + f64
//!   name             u16 len + UTF-8
//!   time             f64
//!   ticks_stepped    u64
//!   generated        f64 (J)
//!   fan              f64 (m³/s)
//!   inlet            f64 (°C)
//!   diverged         u8
//!   nodes            u32, then per node: temp f64, utilization f64,
//!                    forced u8 flag + f64
//!   heat edges       u32, then k f64 each   (construction order)
//!   air edges        u32, then fraction f64 each
//! ```
//!
//! Restore targets a solver built from the **same model and config**:
//! structural data (names, edges, kernels, batch plans) is rebuilt
//! deterministically from the model, so the blob only carries mutable
//! state. Every count and name is validated against the target; a
//! mismatch is a hard error, never a silent partial restore.
//!
//! The contract — proven by proptest in `tests/trace_pipeline.rs` — is
//! *bitwise* continuation: stepping a restored solver produces exactly
//! the trajectory the checkpointed solver would have produced, at any
//! thread count, with batching on or off. That is what makes cutting a
//! long replay into parallel time segments sound (kernel double buffers
//! and chunk matrices need no serialization: both are scattered back to
//! solver state at every tick/span boundary, and a restored solver
//! re-gathers them on its next tick).

use crate::codec::{Layout, Reader, Sink, Writer};
use crate::error::Error;
use crate::solver::ClusterSolver;

/// File magic, "mercury-ckpt-v1".
pub const MAGIC: [u8; 8] = *b"MCCKPT1\0";
/// Current checkpoint version.
pub const VERSION: u32 = 1;

/// Serializes the full mutable state of `cluster` to a
/// `mercury-ckpt-v1` blob, allocated once at its exact length.
#[must_use]
pub fn save(cluster: &ClusterSolver) -> Vec<u8> {
    crate::codec::exact(&Blob(cluster))
}

/// The blob layout, run by [`save`] to count and to write.
struct Blob<'a>(&'a ClusterSolver);

impl Layout for Blob<'_> {
    fn write<S: Sink>(&self, w: &mut Writer<S>) {
        w.bytes(&MAGIC);
        w.u32(VERSION);
        self.0.write_ckpt(w);
    }
}

/// Restores a blob produced by [`save`] into `cluster`, which must have
/// been built from the same model and configuration.
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] when the blob is malformed, version-
/// incompatible, or shaped for a different cluster. The target solver
/// is left unusable-but-memory-safe on error; callers should discard it.
pub fn restore(cluster: &mut ClusterSolver, blob: &[u8]) -> Result<(), Error> {
    let mut r = Reader::input(blob, "checkpoint");
    if r.array::<8>("magic")? != MAGIC {
        return Err(r.invalid("magic", "not a mercury-ckpt blob"));
    }
    let version = r.u32("version")?;
    if version != VERSION {
        return Err(r.invalid(
            "version",
            format_args!("unsupported mercury-ckpt version {version} (expected {VERSION})"),
        ));
    }
    cluster.read_ckpt(&mut r)?;
    r.finish()
}

/// Writes an optional `f64` as a `u8` flag and a value, the value 0.0
/// when absent, so a blob's layout never depends on its values.
pub(crate) fn write_opt_f64<S: Sink>(w: &mut Writer<S>, v: Option<f64>) {
    w.u8(u8::from(v.is_some()));
    w.f64(v.unwrap_or(0.0));
}

/// Reads what [`write_opt_f64`] wrote.
pub(crate) fn read_opt_f64(r: &mut Reader<&[u8]>, field: &str) -> Result<Option<f64>, Error> {
    let flag = read_flag(r, field)?;
    let value = r.f64(field)?;
    Ok(flag.then_some(value))
}

/// Reads a `u8` that must be 0 or 1.
pub(crate) fn read_flag(r: &mut Reader<&[u8]>, field: &str) -> Result<bool, Error> {
    match r.u8(field)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(r.invalid(field, format_args!("flag is {other}, not 0/1"))),
    }
}

/// Reads a count and checks it against the target's — the guard that
/// keeps a blob from a different model from silently half-applying.
pub(crate) fn read_count(r: &mut Reader<&[u8]>, field: &str, expected: usize) -> Result<(), Error> {
    let got = r.u32(field)?;
    if got as usize != expected {
        return Err(r.invalid(
            field,
            format_args!("count {got} does not match the target solver's {expected}"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::solver::SolverConfig;

    fn cluster(n: usize) -> ClusterSolver {
        ClusterSolver::new(&presets::validation_cluster(n), SolverConfig::default()).unwrap()
    }

    fn temps(c: &ClusterSolver) -> Vec<u64> {
        (0..c.len())
            .flat_map(|i| {
                c.machine_at(i)
                    .temperatures()
                    .into_iter()
                    .map(|(_, t)| t.0.to_bits())
            })
            .collect()
    }

    #[test]
    fn checkpoint_round_trips_bitwise() {
        let mut a = cluster(3);
        a.machine_at_mut(0).set_utilization("cpu", 0.9).unwrap();
        a.machine_at_mut(1).set_fan_cfm(20.0).unwrap();
        a.force_inlet("machine3", crate::units::Celsius(30.0))
            .unwrap();
        a.step_for(50);
        let blob = save(&a);
        let mut b = cluster(3);
        restore(&mut b, &blob).unwrap();
        assert_eq!(temps(&a), temps(&b));
        assert_eq!(a.time(), b.time());
        // Continuations stay bit-identical.
        a.step_for(25);
        b.step_for(25);
        assert_eq!(temps(&a), temps(&b));
        // And a second checkpoint of the continuation matches too.
        assert_eq!(save(&a), save(&b));
    }

    /// Where machine `m`'s diverged flag sits in a `validation_cluster`
    /// blob (see the layout in the module docs).
    fn diverged_flag_at(c: &ClusterSolver, m: usize) -> usize {
        let model = presets::validation_machine();
        let nodes = model.nodes().len();
        let edges = model.heat_edges().len() + model.air_edges().len();
        let header = 8 + 4 + 8 + (4 + 8) + (4 + 8) + 4;
        let before_flag = |i: usize| 9 + 2 + c.machine_at(i).machine_name().len() + 5 * 8;
        let machine = |i: usize| before_flag(i) + 1 + 4 + nodes * 25 + 2 * 4 + edges * 8;
        header + (0..m).map(machine).sum::<usize>() + before_flag(m)
    }

    #[test]
    fn restore_rejects_an_undiverged_flag_on_retuned_constants() {
        let fiddles: [fn(&mut crate::solver::Solver); 3] = [
            |s| s.set_fan_cfm(30.0).unwrap(),
            |s| s.set_heat_k("cpu", "cpu_air", 0.9).unwrap(),
            |s| s.set_air_fraction("void_air", "exhaust", 0.9).unwrap(),
        ];
        for fiddle in fiddles {
            let mut a = cluster(3);
            fiddle(a.machine_at_mut(1));
            a.step();
            let mut blob = save(&a);
            let flag = diverged_flag_at(&a, 1);
            assert_eq!(blob[flag], 1, "the fiddled machine is diverged");
            restore(&mut cluster(3), &blob).unwrap();
            blob[flag] = 0;
            let err = restore(&mut cluster(3), &blob).unwrap_err();
            assert!(
                matches!(&err, Error::InvalidInput { reason } if reason.contains("undiverged")),
                "{err}"
            );
        }
        // A set flag stays valid with the model's own constants.
        let c = cluster(3);
        let mut blob = save(&c);
        let flag = diverged_flag_at(&c, 2);
        assert_eq!(blob[flag], 0);
        blob[flag] = 1;
        let mut b = cluster(3);
        restore(&mut b, &blob).unwrap();
        assert_eq!(save(&b), blob);
    }

    /// Where machine `m`'s utilization of `node` sits in a
    /// `validation_cluster` blob: after the diverged flag, the node
    /// count, the earlier nodes' records and the node's temperature.
    fn utilization_at(c: &ClusterSolver, m: usize, node: &str) -> usize {
        let i = c.machine_at(m).node_index(node).unwrap();
        diverged_flag_at(c, m) + 1 + 4 + i * 25 + 8
    }

    #[test]
    fn restore_refuses_a_utilization_on_a_node_that_takes_none() {
        use crate::presets::nodes;
        let c = cluster(3);
        let blob = save(&c);
        let with = |node: &str, u: f64| {
            let mut blob = blob.clone();
            let at = utilization_at(&c, 1, node);
            assert_eq!(blob[at..at + 8], 0.0f64.to_le_bytes(), "`{node}` is idle");
            blob[at..at + 8].copy_from_slice(&u.to_le_bytes());
            blob
        };
        // An unmonitored component and an air region take none, so a
        // blob may give them nothing but 0.0.
        for node in [nodes::POWER_SUPPLY, nodes::CPU_AIR] {
            for u in [0.5, -0.0, f64::NAN] {
                let err = restore(&mut cluster(3), &with(node, u)).unwrap_err();
                assert!(
                    matches!(&err, Error::InvalidInput { reason }
                        if reason.contains(&format!("`{node}` takes no utilization"))),
                    "{node} at {u}: {err}"
                );
            }
        }
        // A monitored component takes one, and keeps it through a save.
        let blob = with(nodes::CPU, 0.5);
        let mut b = cluster(3);
        restore(&mut b, &blob).unwrap();
        assert_eq!(
            b.machine_at(1).utilization(nodes::CPU).unwrap().fraction(),
            0.5
        );
        assert_eq!(save(&b), blob);
    }

    #[test]
    fn restore_rejects_mismatched_targets() {
        let a = cluster(2);
        let blob = save(&a);
        let mut wrong_size = cluster(3);
        assert!(restore(&mut wrong_size, &blob).is_err());
        // Corruption: magic, version, truncation, trailing bytes.
        let mut bad = blob.clone();
        bad[0] ^= 0xff;
        assert!(restore(&mut cluster(2), &bad).is_err());
        let mut bad = blob.clone();
        bad[8] = 42;
        assert!(restore(&mut cluster(2), &bad).is_err());
        assert!(restore(&mut cluster(2), &blob[..blob.len() - 3]).is_err());
        let mut bad = blob.clone();
        bad.push(0);
        assert!(restore(&mut cluster(2), &bad).is_err());
    }
}
