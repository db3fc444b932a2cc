//! End-to-end tests of the binary trace pipeline: CSV ↔ `.events`
//! round-trips under the quantization contract, strict decode rejection,
//! out-of-core replay equivalence (stream vs hand-rolled per-tick
//! feeding) with flat decode memory, and checkpointed
//! time-segment replay held bitwise-identical to the serial run at
//! several thread counts.

use mercury::presets;
use mercury::solver::{ClusterSolver, SolverConfig};
use mercury::trace::events::{self, quantize, QUANT_BOUND};
use mercury::trace::stream::{peak_rss_bytes, ClusterBinding, EventsStream, ReplayMetrics};
use mercury::trace::UtilizationTrace;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monitored components of the Table 1 validation server, in a fixed
/// order shared by every trace in these tests.
const COMPONENTS: [&str; 2] = ["cpu", "disk_platters"];

fn unique_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "mercury-pipeline-{}-{n}-{tag}.events",
        std::process::id()
    ))
}

/// A scope guard that deletes the file on drop, pass or fail.
struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn write_events(traces: &[UtilizationTrace], tag: &str) -> (PathBuf, Cleanup) {
    let (bytes, _) = events::encode_to_vec(traces).unwrap();
    let path = unique_path(tag);
    std::fs::write(&path, bytes).unwrap();
    (path.clone(), Cleanup(path))
}

/// Builds one trace per machine over [`COMPONENTS`] from raw fractions.
/// `rows[t][m * COMPONENTS.len() + c]` is machine `m`, component `c` at
/// tick `t`.
fn traces_from_rows(machines: usize, rows: &[Vec<f64>]) -> Vec<UtilizationTrace> {
    (0..machines)
        .map(|m| {
            let mut t = UtilizationTrace::new(
                format!("machine{}", m + 1),
                1.0,
                COMPONENTS.iter().map(|c| c.to_string()).collect(),
            )
            .unwrap();
            for row in rows {
                let w = COMPONENTS.len();
                t.push_row(&row[m * w..(m + 1) * w]).unwrap();
            }
            t
        })
        .collect()
}

/// A blocky random workload: utilizations change only at segment
/// boundaries so the encoder has real HOLD runs to find.
fn blocky_rows() -> impl Strategy<Value = (usize, Vec<Vec<f64>>)> {
    (2usize..5, 1usize..6).prop_flat_map(|(machines, blocks)| {
        let width = machines * COMPONENTS.len();
        (
            Just(machines),
            proptest::collection::vec(
                (
                    proptest::collection::vec(0.0f64..1.0, width..=width),
                    1usize..12,
                ),
                blocks..=blocks,
            ),
        )
            .prop_map(|(machines, blocks)| {
                let rows = blocks
                    .into_iter()
                    .flat_map(|(row, repeat)| std::iter::repeat_n(row, repeat))
                    .collect::<Vec<_>>();
                (machines, rows)
            })
    })
}

fn cluster(n: usize) -> ClusterSolver {
    ClusterSolver::new(&presets::validation_cluster(n), SolverConfig::default())
        .expect("preset cluster builds")
}

fn temps_bits(c: &ClusterSolver) -> Vec<u64> {
    (0..c.len())
        .flat_map(|i| {
            c.machine_at(i)
                .temperatures()
                .into_iter()
                .map(|(_, t)| t.0.to_bits())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CSV ↔ `.events` ↔ CSV: one pass through the quantizer, then every
    /// further conversion is bit-exact, and re-encoding a decode gives
    /// back the identical byte stream (the encoder is canonical).
    #[test]
    fn csv_events_csv_round_trip((machines, rows) in blocky_rows()) {
        let originals = traces_from_rows(machines, &rows);
        let (bytes, stats) = events::encode_to_vec(&originals).unwrap();
        prop_assert_eq!(stats.ticks as usize, rows.len());
        let decoded = events::decode(&bytes).unwrap();
        prop_assert_eq!(decoded.len(), originals.len());

        for (original, roundtrip) in originals.iter().zip(&decoded) {
            prop_assert_eq!(original.machine(), roundtrip.machine());
            prop_assert_eq!(original.len(), roundtrip.len());
            for t in 0..original.len() {
                let time = mercury::units::Seconds(t as f64);
                let a = original.at(time).unwrap();
                let b = roundtrip.at(time).unwrap();
                for (x, y) in a.iter().zip(b) {
                    // The one lossy step: off-grid values move by at most
                    // the quantization bound...
                    prop_assert!((x.fraction() - y.fraction()).abs() <= QUANT_BOUND);
                    // ...and land exactly on the dequantized grid.
                    prop_assert_eq!(
                        y.fraction().to_bits(),
                        events::dequantize(quantize(x.fraction())).to_bits()
                    );
                }
            }
        }

        // Canonical encoder: decode → encode is the identity on bytes.
        let (bytes2, _) = events::encode_to_vec(&decoded).unwrap();
        prop_assert_eq!(&bytes, &bytes2);

        // CSV is exact from here on: decoded → CSV → parsed is bit-equal.
        for trace in &decoded {
            let mut csv = Vec::new();
            trace.write_csv(&mut csv).unwrap();
            let parsed = UtilizationTrace::read_csv_from(&csv[..]).unwrap();
            prop_assert_eq!(parsed.machine(), trace.machine());
            prop_assert_eq!(parsed.len(), trace.len());
            for t in 0..trace.len() {
                let time = mercury::units::Seconds(t as f64);
                let a = trace.at(time).unwrap();
                let b = parsed.at(time).unwrap();
                for (x, y) in a.iter().zip(b) {
                    prop_assert_eq!(x.fraction().to_bits(), y.fraction().to_bits());
                }
            }
        }

        // And the `.events` encoding of the CSV round-trip is again the
        // same byte stream.
        let reparsed: Vec<_> = decoded
            .iter()
            .map(|t| {
                let mut csv = Vec::new();
                t.write_csv(&mut csv).unwrap();
                UtilizationTrace::read_csv_from(&csv[..]).unwrap()
            })
            .collect();
        let (bytes3, _) = events::encode_to_vec(&reparsed).unwrap();
        prop_assert_eq!(&bytes, &bytes3);
    }
}

#[test]
fn stream_rejects_corrupt_files() {
    let rows: Vec<Vec<f64>> = (0..20)
        .map(|t| vec![0.5, 0.25, (t / 7) as f64 * 0.1, 0.75])
        .collect();
    let traces = traces_from_rows(2, &rows);
    let (bytes, _) = events::encode_to_vec(&traces).unwrap();

    // Truncations must fail at open (header) or during replay (records),
    // never succeed silently.
    for cut in [4usize, 20, bytes.len() / 2, bytes.len() - 1] {
        let path = unique_path("corrupt");
        let _guard = Cleanup(path.clone());
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let outcome = EventsStream::open(&path).and_then(|mut s| {
            let mut c = cluster(2);
            let binding = ClusterBinding::new(s.header(), &c)?;
            s.replay(&binding, &mut c).map(|_| ())
        });
        assert!(outcome.is_err(), "truncation at {cut} bytes was accepted");
    }

    // Bad magic and bad version fail at open.
    for (offset, value) in [(0usize, 0xffu8), (8, 99)] {
        let mut bad = bytes.clone();
        bad[offset] ^= value;
        let path = unique_path("corrupt");
        let _guard = Cleanup(path.clone());
        std::fs::write(&path, &bad).unwrap();
        assert!(EventsStream::open(&path).is_err());
    }

    // A header naming one machine (or component) twice fails at open:
    // the two rows would bind to one machine. Each case rewrites the
    // second name of a table (its u16 length and bytes) into the first.
    for (name, first) in [
        (&b"machine2"[..], &b"machine1"[..]),
        (b"disk_platters", b"cpu"),
    ] {
        let at = bytes
            .windows(name.len())
            .position(|w| w == name)
            .expect("name in the header");
        let mut twice = bytes.clone();
        twice[at - 2..at].copy_from_slice(&(first.len() as u16).to_le_bytes());
        twice.splice(at..at + name.len(), first.iter().copied());
        let header = events::EventsHeader::parse(&twice);
        assert!(
            matches!(&header, Err(mercury::Error::InvalidInput { reason }) if reason.contains("duplicate")),
            "{header:?}"
        );
        let path = unique_path("corrupt");
        let _guard = Cleanup(path.clone());
        std::fs::write(&path, &twice).unwrap();
        assert!(EventsStream::open(&path).is_err());
    }

    // Trailing garbage after the declared tick count fails during replay.
    let mut padded = bytes.clone();
    padded.extend_from_slice(&[0x03, 1, 0, 0, 0]); // one extra HOLD tick
    let path = unique_path("corrupt");
    let _guard = Cleanup(path.clone());
    std::fs::write(&path, &padded).unwrap();
    let mut s = EventsStream::open(&path).unwrap();
    let mut c = cluster(2);
    let binding = ClusterBinding::new(s.header(), &c).unwrap();
    assert!(s.replay(&binding, &mut c).is_err());
}

#[test]
fn binding_validates_shape_and_interval() {
    let rows = vec![vec![0.5, 0.5]; 4];
    let traces = traces_from_rows(1, &rows);
    let (bytes, _) = events::encode_to_vec(&traces).unwrap();
    let header = events::EventsHeader::parse(&bytes).unwrap().0;

    // Unknown machine name.
    let two = cluster(2);
    assert!(ClusterBinding::new(&header, &two).is_ok());
    let mut renamed = header.clone();
    renamed.machines[0] = "no-such-machine".into();
    assert!(ClusterBinding::new(&renamed, &two).is_err());

    // Unmonitored component and unknown node.
    let mut shell = header.clone();
    shell.components[0] = "disk_shell".into();
    assert!(ClusterBinding::new(&shell, &two).is_err());
    let mut ghost = header.clone();
    ghost.components[0] = "no-such-node".into();
    assert!(ClusterBinding::new(&ghost, &two).is_err());

    // Interval must match dt bit-for-bit.
    let mut coarse = header;
    coarse.interval_s = 2.0;
    assert!(ClusterBinding::new(&coarse, &two).is_err());
}

/// A header that lists the room's machines in another order binds each
/// row to the machine it names (through the cluster's name map, not by
/// position), and what a binding rejects is unchanged.
#[test]
fn binding_resolves_shuffled_headers_by_name() {
    const ROOM: usize = 7;
    let order = [3usize, 0, 6, 1, 5, 2, 4];
    let level = |m: usize| 0.1 + 0.1 * m as f64;
    let traces: Vec<UtilizationTrace> = order
        .iter()
        .map(|&m| {
            let mut t = UtilizationTrace::new(
                format!("machine{}", m + 1),
                1.0,
                COMPONENTS.iter().map(|c| c.to_string()).collect(),
            )
            .unwrap();
            for _ in 0..3 {
                t.push_row(&[level(m), 1.0 - level(m)]).unwrap();
            }
            t
        })
        .collect();
    let (path, _guard) = write_events(&traces, "shuffled");
    let mut stream = EventsStream::open(&path).unwrap();
    let mut c = cluster(ROOM);
    let binding = ClusterBinding::new(stream.header(), &c).unwrap();
    stream.replay(&binding, &mut c).unwrap();
    for m in 0..ROOM {
        let name = format!("machine{}", m + 1);
        assert_eq!(c.machine_position(&name), Some(m));
        let solver = c.machine(&name).unwrap();
        assert_eq!(
            solver.utilization("cpu").unwrap().fraction().to_bits(),
            events::dequantize(quantize(level(m))).to_bits(),
            "{name} took another machine's row"
        );
        assert_eq!(
            solver
                .utilization("disk_platters")
                .unwrap()
                .fraction()
                .to_bits(),
            events::dequantize(quantize(1.0 - level(m))).to_bits(),
        );
    }
    assert_eq!(c.machine_position("machine8"), None);

    let header = stream.header().clone();
    let mut renamed = header.clone();
    renamed.machines[4] = "no-such-machine".into();
    assert!(matches!(
        ClusterBinding::new(&renamed, &c),
        Err(mercury::Error::UnknownMachine { name }) if name == "no-such-machine"
    ));
    let mut shell = header.clone();
    shell.components[1] = "disk_shell".into();
    assert!(matches!(
        ClusterBinding::new(&shell, &c),
        Err(mercury::Error::InvalidInput { reason })
            if reason == "`disk_shell` on `machine4` is not a monitored component"
    ));
    let mut ghost = header;
    ghost.components[0] = "no-such-node".into();
    assert!(matches!(
        ClusterBinding::new(&ghost, &c),
        Err(mercury::Error::UnknownNode { name }) if name == "no-such-node"
    ));
}

/// A decode error in the middle of a replay — a DELTA record cut short,
/// a tag that is none of the three — stops the one fed span the replay
/// runs in at a tick boundary: `replay_ticks` reports `InvalidInput`,
/// the cluster's clock reads the ticks actually stepped, and its
/// checkpoint equals that of a per-tick replay stopped at the same tick.
#[test]
fn replay_decode_errors_leave_the_cluster_at_a_tick_boundary() {
    const ROOM: usize = 40; // two chunks
    const TICKS: usize = 24;
    let cells = ROOM * COMPONENTS.len();
    // A quarter of the cells change on every tick: one DELTA per tick.
    let mut row = vec![0.5; cells];
    let rows: Vec<Vec<f64>> = (0..TICKS)
        .map(|t| {
            for (i, cell) in row.iter_mut().enumerate() {
                if (i + t) % 4 == 0 {
                    *cell = ((i * 7 + t * 13) % 101) as f64 / 100.0;
                }
            }
            row.clone()
        })
        .collect();
    let traces = traces_from_rows(ROOM, &rows);
    let (bytes, stats) = events::encode_to_vec(&traces).unwrap();
    assert_eq!(stats.delta_frames as usize, TICKS - 1, "one DELTA per tick");

    // Byte offset of every record (one per tick: nothing holds).
    let header_len = events::EventsHeader::parse(&bytes).unwrap().1;
    let mut starts = Vec::new();
    let mut at = header_len;
    while at < bytes.len() {
        starts.push(at);
        at += match bytes[at] {
            0x01 => 1 + 2 * cells,
            0x02 => {
                let n = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap());
                5 + 6 * n as usize
            }
            other => panic!("unexpected record tag {other:#04x}"),
        };
    }
    assert_eq!(starts.len(), TICKS);

    let mut truncated = bytes[..starts[13] + 5 + 6 * 3 + 2].to_vec();
    truncated.shrink_to_fit();
    let mut bad_tag = bytes.clone();
    bad_tag[starts[17]] = 0x7f;

    let decoded = events::decode(&bytes).unwrap();
    let reference_at = |ticks: usize| {
        let mut c = cluster(ROOM);
        for t in 0..ticks {
            for trace in &decoded {
                let row = trace.at(mercury::units::Seconds(t as f64)).unwrap();
                let machine = c.machine_mut(trace.machine()).unwrap();
                for (component, u) in COMPONENTS.iter().zip(row) {
                    machine.set_utilization(component, *u).unwrap();
                }
            }
            c.step();
        }
        c
    };

    for (what, corrupt, good_ticks) in [("truncated", &truncated, 13), ("bad tag", &bad_tag, 17)] {
        let path = unique_path("midspan");
        let _guard = Cleanup(path.clone());
        std::fs::write(&path, corrupt).unwrap();
        let reference = reference_at(good_ticks);
        let mut stream = EventsStream::open(&path).unwrap();
        let mut c = cluster(ROOM);
        let binding = ClusterBinding::new(stream.header(), &c).unwrap();
        let err = stream.replay(&binding, &mut c).unwrap_err();
        assert!(
            matches!(err, mercury::Error::InvalidInput { .. }),
            "{what}: {err}"
        );
        assert_eq!(c.batched_machines(), ROOM, "the span ran in the lanes");
        assert_eq!(c.time().0, good_ticks as f64, "{what}: clock");
        assert_eq!(stream.position(), good_ticks as u64, "{what}");
        assert!(
            c.checkpoint() == reference.checkpoint(),
            "{what}: state is not that of tick {good_ticks}"
        );
    }
}

/// The replay core: stream replay and a hand-rolled per-tick
/// `set_utilization` loop over the decoded trace produce
/// bitwise-identical trajectories, and the stream's decode memory stays
/// flat from the first tick to the last.
#[test]
fn stream_replay_matches_per_tick_feeding() {
    let rows: Vec<Vec<f64>> = (0..240)
        .map(|t| {
            let phase = t / 40; // six 40-tick blocks → real HOLD spans
            vec![
                0.1 * phase as f64,
                0.9 - 0.1 * phase as f64,
                if phase % 2 == 0 { 1.0 } else { 0.2 },
                0.5,
                0.33,
                0.66,
            ]
        })
        .collect();
    let traces = traces_from_rows(3, &rows);
    let (path, _guard) = write_events(&traces, "equiv");

    // Ground truth: decode in RAM and feed tick by tick.
    let mut truth = cluster(3);
    let decoded = events::decode(&std::fs::read(&path).unwrap()).unwrap();
    for t in 0..rows.len() {
        for trace in &decoded {
            let row = trace.at(mercury::units::Seconds(t as f64)).unwrap();
            let row: Vec<f64> = row.iter().map(|u| u.fraction()).collect();
            for (c, component) in COMPONENTS.iter().enumerate() {
                truth
                    .machine_mut(trace.machine())
                    .unwrap()
                    .set_utilization(component, row[c])
                    .unwrap();
            }
        }
        truth.step_for(1);
    }

    let mut stream = EventsStream::open(&path).unwrap();
    let mut c = cluster(3);
    let binding = ClusterBinding::new(stream.header(), &c).unwrap();
    let flat = stream.memory_bytes();
    // Replay in uneven chunks so spans split across calls.
    let mut done = 0u64;
    for chunk in [7u64, 64, 1, 500] {
        let stats = stream.replay_ticks(&binding, &mut c, chunk).unwrap();
        done += stats.ticks;
        assert_eq!(stream.memory_bytes(), flat, "decode memory grew mid-replay");
    }
    assert_eq!(done, rows.len() as u64);
    assert_eq!(stream.position(), rows.len() as u64);
    assert_eq!(
        temps_bits(&truth),
        temps_bits(&c),
        "replay diverged from per-tick feeding"
    );
    assert_eq!(c.time(), truth.time());
}

/// `mercury_replay_peak_rss_bytes` is read from procfs when a replay
/// call reaches the end of the trace, not on every call: a 10-tick call
/// mid-trace leaves the gauge as it was.
#[test]
fn replay_reads_peak_rss_at_the_end_of_the_trace_only() {
    let rows: Vec<Vec<f64>> = (0..60)
        .map(|t| vec![(t % 7) as f64 / 7.0, 0.5, 0.25, (t % 3) as f64 / 3.0])
        .collect();
    let (path, _guard) = write_events(&traces_from_rows(2, &rows), "rss");
    let mut stream = EventsStream::open(&path).unwrap();
    let metrics = ReplayMetrics::new();
    stream.set_metrics(metrics.clone());
    let mut c = cluster(2);
    let binding = ClusterBinding::new(stream.header(), &c).unwrap();

    metrics.peak_rss.set(1.0);
    stream.replay_ticks(&binding, &mut c, 10).unwrap();
    assert_eq!(stream.position(), 10);
    assert_eq!(metrics.peak_rss.get(), 1.0, "mid-trace call read procfs");

    stream.replay(&binding, &mut c).unwrap();
    assert_eq!(stream.position(), rows.len() as u64);
    if let Some(rss) = peak_rss_bytes() {
        let gauge = metrics.peak_rss.get();
        assert!(
            gauge > 1.0 && gauge <= rss as f64,
            "gauge {gauge}, VmHWM {rss}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Checkpointed time-segment replay is bitwise-identical to the
    /// uninterrupted serial run: cut the trace at
    /// random boundaries, checkpoint the serial run at each cut, then
    /// replay every segment from its checkpoint in parallel workers and
    /// compare final (and per-boundary) state bit for bit.
    #[test]
    fn segmented_checkpoint_replay_is_bit_identical(
        (machines, rows) in blocky_rows(),
        cut_seed in 0usize..97,
    ) {
        let traces = traces_from_rows(machines, &rows);
        let (path, _guard) = write_events(&traces, "segments");
        let ticks = rows.len() as u64;

        // Deterministic pseudo-random cut points inside (0, ticks).
        let mut cuts: Vec<u64> = (1..ticks)
            .filter(|t| (t * 31 + cut_seed as u64).is_multiple_of(5))
            .take(3)
            .collect();
        cuts.dedup();
        let mut bounds = vec![0u64];
        bounds.append(&mut cuts);
        bounds.push(ticks);

        // Serial reference run, checkpointing at every boundary.
        let mut serial = cluster(machines);
        let mut stream = EventsStream::open(&path).unwrap();
        let binding = ClusterBinding::new(stream.header(), &serial).unwrap();
        let mut blobs = vec![serial.checkpoint()];
        for pair in bounds.windows(2) {
            stream
                .replay_ticks(&binding, &mut serial, pair[1] - pair[0])
                .unwrap();
            blobs.push(serial.checkpoint());
        }

        // Parallel segment workers: restore blob i, seek, replay the
        // segment, and return the end-of-segment checkpoint.
        let ends: Vec<Vec<u8>> = std::thread::scope(|scope| {
            let handles: Vec<_> = bounds
                .windows(2)
                .enumerate()
                .map(|(i, pair)| {
                    let (start, end) = (pair[0], pair[1]);
                    let blob = &blobs[i];
                    let path = &path;
                    scope.spawn(move || {
                        let mut c = cluster(machines);
                        c.restore_checkpoint(blob).unwrap();
                        let mut s = EventsStream::open(path).unwrap();
                        let b = ClusterBinding::new(s.header(), &c).unwrap();
                        s.seek(start).unwrap();
                        let stats = s.replay_ticks(&b, &mut c, end - start).unwrap();
                        assert_eq!(stats.ticks, end - start);
                        c.checkpoint()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for (i, end_blob) in ends.iter().enumerate() {
            prop_assert!(
                end_blob == &blobs[i + 1],
                "segment {} of {} diverged",
                i,
                bounds.len() - 1
            );
        }
    }
}
