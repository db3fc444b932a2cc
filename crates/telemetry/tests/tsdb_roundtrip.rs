//! Property tests for the `telemetry::tsdb` compression layer: the
//! Gorilla-style encoding must round-trip arbitrary samples bit-exactly
//! (NaN payloads, infinities, denormals, irregular timestamps), and the
//! block rings must honor their configured memory bound.

use proptest::prelude::*;
use telemetry::tsdb::{Tsdb, TsdbConfig};

/// Value strategy biased toward the awkward corners of f64: raw bit
/// patterns (hits NaN payloads, denormals, infinities by construction)
/// mixed with plausible temperatures and exact specials.
fn value() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        -100.0f64..150.0,
        (0u64..7).prop_map(|i| {
            [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -0.0,
                f64::MIN_POSITIVE / 1024.0, // denormal
                f64::MAX,
                f64::MIN,
            ][i as usize]
        }),
    ]
}

/// Non-decreasing timestamp deltas, heavy on the small regular steps
/// the delta-of-delta classes target but with occasional huge jumps.
fn deltas() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        prop_oneof![
            0u64..3,
            1u64..2000,
            1u64..1_000_000_000,
            any::<u64>().prop_map(|d| d >> 8),
        ],
        1..600,
    )
}

fn assert_bit_exact(expected: &[(u64, f64)], got: &[(u64, f64)]) -> Result<(), TestCaseError> {
    prop_assert_eq!(expected.len(), got.len());
    for (i, (&(t, v), &(gt, gv))) in expected.iter().zip(got.iter()).enumerate() {
        prop_assert!(t == gt, "timestamp {} diverged: {} vs {}", i, t, gt);
        prop_assert!(
            v.to_bits() == gv.to_bits(),
            "value bits diverged at sample {}: {:#x} vs {:#x}",
            i,
            v.to_bits(),
            gv.to_bits()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary samples survive append → seal → decode with identical
    /// bits, across block boundaries and in the open block.
    #[test]
    fn roundtrip_is_bit_exact(
        t0 in any::<u64>().prop_map(|t| t >> 1),
        steps in deltas(),
        values in proptest::collection::vec(value(), 600),
        samples_per_block in 2u32..100,
    ) {
        let db = Tsdb::new(TsdbConfig {
            samples_per_block,
            max_blocks_per_series: usize::MAX,
        });
        let mut expected = Vec::with_capacity(steps.len());
        let mut t = t0;
        for (delta, v) in steps.iter().zip(values.iter()) {
            t = t.saturating_add(*delta);
            expected.push((t, *v));
            prop_assert!(db.append("s", t, *v), "in-order append refused");
        }
        let got = db.query_raw("s", 0, u64::MAX);
        assert_bit_exact(&expected, &got)?;
    }

    /// Range queries return exactly the samples inside [start, end].
    #[test]
    fn range_queries_are_exact(
        steps in deltas(),
        values in proptest::collection::vec(value(), 600),
        lo in 0u64..2000,
        span in 0u64..4000,
    ) {
        let db = Tsdb::new(TsdbConfig {
            samples_per_block: 16,
            max_blocks_per_series: usize::MAX,
        });
        let mut expected = Vec::new();
        let mut t = 0u64;
        for (delta, v) in steps.iter().zip(values.iter()) {
            t = t.saturating_add(*delta % 50);
            expected.push((t, *v));
            db.append("s", t, *v);
        }
        let hi = lo.saturating_add(span);
        let want: Vec<(u64, f64)> = expected
            .iter()
            .copied()
            .filter(|&(t, _)| t >= lo && t <= hi)
            .collect();
        let got = db.query_raw("s", lo, hi);
        assert_bit_exact(&want, &got)?;
    }

    /// The ring bound holds for any block sizing: sealed blocks per
    /// series never exceed the configured maximum.
    #[test]
    fn eviction_respects_block_bound(
        samples_per_block in 2u32..40,
        max_blocks in 1usize..8,
        count in 100u64..2000,
    ) {
        let db = Tsdb::new(TsdbConfig {
            samples_per_block,
            max_blocks_per_series: max_blocks,
        });
        for t in 0..count {
            db.append("s", t, (t % 97) as f64 * 0.5);
        }
        let stats = db.stats();
        prop_assert!(stats.sealed_blocks <= max_blocks);
        let retained = u64::from(samples_per_block) * (max_blocks as u64 + 1);
        prop_assert!(stats.samples <= retained, "{} samples retained, cap {}", stats.samples, retained);
    }
}

/// The acceptance-criteria replay: 1024 machines sampled for 10k ticks
/// stay inside the configured ring bound, and memory stops growing once
/// the rings are full.
#[test]
fn replay_1024_machines_10k_ticks_stays_bounded() {
    let config = TsdbConfig {
        samples_per_block: 240,
        max_blocks_per_series: 4,
    };
    let db = Tsdb::new(config.clone());
    let handles: Vec<_> = (0..1024)
        .map(|m| db.handle(&format!("temp/machine{m}/cpu")))
        .collect();
    // Deterministic wiggly temperatures from a cheap LCG.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut rand = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 40) as f64 / (1u64 << 24) as f64
    };
    // Rings fill by t = 240 * 5 = 1200; peak usage after that is the
    // steady state (the open block sawtooths below it each seal).
    let mut steady_peak = 0usize;
    for t in 0..10_000u64 {
        for h in &handles {
            db.append_handle(*h, t, 40.0 + 25.0 * rand());
        }
        if (1200..6000).contains(&t) && t % 40 == 0 {
            steady_peak = steady_peak.max(db.memory_bytes());
        }
    }
    let stats = db.stats();
    assert_eq!(stats.series, 1024);
    assert_eq!(stats.dropped_out_of_order, 0);
    // Ring bound: at most max_blocks sealed + one open block per series.
    let per_series_samples =
        u64::from(config.samples_per_block) * (config.max_blocks_per_series as u64 + 1);
    assert!(
        stats.samples <= 1024 * per_series_samples,
        "{} samples retained, cap {}",
        stats.samples,
        1024 * per_series_samples
    );
    // Worst-case Gorilla sample is < 20 bytes; the configured rings may
    // never exceed that ceiling no matter how long the replay runs.
    let bound =
        1024 * (config.max_blocks_per_series + 1) * (config.samples_per_block as usize * 20 + 64);
    let mem = db.memory_bytes();
    assert!(
        mem <= bound,
        "memory {mem} exceeds configured bound {bound}"
    );
    // And after the rings filled (well before t=6000), usage is flat:
    // the final footprint never exceeds the steady-state peak.
    assert!(
        mem <= steady_peak,
        "memory kept growing after the rings filled: peak {steady_peak}, final {mem}"
    );
    assert!(stats.evicted_blocks > 0, "replay never exercised eviction");
}
