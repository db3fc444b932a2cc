//! Round-trip: everything [`telemetry::Registry::render_prometheus`]
//! can emit must come back unchanged through the strict parser in
//! [`telemetry::text`]. The renderer and the parser are written
//! independently on purpose — this suite is the contract between them,
//! exercised on the edge cases a live scrape rarely hits: escaped label
//! values, special floats, histogram bucket series, and re-registered
//! families. The second half holds every text decoder to totality:
//! arbitrary text, and valid documents cut short or with bytes flipped,
//! come back `Ok` or `Err`, never a panic.

use proptest::prelude::*;
use std::borrow::Cow;
use telemetry::recorder::extract_bundle_spans;
use telemetry::text::parse_exposition;
use telemetry::trace::{parse_jsonl, to_jsonl};
use telemetry::tsdb::{parse_results, render_results, QueryKind, SeriesPoint, SeriesResult};
use telemetry::{FlightRecorder, IncidentTrigger, RecorderConfig, Registry, SpanRecord, TickState};

#[test]
fn escaped_label_values_survive_the_round_trip() {
    let registry = Registry::new();
    let nasty = "quote \" backslash \\ newline \n done";
    let c = registry.counter_with_labels(
        "mercury_roundtrip_total",
        "labels with every escapable character",
        &[("detail", nasty), ("plain", "ok")],
    );
    c.add(7);
    let text = registry.render_prometheus();
    let samples = parse_exposition(&text).expect("rendered exposition must parse");
    let sample = samples
        .iter()
        .find(|s| s.name == "mercury_roundtrip_total")
        .expect("family missing");
    assert_eq!(sample.label("detail"), Some(nasty));
    assert_eq!(sample.label("plain"), Some("ok"));
    assert_eq!(sample.value, 7.0);
}

#[test]
fn special_float_gauges_round_trip() {
    let registry = Registry::new();
    registry
        .gauge_with_labels("mercury_edge", "special values", &[("case", "pos_inf")])
        .set(f64::INFINITY);
    registry
        .gauge_with_labels("mercury_edge", "special values", &[("case", "neg_inf")])
        .set(f64::NEG_INFINITY);
    registry
        .gauge_with_labels("mercury_edge", "special values", &[("case", "nan")])
        .set(f64::NAN);
    registry
        .gauge_with_labels("mercury_edge", "special values", &[("case", "tiny")])
        .set(1e-12);
    let samples = parse_exposition(&registry.render_prometheus()).unwrap();
    let by_case = |case: &str| {
        samples
            .iter()
            .find(|s| s.name == "mercury_edge" && s.label("case") == Some(case))
            .unwrap_or_else(|| panic!("case {case} missing"))
            .value
    };
    assert_eq!(by_case("pos_inf"), f64::INFINITY);
    assert_eq!(by_case("neg_inf"), f64::NEG_INFINITY);
    assert!(by_case("nan").is_nan());
    assert_eq!(by_case("tiny"), 1e-12);
}

#[test]
fn histogram_series_parse_with_monotone_buckets() {
    let registry = Registry::new();
    let h = registry.histogram_scaled(
        "mercury_roundtrip_seconds",
        "latencies recorded in nanoseconds",
        1e-9,
    );
    for v in [50, 900, 900, 40_000, 2_000_000] {
        h.observe(v);
    }
    let samples = parse_exposition(&registry.render_prometheus()).unwrap();
    let buckets: Vec<&telemetry::text::Sample> = samples
        .iter()
        .filter(|s| s.name == "mercury_roundtrip_seconds_bucket")
        .collect();
    assert!(buckets.len() >= 2, "cumulative buckets plus +Inf expected");
    let mut last = 0.0;
    for b in &buckets {
        assert!(
            b.value >= last,
            "cumulative bucket counts must be monotone: {samples:?}"
        );
        last = b.value;
    }
    assert_eq!(buckets.last().unwrap().label("le"), Some("+Inf"));
    assert_eq!(buckets.last().unwrap().value, 5.0);
    let count = samples
        .iter()
        .find(|s| s.name == "mercury_roundtrip_seconds_count")
        .unwrap();
    assert_eq!(count.value, 5.0);
    let sum = samples
        .iter()
        .find(|s| s.name == "mercury_roundtrip_seconds_sum")
        .unwrap();
    // Bucketing quantizes the recorded values, but the sum keeps the
    // scaled order of magnitude.
    assert!(sum.value > 0.0 && sum.value < 1.0, "sum {}", sum.value);
}

#[test]
fn reregistration_renders_one_series_not_two() {
    let registry = Registry::new();
    let first = registry.counter("mercury_once_total", "registered twice");
    first.add(3);
    let second = registry.counter("mercury_once_total", "registered twice");
    second.add(5);
    let samples = parse_exposition(&registry.render_prometheus()).unwrap();
    let series: Vec<_> = samples
        .iter()
        .filter(|s| s.name == "mercury_once_total")
        .collect();
    assert_eq!(series.len(), 1, "idempotent registration must not fork");
    assert_eq!(series[0].value, 5.0, "the fresh handle wins");
}

#[test]
fn fresh_registry_exposes_zero_dropped_events() {
    let registry = Registry::new();
    let samples = parse_exposition(&registry.render_prometheus()).unwrap();
    let dropped = samples
        .iter()
        .find(|s| s.name == "mercury_telemetry_events_dropped_total")
        .expect("the drop counter is part of every exposition");
    assert_eq!(dropped.value, 0.0);
}

#[test]
fn mixed_document_round_trips_every_sample() {
    // One registry with every metric kind, rendered and parsed: no
    // sample line may be lost or reordered within its family.
    let registry = Registry::new();
    registry.counter("mercury_a_total", "a").add(1);
    registry.gauge("mercury_b", "b").set(-2.5);
    registry.histogram("mercury_c", "c (unit-free)").observe(10);
    for (k, v) in [("x", "1"), ("y", "2"), ("z", "3")] {
        registry
            .counter_with_labels("mercury_d_total", "d", &[("shard", k)])
            .add(v.parse().unwrap());
    }
    let text = registry.render_prometheus();
    let samples = parse_exposition(&text).unwrap();
    assert!(samples.iter().any(|s| s.name == "mercury_a_total"));
    assert!(samples
        .iter()
        .any(|s| s.name == "mercury_b" && s.value == -2.5));
    assert!(samples.iter().any(|s| s.name == "mercury_c_count"));
    let shards: Vec<_> = samples
        .iter()
        .filter(|s| s.name == "mercury_d_total")
        .collect();
    assert_eq!(shards.len(), 3);
    assert_eq!(shards[0].label("shard"), Some("x"));
    assert_eq!(shards[2].label("shard"), Some("z"));
    assert_eq!(
        shards.iter().map(|s| s.value).sum::<f64>(),
        6.0,
        "shard values 1+2+3"
    );
}

// ---------------------------------------------------------------------------
// Totality: every text decoder answers `Ok` or `Err` on any input, and the
// two line formats with a writer round-trip what it writes.
// ---------------------------------------------------------------------------

/// Feeds `text` to all four decoders; none may panic.
fn decode_everywhere(text: &str) {
    let _ = parse_exposition(text);
    let _ = parse_jsonl(text);
    let _ = extract_bundle_spans(text);
    let _ = parse_results(text);
}

/// Text of up to 12 characters drawn mostly from ASCII, controls,
/// quotes and backslashes included, with some of the BMP beyond.
fn text(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec((0u8..4, 0u32..0x80, 0x80u32..0x3000), 0..=max).prop_map(|cs| {
        cs.into_iter()
            .filter_map(|(pick, low, high)| char::from_u32(if pick == 0 { high } else { low }))
            .collect()
    })
}

fn non_nan() -> impl Strategy<Value = f64> {
    any::<u64>()
        .prop_map(f64::from_bits)
        .prop_filter("NaN collapses on the wire", |v| !v.is_nan())
}

fn span() -> impl Strategy<Value = SpanRecord> {
    (
        (1u64..=u64::MAX, any::<u64>(), any::<u32>()),
        (any::<u64>(), any::<u64>()),
        (
            text(8),
            text(12).prop_filter("a span has a name", |n| !n.is_empty()),
        ),
        proptest::collection::vec((text(6), text(10)), 0..3),
    )
        .prop_map(
            |((id, parent, tid), (start_ns, dur_ns), (cat, name), args)| SpanRecord {
                id,
                parent,
                tid,
                start_ns,
                dur_ns,
                cat: Cow::Owned(cat),
                name: Cow::Owned(name),
                args: args.into_iter().map(|(k, v)| (Cow::Owned(k), v)).collect(),
            },
        )
}

fn series_result() -> impl Strategy<Value = SeriesResult> {
    (
        "[a-zA-Z0-9_/.:*-]{1,16}",
        0u8..3,
        proptest::collection::vec((any::<u64>(), non_nan(), non_nan(), non_nan()), 0..6),
    )
        .prop_map(|(name, kind, points)| {
            let kind = QueryKind::from_u8(kind).expect("0..3 are the kinds");
            let points = points
                .into_iter()
                .map(|(t, min, mean, max)| match kind {
                    QueryKind::Downsample => SeriesPoint { t, min, mean, max },
                    QueryKind::Raw | QueryKind::Rate => SeriesPoint::flat(t, mean),
                })
                .collect();
            SeriesResult { name, kind, points }
        })
}

/// One valid document of each decoder's format, built from generated
/// parts.
fn valid_documents(spans: &[SpanRecord], results: &[SeriesResult], value: f64) -> Vec<String> {
    let registry = Registry::new();
    registry
        .gauge_with_labels("mercury_fuzz", "fuzz", &[("case", "a\"b\\c\nd")])
        .set(value);
    registry
        .histogram_scaled("mercury_fuzz_seconds", "fuzz", 1e-9)
        .observe(value.abs().min(1e18) as u64);
    let recorder = FlightRecorder::new(RecorderConfig {
        probes: vec!["cpu".into()],
        ..RecorderConfig::default()
    });
    recorder.record(
        0,
        TickState {
            temps: vec![value],
            ..TickState::default()
        },
    );
    let trigger = IncidentTrigger {
        time_s: 1,
        machine: 0,
        kind: "red_line".into(),
        detail: "fuzz".into(),
    };
    vec![
        registry.render_prometheus(),
        to_jsonl(spans),
        recorder.bundle(&trigger, &[("git".into(), "x".into())], spans),
        render_results(results),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decoders_are_total_on_arbitrary_text(garbage in text(64), printable in "\\PC{0,80}") {
        decode_everywhere(&garbage);
        decode_everywhere(&printable);
    }

    #[test]
    fn decoders_are_total_on_cut_and_flipped_documents(
        spans in proptest::collection::vec(span(), 0..4),
        results in proptest::collection::vec(series_result(), 0..3),
        value in non_nan(),
        cut in any::<usize>(),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 1..4),
    ) {
        for doc in valid_documents(&spans, &results, value) {
            decode_everywhere(&doc);
            let bytes = doc.as_bytes();
            let cut_at = if bytes.is_empty() { 0 } else { cut % bytes.len() };
            decode_everywhere(&String::from_utf8_lossy(&bytes[..cut_at]));
            let mut flipped = bytes.to_vec();
            if !flipped.is_empty() {
                for &(at, mask) in &flips {
                    let at = at % flipped.len();
                    flipped[at] ^= mask;
                }
            }
            decode_everywhere(&String::from_utf8_lossy(&flipped));
        }
    }

    #[test]
    fn span_jsonl_round_trips(spans in proptest::collection::vec(span(), 0..6)) {
        let parsed = parse_jsonl(&to_jsonl(&spans));
        prop_assert!(parsed.as_ref() == Ok(&spans), "{:?} -> {:?}", spans, parsed);
    }

    #[test]
    fn series_results_round_trip(results in proptest::collection::vec(series_result(), 0..4)) {
        let parsed = parse_results(&render_results(&results));
        prop_assert!(parsed.as_ref() == Ok(&results), "{:?} -> {:?}", results, parsed);
    }
}
