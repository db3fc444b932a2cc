//! Property and equivalence tests for the declarative policy layer.
//!
//! Three guarantees:
//!
//! 1. any valid [`PolicySpec`] survives a TOML round trip unchanged,
//! 2. malformed specs are rejected with errors naming the offender, and
//! 3. the built-in TOML specs drive an experiment to *byte-identical*
//!    logs as the legacy policy structs they replaced.

use cluster_sim::{ClusterSim, ServerConfig};
use freon::policy::{SpecPolicy, Trigger};
use freon::{
    EcConfig, Experiment, ExperimentConfig, FreonConfig, FreonEcPolicy, FreonPolicy, PolicySpec,
    ThermalPolicy, TraditionalPolicy, BUILTIN_NAMES,
};
use proptest::prelude::*;
use workload_gen::{DiurnalProfile, RequestMix, WorkloadGenerator, WorkloadTrace};

/// A valid threshold triple for one component: `low < high < red_line`.
fn thresholds(component: &'static str) -> impl Strategy<Value = freon::ComponentThresholds> {
    (20.0..80.0f64, 0.5..10.0f64, 0.5..10.0f64).prop_map(move |(low, d_high, d_red)| {
        freon::ComponentThresholds {
            component: component.to_string(),
            low,
            high: low + d_high,
            red_line: low + d_high + d_red,
        }
    })
}

/// A valid spec built around the standard throttle/release/red-line
/// rules, with randomized periods, gains, caps, and thresholds —
/// occasionally with an EC section or a shed rule instead of throttling.
fn valid_spec() -> impl Strategy<Value = PolicySpec> {
    (
        (1u64..600, 1u64..120),
        (0.01..1.0f64, 0.0..1.0f64),
        any::<bool>(),
        thresholds("cpu"),
        thresholds("disk_platters"),
        0u8..3,
        (0.05..0.95f64, 1u8..4),
    )
        .prop_map(
            |((check, sample), (kp, kd), caps, cpu, disk, variant, (factor, intervals))| {
                let mut config = FreonConfig::paper();
                config.monitor_period_s = check;
                config.sample_period_s = sample;
                config.kp = kp;
                config.kd = kd;
                config.connection_caps = caps;
                config.thresholds = vec![cpu, disk];
                match variant {
                    0 => PolicySpec::freon(&config),
                    1 => {
                        let ec = EcConfig {
                            regions: vec![0, 1, 0, 1],
                            u_high: 0.7,
                            u_low: 0.6,
                            projection_intervals: u32::from(intervals),
                        };
                        PolicySpec::freon_ec(&config, &ec)
                    }
                    _ => {
                        let mut spec = PolicySpec::freon(&config);
                        spec.name = "shed-variant".to_string();
                        for rule in &mut spec.rules {
                            if rule.trigger == Trigger::AboveHigh {
                                rule.action = freon::ActionSpec::Shed { factor };
                            }
                        }
                        spec
                    }
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// write → parse reproduces the spec exactly, rules and EC included.
    #[test]
    fn specs_round_trip_through_toml(spec in valid_spec()) {
        prop_assert!(spec.validate().is_ok(), "strategy produced an invalid spec");
        let text = spec.to_toml_string();
        let back = PolicySpec::from_toml_str(&text)
            .unwrap_or_else(|e| panic!("emitted TOML failed to parse: {e}\n{text}"));
        prop_assert_eq!(back, spec);
    }

    /// Inverting any component's thresholds is always caught, and the
    /// error names that component.
    #[test]
    fn inverted_thresholds_are_rejected(spec in valid_spec(), which in 0usize..2) {
        let mut spec = spec;
        let t = &mut spec.thresholds[which];
        std::mem::swap(&mut t.low, &mut t.red_line);
        let component = spec.thresholds[which].component.clone();
        let err = spec.validate().expect_err("inverted thresholds accepted");
        prop_assert!(err.contains(&component), "error does not name `{}`: {}", component, err);
    }

    /// Zero periods are always caught.
    #[test]
    fn zero_periods_are_rejected(spec in valid_spec(), which in any::<bool>()) {
        let mut spec = spec;
        if which {
            spec.check_period_s = 0;
        } else {
            spec.sample_period_s = 0;
        }
        let err = spec.validate().expect_err("zero period accepted");
        prop_assert!(err.contains("period"), "{}", err);
    }
}

#[test]
fn unknown_actuator_names_are_rejected_with_the_full_menu() {
    let text = "\
name = \"bogus\"

[[thresholds]]
component = \"cpu\"
high = 67.0
low = 64.0
red_line = 69.0

[[rules]]
trigger = \"above_high\"
action = \"overclock\"
";
    let err = PolicySpec::from_toml_str(text).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("overclock"), "{msg}");
    assert!(msg.contains("throttle"), "menu missing: {msg}");
    assert!(msg.contains("set_fan"), "menu missing: {msg}");
}

#[test]
fn duplicate_triggers_are_rejected() {
    let mut spec = PolicySpec::freon(&FreonConfig::paper());
    let dup = spec.rules[0].clone();
    spec.rules.push(dup);
    let err = spec.validate().unwrap_err();
    assert!(err.contains("duplicate rule"), "{err}");
}

fn paper_trace(duration: u64) -> WorkloadTrace {
    let mix = RequestMix::paper();
    let peak = mix.rps_for_cpu_utilization(0.7, 4, 1000.0);
    let profile = DiurnalProfile::new(duration as f64, peak * 0.15, peak).with_peak_at(0.65);
    WorkloadGenerator::new(profile, mix, 42).generate(duration)
}

/// Runs the fig-11-style emergency under one policy.
fn run(policy: &mut dyn ThermalPolicy, duration: u64) -> freon::ExperimentLog {
    let model = mercury::presets::validation_cluster(4);
    let sim = ClusterSim::homogeneous(4, ServerConfig::default());
    let trace = paper_trace(duration);
    let script = mercury::fiddle::FiddleScript::parse(
        "sleep 200\nfiddle machine1 temperature inlet 35.0\nfiddle machine3 temperature inlet 33.0\n",
    )
    .unwrap();
    let cfg = ExperimentConfig {
        duration_s: duration,
        ..Default::default()
    };
    Experiment::new(&model, sim, &trace, Some(&script), cfg)
        .unwrap()
        .run(policy)
        .unwrap()
}

/// The built-in TOML specs drive the loop to the exact same logs as the
/// legacy policy structs (which now wrap the same interpreter — this
/// pins the *TOML files* to the paper behaviors).
#[test]
fn builtin_specs_reproduce_the_legacy_policies() {
    let duration = 700;
    for name in ["traditional", "freon", "freon-ec"] {
        let spec = PolicySpec::builtin(name).unwrap();
        let mut from_spec = SpecPolicy::new(spec, 4).unwrap();
        let spec_log = run(&mut from_spec, duration);
        let legacy_log = match name {
            "traditional" => {
                let mut p = TraditionalPolicy::new(FreonConfig::paper(), 4);
                run(&mut p, duration)
            }
            "freon" => {
                let mut p = FreonPolicy::new(FreonConfig::paper(), 4);
                run(&mut p, duration)
            }
            _ => {
                let mut p =
                    FreonEcPolicy::new(FreonConfig::paper(), EcConfig::paper_four_servers());
                run(&mut p, duration)
            }
        };
        assert_eq!(
            spec_log, legacy_log,
            "`{name}` spec diverged from the legacy policy"
        );
    }
}

/// Every spec file shipped with the crate parses and validates.
#[test]
fn every_policy_file_parses_and_validates() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("policies");
    let mut files = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "toml") {
            let spec = PolicySpec::from_toml_file(&path).unwrap();
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            files += 1;
        }
    }
    assert!(files >= 7, "found only {files} policy files");
}

/// An integer key takes only a number that is one: integral, finite and
/// in its type's range. Each of these once read as some other integer
/// (`-1` as 0, `2.9` as 2, `1e30` as `u64::MAX`).
#[test]
fn integer_keys_refuse_numbers_they_cannot_hold() {
    for tail in [
        "check_period_s = 1e30",
        "check_period_s = -5",
        "check_period_s = nan",
        "sample_period_s = 2.5",
        "sample_period_s = inf",
        "[ec]\nregions = [0]\nprojection_intervals = 2.9",
        "[ec]\nregions = [0]\nprojection_intervals = -1",
        "[ec]\nregions = [0]\nprojection_intervals = 4294967296",
        "[ec]\nregions = [-1]",
        "[ec]\nregions = [0, 1.5]",
    ] {
        let key = tail.lines().last().unwrap().split(' ').next().unwrap();
        let err = PolicySpec::from_toml_str(&format!("name = \"x\"\n{tail}\n")).expect_err(tail);
        assert!(err.to_string().contains(&format!("field `{key}`")), "{err}");
    }
    // An integral float is an integer, whatever its spelling.
    let good = "name = \"x\"\ncheck_period_s = 1e3\nsample_period_s = 5.0\n\
                [ec]\nregions = [0]\nprojection_intervals = 4294967295\n";
    let good = PolicySpec::from_toml_str(good).unwrap();
    assert_eq!((good.check_period_s, good.sample_period_s), (1000, 5));
    assert_eq!(good.ec.unwrap().projection_intervals, u32::MAX);
}

/// `[[thresholds]]` refuses unknown keys and needs all four, like every
/// other spec table, and its errors name the key.
#[test]
fn threshold_tables_are_strict() {
    let table = "name = \"x\"\n[[thresholds]]\ncomponent = \"cpu\"\nhigh = 67.0\nlow = 64.0\n";
    let with_red_line = format!("{table}red_line = 69.0\n");
    let spec = PolicySpec::from_toml_str(&with_red_line).unwrap();
    assert_eq!(
        spec.thresholds,
        [freon::ComponentThresholds::new("cpu", 67.0, 64.0)]
    );

    let err = PolicySpec::from_toml_str(&format!("{with_red_line}hysteresis = 2\n")).unwrap_err();
    assert!(
        err.to_string()
            .contains("unknown key `hysteresis` in [[thresholds]]"),
        "{err}"
    );
    let err = PolicySpec::from_toml_str(table).unwrap_err();
    assert!(
        err.to_string()
            .contains("[[thresholds]] is missing required key `red_line`"),
        "{err}"
    );
    let err = PolicySpec::from_toml_str(&with_red_line.replace("high = 67.0", "high = \"hot\""))
        .unwrap_err();
    assert!(err.to_string().contains("field `high`"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary text is an error or a spec, never a panic; so is one of
    /// the built-in specs' texts with a byte replaced and the rest cut
    /// somewhere, which reaches deeper than noise.
    #[test]
    fn spec_parsing_is_total(
        noise in "\\PC{0,120}",
        tokens in "[a-z_\\[\\]{}=\"., 0-9\n#-]{0,160}",
        (which, at, byte, cut) in (0..BUILTIN_NAMES.len(), any::<usize>(), any::<u8>(), any::<usize>()),
    ) {
        let mut mangled = PolicySpec::builtin(BUILTIN_NAMES[which]).unwrap().to_toml_string().into_bytes();
        let at = at % mangled.len();
        mangled[at] = byte;
        mangled.truncate(cut % (mangled.len() + 1));
        for text in [noise, tokens, String::from_utf8_lossy(&mangled).into_owned()] {
            let _ = PolicySpec::from_toml_str(&text);
        }
    }
}
