//! What a run reports and how two sets of reports are compared.

use crate::catalogue::{self, Better, END_TO_END, PER_LAYER};
use crate::json::{self, Value};
use crate::stats::{summarize, Summary};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What one workload measured: values by catalogue name, plus the
/// operation tally behind `failed_share`.
#[derive(Debug, Default)]
pub struct Outcome {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted (requests, units, output checks).
    pub attempted: u64,
    /// Operations that failed, each described in `failures`.
    pub failed: u64,
    /// One line per failed check or operation class.
    pub failures: Vec<String>,
}

impl Outcome {
    /// An empty outcome.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the catalogue: a metric nobody
    /// declared can not be bounded or compared.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            catalogue::metric(name).is_some(),
            "metric `{name}` is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// The recorded value of `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one attempted operation and, when `ok` is false, one
    /// failure described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        if failed > 0 {
            self.failed += failed;
            self.failures
                .push(format!("{failed} of {attempted} {what}"));
        }
    }
}

/// One finished run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs were made from.
    pub seed: u64,
    /// Whether this was the traced run (per-layer metrics) or the
    /// untraced one (end-to-end metrics).
    pub traced: bool,
    /// Whether every output check passed and nothing failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Failure descriptions.
    pub failures: Vec<String>,
    /// `(name, value)` for every metric of the run's kind, in
    /// catalogue order.
    pub metrics: Vec<(String, f64)>,
}

impl RunReport {
    /// Builds the report of a run: every metric the run's kind owes
    /// (end-to-end when untraced, per-layer when traced), 0 for a layer
    /// the workload does not enter.
    ///
    /// # Errors
    ///
    /// An untraced run that left an end-to-end metric unset, zero or
    /// non-finite — those are never legitimately 0.
    pub fn from_outcome(
        workload: &str,
        seed: u64,
        traced: bool,
        outcome: Outcome,
    ) -> Result<Self, String> {
        let defs: &[catalogue::MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::with_capacity(defs.len());
        for def in defs {
            let value = outcome.get(def.name).unwrap_or(0.0);
            if !value.is_finite() || (!traced && value <= 0.0) {
                return Err(format!(
                    "{workload}: metric `{}` is {value}, not a positive measurement",
                    def.name
                ));
            }
            metrics.push((def.name.to_string(), value));
        }
        Ok(RunReport {
            workload: workload.to_string(),
            seed,
            traced,
            correct: outcome.failed == 0,
            attempted: outcome.attempted.max(1),
            failed: outcome.failed,
            failures: outcome.failures,
            metrics,
        })
    }

    /// The value of `name`.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// `failed / attempted`.
    #[must_use]
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }

    fn metrics_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let unit = catalogue::metric(name).map_or("", |m| m.unit);
            let _ = write!(
                out,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if i == 0 { "" } else { ", " },
                json::quote(name),
                json::number(*value),
                json::quote(unit)
            );
        }
        out.push('}');
        out
    }

    /// The one-line object the driver reads from the last line of
    /// standard output: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    #[must_use]
    pub fn contract_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The richer object stored in a result set.
    #[must_use]
    pub fn to_json(&self) -> String {
        let failures: Vec<String> = self.failures.iter().map(|f| json::quote(f)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"metrics\": {}}}",
            json::quote(&self.workload),
            self.seed,
            self.traced,
            self.correct,
            self.attempted,
            self.failed,
            failures.join(", "),
            self.metrics_json()
        )
    }

    /// Reads back [`RunReport::to_json`]. A contract line, which names
    /// neither workload nor seed, reads back with the defaults given.
    ///
    /// # Errors
    ///
    /// A document that is not a run object.
    pub fn from_json(v: &Value, workload: &str, seed: u64, traced: bool) -> Result<Self, String> {
        let num = |k: &str| v.get(k).and_then(Value::as_f64);
        let metrics = v
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("run object has no `metrics`")?
            .iter()
            .map(|(name, m)| {
                m.get("value")
                    .and_then(Value::as_f64)
                    .map(|value| (name.clone(), value))
                    .ok_or_else(|| format!("metric `{name}` has no numeric value"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RunReport {
            workload: v
                .get("workload")
                .and_then(Value::as_str)
                .unwrap_or(workload)
                .to_string(),
            seed: num("seed").map_or(seed, |s| s as u64),
            traced: v.get("traced").and_then(Value::as_bool).unwrap_or(traced),
            correct: v
                .get("correct")
                .and_then(Value::as_bool)
                .ok_or("run object has no `correct`")?,
            attempted: num("attempted").ok_or("run object has no `attempted`")? as u64,
            failed: num("failed").ok_or("run object has no `failed`")? as u64,
            failures: v
                .get("failures")
                .and_then(Value::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(|f| f.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default(),
            metrics,
        })
    }

    /// Every metric by name with its unit, `=` marking the counts that
    /// must repeat exactly, then the check verdict.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} (seed {}, {}) ==\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" }
        );
        for (name, value) in &self.metrics {
            let def = catalogue::metric(name);
            let exact = def.is_some_and(|d| catalogue::exact_on(d, &self.workload));
            let _ = writeln!(
                out,
                "  {name:<40} {:>20} {}{}",
                json::number(*value),
                def.map_or("", |d| d.unit),
                if exact { "  =" } else { "" }
            );
        }
        let _ = writeln!(
            out,
            "  {:<40} {:>20} ratio  ({} of {})",
            "failed_share",
            json::number(self.failed_share()),
            self.failed,
            self.attempted
        );
        for failure in &self.failures {
            let _ = writeln!(out, "  FAILED: {failure}");
        }
        out
    }
}

/// A set of runs written by `run --all` / `--repeats` and read by
/// `agree`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    /// Every run, in the order made.
    pub runs: Vec<RunReport>,
}

impl ResultSet {
    /// The set as a JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let runs: Vec<String> = self
            .runs
            .iter()
            .map(|r| format!("    {}", r.to_json()))
            .collect();
        format!(
            "{{\n  \"schema\": \"bench-e2e-v1\",\n  \"runs\": [\n{}\n  ]\n}}\n",
            runs.join(",\n")
        )
    }

    /// Reads back [`ResultSet::to_json`].
    ///
    /// # Errors
    ///
    /// Malformed JSON or a document of another schema.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        if v.get("schema").and_then(Value::as_str) != Some("bench-e2e-v1") {
            return Err("not a bench-e2e-v1 result set".to_string());
        }
        let runs = v
            .get("runs")
            .and_then(Value::as_array)
            .ok_or("result set has no `runs`")?
            .iter()
            .map(|r| RunReport::from_json(r, "", 0, false))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ResultSet { runs })
    }

    /// Values of `metric` over the runs of one workload and kind.
    #[must_use]
    pub fn values(&self, workload: &str, traced: bool, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter(|r| r.workload == workload && r.traced == traced)
            .filter_map(|r| r.metric(metric))
            .collect()
    }

    /// Median and quartiles of `metric` over repeats; a single run is
    /// its own median with no spread.
    #[must_use]
    pub fn summary(&self, workload: &str, traced: bool, metric: &str) -> Option<Summary> {
        let values = self.values(workload, traced, metric);
        match values.as_slice() {
            [] => None,
            [one] => Some(Summary {
                n: 1,
                q1: *one,
                median: *one,
                q3: *one,
            }),
            many => summarize(many),
        }
    }

    /// The median and quartiles of every end-to-end metric, one line
    /// per workload and metric.
    #[must_use]
    pub fn render_summaries(&self) -> String {
        let mut out = String::new();
        for w in &catalogue::WORKLOADS {
            for def in &END_TO_END {
                if let Some(s) = self.summary(w.name, false, def.name) {
                    let _ = writeln!(
                        out,
                        "{:<18} {:<24} median {:>14.4} {:<4} q1 {:>14.4} q3 {:>14.4} spread {:>6.2}% of bound {:>4.0}% (n={})",
                        w.name,
                        def.name,
                        s.median,
                        def.unit,
                        s.q1,
                        s.q3,
                        s.spread() * 100.0,
                        def.bound.unwrap_or(0.0) * 100.0,
                        s.n
                    );
                }
            }
        }
        out
    }
}

/// By what share of `base` the value `new` is worse, given the
/// direction of improvement; negative when it is better.
#[must_use]
pub fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// Compares two result sets of one commit: every end-to-end median of
/// `b` against `a` under the catalogue's bound, in both directions
/// (neither set is the baseline), every exact count and hash for
/// identity, and every run for `failed == 0`. Returns one line per
/// disagreement; empty means the sets agree.
#[must_use]
pub fn agree(a: &ResultSet, b: &ResultSet) -> Vec<String> {
    let mut out = Vec::new();
    for (label, set) in [("first", a), ("second", b)] {
        for r in &set.runs {
            if !r.correct || r.failed > 0 {
                out.push(format!(
                    "{} set: {} ({}) failed {} of {} operations",
                    label,
                    r.workload,
                    if r.traced { "traced" } else { "untraced" },
                    r.failed,
                    r.attempted
                ));
            }
        }
    }
    for w in &catalogue::WORKLOADS {
        for def in &END_TO_END {
            let (Some(sa), Some(sb)) = (
                a.summary(w.name, false, def.name),
                b.summary(w.name, false, def.name),
            ) else {
                out.push(format!("{}: {} is missing from a set", w.name, def.name));
                continue;
            };
            let bound = def.bound.unwrap_or(0.0);
            let gap = worse_by(def.better, sa.median, sb.median)
                .max(worse_by(def.better, sb.median, sa.median));
            if gap > bound {
                out.push(format!(
                    "{}: {} medians {} and {} {} differ by {:.1}% (bound {:.0}%)",
                    w.name,
                    def.name,
                    sa.median,
                    sb.median,
                    def.unit,
                    gap * 100.0,
                    bound * 100.0
                ));
            }
        }
        for def in PER_LAYER.iter().filter(|d| catalogue::exact_on(d, w.name)) {
            let mut values = a.values(w.name, true, def.name);
            values.extend(b.values(w.name, true, def.name));
            if let Some(first) = values.first() {
                if values.iter().any(|v| v != first) {
                    out.push(format!(
                        "{}: exact metric {} takes the values {:?}",
                        w.name, def.name, values
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{NET_LIVE, REPLAY_STEADY};

    fn untraced(workload: &str, rate: f64) -> RunReport {
        let mut o = Outcome::new();
        o.set("setup_s", 1.25);
        o.set("machine_seconds_per_s", rate);
        o.set("requests_per_s", 10.0 * rate);
        o.set("peak_rss_mb", 64.5);
        o.tally(100, 0, "requests");
        RunReport::from_outcome(workload, 42, false, o).unwrap()
    }

    fn traced(workload: &str, ticks: f64) -> RunReport {
        let mut o = Outcome::new();
        o.set("core.solver.ticks", ticks);
        o.set("core.solver.step_s", 0.5 + ticks * 1e-9);
        o.check(true, String::new);
        RunReport::from_outcome(workload, 42, true, o).unwrap()
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_every_metric() {
        let r = untraced(REPLAY_STEADY, 1.2e7);
        let v = json::parse(&r.contract_line()).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = v.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let m = v
            .get("metrics")
            .unwrap()
            .get("machine_seconds_per_s")
            .unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1.2e7));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("1/s"));
        let t = traced(REPLAY_STEADY, 2880.0);
        let v = json::parse(&t.contract_line()).unwrap();
        assert_eq!(
            v.get("metrics").unwrap().as_object().unwrap().len(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn an_end_to_end_metric_may_not_be_missing_or_zero() {
        let mut o = Outcome::new();
        o.set("setup_s", 1.0);
        o.set("machine_seconds_per_s", 0.0);
        o.set("requests_per_s", 5.0);
        o.set("peak_rss_mb", 5.0);
        assert!(RunReport::from_outcome(NET_LIVE, 1, false, o).is_err());
        assert!(RunReport::from_outcome(NET_LIVE, 1, false, Outcome::new()).is_err());
        // A traced run reports 0 for layers it does not enter.
        let t = RunReport::from_outcome(NET_LIVE, 1, true, Outcome::new()).unwrap();
        assert_eq!(t.metric("cluster.tick_s"), Some(0.0));
        assert_eq!(t.attempted, 1);
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn an_undeclared_metric_is_refused() {
        Outcome::new().set("made.up", 1.0);
    }

    #[test]
    fn failures_make_a_run_incorrect() {
        let mut o = Outcome::new();
        o.check(false, || "hash differs".to_string());
        o.tally(10, 2, "requests timed out");
        let r = RunReport::from_outcome(NET_LIVE, 1, true, o).unwrap();
        assert!(!r.correct);
        assert_eq!((r.attempted, r.failed), (11, 3));
        assert!((r.failed_share() - 3.0 / 11.0).abs() < 1e-12);
        assert!(r.render().contains("FAILED: hash differs"));
    }

    #[test]
    fn result_sets_round_trip() {
        let set = ResultSet {
            runs: vec![untraced(NET_LIVE, 5.0e4), traced(NET_LIVE, 100.0)],
        };
        assert_eq!(ResultSet::from_json(&set.to_json()).unwrap(), set);
        assert!(ResultSet::from_json("{\"schema\": \"other\", \"runs\": []}").is_err());
    }

    fn full_set(rate: f64, ticks: f64) -> ResultSet {
        let mut runs = Vec::new();
        for w in &catalogue::WORKLOADS {
            runs.push(untraced(w.name, rate));
            runs.push(traced(w.name, ticks));
        }
        ResultSet { runs }
    }

    #[test]
    fn agree_accepts_noise_within_bounds_and_names_what_is_outside() {
        let a = full_set(1000.0, 2880.0);
        assert!(agree(&a, &full_set(1050.0, 2880.0)).is_empty());
        let slow = agree(&a, &full_set(700.0, 2880.0));
        assert_eq!(slow.len(), 2 * catalogue::WORKLOADS.len(), "{slow:?}");
        assert!(slow[0].contains("machine_seconds_per_s"));
        // Either direction is a disagreement between runs of one commit.
        assert!(!agree(&full_set(700.0, 2880.0), &a).is_empty());
        // An exact count that moved is named — except where ticks follow
        // the wall clock.
        let moved = agree(&a, &full_set(1000.0, 2881.0));
        assert_eq!(moved.len(), catalogue::WORKLOADS.len() - 1, "{moved:?}");
        assert!(moved.iter().all(|l| l.contains("core.solver.ticks")));
        assert!(!moved.iter().any(|l| l.contains(NET_LIVE)));
    }

    #[test]
    fn repeats_are_compared_by_their_medians() {
        let mut a = full_set(1000.0, 1.0);
        let mut b = full_set(1000.0, 1.0);
        for set in [&mut a, &mut b] {
            set.runs.push(untraced(NET_LIVE, 1010.0));
            set.runs.push(untraced(NET_LIVE, 400.0)); // one wild run
        }
        assert!(agree(&a, &b).is_empty());
        let s = a.summary(NET_LIVE, false, "machine_seconds_per_s").unwrap();
        assert_eq!((s.n, s.median), (3, 1000.0));
        assert!(a.render_summaries().contains("net_live"));
        assert_eq!(worse_by(Better::Higher, 100.0, 90.0), 0.1);
        assert_eq!(worse_by(Better::Lower, 100.0, 90.0), -0.1);
    }
}
