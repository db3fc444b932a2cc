//! Utilization traces and offline (trace-driven) emulation.
//!
//! Mercury can compute temperatures from component-utilization traces
//! without running any system software — the paper uses this to fine-tune
//! parameters and, by *replicating* traces, to emulate cluster
//! installations larger than the user's real system (§1, §2.3).
//!
//! [`UtilizationTrace`] is a fixed-interval, column-per-component recording
//! of utilizations. [`run_offline`] replays a trace through a solver and
//! produces a [`TemperatureLog`]; [`run_offline_cluster`] does the same for
//! a whole room.
//!
//! For fleet-scale replay the in-RAM CSV path does not cut it: the
//! [`events`] submodule defines `mercury-events-v1`, a compact binary
//! trace format, [`stream`] replays `.events` files out of core
//! through one buffered reader with flat memory, and [`checkpoint`]
//! serializes full solver state to `mercury-ckpt-v1` blobs so long
//! replays can be cut at tick boundaries and resumed — or run in
//! parallel across time segments — bit-identically.

pub mod checkpoint;
pub mod events;
pub mod stream;

use crate::error::Error;
use crate::fiddle::{FiddleScript, ScriptRunner};
use crate::model::{ClusterModel, MachineModel};
use crate::solver::{ClusterSolver, Solver, SolverConfig};
use crate::units::{Celsius, Seconds, Utilization};
use std::io::{BufRead, Write};
use std::sync::Arc;

/// A fixed-interval recording of component utilizations for one machine.
///
/// Replicas made with [`UtilizationTrace::replicate_for`] (and plain
/// clones) share the component names and the samples: a 1024-replica
/// offline run does not carry 1024 copies of one recording. A replica
/// that takes a row copies the samples first.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationTrace {
    machine: String,
    interval: Seconds,
    components: Arc<[String]>,
    /// Row-major, `components.len()` values a row: `samples[row * width
    /// + col]` is the utilization of `components[col]` during the
    /// `row`-th interval.
    samples: Arc<Vec<Utilization>>,
}

impl UtilizationTrace {
    /// Creates an empty trace sampling the given components every
    /// `interval_s` seconds.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for a non-positive interval or an
    /// empty component list.
    pub fn new(
        machine: impl Into<String>,
        interval_s: f64,
        components: Vec<String>,
    ) -> Result<Self, Error> {
        if !interval_s.is_finite() || interval_s <= 0.0 {
            return Err(Error::invalid_input(format!(
                "trace interval {interval_s} must be positive"
            )));
        }
        if components.is_empty() {
            return Err(Error::invalid_input("trace has no components"));
        }
        Ok(UtilizationTrace::with_components(
            machine.into(),
            Seconds(interval_s),
            components.into(),
        ))
    }

    /// An empty trace over `components`, which are checked non-empty.
    fn with_components(machine: String, interval: Seconds, components: Arc<[String]>) -> Self {
        UtilizationTrace {
            machine,
            interval,
            components,
            samples: Arc::default(),
        }
    }

    /// The machine this trace was recorded on.
    pub fn machine(&self) -> &str {
        &self.machine
    }

    /// Sampling interval.
    pub fn interval(&self) -> Seconds {
        self.interval
    }

    /// Component names, in column order.
    pub fn components(&self) -> &[String] {
        &self.components
    }

    /// Number of sample rows.
    pub fn len(&self) -> usize {
        self.samples.len() / self.components.len()
    }

    /// Whether the trace holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total covered duration.
    pub fn duration(&self) -> Seconds {
        Seconds(self.len() as f64 * self.interval.0)
    }

    /// Appends one row of utilizations (one value per component, in
    /// column order).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when the row width does not match
    /// the component count.
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), Error> {
        if row.len() != self.components.len() {
            return Err(Error::invalid_input(format!(
                "row has {} values but the trace has {} components",
                row.len(),
                self.components.len()
            )));
        }
        Arc::make_mut(&mut self.samples).extend(row.iter().map(|&v| Utilization::new(v)));
        Ok(())
    }

    /// Builds a trace by evaluating `f(time_s, component_index)` for
    /// `rows` rows.
    ///
    /// # Errors
    ///
    /// Propagates [`UtilizationTrace::new`] errors.
    pub fn from_fn(
        machine: impl Into<String>,
        interval_s: f64,
        components: Vec<String>,
        rows: usize,
        mut f: impl FnMut(f64, usize) -> f64,
    ) -> Result<Self, Error> {
        let mut trace = UtilizationTrace::new(machine, interval_s, components)?;
        let width = trace.components.len();
        let samples = Arc::make_mut(&mut trace.samples);
        samples.reserve_exact(rows.saturating_mul(width));
        for row in 0..rows {
            let t = row as f64 * interval_s;
            samples.extend((0..width).map(|c| Utilization::new(f(t, c))));
        }
        Ok(trace)
    }

    /// The utilizations in effect at emulated time `t` (step function:
    /// the most recent row at or before `t`, clamped to the last row).
    pub fn at(&self, t: Seconds) -> Option<&[Utilization]> {
        self.row_at(t).map(|row| self.row(row))
    }

    /// Index of the row [`UtilizationTrace::at`] returns for `t`.
    fn row_at(&self, t: Seconds) -> Option<usize> {
        let last = self.len().checked_sub(1)?;
        Some(((t.0 / self.interval.0).floor().max(0.0) as usize).min(last))
    }

    /// Row `row`'s utilizations, in column order.
    fn row(&self, row: usize) -> &[Utilization] {
        let width = self.components.len();
        &self.samples[row * width..(row + 1) * width]
    }

    /// The rows in order.
    fn rows(&self) -> std::slice::ChunksExact<'_, Utilization> {
        self.samples.chunks_exact(self.components.len())
    }

    /// The full series for one component.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNode`] for unknown component names.
    pub fn component_series(&self, component: &str) -> Result<Vec<Utilization>, Error> {
        let col = self
            .components
            .iter()
            .position(|c| c == component)
            .ok_or_else(|| Error::unknown_node(component))?;
        Ok(self.rows().map(|row| row[col]).collect())
    }

    /// Clones this trace under a different machine name — the paper's
    /// trace-replication trick for emulating large clusters from a single
    /// measured machine. The component names and the samples are shared
    /// with the original (`Arc`), not deep-cloned per replica.
    pub fn replicate_for(&self, machine: impl Into<String>) -> UtilizationTrace {
        let mut copy = self.clone();
        copy.machine = machine.into();
        copy
    }

    /// Whether `other` shares this trace's component-name storage (true
    /// for replicas and clones; diagnostic for memory tests).
    pub fn shares_components_with(&self, other: &UtilizationTrace) -> bool {
        Arc::ptr_eq(&self.components, &other.components)
    }

    /// Whether `other` shares this trace's sample storage (true for
    /// replicas and clones until one of them takes a row; diagnostic for
    /// memory tests).
    pub fn shares_samples_with(&self, other: &UtilizationTrace) -> bool {
        Arc::ptr_eq(&self.samples, &other.samples)
    }

    /// Writes the trace as CSV: a `time` column followed by one column
    /// per component (utilization fractions). The machine name and
    /// interval travel in a `#` header comment so the file is
    /// self-describing.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_csv<W: Write>(&self, mut w: W) -> Result<(), Error> {
        writeln!(
            w,
            "# machine={} interval_s={}",
            self.machine, self.interval.0
        )?;
        write!(w, "time")?;
        for c in self.components.iter() {
            write!(w, ",{c}")?;
        }
        writeln!(w)?;
        for (row_index, row) in self.rows().enumerate() {
            write!(w, "{}", row_index as f64 * self.interval.0)?;
            for u in row {
                write!(w, ",{}", u.fraction())?;
            }
            writeln!(w)?;
        }
        Ok(())
    }

    /// Reads a trace from any [`BufRead`] source producing the CSV format
    /// of [`UtilizationTrace::write_csv`], line by line — the raw text is
    /// never held in memory, only the parsed samples. This is the reader
    /// `mercury-traceconv` uses so a multi-gigabyte CSV streams straight
    /// into the (much smaller) parsed representation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for malformed headers, rows of the
    /// wrong width, or non-numeric utilizations, and [`Error::Io`] for
    /// reader failures.
    pub fn read_csv_from<R: BufRead>(mut reader: R) -> Result<UtilizationTrace, Error> {
        let mut line = String::new();
        let mut read_line = |line: &mut String| -> Result<bool, Error> {
            line.clear();
            let n = reader.read_line(line)?;
            while line.ends_with('\n') || line.ends_with('\r') {
                line.pop();
            }
            Ok(n > 0)
        };
        if !read_line(&mut line)? {
            return Err(Error::invalid_input("empty trace file"));
        }
        let header = line
            .strip_prefix('#')
            .ok_or_else(|| Error::invalid_input("trace file is missing its `#` header"))?;
        let mut machine = String::new();
        let mut interval = 1.0_f64;
        for field in header.split_whitespace() {
            if let Some(v) = field.strip_prefix("machine=") {
                machine = v.to_string();
            } else if let Some(v) = field.strip_prefix("interval_s=") {
                interval = v
                    .parse()
                    .map_err(|_| Error::invalid_input(format!("bad interval `{v}`")))?;
            }
        }
        if !read_line(&mut line)? {
            return Err(Error::invalid_input("trace file is missing its column row"));
        }
        let components: Vec<String> = line.split(',').skip(1).map(str::to_string).collect();
        let mut trace = UtilizationTrace::new(machine, interval, components)?;
        let mut row = Vec::with_capacity(trace.components.len());
        let mut number = 0usize;
        while read_line(&mut line)? {
            number += 1;
            if line.trim().is_empty() {
                continue;
            }
            row.clear();
            for v in line.split(',').skip(1) {
                row.push(v.parse::<f64>().map_err(|_| {
                    Error::invalid_input(format!("row {}: `{v}` is not a utilization", number + 2))
                })?);
            }
            trace.push_row(&row)?;
        }
        Ok(trace)
    }
}

/// A recorded time series of node temperatures, one column per
/// `machine:node` pair.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TemperatureLog {
    columns: Vec<String>,
    times: Vec<f64>,
    /// Row-major, `columns.len()` values a row, one row per entry of
    /// `times`.
    rows: Vec<f64>,
}

impl TemperatureLog {
    /// Creates an empty log with the given column names.
    pub fn new(columns: Vec<String>) -> Self {
        TemperatureLog {
            columns,
            times: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Recorded timestamps, seconds.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of recorded rows.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Row `row`'s temperatures, in column order.
    fn row(&self, row: usize) -> &[f64] {
        let width = self.columns.len();
        &self.rows[row * width..(row + 1) * width]
    }

    /// Appends a row of temperatures at time `t`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when the row width mismatches the
    /// column count.
    pub fn push(&mut self, t: Seconds, temps: &[Celsius]) -> Result<(), Error> {
        if temps.len() != self.columns.len() {
            return Err(Error::invalid_input(format!(
                "row has {} temperatures but the log has {} columns",
                temps.len(),
                self.columns.len()
            )));
        }
        self.times.push(t.0);
        self.rows.extend(temps.iter().map(|t| t.0));
        Ok(())
    }

    /// The series recorded for one column.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNode`] for unknown columns.
    pub fn series(&self, column: &str) -> Result<Vec<f64>, Error> {
        let col = self
            .columns
            .iter()
            .position(|c| c == column)
            .ok_or_else(|| Error::unknown_node(column))?;
        let width = self.columns.len();
        Ok(self.rows.chunks_exact(width).map(|row| row[col]).collect())
    }

    /// Largest value in a column.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNode`] for unknown columns.
    pub fn max(&self, column: &str) -> Result<f64, Error> {
        Ok(self
            .series(column)?
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max))
    }

    /// Largest absolute pointwise difference between one column of this
    /// log and one of `other`, over the overlapping prefix.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNode`] for unknown columns.
    pub fn max_abs_difference(
        &self,
        column: &str,
        other: &TemperatureLog,
        other_column: &str,
    ) -> Result<f64, Error> {
        let a = self.series(column)?;
        let b = other.series(other_column)?;
        Ok(a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max))
    }

    /// Writes the log as CSV (`time` column first).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_csv<W: Write>(&self, mut w: W) -> Result<(), Error> {
        write!(w, "time")?;
        for c in &self.columns {
            write!(w, ",{c}")?;
        }
        writeln!(w)?;
        for (i, t) in self.times.iter().enumerate() {
            write!(w, "{t}")?;
            for v in self.row(i) {
                write!(w, ",{v}")?;
            }
            writeln!(w)?;
        }
        Ok(())
    }
}

/// Replays a trace through a fresh solver for the trace's duration,
/// applying `script` events as they fall due, and logs every node's
/// temperature each tick.
///
/// # Errors
///
/// Propagates solver construction and fiddle application errors. Unknown
/// trace components are an error — a trace for a different machine model
/// should fail loudly, not silently drive nothing.
pub fn run_offline(
    model: &MachineModel,
    trace: &UtilizationTrace,
    cfg: SolverConfig,
    script: Option<&FiddleScript>,
) -> Result<TemperatureLog, Error> {
    let mut solver = Solver::new(model, cfg)?;
    let columns: Vec<String> = solver.node_names().map(str::to_string).collect();
    let mut log = TemperatureLog::new(columns);
    let mut runner = script.map(FiddleScript::runner);
    let nodes = (trace.components().iter())
        .map(|component| {
            solver
                .node_index(component)
                .ok_or_else(|| Error::unknown_node(component))
        })
        .collect::<Result<Vec<usize>, Error>>()?;
    let ticks = (trace.duration().0 / solver.dt().0).round() as usize;
    for _ in 0..ticks {
        let now = solver.time();
        if let Some(r) = runner.as_mut() {
            r.apply_due_to_solver(now, &mut solver)?;
        }
        if let Some(row) = trace.at(now) {
            for (&node, &u) in nodes.iter().zip(row) {
                solver.set_utilization_at(node, u)?;
            }
        }
        solver.step();
        log.push(solver.time(), solver.temps())?;
    }
    Ok(log)
}

/// Replays one trace per machine through a cluster solver. Columns are
/// named `machine:node`.
///
/// The in-memory twin of `.events` replay, on the same loop: between
/// two script commands the run is one
/// [`ClusterSolver::step_for_fed`] span that takes each trace row at
/// its tick boundary and reads every temperature back through probes.
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] when the trace count differs from the
/// machine count; otherwise as [`run_offline`].
pub fn run_offline_cluster(
    model: &ClusterModel,
    traces: &[UtilizationTrace],
    cfg: SolverConfig,
    script: Option<&FiddleScript>,
) -> Result<TemperatureLog, Error> {
    if traces.len() != model.machines().len() {
        return Err(Error::invalid_input(format!(
            "{} traces supplied for {} machines",
            traces.len(),
            model.machines().len()
        )));
    }
    let mut cluster = ClusterSolver::new(model, cfg)?;
    let mut columns = Vec::new();
    let mut probes = Vec::new();
    for m in model.machines() {
        for node in m.nodes() {
            columns.push(format!("{}:{}", m.name(), node.name()));
            probes.push(cluster.probe(m.name(), node.name())?);
        }
    }
    let mut log = TemperatureLog::new(columns);
    let mut runner = script.map(FiddleScript::runner);
    let max_duration = traces.iter().map(|t| t.duration().0).fold(0.0, f64::max);
    let dt = cluster.machine_at(0).dt().0;
    let ticks = (max_duration / dt).round() as usize;
    // Names to node indices once, not per cell per tick.
    let mut nodes = Vec::with_capacity(traces.len());
    for (i, trace) in traces.iter().enumerate() {
        let machine = cluster.machine_at(i);
        let of_trace = trace
            .components()
            .iter()
            .map(|c| machine.node_index(c).ok_or_else(|| Error::unknown_node(c)))
            .collect::<Result<Vec<usize>, Error>>()?;
        nodes.push(of_trace);
    }
    // The row of each trace last pushed: a row that still holds is not
    // pushed again.
    let mut pushed: Vec<Option<usize>> = vec![None; traces.len()];
    let mut done = 0;
    while done < ticks {
        if let Some(r) = runner.as_mut() {
            r.apply_due_to_cluster(cluster.time(), &mut cluster)?;
        }
        // One fed span up to the tick the script next has a command due
        // before: traces in, temperatures out, all inside the solver.
        done += cluster.step_for_fed(
            ticks - done,
            &probes,
            |time, temps| {
                log.push(time, temps).expect("one probe per log column");
            },
            |inputs| {
                let now = inputs.time();
                if runner
                    .as_ref()
                    .and_then(ScriptRunner::next_due)
                    .is_some_and(|at| at.0 <= now.0)
                {
                    return Ok(false);
                }
                for (i, trace) in traces.iter().enumerate() {
                    let row = trace.row_at(now);
                    if row == pushed[i] {
                        continue;
                    }
                    pushed[i] = row;
                    let Some(row) = row else { continue };
                    for (&node, &u) in nodes[i].iter().zip(trace.row(row)) {
                        inputs.set_utilization_at(i, node, u)?;
                    }
                }
                Ok(true)
            },
        )?;
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{self, nodes};

    fn staircase_trace(machine: &str) -> UtilizationTrace {
        UtilizationTrace::from_fn(
            machine,
            1.0,
            vec![nodes::CPU.to_string(), nodes::DISK_PLATTERS.to_string()],
            600,
            |t, c| {
                if c == 0 {
                    if t < 300.0 {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    0.2
                }
            },
        )
        .unwrap()
    }

    #[test]
    fn trace_construction_and_queries() {
        let trace = staircase_trace("server");
        assert_eq!(trace.machine(), "server");
        assert_eq!(trace.len(), 600);
        assert!(!trace.is_empty());
        assert_eq!(trace.duration(), Seconds(600.0));
        assert_eq!(trace.at(Seconds(0.0)).unwrap()[0].fraction(), 1.0);
        assert_eq!(trace.at(Seconds(299.0)).unwrap()[0].fraction(), 1.0);
        assert_eq!(trace.at(Seconds(300.0)).unwrap()[0].fraction(), 0.0);
        // Clamped past the end.
        assert_eq!(trace.at(Seconds(10_000.0)).unwrap()[0].fraction(), 0.0);
        let series = trace.component_series(nodes::CPU).unwrap();
        assert_eq!(series.len(), 600);
        assert!(trace.component_series("nic").is_err());
    }

    #[test]
    fn trace_validation() {
        assert!(UtilizationTrace::new("m", 0.0, vec!["cpu".into()]).is_err());
        assert!(UtilizationTrace::new("m", 1.0, vec![]).is_err());
        let mut t = UtilizationTrace::new("m", 1.0, vec!["cpu".into()]).unwrap();
        assert!(t.push_row(&[0.5, 0.5]).is_err());
        assert!(t.push_row(&[0.5]).is_ok());
        assert!(t.at(Seconds(0.0)).is_some());
        let empty = UtilizationTrace::new("m", 1.0, vec!["cpu".into()]).unwrap();
        assert!(empty.at(Seconds(0.0)).is_none());
    }

    #[test]
    fn replication_renames_only() {
        let trace = staircase_trace("server");
        let copy = trace.replicate_for("machine2");
        assert_eq!(copy.machine(), "machine2");
        assert_eq!(copy.len(), trace.len());
        assert_eq!(
            copy.component_series(nodes::CPU).unwrap(),
            trace.component_series(nodes::CPU).unwrap()
        );
    }

    #[test]
    fn replication_shares_component_storage() {
        let trace = staircase_trace("server");
        let mut copy = trace.replicate_for("machine2");
        assert!(trace.shares_components_with(&copy));
        assert!(trace.shares_samples_with(&copy));
        // An independently built trace holds its own storage...
        let other = staircase_trace("server");
        assert!(!trace.shares_components_with(&other));
        assert!(!trace.shares_samples_with(&other));
        // ...and so does a CSV round-trip, with equal content.
        let mut buf = Vec::new();
        trace.write_csv(&mut buf).unwrap();
        let back = UtilizationTrace::read_csv_from(&buf[..]).unwrap();
        assert!(!trace.shares_components_with(&back));
        assert!(!trace.shares_samples_with(&back));
        assert_eq!(back.components(), trace.components());
        // A replica that takes a row copies the samples first and leaves
        // the original as it was; the names stay shared.
        copy.push_row(&[0.5, 0.5]).unwrap();
        assert!(!trace.shares_samples_with(&copy));
        assert!(trace.shares_components_with(&copy));
        assert_eq!((trace.len(), copy.len()), (600, 601));
        assert_eq!(copy.at(Seconds(600.0)).unwrap()[0].fraction(), 0.5);
        assert_eq!(trace.at(Seconds(600.0)).unwrap()[0].fraction(), 0.0);
    }

    #[test]
    fn offline_run_produces_a_full_log() {
        let model = presets::validation_machine();
        let trace = staircase_trace("server");
        let log = run_offline(&model, &trace, Default::default(), None).unwrap();
        assert_eq!(log.len(), 600);
        assert_eq!(log.columns().len(), model.nodes().len());
        // CPU heats while busy, cools after the load drops.
        let cpu = log.series(nodes::CPU).unwrap();
        assert!(
            cpu[299] > cpu[0] + 5.0,
            "cpu did not heat: {} -> {}",
            cpu[0],
            cpu[299]
        );
        assert!(cpu[599] < cpu[299], "cpu did not cool after idle");
    }

    #[test]
    fn offline_run_rejects_unknown_components() {
        let model = presets::validation_machine();
        let trace =
            UtilizationTrace::from_fn("server", 1.0, vec!["gpu".into()], 10, |_, _| 0.5).unwrap();
        assert!(run_offline(&model, &trace, Default::default(), None).is_err());
    }

    #[test]
    fn offline_run_applies_fiddle_scripts() {
        let model = presets::validation_machine_named("machine1");
        let trace = staircase_trace("machine1");
        let script =
            FiddleScript::parse("sleep 100\nfiddle machine1 temperature inlet 38.6\n").unwrap();
        let log = run_offline(&model, &trace, Default::default(), Some(&script)).unwrap();
        let inlet = log.series(nodes::INLET).unwrap();
        assert!((inlet[50] - 21.6).abs() < 1e-9);
        assert!((inlet[150] - 38.6).abs() < 1e-9);
    }

    #[test]
    fn offline_cluster_run_with_replicated_traces() {
        let cluster = presets::validation_cluster(2);
        let base = staircase_trace("machine1");
        let traces = vec![base.clone(), base.replicate_for("machine2")];
        let log = run_offline_cluster(&cluster, &traces, Default::default(), None).unwrap();
        assert_eq!(log.len(), 600);
        let c1 = log.series("machine1:cpu").unwrap();
        let c2 = log.series("machine2:cpu").unwrap();
        // Identical traces on identical machines give identical curves.
        for (a, b) in c1.iter().zip(&c2) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    /// The per-tick loop `run_offline_cluster` was before it moved onto
    /// the fed span: every cell through its solver by name, one
    /// `step()`, every temperature read back by name.
    fn offline_cluster_per_tick(
        model: &ClusterModel,
        traces: &[UtilizationTrace],
        script: Option<&FiddleScript>,
    ) -> TemperatureLog {
        let mut cluster = ClusterSolver::new(model, SolverConfig::default()).unwrap();
        let mut columns = Vec::new();
        for m in model.machines() {
            for node in m.nodes() {
                columns.push(format!("{}:{}", m.name(), node.name()));
            }
        }
        let mut log = TemperatureLog::new(columns);
        let mut runner = script.map(FiddleScript::runner);
        let max_duration = traces.iter().map(|t| t.duration().0).fold(0.0, f64::max);
        let ticks = (max_duration / cluster.machine_at(0).dt().0).round() as usize;
        for _ in 0..ticks {
            let now = cluster.time();
            if let Some(r) = runner.as_mut() {
                r.apply_due_to_cluster(now, &mut cluster).unwrap();
            }
            for (i, trace) in traces.iter().enumerate() {
                if let Some(row) = trace.at(now) {
                    let machine = cluster.machine_at_mut(i);
                    for (component, &u) in trace.components().iter().zip(row) {
                        machine.set_utilization(component, u).unwrap();
                    }
                }
            }
            cluster.step();
            let temps: Vec<Celsius> = (0..cluster.len())
                .flat_map(|i| cluster.machine_at(i).temperatures())
                .map(|(_, t)| t)
                .collect();
            log.push(cluster.time(), &temps).unwrap();
        }
        log
    }

    #[test]
    fn offline_cluster_log_matches_the_per_tick_loop() {
        let cluster = presets::validation_cluster(5);
        let components = vec![nodes::CPU.to_string(), nodes::DISK_PLATTERS.to_string()];
        // Unequal lengths and intervals: the short traces clamp to their
        // last row, the slow one holds each row for three ticks, and one
        // machine has no samples at all.
        let wave = |m: usize, interval: f64, rows: usize| {
            let name = format!("machine{}", m + 1);
            UtilizationTrace::from_fn(name, interval, components.clone(), rows, |t, c| {
                ((t * 0.37 + m as f64 + c as f64 * 0.5).sin() * 0.5 + 0.5).clamp(0.0, 1.0)
            })
            .unwrap()
        };
        let traces = vec![
            wave(0, 1.0, 90),
            wave(1, 1.0, 40),
            wave(2, 3.0, 20),
            UtilizationTrace::new("machine4", 1.0, components.clone()).unwrap(),
            wave(4, 1.0, 1),
        ];
        // Commands due mid-trace — a pin (the machine leaves its batch
        // group), a fan change, a power model, a release — two of them
        // on the same tick, plus one due before the first tick.
        let script = FiddleScript::parse(
            "fiddle machine2 fanspeed 30\n\
             sleep 17\n\
             fiddle machine1 temperature cpu 55\n\
             fiddle machine3 power cpu 9 40\n\
             sleep 20\n\
             fiddle machine1 release cpu\n\
             sleep 30.5\n\
             fiddle machine5 fanspeed 45\n",
        )
        .unwrap();
        for script in [None, Some(&script)] {
            let fed = run_offline_cluster(&cluster, &traces, Default::default(), script).unwrap();
            let reference = offline_cluster_per_tick(&cluster, &traces, script);
            assert_eq!(fed.len(), 90);
            assert_eq!(fed.columns(), reference.columns());
            let bits = |log: &TemperatureLog| -> Vec<u64> {
                log.rows.iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(fed.times(), reference.times());
            assert_eq!(
                bits(&fed),
                bits(&reference),
                "scripted: {}",
                script.is_some()
            );
        }
    }

    #[test]
    fn offline_cluster_requires_matching_trace_count() {
        let cluster = presets::validation_cluster(2);
        let base = staircase_trace("machine1");
        assert!(run_offline_cluster(&cluster, &[base], Default::default(), None).is_err());
    }

    #[test]
    fn utilization_trace_csv_round_trips() {
        let trace = staircase_trace("server");
        let mut buffer = Vec::new();
        trace.write_csv(&mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        assert!(text.starts_with("# machine=server interval_s=1"));
        let back = UtilizationTrace::read_csv_from(text.as_bytes()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn utilization_trace_csv_rejects_garbage() {
        let read = |text: &str| UtilizationTrace::read_csv_from(text.as_bytes());
        assert!(read("").is_err());
        assert!(read("time,cpu\n0,0.5\n").is_err()); // no header
        assert!(read("# machine=m interval_s=zero\ntime,cpu\n").is_err());
        let bad_row = "# machine=m interval_s=1\ntime,cpu\n0,not_a_number\n";
        assert!(read(bad_row).is_err());
        let wrong_width = "# machine=m interval_s=1\ntime,cpu\n0,0.5,0.9\n";
        assert!(read(wrong_width).is_err());
    }

    #[test]
    fn temperature_log_csv_and_stats() {
        let mut log = TemperatureLog::new(vec!["a".into(), "b".into()]);
        log.push(Seconds(1.0), &[Celsius(20.0), Celsius(30.0)])
            .unwrap();
        log.push(Seconds(2.0), &[Celsius(25.0), Celsius(28.0)])
            .unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log.max("a").unwrap(), 25.0);
        assert!(log.push(Seconds(3.0), &[Celsius(1.0)]).is_err());
        assert!(log.series("zzz").is_err());

        let mut csv = Vec::new();
        log.write_csv(&mut csv).unwrap();
        let text = String::from_utf8(csv).unwrap();
        assert_eq!(text.lines().next().unwrap(), "time,a,b");
        assert!(text.contains("1,20,30"));

        let mut other = TemperatureLog::new(vec!["a".into()]);
        other.push(Seconds(1.0), &[Celsius(21.0)]).unwrap();
        other.push(Seconds(2.0), &[Celsius(24.0)]).unwrap();
        let d = log.max_abs_difference("a", &other, "a").unwrap();
        assert!((d - 1.0).abs() < 1e-12);
    }
}
