//! Experiment time-series logs.

use std::io::Write;

/// One recorded second of an experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRow {
    /// Simulated time, seconds.
    pub time_s: u64,
    /// Per-server CPU temperature, °C.
    pub cpu_temp: Vec<f64>,
    /// Per-server disk temperature, °C.
    pub disk_temp: Vec<f64>,
    /// Per-server CPU utilization over the second.
    pub cpu_util: Vec<f64>,
    /// Per-server LVS weight.
    pub weight: Vec<f64>,
    /// Per-server active connections.
    pub connections: Vec<usize>,
    /// Servers accepting connections.
    pub active_servers: usize,
    /// Requests offered this second.
    pub offered: usize,
    /// Requests dropped this second.
    pub dropped: usize,
    /// Requests completed this second.
    pub completed: usize,
    /// Request-seconds accumulated this second (for Little's-law response
    /// times).
    pub request_seconds: f64,
}

/// The full record of one experiment run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExperimentLog {
    /// Policy name the run used.
    pub policy: String,
    rows: Vec<LogRow>,
}

impl ExperimentLog {
    /// Creates an empty log for the named policy.
    pub fn new(policy: impl Into<String>) -> Self {
        ExperimentLog {
            policy: policy.into(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, row: LogRow) {
        self.rows.push(row);
    }

    /// All rows, in time order.
    pub fn rows(&self) -> &[LogRow] {
        &self.rows
    }

    /// Number of recorded seconds.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total offered requests.
    pub fn total_offered(&self) -> u64 {
        self.rows.iter().map(|r| r.offered as u64).sum()
    }

    /// Total dropped requests.
    pub fn total_dropped(&self) -> u64 {
        self.rows.iter().map(|r| r.dropped as u64).sum()
    }

    /// Mean response time of completed requests over the run, seconds
    /// (Little's law). Zero when nothing completed.
    pub fn mean_response_time_s(&self) -> f64 {
        let completed: u64 = self.rows.iter().map(|r| r.completed as u64).sum();
        if completed == 0 {
            return 0.0;
        }
        let request_seconds: f64 = self.rows.iter().map(|r| r.request_seconds).sum();
        request_seconds / completed as f64
    }

    /// Fraction of offered requests that were dropped.
    pub fn drop_rate(&self) -> f64 {
        let offered = self.total_offered();
        if offered == 0 {
            0.0
        } else {
            self.total_dropped() as f64 / offered as f64
        }
    }

    /// Peak CPU temperature reached by one server over the run.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range for the recorded rows.
    pub fn max_cpu_temp(&self, server: usize) -> f64 {
        self.rows
            .iter()
            .map(|r| r.cpu_temp[server])
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Seconds one server's CPU spent above a temperature.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range for the recorded rows.
    pub fn seconds_above(&self, server: usize, celsius: f64) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.cpu_temp[server] > celsius)
            .count() as u64
    }

    /// The first time a server's CPU exceeded a temperature, if ever.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range for the recorded rows.
    pub fn first_crossing(&self, server: usize, celsius: f64) -> Option<u64> {
        self.rows
            .iter()
            .find(|r| r.cpu_temp[server] > celsius)
            .map(|r| r.time_s)
    }

    /// Mean number of active servers over the run (Freon-EC's thick line).
    pub fn mean_active_servers(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows
            .iter()
            .map(|r| r.active_servers as f64)
            .sum::<f64>()
            / self.rows.len() as f64
    }

    /// Writes the log as CSV: time, then per-server temp/util/weight
    /// blocks, then cluster-wide columns.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_csv<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        let n = self.rows.first().map(|r| r.cpu_temp.len()).unwrap_or(0);
        write!(w, "time")?;
        for i in 0..n {
            write!(
                w,
                ",cpu_temp_m{0},disk_temp_m{0},cpu_util_m{0},weight_m{0},conns_m{0}",
                i + 1
            )?;
        }
        writeln!(w, ",active_servers,offered,dropped,completed")?;
        for r in &self.rows {
            write!(w, "{}", r.time_s)?;
            for i in 0..n {
                write!(
                    w,
                    ",{:.3},{:.3},{:.4},{:.4},{}",
                    r.cpu_temp[i], r.disk_temp[i], r.cpu_util[i], r.weight[i], r.connections[i]
                )?;
            }
            writeln!(
                w,
                ",{},{},{},{}",
                r.active_servers, r.offered, r.dropped, r.completed
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(t: u64, temp: f64, dropped: usize) -> LogRow {
        LogRow {
            time_s: t,
            cpu_temp: vec![temp, 50.0],
            disk_temp: vec![40.0, 40.0],
            cpu_util: vec![0.5, 0.5],
            weight: vec![1.0, 1.0],
            connections: vec![3, 4],
            active_servers: 2,
            offered: 100,
            dropped,
            completed: 100 - dropped,
            request_seconds: (100 - dropped) as f64 * 0.03,
        }
    }

    #[test]
    fn aggregates() {
        let mut log = ExperimentLog::new("freon");
        log.push(row(0, 60.0, 0));
        log.push(row(1, 68.0, 10));
        log.push(row(2, 66.0, 0));
        assert_eq!(log.len(), 3);
        assert_eq!(log.total_offered(), 300);
        assert_eq!(log.total_dropped(), 10);
        assert!((log.drop_rate() - 10.0 / 300.0).abs() < 1e-12);
        assert_eq!(log.max_cpu_temp(0), 68.0);
        assert_eq!(log.seconds_above(0, 65.0), 2);
        assert_eq!(log.first_crossing(0, 67.0), Some(1));
        assert_eq!(log.first_crossing(1, 67.0), None);
        assert_eq!(log.mean_active_servers(), 2.0);
        assert!((log.mean_response_time_s() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn empty_log_is_harmless() {
        let log = ExperimentLog::new("x");
        assert!(log.is_empty());
        assert_eq!(log.drop_rate(), 0.0);
        assert_eq!(log.mean_active_servers(), 0.0);
        assert_eq!(log.mean_response_time_s(), 0.0);
        let mut out = Vec::new();
        log.write_csv(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 1);
    }

    #[test]
    fn csv_has_per_server_blocks() {
        let mut log = ExperimentLog::new("freon");
        log.push(row(0, 60.0, 0));
        let mut out = Vec::new();
        log.write_csv(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let header = text.lines().next().unwrap();
        assert!(header.contains("cpu_temp_m1"));
        assert!(header.contains("weight_m2"));
        assert!(header.ends_with("active_servers,offered,dropped,completed"));
        assert_eq!(text.lines().count(), 2);
    }
}
