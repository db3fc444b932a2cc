//! The frame every workload runs in: repeated set-up, a window of
//! fixed-work units, and the closing host readings.

use crate::report::Outcome;
use crate::stats::{median, percentile_sorted, schedstat, vm_hwm_bytes, SchedStat};
use std::path::PathBuf;
use std::time::Instant;

/// Errors cross the harness as boxed trait objects; every layer has its
/// own error type and the benchmark only ever prints them.
pub type Result<T = ()> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Fewest times a run sets up. `setup_s` is the median, so one cold
/// corpus generation or one slow page-in does not decide it.
pub const SETUP_REPEATS: usize = 3;

/// Most times a run sets up: set-ups of a few milliseconds are repeated
/// until [`SETUP_BUDGET_S`] is spent, because the median of three
/// 10 ms intervals moves by more than a quarter between identical runs.
pub const SETUP_REPEATS_MAX: usize = 15;

/// Wall time after which no further set-up is started.
pub const SETUP_BUDGET_S: f64 = 1.0;

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Seed every input is made from.
    pub seed: u64,
    /// Length of the measurement window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub traced: bool,
    /// 1/200-scale sizes.
    pub smoke: bool,
    /// Directory the corpora live under.
    pub data_root: PathBuf,
}

/// Runs `setup` between [`SETUP_REPEATS`] and [`SETUP_REPEATS_MAX`]
/// times, dropping each result before the next begins, and returns the
/// last one with the median duration.
///
/// # Errors
///
/// The first error `setup` returns.
pub fn timed_setups<T>(mut setup: impl FnMut() -> Result<T>) -> Result<(T, f64)> {
    let mut times = Vec::with_capacity(SETUP_REPEATS_MAX);
    let mut last = None;
    let began = Instant::now();
    while times.len() < SETUP_REPEATS
        || (times.len() < SETUP_REPEATS_MAX && began.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((
        last.expect("SETUP_REPEATS is positive"),
        median(&times).expect("SETUP_REPEATS is positive"),
    ))
}

/// Repeats `unit` until `seconds` have passed since the first began,
/// and at least `min_units` times. `unit` gets its index and returns
/// whatever it measured.
///
/// # Errors
///
/// The first error `unit` returns.
pub fn run_units<T>(
    seconds: f64,
    min_units: usize,
    mut unit: impl FnMut(usize) -> Result<T>,
) -> Result<Vec<T>> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_units || started.elapsed().as_secs_f64() < seconds {
        out.push(unit(out.len())?);
    }
    Ok(out)
}

/// Median of `f` over `items`; 0 for none.
pub fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// The rate of the fastest decile of units: the nearest-rank 10th
/// percentile counted from the fast side of `rate` over `items` (the
/// fastest unit below twenty units); 0 for none.
///
/// Why not the median: every unit is the same work, and on a shared
/// host interference only ever adds time, in phases that outlast a run.
/// Ten 25 s runs of `replay_steady` on the reference host gave medians
/// of unit time spread over 10.3 % (quartile distance over median) and
/// fastest deciles over 2.4 %; `freon_closed_loop`, with ten units a
/// run, 21.9 % against 10.6 %. The driver's medians and quartiles over
/// runs are taken of this figure, so the noise floor stays in view.
pub fn fast_decile_of<T>(items: &[T], rate: impl Fn(&T) -> f64) -> f64 {
    let mut rates: Vec<f64> = items.iter().map(rate).collect();
    rates.sort_by(|a, b| b.partial_cmp(a).expect("rates are finite"));
    percentile_sorted(&rates, 10.0).unwrap_or(0.0)
}

/// Scheduler accounting of a run: started before set-up, read when the
/// run ends and before its threads are joined.
#[derive(Debug, Clone, Copy)]
pub struct HostClock(Option<SchedStat>);

impl HostClock {
    /// Starts the clock.
    #[must_use]
    pub fn start() -> Self {
        HostClock(schedstat())
    }

    /// Records `peak_rss_mb` for an untraced run, or the `host.*`
    /// readings for a traced one.
    pub fn finish(self, traced: bool, outcome: &mut Outcome) {
        if traced {
            if let (Some(a), Some(b)) = (self.0, schedstat()) {
                outcome.set(
                    "host.cpu_s",
                    b.run_ns.saturating_sub(a.run_ns) as f64 * 1e-9,
                );
                outcome.set(
                    "host.runqueue_wait_s",
                    b.wait_ns.saturating_sub(a.wait_ns) as f64 * 1e-9,
                );
            }
            let threads = std::thread::available_parallelism().map_or(0, |p| p.get());
            outcome.set("host.threads_available", threads as f64);
            outcome.set(
                "check.failed_share",
                outcome.failed as f64 / outcome.attempted.max(1) as f64,
            );
        } else if let Some(bytes) = vm_hwm_bytes() {
            outcome.set("peak_rss_mb", bytes as f64 / (1024.0 * 1024.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setups_repeat_and_units_fill_the_window() {
        let mut calls = 0;
        let (last, med) = timed_setups(|| {
            calls += 1;
            Ok(calls)
        })
        .unwrap();
        // Instant set-ups are repeated up to the cap.
        assert_eq!((calls, last), (SETUP_REPEATS_MAX, SETUP_REPEATS_MAX));
        assert!(med >= 0.0);
        // Slow ones stop at the floor once the budget is spent.
        let mut calls = 0;
        timed_setups(|| {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_secs_f64(SETUP_BUDGET_S / 2.5));
            Ok(())
        })
        .unwrap();
        assert_eq!(calls, SETUP_REPEATS);

        let units = run_units(0.0, 3, Ok).unwrap();
        assert_eq!(units, [0, 1, 2]);
        let units = run_units(0.02, 1, |i| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            Ok(i)
        })
        .unwrap();
        assert!(units.len() >= 2 && units.len() <= 5, "{units:?}");
        assert!(run_units(0.0, 1, |_| -> Result<()> { Err("boom".into()) }).is_err());
        assert_eq!(median_of(&[1.0, 9.0, 2.0], |x| *x), 2.0);
        assert_eq!(median_of(&[] as &[f64], |x| *x), 0.0);
        let rates: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(fast_decile_of(&rates, |x| *x), 28.0);
        assert_eq!(fast_decile_of(&rates[..10], |x| *x), 10.0);
        assert_eq!(fast_decile_of(&rates[..1], |x| *x), 1.0);
        assert_eq!(fast_decile_of(&[] as &[f64], |x| *x), 0.0);
    }

    #[test]
    fn host_clock_reports_by_run_kind() {
        let mut untraced = Outcome::new();
        HostClock::start().finish(false, &mut untraced);
        let mut traced = Outcome::new();
        traced.tally(4, 1, "ops");
        HostClock::start().finish(true, &mut traced);
        assert_eq!(traced.get("check.failed_share"), Some(0.25));
        assert!(traced.get("host.threads_available").unwrap() >= 1.0);
        if cfg!(target_os = "linux") {
            assert!(untraced.get("peak_rss_mb").unwrap() > 0.0);
        }
    }
}
