//! Statistics and host probes shared by every workload.
//!
//! Nothing here knows about Mercury: order statistics over repeats,
//! the FNV-1a hash the output checks print, a seedable generator for
//! the dense corpus, and the two `/proc` readers (`VmHWM`, scheduler
//! run/wait time) with a `None` answer off Linux.

/// FNV-1a, 64 bit. Incremental, so a log can be hashed row by row
/// without first rendering it into one buffer.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer (little endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds one float by its bit pattern, so "equal hash" means
    /// bit-identical values, not values that print alike.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The hash so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of one buffer.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// The low 48 bits of a hash as a float: every value is exactly
/// representable, so a hash can travel as a metric and still compare
/// with `==` between two runs.
#[must_use]
pub fn hash48(hash: u64) -> f64 {
    (hash & 0xffff_ffff_ffff) as f64
}

/// SplitMix64: the benchmark's own input generator, so the dense corpus
/// depends on `--seed` and on nothing the program under test exports.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaNs were filtered"));
    v
}

/// Nearest-rank percentile (`p` in `(0, 100]`) of values already
/// sorted — ascending for the usual reading, descending to count from
/// the other side; `None` when there are no samples.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// The percentiles a latency is reported at, lowest first.
pub const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest rung of [`TAIL_LADDER`] that still has at least ten of
/// `samples` beyond it — a p99.9 of 2 000 samples is two samples, not a
/// percentile. `None` below twenty samples.
#[must_use]
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        // The small allowance keeps 100 000 × (100 − 99.99) % at ten
        // when the subtraction rounds a hair low.
        .rfind(|p| (samples as f64) * (100.0 - p) / 100.0 >= 10.0 - 1e-6)
}

/// Median of unsorted values (mean of the two middle ones for an even
/// count); `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Median, quartiles and relative spread of a set of repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// `(q3 − q1) / |median|`: the run-to-run spread as a share of the
    /// median, the figure a regression bound has to exceed. Zero for a
    /// zero median.
    #[must_use]
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method) computes them, so a spread printed here is
/// the spread the driver will see. `None` below two samples.
#[must_use]
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |k: usize| -> f64 {
        // Position k(n+1)/4 on a 1-based axis. The index is clamped into
        // the data but the weight is not, so tiny samples extrapolate —
        // Python does the same.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some(Summary {
        n,
        q1: cut(1),
        median: median(&v).expect("n >= 2"),
        q3: cut(3),
    })
}

/// Parses the `VmHWM` line of a `/proc/<pid>/status` document into
/// bytes.
#[must_use]
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
    kib.checked_mul(1024)
}

/// Peak resident set of this process in bytes; `None` off Linux.
#[must_use]
pub fn vm_hwm_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Scheduler accounting summed over the threads of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStat {
    /// Nanoseconds spent running on a CPU.
    pub run_ns: u64,
    /// Nanoseconds spent runnable but waiting for a CPU — time a noisy
    /// neighbour took from the measurement.
    pub wait_ns: u64,
}

/// Parses one `/proc/<pid>/task/<tid>/schedstat` line
/// (`run_ns wait_ns timeslices`).
#[must_use]
pub fn parse_schedstat(line: &str) -> Option<SchedStat> {
    let mut fields = line.split_whitespace();
    Some(SchedStat {
        run_ns: fields.next()?.parse().ok()?,
        wait_ns: fields.next()?.parse().ok()?,
    })
}

/// Run and run-queue-wait time of every live thread of this process;
/// `None` off Linux or where `schedstat` is not compiled in. Threads
/// that already exited are not counted, so take the reading before
/// joining the threads of interest.
#[must_use]
pub fn schedstat() -> Option<SchedStat> {
    #[cfg(target_os = "linux")]
    {
        let mut total = SchedStat::default();
        for entry in std::fs::read_dir("/proc/self/task").ok()? {
            let path = entry.ok()?.path().join("schedstat");
            // A thread can exit between the listing and the read.
            let Ok(text) = std::fs::read_to_string(path) else {
                continue;
            };
            let one = parse_schedstat(&text)?;
            total.run_ns += one.run_ns;
            total.wait_ns += one.wait_ns;
        }
        Some(total)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv1a::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn hash48_is_exact_and_float_hashing_sees_bits() {
        let h = 0xdead_beef_cafe_f00d_u64;
        assert_eq!(hash48(h) as u64, h & 0xffff_ffff_ffff);
        let (mut a, mut b) = (Fnv1a::default(), Fnv1a::default());
        a.write_f64(0.0);
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn splitmix_repeats_per_seed_and_stays_in_range() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let mut c = SplitMix64::new(8);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
        for _ in 0..1000 {
            let x = a.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), Some(50.0));
        assert_eq!(percentile_sorted(&v, 99.0), Some(99.0));
        assert_eq!(percentile_sorted(&v, 100.0), Some(100.0));
        assert_eq!(percentile_sorted(&v, 0.001), Some(1.0));
        assert_eq!(percentile_sorted(&[1.0, 2.0, 3.0], 50.0), Some(2.0));
        assert_eq!(percentile_sorted(&[], 50.0), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(5), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(50_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = summarize(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(summarize(&[1.0]), None);
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
    }

    #[test]
    fn proc_parsers() {
        let status = "Name:\tx\nVmPeak:\t  100 kB\nVmHWM:\t   15232 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(15232 * 1024));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tlots kB\n"), None);
        assert_eq!(
            parse_schedstat("123456 789 42\n"),
            Some(SchedStat {
                run_ns: 123_456,
                wait_ns: 789
            })
        );
        assert_eq!(parse_schedstat("123456\n"), None);
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn live_proc_readers_answer_on_linux() {
        assert!(vm_hwm_bytes().unwrap() > 0);
        // schedstat may be compiled out of a kernel; when present it
        // reports this thread as having run.
        if let Some(s) = schedstat() {
            assert!(s.run_ns > 0);
        }
    }
}
