//! Metrics, order statistics, the host calibration kernel and the result
//! line.

use std::hint::black_box;
use std::time::Instant;

/// Named metrics with units, in the order they are printed.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The value of a metric pushed earlier.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| *n == name).map(|m| m.1)
    }

    /// Every metric, in push order.
    pub fn iter(&self) -> impl Iterator<Item = &(&'static str, f64, &'static str)> {
        self.0.iter()
    }
}

/// What one benchmark run did and measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs attempted.
    pub attempted: usize,
    /// Jobs that failed, were rejected, aborted a phase or failed an
    /// output check.
    pub failed: usize,
    /// One line per failed check.
    pub errors: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    /// Records a failed check; `failed` counts jobs and is kept by the
    /// caller.
    pub fn error(&mut self, message: String) {
        self.errors.push(message);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; a non-finite value is a bug
                // in the benchmark and must not pass as a measurement.
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with its wall time in milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = black_box(f());
    (result, ms_since(start))
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 for none.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Iterations of the calibration kernel (about 20 ms on a 2020s x86 core).
const CALIB_ITERS: u64 = 4_000_000;

/// The host calibration kernel: a fixed, dependent chain of SplitMix64
/// steps, timed three times; returns the median in milliseconds. It does
/// no work of the program, so its drift is the host's.
pub fn calib_ms() -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            timed(|| {
                let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
                for i in 0..CALIB_ITERS {
                    x ^= i;
                    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    x ^= x >> 31;
                }
                x
            })
            .1
        })
        .collect();
    median(&samples)
}

/// Peak resident memory of this process in MB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
