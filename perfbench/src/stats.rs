//! Sample summaries and process measurements.

use std::time::Duration;

/// A set of timing samples, in seconds.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64());
    }

    pub fn push_secs(&mut self, s: f64) {
        self.0.push(s);
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile (`p` in 0..=100); NaN when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    /// The median; for an even count, the mean of the two middle samples.
    pub fn median(&self) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        }
    }

    /// The mean of the middle half (the samples from the first to the
    /// third quartile); NaN when empty. Unlike the median it moves
    /// smoothly when samples fall into two modes in a varying mix.
    pub fn interquartile_mean(&self) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let middle = &v[n / 4..n - n / 4];
        middle.iter().sum::<f64>() / middle.len() as f64
    }

    /// The highest of p50/p90/p99/p99.9 that still has at least ten
    /// samples beyond it, as `(label, seconds)`; `None` below 20 samples.
    pub fn tail(&self) -> Option<(&'static str, f64)> {
        [("p99.9", 99.9), ("p99", 99.0), ("p90", 90.0), ("p50", 50.0)]
            .into_iter()
            .find(|&(_, p)| self.0.len() as f64 * (1.0 - p / 100.0) >= 10.0)
            .map(|(label, p)| (label, self.percentile(p)))
    }

    /// One human-readable line: median, the highest well-supported tail
    /// percentile, and the sample count, scaled by `scale` into `unit`.
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        let tail = match self.tail() {
            Some((label, v)) => format!(", {label} {:.4} {unit}", v * scale),
            // Too few for a tail: list them all.
            None => {
                let all: Vec<String> = self.0.iter().map(|v| format!("{:.4}", v * scale)).collect();
                format!(" [{}]", all.join(" "))
            }
        };
        format!(
            "median {:.4} {unit}{tail} (n={})",
            self.median() * scale,
            self.len()
        )
    }
}

/// The process's peak resident set size in MiB (`VmHWM`), or NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
