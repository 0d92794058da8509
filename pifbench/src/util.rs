//! Small helpers: order statistics, a seeded generator, peak memory, and
//! the JSON rendering of benchmark lines.

use std::time::{Duration, Instant};

/// Linear-interpolated quantile of `values` (`q` in `0..=1`), the
/// definition `statistics.quantiles(..., method="inclusive")` uses.
/// Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The fast decile (10th percentile) of a run's samples of one host time:
/// the rule every end-to-end time of a run follows. Other tenants of a
/// shared host only ever add time, and their load comes and goes within
/// seconds, so the lower tail of many short operations is the program's
/// own cost, while a run's median moves with whatever else the host runs.
pub fn fast(values: &[f64]) -> f64 {
    quantile(values, 0.1)
}

/// Operation latencies of a run, kept per timed pass (a sweep's cells, a
/// pass's submits). The run's p50 and p90 are the fast deciles over passes
/// of each pass's own p50 and p90, so they follow the same rule as
/// `wall_s`: a pass slowed by host noise moves neither.
#[derive(Debug, Default)]
pub struct PassLatencies {
    p50: Vec<f64>,
    p90: Vec<f64>,
    samples: usize,
}

impl PassLatencies {
    pub fn push(&mut self, pass_ms: &[f64]) {
        self.p50.push(quantile(pass_ms, 0.5));
        self.p90.push(quantile(pass_ms, 0.9));
        self.samples += pass_ms.len();
    }

    pub fn samples(&self) -> usize {
        self.samples
    }

    pub fn p50(&self) -> f64 {
        fast(&self.p50)
    }

    pub fn p90(&self) -> f64 {
        fast(&self.p90)
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with the elapsed wall time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// SplitMix64: the benchmark's own input generator, so request lists
/// depend on `--seed` alone and not on any program crate.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x005e_ed0f_be9c_4a11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a 64 of a byte string, for short digests of report bytes.
pub fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", pif_trace::hash::fnv1a_64_once(bytes))
}

/// JSON string literal.
pub fn jstr(s: &str) -> String {
    format!("\"{}\"", pif_lab::json::escape(s))
}

/// JSON number with every digit of the measurement (shortest round
/// trip); non-finite values render as 0 so a line always parses.
pub fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_inclusively() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.9), 3.7);
        assert!((fast(&v) - 1.3).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn splitmix_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = SplitMix::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(SplitMix::new(8).next_u64(), a[0]);
    }
}
