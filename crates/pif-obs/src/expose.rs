//! Exposition: renders a [`Registry`] as Prometheus text.
//!
//! The renderer is hand-rolled (no serde) and deterministic for a fixed
//! snapshot: metrics appear in registration order, histogram buckets in
//! ascending bound order. [`validate_prometheus`] is the other half of
//! the contract — `piflab metrics` checks every scrape of the daemon's
//! `metrics` verb with it and rejects malformed exposition text.

use std::fmt::Write as _;

use crate::metrics::{bucket_bound, MetricValue, Registry, HIST_BUCKETS};

/// Renders `registry` in the Prometheus text exposition format
/// (version 0.0.4).
///
/// Counters and gauges become single samples; a histogram named `h`
/// becomes cumulative `h_bucket{le="..."}` samples (upper bounds
/// `2^(i+1)-1` per log2 bucket, then `+Inf`), plus `h_sum` and
/// `h_count`. All-zero interior buckets are still emitted so scrapes
/// are fixed-shape.
pub fn render_prometheus(registry: &Registry) -> String {
    let mut out = String::new();
    for metric in registry.snapshot() {
        let name = &metric.name;
        let kind = metric.value.kind().as_str();
        if !metric.help.is_empty() {
            let _ = writeln!(out, "# HELP {name} {}", metric.help.replace('\n', " "));
        }
        let _ = writeln!(out, "# TYPE {name} {kind}");
        match &metric.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                let _ = writeln!(out, "{name} {v}");
            }
            MetricValue::Histogram(h) => {
                let mut cumulative = 0u64;
                for (i, count) in h.buckets.iter().enumerate().take(HIST_BUCKETS - 1) {
                    cumulative += count;
                    let bound = bucket_bound(i).expect("interior bucket has finite bound");
                    let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
                let _ = writeln!(out, "{name}_sum {}", h.sum);
                let _ = writeln!(out, "{name}_count {}", h.count());
            }
        }
    }
    out
}

fn valid_sample_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Checks that `text` is well-formed Prometheus exposition as produced
/// by [`render_prometheus`]: every line is a `# HELP`/`# TYPE` comment
/// or a `name[{labels}] value` sample with a valid metric name and an
/// integer value, and every sample's base name was announced by a
/// preceding `# TYPE` line. Returns the first offence.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    let mut typed: Vec<String> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                return Err(format!("line {n}: malformed TYPE comment"));
            };
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("line {n}: unknown metric type {kind:?}"));
            }
            if !valid_sample_name(name) {
                return Err(format!("line {n}: invalid metric name {name:?}"));
            }
            typed.push(name.to_owned());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (name_part, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {n}: sample missing value"))?;
        let base = name_part.split('{').next().unwrap_or(name_part);
        if let Some(labels) = name_part.strip_prefix(base) {
            if !labels.is_empty() && (!labels.starts_with('{') || !labels.ends_with('}')) {
                return Err(format!("line {n}: malformed label set {labels:?}"));
            }
        }
        if !valid_sample_name(base) {
            return Err(format!("line {n}: invalid sample name {base:?}"));
        }
        if value.parse::<u64>().is_err() {
            return Err(format!("line {n}: non-integer sample value {value:?}"));
        }
        let announced = typed.iter().any(|t| {
            base == t
                || (base.starts_with(t.as_str())
                    && matches!(&base[t.len()..], "_bucket" | "_sum" | "_count"))
        });
        if !announced {
            return Err(format!("line {n}: sample {base:?} has no preceding TYPE"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> Registry {
        let reg = Registry::new();
        reg.counter("pif_jobs_total", "Jobs completed.").add(5);
        reg.gauge("pif_queue_depth", "Current queue depth.").set(2);
        let h = reg.histogram("pif_exec_us", "Per-job execution time.");
        h.record(0);
        h.record(3);
        h.record(1_000_000);
        reg
    }

    #[test]
    fn prometheus_text_is_valid_and_cumulative() {
        let text = render_prometheus(&sample_registry());
        validate_prometheus(&text).expect("own exposition must validate");
        assert!(text.contains("# TYPE pif_jobs_total counter\npif_jobs_total 5\n"));
        assert!(text.contains("# TYPE pif_exec_us histogram\n"));
        assert!(text.contains("pif_exec_us_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("pif_exec_us_bucket{le=\"3\"} 2\n"));
        assert!(text.contains("pif_exec_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("pif_exec_us_sum 1000003\n"));
        assert!(text.ends_with("pif_exec_us_count 3\n"));
    }

    #[test]
    fn cumulative_bucket_counts_are_monotone() {
        let text = render_prometheus(&sample_registry());
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("pif_exec_us_bucket")) {
            let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(value >= last, "cumulative counts must be monotone: {line}");
            last = value;
        }
        assert_eq!(last, 3, "+Inf bucket must equal the sample count");
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(
            validate_prometheus("pif_x 1\n").is_err(),
            "sample without TYPE"
        );
        assert!(validate_prometheus("# TYPE pif_x counter\npif_x nan\n").is_err());
        assert!(validate_prometheus("# TYPE 9bad counter\n").is_err());
        assert!(validate_prometheus("# TYPE pif_x summary\n").is_err());
        assert!(validate_prometheus("").is_ok(), "empty exposition is fine");
    }
}
