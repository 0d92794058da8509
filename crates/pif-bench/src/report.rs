//! The `pif-bench-engine/v2` throughput report: rendering, validation,
//! the `--smoke` floor verdict, and the cross-run **trend gate**.
//!
//! Extracted from the `perfbench` binary so the verdict logic is unit
//! tested. The crucial ordering contract: **the floor verdict is
//! computed before any artifact is written**, and the verdict itself is
//! embedded in the JSON (`"smoke_passed"`), so a failing smoke run can
//! never leave a passing-looking report on disk.
//!
//! # Schema v2
//!
//! v2 is the only schema the gate reads:
//!
//! * `"smoke_passed"` is **absent** on full (non-smoke) runs — present
//!   iff a verdict was actually computed, so consumers can distinguish
//!   "gate not applicable" from "gate forgot to run";
//! * an `"aggregate"` array records parallel sampled-execution
//!   throughput rows (`aggregate_instrs_per_sec` = instructions the
//!   whole fan-out retired per wall-clock second at a given thread
//!   count), alongside the serial per-engine `"results"` rows;
//! * `"host_cores"` records the measuring machine's available
//!   parallelism (see below).
//!
//! # The trend gate
//!
//! [`compare_trend`] compares a freshly measured report against the
//! committed one **without trusting absolute numbers**: CI runners and
//! dev machines differ by integer factors. It first estimates a
//! machine-calibration ratio (the median of fresh/committed across
//! matching rows — robust to a few genuine regressions), then flags any
//! row whose own ratio falls more than [`TREND_TOLERANCE`] below that
//! calibration. A uniformly slower machine moves every ratio equally and
//! passes; a hot-loop regression moves the affected rows against the
//! rest and trips. The committed absolute smoke floor still applies to
//! the fresh no-prefetch rows as a backstop (the same floor logic as the
//! smoke gate, with the same 30% noise allowance).
//!
//! ## Host portability of aggregate rows
//!
//! Serial `results` rows scale with single-core speed, which the
//! calibration absorbs. Parallel `aggregate` rows do not: an 8-thread
//! fan-out on a 2-core host is bounded by core count, not code quality,
//! and would trip the gate on any small CI runner. The v2 schema
//! therefore records `host_cores` (the measuring machine's available
//! parallelism), and [`compare_trend`] skips — rather than compares —
//! aggregate rows whose thread count exceeds the fresh host's cores, and
//! all multi-threaded aggregate rows whenever the fresh host's core
//! count differs from the one the baseline recorded (their speedup
//! ratios are not comparable across machine shapes). Skips are reported
//! in [`TrendReport::skipped`], never silently.

/// Committed throughput floor for the `--smoke` regression gate, in
/// retired instructions per second of the no-prefetch configuration.
/// Chosen far below the development machine's ~70 Minstr/s so that slow
/// CI runners pass comfortably while a hot-loop regression (which shows
/// up as a multiple, not a percentage) still trips it.
pub const SMOKE_FLOOR_IPS: f64 = 4.0e6;

/// Pre-refactor throughput on the development machine (PR 2 tree, commit
/// `7b07f0d`; 2M-instruction OLTP-DB2 trace), quoted in the report so the
/// speedup of the flat-cache/zero-allocation refactor stays on record.
pub const PRIOR_NONE_IPS: f64 = 29.2e6;
/// Pre-refactor PIF-configuration throughput (see [`PRIOR_NONE_IPS`]).
pub const PRIOR_PIF_IPS: f64 = 15.6e6;

/// Fractional slack a row gets below the machine-calibrated expectation
/// before the trend gate trips — the same 30% the smoke floor allows for
/// runner noise.
pub const TREND_TOLERANCE: f64 = 0.30;

/// One measured (workload, prefetcher) throughput point.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Prefetcher label.
    pub prefetcher: &'static str,
    /// Retired instructions in the measured run.
    pub instructions: u64,
    /// Best-of-N wall-clock seconds.
    pub elapsed_s: f64,
    /// Useful IPC of the run.
    pub uipc: f64,
}

impl RunResult {
    /// Retired instructions per wall-clock second.
    pub fn ips(&self) -> f64 {
        self.instructions as f64 / self.elapsed_s
    }
}

/// One parallel sampled-execution throughput point: a whole sampled run
/// (every window, warmup included) fanned out at `threads` workers.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateResult {
    /// Workload name.
    pub workload: String,
    /// Prefetcher label.
    pub prefetcher: &'static str,
    /// Worker threads in the fan-out.
    pub threads: usize,
    /// Sample windows executed.
    pub windows: usize,
    /// Total instructions simulated across all windows (warmup +
    /// measurement).
    pub instructions: u64,
    /// Wall-clock seconds for the whole fan-out.
    pub elapsed_s: f64,
    /// Wall-clock seconds of the serial driver over the same plan, for
    /// the recorded speedup.
    pub serial_elapsed_s: f64,
}

impl AggregateResult {
    /// Aggregate simulated instructions per wall-clock second across the
    /// fan-out.
    pub fn aggregate_ips(&self) -> f64 {
        self.instructions as f64 / self.elapsed_s
    }

    /// Wall-clock speedup of the fan-out over the serial driver.
    pub fn parallel_speedup(&self) -> f64 {
        self.serial_elapsed_s / self.elapsed_s
    }
}

/// The effective smoke gate: 30% below the committed floor, absorbing
/// CI-runner noise.
pub fn smoke_threshold_ips() -> f64 {
    SMOKE_FLOOR_IPS * 0.7
}

/// The measuring host's available parallelism, recorded in the report as
/// `host_cores` so a trend comparison can tell machine-shape differences
/// from regressions.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The smoke verdict for a measured no-prefetch throughput.
pub fn smoke_passed(none_ips: f64) -> bool {
    none_ips >= smoke_threshold_ips()
}

/// The minimum no-prefetch throughput across results (the gated value).
pub fn none_ips(results: &[RunResult]) -> f64 {
    results
        .iter()
        .filter(|r| r.prefetcher == "None")
        .map(RunResult::ips)
        .fold(f64::MAX, f64::min)
}

use pif_lab::json::{escape as json_escape, Json};

/// Renders the `pif-bench-engine/v2` JSON document.
///
/// `smoke_passed` is the floor verdict for smoke runs; `None` (full
/// runs, where no gate applies) **omits the key** rather than rendering
/// `null`, so its presence always means a verdict was computed. Callers
/// must compute the verdict **before** rendering/writing so the artifact
/// is honest about failure. `probe_overhead_pct` is the measured
/// wall-clock cost of running with a live `EngineProbe` vs the `NoProbe`
/// default, and `failpoint_overhead_pct` the cost of a
/// `fail_point!`-bearing hot loop vs its plain twin — near zero in
/// default builds, where the macro erases at compile time (either
/// renders as `null` when the pair was not measured). `aggregates` rows
/// record parallel sampled throughput; the array renders empty when the
/// aggregate mode did not run. `host_cores` is the measuring machine's
/// available parallelism (pass [`host_cores()`]) — the trend gate uses it
/// to keep aggregate rows portable across machine shapes.
#[allow(clippy::too_many_arguments)] // one flat field list, same order as the document
pub fn render_json(
    results: &[RunResult],
    aggregates: &[AggregateResult],
    instructions: usize,
    smoke: bool,
    smoke_passed: Option<bool>,
    probe_overhead_pct: Option<f64>,
    failpoint_overhead_pct: Option<f64>,
    host_cores: usize,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"pif-bench-engine/v2\",\n");
    s.push_str(&format!("  \"smoke\": {smoke},\n"));
    if let Some(v) = smoke_passed {
        s.push_str(&format!("  \"smoke_passed\": {v},\n"));
    }
    s.push_str(&format!(
        "  \"probe_overhead_pct\": {},\n",
        match probe_overhead_pct {
            Some(v) => format!("{v:.2}"),
            None => "null".to_string(),
        }
    ));
    s.push_str(&format!(
        "  \"failpoint_overhead_pct\": {},\n",
        match failpoint_overhead_pct {
            Some(v) => format!("{v:.2}"),
            None => "null".to_string(),
        }
    ));
    s.push_str(&format!("  \"instructions_per_run\": {instructions},\n"));
    s.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    s.push_str(&format!(
        "  \"smoke_floor_instrs_per_sec\": {SMOKE_FLOOR_IPS:.1},\n"
    ));
    s.push_str(
        "  \"prior\": {\n    \"note\": \"pre-refactor throughput (heap-allocating hot loop, \
         pointer-chasing cache layout) on the same development machine\",\n",
    );
    s.push_str(&format!(
        "    \"none_instrs_per_sec\": {PRIOR_NONE_IPS:.1},\n    \"pif_instrs_per_sec\": {PRIOR_PIF_IPS:.1}\n  }},\n"
    ));
    s.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": \"{}\", \"prefetcher\": \"{}\", \"instructions\": {}, \
             \"elapsed_s\": {:.6}, \"instrs_per_sec\": {:.1}, \"uipc\": {:.4}}}{}\n",
            json_escape(&r.workload),
            json_escape(r.prefetcher),
            r.instructions,
            r.elapsed_s,
            r.ips(),
            r.uipc,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"aggregate\": [\n");
    for (i, a) in aggregates.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": \"{}\", \"prefetcher\": \"{}\", \"threads\": {}, \
             \"windows\": {}, \"instructions\": {}, \"elapsed_s\": {:.6}, \
             \"aggregate_instrs_per_sec\": {:.1}, \"parallel_speedup\": {:.3}}}{}\n",
            json_escape(&a.workload),
            json_escape(a.prefetcher),
            a.threads,
            a.windows,
            a.instructions,
            a.elapsed_s,
            a.aggregate_ips(),
            a.parallel_speedup(),
            if i + 1 == aggregates.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Validates that `s` is one well-formed JSON document (via the pif-lab
/// parser, which rejects anything malformed with a byte offset).
///
/// # Errors
///
/// Returns the parser's message on malformed input.
pub fn validate_json(s: &str) -> Result<(), String> {
    Json::parse(s).map(|_| ())
}

/// Structurally validates a parsed `pif-bench-engine/v2` report: schema
/// name, the absent-or-bool `smoke_passed` contract, `host_cores`, and
/// numeric throughput fields on every `results`/`aggregate` row.
///
/// # Errors
///
/// A message naming the first offending field.
pub fn validate_engine_report(doc: &Json) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing schema")?;
    if schema != "pif-bench-engine/v2" {
        return Err(format!("unknown schema {schema:?}"));
    }
    doc.get("smoke")
        .and_then(Json::as_bool)
        .ok_or("smoke must be a bool")?;
    match doc.get("smoke_passed") {
        None => {}
        Some(v) if v.as_bool().is_some() => {}
        Some(_) => return Err("smoke_passed must be absent or a bool".to_string()),
    }
    doc.get("smoke_floor_instrs_per_sec")
        .and_then(Json::as_f64)
        .ok_or("smoke_floor_instrs_per_sec must be a number")?;
    host_cores_of(doc)?;
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("results must be an array")?;
    for r in results {
        result_key(r)?;
        r.get("instrs_per_sec")
            .and_then(Json::as_f64)
            .ok_or("results row lacks numeric instrs_per_sec")?;
    }
    let aggs = doc
        .get("aggregate")
        .and_then(Json::as_arr)
        .ok_or("aggregate must be an array")?;
    for a in aggs {
        aggregate_key(a)?;
        a.get("aggregate_instrs_per_sec")
            .and_then(Json::as_f64)
            .ok_or("aggregate row lacks numeric aggregate_instrs_per_sec")?;
    }
    Ok(())
}

/// The report's recorded `host_cores`.
fn host_cores_of(doc: &Json) -> Result<u64, String> {
    doc.get("host_cores")
        .and_then(Json::as_f64)
        .map(|v| v as u64)
        .ok_or_else(|| "host_cores must be a number".to_string())
}

/// One regression found by [`compare_trend`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrendRegression {
    /// Row identity, e.g. `OLTP-DB2/PIF` or `aggregate OLTP-DB2/PIF@8`.
    pub row: String,
    /// Committed throughput for the row.
    pub committed_ips: f64,
    /// Freshly measured throughput for the row.
    pub fresh_ips: f64,
    /// The calibrated minimum the row had to clear.
    pub required_ips: f64,
}

impl std::fmt::Display for TrendRegression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {:.2} Minstr/s < required {:.2} Minstr/s (committed {:.2})",
            self.row,
            self.fresh_ips / 1e6,
            self.required_ips / 1e6,
            self.committed_ips / 1e6
        )
    }
}

/// One matching row [`compare_trend`] declined to compare, and why —
/// aggregate rows whose thread count the fresh host cannot express, or
/// whose speedup is not comparable across machine shapes.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendSkip {
    /// Row identity, e.g. `aggregate OLTP-DB2/PIF@8`.
    pub row: String,
    /// Human-readable reason for the skip.
    pub reason: String,
}

impl std::fmt::Display for TrendSkip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.row, self.reason)
    }
}

/// Outcome of a trend comparison: the calibration ratio actually used,
/// any rows that regressed past it, and any rows skipped as
/// host-incomparable.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendReport {
    /// Median fresh/committed throughput ratio over matching rows — the
    /// machine-speed calibration.
    pub calibration: f64,
    /// Matching (committed, fresh) row pairs considered.
    pub rows_compared: usize,
    /// Rows regressing more than [`TREND_TOLERANCE`] below calibration,
    /// or no-prefetch rows falling through the absolute floor.
    pub regressions: Vec<TrendRegression>,
    /// Matching rows excluded from the comparison because the host's
    /// core count makes them incomparable (see the module docs). Never
    /// silent: callers should surface these.
    pub skipped: Vec<TrendSkip>,
}

impl TrendReport {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

fn result_key(row: &Json) -> Result<String, String> {
    let w = row
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("results row lacks workload")?;
    let p = row
        .get("prefetcher")
        .and_then(Json::as_str)
        .ok_or("results row lacks prefetcher")?;
    Ok(format!("{w}/{p}"))
}

fn aggregate_key(row: &Json) -> Result<String, String> {
    let w = row
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("aggregate row lacks workload")?;
    let p = row
        .get("prefetcher")
        .and_then(Json::as_str)
        .ok_or("aggregate row lacks prefetcher")?;
    let t = row
        .get("threads")
        .and_then(Json::as_f64)
        .ok_or("aggregate row lacks threads")?;
    Ok(format!("aggregate {w}/{p}@{t}"))
}

/// One throughput row extracted for the trend comparison. `threads` is
/// `Some` exactly for `aggregate` rows — the marker the host-portability
/// skip logic keys on.
struct ThroughputRow {
    key: String,
    ips: f64,
    threads: Option<u64>,
}

/// Extracts every throughput row of a report: `results` rows keyed
/// `workload/prefetcher` with `instrs_per_sec`, and `aggregate` rows
/// keyed `aggregate workload/prefetcher@threads` with
/// `aggregate_instrs_per_sec`.
fn throughput_rows(doc: &Json) -> Result<Vec<ThroughputRow>, String> {
    let mut rows = Vec::new();
    for r in doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("results must be an array")?
    {
        let ips = r
            .get("instrs_per_sec")
            .and_then(Json::as_f64)
            .ok_or("results row lacks numeric instrs_per_sec")?;
        rows.push(ThroughputRow {
            key: result_key(r)?,
            ips,
            threads: None,
        });
    }
    for a in doc
        .get("aggregate")
        .and_then(Json::as_arr)
        .ok_or("aggregate must be an array")?
    {
        let ips = a
            .get("aggregate_instrs_per_sec")
            .and_then(Json::as_f64)
            .ok_or("aggregate row lacks numeric aggregate_instrs_per_sec")?;
        let threads = a
            .get("threads")
            .and_then(Json::as_f64)
            .ok_or("aggregate row lacks threads")? as u64;
        rows.push(ThroughputRow {
            key: aggregate_key(a)?,
            ips,
            threads: Some(threads),
        });
    }
    Ok(rows)
}

/// Compares a fresh engine report against the committed baseline and
/// flags throughput regressions, machine-independently (see the module
/// docs for the calibration scheme).
///
/// Rows present in only one report are ignored (new benchmarks appear,
/// old ones retire); the gate needs at least one matching row. Aggregate
/// rows are matched by thread count (it is part of their key), and a
/// matching aggregate row is **skipped** — reported in
/// [`TrendReport::skipped`], excluded from calibration and the
/// regression check — when its thread count exceeds the fresh host's
/// recorded `host_cores`, or when it is multi-threaded and the two
/// reports were measured on hosts with different core counts (parallel
/// speedup does not transfer across machine shapes).
///
/// # Errors
///
/// A message if either document is structurally invalid or no rows
/// match.
pub fn compare_trend(committed: &Json, fresh: &Json) -> Result<TrendReport, String> {
    validate_engine_report(committed).map_err(|e| format!("committed report: {e}"))?;
    validate_engine_report(fresh).map_err(|e| format!("fresh report: {e}"))?;
    let committed_rows = throughput_rows(committed)?;
    let fresh_rows = throughput_rows(fresh)?;
    let committed_cores = host_cores_of(committed)?;
    let fresh_cores = host_cores_of(fresh)?;

    let mut pairs: Vec<(String, f64, f64)> = Vec::new();
    let mut skipped = Vec::new();
    for row in &committed_rows {
        let Some(f) = fresh_rows.iter().find(|f| f.key == row.key) else {
            continue;
        };
        let skip = match row.threads {
            Some(threads) if threads > fresh_cores => Some(format!(
                "{threads}-thread fan-out exceeds this host's {fresh_cores} cores"
            )),
            Some(threads) if threads > 1 && committed_cores != fresh_cores => Some(format!(
                "parallel speedup is not comparable: baseline measured on \
                 {committed_cores} cores, this host has {fresh_cores}"
            )),
            _ => None,
        };
        if let Some(reason) = skip {
            skipped.push(TrendSkip {
                row: row.key.clone(),
                reason,
            });
            continue;
        }
        pairs.push((row.key.clone(), row.ips, f.ips));
    }
    if pairs.is_empty() {
        return Err("no matching throughput rows between the reports".to_string());
    }

    // Machine calibration: the median fresh/committed ratio. Robust to a
    // minority of genuine regressions — those sit below the median and
    // are exactly what the per-row check then catches.
    let mut ratios: Vec<f64> = pairs.iter().map(|(_, c, f)| f / c).collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("throughput ratios are finite"));
    let calibration = if ratios.len() % 2 == 1 {
        ratios[ratios.len() / 2]
    } else {
        (ratios[ratios.len() / 2 - 1] + ratios[ratios.len() / 2]) / 2.0
    };

    let mut regressions = Vec::new();
    for (key, c_ips, f_ips) in &pairs {
        let required = c_ips * calibration * (1.0 - TREND_TOLERANCE);
        if *f_ips < required {
            regressions.push(TrendRegression {
                row: key.clone(),
                committed_ips: *c_ips,
                fresh_ips: *f_ips,
                required_ips: required,
            });
        }
    }

    // Absolute backstop: whatever the calibration says, the fresh
    // no-prefetch engine rows must still clear the committed smoke floor
    // (with the same 30% noise allowance the smoke gate applies). A
    // calibration ratio cannot talk the gate out of a machine-wide
    // collapse.
    let floor = committed
        .get("smoke_floor_instrs_per_sec")
        .and_then(Json::as_f64)
        .expect("validated above");
    for row in &fresh_rows {
        let is_none_engine_row = row.threads.is_none() && row.key.ends_with("/None");
        if is_none_engine_row && row.ips < floor * (1.0 - TREND_TOLERANCE) {
            let already = regressions.iter().any(|r| r.row == row.key);
            if !already {
                regressions.push(TrendRegression {
                    row: row.key.clone(),
                    committed_ips: floor,
                    fresh_ips: row.ips,
                    required_ips: floor * (1.0 - TREND_TOLERANCE),
                });
            }
        }
    }

    Ok(TrendReport {
        calibration,
        rows_compared: pairs.len(),
        regressions,
        skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(elapsed_s: f64) -> Vec<RunResult> {
        vec![
            RunResult {
                workload: "OLTP-DB2".into(),
                prefetcher: "None",
                instructions: 300_000,
                elapsed_s,
                uipc: 1.5,
            },
            RunResult {
                workload: "OLTP-DB2".into(),
                prefetcher: "PIF",
                instructions: 300_000,
                elapsed_s: elapsed_s * 2.0,
                uipc: 2.0,
            },
        ]
    }

    fn sample_aggregates() -> Vec<AggregateResult> {
        vec![AggregateResult {
            workload: "OLTP-DB2".into(),
            prefetcher: "PIF",
            threads: 8,
            windows: 30,
            instructions: 1_200_000,
            elapsed_s: 0.01,
            serial_elapsed_s: 0.06,
        }]
    }

    #[test]
    fn verdict_trips_only_below_the_noisy_floor() {
        assert!(smoke_passed(SMOKE_FLOOR_IPS));
        assert!(smoke_passed(smoke_threshold_ips()));
        assert!(!smoke_passed(smoke_threshold_ips() * 0.99));
    }

    #[test]
    fn none_ips_picks_the_gated_configuration() {
        let results = sample(0.01); // None: 30 Minstr/s
        assert!((none_ips(&results) - 30.0e6).abs() < 1.0);
        assert!(smoke_passed(none_ips(&results)));
        let slow = sample(1.0); // None: 0.3 Minstr/s — regression
        assert!(!smoke_passed(none_ips(&slow)));
    }

    #[test]
    fn failing_smoke_run_renders_an_honest_artifact() {
        let slow = sample(1.0);
        let verdict = smoke_passed(none_ips(&slow));
        assert!(!verdict);
        let json = render_json(&slow, &[], 300_000, true, Some(verdict), None, None, 8);
        validate_json(&json).expect("artifact parses");
        let doc = Json::parse(&json).unwrap();
        validate_engine_report(&doc).expect("artifact validates");
        assert_eq!(doc.get("smoke_passed").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("smoke").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("probe_overhead_pct"), Some(&Json::Null));
        assert_eq!(doc.get("failpoint_overhead_pct"), Some(&Json::Null));
    }

    #[test]
    fn full_run_omits_the_verdict_entirely() {
        // Full runs omit the key, so presence always means a computed
        // verdict.
        let json = render_json(&sample(0.01), &[], 2_000_000, false, None, None, None, 8);
        validate_json(&json).expect("artifact parses");
        let doc = Json::parse(&json).unwrap();
        validate_engine_report(&doc).expect("artifact validates");
        assert_eq!(doc.get("smoke_passed"), None);
        assert_eq!(
            doc.get("results").and_then(Json::as_arr).map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn absent_or_bool_is_enforced_by_the_validator() {
        let json = render_json(&sample(0.01), &[], 300_000, true, Some(true), None, None, 8);
        let doc = Json::parse(&json).unwrap();
        validate_engine_report(&doc).expect("bool verdict validates");
        // A v2 document with a null verdict violates the contract.
        let null_verdict = json.replace("\"smoke_passed\": true", "\"smoke_passed\": null");
        let doc = Json::parse(&null_verdict).unwrap();
        let err = validate_engine_report(&doc).unwrap_err();
        assert!(err.contains("absent or a bool"), "{err}");
    }

    #[test]
    fn aggregate_rows_render_and_validate() {
        let json = render_json(
            &sample(0.01),
            &sample_aggregates(),
            2_000_000,
            false,
            None,
            None,
            None,
            8,
        );
        validate_json(&json).expect("artifact parses");
        let doc = Json::parse(&json).unwrap();
        validate_engine_report(&doc).expect("artifact validates");
        let aggs = doc.get("aggregate").and_then(Json::as_arr).unwrap();
        assert_eq!(aggs.len(), 1);
        let a = &aggs[0];
        assert_eq!(a.get("threads").and_then(Json::as_f64), Some(8.0));
        let ips = a
            .get("aggregate_instrs_per_sec")
            .and_then(Json::as_f64)
            .unwrap();
        assert!((ips - 120.0e6).abs() < 1e3, "1.2M instrs / 0.01s: {ips}");
        let speedup = a.get("parallel_speedup").and_then(Json::as_f64).unwrap();
        assert!((speedup - 6.0).abs() < 1e-9);
    }

    #[test]
    fn probe_overhead_renders_as_a_number_when_measured() {
        let json = render_json(
            &sample(0.01),
            &[],
            2_000_000,
            false,
            None,
            Some(1.234),
            None,
            8,
        );
        validate_json(&json).expect("artifact parses");
        let doc = Json::parse(&json).unwrap();
        let pct = doc
            .get("probe_overhead_pct")
            .and_then(Json::as_f64)
            .expect("probe_overhead_pct is a number");
        assert!((pct - 1.23).abs() < 1e-9, "rounded to 2 decimals: {pct}");
        assert_eq!(doc.get("failpoint_overhead_pct"), Some(&Json::Null));
    }

    #[test]
    fn failpoint_overhead_renders_as_a_number_when_measured() {
        // Negative residuals (the failpointed loop winning a coin flip on
        // a quiet machine) must render as plain numbers, not vanish.
        let json = render_json(
            &sample(0.01),
            &[],
            2_000_000,
            false,
            None,
            None,
            Some(-0.057),
            8,
        );
        validate_json(&json).expect("artifact parses");
        let doc = Json::parse(&json).unwrap();
        let pct = doc
            .get("failpoint_overhead_pct")
            .and_then(Json::as_f64)
            .expect("failpoint_overhead_pct is a number");
        assert!((pct - -0.06).abs() < 1e-9, "rounded to 2 decimals: {pct}");
    }

    #[test]
    fn validate_rejects_garbage() {
        assert!(validate_json("{\"a\": }").is_err());
        assert!(validate_json("{} trailing").is_err());
        let json = render_json(&sample(0.01), &[], 300_000, false, None, None, None, 8);
        // Only v2 is read: a v1 document is an unknown schema.
        let v1 = Json::parse(&json.replace("pif-bench-engine/v2", "pif-bench-engine/v1")).unwrap();
        let err = validate_engine_report(&v1).unwrap_err();
        assert!(err.contains("unknown schema"), "{err}");
        // `host_cores` is required.
        assert!(json.contains("  \"host_cores\": 8,\n"), "{json}");
        let no_cores = Json::parse(&json.replace("  \"host_cores\": 8,\n", "")).unwrap();
        let err = validate_engine_report(&no_cores).unwrap_err();
        assert!(err.contains("host_cores"), "{err}");
        let err = compare_trend(&no_cores, &Json::parse(&json).unwrap()).unwrap_err();
        assert!(err.contains("committed report: host_cores"), "{err}");
    }

    // --- trend gate ---

    /// Renders a full-mode report whose None row runs at `none_mips` and
    /// PIF row at half that, plus one aggregate row at `agg_mips`,
    /// measured on an 8-core host.
    fn trend_doc(none_mips: f64, pif_mips: f64, agg_mips: f64) -> Json {
        trend_doc_on(8, none_mips, pif_mips, agg_mips)
    }

    /// [`trend_doc`] with an explicit recorded `host_cores`.
    fn trend_doc_on(cores: usize, none_mips: f64, pif_mips: f64, agg_mips: f64) -> Json {
        let results = vec![
            RunResult {
                workload: "OLTP-DB2".into(),
                prefetcher: "None",
                instructions: 1_000_000,
                elapsed_s: 1.0 / none_mips,
                uipc: 1.5,
            },
            RunResult {
                workload: "OLTP-DB2".into(),
                prefetcher: "PIF",
                instructions: 1_000_000,
                elapsed_s: 1.0 / pif_mips,
                uipc: 2.0,
            },
        ];
        let aggregates = vec![AggregateResult {
            workload: "OLTP-DB2".into(),
            prefetcher: "PIF",
            threads: 8,
            windows: 30,
            instructions: 1_000_000,
            elapsed_s: 1.0 / agg_mips,
            serial_elapsed_s: 2.0 / agg_mips,
        }];
        Json::parse(&render_json(
            &results,
            &aggregates,
            1_000_000,
            false,
            None,
            None,
            None,
            cores,
        ))
        .unwrap()
    }

    #[test]
    fn identical_reports_pass_the_trend_gate() {
        let doc = trend_doc(30.0, 15.0, 100.0);
        let report = compare_trend(&doc, &doc).unwrap();
        assert!(report.passed(), "{:?}", report.regressions);
        assert_eq!(report.rows_compared, 3);
        assert!((report.calibration - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_uniformly_slower_machine_is_calibrated_away() {
        // A CI runner 3x slower than the dev machine that committed the
        // baseline: every ratio is 1/3, the median calibration absorbs
        // it, nothing trips.
        let committed = trend_doc(30.0, 15.0, 100.0);
        let fresh = trend_doc(10.0, 5.0, 33.3);
        let report = compare_trend(&committed, &fresh).unwrap();
        assert!(report.passed(), "{:?}", report.regressions);
        assert!((report.calibration - 1.0 / 3.0).abs() < 0.01);
    }

    #[test]
    fn a_single_row_regression_trips_the_gate() {
        let committed = trend_doc(30.0, 15.0, 100.0);
        // PIF alone collapses to 35% of its committed throughput; the
        // other rows hold, so calibration stays ~1 and PIF trips.
        let fresh = trend_doc(30.0, 15.0 * 0.35, 100.0);
        let report = compare_trend(&committed, &fresh).unwrap();
        assert!(!report.passed());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].row, "OLTP-DB2/PIF");
    }

    #[test]
    fn an_aggregate_row_regression_trips_the_gate() {
        let committed = trend_doc(30.0, 15.0, 100.0);
        let fresh = trend_doc(30.0, 15.0, 30.0);
        let report = compare_trend(&committed, &fresh).unwrap();
        assert!(!report.passed());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].row, "aggregate OLTP-DB2/PIF@8");
    }

    #[test]
    fn the_absolute_floor_catches_a_machine_wide_collapse() {
        // Every row 100x slower: calibration alone would pass it (the
        // trend is "consistent"), but the fresh None row lands below the
        // committed absolute smoke floor and the backstop trips.
        let committed = trend_doc(30.0, 15.0, 100.0);
        let fresh = trend_doc(0.3, 0.15, 1.0);
        let report = compare_trend(&committed, &fresh).unwrap();
        assert!(!report.passed());
        assert!(
            report.regressions.iter().any(|r| r.row == "OLTP-DB2/None"),
            "{:?}",
            report.regressions
        );
    }

    #[test]
    fn a_fan_out_wider_than_the_host_is_skipped_not_failed() {
        // Baseline recorded on a 16-core dev machine; fresh run on a
        // 2-core CI runner where the 8-thread fan-out collapses. The old
        // gate flagged that collapse as a regression; now the row is
        // skipped with a reason and the serial rows still gate.
        let committed = trend_doc_on(16, 30.0, 15.0, 100.0);
        let fresh = trend_doc_on(2, 30.0, 15.0, 12.0);
        let report = compare_trend(&committed, &fresh).unwrap();
        assert!(report.passed(), "{:?}", report.regressions);
        assert_eq!(report.rows_compared, 2, "only the serial rows compare");
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].row, "aggregate OLTP-DB2/PIF@8");
        assert!(
            report.skipped[0]
                .reason
                .contains("exceeds this host's 2 cores"),
            "{}",
            report.skipped[0].reason
        );
        // The skip is not a free pass for serial code: a genuine engine
        // regression on the same small host still trips.
        let regressed = trend_doc_on(2, 30.0, 15.0 * 0.35, 12.0);
        let report = compare_trend(&committed, &regressed).unwrap();
        assert!(!report.passed());
        assert_eq!(report.regressions[0].row, "OLTP-DB2/PIF");
    }

    #[test]
    fn differing_core_counts_exclude_speedup_sensitive_rows() {
        // The other mismatch direction: the fresh host is *wider* than
        // the baseline's (8-thread fan-out fits both), but parallel
        // speedup still does not transfer across machine shapes — the
        // aggregate row is excluded from the 30% check in either
        // direction, with the skip recorded.
        let committed = trend_doc_on(4, 30.0, 15.0, 100.0);
        let fresh = trend_doc_on(32, 30.0, 15.0, 320.0);
        let report = compare_trend(&committed, &fresh).unwrap();
        assert!(report.passed(), "{:?}", report.regressions);
        assert_eq!(report.rows_compared, 2);
        assert_eq!(report.skipped.len(), 1);
        assert!(
            report.skipped[0]
                .reason
                .contains("baseline measured on 4 cores, this host has 32"),
            "{}",
            report.skipped[0].reason
        );
        // And the collapse direction on the same shapes: a wild aggregate
        // value must not drag the calibration or trip the gate either.
        let fresh = trend_doc_on(32, 30.0, 15.0, 9.0);
        let report = compare_trend(&committed, &fresh).unwrap();
        assert!(report.passed(), "{:?}", report.regressions);
        assert_eq!(report.skipped.len(), 1);
    }
}
