//! The `pif-bench-engine/v3` throughput report: rendering, validation,
//! the `--smoke` floor verdict, and the cross-run **trend gate**.
//!
//! Extracted from the `perfbench` binary so the verdict logic is unit
//! tested. The crucial ordering contract: **the floor verdict is
//! computed before any artifact is written**, and the verdict itself is
//! embedded in the JSON (`"smoke_passed"`), so a failing smoke run can
//! never leave a passing-looking report on disk.
//!
//! # Schema v3
//!
//! v3 is the only schema the gate reads (v1 and v2 documents are
//! rejected by name):
//!
//! * `"smoke_passed"` is **absent** on full (non-smoke) runs — present
//!   iff a verdict was actually computed, so consumers can distinguish
//!   "gate not applicable" from "gate forgot to run";
//! * `"results"` holds one throughput row per (workload, prefetcher),
//!   `instrs_per_sec` = simulated instructions per wall-clock second.
//!   Rows whose prefetcher label ends in `-sampled` time a sampled run's
//!   windows (warm-up included) instead of one exhaustive run.
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
//! the fresh exhaustive no-prefetch rows as a backstop (the same floor
//! logic as the smoke gate, with the same 30% noise allowance).

use pif_obs::json::{escape as json_escape, Json};

/// The schema name every report carries.
const SCHEMA: &str = "pif-bench-engine/v3";

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
    /// Instructions simulated in the measured run.
    pub instructions: u64,
    /// Best-of-N wall-clock seconds.
    pub elapsed_s: f64,
    /// Useful IPC of the run (the mean over windows for a sampled run).
    pub uipc: f64,
}

impl RunResult {
    /// Simulated instructions per wall-clock second.
    pub fn ips(&self) -> f64 {
        self.instructions as f64 / self.elapsed_s
    }
}

/// The effective smoke gate: 30% below the committed floor, absorbing
/// CI-runner noise.
pub fn smoke_threshold_ips() -> f64 {
    SMOKE_FLOOR_IPS * 0.7
}

/// The smoke verdict for a measured no-prefetch throughput.
pub fn smoke_passed(none_ips: f64) -> bool {
    none_ips >= smoke_threshold_ips()
}

/// The minimum exhaustive no-prefetch throughput across results (the
/// gated value).
pub fn none_ips(results: &[RunResult]) -> f64 {
    results
        .iter()
        .filter(|r| r.prefetcher == "None")
        .map(RunResult::ips)
        .fold(f64::MAX, f64::min)
}

/// Renders the `pif-bench-engine/v3` JSON document.
///
/// `smoke_passed` is the floor verdict for smoke runs; `None` (full
/// runs, where no gate applies) **omits the key** rather than rendering
/// `null`, so its presence always means a verdict was computed. Callers
/// must compute the verdict **before** rendering/writing so the artifact
/// is honest about failure. `probe_overhead_pct` is the measured
/// wall-clock cost of running with a live `EngineProbe` vs the `NoProbe`
/// default (`null` when the pair was not measured).
pub fn render_json(
    results: &[RunResult],
    instructions: usize,
    smoke: bool,
    smoke_passed: Option<bool>,
    probe_overhead_pct: Option<f64>,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
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
    s.push_str(&format!("  \"instructions_per_run\": {instructions},\n"));
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
    s.push_str("  ]\n}\n");
    s
}

/// Validates that `s` is one well-formed JSON document (via the
/// workspace JSON parser, which rejects anything malformed with a byte
/// offset).
///
/// # Errors
///
/// Returns the parser's message on malformed input.
pub fn validate_json(s: &str) -> Result<(), String> {
    Json::parse(s).map(|_| ())
}

/// Structurally validates a parsed `pif-bench-engine/v3` report: schema
/// name, the absent-or-bool `smoke_passed` contract, and a key and a
/// numeric throughput on every `results` row.
///
/// # Errors
///
/// A message naming the first offending field.
pub fn validate_engine_report(doc: &Json) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing schema")?;
    if schema != SCHEMA {
        return Err(format!("unknown schema {schema:?} (expected {SCHEMA:?})"));
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
    throughput_rows(doc).map(|_| ())
}

/// One regression found by [`compare_trend`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrendRegression {
    /// Row identity, e.g. `OLTP-DB2/PIF`.
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

/// Outcome of a trend comparison: the calibration ratio actually used
/// and any rows that regressed past it.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendReport {
    /// Median fresh/committed throughput ratio over matching rows — the
    /// machine-speed calibration.
    pub calibration: f64,
    /// Matching (committed, fresh) row pairs compared.
    pub rows_compared: usize,
    /// Rows regressing more than [`TREND_TOLERANCE`] below calibration,
    /// or exhaustive no-prefetch rows falling through the absolute floor.
    pub regressions: Vec<TrendRegression>,
}

impl TrendReport {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Every `results` row of a report as (`workload/prefetcher`,
/// `instrs_per_sec`).
fn throughput_rows(doc: &Json) -> Result<Vec<(String, f64)>, String> {
    let rows = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("results must be an array")?;
    rows.iter()
        .map(|r| {
            let field = |name: &str| {
                r.get(name)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("results row lacks {name}"))
            };
            let key = format!("{}/{}", field("workload")?, field("prefetcher")?);
            let ips = r
                .get("instrs_per_sec")
                .and_then(Json::as_f64)
                .ok_or("results row lacks numeric instrs_per_sec")?;
            Ok((key, ips))
        })
        .collect()
}

/// Compares a fresh engine report against the committed baseline and
/// flags throughput regressions, machine-independently (see the module
/// docs for the calibration scheme).
///
/// Every row present in both reports is compared by the same rule. Rows
/// present in only one report are ignored (new benchmarks appear, old
/// ones retire); the gate needs at least one matching row.
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

    let pairs: Vec<(&str, f64, f64)> = committed_rows
        .iter()
        .filter_map(|(key, c_ips)| {
            let (_, f_ips) = fresh_rows.iter().find(|(k, _)| k == key)?;
            Some((key.as_str(), *c_ips, *f_ips))
        })
        .collect();
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
    for &(key, c_ips, f_ips) in &pairs {
        let required = c_ips * calibration * (1.0 - TREND_TOLERANCE);
        if f_ips < required {
            regressions.push(TrendRegression {
                row: key.to_string(),
                committed_ips: c_ips,
                fresh_ips: f_ips,
                required_ips: required,
            });
        }
    }

    // Absolute backstop: whatever the calibration says, the fresh
    // exhaustive no-prefetch rows must still clear the committed smoke
    // floor (with the same 30% noise allowance the smoke gate applies).
    // A calibration ratio cannot talk the gate out of a machine-wide
    // collapse.
    let floor = committed
        .get("smoke_floor_instrs_per_sec")
        .and_then(Json::as_f64)
        .expect("validated above");
    for (key, ips) in &fresh_rows {
        if key.ends_with("/None") && *ips < floor * (1.0 - TREND_TOLERANCE) {
            let already = regressions.iter().any(|r| &r.row == key);
            if !already {
                regressions.push(TrendRegression {
                    row: key.clone(),
                    committed_ips: floor,
                    fresh_ips: *ips,
                    required_ips: floor * (1.0 - TREND_TOLERANCE),
                });
            }
        }
    }

    Ok(TrendReport {
        calibration,
        rows_compared: pairs.len(),
        regressions,
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
        // A slow sampled None row is not the exhaustive engine the floor
        // gates.
        let mut with_sampled = sample(0.01);
        with_sampled.push(RunResult {
            workload: "OLTP-DB2".into(),
            prefetcher: "None-sampled",
            instructions: 300_000,
            elapsed_s: 1.0,
            uipc: 1.5,
        });
        assert!((none_ips(&with_sampled) - 30.0e6).abs() < 1.0);
    }

    #[test]
    fn failing_smoke_run_renders_an_honest_artifact() {
        let slow = sample(1.0);
        let verdict = smoke_passed(none_ips(&slow));
        assert!(!verdict);
        let json = render_json(&slow, 300_000, true, Some(verdict), None);
        validate_json(&json).expect("artifact parses");
        let doc = Json::parse(&json).unwrap();
        validate_engine_report(&doc).expect("artifact validates");
        assert_eq!(doc.get("smoke_passed").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("smoke").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("probe_overhead_pct"), Some(&Json::Null));
    }

    #[test]
    fn full_run_omits_the_verdict_entirely() {
        // Full runs omit the key, so presence always means a computed
        // verdict.
        let json = render_json(&sample(0.01), 2_000_000, false, None, None);
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
        let json = render_json(&sample(0.01), 300_000, true, Some(true), None);
        let doc = Json::parse(&json).unwrap();
        validate_engine_report(&doc).expect("bool verdict validates");
        // A document with a null verdict violates the contract.
        let null_verdict = json.replace("\"smoke_passed\": true", "\"smoke_passed\": null");
        let doc = Json::parse(&null_verdict).unwrap();
        let err = validate_engine_report(&doc).unwrap_err();
        assert!(err.contains("absent or a bool"), "{err}");
    }

    #[test]
    fn probe_overhead_renders_as_a_number_when_measured() {
        let json = render_json(&sample(0.01), 2_000_000, false, None, Some(1.234));
        validate_json(&json).expect("artifact parses");
        let doc = Json::parse(&json).unwrap();
        let pct = doc
            .get("probe_overhead_pct")
            .and_then(Json::as_f64)
            .expect("probe_overhead_pct is a number");
        assert!((pct - 1.23).abs() < 1e-9, "rounded to 2 decimals: {pct}");
    }

    #[test]
    fn validate_rejects_garbage() {
        assert!(validate_json("{\"a\": }").is_err());
        assert!(validate_json("{} trailing").is_err());
        let json = render_json(&sample(0.01), 300_000, false, None, None);
        // Only v3 is read: a v1 document is an unknown schema.
        let v1 = Json::parse(&json.replace(SCHEMA, "pif-bench-engine/v1")).unwrap();
        let err = validate_engine_report(&v1).unwrap_err();
        assert!(err.contains("unknown schema"), "{err}");
        // Every row needs its key and a numeric throughput.
        let no_rate = Json::parse(&json.replace("\"instrs_per_sec\": ", "\"ips\": ")).unwrap();
        let err = validate_engine_report(&no_rate).unwrap_err();
        assert!(err.contains("instrs_per_sec"), "{err}");
    }

    #[test]
    fn a_v2_document_is_rejected_by_its_schema() {
        // The retired shape: a v2 schema name, `host_cores`, and an
        // `aggregate` array of fan-out rows beside `results`.
        let v3 = render_json(&sample(0.01), 300_000, false, None, None);
        let v2 = v3
            .replace(SCHEMA, "pif-bench-engine/v2")
            .replace(
                "  \"instructions_per_run\"",
                "  \"failpoint_overhead_pct\": 1.10,\n  \"host_cores\": 1,\n  \"instructions_per_run\"",
            )
            .replace(
                "  ]\n}\n",
                "  ],\n  \"aggregate\": [\n    {\"workload\": \"OLTP-DB2\", \"prefetcher\": \"PIF\", \
                 \"threads\": 1, \"windows\": 30, \"instructions\": 1200000, \"elapsed_s\": 0.1, \
                 \"aggregate_instrs_per_sec\": 12000000.0, \"parallel_speedup\": 1.0}\n  ]\n}\n",
            );
        let v2 = Json::parse(&v2).expect("the v2 shape parses");
        assert!(v2.get("aggregate").is_some() && v2.get("host_cores").is_some());
        let err = validate_engine_report(&v2).unwrap_err();
        assert!(err.contains("pif-bench-engine/v2"), "{err}");
        let v3 = Json::parse(&v3).unwrap();
        let err = compare_trend(&v2, &v3).unwrap_err();
        assert!(
            err.starts_with("committed report: unknown schema \"pif-bench-engine/v2\""),
            "{err}"
        );
    }

    // --- trend gate ---

    /// Renders a full-mode report with exhaustive None and PIF rows at
    /// `none_mips` and `pif_mips`, and sampled None and PIF rows at
    /// `sampled_mips` and half that.
    fn trend_doc(none_mips: f64, pif_mips: f64, sampled_mips: f64) -> Json {
        let row = |prefetcher, mips: f64| RunResult {
            workload: "OLTP-DB2".into(),
            prefetcher,
            instructions: 1_000_000,
            elapsed_s: 1.0 / mips,
            uipc: 1.5,
        };
        let results = vec![
            row("None", none_mips),
            row("PIF", pif_mips),
            row("None-sampled", sampled_mips),
            row("PIF-sampled", sampled_mips / 2.0),
        ];
        Json::parse(&render_json(&results, 1_000_000, false, None, None)).unwrap()
    }

    #[test]
    fn identical_reports_pass_the_trend_gate() {
        let doc = trend_doc(30.0, 15.0, 20.0);
        let report = compare_trend(&doc, &doc).unwrap();
        assert!(report.passed(), "{:?}", report.regressions);
        assert_eq!(report.rows_compared, 4);
        assert!((report.calibration - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_uniformly_slower_machine_is_calibrated_away() {
        // A CI runner 3x slower than the dev machine that committed the
        // baseline: every ratio is 1/3, the median calibration absorbs
        // it, nothing trips.
        let committed = trend_doc(30.0, 15.0, 20.0);
        let fresh = trend_doc(10.0, 5.0, 6.67);
        let report = compare_trend(&committed, &fresh).unwrap();
        assert!(report.passed(), "{:?}", report.regressions);
        assert!((report.calibration - 1.0 / 3.0).abs() < 0.01);
    }

    #[test]
    fn a_single_row_regression_trips_the_gate() {
        let committed = trend_doc(30.0, 15.0, 20.0);
        // PIF alone collapses to 35% of its committed throughput; the
        // other rows hold, so calibration stays ~1 and PIF trips.
        let fresh = trend_doc(30.0, 15.0 * 0.35, 20.0);
        let report = compare_trend(&committed, &fresh).unwrap();
        assert!(!report.passed());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].row, "OLTP-DB2/PIF");
    }

    #[test]
    fn a_sampled_row_regression_trips_the_gate() {
        // Sampled windows collapse to 40% (a per-window cost grew); the
        // exhaustive rows hold the calibration at ~1.
        let committed = trend_doc(30.0, 15.0, 20.0);
        let fresh = trend_doc(30.0, 15.0, 8.0);
        let report = compare_trend(&committed, &fresh).unwrap();
        assert!(!report.passed());
        let rows: Vec<&str> = report.regressions.iter().map(|r| r.row.as_str()).collect();
        assert_eq!(rows, ["OLTP-DB2/None-sampled", "OLTP-DB2/PIF-sampled"]);
        assert_eq!(report.rows_compared, 4);
    }

    #[test]
    fn the_absolute_floor_catches_a_machine_wide_collapse() {
        // Every row 100x slower: calibration alone would pass it (the
        // trend is "consistent"), but the fresh None row lands below the
        // committed absolute smoke floor and the backstop trips. The
        // floor reads only the exhaustive None row.
        let committed = trend_doc(30.0, 15.0, 20.0);
        let fresh = trend_doc(0.3, 0.15, 0.2);
        let report = compare_trend(&committed, &fresh).unwrap();
        assert!(!report.passed());
        let rows: Vec<&str> = report.regressions.iter().map(|r| r.row.as_str()).collect();
        assert_eq!(rows, ["OLTP-DB2/None"]);
    }
}
