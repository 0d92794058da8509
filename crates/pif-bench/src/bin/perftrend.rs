//! `perftrend` — the CI performance-trend gate.
//!
//! ```text
//! perftrend <committed.json> <fresh.json>
//! ```
//!
//! Compares a freshly measured `perfbench` report against the committed
//! `BENCH_engine.json` baseline with
//! [`pif_bench::report::compare_trend`]: a machine-calibration ratio
//! (median fresh/committed throughput across matching rows) absorbs the
//! CI-runner-vs-dev-machine speed gap, then any row falling more than
//! 30% below its calibrated expectation — or an exhaustive no-prefetch
//! row breaching the committed absolute smoke floor — is a regression.
//! Every row the two reports share is compared by that one rule.
//!
//! Exit status: `0` trend ok, `1` regression detected, `2` usage or
//! parse error. CI treats 1 as a failed gate and uploads both artifacts.

use pif_bench::report::{compare_trend, TREND_TOLERANCE};
use pif_obs::json::Json;

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perftrend: cannot read {path}: {e}");
        std::process::exit(2);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("perftrend: {path} does not parse: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [committed_path, fresh_path] = args.as_slice() else {
        eprintln!("usage: perftrend <committed.json> <fresh.json>");
        std::process::exit(2);
    };
    let committed = load(committed_path);
    let fresh = load(fresh_path);
    let report = compare_trend(&committed, &fresh).unwrap_or_else(|e| {
        eprintln!("perftrend: {e}");
        std::process::exit(2);
    });
    println!(
        "perftrend: {} rows compared, machine calibration {:.3}x, tolerance {:.0}%",
        report.rows_compared,
        report.calibration,
        TREND_TOLERANCE * 100.0
    );
    if report.passed() {
        println!("perftrend: trend ok — no row regressed past the calibrated floor");
        return;
    }
    eprintln!(
        "perftrend: REGRESSION — {} row(s) below the calibrated floor:",
        report.regressions.len()
    );
    for r in &report.regressions {
        eprintln!("  {r}");
    }
    std::process::exit(1);
}
