//! Self-check of the benchmark harness at tiny size:
//!
//! * every metric `BENCHMARK.json` names prints with its unit, in the
//!   untraced and the traced run of every workload;
//! * exact counts (simulated statistics, executed and cached cells, cache
//!   hits and misses) repeat across runs with the same seed;
//! * the None-cell account of the traced run adds up to the cell time;
//! * a deliberately corrupted reference is caught as a failed operation.
//!
//! Run with `cargo test --release --manifest-path pifbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

use pif_lab::json::Json;

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(j: &Json, key: &str) -> Vec<(String, String)> {
    j.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

struct Run {
    code: i32,
    lines: Vec<String>,
    result: Json,
}

impl Run {
    /// The line that starts with `{"<key>":`, verbatim.
    fn line(&self, key: &str) -> Option<&str> {
        let prefix = format!("{{\"{key}\":");
        self.lines
            .iter()
            .find(|l| l.starts_with(&prefix))
            .map(String::as_str)
    }

    fn metric(&self, name: &str) -> f64 {
        self.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("metric {name} missing"))
    }
}

fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Run {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("harness");
    let out = Command::new(env!("CARGO_BIN_EXE_pifbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0.01",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"])
        .arg("--work-dir")
        .arg(&work)
        .args(extra)
        .output()
        .expect("run pifbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let last = lines.last().expect("a result line");
    Run {
        code: out.status.code().unwrap_or(-1),
        result: Json::parse(last).expect("result line parses"),
        lines,
    }
}

const WORKLOADS: [&str; 4] = [
    "fig10-paper",
    "fig9-history-paper",
    "pifd-cold",
    "pifd-warm",
];

#[test]
fn every_named_metric_prints_with_its_unit_and_counts_repeat() {
    let bench = benchmark_json();
    let listed: Vec<String> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(listed, WORKLOADS);
    for workload in WORKLOADS {
        let mut exact = Vec::new();
        for (trace, key) in [
            (false, "end_to_end"),
            (true, "per_layer"),
            (false, "end_to_end"),
        ] {
            let r = run(workload, 7, trace, &[]);
            assert_eq!(r.code, 0, "{workload} trace={trace}: {:?}", r.lines);
            assert_eq!(r.result.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(r.result.get("failed").and_then(Json::as_f64), Some(0.0));
            let metrics = r
                .result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics");
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(n, m)| {
                    (
                        n.clone(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect();
            assert_eq!(printed, names(&bench, key), "{workload} {key}");
            exact.push((
                r.line("exact").expect("exact counts").to_string(),
                r.line("simulated").map(str::to_string),
            ));
        }
        assert!(
            exact.windows(2).all(|w| w[0] == w[1]),
            "{workload}: exact counts differ across runs of one seed: {exact:?}"
        );
    }
}

#[test]
fn traced_none_cell_account_adds_up_to_the_cell_time() {
    for workload in ["fig10-paper", "pifd-cold"] {
        let r = run(workload, 3, true, &[]);
        assert_eq!(r.code, 0);
        let parts: f64 = [
            "none_cell.gen_ms",
            "none_cell.channel_ms",
            "none_cell.frontend_ms",
            "none_cell.engine_self_ms",
            "none_cell.remainder_ms",
        ]
        .iter()
        .map(|m| r.metric(m))
        .sum();
        let cell = r.metric("none_cell.cell_ms");
        assert!(cell > 0.0, "{workload}: cell time {cell}");
        assert!(
            r.metric("none_cell.gen_ms") > 0.0,
            "{workload}: no generation"
        );
        assert!(
            (parts - cell).abs() < 1e-9 * cell.max(1.0),
            "{workload}: {parts} != {cell}"
        );
    }
}

#[test]
fn corrupted_reference_is_a_failed_operation() {
    for workload in ["fig10-paper", "pifd-cold"] {
        let r = run(workload, 5, false, &["--corrupt-reference"]);
        assert_ne!(r.code, 0, "{workload} must exit non-zero");
        assert_eq!(r.result.get("correct").and_then(Json::as_bool), Some(false));
        assert!(r.result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
    }
}
