//! The pool's core contract: a sweep report is a function of
//! (spec, scale) only. Running the same spec at 1, 2, and 8 threads must
//! produce **byte-identical** serialized reports, because cells merge by
//! job index and carry no schedule- or clock-dependent data.
//!
//! The registry pass below also holds every committed spec to its smoke
//! golden and to the structural properties its figure relies on.

use std::path::Path;

use pif_lab::json::Json;
use pif_lab::registry::AblationVariant;
use pif_lab::{
    registry, report, run_spec, CdfKind, Measure, ParamAxis, PrefetcherKind, RunOptions, Scale,
};
use pif_lab::{SweepReport, SweepSpec};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn assert_thread_invariant(spec: &pif_lab::SweepSpec) {
    let scale = Scale::tiny();
    let opts = |threads| RunOptions::new().scale(scale).threads(threads).smoke(true);
    let baseline = run_spec(spec, &opts(THREAD_COUNTS[0])).to_json().unwrap();
    for &threads in &THREAD_COUNTS[1..] {
        let other = run_spec(spec, &opts(threads)).to_json().unwrap();
        assert_eq!(
            baseline, other,
            "{}: report at {threads} threads differs from 1 thread",
            spec.name
        );
    }
    let parsed = Json::parse(&baseline).expect("report parses");
    report::validate_report(&parsed).expect("report validates");
    report::check_reports(&parsed, &parsed, None).expect("self-check passes");
}

#[test]
fn analysis_sweep_is_thread_invariant() {
    // fig9-history: workloads x history-capacity axis through PifAnalyzer.
    assert_thread_invariant(&registry::fig9_history());
}

#[test]
fn binding_history_lanes_are_thread_invariant() {
    // History capacities that bind at tiny scale (fig9-history's do not),
    // so that lanes of one job report different cells. `tests/cache.rs`
    // runs the same grid partially cached.
    let spec = SweepSpec::new(
        "history-lanes",
        "history capacities that bind at tiny scale",
        Measure::PifAnalysis(CdfKind::None),
    )
    .with_axis(ParamAxis::HistoryCapacity(vec![16, 64, 256, 1024, 32768]));
    assert_thread_invariant(&spec);
}

#[test]
fn engine_sweep_is_thread_invariant() {
    // fig10: workloads x prefetchers through the full engine, including
    // the derived uipc_speedup_vs_none merge pass.
    assert_thread_invariant(&registry::fig10());
}

#[test]
fn static_sweep_is_thread_invariant() {
    assert_thread_invariant(&registry::table1());
}

#[test]
fn sampled_sweep_is_thread_invariant() {
    // fig-sampling: seeded-random sample windows whose seeds derive from
    // the job index, so the sampled grid must also be byte-identical
    // across thread counts.
    assert_thread_invariant(&registry::fig_sampling());
}

#[test]
fn sparse_sampled_grids_are_thread_invariant() {
    // With fewer jobs than threads, each job's windows fan out on a pool
    // wider than one worker (1 job at 4 threads: 4 workers; 2 jobs: 2
    // each). fig-sampling's 20 jobs never reach that at these counts.
    for counts in [vec![8], vec![4, 8]] {
        let spec = SweepSpec::new(
            "sparse-sampling",
            "one workload, one prefetcher, sampled",
            Measure::Sampled { samples: 8 },
        )
        .with_workloads(vec!["OLTP-DB2"])
        .with_prefetchers(vec![PrefetcherKind::Pif])
        .with_axis(ParamAxis::SampleCount(counts));
        let opts = |threads| RunOptions::new().scale(Scale::tiny()).threads(threads);
        let serial = run_spec(&spec, &opts(1)).to_json().unwrap();
        let parallel = run_spec(&spec, &opts(4)).to_json().unwrap();
        assert_eq!(serial, parallel, "{} points", spec.axis.len());
    }
}

#[test]
fn check_rejects_reports_from_different_scales() {
    let spec = registry::table1();
    let tiny = Json::parse(
        &run_spec(
            &spec,
            &RunOptions::new()
                .scale(Scale::tiny())
                .threads(2)
                .smoke(true),
        )
        .to_json()
        .unwrap(),
    )
    .unwrap();
    let quick = Json::parse(
        &run_spec(
            &spec,
            &RunOptions::new()
                .scale(Scale::quick())
                .threads(2)
                .smoke(true),
        )
        .to_json()
        .unwrap(),
    )
    .unwrap();
    let violations = report::check_reports(&tiny, &quick, None).unwrap_err();
    assert!(
        violations.iter().any(|v| v.contains("scale")),
        "{violations:?}"
    );
}

#[test]
fn every_committed_spec_serializes_to_a_valid_report() {
    // One pass over the whole registry at tiny scale: every spec must
    // produce a parseable, schema-valid report that passes `piflab
    // check` against its committed smoke golden and has its figure's
    // shape.
    let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("goldens");
    for spec in registry::all_specs() {
        let report_ = run_spec(
            &spec,
            &RunOptions::new()
                .scale(Scale::tiny())
                .threads(4)
                .smoke(true),
        );
        assert_eq!(report_.cells.len(), spec.grid_len(), "{}", spec.name);
        let parsed = Json::parse(&report_.to_json().expect("finite metrics"))
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        report::validate_report(&parsed).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let golden_path = goldens.join(format!("{}.smoke.json", spec.name));
        let golden = std::fs::read_to_string(&golden_path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()))
            .unwrap_or_else(|e| panic!("{}: {e}", golden_path.display()));
        if let Err(violations) = report::check_reports(&parsed, &golden, None) {
            panic!(
                "{} differs from {}:\n  {}",
                spec.name,
                golden_path.display(),
                violations.join("\n  ")
            );
        }
        assert_figure_properties(&spec, &report_);
    }
}

/// The structural properties the paper's tables and figures rely on.
fn assert_figure_properties(spec: &SweepSpec, report_: &SweepReport) {
    let name = spec.name;
    // One row per workload, in workload order: the default axis is the
    // six profiles, OLTP-DB2 first, and cells are workload-major.
    assert_eq!(report_.workloads, spec.workload_names(), "{name}");
    if spec.workloads.is_empty() {
        assert_eq!(report_.workloads.len(), 6, "{name}");
        assert_eq!(report_.workloads[0], "OLTP-DB2", "{name}");
    }
    let per_workload = report_.cells.len() / report_.workloads.len();
    for (i, cell) in report_.cells.iter().enumerate() {
        assert_eq!(
            cell.workload,
            report_.workloads[i / per_workload],
            "{name}: cell {i}"
        );
    }

    for cell in &report_.cells {
        let at = format!(
            "{name}: {}/{}/{}",
            cell.workload,
            cell.prefetcher.unwrap_or("-"),
            cell.point
        );
        let family = |prefix: &str| -> Vec<f64> {
            cell.metrics
                .iter()
                .filter(|(n, _)| n.starts_with(prefix))
                .map(|(n, _)| cell.expect_metric(n))
                .collect()
        };
        // Coverage and CDF values are fractions.
        for (metric, _) in &cell.metrics {
            let fraction = metric.contains("coverage")
                || metric.starts_with("jump_cdf_")
                || metric.starts_with("len_cdf_")
                || ["miss", "access", "retire", "retire_sep"].contains(&metric.as_str());
            let v = cell.expect_metric(metric);
            assert!(
                !fraction || (0.0..=1.0).contains(&v),
                "{at}: {metric} = {v}"
            );
        }
        // CDFs are monotone and reach 1.
        for prefix in ["jump_cdf_", "len_cdf_"] {
            let cdf = family(prefix);
            if let Some(&last) = cdf.last() {
                assert!(
                    cdf.windows(2).all(|w| w[0] <= w[1] + 1e-9),
                    "{at}: non-monotone {prefix}*: {cdf:?}"
                );
                assert!((last - 1.0).abs() < 1e-6, "{at}: {prefix}* ends at {last}");
            }
        }
        // Region distributions sum to one, and sequential flow makes +1
        // the trigger's most frequent neighbour over +12.
        if let Some(regions) = cell.metric_u64("total_regions") {
            assert!(regions > 0, "{at}");
            for prefix in ["density_", "runs_"] {
                let sum: f64 = family(prefix).iter().sum();
                assert!(sum > 0.95 && sum < 1.01, "{at}: {prefix}* sums to {sum}");
            }
            let (plus1, plus12) = (
                cell.expect_metric("offset_p1"),
                cell.expect_metric("offset_p12"),
            );
            assert!(plus1 >= plus12, "{at}: +1 ({plus1}) below +12 ({plus12})");
        }
        if let Some(speedup) = cell.metric("uipc_speedup_vs_none") {
            assert!(speedup > 0.5 && speedup < 5.0, "{at}: speedup {speedup}");
        }
        if matches!(spec.measure, Measure::Sampled { .. }) {
            assert!(cell.expect_metric_u64("samples") >= 2, "{at}");
            assert!(cell.expect_metric("uipc_mean") > 0.0, "{at}");
            assert!(cell.expect_metric("uipc_ci95") >= 0.0, "{at}");
        }
    }

    for w in &report_.workloads {
        match &spec.axis {
            // Coverage does not fall as history capacity grows.
            ParamAxis::HistoryCapacity(_) => {
                let series: Vec<f64> = report_
                    .workload_cells(w)
                    .map(|c| c.expect_metric("predictor_coverage"))
                    .collect();
                assert!(
                    series.windows(2).all(|p| p[1] >= p[0] - 0.02),
                    "{name}: {w}: coverage dropped with capacity: {series:?}"
                );
            }
            // The full design roughly dominates single-block regions
            // (spatial regions are the big win).
            ParamAxis::PifPoints(_) => {
                let coverage = |v: AblationVariant| {
                    report_
                        .cell(w, Some("PIF"), v.label())
                        .expect("ablation variant cell")
                        .expect_metric("miss_coverage")
                };
                let (paper, single) = (
                    coverage(AblationVariant::Paper),
                    coverage(AblationVariant::NoSpatialRegions),
                );
                assert!(paper >= single - 0.10, "{name}: {w}: {paper} vs {single}");
            }
            _ => {}
        }
    }
    // The perfect L1-I's geometric-mean speedup is at least 1.
    let perfect: Vec<f64> = report_
        .cells
        .iter()
        .filter(|c| c.prefetcher == Some("Perfect"))
        .filter_map(|c| c.metric("uipc_speedup_vs_none"))
        .collect();
    if !perfect.is_empty() {
        let geomean = (perfect.iter().map(|s| s.ln()).sum::<f64>() / perfect.len() as f64).exp();
        assert!(geomean >= 1.0, "{name}: Perfect geomean speedup {geomean}");
    }
}
