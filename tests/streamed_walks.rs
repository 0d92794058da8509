//! Integration: the trace walks give the same reports when the workload
//! generator pushes its records straight into them as when they walk the
//! materialized trace.
//!
//! `piflab` streams every analysis, region and stream-coverage job of a
//! synthetic workload, and walks the materialized trace of a recorded
//! one; the two must be indistinguishable in every report.

use pif_core::analysis::{analyze_regions, PifAnalyzer};
use pif_core::PifConfig;
use pif_lab::Scale;
use pif_sim::predictor_eval::{evaluate_stream_coverage_warmup, TemporalPredictorConfig};
use pif_sim::EngineConfig;
use pif_types::{InstrFeed, RegionGeometry};

/// History capacities small enough to give different lanes different
/// reports at tiny scale, plus fig9-history's largest.
const LANES: [usize; 4] = [64, 512, 4096, 512 * 1024];

#[test]
fn generator_fed_walks_equal_slice_walks() {
    let scale = Scale::tiny();
    let n = scale.instructions;
    let warmup = scale.warmup_instrs();
    let engine = EngineConfig::paper_default();
    let geometries = [
        RegionGeometry::paper_default(),
        RegionGeometry::new(8, 23).expect("fig3's probe geometry"),
    ];
    for profile in scale.workloads() {
        for seed in [0, 7] {
            let what = format!("{} seed {seed}", profile.name());
            let trace = profile.generate_with_execution_seed(n, seed);
            let slice = trace.instrs();
            let feed = profile.feed_with_execution_seed(n, seed);

            assert_eq!(feed.instr_count(), slice.len(), "{what}");
            let mut pushed = Vec::with_capacity(n);
            feed.feed(|instr| pushed.push(instr));
            assert!(pushed == slice, "{what}: the feed pushes the trace");

            let analyzer = || {
                PifAnalyzer::with_history_lanes(PifConfig::paper_default(), engine.icache, &LANES)
            };
            let lanes = analyzer().analyze_lanes(feed, warmup);
            assert_eq!(lanes, analyzer().analyze_lanes(slice, warmup), "{what}");
            assert_ne!(lanes[0], lanes[3], "{what}: the lanes differ");

            for geometry in geometries {
                assert_eq!(
                    analyze_regions(feed, geometry),
                    analyze_regions(slice, geometry),
                    "{what}: regions under {geometry:?}"
                );
            }

            let predictor = TemporalPredictorConfig::default();
            assert_eq!(
                evaluate_stream_coverage_warmup(&engine, predictor, feed, warmup),
                evaluate_stream_coverage_warmup(&engine, predictor, slice, warmup),
                "{what}: stream coverage"
            );
        }
    }
}
