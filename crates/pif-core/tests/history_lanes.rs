//! History-capacity lanes against one-lane analyzers, at capacities that
//! bind: every lane of a multi-lane `PifAnalyzer` must report exactly
//! what an analyzer of that one capacity reports.
//!
//! The sweep smoke goldens cannot see this: at their 40k-instruction
//! scale every `fig9-history` capacity (2K and up) gives the same
//! metrics. The capacities here start at one record, so most lanes differ.

use pif_core::analysis::{PifAnalyzer, PifCoverageReport};
use pif_core::PifConfig;
use pif_sim::ICacheConfig;
use pif_workloads::WorkloadProfile;

const INSTRUCTIONS: usize = 40_000;
const WARMUP: usize = INSTRUCTIONS * 3 / 10;
const LANES: [usize; 7] = [1, 3, 16, 64, 256, 2048, 32768];

#[test]
fn lanes_equal_one_lane_analyzers_where_capacity_binds() {
    let config = PifConfig::paper_default();
    let icache = ICacheConfig::paper_default();
    for profile in WorkloadProfile::all() {
        let profile = profile.scaled(0.03);
        for seed in [0, 7] {
            let trace = profile.generate_with_execution_seed(INSTRUCTIONS, seed);
            let lanes = PifAnalyzer::with_history_lanes(config, icache, &LANES)
                .analyze_lanes(trace.instrs(), WARMUP);
            assert_eq!(lanes.len(), LANES.len());
            for (lane, &capacity) in lanes.iter().zip(&LANES) {
                let alone = PifAnalyzer::new(config.with_history_capacity(capacity), icache)
                    .analyze(trace.instrs(), WARMUP);
                assert_eq!(
                    *lane,
                    alone,
                    "{} seed {seed}: lane {capacity}",
                    profile.name()
                );
            }
            let mut distinct: Vec<&PifCoverageReport> = Vec::new();
            for lane in &lanes {
                if !distinct.contains(&lane) {
                    distinct.push(lane);
                }
            }
            assert!(
                distinct.len() >= 5,
                "{} seed {seed}: only {} distinct reports over {LANES:?}: capacity does not bind",
                profile.name(),
                distinct.len()
            );
        }
    }
}
