//! Integration: an L2 model reused across engine runs, reset in place by
//! each run, gives every run the report a fresh L2 gives.
//!
//! `piflab` keeps one L2 per worker thread and hands it to every engine
//! run and sampled window the thread simulates, so one run's lines, LRU
//! order or hit counts must never reach the next run's report.

use pif_core::{Pif, PifConfig};
use pif_sim::cache::L2Model;
use pif_sim::sampling::{run_sampled, SamplingPlan, WarmStrategy};
use pif_sim::{Engine, EngineConfig, NoPrefetcher, RunOptions};
use pif_workloads::WorkloadProfile;

#[test]
fn a_reused_l2_reports_what_a_fresh_one_does() {
    let trace = WorkloadProfile::oltp_db2().scaled(0.05).generate(120_000);
    let instrs = trace.instrs();
    let config = EngineConfig::paper_default();
    let engine = Engine::new(config);
    let warmup = instrs.len() / 4;
    let mut l2 = L2Model::new(config.l2).expect("paper geometry");

    // A PIF run, then a None run, on the one L2.
    let pif = PifConfig::paper_default();
    let fresh = engine.run(
        instrs.iter().copied(),
        Pif::new(pif),
        RunOptions::new().warmup(warmup),
    );
    let reused = engine.run(
        instrs.iter().copied(),
        Pif::new(pif),
        RunOptions::new().warmup(warmup).l2(&mut l2),
    );
    assert_eq!(reused, fresh, "PIF run");
    assert!(fresh.l2_misses > 0 && fresh.l2_hits > 0);

    let fresh_none = engine.run(
        instrs.iter().copied(),
        NoPrefetcher,
        RunOptions::new().warmup(warmup),
    );
    let reused = engine.run(
        instrs.iter().copied(),
        NoPrefetcher,
        RunOptions::new().warmup(warmup).l2(&mut l2),
    );
    assert_eq!(reused, fresh_none, "None run after the PIF run");

    // Then sampled cells, whose windows run on a checkpoint-warmed L2:
    // each window's reset also reconfigures the model. Under either warm
    // strategy, the cell's report on the L2 the engine runs left behind
    // is the one a fresh L2 gives.
    let continuous = SamplingPlan::random(6, 3, 4_000, 2_000);
    let per_window = continuous.with_warm_strategy(WarmStrategy::PerWindow {
        extra_warmup_instrs: 4_000,
    });
    for plan in [per_window, continuous] {
        let window_l2 = plan.engine_config(&config).l2;
        assert_ne!(window_l2, config.l2, "windows run a reconfigured L2");
        let sampled = |l2: &mut L2Model| {
            run_sampled(
                &config,
                &plan,
                instrs.len() as u64,
                |w| instrs[w.warmup_start as usize..].iter().copied(),
                |_| Pif::new(pif),
                l2,
            )
        };
        let fresh = sampled(&mut L2Model::new(window_l2).expect("paper geometry"));
        assert_eq!(sampled(&mut l2), fresh, "{:?}", plan.warm_strategy);
        assert_eq!(fresh.samples.len(), 6);
        assert!(fresh.samples.iter().all(|s| s.report.l2_hits > 0));

        // And an engine run again, after the reconfigured windows, so the
        // next plan also starts on the L2 an engine run left behind.
        let reused = engine.run(
            instrs.iter().copied(),
            NoPrefetcher,
            RunOptions::new().warmup(warmup).l2(&mut l2),
        );
        assert_eq!(reused, fresh_none, "None run after the sampled windows");
    }
}
