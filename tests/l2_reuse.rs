//! Integration: an L2 model reused across engine runs, reset in place by
//! each run, gives every run the report a fresh L2 gives.
//!
//! `piflab` keeps one L2 per worker thread and hands it to every engine
//! run and sampled window the thread simulates, so one run's lines, LRU
//! order or hit counts must never reach the next run's report.

use pif_core::{Pif, PifConfig};
use pif_sim::cache::L2Model;
use pif_sim::sampling::{run_one_window, SamplingPlan, WarmStrategy};
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

    // Then a sampled cell's windows, whose L2 is checkpoint-warmed: the
    // reset also reconfigures the model.
    let plan =
        SamplingPlan::random(6, 3, 4_000, 2_000).with_warm_strategy(WarmStrategy::PerWindow {
            extra_warmup_instrs: 4_000,
        });
    let window_l2 = plan.engine_config(&config).l2;
    assert_ne!(window_l2, config.l2, "windows run a reconfigured L2");
    for window in plan.windows(instrs.len() as u64) {
        let start = window.warmup_start as usize;
        let window_run = |l2: &mut L2Model| {
            run_one_window(
                &config,
                &plan,
                window,
                instrs[start..].iter().copied(),
                Pif::new(pif),
                l2,
            )
        };
        let fresh = window_run(&mut L2Model::new(window_l2).expect("paper geometry"));
        assert_eq!(window_run(&mut l2), fresh, "window {}", window.index);
        assert!(fresh.report.l2_hits > 0);
    }

    // And an engine run again, after the reconfigured windows.
    let reused = engine.run(
        instrs.iter().copied(),
        NoPrefetcher,
        RunOptions::new().warmup(warmup).l2(&mut l2),
    );
    assert_eq!(reused, fresh_none, "None run after the sampled windows");
}
