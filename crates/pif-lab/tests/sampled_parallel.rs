//! Tier-1 determinism contract for parallel sampled execution: for any
//! plan with independent windows, `run_sampled_parallel` produces
//! reports **equal in every field** to the serial `run_sampled`, at
//! every thread count. `--threads` is a scheduling knob, never a results
//! knob.

use pif_core::Pif;
use pif_lab::sampled::run_sampled_parallel;
use pif_lab::Pool;
use pif_sim::sampling::{run_sampled, SamplingPlan, WarmStrategy};
use pif_sim::EngineConfig;
use pif_types::{Address, BranchInfo, BranchKind, RetiredInstr, TrapLevel};

/// A looped trace with periodic calls, so prefetchers and branch
/// predictors have structure to latch onto (pure straight-line code
/// would make every prefetcher a no-op and the test vacuous).
fn synthetic_trace(n: u64) -> Vec<RetiredInstr> {
    (0..n)
        .map(|i| {
            let pc = Address::new(0x40_0000 + (i % 6000) * 4);
            if i % 97 == 0 {
                RetiredInstr::branch(
                    pc,
                    TrapLevel::Tl0,
                    BranchInfo {
                        kind: BranchKind::Call,
                        taken: true,
                        taken_target: Address::new(0x48_0000 + (i % 13) * 256),
                        fall_through: Address::new(pc.raw() + 4),
                    },
                )
            } else {
                RetiredInstr::simple(pc, TrapLevel::Tl0)
            }
        })
        .collect()
}

fn per_window_plan() -> SamplingPlan {
    SamplingPlan::random(12, 0x51ec, 3_000, 1_500)
        .with_warm_strategy(WarmStrategy::PerWindow {
            extra_warmup_instrs: 3_000,
        })
        .with_burn_in(2)
}

#[test]
fn parallel_in_memory_reports_equal_serial_at_every_thread_count() {
    let trace = synthetic_trace(120_000);
    let config = EngineConfig::paper_default();
    let plan = per_window_plan();
    let serial = run_sampled(
        &config,
        &plan,
        trace.len() as u64,
        |w| trace[w.warmup_start as usize..].iter().copied(),
        |_| Pif::new(Default::default()),
    );
    for threads in [1, 2, 8] {
        let parallel = run_sampled_parallel(
            &config,
            &plan,
            trace.len() as u64,
            |w| trace[w.warmup_start as usize..].iter().copied(),
            |_| Pif::new(Default::default()),
            &Pool::new(threads),
        );
        assert_eq!(
            parallel, serial,
            "threads={threads} must not change results"
        );
    }
}

#[test]
fn continuous_plans_fall_back_to_the_serial_driver() {
    let trace = synthetic_trace(60_000);
    let config = EngineConfig::paper_default();
    // Continuous warming threads predictor state through windows in file
    // order; the parallel entry point must run it serially (and exactly),
    // not approximate it with independent windows.
    let plan = SamplingPlan::random(8, 7, 2_000, 1_000).with_burn_in(1);
    assert!(!plan.windows_independent());
    let serial = run_sampled(
        &config,
        &plan,
        trace.len() as u64,
        |w| trace[w.warmup_start as usize..].iter().copied(),
        |_| Pif::new(Default::default()),
    );
    let via_parallel = run_sampled_parallel(
        &config,
        &plan,
        trace.len() as u64,
        |w| trace[w.warmup_start as usize..].iter().copied(),
        |_| Pif::new(Default::default()),
        &Pool::new(8),
    );
    assert_eq!(via_parallel, serial);
}
