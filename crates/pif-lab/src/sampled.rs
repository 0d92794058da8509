//! Pool-parallel sampled execution.
//!
//! [`pif_sim::sampling`] owns the serial drivers and the per-window
//! building blocks ([`run_one_window`], [`assemble_report`]); this module
//! fans independent windows out on a [`Pool`] and splices the results
//! back together. The contract is strict determinism: for any plan whose
//! windows are independent ([`SamplingPlan::windows_independent`]), the
//! merged [`SampledRunReport`] is **byte-identical** to the serial run's
//! — and therefore identical across thread counts — because
//!
//! 1. each window runs on a fresh engine + prefetcher and its worker
//!    thread's L2, reset in place (no shared mutable state to race on),
//! 2. results are merged by window index, not completion order, and
//! 3. plans using [`WarmStrategy::Continuous`](pif_sim::sampling::WarmStrategy)
//!    — whose windows consume predictor state produced by earlier windows
//!    — transparently fall back to the serial driver rather than
//!    approximate it.
//!
//! The aggregate throughput of a fan-out therefore scales with worker
//! count while the science stays fixed: `--threads` is a scheduling
//! knob, never a results knob.

use pif_sim::prefetch::Prefetcher;
use pif_sim::sampling::{
    assemble_report, run_one_window, run_sampled, SampleWindow, SampledRunReport, SamplingPlan,
};
use pif_sim::EngineConfig;
use pif_types::InstrSource;

use crate::measure::with_worker_l2;
use crate::service::Pool;

/// Parallel counterpart of [`run_sampled`]: fans the plan's windows out
/// on `pool` and merges the per-window results by index.
///
/// `open_at` and `prefetcher_for` are called from worker threads (hence
/// `Fn + Sync` rather than the serial driver's `FnMut`); both must be
/// pure functions of the window for the determinism contract to hold —
/// which the workspace drivers guarantee by deriving everything from
/// `(plan, window)`.
///
/// Plans with [`WarmStrategy::Continuous`](pif_sim::sampling::WarmStrategy)
/// windows are inherently serial (predictor state threads through them in
/// file order); those run on the serial driver regardless of `pool`, so
/// callers never need to special-case the strategy themselves.
pub fn run_sampled_parallel<P, S, O, F>(
    config: &EngineConfig,
    plan: &SamplingPlan,
    total_records: u64,
    open_at: O,
    prefetcher_for: F,
    pool: &Pool,
) -> SampledRunReport
where
    P: Prefetcher,
    S: InstrSource,
    O: Fn(&SampleWindow) -> S + Sync,
    F: Fn(usize) -> P + Sync,
{
    if !plan.windows_independent() {
        return run_sampled(config, plan, total_records, &open_at, &prefetcher_for);
    }
    let windows = plan.windows(total_records);
    let samples = pool.run_indexed(windows.len(), |i| {
        let window = windows[i];
        with_worker_l2(config.l2, |l2| {
            run_one_window(
                config,
                plan,
                window,
                open_at(&window),
                prefetcher_for(window.index),
                l2,
            )
        })
    });
    assemble_report(plan, total_records, samples)
}
