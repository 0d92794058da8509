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

use std::path::Path;

use pif_sim::prefetch::Prefetcher;
use pif_sim::sampling::{
    assemble_report, run_one_window, run_sampled, sample_trace_file, SampleResult, SampleWindow,
    SampledRunReport, SamplingPlan,
};
use pif_sim::EngineConfig;
use pif_trace::{TraceDecodeError, TraceReader};
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

/// Parallel counterpart of [`sample_trace_file`]: samples a trace file
/// out of core with one reader **per window**, scheduled on `pool`.
///
/// The container is scanned once up front for the chunk index and record
/// count; each worker then clones the index into its own reader via
/// [`TraceReader::open_with_index`], so the per-window cost is one
/// `open` + one seek + the window's decode — no per-worker header
/// rescans, and no reader is ever shared between threads. v1 traces have
/// no chunk index; their per-window readers fall back to linear skips,
/// slower but identically correct.
///
/// # Errors
///
/// I/O and decode errors from opening, indexing, seeking, or reading the
/// sampled windows. When several windows fail, the error reported is the
/// lowest-indexed window's — the same one the serial driver, which walks
/// windows in index order, would have hit first.
pub fn sample_trace_file_parallel<P, F>(
    config: &EngineConfig,
    plan: &SamplingPlan,
    path: &Path,
    prefetcher_for: F,
    pool: &Pool,
) -> Result<SampledRunReport, TraceDecodeError>
where
    P: Prefetcher,
    F: Fn(usize) -> P + Sync,
{
    if !plan.windows_independent() {
        return sample_trace_file(config, plan, path, &prefetcher_for);
    }
    let file = std::fs::File::open(path)?;
    let reader = TraceReader::open_indexed(std::io::BufReader::new(file))?;
    let total = reader
        .declared_count()
        .expect("indexed v2 and v1 readers both know their record count");
    let index = reader.chunk_index().cloned();
    drop(reader);
    let windows = plan.windows(total);
    let results = pool.run_indexed(windows.len(), |i| {
        run_window_from_file(
            config,
            plan,
            windows[i],
            path,
            index.as_ref(),
            &prefetcher_for,
        )
    });
    let mut samples = Vec::with_capacity(results.len());
    for r in results {
        samples.push(r?);
    }
    Ok(assemble_report(plan, total, samples))
}

/// One worker's job: open a private reader over `path`, seek to the
/// window, and run it.
fn run_window_from_file<P: Prefetcher>(
    config: &EngineConfig,
    plan: &SamplingPlan,
    window: SampleWindow,
    path: &Path,
    index: Option<&pif_trace::ChunkIndex>,
    prefetcher_for: &(impl Fn(usize) -> P + Sync),
) -> Result<SampleResult, TraceDecodeError> {
    let file = std::fs::File::open(path)?;
    let buf = std::io::BufReader::new(file);
    let mut reader = match index {
        Some(ix) => TraceReader::open_with_index(buf, ix.clone())?,
        None => TraceReader::open(buf)?,
    };
    reader.seek_to_record(window.warmup_start)?;
    let mut source = reader.instrs_mut();
    let sample = with_worker_l2(config.l2, |l2| {
        run_one_window(
            config,
            plan,
            window,
            source.by_ref().take(window.len() as usize),
            prefetcher_for(window.index),
            l2,
        )
    });
    if let Some(e) = source.take_error() {
        return Err(e);
    }
    Ok(sample)
}
