//! SimFlex/SMARTS-style sampled simulation.
//!
//! The paper reports UIPC "at a 95% confidence level with less than ±5%
//! error" (§5) using sampled simulation: instead of simulating a trace
//! exhaustively, many short **measurement windows** are simulated at
//! detail, each preceded by a **functional warmup window** that warms
//! caches, predictor tables, and prefetcher state; per-window metrics are
//! then aggregated with the standard error machinery of
//! [`Summary`].
//!
//! The pieces:
//!
//! * [`SamplingPlan`] — how many samples, how they are placed
//!   ([`SampleSelection::Systematic`] or seeded
//!   [`SampleSelection::Random`]), and the per-sample warmup/measurement
//!   lengths. [`SamplingPlan::windows`] resolves the plan against a
//!   trace's total record count into concrete [`SampleWindow`]s —
//!   deterministically: the same `(plan, total)` always yields the same
//!   windows, so sampled results are reproducible bit for bit.
//! * [`run_sampled`] — the generic entry point: one engine run per
//!   window, in trace order on the calling thread, over any
//!   [`InstrSource`] positioned at the window's warmup start, with every
//!   window's L2 simulated in one caller-owned [`L2Model`], reset in
//!   place.
//! * [`sample_trace_file`] — the out-of-core entry point: seeks each
//!   window via `pif_trace::TraceReader::seek_to_record`, so a
//!   multi-hundred-million-instruction file is sampled while decoding
//!   only the sampled windows (skipped chunks are never decompressed).
//!   It warms, runs and assembles its windows with the same code as
//!   [`run_sampled`], so the two cannot disagree.
//! * [`SampledRunReport`] — per-sample UIPC/MPKI/coverage with
//!   mean/stderr/ci95 summaries.

use std::path::Path;

use pif_types::rng::splitmix64;
use pif_types::{InstrSource, RetiredInstr};

use crate::cache::L2Model;
use crate::config::EngineConfig;
use crate::engine::{Engine, RunOptions, RunReport};
use crate::frontend::FrontEnd;
use crate::prefetch::Prefetcher;

/// How measurement-window start positions are placed over the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleSelection {
    /// Evenly spaced windows (SMARTS-style systematic sampling).
    Systematic,
    /// Uniformly random positions from a seeded deterministic stream;
    /// the same seed always selects the same windows.
    Random {
        /// Seed of the position stream.
        seed: u64,
    },
}

/// How prefetcher/predictor tables are warmed across samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmStrategy {
    /// One prefetcher instance **and one front end** (direction tables,
    /// BTB, RAS) trained continuously across the file-ordered samples —
    /// SMARTS-style functional warming of predictor tables: by mid-run
    /// the predictors have accumulated the recurring streams and branch
    /// behaviour the exhaustive run would know, without decoding the
    /// skipped regions. Inherently serial (each window consumes state
    /// the previous windows produced). This is the default.
    Continuous,
    /// Fresh predictor state per window, warmed by the window's own
    /// functional-warmup prefix plus `extra_warmup_instrs` of additional
    /// burn-in prepended to it (clamped at the trace head like ordinary
    /// warmup). No predictor state crosses a window boundary, so each
    /// window's result depends on that window alone; the extra burn-in
    /// buys back part of the deep-history coverage that
    /// [`WarmStrategy::Continuous`] accumulates from earlier samples.
    PerWindow {
        /// Additional warmup instructions prepended to every window's
        /// functional-warmup prefix (0 = warm from the plan's
        /// `warmup_instrs` alone).
        extra_warmup_instrs: u64,
    },
}

/// A sampled-simulation plan: sample count, placement, and the per-sample
/// functional-warmup and detailed-measurement window lengths (in
/// instructions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingPlan {
    /// Number of measurement windows.
    pub samples: usize,
    /// Window placement policy.
    pub selection: SampleSelection,
    /// Functional-warmup instructions simulated (but not measured) before
    /// each measurement window; clamped at the trace head.
    pub warmup_instrs: u64,
    /// Detailed-measurement instructions per window; clamped at the trace
    /// tail.
    pub measure_instrs: u64,
    /// How predictor tables warm across samples (default
    /// [`WarmStrategy::Continuous`]).
    pub warm_strategy: WarmStrategy,
    /// Leading samples excluded from the summaries (still simulated —
    /// they train the continuously warmed predictors). Under
    /// [`WarmStrategy::Continuous`] the first few windows run with
    /// the coldest predictor state; burning them in removes that
    /// transient from the estimate, exactly like burn-in in any stateful
    /// Monte-Carlo estimator. Default 0.
    pub burn_in: usize,
}

impl SamplingPlan {
    /// A systematic (evenly spaced) plan.
    pub fn systematic(samples: usize, warmup_instrs: u64, measure_instrs: u64) -> Self {
        SamplingPlan {
            samples,
            selection: SampleSelection::Systematic,
            warmup_instrs,
            measure_instrs,
            warm_strategy: WarmStrategy::Continuous,
            burn_in: 0,
        }
    }

    /// A seeded-random plan.
    pub fn random(samples: usize, seed: u64, warmup_instrs: u64, measure_instrs: u64) -> Self {
        SamplingPlan {
            samples,
            selection: SampleSelection::Random { seed },
            warmup_instrs,
            measure_instrs,
            warm_strategy: WarmStrategy::Continuous,
            burn_in: 0,
        }
    }

    /// Returns the plan with the first `burn_in` samples excluded from
    /// summaries (see [`SamplingPlan::burn_in`]).
    #[must_use]
    pub fn with_burn_in(mut self, burn_in: usize) -> Self {
        self.burn_in = burn_in;
        self
    }

    /// Returns the plan with the given [`WarmStrategy`].
    #[must_use]
    pub fn with_warm_strategy(mut self, strategy: WarmStrategy) -> Self {
        self.warm_strategy = strategy;
        self
    }

    /// The functional-warmup length each window actually targets: the
    /// plan's `warmup_instrs` plus any per-window burn-in the
    /// [`WarmStrategy`] adds (clamping at the trace head still applies).
    pub fn effective_warmup_instrs(&self) -> u64 {
        match self.warm_strategy {
            WarmStrategy::Continuous => self.warmup_instrs,
            WarmStrategy::PerWindow {
                extra_warmup_instrs,
            } => self.warmup_instrs + extra_warmup_instrs,
        }
    }

    /// The engine configuration a sampled run actually uses: `config`
    /// with a checkpoint-warmed L2 ([`crate::L2Config::assume_warm`]).
    /// The paper's SimFlex checkpoints store warmed cache state because
    /// an 8 MB NUCA cannot be re-warmed inside a sample's warmup window,
    /// while the small, fast-warming structures (L1-I, branch predictors,
    /// prefetcher streaming state) are rebuilt by the warmup window
    /// itself.
    pub fn engine_config(&self, config: &EngineConfig) -> EngineConfig {
        let mut cfg = *config;
        cfg.l2 = cfg.l2.with_assume_warm(true);
        cfg
    }

    /// Resolves the plan against a trace of `total_records` instructions
    /// into concrete, file-order windows.
    ///
    /// Deterministic: depends only on `(self, total_records)`. Windows
    /// are sorted by position (so seeking walks the file mostly forward)
    /// and indexed in that order; measurement starts fall in
    /// `[0, total - measure]` and the warmup window is clamped at the
    /// trace head (a sample near record 0 simply warms up for less).
    pub fn windows(&self, total_records: u64) -> Vec<SampleWindow> {
        if total_records == 0 || self.samples == 0 {
            return Vec::new();
        }
        let measure = self.measure_instrs.max(1).min(total_records);
        let usable = total_records - measure;
        let mut starts: Vec<u64> = match self.selection {
            SampleSelection::Systematic => {
                // Midpoint-of-stride placement: window i starts at the
                // middle of the i-th of `samples` equal strides, so
                // samples never pile onto the trace head or tail.
                let n = self.samples as u64;
                (0..n).map(|i| usable * (2 * i + 1) / (2 * n)).collect()
            }
            SampleSelection::Random { seed } => {
                let mut state = seed ^ 0x5DEE_CE66_D1CE_4E5B;
                (0..self.samples)
                    .map(|_| splitmix64(&mut state) % (usable + 1))
                    .collect()
            }
        };
        starts.sort_unstable();
        starts
            .into_iter()
            .enumerate()
            .map(|(index, measure_start)| {
                let warmup_start = measure_start.saturating_sub(self.effective_warmup_instrs());
                SampleWindow {
                    index,
                    warmup_start,
                    warmup_instrs: measure_start - warmup_start,
                    measure_start,
                    measure_instrs: measure.min(total_records - measure_start),
                }
            })
            .collect()
    }
}

/// One resolved sample window, in record indices of the underlying trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleWindow {
    /// Sample index in file order.
    pub index: usize,
    /// Record index where functional warmup begins.
    pub warmup_start: u64,
    /// Warmup length actually available (clamped at the trace head).
    pub warmup_instrs: u64,
    /// Record index where detailed measurement begins.
    pub measure_start: u64,
    /// Measurement length actually available (clamped at the trace tail).
    pub measure_instrs: u64,
}

impl SampleWindow {
    /// Total instructions this window simulates (warmup + measurement).
    pub fn len(&self) -> u64 {
        self.warmup_instrs + self.measure_instrs
    }

    /// Whether the window is empty (zero-length trace edge case).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One sample's engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleResult {
    /// The window this sample covered.
    pub window: SampleWindow,
    /// The post-warmup engine report for the window.
    pub report: RunReport,
}

/// Mean, standard error, and 95% confidence half-width of a per-sample
/// metric (the paper reports UIPC "at a 95% confidence level with less
/// than ±5% error").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample mean.
    pub mean: f64,
    /// Standard error of the mean.
    pub stderr: f64,
    /// 95% confidence half-width (normal approximation).
    pub ci95: f64,
}

impl Summary {
    /// Computes the summary of a sample. An empty sample yields all
    /// zeros (not a 0/0 NaN), and a singleton or constant sample has zero
    /// error.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                mean: 0.0,
                stderr: 0.0,
                ci95: 0.0,
            };
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = if samples.len() > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        let stderr = (var / n).sqrt();
        Summary {
            mean,
            stderr,
            ci95: 1.96 * stderr,
        }
    }

    /// Relative 95% error (the paper targets < ±5%).
    pub fn relative_error(&self) -> f64 {
        if self.mean == 0.0 {
            return 0.0;
        }
        self.ci95 / self.mean.abs()
    }
}

/// Aggregated results of a sampled run: per-sample reports plus
/// [`Summary`] statistics over the per-sample metrics — the shape the
/// paper's "UIPC at 95% confidence" methodology reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledRunReport {
    /// Name of the prefetcher measured (empty if the plan produced no
    /// windows, e.g. over an empty trace).
    pub prefetcher: &'static str,
    /// Record count of the sampled trace.
    pub total_records: u64,
    /// Leading samples excluded from summaries (from the plan's
    /// [`SamplingPlan::burn_in`], clamped to the sample count).
    pub burn_in: usize,
    /// Per-sample results, in window order; the first
    /// [`SampledRunReport::burn_in`] are training-only.
    pub samples: Vec<SampleResult>,
}

impl SampledRunReport {
    /// The samples that contribute to summaries (burn-in excluded).
    pub fn measured_samples(&self) -> &[SampleResult] {
        &self.samples[self.burn_in.min(self.samples.len())..]
    }

    /// Summary over a per-sample metric (burn-in samples excluded).
    pub fn summary_of(&self, metric: impl Fn(&RunReport) -> f64) -> Summary {
        Summary::of(
            &self
                .measured_samples()
                .iter()
                .map(|s| metric(&s.report))
                .collect::<Vec<_>>(),
        )
    }

    /// Per-sample UIPC summary (the paper's throughput metric).
    pub fn uipc(&self) -> Summary {
        self.summary_of(|r| r.timing.uipc())
    }

    /// Per-sample L1-I misses per kilo-instruction.
    pub fn mpki(&self) -> Summary {
        self.summary_of(|r| r.fetch.demand_misses as f64 / (r.timing.instructions as f64 / 1000.0))
    }

    /// Per-sample miss-coverage summary.
    pub fn miss_coverage(&self) -> Summary {
        self.summary_of(|r| r.fetch.miss_coverage())
    }

    /// Instructions measured at detail across the summarized samples.
    pub fn measured_instructions(&self) -> u64 {
        self.measured_samples()
            .iter()
            .map(|s| s.report.timing.instructions)
            .sum()
    }

    /// Instructions simulated at all (warmup + measurement).
    pub fn simulated_instructions(&self) -> u64 {
        self.samples.iter().map(|s| s.window.len()).sum()
    }

    /// Simulated-to-total work ratio — the sampling speedup lever: the
    /// run decoded and simulated this multiple of the trace length.
    /// Overlapping windows are counted once per window, so on traces
    /// short relative to `samples × window` the ratio **exceeds 1**
    /// (sampling such a trace costs more than an exhaustive run; the
    /// payoff is at long-trace scale, where windows are disjoint and the
    /// ratio is ≪ 1).
    pub fn sampled_fraction(&self) -> f64 {
        if self.total_records == 0 {
            return 0.0;
        }
        self.simulated_instructions() as f64 / self.total_records as f64
    }
}

/// Bounds a source to a window's length so the engine stops at the
/// window's end rather than draining the trace.
struct Bounded<S> {
    inner: S,
    left: u64,
}

impl<S: InstrSource> Iterator for Bounded<S> {
    type Item = RetiredInstr;

    fn next(&mut self) -> Option<RetiredInstr> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        self.inner.next_instr()
    }
}

/// Runs a sampled simulation: one engine run per window of
/// `plan.windows(total_records)`.
///
/// `open_at(window)` must return a source positioned at
/// `window.warmup_start`; it will be pulled for at most `window.len()`
/// instructions. How `prefetcher_for` is used depends on the plan's
/// [`WarmStrategy`]: under the default [`WarmStrategy::Continuous`],
/// `prefetcher_for(0)` is called **once** and that instance (plus one
/// front end) deliberately carries its trained state across all windows;
/// only under [`WarmStrategy::PerWindow`] does `prefetcher_for(index)`
/// build a fresh, fully independent prefetcher per sample. Engine-side
/// state (caches, queues, timing) is always fresh per window.
///
/// Windows run one after another, in trace order, on the calling thread.
/// Each simulates its L2 in `l2`, reset in place ([`RunOptions::l2`]), so
/// the report is the one fresh models give while a caller that runs many
/// sampled cells on one thread keeps one model's memory for all of them.
///
/// # Example
///
/// ```
/// use pif_sim::cache::L2Model;
/// use pif_sim::sampling::{run_sampled, SamplingPlan};
/// use pif_sim::{EngineConfig, NoPrefetcher};
/// use pif_types::{Address, RetiredInstr, TrapLevel};
///
/// let trace: Vec<_> = (0..100_000u64)
///     .map(|i| RetiredInstr::simple(Address::new((i % 4096) * 4), TrapLevel::Tl0))
///     .collect();
/// let config = EngineConfig::paper_default();
/// let mut l2 = L2Model::new(config.l2).unwrap();
/// let plan = SamplingPlan::systematic(8, 2_000, 1_000);
/// let report = run_sampled(
///     &config,
///     &plan,
///     trace.len() as u64,
///     |w| trace[w.warmup_start as usize..].iter().copied(),
///     |_| NoPrefetcher,
///     &mut l2,
/// );
/// assert_eq!(report.samples.len(), 8);
/// assert!(report.uipc().mean > 0.0);
/// assert!(report.sampled_fraction() < 0.3);
/// ```
pub fn run_sampled<P, S, O, F>(
    config: &EngineConfig,
    plan: &SamplingPlan,
    total_records: u64,
    mut open_at: O,
    mut prefetcher_for: F,
    l2: &mut L2Model,
) -> SampledRunReport
where
    P: Prefetcher,
    S: InstrSource,
    O: FnMut(&SampleWindow) -> S,
    F: FnMut(usize) -> P,
{
    let windows = plan.windows(total_records);
    let mut driver = SampledDriver::new(config, plan, &windows, &mut prefetcher_for);
    for window in windows {
        let source = Bounded {
            inner: open_at(&window),
            left: window.len(),
        };
        driver.run_window(window, source, l2, || prefetcher_for(window.index));
    }
    driver.finish(plan, total_records)
}

/// The per-window execution core shared by [`run_sampled`] and
/// [`sample_trace_file`]: owns the (plan-adjusted) engine, the
/// continuously-warmed prefetcher/front-end pair when the plan asks for
/// one, and the accumulating sample list — so warming and report
/// assembly cannot diverge between the in-memory and out-of-core paths.
struct SampledDriver<P> {
    engine: Engine,
    shared: Option<(P, FrontEnd)>,
    prefetcher_name: &'static str,
    samples: Vec<SampleResult>,
}

impl<P: Prefetcher> SampledDriver<P> {
    fn new(
        config: &EngineConfig,
        plan: &SamplingPlan,
        windows: &[SampleWindow],
        prefetcher_for: &mut impl FnMut(usize) -> P,
    ) -> Self {
        let engine = Engine::new(plan.engine_config(config));
        let shared = match plan.warm_strategy {
            WarmStrategy::Continuous if !windows.is_empty() => {
                Some((prefetcher_for(0), FrontEnd::new(engine.config().frontend)))
            }
            _ => None,
        };
        SampledDriver {
            engine,
            shared,
            prefetcher_name: "",
            samples: Vec::with_capacity(windows.len()),
        }
    }

    /// Runs one window over `source` (positioned at the window's warmup
    /// start and bounded to `window.len()` pulls by the caller), with its
    /// L2 simulated in `l2`, reset in place. `mk` is only invoked in
    /// per-window mode.
    fn run_window<S: InstrSource>(
        &mut self,
        window: SampleWindow,
        source: S,
        l2: &mut L2Model,
        mk: impl FnOnce() -> P,
    ) {
        let opts = RunOptions::new()
            .warmup(window.warmup_instrs as usize)
            .l2(l2);
        let report = match self.shared.as_mut() {
            Some((p, fe)) => self.engine.run(source, &mut *p, opts.frontend(fe)),
            None => self.engine.run(source, mk(), opts),
        };
        self.prefetcher_name = report.prefetcher;
        self.samples.push(SampleResult { window, report });
    }

    fn finish(self, plan: &SamplingPlan, total_records: u64) -> SampledRunReport {
        SampledRunReport {
            prefetcher: self.prefetcher_name,
            total_records,
            burn_in: plan.burn_in.min(self.samples.len()),
            samples: self.samples,
        }
    }
}

/// Samples a trace **file** out of core: windows are reached via
/// `TraceReader::seek_to_record`, so everything between samples is
/// skipped at chunk granularity without decompression — this is what
/// makes a sampled run of a 10M+ instruction trace several times faster
/// than the exhaustive run while reporting its own confidence interval.
/// Its windows run in trace order on one L2 model, reset in place per
/// window, exactly as [`run_sampled`]'s do.
///
/// # Errors
///
/// I/O and decode errors from opening, indexing, seeking, or reading the
/// sampled windows.
pub fn sample_trace_file<P, F>(
    config: &EngineConfig,
    plan: &SamplingPlan,
    path: &Path,
    mut prefetcher_for: F,
) -> Result<SampledRunReport, pif_trace::TraceDecodeError>
where
    P: Prefetcher,
    F: FnMut(usize) -> P,
{
    let file = std::fs::File::open(path)?;
    let mut reader = pif_trace::TraceReader::open_indexed(std::io::BufReader::new(file))?;
    let total = reader
        .declared_count()
        .expect("open_indexed reads the record count off the chunk index");
    let windows = plan.windows(total);
    let mut driver = SampledDriver::new(config, plan, &windows, &mut prefetcher_for);
    let mut l2 = L2Model::new(config.l2).expect("validated geometry");
    for window in windows {
        reader.seek_to_record(window.warmup_start)?;
        let mut source = reader.instrs_mut();
        driver.run_window(
            window,
            source.by_ref().take(window.len() as usize),
            &mut l2,
            || prefetcher_for(window.index),
        );
        if let Some(e) = source.take_error() {
            return Err(e);
        }
    }
    Ok(driver.finish(plan, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetch::NoPrefetcher;
    use pif_types::{Address, TrapLevel};

    /// A fresh L2 at the paper's geometry, for the windows of one run.
    fn paper_l2() -> L2Model {
        L2Model::new(EngineConfig::paper_default().l2).unwrap()
    }

    fn looped_trace(n: u64, blocks: u64) -> Vec<RetiredInstr> {
        (0..n)
            .map(|i| RetiredInstr::simple(Address::new((i % blocks) * 64), TrapLevel::Tl0))
            .collect()
    }

    #[test]
    fn summary_statistics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.mean - 2.5).abs() < 1e-9);
        assert!(s.stderr > 0.0);
        assert!((s.ci95 - 1.96 * s.stderr).abs() < 1e-12);
        assert!(s.relative_error() > 0.0);
    }

    #[test]
    fn summary_of_singleton_has_zero_error() {
        let s = Summary::of(&[5.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.stderr, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.relative_error(), 0.0);
    }

    #[test]
    fn summary_of_empty_sample_is_all_zeros() {
        let s = Summary::of(&[]);
        assert_eq!(s.mean, 0.0, "no 0/0 NaN on the empty sample");
        assert_eq!(s.stderr, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.relative_error(), 0.0);
        assert!(s.mean.is_finite() && s.stderr.is_finite());
    }

    #[test]
    fn summary_of_constant_sample_has_zero_variance() {
        let s = Summary::of(&[2.5; 17]);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.stderr, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.relative_error(), 0.0);
    }

    #[test]
    fn systematic_windows_are_spread_and_clamped() {
        let plan = SamplingPlan::systematic(10, 5_000, 2_000);
        let windows = plan.windows(100_000);
        assert_eq!(windows.len(), 10);
        for (i, w) in windows.iter().enumerate() {
            assert_eq!(w.index, i);
            assert!(w.measure_start + w.measure_instrs <= 100_000);
            assert_eq!(w.measure_start - w.warmup_start, w.warmup_instrs);
            assert!(w.warmup_instrs <= 5_000);
            assert_eq!(w.measure_instrs, 2_000);
        }
        // Spread: first and last windows far apart.
        assert!(windows[9].measure_start - windows[0].measure_start > 50_000);
    }

    #[test]
    fn random_windows_are_seed_deterministic() {
        let a = SamplingPlan::random(16, 42, 1_000, 500).windows(1_000_000);
        let b = SamplingPlan::random(16, 42, 1_000, 500).windows(1_000_000);
        let c = SamplingPlan::random(16, 43, 1_000, 500).windows(1_000_000);
        assert_eq!(a, b, "same seed, same windows");
        assert_ne!(a, c, "different seed, different windows");
        assert!(
            a.windows(2)
                .all(|p| p[0].measure_start <= p[1].measure_start),
            "windows sorted in file order"
        );
    }

    #[test]
    fn degenerate_plans_resolve_sanely() {
        assert!(SamplingPlan::systematic(4, 10, 10).windows(0).is_empty());
        assert!(SamplingPlan::systematic(0, 10, 10).windows(100).is_empty());
        // Trace shorter than one measurement window: one full-trace window
        // per sample.
        let w = SamplingPlan::systematic(3, 0, 1_000).windows(100);
        assert_eq!(w.len(), 3);
        for w in &w {
            assert_eq!((w.measure_start, w.measure_instrs), (0, 100));
        }
    }

    #[test]
    fn sampled_uipc_tracks_exhaustive_on_steady_state() {
        // A steady-state loop: every window sees the same behaviour, so
        // the sampled estimate must be near-exact with tiny variance.
        let trace = looped_trace(200_000, 2048);
        let engine = Engine::new(EngineConfig::paper_default());
        let exhaustive = engine.run(
            trace.iter().copied(),
            NoPrefetcher,
            RunOptions::new().warmup(50_000),
        );
        let plan = SamplingPlan::random(10, 7, 5_000, 2_000);
        let sampled = run_sampled(
            &EngineConfig::paper_default(),
            &plan,
            trace.len() as u64,
            |w| trace[w.warmup_start as usize..].iter().copied(),
            |_| NoPrefetcher,
            &mut paper_l2(),
        );
        assert_eq!(sampled.samples.len(), 10);
        assert_eq!(sampled.prefetcher, "None");
        let est = sampled.uipc();
        let truth = exhaustive.timing.uipc();
        assert!(
            (est.mean - truth).abs() <= (0.05 * truth).max(est.ci95),
            "sampled {est:?} vs exhaustive {truth}"
        );
        assert!(sampled.sampled_fraction() < 0.4);
        // The front end retires a pipeline's worth of pre-mark
        // instructions after the warmup boundary; allow that skid.
        assert!(sampled.measured_instructions() <= 10 * (2_000 + 256));
    }

    #[test]
    fn each_sample_measures_its_window_only() {
        let trace = looped_trace(50_000, 512);
        let plan = SamplingPlan::systematic(5, 3_000, 1_500);
        let sampled = run_sampled(
            &EngineConfig::paper_default(),
            &plan,
            trace.len() as u64,
            |w| trace[w.warmup_start as usize..].iter().copied(),
            |_| NoPrefetcher,
            &mut paper_l2(),
        );
        for s in &sampled.samples {
            // Exactly the window is fed; measured retires cover the
            // measurement window plus at most the front end's pipeline
            // skid across the warmup mark.
            assert_eq!(s.report.frontend.instructions, s.window.len());
            let measured = s.report.timing.instructions;
            assert!(
                measured >= s.window.measure_instrs && measured <= s.window.measure_instrs + 256,
                "measured {measured} vs window {}",
                s.window.measure_instrs
            );
        }
    }

    #[test]
    fn burn_in_samples_are_simulated_but_not_summarized() {
        let trace = looped_trace(80_000, 1024);
        let plan = SamplingPlan::systematic(8, 2_000, 1_000).with_burn_in(3);
        let sampled = run_sampled(
            &EngineConfig::paper_default(),
            &plan,
            trace.len() as u64,
            |w| trace[w.warmup_start as usize..].iter().copied(),
            |_| NoPrefetcher,
            &mut paper_l2(),
        );
        assert_eq!(sampled.samples.len(), 8, "burn-in windows still run");
        assert_eq!(sampled.burn_in, 3);
        assert_eq!(sampled.measured_samples().len(), 5);
        // The summary over measured samples matches a hand computation.
        let tail: Vec<f64> = sampled.samples[3..]
            .iter()
            .map(|s| s.report.timing.uipc())
            .collect();
        assert_eq!(sampled.uipc(), Summary::of(&tail));
        // Absurd burn-in clamps instead of panicking.
        let all_burn = SamplingPlan::systematic(4, 1_000, 500).with_burn_in(99);
        let r = run_sampled(
            &EngineConfig::paper_default(),
            &all_burn,
            trace.len() as u64,
            |w| trace[w.warmup_start as usize..].iter().copied(),
            |_| NoPrefetcher,
            &mut paper_l2(),
        );
        assert_eq!(r.measured_samples().len(), 0);
        assert_eq!(r.uipc().mean, 0.0, "empty summary is zeros, not NaN");
    }

    #[test]
    fn sample_trace_file_matches_in_memory_sampling() {
        let trace = looped_trace(60_000, 4096);
        let path = std::env::temp_dir().join(format!("pif-sampling-{}.pift", std::process::id()));
        let file = std::fs::File::create(&path).unwrap();
        let mut writer =
            pif_trace::TraceWriter::with_chunk_records(std::io::BufWriter::new(file), "t", 1024)
                .unwrap();
        writer.extend(trace.iter().copied()).unwrap();
        writer.finish().unwrap();

        let continuous = SamplingPlan::random(6, 99, 2_000, 1_000);
        let per_window = continuous.with_warm_strategy(WarmStrategy::PerWindow {
            extra_warmup_instrs: 1_500,
        });
        let config = EngineConfig::paper_default();
        for plan in [continuous, per_window] {
            let from_file = sample_trace_file(&config, &plan, &path, |_| NoPrefetcher).unwrap();
            let in_memory = run_sampled(
                &config,
                &plan,
                trace.len() as u64,
                |w| trace[w.warmup_start as usize..].iter().copied(),
                |_| NoPrefetcher,
                &mut paper_l2(),
            );
            assert_eq!(from_file.total_records, trace.len() as u64);
            assert_eq!(from_file.samples.len(), in_memory.samples.len());
            for (a, b) in from_file.samples.iter().zip(&in_memory.samples) {
                assert_eq!(a.window, b.window);
                assert_eq!(a.report.fetch, b.report.fetch);
                assert_eq!(a.report.timing, b.report.timing);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn per_window_burn_in_extends_the_warmup_window() {
        let base = SamplingPlan::systematic(4, 2_000, 1_000);
        let extra = base.with_warm_strategy(WarmStrategy::PerWindow {
            extra_warmup_instrs: 1_500,
        });
        assert_eq!(base.effective_warmup_instrs(), 2_000);
        assert_eq!(extra.effective_warmup_instrs(), 3_500);
        let (a, b) = (base.windows(100_000), extra.windows(100_000));
        for (wa, wb) in a.iter().zip(&b) {
            // Same measurement windows, longer warm-up prefix (clamped at
            // the trace head).
            assert_eq!(wa.measure_start, wb.measure_start);
            assert_eq!(wa.measure_instrs, wb.measure_instrs);
            assert_eq!(
                wb.warmup_start,
                wb.measure_start.saturating_sub(3_500),
                "extra burn-in is prepended to the warmup window"
            );
            assert!(wb.warmup_start <= wa.warmup_start);
        }
    }
}
