//! Per-cell measurement drivers: run one job of a sweep grid and emit its
//! metrics.
//!
//! Every driver derives its trace from the job's workload via
//! [`WorkloadProfile::generate_with_execution_seed_into`], so a cell's
//! result depends only on (spec, scale, seed) — never on which worker
//! thread ran it or when. A job holds its trace in one of three forms:
//!
//! * **Streamed.** Every trace walk of a synthetic workload — an
//!   analysis, region or stream-coverage job — gets its instructions
//!   pushed straight from the generator
//!   ([`WorkloadProfile::feed_with_execution_seed`]) into the walk, and
//!   its trace is never in memory. That is every job of `fig2`, `fig3`,
//!   `fig7`, `fig8-offsets`, `fig8-sizes`, `fig9-lengths` and
//!   `fig9-history`. A workload with several walks (`fig8-sizes`' five
//!   region sizes) generates its trace once per walk: at `--scale paper`
//!   that is faster than materializing it once, whose page faults cost
//!   more than the four extra generations.
//! * **Shared v2 buffer.** Engine cells of a synthetic workload replay a
//!   shared in-memory v2 trace ([`pif_trace::TraceWriter`] into a
//!   `Vec<u8>`, ~2.15 bytes per instruction). The first cell that needs
//!   it encodes it; every cell of the workload — each prefetcher and axis
//!   point — then decodes it on its own pool thread through
//!   [`pif_trace::TraceReader::instrs`]. The replayed records are exactly
//!   the generated ones, so reports are unchanged; a decode error fails
//!   the cell and never shortens its trace. The buffer costs ~26 MB per
//!   workload at `--scale paper` (12M instructions), ~155 MB for `fig10`'s
//!   six workloads, held until the sweep ends.
//! * **Materialized.** Sampled cells, which seek into their trace, share
//!   the workload's materialized trace: 40 bytes per instruction, 480 MB
//!   per workload at `--scale paper`, generated once by the first cell
//!   that needs it.
//!
//! Recorded workloads ([`crate::recorded`]) have no generator at all:
//! `run_spec_impl` pre-seeds the materialized memo with the loaded
//! trace, and every measure — engine cells included — consumes it.
//!
//! A sampled cell runs its windows one after another, in trace order, on
//! its pool thread ([`pif_sim::sampling::run_sampled`]): `--threads`
//! spreads cells over workers, never one cell's windows.
//!
//! Engine runs and sampled windows simulate their L2 in their thread's
//! model ([`with_worker_l2`]), reset in place, instead of building and
//! page-faulting a fresh 131,072-line model per run.
//!
//! The pool runs **jobs**, and a job is usually one cell. The exception
//! is the history-capacity sweep ([`group_jobs`]): the analysis cells of
//! one workload that differ only in history capacity form one *lane
//! job*, and one [`PifAnalyzer`] walk of the trace measures all of them,
//! one lane per capacity, instead of one walk per cell. `fig9-history`
//! runs 6 jobs for its 30 cells, each streaming its workload's trace.
//! Every cell still merges by its own index and counts in
//! [`jobs_executed`]; with a result cache attached, a lane job holds
//! only its workload's missing cells.

use pif_baselines::{DiscontinuityPrefetcher, NextLinePrefetcher, PerfectICache, Tifs};
use pif_core::analysis::{analyze_regions, PifAnalyzer, PifCoverageReport};
use pif_core::{Pif, PifConfig};
use pif_sim::cache::L2Model;
use pif_sim::predictor_eval::{evaluate_stream_coverage_warmup, TemporalPredictorConfig};
use pif_sim::prefetch::Prefetcher;
use pif_sim::sampling::{run_sampled, SampledRunReport, SamplingPlan, WarmStrategy};
use pif_sim::{Engine, EngineConfig, L2Config, NoPrefetcher, RunOptions, RunReport};
use pif_trace::{TraceDecodeError, TraceHasher, TraceReader, TraceWriter};
use pif_types::{InstrFeed, RegionGeometry, RetiredInstr, TrapLevel};
use pif_workloads::{GeneratedFeed, Trace, WorkloadProfile};

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::registry::{
    DENSITY_BUCKETS, JUMP_CDF_BUCKETS, LENGTH_CDF_BUCKETS, REGION_OFFSETS, RUN_BUCKETS,
};
use crate::report::{Cell, Metric};
use crate::scale::Scale;
use crate::spec::{CdfKind, JobCoord, Measure, ParamAxis, PrefetcherKind, SweepSpec};

/// Metric name for a jump-distance CDF point (`jump_cdf_le_2p07` = the
/// cumulative fraction of prediction-weighted jumps of length <= 2^7).
pub fn jump_cdf_metric(log2: usize) -> String {
    format!("jump_cdf_le_2p{log2:02}")
}

/// Metric name for a stream-length CDF point.
pub fn len_cdf_metric(log2: usize) -> String {
    format!("len_cdf_le_2p{log2:02}")
}

/// Metric name for a trigger-relative offset frequency (`offset_m2`,
/// `offset_p1`, …).
pub fn offset_metric(offset: i64) -> String {
    if offset < 0 {
        format!("offset_m{}", -offset)
    } else {
        format!("offset_p{offset}")
    }
}

/// Metric name for a region-density bucket.
pub fn density_metric(lo: u32, hi: u32) -> String {
    format!("density_{lo}_{hi}")
}

/// Metric name for a discontinuous-runs bucket.
pub fn runs_metric(lo: u32, hi: u32) -> String {
    format!("runs_{lo}_{hi}")
}

/// Process-wide count of cells actually simulated (not cache replays).
static JOBS_EXECUTED: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of grid cells executed by [`run_job`] since process
/// start. A cache replay does not increment it, which is what lets
/// `tests/cache.rs` prove a warm-cache sweep runs zero engine jobs.
#[doc(hidden)]
pub fn jobs_executed() -> u64 {
    JOBS_EXECUTED.load(Ordering::Relaxed)
}

/// One workload of the expanded grid: its stable report name, for
/// synthetic workloads the generating profile, and the per-sweep memos
/// its cells share. Recorded workloads carry no profile — their `trace`
/// is pre-seeded by `run_spec_impl` before any job runs.
#[derive(Debug)]
pub(crate) struct JobWorkload {
    pub name: String,
    pub profile: Option<WorkloadProfile>,
    /// Materialized trace for sampled cells and for every recorded cell.
    pub trace: OnceLock<Trace>,
    /// Encoded v2 trace that synthetic Engine cells replay.
    pub encoded: OnceLock<Vec<u8>>,
    /// Content hash of the trace: the trace half of every cache key.
    /// Filled at most once per sweep and only when a cache is attached:
    /// from the cache's memo for a synthetic workload, from `trace` for
    /// a recorded one.
    pub trace_hash: OnceLock<u64>,
}

impl JobWorkload {
    pub fn new(name: String, profile: Option<WorkloadProfile>) -> Self {
        JobWorkload {
            name,
            profile,
            trace: OnceLock::new(),
            encoded: OnceLock::new(),
            trace_hash: OnceLock::new(),
        }
    }
}

/// [`pif_trace::content_hash`] of the workload's generated trace,
/// computed in the calling thread (no generator thread, no channel). It
/// generates the whole trace, so sweeps reach it only through
/// [`crate::ResultCache::trace_hash`], which remembers the result per
/// cache, and only when a cache is attached.
pub(crate) fn generated_trace_hash(
    profile: &WorkloadProfile,
    instructions: usize,
    seed_offset: u64,
) -> u64 {
    let mut hasher = TraceHasher::new();
    profile.generate_with_execution_seed_into(instructions, seed_offset, |instr| {
        hasher.update(&instr)
    });
    hasher.finish()
}

/// The workload's generated trace, encoded as an in-memory v2 trace.
fn encode_generated(profile: &WorkloadProfile, instructions: usize, seed_offset: u64) -> Vec<u8> {
    let mut writer = TraceWriter::new(Vec::new(), profile.name()).expect("Vec sink cannot fail");
    profile.generate_with_execution_seed_into(instructions, seed_offset, |instr| {
        writer.push(&instr).expect("Vec sink cannot fail")
    });
    writer.finish().expect("Vec sink cannot fail")
}

/// The cell's applied configuration: the spec's base plus its axis point.
fn applied_configs(spec: &SweepSpec, coord: JobCoord) -> (PifConfig, EngineConfig) {
    let mut pif = spec.pif_base;
    spec.axis.apply(coord.point, &mut pif);
    (pif, spec.engine_base)
}

/// Groups the cells a sweep must simulate (in index order) into pool
/// jobs: reorders `cells` so that each job's cells are adjacent, and
/// returns the jobs as slices of it, in the order of their first cells.
///
/// [`Measure::PifAnalysis`] cells of one workload whose applied
/// configurations differ only in `history_capacity` form one job: a
/// single walk of the trace evaluates every capacity as a lane of one
/// [`PifAnalyzer`]. Every other cell is a job of its own. The rule reads
/// the applied configurations, never the spec name or the axis label, so
/// `fig9-history` runs one job per workload while `fig7`, `fig9-lengths`
/// and `fig8-sizes` keep one job per cell.
///
/// Jobs are slices of `cells`, so an engine sweep allocates nothing per
/// job here.
pub(crate) fn group_jobs<'a>(spec: &SweepSpec, cells: &'a mut [JobCoord]) -> Vec<&'a [JobCoord]> {
    if !matches!(spec.measure, Measure::PifAnalysis(_)) {
        return cells.chunks(1).collect();
    }
    // Everything about a cell but its history capacity.
    let lane_key = |c: JobCoord| {
        let (pif, engine) = applied_configs(spec, c);
        (
            c.workload,
            c.prefetcher,
            pif.with_history_capacity(1),
            engine,
        )
    };
    let mut grouped: Vec<Vec<JobCoord>> = Vec::new();
    for &cell in cells.iter() {
        match grouped
            .iter_mut()
            .find(|job| lane_key(job[0]) == lane_key(cell))
        {
            Some(job) => job.push(cell),
            None => grouped.push(vec![cell]),
        }
    }
    for (slot, &cell) in cells.iter_mut().zip(grouped.iter().flatten()) {
        *slot = cell;
    }
    let mut rest: &'a [JobCoord] = cells;
    grouped
        .iter()
        .map(|job| {
            let (head, tail) = rest.split_at(job.len());
            rest = tail;
            head
        })
        .collect()
}

/// The instructions of one trace-walk job: generated as the walk consumes
/// them, or a recorded workload's trace.
enum JobFeed<'a> {
    Generated(GeneratedFeed<'a>),
    Shared(&'a [RetiredInstr]),
}

impl InstrFeed for JobFeed<'_> {
    fn instr_count(&self) -> usize {
        match self {
            JobFeed::Generated(feed) => feed.instr_count(),
            JobFeed::Shared(trace) => trace.len(),
        }
    }

    fn feed(self, sink: impl FnMut(RetiredInstr)) {
        match self {
            JobFeed::Generated(feed) => feed.feed(sink),
            JobFeed::Shared(trace) => trace.feed(sink),
        }
    }
}

thread_local! {
    /// This thread's L2 model (see [`with_worker_l2`]).
    static WORKER_L2: RefCell<Option<L2Model>> = const { RefCell::new(None) };
}

/// Runs `f` on the calling thread's L2 model, built at `config` on first
/// use and kept until the thread exits. Engine runs handed it reset it in
/// place ([`RunOptions::l2`]), so results are those of a fresh model,
/// while a pool worker that simulates cell after cell — 30 engine runs
/// per `fig10` sweep, one run per window of a sampled cell — keeps one
/// model's ~1 MiB resident instead of building and page-faulting one per
/// run. A call nested in `f` on the same thread panics.
fn with_worker_l2<R>(config: L2Config, f: impl FnOnce(&mut L2Model) -> R) -> R {
    let new = || L2Model::new(config).expect("validated geometry");
    WORKER_L2.with(|slot| f(slot.borrow_mut().get_or_insert_with(new)))
}

/// The cells one pool job returns, in `job` order.
///
/// A one-cell job keeps its cell inline rather than in a one-element
/// `Vec`: one such vector per cell raised `fig10`'s peak resident set by
/// ~3 MiB (15%) at 300k instructions on a 2-vCPU host.
#[derive(Debug)]
pub(crate) enum JobCells {
    /// The cell of a one-cell job.
    One(Cell),
    /// The cells of a lane job.
    Lanes(Vec<Cell>),
}

impl IntoIterator for JobCells {
    type Item = Cell;
    type IntoIter = std::iter::Chain<std::option::IntoIter<Cell>, std::vec::IntoIter<Cell>>;

    fn into_iter(self) -> Self::IntoIter {
        match self {
            JobCells::One(cell) => Some(cell).into_iter().chain(Vec::new()),
            JobCells::Lanes(cells) => None.into_iter().chain(cells),
        }
    }
}

/// Runs one pool job — one grid cell, or the history-capacity lanes of
/// one workload (see [`group_jobs`]) — and returns its cells (without
/// cross-cell derived metrics — see [`crate::run_spec`] for the merge
/// pass).
///
/// # Panics
///
/// A cell that cannot be measured panics, failing its sweep: a recorded
/// workload under [`Measure::Static`], or a shared trace that does not
/// decode cleanly. A job of several cells that are not analysis lanes
/// panics too.
pub(crate) fn run_job(
    spec: &SweepSpec,
    scale: &Scale,
    workloads: &[JobWorkload],
    job: &[JobCoord],
) -> JobCells {
    assert!(
        job.len() == 1 || matches!(spec.measure, Measure::PifAnalysis(_)),
        "spec {}: only analysis lanes share a job",
        spec.name
    );
    JOBS_EXECUTED.fetch_add(job.len() as u64, Ordering::Relaxed);
    let coord = job[0];
    let workload = &workloads[coord.workload];
    // Memoized per-workload trace: generated once per (workload, seed),
    // shared across axis points. `get_or_init` blocks concurrent
    // initializers, so exactly one job pays the generation cost.
    // Recorded workloads arrive pre-seeded, so the generating closure
    // never runs for them.
    let trace = || {
        workload.trace.get_or_init(|| {
            workload
                .profile
                .as_ref()
                .expect("recorded traces are pre-seeded by run_spec_impl")
                .generate_with_execution_seed(scale.instructions, spec.seed_offset)
        })
    };
    // The instructions of a trace walk: streamed from the generator, or
    // a recorded workload's pre-seeded trace.
    let feed = || match &workload.profile {
        Some(profile) => JobFeed::Generated(
            profile.feed_with_execution_seed(scale.instructions, spec.seed_offset),
        ),
        None => JobFeed::Shared(trace().instrs()),
    };
    let (pif, engine_cfg) = applied_configs(spec, coord);
    let warmup = scale.warmup_instrs();

    let new_cell = |c: JobCoord| Cell {
        index: c.index,
        workload: workload.name.clone(),
        prefetcher: c.prefetcher.map(PrefetcherKind::label),
        point: spec.axis.label(c.point),
        metrics: Vec::new(),
    };
    let mut cell = new_cell(coord);

    match spec.measure {
        Measure::Engine => {
            let engine = Engine::new(engine_cfg);
            let kind = coord.prefetcher.unwrap_or(PrefetcherKind::None);
            let report = match &workload.profile {
                // Synthetic workloads replay the sweep's shared v2 trace,
                // encoded by the first cell that needs it (as above).
                Some(profile) => {
                    let encoded = workload.encoded.get_or_init(|| {
                        let encoded =
                            encode_generated(profile, scale.instructions, spec.seed_offset);
                        #[cfg(test)]
                        let encoded = tests::tamper(scale.instructions, encoded);
                        encoded
                    });
                    engine_replay(&engine, encoded, kind, pif, warmup).unwrap_or_else(|e| {
                        panic!(
                            "spec {}: workload {}: shared trace does not decode: {e}",
                            spec.name, workload.name
                        )
                    })
                }
                // Recorded workloads replay the pre-seeded trace memo.
                None => engine_run(&engine, trace().instrs().iter().copied(), kind, pif, warmup),
            };
            engine_metrics(&mut cell, &report);
        }
        Measure::PifAnalysis(cdf) => {
            // One walk of the trace for every history capacity of the job.
            let capacities: Vec<usize> = job
                .iter()
                .map(|&c| applied_configs(spec, c).0.history_capacity)
                .collect();
            let reports = PifAnalyzer::with_history_lanes(pif, engine_cfg.icache, &capacities)
                .analyze_lanes(feed(), warmup);
            return JobCells::Lanes(
                job.iter()
                    .zip(&reports)
                    .map(|(&c, report)| {
                        let mut cell = new_cell(c);
                        analysis_metrics(&mut cell, report, cdf);
                        cell
                    })
                    .collect(),
            );
        }
        Measure::Regions {
            preceding,
            succeeding,
        } => {
            let geometry =
                RegionGeometry::new(preceding, succeeding).expect("spec carries valid geometry");
            let report = analyze_regions(feed(), geometry);
            cell.push("total_regions", Metric::U64(report.total_regions));
            for &(lo, hi) in &DENSITY_BUCKETS {
                cell.push(
                    density_metric(lo, hi),
                    Metric::F64(report.density_fraction(lo, hi)),
                );
            }
            for &(lo, hi) in &RUN_BUCKETS {
                cell.push(
                    runs_metric(lo, hi),
                    Metric::F64(report.runs_fraction(lo, hi)),
                );
            }
            for &o in &REGION_OFFSETS {
                cell.push(offset_metric(o), Metric::F64(report.offset_frequency(o)));
            }
        }
        Measure::StreamCoverage => {
            let report = evaluate_stream_coverage_warmup(
                &engine_cfg,
                TemporalPredictorConfig::default(),
                feed(),
                warmup,
            );
            cell.push(
                "correct_path_misses",
                Metric::U64(report.correct_path_misses),
            );
            cell.push("miss", Metric::F64(report.miss));
            cell.push("access", Metric::F64(report.access));
            cell.push("retire", Metric::F64(report.retire));
            cell.push("retire_sep", Metric::F64(report.retire_sep));
        }
        Measure::Sampled { samples } => {
            let samples = match &spec.axis {
                ParamAxis::SampleCount(v) => v[coord.point],
                _ => samples,
            } as usize;
            // Window lengths scale with the run so smoke and paper runs
            // keep the same shape: 0.1% of the trace measured per sample
            // (SMARTS-style many-small-windows; floored so smoke windows
            // still exercise steady state), twice that as warmup.
            let measure_instrs = (scale.instructions as u64 / 1_000).max(1_000);
            let warmup_instrs = 2 * measure_instrs;
            // The seed is a pure function of (spec, job index): reports
            // stay byte-identical across thread counts and runs.
            let seed = spec.seed_offset.wrapping_add(coord.index as u64);
            // Per-window warming with an extra warmup's worth of burn-in
            // prepended: every window starts from fresh predictors, and
            // the doubled warm-up prefix rebuilds the predictor state that
            // continuous warming would carry across windows. The golden
            // reports encode this plan; ROADMAP item 1a tracks its bias
            // against the exhaustive run.
            let plan = SamplingPlan::random(samples, seed, warmup_instrs, measure_instrs)
                .with_warm_strategy(WarmStrategy::PerWindow {
                    extra_warmup_instrs: warmup_instrs,
                });
            let kind = coord.prefetcher.unwrap_or(PrefetcherKind::None);
            let t = trace();
            let report = match kind {
                PrefetcherKind::None => sampled_run(&engine_cfg, &plan, t, || NoPrefetcher),
                PrefetcherKind::NextLine => {
                    sampled_run(&engine_cfg, &plan, t, NextLinePrefetcher::aggressive)
                }
                PrefetcherKind::Tifs => {
                    sampled_run(&engine_cfg, &plan, t, || Tifs::new(Default::default()))
                }
                PrefetcherKind::TifsUnbounded => {
                    sampled_run(&engine_cfg, &plan, t, Tifs::unbounded)
                }
                PrefetcherKind::Discontinuity => {
                    sampled_run(&engine_cfg, &plan, t, DiscontinuityPrefetcher::paper_scale)
                }
                PrefetcherKind::Pif => sampled_run(&engine_cfg, &plan, t, || Pif::new(pif)),
                PrefetcherKind::Perfect => sampled_run(&engine_cfg, &plan, t, || PerfectICache),
            };
            sampled_metrics(&mut cell, &plan, &report);
        }
        Measure::Static => {
            // Table I reports workload identity parameters, which do not
            // depend on the run scale: use the unscaled profile.
            let profile = workload.profile.as_ref().unwrap_or_else(|| {
                panic!(
                    "spec {}: Measure::Static needs synthetic workloads",
                    spec.name
                )
            });
            let unscaled = WorkloadProfile::all()
                .into_iter()
                .find(|w| w.name() == profile.name());
            let params = unscaled.as_ref().unwrap_or(profile).params().clone();
            cell.push(
                "footprint_mb",
                Metric::F64(params.approx_footprint_bytes() as f64 / (1024.0 * 1024.0)),
            );
            cell.push("num_functions", Metric::U64(params.num_functions as u64));
            cell.push(
                "num_transaction_types",
                Metric::U64(params.num_transaction_types as u64),
            );
        }
    }
    JobCells::One(cell)
}

/// The metrics of one [`Measure::PifAnalysis`] cell.
fn analysis_metrics(cell: &mut Cell, report: &PifCoverageReport, cdf: CdfKind) {
    cell.push("miss_coverage", Metric::F64(report.overall_miss_coverage()));
    cell.push(
        "predictor_coverage",
        Metric::F64(report.overall_predictor_coverage()),
    );
    cell.push(
        "miss_coverage_tl0",
        Metric::F64(report.miss_coverage(TrapLevel::Tl0)),
    );
    cell.push(
        "miss_coverage_tl1",
        Metric::F64(report.miss_coverage(TrapLevel::Tl1)),
    );
    match cdf {
        CdfKind::None => {}
        CdfKind::JumpDistance => {
            let mut cdf = report.jump_distance.cdf();
            cdf.resize(JUMP_CDF_BUCKETS, 1.0);
            for (i, v) in cdf.iter().enumerate() {
                cell.push(jump_cdf_metric(i), Metric::F64(*v));
            }
        }
        CdfKind::StreamLength => {
            let mut cdf = report.stream_length.cdf();
            cdf.resize(LENGTH_CDF_BUCKETS, 1.0);
            for (i, v) in cdf.iter().enumerate() {
                cell.push(len_cdf_metric(i), Metric::F64(*v));
            }
        }
    }
}

/// One engine run over an encoded v2 trace. The run must consume the
/// whole trace cleanly: a decode error — corruption anywhere, up to a
/// terminator whose record count disagrees — is returned instead of the
/// report, never turned into a run over a shorter trace.
fn engine_replay(
    engine: &Engine,
    encoded: &[u8],
    kind: PrefetcherKind,
    pif: PifConfig,
    warmup: usize,
) -> Result<RunReport, TraceDecodeError> {
    let mut source = TraceReader::open(encoded)?.instrs();
    let report = engine_run(engine, &mut source, kind, pif, warmup);
    match source.take_error() {
        Some(e) => Err(e),
        None => Ok(report),
    }
}

/// One engine run of `source` under the cell's prefetcher kind, on the
/// thread's L2 — shared by the synthetic shared-trace replay and the
/// recorded-trace path.
fn engine_run(
    engine: &Engine,
    source: impl pif_types::InstrSource,
    kind: PrefetcherKind,
    pif: PifConfig,
    warmup: usize,
) -> RunReport {
    with_worker_l2(engine.config().l2, |l2| {
        let opts = RunOptions::new().warmup(warmup).l2(l2);
        match kind {
            PrefetcherKind::None => engine.run(source, NoPrefetcher, opts),
            PrefetcherKind::NextLine => engine.run(source, NextLinePrefetcher::aggressive(), opts),
            PrefetcherKind::Tifs => engine.run(source, Tifs::new(Default::default()), opts),
            PrefetcherKind::TifsUnbounded => engine.run(source, Tifs::unbounded(), opts),
            PrefetcherKind::Discontinuity => {
                engine.run(source, DiscontinuityPrefetcher::paper_scale(), opts)
            }
            PrefetcherKind::Pif => engine.run(source, Pif::new(pif), opts),
            PrefetcherKind::Perfect => engine.run(source, PerfectICache, opts),
        }
    })
}

/// One sampled cell run: the plan's windows over the memoized workload
/// trace, in trace order on the thread's L2. The cell's plan uses
/// per-window warming, so `mk` builds one fresh prefetcher per window.
fn sampled_run<P: Prefetcher>(
    engine_cfg: &EngineConfig,
    plan: &SamplingPlan,
    trace: &Trace,
    mk: impl Fn() -> P,
) -> SampledRunReport {
    with_worker_l2(engine_cfg.l2, |l2| {
        run_sampled(
            engine_cfg,
            plan,
            trace.len() as u64,
            |w| trace.instrs()[w.warmup_start as usize..].iter().copied(),
            |_| mk(),
            l2,
        )
    })
}

fn sampled_metrics(cell: &mut Cell, plan: &SamplingPlan, report: &SampledRunReport) {
    cell.push("samples", Metric::U64(report.samples.len() as u64));
    cell.push("warmup_instrs", Metric::U64(plan.warmup_instrs));
    cell.push("measure_instrs", Metric::U64(plan.measure_instrs));
    cell.push(
        "measured_instructions",
        Metric::U64(report.measured_instructions()),
    );
    cell.push("sampled_fraction", Metric::F64(report.sampled_fraction()));
    let uipc = report.uipc();
    cell.push("uipc_mean", Metric::F64(uipc.mean));
    cell.push("uipc_stderr", Metric::F64(uipc.stderr));
    cell.push("uipc_ci95", Metric::F64(uipc.ci95));
    cell.push("uipc_rel_err", Metric::F64(uipc.relative_error()));
    let mpki = report.mpki();
    cell.push("mpki_mean", Metric::F64(mpki.mean));
    cell.push("mpki_ci95", Metric::F64(mpki.ci95));
    let coverage = report.miss_coverage();
    cell.push("miss_coverage_mean", Metric::F64(coverage.mean));
}

fn engine_metrics(cell: &mut Cell, report: &RunReport) {
    cell.push("instructions", Metric::U64(report.frontend.instructions));
    cell.push("cycles", Metric::U64(report.timing.cycles));
    cell.push("demand_accesses", Metric::U64(report.fetch.demand_accesses));
    cell.push("demand_misses", Metric::U64(report.fetch.demand_misses));
    cell.push(
        "wrong_path_accesses",
        Metric::U64(report.fetch.wrong_path_accesses),
    );
    cell.push(
        "covered_by_prefetch",
        Metric::U64(report.fetch.covered_by_prefetch),
    );
    cell.push("partial_covered", Metric::U64(report.fetch.partial_covered));
    cell.push("prefetch_issued", Metric::U64(report.prefetch.issued));
    cell.push("prefetch_useful", Metric::U64(report.prefetch.useful));
    cell.push("l2_hits", Metric::U64(report.l2_hits));
    cell.push("l2_misses", Metric::U64(report.l2_misses));
    cell.push("hit_rate", Metric::F64(report.fetch.hit_rate()));
    cell.push("miss_coverage", Metric::F64(report.miss_coverage()));
    let mpki = report.fetch.demand_misses as f64 / (report.frontend.instructions as f64 / 1000.0);
    cell.push("mpki", Metric::F64(mpki));
    cell.push("prefetch_accuracy", Metric::F64(report.prefetch.accuracy()));
    cell.push("uipc", Metric::F64(report.timing.uipc()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{handle_request, Request, Response};
    use crate::service::{Service, ServiceConfig};
    use std::sync::atomic::AtomicBool;
    use std::sync::Mutex;

    /// Damage done to an encoded trace.
    type Corruption = fn(Vec<u8>) -> Vec<u8>;

    /// Shared-trace corruptions armed by the tests below, keyed by the
    /// run's instruction count so that tests running concurrently at
    /// other scales never see them.
    static TAMPER: Mutex<Vec<(usize, Corruption)>> = Mutex::new(Vec::new());

    /// Applies the corruption armed for `instructions`, if any, to a
    /// freshly encoded shared trace.
    pub(super) fn tamper(instructions: usize, encoded: Vec<u8>) -> Vec<u8> {
        let armed = TAMPER.lock().unwrap();
        match armed.iter().find(|(n, _)| *n == instructions) {
            Some((_, corrupt)) => corrupt(encoded),
            None => encoded,
        }
    }

    /// Byte offset of the first chunk header: magic, version, name.
    fn first_chunk(encoded: &[u8]) -> usize {
        12 + u32::from_le_bytes(encoded[8..12].try_into().unwrap()) as usize
    }

    /// Cut after the first chunk: a clean prefix of whole records with no
    /// terminator.
    fn cut_after_first_chunk(mut encoded: Vec<u8>) -> Vec<u8> {
        let at = first_chunk(&encoded);
        let payload = u32::from_le_bytes(encoded[at + 4..at + 8].try_into().unwrap());
        encoded.truncate(at + 8 + payload as usize);
        encoded
    }

    fn cut_in_half(mut encoded: Vec<u8>) -> Vec<u8> {
        encoded.truncate(encoded.len() / 2);
        encoded
    }

    fn cut_last_byte(mut encoded: Vec<u8>) -> Vec<u8> {
        encoded.pop();
        encoded
    }

    /// Flips bit 1 of the first record's flags: trap level 2 or 3.
    fn flip_first_flags(mut encoded: Vec<u8>) -> Vec<u8> {
        let at = first_chunk(&encoded) + 8;
        encoded[at] ^= 0b10;
        encoded
    }

    /// Flips the low bit of the terminator's record count: every record
    /// decodes, only the total disagrees.
    fn flip_terminator_count(mut encoded: Vec<u8>) -> Vec<u8> {
        let at = encoded.len() - 8;
        encoded[at] ^= 1;
        encoded
    }

    #[test]
    fn analysis_cells_differing_only_in_history_capacity_share_a_job() {
        use crate::registry;
        // Each job as the axis points of its cells.
        let points = |spec: &SweepSpec, mut cells: Vec<JobCoord>| -> Vec<Vec<usize>> {
            group_jobs(spec, &mut cells)
                .iter()
                .map(|job| job.iter().map(|c| c.point).collect())
                .collect()
        };
        let jobs = |spec: &SweepSpec| points(spec, spec.jobs());
        let fig9 = registry::fig9_history();
        let mut cells = fig9.jobs();
        let fig9_jobs = group_jobs(&fig9, &mut cells);
        assert_eq!(fig9_jobs.len(), 6);
        for (w, job) in fig9_jobs.iter().enumerate() {
            assert_eq!(job.len(), registry::FIG9_HISTORY_SIZES.len());
            assert!(job.iter().all(|c| c.workload == w));
        }
        for spec in [
            registry::fig7(),
            registry::fig9_lengths(),
            registry::fig8_sizes(),
            registry::fig10(),
        ] {
            let jobs = jobs(&spec);
            assert_eq!(jobs.len(), spec.grid_len(), "{}", spec.name);
        }
        // The rule reads applied configurations, not the axis: design
        // points that differ only in history capacity share a job, one
        // that changes anything else runs alone.
        let base = PifConfig::paper_default();
        let spec = SweepSpec::new("points", "points", Measure::PifAnalysis(CdfKind::None))
            .with_workloads(vec!["OLTP-DB2"])
            .with_axis(ParamAxis::PifPoints(vec![
                ("small".into(), base.with_history_capacity(16)),
                ("sabs".into(), base.with_sab_count(2)),
                ("large".into(), base.with_history_capacity(64)),
            ]));
        assert_eq!(jobs(&spec), vec![vec![0, 2], vec![1]]);
        // A partially cached grid groups only the cells still missing.
        let missing: Vec<JobCoord> = fig9
            .jobs()
            .into_iter()
            .filter(|c| c.point % 2 == 1)
            .collect();
        let partial = points(&fig9, missing);
        assert_eq!(partial.len(), 6);
        assert!(partial.iter().all(|job| *job == [1, 3]));
    }

    /// A trace-walk job of a synthetic workload streams its trace, and
    /// gives the same cells as the job walking that trace materialized
    /// (the memo a recorded workload is served from).
    #[test]
    fn streamed_jobs_equal_materialized_jobs() {
        use crate::registry;
        let scale = Scale::tiny();
        for mut spec in [
            registry::fig2(),
            registry::fig3(),
            registry::fig7(),
            registry::fig8_sizes(),
            registry::fig9_history(),
        ] {
            spec.seed_offset = 7;
            let mut cells = spec.jobs();
            let jobs = group_jobs(&spec, &mut cells);
            let run = |workloads: &[JobWorkload]| -> Vec<Vec<Cell>> {
                jobs.iter()
                    .map(|job| run_job(&spec, &scale, workloads, job).into_iter().collect())
                    .collect()
            };
            let synthetic: Vec<JobWorkload> = scale
                .workloads()
                .into_iter()
                .map(|w| JobWorkload::new(w.name().to_string(), Some(w)))
                .collect();
            let streamed = run(&synthetic);
            assert!(
                synthetic.iter().all(|w| w.trace.get().is_none()),
                "{}: a streamed job materializes nothing",
                spec.name
            );
            let materialized: Vec<JobWorkload> = scale
                .workloads()
                .into_iter()
                .map(|w| {
                    let memo = JobWorkload::new(w.name().to_string(), None);
                    let trace = w.generate_with_execution_seed(scale.instructions, 7);
                    memo.trace.set(trace).expect("a fresh memo");
                    memo
                })
                .collect();
            assert_eq!(streamed, run(&materialized), "{}", spec.name);
        }
    }

    #[test]
    fn generated_trace_hash_equals_the_streamed_content_hash() {
        let n = Scale::tiny().instructions;
        for profile in Scale::tiny().workloads() {
            for seed in [0, 5] {
                assert_eq!(
                    generated_trace_hash(&profile, n, seed),
                    pif_trace::content_hash(profile.stream_with_execution_seed(n, seed)),
                    "{} seed {seed}",
                    profile.name()
                );
            }
        }
    }

    /// Every synthetic Engine cell replays the shared trace to exactly the
    /// result of streaming the workload's generator into `Engine::run`.
    #[test]
    fn replayed_engine_cells_equal_streamed_engine_runs() {
        let kinds = [
            PrefetcherKind::None,
            PrefetcherKind::NextLine,
            PrefetcherKind::Tifs,
            PrefetcherKind::TifsUnbounded,
            PrefetcherKind::Discontinuity,
            PrefetcherKind::Pif,
            PrefetcherKind::Perfect,
        ];
        let mut spec = SweepSpec::new("replay", "replay vs stream", Measure::Engine)
            .with_workloads(vec!["Web-Zeus"])
            .with_prefetchers(kinds.to_vec());
        spec.seed_offset = 3;
        let scale = Scale::tiny();
        let report = crate::run_spec(&spec, &crate::RunOptions::new().scale(scale).threads(2));
        let profile = scale
            .workloads()
            .into_iter()
            .find(|w| w.name() == "Web-Zeus")
            .unwrap();
        assert_eq!(report.cells.len(), kinds.len());
        for (cell, kind) in report.cells.iter().zip(kinds) {
            let streamed = engine_run(
                &Engine::new(spec.engine_base),
                profile.stream_with_execution_seed(scale.instructions, spec.seed_offset),
                kind,
                spec.pif_base,
                scale.warmup_instrs(),
            );
            let mut expected = cell.clone();
            expected.metrics.clear();
            engine_metrics(&mut expected, &streamed);
            let replayed: Vec<_> = cell
                .metrics
                .iter()
                .filter(|(name, _)| name != "uipc_speedup_vs_none")
                .cloned()
                .collect();
            assert_eq!(replayed, expected.metrics, "{}", kind.label());
        }
    }

    #[test]
    fn corrupt_shared_traces_fail_with_the_decode_error() {
        let scale = Scale::tiny();
        let profile = &scale.workloads()[0];
        let clean = encode_generated(profile, scale.instructions, 0);
        let engine = Engine::new(EngineConfig::paper_default());
        let replay = |encoded: &[u8]| {
            engine_replay(
                &engine,
                encoded,
                PrefetcherKind::None,
                pif_core::PifConfig::paper_default(),
                scale.warmup_instrs(),
            )
        };
        let report = replay(&clean).expect("the clean trace replays");
        assert_eq!(report.frontend.instructions, scale.instructions as u64);
        let cases: [(Corruption, &str); 5] = [
            (cut_after_first_chunk, "truncated"),
            (cut_in_half, "truncated"),
            (cut_last_byte, "truncated"),
            (flip_first_flags, "invalid trap level"),
            (flip_terminator_count, "record count mismatch"),
        ];
        for (corrupt, what) in cases {
            assert_eq!(
                replay(&corrupt(clean.clone())).map(|r| r.frontend.instructions),
                Err(TraceDecodeError::Corrupt(what))
            );
        }
    }

    /// A corrupt shared trace fails its sweep, and a submit of that sweep
    /// gets a typed error frame naming the decode error; the daemon
    /// keeps serving.
    #[test]
    fn corrupt_shared_trace_reaches_the_client_as_an_error_frame() {
        // A scale no other test runs at, so the corruption stays local.
        let instructions = 20_011;
        TAMPER
            .lock()
            .unwrap()
            .push((instructions, flip_terminator_count));
        let service = Service::start(ServiceConfig {
            queue_depth: 2,
            threads: 2,
            cache_dir: None,
            ..ServiceConfig::default()
        });
        let shutdown = AtomicBool::new(false);
        let submit = Request::Submit {
            id: 11,
            spec: "fig10".to_string(),
            scale: Scale {
                instructions,
                ..Scale::tiny()
            },
            smoke: true,
            deadline_ms: None,
        };
        let frame = handle_request(&submit.to_line(), &service, &shutdown).to_line();
        let Response::Error {
            kind,
            retryable,
            request_id,
            message,
            ..
        } = Response::parse(&frame).unwrap()
        else {
            panic!("expected an error frame, got {frame}");
        };
        assert_eq!(kind, "failed");
        assert!(!retryable, "a corrupt trace fails the same way again");
        assert_eq!(request_id, 11);
        assert!(message.contains("record count mismatch"), "{message}");
        let ping = Request::Ping.to_line();
        assert_eq!(handle_request(&ping, &service, &shutdown), Response::Pong);
        service.shutdown();
    }
}
