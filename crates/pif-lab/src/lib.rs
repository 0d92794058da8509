//! # pif-lab — declarative sweep orchestration
//!
//! The paper's evaluation is a grid: every figure is
//! {workload × prefetcher × one swept parameter}. This crate turns each
//! figure into data instead of a hand-rolled binary: a [`SweepSpec`]
//! names the axes, [`run_spec`] expands the grid and runs it on a
//! work-stealing thread pool over seeded workload traces, each generated
//! at most once per sweep and shared by its cells, and the result is a
//! [`SweepReport`] — a machine-checkable JSON artifact per figure.
//!
//! Determinism is the core contract: job results merge by job index and
//! reports carry no wall-clock data, so **a report is byte-identical
//! regardless of `--threads`** (proven by `tests/determinism.rs`). A
//! committed report is therefore a regression baseline: `piflab check`
//! re-runs a spec and compares every metric against the golden copy with
//! per-metric tolerances.
//!
//! # The `pif-lab-sweep/v1` schema
//!
//! A report is one JSON object:
//!
//! ```json
//! {
//!   "schema": "pif-lab-sweep/v1",
//!   "spec": "fig9-history",
//!   "title": "Fig. 9 right: history size sensitivity",
//!   "smoke": true,
//!   "scale": {"instructions": 40000, "footprint": 0.03, "warmup_fraction": 0.3},
//!   "tolerance": 1e-9,
//!   "grid": {
//!     "workloads": ["OLTP-DB2", "..."],
//!     "prefetchers": [],
//!     "axis": "history_capacity",
//!     "points": ["2048", "8192", "..."]
//!   },
//!   "config": {"icache_capacity_bytes": 65536, "...": 0},
//!   "cells": [
//!     {"index": 0, "workload": "OLTP-DB2", "prefetcher": null,
//!      "point": "2048", "metrics": {"miss_coverage": 0.42, "...": 0}}
//!   ]
//! }
//! ```
//!
//! * `grid` spans the cell array: cells appear workload-major, then by
//!   prefetcher, then by axis point, and `cells[i].index == i`.
//! * `metrics` values are JSON numbers (counters are exact integers,
//!   ratios shortest-round-trip floats). Non-finite values are rejected
//!   at emit time ([`SweepReport::to_json`] errors naming the cell);
//!   the validator still tolerates `null` metrics in old artifacts.
//! * `config` is a flat summary of the spec's base simulator/PIF
//!   configuration, so `piflab check` catches silent config drift.
//! * Engine grids with a `None` prefetcher cell gain a derived
//!   `uipc_speedup_vs_none` metric on every non-`None` cell of the same
//!   (workload, point).
//!
//! # Example
//!
//! ```
//! use pif_lab::{registry, run_spec, RunOptions, Scale};
//!
//! let spec = registry::table1();
//! let report = run_spec(&spec, &RunOptions::new().scale(Scale::tiny()).threads(2).smoke(true));
//! assert_eq!(report.cells.len(), 6);
//! let json = report.to_json().unwrap();
//! let parsed = pif_lab::json::Json::parse(&json).unwrap();
//! pif_lab::report::validate_report(&parsed).unwrap();
//! ```
//!
//! # Running as a service
//!
//! [`service`] wraps this same sweep path in a bounded job queue
//! ([`service::Service`]) so sweeps can be submitted by many clients to
//! one long-running daemon (`piflab serve`), and [`cache`] adds a
//! persistent content-addressed store so repeated cells replay from disk
//! instead of re-simulating — with byte-identical reports either way.
//! [`protocol`] defines the line-delimited JSON the daemon speaks.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
mod measure;
pub mod profile;
pub mod protocol;
pub mod recorded;
pub mod registry;
pub mod render;
pub mod report;
mod scale;
pub mod service;
pub mod spec;
mod tablefmt;

pub use cache::{CacheKey, CacheStats, ResultCache};
pub use measure::{density_metric, jump_cdf_metric, len_cdf_metric, offset_metric, runs_metric};
pub use pif_obs::json;
pub use profile::{CellProfile, SweepProfile};
pub use report::{Cell, CheckSummary, Metric, SweepReport};
pub use scale::Scale;
pub use service::{default_threads, LatencySummary, MetricsFormat, Pool, PoolRunStats};
pub use spec::{CdfKind, Measure, ParamAxis, PrefetcherKind, SweepSpec};
pub use tablefmt::Table;

#[doc(hidden)]
pub use measure::jobs_executed;

/// How to execute a sweep: scale, parallelism, smoke flag, and an
/// optional result cache.
///
/// Replaces the old positional `(scale, threads, smoke)` arguments of
/// [`run_spec`]; build one with [`RunOptions::new`] and the chainable
/// setters. The struct is non-exhaustive so future knobs (and there will
/// be more) extend it without breaking callers.
///
/// ```
/// use pif_lab::{registry, run_spec, RunOptions, Scale};
/// let report = run_spec(&registry::table1(), &RunOptions::new().scale(Scale::tiny()).smoke(true));
/// assert!(report.smoke);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RunOptions<'a> {
    /// Run scale (instruction budget, footprint, warmup fraction).
    pub scale: Scale,
    /// Worker threads of the job pool.
    pub threads: usize,
    /// Mark the report as a smoke (reduced-scale) run.
    pub smoke: bool,
    /// Persistent result cache: cells found here replay from disk, fresh
    /// cells are stored back. `None` always simulates.
    pub cache: Option<&'a ResultCache>,
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        RunOptions::new()
    }
}

impl<'a> RunOptions<'a> {
    /// Paper scale, one thread per core, non-smoke, no cache.
    pub fn new() -> Self {
        RunOptions {
            scale: Scale::default(),
            threads: default_threads(),
            smoke: false,
            cache: None,
        }
    }

    /// Sets the run scale.
    #[must_use]
    pub fn scale(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the smoke flag.
    #[must_use]
    pub fn smoke(mut self, smoke: bool) -> Self {
        self.smoke = smoke;
        self
    }

    /// Attaches a result cache.
    #[must_use]
    pub fn cache(mut self, cache: &'a ResultCache) -> Self {
        self.cache = Some(cache);
        self
    }
}

/// How much of a sweep came from the cache vs. fresh simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepRunStats {
    /// Cells answered by [`RunOptions::cache`].
    pub cached_cells: usize,
    /// Cells simulated by this run.
    pub executed_cells: usize,
    /// Pool jobs claimed by a different worker than the preceding job
    /// index (see [`service::PoolRunStats::stolen_jobs`]). Schedule-
    /// dependent diagnostics only — never part of a report.
    pub stolen_jobs: u64,
}

/// Expands `spec` into its job grid, runs it per `opts`, and merges the
/// cells by job index into a [`SweepReport`].
///
/// The report depends only on `(spec, opts.scale)` — not on
/// `opts.threads`, the schedule, the clock, or whether cells replayed
/// from `opts.cache` — so serialized reports are byte-identical across
/// thread counts and across cold/warm cache runs.
///
/// # Panics
///
/// Panics if the spec names a workload that does not exist (or, for
/// recorded specs, a trace that cannot be loaded — see [`recorded`]).
pub fn run_spec(spec: &SweepSpec, opts: &RunOptions<'_>) -> SweepReport {
    run_spec_stats(spec, opts).0
}

/// [`run_spec`], also reporting the cache split of the run.
///
/// # Panics
///
/// Panics if the spec names a workload that does not exist (or, for
/// recorded specs, a trace that cannot be loaded — see [`recorded`]).
pub fn run_spec_stats(spec: &SweepSpec, opts: &RunOptions<'_>) -> (SweepReport, SweepRunStats) {
    let (report, stats, _) = run_spec_impl(spec, opts, false);
    (report, stats)
}

/// [`run_spec_stats`], also collecting a wall-clock [`SweepProfile`].
///
/// The profile is a sidecar: the returned report is byte-identical to an
/// unprofiled run of the same `(spec, opts)` (asserted by
/// `profile::tests`), and timing data never enters it.
///
/// # Panics
///
/// Panics if the spec names a workload that does not exist (or, for
/// recorded specs, a trace that cannot be loaded — see [`recorded`]).
pub fn run_spec_profiled(
    spec: &SweepSpec,
    opts: &RunOptions<'_>,
) -> (SweepReport, SweepRunStats, SweepProfile) {
    let (report, stats, profile) = run_spec_impl(spec, opts, true);
    (
        report,
        stats,
        profile.expect("profile collected when requested"),
    )
}

fn run_spec_impl(
    spec: &SweepSpec,
    opts: &RunOptions<'_>,
    want_profile: bool,
) -> (SweepReport, SweepRunStats, Option<SweepProfile>) {
    let scale = &opts.scale;
    let names = spec.workload_names();
    // Each workload carries its per-sweep memos (see `measure`): filled
    // at most once per (workload, scale, seed) and shared by every cell.
    let workloads: Vec<measure::JobWorkload> = if spec.recorded {
        names
            .iter()
            .map(|n| measure::JobWorkload::new(n.clone(), None))
            .collect()
    } else {
        let available = scale.workloads();
        names
            .iter()
            .map(|n| {
                let profile = available
                    .iter()
                    .find(|w| w.name() == *n)
                    .unwrap_or_else(|| panic!("spec {}: unknown workload {n:?}", spec.name));
                measure::JobWorkload::new(n.clone(), Some(profile.clone()))
            })
            .collect()
    };

    let coords = spec.jobs();

    // Recorded workloads have no generator: load (or, for the demo
    // workload, synthesize) every trace up front, so job execution and
    // cache keying never touch the filesystem and the report stays a
    // pure function of the trace bytes.
    if spec.recorded {
        for (workload, name) in workloads.iter().zip(&names) {
            let trace = recorded::load(name, scale.instructions)
                .unwrap_or_else(|e| panic!("spec {}: workload {name:?}: {e}", spec.name));
            let _ = workload.trace.set(trace);
        }
    }

    // The trace half of every cache key, computed once per workload and
    // sweep, and only when a cache asks. A recorded workload hashes its
    // loaded trace; a synthetic one asks the cache's memo, whose miss
    // generates the trace in the calling thread — far cheaper than
    // simulating, which is the point of the cache — and whose hit
    // generates nothing.
    let cell_key = |cache: &ResultCache, coord: spec::JobCoord| -> CacheKey {
        let workload = &workloads[coord.workload];
        let trace_hash = *workload.trace_hash.get_or_init(|| match &workload.profile {
            Some(profile) => cache.trace_hash(profile, scale.instructions, spec.seed_offset),
            None => {
                let trace = workload
                    .trace
                    .get()
                    .expect("recorded traces are loaded above");
                pif_trace::content_hash(trace.instrs().iter().copied())
            }
        });
        CacheKey {
            trace_hash,
            config_fp: cache::cell_fingerprint(spec, scale, &workload.name, coord),
        }
    };

    // Partition the grid: cells answered by the cache are reconstructed
    // from their stored metric tokens, the rest go to the pool.
    let mut cells: Vec<Option<Cell>> = (0..coords.len()).map(|_| None).collect();
    let mut missing: Vec<spec::JobCoord> = Vec::new();
    let mut cached_by_index = vec![false; coords.len()];
    let mut exec_us_by_index = vec![0u64; coords.len()];
    for &coord in &coords {
        let cached = opts.cache.and_then(|c| c.lookup(&cell_key(c, coord)));
        match cached {
            Some(metrics) => {
                cached_by_index[coord.index] = true;
                cells[coord.index] = Some(Cell {
                    index: coord.index,
                    workload: workloads[coord.workload].name.clone(),
                    prefetcher: coord.prefetcher.map(PrefetcherKind::label),
                    point: spec.axis.label(coord.point),
                    metrics,
                });
            }
            None => missing.push(coord),
        }
    }
    let cached_cells = coords.len() - missing.len();

    // The pool runs jobs, not cells: a job is one cell, or every
    // history-capacity lane of one workload's analysis (`group_jobs`).
    let jobs = measure::group_jobs(spec, &mut missing);

    let (fresh, pool_stats) = Pool::new(opts.threads).run_indexed_stats(jobs.len(), |i| {
        // Timed only under profiling, and into a sidecar value — timing
        // never reaches the cell or the report.
        let started = want_profile.then(std::time::Instant::now);
        let cells = measure::run_job(spec, scale, &workloads, jobs[i]);
        // Sub-microsecond jobs (release builds at tiny scale) round up
        // to 1 µs per cell, so an executed cell is never recorded as
        // untimed.
        let exec_us = started
            .map(|t| service::duration_us(t.elapsed()).max(jobs[i].len() as u64))
            .unwrap_or(0);
        (cells, exec_us)
    });
    let mut executed_cells = 0;
    for (job, (job_cells, exec_us)) in jobs.iter().zip(fresh) {
        for (i, (coord, cell)) in job.iter().zip(job_cells).enumerate() {
            executed_cells += 1;
            // A job's wall time is split equally over its cells, so the
            // cells' `exec_us` still add up to the pool's busy time.
            let n = job.len() as u64;
            exec_us_by_index[coord.index] = exec_us / n + u64::from((i as u64) < exec_us % n);
            // Stored pre-derive: `derive_speedups` is a cross-cell merge
            // pass and is recomputed on every run, cached or not.
            if let Some(cache) = opts.cache {
                // A failed store (disk full, EIO) degrades to running
                // uncached: the sweep still completes with the fresh cell.
                if let Err(e) = cache.store(&cell_key(cache, *coord), &cell.metrics) {
                    pif_obs::log::warn(
                        "pif_lab",
                        "cache store failed; running uncached",
                        &[("spec", &spec.name), ("error", &e)],
                    );
                }
            }
            cells[coord.index] = Some(cell);
        }
    }
    let mut cells: Vec<Cell> = cells
        .into_iter()
        .map(|c| c.expect("every grid index filled"))
        .collect();
    derive_speedups(spec, &mut cells);

    let report = SweepReport {
        spec: spec.name.to_string(),
        title: spec.title.to_string(),
        smoke: opts.smoke,
        scale: *scale,
        tolerance: spec.tolerance,
        workloads: names,
        prefetchers: spec.prefetcher_labels(),
        axis: spec.axis.name().to_string(),
        points: (0..spec.axis.len()).map(|i| spec.axis.label(i)).collect(),
        config: config_summary(spec),
        cells,
    };
    let profile = want_profile.then(|| SweepProfile {
        spec: spec.name.to_string(),
        threads: opts.threads,
        cells: report
            .cells
            .iter()
            .map(|c| CellProfile {
                index: c.index,
                workload: c.workload.clone(),
                prefetcher: c.prefetcher,
                point: c.point.clone(),
                cached: cached_by_index[c.index],
                exec_us: exec_us_by_index[c.index],
            })
            .collect(),
    });
    (
        report,
        SweepRunStats {
            cached_cells,
            executed_cells,
            stolen_jobs: pool_stats.stolen_jobs,
        },
        profile,
    )
}

/// Post-merge derived metrics: UIPC speedup of every engine (or sampled,
/// via the per-sample mean) cell over the `None` cell of the same
/// (workload, point), when one exists.
fn derive_speedups(spec: &SweepSpec, cells: &mut [Cell]) {
    let uipc_metric = match spec.measure {
        Measure::Engine => "uipc",
        Measure::Sampled { .. } => "uipc_mean",
        _ => return,
    };
    let none_label = PrefetcherKind::None.label();
    let baselines: Vec<(String, String, f64)> = cells
        .iter()
        .filter(|c| c.prefetcher == Some(none_label))
        .filter_map(|c| {
            c.metric(uipc_metric)
                .map(|u| (c.workload.clone(), c.point.clone(), u))
        })
        .collect();
    for cell in cells.iter_mut() {
        if cell.prefetcher == Some(none_label) {
            continue;
        }
        let Some(base) = baselines
            .iter()
            .find(|(w, p, _)| *w == cell.workload && *p == cell.point)
        else {
            continue;
        };
        if let Some(uipc) = cell.metric(uipc_metric) {
            cell.push("uipc_speedup_vs_none", Metric::F64(uipc / base.2));
        }
    }
}

/// Flat summary of the spec's base configuration, embedded in every
/// report for drift detection.
fn config_summary(spec: &SweepSpec) -> Vec<(String, Metric)> {
    config_entries(&spec.engine_base, &spec.pif_base, spec.seed_offset)
}

/// The flat config metric block for one concrete `(engine, pif, seed)`
/// configuration. `config_summary` embeds the spec's base configuration
/// in reports; `cache::cell_identity` fingerprints the *cell's* applied
/// configuration (base plus the axis point) with the same entries, so
/// any knob that reports can detect drifting on also invalidates cache
/// entries.
pub(crate) fn config_entries(
    e: &pif_sim::EngineConfig,
    p: &pif_core::PifConfig,
    seed_offset: u64,
) -> Vec<(String, Metric)> {
    let u = |v: usize| Metric::U64(v as u64);
    vec![
        ("icache_capacity_bytes".into(), u(e.icache.capacity_bytes)),
        ("icache_ways".into(), u(e.icache.ways)),
        (
            "icache_latency_cycles".into(),
            Metric::U64(e.icache.latency_cycles),
        ),
        ("l2_capacity_bytes".into(), u(e.l2.capacity_bytes)),
        ("l2_ways".into(), u(e.l2.ways)),
        (
            "l2_hit_latency_cycles".into(),
            Metric::U64(e.l2.hit_latency_cycles),
        ),
        (
            "l2_memory_latency_cycles".into(),
            Metric::U64(e.l2.memory_latency_cycles),
        ),
        (
            "dispatch_width".into(),
            Metric::U64(e.timing.dispatch_width),
        ),
        (
            "prefetch_latency_events".into(),
            Metric::U64(e.prefetch_latency_events),
        ),
        (
            "pif_region_preceding".into(),
            u(p.geometry.preceding() as usize),
        ),
        (
            "pif_region_succeeding".into(),
            u(p.geometry.succeeding() as usize),
        ),
        ("pif_temporal_entries".into(), u(p.temporal_entries)),
        ("pif_history_capacity".into(), u(p.history_capacity)),
        ("pif_index_entries".into(), u(p.index_entries)),
        ("pif_index_ways".into(), u(p.index_ways)),
        ("pif_sab_count".into(), u(p.sab_count)),
        ("pif_sab_window".into(), u(p.sab_window)),
        ("pif_storage_bytes".into(), u(p.approx_storage_bytes())),
        ("seed_offset".into(), Metric::U64(seed_offset)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tablefmt::{pct, speedup};

    fn tiny(threads: usize, smoke: bool) -> RunOptions<'static> {
        RunOptions::new()
            .scale(Scale::tiny())
            .threads(threads)
            .smoke(smoke)
    }

    /// `spec` run as `piflab run --smoke` runs it, after checking that its
    /// rows are the spec's workloads in order and that every table `piflab
    /// run` prints for it has one row per workload.
    pub(crate) fn figure(spec: &SweepSpec) -> SweepReport {
        let report = run_spec(spec, &tiny(2, true));
        assert_eq!(report.workloads, spec.workload_names(), "{}", spec.name);
        let text = render::render(spec, &report);
        let rows = |w: &str| {
            text.lines()
                .filter(|l| l.split_whitespace().next() == Some(w))
                .count()
        };
        let tables = rows(&report.workloads[0]);
        assert!(tables > 0, "{}: no rows printed:\n{text}", spec.name);
        for w in &report.workloads {
            assert_eq!(rows(w), tables, "{}: rows of {w}:\n{text}", spec.name);
        }
        report
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.995), "99.5%");
        assert_eq!(pct(0.0), "0.0%");
    }

    #[test]
    fn speedup_formats() {
        assert_eq!(speedup(1.27), "1.27x");
    }

    #[test]
    fn static_spec_runs_and_reports() {
        let report = run_spec(&registry::table1(), &tiny(3, true));
        assert_eq!(report.cells.len(), 6);
        assert_eq!(report.spec, "table1");
        assert!(report.smoke);
        let oltp = report.cell("OLTP-DB2", None, "-").expect("OLTP cell");
        // Static metrics ignore the run scale: full-size footprint.
        assert!(oltp.metric("footprint_mb").unwrap() > 1.0);
        let parsed = json::Json::parse(&report.to_json().unwrap()).unwrap();
        report::validate_report(&parsed).unwrap();
    }

    #[test]
    fn sampled_spec_reports_summaries_and_speedup() {
        let report = run_spec(&registry::fig_sampling(), &tiny(3, true));
        assert_eq!(report.cells.len(), registry::fig_sampling().grid_len());
        for cell in &report.cells {
            let n: u32 = cell.point.parse().expect("sample-count point label");
            assert_eq!(cell.metric_u64("samples"), Some(n as u64));
            let mean = cell.metric("uipc_mean").unwrap();
            assert!(mean > 0.0 && mean.is_finite(), "uipc_mean {mean}");
            let ci = cell.metric("uipc_ci95").unwrap();
            assert!(ci >= 0.0);
            assert!(cell.metric("sampled_fraction").unwrap() > 0.0);
            if cell.prefetcher == Some("PIF") {
                assert!(cell.metric("uipc_speedup_vs_none").is_some());
            }
        }
        // The ci95 is the normal-approximation half-width of the stderr
        // in every cell, and per-cell estimates of the same coordinate
        // agree across sample counts to within their joint error bars.
        for cell in &report.cells {
            let stderr = cell.metric("uipc_stderr").unwrap();
            let ci = cell.metric("uipc_ci95").unwrap();
            assert!((ci - 1.96 * stderr).abs() < 1e-12);
        }
    }

    #[test]
    fn engine_spec_derives_speedup_vs_none() {
        let spec = SweepSpec::new("mini", "mini engine grid", Measure::Engine)
            .with_workloads(vec!["OLTP-DB2"])
            .with_prefetchers(vec![PrefetcherKind::None, PrefetcherKind::Perfect]);
        let report = run_spec(&spec, &tiny(2, false));
        assert_eq!(report.cells.len(), 2);
        let none = report.cell("OLTP-DB2", Some("None"), "-").unwrap();
        assert!(none.metric("uipc_speedup_vs_none").is_none());
        let perfect = report.cell("OLTP-DB2", Some("Perfect"), "-").unwrap();
        let speedup = perfect.metric("uipc_speedup_vs_none").unwrap();
        assert!(
            speedup >= 1.0,
            "perfect cache should not slow down: {speedup}"
        );
    }
}

// The figures' own tests, one module per paper figure: each runs the
// figure's committed grid at tiny scale and checks what the figure shows.

#[cfg(test)]
mod fig2 {
    mod tests {
        use crate::registry;
        use crate::tests::figure;

        #[test]
        fn tiny_run_produces_six_ordered_rows() {
            let report = figure(&registry::fig2());
            assert_eq!(report.workloads.len(), 6);
            assert_eq!(report.workloads[0], "OLTP-DB2");
            for cell in &report.cells {
                for metric in ["miss", "access", "retire", "retire_sep"] {
                    let v = cell.expect_metric(metric);
                    assert!(
                        (0.0..=1.0).contains(&v),
                        "{}: {metric} = {v}",
                        cell.workload
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod fig3 {
    mod tests {
        use crate::registry::{self, DENSITY_BUCKETS, RUN_BUCKETS};
        use crate::tests::figure;
        use crate::{density_metric, runs_metric};

        #[test]
        fn buckets_form_distributions() {
            for cell in &figure(&registry::fig3()).cells {
                let sum = |metric: fn(u32, u32) -> String, buckets: &[(u32, u32)]| -> f64 {
                    buckets
                        .iter()
                        .map(|&(lo, hi)| cell.expect_metric(&metric(lo, hi)))
                        .sum()
                };
                for (name, total) in [
                    ("density", sum(density_metric, &DENSITY_BUCKETS)),
                    ("runs", sum(runs_metric, &RUN_BUCKETS)),
                ] {
                    assert!(
                        total > 0.95 && total < 1.01,
                        "{}: {name} sums to {total}",
                        cell.workload
                    );
                }
                assert!(cell.expect_metric_u64("total_regions") > 0);
            }
        }
    }
}

#[cfg(test)]
mod fig7 {
    mod tests {
        use crate::jump_cdf_metric;
        use crate::registry::{self, JUMP_CDF_BUCKETS};
        use crate::tests::figure;

        #[test]
        fn cdfs_are_monotone_reaching_one() {
            for cell in &figure(&registry::fig7()).cells {
                let cdf: Vec<f64> = (0..JUMP_CDF_BUCKETS)
                    .map(|i| cell.expect_metric(&jump_cdf_metric(i)))
                    .collect();
                assert!(
                    cdf.windows(2).all(|w| w[0] <= w[1] + 1e-9),
                    "{}: non-monotone CDF {cdf:?}",
                    cell.workload
                );
                let last = cdf[JUMP_CDF_BUCKETS - 1];
                assert!(
                    (last - 1.0).abs() < 1e-6,
                    "{}: CDF ends at {last}",
                    cell.workload
                );
            }
        }
    }
}

#[cfg(test)]
mod fig8 {
    mod tests {
        use crate::offset_metric;
        use crate::registry::{self, FIG8_REGION_SIZES, REGION_OFFSETS};
        use crate::tests::figure;

        #[test]
        fn offsets_profile_shapes() {
            for cell in &figure(&registry::fig8_offsets()).cells {
                let frequency: Vec<f64> = REGION_OFFSETS
                    .iter()
                    .map(|&o| cell.expect_metric(&offset_metric(o)))
                    .collect();
                // +1 should be the most frequent neighbour (sequential
                // flow); the offsets run -4..=-1, then +1..=+12.
                let (plus1, plus12) = (frequency[4], frequency[15]);
                assert!(
                    plus1 >= plus12,
                    "{}: +1 ({plus1}) should dominate +12 ({plus12})",
                    cell.workload
                );
            }
        }

        #[test]
        fn size_sweep_covers_all_sizes() {
            let report = figure(&registry::fig8_sizes());
            assert_eq!(report.cells.len(), 6 * FIG8_REGION_SIZES.len());
            for cell in &report.cells {
                for metric in ["miss_coverage_tl0", "miss_coverage_tl1"] {
                    let v = cell.expect_metric(metric);
                    assert!(
                        (0.0..=1.0).contains(&v),
                        "{}/{}: {metric} = {v}",
                        cell.workload,
                        cell.point
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod fig9 {
    mod tests {
        use crate::len_cdf_metric;
        use crate::registry::{self, FIG9_HISTORY_SIZES, LENGTH_CDF_BUCKETS};
        use crate::tests::figure;

        #[test]
        fn length_cdfs_valid() {
            for cell in &figure(&registry::fig9_lengths()).cells {
                let cdf: Vec<f64> = (0..LENGTH_CDF_BUCKETS)
                    .map(|i| cell.expect_metric(&len_cdf_metric(i)))
                    .collect();
                assert!(
                    cdf.windows(2).all(|w| w[0] <= w[1] + 1e-9),
                    "{}: non-monotone CDF {cdf:?}",
                    cell.workload
                );
            }
        }

        #[test]
        fn history_sweep_is_monotonic_in_capacity() {
            let report = figure(&registry::fig9_history());
            assert_eq!(report.cells.len(), 6 * FIG9_HISTORY_SIZES.len());
            for w in &report.workloads {
                let series: Vec<f64> = FIG9_HISTORY_SIZES
                    .iter()
                    .map(|cap| {
                        report
                            .cell(w, None, &cap.to_string())
                            .expect("history-capacity cell")
                            .expect_metric("predictor_coverage")
                    })
                    .collect();
                // Coverage should not *decrease* meaningfully with capacity.
                assert!(
                    series.windows(2).all(|p| p[1] >= p[0] - 0.02),
                    "{w}: coverage dropped with capacity: {series:?}"
                );
            }
        }
    }
}

#[cfg(test)]
mod fig10 {
    mod tests {
        use crate::registry;
        use crate::tests::figure;

        #[test]
        fn comparison_produces_sane_rows() {
            let report = figure(&registry::fig10());
            let mut perfect_logs = Vec::new();
            for cell in &report.cells {
                let prefetcher = cell.prefetcher.expect("engine cell");
                let at = format!("{}/{prefetcher}", cell.workload);
                let coverage = cell.expect_metric("miss_coverage");
                assert!((0.0..=1.0).contains(&coverage), "{at}: coverage {coverage}");
                if prefetcher == "None" {
                    continue;
                }
                let s = cell.expect_metric("uipc_speedup_vs_none");
                assert!(s > 0.5 && s < 5.0, "{at}: speedup {s}");
                if prefetcher == "Perfect" {
                    perfect_logs.push(s.ln());
                }
            }
            assert_eq!(perfect_logs.len(), report.workloads.len());
            let geomean = (perfect_logs.iter().sum::<f64>() / perfect_logs.len() as f64).exp();
            assert!(geomean >= 1.0, "Perfect geomean speedup {geomean}");
        }
    }
}

#[cfg(test)]
mod ablation {
    mod tests {
        use crate::registry::{self, AblationVariant};
        use crate::tests::figure;
        use crate::ParamAxis;

        #[test]
        fn variants_produce_valid_configs() {
            // The grid's design points are the variants, in order, each
            // running its variant's valid configuration.
            let ParamAxis::PifPoints(points) = registry::ablation().axis else {
                panic!("the ablation grid sweeps PIF design points");
            };
            assert_eq!(points.len(), AblationVariant::ALL.len());
            for ((label, config), v) in points.iter().zip(AblationVariant::ALL) {
                assert_eq!(label, v.label());
                assert_eq!(*config, v.config(), "{label}");
                assert!(config.validate().is_ok(), "{label} invalid");
            }
        }

        #[test]
        fn ablation_grid_runs_and_paper_design_is_competitive() {
            let report = figure(&registry::ablation());
            for w in &report.workloads {
                let coverage = |v: AblationVariant| {
                    report
                        .cell(w, Some("PIF"), v.label())
                        .expect("ablation variant cell")
                        .expect_metric("miss_coverage")
                };
                for v in AblationVariant::ALL {
                    let c = coverage(v);
                    assert!((0.0..=1.0).contains(&c), "{w}: {} = {c}", v.label());
                }
                // The full design should roughly dominate the single-block
                // ablation (spatial regions are the big win).
                let paper = coverage(AblationVariant::Paper);
                let single = coverage(AblationVariant::NoSpatialRegions);
                assert!(
                    paper >= single - 0.10,
                    "{w}: paper {paper} vs no-regions {single}"
                );
            }
        }
    }
}

#[cfg(test)]
mod sampling {
    mod tests {
        use crate::registry::{self, FIG_SAMPLING_COUNTS};
        use crate::tests::figure;

        #[test]
        fn sampling_rows_cover_the_grid() {
            let report = figure(&registry::fig_sampling());
            // 2 workloads × {None, PIF} × 5 sample counts.
            assert_eq!(report.cells.len(), 2 * 2 * FIG_SAMPLING_COUNTS.len());
            for cell in &report.cells {
                assert!(cell.expect_metric_u64("samples") >= 2);
                assert!(cell.expect_metric("uipc_mean") > 0.0);
                assert!(cell.expect_metric("uipc_ci95") >= 0.0);
                if cell.prefetcher == Some("PIF") {
                    assert!(cell.expect_metric("uipc_speedup_vs_none") > 0.0);
                }
            }
        }
    }
}
