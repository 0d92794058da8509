//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] names the axes of one experiment grid — workloads,
//! prefetchers, and one typed parameter sweep — plus the measurement to
//! take in each cell. Expanding the spec yields a flat, index-ordered job
//! list; running it (see [`crate::run_spec`]) yields a
//! [`crate::SweepReport`].

use pif_core::PifConfig;
use pif_sim::EngineConfig;

/// The prefetcher attached to the engine in an [`Measure::Engine`] cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetcherKind {
    /// No prefetching (the baseline every speedup is relative to).
    None,
    /// Next-N-line prefetcher (aggressive depth).
    NextLine,
    /// Temporal Instruction Fetch Streaming at its paper scale.
    Tifs,
    /// TIFS without history storage limits (the §5.5 predictor-gap
    /// configuration).
    TifsUnbounded,
    /// Discontinuity prefetcher at its paper scale.
    Discontinuity,
    /// Proactive Instruction Fetch, configured by the cell's
    /// [`PifConfig`].
    Pif,
    /// Perfect (always-hit) L1-I — the speedup ceiling.
    Perfect,
}

impl PrefetcherKind {
    /// Stable label used in reports and golden baselines.
    pub fn label(self) -> &'static str {
        match self {
            PrefetcherKind::None => "None",
            PrefetcherKind::NextLine => "Next-Line",
            PrefetcherKind::Tifs => "TIFS",
            PrefetcherKind::TifsUnbounded => "TIFS-unbounded",
            PrefetcherKind::Discontinuity => "Discontinuity",
            PrefetcherKind::Pif => "PIF",
            PrefetcherKind::Perfect => "Perfect",
        }
    }
}

/// One typed parameter sweep over the PIF configuration.
///
/// Each variant names the knob and carries the values to sweep; applying
/// point `i` mutates the cell's [`PifConfig`] through the config-sweep
/// setters. The simulator's [`EngineConfig`] is the spec's base for every
/// point.
#[derive(Debug, Clone)]
pub enum ParamAxis {
    /// No parameter sweep: a single grid point.
    Unit,
    /// PIF history-buffer capacity in region records (Fig. 9 right).
    HistoryCapacity(Vec<usize>),
    /// Total spatial-region size in blocks, skewed per the paper
    /// (Fig. 8 right).
    RegionBlocks(Vec<u8>),
    /// Named full PIF design points (ablation grids).
    PifPoints(Vec<(String, PifConfig)>),
    /// Sample counts for [`Measure::Sampled`] grids (the `fig-sampling`
    /// CI-half-width-vs-samples study). Leaves the configs untouched;
    /// the sampled measure reads its point directly.
    SampleCount(Vec<u32>),
}

impl ParamAxis {
    /// Stable axis name recorded in the report grid.
    pub fn name(&self) -> &'static str {
        match self {
            ParamAxis::Unit => "unit",
            ParamAxis::HistoryCapacity(_) => "history_capacity",
            ParamAxis::RegionBlocks(_) => "region_blocks",
            ParamAxis::PifPoints(_) => "pif_point",
            ParamAxis::SampleCount(_) => "sample_count",
        }
    }

    /// Number of points on this axis (at least 1: [`ParamAxis::Unit`] is a
    /// single implicit point).
    pub fn len(&self) -> usize {
        match self {
            ParamAxis::Unit => 1,
            ParamAxis::HistoryCapacity(v) => v.len(),
            ParamAxis::RegionBlocks(v) => v.len(),
            ParamAxis::PifPoints(v) => v.len(),
            ParamAxis::SampleCount(v) => v.len(),
        }
    }

    /// Always false: every axis has at least the implicit unit point.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Stable label of point `i`, recorded per cell.
    pub fn label(&self, i: usize) -> String {
        match self {
            ParamAxis::Unit => "-".to_string(),
            ParamAxis::HistoryCapacity(v) => v[i].to_string(),
            ParamAxis::RegionBlocks(v) => v[i].to_string(),
            ParamAxis::PifPoints(v) => v[i].0.clone(),
            ParamAxis::SampleCount(v) => v[i].to_string(),
        }
    }

    /// Applies point `i` to the cell's PIF configuration.
    pub fn apply(&self, i: usize, pif: &mut PifConfig) {
        match self {
            ParamAxis::Unit => {}
            ParamAxis::HistoryCapacity(v) => *pif = pif.with_history_capacity(v[i]),
            ParamAxis::RegionBlocks(v) => {
                let geometry = pif_types::RegionGeometry::skewed_with_total(v[i])
                    .expect("axis carries valid region sizes");
                *pif = pif.with_geometry(geometry);
            }
            ParamAxis::PifPoints(v) => *pif = v[i].1,
            // The sample count is not a simulator knob; Measure::Sampled
            // reads it from the axis point itself.
            ParamAxis::SampleCount(_) => {}
        }
    }
}

/// Which CDF a [`Measure::PifAnalysis`] cell emits, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CdfKind {
    /// No CDF metrics.
    None,
    /// Prediction-weighted jump distance in history, log2 buckets
    /// (Fig. 7).
    JumpDistance,
    /// Prediction-weighted temporal stream length, log2 buckets
    /// (Fig. 9 left).
    StreamLength,
}

/// The measurement taken in each grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    /// Full engine simulation with the cell's prefetcher: RunReport
    /// counters plus derived MPKI / coverage / UIPC speedup vs the `None`
    /// cell of the same (workload, point).
    Engine,
    /// PIF predictor analysis (no timing): predictor/miss coverage and an
    /// optional CDF.
    PifAnalysis(CdfKind),
    /// Spatial-region characterization at a fixed probe geometry.
    Regions {
        /// Blocks preceding the trigger.
        preceding: u8,
        /// Blocks succeeding the trigger.
        succeeding: u8,
    },
    /// Stream-observation-point coverage study (Fig. 2).
    StreamCoverage,
    /// Static workload/system parameters (Table I); runs no simulation
    /// and ignores the run scale.
    Static,
    /// SimFlex-style **sampled** engine simulation
    /// (`pif_sim::sampling`): seeded-random measurement windows with
    /// functional warmup, reporting per-sample UIPC/MPKI summaries
    /// (mean/stderr/ci95) instead of whole-trace counters. Window seeds
    /// derive from the job index, so reports stay byte-identical across
    /// thread counts. An [`ParamAxis::SampleCount`] axis overrides
    /// `samples` per point.
    Sampled {
        /// Measurement windows per cell (unless a
        /// [`ParamAxis::SampleCount`] axis overrides it).
        samples: u32,
    },
}

/// A declarative experiment grid: axes × measurement.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Registry name (`piflab run <name>`).
    pub name: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Workload names (must match [`pif_workloads::WorkloadProfile`]
    /// names); empty means all six. With
    /// [`SweepSpec::with_recorded_workloads`] the names are recorded
    /// traces instead, resolved by [`crate::recorded::load`].
    pub workloads: Vec<String>,
    /// Workload names denote recorded real-binary traces rather than
    /// synthetic profiles (see [`crate::recorded`]).
    pub recorded: bool,
    /// Prefetcher axis; empty means the implicit unit axis (analysis
    /// measures).
    pub prefetchers: Vec<PrefetcherKind>,
    /// The typed parameter axis.
    pub axis: ParamAxis,
    /// Per-cell measurement.
    pub measure: Measure,
    /// Base PIF configuration before the axis applies.
    pub pif_base: PifConfig,
    /// Base engine configuration before the axis applies.
    pub engine_base: EngineConfig,
    /// Execution-seed offset for the per-job workload streams.
    pub seed_offset: u64,
    /// Default relative tolerance for `piflab check` against this spec's
    /// reports.
    pub tolerance: f64,
}

impl SweepSpec {
    /// A new spec over all six workloads with unit axes and paper-default
    /// configurations.
    pub fn new(name: &'static str, title: &'static str, measure: Measure) -> Self {
        SweepSpec {
            name,
            title,
            workloads: Vec::new(),
            recorded: false,
            prefetchers: Vec::new(),
            axis: ParamAxis::Unit,
            measure,
            pif_base: PifConfig::paper_default(),
            engine_base: EngineConfig::paper_default(),
            seed_offset: 0,
            tolerance: 1e-9,
        }
    }

    /// Restricts the workload axis.
    #[must_use]
    pub fn with_workloads<S: Into<String>>(mut self, workloads: Vec<S>) -> Self {
        self.workloads = workloads.into_iter().map(Into::into).collect();
        self
    }

    /// Marks the workload names as recorded real-binary traces, resolved
    /// against [`crate::recorded::trace_dir`] instead of the synthetic
    /// profile set. Recorded specs must name their workloads explicitly
    /// and support only measures that consume a materialized trace
    /// (engine, analysis, and sampled grids — not [`Measure::Static`]).
    #[must_use]
    pub fn with_recorded_workloads(mut self) -> Self {
        self.recorded = true;
        self
    }

    /// Sets the prefetcher axis.
    #[must_use]
    pub fn with_prefetchers(mut self, prefetchers: Vec<PrefetcherKind>) -> Self {
        self.prefetchers = prefetchers;
        self
    }

    /// Sets the parameter axis.
    #[must_use]
    pub fn with_axis(mut self, axis: ParamAxis) -> Self {
        self.axis = axis;
        self
    }

    /// Sets the base PIF configuration.
    #[must_use]
    pub fn with_pif_base(mut self, pif_base: PifConfig) -> Self {
        self.pif_base = pif_base;
        self
    }

    /// Sets the base engine configuration.
    #[must_use]
    pub fn with_engine_base(mut self, engine_base: EngineConfig) -> Self {
        self.engine_base = engine_base;
        self
    }

    /// Sets the check tolerance.
    #[must_use]
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// The resolved workload-name axis (defaults to all six).
    pub fn workload_names(&self) -> Vec<String> {
        if self.workloads.is_empty() {
            pif_workloads::WorkloadProfile::all()
                .iter()
                .map(|w| w.name().to_string())
                .collect()
        } else {
            self.workloads.clone()
        }
    }

    /// Prefetcher labels recorded in the report grid.
    pub fn prefetcher_labels(&self) -> Vec<&'static str> {
        self.prefetchers.iter().map(|p| p.label()).collect()
    }

    /// Number of grid cells.
    pub fn grid_len(&self) -> usize {
        self.workload_names().len() * self.prefetchers.len().max(1) * self.axis.len()
    }

    /// Expands the grid into index-ordered job coordinates
    /// (workload-major, then prefetcher, then axis point).
    pub fn jobs(&self) -> Vec<JobCoord> {
        let workloads = self.workload_names();
        let n_pref = self.prefetchers.len().max(1);
        let mut out = Vec::with_capacity(self.grid_len());
        for (wi, _) in workloads.iter().enumerate() {
            for pi in 0..n_pref {
                for xi in 0..self.axis.len() {
                    out.push(JobCoord {
                        index: out.len(),
                        workload: wi,
                        prefetcher: self.prefetchers.get(pi).copied(),
                        point: xi,
                    });
                }
            }
        }
        out
    }
}

/// One cell's position in the expanded grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobCoord {
    /// Flat job index (merge order).
    pub index: usize,
    /// Index into the spec's resolved workload list.
    pub workload: usize,
    /// Prefetcher for [`Measure::Engine`] cells (`None` on analysis
    /// grids).
    pub prefetcher: Option<PrefetcherKind>,
    /// Index into the parameter axis.
    pub point: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_expansion_is_workload_major() {
        let spec = SweepSpec::new("t", "t", Measure::Engine)
            .with_workloads(vec!["OLTP-DB2", "Web-Apache"])
            .with_prefetchers(vec![PrefetcherKind::None, PrefetcherKind::Pif])
            .with_axis(ParamAxis::HistoryCapacity(vec![1024, 2048, 4096]));
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 2 * 2 * 3);
        assert_eq!(spec.grid_len(), jobs.len());
        assert_eq!(jobs[0].workload, 0);
        assert_eq!(jobs[0].prefetcher, Some(PrefetcherKind::None));
        assert_eq!(jobs[0].point, 0);
        assert_eq!(jobs[5].workload, 0);
        assert_eq!(jobs[5].prefetcher, Some(PrefetcherKind::Pif));
        assert_eq!(jobs[5].point, 2);
        assert_eq!(jobs[6].workload, 1);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.index, i);
        }
    }

    #[test]
    fn axis_apply_mutates_configs() {
        let mut pif = PifConfig::paper_default();
        ParamAxis::HistoryCapacity(vec![999]).apply(0, &mut pif);
        assert_eq!(pif.history_capacity, 999);
        ParamAxis::RegionBlocks(vec![4]).apply(0, &mut pif);
        assert_eq!(pif.geometry.total_blocks(), 4);
    }

    #[test]
    fn unit_axis_is_single_point() {
        let axis = ParamAxis::Unit;
        assert_eq!(axis.len(), 1);
        assert!(!axis.is_empty());
        assert_eq!(axis.label(0), "-");
        assert_eq!(axis.name(), "unit");
    }

    #[test]
    fn default_workloads_are_all_six() {
        let spec = SweepSpec::new("t", "t", Measure::Static);
        assert_eq!(spec.workload_names().len(), 6);
        assert_eq!(spec.grid_len(), 6);
    }
}
