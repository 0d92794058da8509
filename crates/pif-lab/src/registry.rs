//! The committed figure specs: every paper table/figure grid as a
//! [`SweepSpec`], named for `piflab run <name>` and for the golden
//! baselines under `crates/pif-lab/goldens/`.
//!
//! | Spec | Paper artifact |
//! |---|---|
//! | `table1` | Table I — application parameters (static) |
//! | `fig2` | Fig. 2 — stream-observation-point coverage |
//! | `fig3` | Fig. 3 — spatial region characterization |
//! | `fig7` | Fig. 7 — prediction-weighted jump distance CDF |
//! | `fig8-offsets` | Fig. 8 left — accesses around the trigger |
//! | `fig8-sizes` | Fig. 8 right — region-size sweep |
//! | `fig9-lengths` | Fig. 9 left — stream-length CDF |
//! | `fig9-history` | Fig. 9 right — history-capacity sweep |
//! | `fig10` | Fig. 10 — competitive coverage and speedup |
//! | `ablation` | (extension) design-element ablation grid |
//! | `fig-sampling` | (extension) §5 methodology — CI half-width vs sample count |
//! | `fig-bintrace` | (extension) prefetcher comparison on a recorded real-ELF trace |

use pif_core::PifConfig;
use pif_types::RegionGeometry;

use crate::spec::{CdfKind, Measure, ParamAxis, PrefetcherKind, SweepSpec};

/// Jump-distance CDF buckets emitted by `fig7` (the paper's x-axis runs
/// to 25).
pub const JUMP_CDF_BUCKETS: usize = 26;

/// Stream-length CDF buckets emitted by `fig9-lengths` (the paper's
/// x-axis runs to 21).
pub const LENGTH_CDF_BUCKETS: usize = 22;

/// History sizes swept by `fig9-history`, in regions (2K..512K).
pub const FIG9_HISTORY_SIZES: [usize; 5] = [2 * 1024, 8 * 1024, 32 * 1024, 128 * 1024, 512 * 1024];

/// Region sizes swept by `fig8-sizes`, in total blocks.
pub const FIG8_REGION_SIZES: [u8; 5] = [1, 2, 4, 6, 8];

/// Trigger-relative offsets emitted by the region measures (the paper
/// plots -4..12; the trigger itself is implicit).
pub const REGION_OFFSETS: [i64; 16] = [-4, -3, -2, -1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];

/// Region-density buckets emitted by the region measures (Fig. 3 left).
pub const DENSITY_BUCKETS: [(u32, u32); 6] = [(1, 1), (2, 2), (3, 4), (5, 8), (9, 16), (17, 32)];

/// Discontinuous-run buckets emitted by the region measures (Fig. 3
/// right).
pub const RUN_BUCKETS: [(u32, u32); 5] = [(1, 1), (2, 2), (3, 4), (5, 8), (9, 16)];

/// One ablated PIF design variant (the `ablation` grid's parameter axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AblationVariant {
    /// The paper's full design point.
    Paper,
    /// Regions of a single block (no spatial compaction).
    NoSpatialRegions,
    /// Temporal compactor reduced to one entry (loop records repeat).
    NoTemporalCompactor,
    /// All trap levels recorded in one unified stream.
    NoTrapSeparation,
    /// History shrunk to 1K regions.
    TinyHistory,
    /// A single stream address buffer.
    OneSab,
    /// No preceding blocks in the region (0 preceding + 7 succeeding).
    NoPrecedingBlocks,
}

impl AblationVariant {
    /// All variants in presentation order.
    pub const ALL: [AblationVariant; 7] = [
        AblationVariant::Paper,
        AblationVariant::NoSpatialRegions,
        AblationVariant::NoTemporalCompactor,
        AblationVariant::NoTrapSeparation,
        AblationVariant::TinyHistory,
        AblationVariant::OneSab,
        AblationVariant::NoPrecedingBlocks,
    ];

    /// Human-readable label (also the axis point label in reports).
    pub fn label(self) -> &'static str {
        match self {
            AblationVariant::Paper => "paper design",
            AblationVariant::NoSpatialRegions => "- spatial regions",
            AblationVariant::NoTemporalCompactor => "- temporal compactor",
            AblationVariant::NoTrapSeparation => "- trap separation",
            AblationVariant::TinyHistory => "- deep history (1K)",
            AblationVariant::OneSab => "- SAB pool (1 SAB)",
            AblationVariant::NoPrecedingBlocks => "- preceding blocks",
        }
    }

    /// The PIF configuration implementing this variant.
    pub fn config(self) -> PifConfig {
        let base = PifConfig::paper_default();
        match self {
            AblationVariant::Paper => base,
            AblationVariant::NoSpatialRegions => {
                base.with_geometry(RegionGeometry::new(0, 0).expect("single block"))
            }
            AblationVariant::NoTemporalCompactor => PifConfig {
                temporal_entries: 1,
                ..base
            },
            AblationVariant::NoTrapSeparation => PifConfig {
                separate_trap_levels: false,
                ..base
            },
            AblationVariant::TinyHistory => base.with_history_capacity(1024),
            AblationVariant::OneSab => base.with_sab_count(1),
            AblationVariant::NoPrecedingBlocks => {
                base.with_geometry(RegionGeometry::new(0, 7).expect("forward-only region"))
            }
        }
    }
}

/// The §5.1/§5.5 "no storage limitations" PIF configuration used by the
/// fig7/fig9-lengths/fig10 grids.
fn unbounded_pif() -> PifConfig {
    PifConfig::paper_default()
        .with_history_capacity(8 * 1024 * 1024)
        .with_index_entries(64 * 1024)
}

/// Table I: static application parameters.
pub fn table1() -> SweepSpec {
    SweepSpec::new("table1", "Table I: application parameters", Measure::Static)
}

/// Fig. 2: stream-observation-point coverage.
pub fn fig2() -> SweepSpec {
    SweepSpec::new(
        "fig2",
        "Fig. 2: correctly predicted L1-I misses per stream point",
        Measure::StreamCoverage,
    )
}

/// Fig. 3: spatial region characterization (32-block probe regions).
pub fn fig3() -> SweepSpec {
    SweepSpec::new(
        "fig3",
        "Fig. 3: spatial region density and discontinuous runs",
        Measure::Regions {
            preceding: 8,
            succeeding: 23,
        },
    )
}

/// Fig. 7: prediction-weighted jump-distance CDF (unbounded history).
pub fn fig7() -> SweepSpec {
    SweepSpec::new(
        "fig7",
        "Fig. 7: jump distance weighted by predictions",
        Measure::PifAnalysis(CdfKind::JumpDistance),
    )
    .with_pif_base(unbounded_pif())
}

/// Fig. 8 left: access distribution around the trigger ((4, 12) probe).
pub fn fig8_offsets() -> SweepSpec {
    SweepSpec::new(
        "fig8-offsets",
        "Fig. 8 left: accesses around the trigger",
        Measure::Regions {
            preceding: 4,
            succeeding: 12,
        },
    )
}

/// Fig. 8 right: spatial region size sweep.
pub fn fig8_sizes() -> SweepSpec {
    SweepSpec::new(
        "fig8-sizes",
        "Fig. 8 right: region size sensitivity",
        Measure::PifAnalysis(CdfKind::None),
    )
    .with_axis(ParamAxis::RegionBlocks(FIG8_REGION_SIZES.to_vec()))
}

/// Fig. 9 left: stream-length CDF (unbounded history).
pub fn fig9_lengths() -> SweepSpec {
    SweepSpec::new(
        "fig9-lengths",
        "Fig. 9 left: prediction-weighted stream lengths",
        Measure::PifAnalysis(CdfKind::StreamLength),
    )
    .with_pif_base(unbounded_pif())
}

/// Fig. 9 right: history-capacity sweep.
pub fn fig9_history() -> SweepSpec {
    SweepSpec::new(
        "fig9-history",
        "Fig. 9 right: history size sensitivity",
        Measure::PifAnalysis(CdfKind::None),
    )
    .with_axis(ParamAxis::HistoryCapacity(FIG9_HISTORY_SIZES.to_vec()))
}

/// Fig. 10: competitive comparison (engine runs, unbounded predictors).
pub fn fig10() -> SweepSpec {
    SweepSpec::new(
        "fig10",
        "Fig. 10: competitive coverage and speedup",
        Measure::Engine,
    )
    .with_prefetchers(vec![
        PrefetcherKind::None,
        PrefetcherKind::NextLine,
        PrefetcherKind::TifsUnbounded,
        PrefetcherKind::Pif,
        PrefetcherKind::Perfect,
    ])
    .with_pif_base(unbounded_pif())
}

/// The design-element ablation grid.
pub fn ablation() -> SweepSpec {
    SweepSpec::new(
        "ablation",
        "Design ablations: coverage cost of removing each element",
        Measure::Engine,
    )
    .with_prefetchers(vec![PrefetcherKind::Pif])
    .with_axis(ParamAxis::PifPoints(
        AblationVariant::ALL
            .iter()
            .map(|v| (v.label().to_string(), v.config()))
            .collect(),
    ))
}

/// Sample counts swept by `fig-sampling`.
pub const FIG_SAMPLING_COUNTS: [u32; 5] = [2, 4, 8, 16, 32];

/// The sampled-simulation methodology grid: how the 95% confidence
/// half-width of sampled UIPC shrinks as the sample count grows (the
/// paper's "±5% at 95% confidence" SimFlex methodology, §5). Two
/// workloads × {None, PIF} keep the grid small enough for CI while
/// exercising both the baseline and the prefetched fast path.
pub fn fig_sampling() -> SweepSpec {
    SweepSpec::new(
        "fig-sampling",
        "Sampled simulation: CI half-width vs sample count",
        Measure::Sampled { samples: 8 },
    )
    .with_workloads(vec!["OLTP-DB2", "Web-Apache"])
    .with_prefetchers(vec![PrefetcherKind::None, PrefetcherKind::Pif])
    .with_axis(ParamAxis::SampleCount(FIG_SAMPLING_COUNTS.to_vec()))
}

/// The real-binary front-end grid: every prefetcher on one recorded ELF
/// trace ([`crate::recorded::DEMO_WORKLOAD`]). The workload resolves to
/// `target/bintrace/bintrace-demo.pift` when `tracectl record-elf` has
/// produced one, and otherwise synthesizes the identical stream from the
/// `pif-bintrace` demo fixture — so this spec (and its golden) gates the
/// whole record-elf pipeline without making the registry depend on
/// pre-recorded files.
///
/// The grid compares nothing yet: after warm-up the walk has no L1-I
/// miss for a prefetcher to act on, so all six cells read one UIPC with
/// 0 demand misses — in the smoke golden, at `--scale paper`, and over a
/// `tracectl record-elf` recording of the release `piflab` binary at
/// smoke and quick scale. The spec gates the recorded-trace pipeline and
/// its determinism, not a prefetcher comparison.
pub fn fig_bintrace() -> SweepSpec {
    SweepSpec::new(
        "fig-bintrace",
        "Recorded ELF trace: prefetcher comparison on a real-binary walk",
        Measure::Engine,
    )
    .with_recorded_workloads()
    .with_workloads(vec![crate::recorded::DEMO_WORKLOAD])
    .with_prefetchers(vec![
        PrefetcherKind::None,
        PrefetcherKind::NextLine,
        PrefetcherKind::Tifs,
        PrefetcherKind::Discontinuity,
        PrefetcherKind::Pif,
        PrefetcherKind::Perfect,
    ])
}

/// Every committed figure spec, in paper order.
pub fn all_specs() -> Vec<SweepSpec> {
    vec![
        table1(),
        fig2(),
        fig3(),
        fig7(),
        fig8_offsets(),
        fig8_sizes(),
        fig9_lengths(),
        fig9_history(),
        fig10(),
        ablation(),
        fig_sampling(),
        fig_bintrace(),
    ]
}

/// Looks up a committed spec by name.
pub fn spec(name: &str) -> Option<SweepSpec> {
    all_specs().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let specs = all_specs();
        assert_eq!(specs.len(), 12);
        for s in &specs {
            assert_eq!(spec(s.name).map(|r| r.name), Some(s.name), "{}", s.name);
            assert!(s.grid_len() > 0);
        }
        let mut names: Vec<_> = specs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), specs.len());
        assert!(spec("nope").is_none());
    }

    #[test]
    fn ablation_variants_produce_valid_configs() {
        for v in AblationVariant::ALL {
            assert!(v.config().validate().is_ok(), "{} invalid", v.label());
        }
        assert_eq!(AblationVariant::Paper.config(), PifConfig::paper_default());
        assert!(
            !AblationVariant::NoTrapSeparation
                .config()
                .separate_trap_levels
        );
        assert_eq!(
            AblationVariant::NoSpatialRegions
                .config()
                .geometry
                .total_blocks(),
            1
        );
    }

    #[test]
    fn acceptance_grids_have_expected_shapes() {
        assert_eq!(table1().grid_len(), 6);
        assert_eq!(fig7().grid_len(), 6);
        assert_eq!(fig9_history().grid_len(), 6 * FIG9_HISTORY_SIZES.len());
        assert_eq!(fig10().grid_len(), 6 * 5);
        assert_eq!(ablation().grid_len(), 6 * AblationVariant::ALL.len());
        assert_eq!(fig_sampling().grid_len(), 2 * 2 * FIG_SAMPLING_COUNTS.len());
        assert_eq!(fig_bintrace().grid_len(), 6);
    }

    #[test]
    fn fig_bintrace_is_recorded_and_explicit() {
        let spec = fig_bintrace();
        assert!(spec.recorded);
        assert_eq!(spec.workload_names(), vec!["bintrace-demo"]);
        assert_eq!(spec.prefetchers.len(), 6);
    }
}
