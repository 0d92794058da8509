//! Trace-study instrumentation over the PIF mechanism.
//!
//! The paper's Figures 3, 7, 8 and 9 are *trace-based* studies on
//! correct-path, in-order instruction traces (§5: "For the trace-based
//! analyses, we use correct-path, in-order instruction reference
//! traces"). This module runs the real PIF structures (compactors,
//! history, index, SABs) over a retire-order trace — tracking the
//! predictions that would be made without prefetching or perturbing the
//! cache — and reports:
//!
//! * per-trap-level **miss coverage** and **predictor coverage** (Fig. 8
//!   right, Fig. 9 right);
//! * the **jump distance** distribution weighted by correct predictions
//!   (Fig. 7);
//! * the **stream length** distribution weighted by correct predictions
//!   (Fig. 9 left);
//! * **spatial-region density**, **discontinuous runs**, and
//!   **trigger-offset** distributions (Fig. 3, Fig. 8 left).
//!
//! [`PifAnalyzer`] can measure several history capacities in one walk of
//! the trace — one *lane* per capacity, each reporting exactly what an
//! analyzer of that capacity alone reports — so Fig. 9 right's history
//! sweep costs one pass over each workload instead of one per capacity.

use std::sync::{Mutex, PoisonError};

use pif_sim::cache::InstructionCache;
use pif_sim::{ICacheConfig, Log2Histogram};
use pif_types::{BlockAddr, InstrFeed, RegionGeometry, RetiredInstr, TrapLevel};

use crate::config::PifConfig;
use crate::history::{HistoryBuffer, HistoryLookup};
use crate::index::IndexTable;
use crate::sab::{CompletedStream, SabPool};
use crate::spatial::SpatialCompactor;
use crate::temporal::TemporalCompactor;

/// Coverage and stream-shape measurements from one analysis run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PifCoverageReport {
    /// Correct-path block accesses per trap level.
    pub access_total: [u64; TrapLevel::COUNT],
    /// Accesses predicted by an active stream, per trap level.
    pub access_predicted: [u64; TrapLevel::COUNT],
    /// L1-I misses per trap level.
    pub miss_total: [u64; TrapLevel::COUNT],
    /// Misses predicted by an active stream, per trap level.
    pub miss_predicted: [u64; TrapLevel::COUNT],
    /// Jump distances (recorded blocks between stream recurrence and its
    /// recording), weighted by the stream's correct predictions (Fig. 7).
    pub jump_distance: Log2Histogram,
    /// Stream lengths in regions advanced, weighted by correct
    /// predictions (Fig. 9 left).
    pub stream_length: Log2Histogram,
}

impl PifCoverageReport {
    fn new() -> Self {
        PifCoverageReport {
            access_total: [0; TrapLevel::COUNT],
            access_predicted: [0; TrapLevel::COUNT],
            miss_total: [0; TrapLevel::COUNT],
            miss_predicted: [0; TrapLevel::COUNT],
            jump_distance: Log2Histogram::new(26),
            stream_length: Log2Histogram::new(22),
        }
    }

    /// Miss coverage for one trap level (Fig. 8 right).
    pub fn miss_coverage(&self, tl: TrapLevel) -> f64 {
        let i = tl.index();
        if self.miss_total[i] == 0 {
            return 0.0;
        }
        self.miss_predicted[i] as f64 / self.miss_total[i] as f64
    }

    /// Predictor coverage for one trap level: fraction of all block
    /// accesses predicted (§5.4 uses this for Fig. 9 right, where stream
    /// heads may hit in the cache).
    pub fn predictor_coverage(&self, tl: TrapLevel) -> f64 {
        let i = tl.index();
        if self.access_total[i] == 0 {
            return 0.0;
        }
        self.access_predicted[i] as f64 / self.access_total[i] as f64
    }

    /// Miss coverage over both trap levels.
    pub fn overall_miss_coverage(&self) -> f64 {
        let total: u64 = self.miss_total.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.miss_predicted.iter().sum::<u64>() as f64 / total as f64
    }

    /// Predictor coverage over both trap levels.
    pub fn overall_predictor_coverage(&self) -> f64 {
        let total: u64 = self.access_total.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.access_predicted.iter().sum::<u64>() as f64 / total as f64
    }

    /// Folds one stream's lifetime into the prediction-weighted
    /// histograms.
    fn record_stream(&mut self, done: CompletedStream) {
        if done.predictions == 0 {
            return;
        }
        self.jump_distance
            .record_weighted(done.jump_distance_blocks.max(1), done.predictions);
        self.stream_length
            .record_weighted(done.regions_advanced.max(1), done.predictions);
    }
}

/// Runs the PIF predictor over a correct-path trace, measuring coverage
/// without prefetching (the processor is undisturbed, as in §2's studies).
///
/// `warmup_instrs` retirements are processed before counting begins.
///
/// # History-capacity lanes
///
/// One analyzer can evaluate several history capacities ("lanes") in one
/// walk of the trace ([`PifAnalyzer::with_history_lanes`]), after
/// Mattson et al.'s one-pass evaluation of every cache size (IBM Sys. J.
/// 1970). The L1-I model, the compactor chain and one history buffer of
/// the largest capacity run once; nothing they do depends on the
/// capacity. Each lane keeps only the state its capacity can change: its
/// index tables (a lane looks up, and so touches LRU, only when its own
/// SABs miss), its SAB pool and its report. A lane reads history through
/// a [`crate::HistoryWindow`] that resolves exactly what a buffer of its own
/// capacity would, so every lane's report equals that of a one-lane
/// analyzer at its capacity.
#[derive(Debug)]
pub struct PifAnalyzer {
    config: PifConfig,
    icache: InstructionCache,
    levels: Vec<LevelState>,
    lanes: Vec<Lane>,
    counting: bool,
    last_block: Option<BlockAddr>,
    last_tl: TrapLevel,
    /// Reusable scratch for SAB advance/allocate records (discarded; the
    /// analyzer measures prediction, it does not prefetch).
    records_scratch: Vec<pif_types::SpatialRegionRecord>,
}

/// One trap level's recording state, shared by every lane.
#[derive(Debug)]
struct LevelState {
    spatial: SpatialCompactor,
    temporal: TemporalCompactor,
    /// Holds the largest lane's capacity; smaller lanes read a window.
    history: HistoryBuffer,
}

/// The state one history capacity changes.
#[derive(Debug)]
struct Lane {
    history_capacity: usize,
    index: LaneIndex,
    sabs: SabPool,
    report: PifCoverageReport,
}

impl PifAnalyzer {
    /// Creates an analyzer with the given PIF design point and L1-I
    /// geometry: one lane, at `config.history_capacity`.
    ///
    /// # Panics
    ///
    /// Panics if either configuration is invalid.
    pub fn new(config: PifConfig, icache: ICacheConfig) -> Self {
        Self::with_history_lanes(config, icache, &[config.history_capacity])
    }

    /// Creates an analyzer with one lane per entry of
    /// `history_capacities`. Lane `i` measures `config` with its history
    /// capacity set to `history_capacities[i]`; `config.history_capacity`
    /// itself is not used.
    ///
    /// # Panics
    ///
    /// Panics if either configuration is invalid, or if
    /// `history_capacities` is empty or holds a zero.
    pub fn with_history_lanes(
        config: PifConfig,
        icache: ICacheConfig,
        history_capacities: &[usize],
    ) -> Self {
        let largest = history_capacities
            .iter()
            .copied()
            .max()
            .expect("an analyzer needs at least one lane");
        let config = config.with_history_capacity(largest);
        for &c in history_capacities {
            config
                .with_history_capacity(c)
                .validate()
                .expect("invalid PIF configuration");
        }
        PifAnalyzer {
            icache: InstructionCache::new(icache).expect("invalid icache configuration"),
            // Built by the walk, which knows how many records the trace
            // can append.
            levels: Vec::new(),
            lanes: history_capacities
                .iter()
                .map(|&history_capacity| Lane {
                    history_capacity,
                    index: LaneIndex::new(&config),
                    sabs: SabPool::new(config.sab_count, config.sab_window),
                    report: PifCoverageReport::new(),
                })
                .collect(),
            counting: false,
            last_block: None,
            last_tl: TrapLevel::Tl0,
            records_scratch: Vec::new(),
            config,
        }
    }

    /// Analyzes a whole trace with the first `warmup_instrs` uncounted.
    ///
    /// # Panics
    ///
    /// Panics if the analyzer has more than one lane: use
    /// [`PifAnalyzer::analyze_lanes`].
    pub fn analyze(self, trace: &[RetiredInstr], warmup_instrs: usize) -> PifCoverageReport {
        let mut reports = self.analyze_lanes(trace, warmup_instrs);
        assert_eq!(
            reports.len(),
            1,
            "a multi-lane analyzer needs analyze_lanes"
        );
        reports.pop().expect("one lane")
    }

    /// Analyzes every instruction `feed` pushes — a trace slice, or a
    /// workload generator, in which case the walk never holds the trace —
    /// with the first `warmup_instrs` uncounted, returning one report per
    /// lane, in lane order.
    ///
    /// The shared history reserves room for at most one record per
    /// instruction of the feed, and no more than the largest lane holds.
    pub fn analyze_lanes(
        mut self,
        feed: impl InstrFeed,
        warmup_instrs: usize,
    ) -> Vec<PifCoverageReport> {
        let config = self.config;
        let records = feed.instr_count();
        self.levels = (0..TrapLevel::COUNT)
            .map(|_| LevelState {
                spatial: SpatialCompactor::new(config.geometry),
                temporal: TemporalCompactor::new(config.temporal_entries),
                history: HistoryBuffer::with_reservation(config.history_capacity, records),
            })
            .collect();
        // The walk is compiled twice. A one-lane analyzer (every
        // standalone analysis) walks with its lane in a local array, so
        // the lane loops have a known length and vanish.
        let mut lanes = std::mem::take(&mut self.lanes);
        if lanes.len() == 1 {
            let mut one = [lanes.pop().expect("one lane")];
            self.walk(&mut one, feed, warmup_instrs);
            lanes.extend(one);
        } else {
            self.walk(&mut lanes, feed, warmup_instrs);
        }
        self.lanes = lanes;
        self.finish()
    }

    fn walk(&mut self, lanes: &mut impl AsMut<[Lane]>, feed: impl InstrFeed, warmup_instrs: usize) {
        let mut retired = 0;
        feed.feed(|instr| {
            if !self.counting && retired >= warmup_instrs {
                self.counting = true;
            }
            retired += 1;
            self.step(lanes.as_mut(), &instr);
        });
    }

    #[inline(always)]
    fn step(&mut self, lanes: &mut [Lane], instr: &RetiredInstr) {
        let tl = instr.trap_level;
        let block = instr.pc.block();

        // Fetch side: block-granularity accesses with redirect on trap
        // switch, mirroring the front end.
        if tl != self.last_tl {
            self.last_block = None;
            self.last_tl = tl;
        }
        if self.last_block != Some(block) {
            self.last_block = Some(block);
            self.on_block_access(lanes, tl, block);
        }

        // Retire side: the compactor chain records the stream. All
        // instructions carry the not-prefetched tag (nothing is
        // prefetched in an analysis run).
        let level = tl.index();
        let state = &mut self.levels[level];
        if let Some(finished) = state.spatial.observe(block, true) {
            if let Some(admitted) = state.temporal.filter(finished) {
                let pos = state.history.append(admitted.record, true);
                for lane in lanes {
                    lane.index.tables[level].insert(admitted.record.trigger, pos);
                }
            }
        }
    }

    #[inline(always)]
    fn on_block_access(&mut self, lanes: &mut [Lane], tl: TrapLevel, block: BlockAddr) {
        let access = BlockAccess {
            level: tl.index(),
            block,
            missed: !self.icache.demand_access(block).is_hit(),
            counted: self.counting,
        };
        let history = &self.levels[access.level].history;
        for lane in lanes {
            lane.on_block_access(
                access,
                self.config.geometry,
                history,
                &mut self.records_scratch,
            );
        }
    }

    fn finish(self) -> Vec<PifCoverageReport> {
        let counting = self.counting;
        self.lanes
            .into_iter()
            .map(|mut lane| {
                if counting {
                    for done in lane.sabs.drain_completed() {
                        lane.report.record_stream(done);
                    }
                }
                lane.report
            })
            .collect()
    }
}

/// Index tables no analyzer holds, by `(entries, ways)`: dropped
/// analyzers leave theirs here and new ones clear and reuse them.
///
/// A lane job builds every lane's tables at once (about 2 MiB for five
/// lanes at the paper's geometry) and drops them when it ends. Freed to
/// the allocator, that memory is trimmed and faulted back in by the next
/// job; kept here, its pages stay mapped. The pool never holds more
/// tables than were once in use at the same time.
static IDLE_INDEX_TABLES: Mutex<Vec<((usize, usize), IndexTable)>> = Mutex::new(Vec::new());

/// One lane's index tables, one per trap level, taken from
/// [`IDLE_INDEX_TABLES`] when it has tables of the right geometry and
/// returned to it on drop.
#[derive(Debug)]
struct LaneIndex {
    /// `(entries, ways)` of every table.
    geometry: (usize, usize),
    tables: Vec<IndexTable>,
}

impl LaneIndex {
    fn new(config: &PifConfig) -> Self {
        let geometry = (config.index_entries, config.index_ways);
        let mut idle = IDLE_INDEX_TABLES
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let tables = (0..TrapLevel::COUNT)
            .map(|_| match idle.iter().position(|(g, _)| *g == geometry) {
                Some(i) => {
                    let (_, mut table) = idle.swap_remove(i);
                    table.clear();
                    table
                }
                None => IndexTable::new(geometry.0, geometry.1).expect("validated geometry"),
            })
            .collect();
        LaneIndex { geometry, tables }
    }
}

impl Drop for LaneIndex {
    fn drop(&mut self) {
        let geometry = self.geometry;
        IDLE_INDEX_TABLES
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend(self.tables.drain(..).map(|t| (geometry, t)));
    }
}

/// One fetch-side block access, as every lane sees it.
#[derive(Debug, Clone, Copy)]
struct BlockAccess {
    /// Trap-level index.
    level: usize,
    block: BlockAddr,
    /// The shared L1-I missed.
    missed: bool,
    /// Past warmup: the access enters the reports.
    counted: bool,
}

impl Lane {
    fn on_block_access(
        &mut self,
        access: BlockAccess,
        geometry: RegionGeometry,
        history: &HistoryBuffer,
        scratch: &mut Vec<pif_types::SpatialRegionRecord>,
    ) {
        // The largest lane reads the shared buffer itself, smaller lanes a
        // window of their capacity: the same prediction code, with the
        // largest (and a one-lane analyzer's only) lane on the buffer's
        // own lookups.
        if self.history_capacity == history.capacity() {
            self.predict(access, geometry, history, history.block_position(), scratch);
        } else {
            let window = history.window(self.history_capacity);
            self.predict(access, geometry, window, history.block_position(), scratch);
        }
    }

    fn predict<H: HistoryLookup>(
        &mut self,
        access: BlockAccess,
        geometry: RegionGeometry,
        history: H,
        block_position: u64,
        scratch: &mut Vec<pif_types::SpatialRegionRecord>,
    ) {
        let BlockAccess {
            level,
            block,
            missed,
            counted,
        } = access;
        let predicted = self.sabs.advance(level, block, geometry, history, scratch);

        if counted {
            let report = &mut self.report;
            report.access_total[level] += 1;
            if predicted {
                report.access_predicted[level] += 1;
            }
            if missed {
                report.miss_total[level] += 1;
                if predicted {
                    report.miss_predicted[level] += 1;
                }
            }
        }

        if !predicted {
            // Try to open a stream at the block's most recent record.
            if let Some(pos) = self.index.tables[level].lookup(block) {
                if let Some(entry) = history.get(pos) {
                    let jump = block_position - entry.block_position;
                    let completed = self
                        .sabs
                        .allocate(level, pos, jump, geometry, history, scratch);
                    if let (Some(done), true) = (completed, counted) {
                        self.report.record_stream(done);
                    }
                }
            }
        }
    }
}

/// Spatial-region characterization of a retire-order trace (Fig. 3 and
/// Fig. 8 left): density of unique block accesses per region,
/// discontinuous runs per region, and the distribution of accesses by
/// offset from the trigger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionReport {
    /// Geometry the regions were formed with.
    pub geometry: RegionGeometry,
    /// `density[k]` = number of regions with exactly `k` accessed blocks
    /// (index 0 unused).
    pub density: Vec<u64>,
    /// `runs[k]` = number of regions with exactly `k` discontinuous runs
    /// (index 0 unused).
    pub runs: Vec<u64>,
    /// Accesses by offset from the trigger: index 0 is offset
    /// `-preceding`, the trigger sits at index `preceding`.
    pub offset_counts: Vec<u64>,
    /// Total regions observed.
    pub total_regions: u64,
}

impl RegionReport {
    /// Fraction of regions whose accessed-block count falls in
    /// `lo..=hi` (Fig. 3's bucket labels).
    pub fn density_fraction(&self, lo: u32, hi: u32) -> f64 {
        if self.total_regions == 0 {
            return 0.0;
        }
        let count: u64 = (lo..=hi.min(self.density.len() as u32 - 1))
            .map(|k| self.density[k as usize])
            .sum();
        count as f64 / self.total_regions as f64
    }

    /// Fraction of regions with `lo..=hi` discontinuous runs.
    pub fn runs_fraction(&self, lo: u32, hi: u32) -> f64 {
        if self.total_regions == 0 {
            return 0.0;
        }
        let count: u64 = (lo..=hi.min(self.runs.len() as u32 - 1))
            .map(|k| self.runs[k as usize])
            .sum();
        count as f64 / self.total_regions as f64
    }

    /// Normalized access frequency at `offset` from the trigger
    /// (Fig. 8 left's y-axis).
    pub fn offset_frequency(&self, offset: i64) -> f64 {
        let idx = offset + i64::from(self.geometry.preceding());
        if idx < 0 || idx as usize >= self.offset_counts.len() {
            return 0.0;
        }
        let total: u64 = self.offset_counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.offset_counts[idx as usize] as f64 / total as f64
    }
}

/// Characterizes the spatial regions of a retire-order trace — a slice,
/// or a workload generator's feed — under `geometry` (application trap
/// level only, matching Fig. 3's application
/// reference analysis). The temporal compactor is applied first so loop
/// iterations do not over-count (as the paper does: "we count only unique
/// accesses to that region").
pub fn analyze_regions(feed: impl InstrFeed, geometry: RegionGeometry) -> RegionReport {
    let total_blocks = geometry.total_blocks();
    let mut spatial = SpatialCompactor::new(geometry);
    let mut temporal = TemporalCompactor::new(4);
    let mut density = vec![0u64; total_blocks + 1];
    let mut runs = vec![0u64; total_blocks + 1];
    let mut offset_counts = vec![0u64; total_blocks];
    let mut total_regions = 0u64;

    let mut tally = |record: crate::spatial::TaggedRecord,
                     density: &mut Vec<u64>,
                     runs: &mut Vec<u64>,
                     offsets: &mut Vec<u64>| {
        let r = record.record;
        total_regions += 1;
        density[(r.accessed_blocks() as usize).min(total_blocks)] += 1;
        runs[(r.discontinuous_runs(geometry) as usize).min(total_blocks)] += 1;
        let prec = i64::from(geometry.preceding());
        for off in -prec..=i64::from(geometry.succeeding()) {
            if r.bits.contains_offset(geometry, off) {
                offsets[(off + prec) as usize] += 1;
            }
        }
    };

    feed.feed(|instr| {
        if instr.trap_level != TrapLevel::Tl0 {
            return;
        }
        if let Some(finished) = spatial.observe(instr.pc.block(), true) {
            if let Some(admitted) = temporal.filter(finished) {
                tally(admitted, &mut density, &mut runs, &mut offset_counts);
            }
        }
    });
    if let Some(finished) = spatial.flush() {
        if let Some(admitted) = temporal.filter(finished) {
            tally(admitted, &mut density, &mut runs, &mut offset_counts);
        }
    }

    RegionReport {
        geometry,
        density,
        runs,
        offset_counts,
        total_regions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_types::Address;

    fn sweep(blocks: u64, reps: u64) -> Vec<RetiredInstr> {
        let mut v = Vec::new();
        for _ in 0..reps {
            for blk in 0..blocks {
                for i in 0..4 {
                    v.push(RetiredInstr::simple(
                        Address::new(blk * 64 + i * 16),
                        TrapLevel::Tl0,
                    ));
                }
            }
        }
        v
    }

    #[test]
    fn repetitive_sweep_reaches_high_coverage() {
        let trace = sweep(4096, 4);
        let report = PifAnalyzer::new(PifConfig::paper_default(), ICacheConfig::paper_default())
            .analyze(&trace, trace.len() / 2);
        assert!(
            report.overall_predictor_coverage() > 0.9,
            "predictor coverage {}",
            report.overall_predictor_coverage()
        );
        assert!(
            report.miss_coverage(TrapLevel::Tl0) > 0.9,
            "miss coverage {}",
            report.miss_coverage(TrapLevel::Tl0)
        );
    }

    #[test]
    fn random_unrepetitive_code_has_low_coverage() {
        // A non-repeating walk: nothing recurs, so nothing is predictable.
        let mut v = Vec::new();
        for blk in 0..20_000u64 {
            v.push(RetiredInstr::simple(
                Address::new(blk * 131 * 64),
                TrapLevel::Tl0,
            ));
        }
        let report = PifAnalyzer::new(PifConfig::paper_default(), ICacheConfig::paper_default())
            .analyze(&v, v.len() / 4);
        assert!(
            report.overall_predictor_coverage() < 0.1,
            "coverage {} on unrepeatable stream",
            report.overall_predictor_coverage()
        );
    }

    #[test]
    fn small_history_hurts_coverage() {
        let trace = sweep(4096, 4);
        let big = PifAnalyzer::new(PifConfig::paper_default(), ICacheConfig::paper_default())
            .analyze(&trace, trace.len() / 2);
        let mut small_cfg = PifConfig::paper_default();
        small_cfg.history_capacity = 128; // 4096-block sweep >> 128 regions
        let small = PifAnalyzer::new(small_cfg, ICacheConfig::paper_default())
            .analyze(&trace, trace.len() / 2);
        assert!(
            small.overall_predictor_coverage() < big.overall_predictor_coverage(),
            "small {} vs big {}",
            small.overall_predictor_coverage(),
            big.overall_predictor_coverage()
        );
    }

    #[test]
    fn jump_and_length_histograms_populate() {
        let trace = sweep(2048, 6);
        let report = PifAnalyzer::new(PifConfig::paper_default(), ICacheConfig::paper_default())
            .analyze(&trace, trace.len() / 3);
        assert!(report.jump_distance.total() > 0);
        assert!(report.stream_length.total() > 0);
    }

    #[test]
    fn region_report_on_sequential_code_is_dense() {
        // Straight-line code through 8-block groups: every region is full
        // and has one run.
        let trace = sweep(4096, 1);
        let report = analyze_regions(&trace[..], RegionGeometry::paper_default());
        assert!(report.total_regions > 100);
        // Sequential code fills the trigger + all 5 succeeding blocks (the
        // 2 preceding slots stay empty): 6 accessed blocks per region.
        assert!(
            report.density_fraction(5, 8) > 0.9,
            "sequential code fills regions: {:?}",
            &report.density[..]
        );
        assert!(report.runs_fraction(1, 1) > 0.9);
    }

    #[test]
    fn region_report_counts_offsets() {
        let trace = sweep(256, 1);
        let g = RegionGeometry::new(4, 12).unwrap();
        let report = analyze_regions(&trace[..], g);
        // Sequential code: successor offsets dominate, predecessors ~0.
        assert!(report.offset_frequency(1) > report.offset_frequency(-1));
        assert_eq!(report.offset_frequency(100), 0.0);
    }

    #[test]
    fn tl1_misses_tracked_separately() {
        let mut trace = sweep(512, 2);
        // Interleave handler bursts.
        for rep in 0..50u64 {
            for i in 0..8u64 {
                trace.push(RetiredInstr::simple(
                    Address::new(0x7000_0000 + (rep % 4) * 1024 + i * 64),
                    TrapLevel::Tl1,
                ));
            }
            trace.extend(sweep(64, 1));
        }
        let report = PifAnalyzer::new(PifConfig::paper_default(), ICacheConfig::paper_default())
            .analyze(&trace, 0);
        assert!(report.access_total[1] > 0, "TL1 accesses counted");
    }
}
