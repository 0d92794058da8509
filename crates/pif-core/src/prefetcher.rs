//! The complete PIF prefetcher: compactor chain on the retire side,
//! index-triggered SAB replay on the fetch side (paper Fig. 4 and Fig. 6).

use pif_sim::cache::AccessOutcome;
use pif_sim::{PrefetchContext, Prefetcher};
use pif_types::{BlockAddr, FetchAccess, RetiredInstr, TrapLevel};

use crate::config::PifConfig;
use crate::history::HistoryBuffer;
use crate::index::IndexTable;
use crate::sab::SabPool;
use crate::spatial::SpatialCompactor;
use crate::temporal::TemporalCompactor;

/// Per-trap-level recording state (§2.3: streams are recorded in separate
/// temporal streams per trap level).
#[derive(Debug)]
struct LevelState {
    spatial: SpatialCompactor,
    temporal: TemporalCompactor,
    history: HistoryBuffer,
    index: IndexTable,
}

impl LevelState {
    fn new(config: &PifConfig) -> Self {
        LevelState {
            spatial: SpatialCompactor::new(config.geometry),
            temporal: TemporalCompactor::new(config.temporal_entries),
            history: HistoryBuffer::new(config.history_capacity),
            index: IndexTable::new(config.index_entries, config.index_ways)
                .expect("validated index geometry"),
        }
    }
}

/// Proactive Instruction Fetch.
///
/// Attach to the engine via `Engine::run(&trace, Pif::new(config))`.
///
/// # Example
///
/// ```
/// use pif_core::{Pif, PifConfig};
/// use pif_sim::Prefetcher;
///
/// let pif = Pif::new(PifConfig::paper_default());
/// assert_eq!(pif.name(), "PIF");
/// ```
#[derive(Debug)]
pub struct Pif {
    config: PifConfig,
    levels: Vec<LevelState>,
    sabs: SabPool,
    /// Streams opened (index hits that allocated a SAB).
    streams_opened: u64,
    /// Reusable scratch for records produced by SAB advance/allocate;
    /// reaches a fixed capacity after warmup (no steady-state allocation).
    records_scratch: Vec<pif_types::SpatialRegionRecord>,
}

impl Pif {
    /// Creates a PIF prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`PifConfig::validate`]).
    pub fn new(config: PifConfig) -> Self {
        config.validate().expect("invalid PIF configuration");
        let levels = if config.separate_trap_levels {
            TrapLevel::COUNT
        } else {
            1
        };
        Pif {
            levels: (0..levels).map(|_| LevelState::new(&config)).collect(),
            sabs: SabPool::new(config.sab_count, config.sab_window),
            streams_opened: 0,
            records_scratch: Vec::new(),
            config,
        }
    }

    /// Maps a trap level to the recording context index.
    fn level_index(&self, tl: TrapLevel) -> usize {
        if self.config.separate_trap_levels {
            tl.index()
        } else {
            0
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PifConfig {
        &self.config
    }

    /// Number of prediction streams opened so far.
    pub fn streams_opened(&self) -> u64 {
        self.streams_opened
    }

    /// Records kept in the history buffer for `level`.
    pub fn history_len(&self, level: TrapLevel) -> usize {
        self.levels[self.level_index(level)].history.len()
    }
}

/// Issues block-level prefetches for `records`, traversing each bit vector
/// left to right (§4.3): preceding blocks, trigger, then succeeding blocks
/// — the order the core will want them.
fn issue_region_prefetches(
    geometry: pif_types::RegionGeometry,
    records: &[pif_types::SpatialRegionRecord],
    ctx: &mut PrefetchContext<'_>,
) {
    for rec in records {
        for block in rec.blocks_in_order(geometry) {
            ctx.prefetch(block);
        }
    }
}

impl Prefetcher for Pif {
    fn name(&self) -> &'static str {
        "PIF"
    }

    fn on_access_outcome(
        &mut self,
        access: &FetchAccess,
        block: BlockAddr,
        _outcome: AccessOutcome,
        ctx: &mut PrefetchContext<'_>,
    ) {
        let level = self.level_index(access.trap_level);
        let geometry = self.config.geometry;

        // 1. An active stream that contains this fetch advances and
        //    prefetches the records that slid into its window. Records are
        //    written into the reusable scratch buffer (no allocation).
        if self.sabs.advance(
            level,
            block,
            geometry,
            &self.levels[level].history,
            &mut self.records_scratch,
        ) {
            issue_region_prefetches(geometry, &self.records_scratch, ctx);
            return;
        }

        // 2. Fetches of blocks that were *not* explicitly prefetched
        //    trigger the prediction mechanism (§4.3): look the block up in
        //    the index and start replaying at its most recent record.
        if ctx.was_prefetched(block) {
            return;
        }
        let state = &mut self.levels[level];
        let Some(pos) = state.index.lookup(block) else {
            return;
        };
        let Some(entry) = state.history.get(pos) else {
            return; // stale pointer: record overwritten
        };
        let jump = state.history.block_position() - entry.block_position;
        self.sabs.allocate(
            level,
            pos,
            jump,
            geometry,
            &state.history,
            &mut self.records_scratch,
        );
        self.streams_opened += 1;
        issue_region_prefetches(geometry, &self.records_scratch, ctx);
    }

    fn on_retire(
        &mut self,
        instr: &RetiredInstr,
        prefetched: bool,
        _ctx: &mut PrefetchContext<'_>,
    ) {
        let level = self.level_index(instr.trap_level);
        let state = &mut self.levels[level];
        let Some(finished) = state.spatial.observe(instr.pc.block(), !prefetched) else {
            return;
        };
        let Some(admitted) = state.temporal.filter(finished) else {
            return;
        };
        // History insertion is unconditional; index insertion requires the
        // trigger's not-prefetched tag (§4.2).
        let pos = state
            .history
            .append(admitted.record, admitted.trigger_not_prefetched);
        if admitted.trigger_not_prefetched {
            state.index.insert(admitted.record.trigger, pos);
        }
    }

    fn gauges(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        // SAB residency (how many of the paper's four stream buffers are
        // live) and per-stream window occupancy — read-only snapshots,
        // sampled by the engine only when a probe is enabled.
        emit("sab_active_streams", self.sabs.active() as u64);
        for sab in self.sabs.iter() {
            emit("sab_window_regions", sab.window_len() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_sim::RunOptions;
    use pif_sim::{Engine, EngineConfig, NoPrefetcher};
    use pif_types::Address;

    fn sweep_trace(blocks: u64, reps: u64) -> Vec<RetiredInstr> {
        // A large repetitive sweep: footprint > L1-I so the baseline
        // thrashes, but perfectly repetitive so PIF should cover it.
        let mut v = Vec::new();
        for _ in 0..reps {
            for blk in 0..blocks {
                for i in 0..16 {
                    v.push(RetiredInstr::simple(
                        Address::new(blk * 64 + i * 4),
                        TrapLevel::Tl0,
                    ));
                }
            }
        }
        v
    }

    #[test]
    fn pif_covers_repetitive_thrashing_workload() {
        let trace = sweep_trace(2048, 4);
        let engine = Engine::new(EngineConfig::paper_default());
        let base = engine.run(trace.iter().copied(), NoPrefetcher, RunOptions::new());
        let pif = engine.run(
            trace.iter().copied(),
            Pif::new(PifConfig::paper_default()),
            RunOptions::new(),
        );
        assert!(
            base.fetch.demand_misses > 4000,
            "baseline must thrash: {} misses",
            base.fetch.demand_misses
        );
        assert!(
            pif.miss_coverage() > 0.6,
            "PIF coverage {} too low",
            pif.miss_coverage()
        );
        assert!(
            pif.speedup_over(&base) > 1.05,
            "PIF speedup {}",
            pif.speedup_over(&base)
        );
    }

    #[test]
    fn pif_records_streams_per_trap_level() {
        let mut trace = sweep_trace(64, 1);
        for i in 0..640u64 {
            trace.push(RetiredInstr::simple(
                Address::new(0x7000_0000 + i * 4),
                TrapLevel::Tl1,
            ));
        }
        let mut pif = Pif::new(PifConfig::paper_default());
        let mut harness = pif_sim::PrefetcherHarness::new(pif_sim::ICacheConfig::paper_default());
        for instr in &trace {
            harness.drive(|ctx| pif.on_retire(instr, false, ctx));
        }
        assert!(pif.history_len(TrapLevel::Tl0) > 0);
        assert!(pif.history_len(TrapLevel::Tl1) > 0);
    }

    #[test]
    fn fetch_of_recorded_trigger_opens_stream_and_prefetches() {
        let mut pif = Pif::new(PifConfig::paper_default());
        let mut harness = pif_sim::PrefetcherHarness::new(pif_sim::ICacheConfig::paper_default());
        // Record a retire-order sweep over far-apart regions twice so the
        // triggers land in the index.
        let triggers: Vec<u64> = (0..32).map(|i| 1_000 + i * 100).collect();
        for _ in 0..2 {
            for &t in &triggers {
                for off in 0..3u64 {
                    let instr = RetiredInstr::simple(Address::new((t + off) * 64), TrapLevel::Tl0);
                    harness.drive(|ctx| pif.on_retire(&instr, false, ctx));
                }
            }
        }
        // A fetch of the first trigger (not prefetched) must open a stream
        // and prefetch upcoming blocks.
        let access = FetchAccess::correct(Address::new(1_000 * 64), TrapLevel::Tl0);
        let requests = harness.drive(|ctx| {
            pif.on_access_outcome(&access, access.pc.block(), AccessOutcome::Miss, ctx);
        });
        assert!(pif.streams_opened() >= 1);
        assert!(
            requests.len() >= 3,
            "expected multi-region prefetch burst, got {requests:?}"
        );
        // The stream replays the recorded order: next trigger present.
        assert!(requests.contains(&BlockAddr::from_number(1_100)));
    }

    #[test]
    fn prefetched_fetches_do_not_open_streams() {
        let mut pif = Pif::new(PifConfig::paper_default());
        let mut harness = pif_sim::PrefetcherHarness::new(pif_sim::ICacheConfig::paper_default());
        // Record something so the index is non-empty.
        for rep in 0..2 {
            for t in 0..16u64 {
                let instr =
                    RetiredInstr::simple(Address::new((1_000 + t * 50) * 64), TrapLevel::Tl0);
                harness.drive(|ctx| pif.on_retire(&instr, false, ctx));
            }
            let _ = rep;
        }
        // Mark the trigger block as prefetched in the cache.
        harness
            .icache_mut()
            .fill_prefetch(BlockAddr::from_number(1_000));
        let access = FetchAccess::correct(Address::new(1_000 * 64), TrapLevel::Tl0);
        let before = pif.streams_opened();
        harness.drive(|ctx| {
            pif.on_access_outcome(&access, access.pc.block(), AccessOutcome::Hit, ctx);
        });
        assert_eq!(
            pif.streams_opened(),
            before,
            "explicitly-prefetched fetches must not re-trigger prediction"
        );
    }

    #[test]
    fn pif_beats_no_prefetch_on_synthetic_workload() {
        use pif_workloads::WorkloadProfile;
        let trace = WorkloadProfile::oltp_db2().scaled(0.05).generate(150_000);
        let engine = Engine::new(EngineConfig::paper_default());
        let base = engine.run(
            trace.instrs().iter().copied(),
            NoPrefetcher,
            RunOptions::new(),
        );
        let pif = engine.run(
            trace.instrs().iter().copied(),
            Pif::new(PifConfig::paper_default()),
            RunOptions::new(),
        );
        assert!(
            pif.fetch.demand_misses < base.fetch.demand_misses,
            "PIF {} vs baseline {} misses",
            pif.fetch.demand_misses,
            base.fetch.demand_misses
        );
    }
}
