//! Stream address buffers (§4.3): active prediction streams replaying the
//! history buffer ahead of the core's fetch stream.

use std::collections::VecDeque;

use pif_types::{BlockAddr, RegionGeometry, SpatialRegionRecord};

use crate::history::HistoryLookup;

/// One stream address buffer: a window of consecutive history records
/// belonging to an active prediction stream.
#[derive(Debug, Clone)]
pub struct Sab {
    /// Trap-level index of the stream.
    level: usize,
    /// Next history position to read into the window.
    next_pos: u64,
    /// The tracked window of (position, record) pairs.
    window: VecDeque<(u64, SpatialRegionRecord)>,
    /// LRU timestamp.
    last_use: u64,
    /// Fetches matched by this stream (correct predictions).
    predictions: u64,
    /// Regions the stream has advanced past.
    regions_advanced: u64,
    /// Jump distance (in recorded blocks) captured at allocation (Fig. 7).
    jump_distance_blocks: u64,
}

impl Sab {
    /// Trap level this stream belongs to.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Correct predictions made so far.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Current window contents (positions and records).
    pub fn window(&self) -> impl Iterator<Item = &(u64, SpatialRegionRecord)> {
        self.window.iter()
    }

    /// Number of regions currently held in the window.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }
}

/// Lifetime statistics of a retired (replaced) stream, for the paper's
/// Fig. 7 (jump distance weighted by predictions) and Fig. 9 left (stream
/// length weighted by predictions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedStream {
    /// Trap level of the stream.
    pub level: usize,
    /// Correct predictions the stream made.
    pub predictions: u64,
    /// Length of the stream in regions advanced.
    pub regions_advanced: u64,
    /// Jump distance (recorded blocks between recurrence and recording).
    pub jump_distance_blocks: u64,
}

/// The pool of SABs (paper: four, LRU-replaced).
///
/// # Example
///
/// ```
/// use pif_core::{HistoryBuffer, SabPool};
/// use pif_types::{BlockAddr, RegionGeometry, SpatialRegionRecord};
///
/// let g = RegionGeometry::paper_default();
/// let mut h = HistoryBuffer::new(64);
/// for n in 0..16u64 {
///     h.append(SpatialRegionRecord::new(BlockAddr::from_number(n * 10)), true);
/// }
/// let mut pool = SabPool::new(4, 7);
/// let mut records = Vec::new();
/// pool.allocate(0, 0, 0, g, &h, &mut records);
/// assert!(!records.is_empty(), "allocation yields prefetch candidates");
/// // A fetch of the second region's trigger advances the stream.
/// assert!(pool.advance(0, BlockAddr::from_number(10), g, &h, &mut records));
/// ```
#[derive(Debug, Clone)]
pub struct SabPool {
    sabs: Vec<Sab>,
    count: usize,
    window: usize,
    clock: u64,
}

impl SabPool {
    /// Creates a pool of `count` SABs, each tracking `window` regions.
    ///
    /// # Panics
    ///
    /// Panics if `count` or `window` is zero.
    pub fn new(count: usize, window: usize) -> Self {
        assert!(
            count > 0 && window > 0,
            "SAB pool and window must be non-zero"
        );
        SabPool {
            sabs: Vec::with_capacity(count),
            count,
            window,
            clock: 0,
        }
    }

    /// Attempts to advance an active stream with a fetch of `block` at
    /// trap level `level`. On a match, the window slides to the matched
    /// region and refills from `history`, appending the *newly read*
    /// records (prefetch candidates) to `out`; returns `true`. Returns
    /// `false` if no stream matched. `out` is cleared first either way, so
    /// a caller-owned scratch buffer can be reused allocation-free.
    ///
    /// `history` is a `&`[`crate::HistoryBuffer`], or a
    /// [`crate::HistoryWindow`] over one when several history sizes share
    /// a buffer.
    pub fn advance<H: HistoryLookup>(
        &mut self,
        level: usize,
        block: BlockAddr,
        geometry: RegionGeometry,
        history: H,
        out: &mut Vec<SpatialRegionRecord>,
    ) -> bool {
        out.clear();
        self.clock += 1;
        for sab in &mut self.sabs {
            if sab.level != level {
                continue;
            }
            if let Some(i) = sab
                .window
                .iter()
                .position(|(_, rec)| rec.contains_block(geometry, block))
            {
                sab.predictions += 1;
                sab.last_use = self.clock;
                sab.regions_advanced += i as u64;
                sab.window.drain(..i);
                while sab.window.len() < self.window {
                    match history.get(sab.next_pos) {
                        Some(entry) => {
                            sab.window.push_back((sab.next_pos, entry.record));
                            out.push(entry.record);
                            sab.next_pos += 1;
                        }
                        None => break,
                    }
                }
                return true;
            }
        }
        false
    }

    /// Allocates a new stream replaying history from `pos`, replacing the
    /// LRU SAB if the pool is full. Clears `out` and fills it with the
    /// initial window's records (prefetch candidates); returns the
    /// lifetime stats of any stream that was replaced. `history` is read
    /// as in [`SabPool::advance`].
    pub fn allocate<H: HistoryLookup>(
        &mut self,
        level: usize,
        pos: u64,
        jump_distance_blocks: u64,
        _geometry: RegionGeometry,
        history: H,
        out: &mut Vec<SpatialRegionRecord>,
    ) -> Option<CompletedStream> {
        out.clear();
        self.clock += 1;
        // Claim a slot first: an empty one if the pool has room, otherwise
        // the LRU stream's — whose window buffer is reused in place, so a
        // steady-state stream open performs no heap allocation.
        let (slot, completed) = if self.sabs.len() < self.count {
            self.sabs.push(Sab {
                level,
                next_pos: pos,
                window: VecDeque::with_capacity(self.window),
                last_use: self.clock,
                predictions: 0,
                regions_advanced: 0,
                jump_distance_blocks,
            });
            (self.sabs.last_mut().expect("just pushed"), None)
        } else {
            let lru = self
                .sabs
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_use)
                .map(|(i, _)| i)
                .expect("pool is non-empty");
            let old = &mut self.sabs[lru];
            let completed = CompletedStream {
                level: old.level,
                predictions: old.predictions,
                regions_advanced: old.regions_advanced,
                jump_distance_blocks: old.jump_distance_blocks,
            };
            old.level = level;
            old.next_pos = pos;
            old.window.clear();
            old.last_use = self.clock;
            old.predictions = 0;
            old.regions_advanced = 0;
            old.jump_distance_blocks = jump_distance_blocks;
            (old, Some(completed))
        };
        while slot.window.len() < self.window {
            match history.get(slot.next_pos) {
                Some(entry) => {
                    slot.window.push_back((slot.next_pos, entry.record));
                    out.push(entry.record);
                    slot.next_pos += 1;
                }
                None => break,
            }
        }
        completed
    }

    /// Drains all streams' lifetime stats (end of run).
    pub fn drain_completed(&mut self) -> Vec<CompletedStream> {
        self.sabs
            .drain(..)
            .map(|s| CompletedStream {
                level: s.level,
                predictions: s.predictions,
                regions_advanced: s.regions_advanced,
                jump_distance_blocks: s.jump_distance_blocks,
            })
            .collect()
    }

    /// Number of active streams.
    pub fn active(&self) -> usize {
        self.sabs.len()
    }

    /// Iterates over the active SABs (read-only — e.g. for residency
    /// gauges and diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &Sab> {
        self.sabs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuffer;

    const G: RegionGeometry = RegionGeometry::paper_default();

    fn b(n: u64) -> BlockAddr {
        BlockAddr::from_number(n)
    }

    fn history_of(triggers: &[u64]) -> HistoryBuffer {
        let mut h = HistoryBuffer::new(1024);
        for &t in triggers {
            h.append(SpatialRegionRecord::new(b(t)), true);
        }
        h
    }

    /// Convenience wrappers keeping the assertions below readable.
    fn alloc(
        pool: &mut SabPool,
        level: usize,
        pos: u64,
        jump: u64,
        h: &HistoryBuffer,
    ) -> (Vec<SpatialRegionRecord>, Option<CompletedStream>) {
        let mut out = Vec::new();
        let completed = pool.allocate(level, pos, jump, G, h, &mut out);
        (out, completed)
    }

    fn advance(
        pool: &mut SabPool,
        level: usize,
        block: BlockAddr,
        h: &HistoryBuffer,
    ) -> Option<Vec<SpatialRegionRecord>> {
        let mut out = Vec::new();
        pool.advance(level, block, G, h, &mut out).then_some(out)
    }

    #[test]
    fn allocation_fills_window() {
        let h = history_of(&[10, 20, 30, 40, 50, 60, 70, 80, 90]);
        let mut pool = SabPool::new(4, 7);
        let (records, completed) = alloc(&mut pool, 0, 0, 0, &h);
        assert_eq!(records.len(), 7);
        assert!(completed.is_none());
        assert_eq!(pool.active(), 1);
    }

    #[test]
    fn allocation_near_history_end_truncates() {
        let h = history_of(&[10, 20, 30]);
        let mut pool = SabPool::new(4, 7);
        let (records, _) = alloc(&mut pool, 0, 1, 0, &h);
        assert_eq!(records.len(), 2, "only positions 1..3 exist");
    }

    #[test]
    fn allocation_clears_the_scratch_buffer() {
        let h = history_of(&[10, 20, 30]);
        let mut pool = SabPool::new(4, 2);
        let mut out = vec![SpatialRegionRecord::new(b(999))];
        pool.allocate(0, 0, 0, G, &h, &mut out);
        assert_eq!(out.len(), 2, "stale scratch contents must be dropped");
        assert_eq!(out[0].trigger, b(10));
    }

    #[test]
    fn advance_slides_and_reads_new_records() {
        let h = history_of(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        let mut pool = SabPool::new(4, 3);
        // Allocate window 10,20,30; the fetch of 30's trigger then
        // skips 2 regions and reads 2 more.
        alloc(&mut pool, 0, 0, 0, &h);
        let new = advance(&mut pool, 0, b(30), &h).unwrap();
        assert_eq!(new.len(), 2);
        assert_eq!(new[0].trigger, b(40));
        assert_eq!(new[1].trigger, b(50));
    }

    #[test]
    fn advance_matches_region_members_not_just_triggers() {
        let g = G;
        let mut h = HistoryBuffer::new(64);
        let mut r = SpatialRegionRecord::new(b(100));
        r.record_block(g, b(102));
        h.append(r, true);
        h.append(SpatialRegionRecord::new(b(200)), true);
        let mut pool = SabPool::new(2, 2);
        alloc(&mut pool, 0, 0, 0, &h);
        assert!(
            advance(&mut pool, 0, b(102), &h).is_some(),
            "bit-vector member matches"
        );
        assert!(
            advance(&mut pool, 0, b(104), &h).is_none(),
            "unset bit does not match"
        );
    }

    #[test]
    fn advance_respects_trap_level() {
        let h = history_of(&[10, 20, 30]);
        let mut pool = SabPool::new(2, 2);
        alloc(&mut pool, 1, 0, 0, &h);
        assert!(advance(&mut pool, 0, b(10), &h).is_none());
        assert!(advance(&mut pool, 1, b(10), &h).is_some());
    }

    #[test]
    fn lru_replacement_returns_completed_stats() {
        let h = history_of(&[10, 20, 30, 40, 50]);
        let mut pool = SabPool::new(2, 2);
        alloc(&mut pool, 0, 0, 1, &h);
        alloc(&mut pool, 0, 1, 2, &h);
        // Touch the first stream so the second is LRU.
        assert!(advance(&mut pool, 0, b(10), &h).is_some());
        let (_, completed) = alloc(&mut pool, 0, 2, 3, &h);
        let done = completed.expect("pool full: someone was replaced");
        assert_eq!(
            done.jump_distance_blocks, 2,
            "the untouched stream was evicted"
        );
    }

    #[test]
    fn predictions_and_length_accumulate() {
        let h = history_of(&[10, 20, 30, 40, 50, 60]);
        let mut pool = SabPool::new(1, 3);
        alloc(&mut pool, 0, 0, 0, &h);
        advance(&mut pool, 0, b(10), &h);
        advance(&mut pool, 0, b(20), &h);
        advance(&mut pool, 0, b(30), &h);
        let done = pool.drain_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].predictions, 3);
        assert_eq!(
            done[0].regions_advanced, 2,
            "advanced past regions 10 and 20"
        );
    }

    #[test]
    fn no_match_returns_false_and_keeps_state() {
        let h = history_of(&[10, 20]);
        let mut pool = SabPool::new(1, 2);
        alloc(&mut pool, 0, 0, 0, &h);
        assert!(advance(&mut pool, 0, b(999), &h).is_none());
        // Stream intact: trigger still matches.
        assert!(advance(&mut pool, 0, b(10), &h).is_some());
    }

    #[test]
    #[should_panic]
    fn zero_pool_rejected() {
        let _ = SabPool::new(0, 7);
    }
}
