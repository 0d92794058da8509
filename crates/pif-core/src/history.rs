//! The history buffer (§4.2): a circular FIFO of spatial region records,
//! and [`HistoryWindow`], a smaller buffer's view of a larger one.

use std::collections::VecDeque;

use pif_types::SpatialRegionRecord;

/// One history buffer entry: the region record, its trigger's
/// not-prefetched tag, and the cumulative block position at insertion
/// (used for jump-distance accounting, Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryEntry {
    /// The compacted region record.
    pub record: SpatialRegionRecord,
    /// Fetch-stage tag of the trigger instruction (gates index insertion).
    pub tagged: bool,
    /// Number of instruction-block accesses recorded before this entry
    /// (monotonic across the whole run, not wrapped).
    pub block_position: u64,
}

/// A circular buffer of [`HistoryEntry`]s addressed by *monotonic
/// positions*: appending never invalidates position arithmetic, old
/// positions simply stop resolving once overwritten.
///
/// # Example
///
/// ```
/// use pif_core::HistoryBuffer;
/// use pif_types::{BlockAddr, SpatialRegionRecord};
///
/// let mut h = HistoryBuffer::new(2);
/// let p0 = h.append(SpatialRegionRecord::new(BlockAddr::from_number(1)), true);
/// let p1 = h.append(SpatialRegionRecord::new(BlockAddr::from_number(2)), true);
/// let p2 = h.append(SpatialRegionRecord::new(BlockAddr::from_number(3)), true);
/// assert!(h.get(p0).is_none(), "overwritten by wraparound");
/// assert!(h.get(p1).is_some() && h.get(p2).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct HistoryBuffer {
    entries: VecDeque<HistoryEntry>,
    capacity: usize,
    /// Monotonic position of `entries[0]`.
    base: u64,
    /// Cumulative accessed-block count across all appended records.
    block_position: u64,
}

impl HistoryBuffer {
    /// Creates a history buffer holding `capacity` region records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self::with_reservation(capacity, capacity)
    }

    /// Creates a history buffer holding `capacity` region records, with
    /// room reserved up front for `records` of them (and never more than
    /// `capacity` or 2^20): a walk that knows how many records it can
    /// append reserves no more than that.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_reservation(capacity: usize, records: usize) -> Self {
        assert!(capacity > 0, "history buffer needs >= 1 record");
        HistoryBuffer {
            entries: VecDeque::with_capacity(records.min(capacity).min(1 << 20)),
            capacity,
            base: 0,
            block_position: 0,
        }
    }

    /// Appends a record (always performed, §4.2) and returns its position.
    pub fn append(&mut self, record: SpatialRegionRecord, tagged: bool) -> u64 {
        let pos = self.end();
        self.entries.push_back(HistoryEntry {
            record,
            tagged,
            block_position: self.block_position,
        });
        self.block_position += u64::from(record.accessed_blocks());
        if self.entries.len() > self.capacity {
            self.entries.pop_front();
            self.base += 1;
        }
        pos
    }

    /// Position one past the most recent record.
    pub fn end(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    /// Oldest still-resident position.
    pub fn start(&self) -> u64 {
        self.base
    }

    /// Fetches the entry at `pos`, if it has not been overwritten.
    pub fn get(&self, pos: u64) -> Option<&HistoryEntry> {
        if pos < self.base {
            return None;
        }
        self.entries.get((pos - self.base) as usize)
    }

    /// Number of resident records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Configured capacity in records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cumulative accessed-block count (for jump-distance measurements).
    pub fn block_position(&self) -> u64 {
        self.block_position
    }

    /// This buffer as a buffer of `capacity` records would hold it: the
    /// window resolves exactly the positions, and entries, that
    /// `HistoryBuffer::new(capacity)` fed the same appends resolves. The
    /// window is a snapshot; take a new one after the next append.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds this buffer's capacity.
    ///
    /// # Example
    ///
    /// ```
    /// use pif_core::HistoryBuffer;
    /// use pif_types::{BlockAddr, SpatialRegionRecord};
    ///
    /// let mut h = HistoryBuffer::new(8);
    /// for n in 0..4 {
    ///     h.append(SpatialRegionRecord::new(BlockAddr::from_number(n)), true);
    /// }
    /// let w = h.window(2);
    /// assert!(w.get(1).is_none(), "a 2-record buffer has overwritten it");
    /// assert!(w.get(2).is_some() && w.get(3).is_some());
    /// ```
    #[inline]
    pub fn window(&self, capacity: usize) -> HistoryWindow<'_> {
        assert!(
            capacity > 0 && capacity <= self.capacity,
            "window of {capacity} records over a buffer of {}",
            self.capacity
        );
        HistoryWindow {
            entries: &self.entries,
            base: self.base,
            start: self.end().saturating_sub(capacity as u64),
        }
    }
}

/// Read access to history entries by position: what the SABs replay from.
///
/// Implemented by `&HistoryBuffer` and by a [`HistoryWindow`] over a
/// larger buffer. Both are small `Copy` values passed by value, so the
/// prediction path stays monomorphic on whichever it is given.
pub trait HistoryLookup: Copy {
    /// Fetches the entry at `pos`, if it is resident.
    fn get(&self, pos: u64) -> Option<&HistoryEntry>;
}

impl HistoryLookup for &HistoryBuffer {
    #[inline]
    fn get(&self, pos: u64) -> Option<&HistoryEntry> {
        HistoryBuffer::get(self, pos)
    }
}

/// A capacity-`C` view of a [`HistoryBuffer`] of capacity at least `C`
/// (see [`HistoryBuffer::window`]): one buffer, fed once, serves
/// analyses of several history sizes.
#[derive(Debug, Clone, Copy)]
pub struct HistoryWindow<'a> {
    entries: &'a VecDeque<HistoryEntry>,
    /// Monotonic position of `entries[0]`.
    base: u64,
    /// Oldest position a buffer of the window's capacity still holds; at
    /// least `base`, since the window is no larger than the buffer.
    start: u64,
}

impl HistoryWindow<'_> {
    /// Fetches the entry at `pos`, if a buffer of the window's capacity
    /// still holds it.
    #[inline]
    pub fn get(&self, pos: u64) -> Option<&HistoryEntry> {
        if pos < self.start {
            return None;
        }
        self.entries.get((pos - self.base) as usize)
    }
}

impl HistoryLookup for HistoryWindow<'_> {
    #[inline]
    fn get(&self, pos: u64) -> Option<&HistoryEntry> {
        HistoryWindow::get(self, pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_types::{BlockAddr, RegionGeometry};

    fn rec(n: u64) -> SpatialRegionRecord {
        SpatialRegionRecord::new(BlockAddr::from_number(n))
    }

    #[test]
    fn append_returns_monotonic_positions() {
        let mut h = HistoryBuffer::new(4);
        assert_eq!(h.append(rec(1), true), 0);
        assert_eq!(h.append(rec(2), true), 1);
        assert_eq!(h.append(rec(3), false), 2);
        assert_eq!(h.end(), 3);
        assert_eq!(h.get(1).unwrap().record.trigger, BlockAddr::from_number(2));
        assert!(!h.get(2).unwrap().tagged);
    }

    #[test]
    fn wraparound_invalidates_oldest() {
        let mut h = HistoryBuffer::new(3);
        for n in 0..5 {
            h.append(rec(n), true);
        }
        assert_eq!(h.len(), 3);
        assert_eq!(h.start(), 2);
        assert!(h.get(0).is_none());
        assert!(h.get(1).is_none());
        for pos in 2..5 {
            assert_eq!(
                h.get(pos).unwrap().record.trigger,
                BlockAddr::from_number(pos)
            );
        }
    }

    #[test]
    fn block_position_accumulates_accessed_blocks() {
        let g = RegionGeometry::paper_default();
        let mut h = HistoryBuffer::new(8);
        let mut r = rec(100);
        r.record_block(g, BlockAddr::from_number(101));
        r.record_block(g, BlockAddr::from_number(102));
        h.append(r, true); // 3 blocks
        h.append(rec(200), true); // 1 block
        assert_eq!(h.block_position(), 4);
        assert_eq!(h.get(0).unwrap().block_position, 0);
        assert_eq!(h.get(1).unwrap().block_position, 3);
    }

    #[test]
    fn get_past_end_is_none() {
        let mut h = HistoryBuffer::new(2);
        h.append(rec(1), true);
        assert!(h.get(1).is_none());
        assert!(h.get(99).is_none());
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = HistoryBuffer::new(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use pif_types::{BlockAddr, RegionGeometry};
    use proptest::prelude::*;

    proptest! {
        /// FIFO/positions invariant: after any append sequence, exactly the
        /// last min(n, capacity) positions resolve, in insertion order; and
        /// a window of that capacity over a larger buffer fed the same
        /// appends resolves exactly the same positions and entries.
        #[test]
        fn fifo_positions_resolve(
            cap in 1usize..16,
            extra in 0usize..24,
            n in 0u64..200,
        ) {
            let mut h = HistoryBuffer::new(cap);
            let mut larger = HistoryBuffer::new(cap + extra);
            for i in 0..n {
                let mut record = SpatialRegionRecord::new(BlockAddr::from_number(i));
                if i % 3 == 0 {
                    // Vary the accessed-block count, so block positions
                    // differ from record positions.
                    let g = RegionGeometry::paper_default();
                    record.record_block(g, BlockAddr::from_number(i + 1));
                }
                let pos = h.append(record, i % 2 == 0);
                prop_assert_eq!(pos, i);
                prop_assert_eq!(larger.append(record, i % 2 == 0), i);
            }
            prop_assert_eq!(h.end(), n);
            let start = n.saturating_sub(cap as u64);
            let window = larger.window(cap);
            for pos in 0..n + 2 {
                match h.get(pos) {
                    Some(e) => {
                        prop_assert!(pos >= start);
                        prop_assert_eq!(e.record.trigger, BlockAddr::from_number(pos));
                    }
                    None => prop_assert!(pos < start || pos >= n),
                }
                prop_assert_eq!(window.get(pos), h.get(pos));
            }
        }
    }
}
