//! Spatial regions: the compact trigger + bit-vector representation of a
//! group of spatially-adjacent instruction blocks (paper §3, §4.1).

use std::fmt;

use crate::{BlockAddr, ConfigError};

/// Geometry of a spatial region: how many blocks before and after the
/// trigger block belong to the region.
///
/// The paper's default (justified by Figure 8) is **2 preceding and 5
/// succeeding** blocks, i.e. 8 blocks total including the trigger.
///
/// # Example
///
/// ```
/// use pif_types::RegionGeometry;
///
/// let g = RegionGeometry::paper_default();
/// assert_eq!(g.preceding(), 2);
/// assert_eq!(g.succeeding(), 5);
/// assert_eq!(g.total_blocks(), 8);
/// assert!(g.contains_offset(-2) && g.contains_offset(5));
/// assert!(!g.contains_offset(-3) && !g.contains_offset(6));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionGeometry {
    preceding: u8,
    succeeding: u8,
}

impl RegionGeometry {
    /// Maximum number of non-trigger blocks representable (bit-vector width).
    pub const MAX_BITS: usize = 31;

    /// Creates a geometry with the given number of preceding and succeeding
    /// blocks.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `preceding + succeeding` exceeds
    /// [`RegionGeometry::MAX_BITS`].
    pub fn new(preceding: u8, succeeding: u8) -> Result<Self, ConfigError> {
        if preceding as usize + succeeding as usize > Self::MAX_BITS {
            return Err(ConfigError::new(format!(
                "spatial region too large: {preceding} preceding + {succeeding} succeeding \
                 exceeds {} non-trigger blocks",
                Self::MAX_BITS
            )));
        }
        Ok(RegionGeometry {
            preceding,
            succeeding,
        })
    }

    /// The paper's default geometry: 2 preceding, 5 succeeding (8 blocks).
    pub const fn paper_default() -> Self {
        RegionGeometry {
            preceding: 2,
            succeeding: 5,
        }
    }

    /// A geometry with `total` blocks, skewed toward succeeding blocks the
    /// way the paper's sensitivity study (Fig. 8 right) sweeps region size:
    /// at most 2 preceding blocks, remainder succeeding.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `total` is zero or exceeds
    /// [`RegionGeometry::MAX_BITS`] + 1.
    pub fn skewed_with_total(total: u8) -> Result<Self, ConfigError> {
        if total == 0 {
            return Err(ConfigError::new(
                "spatial region must contain the trigger block",
            ));
        }
        let non_trigger = total - 1;
        // The paper's skew: regions of size >= 4 reserve 2 preceding blocks,
        // smaller regions favour succeeding blocks.
        let preceding = match total {
            1 | 2 => 0,
            3 => 1,
            _ => 2,
        };
        let succeeding = non_trigger - preceding;
        Self::new(preceding, succeeding)
    }

    /// Number of blocks preceding the trigger.
    #[inline]
    pub const fn preceding(self) -> u8 {
        self.preceding
    }

    /// Number of blocks succeeding the trigger.
    #[inline]
    pub const fn succeeding(self) -> u8 {
        self.succeeding
    }

    /// Total number of blocks in the region, including the trigger.
    #[inline]
    pub const fn total_blocks(self) -> usize {
        self.preceding as usize + self.succeeding as usize + 1
    }

    /// True if `offset` (in blocks relative to the trigger; 0 = trigger)
    /// falls inside the region.
    #[inline]
    pub const fn contains_offset(self, offset: i64) -> bool {
        offset >= -(self.preceding as i64) && offset <= self.succeeding as i64
    }

    /// Maps a non-zero in-region offset to its bit index, or `None` if the
    /// offset is 0 (the trigger, which is implicit) or out of range.
    ///
    /// Bit layout: bits `0..preceding` are the preceding blocks ordered from
    /// nearest (`-1` = bit 0) to farthest; bits `preceding..` are the
    /// succeeding blocks from nearest (`+1`) to farthest.
    #[inline]
    pub const fn bit_for_offset(self, offset: i64) -> Option<u32> {
        if offset == 0 || !self.contains_offset(offset) {
            None
        } else if offset < 0 {
            Some((-offset - 1) as u32)
        } else {
            Some(self.preceding as u32 + (offset - 1) as u32)
        }
    }

    /// Inverse of [`RegionGeometry::bit_for_offset`].
    #[inline]
    pub const fn offset_for_bit(self, bit: u32) -> i64 {
        if bit < self.preceding as u32 {
            -(bit as i64) - 1
        } else {
            (bit - self.preceding as u32) as i64 + 1
        }
    }

    /// Number of bit-vector bits (non-trigger blocks).
    #[inline]
    pub const fn bit_count(self) -> u32 {
        self.preceding as u32 + self.succeeding as u32
    }
}

impl Default for RegionGeometry {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Bit vector recording which non-trigger blocks of a spatial region were
/// accessed.
///
/// Always interpreted relative to a [`RegionGeometry`]; the trigger block is
/// implicit (always accessed) and has no bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RegionBits(u32);

impl RegionBits {
    /// An empty bit vector (only the trigger block accessed).
    #[inline]
    pub const fn empty() -> Self {
        RegionBits(0)
    }

    /// Creates from a raw bit mask (bit layout per
    /// [`RegionGeometry::bit_for_offset`]).
    #[inline]
    pub const fn from_raw(raw: u32) -> Self {
        RegionBits(raw)
    }

    /// Raw bit mask.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Sets the bit for the block at `offset` from the trigger. Offsets of 0
    /// (the trigger) or outside the geometry are ignored and return `false`.
    #[inline]
    pub fn set_offset(&mut self, geometry: RegionGeometry, offset: i64) -> bool {
        match geometry.bit_for_offset(offset) {
            Some(bit) => {
                self.0 |= 1 << bit;
                true
            }
            None => false,
        }
    }

    /// True if the bit for `offset` is set. The trigger offset 0 reports
    /// `true` (the trigger is always accessed).
    #[inline]
    pub fn contains_offset(self, geometry: RegionGeometry, offset: i64) -> bool {
        if offset == 0 {
            return true;
        }
        match geometry.bit_for_offset(offset) {
            Some(bit) => self.0 & (1 << bit) != 0,
            None => false,
        }
    }

    /// Number of set bits (accessed non-trigger blocks).
    #[inline]
    pub const fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// True if every bit set in `self` is also set in `other`.
    #[inline]
    pub const fn is_subset_of(self, other: RegionBits) -> bool {
        self.0 & !other.0 == 0
    }

    /// Union of two bit vectors.
    #[must_use]
    #[inline]
    pub const fn union(self, other: RegionBits) -> RegionBits {
        RegionBits(self.0 | other.0)
    }
}

impl fmt::Display for RegionBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:b}", self.0)
    }
}

/// A spatial region record: a trigger block plus the bit vector of its
/// accessed neighbours. This is the unit stored in the temporal compactor
/// and the history buffer (paper Fig. 5).
///
/// # Example
///
/// ```
/// use pif_types::{BlockAddr, RegionGeometry, SpatialRegionRecord};
///
/// let g = RegionGeometry::paper_default();
/// let mut r = SpatialRegionRecord::new(BlockAddr::from_number(100));
/// r.record_block(g, BlockAddr::from_number(101));
/// r.record_block(g, BlockAddr::from_number(99));
/// let blocks: Vec<u64> = r.blocks_in_order(g).map(|b| b.number()).collect();
/// assert_eq!(blocks, vec![99, 100, 101]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpatialRegionRecord {
    /// Block address of the trigger (first accessed) block of the region.
    pub trigger: BlockAddr,
    /// Accessed neighbour blocks.
    pub bits: RegionBits,
}

impl SpatialRegionRecord {
    /// Creates a record for a region triggered at `trigger` with no
    /// neighbour accesses yet.
    pub const fn new(trigger: BlockAddr) -> Self {
        SpatialRegionRecord {
            trigger,
            bits: RegionBits::empty(),
        }
    }

    /// True if `block` falls within the region spanned by this record's
    /// trigger under `geometry` (whether or not its bit is set).
    #[inline]
    pub fn spans_block(&self, geometry: RegionGeometry, block: BlockAddr) -> bool {
        geometry.contains_offset(self.trigger.signed_distance(block))
    }

    /// Records an access to `block`. Returns `false` (and records nothing)
    /// if the block is outside the region.
    #[inline]
    pub fn record_block(&mut self, geometry: RegionGeometry, block: BlockAddr) -> bool {
        let offset = self.trigger.signed_distance(block);
        if offset == 0 {
            return true; // trigger block: implicitly recorded
        }
        self.bits.set_offset(geometry, offset)
    }

    /// True if the record marks `block` as accessed (trigger included).
    #[inline]
    pub fn contains_block(&self, geometry: RegionGeometry, block: BlockAddr) -> bool {
        self.bits
            .contains_offset(geometry, self.trigger.signed_distance(block))
    }

    /// Number of accessed blocks, including the trigger.
    #[inline]
    pub fn accessed_blocks(&self) -> u32 {
        self.bits.count() + 1
    }

    /// Iterates the accessed blocks in replay order (farthest-preceding
    /// first, then trigger, then succeeding), matching the SAB's
    /// left-to-right bit-vector traversal (§4.3).
    pub fn blocks_in_order(&self, geometry: RegionGeometry) -> impl Iterator<Item = BlockAddr> {
        let trigger = self.trigger;
        let bits = self.bits;
        let prec = geometry.preceding() as i64;
        let succ = geometry.succeeding() as i64;
        // `contains_offset` reports the implicit trigger bit at offset 0.
        (-prec..=succ)
            .filter(move |&off| bits.contains_offset(geometry, off))
            .map(move |off| trigger.offset(off))
    }

    /// Number of *discontinuous runs* of accessed blocks within the region:
    /// maximal groups of consecutive accessed blocks (used by Fig. 3 right).
    pub fn discontinuous_runs(&self, geometry: RegionGeometry) -> u32 {
        let prec = geometry.preceding() as i64;
        let succ = geometry.succeeding() as i64;
        let mut runs = 0;
        let mut in_run = false;
        for off in -prec..=succ {
            let accessed = off == 0 || self.bits.contains_offset(geometry, off);
            if accessed && !in_run {
                runs += 1;
            }
            in_run = accessed;
        }
        runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: RegionGeometry = RegionGeometry::paper_default();

    #[test]
    fn geometry_rejects_oversized_regions() {
        assert!(RegionGeometry::new(16, 16).is_err());
        assert!(RegionGeometry::new(2, 29).is_ok());
    }

    #[test]
    fn bit_offset_mapping_round_trips() {
        for off in -2i64..=5 {
            if off == 0 {
                assert_eq!(G.bit_for_offset(0), None);
                continue;
            }
            let bit = G.bit_for_offset(off).unwrap();
            assert_eq!(G.offset_for_bit(bit), off);
        }
    }

    #[test]
    fn bits_outside_geometry_are_rejected() {
        assert_eq!(G.bit_for_offset(-3), None);
        assert_eq!(G.bit_for_offset(6), None);
        let mut bits = RegionBits::empty();
        assert!(!bits.set_offset(G, -3));
        assert!(!bits.set_offset(G, 6));
        assert_eq!(bits.count(), 0);
    }

    #[test]
    fn subset_semantics() {
        let mut a = RegionBits::empty();
        a.set_offset(G, 1);
        let mut b = a;
        b.set_offset(G, 2);
        assert!(a.is_subset_of(b));
        assert!(!b.is_subset_of(a));
        assert!(a.is_subset_of(a));
        assert!(RegionBits::empty().is_subset_of(a));
    }

    #[test]
    fn record_tracks_in_region_blocks_only() {
        let mut r = SpatialRegionRecord::new(BlockAddr::from_number(100));
        assert!(r.record_block(G, BlockAddr::from_number(100))); // trigger
        assert!(r.record_block(G, BlockAddr::from_number(98))); // -2
        assert!(r.record_block(G, BlockAddr::from_number(105))); // +5
        assert!(!r.record_block(G, BlockAddr::from_number(97))); // -3
        assert!(!r.record_block(G, BlockAddr::from_number(106))); // +6
        assert_eq!(r.accessed_blocks(), 3);
    }

    #[test]
    fn blocks_in_order_matches_left_to_right_traversal() {
        let mut r = SpatialRegionRecord::new(BlockAddr::from_number(50));
        r.record_block(G, BlockAddr::from_number(49));
        r.record_block(G, BlockAddr::from_number(48));
        r.record_block(G, BlockAddr::from_number(52));
        let blocks: Vec<u64> = r.blocks_in_order(G).map(|b| b.number()).collect();
        assert_eq!(blocks, vec![48, 49, 50, 52]);
    }

    #[test]
    fn discontinuous_runs_counts_gaps() {
        let mut r = SpatialRegionRecord::new(BlockAddr::from_number(50));
        assert_eq!(r.discontinuous_runs(G), 1); // trigger only
        r.record_block(G, BlockAddr::from_number(51));
        assert_eq!(r.discontinuous_runs(G), 1); // contiguous
        r.record_block(G, BlockAddr::from_number(53));
        assert_eq!(r.discontinuous_runs(G), 2); // gap at 52
        r.record_block(G, BlockAddr::from_number(48));
        assert_eq!(r.discontinuous_runs(G), 3); // gap at 49
        r.record_block(G, BlockAddr::from_number(49));
        assert_eq!(r.discontinuous_runs(G), 2); // 48-51 now contiguous
    }

    #[test]
    fn spans_block_uses_geometry() {
        let r = SpatialRegionRecord::new(BlockAddr::from_number(100));
        assert!(r.spans_block(G, BlockAddr::from_number(98)));
        assert!(r.spans_block(G, BlockAddr::from_number(105)));
        assert!(!r.spans_block(G, BlockAddr::from_number(97)));
        assert!(!r.spans_block(G, BlockAddr::from_number(106)));
    }

    #[test]
    fn skewed_totals_match_paper_sweep() {
        // Fig. 8 (right) sweeps total region sizes 1, 2, 4, 6, 8.
        let g1 = RegionGeometry::skewed_with_total(1).unwrap();
        assert_eq!((g1.preceding(), g1.succeeding()), (0, 0));
        let g2 = RegionGeometry::skewed_with_total(2).unwrap();
        assert_eq!((g2.preceding(), g2.succeeding()), (0, 1));
        let g4 = RegionGeometry::skewed_with_total(4).unwrap();
        assert_eq!((g4.preceding(), g4.succeeding()), (2, 1));
        let g8 = RegionGeometry::skewed_with_total(8).unwrap();
        assert_eq!((g8.preceding(), g8.succeeding()), (2, 5));
        assert!(RegionGeometry::skewed_with_total(0).is_err());
    }

    #[test]
    fn union_is_commutative_and_idempotent() {
        let mut a = RegionBits::empty();
        a.set_offset(G, 1);
        let mut b = RegionBits::empty();
        b.set_offset(G, -1);
        assert_eq!(a.union(b), b.union(a));
        assert_eq!(a.union(a), a);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn geometry_strategy() -> impl Strategy<Value = RegionGeometry> {
        (0u8..=8, 0u8..=16).prop_map(|(p, s)| RegionGeometry::new(p, s).expect("within MAX_BITS"))
    }

    proptest! {
        #[test]
        fn bit_offset_round_trip(g in geometry_strategy()) {
            for bit in 0..g.bit_count() {
                let off = g.offset_for_bit(bit);
                prop_assert_eq!(g.bit_for_offset(off), Some(bit));
            }
        }

        #[test]
        fn set_then_contains(g in geometry_strategy(), off in -20i64..20) {
            let mut bits = RegionBits::empty();
            let accepted = bits.set_offset(g, off);
            prop_assert_eq!(accepted, off != 0 && g.contains_offset(off));
            if accepted {
                prop_assert!(bits.contains_offset(g, off));
                prop_assert_eq!(bits.count(), 1);
            }
        }

        #[test]
        fn record_conserves_in_region_blocks(
            g in geometry_strategy(),
            trigger in 1_000u64..2_000,
            offsets in proptest::collection::vec(-20i64..20, 0..32),
        ) {
            let t = BlockAddr::from_number(trigger);
            let mut r = SpatialRegionRecord::new(t);
            let mut expected: Vec<u64> = vec![trigger];
            for off in offsets {
                let b = t.offset(off);
                let ok = r.record_block(g, b);
                prop_assert_eq!(ok, g.contains_offset(off));
                if ok && !expected.contains(&b.number()) {
                    expected.push(b.number());
                }
            }
            expected.sort_unstable();
            let mut got: Vec<u64> = r.blocks_in_order(g).map(|b| b.number()).collect();
            got.sort_unstable();
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn runs_bounded_by_accessed_blocks(
            g in geometry_strategy(),
            raw in any::<u32>(),
        ) {
            let mask = if g.bit_count() == 32 { u32::MAX } else { (1u32 << g.bit_count()) - 1 };
            let r = SpatialRegionRecord {
                trigger: BlockAddr::from_number(1_000),
                bits: RegionBits::from_raw(raw & mask),
            };
            let runs = r.discontinuous_runs(g);
            prop_assert!(runs >= 1);
            prop_assert!(runs <= r.accessed_blocks());
        }
    }
}
