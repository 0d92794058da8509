//! Generic set-associative cache keyed by cache-block address.
//!
//! The cache uses a structure-of-arrays layout: a flat `tags` array of
//! block numbers (with an invalid-slot sentinel), a parallel `meta` array,
//! and one inline packed LRU word per set. A lookup therefore scans
//! `ways` consecutive `u64` tags in one or two cache lines and never
//! chases a pointer — this is the hottest structure in the simulator,
//! probed on every fetch, retirement, and prefetch request.

use pif_types::{BlockAddr, ConfigError};

use super::replacement::LruOrder;

/// Sentinel tag marking an empty way. Block numbers are block *addresses*
/// shifted right by the block-offset bits, so `u64::MAX` can never name a
/// real block.
const INVALID_TAG: u64 = u64::MAX;

/// A set-associative, true-LRU cache mapping [`BlockAddr`]s to per-line
/// metadata `T`.
///
/// The cache tracks presence only (this is a trace-driven simulator; the
/// actual instruction bytes are irrelevant). Per-line metadata carries
/// provenance flags such as "installed by prefetch".
///
/// # Example
///
/// ```
/// use pif_sim::cache::SetAssocCache;
/// use pif_types::BlockAddr;
///
/// let mut cache: SetAssocCache<()> = SetAssocCache::new(4, 2).unwrap();
/// let b = BlockAddr::from_number(42);
/// assert!(cache.access(b).is_none());
/// cache.insert(b, ());
/// assert!(cache.access(b).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<T = ()> {
    sets: usize,
    ways: usize,
    set_mask: u64,
    /// Flat `sets * ways` array of full block numbers ([`INVALID_TAG`] =
    /// empty way). We store the whole number rather than a truncated tag so
    /// debugging output stays legible.
    tags: Vec<u64>,
    /// Parallel per-line metadata, meaningful exactly where the tag is
    /// valid (the tag says which ways hold a line, so the metadata needs
    /// no `Option` of its own).
    meta: Vec<T>,
    /// One packed LRU word per set, stored inline.
    repl: Vec<LruOrder>,
    resident: usize,
}

impl<T: Default> SetAssocCache<T> {
    /// Creates a cache with `sets` sets of `ways` ways.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `sets` is not a power of two, either
    /// dimension is zero, or `ways` exceeds the 16 the packed LRU word
    /// orders.
    pub fn new(sets: usize, ways: usize) -> Result<Self, ConfigError> {
        if sets == 0 || ways == 0 {
            return Err(ConfigError::new("cache sets and ways must be non-zero"));
        }
        if !sets.is_power_of_two() {
            return Err(ConfigError::new(format!(
                "set count {sets} is not a power of two"
            )));
        }
        if ways > LruOrder::MAX_WAYS {
            return Err(ConfigError::new(format!(
                "{ways} ways exceeds the LRU limit of {}",
                LruOrder::MAX_WAYS
            )));
        }
        let mut meta = Vec::with_capacity(sets * ways);
        meta.resize_with(sets * ways, T::default);
        Ok(SetAssocCache {
            sets,
            ways,
            set_mask: sets as u64 - 1,
            tags: vec![INVALID_TAG; sets * ways],
            meta,
            repl: vec![LruOrder::new(ways); sets],
            resident: 0,
        })
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Number of ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total line capacity.
    pub fn capacity_blocks(&self) -> usize {
        self.sets * self.ways
    }

    /// Number of currently resident lines.
    pub fn len(&self) -> usize {
        self.resident
    }

    /// True if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    #[inline]
    fn set_index(&self, block: BlockAddr) -> usize {
        (block.number() & self.set_mask) as usize
    }

    /// Scans one set's tags for `tag`, returning the matching way. The
    /// sentinel never matches: a lookup for block `u64::MAX` (reachable
    /// via wrapping block arithmetic) must not hit empty ways.
    #[inline]
    fn find_way(&self, set: usize, tag: u64) -> Option<usize> {
        if tag == INVALID_TAG {
            return None;
        }
        let base = set * self.ways;
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == tag)
    }

    /// Looks up `block` without perturbing replacement state (a *probe*,
    /// as issued by prefetchers before enqueueing requests, §4.3).
    #[inline]
    pub fn probe(&self, block: BlockAddr) -> Option<&T> {
        let set = self.set_index(block);
        let way = self.find_way(set, block.number())?;
        Some(&self.meta[set * self.ways + way])
    }

    /// True if `block` is resident (non-perturbing).
    #[inline]
    pub fn contains(&self, block: BlockAddr) -> bool {
        let set = self.set_index(block);
        self.find_way(set, block.number()).is_some()
    }

    /// Demand access: on hit, touches the line for replacement and returns
    /// its metadata; on miss returns `None` (the caller decides whether to
    /// fill via [`SetAssocCache::insert`]).
    #[inline]
    pub fn access(&mut self, block: BlockAddr) -> Option<&mut T> {
        let set = self.set_index(block);
        let way = self.find_way(set, block.number())?;
        self.repl[set].touch(self.ways, way);
        Some(&mut self.meta[set * self.ways + way])
    }

    /// Inserts `block`, evicting a victim if the set is full. Returns the
    /// evicted block and its metadata, if any. If the block is already
    /// resident its metadata is replaced (and the line touched) without an
    /// eviction.
    pub fn insert(&mut self, block: BlockAddr, meta: T) -> Option<(BlockAddr, T)> {
        let tag = block.number();
        if tag == INVALID_TAG {
            // Block u64::MAX collides with the empty-way sentinel and is
            // not representable in this layout; it is reachable only via
            // wrapping block arithmetic below address 0. Dropping the
            // insert keeps every invariant (the block simply stays
            // non-resident, as all lookups already report).
            return None;
        }
        let set = self.set_index(block);
        let base = set * self.ways;
        if let Some(way) = self.find_way(set, tag) {
            self.repl[set].touch(self.ways, way);
            self.meta[base + way] = meta;
            return None;
        }
        // Prefer an empty way.
        let empty = self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == INVALID_TAG);
        let (way, evicted) = match empty {
            Some(way) => {
                self.resident += 1;
                self.meta[base + way] = meta;
                (way, None)
            }
            None => {
                let way = self.repl[set].victim(self.ways);
                let old_tag = self.tags[base + way];
                let old_meta = std::mem::replace(&mut self.meta[base + way], meta);
                (way, Some((BlockAddr::from_number(old_tag), old_meta)))
            }
        };
        self.tags[base + way] = tag;
        self.repl[set].touch(self.ways, way);
        evicted
    }

    /// Removes `block` from the cache, returning its metadata if resident.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<T> {
        let set = self.set_index(block);
        let way = self.find_way(set, block.number())?;
        self.resident -= 1;
        self.tags[set * self.ways + way] = INVALID_TAG;
        Some(std::mem::take(&mut self.meta[set * self.ways + way]))
    }

    /// Iterates over resident blocks (arbitrary order).
    pub fn blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.tags
            .iter()
            .filter(|&&t| t != INVALID_TAG)
            .map(|&t| BlockAddr::from_number(t))
    }

    /// Clears all lines and resets replacement state: the cache behaves
    /// as a new one of its geometry. The metadata of invalid ways is never
    /// read, so it is left as it is.
    pub fn clear(&mut self) {
        self.tags.fill(INVALID_TAG);
        self.repl.fill(LruOrder::new(self.ways));
        self.resident = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: u64) -> BlockAddr {
        BlockAddr::from_number(n)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(2, 2).unwrap();
        assert!(c.access(b(5)).is_none());
        assert!(c.insert(b(5), 7).is_none());
        assert_eq!(c.access(b(5)), Some(&mut 7));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn conflicting_blocks_evict_lru_order() {
        // 1 set, 2 ways: blocks all conflict.
        let mut c: SetAssocCache<()> = SetAssocCache::new(1, 2).unwrap();
        c.insert(b(1), ());
        c.insert(b(2), ());
        // Touch 1 so 2 is LRU.
        c.access(b(1));
        let evicted = c.insert(b(3), ()).unwrap();
        assert_eq!(evicted.0, b(2));
        assert!(c.contains(b(1)) && c.contains(b(3)) && !c.contains(b(2)));
    }

    #[test]
    fn probe_does_not_perturb_replacement() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(1, 2).unwrap();
        c.insert(b(1), ());
        c.insert(b(2), ());
        // Probe (unlike access) must not promote block 1.
        assert!(c.probe(b(1)).is_some());
        let evicted = c.insert(b(3), ()).unwrap();
        assert_eq!(evicted.0, b(1), "probe must not refresh LRU state");
    }

    #[test]
    fn reinsert_updates_meta_without_eviction() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 2).unwrap();
        c.insert(b(1), 10);
        assert!(c.insert(b(1), 20).is_none());
        assert_eq!(c.probe(b(1)), Some(&20));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn blocks_map_to_distinct_sets_by_low_bits() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(4, 1).unwrap();
        // Blocks 0..4 map to sets 0..4: no evictions.
        for n in 0..4 {
            assert!(c.insert(b(n), ()).is_none());
        }
        assert_eq!(c.len(), 4);
        // Block 4 conflicts with block 0 (set 0).
        let evicted = c.insert(b(4), ()).unwrap();
        assert_eq!(evicted.0, b(0));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(2, 2).unwrap();
        c.insert(b(1), 5);
        assert_eq!(c.invalidate(b(1)), Some(5));
        assert_eq!(c.invalidate(b(1)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn invalidated_way_is_refilled_first() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 2).unwrap();
        c.insert(b(1), 1);
        c.insert(b(2), 2);
        c.invalidate(b(1));
        // The freed way must be reused without evicting block 2.
        assert!(c.insert(b(3), 3).is_none());
        assert!(c.contains(b(2)) && c.contains(b(3)));
    }

    #[test]
    fn clear_resets_everything() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(2, 2).unwrap();
        for n in 0..4 {
            c.insert(b(n), ());
        }
        // Set 0 now has its first way most recent, set 1 its second.
        assert!(c.access(b(0)).is_some());
        c.clear();
        assert!(c.is_empty());
        for n in 0..4 {
            assert!(!c.contains(b(n)));
        }
        // Tags, recency order and count alike: a new cache's state.
        let new: SetAssocCache<()> = SetAssocCache::new(2, 2).unwrap();
        assert_eq!(format!("{c:?}"), format!("{new:?}"));
    }

    #[test]
    fn rejects_non_power_of_two_sets() {
        assert!(SetAssocCache::<()>::new(3, 2).is_err());
        assert!(SetAssocCache::<()>::new(0, 2).is_err());
        assert!(SetAssocCache::<()>::new(4, 0).is_err());
    }

    #[test]
    fn sentinel_block_never_matches_empty_ways() {
        // Block u64::MAX is representable (wrapping block arithmetic);
        // it must not alias the empty-way sentinel on lookups.
        let mut c: SetAssocCache<()> = SetAssocCache::new(2, 2).unwrap();
        let max = BlockAddr::from_number(u64::MAX);
        assert!(!c.contains(max));
        assert!(c.access(max).is_none());
        assert!(c.invalidate(max).is_none(), "must not underflow resident");
        assert!(c.insert(max, ()).is_none(), "sentinel insert is dropped");
        assert_eq!(c.len(), 0, "dropped insert must not count as resident");
        c.insert(b(1), ());
        assert!(!c.contains(max));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn rejects_ways_beyond_policy_limit_as_config_error() {
        // Packed LRU caps at 16 ways: a wider geometry must surface as a
        // ConfigError from new(), not a panic.
        assert!(SetAssocCache::<()>::new(4, 16).is_ok());
        assert!(SetAssocCache::<()>::new(4, 17).is_err());
        assert!(SetAssocCache::<()>::new(4, 33).is_err());
    }

    #[test]
    fn sixteen_way_set_tracks_full_lru_order() {
        // The packed-LRU word must track all 16 ways (the L2 geometry).
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 16).unwrap();
        for n in 0..16 {
            assert!(c.insert(b(n), n as u32).is_none());
        }
        // Touch everything except block 5; block 5 must be the victim.
        for n in 0..16 {
            if n != 5 {
                c.access(b(n));
            }
        }
        let evicted = c.insert(b(100), 0).unwrap();
        assert_eq!(evicted.0, b(5));
    }

    #[test]
    fn paper_fragmentation_example() {
        // Paper Figure 1 (left): 4-block direct-mapped cache, sequences
        // ABCD then RS (R conflicts with A, S conflicts with C), then ABCD
        // again misses only on A and C.
        let mut c: SetAssocCache<()> = SetAssocCache::new(4, 1).unwrap();
        let (a, bb, cc, d) = (b(0), b(1), b(2), b(3));
        let (r, s) = (b(4), b(6)); // set 0 and set 2: conflict with A and C
        let mut miss_seq = Vec::new();
        for blk in [a, bb, cc, d, r, s, a, bb, cc, d] {
            if c.access(blk).is_none() {
                miss_seq.push(blk);
                c.insert(blk, ());
            }
        }
        assert_eq!(miss_seq, vec![a, bb, cc, d, r, s, a, cc]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any block inserted is immediately resident; capacity is bounded.
        #[test]
        fn inserted_blocks_resident_and_bounded(
            ops in proptest::collection::vec(0u64..64, 1..200),
        ) {
            let mut c: SetAssocCache<()> = SetAssocCache::new(4, 2).unwrap();
            for n in ops {
                c.insert(BlockAddr::from_number(n), ());
                prop_assert!(c.contains(BlockAddr::from_number(n)));
                prop_assert!(c.len() <= c.capacity_blocks());
            }
        }

        /// In a fully-associative LRU cache of W ways, the last W *distinct*
        /// blocks accessed are always resident.
        #[test]
        fn lru_keeps_most_recent_distinct_blocks(
            ops in proptest::collection::vec(0u64..16, 1..300),
        ) {
            const WAYS: usize = 4;
            let mut c: SetAssocCache<()> = SetAssocCache::new(1, WAYS).unwrap();
            let mut recent: Vec<u64> = Vec::new();
            for n in ops {
                if c.access(BlockAddr::from_number(n)).is_none() {
                    c.insert(BlockAddr::from_number(n), ());
                }
                recent.retain(|&x| x != n);
                recent.push(n);
                for &m in recent.iter().rev().take(WAYS) {
                    prop_assert!(
                        c.contains(BlockAddr::from_number(m)),
                        "block {m} within LRU window must be resident"
                    );
                }
            }
        }

        /// Eviction count is consistent: resident = inserts - evictions - invalidations.
        #[test]
        fn resident_count_is_consistent(
            ops in proptest::collection::vec((0u64..32, proptest::bool::ANY), 1..200),
        ) {
            let mut c: SetAssocCache<()> = SetAssocCache::new(2, 2).unwrap();
            let mut resident = 0i64;
            for (n, invalidate) in ops {
                let blk = BlockAddr::from_number(n);
                if invalidate {
                    if c.invalidate(blk).is_some() {
                        resident -= 1;
                    }
                } else if !c.contains(blk) {
                    if c.insert(blk, ()).is_none() {
                        resident += 1;
                    }
                } else {
                    c.insert(blk, ());
                }
                prop_assert_eq!(c.len() as i64, resident);
            }
        }
    }
}
