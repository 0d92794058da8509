//! The index table (§4.2): a small cache-like structure mapping a trigger
//! block to the location of its most recent record in the history buffer.

use pif_sim::cache::SetAssocCache;
use pif_types::{BlockAddr, ConfigError};

/// The index table. Bounded and set-associative like the paper's
/// "small cache-like structure"; stale pointers (to overwritten history
/// positions) are filtered by the caller via `HistoryBuffer::get`.
///
/// # Example
///
/// ```
/// use pif_core::IndexTable;
/// use pif_types::BlockAddr;
///
/// let mut idx = IndexTable::new(256, 4).unwrap();
/// let b = BlockAddr::from_number(42);
/// idx.insert(b, 7);
/// assert_eq!(idx.lookup(b), Some(7));
/// idx.insert(b, 9); // newer stream head wins
/// assert_eq!(idx.lookup(b), Some(9));
/// ```
#[derive(Debug, Clone)]
pub struct IndexTable {
    table: SetAssocCache<u64>,
    inserts: u64,
    hits: u64,
    lookups: u64,
}

impl IndexTable {
    /// Creates an index with `entries` total entries of `ways`
    /// associativity.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the geometry is invalid.
    pub fn new(entries: usize, ways: usize) -> Result<Self, ConfigError> {
        if ways == 0 || entries == 0 || !entries.is_multiple_of(ways) {
            return Err(ConfigError::new("index entries must divide into ways"));
        }
        Ok(IndexTable {
            table: SetAssocCache::new(entries / ways, ways)?,
            inserts: 0,
            hits: 0,
            lookups: 0,
        })
    }

    /// Records that `trigger`'s most recent history record is at `pos`.
    pub fn insert(&mut self, trigger: BlockAddr, pos: u64) {
        self.inserts += 1;
        self.table.insert(trigger, pos);
    }

    /// Looks up the most recent history position for `trigger`, touching
    /// the entry for LRU.
    pub fn lookup(&mut self, trigger: BlockAddr) -> Option<u64> {
        self.lookups += 1;
        let hit = self.table.access(trigger).map(|p| *p);
        if hit.is_some() {
            self.hits += 1;
        }
        hit
    }

    /// Empties the table and zeroes its statistics, keeping its memory:
    /// afterwards it behaves exactly as a new table of its geometry.
    pub fn clear(&mut self) {
        self.table.clear();
        self.inserts = 0;
        self.hits = 0;
        self.lookups = 0;
    }

    /// Insertions performed.
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Lookup hit rate so far.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        self.hits as f64 / self.lookups as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: u64) -> BlockAddr {
        BlockAddr::from_number(n)
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut idx = IndexTable::new(64, 4).unwrap();
        idx.insert(b(1), 100);
        idx.insert(b(2), 200);
        assert_eq!(idx.lookup(b(1)), Some(100));
        assert_eq!(idx.lookup(b(2)), Some(200));
        assert_eq!(idx.lookup(b(3)), None);
    }

    #[test]
    fn newer_insert_replaces_position() {
        let mut idx = IndexTable::new(64, 4).unwrap();
        idx.insert(b(1), 5);
        idx.insert(b(1), 50);
        assert_eq!(idx.lookup(b(1)), Some(50));
    }

    #[test]
    fn capacity_bounded_with_lru() {
        // 1 set x 2 ways: third distinct trigger evicts the LRU.
        let mut idx = IndexTable::new(2, 2).unwrap();
        idx.insert(b(0), 1);
        idx.insert(b(2), 2); // same set (even block numbers, 1 set total)
        idx.lookup(b(0)); // touch 0: 2 becomes LRU
        idx.insert(b(4), 3);
        assert_eq!(idx.lookup(b(0)), Some(1));
        assert_eq!(idx.lookup(b(2)), None);
    }

    #[test]
    fn stats_track_hits() {
        let mut idx = IndexTable::new(64, 4).unwrap();
        idx.insert(b(1), 1);
        idx.lookup(b(1));
        idx.lookup(b(9));
        assert_eq!(idx.inserts(), 1);
        assert!((idx.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn cleared_table_behaves_as_new() {
        let mut idx = IndexTable::new(2, 2).unwrap();
        for n in 0..6 {
            idx.insert(b(2 * n), n);
        }
        idx.lookup(b(8));
        idx.clear();
        assert_eq!((idx.inserts(), idx.hit_rate()), (0, 0.0));
        assert_eq!(idx.lookup(b(8)), None);
        // Fresh LRU order: the first of three inserts is the victim.
        idx.insert(b(0), 1);
        idx.insert(b(2), 2);
        idx.insert(b(4), 3);
        assert_eq!(idx.lookup(b(0)), None);
        assert_eq!(idx.lookup(b(2)), Some(2));
    }

    #[test]
    fn invalid_geometry_rejected() {
        assert!(IndexTable::new(0, 4).is_err());
        assert!(IndexTable::new(64, 0).is_err());
        assert!(IndexTable::new(65, 4).is_err());
    }
}
