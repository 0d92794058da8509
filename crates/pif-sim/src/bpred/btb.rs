//! Branch target buffer: predicts indirect-branch targets.

use pif_types::Address;

use crate::cache::SetAssocCache;

/// A BTB mapping branch PCs to their last-seen targets. Used for indirect
/// calls/jumps, whose targets cannot be computed at fetch; a stale entry
/// yields a wrong-path fetch burst from the *old* target (paper §2.2's
/// arbitrary noise injection).
///
/// # Example
///
/// ```
/// use pif_sim::bpred::BranchTargetBuffer;
/// use pif_types::Address;
///
/// let mut btb = BranchTargetBuffer::new(256, 4);
/// let pc = Address::new(0x40);
/// assert_eq!(btb.predict(pc), None);
/// btb.update(pc, Address::new(0x4000));
/// assert_eq!(btb.predict(pc), Some(Address::new(0x4000)));
/// ```
#[derive(Debug, Clone)]
pub struct BranchTargetBuffer {
    table: SetAssocCache<Address>,
}

impl BranchTargetBuffer {
    /// Creates a BTB with `entries` total entries of `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid: sets not a power of two, or
    /// more than 16 ways (the packed-LRU replacement limit).
    pub fn new(entries: usize, ways: usize) -> Self {
        let sets = entries / ways;
        BranchTargetBuffer {
            table: SetAssocCache::new(sets, ways).expect("valid BTB geometry"),
        }
    }

    fn key(pc: Address) -> pif_types::BlockAddr {
        // Index by word-aligned PC, reusing the block-keyed cache.
        pif_types::BlockAddr::from_number(pc.raw() >> 2)
    }

    /// Predicted target for the branch at `pc`, if known.
    pub fn predict(&self, pc: Address) -> Option<Address> {
        self.table.probe(Self::key(pc)).copied()
    }

    /// Records the actual target of the branch at `pc`.
    pub fn update(&mut self, pc: Address, target: Address) {
        self.table.insert(Self::key(pc), target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remembers_last_target() {
        let mut btb = BranchTargetBuffer::new(64, 2);
        let pc = Address::new(0x100);
        btb.update(pc, Address::new(0xa000));
        btb.update(pc, Address::new(0xb000));
        assert_eq!(btb.predict(pc), Some(Address::new(0xb000)));
    }

    #[test]
    fn capacity_evicts_old_entries() {
        let mut btb = BranchTargetBuffer::new(4, 1); // 4 sets x 1 way
                                                     // Fill set 0 (word indices multiple of 4): PCs 0x0, 0x40 alias? word
                                                     // index = pc>>2; set = idx & 3. 0x0 -> 0, 0x10 -> 0 (idx 4).
        btb.update(Address::new(0x0), Address::new(0x1));
        btb.update(Address::new(0x10), Address::new(0x2));
        assert_eq!(btb.predict(Address::new(0x0)), None, "conflict evicted");
        assert_eq!(btb.predict(Address::new(0x10)), Some(Address::new(0x2)));
    }

    #[test]
    fn distinct_branches_coexist() {
        let mut btb = BranchTargetBuffer::new(64, 2);
        btb.update(Address::new(0x4), Address::new(0x111));
        btb.update(Address::new(0x8), Address::new(0x222));
        assert_eq!(btb.predict(Address::new(0x4)), Some(Address::new(0x111)));
        assert_eq!(btb.predict(Address::new(0x8)), Some(Address::new(0x222)));
    }
}
