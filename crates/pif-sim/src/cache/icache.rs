//! The L1 instruction cache wrapper: a set-associative cache whose lines
//! carry provenance (demand-filled vs. prefetched), plus the access
//! bookkeeping the engine and prefetchers need.

use pif_types::BlockAddr;

use crate::config::ICacheConfig;

use super::set_assoc::SetAssocCache;

/// How a resident line got into the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineProvenance {
    /// Filled by a demand miss.
    Demand,
    /// Installed by a prefetch and not yet demanded.
    Prefetched,
    /// Installed by a prefetch and since demanded at least once.
    PrefetchedUsed,
}

#[derive(Debug, Clone, Copy)]
struct LineMeta {
    provenance: LineProvenance,
}

/// The metadata of an empty way, never read.
impl Default for LineMeta {
    fn default() -> Self {
        LineMeta {
            provenance: LineProvenance::Demand,
        }
    }
}

/// Result of a demand access to the instruction cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Hit on a demand-filled line (or an already-used prefetched line).
    Hit,
    /// First demand hit on a line installed by a prefetch: this is a miss
    /// that the prefetcher *covered*.
    HitFirstUseOfPrefetch,
    /// Miss; the engine fills the line with demand provenance.
    Miss,
}

impl AccessOutcome {
    /// True for either kind of hit.
    pub const fn is_hit(self) -> bool {
        !matches!(self, AccessOutcome::Miss)
    }
}

/// The L1 instruction cache (Table I: 64 KB, 2-way, 64 B blocks, LRU).
///
/// # Example
///
/// ```
/// use pif_sim::cache::{AccessOutcome, InstructionCache};
/// use pif_sim::ICacheConfig;
/// use pif_types::BlockAddr;
///
/// let mut ic = InstructionCache::new(ICacheConfig::paper_default()).unwrap();
/// let b = BlockAddr::from_number(7);
/// assert_eq!(ic.demand_access(b), AccessOutcome::Miss);
/// ic.fill_prefetch(BlockAddr::from_number(8));
/// assert_eq!(
///     ic.demand_access(BlockAddr::from_number(8)),
///     AccessOutcome::HitFirstUseOfPrefetch
/// );
/// ```
#[derive(Debug, Clone)]
pub struct InstructionCache {
    cache: SetAssocCache<LineMeta>,
    config: ICacheConfig,
}

impl InstructionCache {
    /// Creates an instruction cache with the given geometry.
    ///
    /// # Errors
    ///
    /// Returns [`pif_types::ConfigError`] if the geometry is invalid.
    pub fn new(config: ICacheConfig) -> Result<Self, pif_types::ConfigError> {
        config.validate()?;
        Ok(InstructionCache {
            cache: SetAssocCache::new(config.sets(), config.ways)?,
            config,
        })
    }

    /// The cache geometry.
    pub fn config(&self) -> &ICacheConfig {
        &self.config
    }

    /// Performs a demand access to `block`, filling on miss.
    ///
    /// Distinguishes the first demand use of a prefetched line so the
    /// engine can account prefetch coverage: that access would have been a
    /// miss without the prefetcher.
    #[inline]
    pub fn demand_access(&mut self, block: BlockAddr) -> AccessOutcome {
        if let Some(meta) = self.cache.access(block) {
            match meta.provenance {
                LineProvenance::Prefetched => {
                    meta.provenance = LineProvenance::PrefetchedUsed;
                    AccessOutcome::HitFirstUseOfPrefetch
                }
                _ => AccessOutcome::Hit,
            }
        } else {
            self.cache.insert(
                block,
                LineMeta {
                    provenance: LineProvenance::Demand,
                },
            );
            AccessOutcome::Miss
        }
    }

    /// Installs `block` as a prefetched line. Returns `false` if the block
    /// was already resident (the paper's prefetch path probes the tags and
    /// drops such requests; calling this anyway is harmless).
    #[inline]
    pub fn fill_prefetch(&mut self, block: BlockAddr) -> bool {
        if self.cache.contains(block) {
            return false;
        }
        self.cache.insert(
            block,
            LineMeta {
                provenance: LineProvenance::Prefetched,
            },
        );
        true
    }

    /// Non-perturbing presence probe (used by prefetchers before queuing
    /// requests, §4.3).
    #[inline]
    pub fn probe(&self, block: BlockAddr) -> bool {
        self.cache.contains(block)
    }

    /// Provenance of a resident line, if present (non-perturbing).
    #[inline]
    pub fn provenance(&self, block: BlockAddr) -> Option<LineProvenance> {
        self.cache.probe(block).map(|m| m.provenance)
    }

    /// Number of resident lines that were prefetched but never demanded
    /// (pollution candidates).
    pub fn unused_prefetched_blocks(&self) -> usize {
        self.cache
            .blocks()
            .filter(|&b| self.provenance(b) == Some(LineProvenance::Prefetched))
            .count()
    }

    /// Empties the cache.
    pub fn clear(&mut self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> InstructionCache {
        InstructionCache::new(ICacheConfig {
            capacity_bytes: 4 * 64,
            ways: 2,
            latency_cycles: 2,
        })
        .unwrap()
    }

    fn b(n: u64) -> BlockAddr {
        BlockAddr::from_number(n)
    }

    #[test]
    fn miss_then_hit() {
        let mut ic = small();
        assert_eq!(ic.demand_access(b(1)), AccessOutcome::Miss);
        assert_eq!(ic.demand_access(b(1)), AccessOutcome::Hit);
    }

    #[test]
    fn prefetch_first_use_is_distinguished() {
        let mut ic = small();
        assert!(ic.fill_prefetch(b(3)));
        assert_eq!(ic.demand_access(b(3)), AccessOutcome::HitFirstUseOfPrefetch);
        assert_eq!(ic.demand_access(b(3)), AccessOutcome::Hit);
    }

    #[test]
    fn prefetch_of_resident_block_is_dropped() {
        let mut ic = small();
        ic.demand_access(b(1));
        assert!(!ic.fill_prefetch(b(1)));
        // Still a plain hit: provenance untouched.
        assert_eq!(ic.demand_access(b(1)), AccessOutcome::Hit);
    }

    #[test]
    fn provenance_transitions() {
        let mut ic = small();
        ic.fill_prefetch(b(2));
        assert_eq!(ic.provenance(b(2)), Some(LineProvenance::Prefetched));
        ic.demand_access(b(2));
        assert_eq!(ic.provenance(b(2)), Some(LineProvenance::PrefetchedUsed));
        ic.demand_access(b(4));
        assert_eq!(ic.provenance(b(4)), Some(LineProvenance::Demand));
    }

    #[test]
    fn unused_prefetch_accounting() {
        let mut ic = small();
        ic.fill_prefetch(b(1));
        ic.fill_prefetch(b(2));
        assert_eq!(ic.unused_prefetched_blocks(), 2);
        ic.demand_access(b(1));
        assert_eq!(ic.unused_prefetched_blocks(), 1);
    }

    #[test]
    fn probe_is_nonperturbing_for_lru() {
        // 1 set x 2 ways.
        let mut ic = InstructionCache::new(ICacheConfig {
            capacity_bytes: 2 * 64,
            ways: 2,
            latency_cycles: 2,
        })
        .unwrap();
        ic.demand_access(b(0));
        ic.demand_access(b(2));
        assert!(ic.probe(b(0)));
        // Insert third conflicting block: block 0 must be the victim even
        // though it was probed after block 2's fill.
        ic.demand_access(b(4));
        assert!(!ic.probe(b(0)));
        assert!(ic.probe(b(2)));
    }

    #[test]
    fn rejects_invalid_geometry() {
        assert!(InstructionCache::new(ICacheConfig {
            capacity_bytes: 3 * 64,
            ways: 2,
            latency_cycles: 2,
        })
        .is_err());
    }
}
