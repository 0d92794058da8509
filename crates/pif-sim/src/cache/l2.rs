//! L2/backing-store model for instruction blocks.
//!
//! Decides whether an L1-I miss is served by the on-chip L2 (15-cycle hit,
//! Table I) or by main memory (~90 cycles at 2 GHz). The timing model uses
//! this latency to charge fetch-stall cycles. Server instruction working
//! sets are multi-megabyte but largely L2-resident (paper §5.4 cites
//! ReactiveNUCA's working-set analysis), so with the paper's aggregate NUCA
//! capacity most instruction misses are L2 hits.

use pif_types::BlockAddr;

use crate::config::L2Config;

use super::set_assoc::SetAssocCache;

/// L2 model: a large set-associative presence tracker plus latencies.
///
/// # Example
///
/// ```
/// use pif_sim::cache::L2Model;
/// use pif_sim::L2Config;
/// use pif_types::BlockAddr;
///
/// let mut l2 = L2Model::new(L2Config::paper_default()).unwrap();
/// let b = BlockAddr::from_number(1);
/// let first = l2.access(b);   // cold: memory latency
/// let second = l2.access(b);  // now resident: L2 hit latency
/// assert!(first > second);
/// ```
#[derive(Debug, Clone)]
pub struct L2Model {
    cache: SetAssocCache<()>,
    config: L2Config,
    hits: u64,
    misses: u64,
}

impl L2Model {
    /// Creates the L2 model.
    ///
    /// # Errors
    ///
    /// Returns [`pif_types::ConfigError`] on invalid geometry.
    pub fn new(config: L2Config) -> Result<Self, pif_types::ConfigError> {
        Ok(L2Model {
            cache: SetAssocCache::new(Self::sets(&config)?, config.ways)?,
            config,
            hits: 0,
            misses: 0,
        })
    }

    /// Empties the model and reconfigures it: afterwards it behaves
    /// exactly as `L2Model::new(config)` would, with no lines resident
    /// and zero hits and misses. Its arrays are reused when `config` keeps
    /// the geometry, so a caller that runs many simulations on one model
    /// pays for its ~1 MiB of tags once rather than once per run.
    ///
    /// # Errors
    ///
    /// Returns [`pif_types::ConfigError`] on invalid geometry, leaving
    /// the model unchanged.
    pub fn reset(&mut self, config: L2Config) -> Result<(), pif_types::ConfigError> {
        if Self::sets(&config)? == self.cache.sets() && config.ways == self.cache.ways() {
            self.cache.clear();
            self.config = config;
            self.hits = 0;
            self.misses = 0;
        } else {
            *self = L2Model::new(config)?;
        }
        Ok(())
    }

    /// The set count of `config`'s geometry.
    fn sets(config: &L2Config) -> Result<usize, pif_types::ConfigError> {
        let blocks = config.capacity_bytes / pif_types::BLOCK_SIZE;
        if blocks == 0 || !blocks.is_multiple_of(config.ways) {
            return Err(pif_types::ConfigError::new("invalid L2 geometry"));
        }
        Ok(blocks / config.ways)
    }

    /// Services an L1 miss (demand or prefetch) for `block`, returning the
    /// fill latency in cycles and installing the block in the L2.
    ///
    /// With [`L2Config::assume_warm`] the first touch of an unseen block
    /// is served at hit latency (checkpoint-warmed semantics for sampled
    /// simulation); it still installs, so capacity behaviour is
    /// unchanged thereafter.
    #[inline]
    pub fn access(&mut self, block: BlockAddr) -> u64 {
        if self.cache.access(block).is_some() {
            self.hits += 1;
            self.config.hit_latency_cycles
        } else if self.config.assume_warm {
            self.hits += 1;
            self.cache.insert(block, ());
            self.config.hit_latency_cycles
        } else {
            self.misses += 1;
            self.cache.insert(block, ());
            self.config.memory_latency_cycles
        }
    }

    /// L2 hit count so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// L2 miss count so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The configuration.
    pub fn config(&self) -> &L2Config {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit_latencies() {
        let cfg = L2Config::paper_default();
        let mut l2 = L2Model::new(cfg).unwrap();
        let b = BlockAddr::from_number(9);
        assert_eq!(l2.access(b), cfg.memory_latency_cycles);
        assert_eq!(l2.access(b), cfg.hit_latency_cycles);
        assert_eq!(l2.hits(), 1);
        assert_eq!(l2.misses(), 1);
    }

    #[test]
    fn capacity_pressure_causes_memory_accesses() {
        let cfg = L2Config {
            capacity_bytes: 4 * 64,
            ways: 2,
            hit_latency_cycles: 15,
            memory_latency_cycles: 90,
            assume_warm: false,
        };
        let mut l2 = L2Model::new(cfg).unwrap();
        // Touch 8 distinct blocks twice: second round still misses some
        // because only 4 fit.
        for round in 0..2 {
            for n in 0..8 {
                l2.access(BlockAddr::from_number(n));
            }
            if round == 0 {
                assert_eq!(l2.misses(), 8);
            }
        }
        assert!(l2.misses() > 8, "second round must re-miss evicted blocks");
    }

    #[test]
    fn assume_warm_serves_first_touch_at_hit_latency() {
        let cfg = L2Config::paper_default().with_assume_warm(true);
        let mut l2 = L2Model::new(cfg).unwrap();
        let b = BlockAddr::from_number(9);
        assert_eq!(l2.access(b), cfg.hit_latency_cycles, "warm first touch");
        assert_eq!(l2.access(b), cfg.hit_latency_cycles);
        assert_eq!(l2.misses(), 0, "checkpoint-warmed L2 never misses");
    }

    #[test]
    fn reset_behaves_as_a_new_model() {
        let cfg = L2Config {
            capacity_bytes: 4 * 64,
            ways: 2,
            hit_latency_cycles: 15,
            memory_latency_cycles: 90,
            assume_warm: false,
        };
        let trace: Vec<BlockAddr> = [0u64, 2, 4, 0, 6, 2, 1, 3, 5, 1, 8, 0]
            .iter()
            .map(|&n| BlockAddr::from_number(n))
            .collect();
        let latencies =
            |l2: &mut L2Model| -> Vec<u64> { trace.iter().map(|&b| l2.access(b)).collect() };
        let mut fresh = L2Model::new(cfg).unwrap();
        let expected = latencies(&mut fresh);
        // Reused at the same geometry, then at another one and back, and
        // with other latencies: always a new model's behaviour.
        let mut reused = L2Model::new(L2Config::paper_default()).unwrap();
        for config in [cfg, L2Config::paper_default(), cfg] {
            latencies(&mut reused);
            reused.reset(config).unwrap();
            assert_eq!((reused.hits(), reused.misses()), (0, 0));
            assert_eq!(reused.config(), &config);
            let mut fresh = L2Model::new(config).unwrap();
            assert_eq!(latencies(&mut reused), latencies(&mut fresh));
        }
        latencies(&mut reused);
        reused.reset(cfg).unwrap();
        assert_eq!(latencies(&mut reused), expected);
        let warm = cfg.with_assume_warm(true);
        reused.reset(warm).unwrap();
        assert_eq!(reused.access(trace[0]), warm.hit_latency_cycles);
        assert!(reused.reset(L2Config { ways: 3, ..cfg }).is_err());
        assert_eq!(reused.config(), &warm, "a rejected reset changes nothing");
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(L2Model::new(L2Config {
            capacity_bytes: 0,
            ways: 16,
            hit_latency_cycles: 15,
            memory_latency_cycles: 90,
            assume_warm: false,
        })
        .is_err());
    }
}
