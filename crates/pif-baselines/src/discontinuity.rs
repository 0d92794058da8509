//! Discontinuity prefetcher (Spracklen et al., HPCA 2005).
//!
//! Records *fetch discontinuities* — transitions between non-sequential
//! instruction blocks — in a table keyed by the source block. When the
//! source block is fetched again, the recorded target (plus a short
//! sequential run) is prefetched. As the paper notes (§6), it handles
//! only one transition at a time, limiting lookahead; PIF's full stream
//! history removes that limit.

use pif_sim::cache::{AccessOutcome, SetAssocCache};
use pif_sim::{PrefetchContext, Prefetcher};
use pif_types::{BlockAddr, FetchAccess};

/// The discontinuity prefetcher, with a next-line component as in the
/// original proposal.
///
/// # Example
///
/// ```
/// use pif_baselines::DiscontinuityPrefetcher;
/// use pif_sim::Prefetcher;
///
/// let d = DiscontinuityPrefetcher::new(2048, 4, 2);
/// assert_eq!(d.name(), "Discontinuity");
/// ```
#[derive(Debug)]
pub struct DiscontinuityPrefetcher {
    /// Discontinuity table: source block -> discontinuous target block.
    table: SetAssocCache<BlockAddr>,
    /// Sequential blocks prefetched after each predicted target.
    depth: usize,
    last_block: Option<BlockAddr>,
}

impl DiscontinuityPrefetcher {
    /// Creates a discontinuity prefetcher with a `entries`-entry,
    /// `ways`-associative transition table, prefetching `depth` sequential
    /// blocks past each predicted target.
    ///
    /// # Panics
    ///
    /// Panics if the table geometry is invalid (sets not a power of two,
    /// or more than 16 ways — the packed-LRU limit) or `depth` is zero.
    pub fn new(entries: usize, ways: usize, depth: usize) -> Self {
        assert!(depth > 0, "depth must be non-zero");
        DiscontinuityPrefetcher {
            table: SetAssocCache::new(entries / ways, ways).expect("valid table geometry"),
            depth,
            last_block: None,
        }
    }

    /// The configuration used in our Fig. 10 comparisons.
    pub fn paper_scale() -> Self {
        Self::new(8 * 1024, 4, 2)
    }
}

impl Prefetcher for DiscontinuityPrefetcher {
    fn name(&self) -> &'static str {
        "Discontinuity"
    }

    fn uses_retire_provenance(&self) -> bool {
        false // retire hook is a no-op
    }

    fn on_access_outcome(
        &mut self,
        access: &FetchAccess,
        block: BlockAddr,
        _outcome: AccessOutcome,
        ctx: &mut PrefetchContext<'_>,
    ) {
        // Learn: a non-sequential transition records source -> target.
        if access.is_correct_path() {
            if let Some(prev) = self.last_block {
                if block != prev && block != prev.next() {
                    self.table.insert(prev, block);
                }
            }
            self.last_block = Some(block);
        }

        // Predict: next-line run plus any recorded discontinuity target.
        for i in 1..=self.depth as i64 {
            ctx.prefetch(block.offset(i));
        }
        if let Some(&target) = self.table.probe(block) {
            ctx.prefetch(target);
            for i in 1..=self.depth as i64 {
                ctx.prefetch(target.offset(i));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_sim::{ICacheConfig, PrefetcherHarness};
    use pif_types::{Address, TrapLevel};

    fn access_at(n: u64) -> FetchAccess {
        FetchAccess::correct(Address::new(n * 64), TrapLevel::Tl0)
    }

    fn drive(d: &mut DiscontinuityPrefetcher, h: &mut PrefetcherHarness, n: u64) -> Vec<BlockAddr> {
        h.drive(|ctx| {
            d.on_access_outcome(
                &access_at(n),
                BlockAddr::from_number(n),
                AccessOutcome::Miss,
                ctx,
            )
        })
        .to_vec()
    }

    #[test]
    fn learns_discontinuity_and_prefetches_target() {
        let mut d = DiscontinuityPrefetcher::new(64, 2, 1);
        let mut h = PrefetcherHarness::new(ICacheConfig::paper_default());
        // Sequence 10 -> 50 teaches the transition.
        drive(&mut d, &mut h, 10);
        drive(&mut d, &mut h, 50);
        // Revisit 10: target 50 must be among the requests.
        let reqs = drive(&mut d, &mut h, 10);
        assert!(reqs.contains(&BlockAddr::from_number(50)), "{reqs:?}");
    }

    #[test]
    fn sequential_transitions_are_not_recorded() {
        let mut d = DiscontinuityPrefetcher::new(64, 2, 1);
        let mut h = PrefetcherHarness::new(ICacheConfig::paper_default());
        drive(&mut d, &mut h, 10);
        drive(&mut d, &mut h, 11); // sequential: no discontinuity
        let reqs = drive(&mut d, &mut h, 10);
        // Only the next-line request (11 already requested once; the
        // in-flight view was drained per drive, so it can repeat).
        assert!(reqs.iter().all(|b| *b == BlockAddr::from_number(11)));
    }

    #[test]
    fn one_transition_lookahead_only() {
        // Chain 10 -> 50 -> 90: fetching 10 predicts 50 but NOT 90 — the
        // lookahead limitation PIF removes.
        let mut d = DiscontinuityPrefetcher::new(64, 2, 1);
        let mut h = PrefetcherHarness::new(ICacheConfig::paper_default());
        drive(&mut d, &mut h, 10);
        drive(&mut d, &mut h, 50);
        drive(&mut d, &mut h, 90);
        let reqs = drive(&mut d, &mut h, 10);
        assert!(reqs.contains(&BlockAddr::from_number(50)));
        assert!(!reqs.contains(&BlockAddr::from_number(90)));
    }

    #[test]
    fn wrong_path_accesses_do_not_teach() {
        let mut d = DiscontinuityPrefetcher::new(64, 2, 1);
        let mut h = PrefetcherHarness::new(ICacheConfig::paper_default());
        drive(&mut d, &mut h, 10);
        // A wrong-path fetch to 70 must not record 10 -> 70.
        let wrong = FetchAccess::wrong(Address::new(70 * 64), TrapLevel::Tl0);
        h.drive(|ctx| {
            d.on_access_outcome(&wrong, BlockAddr::from_number(70), AccessOutcome::Miss, ctx)
        });
        drive(&mut d, &mut h, 50); // correct-path: records 10 -> 50
        let reqs = drive(&mut d, &mut h, 10);
        assert!(!reqs.contains(&BlockAddr::from_number(70)));
        assert!(reqs.contains(&BlockAddr::from_number(50)));
    }
}
