//! Temporal Instruction Fetch Streaming (TIFS), reimplemented from
//! Ferdman et al., MICRO 2008 — the state-of-the-art temporal instruction
//! prefetcher the paper compares against.
//!
//! TIFS records the L1-I **miss address stream** in a circular history
//! buffer with an index from miss address to its most recent position.
//! When a miss recurs, TIFS replays the recorded miss sequence from that
//! point, prefetching the blocks it predicts will miss next.
//!
//! Because the recorded stream is the *miss* stream, it inherits the
//! cache's filtering/fragmentation (paper §2.1) and — in a real front end
//! — wrong-path pollution (§2.2). Those are exactly the effects PIF
//! removes by recording retire-order streams; Fig. 10 quantifies the gap.

use std::collections::{HashMap, VecDeque};

use pif_sim::cache::AccessOutcome;
use pif_sim::{PrefetchContext, Prefetcher};
use pif_types::{BlockAddr, FetchAccess};

/// TIFS configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TifsConfig {
    /// Miss-history capacity in block addresses; `None` = unbounded (the
    /// paper's "without history storage limitations" comparison, §5.5).
    pub history_capacity: Option<usize>,
    /// Concurrent active streams (MICRO'08 uses a small SVB/stream set).
    pub stream_count: usize,
    /// Lookahead window per stream, in recorded miss addresses.
    pub window: usize,
}

impl Default for TifsConfig {
    fn default() -> Self {
        TifsConfig {
            history_capacity: Some(32 * 1024),
            stream_count: 4,
            window: 12,
        }
    }
}

#[derive(Debug)]
struct TifsStream {
    next_pos: u64,
    lookahead: VecDeque<BlockAddr>,
    last_use: u64,
}

/// The TIFS prefetcher.
///
/// # Example
///
/// ```
/// use pif_baselines::{Tifs, TifsConfig};
/// use pif_sim::Prefetcher;
///
/// let tifs = Tifs::new(TifsConfig::default());
/// assert_eq!(tifs.name(), "TIFS");
/// let unbounded = Tifs::unbounded();
/// assert_eq!(unbounded.config().history_capacity, None);
/// ```
#[derive(Debug)]
pub struct Tifs {
    config: TifsConfig,
    /// Recorded miss stream; `history[i]` is position `base + i`.
    history: VecDeque<BlockAddr>,
    base: u64,
    /// Miss block -> most recent history position.
    index: HashMap<u64, u64>,
    streams: Vec<TifsStream>,
    clock: u64,
    last_recorded: Option<BlockAddr>,
}

impl Tifs {
    /// Creates a TIFS prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `stream_count` or `window` is zero.
    pub fn new(config: TifsConfig) -> Self {
        assert!(
            config.stream_count > 0 && config.window > 0,
            "TIFS streams and window must be non-zero"
        );
        Tifs {
            config,
            history: VecDeque::new(),
            base: 0,
            index: HashMap::new(),
            streams: Vec::new(),
            clock: 0,
            last_recorded: None,
        }
    }

    /// TIFS with unbounded history (§5.5's idealized comparison).
    pub fn unbounded() -> Self {
        Self::new(TifsConfig {
            history_capacity: None,
            ..TifsConfig::default()
        })
    }

    /// The configuration.
    pub fn config(&self) -> &TifsConfig {
        &self.config
    }

    /// Number of recorded miss addresses currently held.
    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    fn end(&self) -> u64 {
        self.base + self.history.len() as u64
    }

    fn record_miss(&mut self, block: BlockAddr) {
        // Collapse immediate repeats (same block missing twice in a row
        // carries no stream information).
        if self.last_recorded == Some(block) {
            return;
        }
        self.last_recorded = Some(block);
        let pos = self.end();
        self.history.push_back(block);
        self.index.insert(block.number(), pos);
        if let Some(cap) = self.config.history_capacity {
            while self.history.len() > cap {
                self.history.pop_front();
                self.base += 1;
            }
        }
    }

    fn refill(
        history_end: u64,
        get: impl Fn(u64) -> Option<BlockAddr>,
        s: &mut TifsStream,
        window: usize,
    ) {
        while s.lookahead.len() < window && s.next_pos < history_end {
            if let Some(b) = get(s.next_pos) {
                s.lookahead.push_back(b);
            }
            s.next_pos += 1;
        }
    }

    /// Advances a stream containing `block`; returns newly exposed blocks.
    fn advance(&mut self, block: BlockAddr) -> Option<Vec<BlockAddr>> {
        self.clock += 1;
        let end = self.end();
        for si in 0..self.streams.len() {
            if let Some(i) = self.streams[si].lookahead.iter().position(|&b| b == block) {
                let window = self.config.window;
                // Split borrows: copy out what refill needs.
                let mut drained: Vec<BlockAddr> = Vec::new();
                {
                    let base = self.base;
                    let history = &self.history;
                    let get = |pos: u64| {
                        if pos < base {
                            None
                        } else {
                            history.get((pos - base) as usize).copied()
                        }
                    };
                    let s = &mut self.streams[si];
                    s.lookahead.drain(..=i);
                    s.last_use = self.clock;
                    while s.lookahead.len() < window && s.next_pos < end {
                        if let Some(b) = get(s.next_pos) {
                            s.lookahead.push_back(b);
                            drained.push(b);
                        }
                        s.next_pos += 1;
                    }
                }
                return Some(drained);
            }
        }
        None
    }

    /// Opens a stream at the most recent recording of `block`; returns the
    /// initial lookahead (prefetch candidates).
    fn open_stream(&mut self, block: BlockAddr) -> Option<Vec<BlockAddr>> {
        self.clock += 1;
        let &pos = self.index.get(&block.number())?;
        if pos < self.base {
            return None; // overwritten
        }
        let mut s = TifsStream {
            next_pos: pos + 1,
            lookahead: VecDeque::with_capacity(self.config.window),
            last_use: self.clock,
        };
        let end = self.end();
        let base = self.base;
        let history = &self.history;
        Self::refill(
            end,
            |p| {
                if p < base {
                    None
                } else {
                    history.get((p - base) as usize).copied()
                }
            },
            &mut s,
            self.config.window,
        );
        let blocks: Vec<BlockAddr> = s.lookahead.iter().copied().collect();
        if self.streams.len() < self.config.stream_count {
            self.streams.push(s);
        } else if let Some(lru) = self.streams.iter_mut().min_by_key(|s| s.last_use) {
            *lru = s;
        }
        Some(blocks)
    }
}

impl Prefetcher for Tifs {
    fn name(&self) -> &'static str {
        "TIFS"
    }

    fn uses_retire_provenance(&self) -> bool {
        false // retire hook is a no-op
    }

    fn on_access_outcome(
        &mut self,
        _access: &FetchAccess,
        block: BlockAddr,
        outcome: AccessOutcome,
        ctx: &mut PrefetchContext<'_>,
    ) {
        // TIFS observes the miss stream: demand misses and first uses of
        // prefetched blocks (which would have missed without TIFS — the
        // virtual miss stream, keeping the recorded history stable under
        // its own prefetching).
        let is_miss_event = matches!(
            outcome,
            AccessOutcome::Miss | AccessOutcome::HitFirstUseOfPrefetch
        );
        if !is_miss_event {
            return;
        }
        // Replay: advance an active stream or open a new one.
        let new_blocks = match self.advance(block) {
            Some(bs) => bs,
            None => self.open_stream(block).unwrap_or_default(),
        };
        for b in new_blocks {
            ctx.prefetch(b);
        }
        // Record the (virtual) miss into the history.
        self.record_miss(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_sim::RunOptions;
    use pif_sim::{Engine, EngineConfig, ICacheConfig, NoPrefetcher, PrefetcherHarness};
    use pif_types::{Address, RetiredInstr, TrapLevel};

    fn miss(tifs: &mut Tifs, h: &mut PrefetcherHarness, n: u64) -> Vec<BlockAddr> {
        let access = FetchAccess::correct(Address::new(n * 64), TrapLevel::Tl0);
        h.drive(|ctx| {
            tifs.on_access_outcome(&access, BlockAddr::from_number(n), AccessOutcome::Miss, ctx)
        })
        .to_vec()
    }

    #[test]
    fn records_and_replays_miss_stream() {
        let mut tifs = Tifs::unbounded();
        let mut h = PrefetcherHarness::new(ICacheConfig::paper_default());
        // Record a miss stream 10, 20, 30, 40.
        for n in [10, 20, 30, 40] {
            assert!(
                miss(&mut tifs, &mut h, n).is_empty(),
                "cold: no predictions"
            );
        }
        assert_eq!(tifs.history_len(), 4);
        // The head recurs: TIFS replays 20, 30, 40.
        let reqs = miss(&mut tifs, &mut h, 10);
        assert!(reqs.contains(&BlockAddr::from_number(20)));
        assert!(reqs.contains(&BlockAddr::from_number(30)));
        assert!(reqs.contains(&BlockAddr::from_number(40)));
    }

    #[test]
    fn bounded_history_forgets() {
        let mut tifs = Tifs::new(TifsConfig {
            history_capacity: Some(2),
            ..TifsConfig::default()
        });
        let mut h = PrefetcherHarness::new(ICacheConfig::paper_default());
        for n in [10, 20, 30] {
            miss(&mut tifs, &mut h, n);
        }
        assert_eq!(tifs.history_len(), 2);
        // 10 was evicted: no stream opens.
        let reqs = miss(&mut tifs, &mut h, 10);
        assert!(reqs.is_empty());
    }

    #[test]
    fn consecutive_duplicate_misses_not_recorded() {
        let mut tifs = Tifs::unbounded();
        let mut h = PrefetcherHarness::new(ICacheConfig::paper_default());
        miss(&mut tifs, &mut h, 10);
        miss(&mut tifs, &mut h, 10);
        assert_eq!(tifs.history_len(), 1);
    }

    #[test]
    fn engine_run_covers_repetitive_misses() {
        // Thrashing loop: every block misses every iteration; the miss
        // stream equals the access stream, so TIFS covers iterations 2+.
        let mut trace = Vec::new();
        for _ in 0..4 {
            for blk in 0..2048u64 {
                for i in 0..8 {
                    trace.push(RetiredInstr::simple(
                        Address::new(blk * 64 + i * 8),
                        TrapLevel::Tl0,
                    ));
                }
            }
        }
        let engine = Engine::new(EngineConfig::paper_default());
        let base = engine.run(trace.iter().copied(), NoPrefetcher, RunOptions::new());
        let tifs = engine.run(trace.iter().copied(), Tifs::unbounded(), RunOptions::new());
        assert!(
            tifs.miss_coverage() > 0.6,
            "TIFS coverage {}",
            tifs.miss_coverage()
        );
        assert!(tifs.speedup_over(&base) > 1.05);
    }

    #[test]
    fn stream_pool_is_bounded() {
        let mut tifs = Tifs::new(TifsConfig {
            stream_count: 2,
            ..TifsConfig::default()
        });
        let mut h = PrefetcherHarness::new(ICacheConfig::paper_default());
        // Record three disjoint streams.
        for start in [100, 200, 300] {
            for k in 0..4 {
                miss(&mut tifs, &mut h, start + k * 7);
            }
        }
        // Open three streams: pool holds only two.
        miss(&mut tifs, &mut h, 100);
        miss(&mut tifs, &mut h, 200);
        miss(&mut tifs, &mut h, 300);
        assert!(tifs.streams.len() <= 2);
    }
}
