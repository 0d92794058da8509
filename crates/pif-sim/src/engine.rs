//! The simulation engine: drives a retire-order trace through the front
//! end, L1-I cache, and an attached prefetcher, charging the timing model.

use pif_types::{BlockAddr, FetchAccess, InstrSource, RetiredInstr};

use crate::cache::{AccessOutcome, InstructionCache, L2Model, LineProvenance};
use crate::config::EngineConfig;
use crate::frontend::{FrontEnd, FrontendEvent};
use crate::prefetch::{PrefetchContext, PrefetchQueue, Prefetcher};
use crate::probe::{NoProbe, Probe, StallKind, GAUGE_SAMPLE_PERIOD};
use crate::stats::{FetchStats, FrontendStats, PrefetchStats};
use crate::timing::{TimingModel, TimingReport};

/// Everything measured during one engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Name of the prefetcher that produced this report.
    pub prefetcher: &'static str,
    /// Fetch/miss counters.
    pub fetch: FetchStats,
    /// Prefetch counters.
    pub prefetch: PrefetchStats,
    /// Front-end/branch counters.
    pub frontend: FrontendStats,
    /// Cycle breakdown and UIPC.
    pub timing: TimingReport,
    /// L2 hits observed (instruction blocks).
    pub l2_hits: u64,
    /// L2 misses (served from memory).
    pub l2_misses: u64,
}

impl RunReport {
    /// L1-I miss coverage relative to the no-prefetch baseline
    /// (Fig. 10 left).
    pub fn miss_coverage(&self) -> f64 {
        self.fetch.miss_coverage()
    }

    /// UIPC speedup over a baseline run of the same trace (Fig. 10 right).
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        self.timing.speedup_over(&baseline.timing)
    }
}

/// Options for one [`Engine::run`]: the warmup prefix and, optionally, a
/// caller-owned front end whose predictor state persists across runs and
/// a caller-owned L2 to reuse.
///
/// The struct is `#[non_exhaustive]`; build it with [`RunOptions::new`]
/// and the `warmup`/`frontend`/`l2` builders so future options (per-run
/// instrumentation, fetch throttling, …) can land without breaking
/// callers.
///
/// ```
/// use pif_sim::RunOptions;
///
/// let opts = RunOptions::new().warmup(10_000);
/// assert_eq!(opts.warmup_instrs, 10_000);
/// ```
#[derive(Debug, Default)]
#[non_exhaustive]
pub struct RunOptions<'a> {
    /// Retirements treated as warmup: simulated state (caches, predictor
    /// tables, prefetcher history) is exercised, but reported statistics
    /// cover only the post-warmup region — the paper's steady-state
    /// measurement methodology (§5: checkpoints with warmed caches and
    /// prefetcher tables).
    pub warmup_instrs: usize,
    /// An existing [`FrontEnd`] to drive instead of a fresh one:
    /// branch-predictor tables, BTB, and RAS state carry in (and
    /// accumulate for the caller), while the reported front-end
    /// statistics cover only this run. Sampled simulation
    /// (`crate::sampling`) uses this to keep predictor tables
    /// continuously warm across measurement windows.
    pub frontend: Option<&'a mut FrontEnd>,
    /// An existing [`L2Model`] to simulate the L2 in instead of a fresh
    /// one. Unlike the front end, nothing carries in: the run first resets
    /// it to the engine's L2 configuration, so the report is the one a
    /// fresh L2 gives. A caller running many simulations on one thread
    /// keeps one L2's memory instead of building (and page-faulting) a
    /// 131,072-line model per run.
    pub l2: Option<&'a mut L2Model>,
}

impl RunOptions<'static> {
    /// Default options: no warmup, a fresh front end and a fresh L2.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<'a> RunOptions<'a> {
    /// Sets the warmup prefix, in retired instructions.
    #[must_use]
    pub fn warmup(mut self, warmup_instrs: usize) -> Self {
        self.warmup_instrs = warmup_instrs;
        self
    }

    /// Drives `frontend` instead of a fresh front end.
    #[must_use]
    pub fn frontend(self, frontend: &'a mut FrontEnd) -> Self {
        RunOptions {
            frontend: Some(frontend),
            ..self
        }
    }

    /// Simulates the L2 in `l2`, reset in place, instead of a fresh one.
    #[must_use]
    pub fn l2(self, l2: &'a mut L2Model) -> Self {
        RunOptions {
            l2: Some(l2),
            ..self
        }
    }
}

/// The trace-driven simulation engine.
///
/// # Example
///
/// ```
/// use pif_sim::{Engine, EngineConfig, NoPrefetcher, RunOptions};
/// use pif_types::{Address, RetiredInstr, TrapLevel};
///
/// let trace: Vec<_> = (0..1000u64)
///     .map(|i| RetiredInstr::simple(Address::new((i % 256) * 4), TrapLevel::Tl0))
///     .collect();
/// let report = Engine::new(EngineConfig::paper_default()).run(
///     trace.iter().copied(),
///     NoPrefetcher,
///     RunOptions::new(),
/// );
/// assert_eq!(report.frontend.instructions, 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`EngineConfig::validate`]); construct and validate the config first
    /// when handling untrusted input.
    pub fn new(config: EngineConfig) -> Self {
        config.validate().expect("invalid engine configuration");
        Engine { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Runs a streaming [`InstrSource`] with `prefetcher` attached.
    ///
    /// This is the engine's single entry point. Because instructions are
    /// *pulled* one at a time, the trace
    /// never has to exist in memory: pass a `pif_trace::TraceReader`'s
    /// instruction iterator to simulate a multi-hundred-million-
    /// instruction file out of core, a `pif_workloads` stream to simulate
    /// while generating, or `slice.iter().copied()` for an in-memory
    /// trace. Pass `&mut source` to retain ownership (e.g. to check a
    /// trace decoder for deferred errors after the run).
    ///
    /// [`RunOptions`] carries the warmup prefix and, for sampled
    /// simulation, a caller-owned [`FrontEnd`] whose predictor state
    /// persists across runs; a caller-owned [`L2Model`] is reset and
    /// reused.
    ///
    /// # Example
    ///
    /// ```
    /// use pif_sim::{Engine, EngineConfig, NoPrefetcher, RunOptions};
    /// use pif_types::{Address, RetiredInstr, TrapLevel};
    ///
    /// // A lazily generated source: no Vec<RetiredInstr> anywhere.
    /// let source = (0..1000u64)
    ///     .map(|i| RetiredInstr::simple(Address::new((i % 256) * 4), TrapLevel::Tl0));
    /// let report = Engine::new(EngineConfig::paper_default()).run(
    ///     source,
    ///     NoPrefetcher,
    ///     RunOptions::new().warmup(200),
    /// );
    /// assert_eq!(report.frontend.instructions, 1000);
    /// // Timed stats only cover the post-warmup suffix.
    /// assert!(report.timing.instructions < 1000);
    /// ```
    pub fn run<P: Prefetcher, S: InstrSource>(
        &self,
        source: S,
        prefetcher: P,
        options: RunOptions<'_>,
    ) -> RunReport {
        self.run_probed(source, prefetcher, options, &mut NoProbe)
    }

    /// [`Engine::run`] with an instrumentation [`Probe`] attached.
    ///
    /// The probe passively observes the run — fetch-stall breakdowns,
    /// prefetch-queue occupancy, sampled prefetcher gauges — without
    /// affecting it: for any trace, prefetcher, and options, the
    /// returned [`RunReport`] is identical to an unprobed
    /// [`Engine::run`] (see `tests/probe_equivalence.rs`). `run` itself
    /// forwards here with [`NoProbe`], whose `ENABLED = false` constant
    /// folds every instrumentation site out of the compiled loop.
    ///
    /// # Example
    ///
    /// ```
    /// use pif_sim::{Engine, EngineConfig, EngineProbe, NoPrefetcher, RunOptions};
    /// use pif_types::{Address, RetiredInstr, TrapLevel};
    ///
    /// let trace: Vec<_> = (0..4096u64)
    ///     .map(|i| RetiredInstr::simple(Address::new((i % 4096) * 4), TrapLevel::Tl0))
    ///     .collect();
    /// let mut probe = EngineProbe::new();
    /// let report = Engine::new(EngineConfig::paper_default()).run_probed(
    ///     trace.iter().copied(),
    ///     NoPrefetcher,
    ///     RunOptions::new(),
    ///     &mut probe,
    /// );
    /// assert_eq!(report.frontend.instructions, 4096);
    /// // The probe's registry now holds stall/queue-depth histograms.
    /// assert!(!probe.registry().snapshot().is_empty());
    /// ```
    pub fn run_probed<P: Prefetcher, S: InstrSource, Pr: Probe>(
        &self,
        source: S,
        prefetcher: P,
        options: RunOptions<'_>,
        probe: &mut Pr,
    ) -> RunReport {
        let RunOptions {
            warmup_instrs,
            frontend,
            l2,
        } = options;
        let mut fresh_frontend;
        let frontend = match frontend {
            Some(frontend) => frontend,
            None => {
                fresh_frontend = FrontEnd::new(self.config.frontend);
                &mut fresh_frontend
            }
        };
        let mut fresh_l2;
        let l2 = match l2 {
            Some(l2) => {
                l2.reset(self.config.l2).expect("validated geometry");
                l2
            }
            None => {
                fresh_l2 = L2Model::new(self.config.l2).expect("validated geometry");
                &mut fresh_l2
            }
        };
        self.run_core(source, prefetcher, warmup_instrs, frontend, l2, probe)
    }

    fn run_core<P: Prefetcher, S: InstrSource, Pr: Probe>(
        &self,
        mut source: S,
        prefetcher: P,
        warmup_instrs: usize,
        frontend: &mut FrontEnd,
        l2: &mut L2Model,
        probe: &mut Pr,
    ) -> RunReport {
        frontend.reset_stats();
        let mut state = EngineState::new(&self.config, prefetcher, l2, probe);
        let mut warm = warmup_instrs == 0;
        let mut retired: usize = 0;
        // Events are dispatched straight from the front end into
        // `state.process` — no intermediate buffer, no per-instruction
        // allocation.
        while let Some(instr) = source.next_instr() {
            if !warm && retired >= warmup_instrs {
                state.mark_warm();
                warm = true;
            }
            retired += 1;
            frontend.step(instr, |e| state.process(e));
        }
        frontend.flush(|e| state.process(e));
        state.finish(*frontend.stats())
    }
}

/// Mutable per-run state, separated from `Engine` so `run` stays reentrant.
struct EngineState<'p, P, Pr> {
    prefetcher: P,
    /// Instrumentation observer; every use is guarded by `Pr::ENABLED`
    /// so [`NoProbe`] monomorphizes the guards (and this field's
    /// updates) out of the loop.
    probe: &'p mut Pr,
    /// Retirements since run start, maintained only when the probe is
    /// enabled (drives periodic prefetcher-gauge sampling).
    gauge_tick: u64,
    icache: InstructionCache,
    l2: &'p mut L2Model,
    queue: PrefetchQueue,
    timing: TimingModel,
    fetch: FetchStats,
    prefetch: PrefetchStats,
    perfect: bool,
    /// Reusable request buffer handed to every prefetcher hook; grows to a
    /// steady-state capacity during warmup, after which the per-event path
    /// performs no heap allocation.
    scratch_requests: Vec<BlockAddr>,
}

impl<'p, P: Prefetcher, Pr: Probe> EngineState<'p, P, Pr> {
    fn new(config: &EngineConfig, prefetcher: P, l2: &'p mut L2Model, probe: &'p mut Pr) -> Self {
        let perfect = prefetcher.is_perfect();
        EngineState {
            prefetcher,
            probe,
            gauge_tick: 0,
            icache: InstructionCache::new(config.icache).expect("validated geometry"),
            l2,
            queue: PrefetchQueue::default(),
            timing: TimingModel::new(config.timing),
            fetch: FetchStats::default(),
            prefetch: PrefetchStats::default(),
            perfect,
            scratch_requests: Vec::with_capacity(64),
        }
    }

    #[inline]
    fn process(&mut self, event: FrontendEvent) {
        match event {
            FrontendEvent::Fetch(access) => self.process_fetch(access),
            FrontendEvent::Retire(instr, mispredicted) => self.process_retire(instr, mispredicted),
        }
    }

    /// Resets measured statistics at the warmup boundary; all simulated
    /// state (caches, history, queues) carries over.
    fn mark_warm(&mut self) {
        self.fetch = FetchStats::default();
        self.prefetch = PrefetchStats::default();
        self.timing.mark();
    }

    fn run_hook(&mut self, f: impl FnOnce(&mut P, &mut PrefetchContext<'_>)) {
        let mut ctx = PrefetchContext::new(
            &self.icache,
            &self.queue.view,
            &mut self.prefetch,
            &mut self.scratch_requests,
        );
        f(&mut self.prefetcher, &mut ctx);
        if self.scratch_requests.is_empty() {
            return;
        }
        let now = self.timing.now();
        for i in 0..self.scratch_requests.len() {
            let block = self.scratch_requests[i];
            let latency = self.l2.access(block);
            self.queue.push(block, now + latency);
        }
    }

    fn install_ready_prefetches(&mut self) {
        let now = self.timing.now();
        let icache = &mut self.icache;
        self.queue.drain_ready(now, |block| {
            icache.fill_prefetch(block);
        });
    }

    fn process_fetch(&mut self, access: FetchAccess) {
        self.install_ready_prefetches();
        if Pr::ENABLED {
            self.probe.queue_depth(self.queue.len());
        }
        let block = access.pc.block();

        self.run_hook(|p, ctx| p.on_fetch(&access, block, ctx));

        let outcome = if self.perfect {
            // Perfect-latency cache: every fetch returns at hit latency.
            AccessOutcome::Hit
        } else {
            self.icache.demand_access(block)
        };

        if access.is_correct_path() {
            self.fetch.demand_accesses += 1;
            match outcome {
                AccessOutcome::Hit => {}
                AccessOutcome::HitFirstUseOfPrefetch => {
                    self.fetch.covered_by_prefetch += 1;
                    self.prefetch.useful += 1;
                }
                AccessOutcome::Miss => {
                    let now = self.timing.now();
                    if let Some(ready_at) = self.queue.ready_time(block) {
                        // Late prefetch: the demand overtakes it; only the
                        // remaining latency is exposed.
                        self.queue.cancel(block);
                        self.fetch.partial_covered += 1;
                        self.prefetch.useful += 1;
                        let stall = ready_at.saturating_sub(now);
                        if Pr::ENABLED {
                            self.probe.fetch_stall(StallKind::LatePrefetch, stall);
                        }
                        self.timing.fetch_stall(stall);
                    } else {
                        self.fetch.demand_misses += 1;
                        let latency = self.l2.access(block);
                        if Pr::ENABLED {
                            self.probe.fetch_stall(StallKind::DemandMiss, latency);
                        }
                        self.timing.fetch_stall(latency);
                    }
                }
            }
        } else {
            self.fetch.wrong_path_accesses += 1;
            if outcome == AccessOutcome::Miss {
                // Wrong-path misses fill the cache (pollution and/or
                // accidental prefetch, §2.2 footnote 1) but stall nothing.
                self.fetch.wrong_path_misses += 1;
                self.l2.access(block);
            }
        }

        self.run_hook(|p, ctx| p.on_access_outcome(&access, block, outcome, ctx));
    }

    fn process_retire(&mut self, instr: RetiredInstr, mispredicted: bool) {
        self.timing.retire_instruction(mispredicted);
        if Pr::ENABLED {
            self.gauge_tick += 1;
            if self.gauge_tick.is_multiple_of(GAUGE_SAMPLE_PERIOD) {
                // Split borrows: the gauge closure writes to the probe
                // while reading the prefetcher.
                let EngineState {
                    prefetcher, probe, ..
                } = self;
                prefetcher.gauges(&mut |name, value| probe.prefetcher_gauge(name, value));
            }
        }
        // The provenance probe is a full cache lookup per retirement;
        // prefetchers that ignore the tag opt out of paying for it.
        let prefetched = self.prefetcher.uses_retire_provenance()
            && matches!(
                self.icache.provenance(instr.pc.block()),
                Some(LineProvenance::Prefetched | LineProvenance::PrefetchedUsed)
            );
        self.run_hook(|p, ctx| p.on_retire(&instr, prefetched, ctx));
    }

    fn finish(mut self, frontend: FrontendStats) -> RunReport {
        // Account prefetched-but-never-used blocks still resident or
        // evicted: useful + unused = issued - in-flight.
        let landed = self.prefetch.issued.saturating_sub(self.queue.len() as u64);
        self.prefetch.unused_evicted = landed.saturating_sub(self.prefetch.useful);
        RunReport {
            prefetcher: self.prefetcher.name(),
            fetch: self.fetch,
            prefetch: self.prefetch,
            frontend,
            timing: self.timing.report(),
            l2_hits: self.l2.hits(),
            l2_misses: self.l2.misses(),
        }
    }
}

impl std::fmt::Debug for EngineState<'_, (), NoProbe> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineState").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetch::NoPrefetcher;
    use pif_types::{Address, BlockAddr, TrapLevel};

    fn loop_trace(blocks: u64, iterations: u64) -> Vec<RetiredInstr> {
        let mut v = Vec::new();
        for _ in 0..iterations {
            for b in 0..blocks {
                // 16 instructions per 64 B block.
                for i in 0..16 {
                    v.push(RetiredInstr::simple(
                        Address::new(b * 64 + i * 4),
                        TrapLevel::Tl0,
                    ));
                }
            }
        }
        v
    }

    #[test]
    fn small_loop_fits_in_cache() {
        let trace = loop_trace(8, 50);
        let report = Engine::new(EngineConfig::paper_default()).run(
            trace.iter().copied(),
            NoPrefetcher,
            RunOptions::new(),
        );
        assert_eq!(report.fetch.demand_misses, 8, "only cold misses");
        assert_eq!(report.frontend.instructions, 8 * 50 * 16);
        assert!(report.fetch.hit_rate() > 0.9);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        // 64KB cache = 1024 blocks; loop over 2048 blocks with LRU = every
        // access misses once warm.
        let trace = loop_trace(2048, 3);
        let report = Engine::new(EngineConfig::paper_default()).run(
            trace.iter().copied(),
            NoPrefetcher,
            RunOptions::new(),
        );
        assert!(
            report.fetch.demand_misses > 2048 * 2,
            "LRU thrashing expected, got {} misses",
            report.fetch.demand_misses
        );
        assert!(report.timing.fetch_stall_cycles > 0);
    }

    #[test]
    fn perfect_prefetcher_never_stalls() {
        struct Perfect;
        impl Prefetcher for Perfect {
            fn name(&self) -> &'static str {
                "Perfect"
            }
            fn is_perfect(&self) -> bool {
                true
            }
        }
        let trace = loop_trace(2048, 2);
        let report = Engine::new(EngineConfig::paper_default()).run(
            trace.iter().copied(),
            Perfect,
            RunOptions::new(),
        );
        assert_eq!(report.fetch.demand_misses, 0);
        assert_eq!(report.timing.fetch_stall_cycles, 0);
    }

    #[test]
    fn prefetching_covers_misses_and_speeds_up() {
        // A toy prefetcher that prefetches the next 4 blocks on every miss.
        struct NextFour;
        impl Prefetcher for NextFour {
            fn name(&self) -> &'static str {
                "NextFour"
            }
            fn on_access_outcome(
                &mut self,
                _access: &FetchAccess,
                block: BlockAddr,
                outcome: AccessOutcome,
                ctx: &mut PrefetchContext<'_>,
            ) {
                if outcome == AccessOutcome::Miss {
                    for i in 1..=4 {
                        ctx.prefetch(block.offset(i));
                    }
                }
            }
        }
        let trace = loop_trace(2048, 3);
        let engine = Engine::new(EngineConfig::paper_default());
        let base = engine.run(trace.iter().copied(), NoPrefetcher, RunOptions::new());
        let pf = engine.run(trace.iter().copied(), NextFour, RunOptions::new());
        assert!(
            pf.fetch.miss_coverage() > 0.5,
            "coverage {}",
            pf.fetch.miss_coverage()
        );
        assert!(
            pf.speedup_over(&base) > 1.05,
            "speedup {}",
            pf.speedup_over(&base)
        );
        assert!(pf.prefetch.issued > 0);
        assert!(pf.prefetch.accuracy() > 0.5);
    }

    #[test]
    fn baseline_equivalent_misses_consistent_across_prefetchers() {
        struct NextOne;
        impl Prefetcher for NextOne {
            fn name(&self) -> &'static str {
                "NextOne"
            }
            fn on_access_outcome(
                &mut self,
                _a: &FetchAccess,
                block: BlockAddr,
                outcome: AccessOutcome,
                ctx: &mut PrefetchContext<'_>,
            ) {
                if outcome == AccessOutcome::Miss {
                    ctx.prefetch(block.next());
                }
            }
        }
        let trace = loop_trace(1500, 2);
        let engine = Engine::new(EngineConfig::paper_default());
        let base = engine.run(trace.iter().copied(), NoPrefetcher, RunOptions::new());
        let pf = engine.run(trace.iter().copied(), NextOne, RunOptions::new());
        // The prefetched run's baseline-equivalent miss count should be in
        // the same ballpark as the true baseline's misses (prefetching can
        // shift which accesses miss, but not the scale).
        let b = base.fetch.demand_misses as f64;
        let e = pf.fetch.baseline_equivalent_misses() as f64;
        assert!((e / b - 1.0).abs() < 0.35, "baseline {b} vs equivalent {e}");
    }

    #[test]
    fn warmup_excludes_cold_misses_from_stats() {
        // A loop that fits in cache: all misses are cold, so a warmed run
        // reports (almost) none of them.
        let trace = loop_trace(64, 20);
        let engine = Engine::new(EngineConfig::paper_default());
        let cold = engine.run(trace.iter().copied(), NoPrefetcher, RunOptions::new());
        let warm = engine.run(
            trace.iter().copied(),
            NoPrefetcher,
            RunOptions::new().warmup(trace.len() / 2),
        );
        assert_eq!(cold.fetch.demand_misses, 64);
        assert_eq!(warm.fetch.demand_misses, 0, "cold misses fall in warmup");
        assert!(warm.timing.instructions < cold.timing.instructions);
        assert_eq!(warm.timing.fetch_stall_cycles, 0);
    }

    #[test]
    fn warmup_preserves_simulated_state() {
        // Warmup must not reset the cache: the post-warmup region sees a
        // warm cache, so UIPC is higher than a cold full run.
        let trace = loop_trace(512, 4);
        let engine = Engine::new(EngineConfig::paper_default());
        let cold = engine.run(trace.iter().copied(), NoPrefetcher, RunOptions::new());
        let warm = engine.run(
            trace.iter().copied(),
            NoPrefetcher,
            RunOptions::new().warmup(trace.len() / 2),
        );
        assert!(warm.timing.uipc() >= cold.timing.uipc());
    }

    #[test]
    fn zero_warmup_equals_plain_run() {
        let trace = loop_trace(256, 3);
        let engine = Engine::new(EngineConfig::paper_default());
        let a = engine.run(trace.iter().copied(), NoPrefetcher, RunOptions::new());
        let b = engine.run(
            trace.iter().copied(),
            NoPrefetcher,
            RunOptions::new().warmup(0),
        );
        assert_eq!(a.fetch, b.fetch);
        assert_eq!(a.timing, b.timing);
    }

    #[test]
    fn run_source_matches_slice_path() {
        let trace = loop_trace(512, 4);
        let engine = Engine::new(EngineConfig::paper_default());
        let sliced = engine.run(trace.iter().copied(), NoPrefetcher, RunOptions::new());
        // A lazily-evaluated source with no backing slice.
        let streamed = engine.run(
            (0..trace.len()).map(|i| trace[i]),
            NoPrefetcher,
            RunOptions::new(),
        );
        assert_eq!(sliced.fetch, streamed.fetch);
        assert_eq!(sliced.timing, streamed.timing);
        assert_eq!(sliced.frontend, streamed.frontend);
    }

    #[test]
    fn run_accepts_mut_reference() {
        let trace = loop_trace(64, 2);
        let engine = Engine::new(EngineConfig::paper_default());
        let mut source = trace.iter().copied();
        let report = engine.run(&mut source, NoPrefetcher, RunOptions::new());
        assert_eq!(report.frontend.instructions, trace.len() as u64);
        assert_eq!(source.next(), None, "source fully drained");
    }

    #[test]
    fn report_exposes_l2_traffic() {
        let trace = loop_trace(2048, 2);
        let report = Engine::new(EngineConfig::paper_default()).run(
            trace.iter().copied(),
            NoPrefetcher,
            RunOptions::new(),
        );
        assert!(report.l2_hits + report.l2_misses >= report.fetch.demand_misses);
    }
}
