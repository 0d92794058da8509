//! Front-end model: derives the speculative fetch-access stream from the
//! correct-path retire-order trace.
//!
//! This is the component that reproduces the paper's §2.2 observation. The
//! retire-order trace is ground truth; the front end replays it with a
//! *live* branch predictor and, whenever the predictor would have gone the
//! wrong way, injects a burst of wrong-path fetch accesses — of
//! data-dependent (here: pseudo-random, bounded) depth — before resuming on
//! the correct path. The resulting access stream is what the L1-I and any
//! access/miss-stream prefetcher observe.

use std::collections::VecDeque;

use pif_types::rng::SmallRng;
use pif_types::{Address, BlockAddr, BranchKind, FetchAccess, RetiredInstr, TrapLevel};

use crate::bpred::{BranchTargetBuffer, DirectionPredictor, HybridPredictor, ReturnAddressStack};
use crate::config::FrontendConfig;
use crate::stats::FrontendStats;

/// An event produced by the front end, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontendEvent {
    /// A fetch access at block granularity (correct- or wrong-path).
    Fetch(FetchAccess),
    /// An instruction leaving the ROB. The flag records whether the
    /// instruction was a mispredicted branch (for the timing model).
    Retire(RetiredInstr, bool),
}

/// The front-end model. Feed it retired instructions in order via
/// [`FrontEnd::step`]; it emits [`FrontendEvent`]s through a callback.
///
/// # Example
///
/// ```
/// use pif_sim::frontend::{FrontEnd, FrontendEvent};
/// use pif_sim::FrontendConfig;
/// use pif_types::{Address, RetiredInstr, TrapLevel};
///
/// let mut fe = FrontEnd::new(FrontendConfig::paper_default());
/// let mut events = Vec::new();
/// for i in 0..32u64 {
///     let instr = RetiredInstr::simple(Address::new(i * 4), TrapLevel::Tl0);
///     fe.step(instr, |e| events.push(e));
/// }
/// fe.flush(|e| events.push(e));
/// // 32 instructions in 2 blocks: 2 fetch events + 32 retires.
/// let fetches = events.iter().filter(|e| matches!(e, FrontendEvent::Fetch(_))).count();
/// assert_eq!(fetches, 2);
/// ```
#[derive(Debug)]
pub struct FrontEnd {
    config: FrontendConfig,
    direction: HybridPredictor,
    btb: BranchTargetBuffer,
    ras: ReturnAddressStack,
    rng: SmallRng,
    current_block: Option<BlockAddr>,
    current_tl: TrapLevel,
    /// ROB model: retires are emitted `retire_delay_instrs` behind fetch.
    rob: VecDeque<(RetiredInstr, bool)>,
    stats: FrontendStats,
}

impl FrontEnd {
    /// Creates a front end with the given configuration.
    pub fn new(config: FrontendConfig) -> Self {
        FrontEnd {
            direction: HybridPredictor::new(
                config.gshare_entries,
                config.bimodal_entries,
                config.chooser_entries,
            ),
            btb: BranchTargetBuffer::new(config.btb_entries, 4),
            ras: ReturnAddressStack::new(config.ras_depth),
            rng: SmallRng::seed_from_u64(config.seed),
            current_block: None,
            current_tl: TrapLevel::Tl0,
            rob: VecDeque::with_capacity(config.retire_delay_instrs + 1),
            stats: FrontendStats::default(),
            config,
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &FrontendStats {
        &self.stats
    }

    /// Clears the statistics while keeping all predictor state (tables,
    /// BTB, RAS, wrong-path RNG). Sampled simulation uses this to reuse
    /// one continuously warmed front end across measurement windows while
    /// reporting per-window counters.
    pub fn reset_stats(&mut self) {
        self.stats = FrontendStats::default();
    }

    /// Processes one retired instruction, emitting fetch events for it (and
    /// any wrong-path noise following it) plus delayed retire events.
    pub fn step(&mut self, instr: RetiredInstr, mut emit: impl FnMut(FrontendEvent)) {
        self.stats.instructions += 1;

        // Trap-level change is an asynchronous redirect: fetch restarts.
        if instr.trap_level != self.current_tl {
            self.current_block = None;
            self.current_tl = instr.trap_level;
        }

        // Correct-path fetch at block granularity.
        let block = instr.pc.block();
        if self.current_block != Some(block) {
            emit(FrontendEvent::Fetch(FetchAccess::correct(
                instr.pc,
                instr.trap_level,
            )));
            self.current_block = Some(block);
        }

        // Branch handling: predict, compare, inject wrong path.
        let mut mispredicted = false;
        if let Some(info) = instr.branch {
            self.stats.branches += 1;
            let actual = info.actual_target();
            let wrong_start: Option<Address> = match info.kind {
                BranchKind::Conditional => {
                    let pred_taken = self.direction.predict(instr.pc);
                    self.direction.update(instr.pc, info.taken);
                    if pred_taken != info.taken {
                        mispredicted = true;
                        Some(if pred_taken {
                            info.taken_target
                        } else {
                            info.fall_through
                        })
                    } else {
                        None
                    }
                }
                BranchKind::Direct | BranchKind::Call => {
                    // Target known at decode: no wrong path.
                    None
                }
                BranchKind::IndirectCall => {
                    let predicted = self.btb.predict(instr.pc).unwrap_or(info.fall_through);
                    self.btb.update(instr.pc, info.taken_target);
                    (predicted != actual).then(|| {
                        mispredicted = true;
                        predicted
                    })
                }
                BranchKind::Return => {
                    let predicted = self.ras.pop().unwrap_or(info.fall_through);
                    (predicted != actual).then(|| {
                        mispredicted = true;
                        predicted
                    })
                }
            };
            if info.kind.pushes_return() {
                self.ras.push(info.fall_through);
            }
            if mispredicted {
                self.stats.mispredicts += 1;
                if let Some(start) = wrong_start {
                    self.inject_wrong_path(start, instr.trap_level, &mut emit);
                }
                // After the squash, fetch redirects to the correct target:
                // the next correct-path instruction re-accesses its block.
                self.current_block = None;
            } else if info.taken && actual.block() != block {
                // Correctly-predicted taken branch to another block: the
                // next instruction will trigger a fetch via block change
                // (handled naturally at the next step).
            }
        }

        // ROB: delay retirement behind fetch.
        self.rob.push_back((instr, mispredicted));
        while self.rob.len() > self.config.retire_delay_instrs {
            let (retired, misp) = self.rob.pop_front().unwrap();
            emit(FrontendEvent::Retire(retired, misp));
        }
    }

    /// Drains the ROB at end of trace.
    pub fn flush(&mut self, mut emit: impl FnMut(FrontendEvent)) {
        while let Some((retired, misp)) = self.rob.pop_front() {
            emit(FrontendEvent::Retire(retired, misp));
        }
    }

    fn inject_wrong_path(
        &mut self,
        start: Address,
        tl: TrapLevel,
        emit: &mut impl FnMut(FrontendEvent),
    ) {
        // Data-dependent resolve latency: an arbitrary, bounded number of
        // sequential blocks fetched down the wrong path (§2.2).
        let depth = self.rng.gen_range(1..=self.config.wrong_path_max_blocks);
        let mut block = start.block();
        for i in 0..depth {
            let pc = if i == 0 { start } else { block.base() };
            emit(FrontendEvent::Fetch(FetchAccess::wrong(pc, tl)));
            self.stats.wrong_path_accesses += 1;
            block = block.next();
        }
    }

    /// Convenience: runs a whole trace, collecting all events.
    pub fn run_trace(
        config: FrontendConfig,
        trace: &[RetiredInstr],
    ) -> (Vec<FrontendEvent>, FrontendStats) {
        let mut fe = FrontEnd::new(config);
        let mut events = Vec::with_capacity(trace.len() * 2);
        for &instr in trace {
            fe.step(instr, |e| events.push(e));
        }
        fe.flush(|e| events.push(e));
        let stats = *fe.stats();
        (events, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_types::BranchInfo;

    fn cfg() -> FrontendConfig {
        FrontendConfig {
            retire_delay_instrs: 4,
            ..FrontendConfig::paper_default()
        }
    }

    fn straight_line(n: u64) -> Vec<RetiredInstr> {
        (0..n)
            .map(|i| RetiredInstr::simple(Address::new(i * 4), TrapLevel::Tl0))
            .collect()
    }

    #[test]
    fn straight_line_code_fetches_once_per_block() {
        let trace = straight_line(64); // 4 instrs/block? 64B block / 4B instr = 16
        let (events, stats) = FrontEnd::run_trace(cfg(), &trace);
        let fetches: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                FrontendEvent::Fetch(a) => Some(*a),
                _ => None,
            })
            .collect();
        assert_eq!(fetches.len(), 4, "64 instrs x 4B = 4 blocks");
        assert!(fetches.iter().all(|a| a.is_correct_path()));
        assert_eq!(stats.instructions, 64);
        assert_eq!(stats.mispredicts, 0);
    }

    #[test]
    fn retires_preserve_order_and_count() {
        let trace = straight_line(20);
        let (events, _) = FrontEnd::run_trace(cfg(), &trace);
        let retired: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                FrontendEvent::Retire(i, _) => Some(i.pc.raw()),
                _ => None,
            })
            .collect();
        assert_eq!(retired.len(), 20);
        assert!(retired.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn retire_lags_fetch_by_rob_depth() {
        let trace = straight_line(20);
        let mut fe = FrontEnd::new(cfg());
        let mut retired_before_step5 = 0;
        for (i, &instr) in trace.iter().enumerate() {
            fe.step(instr, |e| {
                if matches!(e, FrontendEvent::Retire(..)) && i < 5 {
                    retired_before_step5 += 1;
                }
            });
        }
        // With a 4-deep ROB, the first retire appears at step 4 (0-based).
        assert_eq!(retired_before_step5, 1);
    }

    #[test]
    fn untaken_then_taken_branch_mispredicts_and_injects_noise() {
        // Train a branch as not-taken, then flip it: the hybrid predictor
        // mispredicts and wrong-path accesses appear.
        let pc = Address::new(0x1000);
        let taken_target = Address::new(0x8000);
        let fall = Address::new(0x1004);
        let mk = |taken: bool| {
            RetiredInstr::branch(
                pc,
                TrapLevel::Tl0,
                BranchInfo {
                    kind: BranchKind::Conditional,
                    taken,
                    taken_target,
                    fall_through: fall,
                },
            )
        };
        let mut trace = Vec::new();
        for _ in 0..50 {
            trace.push(mk(false));
            trace.push(RetiredInstr::simple(fall, TrapLevel::Tl0));
        }
        // Now the branch is taken: predictor says not-taken -> wrong path
        // fetches from the fall-through.
        trace.push(mk(true));
        trace.push(RetiredInstr::simple(taken_target, TrapLevel::Tl0));

        let (events, stats) = FrontEnd::run_trace(cfg(), &trace);
        assert!(stats.mispredicts >= 1);
        let wrong: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                FrontendEvent::Fetch(a) if !a.is_correct_path() => Some(a.pc),
                _ => None,
            })
            .collect();
        assert!(
            !wrong.is_empty(),
            "misprediction must inject wrong-path fetches"
        );
        assert_eq!(
            wrong[0].block(),
            fall.block(),
            "wrong path starts at the mispredicted direction's target"
        );
        assert!(stats.wrong_path_accesses as usize >= wrong.len());
    }

    #[test]
    fn returns_predicted_by_ras_do_not_mispredict() {
        let call_pc = Address::new(0x100);
        let func = Address::new(0x2000);
        let ret_pc = Address::new(0x2004);
        let fall = Address::new(0x104);
        let mut trace = Vec::new();
        for _ in 0..10 {
            trace.push(RetiredInstr::branch(
                call_pc,
                TrapLevel::Tl0,
                BranchInfo {
                    kind: BranchKind::Call,
                    taken: true,
                    taken_target: func,
                    fall_through: fall,
                },
            ));
            trace.push(RetiredInstr::simple(func, TrapLevel::Tl0));
            trace.push(RetiredInstr::branch(
                ret_pc,
                TrapLevel::Tl0,
                BranchInfo {
                    kind: BranchKind::Return,
                    taken: true,
                    taken_target: fall,
                    fall_through: ret_pc.offset(4),
                },
            ));
            trace.push(RetiredInstr::simple(fall, TrapLevel::Tl0));
        }
        let (_, stats) = FrontEnd::run_trace(cfg(), &trace);
        assert_eq!(stats.mispredicts, 0, "RAS must predict matched call/return");
    }

    #[test]
    fn indirect_call_learns_target_via_btb() {
        let pc = Address::new(0x100);
        let target = Address::new(0x9000);
        let mk = || {
            RetiredInstr::branch(
                pc,
                TrapLevel::Tl0,
                BranchInfo {
                    kind: BranchKind::IndirectCall,
                    taken: true,
                    taken_target: target,
                    fall_through: pc.offset(4),
                },
            )
        };
        let mut trace = Vec::new();
        for _ in 0..5 {
            trace.push(mk());
            trace.push(RetiredInstr::simple(target, TrapLevel::Tl0));
            // Return to keep RAS balanced is omitted; we only check BTB.
        }
        let (_, stats) = FrontEnd::run_trace(cfg(), &trace);
        // First encounter mispredicts (BTB cold), later ones hit.
        assert_eq!(stats.mispredicts, 1);
    }

    #[test]
    fn trap_level_change_restarts_fetch_block() {
        let mut trace = straight_line(4);
        // Interrupt handler at a far address, same block each time.
        trace.push(RetiredInstr::simple(
            Address::new(0x400_0000),
            TrapLevel::Tl1,
        ));
        trace.push(RetiredInstr::simple(
            Address::new(0x400_0004),
            TrapLevel::Tl1,
        ));
        // Return to the same application block.
        trace.push(RetiredInstr::simple(Address::new(16), TrapLevel::Tl0));
        let (events, _) = FrontEnd::run_trace(cfg(), &trace);
        let fetch_blocks: Vec<(u64, TrapLevel)> = events
            .iter()
            .filter_map(|e| match e {
                FrontendEvent::Fetch(a) => Some((a.pc.block().number(), a.trap_level)),
                _ => None,
            })
            .collect();
        // Application block 0, handler block, application block 0 again.
        assert_eq!(fetch_blocks.len(), 3);
        assert_eq!(fetch_blocks[0].1, TrapLevel::Tl0);
        assert_eq!(fetch_blocks[1].1, TrapLevel::Tl1);
        assert_eq!(fetch_blocks[2], fetch_blocks[0]);
    }

    #[test]
    fn wrong_path_depth_is_bounded_by_config() {
        let mut config = cfg();
        config.wrong_path_max_blocks = 2;
        // Build a trace with one guaranteed mispredict (cold indirect).
        let pc = Address::new(0x100);
        let trace = vec![
            RetiredInstr::branch(
                pc,
                TrapLevel::Tl0,
                BranchInfo {
                    kind: BranchKind::IndirectCall,
                    taken: true,
                    taken_target: Address::new(0x9000),
                    fall_through: pc.offset(4),
                },
            ),
            RetiredInstr::simple(Address::new(0x9000), TrapLevel::Tl0),
        ];
        let (_, stats) = FrontEnd::run_trace(config, &trace);
        assert!(stats.wrong_path_accesses <= 2);
        assert!(stats.wrong_path_accesses >= 1);
    }
}
