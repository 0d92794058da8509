//! A seeded walker that replays a recovered [`Cfg`] as a
//! [`RetiredInstr`] stream.
//!
//! The walker is the bridge between static CFG recovery and the
//! simulator's dynamic trace contract: it emits a coherent retire-order
//! stream (every branch's actual target is the next PC; every
//! non-branch falls through) over the *real* code layout of the binary.
//! Dynamic decisions the static CFG cannot answer are made by a seeded
//! RNG:
//!
//! - **Conditional branches** draw from a per-branch bias table: each
//!   branch address hashes (with the seed) to a stable taken
//!   probability, so individual branches are strongly biased — as real
//!   branches are — while different seeds produce different biases.
//! - **Indirect calls and jumps** pick a uniformly random function
//!   start, modelling virtual dispatch / PLT fan-out.
//! - **Returns** pop a real bounded return-address stack, so call/return
//!   pairing (and therefore return-address locality) matches the code.
//! - **Dead ends** (traps, undecodable bytes, targets outside the
//!   image) restart at a random function start via a synthetic direct
//!   branch, keeping the stream coherent.
//! - Optional **trap injection** interrupts the TL0 stream at seeded
//!   geometric intervals and walks a random function at [`TrapLevel::Tl1`]
//!   for a fixed burst, mirroring the synthetic executor's OS noise.
//!
//! Determinism contract: the emitted stream is a pure function of
//! `(ELF bytes, WalkConfig)`. The RNG is consumed once per dynamic
//! decision, never per emitted instruction, so a prefix of the stream
//! does not depend on how many instructions are ultimately taken.

use std::sync::Arc;

use pif_types::rng::{splitmix64, SmallRng};
use pif_types::{Address, BranchInfo, BranchKind, RetiredInstr, TrapLevel};

use crate::cfg::{Cfg, Terminator};

/// Dynamic-behaviour knobs for a [`Walker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkConfig {
    /// Seed for every dynamic decision (branch directions, indirect
    /// targets, interrupt arrivals).
    pub seed: u64,
    /// Mean TL0 instructions between injected TL1 interrupts
    /// (geometric inter-arrival); 0 disables trap injection.
    pub interrupt_mean_interval: u64,
    /// Instructions emitted per TL1 handler burst.
    pub handler_instrs: u64,
    /// Return-address-stack depth; the oldest entry is dropped on
    /// overflow, modelling a finite hardware RAS.
    pub ras_depth: usize,
}

impl Default for WalkConfig {
    fn default() -> Self {
        WalkConfig {
            seed: 0,
            interrupt_mean_interval: 0,
            handler_instrs: 48,
            ras_depth: 64,
        }
    }
}

impl WalkConfig {
    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables TL1 trap injection with the given mean interval.
    #[must_use]
    pub fn with_interrupts(mut self, mean_interval: u64) -> Self {
        self.interrupt_mean_interval = mean_interval;
        self
    }
}

/// Why a walker could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkError {
    /// The CFG holds no function start with decodable code.
    NoUsableCode,
}

impl std::fmt::Display for WalkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalkError::NoUsableCode => {
                write!(f, "CFG has no function start with decodable code")
            }
        }
    }
}

impl std::error::Error for WalkError {}

/// Position inside the CFG: a block and an instruction index in it.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    block: u64,
    idx: usize,
}

/// Saved TL0 context while a TL1 handler burst runs.
struct SavedContext {
    cur: Cursor,
    ras: Vec<u64>,
}

/// An infinite, deterministic [`RetiredInstr`] iterator over a [`Cfg`].
///
/// Cap it with [`Iterator::take`]; the stream prefix is independent of
/// the cap.
pub struct Walker {
    cfg: Arc<Cfg>,
    conf: WalkConfig,
    rng: SmallRng,
    cur: Cursor,
    ras: Vec<u64>,
    trap: TrapLevel,
    saved: Option<SavedContext>,
    handler_left: u64,
    until_interrupt: u64,
}

/// Geometric inter-arrival sample with the given mean (>= 1).
fn geometric(rng: &mut SmallRng, mean: f64) -> u64 {
    let u = rng.next_f64().max(1e-12);
    ((-u.ln() * mean).ceil() as u64).max(1)
}

impl Walker {
    /// Builds a walker over `cfg`.
    pub fn new(cfg: Arc<Cfg>, conf: WalkConfig) -> Result<Walker, WalkError> {
        if cfg.func_starts.is_empty() {
            return Err(WalkError::NoUsableCode);
        }
        let mut rng = SmallRng::seed_from_u64(conf.seed);
        let until_interrupt = if conf.interrupt_mean_interval > 0 {
            geometric(&mut rng, conf.interrupt_mean_interval as f64)
        } else {
            0
        };
        // Start at the entry point when it has code, else the first
        // usable function.
        let start = if cfg
            .blocks
            .get(&cfg.entry)
            .is_some_and(|b| !b.insns.is_empty())
        {
            cfg.entry
        } else {
            cfg.func_starts[0]
        };
        Ok(Walker {
            cur: Cursor {
                block: start,
                idx: 0,
            },
            cfg,
            conf,
            rng,
            ras: Vec::new(),
            trap: TrapLevel::Tl0,
            saved: None,
            handler_left: 0,
            until_interrupt,
        })
    }

    /// True when `addr` starts a block that holds at least one
    /// instruction.
    fn usable(&self, addr: u64) -> bool {
        self.cfg
            .blocks
            .get(&addr)
            .is_some_and(|b| !b.insns.is_empty())
    }

    /// A random usable function start (the restart / indirect-target
    /// pool).
    fn random_func(&mut self) -> u64 {
        let n = self.cfg.func_starts.len();
        self.cfg.func_starts[self.rng.gen_range(0..n)]
    }

    /// Resolves a transfer target to a usable block leader, redirecting
    /// unmapped or empty targets to a random function start.
    fn resolve(&mut self, addr: u64) -> u64 {
        if self.usable(addr) {
            addr
        } else {
            self.random_func()
        }
    }

    /// Stable taken-probability for the conditional branch at `pc`:
    /// most branches are strongly biased one way, a property of real
    /// code the bias table reproduces per (branch, seed).
    fn bias(&self, pc: u64) -> f64 {
        // One SplitMix64 step as a finaliser, keyed by the seed's bias
        // domain.
        let mut domain = self.conf.seed ^ 0xb1a5;
        let mut state = pc ^ splitmix64(&mut domain);
        let h = splitmix64(&mut state);
        0.05 + 0.90 * (h >> 11) as f64 / (1u64 << 53) as f64
    }

    fn push_ras(&mut self, ret: u64) {
        if self.ras.len() == self.conf.ras_depth {
            self.ras.remove(0);
        }
        self.ras.push(ret);
    }

    /// Enters a TL1 handler burst, saving the TL0 context.
    fn enter_handler(&mut self) {
        let handler = self.random_func();
        let saved = SavedContext {
            cur: self.cur,
            ras: std::mem::take(&mut self.ras),
        };
        self.saved = Some(saved);
        self.cur = Cursor {
            block: handler,
            idx: 0,
        };
        self.trap = TrapLevel::Tl1;
        self.handler_left = self.conf.handler_instrs.max(1);
        self.until_interrupt = geometric(&mut self.rng, self.conf.interrupt_mean_interval as f64);
    }

    /// Leaves the handler, restoring the TL0 context.
    fn leave_handler(&mut self) {
        let saved = self.saved.take().expect("leave_handler only inside one");
        self.cur = saved.cur;
        self.ras = saved.ras;
        self.trap = TrapLevel::Tl0;
    }
}

impl Iterator for Walker {
    type Item = RetiredInstr;

    fn next(&mut self) -> Option<RetiredInstr> {
        if self.trap == TrapLevel::Tl1 && self.handler_left == 0 {
            self.leave_handler();
        }
        if self.trap == TrapLevel::Tl0 && self.conf.interrupt_mean_interval > 0 {
            if self.until_interrupt > 1 {
                self.until_interrupt -= 1;
            } else {
                self.enter_handler();
            }
        }
        if self.trap == TrapLevel::Tl1 {
            self.handler_left -= 1;
        }

        let block = &self.cfg.blocks[&self.cur.block];
        let (pc, len) = block.insns[self.cur.idx];
        let fall = pc + len as u64;
        let last = self.cur.idx + 1 == block.insns.len();

        if !last {
            self.cur.idx += 1;
            return Some(RetiredInstr::simple(Address::new(pc), self.trap));
        }

        let term = block.term;
        // Decide the successor and the branch record together so the
        // stream stays coherent even when a static target has to be
        // redirected.
        let (branch, next) = match term {
            Terminator::FallThrough { next } if self.usable(next) => (None, next),
            // A fall-through into unmapped bytes (or any dead end) is
            // represented as a synthetic direct branch to the restart
            // point — the only way to keep the stream coherent.
            Terminator::FallThrough { .. } | Terminator::DeadEnd => {
                let target = self.random_func();
                (
                    Some(BranchInfo {
                        kind: BranchKind::Direct,
                        taken: true,
                        taken_target: Address::new(target),
                        fall_through: Address::new(fall),
                    }),
                    target,
                )
            }
            Terminator::Jump { target } => {
                let target = self.resolve(target);
                (
                    Some(BranchInfo {
                        kind: BranchKind::Direct,
                        taken: true,
                        taken_target: Address::new(target),
                        fall_through: Address::new(fall),
                    }),
                    target,
                )
            }
            Terminator::CondJump { target, fall: ft } => {
                debug_assert_eq!(ft, fall);
                let target = self.resolve(target);
                let taken = if self.usable(ft) {
                    let p = self.bias(pc);
                    self.rng.gen_bool(p)
                } else {
                    true
                };
                (
                    Some(BranchInfo {
                        kind: BranchKind::Conditional,
                        taken,
                        taken_target: Address::new(target),
                        fall_through: Address::new(fall),
                    }),
                    if taken { target } else { ft },
                )
            }
            Terminator::Call { target, ret } => {
                let target = self.resolve(target);
                self.push_ras(ret);
                (
                    Some(BranchInfo {
                        kind: BranchKind::Call,
                        taken: true,
                        taken_target: Address::new(target),
                        fall_through: Address::new(fall),
                    }),
                    target,
                )
            }
            Terminator::IndirectCall { ret } => {
                let target = self.random_func();
                self.push_ras(ret);
                (
                    Some(BranchInfo {
                        kind: BranchKind::IndirectCall,
                        taken: true,
                        taken_target: Address::new(target),
                        fall_through: Address::new(fall),
                    }),
                    target,
                )
            }
            // Tail-call approximation: an indirect jump transfers to a
            // random function without touching the RAS. Modelled as
            // `Direct` (no RAS effect; see README for the limit).
            Terminator::IndirectJump => {
                let target = self.random_func();
                (
                    Some(BranchInfo {
                        kind: BranchKind::Direct,
                        taken: true,
                        taken_target: Address::new(target),
                        fall_through: Address::new(fall),
                    }),
                    target,
                )
            }
            Terminator::Return => {
                let target = match self.ras.pop() {
                    Some(ret) if self.usable(ret) => ret,
                    _ => self.random_func(),
                };
                (
                    Some(BranchInfo {
                        kind: BranchKind::Return,
                        taken: true,
                        taken_target: Address::new(target),
                        fall_through: Address::new(fall),
                    }),
                    target,
                )
            }
        };

        self.cur = Cursor {
            block: next,
            idx: 0,
        };
        let instr = match branch {
            Some(info) => RetiredInstr::branch(Address::new(pc), self.trap, info),
            None => RetiredInstr::simple(Address::new(pc), self.trap),
        };
        Some(instr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::elf::ElfImage;
    use crate::fixture;

    fn demo_cfg() -> Arc<Cfg> {
        let bytes = fixture::demo_elf();
        let image = ElfImage::parse(&bytes).expect("fixture parses");
        Arc::new(Cfg::recover(&image))
    }

    fn walk(seed: u64, n: usize) -> Vec<RetiredInstr> {
        let conf = WalkConfig::default().with_seed(seed);
        Walker::new(demo_cfg(), conf)
            .expect("walker builds")
            .take(n)
            .collect()
    }

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(walk(7, 20_000), walk(7, 20_000));
    }

    #[test]
    fn different_seeds_diverge() {
        assert_ne!(walk(1, 5_000), walk(2, 5_000));
    }

    #[test]
    fn prefix_is_independent_of_length() {
        let short = walk(3, 2_000);
        let long = walk(3, 8_000);
        assert_eq!(short[..], long[..2_000]);
    }

    #[test]
    fn stream_is_coherent() {
        let trace = walk(11, 50_000);
        for w in trace.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if a.trap_level != b.trap_level {
                continue; // interrupt entry/exit is asynchronous
            }
            match a.branch {
                Some(info) => assert_eq!(
                    info.actual_target(),
                    b.pc,
                    "branch at {} does not reach next pc {}",
                    a.pc,
                    b.pc
                ),
                None => {
                    // Non-branch: the next record is the next
                    // instruction (variable length, so just assert
                    // forward adjacency within 15 bytes).
                    let delta = b.pc.raw().wrapping_sub(a.pc.raw());
                    assert!(
                        (1..=15).contains(&delta),
                        "non-branch at {} jumps to {}",
                        a.pc,
                        b.pc
                    );
                }
            }
        }
    }

    #[test]
    fn coherent_with_trap_injection() {
        let conf = WalkConfig::default().with_seed(5).with_interrupts(700);
        let trace: Vec<RetiredInstr> = Walker::new(demo_cfg(), conf)
            .expect("walker builds")
            .take(30_000)
            .collect();
        let tl1 = trace
            .iter()
            .filter(|i| i.trap_level == TrapLevel::Tl1)
            .count();
        assert!(tl1 > 0, "interrupts must fire");
        assert!(tl1 < trace.len() / 2, "handler bursts must be bounded");
        for w in trace.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if a.trap_level != b.trap_level {
                continue;
            }
            if let Some(info) = a.branch {
                assert_eq!(info.actual_target(), b.pc);
            }
        }
    }

    #[test]
    fn interrupts_disabled_yields_pure_tl0() {
        assert!(walk(9, 10_000)
            .iter()
            .all(|i| i.trap_level == TrapLevel::Tl0));
    }

    #[test]
    fn calls_and_returns_pair_up() {
        let trace = walk(13, 50_000);
        let mut stack = Vec::new();
        let mut paired = 0usize;
        for i in &trace {
            if let Some(info) = i.branch {
                match info.kind {
                    BranchKind::Call | BranchKind::IndirectCall => {
                        stack.push(info.fall_through);
                        if stack.len() > 64 {
                            stack.remove(0);
                        }
                    }
                    BranchKind::Return => {
                        paired += usize::from(stack.pop() == Some(info.taken_target));
                    }
                    _ => {}
                }
            }
        }
        assert!(paired > 0, "some returns must pop their matching call");
    }

    #[test]
    fn empty_cfg_is_an_error() {
        let cfg = Arc::new(Cfg {
            blocks: Default::default(),
            func_starts: Vec::new(),
            entry: 0,
        });
        assert_eq!(
            Walker::new(cfg, WalkConfig::default()).err(),
            Some(WalkError::NoUsableCode)
        );
    }
}
