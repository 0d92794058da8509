//! The trace executor: walks the program image transaction by transaction,
//! emitting the correct-path retire-order instruction stream — including
//! loop iterations, conditional skips, calls/returns, and spontaneous
//! trap-level-1 interrupt handler invocations.

use pif_types::rng::SmallRng;
use pif_types::{Address, BranchInfo, BranchKind, RetiredInstr, TrapLevel};

use crate::params::GeneratorParams;
use crate::program::{FunctionLayout, ProgramImage, Site};

/// Executes a [`ProgramImage`], producing a retire-order trace.
///
/// Execution is deterministic in the generator seed (a separate stream
/// from layout generation, so scaling the trace length never perturbs the
/// code image).
#[derive(Debug)]
pub struct Executor<'a> {
    program: &'a ProgramImage,
    params: &'a GeneratorParams,
    rng: SmallRng,
    /// Instructions until the next interrupt fires (0 = disabled).
    until_interrupt: u64,
}

impl<'a> Executor<'a> {
    /// Creates an executor for `program`.
    pub fn new(program: &'a ProgramImage, params: &'a GeneratorParams) -> Self {
        Self::with_execution_seed(program, params, 0)
    }

    /// Creates an executor whose *execution* randomness (transaction mix,
    /// data-dependent branches, interrupt arrivals) is offset by
    /// `offset`, while the code image stays identical — i.e. another
    /// thread/process of the same server binary. A sweep's `seed_offset`
    /// selects it.
    pub fn with_execution_seed(
        program: &'a ProgramImage,
        params: &'a GeneratorParams,
        offset: u64,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(
            (params.seed ^ 0x9e37_79b9_7f4a_7c15).wrapping_add(offset.wrapping_mul(0x517c_c1b7)),
        );
        let until_interrupt = if params.interrupt_mean_interval > 0 {
            geometric(&mut rng, params.interrupt_mean_interval as f64)
        } else {
            0
        };
        Executor {
            program,
            params,
            rng,
            until_interrupt,
        }
    }

    /// Byte address of the dispatcher loop (the server's event loop, which
    /// indirect-calls each transaction root and loops).
    pub const DISPATCHER_PC: u64 = crate::program::APP_CODE_BASE - 0x1000;

    /// Runs transactions until exactly `instructions` records exist and
    /// collects them into a vector.
    ///
    /// Transactions are driven by a two-instruction dispatcher loop, so
    /// the emitted trace is fully control-flow coherent: every transfer is
    /// explained by a branch record.
    pub fn run(self, instructions: usize) -> Vec<RetiredInstr> {
        let mut out = Vec::with_capacity(instructions);
        self.run_into(instructions, |instr| out.push(instr));
        out
    }

    /// As [`Executor::run`], but pushes each record into `sink` as it is
    /// produced instead of materializing a vector — the streaming path
    /// behind `WorkloadProfile::generate_into` and `tracectl record`,
    /// whose memory use stays flat no matter how long the trace is. The
    /// record sequence is identical to [`Executor::run`]'s for the same
    /// seed and length.
    pub fn run_into<F: FnMut(RetiredInstr)>(self, instructions: usize, sink: F) {
        let mut walk = Walk {
            program: self.program,
            params: self.params,
            rng: self.rng,
            until_interrupt: self.until_interrupt,
            target: instructions,
            emitted: 0,
            sink,
        };
        walk.run();
    }
}

/// The executor's walking state, generic over the record sink so the hot
/// emission path is statically dispatched for both the vector and
/// streaming front doors.
struct Walk<'a, F: FnMut(RetiredInstr)> {
    program: &'a ProgramImage,
    params: &'a GeneratorParams,
    rng: SmallRng,
    sink: F,
    target: usize,
    emitted: usize,
    until_interrupt: u64,
}

impl<F: FnMut(RetiredInstr)> Walk<'_, F> {
    fn run(&mut self) {
        let d0 = Address::new(Executor::DISPATCHER_PC);
        let d1 = d0.offset(4);
        while !self.done() {
            let tx = self.program.sample_transaction(&mut self.rng);
            // Scripts are deterministic: the same transaction type always
            // calls the same roots in the same order — the repetition PIF
            // exploits.
            let script = &self.program.transactions()[tx];
            for &root in script {
                let entry = self.program.functions()[root].entry;
                // D0: indirect call to the transaction root.
                self.emit_branch(
                    d0,
                    TrapLevel::Tl0,
                    BranchInfo {
                        kind: BranchKind::IndirectCall,
                        taken: true,
                        taken_target: entry,
                        fall_through: d1,
                    },
                );
                if self.done() {
                    break;
                }
                self.exec_function(&self.program.functions()[root], TrapLevel::Tl0, 0, Some(d1));
                if self.done() {
                    break;
                }
                // D1: loop back to D0 for the next root.
                self.emit_branch(
                    d1,
                    TrapLevel::Tl0,
                    BranchInfo {
                        kind: BranchKind::Conditional,
                        taken: true,
                        taken_target: d0,
                        fall_through: d1.offset(4),
                    },
                );
            }
        }
    }

    fn done(&self) -> bool {
        self.emitted >= self.target
    }

    /// Forwards a record to the sink unless the target is already met
    /// (the vector path used to truncate the overshoot instead; dropping
    /// at the source is equivalent and works for streaming sinks).
    fn push(&mut self, instr: RetiredInstr) {
        if self.emitted < self.target {
            (self.sink)(instr);
            self.emitted += 1;
        }
    }

    fn emit_simple(&mut self, pc: Address, tl: TrapLevel) {
        self.push(RetiredInstr::simple(pc, tl));
        self.after_emit(tl);
    }

    fn emit_branch(&mut self, pc: Address, tl: TrapLevel, info: BranchInfo) {
        self.push(RetiredInstr::branch(pc, tl, info));
        self.after_emit(tl);
    }

    /// Interrupts fire between application instructions (never nested
    /// inside a handler).
    fn after_emit(&mut self, tl: TrapLevel) {
        if tl != TrapLevel::Tl0 || self.params.interrupt_mean_interval == 0 || self.done() {
            return;
        }
        if self.until_interrupt > 1 {
            self.until_interrupt -= 1;
            return;
        }
        self.until_interrupt = geometric(&mut self.rng, self.params.interrupt_mean_interval as f64);
        let handlers = self.program.handlers();
        if handlers.is_empty() {
            return;
        }
        let h = self.rng.gen_range(0..handlers.len());
        let handler = &handlers[h];
        self.exec_function(handler, TrapLevel::Tl1, 0, None);
    }

    /// Walks one function body. `return_to` is the caller's resume address
    /// (None for roots and handlers, whose return transfers are implicit
    /// trap/dispatch transitions).
    fn exec_function(
        &mut self,
        f: &FunctionLayout,
        tl: TrapLevel,
        depth: usize,
        return_to: Option<Address>,
    ) {
        let mut idx: u32 = 0;
        // Per-invocation loop trip counters: (site index, remaining).
        let mut loops: Vec<(u32, u64)> = Vec::new();
        while idx < f.instrs {
            if self.done() {
                return;
            }
            let pc = f.pc_at(idx);
            // Final slot: return (or plain end for roots/handlers).
            if idx == f.instrs - 1 {
                if let Some(ret) = return_to {
                    self.emit_branch(
                        pc,
                        tl,
                        BranchInfo {
                            kind: BranchKind::Return,
                            taken: true,
                            taken_target: ret,
                            fall_through: pc.offset(4),
                        },
                    );
                } else {
                    self.emit_simple(pc, tl);
                }
                return;
            }
            match f.sites.get(&idx) {
                None => {
                    self.emit_simple(pc, tl);
                    idx += 1;
                }
                Some(Site::Call { callees, indirect }) => {
                    // The layered call graph guarantees termination; the
                    // depth counter is a safety backstop only.
                    debug_assert!(depth < 64, "call depth runaway");
                    let callee_id = if *indirect {
                        // Data-dependent dispatch, skewed toward the first
                        // target (e.g. the common vtable entry).
                        if self.rng.gen_bool(1.0 - self.params.indirect_alt_prob) {
                            callees[0]
                        } else {
                            callees[self.rng.gen_range(0..callees.len())]
                        }
                    } else {
                        callees[0]
                    };
                    let callee = &self.program.functions()[callee_id];
                    let fall_through = pc.offset(4);
                    self.emit_branch(
                        pc,
                        tl,
                        BranchInfo {
                            kind: if *indirect {
                                BranchKind::IndirectCall
                            } else {
                                BranchKind::Call
                            },
                            taken: true,
                            taken_target: callee.entry,
                            fall_through,
                        },
                    );
                    self.exec_function(callee, tl, depth + 1, Some(fall_through));
                    idx += 1;
                }
                Some(Site::Skip { target, taken_prob }) => {
                    let taken = self.rng.gen_bool(*taken_prob);
                    self.emit_branch(
                        pc,
                        tl,
                        BranchInfo {
                            kind: BranchKind::Conditional,
                            taken,
                            taken_target: f.pc_at(*target),
                            fall_through: pc.offset(4),
                        },
                    );
                    idx = if taken { *target } else { idx + 1 };
                }
                Some(Site::LoopBack {
                    body_start,
                    base_trips,
                }) => {
                    let pos = match loops.iter().position(|(i, _)| *i == idx) {
                        Some(p) => p,
                        None => {
                            // Trip counts are mostly stable across
                            // invocations, with occasional data-dependent
                            // jitter (±1-2 iterations).
                            let trips = if self.rng.gen_bool(1.0 - self.params.loop_trip_jitter) {
                                *base_trips
                            } else {
                                let jitter = i64::from(self.rng.gen_range(0..=4u32)) - 2;
                                base_trips.saturating_add_signed(jitter).max(1)
                            };
                            loops.push((idx, trips));
                            loops.len() - 1
                        }
                    };
                    let remaining = &mut loops[pos].1;
                    let iterate = *remaining > 1;
                    if iterate {
                        *remaining -= 1;
                    } else {
                        loops.retain(|(i, _)| *i != idx);
                    }
                    self.emit_branch(
                        pc,
                        tl,
                        BranchInfo {
                            kind: BranchKind::Conditional,
                            taken: iterate,
                            taken_target: f.pc_at(*body_start),
                            fall_through: pc.offset(4),
                        },
                    );
                    idx = if iterate { *body_start } else { idx + 1 };
                }
            }
        }
    }
}

/// Geometric sample with the given mean (always >= 1).
fn geometric(rng: &mut SmallRng, mean: f64) -> u64 {
    if mean <= 1.0 {
        return 1;
    }
    let p = 1.0 / mean;
    let u = rng.next_f64().max(f64::MIN_POSITIVE);
    (1.0 + u.ln() / (1.0 - p).ln()).floor().max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::HANDLER_CODE_BASE;

    fn params() -> GeneratorParams {
        GeneratorParams {
            num_functions: 64,
            seed: 123,
            ..GeneratorParams::default()
        }
    }

    fn make_trace(p: &GeneratorParams, n: usize) -> Vec<RetiredInstr> {
        let img = ProgramImage::generate(p).unwrap();
        Executor::new(&img, p).run(n)
    }

    #[test]
    fn produces_exact_length() {
        let p = params();
        assert_eq!(make_trace(&p, 10_000).len(), 10_000);
        assert_eq!(make_trace(&p, 1).len(), 1);
    }

    #[test]
    fn run_into_matches_run_exactly() {
        let p = params();
        let img = ProgramImage::generate(&p).unwrap();
        let collected = Executor::new(&img, &p).run(30_000);
        let mut streamed = Vec::new();
        Executor::new(&img, &p).run_into(30_000, |i| streamed.push(i));
        assert_eq!(collected, streamed);
        assert_eq!(streamed.len(), 30_000);
    }

    #[test]
    fn execution_is_deterministic() {
        let p = params();
        assert_eq!(make_trace(&p, 20_000), make_trace(&p, 20_000));
    }

    #[test]
    fn prefix_stability_under_longer_runs() {
        // Generating a longer trace must not change the prefix: executor
        // RNG consumption is independent of the target length.
        let p = params();
        let short = make_trace(&p, 5_000);
        let long = make_trace(&p, 10_000);
        assert_eq!(short[..], long[..5_000]);
    }

    #[test]
    fn control_flow_is_coherent() {
        // Every branch's actual target must equal the next retired PC
        // (within the same trap level); non-branch instructions fall
        // through, except across trap-level transitions.
        let p = params();
        let trace = make_trace(&p, 50_000);
        let mut violations = 0;
        for w in trace.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if a.trap_level != b.trap_level {
                continue; // interrupt entry/exit: asynchronous transfer
            }
            match a.branch {
                Some(info) => {
                    if info.actual_target() != b.pc {
                        violations += 1;
                    }
                }
                None => {
                    if a.pc.offset(4) != b.pc {
                        violations += 1;
                    }
                }
            }
        }
        assert_eq!(violations, 0, "control-flow discontinuities in trace");
    }

    #[test]
    fn interrupts_appear_at_expected_rate() {
        let mut p = params();
        p.interrupt_mean_interval = 500;
        let trace = make_trace(&p, 100_000);
        let tl1 = trace
            .iter()
            .filter(|i| i.trap_level == TrapLevel::Tl1)
            .count();
        assert!(tl1 > 0, "interrupts must fire");
        // Handler bodies are 24-160 instrs arriving every ~500 app instrs:
        // expect roughly 5-25% TL1.
        let frac = tl1 as f64 / trace.len() as f64;
        assert!((0.02..0.5).contains(&frac), "TL1 fraction {frac}");
        // Handler PCs live in the handler region.
        for i in &trace {
            if i.trap_level == TrapLevel::Tl1 {
                assert!(i.pc.raw() >= HANDLER_CODE_BASE);
            }
        }
    }

    #[test]
    fn interrupts_disabled_yields_pure_tl0() {
        let mut p = params();
        p.interrupt_mean_interval = 0;
        let trace = make_trace(&p, 50_000);
        assert!(trace.iter().all(|i| i.trap_level == TrapLevel::Tl0));
    }

    #[test]
    fn branches_present_at_realistic_density() {
        let p = params();
        let trace = make_trace(&p, 100_000);
        let branches = trace.iter().filter(|i| i.is_branch()).count();
        let frac = branches as f64 / trace.len() as f64;
        assert!(
            (0.02..0.40).contains(&frac),
            "branch fraction {frac} out of server-code range"
        );
    }

    #[test]
    fn returns_match_calls() {
        let p = params();
        let trace = make_trace(&p, 100_000);
        let calls = trace
            .iter()
            .filter(|i| {
                matches!(
                    i.branch,
                    Some(BranchInfo {
                        kind: BranchKind::Call | BranchKind::IndirectCall,
                        ..
                    })
                )
            })
            .count();
        let returns = trace
            .iter()
            .filter(|i| {
                matches!(
                    i.branch,
                    Some(BranchInfo {
                        kind: BranchKind::Return,
                        ..
                    })
                )
            })
            .count();
        assert!(calls > 0 && returns > 0);
        // Returns can't exceed calls by more than truncation effects.
        let diff = (calls as i64 - returns as i64).unsigned_abs() as f64;
        let ratio = diff / calls as f64;
        assert!(ratio < 0.2, "calls {calls} vs returns {returns}");
    }

    #[test]
    fn footprint_exceeds_l1_capacity() {
        let p = GeneratorParams::default();
        let trace = make_trace(&p, 200_000);
        let mut blocks: Vec<u64> = trace.iter().map(|i| i.pc.block().number()).collect();
        blocks.sort_unstable();
        blocks.dedup();
        assert!(
            blocks.len() > 1024,
            "touched {} blocks; need > 64KB worth",
            blocks.len()
        );
    }

    #[test]
    fn geometric_mean_is_close() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| geometric(&mut rng, 6.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 6.0).abs() < 0.5, "geometric mean {mean}");
    }

    #[test]
    fn geometric_degenerate_mean_is_one() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(geometric(&mut rng, 1.0), 1);
        assert_eq!(geometric(&mut rng, 0.5), 1);
    }
}
