//! Diagnostic probe: dissect one workload's miss predictability under
//! different predictor knobs, split uncovered misses into cold vs stream
//! breaks, and show when new code is first touched. Used while
//! calibrating the synthetic workloads; kept as a debugging tool.
//!
//! Usage: `cargo run --release --example probe [workload]`
use pif_lab::Scale;
use pif_sim::cache::{AccessOutcome, InstructionCache};
use pif_sim::frontend::{FrontEnd, FrontendEvent};
use pif_sim::predictor_eval::{
    evaluate_stream_coverage_warmup, TemporalPredictorConfig, TemporalStreamPredictor,
};
use pif_sim::streams::BlockDedup;
use pif_sim::EngineConfig;
use pif_types::TrapLevel;

fn main() {
    let scale = Scale::from_env();
    let name = std::env::args().nth(1).unwrap_or_else(|| "DSS-Qry2".into());
    let w = scale
        .workloads()
        .into_iter()
        .find(|w| w.name() == name)
        .unwrap();
    let trace = w.generate(scale.instructions);
    let engine = EngineConfig::paper_default();
    for (wnd, pool) in [(64, 8), (512, 16), (4096, 16), (4096, 64)] {
        let cfg = TemporalPredictorConfig {
            window: wnd,
            miss_window: wnd / 12 + 4,
            pool,
            history_capacity: None,
        };
        let r =
            evaluate_stream_coverage_warmup(&engine, cfg, trace.instrs(), scale.warmup_instrs());
        println!(
            "window={wnd:5} pool={pool:3}  miss={:.3} access={:.3} retire={:.3} sep={:.3}  (n={})",
            r.miss, r.access, r.retire, r.retire_sep, r.correct_path_misses
        );
    }

    // Manual pass with a single retire-stream predictor, splitting
    // uncovered misses into cold (never recorded) vs stream breaks.
    let cfg = TemporalPredictorConfig::default();
    let mut pred = TemporalStreamPredictor::new(cfg, 1);
    let mut icache = InstructionCache::new(engine.icache).unwrap();
    let mut fe = FrontEnd::new(engine.frontend);
    let mut dedup = BlockDedup::new();
    let (mut covered, mut total) = (0u64, 0u64);
    let warmup = scale.warmup_instrs();
    let mut events = Vec::new();
    for (i, &instr) in trace.instrs().iter().enumerate() {
        let counting = i >= warmup;
        fe.step(instr, |e| events.push(e));
        for e in events.drain(..) {
            match e {
                FrontendEvent::Fetch(a) => {
                    let block = a.pc.block();
                    let missed = icache.demand_access(block) == AccessOutcome::Miss;
                    if a.is_correct_path() {
                        let hit = pred.advance(0, block);
                        if missed {
                            if !hit {
                                pred.try_open(0, block);
                            }
                            if counting {
                                total += 1;
                                covered += u64::from(hit);
                            }
                        }
                    }
                }
                FrontendEvent::Retire(ri, _) => {
                    if ri.trap_level == TrapLevel::Tl0 && dedup.observe(ri.pc.block()) {
                        pred.observe(0, ri.pc.block());
                    }
                }
            }
        }
    }
    let (cold, warm) = pred.uncovered_breakdown();
    println!(
        "retire-only: covered={covered}/{total} ({:.3}); uncovered cold={cold} warm(breaks)={warm}",
        covered as f64 / total.max(1) as f64
    );

    // First-touch timing: how much NEW code appears in each tenth of the
    // trace? (steady state should front-load first touches)
    let mut seen = std::collections::HashSet::new();
    let n = trace.len();
    let mut per_decile = [0u64; 10];
    for (i, instr) in trace.instrs().iter().enumerate() {
        if seen.insert(instr.pc.block().number()) {
            per_decile[(i * 10 / n).min(9)] += 1;
        }
    }
    println!("first-touched blocks per decile: {per_decile:?}");
}
