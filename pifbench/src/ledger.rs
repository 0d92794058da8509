//! The per-layer ledger: each layer timed from outside, around calls into
//! its public functions, on the workload's own trace.
//!
//! Every call runs inside a span, so the traced run's span file shows
//! the same numbers the per-layer metrics report.

use std::hint::black_box;
use std::time::Instant;

use pif_baselines::{NextLinePrefetcher, PerfectICache, Tifs};
use pif_core::analysis::PifAnalyzer;
use pif_core::{Pif, PifConfig};
use pif_sim::frontend::FrontEnd;
use pif_sim::{Engine, EngineConfig, NoPrefetcher, RunOptions, RunReport};
use pif_workloads::{Trace, WorkloadProfile};

use crate::util::ms;
use crate::{Ctx, Outcome};

/// The workload trace a ledger measures.
#[derive(Debug)]
pub struct Input<'a> {
    /// The synthetic profile the trace comes from (at the run's footprint).
    pub profile: &'a WorkloadProfile,
    /// The trace itself, generated from `profile`.
    pub trace: &'a Trace,
    pub seed: u64,
    pub warmup: usize,
    pub engine: EngineConfig,
    /// PIF configuration of the engine cell (fig10's unbounded design).
    pub pif: PifConfig,
}

/// Layer times the None-cell account is built from.
#[derive(Debug, Default, Clone, Copy)]
pub struct Times {
    pub gen_ms: f64,
    pub stream_ms: f64,
    pub frontend_ms: f64,
    pub none_ms: f64,
}

fn minstr_s(instrs: usize, ms: f64) -> f64 {
    if ms > 0.0 {
        instrs as f64 / ms / 1e3
    } else {
        0.0
    }
}

fn engine_run<P: pif_sim::Prefetcher>(input: &Input<'_>, prefetcher: P) -> RunReport {
    Engine::new(input.engine).run(
        input.trace.instrs().iter().copied(),
        prefetcher,
        RunOptions::new().warmup(input.warmup),
    )
}

/// Runs every layer once on `input` and records the per-layer metrics.
pub fn run(ctx: &Ctx, input: &Input<'_>, parent: Option<usize>, out: &mut Outcome) -> Times {
    let t = &ctx.tracer;
    let n = input.trace.len();
    let mut times = Times::default();
    let timed = |name: &'static str, f: &mut dyn FnMut()| -> f64 {
        t.span(name, parent, 0, |_| {
            let start = Instant::now();
            f();
            ms(start.elapsed())
        })
    };

    // pif-workloads: image build, generation into a no-op sink, and the
    // threaded stream the engine cells consume.
    let image_ms = timed("workloads.image", &mut || {
        black_box(input.profile.image());
    });
    out.set("workloads.image_ms", image_ms);
    times.gen_ms = timed("workloads.gen", &mut || {
        let mut acc = 0u64;
        input
            .profile
            .generate_with_execution_seed_into(n, input.seed, |i| acc ^= i.pc.raw());
        black_box(acc);
    });
    out.set("workloads.gen_minstr_s", minstr_s(n, times.gen_ms));
    times.stream_ms = timed("workloads.stream", &mut || {
        let mut acc = 0u64;
        for i in input.profile.stream_with_execution_seed(n, input.seed) {
            acc ^= i.pc.raw();
        }
        black_box(acc);
    });
    out.set("workloads.stream_minstr_s", minstr_s(n, times.stream_ms));

    // pif-trace: v2 encode, decode of those bytes, and the content hash.
    let mut bytes = Vec::new();
    let encode_ms = timed("trace.encode", &mut || {
        let mut w = pif_trace::TraceWriter::new(Vec::with_capacity(n * 3), input.trace.name())
            .expect("in-memory trace header");
        for i in input.trace.instrs() {
            w.push(i).expect("in-memory trace write");
        }
        bytes = w.finish().expect("in-memory trace finish");
    });
    out.set("trace.encode_minstr_s", minstr_s(n, encode_ms));
    out.set(
        "trace.bytes_per_instr",
        bytes.len() as f64 / n.max(1) as f64,
    );
    let decode = || {
        pif_trace::TraceReader::open(&bytes[..])
            .expect("v2 header")
            .instrs()
    };
    let decode_ms = timed("trace.decode", &mut || {
        let mut acc = 0u64;
        for i in decode() {
            acc ^= i.pc.raw();
        }
        black_box(acc);
    });
    out.set("trace.decode_minstr_s", minstr_s(n, decode_ms));
    let decoded = decode()
        .zip(input.trace.instrs())
        .filter(|(a, b)| a == *b)
        .count();
    out.check(
        "v2 round trip of the workload trace",
        if decoded == n && decode().count() == n {
            Ok(())
        } else {
            Err(format!("{decoded} of {n} records decode to the original"))
        },
    );
    let hash_ms = timed("trace.hash", &mut || {
        black_box(pif_trace::content_hash(
            input.trace.instrs().iter().copied(),
        ));
    });
    out.set("trace.hash_minstr_s", minstr_s(n, hash_ms));

    // pif-sim front end alone, into a no-op sink.
    let mut fe = FrontEnd::new(input.engine.frontend);
    times.frontend_ms = timed("frontend.step", &mut || {
        let mut events = 0u64;
        for &i in input.trace.instrs() {
            fe.step(i, |_| events += 1);
        }
        fe.flush(|_| events += 1);
        black_box(events);
    });
    let fs = *fe.stats();
    out.set("frontend.minstr_s", minstr_s(n, times.frontend_ms));
    let pki = |v: u64, instrs: u64| v as f64 * 1e3 / instrs.max(1) as f64;
    out.set(
        "frontend.mispredicts_pki",
        pki(fs.mispredicts, fs.instructions),
    );
    out.set(
        "frontend.wrong_path_pki",
        pki(fs.wrong_path_accesses, fs.instructions),
    );

    // The engine with each prefetcher over the same slice.
    let mut none = None;
    times.none_ms = timed("engine.none", &mut || {
        none = Some(engine_run(input, NoPrefetcher))
    });
    let none = none.expect("None run");
    out.set("engine.none_minstr_s", minstr_s(n, times.none_ms));
    out.set("engine.self_ms", times.none_ms - times.frontend_ms);
    out.set(
        "l1i.mpki",
        pki(none.fetch.demand_misses, none.frontend.instructions),
    );
    out.set(
        "l2.miss_ratio",
        none.l2_misses as f64 / (none.l2_hits + none.l2_misses).max(1) as f64,
    );
    out.set("timing.uipc_none", none.timing.uipc());

    let mut pif = None;
    let pif_ms = timed("pif.engine", &mut || {
        pif = Some(engine_run(input, Pif::new(input.pif)))
    });
    let pif = pif.expect("PIF run");
    out.set("pif.minstr_s", minstr_s(n, pif_ms));
    out.set("pif.self_ms", pif_ms - times.none_ms);
    out.set("pif.miss_coverage", pif.miss_coverage());
    out.set("pif.prefetch_accuracy", pif.prefetch.accuracy());
    out.set("pif.uipc_speedup", pif.speedup_over(&none));

    let next_line_ms = timed("baselines.next_line", &mut || {
        black_box(engine_run(input, NextLinePrefetcher::aggressive()));
    });
    out.set("baselines.next_line_minstr_s", minstr_s(n, next_line_ms));
    let tifs_ms = timed("baselines.tifs", &mut || {
        black_box(engine_run(input, Tifs::unbounded()));
    });
    out.set("baselines.tifs_minstr_s", minstr_s(n, tifs_ms));
    let perfect_ms = timed("baselines.perfect", &mut || {
        black_box(engine_run(input, PerfectICache));
    });
    out.set("baselines.perfect_minstr_s", minstr_s(n, perfect_ms));

    // pif-core trace analysis at fig9's smallest and largest history.
    let histories = pif_lab::registry::FIG9_HISTORY_SIZES;
    let analysis_ms = timed("analysis.analyze", &mut || {
        for h in [histories[0], histories[histories.len() - 1]] {
            let analyzer =
                PifAnalyzer::new(input.pif.with_history_capacity(h), input.engine.icache);
            black_box(analyzer.analyze(input.trace.instrs(), input.warmup));
        }
    });
    out.set("analysis.minstr_s", minstr_s(2 * n, analysis_ms));
    times
}

/// The None-cell account: a streamed cell's measured time split into
/// generation, channel wait, front end and engine self time, plus an
/// explicit remainder (contention on a shared core when positive, overlap
/// of the generator thread with simulation when negative).
pub fn none_cell_account(out: &mut Outcome, cell_ms: f64, times: &Times) {
    let gen = times.gen_ms;
    let channel = times.stream_ms - times.gen_ms;
    let engine_self = times.none_ms - times.frontend_ms;
    out.set("none_cell.cell_ms", cell_ms);
    out.set("none_cell.gen_ms", gen);
    out.set("none_cell.channel_ms", channel);
    out.set("none_cell.frontend_ms", times.frontend_ms);
    out.set("none_cell.engine_self_ms", engine_self);
    out.set(
        "none_cell.remainder_ms",
        cell_ms - gen - channel - times.frontend_ms - engine_self,
    );
}
