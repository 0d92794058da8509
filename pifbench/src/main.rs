//! `pifbench`: the repository benchmark.
//!
//! One process runs one workload for one seed and prints, as its last
//! stdout line, `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set ([`END_TO_END`]); with
//! `--trace 1` the run is traced and the metrics are the per-layer
//! ledger ([`PER_LAYER`]). Run it through `pifbench/run.py`, which builds
//! this package first; see `pifbench/README.md` for the rationale.

mod ledger;
mod pifd;
mod span;
mod sweep;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use span::Tracer;
use util::{jnum, jstr};

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("peak_rss_mb", "MiB"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.image_ms", "ms"),
    ("workloads.gen_minstr_s", "Minstr/s"),
    ("workloads.stream_minstr_s", "Minstr/s"),
    ("trace.encode_minstr_s", "Minstr/s"),
    ("trace.decode_minstr_s", "Minstr/s"),
    ("trace.bytes_per_instr", "B"),
    ("trace.hash_minstr_s", "Minstr/s"),
    ("frontend.minstr_s", "Minstr/s"),
    ("frontend.mispredicts_pki", "1/kinstr"),
    ("frontend.wrong_path_pki", "1/kinstr"),
    ("engine.none_minstr_s", "Minstr/s"),
    ("engine.self_ms", "ms"),
    ("l1i.mpki", "1/kinstr"),
    ("l2.miss_ratio", "ratio"),
    ("timing.uipc_none", "instr/cycle"),
    ("pif.minstr_s", "Minstr/s"),
    ("pif.self_ms", "ms"),
    ("pif.miss_coverage", "ratio"),
    ("pif.prefetch_accuracy", "ratio"),
    ("pif.uipc_speedup", "ratio"),
    ("analysis.minstr_s", "Minstr/s"),
    ("baselines.next_line_minstr_s", "Minstr/s"),
    ("baselines.tifs_minstr_s", "Minstr/s"),
    ("baselines.perfect_minstr_s", "Minstr/s"),
    ("none_cell.cell_ms", "ms"),
    ("none_cell.gen_ms", "ms"),
    ("none_cell.channel_ms", "ms"),
    ("none_cell.frontend_ms", "ms"),
    ("none_cell.engine_self_ms", "ms"),
    ("none_cell.remainder_ms", "ms"),
    ("lab.cells_executed", "count"),
    ("lab.cells_cached", "count"),
    ("lab.cell_p50_ms", "ms"),
    ("lab.cell_max_ms", "ms"),
    ("lab.pool_busy_frac", "ratio"),
    ("lab.load_ms", "ms"),
    ("lab.cache_key_ms", "ms"),
    ("lab.emit_ms", "ms"),
    ("rcache.lookup_p50_us", "us"),
    ("rcache.store_p50_us", "us"),
    ("rcache.hits", "count"),
    ("rcache.misses", "count"),
    ("rcache.corrupt", "count"),
    ("service.queue_wait_mean_ms", "ms"),
    ("service.exec_mean_ms", "ms"),
    ("service.max_queue_depth", "count"),
    ("service.failures", "count"),
    ("proto.ping_rtt_p50_us", "us"),
    ("proto.report_frame_kb", "KiB"),
    ("proto.parse_ms", "ms"),
    ("tracing.overhead_frac", "ratio"),
];

/// Input sizes. `Bench` is what `BENCHMARK.json` runs; `Tiny` keeps the
/// harness self-check fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Bench,
    Tiny,
}

impl Size {
    /// Instructions per cell of the fig10 grid (paper footprint). A sweep
    /// takes under half a second on two cores, so a run times dozens.
    pub fn fig10_instrs(self) -> usize {
        match self {
            Size::Bench => 300_000,
            Size::Tiny => 40_000,
        }
    }

    /// Instructions per workload trace of the fig9-history grid.
    pub fn fig9_instrs(self) -> usize {
        match self {
            Size::Bench => 600_000,
            Size::Tiny => 40_000,
        }
    }

    /// Submits per pifd request list (one pass).
    pub fn pifd_requests(self) -> usize {
        match self {
            Size::Bench => 16,
            Size::Tiny => 8,
        }
    }

    /// Timed passes per daemon cycle (on pifd-warm, after the cold pass
    /// that fills the cache).
    pub fn passes(self) -> usize {
        match self {
            Size::Bench => 24,
            Size::Tiny => 1,
        }
    }

    /// Latency samples a run collects before it may stop: enough that
    /// ten lie beyond p90.
    pub fn min_ops(self) -> usize {
        match self {
            Size::Bench => 110,
            Size::Tiny => 1,
        }
    }
}

/// Everything a workload needs to run.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub size: Size,
    pub threads: usize,
    pub work: PathBuf,
    pub corrupt_reference: bool,
    pub tracer: Tracer,
    pub started: Instant,
}

impl Ctx {
    /// Whether the run may start another iteration: it must reach
    /// `--seconds` of timed work and `min_ops` samples, and must stop
    /// well inside the 180 s limit either way.
    pub fn more(&self, timed_s: f64, ops: usize, iters: usize) -> bool {
        let elapsed = self.started.elapsed().as_secs_f64();
        if elapsed > 120.0 {
            return false;
        }
        // A traced run needs an untraced and a traced iteration.
        let min_iters = if self.tracer.enabled() { 2 } else { 1 };
        iters < min_iters || timed_s < self.seconds || ops < self.size.min_ops()
    }
}

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines printed before the result: exact counts, simulated
    /// statistics, sample counts.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation; a failure prints its reason.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("pifbench: FAILED {what}: {e}");
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

const WORKLOADS: &[&str] = &[
    "fig10-paper",
    "fig9-history-paper",
    "pifd-cold",
    "pifd-warm",
];

fn usage() -> ! {
    eprintln!(
        "usage: pifbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--work-dir <dir>] [--size bench|tiny] [--corrupt-reference]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_root = PathBuf::from(".bench_work");
    let mut size = Size::Bench;
    let mut corrupt_reference = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(val()),
            "--seed" => seed = val().parse::<u64>().ok(),
            "--seconds" => seconds = val().parse::<f64>().ok(),
            "--trace" => trace = Some(val() == "1"),
            "--work-dir" => work_root = PathBuf::from(val()),
            "--size" => {
                size = match val().as_str() {
                    "bench" => Size::Bench,
                    "tiny" => Size::Tiny,
                    _ => usage(),
                }
            }
            "--corrupt-reference" => corrupt_reference = true,
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        usage();
    }

    // Pin what the program reads from its environment: no fault plan, no
    // log lines, and a recorded-trace directory this run owns, so a stale
    // `target/bintrace` recording cannot change an input. Set before any
    // thread starts.
    let work = work_root.join(format!("{workload}-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(work.join("bintrace")).expect("create the run's work directory");
    std::env::remove_var("PIF_FAIL");
    std::env::remove_var("PIF_LOG");
    std::env::remove_var("PIF_SCALE");
    std::env::remove_var("PIFD_CACHE_DIR");
    std::env::set_var(pif_lab::recorded::TRACE_DIR_ENV, work.join("bintrace"));

    let ctx = Ctx {
        seed,
        seconds,
        size,
        threads: pif_lab::default_threads(),
        work: work.clone(),
        corrupt_reference,
        tracer: Tracer::new(trace),
        started: Instant::now(),
    };
    let mut out = match workload.as_str() {
        "fig10-paper" | "fig9-history-paper" => sweep::run(&ctx, &workload),
        _ => pifd::run(&ctx, workload == "pifd-warm"),
    };
    let _ = std::fs::remove_dir_all(&work);

    let (table, kind) = if trace {
        (PER_LAYER, "per_layer")
    } else {
        out.set("peak_rss_mb", util::peak_rss_mb());
        (END_TO_END, "end_to_end")
    };
    if trace {
        let spans = work_root.join(format!("spans-{workload}-seed{seed}.json"));
        if std::fs::write(&spans, ctx.tracer.to_json()).is_ok() {
            eprintln!("pifbench: spans written to {}", spans.display());
        }
    }
    for line in &out.lines {
        println!("{line}");
    }
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => panic!("{kind} metric {name} was not measured"),
        };
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            jstr(name),
            jnum(value),
            jstr(unit)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if out.failed > 0 || out.attempted == 0 {
        std::process::exit(1);
    }
}
