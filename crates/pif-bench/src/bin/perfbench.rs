//! `perfbench` — end-to-end engine throughput harness.
//!
//! Measures simulated instructions per second of wall-clock time for the
//! simulation engine with every prefetcher (None, PIF, Next-Line, TIFS,
//! Discontinuity, Perfect) on standard workload profiles, plus the
//! sampled-simulation path for None and PIF on OLTP-DB2, and writes the
//! result as `BENCH_engine.json` — one point of the repository's tracked
//! performance trajectory.
//!
//! ```text
//! cargo run --release -p pif-bench --bin perfbench            # full run, writes BENCH_engine.json
//! cargo run --release -p pif-bench --bin perfbench -- --smoke # CI mode: small trace, floor check
//! cargo run --release -p pif-bench --bin perfbench -- --out /tmp/b.json
//! ```
//!
//! The sampled rows (`None-sampled`, `PIF-sampled`) time the windows of
//! a per-window sampling plan shaped like `pif-lab`'s sampled cells, run
//! in trace order by `pif_sim::sampling::run_sampled` on one reused
//! L2 — the path a sampled cell's windows take on its pool thread. Their
//! throughput counts every simulated instruction, warm-up included.
//!
//! In `--smoke` mode the harness runs a reduced trace and fails (exit 1)
//! if the no-prefetch engine's throughput drops more than 30% below the
//! committed floor — a coarse tripwire against hot-loop performance
//! regressions that works even on noisy CI machines. The floor verdict
//! is computed **before** the JSON artifact is written and embedded in
//! it as `"smoke_passed"` (see [`pif_bench::report`]), so a failing run
//! never leaves a passing-looking artifact behind.

use std::time::Instant;

use pif_baselines::{DiscontinuityPrefetcher, NextLinePrefetcher, PerfectICache, Tifs};
use pif_bench::report::{
    none_ips, render_json, smoke_passed, smoke_threshold_ips, validate_engine_report,
    validate_json, RunResult, PRIOR_NONE_IPS, PRIOR_PIF_IPS, SMOKE_FLOOR_IPS,
};
use pif_core::{Pif, PifConfig};
use pif_obs::json::Json;
use pif_sim::cache::L2Model;
use pif_sim::sampling::{run_sampled, SamplingPlan, WarmStrategy};
use pif_sim::{Engine, EngineConfig, EngineProbe, NoPrefetcher, Prefetcher, RunOptions};
use pif_types::RetiredInstr;
use pif_workloads::WorkloadProfile;

/// One timed row: its prefetcher label and a run that returns the run's
/// simulated instructions and UIPC.
type Row<'a> = (&'static str, Box<dyn FnMut() -> (u64, f64) + 'a>);

/// Times `rows` best-of-`reps` in rounds, one run of every row per
/// round: a burst of host noise then slows one round of every row, which
/// best-of-N discards, rather than every run of one row.
fn time_rows(workload: &str, mut rows: Vec<Row<'_>>, reps: usize) -> Vec<RunResult> {
    let mut best = vec![(f64::MAX, 0, 0.0); rows.len()];
    for _ in 0..reps {
        for ((_, run), best) in rows.iter_mut().zip(&mut best) {
            let t0 = Instant::now();
            let (instructions, uipc) = run();
            *best = (best.0.min(t0.elapsed().as_secs_f64()), instructions, uipc);
        }
    }
    rows.iter()
        .zip(best)
        .map(
            |(&(prefetcher, _), (elapsed_s, instructions, uipc))| RunResult {
                workload: workload.to_string(),
                prefetcher,
                instructions,
                elapsed_s,
                uipc,
            },
        )
        .collect()
}

/// An exhaustive row: one engine run over the whole trace.
fn engine_row<'a, P: Prefetcher>(
    name: &'static str,
    engine: &'a Engine,
    trace: &'a [RetiredInstr],
    warmup: usize,
    mk: impl Fn() -> P + 'a,
) -> Row<'a> {
    let run = move || {
        let report = engine.run(
            trace.iter().copied(),
            mk(),
            RunOptions::new().warmup(warmup),
        );
        (report.frontend.instructions, report.timing.uipc())
    };
    (name, Box::new(run))
}

/// The exhaustive rows: every prefetcher over the whole trace.
fn engine_rows<'a>(engine: &'a Engine, trace: &'a [RetiredInstr], warmup: usize) -> Vec<Row<'a>> {
    vec![
        engine_row("None", engine, trace, warmup, || NoPrefetcher),
        engine_row("PIF", engine, trace, warmup, || {
            Pif::new(PifConfig::paper_default())
        }),
        engine_row(
            "Next-Line",
            engine,
            trace,
            warmup,
            NextLinePrefetcher::aggressive,
        ),
        engine_row("TIFS", engine, trace, warmup, || {
            Tifs::new(Default::default())
        }),
        engine_row(
            "Discontinuity",
            engine,
            trace,
            warmup,
            DiscontinuityPrefetcher::paper_scale,
        ),
        engine_row("Perfect", engine, trace, warmup, || PerfectICache),
    ]
}

/// Measures the wall-clock cost of running the engine with a live
/// [`EngineProbe`] relative to the `NoProbe` default, in percent, on the
/// PIF configuration (the probe's busiest path: stall breakdown, queue
/// depth, and SAB gauges all fire). The plain and probed runs are
/// interleaved within each rep so clock drift and scheduler noise hit
/// both sides equally, then best-of-N is taken per side; small negative
/// values are residual noise, not a speedup.
fn measure_probe_overhead(
    engine: &Engine,
    trace: &[RetiredInstr],
    warmup: usize,
    reps: usize,
) -> f64 {
    let reps = reps.max(7);
    let mut plain_s = f64::MAX;
    let mut probed_s = f64::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        engine.run(
            trace.iter().copied(),
            Pif::new(PifConfig::paper_default()),
            RunOptions::new().warmup(warmup),
        );
        plain_s = plain_s.min(t0.elapsed().as_secs_f64());

        let mut probe = EngineProbe::new();
        let t1 = Instant::now();
        engine.run_probed(
            trace.iter().copied(),
            Pif::new(PifConfig::paper_default()),
            RunOptions::new().warmup(warmup),
            &mut probe,
        );
        probed_s = probed_s.min(t1.elapsed().as_secs_f64());
    }
    (probed_s - plain_s) / plain_s * 100.0
}

/// Measured instructions per window of the sampled rows, the same in
/// smoke and full runs: per-window costs (engine and prefetcher
/// construction, the L2 reset) weigh more the smaller the window, so a
/// window that scaled with the run would make smoke rows incomparable to
/// the full-run baseline the trend gate checks them against.
const SAMPLED_MEASURE_INSTRS: u64 = 8_000;

/// Windows per sampled row, in smoke and full runs alike.
const SAMPLED_WINDOWS: usize = 16;

/// A sampled row: the windows of a per-window plan shaped like
/// `pif-lab`'s sampled cells (random windows, warm-up twice the
/// measurement, as much extra warm-up again per window), run in order by
/// [`run_sampled`], each on a fresh prefetcher from `mk` and on the row's
/// one L2, reset in place per window. It reports every simulated
/// instruction, warm-up included, and the mean UIPC over windows.
fn sampled_row<'a, P: Prefetcher>(
    name: &'static str,
    config: &'a EngineConfig,
    trace: &'a [RetiredInstr],
    mk: impl Fn() -> P + 'a,
) -> Row<'a> {
    let warmup = 2 * SAMPLED_MEASURE_INSTRS;
    let plan = SamplingPlan::random(SAMPLED_WINDOWS, 0x9a3f, warmup, SAMPLED_MEASURE_INSTRS)
        .with_warm_strategy(WarmStrategy::PerWindow {
            extra_warmup_instrs: warmup,
        });
    let mut l2 = L2Model::new(config.l2).expect("paper L2 geometry is valid");
    let run = move || {
        let report = run_sampled(
            config,
            &plan,
            trace.len() as u64,
            |w| trace[w.warmup_start as usize..].iter().copied(),
            |_| mk(),
            &mut l2,
        );
        (report.simulated_instructions(), report.uipc().mean)
    };
    (name, Box::new(run))
}

fn main() {
    let mut smoke = false;
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: perfbench [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    // Smoke rows run the full run's first workload, footprint included,
    // over a shorter trace: a smaller footprint would change each row's
    // miss mix, and so its speed relative to the committed rows it is
    // gated against.
    let (instructions, profiles) = if smoke {
        (300_000, vec![WorkloadProfile::oltp_db2().scaled(0.2)])
    } else {
        (
            2_000_000,
            vec![
                WorkloadProfile::oltp_db2().scaled(0.2),
                WorkloadProfile::web_apache().scaled(0.2),
            ],
        )
    };
    // Best-of-N in smoke runs too: a single shot pits a cold first run
    // against the baseline's best.
    let reps = 5;
    let warmup = instructions / 5;

    let config = EngineConfig::paper_default();
    let engine = Engine::new(config);
    let mut results = Vec::new();
    let mut probe_overhead_pct = None;
    for (i, profile) in profiles.iter().enumerate() {
        eprintln!(
            "perfbench: {} × {instructions} instrs (best of {reps})",
            profile.name()
        );
        let trace = profile.generate(instructions);
        let trace = trace.instrs();
        let mut rows = engine_rows(&engine, trace, warmup);
        if i == 0 {
            rows.push(sampled_row("None-sampled", &config, trace, || NoPrefetcher));
            rows.push(sampled_row("PIF-sampled", &config, trace, || {
                Pif::new(PifConfig::paper_default())
            }));
        }
        results.extend(time_rows(profile.name(), rows, reps));
        if i == 0 {
            probe_overhead_pct = Some(measure_probe_overhead(&engine, trace, warmup, reps));
        }
    }

    for r in &results {
        println!(
            "{:<12} {:<14} {:>8.2} Minstr/s  ({:.3}s, uipc {:.3})",
            r.workload,
            r.prefetcher,
            r.ips() / 1e6,
            r.elapsed_s,
            r.uipc
        );
    }
    let gated_ips = none_ips(&results);
    // The prior constants were measured on OLTP-DB2; compare like for like.
    let oltp_none_ips = results
        .iter()
        .filter(|r| r.prefetcher == "None" && r.workload == "OLTP-DB2")
        .map(RunResult::ips)
        .fold(f64::MAX, f64::min);
    let oltp_pif_ips = results
        .iter()
        .filter(|r| r.prefetcher == "PIF" && r.workload == "OLTP-DB2")
        .map(RunResult::ips)
        .fold(f64::MAX, f64::min);
    if oltp_none_ips < f64::MAX && oltp_pif_ips < f64::MAX {
        println!(
            "speedup vs pre-refactor hot loop (OLTP-DB2): None {:.2}x ({:.1}M -> {:.1}M), PIF {:.2}x ({:.1}M -> {:.1}M)",
            oltp_none_ips / PRIOR_NONE_IPS,
            PRIOR_NONE_IPS / 1e6,
            oltp_none_ips / 1e6,
            oltp_pif_ips / PRIOR_PIF_IPS,
            PRIOR_PIF_IPS / 1e6,
            oltp_pif_ips / 1e6,
        );
    }

    if let Some(pct) = probe_overhead_pct {
        println!(
            "probe overhead (live EngineProbe vs NoProbe, PIF on {}): {pct:.2}%",
            profiles[0].name()
        );
    }

    // Compute the floor verdict BEFORE writing anything: the artifact
    // must carry the verdict, and a failing run must never leave a
    // passing-looking report on disk.
    let verdict = smoke.then(|| smoke_passed(gated_ips));
    let json = render_json(&results, instructions, smoke, verdict, probe_overhead_pct);
    if let Err(e) = validate_json(&json) {
        eprintln!("perfbench: emitted invalid JSON: {e}");
        std::process::exit(1);
    }
    let path = out_path.unwrap_or_else(|| {
        if smoke {
            std::env::temp_dir()
                .join("BENCH_engine_smoke.json")
                .to_string_lossy()
                .into_owned()
        } else {
            "BENCH_engine.json".to_string()
        }
    });
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("perfbench: cannot write {path}: {e}");
        std::process::exit(1);
    }
    // Re-read and re-validate: proves the artifact on disk parses and
    // keeps the v3 structural contract (absent-or-bool verdict, numeric
    // throughput on every row).
    match std::fs::read_to_string(&path).map_err(|e| e.to_string()) {
        Ok(disk) => match Json::parse(&disk) {
            Ok(doc) => {
                if let Err(e) = validate_engine_report(&doc) {
                    eprintln!("perfbench: {path} violates the engine-report schema: {e}");
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("perfbench: {path} does not parse: {e}");
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("perfbench: cannot re-read {path}: {e}");
            std::process::exit(1);
        }
    }
    println!("wrote {path}");

    match verdict {
        Some(false) => {
            eprintln!(
                "perfbench: REGRESSION: no-prefetch throughput {:.2} Minstr/s is more than 30% \
                 below the committed floor of {:.2} Minstr/s (smoke_passed: false recorded in {path})",
                gated_ips / 1e6,
                SMOKE_FLOOR_IPS / 1e6
            );
            std::process::exit(1);
        }
        Some(true) => {
            println!(
                "smoke check passed: {:.2} Minstr/s >= {:.2} Minstr/s (floor {:.2}M - 30%)",
                gated_ips / 1e6,
                smoke_threshold_ips() / 1e6,
                SMOKE_FLOOR_IPS / 1e6
            );
        }
        None => {}
    }
}
