//! 16-core CMP run with SimFlex-style statistics: per-core traces (each
//! core runs its own server context), results averaged across the 16
//! cores with 95% confidence intervals — the paper's §5 measurement
//! methodology.
//!
//! Usage: `cargo run --release --example cmp16 [workload]`
//! (set `PIF_SCALE=tiny|quick|paper`; per-core traces are 1/4 the scale's
//! length to keep the 16-core run affordable).

use pif_baselines::{NextLinePrefetcher, PerfectICache, Tifs};
use pif_core::{Pif, PifConfig};
use pif_lab::Scale;
use pif_sim::multicore::{run_cmp_sources, CmpReport};
use pif_sim::{EngineConfig, NoPrefetcher, Prefetcher};

const CORES: usize = 16;

fn main() {
    let scale = Scale::from_env();
    let name = std::env::args().nth(1).unwrap_or_else(|| "OLTP-DB2".into());
    let profile = scale
        .workloads()
        .into_iter()
        .find(|w| w.name() == name)
        .unwrap_or_else(|| {
            eprintln!("unknown workload {name}; using OLTP-DB2");
            scale.workloads().into_iter().next().unwrap()
        });

    let per_core_instrs = (scale.instructions / 4).max(200_000);
    let warmup = (per_core_instrs as f64 * scale.warmup_fraction) as usize;
    let engine = EngineConfig::paper_default();

    println!(
        "16-core CMP — {} ({} instructions/core, {}% warmup)\n",
        profile.name(),
        per_core_instrs,
        (scale.warmup_fraction * 100.0) as u32
    );

    let run = |mk: &(dyn Fn(usize) -> Box<dyn Prefetcher + Send> + Sync)| -> CmpReport {
        // Per-core traces are generated lazily on side threads and pulled
        // by the engines as InstrSources: the 16 traces never exist in
        // memory, so trace length is bounded by CPU time, not RAM.
        run_cmp_sources(
            &engine,
            CORES,
            warmup,
            |core| {
                profile
                    .with_seed_offset(core as u64)
                    .stream(per_core_instrs)
            },
            mk,
        )
    };

    let base = run(&|_| Box::new(NoPrefetcher));
    let nl = run(&|_| Box::new(NextLinePrefetcher::aggressive()));
    let tifs = run(&|_| Box::new(Tifs::unbounded()));
    let pif = run(&|_| Box::new(Pif::new(PifConfig::paper_default())));
    let perfect = run(&|_| Box::new(PerfectICache));

    println!(
        "{:<12} {:>18} {:>22} {:>14}",
        "config", "UIPC (mean±95%)", "speedup vs baseline", "hit rate"
    );
    let row = |name: &str, r: &CmpReport| {
        let uipc = r.uipc();
        let speedup = r.speedup_over(&base);
        let hit = r.hit_rate();
        println!(
            "{name:<12} {:>9.3} ±{:>5.1}% {:>15.2}x ±{:>3.1}% {:>12.1}%",
            uipc.mean,
            uipc.relative_error() * 100.0,
            speedup.mean,
            speedup.relative_error() * 100.0,
            hit.mean * 100.0,
        );
    };
    row("baseline", &base);
    row("Next-Line", &nl);
    row("TIFS", &tifs);
    row("PIF", &pif);
    row("Perfect", &perfect);

    println!("\nPaper methodology check: UIPC confidence at 95% should be < ±5% (paper §5);");
    println!(
        "measured relative error: ±{:.2}%",
        base.uipc().relative_error() * 100.0
    );
}
