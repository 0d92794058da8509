//! Workload calibration: prints the trace-level properties that the
//! paper's workloads exhibit (multi-MB footprints, server-class I-miss
//! rates, realistic branch behaviour) so profile tuning is grounded in
//! numbers rather than guesswork.
//!
//! Usage: `PIF_SCALE=paper cargo run --release --example calibrate`

use pif_lab::{Scale, Table};
use pif_sim::{Engine, EngineConfig, NoPrefetcher, RunOptions};

fn main() {
    let scale = Scale::from_env();
    let engine = Engine::new(EngineConfig::paper_default());
    let mut t = Table::new(vec![
        "Workload",
        "Footprint",
        "I-MPKI",
        "Hit rate",
        "Branches",
        "Mispred",
        "WrongPath",
        "TL1",
        "FetchStall",
    ]);
    let workloads = scale.workloads();
    let rows = pif_lab::Pool::default().run_indexed(workloads.len(), |i| {
        let w = &workloads[i];
        let trace = w.generate(scale.instructions);
        let stats = trace.stats();
        let report = engine.run(
            trace.instrs().iter().copied(),
            NoPrefetcher,
            RunOptions::new(),
        );
        (w.name().to_string(), stats, report)
    });
    for (name, stats, report) in rows {
        let mpki =
            report.fetch.demand_misses as f64 / (report.frontend.instructions as f64 / 1000.0);
        t.row(vec![
            name,
            format!(
                "{:.2} MB",
                stats.footprint_bytes() as f64 / (1024.0 * 1024.0)
            ),
            format!("{mpki:.1}"),
            format!("{:.1}%", report.fetch.hit_rate() * 100.0),
            format!(
                "{:.1}%",
                report.frontend.branches as f64 / report.frontend.instructions as f64 * 100.0
            ),
            format!("{:.1}%", report.frontend.mispredict_rate() * 100.0),
            format!(
                "{:.1}%",
                report.fetch.wrong_path_accesses as f64
                    / (report.fetch.demand_accesses + report.fetch.wrong_path_accesses) as f64
                    * 100.0
            ),
            format!("{:.1}%", stats.tl1_fraction() * 100.0),
            format!("{:.1}%", report.timing.fetch_stall_fraction() * 100.0),
        ]);
    }
    println!(
        "Workload calibration ({} instructions/workload)\n",
        scale.instructions
    );
    print!("{t}");
    println!("\nTargets (server-workload literature): footprint >= 1 MB; I-MPKI 10-40;");
    println!("branches ~10-20% of instructions; mispredicts 2-8%; fetch stalls ~30-45%.");
}
