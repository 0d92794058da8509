//! Extension experiment: private per-core PIF storage vs. one shared
//! history buffer serving all cores (§4 mentions the sharing optimization
//! but evaluates dedicated hardware; this quantifies the trade-off).
//!
//! Cores run different threads of the *same* server binary (same code
//! image, different transaction interleavings), so shared history lets a
//! core predict code it has never executed — another core already
//! recorded it.
//!
//! Usage: `PIF_SCALE=quick cargo run --release --example shared_storage`

use std::sync::Arc;

use pif_core::shared::{SharedPif, SharedPifStorage};
use pif_core::{Pif, PifConfig};
use pif_lab::Scale;
use pif_sim::multicore::run_cmp;
use pif_sim::{EngineConfig, NoPrefetcher};

const CORES: usize = 8;

fn main() {
    let scale = Scale::from_env();
    let profile = scale
        .workloads()
        .into_iter()
        .next()
        .expect("profiles exist"); // OLTP-DB2
    let per_core = (scale.instructions / 4).max(200_000);
    let warmup = (per_core as f64 * scale.warmup_fraction) as usize;
    let engine = EngineConfig::paper_default();

    println!(
        "Shared vs private PIF storage — {} x {CORES} cores, {} instrs/core\n",
        profile.name(),
        per_core
    );

    let trace_for = |core: usize| {
        profile
            .generate_with_execution_seed(per_core, core as u64)
            .instrs()
            .to_vec()
    };

    let base = run_cmp(&engine, CORES, warmup, trace_for, |_| NoPrefetcher);
    let private = run_cmp(&engine, CORES, warmup, trace_for, |_| {
        Pif::new(PifConfig::paper_default())
    });
    let storage = Arc::new(SharedPifStorage::new(PifConfig::paper_default()));
    let shared = run_cmp(&engine, CORES, warmup, trace_for, |_| {
        SharedPif::attach(Arc::clone(&storage))
    });

    let private_bytes = PifConfig::paper_default().approx_storage_bytes() * CORES;
    let shared_bytes = PifConfig::paper_default().approx_storage_bytes();
    println!(
        "{:<22} {:>14} {:>14} {:>14}",
        "config", "coverage", "speedup", "storage"
    );
    println!(
        "{:<22} {:>13.1}% {:>13.2}x {:>11} KB",
        "private (per core)",
        private.miss_coverage().mean * 100.0,
        private.speedup_over(&base).mean,
        private_bytes / 1024
    );
    println!(
        "{:<22} {:>13.1}% {:>13.2}x {:>11} KB",
        "shared (one buffer)",
        shared.miss_coverage().mean * 100.0,
        shared.speedup_over(&base).mean,
        shared_bytes / 1024
    );
    println!(
        "\nShared storage costs {:.1}x less SRAM; coverage delta: {:+.1} points.",
        private_bytes as f64 / shared_bytes as f64,
        (shared.miss_coverage().mean - private.miss_coverage().mean) * 100.0
    );
}
