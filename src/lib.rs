//! # pif-repro — Proactive Instruction Fetch, reproduced
//!
//! A production-quality Rust reproduction of **"Proactive Instruction
//! Fetch"** (Ferdman, Kaynak, Falsafi — MICRO 2011): the PIF instruction
//! prefetcher, the trace-driven microarchitecture substrate it is evaluated
//! on, synthetic server workloads standing in for the paper's commercial
//! traces, the paper's baselines (next-line, TIFS, perfect L1-I), and the
//! sweep harness that regenerates every table and figure of the
//! evaluation (`piflab run <spec>`).
//!
//! This facade crate re-exports the member crates under stable names:
//!
//! * [`types`] — addresses, blocks, spatial regions, trace records, and
//!   the seeded RNG and hashes every trace and cache key depends on.
//! * [`trace`] — streaming, compressed trace files (v2).
//! * [`sim`] — caches, branch predictors, the front-end model, the
//!   simulation engine and timing model.
//! * [`workloads`] — the six synthetic server workload profiles.
//! * [`bintrace`] — real-ELF trace frontend: loader, CFG recovery, and
//!   the seeded walker behind `tracectl record-elf`.
//! * [`pif`] — the Proactive Instruction Fetch prefetcher itself.
//! * [`baselines`] — next-line, TIFS, discontinuity, perfect cache.
//! * [`lab`] — declarative sweep orchestration, the committed figure
//!   specs, and the `piflab` CLI that runs and prints them.
//!
//! # Quickstart
//!
//! ```
//! use pif_repro::prelude::*;
//!
//! // Generate a small OLTP-like trace, run it through the engine with a
//! // PIF prefetcher attached, and inspect coverage.
//! let trace = WorkloadProfile::oltp_db2().scaled(0.02).generate(50_000);
//! let config = EngineConfig::paper_default();
//! let pif = Pif::new(PifConfig::default());
//! let report = Engine::new(config).run(trace.instrs().iter().copied(), pif, RunOptions::new());
//! assert!(report.fetch.demand_accesses > 0);
//! ```

pub use pif_baselines as baselines;
pub use pif_bintrace as bintrace;
pub use pif_core as pif;
pub use pif_lab as lab;
pub use pif_sim as sim;
pub use pif_trace as trace;
pub use pif_types as types;
pub use pif_workloads as workloads;

/// Convenience re-exports for the common entry points.
pub mod prelude {
    pub use pif_baselines::{DiscontinuityPrefetcher, NextLinePrefetcher, PerfectICache, Tifs};
    pub use pif_core::{Pif, PifConfig};
    pub use pif_sim::{Engine, EngineConfig, NoPrefetcher, Prefetcher, RunOptions, RunReport};
    pub use pif_trace::{TraceReader, TraceWriter};
    pub use pif_types::{
        Address, BlockAddr, InstrSource, RegionGeometry, RetiredInstr, SpatialRegionRecord,
        TrapLevel,
    };
    pub use pif_workloads::{Trace, WorkloadProfile};
}
