//! Proactive Instruction Fetch (PIF) — the paper's primary contribution.
//!
//! PIF records the **correct-path, retire-order** instruction stream and
//! replays it to prefetch instruction blocks before the fetch unit needs
//! them. Four hardware structures (paper Fig. 4) are modeled faithfully:
//!
//! * the [`SpatialCompactor`]: collapses retired PCs into *spatial region
//!   records* — a trigger block plus a bit vector of accessed neighbours
//!   (§4.1, Fig. 5);
//! * the [`TemporalCompactor`]: a small MRU list that filters out records
//!   repeated by tight loops (§4.1);
//! * the [`HistoryBuffer`]: a circular buffer storing the compacted
//!   retire-order region sequence (§4.2);
//! * the [`IndexTable`]: maps a trigger block to its most recent history
//!   position (§4.2);
//! * the [`SabPool`] of *stream address buffers*: active prediction
//!   streams that replay history records and issue prefetches, advancing
//!   as the core's fetches confirm the stream (§4.3).
//!
//! `SabPool::advance` and `SabPool::allocate` are *sink-style*: they
//! write the records entering a stream's window into a caller-owned
//! scratch `Vec` (cleared on entry) instead of returning a fresh
//! allocation, so the per-fetch prediction path is allocation-free in
//! steady state — stream opens even reuse the replaced stream's window
//! buffer.
//!
//! Streams are recorded **separately per trap level** (§2.3), so interrupt
//! handlers do not fragment application streams.
//!
//! [`Pif`] wires these together as a `pif_sim::Prefetcher`, pluggable into
//! the simulation engine; [`analysis::PifAnalyzer`] instruments the same
//! mechanism for the paper's trace studies (Figures 3, 7, 8, 9).
//!
//! # Example
//!
//! ```
//! use pif_core::{Pif, PifConfig};
//! use pif_sim::{Engine, EngineConfig, NoPrefetcher, RunOptions};
//! use pif_workloads::WorkloadProfile;
//!
//! // A slice of OLTP-DB2 with enough code to pressure the 64 KB L1-I.
//! let trace = WorkloadProfile::oltp_db2().scaled(0.3).generate(300_000);
//! let engine = Engine::new(EngineConfig::paper_default());
//! let base = engine.run(trace.instrs().iter().copied(), NoPrefetcher, RunOptions::new().warmup(100_000));
//! let pif = engine.run(trace.instrs().iter().copied(), Pif::new(PifConfig::default()), RunOptions::new().warmup(100_000));
//! assert!(pif.miss_coverage() > 0.5, "PIF covers most would-be misses");
//! assert!(pif.speedup_over(&base) > 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
mod config;
mod history;
mod index;
mod prefetcher;
mod sab;
mod spatial;
mod temporal;

pub use config::PifConfig;
pub use history::{HistoryBuffer, HistoryEntry, HistoryLookup, HistoryWindow};
pub use index::IndexTable;
pub use prefetcher::Pif;
pub use sab::{Sab, SabPool};
pub use spatial::{SpatialCompactor, TaggedRecord};
pub use temporal::{spatial_tagged, TemporalCompactor};
