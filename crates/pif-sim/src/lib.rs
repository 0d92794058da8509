//! Trace-driven microarchitecture substrate for the Proactive Instruction
//! Fetch reproduction.
//!
//! The paper evaluates PIF on Flexus, a cycle-accurate full-system SPARC
//! simulator. This crate rebuilds the parts of that substrate that the
//! paper's phenomena actually depend on:
//!
//! * a **set-associative LRU cache model** ([`cache`]), used for the
//!   64 KB 2-way L1-I and the L2 slice — the component that *filters and
//!   fragments* the miss stream (paper §2.1);
//! * a **branch predictor** ([`bpred`]: 16K gshare + 16K bimodal hybrid,
//!   BTB, return address stack) driving the **front-end model**
//!   ([`frontend`]) that injects *wrong-path noise* into the fetch-access
//!   stream (paper §2.2);
//! * **prefetcher plumbing** ([`prefetch`]): the [`Prefetcher`] trait every
//!   prefetcher (PIF and baselines) implements, plus an in-flight prefetch
//!   queue with latency. The request path is *sink-style*: hooks write
//!   prefetch requests into an engine-owned reusable buffer via
//!   [`PrefetchContext::prefetch`], and the queue drains through a
//!   callback — the steady-state loop performs no per-event heap
//!   allocation (`PrefetcherHarness::drive` accordingly returns a borrow
//!   of the reused buffer rather than a fresh `Vec`);
//! * the **engine** ([`engine`]) that drives a retire-order trace through
//!   front end → L1-I → prefetcher and collects statistics, with an
//!   opt-in instrumentation layer ([`probe`]): a [`Probe`] observes
//!   fetch-stall breakdowns, queue occupancy, and prefetcher gauges,
//!   while the [`NoProbe`] default monomorphizes to nothing;
//! * a **fetch-stall timing model** ([`timing`]) turning miss/stall counts
//!   into cycles and UIPC, the paper's throughput metric;
//! * the **temporal-stream predictor evaluation harness**
//!   ([`predictor_eval`]) used for the paper's trace-based coverage studies
//!   (Figures 2, 7, 8, 9);
//! * **sampled simulation** ([`sampling`]): SimFlex/SMARTS-style plans
//!   (per-sample functional warmup + detailed measurement windows) with
//!   random access into compressed traces via `pif_trace`'s chunk index,
//!   reporting per-sample UIPC/MPKI at a 95% confidence level (§5's
//!   measurement methodology).
//!
//! # Example
//!
//! ```
//! use pif_sim::{Engine, EngineConfig, NoPrefetcher, RunOptions};
//! use pif_types::{Address, RetiredInstr, TrapLevel};
//!
//! // A tiny synthetic trace: a loop over 4 blocks.
//! let mut trace = Vec::new();
//! for _ in 0..100 {
//!     for blk in 0..4u64 {
//!         trace.push(RetiredInstr::simple(Address::new(blk * 64), TrapLevel::Tl0));
//!     }
//! }
//! let report = Engine::new(EngineConfig::paper_default()).run(trace.iter().copied(), NoPrefetcher, RunOptions::new());
//! assert!(report.fetch.demand_misses <= 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bpred;
pub mod cache;
mod config;
pub mod engine;
pub mod frontend;
pub mod predictor_eval;
pub mod prefetch;
pub mod probe;
pub mod sampling;
pub mod stats;
pub mod streams;
pub mod timing;

pub use config::{EngineConfig, FrontendConfig, ICacheConfig, L2Config, TimingConfig};
pub use engine::{Engine, RunOptions, RunReport};
pub use prefetch::{NoPrefetcher, PrefetchContext, Prefetcher, PrefetcherHarness};
pub use probe::{EngineProbe, NoProbe, Probe, StallKind};
pub use stats::{FetchStats, FrontendStats, Log2Histogram, PrefetchStats};
