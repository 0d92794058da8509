//! The engine-throughput harness and its CI trend gate.
//!
//! * [`report`] — the `pif-bench-engine/v2` report: rendering,
//!   validation, the `--smoke` floor verdict and the trend comparison;
//! * `perfbench` — measures engine throughput per prefetcher and writes
//!   `BENCH_engine.json`;
//! * `perftrend` — compares a fresh `perfbench` report against the
//!   committed baseline.
//!
//! Whole figure runs are timed end to end, and per layer, by the
//! repository benchmark (`pifbench/`), not here.

#![warn(missing_docs)]

pub mod report;
