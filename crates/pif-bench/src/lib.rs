//! Shared fixtures for the Criterion benchmark suites.
//!
//! Two suites live in `benches/`:
//!
//! * `components` — microbenchmarks of every hardware structure (caches,
//!   predictors, compactors, history buffer, SABs, front end, engine),
//!   plus engine runs of the PIF design ablations;
//! * `trace_codec` — v1/v2 trace encode and decode throughput.
//!
//! Whole figure runs are timed end to end by the repository benchmark
//! (`pifbench/`), not here.

#![warn(missing_docs)]

pub mod report;

use pif_types::RetiredInstr;
use pif_workloads::WorkloadProfile;

/// A standard small OLTP trace used across benchmarks.
pub fn bench_trace(instructions: usize) -> Vec<RetiredInstr> {
    WorkloadProfile::oltp_db2()
        .scaled(0.2)
        .generate(instructions)
        .instrs()
        .to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_produce_data() {
        assert_eq!(bench_trace(1_000).len(), 1_000);
    }
}
