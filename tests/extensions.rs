//! Integration: the extension features work end-to-end — shared predictor
//! storage across cores, trace serialization, and the CMP driver with
//! confidence intervals.

use std::sync::Arc;

use pif_core::shared::{SharedPif, SharedPifStorage};
use pif_core::{Pif, PifConfig};
use pif_sim::multicore::run_cmp;
use pif_sim::{Engine, EngineConfig, NoPrefetcher, RunOptions};
use pif_workloads::WorkloadProfile;

#[test]
fn serialized_traces_drive_identical_simulations() {
    let trace = WorkloadProfile::oltp_oracle().scaled(0.2).generate(100_000);
    let bytes = pif_trace::encode_v2(trace.name(), trace.instrs());
    let (_, restored) = pif_trace::decode(&bytes).expect("round trip");
    let engine = Engine::new(EngineConfig::paper_default());
    let a = engine.run(
        trace.instrs().iter().copied(),
        Pif::new(PifConfig::paper_default()),
        RunOptions::new(),
    );
    let b = engine.run(
        restored.iter().copied(),
        Pif::new(PifConfig::paper_default()),
        RunOptions::new(),
    );
    assert_eq!(a.fetch, b.fetch);
    assert_eq!(a.timing, b.timing);
}

#[test]
fn shared_storage_helps_cores_running_the_same_binary() {
    // Four cores execute different threads of one binary. With private
    // storage each core learns alone; with shared storage they pool what
    // they learn. On short traces the shared configuration must not lose
    // (and typically wins on) coverage.
    let profile = WorkloadProfile::web_apache().scaled(0.3);
    let per_core = 150_000;
    let engine = EngineConfig::paper_default();
    let trace_for = |core: usize| {
        profile
            .generate_with_execution_seed(per_core, core as u64)
            .instrs()
            .to_vec()
    };

    let private = run_cmp(&engine, 4, 0, trace_for, |_| {
        Pif::new(PifConfig::paper_default())
    });
    let storage = Arc::new(SharedPifStorage::new(PifConfig::paper_default()));
    let shared = run_cmp(&engine, 4, 0, trace_for, |_| {
        SharedPif::attach(Arc::clone(&storage))
    });
    assert!(
        shared.miss_coverage().mean >= private.miss_coverage().mean - 0.05,
        "shared {} vs private {}",
        shared.miss_coverage().mean,
        private.miss_coverage().mean
    );
}

#[test]
fn cmp_confidence_intervals_are_reported() {
    let profile = WorkloadProfile::dss_qry2().scaled(0.2);
    let report = run_cmp(
        &EngineConfig::paper_default(),
        8,
        20_000,
        |core| {
            profile
                .generate_with_execution_seed(80_000, core as u64)
                .instrs()
                .to_vec()
        },
        |_| NoPrefetcher,
    );
    let uipc = report.uipc();
    assert!(uipc.mean > 0.0);
    assert!(uipc.ci95 >= 0.0);
    // Independent executions of the same binary should agree reasonably
    // well (the paper targets ±5%; we allow more at this tiny scale).
    assert!(
        uipc.relative_error() < 0.25,
        "relative error {}",
        uipc.relative_error()
    );
}

#[test]
fn execution_seeds_share_the_code_image() {
    let profile = WorkloadProfile::oltp_db2().scaled(0.2);
    let a = profile.generate_with_execution_seed(30_000, 0);
    let b = profile.generate_with_execution_seed(30_000, 1);
    assert_ne!(a.instrs(), b.instrs(), "different interleavings");
    // Same binary: block sets overlap heavily.
    let blocks = |t: &pif_workloads::Trace| {
        let mut v: Vec<u64> = t.instrs().iter().map(|i| i.pc.block().number()).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let (ba, bb) = (blocks(&a), blocks(&b));
    let common = ba.iter().filter(|x| bb.binary_search(x).is_ok()).count();
    assert!(
        common as f64 / ba.len() as f64 > 0.4,
        "only {common}/{} blocks shared",
        ba.len()
    );
}
