//! Acceptance tests for the sampled-simulation subsystem: the sampled
//! estimator must agree with the exhaustive run it replaces, and be
//! dramatically cheaper.
//!
//! Both tests are `#[ignore]`d (about 6 s of release-mode work over a
//! 10M-instruction trace on a 2-vCPU host, recording included); CI's
//! scheduled `acceptance` job runs them with `cargo test --release --
//! --ignored` and uploads the comparison artifact written by
//! `differential_sampled_vs_exhaustive_all_prefetchers`.
//!
//! Methodology (see `pif_sim::sampling`): seeded-random windows,
//! per-sample functional warmup, checkpoint-warmed L2, continuous
//! predictor warming across windows, burn-in of the coldest leading
//! windows. These plans are the only ones validated against an
//! exhaustive run: `fig-sampling`'s per-window warming is not (README,
//! "Sampled simulation"). Two plans are exercised:
//!
//! * the **accuracy plan** (28 × (150k + 40k), burn-in 8) — the
//!   differential test: sampled UIPC within its own reported ci95 of the
//!   exhaustive value for all 6 prefetchers, and relative error < 5%;
//! * the **efficiency plan** (30 × (30k + 10k)) — the speed test:
//!   ≥ 5× faster wall-clock than exhaustive while the estimate still
//!   lands within its own ci95.

use std::io::{BufReader, BufWriter, Write as _};
use std::time::Instant;

use pif_repro::prelude::*;
use pif_sim::sampling::{sample_trace_file, SamplingPlan};

const INSTRUCTIONS: usize = 10_000_000;

/// Records the 10M-instruction OLTP-DB2 trace once per process. Both
/// tests run concurrently in the same binary, so generation is guarded
/// by a `OnceLock` — a bare `path.exists()` check would let the second
/// test read a half-written file.
fn trace_path() -> std::path::PathBuf {
    static PATH: std::sync::OnceLock<std::path::PathBuf> = std::sync::OnceLock::new();
    PATH.get_or_init(|| {
        let path = std::env::temp_dir().join(format!(
            "pif-sampled-acceptance-{}-{}.pift",
            INSTRUCTIONS,
            std::process::id()
        ));
        let profile = WorkloadProfile::oltp_db2();
        let file = std::fs::File::create(&path).unwrap();
        let mut writer = TraceWriter::new(BufWriter::new(file), profile.name()).unwrap();
        let mut io_err = None;
        profile.generate_into(INSTRUCTIONS, |instr| {
            if io_err.is_none() {
                io_err = writer.push(&instr).err();
            }
        });
        assert!(io_err.is_none(), "{io_err:?}");
        writer.finish().unwrap();
        path
    })
    .clone()
}

fn exhaustive(
    engine: &Engine,
    path: &std::path::Path,
    prefetcher: impl Prefetcher,
) -> (RunReport, f64) {
    let t0 = Instant::now();
    let file = std::fs::File::open(path).unwrap();
    let mut source = TraceReader::open(BufReader::new(file)).unwrap().instrs();
    let report = engine.run(
        &mut source,
        prefetcher,
        RunOptions::new().warmup(INSTRUCTIONS * 3 / 10),
    );
    assert!(source.error().is_none());
    (report, t0.elapsed().as_secs_f64())
}

struct Comparison {
    prefetcher: &'static str,
    exhaustive_uipc: f64,
    exhaustive_s: f64,
    sampled_mean: f64,
    sampled_ci95: f64,
    rel_err: f64,
    sampled_s: f64,
}

fn compare<P: Prefetcher>(
    engine: &Engine,
    path: &std::path::Path,
    plan: &SamplingPlan,
    mut mk: impl FnMut() -> P,
) -> Comparison {
    let (ex, ex_s) = exhaustive(engine, path, mk());
    let t0 = Instant::now();
    let sampled = sample_trace_file(engine.config(), plan, path, |_| mk()).unwrap();
    let sampled_s = t0.elapsed().as_secs_f64();
    let uipc = sampled.uipc();
    Comparison {
        prefetcher: ex.prefetcher,
        exhaustive_uipc: ex.timing.uipc(),
        exhaustive_s: ex_s,
        sampled_mean: uipc.mean,
        sampled_ci95: uipc.ci95,
        rel_err: uipc.relative_error(),
        sampled_s,
    }
}

fn write_artifact(rows: &[Comparison], plan: &SamplingPlan) {
    let dir = std::path::Path::new("target");
    std::fs::create_dir_all(dir).ok();
    let mut f = std::fs::File::create(dir.join("sampled_vs_exhaustive.json")).unwrap();
    let mut s = String::from("{\n  \"schema\": \"pif-sampled-acceptance/v1\",\n");
    s.push_str(&format!("  \"instructions\": {INSTRUCTIONS},\n"));
    s.push_str(&format!(
        "  \"plan\": {{\"samples\": {}, \"warmup_instrs\": {}, \"measure_instrs\": {}, \"burn_in\": {}}},\n",
        plan.samples, plan.warmup_instrs, plan.measure_instrs, plan.burn_in
    ));
    s.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"prefetcher\": \"{}\", \"exhaustive_uipc\": {:.6}, \"exhaustive_s\": {:.3}, \
             \"sampled_uipc\": {:.6}, \"sampled_ci95\": {:.6}, \"rel_err\": {:.6}, \
             \"sampled_s\": {:.3}, \"within_ci95\": {}}}{}\n",
            r.prefetcher,
            r.exhaustive_uipc,
            r.exhaustive_s,
            r.sampled_mean,
            r.sampled_ci95,
            r.rel_err,
            r.sampled_s,
            (r.sampled_mean - r.exhaustive_uipc).abs() <= r.sampled_ci95,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    f.write_all(s.as_bytes()).unwrap();
}

fn run_all(plan: &SamplingPlan) -> Vec<Comparison> {
    let engine = Engine::new(EngineConfig::paper_default());
    let path = trace_path();
    vec![
        compare(&engine, &path, plan, || NoPrefetcher),
        compare(
            &engine,
            &path,
            plan,
            || Pif::new(PifConfig::paper_default()),
        ),
        compare(&engine, &path, plan, NextLinePrefetcher::aggressive),
        compare(&engine, &path, plan, || Tifs::new(Default::default())),
        compare(&engine, &path, plan, DiscontinuityPrefetcher::paper_scale),
        compare(&engine, &path, plan, || PerfectICache),
    ]
}

/// The differential test: at the accuracy plan, every prefetcher's
/// sampled UIPC lands within its own reported ci95 of the exhaustive
/// value, with < 5% relative error (the paper's §5 target).
#[test]
#[ignore = "acceptance-scale (10M instructions x 12 runs); run with --ignored --release"]
fn differential_sampled_vs_exhaustive_all_prefetchers() {
    let plan = SamplingPlan::random(28, 0x9a3f, 150_000, 40_000).with_burn_in(8);
    let rows = run_all(&plan);
    write_artifact(&rows, &plan);
    let mut failures = Vec::new();
    for r in &rows {
        let delta = (r.sampled_mean - r.exhaustive_uipc).abs();
        println!(
            "{:<14} exhaustive={:.4} sampled={:.4} ±{:.4} (rel {:.1}%) [{:.2}s vs {:.2}s]",
            r.prefetcher,
            r.exhaustive_uipc,
            r.sampled_mean,
            r.sampled_ci95,
            100.0 * r.rel_err,
            r.exhaustive_s,
            r.sampled_s,
        );
        if delta > r.sampled_ci95 {
            failures.push(format!(
                "{}: |{:.4} - {:.4}| = {delta:.4} > ci95 {:.4}",
                r.prefetcher, r.sampled_mean, r.exhaustive_uipc, r.sampled_ci95
            ));
        }
        if r.rel_err >= 0.05 {
            failures.push(format!("{}: rel_err {:.3} >= 5%", r.prefetcher, r.rel_err));
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

/// The speed test: at the efficiency plan, the sampled run is ≥ 5×
/// faster wall-clock than exhaustive while its UIPC estimate still lands
/// within its own reported ci95 of the exhaustive value.
#[test]
#[ignore = "acceptance-scale (10M instructions); run with --ignored --release"]
fn sampled_run_is_5x_faster_within_ci95() {
    let engine = Engine::new(EngineConfig::paper_default());
    let path = trace_path();
    let plan = SamplingPlan::random(30, 0x9a3f, 30_000, 10_000);
    let r = compare(&engine, &path, &plan, || NoPrefetcher);
    println!(
        "exhaustive {:.4} in {:.2}s; sampled {:.4} ±{:.4} in {:.2}s ({:.1}x)",
        r.exhaustive_uipc,
        r.exhaustive_s,
        r.sampled_mean,
        r.sampled_ci95,
        r.sampled_s,
        r.exhaustive_s / r.sampled_s
    );
    assert!(
        (r.sampled_mean - r.exhaustive_uipc).abs() <= r.sampled_ci95,
        "estimate must land within its own ci95"
    );
    // Wall-clock assertions only mean something in release builds.
    if cfg!(debug_assertions) {
        eprintln!("debug build: skipping the wall-clock speedup assertion");
        return;
    }
    assert!(
        r.exhaustive_s >= 5.0 * r.sampled_s,
        "sampled must be >=5x faster: exhaustive {:.2}s vs sampled {:.2}s",
        r.exhaustive_s,
        r.sampled_s
    );
}
