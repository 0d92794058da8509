//! Acceptance test for the real-ELF trace frontend: record a
//! 10M-instruction `pif-bintrace` walk of a **real binary** — this very
//! test executable — and assert the sampled estimator agrees with the
//! exhaustive run over it.
//!
//! The synthetic-workload differential (`sampled_acceptance.rs`) proves
//! the estimator on generated control flow; this one proves it on a
//! compiler-produced code layout with tens of thousands of recovered
//! basic blocks, where block sizes, branch densities, and working-set
//! shape are whatever rustc emitted, not what a generator chose.
//!
//! `#[ignore]`d like its sibling (a few seconds of release-mode work on a
//! 2-vCPU host); CI's scheduled `acceptance` job runs it with `--ignored
//! --release` and uploads `target/bintrace_sampled_vs_exhaustive.json`.

use std::io::{BufReader, BufWriter, Write as _};
use std::sync::Arc;
use std::time::Instant;

use pif_repro::bintrace::cfg::Cfg;
use pif_repro::bintrace::elf::ElfImage;
use pif_repro::bintrace::walk::{WalkConfig, Walker};
use pif_repro::prelude::*;
use pif_repro::sim::sampling::{sample_trace_file, SamplingPlan};

const INSTRUCTIONS: usize = 10_000_000;

/// Records the 10M-record walk of the current test executable once per
/// process (both assertions below share it).
fn trace_path() -> std::path::PathBuf {
    static PATH: std::sync::OnceLock<std::path::PathBuf> = std::sync::OnceLock::new();
    PATH.get_or_init(|| {
        let exe = std::env::current_exe().expect("test executable path");
        let bytes = std::fs::read(&exe).expect("test executable readable");
        let image = ElfImage::parse(&bytes).expect("test executable is a loadable ELF64");
        let cfg = Arc::new(Cfg::recover(&image));
        println!(
            "recorded binary: {} ({} blocks, {} static instrs)",
            exe.display(),
            cfg.block_count(),
            cfg.insn_count(),
        );
        assert!(
            cfg.block_count() > 1_000,
            "a real test binary recovers a large CFG, got {} blocks",
            cfg.block_count()
        );
        let walker = Walker::new(cfg, WalkConfig::default()).expect("binary has walkable code");

        let path = std::env::temp_dir().join(format!(
            "pif-bintrace-acceptance-{}-{}.pift",
            INSTRUCTIONS,
            std::process::id()
        ));
        let file = std::fs::File::create(&path).unwrap();
        let mut writer = TraceWriter::new(BufWriter::new(file), "current-exe").unwrap();
        let mut io_err = None;
        for instr in walker.take(INSTRUCTIONS) {
            if io_err.is_none() {
                io_err = writer.push(&instr).err();
            }
        }
        assert!(io_err.is_none(), "{io_err:?}");
        writer.finish().unwrap();
        path
    })
    .clone()
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
    let t0 = Instant::now();
    let file = std::fs::File::open(path).unwrap();
    let mut source = TraceReader::open(BufReader::new(file)).unwrap().instrs();
    let ex = engine.run(
        &mut source,
        mk(),
        RunOptions::new().warmup(INSTRUCTIONS * 3 / 10),
    );
    assert!(source.error().is_none());
    let exhaustive_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let sampled = sample_trace_file(engine.config(), plan, path, |_| mk()).unwrap();
    let sampled_s = t0.elapsed().as_secs_f64();
    let uipc = sampled.uipc();
    Comparison {
        prefetcher: ex.prefetcher,
        exhaustive_uipc: ex.timing.uipc(),
        exhaustive_s,
        sampled_mean: uipc.mean,
        sampled_ci95: uipc.ci95,
        rel_err: uipc.relative_error(),
        sampled_s,
    }
}

fn write_artifact(rows: &[Comparison], plan: &SamplingPlan) {
    let dir = std::path::Path::new("target");
    std::fs::create_dir_all(dir).ok();
    let mut f = std::fs::File::create(dir.join("bintrace_sampled_vs_exhaustive.json")).unwrap();
    let mut s = String::from("{\n  \"schema\": \"pif-bintrace-acceptance/v1\",\n");
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

/// The differential: at the accuracy plan, every prefetcher's sampled
/// UIPC over the real-binary walk lands within its own reported ci95 of
/// the exhaustive value, with < 5% relative error — the same bar the
/// synthetic-workload acceptance test sets.
#[test]
#[ignore = "acceptance-scale (10M-instruction ELF walk); run with --ignored --release"]
fn sampled_agrees_with_exhaustive_on_a_real_binary_walk() {
    let engine = Engine::new(EngineConfig::paper_default());
    let path = trace_path();
    let plan = SamplingPlan::random(28, 0x9a3f, 150_000, 40_000).with_burn_in(8);
    let rows = vec![
        compare(&engine, &path, &plan, || NoPrefetcher),
        compare(&engine, &path, &plan, || {
            Pif::new(PifConfig::paper_default())
        }),
        compare(&engine, &path, &plan, || Tifs::new(Default::default())),
    ];
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
    let _ = std::fs::remove_file(trace_path());
}
