//! Recorded real-binary workloads: the bridge between `pif-bintrace`
//! trace files and the sweep grid.
//!
//! A spec built with [`crate::SweepSpec::with_recorded_workloads`] treats
//! its workload names not as synthetic [`pif_workloads::WorkloadProfile`]s
//! but as **recorded traces**: each name `w` resolves to
//! `<trace dir>/w.pift`, a v2 trace file produced by
//! `tracectl record-elf`. The trace directory defaults to
//! `target/bintrace` and is overridden with the `PIF_BINTRACE_DIR`
//! environment variable.
//!
//! One name is special: [`DEMO_WORKLOAD`] (`"bintrace-demo"`). When its
//! file is absent, the workload is synthesized in memory by walking the
//! hand-assembled demo ELF baked into `pif-bintrace` with the default
//! [`pif_bintrace::walk::WalkConfig`]. The walker's determinism contract
//! (the stream is a pure function of the ELF bytes and the config, with a
//! prefix independent of the requested length) makes that fallback
//! **byte-identical** to reading a `tracectl record-elf` recording of the
//! same fixture — so the `fig-bintrace` golden gates both paths, and the
//! registry stays self-contained for tests and fresh checkouts.

use std::fs::File;
use std::io::BufReader;
use std::path::PathBuf;
use std::sync::Arc;

use pif_bintrace::cfg::Cfg;
use pif_bintrace::elf::ElfImage;
use pif_bintrace::fixture;
use pif_bintrace::walk::{WalkConfig, Walker};
use pif_workloads::Trace;

/// The recorded workload that falls back to an in-memory walk of the
/// `pif-bintrace` demo fixture when no trace file has been recorded.
pub const DEMO_WORKLOAD: &str = "bintrace-demo";

/// Environment variable overriding the recorded-trace directory.
pub const TRACE_DIR_ENV: &str = "PIF_BINTRACE_DIR";

/// The directory recorded workload names resolve in:
/// `$PIF_BINTRACE_DIR`, or `target/bintrace` when unset.
pub fn trace_dir() -> PathBuf {
    std::env::var_os(TRACE_DIR_ENV)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/bintrace"))
}

/// The trace file a recorded workload name resolves to.
pub fn trace_path(name: &str) -> PathBuf {
    trace_dir().join(format!("{name}.pift"))
}

/// Loads the recorded trace for workload `name`, truncated to exactly
/// `instructions` records.
///
/// Reads [`trace_path`]`(name)` when it exists; otherwise
/// [`DEMO_WORKLOAD`] synthesizes its stream from the built-in demo ELF
/// and every other name is an error telling the user to record first.
///
/// # Errors
///
/// A human-readable message when the file is missing (non-demo names),
/// fails to decode, or holds fewer than `instructions` records — a short
/// recording silently shrinking the run would invalidate golden
/// comparisons, so it is rejected instead.
pub fn load(name: &str, instructions: usize) -> Result<Trace, String> {
    let path = trace_path(name);
    if path.exists() {
        return load_file(&path, name, instructions);
    }
    if name == DEMO_WORKLOAD {
        return Ok(demo_walk(instructions));
    }
    Err(format!(
        "no recorded trace at {} — record it first with `tracectl record-elf <binary> {}`",
        path.display(),
        path.display()
    ))
}

fn load_file(path: &std::path::Path, name: &str, instructions: usize) -> Result<Trace, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let reader = pif_trace::TraceReader::open(BufReader::new(file))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let mut source = reader.instrs();
    let instrs: Vec<_> = source.by_ref().take(instructions).collect();
    if let Some(e) = source.take_error() {
        return Err(format!("{}: {e}", path.display()));
    }
    if instrs.len() < instructions {
        return Err(format!(
            "{}: {} records, but the run scale needs {instructions} — re-record with `-n {instructions}` or more",
            path.display(),
            instrs.len(),
        ));
    }
    Ok(Trace::new(name, instrs))
}

/// In-memory [`DEMO_WORKLOAD`] stream: a default-config walk of the
/// hand-assembled demo ELF.
fn demo_walk(instructions: usize) -> Trace {
    let image = ElfImage::parse(&fixture::demo_elf()).expect("built-in demo ELF parses");
    let cfg = Arc::new(Cfg::recover(&image));
    let walker = Walker::new(cfg, WalkConfig::default()).expect("demo ELF has walkable code");
    Trace::new(DEMO_WORKLOAD, walker.take(instructions).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_workload_synthesizes_without_a_file() {
        let t = load(DEMO_WORKLOAD, 5_000).expect("fallback walk");
        assert_eq!(t.name(), DEMO_WORKLOAD);
        assert_eq!(t.len(), 5_000);
        // Deterministic: two loads are identical.
        assert_eq!(t, load(DEMO_WORKLOAD, 5_000).unwrap());
    }

    #[test]
    fn unknown_recorded_workload_errors_with_recording_hint() {
        let err = load("no-such-recording", 100).unwrap_err();
        assert!(err.contains("record-elf"), "{err}");
        assert!(err.contains("no-such-recording.pift"), "{err}");
    }

    #[test]
    fn fallback_matches_a_recorded_file_of_the_same_fixture() {
        // The differential contract the fig-bintrace golden rests on:
        // write-then-read of a longer recording equals direct emit.
        let dir = std::env::temp_dir().join(format!("pif-recorded-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo.pift");
        let image = ElfImage::parse(&fixture::demo_elf()).unwrap();
        let cfg = Arc::new(Cfg::recover(&image));
        let walker = Walker::new(cfg, WalkConfig::default()).unwrap();
        let mut writer =
            pif_trace::AtomicTraceWriter::create_default(&path, DEMO_WORKLOAD).unwrap();
        for instr in walker.take(9_000) {
            writer.push(&instr).unwrap();
        }
        writer.finish().unwrap();

        let reread = load_file(&path, DEMO_WORKLOAD, 4_000).unwrap();
        assert_eq!(reread, demo_walk(4_000), "prefix independence violated");
        // A recording shorter than the requested scale is rejected.
        let err = load_file(&path, DEMO_WORKLOAD, 10_000).unwrap_err();
        assert!(err.contains("re-record"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
