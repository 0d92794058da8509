//! End-to-end tests of the `tracectl` binary: exit-code and printed-line
//! contracts a library unit test cannot see.
//!
//! Each test works in its own temp directory and spawns the compiled
//! binary via `CARGO_BIN_EXE_tracectl`.

use std::path::PathBuf;
use std::process::{Command, Output};

use pif_workloads::WorkloadProfile;

fn tracectl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tracectl"))
        .args(args)
        .output()
        .expect("tracectl spawns")
}

fn ok(args: &[&str]) -> String {
    let out = tracectl(args);
    assert!(
        out.status.success(),
        "tracectl {args:?} exited {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr),
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tracectl-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn v1_files_are_rejected_naming_their_version() {
    // The retired fixed-width v1 layout: header, then a u64 record count
    // (zero records here). Every reading verb exits 1 with the typed
    // version error instead of misreading the file.
    let dir = tmp_dir("v1-rejected");
    let trace = dir.join("t.pift");
    let mut v1 = b"PIFT".to_vec();
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(b"x");
    v1.extend_from_slice(&0u64.to_le_bytes());
    std::fs::write(&trace, v1).unwrap();
    let trace = trace.to_str().unwrap();
    for args in [
        &["info", trace][..],
        &["info", trace, "--chunks"],
        &["head", trace],
        &["hash", trace],
    ] {
        let out = tracectl(args);
        assert_eq!(out.status.code(), Some(1), "tracectl {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unsupported trace version 1"),
            "tracectl {args:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `record` end to end: the file holds the generator's records, and
/// `info` and `hash` agree with them on record count, chunking and
/// content hash.
#[test]
fn recorded_trace_keeps_records_count_and_hash() {
    let dir = tmp_dir("record");
    let trace = dir.join("t.pift");
    let trace = trace.to_str().unwrap();
    ok(&[
        "record", "web-zeus", trace, "-n", "3000", "--scale", "0.05", "--chunk", "256",
    ]);
    let generated = WorkloadProfile::web_zeus().scaled(0.05).generate(3_000);

    let (name, instrs) = pif_trace::decode(&std::fs::read(trace).unwrap()).unwrap();
    assert_eq!(name, generated.name());
    assert_eq!(instrs.as_slice(), generated.instrs());

    let line = |out: &str, key: &str| {
        out.lines()
            .find(|l| l.starts_with(key))
            .unwrap_or_else(|| panic!("no {key:?} line in {out}"))
            .to_string()
    };
    let info = ok(&["info", trace]);
    assert!(info.contains("version:       2"), "{info}");
    assert_eq!(line(&info, "records:"), "records:       3000");
    assert!(line(&info, "chunks:").ends_with(" 12"), "{info}");

    let digest = ok(&["hash", trace])
        .split_whitespace()
        .next()
        .unwrap()
        .to_string();
    let expected = format!(
        "{:016x}",
        pif_trace::content_hash(generated.instrs().iter().copied())
    );
    assert_eq!(digest, expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_trace_info_and_head_exit_cleanly() {
    // A 0-record trace is a legal file (e.g. a recording truncated by
    // `-n 0`); inspection verbs must handle it without dividing by zero
    // or erroring.
    let dir = tmp_dir("empty");
    let trace = dir.join("empty.pift");
    let trace = trace.to_str().unwrap();
    ok(&["record", "oltp-db2", trace, "-n", "0"]);

    let stdout = ok(&["info", trace, "--chunks"]);
    assert!(stdout.contains("records:       0"), "{stdout}");
    assert!(stdout.contains("bytes/record:  0.00"), "{stdout}");

    let stdout = ok(&["head", trace]);
    assert!(stdout.contains("OLTP-DB2 (v2)"), "{stdout}");
    assert_eq!(stdout.lines().count(), 1, "no record lines: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn same_seed_record_elf_runs_are_byte_identical() {
    // The determinism contract `record-elf` advertises, checked at the
    // CLI boundary: same binary + same seed → identical files on disk.
    let dir = tmp_dir("diff");
    let elf = dir.join("demo.elf");
    let elf = elf.to_str().unwrap();
    ok(&["gen-elf", elf]);
    let a = dir.join("a.pift");
    let b = dir.join("b.pift");
    for out in [&a, &b] {
        ok(&[
            "record-elf",
            elf,
            out.to_str().unwrap(),
            "-n",
            "20000",
            "--seed",
            "7",
        ]);
    }
    let bytes_a = std::fs::read(&a).unwrap();
    assert!(!bytes_a.is_empty());
    assert_eq!(bytes_a, std::fs::read(&b).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}
