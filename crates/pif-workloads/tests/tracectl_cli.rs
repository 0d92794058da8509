//! End-to-end tests of the `tracectl` binary: exit-code and printed-line
//! contracts a library unit test cannot see.
//!
//! Each test works in its own temp directory and spawns the compiled
//! binary via `CARGO_BIN_EXE_tracectl`.

use std::path::PathBuf;
use std::process::{Command, Output};

use pif_trace::codec::encode_v1;
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
fn v1_info_chunks_says_no_index_and_exits_zero() {
    // `info --chunks` on a v1 file must not error out: v1 simply has no
    // random-access table, and the tool says so on a clear line.
    let dir = tmp_dir("v1-chunks");
    let trace = dir.join("t.pift");
    let generated = WorkloadProfile::oltp_db2().generate(400);
    std::fs::write(&trace, encode_v1(generated.name(), generated.instrs())).unwrap();
    let trace = trace.to_str().unwrap();
    let stdout = ok(&["info", trace, "--chunks"]);
    assert!(stdout.contains("version:       1"), "{stdout}");
    assert!(
        stdout.contains("v1 files are unchunked; no random-access table"),
        "{stdout}"
    );
    // ...and no chunk-table header was printed after it.
    assert!(!stdout.contains("FIRST_REC"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The v1 upgrade path end to end: `convert` rewrites a generated v1
/// file as v2 with the same records, and `info` and `hash` agree on the
/// record count and content hash of both files.
#[test]
fn converted_v1_trace_keeps_records_count_and_hash() {
    let dir = tmp_dir("v1-convert");
    let v1 = dir.join("t.v1.pift");
    let v2 = dir.join("t.v2.pift");
    let generated = WorkloadProfile::web_zeus().scaled(0.05).generate(3_000);
    std::fs::write(&v1, encode_v1(generated.name(), generated.instrs())).unwrap();
    let (v1, v2) = (v1.to_str().unwrap(), v2.to_str().unwrap());
    ok(&["convert", v1, v2, "--chunk", "256"]);

    let (name, instrs) = pif_trace::decode(&std::fs::read(v2).unwrap()).unwrap();
    assert_eq!(name, generated.name());
    assert_eq!(instrs.as_slice(), generated.instrs());

    let line = |out: &str, key: &str| {
        out.lines()
            .find(|l| l.starts_with(key))
            .unwrap_or_else(|| panic!("no {key:?} line in {out}"))
            .to_string()
    };
    let (info1, info2) = (ok(&["info", v1]), ok(&["info", v2]));
    assert!(info1.contains("version:       1"), "{info1}");
    assert!(info2.contains("version:       2"), "{info2}");
    assert_eq!(line(&info1, "records:"), "records:       3000");
    assert_eq!(line(&info2, "records:"), "records:       3000");
    assert!(line(&info2, "chunks:").ends_with(" 12"), "{info2}");

    let digest = |path: &str| {
        ok(&["hash", path])
            .split_whitespace()
            .next()
            .unwrap()
            .to_string()
    };
    let expected = format!(
        "{:016x}",
        pif_trace::content_hash(generated.instrs().iter().copied())
    );
    assert_eq!(digest(v1), expected);
    assert_eq!(digest(v2), expected);
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
