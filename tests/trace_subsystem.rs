//! End-to-end tests of the trace subsystem: golden byte fixtures,
//! out-of-core simulation through `Engine::run`, the v2 compression
//! target, simulations over a decoded trace, and the execution seeds that
//! vary a trace over one code image.
//!
//! The v2 fixture pins the on-disk byte layout: if the codec changes it,
//! these tests fail before any archived trace out in the world stops
//! decoding. Its bytes are reproduced by `cargo run -p pif-trace
//! --example dump_golden`. The v1 fixture pins the retired layout's
//! rejection: every entry point fails with the typed version error.

use std::io::{BufReader, BufWriter, Cursor};

use pif_repro::prelude::*;
use pif_repro::trace::{decode, scan_info, TraceDecodeError};
use pif_types::{BranchInfo, BranchKind};

fn golden_instrs() -> Vec<RetiredInstr> {
    vec![
        RetiredInstr::simple(Address::new(0x40_0000), TrapLevel::Tl0),
        RetiredInstr::branch(
            Address::new(0x40_0004),
            TrapLevel::Tl0,
            BranchInfo {
                kind: BranchKind::Call,
                taken: true,
                taken_target: Address::new(0x40_1000),
                fall_through: Address::new(0x40_0008),
            },
        ),
        RetiredInstr::simple(Address::new(0x40_1000), TrapLevel::Tl1),
    ]
}

/// The retired v1 encoding of [`golden_instrs`], laid out by hand:
/// magic, version 1, name, u64 count, then 10- or 28-byte records.
fn golden_v1_bytes() -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(b"PIFT");
    b.extend_from_slice(&1u32.to_le_bytes());
    b.extend_from_slice(&6u32.to_le_bytes());
    b.extend_from_slice(b"golden");
    b.extend_from_slice(&3u64.to_le_bytes());
    // Record 1: simple @ 0x40_0000, TL0.
    b.extend_from_slice(&0x40_0000u64.to_le_bytes());
    b.extend_from_slice(&[0, 0]);
    // Record 2: taken call @ 0x40_0004 → 0x40_1000, fall 0x40_0008.
    b.extend_from_slice(&0x40_0004u64.to_le_bytes());
    b.extend_from_slice(&[0, 1, 2, 1]);
    b.extend_from_slice(&0x40_1000u64.to_le_bytes());
    b.extend_from_slice(&0x40_0008u64.to_le_bytes());
    // Record 3: simple @ 0x40_1000, TL1.
    b.extend_from_slice(&0x40_1000u64.to_le_bytes());
    b.extend_from_slice(&[1, 0]);
    b
}

/// The v2 encoding of [`golden_instrs`]: one chunk of three
/// delta/varint records plus the terminator.
const GOLDEN_V2_BYTES: &[u8] = &[
    0x50, 0x49, 0x46, 0x54, // magic "PIFT"
    0x02, 0x00, 0x00, 0x00, // version 2
    0x06, 0x00, 0x00, 0x00, // name length
    0x67, 0x6f, 0x6c, 0x64, 0x65, 0x6e, // "golden"
    0x03, 0x00, 0x00, 0x00, // chunk: 3 records
    0x0c, 0x00, 0x00, 0x00, // chunk: 12 payload bytes
    0x00, 0x80, 0x80, 0x80, 0x04, // simple, Δpc = +0x40_0000
    0xd4, 0x08, 0xf8, 0x3f, // taken call, Δpc = +4, Δtarget, implicit fall
    0x01, 0xf8, 0x3f, // simple TL1, Δpc
    0x00, 0x00, 0x00, 0x00, // terminator marker
    0x08, 0x00, 0x00, 0x00, // terminator payload length
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // total = 3
];

#[test]
fn golden_v1_fixture_is_rejected_everywhere() {
    let bytes = golden_v1_bytes();
    let bad_version = Some(TraceDecodeError::BadVersion(1));
    assert_eq!(decode(&bytes).err(), bad_version);
    assert_eq!(TraceReader::open(bytes.as_slice()).err(), bad_version);
    assert_eq!(
        TraceReader::open_indexed(Cursor::new(&bytes)).err(),
        bad_version
    );
    assert_eq!(scan_info(Cursor::new(&bytes)).err(), bad_version);
}

#[test]
fn golden_v2_fixture_is_byte_stable() {
    assert_eq!(
        pif_repro::trace::encode_v2("golden", &golden_instrs()),
        GOLDEN_V2_BYTES,
        "v2 byte layout changed — archived traces would stop decoding"
    );
    let (name, instrs) = decode(GOLDEN_V2_BYTES).unwrap();
    assert_eq!(name, "golden");
    assert_eq!(instrs, golden_instrs());
    let info = scan_info(Cursor::new(GOLDEN_V2_BYTES)).unwrap();
    assert_eq!((info.records, info.chunks), (3, 1));
    assert_eq!(info.bytes, GOLDEN_V2_BYTES.len() as u64);
}

#[test]
fn generated_traces_decode_via_streaming_reader() {
    let trace = WorkloadProfile::dss_qry17().scaled(0.05).generate(20_000);
    let mut writer = TraceWriter::with_chunk_records(Vec::new(), trace.name(), 1024).unwrap();
    writer.extend(trace.instrs().iter().copied()).unwrap();
    let bytes = writer.finish().unwrap();
    let mut source = TraceReader::open(bytes.as_slice()).unwrap().instrs();
    let streamed: Vec<_> = source.by_ref().collect();
    assert!(source.error().is_none());
    assert_eq!(streamed.as_slice(), trace.instrs());
}

#[test]
fn v2_is_at_least_2x_smaller_than_v1_on_oltp_db2() {
    let trace = WorkloadProfile::oltp_db2().scaled(0.2).generate(100_000);
    // v1's size from its layout: header, u64 count, then 10 bytes per
    // plain record and 28 per branch.
    let v1_len: usize = 4
        + 4
        + 4
        + trace.name().len()
        + 8
        + trace
            .instrs()
            .iter()
            .map(|i| if i.branch.is_some() { 28 } else { 10 })
            .sum::<usize>();
    let v2 = pif_repro::trace::encode_v2(trace.name(), trace.instrs());
    assert!(
        v2.len() * 2 <= v1_len,
        "v2 {} bytes vs v1 {} bytes ({:.2}x)",
        v2.len(),
        v1_len,
        v1_len as f64 / v2.len() as f64
    );
}

/// Record a workload to disk streaming, then simulate it out of core:
/// generator → TraceWriter → file → TraceReader → Engine::run,
/// with no full `Vec<RetiredInstr>` on either side of the disk.
#[test]
fn record_to_disk_then_simulate_out_of_core() {
    let instructions = 120_000;
    let profile = WorkloadProfile::oltp_db2().scaled(0.1);
    let path = std::env::temp_dir().join(format!("pif-trace-e2e-{}.pift", std::process::id()));

    // Record: stream the generator straight into the compressed writer.
    let file = std::fs::File::create(&path).unwrap();
    let mut writer = TraceWriter::new(BufWriter::new(file), profile.name()).unwrap();
    let mut io_err = None;
    profile.generate_into(instructions, |instr| {
        if io_err.is_none() {
            io_err = writer.push(&instr).err();
        }
    });
    assert!(io_err.is_none(), "{io_err:?}");
    assert_eq!(writer.records_written(), instructions as u64);
    writer.finish().unwrap();

    // Replay from disk, one chunk at a time.
    let file = std::fs::File::open(&path).unwrap();
    let mut source = TraceReader::open(BufReader::new(file)).unwrap().instrs();
    let engine = Engine::new(EngineConfig::paper_default());
    let from_disk = engine.run(
        &mut source,
        Pif::new(PifConfig::paper_default()),
        RunOptions::new(),
    );
    assert!(source.error().is_none());

    // Reference: the fully materialized path.
    let reference = engine.run(
        profile.generate(instructions).instrs().iter().copied(),
        Pif::new(PifConfig::paper_default()),
        RunOptions::new(),
    );
    assert_eq!(from_disk.fetch, reference.fetch);
    assert_eq!(from_disk.timing, reference.timing);
    assert_eq!(from_disk.frontend, reference.frontend);

    std::fs::remove_file(&path).ok();
}

/// The acceptance-scale run: a 10M-instruction OLTP-DB2 trace recorded
/// to disk and simulated via `Engine::run` without materializing it.
/// Ignored by default (minutes of work); run with `cargo test -q
/// --test trace_subsystem -- --ignored`.
#[test]
#[ignore = "acceptance-scale (10M instructions); run explicitly"]
fn ten_million_instruction_oltp_trace_out_of_core() {
    let instructions = 10_000_000;
    let profile = WorkloadProfile::oltp_db2();
    let path = std::env::temp_dir().join(format!("pif-trace-10m-{}.pift", std::process::id()));
    let file = std::fs::File::create(&path).unwrap();
    let mut writer = TraceWriter::new(BufWriter::new(file), profile.name()).unwrap();
    let mut io_err = None;
    profile.generate_into(instructions, |instr| {
        if io_err.is_none() {
            io_err = writer.push(&instr).err();
        }
    });
    assert!(io_err.is_none(), "{io_err:?}");
    writer.finish().unwrap();

    let bytes = std::fs::metadata(&path).unwrap().len();
    assert!(
        bytes < instructions as u64 * 13 / 2,
        "{bytes} bytes is not ≥2x smaller than a v1 encoding"
    );

    let file = std::fs::File::open(&path).unwrap();
    let mut source = TraceReader::open(BufReader::new(file)).unwrap().instrs();
    let report = Engine::new(EngineConfig::paper_default()).run(
        &mut source,
        Pif::new(PifConfig::paper_default()),
        RunOptions::new(),
    );
    assert!(source.error().is_none());
    assert_eq!(report.frontend.instructions, instructions as u64);
    std::fs::remove_file(&path).ok();
}

#[test]
fn serialized_traces_drive_identical_simulations() {
    let trace = WorkloadProfile::oltp_oracle().scaled(0.2).generate(100_000);
    let bytes = pif_repro::trace::encode_v2(trace.name(), trace.instrs());
    let (_, restored) = decode(&bytes).expect("round trip");
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
fn execution_seeds_share_the_code_image() {
    let profile = WorkloadProfile::oltp_db2().scaled(0.2);
    let a = profile.generate_with_execution_seed(30_000, 0);
    let b = profile.generate_with_execution_seed(30_000, 1);
    assert_ne!(a.instrs(), b.instrs(), "different interleavings");
    // Same binary: block sets overlap heavily.
    let blocks = |t: &Trace| {
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

#[test]
fn corrupt_files_error_cleanly_not_loudly() {
    // An empty file, a bad magic, and an absurd chunk record count all
    // yield typed errors (comparable without matches! boilerplate).
    assert!(decode(&[]).is_err());
    assert_eq!(
        TraceReader::open(&b"XXXX\x01\x00\x00\x00"[..]).err(),
        Some(TraceDecodeError::BadMagic)
    );
    let mut absurd = Vec::new();
    absurd.extend_from_slice(b"PIFT");
    absurd.extend_from_slice(&2u32.to_le_bytes());
    absurd.extend_from_slice(&0u32.to_le_bytes());
    absurd.extend_from_slice(&1_000_000u32.to_le_bytes());
    absurd.extend_from_slice(&0u32.to_le_bytes());
    assert_eq!(
        decode(&absurd).err(),
        Some(TraceDecodeError::Corrupt("record count exceeds payload"))
    );
}
