//! Differential proptests: the batched chunk decode behind
//! [`TraceReader`] must equal a record-at-a-time reference decode built
//! directly on `decode_record` — over arbitrary chunk contents and
//! truncated files.
//!
//! The reference walks the container byte-for-byte per the crate-level
//! format spec and decodes each record individually, i.e. exactly what
//! the reader did before chunks were batch-decoded into a flat scratch.
//! `decode_chunk` decodes the dominant record (no branch, one-byte pc
//! delta) inline; the payload-level properties at the end hold that fast
//! path to `decode_record` record for record and error for error, on
//! valid and malformed payloads alike.

use pif_trace::codec::{decode_chunk, decode_record, encode_record};
use pif_trace::{TraceDecodeError, TraceReader, TraceWriter, MAGIC};
use pif_types::{Address, BranchInfo, BranchKind, RetiredInstr, TrapLevel};
use proptest::prelude::*;

fn kind_of(k: u8) -> BranchKind {
    match k {
        0 => BranchKind::Conditional,
        1 => BranchKind::Direct,
        2 => BranchKind::Call,
        3 => BranchKind::IndirectCall,
        _ => BranchKind::Return,
    }
}

fn instr_strategy() -> impl Strategy<Value = RetiredInstr> {
    (
        any::<u64>(),
        0usize..TrapLevel::COUNT,
        proptest::option::of((0u8..5, any::<bool>(), any::<u64>(), any::<u64>())),
    )
        .prop_map(|(pc, tl, branch)| RetiredInstr {
            pc: Address::new(pc),
            trap_level: TrapLevel::from_index(tl),
            branch: branch.map(|(k, taken, target, fall)| BranchInfo {
                kind: kind_of(k),
                taken,
                taken_target: Address::new(target),
                fall_through: Address::new(fall),
            }),
        })
}

fn encode(instrs: &[RetiredInstr], chunk: u32) -> Vec<u8> {
    let mut w = TraceWriter::with_chunk_records(Vec::new(), "diff", chunk).unwrap();
    w.extend(instrs.iter().copied()).unwrap();
    w.finish().unwrap()
}

fn read_u32(data: &mut &[u8]) -> Result<u32, ()> {
    let (head, rest) = data.split_at_checked(4).ok_or(())?;
    *data = rest;
    Ok(u32::from_le_bytes(head.try_into().unwrap()))
}

/// Record-at-a-time reference decode of a v2 file: walks the container
/// structure by hand and decodes every record individually with
/// `decode_record`. Returns the records decoded before the first error
/// and whether the file decoded cleanly to a verified terminator.
fn reference_decode_v2(bytes: &[u8]) -> (Vec<RetiredInstr>, bool) {
    let mut out = Vec::new();
    let mut data = bytes;
    // Container header: magic, version, name.
    let Some((magic, rest)) = data.split_at_checked(4) else {
        return (out, false);
    };
    assert_eq!(magic, MAGIC);
    data = rest;
    let Ok(version) = read_u32(&mut data) else {
        return (out, false);
    };
    assert_eq!(version, 2);
    let Ok(name_len) = read_u32(&mut data) else {
        return (out, false);
    };
    let Some((_, rest)) = data.split_at_checked(name_len as usize) else {
        return (out, false);
    };
    data = rest;
    loop {
        let Ok(records) = read_u32(&mut data) else {
            return (out, false);
        };
        let Ok(payload_len) = read_u32(&mut data) else {
            return (out, false);
        };
        if records == 0 {
            // Terminator: verify the declared total.
            let Some((total, _)) = data.split_at_checked(8) else {
                return (out, false);
            };
            let clean = payload_len == 8
                && u64::from_le_bytes(total.try_into().unwrap()) == out.len() as u64;
            return (out, clean);
        }
        let Some((mut payload, rest)) = data.split_at_checked(payload_len as usize) else {
            return (out, false);
        };
        data = rest;
        let mut prev_pc = 0u64;
        for _ in 0..records {
            match decode_record(&mut payload, &mut prev_pc) {
                Ok(instr) => out.push(instr),
                Err(_) => return (out, false),
            }
        }
        if !payload.is_empty() {
            return (out, false);
        }
    }
}

/// Streams a reader to the end, returning the yielded prefix and the
/// error that stopped it, if any.
fn stream(bytes: &[u8]) -> (Vec<RetiredInstr>, Option<TraceDecodeError>) {
    let mut reader = match TraceReader::open(bytes) {
        Ok(r) => r,
        Err(e) => return (Vec::new(), Some(e)),
    };
    let mut out = Vec::new();
    let mut err = None;
    for r in reader.by_ref() {
        match r {
            Ok(i) => out.push(i),
            Err(e) => err = Some(e),
        }
    }
    (out, err)
}

proptest! {
    /// Valid v2 files: the batched streaming decode equals the
    /// record-at-a-time reference equals the original records.
    #[test]
    fn batched_equals_record_at_a_time_on_valid_files(
        instrs in proptest::collection::vec(instr_strategy(), 0..300),
        chunk in 1u32..96,
    ) {
        let bytes = encode(&instrs, chunk);
        let (reference, clean) = reference_decode_v2(&bytes);
        prop_assert!(clean);
        prop_assert_eq!(&reference, &instrs);
        let (batched, err) = stream(&bytes);
        prop_assert!(err.is_none(), "clean file decodes cleanly: {err:?}");
        prop_assert_eq!(&batched, &reference);
    }

    /// The batch primitive itself equals a `decode_record` loop over one
    /// chunk payload (shared `decode_chunk` is also what `seek_to_record`
    /// uses, so this pins the seek path too).
    #[test]
    fn decode_chunk_equals_decode_record_loop(
        instrs in proptest::collection::vec(instr_strategy(), 0..200),
    ) {
        let mut payload = Vec::new();
        let mut prev = 0u64;
        for i in &instrs {
            encode_record(&mut payload, i, &mut prev);
        }
        let mut batched = Vec::new();
        decode_chunk(&payload, instrs.len() as u32, &mut batched).unwrap();
        prop_assert_eq!(&batched, &instrs);
        // A short count must flag the leftover bytes, like the reader's
        // old per-record bookkeeping did.
        if !instrs.is_empty() {
            let short = decode_chunk(&payload, instrs.len() as u32 - 1, &mut batched);
            prop_assert_eq!(
                short,
                Err(TraceDecodeError::Corrupt("trailing chunk bytes"))
            );
        }
    }

    /// Truncated v2 files: both paths detect the damage, and the batched
    /// reader's yielded prefix is a (chunk-aligned) prefix of the
    /// reference's — batching may withhold records of the damaged chunk,
    /// but can never invent or reorder them.
    #[test]
    fn truncation_agrees_with_the_reference(
        instrs in proptest::collection::vec(instr_strategy(), 1..150),
        chunk in 1u32..48,
        cut_seed in 0usize..4096,
    ) {
        let bytes = encode(&instrs, chunk);
        let cut = cut_seed % bytes.len();
        let (reference, clean) = reference_decode_v2(&bytes[..cut]);
        prop_assert!(!clean, "a strict prefix never verifies its terminator");
        let (batched, err) = stream(&bytes[..cut]);
        prop_assert!(err.is_some(), "truncation at {cut} must surface an error");
        prop_assert!(batched.len() <= reference.len());
        prop_assert_eq!(&batched[..], &reference[..batched.len()]);
        prop_assert_eq!(&batched[..], &instrs[..batched.len()]);
    }
}

/// Record-at-a-time reference for one chunk payload: the records
/// `decode_record` yields before its first error, and that error.
fn reference_chunk(
    payload: &[u8],
    records: u32,
) -> (Vec<RetiredInstr>, Result<(), TraceDecodeError>) {
    let mut out = Vec::new();
    let mut slice = payload;
    let mut prev_pc = 0u64;
    for _ in 0..records {
        match decode_record(&mut slice, &mut prev_pc) {
            Ok(instr) => out.push(instr),
            Err(e) => return (out, Err(e)),
        }
    }
    if !slice.is_empty() {
        return (out, Err(TraceDecodeError::Corrupt("trailing chunk bytes")));
    }
    (out, Ok(()))
}

/// `decode_chunk` over the same payload: the records it pushed before
/// stopping, and its result.
fn batched_chunk(
    payload: &[u8],
    records: u32,
) -> (Vec<RetiredInstr>, Result<(), TraceDecodeError>) {
    let mut out = vec![RetiredInstr::simple(Address::new(1), TrapLevel::Tl1)];
    let result = decode_chunk(payload, records, &mut out);
    (out, result)
}

// v2 flags bits (crate-level format spec).
const HAS_BRANCH: u8 = 0b0000_0100;
const BRANCH_ONLY_BITS: [u8; 3] = [0b0011_1000, 0b0100_0000, 0b1000_0000];

/// Pc deltas around the one-byte varint boundary (zigzag(±63) and
/// zigzag(-64) fit one byte, zigzag(64) and zigzag(-65) need two), plus
/// the sequential step and the extremes.
const BOUNDARY_DELTAS: [i64; 15] = [
    0,
    4,
    -4,
    62,
    63,
    64,
    65,
    -63,
    -64,
    -65,
    -66,
    8191,
    -8193,
    i64::MAX,
    i64::MIN,
];

/// Zigzag + LEB128 bytes of a pc delta, written independently of the
/// crate's private varint encoder.
fn zigzag_varint(delta: i64) -> Vec<u8> {
    let mut v = ((delta << 1) ^ (delta >> 63)) as u64;
    let mut out = Vec::new();
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return out;
        }
        out.push(byte | 0x80);
    }
}

/// Valid records whose pc deltas sit on the varint boundary, with every
/// trap level and branches mixed in, so chunks interleave fast-path and
/// general-path records.
fn boundary_instrs() -> impl Strategy<Value = Vec<RetiredInstr>> {
    proptest::collection::vec(
        (
            0usize..BOUNDARY_DELTAS.len(),
            0usize..TrapLevel::COUNT,
            proptest::option::of((0u8..5, any::<bool>(), 0usize..BOUNDARY_DELTAS.len())),
            any::<bool>(),
        ),
        0..200,
    )
    .prop_map(|records| {
        let mut pc = 0u64;
        records
            .into_iter()
            .map(|(d, tl, branch, explicit_fall_through)| {
                pc = pc.wrapping_add(BOUNDARY_DELTAS[d] as u64);
                RetiredInstr {
                    pc: Address::new(pc),
                    trap_level: TrapLevel::from_index(tl),
                    branch: branch.map(|(k, taken, t)| BranchInfo {
                        kind: kind_of(k),
                        taken,
                        taken_target: Address::new(pc.wrapping_add(BOUNDARY_DELTAS[t] as u64)),
                        fall_through: Address::new(pc.wrapping_add(if explicit_fall_through {
                            8
                        } else {
                            4
                        })),
                    }),
                }
            })
            .collect()
    })
}

/// One raw record's bytes, valid or not: a flags byte that is a plain or
/// invalid trap level, a non-branch with branch-only bits, a branch of a
/// valid or invalid kind, or any byte; then a pc delta that is a boundary
/// varint or any byte (a continuation byte runs into what follows); then,
/// sometimes, up to two more varints.
fn raw_record() -> impl Strategy<Value = Vec<u8>> {
    (
        (0u8..6, 0u8..4, any::<u8>()),
        (any::<bool>(), 0usize..BOUNDARY_DELTAS.len(), any::<u8>()),
        proptest::collection::vec(0usize..BOUNDARY_DELTAS.len(), 0..3),
    )
        .prop_map(|((form, tl, byte), (boundary, d, raw_delta), extra)| {
            let flags = match form {
                // Trap-level index 0..=3 on a non-branch: 2 and 3 are invalid.
                0 | 1 => tl,
                // A non-branch carrying a branch-only bit.
                2 => (tl & 1) | BRANCH_ONLY_BITS[byte as usize % 3],
                // A branch: kind bits 0..=7 (5..=7 invalid), taken, implicit.
                3 | 4 => tl | HAS_BRANCH | (byte & !0b111),
                _ => byte,
            };
            let mut bytes = vec![flags];
            if boundary {
                bytes.extend(zigzag_varint(BOUNDARY_DELTAS[d]));
            } else {
                bytes.push(raw_delta);
            }
            for e in extra {
                bytes.extend(zigzag_varint(BOUNDARY_DELTAS[e]));
            }
            bytes
        })
}

/// Every flags byte, each followed by a one-byte delta on either side of
/// the varint boundary or a continuation byte, whole or truncated right
/// after the flags byte: the fast path and `decode_record` agree.
#[test]
fn every_flags_byte_agrees_with_decode_record() {
    for flags in 0..=u8::MAX {
        for delta in [0x00, 0x01, 0x7e, 0x7f, 0x80, 0xff] {
            let payload = [flags, delta, 0x05, 0x7f, 0x01];
            for len in 1..=payload.len() {
                for records in 1..=3 {
                    let chunk = &payload[..len];
                    assert_eq!(
                        batched_chunk(chunk, records),
                        reference_chunk(chunk, records),
                        "flags {flags:#04x}, payload {chunk:02x?}, {records} records"
                    );
                }
            }
        }
    }
}

proptest! {
    /// Valid payloads with pc deltas on the one-byte boundary, mixing
    /// fast-path and general records: decoded exactly, as the reference.
    #[test]
    fn boundary_deltas_decode_exactly(instrs in boundary_instrs()) {
        let mut payload = Vec::new();
        let mut prev = 0u64;
        for i in &instrs {
            encode_record(&mut payload, i, &mut prev);
        }
        let n = instrs.len() as u32;
        let (batched, result) = batched_chunk(&payload, n);
        prop_assert_eq!(result, Ok(()));
        prop_assert_eq!(&batched, &instrs);
        prop_assert_eq!((batched, Ok(())), reference_chunk(&payload, n));
        // One-byte deltas cost two bytes per plain record, wider ones more.
        for (i, w) in instrs.windows(2).enumerate() {
            if w[1].branch.is_none() {
                let delta = w[1].pc.raw().wrapping_sub(w[0].pc.raw()) as i64;
                let mut one = Vec::new();
                let mut base = w[0].pc.raw();
                encode_record(&mut one, &w[1], &mut base);
                prop_assert_eq!(one.len() == 2, (-64..=63).contains(&delta), "record {}", i + 1);
            }
        }
    }

    /// Malformed and valid records mixed in one payload, under a record
    /// count that may be short or long and a cut anywhere (including
    /// right after a flags byte): `decode_chunk` yields exactly the
    /// reference's records and fails with exactly its error.
    #[test]
    fn raw_payloads_agree_with_decode_record(
        records in proptest::collection::vec(raw_record(), 0..40),
        count_skew in 0u32..3,
        cut_seed in 0usize..4096,
        cut in any::<bool>(),
    ) {
        let mut payload: Vec<u8> = records.concat();
        if cut && !payload.is_empty() {
            payload.truncate(cut_seed % payload.len());
        }
        let count = (records.len() as u32 + count_skew).saturating_sub(1);
        prop_assert_eq!(
            batched_chunk(&payload, count),
            reference_chunk(&payload, count),
            "payload {:02x?}",
            payload
        );
    }

    /// Valid records with a lone flags byte appended: the chunk's last
    /// record is truncated right after its flags byte, and both paths
    /// report the truncated varint after the same records.
    #[test]
    fn truncation_after_a_flags_byte_agrees(
        instrs in boundary_instrs(),
        flags in 0u8..8,
    ) {
        let mut payload = Vec::new();
        let mut prev = 0u64;
        for i in &instrs {
            encode_record(&mut payload, i, &mut prev);
        }
        payload.push(flags);
        let n = instrs.len() as u32 + 1;
        let (batched, result) = batched_chunk(&payload, n);
        prop_assert!(result.is_err());
        prop_assert_eq!(&batched, &instrs);
        prop_assert_eq!((batched, result), reference_chunk(&payload, n));
    }
}
