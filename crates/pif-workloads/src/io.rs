//! Compact binary trace serialization (legacy v1 format).
//!
//! Traces are deterministic and cheap to regenerate, but saving them lets
//! experiment pipelines share one trace across many prefetcher runs and
//! lets users archive the exact inputs behind a result. This module owns
//! the legacy **v1** format, a simple little-endian record stream:
//!
//! ```text
//! magic  "PIFT"            4 bytes
//! version u32              currently 1
//! name    u32 length + UTF-8 bytes
//! count   u64              number of records
//! records ...              10 or 28 bytes each (non-branch / branch)
//! ```
//!
//! The streaming, chunked, compressed **v2** format — and streaming
//! decode of these v1 files — lives in the `pif-trace` crate, whose
//! [`TraceDecodeError`] this module shares. Prefer
//! `pif_trace::TraceWriter`/`TraceReader` for traces that should not be
//! materialized in memory; the `tracectl convert` subcommand upgrades v1
//! files in place.

use std::io::{self, Read, Write};

pub use pif_trace::{TraceDecodeError, TraceErrorKind};

use pif_types::{Address, BranchInfo, BranchKind, RetiredInstr, TrapLevel};

use crate::trace::Trace;

const MAGIC: &[u8; 4] = b"PIFT";
const VERSION: u32 = 1;

/// Minimum encoded size of one v1 record (non-branch).
const MIN_RECORD_BYTES: usize = 10;

fn kind_to_byte(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::Conditional => 0,
        BranchKind::Direct => 1,
        BranchKind::Call => 2,
        BranchKind::IndirectCall => 3,
        BranchKind::Return => 4,
    }
}

fn kind_from_byte(b: u8) -> Result<BranchKind, TraceDecodeError> {
    Ok(match b {
        0 => BranchKind::Conditional,
        1 => BranchKind::Direct,
        2 => BranchKind::Call,
        3 => BranchKind::IndirectCall,
        4 => BranchKind::Return,
        _ => return Err(TraceDecodeError::Corrupt("unknown branch kind")),
    })
}

/// Serializes a trace into an in-memory buffer.
///
/// # Example
///
/// ```
/// use pif_workloads::{io::{decode_trace, encode_trace}, WorkloadProfile};
///
/// let trace = WorkloadProfile::oltp_db2().scaled(0.05).generate(5_000);
/// let bytes = encode_trace(&trace);
/// let back = decode_trace(&bytes).unwrap();
/// assert_eq!(trace, back);
/// ```
pub fn encode_trace(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + trace.name().len() + trace.len() * 16);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(trace.name().len() as u32).to_le_bytes());
    buf.extend_from_slice(trace.name().as_bytes());
    buf.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    for instr in trace.instrs() {
        buf.extend_from_slice(&instr.pc.raw().to_le_bytes());
        buf.push(instr.trap_level.index() as u8);
        match instr.branch {
            None => buf.push(0),
            Some(info) => {
                buf.push(1);
                buf.push(kind_to_byte(info.kind));
                buf.push(u8::from(info.taken));
                buf.extend_from_slice(&info.taken_target.raw().to_le_bytes());
                buf.extend_from_slice(&info.fall_through.raw().to_le_bytes());
            }
        }
    }
    buf
}

/// Deserializes a trace previously produced by [`encode_trace`].
///
/// # Errors
///
/// Returns [`TraceDecodeError`] on bad magic, unsupported version, or a
/// truncated/corrupt payload.
pub fn decode_trace(mut data: &[u8]) -> Result<Trace, TraceDecodeError> {
    fn need(data: &[u8], n: usize) -> Result<(), TraceDecodeError> {
        if data.len() < n {
            return Err(TraceDecodeError::Corrupt("truncated"));
        }
        Ok(())
    }
    /// Splits the next `N` bytes off `data`; `need` has checked they exist.
    fn take<const N: usize>(data: &mut &[u8]) -> [u8; N] {
        let (head, rest) = data
            .split_first_chunk::<N>()
            .expect("length checked by need()");
        *data = rest;
        *head
    }
    need(data, 8)?;
    if take::<4>(&mut data) != *MAGIC {
        return Err(TraceDecodeError::BadMagic);
    }
    let version = u32::from_le_bytes(take(&mut data));
    if version != VERSION {
        return Err(TraceDecodeError::BadVersion(version));
    }
    need(data, 4)?;
    let name_len = u32::from_le_bytes(take(&mut data)) as usize;
    need(data, name_len)?;
    let (name_bytes, rest) = data.split_at(name_len);
    data = rest;
    let name = String::from_utf8(name_bytes.to_vec())
        .map_err(|_| TraceDecodeError::Corrupt("name is not UTF-8"))?;
    need(data, 8)?;
    let count = u64::from_le_bytes(take(&mut data)) as usize;
    // Every record is at least 10 bytes, so a declared count the
    // remaining payload cannot possibly hold is corrupt on its face —
    // fail fast instead of looping toward a truncation error millions of
    // records later. This also bounds the allocation below by the input
    // size, making the defensive clamp a backstop rather than the only
    // line of defense.
    if count
        .checked_mul(MIN_RECORD_BYTES)
        .is_none_or(|needed| needed > data.len())
    {
        return Err(TraceDecodeError::Corrupt("record count exceeds payload"));
    }
    let mut instrs = Vec::with_capacity(count.min(1 << 24));
    for _ in 0..count {
        need(data, 10)?;
        let pc = Address::new(u64::from_le_bytes(take(&mut data)));
        let tl_byte = take::<1>(&mut data)[0];
        if tl_byte as usize >= TrapLevel::COUNT {
            return Err(TraceDecodeError::Corrupt("invalid trap level"));
        }
        let trap_level = TrapLevel::from_index(tl_byte as usize);
        let has_branch = take::<1>(&mut data)[0];
        let branch = match has_branch {
            0 => None,
            1 => {
                need(data, 18)?;
                let kind = kind_from_byte(take::<1>(&mut data)[0])?;
                let taken = take::<1>(&mut data)[0] != 0;
                let taken_target = Address::new(u64::from_le_bytes(take(&mut data)));
                let fall_through = Address::new(u64::from_le_bytes(take(&mut data)));
                Some(BranchInfo {
                    kind,
                    taken,
                    taken_target,
                    fall_through,
                })
            }
            _ => return Err(TraceDecodeError::Corrupt("invalid branch flag")),
        };
        instrs.push(RetiredInstr {
            pc,
            trap_level,
            branch,
        });
    }
    Ok(Trace::new(name, instrs))
}

/// Writes a trace to any [`Write`] sink (e.g. a file). A `&mut` reference
/// may be passed as the writer.
///
/// # Errors
///
/// Propagates I/O errors from the sink.
pub fn write_trace<W: Write>(mut writer: W, trace: &Trace) -> io::Result<()> {
    writer.write_all(&encode_trace(trace))
}

/// Reads a trace from any [`Read`] source. A `&mut` reference may be
/// passed as the reader.
///
/// # Errors
///
/// Returns [`TraceDecodeError`] on I/O failure or a malformed payload.
pub fn read_trace<R: Read>(mut reader: R) -> Result<Trace, TraceDecodeError> {
    let mut data = Vec::new();
    reader.read_to_end(&mut data)?;
    decode_trace(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadProfile;

    fn sample() -> Trace {
        WorkloadProfile::web_zeus().scaled(0.05).generate(3_000)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample();
        let bytes = encode_trace(&t);
        let back = decode_trace(&bytes).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn io_round_trip() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn rejects_bad_magic() {
        // TraceDecodeError compares structurally (shared with pif-trace),
        // so no `matches!` boilerplate.
        assert_eq!(
            decode_trace(b"NOPE\x01\x00\x00\x00").err(),
            Some(TraceDecodeError::BadMagic)
        );
    }

    #[test]
    fn rejects_bad_version() {
        let mut data = Vec::new();
        data.extend_from_slice(MAGIC);
        data.extend_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            decode_trace(&data).err(),
            Some(TraceDecodeError::BadVersion(99))
        );
    }

    #[test]
    fn absurd_record_count_fails_fast() {
        // A header declaring u64::MAX records over an empty payload must
        // be rejected before any decode loop or allocation.
        let t = Trace::new("x", vec![]);
        let mut bytes = encode_trace(&t);
        let count_offset = bytes.len() - 8;
        bytes[count_offset..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            decode_trace(&bytes).err(),
            Some(TraceDecodeError::Corrupt("record count exceeds payload"))
        );
        // Off-by-one: one declared record, zero payload bytes.
        bytes[count_offset..].copy_from_slice(&1u64.to_le_bytes());
        assert_eq!(
            decode_trace(&bytes).err(),
            Some(TraceDecodeError::Corrupt("record count exceeds payload"))
        );
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = encode_trace(&sample());
        // Chop the payload at several points: every prefix must fail
        // cleanly, never panic.
        for cut in [0, 3, 8, 11, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_trace(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn rejects_corrupt_trap_level() {
        let t = Trace::new(
            "x",
            vec![RetiredInstr::simple(Address::new(4), TrapLevel::Tl0)],
        );
        let mut bytes = encode_trace(&t);
        // The trap-level byte of the first record sits after the header.
        let tl_offset = 4 + 4 + 4 + 1 + 8 + 8;
        bytes[tl_offset] = 9;
        assert!(decode_trace(&bytes).is_err());
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace::new("empty", vec![]);
        assert_eq!(decode_trace(&encode_trace(&t)).unwrap(), t);
    }

    #[test]
    fn error_display_is_informative() {
        let e = TraceDecodeError::BadVersion(7);
        assert!(e.to_string().contains('7'));
        let e = TraceDecodeError::Corrupt("truncated");
        assert!(e.to_string().contains("truncated"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

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
                    kind: kind_from_byte(k).unwrap(),
                    taken,
                    taken_target: Address::new(target),
                    fall_through: Address::new(fall),
                }),
            })
    }

    proptest! {
        #[test]
        fn arbitrary_traces_round_trip(
            name in "[a-zA-Z0-9_-]{0,24}",
            instrs in proptest::collection::vec(instr_strategy(), 0..200),
        ) {
            let t = Trace::new(name, instrs);
            let back = decode_trace(&encode_trace(&t)).unwrap();
            prop_assert_eq!(t, back);
        }

        #[test]
        fn random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_trace(&data);
        }
    }
}
