//! Shared format constants and the per-record v2 codec.
//!
//! See the crate-level docs for the full v2 layout specification. This
//! module owns the byte-level details both the writer and reader use, so
//! the two can never drift apart.

use pif_types::{Address, BranchInfo, BranchKind, RetiredInstr, TrapLevel};

use crate::error::TraceDecodeError;
use crate::varint::{read_varint, unzigzag, write_varint, zigzag};

/// File magic.
pub const MAGIC: &[u8; 4] = b"PIFT";
/// The chunked delta/varint format, the only version readers accept.
pub const VERSION_V2: u32 = 2;

/// Default records per v2 chunk. 8 Ki records keeps the resident set of
/// a streaming reader/writer around a few tens of kilobytes while
/// amortizing the 8-byte chunk header to ~0.001 bytes/record.
pub const DEFAULT_CHUNK_RECORDS: u32 = 8192;

/// Hard cap on a declared chunk record count; a header claiming more is
/// rejected as corrupt before any allocation.
pub const MAX_CHUNK_RECORDS: u32 = 1 << 24;

/// Hard cap on a declared chunk payload length (64 MiB).
pub const MAX_CHUNK_BYTES: u32 = 1 << 26;

/// Cap on the declared workload-name length in the header.
pub const MAX_NAME_LEN: u32 = 1 << 16;

// v2 record flag byte layout.
const TL_MASK: u8 = 0b0000_0011;
const HAS_BRANCH: u8 = 0b0000_0100;
const KIND_SHIFT: u8 = 3;
const KIND_MASK: u8 = 0b0011_1000;
const TAKEN: u8 = 0b0100_0000;
const IMPLICIT_FALL_THROUGH: u8 = 0b1000_0000;

// `decode_chunk`'s fast path reads a flags byte below `TrapLevel::COUNT`
// as a plain record, so every valid index must fit the trap-level bits.
const _: () = assert!(TrapLevel::COUNT <= TL_MASK as usize + 1);

/// Instruction width assumed by the implicit fall-through optimization
/// (`fall_through == pc + 4`, true for every branch the workload
/// generator emits).
const INSTR_BYTES: u64 = 4;

fn kind_to_bits(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::Conditional => 0,
        BranchKind::Direct => 1,
        BranchKind::Call => 2,
        BranchKind::IndirectCall => 3,
        BranchKind::Return => 4,
    }
}

fn kind_from_bits(b: u8) -> Result<BranchKind, TraceDecodeError> {
    Ok(match b {
        0 => BranchKind::Conditional,
        1 => BranchKind::Direct,
        2 => BranchKind::Call,
        3 => BranchKind::IndirectCall,
        4 => BranchKind::Return,
        _ => return Err(TraceDecodeError::Corrupt("unknown branch kind")),
    })
}

/// Appends one v2 record to `buf`. `prev_pc` is the intra-chunk delta
/// base and must start at 0 for each chunk.
pub fn encode_record(buf: &mut Vec<u8>, instr: &RetiredInstr, prev_pc: &mut u64) {
    let pc = instr.pc.raw();
    let mut flags = instr.trap_level.index() as u8;
    if let Some(info) = instr.branch {
        flags |= HAS_BRANCH | (kind_to_bits(info.kind) << KIND_SHIFT);
        if info.taken {
            flags |= TAKEN;
        }
        if info.fall_through.raw() == pc.wrapping_add(INSTR_BYTES) {
            flags |= IMPLICIT_FALL_THROUGH;
        }
    }
    buf.push(flags);
    write_varint(buf, zigzag(pc.wrapping_sub(*prev_pc) as i64));
    *prev_pc = pc;
    if let Some(info) = instr.branch {
        write_varint(buf, zigzag(info.taken_target.raw().wrapping_sub(pc) as i64));
        if flags & IMPLICIT_FALL_THROUGH == 0 {
            write_varint(buf, zigzag(info.fall_through.raw().wrapping_sub(pc) as i64));
        }
    }
}

/// Decodes one v2 record from the front of `data`, advancing it.
pub fn decode_record(
    data: &mut &[u8],
    prev_pc: &mut u64,
) -> Result<RetiredInstr, TraceDecodeError> {
    let Some((&flags, rest)) = data.split_first() else {
        return Err(TraceDecodeError::Corrupt("truncated record"));
    };
    *data = rest;
    let tl_index = (flags & TL_MASK) as usize;
    if tl_index >= TrapLevel::COUNT {
        return Err(TraceDecodeError::Corrupt("invalid trap level"));
    }
    let trap_level = TrapLevel::from_index(tl_index);
    if flags & HAS_BRANCH == 0 && flags & !TL_MASK != 0 {
        return Err(TraceDecodeError::Corrupt("branch bits on non-branch"));
    }
    let pc = prev_pc.wrapping_add(unzigzag(read_varint(data)?) as u64);
    *prev_pc = pc;
    let branch = if flags & HAS_BRANCH != 0 {
        let kind = kind_from_bits((flags & KIND_MASK) >> KIND_SHIFT)?;
        let taken_target = pc.wrapping_add(unzigzag(read_varint(data)?) as u64);
        let fall_through = if flags & IMPLICIT_FALL_THROUGH != 0 {
            pc.wrapping_add(INSTR_BYTES)
        } else {
            pc.wrapping_add(unzigzag(read_varint(data)?) as u64)
        };
        Some(BranchInfo {
            kind,
            taken: flags & TAKEN != 0,
            taken_target: Address::new(taken_target),
            fall_through: Address::new(fall_through),
        })
    } else {
        None
    };
    Ok(RetiredInstr {
        pc: Address::new(pc),
        trap_level,
        branch,
    })
}

/// Batch-decodes a whole chunk payload into `out` (cleared first).
///
/// Semantically identical to calling [`decode_record`] `records` times
/// from a zeroed delta base — the proptests in
/// `tests/decode_batched.rs` hold the two paths equal, record for record
/// and error for error — but the tight loop over a flat output `Vec`
/// keeps the varint decode branch-predictable instead of interleaving it
/// with per-record consumer work. The caller reuses `out` across chunks,
/// so steady-state decoding allocates nothing.
///
/// The dominant record, a non-branch instruction whose zigzagged pc delta
/// fits one varint byte, is two bytes, `flags` and `delta < 0x80`, and is
/// decoded inline. A flags byte below [`TrapLevel::COUNT`] is exactly a
/// valid trap level with no branch bits, so the fast path accepts only
/// records [`decode_record`] accepts, with the same result; everything
/// else — branches, wider deltas, and every malformed or truncated
/// record — takes [`decode_record`] and fails with its error.
pub fn decode_chunk(
    payload: &[u8],
    records: u32,
    out: &mut Vec<RetiredInstr>,
) -> Result<(), TraceDecodeError> {
    out.clear();
    out.reserve(records as usize);
    let mut slice = payload;
    let mut prev_pc = 0u64;
    for _ in 0..records {
        if let [flags, delta, rest @ ..] = slice {
            if (*flags as usize) < TrapLevel::COUNT && *delta < 0x80 {
                prev_pc = prev_pc.wrapping_add(unzigzag(u64::from(*delta)) as u64);
                out.push(RetiredInstr {
                    pc: Address::new(prev_pc),
                    trap_level: TrapLevel::from_index(*flags as usize),
                    branch: None,
                });
                slice = rest;
                continue;
            }
        }
        out.push(decode_record(&mut slice, &mut prev_pc)?);
    }
    if !slice.is_empty() {
        return Err(TraceDecodeError::Corrupt("trailing chunk bytes"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(instrs: &[RetiredInstr]) {
        let mut buf = Vec::new();
        let mut prev = 0u64;
        for i in instrs {
            encode_record(&mut buf, i, &mut prev);
        }
        let mut slice = buf.as_slice();
        let mut prev = 0u64;
        for i in instrs {
            assert_eq!(decode_record(&mut slice, &mut prev).unwrap(), *i);
        }
        assert!(slice.is_empty());
    }

    #[test]
    fn sequential_instrs_cost_two_bytes() {
        let mut buf = Vec::new();
        let mut prev = 0u64;
        encode_record(
            &mut buf,
            &RetiredInstr::simple(Address::new(0x40_0000), TrapLevel::Tl0),
            &mut prev,
        );
        let first = buf.len();
        encode_record(
            &mut buf,
            &RetiredInstr::simple(Address::new(0x40_0004), TrapLevel::Tl0),
            &mut prev,
        );
        assert_eq!(buf.len() - first, 2, "flags byte + 1-byte delta");
    }

    #[test]
    fn records_round_trip() {
        let b = BranchInfo {
            kind: BranchKind::Call,
            taken: true,
            taken_target: Address::new(0x50_0000),
            fall_through: Address::new(0x40_0008),
        };
        round_trip(&[
            RetiredInstr::simple(Address::new(0x40_0000), TrapLevel::Tl0),
            RetiredInstr::simple(Address::new(0x40_0004), TrapLevel::Tl1),
            RetiredInstr::branch(Address::new(0x40_0004), TrapLevel::Tl0, b),
            RetiredInstr::simple(Address::new(0), TrapLevel::Tl0),
            RetiredInstr::simple(Address::new(u64::MAX), TrapLevel::Tl0),
        ]);
    }

    #[test]
    fn explicit_fall_through_survives() {
        let b = BranchInfo {
            kind: BranchKind::Return,
            taken: true,
            taken_target: Address::new(0x10),
            fall_through: Address::new(0x9999),
        };
        round_trip(&[RetiredInstr::branch(Address::new(0x100), TrapLevel::Tl1, b)]);
    }

    #[test]
    fn rejects_garbage_flag_bits() {
        // Non-branch record with branch-only bits set.
        let mut data: &[u8] = &[TAKEN, 0x00];
        let mut prev = 0;
        assert_eq!(
            decode_record(&mut data, &mut prev),
            Err(TraceDecodeError::Corrupt("branch bits on non-branch"))
        );
        // Trap level 3 does not exist.
        let mut data: &[u8] = &[0b0000_0011, 0x00];
        assert_eq!(
            decode_record(&mut data, &mut prev),
            Err(TraceDecodeError::Corrupt("invalid trap level"))
        );
        // Branch kind 5 does not exist.
        let mut data: &[u8] = &[HAS_BRANCH | (5 << KIND_SHIFT), 0x00, 0x00, 0x00];
        assert_eq!(
            decode_record(&mut data, &mut prev),
            Err(TraceDecodeError::Corrupt("unknown branch kind"))
        );
    }
}
