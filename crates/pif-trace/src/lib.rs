//! Streaming, compressed trace storage for the PIF reproduction.
//!
//! The paper's results come from multi-billion-instruction server traces;
//! this crate makes traces of that scale first-class artifacts. It defines
//! the chunked, delta/varint-compressed **v2** format and streaming
//! [`TraceWriter`]/[`TraceReader`] endpoints that hold at most one chunk
//! in memory.
//!
//! # Format specification
//!
//! A little-endian container header:
//!
//! ```text
//! magic   "PIFT"           4 bytes
//! version u32              2
//! name    u32 length + UTF-8 bytes
//! ```
//!
//! Readers reject every other version with
//! [`TraceDecodeError::BadVersion`], including the retired fixed-width
//! v1 layout (10 bytes per plain record, 28 per branch).
//!
//! ## v2 (chunked, delta/varint)
//!
//! After the header, a sequence of chunks, each independently decodable
//! (the PC delta base resets per chunk), followed by a terminator:
//!
//! ```text
//! chunk:
//!   record_count u32       > 0
//!   payload_len  u32       bytes of encoded records
//!   payload      payload_len bytes
//! terminator:
//!   0u32, 8u32, total_record_count u64
//! ```
//!
//! The chunk header lets readers *skip* payloads they do not need (see
//! [`scan_info`]), and the terminator distinguishes a cleanly sealed file
//! from a truncated one. Within a payload, each record is:
//!
//! ```text
//! flags    u8
//!   bits 0-1  trap level index
//!   bit  2    has_branch
//!   bits 3-5  branch kind           (branch only)
//!   bit  6    taken                 (branch only)
//!   bit  7    fall_through == pc+4  (branch only)
//! pc       varint zigzag(pc - prev_pc)
//! if has_branch:
//!   taken_target varint zigzag(taken_target - pc)
//!   if bit 7 clear:
//!     fall_through varint zigzag(fall_through - pc)
//! ```
//!
//! Sequential instructions (`Δpc = +4`) therefore cost 2 bytes instead of
//! a fixed-width record's 10, and branches — whose targets are
//! overwhelmingly nearby and whose fall-through is almost always `pc + 4`
//! — cost 4–6 bytes instead of 28. On the synthetic server workloads this
//! is a 4–6× size reduction.
//!
//! # Random access and sampling
//!
//! Because every chunk resets its delta base, v2 chunks decode
//! independently, and the 8-byte headers alone describe the record
//! layout. [`TraceReader::open_indexed`] scans just those headers into a
//! [`ChunkIndex`] (payloads are seeked over), after which
//! [`TraceReader::seek_to_record`] jumps to any record by decoding at
//! most one chunk prefix — the primitive behind `pif_sim::sampling`'s
//! SimFlex-style sampled simulation.
//!
//! # Out-of-core simulation
//!
//! [`TraceReader::instrs`] yields an `Iterator<Item = RetiredInstr>`,
//! which implements `pif_types::InstrSource`; feed it to
//! `pif_sim::Engine::run` to simulate a trace far larger than RAM:
//!
//! ```
//! use pif_trace::{TraceReader, TraceWriter};
//! use pif_types::{Address, InstrSource, RetiredInstr, TrapLevel};
//!
//! // Record (streaming, bounded memory)...
//! let mut w = TraceWriter::new(Vec::new(), "loop").unwrap();
//! for i in 0..50_000u64 {
//!     let pc = Address::new((i % 512) * 4);
//!     w.push(&RetiredInstr::simple(pc, TrapLevel::Tl0)).unwrap();
//! }
//! let file = w.finish().unwrap();
//!
//! // ...then replay (streaming, bounded memory).
//! let mut source = TraceReader::open(file.as_slice()).unwrap().instrs();
//! let mut n = 0u64;
//! while source.next_instr().is_some() {
//!     n += 1;
//! }
//! assert_eq!(n, 50_000);
//! assert!(source.error().is_none());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod error;
mod format;
pub mod hash;
mod reader;
mod varint;
mod writer;

pub use error::{TraceDecodeError, TraceErrorKind};
pub use format::{
    DEFAULT_CHUNK_RECORDS, MAGIC, MAX_CHUNK_BYTES, MAX_CHUNK_RECORDS, MAX_NAME_LEN, VERSION_V2,
};
pub use hash::{content_hash, TraceHasher};
pub use reader::{
    decode, encode_v2, scan_info, ChunkEntry, ChunkIndex, Instrs, InstrsMut, TraceInfo, TraceReader,
};
pub use writer::{AtomicTraceWriter, TraceWriter};

/// Codec internals, exposed for tests: the v2 record codec, which
/// differential tests (`tests/decode_batched.rs`) hold equal to the
/// batched chunk decode. Not a stable API.
#[doc(hidden)]
pub mod codec {
    pub use crate::format::{decode_chunk, decode_record, encode_record};
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;

    use super::*;
    use pif_types::{Address, BranchInfo, BranchKind, RetiredInstr, TrapLevel};

    pub(crate) fn branchy_trace(n: u64) -> Vec<RetiredInstr> {
        (0..n)
            .map(|i| {
                let pc = Address::new(0x40_0000 + (i % 4096) * 4);
                if i % 7 == 3 {
                    RetiredInstr::branch(
                        pc,
                        if i % 31 == 0 {
                            TrapLevel::Tl1
                        } else {
                            TrapLevel::Tl0
                        },
                        BranchInfo {
                            kind: match i % 5 {
                                0 => BranchKind::Conditional,
                                1 => BranchKind::Direct,
                                2 => BranchKind::Call,
                                3 => BranchKind::IndirectCall,
                                _ => BranchKind::Return,
                            },
                            taken: i % 3 != 0,
                            taken_target: Address::new(0x40_0000 + (i * 37 % 8192) * 4),
                            fall_through: pc.offset(4),
                        },
                    )
                } else {
                    RetiredInstr::simple(pc, TrapLevel::Tl0)
                }
            })
            .collect()
    }

    #[test]
    fn v2_round_trips_across_chunk_boundaries() {
        let instrs = branchy_trace(1000);
        for chunk in [1u32, 2, 3, 7, 255, 1000, 4096] {
            let mut w = TraceWriter::with_chunk_records(Vec::new(), "x", chunk).unwrap();
            w.extend(instrs.iter().copied()).unwrap();
            let bytes = w.finish().unwrap();
            let (name, back) = decode(&bytes).unwrap();
            assert_eq!(name, "x");
            assert_eq!(back, instrs, "chunk size {chunk}");
        }
    }

    #[test]
    fn v2_truncation_fails_cleanly_everywhere() {
        let instrs = branchy_trace(300);
        let mut w = TraceWriter::with_chunk_records(Vec::new(), "t", 64).unwrap();
        w.extend(instrs.iter().copied()).unwrap();
        let bytes = w.finish().unwrap();
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes decoded successfully",
                bytes.len()
            );
        }
        assert!(decode(&bytes).is_ok());
    }

    #[test]
    fn v2_single_byte_corruption_never_panics() {
        let instrs = branchy_trace(200);
        let bytes = encode_v2("c", &instrs);
        for pos in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 0xff;
            let _ = decode(&mutated); // must not panic; may or may not error
        }
    }

    #[test]
    fn open_rejects_bad_magic_and_version() {
        assert_eq!(
            TraceReader::open(&b"NOPE\x02\x00\x00\x00"[..]).err(),
            Some(TraceDecodeError::BadMagic)
        );
        let mut data = Vec::new();
        data.extend_from_slice(MAGIC);
        data.extend_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            TraceReader::open(data.as_slice()).err(),
            Some(TraceDecodeError::BadVersion(99))
        );
    }

    #[test]
    fn open_rejects_absurd_name_length() {
        let mut data = Vec::new();
        data.extend_from_slice(MAGIC);
        data.extend_from_slice(&VERSION_V2.to_le_bytes());
        data.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            TraceReader::open(data.as_slice()).err(),
            Some(TraceDecodeError::Corrupt("unreasonable name length"))
        );
    }

    #[test]
    fn absurd_chunk_count_fails_fast() {
        // Header + a chunk declaring 1M records in a 4-byte payload.
        let mut data = encode_v2("fast", &[]);
        data.truncate(data.len() - 16); // strip terminator
        data.extend_from_slice(&1_000_000u32.to_le_bytes());
        data.extend_from_slice(&4u32.to_le_bytes());
        data.extend_from_slice(&[0u8; 4]);
        let mut reader = TraceReader::open(data.as_slice()).unwrap();
        assert_eq!(
            reader.next(),
            Some(Err(TraceDecodeError::Corrupt(
                "record count exceeds payload"
            )))
        );
        assert_eq!(reader.next(), None, "iterator fuses after error");
    }

    #[test]
    fn missing_terminator_is_truncation() {
        let instrs = branchy_trace(10);
        let bytes = encode_v2("t", &instrs);
        let cut = &bytes[..bytes.len() - 16];
        let (sent, err) = {
            let mut out = Vec::new();
            let mut reader = TraceReader::open(cut).unwrap();
            let mut err = None;
            for r in reader.by_ref() {
                match r {
                    Ok(i) => out.push(i),
                    Err(e) => err = Some(e),
                }
            }
            (out, err)
        };
        assert_eq!(sent, instrs, "records before the cut still decode");
        assert_eq!(err, Some(TraceDecodeError::Corrupt("truncated")));
    }

    #[test]
    fn terminator_count_mismatch_detected() {
        let instrs = branchy_trace(5);
        let mut bytes = encode_v2("m", &instrs);
        let len = bytes.len();
        bytes[len - 8..].copy_from_slice(&99u64.to_le_bytes());
        let mut reader = TraceReader::open(bytes.as_slice()).unwrap();
        let last = reader.by_ref().last();
        assert_eq!(
            last,
            Some(Err(TraceDecodeError::Corrupt("record count mismatch")))
        );
    }

    #[test]
    fn scan_info_skips_payloads_and_matches_decode() {
        let instrs = branchy_trace(10_000);
        let mut w = TraceWriter::with_chunk_records(Vec::new(), "scan", 1024).unwrap();
        w.extend(instrs.iter().copied()).unwrap();
        let bytes = w.finish().unwrap();
        let info = scan_info(Cursor::new(&bytes)).unwrap();
        assert_eq!(info.name, "scan");
        assert_eq!(info.records, 10_000);
        assert_eq!(info.chunks, 10_000_u64.div_ceil(1024));
        assert_eq!(info.bytes, bytes.len() as u64);
        assert!(info.bytes_per_record() > 0.0);
    }

    #[test]
    fn instrs_adapter_stashes_errors() {
        let bytes = encode_v2("e", &branchy_trace(100));
        let mut good = TraceReader::open(bytes.as_slice()).unwrap().instrs();
        assert_eq!(good.by_ref().count(), 100);
        assert!(good.error().is_none());
        assert_eq!(good.reader().name(), "e");

        let cut = &bytes[..bytes.len() - 20];
        let mut bad = TraceReader::open(cut).unwrap().instrs();
        let n = bad.by_ref().count();
        assert!(n <= 100);
        assert!(bad.error().is_some());
        assert!(bad.take_error().is_some());
        assert!(bad.error().is_none());
    }

    #[test]
    fn empty_v2_trace_round_trips() {
        let bytes = encode_v2("empty", &[]);
        let (name, instrs) = decode(&bytes).unwrap();
        assert_eq!(name, "empty");
        assert!(instrs.is_empty());
        let info = scan_info(Cursor::new(&bytes)).unwrap();
        assert_eq!(info.records, 0);
        assert_eq!(info.chunks, 0);
    }

    #[test]
    fn writer_reports_compression_on_repetitive_code() {
        // A tight loop with calls: the dominant patterns of server code.
        let instrs = branchy_trace(50_000);
        let v2 = encode_v2("ratio", &instrs);
        let v1_size: usize = instrs
            .iter()
            .map(|i| if i.branch.is_some() { 28 } else { 10 })
            .sum::<usize>()
            + 16;
        assert!(
            v2.len() * 2 < v1_size,
            "v2 {} bytes vs v1 {} bytes",
            v2.len(),
            v1_size
        );
    }
}

#[cfg(test)]
mod seek_tests {
    use std::io::Cursor;

    use super::*;
    use crate::tests::branchy_trace;
    use pif_types::RetiredInstr;

    fn collect_rest<R: std::io::Read>(reader: &mut TraceReader<R>) -> Vec<RetiredInstr> {
        reader
            .by_ref()
            .collect::<Result<Vec<_>, _>>()
            .expect("clean tail")
    }

    #[test]
    fn open_indexed_matches_scan_info() {
        let instrs = branchy_trace(5_000);
        let mut w = TraceWriter::with_chunk_records(Vec::new(), "idx", 512).unwrap();
        w.extend(instrs.iter().copied()).unwrap();
        let bytes = w.finish().unwrap();
        let info = scan_info(Cursor::new(&bytes)).unwrap();

        let reader = TraceReader::open_indexed(Cursor::new(&bytes)).unwrap();
        let index = reader.chunk_index().expect("v2 builds an index");
        assert_eq!(index.entries().len() as u64, info.chunks);
        assert_eq!(index.total_records(), info.records);
        assert_eq!(reader.declared_count(), Some(info.records));
        // Entries tile the record space contiguously.
        let mut next = 0u64;
        for e in index.entries() {
            assert_eq!(e.first_record, next);
            next += e.records as u64;
        }
        assert_eq!(next, info.records);
    }

    #[test]
    fn index_locates_boundary_records() {
        let instrs = branchy_trace(1_000);
        let mut w = TraceWriter::with_chunk_records(Vec::new(), "loc", 100).unwrap();
        w.extend(instrs.iter().copied()).unwrap();
        let bytes = w.finish().unwrap();
        let reader = TraceReader::open_indexed(Cursor::new(&bytes)).unwrap();
        let index = reader.chunk_index().unwrap();
        for n in [0u64, 1, 99, 100, 101, 550, 999] {
            let e = index.locate(n).unwrap();
            assert!(e.first_record <= n && n < e.first_record + e.records as u64);
        }
        assert!(index.locate(1_000).is_none());
        assert!(index.locate(u64::MAX).is_none());
    }

    #[test]
    fn seek_yields_exact_tail_at_chunk_boundaries() {
        let instrs = branchy_trace(1_000);
        let mut w = TraceWriter::with_chunk_records(Vec::new(), "s", 128).unwrap();
        w.extend(instrs.iter().copied()).unwrap();
        let bytes = w.finish().unwrap();
        let mut reader = TraceReader::open_indexed(Cursor::new(&bytes)).unwrap();
        for n in [0usize, 1, 127, 128, 129, 500, 767, 999, 1_000] {
            reader.seek_to_record(n as u64).unwrap();
            assert_eq!(collect_rest(&mut reader), instrs[n..], "seek to {n}");
        }
    }

    #[test]
    fn seek_to_total_is_empty_but_past_total_is_a_typed_error() {
        let instrs = branchy_trace(50);
        let bytes = encode_v2("end", &instrs);
        let mut reader = TraceReader::open_indexed(Cursor::new(&bytes)).unwrap();
        // n == total: cleanly exhausted, not an error.
        reader.seek_to_record(50).unwrap();
        assert_eq!(reader.next(), None);
        assert_eq!(reader.declared_count(), Some(50));
        // n > total: the index can never have existed — typed error.
        for n in [51u64, 10_000, u64::MAX] {
            assert_eq!(
                reader.seek_to_record(n).err(),
                Some(TraceDecodeError::SeekPastEnd {
                    requested: n,
                    total: 50
                }),
                "seek to {n}"
            );
        }
        // A rejected seek does not poison the reader.
        reader.seek_to_record(49).unwrap();
        assert_eq!(collect_rest(&mut reader), instrs[49..]);
    }

    #[test]
    fn seek_works_backwards_and_repeatedly() {
        let instrs = branchy_trace(600);
        let mut w = TraceWriter::with_chunk_records(Vec::new(), "b", 64).unwrap();
        w.extend(instrs.iter().copied()).unwrap();
        let bytes = w.finish().unwrap();
        let mut reader = TraceReader::open_indexed(Cursor::new(&bytes)).unwrap();
        for n in [400usize, 20, 590, 0, 300] {
            reader.seek_to_record(n as u64).unwrap();
            let got: Vec<_> = reader.instrs_mut().take(5).collect();
            assert_eq!(got, instrs[n..(n + 5).min(instrs.len())], "window at {n}");
        }
    }

    #[test]
    fn seek_builds_index_lazily_on_plain_open() {
        let bytes = encode_v2("lazy", &branchy_trace(300));
        let mut reader = TraceReader::open(Cursor::new(&bytes)).unwrap();
        assert!(reader.chunk_index().is_none());
        reader.seek_to_record(100).unwrap();
        assert!(reader.chunk_index().is_some());
        assert_eq!(collect_rest(&mut reader).len(), 200);
    }

    #[test]
    fn seek_recovers_a_failed_reader() {
        let instrs = branchy_trace(200);
        let mut w = TraceWriter::with_chunk_records(Vec::new(), "r", 32).unwrap();
        w.extend(instrs.iter().copied()).unwrap();
        let mut bytes = w.finish().unwrap();
        // Corrupt the very first record's flags byte (branch bits without
        // the branch flag): iteration fails immediately, but the chunk
        // structure and terminator stay valid, so seeking past the
        // corruption recovers the reader.
        let flags_at = (4 + 4 + 4 + 1) + 8; // header(name "r") + chunk header
        bytes[flags_at] = 0b0100_0000;
        let mut bad = TraceReader::open(Cursor::new(&bytes)).unwrap();
        assert!(matches!(bad.next(), Some(Err(_))), "corruption detected");
        assert_eq!(bad.next(), None, "iterator fused");
        // Records 32.. live in later chunks, untouched by the corruption.
        bad.seek_to_record(150).unwrap();
        let tail: Vec<_> = bad.instrs_mut().collect();
        assert_eq!(tail, instrs[150..], "seek rebuilds decode state");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
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

    proptest! {
        #[test]
        fn arbitrary_traces_round_trip_v2(
            name in "[a-zA-Z0-9_-]{0,24}",
            instrs in proptest::collection::vec(instr_strategy(), 0..300),
            chunk in 1u32..64,
        ) {
            let mut w = TraceWriter::with_chunk_records(Vec::new(), &name, chunk).unwrap();
            w.extend(instrs.iter().copied()).unwrap();
            let bytes = w.finish().unwrap();
            let (back_name, back) = decode(&bytes).unwrap();
            prop_assert_eq!(back_name, name);
            prop_assert_eq!(back, instrs);
        }

        #[test]
        fn truncation_never_panics(
            instrs in proptest::collection::vec(instr_strategy(), 0..100),
            cut_seed in 0usize..4096,
        ) {
            let bytes = encode_v2("p", &instrs);
            let cut = cut_seed % (bytes.len() + 1);
            let _ = decode(&bytes[..cut]);
            let _ = scan_info(std::io::Cursor::new(&bytes[..cut]));
        }

        #[test]
        fn random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = decode(&data);
            let _ = scan_info(std::io::Cursor::new(&data));
        }

        /// The sampling contract: `seek_to_record(n)` then stream-to-end
        /// must equal the tail of a full decode for every `n <= total`
        /// (including `n == total`, the empty tail), and `n > total`
        /// must be the typed `SeekPastEnd` error — for arbitrary record
        /// counts straddling chunk boundaries.
        #[test]
        fn v2_seek_then_stream_equals_tail(
            instrs in proptest::collection::vec(instr_strategy(), 0..300),
            chunk in 1u32..48,
            seek_seed in 0usize..4096,
        ) {
            let mut w = TraceWriter::with_chunk_records(Vec::new(), "sp", chunk).unwrap();
            w.extend(instrs.iter().copied()).unwrap();
            let bytes = w.finish().unwrap();
            // Bias targets toward boundaries: straddle n*chunk ± 1, and
            // len+1 exercises the past-the-end rejection.
            let n = seek_seed % (instrs.len() + 2);
            let mut reader =
                TraceReader::open_indexed(std::io::Cursor::new(&bytes)).unwrap();
            if n <= instrs.len() {
                reader.seek_to_record(n as u64).unwrap();
                let tail: Vec<_> = reader.by_ref().collect::<Result<_, _>>().unwrap();
                prop_assert_eq!(&tail, &instrs[n..]);
            } else {
                prop_assert_eq!(
                    reader.seek_to_record(n as u64).err(),
                    Some(TraceDecodeError::SeekPastEnd {
                        requested: n as u64,
                        total: instrs.len() as u64,
                    })
                );
            }
        }
    }
}
