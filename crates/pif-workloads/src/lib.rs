//! Synthetic server workloads for the Proactive Instruction Fetch
//! reproduction.
//!
//! The paper evaluates on commercial server stacks — IBM DB2 and Oracle
//! running TPC-C, DB2 running TPC-H queries 2 and 17, and Apache/Zeus
//! running SPECweb99 — traced under Solaris on a simulated SPARC CMP. None
//! of those traces are obtainable here, so this crate synthesizes
//! retire-order instruction traces with the *statistical properties that
//! drive every figure in the paper*:
//!
//! * **multi-megabyte instruction footprints** that dwarf a 64 KB L1-I;
//! * **deep, repetitive call graphs**: transactions execute long
//!   deterministic sequences of function calls (temporal streams thousands
//!   of blocks long, §5.3);
//! * **spatial locality within functions**: code is laid out contiguously,
//!   with conditional skips creating the discontinuities of Fig. 3;
//! * **data-dependent branches** that mispredict and (via `pif-sim`'s
//!   front end) inject wrong-path noise (§2.2);
//! * **hardware interrupt handlers** at trap level 1 arriving spontaneously
//!   and fragmenting the application stream (§2.3).
//!
//! Six [`WorkloadProfile`]s mirror the paper's workload classes: two OLTP
//! (DB2, Oracle), two DSS (TPC-H Q2, Q17), two Web (Apache, Zeus), each
//! with parameters tuned to the class's published behaviour.
//!
//! # Example
//!
//! ```
//! use pif_workloads::WorkloadProfile;
//!
//! // A laptop-scale slice of the OLTP-DB2 workload.
//! let trace = WorkloadProfile::oltp_db2().scaled(0.05).generate(100_000);
//! assert_eq!(trace.len(), 100_000);
//! let stats = trace.stats();
//! assert!(stats.footprint_blocks > 200, "multi-block footprint");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod corpus;
mod executor;
mod params;
mod profiles;
mod program;
mod stream;
mod trace;

pub use executor::Executor;
pub use params::GeneratorParams;
pub use profiles::{GeneratedFeed, WorkloadClass, WorkloadProfile};
pub use program::{CallGraphStats, FunctionLayout, ProgramImage, Site};
pub use stream::TraceStream;
pub use trace::{Trace, TraceStats};

// Generated workloads through the trace codec: encoded by
// `pif_trace::encode_v2`, decoded by `pif_trace::decode` and
// `TraceReader`.
#[cfg(test)]
mod io {
    use pif_trace::{decode, encode_v2, TraceDecodeError, TraceReader, MAGIC, MAX_CHUNK_RECORDS};
    use pif_types::{Address, BranchInfo, BranchKind, RetiredInstr, TrapLevel};

    use crate::{Trace, WorkloadProfile};

    fn encode_trace(trace: &Trace) -> Vec<u8> {
        encode_v2(trace.name(), trace.instrs())
    }

    fn decode_trace(data: &[u8]) -> Result<Trace, TraceDecodeError> {
        decode(data).map(|(name, instrs)| Trace::new(name, instrs))
    }

    mod tests {
        use super::*;

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
            // Streamed from any `Read` source.
            let t = sample();
            let buf = encode_trace(&t);
            let reader = TraceReader::open(buf.as_slice()).unwrap();
            let name = reader.name().to_string();
            let instrs = reader.collect::<Result<Vec<_>, _>>().unwrap();
            assert_eq!(t, Trace::new(name, instrs));
        }

        #[test]
        fn rejects_bad_magic() {
            // TraceDecodeError compares structurally, so no `matches!`
            // boilerplate.
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
            // A chunk header declaring more records than its payload can
            // hold (every record costs at least 2 bytes) must be rejected
            // before any decode loop or allocation.
            let t = Trace::new("x", vec![]);
            let header = encode_trace(&t).len() - 16; // strip the terminator
            let chunk = |records: u32, payload: &[u8]| {
                let mut bytes = encode_trace(&t);
                bytes.truncate(header);
                bytes.extend_from_slice(&records.to_le_bytes());
                bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                bytes.extend_from_slice(payload);
                bytes
            };
            assert_eq!(
                decode_trace(&chunk(MAX_CHUNK_RECORDS, &[0; 4])).err(),
                Some(TraceDecodeError::Corrupt("record count exceeds payload"))
            );
            // Off-by-one: one declared record, one payload byte.
            assert_eq!(
                decode_trace(&chunk(1, &[0])).err(),
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
            // The first record's flags byte, whose low bits hold the trap
            // level, sits after the header and the chunk header.
            let flags_offset = 4 + 4 + 4 + 1 + 8;
            bytes[flags_offset] = 0b11;
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

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        const KINDS: [BranchKind; 5] = [
            BranchKind::Conditional,
            BranchKind::Direct,
            BranchKind::Call,
            BranchKind::IndirectCall,
            BranchKind::Return,
        ];

        fn instr_strategy() -> impl Strategy<Value = RetiredInstr> {
            (
                any::<u64>(),
                0usize..TrapLevel::COUNT,
                proptest::option::of((0usize..5, any::<bool>(), any::<u64>(), any::<u64>())),
            )
                .prop_map(|(pc, tl, branch)| RetiredInstr {
                    pc: Address::new(pc),
                    trap_level: TrapLevel::from_index(tl),
                    branch: branch.map(|(k, taken, target, fall)| BranchInfo {
                        kind: KINDS[k],
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
}
