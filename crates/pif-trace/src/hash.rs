//! Content hashing for instruction streams.
//!
//! A trace's *content hash* is an FNV-1a 64 digest over a canonical
//! per-record byte encoding, independent of the container that carried
//! the records: the same instruction sequence hashes identically whether
//! it came from a trace file at any chunk size, an in-memory slice, or a
//! workload generator stream. `pif-lab`'s result cache uses it as the
//! trace half of its `(trace hash, config fingerprint)` key, and
//! `tracectl hash` exposes it for file identity checks.
//!
//! The canonical encoding is *not* the on-disk trace format (which is
//! versioned, chunked, and delta-compressed); it is a fixed-width,
//! byte-order-defined projection of [`RetiredInstr`] chosen so that any
//! two streams with equal record sequences produce equal bytes:
//!
//! ```text
//! pc: u64 le | trap_level: u8 | branch tag: u8 | taken: u8
//!            | taken_target: u64 le | fall_through: u64 le
//! ```
//!
//! Non-branch records encode tag `0` with the three branch fields zeroed;
//! branch kinds are tagged 1–5 in declaration order. A length suffix
//! (record count) is folded in by [`TraceHasher::finish`] so a stream is
//! never a hash-prefix of a longer one.

use pif_types::rng::FNV1A_64_OFFSET;
pub use pif_types::rng::{fnv1a_64, fnv1a_64_once};
use pif_types::{BranchKind, RetiredInstr};

/// Streaming content hasher over retired-instruction records.
///
/// Feed records in retirement order with [`update`](Self::update) (any
/// source: a decoder, a generator, a slice walk), then take the digest
/// with [`finish`](Self::finish). Equal record sequences — regardless of
/// container format or chunking — produce equal digests.
#[derive(Debug, Clone)]
pub struct TraceHasher {
    acc: u64,
    records: u64,
}

impl Default for TraceHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        TraceHasher {
            acc: FNV1A_64_OFFSET,
            records: 0,
        }
    }

    /// Folds one record into the digest.
    #[inline]
    pub fn update(&mut self, instr: &RetiredInstr) {
        let mut buf = [0u8; 8 + 1 + 1 + 1 + 8 + 8];
        buf[..8].copy_from_slice(&instr.pc.raw().to_le_bytes());
        buf[8] = instr.trap_level as u8;
        if let Some(b) = &instr.branch {
            buf[9] = match b.kind {
                BranchKind::Conditional => 1,
                BranchKind::Direct => 2,
                BranchKind::Call => 3,
                BranchKind::IndirectCall => 4,
                BranchKind::Return => 5,
            };
            buf[10] = u8::from(b.taken);
            buf[11..19].copy_from_slice(&b.taken_target.raw().to_le_bytes());
            buf[19..27].copy_from_slice(&b.fall_through.raw().to_le_bytes());
        }
        self.acc = fnv1a_64(self.acc, &buf);
        self.records += 1;
    }

    /// Records hashed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The digest: the record bytes folded with a record-count suffix.
    pub fn finish(&self) -> u64 {
        fnv1a_64(self.acc, &self.records.to_le_bytes())
    }
}

/// Hashes a complete instruction stream.
///
/// Drains `source`; pass `&mut iter` to keep ownership. For an on-disk
/// trace use [`crate::TraceReader::content_hash`], which also surfaces
/// decode errors.
pub fn content_hash<I: IntoIterator<Item = RetiredInstr>>(source: I) -> u64 {
    let mut h = TraceHasher::new();
    for instr in source {
        h.update(&instr);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_types::{Address, BranchInfo, TrapLevel};

    fn simple(pc: u64) -> RetiredInstr {
        RetiredInstr::simple(Address::new(pc), TrapLevel::Tl0)
    }

    fn branch(pc: u64, kind: BranchKind, taken: bool) -> RetiredInstr {
        RetiredInstr {
            pc: Address::new(pc),
            trap_level: TrapLevel::Tl0,
            branch: Some(BranchInfo {
                kind,
                taken,
                taken_target: Address::new(pc + 64),
                fall_through: Address::new(pc + 4),
            }),
        }
    }

    #[test]
    fn equal_streams_hash_equal() {
        let trace: Vec<_> = (0..100).map(|i| simple(i * 4)).collect();
        assert_eq!(
            content_hash(trace.iter().copied()),
            content_hash(trace.iter().copied())
        );
    }

    #[test]
    fn any_field_change_changes_hash() {
        let base = [simple(0), branch(4, BranchKind::Conditional, true)];
        let h0 = content_hash(base.iter().copied());
        let variants = [
            vec![simple(4), branch(4, BranchKind::Conditional, true)],
            vec![
                RetiredInstr::simple(Address::new(0), TrapLevel::Tl1),
                branch(4, BranchKind::Conditional, true),
            ],
            vec![simple(0), branch(4, BranchKind::Conditional, false)],
            vec![simple(0), branch(4, BranchKind::Direct, true)],
            vec![simple(0), simple(4)],
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(h0, content_hash(v.iter().copied()), "variant {i}");
        }
    }

    #[test]
    fn prefix_is_not_hash_equal() {
        let trace: Vec<_> = (0..10).map(|i| simple(i * 4)).collect();
        let full = content_hash(trace.iter().copied());
        let prefix = content_hash(trace[..9].iter().copied());
        assert_ne!(full, prefix);
        // The length suffix also separates the empty stream from any
        // other stream whose folded bytes happen to collide.
        assert_ne!(content_hash(std::iter::empty()), full);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let trace: Vec<_> = (0..50)
            .map(|i| branch(i * 4, BranchKind::Call, i % 2 == 0))
            .collect();
        let mut h = TraceHasher::new();
        for instr in &trace {
            h.update(instr);
        }
        assert_eq!(h.records(), 50);
        assert_eq!(h.finish(), content_hash(trace.iter().copied()));
    }
}
