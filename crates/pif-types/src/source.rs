//! Streaming instruction sources.
//!
//! The simulation engine historically consumed fully-materialized
//! `&[RetiredInstr]` slices, which caps trace length at available RAM.
//! [`InstrSource`] abstracts "a stream of retired instructions" so the
//! engine can pull records lazily — from an in-memory slice, a generator
//! running in another thread, or a compressed trace file being decoded
//! one chunk at a time (out-of-core simulation).

use crate::RetiredInstr;

/// A pull-based stream of retired instructions.
///
/// Every `Iterator<Item = RetiredInstr>` is an `InstrSource` via the
/// blanket implementation, so slices (`trace.iter().copied()`), vectors
/// (`vec.into_iter()`), lazily-generating iterators, and streaming trace
/// decoders all plug into `pif_sim::Engine::run` directly.
/// `&mut S` works wherever `S` does (mutable iterator references are
/// iterators), which lets callers keep ownership and inspect the source —
/// e.g. for deferred decode errors — after a run.
///
/// # Example
///
/// ```
/// use pif_types::{Address, InstrSource, RetiredInstr, TrapLevel};
///
/// let mut source = (0..4u64).map(|i| {
///     RetiredInstr::simple(Address::new(i * 4), TrapLevel::Tl0)
/// });
/// let mut n = 0;
/// while let Some(instr) = source.next_instr() {
///     assert_eq!(instr.pc.raw(), n * 4);
///     n += 1;
/// }
/// assert_eq!(n, 4);
/// ```
pub trait InstrSource {
    /// Pulls the next retired instruction, or `None` at end of stream.
    fn next_instr(&mut self) -> Option<RetiredInstr>;

    /// Bounds on the number of instructions remaining, mirroring
    /// [`Iterator::size_hint`]. Purely advisory (e.g. for buffer
    /// presizing); `(0, None)` is always correct.
    fn instrs_hint(&self) -> (u64, Option<u64>) {
        (0, None)
    }
}

impl<I: Iterator<Item = RetiredInstr>> InstrSource for I {
    fn next_instr(&mut self) -> Option<RetiredInstr> {
        self.next()
    }

    fn instrs_hint(&self) -> (u64, Option<u64>) {
        let (lo, hi) = self.size_hint();
        (lo as u64, hi.map(|h| h as u64))
    }
}

/// A push-based stream of retired instructions: the producer drives, and
/// hands every record to a sink in order.
///
/// A recursive producer — the workload executor walks call graphs on its
/// own stack — cannot be pulled from without a thread and a channel, but
/// it can push. Trace walks that take an `InstrFeed` therefore run
/// straight off the generator, with no trace in memory, and a slice is a
/// feed too.
///
/// # Example
///
/// ```
/// use pif_types::{Address, InstrFeed, RetiredInstr, TrapLevel};
///
/// let trace = [RetiredInstr::simple(Address::new(0x40), TrapLevel::Tl0); 3];
/// let feed = &trace[..];
/// assert_eq!(feed.instr_count(), 3);
/// let mut n = 0;
/// feed.feed(|_| n += 1);
/// assert_eq!(n, 3);
/// ```
pub trait InstrFeed {
    /// The number of instructions [`InstrFeed::feed`] pushes.
    fn instr_count(&self) -> usize;

    /// Pushes every instruction into `sink`, in order.
    fn feed(self, sink: impl FnMut(RetiredInstr));
}

impl InstrFeed for &[RetiredInstr] {
    fn instr_count(&self) -> usize {
        self.len()
    }

    #[inline]
    fn feed(self, sink: impl FnMut(RetiredInstr)) {
        self.iter().copied().for_each(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Address, TrapLevel};

    fn instr(pc: u64) -> RetiredInstr {
        RetiredInstr::simple(Address::new(pc), TrapLevel::Tl0)
    }

    #[test]
    fn iterators_are_sources() {
        let v = vec![instr(0), instr(4), instr(8)];
        let mut src = v.clone().into_iter();
        assert_eq!(src.instrs_hint(), (3, Some(3)));
        assert_eq!(src.next_instr(), Some(instr(0)));
        assert_eq!(src.instrs_hint(), (2, Some(2)));
        let mut slice_src = v.iter().copied();
        assert_eq!(slice_src.next_instr(), Some(instr(0)));
    }

    #[test]
    fn mutable_references_are_sources() {
        fn drain(mut s: impl InstrSource) -> u64 {
            let mut n = 0;
            while s.next_instr().is_some() {
                n += 1;
            }
            n
        }
        let mut it = vec![instr(0), instr(4)].into_iter();
        assert_eq!(drain(&mut it), 2);
        assert_eq!(it.next_instr(), None);
    }
}
