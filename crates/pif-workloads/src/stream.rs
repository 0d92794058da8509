//! Lazily-generated instruction streams.
//!
//! [`TraceStream`] decouples trace generation from consumption: the
//! executor runs on a background thread pushing fixed-size batches into a
//! bounded channel, and the consumer pulls instructions one at a time.
//! Peak memory is a few batches regardless of trace length, so an engine
//! run over hundreds of millions of instructions stays CPU-bound instead
//! of RAM-bound.

use std::sync::mpsc::{sync_channel, Receiver};

use pif_types::RetiredInstr;

use crate::profiles::WorkloadProfile;

/// Records per channel message; large enough to amortize channel
/// synchronization, small enough to keep memory bounded.
const BATCH: usize = 4096;

/// Bounded channel depth in batches; with [`BATCH`] this caps the
/// in-flight window at a few hundred kilobytes.
const CHANNEL_BATCHES: usize = 4;

/// A lazily-generated retire-order instruction stream.
///
/// Created by [`WorkloadProfile::stream`]. Yields exactly the instruction
/// sequence `generate` would collect, without ever holding more than a
/// few batches in memory. If the stream is dropped before exhaustion the
/// generator thread finishes its current trace in the background and
/// exits once its channel sends start failing.
///
/// # Example
///
/// ```
/// use pif_workloads::WorkloadProfile;
///
/// let profile = WorkloadProfile::oltp_db2().scaled(0.02);
/// let eager = profile.generate(20_000);
/// let lazy: Vec<_> = profile.stream(20_000).collect();
/// assert_eq!(eager.instrs(), lazy.as_slice());
/// ```
#[derive(Debug)]
pub struct TraceStream {
    rx: Receiver<Vec<RetiredInstr>>,
    current: std::vec::IntoIter<RetiredInstr>,
    remaining: usize,
}

impl TraceStream {
    pub(crate) fn spawn(profile: WorkloadProfile, instructions: usize, offset: u64) -> Self {
        let (tx, rx) = sync_channel::<Vec<RetiredInstr>>(CHANNEL_BATCHES);
        std::thread::Builder::new()
            .name(format!("pif-gen-{}", profile.name()))
            .spawn(move || {
                let mut batch = Vec::with_capacity(BATCH);
                let mut disconnected = false;
                profile.generate_with_execution_seed_into(instructions, offset, |instr| {
                    if disconnected {
                        return;
                    }
                    batch.push(instr);
                    if batch.len() == BATCH {
                        let full = std::mem::replace(&mut batch, Vec::with_capacity(BATCH));
                        disconnected = tx.send(full).is_err();
                    }
                });
                if !disconnected && !batch.is_empty() {
                    let _ = tx.send(batch);
                }
            })
            .expect("spawn trace generator thread");
        TraceStream {
            rx,
            current: Vec::new().into_iter(),
            remaining: instructions,
        }
    }
}

impl Iterator for TraceStream {
    type Item = RetiredInstr;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(instr) = self.current.next() {
                self.remaining -= 1;
                return Some(instr);
            }
            match self.rx.recv() {
                Ok(batch) => self.current = batch.into_iter(),
                // The generator produces exactly the requested length, so
                // a disconnect with records outstanding means the thread
                // panicked (e.g. invalid profile parameters). Surface
                // that as loudly as the eager path would, instead of
                // silently ending a short stream.
                Err(_) => {
                    assert!(
                        self.remaining == 0,
                        "trace generator thread died with {} instructions outstanding",
                        self.remaining
                    );
                    return None;
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // The executor produces exactly the requested length.
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for TraceStream {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_matches_generate() {
        let profile = WorkloadProfile::web_zeus().scaled(0.02);
        let eager = profile.generate(30_000);
        let lazy: Vec<_> = profile.stream(30_000).collect();
        assert_eq!(eager.instrs(), lazy.as_slice());
    }

    #[test]
    fn stream_respects_execution_seed() {
        let profile = WorkloadProfile::oltp_db2().scaled(0.02);
        let a: Vec<_> = profile.stream_with_execution_seed(5_000, 7).collect();
        let b = profile.generate_with_execution_seed(5_000, 7);
        assert_eq!(a.as_slice(), b.instrs());
        let c: Vec<_> = profile.stream(5_000).collect();
        assert_ne!(a, c, "different execution seeds diverge");
    }

    #[test]
    fn size_hint_counts_down_exactly() {
        let mut s = WorkloadProfile::dss_qry2().scaled(0.02).stream(10_000);
        assert_eq!(s.len(), 10_000);
        s.next().unwrap();
        assert_eq!(s.len(), 9_999);
        assert_eq!(s.count(), 9_999);
    }

    #[test]
    #[should_panic(expected = "trace generator thread died")]
    fn generator_panic_is_not_swallowed() {
        use crate::{GeneratorParams, WorkloadClass};
        // Zero functions is invalid: the eager path panics in
        // ProgramImage::generate; the streaming path must not turn that
        // into a silent empty iterator.
        let bad = WorkloadProfile::new(
            "bad",
            WorkloadClass::Oltp,
            GeneratorParams {
                num_functions: 0,
                ..GeneratorParams::default()
            },
        );
        let _ = bad.stream(1_000).count();
    }

    #[test]
    fn early_drop_does_not_hang() {
        let mut s = WorkloadProfile::oltp_db2().scaled(0.02).stream(500_000);
        let _ = s.next();
        drop(s); // generator thread must not block the test from exiting
    }
}
