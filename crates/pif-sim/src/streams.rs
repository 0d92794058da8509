//! Instruction-stream observation points.
//!
//! The paper's §2 compares the predictability of the instruction stream as
//! observed at different places in the processor. [`StreamPoint`]
//! enumerates the four observation points of Figure 2; the
//! [`crate::predictor_eval`] harness measures temporal-stream predictor
//! coverage at each one.

use std::fmt;

use pif_types::BlockAddr;

/// Where in the pipeline an instruction stream is recorded (Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamPoint {
    /// The L1-I *miss* stream: filtered and fragmented by the cache
    /// (§2.1), and polluted by wrong-path misses.
    Miss,
    /// The L1-I *access* stream: unfiltered but still carrying wrong-path
    /// noise from the branch predictor (§2.2).
    Access,
    /// The *retire-order* stream: correct-path only, but interleaved with
    /// interrupt handler code (§2.3).
    Retire,
    /// Retire-order streams *separated by trap level*: the stream PIF
    /// records; nearly perfectly repetitive.
    RetireSep,
}

impl StreamPoint {
    /// All observation points, in the order Figure 2 plots them.
    pub const ALL: [StreamPoint; 4] = [
        StreamPoint::Miss,
        StreamPoint::Access,
        StreamPoint::Retire,
        StreamPoint::RetireSep,
    ];
}

impl fmt::Display for StreamPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StreamPoint::Miss => "Miss",
            StreamPoint::Access => "Access",
            StreamPoint::Retire => "Retire",
            StreamPoint::RetireSep => "RetireSep",
        };
        f.write_str(s)
    }
}

/// Collapses consecutive observations of the same block into one record,
/// the way the paper's compactor collapses consecutively retired PCs in
/// the same block (§4.1) and temporal-stream recorders dedup repeated
/// accesses.
///
/// # Example
///
/// ```
/// use pif_sim::streams::BlockDedup;
/// use pif_types::BlockAddr;
///
/// let mut d = BlockDedup::new();
/// assert!(d.observe(BlockAddr::from_number(1)));
/// assert!(!d.observe(BlockAddr::from_number(1)), "consecutive repeat");
/// assert!(d.observe(BlockAddr::from_number(2)));
/// assert!(d.observe(BlockAddr::from_number(1)), "non-consecutive repeat passes");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockDedup {
    last: Option<BlockAddr>,
}

impl BlockDedup {
    /// Creates an empty deduplicator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` if `block` differs from the immediately preceding
    /// observation (and records it).
    pub fn observe(&mut self, block: BlockAddr) -> bool {
        if self.last == Some(block) {
            return false;
        }
        self.last = Some(block);
        true
    }

    /// Forgets the last observation (e.g. at a trap-level switch).
    pub fn reset(&mut self) {
        self.last = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_points_are_distinct_and_displayable() {
        let names: Vec<String> = StreamPoint::ALL.iter().map(|p| p.to_string()).collect();
        assert_eq!(names, vec!["Miss", "Access", "Retire", "RetireSep"]);
    }

    #[test]
    fn dedup_reset_forgets() {
        let mut d = BlockDedup::new();
        let b = BlockAddr::from_number(5);
        assert!(d.observe(b));
        d.reset();
        assert!(d.observe(b), "reset must clear the last-seen block");
    }
}
