//! Hybrid (tournament) predictor combining gshare and bimodal with a
//! per-PC chooser, per Table I ("Hybrid branch predictor: 16K gShare & 16K
//! bimodal").

use pif_types::Address;

use super::bimodal::Bimodal;
use super::counter::SaturatingCounter;
use super::gshare::Gshare;
use super::DirectionPredictor;

/// Tournament predictor: a chooser table of 2-bit counters picks, per PC,
/// between the gshare and bimodal components; both components always train.
///
/// # Example
///
/// ```
/// use pif_sim::bpred::{DirectionPredictor, HybridPredictor};
/// use pif_types::Address;
///
/// let mut p = HybridPredictor::paper_default();
/// let pc = Address::new(0x40);
/// for _ in 0..4 { p.update(pc, true); }
/// assert!(p.predict(pc));
/// ```
#[derive(Debug, Clone)]
pub struct HybridPredictor {
    gshare: Gshare,
    bimodal: Bimodal,
    chooser: Vec<SaturatingCounter>,
    chooser_mask: u64,
}

impl HybridPredictor {
    /// Creates a hybrid predictor with the given component sizes.
    ///
    /// # Panics
    ///
    /// Panics if any size is not a non-zero power of two.
    pub fn new(gshare_entries: usize, bimodal_entries: usize, chooser_entries: usize) -> Self {
        assert!(
            chooser_entries.is_power_of_two() && chooser_entries > 0,
            "chooser entries must be a power of two"
        );
        HybridPredictor {
            gshare: Gshare::new(gshare_entries),
            bimodal: Bimodal::new(bimodal_entries),
            // Weakly-taken start: mildly prefer gshare (counter >= 2 picks
            // gshare), matching common tournament initialization.
            chooser: vec![SaturatingCounter::weakly_taken(); chooser_entries],
            chooser_mask: chooser_entries as u64 - 1,
        }
    }

    /// The paper's Table I sizing: 16K gshare, 16K bimodal (16K chooser).
    pub fn paper_default() -> Self {
        Self::new(16 * 1024, 16 * 1024, 16 * 1024)
    }

    fn chooser_index(&self, pc: Address) -> usize {
        ((pc.raw() >> 2) & self.chooser_mask) as usize
    }
}

impl DirectionPredictor for HybridPredictor {
    fn predict(&self, pc: Address) -> bool {
        if self.chooser[self.chooser_index(pc)].predict_taken() {
            self.gshare.predict(pc)
        } else {
            self.bimodal.predict(pc)
        }
    }

    fn update(&mut self, pc: Address, taken: bool) {
        let g = self.gshare.predict(pc);
        let b = self.bimodal.predict(pc);
        // Train the chooser toward whichever component was right (only when
        // they disagree).
        if g != b {
            let idx = self.chooser_index(pc);
            self.chooser[idx].train(g == taken);
        }
        self.gshare.update(pc, taken);
        self.bimodal.update(pc, taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_branch_predicted_by_both() {
        let mut p = HybridPredictor::new(64, 64, 64);
        let pc = Address::new(0x10);
        for _ in 0..8 {
            p.update(pc, true);
        }
        assert!(p.predict(pc));
    }

    #[test]
    fn chooser_migrates_to_better_component() {
        let mut p = HybridPredictor::new(256, 256, 256);
        let pc = Address::new(0x20);
        // Alternating pattern: gshare learns it, bimodal oscillates.
        let mut taken = true;
        for _ in 0..400 {
            p.update(pc, taken);
            taken = !taken;
        }
        let mut correct = 0;
        for _ in 0..100 {
            if p.predict(pc) == taken {
                correct += 1;
            }
            p.update(pc, taken);
            taken = !taken;
        }
        assert!(
            correct >= 90,
            "hybrid should track gshare on alternating branch, got {correct}/100"
        );
    }

    #[test]
    fn mostly_taken_branch_high_accuracy() {
        let mut p = HybridPredictor::paper_default();
        let pc = Address::new(0x30);
        let mut correct = 0;
        let total = 1000;
        for i in 0..total {
            let taken = i % 10 != 0; // 90% taken
            if p.predict(pc) == taken {
                correct += 1;
            }
            p.update(pc, taken);
        }
        assert!(
            correct as f64 / total as f64 > 0.85,
            "expected ~90% accuracy, got {correct}/{total}"
        );
    }
}
