//! Fetch-stall timing model.
//!
//! The paper reports UIPC (user instructions committed per cycle) from
//! cycle-accurate simulation. This model captures the first-order terms
//! that differ across prefetcher configurations: exposed instruction-fetch
//! stalls. Base execution cost (dispatch width + back-end CPI) and branch
//! misprediction penalties are charged identically for every prefetcher,
//! so relative speedups are driven — as in the paper — by how many fetch
//! stalls each prefetcher removes.

use crate::config::TimingConfig;

/// Accumulates simulated cycles.
#[derive(Debug, Clone)]
pub struct TimingModel {
    config: TimingConfig,
    instructions: u64,
    base_cycles: f64,
    fetch_stall_cycles: f64,
    mispredict_cycles: f64,
    mark: Option<Box<TimingModel>>,
}

impl TimingModel {
    /// Creates a timing model.
    pub fn new(config: TimingConfig) -> Self {
        TimingModel {
            config,
            instructions: 0,
            base_cycles: 0.0,
            fetch_stall_cycles: 0.0,
            mispredict_cycles: 0.0,
            mark: None,
        }
    }

    /// Marks the warmup boundary: subsequent [`TimingModel::report`]s
    /// cover only activity after this point, while [`TimingModel::now`]
    /// keeps advancing monotonically (in-flight events stay consistent).
    pub fn mark(&mut self) {
        self.mark = Some(Box::new(TimingModel {
            config: self.config,
            instructions: self.instructions,
            base_cycles: self.base_cycles,
            fetch_stall_cycles: self.fetch_stall_cycles,
            mispredict_cycles: self.mispredict_cycles,
            mark: None,
        }));
    }

    /// Charges one retired instruction (and a misprediction penalty if it
    /// was a mispredicted branch).
    #[inline]
    pub fn retire_instruction(&mut self, mispredicted: bool) {
        self.instructions += 1;
        self.base_cycles += 1.0 / self.config.dispatch_width as f64 + self.config.backend_cpi;
        if mispredicted {
            self.mispredict_cycles += self.config.mispredict_penalty_cycles as f64;
        }
    }

    /// Charges an exposed instruction-fetch stall of `latency` cycles
    /// (scaled by the configured exposure factor).
    #[inline]
    pub fn fetch_stall(&mut self, latency: u64) {
        self.fetch_stall_cycles += latency as f64 * self.config.fetch_stall_exposure;
    }

    /// Current simulated cycle count.
    #[inline]
    pub fn now(&self) -> u64 {
        (self.base_cycles + self.fetch_stall_cycles + self.mispredict_cycles) as u64
    }

    /// Finalizes into a report covering activity since the last
    /// [`TimingModel::mark`] (or the whole run if never marked).
    pub fn report(&self) -> TimingReport {
        let (i0, b0, f0, m0) = match &self.mark {
            Some(m) => (
                m.instructions,
                m.base_cycles,
                m.fetch_stall_cycles,
                m.mispredict_cycles,
            ),
            None => (0, 0.0, 0.0, 0.0),
        };
        let cycles = (self.base_cycles - b0)
            + (self.fetch_stall_cycles - f0)
            + (self.mispredict_cycles - m0);
        TimingReport {
            instructions: self.instructions - i0,
            cycles: (cycles as u64).max(1),
            base_cycles: (self.base_cycles - b0) as u64,
            fetch_stall_cycles: (self.fetch_stall_cycles - f0) as u64,
            mispredict_cycles: (self.mispredict_cycles - m0) as u64,
        }
    }
}

/// Cycle breakdown and throughput for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingReport {
    /// Instructions retired.
    pub instructions: u64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Cycles from dispatch width and back-end CPI.
    pub base_cycles: u64,
    /// Exposed instruction-fetch stall cycles.
    pub fetch_stall_cycles: u64,
    /// Branch misprediction penalty cycles.
    pub mispredict_cycles: u64,
}

impl TimingReport {
    /// Instructions per cycle — the paper's UIPC throughput metric.
    pub fn uipc(&self) -> f64 {
        self.instructions as f64 / self.cycles as f64
    }

    /// Fraction of cycles spent stalled on instruction fetch.
    pub fn fetch_stall_fraction(&self) -> f64 {
        self.fetch_stall_cycles as f64 / self.cycles as f64
    }

    /// Speedup of `self` over a `baseline` run of the same trace.
    pub fn speedup_over(&self, baseline: &TimingReport) -> f64 {
        self.uipc() / baseline.uipc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TimingConfig {
        TimingConfig {
            dispatch_width: 4,
            fetch_stall_exposure: 1.0,
            mispredict_penalty_cycles: 10,
            backend_cpi: 0.0,
        }
    }

    #[test]
    fn base_cycles_follow_width() {
        let mut t = TimingModel::new(cfg());
        for _ in 0..400 {
            t.retire_instruction(false);
        }
        let r = t.report();
        assert_eq!(r.cycles, 100);
        assert!((r.uipc() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn fetch_stalls_add_cycles_and_cut_uipc() {
        let mut a = TimingModel::new(cfg());
        let mut b = TimingModel::new(cfg());
        for _ in 0..400 {
            a.retire_instruction(false);
            b.retire_instruction(false);
        }
        b.fetch_stall(100);
        assert!(b.report().uipc() < a.report().uipc());
        assert_eq!(b.report().fetch_stall_cycles, 100);
        assert!((a.report().speedup_over(&b.report()) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn exposure_scales_stalls() {
        let mut t = TimingModel::new(TimingConfig {
            fetch_stall_exposure: 0.5,
            ..cfg()
        });
        t.retire_instruction(false);
        t.fetch_stall(100);
        assert_eq!(t.report().fetch_stall_cycles, 50);
    }

    #[test]
    fn mispredicts_charged() {
        let mut t = TimingModel::new(cfg());
        t.retire_instruction(true);
        assert_eq!(t.report().mispredict_cycles, 10);
    }

    #[test]
    fn now_advances_monotonically() {
        let mut t = TimingModel::new(cfg());
        let mut prev = t.now();
        for i in 0..100 {
            t.retire_instruction(i % 7 == 0);
            if i % 13 == 0 {
                t.fetch_stall(15);
            }
            assert!(t.now() >= prev);
            prev = t.now();
        }
    }
}
