//! Multi-core CMP driver.
//!
//! The paper simulates a 16-core CMP and reports results averaged across
//! cores, with 95% confidence intervals from SimFlex-style sampling
//! (§5). Cores run independent server contexts (each core executes its
//! own thread of the server workload); instruction-side interference
//! between cores is negligible for the paper's private-L1 / large-NUCA
//! configuration, so the driver runs one engine per core in parallel and
//! aggregates.

use std::sync::Mutex;

use pif_types::{InstrSource, RetiredInstr};

use crate::config::EngineConfig;
use crate::engine::{Engine, RunOptions, RunReport};
use crate::prefetch::Prefetcher;

/// Mean, standard error, and 95% confidence half-width of a per-core
/// metric (the paper reports UIPC "at a 95% confidence level with less
/// than ±5% error").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample mean.
    pub mean: f64,
    /// Standard error of the mean.
    pub stderr: f64,
    /// 95% confidence half-width (normal approximation).
    pub ci95: f64,
}

impl Summary {
    /// Computes the summary of a sample. An empty sample yields all
    /// zeros (not a 0/0 NaN), and a singleton or constant sample has zero
    /// error.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                mean: 0.0,
                stderr: 0.0,
                ci95: 0.0,
            };
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = if samples.len() > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        let stderr = (var / n).sqrt();
        Summary {
            mean,
            stderr,
            ci95: 1.96 * stderr,
        }
    }

    /// Relative 95% error (the paper targets < ±5%).
    pub fn relative_error(&self) -> f64 {
        if self.mean == 0.0 {
            return 0.0;
        }
        self.ci95 / self.mean.abs()
    }
}

/// Aggregated results of a CMP run.
#[derive(Debug)]
pub struct CmpReport {
    /// Per-core reports, indexed by core id.
    pub per_core: Vec<RunReport>,
}

impl CmpReport {
    /// UIPC across cores.
    pub fn uipc(&self) -> Summary {
        Summary::of(
            &self
                .per_core
                .iter()
                .map(|r| r.timing.uipc())
                .collect::<Vec<_>>(),
        )
    }

    /// L1-I miss coverage across cores.
    pub fn miss_coverage(&self) -> Summary {
        Summary::of(
            &self
                .per_core
                .iter()
                .map(|r| r.miss_coverage())
                .collect::<Vec<_>>(),
        )
    }

    /// L1-I hit rate across cores.
    pub fn hit_rate(&self) -> Summary {
        Summary::of(
            &self
                .per_core
                .iter()
                .map(|r| r.fetch.hit_rate())
                .collect::<Vec<_>>(),
        )
    }

    /// Mean UIPC speedup over a baseline CMP run (per-core pairing).
    pub fn speedup_over(&self, baseline: &CmpReport) -> Summary {
        let speedups: Vec<f64> = self
            .per_core
            .iter()
            .zip(&baseline.per_core)
            .map(|(a, b)| a.speedup_over(b))
            .collect();
        Summary::of(&speedups)
    }
}

/// Runs `cores` independent engines in parallel, one per core.
///
/// `trace_for(core)` supplies each core's retire-order trace and
/// `prefetcher_for(core)` its (private) prefetcher instance, mirroring
/// the paper's dedicated per-core predictor hardware (§4).
///
/// # Example
///
/// ```
/// use pif_sim::multicore::run_cmp;
/// use pif_sim::{EngineConfig, NoPrefetcher};
/// use pif_types::{Address, RetiredInstr, TrapLevel};
///
/// let report = run_cmp(
///     &EngineConfig::paper_default(),
///     4,
///     0,
///     |core| {
///         (0..5_000u64)
///             .map(|i| RetiredInstr::simple(
///                 Address::new(((i + core as u64 * 7) % 512) * 64),
///                 TrapLevel::Tl0,
///             ))
///             .collect()
///     },
///     |_| NoPrefetcher,
/// );
/// assert_eq!(report.per_core.len(), 4);
/// assert!(report.uipc().mean > 0.0);
/// ```
pub fn run_cmp<P, T, F>(
    config: &EngineConfig,
    cores: usize,
    warmup_instrs: usize,
    trace_for: T,
    prefetcher_for: F,
) -> CmpReport
where
    P: Prefetcher + Send,
    T: Fn(usize) -> Vec<RetiredInstr> + Sync,
    F: Fn(usize) -> P + Sync,
{
    run_cmp_sources(
        config,
        cores,
        warmup_instrs,
        |core| trace_for(core).into_iter(),
        prefetcher_for,
    )
}

/// As [`run_cmp`], but each core pulls from a streaming [`InstrSource`]
/// instead of a materialized trace vector, so total memory stays bounded
/// no matter how long the per-core traces are — e.g. each core decoding
/// its own compressed trace file, or generating lazily on a side thread.
///
/// Pairs naturally with `pif_workloads::WorkloadProfile::stream` (lazy
/// per-core generation) or `pif_trace::TraceReader::instrs` (per-core
/// compressed trace files).
///
/// # Example
///
/// ```
/// use pif_sim::multicore::run_cmp_sources;
/// use pif_sim::{EngineConfig, NoPrefetcher};
/// use pif_types::{Address, RetiredInstr, TrapLevel};
///
/// // 4 cores, each pulling from a lazy per-core source; no Vec anywhere.
/// let report = run_cmp_sources(
///     &EngineConfig::paper_default(),
///     4,
///     0,
///     |core| {
///         (0..5_000u64).map(move |i| {
///             let pc = ((i + core as u64 * 7) % 512) * 64;
///             RetiredInstr::simple(Address::new(pc), TrapLevel::Tl0)
///         })
///     },
///     |_| NoPrefetcher,
/// );
/// assert_eq!(report.per_core.len(), 4);
/// ```
pub fn run_cmp_sources<P, S, T, F>(
    config: &EngineConfig,
    cores: usize,
    warmup_instrs: usize,
    source_for: T,
    prefetcher_for: F,
) -> CmpReport
where
    P: Prefetcher + Send,
    S: InstrSource + Send,
    T: Fn(usize) -> S + Sync,
    F: Fn(usize) -> P + Sync,
{
    assert!(cores > 0, "CMP needs at least one core");
    let engine = Engine::new(*config);
    let results: Mutex<Vec<Option<RunReport>>> = Mutex::new(vec![None; cores]);
    std::thread::scope(|s| {
        for core in 0..cores {
            let engine = &engine;
            let results = &results;
            let source_for = &source_for;
            let prefetcher_for = &prefetcher_for;
            s.spawn(move || {
                let source = source_for(core);
                let report = engine.run(
                    source,
                    prefetcher_for(core),
                    RunOptions::new().warmup(warmup_instrs),
                );
                results
                    .lock()
                    .expect("no core panics while holding the results lock")[core] = Some(report);
            });
        }
    });
    CmpReport {
        per_core: results
            .into_inner()
            .expect("no core panics while holding the results lock")
            .into_iter()
            .map(|r| r.expect("core completed"))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetch::NoPrefetcher;
    use pif_types::{Address, TrapLevel};

    fn core_trace(core: usize, len: u64, blocks: u64) -> Vec<RetiredInstr> {
        (0..len)
            .map(|i| {
                RetiredInstr::simple(
                    Address::new(((i + core as u64 * 13) % blocks) * 64),
                    TrapLevel::Tl0,
                )
            })
            .collect()
    }

    #[test]
    fn summary_statistics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.mean - 2.5).abs() < 1e-9);
        assert!(s.stderr > 0.0);
        assert!((s.ci95 - 1.96 * s.stderr).abs() < 1e-12);
        assert!(s.relative_error() > 0.0);
    }

    #[test]
    fn summary_of_singleton_has_zero_error() {
        let s = Summary::of(&[5.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.stderr, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.relative_error(), 0.0);
    }

    #[test]
    fn summary_of_empty_sample_is_all_zeros() {
        let s = Summary::of(&[]);
        assert_eq!(s.mean, 0.0, "no 0/0 NaN on the empty sample");
        assert_eq!(s.stderr, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.relative_error(), 0.0);
        assert!(s.mean.is_finite() && s.stderr.is_finite());
    }

    #[test]
    fn summary_of_constant_sample_has_zero_variance() {
        let s = Summary::of(&[2.5; 17]);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.stderr, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.relative_error(), 0.0);
    }

    #[test]
    fn cmp_runs_all_cores() {
        let report = run_cmp(
            &EngineConfig::paper_default(),
            8,
            0,
            |core| core_trace(core, 20_000, 2048),
            |_| NoPrefetcher,
        );
        assert_eq!(report.per_core.len(), 8);
        for r in &report.per_core {
            assert_eq!(r.frontend.instructions, 20_000);
        }
        let uipc = report.uipc();
        assert!(uipc.mean > 0.0);
    }

    #[test]
    fn identical_cores_have_zero_variance() {
        let report = run_cmp(
            &EngineConfig::paper_default(),
            4,
            0,
            |_| core_trace(0, 10_000, 512),
            |_| NoPrefetcher,
        );
        assert!(report.uipc().ci95 < 1e-9, "identical traces must agree");
    }

    #[test]
    fn sources_match_materialized_traces() {
        let vecs = run_cmp(
            &EngineConfig::paper_default(),
            4,
            100,
            |core| core_trace(core, 15_000, 1024),
            |_| NoPrefetcher,
        );
        let sources = run_cmp_sources(
            &EngineConfig::paper_default(),
            4,
            100,
            |core| {
                (0..15_000u64).map(move |i| {
                    RetiredInstr::simple(
                        Address::new(((i + core as u64 * 13) % 1024) * 64),
                        TrapLevel::Tl0,
                    )
                })
            },
            |_| NoPrefetcher,
        );
        for (a, b) in vecs.per_core.iter().zip(&sources.per_core) {
            assert_eq!(a.fetch, b.fetch);
            assert_eq!(a.timing, b.timing);
        }
    }

    #[test]
    fn speedup_pairs_cores() {
        let base = run_cmp(
            &EngineConfig::paper_default(),
            4,
            0,
            |core| core_trace(core, 30_000, 4096),
            |_| NoPrefetcher,
        );
        struct NextOne;
        impl Prefetcher for NextOne {
            fn name(&self) -> &'static str {
                "NextOne"
            }
            fn on_access_outcome(
                &mut self,
                _a: &pif_types::FetchAccess,
                block: pif_types::BlockAddr,
                outcome: crate::cache::AccessOutcome,
                ctx: &mut crate::prefetch::PrefetchContext<'_>,
            ) {
                if outcome == crate::cache::AccessOutcome::Miss {
                    for i in 1..=4 {
                        ctx.prefetch(block.offset(i));
                    }
                }
            }
        }
        let pf = run_cmp(
            &EngineConfig::paper_default(),
            4,
            0,
            |core| core_trace(core, 30_000, 4096),
            |_| NextOne,
        );
        let s = pf.speedup_over(&base);
        assert!(
            s.mean > 1.0,
            "sequential prefetch must speed up sweeps: {s:?}"
        );
    }
}
