//! The result cache's two contracts:
//!
//! 1. **Key injectivity** — two cells with different configuration
//!    blocks (names, kinds, values, order) can never share a canonical
//!    identity string, so they can never share a cache key (proptested).
//! 2. **Byte-identical replay** — a warm-cache `run_spec` performs zero
//!    engine runs (proven by the `jobs_executed` counting hook) yet
//!    serializes to exactly the bytes of the cold run that populated the
//!    cache, and of a cache-free run.
//!
//! Each cache also memoizes its synthetic trace hashes: the tests here
//! check that a warm run generates no trace to key its cells, and that
//! every generator input (footprint, instruction count, execution seed)
//! keys the memo.

use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

use pif_lab::cache::{cell_fingerprint, config_block_canon};
use pif_lab::json::fmt_f64;
use pif_lab::{
    registry, run_spec, run_spec_stats, CacheStats, CdfKind, Measure, Metric, ParamAxis,
    ResultCache, RunOptions, Scale, SweepSpec,
};
use proptest::prelude::*;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pif-lab-cache-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `jobs_executed` is a process-wide counter, and the test harness runs
/// tests on parallel threads: every test here that runs a sweep holds
/// this lock, so no other test's cells land in a measured delta.
static SWEEPS: Mutex<()> = Mutex::new(());

/// The trace hashes `cache` derived and answered from its memo since
/// `before`.
fn hash_delta(cache: &ResultCache, before: CacheStats) -> (u64, u64) {
    let now = cache.stats();
    (
        now.hashes_derived - before.hashes_derived,
        now.hash_memo_hits - before.hash_memo_hits,
    )
}

/// A cheap synthetic grid over two workloads.
fn two_workload_analysis() -> SweepSpec {
    SweepSpec::new(
        "memo-inputs",
        "two analysis cells",
        Measure::PifAnalysis(CdfKind::None),
    )
    .with_workloads(vec!["OLTP-DB2", "Web-Apache"])
}

/// The warm-replay contract, end to end. One test (not several) because
/// `jobs_executed` is a process-wide counter: running the cold and warm
/// sweeps in a single sequence keeps other tests in this binary from
/// perturbing the deltas we assert on.
#[test]
fn warm_cache_rerun_is_byte_identical_with_zero_engine_runs() {
    // The lock guards no data, so a poisoned one still serializes.
    let _sweeps = SWEEPS.lock().unwrap_or_else(PoisonError::into_inner);
    let dir = tmpdir("warm");
    let cache = ResultCache::open(&dir).unwrap();
    let spec = registry::fig10();
    let base = RunOptions::new()
        .scale(Scale::tiny())
        .threads(4)
        .smoke(true);

    // Reference: no cache involved at all.
    let (reference, _) = run_spec_stats(&spec, &base);
    let reference_json = reference.to_json().unwrap();

    // Cold run populates the cache — every cell executes, and each
    // workload's trace hash is derived once.
    let cached_opts = base.clone().cache(&cache);
    let workloads = spec.workload_names().len() as u64;
    let (cold, cold_stats) = run_spec_stats(&spec, &cached_opts);
    assert_eq!(cold_stats.executed_cells, spec.grid_len());
    assert_eq!(cold_stats.cached_cells, 0);
    assert_eq!(cache.entries().unwrap(), spec.grid_len());
    assert_eq!(cold.to_json().unwrap(), reference_json);
    assert_eq!(hash_delta(&cache, CacheStats::default()), (workloads, 0));

    // Warm run answers everything from disk: zero jobs reach the
    // measurement layer, no trace is generated to key the cells (every
    // workload's hash comes from the memo), and the report bytes are
    // untouched.
    let before = pif_lab::jobs_executed();
    let hashes_before = cache.stats();
    let (warm, warm_stats) = run_spec_stats(&spec, &cached_opts);
    let executed_during_warm = pif_lab::jobs_executed() - before;
    assert_eq!(executed_during_warm, 0, "warm cache must not simulate");
    assert_eq!(warm_stats.cached_cells, spec.grid_len());
    assert_eq!(warm_stats.executed_cells, 0);
    assert_eq!(warm.to_json().unwrap(), reference_json);
    assert_eq!(hash_delta(&cache, hashes_before), (0, workloads));

    // Partial warmth: clearing the store re-simulates everything (the
    // mixed case is exercised by the service soak test).
    cache.clear().unwrap();
    let (refilled, refill_stats) = run_spec_stats(&spec, &cached_opts);
    assert_eq!(refill_stats.executed_cells, spec.grid_len());
    assert_eq!(refilled.to_json().unwrap(), reference_json);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A partially cached history-capacity grid. The capacities bind at tiny
/// scale (fig9-history's do not), so one workload's five cells are five
/// lanes of one job with different results; `tests/determinism.rs` runs
/// the same grid at 1, 2 and 8 threads.
#[test]
fn partially_cached_lane_grid_reruns_only_its_missing_cells() {
    let _sweeps = SWEEPS.lock().unwrap_or_else(PoisonError::into_inner);
    let dir = tmpdir("lanes");
    let cache = ResultCache::open(&dir).unwrap();
    let spec = SweepSpec::new(
        "history-lanes",
        "history capacities that bind at tiny scale",
        Measure::PifAnalysis(CdfKind::None),
    )
    .with_axis(ParamAxis::HistoryCapacity(vec![16, 64, 256, 1024, 32768]));
    let scale = Scale::tiny();
    let base = RunOptions::new().scale(scale).threads(2);
    let (reference, _) = run_spec_stats(&spec, &base);
    let reference_json = reference.to_json().unwrap();
    let coverage: Vec<f64> = reference.cells[..5]
        .iter()
        .map(|c| c.expect_metric("predictor_coverage"))
        .collect();
    assert!(
        coverage.windows(2).filter(|p| p[0] != p[1]).count() >= 3,
        "capacity must bind: {coverage:?}"
    );

    let opts = base.clone().cache(&cache);
    let (cold, cold_stats) = run_spec_stats(&spec, &opts);
    assert_eq!(cold_stats.executed_cells, spec.grid_len());
    assert_eq!(cold.to_json().unwrap(), reference_json);

    // Drop two of the first workload's five entries: its lane job must
    // hold exactly those two cells.
    let workload = &spec.workload_names()[0];
    for coord in spec.jobs().into_iter().filter(|c| c.workload == 0) {
        if coord.point == 1 || coord.point == 3 {
            let fp = cell_fingerprint(&spec, &scale, workload, coord);
            remove_entry(cache.root(), &format!("{fp:016x}.json"));
        }
    }
    let before = pif_lab::jobs_executed();
    let (rerun, rerun_stats) = run_spec_stats(&spec, &opts);
    assert_eq!(rerun_stats.executed_cells, 2);
    assert_eq!(rerun_stats.cached_cells, spec.grid_len() - 2);
    assert_eq!(pif_lab::jobs_executed() - before, 2);
    assert_eq!(rerun.to_json().unwrap(), reference_json);

    let _ = std::fs::remove_dir_all(&dir);
}

/// `fig7` and `fig9-lengths` generate the same six traces, so on one
/// cache the second spec keys its cells with the first one's hashes.
#[test]
fn specs_over_the_same_traces_derive_each_hash_once() {
    let _sweeps = SWEEPS.lock().unwrap_or_else(PoisonError::into_inner);
    let dir = tmpdir("shared-traces");
    let cache = ResultCache::open(&dir).unwrap();
    let opts = RunOptions::new()
        .scale(Scale::tiny())
        .threads(2)
        .smoke(true)
        .cache(&cache);
    run_spec_stats(&registry::fig7(), &opts);
    assert_eq!(hash_delta(&cache, CacheStats::default()), (6, 0));
    let (_, stats) = run_spec_stats(&registry::fig9_lengths(), &opts);
    assert_eq!(stats.cached_cells, 0, "the two specs share no cell");
    assert_eq!(hash_delta(&cache, CacheStats::default()), (6, 6));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The memo lives in memory with its cache: a cache reopened on the same
/// directory replays every cell from disk but derives its hashes anew.
#[test]
fn reopened_cache_starts_with_an_empty_memo() {
    let _sweeps = SWEEPS.lock().unwrap_or_else(PoisonError::into_inner);
    let dir = tmpdir("reopen");
    let spec = two_workload_analysis();
    let opts = RunOptions::new().scale(Scale::tiny()).threads(2);
    let first = ResultCache::open(&dir).unwrap();
    let (cold, _) = run_spec_stats(&spec, &opts.clone().cache(&first));
    assert_eq!(hash_delta(&first, CacheStats::default()), (2, 0));

    let reopened = ResultCache::open(&dir).unwrap();
    let (warm, stats) = run_spec_stats(&spec, &opts.clone().cache(&reopened));
    assert_eq!(stats.executed_cells, 0);
    assert_eq!(hash_delta(&reopened, CacheStats::default()), (2, 0));
    assert_eq!(warm.to_json().unwrap(), cold.to_json().unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A recorded spec keys its cells with a hash of its loaded trace, not
/// through the synthetic-trace memo; its cold and warm cached runs must
/// still replay the bytes of an uncached run, and the warm one must
/// simulate nothing.
#[test]
fn recorded_spec_replays_from_the_cache() {
    let _sweeps = SWEEPS.lock().unwrap_or_else(PoisonError::into_inner);
    let dir = tmpdir("recorded");
    let cache = ResultCache::open(&dir).unwrap();
    let spec = registry::fig_bintrace();
    let base = RunOptions::new()
        .scale(Scale::tiny())
        .threads(2)
        .smoke(true);
    let reference_json = run_spec(&spec, &base).to_json().unwrap();

    let cached_opts = base.clone().cache(&cache);
    let (cold, cold_stats) = run_spec_stats(&spec, &cached_opts);
    assert_eq!(cold_stats.executed_cells, spec.grid_len());
    assert_eq!(cold_stats.cached_cells, 0);
    assert_eq!(cache.entries().unwrap(), spec.grid_len());
    assert_eq!(cold.to_json().unwrap(), reference_json);

    let before = pif_lab::jobs_executed();
    let (warm, warm_stats) = run_spec_stats(&spec, &cached_opts);
    assert_eq!(
        pif_lab::jobs_executed() - before,
        0,
        "warm cache must not simulate"
    );
    assert_eq!(warm_stats.cached_cells, spec.grid_len());
    assert_eq!(warm.to_json().unwrap(), reference_json);
    assert_eq!(hash_delta(&cache, CacheStats::default()), (0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deletes the one entry file named `name` from the cache's shards.
fn remove_entry(root: &std::path::Path, name: &str) {
    let mut removed = 0;
    for shard in std::fs::read_dir(root).unwrap() {
        let path = shard.unwrap().path().join(name);
        if path.exists() {
            std::fs::remove_file(path).unwrap();
            removed += 1;
        }
    }
    assert_eq!(removed, 1, "entry {name}");
}

/// A different scale must address different entries, not hit stale
/// ones, and a change to any one generator input must derive fresh trace
/// hashes rather than reuse a memoized one.
#[test]
fn scale_change_misses_the_cache() {
    // The lock guards no data, so a poisoned one still serializes.
    let _sweeps = SWEEPS.lock().unwrap_or_else(PoisonError::into_inner);
    let dir = tmpdir("scale");
    let cache = ResultCache::open(&dir).unwrap();
    let spec = registry::table1();
    let tiny = RunOptions::new()
        .scale(Scale::tiny())
        .threads(2)
        .smoke(true)
        .cache(&cache);
    let quick = RunOptions::new()
        .scale(Scale::quick())
        .threads(2)
        .smoke(true)
        .cache(&cache);
    let (_, first) = run_spec_stats(&spec, &tiny);
    assert_eq!(first.cached_cells, 0);
    let (_, second) = run_spec_stats(&spec, &quick);
    assert_eq!(
        second.cached_cells, 0,
        "quick scale must not reuse tiny cells"
    );
    let before = cache.stats();
    let (_, third) = run_spec_stats(&spec, &tiny);
    assert_eq!(third.executed_cells, 0, "tiny entries still valid");
    assert_eq!(hash_delta(&cache, before), (0, 6), "tiny hashes memoized");

    // One generator input changed at a time, on the same cache. The
    // unchanged inputs are table1's tiny traces, memoized above; each
    // change derives both workloads' hashes afresh. Every run reports
    // exactly what an uncached run at its inputs reports.
    let base = Scale::tiny();
    let (fresh, memoized) = ((2, 0), (0, 2));
    let variants = [
        ("unchanged", base, 0, memoized),
        (
            "footprint",
            Scale {
                footprint: 0.05,
                ..base
            },
            0,
            fresh,
        ),
        (
            "instruction count",
            Scale {
                instructions: 30_000,
                ..base
            },
            0,
            fresh,
        ),
        ("seed_offset", base, 1, fresh),
    ];
    for (what, scale, seed_offset, hashes) in variants {
        let mut spec = two_workload_analysis();
        spec.seed_offset = seed_offset;
        let uncached = RunOptions::new().scale(scale).threads(2);
        let before = cache.stats();
        let (report, stats) = run_spec_stats(&spec, &uncached.clone().cache(&cache));
        assert_eq!(hash_delta(&cache, before), hashes, "{what}");
        assert_eq!(stats.cached_cells, 0, "{what}");
        assert_eq!(
            report.to_json().unwrap(),
            run_spec(&spec, &uncached).to_json().unwrap(),
            "{what}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every cell of every committed spec has a distinct fingerprint — the
/// registry-level consequence of key injectivity.
#[test]
fn committed_grids_have_distinct_cell_fingerprints() {
    let scale = Scale::tiny();
    for spec in registry::all_specs() {
        let names = spec.workload_names();
        let mut seen = std::collections::HashSet::new();
        for coord in spec.jobs() {
            let fp = cell_fingerprint(&spec, &scale, &names[coord.workload], coord);
            assert!(
                seen.insert(fp),
                "{}: duplicate fingerprint at cell {}",
                spec.name,
                coord.index
            );
        }
    }
}

/// The single `.json` entry file under the cache's versioned root.
fn only_entry_file(root: &std::path::Path) -> PathBuf {
    let mut found = Vec::new();
    for shard in std::fs::read_dir(root).unwrap() {
        let shard = shard.unwrap().path();
        if shard.is_dir() {
            for entry in std::fs::read_dir(shard).unwrap() {
                found.push(entry.unwrap().path());
            }
        }
    }
    assert_eq!(found.len(), 1, "expected exactly one entry, got {found:?}");
    found.remove(0)
}

/// Torn-write robustness (crash-mid-write simulation): an entry
/// truncated at **every** byte offset must either replay the exact
/// stored metrics (a prefix that is still a valid document) or miss and
/// quarantine — and must never panic the lookup path.
#[test]
fn truncated_entries_at_every_offset_replay_exactly_or_quarantine() {
    let dir = tmpdir("torn");
    let cache = ResultCache::open(&dir).unwrap();
    let key = pif_lab::CacheKey {
        trace_hash: 0xabc,
        config_fp: 0xdef,
    };
    let metrics = vec![
        ("uipc".to_string(), Metric::F64(1.5)),
        ("misses".to_string(), Metric::U64(42)),
    ];
    cache.store(&key, &metrics).unwrap();
    let path = only_entry_file(cache.root());
    let full = std::fs::read(&path).unwrap();

    let mut hits = 0u64;
    for len in 0..full.len() {
        std::fs::write(&path, &full[..len]).unwrap();
        match cache.lookup(&key) {
            Some(got) => {
                assert_eq!(
                    got, metrics,
                    "a hit on a {len}-byte truncation must be byte-equivalent"
                );
                hits += 1;
            }
            None => {
                // The damaged file must be quarantined, not left in
                // place to be re-read (and re-failed) forever.
                assert!(!path.exists(), "offset {len}: corrupt entry left in place");
            }
        }
        // Restore a pristine entry for the next offset.
        cache.store(&key, &metrics).unwrap();
    }
    let stats = cache.stats();
    assert_eq!(
        stats.corrupt, stats.quarantined,
        "every corrupt truncation must quarantine"
    );
    assert_eq!(stats.corrupt + hits, full.len() as u64);
    assert!(stats.quarantined > 0, "most truncations must be corrupt");

    // After all that damage the cache still round-trips normally.
    assert_eq!(cache.lookup(&key).unwrap(), metrics);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An entry nested far past the JSON depth limit is corrupt like any
/// other damaged file: counted, quarantined, and answered with a miss.
/// Without the limit, parsing it overflowed the looking-up thread's
/// stack, which aborts the whole process.
#[test]
fn deeply_nested_entry_is_quarantined() {
    let dir = tmpdir("deep");
    let cache = ResultCache::open(&dir).unwrap();
    let key = pif_lab::CacheKey {
        trace_hash: 0x1,
        config_fp: 0x2,
    };
    cache.store(&key, &[("x".into(), Metric::U64(1))]).unwrap();
    let path = only_entry_file(cache.root());
    let depth = 200_000;
    std::fs::write(&path, format!("{}{}", "[".repeat(depth), "]".repeat(depth))).unwrap();

    assert!(cache.lookup(&key).is_none());
    let stats = cache.stats();
    assert_eq!((stats.corrupt, stats.quarantined), (1, 1));
    assert!(!path.exists(), "the entry must leave the addressable store");
    assert!(cache
        .quarantine_dir()
        .join("0000000000000001-0000000000000002.json")
        .exists());
    let _ = std::fs::remove_dir_all(&dir);
}

fn entry_name() -> impl Strategy<Value = String> {
    "[a-z_][a-z0-9_]{0,11}"
}

fn metric() -> impl Strategy<Value = Metric> {
    (any::<u64>(), 0u8..2).prop_map(|(bits, kind)| match kind {
        0 => Metric::U64(bits),
        _ => {
            let v = f64::from_bits(bits);
            Metric::F64(if v.is_finite() { v } else { bits as f64 })
        }
    })
}

fn config_block() -> impl Strategy<Value = Vec<(String, Metric)>> {
    proptest::collection::vec((entry_name(), metric()), 1..12)
}

/// Two blocks are equal iff names, kinds, and *exact rendered tokens*
/// match pairwise in order — the equivalence the canonical encoding must
/// respect on both sides.
fn blocks_equal(a: &[(String, Metric)], b: &[(String, Metric)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((an, am), (bn, bm))| {
            an == bn
                && match (am, bm) {
                    (Metric::U64(x), Metric::U64(y)) => x == y,
                    (Metric::F64(x), Metric::F64(y)) => fmt_f64(*x) == fmt_f64(*y),
                    _ => false,
                }
        })
}

proptest! {
    /// Injectivity: distinct config blocks get distinct canonical strings
    /// and distinct fingerprint inputs; equal blocks get equal ones.
    #[test]
    fn config_canon_is_injective(a in config_block(), b in config_block()) {
        let (ca, cb) = (config_block_canon(&a), config_block_canon(&b));
        if blocks_equal(&a, &b) {
            prop_assert_eq!(ca, cb);
        } else {
            prop_assert_ne!(&ca, &cb, "distinct blocks must encode apart");
            // The full identity string is what gets hashed; a 64-bit
            // collision between two *specific* distinct strings would be
            // astronomically unlikely and indicates a hashing bug here.
            prop_assert_ne!(
                pif_trace::hash::fnv1a_64_once(ca.as_bytes()),
                pif_trace::hash::fnv1a_64_once(cb.as_bytes())
            );
        }
    }

    /// Single-entry perturbations — rename, kind flip, value nudge,
    /// entry split — all change the encoding.
    #[test]
    fn config_canon_detects_single_entry_drift(
        block in config_block(),
        pick in any::<u64>(),
        bump in 1u64..1000,
    ) {
        let i = (pick % block.len() as u64) as usize;
        let base = config_block_canon(&block);

        let mut renamed = block.clone();
        renamed[i].0.push('x');
        prop_assert_ne!(&base, &config_block_canon(&renamed));

        let mut flipped = block.clone();
        flipped[i].1 = match flipped[i].1 {
            Metric::U64(v) => Metric::F64(v as f64),
            Metric::F64(v) => Metric::U64(v.to_bits()),
        };
        prop_assert_ne!(&base, &config_block_canon(&flipped));

        let mut nudged = block.clone();
        nudged[i].1 = match nudged[i].1 {
            Metric::U64(v) => Metric::U64(v.wrapping_add(bump)),
            Metric::F64(v) => Metric::F64(f64::from_bits(v.to_bits().wrapping_add(bump))),
        };
        // A nudge that lands on a non-finite float would be rejected
        // upstream of the cache; only assert on finite drift.
        let nudge_is_finite = match nudged[i].1 {
            Metric::F64(v) => v.is_finite(),
            Metric::U64(_) => true,
        };
        if nudge_is_finite {
            prop_assert_ne!(&base, &config_block_canon(&nudged));
        }

        let mut split = block.clone();
        let (name, m) = split[i].clone();
        split[i] = (name.clone(), m);
        split.insert(i + 1, (name, Metric::U64(0)));
        prop_assert_ne!(&base, &config_block_canon(&split), "extra entry must show");
    }
}
