//! Proof that the engine's steady-state loop is allocation-free.
//!
//! A counting global allocator measures the number of heap allocations a
//! full engine run performs. Running a workload for N and 2N laps must
//! allocate exactly the same number of times: everything the engine
//! allocates — caches, scratch buffers, predictor tables, queues — is set
//! up during construction and the first laps, after which the
//! per-retirement path runs out of fixed-capacity storage.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pif_core::{Pif, PifConfig};
use pif_sim::{Engine, EngineConfig, NoPrefetcher, RunOptions};
use pif_types::rng::SmallRng;
use pif_types::{Address, RetiredInstr, TrapLevel};

struct CountingAlloc;

thread_local! {
    /// This thread's allocation count while a measurement is armed
    /// (`None` = disarmed). Engine runs are single-threaded, so counting
    /// per thread sees all of their allocations and none of those made
    /// concurrently by the other test or the harness; a
    /// `const`-initialized `Cell` has no destructor, so the allocator can
    /// touch it without allocating or racing thread teardown.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_alloc() {
    ALLOCS.with(|n| {
        if let Some(count) = n.get() {
            n.set(Some(count + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the calling thread makes while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(Some(0)));
    f();
    ALLOCS.with(Cell::take).expect("armed above")
}

/// A thrashing sweep (footprint 2× the L1-I) repeated `laps` times.
fn sweep_trace(laps: u64) -> Vec<RetiredInstr> {
    let mut v = Vec::new();
    for _ in 0..laps {
        for blk in 0..2048u64 {
            for i in 0..16 {
                v.push(RetiredInstr::simple(
                    Address::new(blk * 64 + i * 4),
                    TrapLevel::Tl0,
                ));
            }
        }
    }
    v
}

/// 256 segments of eight consecutive blocks (2× the L1-I in all), lap
/// `l` in the order seeded by `1_000 + l`: PIF's streams follow one lap's
/// segment order and are replaced throughout the next, on every lap.
///
/// Random laps can set a new in-flight prefetch peak late, and the
/// engine's in-flight queue grows to its peak: with seeds `l` (0–7), laps
/// 5–8 push it from 32 to 64 entries, one more allocation that does not
/// grow with length. Seeds 1,000–1,007 reach their peak within four laps.
fn shuffled_segments_trace(laps: u64) -> Vec<RetiredInstr> {
    let mut v = Vec::new();
    for lap in 0..laps {
        let mut order: Vec<u64> = (0..256).collect();
        let mut rng = SmallRng::seed_from_u64(1_000 + lap);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for seg in order {
            for blk in seg * 8..seg * 8 + 8 {
                for i in 0..16 {
                    v.push(RetiredInstr::simple(
                        Address::new(blk * 64 + i * 4),
                        TrapLevel::Tl0,
                    ));
                }
            }
        }
    }
    v
}

#[test]
fn engine_steady_state_is_allocation_free_without_prefetcher() {
    let engine = Engine::new(EngineConfig::paper_default());
    let short = sweep_trace(4);
    let long = sweep_trace(8);
    let a_short = allocs_during(|| {
        engine.run(short.iter().copied(), NoPrefetcher, RunOptions::new());
    });
    let a_long = allocs_during(|| {
        engine.run(long.iter().copied(), NoPrefetcher, RunOptions::new());
    });
    assert_eq!(
        a_short, a_long,
        "engine allocations must not scale with trace length \
         ({a_short} for 4 laps vs {a_long} for 8 laps)"
    );
}

#[test]
fn engine_steady_state_is_allocation_free_with_pif() {
    let engine = Engine::new(EngineConfig::paper_default());
    let short = shuffled_segments_trace(4);
    let long = shuffled_segments_trace(8);
    let a_short = allocs_during(|| {
        engine.run(
            short.iter().copied(),
            Pif::new(PifConfig::paper_default()),
            RunOptions::new(),
        );
    });
    let a_long = allocs_during(|| {
        engine.run(
            long.iter().copied(),
            Pif::new(PifConfig::paper_default()),
            RunOptions::new(),
        );
    });
    assert_eq!(
        a_short, a_long,
        "PIF engine allocations must not scale with trace length \
         ({a_short} for 4 laps vs {a_long} for 8 laps)"
    );
}
