//! Proof that the engine's steady-state loop is allocation-free.
//!
//! A counting global allocator measures the number of heap allocations a
//! full engine run performs. Running the *same* cyclic workload for N and
//! 2N laps must allocate (nearly) the same number of times: everything the
//! engine allocates — caches, scratch buffers, predictor tables, queues —
//! is set up during construction and the first laps, after which the
//! per-retirement path runs out of fixed-capacity storage.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pif_core::{Pif, PifConfig};
use pif_sim::{Engine, EngineConfig, NoPrefetcher, RunOptions};
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
    let short = sweep_trace(4);
    let long = sweep_trace(8);
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
    // PIF's end-of-run stream-lifetime log (`completed`) legitimately
    // grows amortized with the number of replaced streams; everything on
    // the per-retirement path is allocation-free. 131k extra instructions
    // may therefore add at most a handful of amortized Vec doublings.
    let extra = a_long.saturating_sub(a_short);
    assert!(
        extra <= 8,
        "steady-state PIF run allocated {extra} times over 4 extra laps \
         ({a_short} vs {a_long})"
    );
}
