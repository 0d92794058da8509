//! Proof that failpoints are fully erased in default builds.
//!
//! This test binary is compiled *without* the `fail-inject` feature, so
//! every `fail_point!` in the loop below must expand to an empty block.
//! A counting global allocator (the same idiom as the workspace
//! `zero_alloc` test) asserts the loop performs zero heap allocations,
//! and installing a plan has no effect on control flow because `eval`
//! is never compiled into the call sites.

#![cfg(not(feature = "fail-inject"))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// This thread's allocation count while a measurement is armed
    /// (`None` = disarmed). Counting per thread keeps allocations made
    /// concurrently by sibling tests and the harness out of the count;
    /// a `const`-initialized `Cell` has no destructor, so the allocator
    /// can touch it without allocating or racing thread teardown.
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

/// A tight loop studded with failpoints, shaped like the hot paths that
/// carry them in pif-trace and pif-lab.
#[inline(never)]
fn looped_with_failpoints(n: u64) -> Result<u64, String> {
    let mut acc = 0u64;
    for i in 0..n {
        pif_fail::fail_point!("erased.loop.a");
        acc = acc.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i);
        pif_fail::fail_point!("erased.loop.b", |e: pif_fail::FailError| Err(e.to_string()));
    }
    Ok(acc)
}

#[test]
fn erased_failpoints_never_allocate() {
    let allocs = allocs_during(|| {
        let acc = looped_with_failpoints(std::hint::black_box(1_000_000)).unwrap();
        std::hint::black_box(acc);
    });
    assert_eq!(
        allocs, 0,
        "default-build failpoints allocated {allocs} times in a hot loop"
    );
}

#[test]
fn erased_failpoints_ignore_installed_plans() {
    // The plan API still works in default builds (plans can be parsed
    // and inspected anywhere), but call sites compiled without
    // `fail-inject` never consult it: an always-error plan changes
    // nothing.
    let plan = pif_fail::FailPlan::new(1)
        .site(
            "erased.loop.b",
            pif_fail::SiteRule::always(pif_fail::FailAction::Error),
        )
        .site(
            "erased.loop.a",
            pif_fail::SiteRule::always(pif_fail::FailAction::Panic),
        );
    pif_fail::install(&plan);
    let out = looped_with_failpoints(16);
    // No site was ever evaluated.
    let evals: u64 = pif_fail::stats().iter().map(|s| s.evals).sum();
    pif_fail::clear();
    assert!(out.is_ok(), "erased failpoint fired: {out:?}");
    assert_eq!(evals, 0);
}
