//! The enumerate → intern stage's allocation budget, pinned: allocations
//! per sequential, horizon-4 `Scenario::enumerate_store` pass at (3,1), for
//! `E_fip` under sending omission and crash and for `E_basic` under
//! general omission. A `#[global_allocator]` wrapping `System` counts the
//! calling thread's `alloc`, `alloc_zeroed` and `realloc` calls; a
//! sequential pass runs entirely on that thread.
//!
//! A count, unlike a timing, is exact on a shared host: a state cloned
//! where it could be moved, a bucket allocated per interned state, or a
//! per-node buffer that grows by `realloc` moves it at once. The bounds
//! are measured in debug builds, which is how tier-1 runs this file; a
//! release build allocates no more (the debug build also keeps the
//! enumerator's leaf table of every trajectory).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eba_core::prelude::*;
use eba_sim::prelude::*;

/// Measured: 514,020 (555,931 while each node collected its receivers'
/// sender columns into a `Vec` and items sent run-major rows; an arena
/// that re-hashed and cloned every item state into a bucket `Vec` of its
/// own read 917,879).
const FIP_SO_BOUND: u64 = 514_020;
/// Measured: 32,851 (32,956 before; the older arena read 41,346).
const FIP_CRASH_BOUND: u64 = 32_851;
/// Measured: 26,908 (29,465 before; the older arena read 33,024).
const BASIC_GO_BOUND: u64 = 26_908;

/// `System`, counting the calls that hand out a block.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System`; the caller upholds the rest of
        // `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations of one sequential horizon-4 pass of `ctx` into a
/// [`RunStore`], and the pass's run count.
fn allocations_per_pass<E, P>(ctx: &Context<E, P>) -> (u64, usize)
where
    E: InformationExchange + Sync,
    P: ActionProtocol<E> + Sync,
{
    let scenario = Scenario::of(ctx)
        .horizon(4)
        .parallelism(Parallelism::Sequential);
    let before = allocations();
    let store = scenario.enumerate_store().unwrap();
    let count = allocations() - before;
    (count, store.run_count())
}

#[test]
fn enumeration_passes_stay_within_their_allocation_budget() {
    let params = Params::new(3, 1).unwrap();
    let passes = [
        (
            "E_fip@SO",
            allocations_per_pass(&Context::fip(params)),
            98_312,
            FIP_SO_BOUND,
        ),
        (
            "E_fip@crash",
            allocations_per_pass(&Context::fip(params).with_model(FailureModel::Crash)),
            704,
            FIP_CRASH_BOUND,
        ),
        (
            "E_basic@GO",
            allocations_per_pass(&Context::basic(params).with_model(FailureModel::GeneralOmission)),
            3_260,
            BASIC_GO_BOUND,
        ),
    ];
    for (name, (count, runs), expected_runs, _) in passes {
        println!("{name}: {count} allocations per pass ({runs} runs)");
        assert_eq!(runs, expected_runs, "{name}: run count");
    }
    for (name, (count, _), _, bound) in passes {
        assert!(
            count <= bound,
            "{name}: {count} allocations per pass, over the bound of {bound}"
        );
    }
}
