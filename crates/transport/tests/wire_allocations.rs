//! The wire path's allocation budget, pinned: mean allocations per
//! loopback session — `run_engine` driving an already built engine to its
//! horizon — over seeded (8,3) `E_fip` sessions and over the (3,1) mix of
//! all four stacks under all four failure models. A `#[global_allocator]`
//! wrapping `System` counts the calling thread's `alloc`, `alloc_zeroed`
//! and `realloc` calls.
//!
//! A count, unlike a timing, is exact on a shared host: a per-recipient
//! frame `clone()`, a decode per `(from, to)` instead of per sender, or a
//! per-round buffer that grows by `realloc` moves it at once. The bounds
//! are measured in debug builds, which is how tier-1 runs this file; a
//! release build allocates no more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eba_core::prelude::*;
use eba_transport::{named_engine, run_engine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Measured: 466.4 (511.4 while every round's frames took `n + 1` fresh
/// row `Vec`s, 532.4 while the kernel also returned a fresh `Vec` of
/// actions, messages and states every round; an engine that cloned each
/// frame per recipient and decoded every `(from, to)` read 1,191.1).
const FIP_N8_BOUND: f64 = 476.0;
/// Measured: 45.8 (57.8 with fresh frame rows every round, 70.8 with
/// per-round kernel `Vec`s too; the older engine read 98.9).
const MIXED_N3_BOUND: f64 = 47.0;

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

/// Mean allocations per loopback session over `sessions` sessions sampled
/// from `seed` at `params`, the `i`-th running `stack(i)` =
/// `(registry stack, failure model)`. Engines are built before counting.
fn allocations_per_session(
    params: Params,
    sessions: usize,
    seed: u64,
    stack: impl Fn(usize) -> (&'static str, &'static str),
) -> f64 {
    let horizon = params.default_horizon();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total = 0;
    for i in 0..sessions {
        let (name, model) = stack(i);
        let model = FailureModel::by_name(model).unwrap();
        let pattern = AdversarySampler::new(model, params, horizon, 0.25).sample(&mut rng);
        let inits: Vec<Value> = (0..params.n())
            .map(|_| Value::from_bit(rng.random_range(0..2u8)))
            .collect();
        let stack = NamedStack::by_name(&format!("{name}{}", model.suffix()), params).unwrap();
        let mut engine = named_engine(&stack, &pattern, &inits, horizon).unwrap();
        let before = allocations();
        let run = run_engine(engine.as_mut(), &pattern);
        total += allocations() - before;
        assert_eq!(run.rounds, horizon);
    }
    total as f64 / sessions as f64
}

#[test]
fn wire_sessions_stay_within_their_allocation_budget() {
    let fip_n8 = allocations_per_session(Params::new(8, 3).unwrap(), 64, 3770, |i| {
        ("E_fip/P_opt", MODEL_NAMES[i % MODEL_NAMES.len()])
    });
    let mixed_n3 = allocations_per_session(Params::new(3, 1).unwrap(), 256, 3770, |i| {
        (
            STACK_NAMES[i % STACK_NAMES.len()],
            MODEL_NAMES[(i / STACK_NAMES.len()) % MODEL_NAMES.len()],
        )
    });
    println!("allocations per session: (8,3) E_fip {fip_n8:.1}, (3,1) mix {mixed_n3:.1}");
    assert!(
        fip_n8 <= FIP_N8_BOUND,
        "(8,3) E_fip: {fip_n8:.1} allocations per session, over the bound of {FIP_N8_BOUND}"
    );
    assert!(
        mixed_n3 <= MIXED_N3_BOUND,
        "(3,1) mix: {mixed_n3:.1} allocations per session, over the bound of {MIXED_N3_BOUND}"
    );
}
