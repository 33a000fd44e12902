//! The estimator's allocation budget, pinned: mean allocations per trial
//! of one sequential stratified `E_basic/P_basic` estimate at (16, 4),
//! and mean allocations per `run_rounds` run over sampled (16, 4) cases.
//! A `#[global_allocator]` wrapping `System` counts the calling thread's
//! `alloc`, `alloc_zeroed` and `realloc` calls.
//!
//! A count, unlike a timing, is exact on a shared host: a trial that
//! builds a trajectory it throws away, a per-round buffer, or a message
//! vector collected afresh every round moves it at once. The bounds are
//! measured in debug builds, which is how tier-1 runs this file; a
//! release build allocates no more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eba_core::prelude::*;
use eba_sim::prelude::*;
use eba_stat::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Measured: 1.85 — the faulty set and the pattern's drop rows, each
/// allocated once (39.90 while a trial built, judged and dropped a whole
/// trajectory and grew the drop rows message by message).
const TRIAL_BOUND: f64 = 2.0;

/// The rows a `run_rounds` run returns — inits, the two row tables,
/// `horizon + 1` state rows and `horizon` action rows — plus the one
/// message buffer it steps in: 19 at horizon 7, measured 19.00 (32.00
/// while every round collected its actions, messages, received tuples
/// and states afresh).
fn run_bound(horizon: u32) -> f64 {
    f64::from(2 * horizon + 5)
}

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

fn n16() -> Params {
    Params::new(16, 4).unwrap()
}

#[test]
fn estimator_trials_stay_within_their_allocation_budget() {
    // Ten blocks of `TRIAL_BLOCK`, on the calling thread.
    let stack = NamedStack::by_name("E_basic/P_basic", n16()).unwrap();
    let plan = TrialPlan {
        trials: 10 * TRIAL_BLOCK,
        seed: 3770,
        confidence: 0.95,
        horizon: n16().default_horizon(),
        scheme: SampleScheme::Stratified,
    };
    let before = allocations();
    let est = estimate(&stack, &plan, Parallelism::Sequential).unwrap();
    let per_trial = (allocations() - before) as f64 / plan.trials as f64;
    assert_eq!(est.violations, 0);
    println!("allocations per trial: (16,4) E_basic stratified {per_trial:.2}");
    assert!(
        per_trial <= TRIAL_BOUND,
        "{per_trial:.2} allocations per trial, over the bound of {TRIAL_BOUND}"
    );
}

#[test]
fn lockstep_runs_stay_within_their_allocation_budget() {
    let ctx = Context::basic(n16());
    let horizon = n16().default_horizon();
    let sampler = AdversarySampler::new(FailureModel::SendingOmission, n16(), horizon, 0.25);
    let mut rng = StdRng::seed_from_u64(3770);
    let (runs, mut total) = (256, 0);
    for _ in 0..runs {
        let pattern = sampler.sample(&mut rng);
        let inits: Vec<Value> = (0..n16().n())
            .map(|_| Value::from_bit(rng.random_range(0..2u8)))
            .collect();
        let before = allocations();
        let run = run_rounds(&ctx, &pattern, &inits, horizon).unwrap();
        total += allocations() - before;
        assert_eq!(run.horizon(), horizon);
    }
    let per_run = total as f64 / runs as f64;
    println!("allocations per run_rounds run: (16,4) E_basic, horizon {horizon}: {per_run:.2}");
    let bound = run_bound(horizon);
    assert!(
        per_run <= bound,
        "{per_run:.2} allocations per run, over the bound of {bound}"
    );
}
