//! The wire path's allocation budget, pinned: mean allocations per
//! loopback session — one `run_named_cluster` call: admission, the
//! initial states, `eba-core`'s loop over the wire channel and the
//! summary — over seeded (8,3) `E_fip` sessions and over the (3,1) mix of
//! all four stacks under all four failure models. A `#[global_allocator]`
//! wrapping `System` counts the calling thread's `alloc`, `alloc_zeroed`
//! and `realloc` calls.
//!
//! A count, unlike a timing, is exact on a shared host: a frame allocated
//! per broadcast or per recipient, a decode per `(from, to)` instead of
//! per sender, or a per-round buffer that grows by `realloc` moves it at
//! once. The bounds
//! are measured in debug builds, which is how tier-1 runs this file; a
//! release build allocates no more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eba_core::prelude::*;
use eba_transport::run_named_cluster;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Measured: 162.8 for the whole session on the kernel's loop, the
/// marks one flat `n × n` row reserved once, each sender's span and
/// decode slot one entry, and the summary's decisions and traffic
/// recorded where they end up (176.8 for a whole session of the engine
/// that kept its own loop: 12 to build it, boxed, then 164.8 to run it,
/// which is what this gate counted then, under a bound of 175;
/// 207.8 to run it while every broadcast was one fresh `Arc<[u8]>`
/// frame cloned into each recipient's entry; 466.4 while every broadcast
/// was a fresh graph clone
/// encoded into a fresh `Vec`, every decode and every successor state a
/// fresh graph, and `P_opt`'s cones one `BitSet` per vertex; 511.4 while
/// every round's frames also took `n + 1` fresh row `Vec`s, 532.4 while
/// the kernel also returned a fresh `Vec` of actions, messages and states
/// every round; an engine that cloned each frame per recipient and
/// decoded every `(from, to)` read 1,191.1).
const FIP_N8_BOUND: f64 = 172.0;
/// Measured: 18.3 for the whole session on the kernel's loop (25.3 for
/// a whole session of the engine that kept its own loop, of which running
/// it was 20.6, counted here then under a bound of 22; running it read
/// 26.6 with a fresh `Arc<[u8]>` frame per broadcast;
/// 45.8 with a fresh encode buffer per broadcast and a
/// fresh successor state per receiver, 57.8 with fresh frame rows every
/// round too, 70.8 with per-round kernel `Vec`s too; the older engine
/// read 98.9).
const MIXED_N3_BOUND: f64 = 20.0;

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
/// `(registry stack, failure model)`. Stacks are looked up before counting.
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
        let before = allocations();
        let run = run_named_cluster(&stack, &pattern, &inits, horizon).unwrap();
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
