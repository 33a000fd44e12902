//! The service's allocation budget, pinned: mean allocations per session
//! of one `run_service` call over 1,024 seeded (3,1) sessions — all four
//! stacks under all four failure models — and of one over 128 seeded
//! (8,3) `E_fip/P_opt` sessions, the models rotated, each with one pool
//! thread. A
//! `#[global_allocator]` wrapping `System` counts the `alloc`,
//! `alloc_zeroed` and `realloc` calls of every thread in one global
//! atomic, so what the pool threads allocate counts as much as what the
//! calling thread does: building each engine, running it, its record and
//! traffic, and whatever hands a session from one thread to another.
//!
//! A count, unlike a timing, is exact enough on a shared host to gate a
//! change: a per-session clone, a channel node per handoff or a buffer
//! grown by `realloc` moves it at once. The bound is measured in debug
//! builds, which is how tier-1 runs this file; a release build allocates
//! no more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use eba_core::prelude::*;
use eba_service::{run_service, ServiceConfig, SessionSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Measured: 25.4 (each session's engine built, run and recorded on one
/// thread, μ and δ writing into the engine's slots, a round's broadcasts
/// encoded into one reused buffer). 31.5 while every broadcast was a
/// fresh `Arc<[u8]>` frame. 77.3 while every
/// message and successor state was fresh and two `E_fip/P_opt` sessions
/// under general omission panicked on a debug assertion in `P_opt`'s
/// analysis, each capturing and printing a backtrace under
/// `RUST_BACKTRACE=1` (50.8 without the backtraces). 94.1 while a driver
/// and one worker thread handed sessions over two `mpsc` channels, the
/// driver opened each session's record, named its stack and copied its
/// decisions and traffic into it, and every round's frames took fresh
/// row `Vec`s.
const MIXED_N3_BOUND: f64 = 27.0;
/// Measured: 177.0 (220.0 while every broadcast was a fresh `Arc<[u8]>`
/// frame; 479.2 while every broadcast was a fresh graph clone
/// and a fresh frame, every successor state a fresh graph, and `P_opt`'s
/// cones one `BitSet` per vertex).
const FIP_N8_BOUND: f64 = 187.0;

/// `System`, counting the calls that hand out a block.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counter is a static
// atomic, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System`; the caller upholds the rest of
        // `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// `sessions` seeded sessions at `params`, the `i`-th running `stack(i)` =
/// `(registry stack, failure model)`, as `wire_allocations` samples them.
fn specs(
    params: Params,
    sessions: usize,
    seed: u64,
    stack: impl Fn(usize) -> (&'static str, &'static str),
) -> Vec<SessionSpec> {
    let horizon = params.default_horizon();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..sessions)
        .map(|i| {
            let (stack, model) = stack(i);
            let model = FailureModel::by_name(model).unwrap();
            let pattern = AdversarySampler::new(model, params, horizon, 0.25).sample(&mut rng);
            let inits: Vec<Value> = (0..params.n())
                .map(|_| Value::from_bit(rng.random_range(0..2u8)))
                .collect();
            let name = format!("{stack}{}", model.suffix());
            SessionSpec::new(name, params, pattern, inits, horizon)
        })
        .collect()
}

/// Mean allocations per session of one `run_service` call over `specs`
/// with one pool thread.
fn allocations_per_session(specs: &[SessionSpec]) -> f64 {
    let config = ServiceConfig {
        workers: 1,
        capacity: 256,
        oracle_stride: None,
    };
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = run_service(specs, &config).unwrap();
    let per_session = (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / specs.len() as f64;
    assert_eq!(report.outcomes.len(), specs.len());
    // A session whose engine panicked completes undecided: none may.
    assert_eq!(report.decided_sessions(), specs.len(), "a session panicked");
    per_session
}

// One test, so that no other test's thread allocates while it counts.
#[test]
fn service_sessions_stay_within_their_allocation_budget() {
    let mixed_n3 = allocations_per_session(&specs(Params::new(3, 1).unwrap(), 1024, 3770, |i| {
        (
            STACK_NAMES[i % STACK_NAMES.len()],
            MODEL_NAMES[(i / STACK_NAMES.len()) % MODEL_NAMES.len()],
        )
    }));
    let fip_n8 = allocations_per_session(&specs(Params::new(8, 3).unwrap(), 128, 3770, |i| {
        ("E_fip/P_opt", MODEL_NAMES[i % MODEL_NAMES.len()])
    }));
    println!("allocations per service session: (3,1) mix {mixed_n3:.1}, (8,3) E_fip {fip_n8:.1}");
    assert!(
        mixed_n3 <= MIXED_N3_BOUND,
        "(3,1) mix: {mixed_n3:.1} allocations per service session, over the bound of {MIXED_N3_BOUND}"
    );
    assert!(
        fip_n8 <= FIP_N8_BOUND,
        "(8,3) E_fip: {fip_n8:.1} allocations per service session, over the bound of {FIP_N8_BOUND}"
    );
}
