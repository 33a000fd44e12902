//! The one counting allocator of the allocation gates, and the seeded
//! sessions the wire, service and lockstep gates share. Each gate binary
//! (`wire_allocations`, `service_allocations`, `store_allocations`,
//! `trial_allocations`) declares `mod counting;`, which installs the
//! allocator as that binary's `#[global_allocator]`.
//!
//! A count, unlike a timing, is exact on a shared host: a state cloned
//! where it could be moved, a per-round buffer, or a frame built per
//! recipient moves it at once. The allocator counts each `alloc`,
//! `alloc_zeroed` and `realloc` twice: in a thread-local counter, exact
//! for the gates that run on the calling thread whatever else the process
//! does, and in one global atomic, which the service gate reads so that
//! what its pool thread allocates counts too. Nothing else may allocate
//! while that one runs, so its binary has one test. The bounds are
//! measured in debug builds, which is how tier-1 runs these files; a
//! release build allocates no more, and CI checks it.

// Each gate binary uses its own subset of these helpers.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use eba::prelude::*;
use eba::service::SessionSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Allocations per (8,3) `E_fip` session.
///
/// On the wire, measured 162.8 for the whole session on the kernel's
/// loop, the marks one flat `n × n` row reserved once, each sender's span
/// and decode slot one entry, and the summary's decisions and traffic
/// recorded where they end up (176.8 for a whole session of the engine
/// that kept its own loop: 12 to build it, boxed, then 164.8 to run it,
/// which is what this gate counted then, under a bound of 175; 207.8 to
/// run it while every broadcast was one fresh `Arc<[u8]>` frame cloned
/// into each recipient's entry; 466.4 while every broadcast was a fresh
/// graph clone encoded into a fresh `Vec`, every decode and every
/// successor state a fresh graph, and `P_opt`'s cones one `BitSet` per
/// vertex; 511.4 while every round's frames also took `n + 1` fresh row
/// `Vec`s, 532.4 while the kernel also returned a fresh `Vec` of actions,
/// messages and states every round; an engine that cloned each frame per
/// recipient and decoded every `(from, to)` read 1,191.1).
///
/// In the service, models rotated, measured 163.0 on the kernel's loop
/// (177.0, under a bound of 187, while each session built a boxed engine
/// with a loop of its own; 220.0 while every broadcast was a fresh
/// `Arc<[u8]>` frame; 479.2 while every broadcast was a fresh graph clone
/// and a fresh frame, every successor state a fresh graph, and `P_opt`'s
/// cones one `BitSet` per vertex).
pub const FIP_N8_SESSION_BOUND: f64 = 172.0;

/// Allocations per (3,1) mix session.
///
/// On the wire, measured 18.3 for the whole session on the kernel's loop
/// (25.3 for a whole session of the engine that kept its own loop, of
/// which running it was 20.6, counted here then under a bound of 22;
/// running it read 26.6 with a fresh `Arc<[u8]>` frame per broadcast;
/// 45.8 with a fresh encode buffer per broadcast and a fresh successor
/// state per receiver, 57.8 with fresh frame rows every round too, 70.8
/// with per-round kernel `Vec`s too; the older engine read 98.9).
///
/// In the service, measured 18.4, each session run on the kernel's loop
/// over the wire channel and recorded on one thread, its marks one flat
/// row reserved once, its decisions and traffic recorded where the record
/// keeps them. 25.4 while each session's engine was built (boxed), run by
/// a loop of its own and its decisions copied out, under a bound of 27.
/// 31.5 while every broadcast was a fresh `Arc<[u8]>` frame. 77.3 while
/// every message and successor state was fresh and two `E_fip/P_opt`
/// sessions under general omission panicked on a debug assertion in
/// `P_opt`'s analysis, each capturing and printing a backtrace (50.8
/// without the backtraces). 94.1 while a dispatching thread and one
/// worker thread handed sessions over two `mpsc` channels, the
/// dispatcher opened each session's record, named its stack and copied
/// its decisions and traffic into it, and every round's frames took
/// fresh row `Vec`s.
pub const MIXED_N3_SESSION_BOUND: f64 = 20.0;

/// `System`, counting the calls that hand out a block.
struct CountingAllocator;

thread_local! {
    static THIS_THREAD: Cell<u64> = const { Cell::new(0) };
}

static EVERY_THREAD: AtomicU64 = AtomicU64::new(0);

fn count_one() {
    EVERY_THREAD.fetch_add(1, Relaxed);
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = THIS_THREAD.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counters are a static
// atomic and a const-initialised thread-local `Cell`, neither of which
// allocates.
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

/// Allocations so far on the calling thread.
pub fn this_thread() -> u64 {
    THIS_THREAD.with(Cell::get)
}

/// Allocations so far on every thread.
pub fn every_thread() -> u64 {
    EVERY_THREAD.load(Relaxed)
}

/// What `work` returns, and the allocations `counter` saw while it ran.
pub fn counted<T>(counter: fn() -> u64, work: impl FnOnce() -> T) -> (T, u64) {
    let before = counter();
    let value = work();
    (value, counter() - before)
}

/// `count` sessions at `params` sampled from `seed`, the `i`-th running
/// `stack(i)` = `(registry stack, failure model)`.
pub fn sessions(
    params: Params,
    count: usize,
    seed: u64,
    stack: impl Fn(usize) -> (&'static str, &'static str),
) -> Vec<SessionSpec> {
    let horizon = params.default_horizon();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
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

/// `count` (3,1) sessions of all four stacks under all four failure
/// models, the stack varying fastest.
pub fn mixed_n3(count: usize) -> Vec<SessionSpec> {
    sessions(Params::new(3, 1).unwrap(), count, 3770, |i| {
        (
            STACK_NAMES[i % STACK_NAMES.len()],
            MODEL_NAMES[(i / STACK_NAMES.len()) % MODEL_NAMES.len()],
        )
    })
}

/// `count` (8,3) `E_fip/P_opt` sessions, the failure model rotating.
pub fn fip_n8(count: usize) -> Vec<SessionSpec> {
    sessions(Params::new(8, 3).unwrap(), count, 3770, |i| {
        ("E_fip/P_opt", MODEL_NAMES[i % MODEL_NAMES.len()])
    })
}
