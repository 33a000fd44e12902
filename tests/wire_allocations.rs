//! The wire engine's allocation budget, pinned: mean allocations per
//! loopback session, one `run_named_cluster` call — admission, the
//! initial states, the kernel's loop over the wire channel and the
//! summary — over seeded (8,3) `E_fip` sessions and the (3,1) mix of all
//! four stacks under all four failure models. Counted on the calling
//! thread by the allocator of `tests/counting/`.

mod counting;

use counting::{counted, fip_n8, mixed_n3, this_thread};
use counting::{FIP_N8_SESSION_BOUND, MIXED_N3_SESSION_BOUND};
use eba::prelude::*;
use eba::service::SessionSpec;
use eba::transport::run_named_cluster;

/// Mean allocations per loopback session over `specs`; each stack is
/// looked up before counting.
fn per_loopback_session(specs: &[SessionSpec]) -> f64 {
    let total: u64 = (specs.iter())
        .map(|spec| {
            let stack = NamedStack::by_name(&spec.stack, spec.params).unwrap();
            let (run, count) = counted(this_thread, || {
                run_named_cluster(&stack, &spec.pattern, &spec.inits, spec.horizon).unwrap()
            });
            assert_eq!(run.rounds, spec.horizon);
            count
        })
        .sum();
    total as f64 / specs.len() as f64
}

#[test]
fn wire_sessions_stay_within_their_allocation_budget() {
    let fip_n8 = per_loopback_session(&fip_n8(64));
    let mixed_n3 = per_loopback_session(&mixed_n3(256));
    println!("allocations per loopback session: (8,3) E_fip {fip_n8:.1}, (3,1) mix {mixed_n3:.1}");
    assert!(
        fip_n8 <= FIP_N8_SESSION_BOUND,
        "(8,3) E_fip: {fip_n8:.1} allocations per session, over the bound of {FIP_N8_SESSION_BOUND}"
    );
    assert!(
        mixed_n3 <= MIXED_N3_SESSION_BOUND,
        "(3,1) mix: {mixed_n3:.1} allocations per session, over the bound of {MIXED_N3_SESSION_BOUND}"
    );
}
