//! The service's allocation budget, pinned: mean allocations per session
//! of one `run_service` call with one pool thread, over the same seeded
//! (3,1) mix and (8,3) `E_fip` sessions as `wire_allocations`. Counted on
//! every thread by the allocator of `tests/counting/`, so what the pool
//! thread allocates counts too; nothing else may allocate meanwhile, so
//! this binary has one test.

mod counting;

use counting::{counted, every_thread, fip_n8, mixed_n3};
use counting::{FIP_N8_SESSION_BOUND, MIXED_N3_SESSION_BOUND};
use eba::service::{run_service, ServiceConfig, SessionSpec};

/// Mean allocations per session of one `run_service` call over `specs`
/// with one pool thread, every thread counted.
fn per_service_session(specs: &[SessionSpec]) -> f64 {
    let config = ServiceConfig {
        workers: 1,
        capacity: 256,
        oracle_stride: None,
    };
    let (report, count) = counted(every_thread, || run_service(specs, &config).unwrap());
    assert_eq!(report.outcomes.len(), specs.len());
    // A session that panicked completes undecided, its backtrace under
    // `RUST_BACKTRACE=1` counted: none may.
    assert_eq!(report.decided_sessions(), specs.len(), "a session panicked");
    count as f64 / specs.len() as f64
}

#[test]
fn service_sessions_stay_within_their_allocation_budget() {
    let (mixed_n3, fip_n8) = (mixed_n3(1024), fip_n8(128));
    let mixed_n3 = per_service_session(&mixed_n3);
    let fip_n8 = per_service_session(&fip_n8);
    println!("allocations per service session: (3,1) mix {mixed_n3:.1}, (8,3) E_fip {fip_n8:.1}");
    assert!(
        mixed_n3 <= MIXED_N3_SESSION_BOUND,
        "(3,1) mix: {mixed_n3:.1} allocations per service session, over the bound of {MIXED_N3_SESSION_BOUND}"
    );
    assert!(
        fip_n8 <= FIP_N8_SESSION_BOUND,
        "(8,3) E_fip: {fip_n8:.1} allocations per service session, over the bound of {FIP_N8_SESSION_BOUND}"
    );
}
