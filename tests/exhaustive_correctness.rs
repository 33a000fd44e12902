//! Exhaustive correctness: the EBA specification checked on **every** run
//! of small contexts — all nonfaulty-set choices, all inputs, all
//! meaningful delivery patterns (via the delivery-choice enumeration of
//! `eba-sim`). This is stronger than randomized testing: the properties
//! hold with certainty on these instances. Every run passes two judges
//! that must agree: the library's `judge_run`, and `check_enum_run`, a
//! judge written out in `tests/common/mod.rs` independently of it. The
//! (3, 1) `E_fip/P_opt` system is `engines_agree`'s fixture, and its rows
//! are there (`fip_so::exhaustive_correctness`): `P_opt`'s, and the
//! ablated `P_opt∖CK`'s, which at t = 1 is the fixture run for run.

mod common;

use common::both_judges;
use eba::core::exchange::InformationExchange;
use eba::core::protocols::ActionProtocol;
use eba::prelude::*;

/// Streams every run of the context through both judges — no run set is
/// ever collected, so a context checks in O(work item) memory — and
/// returns how many runs there were.
fn exhaustive<E, P>(ctx: Context<E, P>, horizon: u32) -> usize
where
    E: InformationExchange + Sync,
    P: ActionProtocol<E> + Sync,
{
    let mut checked = 0usize;
    let total = Scenario::of(&ctx)
        .horizon(horizon)
        .parallelism(Parallelism::Auto)
        .enumerate_into(&mut |run: EnumRun<E>| {
            checked += 1;
            both_judges(ctx.exchange(), &run)
        })
        .unwrap_or_else(|e| panic!("{}: {e}", ctx.qualified_name()));
    assert_eq!(total, checked);
    assert!(total > 0);
    total
}

#[test]
fn pmin_is_correct_on_every_run_n3_t1() {
    let params = Params::new(3, 1).unwrap();
    let count = exhaustive(Context::minimal(params), 4);
    assert!(count >= 64, "covered {count} distinct runs");
}

#[test]
fn pmin_is_correct_on_every_run_n4_t2() {
    let params = Params::new(4, 2).unwrap();
    let count = exhaustive(Context::minimal(params), 5);
    assert!(count >= 1000, "covered {count} distinct runs");
}

#[test]
fn pbasic_is_correct_on_every_run_n3_t1() {
    let params = Params::new(3, 1).unwrap();
    let count = exhaustive(Context::basic(params), 4);
    assert!(count >= 100, "covered {count} distinct runs");
}

#[test]
fn pmin_is_correct_on_every_run_n5_t1() {
    let params = Params::new(5, 1).unwrap();
    let count = exhaustive(Context::minimal(params), 4);
    assert!(count >= 500, "covered {count} distinct runs");
}
