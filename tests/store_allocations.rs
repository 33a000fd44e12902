//! The enumerate → intern stage's allocation budget, pinned: allocations
//! per sequential, horizon-4 `Scenario::enumerate_store` pass at (3,1), for
//! `E_fip` under sending omission and crash and for `E_basic` under
//! general omission, and each pass's run count. A sequential pass runs
//! entirely on the calling thread, where the allocator of
//! `tests/counting/` counts it exactly. The debug build also keeps the
//! enumerator's leaf table of every trajectory; `eba-sim`'s
//! `update_and_children_counts_per_pass_are_pinned` pins the same passes'
//! `δ` calls and search children.

mod counting;

use counting::{counted, this_thread};
use eba::prelude::*;

/// Allocations per `E_fip@SO` pass: measured 434,010 since `μ` and `δ`
/// write into caller-owned slots, which is the bound (514,020 before,
/// which stayed the bound until it was tightened to the count: a clone of
/// each round's selected messages in `select_round` read 490,298 under
/// it; 555,931 while each node collected its receivers' sender columns
/// into a `Vec` and items sent run-major rows; an arena that re-hashed and
/// cloned every item state into a bucket `Vec` of its own read 917,879).
/// A release build reads 335,402 (415,412 and 819,271 before).
const FIP_SO_BOUND: u64 = 434_010;
/// Allocations per `E_fip@crash` pass: measured 26,953 since `μ` and `δ`
/// write into caller-owned slots (32,851 before, the bound until it was
/// tightened to the count, under which the same `select_round` clone read
/// 31,497; 32,956 before that; the older arena read 41,346).
const FIP_CRASH_BOUND: u64 = 26_953;
/// Allocations per `E_basic@GO` pass: measured 26,908 (29,465 before; the
/// older arena read 33,024).
const BASIC_GO_BOUND: u64 = 26_908;

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
    let (store, count) = counted(this_thread, || scenario.enumerate_store().unwrap());
    (count, store.run_count())
}

#[test]
fn enumeration_passes_stay_within_their_allocation_budget() {
    let params = Params::new(3, 1).unwrap();
    let passes = [
        (
            "E_fip@SO",
            allocations_per_pass(&Context::fip(params).with_model(FailureModel::SendingOmission)),
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
