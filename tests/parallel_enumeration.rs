//! Sharded enumeration is a drop-in replacement for sequential
//! enumeration: on a grid of small `(n, t)` instances, the stream under
//! `Parallelism::Fixed(k)` for 2, 3, 4 and 16 workers carries the same
//! runs in the same order as the sequential stream (one worker runs the
//! sequential path itself). Equal runs get equal verdicts, the verdict
//! being a function of the run. The sequential stream's order is pinned
//! by digest in `engines_agree`.

mod common;

use common::{assert_streams_equal, collect};
use eba::core::exchange::InformationExchange;
use eba::core::protocols::ActionProtocol;
use eba::prelude::*;

/// The worker counts every stream is compared under.
const WORKERS: [usize; 4] = [2, 3, 4, 16];

/// Asserts that every parallel stream of `ctx` at `horizon` equals its
/// sequential stream.
fn assert_identical<E, P>(ctx: &Context<E, P>, horizon: u32)
where
    E: InformationExchange + Sync,
    P: ActionProtocol<E> + Sync,
{
    let runs = collect(ctx, horizon);
    assert!(!runs.is_empty(), "{}", ctx.qualified_name());
    assert_streams_equal(ctx, horizon, &runs, &WORKERS);
}

#[test]
fn pmin_parallel_equals_sequential_on_nt_grid() {
    for (n, t) in [(2, 1), (3, 0), (3, 1), (4, 1), (4, 2)] {
        let params = Params::new(n, t).unwrap();
        assert_identical(&Context::minimal(params), params.default_horizon());
    }
}

#[test]
fn pbasic_parallel_equals_sequential_on_nt_grid() {
    for (n, t) in [(3, 1), (4, 1)] {
        let params = Params::new(n, t).unwrap();
        assert_identical(&Context::basic(params), params.default_horizon());
    }
}

#[test]
fn popt_parallel_equals_sequential() {
    // The FIP branches hardest (every agent sends every round), so keep
    // the instance small; it still covers thousands of runs.
    let params = Params::new(3, 1).unwrap();
    assert_identical(&Context::fip(params), 3);
}

#[test]
fn parallel_all_verdicts_pass_for_correct_protocols() {
    // Sanity on top of equality: the paper's protocols are correct on
    // every enumerated run, so every verdict must be positive.
    let ctx = Context::minimal(Params::new(3, 1).unwrap());
    let runs = Scenario::of(&ctx)
        .parallelism(Parallelism::Fixed(4))
        .enumerate()
        .unwrap();
    assert!(!runs.is_empty());
    for run in &runs {
        let verdict = judge_run(
            ctx.exchange(),
            run.nonfaulty,
            &run.inits,
            &run.states,
            &run.actions,
        );
        assert!(verdict.is_ok(), "violation in N = {}", run.nonfaulty);
    }
}
