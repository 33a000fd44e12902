//! Sharded enumeration is a drop-in replacement for sequential
//! enumeration: on a grid of small `(n, t)` instances and several worker
//! counts, `Scenario::enumerate` under `Parallelism::Fixed(k)` must return
//! the **same runs in the same order** as under `Parallelism::Sequential`,
//! and every run must receive the same EBA verdict.

use eba::core::exchange::InformationExchange;
use eba::core::protocols::ActionProtocol;
use eba::prelude::*;

/// The per-run verdict compared across enumerations: whether the run
/// satisfies the EBA spec (`judge_run`).
fn eba_verdict<E: InformationExchange>(ex: &E, run: &EnumRun<E>) -> bool {
    judge_run(ex, run.nonfaulty, &run.inits, &run.states, &run.actions).is_ok()
}

/// Asserts run-count, order, trajectory, and verdict equality between
/// sequential and sharded enumeration of one stack.
fn assert_identical<E, P>(ctx: &Context<E, P>, horizon: u32, label: &str)
where
    E: InformationExchange + Sync,
    P: ActionProtocol<E> + Sync,
{
    let ex = ctx.exchange();
    let sequential = Scenario::of(ctx)
        .horizon(horizon)
        .enumerate()
        .expect("sequential");
    for workers in [2usize, 4, 16] {
        let parallel = Scenario::of(ctx)
            .horizon(horizon)
            .parallelism(Parallelism::Fixed(workers))
            .enumerate()
            .expect("parallel");
        assert_eq!(
            sequential.len(),
            parallel.len(),
            "{label}: run count with {workers} workers"
        );
        for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
            assert_eq!(s.nonfaulty, p.nonfaulty, "{label}: run {i} nonfaulty set");
            assert_eq!(s.inits, p.inits, "{label}: run {i} inits");
            assert_eq!(s.states, p.states, "{label}: run {i} trajectory");
            assert_eq!(s.actions, p.actions, "{label}: run {i} actions");
            assert_eq!(
                eba_verdict(ex, s),
                eba_verdict(ex, p),
                "{label}: run {i} verdict"
            );
        }
    }
}

#[test]
fn pmin_parallel_equals_sequential_on_nt_grid() {
    for (n, t) in [(2, 1), (3, 0), (3, 1), (4, 1), (4, 2)] {
        let params = Params::new(n, t).unwrap();
        assert_identical(
            &Context::minimal(params),
            params.default_horizon(),
            &format!("P_min n={n} t={t}"),
        );
    }
}

#[test]
fn pbasic_parallel_equals_sequential_on_nt_grid() {
    for (n, t) in [(3, 1), (4, 1)] {
        let params = Params::new(n, t).unwrap();
        assert_identical(
            &Context::basic(params),
            params.default_horizon(),
            &format!("P_basic n={n} t={t}"),
        );
    }
}

#[test]
fn popt_parallel_equals_sequential() {
    // The FIP branches hardest (every agent sends every round), so keep
    // the instance small; it still covers thousands of runs.
    let params = Params::new(3, 1).unwrap();
    assert_identical(&Context::fip(params), 3, "P_opt n=3 t=1");
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
        assert!(
            eba_verdict(ctx.exchange(), run),
            "violation in N = {}",
            run.nonfaulty
        );
    }
}
