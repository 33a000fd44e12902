//! The estimator's allocation budget, pinned: mean allocations per trial
//! of one sequential stratified `E_basic/P_basic` estimate at (16, 4),
//! and mean allocations per `run_rounds` run over sampled (16, 4) cases.
//! Both run on the calling thread, where the allocator of
//! `tests/counting/` counts them exactly; a trial that builds a
//! trajectory it throws away, or a message vector collected afresh every
//! round, moves them at once.

mod counting;

use counting::{counted, sessions, this_thread};
use eba::prelude::*;
use eba::stat::prelude::*;

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
    let (est, count) = counted(this_thread, || {
        estimate(&stack, &plan, Parallelism::Sequential).unwrap()
    });
    assert_eq!(est.violations, 0);
    let per_trial = count as f64 / plan.trials as f64;
    println!("allocations per trial: (16,4) E_basic stratified {per_trial:.2}");
    assert!(
        per_trial <= TRIAL_BOUND,
        "{per_trial:.2} allocations per trial, over the bound of {TRIAL_BOUND}"
    );
}

#[test]
fn lockstep_runs_stay_within_their_allocation_budget() {
    let (ctx, horizon) = (Context::basic(n16()), n16().default_horizon());
    let runs = sessions(n16(), 256, 3770, |_| {
        ("E_basic/P_basic", "sending_omission")
    });
    let total: u64 = (runs.iter())
        .map(|spec| {
            let (run, count) = counted(this_thread, || {
                run_rounds(&ctx, &spec.pattern, &spec.inits, horizon).unwrap()
            });
            assert_eq!(run.horizon(), horizon);
            count
        })
        .sum();
    let per_run = total as f64 / runs.len() as f64;
    println!("allocations per run_rounds run: (16,4) E_basic, horizon {horizon}: {per_run:.2}");
    let bound = run_bound(horizon);
    assert!(
        per_run <= bound,
        "{per_run:.2} allocations per run, over the bound of {bound}"
    );
}
