//! Exhaustive correctness: the EBA specification checked on **every** run
//! of small contexts — all nonfaulty-set choices, all inputs, all
//! meaningful delivery patterns (via the delivery-choice enumeration of
//! `eba-sim`). This is stronger than randomized testing: the properties
//! hold with certainty on these instances. Every run passes two judges
//! that must agree: the library's `judge_run`, and `check_enum_run`, a
//! judge written out here independently of it.

use eba::core::exchange::InformationExchange;
use eba::core::protocols::ActionProtocol;
use eba::core::types::EbaError;
use eba::prelude::*;

/// Checks the four EBA properties plus strong Validity and the `t + 2`
/// bound directly on an enumerated run: a judge written out here,
/// independently of `judge_run`.
fn check_enum_run<E: InformationExchange>(ex: &E, run: &EnumRun<E>) -> Result<(), String> {
    let n = ex.params().n();
    let bound = ex.params().decide_by_round();
    let final_states = run.states.last().unwrap();

    for i in 0..n {
        let agent = AgentId::new(i);
        // Unique decision: at most one Decide action.
        let decisions: Vec<(usize, Value)> = run
            .actions
            .iter()
            .enumerate()
            .filter_map(|(m, acts)| acts[i].decided_value().map(|v| (m, v)))
            .collect();
        if decisions.len() > 1 {
            return Err(format!("{agent} decided twice: {decisions:?}"));
        }
        // Termination within t + 2 — for every agent (Prop 6.1).
        match decisions.first() {
            None => return Err(format!("{agent} never decided")),
            Some((m, _)) if *m as u32 + 1 > bound => {
                return Err(format!("{agent} decided in round {} > {bound}", m + 1));
            }
            _ => {}
        }
        // Strong validity.
        if let Some(v) = ex.decided(&final_states[i]) {
            if !run.inits.contains(&v) {
                return Err(format!("{agent} decided unheld value {v}"));
            }
        }
    }
    // Agreement among nonfaulty agents.
    let mut nonfaulty_values = run
        .nonfaulty
        .iter()
        .filter_map(|a| ex.decided(&final_states[a.index()]));
    if let Some(first) = nonfaulty_values.next() {
        if nonfaulty_values.any(|v| v != first) {
            return Err(format!(
                "nonfaulty agents disagree in run with N = {}",
                run.nonfaulty
            ));
        }
    }
    Ok(())
}

/// Both judges' verdict on one run, the first rejection named.
fn both_judges<E: InformationExchange>(ex: &E, run: &EnumRun<E>) -> Result<(), EbaError> {
    check_enum_run(ex, run).map_err(EbaError::InvalidInput)?;
    judge_run(ex, run.nonfaulty, &run.inits, &run.states, &run.actions)
        .map_err(|v| EbaError::InvalidInput(format!("judge_run: {v}")))
}

/// Streams every run of the context through both judges — no run set is
/// ever collected, so even the ~100k-run FIP context checks in
/// O(work item) memory — and returns how many runs there were.
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
fn popt_is_correct_on_every_run_n3_t1() {
    let params = Params::new(3, 1).unwrap();
    let count = exhaustive(Context::fip(params), 4);
    assert!(count >= 90_000, "covered {count} distinct runs");
}

#[test]
fn popt_ablated_is_still_correct_n3_t1() {
    // Removing the common-knowledge rules costs speed, never correctness
    // (it is P0, which is correct in every EBA context — Prop 6.1).
    let params = Params::new(3, 1).unwrap();
    let count = exhaustive(
        Context::new(
            FipExchange::new(params),
            POpt::without_common_knowledge(params),
        ),
        4,
    );
    assert!(count >= 90_000, "covered {count} distinct runs");
}

#[test]
fn pmin_is_correct_on_every_run_n5_t1() {
    let params = Params::new(5, 1).unwrap();
    let count = exhaustive(Context::minimal(params), 4);
    assert!(count >= 500, "covered {count} distinct runs");
}
