//! **E3 — failure-free all-ones runs (Prop 8.2(b)).**
//!
//! When every agent prefers 1 and nothing fails, `P_min` must still wait
//! out its `t + 2` deadline, while `P_basic` and `P_opt` decide in round 2:
//! the broadcastable evidence (`(init,1)` counts, full views) rules out
//! hidden 0-chains immediately. This is the cost of the minimal exchange.

use eba_core::prelude::*;

use crate::claims::{paper_stacks, CheckKind, Claim, Observe, Observed};
use crate::table::{cell, or_dash, Table};

/// Runs the sweep over `t` values at fixed `n`.
pub fn run(n: usize, ts: &[usize]) -> Claim {
    let ts_cell: Vec<String> = ts.iter().map(|t| t.to_string()).collect();
    let mut claim = Claim::new(
        "E3",
        "Prop 8.2(b)",
        "failure-free all-ones: P_min decides in round t+2, P_basic and P_opt in round 2",
        CheckKind::SingleRuns,
        format!("n = {n}, t ∈ {{{}}}", ts_cell.join(", ")),
        Table::new(
            "E3: failure-free all-ones runs (Prop 8.2(b))",
            "Common decision round when every agent prefers 1 and no failure \
             occurs. Paper: P_min decides in round t + 2; P_basic and P_fip in \
             round 2 regardless of t.",
            &[
                "n",
                "t",
                "P_min round",
                "P_basic round",
                "P_opt round",
                "t+2",
            ],
        ),
    );
    for &t in ts {
        let params = Params::new(n, t).expect("valid config");
        let failure_free = FailurePattern::failure_free(params);
        let inits = vec![Value::One; n];
        let [pmin, pbasic, popt] = paper_stacks(params)
            .map(|stack| common_round(&stack.visit(Observe(&failure_free, &inits))));
        claim.row(
            vec![
                cell(n),
                cell(t),
                or_dash(pmin),
                or_dash(pbasic),
                or_dash(popt),
                cell(t + 2),
            ],
            &[
                ("P_min decides 1 in round t + 2", pmin == Some(t as u32 + 2)),
                (
                    "P_basic and P_opt decide 1 in round 2",
                    pbasic == Some(2) && popt == Some(2),
                ),
            ],
        );
    }
    claim
}

/// The round in which every agent decides 1, if they all do so in one
/// round.
fn common_round(run: &Observed) -> Option<u32> {
    let first = run.rounds[0]?;
    let common = run.rounds.iter().all(|r| *r == Some(first))
        && run.values.iter().all(|v| *v == Some(Value::One));
    common.then_some(first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claims::assert_holds;

    #[test]
    fn matches_prop_82b() {
        assert_holds(run(8, &[0, 1, 2, 3, 5]));
    }

    #[test]
    fn crossover_shape_pmin_grows_linearly() {
        // P_min's latency grows with t while the other two stay flat.
        assert_holds(run(10, &[1, 2, 3, 4]));
    }
}
