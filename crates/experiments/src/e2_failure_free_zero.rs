//! **E2 — failure-free runs with a zero (Prop 8.2(a)).**
//!
//! With at least one initial 0 and no failures, all three protocols reach
//! a unanimous 0-decision by round 2: the 0-holder decides in round 1, its
//! announcement reaches everyone, and the rest decide in round 2. Checked
//! for every position of a single zero.

use eba_core::prelude::*;

use crate::claims::{paper_stacks, protocol_of, CheckKind, Claim, Observe};
use crate::table::{cell, Table};

/// Runs the sweep over `ns`, with `t = (n - 1) / 2` for each.
pub fn run(ns: &[usize]) -> Claim {
    let ns_cell: Vec<String> = ns.iter().map(|n| n.to_string()).collect();
    let mut claim = Claim::new(
        "E2",
        "Prop 8.2(a)",
        "failure-free with one 0: its holder decides 0 in round 1, the rest in round 2",
        CheckKind::SingleRuns,
        format!(
            "n ∈ {{{}}}, t = ⌊(n−1)/2⌋, every 0 placement",
            ns_cell.join(", ")
        ),
        Table::new(
            "E2: failure-free runs with one zero (Prop 8.2(a))",
            "Max decision rounds over every placement of a single 0. Paper: the \
             0-holder decides in round 1 and everyone else by round 2, for all \
             three protocols.",
            &[
                "n",
                "t",
                "protocol",
                "0-holder round",
                "max other round",
                "all decide 0",
            ],
        ),
    );
    for &n in ns {
        let t = (n - 1) / 2;
        let params = Params::new(n, t).expect("valid config");
        let failure_free = FailurePattern::failure_free(params);
        for stack in paper_stacks(params) {
            let (mut holder_round, mut other_round, mut unanimous) = (0, 0, true);
            for zero_at in 0..n {
                let mut inits = vec![Value::One; n];
                inits[zero_at] = Value::Zero;
                let run = stack.visit(Observe(&failure_free, &inits));
                holder_round = holder_round.max(run.rounds[zero_at].expect("0-holder decides"));
                for (i, round) in run.rounds.iter().enumerate() {
                    if i != zero_at {
                        other_round = other_round.max(round.expect("decides"));
                    }
                }
                unanimous &= run.values.iter().all(|v| *v == Some(Value::Zero));
            }
            claim.row(
                vec![
                    cell(n),
                    cell(t),
                    cell(protocol_of(&stack)),
                    cell(holder_round),
                    cell(other_round),
                    cell(unanimous),
                ],
                &[
                    ("the 0-holder decides in round 1", holder_round == 1),
                    ("the others decide in round 2", other_round == 2),
                    ("all decide 0", unanimous),
                ],
            );
        }
    }
    claim
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claims::assert_holds;

    #[test]
    fn matches_prop_82a() {
        assert_holds(run(&[3, 4, 6, 9]));
    }

    #[test]
    fn covers_all_three_protocols() {
        let claim = assert_holds(run(&[4]));
        let names: Vec<_> = claim.table.rows.iter().map(|r| r[2].as_str()).collect();
        assert_eq!(names, vec!["P_min", "P_basic", "P_opt"]);
    }
}
