//! **E4 — Example 7.1: silent faulty agents.**
//!
//! The paper's motivating example for `P1`'s common-knowledge rules:
//! `n = 20`, `t = 10`, agents 1–10 faulty and totally silent, all initial
//! preferences 1. The nonfaulty agents learn all `t` faults in round 1,
//! gain common knowledge of them in round 2, and `P_opt` decides in
//! **round 3** — while `P_min` and `P_basic` wait until **round 12**
//! (`t + 2`).
//!
//! The sweep over the number of silent agents `k` exposes the mechanism:
//! with `k < t` silent agents a hidden 0-chain of length `k` can never be
//! ruled out before time `k + 1`, so every protocol that rules out chains
//! by counting (`P_basic`, and `P_opt` with its common-knowledge rules
//! ablated) decides in round `k + 2`; only at `k = t` does common
//! knowledge of *the entire faulty set* arrive early and cut `P_opt` to
//! round 3.

use eba_core::prelude::*;

use crate::claims::{observe, paper_stacks, CheckKind, Claim, Observe};
use crate::table::{cell, or_dash, Table};

/// Runs the sweep `k = 1..=t` for the given `(n, t)`, all-ones inputs.
pub fn run(n: usize, t: usize, ks: &[usize]) -> Claim {
    let mut claim = Claim::new(
        "E4",
        "Example 7.1",
        "k silent faulty, all-ones: P_basic in round k+2, P_opt in round 3 at k = t, P_min in t+2",
        CheckKind::SingleRuns,
        format!("({n},{t}), k ∈ {}..{}", ks[0], ks[ks.len() - 1]),
        Table::new(
            "E4: Example 7.1 — silent faulty agents, all-ones",
            "Decision round of the nonfaulty agents with k silent faulty agents. \
             Paper (k = t = 10, n = 20): P_fip decides in round 3, P_min and \
             P_basic in round 12. The ablation column shows the common-knowledge \
             rules are exactly what buys the round-3 decision.",
            &[
                "n",
                "t",
                "k silent",
                "P_min",
                "P_basic",
                "P_opt",
                "P_opt∖CK",
            ],
        ),
    );
    let params = Params::new(n, t).expect("valid config");
    let inits = vec![Value::One; n];
    let stacks = paper_stacks(params);
    // The ablation is not a registered stack, but any exchange/protocol
    // pair forms a context.
    let no_ck_ctx = Context::new(
        FipExchange::new(params),
        POpt::without_common_knowledge(params),
    );
    for &k in ks {
        assert!(k <= t, "cannot silence more than t agents");
        let silent: AgentSet = (0..k).map(AgentId::new).collect();
        let pattern = silent_pattern(params, silent, params.default_horizon()).expect("k ≤ t");
        let [pmin, pbasic, popt] = stacks
            .each_ref()
            .map(|stack| stack.visit(Observe(&pattern, &inits)).max_round);
        let ablated = observe(&no_ck_ctx, &pattern, &inits).max_round;
        let k_plus_2 = Some(k as u32 + 2);
        claim.row(
            vec![
                cell(n),
                cell(t),
                cell(k),
                or_dash(pmin),
                or_dash(pbasic),
                or_dash(popt),
                or_dash(ablated),
            ],
            &[
                ("P_min decides in round t + 2", pmin == Some(t as u32 + 2)),
                (
                    "P_basic and P_opt∖CK decide in round k + 2",
                    pbasic == k_plus_2 && ablated == k_plus_2,
                ),
                (
                    "P_opt decides in round k + 2, and in round 3 at k = t",
                    popt == if k < t { k_plus_2 } else { Some(3) },
                ),
            ],
        );
    }
    claim
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claims::assert_holds;

    #[test]
    fn example_7_1_exact_numbers() {
        // P_opt in round 3; P_min, P_basic and the ablation in round 12.
        assert_holds(run(20, 10, &[10]));
    }

    #[test]
    fn sweep_shape_small() {
        assert_holds(run(8, 3, &[1, 2, 3]));
    }
}
