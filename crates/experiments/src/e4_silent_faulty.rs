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
use eba_sim::prelude::*;

use crate::table::{cell, Table};

/// Decision rounds (max over nonfaulty agents) with `k` silent faulty
/// agents.
#[derive(Clone, Debug)]
pub struct E4Row {
    /// Number of agents.
    pub n: usize,
    /// Fault tolerance.
    pub t: usize,
    /// Number of silent faulty agents.
    pub k: usize,
    /// `P_min`'s decision round (expected `t + 2`).
    pub pmin_round: u32,
    /// `P_basic`'s decision round (expected `k + 2`).
    pub pbasic_round: u32,
    /// `P_opt`'s decision round (expected `k + 2` for `k < t`, 3 at `k = t`).
    pub popt_round: u32,
    /// The ablation: `P_opt` without the common-knowledge rules.
    pub popt_no_ck_round: u32,
}

/// Runs the sweep `k = 1..=t` for the given `(n, t)`, all-ones inputs.
pub fn run(n: usize, t: usize, ks: &[usize]) -> (Vec<E4Row>, Table) {
    let params = Params::new(n, t).expect("valid config");
    let inits = vec![Value::One; n];
    let min_ctx = Context::minimal(params);
    let basic_ctx = Context::basic(params);
    let fip_ctx = Context::fip(params);
    // The ablation is not a registered stack, but any exchange/protocol
    // pair forms a context.
    let no_ck_ctx = Context::new(
        FipExchange::new(params),
        POpt::without_common_knowledge(params),
    );
    let mut rows = Vec::new();
    for &k in ks {
        assert!(k <= t, "cannot silence more than t agents");
        let silent: AgentSet = (0..k).map(AgentId::new).collect();
        let pattern = silent_pattern(params, silent, params.default_horizon()).expect("k ≤ t");
        let nonfaulty = pattern.nonfaulty();

        let pmin = Scenario::of(&min_ctx)
            .pattern(pattern.clone())
            .inits(&inits)
            .run()
            .expect("run");
        let pbasic = Scenario::of(&basic_ctx)
            .pattern(pattern.clone())
            .inits(&inits)
            .run()
            .expect("run");
        let popt = Scenario::of(&fip_ctx)
            .pattern(pattern.clone())
            .inits(&inits)
            .run()
            .expect("run");
        let popt_no_ck = Scenario::of(&no_ck_ctx)
            .pattern(pattern.clone())
            .inits(&inits)
            .run()
            .expect("run");

        rows.push(E4Row {
            n,
            t,
            k,
            pmin_round: pmin.max_decision_round(nonfaulty).expect("all decide"),
            pbasic_round: pbasic.max_decision_round(nonfaulty).expect("all decide"),
            popt_round: popt.max_decision_round(nonfaulty).expect("all decide"),
            popt_no_ck_round: popt_no_ck
                .max_decision_round(nonfaulty)
                .expect("all decide"),
        });
    }

    let mut table = Table::new(
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
    );
    for r in &rows {
        table.push(vec![
            cell(r.n),
            cell(r.t),
            cell(r.k),
            cell(r.pmin_round),
            cell(r.pbasic_round),
            cell(r.popt_round),
            cell(r.popt_no_ck_round),
        ]);
    }
    (rows, table)
}

/// The exact configuration of Example 7.1.
pub fn example_7_1() -> E4Row {
    let (rows, _) = run(20, 10, &[10]);
    rows.into_iter().next().expect("one row")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_7_1_exact_numbers() {
        let row = example_7_1();
        assert_eq!(row.popt_round, 3, "P_fip decides in round 3");
        assert_eq!(row.pmin_round, 12, "P_min decides in round 12");
        assert_eq!(row.pbasic_round, 12, "P_basic decides in round 12");
        assert_eq!(row.popt_no_ck_round, 12, "the CK rules are load-bearing");
    }

    #[test]
    fn sweep_shape_small() {
        // n = 8, t = 3: P_basic and the ablated P_opt track k + 2; the full
        // P_opt matches them for k < t and drops to 3 at k = t.
        let (rows, _) = run(8, 3, &[1, 2, 3]);
        for r in &rows {
            assert_eq!(r.pmin_round, 5, "P_min is constant t+2: {r:?}");
            assert_eq!(r.pbasic_round, r.k as u32 + 2, "{r:?}");
            assert_eq!(r.popt_no_ck_round, r.k as u32 + 2, "{r:?}");
            if r.k < r.t {
                assert_eq!(r.popt_round, r.k as u32 + 2, "{r:?}");
            } else {
                assert_eq!(r.popt_round, 3, "common knowledge at k = t: {r:?}");
            }
        }
    }
}
