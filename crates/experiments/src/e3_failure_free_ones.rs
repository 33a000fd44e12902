//! **E3 — failure-free all-ones runs (Prop 8.2(b)).**
//!
//! When every agent prefers 1 and nothing fails, `P_min` must still wait
//! out its `t + 2` deadline, while `P_basic` and `P_opt` decide in round 2:
//! the broadcastable evidence (`(init,1)` counts, full views) rules out
//! hidden 0-chains immediately. This is the cost of the minimal exchange.

use eba_core::prelude::*;
use eba_sim::prelude::*;

use crate::table::{cell, Table};

/// Decision rounds for one `(n, t)` configuration, all-ones, no failures.
#[derive(Clone, Debug)]
pub struct E3Row {
    /// Number of agents.
    pub n: usize,
    /// Fault tolerance.
    pub t: usize,
    /// `P_min`'s common decision round (expected `t + 2`).
    pub pmin_round: u32,
    /// `P_basic`'s common decision round (expected 2).
    pub pbasic_round: u32,
    /// `P_opt`'s common decision round (expected 2).
    pub popt_round: u32,
}

/// Runs the sweep over `t` values at fixed `n`.
pub fn run(n: usize, ts: &[usize]) -> (Vec<E3Row>, Table) {
    let mut rows = Vec::new();
    for &t in ts {
        let params = Params::new(n, t).expect("valid config");
        let inits = vec![Value::One; n];

        let min_ctx = Context::minimal(params);
        let basic_ctx = Context::basic(params);
        let fip_ctx = Context::fip(params);
        let pmin_round = common_round(&Scenario::of(&min_ctx).inits(&inits).run().expect("run"));
        let pbasic_round =
            common_round(&Scenario::of(&basic_ctx).inits(&inits).run().expect("run"));
        let popt_round = common_round(&Scenario::of(&fip_ctx).inits(&inits).run().expect("run"));
        rows.push(E3Row {
            n,
            t,
            pmin_round,
            pbasic_round,
            popt_round,
        });
    }

    let mut table = Table::new(
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
    );
    for r in &rows {
        table.push(vec![
            cell(r.n),
            cell(r.t),
            cell(r.pmin_round),
            cell(r.pbasic_round),
            cell(r.popt_round),
            cell(r.t + 2),
        ]);
    }
    (rows, table)
}

/// All agents decide in the same round here; return it.
fn common_round<E: eba_core::exchange::InformationExchange>(run: &EnumRun<E>) -> u32 {
    let (rounds, values) = run.decisions();
    let rounds: Vec<u32> = rounds.into_iter().map(|r| r.expect("decides")).collect();
    let first = rounds[0];
    assert!(
        rounds.iter().all(|r| *r == first),
        "expected a simultaneous decision, got {rounds:?}"
    );
    assert!(
        values.iter().all(|v| *v == Some(Value::One)),
        "expected a unanimous 1"
    );
    first
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_prop_82b() {
        let (rows, _) = run(8, &[0, 1, 2, 3, 5]);
        for r in &rows {
            assert_eq!(r.pmin_round, r.t as u32 + 2, "{r:?}");
            assert_eq!(r.pbasic_round, 2, "{r:?}");
            assert_eq!(r.popt_round, 2, "{r:?}");
        }
    }

    #[test]
    fn crossover_shape_pmin_grows_linearly() {
        // The figure-level claim: P_min's latency grows with t while the
        // other two stay flat.
        let (rows, _) = run(10, &[1, 2, 3, 4]);
        for w in rows.windows(2) {
            assert_eq!(w[1].pmin_round, w[0].pmin_round + 1);
            assert_eq!(w[1].pbasic_round, w[0].pbasic_round);
        }
    }
}
