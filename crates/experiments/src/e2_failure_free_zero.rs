//! **E2 — failure-free runs with a zero (Prop 8.2(a)).**
//!
//! With at least one initial 0 and no failures, all three protocols reach
//! a unanimous 0-decision by round 2: the 0-holder decides in round 1, its
//! announcement reaches everyone, and the rest decide in round 2. Checked
//! for every position of a single zero.

use eba_core::prelude::*;
use eba_sim::prelude::*;

use crate::table::{cell, Table};

/// Per-protocol decision rounds over all single-zero placements.
#[derive(Clone, Debug)]
pub struct E2Row {
    /// Number of agents.
    pub n: usize,
    /// Fault tolerance.
    pub t: usize,
    /// Protocol name.
    pub protocol: &'static str,
    /// Decision round of the 0-holder (expected 1), max over placements.
    pub zero_holder_round: u32,
    /// Max decision round among the other agents (expected 2).
    pub max_other_round: u32,
    /// All decisions were 0.
    pub unanimous_zero: bool,
}

/// Runs the sweep over `ns`, with `t = (n - 1) / 2` for each.
pub fn run(ns: &[usize]) -> (Vec<E2Row>, Table) {
    let mut rows = Vec::new();
    for &n in ns {
        let t = (n - 1) / 2;
        let params = Params::new(n, t).expect("valid config");
        let min_ctx = Context::minimal(params);
        let basic_ctx = Context::basic(params);
        let fip_ctx = Context::fip(params);

        let mut results: Vec<(&'static str, u32, u32, bool)> = vec![
            ("P_min", 0, 0, true),
            ("P_basic", 0, 0, true),
            ("P_opt", 0, 0, true),
        ];
        for zero_at in 0..n {
            let inits: Vec<Value> = (0..n)
                .map(|i| {
                    if i == zero_at {
                        Value::Zero
                    } else {
                        Value::One
                    }
                })
                .collect();
            let outcomes = [
                summarize(
                    &Scenario::of(&min_ctx).inits(&inits).run().expect("run"),
                    zero_at,
                ),
                summarize(
                    &Scenario::of(&basic_ctx).inits(&inits).run().expect("run"),
                    zero_at,
                ),
                summarize(
                    &Scenario::of(&fip_ctx).inits(&inits).run().expect("run"),
                    zero_at,
                ),
            ];
            for (slot, (hr, or, un)) in results.iter_mut().zip(outcomes) {
                slot.1 = slot.1.max(hr);
                slot.2 = slot.2.max(or);
                slot.3 &= un;
            }
        }
        for (protocol, zero_holder_round, max_other_round, unanimous_zero) in results {
            rows.push(E2Row {
                n,
                t,
                protocol,
                zero_holder_round,
                max_other_round,
                unanimous_zero,
            });
        }
    }

    let mut table = Table::new(
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
    );
    for r in &rows {
        table.push(vec![
            cell(r.n),
            cell(r.t),
            cell(r.protocol),
            cell(r.zero_holder_round),
            cell(r.max_other_round),
            cell(r.unanimous_zero),
        ]);
    }
    (rows, table)
}

/// (zero-holder round, max other round, unanimous zero).
fn summarize<E: eba_core::exchange::InformationExchange>(
    run: &EnumRun<E>,
    zero_at: usize,
) -> (u32, u32, bool) {
    let (rounds, values) = run.decisions();
    let holder = rounds[zero_at].expect("0-holder decides");
    let others = rounds
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != zero_at)
        .map(|(_, r)| r.expect("decides"))
        .max()
        .unwrap_or(0);
    let unanimous = values.iter().all(|v| *v == Some(Value::Zero));
    (holder, others, unanimous)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_prop_82a() {
        let (rows, _) = run(&[3, 4, 6, 9]);
        for r in &rows {
            assert_eq!(r.zero_holder_round, 1, "{r:?}");
            assert_eq!(r.max_other_round, 2, "{r:?}");
            assert!(r.unanimous_zero, "{r:?}");
        }
    }

    #[test]
    fn covers_all_three_protocols() {
        let (rows, _) = run(&[4]);
        let names: Vec<_> = rows.iter().map(|r| r.protocol).collect();
        assert_eq!(names, vec!["P_min", "P_basic", "P_opt"]);
    }
}
