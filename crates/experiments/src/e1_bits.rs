//! **E1 — message complexity (Prop 8.1).**
//!
//! Measures the total bits sent per run: `P_min` sends exactly `n²` bits,
//! `P_basic` at most `O(n² t)`, and the communication-graph FIP `O(n⁴ t²)`.
//! Logical bits come from the simulator's `μ`-level accounting; wire bytes
//! from running the same scenario through the transport's round engine,
//! counted on the frames the real codecs encode.

use eba_core::prelude::*;
use eba_transport::run_named_cluster;

use crate::claims::{pairs, paper_stacks, CheckKind, Claim, Observe};
use crate::table::{cell, Table};

/// Runs the sweep. `configs` are `(n, t)` pairs; both scenarios (failure-
/// free all-ones and silent-faulty all-ones) are measured for each.
pub fn run(configs: &[(usize, usize)]) -> Claim {
    let mut claim = Claim::new(
        "E1",
        "Prop 8.1",
        "P_min sends n² bits, P_basic ≤ 2(t+2)·n², FIP O(n⁴t²); min < basic < FIP",
        CheckKind::SingleRuns,
        format!("{} × 2 scenarios", pairs(configs)),
        Table::new(
            "E1: message complexity (Prop 8.1)",
            "Total bits sent per run (all-ones inputs). Paper: P_min = n² exactly, \
             P_basic = O(n²t), FIP graphs = O(n⁴t²). The normalized columns \
             should stay bounded as n and t grow.",
            &[
                "n",
                "t",
                "scenario",
                "P_min bits",
                "P_basic bits",
                "FIP bits",
                "FIP wire bytes",
                "basic/n²",
                "fip/(n⁴t²)",
            ],
        ),
    );
    for &(n, t) in configs {
        let params = Params::new(n, t).expect("valid config");
        let stacks = paper_stacks(params);
        let inits = vec![Value::One; n];
        for (scenario, pattern) in scenarios(params) {
            let [min, basic, fip] = stacks
                .each_ref()
                .map(|stack| stack.visit(Observe(&pattern, &inits)).bits_sent);
            let wire = run_named_cluster(&stacks[2], &pattern, &inits, params.default_horizon())
                .expect("wire run");
            let basic_per_n2 = basic as f64 / (n * n) as f64;
            let fip_per_n4t2 = fip as f64 / ((n as f64).powi(4) * (t.max(1) as f64).powi(2));
            claim.row(
                vec![
                    cell(n),
                    cell(t),
                    cell(scenario),
                    cell(min),
                    cell(basic),
                    cell(fip),
                    cell(wire.wire_bytes_sent),
                    format!("{basic_per_n2:.1}"),
                    format!("{fip_per_n4t2:.3}"),
                ],
                &[
                    ("P_min bits = n²", min == (n * n) as u64),
                    ("P_min < P_basic < FIP bits", min < basic && basic < fip),
                    (
                        "basic/n² ≤ 2(t + 2)",
                        basic_per_n2 <= 2.0 * (t as f64 + 2.0),
                    ),
                    ("fip/(n⁴t²) < 8 from t = 3 on", t < 3 || fip_per_n4t2 < 8.0),
                ],
            );
        }
    }
    claim
}

/// The failure-free scenario, and `t` silent agents where `n − t ≥ 2`.
fn scenarios(params: Params) -> Vec<(&'static str, FailurePattern)> {
    let mut scenarios = vec![("failure-free", FailurePattern::failure_free(params))];
    if params.n() - params.t() >= 2 {
        let silent: AgentSet = (0..params.t()).map(AgentId::new).collect();
        let pattern = silent_pattern(params, silent, params.default_horizon()).expect("t faulty");
        scenarios.push(("silent-faulty", pattern));
    }
    scenarios
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claims::assert_holds;

    #[test]
    fn pmin_is_exactly_n_squared() {
        assert_holds(run(&[(4, 1), (6, 2)]));
    }

    #[test]
    fn basic_is_order_n2_t() {
        assert_holds(run(&[(6, 1), (6, 2), (8, 3)]));
    }

    #[test]
    fn ordering_min_below_basic_below_fip() {
        assert_holds(run(&[(6, 2), (8, 3)]));
    }

    #[test]
    fn fip_normalization_is_bounded() {
        assert_holds(run(&[(8, 3), (12, 5)]));
    }

    #[test]
    fn table_renders() {
        let md = assert_holds(run(&[(4, 1)])).table.to_markdown();
        assert!(md.contains("E1"));
        assert!(md.lines().count() >= 6);
    }
}
