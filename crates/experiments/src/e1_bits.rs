//! **E1 — message complexity (Prop 8.1).**
//!
//! Measures the total bits sent per run: `P_min` sends exactly `n²` bits,
//! `P_basic` at most `O(n² t)`, and the communication-graph FIP `O(n⁴ t²)`.
//! Logical bits come from the simulator's `μ`-level accounting; wire bytes
//! from running the same scenario through the transport's round engine,
//! counted on the frames the real codecs encode.

use eba_core::prelude::*;
use eba_sim::prelude::*;
use eba_transport::run_named_cluster;

use crate::table::{cell, Table};

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct E1Row {
    /// Number of agents.
    pub n: usize,
    /// Fault tolerance.
    pub t: usize,
    /// Scenario name (`failure-free` or `silent-faulty`).
    pub scenario: &'static str,
    /// Logical bits sent by `P_min` (must equal `n²`).
    pub min_bits: u64,
    /// Logical bits sent by `P_basic`.
    pub basic_bits: u64,
    /// Logical bits sent by `P_opt` over the FIP.
    pub fip_bits: u64,
    /// Wire bytes of the FIP run's encoded frames.
    pub fip_wire_bytes: u64,
}

impl E1Row {
    /// `basic_bits / n²` — the paper predicts `O(t)`.
    pub fn basic_per_n2(&self) -> f64 {
        self.basic_bits as f64 / (self.n * self.n) as f64
    }

    /// `fip_bits / (n⁴ t²)` — the paper predicts `O(1)`.
    pub fn fip_per_n4t2(&self) -> f64 {
        let denom = (self.n as f64).powi(4) * (self.t.max(1) as f64).powi(2);
        self.fip_bits as f64 / denom
    }
}

/// The logical bits one run of `ctx` sends: its [`Metrics`] replayed
/// from the run and `pattern`.
fn bits_sent<E, P>(ctx: &Context<E, P>, pattern: &FailurePattern, inits: &[Value]) -> u64
where
    E: InformationExchange,
    P: ActionProtocol<E>,
{
    let run = Scenario::of(ctx)
        .pattern(pattern.clone())
        .inits(inits)
        .run()
        .expect("run");
    Metrics::of(ctx.exchange(), &run, pattern).bits_sent
}

/// Runs the sweep. `configs` are `(n, t)` pairs; both scenarios (failure-
/// free all-ones and silent-faulty all-ones) are measured for each.
pub fn run(configs: &[(usize, usize)]) -> (Vec<E1Row>, Table) {
    let mut rows = Vec::new();
    for &(n, t) in configs {
        let params = Params::new(n, t).expect("valid config");
        for (scenario, pattern) in scenarios(params) {
            let inits = vec![Value::One; n];

            let fip_ctx = Context::fip(params);
            let min_bits = bits_sent(&Context::minimal(params), &pattern, &inits);
            let basic_bits = bits_sent(&Context::basic(params), &pattern, &inits);
            let fip_bits = bits_sent(&fip_ctx, &pattern, &inits);
            let fip_report = run_named_cluster(
                &NamedStack::Fip(fip_ctx),
                &pattern,
                &inits,
                params.default_horizon(),
            )
            .expect("wire run");

            rows.push(E1Row {
                n,
                t,
                scenario,
                min_bits,
                basic_bits,
                fip_bits,
                fip_wire_bytes: fip_report.wire_bytes_sent,
            });
        }
    }

    let mut table = Table::new(
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
    );
    for r in &rows {
        table.push(vec![
            cell(r.n),
            cell(r.t),
            cell(r.scenario),
            cell(r.min_bits),
            cell(r.basic_bits),
            cell(r.fip_bits),
            cell(r.fip_wire_bytes),
            format!("{:.1}", r.basic_per_n2()),
            format!("{:.3}", r.fip_per_n4t2()),
        ]);
    }
    (rows, table)
}

fn scenarios(params: Params) -> Vec<(&'static str, FailurePattern)> {
    let n = params.n();
    let t = params.t();
    let silent: AgentSet = (0..t).map(AgentId::new).collect();
    vec![
        ("failure-free", FailurePattern::failure_free(params)),
        (
            "silent-faulty",
            silent_pattern(params, silent, params.default_horizon()).expect("t faulty"),
        ),
    ]
    .into_iter()
    .filter(|(name, _)| *name == "failure-free" || n - t >= 2)
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmin_is_exactly_n_squared() {
        let (rows, _) = run(&[(4, 1), (6, 2)]);
        for r in &rows {
            assert_eq!(r.min_bits, (r.n * r.n) as u64, "{} n={}", r.scenario, r.n);
        }
    }

    #[test]
    fn basic_is_order_n2_t() {
        // basic/n² grows with t but stays ≤ 2(t + 2) (≤ t+1 undecided
        // broadcast rounds + the decision round, 2 bits per message).
        let (rows, _) = run(&[(6, 1), (6, 2), (8, 3)]);
        for r in &rows {
            assert!(
                r.basic_per_n2() <= 2.0 * (r.t as f64 + 2.0),
                "basic/n² = {} too large at t = {}",
                r.basic_per_n2(),
                r.t
            );
        }
    }

    #[test]
    fn ordering_min_below_basic_below_fip() {
        let (rows, _) = run(&[(6, 2), (8, 3)]);
        for r in &rows {
            assert!(r.min_bits < r.basic_bits, "{r:?}");
            assert!(r.basic_bits < r.fip_bits, "{r:?}");
        }
    }

    #[test]
    fn fip_normalization_is_bounded() {
        let (rows, _) = run(&[(8, 3), (12, 5)]);
        for r in &rows {
            assert!(r.fip_per_n4t2() < 8.0, "fip/(n⁴t²) = {}", r.fip_per_n4t2());
        }
    }

    #[test]
    fn table_renders() {
        let (_, table) = run(&[(4, 1)]);
        let md = table.to_markdown();
        assert!(md.contains("E1"));
        assert!(md.lines().count() >= 6);
    }
}
